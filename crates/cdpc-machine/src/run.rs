//! The machine run loop: executes a compiled program's reference streams
//! against the memory system, OS, and page-mapping policy, producing a
//! [`RunReport`].
//!
//! ## Methodology (paper §3.2)
//!
//! The paper measures *representative execution windows*: the program is
//! positioned at its steady state, statistics are collected separately per
//! phase, weighted by each phase's occurrence count, and the first
//! (cold-miss-dominated) executions are discarded. The run loop reproduces
//! this: one **warm-up pass** over all phases (faulting pages in and
//! warming caches, statistics discarded), then one **measured pass** whose
//! per-phase statistics are scaled by the phase counts.
//!
//! Processors are interleaved one reference at a time in global time order
//! (a priority queue on local clocks, popped once per batch of ops that
//! stays below the runner-up's clock), so bus contention and coherence
//! races resolve the way they would on the machine. `tests/reference`
//! holds a deliberately naive model of the same machine; the reference
//! tests require its reports to equal this run loop's exactly.

use std::cmp::Reverse;

use std::collections::{BinaryHeap, HashMap};

use cdpc_compiler::trace::TraceOp;
use cdpc_compiler::{CompiledProgram, CompiledStmt};
use cdpc_core::hints::HintOptions;
use cdpc_core::{generate_hints_with, ColorHints, FxBuildHasher, MachineParams};
use cdpc_memsim::{AccessKind, CpuStats, MemConfig, MemStats, MemorySystem};
use cdpc_obs::{AttributionProbe, HintOutcome, IntervalSeries, NullProbe, Probe, Sample};
use cdpc_vm::addr::{Color, ColorSpace, PageGeometry, PhysAddr, Ppn, VirtAddr, Vpn};
use cdpc_vm::policy::{BinHopping, CdpcPolicy, MappingPolicy, PageColoring};
use cdpc_vm::{AddressSpace, FaultOutcome};

use crate::report::{BusReport, OverheadBreakdown, RunReport, StallBreakdown};

/// Which page-mapping policy the OS runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// IRIX-style page coloring.
    PageColoring,
    /// Digital UNIX-style bin hopping (with a modeled multiprocessor race
    /// when more than one CPU is faulting).
    BinHopping,
    /// CDPC via the kernel hint table (the paper's IRIX implementation);
    /// unhinted pages fall back to page coloring.
    Cdpc,
    /// CDPC via user-level selective page touching over an unmodified
    /// bin-hopping kernel (the paper's Digital UNIX implementation).
    CdpcTouch,
    /// Dynamic page recoloring (paper §2.1 related work): page coloring
    /// plus a conflict-miss detector that recolors hot pages by copying
    /// them — paying the copy, cache flush, and multiprocessor TLB
    /// shootdown the paper warns about.
    DynamicRecolor,
}

impl PolicyKind {
    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::PageColoring => "page-coloring",
            PolicyKind::BinHopping => "bin-hopping",
            PolicyKind::Cdpc => "cdpc",
            PolicyKind::CdpcTouch => "cdpc-touch",
            PolicyKind::DynamicRecolor => "dynamic-recolor",
        }
    }
}

/// Run-loop configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Memory-system configuration (CPU count lives here).
    pub mem: MemConfig,
    /// OS page-mapping policy.
    pub policy: PolicyKind,
    /// Cycles charged per barrier to every participant.
    pub barrier_cycles: u64,
    /// Kernel cycles charged per page fault.
    pub page_fault_cycles: u64,
    /// Bin-hopping race window (max slots of fault-order perturbation) on
    /// multiprocessors; 0 disables the race model.
    pub race_window: u32,
    /// Seed for all stochastic model components.
    pub seed: u64,
    /// Physical memory slack: pool size = touched span × this factor.
    pub phys_slack: f64,
    /// CDPC algorithm-step ablation switches (full algorithm by default).
    pub hint_options: HintOptions,
    /// Conflict misses on one page before the dynamic-recoloring policy
    /// moves it (only used by [`PolicyKind::DynamicRecolor`]).
    pub recolor_threshold: u32,
    /// Fraction of physical memory held by a simulated co-resident job
    /// before the run starts, concentrated in the lower half of the color
    /// space (models the "memory pressure" under which the OS cannot
    /// honor hints, paper §5 stage 3). 0.0 disables.
    pub hog_fraction: f64,
    /// Run `MemorySystem::validate_coherence` at every phase boundary
    /// (always on in `debug_assertions` builds; this flag forces it in
    /// release builds, e.g. for `--sanitize` bench runs).
    pub validate_coherence: bool,
}

impl RunConfig {
    /// Defaults for a given memory configuration and policy.
    pub fn new(mem: MemConfig, policy: PolicyKind) -> Self {
        Self {
            mem,
            policy,
            barrier_cycles: 1_000,
            page_fault_cycles: 4_000,
            race_window: 3,
            seed: 0xC0FFEE,
            phys_slack: 1.5,
            hint_options: HintOptions::FULL,
            recolor_threshold: 64,
            hog_fraction: 0.0,
            validate_coherence: false,
        }
    }

    fn color_space(&self) -> ColorSpace {
        ColorSpace::new(
            self.mem.l2.size_bytes(),
            self.mem.page_size,
            self.mem.l2.associativity(),
        )
    }

    fn machine_params(&self) -> MachineParams {
        MachineParams::new(
            self.mem.num_cpus,
            self.mem.page_size,
            self.mem.l2.size_bytes(),
            self.mem.l2.associativity(),
        )
    }
}

/// Per-phase interval-sampling state: the counter baselines of the last
/// closed window, the running wall clock, and the next window boundary.
///
/// Windows are defined on the *global* simulated wall clock (the max over
/// per-CPU clocks seen so far), so `end_cycle` values increase
/// monotonically across phases; windows never span a phase boundary
/// because a partial window is flushed at every phase end. Counter deltas
/// are scaled by the phase's occurrence count `k`, which is what makes
/// [`IntervalSeries::totals`] equal the end-of-run aggregates exactly.
struct Sampler {
    interval: u64,
    series: IntervalSeries,
    /// Occurrence count of the phase being sampled.
    k: u64,
    /// Aggregate CPU counters at the last flush.
    prev: CpuStats,
    /// Instruction total at the last flush.
    prev_instr: u64,
    /// Bus occupancy (data, writeback, upgrade) at the last flush.
    prev_bus: (u64, u64, u64),
    /// Max simulated cycle seen so far.
    wall: u64,
    /// Wall cycle at which the current window closes.
    next_boundary: u64,
}

impl Sampler {
    fn new(interval: u64) -> Self {
        let interval = interval.max(1);
        Self {
            interval,
            series: IntervalSeries::new(interval),
            k: 1,
            prev: CpuStats::default(),
            prev_instr: 0,
            prev_bus: (0, 0, 0),
            wall: 0,
            next_boundary: 0,
        }
    }
}

struct Sim<Q: Probe> {
    mem: MemorySystem<Q>,
    vm: AddressSpace,
    policy: Box<dyn MappingPolicy>,
    clocks: Vec<u64>,
    /// Dynamic recoloring state: per-page conflict counters, per-color
    /// mapped-page loads, and the number of recolorings performed.
    dynamic: bool,
    conflict_counts: HashMap<u64, u32, FxBuildHasher>,
    color_loads: Vec<u32>,
    recolorings: u64,
    // Per-phase accumulators (reset at phase boundaries).
    instr: Vec<u64>,
    fault_cycles: Vec<u64>,
    imbalance: u64,
    sequential: u64,
    suppressed: u64,
    sync: u64,
    cfg: RunConfig,
    geometry: PageGeometry,
    /// Interval metrics, armed only during the measured pass of
    /// [`run_observed`] when sampling was requested.
    sampler: Option<Sampler>,
}

impl<Q: Probe> Sim<Q> {
    /// The physical page backing `vpn`, faulting it in on first touch
    /// (charged to `cpu`).
    #[inline]
    fn ensure_mapped(&mut self, cpu: usize, vpn: Vpn) -> Ppn {
        match self.vm.translate_page(vpn) {
            Some(ppn) => ppn,
            None => self.fault(cpu, vpn),
        }
    }

    /// Serves a first touch: the OS fault, its kernel time, and the
    /// probe's hint-lookup and page-fault events, all read off the
    /// returned [`cdpc_vm::Fault`].
    #[cold]
    fn fault(&mut self, cpu: usize, vpn: Vpn) -> Ppn {
        let fault = self
            .vm
            .fault(vpn, &mut self.policy)
            .expect("physical memory exhausted: raise phys_slack");
        if let Some(hit) = fault.hint_hit {
            self.mem.probe_mut().on_hint_lookup(vpn.0, hit);
        }
        let outcome = match fault.outcome {
            FaultOutcome::NoPreference => HintOutcome::NoPreference,
            FaultOutcome::Honored => HintOutcome::Honored,
            FaultOutcome::Fallback => HintOutcome::Fallback,
        };
        self.clocks[cpu] += self.cfg.page_fault_cycles;
        self.fault_cycles[cpu] += self.cfg.page_fault_cycles;
        self.mem
            .probe_mut()
            .on_page_fault(cpu, self.clocks[cpu], vpn.0, fault.color.0, outcome);
        if self.dynamic {
            self.color_loads[fault.color.0 as usize] += 1;
        }
        fault.ppn
    }

    /// The recoloring operation of a dynamic policy: detect (caller),
    /// pick the least-loaded color, flush the old physical page from all
    /// caches, move the mapping, and charge the costs the paper warns
    /// about — the copy itself plus a TLB shootdown on every processor.
    fn recolor_page(&mut self, cpu: usize, vpn: Vpn) {
        let old_color = self.vm.color_of(vpn).expect("mapped");
        let target = Color(
            (0..self.color_loads.len())
                .min_by_key(|&c| self.color_loads[c])
                .expect("at least one color") as u32,
        );
        if target == old_color {
            return;
        }
        let page = self.geometry.page_size() as u64;
        let old_base = self
            .vm
            .translate(self.geometry.base_of(vpn))
            .expect("mapped");
        if self.vm.recolor(vpn, target).is_err() {
            return; // memory pressure: keep the old mapping
        }
        self.color_loads[old_color.0 as usize] -= 1;
        let new_color = self.vm.color_of(vpn).expect("still mapped");
        self.color_loads[new_color.0 as usize] += 1;
        self.mem
            .flush_physical_page(self.clocks[cpu], PhysAddr(old_base.0 & !(page - 1)));
        self.mem.shoot_down_tlb(vpn);
        self.recolorings += 1;
        self.mem
            .probe_mut()
            .on_recolor(cpu, self.clocks[cpu], vpn.0, old_color.0, new_color.0);
        // Copy cost: read + write one page over the memory system, plus a
        // fixed kernel overhead, charged to the faulting CPU...
        let copy = 2 * self.cfg.mem.bus_occupancy_cycles(page) + self.cfg.page_fault_cycles;
        self.clocks[cpu] += copy;
        self.fault_cycles[cpu] += copy;
        // ...and the shootdown interrupt on every other processor.
        let ipi = self.cfg.mem.ns_to_cycles(2_000);
        for other in 0..self.clocks.len() {
            if other != cpu {
                self.clocks[other] += ipi;
                self.fault_cycles[other] += ipi;
            }
        }
    }

    /// Translates a demand reference for `cpu`, faulting the page in on
    /// first touch.
    #[inline]
    fn translate_demand(&mut self, cpu: usize, va: VirtAddr) -> (Vpn, PhysAddr) {
        let vpn = self.geometry.vpn_of(va);
        let ppn = self.ensure_mapped(cpu, vpn);
        let pa = self.geometry.phys_addr(ppn, self.geometry.offset_of(va));
        (vpn, pa)
    }

    /// Conflict-miss bookkeeping for the dynamic-recoloring policy. Out of
    /// line (and `#[cold]`) so the Load/Store fast path stays compact:
    /// static-policy runs never get here, and even dynamic runs only on a
    /// conflict miss.
    #[cold]
    fn note_conflict_miss(&mut self, cpu: usize, vpn: Vpn) {
        let count = self.conflict_counts.entry(vpn.0).or_insert(0);
        *count += 1;
        if *count >= self.cfg.recolor_threshold {
            *count = 0;
            self.recolor_page(cpu, vpn);
        }
    }

    /// Executes one trace op on `cpu`, advancing its local clock.
    ///
    /// Per-op accounting (audited; the asymmetry is intentional):
    /// * `Instr(n)` — `n` cycles, `n` instructions (single-issue CPU).
    /// * `Load`/`Store` — memory latency + 1 issue cycle, 1 instruction.
    /// * `Prefetch` — stall cycles + 1 issue cycle, 1 instruction (the
    ///   prefetch instruction issues even when the engine drops it).
    /// * `IFetch` — memory latency only, **zero** instructions and no
    ///   issue cycle: an ifetch models fetching a code *line*, and the
    ///   instructions on that line are exactly the ones the adjacent
    ///   `Instr(n)` op already charges — adding an issue cycle here would
    ///   double-count them. A test pins the accounted totals to the stream.
    fn exec_op(&mut self, cpu: usize, op: TraceOp) {
        match op {
            TraceOp::Instr(n) => {
                self.clocks[cpu] += n;
                self.instr[cpu] += n;
            }
            TraceOp::Load(va) | TraceOp::Store(va) => {
                let (vpn, pa) = self.translate_demand(cpu, va);
                let kind = if matches!(op, TraceOp::Store(_)) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let out = self.mem.access(cpu, self.clocks[cpu], va, pa, kind);
                self.clocks[cpu] += out.latency_cycles + 1;
                self.instr[cpu] += 1;
                if self.dynamic && out.miss_class == Some(cdpc_memsim::MissClass::Conflict) {
                    self.note_conflict_miss(cpu, vpn);
                }
            }
            TraceOp::IFetch(va) => {
                let (_, pa) = self.translate_demand(cpu, va);
                let out = self
                    .mem
                    .access(cpu, self.clocks[cpu], va, pa, AccessKind::IFetch);
                self.clocks[cpu] += out.latency_cycles;
            }
            TraceOp::Prefetch { addr, exclusive } => {
                // No fault: prefetches to unmapped pages are dropped by the
                // TLB probe (the page cannot be in the TLB if never
                // demand-accessed), so pa is never read for them.
                let pa = self.vm.translate(addr).unwrap_or(PhysAddr(0));
                let out = self
                    .mem
                    .prefetch(cpu, self.clocks[cpu], addr, pa, exclusive);
                self.clocks[cpu] += out.stall_cycles + 1;
                self.instr[cpu] += 1;
            }
        }
        self.sampler_tick(cpu);
    }

    /// Advances the sampling wall clock past this CPU's local clock and
    /// closes the window if a boundary was crossed. A no-op (one `Option`
    /// check) when sampling is off.
    fn sampler_tick(&mut self, cpu: usize) {
        let Some(s) = &mut self.sampler else { return };
        let clock = self.clocks[cpu];
        if clock > s.wall {
            s.wall = clock;
        }
        if s.wall >= s.next_boundary {
            self.sampler_flush(false);
        }
    }

    /// Re-arms the sampler for a phase repeated `k` times. Must run right
    /// after [`reset_phase_counters`](Self::reset_phase_counters): the
    /// memory statistics were just zeroed, so the delta baselines restart
    /// from zero while the wall clock keeps running.
    fn sampler_begin_phase(&mut self, k: u64) {
        let wall = self.clocks.iter().copied().max().unwrap_or(0);
        if let Some(s) = &mut self.sampler {
            s.k = k;
            s.prev = CpuStats::default();
            s.prev_instr = 0;
            s.prev_bus = (0, 0, 0);
            s.wall = wall;
            s.next_boundary = wall + s.interval;
        }
    }

    /// Flushes the partial window at a phase boundary so no window spans
    /// two phases (they are scaled by different occurrence counts).
    fn sampler_end_phase(&mut self) {
        if self.sampler.is_none() {
            return;
        }
        let wall = self.clocks.iter().copied().max().unwrap_or(0);
        if let Some(s) = &mut self.sampler {
            if wall > s.wall {
                s.wall = wall;
            }
        }
        self.sampler_flush(true);
    }

    /// Closes the current window: pushes the counter deltas since the last
    /// flush (scaled by the phase count) and re-arms the next boundary.
    fn sampler_flush(&mut self, skip_empty: bool) {
        if self.sampler.is_none() {
            return;
        }
        let stats = self.mem.stats();
        let agg = stats.aggregate();
        let instr: u64 = self.instr.iter().sum();
        let s = self.sampler.as_mut().expect("checked above");
        let (bus_d, bus_w, bus_u) = stats.bus_occupancy;
        let prev = &s.prev;
        // The report's own stall mapping, so the series totals reproduce it.
        let now = StallBreakdown::from_cpu_stats(&agg);
        let was = StallBreakdown::from_cpu_stats(prev);
        let delta = Sample {
            end_cycle: s.wall,
            instructions: instr - s.prev_instr,
            refs: (agg.data_refs + agg.ifetch_refs) - (prev.data_refs + prev.ifetch_refs),
            misses: agg.misses.total() - prev.misses.total(),
            tlb_misses: agg.tlb_misses - prev.tlb_misses,
            l2_hit_stall: now.l2_hit - was.l2_hit,
            conflict_stall: now.conflict - was.conflict,
            capacity_stall: now.capacity - was.capacity,
            true_sharing_stall: now.true_sharing - was.true_sharing,
            false_sharing_stall: now.false_sharing - was.false_sharing,
            cold_stall: now.cold - was.cold,
            prefetch_stall: now.prefetch - was.prefetch,
            upgrade_stall: now.upgrade - was.upgrade,
            bus_data: bus_d - s.prev_bus.0,
            bus_writeback: bus_w - s.prev_bus.1,
            bus_upgrade: bus_u - s.prev_bus.2,
        };
        if !(skip_empty && delta.is_empty()) {
            s.series.push(delta.scaled(s.k));
        }
        s.prev = agg;
        s.prev_instr = instr;
        s.prev_bus = (bus_d, bus_w, bus_u);
        s.next_boundary = s.wall + s.interval;
    }

    /// Runs one statement to completion, including the trailing barrier for
    /// parallel statements.
    fn exec_stmt(&mut self, stmt: &CompiledStmt) {
        match stmt {
            CompiledStmt::Parallel { specs } => {
                let p = specs.len();
                let mut streams: Vec<_> = specs.iter().map(|s| s.ops()).collect();
                let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
                    (0..p).map(|c| Reverse((self.clocks[c], c))).collect();
                // Min-clock batching: pop the minimum-clock CPU and keep
                // executing its ops until its clock passes the runner-up's
                // key, then reinsert. This is the global order of popping
                // one op per heap turn — executing an op changes only the
                // running CPU's key (recoloring IPIs advance other CPUs'
                // live clocks, but their keys stay stale), so the runner-up
                // key is the exact hand-over point. The reference simulator
                // in `tests/reference` pops once per op and must agree.
                while let Some(Reverse((_, cpu))) = heap.pop() {
                    let bound = heap.peek().map(|r| r.0);
                    let mut batch_ops = 0u64;
                    // Stream exhaustion ends the batch with no push: the
                    // finished CPU waits at the barrier.
                    for op in streams[cpu].by_ref() {
                        self.exec_op(cpu, op);
                        batch_ops += 1;
                        // `bound == None` means sole live CPU: run to the
                        // end of the stream.
                        if bound.is_some_and(|b| (self.clocks[cpu], cpu) >= b) {
                            heap.push(Reverse((self.clocks[cpu], cpu)));
                            break;
                        }
                    }
                    if batch_ops > 0 {
                        self.mem.probe_mut().on_run_batch(cpu, batch_ops);
                    }
                }
                // Barrier: account imbalance, then synchronize.
                let tmax = *self.clocks.iter().max().expect("at least one cpu");
                for c in 0..p {
                    self.imbalance += tmax - self.clocks[c];
                    self.clocks[c] = tmax + self.cfg.barrier_cycles;
                    self.sync += self.cfg.barrier_cycles;
                }
            }
            CompiledStmt::Master { spec, suppressed } => {
                let start = self.clocks[0];
                for op in spec.ops() {
                    self.exec_op(0, op);
                }
                let elapsed = self.clocks[0] - start;
                for c in 1..self.clocks.len() {
                    // Slaves spin until the master finishes.
                    self.clocks[c] = self.clocks[0];
                    if *suppressed {
                        self.suppressed += elapsed;
                    } else {
                        self.sequential += elapsed;
                    }
                }
            }
        }
    }

    fn reset_phase_counters(&mut self) {
        self.mem.reset_stats();
        for v in &mut self.instr {
            *v = 0;
        }
        for v in &mut self.fault_cycles {
            *v = 0;
        }
        self.imbalance = 0;
        self.sequential = 0;
        self.suppressed = 0;
        self.sync = 0;
    }
}

fn scaled_cpu_stats(stats: &CpuStats, k: u64) -> CpuStats {
    let mut out = CpuStats::default();
    for _ in 0..k {
        out.merge(stats);
    }
    out
}

/// Builds the mapping policy for a run, plus the CDPC hints it installs.
/// CDPC hints are generated from the compiled program's access summary with
/// the run's machine parameters — the paper's stage-2 run-time step.
fn build_policy(
    compiled: &CompiledProgram,
    cfg: &RunConfig,
) -> (Box<dyn MappingPolicy>, Option<ColorHints>) {
    let colors = cfg.color_space();
    match cfg.policy {
        PolicyKind::PageColoring | PolicyKind::DynamicRecolor => {
            (Box::new(PageColoring::new(colors)), None)
        }
        PolicyKind::BinHopping => {
            if cfg.mem.num_cpus > 1 && cfg.race_window > 0 {
                let policy = BinHopping::with_race_perturbation(colors, cfg.race_window, cfg.seed);
                (Box::new(policy), None)
            } else {
                (Box::new(BinHopping::new(colors)), None)
            }
        }
        PolicyKind::Cdpc | PolicyKind::CdpcTouch => {
            let hints =
                generate_hints_with(&compiled.summary, &cfg.machine_params(), cfg.hint_options)
                    .expect("compiler-produced summaries are always valid");
            let mut table = hints.to_hint_table();
            // The run-time library also colors the text segment: code pages
            // continue the round-robin after the data pages, so instruction
            // lines never collide with hinted data. (At the paper's scale —
            // 256 colors, tiny loop bodies resident in the L1I — this is
            // invisible; at scaled-down color counts it matters.) A program
            // with no data hints — nothing was parallelized — gets no code
            // hints either: CDPC degenerates to the native policy exactly.
            if !hints.is_empty() {
                let mut color = Color(hints.len() as u32 % colors.num_colors());
                for vpn in compiled.code_vpns(cfg.mem.page_size as u64).map(Vpn) {
                    if table.lookup(vpn).is_none() {
                        table.advise(vpn, color);
                        color = colors.advance(color, 1);
                    }
                }
            }
            let policy = CdpcPolicy::new(table, PageColoring::new(colors));
            (Box::new(policy), Some(hints))
        }
    }
}

/// Runs a compiled program and reports the steady-state behavior.
///
/// Equivalent to [`run_observed`] with the no-op probe and no sampling;
/// the probe hooks compile away entirely on this path.
///
/// # Panics
///
/// Panics if physical memory is exhausted (raise
/// [`RunConfig::phys_slack`]) — a configuration error, not a program
/// outcome.
pub fn run(compiled: &CompiledProgram, cfg: &RunConfig) -> RunReport {
    run_observed(compiled, cfg, &mut NullProbe, None).0
}

/// Runs a compiled program with an event probe attached to every layer of
/// the machine and, optionally, interval sampling of the measured pass.
///
/// `probe` receives the memory-system events (L2 misses with their class,
/// bus transactions, TLB misses, prefetch issues and drops) plus the
/// OS-level events the run loop itself generates (page faults with their
/// color-preference outcome, hint-table lookups, dynamic recolorings).
/// Dispatch is static — `run` instantiates this with
/// [`NullProbe`](cdpc_obs::NullProbe) and pays nothing.
///
/// With `sample_interval = Some(n)`, the measured pass is decomposed into
/// windows of `n` simulated cycles (partial windows are flushed at phase
/// boundaries, and each window is weighted by its phase's occurrence
/// count), and the resulting [`IntervalSeries`] is returned alongside the
/// report. The series' [`totals`](IntervalSeries::totals) equal the
/// report's stall breakdown, instruction count, and bus occupancy exactly.
/// Warm-up is never sampled.
///
/// # Panics
///
/// Panics if physical memory is exhausted (raise
/// [`RunConfig::phys_slack`]) — a configuration error, not a program
/// outcome.
pub fn run_observed<P: Probe>(
    compiled: &CompiledProgram,
    cfg: &RunConfig,
    probe: &mut P,
    sample_interval: Option<u64>,
) -> (RunReport, Option<IntervalSeries>) {
    assert_eq!(
        compiled.num_cpus, cfg.mem.num_cpus,
        "program compiled for {} CPUs but machine has {}",
        compiled.num_cpus, cfg.mem.num_cpus
    );
    let geometry = PageGeometry::new(cfg.mem.page_size);

    // Physical memory sized to the touched VA span plus slack, rounded to a
    // whole number of color groups so every color has equal pages.
    let colors = cfg.color_space();
    let va_end = compiled.layout.code_base.0 + compiled.max_code_bytes() + cfg.mem.page_size as u64;
    let span_pages = geometry.pages_for(va_end) as f64;
    let n = colors.num_colors() as usize;
    let phys_pages = (((span_pages * cfg.phys_slack) as usize).div_ceil(n)).max(2) * n;

    let mut vm = AddressSpace::new(geometry, phys_pages, colors);
    // Simulated memory pressure: a co-resident job pins pages concentrated
    // in the lower half of the color space, so some hints must fall back.
    if cfg.hog_fraction > 0.0 {
        let hog_pages = ((phys_pages as f64) * cfg.hog_fraction.clamp(0.0, 0.95)) as usize;
        let half = (colors.num_colors() / 2).max(1);
        for i in 0..hog_pages {
            let mut hog = cdpc_vm::policy::FixedColor::new(Color(i as u32 % half));
            // Hog pages live in a distant VA region the program never uses.
            let vpn = Vpn(u64::MAX / 2 + i as u64);
            vm.fault(vpn, &mut hog).expect("hog stays below capacity");
        }
        // The report's fault statistics are the program's own.
        vm.reset_stats();
    }
    let (policy, hints) = build_policy(compiled, cfg);
    let p = cfg.mem.num_cpus;

    let num_colors = colors.num_colors() as usize;
    let mut sim = Sim {
        mem: MemorySystem::with_probe(cfg.mem.clone(), &mut *probe),
        vm,
        policy,
        clocks: vec![0; p],
        dynamic: cfg.policy == PolicyKind::DynamicRecolor,
        conflict_counts: Default::default(),
        color_loads: vec![0; num_colors],
        recolorings: 0,
        instr: vec![0; p],
        fault_cycles: vec![0; p],
        imbalance: 0,
        sequential: 0,
        suppressed: 0,
        sync: 0,
        cfg: cfg.clone(),
        geometry,
        sampler: None,
    };
    // Thread the compiler's array layout into the memory system so every
    // classified miss carries its source array and landing color
    // (`Probe::on_classified_miss`). With a NullProbe the events are
    // no-ops and the tagging folds away.
    sim.mem.set_regions(compiled.region_map());

    // CDPC on Digital UNIX: serially touch every hinted page in coloring
    // order before the computation starts, so the bin-hopping kernel
    // produces the desired colors. (We model the kernel side with the hint
    // table directly — build_policy already returns it — so the touch pass
    // here only pre-faults the pages, in coloring order rather than the
    // table's VPN order, reproducing the serialized-fault start-up the
    // paper describes.)
    if cfg.policy == PolicyKind::CdpcTouch {
        let hints = hints.expect("CDPC policies install hints");
        for &vpn in hints.order() {
            sim.ensure_mapped(0, vpn);
        }
    }

    // Warm-up pass: fault pages in, warm caches; everything discarded.
    for phase in &compiled.phases {
        for stmt in &phase.stmts {
            sim.exec_stmt(stmt);
        }
        if cfg.validate_coherence || cfg!(debug_assertions) {
            sim.mem.validate_coherence();
        }
    }

    // Measured pass: per-phase statistics weighted by occurrence count.
    // Interval sampling (if requested) covers exactly this pass.
    sim.sampler = sample_interval.map(Sampler::new);
    let mut instructions = 0u64;
    let mut exec_cycles = 0u64;
    let mut stalls_total = StallBreakdown::default();
    let mut overheads = OverheadBreakdown::default();
    let mut elapsed = 0u64;
    let mut combined = 0u64;
    let mut weighted_cpu_stats: Vec<CpuStats> = vec![CpuStats::default(); p];
    let mut bus_occ = (0u64, 0u64, 0u64);
    let mut bus_busy_weighted = 0u64;

    for (phase_idx, phase) in compiled.phases.iter().enumerate() {
        let k = phase.count.max(1);
        sim.reset_phase_counters();
        sim.sampler_begin_phase(k);
        // Mirror the phase-weighting protocol to the probe: attribution
        // sinks fold each phase's events into their totals times `k`, so
        // their decompositions match this loop's aggregates exactly.
        sim.mem.probe_mut().on_phase_start(phase_idx, phase.count);
        let start: Vec<u64> = sim.clocks.clone();
        for stmt in &phase.stmts {
            sim.exec_stmt(stmt);
        }
        let phase_end_cycle = sim.clocks.iter().copied().max().unwrap_or(0);
        sim.mem.probe_mut().on_phase_end(phase_idx, phase_end_cycle);
        sim.sampler_end_phase();
        if cfg.validate_coherence || cfg!(debug_assertions) {
            sim.mem.validate_coherence();
        }
        let phase_stats = sim.mem.stats();

        let phase_instr: u64 = sim.instr.iter().sum();
        instructions += phase_instr * k;
        exec_cycles += phase_instr * k; // single-issue: 1 cycle per instr

        let s = StallBreakdown::from_mem_stats(&phase_stats);
        stalls_total.l2_hit += s.l2_hit * k;
        stalls_total.conflict += s.conflict * k;
        stalls_total.capacity += s.capacity * k;
        stalls_total.true_sharing += s.true_sharing * k;
        stalls_total.false_sharing += s.false_sharing * k;
        stalls_total.cold += s.cold * k;
        stalls_total.prefetch += s.prefetch * k;
        stalls_total.upgrade += s.upgrade * k;

        let agg = phase_stats.aggregate();
        overheads.kernel += (agg.tlb_stall_cycles + sim.fault_cycles.iter().sum::<u64>()) * k;
        overheads.load_imbalance += sim.imbalance * k;
        overheads.sequential += sim.sequential * k;
        overheads.suppressed += sim.suppressed * k;
        overheads.synchronization += sim.sync * k;

        let wall_start = start.iter().copied().max().unwrap_or(0);
        let wall_end = sim.clocks.iter().copied().max().unwrap_or(0);
        elapsed += (wall_end - wall_start) * k;
        let busy: u64 = sim
            .clocks
            .iter()
            .zip(&start)
            .map(|(e, s)| (e - s) * k)
            .sum();
        combined += busy;

        for (acc, st) in weighted_cpu_stats.iter_mut().zip(&phase_stats.cpus) {
            acc.merge(&scaled_cpu_stats(st, k));
        }
        let (d, w, u) = phase_stats.bus_occupancy;
        bus_occ.0 += d * k;
        bus_occ.1 += w * k;
        bus_occ.2 += u * k;
        bus_busy_weighted += (d + w + u) * k;
    }

    let bus = BusReport {
        data_cycles: bus_occ.0,
        writeback_cycles: bus_occ.1,
        upgrade_cycles: bus_occ.2,
        utilization: if elapsed > 0 {
            (bus_busy_weighted as f64 / elapsed as f64).min(1.0)
        } else {
            0.0
        },
    };

    let report = RunReport {
        name: compiled.name.clone(),
        num_cpus: p,
        policy: cfg.policy.label().to_string(),
        instructions,
        exec_cycles,
        stalls: stalls_total,
        overheads,
        elapsed_cycles: elapsed,
        combined_cycles: combined,
        bus,
        mem_stats: MemStats {
            cpus: weighted_cpu_stats,
            bus_occupancy: bus_occ,
            bus_transactions: 0,
        },
        fault_stats: sim.vm.stats(),
        recolorings: sim.recolorings,
        simulated_refs: sim.mem.lifetime_refs(),
    };
    let series = sim.sampler.take().map(|s| s.series);
    (report, series)
}

/// An [`AttributionProbe`] pre-sized for `compiled` on `cfg`'s machine:
/// one tensor row per declared array (plus the implicit "(other)" row),
/// one color per cache bin, and snapshot capacity for every phase — so a
/// run it observes allocates nothing on its behalf.
pub fn attribution_probe(compiled: &CompiledProgram, cfg: &RunConfig) -> AttributionProbe {
    AttributionProbe::new(
        compiled.arrays.len(),
        cfg.color_space().num_colors() as usize,
        cfg.mem.num_cpus,
        compiled.phases.len(),
    )
}

/// [`run_observed`] with a fresh [`AttributionProbe`] attached: the
/// returned probe holds the full `(array × color × cpu × class)` miss
/// tensor, histograms, and occupancy series for the measured pass. Its
/// per-class totals decompose the report's aggregate miss counts exactly
/// (both sides are phase-weighted by occurrence count).
pub fn run_attributed(
    compiled: &CompiledProgram,
    cfg: &RunConfig,
) -> (RunReport, AttributionProbe) {
    let mut probe = attribution_probe(compiled, cfg);
    let (report, _) = run_observed(compiled, cfg, &mut probe, None);
    (report, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpc_compiler::ir::{Access, AccessPattern, LoopNest, Phase, Program, Stmt, StmtKind};
    use cdpc_compiler::{compile, CompileOptions};

    /// A small machine: 32 KB direct-mapped L2 (8 colors), tiny L1s.
    fn small_mem(cpus: usize) -> MemConfig {
        let mut m = MemConfig::paper_base(cpus);
        m.l1d = cdpc_memsim::CacheConfig::new(1 << 10, 32, 2);
        m.l1i = cdpc_memsim::CacheConfig::new(1 << 10, 32, 2);
        m.l2 = cdpc_memsim::CacheConfig::new(32 << 10, 128, 1);
        m
    }

    /// Two 12 KB arrays swept by a stencil: the full working set (6 data
    /// pages + 1 code page) fits the 8-color 32 KB cache, so CDPC can
    /// eliminate all conflicts.
    fn two_array_program() -> Program {
        let mut p = Program::new("mini");
        let a = p.array("A", 12 << 10);
        let b = p.array("B", 12 << 10);
        let nest = LoopNest::new("sweep", 12, 500)
            .with_access(Access::read(
                a,
                AccessPattern::Stencil {
                    unit_bytes: 1024,
                    halo_units: 1,
                    wraparound: false,
                },
            ))
            .with_access(Access::write(
                b,
                AccessPattern::Partitioned { unit_bytes: 1024 },
            ));
        p.phase(Phase {
            name: "main".into(),
            stmts: vec![Stmt {
                kind: StmtKind::Parallel,
                nest,
            }],
            count: 4,
        });
        p
    }

    fn run_with(policy: PolicyKind, cpus: usize) -> RunReport {
        let opts = CompileOptions::new(cpus).with_l2_cache(32 << 10);
        let compiled = compile(&two_array_program(), &opts).unwrap();
        run(&compiled, &RunConfig::new(small_mem(cpus), policy))
    }

    #[test]
    fn report_is_internally_consistent() {
        let r = run_with(PolicyKind::PageColoring, 2);
        assert_eq!(r.num_cpus, 2);
        assert!(r.instructions > 0);
        assert!(r.elapsed_cycles > 0);
        assert!(r.combined_cycles >= r.elapsed_cycles);
        assert!(r.mcpi() >= 0.0);
    }

    #[test]
    fn warmup_discards_cold_misses() {
        let r = run_with(PolicyKind::PageColoring, 2);
        assert_eq!(
            r.stalls.cold, 0,
            "steady state after warm-up must have no cold misses"
        );
    }

    #[test]
    fn cdpc_improves_on_or_matches_page_coloring() {
        let pc = run_with(PolicyKind::PageColoring, 2);
        let cdpc = run_with(PolicyKind::Cdpc, 2);
        assert!(
            cdpc.stalls.conflict <= pc.stalls.conflict,
            "CDPC must not create conflicts: cdpc={} pc={}",
            cdpc.stalls.conflict,
            pc.stalls.conflict
        );
    }

    #[test]
    fn cdpc_eliminates_conflicts_when_per_cpu_data_fits() {
        let cdpc = run_with(PolicyKind::Cdpc, 2);
        assert_eq!(
            cdpc.stalls.conflict, 0,
            "working set fits the 32 KB cache: zero conflict misses"
        );
    }

    #[test]
    fn touch_variant_matches_kernel_variant() {
        let a = run_with(PolicyKind::Cdpc, 2);
        let b = run_with(PolicyKind::CdpcTouch, 2);
        // Same coloring, same steady state (modulo page-fault timing which
        // the measured pass excludes).
        assert_eq!(a.stalls.conflict, b.stalls.conflict);
        assert_eq!(a.stalls.capacity, b.stalls.capacity);
    }

    #[test]
    fn policies_produce_different_colorings() {
        let pc = run_with(PolicyKind::PageColoring, 2);
        let bh = run_with(PolicyKind::BinHopping, 2);
        // Both must run; they generally differ in conflict behavior.
        assert!(pc.instructions == bh.instructions, "same work either way");
    }

    #[test]
    fn parallel_run_beats_uniprocessor() {
        let one = run_with(PolicyKind::Cdpc, 1);
        let two = run_with(PolicyKind::Cdpc, 2);
        assert!(
            two.elapsed_cycles < one.elapsed_cycles,
            "2 CPUs must be faster: {} vs {}",
            two.elapsed_cycles,
            one.elapsed_cycles
        );
    }

    #[test]
    fn hints_are_honored_with_ample_memory() {
        let r = run_with(PolicyKind::Cdpc, 2);
        assert!(r.fault_stats.preferred > 0);
        assert_eq!(
            r.fault_stats.fallback, 0,
            "no memory pressure, no fallbacks"
        );
        assert_eq!(r.fault_stats.honor_rate(), 1.0);
    }

    #[test]
    fn sequential_program_shows_sequential_overhead() {
        let mut p = Program::new("seq");
        let a = p.array("A", 8 << 10);
        p.phase(Phase {
            name: "s".into(),
            stmts: vec![Stmt {
                kind: StmtKind::Sequential,
                nest: LoopNest::new("l", 8, 100).with_access(Access::read(
                    a,
                    AccessPattern::Partitioned { unit_bytes: 1024 },
                )),
            }],
            count: 1,
        });
        let compiled = compile(&p, &CompileOptions::new(4)).unwrap();
        let r = run(
            &compiled,
            &RunConfig::new(small_mem(4), PolicyKind::PageColoring),
        );
        assert!(r.overheads.sequential > 0);
        assert_eq!(r.overheads.suppressed, 0);
    }

    #[test]
    fn dynamic_recoloring_reduces_conflicts_at_a_price() {
        // A conflict layout with room to repair: A and C sit exactly one
        // cache (32 KB) apart so page coloring overlays them, while the
        // colors of the untouched gap array stay free for recoloring.
        let mut p = Program::new("dyn");
        let a = p.array("A", 16 << 10);
        let _gap = p.array("gap", 16 << 10);
        let c = p.array("C", 16 << 10);
        let nest = LoopNest::new("sweep", 16, 300)
            .with_access(Access::read(
                a,
                AccessPattern::Partitioned { unit_bytes: 1024 },
            ))
            .with_access(Access::write(
                c,
                AccessPattern::Partitioned { unit_bytes: 1024 },
            ));
        p.phase(Phase {
            name: "main".into(),
            stmts: vec![Stmt {
                kind: StmtKind::Parallel,
                nest,
            }],
            count: 6,
        });
        let compiled = compile(&p, &CompileOptions::new(2).with_l2_cache(32 << 10)).unwrap();
        let pc = run(
            &compiled,
            &RunConfig::new(small_mem(2), PolicyKind::PageColoring),
        );
        let mut cfg = RunConfig::new(small_mem(2), PolicyKind::DynamicRecolor);
        cfg.recolor_threshold = 8;
        let dynamic = run(&compiled, &cfg);
        assert!(dynamic.recolorings > 0, "detector must fire");
        assert!(
            dynamic.stalls.conflict < pc.stalls.conflict,
            "recoloring must remove conflicts: {} vs {}",
            dynamic.stalls.conflict,
            pc.stalls.conflict
        );
        // And it pays kernel time that static policies don't.
        assert!(dynamic.overheads.kernel >= pc.overheads.kernel);
    }

    /// Every fault consults the hint table once, the probe sees the
    /// fallbacks that memory pressure forces, and the report counts the
    /// program's faults, not the co-resident job's.
    #[test]
    fn memory_pressure_forces_hint_fallbacks() {
        let opts = CompileOptions::new(2).with_l2_cache(32 << 10);
        let compiled = compile(&two_array_program(), &opts).unwrap();
        let observe = |cfg: &RunConfig| {
            let mut probe = cdpc_obs::CountingProbe::default();
            let (report, _) = run_observed(&compiled, cfg, &mut probe, None);
            assert_eq!(probe.hint_lookups, probe.page_faults);
            (report, probe)
        };
        let mut cfg = RunConfig::new(small_mem(2), PolicyKind::Cdpc);
        cfg.phys_slack = 4.0;
        cfg.hog_fraction = 0.6;
        let (pressured, probe) = observe(&cfg);
        assert!(
            pressured.fault_stats.fallback > 0,
            "hogged colors must force fallbacks"
        );
        assert!(pressured.fault_stats.honor_rate() < 1.0);
        assert!(probe.faults_honored < probe.page_faults);
        assert_eq!(pressured.fault_stats.faults, probe.page_faults);
        assert_eq!(pressured.fault_stats.honored, probe.faults_honored);
        // Unpressured baseline honors everything.
        cfg.hog_fraction = 0.0;
        let (free, probe) = observe(&cfg);
        assert_eq!(free.fault_stats.honor_rate(), 1.0);
        assert_eq!(probe.faults_honored, probe.page_faults);
    }

    #[test]
    fn static_policies_never_recolor() {
        let r = run_with(PolicyKind::Cdpc, 2);
        assert_eq!(r.recolorings, 0);
    }

    #[test]
    fn observed_run_reproduces_plain_run() {
        let opts = CompileOptions::new(2).with_l2_cache(32 << 10);
        let compiled = compile(&two_array_program(), &opts).unwrap();
        let cfg = RunConfig::new(small_mem(2), PolicyKind::Cdpc);
        let plain = run(&compiled, &cfg);
        let mut probe = cdpc_obs::CountingProbe::default();
        let (observed, series) = run_observed(&compiled, &cfg, &mut probe, Some(10_000));
        assert_eq!(plain, observed, "probes must not perturb the simulation");
        assert!(series.is_some());
        assert!(probe.page_faults > 0, "warm-up faults must be observed");
        assert!(probe.hint_lookups > 0, "cdpc faults consult the hint table");
    }

    #[test]
    fn interval_series_totals_match_report_exactly() {
        let opts = CompileOptions::new(2).with_l2_cache(32 << 10);
        let compiled = compile(&two_array_program(), &opts).unwrap();
        let cfg = RunConfig::new(small_mem(2), PolicyKind::PageColoring);
        let mut probe = cdpc_obs::NullProbe;
        let (report, series) = run_observed(&compiled, &cfg, &mut probe, Some(5_000));
        let series = series.expect("sampling was requested");
        assert!(series.samples.len() > 1, "run must span several windows");
        let t = series.totals();
        assert_eq!(t.instructions, report.instructions);
        assert_eq!(t.l2_hit_stall, report.stalls.l2_hit);
        assert_eq!(t.conflict_stall, report.stalls.conflict);
        assert_eq!(t.capacity_stall, report.stalls.capacity);
        assert_eq!(t.true_sharing_stall, report.stalls.true_sharing);
        assert_eq!(t.false_sharing_stall, report.stalls.false_sharing);
        assert_eq!(t.cold_stall, report.stalls.cold);
        assert_eq!(t.prefetch_stall, report.stalls.prefetch);
        assert_eq!(t.upgrade_stall, report.stalls.upgrade);
        assert_eq!(t.stall_total(), report.stalls.total());
        assert_eq!(
            (t.bus_data, t.bus_writeback, t.bus_upgrade),
            report.mem_stats.bus_occupancy
        );
        let agg = report.mem_stats.aggregate();
        assert_eq!(t.misses, agg.misses.total());
        assert_eq!(t.tlb_misses, agg.tlb_misses);
        assert_eq!(t.refs, agg.data_refs + agg.ifetch_refs);
    }

    #[test]
    fn recolorings_are_observed() {
        let mut p = Program::new("dyn-obs");
        let a = p.array("A", 16 << 10);
        let _gap = p.array("gap", 16 << 10);
        let c = p.array("C", 16 << 10);
        let nest = LoopNest::new("sweep", 16, 300)
            .with_access(Access::read(
                a,
                AccessPattern::Partitioned { unit_bytes: 1024 },
            ))
            .with_access(Access::write(
                c,
                AccessPattern::Partitioned { unit_bytes: 1024 },
            ));
        p.phase(Phase {
            name: "main".into(),
            stmts: vec![Stmt {
                kind: StmtKind::Parallel,
                nest,
            }],
            count: 6,
        });
        let compiled = compile(&p, &CompileOptions::new(2).with_l2_cache(32 << 10)).unwrap();
        let mut cfg = RunConfig::new(small_mem(2), PolicyKind::DynamicRecolor);
        cfg.recolor_threshold = 8;
        let mut probe = cdpc_obs::CountingProbe::default();
        let (report, _) = run_observed(&compiled, &cfg, &mut probe, None);
        assert!(report.recolorings > 0);
        assert_eq!(probe.recolorings, report.recolorings);
    }

    #[test]
    fn simulated_refs_count_the_whole_run() {
        let r = run_with(PolicyKind::PageColoring, 2);
        // The counter spans warm-up plus one measured pass, unweighted by
        // phase counts, so it is nonzero but independent of `count`.
        assert!(r.simulated_refs > 0);
        let r2 = run_with(PolicyKind::PageColoring, 2);
        assert_eq!(r.simulated_refs, r2.simulated_refs, "deterministic");
    }

    /// Pins the per-op accounting documented on [`Sim::exec_op`]: every
    /// `Instr(n)` charges `n` instructions, every Load/Store/Prefetch
    /// charges exactly one, and IFetch charges none (its instructions are
    /// the ones `Instr` already counted).
    #[test]
    fn accounted_instruction_totals_match_the_op_stream() {
        let opts = CompileOptions::new(2)
            .with_prefetch()
            .with_l2_cache(32 << 10);
        let compiled = compile(&two_array_program(), &opts).unwrap();
        let charge = |op: TraceOp| match op {
            TraceOp::Instr(n) => n,
            TraceOp::Load(_) | TraceOp::Store(_) | TraceOp::Prefetch { .. } => 1,
            TraceOp::IFetch(_) => 0,
        };
        let mut expected = 0u64;
        for phase in &compiled.phases {
            let mut per_pass = 0u64;
            for stmt in &phase.stmts {
                match stmt {
                    CompiledStmt::Parallel { specs } => {
                        for s in specs {
                            per_pass += s.ops().map(charge).sum::<u64>();
                        }
                    }
                    CompiledStmt::Master { spec, .. } => {
                        per_pass += spec.ops().map(charge).sum::<u64>();
                    }
                }
            }
            expected += per_pass * phase.count.max(1);
        }
        assert!(expected > 0);
        let r = run(&compiled, &RunConfig::new(small_mem(2), PolicyKind::Cdpc));
        assert_eq!(
            r.instructions, expected,
            "measured-pass instruction total must equal the stream's charges"
        );
    }

    #[test]
    fn uneven_iterations_cause_load_imbalance() {
        let mut p = Program::new("imb");
        let a = p.array("A", 33 << 10);
        p.phase(Phase {
            name: "s".into(),
            stmts: vec![Stmt {
                kind: StmtKind::Parallel,
                // 33 iterations on 4 CPUs: blocked gives 9,9,9,6.
                nest: LoopNest::new("l", 33, 500).with_access(Access::read(
                    a,
                    AccessPattern::Partitioned { unit_bytes: 1024 },
                )),
            }],
            count: 1,
        });
        let compiled = compile(&p, &CompileOptions::new(4)).unwrap();
        let r = run(
            &compiled,
            &RunConfig::new(small_mem(4), PolicyKind::PageColoring),
        );
        assert!(r.overheads.load_imbalance > 0);
    }
}
