//! The traced run: a serial pass over a workload that splits host time by
//! layer, using spans the benchmark records around its own calls into each
//! layer's public functions.
//!
//! The memory-system layer has no public entry point of its own inside a
//! run, so it is measured by replay: a probe records the color each page
//! fault chose, the replay re-derives the run's reference order (same
//! scheduling rule, same clock advances, pages mapped to a physical page of
//! the recorded color), and the recorded references are then fed to a
//! fresh `MemorySystem`, timed alone. For static mappings the replay's L2
//! miss count equals the run's exactly; dynamic recoloring moves pages
//! mid-run, which the replay does not follow, and
//! `memsim.replay_l2_miss_delta` reports the difference.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use cdpc_compiler::trace::TraceOp;
use cdpc_compiler::{compile, CompileOptions, CompiledProgram, CompiledStmt};
use cdpc_core::{generate_hints_with, MachineParams};
use cdpc_machine::{geometric_mean, run, run_key, run_observed, PolicyKind, RunConfig, RunReport};
use cdpc_memsim::{AccessKind, CpuStats, MemorySystem, MissClass};
use cdpc_obs::{HintOutcome, JsonValue, MissClassId, Probe};
use cdpc_vm::addr::{PhysAddr, VirtAddr};

use crate::workloads::Workload;
use crate::{golden, median, Metric};

/// One timed interval of the traced run.
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    job: Option<String>,
}

/// Spans kept in memory and written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, job: Option<&str>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            job: job.map(str::to_string),
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, returning its length in seconds.
    fn close(&mut self, id: usize) -> f64 {
        let end = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end;
        (end - span.start_us) / 1e6
    }

    /// Runs `f` `reps` times, each inside its own span, and returns the
    /// last result with the median time in seconds.
    fn time<T>(
        &mut self,
        name: &'static str,
        (parent, job): (Option<usize>, Option<&str>),
        reps: usize,
        mut f: impl FnMut() -> T,
    ) -> (T, f64) {
        let mut secs = Vec::with_capacity(reps);
        let mut out = None;
        for _ in 0..reps.max(1) {
            let id = self.open(name, parent, job);
            out = Some(f());
            secs.push(self.close(id));
        }
        (out.expect("at least one repetition"), median(&mut secs))
    }

    /// The spans as Chrome-trace JSON (Perfetto loads it).
    fn to_chrome_trace(&self) -> String {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = JsonValue::object();
                if let Some(job) = &s.job {
                    args.push("job", JsonValue::Str(job.clone()));
                }
                if let Some(p) = s.parent {
                    args.push("parent", JsonValue::Str(self.spans[p].name.to_string()));
                }
                let mut e = JsonValue::object();
                e.push("name", JsonValue::Str(s.name.to_string()))
                    .push("cat", JsonValue::Str("benchmark".into()))
                    .push("ph", JsonValue::Str("X".into()))
                    .push("ts", JsonValue::Float(s.start_us))
                    .push("dur", JsonValue::Float(s.end_us - s.start_us))
                    .push("pid", JsonValue::UInt(1))
                    .push("tid", JsonValue::UInt(1))
                    .push("args", args);
                e
            })
            .collect();
        let mut doc = JsonValue::object();
        doc.push("traceEvents", JsonValue::Array(events))
            .push("displayTimeUnit", JsonValue::Str("ms".into()));
        doc.to_string_compact()
    }
}

/// The benchmark's probe: what the replay and the vm/run metrics need.
#[derive(Default)]
struct LayerProbe {
    /// Color of every faulted page, by VPN.
    fault_colors: HashMap<u64, u32>,
    hint_lookups: u64,
    hint_hits: u64,
    l2_misses: u64,
    batches: u64,
    batch_ops: u64,
}

impl Probe for LayerProbe {
    fn on_page_fault(&mut self, _cpu: usize, _cycle: u64, vpn: u64, color: u32, _: HintOutcome) {
        self.fault_colors.entry(vpn).or_insert(color);
    }

    fn on_hint_lookup(&mut self, _vpn: u64, hit: bool) {
        self.hint_lookups += 1;
        self.hint_hits += u64::from(hit);
    }

    fn on_l2_miss(&mut self, _cpu: usize, _cycle: u64, _class: MissClassId, _stall: u64) {
        self.l2_misses += 1;
    }

    fn on_run_batch(&mut self, _cpu: usize, ops: u64) {
        self.batches += 1;
        self.batch_ops += ops;
    }
}

/// One step of the replay as the memory system sees it.
#[derive(Clone, Copy)]
struct Ref {
    now: u64,
    va: u64,
    pa: u64,
    cpu: u8,
    kind: RefKind,
}

#[derive(Clone, Copy)]
enum RefKind {
    Demand(AccessKind),
    Prefetch {
        exclusive: bool,
    },
    /// A measured phase starts: the run resets the memory statistics
    /// (and with them the bus) here.
    PhaseStart,
}

/// A memory system built as the run builds its own (the region map costs
/// a lookup per L2 miss even without a probe to receive it).
fn fresh_mem(compiled: &CompiledProgram, cfg: &RunConfig) -> MemorySystem {
    let mut mem = MemorySystem::new(cfg.mem.clone());
    mem.set_regions(compiled.region_map());
    mem
}

/// Re-derives a run's reference order, simulating as it goes so clocks
/// advance by the real latencies.
struct Recorder<'a> {
    cfg: &'a RunConfig,
    fault_colors: &'a HashMap<u64, u32>,
    mem: MemorySystem,
    colors: u64,
    /// Pages handed out so far, per color.
    used_of_color: Vec<u64>,
    ppn_of: HashMap<u64, u64>,
    clocks: Vec<u64>,
    refs: Vec<Ref>,
}

impl Recorder<'_> {
    fn push(&mut self, cpu: usize, va: u64, pa: u64, kind: RefKind) {
        self.refs.push(Ref {
            now: self.clocks[cpu],
            va,
            pa,
            cpu: cpu as u8,
            kind,
        });
    }

    fn step(&mut self, cpu: usize, op: TraceOp) {
        let page = self.cfg.mem.page_size as u64;
        match op {
            TraceOp::Instr(n) => self.clocks[cpu] += n,
            TraceOp::Load(va) | TraceOp::Store(va) | TraceOp::IFetch(va) => {
                let vpn = va.0 / page;
                let ppn = match self.ppn_of.get(&vpn) {
                    Some(&ppn) => ppn,
                    None => {
                        self.clocks[cpu] += self.cfg.page_fault_cycles;
                        let color = self.fault_colors[&vpn];
                        let used = &mut self.used_of_color[color as usize];
                        let ppn = u64::from(color) + self.colors * *used;
                        *used += 1;
                        self.ppn_of.insert(vpn, ppn);
                        ppn
                    }
                };
                let pa = ppn * page + va.0 % page;
                let kind = match op {
                    TraceOp::Load(_) => AccessKind::Read,
                    TraceOp::Store(_) => AccessKind::Write,
                    _ => AccessKind::IFetch,
                };
                self.push(cpu, va.0, pa, RefKind::Demand(kind));
                let out = self
                    .mem
                    .access(cpu, self.clocks[cpu], va, PhysAddr(pa), kind);
                self.clocks[cpu] += out.latency_cycles + u64::from(kind != AccessKind::IFetch);
            }
            TraceOp::Prefetch { addr, exclusive } => {
                // Prefetches never fault; an unmapped target is dropped by
                // the TLB check, so its physical address is never read.
                let pa = self
                    .ppn_of
                    .get(&(addr.0 / page))
                    .map_or(0, |ppn| ppn * page + addr.0 % page);
                self.push(cpu, addr.0, pa, RefKind::Prefetch { exclusive });
                let out = self
                    .mem
                    .prefetch(cpu, self.clocks[cpu], addr, PhysAddr(pa), exclusive);
                self.clocks[cpu] += out.stall_cycles + 1;
            }
        }
    }
}

/// Re-derives the run's reference order: both passes (warm-up and
/// measured) over every phase, CPUs interleaved by smallest local clock
/// (ties to the lower CPU), page faults charged on first touch, every
/// barrier lifting all clocks to the maximum, and the statistics reset at
/// each measured phase. Each VPN maps to a physical page of the color the
/// run gave it (`color + colors × k`), which keeps every L2 set and every
/// line identity of the run.
fn record_refs(
    compiled: &CompiledProgram,
    cfg: &RunConfig,
    fault_colors: &HashMap<u64, u32>,
) -> Vec<Ref> {
    let colors =
        (cfg.mem.l2.size_bytes() / (cfg.mem.page_size * cfg.mem.l2.associativity())).max(1);
    let mut rec = Recorder {
        cfg,
        fault_colors,
        mem: fresh_mem(compiled, cfg),
        colors: colors as u64,
        used_of_color: vec![0; colors],
        ppn_of: HashMap::new(),
        clocks: vec![0; cfg.mem.num_cpus],
        refs: Vec::new(),
    };
    for measured in [false, true] {
        for phase in &compiled.phases {
            if measured {
                rec.mem.reset_stats();
                rec.push(0, 0, 0, RefKind::PhaseStart);
            }
            for stmt in &phase.stmts {
                match stmt {
                    CompiledStmt::Parallel { specs } => {
                        let mut streams: Vec<_> = specs.iter().map(|s| Some(s.ops())).collect();
                        while let Some(cpu) = (0..specs.len())
                            .filter(|&c| streams[c].is_some())
                            .min_by_key(|&c| (rec.clocks[c], c))
                        {
                            match streams[cpu].as_mut().and_then(Iterator::next) {
                                Some(op) => rec.step(cpu, op),
                                None => streams[cpu] = None,
                            }
                        }
                        let top = *rec.clocks.iter().max().expect("at least one cpu");
                        for clock in &mut rec.clocks[..specs.len()] {
                            *clock = top + cfg.barrier_cycles;
                        }
                    }
                    CompiledStmt::Master { spec, .. } => {
                        for op in spec.ops() {
                            rec.step(0, op);
                        }
                        let master = rec.clocks[0];
                        rec.clocks.iter_mut().for_each(|c| *c = master);
                    }
                }
            }
        }
    }
    rec.refs
}

/// What the memory system counted over a replay.
#[derive(Default)]
struct Tally {
    /// The warm-up pass.
    warm: CpuStats,
    /// The measured pass, phase by phase summed.
    measured: CpuStats,
    bus_transactions: u64,
}

impl Tally {
    fn fold(&mut self, mem: &MemorySystem, measured: bool) {
        let stats = mem.stats();
        self.bus_transactions += stats.bus_transactions;
        let into = if measured {
            &mut self.measured
        } else {
            &mut self.warm
        };
        into.merge(&stats.aggregate());
    }

    fn lifetime(&self) -> CpuStats {
        let mut all = self.warm.clone();
        all.merge(&self.measured);
        all
    }
}

/// Feeds recorded references to `mem`; apart from a statistics fold at
/// each phase start, the only work inside is the memory system's own.
fn feed(mem: &mut MemorySystem, refs: &[Ref]) -> Tally {
    let mut tally = Tally::default();
    let mut measured = false;
    for r in refs {
        let (cpu, va, pa) = (usize::from(r.cpu), VirtAddr(r.va), PhysAddr(r.pa));
        match r.kind {
            RefKind::Demand(kind) => {
                black_box(mem.access(cpu, r.now, va, pa, kind));
            }
            RefKind::Prefetch { exclusive } => {
                black_box(mem.prefetch(cpu, r.now, va, pa, exclusive));
            }
            RefKind::PhaseStart => {
                tally.fold(mem, measured);
                measured = true;
                mem.reset_stats();
            }
        }
    }
    tally.fold(mem, measured);
    tally
}

/// Generates every reference stream of both passes without simulating it.
fn drain_traces(compiled: &CompiledProgram) -> u64 {
    let mut ops = 0u64;
    for _pass in 0..2 {
        for phase in &compiled.phases {
            for stmt in &phase.stmts {
                let specs = match stmt {
                    CompiledStmt::Parallel { specs } => specs.as_slice(),
                    CompiledStmt::Master { spec, .. } => std::slice::from_ref(spec),
                };
                for spec in specs {
                    for op in spec.ops() {
                        black_box(op);
                        ops += 1;
                    }
                }
            }
        }
    }
    ops
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the traced run measured, plus its correctness tally.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// The per-layer spans as Chrome-trace JSON.
    pub chrome_trace: String,
}

/// Runs the traced, serial pass over `workload`.
pub fn traced_run(workload: &Workload, seed: u64) -> Traced {
    let reps = workload.trace_reps;
    let mut tr = Tracer::new();
    let root = tr.open("traced_run", None, None);
    let prepared = workload.prepare(workload.scale, seed);
    let setup = &prepared.setup;
    // Canonical-order specs for the submitted jobs.
    let specs: Vec<_> = prepared.order.iter().map(|&i| workload.jobs[i]).collect();

    // Workload models and the compiler, per distinct cell.
    let mut build_s = 0.0;
    let mut compile_s = 0.0;
    let mut programs = HashMap::new();
    let mut compiled_cells = HashSet::new();
    for spec in &specs {
        if !compiled_cells.insert((spec.bench, spec.cpus, spec.prefetch)) {
            continue;
        }
        let bench = cdpc_workloads::by_name(spec.bench).expect("workload names are fixed");
        let program = programs.entry(spec.bench).or_insert_with(|| {
            let scale = setup.workload_scale();
            let (program, secs) = tr.time("workloads.build", (Some(root), None), reps, || {
                (bench.build)(scale)
            });
            build_s += secs;
            program
        });
        // The options `Setup::compile_bench` uses; the equality check
        // below keeps this copy honest.
        let mem = setup.scaled_mem(cdpc_bench::Preset::Base1MbDm, spec.cpus);
        let mut opts = CompileOptions::new(spec.cpus).with_l2_cache(mem.l2.size_bytes() as u64);
        opts.prefetch = spec.prefetch;
        opts.aligned = true;
        opts.l1_cache_bytes = mem.l1d.size_bytes() as u64;
        let (compiled, secs) = tr.time("compiler.compile", (Some(root), None), reps, || {
            compile(program, &opts).expect("workload models always compile")
        });
        assert_eq!(
            compiled,
            *setup.compile_bench(
                &bench,
                cdpc_bench::Preset::Base1MbDm,
                spec.cpus,
                spec.prefetch,
                true
            ),
            "the traced compile must match Setup::compile_bench"
        );
        compile_s += secs;
    }

    // The memo layer's keying, and the sweep layer's fan-out on one pass.
    let (keys, run_key_s) = tr.time("memo.run_key", (Some(root), None), reps, || {
        prepared
            .jobs
            .iter()
            .map(|j| run_key(&j.compiled, &j.cfg))
            .collect::<HashSet<_>>()
    });
    let deduped = prepared.jobs.len() - keys.len();
    let (_, sweep_wall_s) = tr.time("sweep.run_jobs", (Some(root), None), 1, || {
        setup.run_jobs(&prepared.jobs)
    });

    let mut reports: Vec<RunReport> = Vec::with_capacity(specs.len());
    let mut failed = 0u64;
    let (mut run_s, mut observed_s, mut drain_s, mut replay_s, mut hints_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut trace_ops = 0u64;
    let (mut replay_lifetime, mut replay_measured) = (CpuStats::default(), CpuStats::default());
    let (mut replay_bus, mut run_l2_misses) = (0u64, 0u64);
    let (mut hint_lookups, mut hint_hits, mut batches, mut batch_ops) = (0u64, 0u64, 0u64, 0u64);
    for (spec, job) in specs.iter().zip(&prepared.jobs) {
        let label = spec.label();
        let parent = tr.open("job", Some(root), Some(&label));
        let (compiled, cfg) = (&*job.compiled, &job.cfg);
        let job_span = (Some(parent), Some(label.as_str()));
        let machine = MachineParams::new(
            cfg.mem.num_cpus,
            cfg.mem.page_size,
            cfg.mem.l2.size_bytes(),
            cfg.mem.l2.associativity(),
        );

        // The repetitions interleave the layers, so that a slow spell of
        // the host falls on all of them alike rather than on one.
        let mut secs: [Vec<f64>; 5] = Default::default();
        let (mut report, mut refs, mut tally, mut ops) = (None, Vec::new(), Tally::default(), 0);
        for rep in 0..reps {
            let (r, t) = tr.time("machine.run", job_span, 1, || run(compiled, cfg));
            secs[0].push(t);
            let ((observed, probe), t) = tr.time("obs.run_observed", job_span, 1, || {
                let mut probe = LayerProbe::default();
                (run_observed(compiled, cfg, &mut probe, None).0, probe)
            });
            secs[1].push(t);
            if rep == 0 {
                if observed != r {
                    eprintln!("{}: job {label}: probing changed the report", workload.name);
                    failed += 1;
                }
                hint_lookups += probe.hint_lookups;
                hint_hits += probe.hint_hits;
                batches += probe.batches;
                batch_ops += probe.batch_ops;
                run_l2_misses += probe.l2_misses;
                let id = tr.open("memsim.record", job_span.0, job_span.1);
                refs = record_refs(compiled, cfg, &probe.fault_colors);
                tr.close(id);
            }
            report = Some(r);

            let t;
            (ops, t) = tr.time("trace.drain", job_span, 1, || drain_traces(compiled));
            secs[2].push(t);
            if cfg.policy == PolicyKind::Cdpc {
                let (_, t) = tr.time("hints.generate", job_span, 1, || {
                    generate_hints_with(&compiled.summary, &machine, cfg.hint_options)
                        .expect("compiler summaries are valid")
                });
                secs[3].push(t);
            }
            let t;
            (tally, t) = tr.time("memsim.replay", job_span, 1, || {
                feed(&mut fresh_mem(compiled, cfg), &refs)
            });
            secs[4].push(t);
        }
        let [run_t, observed_t, drain_t, hints_t, replay_t] = &mut secs;
        run_s += median(run_t);
        observed_s += median(observed_t);
        drain_s += median(drain_t);
        if !hints_t.is_empty() {
            hints_s += median(hints_t);
        }
        replay_s += median(replay_t);
        trace_ops += ops;
        replay_lifetime.merge(&tally.lifetime());
        replay_measured.merge(&tally.measured);
        replay_bus += tally.bus_transactions;

        tr.close(parent);
        reports.push(report.expect("at least one repetition"));
    }
    tr.close(root);

    let reports = prepared.canonical(reports);
    failed += golden::mismatches(golden::FULL, workload, &reports) as u64;

    let speedups: Vec<f64> = workload
        .jobs
        .iter()
        .zip(&reports)
        .filter(|(s, _)| s.policy == PolicyKind::Cdpc)
        .filter_map(|(cd, cd_report)| {
            workload
                .jobs
                .iter()
                .zip(&reports)
                .find(|(pc, _)| {
                    pc.policy == PolicyKind::PageColoring
                        && (pc.bench, pc.cpus, pc.prefetch) == (cd.bench, cd.cpus, cd.prefetch)
                })
                .map(|(_, pc_report)| cd_report.speedup_over(pc_report))
        })
        .collect();

    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let simulated_refs = sum(|r| r.simulated_refs);
    // Counts cover both passes (the work done); ratios cover the
    // measured pass (the steady state the paper reports).
    let all = &replay_lifetime;
    let steady = &replay_measured;
    let steady_refs = (steady.data_refs + steady.ifetch_refs) as f64;
    let replay_refs = (all.data_refs + all.ifetch_refs + all.prefetches_issued) as f64;
    let residual_s = run_s - drain_s - replay_s;
    let misses = |class| all.misses.get(class) as f64;
    let metrics = vec![
        Metric::new("workloads.build_s", build_s, "s"),
        Metric::new("compiler.compile_s", compile_s, "s"),
        Metric::new("sweep.wall_s", sweep_wall_s, "s"),
        Metric::new(
            "sweep.parallel_efficiency",
            ratio(run_s, workload.threads() as f64 * sweep_wall_s),
            "ratio",
        ),
        Metric::new("memo.run_key_s", run_key_s, "s"),
        Metric::new("memo.deduped", deduped as f64, "count"),
        Metric::new("machine.run_s", run_s, "s"),
        Metric::new(
            "machine.ns_per_ref",
            ratio(run_s * 1e9, simulated_refs),
            "ns/ref",
        ),
        Metric::new(
            "machine.ops_per_batch",
            ratio(batch_ops as f64, batches as f64),
            "ops",
        ),
        Metric::new("machine.residual_s", residual_s, "s"),
        Metric::new("machine.residual_share", ratio(residual_s, run_s), "ratio"),
        Metric::new("hints.generate_s", hints_s, "s"),
        Metric::new("trace.ops", trace_ops as f64, "count"),
        Metric::new("trace.drain_s", drain_s, "s"),
        Metric::new(
            "trace.ns_per_op",
            ratio(drain_s * 1e9, trace_ops as f64),
            "ns/op",
        ),
        Metric::new("trace.share", ratio(drain_s, run_s), "ratio"),
        Metric::new("vm.page_faults", sum(|r| r.fault_stats.faults), "count"),
        Metric::new(
            "vm.hint_hit_ratio",
            ratio(hint_hits as f64, hint_lookups as f64),
            "ratio",
        ),
        Metric::new(
            "vm.honored_ratio",
            ratio(
                sum(|r| r.fault_stats.honored),
                sum(|r| r.fault_stats.preferred),
            ),
            "ratio",
        ),
        Metric::new("vm.recolorings", sum(|r| r.recolorings), "count"),
        Metric::new("memsim.replay_s", replay_s, "s"),
        Metric::new(
            "memsim.ns_per_ref",
            ratio(replay_s * 1e9, replay_refs),
            "ns/ref",
        ),
        Metric::new("memsim.share", ratio(replay_s, run_s), "ratio"),
        Metric::new("memsim.refs", replay_refs, "count"),
        Metric::new(
            "memsim.l1_hit_ratio",
            ratio(steady.l1_hits as f64, steady_refs),
            "ratio",
        ),
        Metric::new(
            "memsim.l2_hit_ratio",
            ratio(steady.l2_hits as f64, steady_refs),
            "ratio",
        ),
        Metric::new(
            "memsim.l2_miss_ratio",
            ratio(steady.misses.total() as f64, steady_refs),
            "ratio",
        ),
        Metric::new("memsim.misses.cold", misses(MissClass::Cold), "count"),
        Metric::new(
            "memsim.misses.capacity",
            misses(MissClass::Capacity),
            "count",
        ),
        Metric::new(
            "memsim.misses.conflict",
            misses(MissClass::Conflict),
            "count",
        ),
        Metric::new(
            "memsim.misses.true_sharing",
            misses(MissClass::TrueSharing),
            "count",
        ),
        Metric::new(
            "memsim.misses.false_sharing",
            misses(MissClass::FalseSharing),
            "count",
        ),
        Metric::new("memsim.bus_transactions", replay_bus as f64, "count"),
        Metric::new("memsim.tlb_misses", all.tlb_misses as f64, "count"),
        Metric::new(
            "memsim.prefetches_issued",
            all.prefetches_issued as f64,
            "count",
        ),
        Metric::new(
            "memsim.prefetch_useful_ratio",
            ratio(steady.prefetch_hits as f64, steady.prefetches_issued as f64),
            "ratio",
        ),
        Metric::new(
            "memsim.replay_l2_miss_delta",
            all.misses.total() as f64 - run_l2_misses as f64,
            "count",
        ),
        Metric::new("obs.probe_overhead", ratio(observed_s, run_s), "ratio"),
        Metric::new("sim.elapsed_cycles", sum(|r| r.elapsed_cycles), "cycles"),
        Metric::new(
            "sim.cdpc_speedup_geomean",
            geometric_mean(&speedups),
            "ratio",
        ),
    ];
    Traced {
        metrics,
        attempted: reports.len() as u64,
        failed,
        chrome_trace: tr.to_chrome_trace(),
    }
}
