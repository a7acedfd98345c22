//! A deliberately naive reference model of the paper's §5 machine.
//!
//! [`run`] takes the same `(CompiledProgram, RunConfig)` as
//! `cdpc_machine::run` and must return the same [`RunReport`], field for
//! field. It is written for obviousness, not speed, and shares none of the
//! optimized simulator's machinery:
//!
//! * **Scheduling** — one binary-heap pop and push per op (the optimized
//!   loop pops once per batch).
//! * **Translation** — every reference checks that its page is mapped,
//!   faults it in if not, then translates the full virtual address (the
//!   optimized loop translates the page number once and reuses the
//!   fault's frame).
//! * **Caches** — each set is a `Vec` of lines in recency order, most
//!   recent first: a hit moves the line to the front, a fill pushes to the
//!   front and drops the back (no stamps, no aux-tagged ways, no
//!   precomputed shifts and masks, no early L1 return).
//! * **Inclusion** — invalidating an L2 line scans both L1s for lines whose
//!   physical sub-line falls inside it (no reverse map).
//! * **Miss classification** — a fully-associative LRU `Vec` of L2 lines
//!   per CPU and a `HashSet` of lines ever seen (no slab lists or bitmaps).
//!
//! What *is* shared is everything upstream of the machine: the compiled
//! reference streams, CDPC hint generation, and the VM's physical
//! allocator and mapping policies (`AddressSpace`, `PageColoring`, ...).
//! The model reproduces the machine's documented timing rules, including
//! the ones that are choices rather than physics (a recoloring IPI
//! advances other CPUs' clocks without refreshing their heap keys, ties
//! between equal clocks go to the lower CPU, prefetch fills apply in
//! `(completion, line)` order).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use cdpc_compiler::trace::TraceOp;
use cdpc_compiler::{CompiledProgram, CompiledStmt};
use cdpc_core::generate_hints_with;
use cdpc_core::MachineParams;
use cdpc_machine::{
    BusReport, OverheadBreakdown, PolicyKind, RunConfig, RunReport, StallBreakdown,
};
use cdpc_memsim::{CacheConfig, CpuStats, MemConfig, MemStats, MissClass};
use cdpc_vm::addr::{Color, ColorSpace, PageGeometry, PhysAddr, VirtAddr, Vpn};
use cdpc_vm::policy::{BinHopping, CdpcPolicy, FixedColor, MappingPolicy, PageColoring};
use cdpc_vm::{AddressSpace, FaultStats};

/// MESI state of a cached line (`Invalid` lines are simply absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Modified,
    Exclusive,
    Shared,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    addr: u64,
    state: State,
    /// For L1 lines: the physical L1-sized sub-line the line was filled
    /// from. Unused (zero) in the L2.
    phys: u64,
}

/// A set-associative LRU cache: every set lists its lines most recent
/// first.
struct Cache {
    geom: CacheConfig,
    sets: Vec<Vec<Line>>,
}

impl Cache {
    fn new(geom: CacheConfig) -> Self {
        Self {
            geom,
            sets: vec![Vec::new(); geom.num_sets()],
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr - addr % self.geom.line_bytes() as u64
    }

    fn set_of(&self, line: u64) -> usize {
        (line / self.geom.line_bytes() as u64 % self.geom.num_sets() as u64) as usize
    }

    fn position(&self, line: u64) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        self.sets[set]
            .iter()
            .position(|l| l.addr == line)
            .map(|i| (set, i))
    }

    /// A CPU access: on a hit the line becomes most recent.
    fn touch(&mut self, line: u64) -> Option<State> {
        let (set, i) = self.position(line)?;
        let l = self.sets[set].remove(i);
        self.sets[set].insert(0, l);
        Some(l.state)
    }

    /// A snoop: looks without changing recency.
    fn peek(&self, line: u64) -> Option<State> {
        self.position(line).map(|(set, i)| self.sets[set][i].state)
    }

    /// Installs a line as most recent; returns the least recent line when
    /// the set overflows.
    fn fill(&mut self, line: u64, state: State, phys: u64) -> Option<Line> {
        let set = self.set_of(line);
        let ways = &mut self.sets[set];
        ways.insert(
            0,
            Line {
                addr: line,
                state,
                phys,
            },
        );
        if ways.len() > self.geom.associativity() {
            ways.pop()
        } else {
            None
        }
    }

    fn set_state(&mut self, line: u64, state: State) -> bool {
        match self.position(line) {
            Some((set, i)) => {
                self.sets[set][i].state = state;
                true
            }
            None => false,
        }
    }

    fn remove(&mut self, line: u64) {
        if let Some((set, i)) = self.position(line) {
            self.sets[set].remove(i);
        }
    }

    /// Drops every line whose physical sub-line lies in `[lo, hi)`.
    fn remove_phys_range(&mut self, lo: u64, hi: u64) {
        for set in &mut self.sets {
            set.retain(|l| l.phys < lo || l.phys >= hi);
        }
    }
}

/// A fully-associative LRU list of keys, most recent first.
struct LruList {
    capacity: usize,
    keys: Vec<u64>,
}

impl LruList {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            keys: Vec::new(),
        }
    }

    /// References `key`; returns whether it was present.
    fn reference(&mut self, key: u64) -> bool {
        let hit = self.remove(key);
        self.keys.insert(0, key);
        self.keys.truncate(self.capacity);
        hit
    }

    fn contains(&self, key: u64) -> bool {
        self.keys.contains(&key)
    }

    fn remove(&mut self, key: u64) -> bool {
        match self.keys.iter().position(|&k| k == key) {
            Some(i) => {
                self.keys.remove(i);
                true
            }
            None => false,
        }
    }
}

/// The optional victim buffer: a fully-associative LRU list of evicted L2
/// lines with their states, most recent first.
struct VictimBuffer {
    capacity: usize,
    lines: Vec<(u64, State)>,
}

impl VictimBuffer {
    /// Buffers an evicted line; returns the line pushed out, if any.
    fn insert(&mut self, line: u64, state: State) -> Option<(u64, State)> {
        self.take(line);
        self.lines.insert(0, (line, state));
        if self.lines.len() > self.capacity {
            self.lines.pop()
        } else {
            None
        }
    }

    fn take(&mut self, line: u64) -> Option<State> {
        let i = self.lines.iter().position(|&(l, _)| l == line)?;
        Some(self.lines.remove(i).1)
    }

    fn contains(&self, line: u64) -> bool {
        self.lines.iter().any(|&(l, _)| l == line)
    }

    fn set_state(&mut self, line: u64, state: State) {
        if let Some(entry) = self.lines.iter_mut().find(|(l, _)| *l == line) {
            entry.1 = state;
        }
    }
}

/// Directory entry: which CPUs hold (or are fetching) the line, and which
/// one holds it dirty.
#[derive(Debug, Clone, Copy, Default)]
struct Dir {
    sharers: u32,
    owner: Option<usize>,
}

#[derive(Clone, Copy)]
enum BusUse {
    Data,
    Writeback,
    Upgrade,
}

/// One CPU's private hierarchy and bookkeeping.
struct Cpu {
    l1d: Cache,
    l1i: Cache,
    l2: Cache,
    tlb: LruList,
    /// Same capacity as the L2, fully associative: an L2 miss that would
    /// hit here is a conflict miss.
    shadow: LruList,
    /// Every L2 line this CPU has ever held (the cold-miss test).
    seen: HashSet<u64>,
    /// In-flight prefetches: L2 line → (completion cycle, fill state).
    inflight: HashMap<u64, (u64, State)>,
    /// Prefetched lines not yet referenced by a demand access.
    prefetched: HashSet<u64>,
    /// Completion cycles of the outstanding prefetch slots.
    slots: Vec<u64>,
    victim: Option<VictimBuffer>,
    stats: CpuStats,
}

/// The shared memory system: per-CPU hierarchies, bus, directory, and the
/// sharing tracker.
struct Memory {
    cfg: MemConfig,
    cpus: Vec<Cpu>,
    bus_free_at: u64,
    /// Bus occupancy cycles: (data, writeback, upgrade).
    bus: (u64, u64, u64),
    directory: HashMap<u64, Dir>,
    /// (line, cpu) → sub-blocks written since `cpu` lost the line to
    /// another CPU's write.
    pending: HashMap<(u64, usize), u64>,
    refs: u64,
}

impl Memory {
    fn new(cfg: &MemConfig) -> Self {
        let cpus = (0..cfg.num_cpus)
            .map(|_| Cpu {
                l1d: Cache::new(cfg.l1d),
                l1i: Cache::new(cfg.l1i),
                l2: Cache::new(cfg.l2),
                tlb: LruList::new(cfg.tlb_entries),
                shadow: LruList::new(cfg.l2.num_lines()),
                seen: HashSet::new(),
                inflight: HashMap::new(),
                prefetched: HashSet::new(),
                slots: Vec::new(),
                victim: (cfg.victim_cache_lines > 0).then(|| VictimBuffer {
                    capacity: cfg.victim_cache_lines,
                    lines: Vec::new(),
                }),
                stats: CpuStats::default(),
            })
            .collect();
        Self {
            cfg: cfg.clone(),
            cpus,
            bus_free_at: 0,
            bus: (0, 0, 0),
            directory: HashMap::new(),
            pending: HashMap::new(),
            refs: 0,
        }
    }

    fn l2_line_bytes(&self) -> u64 {
        self.cfg.l2.line_bytes() as u64
    }

    fn l2_line(&self, pa: u64) -> u64 {
        pa - pa % self.l2_line_bytes()
    }

    /// The L1-line-sized sub-block of its L2 line that `pa` falls in.
    fn sub_block(&self, pa: u64) -> u32 {
        (pa % self.l2_line_bytes() / self.cfg.l1d.line_bytes() as u64) as u32
    }

    fn vpn(&self, va: u64) -> u64 {
        va / self.cfg.page_size as u64
    }

    /// Starts a new measurement window: counters and bus clear, cache state
    /// stays.
    fn reset_stats(&mut self) {
        for c in &mut self.cpus {
            c.stats = CpuStats::default();
        }
        self.bus_free_at = 0;
        self.bus = (0, 0, 0);
    }

    fn stats(&self) -> MemStats {
        MemStats {
            cpus: self.cpus.iter().map(|c| c.stats.clone()).collect(),
            bus_occupancy: self.bus,
            bus_transactions: 0,
        }
    }

    /// FIFO single-server bus: returns the queueing delay.
    fn bus_request(&mut self, now: u64, occupancy: u64, use_: BusUse) -> u64 {
        let start = self.bus_free_at.max(now);
        self.bus_free_at = start + occupancy;
        match use_ {
            BusUse::Data => self.bus.0 += occupancy,
            BusUse::Writeback => self.bus.1 += occupancy,
            BusUse::Upgrade => self.bus.2 += occupancy,
        }
        start - now
    }

    fn line_transfer_cycles(&self) -> u64 {
        self.cfg.bus_occupancy_cycles(self.l2_line_bytes())
    }

    /// One demand reference. Returns `(stall cycles, miss class)`.
    fn access(
        &mut self,
        cpu: usize,
        now: u64,
        va: u64,
        pa: u64,
        write: bool,
        ifetch: bool,
    ) -> (u64, Option<MissClass>) {
        self.refs += 1;
        if ifetch {
            self.cpus[cpu].stats.ifetch_refs += 1;
        } else {
            self.cpus[cpu].stats.data_refs += 1;
        }
        let mut latency = 0;
        let vpn = self.vpn(va);
        if !self.cpus[cpu].tlb.reference(vpn) {
            let penalty = self.cfg.tlb_miss_cycles();
            let stats = &mut self.cpus[cpu].stats;
            stats.tlb_misses += 1;
            stats.tlb_stall_cycles += penalty;
            latency += penalty;
        }
        let now = now + latency;
        self.complete_prefetches(cpu, now);

        let line = self.l2_line(pa);
        let sub = self.sub_block(pa);
        let c = &mut self.cpus[cpu];
        let l1 = if ifetch { &mut c.l1i } else { &mut c.l1d };
        let va_line = l1.line_of(va);
        if l1.touch(va_line).is_some() {
            c.stats.l1_hits += 1;
            if write {
                latency += self.write_hit(cpu, now, line, sub);
            }
            return (latency, None);
        }

        let l2_state = self.cpus[cpu].l2.touch(line);
        let shadow_hit = self.cpus[cpu].shadow.reference(line);
        let hit_cycles = self.cfg.l2_hit_cycles();

        if let Some(state) = l2_state {
            latency += hit_cycles;
            let c = &mut self.cpus[cpu];
            c.stats.l2_hits += 1;
            c.stats.l2_hit_stall_cycles += hit_cycles;
            if c.prefetched.remove(&line) {
                c.stats.prefetch_hits += 1;
            }
            if write {
                latency += self.write_in_state(cpu, now, line, sub, state);
            }
            self.fill_l1(cpu, va, pa, ifetch);
            return (latency, None);
        }

        if let Some(&(completion, _)) = self.cpus[cpu].inflight.get(&line) {
            let wait = completion.saturating_sub(now);
            self.complete_prefetches(cpu, completion.max(now));
            latency += wait + hit_cycles;
            let stats = &mut self.cpus[cpu].stats;
            stats.prefetch_hits += 1;
            stats.prefetch_wait_cycles += wait;
            stats.l2_hit_stall_cycles += hit_cycles;
            if write {
                latency += self.write_hit(cpu, now + wait, line, sub);
            }
            self.fill_l1(cpu, va, pa, ifetch);
            return (latency, None);
        }

        let swapped = self.cpus[cpu].victim.as_mut().and_then(|v| v.take(line));
        if let Some(state) = swapped {
            let swap_cycles = 2 * hit_cycles;
            latency += swap_cycles;
            let stats = &mut self.cpus[cpu].stats;
            stats.victim_hits += 1;
            stats.l2_hit_stall_cycles += swap_cycles;
            self.fill_l2(cpu, now, line, state);
            if write {
                latency += self.write_hit(cpu, now, line, sub);
            }
            self.fill_l1(cpu, va, pa, ifetch);
            return (latency, None);
        }

        // A real miss. Coherence beats replacement; cold only when this CPU
        // never held the line; conflict when a fully-associative cache of
        // the same size would have hit.
        let class = if let Some(written) = self.pending.remove(&(line, cpu)) {
            if written & (1 << sub) != 0 {
                MissClass::TrueSharing
            } else {
                MissClass::FalseSharing
            }
        } else if !self.cpus[cpu].seen.contains(&line) {
            MissClass::Cold
        } else if shadow_hit {
            MissClass::Conflict
        } else {
            MissClass::Capacity
        };
        self.cpus[cpu].seen.insert(line);

        let (service, fill_state) = self.service_miss(cpu, now, line, sub, write);
        latency += service;
        self.fill_l2(cpu, now, line, fill_state);
        if write {
            self.note_write(line, cpu, sub);
        }
        self.fill_l1(cpu, va, pa, ifetch);
        let stats = &mut self.cpus[cpu].stats;
        stats.misses.add(class, 1);
        stats.miss_stall_cycles.add(class, service);
        (latency, Some(class))
    }

    /// One prefetch instruction. Returns the slot-stall cycles.
    fn prefetch(&mut self, cpu: usize, now: u64, va: u64, pa: u64, exclusive: bool) -> u64 {
        let line = self.l2_line(pa);
        if !self.cpus[cpu].tlb.contains(self.vpn(va)) {
            self.cpus[cpu].stats.prefetches_dropped_tlb += 1;
            return 0;
        }
        self.complete_prefetches(cpu, now);
        let c = &self.cpus[cpu];
        let resident = c.l2.peek(line).is_some()
            || c.inflight.contains_key(&line)
            || c.victim.as_ref().is_some_and(|v| v.contains(line));
        if resident {
            self.cpus[cpu].stats.prefetches_dropped_resident += 1;
            return 0;
        }
        self.refs += 1;

        // Reserve a slot: with all slots busy, stall until the earliest
        // outstanding prefetch completes.
        let slots = &mut self.cpus[cpu].slots;
        slots.retain(|&c| c > now);
        let (stall, issue_at) = if slots.len() < self.cfg.max_outstanding_prefetches {
            (0, now)
        } else {
            let earliest = *slots.iter().min().expect("slots are full");
            slots.retain(|&c| c > earliest);
            (earliest - now, earliest)
        };
        self.complete_prefetches(cpu, issue_at);
        let sub = self.sub_block(pa);
        let (service, fill_state) = self.service_miss(cpu, issue_at, line, sub, exclusive);
        let completion = issue_at + service;
        let c = &mut self.cpus[cpu];
        c.slots.push(completion);
        c.inflight.insert(line, (completion, fill_state));
        c.stats.prefetches_issued += 1;
        c.stats.prefetch_slot_stall_cycles += stall;
        stall
    }

    /// Fills every in-flight prefetch of `cpu` that completed by `now`,
    /// earliest first (ties by line address).
    fn complete_prefetches(&mut self, cpu: usize, now: u64) {
        loop {
            let next = self.cpus[cpu]
                .inflight
                .iter()
                .filter(|&(_, &(done, _))| done <= now)
                .map(|(&line, &(done, state))| (done, line, state))
                .min_by_key(|&(done, line, _)| (done, line));
            let Some((done, line, recorded)) = next else {
                return;
            };
            self.cpus[cpu].inflight.remove(&line);
            // The line arrives in whatever state the directory now grants:
            // rights revoked in flight drop it, a read by another CPU
            // meanwhile makes it Shared, lost ownership makes it clean.
            let me = 1u32 << cpu;
            let state = match self.directory.get(&line) {
                None => continue,
                Some(d) if d.sharers & me == 0 => continue,
                Some(d) if d.owner == Some(cpu) => State::Modified,
                Some(d) if d.sharers == me => match recorded {
                    State::Modified => State::Exclusive,
                    s => s,
                },
                Some(_) => State::Shared,
            };
            if self.cpus[cpu].l2.peek(line).is_none() {
                self.fill_l2(cpu, done, line, state);
                self.cpus[cpu].prefetched.insert(line);
            }
        }
    }

    /// A write that found its line in the local hierarchy.
    fn write_hit(&mut self, cpu: usize, now: u64, line: u64, sub: u32) -> u64 {
        match self.cpus[cpu].l2.peek(line) {
            Some(state) => self.write_in_state(cpu, now, line, sub, state),
            None => 0,
        }
    }

    /// Upgrades a Shared line (bus transaction + invalidations), silently
    /// dirties an Exclusive one, and records the written sub-block.
    fn write_in_state(&mut self, cpu: usize, now: u64, line: u64, sub: u32, state: State) -> u64 {
        let mut extra = 0;
        match state {
            State::Shared => {
                let occupancy = self.cfg.bus_occupancy_cycles(self.cfg.upgrade_bus_bytes);
                let queue = self.bus_request(now, occupancy, BusUse::Upgrade);
                extra = queue + occupancy;
                self.cpus[cpu].stats.upgrade_stall_cycles += extra;
                self.invalidate_others(cpu, line, sub);
                self.cpus[cpu].l2.set_state(line, State::Modified);
                self.directory.insert(
                    line,
                    Dir {
                        sharers: 1 << cpu,
                        owner: Some(cpu),
                    },
                );
            }
            State::Exclusive => {
                self.cpus[cpu].l2.set_state(line, State::Modified);
                self.directory.entry(line).or_default().owner = Some(cpu);
            }
            State::Modified => {}
        }
        self.note_write(line, cpu, sub);
        extra
    }

    /// Adds a written sub-block to every other CPU's pending invalidation
    /// record for the line.
    fn note_write(&mut self, line: u64, writer: usize, sub: u32) {
        for victim in 0..self.cfg.num_cpus {
            if victim != writer {
                if let Some(mask) = self.pending.get_mut(&(line, victim)) {
                    *mask |= 1 << sub;
                }
            }
        }
    }

    /// `victim` lost `line` to another CPU's write of sub-block `sub`.
    fn note_invalidation(&mut self, line: u64, victim: usize, sub: u32) {
        *self.pending.entry((line, victim)).or_insert(0) |= 1 << sub;
    }

    fn invalidate_others(&mut self, cpu: usize, line: u64, sub: u32) {
        let sharers = self.directory.get(&line).map_or(0, |d| d.sharers);
        for victim in 0..self.cfg.num_cpus {
            if victim != cpu && sharers & (1 << victim) != 0 {
                self.drop_line(victim, line);
                self.note_invalidation(line, victim, sub);
            }
        }
    }

    /// Removes every trace of `line` from one CPU.
    fn drop_line(&mut self, cpu: usize, line: u64) {
        let c = &mut self.cpus[cpu];
        c.l2.remove(line);
        c.shadow.remove(line);
        c.inflight.remove(&line);
        c.prefetched.remove(&line);
        if let Some(v) = c.victim.as_mut() {
            v.take(line);
        }
        self.drop_l1_copies(cpu, line);
    }

    /// Inclusion: drops every L1 line filled from inside L2 line `line`.
    fn drop_l1_copies(&mut self, cpu: usize, line: u64) {
        let end = line + self.l2_line_bytes();
        let c = &mut self.cpus[cpu];
        c.l1d.remove_phys_range(line, end);
        c.l1i.remove_phys_range(line, end);
    }

    /// Downgrades another CPU's copy (in its L2 or victim buffer) to
    /// Shared.
    fn downgrade(&mut self, cpu: usize, line: u64) {
        let c = &mut self.cpus[cpu];
        if !c.l2.set_state(line, State::Shared) {
            if let Some(v) = c.victim.as_mut() {
                v.set_state(line, State::Shared);
            }
        }
    }

    /// Fetches a line over the bus: from a dirty owner's cache or from
    /// memory, with the coherence actions that implies. Returns
    /// `(latency, fill state)` and records the new rights in the
    /// directory.
    fn service_miss(
        &mut self,
        cpu: usize,
        now: u64,
        line: u64,
        sub: u32,
        write: bool,
    ) -> (u64, State) {
        let entry = self.directory.get(&line).copied().unwrap_or_default();
        let others = entry.sharers & !(1 << cpu);
        let base = match entry.owner {
            Some(owner) if owner != cpu => {
                if write {
                    self.drop_line(owner, line);
                    self.note_invalidation(line, owner, sub);
                } else {
                    self.downgrade(owner, line);
                }
                self.cfg.remote_latency_cycles()
            }
            _ => {
                if others != 0 {
                    if write {
                        self.invalidate_others(cpu, line, sub);
                    } else {
                        for other in 0..self.cfg.num_cpus {
                            if others & (1 << other) != 0 {
                                self.downgrade(other, line);
                            }
                        }
                    }
                }
                self.cfg.mem_latency_cycles()
            }
        };
        let occupancy = self.line_transfer_cycles();
        let latency = base + self.bus_request(now, occupancy, BusUse::Data);
        let d = self.directory.entry(line).or_default();
        let state = if write {
            d.sharers = 1 << cpu;
            State::Modified
        } else if d.sharers & !(1 << cpu) != 0 || d.owner.is_some() {
            d.sharers |= 1 << cpu;
            State::Shared
        } else {
            d.sharers |= 1 << cpu;
            State::Exclusive
        };
        d.owner = write.then_some(cpu);
        (latency, state)
    }

    fn fill_l2(&mut self, cpu: usize, now: u64, line: u64, state: State) {
        let Some(evicted) = self.cpus[cpu].l2.fill(line, state, 0) else {
            return;
        };
        let gone = evicted.addr;
        self.cpus[cpu].prefetched.remove(&gone);
        self.drop_l1_copies(cpu, gone);
        // With a victim buffer the line (and its directory rights) stays
        // on this CPU; only what falls out of the buffer is released.
        let released = match self.cpus[cpu].victim.as_mut() {
            Some(v) => v.insert(gone, evicted.state),
            None => Some((gone, evicted.state)),
        };
        if let Some((out, out_state)) = released {
            self.release(cpu, now, out, out_state == State::Modified);
        }
    }

    /// Gives up a line: write it back if dirty and clear its directory
    /// rights.
    fn release(&mut self, cpu: usize, now: u64, line: u64, dirty: bool) {
        if dirty {
            let occupancy = self.line_transfer_cycles();
            self.bus_request(now, occupancy, BusUse::Writeback);
        }
        if let Some(d) = self.directory.get_mut(&line) {
            d.sharers &= !(1 << cpu);
            if d.owner == Some(cpu) {
                d.owner = None;
            }
            if d.sharers == 0 {
                self.directory.remove(&line);
            }
        }
    }

    fn fill_l1(&mut self, cpu: usize, va: u64, pa: u64, ifetch: bool) {
        let phys = pa - pa % self.cfg.l1d.line_bytes() as u64;
        let c = &mut self.cpus[cpu];
        let l1 = if ifetch { &mut c.l1i } else { &mut c.l1d };
        let va_line = l1.line_of(va);
        if l1.peek(va_line).is_none() {
            l1.fill(va_line, State::Exclusive, phys);
        }
    }

    /// Removes one physical page, cached or in flight, from every CPU (the
    /// cache side of a recoloring), writing dirty lines back at `now`.
    fn flush_page(&mut self, now: u64, page_base: u64) {
        let step = self.l2_line_bytes();
        for line in (page_base..page_base + self.cfg.page_size as u64).step_by(step as usize) {
            for cpu in 0..self.cfg.num_cpus {
                let c = &mut self.cpus[cpu];
                let held = match c.l2.peek(line) {
                    Some(s) => Some(s),
                    None => c.victim.as_mut().and_then(|v| v.take(line)),
                };
                if let Some(state) = held {
                    if state == State::Modified {
                        let occupancy = self.line_transfer_cycles();
                        self.bus_request(now, occupancy, BusUse::Writeback);
                    }
                    self.drop_line(cpu, line);
                }
                // An in-flight prefetch of the line is cancelled; its slot
                // stays busy until it would have completed.
                self.cpus[cpu].inflight.remove(&line);
            }
            self.directory.remove(&line);
        }
    }
}

/// The whole machine: memory system, OS, and the per-CPU clocks and
/// per-phase accumulators of the run loop.
struct Machine {
    cfg: RunConfig,
    mem: Memory,
    vm: AddressSpace,
    policy: Box<dyn MappingPolicy>,
    clocks: Vec<u64>,
    conflicts: HashMap<u64, u32>,
    color_loads: Vec<u32>,
    recolorings: u64,
    instr: Vec<u64>,
    fault_cycles: Vec<u64>,
    imbalance: u64,
    sequential: u64,
    suppressed: u64,
    sync: u64,
}

impl Machine {
    fn page_size(&self) -> u64 {
        self.cfg.mem.page_size as u64
    }

    fn dynamic(&self) -> bool {
        self.cfg.policy == PolicyKind::DynamicRecolor
    }

    fn map_page(&mut self, cpu: usize, vpn: Vpn) {
        if self.vm.is_mapped(vpn) {
            return;
        }
        self.vm
            .fault(vpn, &mut self.policy)
            .expect("physical memory exhausted");
        self.clocks[cpu] += self.cfg.page_fault_cycles;
        self.fault_cycles[cpu] += self.cfg.page_fault_cycles;
        if self.dynamic() {
            let color = self.vm.color_of(vpn).expect("just mapped");
            self.color_loads[color.0 as usize] += 1;
        }
    }

    /// Walks the page table, faulting the page in on first touch.
    fn translate(&mut self, cpu: usize, va: u64) -> u64 {
        self.map_page(cpu, Vpn(va / self.page_size()));
        self.vm.translate(VirtAddr(va)).expect("just mapped").0
    }

    /// Moves a page that keeps conflicting to the least-loaded color,
    /// paying the flush, the copy, and a shootdown IPI on every other CPU.
    fn recolor(&mut self, cpu: usize, vpn: Vpn) {
        let old_color = self.vm.color_of(vpn).expect("mapped");
        let mut target = 0;
        for c in 0..self.color_loads.len() {
            if self.color_loads[c] < self.color_loads[target] {
                target = c;
            }
        }
        if target == old_color.0 as usize {
            return;
        }
        let page = self.page_size();
        let old_base = self.vm.translate(VirtAddr(vpn.0 * page)).expect("mapped").0;
        if self.vm.recolor(vpn, Color(target as u32)).is_err() {
            return;
        }
        self.color_loads[old_color.0 as usize] -= 1;
        let new_color = self.vm.color_of(vpn).expect("mapped");
        self.color_loads[new_color.0 as usize] += 1;
        self.mem
            .flush_page(self.clocks[cpu], old_base - old_base % page);
        for c in &mut self.mem.cpus {
            c.tlb.remove(vpn.0);
        }
        self.recolorings += 1;
        let copy = 2 * self.cfg.mem.bus_occupancy_cycles(page) + self.cfg.page_fault_cycles;
        self.clocks[cpu] += copy;
        self.fault_cycles[cpu] += copy;
        let ipi = self.cfg.mem.ns_to_cycles(2_000);
        for other in 0..self.clocks.len() {
            if other != cpu {
                self.clocks[other] += ipi;
                self.fault_cycles[other] += ipi;
            }
        }
    }

    fn exec_op(&mut self, cpu: usize, op: TraceOp) {
        match op {
            TraceOp::Instr(n) => {
                self.clocks[cpu] += n;
                self.instr[cpu] += n;
            }
            TraceOp::Load(va) | TraceOp::Store(va) => {
                let write = matches!(op, TraceOp::Store(_));
                let pa = self.translate(cpu, va.0);
                let (stall, class) = self
                    .mem
                    .access(cpu, self.clocks[cpu], va.0, pa, write, false);
                self.clocks[cpu] += stall + 1;
                self.instr[cpu] += 1;
                if self.dynamic() && class == Some(MissClass::Conflict) {
                    let vpn = va.0 / self.page_size();
                    let count = self.conflicts.entry(vpn).or_insert(0);
                    *count += 1;
                    if *count >= self.cfg.recolor_threshold {
                        *count = 0;
                        self.recolor(cpu, Vpn(vpn));
                    }
                }
            }
            TraceOp::IFetch(va) => {
                let pa = self.translate(cpu, va.0);
                let (stall, _) = self
                    .mem
                    .access(cpu, self.clocks[cpu], va.0, pa, false, true);
                self.clocks[cpu] += stall;
            }
            TraceOp::Prefetch { addr, exclusive } => {
                // Never faults: a prefetch to an unmapped page misses the
                // TLB and is dropped before its address matters.
                let pa = self.vm.translate(addr).unwrap_or(PhysAddr(0)).0;
                let stall = self
                    .mem
                    .prefetch(cpu, self.clocks[cpu], addr.0, pa, exclusive);
                self.clocks[cpu] += stall + 1;
                self.instr[cpu] += 1;
            }
        }
    }

    fn exec_stmt(&mut self, stmt: &CompiledStmt) {
        match stmt {
            CompiledStmt::Parallel { specs } => {
                // One op per heap turn, lowest (clock, cpu) first. A CPU's
                // key is its clock when it was pushed.
                let mut streams: Vec<_> = specs.iter().map(|s| s.ops()).collect();
                let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..specs.len())
                    .map(|c| Reverse((self.clocks[c], c)))
                    .collect();
                while let Some(Reverse((_, cpu))) = heap.pop() {
                    if let Some(op) = streams[cpu].next() {
                        self.exec_op(cpu, op);
                        heap.push(Reverse((self.clocks[cpu], cpu)));
                    }
                }
                let end = *self.clocks.iter().max().expect("at least one cpu");
                for c in 0..specs.len() {
                    self.imbalance += end - self.clocks[c];
                    self.clocks[c] = end + self.cfg.barrier_cycles;
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
        self.instr.iter_mut().for_each(|v| *v = 0);
        self.fault_cycles.iter_mut().for_each(|v| *v = 0);
        self.imbalance = 0;
        self.sequential = 0;
        self.suppressed = 0;
        self.sync = 0;
    }
}

fn max_code_bytes(compiled: &CompiledProgram) -> u64 {
    let mut max = 0;
    for phase in &compiled.phases {
        for stmt in &phase.stmts {
            let bytes = match stmt {
                CompiledStmt::Parallel { specs } => specs.first().map_or(0, |s| s.code_bytes),
                CompiledStmt::Master { spec, .. } => spec.code_bytes,
            };
            max = max.max(bytes);
        }
    }
    max
}

fn mapping_policy(compiled: &CompiledProgram, cfg: &RunConfig) -> Box<dyn MappingPolicy> {
    let mem = &cfg.mem;
    let colors = ColorSpace::new(mem.l2.size_bytes(), mem.page_size, mem.l2.associativity());
    match cfg.policy {
        PolicyKind::PageColoring | PolicyKind::DynamicRecolor => {
            Box::new(PageColoring::new(colors))
        }
        PolicyKind::BinHopping if mem.num_cpus > 1 && cfg.race_window > 0 => Box::new(
            BinHopping::with_race_perturbation(colors, cfg.race_window, cfg.seed),
        ),
        PolicyKind::BinHopping => Box::new(BinHopping::new(colors)),
        PolicyKind::Cdpc | PolicyKind::CdpcTouch => {
            let hints =
                generate_hints_with(&compiled.summary, &machine_params(mem), cfg.hint_options)
                    .expect("valid summary");
            let mut table = hints.to_hint_table();
            // Code pages continue the round robin after the data pages,
            // unless nothing was hinted at all.
            if !hints.is_empty() {
                let page = mem.page_size as u64;
                let first = compiled.layout.code_base.0 / page;
                let last =
                    (compiled.layout.code_base.0 + max_code_bytes(compiled).max(1) - 1) / page;
                let mut color = Color(hints.len() as u32 % colors.num_colors());
                for vpn in (first..=last).map(Vpn) {
                    if table.lookup(vpn).is_none() {
                        table.advise(vpn, color);
                        color = colors.advance(color, 1);
                    }
                }
            }
            Box::new(CdpcPolicy::new(table, PageColoring::new(colors)))
        }
    }
}

fn machine_params(mem: &MemConfig) -> MachineParams {
    MachineParams::new(
        mem.num_cpus,
        mem.page_size,
        mem.l2.size_bytes(),
        mem.l2.associativity(),
    )
}

/// Runs `compiled` on the reference machine: a warm-up pass, then one
/// measured pass whose per-phase statistics are weighted by phase count.
pub fn run(compiled: &CompiledProgram, cfg: &RunConfig) -> RunReport {
    let mem_cfg = &cfg.mem;
    let p = mem_cfg.num_cpus;
    assert_eq!(compiled.num_cpus, p);
    let page = mem_cfg.page_size as u64;
    let colors = ColorSpace::new(
        mem_cfg.l2.size_bytes(),
        mem_cfg.page_size,
        mem_cfg.l2.associativity(),
    );
    let n = colors.num_colors() as usize;

    // Physical memory: the touched span times the slack, in whole color
    // groups.
    let va_end = compiled.layout.code_base.0 + max_code_bytes(compiled) + page;
    let span_pages = va_end.div_ceil(page) as f64;
    let phys_pages = (((span_pages * cfg.phys_slack) as usize).div_ceil(n)).max(2) * n;
    let mut vm = AddressSpace::new(PageGeometry::new(mem_cfg.page_size), phys_pages, colors);
    if cfg.hog_fraction > 0.0 {
        let hog_pages = (phys_pages as f64 * cfg.hog_fraction.clamp(0.0, 0.95)) as usize;
        let half = (colors.num_colors() / 2).max(1);
        for i in 0..hog_pages {
            let mut hog = FixedColor::new(Color(i as u32 % half));
            vm.fault(Vpn(u64::MAX / 2 + i as u64), &mut hog)
                .expect("hog fits");
        }
    }
    // The co-resident job's faults are not the program's.
    let hog_faults = vm.stats();

    let mut m = Machine {
        cfg: cfg.clone(),
        mem: Memory::new(mem_cfg),
        vm,
        policy: mapping_policy(compiled, cfg),
        clocks: vec![0; p],
        conflicts: HashMap::new(),
        color_loads: vec![0; n],
        recolorings: 0,
        instr: vec![0; p],
        fault_cycles: vec![0; p],
        imbalance: 0,
        sequential: 0,
        suppressed: 0,
        sync: 0,
    };

    if cfg.policy == PolicyKind::CdpcTouch {
        let hints = generate_hints_with(
            &compiled.summary,
            &machine_params(mem_cfg),
            cfg.hint_options,
        )
        .expect("valid summary");
        for &vpn in hints.order() {
            m.map_page(0, vpn);
        }
    }

    for phase in &compiled.phases {
        for stmt in &phase.stmts {
            m.exec_stmt(stmt);
        }
    }

    let mut report = RunReport {
        name: compiled.name.clone(),
        num_cpus: p,
        policy: cfg.policy.label().to_string(),
        instructions: 0,
        exec_cycles: 0,
        stalls: StallBreakdown::default(),
        overheads: OverheadBreakdown::default(),
        elapsed_cycles: 0,
        combined_cycles: 0,
        bus: BusReport {
            data_cycles: 0,
            writeback_cycles: 0,
            upgrade_cycles: 0,
            utilization: 0.0,
        },
        mem_stats: MemStats {
            cpus: vec![CpuStats::default(); p],
            bus_occupancy: (0, 0, 0),
            bus_transactions: 0,
        },
        fault_stats: Default::default(),
        recolorings: 0,
        simulated_refs: 0,
    };
    for phase in &compiled.phases {
        let k = phase.count.max(1);
        m.reset_phase_counters();
        let start = m.clocks.clone();
        for stmt in &phase.stmts {
            m.exec_stmt(stmt);
        }
        let stats = m.mem.stats();
        let total = stats.aggregate();

        let instr: u64 = m.instr.iter().sum();
        report.instructions += instr * k;
        report.exec_cycles += instr * k;

        let s = &mut report.stalls;
        s.l2_hit += total.l2_hit_stall_cycles * k;
        s.conflict += total.miss_stall_cycles.get(MissClass::Conflict) * k;
        s.capacity += total.miss_stall_cycles.get(MissClass::Capacity) * k;
        s.true_sharing += total.miss_stall_cycles.get(MissClass::TrueSharing) * k;
        s.false_sharing += total.miss_stall_cycles.get(MissClass::FalseSharing) * k;
        s.cold += total.miss_stall_cycles.get(MissClass::Cold) * k;
        s.prefetch += (total.prefetch_wait_cycles + total.prefetch_slot_stall_cycles) * k;
        s.upgrade += total.upgrade_stall_cycles * k;

        let o = &mut report.overheads;
        o.kernel += (total.tlb_stall_cycles + m.fault_cycles.iter().sum::<u64>()) * k;
        o.load_imbalance += m.imbalance * k;
        o.sequential += m.sequential * k;
        o.suppressed += m.suppressed * k;
        o.synchronization += m.sync * k;

        let wall_start = start.iter().max().copied().unwrap_or(0);
        let wall_end = m.clocks.iter().max().copied().unwrap_or(0);
        report.elapsed_cycles += (wall_end - wall_start) * k;
        for (end, begin) in m.clocks.iter().zip(&start) {
            report.combined_cycles += (end - begin) * k;
        }

        for (acc, cpu) in report.mem_stats.cpus.iter_mut().zip(&stats.cpus) {
            for _ in 0..k {
                acc.merge(cpu);
            }
        }
        let (d, w, u) = stats.bus_occupancy;
        report.bus.data_cycles += d * k;
        report.bus.writeback_cycles += w * k;
        report.bus.upgrade_cycles += u * k;
    }
    let bus = &mut report.bus;
    report.mem_stats.bus_occupancy = (bus.data_cycles, bus.writeback_cycles, bus.upgrade_cycles);
    let busy = bus.data_cycles + bus.writeback_cycles + bus.upgrade_cycles;
    if report.elapsed_cycles > 0 {
        bus.utilization = (busy as f64 / report.elapsed_cycles as f64).min(1.0);
    }
    let all = m.vm.stats();
    report.fault_stats = FaultStats {
        faults: all.faults - hog_faults.faults,
        preferred: all.preferred - hog_faults.preferred,
        honored: all.honored - hog_faults.honored,
        fallback: all.fallback - hog_faults.fallback,
    };
    report.recolorings = m.recolorings;
    report.simulated_refs = m.mem.refs;
    report
}
