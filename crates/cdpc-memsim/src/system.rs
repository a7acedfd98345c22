//! The whole memory system: per-CPU cache hierarchies, shared bus, MESI
//! coherence, miss classification, and the prefetch engine.
//!
//! [`MemorySystem`] is driven one reference at a time by the machine run
//! loop (`cdpc-machine`): each call carries the issuing CPU, that CPU's
//! local clock (in cycles), the virtual and physical addresses, and the
//! access kind. The return value reports the latency to charge and how the
//! miss (if any) was classified.
//!
//! ## Model notes
//!
//! * L1 caches are virtually indexed (page mapping invisible), write-back
//!   in spirit, but modeled with *metadata write-through*: a write updates
//!   both the L1 and L2 line states immediately. This avoids simulating
//!   L1→L2 victim traffic (on-chip and free in the paper's machine) while
//!   keeping the bus-visible coherence behaviour exact.
//! * Inclusion is enforced: evicting or invalidating an L2 line invalidates
//!   the corresponding L1 sub-lines. Each L2 way's `aux` tag holds the
//!   virtual address its L1 sub-lines were filled under (or [`NO_VA`]), so
//!   the sub-lines are found without a physical → virtual map.
//! * Outside the sharing tracker's records of invalidated lines, a
//!   reference hashes nothing: the TLB, the shadow cache and the victim
//!   buffer index an [`LruSet`](crate::lru::LruSet) by page or line
//!   number; the directory is a dense table indexed by line number whose
//!   entries also record which CPUs ever missed the line (the cold-miss
//!   test); a prefetch-filled line is marked in its L2 way; and each CPU's
//!   in-flight prefetches are a short list, one entry per slot.
//! * A miss's latency is `service latency + bus queueing delay`; the data
//!   transfer occupancy overlaps the service latency but serializes the bus
//!   for later requesters, which is how contention appears (as in the
//!   paper, where bus saturation more than doubles tomcatv's MCPI).

use cdpc_core::DenseMap64;
use cdpc_obs::{LineState, NullProbe, PrefetchDropReason, Probe};
use cdpc_vm::addr::{PhysAddr, VirtAddr, Vpn};
use cdpc_vm::RegionMap;

use crate::bus::{Bus, BusUse};
use crate::cache::{Cache, Evicted, Lookup, Mesi};
use crate::classify::{MissClass, ShadowCache, SharingTracker};
use crate::config::MemConfig;
use crate::prefetch::InFlight;
use crate::stats::{CpuStats, MemStats};
use crate::tlb::Tlb;
use crate::victim::VictimCache;

/// Index of a processor (0-based).
pub type CpuId = usize;

/// The kind of one memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Demand data read.
    Read,
    /// Demand data write.
    Write,
    /// Instruction fetch.
    IFetch,
}

/// Where a demand reference was ultimately serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicedBy {
    /// Hit in the on-chip L1.
    L1,
    /// Hit in the external (L2) cache.
    L2,
    /// Satisfied by an in-flight or just-completed prefetch.
    Prefetch,
    /// Fetched from main memory.
    Memory,
    /// Transferred from another processor's cache.
    RemoteCache,
    /// Swapped back from the per-CPU victim cache (extension feature).
    VictimCache,
}

/// Result of one demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Stall cycles beyond the instruction's base cost.
    pub latency_cycles: u64,
    /// Final service point.
    pub serviced_by: ServicedBy,
    /// Classification when the reference missed the external cache.
    pub miss_class: Option<MissClass>,
    /// Whether the reference took a TLB fault.
    pub tlb_miss: bool,
}

/// Result of issuing a prefetch instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchOutcome {
    /// `true` if the prefetch went to the memory system; `false` when it
    /// was dropped (TLB miss, line resident, already in flight).
    pub issued: bool,
    /// Stall cycles charged to the CPU (only when all slots were busy).
    pub stall_cycles: u64,
}

/// One line's directory entry, packed into 12 bytes. A line no CPU ever
/// missed reads as the default entry: no sharers, no owner, never seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirEntry {
    /// Bitmask of CPUs holding the line.
    sharers: u32,
    /// Bitmask of CPUs that have taken a demand L2 miss on the line: a miss
    /// by any other CPU is cold. Never cleared, not even by a page flush.
    seen: u32,
    /// CPU holding the line in `Modified` state, or [`NO_OWNER`].
    owner: u8,
}

/// [`DirEntry::owner`] of a line no CPU holds dirty.
const NO_OWNER: u8 = u8::MAX;

impl Default for DirEntry {
    fn default() -> Self {
        Self {
            sharers: 0,
            seen: 0,
            owner: NO_OWNER,
        }
    }
}

impl DirEntry {
    /// CPU holding the line in `Modified` state, if any.
    fn dirty_owner(self) -> Option<CpuId> {
        (self.owner != NO_OWNER).then_some(self.owner as CpuId)
    }
}

/// The `aux` tag of an L2 way from which no L1 line was filled (a line
/// only prefetched, or just filled). It cannot be an L2-line-aligned
/// address, so such a line invalidates nothing in the L1s.
const NO_VA: u64 = u64::MAX;

/// One processor's private hierarchy. It hashes nothing: the caches index
/// by set, and the TLB and the shadow cache through the dense index of
/// their [`LruSet`](crate::lru::LruSet). The L1s keep no tag of their own:
/// each L2 way's `aux` names the virtual address of its L1 sub-lines, for
/// inclusion, and its prefetched mark feeds prefetch-hit accounting.
#[derive(Debug)]
struct CpuMem {
    l1d: Cache,
    l1i: Cache,
    l2: Cache,
    /// Keyed by virtual page number.
    tlb: Tlb,
    /// Keyed by L2-line number.
    shadow: ShadowCache,
    /// Outstanding prefetches, at most `max_outstanding_prefetches`.
    prefetches: InFlight,
    stats: CpuStats,
    victim: Option<VictimCache>,
}

/// The complete multiprocessor memory system.
///
/// Generic over a [`Probe`] receiving fine-grained events (misses, bus
/// transactions, TLB misses, prefetch activity). The default [`NullProbe`]
/// has empty inlined callbacks, so uninstrumented use —
/// [`MemorySystem::new`] — compiles to the same code as before probes
/// existed.
#[derive(Debug)]
pub struct MemorySystem<P: Probe = NullProbe> {
    cfg: MemConfig,
    cpus: Vec<CpuMem>,
    bus: Bus,
    sharing: SharingTracker,
    /// L2-line number → sharers and dirty owner, in chunks of one page of
    /// lines; see [`dir`](Self::dir).
    directory: DenseMap64<DirEntry>,
    probe: P,
    /// Virtual-range → array-id tags for miss attribution. Empty (the
    /// default) disables [`Probe::on_classified_miss`] emission entirely,
    /// so untagged systems pay nothing.
    regions: RegionMap,
    /// Page colors of the external cache
    /// (`l2_size / (page_size × associativity)`), for pa → color.
    num_colors: u32,
    /// Bus occupancy of one L2-line transfer (fill or writeback), in
    /// cycles.
    line_bus_cycles: u64,
    /// Bus occupancy of an upgrade, in cycles.
    upgrade_bus_cycles: u64,
    /// Demand references plus issued prefetches over the system's whole
    /// life — unlike [`CpuStats`], *not* cleared by
    /// [`reset_stats`](Self::reset_stats). This is the denominator-free
    /// "simulation work done" counter behind wall-clock refs/sec.
    lifetime_refs: u64,
}

/// Most processors a [`MemorySystem`] models: the directory keeps each
/// line's sharers in a 32-bit mask. The paper simulates at most 16.
pub const MAX_CPUS: usize = 32;

impl MemorySystem {
    /// Builds the memory system described by `cfg`, with probing disabled.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_cpus` is zero or exceeds 32 (the directory uses a
    /// 32-bit sharer mask; the paper simulates at most 16).
    pub fn new(cfg: MemConfig) -> Self {
        Self::with_probe(cfg, NullProbe)
    }
}

impl<P: Probe> MemorySystem<P> {
    /// Builds the memory system described by `cfg`, delivering events to
    /// `probe`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_cpus` is zero or exceeds 32 (the directory uses a
    /// 32-bit sharer mask; the paper simulates at most 16), or if
    /// `cfg.max_outstanding_prefetches` is zero.
    pub fn with_probe(cfg: MemConfig, probe: P) -> Self {
        assert!(
            (1..=MAX_CPUS).contains(&cfg.num_cpus),
            "1..={MAX_CPUS} CPUs supported"
        );
        assert!(
            cfg.max_outstanding_prefetches > 0,
            "at least one prefetch slot is required"
        );
        // Line-number-indexed tables allocate one page of lines at a time.
        let page_lines = (cfg.page_size / cfg.l2.line_bytes())
            .max(1)
            .next_power_of_two();
        let cpus = (0..cfg.num_cpus)
            .map(|_| CpuMem {
                l1d: Cache::new(cfg.l1d),
                l1i: Cache::new(cfg.l1i),
                l2: Cache::new(cfg.l2),
                tlb: Tlb::new(cfg.tlb_entries),
                shadow: ShadowCache::new(cfg.l2.num_lines(), page_lines),
                prefetches: InFlight::default(),
                stats: CpuStats::default(),
                victim: (cfg.victim_cache_lines > 0).then(|| {
                    VictimCache::new(cfg.victim_cache_lines, cfg.l2.line_shift(), page_lines)
                }),
            })
            .collect();
        // `ColorSpace` semantics (l2 / (page × assoc)), but degenerate
        // caches smaller than a page — common in unit tests — get one
        // color instead of a panic.
        let num_colors =
            (cfg.l2.size_bytes() / (cfg.page_size * cfg.l2.associativity())).max(1) as u32;
        let line_bus_cycles = cfg.bus_occupancy_cycles(cfg.l2.line_bytes() as u64);
        let upgrade_bus_cycles = cfg.bus_occupancy_cycles(cfg.upgrade_bus_bytes);
        Self {
            cfg,
            cpus,
            bus: Bus::new(),
            sharing: SharingTracker::new(),
            directory: DenseMap64::new(page_lines, DirEntry::default()),
            probe,
            regions: RegionMap::default(),
            num_colors,
            line_bus_cycles,
            upgrade_bus_cycles,
            lifetime_refs: 0,
        }
    }

    /// Installs the virtual-range → array-id map that turns anonymous L2
    /// misses into attributed [`Probe::on_classified_miss`] events. The
    /// run loop threads the compiler's layout down through this call;
    /// without it (or with an empty map) no attribution events fire.
    pub fn set_regions(&mut self, regions: RegionMap) {
        self.regions = regions;
    }

    /// The page color of physical address `pa` — the cache bin its page
    /// occupies in the external cache.
    #[inline]
    pub fn color_of_pa(&self, pa: u64) -> u32 {
        (pa / self.cfg.page_size as u64 % self.num_colors as u64) as u32
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// The attached probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// The attached probe, mutably (for draining buffered events).
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Consumes the system, returning the probe (and its buffers).
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Demand references plus issued prefetches over the system's whole
    /// life (never reset).
    pub fn lifetime_refs(&self) -> u64 {
        self.lifetime_refs
    }

    /// Snapshot of all statistics.
    pub fn stats(&self) -> MemStats {
        MemStats {
            cpus: self.cpus.iter().map(|c| c.stats.clone()).collect(),
            bus_occupancy: self.bus.occupancy_cycles(),
            bus_transactions: self.bus.transactions(),
        }
    }

    /// Resets all statistics counters (cache/TLB/directory *state* is
    /// preserved). Used to discard warm-up phases, mirroring the paper's
    /// practice of discarding the first detailed-simulation phases.
    pub fn reset_stats(&mut self) {
        for c in &mut self.cpus {
            c.stats = CpuStats::default();
        }
        self.bus = Bus::new();
    }

    /// The directory entry of the L2 line at `line_addr`.
    #[inline]
    fn dir(&self, line_addr: u64) -> DirEntry {
        self.directory.get(line_addr >> self.cfg.l2.line_shift())
    }

    #[inline]
    fn set_dir(&mut self, line_addr: u64, entry: DirEntry) {
        self.directory
            .set(line_addr >> self.cfg.l2.line_shift(), entry);
    }

    #[inline]
    fn sub_block_of(&self, pa: u64) -> u32 {
        ((pa & (self.cfg.l2.line_bytes() as u64 - 1)) >> self.cfg.l1d.line_shift()) as u32
    }

    /// The virtual page number of `va`. Pages are practically always a
    /// power of two, turning the division into a shift on the hot path.
    #[inline]
    fn vpn_of(&self, va: u64) -> Vpn {
        let page = self.cfg.page_size as u64;
        if page.is_power_of_two() {
            Vpn(va >> page.trailing_zeros())
        } else {
            Vpn(va / page)
        }
    }

    /// Performs one demand reference by `cpu` at local time `now`.
    ///
    /// `va` decides L1 indexing and the TLB page; `pa` decides L2 indexing,
    /// coherence, and (through the page mapping that produced it) cache
    /// conflicts.
    pub fn access(
        &mut self,
        cpu: CpuId,
        now: u64,
        va: VirtAddr,
        pa: PhysAddr,
        kind: AccessKind,
    ) -> AccessOutcome {
        self.lifetime_refs += 1;
        let is_ifetch = kind == AccessKind::IFetch;
        let is_write = kind == AccessKind::Write;
        if is_ifetch {
            self.cpus[cpu].stats.ifetch_refs += 1;
        } else {
            self.cpus[cpu].stats.data_refs += 1;
        }

        let mut latency = 0u64;

        // TLB.
        let vpn = self.vpn_of(va.0);
        let tlb_miss = !self.cpus[cpu].tlb.access(vpn);
        if tlb_miss {
            let penalty = self.cfg.tlb_miss_cycles();
            self.cpus[cpu].stats.tlb_misses += 1;
            self.cpus[cpu].stats.tlb_stall_cycles += penalty;
            latency += penalty;
            self.probe.on_tlb_miss(cpu, now, vpn.0);
        }
        let now = now + latency;

        // Prefetch-completion sweep, skipped entirely when nothing is in
        // flight (the common case): the sweep is a no-op then, so eliding
        // the call cannot change any state.
        if !self.cpus[cpu].prefetches.is_empty() {
            self.complete_prefetches(cpu, now);
        }

        // L1 probe. This runs before the pa-side (L2-line / sub-block)
        // arithmetic so the fast path — a read that hits the L1 — returns
        // without doing it; the arithmetic is pure, so deferring it past
        // the probe is invisible to the simulation.
        let va_line = self.cfg.l1d.line_of(va.0);
        let l1_hit = {
            let c = &mut self.cpus[cpu];
            let l1 = if is_ifetch { &mut c.l1i } else { &mut c.l1d };
            matches!(l1.probe(va_line), Lookup::Hit(_))
        };
        if l1_hit {
            self.cpus[cpu].stats.l1_hits += 1;
            if is_write {
                let pa_l2_line = self.cfg.l2.line_of(pa.0);
                let sub = self.sub_block_of(pa.0);
                latency += self.write_touch(cpu, now, pa_l2_line, sub);
            }
            return AccessOutcome {
                latency_cycles: latency,
                serviced_by: ServicedBy::L1,
                miss_class: None,
                tlb_miss,
            };
        }
        let pa_l2_line = self.cfg.l2.line_of(pa.0);
        let line_no = pa_l2_line >> self.cfg.l2.line_shift();
        let sub = self.sub_block_of(pa.0);

        // L2 probe.
        let l2_hit = self.cpus[cpu].l2.probe_demand(pa_l2_line);
        // The fully-associative shadow cache sees the same reference stream
        // as the L2 (L1 misses only), instruction lines included.
        let fa_hit = self.cpus[cpu].shadow.reference(line_no);

        if let Some((state, prefetched)) = l2_hit {
            let hit_cycles = self.cfg.l2_hit_cycles();
            latency += hit_cycles;
            let stats = &mut self.cpus[cpu].stats;
            stats.l2_hits += 1;
            stats.l2_hit_stall_cycles += hit_cycles;
            stats.prefetch_hits += prefetched as u64;
            if is_write {
                latency += self.write_touch_in_state(cpu, now, pa_l2_line, sub, state);
            }
            self.fill_l1(cpu, va.0, pa.0, is_ifetch);
            return AccessOutcome {
                latency_cycles: latency,
                serviced_by: ServicedBy::L2,
                miss_class: None,
                tlb_miss,
            };
        }

        // In-flight prefetch?
        if let Some(completion) = self.cpus[cpu].prefetches.live(pa_l2_line) {
            let wait = completion.saturating_sub(now);
            self.complete_prefetches(cpu, completion.max(now));
            let hit_cycles = self.cfg.l2_hit_cycles();
            latency += wait + hit_cycles;
            {
                let stats = &mut self.cpus[cpu].stats;
                stats.prefetch_hits += 1;
                stats.prefetch_wait_cycles += wait;
                stats.l2_hit_stall_cycles += hit_cycles;
            }
            if is_write {
                latency += self.write_touch(cpu, now + wait, pa_l2_line, sub);
            }
            self.fill_l1(cpu, va.0, pa.0, is_ifetch);
            return AccessOutcome {
                latency_cycles: latency,
                serviced_by: ServicedBy::Prefetch,
                miss_class: None,
                tlb_miss,
            };
        }

        // Victim-cache swap-back (extension feature): the line was evicted
        // recently and is still in the per-CPU victim buffer.
        let vc_state = self.cpus[cpu]
            .victim
            .as_mut()
            .and_then(|vc| vc.take(pa_l2_line));
        if let Some(state) = vc_state {
            let swap_cycles = 2 * self.cfg.l2_hit_cycles();
            latency += swap_cycles;
            {
                let stats = &mut self.cpus[cpu].stats;
                stats.victim_hits += 1;
                stats.l2_hit_stall_cycles += swap_cycles;
            }
            self.fill_l2(cpu, now, pa_l2_line, state);
            if is_write {
                latency += self.write_touch(cpu, now, pa_l2_line, sub);
            }
            self.fill_l1(cpu, va.0, pa.0, is_ifetch);
            return AccessOutcome {
                latency_cycles: latency,
                serviced_by: ServicedBy::VictimCache,
                miss_class: None,
                tlb_miss,
            };
        }

        // Full external-cache miss. Classify first (coherence beats
        // replacement; cold only when the CPU never missed the line).
        let mut entry = self.dir(pa_l2_line);
        let class = if let Some(c) = self.sharing.classify_refetch(pa_l2_line, cpu, sub) {
            c
        } else if entry.seen & (1 << cpu) == 0 {
            MissClass::Cold
        } else if fa_hit {
            MissClass::Conflict
        } else {
            MissClass::Capacity
        };
        entry.seen |= 1 << cpu;
        self.set_dir(pa_l2_line, entry);

        let (service_latency, serviced_by, fill_state) =
            self.service_miss(cpu, now, pa_l2_line, sub, is_write);
        latency += service_latency;

        self.fill_l2(cpu, now, pa_l2_line, fill_state);
        if is_write {
            self.sharing.on_write(pa_l2_line, cpu, sub);
        }
        self.fill_l1(cpu, va.0, pa.0, is_ifetch);

        {
            let stats = &mut self.cpus[cpu].stats;
            stats.misses.add(class, 1);
            stats.miss_stall_cycles.add(class, service_latency);
        }
        self.probe
            .on_l2_miss(cpu, now, class.into(), service_latency);
        if !self.regions.is_empty() {
            let array_id = self
                .regions
                .lookup(va)
                .unwrap_or(cdpc_obs::ATTR_OTHER_ARRAY);
            let color = self.color_of_pa(pa.0);
            self.probe
                .on_classified_miss(cpu, now, array_id, color, class.into(), service_latency);
        }

        AccessOutcome {
            latency_cycles: latency,
            serviced_by,
            miss_class: Some(class),
            tlb_miss,
        }
    }

    /// Issues a prefetch for the line containing `va`/`pa`.
    ///
    /// `exclusive` requests ownership (prefetch-for-write). Follows the
    /// R10000 rules: dropped on TLB miss or residency, the fifth outstanding
    /// prefetch stalls.
    pub fn prefetch(
        &mut self,
        cpu: CpuId,
        now: u64,
        va: VirtAddr,
        pa: PhysAddr,
        exclusive: bool,
    ) -> PrefetchOutcome {
        let vpn = self.vpn_of(va.0);
        let pa_l2_line = self.cfg.l2.line_of(pa.0);
        if !self.cpus[cpu].tlb.probe(vpn) {
            self.cpus[cpu].stats.prefetches_dropped_tlb += 1;
            self.probe
                .on_prefetch_dropped(cpu, now, pa_l2_line, PrefetchDropReason::TlbMiss);
            return PrefetchOutcome {
                issued: false,
                stall_cycles: 0,
            };
        }
        self.complete_prefetches(cpu, now);
        let resident = matches!(self.cpus[cpu].l2.peek(pa_l2_line), Lookup::Hit(_))
            || self.cpus[cpu].prefetches.live(pa_l2_line).is_some()
            || self.cpus[cpu]
                .victim
                .as_ref()
                .is_some_and(|vc| vc.contains(pa_l2_line));
        if resident {
            self.cpus[cpu].stats.prefetches_dropped_resident += 1;
            self.probe
                .on_prefetch_dropped(cpu, now, pa_l2_line, PrefetchDropReason::Resident);
            return PrefetchOutcome {
                issued: false,
                stall_cycles: 0,
            };
        }
        self.lifetime_refs += 1;
        let issue_at = self.cpus[cpu]
            .prefetches
            .slot_free_at(now, self.cfg.max_outstanding_prefetches);
        let stall_cycles = issue_at - now;
        self.complete_prefetches(cpu, issue_at);
        let sub = self.sub_block_of(pa.0);
        let (service_latency, _serviced_by, fill_state) =
            self.service_miss(cpu, issue_at, pa_l2_line, sub, exclusive);
        let c = &mut self.cpus[cpu];
        c.prefetches
            .push(issue_at + service_latency, pa_l2_line, fill_state);
        c.stats.prefetches_issued += 1;
        c.stats.prefetch_slot_stall_cycles += stall_cycles;
        self.probe
            .on_prefetch_issued(cpu, issue_at, pa_l2_line, stall_cycles);
        PrefetchOutcome {
            issued: true,
            stall_cycles,
        }
    }

    /// Invalidates a TLB entry on all CPUs (page unmapped or recolored).
    pub fn shoot_down_tlb(&mut self, vpn: Vpn) {
        for c in &mut self.cpus {
            c.tlb.invalidate(vpn);
        }
    }

    /// Flushes every cached or in-flight line of one physical page from
    /// every processor's hierarchy (the cache side of a page recoloring or
    /// unmap). Dirty lines are written back over the bus at time `now`.
    pub fn flush_physical_page(&mut self, now: u64, page_base: PhysAddr) {
        let line = self.cfg.l2.line_bytes() as u64;
        let page = self.cfg.page_size as u64;
        debug_assert_eq!(page_base.0 % page, 0, "page base must be aligned");
        for k in 0..(page / line) {
            let line_addr = page_base.0 + k * line;
            for cpu in 0..self.cfg.num_cpus {
                // The copy may live in the L2 proper or (after an eviction)
                // in the victim buffer, which retains directory rights.
                let held = match self.cpus[cpu].l2.peek(line_addr) {
                    Lookup::Hit(state) => Some(state),
                    Lookup::Miss => self.cpus[cpu]
                        .victim
                        .as_mut()
                        .and_then(|vc| vc.take(line_addr)),
                };
                if let Some(state) = held {
                    if state == Mesi::Modified {
                        self.bus_request(now, self.line_bus_cycles, BusUse::Writeback);
                    }
                    self.drop_line(cpu, line_addr);
                } else if self.cpus[cpu].prefetches.cancel(line_addr) {
                    self.probe.on_line_state(cpu, line_addr, LineState::Invalid);
                }
            }
            let entry = DirEntry {
                seen: self.dir(line_addr).seen,
                ..DirEntry::default()
            };
            self.set_dir(line_addr, entry);
        }
        self.probe.on_page_flush(page_base.0, page);
    }

    /// Checks the global coherence invariants; panics with a description on
    /// the first violation. O(cache lines); intended for tests and
    /// debugging, not the simulation fast path.
    ///
    /// Invariants:
    /// 1. every resident L2 line appears in the directory with that CPU's
    ///    sharer bit set;
    /// 2. a `Modified` line is the directory's dirty owner and the only
    ///    sharer;
    /// 3. when two or more CPUs share a line, every copy is `Shared`;
    /// 4. every directory sharer bit corresponds to a resident or
    ///    in-flight-prefetch line.
    ///
    /// # Panics
    ///
    /// Panics when any invariant is violated.
    pub fn validate_coherence(&self) {
        for (cpu, c) in self.cpus.iter().enumerate() {
            let vc_lines = c.victim.as_ref().into_iter().flat_map(|v| v.iter());
            for (line, state) in c.l2.resident().chain(vc_lines) {
                let entry = self.dir(line);
                assert!(
                    entry.sharers & (1 << cpu) != 0,
                    "cpu{cpu} holds {line:#x} without its sharer bit"
                );
                match state {
                    Mesi::Modified => {
                        assert_eq!(
                            entry.dirty_owner(),
                            Some(cpu),
                            "modified {line:#x} in cpu{cpu} but directory owner is {:?}",
                            entry.dirty_owner()
                        );
                        assert_eq!(
                            entry.sharers,
                            1 << cpu,
                            "modified {line:#x} has other sharers: {:#x}",
                            entry.sharers
                        );
                    }
                    Mesi::Exclusive => {
                        assert_eq!(
                            entry.sharers,
                            1 << cpu,
                            "exclusive {line:#x} has other sharers: {:#x}",
                            entry.sharers
                        );
                    }
                    Mesi::Shared => {
                        assert_ne!(
                            entry.dirty_owner(),
                            Some(cpu),
                            "shared {line:#x} cannot be the dirty owner"
                        );
                    }
                }
            }
        }
        for (line_no, entry) in self.directory.iter() {
            let line = line_no << self.cfg.l2.line_shift();
            for cpu in 0..self.cfg.num_cpus {
                if entry.sharers & (1 << cpu) != 0 {
                    let resident = matches!(self.cpus[cpu].l2.peek(line), Lookup::Hit(_));
                    let in_flight = self.cpus[cpu].prefetches.live(line).is_some();
                    let in_vc = self.cpus[cpu]
                        .victim
                        .as_ref()
                        .is_some_and(|vc| vc.contains(line));
                    assert!(
                        resident || in_flight || in_vc,
                        "directory says cpu{cpu} shares {line:#x} but it holds nothing"
                    );
                }
            }
        }
    }

    // --- internals -------------------------------------------------------

    /// Requests the bus and reports the transaction to the probe.
    fn bus_request(
        &mut self,
        now: u64,
        occupancy_cycles: u64,
        use_: BusUse,
    ) -> crate::bus::BusGrant {
        let grant = self.bus.request(now, occupancy_cycles, use_);
        self.probe
            .on_bus_transaction(now, use_.into(), grant.queue_cycles, grant.occupancy_cycles);
        grant
    }

    /// Handles the coherence side of a write that hits the local hierarchy:
    /// upgrades a `Shared` line, silently dirties an `Exclusive` one, and
    /// feeds the sharing tracker. Returns extra stall cycles.
    fn write_touch(&mut self, cpu: CpuId, now: u64, pa_l2_line: u64, sub: u32) -> u64 {
        let state = self.cpus[cpu]
            .l2
            .peek(pa_l2_line)
            .state()
            .expect("inclusion: every line in a CPU's L1s is also in its L2");
        self.write_touch_in_state(cpu, now, pa_l2_line, sub, state)
    }

    /// [`write_touch`](Self::write_touch) for a caller that has already
    /// probed the L2 and knows the line's state — skips the second probe.
    fn write_touch_in_state(
        &mut self,
        cpu: CpuId,
        now: u64,
        pa_l2_line: u64,
        sub: u32,
        state: Mesi,
    ) -> u64 {
        let mut extra = 0;
        if state.needs_upgrade_for_write() {
            let grant = self.bus_request(now, self.upgrade_bus_cycles, BusUse::Upgrade);
            extra += grant.total_cycles();
            self.cpus[cpu].stats.upgrade_stall_cycles += grant.total_cycles();
            self.invalidate_other_copies(cpu, pa_l2_line, sub);
            self.cpus[cpu].l2.set_state(pa_l2_line, Mesi::Modified);
            let entry = DirEntry {
                sharers: 1 << cpu,
                owner: cpu as u8,
                ..self.dir(pa_l2_line)
            };
            self.set_dir(pa_l2_line, entry);
            self.probe
                .on_line_state(cpu, pa_l2_line, LineState::Modified);
        } else if state == Mesi::Exclusive {
            self.cpus[cpu].l2.set_state(pa_l2_line, Mesi::Modified);
            let mut entry = self.dir(pa_l2_line);
            entry.owner = cpu as u8;
            self.set_dir(pa_l2_line, entry);
            self.probe
                .on_line_state(cpu, pa_l2_line, LineState::Modified);
        }
        self.sharing.on_write(pa_l2_line, cpu, sub);
        extra
    }

    /// Invalidates every other CPU's copy of a line (write miss or
    /// upgrade), recording sharing-tracker victims.
    fn invalidate_other_copies(&mut self, cpu: CpuId, pa_l2_line: u64, sub: u32) {
        let entry = self.dir(pa_l2_line);
        for victim in 0..self.cfg.num_cpus {
            if victim == cpu || entry.sharers & (1 << victim) == 0 {
                continue;
            }
            self.drop_line(victim, pa_l2_line);
            self.sharing.on_invalidate(pa_l2_line, victim, sub);
        }
    }

    /// Removes a line from one CPU's L2, L1s, shadow cache and victim
    /// buffer, and cancels its in-flight prefetch (coherence invalidation).
    fn drop_line(&mut self, cpu: CpuId, pa_l2_line: u64) {
        self.probe
            .on_line_state(cpu, pa_l2_line, LineState::Invalid);
        let line_no = pa_l2_line >> self.cfg.l2.line_shift();
        let c = &mut self.cpus[cpu];
        let dropped = c.l2.invalidate(pa_l2_line);
        c.shadow.invalidate(line_no);
        c.prefetches.cancel(pa_l2_line);
        if let Some(vc) = c.victim.as_mut() {
            vc.invalidate(pa_l2_line);
        }
        // A line held only in the victim buffer or in flight has no L1
        // sub-lines: they went when it left (or never reached) the L2.
        if let Some(dropped) = dropped {
            self.invalidate_l1_sublines(cpu, dropped.aux);
        }
    }

    /// Inclusion: invalidates, in both L1s, the sub-lines of an L2 line
    /// whose way was tagged with virtual address `va_l2_line` (nothing for
    /// [`NO_VA`]).
    fn invalidate_l1_sublines(&mut self, cpu: CpuId, va_l2_line: u64) {
        if va_l2_line == NO_VA {
            return;
        }
        let l1_line = self.cfg.l1d.line_bytes() as u64;
        let c = &mut self.cpus[cpu];
        for va_sub in
            (va_l2_line..va_l2_line + self.cfg.l2.line_bytes() as u64).step_by(l1_line as usize)
        {
            c.l1d.invalidate(va_sub);
            c.l1i.invalidate(va_sub);
        }
    }

    /// Decides where a miss is serviced, performs the coherence actions and
    /// the bus transaction, and returns `(latency, source, fill state)`.
    fn service_miss(
        &mut self,
        cpu: CpuId,
        now: u64,
        pa_l2_line: u64,
        sub: u32,
        for_write: bool,
    ) -> (u64, ServicedBy, Mesi) {
        let entry = self.dir(pa_l2_line);
        let others = entry.sharers & !(1u32 << cpu);
        let (base, source) = match entry.dirty_owner() {
            Some(owner) if owner != cpu => {
                // Cache-to-cache transfer.
                if for_write {
                    self.drop_line(owner, pa_l2_line);
                    self.sharing.on_invalidate(pa_l2_line, owner, sub);
                } else {
                    let downgraded = self.cpus[owner].l2.set_state(pa_l2_line, Mesi::Shared)
                        // The owner's copy may live in its victim cache.
                        || self.cpus[owner]
                            .victim
                            .as_mut()
                            .is_some_and(|vc| vc.set_state(pa_l2_line, Mesi::Shared));
                    if downgraded {
                        self.probe
                            .on_line_state(owner, pa_l2_line, LineState::Shared);
                    }
                }
                (self.cfg.remote_latency_cycles(), ServicedBy::RemoteCache)
            }
            _ => {
                if for_write && others != 0 {
                    self.invalidate_other_copies(cpu, pa_l2_line, sub);
                } else if !for_write && others != 0 {
                    // Snooping read: clean Exclusive copies downgrade to
                    // Shared so a later write by their owner pays an
                    // upgrade.
                    for other in 0..self.cfg.num_cpus {
                        if other == cpu || others & (1 << other) == 0 {
                            continue;
                        }
                        let downgraded = self.cpus[other].l2.set_state(pa_l2_line, Mesi::Shared)
                            || self.cpus[other]
                                .victim
                                .as_mut()
                                .is_some_and(|vc| vc.set_state(pa_l2_line, Mesi::Shared));
                        if downgraded {
                            self.probe
                                .on_line_state(other, pa_l2_line, LineState::Shared);
                        }
                    }
                }
                (self.cfg.mem_latency_cycles(), ServicedBy::Memory)
            }
        };
        let grant = self.bus_request(now, self.line_bus_cycles, BusUse::Data);
        let latency = base + grant.queue_cycles;

        let mut entry = self.dir(pa_l2_line);
        let fill_state = if for_write {
            entry.sharers = 1 << cpu;
            entry.owner = cpu as u8;
            Mesi::Modified
        } else if entry.sharers & !(1u32 << cpu) != 0 || entry.owner != NO_OWNER {
            entry.sharers |= 1 << cpu;
            entry.owner = NO_OWNER;
            Mesi::Shared
        } else {
            entry.sharers |= 1 << cpu;
            entry.owner = NO_OWNER;
            Mesi::Exclusive
        };
        self.set_dir(pa_l2_line, entry);
        (latency, source, fill_state)
    }

    /// Installs a line in `cpu`'s L2 (tagged [`NO_VA`] until
    /// [`fill_l1`](Self::fill_l1) fills an L1 from it), handling the victim.
    fn fill_l2(&mut self, cpu: CpuId, now: u64, pa_l2_line: u64, state: Mesi) {
        self.probe.on_line_state(cpu, pa_l2_line, state.into());
        if let Some(evicted) = self.cpus[cpu].l2.fill_tagged(pa_l2_line, state, NO_VA) {
            self.handle_l2_eviction(cpu, now, evicted);
        }
    }

    fn handle_l2_eviction(&mut self, cpu: CpuId, now: u64, evicted: Evicted) {
        let Evicted {
            line_addr: victim_line,
            state,
            aux: va_l2_line,
            ..
        } = evicted;
        // With a victim cache, the line stays on this CPU (directory
        // rights included); only a line falling out of the victim buffer
        // is truly released.
        if self.cpus[cpu].victim.is_some() {
            let pushed_out = self.cpus[cpu]
                .victim
                .as_mut()
                .expect("checked above")
                .insert(victim_line, state);
            self.invalidate_l1_sublines(cpu, va_l2_line);
            if let Some(out) = pushed_out {
                self.release_line(cpu, now, out.line_addr, out.dirty);
            }
            return;
        }
        self.release_line(cpu, now, victim_line, state == Mesi::Modified);
        self.invalidate_l1_sublines(cpu, va_l2_line);
    }

    /// Fully releases a line from this CPU: write back if dirty, clear
    /// directory rights.
    fn release_line(&mut self, cpu: CpuId, now: u64, line: u64, dirty: bool) {
        self.probe.on_line_state(cpu, line, LineState::Invalid);
        if dirty {
            self.bus_request(now, self.line_bus_cycles, BusUse::Writeback);
        }
        let mut entry = self.dir(line);
        entry.sharers &= !(1u32 << cpu);
        if entry.owner == cpu as u8 || entry.sharers == 0 {
            entry.owner = NO_OWNER;
        }
        self.set_dir(line, entry);
    }

    /// Fills the L1 line of `va` after an L1 miss that the L2 (or a
    /// prefetch or the victim buffer) served, and tags the L2 way with the
    /// virtual address of its line for [`invalidate_l1_sublines`].
    ///
    /// [`invalidate_l1_sublines`]: Self::invalidate_l1_sublines
    fn fill_l1(&mut self, cpu: CpuId, va: u64, pa: u64, is_ifetch: bool) {
        let va_line = self.cfg.l1d.line_of(va);
        let pa_l2_line = self.cfg.l2.line_of(pa);
        let c = &mut self.cpus[cpu];
        c.l2.set_aux(pa_l2_line, va - (pa - pa_l2_line));
        let l1 = if is_ifetch { &mut c.l1i } else { &mut c.l1d };
        l1.fill(va_line, Mesi::Exclusive);
    }

    /// Retires every prefetch completed by `now`, earliest first (ties by
    /// line address), filling the L2 from each one not cancelled.
    fn complete_prefetches(&mut self, cpu: CpuId, now: u64) {
        while let Some(done) = self.cpus[cpu].prefetches.pop_due(now) {
            // A cancelled prefetch only held its slot.
            let Some(recorded) = done.state else {
                continue;
            };
            let line = done.line;
            // A racing invalidation may have removed the entry's directory
            // rights; only fill if we still appear as a sharer. The fill
            // state is re-derived from the directory: another CPU may have
            // read the line while it was in flight, downgrading an
            // exclusive prefetch's recorded `Modified` to `Shared`.
            let e = self.dir(line);
            let state = if e.sharers & (1 << cpu) == 0 {
                // Rights were revoked while in flight: report the
                // discarded claim so shadow trackers stay exact.
                self.probe.on_line_state(cpu, line, LineState::Invalid);
                continue;
            } else if e.dirty_owner() == Some(cpu) {
                Mesi::Modified
            } else if e.sharers == 1 << cpu {
                match recorded {
                    // Sole sharer but no longer dirty owner: ownership was
                    // stripped while in flight; the copy arrives clean.
                    Mesi::Modified => Mesi::Exclusive,
                    s => s,
                }
            } else {
                Mesi::Shared
            };
            if !matches!(self.cpus[cpu].l2.peek(line), Lookup::Hit(_)) {
                self.fill_l2(cpu, done.completion, line, state);
                self.cpus[cpu].l2.mark_prefetched(line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(cpus: usize) -> MemConfig {
        let mut c = MemConfig::paper_base(cpus);
        // Shrink caches so tests exercise evictions quickly:
        // L1: 256 B (2-way, 32 B lines); L2: 1 KB direct-mapped, 128 B lines.
        c.l1d = crate::config::CacheConfig::new(256, 32, 2);
        c.l1i = crate::config::CacheConfig::new(256, 32, 2);
        c.l2 = crate::config::CacheConfig::new(1024, 128, 1);
        c.tlb_entries = 4;
        c
    }

    fn va(x: u64) -> VirtAddr {
        VirtAddr(x)
    }

    fn pa(x: u64) -> PhysAddr {
        PhysAddr(x)
    }

    #[test]
    fn first_access_is_cold_from_memory() {
        let mut m = MemorySystem::new(small_cfg(1));
        let out = m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Read);
        assert_eq!(out.serviced_by, ServicedBy::Memory);
        assert_eq!(out.miss_class, Some(MissClass::Cold));
        assert!(out.tlb_miss);
        assert!(out.latency_cycles >= m.config().mem_latency_cycles());
    }

    #[test]
    fn second_access_hits_l1() {
        let mut m = MemorySystem::new(small_cfg(1));
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Read);
        let out = m.access(0, 1000, va(0x1000), pa(0x1000), AccessKind::Read);
        assert_eq!(out.serviced_by, ServicedBy::L1);
        assert_eq!(out.latency_cycles, 0);
    }

    #[test]
    fn l1_conflict_still_hits_l2() {
        let mut m = MemorySystem::new(small_cfg(1));
        // Three VAs mapping to the same L1 set (stride 256 = L1 size /
        // assoc... set stride is 4 sets * 32 B = 128 B; use stride 256 so
        // they share a set in the 2-way L1) but the same 128 B L2 line? No —
        // pick same page, different L2 lines that alias in L1.
        m.access(0, 0, va(0x0000), pa(0x0000), AccessKind::Read);
        m.access(0, 10, va(0x0100), pa(0x0100), AccessKind::Read);
        m.access(0, 20, va(0x0200), pa(0x0200), AccessKind::Read);
        // 0x0000 evicted from 2-way L1 set; L2 (1 KB) still holds it.
        let out = m.access(0, 5000, va(0x0000), pa(0x0000), AccessKind::Read);
        assert_eq!(out.serviced_by, ServicedBy::L2);
        assert_eq!(out.miss_class, None);
    }

    #[test]
    fn unused_prefetch_eviction_leaves_l1_at_va_zero() {
        let mut m = MemorySystem::new(small_cfg(1));
        // The four L1 lines at VA 0..128, from L2 line pa 0x2000 (set 0).
        for off in (0..128).step_by(32) {
            m.access(0, 0, va(off), pa(0x2000 + off), AccessKind::Read);
        }
        // Map page 1 in the TLB (L2 set 2), then prefetch pa 0x3080
        // (L2 set 1), which arrives tagged with no virtual address.
        m.access(0, 100, va(0x1100), pa(0x3100), AccessKind::Read);
        assert!(m.prefetch(0, 200, va(0x1080), pa(0x3080), false).issued);
        // Long after it arrives, a demand miss to pa 0x3480 (L2 set 1,
        // L1 set 1) evicts the prefetched line before any demand use.
        m.access(0, 100_000, va(0x14a0), pa(0x34a0), AccessKind::Read);
        assert_eq!(m.cpus[0].l2.peek(0x3080), Lookup::Miss, "prefetch evicted");
        assert_eq!(m.stats().cpus[0].prefetch_hits, 0);
        // Tagging it with VA 0 instead would have invalidated these.
        for off in (0..128).step_by(32) {
            let out = m.access(0, 200_000, va(off), pa(0x2000 + off), AccessKind::Read);
            assert_eq!(out.serviced_by, ServicedBy::L1, "L1 line at VA {off:#x}");
        }
    }

    #[test]
    fn l2_conflict_miss_classified() {
        let mut m = MemorySystem::new(small_cfg(1));
        // L2 is 1 KB direct-mapped: pa 0x0000 and 0x0400 collide, and the
        // shadow (8 lines) retains both → conflict.
        m.access(0, 0, va(0x0000), pa(0x0000), AccessKind::Read);
        m.access(0, 10, va(0x0400), pa(0x0400), AccessKind::Read);
        let out = m.access(0, 5000, va(0x0000), pa(0x0000), AccessKind::Read);
        assert_eq!(out.miss_class, Some(MissClass::Conflict));
    }

    #[test]
    fn l2_capacity_miss_classified() {
        let mut m = MemorySystem::new(small_cfg(1));
        // Touch 16 distinct L2 lines (cache holds 8): the oldest is gone
        // from the shadow too → capacity.
        for i in 0..16u64 {
            m.access(0, i * 100, va(i * 128), pa(i * 128), AccessKind::Read);
        }
        let out = m.access(0, 100_000, va(0), pa(0), AccessKind::Read);
        assert_eq!(out.miss_class, Some(MissClass::Capacity));
    }

    #[test]
    fn page_color_determines_conflicts() {
        // The whole point of the paper: same VAs, different physical
        // mapping → different conflict behaviour.
        let mut cfg = small_cfg(1);
        cfg.l2 = crate::config::CacheConfig::new(8192, 128, 1); // 2 pages
                                                                // Conflicting mapping: two pages, same color (pa 0 and 8192).
        let mut m = MemorySystem::new(cfg.clone());
        m.access(0, 0, va(0), pa(0), AccessKind::Read);
        m.access(0, 10, va(4096), pa(8192), AccessKind::Read);
        let out = m.access(0, 20, va(0), pa(0), AccessKind::Read);
        // pa 0 and 8192 share set 0 in an 8 KB direct-mapped cache... they
        // differ: 8192 % 8192 = 0 → same set. Conflict.
        assert_eq!(out.miss_class, Some(MissClass::Conflict));

        // Friendly mapping: pa 0 and 4096 (different halves of the cache).
        let mut m = MemorySystem::new(cfg);
        m.access(0, 0, va(0), pa(0), AccessKind::Read);
        m.access(0, 10, va(4096), pa(4096), AccessKind::Read);
        let out = m.access(0, 20, va(0), pa(0), AccessKind::Read);
        assert_eq!(out.serviced_by, ServicedBy::L1, "no conflict: still cached");
    }

    #[test]
    fn remote_dirty_line_serviced_cache_to_cache() {
        let mut m = MemorySystem::new(small_cfg(2));
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Write);
        let out = m.access(1, 1000, va(0x1000), pa(0x1000), AccessKind::Read);
        assert_eq!(out.serviced_by, ServicedBy::RemoteCache);
        // First access by CPU 1 → cold, even though it's communication-ish.
        assert_eq!(out.miss_class, Some(MissClass::Cold));
        assert!(out.latency_cycles >= m.config().remote_latency_cycles());
    }

    #[test]
    fn invalidation_then_refetch_is_true_sharing() {
        let mut m = MemorySystem::new(small_cfg(2));
        // CPU1 reads the line, CPU0 writes sub-block 0, CPU1 re-reads
        // sub-block 0 → true sharing.
        m.access(1, 0, va(0x1000), pa(0x1000), AccessKind::Read);
        m.access(0, 100, va(0x1000), pa(0x1000), AccessKind::Write);
        let out = m.access(1, 10_000, va(0x1000), pa(0x1000), AccessKind::Read);
        assert_eq!(out.miss_class, Some(MissClass::TrueSharing));
    }

    #[test]
    fn disjoint_subblocks_are_false_sharing() {
        let mut m = MemorySystem::new(small_cfg(2));
        // CPU1 reads sub-block 1 (offset 32); CPU0 writes sub-block 0;
        // CPU1 re-reads sub-block 1 → false sharing.
        m.access(1, 0, va(0x1020), pa(0x1020), AccessKind::Read);
        m.access(0, 100, va(0x1000), pa(0x1000), AccessKind::Write);
        let out = m.access(1, 10_000, va(0x1020), pa(0x1020), AccessKind::Read);
        assert_eq!(out.miss_class, Some(MissClass::FalseSharing));
    }

    #[test]
    fn write_to_shared_line_pays_upgrade() {
        let mut m = MemorySystem::new(small_cfg(2));
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Read);
        m.access(1, 100, va(0x1000), pa(0x1000), AccessKind::Read);
        // Both now share the line; CPU0 writes → upgrade.
        let before = m.stats().cpus[0].upgrade_stall_cycles;
        m.access(0, 10_000, va(0x1000), pa(0x1000), AccessKind::Write);
        let after = m.stats().cpus[0].upgrade_stall_cycles;
        assert!(after > before, "upgrade must cost bus time");
        let (_, _, upgrades) = m.stats().bus_occupancy;
        assert!(upgrades > 0);
    }

    #[test]
    fn bus_contention_delays_misses() {
        let mut cfg = small_cfg(4);
        cfg.bus_bytes_per_us = 100; // starve the bus
        let mut m = MemorySystem::new(cfg);
        // Four CPUs miss at the same instant; later grants queue.
        let lat: Vec<u64> = (0..4)
            .map(|c| {
                m.access(
                    c,
                    0,
                    va(0x1000 * (c as u64 + 1)),
                    pa(0x1000 * (c as u64 + 1)),
                    AccessKind::Read,
                )
                .latency_cycles
            })
            .collect();
        assert!(lat[3] > lat[0], "queued miss must be slower: {lat:?}");
    }

    #[test]
    fn prefetch_hides_miss_latency() {
        let mut m = MemorySystem::new(small_cfg(1));
        // Map the page in the TLB first (prefetches are dropped otherwise).
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Read);
        let pf = m.prefetch(0, 100, va(0x1080), pa(0x1080), false);
        assert!(pf.issued);
        // Access long after the prefetch completed: L2 hit.
        let out = m.access(0, 100_000, va(0x1080), pa(0x1080), AccessKind::Read);
        assert_eq!(out.serviced_by, ServicedBy::L2);
        assert_eq!(out.miss_class, None);
    }

    #[test]
    fn late_prefetch_still_saves_partial_latency() {
        let mut m = MemorySystem::new(small_cfg(1));
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Read);
        m.prefetch(0, 1000, va(0x1080), pa(0x1080), false);
        // Demand access arrives halfway through the prefetch — it waits the
        // remainder, which is less than a full miss.
        let out = m.access(0, 1100, va(0x1080), pa(0x1080), AccessKind::Read);
        assert_eq!(out.serviced_by, ServicedBy::Prefetch);
        assert!(out.latency_cycles < m.config().mem_latency_cycles());
        assert!(m.stats().cpus[0].prefetch_wait_cycles > 0);
    }

    #[test]
    fn prefetch_dropped_on_tlb_miss() {
        let mut m = MemorySystem::new(small_cfg(1));
        let pf = m.prefetch(0, 0, va(0x9000), pa(0x9000), false);
        assert!(!pf.issued);
        assert_eq!(m.stats().cpus[0].prefetches_dropped_tlb, 1);
    }

    #[test]
    fn prefetch_dropped_when_resident() {
        let mut m = MemorySystem::new(small_cfg(1));
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Read);
        let pf = m.prefetch(0, 10_000, va(0x1000), pa(0x1000), false);
        assert!(!pf.issued);
        assert_eq!(m.stats().cpus[0].prefetches_dropped_resident, 1);
    }

    #[test]
    fn fifth_outstanding_prefetch_stalls() {
        let mut cfg = small_cfg(1);
        cfg.l2 = crate::config::CacheConfig::new(4096, 128, 1);
        let mut m = MemorySystem::new(cfg);
        // Warm the TLB page.
        m.access(0, 0, va(0x0000), pa(0x0000), AccessKind::Read);
        let mut stalls = 0;
        for i in 1..=5u64 {
            let pf = m.prefetch(0, 500, va(i * 128), pa(i * 128), false);
            assert!(pf.issued);
            stalls += pf.stall_cycles;
        }
        assert!(stalls > 0, "the fifth prefetch must stall");
        assert!(m.stats().cpus[0].prefetch_slot_stall_cycles > 0);
    }

    #[test]
    fn writeback_traffic_appears_on_bus() {
        let mut m = MemorySystem::new(small_cfg(1));
        // Dirty a line, then force its eviction by walking the whole L2
        // plus one conflicting line.
        m.access(0, 0, va(0), pa(0), AccessKind::Write);
        m.access(0, 10, va(0x400), pa(0x400), AccessKind::Read); // same set, 1 KB DM
        let (_, wb, _) = m.stats().bus_occupancy;
        assert!(wb > 0, "dirty eviction must write back");
    }

    #[test]
    fn stats_reset_preserves_cache_state() {
        let mut m = MemorySystem::new(small_cfg(1));
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Read);
        m.reset_stats();
        assert_eq!(m.stats().cpus[0].data_refs, 0);
        // Still cached: next access is an L1 hit, proving state survived.
        let out = m.access(0, 10, va(0x1000), pa(0x1000), AccessKind::Read);
        assert_eq!(out.serviced_by, ServicedBy::L1);
    }

    #[test]
    fn flush_physical_page_evicts_everywhere() {
        let mut m = MemorySystem::new(small_cfg(2));
        // Both CPUs cache lines of the page at pa 0x1000.
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Write);
        m.access(1, 100, va(0x1080), pa(0x1080), AccessKind::Read);
        let (_, wb_before, _) = m.stats().bus_occupancy;
        m.flush_physical_page(1_000, pa(0x1000));
        // Dirty line written back.
        let (_, wb_after, _) = m.stats().bus_occupancy;
        assert!(wb_after > wb_before, "modified line must be written back");
        // Next accesses miss again. The flush forgets neither CPU's first
        // miss, and it dropped the lines from the shadow caches too.
        let out0 = m.access(0, 2_000, va(0x1000), pa(0x1000), AccessKind::Read);
        assert_eq!(out0.serviced_by, ServicedBy::Memory);
        assert_eq!(out0.miss_class, Some(MissClass::Capacity));
        let out1 = m.access(1, 3_000, va(0x1080), pa(0x1080), AccessKind::Read);
        assert_eq!(out1.serviced_by, ServicedBy::Memory);
        assert_eq!(out1.miss_class, Some(MissClass::Capacity));
    }

    #[test]
    fn flush_cancels_in_flight_prefetches() {
        use cdpc_obs::LineState as S;
        let mut m = MemorySystem::with_probe(small_cfg(2), StateLog::default());
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Read);
        assert!(m.prefetch(0, 1_000, va(0x1080), pa(0x1080), false).issued);
        let done = m.cpus[0].prefetches.live(0x1080).expect("in flight");
        assert!(1_040 < done, "the accesses below precede its completion");
        m.flush_physical_page(1_010, pa(0x1000));
        assert!(
            m.probe().events.contains(&(0, 0x1080, S::Invalid)),
            "the flush reports the dropped claim"
        );
        m.access(1, 1_020, va(0x1080), pa(0x1080), AccessKind::Read);
        // CPU 0 misses, then upgrades the line it now shares with CPU 1.
        let read = m.access(0, 1_030, va(0x1080), pa(0x1080), AccessKind::Read);
        assert_eq!(read.miss_class, Some(MissClass::Cold));
        let write = m.access(0, 1_040, va(0x1080), pa(0x1080), AccessKind::Write);
        assert!(
            write.latency_cycles > 0,
            "a write to a shared line upgrades"
        );
        assert_eq!(m.stats().cpus[0].prefetch_hits, 0);
        m.validate_coherence();
    }

    #[test]
    fn cancelled_prefetch_holds_its_slot_until_completion() {
        let mut cfg = small_cfg(2);
        cfg.max_outstanding_prefetches = 1;
        let mut m = MemorySystem::new(cfg);
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Read);
        assert!(m.prefetch(0, 1_000, va(0x1080), pa(0x1080), false).issued);
        let done = m.cpus[0].prefetches.live(0x1080).expect("in flight");
        // CPU 1's write miss invalidates CPU 0's claim on the line.
        m.access(1, 1_010, va(0x1080), pa(0x1080), AccessKind::Write);
        assert_eq!(m.cpus[0].prefetches.live(0x1080), None);
        let pf = m.prefetch(0, 1_020, va(0x1100), pa(0x1100), false);
        assert!(pf.issued);
        assert_eq!(pf.stall_cycles, done - 1_020, "the only slot is still busy");
        m.validate_coherence();
    }

    #[test]
    fn victim_cache_absorbs_direct_mapped_conflicts() {
        let mut cfg = small_cfg(1);
        cfg.victim_cache_lines = 4;
        let mut m = MemorySystem::new(cfg);
        // 1 KB direct-mapped L2: 0x0000 and 0x0400 collide; ping-pong
        // between them. Without a victim cache every access misses; with
        // one, steady state is all swap-backs.
        m.access(0, 0, va(0x0000), pa(0x0000), AccessKind::Read);
        m.access(0, 100, va(0x0400), pa(0x0400), AccessKind::Read);
        let mut t = 10_000;
        for i in 0..10u64 {
            let addr = if i % 2 == 0 { 0x0000 } else { 0x0400 };
            // Distinct L1 lines so the L1 never absorbs the ping-pong.
            let offset = 32 * (i % 4);
            let out = m.access(0, t, va(addr + offset), pa(addr + offset), AccessKind::Read);
            t += 1_000;
            assert_ne!(
                out.serviced_by,
                ServicedBy::Memory,
                "iteration {i}: the victim cache must absorb the conflict"
            );
        }
        assert!(m.stats().cpus[0].victim_hits > 0);
        m.validate_coherence();
    }

    #[test]
    fn victim_cache_lines_stay_coherent() {
        let mut cfg = small_cfg(2);
        cfg.victim_cache_lines = 4;
        let mut m = MemorySystem::new(cfg);
        // CPU0 dirties a line, then conflicts it out into its victim cache.
        m.access(0, 0, va(0x0000), pa(0x0000), AccessKind::Write);
        m.access(0, 100, va(0x0400), pa(0x0400), AccessKind::Read);
        m.validate_coherence();
        // CPU1 writes the line: CPU0's victim copy must be invalidated.
        m.access(1, 10_000, va(0x0000), pa(0x0000), AccessKind::Write);
        m.validate_coherence();
        // CPU0's next read must fetch fresh data, not a stale victim copy.
        let out = m.access(0, 20_000, va(0x0000), pa(0x0000), AccessKind::Read);
        assert_ne!(out.serviced_by, ServicedBy::VictimCache, "stale copy used");
        m.validate_coherence();
    }

    #[test]
    fn counting_probe_sees_misses_bus_and_prefetches() {
        let mut m = MemorySystem::with_probe(small_cfg(2), cdpc_obs::CountingProbe::new());
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Read);
        m.access(1, 100, va(0x1000), pa(0x1000), AccessKind::Read);
        m.access(0, 10_000, va(0x1000), pa(0x1000), AccessKind::Write); // upgrade
        m.prefetch(0, 20_000, va(0x1080), pa(0x1080), false);
        m.prefetch(0, 30_000, va(0x9000), pa(0x9000), false); // TLB drop
        let stats = m.stats().aggregate();
        let p = m.probe();
        assert_eq!(p.l2_misses, stats.misses.total());
        assert_eq!(p.tlb_misses, stats.tlb_misses);
        assert_eq!(p.prefetches_issued, stats.prefetches_issued);
        assert_eq!(p.prefetches_dropped, stats.prefetches_dropped_tlb);
        assert_eq!(p.bus_transactions, m.stats().bus_transactions);
        assert!(p.event_count() > 0);
    }

    #[derive(Default)]
    struct ClassifiedLog {
        events: Vec<(usize, u32, u32, cdpc_obs::MissClassId, u64)>,
        l2_misses: u64,
    }

    impl Probe for ClassifiedLog {
        fn on_l2_miss(&mut self, _cpu: usize, _cycle: u64, _class: cdpc_obs::MissClassId, _s: u64) {
            self.l2_misses += 1;
        }

        fn on_classified_miss(
            &mut self,
            cpu: usize,
            _cycle: u64,
            array_id: u32,
            color: u32,
            class: cdpc_obs::MissClassId,
            latency: u64,
        ) {
            self.events.push((cpu, array_id, color, class, latency));
        }
    }

    #[test]
    fn classified_misses_carry_array_and_color() {
        // Full-size paper config: 1 MB direct-mapped L2, 4 KB pages =>
        // 256 colors, so pa/4096 % 256 is the color.
        let mut m = MemorySystem::with_probe(MemConfig::paper_base(1), ClassifiedLog::default());
        m.set_regions(RegionMap::new(vec![
            cdpc_vm::Region {
                start: 0x1000,
                end: 0x2000,
                id: 0,
            },
            cdpc_vm::Region {
                start: 0x8000,
                end: 0x9000,
                id: 1,
            },
        ]));
        m.access(0, 0, va(0x1000), pa(0x3000), AccessKind::Read); // array 0, color 3
        m.access(0, 1_000, va(0x8080), pa(0x5080), AccessKind::Read); // array 1, color 5
        m.access(0, 2_000, va(0x4000), pa(0x7000), AccessKind::Read); // untagged
        let p = m.probe();
        assert_eq!(p.events.len() as u64, p.l2_misses, "one event per miss");
        assert_eq!(p.events[0].1, 0);
        assert_eq!(p.events[0].2, 3);
        assert_eq!(p.events[0].3, cdpc_obs::MissClassId::Cold);
        assert!(p.events[0].4 > 0, "cold miss has a service latency");
        assert_eq!(p.events[1].1, 1);
        assert_eq!(p.events[1].2, 5);
        assert_eq!(p.events[2].1, cdpc_obs::ATTR_OTHER_ARRAY);
        assert_eq!(p.events[2].2, 7);
    }

    #[test]
    fn no_region_map_means_no_classified_events() {
        let mut m = MemorySystem::with_probe(small_cfg(1), ClassifiedLog::default());
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Read);
        assert!(m.probe().l2_misses > 0);
        assert!(m.probe().events.is_empty());
    }

    #[test]
    fn lifetime_refs_survive_stats_reset() {
        let mut m = MemorySystem::new(small_cfg(1));
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Read);
        m.prefetch(0, 100, va(0x1080), pa(0x1080), false);
        m.reset_stats();
        m.access(0, 1000, va(0x2000), pa(0x2000), AccessKind::Read);
        assert_eq!(m.lifetime_refs(), 3, "1 ref + 1 issued prefetch + 1 ref");
    }

    #[test]
    fn tlb_shootdown_forces_refault() {
        let mut m = MemorySystem::new(small_cfg(1));
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Read);
        m.shoot_down_tlb(Vpn(1));
        let out = m.access(0, 100, va(0x1000), pa(0x1000), AccessKind::Read);
        assert!(out.tlb_miss);
    }

    #[test]
    #[should_panic(expected = "has other sharers")]
    fn validate_coherence_catches_injected_bogus_sharer() {
        let mut m = MemorySystem::new(small_cfg(2));
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Write);
        // Corrupt the directory: pretend CPU1 also shares the Modified line.
        let line = m.cfg.l2.line_of(0x1000);
        let mut entry = m.dir(line);
        entry.sharers |= 0b10;
        m.set_dir(line, entry);
        m.validate_coherence();
    }

    #[test]
    #[should_panic(expected = "directory owner")]
    fn validate_coherence_catches_injected_lost_owner() {
        let mut m = MemorySystem::new(small_cfg(2));
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Write);
        // Corrupt the directory: drop the dirty owner while the L2 copy
        // stays Modified.
        let line = m.cfg.l2.line_of(0x1000);
        let mut entry = m.dir(line);
        entry.owner = NO_OWNER;
        m.set_dir(line, entry);
        m.validate_coherence();
    }

    #[test]
    fn flush_reaches_victim_cache_copies() {
        let mut cfg = small_cfg(1);
        cfg.victim_cache_lines = 4;
        let mut m = MemorySystem::new(cfg);
        // Dirty 0x0000, then conflict it out of the 1 KB direct-mapped L2
        // into the victim buffer (0x0400 maps to the same set).
        m.access(0, 0, va(0x0000), pa(0x0000), AccessKind::Write);
        m.access(0, 100, va(0x0400), pa(0x0400), AccessKind::Read);
        assert!(m.cpus[0].victim.as_ref().expect("enabled").contains(0));
        let (_, wb_before, _) = m.stats().bus_occupancy;
        // Both lines sit in page 0; the flush must reach the victim-held
        // copy too (and write it back — it is Modified).
        m.flush_physical_page(1_000, pa(0x0000));
        let (_, wb_after, _) = m.stats().bus_occupancy;
        assert!(
            wb_after > wb_before,
            "dirty victim copy must be written back"
        );
        m.validate_coherence();
        let out = m.access(0, 2_000, va(0x0000), pa(0x0000), AccessKind::Read);
        assert_ne!(out.serviced_by, ServicedBy::VictimCache, "stale copy used");
        assert_ne!(out.serviced_by, ServicedBy::L2);
    }

    #[derive(Default)]
    struct StateLog {
        events: Vec<(CpuId, u64, cdpc_obs::LineState)>,
        flushes: u64,
    }

    impl Probe for StateLog {
        fn on_line_state(&mut self, cpu: usize, line_addr: u64, state: cdpc_obs::LineState) {
            self.events.push((cpu, line_addr, state));
        }

        fn on_page_flush(&mut self, _page_base: u64, _page_bytes: u64) {
            self.flushes += 1;
        }
    }

    #[test]
    fn line_state_events_track_mesi_transitions() {
        use cdpc_obs::LineState as S;
        let mut m = MemorySystem::with_probe(small_cfg(2), StateLog::default());
        let line = m.cfg.l2.line_of(0x1000);
        // CPU0 read → Exclusive fill; CPU1 read → CPU0 downgrade + Shared
        // fill; CPU0 write → upgrade (CPU1 invalidated, CPU0 Modified).
        m.access(0, 0, va(0x1000), pa(0x1000), AccessKind::Read);
        m.access(1, 1_000, va(0x1000), pa(0x1000), AccessKind::Read);
        m.access(0, 10_000, va(0x1000), pa(0x1000), AccessKind::Write);
        let ev = &m.probe().events;
        let pos = |e| {
            ev.iter()
                .position(|&x| x == e)
                .unwrap_or_else(|| panic!("missing {e:?}"))
        };
        let excl = pos((0, line, S::Exclusive));
        let down = pos((0, line, S::Shared));
        let fill1 = pos((1, line, S::Shared));
        let inval = pos((1, line, S::Invalid));
        let upg = pos((0, line, S::Modified));
        assert!(
            excl < down && down < fill1,
            "downgrade precedes shared fill"
        );
        assert!(inval < upg, "invalidation precedes the upgrade to Modified");
        // Flush emits one page event after the per-line drops.
        m.flush_physical_page(20_000, pa(0x1000));
        assert_eq!(m.probe().flushes, 1);
        assert!(m.probe().events.contains(&(0, line, S::Invalid)));
    }
}
