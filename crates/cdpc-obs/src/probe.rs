//! The probe interface: fine-grained event callbacks from the simulation
//! stack.
//!
//! A [`Probe`] receives one callback per interesting event — L2 misses with
//! their class, bus transactions, TLB misses, prefetch issues and drops,
//! page faults with hint outcome, hint-table lookups, and dynamic
//! recolorings. Every method has an empty default body, and probes are
//! plugged in by generic parameter (static dispatch), so a [`NullProbe`]
//! run compiles to exactly the uninstrumented code.
//!
//! The event vocabulary deliberately uses plain integers (`cpu: usize`,
//! `vpn: u64`, `color: u32`) rather than the stack's newtypes: this crate
//! sits below every other CDPC crate and must not depend on them.

/// Miss classes as seen by probes (mirrors `cdpc_memsim::MissClass`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClassId {
    /// First reference to a line by this CPU.
    Cold,
    /// Would miss even in a fully-associative cache of the same capacity.
    Capacity,
    /// Hits fully-associative, misses set-associative: a mapping conflict.
    Conflict,
    /// Re-fetch of data another CPU actually wrote.
    TrueSharing,
    /// Re-fetch caused by writes to *other* words of the same line.
    FalseSharing,
}

impl MissClassId {
    /// Stable lowercase label used by every exporter.
    pub fn label(self) -> &'static str {
        match self {
            MissClassId::Cold => "cold",
            MissClassId::Capacity => "capacity",
            MissClassId::Conflict => "conflict",
            MissClassId::TrueSharing => "true-sharing",
            MissClassId::FalseSharing => "false-sharing",
        }
    }

    /// Position of this class within [`MissClassId::ALL`] (the canonical
    /// dense-tensor index).
    pub fn index(self) -> usize {
        match self {
            MissClassId::Cold => 0,
            MissClassId::Capacity => 1,
            MissClassId::Conflict => 2,
            MissClassId::TrueSharing => 3,
            MissClassId::FalseSharing => 4,
        }
    }

    /// All classes, in the canonical export order.
    pub const ALL: [MissClassId; 5] = [
        MissClassId::Cold,
        MissClassId::Capacity,
        MissClassId::Conflict,
        MissClassId::TrueSharing,
        MissClassId::FalseSharing,
    ];
}

/// Bus transaction categories (mirrors `cdpc_memsim::bus::BusUse`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusKind {
    /// Demand/prefetch data transfer.
    Data,
    /// Write-back of a dirty victim line.
    Writeback,
    /// Ownership upgrade (no data).
    Upgrade,
}

impl BusKind {
    /// Stable lowercase label used by every exporter.
    pub fn label(self) -> &'static str {
        match self {
            BusKind::Data => "data",
            BusKind::Writeback => "writeback",
            BusKind::Upgrade => "upgrade",
        }
    }
}

/// Why a prefetch instruction was dropped instead of issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchDropReason {
    /// Target page not resident in the TLB.
    TlbMiss,
    /// Line already cached or already in flight.
    Resident,
}

impl PrefetchDropReason {
    /// Stable lowercase label used by every exporter.
    pub fn label(self) -> &'static str {
        match self {
            PrefetchDropReason::TlbMiss => "tlb-miss",
            PrefetchDropReason::Resident => "resident",
        }
    }
}

/// How a page fault's color preference was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HintOutcome {
    /// The policy expressed no color preference.
    NoPreference,
    /// The preferred color was honored exactly.
    Honored,
    /// Memory pressure forced a different color.
    Fallback,
}

impl HintOutcome {
    /// Stable lowercase label used by every exporter.
    pub fn label(self) -> &'static str {
        match self {
            HintOutcome::NoPreference => "no-preference",
            HintOutcome::Honored => "honored",
            HintOutcome::Fallback => "fallback",
        }
    }
}

/// Coherence state of an external-cache line as seen by probes (mirrors
/// `cdpc_memsim::Mesi`, plus `Invalid` for drops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Sole dirty copy; memory is stale.
    Modified,
    /// Sole clean copy.
    Exclusive,
    /// One of possibly many clean copies.
    Shared,
    /// The copy was dropped (invalidation, eviction, or page flush).
    Invalid,
}

impl LineState {
    /// Stable lowercase label used by every exporter.
    pub fn label(self) -> &'static str {
        match self {
            LineState::Modified => "modified",
            LineState::Exclusive => "exclusive",
            LineState::Shared => "shared",
            LineState::Invalid => "invalid",
        }
    }
}

/// Receiver of simulation events.
///
/// All methods default to no-ops; implement only what you need. Cycle
/// arguments are the issuing CPU's local clock (global wall-clock order is
/// approximate across CPUs, exact per CPU — the same guarantee the
/// simulator itself gives).
pub trait Probe {
    /// An external-cache miss of `class` by `cpu`, stalling
    /// `stall_cycles`.
    #[inline]
    fn on_l2_miss(&mut self, cpu: usize, cycle: u64, class: MissClassId, stall_cycles: u64) {
        let _ = (cpu, cycle, class, stall_cycles);
    }

    /// A bus transaction requested at `cycle`, queued `queue_cycles`, then
    /// occupying the bus `occupancy_cycles`.
    #[inline]
    fn on_bus_transaction(
        &mut self,
        cycle: u64,
        kind: BusKind,
        queue_cycles: u64,
        occupancy_cycles: u64,
    ) {
        let _ = (cycle, kind, queue_cycles, occupancy_cycles);
    }

    /// A demand-access TLB miss by `cpu` on virtual page `vpn`.
    #[inline]
    fn on_tlb_miss(&mut self, cpu: usize, cycle: u64, vpn: u64) {
        let _ = (cpu, cycle, vpn);
    }

    /// A prefetch issued to the memory system for the L2 line at
    /// `line_addr`; `slot_stall_cycles` is nonzero when all slots were
    /// busy.
    #[inline]
    fn on_prefetch_issued(
        &mut self,
        cpu: usize,
        cycle: u64,
        line_addr: u64,
        slot_stall_cycles: u64,
    ) {
        let _ = (cpu, cycle, line_addr, slot_stall_cycles);
    }

    /// A prefetch dropped before reaching the memory system.
    #[inline]
    fn on_prefetch_dropped(
        &mut self,
        cpu: usize,
        cycle: u64,
        line_addr: u64,
        reason: PrefetchDropReason,
    ) {
        let _ = (cpu, cycle, line_addr, reason);
    }

    /// A page fault served for `cpu` on virtual page `vpn`, backed by a
    /// physical page of `color`.
    #[inline]
    fn on_page_fault(
        &mut self,
        cpu: usize,
        cycle: u64,
        vpn: u64,
        color: u32,
        outcome: HintOutcome,
    ) {
        let _ = (cpu, cycle, vpn, color, outcome);
    }

    /// A hint-table lookup during policy resolution; `hit` when the table
    /// held a color for `vpn` (miss means fallback to the base policy).
    #[inline]
    fn on_hint_lookup(&mut self, vpn: u64, hit: bool) {
        let _ = (vpn, hit);
    }

    /// A dynamic recoloring: `vpn` moved from `from_color` to `to_color`.
    #[inline]
    fn on_recolor(&mut self, cpu: usize, cycle: u64, vpn: u64, from_color: u32, to_color: u32) {
        let _ = (cpu, cycle, vpn, from_color, to_color);
    }

    /// `cpu`'s external-cache copy of the line at `line_addr` changed
    /// coherence state (fills, upgrades, downgrades, invalidations; a
    /// [`LineState::Invalid`] event means the copy was dropped).
    #[inline]
    fn on_line_state(&mut self, cpu: usize, line_addr: u64, state: LineState) {
        let _ = (cpu, line_addr, state);
    }

    /// Every cached line of the physical page at `page_base` has been
    /// flushed (individual drops were reported via [`Probe::on_line_state`]
    /// first) and its directory rights revoked.
    #[inline]
    fn on_page_flush(&mut self, page_base: u64, page_bytes: u64) {
        let _ = (page_base, page_bytes);
    }

    /// An external-cache miss with full attribution context: the source
    /// array (`ATTR_OTHER_ARRAY` for code or untracked regions), the cache
    /// color of the physical page the miss landed in, its class, and the
    /// service latency. Fired alongside [`Probe::on_l2_miss`] whenever the
    /// memory system has a region map installed.
    #[inline]
    fn on_classified_miss(
        &mut self,
        cpu: usize,
        cycle: u64,
        array_id: u32,
        color: u32,
        class: MissClassId,
        latency_cycles: u64,
    ) {
        let _ = (cpu, cycle, array_id, color, class, latency_cycles);
    }

    /// The run loop is about to execute measured phase `index`, which
    /// stands for `count` repetitions. Events between this and the matching
    /// [`Probe::on_phase_end`] belong to the phase; events outside any
    /// phase window (warm-up, prefault) are not part of the measured run.
    #[inline]
    fn on_phase_start(&mut self, index: usize, count: u64) {
        let _ = (index, count);
    }

    /// The run loop finished measured phase `index`; `end_cycle` is the
    /// maximum CPU clock at the closing barrier.
    #[inline]
    fn on_phase_end(&mut self, index: usize, end_cycle: u64) {
        let _ = (index, end_cycle);
    }

    /// The run-loop scheduler executed a batch of `ops` consecutive
    /// operations for one CPU without a scheduling decision in between.
    #[inline]
    fn on_run_batch(&mut self, cpu: usize, ops: u64) {
        let _ = (cpu, ops);
    }

    /// Total events this probe has observed (0 for probes that don't
    /// count). Used for simulator self-profiling (peak event volume).
    fn event_count(&self) -> u64 {
        0
    }
}

/// The `array_id` probes receive for a miss outside every mapped region
/// (instruction fetches, runtime structures).
pub const ATTR_OTHER_ARRAY: u32 = u32::MAX;

/// The disabled probe: every callback is a no-op the optimizer removes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// Forwarding impl so call sites can hand out `&mut probe` without giving
/// up ownership (the run loop and the memory system share one probe this
/// way).
impl<P: Probe + ?Sized> Probe for &mut P {
    #[inline]
    fn on_l2_miss(&mut self, cpu: usize, cycle: u64, class: MissClassId, stall_cycles: u64) {
        (**self).on_l2_miss(cpu, cycle, class, stall_cycles);
    }

    #[inline]
    fn on_bus_transaction(
        &mut self,
        cycle: u64,
        kind: BusKind,
        queue_cycles: u64,
        occupancy_cycles: u64,
    ) {
        (**self).on_bus_transaction(cycle, kind, queue_cycles, occupancy_cycles);
    }

    #[inline]
    fn on_tlb_miss(&mut self, cpu: usize, cycle: u64, vpn: u64) {
        (**self).on_tlb_miss(cpu, cycle, vpn);
    }

    #[inline]
    fn on_prefetch_issued(
        &mut self,
        cpu: usize,
        cycle: u64,
        line_addr: u64,
        slot_stall_cycles: u64,
    ) {
        (**self).on_prefetch_issued(cpu, cycle, line_addr, slot_stall_cycles);
    }

    #[inline]
    fn on_prefetch_dropped(
        &mut self,
        cpu: usize,
        cycle: u64,
        line_addr: u64,
        reason: PrefetchDropReason,
    ) {
        (**self).on_prefetch_dropped(cpu, cycle, line_addr, reason);
    }

    #[inline]
    fn on_page_fault(
        &mut self,
        cpu: usize,
        cycle: u64,
        vpn: u64,
        color: u32,
        outcome: HintOutcome,
    ) {
        (**self).on_page_fault(cpu, cycle, vpn, color, outcome);
    }

    #[inline]
    fn on_hint_lookup(&mut self, vpn: u64, hit: bool) {
        (**self).on_hint_lookup(vpn, hit);
    }

    #[inline]
    fn on_recolor(&mut self, cpu: usize, cycle: u64, vpn: u64, from_color: u32, to_color: u32) {
        (**self).on_recolor(cpu, cycle, vpn, from_color, to_color);
    }

    #[inline]
    fn on_line_state(&mut self, cpu: usize, line_addr: u64, state: LineState) {
        (**self).on_line_state(cpu, line_addr, state);
    }

    #[inline]
    fn on_page_flush(&mut self, page_base: u64, page_bytes: u64) {
        (**self).on_page_flush(page_base, page_bytes);
    }

    #[inline]
    fn on_classified_miss(
        &mut self,
        cpu: usize,
        cycle: u64,
        array_id: u32,
        color: u32,
        class: MissClassId,
        latency_cycles: u64,
    ) {
        (**self).on_classified_miss(cpu, cycle, array_id, color, class, latency_cycles);
    }

    #[inline]
    fn on_phase_start(&mut self, index: usize, count: u64) {
        (**self).on_phase_start(index, count);
    }

    #[inline]
    fn on_phase_end(&mut self, index: usize, end_cycle: u64) {
        (**self).on_phase_end(index, end_cycle);
    }

    #[inline]
    fn on_run_batch(&mut self, cpu: usize, ops: u64) {
        (**self).on_run_batch(cpu, ops);
    }

    fn event_count(&self) -> u64 {
        (**self).event_count()
    }
}

/// A probe that may be absent: `Some(p)` forwards every event to `p`,
/// `None` is a no-op. Lets call sites compose an optional probe into a
/// tuple without enumerating every on/off combination as its own type.
impl<P: Probe> Probe for Option<P> {
    #[inline]
    fn on_l2_miss(&mut self, cpu: usize, cycle: u64, class: MissClassId, stall_cycles: u64) {
        if let Some(p) = self {
            p.on_l2_miss(cpu, cycle, class, stall_cycles);
        }
    }

    #[inline]
    fn on_bus_transaction(
        &mut self,
        cycle: u64,
        kind: BusKind,
        queue_cycles: u64,
        occupancy_cycles: u64,
    ) {
        if let Some(p) = self {
            p.on_bus_transaction(cycle, kind, queue_cycles, occupancy_cycles);
        }
    }

    #[inline]
    fn on_tlb_miss(&mut self, cpu: usize, cycle: u64, vpn: u64) {
        if let Some(p) = self {
            p.on_tlb_miss(cpu, cycle, vpn);
        }
    }

    #[inline]
    fn on_prefetch_issued(
        &mut self,
        cpu: usize,
        cycle: u64,
        line_addr: u64,
        slot_stall_cycles: u64,
    ) {
        if let Some(p) = self {
            p.on_prefetch_issued(cpu, cycle, line_addr, slot_stall_cycles);
        }
    }

    #[inline]
    fn on_prefetch_dropped(
        &mut self,
        cpu: usize,
        cycle: u64,
        line_addr: u64,
        reason: PrefetchDropReason,
    ) {
        if let Some(p) = self {
            p.on_prefetch_dropped(cpu, cycle, line_addr, reason);
        }
    }

    #[inline]
    fn on_page_fault(
        &mut self,
        cpu: usize,
        cycle: u64,
        vpn: u64,
        color: u32,
        outcome: HintOutcome,
    ) {
        if let Some(p) = self {
            p.on_page_fault(cpu, cycle, vpn, color, outcome);
        }
    }

    #[inline]
    fn on_hint_lookup(&mut self, vpn: u64, hit: bool) {
        if let Some(p) = self {
            p.on_hint_lookup(vpn, hit);
        }
    }

    #[inline]
    fn on_recolor(&mut self, cpu: usize, cycle: u64, vpn: u64, from_color: u32, to_color: u32) {
        if let Some(p) = self {
            p.on_recolor(cpu, cycle, vpn, from_color, to_color);
        }
    }

    #[inline]
    fn on_line_state(&mut self, cpu: usize, line_addr: u64, state: LineState) {
        if let Some(p) = self {
            p.on_line_state(cpu, line_addr, state);
        }
    }

    #[inline]
    fn on_page_flush(&mut self, page_base: u64, page_bytes: u64) {
        if let Some(p) = self {
            p.on_page_flush(page_base, page_bytes);
        }
    }

    #[inline]
    fn on_classified_miss(
        &mut self,
        cpu: usize,
        cycle: u64,
        array_id: u32,
        color: u32,
        class: MissClassId,
        latency_cycles: u64,
    ) {
        if let Some(p) = self {
            p.on_classified_miss(cpu, cycle, array_id, color, class, latency_cycles);
        }
    }

    #[inline]
    fn on_phase_start(&mut self, index: usize, count: u64) {
        if let Some(p) = self {
            p.on_phase_start(index, count);
        }
    }

    #[inline]
    fn on_phase_end(&mut self, index: usize, end_cycle: u64) {
        if let Some(p) = self {
            p.on_phase_end(index, end_cycle);
        }
    }

    #[inline]
    fn on_run_batch(&mut self, cpu: usize, ops: u64) {
        if let Some(p) = self {
            p.on_run_batch(cpu, ops);
        }
    }

    fn event_count(&self) -> u64 {
        self.as_ref().map_or(0, |p| p.event_count())
    }
}

/// Generates the fan-out combinator impls: every event is delivered to
/// each element in order. Lets one run feed independent probes (say, a
/// sanitizer, a tracer, and an attribution sink) without any of them
/// knowing about the others; still static dispatch, so
/// `(SanitizerProbe, NullProbe)` costs exactly a `SanitizerProbe`.
macro_rules! tuple_probe {
    ($($p:ident . $idx:tt),+) => {
        impl<$($p: Probe),+> Probe for ($($p,)+) {
            #[inline]
            fn on_l2_miss(&mut self, cpu: usize, cycle: u64, class: MissClassId, stall: u64) {
                $(self.$idx.on_l2_miss(cpu, cycle, class, stall);)+
            }

            #[inline]
            fn on_bus_transaction(&mut self, cycle: u64, kind: BusKind, queue: u64, occ: u64) {
                $(self.$idx.on_bus_transaction(cycle, kind, queue, occ);)+
            }

            #[inline]
            fn on_tlb_miss(&mut self, cpu: usize, cycle: u64, vpn: u64) {
                $(self.$idx.on_tlb_miss(cpu, cycle, vpn);)+
            }

            #[inline]
            fn on_prefetch_issued(&mut self, cpu: usize, cycle: u64, line: u64, stall: u64) {
                $(self.$idx.on_prefetch_issued(cpu, cycle, line, stall);)+
            }

            #[inline]
            fn on_prefetch_dropped(
                &mut self,
                cpu: usize,
                cycle: u64,
                line_addr: u64,
                reason: PrefetchDropReason,
            ) {
                $(self.$idx.on_prefetch_dropped(cpu, cycle, line_addr, reason);)+
            }

            #[inline]
            fn on_page_fault(
                &mut self,
                cpu: usize,
                cycle: u64,
                vpn: u64,
                color: u32,
                outcome: HintOutcome,
            ) {
                $(self.$idx.on_page_fault(cpu, cycle, vpn, color, outcome);)+
            }

            #[inline]
            fn on_hint_lookup(&mut self, vpn: u64, hit: bool) {
                $(self.$idx.on_hint_lookup(vpn, hit);)+
            }

            #[inline]
            fn on_recolor(&mut self, cpu: usize, cycle: u64, vpn: u64, from: u32, to: u32) {
                $(self.$idx.on_recolor(cpu, cycle, vpn, from, to);)+
            }

            #[inline]
            fn on_line_state(&mut self, cpu: usize, line_addr: u64, state: LineState) {
                $(self.$idx.on_line_state(cpu, line_addr, state);)+
            }

            #[inline]
            fn on_page_flush(&mut self, page_base: u64, page_bytes: u64) {
                $(self.$idx.on_page_flush(page_base, page_bytes);)+
            }

            #[inline]
            fn on_classified_miss(
                &mut self,
                cpu: usize,
                cycle: u64,
                array_id: u32,
                color: u32,
                class: MissClassId,
                latency_cycles: u64,
            ) {
                $(self.$idx.on_classified_miss(cpu, cycle, array_id, color, class, latency_cycles);)+
            }

            #[inline]
            fn on_phase_start(&mut self, index: usize, count: u64) {
                $(self.$idx.on_phase_start(index, count);)+
            }

            #[inline]
            fn on_phase_end(&mut self, index: usize, end_cycle: u64) {
                $(self.$idx.on_phase_end(index, end_cycle);)+
            }

            #[inline]
            fn on_run_batch(&mut self, cpu: usize, ops: u64) {
                $(self.$idx.on_run_batch(cpu, ops);)+
            }

            fn event_count(&self) -> u64 {
                0 $(+ self.$idx.event_count())+
            }
        }
    };
}

tuple_probe!(A.0, B.1);
tuple_probe!(A.0, B.1, C.2);

/// A probe that counts events by kind — cheap enough to leave on, detailed
/// enough for self-profiling and smoke tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingProbe {
    /// External-cache misses, all classes.
    pub l2_misses: u64,
    /// Misses by class, indexed per [`MissClassId::ALL`] order.
    pub misses_by_class: [u64; 5],
    /// Bus transactions, all kinds.
    pub bus_transactions: u64,
    /// Demand TLB misses.
    pub tlb_misses: u64,
    /// Prefetches issued.
    pub prefetches_issued: u64,
    /// Prefetches dropped (either reason).
    pub prefetches_dropped: u64,
    /// Page faults served.
    pub page_faults: u64,
    /// Page faults whose color preference was honored.
    pub faults_honored: u64,
    /// Hint-table lookups.
    pub hint_lookups: u64,
    /// Hint-table lookups that found a hint.
    pub hint_hits: u64,
    /// Dynamic recolorings.
    pub recolorings: u64,
}

impl CountingProbe {
    /// A fresh all-zero counter set.
    pub fn new() -> Self {
        Self::default()
    }
}

fn class_index(class: MissClassId) -> usize {
    MissClassId::ALL
        .iter()
        .position(|&c| c == class)
        .expect("ALL covers every class")
}

impl Probe for CountingProbe {
    fn on_l2_miss(&mut self, _cpu: usize, _cycle: u64, class: MissClassId, _stall: u64) {
        self.l2_misses += 1;
        self.misses_by_class[class_index(class)] += 1;
    }

    fn on_bus_transaction(&mut self, _cycle: u64, _kind: BusKind, _queue: u64, _occ: u64) {
        self.bus_transactions += 1;
    }

    fn on_tlb_miss(&mut self, _cpu: usize, _cycle: u64, _vpn: u64) {
        self.tlb_misses += 1;
    }

    fn on_prefetch_issued(&mut self, _cpu: usize, _cycle: u64, _line: u64, _stall: u64) {
        self.prefetches_issued += 1;
    }

    fn on_prefetch_dropped(
        &mut self,
        _cpu: usize,
        _cycle: u64,
        _line: u64,
        _reason: PrefetchDropReason,
    ) {
        self.prefetches_dropped += 1;
    }

    fn on_page_fault(
        &mut self,
        _cpu: usize,
        _cycle: u64,
        _vpn: u64,
        _color: u32,
        outcome: HintOutcome,
    ) {
        self.page_faults += 1;
        if outcome == HintOutcome::Honored {
            self.faults_honored += 1;
        }
    }

    fn on_hint_lookup(&mut self, _vpn: u64, hit: bool) {
        self.hint_lookups += 1;
        if hit {
            self.hint_hits += 1;
        }
    }

    fn on_recolor(&mut self, _cpu: usize, _cycle: u64, _vpn: u64, _from: u32, _to: u32) {
        self.recolorings += 1;
    }

    fn event_count(&self) -> u64 {
        self.l2_misses
            + self.bus_transactions
            + self.tlb_misses
            + self.prefetches_issued
            + self.prefetches_dropped
            + self.page_faults
            + self.hint_lookups
            + self.recolorings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_accepts_everything() {
        let mut p = NullProbe;
        p.on_l2_miss(0, 1, MissClassId::Conflict, 50);
        p.on_bus_transaction(1, BusKind::Data, 0, 40);
        p.on_hint_lookup(3, true);
        assert_eq!(p.event_count(), 0);
    }

    #[test]
    fn counting_probe_counts_by_kind() {
        let mut p = CountingProbe::new();
        p.on_l2_miss(0, 1, MissClassId::Conflict, 50);
        p.on_l2_miss(1, 2, MissClassId::Cold, 60);
        p.on_bus_transaction(1, BusKind::Writeback, 2, 40);
        p.on_tlb_miss(0, 3, 7);
        p.on_prefetch_issued(0, 4, 0x80, 0);
        p.on_prefetch_dropped(0, 5, 0x80, PrefetchDropReason::Resident);
        p.on_page_fault(0, 6, 9, 3, HintOutcome::Honored);
        p.on_page_fault(0, 7, 10, 1, HintOutcome::Fallback);
        p.on_hint_lookup(9, true);
        p.on_hint_lookup(10, false);
        p.on_recolor(0, 8, 9, 3, 5);
        assert_eq!(p.l2_misses, 2);
        assert_eq!(p.misses_by_class[class_index(MissClassId::Conflict)], 1);
        assert_eq!(p.bus_transactions, 1);
        assert_eq!(p.page_faults, 2);
        assert_eq!(p.faults_honored, 1);
        assert_eq!(p.hint_lookups, 2);
        assert_eq!(p.hint_hits, 1);
        assert_eq!(p.recolorings, 1);
        assert_eq!(p.event_count(), 11);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut p = CountingProbe::new();
        {
            let fwd = &mut p;
            fwd.on_tlb_miss(0, 0, 0);
            assert_eq!(fwd.event_count(), 1);
        }
        assert_eq!(p.tlb_misses, 1);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(MissClassId::TrueSharing.label(), "true-sharing");
        assert_eq!(BusKind::Writeback.label(), "writeback");
        assert_eq!(PrefetchDropReason::TlbMiss.label(), "tlb-miss");
        assert_eq!(HintOutcome::Fallback.label(), "fallback");
        assert_eq!(LineState::Exclusive.label(), "exclusive");
        assert_eq!(LineState::Invalid.label(), "invalid");
    }

    #[derive(Default)]
    struct StateRecorder {
        states: Vec<(usize, u64, LineState)>,
        flushes: Vec<(u64, u64)>,
    }

    impl Probe for StateRecorder {
        fn on_line_state(&mut self, cpu: usize, line_addr: u64, state: LineState) {
            self.states.push((cpu, line_addr, state));
        }

        fn on_page_flush(&mut self, page_base: u64, page_bytes: u64) {
            self.flushes.push((page_base, page_bytes));
        }

        fn event_count(&self) -> u64 {
            (self.states.len() + self.flushes.len()) as u64
        }
    }

    #[test]
    fn line_state_events_forward_through_mut_ref() {
        let mut p = StateRecorder::default();
        {
            let fwd = &mut p;
            fwd.on_line_state(1, 0x100, LineState::Modified);
            fwd.on_page_flush(0x1000, 4096);
        }
        assert_eq!(p.states, vec![(1, 0x100, LineState::Modified)]);
        assert_eq!(p.flushes, vec![(0x1000, 4096)]);
    }

    #[test]
    fn tuple_probe_fans_out_to_both() {
        let mut pair = (StateRecorder::default(), CountingProbe::new());
        pair.on_line_state(0, 0x80, LineState::Shared);
        pair.on_tlb_miss(0, 1, 7);
        pair.on_page_flush(0x2000, 4096);
        assert_eq!(pair.0.states.len(), 1);
        assert_eq!(pair.0.flushes.len(), 1);
        assert_eq!(pair.1.tlb_misses, 1);
        // StateRecorder saw 2 events, CountingProbe 1.
        assert_eq!(pair.event_count(), 3);
    }
}
