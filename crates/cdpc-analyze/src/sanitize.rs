//! The runtime coherence sanitizer.
//!
//! [`SanitizerProbe`] is a [`Probe`] that shadows the simulator's MESI
//! protocol from its event stream alone and fails fast when an invariant
//! breaks. The memory system guarantees invalidations and downgrades are
//! reported *before* the requester's fill event, so online checking is
//! sound: at the instant a fill arrives, the shadow already reflects
//! every copy the protocol revoked for it.
//!
//! Shadow state is O(1) per event: one packed `u64` per external-cache
//! line (2 bits per CPU), a set of in-flight prefetches, and the set of
//! flushed physical pages. Invariants:
//!
//! * at most one `Modified`/`Exclusive` copy of a line, and never
//!   alongside other copies (`sanitize/multiple-owners`);
//! * a `Shared` fill never coexists with an owned copy
//!   (`sanitize/shared-with-owner`);
//! * a page flush leaves no shadow copy behind (`sanitize/stale-flush`);
//! * no fill lands on a flushed page before a page fault remaps it
//!   (`sanitize/flushed-page-access`);
//! * a prefetch is never issued for a line the CPU already has in flight
//!   (`sanitize/duplicate-prefetch`).
//!
//! Every `period` events (default 1024) a full sweep re-verifies the
//! sole-owner invariant across the whole shadow — an O(lines) safety net
//! against event orderings the incremental checks could miss.

use cdpc_core::fastmap::{FxMap64, FxSet64};
use cdpc_obs::{LineState, Probe};

use crate::diag::{Diagnostic, Location, Report, Severity};

/// Rule id: two owned (M/E) copies, or an owner alongside sharers.
pub const RULE_MULTIPLE_OWNERS: &str = "sanitize/multiple-owners";
/// Rule id: a Shared fill while another CPU owns the line.
pub const RULE_SHARED_WITH_OWNER: &str = "sanitize/shared-with-owner";
/// Rule id: a page flush reported while shadow copies remain.
pub const RULE_STALE_FLUSH: &str = "sanitize/stale-flush";
/// Rule id: a fill on a flushed (unmapped) physical page.
pub const RULE_FLUSHED_ACCESS: &str = "sanitize/flushed-page-access";
/// Rule id: duplicate in-flight prefetch for one (cpu, line).
pub const RULE_DUPLICATE_PREFETCH: &str = "sanitize/duplicate-prefetch";

fn inflight_key(line_addr: u64, cpu: usize) -> u64 {
    (line_addr << 5) | cpu as u64
}

const ABSENT: u64 = 0;
const SHARED: u64 = 1;
const EXCLUSIVE: u64 = 2;
const MODIFIED: u64 = 3;

/// Online MESI invariant checker; see the module docs.
pub struct SanitizerProbe {
    num_cpus: usize,
    /// line address → packed per-CPU state (2 bits each).
    shadow: FxMap64<u64>,
    /// `line_addr << 5 | cpu` for prefetches issued but not yet
    /// completed.
    inflight: FxSet64,
    /// Physical page bases flushed and not yet remapped.
    flushed: FxSet64,
    /// Page size learned from the first flush event (0 = none seen).
    page_bytes: u64,
    fail_fast: bool,
    violations: Vec<Diagnostic>,
    events: u64,
    period: u64,
    sweeps: u64,
}

impl SanitizerProbe {
    /// A fail-fast sanitizer: the first violation panics with a
    /// diagnostic message (the `--sanitize` mode).
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` is 0 or exceeds 32 (the shadow packs per-CPU
    /// state into one `u64`, like the simulator's directory mask).
    pub fn new(num_cpus: usize) -> Self {
        assert!((1..=32).contains(&num_cpus), "1..=32 CPUs supported");
        SanitizerProbe {
            num_cpus,
            shadow: FxMap64::new(),
            inflight: FxSet64::new(),
            flushed: FxSet64::new(),
            page_bytes: 0,
            fail_fast: true,
            violations: Vec::new(),
            events: 0,
            period: 1024,
            sweeps: 0,
        }
    }

    /// A collecting sanitizer: violations accumulate as diagnostics
    /// instead of panicking (for tests and reports).
    pub fn lenient(num_cpus: usize) -> Self {
        SanitizerProbe {
            fail_fast: false,
            ..SanitizerProbe::new(num_cpus)
        }
    }

    /// Overrides the full-sweep period (events between sweeps).
    pub fn with_period(mut self, period: u64) -> Self {
        self.period = period.max(1);
        self
    }

    /// Violations collected so far (always empty in fail-fast mode — it
    /// panics instead).
    pub fn violations(&self) -> &[Diagnostic] {
        &self.violations
    }

    /// `true` when no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Full sweeps performed so far.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Moves the collected violations into a [`Report`].
    pub fn drain_into(&mut self, report: &mut Report) {
        for d in self.violations.drain(..) {
            report.push(d);
        }
    }

    fn state_of(word: u64, cpu: usize) -> u64 {
        (word >> (2 * cpu)) & 0b11
    }

    fn violate(&mut self, rule: &'static str, message: String) {
        if self.fail_fast {
            panic!("coherence sanitizer: [{rule}] {message}");
        }
        self.violations.push(Diagnostic::new(
            rule,
            Severity::Error,
            Location::default(),
            message,
        ));
    }

    fn tick(&mut self) {
        self.events += 1;
        if self.events.is_multiple_of(self.period) {
            self.sweep();
        }
    }

    /// Re-verifies the sole-owner invariant across every shadowed line.
    fn sweep(&mut self) {
        self.sweeps += 1;
        let mut bad: Option<(u64, usize)> = None;
        for (line, &word) in self.shadow.iter() {
            let mut holders = 0usize;
            let mut owners = 0usize;
            for cpu in 0..self.num_cpus {
                match Self::state_of(word, cpu) {
                    ABSENT => {}
                    SHARED => holders += 1,
                    _ => {
                        holders += 1;
                        owners += 1;
                    }
                }
            }
            if owners > 1 || (owners == 1 && holders > 1) {
                bad = Some((line, holders));
                break;
            }
        }
        if let Some((line, holders)) = bad {
            self.violate(
                RULE_MULTIPLE_OWNERS,
                format!(
                    "sweep after {} events: line {line:#x} has an owned copy alongside \
                     {holders} total holders",
                    self.events
                ),
            );
        }
    }
}

impl Probe for SanitizerProbe {
    fn on_line_state(&mut self, cpu: usize, line_addr: u64, state: LineState) {
        self.inflight.remove(inflight_key(line_addr, cpu));
        let word = self.shadow.get(line_addr).copied().unwrap_or(0);
        let others = word & !(0b11 << (2 * cpu));
        let encoded = match state {
            LineState::Invalid => ABSENT,
            LineState::Shared => SHARED,
            LineState::Exclusive => EXCLUSIVE,
            LineState::Modified => MODIFIED,
        };
        if encoded != ABSENT {
            if self.page_bytes > 0 && self.flushed.contains(line_addr & !(self.page_bytes - 1)) {
                self.violate(
                    RULE_FLUSHED_ACCESS,
                    format!(
                        "CPU {cpu} fills line {line_addr:#x} on a physical page that was \
                         flushed and never remapped"
                    ),
                );
            }
            if encoded >= EXCLUSIVE && others != 0 {
                let other = (0..self.num_cpus)
                    .find(|&c| c != cpu && Self::state_of(word, c) != ABSENT)
                    .unwrap_or(0);
                self.violate(
                    RULE_MULTIPLE_OWNERS,
                    format!(
                        "CPU {cpu} takes line {line_addr:#x} {} while CPU {other} still \
                         holds a copy",
                        state.label()
                    ),
                );
            }
            if encoded == SHARED {
                if let Some(owner) =
                    (0..self.num_cpus).find(|&c| c != cpu && Self::state_of(word, c) >= EXCLUSIVE)
                {
                    self.violate(
                        RULE_SHARED_WITH_OWNER,
                        format!(
                            "CPU {cpu} fills line {line_addr:#x} shared while CPU {owner} \
                             still owns it"
                        ),
                    );
                }
            }
        }
        let new_word = others | (encoded << (2 * cpu));
        if new_word == 0 {
            self.shadow.remove(line_addr);
        } else {
            self.shadow.insert(line_addr, new_word);
        }
        self.tick();
    }

    fn on_page_flush(&mut self, page_base: u64, page_bytes: u64) {
        self.page_bytes = page_bytes;
        let mut line = page_base;
        while line < page_base + page_bytes {
            if let Some(&word) = self.shadow.get(line) {
                if word != 0 {
                    let holder = (0..self.num_cpus)
                        .find(|&c| Self::state_of(word, c) != ABSENT)
                        .unwrap_or(0);
                    self.violate(
                        RULE_STALE_FLUSH,
                        format!(
                            "page {page_base:#x} flushed while CPU {holder} still holds \
                             line {line:#x}"
                        ),
                    );
                }
            }
            // Lines are at least 16 B in every configuration; stepping by
            // the true line size would need it here, but any divisor of it
            // only adds misses against an exact-keyed map.
            line += 16;
        }
        self.flushed.insert(page_base);
        self.tick();
    }

    fn on_prefetch_issued(&mut self, cpu: usize, _cycle: u64, line_addr: u64, _stall: u64) {
        if !self.inflight.insert(inflight_key(line_addr, cpu)) {
            self.violate(
                RULE_DUPLICATE_PREFETCH,
                format!("CPU {cpu} issues a prefetch for line {line_addr:#x} twice"),
            );
        }
        self.tick();
    }

    fn on_page_fault(
        &mut self,
        _cpu: usize,
        _cycle: u64,
        _vpn: u64,
        _color: u32,
        _outcome: cdpc_obs::HintOutcome,
    ) {
        // A fault means the allocator handed out a (possibly recycled)
        // physical page. The probe vocabulary cannot map vpn → frame, so
        // conservatively forget all flushed pages rather than flag a
        // legitimate reuse.
        self.flushed.clear();
        self.tick();
    }

    fn event_count(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpc_memsim::{AccessKind, MemConfig, MemorySystem};
    use cdpc_vm::addr::{PhysAddr, VirtAddr};

    fn drive(sim: &mut MemorySystem<SanitizerProbe>) {
        // Reads, sharing, upgrades, evictions across a few pages and CPUs.
        for step in 0u64..200 {
            let cpu = (step % 4) as usize;
            let addr = ((step * 1664525) % (64 << 10)) & !0x7f;
            let kind = if step % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            sim.access(cpu, step * 100, VirtAddr(addr), PhysAddr(addr), kind);
        }
    }

    #[test]
    fn clean_on_real_coherence_traffic() {
        let mut sim = MemorySystem::with_probe(
            MemConfig::paper_base(4),
            SanitizerProbe::lenient(4).with_period(64),
        );
        drive(&mut sim);
        sim.flush_physical_page(1_000_000, PhysAddr(0));
        sim.validate_coherence();
        assert!(
            sim.probe().is_clean(),
            "violations: {:?}",
            sim.probe().violations()
        );
        assert!(sim.probe().event_count() > 0);
        assert!(sim.probe().sweeps() > 0, "periodic sweep must have run");
    }

    #[test]
    fn second_owner_is_a_violation() {
        let mut s = SanitizerProbe::lenient(4);
        s.on_line_state(0, 0x1000, LineState::Modified);
        s.on_line_state(1, 0x1000, LineState::Modified); // no invalidation first
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].rule, RULE_MULTIPLE_OWNERS);
    }

    #[test]
    fn shared_fill_under_owner_is_a_violation() {
        let mut s = SanitizerProbe::lenient(4);
        s.on_line_state(0, 0x1000, LineState::Exclusive);
        s.on_line_state(1, 0x1000, LineState::Shared); // owner was not downgraded
        assert_eq!(s.violations()[0].rule, RULE_SHARED_WITH_OWNER);
    }

    #[test]
    fn downgrade_then_share_is_clean() {
        let mut s = SanitizerProbe::lenient(4);
        s.on_line_state(0, 0x1000, LineState::Exclusive);
        s.on_line_state(0, 0x1000, LineState::Shared); // downgrade first...
        s.on_line_state(1, 0x1000, LineState::Shared); // ...then the fill
        s.on_line_state(1, 0x1000, LineState::Invalid);
        s.on_line_state(0, 0x1000, LineState::Modified); // sole holder upgrades
        assert!(s.is_clean(), "violations: {:?}", s.violations());
    }

    #[test]
    fn stale_flush_and_flushed_access_are_violations() {
        let mut s = SanitizerProbe::lenient(2);
        s.on_line_state(0, 0x1080, LineState::Modified);
        s.on_page_flush(0x1000, 0x1000); // line 0x1080 was never dropped
        assert_eq!(s.violations()[0].rule, RULE_STALE_FLUSH);

        let mut s = SanitizerProbe::lenient(2);
        s.on_line_state(0, 0x1080, LineState::Modified);
        s.on_line_state(0, 0x1080, LineState::Invalid);
        s.on_page_flush(0x1000, 0x1000);
        s.on_line_state(1, 0x1080, LineState::Exclusive); // no fault in between
        assert_eq!(s.violations()[0].rule, RULE_FLUSHED_ACCESS);

        // A page fault forgets the flush: refills are legitimate again.
        let mut s = SanitizerProbe::lenient(2);
        s.on_page_flush(0x1000, 0x1000);
        s.on_page_fault(1, 0, 7, 3, cdpc_obs::HintOutcome::Honored);
        s.on_line_state(1, 0x1080, LineState::Exclusive);
        assert!(s.is_clean());
    }

    #[test]
    fn duplicate_prefetch_is_a_violation_and_fill_clears_it() {
        let mut s = SanitizerProbe::lenient(2);
        s.on_prefetch_issued(0, 0, 0x2000, 0);
        s.on_line_state(0, 0x2000, LineState::Exclusive); // completes
        s.on_line_state(0, 0x2000, LineState::Invalid);
        s.on_prefetch_issued(0, 10, 0x2000, 0); // re-issue is fine
        assert!(s.is_clean());
        s.on_prefetch_issued(0, 20, 0x2000, 0); // still in flight
        assert_eq!(s.violations()[0].rule, RULE_DUPLICATE_PREFETCH);
    }

    #[test]
    fn sweep_runs_on_period_and_accepts_clean_shadow() {
        let mut s = SanitizerProbe::lenient(2).with_period(2);
        s.on_line_state(0, 0x1000, LineState::Shared);
        s.on_line_state(1, 0x1000, LineState::Shared);
        s.on_line_state(0, 0x2000, LineState::Modified);
        s.on_line_state(0, 0x2000, LineState::Invalid);
        assert_eq!(s.sweeps(), 2);
        assert!(s.is_clean());
    }

    #[test]
    #[should_panic(expected = "coherence sanitizer")]
    fn fail_fast_panics_on_injected_violation() {
        let mut s = SanitizerProbe::new(2);
        s.on_line_state(0, 0x1000, LineState::Modified);
        s.on_line_state(1, 0x1000, LineState::Exclusive);
    }
}
