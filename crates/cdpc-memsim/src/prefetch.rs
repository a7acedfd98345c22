//! The MIPS R10000-style prefetch unit modeled by the paper's SimOS CPUs.
//!
//! Semantics (paper §6.2): up to four prefetches may be outstanding; issuing
//! a fifth stalls the processor until a slot frees; prefetches to pages not
//! mapped in the TLB are silently dropped; prefetched lines are inserted
//! into the external cache but not the on-chip cache.
//!
//! This module keeps one processor's outstanding prefetches; the memory
//! side (TLB probe, residency check, bus transaction, fill on completion)
//! lives in [`system`](crate::system).

use crate::cache::Mesi;

/// One issued prefetch. It holds a slot until `completion`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Prefetch {
    /// Cycle at which the line arrives and the slot frees.
    pub completion: u64,
    /// Physical address of the L2 line.
    pub line: u64,
    /// State granted at issue, or `None` once coherence cancelled the
    /// prefetch: a cancelled prefetch fills nothing but keeps its slot.
    pub state: Option<Mesi>,
}

/// One processor's outstanding prefetches, ordered by `(completion, line)`
/// so that the earliest is first and fills apply in a physical order.
#[derive(Debug, Clone, Default)]
pub(crate) struct InFlight(Vec<Prefetch>);

impl InFlight {
    /// Records a prefetch issued in `state`, completing at `completion`.
    pub fn push(&mut self, completion: u64, line: u64, state: Mesi) {
        let at = self
            .0
            .partition_point(|p| (p.completion, p.line) <= (completion, line));
        self.0.insert(
            at,
            Prefetch {
                completion,
                line,
                state: Some(state),
            },
        );
    }

    /// Whether no prefetch is outstanding.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Removes and returns the earliest prefetch if it completed by `now`.
    #[inline]
    pub fn pop_due(&mut self, now: u64) -> Option<Prefetch> {
        match self.0.first() {
            Some(p) if p.completion <= now => Some(self.0.remove(0)),
            _ => None,
        }
    }

    /// Completion cycle of the live (not cancelled) prefetch of `line`.
    #[inline]
    pub fn live(&self, line: u64) -> Option<u64> {
        self.0
            .iter()
            .find(|p| p.line == line && p.state.is_some())
            .map(|p| p.completion)
    }

    /// Cancels the live prefetch of `line`, which keeps its slot until it
    /// completes. Returns `false` if there was none.
    pub fn cancel(&mut self, line: u64) -> bool {
        match self
            .0
            .iter_mut()
            .find(|p| p.line == line && p.state.is_some())
        {
            Some(p) => {
                p.state = None;
                true
            }
            None => false,
        }
    }

    /// The cycle at which a prefetch requested at `now` gets one of `max`
    /// slots: `now` if one is free, otherwise the earliest completion among
    /// the busy ones (the processor stalls until then).
    pub fn slot_free_at(&self, now: u64, max: usize) -> u64 {
        let busy = &self.0[self.0.partition_point(|p| p.completion <= now)..];
        if busy.len() < max {
            now
        } else {
            busy[0].completion
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_grant_until_full() {
        let mut p = InFlight::default();
        for i in 0..4 {
            assert_eq!(p.slot_free_at(100, 4), 100, "slot {i} is free");
            p.push(200 + i, i * 128, Mesi::Exclusive);
        }
        assert_eq!(p.slot_free_at(100, 4), 200, "all four busy");
    }

    #[test]
    fn fifth_prefetch_stalls_until_earliest_completes() {
        let mut p = InFlight::default();
        for (i, c) in [300, 150, 250, 200].into_iter().enumerate() {
            p.push(c, i as u64 * 128, Mesi::Shared);
        }
        assert_eq!(
            p.slot_free_at(120, 4),
            150,
            "stall until the 150-cycle completion"
        );
        assert_eq!(p.pop_due(149), None);
        assert_eq!(p.pop_due(150).map(|e| e.completion), Some(150));
    }

    #[test]
    fn completed_prefetches_free_slots() {
        let mut p = InFlight::default();
        p.push(50, 0, Mesi::Exclusive);
        p.push(60, 128, Mesi::Exclusive);
        assert_eq!(p.slot_free_at(55, 2), 55);
        assert_eq!(p.pop_due(55).map(|e| e.line), Some(0));
        assert_eq!(p.live(128), Some(60));
    }

    #[test]
    fn completion_exactly_now_counts_as_done() {
        let mut p = InFlight::default();
        p.push(50, 0, Mesi::Exclusive);
        assert_eq!(p.slot_free_at(50, 1), 50);
        assert_eq!(p.pop_due(50).map(|e| e.completion), Some(50));
    }
}
