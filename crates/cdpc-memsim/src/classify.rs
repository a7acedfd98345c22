//! Miss classification: cold / capacity / conflict / true sharing / false
//! sharing.
//!
//! The paper's Figure 2 separates *replacement* misses (capacity +
//! conflict — the misses CDPC attacks) from *communication* misses (true +
//! false sharing, per the classification of Dubois et al.). We reproduce
//! that taxonomy:
//!
//! * **Cold** — the processor has never referenced the line. (The paper's
//!   methodology discards cold misses by measuring steady-state phases;
//!   the machine layer does the same but the class is still counted.)
//! * **Conflict** — the line was evicted by a mapping collision: the miss
//!   would have *hit* in a fully-associative cache of the same capacity
//!   ([`ShadowCache`]).
//! * **Capacity** — the fully-associative shadow cache would have missed
//!   too.
//! * **True sharing** — the line was invalidated by another processor's
//!   write and the missing processor accesses a sub-block that was actually
//!   written ([`SharingTracker`]).
//! * **False sharing** — invalidated by another processor's write, but the
//!   sub-block accessed at the miss was *not* written by anyone.
//!
//! One approximation relative to Dubois: we classify a coherence miss by
//! the sub-block accessed *at the miss* rather than over the line's whole
//! subsequent lifetime, and sub-blocks are L1-line sized (32 B) rather than
//! words, because the trace generator emits references at L1-line
//! granularity. This coarsening slightly over-counts true sharing; the
//! compiler's alignment pass makes both kinds of sharing small in every
//! workload (as in the paper), so the distortion does not affect any
//! conclusion.

use std::collections::HashMap;

use cdpc_core::FxBuildHasher;

use crate::lru::LruSet;

/// Classification of an L2 (external cache) miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MissClass {
    /// First reference to the line by this processor.
    Cold,
    /// Would have missed even in a fully-associative cache: the working set
    /// simply exceeds capacity.
    Capacity,
    /// A mapping collision: a same-capacity fully-associative cache would
    /// have hit. These are the misses page mapping policies control.
    Conflict,
    /// Invalidation-caused miss on data actually written by another
    /// processor.
    TrueSharing,
    /// Invalidation-caused miss where the accessed sub-block was untouched.
    FalseSharing,
}

impl MissClass {
    /// Replacement misses — the ones CDPC eliminates.
    pub fn is_replacement(self) -> bool {
        matches!(self, MissClass::Capacity | MissClass::Conflict)
    }

    /// Communication misses — beyond the reach of page mapping.
    pub fn is_communication(self) -> bool {
        matches!(self, MissClass::TrueSharing | MissClass::FalseSharing)
    }

    /// All classes, for report iteration.
    pub const ALL: [MissClass; 5] = [
        MissClass::Cold,
        MissClass::Capacity,
        MissClass::Conflict,
        MissClass::TrueSharing,
        MissClass::FalseSharing,
    ];
}

impl From<MissClass> for cdpc_obs::MissClassId {
    fn from(class: MissClass) -> Self {
        match class {
            MissClass::Cold => cdpc_obs::MissClassId::Cold,
            MissClass::Capacity => cdpc_obs::MissClassId::Capacity,
            MissClass::Conflict => cdpc_obs::MissClassId::Conflict,
            MissClass::TrueSharing => cdpc_obs::MissClassId::TrueSharing,
            MissClass::FalseSharing => cdpc_obs::MissClassId::FalseSharing,
        }
    }
}

impl std::fmt::Display for MissClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MissClass::Cold => "cold",
            MissClass::Capacity => "capacity",
            MissClass::Conflict => "conflict",
            MissClass::TrueSharing => "true-sharing",
            MissClass::FalseSharing => "false-sharing",
        };
        f.write_str(s)
    }
}

/// Per-processor fully-associative LRU shadow cache used to split
/// replacement misses into conflict vs. capacity.
///
/// It holds the same number of lines as the real L2 and is updated on every
/// L2 reference; a real-cache miss that hits here is a conflict miss. Lines
/// are named by their L2-line *number* (line address / line size), the
/// dense key its [`LruSet`] indexes by.
#[derive(Debug, Clone)]
pub struct ShadowCache {
    lines: LruSet,
}

impl ShadowCache {
    /// Creates a shadow cache holding `capacity_lines` lines, indexing line
    /// numbers in chunks of `chunk_lines` (one page of lines).
    pub fn new(capacity_lines: usize, chunk_lines: usize) -> Self {
        Self {
            lines: LruSet::new(capacity_lines, chunk_lines),
        }
    }

    /// Records a reference to line number `line` and reports whether the
    /// fully-associative cache would have hit.
    #[inline]
    pub fn reference(&mut self, line: u64) -> bool {
        matches!(self.lines.insert(line), crate::lru::LruInsert::Hit)
    }

    /// Removes a line (on coherence invalidation, so a later miss on it is
    /// charged to communication, not to replacement).
    pub fn invalidate(&mut self, line: u64) {
        self.lines.remove(line);
    }

    /// Whether line number `line` is resident in the shadow cache.
    pub fn contains(&self, line: u64) -> bool {
        self.lines.contains(line)
    }
}

/// Word-level (sub-block-level) write tracking for true/false sharing.
///
/// When processor `w` writes a line and invalidates the copies held by other
/// processors, each victim gets a *pending record* seeded with the written
/// sub-block. Further writes by the owner accumulate into all pending
/// records. When a victim re-fetches the line, the sub-block it accesses
/// decides: written by someone else → true sharing; untouched → false
/// sharing.
#[derive(Debug, Clone, Default)]
pub struct SharingTracker {
    /// line address → (victim cpu → mask of sub-blocks written since the
    /// victim lost the line).
    pending: HashMap<u64, HashMap<u64, u64, FxBuildHasher>, FxBuildHasher>,
}

impl SharingTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `victim` lost `line_addr` to a write of `sub_block` by
    /// another processor.
    pub fn on_invalidate(&mut self, line_addr: u64, victim: usize, sub_block: u32) {
        debug_assert!(sub_block < 64);
        *self
            .pending
            .entry(line_addr)
            .or_default()
            .entry(victim as u64)
            .or_insert(0) |= 1 << sub_block;
    }

    /// Records a write of `sub_block` by `writer`; accumulates into every
    /// other processor's pending record for the line.
    pub fn on_write(&mut self, line_addr: u64, writer: usize, sub_block: u32) {
        debug_assert!(sub_block < 64);
        if let Some(victims) = self.pending.get_mut(&line_addr) {
            for (victim, mask) in victims.iter_mut() {
                if *victim != writer as u64 {
                    *mask |= 1 << sub_block;
                }
            }
        }
    }

    /// Returns `true` if `cpu` has a pending invalidation record for the
    /// line — i.e. its next miss on the line is a communication miss.
    pub fn has_pending(&self, line_addr: u64, cpu: usize) -> bool {
        self.pending
            .get(&line_addr)
            .is_some_and(|v| v.contains_key(&(cpu as u64)))
    }

    /// Resolves a coherence miss: removes the pending record and classifies
    /// by the accessed sub-block. Returns `None` when the miss was not
    /// invalidation-caused.
    pub fn classify_refetch(
        &mut self,
        line_addr: u64,
        cpu: usize,
        sub_block: u32,
    ) -> Option<MissClass> {
        debug_assert!(sub_block < 64);
        let victims = self.pending.get_mut(&line_addr)?;
        let mask = victims.remove(&(cpu as u64))?;
        if victims.is_empty() {
            self.pending.remove(&line_addr);
        }
        Some(if mask & (1 << sub_block) != 0 {
            MissClass::TrueSharing
        } else {
            MissClass::FalseSharing
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_taxonomy() {
        assert!(MissClass::Conflict.is_replacement());
        assert!(MissClass::Capacity.is_replacement());
        assert!(MissClass::TrueSharing.is_communication());
        assert!(MissClass::FalseSharing.is_communication());
        assert!(!MissClass::Cold.is_replacement());
        assert!(!MissClass::Cold.is_communication());
        assert_eq!(MissClass::ALL.len(), 5);
    }

    #[test]
    fn shadow_separates_conflict_from_capacity() {
        let mut s = ShadowCache::new(2, 32);
        assert!(!s.reference(0)); // cold in shadow
        assert!(!s.reference(1));
        assert!(
            s.reference(0),
            "still resident: a real miss here is conflict"
        );
        assert!(!s.reference(2)); // evicts 1
        assert!(
            !s.reference(1),
            "capacity-evicted: a real miss here is capacity"
        );
    }

    #[test]
    fn true_sharing_when_written_subblock_accessed() {
        let mut t = SharingTracker::new();
        t.on_invalidate(0x80, 1, 0); // cpu1 loses line, sub-block 0 written
        assert!(t.has_pending(0x80, 1));
        assert_eq!(t.classify_refetch(0x80, 1, 0), Some(MissClass::TrueSharing));
        assert!(!t.has_pending(0x80, 1));
    }

    #[test]
    fn false_sharing_when_untouched_subblock_accessed() {
        let mut t = SharingTracker::new();
        t.on_invalidate(0x80, 1, 0);
        assert_eq!(
            t.classify_refetch(0x80, 1, 3),
            Some(MissClass::FalseSharing)
        );
    }

    #[test]
    fn owner_writes_accumulate_for_all_victims() {
        let mut t = SharingTracker::new();
        t.on_invalidate(0x80, 1, 0);
        t.on_invalidate(0x80, 2, 0);
        t.on_write(0x80, 0, 3); // owner writes another sub-block
        assert_eq!(t.classify_refetch(0x80, 1, 3), Some(MissClass::TrueSharing));
        assert_eq!(
            t.classify_refetch(0x80, 2, 2),
            Some(MissClass::FalseSharing)
        );
    }

    #[test]
    fn writer_does_not_poison_its_own_record() {
        let mut t = SharingTracker::new();
        t.on_invalidate(0x80, 1, 0);
        // cpu1 later becomes the writer of a different sub-block while its
        // record is pending (e.g. write miss): its own write must not turn
        // its pending record into true sharing.
        t.on_write(0x80, 1, 5);
        assert_eq!(
            t.classify_refetch(0x80, 1, 5),
            Some(MissClass::FalseSharing)
        );
    }

    #[test]
    fn refetch_without_record_is_not_communication() {
        let mut t = SharingTracker::new();
        assert_eq!(t.classify_refetch(0x80, 1, 0), None);
    }

    #[test]
    fn shadow_invalidate_removes_line() {
        let mut s = ShadowCache::new(4, 32);
        s.reference(40);
        assert!(s.contains(40));
        s.invalidate(40);
        assert!(!s.contains(40));
    }
}
