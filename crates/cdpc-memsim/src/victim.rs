//! A victim cache: the classic *hardware* answer to conflict misses
//! (Jouppi, ISCA 1990), implemented as an extension comparison point for
//! CDPC.
//!
//! A small fully-associative buffer sits behind each external cache and
//! catches its evictions; a subsequent miss that hits the buffer swaps the
//! line back at a fraction of the memory latency. The paper's Figure 7
//! studies set associativity as the hardware mitigation — a victim cache
//! is the other classic option, and the `victim` experiment shows the same
//! conclusion: hardware absorbs conflict *hot spots* but cannot fix cache
//! *under-utilization*, which is CDPC's real win.

use crate::cache::Mesi;
use crate::lru::{LruInsert, LruSet};

/// A small fully-associative victim buffer holding recently evicted lines.
///
/// Its API takes line addresses; the recency list is an [`LruSet`] of line
/// numbers, and each buffered line's state sits in the list's node
/// [`slot`](LruSet::slot).
#[derive(Debug, Clone)]
pub struct VictimCache {
    lru: LruSet,
    /// `log2` of the line size: line address → line number.
    line_shift: u32,
    /// State of the line in each LRU slot.
    states: Vec<Mesi>,
    hits: u64,
    insertions: u64,
}

/// A dirty line pushed out of the victim cache (must be written back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimEvicted {
    /// Line address.
    pub line_addr: u64,
    /// Whether the line was dirty (`Modified`).
    pub dirty: bool,
}

impl VictimCache {
    /// Creates a victim cache holding `lines` entries of `1 << line_shift`
    /// bytes, indexing line numbers in chunks of `chunk_lines` (one page).
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero (disable by not constructing one).
    pub fn new(lines: usize, line_shift: u32, chunk_lines: usize) -> Self {
        Self {
            lru: LruSet::new(lines, chunk_lines),
            line_shift,
            states: vec![Mesi::Exclusive; lines],
            hits: 0,
            insertions: 0,
        }
    }

    /// Inserts an evicted line; returns the entry pushed out, if any.
    pub fn insert(&mut self, line_addr: u64, state: Mesi) -> Option<VictimEvicted> {
        self.insertions += 1;
        let line = line_addr >> self.line_shift;
        let outcome = self.lru.insert(line);
        // The inserted line took the evicted line's slot.
        let slot = self.lru.slot(line).expect("just inserted");
        let old_state = std::mem::replace(&mut self.states[slot], state);
        match outcome {
            LruInsert::Evicted(old) => Some(VictimEvicted {
                line_addr: old << self.line_shift,
                dirty: old_state == Mesi::Modified,
            }),
            _ => None,
        }
    }

    /// Removes and returns a line on a victim hit (the swap back into the
    /// main cache).
    pub fn take(&mut self, line_addr: u64) -> Option<Mesi> {
        let state = self.invalidate(line_addr);
        self.hits += state.is_some() as u64;
        state
    }

    /// Coherence invalidation: drop the line without counting a hit.
    /// Returns the state if it was present.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<Mesi> {
        let line = line_addr >> self.line_shift;
        let slot = self.lru.slot(line)?;
        self.lru.remove(line);
        Some(self.states[slot])
    }

    /// Whether the line is buffered.
    pub fn contains(&self, line_addr: u64) -> bool {
        self.lru.contains(line_addr >> self.line_shift)
    }

    /// Changes the coherence state of a buffered line (bus snoop).
    /// Returns `false` when the line is absent.
    pub fn set_state(&mut self, line_addr: u64, state: Mesi) -> bool {
        match self.lru.slot(line_addr >> self.line_shift) {
            Some(slot) => {
                self.states[slot] = state;
                true
            }
            None => false,
        }
    }

    /// Iterates `(line address, state)` of buffered lines, most recently
    /// inserted first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Mesi)> + '_ {
        self.lru.iter().map(|line| {
            let slot = self.lru.slot(line).expect("resident");
            (line << self.line_shift, self.states[slot])
        })
    }

    /// Lines currently buffered.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// `true` when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Swap-backs served so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total insertions so far.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_roundtrip() {
        let mut vc = VictimCache::new(2, 8, 16);
        assert!(vc.insert(0x100, Mesi::Modified).is_none());
        assert!(vc.contains(0x100));
        assert_eq!(vc.take(0x100), Some(Mesi::Modified));
        assert!(!vc.contains(0x100));
        assert_eq!(vc.hits(), 1);
    }

    #[test]
    fn capacity_evicts_lru_with_dirtiness() {
        let mut vc = VictimCache::new(2, 8, 16);
        vc.insert(0x100, Mesi::Modified);
        vc.insert(0x200, Mesi::Exclusive);
        let out = vc.insert(0x300, Mesi::Shared).expect("full buffer evicts");
        assert_eq!(out.line_addr, 0x100);
        assert!(out.dirty);
        assert_eq!(vc.len(), 2);
    }

    #[test]
    fn invalidate_does_not_count_as_hit() {
        let mut vc = VictimCache::new(2, 8, 16);
        vc.insert(0x100, Mesi::Shared);
        assert_eq!(vc.invalidate(0x100), Some(Mesi::Shared));
        assert_eq!(vc.hits(), 0);
        assert_eq!(vc.invalidate(0x100), None);
    }

    #[test]
    fn reinsertion_refreshes_state() {
        let mut vc = VictimCache::new(2, 8, 16);
        vc.insert(0x100, Mesi::Exclusive);
        vc.insert(0x100, Mesi::Modified);
        assert_eq!(vc.len(), 1);
        assert_eq!(vc.take(0x100), Some(Mesi::Modified));
    }
}
