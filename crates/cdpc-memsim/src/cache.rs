//! A parameterized set-associative, write-back cache with per-line MESI
//! state.
//!
//! The same structure serves as the virtually-indexed L1s (which never leave
//! `Exclusive`/`Modified` from the cache's own point of view — coherence is
//! maintained at the L2 level and pushed down as invalidations) and as the
//! physically-indexed L2s, where the MESI state participates in bus
//! snooping.

use crate::config::CacheConfig;

/// MESI coherence state of a resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mesi {
    /// Only copy, dirty.
    Modified,
    /// Only copy, clean.
    Exclusive,
    /// Possibly one of several copies, clean.
    Shared,
}

impl From<Mesi> for cdpc_obs::LineState {
    fn from(s: Mesi) -> Self {
        match s {
            Mesi::Modified => cdpc_obs::LineState::Modified,
            Mesi::Exclusive => cdpc_obs::LineState::Exclusive,
            Mesi::Shared => cdpc_obs::LineState::Shared,
        }
    }
}

impl Mesi {
    /// Whether a write hit in this state needs a bus upgrade first.
    pub fn needs_upgrade_for_write(self) -> bool {
        matches!(self, Mesi::Shared)
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    state: Mesi,
    /// LRU timestamp; larger = more recent.
    stamp: u64,
    valid: bool,
    /// Caller-supplied tag carried with the line and returned on eviction
    /// or invalidation. The memory system keeps an L2 line's virtual
    /// address here, so inclusion needs no physical → virtual map; the L1s
    /// leave it zero.
    aux: u64,
}

impl Way {
    const EMPTY: Way = Way {
        tag: 0,
        state: Mesi::Exclusive,
        stamp: 0,
        valid: false,
        aux: 0,
    };
}

/// What a lookup found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Line resident in the given state.
    Hit(Mesi),
    /// Line not resident.
    Miss,
}

impl Lookup {
    /// The resident line's state, `None` on a miss.
    pub fn state(self) -> Option<Mesi> {
        match self {
            Lookup::Hit(s) => Some(s),
            Lookup::Miss => None,
        }
    }
}

/// A line evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line-aligned address of the victim.
    pub line_addr: u64,
    /// `true` if the victim was in `Modified` state and must be written
    /// back.
    pub dirty: bool,
    /// The coherence state the victim held (needed when the line moves to
    /// a victim cache instead of being discarded).
    pub state: Mesi,
    /// The caller-supplied tag stored with the line (zero for lines filled
    /// through [`Cache::fill`] and never re-tagged).
    pub aux: u64,
}

/// A set-associative, write-back cache holding line *addresses* (the
/// simulator never stores data, only metadata).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    ways: Vec<Way>, // num_sets * associativity, set-major
    clock: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        Self {
            cfg,
            ways: vec![Way::EMPTY; cfg.num_sets() * cfg.associativity()],
            clock: 0,
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    fn set_slice(&self, set: usize) -> &[Way] {
        let a = self.cfg.associativity();
        &self.ways[set * a..(set + 1) * a]
    }

    fn set_slice_mut(&mut self, set: usize) -> &mut [Way] {
        let a = self.cfg.associativity();
        &mut self.ways[set * a..(set + 1) * a]
    }

    fn find(&self, addr: u64) -> Option<usize> {
        let set = self.cfg.set_of(addr);
        let tag = self.cfg.tag_of(addr);
        let a = self.cfg.associativity();
        self.set_slice(set)
            .iter()
            .position(|w| w.valid && w.tag == tag)
            .map(|i| set * a + i)
    }

    /// Looks up `addr`, updating LRU recency on a hit.
    pub fn probe(&mut self, addr: u64) -> Lookup {
        self.clock += 1;
        let clock = self.clock;
        match self.find(addr) {
            Some(i) => {
                self.ways[i].stamp = clock;
                Lookup::Hit(self.ways[i].state)
            }
            None => Lookup::Miss,
        }
    }

    /// Looks up `addr` without perturbing LRU state (a snoop, not an
    /// access).
    pub fn peek(&self, addr: u64) -> Lookup {
        match self.find(addr) {
            Some(i) => Lookup::Hit(self.ways[i].state),
            None => Lookup::Miss,
        }
    }

    /// Inserts the line containing `addr` in `state`, evicting the set's LRU
    /// way if necessary.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the line is already resident — callers must
    /// fill only after a miss.
    pub fn fill(&mut self, addr: u64, state: Mesi) -> Option<Evicted> {
        self.fill_tagged(addr, state, 0)
    }

    /// [`fill`](Self::fill) with a caller-supplied `aux` tag stored
    /// alongside the line and handed back in the eviction record.
    pub fn fill_tagged(&mut self, addr: u64, state: Mesi, aux: u64) -> Option<Evicted> {
        debug_assert!(self.find(addr).is_none(), "fill of resident line {addr:#x}");
        self.clock += 1;
        let clock = self.clock;
        let set = self.cfg.set_of(addr);
        let tag = self.cfg.tag_of(addr);
        let line_bytes = self.cfg.line_bytes() as u64;
        let num_sets = self.cfg.num_sets() as u64;
        let slice = self.set_slice_mut(set);
        let victim_idx = match slice.iter().position(|w| !w.valid) {
            Some(i) => i,
            None => {
                // Evict the LRU way.
                let (i, _) = slice
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.stamp)
                    .expect("associativity >= 1");
                i
            }
        };
        let victim = slice[victim_idx];
        slice[victim_idx] = Way {
            tag,
            state,
            stamp: clock,
            valid: true,
            aux,
        };
        if victim.valid {
            let line_addr = (victim.tag * num_sets + set as u64) * line_bytes;
            Some(Evicted {
                line_addr,
                dirty: victim.state == Mesi::Modified,
                state: victim.state,
                aux: victim.aux,
            })
        } else {
            None
        }
    }

    /// Changes the state of a resident line. Returns `false` if the line is
    /// not resident.
    pub fn set_state(&mut self, addr: u64, state: Mesi) -> bool {
        match self.find(addr) {
            Some(i) => {
                self.ways[i].state = state;
                true
            }
            None => false,
        }
    }

    /// Replaces the `aux` tag of a resident line without touching LRU
    /// state. Returns `false` if the line is not resident.
    #[inline]
    pub fn set_aux(&mut self, addr: u64, aux: u64) -> bool {
        match self.find(addr) {
            Some(i) => {
                self.ways[i].aux = aux;
                true
            }
            None => false,
        }
    }

    /// Invalidates a line if resident, returning its record (state and
    /// `aux` tag).
    pub fn invalidate(&mut self, addr: u64) -> Option<Evicted> {
        let i = self.find(addr)?;
        let way = &mut self.ways[i];
        way.valid = false;
        Some(Evicted {
            line_addr: self.cfg.line_of(addr),
            dirty: way.state == Mesi::Modified,
            state: way.state,
            aux: way.aux,
        })
    }

    /// Number of valid lines currently resident (O(lines); for tests and
    /// reports).
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }

    /// Iterates the line addresses of all resident lines with their states
    /// (O(lines); for invariant checking and reports).
    pub fn resident(&self) -> impl Iterator<Item = (u64, Mesi)> + '_ {
        let a = self.cfg.associativity();
        let num_sets = self.cfg.num_sets() as u64;
        let line_bytes = self.cfg.line_bytes() as u64;
        self.ways
            .iter()
            .enumerate()
            .filter(|(_, w)| w.valid)
            .map(move |(i, w)| {
                let set = (i / a) as u64;
                ((w.tag * num_sets + set) * line_bytes, w.state)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B lines = 512 B.
        Cache::new(CacheConfig::new(512, 64, 2))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.probe(0x100), Lookup::Miss);
        assert_eq!(c.fill(0x100, Mesi::Exclusive), None);
        assert_eq!(c.probe(0x100), Lookup::Hit(Mesi::Exclusive));
        // Same line, different byte.
        assert_eq!(c.probe(0x13f), Lookup::Hit(Mesi::Exclusive));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Three lines mapping to set 0: addresses 0, 256, 512 (set stride =
        // 4 sets * 64 B = 256 B).
        c.fill(0, Mesi::Exclusive);
        c.fill(256, Mesi::Exclusive);
        c.probe(0); // make 256 the LRU
        let ev = c.fill(512, Mesi::Exclusive).expect("full set must evict");
        assert_eq!(ev.line_addr, 256);
        assert!(!ev.dirty);
        assert_eq!(c.probe(0), Lookup::Hit(Mesi::Exclusive));
        assert_eq!(c.probe(256), Lookup::Miss);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(0, Mesi::Modified);
        c.fill(256, Mesi::Exclusive);
        let ev = c.fill(512, Mesi::Exclusive).unwrap();
        assert_eq!(ev.line_addr, 0);
        assert!(ev.dirty, "modified victim must be written back");
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheConfig::new(256, 64, 1)); // 4 sets
        c.fill(0, Mesi::Exclusive);
        // 256 maps to the same set in a 256-byte direct-mapped cache.
        let ev = c.fill(256, Mesi::Exclusive).unwrap();
        assert_eq!(ev.line_addr, 0);
    }

    #[test]
    fn set_state_and_upgrade_predicate() {
        let mut c = tiny();
        c.fill(0x40, Mesi::Shared);
        assert!(matches!(c.probe(0x40), Lookup::Hit(Mesi::Shared)));
        assert!(Mesi::Shared.needs_upgrade_for_write());
        assert!(c.set_state(0x40, Mesi::Modified));
        assert!(matches!(c.probe(0x40), Lookup::Hit(Mesi::Modified)));
        assert!(!c.set_state(0x9999, Mesi::Shared));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(0x80, Mesi::Modified);
        c.set_aux(0x80, 7);
        let gone = c.invalidate(0x80).expect("resident");
        assert_eq!(
            (gone.line_addr, gone.state, gone.aux),
            (0x80, Mesi::Modified, 7)
        );
        assert!(gone.dirty);
        assert_eq!(c.probe(0x80), Lookup::Miss);
        assert_eq!(c.invalidate(0x80), None);
        assert!(!c.set_aux(0x80, 7), "no resident line to tag");
    }

    #[test]
    fn peek_does_not_perturb_lru() {
        let mut c = tiny();
        c.fill(0, Mesi::Exclusive);
        c.fill(256, Mesi::Exclusive);
        // peek(0) then fill: victim should be 0 (LRU), since peek didn't
        // refresh it.
        assert_eq!(c.peek(0), Lookup::Hit(Mesi::Exclusive));
        let ev = c.fill(512, Mesi::Exclusive).unwrap();
        assert_eq!(ev.line_addr, 0);
    }

    #[test]
    fn resident_count_tracks_fills() {
        let mut c = tiny();
        assert_eq!(c.resident_lines(), 0);
        c.fill(0, Mesi::Exclusive);
        c.fill(64, Mesi::Exclusive);
        assert_eq!(c.resident_lines(), 2);
        c.invalidate(0);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn full_cache_occupancy_never_exceeds_ways() {
        let mut c = tiny();
        for i in 0..64 {
            c.fill(i * 64, Mesi::Exclusive);
        }
        assert_eq!(c.resident_lines(), 8); // 4 sets * 2 ways
    }
}
