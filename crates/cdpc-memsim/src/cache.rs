//! A parameterized set-associative, write-back cache with per-line MESI
//! state.
//!
//! The same structure serves as the virtually-indexed L1s (which never leave
//! `Exclusive`/`Modified` from the cache's own point of view — coherence is
//! maintained at the L2 level and pushed down as invalidations) and as the
//! physically-indexed L2s, where the MESI state participates in bus
//! snooping.
//!
//! ## Layout
//!
//! A way is one `u64`: the tag in the low [`TAG_BITS`] bits, and above it
//! the two MESI bits, the prefetched mark and the valid bit. A probe
//! compares the valid bit and the tag in one masked compare.
//!
//! Each set keeps its ways in recency order, most recent first. A hit
//! rotates its way to the front; a fill takes the set's first invalid way,
//! or else its last (least recently used) one, and rotates it to the front.
//! LRU replacement therefore needs no timestamps and no victim scan.
//!
//! The caller-supplied `aux` tags ([`Cache::fill_tagged`]) live in a
//! vector parallel to the ways, which only a cache built with
//! [`Cache::with_aux`] allocates: the memory system's L2s keep there the
//! virtual address that L1 inclusion needs, and its L1s allocate none.

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

/// Low bits of a way that hold the tag.
const TAG_BITS: u32 = 60;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
/// The line's [`Mesi`] state, as its discriminant.
const STATE_SHIFT: u32 = TAG_BITS;
const STATE_MASK: u64 = 0b11 << STATE_SHIFT;
/// Set when a prefetch filled the line and no demand probe has hit it
/// since (see [`Cache::mark_prefetched`]).
const PREFETCHED: u64 = 1 << 62;
const VALID: u64 = 1 << 63;
/// The bits a probe compares: a way holds a line iff
/// `way & KEY == VALID | tag`.
const KEY: u64 = VALID | TAG_MASK;

// The four fields tile the word, and every state fits its two bits.
const _: () = assert!(TAG_MASK ^ STATE_MASK ^ PREFETCHED ^ VALID == u64::MAX);
const _: () = assert!((Mesi::Shared as u64) << STATE_SHIFT & !STATE_MASK == 0);

/// The state packed in a valid way.
#[inline]
fn state_of(way: u64) -> Mesi {
    // A table, not a `match`, so that decoding takes no branch.
    const STATES: [Mesi; 4] = [Mesi::Modified, Mesi::Exclusive, Mesi::Shared, Mesi::Shared];
    STATES[((way & STATE_MASK) >> STATE_SHIFT) as usize]
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
    /// through [`Cache::fill`] and never re-tagged, and in a cache without
    /// `aux` storage).
    pub aux: u64,
}

/// Moves the last element of `s` to the front, the others back by one.
#[inline(always)]
fn shift_to_front(s: &mut [u64]) {
    let last = s.len() - 1;
    let moved = s[last];
    for i in (1..=last).rev() {
        s[i] = s[i - 1];
    }
    s[0] = moved;
}

/// A set-associative, write-back cache holding line *addresses* (the
/// simulator never stores data, only metadata).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `num_sets * associativity` packed ways, set-major, each set most
    /// recently used first.
    ways: Vec<u64>,
    /// The `aux` tag of each way, parallel to `ways`; empty for a cache
    /// built with [`Cache::new`].
    aux: Vec<u64>,
}

impl Cache {
    /// Creates an empty cache with the given geometry, without `aux`
    /// storage: every eviction record carries `aux` 0.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's widest tag (that of address `u64::MAX`)
    /// does not fit the way's tag field, that is, if a set stride
    /// (`line_bytes * num_sets`) is under 16 bytes. Checking once here
    /// means no probe or fill can truncate a tag into another line's.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.tag_of(u64::MAX) <= TAG_MASK,
            "{} sets of {}-byte lines need tags wider than {TAG_BITS} bits",
            cfg.num_sets(),
            cfg.line_bytes()
        );
        Self {
            cfg,
            ways: vec![0; cfg.num_sets() * cfg.associativity()],
            aux: Vec::new(),
        }
    }

    /// [`new`](Self::new) with room for an `aux` tag per way, for
    /// [`fill_tagged`](Self::fill_tagged) and [`set_aux`](Self::set_aux).
    pub fn with_aux(cfg: CacheConfig) -> Self {
        let mut cache = Self::new(cfg);
        cache.aux = vec![0; cache.ways.len()];
        cache
    }

    /// The cache's geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The index of the first way of `addr`'s set, and the [`KEY`] bits of
    /// a way holding `addr`.
    #[inline]
    fn base_and_key(&self, addr: u64) -> (usize, u64) {
        let base = self.cfg.set_of(addr) * self.cfg.associativity();
        (base, VALID | self.cfg.tag_of(addr))
    }

    /// The index of `addr`'s way, if the line is resident.
    fn find(&self, addr: u64) -> Option<usize> {
        let (base, key) = self.base_and_key(addr);
        let ways = &self.ways[base..base + self.cfg.associativity()];
        ways.iter().position(|&w| w & KEY == key).map(|p| base + p)
    }

    /// Moves the way at `base + pos` to the front of its set; the `pos`
    /// ways before it each move back by one.
    #[inline(always)]
    fn promote(&mut self, base: usize, pos: usize) {
        if pos > 0 {
            shift_to_front(&mut self.ways[base..=base + pos]);
            if !self.aux.is_empty() {
                shift_to_front(&mut self.aux[base..=base + pos]);
            }
        }
    }

    /// Finds `addr` and makes it its set's most recently used way.
    ///
    /// The front way is tested on its own first: a hit there, the common
    /// case, returns with no search and no move.
    #[inline]
    fn touch(&mut self, addr: u64) -> Option<&mut u64> {
        let (base, key) = self.base_and_key(addr);
        if self.ways[base] & KEY != key {
            let rest = &self.ways[base + 1..base + self.cfg.associativity()];
            let pos = 1 + rest.iter().position(|&w| w & KEY == key)?;
            self.promote(base, pos);
        }
        Some(&mut self.ways[base])
    }

    /// Looks up `addr`, updating LRU recency on a hit.
    pub fn probe(&mut self, addr: u64) -> Lookup {
        match self.touch(addr) {
            Some(&mut way) => Lookup::Hit(state_of(way)),
            None => Lookup::Miss,
        }
    }

    /// [`probe`](Self::probe) for a demand reference: a hit also clears the
    /// line's prefetched mark. Returns the line's state and whether the mark
    /// was set, `None` on a miss.
    pub fn probe_demand(&mut self, addr: u64) -> Option<(Mesi, bool)> {
        let way = self.touch(addr)?;
        let prefetched = *way & PREFETCHED != 0;
        *way &= !PREFETCHED;
        Some((state_of(*way), prefetched))
    }

    /// Marks a resident line as filled by a prefetch (no-op if it is not
    /// resident). The mark lasts until a
    /// [`probe_demand`](Self::probe_demand) hit or until the line leaves the
    /// cache.
    pub fn mark_prefetched(&mut self, addr: u64) {
        if let Some(i) = self.find(addr) {
            self.ways[i] |= PREFETCHED;
        }
    }

    /// Looks up `addr` without perturbing LRU state (a snoop, not an
    /// access).
    pub fn peek(&self, addr: u64) -> Lookup {
        match self.find(addr) {
            Some(i) => Lookup::Hit(state_of(self.ways[i])),
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
    ///
    /// # Panics
    ///
    /// Panics if `aux` is not 0 and the cache was built without `aux`
    /// storage ([`Cache::new`]).
    pub fn fill_tagged(&mut self, addr: u64, state: Mesi, aux: u64) -> Option<Evicted> {
        debug_assert!(self.find(addr).is_none(), "fill of resident line {addr:#x}");
        let a = self.cfg.associativity();
        let set = self.cfg.set_of(addr);
        let base = set * a;
        let pos = self.ways[base..base + a]
            .iter()
            .position(|&w| w & VALID == 0)
            .unwrap_or(a - 1);
        let filled = VALID | (state as u64) << STATE_SHIFT | self.cfg.tag_of(addr);
        let victim = std::mem::replace(&mut self.ways[base + pos], filled);
        let victim_aux = if self.aux.is_empty() {
            assert_eq!(aux, 0, "aux tag for a cache without aux storage");
            0
        } else {
            std::mem::replace(&mut self.aux[base + pos], aux)
        };
        self.promote(base, pos);
        (victim & VALID != 0).then(|| {
            let line = (victim & TAG_MASK) * self.cfg.num_sets() as u64 + set as u64;
            let state = state_of(victim);
            Evicted {
                line_addr: line << self.cfg.line_shift(),
                dirty: state == Mesi::Modified,
                state,
                aux: victim_aux,
            }
        })
    }

    /// Changes the state of a resident line. Returns `false` if the line is
    /// not resident.
    pub fn set_state(&mut self, addr: u64, state: Mesi) -> bool {
        match self.find(addr) {
            Some(i) => {
                self.ways[i] = self.ways[i] & !STATE_MASK | (state as u64) << STATE_SHIFT;
                true
            }
            None => false,
        }
    }

    /// Replaces the `aux` tag of a resident line without touching LRU
    /// state. Returns `false` if the line is not resident.
    ///
    /// # Panics
    ///
    /// Panics if the line is resident and the cache was built without
    /// `aux` storage ([`Cache::new`]).
    #[inline]
    pub fn set_aux(&mut self, addr: u64, aux: u64) -> bool {
        match self.find(addr) {
            Some(i) => {
                self.aux[i] = aux;
                true
            }
            None => false,
        }
    }

    /// Invalidates a line if resident, returning its record (state and
    /// `aux` tag). The way keeps its place in the set's recency order until
    /// a fill reuses it.
    pub fn invalidate(&mut self, addr: u64) -> Option<Evicted> {
        let i = self.find(addr)?;
        let state = state_of(self.ways[i]);
        self.ways[i] &= !VALID;
        Some(Evicted {
            line_addr: self.cfg.line_of(addr),
            dirty: state == Mesi::Modified,
            state,
            aux: self.aux.get(i).copied().unwrap_or(0),
        })
    }

    /// Number of valid lines currently resident (O(lines); for tests and
    /// reports).
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|&&w| w & VALID != 0).count()
    }

    /// Iterates the line addresses of all resident lines with their states
    /// (O(lines); for invariant checking and reports).
    pub fn resident(&self) -> impl Iterator<Item = (u64, Mesi)> + '_ {
        let a = self.cfg.associativity();
        let num_sets = self.cfg.num_sets() as u64;
        let line_shift = self.cfg.line_shift();
        self.ways
            .iter()
            .enumerate()
            .filter(|(_, &w)| w & VALID != 0)
            .map(move |(i, &w)| {
                let set = (i / a) as u64;
                (((w & TAG_MASK) * num_sets + set) << line_shift, state_of(w))
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
        let mut c = Cache::with_aux(CacheConfig::new(512, 64, 2));
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
    fn prefetched_mark_lasts_until_demand_hit_or_eviction() {
        let mut c = Cache::new(CacheConfig::new(256, 64, 1)); // 4 sets
        c.fill(0, Mesi::Exclusive);
        c.mark_prefetched(0);
        assert_eq!(c.probe(0), Lookup::Hit(Mesi::Exclusive), "probe keeps it");
        assert_eq!(c.probe_demand(0), Some((Mesi::Exclusive, true)));
        assert_eq!(c.probe_demand(0), Some((Mesi::Exclusive, false)));
        c.mark_prefetched(0);
        c.fill(256, Mesi::Exclusive); // evicts line 0 from the same set
        assert_eq!(c.probe_demand(256), Some((Mesi::Exclusive, false)));
        assert_eq!(c.probe_demand(0), None);
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
    #[should_panic(expected = "wider than 60 bits")]
    fn rejects_geometry_whose_tags_overflow_the_way() {
        // One set of 8-byte lines: address u64::MAX has a 61-bit tag.
        Cache::new(CacheConfig::new(8, 8, 1));
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
