//! Differential testing of the set-associative cache against an oracle.
//!
//! The oracle is the textbook definition: a cache is `num_sets`
//! independent fully-associative LRU caches of `associativity` entries,
//! selected by the set-index bits, each entry carrying its MESI state, its
//! prefetched mark and its `aux` tag. Any divergence between the production
//! cache and the oracle on a random operation stream is a bug.
//!
//! Streams are drawn from a seeded [`SplitMix64`], one seed per case, so
//! failures reproduce exactly by seed number with no external test
//! framework.

use cdpc_memsim::cache::{Cache, Evicted, Lookup, Mesi};
use cdpc_memsim::config::CacheConfig;
use cdpc_obs::SplitMix64;

/// One resident line of the oracle.
#[derive(Debug, Clone, Copy)]
struct Entry {
    line: u64,
    state: Mesi,
    prefetched: bool,
    aux: u64,
}

/// The oracle: per-set vectors ordered MRU-first.
struct OracleCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Entry>>,
}

impl OracleCache {
    fn new(cfg: CacheConfig) -> Self {
        Self {
            cfg,
            sets: vec![Vec::new(); cfg.num_sets()],
        }
    }

    fn set(&mut self, addr: u64) -> (&mut Vec<Entry>, Option<usize>) {
        let line = self.cfg.line_of(addr);
        let set = &mut self.sets[self.cfg.set_of(addr)];
        let pos = set.iter().position(|e| e.line == line);
        (set, pos)
    }

    /// Looks `addr` up without touching recency.
    fn entry(&mut self, addr: u64) -> Option<&mut Entry> {
        let (set, pos) = self.set(addr);
        pos.map(|p| &mut set[p])
    }

    /// A demand probe: on a hit, moves the line to the front and clears its
    /// prefetched mark, returning the state and the mark as they were.
    fn probe_demand(&mut self, addr: u64) -> Option<(Mesi, bool)> {
        let (set, pos) = self.set(addr);
        let mut e = set.remove(pos?);
        let was = (e.state, e.prefetched);
        e.prefetched = false;
        set.insert(0, e);
        Some(was)
    }

    /// Inserts a missing line at the front, evicting the LRU line of a
    /// full set.
    fn fill(&mut self, addr: u64, state: Mesi, aux: u64) -> Option<Evicted> {
        let line = self.cfg.line_of(addr);
        let assoc = self.cfg.associativity();
        let (set, pos) = self.set(addr);
        assert!(pos.is_none(), "oracle fill of a resident line");
        set.insert(
            0,
            Entry {
                line,
                state,
                prefetched: false,
                aux,
            },
        );
        (set.len() > assoc).then(|| record(set.pop().expect("over-full set")))
    }

    fn invalidate(&mut self, addr: u64) -> Option<Evicted> {
        let (set, pos) = self.set(addr);
        pos.map(|p| record(set.remove(p)))
    }

    /// Every resident line with its state, sorted.
    fn resident(&self) -> Vec<(u64, Mesi)> {
        let mut all: Vec<_> = self
            .sets
            .iter()
            .flatten()
            .map(|e| (e.line, e.state))
            .collect();
        all.sort_by_key(|&(line, _)| line);
        all
    }
}

/// The eviction record the cache must return for `e`.
fn record(e: Entry) -> Evicted {
    Evicted {
        line_addr: e.line,
        dirty: e.state == Mesi::Modified,
        state: e.state,
        aux: e.aux,
    }
}

/// A random geometry: 1–32 sets × 1–8 ways × 16–128-byte lines.
/// `CacheConfig` takes power-of-two sizes and lines, which leaves the set
/// count and the associativity powers of two as well.
fn random_config(rng: &mut SplitMix64) -> CacheConfig {
    let line = 16usize << rng.range(0, 3);
    let sets = 1usize << rng.range(0, 5);
    let assoc = 1usize << rng.range(0, 3);
    CacheConfig::new(sets * assoc * line, line, assoc)
}

/// A random access stream of 1..400 addresses below `addr_bound`.
fn random_stream(rng: &mut SplitMix64, max_len: u64, addr_bound: u64) -> Vec<u64> {
    let len = rng.range(1, max_len);
    (0..len).map(|_| rng.below(addr_bound)).collect()
}

fn random_state(rng: &mut SplitMix64) -> Mesi {
    [Mesi::Modified, Mesi::Exclusive, Mesi::Shared][rng.index(3)]
}

/// A pool of line addresses, a few of them with the highest tag bits set
/// (`u64::MAX` among them), so streams revisit lines and hit the top of
/// the tag field.
fn address_pool(rng: &mut SplitMix64, cfg: CacheConfig) -> Vec<u64> {
    let lines = (cfg.num_lines() * 2) as u64;
    let mut pool: Vec<u64> = (0..lines)
        .map(|_| match rng.below(4) {
            0 => u64::MAX - rng.below((lines * 64) << cfg.line_shift()),
            _ => rng.below((lines * 4) << cfg.line_shift()),
        })
        .collect();
    pool.push(u64::MAX);
    pool
}

/// Hit/miss decisions, victim choices, and every line's state, prefetched
/// mark and `aux` tag must match the oracle on any stream of demand
/// probes, fills, invalidations, state changes and prefetch marks. Odd
/// seeds run a cache without `aux` storage, whose records carry `aux` 0.
#[test]
fn cache_matches_oracle() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let cfg = random_config(&mut rng);
        let pool = address_pool(&mut rng, cfg);
        let with_aux = seed % 2 == 0;
        let mut cache = if with_aux {
            Cache::with_aux(cfg)
        } else {
            Cache::new(cfg)
        };
        let random_aux = |rng: &mut SplitMix64| if with_aux { rng.next_u64() } else { 0 };
        let mut oracle = OracleCache::new(cfg);
        for step in 0..rng.range(1, 600) {
            let addr = pool[rng.index(pool.len())];
            let at = format!("seed {seed} step {step} at {addr:#x}");
            match rng.below(10) {
                0 => assert_eq!(cache.invalidate(addr), oracle.invalidate(addr), "{at}"),
                1 => {
                    let state = random_state(&mut rng);
                    let resident = oracle.entry(addr).map(|e| e.state = state).is_some();
                    assert_eq!(cache.set_state(addr, state), resident, "{at}");
                }
                2 => {
                    cache.mark_prefetched(addr);
                    if let Some(e) = oracle.entry(addr) {
                        e.prefetched = true;
                    }
                }
                3 if with_aux => {
                    let aux = random_aux(&mut rng);
                    let resident = oracle.entry(addr).map(|e| e.aux = aux).is_some();
                    assert_eq!(cache.set_aux(addr, aux), resident, "{at}");
                }
                3 | 4 => {
                    let state = oracle.entry(addr).map(|e| e.state);
                    assert_eq!(cache.peek(addr).state(), state, "{at}");
                }
                _ => {
                    let hit = cache.probe_demand(addr);
                    assert_eq!(hit, oracle.probe_demand(addr), "{at}: demand probe");
                    if hit.is_none() {
                        let state = random_state(&mut rng);
                        let aux = random_aux(&mut rng);
                        assert_eq!(
                            cache.fill_tagged(addr, state, aux),
                            oracle.fill(addr, state, aux),
                            "{at}: victim"
                        );
                    }
                }
            }
        }
        let mut resident: Vec<_> = cache.resident().collect();
        resident.sort_by_key(|&(line, _)| line);
        assert_eq!(resident, oracle.resident(), "seed {seed}: resident lines");
    }
}

/// Residency never exceeds capacity, and invalidation is precise.
#[test]
fn occupancy_and_invalidation() {
    for seed in 0..128u64 {
        let mut rng = SplitMix64::new(seed);
        let cfg = random_config(&mut rng);
        let stream = random_stream(&mut rng, 199, 4096);
        let mut cache = Cache::new(cfg);
        for &addr in &stream {
            if matches!(cache.probe(addr), Lookup::Miss) {
                cache.fill(addr, Mesi::Exclusive);
            }
            assert!(
                cache.resident_lines() <= cfg.num_lines(),
                "seed {seed}: residency exceeds capacity"
            );
        }
        // Invalidate everything that is resident; the cache must empty.
        for &addr in &stream {
            cache.invalidate(cfg.line_of(addr));
        }
        assert_eq!(cache.resident_lines(), 0, "seed {seed}");
    }
}

/// `peek` never changes subsequent behavior.
#[test]
fn peek_is_pure() {
    for seed in 0..128u64 {
        let mut rng = SplitMix64::new(seed);
        let cfg = random_config(&mut rng);
        let stream = random_stream(&mut rng, 199, 2048);
        let run = |peek: bool| {
            let mut cache = Cache::new(cfg);
            let mut outcomes = Vec::new();
            for &addr in &stream {
                if peek {
                    let _ = cache.peek(addr ^ 0x40);
                }
                let hit = matches!(cache.probe(addr), Lookup::Hit(_));
                if !hit {
                    cache.fill(addr, Mesi::Exclusive);
                }
                outcomes.push(hit);
            }
            outcomes
        };
        assert_eq!(run(false), run(true), "seed {seed}");
    }
}
