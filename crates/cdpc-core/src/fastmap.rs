//! Hashing and dense-index primitives for the simulator's `u64`-keyed
//! tables.
//!
//! The memory simulator's per-reference tables (the shadow cache's, the
//! TLB's and the victim buffer's LRU index, the coherence directory) are
//! keyed by *dense* identifiers — L2-line numbers and virtual page numbers,
//! both bounded by the simulated footprint. They index straight into a
//! chunked array ([`DenseMap64`]): no hashing, and one chunk per page of
//! keys, so a table grows with the pages actually touched rather than with
//! the whole address space.
//!
//! The remaining sparse tables (sharing records, the run loop's conflict
//! counters, the sanitizer) are std `HashMap`/`HashSet` over
//! [`FxBuildHasher`]: the Firefox/rustc "Fx" multiply hash, one wrapping
//! multiply by a 64-bit odd constant, then a rotate. std's default
//! SipHash-1-3 is DoS-resistant but costs tens of cycles per lookup; keys
//! here are simulated addresses, not attacker-controlled input, so
//! hash-flooding resistance buys nothing.
//!
//! The hasher is fixed, not seeded per process like std's `RandomState`,
//! so a table's iteration order is the same from one run to the next.
//! Deterministic simulation must still not depend on that order (callers
//! sort where order reaches results), but the stability removes one class
//! of run-to-run divergence.

use std::collections::BTreeMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / golden ratio, forced odd — the classic Fibonacci-hashing
/// multiplier also used by rustc's `FxHasher` for the final mix.
const FX_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The Fx hasher: for a single `u64` key `k`, [`finish`](Hasher::finish)
/// returns `k.wrapping_mul(FX_SEED).rotate_left(26)`.
///
/// The rotate is load-bearing. The std table picks a bucket from the low
/// bits of the hash, and a bare multiply leaves the low 7 bits zero for
/// 128-byte-aligned line addresses; rotating brings the well-mixed high
/// bits down.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher64 {
    hash: u64,
}

impl Hasher for FxHasher64 {
    #[inline]
    fn write_u64(&mut self, k: u64) {
        self.hash = (self.hash.rotate_left(5) ^ k).wrapping_mul(FX_SEED);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher64`]s; the hasher for every simulator `HashMap` and
/// `HashSet` keyed by an address.
pub type FxBuildHasher = BuildHasherDefault<FxHasher64>;

/// Keys below this index live in [`DenseMap64`]'s chunk table; larger
/// ones spill to an ordered map. The table holds one `u32` per chunk up to
/// the largest key stored, so with 32-key chunks (a 4 KB page of 128-byte
/// lines) it tops out at 8 MB.
const DENSE_MAP_LIMIT: u64 = 1 << 26;

/// [`DenseMap64::chunks`] entry of a chunk that holds no block yet.
const NO_CHUNK: u32 = u32::MAX;

/// A total map from `u64` keys to small `Copy` values in which every key
/// starts out at a default value: a lazily allocated, chunked array for
/// keys below [`DENSE_MAP_LIMIT`], an ordered spill map for the rest.
///
/// Built for tables keyed by dense identifiers (L2-line numbers, virtual
/// page numbers) and probed on every simulated reference: a lookup is a
/// shift, a bounds check and two array reads, with no hashing. Keys are
/// grouped into chunks of `chunk_keys` consecutive keys — callers size a
/// chunk to one page of keys — and a chunk's block of values is allocated
/// the first time one of its keys is set to a non-default value, so
/// memory follows the pages actually touched. Blocks are never freed:
/// a key set back to the default keeps its chunk. Storing the default
/// into a chunk that has no block allocates nothing, and in the spill it
/// removes the key, so far keys cost memory only while they hold a value.
#[derive(Debug, Clone)]
pub struct DenseMap64<T> {
    /// `log2(chunk_keys)`.
    shift: u32,
    /// The value every key reads as until it is set.
    default: T,
    /// Chunk number (`key >> shift`) → block number in `slots`, or
    /// [`NO_CHUNK`].
    chunks: Vec<u32>,
    /// Blocks of `1 << shift` values, one per allocated chunk.
    slots: Vec<T>,
    /// Keys at or above [`DENSE_MAP_LIMIT`] that hold a non-default value.
    spill: BTreeMap<u64, T>,
}

impl<T: Copy + PartialEq> DenseMap64<T> {
    /// Creates a map in which every key reads as `default`, allocating
    /// values `chunk_keys` at a time.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_keys` is not a power of two.
    pub fn new(chunk_keys: usize, default: T) -> Self {
        assert!(
            chunk_keys.is_power_of_two(),
            "chunk size must be a power of two"
        );
        Self {
            shift: chunk_keys.trailing_zeros(),
            default,
            chunks: Vec::new(),
            slots: Vec::new(),
            spill: BTreeMap::new(),
        }
    }

    /// The value stored at `key` (the default if it was never set).
    #[inline]
    pub fn get(&self, key: u64) -> T {
        if key < DENSE_MAP_LIMIT {
            match self.chunks.get((key >> self.shift) as usize) {
                Some(&block) if block != NO_CHUNK => self.slots[self.slot(block, key)],
                _ => self.default,
            }
        } else {
            self.spill.get(&key).copied().unwrap_or(self.default)
        }
    }

    /// Stores `value` at `key`.
    #[inline]
    pub fn set(&mut self, key: u64, value: T) {
        if key >= DENSE_MAP_LIMIT {
            if value == self.default {
                self.spill.remove(&key);
            } else {
                self.spill.insert(key, value);
            }
            return;
        }
        let chunk = (key >> self.shift) as usize;
        let block = match self.chunks.get(chunk) {
            Some(&block) if block != NO_CHUNK => block,
            _ if value == self.default => return,
            _ => self.alloc_block(chunk),
        };
        let slot = self.slot(block, key);
        self.slots[slot] = value;
    }

    /// Iterates the keys holding a non-default value, in ascending key
    /// order, with their values (O(allocated chunks); for invariant checks
    /// and tests, not the reference path).
    pub fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        let dense = self
            .chunks
            .iter()
            .enumerate()
            .filter(|&(_, &block)| block != NO_CHUNK)
            .flat_map(move |(chunk, &block)| {
                let start = (block as usize) << self.shift;
                let values = &self.slots[start..start + (1 << self.shift)];
                values
                    .iter()
                    .enumerate()
                    .map(move |(i, &v)| (((chunk as u64) << self.shift) | i as u64, v))
            });
        dense
            .chain(self.spill.iter().map(|(&k, &v)| (k, v)))
            .filter(move |&(_, v)| v != self.default)
    }

    /// Values held in allocated blocks: the chunk size times the number
    /// of chunks ever given a non-default value (spilled keys excluded).
    pub fn allocated(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn slot(&self, block: u32, key: u64) -> usize {
        ((block as usize) << self.shift) | (key as usize & ((1 << self.shift) - 1))
    }

    #[cold]
    fn alloc_block(&mut self, chunk: usize) -> u32 {
        if chunk >= self.chunks.len() {
            self.chunks.resize(chunk + 1, NO_CHUNK);
        }
        let block = (self.slots.len() >> self.shift) as u32;
        self.slots
            .resize(self.slots.len() + (1 << self.shift), self.default);
        self.chunks[chunk] = block;
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn line_addresses_spread_over_low_hash_bits() {
        // The std table takes a bucket from the low hash bits. A bare
        // multiply puts 1024 consecutive 128-byte-aligned lines into 8 of
        // 1024 buckets; a uniform random hash fills about 1 - 1/e of them
        // (~647), and this hash fills 789.
        let build = FxBuildHasher::default();
        let buckets: HashSet<u64> = (0..1024u64)
            .map(|i| build.hash_one(0x4000_0000 + i * 128) & 1023)
            .collect();
        assert!(
            buckets.len() >= 600,
            "only {} of 1024 buckets",
            buckets.len()
        );
    }

    #[test]
    fn dense_map_reads_default_until_set() {
        let mut m = DenseMap64::new(32, 7u32);
        assert_eq!(m.get(0), 7);
        assert_eq!(m.get(1_000), 7);
        m.set(33, 1);
        m.set(1_000, 2);
        assert_eq!((m.get(33), m.get(1_000), m.get(34)), (1, 2, 7));
        m.set(33, 7);
        assert_eq!(m.get(33), 7);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(1_000, 2)]);
    }

    #[test]
    fn dense_map_allocates_one_block_per_touched_chunk() {
        let mut m = DenseMap64::new(32, 0u64);
        // Setting the default into an untouched chunk allocates nothing.
        m.set(5_000, 0);
        assert!(m.chunks.is_empty() && m.slots.is_empty());
        for k in [0, 31, 64, 95, 4_096] {
            m.set(k, k + 1);
        }
        assert_eq!(m.slots.len(), 3 * 32, "chunks 0, 2 and 128");
        assert_eq!(m.chunks.len(), 4_096 / 32 + 1);
        let got: Vec<_> = m.iter().collect();
        assert_eq!(
            got,
            vec![(0, 1), (31, 32), (64, 65), (95, 96), (4_096, 4_097)]
        );
    }

    #[test]
    fn dense_map_spills_far_keys_without_huge_allocations() {
        let mut m = DenseMap64::new(32, u32::MAX);
        for (i, k) in [u64::MAX, u64::MAX / 2, DENSE_MAP_LIMIT]
            .into_iter()
            .enumerate()
        {
            m.set(k, i as u32);
            assert_eq!(m.get(k), i as u32);
        }
        assert!(m.chunks.is_empty() && m.slots.is_empty());
        assert_eq!(m.spill.len(), 3);
        m.set(u64::MAX / 2, u32::MAX);
        assert_eq!(
            m.spill.len(),
            2,
            "storing the default removes a spilled key"
        );
        assert_eq!(m.get(u64::MAX / 2), u32::MAX);
        let keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![DENSE_MAP_LIMIT, u64::MAX]);
    }
}
