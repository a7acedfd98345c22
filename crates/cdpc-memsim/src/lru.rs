//! A fixed-capacity LRU set of dense `u64` keys, shared by the
//! fully-associative shadow cache that separates conflict misses from
//! capacity misses (keys: L2-line numbers), the TLB (virtual page numbers)
//! and the victim buffer (L2-line numbers).
//!
//! A slab-allocated doubly-linked list holds recency; a [`DenseMap64`]
//! indexed by the key itself finds a key's node, so `touch`/`insert`/
//! `remove` are O(1) with no hashing. The shadow cache for the paper's
//! 1 MB L2 holds 8192 lines and is touched on every L2 access, so constant
//! factors matter: a touch of the key that is already most recently used
//! (the common case when consecutive L1 misses fall in one L2 line or one
//! page) returns after one comparison, before the index is read.

use cdpc_core::DenseMap64;

/// "No node": an empty list end, or a key with no node in the index.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    prev: u32,
    next: u32,
}

/// A fixed-capacity LRU set of `u64` keys.
#[derive(Debug, Clone)]
pub struct LruSet {
    capacity: usize,
    /// Key → index of its node in `nodes`, [`NIL`] when absent.
    index: DenseMap64<u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
}

/// Result of inserting a key into an [`LruSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LruInsert {
    /// The key was already present (and has been moved to MRU).
    Hit,
    /// The key was inserted without eviction.
    Inserted,
    /// The key was inserted and the returned LRU key was evicted.
    Evicted(u64),
}

impl LruSet {
    /// Creates an empty set that holds at most `capacity` keys, indexing
    /// them in chunks of `chunk_keys` consecutive keys (callers pass the
    /// keys per page, so the index grows with the pages touched).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `chunk_keys` is not a power of two.
    pub fn new(capacity: usize, chunk_keys: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        Self {
            capacity,
            index: DenseMap64::new(chunk_keys, NIL),
            nodes: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of keys currently resident.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Returns `true` when no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns `true` if `key` is resident (without touching recency).
    pub fn contains(&self, key: u64) -> bool {
        self.index.get(key) != NIL
    }

    /// Touches `key` if resident, making it most-recently-used.
    /// Returns `true` on hit.
    #[inline]
    pub fn touch(&mut self, key: u64) -> bool {
        if self.head != NIL && self.nodes[self.head as usize].key == key {
            return true;
        }
        match self.index.get(key) {
            NIL => false,
            idx => {
                self.unlink(idx);
                self.push_front(idx);
                true
            }
        }
    }

    /// Inserts `key` as most-recently-used, evicting the LRU key if full.
    /// An inserted key takes the node [`slot`](Self::slot) the evicted key
    /// held.
    #[inline]
    pub fn insert(&mut self, key: u64) -> LruInsert {
        if self.touch(key) {
            return LruInsert::Hit;
        }
        let mut evicted = None;
        if self.len() == self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            let old_key = self.nodes[lru as usize].key;
            self.unlink(lru);
            self.index.set(old_key, NIL);
            self.free.push(lru);
            evicted = Some(old_key);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize].key = key;
                i
            }
            None => {
                self.nodes.push(Node {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.index.set(key, idx);
        self.push_front(idx);
        match evicted {
            Some(k) => LruInsert::Evicted(k),
            None => LruInsert::Inserted,
        }
    }

    /// Removes `key`, returning `true` if it was resident.
    pub fn remove(&mut self, key: u64) -> bool {
        match self.index.get(key) {
            NIL => false,
            idx => {
                self.index.set(key, NIL);
                self.unlink(idx);
                self.free.push(idx);
                true
            }
        }
    }

    /// The node slot holding `key`, if resident: an index below
    /// [`capacity`](Self::capacity), stable while the key stays resident,
    /// for callers that keep a value per resident key in a parallel array.
    pub fn slot(&self, key: u64) -> Option<usize> {
        match self.index.get(key) {
            NIL => None,
            idx => Some(idx as usize),
        }
    }

    /// Iterates keys from most- to least-recently-used.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            cursor: self.head,
        }
    }

    fn unlink(&mut self, idx: u32) {
        let node = self.nodes[idx as usize];
        if node.prev != NIL {
            self.nodes[node.prev as usize].next = node.next;
        } else if self.head == idx {
            self.head = node.next;
        }
        if node.next != NIL {
            self.nodes[node.next as usize].prev = node.prev;
        } else if self.tail == idx {
            self.tail = node.prev;
        }
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = NIL;
    }

    fn push_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// Iterator over an [`LruSet`] from MRU to LRU; see [`LruSet::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a LruSet,
    cursor: u32,
}

impl Iterator for Iter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.cursor == NIL {
            return None;
        }
        let node = self.set.nodes[self.cursor as usize];
        self.cursor = node.next;
        Some(node.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_hit() {
        let mut l = LruSet::new(2, 4);
        assert_eq!(l.insert(1), LruInsert::Inserted);
        assert_eq!(l.insert(2), LruInsert::Inserted);
        assert_eq!(l.insert(1), LruInsert::Hit);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn eviction_removes_least_recent() {
        let mut l = LruSet::new(2, 4);
        l.insert(1);
        l.insert(2);
        l.touch(1); // 2 becomes LRU
        assert_eq!(l.insert(3), LruInsert::Evicted(2));
        assert!(l.contains(1));
        assert!(l.contains(3));
        assert!(!l.contains(2));
    }

    #[test]
    fn iteration_is_mru_to_lru() {
        let mut l = LruSet::new(3, 4);
        l.insert(1);
        l.insert(2);
        l.insert(3);
        l.touch(1);
        let order: Vec<u64> = l.iter().collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn remove_frees_capacity() {
        let mut l = LruSet::new(2, 4);
        l.insert(1);
        l.insert(2);
        assert!(l.remove(1));
        assert!(!l.remove(1));
        assert_eq!(l.insert(3), LruInsert::Inserted);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut l = LruSet::new(2, 4);
        for round in 0..100u64 {
            l.insert(round);
        }
        // Capacity bounded regardless of churn.
        assert_eq!(l.len(), 2);
        assert!(l.nodes.len() <= 3, "slab should recycle nodes");
    }

    #[test]
    fn capacity_one_behaves() {
        let mut l = LruSet::new(1, 4);
        assert_eq!(l.insert(5), LruInsert::Inserted);
        assert_eq!(l.insert(6), LruInsert::Evicted(5));
        assert_eq!(l.insert(6), LruInsert::Hit);
        let order: Vec<u64> = l.iter().collect();
        assert_eq!(order, vec![6]);
    }

    #[test]
    fn mirrors_a_naive_model() {
        // Randomized differential test against a Vec-based LRU. With
        // 4-key chunks the near keys span seven chunks (one of them far
        // from the rest), and the far keys take the index's spill path.
        const FAR: [u64; 4] = [u64::MAX / 2, u64::MAX, 1 << 26, 1 << 40];
        let mut fast = LruSet::new(8, 4);
        let mut slow: Vec<u64> = Vec::new(); // front = MRU
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = match state % 32 {
                k @ 0..=23 => k,
                k @ 24..=27 => 4_000 + k,
                k => FAR[k as usize - 28],
            };
            let hit_fast = matches!(fast.insert(key), LruInsert::Hit);
            let hit_slow = slow.iter().position(|&k| k == key).map(|i| {
                slow.remove(i);
            });
            slow.insert(0, key);
            if slow.len() > 8 {
                slow.pop();
            }
            assert_eq!(hit_fast, hit_slow.is_some(), "hit mismatch for {key}");
            assert_eq!(fast.iter().collect::<Vec<_>>(), slow, "order mismatch");
            if state.is_multiple_of(7) {
                let victim = slow[(state % slow.len() as u64) as usize];
                assert!(fast.remove(victim));
                slow.retain(|&k| k != victim);
                assert!(!fast.contains(victim));
            }
        }
        // Only the near keys' chunks hold index blocks: 0..24 and
        // 4024..4028 cover seven 4-key chunks, whatever the far keys did.
        assert_eq!(fast.index.allocated(), 7 * 4);
    }
}
