//! The Cached Mapping Table: an exact-LRU cache with split hit counters.
//!
//! "The entries in CMT are organized in an LRU stack and a new entry cached
//! from NVM will evict the least-recently-used entry" (§3.1). SAWL's
//! region-split heuristic additionally needs "two registers to record the
//! cache hit counts of the first and the second half of the CMT entries
//! queue" (§3.2) — i.e. whether each hit landed in the hot (MRU) half or
//! the cold half of the stack.
//!
//! Knowing which half a node is in is an order-statistics question; a naive
//! answer walks the list. We instead maintain a **boundary pointer** to the
//! last node of the first half plus a count, giving O(1) lookup, insert,
//! evict and half-tracking: when a node from the second half moves to the
//! front, the old boundary node is demoted and the boundary steps back.
//!
//! The `reference_model` test drives the cache against a brute-force
//! `VecDeque` implementation with thousands of mixed operations.
//!
//! The key index hashes with `RegionHasher`, a fixed full-avalanche
//! finalizer in place of std's randomly keyed SipHash: SAWL probes the
//! index five times per exchange cycle, so the hash sits on the hot path
//! (DESIGN.md §10 item 4).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for region-base keys: murmur3's `fmix64` finalizer over the
/// 64-bit key. hashbrown takes the bucket from the low bits and the tag
/// from the top 7, and merged-region bases are multiples of `2^k`, so a
/// bare multiply (which leaves the low bits zero) would pile them into a
/// few buckets; `fmix64` lets every key bit reach every hash bit. The keys
/// are region bases the engines compute, and checkpoint restore caps the
/// entries at capacity, so a fixed hasher opens no flooding surface.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RegionHasher(u64);

impl RegionHasher {
    /// murmur3's 64-bit finalizer.
    #[inline]
    fn fmix64(mut k: u64) -> u64 {
        k ^= k >> 33;
        k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
        k ^= k >> 33;
        k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        k ^ (k >> 33)
    }
}

impl Hasher for RegionHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = Self::fmix64(self.0 ^ n);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// A map keyed by region base, hashed with [`RegionHasher`].
pub(crate) type RegionMap<V> = HashMap<u64, V, BuildHasherDefault<RegionHasher>>;

/// A slot index in the intrusive list; `NIL` means "none".
type Idx = u32;
const NIL: Idx = u32::MAX;

#[derive(Debug, Clone)]
struct Node<V> {
    key: u64,
    val: V,
    prev: Idx,
    next: Idx,
    in_first: bool,
}

/// Result of a CMT lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmtLookup<V> {
    /// Entry found; it has been moved to the MRU position.
    Hit(V),
    /// Entry absent; the caller must fetch from the IMT and insert.
    Miss,
}

/// Exact-LRU Cached Mapping Table with split hit counters.
#[derive(Debug, Clone)]
pub struct Cmt<V> {
    nodes: Vec<Node<V>>,
    map: RegionMap<Idx>,
    free: Vec<Idx>,
    head: Idx,
    tail: Idx,
    /// Last node of the first (MRU) half; NIL when empty.
    boundary: Idx,
    /// Number of nodes currently in the first half.
    first_count: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    hits_first: u64,
    hits_second: u64,
    evictions: u64,
}

impl<V: Copy> Cmt<V> {
    /// Cache holding at most `capacity` entries (`>= 2`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "CMT needs at least two entries");
        Self {
            nodes: Vec::with_capacity(capacity),
            map: RegionMap::with_capacity_and_hasher(capacity * 2, Default::default()),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            boundary: NIL,
            first_count: 0,
            capacity,
            hits: 0,
            misses: 0,
            hits_first: 0,
            hits_second: 0,
            evictions: 0,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total hits since the last counter reset.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses since the last counter reset.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hits that landed in the first (MRU) half of the stack.
    pub fn hits_first_half(&self) -> u64 {
        self.hits_first
    }

    /// Hits that landed in the second (LRU) half of the stack.
    pub fn hits_second_half(&self) -> u64 {
        self.hits_second
    }

    /// Evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hit rate since the last counter reset (0 when no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Reset the hit/miss/split counters (capacity and contents stay).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.hits_first = 0;
        self.hits_second = 0;
    }

    /// Drop every cached entry, keeping capacity and the cumulative
    /// hit/miss counters. This models a power loss: the CMT is on-chip
    /// SRAM, so crash recovery restarts it cold while the adaptation
    /// layer's counter snapshots (journaled host state) stay monotonic.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.map.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.boundary = NIL;
        self.first_count = 0;
    }

    /// Target size of the first half for the current occupancy.
    #[inline]
    fn first_target(&self) -> usize {
        self.map.len().div_ceil(2)
    }

    /// Checkpoint the cache: counters plus the `(key, value)` stack from
    /// MRU to LRU. Values are written through `save_val` since the CMT is
    /// generic. Rebuilding from MRU order reproduces the exact LRU stack
    /// (and therefore the half-boundary) on restore.
    pub fn ckpt_save(
        &self,
        w: &mut sawl_ckpt::Writer,
        mut save_val: impl FnMut(&V, &mut sawl_ckpt::Writer),
    ) {
        w.put_u64(self.capacity as u64);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.hits_first);
        w.put_u64(self.hits_second);
        w.put_u64(self.evictions);
        w.put_u64(self.map.len() as u64);
        for (k, v) in self.iter_mru() {
            w.put_u64(k);
            save_val(&v, w);
        }
    }

    /// Restore a cache saved by [`ckpt_save`](Self::ckpt_save) into an
    /// instance built with the same capacity.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
        mut load_val: impl FnMut(&mut sawl_ckpt::Reader<'_>) -> Result<V, sawl_ckpt::CkptError>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        let capacity = r.get_u64()?;
        if capacity != self.capacity as u64 {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "cmt: capacity {capacity} in checkpoint, {} in instance",
                self.capacity
            )));
        }
        let hits = r.get_u64()?;
        let misses = r.get_u64()?;
        let hits_first = r.get_u64()?;
        let hits_second = r.get_u64()?;
        let evictions = r.get_u64()?;
        let len = r.get_u64()?;
        if len > capacity {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "cmt: {len} entries over capacity {capacity}"
            )));
        }
        let mut mru: Vec<(u64, V)> = Vec::with_capacity(len as usize);
        for _ in 0..len {
            let k = r.get_u64()?;
            mru.push((k, load_val(r)?));
        }
        self.clear();
        // Inserting LRU-first reproduces the MRU order; `insert` detects
        // duplicate keys by not growing the map.
        for &(k, ref v) in mru.iter().rev() {
            self.insert(k, *v);
        }
        if self.map.len() != mru.len() {
            return Err(sawl_ckpt::CkptError::Corrupt("cmt: duplicate keys in stack".into()));
        }
        self.hits = hits;
        self.misses = misses;
        self.hits_first = hits_first;
        self.hits_second = hits_second;
        self.evictions = evictions;
        Ok(())
    }

    /// Look up `key`; a hit moves the entry to the MRU position and is
    /// attributed to the half it was found in.
    pub fn lookup(&mut self, key: u64) -> CmtLookup<V> {
        match self.map.get(&key) {
            Some(&idx) => {
                self.hits += 1;
                if self.nodes[idx as usize].in_first {
                    self.hits_first += 1;
                } else {
                    self.hits_second += 1;
                }
                let val = self.nodes[idx as usize].val;
                self.move_to_front(idx);
                CmtLookup::Hit(val)
            }
            None => {
                self.misses += 1;
                CmtLookup::Miss
            }
        }
    }

    /// Record `k` repeated hits to a cached `key` in one step — equivalent
    /// to calling [`Cmt::lookup`] `k` times. The first hit is attributed
    /// to the half the entry currently sits in; the entry then moves to
    /// the MRU position (first half), where the remaining `k - 1` hits
    /// land. Panics if `key` is not cached.
    pub fn record_hits(&mut self, key: u64, k: u64) {
        if k == 0 {
            return;
        }
        let idx = *self.map.get(&key).expect("record_hits on uncached key");
        self.hits += k;
        if self.nodes[idx as usize].in_first {
            self.hits_first += k;
        } else {
            self.hits_second += 1;
            self.hits_first += k - 1;
        }
        self.move_to_front(idx);
    }

    /// Read without affecting LRU order or counters.
    pub fn peek(&self, key: u64) -> Option<V> {
        self.map.get(&key).map(|&idx| self.nodes[idx as usize].val)
    }

    /// Update the value of a cached entry in place (no LRU movement); no-op
    /// if the key is absent. Used when a wear-leveling exchange rewrites a
    /// mapping that happens to be cached.
    pub fn update_in_place(&mut self, key: u64, val: V) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx as usize].val = val;
            true
        } else {
            false
        }
    }

    /// Remove an entry; returns its value if present.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let idx = self.map.remove(&key)?;
        let val = self.nodes[idx as usize].val;
        self.unlink(idx);
        self.free.push(idx);
        self.rebalance();
        Some(val)
    }

    /// Insert `key -> val` at the MRU position, evicting the LRU entry if
    /// full. Returns the evicted `(key, value)` pair, if any. Inserting an
    /// existing key updates it and moves it to the front.
    pub fn insert(&mut self, key: u64, val: V) -> Option<(u64, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx as usize].val = val;
            self.move_to_front(idx);
            return None;
        }
        let evicted = if self.map.len() == self.capacity {
            let tail = self.tail;
            let k = self.nodes[tail as usize].key;
            let v = self.nodes[tail as usize].val;
            self.map.remove(&k);
            self.unlink(tail);
            self.free.push(tail);
            self.evictions += 1;
            Some((k, v))
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = Node { key, val, prev: NIL, next: NIL, in_first: false };
                i
            }
            None => {
                self.nodes.push(Node { key, val, prev: NIL, next: NIL, in_first: false });
                (self.nodes.len() - 1) as Idx
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        self.rebalance();
        evicted
    }

    /// Iterate over `(key, value)` pairs from MRU to LRU.
    pub fn iter_mru(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let n = &self.nodes[cur as usize];
                cur = n.next;
                Some((n.key, n.val))
            }
        })
    }

    /// Keys currently cached (MRU to LRU order).
    pub fn keys_mru(&self) -> Vec<u64> {
        self.iter_mru().map(|(k, _)| k).collect()
    }

    // ---- intrusive-list plumbing -------------------------------------

    fn unlink(&mut self, idx: Idx) {
        let (prev, next, in_first) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next, n.in_first)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        if in_first {
            self.first_count -= 1;
            if self.boundary == idx {
                self.boundary = prev;
            }
        }
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = NIL;
    }

    fn push_front(&mut self, idx: Idx) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
        // New front nodes always enter the first half.
        self.nodes[idx as usize].in_first = true;
        self.first_count += 1;
        if self.boundary == NIL {
            self.boundary = idx;
        }
    }

    fn move_to_front(&mut self, idx: Idx) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
        self.rebalance();
    }

    /// Restore the invariant `first_count == first_target()` by demoting
    /// the boundary node or promoting its successor. Each insert/move
    /// changes counts by at most a couple, so this loop runs O(1) steps.
    fn rebalance(&mut self) {
        let target = self.first_target();
        while self.first_count > target {
            // Demote the boundary node to the second half.
            let b = self.boundary;
            debug_assert_ne!(b, NIL);
            self.nodes[b as usize].in_first = false;
            self.first_count -= 1;
            self.boundary = self.nodes[b as usize].prev;
        }
        while self.first_count < target {
            // Promote the node after the boundary.
            let next = if self.boundary == NIL {
                self.head
            } else {
                self.nodes[self.boundary as usize].next
            };
            debug_assert_ne!(next, NIL);
            self.nodes[next as usize].in_first = true;
            self.first_count += 1;
            self.boundary = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn basic_hit_miss_and_eviction() {
        let mut c: Cmt<u32> = Cmt::new(2);
        assert_eq!(c.lookup(1), CmtLookup::Miss);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.lookup(1), CmtLookup::Hit(10));
        // Insert a third entry; LRU (2) is evicted.
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert_eq!(c.lookup(2), CmtLookup::Miss);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn lru_order_follows_access() {
        let mut c: Cmt<u32> = Cmt::new(3);
        c.insert(1, 1);
        c.insert(2, 2);
        c.insert(3, 3);
        assert_eq!(c.keys_mru(), vec![3, 2, 1]);
        c.lookup(1);
        assert_eq!(c.keys_mru(), vec![1, 3, 2]);
        c.insert(4, 4); // evicts 2
        assert_eq!(c.keys_mru(), vec![4, 1, 3]);
    }

    #[test]
    fn split_counters_attribute_halves() {
        let mut c: Cmt<u32> = Cmt::new(4);
        for k in 0..4 {
            c.insert(k, k as u32);
        }
        // MRU order: 3 2 | 1 0. Hitting 3 (first half), then 0 (second).
        c.lookup(3);
        assert_eq!(c.hits_first_half(), 1);
        assert_eq!(c.hits_second_half(), 0);
        c.lookup(0);
        assert_eq!(c.hits_first_half(), 1);
        assert_eq!(c.hits_second_half(), 1);
    }

    #[test]
    fn record_hits_matches_repeated_lookups() {
        // record_hits(key, k) must be indistinguishable from k lookups:
        // same counters (including half attribution) and same LRU order.
        // Exercise both halves and every small k, from a mixed-history
        // cache state.
        for start in 0..6u64 {
            for k in 0..5u64 {
                let mut c: Cmt<u32> = Cmt::new(6);
                for key in 0..6 {
                    c.insert(key, key as u32);
                }
                c.lookup(2);
                c.lookup(start); // vary which half `start` ends up in

                let mut reference = c.clone();
                c.record_hits(start, k);
                for _ in 0..k {
                    reference.lookup(start);
                }
                assert_eq!(c.keys_mru(), reference.keys_mru(), "start {start} k {k}");
                assert_eq!(c.hits(), reference.hits(), "start {start} k {k}");
                assert_eq!(c.hits_first_half(), reference.hits_first_half(), "start {start} k {k}");
                assert_eq!(
                    c.hits_second_half(),
                    reference.hits_second_half(),
                    "start {start} k {k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "uncached key")]
    fn record_hits_rejects_uncached_keys() {
        let mut c: Cmt<u32> = Cmt::new(2);
        c.insert(1, 1);
        c.record_hits(7, 3);
    }

    #[test]
    fn hit_rate_and_reset() {
        let mut c: Cmt<u32> = Cmt::new(2);
        c.insert(1, 1);
        c.lookup(1);
        c.lookup(2);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
        c.reset_counters();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.hit_rate(), 0.0);
        // Contents survive the reset.
        assert_eq!(c.peek(1), Some(1));
    }

    #[test]
    fn update_in_place_preserves_order() {
        let mut c: Cmt<u32> = Cmt::new(3);
        c.insert(1, 1);
        c.insert(2, 2);
        assert!(c.update_in_place(1, 100));
        assert!(!c.update_in_place(9, 9));
        assert_eq!(c.keys_mru(), vec![2, 1]);
        assert_eq!(c.peek(1), Some(100));
        // No counter movement from update_in_place.
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn remove_works_and_rebalances() {
        let mut c: Cmt<u32> = Cmt::new(4);
        for k in 0..4 {
            c.insert(k, k as u32);
        }
        assert_eq!(c.remove(3), Some(3));
        assert_eq!(c.remove(3), None);
        assert_eq!(c.len(), 3);
        assert_eq!(c.keys_mru(), vec![2, 1, 0]);
        // First half of 3 entries is 2 nodes: hitting key 1 is first-half.
        c.lookup(1);
        assert_eq!(c.hits_first_half(), 1);
    }

    #[test]
    fn reinserting_existing_key_moves_to_front_without_eviction() {
        let mut c: Cmt<u32> = Cmt::new(2);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.insert(1, 11), None);
        assert_eq!(c.keys_mru(), vec![1, 2]);
        assert_eq!(c.peek(1), Some(11));
        assert_eq!(c.len(), 2);
    }

    /// Brute-force reference: VecDeque front = MRU; first half =
    /// ceil(len/2) front positions.
    struct RefModel {
        q: VecDeque<(u64, u32)>,
        cap: usize,
        hits_first: u64,
        hits_second: u64,
        hits: u64,
        misses: u64,
    }

    impl RefModel {
        fn lookup(&mut self, k: u64) -> Option<u32> {
            match self.q.iter().position(|&(key, _)| key == k) {
                Some(pos) => {
                    self.hits += 1;
                    if pos < self.q.len().div_ceil(2) {
                        self.hits_first += 1;
                    } else {
                        self.hits_second += 1;
                    }
                    let item = self.q.remove(pos).unwrap();
                    self.q.push_front(item);
                    Some(item.1)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, k: u64, v: u32) {
            if let Some(pos) = self.q.iter().position(|&(key, _)| key == k) {
                self.q.remove(pos);
            } else if self.q.len() == self.cap {
                self.q.pop_back();
            }
            self.q.push_front((k, v));
        }
    }

    #[test]
    fn reference_model() {
        let mut c: Cmt<u32> = Cmt::new(8);
        let mut r = RefModel {
            q: VecDeque::new(),
            cap: 8,
            hits_first: 0,
            hits_second: 0,
            hits: 0,
            misses: 0,
        };
        let mut x = 0xABCDEFu64;
        for step in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 16; // working set 2x the capacity
            let op = (x >> 32) % 3;
            match op {
                0 | 1 => {
                    let got = c.lookup(key);
                    let want = r.lookup(key);
                    match (got, want) {
                        (CmtLookup::Hit(a), Some(b)) => assert_eq!(a, b, "step {step}"),
                        (CmtLookup::Miss, None) => {}
                        other => panic!("step {step}: divergence {other:?}"),
                    }
                }
                _ => {
                    c.insert(key, step as u32);
                    r.insert(key, step as u32);
                }
            }
            assert_eq!(c.keys_mru(), r.q.iter().map(|&(k, _)| k).collect::<Vec<_>>());
            assert_eq!(c.hits(), r.hits, "step {step}");
            assert_eq!(c.hits_first_half(), r.hits_first, "step {step} first-half");
            assert_eq!(c.hits_second_half(), r.hits_second, "step {step} second-half");
        }
    }

    #[test]
    fn reference_model_with_strided_keys() {
        // Merged-region bases are multiples of 2^k: the index must stay
        // exact when every key shares its low bits.
        for shift in [4u32, 6, 12, 20] {
            let mut c: Cmt<u32> = Cmt::new(8);
            let mut r = RefModel {
                q: VecDeque::new(),
                cap: 8,
                hits_first: 0,
                hits_second: 0,
                hits: 0,
                misses: 0,
            };
            let mut x = 0x5EED_0000u64 + u64::from(shift);
            for step in 0..5_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let key = (x % 16) << shift;
                if (x >> 32) % 3 < 2 {
                    let got = c.lookup(key);
                    let want = r.lookup(key);
                    match (got, want) {
                        (CmtLookup::Hit(a), Some(b)) => {
                            assert_eq!(a, b, "shift {shift} step {step}")
                        }
                        (CmtLookup::Miss, None) => {}
                        other => panic!("shift {shift} step {step}: divergence {other:?}"),
                    }
                } else {
                    c.insert(key, step as u32);
                    r.insert(key, step as u32);
                }
                assert_eq!(c.keys_mru(), r.q.iter().map(|&(k, _)| k).collect::<Vec<_>>());
                assert_eq!(c.hits(), r.hits, "shift {shift} step {step}");
                assert_eq!(c.hits_first_half(), r.hits_first, "shift {shift} step {step}");
                assert_eq!(c.hits_second_half(), r.hits_second, "shift {shift} step {step}");
            }
        }
    }

    #[test]
    fn region_hasher_spreads_aligned_keys() {
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        // hashbrown picks the bucket from the low bits and the tag from the
        // top 7: both must vary across keys that share their low bits.
        let build = BuildHasherDefault::<RegionHasher>::default();
        for s in [0u32, 4, 6, 12] {
            let hashes: Vec<u64> = (0..4096u64).map(|i| build.hash_one(i << s)).collect();
            let low: HashSet<u64> = hashes.iter().map(|h| h & 0xFFF).collect();
            let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(low.len() >= 2048, "shift {s}: {} distinct low-12-bit values", low.len());
            assert!(tags.len() >= 100, "shift {s}: {} distinct top-7-bit tags", tags.len());
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_capacity_one() {
        let _: Cmt<u32> = Cmt::new(1);
    }

    #[test]
    fn clear_empties_contents_but_keeps_counters() {
        let mut c: Cmt<u32> = Cmt::new(4);
        for k in 0..4 {
            c.insert(k, k as u32);
        }
        c.lookup(0);
        c.lookup(9);
        let (hits, misses) = (c.hits(), c.misses());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 4);
        assert_eq!(c.hits(), hits);
        assert_eq!(c.misses(), misses);
        assert_eq!(c.lookup(0), CmtLookup::Miss);
        // The cache works normally after a clear.
        c.insert(7, 70);
        assert_eq!(c.lookup(7), CmtLookup::Hit(70));
        assert_eq!(c.keys_mru(), vec![7]);
    }
}
