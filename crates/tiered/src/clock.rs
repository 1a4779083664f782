//! CLOCK (second-chance) replacement — the cheap hardware alternative to
//! the CMT's exact LRU.
//!
//! The paper's CMT is an LRU stack, which in SRAM needs either a shift
//! structure or a doubly-linked list. Real controllers often approximate
//! LRU with CLOCK: one reference bit per entry and a sweeping hand. This
//! module exists for the `ablation_cmt_policy` bench, which quantifies how
//! much hit rate the approximation costs on the paper's workloads — and
//! whether SAWL's split heuristic (which needs the LRU halves) is worth
//! the exact stack.

use crate::cmt::RegionMap;

/// A CLOCK cache with the same counter interface as [`crate::cmt::Cmt`].
#[derive(Debug, Clone)]
pub struct ClockCache<V> {
    /// Slot storage: key, value, referenced bit. `None` = empty slot.
    slots: Vec<Option<(u64, V, bool)>>,
    map: RegionMap<usize>,
    hand: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V: Copy> ClockCache<V> {
    /// Cache with `capacity` slots (>= 2).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "clock cache needs at least two slots");
        Self {
            slots: vec![None; capacity],
            map: RegionMap::with_capacity_and_hasher(capacity * 2, Default::default()),
            hand: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hits counted.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses counted.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }

    /// Look up `key`; a hit sets its reference bit.
    pub fn lookup(&mut self, key: u64) -> Option<V> {
        match self.map.get(&key) {
            Some(&idx) => {
                self.hits += 1;
                let slot = self.slots[idx].as_mut().expect("mapped slot is filled");
                slot.2 = true;
                Some(slot.1)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert `key -> val`, evicting via the clock hand if full. Returns
    /// the evicted key, if any.
    pub fn insert(&mut self, key: u64, val: V) -> Option<u64> {
        if let Some(&idx) = self.map.get(&key) {
            let slot = self.slots[idx].as_mut().expect("mapped slot is filled");
            slot.1 = val;
            slot.2 = true;
            return None;
        }
        // Find a victim slot: first empty, else sweep clearing ref bits.
        let victim = loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            match &mut self.slots[idx] {
                None => break idx,
                Some((_, _, referenced)) => {
                    if *referenced {
                        *referenced = false;
                    } else {
                        break idx;
                    }
                }
            }
        };
        let evicted = self.slots[victim].take().map(|(k, _, _)| {
            self.map.remove(&k);
            self.evictions += 1;
            k
        });
        self.slots[victim] = Some((key, val, true));
        self.map.insert(key, victim);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_hit_miss() {
        let mut c: ClockCache<u32> = ClockCache::new(2);
        assert_eq!(c.lookup(1), None);
        c.insert(1, 10);
        assert_eq!(c.lookup(1), Some(10));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn second_chance_protects_referenced_entries() {
        let mut c: ClockCache<u32> = ClockCache::new(2);
        c.insert(1, 1);
        c.insert(2, 2);
        // Everything is referenced, so inserting 3 sweeps both bits clear
        // and evicts slot 0 (key 1), leaving slot 1 = (2, unreferenced)
        // with the hand pointing at it.
        assert_eq!(c.insert(3, 3), Some(1));
        // Referencing 3 protects it: the next insertion must claim the
        // unreferenced 2, not sweep 3 away.
        c.lookup(3);
        assert_eq!(c.insert(4, 4), Some(2));
        assert_eq!(c.lookup(3), Some(3), "referenced entry was evicted");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_happens_only_when_full() {
        let mut c: ClockCache<u32> = ClockCache::new(4);
        for k in 0..4 {
            assert_eq!(c.insert(k, k as u32), None);
        }
        assert!(c.insert(99, 99).is_some());
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn reinsert_updates_value_in_place() {
        let mut c: ClockCache<u32> = ClockCache::new(2);
        c.insert(5, 1);
        c.insert(5, 2);
        assert_eq!(c.lookup(5), Some(2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn clock_approximates_lru_on_skewed_traffic() {
        use crate::cmt::{Cmt, CmtLookup};
        // Hot set of 32 keys inside a 256-key working set over a 64-entry
        // cache: both policies should hit often, CLOCK within a few points
        // of LRU.
        let mut clock: ClockCache<u64> = ClockCache::new(64);
        let mut lru: Cmt<u64> = Cmt::new(64);
        let mut x = 0xC10CCu64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = if x & 3 != 0 { x % 32 } else { x % 256 };
            if clock.lookup(key).is_none() {
                clock.insert(key, key);
            }
            if matches!(lru.lookup(key), CmtLookup::Miss) {
                lru.insert(key, key);
            }
        }
        let diff = (lru.hit_rate() - clock.hit_rate()).abs();
        assert!(diff < 0.08, "clock strays {diff} from lru");
        assert!(clock.hit_rate() > 0.5);
    }
}
