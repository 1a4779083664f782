//! Log-bucketed HDR-style latency histogram.
//!
//! The timing simulator used to keep 64 linear 50 ns buckets, which
//! saturated silently at 3.2 µs — exactly where the interesting tail
//! lives. This histogram covers the full ns→s range with bounded
//! *relative* error instead: values below 64 ns are exact, and every
//! larger base-2 bucket is split into 32 sub-buckets, so a reported
//! percentile is never more than `2^-5` (≈3.1%) above the true value.
//!
//! Layout (HdrHistogram-style, `SUB_BITS = 6`):
//!
//! * slots `0..64` hold values `0..64` exactly (bucket 0);
//! * bucket `k >= 1` covers `[2^(5+k), 2^(6+k))` in 32 slots of width
//!   `2^k`; with [`HIGH_BUCKETS`] = 25 the top bucket ends at `2^31` ns
//!   (≈2.1 s), far beyond any simulated request.
//!
//! Values past the top are counted in an explicit `overflow` bin — the
//! exact maximum is still tracked, and percentile queries report when
//! they land there ([`Percentile::saturated`]). Histograms with identical
//! geometry merge by slot-wise addition, and [`HistogramSnapshot`] is the
//! run-length-encoded serial form the telemetry JSON-lines stream embeds.

use serde::{Deserialize, Serialize};

/// Sub-bucket resolution: `2^SUB_BITS` exact slots in bucket 0, half that
/// many per higher bucket. Relative error bound is `2^(1 - SUB_BITS)`.
pub const SUB_BITS: u32 = 6;
/// Slots in bucket 0 (exact values `0..FIRST_SLOTS`).
const FIRST_SLOTS: usize = 1 << SUB_BITS;
/// Slots per bucket above the first (the top half of the sub-range).
const HALF_SLOTS: usize = FIRST_SLOTS / 2;
/// Number of power-of-two buckets above the exact one.
pub const HIGH_BUCKETS: usize = 25;
/// Total slot count.
pub const SLOTS: usize = FIRST_SLOTS + HIGH_BUCKETS * HALF_SLOTS;
/// Largest value the slots can hold; anything larger overflows.
pub const MAX_TRACKABLE_NS: u64 = (1u64 << (SUB_BITS as usize + HIGH_BUCKETS)) - 1;

/// A percentile answer: the estimated value and whether it fell past the
/// trackable range (in which case `ns` is the exact observed maximum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Percentile {
    /// Estimated latency at the requested rank, ns. Never below the true
    /// value's slot and never above `max_ns`.
    pub ns: u64,
    /// The rank landed in the overflow bin (beyond [`MAX_TRACKABLE_NS`]);
    /// `ns` is then the exact maximum rather than a bucket edge.
    pub saturated: bool,
}

/// Log-bucketed latency histogram with explicit overflow accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    overflow: u64,
    max_ns: u64,
    total_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { counts: vec![0; SLOTS], count: 0, overflow: 0, max_ns: 0, total_ns: 0 }
    }

    /// Slot index for a trackable value.
    #[inline]
    fn index(ns: u64) -> usize {
        debug_assert!(ns <= MAX_TRACKABLE_NS);
        if ns < FIRST_SLOTS as u64 {
            ns as usize
        } else {
            // k = which high bucket; the top SUB_BITS-1 bits below the
            // leading one select the sub-slot.
            let k = (64 - ns.leading_zeros() - SUB_BITS) as usize;
            FIRST_SLOTS + (k - 1) * HALF_SLOTS + ((ns >> k) as usize - HALF_SLOTS)
        }
    }

    /// Inclusive upper edge of a slot — what percentile queries report.
    #[inline]
    fn upper_edge(i: usize) -> u64 {
        if i < FIRST_SLOTS {
            i as u64
        } else {
            let j = i - FIRST_SLOTS;
            let k = (j / HALF_SLOTS + 1) as u32;
            let sub = (j % HALF_SLOTS + HALF_SLOTS) as u64;
            (sub << k) + (1u64 << k) - 1
        }
    }

    /// Record one latency observation.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Record `n` observations of the same latency.
    pub fn record_n(&mut self, ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.total_ns = self.total_ns.saturating_add(ns.saturating_mul(n));
        self.max_ns = self.max_ns.max(ns);
        if ns > MAX_TRACKABLE_NS {
            self.overflow += n;
        } else {
            self.counts[Self::index(ns)] += n;
        }
    }

    /// Total observations, including overflowed ones.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations beyond [`MAX_TRACKABLE_NS`].
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Exact maximum observed value, ns (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Sum of all observations, ns (saturating).
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Mean observation, ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The latency at percentile `p` (`0 < p <= 1`), or `None` when the
    /// histogram is empty. The estimate is the slot's upper edge clamped to
    /// the exact maximum, so `percentile(1.0)` always reports `max_ns`
    /// exactly and every answer is within the relative-error bound.
    pub fn percentile(&self, p: f64) -> Option<Percentile> {
        assert!(p > 0.0 && p <= 1.0, "percentile out of range: {p}");
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count as f64 * p).ceil() as u64).clamp(1, self.count);
        if rank > self.count - self.overflow {
            // Past the trackable range: report the exact maximum, flagged.
            return Some(Percentile { ns: self.max_ns, saturated: true });
        }
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= rank {
                return Some(Percentile {
                    ns: Self::upper_edge(i).min(self.max_ns),
                    saturated: false,
                });
            }
        }
        unreachable!("rank {rank} within tracked count {}", self.count - self.overflow)
    }

    /// Slot-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.overflow += other.overflow;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
    }

    /// Run-length-encoded serial form for the JSON-lines stream.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut runs: Vec<(u32, Vec<u64>)> = Vec::new();
        let mut i = 0;
        while i < SLOTS {
            if self.counts[i] == 0 {
                i += 1;
                continue;
            }
            let start = i;
            while i < SLOTS && self.counts[i] != 0 {
                i += 1;
            }
            runs.push((start as u32, self.counts[start..i].to_vec()));
        }
        HistogramSnapshot {
            count: self.count,
            overflow: self.overflow,
            max_ns: self.max_ns,
            total_ns: self.total_ns,
            runs,
        }
    }
}

/// The wire form of a [`LatencyHistogram`]: non-zero slots as
/// `(start_slot, counts...)` runs plus the scalar summary fields. The
/// encoding is canonical for a given histogram (maximal runs in ascending
/// slot order), so byte-comparing serialized snapshots compares histograms.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub overflow: u64,
    pub max_ns: u64,
    pub total_ns: u64,
    /// Maximal runs of consecutive non-zero slots.
    pub runs: Vec<(u32, Vec<u64>)>,
}

impl HistogramSnapshot {
    /// Rebuild the full histogram. Panics if a run falls outside the slot
    /// range (corrupt snapshot).
    pub fn restore(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for (start, counts) in &self.runs {
            let start = *start as usize;
            assert!(start + counts.len() <= SLOTS, "snapshot run out of range");
            h.counts[start..start + counts.len()].copy_from_slice(counts);
        }
        h.count = self.count;
        h.overflow = self.overflow;
        h.max_ns = self.max_ns;
        h.total_ns = self.total_ns;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_has_no_percentile() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.percentile(1.0), None);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.max_ns(), 0);
    }

    #[test]
    fn single_event_is_every_percentile() {
        let mut h = LatencyHistogram::new();
        h.record(137);
        for p in [0.001, 0.5, 0.99, 1.0] {
            let q = h.percentile(p).unwrap();
            assert!(!q.saturated);
            assert!(q.ns >= 137 && q.ns <= 137 + 137 / 32 + 1, "p{p} -> {}", q.ns);
        }
        // The max clamp makes p=1.0 exact.
        assert_eq!(h.percentile(1.0).unwrap().ns, 137);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        // Median of 0..=63 at rank 32 is 31.
        assert_eq!(h.percentile(0.5).unwrap().ns, 31);
        assert_eq!(h.percentile(1.0).unwrap().ns, 63);
    }

    #[test]
    fn p_one_boundary_reports_exact_max() {
        let mut h = LatencyHistogram::new();
        h.record(100);
        h.record(1_000_003);
        let q = h.percentile(1.0).unwrap();
        assert_eq!(q.ns, 1_000_003);
        assert!(!q.saturated);
    }

    #[test]
    fn overflow_is_explicit_not_silent() {
        // Regression for the old linear histogram: tails beyond its 3.2 µs
        // cap reported the cap with no indication. Values past the HDR
        // range must be counted and flagged instead.
        let mut h = LatencyHistogram::new();
        h.record(10_000); // well past the old 3.2 µs cap, fine here
        assert_eq!(h.overflow(), 0);
        let q = h.percentile(1.0).unwrap();
        assert_eq!(q.ns, 10_000);

        h.record(MAX_TRACKABLE_NS + 17);
        assert_eq!(h.overflow(), 1);
        let q = h.percentile(1.0).unwrap();
        assert!(q.saturated, "overflowed rank must be flagged");
        assert_eq!(q.ns, MAX_TRACKABLE_NS + 17, "and still report the exact max");
        // The median is unaffected by the overflow bin.
        assert!(!h.percentile(0.5).unwrap().saturated);
    }

    #[test]
    fn merge_of_disjoint_ranges() {
        let mut low = LatencyHistogram::new();
        let mut high = LatencyHistogram::new();
        for _ in 0..900 {
            low.record(50);
        }
        for _ in 0..100 {
            high.record(1 << 20);
        }
        low.merge(&high);
        assert_eq!(low.count(), 1000);
        assert_eq!(low.percentile(0.5).unwrap().ns, 50);
        let p99 = low.percentile(0.99).unwrap().ns;
        assert!(((1 << 20)..=(1 << 20) + (1 << 15)).contains(&p99), "p99 {p99}");
        assert_eq!(low.percentile(0.9).unwrap().ns, 50);
        assert_eq!(low.max_ns(), 1 << 20);
    }

    #[test]
    fn merge_matches_single_histogram() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..1000u64 {
            let v = i * i % 77_777;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn snapshot_round_trips() {
        let mut h = LatencyHistogram::new();
        for v in [0, 1, 63, 64, 65, 4096, 1 << 20, MAX_TRACKABLE_NS, MAX_TRACKABLE_NS + 1] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.restore(), h);
        let json = serde_json::to_string(&snap).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.restore(), h);
    }

    #[test]
    fn snapshot_of_empty_is_empty() {
        let h = LatencyHistogram::new();
        let snap = h.snapshot();
        assert!(snap.runs.is_empty());
        assert_eq!(snap.count, 0);
        assert_eq!(snap.restore(), h);
    }

    #[test]
    fn index_and_edge_are_inverse_enough() {
        // Every trackable value lands in a slot whose upper edge is >= the
        // value and within the relative-error bound.
        for shift in 0..31u32 {
            for off in [0u64, 1, 2, 3] {
                let v = (1u64 << shift) + off;
                if v > MAX_TRACKABLE_NS {
                    continue;
                }
                let i = LatencyHistogram::index(v);
                let edge = LatencyHistogram::upper_edge(i);
                assert!(edge >= v, "v={v} i={i} edge={edge}");
                assert!(edge - v <= (v >> 5) + 1, "v={v} edge={edge}");
            }
        }
    }

    proptest! {
        #[test]
        fn percentile_tracks_sorted_reference(
            values in proptest::collection::vec(0u64..MAX_TRACKABLE_NS + 1, 1..400),
            p_millis in 1u64..1001,
        ) {
            let p = p_millis as f64 / 1000.0;
            let mut h = LatencyHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut values = values;
            values.sort_unstable();
            let rank = ((values.len() as f64 * p).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1];
            let got = h.percentile(p).unwrap();
            assert!(!got.saturated);
            // Never under the true value; over by at most the slot width
            // (2^-5 relative) and never past the observed max.
            assert!(got.ns >= truth, "p{p}: {} < truth {truth}", got.ns);
            assert!(got.ns <= truth + (truth >> 5) + 1, "p{p}: {} vs {truth}", got.ns);
            assert!(got.ns <= *values.last().unwrap());
        }

        #[test]
        fn snapshot_round_trip_random(
            values in proptest::collection::vec(0u64..MAX_TRACKABLE_NS + 1000, 0..200),
        ) {
            let mut h = LatencyHistogram::new();
            for &v in &values {
                h.record(v);
            }
            assert_eq!(h.snapshot().restore(), h);
        }

        #[test]
        fn record_n_is_slot_exact_against_scalar_records(
            // Values straddle MAX_TRACKABLE_NS so the overflow bin is
            // exercised alongside every bucket class; k = 0 must be a
            // no-op.
            pairs in proptest::collection::vec(
                (0u64..2 * MAX_TRACKABLE_NS, 0u64..50), 1..60),
        ) {
            let mut bulk = LatencyHistogram::new();
            let mut scalar = LatencyHistogram::new();
            for &(v, k) in &pairs {
                bulk.record_n(v, k);
                for _ in 0..k {
                    scalar.record(v);
                }
            }
            // Structural equality covers every slot plus count, overflow,
            // max and total — record_n(v, k) IS k records, not an
            // approximation of them.
            assert_eq!(bulk, scalar);
        }

        #[test]
        fn record_n_snapshot_round_trips_with_overflow(
            pairs in proptest::collection::vec(
                (0u64..2 * MAX_TRACKABLE_NS, 1u64..1000), 0..40),
        ) {
            let mut h = LatencyHistogram::new();
            for &(v, k) in &pairs {
                h.record_n(v, k);
            }
            let snap = h.snapshot();
            assert_eq!(snap.restore(), h);
            let json = serde_json::to_string(&snap).unwrap();
            let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
            assert_eq!(back.restore(), h);
        }

        #[test]
        fn sharded_merge_matches_unsharded_byte_for_byte(
            values in proptest::collection::vec(0u64..2 * MAX_TRACKABLE_NS, 0..300),
            shards in 1usize..6,
        ) {
            // Round-robin the observations over N shard histograms, merge
            // the shards left-to-right, and demand the canonical snapshot
            // encoding of the merge equals the unsharded histogram's —
            // the property the sharded latency sweeps rest on.
            let mut whole = LatencyHistogram::new();
            let mut parts = vec![LatencyHistogram::new(); shards];
            for (i, &v) in values.iter().enumerate() {
                whole.record(v);
                parts[i % shards].record(v);
            }
            let mut merged = LatencyHistogram::new();
            for part in &parts {
                merged.merge(part);
            }
            assert_eq!(merged, whole);
            let a = serde_json::to_string(&merged.snapshot()).unwrap();
            let b = serde_json::to_string(&whole.snapshot()).unwrap();
            assert_eq!(a, b);
        }
    }
}
