//! Structure-of-arrays wear state: packed countdowns, quantized endurance
//! limits, and a sparse overlay for failed lines.
//!
//! The device's per-line state used to be two always-materialized `Vec<u32>`s
//! (write count + countdown) plus an optional third for per-line limits —
//! 8–12 B/line, which caps practical devices near 2^24 lines. This module
//! stores the same information in ≤ 4 B/line:
//!
//! * **Countdowns** are width-polymorphic: `u16` when every limit fits
//!   (the common case — nominal endurance 1e4–6.5e4), `u32` otherwise.
//! * **Limits** are quantized against a shared base (the minimum limit):
//!   uniform devices store nothing per line, Gaussian-variation devices
//!   store a `u8`/`u16` delta, and only pathological spreads fall back to a
//!   full `u32` table. Encoding is exact — `decode(encode(x)) == x` — so the
//!   countdown arithmetic is bit-identical to the unquantized model.
//! * **Write counts are derived, not stored**: a line's count is
//!   `limit - remaining` plus a per-line `extra` that accumulates one
//!   `limit` per failure-refill. Failures are globally bounded by the spare
//!   pool, so `extra` lives in a lazily-allocated bitset + hash overlay
//!   instead of a dense array.
//!
//! Bulk operations (range decrements, count materialization, reset) work on
//! chunks of plain integer slices so the compiler can autovectorize them.

use std::collections::HashMap;

use crate::Pa;

/// Chunk width for the bulk loops: big enough to amortize the per-chunk
/// dispatch, small enough to stay in L1.
const CHUNK: usize = 4096;

/// Per-line countdowns until the next failure, width-chosen at build time.
#[derive(Debug, Clone)]
enum Countdown {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

/// Per-line endurance limits, quantized against the minimum limit.
#[derive(Debug, Clone)]
enum LimitTable {
    /// Every line has exactly `base` (the paper's uniform model).
    Uniform { base: u32 },
    /// `limit(pa) = base + deltas[pa]`, deltas fit in a byte.
    Delta8 { base: u32, deltas: Vec<u8> },
    /// `limit(pa) = base + deltas[pa]`, deltas fit in 16 bits.
    Delta16 { base: u32, deltas: Vec<u16> },
    /// Spread too wide to quantize; exact fallback.
    Full(Vec<u32>),
}

/// Sparse overlay for lines whose derived write count needs an offset:
/// failure refills and stuck-at remaps. Allocated on first use, so a
/// fresh or failure-free device pays nothing.
#[derive(Debug, Clone, Default)]
struct FailedSet {
    /// One bit per line: set iff the line has a nonzero `extra`.
    bits: Vec<u64>,
    /// Accumulated write-count offset per marked line.
    extra: HashMap<Pa, u64>,
}

/// The structure-of-arrays wear state behind [`NvmDevice`].
///
/// [`NvmDevice`]: crate::NvmDevice
#[derive(Debug, Clone)]
pub struct WearState {
    remaining: Countdown,
    limits: LimitTable,
    failed: Option<Box<FailedSet>>,
    lines: u64,
}

impl WearState {
    /// Build the state for `lines` lines. `limits` is the materialized
    /// per-line endurance table, or `None` when every line has `endurance`.
    pub fn new(lines: u64, endurance: u32, limits: Option<Vec<u32>>) -> Self {
        let (limits, max_limit) = match limits {
            None => (LimitTable::Uniform { base: endurance }, endurance),
            Some(v) => encode_limits(v),
        };
        let n = lines as usize;
        let remaining = if max_limit <= u32::from(u16::MAX) {
            let mut v = vec![0u16; n];
            fill_from_limits_u16(&mut v, &limits);
            Countdown::U16(v)
        } else {
            let mut v = vec![0u32; n];
            fill_from_limits_u32(&mut v, &limits);
            Countdown::U32(v)
        };
        Self { remaining, limits, failed: None, lines }
    }

    /// Number of lines tracked.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Endurance limit of one line (exactly the value that was encoded).
    #[inline]
    pub fn limit(&self, pa: Pa) -> u32 {
        match &self.limits {
            LimitTable::Uniform { base } => *base,
            LimitTable::Delta8 { base, deltas } => base + u32::from(deltas[pa as usize]),
            LimitTable::Delta16 { base, deltas } => base + u32::from(deltas[pa as usize]),
            LimitTable::Full(v) => v[pa as usize],
        }
    }

    /// Writes remaining until this line's next failure (always ≥ 1 between
    /// operations).
    #[inline]
    pub fn remaining(&self, pa: Pa) -> u64 {
        match &self.remaining {
            Countdown::U16(v) => u64::from(v[pa as usize]),
            Countdown::U32(v) => u64::from(v[pa as usize]),
        }
    }

    /// Apply one write's countdown. Returns `true` when the write made the
    /// line reach its limit; the countdown has then already been refilled
    /// and the derived count offset recorded.
    #[inline]
    pub fn countdown(&mut self, pa: Pa) -> bool {
        let hit = match &mut self.remaining {
            Countdown::U16(v) => {
                let r = &mut v[pa as usize];
                *r -= 1;
                *r == 0
            }
            Countdown::U32(v) => {
                let r = &mut v[pa as usize];
                *r -= 1;
                *r == 0
            }
        };
        if hit {
            self.refill_failed(pa);
        }
        hit
    }

    /// Failure refill, out of line: the countdown hot path only ever
    /// reaches this once per `limit` writes to a line.
    #[cold]
    fn refill_failed(&mut self, pa: Pa) {
        let limit = self.limit(pa);
        self.set_remaining(pa, limit);
        self.add_extra(pa, u64::from(limit));
    }

    /// Consume `n` writes from a line known to survive them (`n` strictly
    /// less than its remaining countdown).
    #[inline]
    pub fn sub_remaining(&mut self, pa: Pa, n: u64) {
        debug_assert!(n < self.remaining(pa));
        match &mut self.remaining {
            Countdown::U16(v) => v[pa as usize] -= n as u16,
            Countdown::U32(v) => v[pa as usize] -= n as u32,
        }
    }

    /// Closed-form run bookkeeping: the line just failed `failures` times
    /// and then took `past_last` more writes (`past_last < limit`).
    pub fn refill_after_failures(&mut self, pa: Pa, failures: u64, past_last: u64) {
        let limit = self.limit(pa);
        self.set_remaining(pa, limit - past_last as u32);
        self.add_extra(pa, failures * u64::from(limit));
    }

    /// Stuck-at remap: the controller swaps in a fresh spare behind `pa`
    /// without the line having consumed its budget. The countdown restarts
    /// at the full limit while the derived write count stays unchanged.
    pub fn note_stuck(&mut self, pa: Pa) {
        let limit = self.limit(pa);
        let used = u64::from(limit) - self.remaining(pa);
        self.set_remaining(pa, limit);
        if used > 0 {
            self.add_extra(pa, used);
        }
    }

    fn set_remaining(&mut self, pa: Pa, v: u32) {
        match &mut self.remaining {
            Countdown::U16(r) => r[pa as usize] = v as u16,
            Countdown::U32(r) => r[pa as usize] = v,
        }
    }

    fn add_extra(&mut self, pa: Pa, k: u64) {
        let words = (self.lines as usize).div_ceil(64);
        let f = self.failed.get_or_insert_with(|| {
            Box::new(FailedSet { bits: vec![0; words], extra: HashMap::new() })
        });
        f.bits[(pa >> 6) as usize] |= 1 << (pa & 63);
        *f.extra.entry(pa).or_insert(0) += k;
    }

    #[inline]
    fn extra(&self, pa: Pa) -> u64 {
        match &self.failed {
            None => 0,
            Some(f) => {
                if f.bits[(pa >> 6) as usize] >> (pa & 63) & 1 == 0 {
                    0
                } else {
                    f.extra[&pa]
                }
            }
        }
    }

    /// Derived write count of one line, with the same `u32` wrapping
    /// behaviour the old dense counter array had.
    #[inline]
    pub fn write_count(&self, pa: Pa) -> u32 {
        let used = (u64::from(self.limit(pa)) - self.remaining(pa)) as u32;
        used.wrapping_add(self.extra(pa) as u32)
    }

    /// Whether every line in `[start, start + n)` can take one more write
    /// without failing.
    #[inline]
    pub fn range_clear_of_failures(&self, start: Pa, n: u64) -> bool {
        let (s, n) = (start as usize, n as usize);
        match &self.remaining {
            Countdown::U16(v) => v[s..s + n].iter().all(|&r| r > 1),
            Countdown::U32(v) => v[s..s + n].iter().all(|&r| r > 1),
        }
    }

    /// Whether every listed line can take one more write without failing.
    #[inline]
    pub fn lines_clear_of_failures(&self, pas: &[Pa]) -> bool {
        match &self.remaining {
            Countdown::U16(v) => pas.iter().all(|&pa| v[pa as usize] > 1),
            Countdown::U32(v) => pas.iter().all(|&pa| v[pa as usize] > 1),
        }
    }

    /// Apply one write's countdown to every listed line, all known
    /// failure-free (see
    /// [`lines_clear_of_failures`](Self::lines_clear_of_failures)).
    #[inline]
    pub fn countdown_lines_unchecked(&mut self, pas: &[Pa]) {
        match &mut self.remaining {
            Countdown::U16(v) => pas.iter().for_each(|&pa| v[pa as usize] -= 1),
            Countdown::U32(v) => pas.iter().for_each(|&pa| v[pa as usize] -= 1),
        }
    }

    /// Apply one write's countdown to every line in `[start, start + n)`,
    /// all known failure-free (see
    /// [`range_clear_of_failures`](Self::range_clear_of_failures)).
    #[inline]
    pub fn countdown_range_unchecked(&mut self, start: Pa, n: u64) {
        let (s, n) = (start as usize, n as usize);
        match &mut self.remaining {
            Countdown::U16(v) => {
                for r in &mut v[s..s + n] {
                    *r -= 1;
                }
            }
            Countdown::U32(v) => {
                for r in &mut v[s..s + n] {
                    *r -= 1;
                }
            }
        }
    }

    /// Stream the derived per-line write counts through `f` in address
    /// order, in chunks — O(lines) time, O(1) extra space.
    pub fn fold_counts(&self, mut f: impl FnMut(&[u32])) {
        let mut buf = [0u32; CHUNK];
        let mut start = 0usize;
        let lines = self.lines as usize;
        while start < lines {
            let n = CHUNK.min(lines - start);
            self.count_chunk(start, &mut buf[..n]);
            f(&buf[..n]);
            start += n;
        }
    }

    /// Materialize the full per-line write-count vector (for stats and
    /// detailed reports; costs 4 B/line).
    pub fn counts(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.lines as usize);
        self.fold_counts(|chunk| v.extend_from_slice(chunk));
        v
    }

    /// Derived counts for lines `[start, start + out.len())`.
    fn count_chunk(&self, start: usize, out: &mut [u32]) {
        let n = out.len();
        match &self.limits {
            LimitTable::Uniform { base } => out.fill(*base),
            LimitTable::Delta8 { base, deltas } => {
                for (o, &d) in out.iter_mut().zip(&deltas[start..start + n]) {
                    *o = base + u32::from(d);
                }
            }
            LimitTable::Delta16 { base, deltas } => {
                for (o, &d) in out.iter_mut().zip(&deltas[start..start + n]) {
                    *o = base + u32::from(d);
                }
            }
            LimitTable::Full(v) => out.copy_from_slice(&v[start..start + n]),
        }
        match &self.remaining {
            Countdown::U16(v) => {
                for (o, &r) in out.iter_mut().zip(&v[start..start + n]) {
                    *o -= u32::from(r);
                }
            }
            Countdown::U32(v) => {
                for (o, &r) in out.iter_mut().zip(&v[start..start + n]) {
                    *o -= r;
                }
            }
        }
        if let Some(f) = &self.failed {
            for (pa, &extra) in &f.extra {
                let i = *pa as usize;
                if i >= start && i < start + n {
                    out[i - start] = out[i - start].wrapping_add(extra as u32);
                }
            }
        }
    }

    /// Restore every countdown to its line's full limit and drop the
    /// failure overlay, reusing the existing allocations.
    pub fn reset(&mut self) {
        match &mut self.remaining {
            Countdown::U16(v) => fill_from_limits_u16(v, &self.limits),
            Countdown::U32(v) => fill_from_limits_u32(v, &self.limits),
        }
        self.failed = None;
    }

    /// Exact heap bytes held by the wear state (countdowns + limit table +
    /// failure overlay), for memory reporting.
    pub fn heap_bytes(&self) -> u64 {
        let rem = match &self.remaining {
            Countdown::U16(v) => v.capacity() * 2,
            Countdown::U32(v) => v.capacity() * 4,
        };
        let lim = match &self.limits {
            LimitTable::Uniform { .. } => 0,
            LimitTable::Delta8 { deltas, .. } => deltas.capacity(),
            LimitTable::Delta16 { deltas, .. } => deltas.capacity() * 2,
            LimitTable::Full(v) => v.capacity() * 4,
        };
        let overlay = match &self.failed {
            None => 0,
            // HashMap overhead approximated as key + value + one control
            // byte per capacity slot.
            Some(f) => f.bits.capacity() * 8 + f.extra.capacity() * 17,
        };
        (rem + lim + overlay) as u64
    }

    /// Checkpoint the mutable wear state: countdowns plus the failure
    /// overlay. The limit table is *not* written — it materializes
    /// deterministically from the device config at rebuild time — so a
    /// checkpoint stays ~2 B/line. Overlay entries are emitted sorted by
    /// line so identical states encode to identical bytes.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        match &self.remaining {
            Countdown::U16(v) => {
                w.put_u8(0);
                w.put_u16_slice(v);
            }
            Countdown::U32(v) => {
                w.put_u8(1);
                w.put_u32_slice(v);
            }
        }
        match &self.failed {
            None => w.put_bool(false),
            Some(f) => {
                w.put_bool(true);
                w.put_u64_slice(&f.bits);
                let mut pairs: Vec<(Pa, u64)> = f.extra.iter().map(|(&k, &v)| (k, v)).collect();
                pairs.sort_unstable_by_key(|&(k, _)| k);
                w.put_u64(pairs.len() as u64);
                for (pa, extra) in pairs {
                    w.put_u64(pa);
                    w.put_u64(extra);
                }
            }
        }
    }

    /// Restore the mutable state captured by [`ckpt_save`](Self::ckpt_save)
    /// into a freshly rebuilt `WearState` (same config ⇒ same countdown
    /// width and limit table). Rejects width/length mismatches as
    /// [`CkptError::Corrupt`] without touching `self`'s invariants beyond
    /// the fields it fully replaces.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        use sawl_ckpt::CkptError;
        let tag = r.get_u8()?;
        let expect_tag = match &self.remaining {
            Countdown::U16(_) => 0,
            Countdown::U32(_) => 1,
        };
        if tag != expect_tag {
            return Err(CkptError::Corrupt(format!(
                "countdown width tag {tag} does not match rebuilt device (expected {expect_tag})"
            )));
        }
        let remaining = match tag {
            0 => Countdown::U16(r.get_u16_vec()?),
            _ => Countdown::U32(r.get_u32_vec()?),
        };
        let got_lines = match &remaining {
            Countdown::U16(v) => v.len() as u64,
            Countdown::U32(v) => v.len() as u64,
        };
        if got_lines != self.lines {
            return Err(CkptError::Corrupt(format!(
                "countdown table holds {got_lines} lines, device has {}",
                self.lines
            )));
        }
        let failed = if r.get_bool()? {
            let bits = r.get_u64_vec()?;
            if bits.len() != (self.lines as usize).div_ceil(64) {
                return Err(CkptError::Corrupt(format!(
                    "failure bitset holds {} words for {} lines",
                    bits.len(),
                    self.lines
                )));
            }
            let n = r.get_u64()?;
            let mut extra = HashMap::with_capacity(n as usize);
            for _ in 0..n {
                let pa = r.get_u64()?;
                let k = r.get_u64()?;
                if pa >= self.lines {
                    return Err(CkptError::Corrupt(format!(
                        "failure overlay names line {pa} beyond {}",
                        self.lines
                    )));
                }
                if extra.insert(pa, k).is_some() {
                    return Err(CkptError::Corrupt(format!(
                        "duplicate overlay entry for line {pa}"
                    )));
                }
            }
            Some(Box::new(FailedSet { bits, extra }))
        } else {
            None
        };
        self.remaining = remaining;
        self.failed = failed;
        Ok(())
    }

    /// Human-readable layout tag for reports: countdown width plus limit
    /// encoding, e.g. `"u16+delta16"`.
    pub fn layout(&self) -> String {
        let rem = match &self.remaining {
            Countdown::U16(_) => "u16",
            Countdown::U32(_) => "u32",
        };
        let lim = match &self.limits {
            LimitTable::Uniform { .. } => "uniform",
            LimitTable::Delta8 { .. } => "delta8",
            LimitTable::Delta16 { .. } => "delta16",
            LimitTable::Full(_) => "full",
        };
        format!("{rem}+{lim}")
    }
}

/// Quantize a materialized limit table: shared base = minimum limit, then
/// the narrowest per-line delta that represents every line exactly.
/// Returns the table and the maximum limit (used to pick the countdown
/// width).
fn encode_limits(v: Vec<u32>) -> (LimitTable, u32) {
    assert!(!v.is_empty(), "cannot encode an empty limit table");
    let mut min = u32::MAX;
    let mut max = 0u32;
    for &l in &v {
        min = min.min(l);
        max = max.max(l);
    }
    let spread = max - min;
    let table = if spread == 0 {
        LimitTable::Uniform { base: min }
    } else if spread <= u32::from(u8::MAX) {
        LimitTable::Delta8 { base: min, deltas: v.iter().map(|&l| (l - min) as u8).collect() }
    } else if spread <= u32::from(u16::MAX) {
        LimitTable::Delta16 { base: min, deltas: v.iter().map(|&l| (l - min) as u16).collect() }
    } else {
        LimitTable::Full(v)
    };
    (table, max)
}

fn fill_from_limits_u16(rem: &mut [u16], limits: &LimitTable) {
    match limits {
        LimitTable::Uniform { base } => rem.fill(*base as u16),
        LimitTable::Delta8 { base, deltas } => {
            for (r, &d) in rem.iter_mut().zip(deltas) {
                *r = (*base + u32::from(d)) as u16;
            }
        }
        LimitTable::Delta16 { base, deltas } => {
            for (r, &d) in rem.iter_mut().zip(deltas) {
                *r = (*base + u32::from(d)) as u16;
            }
        }
        LimitTable::Full(v) => {
            for (r, &l) in rem.iter_mut().zip(v) {
                *r = l as u16;
            }
        }
    }
}

fn fill_from_limits_u32(rem: &mut [u32], limits: &LimitTable) {
    match limits {
        LimitTable::Uniform { base } => rem.fill(*base),
        LimitTable::Delta8 { base, deltas } => {
            for (r, &d) in rem.iter_mut().zip(deltas) {
                *r = *base + u32::from(d);
            }
        }
        LimitTable::Delta16 { base, deltas } => {
            for (r, &d) in rem.iter_mut().zip(deltas) {
                *r = *base + u32::from(d);
            }
        }
        LimitTable::Full(v) => rem.copy_from_slice(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_state_stores_no_limit_table() {
        let w = WearState::new(1 << 12, 10_000, None);
        assert_eq!(w.layout(), "u16+uniform");
        assert_eq!(w.heap_bytes(), (1 << 12) * 2);
        assert_eq!(w.limit(7), 10_000);
        assert_eq!(w.remaining(7), 10_000);
        assert_eq!(w.write_count(7), 0);
    }

    #[test]
    fn limit_encoding_round_trips_exactly() {
        for limits in [
            vec![100u32; 8],
            vec![100, 101, 355, 100, 254 + 100, 100, 100, 100],
            vec![1, 65_536, 40_000, 2, 3, 4, 5, 6],
            vec![1, 1 << 20, 7, 7, 7, 7, 7, 7],
            vec![90_000, 90_001, 90_002, 90_000, 90_000, 90_000, 90_000, 90_000],
        ] {
            let w = WearState::new(8, 0, Some(limits.clone()));
            for (pa, &l) in limits.iter().enumerate() {
                assert_eq!(w.limit(pa as u64), l, "layout {}", w.layout());
                assert_eq!(w.remaining(pa as u64), u64::from(l));
            }
        }
    }

    #[test]
    fn encoding_picks_the_narrowest_width() {
        let layout = |limits: Vec<u32>| WearState::new(8, 0, Some(limits)).layout();
        assert_eq!(layout(vec![500; 8]), "u16+uniform");
        assert_eq!(layout(vec![500, 700, 500, 500, 500, 500, 500, 500]), "u16+delta8");
        assert_eq!(layout(vec![500, 1000, 500, 500, 500, 500, 500, 500]), "u16+delta16");
        assert_eq!(
            layout(vec![40_000, 100_000, 40_000, 40_000, 40_000, 40_000, 40_000, 40_000]),
            "u32+delta16"
        );
        assert_eq!(layout(vec![500, 700_000, 500, 500, 500, 500, 500, 500]), "u32+full");
    }

    #[test]
    fn countdown_failure_refills_and_derives_counts() {
        let mut w = WearState::new(4, 3, None);
        assert!(!w.countdown(1));
        assert!(!w.countdown(1));
        assert_eq!(w.write_count(1), 2);
        assert!(w.countdown(1)); // 3rd write fails the line
        assert_eq!(w.remaining(1), 3); // refilled
        assert_eq!(w.write_count(1), 3); // count keeps accumulating
        assert!(!w.countdown(1));
        assert_eq!(w.write_count(1), 4);
        assert_eq!(w.write_count(0), 0);
    }

    #[test]
    fn note_stuck_preserves_the_write_count() {
        let mut w = WearState::new(4, 10, None);
        w.countdown(2);
        w.countdown(2);
        w.note_stuck(2);
        assert_eq!(w.remaining(2), 10);
        assert_eq!(w.write_count(2), 2);
        // Stuck remap on a fresh line allocates nothing.
        let mut fresh = WearState::new(4, 10, None);
        fresh.note_stuck(0);
        assert!(fresh.failed.is_none());
        assert_eq!(fresh.write_count(0), 0);
    }

    #[test]
    fn counts_materialization_matches_per_line_reads() {
        let limits: Vec<u32> = (0..100).map(|i| 50 + (i * 7) % 40).collect();
        let mut w = WearState::new(100, 0, Some(limits));
        for i in 0..300u64 {
            w.countdown((i * i) % 100);
        }
        let counts = w.counts();
        for pa in 0..100u64 {
            assert_eq!(counts[pa as usize], w.write_count(pa), "pa {pa}");
        }
        assert_eq!(counts.iter().map(|&c| u64::from(c)).sum::<u64>(), 300);
    }

    #[test]
    fn range_ops_match_scalar_countdowns() {
        let mut a = WearState::new(256, 5, None);
        let mut b = WearState::new(256, 5, None);
        for round in 0..4 {
            if a.range_clear_of_failures(0, 256) {
                a.countdown_range_unchecked(0, 256);
            } else {
                for pa in 0..256 {
                    a.countdown(pa);
                }
            }
            for pa in 0..256 {
                b.countdown(pa);
            }
            for pa in 0..256u64 {
                assert_eq!(a.remaining(pa), b.remaining(pa), "round {round} pa {pa}");
                assert_eq!(a.write_count(pa), b.write_count(pa));
            }
        }
    }

    #[test]
    fn reset_restores_full_countdowns_and_clears_overlay() {
        let limits: Vec<u32> = (0..16).map(|i| 3 + i % 5).collect();
        let mut w = WearState::new(16, 0, Some(limits.clone()));
        for _ in 0..10 {
            w.countdown(3);
        }
        assert!(w.failed.is_some());
        w.reset();
        assert!(w.failed.is_none());
        for pa in 0..16u64 {
            assert_eq!(w.remaining(pa), u64::from(limits[pa as usize]));
            assert_eq!(w.write_count(pa), 0);
        }
    }
}
