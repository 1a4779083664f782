//! Zipf-distributed rank sampling.
//!
//! Memory-access popularity in real applications is heavy-tailed; the
//! SPEC-like models draw "hot" accesses from a Zipf distribution over the
//! benchmark footprint. `rand_distr` is outside the dependency budget, so we
//! implement the standard rejection-inversion sampler of Hörmann &
//! Derflinger ("Rejection-inversion to generate variates from monotone
//! discrete distributions", ACM TOMACS 1996) — the same algorithm used by
//! `rand_distr::Zipf`. Sampling is O(1) per draw.
//!
//! Most draws end at the first try's early accept, and their cost is the
//! `powf` in [`h_inv`]. A guide table over the unit draw skips it: bucket
//! `b` of `M` covers draws in `[b/M, (b+1)/M)` and names the rank every
//! draw there returns on its first try, or [`NO_RANK`] when it cannot
//! prove one. A hit returns that rank with no float work; a miss runs the
//! rejection loop on the same draw. Ranks and RNG draws are bit-identical
//! to the loop alone (DESIGN.md §10 gives the argument).

use std::fmt;

use rand::Rng;

/// Guide entry of a bucket whose draws do not all return one rank on
/// their first try.
const NO_RANK: u16 = u16::MAX;
/// Guide buckets per rank, before the cap.
const BUCKETS_PER_RANK: u64 = 64;
/// Most guide buckets: a table is at most 128 KiB.
const MAX_BUCKETS: u64 = 1 << 16;

/// Zipf sampler over ranks `0..n` with exponent `s > 0`:
/// P(rank = k) ∝ 1 / (k + 1)^s.
#[derive(Clone)]
pub struct Zipf {
    n: u64,
    s: f64,
    /// H(x) = ∫ (1+t)^-s dt helper values precomputed at construction.
    h_x1: f64,
    h_n: f64,
    /// Acceptance threshold constant.
    t: f64,
    /// Guide over the unit draw: 0-based rank or [`NO_RANK`] per bucket.
    /// Empty on the `s ≈ 1` path, where `h_inv` is a cheap `exp`.
    guide: Box<[u16]>,
    /// Bucket count as a float: bucket of draw `r` is `⌊r·buckets⌋`.
    buckets: f64,
}

impl fmt::Debug for Zipf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Zipf")
            .field("n", &self.n)
            .field("s", &self.s)
            .field("guide_buckets", &self.guide.len())
            .finish()
    }
}

impl Zipf {
    /// Create a sampler over `n` ranks with exponent `s`.
    ///
    /// Panics if `n == 0` or `s` is not finite and positive.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "zipf over empty support");
        assert!(s.is_finite() && s > 0.0, "zipf exponent must be positive, got {s}");
        let h_x1 = h(1.5, s) - 1.0;
        let h_n = h(n as f64 + 0.5, s);
        let t = 2.0 - h_inv(h(2.5, s) - (2f64).powf(-s), s);
        let mut z = Self { n, s, h_x1, h_n, t, guide: Box::default(), buckets: 0.0 };
        // Near s = 1 `h_inv` is a cheap `exp` and a lookup does not pay;
        // without a positive `t` no draw is accepted early.
        if (1.0 - s).abs() >= 1e-9 && t > 0.0 {
            let m = (n.min(MAX_BUCKETS) * BUCKETS_PER_RANK).next_power_of_two().min(MAX_BUCKETS);
            z.buckets = m as f64;
            z.guide = z.build_guide(m);
        }
        z
    }

    /// The guide's `m` entries. `u(r)` and `fl(1 + q·u)` are monotone in
    /// the draw `r`, and `powf` is within an ulp or two of exact, so over
    /// a span of draws `h_inv` stays between its values at the span's two
    /// ends, up to a few ulps. Rank `k` therefore owns the buckets between
    /// two edges whose `h_inv` both lie in `[k − t, k + t]` (and within
    /// half a rank of `k`) by a margin of `1e-9·(k+1)`, far above that
    /// error. `h` guesses the edges; `h_inv` at the edges, as `sample`
    /// computes it, decides.
    fn build_guide(&self, m: u64) -> Box<[u16]> {
        let mut guide = vec![NO_RANK; m as usize];
        let reach = self.t.min(0.5);
        let x_at = |edge: u64| h_inv(self.u(edge as f64 / self.buckets), self.s);
        // `x` falls as the draw rises, so rank k's draws start where x is
        // largest.
        let edge_of = |x: f64| (h(x, self.s) - self.h_n) / (self.h_x1 - self.h_n) * self.buckets;
        for k in 1..=self.n.min(u64::from(NO_RANK)) {
            let kf = k as f64;
            let margin = 1e-9 * (kf + 1.0);
            let (lo, hi) = (kf - reach + margin, kf + reach - margin);
            let (first, last) = (edge_of(hi), edge_of(lo));
            if last - first < 1.0 {
                // Too narrow for a whole bucket; later ranks are narrower.
                break;
            }
            let inside = |x: f64| x >= lo && x <= hi;
            let mut a = first.ceil().max(0.0) as u64;
            let mut z = last.floor().min(m as f64) as u64;
            while a < z && !inside(x_at(a)) {
                a += 1;
            }
            while a < z && !inside(x_at(z)) {
                z -= 1;
            }
            guide[a as usize..z as usize].fill((k - 1) as u16);
        }
        guide.into_boxed_slice()
    }

    /// Number of ranks in the support.
    pub fn support(&self) -> u64 {
        self.n
    }

    /// Exponent.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// The point in `[h_x1, h_n]` that the unit draw `r` inverts.
    #[inline(always)]
    fn u(&self, r: f64) -> f64 {
        self.h_n + r * (self.h_x1 - self.h_n)
    }

    /// Draw a rank in `0..n` (rank 0 is the most popular).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if !self.guide.is_empty() {
            let r = rng.random::<f64>();
            let rank = self.guide[(r * self.buckets) as usize];
            if rank != NO_RANK {
                return u64::from(rank);
            }
            if let Some(rank) = self.attempt(r) {
                return rank;
            }
        }
        loop {
            if let Some(rank) = self.attempt(rng.random::<f64>()) {
                return rank;
            }
        }
    }

    /// One try of the rejection loop on the unit draw `r`.
    #[inline(always)]
    fn attempt(&self, r: f64) -> Option<u64> {
        let u = self.u(r);
        let x = h_inv(u, self.s);
        let k = x.round().clamp(1.0, self.n as f64);
        // Accept early in the dominant region, otherwise test exactly.
        if (k - x).abs() <= self.t || u >= h(k + 0.5, self.s) - k.powf(-self.s) {
            Some(k as u64 - 1)
        } else {
            None
        }
    }
}

/// H(x) = (x^(1-s) - 1) / (1 - s), the antiderivative of x^-s shifted so
/// H(1) = 0; degenerates to ln(x) as s -> 1.
fn h(x: f64, s: f64) -> f64 {
    let q = 1.0 - s;
    if q.abs() < 1e-9 {
        x.ln()
    } else {
        (x.powf(q) - 1.0) / q
    }
}

/// Inverse of [`h`].
fn h_inv(y: f64, s: f64) -> f64 {
    let q = 1.0 - s;
    if q.abs() < 1e-9 {
        y.exp()
    } else {
        (1.0 + q * y).powf(1.0 / q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The rejection-inversion loop without the guide: what
    /// [`Zipf::sample`] must equal draw for draw.
    fn reference_sample<R: Rng + ?Sized>(z: &Zipf, rng: &mut R) -> u64 {
        loop {
            let u = z.h_n + rng.random::<f64>() * (z.h_x1 - z.h_n);
            let x = h_inv(u, z.s);
            let k = x.round().clamp(1.0, z.n as f64);
            if (k - x).abs() <= z.t || u >= h(k + 0.5, z.s) - k.powf(-z.s) {
                return k as u64 - 1;
            }
        }
    }

    /// Exponent from a proptest pick: `s = 1` and its neighbours either
    /// side of the `exp` branch's `1e-9` cut, else uniform on (0.05, 4].
    fn exponent_from(mode: u8, pick: u64) -> f64 {
        match mode {
            0 => 1.0,
            1 => 1.0 + 1e-10,
            2 => 1.0 - 1e-10,
            3 => 1.0 + 2e-9,
            4 => 1.0 - 2e-9,
            _ => 0.05 + (pick + 1) as f64 * (3.95 / 1_000_000.0),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48 })]

        #[test]
        fn guided_sample_equals_the_reference_loop(
            bits in 0u32..23,
            n_pick in any::<u64>(),
            mode in 0u8..12,
            s_pick in 0u64..1_000_000,
            seed in any::<u64>(),
        ) {
            let n = 1 + n_pick % (1u64 << bits);
            let s = exponent_from(mode, s_pick);
            let z = Zipf::new(n, s);
            let mut guided = SmallRng::seed_from_u64(seed);
            let mut reference = SmallRng::seed_from_u64(seed);
            for i in 0..4_096 {
                let (g, r) = (z.sample(&mut guided), reference_sample(&z, &mut reference));
                assert_eq!(g, r, "n={n} s={s} draw {i}");
            }
            assert_eq!(guided.state(), reference.state(), "n={n} s={s}: RNG end states differ");
        }
    }

    #[test]
    fn guide_is_bounded_and_absent_at_s_one() {
        assert!(Zipf::new(1 << 22, 1.0).guide.is_empty());
        assert!(Zipf::new(1 << 22, 1.0 + 1e-10).guide.is_empty());
        assert_eq!(Zipf::new(1 << 22, 1.1).guide.len(), 1 << 16);
        assert_eq!(Zipf::new(512, 1.1).guide.len(), 512 * 64);
        assert_eq!(Zipf::new(1, 0.7).guide.len(), 64);
        assert_eq!(Zipf::new(3, 0.7).guide.len(), 256);
    }

    #[test]
    fn guide_covers_most_skewed_draws() {
        // The guide only pays off if most draws hit it.
        let z = Zipf::new(1 << 16, 1.1);
        let hits = z.guide.iter().filter(|&&e| e != NO_RANK).count();
        assert!(hits * 2 > z.guide.len(), "{hits} of {} buckets proven", z.guide.len());
    }

    fn frequencies(n: u64, s: f64, draws: usize) -> Vec<f64> {
        let z = Zipf::new(n, s);
        let mut rng = SmallRng::seed_from_u64(1234);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..draws {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    fn theoretical(n: u64, s: f64) -> Vec<f64> {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let z: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / z).collect()
    }

    #[test]
    fn matches_theoretical_pmf_small_support() {
        for &s in &[0.5, 0.99, 1.0, 1.2, 2.0] {
            let emp = frequencies(10, s, 400_000);
            let theo = theoretical(10, s);
            for (k, (e, t)) in emp.iter().zip(&theo).enumerate() {
                assert!(
                    (e - t).abs() < 0.01,
                    "s={s} rank={k}: empirical {e:.4} vs theoretical {t:.4}"
                );
            }
        }
    }

    #[test]
    fn samples_stay_in_support() {
        let z = Zipf::new(7, 1.1);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn rank_zero_is_most_popular() {
        let emp = frequencies(100, 1.0, 200_000);
        assert!(emp[0] > emp[1]);
        assert!(emp[1] > emp[10]);
        assert!(emp[10] > emp[99]);
    }

    #[test]
    fn higher_exponent_concentrates_mass() {
        let flat = frequencies(50, 0.5, 200_000);
        let steep = frequencies(50, 2.0, 200_000);
        assert!(steep[0] > flat[0] * 2.0);
    }

    #[test]
    fn singleton_support_always_zero() {
        let z = Zipf::new(1, 1.3);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "empty support")]
    fn zero_support_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_exponent_panics() {
        let _ = Zipf::new(10, 0.0);
    }
}
