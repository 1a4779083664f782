//! Zipf-distributed rank sampling.
//!
//! Memory-access popularity in real applications is heavy-tailed; the
//! SPEC-like models draw "hot" accesses from a Zipf distribution over the
//! benchmark footprint. `rand_distr` is outside the dependency budget, so we
//! implement the standard rejection-inversion sampler of Hörmann &
//! Derflinger ("Rejection-inversion to generate variates from monotone
//! discrete distributions", ACM TOMACS 1996) — the same algorithm used by
//! `rand_distr::Zipf`. Sampling is O(1) per draw with no table.

use rand::Rng;

/// Zipf sampler over ranks `0..n` with exponent `s > 0`:
/// P(rank = k) ∝ 1 / (k + 1)^s.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    s: f64,
    /// H(x) = ∫ (1+t)^-s dt helper values precomputed at construction.
    h_x1: f64,
    h_n: f64,
    /// Acceptance threshold constant.
    t: f64,
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
        Self { n, s, h_x1, h_n, t }
    }

    /// Number of ranks in the support.
    pub fn support(&self) -> u64 {
        self.n
    }

    /// Exponent.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// Draw a rank in `0..n` (rank 0 is the most popular).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let u = self.h_n + rng.random::<f64>() * (self.h_x1 - self.h_n);
            let x = h_inv(u, self.s);
            let k = x.round().clamp(1.0, self.n as f64);
            // Accept early in the dominant region, otherwise test exactly.
            if (k - x).abs() <= self.t || u >= h(k + 0.5, self.s) - k.powf(-self.s) {
                return k as u64 - 1;
            }
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
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
