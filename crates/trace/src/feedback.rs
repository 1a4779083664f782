//! FTL/GC-style feedback workload: a generator that *reacts* to device
//! wear.
//!
//! Flash translation layers interleave host traffic with garbage-
//! collection bursts, and wear-aware FTLs tune the GC trigger from the
//! device's own statistics — a dynamic threshold of the form
//! `base + k1·(WAF − 1) − k2·wear_CoV`: defer cleaning while write
//! amplification is already high, clean more eagerly while wear is
//! uneven. This generator reproduces that closed loop on top of the
//! driver's observation hook: Zipf-skewed host writes accumulate
//! modelled invalid lines; at every batch boundary the driver feeds a
//! [`WearObservation`] and the trigger fires when the invalid ratio
//! crosses the dynamic threshold, switching the stream into a
//! sequential cleaning burst.
//!
//! Because the trigger consumes device state, the stream is *not*
//! replayable from its spec alone: it declares a
//! [`CursorKind::State`] cursor and checkpoints its full position.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;
use crate::{AddressStream, CursorKind, MemReq, WearObservation};

/// What the generator is currently emitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Zipf-skewed host traffic.
    Host,
    /// A sequential cleaning burst with this many writes left.
    Gc { remaining: u64 },
}

/// Wear-feedback GC workload: Zipf host traffic with observation-driven
/// sequential cleaning bursts.
#[derive(Debug, Clone)]
pub struct GcFeedback {
    rng: SmallRng,
    zipf: Zipf,
    space: u64,
    write_ratio: f64,
    /// Base invalid-ratio trigger threshold.
    base_threshold: f64,
    /// Threshold gain on (WAF − 1): high amplification defers cleaning.
    waf_gain: f64,
    /// Threshold gain on wear CoV: uneven wear advances cleaning.
    cov_gain: f64,
    /// Writes per cleaning burst.
    gc_burst: u64,
    /// Modelled invalid lines awaiting cleaning.
    invalid: u64,
    mode: Mode,
    /// Next line the cleaner relocates (walks the space cyclically).
    gc_cursor: u64,
    /// Cleaning bursts triggered so far (observability).
    gc_triggers: u64,
}

impl GcFeedback {
    /// Zipf(`exponent`) host traffic over `space` lines with the given
    /// write ratio; cleaning bursts of `gc_burst` sequential writes fire
    /// when the invalid ratio crosses
    /// `base_threshold + waf_gain·(WAF−1) − cov_gain·wear_CoV`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        space: u64,
        exponent: f64,
        write_ratio: f64,
        base_threshold: f64,
        waf_gain: f64,
        cov_gain: f64,
        gc_burst: u64,
        seed: u64,
    ) -> Self {
        assert!(space > 0, "empty address space");
        assert!((0.0..=1.0).contains(&write_ratio));
        assert!((0.0..=1.0).contains(&base_threshold), "base threshold is a ratio");
        assert!(gc_burst > 0, "cleaning burst must be non-zero");
        Self {
            rng: SmallRng::seed_from_u64(seed),
            zipf: Zipf::new(space, exponent),
            space,
            write_ratio,
            base_threshold,
            waf_gain,
            cov_gain,
            gc_burst,
            invalid: 0,
            mode: Mode::Host,
            gc_cursor: 0,
            gc_triggers: 0,
        }
    }

    /// Cleaning bursts triggered so far.
    pub fn gc_triggers(&self) -> u64 {
        self.gc_triggers
    }

    /// Whether a cleaning burst is in progress.
    pub fn in_gc(&self) -> bool {
        matches!(self.mode, Mode::Gc { .. })
    }

    /// The dynamic trigger threshold for a given observation.
    pub fn dynamic_threshold(&self, obs: &WearObservation) -> f64 {
        (self.base_threshold + self.waf_gain * (obs.waf() - 1.0) - self.cov_gain * obs.wear_cov)
            .clamp(0.02, 0.98)
    }
}

impl AddressStream for GcFeedback {
    #[inline]
    fn next_req(&mut self) -> MemReq {
        match self.mode {
            Mode::Host => {
                let la = self.zipf.sample(&mut self.rng);
                let write = self.rng.random::<f64>() < self.write_ratio;
                if write {
                    // An overwrite invalidates the key's previous version.
                    self.invalid = (self.invalid + 1).min(self.space);
                }
                MemReq { la, write }
            }
            Mode::Gc { remaining } => {
                let la = self.gc_cursor;
                self.gc_cursor = (self.gc_cursor + 1) % self.space;
                self.invalid = self.invalid.saturating_sub(1);
                self.mode =
                    if remaining > 1 { Mode::Gc { remaining: remaining - 1 } } else { Mode::Host };
                MemReq::write(la)
            }
        }
    }

    fn space_lines(&self) -> u64 {
        self.space
    }

    fn name(&self) -> &str {
        "gc-feedback"
    }

    fn wants_observation(&self) -> bool {
        true
    }

    fn observe_wear(&mut self, obs: &WearObservation) {
        // Never preempt a burst in flight; the trigger is edge-sensitive
        // at batch boundaries, which keeps batched and scalar drivers
        // bit-identical as long as both feed observations at the same
        // request offsets.
        if self.in_gc() {
            return;
        }
        let invalid_ratio = self.invalid as f64 / self.space as f64;
        if invalid_ratio > self.dynamic_threshold(obs) {
            self.mode = Mode::Gc { remaining: self.gc_burst };
            self.gc_triggers += 1;
        }
    }

    fn cursor_kind(&self) -> CursorKind {
        CursorKind::State
    }

    fn cursor_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_rng(self.rng.state());
        w.put_u64(self.invalid);
        match self.mode {
            Mode::Host => {
                w.put_u8(0);
                w.put_u64(0);
            }
            Mode::Gc { remaining } => {
                w.put_u8(1);
                w.put_u64(remaining);
            }
        }
        w.put_u64(self.gc_cursor);
        w.put_u64(self.gc_triggers);
    }

    fn cursor_restore(&mut self, r: &mut sawl_ckpt::Reader) -> Result<(), sawl_ckpt::CkptError> {
        self.rng = SmallRng::from_state(r.get_rng()?);
        self.invalid = r.get_u64()?;
        let tag = r.get_u8()?;
        let remaining = r.get_u64()?;
        self.mode = match tag {
            0 => Mode::Host,
            1 if remaining > 0 && remaining <= self.gc_burst => Mode::Gc { remaining },
            1 => {
                return Err(sawl_ckpt::CkptError::Corrupt(format!(
                    "gc burst remainder {remaining} outside the {}-write burst",
                    self.gc_burst
                )))
            }
            t => return Err(sawl_ckpt::CkptError::Corrupt(format!("unknown gc mode tag {t}"))),
        };
        self.gc_cursor = r.get_u64()?;
        if self.gc_cursor >= self.space {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "gc cursor {} outside space {}",
                self.gc_cursor, self.space
            )));
        }
        self.gc_triggers = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(demand: u64, overhead: u64, cov: f64) -> WearObservation {
        WearObservation {
            demand_writes: demand,
            overhead_writes: overhead,
            wear_mean: 1.0,
            wear_cov: cov,
            wear_max: 1,
        }
    }

    #[test]
    fn host_mode_until_the_trigger_fires() {
        let mut g = GcFeedback::new(1 << 10, 1.0, 1.0, 0.1, 0.0, 0.0, 64, 7);
        assert!(!g.in_gc());
        // Accumulate invalid lines past 10% of the space, then observe.
        for _ in 0..200 {
            assert!(g.next_req().write);
        }
        g.observe_wear(&obs(200, 0, 0.0));
        assert!(g.in_gc(), "invalid ratio 200/1024 > 0.1 must trigger");
        assert_eq!(g.gc_triggers(), 1);
        // The burst is sequential writes from the cleaning cursor.
        let first = g.next_req();
        let second = g.next_req();
        assert!(first.write && second.write);
        assert_eq!(second.la, first.la + 1);
        // It ends after exactly gc_burst writes.
        for _ in 2..64 {
            g.next_req();
        }
        assert!(!g.in_gc());
    }

    #[test]
    fn waf_defers_and_cov_advances_the_trigger() {
        let g = GcFeedback::new(1 << 10, 1.0, 1.0, 0.3, 0.5, 0.5, 64, 7);
        let base = g.dynamic_threshold(&obs(100, 0, 0.0));
        let high_waf = g.dynamic_threshold(&obs(100, 100, 0.0));
        let high_cov = g.dynamic_threshold(&obs(100, 0, 0.4));
        assert!(high_waf > base, "WAF must raise the threshold");
        assert!(high_cov < base, "wear CoV must lower the threshold");
    }

    #[test]
    fn observation_mid_burst_is_ignored() {
        let mut g = GcFeedback::new(256, 1.0, 1.0, 0.05, 0.0, 0.0, 32, 3);
        for _ in 0..100 {
            g.next_req();
        }
        g.observe_wear(&obs(100, 0, 0.0));
        assert!(g.in_gc());
        g.observe_wear(&obs(100, 0, 0.0));
        assert_eq!(g.gc_triggers(), 1, "no re-trigger mid-burst");
    }

    #[test]
    fn cursor_round_trips_mid_burst() {
        let mk = || GcFeedback::new(1 << 10, 1.1, 0.9, 0.05, 0.2, 0.3, 48, 11);
        let mut reference = mk();
        for _ in 0..300 {
            reference.next_req();
        }
        reference.observe_wear(&obs(300, 17, 0.2));
        for _ in 0..10 {
            reference.next_req();
        }
        assert!(reference.in_gc());
        let mut w = sawl_ckpt::Writer::new();
        reference.cursor_save(&mut w);
        let payload = w.into_payload();
        let mut restored = mk();
        let mut r = sawl_ckpt::Reader::new(&payload);
        restored.cursor_restore(&mut r).unwrap();
        r.finish().unwrap();
        for i in 0..500 {
            assert_eq!(restored.next_req(), reference.next_req(), "diverged at {i}");
        }
        assert_eq!(restored.gc_triggers(), reference.gc_triggers());
    }

    #[test]
    fn declares_a_state_cursor_and_wants_observation() {
        let g = GcFeedback::new(256, 1.0, 0.5, 0.2, 0.1, 0.1, 16, 1);
        assert!(g.wants_observation());
        assert_eq!(g.cursor_kind(), CursorKind::State);
    }
}
