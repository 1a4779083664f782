//! YCSB-style key-value service traffic: Zipf-skewed popularity over a
//! sliding hot set.
//!
//! Cloud serving benchmarks (YCSB and the services it models) draw keys
//! from a Zipf distribution, but the *identity* of the hot keys drifts as
//! sessions come and go. This generator reproduces that: requests are
//! Zipf-ranked within a `hot_lines`-line window, and every `rotate_every`
//! requests the window slides forward by `drift` lines (wrapping around
//! the space). A wear leveler that adapts its swap rate to the observed
//! write pressure — SAWL's self-adaptive loop — is exactly what this
//! drift stresses: yesterday's hot lines go cold while their accumulated
//! wear stays.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;
use crate::{AddressStream, CursorKind, MemReq};

/// Zipf over a sliding hot window, rotating on a request clock.
#[derive(Debug, Clone)]
pub struct Ycsb {
    rng: SmallRng,
    zipf: Zipf,
    space: u64,
    hot_lines: u64,
    write_ratio: f64,
    rotate_every: u64,
    drift: u64,
    /// First line of the current hot window.
    start: u64,
    /// Requests left before the window slides.
    until_rotate: u64,
}

impl Ycsb {
    /// Zipf(`exponent`) traffic over a `hot_lines` window of `space`
    /// lines, sliding forward by `drift` lines every `rotate_every`
    /// requests; each request writes with probability `write_ratio`.
    pub fn new(
        space: u64,
        hot_lines: u64,
        exponent: f64,
        write_ratio: f64,
        rotate_every: u64,
        drift: u64,
        seed: u64,
    ) -> Self {
        assert!(space > 0, "empty address space");
        assert!(hot_lines > 0 && hot_lines <= space, "hot set must fit the space");
        assert!((0.0..=1.0).contains(&write_ratio));
        assert!(rotate_every > 0, "rotation clock must be non-zero");
        Self {
            rng: SmallRng::seed_from_u64(seed),
            zipf: Zipf::new(hot_lines, exponent),
            space,
            hot_lines,
            write_ratio,
            rotate_every,
            drift,
            start: 0,
            until_rotate: rotate_every,
        }
    }

    /// First line of the current hot window.
    pub fn window_start(&self) -> u64 {
        self.start
    }

    /// Size of the sliding hot window, in lines.
    pub fn hot_lines(&self) -> u64 {
        self.hot_lines
    }
}

impl AddressStream for Ycsb {
    #[inline]
    fn next_req(&mut self) -> MemReq {
        if self.until_rotate == 0 {
            self.start = (self.start + self.drift) % self.space;
            self.until_rotate = self.rotate_every;
        }
        self.until_rotate -= 1;
        let rank = self.zipf.sample(&mut self.rng);
        // `start < space` and `rank < hot_lines <= space`: one wrap at most.
        let mut la = self.start + rank;
        if la >= self.space {
            la -= self.space;
        }
        let write = self.rng.random::<f64>() < self.write_ratio;
        MemReq { la, write }
    }

    fn space_lines(&self) -> u64 {
        self.space
    }

    fn name(&self) -> &str {
        "ycsb"
    }

    fn cursor_kind(&self) -> CursorKind {
        CursorKind::State
    }

    fn cursor_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_rng(self.rng.state());
        w.put_u64(self.start);
        w.put_u64(self.until_rotate);
    }

    fn cursor_restore(&mut self, r: &mut sawl_ckpt::Reader) -> Result<(), sawl_ckpt::CkptError> {
        self.rng = SmallRng::from_state(r.get_rng()?);
        self.start = r.get_u64()?;
        self.until_rotate = r.get_u64()?;
        if self.start >= self.space {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "ycsb window start {} outside space {}",
                self.start, self.space
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_in_space_and_skews_toward_the_window_head() {
        let mut y = Ycsb::new(1 << 12, 256, 1.1, 0.8, 10_000, 64, 7);
        let mut head = 0usize;
        let total = 8_000;
        for _ in 0..total {
            let r = y.next_req();
            assert!(r.la < 1 << 12);
            // Within the first window (no rotation yet at < 10k requests),
            // the head ranks are lines 0..16.
            head += usize::from(r.la < 16);
        }
        assert!(head as f64 / total as f64 > 0.3, "head fraction {head}/{total}");
    }

    #[test]
    fn window_slides_on_the_request_clock() {
        let mut y = Ycsb::new(1 << 10, 32, 1.2, 1.0, 100, 8, 3);
        assert_eq!(y.window_start(), 0);
        for _ in 0..100 {
            y.next_req();
        }
        // The 101st request observes the rotated window.
        y.next_req();
        assert_eq!(y.window_start(), 8);
    }

    #[test]
    fn window_wraps_around_the_space() {
        let mut y = Ycsb::new(64, 16, 1.0, 1.0, 1, 48, 1);
        for _ in 0..200 {
            let r = y.next_req();
            assert!(r.la < 64);
        }
    }

    #[test]
    fn cursor_round_trips() {
        let mut reference = Ycsb::new(1 << 10, 64, 1.1, 0.6, 57, 16, 9);
        for _ in 0..123 {
            reference.next_req();
        }
        let mut w = sawl_ckpt::Writer::new();
        reference.cursor_save(&mut w);
        let payload = w.into_payload();
        let mut restored = Ycsb::new(1 << 10, 64, 1.1, 0.6, 57, 16, 9);
        let mut r = sawl_ckpt::Reader::new(&payload);
        restored.cursor_restore(&mut r).unwrap();
        r.finish().unwrap();
        for i in 0..500 {
            assert_eq!(restored.next_req(), reference.next_req(), "diverged at {i}");
        }
    }
}
