//! Elementary access patterns: uniform random, Zipf-popular, sequential
//! scan, strided walk, and hotspot. These are the building blocks the
//! SPEC-like models compose, and they double as well-understood unit-test
//! workloads.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;
use crate::{AddressStream, CursorKind, MemReq};

/// Uniform random accesses over the whole space.
#[derive(Debug, Clone)]
pub struct Uniform {
    rng: SmallRng,
    space: u64,
    write_ratio: f64,
}

impl Uniform {
    /// Uniform stream over `space` lines; each request is a write with
    /// probability `write_ratio`.
    pub fn new(space: u64, write_ratio: f64, seed: u64) -> Self {
        assert!(space > 0);
        assert!((0.0..=1.0).contains(&write_ratio));
        Self { rng: SmallRng::seed_from_u64(seed), space, write_ratio }
    }
}

impl AddressStream for Uniform {
    #[inline]
    fn next_req(&mut self) -> MemReq {
        let la = self.rng.random_range(0..self.space);
        let write = self.rng.random::<f64>() < self.write_ratio;
        MemReq { la, write }
    }

    fn space_lines(&self) -> u64 {
        self.space
    }

    fn name(&self) -> &str {
        "uniform"
    }

    fn cursor_kind(&self) -> CursorKind {
        CursorKind::State
    }

    fn cursor_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_rng(self.rng.state());
    }

    fn cursor_restore(&mut self, r: &mut sawl_ckpt::Reader) -> Result<(), sawl_ckpt::CkptError> {
        self.rng = SmallRng::from_state(r.get_rng()?);
        Ok(())
    }
}

/// Zipf-popular accesses: each request draws a line by Zipf rank
/// (P(line = k) ∝ 1/(k+1)^s), the heavy-tailed popularity profile of real
/// application heaps. Rank r maps to line r directly — wear-leveling
/// permutations spread the hot lines physically, so no extra scrambling is
/// warranted here.
#[derive(Debug, Clone)]
pub struct ZipfStream {
    rng: SmallRng,
    zipf: Zipf,
    space: u64,
    write_ratio: f64,
}

impl ZipfStream {
    /// Zipf stream over `space` lines with exponent `exponent > 0`; each
    /// request is a write with probability `write_ratio`.
    pub fn new(space: u64, exponent: f64, write_ratio: f64, seed: u64) -> Self {
        assert!(space > 0);
        assert!((0.0..=1.0).contains(&write_ratio));
        Self {
            rng: SmallRng::seed_from_u64(seed),
            zipf: Zipf::new(space, exponent),
            space,
            write_ratio,
        }
    }
}

impl AddressStream for ZipfStream {
    #[inline]
    fn next_req(&mut self) -> MemReq {
        let la = self.zipf.sample(&mut self.rng);
        let write = self.rng.random::<f64>() < self.write_ratio;
        MemReq { la, write }
    }

    fn space_lines(&self) -> u64 {
        self.space
    }

    fn name(&self) -> &str {
        "zipf"
    }

    fn cursor_kind(&self) -> CursorKind {
        CursorKind::State
    }

    fn cursor_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_rng(self.rng.state());
    }

    fn cursor_restore(&mut self, r: &mut sawl_ckpt::Reader) -> Result<(), sawl_ckpt::CkptError> {
        self.rng = SmallRng::from_state(r.get_rng()?);
        Ok(())
    }
}

/// Sequential scan: walks `base..base+len` cyclically, one line at a time.
#[derive(Debug, Clone)]
pub struct SeqScan {
    rng: SmallRng,
    space: u64,
    base: u64,
    len: u64,
    pos: u64,
    write_ratio: f64,
}

impl SeqScan {
    /// Scan `len` lines starting at `base` (wrapping within the window).
    pub fn new(space: u64, base: u64, len: u64, write_ratio: f64, seed: u64) -> Self {
        assert!(len > 0 && base + len <= space, "scan window out of range");
        assert!((0.0..=1.0).contains(&write_ratio));
        Self { rng: SmallRng::seed_from_u64(seed), space, base, len, pos: 0, write_ratio }
    }
}

impl AddressStream for SeqScan {
    #[inline]
    fn next_req(&mut self) -> MemReq {
        let la = self.base + self.pos;
        self.pos = (self.pos + 1) % self.len;
        let write = self.rng.random::<f64>() < self.write_ratio;
        MemReq { la, write }
    }

    fn space_lines(&self) -> u64 {
        self.space
    }

    fn name(&self) -> &str {
        "seqscan"
    }

    fn cursor_kind(&self) -> CursorKind {
        CursorKind::State
    }

    fn cursor_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_rng(self.rng.state());
        w.put_u64(self.pos);
    }

    fn cursor_restore(&mut self, r: &mut sawl_ckpt::Reader) -> Result<(), sawl_ckpt::CkptError> {
        self.rng = SmallRng::from_state(r.get_rng()?);
        self.pos = r.get_u64()?;
        Ok(())
    }
}

/// Strided walk: visits `base + k*stride (mod window)`, modelling
/// column-major sweeps and pointer-chasing with fixed skip.
#[derive(Debug, Clone)]
pub struct Stride {
    rng: SmallRng,
    space: u64,
    base: u64,
    window: u64,
    stride: u64,
    pos: u64,
    write_ratio: f64,
}

impl Stride {
    /// Walk a `window`-line region starting at `base` with the given stride.
    pub fn new(
        space: u64,
        base: u64,
        window: u64,
        stride: u64,
        write_ratio: f64,
        seed: u64,
    ) -> Self {
        assert!(window > 0 && base + window <= space, "stride window out of range");
        assert!(stride > 0, "stride must be non-zero");
        assert!((0.0..=1.0).contains(&write_ratio));
        Self {
            rng: SmallRng::seed_from_u64(seed),
            space,
            base,
            window,
            stride,
            pos: 0,
            write_ratio,
        }
    }
}

impl AddressStream for Stride {
    #[inline]
    fn next_req(&mut self) -> MemReq {
        let la = self.base + self.pos;
        self.pos = (self.pos + self.stride) % self.window;
        let write = self.rng.random::<f64>() < self.write_ratio;
        MemReq { la, write }
    }

    fn space_lines(&self) -> u64 {
        self.space
    }

    fn name(&self) -> &str {
        "stride"
    }

    fn cursor_kind(&self) -> CursorKind {
        CursorKind::State
    }

    fn cursor_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_rng(self.rng.state());
        w.put_u64(self.pos);
    }

    fn cursor_restore(&mut self, r: &mut sawl_ckpt::Reader) -> Result<(), sawl_ckpt::CkptError> {
        self.rng = SmallRng::from_state(r.get_rng()?);
        self.pos = r.get_u64()?;
        Ok(())
    }
}

/// Hotspot: a fraction of requests hits a small hot window uniformly, the
/// rest spread uniformly over the whole space (the classic 90/10 pattern).
#[derive(Debug, Clone)]
pub struct Hotspot {
    rng: SmallRng,
    space: u64,
    hot_base: u64,
    hot_len: u64,
    hot_prob: f64,
    write_ratio: f64,
}

impl Hotspot {
    /// `hot_prob` of requests land in `[hot_base, hot_base+hot_len)`.
    pub fn new(
        space: u64,
        hot_base: u64,
        hot_len: u64,
        hot_prob: f64,
        write_ratio: f64,
        seed: u64,
    ) -> Self {
        assert!(hot_len > 0 && hot_base + hot_len <= space, "hot window out of range");
        assert!((0.0..=1.0).contains(&hot_prob));
        assert!((0.0..=1.0).contains(&write_ratio));
        Self { rng: SmallRng::seed_from_u64(seed), space, hot_base, hot_len, hot_prob, write_ratio }
    }
}

impl AddressStream for Hotspot {
    #[inline]
    fn next_req(&mut self) -> MemReq {
        let la = if self.rng.random::<f64>() < self.hot_prob {
            self.hot_base + self.rng.random_range(0..self.hot_len)
        } else {
            self.rng.random_range(0..self.space)
        };
        let write = self.rng.random::<f64>() < self.write_ratio;
        MemReq { la, write }
    }

    fn space_lines(&self) -> u64 {
        self.space
    }

    fn name(&self) -> &str {
        "hotspot"
    }

    fn cursor_kind(&self) -> CursorKind {
        CursorKind::State
    }

    fn cursor_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_rng(self.rng.state());
    }

    fn cursor_restore(&mut self, r: &mut sawl_ckpt::Reader) -> Result<(), sawl_ckpt::CkptError> {
        self.rng = SmallRng::from_state(r.get_rng()?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_space() {
        let mut u = Uniform::new(16, 0.5, 1);
        let mut seen = [false; 16];
        for _ in 0..2000 {
            let r = u.next_req();
            assert!(r.la < 16);
            seen[r.la as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_write_ratio_respected() {
        let mut u = Uniform::new(1024, 0.3, 2);
        let writes = (0..100_000).filter(|_| u.next_req().write).count();
        let ratio = writes as f64 / 100_000.0;
        assert!((ratio - 0.3).abs() < 0.01, "write ratio {ratio}");
    }

    #[test]
    fn seqscan_wraps_within_window() {
        let mut s = SeqScan::new(100, 10, 5, 1.0, 0);
        let addrs: Vec<u64> = (0..12).map(|_| s.next_req().la).collect();
        assert_eq!(addrs, vec![10, 11, 12, 13, 14, 10, 11, 12, 13, 14, 10, 11]);
    }

    #[test]
    fn stride_visits_expected_sequence() {
        let mut s = Stride::new(100, 0, 8, 3, 1.0, 0);
        let addrs: Vec<u64> = (0..8).map(|_| s.next_req().la).collect();
        // 0, 3, 6, 1 (9 mod 8), 4, 7, 2 (10 mod 8 -> 2), 5
        assert_eq!(addrs, vec![0, 3, 6, 1, 4, 7, 2, 5]);
    }

    #[test]
    fn stride_coprime_covers_window() {
        let mut s = Stride::new(64, 0, 16, 5, 1.0, 0);
        let mut seen = [false; 16];
        for _ in 0..16 {
            seen[s.next_req().la as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn hotspot_concentrates_requests() {
        let mut h = Hotspot::new(1 << 16, 0, 64, 0.9, 1.0, 3);
        let total = 50_000;
        let hot = (0..total).filter(|_| h.next_req().la < 64).count();
        let frac = hot as f64 / total as f64;
        // 0.9 hot probability plus the sliver of cold traffic landing there.
        assert!((frac - 0.9).abs() < 0.01, "hot fraction {frac}");
    }

    #[test]
    fn zipf_stream_skews_toward_low_ranks() {
        let mut z = ZipfStream::new(1 << 10, 1.0, 1.0, 7);
        let total = 50_000;
        let mut low = 0usize;
        for _ in 0..total {
            let r = z.next_req();
            assert!(r.la < 1 << 10);
            assert!(r.write);
            low += usize::from(r.la < 16);
        }
        // The 16 hottest of 1024 lines draw far more than their 1.6%
        // uniform share under s=1.0 (analytically ~45%).
        let frac = low as f64 / total as f64;
        assert!(frac > 0.35, "hot fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn seqscan_rejects_overflowing_window() {
        let _ = SeqScan::new(10, 8, 5, 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hotspot_rejects_overflowing_window() {
        let _ = Hotspot::new(10, 8, 5, 0.5, 0.5, 0);
    }
}
