//! Attack programs used by the paper's robustness experiments (§2.2, §4.3).
//!
//! * **RAA** (Repeated Address Attack, Qureshi et al. HPCA'11): "an attack
//!   program that writes data to the same address repeatedly". Defeats any
//!   scheme whose logical→physical mapping is static in some dimension
//!   (Segment Swapping keeps the intra-segment offset; RBSG keeps the
//!   region).
//! * **BPA** (Birthday Paradox Attack, Seznec CAL'10): "randomly select
//!   logical addresses and repeatedly write to each one precisely". Even
//!   when a scheme migrates the attacked line, randomly re-chosen targets
//!   collide with already-worn physical lines at birthday-paradox rates, so
//!   BPA stresses how fast a scheme spreads accumulated wear across the
//!   *whole* device. This is the paper's worst-case lifetime workload
//!   (Figs. 3, 4, 5, 15).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{AddressStream, CursorKind, MemReq, ReqRun};

/// Repeated Address Attack: writes one logical line forever.
#[derive(Debug, Clone)]
pub struct Raa {
    target: u64,
    space: u64,
}

impl Raa {
    /// Attack logical line `target` within a space of `space` lines.
    pub fn new(target: u64, space: u64) -> Self {
        assert!(target < space, "target {target} outside space {space}");
        Self { target, space }
    }
}

impl AddressStream for Raa {
    #[inline]
    fn next_req(&mut self) -> MemReq {
        MemReq::write(self.target)
    }

    fn fill_runs(&mut self, runs: &mut Vec<ReqRun>, scratch: &mut [MemReq]) -> u64 {
        // The whole block is one run; `scratch` is only the request budget.
        runs.clear();
        let n = scratch.len() as u64;
        runs.push(ReqRun { la: self.target, write: true, len: n });
        n
    }

    fn space_lines(&self) -> u64 {
        self.space
    }

    fn name(&self) -> &str {
        "raa"
    }

    // RAA is stateless: its cursor is the empty state.
    fn cursor_kind(&self) -> CursorKind {
        CursorKind::State
    }
}

/// Birthday Paradox Attack: pick a uniformly random logical line, write it
/// exactly `writes_per_target` times, pick the next.
///
/// `writes_per_target` models the attacker's dwell time. Seznec's analysis
/// assumes the attacker knows (or conservatively bounds) the wear-leveling
/// swap rate: dwelling a few swap periods extracts the most wear per target
/// while keeping targets numerous enough for birthday collisions. The paper
/// does not publish its dwell value; the experiment drivers default to
/// 4 × swap-period × region-size writes, and the ablation bench sweeps it.
#[derive(Debug, Clone)]
pub struct Bpa {
    rng: SmallRng,
    space: u64,
    writes_per_target: u64,
    current: u64,
    remaining: u64,
}

impl Bpa {
    /// Create an attack over `space` lines with the given dwell.
    pub fn new(space: u64, writes_per_target: u64, seed: u64) -> Self {
        assert!(space > 0, "empty address space");
        assert!(writes_per_target > 0, "dwell must be non-zero");
        let mut rng = SmallRng::seed_from_u64(seed);
        let current = rng.random_range(0..space);
        Self { rng, space, writes_per_target, current, remaining: writes_per_target }
    }
}

impl AddressStream for Bpa {
    #[inline]
    fn next_req(&mut self) -> MemReq {
        if self.remaining == 0 {
            self.current = self.rng.random_range(0..self.space);
            self.remaining = self.writes_per_target;
        }
        self.remaining -= 1;
        MemReq::write(self.current)
    }

    fn fill_runs(&mut self, runs: &mut Vec<ReqRun>, scratch: &mut [MemReq]) -> u64 {
        // One `ReqRun` per dwell (or dwell fragment at the block budget
        // boundary): the run-level pump costs O(1) per dwell instead of
        // O(dwell). Draw order matches `next_req` (one draw per target).
        runs.clear();
        let budget = scratch.len() as u64;
        let mut total = 0;
        while total < budget {
            if self.remaining == 0 {
                self.current = self.rng.random_range(0..self.space);
                self.remaining = self.writes_per_target;
            }
            let run = self.remaining.min(budget - total);
            runs.push(ReqRun { la: self.current, write: true, len: run });
            self.remaining -= run;
            total += run;
        }
        total
    }

    fn space_lines(&self) -> u64 {
        self.space
    }

    fn name(&self) -> &str {
        "bpa"
    }

    fn cursor_kind(&self) -> CursorKind {
        CursorKind::State
    }

    fn cursor_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_rng(self.rng.state());
        w.put_u64(self.current);
        w.put_u64(self.remaining);
    }

    fn cursor_restore(&mut self, r: &mut sawl_ckpt::Reader) -> Result<(), sawl_ckpt::CkptError> {
        let rng = r.get_rng()?;
        let current = r.get_u64()?;
        let remaining = r.get_u64()?;
        if current >= self.space || remaining > self.writes_per_target {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "bpa cursor: target {current} with {remaining} writes left does not fit a \
                 {}-line space with dwell {}",
                self.space, self.writes_per_target
            )));
        }
        self.rng = SmallRng::from_state(rng);
        self.current = current;
        self.remaining = remaining;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sawl_ckpt::CkptError;

    #[test]
    fn raa_always_hits_the_target() {
        let mut raa = Raa::new(42, 100);
        for _ in 0..1000 {
            let r = raa.next_req();
            assert_eq!(r.la, 42);
            assert!(r.write);
        }
    }

    #[test]
    #[should_panic(expected = "outside space")]
    fn raa_rejects_out_of_range_target() {
        let _ = Raa::new(100, 100);
    }

    #[test]
    fn bpa_dwells_exactly_writes_per_target() {
        let mut bpa = Bpa::new(1 << 20, 16, 1);
        let first = bpa.next_req().la;
        for _ in 1..16 {
            assert_eq!(bpa.next_req().la, first);
        }
        // With a 2^20 space the chance the next target equals the previous
        // is negligible; assert it changed.
        assert_ne!(bpa.next_req().la, first);
    }

    #[test]
    fn bpa_is_deterministic_per_seed() {
        let collect = |seed| {
            let mut b = Bpa::new(1 << 16, 4, seed);
            (0..64).map(|_| b.next_req().la).collect::<Vec<_>>()
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn bpa_targets_cover_the_space_uniformly() {
        let space = 64u64;
        let mut bpa = Bpa::new(space, 1, 3);
        let mut seen = vec![0u32; space as usize];
        for _ in 0..64 * 200 {
            seen[bpa.next_req().la as usize] += 1;
        }
        // Every line should be attacked at least once over 200 expected
        // visits each.
        assert!(seen.iter().all(|&c| c > 0));
        let max = *seen.iter().max().unwrap() as f64;
        let min = *seen.iter().min().unwrap() as f64;
        assert!(max / min < 3.0, "non-uniform targeting: min {min}, max {max}");
    }

    /// Save `bpa`'s cursor, let `edit` rewrite the payload's `current`
    /// and `remaining` words, and restore it into a twin.
    fn restore_edited(bpa: &Bpa, edit: impl FnOnce(&mut [u64; 2])) -> Result<(), CkptError> {
        let mut w = sawl_ckpt::Writer::new();
        bpa.cursor_save(&mut w);
        let mut bytes = w.into_payload();
        let tail = bytes.len() - 16;
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
        let mut words = [word(&bytes[tail..tail + 8]), word(&bytes[tail + 8..])];
        edit(&mut words);
        bytes[tail..tail + 8].copy_from_slice(&words[0].to_le_bytes());
        bytes[tail + 8..].copy_from_slice(&words[1].to_le_bytes());
        let mut twin = bpa.clone();
        twin.cursor_restore(&mut sawl_ckpt::Reader::new(&bytes))
    }

    #[test]
    fn bpa_cursor_restore_rejects_out_of_range_fields() {
        let mut bpa = Bpa::new(1024, 16, 9);
        bpa.next_req();
        assert!(restore_edited(&bpa, |_| {}).is_ok());
        assert!(restore_edited(&bpa, |c| c[1] = 16).is_ok());
        for edit in [|c: &mut [u64; 2]| c[0] = 1 << 40, |c: &mut [u64; 2]| c[1] = 17] {
            assert!(matches!(restore_edited(&bpa, edit), Err(CkptError::Corrupt(_))));
        }
    }

    #[test]
    fn bpa_requests_are_all_writes_in_space() {
        let mut bpa = Bpa::new(128, 8, 5);
        for _ in 0..1024 {
            let r = bpa.next_req();
            assert!(r.write);
            assert!(r.la < 128);
        }
    }
}
