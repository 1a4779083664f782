//! Region-Based Start-Gap (RBSG) — the rotation-based AWL representative.
//!
//! Qureshi et al., "Enhancing lifetime and security of PCM-based main
//! memory with start-gap wear leveling" (MICRO '09). Each region owns one
//! spare *gap* slot. Every `period` writes to a region, the gap moves one
//! slot down (one line is copied into the gap), so over a full round every
//! line of the region shifts by one slot and wear rotates through the
//! region.
//!
//! The hardware implementation keeps only two registers per region (START
//! and GAP); translation is pure arithmetic. We keep the same O(1) state —
//! `rounds` plus the current gap position — and derive the slot of a
//! logical line algebraically; the `matches_reference_rotation` test checks
//! the algebra against an explicitly simulated data array.
//!
//! The region a logical line belongs to never changes ("static address
//! mapping"), which is why the paper rules RBSG out under RAA: the attacked
//! region "receives an extremely, disproportionally large number of writes,
//! and fails in several hours" (§2.2). The `raa_confines_wear_to_one_region`
//! test shows the failure mode.

use sawl_nvm::{La, NvmDevice, Pa, WriteOutcome};

use crate::WearLeveler;

/// One region's rotation state.
#[derive(Debug, Clone, Copy)]
struct RegionState {
    /// Completed rounds, modulo slots (= N+1).
    rounds: u64,
    /// Current gap slot in [0, N].
    gap: u64,
    /// Demand writes to this region since the last gap move.
    writes: u64,
}

/// Region-based Start-Gap.
#[derive(Debug, Clone)]
pub struct StartGap {
    /// Logical lines per region (N). Each region owns N+1 physical slots.
    region_lines: u64,
    regions: u64,
    period: u64,
    state: Vec<RegionState>,
    gap_moves: u64,
}

impl StartGap {
    /// Create with `regions` regions of `region_lines` logical lines each;
    /// the gap advances after every `period` writes to a region.
    ///
    /// The scheme needs `regions * (region_lines + 1)` physical lines.
    pub fn new(regions: u64, region_lines: u64, period: u64) -> Self {
        assert!(regions > 0 && region_lines > 0);
        assert!(period > 0, "gap period must be non-zero");
        let init = RegionState { rounds: 0, gap: region_lines, writes: 0 };
        Self { region_lines, regions, period, state: vec![init; regions as usize], gap_moves: 0 }
    }

    /// Physical lines the device must provide.
    pub fn physical_lines(&self) -> u64 {
        self.regions * (self.region_lines + 1)
    }

    /// Total gap movements performed (each is one overhead line write).
    pub fn gap_moves(&self) -> u64 {
        self.gap_moves
    }

    /// Number of physical slots per region (N + 1).
    #[inline]
    fn slots(&self) -> u64 {
        self.region_lines + 1
    }

    /// Checkpoint the per-region rotation state and the gap-move counter.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_u64(self.gap_moves);
        w.put_u64(self.state.len() as u64);
        for st in &self.state {
            w.put_u64(st.rounds);
            w.put_u64(st.gap);
            w.put_u64(st.writes);
        }
    }

    /// Restore state saved by [`ckpt_save`](Self::ckpt_save) into an
    /// instance built from the same spec.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        let gap_moves = r.get_u64()?;
        let count = r.get_u64()?;
        if count != self.regions {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "start-gap: {count} regions in checkpoint, {} in instance",
                self.regions
            )));
        }
        let m = self.slots();
        let mut state = Vec::with_capacity(count as usize);
        for i in 0..count {
            let rounds = r.get_u64()?;
            let gap = r.get_u64()?;
            let writes = r.get_u64()?;
            if rounds >= m || gap >= m || writes >= self.period {
                return Err(sawl_ckpt::CkptError::Corrupt(format!(
                    "start-gap region {i}: rounds {rounds}, gap {gap}, writes {writes} \
                     out of range (slots {m}, period {})",
                    self.period
                )));
            }
            state.push(RegionState { rounds, gap, writes });
        }
        self.state = state;
        self.gap_moves = gap_moves;
        Ok(())
    }

    /// Gap position at the start of the current round.
    #[inline]
    fn round_start_gap(&self, st: &RegionState) -> u64 {
        (self.region_lines + st.rounds) % self.slots()
    }

    /// Slot of logical offset `local` within a region in state `st`.
    #[inline]
    fn slot_of(&self, st: &RegionState, local: u64) -> u64 {
        let m = self.slots();
        let s0 = (local + st.rounds) % m;
        // Lines whose round-start slot lies in [gap, round_start_gap) —
        // walking upward on the ring — have already been shifted this round.
        let lo = st.gap;
        let hi = self.round_start_gap(st);
        let moved = if lo == hi {
            false // round just started, nothing shifted yet
        } else if lo < hi {
            s0 >= lo && s0 < hi
        } else {
            s0 >= lo || s0 < hi
        };
        if moved {
            (s0 + 1) % m
        } else {
            s0
        }
    }

    /// Advance the gap of `region` by one slot, charging the copy.
    fn move_gap(&mut self, region: u64, dev: &mut NvmDevice) {
        let m = self.slots();
        let base = region * m;
        let st = &mut self.state[region as usize];
        // The line at slot gap-1 moves into the gap slot.
        let dest = st.gap;
        st.gap = (st.gap + m - 1) % m;
        dev.write_wl(base + dest);
        self.gap_moves += 1;
        // Round completes when the gap has travelled N slots.
        let start = (self.region_lines + st.rounds) % m;
        if st.gap == (start + 1) % m {
            st.rounds = (st.rounds + 1) % m;
        }
    }
}

impl WearLeveler for StartGap {
    fn name(&self) -> &'static str {
        "rbsg"
    }

    fn logical_lines(&self) -> u64 {
        self.regions * self.region_lines
    }

    #[inline]
    fn translate(&self, la: La) -> Pa {
        let region = la / self.region_lines;
        let local = la % self.region_lines;
        let st = &self.state[region as usize];
        region * self.slots() + self.slot_of(st, local)
    }

    fn write(&mut self, la: La, dev: &mut NvmDevice) -> Pa {
        let pa = self.translate(la);
        if dev.write(pa) == WriteOutcome::PowerLost {
            // A dropped write is not a write: the trigger must not move.
            return pa;
        }
        let region = la / self.region_lines;
        self.state[region as usize].writes += 1;
        if self.state[region as usize].writes >= self.period {
            self.state[region as usize].writes = 0;
            self.move_gap(region, dev);
        }
        pa
    }

    fn quiet_writes(&self, la: La) -> u64 {
        // The region's rotation only advances at the gap-move trigger;
        // every write strictly before it repeats the same slot.
        let region = (la / self.region_lines) as usize;
        self.period.saturating_sub(self.state[region].writes + 1)
    }

    fn note_quiet(&mut self, la: La, k: u64) {
        self.state[(la / self.region_lines) as usize].writes += k;
    }

    fn onchip_bits(&self) -> u64 {
        // START + GAP + write counter per region.
        let slot_bits = 64 - self.slots().leading_zeros() as u64;
        self.regions * (2 * slot_bits + 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_permutation;
    use sawl_nvm::NvmConfig;

    fn dev_for(wl: &StartGap, endurance: u32) -> NvmDevice {
        NvmDevice::new(
            NvmConfig::builder()
                .lines(wl.physical_lines())
                .banks(1)
                .endurance(endurance)
                .spare_shift(2)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn initial_mapping_is_identity_with_gap_at_top() {
        let wl = StartGap::new(2, 8, 4);
        for la in 0..8 {
            assert_eq!(wl.translate(la), la);
        }
        // Second region's lines start after the first region's 9 slots.
        for la in 8..16 {
            assert_eq!(wl.translate(la), la + 1);
        }
    }

    /// Simulate the data movement explicitly and check the algebraic
    /// translation against it after every single gap move for several full
    /// rounds.
    #[test]
    fn matches_reference_rotation() {
        let n = 7u64; // deliberately odd region size
        let mut wl = StartGap::new(1, n, 1);
        let mut d = dev_for(&wl, 1_000_000);
        // slots: which logical line each physical slot holds (u64::MAX = gap)
        let mut slots: Vec<u64> = (0..n).chain(std::iter::once(u64::MAX)).collect();
        for step in 0..200 {
            // One demand write triggers one gap move (period = 1).
            wl.write(0, &mut d);
            // Mirror the move in the reference array: the line below the
            // gap moves into the gap.
            let gap_pos = slots.iter().position(|&x| x == u64::MAX).unwrap();
            let src = (gap_pos + slots.len() - 1) % slots.len();
            slots[gap_pos] = slots[src];
            slots[src] = u64::MAX;
            // Check every logical line against the algebra.
            for la in 0..n {
                let expect = slots.iter().position(|&x| x == la).unwrap() as u64;
                assert_eq!(wl.translate(la), expect, "step {step}: la {la} expected slot {expect}");
            }
        }
    }

    #[test]
    fn stays_a_permutation_under_traffic() {
        let mut wl = StartGap::new(4, 16, 3);
        let mut d = dev_for(&wl, 1_000_000);
        let mut x = 0x12345678u64;
        for _ in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            wl.write(x % wl.logical_lines(), &mut d);
        }
        check_permutation(&wl, wl.physical_lines());
    }

    #[test]
    fn gap_move_charges_one_write() {
        let mut wl = StartGap::new(1, 8, 4);
        let mut d = dev_for(&wl, 1_000_000);
        for _ in 0..4 {
            wl.write(0, &mut d);
        }
        assert_eq!(wl.gap_moves(), 1);
        assert_eq!(d.wear().overhead_writes, 1);
    }

    #[test]
    fn full_round_rotates_region_by_one() {
        let n = 8u64;
        let mut wl = StartGap::new(1, n, 1);
        let mut d = dev_for(&wl, 1_000_000);
        // N+1 moves complete one round plus... after N moves every line has
        // shifted one slot; write N times to trigger N moves.
        for _ in 0..n {
            wl.write(0, &mut d);
        }
        for la in 0..n {
            assert_eq!(wl.translate(la), (la + 1) % (n + 1), "la {la}");
        }
    }

    #[test]
    fn rotation_spreads_wear_within_region_under_raa() {
        let n = 15u64;
        let mut wl = StartGap::new(1, n, 2);
        let mut d = dev_for(&wl, 1_000_000);
        for _ in 0..20_000 {
            wl.write(0, &mut d);
        }
        // Every slot of the region should have received wear.
        let counts = d.write_counts();
        assert!(counts.iter().all(|&c| c > 0), "unworn slot: {counts:?}");
        // And no slot should hold more than ~3x the mean.
        let mean = counts.iter().map(|&c| u64::from(c)).sum::<u64>() as f64 / counts.len() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / mean < 3.5, "max {max} vs mean {mean}");
    }

    #[test]
    fn raa_confines_wear_to_one_region() {
        // The paper's point: the attacked region takes all the wear.
        let mut wl = StartGap::new(8, 15, 2);
        let mut d = dev_for(&wl, 500);
        while !d.is_dead() {
            wl.write(0, &mut d);
        }
        // All failed lines are inside region 0's 16 slots.
        let counts = d.write_counts();
        let outside: u64 = counts[16..].iter().map(|&c| u64::from(c)).sum();
        assert_eq!(outside, 0, "wear escaped the attacked region");
        // The region's 16 slots plus the 32 spares bound the attainable
        // lifetime at (16+32)*Wmax / (128*Wmax) = 0.375 of ideal.
        assert!(d.normalized_lifetime() <= 0.375);
    }

    #[test]
    fn write_run_batches_up_to_the_gap_move() {
        let mut wl = StartGap::new(2, 64, 64);
        let mut d = dev_for(&wl, 1_000_000);
        assert_eq!(wl.write_run(63, 100, &mut d), 100);
        assert_eq!(wl.gap_moves(), 1);
        assert_eq!(d.wear().demand_writes, 100);
        // Write 64 moved the gap: line 63 was copied into slot 64 (the one
        // overhead write), where the last 36 writes landed.
        assert_eq!(wl.translate(63), 64);
        assert_eq!(d.write_count(63), 64);
        assert_eq!(d.write_count(64), 1 + 36);
    }

    #[test]
    fn write_run_stops_at_a_power_loss_and_moves_no_gap() {
        let mut wl = StartGap::new(1, 64, 64);
        let mut d = dev_for(&wl, 1_000_000);
        let plan = sawl_nvm::FaultPlan { power_loss_at_writes: vec![10], ..Default::default() };
        d.install_fault_plan(&plan).unwrap();
        // Ten writes land; the eleventh finds the power gone, so the run
        // reports ten and the pump retries the remaining ninety.
        assert_eq!(wl.write_run(0, 100, &mut d), 10);
        assert!(d.power_lost());
        assert_eq!(d.wear().demand_writes, 10);
        assert_eq!(wl.gap_moves(), 0);
    }

    #[test]
    fn reads_do_not_advance_the_gap() {
        let mut wl = StartGap::new(1, 8, 1);
        let mut d = dev_for(&wl, 1_000_000);
        for la in 0..8 {
            wl.read(la, &mut d);
        }
        assert_eq!(wl.gap_moves(), 0);
    }
}
