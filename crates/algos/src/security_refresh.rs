//! Security Refresh — the randomized-algebraic (AWL) representative.
//!
//! Seong et al., "Security Refresh: prevent malicious wear-out and increase
//! durability for phase-change memory with dynamically randomized address
//! mapping" (ISCA '10). A Security Refresh (SR) region maps address `a` to
//! `a XOR key`. The key is re-randomized gradually: a *refresh pointer*
//! sweeps the region; addresses already swept map with the current key
//! `k1`, the rest still map with the previous key `k0`. One refresh step
//! swaps a pair of lines (two line writes) and retires **two** addresses
//! (`p` and its partner `p ^ k0 ^ k1`), so half the steps find their pair
//! already done and are free.
//!
//! The paper evaluates the **two-level** configuration ([`Tlsr`], Fig. 3):
//! an inner SR per region randomizes the intra-region offset, and an outer
//! SR over the entire space randomizes the *region bits* of each line, so
//! lines migrate across regions. The outer swapping period is fixed at 32
//! and the inner varies (8–64), matching §2.2: total write overhead is
//! `1/inner + 1/32` (each step costs 2 writes but fires for half the
//! addresses), i.e. 15.6% / 9.4% / 6.25% / 4.7% for inner periods
//! 8/16/32/64 — exactly the percentages on the paper's Fig. 3 legend.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sawl_nvm::{La, NvmDevice, Pa};

use crate::region::RegionGeometry;
use crate::WearLeveler;

/// One Security Refresh instance over a power-of-two address space, with
/// keys restricted to `key_mask` (so the outer level of TLSR can shuffle
/// only the region bits).
#[derive(Debug, Clone)]
pub struct SrInstance {
    size: u64,
    key_mask: u64,
    k0: u64,
    k1: u64,
    /// Refresh pointer: addresses `< rp` (or with partner `< rp`) have been
    /// remapped to `k1` this round.
    rp: u64,
}

impl SrInstance {
    /// New instance over `size` (power-of-two) addresses; keys drawn from
    /// `key_mask`. The initial mapping is the identity.
    pub fn new(size: u64, key_mask: u64, rng: &mut impl Rng) -> Self {
        assert!(size.is_power_of_two(), "SR size must be a power of two");
        assert!(key_mask < size, "key mask must fit the address space");
        let k1 = rng.random::<u64>() & key_mask;
        Self { size, key_mask, k0: 0, k1, rp: 0 }
    }

    /// Whether `a` has been remapped to the current key this round.
    #[inline]
    fn refreshed(&self, a: u64) -> bool {
        a < self.rp || (a ^ self.k0 ^ self.k1) < self.rp
    }

    /// Current mapping of address `a`.
    #[inline]
    pub fn map(&self, a: u64) -> u64 {
        debug_assert!(a < self.size);
        a ^ if self.refreshed(a) { self.k1 } else { self.k0 }
    }

    /// Perform one refresh step. Returns the pair of slots whose contents
    /// were exchanged (each costs one line write), or `None` when the
    /// pointer's pair was already handled earlier in the round.
    pub fn step(&mut self, rng: &mut impl Rng) -> Option<(u64, u64)> {
        let p = self.rp;
        let partner = p ^ self.k0 ^ self.k1;
        // Swap only if this pair hasn't been handled (partner ahead of the
        // pointer) and the keys actually differ.
        let result = if partner > p {
            // Data of `p` moves from p^k0 to p^k1; the occupant (partner's
            // data) moves the other way. Both slots are written.
            Some((p ^ self.k0, p ^ self.k1))
        } else {
            None
        };
        self.rp += 1;
        if self.rp == self.size {
            // Round complete: the old key retires, draw a fresh one.
            self.k0 = self.k1;
            self.k1 = rng.random::<u64>() & self.key_mask;
            self.rp = 0;
        }
        result
    }

    /// Size of the instance's address space.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Checkpoint the keys and refresh pointer (size and key mask are
    /// configuration, rebuilt from the spec).
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_u64(self.k0);
        w.put_u64(self.k1);
        w.put_u64(self.rp);
    }

    /// Restore state saved by [`ckpt_save`](Self::ckpt_save) into an
    /// instance built with the same size and key mask.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        let k0 = r.get_u64()?;
        let k1 = r.get_u64()?;
        let rp = r.get_u64()?;
        if k0 & !self.key_mask != 0 || k1 & !self.key_mask != 0 {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "security-refresh: keys {k0:#x}/{k1:#x} exceed mask {:#x}",
                self.key_mask
            )));
        }
        if rp >= self.size {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "security-refresh: refresh pointer {rp} out of range for size {}",
                self.size
            )));
        }
        self.k0 = k0;
        self.k1 = k1;
        self.rp = rp;
        Ok(())
    }
}

/// Single-level Security Refresh as a standalone wear leveler (one SR
/// region spanning the whole device). Also the building block reused by the
/// tiered architecture to wear-level the translation lines.
#[derive(Debug, Clone)]
pub struct SecurityRefresh {
    sr: SrInstance,
    period: u64,
    writes: u64,
    rng: SmallRng,
    refresh_steps: u64,
}

impl SecurityRefresh {
    /// SR over `lines` (power of two) with one refresh step per `period`
    /// demand writes.
    pub fn new(lines: u64, period: u64, seed: u64) -> Self {
        assert!(period > 0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let sr = SrInstance::new(lines, lines - 1, &mut rng);
        Self { sr, period, writes: 0, rng, refresh_steps: 0 }
    }

    /// Refresh steps executed (including pair-skipped ones).
    pub fn refresh_steps(&self) -> u64 {
        self.refresh_steps
    }

    /// Checkpoint the SR state, trigger counter, and key-drawing RNG.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        self.sr.ckpt_save(w);
        w.put_u64(self.writes);
        w.put_rng(self.rng.state());
        w.put_u64(self.refresh_steps);
    }

    /// Restore state saved by [`ckpt_save`](Self::ckpt_save) into an
    /// instance built from the same spec.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        self.sr.ckpt_restore(r)?;
        let writes = r.get_u64()?;
        if writes >= self.period {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "security-refresh: write counter {writes} out of range for period {}",
                self.period
            )));
        }
        let rng = r.get_rng()?;
        self.writes = writes;
        self.rng = SmallRng::from_state(rng);
        self.refresh_steps = r.get_u64()?;
        Ok(())
    }
}

impl WearLeveler for SecurityRefresh {
    fn name(&self) -> &'static str {
        "sr"
    }

    fn logical_lines(&self) -> u64 {
        self.sr.size()
    }

    #[inline]
    fn translate(&self, la: La) -> Pa {
        self.sr.map(la)
    }

    fn write(&mut self, la: La, dev: &mut NvmDevice) -> Pa {
        let pa = self.sr.map(la);
        dev.write(pa);
        self.writes += 1;
        if self.writes >= self.period {
            self.writes = 0;
            self.refresh_steps += 1;
            if let Some((s1, s2)) = self.sr.step(&mut self.rng) {
                dev.write_wl(s1);
                dev.write_wl(s2);
            }
        }
        pa
    }

    fn quiet_writes(&self, _la: La) -> u64 {
        // The mapping only moves in `step`; the trigger write is excluded
        // because `step` always advances the refresh pointer (changing the
        // translation of refreshed addresses) even when it swaps nothing.
        (self.period - self.writes).saturating_sub(1)
    }

    fn note_quiet(&mut self, _la: La, k: u64) {
        self.writes += k;
    }

    fn write_run(&mut self, la: La, n: u64, dev: &mut NvmDevice) -> u64 {
        // The SR mapping only moves in `step`, every `period` writes: the
        // whole window up to (and including) the step trigger shares one
        // translation, so it collapses into a single device run. (The
        // default quiet-span loop would serve the trigger write scalar.)
        let mut done = 0;
        while done < n {
            let pa = self.sr.map(la);
            let window = (n - done).min(self.period - self.writes);
            let (applied, _) = dev.write_run(pa, window);
            self.writes += applied;
            done += applied;
            if applied < window {
                break;
            }
            if self.writes >= self.period {
                self.writes = 0;
                self.refresh_steps += 1;
                if let Some((s1, s2)) = self.sr.step(&mut self.rng) {
                    dev.write_wl(s1);
                    dev.write_wl(s2);
                }
            }
            if dev.is_dead() {
                break;
            }
        }
        done
    }

    fn onchip_bits(&self) -> u64 {
        // Two keys + refresh pointer + write counter.
        let bits = 64 - (self.sr.size() - 1).leading_zeros() as u64;
        3 * bits + 64
    }
}

/// Two-level Security Refresh (TLSR), the configuration of the paper's
/// Fig. 3: inner SR per region over the offset bits, outer SR over the
/// whole space restricted to the region bits.
#[derive(Debug, Clone)]
pub struct Tlsr {
    geo: RegionGeometry,
    outer: SrInstance,
    inner: Vec<SrInstance>,
    /// Demand writes to each (intermediate) region since its last inner step.
    inner_writes: Vec<u32>,
    inner_period: u64,
    outer_writes: u64,
    outer_period: u64,
    rng: SmallRng,
}

impl Tlsr {
    /// TLSR over `lines` split into regions of `region_lines`; inner refresh
    /// every `inner_period` writes to a region, outer refresh every
    /// `outer_period` writes to the memory (the paper fixes this at 32).
    pub fn new(
        lines: u64,
        region_lines: u64,
        inner_period: u64,
        outer_period: u64,
        seed: u64,
    ) -> Self {
        assert!(inner_period > 0 && outer_period > 0);
        let geo = RegionGeometry::new(lines, region_lines);
        let mut rng = SmallRng::seed_from_u64(seed);
        let region_mask = (geo.regions() - 1) << geo.offset_bits();
        let outer = SrInstance::new(lines, region_mask, &mut rng);
        let inner = (0..geo.regions())
            .map(|_| SrInstance::new(geo.region_lines(), geo.region_lines() - 1, &mut rng))
            .collect();
        Self {
            geo,
            outer,
            inner,
            inner_writes: vec![0; geo.regions() as usize],
            inner_period,
            outer_writes: 0,
            outer_period,
            rng,
        }
    }

    /// Map an intermediate (post-outer) address to physical via the inner
    /// instance of its region.
    #[inline]
    fn inner_map(&self, intermediate: u64) -> u64 {
        let region = self.geo.region_of(intermediate);
        let off = self.geo.offset_of(intermediate);
        self.geo.combine(region, self.inner[region as usize].map(off))
    }

    /// Expected write-overhead fraction of this configuration
    /// (`1/inner + 1/outer`), matching the paper's legend percentages.
    pub fn nominal_overhead(&self) -> f64 {
        1.0 / self.inner_period as f64 + 1.0 / self.outer_period as f64
    }

    /// Checkpoint both SR levels, all trigger counters, and the RNG.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        self.outer.ckpt_save(w);
        w.put_u64(self.inner.len() as u64);
        for sr in &self.inner {
            sr.ckpt_save(w);
        }
        w.put_u32_slice(&self.inner_writes);
        w.put_u64(self.outer_writes);
        w.put_rng(self.rng.state());
    }

    /// Restore state saved by [`ckpt_save`](Self::ckpt_save) into an
    /// instance built from the same spec.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        self.outer.ckpt_restore(r)?;
        let regions = r.get_u64()?;
        if regions != self.inner.len() as u64 {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "tlsr: {regions} inner instances in checkpoint, {} in instance",
                self.inner.len()
            )));
        }
        for sr in &mut self.inner {
            sr.ckpt_restore(r)?;
        }
        let inner_writes = r.get_u32_vec()?;
        if inner_writes.len() != self.inner.len()
            || inner_writes.iter().any(|&wr| u64::from(wr) >= self.inner_period)
        {
            return Err(sawl_ckpt::CkptError::Corrupt(
                "tlsr: inner write counters malformed".into(),
            ));
        }
        let outer_writes = r.get_u64()?;
        if outer_writes >= self.outer_period {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "tlsr: outer counter {outer_writes} out of range for period {}",
                self.outer_period
            )));
        }
        let rng = r.get_rng()?;
        self.inner_writes = inner_writes;
        self.outer_writes = outer_writes;
        self.rng = SmallRng::from_state(rng);
        Ok(())
    }
}

impl WearLeveler for Tlsr {
    fn name(&self) -> &'static str {
        "tlsr"
    }

    fn logical_lines(&self) -> u64 {
        self.geo.lines()
    }

    #[inline]
    fn translate(&self, la: La) -> Pa {
        self.inner_map(self.outer.map(la))
    }

    fn write(&mut self, la: La, dev: &mut NvmDevice) -> Pa {
        let intermediate = self.outer.map(la);
        let region = self.geo.region_of(intermediate) as usize;
        let pa = self.inner_map(intermediate);
        dev.write(pa);

        // Inner level: per-region counter.
        self.inner_writes[region] += 1;
        if u64::from(self.inner_writes[region]) >= self.inner_period {
            self.inner_writes[region] = 0;
            if let Some((o1, o2)) = self.inner[region].step(&mut self.rng) {
                dev.write_wl(self.geo.combine(region as u64, o1));
                dev.write_wl(self.geo.combine(region as u64, o2));
            }
        }

        // Outer level: global counter; the swapped intermediate slots are
        // physically located through the inner mapping of their regions.
        self.outer_writes += 1;
        if self.outer_writes >= self.outer_period {
            self.outer_writes = 0;
            if let Some((i1, i2)) = self.outer.step(&mut self.rng) {
                dev.write_wl(self.inner_map(i1));
                dev.write_wl(self.inner_map(i2));
            }
        }
        pa
    }

    fn quiet_writes(&self, la: La) -> u64 {
        // Both SR levels move only on their periodic steps. The trigger
        // write itself is excluded even though a step may swap nothing:
        // `SrInstance::step` always advances the refresh pointer, which
        // changes the translation of already-refreshed addresses.
        let intermediate = self.outer.map(la);
        let region = self.geo.region_of(intermediate) as usize;
        let inner_gap = self.inner_period - u64::from(self.inner_writes[region]);
        let outer_gap = self.outer_period - self.outer_writes;
        inner_gap.min(outer_gap).saturating_sub(1)
    }

    fn note_quiet(&mut self, la: La, k: u64) {
        let region = self.geo.region_of(self.outer.map(la)) as usize;
        self.inner_writes[region] += k as u32;
        self.outer_writes += k;
    }

    fn write_run(&mut self, la: La, n: u64, dev: &mut NvmDevice) -> u64 {
        // Both SR levels move only on their periodic steps; between steps
        // the translation of `la` is frozen. The whole window up to (and
        // including) the nearer of the two step triggers shares one
        // translation — one map plus one device run per window, instead of
        // a scalar write (two full translations) at the head of each.
        let mut done = 0;
        while done < n {
            let intermediate = self.outer.map(la);
            let region = self.geo.region_of(intermediate) as usize;
            let off = self.geo.offset_of(intermediate);
            let pa = self.geo.combine(region as u64, self.inner[region].map(off));
            let inner_gap = self.inner_period - u64::from(self.inner_writes[region]);
            let outer_gap = self.outer_period - self.outer_writes;
            let window = (n - done).min(inner_gap.min(outer_gap));
            let (applied, _) = dev.write_run(pa, window);
            self.inner_writes[region] += applied as u32;
            self.outer_writes += applied;
            done += applied;
            if applied < window {
                break;
            }
            if u64::from(self.inner_writes[region]) >= self.inner_period {
                self.inner_writes[region] = 0;
                if let Some((o1, o2)) = self.inner[region].step(&mut self.rng) {
                    dev.write_wl(self.geo.combine(region as u64, o1));
                    dev.write_wl(self.geo.combine(region as u64, o2));
                }
            }
            if self.outer_writes >= self.outer_period {
                self.outer_writes = 0;
                if let Some((i1, i2)) = self.outer.step(&mut self.rng) {
                    dev.write_wl(self.inner_map(i1));
                    dev.write_wl(self.inner_map(i2));
                }
            }
            if dev.is_dead() {
                break;
            }
        }
        done
    }

    fn onchip_bits(&self) -> u64 {
        let ob = u64::from(self.geo.offset_bits());
        let rb = u64::from(self.geo.region_bits());
        // Outer: 2 keys (region bits) + pointer + counter.
        let outer = 2 * rb + (rb + ob) + 64;
        // Inner per region: 2 keys + pointer + 32-bit counter.
        let inner = self.geo.regions() * (3 * ob + 32);
        outer + inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_permutation;
    use sawl_nvm::NvmConfig;

    fn dev(lines: u64, endurance: u32) -> NvmDevice {
        NvmDevice::new(
            NvmConfig::builder()
                .lines(lines)
                .banks(1)
                .endurance(endurance)
                .spare_shift(4)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn sr_instance_starts_identity() {
        let mut rng = SmallRng::seed_from_u64(1);
        let sr = SrInstance::new(64, 63, &mut rng);
        for a in 0..64 {
            assert_eq!(sr.map(a), a);
        }
    }

    #[test]
    fn sr_instance_is_bijective_mid_round() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut sr = SrInstance::new(64, 63, &mut rng);
        for step in 0..300 {
            sr.step(&mut rng);
            let mut seen = [false; 64];
            for a in 0..64 {
                let m = sr.map(a) as usize;
                assert!(!seen[m], "step {step}: collision at {m}");
                seen[m] = true;
            }
        }
    }

    #[test]
    fn sr_full_round_applies_new_key_everywhere() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sr = SrInstance::new(32, 31, &mut rng);
        let k1 = sr.k1;
        for _ in 0..32 {
            sr.step(&mut rng);
        }
        // Round completed: k1 became k0.
        assert_eq!(sr.k0, k1);
        assert_eq!(sr.rp, 0);
        for a in 0..32 {
            assert_eq!(sr.map(a), a ^ k1);
        }
    }

    #[test]
    fn sr_pair_trick_halves_the_swaps() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut sr = SrInstance::new(256, 255, &mut rng);
        let mut swaps = 0;
        for _ in 0..256 {
            if sr.step(&mut rng).is_some() {
                swaps += 1;
            }
        }
        // Each swap retires two addresses -> exactly half the steps swap
        // (unless the drawn key was 0, which seed 4 avoids).
        assert_eq!(swaps, 128);
    }

    #[test]
    fn sr_wear_leveler_spreads_raa() {
        let mut wl = SecurityRefresh::new(256, 4, 7);
        let mut d = dev(256, 1_000_000);
        for _ in 0..100_000 {
            wl.write(0, &mut d);
        }
        // The hammered logical line must have visited many physical lines.
        let touched = d.write_counts().iter().filter(|&&c| c > 0).count();
        assert!(touched > 128, "RAA wear only touched {touched} lines");
        check_permutation(&wl, 256);
    }

    #[test]
    fn tlsr_starts_identity_and_stays_permutation() {
        let mut wl = Tlsr::new(1 << 10, 1 << 4, 8, 32, 11);
        for la in 0..1 << 10 {
            assert_eq!(wl.translate(la), la);
        }
        let mut d = dev(1 << 10, 1_000_000);
        let mut x = 0xDEADBEEFu64;
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            wl.write(x % (1 << 10), &mut d);
        }
        check_permutation(&wl, 1 << 10);
    }

    #[test]
    fn tlsr_outer_level_migrates_lines_across_regions() {
        let mut wl = Tlsr::new(1 << 10, 1 << 4, 8, 8, 13);
        let mut d = dev(1 << 10, 1_000_000);
        let start_region = wl.translate(0) >> 4;
        let mut seen_regions = std::collections::HashSet::new();
        for _ in 0..400_000 {
            wl.write(0, &mut d);
            seen_regions.insert(wl.translate(0) >> 4);
        }
        assert!(seen_regions.len() > 4, "line never left region {start_region}: {seen_regions:?}");
    }

    #[test]
    fn tlsr_overhead_matches_nominal() {
        let mut wl = Tlsr::new(1 << 12, 1 << 6, 8, 32, 17);
        assert!((wl.nominal_overhead() - 0.15625).abs() < 1e-12);
        let mut d = dev(1 << 12, u32::MAX);
        let mut x = 1u64;
        let n = 1_000_000;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            wl.write(x % (1 << 12), &mut d);
        }
        let measured = d.wear().overhead_writes as f64 / n as f64;
        // Pair-skipping is exactly half on average; allow sampling slack.
        assert!((measured - 0.15625).abs() < 0.01, "overhead {measured} vs nominal 0.15625");
    }

    #[test]
    fn tlsr_paper_legend_overheads() {
        for (inner, expect) in [(8u64, 0.15625), (16, 0.09375), (32, 0.0625), (64, 0.046875)] {
            let wl = Tlsr::new(1 << 10, 1 << 4, inner, 32, 1);
            assert!((wl.nominal_overhead() - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn sr_survives_longer_than_baseline_under_raa() {
        // SR only protects when a refresh round completes well within the
        // cell endurance (round = lines * period writes); this is exactly
        // the paper's observation that big SR regions on weak MLC cells do
        // not get enough exchanges. Use a small region to see the benefit.
        let lifetime = |mut wl: Box<dyn WearLeveler>, lines: u64| {
            let mut d = dev(lines, 300);
            while !d.is_dead() {
                wl.write(0, &mut d);
            }
            d.normalized_lifetime()
        };
        let base = lifetime(Box::new(crate::NoWl::new(64)), 64);
        let sr = lifetime(Box::new(SecurityRefresh::new(64, 2, 3)), 64);
        assert!(sr > 3.0 * base, "sr {sr} vs baseline {base}");
    }

    #[test]
    fn sr_big_region_weak_cells_barely_beats_baseline() {
        // The quantitative motivation of §2.2: when one refresh round costs
        // more writes than a cell can endure, SR degenerates.
        let mut wl = SecurityRefresh::new(1 << 10, 8, 3);
        let mut d = dev(1 << 10, 300);
        while !d.is_dead() {
            wl.write(0, &mut d);
        }
        assert!(d.normalized_lifetime() < 0.15);
    }
}
