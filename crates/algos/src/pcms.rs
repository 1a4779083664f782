//! PCM-S — the hybrid (HWL) scheme adopted by SAWL's data-exchange module.
//!
//! Seznec, "Towards Phase Change Memory as a Secure Main Memory" (WEST '10),
//! as described in the paper's §2.1 and Fig. 2(a): a mapping table tracks
//! each logical region's physical region number (`prn`) and an intra-region
//! offset parameter (`key`); within a region, the physical offset is
//! `lao XOR key`. Wear-leveling events exchange two regions wholesale and
//! re-randomize both keys, dispersing writes "across the entire memory by
//! randomly exchanging the regions and shifting the location of its lines
//! simultaneously".
//!
//! **Swapping period.** A region is exchanged after `period × S` writes to
//! it (S = lines per region); the exchange rewrites both regions, 2·S line
//! writes, so the steady-state overhead is `2/period` regardless of the
//! region size — matching the percentages on the paper's Fig. 4 legend
//! (period 8 → 25%, 16 → 12.5%, 32 → 6.25%, 64 → 3.1%).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sawl_nvm::{La, NvmDevice, Pa};

use crate::exchange::{draw_key, SwapCounters};
use crate::region::RegionGeometry;
use crate::WearLeveler;

/// The PCM-S hybrid wear-leveling scheme.
#[derive(Debug, Clone)]
pub struct PcmS {
    geo: RegionGeometry,
    /// logical region -> physical region
    prn: Vec<u32>,
    /// logical region -> intra-region XOR key
    key: Vec<u32>,
    /// physical region -> logical region (inverse)
    p2l: Vec<u32>,
    /// swapping-period counters (exchange after period * S writes)
    swaps: SwapCounters,
    rng: SmallRng,
    exchanges: u64,
}

impl PcmS {
    /// PCM-S over `lines` logical lines in regions of `region_lines`, with
    /// the given swapping period (writes per line between exchanges).
    pub fn new(lines: u64, region_lines: u64, period: u64, seed: u64) -> Self {
        let geo = RegionGeometry::new(lines, region_lines);
        let regions = geo.regions() as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        // Start with identity placement but random keys, as hardware would
        // after a randomized boot.
        let key: Vec<u32> =
            (0..regions).map(|_| draw_key(&mut rng, geo.region_lines()) as u32).collect();
        Self {
            geo,
            prn: (0..regions as u32).collect(),
            key,
            p2l: (0..regions as u32).collect(),
            swaps: SwapCounters::new(regions, period),
            rng,
            exchanges: 0,
        }
    }

    /// Region exchanges performed so far.
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// The region geometry in use.
    pub fn geometry(&self) -> RegionGeometry {
        self.geo
    }

    /// Writes to a region that trigger its exchange.
    pub fn exchange_threshold(&self) -> u64 {
        self.swaps.threshold(self.geo.region_lines())
    }

    /// Checkpoint the mapping tables, swap counters, RNG, and exchange
    /// count. Geometry and period are configuration, rebuilt from the spec.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_u32_slice(&self.prn);
        w.put_u32_slice(&self.key);
        w.put_u32_slice(&self.p2l);
        self.swaps.ckpt_save(w);
        w.put_rng(self.rng.state());
        w.put_u64(self.exchanges);
    }

    /// Restore state saved by [`ckpt_save`](Self::ckpt_save) into an
    /// instance built from the same spec.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        let regions = self.geo.regions() as usize;
        let prn = r.get_u32_vec()?;
        let key = r.get_u32_vec()?;
        let p2l = r.get_u32_vec()?;
        if prn.len() != regions || key.len() != regions || p2l.len() != regions {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "pcm-s: table sizes {}/{}/{} for {regions} regions",
                prn.len(),
                key.len(),
                p2l.len()
            )));
        }
        for (l, &p) in prn.iter().enumerate() {
            if p as usize >= regions || p2l[p as usize] as usize != l {
                return Err(sawl_ckpt::CkptError::Corrupt(format!(
                    "pcm-s tables are not inverse permutations at logical region {l}"
                )));
            }
        }
        if key.iter().any(|&k| u64::from(k) >= self.geo.region_lines()) {
            return Err(sawl_ckpt::CkptError::Corrupt("pcm-s: key exceeds region size".into()));
        }
        self.swaps.ckpt_restore(r)?;
        let rng = r.get_rng()?;
        self.prn = prn;
        self.key = key;
        self.p2l = p2l;
        self.rng = SmallRng::from_state(rng);
        self.exchanges = r.get_u64()?;
        Ok(())
    }

    /// Exchange logical region `a` with a uniformly random other region,
    /// re-randomizing both keys and charging 2·S overhead writes.
    fn exchange(&mut self, a: u32, dev: &mut NvmDevice) {
        let regions = self.geo.regions();
        if regions == 1 {
            // Degenerate: only re-randomize the key (still shifts lines).
            let s = self.geo.region_lines();
            self.key[0] = draw_key(&mut self.rng, s) as u32;
            dev.write_wl_range(0, s);
            self.swaps.reset(0);
            self.exchanges += 1;
            return;
        }
        let mut b = a;
        while b == a {
            b = self.rng.random_range(0..regions) as u32;
        }
        let s = self.geo.region_lines();
        let (pa, pb) = (self.prn[a as usize], self.prn[b as usize]);
        // Swap placements and draw fresh keys.
        self.prn[a as usize] = pb;
        self.prn[b as usize] = pa;
        self.p2l[pa as usize] = b;
        self.p2l[pb as usize] = a;
        self.key[a as usize] = draw_key(&mut self.rng, s) as u32;
        self.key[b as usize] = draw_key(&mut self.rng, s) as u32;
        // Every line of both physical regions is rewritten at its new home;
        // each is one contiguous burst on the device's range path.
        dev.write_wl_range(u64::from(pa) * s, s);
        dev.write_wl_range(u64::from(pb) * s, s);
        // Only the triggering region's counter resets (see SwapCounters::
        // reset), keeping the steady-state overhead exactly 2/period.
        self.swaps.reset(a as usize);
        self.exchanges += 1;
    }
}

impl WearLeveler for PcmS {
    fn name(&self) -> &'static str {
        "pcm-s"
    }

    fn logical_lines(&self) -> u64 {
        self.geo.lines()
    }

    #[inline]
    fn translate(&self, la: La) -> Pa {
        let lrn = self.geo.region_of(la) as usize;
        let lao = self.geo.offset_of(la);
        let pao = lao ^ u64::from(self.key[lrn]);
        u64::from(self.prn[lrn]) * self.geo.region_lines() + pao
    }

    fn write(&mut self, la: La, dev: &mut NvmDevice) -> Pa {
        let pa = self.translate(la);
        dev.write(pa);
        let lrn = self.geo.region_of(la) as usize;
        if self.swaps.record_write(lrn, self.geo.region_lines()) {
            self.exchange(lrn as u32, dev);
        }
        pa
    }

    fn quiet_writes(&self, la: La) -> u64 {
        // The mapping only moves at the region's exchange trigger; every
        // write strictly before it repeats the same physical line with no
        // overhead traffic. (`until_trigger` is trigger-inclusive, so the
        // trigger write itself is excluded.)
        let lrn = self.geo.region_of(la) as usize;
        self.swaps.until_trigger(lrn, self.geo.region_lines()) - 1
    }

    fn note_quiet(&mut self, la: La, k: u64) {
        self.swaps.add(self.geo.region_of(la) as usize, k);
    }

    fn onchip_bits(&self) -> u64 {
        // Per logical region: prn + key + a 20-bit write counter (the
        // paper's §2.2 item 4 counts prn and key; the counter is required
        // to trigger exchanges).
        let entry = u64::from(self.geo.region_bits()) + u64::from(self.geo.offset_bits()) + 20;
        self.geo.regions() * entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_permutation, mapping_snapshot, moved_lines};
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
    fn translation_uses_xor_key_within_region() {
        let wl = PcmS::new(256, 16, 8, 1);
        // Within one region, translated offsets must be a permutation of
        // the region's offsets.
        let base_region = wl.translate(0) >> 4;
        let mut offsets: Vec<u64> = (0..16).map(|la| wl.translate(la) & 15).collect();
        for la in 0..16 {
            assert_eq!(wl.translate(la) >> 4, base_region, "la {la} left its region");
        }
        offsets.sort_unstable();
        assert_eq!(offsets, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn is_permutation_initially_and_after_traffic() {
        let mut wl = PcmS::new(1 << 10, 1 << 4, 4, 2);
        check_permutation(&wl, 1 << 10);
        let mut d = dev(1 << 10, 1_000_000);
        let mut x = 777u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            wl.write(x % (1 << 10), &mut d);
        }
        assert!(wl.exchanges() > 0);
        check_permutation(&wl, 1 << 10);
    }

    #[test]
    fn exchange_fires_at_threshold_and_costs_2s() {
        let mut wl = PcmS::new(256, 16, 4, 3);
        let mut d = dev(256, 1_000_000);
        let threshold = wl.exchange_threshold(); // 4 * 16 = 64
        assert_eq!(threshold, 64);
        for _ in 0..threshold {
            wl.write(5, &mut d);
        }
        assert_eq!(wl.exchanges(), 1);
        assert_eq!(d.wear().overhead_writes, 32); // 2 regions * 16 lines
    }

    #[test]
    fn exchange_moves_exactly_two_regions() {
        let mut wl = PcmS::new(256, 16, 4, 4);
        let mut d = dev(256, 1_000_000);
        let before = mapping_snapshot(&wl);
        for _ in 0..wl.exchange_threshold() {
            wl.write(0, &mut d);
        }
        let after = mapping_snapshot(&wl);
        let moved = moved_lines(&before, &after);
        // Both exchanged regions move entirely (keys re-randomized); a line
        // may coincidentally keep its address, so allow a little slack.
        assert!((28..=32).contains(&moved), "moved {moved}");
    }

    #[test]
    fn raa_migrates_across_whole_memory() {
        let mut wl = PcmS::new(1 << 12, 4, 8, 5);
        let mut d = dev(1 << 12, 1_000_000);
        let mut regions_seen = std::collections::HashSet::new();
        for _ in 0..200_000 {
            wl.write(0, &mut d);
            regions_seen.insert(wl.translate(0) >> 2);
        }
        // 200k writes / (8*4) per exchange = ~6250 exchanges; the hot
        // region must have visited a large share of the 1024 regions.
        assert!(regions_seen.len() > 256, "visited only {} regions", regions_seen.len());
    }

    #[test]
    fn overhead_fraction_is_two_over_period() {
        for period in [8u64, 16, 32, 64] {
            let mut wl = PcmS::new(1 << 10, 1 << 3, period, 6);
            let mut d = dev(1 << 10, u32::MAX);
            let n = 500_000;
            let mut x = 9u64;
            for _ in 0..n {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                wl.write(x % (1 << 10), &mut d);
            }
            let measured = d.wear().overhead_writes as f64 / n as f64;
            let nominal = 2.0 / period as f64; // overhead writes per demand write
            assert!(
                (measured - nominal).abs() < 0.01,
                "period {period}: measured {measured}, nominal {nominal}"
            );
        }
    }

    #[test]
    fn better_lifetime_with_more_regions_under_attack() {
        // The paper's Fig. 4 trend: more regions (smaller region size) ->
        // longer lifetime under BPA-like traffic. RAA is the extreme case.
        let life = |region_lines: u64| {
            let mut wl = PcmS::new(1 << 10, region_lines, 16, 7);
            let mut d = dev(1 << 10, 2_000);
            while !d.is_dead() {
                wl.write(0, &mut d);
            }
            d.normalized_lifetime()
        };
        let coarse = life(1 << 7);
        let fine = life(1 << 2);
        assert!(fine > coarse, "fine {fine} <= coarse {coarse}");
    }

    #[test]
    fn single_region_rekeys_without_partner() {
        let mut wl = PcmS::new(64, 64, 2, 8);
        let mut d = dev(64, 1_000_000);
        for _ in 0..128 {
            wl.write(0, &mut d);
        }
        assert_eq!(wl.exchanges(), 1);
        check_permutation(&wl, 64);
    }
}
