//! Segment Swapping — the table-based (TBWL) representative.
//!
//! Zhou et al., "A durable and energy efficient main memory using phase
//! change memory technology" (ISCA '09), as summarized in the paper's §2.1
//! and Fig. 1(a): the memory is divided into segments; a table records the
//! logical→physical segment mapping and per-segment write counts. When a
//! segment accumulates `swap_period` writes since its last swap, its data
//! is exchanged with the **least-written** segment, and the table entries
//! are swapped.
//!
//! Crucially, the intra-segment offset is *never* remapped — which is
//! exactly why the paper rules the scheme out for MLC NVM: a Repeated
//! Address Attack keeps hitting the same offset in whatever segment the
//! logical page lands on, so one line per segment wears out at full attack
//! rate (§2.2 item 1). The `raa_defeats_segment_swapping` test below
//! demonstrates the vulnerability.

use sawl_nvm::{La, NvmDevice, Pa, WriteOutcome};

use crate::region::RegionGeometry;
use crate::WearLeveler;

/// Table-based segment swapping.
#[derive(Debug, Clone)]
pub struct SegmentSwap {
    geo: RegionGeometry,
    /// logical segment -> physical segment
    l2p: Vec<u32>,
    /// physical segment -> logical segment (inverse, for the swap)
    p2l: Vec<u32>,
    /// lifetime writes per physical segment (drives the "least used" pick)
    seg_writes: Vec<u64>,
    /// writes to each physical segment since it last swapped
    seg_since_swap: Vec<u64>,
    /// writes to a segment between swaps
    swap_period: u64,
    /// total data-exchange line writes charged so far
    swaps_performed: u64,
}

impl SegmentSwap {
    /// Create over `lines` logical lines split into `segment_lines`-line
    /// segments, swapping a segment after `swap_period` writes to it.
    pub fn new(lines: u64, segment_lines: u64, swap_period: u64) -> Self {
        assert!(swap_period > 0, "swap period must be non-zero");
        let geo = RegionGeometry::new(lines, segment_lines);
        let segs = geo.regions() as usize;
        Self {
            geo,
            l2p: (0..segs as u32).collect(),
            p2l: (0..segs as u32).collect(),
            seg_writes: vec![0; segs],
            seg_since_swap: vec![0; segs],
            swap_period,
            swaps_performed: 0,
        }
    }

    /// Number of segment swaps performed so far.
    pub fn swaps_performed(&self) -> u64 {
        self.swaps_performed
    }

    /// Exchange the data of two physical segments, charging every line
    /// write to the device, and update both tables.
    fn swap_segments(&mut self, pa_seg: u32, pb_seg: u32, dev: &mut NvmDevice) {
        let s = self.geo.region_lines();
        // Writing both segments' contents to their new homes costs 2*S line
        // writes (the transfer buffers live in the controller), one
        // contiguous burst per segment on the device's range path.
        dev.write_wl_range(u64::from(pa_seg) * s, s);
        dev.write_wl_range(u64::from(pb_seg) * s, s);
        let la_seg = self.p2l[pa_seg as usize];
        let lb_seg = self.p2l[pb_seg as usize];
        self.l2p[la_seg as usize] = pb_seg;
        self.l2p[lb_seg as usize] = pa_seg;
        self.p2l[pa_seg as usize] = lb_seg;
        self.p2l[pb_seg as usize] = la_seg;
        self.seg_since_swap[pa_seg as usize] = 0;
        self.seg_since_swap[pb_seg as usize] = 0;
        self.swaps_performed += 1;
    }

    /// Checkpoint the mapping tables and per-segment counters. Geometry and
    /// the swap period are configuration, rebuilt from the spec.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_u32_slice(&self.l2p);
        w.put_u32_slice(&self.p2l);
        w.put_u64_slice(&self.seg_writes);
        w.put_u64_slice(&self.seg_since_swap);
        w.put_u64(self.swaps_performed);
    }

    /// Restore state saved by [`ckpt_save`](Self::ckpt_save) into an
    /// instance built from the same spec. Rejects table shapes that do not
    /// match the geometry or tables that are not inverse permutations.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        let segs = self.geo.regions() as usize;
        let l2p = r.get_u32_vec()?;
        let p2l = r.get_u32_vec()?;
        let seg_writes = r.get_u64_vec()?;
        let seg_since_swap = r.get_u64_vec()?;
        let swaps_performed = r.get_u64()?;
        for (name, len) in [
            ("l2p", l2p.len()),
            ("p2l", p2l.len()),
            ("seg_writes", seg_writes.len()),
            ("seg_since_swap", seg_since_swap.len()),
        ] {
            if len != segs {
                return Err(sawl_ckpt::CkptError::Corrupt(format!(
                    "segment-swap {name}: {len} entries for {segs} segments"
                )));
            }
        }
        for (l, &p) in l2p.iter().enumerate() {
            if p as usize >= segs || p2l[p as usize] as usize != l {
                return Err(sawl_ckpt::CkptError::Corrupt(format!(
                    "segment-swap tables are not inverse permutations at logical segment {l}"
                )));
            }
        }
        self.l2p = l2p;
        self.p2l = p2l;
        self.seg_writes = seg_writes;
        self.seg_since_swap = seg_since_swap;
        self.swaps_performed = swaps_performed;
        Ok(())
    }

    /// Physical segment with the fewest lifetime writes (excluding `not`).
    fn coldest_segment(&self, not: u32) -> u32 {
        let mut best = u32::MAX;
        let mut best_writes = u64::MAX;
        for (i, &w) in self.seg_writes.iter().enumerate() {
            if i as u32 != not && w < best_writes {
                best_writes = w;
                best = i as u32;
            }
        }
        best
    }
}

impl WearLeveler for SegmentSwap {
    fn name(&self) -> &'static str {
        "segment-swap"
    }

    fn logical_lines(&self) -> u64 {
        self.geo.lines()
    }

    #[inline]
    fn translate(&self, la: La) -> Pa {
        let seg = self.geo.region_of(la);
        let off = self.geo.offset_of(la);
        // The intra-segment offset is preserved — the RAA weakness.
        u64::from(self.l2p[seg as usize]) * self.geo.region_lines() + off
    }

    fn write(&mut self, la: La, dev: &mut NvmDevice) -> Pa {
        let pa = self.translate(la);
        if dev.write(pa) == WriteOutcome::PowerLost {
            // A dropped write is not a write: the trigger must not move.
            return pa;
        }
        let pseg = (pa >> self.geo.offset_bits()) as usize;
        self.seg_writes[pseg] += 1;
        self.seg_since_swap[pseg] += 1;
        if self.seg_since_swap[pseg] >= self.swap_period && self.geo.regions() > 1 {
            let coldest = self.coldest_segment(pseg as u32);
            self.swap_segments(pseg as u32, coldest, dev);
        }
        // The demand write may have remapped; report where it landed.
        pa
    }

    fn quiet_writes(&self, la: La) -> u64 {
        // The table only changes at a segment's swap trigger; with a
        // single segment the trigger is disabled outright and every write
        // is quiet.
        if self.geo.regions() == 1 {
            return u64::MAX;
        }
        let pseg = (self.translate(la) >> self.geo.offset_bits()) as usize;
        self.swap_period.saturating_sub(self.seg_since_swap[pseg] + 1)
    }

    fn note_quiet(&mut self, la: La, k: u64) {
        let pseg = (self.translate(la) >> self.geo.offset_bits()) as usize;
        self.seg_writes[pseg] += k;
        self.seg_since_swap[pseg] += k;
    }

    fn onchip_bits(&self) -> u64 {
        // Mapping entry + inverse + two counters per segment.
        let segs = self.geo.regions();
        let entry_bits = u64::from(self.geo.region_bits()) * 2 + 64 + 64;
        segs * entry_bits
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
    fn starts_as_identity() {
        let wl = SegmentSwap::new(256, 16, 100);
        for la in 0..256 {
            assert_eq!(wl.translate(la), la);
        }
    }

    #[test]
    fn swap_triggers_after_period_and_remaps() {
        let mut d = dev(256, 1_000_000);
        let mut wl = SegmentSwap::new(256, 16, 10);
        let before = mapping_snapshot(&wl);
        for _ in 0..10 {
            wl.write(0, &mut d);
        }
        assert_eq!(wl.swaps_performed(), 1);
        let after = mapping_snapshot(&wl);
        // Exactly two segments' worth of lines moved.
        assert_eq!(moved_lines(&before, &after), 32);
        check_permutation(&wl, 256);
    }

    #[test]
    fn swap_charges_write_overhead() {
        let mut d = dev(256, 1_000_000);
        let mut wl = SegmentSwap::new(256, 16, 10);
        for _ in 0..10 {
            wl.write(0, &mut d);
        }
        assert_eq!(d.wear().overhead_writes, 32);
        assert_eq!(d.wear().demand_writes, 10);
    }

    #[test]
    fn swaps_target_the_coldest_segment() {
        let mut d = dev(256, 1_000_000);
        let mut wl = SegmentSwap::new(256, 16, 10);
        // Warm up segment 1 so it is NOT the coldest.
        for _ in 0..5 {
            wl.write(16, &mut d);
        }
        // Trigger a swap from segment 0; it must pick a never-written
        // segment (anything but 0 and 1).
        for _ in 0..10 {
            wl.write(0, &mut d);
        }
        let new_seg = wl.translate(0) >> 4;
        assert_ne!(new_seg, 0);
        assert_ne!(new_seg, 1);
    }

    #[test]
    fn permutation_holds_under_mixed_traffic() {
        let mut d = dev(512, 1_000_000);
        let mut wl = SegmentSwap::new(512, 8, 7);
        let mut x = 88172645463325252u64;
        for _ in 0..5000 {
            // xorshift for cheap pseudo-random addresses
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            wl.write(x % 512, &mut d);
        }
        check_permutation(&wl, 512);
    }

    #[test]
    fn raa_defeats_segment_swapping() {
        // The paper's §2.2 point: the attacked offset wears out at full
        // rate because offsets never remap. Lifetime stays near the
        // no-wear-leveling floor despite constant swapping.
        let mut d = dev(1 << 12, 200);
        let mut wl = SegmentSwap::new(1 << 12, 64, 50);
        let mut demand = 0u64;
        while !d.is_dead() {
            wl.write(0, &mut d);
            demand += 1;
            assert!(demand < 10_000_000);
        }
        let nl = d.normalized_lifetime();
        // 4 spares per 2^12/2^4... spare_shift 4 -> 256 spares; attacked
        // offset fails every 200 writes; even with swapping the offset
        // inherits fresh segments but the *offset line* of each is the only
        // one wearing: lifetime stays far below 50% of ideal.
        assert!(nl < 0.5, "segment swapping unexpectedly resisted RAA: {nl}");
    }

    #[test]
    fn single_segment_never_swaps() {
        let mut d = dev(64, 1_000_000);
        let mut wl = SegmentSwap::new(64, 64, 5);
        for _ in 0..100 {
            wl.write(1, &mut d);
        }
        assert_eq!(wl.swaps_performed(), 0);
        assert_eq!(d.wear().overhead_writes, 0);
    }

    #[test]
    fn onchip_bits_scale_with_segments() {
        let small = SegmentSwap::new(1 << 10, 1 << 6, 10).onchip_bits();
        let large = SegmentSwap::new(1 << 10, 1 << 2, 10).onchip_bits();
        assert!(large > small * 8);
    }
}
