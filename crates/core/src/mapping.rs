//! The mapping tier: CMT/GTD/IMT traversal and translation-line writes.
//!
//! This subsystem owns every piece of SAWL's *address translation* state
//! (§3.1, Fig. 11): the in-NVM IMT image, the on-chip CMT that caches hot
//! entries, the GTD that levels translation-line wear, and the inverse
//! `owner` map (physical granule → logical granule) that relocation
//! operations need to find a block's current occupants. Hardware derives
//! the owner information from the IMT it is about to rewrite; we keep it
//! materialized.
//!
//! The logical space is divided into *granules* of `P` lines (the minimum
//! granularity). A region of the current granularity `Q = 2^k · P` is a
//! naturally aligned run of `Q/P` granules whose IMT entries are identical
//! — the paper's Fig. 10 encoding ("to indicate the sub-regions belonging
//! to a large region, their address information is identical").
//!
//! One simulation shortcut, documented here once: [`TieredMapping::resolve_cached`]
//! reads the *authoritative* granularity from the in-memory IMT image to
//! form the CMT probe key, where hardware would use a range-matching
//! (TCAM-style) lookup over the cached entries. The observable behaviour —
//! which entry hits, what gets evicted, every counter — is identical,
//! because the CMT is kept coherent on every granularity change.
//!
//! What this module does **not** know about: when to merge/split/exchange
//! (the [adaptation controller](crate::adapt) and [exchange
//! policy](crate::exchange) decide), or data-line write charging policy per
//! operation (callers charge via [`TieredMapping::charge_block`] because
//! the data-movement cost depends on the operation — split moves nothing).

use sawl_nvm::{La, NvmDevice, Pa};
use sawl_tiered::cmt::{Cmt, CmtLookup};
use sawl_tiered::gtd::Gtd;
use sawl_tiered::imt::{ImtEntry, ImtTable};
use sawl_tiered::journal::RegionUpdate;
use sawl_tiered::layout::TieredLayout;

use crate::config::SawlConfig;

/// The concrete tiered mapping state: IMT in NVM, CMT on chip, GTD for
/// translation-line wear, plus the inverse owner map.
#[derive(Debug, Clone)]
pub struct TieredMapping {
    layout: TieredLayout,
    p_log2: u32,
    /// Total granules (data_lines / P).
    granules: u64,
    imt: ImtTable,
    /// physical granule -> logical granule.
    owner: Vec<u32>,
    cmt: Cmt<ImtEntry>,
    gtd: Gtd,
}

impl TieredMapping {
    /// Identity mapping over `cfg`'s geometry; `gtd_seed` randomizes the
    /// GTD's refresh starting point.
    pub fn new(cfg: &SawlConfig, gtd_seed: u64) -> Self {
        let p = cfg.initial_granularity;
        let layout = TieredLayout::new(cfg.data_lines, p);
        let granules = cfg.data_lines / p;
        let gtd =
            Gtd::new(layout.translation_base(), layout.translation_space, cfg.gtd_period, gtd_seed);
        Self {
            p_log2: p.trailing_zeros(),
            granules,
            imt: ImtTable::identity(cfg.data_lines, p),
            owner: (0..granules as u32).collect(),
            cmt: Cmt::new(cfg.cmt_entries),
            gtd,
            layout,
        }
    }

    /// The physical layout.
    pub fn layout(&self) -> TieredLayout {
        self.layout
    }

    /// Physical lines the device must provide (data + translation region).
    pub fn required_physical_lines(&self) -> u64 {
        self.layout.total_lines()
    }

    /// Total granules.
    pub fn granules(&self) -> u64 {
        self.granules
    }

    /// log2 of the minimum granularity P.
    pub fn p_log2(&self) -> u32 {
        self.p_log2
    }

    /// Record `k` repeated CMT hits to the cached region at `base` — the
    /// bulk half of run-length batching, equivalent to `k` cache lookups.
    pub fn record_repeat_hits(&mut self, base: u64, k: u64) {
        self.cmt.record_hits(base, k);
    }

    /// The CMT (hit counters, occupancy) for the monitor and tests.
    pub fn cmt(&self) -> &Cmt<ImtEntry> {
        &self.cmt
    }

    /// Granules per region for an entry.
    #[inline]
    pub fn nq(&self, e: ImtEntry) -> u64 {
        1 << (u32::from(e.q_log2) - self.p_log2)
    }

    /// Base granule of the region covering granule `g` under entry `e`.
    #[inline]
    pub fn base_of(&self, g: u64, e: ImtEntry) -> u64 {
        g & !(self.nq(e) - 1)
    }

    /// Granularity (log2 lines) of the region currently occupying physical
    /// granule `phys`. Relocation target selection uses this to skip
    /// blocks owned by larger regions.
    pub fn occupant_q_log2(&self, phys: u64) -> u8 {
        let o = u64::from(self.owner[phys as usize]);
        self.imt.entry(o).q_log2
    }

    /// Drop the cached entry for `base`, if any.
    pub fn cache_remove(&mut self, base: u64) {
        self.cmt.remove(base);
    }

    /// Insert the current authoritative entry for `base` into the CMT.
    pub fn cache_insert_current(&mut self, base: u64) {
        self.cmt.insert(base, self.imt.entry(base));
    }

    /// Charge `count` granules' worth of data-line writes starting at
    /// physical granule `start`.
    pub fn charge_block(&self, start: u64, count: u64, dev: &mut NvmDevice) {
        let p = 1u64 << self.p_log2;
        dev.write_wl_range(start * p, count * p);
    }

    /// Append to `updates` the region updates that relocate every region
    /// currently occupying the `count` physical granules starting at
    /// `from` into the equal-size block starting at `to`, preserving each
    /// region's offset within the block. Pure planning — nothing is
    /// applied — so the engine can journal the updates before the first
    /// NVM write. Callers pass a reused buffer, so planning allocates
    /// nothing once the buffer has grown to the largest block.
    pub fn plan_displacement(
        &self,
        from: u64,
        count: u64,
        to: u64,
        updates: &mut Vec<RegionUpdate>,
    ) {
        let mut g = from;
        while g < from + count {
            let o = u64::from(self.owner[g as usize]);
            let e = self.imt.entry(o);
            let dshift = u32::from(e.q_log2) - self.p_log2;
            let dphys = e.prn() << dshift;
            let new_prn = (to + (dphys - from)) >> dshift;
            updates.push(RegionUpdate {
                base: self.base_of(o, e),
                prn: new_prn,
                key: e.key(),
                q_log2: e.q_log2,
            });
            g += self.nq(e);
        }
    }

    /// Apply one journaled region update (idempotent: re-applying after a
    /// partial first attempt converges to the same state).
    pub fn apply_update(&mut self, u: &RegionUpdate, dev: &mut NvmDevice) {
        self.set_region(u.base, u.prn, u.key, u.q_log2, dev);
    }

    /// Whether any granule of `u`'s region already carries the update's
    /// target entry — the recovery layer's redo-vs-rollback test. (A
    /// no-op update reports `true` against the pre-update state too; both
    /// answers are safe there because applying is idempotent.)
    pub fn update_landed(&self, u: &RegionUpdate) -> bool {
        let e = ImtEntry::pack(u.prn, u.key, u.q_log2);
        let nq = 1u64 << (u32::from(u.q_log2) - self.p_log2);
        (0..nq).any(|j| self.imt.entry(u.base + j) == e)
    }

    /// Relocate every region currently occupying the `count` physical
    /// granules starting at `from` into the equal-size block starting at
    /// `to`, preserving each region's offset within the block. Rewrites
    /// mapping state only; callers charge the data movement.
    pub fn displace_block(&mut self, from: u64, count: u64, to: u64, dev: &mut NvmDevice) {
        let mut updates = Vec::new();
        self.plan_displacement(from, count, to, &mut updates);
        for u in &updates {
            self.apply_update(u, dev);
        }
    }

    /// Rebuild the volatile state after a crash, once the journal has been
    /// replayed or rolled back and the IMT is consistent again: recompute
    /// the owner inverse map from the IMT and restart the CMT cold (it is
    /// on-chip SRAM and did not survive the power loss). Returns the
    /// region count so the engine can restore its cached tally.
    pub fn rebuild_after_crash(&mut self) -> u64 {
        let mut g = 0;
        let mut region_count = 0u64;
        while g < self.granules {
            let e = self.imt.entry(g);
            let nq = self.nq(e);
            let key_g = e.key() >> self.p_log2;
            let phys_base = e.prn() << (u32::from(e.q_log2) - self.p_log2);
            for j in 0..nq {
                self.owner[(phys_base + (j ^ key_g)) as usize] = (g + j) as u32;
            }
            region_count += 1;
            g += nq;
        }
        self.cmt.clear();
        region_count
    }

    /// Checkpoint the mutable mapping state: the IMT image, the CMT (full
    /// LRU stack + counters, so a resumed run replays hits and misses
    /// byte-identically) and the GTD. The owner inverse map is derived
    /// state and is rebuilt on restore.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        self.imt.ckpt_save(w);
        self.cmt.ckpt_save(w, |e, w| {
            w.put_u64(e.d);
            w.put_u8(e.q_log2);
        });
        self.gtd.ckpt_save(w);
    }

    /// Restore state saved by [`ckpt_save`](Self::ckpt_save) into a
    /// mapping built from the same spec. Unlike post-crash recovery the
    /// CMT contents survive (checkpoint/resume must continue the exact
    /// request stream). Validates that the restored IMT describes aligned,
    /// in-bounds regions and that every cached entry matches it. Returns
    /// the region count observed while rebuilding the owner map.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<u64, sawl_ckpt::CkptError> {
        use sawl_ckpt::CkptError;
        self.imt.ckpt_restore(r)?;
        // Rebuild the owner map from the restored IMT, bounds-checking
        // every physical granule a corrupted table could point at.
        let mut g = 0;
        let mut region_count = 0u64;
        while g < self.granules {
            let e = self.imt.entry(g);
            if u32::from(e.q_log2) < self.p_log2 {
                return Err(CkptError::Corrupt(format!(
                    "mapping: entry at granule {g} below minimum granularity"
                )));
            }
            let nq = self.nq(e);
            if g & (nq - 1) != 0 {
                return Err(CkptError::Corrupt(format!(
                    "mapping: region at granule {g} misaligned"
                )));
            }
            let key_g = e.key() >> self.p_log2;
            let phys_base = e.prn() << (u32::from(e.q_log2) - self.p_log2);
            for j in 0..nq {
                if self.imt.entry(g + j) != e {
                    return Err(CkptError::Corrupt(format!(
                        "mapping: entry run broken at granule {}",
                        g + j
                    )));
                }
                let phys = phys_base + (j ^ key_g);
                if phys >= self.granules {
                    return Err(CkptError::Corrupt(format!(
                        "mapping: granule {} maps to physical granule {phys} beyond {}",
                        g + j,
                        self.granules
                    )));
                }
                self.owner[phys as usize] = (g + j) as u32;
            }
            region_count += 1;
            g += nq;
        }
        self.cmt.ckpt_restore(r, |r| {
            let d = r.get_u64()?;
            let q_log2 = r.get_u8()?;
            if q_log2 >= 64 {
                return Err(CkptError::Corrupt(format!("cmt: granularity 2^{q_log2} is absurd")));
            }
            Ok(ImtEntry { d, q_log2 })
        })?;
        for (base, e) in self.cmt.iter_mru() {
            if base >= self.granules || self.imt.entry(base) != e || self.base_of(base, e) != base {
                return Err(CkptError::Corrupt(format!(
                    "mapping: cached entry at granule {base} disagrees with the IMT"
                )));
            }
        }
        self.gtd.ckpt_restore(r)?;
        Ok(region_count)
    }

    /// Mean region size in lines over currently cached entries (what the
    /// running workload experiences; Figs. 13–14's "Region size" axis).
    pub fn cached_region_size(&self) -> f64 {
        if self.cmt.is_empty() {
            return (1u64 << self.p_log2) as f64;
        }
        let sum: u64 = self.cmt.iter_mru().map(|(_, e)| e.q()).sum();
        sum as f64 / self.cmt.len() as f64
    }

    /// Histogram of current region sizes across the whole memory: one
    /// count per granularity level, index = log2(Q). O(granules).
    pub fn region_size_histogram(&self, max_granularity: u64) -> Vec<(u64, u64)> {
        let max_q = max_granularity.trailing_zeros();
        let mut counts = vec![0u64; (max_q - self.p_log2 + 1) as usize];
        let mut g = 0;
        while g < self.granules {
            let e = self.imt.entry(g);
            counts[(u32::from(e.q_log2) - self.p_log2) as usize] += 1;
            g += self.nq(e);
        }
        counts.into_iter().enumerate().map(|(i, c)| (1u64 << (self.p_log2 + i as u32), c)).collect()
    }

    /// On-chip bits of this tier: the CMT entries plus the GTD state.
    pub fn onchip_bits(&self, entry_bits: u64) -> u64 {
        self.cmt.capacity() as u64 * entry_bits + self.gtd.onchip_bits()
    }

    /// Verify the mapping invariants — aligned identical-entry runs,
    /// owner-map consistency, injective line-level translation — and
    /// return the observed region count. O(data lines); test/debug only.
    pub fn check_consistency(&self) -> u64 {
        // Regions are aligned runs of identical entries.
        let mut g = 0;
        let mut region_count = 0u64;
        while g < self.granules {
            let e = self.imt.entry(g);
            let nq = self.nq(e);
            assert_eq!(g & (nq - 1), 0, "region at granule {g} misaligned");
            for j in 0..nq {
                assert_eq!(self.imt.entry(g + j), e, "entry run broken at {}", g + j);
            }
            region_count += 1;
            g += nq;
        }
        // Owner is the inverse of the granule-level mapping.
        for l in 0..self.granules {
            let e = self.imt.entry(l);
            let base = self.base_of(l, e);
            let j = l - base;
            let key_g = e.key() >> self.p_log2;
            let phys = (e.prn() << (u32::from(e.q_log2) - self.p_log2)) + (j ^ key_g);
            assert_eq!(
                u64::from(self.owner[phys as usize]),
                l,
                "owner map wrong at physical granule {phys}"
            );
        }
        // Line-level translation is injective: every physical line is the
        // translation of a logical line (found through the owner map), and
        // onto a set of the same size means one-to-one. Needs no buffer, so
        // the debug check after every event does not allocate.
        for pa in 0..self.layout.data_lines {
            let l = u64::from(self.owner[(pa >> self.p_log2) as usize]);
            let e = self.imt.entry(l);
            let la = (self.base_of(l, e) << self.p_log2) | ((pa & (e.q() - 1)) ^ e.key());
            assert_eq!(self.imt.translate(la), pa, "no logical line translates to pa {pa}");
        }
        region_count
    }

    /// Authoritative IMT entry covering `granule`.
    #[inline]
    pub fn entry(&self, granule: u64) -> ImtEntry {
        self.imt.entry(granule)
    }

    /// Current physical location of logical line `la`; no side effects.
    #[inline]
    pub fn translate(&self, la: La) -> Pa {
        self.imt.translate(la)
    }

    /// Resolve the entry covering `granule` through the CMT, charging an
    /// in-NVM IMT read on a miss (Fig. 11 steps 1–3).
    pub fn resolve_cached(&mut self, granule: u64, dev: &mut NvmDevice) -> ImtEntry {
        let auth = self.imt.entry(granule);
        let base = self.base_of(granule, auth);
        match self.cmt.lookup(base) {
            CmtLookup::Hit(e) => {
                debug_assert_eq!(e, auth, "CMT out of sync at granule {granule}");
            }
            CmtLookup::Miss => {
                let tl = self.imt.translation_line_of(base);
                self.gtd.read_line(tl, dev);
                self.cmt.insert(base, auth);
            }
        }
        auth
    }

    /// Rewrite the region at `base` to placement `(prn, key, q_log2)`:
    /// IMT entries, owner map and CMT image, charging the translation-line
    /// writes through the GTD.
    pub fn set_region(&mut self, base: u64, prn: u64, key: u64, q_log2: u8, dev: &mut NvmDevice) {
        let e = ImtEntry::pack(prn, key, q_log2);
        let nq = self.nq(e);
        debug_assert_eq!(base & (nq - 1), 0, "unaligned region base");
        // Each distinct translation line is written through the GTD before
        // the entries it holds are considered durable: if a power-loss
        // event fires on (or before) a line's write, that line's entries —
        // and everything after — keep their old contents, modeling a torn
        // multi-line update. The device-write sequence is identical to the
        // fault-free path, which issues one GTD write per distinct line.
        let mut last_tl = u64::MAX;
        let mut landed = 0u64;
        for j in 0..nq {
            let tl = self.imt.translation_line_of(base + j);
            if tl != last_tl {
                self.gtd.write_line(tl, dev);
                if dev.power_lost() {
                    break;
                }
                last_tl = tl;
            }
            self.imt.set_entry(base + j, e);
            landed += 1;
        }
        if landed < nq {
            // Torn: leave the owner map and CMT image alone. They are
            // stale now, but recovery replays this update and rebuilds
            // both before the engine serves another request.
            return;
        }
        // Owner map: logical granule base+j sits at physical granule
        // phys_base + (j ^ key_granule_bits).
        let key_g = key >> self.p_log2;
        let phys_base = prn << (u32::from(q_log2) - self.p_log2);
        for j in 0..nq {
            self.owner[(phys_base + (j ^ key_g)) as usize] = (base + j) as u32;
        }
        self.cmt.update_in_place(base, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sawl_nvm::NvmConfig;

    fn make() -> (TieredMapping, NvmDevice) {
        let cfg = SawlConfig {
            data_lines: 1 << 10,
            initial_granularity: 4,
            cmt_entries: 16,
            ..Default::default()
        };
        let m = TieredMapping::new(&cfg, 0xD1CE);
        let dev = NvmDevice::new(
            NvmConfig::builder()
                .lines(m.required_physical_lines())
                .banks(1)
                .endurance(u32::MAX)
                .spare_shift(6)
                .build()
                .unwrap(),
        );
        (m, dev)
    }

    #[test]
    fn identity_mapping_is_consistent() {
        let (m, _) = make();
        assert_eq!(m.check_consistency(), 1 << 8);
        for la in [0u64, 7, 512, 1023] {
            assert_eq!(m.translate(la), la);
        }
    }

    #[test]
    fn resolve_misses_then_hits_and_charges_one_read() {
        let (mut m, mut dev) = make();
        m.resolve_cached(0, &mut dev);
        assert_eq!(m.cmt().misses(), 1);
        assert_eq!(dev.wear().reads, 1, "miss must pay the in-NVM IMT read");
        m.resolve_cached(0, &mut dev);
        assert_eq!(m.cmt().hits(), 1);
        assert_eq!(dev.wear().reads, 1, "hit must not touch the device");
    }

    #[test]
    fn set_region_updates_owner_inverse_and_cmt() {
        let (mut m, mut dev) = make();
        // Swap regions 0 and 5 by hand (granule-size regions, key 2).
        m.resolve_cached(0, &mut dev); // cache entry for granule 0
        m.set_region(0, 5, 2, 2, &mut dev);
        m.set_region(5, 0, 0, 2, &mut dev);
        // Lines of granule 0 now live in physical granule 5, XORed by 2.
        assert_eq!(m.translate(0), 5 * 4 + 2);
        assert_eq!(m.occupant_q_log2(5), 2);
        // The cached image followed the update.
        let _ = m.check_consistency();
        assert!(dev.wear().total_writes > 0, "translation lines must wear");
    }

    #[test]
    fn displace_block_preserves_offsets() {
        let (mut m, mut dev) = make();
        // Exchange pattern: logical granules 0..4 want physical block
        // 8..12, so first displace that block's occupants into the space
        // being vacated, then claim it.
        m.displace_block(8, 4, 0, &mut dev);
        for g in 8..12u64 {
            // Displaced granule g kept its block offset: now at g - 8.
            assert_eq!(m.translate(g * 4), (g - 8) * 4);
        }
        for g in 0..4u64 {
            m.set_region(g, 8 + g, 0, 2, &mut dev);
        }
        let _ = m.check_consistency();
    }

    #[test]
    fn histogram_counts_every_region_at_initial_granularity() {
        let (m, _) = make();
        let h = m.region_size_histogram(64);
        assert_eq!(h[0], (4, 1 << 8));
        assert!(h[1..].iter().all(|&(_, c)| c == 0));
    }
}
