//! NWL — the naive tiered wear-leveling scheme.
//!
//! §3's strawman: run the PCM-S hybrid algorithm, but keep the full mapping
//! table (IMT) in NVM and only a cache (CMT) on chip. Correct, and the
//! on-chip cost no longer scales with the region count — but under
//! workloads with weak locality the CMT hit rate collapses and every miss
//! pays a 55 ns in-NVM table lookup. NWL-4 and NWL-64 (4- and 64-line
//! regions) are the fixed-granularity baselines of Figs. 14 and 17;
//! SAWL exists to beat them by *adapting* the granularity.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sawl_nvm::{La, NvmDevice, Pa, WriteOutcome};

use sawl_algos::exchange::{draw_key, SwapCounters};
use sawl_algos::{OpCounts, Recovery, WearLeveler};
use serde::{Deserialize, Serialize};

use crate::cmt::{Cmt, CmtLookup};
use crate::gtd::Gtd;
use crate::imt::{ImtEntry, ImtTable};
use crate::journal::{Journal, OpKind, RegionUpdate};
use crate::layout::TieredLayout;

/// Configuration of an NWL instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NwlConfig {
    /// User data lines (power of two).
    pub data_lines: u64,
    /// Wear-leveling granularity (region size) in lines — the "4" of NWL-4.
    pub granularity: u64,
    /// CMT capacity in entries.
    pub cmt_entries: usize,
    /// Writes per line between region exchanges (PCM-S swapping period).
    pub swap_period: u64,
    /// Translation-line writes per GTD refresh step.
    pub gtd_period: u64,
    /// RNG seed for exchange-partner and key draws.
    pub seed: u64,
}

impl NwlConfig {
    /// Bits per CMT entry for this geometry: tag (lrn) + packed address
    /// information D. Used to size the CMT from a byte budget.
    pub fn entry_bits(&self) -> u64 {
        let lrn_bits = 64 - (self.data_lines / self.granularity - 1).leading_zeros() as u64;
        let d_bits = 64 - (self.data_lines - 1).leading_zeros() as u64;
        lrn_bits + d_bits
    }

    /// Set `cmt_entries` from an SRAM budget in bytes.
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cmt_entries = ((bytes * 8) / self.entry_bits()).max(2) as usize;
        self
    }
}

impl Default for NwlConfig {
    fn default() -> Self {
        Self {
            data_lines: 1 << 16,
            granularity: 4,
            cmt_entries: 1024,
            swap_period: 128,
            gtd_period: 32,
            seed: 0x5A5A_1234,
        }
    }
}

/// Hit/miss statistics of the translation path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappingStats {
    /// CMT hits.
    pub hits: u64,
    /// CMT misses (each paid an in-NVM IMT read).
    pub misses: u64,
}

impl MappingStats {
    /// Hit rate in [0, 1]; 0 when no lookups have occurred.
    pub fn hit_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }
}

/// The naive tiered wear-leveling scheme.
#[derive(Debug, Clone)]
pub struct Nwl {
    cfg: NwlConfig,
    layout: TieredLayout,
    imt: ImtTable,
    /// physical region -> logical region (exchange bookkeeping)
    p2l: Vec<u32>,
    /// swapping-period counters per logical region
    swaps: SwapCounters,
    cmt: Cmt<ImtEntry>,
    gtd: Gtd,
    rng: SmallRng,
    journal: Journal,
    exchanges: u64,
}

impl Nwl {
    /// Build an NWL instance. The device must provide
    /// [`Nwl::required_physical_lines`] lines.
    pub fn new(cfg: NwlConfig) -> Self {
        let layout = TieredLayout::new(cfg.data_lines, cfg.granularity);
        let imt = ImtTable::identity(cfg.data_lines, cfg.granularity);
        let regions = layout.imt_entries;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let gtd = Gtd::new(
            layout.translation_base(),
            layout.translation_space,
            cfg.gtd_period,
            rng.random(),
        );
        Self {
            cmt: Cmt::new(cfg.cmt_entries),
            p2l: (0..regions as u32).collect(),
            swaps: SwapCounters::new(regions as usize, cfg.swap_period),
            imt,
            layout,
            gtd,
            rng,
            journal: Journal::new(),
            exchanges: 0,
            cfg,
        }
    }

    /// Physical lines the device must provide (data + translation region).
    pub fn required_physical_lines(&self) -> u64 {
        self.layout.total_lines()
    }

    /// The configuration in use.
    pub fn config(&self) -> &NwlConfig {
        &self.cfg
    }

    /// The physical layout.
    pub fn layout(&self) -> TieredLayout {
        self.layout
    }

    /// Translation-path statistics.
    pub fn mapping_stats(&self) -> MappingStats {
        MappingStats { hits: self.cmt.hits(), misses: self.cmt.misses() }
    }

    /// The CMT (hit counters, occupancy) for monitors and tests.
    pub fn cmt(&self) -> &Cmt<ImtEntry> {
        &self.cmt
    }

    /// Region exchanges performed.
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// Resolve the mapping entry for `lrn` through the cache, charging an
    /// IMT read on a miss.
    fn resolve_entry(&mut self, lrn: u64, dev: &mut NvmDevice) -> ImtEntry {
        match self.cmt.lookup(lrn) {
            CmtLookup::Hit(e) => {
                debug_assert_eq!(e, self.imt.entry(lrn), "CMT out of sync with IMT");
                e
            }
            CmtLookup::Miss => {
                let tl = self.imt.translation_line_of(lrn);
                self.gtd.read_line(tl, dev);
                let e = self.imt.entry(lrn);
                self.cmt.insert(lrn, e);
                e
            }
        }
    }

    /// PCM-S region exchange: swap `a` with a random partner, re-key both,
    /// rewrite both regions, and push the two updated entries through the
    /// GTD into their translation lines. Journaled: both new region
    /// descriptors are made durable before the first NVM write, so a power
    /// loss mid-exchange is rolled forward by recovery.
    fn exchange(&mut self, a: u64, dev: &mut NvmDevice) {
        if dev.power_lost() {
            return;
        }
        let regions = self.layout.imt_entries;
        let g = self.cfg.granularity;
        let q_log2 = g.trailing_zeros() as u8;
        let updates = if regions == 1 {
            // Degenerate single region: re-key in place.
            let ea = self.imt.entry(0);
            vec![RegionUpdate { base: 0, prn: ea.prn(), key: draw_key(&mut self.rng, g), q_log2 }]
        } else {
            let mut partner = a;
            while partner == a {
                partner = self.rng.random_range(0..regions);
            }
            let b = partner;
            let ea = self.imt.entry(a);
            let eb = self.imt.entry(b);
            vec![
                RegionUpdate { base: a, prn: eb.prn(), key: draw_key(&mut self.rng, g), q_log2 },
                RegionUpdate { base: b, prn: ea.prn(), key: draw_key(&mut self.rng, g), q_log2 },
            ]
        };
        self.journal.begin(OpKind::Exchange, updates.clone());
        self.swaps.reset(a as usize);
        self.exchanges += 1;
        self.apply_exchange(&updates, dev);
        if dev.power_lost() {
            // The journal record stays pending; recovery finishes the swap.
            return;
        }
        self.journal.commit();
    }

    /// Apply a (journaled) exchange: the data rewrites and the IMT/GTD/CMT
    /// updates, in the same device-write order as before journaling.
    fn apply_exchange(&mut self, updates: &[RegionUpdate], dev: &mut NvmDevice) {
        let g = self.cfg.granularity;
        let q_log2 = g.trailing_zeros() as u8;
        let new_a = ImtEntry::pack(updates[0].prn, updates[0].key, updates[0].q_log2);
        let new_b = updates.get(1).map(|u| ImtEntry::pack(u.prn, u.key, u.q_log2));
        // The inverse map is volatile host state, rebuilt at recovery.
        self.p2l[new_a.prn() as usize] = updates[0].base as u32;
        if let Some(eb) = new_b {
            self.p2l[eb.prn() as usize] = updates[1].base as u32;
        }
        // Rewrite every line of both physical regions at their new homes.
        for off in 0..g {
            dev.write_wl((new_a.prn() << q_log2) | off);
            if let Some(eb) = new_b {
                dev.write_wl((eb.prn() << q_log2) | off);
            }
        }
        // Update IMT (through the GTD: translation lines wear) and CMT.
        // The translation-line write precedes the entry mutation so a
        // power loss mid-update leaves the old descriptor in place.
        let tl_a = self.imt.translation_line_of(updates[0].base);
        self.gtd.write_line(tl_a, dev);
        if dev.power_lost() {
            return;
        }
        self.imt.set_entry(updates[0].base, new_a);
        self.cmt.update_in_place(updates[0].base, new_a);
        if let Some(eb) = new_b {
            let tl_b = self.imt.translation_line_of(updates[1].base);
            if tl_b != tl_a {
                self.gtd.write_line(tl_b, dev);
                if dev.power_lost() {
                    return;
                }
            }
            self.imt.set_entry(updates[1].base, eb);
            self.cmt.update_in_place(updates[1].base, eb);
        }
    }

    /// Whether a journaled update is already the authoritative entry.
    fn update_landed(&self, u: &RegionUpdate) -> bool {
        self.imt.entry(u.base) == ImtEntry::pack(u.prn, u.key, u.q_log2)
    }

    /// Rebuild every volatile structure from the durable IMT: the inverse
    /// map, the (cleared) CMT and the swapping-period counters.
    fn rebuild_after_crash(&mut self) {
        for lrn in 0..self.layout.imt_entries {
            let e = self.imt.entry(lrn);
            self.p2l[e.prn() as usize] = lrn as u32;
        }
        self.cmt.clear();
        self.swaps.clear();
    }

    /// The mapping-update journal (commit/replay/rollback counters).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Checkpoint every piece of mutable state: the durable IMT and
    /// journal, the volatile CMT and swap counters (so resume is
    /// byte-identical to an uninterrupted run, unlike crash recovery which
    /// deliberately restarts them cold), the GTD and the RNG.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        self.imt.ckpt_save(w);
        self.swaps.ckpt_save(w);
        self.cmt.ckpt_save(w, |e, w| {
            w.put_u64(e.d);
            w.put_u8(e.q_log2);
        });
        self.gtd.ckpt_save(w);
        w.put_rng(self.rng.state());
        self.journal.ckpt_save(w);
        w.put_u64(self.exchanges);
    }

    /// Restore state saved by [`ckpt_save`](Self::ckpt_save) into an
    /// instance built from the same config. The inverse map is rebuilt from
    /// the restored IMT; cached CMT entries are validated against it.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        self.imt.ckpt_restore(r)?;
        let regions = self.layout.imt_entries;
        for lrn in 0..regions {
            let e = self.imt.entry(lrn);
            if e.prn() >= regions {
                return Err(sawl_ckpt::CkptError::Corrupt(format!(
                    "nwl: region {lrn} maps to physical region {} of {regions}",
                    e.prn()
                )));
            }
            self.p2l[e.prn() as usize] = lrn as u32;
        }
        self.swaps.ckpt_restore(r)?;
        self.cmt.ckpt_restore(r, |r| {
            let d = r.get_u64()?;
            let q_log2 = r.get_u8()?;
            Ok(ImtEntry { d, q_log2 })
        })?;
        for (lrn, e) in self.cmt.iter_mru() {
            if lrn >= regions || e != self.imt.entry(lrn) {
                return Err(sawl_ckpt::CkptError::Corrupt(format!(
                    "nwl: cached entry for region {lrn} disagrees with the IMT"
                )));
            }
        }
        self.gtd.ckpt_restore(r)?;
        self.rng = SmallRng::from_state(r.get_rng()?);
        self.journal.ckpt_restore(r)?;
        self.exchanges = r.get_u64()?;
        Ok(())
    }
}

impl WearLeveler for Nwl {
    fn name(&self) -> &'static str {
        "nwl"
    }

    fn logical_lines(&self) -> u64 {
        self.cfg.data_lines
    }

    #[inline]
    fn translate(&self, la: La) -> Pa {
        self.imt.translate(la)
    }

    fn write(&mut self, la: La, dev: &mut NvmDevice) -> Pa {
        let lrn = self.imt.lrn_of(la);
        let e = self.resolve_entry(lrn, dev);
        let pa = e.translate(la);
        if dev.write(pa) == WriteOutcome::PowerLost {
            // A dropped write is not a write: the trigger must not move.
            return pa;
        }
        if self.swaps.record_write(lrn as usize, self.cfg.granularity) {
            self.exchange(lrn, dev);
        }
        pa
    }

    fn read(&mut self, la: La, dev: &mut NvmDevice) -> Pa {
        let lrn = self.imt.lrn_of(la);
        let e = self.resolve_entry(lrn, dev);
        let pa = e.translate(la);
        dev.read(pa);
        pa
    }

    fn quiet_writes(&self, la: La) -> u64 {
        // Quiet requires a cached mapping entry (a miss reads an in-NVM
        // translation line) and staying strictly before the region's
        // exchange trigger.
        let lrn = self.imt.lrn_of(la);
        if self.cmt.peek(lrn).is_none() {
            return 0;
        }
        self.swaps.until_trigger(lrn as usize, self.cfg.granularity) - 1
    }

    fn note_quiet(&mut self, la: La, k: u64) {
        let lrn = self.imt.lrn_of(la);
        self.cmt.record_hits(lrn, k);
        self.swaps.add(lrn as usize, k);
    }

    /// Post-power-loss recovery: roll the interrupted exchange forward when
    /// any of its descriptors landed (replaying the data rewrites), roll it
    /// back otherwise, then rebuild the volatile inverse map and caches
    /// from the durable IMT.
    fn recover(&mut self, dev: &mut NvmDevice) -> Recovery {
        dev.restore_power();
        let mut rec = Recovery::CLEAN;
        if let Some(pending) = self.journal.pending() {
            let updates = pending.updates.clone();
            if updates.iter().any(|u| self.update_landed(u)) {
                self.journal.note_replay();
                rec.replayed = true;
                let g = self.cfg.granularity;
                for u in &updates {
                    let tl = self.imt.translation_line_of(u.base);
                    self.gtd.write_line(tl, dev);
                    if dev.power_lost() {
                        rec.complete = false;
                        return rec;
                    }
                    self.imt.set_entry(u.base, ImtEntry::pack(u.prn, u.key, u.q_log2));
                    // The recovered controller cannot know which lines were
                    // rewritten before the crash: conservatively rewrite the
                    // region's full footprint.
                    for off in 0..g {
                        dev.write_wl((u.prn << u.q_log2) | off);
                    }
                    if dev.power_lost() {
                        rec.complete = false;
                        return rec;
                    }
                }
                self.journal.commit();
            } else {
                self.journal.rollback();
                rec.rolled_back = true;
            }
        }
        self.rebuild_after_crash();
        rec
    }

    fn onchip_bits(&self) -> u64 {
        self.cmt.capacity() as u64 * self.cfg.entry_bits() + self.gtd.onchip_bits()
    }

    fn telemetry_sample(&self, out: &mut sawl_telemetry::SchemeSample) {
        out.cmt_hits = Some(self.cmt.hits());
        out.cmt_misses = Some(self.cmt.misses());
        out.cmt_hits_first_half = Some(self.cmt.hits_first_half());
        out.cmt_hits_second_half = Some(self.cmt.hits_second_half());
        out.exchanges = Some(self.exchanges);
        out.journal_begins = Some(self.journal.begins());
        out.journal_commits = Some(self.journal.commits());
        out.journal_rollbacks = Some(self.journal.rollbacks());
        // Fixed granularity: every region is one granule.
        out.region_count = Some(self.cfg.data_lines / self.cfg.granularity);
        out.region_size_cached = Some(self.cfg.granularity as f64);
        out.region_size_global = Some(self.cfg.granularity as f64);
    }

    fn op_counts(&self) -> OpCounts {
        OpCounts { exchanges: self.exchanges, reorgs: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sawl_algos::verify::check_permutation;
    use sawl_nvm::NvmConfig;

    fn make(cfg: NwlConfig) -> (Nwl, NvmDevice) {
        let nwl = Nwl::new(cfg);
        let dev = NvmDevice::new(
            NvmConfig::builder()
                .lines(nwl.required_physical_lines())
                .banks(1)
                .endurance(1_000_000)
                .spare_shift(6)
                .build()
                .unwrap(),
        );
        (nwl, dev)
    }

    #[test]
    fn starts_identity_and_translates() {
        let (nwl, _) = make(NwlConfig::default());
        for la in [0u64, 5, 1000, 65535] {
            assert_eq!(nwl.translate(la), la);
        }
    }

    #[test]
    fn misses_then_hits() {
        let (mut nwl, mut dev) = make(NwlConfig::default());
        nwl.write(0, &mut dev);
        assert_eq!(nwl.mapping_stats().misses, 1);
        nwl.write(1, &mut dev); // same 4-line region -> hit
        assert_eq!(nwl.mapping_stats().hits, 1);
        nwl.write(4, &mut dev); // next region -> miss
        assert_eq!(nwl.mapping_stats().misses, 2);
    }

    #[test]
    fn miss_charges_an_imt_read() {
        let (mut nwl, mut dev) = make(NwlConfig::default());
        nwl.write(0, &mut dev);
        assert_eq!(dev.wear().reads, 1); // translation-line fetch
        nwl.write(1, &mut dev);
        assert_eq!(dev.wear().reads, 1); // hit: no extra device read
    }

    #[test]
    fn exchange_rewrites_regions_and_translation_lines() {
        let cfg = NwlConfig { swap_period: 4, ..NwlConfig::default() };
        let (mut nwl, mut dev) = make(cfg);
        // 4 * 4 = 16 writes to region 0 trigger one exchange.
        for _ in 0..16 {
            nwl.write(0, &mut dev);
        }
        assert_eq!(nwl.exchanges(), 1);
        // Overhead: 2 regions * 4 lines + 1-2 translation-line writes.
        let ov = dev.wear().overhead_writes;
        assert!((9..=11).contains(&ov), "overhead {ov}");
        assert_ne!(nwl.translate(0), 0, "region 0 should have moved");
        check_permutation(&nwl, nwl.layout().data_lines);
    }

    #[test]
    fn cmt_stays_coherent_across_exchanges() {
        let cfg = NwlConfig { swap_period: 2, cmt_entries: 64, ..NwlConfig::default() };
        let (mut nwl, mut dev) = make(cfg);
        let mut x = 42u64;
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // resolve_entry debug-asserts CMT == IMT on every hit.
            nwl.write(x % (1 << 16), &mut dev);
        }
        assert!(nwl.exchanges() > 0);
        check_permutation(&nwl, nwl.layout().data_lines);
    }

    #[test]
    fn small_cache_misses_more_than_large() {
        let run = |entries: usize| {
            let cfg = NwlConfig { cmt_entries: entries, ..NwlConfig::default() };
            let (mut nwl, mut dev) = make(cfg);
            let mut x = 7u64;
            for _ in 0..100_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                nwl.write(x % (1 << 14), &mut dev); // 4K regions touched
            }
            nwl.mapping_stats().hit_rate()
        };
        let small = run(64);
        let large = run(8192);
        assert!(large > small + 0.2, "large {large} vs small {small}");
    }

    #[test]
    fn coarser_granularity_raises_hit_rate() {
        // The motivating observation for SAWL: same cache, bigger regions
        // -> more address space covered -> higher hit rate.
        let run = |g: u64| {
            let cfg = NwlConfig { granularity: g, cmt_entries: 256, ..NwlConfig::default() };
            let (mut nwl, mut dev) = make(cfg);
            let mut x = 9u64;
            for _ in 0..100_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                nwl.write(x % (1 << 14), &mut dev);
            }
            nwl.mapping_stats().hit_rate()
        };
        let nwl4 = run(4);
        let nwl64 = run(64);
        assert!(nwl64 > nwl4 + 0.3, "nwl64 {nwl64} vs nwl4 {nwl4}");
    }

    #[test]
    fn reads_count_toward_hit_rate_but_not_wear() {
        let (mut nwl, mut dev) = make(NwlConfig::default());
        nwl.read(0, &mut dev);
        nwl.read(1, &mut dev);
        let s = nwl.mapping_stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(dev.wear().total_writes, 0);
    }

    #[test]
    fn entry_bits_and_cache_sizing() {
        let cfg = NwlConfig { data_lines: 1 << 16, granularity: 4, ..NwlConfig::default() };
        // lrn bits = 14, d bits = 16 -> 30 bits per entry.
        assert_eq!(cfg.entry_bits(), 30);
        let sized = cfg.with_cache_bytes(64 * 1024);
        assert_eq!(sized.cmt_entries, (64 * 1024 * 8 / 30) as usize);
    }

    #[test]
    fn translation_line_wear_is_leveled() {
        // Hammer one region so its translation line is updated over and
        // over; the GTD's refresh must spread that wear.
        let cfg = NwlConfig { swap_period: 1, ..NwlConfig::default() };
        let (mut nwl, mut dev) = make(cfg);
        for _ in 0..200_000 {
            nwl.write(0, &mut dev);
        }
        let base = nwl.layout().translation_base() as usize;
        let t_counts = &dev.write_counts()[base..];
        let touched = t_counts.iter().filter(|&&c| c > 0).count();
        assert!(touched > 16, "translation wear stuck on {touched} lines");
    }
}
