//! The SAWL wear-leveling engine: a thin composition of three subsystems.
//!
//! * [mapping tier](crate::mapping) — CMT/GTD/IMT traversal, the owner
//!   inverse map, translation-line writes ([`TieredMapping`]).
//! * [adaptation controller](crate::adapt) — hit-rate monitoring,
//!   LRU-stack sampling, lazy merge/split target decisions
//!   ([`HitRateAdaptation`]).
//! * [exchange policy](crate::exchange) — region write counters, XOR-key
//!   rotation, displaced-region exchange ([`RegionExchange`]).
//!
//! The engine itself owns only the *orchestration* the paper's §3.2
//! operations need across subsystem boundaries:
//!
//! * **translate** — Fig. 11's seven steps, delegated to the mapping tier.
//! * **exchange** — wear-triggered relocation, delegated to the policy.
//! * **merge** — a region and its logical buddy combine into the naturally
//!   aligned 2Q block containing the region's current location; the
//!   block's other half is evacuated to the buddy's old space. Costs up to
//!   3·Q line writes plus the IMT updates. The buddy-leveling recursion
//!   and cost charging live here because they span mapping + policy.
//! * **split** — pure metadata: the XOR mapping guarantees each half of a
//!   region is already contiguous in physical space; the new `prn` is the
//!   old one extended by the key's MSB and the new key is the key's low
//!   bits. Zero data-line writes (asserted in tests).
//!
//! Under `debug_assertions`, every merge, split and exchange is followed
//! by a full invariant check ([`Sawl::check_invariants`]) on test-sized
//! tables (the check is O(data lines), so above 2^16 lines it runs on an
//! amortized 1-in-1024 event schedule instead).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use sawl_algos::{OpCounts, Recovery, WearLeveler};
use sawl_nvm::{La, NvmDevice, Pa, WriteOutcome};
use sawl_telemetry::{Event, EventKind, EventRing, SchemeSample};
use sawl_tiered::cmt::Cmt;
use sawl_tiered::imt::ImtEntry;
use sawl_tiered::journal::{Journal, OpKind, RegionUpdate};
use sawl_tiered::layout::TieredLayout;

use crate::adapt::{AdaptAction, HitRateAdaptation};
use crate::config::{ConfigError, SawlConfig};
use crate::exchange::RegionExchange;
use crate::history::History;
use crate::mapping::TieredMapping;

/// Aggregate statistics of a SAWL run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SawlStats {
    /// Region exchanges (PCM-S relocations) performed.
    pub exchanges: u64,
    /// Region-merge operations performed.
    pub merges: u64,
    /// Region-split operations performed.
    pub splits: u64,
    /// Monitor decisions that triggered a merge pass.
    pub merge_decisions: u64,
    /// Monitor decisions that triggered a split pass.
    pub split_decisions: u64,
    /// Current number of regions in the memory.
    pub region_count: u64,
    /// CMT hits / misses over the whole run.
    pub hits: u64,
    /// CMT misses over the whole run.
    pub misses: u64,
}

impl SawlStats {
    /// Whole-run CMT hit rate.
    pub fn hit_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }
}

/// The self-adaptive wear leveler.
#[derive(Debug, Clone)]
pub struct Sawl {
    cfg: SawlConfig,
    mapping: TieredMapping,
    adapt: HitRateAdaptation,
    xchg: RegionExchange,
    journal: Journal,
    merges: u64,
    splits: u64,
    region_count: u64,
    /// Telemetry event ring; `None` (one predictable branch per event)
    /// unless enabled through [`WearLeveler::telemetry_events_enable`].
    events: Option<Box<EventRing>>,
    #[cfg(debug_assertions)]
    debug_events: u64,
}

impl Sawl {
    /// Build an engine; the device must provide
    /// [`Sawl::required_physical_lines`] lines. Panics on an invalid
    /// configuration — use [`Sawl::try_new`] for a typed error.
    pub fn new(cfg: SawlConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid SAWL config: {e}"))
    }

    /// Build an engine, surfacing configuration defects as a
    /// [`ConfigError`] instead of panicking.
    pub fn try_new(cfg: SawlConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let gtd_seed: u64 = rng.random();
        let mapping = TieredMapping::new(&cfg, gtd_seed);
        let granules = mapping.granules();
        Ok(Self {
            adapt: HitRateAdaptation::new(&cfg),
            xchg: RegionExchange::new(granules, cfg.swap_period, rng),
            journal: Journal::new(),
            merges: 0,
            splits: 0,
            region_count: granules,
            events: None,
            #[cfg(debug_assertions)]
            debug_events: 0,
            mapping,
            cfg,
        })
    }

    /// Physical lines the device must provide.
    pub fn required_physical_lines(&self) -> u64 {
        self.mapping.required_physical_lines()
    }

    /// The configuration.
    pub fn config(&self) -> &SawlConfig {
        &self.cfg
    }

    /// Run statistics (exchanges/merges/splits/hits/...).
    pub fn stats(&self) -> SawlStats {
        let (merge_decisions, split_decisions) = self.adapt.decisions();
        SawlStats {
            exchanges: self.xchg.exchanges(),
            merges: self.merges,
            splits: self.splits,
            merge_decisions,
            split_decisions,
            region_count: self.region_count,
            hits: self.mapping.cmt().hits(),
            misses: self.mapping.cmt().misses(),
        }
    }

    /// Recorded time series (one point per monitor sample).
    pub fn history(&self) -> &History {
        self.adapt.history()
    }

    /// The CMT (for inspection in tests and the timing model).
    pub fn cmt(&self) -> &Cmt<ImtEntry> {
        self.mapping.cmt()
    }

    /// The physical layout.
    pub fn layout(&self) -> TieredLayout {
        self.mapping.layout()
    }

    /// Authoritative IMT entry covering `granule` (test/probe support).
    pub fn entry(&self, granule: u64) -> ImtEntry {
        self.mapping.entry(granule)
    }

    /// Base granule of the region covering `granule`.
    pub fn region_base(&self, granule: u64) -> u64 {
        self.mapping.base_of(granule, self.mapping.entry(granule))
    }

    /// Mean region size in lines over currently cached entries (what the
    /// running workload experiences; Figs. 13–14's "Region size" axis).
    pub fn cached_region_size(&self) -> f64 {
        self.mapping.cached_region_size()
    }

    /// The granularity (in lines) the monitor currently targets; regions
    /// converge to it lazily as they are accessed.
    pub fn target_granularity(&self) -> u64 {
        1 << self.adapt.target_q_log2()
    }

    /// Force the target granularity level (log2 lines). Test and ablation
    /// support: regions then converge lazily exactly as after monitor
    /// decisions.
    pub fn set_target_q_log2(&mut self, q_log2: u8) {
        self.adapt.set_target_q_log2(q_log2);
    }

    /// Mean region size in lines over the whole memory.
    pub fn global_region_size(&self) -> f64 {
        self.cfg.data_lines as f64 / self.region_count as f64
    }

    /// Histogram of current region sizes across the whole memory: one
    /// count per granularity level, index = log2(Q). O(granules).
    pub fn region_size_histogram(&self) -> Vec<(u64, u64)> {
        self.mapping.region_size_histogram(self.cfg.max_granularity)
    }

    /// Resolve the mapping entry covering `lrn_granule` through the CMT,
    /// then lazily adapt the touched region one level toward the
    /// controller's target granularity (§3.2: one level per access bounds
    /// the latency a single request can suffer; hot regions converge in a
    /// few touches, cold regions never pay).
    fn resolve(&mut self, lrn_granule: u64, dev: &mut NvmDevice) -> ImtEntry {
        let auth = self.mapping.resolve_cached(lrn_granule, dev);
        let moved = match self.adapt.action_for(auth.q_log2) {
            Some(AdaptAction::Merge) => self.merge(self.mapping.base_of(lrn_granule, auth), dev),
            Some(AdaptAction::Split) => self.split(self.mapping.base_of(lrn_granule, auth), dev),
            None => false,
        };
        if moved {
            self.mapping.entry(lrn_granule)
        } else {
            auth
        }
    }

    // ---- wear-leveling operations --------------------------------------

    /// PCM-S exchange: relocate the region at `base` to a random
    /// equal-size block. Journaled: the full set of region updates is made
    /// durable before the first NVM write, so a power loss mid-exchange is
    /// rolled forward by [`Sawl::recover`].
    pub fn exchange(&mut self, base: u64, dev: &mut NvmDevice) {
        if dev.power_lost() {
            return;
        }
        let plan = self.xchg.plan(&self.mapping, base);
        self.journal.begin(OpKind::Exchange, &plan.updates);
        self.xchg.apply(&mut self.mapping, dev);
        if dev.power_lost() {
            // The journal record stays pending; recovery finishes the op.
            return;
        }
        self.journal.commit();
        self.push_event(EventKind::Exchange { base });
        self.debug_check_invariants();
    }

    /// §3.2 region-merge of the region at `base` with its logical buddy.
    /// Returns `false` when the pair is not mergeable (size cap reached).
    pub fn merge(&mut self, base: u64, dev: &mut NvmDevice) -> bool {
        if dev.power_lost() {
            return false;
        }
        let e = self.mapping.entry(base);
        if e.q() >= self.cfg.max_granularity {
            return false;
        }
        let nq = self.mapping.nq(e);
        let buddy = base ^ nq;
        // A buddy can never be *larger*: a larger region is aligned to its
        // own size and would cover `base` too, contradicting `base`'s entry.
        // It can be smaller when earlier merges were applied unevenly; in
        // that case level the buddy up first by merging its pieces ("SAWL
        // chooses the closest non-merged logical location ... and merges
        // them", §3.2), then merge the equal-size pair.
        loop {
            let eb = self.mapping.entry(buddy);
            debug_assert!(eb.q_log2 <= e.q_log2, "oversized buddy at {buddy}");
            if eb.q_log2 == e.q_log2 {
                break;
            }
            if !self.merge(self.mapping.base_of(buddy, eb), dev) {
                return false;
            }
        }
        // Re-fetch both entries: the buddy-leveling merges above may have
        // physically relocated this region while evacuating target blocks.
        let e = self.mapping.entry(base);
        let eb = self.mapping.entry(buddy);
        debug_assert_eq!(self.mapping.base_of(buddy, eb), buddy);

        let new_q_log2 = e.q_log2 + 1;
        let my_block = e.prn(); // Q-sized block index
        let other_half = my_block ^ 1;
        let target2q = my_block >> 1; // 2Q-sized block index
        let b_block = eb.prn();
        let new_base = base & !(2 * nq - 1);
        let new_key = self.xchg.draw_region_key(e.q() * 2);

        // Journal the whole operation — evacuation updates plus the merged
        // region's descriptor — before its first NVM write. The updates
        // are planned in the exchange policy's reused buffer.
        let updates = self.xchg.scratch();
        if b_block != other_half {
            self.mapping.plan_displacement(other_half * nq, nq, b_block * nq, updates);
        }
        updates.push(RegionUpdate {
            base: new_base,
            prn: target2q,
            key: new_key,
            q_log2: new_q_log2,
        });
        self.journal.begin(OpKind::Merge, &*updates);
        self.merges += 1;

        if b_block != other_half {
            // Evacuate the other half of the target into B's old block;
            // the evacuated data lands there: Q line writes.
            for u in &updates[..updates.len() - 1] {
                self.mapping.apply_update(u, dev);
            }
            self.mapping.charge_block(b_block * nq, nq, dev);
        }
        // Stale CMT entries for the two halves disappear; the merged entry
        // is inserted fresh (merges are triggered for cached regions).
        self.mapping.cache_remove(base);
        self.mapping.cache_remove(buddy);
        self.mapping.apply_update(&updates[updates.len() - 1], dev);
        self.mapping.cache_insert_current(new_base);
        // The merged region's 2Q lines are rewritten under the new key.
        self.mapping.charge_block(target2q * 2 * nq, 2 * nq, dev);
        if dev.power_lost() {
            // The journal record stays pending; recovery finishes the merge.
            return false;
        }
        self.journal.commit();
        self.xchg.on_merge(base, buddy, new_base);
        self.region_count -= 1;
        self.push_event(EventKind::Merge { base: new_base });
        self.debug_check_invariants();
        true
    }

    /// §3.2 region-split of the region at `base` into two halves. Pure
    /// metadata: zero data-line writes (the tests assert this). Returns
    /// `false` at the minimum granularity.
    pub fn split(&mut self, base: u64, dev: &mut NvmDevice) -> bool {
        if dev.power_lost() {
            return false;
        }
        let e = self.mapping.entry(base);
        if u32::from(e.q_log2) <= self.mapping.p_log2() {
            return false;
        }
        let nq = self.mapping.nq(e);
        let half = nq / 2;
        let key = e.key();
        let k_msb = key >> (e.q_log2 - 1);
        let k_low = key & ((e.q() / 2) - 1);
        let child_q = e.q_log2 - 1;
        // "The new physical address of the sub-regions is obtained by the
        // region address XORing with the MSB of the offset parameter" — in
        // D-packing terms each child prn extends the parent prn by
        // (h ^ key MSB). Journaled before the first translation-line write.
        let updates: [RegionUpdate; 2] = std::array::from_fn(|h| {
            let h = h as u64;
            RegionUpdate {
                base: base + h * half,
                prn: (e.prn() << 1) | (h ^ k_msb),
                key: k_low,
                q_log2: child_q,
            }
        });
        self.journal.begin(OpKind::Split, updates);
        self.splits += 1;
        self.mapping.cache_remove(base);
        for u in &updates {
            self.mapping.apply_update(u, dev);
            self.mapping.cache_insert_current(u.base);
        }
        if dev.power_lost() {
            // The journal record stays pending; recovery finishes the split.
            return false;
        }
        self.journal.commit();
        self.xchg.on_split(base, base + half);
        self.region_count += 1;
        self.push_event(EventKind::Split { base });
        self.debug_check_invariants();
        true
    }

    // ---- request path ---------------------------------------------------

    /// Advance the adaptation controller after each request; it samples
    /// the CMT and adjusts the target granularity when due (regions follow
    /// lazily, on access).
    fn tick(&mut self) {
        if self.adapt.begin_request() {
            let cached = self.mapping.cached_region_size();
            let global = self.global_region_size();
            let before = self.adapt.target_q_log2();
            self.adapt.on_sample(self.mapping.cmt(), cached, global);
            if self.events.is_some() {
                let after = self.adapt.target_q_log2();
                if after > before {
                    self.push_event(EventKind::TargetUp { q_log2: after });
                } else if after < before {
                    self.push_event(EventKind::TargetDown { q_log2: after });
                }
            }
        }
    }

    /// Append to the telemetry event ring (no-op unless enabled), stamped
    /// with the adaptation request clock.
    #[inline]
    fn push_event(&mut self, kind: EventKind) {
        if let Some(ring) = self.events.as_deref_mut() {
            ring.push(Event { requests: self.adapt.requests(), kind });
        }
    }

    // ---- crash recovery -------------------------------------------------

    /// Post-power-loss recovery: restore device power, resolve the
    /// interrupted operation (if the crash hit one mid-flight) and rebuild
    /// every volatile structure from the durable IMT + journal.
    ///
    /// * **Roll forward** when any journaled region update already landed:
    ///   replay every update (idempotent) and recharge the operation's
    ///   data movement — the recovered controller cannot know which lines
    ///   were rewritten before the crash, so it conservatively rewrites the
    ///   full footprint (splits are pure metadata and recharge nothing).
    /// * **Roll back** when nothing landed: the old mapping is intact and
    ///   the record is discarded.
    ///
    /// Then the owner map and region count are rebuilt by walking the IMT,
    /// the CMT is cleared (on-chip SRAM), the exchange counters restart and
    /// the monitor's observation window empties. Another power loss during
    /// replay leaves the journal pending and returns
    /// [`Recovery::complete`]` == false`; calling `recover` again resumes.
    pub fn recover(&mut self, dev: &mut NvmDevice) -> Recovery {
        dev.restore_power();
        let mut rec = Recovery::CLEAN;
        if let Some(pending) = self.journal.pending() {
            let kind = pending.kind;
            let updates = pending.updates.clone();
            if updates.iter().any(|u| self.mapping.update_landed(u)) {
                self.journal.note_replay();
                rec.replayed = true;
                let p_log2 = self.mapping.p_log2();
                for u in &updates {
                    self.mapping.apply_update(u, dev);
                    if kind != OpKind::Split {
                        let nq = 1u64 << (u32::from(u.q_log2) - p_log2);
                        self.mapping.charge_block(u.prn * nq, nq, dev);
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
        self.region_count = self.mapping.rebuild_after_crash();
        self.xchg.reset_after_crash();
        self.adapt.reset_after_crash();
        rec
    }

    /// The mapping-update journal (commit/replay/rollback counters).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    // ---- checkpoint / resume -------------------------------------------

    /// Checkpoint every piece of mutable engine state: the mapping tier
    /// (IMT, CMT, GTD), the adaptation controller (window, history,
    /// target), the exchange policy (counters + RNG), the journal, the
    /// merge/split tallies and the telemetry event ring. Restoring into a
    /// twin built from the same config resumes the run byte-identically —
    /// unlike [`Sawl::recover`], which deliberately restarts the volatile
    /// structures cold after a power loss.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        self.mapping.ckpt_save(w);
        self.adapt.ckpt_save(w);
        self.xchg.ckpt_save(w);
        self.journal.ckpt_save(w);
        w.put_u64(self.merges);
        w.put_u64(self.splits);
        match self.events.as_deref() {
            None => w.put_bool(false),
            Some(ring) => {
                w.put_bool(true);
                ring.ckpt_save(w);
            }
        }
    }

    /// Restore state saved by [`Sawl::ckpt_save`] into an engine built
    /// from the same config. The region count is recomputed from the
    /// restored IMT while the owner map is rebuilt.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        self.region_count = self.mapping.ckpt_restore(r)?;
        self.adapt.ckpt_restore(r)?;
        self.xchg.ckpt_restore(r)?;
        self.journal.ckpt_restore(r)?;
        self.merges = r.get_u64()?;
        self.splits = r.get_u64()?;
        self.events = if r.get_bool()? { Some(Box::new(EventRing::ckpt_load(r)?)) } else { None };
        Ok(())
    }

    /// Verify internal invariants: region alignment/identical-entry runs,
    /// owner-map consistency and injective translation. O(data lines);
    /// runs after every merge/split/exchange under `debug_assertions`.
    pub fn check_invariants(&self) {
        let regions = self.mapping.check_consistency();
        assert_eq!(regions, self.region_count, "region count drifted");
    }

    #[inline]
    fn debug_check_invariants(&mut self) {
        #[cfg(debug_assertions)]
        {
            // The full check is O(data lines): affordable after every
            // event on test-sized tables, amortized on production-scale
            // ones so debug integration runs stay usable.
            self.debug_events += 1;
            if self.cfg.data_lines <= (1 << 16) || self.debug_events.is_multiple_of(1024) {
                self.check_invariants();
            }
        }
    }
}

impl WearLeveler for Sawl {
    fn name(&self) -> &'static str {
        "sawl"
    }

    fn logical_lines(&self) -> u64 {
        self.cfg.data_lines
    }

    #[inline]
    fn translate(&self, la: La) -> Pa {
        self.mapping.translate(la)
    }

    fn write(&mut self, la: La, dev: &mut NvmDevice) -> Pa {
        let g = la >> self.mapping.p_log2();
        let e = self.resolve(g, dev);
        let pa = e.translate(la);
        if dev.write(pa) == WriteOutcome::PowerLost {
            // A dropped write is not a write: neither the exchange trigger
            // nor the monitor's request count may move.
            return pa;
        }
        let base = self.mapping.base_of(g, e);
        if self.xchg.record_write(base, e.q()) {
            self.exchange(base, dev);
        }
        self.tick();
        pa
    }

    fn read(&mut self, la: La, dev: &mut NvmDevice) -> Pa {
        let g = la >> self.mapping.p_log2();
        let e = self.resolve(g, dev);
        let pa = e.translate(la);
        dev.read(pa);
        self.tick();
        pa
    }

    fn quiet_writes(&self, la: La) -> u64 {
        // Quiet requires a settled (non-adapting) region whose front entry
        // is cached — otherwise the next write takes a lazy merge/split or
        // a CMT miss (GTD read + insert) — and ends strictly before the
        // nearer of the exchange trigger and the monitor's sample boundary
        // (a sample can decide a merge/split).
        let g = la >> self.mapping.p_log2();
        let e = self.mapping.entry(g);
        if self.adapt.action_for(e.q_log2).is_some() {
            return 0;
        }
        let base = self.mapping.base_of(g, e);
        if self.mapping.cmt().peek(base).is_none() {
            return 0;
        }
        self.xchg.until_trigger(base, e.q()).min(self.adapt.until_sample()) - 1
    }

    fn note_quiet(&mut self, la: La, k: u64) {
        // Each quiet write is one exchange-counter tick, one repeat hit on
        // the region's front CMT entry and one monitor request.
        let g = la >> self.mapping.p_log2();
        let base = self.mapping.base_of(g, self.mapping.entry(g));
        self.xchg.note_writes(base, k);
        self.mapping.record_repeat_hits(base, k);
        self.adapt.note_requests(k);
    }

    fn recover(&mut self, dev: &mut NvmDevice) -> Recovery {
        Sawl::recover(self, dev)
    }

    fn onchip_bits(&self) -> u64 {
        self.mapping.onchip_bits(self.cfg.entry_bits())
    }

    fn telemetry_sample(&self, out: &mut SchemeSample) {
        let cmt = self.mapping.cmt();
        out.cmt_hits = Some(cmt.hits());
        out.cmt_misses = Some(cmt.misses());
        out.cmt_hits_first_half = Some(cmt.hits_first_half());
        out.cmt_hits_second_half = Some(cmt.hits_second_half());
        // Same fallback the engine's own History uses before a full
        // observation window accumulates.
        out.windowed_hit_rate = Some(self.adapt.windowed_hit_rate().unwrap_or(0.0));
        out.merges = Some(self.merges);
        out.splits = Some(self.splits);
        out.exchanges = Some(self.xchg.exchanges());
        out.journal_begins = Some(self.journal.begins());
        out.journal_commits = Some(self.journal.commits());
        out.journal_rollbacks = Some(self.journal.rollbacks());
        out.region_count = Some(self.region_count);
        out.region_size_cached = Some(self.mapping.cached_region_size());
        out.region_size_global = Some(self.global_region_size());
    }

    fn telemetry_events_enable(&mut self, capacity: usize) {
        self.events = Some(Box::new(EventRing::new(capacity)));
    }

    fn op_counts(&self) -> OpCounts {
        OpCounts { exchanges: self.xchg.exchanges(), reorgs: self.merges + self.splits }
    }

    fn telemetry_events_take(&mut self) -> Option<(Vec<Event>, u64)> {
        self.events.take().map(|ring| ring.into_parts())
    }
}
