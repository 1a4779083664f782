//! The exchange policy: region-counter bookkeeping, XOR-key rotation and
//! displaced-region exchange (§2.1's PCM-S machinery at SAWL's variable
//! granularity).
//!
//! SAWL "adopts PCM-S in the data-exchange module": after `swap_period × Q`
//! demand writes to a region it is relocated to a uniformly random
//! equal-size block, under a fresh intra-region XOR key, displacing the
//! block's occupants back into the vacated space (2·Q line writes, the
//! PCM-S cost). The counter/threshold machinery and key drawing are shared
//! with the fixed-granularity schemes via
//! [`sawl_algos::exchange`] — this module adds what is specific to SAWL:
//! counters indexed by *region base granule* that must be folded on merge
//! and halved on split, target-block selection that skips blocks owned by
//! larger regions, and the displacement dance against the
//! [mapping tier](crate::mapping).
//!
//! The policy also owns the engine's RNG: every random draw after
//! construction (exchange targets, exchange keys, merge keys) comes from
//! here, keeping the random stream in one place.

use rand::rngs::SmallRng;
use rand::Rng;

use sawl_algos::exchange::{draw_key, SwapCounters};
use sawl_nvm::NvmDevice;
use sawl_tiered::journal::RegionUpdate;

use crate::mapping::TieredMapping;

/// A fully planned exchange: every region-descriptor update it will apply
/// (journal-ready) plus the block geometry the data-movement charges need.
/// The policy keeps one plan and refills it for each exchange, so its
/// update buffer is allocated once.
#[derive(Debug, Clone, Default)]
pub struct ExchangePlan {
    /// Displacement updates for the target block's occupants (empty for a
    /// re-key in place), followed by the moved region's own update — apply
    /// order, and exactly what the engine journals.
    pub updates: Vec<RegionUpdate>,
    /// The region's current physical block index.
    pub my_block: u64,
    /// Chosen target block index (`== my_block` for a re-key in place).
    pub target: u64,
    /// Granules per block at the region's granularity.
    pub nq: u64,
}

/// The concrete PCM-S-style exchange policy over granule-indexed counters.
#[derive(Debug, Clone)]
pub struct RegionExchange {
    /// Demand-write counters indexed by region base granule.
    swaps: SwapCounters,
    rng: SmallRng,
    exchanges: u64,
    /// The latest plan; its buffer is reused by every exchange and merge.
    plan: ExchangePlan,
}

impl RegionExchange {
    /// Counters for `granules` slots with the given writes-per-line
    /// swapping period; `rng` continues the engine's seeded stream.
    pub fn new(granules: u64, swap_period: u64, rng: SmallRng) -> Self {
        Self {
            swaps: SwapCounters::new(granules as usize, swap_period),
            rng,
            exchanges: 0,
            plan: ExchangePlan::default(),
        }
    }

    /// Writes to the region at `base` until the one that triggers its
    /// exchange, inclusive (`region_lines` = the region's current size).
    #[inline]
    pub fn until_trigger(&self, base: u64, region_lines: u64) -> u64 {
        self.swaps.until_trigger(base as usize, region_lines)
    }

    /// Count `k` writes to the region at `base` known not to reach its
    /// exchange threshold (run batching).
    #[inline]
    pub fn note_writes(&mut self, base: u64, k: u64) {
        self.swaps.add(base as usize, k);
    }

    /// Plan the exchange of the region at `base` into the policy's plan
    /// buffer: draw the target block and the fresh key (consuming the same
    /// RNG values, in the same order, as the pre-journal implementation)
    /// and compute every region update the operation will write, without
    /// touching the mapping or the device. [`apply`](Self::apply) carries
    /// the plan out.
    pub fn plan(&mut self, m: &TieredMapping, base: u64) -> &ExchangePlan {
        let e = m.entry(base);
        let nq = m.nq(e);
        let q_log2 = e.q_log2;
        let total_blocks = m.granules() / nq;
        let my_block = e.prn();
        // Find a target block not owned by a larger region (a handful of
        // retries suffices; larger regions are rare).
        let mut target = my_block;
        for _ in 0..16 {
            let t = self.rng.random_range(0..total_blocks);
            if m.occupant_q_log2(t * nq) <= q_log2 {
                target = t;
                break;
            }
        }
        let new_key = draw_key(&mut self.rng, e.q());
        let updates = self.scratch();
        if target != my_block {
            // Displace the target block's occupants into our old block,
            // preserving their offsets within the block.
            m.plan_displacement(target * nq, nq, my_block * nq, updates);
        }
        updates.push(RegionUpdate { base, prn: target, key: new_key, q_log2 });
        self.plan.my_block = my_block;
        self.plan.target = target;
        self.plan.nq = nq;
        &self.plan
    }

    /// The plan's update buffer, emptied: merge plans its updates here
    /// too, so no journaled operation allocates once the buffer has grown.
    pub(crate) fn scratch(&mut self) -> &mut Vec<RegionUpdate> {
        self.plan.updates.clear();
        &mut self.plan.updates
    }

    /// Apply the exchange [`plan`](Self::plan) made last: write the region
    /// updates in plan order and charge the data movement. Device traffic
    /// is identical to the pre-journal single-call implementation.
    pub fn apply(&mut self, m: &mut TieredMapping, dev: &mut NvmDevice) {
        let plan = &self.plan;
        let base = plan.updates.last().expect("plan has the moved region's update").base;
        if plan.target == plan.my_block {
            // Re-key in place: every line of the block is rewritten.
            m.apply_update(&plan.updates[plan.updates.len() - 1], dev);
            m.charge_block(plan.my_block * plan.nq, plan.nq, dev);
        } else {
            for u in &plan.updates {
                m.apply_update(u, dev);
            }
            // Data movement: both blocks fully rewritten.
            m.charge_block(plan.target * plan.nq, plan.nq, dev);
            m.charge_block(plan.my_block * plan.nq, plan.nq, dev);
        }
        self.swaps.reset(base as usize);
        self.exchanges += 1;
    }

    /// Crash recovery: the demand-write counters live in volatile SRAM, so
    /// every region restarts its swapping-period cadence from zero.
    pub fn reset_after_crash(&mut self) {
        self.swaps.clear();
    }

    /// Checkpoint the policy: counters, the engine's RNG stream and the
    /// exchange tally. Unlike crash recovery, resume keeps the counters so
    /// the swapping cadence continues exactly.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        self.swaps.ckpt_save(w);
        w.put_rng(self.rng.state());
        w.put_u64(self.exchanges);
    }

    /// Restore state saved by [`ckpt_save`](Self::ckpt_save) into a policy
    /// built from the same spec.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        self.swaps.ckpt_restore(r)?;
        self.rng = SmallRng::from_state(r.get_rng()?);
        self.exchanges = r.get_u64()?;
        Ok(())
    }

    /// Count one demand write to the region at `base` (of `region_lines`
    /// lines); `true` when the region is due for an exchange.
    #[inline]
    pub fn record_write(&mut self, base: u64, region_lines: u64) -> bool {
        self.swaps.record_write(base as usize, region_lines)
    }

    /// Relocate the region at `base` to a random equal-size block,
    /// displacing that block's occupants into the vacated space.
    pub fn exchange(&mut self, m: &mut TieredMapping, base: u64, dev: &mut NvmDevice) {
        self.plan(m, base);
        self.apply(m, dev);
    }

    /// Draw a fresh XOR key for a region of `region_lines` lines (used by
    /// the engine when a merge re-keys the combined region).
    #[inline]
    pub fn draw_region_key(&mut self, region_lines: u64) -> u64 {
        draw_key(&mut self.rng, region_lines)
    }

    /// Fold the two merging regions' counters into the merged base.
    pub fn on_merge(&mut self, base: u64, buddy: u64, new_base: u64) {
        self.swaps.fold_into(base as usize, buddy as usize, new_base as usize);
    }

    /// Halve the splitting region's counter across its children.
    pub fn on_split(&mut self, base: u64, half: u64) {
        self.swaps.halve_into(base as usize, half as usize);
    }

    /// Exchanges performed so far.
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sawl_nvm::NvmConfig;

    use crate::config::SawlConfig;

    fn make() -> (TieredMapping, RegionExchange, NvmDevice) {
        let cfg = SawlConfig {
            data_lines: 1 << 10,
            initial_granularity: 4,
            cmt_entries: 16,
            swap_period: 4,
            ..Default::default()
        };
        let m = TieredMapping::new(&cfg, 0xBEEF);
        let x = RegionExchange::new(m.granules(), cfg.swap_period, SmallRng::seed_from_u64(42));
        let dev = NvmDevice::new(
            NvmConfig::builder()
                .lines(m.required_physical_lines())
                .banks(1)
                .endurance(u32::MAX)
                .spare_shift(6)
                .build()
                .unwrap(),
        );
        (m, x, dev)
    }

    #[test]
    fn record_write_fires_at_period_times_q() {
        let (_, mut x, _) = make();
        for _ in 0..15 {
            assert!(!x.record_write(0, 4));
        }
        assert!(x.record_write(0, 4), "threshold is swap_period * Q = 16");
    }

    #[test]
    fn exchange_relocates_and_keeps_mapping_consistent() {
        let (mut m, mut x, mut dev) = make();
        x.exchange(&mut m, 0, &mut dev);
        assert_eq!(x.exchanges(), 1);
        let _ = m.check_consistency();
        // Cost: the region's block plus (usually) the displaced partner's.
        assert!(dev.wear().overhead_writes >= 4, "exchange must rewrite data lines");
    }

    #[test]
    fn counters_survive_merge_and_split_transitions() {
        let (_, mut x, _) = make();
        for _ in 0..10 {
            x.record_write(0, 4);
        }
        for _ in 0..6 {
            x.record_write(1, 4);
        }
        x.on_merge(0, 1, 0);
        // 16 accumulated writes on the merged slot: the very next write at
        // the doubled granularity (Q=8, threshold 32) keeps counting from
        // there rather than restarting.
        for _ in 0..15 {
            assert!(!x.record_write(0, 8));
        }
        assert!(x.record_write(0, 8));
        // A split shares the 32 accumulated writes between the children:
        // each inherits 16, so at Q=4 (threshold 16) the next write to
        // either child fires immediately.
        x.on_split(0, 1);
        assert!(x.record_write(0, 4));
        assert!(x.record_write(1, 4));
    }

    #[test]
    fn repeated_exchanges_stay_consistent() {
        let (mut m, mut x, mut dev) = make();
        for base in [0u64, 8, 16, 0, 32, 8] {
            x.exchange(&mut m, base, &mut dev);
        }
        assert_eq!(x.exchanges(), 6);
        let _ = m.check_consistency();
    }
}
