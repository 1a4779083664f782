//! The adaptation controller: hit-rate monitoring, LRU-stack sampling and
//! lazy merge/split target decisions (§3.2, §4.2).
//!
//! SAWL measures the runtime cache hit rate "by calculating the percentage
//! of memory access requests that hit the cache out of a certain total
//! number of requests observed" — the **observation window** (SOW). The
//! rate is sampled every 100 000 requests. Before acting on a low/high
//! rate, SAWL "waits for a certain number of requests to ensure that the
//! cache hit rate ... is sufficiently stable" — the **settling window**
//! (SSW). §4.2 trains both to 2^22 requests.
//!
//! Two layers live here:
//!
//! * [`HitRateMonitor`] — a pure state machine over `(hit, split-counter)`
//!   inputs, independent of the engine, so its windowing logic is directly
//!   unit tested and reusable by the NWL ablations.
//! * [`HitRateAdaptation`] — the engine-facing controller. It counts
//!   requests, samples the CMT's LRU-stack hit counters (first/second
//!   half) on the monitor's cadence, records the [`History`] time series,
//!   and turns monitor decisions into movements of the **target
//!   granularity**. Regions converge to the target *lazily*, on access
//!   (§3.2's lazy merging and splitting): the controller only answers
//!   "what should this region do next?" via
//!   [`HitRateAdaptation::action_for`]; the engine performs the
//!   operation.

use serde::{Deserialize, Serialize};

use sawl_tiered::cmt::Cmt;
use sawl_tiered::imt::ImtEntry;

use crate::config::SawlConfig;
use crate::history::{History, Sample};

/// Granularity decision emitted by the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// Keep the current granularity.
    Hold,
    /// Merge cached regions (hit rate persistently low).
    Merge,
    /// Split cached regions (hit rate persistently high and hits
    /// concentrated per the §3.2 sub-queue rule).
    Split,
}

/// Per-sample inputs the controller feeds the monitor.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonitorInputs {
    /// Hits in the first (MRU) half of the CMT since the last sample.
    pub hits_first_half: u64,
    /// Hits in the second half since the last sample.
    pub hits_second_half: u64,
    /// Misses since the last sample.
    pub misses: u64,
}

impl MonitorInputs {
    fn total(&self) -> u64 {
        self.hits_first_half + self.hits_second_half + self.misses
    }

    fn hits(&self) -> u64 {
        self.hits_first_half + self.hits_second_half
    }
}

/// One block of the observation-window ring buffer.
#[derive(Debug, Clone, Copy, Default)]
struct Block {
    hits: u64,
    total: u64,
    hits_first: u64,
    hits_second: u64,
}

/// Windowed hit-rate monitor with settling.
#[derive(Debug, Clone)]
pub struct HitRateMonitor {
    sample_interval: u64,
    /// Ring of per-sample blocks covering the observation window.
    ring: Vec<Block>,
    ring_pos: usize,
    filled: usize,
    /// Running sums over the ring.
    sum_hits: u64,
    sum_total: u64,
    sum_first: u64,
    sum_second: u64,
    merge_threshold: f64,
    split_threshold: f64,
    subqueue_split_threshold: f64,
    first_half_dominance: f64,
    /// Samples the condition must persist before acting.
    settle_samples: u64,
    below_streak: u64,
    above_streak: u64,
    /// Cool-down after an action, in samples.
    cooldown: u64,
}

impl HitRateMonitor {
    /// Build from a [`SawlConfig`].
    pub fn new(cfg: &SawlConfig) -> Self {
        let blocks = (cfg.observation_window / cfg.sample_interval).max(1) as usize;
        let settle_samples = (cfg.settling_window / cfg.sample_interval).max(1);
        Self {
            sample_interval: cfg.sample_interval,
            ring: vec![Block::default(); blocks],
            ring_pos: 0,
            filled: 0,
            sum_hits: 0,
            sum_total: 0,
            sum_first: 0,
            sum_second: 0,
            merge_threshold: cfg.merge_threshold,
            split_threshold: cfg.split_threshold,
            subqueue_split_threshold: cfg.subqueue_split_threshold,
            first_half_dominance: cfg.first_half_dominance,
            settle_samples,
            below_streak: 0,
            above_streak: 0,
            cooldown: 0,
        }
    }

    /// Requests per sample.
    pub fn sample_interval(&self) -> u64 {
        self.sample_interval
    }

    /// Hit rate over the observation window (`None` until the first sample).
    pub fn windowed_hit_rate(&self) -> Option<f64> {
        if self.sum_total == 0 {
            None
        } else {
            Some(self.sum_hits as f64 / self.sum_total as f64)
        }
    }

    /// Feed one sample block (covering `sample_interval` requests) and get
    /// the decision for this instant.
    pub fn on_sample(&mut self, inputs: MonitorInputs) -> Decision {
        // Rotate the ring: subtract the expiring block, add the new one.
        let slot = &mut self.ring[self.ring_pos];
        self.sum_hits -= slot.hits;
        self.sum_total -= slot.total;
        self.sum_first -= slot.hits_first;
        self.sum_second -= slot.hits_second;
        *slot = Block {
            hits: inputs.hits(),
            total: inputs.total(),
            hits_first: inputs.hits_first_half,
            hits_second: inputs.hits_second_half,
        };
        self.sum_hits += slot.hits;
        self.sum_total += slot.total;
        self.sum_first += slot.hits_first;
        self.sum_second += slot.hits_second;
        self.ring_pos = (self.ring_pos + 1) % self.ring.len();
        self.filled = (self.filled + 1).min(self.ring.len());

        if self.cooldown > 0 {
            self.cooldown -= 1;
            self.below_streak = 0;
            self.above_streak = 0;
            return Decision::Hold;
        }
        // Wait until the observation window is at least half full so the
        // windowed rate is meaningful.
        if self.filled < self.ring.len() / 2 + 1 || self.sum_total == 0 {
            return Decision::Hold;
        }
        let rate = self.sum_hits as f64 / self.sum_total as f64;

        if rate < self.merge_threshold {
            self.below_streak += 1;
            self.above_streak = 0;
            if self.below_streak >= self.settle_samples {
                self.action_taken();
                return Decision::Merge;
            }
        } else if rate > self.split_threshold && self.split_imbalance() {
            self.above_streak += 1;
            self.below_streak = 0;
            if self.above_streak >= self.settle_samples {
                self.action_taken();
                return Decision::Split;
            }
        } else {
            self.below_streak = 0;
            self.above_streak = 0;
        }
        Decision::Hold
    }

    /// §3.2's split criterion: "if the hit ratio of the first queue OR the
    /// hit ratio of the second queue >= 99%" — i.e. one half of the LRU
    /// stack alone serves ≥99% of all lookups — "the NVM system splits the
    /// region for endurance, thus avoiding the decrease of cache hit rate
    /// after region-split completes"; or the first half dominates the hits
    /// so thoroughly that the second half is dead weight. Both conditions
    /// guarantee the post-split halved coverage still holds the working
    /// set, which is what keeps SAWL from thrashing at the coverage
    /// boundary (a workload that *needs* the whole stack spreads its hits
    /// and never satisfies either).
    fn split_imbalance(&self) -> bool {
        let hits = self.sum_first + self.sum_second;
        if hits == 0 {
            return false;
        }
        let first_frac = self.sum_first as f64 / hits as f64;
        let first_ratio = self.sum_first as f64 / self.sum_total as f64;
        let second_ratio = self.sum_second as f64 / self.sum_total as f64;
        first_frac >= self.first_half_dominance
            || first_ratio >= self.subqueue_split_threshold
            || second_ratio >= self.subqueue_split_threshold
    }

    /// Crash recovery: the ring buffer, settling streaks and cooldown live
    /// in volatile SRAM, so the monitor restarts with an empty observation
    /// window (it holds again until the window half-fills, exactly as at
    /// boot).
    pub fn reset_window(&mut self) {
        self.ring.fill(Block::default());
        self.ring_pos = 0;
        self.filled = 0;
        self.sum_hits = 0;
        self.sum_total = 0;
        self.sum_first = 0;
        self.sum_second = 0;
        self.below_streak = 0;
        self.above_streak = 0;
        self.cooldown = 0;
    }

    /// Cancel the post-action cooldown. The controller calls this when a
    /// decision turned out to be a no-op (e.g. a split requested while
    /// every cached region already sits at the minimum granularity), so a
    /// fruitless decision does not stall real adaptation for a settling
    /// window.
    pub fn cancel_cooldown(&mut self) {
        self.cooldown = 0;
    }

    fn action_taken(&mut self) {
        self.below_streak = 0;
        self.above_streak = 0;
        // After acting, hold for a settling window so the effect of the
        // adjustment is observed before the next one.
        self.cooldown = self.settle_samples;
    }

    /// Checkpoint the observation window: every ring block, the rotation
    /// cursor and the settling/cooldown state. The running sums are
    /// derived and recomputed on restore. Thresholds and window sizes are
    /// configuration, rebuilt from the spec.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_u64(self.ring.len() as u64);
        for b in &self.ring {
            w.put_u64(b.hits);
            w.put_u64(b.total);
            w.put_u64(b.hits_first);
            w.put_u64(b.hits_second);
        }
        w.put_u64(self.ring_pos as u64);
        w.put_u64(self.filled as u64);
        w.put_u64(self.below_streak);
        w.put_u64(self.above_streak);
        w.put_u64(self.cooldown);
    }

    /// Restore a window saved by [`ckpt_save`](Self::ckpt_save) into a
    /// monitor built from the same spec.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        use sawl_ckpt::CkptError;
        let blocks = r.get_u64()?;
        if blocks != self.ring.len() as u64 {
            return Err(CkptError::Corrupt(format!(
                "monitor: {blocks} window blocks in checkpoint, {} in instance",
                self.ring.len()
            )));
        }
        let mut sums = (0u64, 0u64, 0u64, 0u64);
        for slot in &mut self.ring {
            let hits = r.get_u64()?;
            let total = r.get_u64()?;
            let hits_first = r.get_u64()?;
            let hits_second = r.get_u64()?;
            if hits > total || hits_first + hits_second != hits {
                return Err(CkptError::Corrupt("monitor: inconsistent window block".into()));
            }
            *slot = Block { hits, total, hits_first, hits_second };
            sums.0 += hits;
            sums.1 += total;
            sums.2 += hits_first;
            sums.3 += hits_second;
        }
        (self.sum_hits, self.sum_total, self.sum_first, self.sum_second) = sums;
        let ring_pos = r.get_u64()?;
        let filled = r.get_u64()?;
        if ring_pos >= self.ring.len() as u64 || filled > self.ring.len() as u64 {
            return Err(CkptError::Corrupt(format!(
                "monitor: cursor {ring_pos}/fill {filled} out of range for {} blocks",
                self.ring.len()
            )));
        }
        self.ring_pos = ring_pos as usize;
        self.filled = filled as usize;
        self.below_streak = r.get_u64()?;
        self.above_streak = r.get_u64()?;
        self.cooldown = r.get_u64()?;
        if self.below_streak > self.settle_samples
            || self.above_streak > self.settle_samples
            || self.cooldown > self.settle_samples
        {
            return Err(CkptError::Corrupt(format!(
                "monitor: streak/cooldown beyond the {}-sample settling window",
                self.settle_samples
            )));
        }
        Ok(())
    }
}

/// Lazy adaptation step the controller wants a touched region to take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptAction {
    /// Merge the region with its buddy (one level up).
    Merge,
    /// Split the region in half (one level down).
    Split,
}

/// The engine-facing adaptation controller: request counting, LRU-stack
/// sampling deltas, history recording and target-granularity movement.
#[derive(Debug, Clone)]
pub struct HitRateAdaptation {
    monitor: HitRateMonitor,
    history: History,
    /// The granularity level (log2 lines) the monitor currently wants.
    /// Regions adapt toward it *lazily*, on access (§3.2's lazy merging
    /// and splitting): a merge decision raises the target, and each region
    /// is merged/split only when it is next touched, so adaptation cost is
    /// paid by the regions that actually benefit and no pass ever stalls
    /// the system.
    target_q_log2: u8,
    p_log2: u8,
    max_q_log2: u8,
    enable_merge: bool,
    enable_split: bool,
    requests: u64,
    /// Counter snapshot at the last monitor sample.
    last_first: u64,
    last_second: u64,
    last_misses: u64,
    merge_decisions: u64,
    split_decisions: u64,
}

impl HitRateAdaptation {
    /// Build from a [`SawlConfig`]; the target starts at P.
    pub fn new(cfg: &SawlConfig) -> Self {
        Self {
            monitor: HitRateMonitor::new(cfg),
            history: History::new(),
            target_q_log2: cfg.initial_granularity.trailing_zeros() as u8,
            p_log2: cfg.initial_granularity.trailing_zeros() as u8,
            max_q_log2: cfg.max_granularity.trailing_zeros() as u8,
            enable_merge: cfg.enable_merge,
            enable_split: cfg.enable_split,
            requests: 0,
            last_first: 0,
            last_second: 0,
            last_misses: 0,
            merge_decisions: 0,
            split_decisions: 0,
        }
    }

    /// Requests until the one that triggers the next monitor sample,
    /// inclusive — so `until_sample() - 1` requests are guaranteed not to
    /// cross a sample boundary.
    #[inline]
    pub fn until_sample(&self) -> u64 {
        let interval = self.monitor.sample_interval();
        interval - self.requests % interval
    }

    /// Count `k` requests known not to reach a sample boundary (run
    /// batching); equivalent to `k` non-firing
    /// [`HitRateAdaptation::begin_request`] calls.
    #[inline]
    pub fn note_requests(&mut self, k: u64) {
        self.requests += k;
    }

    /// Requests observed so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// The monitor's current windowed hit rate, `None` until a full
    /// observation window has accumulated (telemetry support).
    pub fn windowed_hit_rate(&self) -> Option<f64> {
        self.monitor.windowed_hit_rate()
    }

    /// Recorded time series (one point per monitor sample).
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Monitor decisions that triggered a merge / split pass.
    pub fn decisions(&self) -> (u64, u64) {
        (self.merge_decisions, self.split_decisions)
    }

    /// Crash recovery: drop the monitor's volatile observation window and
    /// settling state. The request count, history, decision counters,
    /// target granularity and CMT-counter snapshots are controller-side
    /// host state (journaled alongside the GTD registers in the modeled
    /// architecture) and survive — the CMT's cumulative hit/miss counters
    /// survive its own [`Cmt::clear`] for the same reason, which keeps the
    /// next sample's deltas well-defined.
    pub fn reset_after_crash(&mut self) {
        self.monitor.reset_window();
    }

    /// Checkpoint the controller: monitor window, recorded history, target
    /// granularity, request clock, CMT-counter snapshots and decision
    /// counters (geometry bounds and enable switches are configuration).
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        self.monitor.ckpt_save(w);
        let samples = self.history.samples();
        w.put_u64(samples.len() as u64);
        for s in samples {
            w.put_u64(s.requests);
            w.put_f64(s.windowed_hit_rate);
            w.put_f64(s.instant_hit_rate);
            w.put_f64(s.cached_region_size);
            w.put_f64(s.global_region_size);
        }
        w.put_u8(self.target_q_log2);
        w.put_u64(self.requests);
        w.put_u64(self.last_first);
        w.put_u64(self.last_second);
        w.put_u64(self.last_misses);
        w.put_u64(self.merge_decisions);
        w.put_u64(self.split_decisions);
    }

    /// Restore a controller saved by [`ckpt_save`](Self::ckpt_save) into an
    /// instance built from the same spec.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        use sawl_ckpt::CkptError;
        self.monitor.ckpt_restore(r)?;
        let count = r.get_u64()?;
        // One sample per interval: more samples than requests could ever
        // have produced (given u64 requests below) is plain corruption.
        let mut history = History::new();
        for _ in 0..count {
            let requests = r.get_u64()?;
            let windowed_hit_rate = r.get_f64()?;
            let instant_hit_rate = r.get_f64()?;
            let cached_region_size = r.get_f64()?;
            let global_region_size = r.get_f64()?;
            history.push(Sample {
                requests,
                windowed_hit_rate,
                instant_hit_rate,
                cached_region_size,
                global_region_size,
            });
        }
        let target_q_log2 = r.get_u8()?;
        if !(self.p_log2..=self.max_q_log2).contains(&target_q_log2) {
            return Err(CkptError::Corrupt(format!(
                "adaptation: target granularity {target_q_log2} outside [{}, {}]",
                self.p_log2, self.max_q_log2
            )));
        }
        let requests = r.get_u64()?;
        if count > requests / self.monitor.sample_interval() {
            return Err(CkptError::Corrupt(format!(
                "adaptation: {count} history samples but only {requests} requests"
            )));
        }
        self.history = history;
        self.target_q_log2 = target_q_log2;
        self.requests = requests;
        self.last_first = r.get_u64()?;
        self.last_second = r.get_u64()?;
        self.last_misses = r.get_u64()?;
        self.merge_decisions = r.get_u64()?;
        self.split_decisions = r.get_u64()?;
        Ok(())
    }

    /// Force the target granularity level (log2 lines). Test and ablation
    /// support: regions then converge lazily exactly as they would after
    /// monitor decisions.
    pub fn set_target_q_log2(&mut self, q_log2: u8) {
        assert!(
            (self.p_log2..=self.max_q_log2).contains(&q_log2),
            "target {q_log2} outside [{}, {}]",
            self.p_log2,
            self.max_q_log2
        );
        self.target_q_log2 = q_log2;
    }

    /// Count one request; `true` when a hit-rate sample is now due.
    pub fn begin_request(&mut self) -> bool {
        self.requests += 1;
        self.requests.is_multiple_of(self.monitor.sample_interval())
    }

    /// Take the due sample from the CMT's LRU-stack counters, record the
    /// history point, and move the target granularity per the monitor's
    /// decision. `cached_region_size` / `global_region_size` are the
    /// mapping-tier observations recorded alongside.
    pub fn on_sample(
        &mut self,
        cmt: &Cmt<ImtEntry>,
        cached_region_size: f64,
        global_region_size: f64,
    ) {
        let first = cmt.hits_first_half();
        let second = cmt.hits_second_half();
        let misses = cmt.misses();
        let inputs = MonitorInputs {
            hits_first_half: first - self.last_first,
            hits_second_half: second - self.last_second,
            misses: misses - self.last_misses,
        };
        let interval_total = inputs.hits_first_half + inputs.hits_second_half + inputs.misses;
        let instant_rate = if interval_total == 0 {
            0.0
        } else {
            (inputs.hits_first_half + inputs.hits_second_half) as f64 / interval_total as f64
        };
        self.last_first = first;
        self.last_second = second;
        self.last_misses = misses;

        let decision = self.monitor.on_sample(inputs);
        self.history.push(Sample {
            requests: self.requests,
            windowed_hit_rate: self.monitor.windowed_hit_rate().unwrap_or(0.0),
            instant_hit_rate: instant_rate,
            cached_region_size,
            global_region_size,
        });
        match decision {
            Decision::Merge if self.enable_merge => {
                self.merge_decisions += 1;
                if self.target_q_log2 < self.max_q_log2 {
                    self.target_q_log2 += 1;
                } else {
                    // Already at the cap: a no-op decision must not stall
                    // adaptation for a settling window.
                    self.monitor.cancel_cooldown();
                }
            }
            Decision::Split if self.enable_split => {
                self.split_decisions += 1;
                if self.target_q_log2 > self.p_log2 {
                    self.target_q_log2 -= 1;
                } else {
                    self.monitor.cancel_cooldown();
                }
            }
            _ => {}
        }
    }

    /// The lazy step (if any) a touched region of granularity `q_log2`
    /// should take toward the current target. Honors the merge/split
    /// enable switches.
    pub fn action_for(&self, q_log2: u8) -> Option<AdaptAction> {
        if q_log2 < self.target_q_log2 && self.enable_merge {
            Some(AdaptAction::Merge)
        } else if q_log2 > self.target_q_log2 && self.enable_split {
            Some(AdaptAction::Split)
        } else {
            None
        }
    }

    /// The granularity level (log2 lines) the controller currently wants.
    pub fn target_q_log2(&self) -> u8 {
        self.target_q_log2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(sow_samples: u64, ssw_samples: u64) -> SawlConfig {
        SawlConfig {
            sample_interval: 1000,
            observation_window: 1000 * sow_samples,
            settling_window: 1000 * ssw_samples,
            ..Default::default()
        }
    }

    fn sample(hit_rate: f64, first_frac: f64) -> MonitorInputs {
        let total = 1000u64;
        let hits = (total as f64 * hit_rate) as u64;
        let first = (hits as f64 * first_frac) as u64;
        MonitorInputs {
            hits_first_half: first,
            hits_second_half: hits - first,
            misses: total - hits,
        }
    }

    #[test]
    fn holds_until_window_fills() {
        let mut m = HitRateMonitor::new(&cfg(8, 1));
        for _ in 0..4 {
            assert_eq!(m.on_sample(sample(0.2, 0.5)), Decision::Hold);
        }
    }

    #[test]
    fn merges_after_settling_on_low_rate() {
        let mut m = HitRateMonitor::new(&cfg(4, 3));
        let mut decisions = Vec::new();
        for _ in 0..8 {
            decisions.push(m.on_sample(sample(0.5, 0.5)));
        }
        assert!(decisions.contains(&Decision::Merge));
        // Exactly one merge within the cooldown horizon.
        assert_eq!(decisions.iter().filter(|&&d| d == Decision::Merge).count(), 1);
    }

    #[test]
    fn splits_on_high_rate_with_first_half_dominance() {
        let mut m = HitRateMonitor::new(&cfg(4, 2));
        let mut got_split = false;
        for _ in 0..10 {
            if m.on_sample(sample(0.97, 0.95)) == Decision::Split {
                got_split = true;
            }
        }
        assert!(got_split);
    }

    #[test]
    fn high_rate_without_imbalance_holds() {
        let mut m = HitRateMonitor::new(&cfg(4, 2));
        for _ in 0..20 {
            // 96% hit rate but hits spread evenly across the stack: the
            // current granularity is "satisfactory" (§3.2).
            assert_eq!(m.on_sample(sample(0.96, 0.55)), Decision::Hold);
        }
    }

    #[test]
    fn subqueue_or_rule_splits_when_one_half_serves_everything() {
        // First sub-queue alone serving >= 99% of lookups fires the
        // endurance split.
        let mut m = HitRateMonitor::new(&cfg(4, 2));
        let mut got_split = false;
        for _ in 0..10 {
            if m.on_sample(sample(0.998, 0.999)) == Decision::Split {
                got_split = true;
            }
        }
        assert!(got_split);
    }

    #[test]
    fn high_but_spread_hit_rate_never_splits() {
        // 99.5% hit rate with hits spread across both halves: the working
        // set needs the whole stack, splitting would thrash — hold.
        let mut m = HitRateMonitor::new(&cfg(4, 2));
        for _ in 0..30 {
            assert_eq!(m.on_sample(sample(0.995, 0.6)), Decision::Hold);
        }
    }

    #[test]
    fn mid_band_rate_never_acts() {
        let mut m = HitRateMonitor::new(&cfg(4, 1));
        for _ in 0..50 {
            assert_eq!(m.on_sample(sample(0.92, 0.9)), Decision::Hold);
        }
    }

    #[test]
    fn settling_requires_consecutive_samples() {
        // One-sample observation window: the windowed rate equals the
        // instant rate, so alternating low / mid-band samples keep
        // resetting the settling streak and nothing ever fires.
        let mut m = HitRateMonitor::new(&cfg(1, 3));
        for i in 0..30 {
            let s = if i % 2 == 0 { sample(0.5, 0.5) } else { sample(0.92, 0.5) };
            assert_eq!(m.on_sample(s), Decision::Hold, "sample {i}");
        }
    }

    #[test]
    fn cooldown_spaces_out_actions() {
        let mut m = HitRateMonitor::new(&cfg(2, 2));
        let mut merges = 0;
        let mut gap_since_last = 0;
        let mut min_gap = u64::MAX;
        for _ in 0..40 {
            gap_since_last += 1;
            if m.on_sample(sample(0.3, 0.5)) == Decision::Merge {
                merges += 1;
                if merges > 1 {
                    min_gap = min_gap.min(gap_since_last);
                }
                gap_since_last = 0;
            }
        }
        assert!(merges >= 2, "merges {merges}");
        // settle (2) + cooldown (2) apart at minimum.
        assert!(min_gap >= 4, "actions too close: {min_gap}");
    }

    #[test]
    fn windowed_rate_tracks_recent_blocks_only() {
        let mut m = HitRateMonitor::new(&cfg(4, 100));
        for _ in 0..4 {
            m.on_sample(sample(0.2, 0.5));
        }
        assert!((m.windowed_hit_rate().unwrap() - 0.2).abs() < 0.01);
        for _ in 0..4 {
            m.on_sample(sample(1.0, 0.5));
        }
        // Old low blocks rotated out entirely.
        assert!(m.windowed_hit_rate().unwrap() > 0.99);
    }

    // ---- controller-level tests ----------------------------------------

    #[test]
    fn begin_request_fires_on_the_sample_cadence() {
        let mut a = HitRateAdaptation::new(&cfg(4, 1));
        let due: Vec<bool> = (0..2500).map(|_| a.begin_request()).collect();
        assert_eq!(due.iter().filter(|&&d| d).count(), 2);
        assert!(due[999] && due[1999]);
        assert_eq!(a.requests(), 2500);
    }

    #[test]
    fn action_for_moves_toward_target_and_honors_switches() {
        let mut a = HitRateAdaptation::new(&SawlConfig {
            initial_granularity: 4,
            max_granularity: 64,
            ..Default::default()
        });
        assert_eq!(a.action_for(2), None, "already at target");
        a.set_target_q_log2(5);
        assert_eq!(a.action_for(2), Some(AdaptAction::Merge));
        assert_eq!(a.action_for(6), Some(AdaptAction::Split));
        assert_eq!(a.action_for(5), None);

        let mut no_merge = HitRateAdaptation::new(&SawlConfig {
            initial_granularity: 4,
            max_granularity: 64,
            enable_merge: false,
            ..Default::default()
        });
        no_merge.set_target_q_log2(5);
        assert_eq!(no_merge.action_for(2), None, "merge disabled");
        assert_eq!(no_merge.action_for(6), Some(AdaptAction::Split));
    }

    #[test]
    fn sampling_low_hit_rate_raises_the_target() {
        use sawl_tiered::cmt::Cmt;
        // 4-sample SOW, 1-sample SSW: a persistent all-miss stream must
        // raise the target within a handful of samples.
        let c = cfg(4, 1);
        let mut a = HitRateAdaptation::new(&c);
        let mut cmt: Cmt<ImtEntry> = Cmt::new(4);
        let before = a.target_q_log2();
        for i in 0..8u64 {
            // Each lookup of a fresh key misses; the miss counter advances
            // between samples.
            cmt.lookup(1000 + i);
            a.on_sample(&cmt, 4.0, 4.0);
        }
        assert!(a.target_q_log2() > before, "target did not rise");
        assert!(a.decisions().0 > 0);
        assert_eq!(a.history().len(), 8);
    }
}
