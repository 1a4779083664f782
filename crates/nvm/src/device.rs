//! The NVM device: per-line wear accounting, line failure, spare pool,
//! device-death rule.
//!
//! This is the hottest code in the whole suite — lifetime experiments push
//! 1e8–1e9 writes through [`NvmDevice::write`] — so the write path is two
//! bounds-checked array updates plus a compare-to-zero, with no allocation,
//! no division, and no branching beyond the failure checks. Instead of
//! testing `write_count % limit == 0` (a hardware divide per write), each
//! line carries a countdown of writes remaining until its next failure;
//! failure is `countdown == 0` after a decrement, and the countdown refills
//! with the line's limit when the controller remaps to a spare.

use serde::{Deserialize, Serialize};

use crate::config::NvmConfig;
use crate::fault::{FaultPlan, FaultPlanError, FaultState};
use crate::stats::{FaultCounters, WearStats};
use crate::wear::WearState;
use crate::Pa;

/// Result of a single line write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The write succeeded and the line is still within its endurance.
    Ok,
    /// This write made the line reach its endurance limit. The controller
    /// transparently remaps the line to a spare; subsequent writes to the
    /// same physical address keep working (they wear the replacement), but
    /// one spare has been consumed.
    LineFailed,
    /// The spare pool was already exhausted when a line failed: the device
    /// is dead. Once dead, a device reports `DeviceDead` for every further
    /// write and stops mutating its counters.
    DeviceDead,
    /// A scheduled power-loss event has fired (see
    /// [`FaultPlan::power_loss_at_writes`]): the write was dropped and no
    /// state changed. The device keeps reporting `PowerLost` until the
    /// recovery layer calls [`NvmDevice::restore_power`].
    PowerLost,
}

/// Aggregate wear counters maintained incrementally by the device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WearCounters {
    /// All writes applied to the device (demand + wear-leveling overhead).
    pub total_writes: u64,
    /// Writes issued on behalf of the workload.
    pub demand_writes: u64,
    /// Extra writes issued by wear-leveling machinery (data exchanges,
    /// mapping-table updates). `total_writes = demand + overhead`.
    pub overhead_writes: u64,
    /// Reads served (reads do not wear NVM cells).
    pub reads: u64,
    /// Number of lines that reached their endurance limit so far.
    pub failed_lines: u64,
}

impl WearCounters {
    /// Fraction of all writes that were wear-leveling overhead.
    pub fn overhead_fraction(&self) -> f64 {
        if self.total_writes == 0 {
            0.0
        } else {
            self.overhead_writes as f64 / self.total_writes as f64
        }
    }
}

/// An NVM device instance.
///
/// The device does not store data contents — only wear. Correctness of data
/// movement is checked at the wear-leveling layer with shadow maps; the
/// device's job is endurance accounting with the paper's failure rule.
#[derive(Debug, Clone)]
pub struct NvmDevice {
    cfg: NvmConfig,
    /// Structure-of-arrays per-line wear state: packed countdowns until the
    /// next line failure (refilled with the line's limit on every failure,
    /// so the hot path never divides — `remaining == 0` after a decrement
    /// is exactly the old `write_count % limit == 0` rule), quantized
    /// endurance limits, and a sparse failed-line overlay from which
    /// per-line write counts are derived on demand.
    wear: WearState,
    counters: WearCounters,
    /// Demand writes recorded at the moment the device died.
    demand_writes_at_death: Option<u64>,
    dead: bool,
    /// `false` after a scheduled power-loss event until
    /// [`NvmDevice::restore_power`]; writes are dropped while unpowered.
    powered: bool,
    /// Fault-injection state; `None` for fault-free devices (and devices
    /// installed with a zero-fault plan), keeping the hot path unchanged.
    fault: Option<Box<FaultState>>,
    /// Incremental wear-distribution probe; `None` (one predictable branch
    /// per write) unless telemetry enables it.
    probe: Option<Box<WearProbe>>,
}

/// Running moments of the per-line write-count distribution, maintained
/// incrementally so telemetry can sample mean/CoV/max in O(1) instead of
/// rescanning all lines per sample.
///
/// Only the sum of squares and the max need tracking: the plain sum always
/// equals [`WearCounters::total_writes`] (every write increments both).
#[derive(Debug, Clone, Copy, Default)]
struct WearProbe {
    sumsq: u128,
    max: u32,
}

/// `c * c` widened so a running sum of squares cannot overflow.
fn square(c: u32) -> u128 {
    let c = u128::from(c);
    c * c
}

/// An O(1) point-in-time summary of the wear distribution, from the
/// incremental probe. Matches [`WearStats`](crate::WearStats) semantics:
/// population stddev, `cov = stddev / mean` (0 when nothing is written) —
/// up to floating-point association order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearSnapshot {
    /// Lines summarized.
    pub lines: u64,
    /// Total writes across all lines.
    pub total: u64,
    /// Mean per-line write count.
    pub mean: f64,
    /// Coefficient of variation of per-line write counts.
    pub cov: f64,
    /// Maximum per-line write count.
    pub max: u32,
}

impl NvmDevice {
    /// Create a fresh (unworn) device from a validated configuration.
    pub fn new(cfg: NvmConfig) -> Self {
        let limits = cfg.variation.materialize(cfg.lines, cfg.endurance, cfg.seed);
        Self {
            wear: WearState::new(cfg.lines, cfg.endurance, limits),
            counters: WearCounters::default(),
            demand_writes_at_death: None,
            dead: false,
            powered: true,
            fault: None,
            probe: None,
            cfg,
        }
    }

    /// Turn on the incremental wear probe (O(lines) once, O(1) per
    /// sample afterwards). Pure observation: never changes wear outcomes.
    pub fn enable_wear_probe(&mut self) {
        let mut p = WearProbe::default();
        self.wear.fold_counts(|chunk| {
            for &c in chunk {
                p.sumsq += square(c);
                p.max = p.max.max(c);
            }
        });
        self.probe = Some(Box::new(p));
    }

    /// Whether the incremental wear probe is on.
    pub fn wear_probe_enabled(&self) -> bool {
        self.probe.is_some()
    }

    /// O(1) wear-distribution summary from the incremental probe; `None`
    /// until [`NvmDevice::enable_wear_probe`] is called.
    pub fn wear_snapshot(&self) -> Option<WearSnapshot> {
        let p = self.probe.as_deref()?;
        let n = self.wear.lines() as f64;
        let total = self.counters.total_writes;
        let mean = total as f64 / n;
        let var = (p.sumsq as f64 / n) - mean * mean;
        let stddev = var.max(0.0).sqrt();
        let cov = if mean > 0.0 { stddev / mean } else { 0.0 };
        Some(WearSnapshot { lines: self.wear.lines(), total, mean, cov, max: p.max })
    }

    /// Fold one line's count change (`prev` -> its current value) into the
    /// probe. Callers check `self.probe.is_some()` first so the fast path
    /// pays only that branch.
    fn probe_note(&mut self, pa: Pa, prev: u32) {
        let Some(p) = self.probe.as_deref_mut() else { return };
        let new = self.wear.write_count(pa);
        p.sumsq += square(new) - square(prev);
        p.max = p.max.max(new);
    }

    /// Install a fault-injection plan. Stuck-at lines are detected and
    /// remapped immediately: each consumes one spare and leaves a fresh
    /// replacement behind the same physical address (WoLFRaM-style
    /// decoder-level remapping), so enough stuck lines can kill the device
    /// outright. A [zero plan](FaultPlan::is_zero) installs nothing and the
    /// device stays byte-identical to a fault-free one.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), FaultPlanError> {
        plan.validate(self.cfg.lines)?;
        if plan.is_zero() {
            self.fault = None;
            return Ok(());
        }
        let mut state = FaultState::new(plan.clone());
        for &pa in &plan.stuck_lines {
            state.counters.stuck_lines_remapped += 1;
            self.wear.note_stuck(pa);
            self.counters.failed_lines += 1;
            if self.counters.failed_lines > self.cfg.spare_lines() {
                self.dead = true;
                self.demand_writes_at_death = Some(self.counters.demand_writes);
            }
        }
        self.fault = Some(Box::new(state));
        Ok(())
    }

    /// Whether a power-loss event has fired and not yet been recovered.
    #[inline]
    pub fn power_lost(&self) -> bool {
        !self.powered
    }

    /// Bring the device back up after a power-loss event. Idempotent; the
    /// recovery layer calls this before replaying or rolling back the
    /// journal.
    pub fn restore_power(&mut self) {
        if !self.powered {
            self.powered = true;
            if let Some(f) = self.fault.as_deref_mut() {
                f.counters.power_restores += 1;
            }
        }
    }

    /// Whether a (non-empty) fault-injection plan is armed. Drivers with a
    /// fault-free fast path consult this once per run: an armed plan can
    /// drop writes (power loss) or add retries mid-run, so such devices
    /// must stay on the scalar serve path.
    #[inline]
    pub fn fault_plan_armed(&self) -> bool {
        self.fault.is_some()
    }

    /// Fault-injection counters; all-zero when no fault plan is installed.
    pub fn fault_counters(&self) -> FaultCounters {
        self.fault.as_deref().map(|f| f.counters).unwrap_or_default()
    }

    /// Spares left in the pool before the device dies.
    pub fn spares_remaining(&self) -> u64 {
        self.cfg.spare_lines().saturating_sub(self.counters.failed_lines)
    }

    /// The configuration this device was built from.
    pub fn config(&self) -> &NvmConfig {
        &self.cfg
    }

    /// Number of addressable lines.
    #[inline]
    pub fn lines(&self) -> u64 {
        self.cfg.lines
    }

    /// Whether the device has exhausted its spare pool.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Aggregate wear counters.
    #[inline]
    pub fn wear(&self) -> &WearCounters {
        &self.counters
    }

    /// Endurance limit of one line.
    #[inline]
    pub fn limit(&self, pa: Pa) -> u32 {
        self.wear.limit(pa)
    }

    /// Current write count of one line (derived from the SoA state).
    #[inline]
    pub fn write_count(&self, pa: Pa) -> u32 {
        self.wear.write_count(pa)
    }

    /// Exact heap bytes held by the per-line wear state (countdowns +
    /// quantized limit table + failed-line overlay).
    pub fn wear_state_bytes(&self) -> u64 {
        self.wear.heap_bytes()
    }

    /// Layout tag of the wear state, e.g. `"u16+uniform"`.
    pub fn wear_state_layout(&self) -> String {
        self.wear.layout()
    }

    /// Demand writes served before the device died, if it has died.
    pub fn demand_writes_at_death(&self) -> Option<u64> {
        self.demand_writes_at_death
    }

    /// Normalized lifetime achieved by this (dead or alive) device: demand
    /// writes served so far divided by the ideal lifetime writes. Matches
    /// the paper's metric when read at device death.
    pub fn normalized_lifetime(&self) -> f64 {
        let served = self.demand_writes_at_death.unwrap_or(self.counters.demand_writes);
        served as f64 / self.cfg.ideal_lifetime_writes() as f64
    }

    /// Record a read. Reads do not wear cells but are counted for the
    /// timing model and request statistics.
    #[inline]
    pub fn read(&mut self, _pa: Pa) {
        self.counters.reads += 1;
    }

    /// Apply a demand (workload) write to physical line `pa`.
    #[inline]
    pub fn write(&mut self, pa: Pa) -> WriteOutcome {
        self.write_impl(pa, false)
    }

    /// Apply a wear-leveling overhead write (data exchange, table update).
    #[inline]
    pub fn write_wl(&mut self, pa: Pa) -> WriteOutcome {
        self.write_impl(pa, true)
    }

    #[inline]
    fn write_impl(&mut self, pa: Pa, overhead: bool) -> WriteOutcome {
        if self.dead {
            return WriteOutcome::DeviceDead;
        }
        if !self.powered {
            return WriteOutcome::PowerLost;
        }
        // One fused test for both optional layers: the fault-free,
        // probe-free fast path keeps the exact branch count it had before
        // either layer existed.
        if self.fault.is_some() || self.probe.is_some() {
            return self.write_impl_slow(pa, overhead);
        }
        self.wear_write_body(pa, overhead)
    }

    /// The scalar write path with at least one optional layer (fault
    /// injection and/or wear probe) active, out of line (see
    /// `write_impl_faulted` for why).
    #[cold]
    fn write_impl_slow(&mut self, pa: Pa, overhead: bool) -> WriteOutcome {
        if self.fault.is_some() {
            return self.write_impl_faulted(pa, overhead);
        }
        self.wear_write_probed(pa, overhead)
    }

    /// The faulted scalar write path, kept out of line so the fault-free
    /// `write_impl` stays small enough to inline into every scheme's hot
    /// loop (outlining this recovered a double-digit-percent throughput
    /// loss on the scalar-heavy schemes).
    #[cold]
    fn write_impl_faulted(&mut self, pa: Pa, overhead: bool) -> WriteOutcome {
        let total = self.counters.total_writes;
        let f = self.fault.as_deref_mut().unwrap();
        if let Some(w) = f.next_power_loss() {
            if total >= w {
                f.next_power_event += 1;
                f.counters.power_losses += 1;
                self.powered = false;
                return WriteOutcome::PowerLost;
            }
        }
        if f.until_transient == 0 {
            // Transient fault: the attempt wears the cell without
            // latching; the controller's verify-and-retry issues the
            // real write immediately after (within the same request,
            // so no power-loss check between attempt and retry).
            f.counters.transient_write_faults += 1;
            f.counters.retry_writes += 1;
            f.redraw_transient();
            if self.wear_write(pa, true) == WriteOutcome::DeviceDead {
                return WriteOutcome::DeviceDead;
            }
        } else {
            f.until_transient -= 1;
        }
        self.wear_write(pa, overhead)
    }

    /// Apply one physical write's wear accounting, below the fault layer.
    /// The probe branch delegates to an outlined twin, mirroring the fault
    /// layer's structure: the probe-off body must stay small enough to
    /// inline into every scheme's hot loop (see `write_impl_faulted`).
    #[inline]
    fn wear_write(&mut self, pa: Pa, overhead: bool) -> WriteOutcome {
        if self.probe.is_some() {
            return self.wear_write_probed(pa, overhead);
        }
        self.wear_write_body(pa, overhead)
    }

    /// The probed twin: identical accounting plus the O(1) probe update,
    /// out of line so enabling telemetry cannot perturb the probe-off
    /// codegen.
    #[cold]
    #[inline(never)]
    fn wear_write_probed(&mut self, pa: Pa, overhead: bool) -> WriteOutcome {
        let prev = self.wear.write_count(pa);
        let out = self.wear_write_body(pa, overhead);
        self.probe_note(pa, prev);
        out
    }

    /// The shared accounting body (countdown, failure, spares).
    #[inline]
    fn wear_write_body(&mut self, pa: Pa, overhead: bool) -> WriteOutcome {
        self.counters.total_writes += 1;
        if overhead {
            self.counters.overhead_writes += 1;
        } else {
            self.counters.demand_writes += 1;
        }
        // A line fails when its count reaches the limit; the controller
        // remaps it to a spare, and that spare wears out after another
        // `limit` writes — hence the countdown refill inside
        // [`WearState::countdown`]: hammering one physical address consumes
        // one spare every `limit` writes.
        if self.wear.countdown(pa) {
            self.counters.failed_lines += 1;
            if self.counters.failed_lines > self.cfg.spare_lines() {
                self.dead = true;
                self.demand_writes_at_death = Some(self.counters.demand_writes);
                return WriteOutcome::DeviceDead;
            }
            return WriteOutcome::LineFailed;
        }
        WriteOutcome::Ok
    }

    /// Apply one wear-leveling overhead write to every line in
    /// `[start, start + n)`, ascending — bit-equivalent to `n` calls of
    /// [`NvmDevice::write_wl`], stopping after a write that kills the
    /// device (or at a power loss, whose write is dropped). Returns the
    /// number of writes applied and the outcome of the last applied write.
    ///
    /// Data-movement bursts (segment swaps, region exchanges, SAWL block
    /// charges) write long contiguous physical ranges; chunks whose every
    /// countdown clears the failure check take one vectorized decrement
    /// sweep instead of per-line accounting.
    pub fn write_wl_range(&mut self, start: Pa, n: u64) -> (u64, WriteOutcome) {
        if self.dead {
            return (0, WriteOutcome::DeviceDead);
        }
        if !self.powered {
            return (0, WriteOutcome::PowerLost);
        }
        if n == 0 {
            return (0, WriteOutcome::Ok);
        }
        if self.fault.is_some() || self.probe.is_some() {
            return self.write_wl_range_slow(start, n);
        }
        let mut applied = 0u64;
        let mut last = WriteOutcome::Ok;
        while applied < n {
            let chunk = 64.min(n - applied);
            let base = start + applied;
            if self.wear.range_clear_of_failures(base, chunk) {
                self.wear.countdown_range_unchecked(base, chunk);
                self.counters.total_writes += chunk;
                self.counters.overhead_writes += chunk;
                applied += chunk;
                last = WriteOutcome::Ok;
            } else {
                // At least one line in this chunk fails: fall back to the
                // scalar body for exact failure/death accounting.
                for _ in 0..chunk {
                    last = self.wear_write_body(start + applied, true);
                    applied += 1;
                    if last == WriteOutcome::DeviceDead {
                        return (applied, last);
                    }
                }
            }
        }
        (applied, last)
    }

    /// Range path with fault injection or the wear probe active: scalar
    /// `write_wl` per line, preserving every fault boundary.
    #[cold]
    fn write_wl_range_slow(&mut self, start: Pa, n: u64) -> (u64, WriteOutcome) {
        let mut applied = 0u64;
        let mut last = WriteOutcome::Ok;
        while applied < n {
            let was_dead = self.dead;
            let out = self.write_wl(start + applied);
            match out {
                WriteOutcome::PowerLost => return (applied, out),
                WriteOutcome::DeviceDead => {
                    // Applied iff this very write killed the device.
                    return (applied + u64::from(!was_dead), out);
                }
                _ => {
                    applied += 1;
                    last = out;
                }
            }
        }
        (applied, last)
    }

    /// Apply `n` consecutive demand writes to the same line, in closed
    /// form. Bit-equivalent to `n` calls of [`NvmDevice::write`], stopping
    /// after the write that kills the device; returns the number of writes
    /// applied and the outcome of the last applied write.
    ///
    /// This is the device half of run-length batching: write-only attack
    /// workloads (BPA, RAA) hammer one address for thousands of
    /// consecutive writes, and a whole run costs O(1) here instead of one
    /// countdown update per write.
    pub fn write_run(&mut self, pa: Pa, n: u64) -> (u64, WriteOutcome) {
        if self.dead {
            return (0, WriteOutcome::DeviceDead);
        }
        if !self.powered {
            return (0, WriteOutcome::PowerLost);
        }
        if n == 0 {
            return (0, WriteOutcome::Ok);
        }
        if self.fault.is_none() {
            return self.write_run_raw(pa, n);
        }
        self.write_run_faulted(pa, n)
    }

    /// Faulted run path, out of line (see [`Self::write_impl_faulted`]):
    /// chunk the run at the next fault boundary (power loss or transient)
    /// and run each fault-free chunk through the closed form, so the
    /// result stays bit-identical to `n` scalar `write` calls under the
    /// same plan.
    #[cold]
    fn write_run_faulted(&mut self, pa: Pa, n: u64) -> (u64, WriteOutcome) {
        let mut applied = 0u64;
        let mut last = WriteOutcome::Ok;
        while applied < n {
            let total = self.counters.total_writes;
            let f = self.fault.as_deref_mut().unwrap();
            let until_pl = match f.next_power_loss() {
                Some(w) => w.saturating_sub(total),
                None => u64::MAX,
            };
            if until_pl == 0 {
                f.next_power_event += 1;
                f.counters.power_losses += 1;
                self.powered = false;
                return (applied, WriteOutcome::PowerLost);
            }
            if f.until_transient == 0 {
                f.counters.transient_write_faults += 1;
                f.counters.retry_writes += 1;
                f.redraw_transient();
                if self.wear_write(pa, true) == WriteOutcome::DeviceDead {
                    return (applied, WriteOutcome::DeviceDead);
                }
                last = self.wear_write(pa, false);
                applied += 1;
                if last == WriteOutcome::DeviceDead {
                    return (applied, last);
                }
                continue;
            }
            let safe = (n - applied).min(until_pl).min(f.until_transient);
            let (k, out) = self.write_run_raw(pa, safe);
            self.fault.as_deref_mut().unwrap().until_transient -= k;
            applied += k;
            last = out;
            if out == WriteOutcome::DeviceDead {
                return (applied, out);
            }
        }
        (applied, last)
    }

    /// The closed-form run below the fault layer.
    fn write_run_raw(&mut self, pa: Pa, n: u64) -> (u64, WriteOutcome) {
        if self.dead {
            return (0, WriteOutcome::DeviceDead);
        }
        if n == 0 {
            return (0, WriteOutcome::Ok);
        }
        // Deriving a write count costs a bitset probe, so only snapshot the
        // pre-run value when the probe actually needs it.
        let prev = if self.probe.is_some() { Some(self.wear.write_count(pa)) } else { None };
        let limit = self.wear.limit(pa);
        let rem = self.wear.remaining(pa);
        if n < rem {
            // The run ends before the line's next failure.
            self.wear.sub_remaining(pa, n);
            self.counters.total_writes += n;
            self.counters.demand_writes += n;
            if let Some(prev) = prev {
                self.probe_note(pa, prev);
            }
            return (n, WriteOutcome::Ok);
        }
        // At least one failure. The j-th failure in this run lands on write
        // `rem + (j-1)*limit`; the device dies on the failure that
        // overflows the spare pool.
        let failures_to_death = self.cfg.spare_lines() - self.counters.failed_lines + 1;
        let writes_to_death = rem + (failures_to_death - 1) * u64::from(limit);
        if n >= writes_to_death {
            self.wear.refill_after_failures(pa, failures_to_death, 0);
            if let Some(prev) = prev {
                self.probe_note(pa, prev);
            }
            self.counters.total_writes += writes_to_death;
            self.counters.demand_writes += writes_to_death;
            self.counters.failed_lines += failures_to_death;
            self.dead = true;
            self.demand_writes_at_death = Some(self.counters.demand_writes);
            return (writes_to_death, WriteOutcome::DeviceDead);
        }
        let failures = (n - rem) / u64::from(limit) + 1;
        let past_last_failure = (n - rem) % u64::from(limit);
        self.wear.refill_after_failures(pa, failures, past_last_failure);
        if let Some(prev) = prev {
            self.probe_note(pa, prev);
        }
        self.counters.total_writes += n;
        self.counters.demand_writes += n;
        self.counters.failed_lines += failures;
        let last = if past_last_failure == 0 { WriteOutcome::LineFailed } else { WriteOutcome::Ok };
        (n, last)
    }

    /// Checkpoint the device's full mutable state: wear state, aggregate
    /// counters, death/power flags, and dynamic fault-injection state. The
    /// configuration, limit table, and wear probe are not written — resume
    /// rebuilds the device from the same spec (reinstalling any fault
    /// plan), calls [`ckpt_restore`](Self::ckpt_restore) to overwrite the
    /// mutable state, and the probe recomputes itself from the restored
    /// wear if it was enabled.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        self.wear.ckpt_save(w);
        w.put_u64(self.counters.total_writes);
        w.put_u64(self.counters.demand_writes);
        w.put_u64(self.counters.overhead_writes);
        w.put_u64(self.counters.reads);
        w.put_u64(self.counters.failed_lines);
        w.put_opt_u64(self.demand_writes_at_death);
        w.put_bool(self.dead);
        w.put_bool(self.powered);
        match self.fault.as_deref() {
            None => w.put_bool(false),
            Some(f) => {
                w.put_bool(true);
                f.ckpt_save(w);
            }
        }
    }

    /// Restore the state captured by [`ckpt_save`](Self::ckpt_save) into a
    /// device freshly built from the same config (with the same fault plan
    /// installed). Presence/shape mismatches are rejected as
    /// [`sawl_ckpt::CkptError::Corrupt`].
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        self.wear.ckpt_restore(r)?;
        self.counters = WearCounters {
            total_writes: r.get_u64()?,
            demand_writes: r.get_u64()?,
            overhead_writes: r.get_u64()?,
            reads: r.get_u64()?,
            failed_lines: r.get_u64()?,
        };
        self.demand_writes_at_death = r.get_opt_u64()?;
        self.dead = r.get_bool()?;
        self.powered = r.get_bool()?;
        let has_fault = r.get_bool()?;
        if has_fault != self.fault.is_some() {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "checkpoint {} fault state but the rebuilt device {}",
                if has_fault { "carries" } else { "lacks" },
                if self.fault.is_some() { "has a plan installed" } else { "has none" },
            )));
        }
        if let Some(f) = self.fault.as_deref_mut() {
            f.ckpt_restore(r)?;
        }
        if self.probe.is_some() {
            self.enable_wear_probe();
        }
        Ok(())
    }

    /// Compute full wear-distribution statistics (O(lines) time, and
    /// materializes a 4 B/line count vector — avoid on billion-line
    /// devices).
    pub fn wear_stats(&self) -> WearStats {
        WearStats::from_counts(&self.wear.counts())
    }

    /// Per-line write counts, materialized from the SoA state (for tests
    /// and detailed reports; costs 4 B/line).
    pub fn write_counts(&self) -> Vec<u32> {
        self.wear.counts()
    }

    /// Reset all wear state, keeping the configuration (and, for the
    /// Gaussian model, the same per-line limits). Used by sweep drivers to
    /// reuse allocations between runs of the same geometry.
    pub fn reset(&mut self) {
        if self.probe.is_some() {
            self.probe = Some(Box::default());
        }
        self.wear.reset();
        self.counters = WearCounters::default();
        self.demand_writes_at_death = None;
        self.dead = false;
        self.powered = true;
        if let Some(f) = self.fault.take() {
            // Reinstall the plan from scratch: stuck lines are re-applied
            // and the transient-gap RNG restarts from its seed, so a reset
            // device replays the exact same fault sequence.
            let plan = f.plan().clone();
            self.install_fault_plan(&plan).expect("previously installed plan must revalidate");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variation::EnduranceModel;

    fn tiny(lines: u64, endurance: u32, spare_shift: u32) -> NvmDevice {
        let cfg = NvmConfig::builder()
            .lines(lines)
            .banks(1)
            .endurance(endurance)
            .spare_shift(spare_shift)
            .build()
            .unwrap();
        NvmDevice::new(cfg)
    }

    #[test]
    fn write_increments_counters() {
        let mut dev = tiny(16, 100, 2);
        assert_eq!(dev.write(3), WriteOutcome::Ok);
        assert_eq!(dev.write_wl(3), WriteOutcome::Ok);
        dev.read(5);
        let w = dev.wear();
        assert_eq!(w.total_writes, 2);
        assert_eq!(w.demand_writes, 1);
        assert_eq!(w.overhead_writes, 1);
        assert_eq!(w.reads, 1);
        assert_eq!(dev.write_count(3), 2);
        assert_eq!(dev.write_count(0), 0);
    }

    /// The probe's O(1) snapshot must agree with the O(lines) recompute.
    fn assert_probe_matches_full_stats(dev: &NvmDevice) {
        let snap = dev.wear_snapshot().expect("probe enabled");
        let full = dev.wear_stats();
        assert_eq!(snap.lines, full.lines);
        assert_eq!(snap.total, full.total);
        assert_eq!(snap.max, full.max);
        assert!((snap.mean - full.mean).abs() < 1e-9, "{} vs {}", snap.mean, full.mean);
        assert!((snap.cov - full.cov).abs() < 1e-9, "{} vs {}", snap.cov, full.cov);
    }

    #[test]
    fn wear_probe_tracks_scalar_and_run_writes() {
        let mut dev = tiny(16, 50, 2);
        assert!(dev.wear_snapshot().is_none());
        dev.enable_wear_probe();
        assert_probe_matches_full_stats(&dev);
        for i in 0..8 {
            for _ in 0..=i {
                dev.write(i);
            }
        }
        dev.write_wl(3);
        assert_probe_matches_full_stats(&dev);
        // Runs through every write_run_raw branch: short of failure,
        // across failures, and through device death.
        dev.write_run(5, 30);
        assert_probe_matches_full_stats(&dev);
        dev.write_run(5, 120);
        assert_probe_matches_full_stats(&dev);
        let mut hammer = tiny(16, 3, 2);
        hammer.enable_wear_probe();
        hammer.write_run(0, 1 << 20);
        assert!(hammer.is_dead());
        assert_probe_matches_full_stats(&hammer);
    }

    #[test]
    fn wear_probe_enabled_mid_run_and_reset() {
        let mut dev = tiny(8, 100, 2);
        for i in 0..8 {
            dev.write_run(i, i * 7 + 1);
        }
        dev.enable_wear_probe();
        assert_probe_matches_full_stats(&dev);
        dev.write_run(2, 13);
        assert_probe_matches_full_stats(&dev);
        dev.reset();
        assert!(dev.wear_probe_enabled());
        let snap = dev.wear_snapshot().unwrap();
        assert_eq!((snap.total, snap.max, snap.cov), (0, 0, 0.0));
        dev.write(1);
        assert_probe_matches_full_stats(&dev);
    }

    #[test]
    fn wear_probe_does_not_change_outcomes() {
        let run = |probe: bool| {
            let mut dev = tiny(16, 5, 2);
            if probe {
                dev.enable_wear_probe();
            }
            let mut outs = Vec::new();
            for i in 0..200u64 {
                outs.push(dev.write(i % 16));
                if dev.is_dead() {
                    break;
                }
            }
            outs.push(dev.write_run(3, 40).1);
            (outs, *dev.wear(), dev.write_counts().to_vec())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn line_fails_exactly_at_limit() {
        let mut dev = tiny(16, 3, 2);
        assert_eq!(dev.write(0), WriteOutcome::Ok);
        assert_eq!(dev.write(0), WriteOutcome::Ok);
        assert_eq!(dev.write(0), WriteOutcome::LineFailed);
        assert_eq!(dev.wear().failed_lines, 1);
        // The controller remapped to a spare; further writes keep working
        // and the spare itself fails after another full endurance budget.
        assert_eq!(dev.write(0), WriteOutcome::Ok);
        assert_eq!(dev.write(0), WriteOutcome::Ok);
        assert_eq!(dev.write(0), WriteOutcome::LineFailed);
        assert_eq!(dev.wear().failed_lines, 2);
    }

    #[test]
    fn device_dies_when_spares_exhausted() {
        // 16 lines, shift 2 -> 4 spares. The 5th failed line kills it.
        let mut dev = tiny(16, 1, 2);
        for pa in 0..4 {
            assert_eq!(dev.write(pa), WriteOutcome::LineFailed);
        }
        assert!(!dev.is_dead());
        assert_eq!(dev.write(4), WriteOutcome::DeviceDead);
        assert!(dev.is_dead());
        assert_eq!(dev.demand_writes_at_death(), Some(5));
        // A dead device refuses further traffic without mutating counters.
        let before = *dev.wear();
        assert_eq!(dev.write(7), WriteOutcome::DeviceDead);
        assert_eq!(*dev.wear(), before);
    }

    #[test]
    fn normalized_lifetime_is_one_under_perfectly_uniform_writes() {
        let mut dev = tiny(16, 4, 2);
        // Wear every line to its limit in round-robin order: 16*4 = 64
        // demand writes. The device dies only after spares run out, i.e.
        // after 16 + 4 = 20 line failures... with uniform wear all 16 lines
        // fail in the last round-robin sweep, which exceeds 4 spares on the
        // 5th failure.
        let mut served = 0u64;
        'outer: for _round in 0..4 {
            for pa in 0..16 {
                served += 1;
                if dev.write(pa) == WriteOutcome::DeviceDead {
                    break 'outer;
                }
            }
        }
        assert!(dev.is_dead());
        // Died 5 failures into the final sweep: 3*16 + 5 demand writes.
        assert_eq!(served, 3 * 16 + 5);
        let nl = dev.normalized_lifetime();
        assert!(nl > 0.8 && nl <= 1.0, "normalized lifetime {nl}");
    }

    #[test]
    fn gaussian_limits_are_respected() {
        let cfg = NvmConfig::builder()
            .lines(8)
            .banks(1)
            .endurance(100)
            .spare_shift(1)
            .variation(EnduranceModel::Gaussian { cov: 0.3 })
            .seed(9)
            .build()
            .unwrap();
        let mut dev = NvmDevice::new(cfg);
        let limit0 = dev.limit(0);
        for _ in 0..limit0 - 1 {
            assert_eq!(dev.write(0), WriteOutcome::Ok);
        }
        assert_eq!(dev.write(0), WriteOutcome::LineFailed);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut dev = tiny(16, 1, 2);
        for pa in 0..5 {
            dev.write(pa);
        }
        assert!(dev.is_dead());
        dev.reset();
        assert!(!dev.is_dead());
        assert_eq!(dev.wear().total_writes, 0);
        assert_eq!(dev.write(0), WriteOutcome::LineFailed); // endurance 1 again
    }

    /// Reference implementation of the failure rule the countdown replaced:
    /// a line fails exactly when its cumulative write count is a multiple of
    /// its endurance limit.
    fn modulo_outcome(wc: u32, limit: u32, failed_so_far: u64, spares: u64) -> WriteOutcome {
        if wc.is_multiple_of(limit) {
            if failed_so_far + 1 > spares {
                WriteOutcome::DeviceDead
            } else {
                WriteOutcome::LineFailed
            }
        } else {
            WriteOutcome::Ok
        }
    }

    #[test]
    fn countdown_matches_modulo_rule_across_failure_boundaries() {
        // Uniform limits: hammer two lines through several failure cycles
        // and check every single outcome against the modulo rule.
        let mut dev = tiny(16, 7, 2); // 4 spares
        let mut failed = 0u64;
        'outer: for pa in [3u64, 9] {
            for _ in 0..7 * 3 {
                let expect =
                    modulo_outcome(dev.write_count(pa) + 1, 7, failed, dev.config().spare_lines());
                let got = dev.write(pa);
                assert_eq!(got, expect, "pa {pa} wc {}", dev.write_count(pa));
                if got != WriteOutcome::Ok {
                    failed += 1;
                }
                if got == WriteOutcome::DeviceDead {
                    break 'outer;
                }
            }
        }
        assert!(dev.is_dead());
    }

    #[test]
    fn countdown_matches_modulo_rule_with_gaussian_limits() {
        let cfg = NvmConfig::builder()
            .lines(8)
            .banks(1)
            .endurance(50)
            .spare_shift(1)
            .variation(EnduranceModel::Gaussian { cov: 0.25 })
            .seed(17)
            .build()
            .unwrap();
        let mut dev = NvmDevice::new(cfg);
        let limits: Vec<u32> = (0..8).map(|pa| dev.limit(pa)).collect();
        let mut failed = 0u64;
        'outer: for pa in 0..8u64 {
            let limit = limits[pa as usize];
            for _ in 0..limit * 2 + 1 {
                let expect = modulo_outcome(
                    dev.write_count(pa) + 1,
                    limit,
                    failed,
                    dev.config().spare_lines(),
                );
                let got = dev.write(pa);
                assert_eq!(got, expect, "pa {pa} wc {} limit {limit}", dev.write_count(pa));
                if got != WriteOutcome::Ok {
                    failed += 1;
                }
                if got == WriteOutcome::DeviceDead {
                    break 'outer;
                }
            }
        }
        assert!(dev.is_dead());
    }

    /// Run `n` writes to `pa` scalar-wise, mirroring what `write_run`
    /// promises: stop after the killing write, report applied count and
    /// the last outcome.
    fn scalar_run(dev: &mut NvmDevice, pa: Pa, n: u64) -> (u64, WriteOutcome) {
        let mut applied = 0;
        let mut last = WriteOutcome::DeviceDead;
        for _ in 0..n {
            if dev.is_dead() {
                break;
            }
            last = dev.write(pa);
            if last == WriteOutcome::PowerLost {
                // The write was dropped, not applied.
                return (applied, last);
            }
            applied += 1;
        }
        (applied, last)
    }

    #[test]
    fn write_run_matches_scalar_writes_across_failure_and_death() {
        // Every interesting run length around the failure cadence, applied
        // to two devices in lockstep: closed-form must equal scalar state.
        for n in [1u64, 3, 4, 5, 9, 10, 11, 23, 100] {
            let mut fast = tiny(4, 5, 1); // limit 5, 2 spares: death at 3rd failure
            let mut slow = tiny(4, 5, 1);
            loop {
                let got = fast.write_run(1, n);
                let want = scalar_run(&mut slow, 1, n);
                assert_eq!(got, want, "run of {n}");
                assert_eq!(fast.wear(), slow.wear(), "counters after run of {n}");
                assert_eq!(fast.write_count(1), slow.write_count(1));
                assert_eq!(fast.is_dead(), slow.is_dead());
                if fast.is_dead() {
                    break;
                }
            }
            assert_eq!(fast.demand_writes_at_death(), slow.demand_writes_at_death());
        }
    }

    #[test]
    fn write_run_matches_scalar_with_gaussian_limits() {
        let build = || {
            NvmDevice::new(
                NvmConfig::builder()
                    .lines(8)
                    .banks(1)
                    .endurance(40)
                    .spare_shift(1)
                    .variation(EnduranceModel::Gaussian { cov: 0.25 })
                    .seed(23)
                    .build()
                    .unwrap(),
            )
        };
        let (mut fast, mut slow) = (build(), build());
        let mut pa = 0u64;
        for n in [7u64, 41, 1, 39, 40, 80, 200, 500] {
            pa = (pa + 3) % 8;
            assert_eq!(fast.write_run(pa, n), scalar_run(&mut slow, pa, n), "run {n} at {pa}");
            assert_eq!(fast.wear(), slow.wear());
            assert_eq!(fast.write_count(pa), slow.write_count(pa));
            if fast.is_dead() {
                break;
            }
        }
    }

    /// Mirror of `write_wl_range`'s contract via scalar `write_wl` calls.
    fn scalar_wl_range(dev: &mut NvmDevice, start: Pa, n: u64) -> (u64, WriteOutcome) {
        let mut applied = 0;
        let mut last = WriteOutcome::Ok;
        while applied < n {
            let was_dead = dev.is_dead();
            let out = dev.write_wl(start + applied);
            match out {
                WriteOutcome::PowerLost => return (applied, out),
                WriteOutcome::DeviceDead => return (applied + u64::from(!was_dead), out),
                _ => {
                    applied += 1;
                    last = out;
                }
            }
        }
        (applied, last)
    }

    #[test]
    fn write_wl_range_matches_scalar_writes_through_failures_and_death() {
        // Endurance 3, shift 2 -> 16 spares on 64 lines: repeated range
        // sweeps walk every chunk from clean through failing to death.
        let mut fast = tiny(64, 3, 2);
        let mut slow = tiny(64, 3, 2);
        loop {
            let got = fast.write_wl_range(0, 64);
            let want = scalar_wl_range(&mut slow, 0, 64);
            assert_eq!(got, want);
            assert_eq!(fast.wear(), slow.wear());
            assert_eq!(fast.write_counts(), slow.write_counts());
            if fast.is_dead() {
                break;
            }
        }
        // Misaligned sub-ranges on a fresh device.
        let mut fast = tiny(256, 5, 2);
        let mut slow = tiny(256, 5, 2);
        for (start, n) in [(3u64, 100u64), (0, 1), (250, 6), (17, 129), (0, 256)] {
            assert_eq!(fast.write_wl_range(start, n), scalar_wl_range(&mut slow, start, n));
            assert_eq!(fast.wear(), slow.wear());
        }
        assert_eq!(fast.write_counts(), slow.write_counts());
    }

    #[test]
    fn write_wl_range_with_probe_and_faults_matches_scalar() {
        let plan = FaultPlan {
            stuck_lines: vec![5],
            transient_rate: 0.1,
            power_loss_at_writes: vec![70],
            seed: 3,
        };
        let mut fast = tiny(32, 4, 2);
        let mut slow = tiny(32, 4, 2);
        fast.install_fault_plan(&plan).unwrap();
        slow.install_fault_plan(&plan).unwrap();
        fast.enable_wear_probe();
        slow.enable_wear_probe();
        for _ in 0..6 {
            let got = fast.write_wl_range(0, 32);
            let want = scalar_wl_range(&mut slow, 0, 32);
            assert_eq!(got, want);
            assert_eq!(fast.wear(), slow.wear());
            assert_eq!(fast.fault_counters(), slow.fault_counters());
            assert_eq!(fast.wear_snapshot(), slow.wear_snapshot());
            if fast.power_lost() {
                fast.restore_power();
                slow.restore_power();
            }
            if fast.is_dead() {
                break;
            }
        }
        assert_probe_matches_full_stats(&fast);
    }

    #[test]
    fn write_run_of_zero_is_a_no_op() {
        let mut dev = tiny(4, 5, 1);
        assert_eq!(dev.write_run(0, 0), (0, WriteOutcome::Ok));
        assert_eq!(dev.wear().total_writes, 0);
    }

    #[test]
    fn reset_restores_countdowns_mid_cycle() {
        // Leave a line mid-way to its next failure, reset, and confirm the
        // countdown starts over from a full endurance budget.
        let mut dev = tiny(16, 5, 2);
        for _ in 0..3 {
            assert_eq!(dev.write(2), WriteOutcome::Ok);
        }
        dev.reset();
        for _ in 0..4 {
            assert_eq!(dev.write(2), WriteOutcome::Ok);
        }
        assert_eq!(dev.write(2), WriteOutcome::LineFailed);
    }

    #[test]
    fn reset_restores_gaussian_countdowns() {
        let cfg = NvmConfig::builder()
            .lines(8)
            .banks(1)
            .endurance(100)
            .spare_shift(1)
            .variation(EnduranceModel::Gaussian { cov: 0.3 })
            .seed(9)
            .build()
            .unwrap();
        let mut dev = NvmDevice::new(cfg);
        let limit0 = dev.limit(0);
        for _ in 0..limit0 / 2 {
            assert_eq!(dev.write(0), WriteOutcome::Ok);
        }
        dev.reset();
        for _ in 0..limit0 - 1 {
            assert_eq!(dev.write(0), WriteOutcome::Ok);
        }
        assert_eq!(dev.write(0), WriteOutcome::LineFailed);
    }

    #[test]
    fn overhead_fraction() {
        let mut dev = tiny(16, 100, 2);
        for _ in 0..3 {
            dev.write(1);
        }
        dev.write_wl(2);
        assert!((dev.wear().overhead_fraction() - 0.25).abs() < 1e-12);
    }

    // ---- fault injection -------------------------------------------------

    use crate::fault::FaultPlan;

    #[test]
    fn zero_fault_plan_installs_nothing() {
        let mut faulted = tiny(16, 100, 2);
        faulted.install_fault_plan(&FaultPlan::default()).unwrap();
        let mut clean = tiny(16, 100, 2);
        for pa in [3u64, 3, 7, 3] {
            assert_eq!(faulted.write(pa), clean.write(pa));
        }
        assert_eq!(faulted.wear(), clean.wear());
        assert_eq!(faulted.fault_counters(), FaultCounters::default());
    }

    #[test]
    fn install_rejects_invalid_plans() {
        let mut dev = tiny(16, 100, 2);
        assert!(dev
            .install_fault_plan(&FaultPlan { transient_rate: 1.5, ..Default::default() })
            .is_err());
        assert!(dev
            .install_fault_plan(&FaultPlan { stuck_lines: vec![16], ..Default::default() })
            .is_err());
    }

    #[test]
    fn stuck_lines_consume_spares_up_front() {
        // 16 lines, shift 2 -> 4 spares.
        let mut dev = tiny(16, 100, 2);
        dev.install_fault_plan(&FaultPlan { stuck_lines: vec![1, 5, 9], ..Default::default() })
            .unwrap();
        assert!(!dev.is_dead());
        assert_eq!(dev.wear().failed_lines, 3);
        assert_eq!(dev.spares_remaining(), 1);
        assert_eq!(dev.fault_counters().stuck_lines_remapped, 3);
        // The remapped addresses keep working against fresh spares.
        assert_eq!(dev.write(1), WriteOutcome::Ok);
    }

    #[test]
    fn enough_stuck_lines_kill_the_device() {
        let mut dev = tiny(16, 100, 2);
        dev.install_fault_plan(&FaultPlan {
            stuck_lines: vec![0, 1, 2, 3, 4],
            ..Default::default()
        })
        .unwrap();
        assert!(dev.is_dead());
        assert_eq!(dev.write(7), WriteOutcome::DeviceDead);
    }

    #[test]
    fn power_loss_fires_at_the_scheduled_write_index() {
        let mut dev = tiny(16, 100, 2);
        dev.install_fault_plan(&FaultPlan { power_loss_at_writes: vec![3], ..Default::default() })
            .unwrap();
        assert_eq!(dev.write(0), WriteOutcome::Ok);
        assert_eq!(dev.write_wl(1), WriteOutcome::Ok);
        assert_eq!(dev.write(2), WriteOutcome::Ok);
        // Three writes applied: the fourth attempt finds the power gone.
        assert_eq!(dev.write(3), WriteOutcome::PowerLost);
        assert!(dev.power_lost());
        assert_eq!(dev.fault_counters().power_losses, 1);
        // Everything is dropped until power returns; no counters move.
        let before = *dev.wear();
        assert_eq!(dev.write(0), WriteOutcome::PowerLost);
        assert_eq!(dev.write_run(0, 10), (0, WriteOutcome::PowerLost));
        assert_eq!(*dev.wear(), before);
        dev.restore_power();
        assert!(!dev.power_lost());
        assert_eq!(dev.fault_counters().power_restores, 1);
        assert_eq!(dev.write(3), WriteOutcome::Ok);
        assert_eq!(dev.wear().total_writes, 4);
    }

    #[test]
    fn restore_power_is_idempotent() {
        let mut dev = tiny(16, 100, 2);
        dev.install_fault_plan(&FaultPlan { power_loss_at_writes: vec![1], ..Default::default() })
            .unwrap();
        dev.write(0);
        assert_eq!(dev.write(0), WriteOutcome::PowerLost);
        dev.restore_power();
        dev.restore_power();
        assert_eq!(dev.fault_counters().power_restores, 1);
    }

    #[test]
    fn write_run_stops_at_a_power_loss_mid_run() {
        let mut dev = tiny(16, 1000, 2);
        dev.install_fault_plan(&FaultPlan { power_loss_at_writes: vec![7], ..Default::default() })
            .unwrap();
        let (applied, out) = dev.write_run(2, 20);
        assert_eq!((applied, out), (7, WriteOutcome::PowerLost));
        assert_eq!(dev.wear().total_writes, 7);
        dev.restore_power();
        let (applied, out) = dev.write_run(2, 13);
        assert_eq!((applied, out), (13, WriteOutcome::Ok));
    }

    #[test]
    fn transient_faults_wear_without_serving_and_retry() {
        // Force a fault on (statistically) many writes and check the
        // accounting identity total = demand + overhead still holds and
        // every fault produced exactly one retry.
        let mut dev = tiny(16, 1_000_000, 2);
        dev.install_fault_plan(&FaultPlan { transient_rate: 0.2, seed: 11, ..Default::default() })
            .unwrap();
        for i in 0..1_000u64 {
            let out = dev.write(i % 16);
            assert!(matches!(out, WriteOutcome::Ok | WriteOutcome::LineFailed));
        }
        let fc = dev.fault_counters();
        assert!(fc.transient_write_faults > 100, "faults {}", fc.transient_write_faults);
        assert_eq!(fc.retry_writes, fc.transient_write_faults);
        let w = dev.wear();
        assert_eq!(w.demand_writes, 1_000);
        assert_eq!(w.overhead_writes, fc.transient_write_faults);
        assert_eq!(w.total_writes, w.demand_writes + w.overhead_writes);
    }

    /// The key equivalence: under an identical fault plan, `write_run` must
    /// be bit-identical to scalar `write` calls — same wear, same fault
    /// counters, same power-loss points.
    #[test]
    fn faulted_write_run_matches_faulted_scalar_writes() {
        let plan = FaultPlan {
            stuck_lines: vec![3],
            transient_rate: 0.05,
            power_loss_at_writes: vec![40, 90, 400],
            seed: 99,
        };
        let mut fast = tiny(16, 20, 4); // limit 20, 1 spare... shift 4 -> 1 spare
        let mut slow = tiny(16, 20, 4);
        fast.install_fault_plan(&plan).unwrap();
        slow.install_fault_plan(&plan).unwrap();
        let mut pa = 0u64;
        for n in [1u64, 7, 30, 4, 55, 2, 100, 300] {
            pa = (pa + 5) % 16;
            let got = fast.write_run(pa, n);
            let want = scalar_run(&mut slow, pa, n);
            assert_eq!(got, want, "run {n} at {pa}");
            assert_eq!(fast.wear(), slow.wear(), "counters after run {n}");
            assert_eq!(fast.fault_counters(), slow.fault_counters());
            assert_eq!(fast.power_lost(), slow.power_lost());
            if fast.power_lost() {
                fast.restore_power();
                slow.restore_power();
            }
            if fast.is_dead() {
                break;
            }
        }
    }

    #[test]
    fn checkpoint_resume_continues_bit_exactly() {
        // Run a faulted, probed device mid-way, checkpoint it, and resume
        // into a freshly built twin: both must serve the remaining traffic
        // identically, outcome by outcome.
        let plan = FaultPlan {
            stuck_lines: vec![2],
            transient_rate: 0.05,
            power_loss_at_writes: vec![30, 200],
            seed: 13,
        };
        let build = || {
            let mut d = tiny(32, 8, 2);
            d.install_fault_plan(&plan).unwrap();
            d.enable_wear_probe();
            d
        };
        let mut orig = build();
        for i in 0..120u64 {
            orig.write(i % 32);
            if orig.power_lost() {
                orig.restore_power();
            }
        }
        let mut w = sawl_ckpt::Writer::new();
        orig.ckpt_save(&mut w);
        let payload = w.into_payload();

        let mut resumed = build();
        let mut r = sawl_ckpt::Reader::new(&payload);
        resumed.ckpt_restore(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(orig.wear(), resumed.wear());
        assert_eq!(orig.fault_counters(), resumed.fault_counters());
        assert_eq!(orig.wear_snapshot(), resumed.wear_snapshot());
        for i in 0..400u64 {
            assert_eq!(orig.write(i % 32), resumed.write(i % 32), "write {i}");
            assert_eq!(orig.power_lost(), resumed.power_lost());
            if orig.power_lost() {
                orig.restore_power();
                resumed.restore_power();
            }
            if orig.is_dead() {
                break;
            }
        }
        assert_eq!(orig.write_counts(), resumed.write_counts());
        // Identical state encodes to identical bytes.
        let (mut wa, mut wb) = (sawl_ckpt::Writer::new(), sawl_ckpt::Writer::new());
        orig.ckpt_save(&mut wa);
        resumed.ckpt_save(&mut wb);
        assert_eq!(wa.into_payload(), wb.into_payload());
    }

    #[test]
    fn checkpoint_restore_rejects_shape_mismatches() {
        let mut src = tiny(16, 5, 2);
        src.write_run(1, 7);
        let mut w = sawl_ckpt::Writer::new();
        src.ckpt_save(&mut w);
        let payload = w.into_payload();

        // Different line count: countdown table length mismatch.
        let mut wrong_lines = tiny(32, 5, 2);
        let mut r = sawl_ckpt::Reader::new(&payload);
        assert!(matches!(wrong_lines.ckpt_restore(&mut r), Err(sawl_ckpt::CkptError::Corrupt(_))));

        // Fault-state presence mismatch.
        let mut faulted = tiny(16, 5, 2);
        faulted
            .install_fault_plan(&FaultPlan { transient_rate: 0.1, ..Default::default() })
            .unwrap();
        let mut r = sawl_ckpt::Reader::new(&payload);
        assert!(matches!(faulted.ckpt_restore(&mut r), Err(sawl_ckpt::CkptError::Corrupt(_))));

        // Truncated payload surfaces as Truncated, not a panic.
        let mut fresh = tiny(16, 5, 2);
        let mut r = sawl_ckpt::Reader::new(&payload[..payload.len() / 2]);
        assert!(fresh.ckpt_restore(&mut r).is_err());
    }

    #[test]
    fn reset_replays_the_same_fault_sequence() {
        let plan = FaultPlan {
            stuck_lines: vec![2],
            transient_rate: 0.1,
            power_loss_at_writes: vec![25],
            seed: 5,
        };
        let mut dev = tiny(16, 1000, 2);
        dev.install_fault_plan(&plan).unwrap();
        let run = |d: &mut NvmDevice| {
            let mut outs = Vec::new();
            for i in 0..40u64 {
                outs.push(d.write(i % 16));
                if d.power_lost() {
                    d.restore_power();
                }
            }
            (outs, *d.wear(), d.fault_counters())
        };
        let first = run(&mut dev);
        dev.reset();
        // After reset the stuck line is re-remapped and the gap RNG
        // restarts, except power_restores which reset to zero too.
        assert_eq!(dev.wear().failed_lines, 1);
        let second = run(&mut dev);
        assert_eq!(first, second);
    }
}
