//! Lifetime experiments (§4.3).
//!
//! Drive demand writes through a wear leveler until the device dies (spare
//! pool exhausted) and report the **normalized lifetime**: demand writes
//! served divided by the ideal-lifetime write count `lines × Wmax` — the
//! same normalization the paper uses against its "ideal lifetime ... with
//! fully uniform writes".
//!
//! Reads are skipped in lifetime runs: they do not wear cells, and the
//! paper's BPA attack issues writes only. (SPEC-like workloads *do* contain
//! reads; for lifetime purposes we play only their writes, which preserves
//! the write-address distribution exactly.)

use serde::{Deserialize, Serialize};

use sawl_nvm::FaultPlan;
use sawl_telemetry::{Series, TelemetrySpec};
use sawl_timing::TimingSpec;

use crate::driver::DriverError;
use crate::resume::ResumableRun;
use crate::spec::{DeviceSpec, SchemeSpec, WorkloadSpec};
use crate::timing::LatencyReport;

/// A lifetime run specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifetimeExperiment {
    /// Human-readable id used for seeding and reports (e.g. "fig3/32k/8").
    pub id: String,
    /// Scheme under test.
    pub scheme: SchemeSpec,
    /// Workload.
    pub workload: WorkloadSpec,
    /// Logical data lines (power of two).
    pub data_lines: u64,
    /// Device endurance/spares.
    pub device: DeviceSpec,
    /// Safety cap on demand writes (0 = 4× the ideal lifetime).
    pub max_demand_writes: u64,
    /// Deterministic fault plan installed on the device before the run
    /// (`None` — or a zero plan — leaves the run byte-identical to the
    /// fault-free path).
    #[serde(default)]
    pub fault: Option<FaultPlan>,
    /// Optional time-series telemetry: sample the listed channels every
    /// `stride` demand writes. `None` keeps the run bit-identical to an
    /// uninstrumented one (the recorder only observes).
    #[serde(default)]
    pub telemetry: Option<TelemetrySpec>,
    /// Optional closed-loop timing model: serve every demand write through
    /// the multi-channel controller and report the latency distribution
    /// in [`LifetimeResult::latency`]. `Some` serves quiet spans in closed
    /// form and every other write scalar — every write scalar on a
    /// fault-armed device — so a fault-free run keeps the request sequence
    /// and device state of the untimed run.
    #[serde(default)]
    pub timing: Option<TimingSpec>,
}

/// Outcome of a lifetime run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifetimeResult {
    /// The experiment id.
    pub id: String,
    /// Scheme name.
    pub scheme: String,
    /// Workload name.
    pub workload: String,
    /// Demand writes served / (physical lines × Wmax).
    pub normalized_lifetime: f64,
    /// Demand writes served before death (or the cap).
    pub demand_writes: u64,
    /// Wear-leveling writes issued.
    pub overhead_writes: u64,
    /// overhead / demand.
    pub overhead_fraction: f64,
    /// Whether the device actually died (false = hit the write cap).
    pub device_died: bool,
    /// Coefficient of variation of final per-line wear.
    pub wear_cov: f64,
    /// Gini coefficient of final per-line wear.
    pub wear_gini: f64,
    /// Stuck-at lines remapped into the spare pool at plan-install time.
    #[serde(default)]
    pub stuck_lines_remapped: u64,
    /// Transient write faults injected and survived via verify-and-retry.
    #[serde(default)]
    pub transient_faults: u64,
    /// Power-loss events triggered during the run.
    #[serde(default)]
    pub power_losses: u64,
    /// Power losses the driver recovered from via
    /// [`WearLeveler::recover`](sawl_algos::WearLeveler::recover).
    #[serde(default)]
    pub recoveries: u64,
    /// Recoveries that replayed a journaled in-flight operation.
    #[serde(default)]
    pub journal_replays: u64,
    /// Recoveries that rolled a journaled operation back.
    #[serde(default)]
    pub journal_rollbacks: u64,
    /// Spare lines left when the run ended (consumed by worn-out lines and
    /// stuck-at remaps alike).
    #[serde(default)]
    pub spares_remaining: u64,
    /// Sampled time series, present when the experiment asked for one.
    #[serde(default)]
    pub telemetry: Option<Series>,
    /// Latency distribution and stall attribution, present when the
    /// experiment attached a timing model.
    #[serde(default)]
    pub latency: Option<LatencyReport>,
}

/// Run one lifetime experiment to completion.
pub fn run_lifetime(exp: &LifetimeExperiment) -> Result<LifetimeResult, DriverError> {
    let mut run = ResumableRun::build(exp)?;
    run.run_to_end()?;
    Ok(run.into_result())
}

/// Assemble a [`LifetimeResult`] from a finished run's final device state
/// and pump bookkeeping.
pub(crate) fn build_result(
    exp: &LifetimeExperiment,
    workload: String,
    dev: &sawl_nvm::NvmDevice,
    pump: &crate::driver::PumpStats,
    telemetry: Option<Series>,
    latency: Option<LatencyReport>,
) -> LifetimeResult {
    let wear = *dev.wear();
    let stats = dev.wear_stats();
    let faults = dev.fault_counters();
    // Normalize against the *logical* capacity so schemes with different
    // reserved space (gap slots, translation region) compare on the same
    // denominator — the paper's ideal lifetime of the user-visible device.
    let ideal = exp.data_lines as f64 * f64::from(exp.device.endurance);
    LifetimeResult {
        id: exp.id.clone(),
        scheme: exp.scheme.name(),
        workload,
        normalized_lifetime: wear.demand_writes as f64 / ideal,
        demand_writes: wear.demand_writes,
        overhead_writes: wear.overhead_writes,
        overhead_fraction: if wear.demand_writes == 0 {
            0.0
        } else {
            wear.overhead_writes as f64 / wear.demand_writes as f64
        },
        device_died: dev.is_dead(),
        wear_cov: stats.cov,
        wear_gini: stats.gini,
        stuck_lines_remapped: faults.stuck_lines_remapped,
        transient_faults: faults.transient_write_faults,
        power_losses: faults.power_losses,
        recoveries: pump.recoveries,
        journal_replays: pump.journal_replays,
        journal_rollbacks: pump.journal_rollbacks,
        spares_remaining: dev.spares_remaining(),
        telemetry,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp(scheme: SchemeSpec, workload: WorkloadSpec, endurance: u32) -> LifetimeExperiment {
        LifetimeExperiment {
            id: format!("test/{}/{}", scheme.name(), workload.name()),
            scheme,
            workload,
            data_lines: 1 << 10,
            device: DeviceSpec { endurance, ..Default::default() },
            max_demand_writes: 0,
            fault: None,
            telemetry: None,
            timing: None,
        }
    }

    #[test]
    fn ideal_reaches_near_full_lifetime() {
        let r = run_lifetime(&exp(SchemeSpec::Ideal, WorkloadSpec::Raa, 500)).unwrap();
        assert!(r.device_died);
        assert!(r.normalized_lifetime > 0.9, "{}", r.normalized_lifetime);
        assert!(r.wear_cov < 0.1);
    }

    #[test]
    fn baseline_dies_early_under_raa() {
        let r = run_lifetime(&exp(SchemeSpec::Baseline, WorkloadSpec::Raa, 500)).unwrap();
        assert!(r.device_died);
        assert!(r.normalized_lifetime < 0.05, "{}", r.normalized_lifetime);
        assert!(r.wear_gini > 0.9);
    }

    #[test]
    fn pcms_beats_baseline_under_bpa() {
        let bpa = WorkloadSpec::Bpa { writes_per_target: 2048 };
        let base = run_lifetime(&exp(SchemeSpec::Baseline, bpa.clone(), 1000)).unwrap();
        let pcms = run_lifetime(&exp(SchemeSpec::PcmS { region_lines: 4, period: 16 }, bpa, 1000))
            .unwrap();
        assert!(
            pcms.normalized_lifetime > 3.0 * base.normalized_lifetime,
            "pcm-s {} vs baseline {}",
            pcms.normalized_lifetime,
            base.normalized_lifetime
        );
        assert!(pcms.overhead_fraction > 0.05);
    }

    #[test]
    fn results_are_reproducible() {
        let e = exp(
            SchemeSpec::Tlsr { region_lines: 64, inner_period: 8, outer_period: 32 },
            WorkloadSpec::Bpa { writes_per_target: 1024 },
            1000,
        );
        let a = run_lifetime(&e).unwrap();
        let b = run_lifetime(&e).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn write_cap_prevents_infinite_runs() {
        let mut e = exp(SchemeSpec::Ideal, WorkloadSpec::Raa, 1_000_000);
        e.max_demand_writes = 10_000;
        let r = run_lifetime(&e).unwrap();
        assert!(!r.device_died);
        assert_eq!(r.demand_writes, 10_000);
    }

    #[test]
    fn faulted_run_reports_fault_and_recovery_counters() {
        let mut e = exp(
            SchemeSpec::PcmS { region_lines: 4, period: 16 },
            WorkloadSpec::Bpa { writes_per_target: 512 },
            1_000_000,
        );
        e.max_demand_writes = 50_000;
        e.fault = Some(FaultPlan {
            stuck_lines: vec![3, 17],
            transient_rate: 0.001,
            power_loss_at_writes: vec![10_000, 30_000],
            seed: 11,
        });
        let r = run_lifetime(&e).unwrap();
        assert_eq!(r.stuck_lines_remapped, 2);
        assert!(r.transient_faults > 0, "{r:?}");
        assert_eq!(r.power_losses, 2);
        assert_eq!(r.recoveries, 2);
        assert_eq!(r.demand_writes, 50_000);
        assert!(r.spares_remaining < 1 << 4, "spares not consumed: {r:?}");
        // Faulted runs are exactly reproducible too.
        assert_eq!(r, run_lifetime(&e).unwrap());
    }

    #[test]
    fn telemetry_observes_without_changing_the_outcome() {
        let mut e = exp(
            SchemeSpec::PcmS { region_lines: 4, period: 16 },
            WorkloadSpec::Bpa { writes_per_target: 512 },
            500,
        );
        e.max_demand_writes = 40_000;
        let plain = run_lifetime(&e).unwrap();
        e.telemetry = Some(TelemetrySpec::with_stride(10_000));
        let mut teled = run_lifetime(&e).unwrap();
        let series = teled.telemetry.take().unwrap();
        // Stripping the series leaves a result identical to the
        // uninstrumented run: the recorder only observes.
        assert_eq!(teled, plain);
        assert_eq!(series.samples.len(), 4);
        assert_eq!(series.samples[0].requests, 10_000);
        assert_eq!(
            series.samples[3].counter(sawl_telemetry::Channel::DemandWrites),
            Some(plain.demand_writes)
        );
    }

    #[test]
    fn timing_observes_without_changing_the_outcome() {
        let mut e = exp(
            SchemeSpec::PcmS { region_lines: 4, period: 16 },
            WorkloadSpec::Bpa { writes_per_target: 512 },
            1_000_000,
        );
        e.max_demand_writes = 30_000;
        let plain = run_lifetime(&e).unwrap();
        e.timing = Some(TimingSpec::default());
        let mut timed = run_lifetime(&e).unwrap();
        let latency = timed.latency.take().unwrap();
        // Stripping the latency report leaves a result identical to the
        // batched untimed run: the scalar serving order is bit-equivalent.
        assert_eq!(timed, plain);
        assert_eq!(latency.requests, 30_000);
        assert!(latency.p999_ns >= latency.p99_ns && latency.p99_ns >= latency.p50_ns);
        assert!(latency.p50_ns >= 350, "writes cost at least the device write: {latency:?}");
        // PCM-S exchanges show up as exchange-attributed stall, never as
        // merge/split (it has no regions to reorganize).
        assert!(latency.stall_exchange_ns > 0.0, "{latency:?}");
        assert_eq!(latency.stall_reorg_ns, 0.0);
    }

    #[test]
    fn sawl_timing_attributes_reorg_stall() {
        use sawl_core::SawlConfig;
        let mut e = exp(
            SchemeSpec::Sawl(SawlConfig {
                cmt_entries: 64,
                swap_period: 16,
                sample_interval: 500,
                observation_window: 2_000,
                settling_window: 1_000,
                ..SawlConfig::default()
            }),
            WorkloadSpec::Zipf { exponent: 1.0, write_ratio: 1.0 },
            1_000_000,
        );
        e.max_demand_writes = 40_000;
        e.timing = Some(TimingSpec::default());
        let r = run_lifetime(&e).unwrap();
        let latency = r.latency.unwrap();
        // SAWL pays CMT misses and performs both exchanges and merges.
        assert!(latency.stall_trans_miss_ns > 0.0, "{latency:?}");
        assert!(latency.stall_exchange_ns > 0.0, "{latency:?}");
        assert!(latency.stall_reorg_ns > 0.0, "{latency:?}");
    }

    #[test]
    fn zero_telemetry_stride_is_a_spec_error() {
        let mut e = exp(SchemeSpec::Ideal, WorkloadSpec::Raa, 500);
        e.telemetry = Some(TelemetrySpec { stride: 0, ..Default::default() });
        let err = run_lifetime(&e).unwrap_err();
        assert!(matches!(err, DriverError::Spec(_)), "{err:?}");
    }

    #[test]
    fn invalid_fault_plan_is_a_typed_error() {
        let mut e = exp(SchemeSpec::Ideal, WorkloadSpec::Raa, 500);
        e.fault = Some(FaultPlan { transient_rate: 1.5, ..Default::default() });
        let err = run_lifetime(&e).unwrap_err();
        assert!(matches!(err, DriverError::FaultPlan(_)), "{err:?}");
    }
}
