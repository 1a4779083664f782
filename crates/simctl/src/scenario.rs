//! Scenarios: workload × scheme × device → report.
//!
//! A [`Scenario`] is one point of an experiment grid — which scheme, which
//! workload, which device, and which [`Probe`] to take. [`run`] executes
//! one scenario through the shared [driver](crate::driver);
//! [`run_all`] shards a whole grid across the machine's cores through
//! [`parallel_map`](crate::runner::parallel_map), which is how every sweep
//! binary gets its parallelism — serial hand-rolled sweeps don't exist in
//! this codebase.
//!
//! The three probes mirror the paper's three kinds of numbers:
//!
//! * [`Probe::Lifetime`] — §4.3: write until the device dies, report the
//!   normalized lifetime (delegates to [`crate::lifetime`]).
//! * [`Probe::Perf`] — §4.4: replay a SPEC-like benchmark through the
//!   timing model, report IPC degradation (delegates to [`crate::perf`]).
//! * [`Probe::Trace`] — §4.2, Figs. 12–14: replay a fixed request count on
//!   a wear-free device and report the CMT hit rate, plus the engine's
//!   full adaptation history when the scheme is SAWL.

use serde::{Deserialize, Serialize};

use sawl_core::{History, SawlStats};
use sawl_nvm::{FaultPlan, NvmDevice};
use sawl_telemetry::{Series, TelemetrySpec};
use sawl_timing::TimingSpec;

use crate::driver::{pump_telemetry, DriverError};
use crate::lifetime::{run_lifetime, LifetimeExperiment, LifetimeResult};
use crate::perf::{run_perf, PerfExperiment, PerfResult};
use crate::runner::parallel_map;
use crate::seed::stable_seed;
use crate::spec::{DeviceSpec, SchemeSpec, TranslationKind, WorkloadSpec};
use crate::telemetry::TelemetryRun;

/// What to measure when a scenario runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Probe {
    /// Write until the device dies (or `max_demand_writes`; 0 = 4× the
    /// ideal lifetime) and report the normalized lifetime.
    Lifetime {
        /// Safety cap on demand writes (0 = 4× the ideal lifetime).
        max_demand_writes: u64,
    },
    /// Replay the workload (which must be a SPEC-like benchmark) through
    /// the closed-loop timing model and report IPC degradation.
    Perf {
        /// Requests to replay while measuring.
        requests: u64,
        /// Requests to replay before measurement starts.
        warmup_requests: u64,
    },
    /// Replay a fixed request count and report hit rate and, for SAWL,
    /// the adaptation history.
    Trace {
        /// Requests to replay.
        requests: u64,
    },
}

/// One experiment point: scheme × workload × device, plus the probe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable id; seeds the run and labels the report.
    pub id: String,
    /// Scheme under test.
    pub scheme: SchemeSpec,
    /// Workload driving it.
    pub workload: WorkloadSpec,
    /// Logical data lines (power of two).
    pub data_lines: u64,
    /// Device parameters.
    pub device: DeviceSpec,
    /// What to measure.
    pub probe: Probe,
    /// Deterministic fault plan for the run (lifetime probes only; `None`
    /// — or a zero plan — leaves the run byte-identical to fault-free).
    #[serde(default)]
    pub fault: Option<FaultPlan>,
    /// Optional time-series telemetry (lifetime and trace probes; [`run`]
    /// rejects perf probes carrying one — the timing loop replays requests
    /// outside the telemetry clock).
    #[serde(default)]
    pub telemetry: Option<TelemetrySpec>,
    /// Optional closed-loop timing model (lifetime probes only; perf
    /// probes always carry their own timing model, trace probes replay on
    /// a wear-free device with no latency semantics).
    #[serde(default)]
    pub timing: Option<TimingSpec>,
}

impl Scenario {
    /// A lifetime scenario running until device death.
    pub fn lifetime(
        id: impl Into<String>,
        scheme: SchemeSpec,
        workload: WorkloadSpec,
        data_lines: u64,
        device: DeviceSpec,
    ) -> Self {
        Self {
            id: id.into(),
            scheme,
            workload,
            data_lines,
            device,
            probe: Probe::Lifetime { max_demand_writes: 0 },
            fault: None,
            telemetry: None,
            timing: None,
        }
    }

    /// A performance scenario over a SPEC-like benchmark.
    pub fn perf(
        id: impl Into<String>,
        scheme: SchemeSpec,
        benchmark: sawl_trace::SpecBenchmark,
        data_lines: u64,
        requests: u64,
        warmup_requests: u64,
    ) -> Self {
        Self {
            id: id.into(),
            scheme,
            workload: WorkloadSpec::Spec(benchmark),
            data_lines,
            device: DeviceSpec { endurance: u32::MAX, ..Default::default() },
            probe: Probe::Perf { requests, warmup_requests },
            fault: None,
            telemetry: None,
            timing: None,
        }
    }

    /// A trace scenario on a wear-free device (hit-rate/adaptation runs
    /// never wear anything out).
    pub fn trace(
        id: impl Into<String>,
        scheme: SchemeSpec,
        workload: WorkloadSpec,
        data_lines: u64,
        requests: u64,
    ) -> Self {
        Self {
            id: id.into(),
            scheme,
            workload,
            data_lines,
            device: DeviceSpec { endurance: u32::MAX, ..Default::default() },
            probe: Probe::Trace { requests },
            fault: None,
            telemetry: None,
            timing: None,
        }
    }

    /// Replace the demand-write cap (lifetime probes only).
    pub fn with_write_cap(mut self, cap: u64) -> Self {
        match &mut self.probe {
            Probe::Lifetime { max_demand_writes } => *max_demand_writes = cap,
            _ => panic!("write caps apply to lifetime scenarios"),
        }
        self
    }

    /// Attach a fault plan (lifetime probes only; [`run`] rejects other
    /// probes carrying one).
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Attach a telemetry spec (lifetime and trace probes; [`run`] rejects
    /// perf probes carrying one).
    pub fn with_telemetry(mut self, spec: TelemetrySpec) -> Self {
        self.telemetry = Some(spec);
        self
    }

    /// Attach a timing model (lifetime probes only; [`run`] rejects other
    /// probes carrying one).
    pub fn with_timing(mut self, spec: TimingSpec) -> Self {
        self.timing = Some(spec);
        self
    }
}

/// The SAWL-specific outcome of a trace scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptationTrace {
    /// The engine's sampled time series (Figs. 12–14).
    pub history: History,
    /// Run totals: merges, splits, exchanges, decisions.
    pub stats: SawlStats,
}

/// Outcome of a trace scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceReport {
    /// Experiment id.
    pub id: String,
    /// Scheme name.
    pub scheme: String,
    /// Workload name.
    pub workload: String,
    /// Whole-run CMT hit rate (1.0 for schemes without a CMT).
    pub hit_rate: f64,
    /// Wear-leveling writes per demand write.
    pub overhead_fraction: f64,
    /// Demand writes served.
    pub demand_writes: u64,
    /// The adaptation time series, when the scheme is SAWL.
    pub adaptation: Option<AdaptationTrace>,
    /// Sampled time series, present when the scenario asked for one.
    #[serde(default)]
    pub telemetry: Option<Series>,
}

impl TraceReport {
    /// The adaptation trace; panics when the scheme was not SAWL.
    pub fn adaptation(&self) -> &AdaptationTrace {
        self.adaptation.as_ref().expect("scenario scheme was not SAWL")
    }
}

/// Outcome of a scenario, by probe kind.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Report {
    /// From a [`Probe::Lifetime`] run.
    Lifetime(LifetimeResult),
    /// From a [`Probe::Perf`] run.
    Perf(PerfResult),
    /// From a [`Probe::Trace`] run.
    Trace(TraceReport),
}

impl Report {
    /// The lifetime result; panics on a non-lifetime report.
    pub fn lifetime(&self) -> &LifetimeResult {
        match self {
            Self::Lifetime(r) => r,
            _ => panic!("report is not from a lifetime probe"),
        }
    }

    /// The performance result; panics on a non-perf report.
    pub fn perf(&self) -> &PerfResult {
        match self {
            Self::Perf(r) => r,
            _ => panic!("report is not from a perf probe"),
        }
    }

    /// The trace result; panics on a non-trace report.
    pub fn trace(&self) -> &TraceReport {
        match self {
            Self::Trace(r) => r,
            _ => panic!("report is not from a trace probe"),
        }
    }
}

/// Run one scenario to completion.
pub fn run(s: &Scenario) -> Result<Report, DriverError> {
    if s.fault.is_some() && !matches!(s.probe, Probe::Lifetime { .. }) {
        return Err(DriverError::Spec(format!(
            "fault plans apply to lifetime scenarios, but \"{}\" carries a {:?} probe",
            s.id, s.probe
        )));
    }
    if s.telemetry.is_some() && matches!(s.probe, Probe::Perf { .. }) {
        return Err(DriverError::Spec(format!(
            "telemetry applies to lifetime and trace scenarios, but \"{}\" carries a perf probe",
            s.id
        )));
    }
    if s.timing.is_some() && !matches!(s.probe, Probe::Lifetime { .. }) {
        return Err(DriverError::Spec(format!(
            "timing models apply to lifetime scenarios, but \"{}\" carries a {:?} probe",
            s.id, s.probe
        )));
    }
    match s.probe {
        Probe::Lifetime { max_demand_writes } => {
            Ok(Report::Lifetime(run_lifetime(&LifetimeExperiment {
                id: s.id.clone(),
                scheme: s.scheme.clone(),
                workload: s.workload.clone(),
                data_lines: s.data_lines,
                device: s.device,
                max_demand_writes,
                fault: s.fault.clone(),
                telemetry: s.telemetry.clone(),
                timing: s.timing,
            })?))
        }
        Probe::Perf { requests, warmup_requests } => {
            let WorkloadSpec::Spec(benchmark) = s.workload else {
                return Err(DriverError::Spec(format!(
                    "perf scenarios need a SPEC-like benchmark workload, got {:?}",
                    s.workload
                )));
            };
            Ok(Report::Perf(run_perf(&PerfExperiment {
                id: s.id.clone(),
                scheme: s.scheme.clone(),
                benchmark,
                data_lines: s.data_lines,
                device: s.device,
                requests,
                warmup_requests,
            })?))
        }
        Probe::Trace { requests } => Ok(Report::Trace(run_trace(s, requests)?)),
    }
}

/// Run a grid of scenarios, sharded across cores; reports keep the input
/// order. The first defective scenario's error is returned.
pub fn run_all(scenarios: &[Scenario]) -> Result<Vec<Report>, DriverError> {
    parallel_map(scenarios, run).into_iter().collect()
}

fn run_trace(s: &Scenario, requests: u64) -> Result<TraceReport, DriverError> {
    let seed = stable_seed(&s.id);
    // One monomorphic pump over the enum instance; the concrete engines
    // are recovered afterwards for their post-run introspection. Built
    // first: it validates the spec that `physical_lines` assumes valid.
    let mut wl = s.scheme.try_instantiate(s.data_lines, seed)?;
    let phys = s.scheme.physical_lines(s.data_lines);
    let mut dev = s.device.try_build(phys, seed)?;
    let mut stream = s.workload.try_build(s.data_lines, seed)?;
    let mut telemetry = match &s.telemetry {
        Some(spec) if spec.stride == 0 => {
            return Err(DriverError::Spec("telemetry stride must be >= 1".into()));
        }
        Some(spec) => {
            let run = TelemetryRun::new(&s.id, spec);
            run.attach(&mut wl, &mut dev);
            Some(run)
        }
        None => None,
    };
    pump_telemetry(&mut wl, &mut dev, &mut *stream, requests, telemetry.as_mut());
    let series = telemetry.map(|t| t.finish(&mut wl));
    let (hit_rate, adaptation) = if let Some(sawl) = wl.as_sawl() {
        let stats = sawl.stats();
        (stats.hit_rate(), Some(AdaptationTrace { history: sawl.history().clone(), stats }))
    } else if let Some(nwl) = wl.as_nwl() {
        (nwl.mapping_stats().hit_rate(), None)
    } else {
        debug_assert_ne!(
            s.scheme.translation_kind(),
            TranslationKind::Tiered,
            "tiered schemes must take the concrete paths above"
        );
        (1.0, None)
    };

    let wear = dev.wear();
    Ok(TraceReport {
        id: s.id.clone(),
        scheme: s.scheme.name(),
        workload: s.workload.name(),
        hit_rate,
        overhead_fraction: if wear.demand_writes == 0 {
            0.0
        } else {
            wear.overhead_writes as f64 / wear.demand_writes as f64
        },
        demand_writes: wear.demand_writes,
        adaptation,
        telemetry: series,
    })
}

/// Wear-free device sized for a scheme's physical-line requirement.
pub fn wearless_device(physical_lines: u64) -> NvmDevice {
    DeviceSpec { endurance: u32::MAX, ..Default::default() }.build(physical_lines, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sawl_core::SawlConfig;
    use sawl_trace::SpecBenchmark;

    fn sawl_spec() -> SchemeSpec {
        SchemeSpec::Sawl(SawlConfig {
            cmt_entries: 64,
            swap_period: 16,
            sample_interval: 500,
            observation_window: 2_000,
            settling_window: 1_000,
            ..SawlConfig::default()
        })
    }

    #[test]
    fn lifetime_scenario_matches_direct_experiment() {
        let s = Scenario::lifetime(
            "scn/lifetime",
            SchemeSpec::PcmS { region_lines: 8, period: 16 },
            WorkloadSpec::Bpa { writes_per_target: 500 },
            1 << 10,
            DeviceSpec { endurance: 500, ..Default::default() },
        );
        let via_scenario = run(&s).unwrap().lifetime().clone();
        let direct = run_lifetime(&LifetimeExperiment {
            id: "scn/lifetime".into(),
            scheme: s.scheme.clone(),
            workload: s.workload.clone(),
            data_lines: s.data_lines,
            device: s.device,
            max_demand_writes: 0,
            fault: None,
            telemetry: None,
            timing: None,
        })
        .unwrap();
        assert_eq!(via_scenario, direct, "the scenario layer must not change results");
    }

    #[test]
    fn perf_scenario_matches_direct_experiment() {
        let s = Scenario::perf(
            "scn/perf",
            SchemeSpec::Nwl { granularity: 4, cmt_entries: 64, swap_period: 64 },
            SpecBenchmark::Gcc,
            1 << 12,
            20_000,
            0,
        );
        let via_scenario = run(&s).unwrap().perf().clone();
        let direct = run_perf(&PerfExperiment {
            id: "scn/perf".into(),
            scheme: s.scheme.clone(),
            benchmark: SpecBenchmark::Gcc,
            data_lines: s.data_lines,
            device: s.device,
            requests: 20_000,
            warmup_requests: 0,
        })
        .unwrap();
        assert_eq!(via_scenario, direct);
    }

    #[test]
    fn trace_scenario_reports_sawl_adaptation() {
        let s = Scenario::trace(
            "scn/trace/sawl",
            sawl_spec(),
            WorkloadSpec::Uniform { write_ratio: 1.0 },
            1 << 12,
            20_000,
        );
        let r = run(&s).unwrap();
        let t = r.trace();
        assert!(t.hit_rate > 0.0 && t.hit_rate < 1.0, "hit rate {}", t.hit_rate);
        let adapt = t.adaptation();
        assert_eq!(adapt.history.len(), 20_000 / 500);
        assert_eq!(t.demand_writes, 20_000);
    }

    #[test]
    fn trace_scenario_reports_nwl_hit_rate_without_adaptation() {
        let s = Scenario::trace(
            "scn/trace/nwl",
            SchemeSpec::Nwl { granularity: 4, cmt_entries: 64, swap_period: 1 << 20 },
            WorkloadSpec::Uniform { write_ratio: 0.5 },
            1 << 12,
            20_000,
        );
        let t = run(&s).unwrap().trace().clone();
        assert!(t.hit_rate > 0.0 && t.hit_rate < 1.0);
        assert!(t.adaptation.is_none());
    }

    #[test]
    fn trace_scenario_on_onchip_scheme_reports_full_hit_rate() {
        let s = Scenario::trace(
            "scn/trace/pcms",
            SchemeSpec::PcmS { region_lines: 8, period: 64 },
            WorkloadSpec::Uniform { write_ratio: 1.0 },
            1 << 10,
            5_000,
        );
        let t = run(&s).unwrap().trace().clone();
        assert_eq!(t.hit_rate, 1.0);
        assert_eq!(t.demand_writes, 5_000);
    }

    #[test]
    fn run_all_keeps_grid_order() {
        let grid: Vec<Scenario> = (0..6)
            .map(|i| {
                Scenario::lifetime(
                    format!("scn/grid/{i}"),
                    SchemeSpec::PcmS { region_lines: 8, period: 8 + i },
                    WorkloadSpec::Bpa { writes_per_target: 400 },
                    1 << 10,
                    DeviceSpec { endurance: 400, ..Default::default() },
                )
            })
            .collect();
        let reports = run_all(&grid).unwrap();
        assert_eq!(reports.len(), 6);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.lifetime().id, format!("scn/grid/{i}"));
        }
    }

    #[test]
    fn trace_telemetry_tracks_the_engine_history() {
        let base = Scenario::trace(
            "scn/trace/telemetry",
            sawl_spec(),
            WorkloadSpec::Uniform { write_ratio: 1.0 },
            1 << 12,
            20_000,
        );
        let plain = run(&base).unwrap().trace().clone();
        // Sample at the engine's own interval: one telemetry sample per
        // History row, observing identical post-tick state.
        let s = base.with_telemetry(TelemetrySpec::with_stride(500));
        let t = run(&s).unwrap().trace().clone();
        let series = t.telemetry.clone().unwrap();
        let history = &t.adaptation().history;
        assert_eq!(series.samples.len(), history.len());
        for (point, row) in series.samples.iter().zip(history.samples()) {
            assert_eq!(point.requests, row.requests);
            assert_eq!(
                point.gauge(sawl_telemetry::Channel::CmtHitRate),
                Some(row.instant_hit_rate)
            );
            assert_eq!(
                point.gauge(sawl_telemetry::Channel::CmtWindowedHitRate),
                Some(row.windowed_hit_rate)
            );
            assert_eq!(
                point.gauge(sawl_telemetry::Channel::RegionSizeCached),
                Some(row.cached_region_size)
            );
        }
        // The recorder is observation-only: everything else matches the
        // uninstrumented run.
        assert_eq!(t.hit_rate, plain.hit_rate);
        assert_eq!(t.demand_writes, plain.demand_writes);
        assert_eq!(t.adaptation().history.samples(), plain.adaptation().history.samples());
    }

    #[test]
    fn lifetime_scenario_carries_timing() {
        let s = Scenario::lifetime(
            "scn/lifetime/timing",
            SchemeSpec::PcmS { region_lines: 8, period: 16 },
            WorkloadSpec::Bpa { writes_per_target: 500 },
            1 << 10,
            DeviceSpec { endurance: 500, ..Default::default() },
        )
        .with_write_cap(20_000)
        .with_timing(TimingSpec::default());
        let r = run(&s).unwrap().lifetime().clone();
        let latency = r.latency.expect("timing was attached");
        assert_eq!(latency.requests, r.demand_writes);
        assert!(latency.p99_ns >= latency.p50_ns);
    }

    #[test]
    fn non_lifetime_scenarios_reject_timing() {
        let s = Scenario::trace(
            "scn/trace/timing",
            sawl_spec(),
            WorkloadSpec::Uniform { write_ratio: 1.0 },
            1 << 12,
            1_000,
        )
        .with_timing(TimingSpec::default());
        let err = run(&s).unwrap_err();
        assert!(matches!(err, DriverError::Spec(_)), "{err:?}");
        assert!(err.to_string().contains("timing models apply"), "{err}");
    }

    #[test]
    fn perf_scenarios_reject_telemetry() {
        let s = Scenario::perf(
            "scn/perf/telemetry",
            SchemeSpec::Nwl { granularity: 4, cmt_entries: 64, swap_period: 64 },
            SpecBenchmark::Gcc,
            1 << 12,
            1_000,
            0,
        )
        .with_telemetry(TelemetrySpec::default());
        let err = run(&s).unwrap_err();
        assert!(matches!(err, DriverError::Spec(_)), "{err:?}");
    }

    #[test]
    fn scenarios_serialize_round_trip() {
        let s = Scenario::trace(
            "scn/json",
            sawl_spec(),
            WorkloadSpec::Spec(SpecBenchmark::Soplex),
            1 << 12,
            1_000,
        );
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
