//! Trace experiments (§4.2, Figs. 12–14).
//!
//! Replay a fixed request count on a wear-free device and report the CMT
//! hit rate, plus the engine's full adaptation history when the scheme is
//! SAWL. Optional telemetry samples the run on the request clock.

use serde::{Deserialize, Serialize};

use sawl_core::{History, SawlStats};
use sawl_nvm::NvmDevice;
use sawl_telemetry::{Series, TelemetrySpec};

use crate::driver::{pump, pump_observed, DriverError};
use crate::spec::{DeviceSpec, RunParts, SchemeSpec, TranslationKind, WorkloadSpec};

/// A trace run specification.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceExperiment {
    /// Human-readable id; seeds the run and labels the report.
    pub id: String,
    /// Scheme under test.
    pub scheme: SchemeSpec,
    /// Workload driving it.
    pub workload: WorkloadSpec,
    /// Logical data lines (power of two).
    pub data_lines: u64,
    /// Requests to replay.
    pub requests: u64,
    /// Optional time-series telemetry, sampled every `stride` requests.
    pub telemetry: Option<TelemetrySpec>,
}

impl TraceExperiment {
    /// A trace run without telemetry; set it by struct update.
    pub fn new(
        id: impl Into<String>,
        scheme: SchemeSpec,
        workload: WorkloadSpec,
        data_lines: u64,
        requests: u64,
    ) -> Self {
        Self { id: id.into(), scheme, workload, data_lines, requests, telemetry: None }
    }
}

/// The SAWL-specific outcome of a trace run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptationTrace {
    /// The engine's sampled time series (Figs. 12–14).
    pub history: History,
    /// Run totals: merges, splits, exchanges, decisions.
    pub stats: SawlStats,
}

/// Outcome of a trace run.
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
    /// Sampled time series, present when the experiment asked for one.
    #[serde(default)]
    pub telemetry: Option<Series>,
}

impl TraceReport {
    /// The adaptation trace; panics when the scheme was not SAWL.
    pub fn adaptation(&self) -> &AdaptationTrace {
        self.adaptation.as_ref().expect("trace scheme was not SAWL")
    }
}

/// Run one trace experiment on a wear-free device.
pub fn run_trace(exp: &TraceExperiment) -> Result<TraceReport, DriverError> {
    // One monomorphic pump over the enum instance; the concrete engines
    // are recovered afterwards for their post-run introspection.
    let RunParts { mut wl, mut dev, mut stream, mut telemetry, .. } = RunParts::build(
        &exp.id,
        &exp.scheme,
        &exp.workload,
        exp.data_lines,
        &wearless(),
        None,
        exp.telemetry.as_ref(),
    )?;
    // Every request, read or write, advances the sampling clock by one.
    match telemetry.as_mut() {
        Some(t) => pump_observed(&mut wl, &mut dev, &mut *stream, exp.requests, |_, _, w, d| {
            t.note_served(1, w, d)
        }),
        None => pump(&mut wl, &mut dev, &mut *stream, exp.requests),
    }
    let series = telemetry.map(|t| t.finish(&mut wl));
    let (hit_rate, adaptation) = if let Some(sawl) = wl.as_sawl() {
        let stats = sawl.stats();
        (stats.hit_rate(), Some(AdaptationTrace { history: sawl.history().clone(), stats }))
    } else if let Some(nwl) = wl.as_nwl() {
        (nwl.mapping_stats().hit_rate(), None)
    } else {
        debug_assert_ne!(
            exp.scheme.translation_kind(),
            TranslationKind::Tiered,
            "tiered schemes must take the concrete paths above"
        );
        (1.0, None)
    };

    let wear = dev.wear();
    Ok(TraceReport {
        id: exp.id.clone(),
        scheme: exp.scheme.name(),
        workload: exp.workload.name(),
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

/// The device trace runs use: hit-rate and adaptation runs never wear
/// anything out.
fn wearless() -> DeviceSpec {
    DeviceSpec { endurance: u32::MAX, ..Default::default() }
}

/// Wear-free device sized for a scheme's physical-line requirement.
pub fn wearless_device(physical_lines: u64) -> NvmDevice {
    wearless().build(physical_lines, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sawl_core::SawlConfig;

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
    fn trace_reports_sawl_adaptation() {
        let t = run_trace(&TraceExperiment::new(
            "scn/trace/sawl",
            sawl_spec(),
            WorkloadSpec::Uniform { write_ratio: 1.0 },
            1 << 12,
            20_000,
        ))
        .unwrap();
        assert!(t.hit_rate > 0.0 && t.hit_rate < 1.0, "hit rate {}", t.hit_rate);
        let adapt = t.adaptation();
        assert_eq!(adapt.history.len(), 20_000 / 500);
        assert_eq!(t.demand_writes, 20_000);
    }

    #[test]
    fn trace_reports_nwl_hit_rate_without_adaptation() {
        let t = run_trace(&TraceExperiment::new(
            "scn/trace/nwl",
            SchemeSpec::Nwl { granularity: 4, cmt_entries: 64, swap_period: 1 << 20 },
            WorkloadSpec::Uniform { write_ratio: 0.5 },
            1 << 12,
            20_000,
        ))
        .unwrap();
        assert!(t.hit_rate > 0.0 && t.hit_rate < 1.0);
        assert!(t.adaptation.is_none());
    }

    #[test]
    fn trace_on_onchip_scheme_reports_full_hit_rate() {
        let t = run_trace(&TraceExperiment::new(
            "scn/trace/pcms",
            SchemeSpec::PcmS { region_lines: 8, period: 64 },
            WorkloadSpec::Uniform { write_ratio: 1.0 },
            1 << 10,
            5_000,
        ))
        .unwrap();
        assert_eq!(t.hit_rate, 1.0);
        assert_eq!(t.demand_writes, 5_000);
    }

    #[test]
    fn trace_telemetry_tracks_the_engine_history() {
        let base = TraceExperiment::new(
            "scn/trace/telemetry",
            sawl_spec(),
            WorkloadSpec::Uniform { write_ratio: 1.0 },
            1 << 12,
            20_000,
        );
        let plain = run_trace(&base).unwrap();
        // Sample at the engine's own interval: one telemetry sample per
        // History row, observing identical post-tick state.
        let t = run_trace(&TraceExperiment {
            telemetry: Some(TelemetrySpec::with_stride(500)),
            ..base
        })
        .unwrap();
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
}
