//! Performance experiments (§4.4, Figs. 12–14, 17).
//!
//! Replay a workload through a scheme for a fixed number of requests,
//! feeding every request into the closed-loop multi-channel controller
//! model as a [`sawl_timing::MemEvent`] (assembled by
//! [`EventBuilder`](crate::timing::EventBuilder)):
//!
//! * the translation outcome comes from the scheme's [`TranslationKind`] —
//!   none for the baseline, a flat CMT hit for on-chip schemes, the
//!   observed hit/miss for tiered schemes;
//! * wear-leveling writes are charged to banks by diffing the device's
//!   overhead-write counter around each request, attributed to exchange
//!   vs. merge/split via [`op_counts`](sawl_algos::WearLeveler::op_counts).
//!
//! The IPC baseline (no wear leveling, no translation) replays the *same*
//! seeded workload, so the degradation isolates the scheme's cost exactly.
//! Beyond the Fig. 17 mean, each pass's simulator keeps the latency
//! histogram and stall attribution, summarized as a
//! [`LatencyReport`](crate::timing::LatencyReport) per result.

use serde::{Deserialize, Serialize};

use sawl_timing::{ipc_degradation, CpuModel, IpcEstimate, IpcModel, MemEvent};
use sawl_trace::SpecBenchmark;

use crate::driver::{pump, pump_observed, DriverError};
use crate::spec::{DeviceSpec, RunParts, SchemeSpec, WorkloadSpec};
use crate::timing::{EventBuilder, LatencyReport};

/// A performance run specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfExperiment {
    /// Id used for seeding and reports.
    pub id: String,
    /// Scheme under test.
    pub scheme: SchemeSpec,
    /// Benchmark driving both the address stream and the CPU model.
    pub benchmark: SpecBenchmark,
    /// Logical data lines.
    pub data_lines: u64,
    /// Device parameters (endurance is irrelevant here; keep it high).
    pub device: DeviceSpec,
    /// Requests to replay while measuring.
    pub requests: u64,
    /// Requests to replay *before* measurement starts (not fed to the
    /// timing models). Adaptive schemes pay their granularity ramp here,
    /// the way gem5 evaluations fast-forward past warmup; the paper's
    /// 1e8+-request runs amortize the ramp naturally, our shorter ones
    /// must exclude it.
    #[serde(default)]
    pub warmup_requests: u64,
}

/// Outcome of a performance run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfResult {
    /// Experiment id.
    pub id: String,
    /// Scheme name.
    pub scheme: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Whole-run CMT hit rate (1.0 for non-tiered schemes).
    pub hit_rate: f64,
    /// IPC of the scheme.
    pub ipc: IpcEstimate,
    /// IPC of the no-wear-leveling baseline on the same stream.
    pub baseline_ipc: IpcEstimate,
    /// `1 - ipc/baseline` (Fig. 17's y-axis).
    pub ipc_degradation: f64,
    /// Wear-leveling writes per demand write.
    pub overhead_fraction: f64,
    /// Latency distribution and stall attribution of the scheme pass.
    #[serde(default)]
    pub latency: Option<LatencyReport>,
    /// Latency distribution of the baseline pass on the same stream.
    #[serde(default)]
    pub baseline_latency: Option<LatencyReport>,
}

/// Run one performance experiment.
pub fn run_perf(exp: &PerfExperiment) -> Result<PerfResult, DriverError> {
    let workload = WorkloadSpec::Spec(exp.benchmark);
    // Scheme pass, monomorphized over the concrete enum instance.
    let RunParts { seed, mut wl, mut dev, mut stream, .. } =
        RunParts::build(&exp.id, &exp.scheme, &workload, exp.data_lines, &exp.device, None, None)?;
    let cpu = CpuModel::for_benchmark(exp.benchmark);
    let mut ipc_model = IpcModel::new(cpu);
    let banks = ipc_model.sim().config().banks;
    let mut builder = EventBuilder::new(exp.scheme.translation_kind(), banks);
    // Baseline pass shares the identical request sequence: regenerate the
    // stream with the same seed and replay it with zero-cost translation.
    let mut base_stream = workload.try_build(exp.data_lines, seed)?;
    let mut base_model = IpcModel::new(cpu);

    pump(&mut wl, &mut dev, &mut *stream, exp.warmup_requests);
    // Keep the baseline stream aligned with the scheme's through warmup.
    for _ in 0..exp.warmup_requests {
        let _ = base_stream.next_req();
    }

    // The builder diffs the device's read/overhead counters and the
    // scheme's op counts around each request, so seed it with the
    // post-warmup values.
    builder.prime(&wl, &dev);
    pump_observed(&mut wl, &mut dev, &mut *stream, exp.requests, |req, pa, w, d| {
        ipc_model.push(builder.build(req.write, pa, w, d));

        // The baseline performs no translation and no wear leveling: its
        // events carry the untranslated address and nothing else.
        let base_req = base_stream.next_req();
        let bank = (base_req.la % u64::from(banks)) as u32;
        base_model.push(if base_req.write { MemEvent::write(bank) } else { MemEvent::read(bank) });
    });

    let ipc = ipc_model.estimate();
    let baseline_ipc = base_model.estimate();
    let wear = dev.wear();
    Ok(PerfResult {
        id: exp.id.clone(),
        scheme: exp.scheme.name(),
        benchmark: exp.benchmark.name().into(),
        hit_rate: builder.hit_rate(),
        ipc,
        baseline_ipc,
        ipc_degradation: ipc_degradation(baseline_ipc, ipc),
        overhead_fraction: if wear.demand_writes == 0 {
            0.0
        } else {
            wear.overhead_writes as f64 / wear.demand_writes as f64
        },
        latency: Some(LatencyReport::from_sim(ipc_model.sim())),
        baseline_latency: Some(LatencyReport::from_sim(base_model.sim())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp(scheme: SchemeSpec, bench: SpecBenchmark) -> PerfExperiment {
        PerfExperiment {
            id: format!("perf-test/{}/{}", scheme.name(), bench.name()),
            scheme,
            benchmark: bench,
            data_lines: 1 << 14,
            device: DeviceSpec { endurance: u32::MAX, ..Default::default() },
            requests: 60_000,
            warmup_requests: 0,
        }
    }

    #[test]
    fn baseline_has_zero_degradation() {
        let r = run_perf(&exp(SchemeSpec::Baseline, SpecBenchmark::Gcc)).unwrap();
        assert!(r.ipc_degradation.abs() < 1e-9, "{}", r.ipc_degradation);
        assert_eq!(r.hit_rate, 1.0);
    }

    #[test]
    fn tiered_scheme_reports_hit_rate_below_one() {
        let r = run_perf(&exp(
            SchemeSpec::Nwl { granularity: 4, cmt_entries: 64, swap_period: 1 << 20 },
            SpecBenchmark::Mcf,
        ))
        .unwrap();
        assert!(r.hit_rate > 0.0 && r.hit_rate < 1.0, "hit rate {}", r.hit_rate);
        assert!(r.ipc_degradation > 0.0);
    }

    #[test]
    fn aggressive_swapping_costs_ipc() {
        let lazy =
            run_perf(&exp(SchemeSpec::PcmS { region_lines: 4, period: 256 }, SpecBenchmark::Lbm))
                .unwrap();
        let eager =
            run_perf(&exp(SchemeSpec::PcmS { region_lines: 4, period: 8 }, SpecBenchmark::Lbm))
                .unwrap();
        assert!(
            eager.ipc_degradation > lazy.ipc_degradation,
            "eager {} vs lazy {}",
            eager.ipc_degradation,
            lazy.ipc_degradation
        );
        // Steady-state overhead is 2/period = 0.25; the short run includes
        // the ramp-up before regions first reach their thresholds.
        assert!(eager.overhead_fraction > 0.08, "{}", eager.overhead_fraction);
    }

    #[test]
    fn results_reproducible() {
        let e = exp(SchemeSpec::sawl_default(256), SpecBenchmark::Bzip2);
        assert_eq!(run_perf(&e).unwrap(), run_perf(&e).unwrap());
    }
}
