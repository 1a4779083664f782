//! The benchmark's workloads, as lifetime experiments.
//!
//! Every experiment id carries the workload seed, and the simulator seeds
//! each run from its id, so the seed reaches the scheme, device and
//! stream without the benchmark handing the program anything but specs.

use sawl_simctl::{
    DeviceSpec, LifetimeExperiment, SchemeSpec, TelemetrySpec, TimingSpec, WorkloadSpec,
};

/// The seed whose outputs are committed in `digests.txt`.
pub const DEFAULT_SEED: u64 = 0;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["bpa-lifetime", "timed-sweep", "serve-tenants"];

/// One scenario: a scheme label (used in per-layer metric names) and the
/// experiment.
#[derive(Debug, Clone)]
pub struct Case {
    pub label: &'static str,
    pub exp: LifetimeExperiment,
}

fn exp(
    id: String,
    scheme: SchemeSpec,
    workload: WorkloadSpec,
    data_lines: u64,
    device: DeviceSpec,
) -> LifetimeExperiment {
    LifetimeExperiment {
        id,
        scheme,
        workload,
        data_lines,
        device,
        max_demand_writes: 0,
        fault: None,
        telemetry: None,
        timing: None,
    }
}

const BPA: WorkloadSpec = WorkloadSpec::Bpa { writes_per_target: 2048 };

/// Untimed lifetime to device death under BPA, in the committed
/// `BENCH_speed.json` geometry, telemetry off.
pub fn bpa_lifetime(seed: u64) -> Vec<Case> {
    let schemes = [
        ("pcms", SchemeSpec::PcmS { region_lines: 16, period: 32 }),
        ("tlsr", SchemeSpec::Tlsr { region_lines: 64, inner_period: 8, outer_period: 32 }),
        ("mwsr", SchemeSpec::Mwsr { region_lines: 16, period: 32 }),
        ("rbsg", SchemeSpec::Rbsg { regions: 256, region_lines: 256, period: 64 }),
        ("sawl", SchemeSpec::sawl_default(1024)),
    ];
    schemes
        .into_iter()
        .map(|(label, scheme)| Case {
            label,
            exp: exp(
                format!("perfbench/bpa-lifetime/s{seed}/{label}"),
                scheme,
                BPA,
                1 << 16,
                DeviceSpec { endurance: 10_000, ..Default::default() },
            ),
        })
        .collect()
}

/// Timed lifetime runs at the Fig. 17 geometry: 2^22 lines, the CMT
/// sized from the 256 KiB Table-1 budget, endurance at its maximum so
/// every cell serves its full cap. Caps balance the host time of the BPA
/// and Zipf halves.
pub fn timed_sweep(seed: u64) -> Vec<Case> {
    const LINES: u64 = 1 << 22;
    let cmt_entries = (256 * 1024 * 8 / 48) as usize;
    let schemes = [
        ("baseline", SchemeSpec::Baseline, 40_000_000, 1_000_000),
        ("pcms", SchemeSpec::PcmS { region_lines: 4, period: 8 }, 2_000_000, 600_000),
        (
            "nwl",
            SchemeSpec::Nwl { granularity: 4, cmt_entries, swap_period: 128 },
            3_000_000,
            400_000,
        ),
        ("sawl", SchemeSpec::Sawl(sawl_core_config(cmt_entries)), 8_000_000, 300_000),
    ];
    let workloads =
        [("bpa", BPA), ("zipf", WorkloadSpec::Zipf { exponent: 1.0, write_ratio: 1.0 })];
    let mut cases = Vec::new();
    for (label, scheme, bpa_cap, zipf_cap) in schemes {
        for (wname, workload) in &workloads {
            let mut e = exp(
                format!("perfbench/timed-sweep/s{seed}/{label}/{wname}"),
                scheme.clone(),
                workload.clone(),
                LINES,
                DeviceSpec { endurance: u32::MAX, ..Default::default() },
            );
            e.max_demand_writes = if *wname == "bpa" { bpa_cap } else { zipf_cap };
            e.telemetry = Some(TelemetrySpec::with_stride(100_000));
            e.timing = Some(TimingSpec::default());
            cases.push(Case { label, exp: e });
        }
    }
    cases
}

/// Fig. 17's SAWL configuration.
fn sawl_core_config(cmt_entries: usize) -> sawl_core::SawlConfig {
    sawl_core::SawlConfig {
        initial_granularity: 4,
        max_granularity: 256,
        cmt_entries,
        swap_period: 128,
        observation_window: 1 << 20,
        settling_window: 1 << 20,
        sample_interval: 100_000,
        ..sawl_core::SawlConfig::default()
    }
}

/// The daemon's tenant mix. Returns `(tenant name, case)` pairs.
pub fn serve_tenants(seed: u64) -> Vec<(String, Case)> {
    let ycsb = WorkloadSpec::Ycsb {
        hot_lines: 512,
        exponent: 1.1,
        write_ratio: 0.8,
        rotate_every: 8_192,
        drift: 64,
    };
    let gc = WorkloadSpec::GcFeedback {
        exponent: 1.1,
        write_ratio: 0.8,
        base_threshold: 0.3,
        waf_gain: 0.05,
        cov_gain: 0.1,
        gc_burst: 512,
    };
    let tenants = [
        ("pcms", "bpa", SchemeSpec::PcmS { region_lines: 16, period: 32 }, BPA, 15_000_000),
        ("mwsr", "bpa", SchemeSpec::Mwsr { region_lines: 16, period: 32 }, BPA, 15_000_000),
        ("sawl", "bpa", SchemeSpec::sawl_default(1024), BPA, 15_000_000),
        ("sawl", "ycsb", SchemeSpec::sawl_default(1024), ycsb.clone(), 2_000_000),
        (
            "nwl",
            "ycsb",
            SchemeSpec::Nwl { granularity: 4, cmt_entries: 1024, swap_period: 128 },
            ycsb,
            2_000_000,
        ),
        ("pcms", "gc", SchemeSpec::PcmS { region_lines: 16, period: 32 }, gc, 2_000_000),
    ];
    tenants
        .into_iter()
        .map(|(label, wname, scheme, workload, cap)| {
            let name = format!("s{seed}-{label}-{wname}");
            let mut e = exp(
                format!("perfbench/serve-tenants/{name}"),
                scheme,
                workload,
                1 << 16,
                DeviceSpec { endurance: 10_000, ..Default::default() },
            );
            e.max_demand_writes = cap;
            e.telemetry = Some(TelemetrySpec::with_stride(100_000));
            (name, Case { label, exp: e })
        })
        .collect()
}
