//! Fig. 14 — runtime hit rates and SAWL's region-size trajectory under
//! the bzip2, cactusADM and gcc models; NWL-4 and NWL-64 for comparison.
//!
//! The paper's annotations (256 KB CMT): bzip2 — NWL-4 86.4%, NWL-64
//! 98.9%, SAWL 94.5%; cactusADM — 63%, 95.2%, 88%; gcc — 58.3%, 98.9%,
//! 91.3%. SAWL's average region size settles around 16 lines.
//!
//! The SAWL trajectories are sampled through the telemetry recorder (one
//! sample per engine `sample_interval`, so the series reproduces the
//! engine's own adaptation history — `sawl-simctl` pins the two equal).

use sawl_bench::{paper_note, save_series_csv, Figure, CMT_BYTES, PERF_LINES};
use sawl_core::SawlConfig;
use sawl_simctl::report::pct;
use sawl_simctl::{
    run_all, run_trace, Channel, SchemeSpec, TelemetrySpec, TraceExperiment, WorkloadSpec,
};
use sawl_tiered::NwlConfig;
use sawl_trace::SpecBenchmark;

fn main() {
    let requests: u64 = 50_000_000;
    let sample_interval: u64 = 100_000;
    let benches = [SpecBenchmark::Bzip2, SpecBenchmark::CactusADM, SpecBenchmark::Gcc];

    // The schemes share the 256KB CMT budget; entry sizes differ by
    // granularity, so the affordable entry counts do too.
    let nwl_spec = |granularity: u64| {
        let cfg = NwlConfig {
            data_lines: PERF_LINES,
            granularity,
            swap_period: 128,
            ..NwlConfig::default()
        }
        .with_cache_bytes(CMT_BYTES);
        SchemeSpec::Nwl { granularity, cmt_entries: cfg.cmt_entries, swap_period: 128 }
    };
    let sawl_spec = SchemeSpec::Sawl(
        SawlConfig {
            data_lines: PERF_LINES,
            swap_period: 128,
            observation_window: 1 << 20,
            settling_window: 1 << 20,
            sample_interval,
            max_granularity: 256,
            ..Default::default()
        }
        .with_cache_bytes(CMT_BYTES),
    );

    let mut grid = Vec::new();
    for bench in benches {
        for (name, scheme) in
            [("nwl4", nwl_spec(4)), ("nwl64", nwl_spec(64)), ("sawl", sawl_spec.clone())]
        {
            grid.push(TraceExperiment {
                // Sample SAWL on the engine's own adaptation interval: the
                // recorder then observes exactly the history's points.
                telemetry: (name == "sawl").then(|| TelemetrySpec::with_stride(sample_interval)),
                ..TraceExperiment::new(
                    format!("fig14/{}/{}", bench.name(), name),
                    scheme,
                    WorkloadSpec::Spec(bench),
                    PERF_LINES,
                    requests,
                )
            });
        }
    }
    let reports = run_all(&grid, run_trace).expect("sweep failed");

    let mut fig = Figure::new(
        "fig14_summary",
        "Fig. 14 average CMT hit rates (256KB cache)",
        &["benchmark", "NWL-4 (%)", "NWL-64 (%)", "SAWL (%)", "SAWL avg region"],
    );
    for (bi, bench) in benches.iter().enumerate() {
        let nwl4 = &reports[bi * 3];
        let nwl64 = &reports[bi * 3 + 1];
        let sawl = &reports[bi * 3 + 2];
        let series = sawl.telemetry.as_ref().expect("sawl runs record telemetry");
        let region_sizes = series.gauge_series(Channel::RegionSizeCached);
        let avg_region = if region_sizes.is_empty() {
            0.0
        } else {
            region_sizes.iter().map(|(_, v)| v).sum::<f64>() / region_sizes.len() as f64
        };
        fig.row(vec![
            bench.name().into(),
            pct(nwl4.hit_rate),
            pct(nwl64.hit_rate),
            pct(sawl.hit_rate),
            format!("{avg_region:.1}"),
        ]);
        save_series_csv(series, &format!("fig14_sawl_{}", bench.name()));
    }
    fig.emit();
    paper_note(
        "Paper Fig. 14 (256KB cache): bzip2 86.4/98.9/94.5%, cactusADM 63/95.2/88%, \
         gcc 58.3/98.9/91.3% for NWL-4/NWL-64/SAWL; SAWL's average region size is \
         about 16 lines. Expect the ordering NWL-4 < SAWL < NWL-64 on every \
         benchmark, with SAWL within a few points of NWL-64.",
    );
}
