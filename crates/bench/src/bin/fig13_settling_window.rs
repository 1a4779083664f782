//! Fig. 13 — region-size adjustments as a function of runtime for
//! different settling-window sizes (SSW), soplex-like workload.
//!
//! Scaling as in Fig. 12: SSW ∈ {2^18..2^24} against a ~6M-request phase
//! length. Small SSW → frequent adjustments (write overhead); large SSW →
//! missed adjustment points and a depressed average hit rate (the paper
//! measures 96.1 / 97.7 / 98.0 / 85.5% for SSW 2^20..2^26 and picks 2^22).

use sawl_bench::{paper_note, save_history_csv, Figure, PERF_LINES};
use sawl_core::SawlConfig;
use sawl_simctl::{run_all, run_trace, SchemeSpec, TraceExperiment, WorkloadSpec};
use sawl_trace::SpecBenchmark;

fn main() {
    let requests: u64 = 100_000_000;
    let ssws: [u64; 4] = [1 << 18, 1 << 20, 1 << 22, 1 << 24];

    let grid: Vec<TraceExperiment> = ssws
        .iter()
        .map(|&ssw| {
            TraceExperiment::new(
                format!("fig13/ssw/2e{}", ssw.trailing_zeros()),
                SchemeSpec::Sawl(SawlConfig {
                    cmt_entries: (512 * 1024 * 8 / 48) as usize,
                    swap_period: 128,
                    observation_window: 1 << 20,
                    settling_window: ssw,
                    sample_interval: 100_000,
                    max_granularity: 256,
                    ..SawlConfig::default()
                }),
                WorkloadSpec::Spec(SpecBenchmark::Soplex),
                PERF_LINES,
                requests,
            )
        })
        .collect();
    let reports = run_all(&grid, run_trace).expect("sweep failed");

    let mut fig = Figure::new(
        "fig13_summary",
        "Fig. 13 region-size adjustment vs SSW (soplex-like)",
        &["SSW", "avg hit rate", "avg region size", "size changes", "merges", "splits"],
    );
    for (&ssw, report) in ssws.iter().zip(&reports) {
        let adapt = report.adaptation();
        fig.row(vec![
            format!("2^{}", ssw.trailing_zeros()),
            format!("{:.3}", adapt.history.average_hit_rate()),
            format!("{:.1}", adapt.history.average_region_size()),
            adapt.history.region_size_changes().to_string(),
            adapt.stats.merges.to_string(),
            adapt.stats.splits.to_string(),
        ]);
        save_history_csv(&adapt.history, &format!("fig13_ssw_2e{}", ssw.trailing_zeros()));
    }
    fig.emit();
    paper_note(
        "Paper Fig. 13: SSW 2^20 adjusts the region size too frequently (write \
         overhead); SSW 2^26 misses the adjustment points and the average hit rate \
         drops to 85.5%, vs 96-98% for the middle settings. Expect size-change \
         counts to fall monotonically with SSW and the average hit rate to peak at \
         the middle SSWs and sag at the largest.",
    );
}
