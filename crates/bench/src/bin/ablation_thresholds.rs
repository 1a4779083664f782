//! Ablation — sensitivity to the merge/split hit-rate thresholds
//! (paper: 90% / 95%, chosen from a "turning point" observation in §4.1;
//! DESIGN.md §9).

use sawl_bench::{paper_note, Figure, PERF_LINES};
use sawl_core::SawlConfig;
use sawl_simctl::report::pct;
use sawl_simctl::{run_all, run_trace, SchemeSpec, TraceExperiment, WorkloadSpec};
use sawl_trace::SpecBenchmark;

fn main() {
    let requests: u64 = 40_000_000;
    let pairs: [(f64, f64); 4] = [(0.80, 0.90), (0.90, 0.95), (0.93, 0.97), (0.95, 0.99)];
    let grid: Vec<TraceExperiment> = pairs
        .iter()
        .map(|&(merge_t, split_t)| {
            TraceExperiment::new(
                format!("ablation-thresholds/{merge_t:.2}/{split_t:.2}"),
                SchemeSpec::Sawl(SawlConfig {
                    cmt_entries: (512 * 1024 * 8 / 48) as usize,
                    swap_period: 128,
                    observation_window: 1 << 20,
                    settling_window: 1 << 20,
                    sample_interval: 100_000,
                    max_granularity: 256,
                    merge_threshold: merge_t,
                    split_threshold: split_t,
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
        "ablation_thresholds",
        "Ablation: merge/split thresholds (soplex-like)",
        &["merge", "split", "avg hit rate (%)", "avg region", "merges", "splits"],
    );
    for (&(merge_t, split_t), report) in pairs.iter().zip(&reports) {
        let adapt = report.adaptation();
        fig.row(vec![
            pct(merge_t),
            pct(split_t),
            pct(adapt.history.average_hit_rate()),
            format!("{:.1}", adapt.history.average_region_size()),
            adapt.stats.merges.to_string(),
            adapt.stats.splits.to_string(),
        ]);
    }
    fig.emit();
    paper_note(
        "Not in the paper beyond the stated 90/95/99% choices. A lower merge \
         threshold tolerates worse hit rates before coarsening; the paper's \
         (90, 95) pair should sit near the hit-rate maximum.",
    );
}
