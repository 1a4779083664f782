//! Fig. 12 — cache hit rate as a function of runtime for different
//! observation-window sizes (SOW), soplex-like workload, 512 KB cache.
//!
//! Scaling: the paper samples a 7×10^8-request run with SOW ∈
//! {2^20..2^26}; we run 10^8 requests over a 2^22-line space with SOW ∈
//! {2^18..2^24} so the window-to-phase-length ratios bracket the same
//! regimes (window ≪ phase: noisy; window ≫ phase: oversmoothed, missing
//! merge/split points — the paper's green circles).

use sawl_bench::{paper_note, save_history_csv, Figure, PERF_LINES};
use sawl_core::SawlConfig;
use sawl_simctl::{run_all, run_trace, SchemeSpec, TraceExperiment, WorkloadSpec};
use sawl_trace::SpecBenchmark;

fn main() {
    let requests: u64 = 100_000_000;
    let sows: [u64; 4] = [1 << 18, 1 << 20, 1 << 22, 1 << 24];

    let grid: Vec<TraceExperiment> = sows
        .iter()
        .map(|&sow| {
            TraceExperiment::new(
                format!("fig12/sow/2e{}", sow.trailing_zeros()),
                SchemeSpec::Sawl(SawlConfig {
                    cmt_entries: (512 * 1024 * 8 / 48) as usize,
                    swap_period: 128,
                    observation_window: sow,
                    settling_window: 1 << 20,
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
        "fig12_summary",
        "Fig. 12 sampled hit rate vs SOW (soplex-like, 512KB cache)",
        &["SOW", "mean rate", "rate stddev", "min", "max", "adjustments"],
    );
    for (&sow, report) in sows.iter().zip(&reports) {
        let adapt = report.adaptation();
        // Statistics of the *windowed* (sampled) hit-rate curve — the
        // quantity plotted in the paper's Fig. 12.
        let rates: Vec<f64> = adapt
            .history
            .samples()
            .iter()
            .skip(8) // let the window fill
            .map(|s| s.windowed_hit_rate)
            .collect();
        let n = rates.len() as f64;
        let mean = rates.iter().sum::<f64>() / n;
        let var = rates.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / n;
        let min = rates.iter().cloned().fold(1.0f64, f64::min);
        let max = rates.iter().cloned().fold(0.0f64, f64::max);
        fig.row(vec![
            format!("2^{}", sow.trailing_zeros()),
            format!("{:.3}", mean),
            format!("{:.4}", var.sqrt()),
            format!("{:.3}", min),
            format!("{:.3}", max),
            format!("{}", adapt.stats.merges + adapt.stats.splits),
        ]);
        save_history_csv(&adapt.history, &format!("fig12_sow_2e{}", sow.trailing_zeros()));
    }
    fig.emit();
    paper_note(
        "Paper Fig. 12: with SOW = 2^20 the sampled rate fluctuates so much that SAWL \
         adjusts too frequently; very large SOW (2^24, 2^26) smooths away the phase \
         transitions and misses merge/split points; 2^22 is chosen. Expect the rate \
         stddev to fall monotonically with SOW while the adjustment count drops at \
         the large-SOW end.",
    );
}
