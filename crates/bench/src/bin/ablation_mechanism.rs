//! Ablation — isolate SAWL's two mechanisms (DESIGN.md §9).
//!
//! Runs the soplex-like workload with (a) full SAWL, (b) merge-only,
//! (c) split-only, (d) neither (fixed granularity = NWL at P). Merging is
//! what rescues the hit rate in low-locality phases; splitting is what
//! protects endurance when the hit rate pins high. Expect (b) to match
//! (a)'s hit rate but with a coarser average region (worse leveling), and
//! (c) to degenerate to (d).

use sawl_bench::{paper_note, Figure, PERF_LINES};
use sawl_core::SawlConfig;
use sawl_simctl::report::pct;
use sawl_simctl::{run_all, run_trace, SchemeSpec, TraceExperiment, WorkloadSpec};
use sawl_trace::SpecBenchmark;

fn main() {
    let requests: u64 = 50_000_000;
    let variants: [(&str, bool, bool); 4] = [
        ("full", true, true),
        ("merge-only", true, false),
        ("split-only", false, true),
        ("neither", false, false),
    ];
    let grid: Vec<TraceExperiment> = variants
        .iter()
        .map(|&(name, merge, split)| {
            TraceExperiment::new(
                format!("ablation-mechanism/{name}"),
                SchemeSpec::Sawl(SawlConfig {
                    cmt_entries: (512 * 1024 * 8 / 48) as usize,
                    swap_period: 128,
                    observation_window: 1 << 20,
                    settling_window: 1 << 20,
                    sample_interval: 100_000,
                    max_granularity: 256,
                    enable_merge: merge,
                    enable_split: split,
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
        "ablation_mechanism",
        "Ablation: SAWL mechanisms under soplex-like traffic",
        &["variant", "avg hit rate (%)", "avg region size", "merges", "splits"],
    );
    for ((name, _, _), report) in variants.iter().zip(&reports) {
        let adapt = report.adaptation();
        fig.row(vec![
            (*name).into(),
            pct(adapt.history.average_hit_rate()),
            format!("{:.1}", adapt.history.average_region_size()),
            adapt.stats.merges.to_string(),
            adapt.stats.splits.to_string(),
        ]);
    }
    fig.emit();
    paper_note(
        "Not in the paper — an ablation of the two §3.2 mechanisms. Merge drives the \
         hit-rate recovery; split bounds the steady-state granularity.",
    );
}
