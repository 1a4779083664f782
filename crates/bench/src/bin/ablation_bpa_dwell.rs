//! Ablation — sensitivity of the lifetime results to the BPA dwell
//! (writes per attacked address), which the paper does not publish
//! (DESIGN.md §5/§9).
//!
//! The harness pins the dwell to one endurance budget; this sweep runs
//! two orders of magnitude of dwell around it. The committed CSV shows
//! what holds across them: both leveled schemes keep 59–65% of the ideal
//! lifetime at every dwell, while the baseline falls from 54% at Wmax/16
//! to 1.6% from Wmax on, so the baseline is last at every dwell. SAWL
//! does not beat PCM-S here: PCM-S, given 4096 regions of 16 lines
//! (period 16), stays 0.6–4.1 points ahead in every row.

use sawl_bench::{device, paper_note, Figure, ENDURANCE_1E6_CLASS, LIFETIME_LINES};
use sawl_simctl::report::pct;
use sawl_simctl::{run_all, run_lifetime, LifetimeExperiment, SchemeSpec, WorkloadSpec};

fn main() {
    let endurance = ENDURANCE_1E6_CLASS;
    let dwells: [u64; 5] = [
        u64::from(endurance) / 16,
        u64::from(endurance) / 4,
        u64::from(endurance),
        u64::from(endurance) * 4,
        u64::from(endurance) * 16,
    ];
    let schemes: Vec<(&str, SchemeSpec)> = vec![
        ("baseline", SchemeSpec::Baseline),
        ("pcm-s", SchemeSpec::PcmS { region_lines: 16, period: 16 }),
        ("sawl", SchemeSpec::sawl_default(4096)),
    ];
    let mut grid = Vec::new();
    for &dwell in &dwells {
        for (name, scheme) in &schemes {
            grid.push(LifetimeExperiment::new(
                format!("ablation-dwell/{dwell}/{name}"),
                scheme.clone(),
                WorkloadSpec::Bpa { writes_per_target: dwell },
                LIFETIME_LINES,
                device(endurance),
            ));
        }
    }
    let results = run_all(&grid, run_lifetime).expect("sweep failed");
    let mut fig = Figure::new(
        "ablation_bpa_dwell",
        "Ablation: BPA dwell sensitivity (normalized lifetime %, Wmax 1e6-class)",
        &["dwell (x Wmax)", "baseline", "pcm-s", "sawl"],
    );
    for (di, &dwell) in dwells.iter().enumerate() {
        let base = &results[di * 3];
        let pcms = &results[di * 3 + 1];
        let sawl = &results[di * 3 + 2];
        fig.row(vec![
            format!("{:.3}", dwell as f64 / f64::from(endurance)),
            pct(base.normalized_lifetime),
            pct(pcms.normalized_lifetime),
            pct(sawl.normalized_lifetime),
        ]);
    }
    fig.emit();
    paper_note(
        "Not in the paper — a robustness check of our dwell choice. The baseline \
         should be last at every dwell; pcm-s (4096 regions of 16 lines) runs \
         0.6-4.1 points ahead of sawl in every row.",
    );
}
