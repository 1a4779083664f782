//! Fig. 4 — normalized lifetime of the hybrid schemes (PCM-S / MWSR) under
//! BPA, sweeping the number of regions (up to line-granularity regions)
//! and the swapping period, for both endurance classes.
//!
//! Paper geometry: 64 GB, regions 16K–64M (region size down to 4 lines).
//! Scaled: 2^16 lines, regions 2^6–2^14 (region size 1024 down to 4).

use sawl_bench::{
    bpa, device, fmt_regions, paper_note, Figure, ENDURANCE_1E5_CLASS, ENDURANCE_1E6_CLASS,
    LIFETIME_LINES,
};
use sawl_simctl::report::pct;
use sawl_simctl::{run_all, run_lifetime, LifetimeExperiment, SchemeSpec};

fn main() {
    let periods: [u64; 4] = [8, 16, 32, 64];
    let region_counts: Vec<u64> = (6..=14).map(|k| 1u64 << k).collect();

    for (tag, endurance) in [("1e6", ENDURANCE_1E6_CLASS), ("1e5", ENDURANCE_1E5_CLASS)] {
        for scheme_name in ["pcm-s", "mwsr"] {
            let mut grid = Vec::new();
            for &period in &periods {
                for &regions in &region_counts {
                    let region_lines = LIFETIME_LINES / regions;
                    let scheme = if scheme_name == "pcm-s" {
                        SchemeSpec::PcmS { region_lines, period }
                    } else {
                        SchemeSpec::Mwsr { region_lines, period }
                    };
                    grid.push(LifetimeExperiment::new(
                        format!("fig4/{tag}/{scheme_name}/p{period}/r{regions}"),
                        scheme,
                        bpa(endurance),
                        LIFETIME_LINES,
                        device(endurance),
                    ));
                }
            }
            let results = run_all(&grid, run_lifetime).expect("sweep failed");
            let mut fig = Figure::new(
                &format!("fig4_{scheme_name}_{tag}"),
                &format!(
                    "Fig. 4 {scheme_name} under BPA, Wmax {tag}-class: normalized lifetime (%)"
                ),
                &["regions", "period 8", "period 16", "period 32", "period 64"],
            );
            for (ri, &regions) in region_counts.iter().enumerate() {
                let mut row = vec![fmt_regions(regions)];
                for pi in 0..periods.len() {
                    let r = &results[pi * region_counts.len() + ri];
                    row.push(pct(r.normalized_lifetime));
                }
                fig.row(row);
            }
            fig.emit();
        }
    }
    paper_note(
        "Paper Fig. 4: for the hybrid schemes the lifetime grows monotonically with the \
         region count, reaching ~93.7% of ideal at 64M regions (1e6 cells) and <=84% \
         (1e5 cells); with many regions a small period slightly *hurts* (extra \
         exchange writes). Expect the same monotone rise and the small-period \
         crossover at the fine-grained end.",
    );
}
