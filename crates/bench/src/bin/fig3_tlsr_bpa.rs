//! Fig. 3 — normalized lifetime of an NVM system under TLSR and the BPA
//! attack, sweeping the number of regions and the inner swapping period,
//! for both endurance classes.
//!
//! Paper geometry: 64 GB (2^28 lines), regions 16K–2M. Scaled geometry
//! (DESIGN.md §4): 2^16 lines, regions 2^6–2^14, which covers the same
//! range of *region sizes* (2^10 down to 2^2 lines) relative to the sweep.
//! The outer period is fixed at 32 as in the paper.

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
        let mut grid = Vec::new();
        for &period in &periods {
            for &regions in &region_counts {
                let region_lines = LIFETIME_LINES / regions;
                grid.push(LifetimeExperiment::new(
                    format!("fig3/{tag}/p{period}/r{regions}"),
                    SchemeSpec::Tlsr { region_lines, inner_period: period, outer_period: 32 },
                    bpa(endurance),
                    LIFETIME_LINES,
                    device(endurance),
                ));
            }
        }
        let results = run_all(&grid, run_lifetime).expect("sweep failed");
        let mut fig = Figure::new(
            &format!("fig3_{tag}"),
            &format!(
                "Fig. 3({}) TLSR under BPA, Wmax {tag}-class: normalized lifetime (%)",
                if tag == "1e6" { "a" } else { "b" }
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
    paper_note(
        "Paper Fig. 3: lifetime rises then falls with the region count; best ~42% of \
         ideal at 32K regions with period 8 (15.6% overhead) for 1e6-class cells; \
         1e5-class cells peak at only ~4.6%. Expect the same rise-then-fall shape, a \
         clear period ordering at small region counts, and a collapsed curve for the \
         weak-endurance device.",
    );
}
