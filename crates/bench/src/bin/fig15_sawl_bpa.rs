//! Fig. 15 — normalized lifetime under BPA: PCM-S and MWSR (capped by a
//! 256 KB-class on-chip table) versus SAWL (all mappings in NVM, regions
//! down to the initial granularity), sweeping the swapping period.
//!
//! "SAWL achieves much higher lifetime than PCM-S and MWSR, due to storing
//! all address mappings in NVM and no limitation on the number of
//! regions." The hybrid baselines here use the finest region count a
//! Table 1-class SRAM budget affords at the scaled geometry (DESIGN.md
//! §4); SAWL runs its paper configuration (P = 4).

use sawl_bench::{
    bpa, device, paper_note, Figure, ENDURANCE_1E5_CLASS, ENDURANCE_1E6_CLASS, LIFETIME_LINES,
};
use sawl_core::SawlConfig;
use sawl_simctl::report::pct;
use sawl_simctl::{run_all, run_lifetime, LifetimeExperiment, SchemeSpec};

fn main() {
    let periods: [u64; 4] = [8, 16, 32, 64];
    // The scaled stand-in for the on-chip budget: 512 regions (see
    // fig5_cache_size's affordable-regions mapping at the top budget).
    let hybrid_region_lines = LIFETIME_LINES / 512;

    for (tag, endurance) in [("1e6", ENDURANCE_1E6_CLASS), ("1e5", ENDURANCE_1E5_CLASS)] {
        let mut grid = Vec::new();
        for &period in &periods {
            grid.push(LifetimeExperiment::new(
                format!("fig15/{tag}/pcms/{period}"),
                SchemeSpec::PcmS { region_lines: hybrid_region_lines, period },
                bpa(endurance),
                LIFETIME_LINES,
                device(endurance),
            ));
            grid.push(LifetimeExperiment::new(
                format!("fig15/{tag}/mwsr/{period}"),
                SchemeSpec::Mwsr { region_lines: hybrid_region_lines * 2, period },
                bpa(endurance),
                LIFETIME_LINES,
                device(endurance),
            ));
            grid.push(LifetimeExperiment::new(
                format!("fig15/{tag}/sawl/{period}"),
                SchemeSpec::Sawl(SawlConfig {
                    initial_granularity: 4,
                    max_granularity: 64,
                    cmt_entries: 4096,
                    swap_period: period,
                    observation_window: 1 << 22,
                    settling_window: 1 << 22,
                    sample_interval: 100_000,
                    ..SawlConfig::default()
                }),
                bpa(endurance),
                LIFETIME_LINES,
                device(endurance),
            ));
        }
        let results = run_all(&grid, run_lifetime).expect("sweep failed");
        let mut fig = Figure::new(
            &format!("fig15_{tag}"),
            &format!(
                "Fig. 15({}) lifetime under BPA vs swapping period, Wmax {tag}-class (%)",
                if tag == "1e6" { "a" } else { "b" }
            ),
            &["period", "pcm-s", "mwsr", "sawl", "sawl overhead (%)"],
        );
        for (pi, &period) in periods.iter().enumerate() {
            let pcms = &results[pi * 3];
            let mwsr = &results[pi * 3 + 1];
            let sawl = &results[pi * 3 + 2];
            fig.row(vec![
                period.to_string(),
                pct(pcms.normalized_lifetime),
                pct(mwsr.normalized_lifetime),
                pct(sawl.normalized_lifetime),
                pct(sawl.overhead_fraction),
            ]);
        }
        fig.emit();
    }
    paper_note(
        "Paper Fig. 15: SAWL improves the normalized lifetime by 25-51 percentage \
         points over PCM-S/MWSR at 1e6-class endurance and by 50-78 points at \
         1e5-class; smaller swapping periods help the hybrids at the cost of write \
         overhead. Expect SAWL well above both hybrids at every period, with the \
         gap widening for the weak-endurance device.",
    );
}
