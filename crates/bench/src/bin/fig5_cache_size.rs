//! Fig. 5 — normalized lifetime of PCM-S and MWSR as a function of the
//! on-chip mapping-cache budget, under BPA, for both endurance classes.
//!
//! The non-tiered hybrid schemes must hold *all* mapping entries on chip,
//! so the SRAM budget caps the affordable region count: regions = budget ×
//! 8 / entry bits. MWSR entries are roughly twice PCM-S entries (two
//! placements + counter), so the same budget affords it half the regions —
//! that is why the paper finds MWSR below PCM-S here. At this device's
//! 2^16 lines the entries are 36 and 52 bits, and rounding the count down
//! to a power of two gives both schemes the same regions at every budget.
//!
//! Cache budgets are scaled with the device (DESIGN.md §4): the device is
//! 2^28/2^16 = 4096× smaller than the paper's, so the paper's 64KB–4MB
//! x-axis becomes 16B–1KB; we sweep 64B–32KB (paper-equivalent
//! 256KB–128MB) and print the paper-equivalent label.

use sawl_bench::{
    bpa, device, paper_note, Figure, ENDURANCE_1E5_CLASS, ENDURANCE_1E6_CLASS, LIFETIME_LINES,
};
use sawl_simctl::report::pct;
use sawl_simctl::{run_all, run_lifetime, LifetimeExperiment, SchemeSpec};

/// Entry bits: PCM-S keeps prn+key (= log2 lines) plus a 20-bit counter;
/// MWSR keeps two placements plus the counter (§2.2 item 4).
fn entry_bits(scheme: &str, lines: u64) -> u64 {
    let addr = 64 - (lines - 1).leading_zeros() as u64;
    match scheme {
        "pcm-s" => addr + 20,
        _ => 2 * addr + 20,
    }
}

/// Largest power-of-two region count affordable within `bytes` of SRAM,
/// clamped to [1, lines/4] (4-line minimum regions).
fn affordable_regions(bytes: u64, scheme: &str, lines: u64) -> u64 {
    let raw = (bytes * 8) / entry_bits(scheme, lines);
    let mut regions = 1u64;
    while regions * 2 <= raw && regions * 2 <= lines / 4 {
        regions *= 2;
    }
    regions
}

fn main() {
    let budgets: Vec<u64> = (6..=15).map(|k| 1u64 << k).collect(); // 64B..32KB scaled
    let period = 32;

    for (tag, endurance) in [("1e6", ENDURANCE_1E6_CLASS), ("1e5", ENDURANCE_1E5_CLASS)] {
        let mut grid = Vec::new();
        for scheme_name in ["pcm-s", "mwsr"] {
            for &bytes in &budgets {
                let regions = affordable_regions(bytes, scheme_name, LIFETIME_LINES);
                let region_lines = LIFETIME_LINES / regions;
                let scheme = if scheme_name == "pcm-s" {
                    SchemeSpec::PcmS { region_lines, period }
                } else {
                    SchemeSpec::Mwsr { region_lines, period }
                };
                grid.push(LifetimeExperiment::new(
                    format!("fig5/{tag}/{scheme_name}/{bytes}"),
                    scheme,
                    bpa(endurance),
                    LIFETIME_LINES,
                    device(endurance),
                ));
            }
        }
        let results = run_all(&grid, run_lifetime).expect("sweep failed");
        let mut fig = Figure::new(
            &format!("fig5_{tag}"),
            &format!(
                "Fig. 5({}) lifetime vs on-chip cache budget, Wmax {tag}-class (%)",
                if tag == "1e6" { "a" } else { "b" }
            ),
            &[
                "cache (scaled)",
                "cache (paper-equiv)",
                "pcm-s regions",
                "pcm-s",
                "mwsr regions",
                "mwsr",
            ],
        );
        for (bi, &bytes) in budgets.iter().enumerate() {
            let pcms = &results[bi];
            let mwsr = &results[budgets.len() + bi];
            fig.row(vec![
                format!("{bytes}B"),
                format!("{}KB", bytes * 4096 / 1024),
                affordable_regions(bytes, "pcm-s", LIFETIME_LINES).to_string(),
                pct(pcms.normalized_lifetime),
                affordable_regions(bytes, "mwsr", LIFETIME_LINES).to_string(),
                pct(mwsr.normalized_lifetime),
            ]);
        }
        fig.emit();
    }
    paper_note(
        "Paper Fig. 5: lifetime grows with the cache budget; PCM-S tops out at ~72% of \
         ideal (1e6 cells) / ~41% (1e5 cells) even at 4MB, and MWSR stays below PCM-S \
         at every budget because its entries are about twice as large. Expect the \
         same saturating curves with PCM-S above MWSR throughout.",
    );
}
