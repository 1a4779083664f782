//! Attack resilience — how long does each wear-leveling scheme keep a
//! weak-endurance MLC device alive under the paper's two attacks?
//!
//! Replays the Repeated Address Attack (RAA) and the Birthday Paradox
//! Attack (BPA) against every scheme in the suite and prints the
//! normalized lifetime each one reaches — the paper's §2.2 threat analysis
//! in one table. Schemes with static mappings (Segment Swapping, RBSG)
//! collapse under RAA; randomized schemes survive RAA but differ sharply
//! under BPA.
//!
//! ```text
//! cargo run --release --example attack_resilience
//! ```

use sawl::sawl::SawlConfig;
use sawl::simctl::{
    run_all, run_lifetime, DeviceSpec, LifetimeExperiment, SchemeSpec, Table, WorkloadSpec,
};

fn main() {
    let data_lines: u64 = 1 << 14;
    let endurance: u32 = 2_000;
    let schemes: Vec<(&str, SchemeSpec)> = vec![
        ("baseline", SchemeSpec::Baseline),
        ("segment-swap", SchemeSpec::SegmentSwap { segment_lines: 64, swap_period: 100 }),
        ("rbsg", SchemeSpec::Rbsg { regions: 64, region_lines: 256, period: 64 }),
        ("tlsr", SchemeSpec::Tlsr { region_lines: 16, inner_period: 8, outer_period: 32 }),
        ("pcm-s", SchemeSpec::PcmS { region_lines: 16, period: 16 }),
        ("mwsr", SchemeSpec::Mwsr { region_lines: 16, period: 16 }),
        (
            // Same swapping period as the hybrids so the comparison
            // isolates the mapping architecture, not the exchange rate.
            "sawl",
            SchemeSpec::Sawl(SawlConfig {
                initial_granularity: 4,
                max_granularity: 64,
                cmt_entries: 1024,
                swap_period: 16,
                observation_window: 1 << 22,
                settling_window: 1 << 22,
                sample_interval: 100_000,
                ..SawlConfig::default()
            }),
        ),
        ("ideal", SchemeSpec::Ideal),
    ];
    let attacks: Vec<(&str, WorkloadSpec)> = vec![
        ("RAA", WorkloadSpec::Raa),
        ("BPA", WorkloadSpec::Bpa { writes_per_target: u64::from(endurance) }),
    ];

    let mut grid = Vec::new();
    for (sname, scheme) in &schemes {
        for (aname, attack) in &attacks {
            grid.push(LifetimeExperiment::new(
                format!("example/{sname}/{aname}"),
                scheme.clone(),
                attack.clone(),
                data_lines,
                DeviceSpec { endurance, ..Default::default() },
            ));
        }
    }
    let results = run_all(&grid, run_lifetime).expect("sweep failed");

    let mut table = Table::new(
        "Normalized lifetime under attack (% of ideal)",
        &["scheme", "RAA", "BPA", "BPA write overhead (%)"],
    );
    for (i, (sname, _)) in schemes.iter().enumerate() {
        let raa = &results[i * 2];
        let bpa = &results[i * 2 + 1];
        table.row(vec![
            sname.to_string(),
            format!("{:.1}", raa.normalized_lifetime * 100.0),
            format!("{:.1}", bpa.normalized_lifetime * 100.0),
            format!("{:.1}", bpa.overhead_fraction * 100.0),
        ]);
    }
    println!("{}", table.to_aligned_string());
    println!(
        "Static schemes fail RAA; randomized ones survive it; BPA separates the\n\
         hybrids from SAWL, which wear-levels at fine granularity without an\n\
         on-chip table bound."
    );
}
