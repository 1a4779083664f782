//! The paper's "shape reproduced" claims, checked against the committed
//! figure CSVs under `results/` (the files EXPERIMENTS.md reports from).
//! CI regenerates those CSVs byte for byte, so these checks hold the
//! prose to the output the code writes.

use std::path::Path;

/// One figure CSV: its column headers after the first, and each row's
/// label with its values.
struct Table {
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

fn table(stem: &str) -> Table {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results").join(format!("{stem}.csv"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut lines = text.lines();
    let columns = lines.next().unwrap().split(',').skip(1).map(String::from).collect();
    let rows = lines
        .map(|line| {
            let mut cells = line.split(',');
            let label = cells.next().unwrap().to_string();
            (label, cells.map(|c| c.parse().unwrap()).collect())
        })
        .collect();
    Table { columns, rows }
}

const FIG4_PANELS: [&str; 4] =
    ["fig4_pcm-s_1e6", "fig4_mwsr_1e6", "fig4_pcm-s_1e5", "fig4_mwsr_1e5"];

#[test]
fn fig4_lifetime_rises_monotonically_with_region_count() {
    // Paper Fig. 4: for the hybrid schemes the lifetime grows with the
    // number of regions, at every swapping period.
    for stem in FIG4_PANELS {
        let t = table(stem);
        assert_eq!(t.rows.len(), 9, "{stem}: 64 to 16K regions");
        for (c, column) in t.columns.iter().enumerate() {
            for pair in t.rows.windows(2) {
                let ((r0, v0), (r1, v1)) = (&pair[0], &pair[1]);
                assert!(
                    v1[c] >= v0[c],
                    "{stem} {column}: {r1} regions {} < {r0} regions {}",
                    v1[c],
                    v0[c]
                );
            }
        }
        let (first, last) = (&t.rows[0].1, &t.rows[t.rows.len() - 1].1);
        assert!(
            first.iter().zip(last).all(|(a, b)| b > a),
            "{stem}: no rise from 64 to 16K regions"
        );
    }
}

#[test]
fn fig4_small_period_crossover_appears_for_pcms_at_the_finest_regions() {
    // Paper Fig. 4: with many regions a small period slightly hurts. At
    // 16K regions PCM-S (1e6 cells) does best at period 16, ahead of
    // period 8. The other three panels keep period 8 on top there; that
    // is reported as a finding in EXPERIMENTS.md.
    let at_16k = |stem: &str| {
        let t = table(stem);
        let (label, values) = t.rows.last().unwrap().clone();
        assert_eq!(label, "16K", "{stem}");
        assert_eq!(t.columns[..2], ["period 8", "period 16"], "{stem}");
        values
    };
    let pcms = at_16k("fig4_pcm-s_1e6");
    assert!(pcms[1] > pcms[0], "PCM-S 1e6 at 16K: period 16 {} <= period 8 {}", pcms[1], pcms[0]);
    for stem in ["fig4_mwsr_1e6", "fig4_pcm-s_1e5", "fig4_mwsr_1e5"] {
        let v = at_16k(stem);
        assert!(v[0] > v[1], "{stem} at 16K: period 8 {} <= period 16 {}", v[0], v[1]);
    }
}
