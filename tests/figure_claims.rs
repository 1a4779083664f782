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

/// Index of the largest value in `values` (the first on ties).
fn argmax(values: impl IntoIterator<Item = f64>) -> usize {
    let mut best = (0, f64::NEG_INFINITY);
    for (i, v) in values.into_iter().enumerate() {
        if v > best.1 {
            best = (i, v);
        }
    }
    best.0
}

#[test]
fn fig3_every_period_peaks_at_an_interior_region_count_for_1e6_cells() {
    // Paper Fig. 3: TLSR's lifetime rises then falls with the number of
    // regions. With 1e6-class cells every period column turns inside the
    // swept range.
    let t = table("fig3_1e6");
    assert_eq!(t.rows.len(), 9, "64 to 16K regions");
    for (c, column) in t.columns.iter().enumerate() {
        let peak = argmax(t.rows.iter().map(|(_, v)| v[c]));
        assert!(
            peak > 0 && peak < t.rows.len() - 1,
            "fig3_1e6 {column}: peak at the edge ({} regions)",
            t.rows[peak].0
        );
    }
}

#[test]
fn fig3_best_cell_is_interior_for_1e5_cells() {
    // With 1e5-class cells the best configuration still sits inside the
    // sweep. The period 32 and 64 columns are flat or still rising at 16K
    // regions; EXPERIMENTS.md reports that as a finding.
    let t = table("fig3_1e5");
    let cells = t.rows.iter().flat_map(|(_, v)| v.iter().copied());
    let best_row = argmax(cells) / t.columns.len();
    assert!(
        best_row > 0 && best_row < t.rows.len() - 1,
        "fig3_1e5: best cell at the edge ({} regions)",
        t.rows[best_row].0
    );
}

#[test]
fn fig15_sawl_outlives_both_hybrids_at_every_period() {
    // Paper Fig. 15: SAWL beats PCM-S and MWSR under BPA in both panels.
    for stem in ["fig15_1e6", "fig15_1e5"] {
        let t = table(stem);
        assert_eq!(t.columns[..3], ["pcm-s", "mwsr", "sawl"], "{stem}");
        for (period, v) in &t.rows {
            assert!(
                v[2] > v[0] && v[2] > v[1],
                "{stem} period {period}: sawl {} vs pcm-s {} / mwsr {}",
                v[2],
                v[0],
                v[1]
            );
        }
    }
}

#[test]
fn bpa_dwell_ablation_keeps_the_baseline_last() {
    // Whatever the unpublished BPA dwell, the unleveled baseline lives
    // shorter than PCM-S and SAWL.
    let t = table("ablation_bpa_dwell");
    assert_eq!(t.columns, ["baseline", "pcm-s", "sawl"]);
    for (dwell, v) in &t.rows {
        assert!(
            v[0] < v[1] && v[0] < v[2],
            "dwell {dwell}: baseline {} vs pcm-s {} / sawl {}",
            v[0],
            v[1],
            v[2]
        );
    }
}
