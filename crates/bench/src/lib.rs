//! # sawl-bench — figure/table regeneration harness
//!
//! One binary per table and figure of the paper (`src/bin/fig*.rs`,
//! `tab1_config.rs`, `sec45_overhead.rs`), plus ablation binaries for the
//! design choices called out in DESIGN.md §9 and `speed_probe`, which
//! times the BPA lifetime probe per scheme into `BENCH_speed.json`.
//!
//! The binaries do not drive wear levelers themselves: each one builds a
//! grid of [`sawl_simctl::Scenario`]s, runs it through
//! [`sawl_simctl::run_all`] (which shards across cores), and renders the
//! reports through [`Figure`]. This module holds the shared
//! scaled-geometry constants (DESIGN.md §4) and the output helpers.

pub mod latency;

use std::path::PathBuf;

use sawl_core::History;
use sawl_simctl::report::Table;
use sawl_simctl::{Channel, DeviceSpec, Series, WorkloadSpec};

/// Logical data lines for lifetime experiments (scaled device, §4 of
/// DESIGN.md). 2^16 lines at Wmax 1e4 wears out in a few seconds of
/// simulation per configuration.
pub const LIFETIME_LINES: u64 = 1 << 16;

/// Scaled stand-in for the paper's 1e6-endurance cells (uniform 100×
/// scale; see DESIGN.md §4).
pub const ENDURANCE_1E6_CLASS: u32 = 10_000;

/// Scaled stand-in for the paper's 1e5-endurance cells.
pub const ENDURANCE_1E5_CLASS: u32 = 1_000;

/// Logical lines for hit-rate/performance experiments (no wear-out needed,
/// so the space can be larger to make CMT pressure realistic).
pub const PERF_LINES: u64 = 1 << 22;

/// The Table 1 CMT budget in bytes.
pub const CMT_BYTES: u64 = 256 * 1024;

/// The paper's BPA: "randomly select logical addresses and repeatedly
/// write to each one precisely". The dwell (writes per target) is not
/// published; we pin it to one full endurance budget — an unprotected line
/// dies within a single targeting, so the attack's damage is bounded only
/// by how fast the scheme migrates the victim (swept in
/// `ablation_bpa_dwell`).
pub fn bpa(endurance: u32) -> WorkloadSpec {
    WorkloadSpec::Bpa { writes_per_target: u64::from(endurance).max(64) }
}

/// Device spec for a given endurance class, paper provisioning.
pub fn device(endurance: u32) -> DeviceSpec {
    DeviceSpec { endurance, ..Default::default() }
}

/// Repository-level results directory (`results/` next to Cargo.toml, or
/// `SAWL_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("SAWL_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // crates/bench -> workspace root
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// A figure's output: an aligned table on stdout plus the same data as
/// `results/<stem>.csv`. Replaces the per-binary print/save boilerplate —
/// build rows, then [`Figure::emit`] once.
pub struct Figure {
    stem: String,
    table: Table,
}

impl Figure {
    /// Start a figure table with the given CSV stem, display title and
    /// column headers.
    pub fn new(stem: &str, title: &str, headers: &[&str]) -> Self {
        Self { stem: stem.to_string(), table: Table::new(title, headers) }
    }

    /// Append one row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.table.row(cells);
        self
    }

    /// Print the aligned table and persist it as `results/<stem>.csv`.
    pub fn emit(self) {
        println!("{}", self.table.to_aligned_string());
        let path = results_dir().join(format!("{}.csv", self.stem));
        match self.table.write_csv(&path) {
            Ok(()) => println!("[saved {}]", path.display()),
            Err(e) => eprintln!("[could not save {}: {e}]", path.display()),
        }
    }
}

/// Print the aligned table and persist it as `results/<stem>.csv`.
pub fn emit(table: &Table, stem: &str) {
    println!("{}", table.to_aligned_string());
    let path = results_dir().join(format!("{stem}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("[could not save {}: {e}]", path.display()),
    }
}

/// Print the paper's expectation alongside a figure, for EXPERIMENTS.md.
pub fn paper_note(note: &str) {
    println!("\n--- paper reference ---\n{note}\n");
}

/// Write a history's samples as a CSV trajectory (requests, windowed hit
/// rate, instant hit rate, cached region size).
pub fn save_history_csv(history: &History, stem: &str) {
    let mut t =
        Table::new("", &["requests", "windowed_hit_rate", "instant_hit_rate", "region_size"]);
    for s in history.samples() {
        t.row(vec![
            s.requests.to_string(),
            format!("{:.4}", s.windowed_hit_rate),
            format!("{:.4}", s.instant_hit_rate),
            format!("{:.2}", s.cached_region_size),
        ]);
    }
    let path = results_dir().join(format!("{stem}.csv"));
    match t.write_csv(&path) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("[could not save {}: {e}]", path.display()),
    }
}

/// Write a telemetry series as the same CSV trajectory
/// [`save_history_csv`] produces — the recorder's `CmtWindowedHitRate`,
/// `CmtHitRate` and `RegionSizeCached` gauges are the engine history's
/// columns, sampled on the shared request clock. Gauges a scheme does not
/// report render as 0, matching the engine's own pre-window fallback.
pub fn save_series_csv(series: &Series, stem: &str) {
    let mut t =
        Table::new("", &["requests", "windowed_hit_rate", "instant_hit_rate", "region_size"]);
    for p in &series.samples {
        t.row(vec![
            p.requests.to_string(),
            format!("{:.4}", p.gauge(Channel::CmtWindowedHitRate).unwrap_or(0.0)),
            format!("{:.4}", p.gauge(Channel::CmtHitRate).unwrap_or(0.0)),
            format!("{:.2}", p.gauge(Channel::RegionSizeCached).unwrap_or(0.0)),
        ]);
    }
    let path = results_dir().join(format!("{stem}.csv"));
    match t.write_csv(&path) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("[could not save {}: {e}]", path.display()),
    }
}

/// Format the number of regions for a (lines, region_lines) pair the way
/// the paper's x-axes do (16K, 32K, ... 1M).
pub fn fmt_regions(regions: u64) -> String {
    if regions >= 1 << 20 {
        format!("{}M", regions >> 20)
    } else if regions >= 1 << 10 {
        format!("{}K", regions >> 10)
    } else {
        regions.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_formatting() {
        assert_eq!(fmt_regions(512), "512");
        assert_eq!(fmt_regions(16 << 10), "16K");
        assert_eq!(fmt_regions(2 << 20), "2M");
    }

    #[test]
    fn bpa_dwell_scales_with_endurance() {
        let strong = bpa(10_000);
        let weak = bpa(1_000);
        match (strong, weak) {
            (
                WorkloadSpec::Bpa { writes_per_target: s },
                WorkloadSpec::Bpa { writes_per_target: w },
            ) => {
                assert_eq!(s, 10_000);
                assert_eq!(w, 1_000);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn results_dir_is_workspace_relative() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }

    #[test]
    fn figure_rows_chain() {
        let mut f = Figure::new("test_fig", "t", &["a", "b"]);
        f.row(vec!["1".into(), "2".into()]).row(vec!["3".into(), "4".into()]);
        assert!(f.table.to_csv().contains("3,4"));
    }
}
