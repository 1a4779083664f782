//! Table 1 — the simulated system configuration, as a printable value.
//!
//! The reproduction scales the device geometry per experiment (DESIGN.md
//! §4); this struct records both the paper's configuration and the scaled
//! values actually used, so the `tab1_config` binary can print the two
//! side by side.

use serde::{Deserialize, Serialize};

/// One configuration row: component, paper value, reproduction value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigRow {
    /// Component name.
    pub component: String,
    /// The paper's Table 1 value.
    pub paper: String,
    /// What this reproduction uses (and why it differs, briefly).
    pub ours: String,
}

/// The full Table 1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// All rows in Table 1 order.
    pub rows: Vec<ConfigRow>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        let r = |component: &str, paper: &str, ours: &str| ConfigRow {
            component: component.into(),
            paper: paper.into(),
            ours: ours.into(),
        };
        Self {
            rows: vec![
                r("CPU", "8 cores, x86-64, 3.2 GHz", "8-core closed-loop model, 3.2 GHz"),
                r("Private L1 cache", "64KB", "absorbed into per-benchmark mem/kilo-instr"),
                r("Shared L2 cache", "512KB", "absorbed into per-benchmark mem/kilo-instr"),
                r("CMT cache", "256KB", "256KB (entries = bytes*8 / entry bits)"),
                r("DRAM/PCM capacity", "128MB / 8GB", "scaled: 2^16-2^24 lines per DESIGN.md §4"),
                r(
                    "Read/Write latency",
                    "DRAM 50/50ns, PCM 50/350ns",
                    "PCM identical (sawl_timing::ClosedLoopConfig::table1)",
                ),
                r(
                    "Address translation latency",
                    "cache hit 5ns, miss 55ns",
                    "identical (per-request in sawl-timing)",
                ),
                r("Memory scheduling", "FR-FCFS, queue 128", "per-bank FCFS, window 32"),
                r("Banks", "32 x 2GB", "32 banks, low-bit interleaved"),
                r(
                    "Cell endurance",
                    "1e5 / 1e6 writes",
                    "1e3 / 1e4 (uniform 100x scale, ratios preserved)",
                ),
            ],
        }
    }
}

impl SystemConfig {
    /// Render as an aligned table via the report module.
    pub fn to_table(&self) -> crate::report::Table {
        let mut t = crate::report::Table::new(
            "Table 1: simulated system configuration (paper vs reproduction)",
            &["component", "paper", "reproduction"],
        );
        for row in &self.rows {
            t.row(vec![row.component.clone(), row.paper.clone(), row.ours.clone()]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_table1_row() {
        let c = SystemConfig::default();
        let names: Vec<&str> = c.rows.iter().map(|r| r.component.as_str()).collect();
        for expected in ["CPU", "CMT cache", "Read/Write latency", "Address translation latency"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert!(c.rows.len() >= 7);
    }

    #[test]
    fn renders_as_table() {
        let s = SystemConfig::default().to_table().to_aligned_string();
        assert!(s.contains("3.2 GHz"));
        assert!(s.contains("350ns"));
    }
}
