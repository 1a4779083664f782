//! End-to-end and per-layer benchmark of the SAWL simulator.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints one JSON result line. See
//! `README.md` beside this crate for the workloads, the metrics and what
//! each layer metric is expected to move.

pub mod case;
pub mod host;
pub mod probe;
pub mod report;
pub mod serve;
pub mod sim;
pub mod workloads;
