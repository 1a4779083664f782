//! # sawl-timing — memory-controller timing and IPC estimation
//!
//! The paper evaluates performance as IPC degradation relative to a system
//! without wear leveling (Fig. 17), measured in gem5 with the Table 1
//! configuration: 8 cores at 3.2 GHz, FR-FCFS memory scheduling, a
//! 128-entry queue, MLC NVM at 50/350 ns read/write, and address
//! translation at 5 ns (CMT hit) / 55 ns (miss).
//!
//! gem5 is out of scope (DESIGN.md §5); this crate replaces it with a
//! **closed-loop multi-channel bank-contention simulator** ([`queue`]): a
//! fixed window of outstanding requests (cores × per-core MLP) issues into
//! bounded per-bank FR-FCFS-style queues spread over independent channels;
//! each request pays its translation latency (driven by the actual CMT
//! hit/miss outcome, [`event::Translation`]) on the critical path,
//! serializes on its channel's data bus, and occupies its bank for the
//! device access time. Wear-leveling writes — data exchanges and SAWL's
//! merge/split reorganizations, carried separately on each event — occupy
//! banks in the background. Between requests the cores run the
//! benchmark's non-memory instructions ([`cpu`]). Throughput falls out of
//! the simulation, and IPC with it ([`ipc`]).
//!
//! Beyond the mean, the simulator keeps a log-bucketed HDR-style latency
//! histogram (`sawl-telemetry`) with p50/p99/p999/max queries and
//! attributes every stalled nanosecond to its cause — queueing,
//! translation miss, exchange, or merge/split — which is what the
//! tail-latency figures and the telemetry stream report.

pub mod cpu;
pub mod event;
pub mod ipc;
pub mod queue;

use serde::{Deserialize, Serialize};

pub use cpu::CpuModel;
pub use event::{MemEvent, Translation};
pub use ipc::{ipc_degradation, IpcEstimate, IpcModel};
pub use queue::{ClosedLoopConfig, ClosedLoopSim, ServeCounts, StallBreakdown};

// Histogram vocabulary, re-exported so timing consumers don't need a
// direct `sawl-telemetry` dependency to query percentiles.
pub use sawl_telemetry::{LatencyHistogram, Percentile, TimingSample};

/// Serializable request to attach the timing model to an experiment.
/// Absent means fully disabled (the zero-cost default); `{}` in JSON
/// selects the Table 1 memory system.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TimingSpec {
    /// Memory-system parameters. Omitted fields are not filled
    /// individually — either omit the whole object for the Table 1
    /// default or spell the config out.
    #[serde(default)]
    pub config: ClosedLoopConfig,
    /// Force the timed driver to serve every request scalar — one
    /// `WearLeveler::write` and one controller event per request — instead
    /// of the run-granular fast path. The observed timing is identical
    /// either way (the alignment suite pins it); this knob exists to
    /// measure the fast path's speedup and as an A/B escape hatch.
    #[serde(default)]
    pub scalar_serve: bool,
    /// Attach the full latency-histogram snapshot to the run's
    /// `LatencyReport`. Off by default (the summary percentiles suffice);
    /// sharded sweeps turn it on so per-shard histograms can be merged
    /// slot-exactly into one distribution.
    #[serde(default)]
    pub keep_histogram: bool,
}

impl TimingSpec {
    /// Build the simulator this spec describes.
    pub fn build(&self) -> ClosedLoopSim {
        ClosedLoopSim::new(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_spec_defaults_to_table1() {
        let spec: TimingSpec = serde_json::from_str("{}").unwrap();
        assert_eq!(spec, TimingSpec::default());
        assert_eq!(spec.config, ClosedLoopConfig::table1(10.0, 32));
        let json = serde_json::to_string(&spec).unwrap();
        let back: TimingSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn timing_spec_accepts_full_config() {
        let json = r#"{"config": {"channels": 1, "banks": 8, "window": 4, "queue_depth": 2,
            "think_ns": 1.0, "read_ns": 50.0, "write_ns": 350.0, "bus_ns": 0.0,
            "trans_hit_ns": 5.0, "trans_miss_ns": 55.0}}"#;
        let spec: TimingSpec = serde_json::from_str(json).unwrap();
        assert_eq!(spec.config.banks, 8);
        assert_eq!(spec.config.queue_depth, 2);
        let sim = spec.build();
        assert_eq!(sim.config(), spec.config);
    }
}
