//! # sawl-simctl — experiment control plane
//!
//! Everything needed to turn the crates below into the paper's numbers:
//!
//! * [`spec`] — serializable descriptions of schemes, workloads and
//!   devices; a `(SchemeSpec, WorkloadSpec, DeviceSpec)` triple plus a seed
//!   fully determines a run, so every figure is reproducible from its
//!   config JSON.
//! * [`driver`] — the one shared request pump the probes below drive
//!   requests through; no binary hand-rolls the request loop.
//! * [`lifetime`] — the lifetime probe: run demand writes through a
//!   wear leveler until the device exhausts its spare pool and report the
//!   normalized lifetime (the paper's §4.3 metric).
//! * [`trace`] — the trace probe: replay a fixed request count on a
//!   wear-free device and report the CMT hit rate and SAWL's adaptation
//!   history (§4.2, Figs. 12–14).
//! * [`perf`] — the performance probe: replay a workload through a scheme
//!   while feeding the closed-loop timing simulator, reporting CMT hit
//!   rate, mean memory latency, and IPC degradation versus the
//!   no-wear-leveling baseline (§4.4).
//! * [`runner`] — a work-stealing parallel map used to sweep experiment
//!   grids across cores; [`run_all`](runner::run_all) runs a grid of one
//!   experiment kind through it. This is the layer every figure binary and
//!   example talks to. Results keep their input order and every run is
//!   seeded deterministically ([`seed`]).
//! * [`report`] — CSV and aligned-table rendering for the figure binaries.
//! * [`sysconfig`] — the Table 1 system configuration, printable.
//! * [`signal`] — a dependency-free SIGINT/SIGTERM latch for graceful
//!   interruption of long runs.

pub mod driver;
pub mod lifetime;
pub mod perf;
pub mod report;
pub mod resume;
pub mod runner;
pub mod seed;
pub mod signal;
pub mod spec;
pub mod sysconfig;
pub mod telemetry;
pub mod timing;
pub mod trace;

pub use driver::{
    feed_observation, pump, pump_observed, pump_writes, pump_writes_telemetry, pump_writes_timed,
    DriverError, PumpStats, BLOCK,
};
pub use lifetime::{run_lifetime, LifetimeExperiment, LifetimeResult};
pub use perf::{run_perf, PerfExperiment, PerfResult};
pub use report::Table;
pub use resume::{ResumableRun, DEFAULT_CHECKPOINT_INTERVAL};
pub use runner::{parallel_map, run_all, set_thread_override};
pub use seed::stable_seed;
pub use spec::{
    DeviceSpec, DiurnalPhase, SchemeInstance, SchemeSpec, TranslationKind, WorkloadSpec,
};
pub use sysconfig::SystemConfig;

pub use telemetry::{device_sample, TelemetryRun};
pub use timing::{EventBuilder, LatencyReport, TimingRun};
pub use trace::{run_trace, AdaptationTrace, TraceExperiment, TraceReport};

// Fault vocabulary, re-exported so spec authors don't need a direct
// `sawl-nvm` dependency to describe a faulted run.
pub use sawl_nvm::{FaultCounters, FaultPlan, FaultPlanError};

// Telemetry vocabulary, likewise re-exported for spec authors.
pub use sawl_telemetry::{Channel, Event, EventKind, Series, TelemetrySpec};

// Timing vocabulary, likewise re-exported for spec authors.
pub use sawl_timing::{ClosedLoopConfig, Percentile, TimingSpec};
