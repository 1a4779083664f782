//! Sharded, deterministic timed latency sweeps (the `fig_latency` core).
//!
//! One sweep cell is a scheme × workload pair; each cell fans out over
//! `seeds` independent shards — same scheme and workload, differently
//! seeded request streams, each serving `requests / seeds` demand writes
//! with the timing model attached. The whole shard grid runs through
//! [`sawl_simctl::run_all`] (one `parallel_map` over every shard of every
//! cell), and each cell's shards are then reduced with the telemetry
//! histogram's slot-exact merge.
//!
//! Determinism: every shard derives its RNG stream from its own id, the
//! parallel map reassembles results in input order, and the reduction
//! folds shards left-to-right — so an N-thread sweep is bit-identical to
//! a 1-thread sweep (`tests/latency_shards.rs` pins this). The stall
//! sums are f64, but the summation order is fixed by the shard order, not
//! the scheduling.

use serde::{Deserialize, Serialize};

use sawl_simctl::{
    run_all, run_scenario, DeviceSpec, LatencyReport, Scenario, SchemeSpec, TimingSpec,
    WorkloadSpec,
};
use sawl_telemetry::LatencyHistogram;

/// Geometry and sharding of one latency sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Logical data lines per run (power of two).
    pub data_lines: u64,
    /// Total demand writes per cell, split evenly across the shards
    /// (must be divisible by `seeds`).
    pub requests: u64,
    /// Independent seed shards per cell (≥ 1).
    pub seeds: u64,
    /// Device endurance; sweeps max it so every run serves the full
    /// request budget and percentiles compare identical sample counts.
    pub endurance: u32,
}

impl SweepConfig {
    /// The full fig_latency geometry (2^16 lines, 2M writes per cell).
    pub fn full(seeds: u64) -> Self {
        Self { data_lines: 1 << 16, requests: 2_000_000, seeds, endurance: u32::MAX }
    }

    /// The CI smoke geometry (2^12 lines, 100k writes per cell).
    pub fn smoke(seeds: u64) -> Self {
        Self { data_lines: 1 << 12, requests: 100_000, seeds, endurance: u32::MAX }
    }
}

/// The fig_latency scheme axis.
pub fn scheme_grid(data_lines: u64) -> Vec<(&'static str, SchemeSpec)> {
    let cmt = (data_lines / 64).max(64) as usize;
    vec![
        ("baseline", SchemeSpec::Baseline),
        ("pcms", SchemeSpec::PcmS { region_lines: 16, period: 32 }),
        ("tlsr", SchemeSpec::Tlsr { region_lines: 64, inner_period: 8, outer_period: 32 }),
        ("mwsr", SchemeSpec::Mwsr { region_lines: 16, period: 32 }),
        ("nwl", SchemeSpec::Nwl { granularity: 4, cmt_entries: cmt, swap_period: 1 << 20 }),
        ("sawl", SchemeSpec::sawl_default(cmt)),
    ]
}

/// The fig_latency workload axis.
pub fn workload_grid() -> Vec<(&'static str, WorkloadSpec)> {
    vec![
        ("bpa", WorkloadSpec::Bpa { writes_per_target: 2048 }),
        ("zipf", WorkloadSpec::Zipf { exponent: 1.0, write_ratio: 1.0 }),
    ]
}

/// One reduced sweep cell: the merged latency distribution of all its
/// seed shards. `report.histogram` carries the merged snapshot, so rows
/// can be byte-compared across thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Scheme axis label.
    pub scheme: String,
    /// Workload axis label.
    pub workload: String,
    /// Slot-exact merge of the cell's shard reports.
    pub report: LatencyReport,
}

/// Run the sharded sweep over the given grids and reduce each cell.
///
/// Shard ids are `fig-latency/<scheme>/<workload>/s<k>`; the id seeds the
/// shard's request stream, so shard k is the same run no matter how many
/// worker threads execute the grid.
pub fn run_sweep(
    cfg: &SweepConfig,
    schemes: &[(&str, SchemeSpec)],
    workloads: &[(&str, WorkloadSpec)],
) -> Vec<SweepRow> {
    assert!(cfg.seeds >= 1, "sweeps need at least one seed shard");
    assert_eq!(
        cfg.requests % cfg.seeds,
        0,
        "per-cell request budget must split evenly across seed shards"
    );
    let per_shard = cfg.requests / cfg.seeds;
    let timing = TimingSpec { keep_histogram: true, ..TimingSpec::default() };
    let mut grid = Vec::new();
    for (sname, scheme) in schemes {
        for (wname, workload) in workloads {
            for k in 0..cfg.seeds {
                grid.push(
                    Scenario::lifetime(
                        format!("fig-latency/{sname}/{wname}/s{k}"),
                        scheme.clone(),
                        workload.clone(),
                        cfg.data_lines,
                        DeviceSpec { endurance: cfg.endurance, ..Default::default() },
                    )
                    .with_write_cap(per_shard)
                    .with_timing(timing),
                );
            }
        }
    }
    let reports = run_all(&grid).expect("latency sweep scenario failed");

    let mut rows = Vec::new();
    let mut it = reports.iter();
    for (sname, _) in schemes {
        for (wname, _) in workloads {
            let shards: Vec<&LatencyReport> = (0..cfg.seeds)
                .map(|_| {
                    it.next()
                        .expect("report grid shorter than scenario grid")
                        .lifetime()
                        .latency
                        .as_ref()
                        .expect("timed run must report latency")
                })
                .collect();
            rows.push(SweepRow {
                scheme: (*sname).into(),
                workload: (*wname).into(),
                report: merge_shards(&shards),
            });
        }
    }
    rows
}

/// Reduce one cell's shard reports: slot-exact histogram merge for the
/// distribution columns, left-to-right sums for the stall attribution and
/// simulated elapsed time.
pub fn merge_shards(shards: &[&LatencyReport]) -> LatencyReport {
    assert!(!shards.is_empty());
    let mut hist = LatencyHistogram::new();
    let mut merged = LatencyReport {
        requests: 0,
        mean_ns: 0.0,
        p50_ns: 0,
        p99_ns: 0,
        p999_ns: 0,
        max_ns: 0,
        saturated: false,
        stall_queue_ns: 0.0,
        stall_trans_miss_ns: 0.0,
        stall_exchange_ns: 0.0,
        stall_reorg_ns: 0.0,
        elapsed_ns: 0.0,
        histogram: None,
    };
    for shard in shards {
        let snap = shard.histogram.as_ref().expect("shard reports must keep their histogram");
        hist.merge(&snap.restore());
        merged.stall_queue_ns += shard.stall_queue_ns;
        merged.stall_trans_miss_ns += shard.stall_trans_miss_ns;
        merged.stall_exchange_ns += shard.stall_exchange_ns;
        merged.stall_reorg_ns += shard.stall_reorg_ns;
        merged.elapsed_ns += shard.elapsed_ns;
    }
    let pctl = |p: f64| hist.percentile(p).map_or(0, |x| x.ns);
    merged.requests = hist.count();
    merged.mean_ns = hist.mean_ns();
    merged.p50_ns = pctl(0.5);
    merged.p99_ns = pctl(0.99);
    merged.p999_ns = pctl(0.999);
    merged.max_ns = hist.max_ns();
    merged.saturated = hist.percentile(1.0).is_some_and(|x| x.saturated);
    merged.histogram = Some(hist.snapshot());
    merged
}

/// Timed-throughput probe: wall-clock one cell of the sweep twice — once
/// forced onto the scalar serve path, once on the run-granular fast path
/// — and report both in demand Mw/s.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimedProbe {
    /// Scheme axis label of the probed cell.
    pub scheme: String,
    /// Workload axis label of the probed cell.
    pub workload: String,
    /// Timed runs per pass; each pass reports the median run.
    pub runs: u64,
    /// Demand writes one scalar-pass run served.
    pub scalar_requests: u64,
    /// Demand writes one fast-pass run served: grown from the sweep's
    /// request count until a run lasts [`MIN_FAST_RUN_SECS`].
    pub fast_requests: u64,
    /// Timed throughput with `TimingSpec::scalar_serve` forced on.
    pub scalar_mw_per_sec: f64,
    /// Timed throughput on the default run-granular fast path.
    pub fast_mw_per_sec: f64,
    /// fast / scalar.
    pub speedup: f64,
}

/// Timed runs per probe pass; the pass reports the median.
pub const PROBE_RUNS: usize = 5;

/// Shortest fast-pass run the probe times. The fast path serves the
/// sweep's 2M writes in under 2 ms, which is mostly set-up and host noise.
pub const MIN_FAST_RUN_SECS: f64 = 0.1;

/// Wall-clock the `baseline/bpa` cell of the sweep geometry with the
/// timing model attached, scalar vs fast serve, each pass as the median of
/// [`PROBE_RUNS`] runs. The scalar pass serves the sweep's request count;
/// the fast pass serves as many writes as it needs to last at least
/// [`MIN_FAST_RUN_SECS`]. The observed latency numbers are bit-identical
/// either way (the alignment suite pins that); only the wall-clock
/// differs, so these fields are the one non-deterministic part of
/// `BENCH_latency.json`.
pub fn timed_probe(cfg: &SweepConfig) -> TimedProbe {
    let run = |scalar_serve: bool, cap: u64| -> (u64, f64) {
        let scenario = Scenario::lifetime(
            "fig-latency/probe/bpa",
            SchemeSpec::Baseline,
            WorkloadSpec::Bpa { writes_per_target: 2048 },
            cfg.data_lines,
            DeviceSpec { endurance: cfg.endurance, ..Default::default() },
        )
        .with_write_cap(cap)
        .with_timing(TimingSpec { scalar_serve, ..TimingSpec::default() });
        let start = std::time::Instant::now();
        let report = run_scenario(&scenario).expect("timed probe failed");
        let secs = start.elapsed().as_secs_f64();
        (report.lifetime().demand_writes, secs)
    };
    let pass = |scalar_serve: bool, cap: u64| -> (u64, f64) {
        let runs: Vec<(u64, f64)> = (0..PROBE_RUNS).map(|_| run(scalar_serve, cap)).collect();
        let writes = runs[0].0;
        assert!(runs.iter().all(|&(w, _)| w == writes), "probe runs served different counts");
        let mut secs: Vec<f64> = runs.iter().map(|&(_, s)| s).collect();
        secs.sort_by(f64::total_cmp);
        (writes, writes as f64 / secs[PROBE_RUNS / 2] / 1e6)
    };
    // Size the fast pass: grow the cap, one sizing run per step, until a
    // run lasts long enough (or the device dies short of the cap). The
    // sizing runs are not reported.
    let mut fast_cap = cfg.requests;
    loop {
        let (writes, secs) = run(false, fast_cap);
        if secs >= MIN_FAST_RUN_SECS || writes < fast_cap {
            break;
        }
        let grow = (2.0 * MIN_FAST_RUN_SECS / secs).ceil().clamp(2.0, 64.0) as u64;
        fast_cap = fast_cap.saturating_mul(grow);
    }
    let (scalar_requests, scalar) = pass(true, cfg.requests);
    let (fast_requests, fast) = pass(false, fast_cap);
    TimedProbe {
        scheme: "baseline".into(),
        workload: "bpa".into(),
        runs: PROBE_RUNS as u64,
        scalar_requests,
        fast_requests,
        scalar_mw_per_sec: scalar,
        fast_mw_per_sec: fast,
        speedup: fast / scalar,
    }
}

/// One scheme × workload row of `BENCH_latency.json` (the merged
/// summary columns, without the histogram payload).
#[derive(Debug, Serialize, Deserialize)]
pub struct LatencyRow {
    pub scheme: String,
    pub workload: String,
    pub requests: u64,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
    pub saturated: bool,
    pub stall_queue_ns: f64,
    pub stall_trans_miss_ns: f64,
    pub stall_exchange_ns: f64,
    pub stall_reorg_ns: f64,
}

impl LatencyRow {
    /// Project a reduced sweep row onto the document row.
    pub fn from_row(row: &SweepRow) -> Self {
        let r = &row.report;
        Self {
            scheme: row.scheme.clone(),
            workload: row.workload.clone(),
            requests: r.requests,
            mean_ns: r.mean_ns,
            p50_ns: r.p50_ns,
            p99_ns: r.p99_ns,
            p999_ns: r.p999_ns,
            max_ns: r.max_ns,
            saturated: r.saturated,
            stall_queue_ns: r.stall_queue_ns,
            stall_trans_miss_ns: r.stall_trans_miss_ns,
            stall_exchange_ns: r.stall_exchange_ns,
            stall_reorg_ns: r.stall_reorg_ns,
        }
    }
}

/// Top-level `BENCH_latency.json` document. The rows are deterministic
/// (thread-count invariant); `timed_probe` is wall-clock and is not.
#[derive(Debug, Serialize, Deserialize)]
pub struct LatencyReportDoc {
    pub probe: String,
    pub smoke: bool,
    pub data_lines: u64,
    pub endurance: u32,
    pub requests: u64,
    pub seeds: u64,
    pub rows: Vec<LatencyRow>,
    pub timed_probe: TimedProbe,
}
