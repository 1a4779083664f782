//! Simulator-throughput baseline: time the BPA lifetime probe for seven
//! schemes — every family's representative plus SAWL and NWL — and record
//! the results as `BENCH_speed.json` in the working directory (repo root
//! in CI).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sawl-bench --bin speed_probe              # full geometry
//! cargo run --release -p sawl-bench --bin speed_probe -- --smoke  # tiny, seconds
//! cargo run --release -p sawl-bench --bin speed_probe -- --telemetry
//!                        # also time recorder-on runs, write BENCH_speed_telemetry.json
//! cargo run --release -p sawl-bench --bin speed_probe -- --lines 16777216
//!                        # one capped scaling point at the given device size
//! ```
//!
//! The JSON schema is a single object:
//!
//! ```json
//! {
//!   "probe": "bpa-lifetime",
//!   "smoke": false,
//!   "data_lines": 65536,
//!   "endurance": 10000,
//!   "runs": 5,
//!   "schemes": [
//!     { "name": "pcms", "mw_per_sec": 0.0, "mw_per_sec_min": 0.0,
//!       "mw_per_sec_max": 0.0, "wall_seconds": 0.0,
//!       "demand_writes": 0, "normalized_lifetime": 0.0 }
//!   ]
//! }
//! ```
//!
//! `mw_per_sec` is demand writes per wall-clock second in millions — the
//! headline simulator-throughput number. Every timed row (scheme rows and
//! scaling points) repeats its run `runs` times: `mw_per_sec` and
//! `wall_seconds` are the medians, `mw_per_sec_min`/`mw_per_sec_max` the
//! range. Runs are serial on purpose so each one is timed in isolation.
//!
//! `--telemetry` measures the recorder's overhead: every scheme is timed
//! a second time with a default-stride telemetry spec attached (wear
//! probe + event ring + stride-clamped batching), and the per-scheme
//! slowdown lands in `BENCH_speed_telemetry.json`. The baseline pass and
//! `BENCH_speed.json` stay untouched either way, so committed-throughput
//! comparisons always see the telemetry-off numbers.
//!
//! The report also carries a `scaling` series: capped BPA runs at
//! increasing device sizes (2^16 / 2^20 / 2^24 lines by default, or the
//! single `--lines` value), each with the process peak RSS and the wear
//! state's measured bytes-per-line. `--lines` runs only its scaling point
//! — the per-scheme probe is skipped — so huge-device construction checks
//! stay cheap.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use sawl_algos::WearLeveler;
use sawl_simctl::{
    pump_writes, run_scenario, stable_seed, DeviceSpec, LifetimeResult, Scenario, SchemeSpec,
    TelemetrySpec, WorkloadSpec,
};

/// Timed repetitions behind every row; rows report their median and range.
const RUNS: usize = 5;

/// Wall times of [`RUNS`] repetitions of one deterministic run, sorted.
struct Timings([f64; RUNS]);

impl Timings {
    /// Repeat `run` [`RUNS`] times; each call times its own measured part
    /// and returns the seconds it took.
    fn collect(mut run: impl FnMut() -> f64) -> Self {
        let mut secs = [0.0; RUNS];
        secs.fill_with(&mut run);
        secs.sort_by(f64::total_cmp);
        Self(secs)
    }

    fn median(&self) -> f64 {
        self.0[RUNS / 2]
    }

    /// Median, min and max throughput in Mw/s for `writes` per run.
    fn mwps(&self, writes: u64) -> (f64, f64, f64) {
        let rate = |secs: f64| writes as f64 / secs / 1e6;
        (rate(self.median()), rate(self.0[RUNS - 1]), rate(self.0[0]))
    }
}

/// One scheme's timing row in `BENCH_speed.json`.
#[derive(Debug, Serialize, Deserialize)]
struct SchemeSpeed {
    name: String,
    mw_per_sec: f64,
    mw_per_sec_min: f64,
    mw_per_sec_max: f64,
    wall_seconds: f64,
    demand_writes: u64,
    normalized_lifetime: f64,
}

/// One capped run of the device-size scaling series.
#[derive(Debug, Serialize, Deserialize)]
struct ScalePoint {
    data_lines: u64,
    scheme: String,
    demand_writes: u64,
    wall_seconds: f64,
    mw_per_sec: f64,
    mw_per_sec_min: f64,
    mw_per_sec_max: f64,
    /// Exact heap bytes of the device's wear state (countdowns + quantized
    /// limit table + failure overlay).
    wear_state_bytes: u64,
    wear_bytes_per_line: f64,
    /// Wear-state layout tag, e.g. `"u16+uniform"`.
    wear_layout: String,
    /// Process peak RSS (`VmHWM`) after the run, in bytes. Points run in
    /// ascending size order, so each reading is dominated by its own
    /// device.
    peak_rss_bytes: u64,
}

/// Top-level `BENCH_speed.json` document.
#[derive(Debug, Serialize, Deserialize)]
struct SpeedReport {
    probe: String,
    smoke: bool,
    data_lines: u64,
    endurance: u32,
    runs: usize,
    schemes: Vec<SchemeSpeed>,
    scaling: Vec<ScalePoint>,
}

/// One scheme's recorder-overhead row in `BENCH_speed_telemetry.json`.
#[derive(Debug, Serialize, Deserialize)]
struct TelemetrySpeed {
    name: String,
    baseline_mw_per_sec: f64,
    telemetry_mw_per_sec: f64,
    /// Slowdown of the telemetry-on run in percent (positive = slower).
    overhead_pct: f64,
    samples: u64,
}

/// Top-level `BENCH_speed_telemetry.json` document.
#[derive(Debug, Serialize, Deserialize)]
struct TelemetryReport {
    probe: String,
    smoke: bool,
    stride: u64,
    schemes: Vec<TelemetrySpeed>,
}

/// Current `VmHWM` (peak resident set) of this process, in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches(" kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// [`RUNS`] capped BPA runs at `data_lines` lines: construct the device,
/// time pumping `cap` demand writes, and report throughput plus the
/// memory footprint.
fn scaling_point(data_lines: u64, cap: u64) -> ScalePoint {
    // Region size 1024 keeps the scheme's own tables negligible next to
    // the wear state at every series size.
    let scheme = SchemeSpec::PcmS { region_lines: 1024, period: 2048 };
    let seed = stable_seed(&format!("speed-probe/scaling/{data_lines}"));
    let mut last = None;
    let timings = Timings::collect(|| {
        let mut wl = scheme.instantiate(data_lines, seed);
        let mut dev = DeviceSpec { endurance: 10_000, ..Default::default() }
            .build(scheme.physical_lines(data_lines), seed);
        let mut stream =
            WorkloadSpec::Bpa { writes_per_target: 2048 }.build(wl.logical_lines(), seed);
        let t = Instant::now();
        pump_writes(&mut wl, &mut dev, &mut stream, cap).expect("scaling point pump failed");
        let dt = t.elapsed().as_secs_f64();
        // Keep only a summary: holding the device while the next run
        // builds its own would double the peak RSS this point reports.
        last = Some((
            dev.wear().demand_writes,
            dev.wear_state_bytes(),
            dev.lines(),
            dev.wear_state_layout(),
        ));
        dt
    });
    let (demand, wear_bytes, lines, wear_layout) = last.expect("at least one run");
    let (mw_per_sec, mw_per_sec_min, mw_per_sec_max) = timings.mwps(demand);
    let point = ScalePoint {
        data_lines,
        scheme: "pcms-1024".into(),
        demand_writes: demand,
        wall_seconds: timings.median(),
        mw_per_sec,
        mw_per_sec_min,
        mw_per_sec_max,
        wear_state_bytes: wear_bytes,
        wear_bytes_per_line: wear_bytes as f64 / lines as f64,
        wear_layout,
        peak_rss_bytes: peak_rss_bytes(),
    };
    println!(
        "scaling 2^{:.0} lines: {:.1} Mw/s ({:.1}..{:.1}), wear {} ({:.2} B/line), peak RSS {:.1} MiB",
        (data_lines as f64).log2(),
        point.mw_per_sec,
        point.mw_per_sec_min,
        point.mw_per_sec_max,
        point.wear_layout,
        point.wear_bytes_per_line,
        point.peak_rss_bytes as f64 / (1 << 20) as f64,
    );
    point
}

/// Run the lifetime `scenario` [`RUNS`] times; the result of a
/// deterministic run is the same every time, so the last one stands for
/// all.
fn timed_scenario(scenario: &Scenario) -> (Timings, LifetimeResult) {
    let mut last = None;
    let timings = Timings::collect(|| {
        let t = Instant::now();
        let report = run_scenario(scenario).expect("speed probe scenario failed");
        let dt = t.elapsed().as_secs_f64();
        last = Some(report);
        dt
    });
    (timings, last.expect("at least one run").lifetime().clone())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let with_telemetry = args.iter().any(|a| a == "--telemetry");
    let lines_override: Option<u64> = args
        .iter()
        .position(|a| a == "--lines")
        .map(|i| args.get(i + 1).and_then(|v| v.parse().ok()).expect("--lines needs a line count"));
    // The smoke geometry exists for CI: it exercises the identical code
    // path in a couple of seconds and still produces well-formed JSON.
    let (data_lines, endurance): (u64, u32) =
        if smoke { (1 << 12, 500) } else { (1 << 16, 10_000) };
    let stride = TelemetrySpec::default().stride;

    let mut schemes = Vec::new();
    let mut telemetry_rows = Vec::new();
    // Serial on purpose: each run is timed in isolation. A `--lines`
    // override runs only its scaling point.
    let probe_schemes: Vec<(&str, SchemeSpec)> = if lines_override.is_some() {
        Vec::new()
    } else {
        vec![
            ("pcms", SchemeSpec::PcmS { region_lines: 16, period: 32 }),
            ("tlsr", SchemeSpec::Tlsr { region_lines: 64, inner_period: 8, outer_period: 32 }),
            ("mwsr", SchemeSpec::Mwsr { region_lines: 16, period: 32 }),
            ("sawl", SchemeSpec::sawl_default(1024)),
            ("rbsg", SchemeSpec::Rbsg { regions: data_lines / 256, region_lines: 256, period: 64 }),
            ("segment-swap", SchemeSpec::SegmentSwap { segment_lines: 64, swap_period: 100 }),
            ("nwl", SchemeSpec::Nwl { granularity: 4, cmt_entries: 1024, swap_period: 128 }),
        ]
    };
    for (name, scheme) in probe_schemes {
        let scenario = Scenario::lifetime(
            format!("probe/{name}"),
            scheme,
            WorkloadSpec::Bpa { writes_per_target: 2048 },
            data_lines,
            DeviceSpec { endurance, ..Default::default() },
        );
        let (timings, r) = timed_scenario(&scenario);
        let dt = timings.median();
        let (mw_per_sec, mw_per_sec_min, mw_per_sec_max) = timings.mwps(r.demand_writes);
        println!(
            "{name}: nl={:.3} demand={} overhead={:.3} died={} in {dt:.2}s ({mw_per_sec:.1} Mw/s, \
             {mw_per_sec_min:.1}..{mw_per_sec_max:.1})",
            r.normalized_lifetime, r.demand_writes, r.overhead_fraction, r.device_died,
        );
        schemes.push(SchemeSpeed {
            name: name.into(),
            mw_per_sec,
            mw_per_sec_min,
            mw_per_sec_max,
            wall_seconds: dt,
            demand_writes: r.demand_writes,
            normalized_lifetime: r.normalized_lifetime,
        });

        if with_telemetry {
            let instrumented = scenario.with_telemetry(TelemetrySpec::with_stride(stride));
            let (timings, r) = timed_scenario(&instrumented);
            let dt = timings.median();
            let (telemetry_mw_per_sec, ..) = timings.mwps(r.demand_writes);
            let overhead_pct = (mw_per_sec / telemetry_mw_per_sec - 1.0) * 100.0;
            let samples = r.telemetry.as_ref().map(|s| s.samples.len() as u64).unwrap_or_default();
            println!(
                "{name}+telemetry: {samples} samples in {dt:.2}s ({telemetry_mw_per_sec:.1} \
                 Mw/s, {overhead_pct:+.1}% overhead)"
            );
            telemetry_rows.push(TelemetrySpeed {
                name: name.into(),
                baseline_mw_per_sec: mw_per_sec,
                telemetry_mw_per_sec,
                overhead_pct,
                samples,
            });
        }
    }

    // The scaling series: capped runs in ascending size order so each
    // point's `VmHWM` reading is dominated by its own footprint. The cap
    // bounds the wall time, not the geometry — the full 2^24 point costs a
    // couple of seconds.
    let cap = if smoke { 1 << 22 } else { 1 << 26 };
    let series: Vec<u64> = match lines_override {
        Some(n) => vec![n],
        None if smoke => vec![1 << 16],
        None => vec![1 << 16, 1 << 20, 1 << 24],
    };
    let scaling: Vec<ScalePoint> = series.into_iter().map(|n| scaling_point(n, cap)).collect();

    let report = SpeedReport {
        probe: "bpa-lifetime".into(),
        smoke,
        data_lines,
        endurance,
        runs: RUNS,
        schemes,
        scaling,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize speed report");
    std::fs::write("BENCH_speed.json", json + "\n").expect("write BENCH_speed.json");
    println!("wrote BENCH_speed.json");

    if with_telemetry {
        let report = TelemetryReport {
            probe: "bpa-lifetime".into(),
            smoke,
            stride,
            schemes: telemetry_rows,
        };
        let json = serde_json::to_string_pretty(&report).expect("serialize telemetry report");
        std::fs::write("BENCH_speed_telemetry.json", json + "\n")
            .expect("write BENCH_speed_telemetry.json");
        println!("wrote BENCH_speed_telemetry.json");
    }
}
