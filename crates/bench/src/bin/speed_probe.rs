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
//!   "schemes": [
//!     { "name": "pcms", "mw_per_sec": 0.0, "wall_seconds": 0.0,
//!       "demand_writes": 0, "normalized_lifetime": 0.0 }
//!   ]
//! }
//! ```
//!
//! `mw_per_sec` is demand writes per wall-clock second in millions — the
//! headline simulator-throughput number. Runs are serial on purpose so
//! each one is timed in isolation.
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
    pump_writes, run_scenario, stable_seed, DeviceSpec, Scenario, SchemeSpec, TelemetrySpec,
    WorkloadSpec,
};

/// One scheme's timing row in `BENCH_speed.json`.
#[derive(Debug, Serialize, Deserialize)]
struct SchemeSpeed {
    name: String,
    mw_per_sec: f64,
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

/// One capped BPA run at `data_lines` lines: construct the device, pump
/// `cap` demand writes, and report throughput plus the memory footprint.
fn scaling_point(data_lines: u64, cap: u64) -> ScalePoint {
    // Region size 1024 keeps the scheme's own tables negligible next to
    // the wear state at every series size.
    let scheme = SchemeSpec::PcmS { region_lines: 1024, period: 2048 };
    let seed = stable_seed(&format!("speed-probe/scaling/{data_lines}"));
    let mut wl = scheme.instantiate(data_lines, seed);
    let mut dev = DeviceSpec { endurance: 10_000, ..Default::default() }
        .build(scheme.physical_lines(data_lines), seed);
    let mut stream = WorkloadSpec::Bpa { writes_per_target: 2048 }.build(wl.logical_lines(), seed);
    let t = Instant::now();
    pump_writes(&mut wl, &mut dev, &mut stream, cap).expect("scaling point pump failed");
    let dt = t.elapsed().as_secs_f64();
    let demand = dev.wear().demand_writes;
    let wear_bytes = dev.wear_state_bytes();
    let point = ScalePoint {
        data_lines,
        scheme: "pcms-1024".into(),
        demand_writes: demand,
        wall_seconds: dt,
        mw_per_sec: demand as f64 / dt / 1e6,
        wear_state_bytes: wear_bytes,
        wear_bytes_per_line: wear_bytes as f64 / dev.lines() as f64,
        wear_layout: dev.wear_state_layout(),
        peak_rss_bytes: peak_rss_bytes(),
    };
    println!(
        "scaling 2^{:.0} lines: {:.1} Mw/s, wear {} ({:.2} B/line), peak RSS {:.1} MiB",
        (data_lines as f64).log2(),
        point.mw_per_sec,
        point.wear_layout,
        point.wear_bytes_per_line,
        point.peak_rss_bytes as f64 / (1 << 20) as f64,
    );
    point
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
        let t = Instant::now();
        let report = run_scenario(&scenario).expect("speed probe scenario failed");
        let r = report.lifetime();
        let dt = t.elapsed().as_secs_f64();
        let mw_per_sec = r.demand_writes as f64 / dt / 1e6;
        println!(
            "{name}: nl={:.3} demand={} overhead={:.3} died={} in {dt:.2}s ({mw_per_sec:.1} Mw/s)",
            r.normalized_lifetime, r.demand_writes, r.overhead_fraction, r.device_died,
        );
        schemes.push(SchemeSpeed {
            name: name.into(),
            mw_per_sec,
            wall_seconds: dt,
            demand_writes: r.demand_writes,
            normalized_lifetime: r.normalized_lifetime,
        });

        if with_telemetry {
            let instrumented = scenario.with_telemetry(TelemetrySpec::with_stride(stride));
            let t = Instant::now();
            let report = run_scenario(&instrumented).expect("telemetry speed scenario failed");
            let r = report.lifetime();
            let dt = t.elapsed().as_secs_f64();
            let telemetry_mw_per_sec = r.demand_writes as f64 / dt / 1e6;
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
