//! Tail-latency comparison: run each scheme's timed lifetime probe under
//! BPA and Zipf traffic — sharded over (scheme × workload × seed) and
//! fanned across cores — and record the latency distribution
//! (p50/p99/p999/max) plus the stall attribution as `BENCH_latency.json`
//! in the working directory, together with a timed-throughput probe of
//! the run-granular fast path against the forced-scalar serve path.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sawl-bench --bin fig_latency                 # full geometry
//! cargo run --release -p sawl-bench --bin fig_latency -- --smoke     # tiny, seconds
//!     [--seeds K]            # seed shards per cell (default 4)
//!     [--threads N]          # worker cap; beats SAWL_THREADS
//!     [--min-timed-mwps X]   # exit 1 if the fast-path probe is slower
//! ```
//!
//! The rows are deterministic: every shard seeds its own request stream
//! from its id, shards reduce in fixed order through the histogram's
//! slot-exact merge, and the worker count only bounds the fan-out — so
//! `--threads 1` and `--threads 4` write byte-identical rows. The
//! `timed_probe` object (wall-clock Mw/s, scalar vs fast serve, each the
//! median of five runs; the fast pass serves enough writes to last at
//! least 100 ms) is the one intentionally non-deterministic part of the
//! document.
//!
//! The mean separates schemes only mildly; the p99/p999 columns are where
//! periodic table-wide exchanges (PCM-S, MWSR) and SAWL's merge/split
//! reorganizations show up. Every cell serves the same request count, so
//! percentiles are comparable across rows.

use sawl_bench::latency::{
    run_sweep, scheme_grid, timed_probe, workload_grid, LatencyReportDoc, LatencyRow, SweepConfig,
};

fn usage() -> ! {
    eprintln!("usage: fig_latency [--smoke] [--seeds K] [--threads N] [--min-timed-mwps X]");
    std::process::exit(2);
}

fn main() {
    let mut smoke = false;
    let mut seeds: u64 = 4;
    let mut min_timed_mwps: Option<f64> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--seeds" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(k)) if k >= 1 => seeds = k,
                _ => usage(),
            },
            "--threads" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => sawl_simctl::set_thread_override(Some(n.max(1))),
                _ => usage(),
            },
            "--min-timed-mwps" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(x)) if x > 0.0 => min_timed_mwps = Some(x),
                _ => usage(),
            },
            _ => usage(),
        }
    }

    let cfg = if smoke { SweepConfig::smoke(seeds) } else { SweepConfig::full(seeds) };
    let schemes = scheme_grid(cfg.data_lines);
    let workloads = workload_grid();
    let rows = run_sweep(&cfg, &schemes, &workloads);
    for row in &rows {
        let l = &row.report;
        println!(
            "{:>8}/{}: p50 {:>5} ns  p99 {:>6} ns  p999 {:>7} ns  max {:>8} ns  \
             (queue {:.2e} / miss {:.2e} / xchg {:.2e} / reorg {:.2e})",
            row.scheme,
            row.workload,
            l.p50_ns,
            l.p99_ns,
            l.p999_ns,
            l.max_ns,
            l.stall_queue_ns,
            l.stall_trans_miss_ns,
            l.stall_exchange_ns,
            l.stall_reorg_ns,
        );
    }

    let probe = timed_probe(&cfg);
    println!(
        "timed probe ({}/{}, median of {}): scalar {:.2} Mw/s over {} writes, \
         fast {:.2} Mw/s over {} writes ({:.1}x)",
        probe.scheme,
        probe.workload,
        probe.runs,
        probe.scalar_mw_per_sec,
        probe.scalar_requests,
        probe.fast_mw_per_sec,
        probe.fast_requests,
        probe.speedup,
    );

    let doc = LatencyReportDoc {
        probe: "timed-lifetime".into(),
        smoke,
        data_lines: cfg.data_lines,
        endurance: cfg.endurance,
        requests: cfg.requests,
        seeds: cfg.seeds,
        rows: rows.iter().map(LatencyRow::from_row).collect(),
        timed_probe: probe.clone(),
    };
    let json = serde_json::to_string_pretty(&doc).expect("serialize latency report");
    std::fs::write("BENCH_latency.json", json + "\n").expect("write BENCH_latency.json");
    println!("wrote BENCH_latency.json");

    if let Some(floor) = min_timed_mwps {
        if probe.fast_mw_per_sec < floor {
            eprintln!(
                "timed throughput {:.2} Mw/s below the {floor:.2} Mw/s floor",
                probe.fast_mw_per_sec
            );
            std::process::exit(1);
        }
    }
}
