//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits nonzero if any output check failed.

use std::process::ExitCode;

use sawl_perfbench::report::{result_line, Metrics, Tally};
use sawl_perfbench::workloads::{self, DEFAULT_SEED, WORKLOADS};
use sawl_perfbench::{serve, sim};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// Layers a workload bypasses report zero on its traced run.
fn idle_layers(m: &mut Metrics, names: &[(&str, &'static str)]) {
    for &(name, unit) in names {
        m.put(name, 0.0, unit);
    }
}

/// The `ckpt` and `serve` metrics, which only `serve-tenants` exercises.
const SERVING_LAYERS: [(&str, &str); 12] = [
    ("ckpt.save_ns", "ns"),
    ("ckpt.restore_ns", "ns"),
    ("ckpt.bytes", "B"),
    ("serve.submit_us", "us"),
    ("serve.result_us", "us"),
    ("serve.checkpoints_written", "count"),
    ("serve.overhead_frac", "frac"),
    ("serve.ctl_p50_us", "us"),
    ("serve.ctl_p99_us", "us"),
    ("serve.ctl_samples", "count"),
    ("serve.ctl_late_frac", "frac"),
    ("serve.restart_s", "s"),
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload.as_str();
    let (tally, mut metrics): (Tally, Metrics) = match (w, args.trace) {
        ("serve-tenants", false) => serve::measure(args.seed, args.seconds),
        ("serve-tenants", true) => serve::trace(args.seed),
        (_, trace) => {
            let cases = if w == "bpa-lifetime" {
                workloads::bpa_lifetime(args.seed)
            } else {
                workloads::timed_sweep(args.seed)
            };
            if trace {
                let (t, mut m) = sim::trace(w, &cases, args.seed);
                idle_layers(&mut m, &SERVING_LAYERS);
                (t, m)
            } else {
                sim::measure(w, &cases, args.seed, args.seconds)
            }
        }
    };
    if args.trace {
        let failed_frac = tally.failed() as f64 / tally.attempted.max(1) as f64;
        metrics.put("failed_frac", failed_frac, "frac");
    }
    println!("{}", result_line(&tally, &metrics));
    if tally.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
