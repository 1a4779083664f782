//! `sawl-sim` — run a custom experiment from a JSON spec.
//!
//! ```text
//! sawl-sim lifetime <spec.json> [--telemetry out.json] [--timing] [--progress]
//!                   [--checkpoint ckpt] [--checkpoint-interval N] [--resume]
//! sawl-sim perf     <spec.json>
//! sawl-sim example  lifetime|perf   print a template spec
//! ```
//!
//! Specs are the serde form of [`sawl_simctl::LifetimeExperiment`] /
//! [`sawl_simctl::PerfExperiment`]; results are printed as pretty JSON so
//! the tool composes with jq-style pipelines.
//!
//! `--telemetry out.json` samples the run's time series (the spec's own
//! `telemetry` block if present, otherwise a default 100k-write stride)
//! and writes it to `out.json` as JSON lines — one `meta` line, one line
//! per sample/event, one `end` line — instead of embedding it in the
//! stdout result. `--timing` attaches the closed-loop controller model
//! (the spec's own `timing` block if present, otherwise the Table 1
//! default) so the result carries the latency distribution and stall
//! breakdown. `--progress` adds a throttled stderr ticker.
//!
//! ## Checkpointing and interruption
//!
//! `--checkpoint ckpt` writes an atomic, checksummed checkpoint of the
//! run to `ckpt` every `--checkpoint-interval` demand writes (default
//! ~268M) and when the run ends; `--resume` restores the run from that
//! file and continues it **byte-identically** — the final report and
//! telemetry series match an uninterrupted run exactly. Checkpointing
//! requires an untimed run (the timing model has no checkpoint form).
//!
//! Untimed lifetime runs install a SIGINT/SIGTERM handler: an
//! interrupted run stops at the next batch boundary, still writes its
//! telemetry stream and checkpoint (if requested), prints the partial
//! report, and exits 3 instead of losing the run.
//!
//! Exit codes: `0` success, `1` runtime failure (I/O, write-free
//! workload, unreadable checkpoint), `2` bad usage or an invalid spec,
//! `3` interrupted (partial report emitted).

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use sawl_simctl::{
    run_lifetime, run_perf, signal, stable_seed, DeviceSpec, DriverError, FaultPlan,
    LifetimeExperiment, PerfExperiment, ResumableRun, SchemeSpec, TelemetrySpec, TimingSpec,
    WorkloadSpec, DEFAULT_CHECKPOINT_INTERVAL,
};
use sawl_trace::{SpecBenchmark, TraceWriter};

const USAGE: &str = "usage:\n  sawl-sim lifetime <spec.json> [--telemetry out.json] [--timing] [--progress] [--threads N] [--checkpoint ckpt] [--checkpoint-interval N] [--resume]\n  sawl-sim perf <spec.json> [--threads N]\n  sawl-sim record <spec.json> <out.trc> --requests N\n  sawl-sim example lifetime|perf";

/// Exit code for a run stopped by SIGINT/SIGTERM after emitting its
/// partial report.
const EXIT_INTERRUPTED: u8 = 3;

/// Spec problems exit 2 (the input is wrong, rerunning won't help);
/// runtime failures exit 1.
fn driver_exit_code(e: &DriverError) -> u8 {
    match e {
        DriverError::Spec(_) | DriverError::Config(_) | DriverError::FaultPlan(_) => 2,
        DriverError::WriteFreeStream { .. }
        | DriverError::Checkpoint(_)
        | DriverError::Report(_) => 1,
    }
}

/// Parsed command line for the run modes.
#[derive(Debug, PartialEq)]
struct RunArgs {
    spec_path: String,
    telemetry_out: Option<String>,
    timing: bool,
    progress: bool,
    threads: Option<usize>,
    checkpoint: Option<String>,
    checkpoint_interval: Option<u64>,
    resume: bool,
}

/// Parse `<spec.json> [--telemetry out.json] [--timing] [--progress]
/// [--threads N] [--checkpoint ckpt] [--checkpoint-interval N]
/// [--resume]`.
fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut spec_path = None;
    let mut telemetry_out = None;
    let mut timing = false;
    let mut progress = false;
    let mut threads = None;
    let mut checkpoint = None;
    let mut checkpoint_interval = None;
    let mut resume = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--telemetry" => match it.next() {
                Some(path) => telemetry_out = Some(path.clone()),
                None => return Err("--telemetry needs an output path".into()),
            },
            "--timing" => timing = true,
            "--progress" => progress = true,
            "--threads" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) => threads = Some(n.max(1)),
                Some(Err(_)) => return Err("--threads needs a worker count".into()),
                None => return Err("--threads needs a worker count".into()),
            },
            "--checkpoint" => match it.next() {
                Some(path) => checkpoint = Some(path.clone()),
                None => return Err("--checkpoint needs a file path".into()),
            },
            "--checkpoint-interval" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) if n >= 1 => checkpoint_interval = Some(n),
                Some(_) => {
                    return Err("--checkpoint-interval needs a demand-write count >= 1".into())
                }
                None => return Err("--checkpoint-interval needs a demand-write count >= 1".into()),
            },
            "--resume" => resume = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path if spec_path.is_none() => spec_path = Some(path.to_string()),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    let Some(spec_path) = spec_path else { return Err("missing <spec.json>".into()) };
    if checkpoint.is_none() && (checkpoint_interval.is_some() || resume) {
        return Err("--checkpoint-interval/--resume need --checkpoint <path>".into());
    }
    Ok(RunArgs {
        spec_path,
        telemetry_out,
        timing,
        progress,
        threads,
        checkpoint,
        checkpoint_interval,
        resume,
    })
}

/// Fold the CLI telemetry flags into the experiment's own `telemetry`
/// block: `--telemetry` supplies a default spec when the JSON has none,
/// `--progress` turns the ticker on either way.
fn apply_telemetry_flags(spec: &mut Option<TelemetrySpec>, args: &RunArgs) {
    if spec.is_none() && (args.telemetry_out.is_some() || args.progress) {
        *spec = Some(TelemetrySpec::default());
    }
    if let (Some(spec), true) = (spec.as_mut(), args.progress) {
        spec.progress = true;
    }
}

/// `--timing` supplies the Table 1 timing model when the JSON has none
/// (an explicit `timing` block always wins).
fn apply_timing_flag(spec: &mut Option<TimingSpec>, args: &RunArgs) {
    if spec.is_none() && args.timing {
        *spec = Some(TimingSpec::default());
    }
}

fn template_lifetime() -> LifetimeExperiment {
    LifetimeExperiment {
        id: "custom/lifetime".into(),
        scheme: SchemeSpec::sawl_default(4096),
        workload: WorkloadSpec::Bpa { writes_per_target: 10_000 },
        data_lines: 1 << 16,
        device: DeviceSpec::default(),
        max_demand_writes: 0,
        fault: Some(FaultPlan::default()),
        telemetry: Some(TelemetrySpec::default()),
        timing: Some(TimingSpec::default()),
    }
}

fn template_perf() -> PerfExperiment {
    PerfExperiment {
        id: "custom/perf".into(),
        scheme: SchemeSpec::Nwl { granularity: 4, cmt_entries: 4096, swap_period: 128 },
        benchmark: SpecBenchmark::Soplex,
        data_lines: 1 << 20,
        device: DeviceSpec { endurance: u32::MAX, ..Default::default() },
        requests: 10_000_000,
        warmup_requests: 1_000_000,
    }
}

/// Serialize a report through the typed error path instead of panicking
/// on a (pathological) serialization failure.
fn report_json<T: serde::Serialize>(value: &T) -> Result<String, (String, u8)> {
    serde_json::to_string_pretty(value).map_err(|e| {
        let err = DriverError::Report(e.to_string());
        (err.to_string(), driver_exit_code(&err))
    })
}

/// Run a lifetime spec end to end; returns the stdout JSON plus the exit
/// code (`0` finished, [`EXIT_INTERRUPTED`] for a partial report after
/// SIGINT/SIGTERM), or `(message, exit code)` on failure. When
/// `telemetry_out` is set, the series is split out of the result and
/// written there as JSON lines — for interrupted runs too.
fn run_lifetime_cli(raw: &str, args: &RunArgs) -> Result<(String, u8), (String, u8)> {
    let mut exp = serde_json::from_str::<LifetimeExperiment>(raw)
        .map_err(|e| (format!("invalid lifetime spec {}: {e}", args.spec_path), 2))?;
    apply_telemetry_flags(&mut exp.telemetry, args);
    apply_timing_flag(&mut exp.timing, args);
    let fail = |e: DriverError| (format!("lifetime run failed: {e}"), driver_exit_code(&e));

    let (mut result, interrupted) = if exp.timing.is_some() {
        // The timing model has no checkpoint form and its pump has no
        // interruption point; timed runs stay on the one-shot path.
        if args.checkpoint.is_some() {
            return Err((
                "--checkpoint cannot be combined with a timed run (the closed-loop timing \
                 model has no checkpoint form); drop --timing / the spec's `timing` block"
                    .into(),
                2,
            ));
        }
        (run_lifetime(&exp).map_err(fail)?, false)
    } else {
        let mut run = match (&args.checkpoint, args.resume) {
            (Some(path), true) => ResumableRun::resume(&exp, Path::new(path)).map_err(fail)?,
            _ => ResumableRun::new(&exp).map_err(fail)?,
        };
        let finished = match &args.checkpoint {
            Some(path) => {
                let interval = args.checkpoint_interval.unwrap_or(DEFAULT_CHECKPOINT_INTERVAL);
                run.run_with_checkpoints(Path::new(path), interval, signal::requested)
                    .map_err(fail)?
            }
            None => {
                let mut finished = true;
                while run.step().map_err(fail)? {
                    if signal::requested() {
                        finished = false;
                        break;
                    }
                }
                finished
            }
        };
        (run.into_result(), !finished)
    };

    if let Some(out_path) = &args.telemetry_out {
        let series = result.telemetry.take().expect("telemetry was requested");
        std::fs::write(out_path, series.to_json_lines())
            .map_err(|e| (format!("cannot write {out_path}: {e}"), 1))?;
    }
    let json = report_json(&result)?;
    if interrupted {
        eprintln!(
            "interrupted at {} demand writes; partial report follows{}",
            result.demand_writes,
            match &args.checkpoint {
                Some(path) => format!(", checkpoint saved to {path}"),
                None => String::new(),
            }
        );
        return Ok((json, EXIT_INTERRUPTED));
    }
    Ok((json, 0))
}

/// Parsed command line for `record`.
#[derive(Debug, PartialEq)]
struct RecordArgs {
    spec_path: String,
    out_path: String,
    requests: u64,
}

/// Parse `<spec.json> <out.trc> --requests N`.
fn parse_record_args(args: &[String]) -> Result<RecordArgs, String> {
    let mut spec_path = None;
    let mut out_path = None;
    let mut requests = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--requests" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) if n >= 1 => requests = Some(n),
                Some(_) => return Err("--requests needs a request count >= 1".into()),
                None => return Err("--requests needs a request count >= 1".into()),
            },
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path if spec_path.is_none() => spec_path = Some(path.to_string()),
            path if out_path.is_none() => out_path = Some(path.to_string()),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    let Some(spec_path) = spec_path else { return Err("missing <spec.json>".into()) };
    let Some(out_path) = out_path else { return Err("missing <out.trc>".into()) };
    let Some(requests) = requests else { return Err("missing --requests N".into()) };
    Ok(RecordArgs { spec_path, out_path, requests })
}

/// Record a spec's workload — built exactly as a lifetime run would build
/// it (same derived seed, same logical space) — into a binary trace file.
/// Replaying the trace through any scheme then reproduces the live
/// generator run byte for byte.
fn run_record_cli(raw: &str, args: &RecordArgs) -> Result<(String, u8), (String, u8)> {
    let exp = serde_json::from_str::<LifetimeExperiment>(raw)
        .map_err(|e| (format!("invalid lifetime spec {}: {e}", args.spec_path), 2))?;
    let seed = stable_seed(&exp.id);
    let mut stream = exp
        .workload
        .try_build(exp.data_lines, seed)
        .map_err(|e| (format!("record failed: {e}"), driver_exit_code(&e)))?;
    if stream.wants_observation() {
        // A wear-feedback stream's output depends on the device it runs
        // against; recording it open loop (no device) would produce a trace
        // no live run matches.
        return Err((
            format!(
                "workload \"{}\" is observation-driven (it reacts to device wear) and cannot \
                 be recorded open loop; record a generator workload instead",
                stream.name()
            ),
            2,
        ));
    }
    let name = stream.name().to_string();
    let io_fail = |e: std::io::Error| (format!("cannot write {}: {e}", args.out_path), 1u8);
    let file = std::fs::File::create(&args.out_path)
        .map_err(|e| (format!("cannot create {}: {e}", args.out_path), 1))?;
    let mut w = TraceWriter::with_name(std::io::BufWriter::new(file), exp.data_lines, &name)
        .map_err(io_fail)?;
    w.record(&mut *stream, args.requests).map_err(io_fail)?;
    let (out, count) = w.finish().map_err(io_fail)?;
    out.into_inner().map_err(|e| io_fail(e.into_error()))?;
    #[derive(serde::Serialize)]
    struct RecordReport {
        trace: String,
        workload: String,
        space_lines: u64,
        requests: u64,
    }
    let report = RecordReport {
        trace: args.out_path.clone(),
        workload: name,
        space_lines: exp.data_lines,
        requests: count,
    };
    Ok((report_json(&report)?, 0))
}

fn run_perf_cli(raw: &str, args: &RunArgs) -> Result<(String, u8), (String, u8)> {
    if args.telemetry_out.is_some() || args.progress || args.timing {
        return Err((
            "perf runs do not support --telemetry/--timing/--progress (perf always carries \
             its own timing model)"
                .into(),
            2,
        ));
    }
    if args.checkpoint.is_some() {
        return Err((
            "perf runs do not support --checkpoint/--resume (the timing model has no \
             checkpoint form)"
                .into(),
            2,
        ));
    }
    let exp = serde_json::from_str::<PerfExperiment>(raw)
        .map_err(|e| (format!("invalid perf spec {}: {e}", args.spec_path), 2))?;
    let result =
        run_perf(&exp).map_err(|e| (format!("perf run failed: {e}"), driver_exit_code(&e)))?;
    Ok((report_json(&result)?, 0))
}

/// Print a result's JSON and exit with its code, or print its one-line
/// error. A reader that closes the pipe early (`sawl-sim ... | head`) only
/// drops the output: that is not an error.
fn print_or_fail(out: Result<(String, u8), (String, u8)>) -> ExitCode {
    match out {
        Ok((json, code)) => {
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{json}").and_then(|()| stdout.flush()) {
                Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
                    eprintln!("cannot write the result: {e}");
                    ExitCode::FAILURE
                }
                _ => ExitCode::from(code),
            }
        }
        Err((msg, code)) => {
            eprintln!("{msg}");
            ExitCode::from(code)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("example") => match args.get(2).map(String::as_str) {
            Some("lifetime") => print_or_fail(report_json(&template_lifetime()).map(|j| (j, 0))),
            Some("perf") => print_or_fail(report_json(&template_perf()).map(|j| (j, 0))),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("record") => {
            let rec_args = match parse_record_args(&args[2..]) {
                Ok(a) => a,
                Err(msg) => {
                    eprintln!("{msg}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            let raw = match std::fs::read_to_string(&rec_args.spec_path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", rec_args.spec_path);
                    return ExitCode::FAILURE;
                }
            };
            print_or_fail(run_record_cli(&raw, &rec_args))
        }
        Some(mode @ ("lifetime" | "perf")) => {
            let run_args = match parse_run_args(&args[2..]) {
                Ok(a) => a,
                Err(msg) => {
                    eprintln!("{msg}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            // Worker-count flag beats the SAWL_THREADS env var; worker
            // count never changes results, only the resource footprint.
            if run_args.threads.is_some() {
                sawl_simctl::set_thread_override(run_args.threads);
            }
            let raw = match std::fs::read_to_string(&run_args.spec_path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", run_args.spec_path);
                    return ExitCode::FAILURE;
                }
            };
            signal::install();
            print_or_fail(if mode == "lifetime" {
                run_lifetime_cli(&raw, &run_args)
            } else {
                run_perf_cli(&raw, &run_args)
            })
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sawl_core::ConfigError;
    use sawl_simctl::FaultPlanError;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn plain_args(spec_path: &str) -> RunArgs {
        RunArgs {
            spec_path: spec_path.into(),
            telemetry_out: None,
            timing: false,
            progress: false,
            threads: None,
            checkpoint: None,
            checkpoint_interval: None,
            resume: false,
        }
    }

    #[test]
    fn driver_errors_display_a_one_line_reason() {
        let cases: Vec<(DriverError, &str)> = vec![
            (
                DriverError::WriteFreeStream { stream: "raa".into() },
                "consecutive reads without a single demand write",
            ),
            (
                DriverError::Config(ConfigError::CmtTooSmall(1)),
                "invalid scheme config: CMT needs at least two entries, got 1",
            ),
            (
                DriverError::FaultPlan(FaultPlanError::RateOutOfRange(1.5)),
                "invalid fault plan: transient_rate must be in [0, 1), got 1.5",
            ),
            (
                DriverError::Spec("telemetry stride must be >= 1".into()),
                "invalid spec: telemetry stride must be >= 1",
            ),
            (DriverError::Checkpoint("bad checksum".into()), "checkpoint error: bad checksum"),
            (
                DriverError::Report("key must be a string".into()),
                "cannot serialize report: key must be a string",
            ),
        ];
        for (err, expect) in cases {
            let shown = err.to_string();
            assert!(shown.contains(expect), "{shown:?} missing {expect:?}");
            assert!(!shown.contains('\n'), "multi-line error: {shown:?}");
        }
    }

    #[test]
    fn spec_class_errors_exit_2_runtime_errors_exit_1() {
        assert_eq!(driver_exit_code(&DriverError::Spec("x".into())), 2);
        assert_eq!(driver_exit_code(&DriverError::Config(ConfigError::CmtTooSmall(1))), 2);
        assert_eq!(
            driver_exit_code(&DriverError::FaultPlan(FaultPlanError::PowerEventsNotSorted)),
            2
        );
        assert_eq!(driver_exit_code(&DriverError::WriteFreeStream { stream: "raa".into() }), 1);
        assert_eq!(driver_exit_code(&DriverError::Checkpoint("torn".into())), 1);
        assert_eq!(driver_exit_code(&DriverError::Report("nan".into())), 1);
    }

    #[test]
    fn run_args_parse_flags_in_any_order() {
        assert_eq!(parse_run_args(&strs(&["spec.json"])).unwrap(), plain_args("spec.json"));
        assert_eq!(
            parse_run_args(&strs(&[
                "--progress",
                "spec.json",
                "--telemetry",
                "t.json",
                "--timing"
            ]))
            .unwrap(),
            RunArgs {
                telemetry_out: Some("t.json".into()),
                timing: true,
                progress: true,
                ..plain_args("spec.json")
            }
        );
        // --threads parses, clamps to >= 1, and rejects garbage.
        let with_threads = parse_run_args(&strs(&["spec.json", "--threads", "4"])).unwrap();
        assert_eq!(with_threads.threads, Some(4));
        assert_eq!(
            parse_run_args(&strs(&["spec.json", "--threads", "0"])).unwrap().threads,
            Some(1)
        );
        assert!(parse_run_args(&strs(&["spec.json", "--threads"])).is_err());
        assert!(parse_run_args(&strs(&["spec.json", "--threads", "lots"])).is_err());
        assert!(parse_run_args(&strs(&[])).is_err());
        assert!(parse_run_args(&strs(&["spec.json", "--telemetry"])).is_err());
        assert!(parse_run_args(&strs(&["spec.json", "--bogus"])).is_err());
        assert!(parse_run_args(&strs(&["a.json", "b.json"])).is_err());
    }

    #[test]
    fn checkpoint_flags_parse_and_validate() {
        let parsed = parse_run_args(&strs(&[
            "spec.json",
            "--checkpoint",
            "run.ckpt",
            "--checkpoint-interval",
            "50000",
            "--resume",
        ]))
        .unwrap();
        assert_eq!(parsed.checkpoint.as_deref(), Some("run.ckpt"));
        assert_eq!(parsed.checkpoint_interval, Some(50_000));
        assert!(parsed.resume);
        // The dependent flags demand --checkpoint.
        assert!(parse_run_args(&strs(&["spec.json", "--resume"])).is_err());
        assert!(parse_run_args(&strs(&["spec.json", "--checkpoint-interval", "5"])).is_err());
        // The interval must be a positive count.
        assert!(parse_run_args(&strs(&["s", "--checkpoint", "c", "--checkpoint-interval", "0"]))
            .is_err());
        assert!(parse_run_args(&strs(&["spec.json", "--checkpoint"])).is_err());
    }

    #[test]
    fn telemetry_flags_fold_into_the_spec() {
        let args = |telemetry_out: Option<&str>, progress| RunArgs {
            telemetry_out: telemetry_out.map(String::from),
            progress,
            ..plain_args("s.json")
        };
        // No flags, no spec: stays off.
        let mut spec = None;
        apply_telemetry_flags(&mut spec, &args(None, false));
        assert_eq!(spec, None);
        // --telemetry with no spec block: default stride.
        apply_telemetry_flags(&mut spec, &args(Some("t.json"), false));
        assert_eq!(spec, Some(TelemetrySpec::default()));
        // --progress flips the ticker on an explicit block, keeping it.
        let mut spec = Some(TelemetrySpec::with_stride(7));
        apply_telemetry_flags(&mut spec, &args(None, true));
        let spec = spec.unwrap();
        assert!(spec.progress);
        assert_eq!(spec.stride, 7);
    }

    #[test]
    fn lifetime_cli_splits_telemetry_to_json_lines() {
        let exp = LifetimeExperiment {
            id: "cli/test".into(),
            scheme: SchemeSpec::PcmS { region_lines: 4, period: 16 },
            workload: WorkloadSpec::Bpa { writes_per_target: 512 },
            data_lines: 1 << 10,
            device: DeviceSpec { endurance: 500, ..Default::default() },
            max_demand_writes: 30_000,
            fault: None,
            telemetry: Some(TelemetrySpec::with_stride(10_000)),
            timing: None,
        };
        let raw = serde_json::to_string(&exp).unwrap();
        let dir = std::env::temp_dir().join("sawl-sim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("telemetry.json");
        let args = RunArgs {
            telemetry_out: Some(out.to_str().unwrap().to_string()),
            ..plain_args("spec.json")
        };
        let (stdout, code) = run_lifetime_cli(&raw, &args).unwrap();
        assert_eq!(code, 0);
        // The series went to the file, not the stdout result.
        assert!(!stdout.contains("\"samples\""), "{stdout}");
        let lines = std::fs::read_to_string(&out).unwrap();
        assert!(lines.starts_with("{\"line\":\"meta\""), "{lines}");
        assert_eq!(lines.matches("{\"line\":\"sample\"").count(), 3);
        assert!(lines.ends_with('\n'));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lifetime_cli_checkpoints_and_resumes_byte_identically() {
        let exp = LifetimeExperiment {
            id: "cli/ckpt".into(),
            scheme: SchemeSpec::PcmS { region_lines: 4, period: 16 },
            workload: WorkloadSpec::Bpa { writes_per_target: 512 },
            data_lines: 1 << 10,
            device: DeviceSpec { endurance: 500, ..Default::default() },
            max_demand_writes: 30_000,
            fault: None,
            telemetry: None,
            timing: None,
        };
        let raw = serde_json::to_string(&exp).unwrap();
        let dir = std::env::temp_dir().join("sawl-sim-cli-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("run.ckpt");

        let (reference, code) = run_lifetime_cli(&raw, &plain_args("spec.json")).unwrap();
        assert_eq!(code, 0);

        let args = RunArgs {
            checkpoint: Some(ckpt.to_str().unwrap().to_string()),
            checkpoint_interval: Some(10_000),
            ..plain_args("spec.json")
        };
        let (first, code) = run_lifetime_cli(&raw, &args).unwrap();
        assert_eq!(code, 0);
        assert_eq!(first, reference);
        assert!(ckpt.exists(), "final checkpoint must be written");

        // Resuming the finished checkpoint reproduces the report exactly.
        let args = RunArgs { resume: true, ..args };
        let (resumed, code) = run_lifetime_cli(&raw, &args).unwrap();
        assert_eq!(code, 0);
        assert_eq!(resumed, reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lifetime_cli_rejects_checkpointed_timed_runs() {
        let mut exp = template_lifetime();
        exp.data_lines = 1 << 10;
        exp.fault = None;
        let raw = serde_json::to_string(&exp).unwrap();
        let args = RunArgs {
            checkpoint: Some("run.ckpt".into()),
            timing: true,
            ..plain_args("spec.json")
        };
        let (msg, code) = run_lifetime_cli(&raw, &args).unwrap_err();
        assert_eq!(code, 2, "{msg}");
        assert!(msg.contains("timing"), "{msg}");
    }

    #[test]
    fn lifetime_cli_maps_bad_specs_to_exit_2() {
        let args = plain_args("spec.json");
        let (_, code) = run_lifetime_cli("{not json", &args).unwrap_err();
        assert_eq!(code, 2);
        let mut exp = template_lifetime();
        exp.data_lines = 1 << 10;
        exp.fault = Some(FaultPlan { transient_rate: 1.5, ..Default::default() });
        let raw = serde_json::to_string(&exp).unwrap();
        let (msg, code) = run_lifetime_cli(&raw, &args).unwrap_err();
        assert_eq!(code, 2, "{msg}");
        assert!(msg.contains("invalid fault plan"), "{msg}");
    }

    #[test]
    fn lifetime_cli_maps_missing_checkpoints_to_exit_1() {
        let mut exp = template_lifetime();
        exp.data_lines = 1 << 10;
        exp.fault = None;
        exp.timing = None;
        exp.max_demand_writes = 10_000;
        let raw = serde_json::to_string(&exp).unwrap();
        let args = RunArgs {
            checkpoint: Some("/nonexistent-dir/run.ckpt".into()),
            resume: true,
            ..plain_args("spec.json")
        };
        let (msg, code) = run_lifetime_cli(&raw, &args).unwrap_err();
        assert_eq!(code, 1, "{msg}");
        assert!(msg.contains("checkpoint error"), "{msg}");
    }

    #[test]
    fn record_args_parse_and_validate() {
        let parsed =
            parse_record_args(&strs(&["spec.json", "out.trc", "--requests", "1000"])).unwrap();
        assert_eq!(
            parsed,
            RecordArgs {
                spec_path: "spec.json".into(),
                out_path: "out.trc".into(),
                requests: 1000
            }
        );
        assert!(parse_record_args(&strs(&["spec.json", "out.trc"])).is_err());
        assert!(parse_record_args(&strs(&["spec.json", "--requests", "10"])).is_err());
        assert!(parse_record_args(&strs(&["s", "o", "--requests", "0"])).is_err());
        assert!(parse_record_args(&strs(&["s", "o", "x", "--requests", "1"])).is_err());
    }

    #[test]
    fn record_cli_writes_a_replayable_trace() {
        let dir = std::env::temp_dir().join(format!("sawl-sim-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("ycsb.trc");
        let exp = LifetimeExperiment {
            id: "cli/record".into(),
            scheme: SchemeSpec::Ideal,
            workload: WorkloadSpec::Ycsb {
                hot_lines: 128,
                exponent: 1.1,
                write_ratio: 0.9,
                rotate_every: 500,
                drift: 16,
            },
            data_lines: 1 << 10,
            device: DeviceSpec::default(),
            max_demand_writes: 0,
            fault: None,
            telemetry: None,
            timing: None,
        };
        let raw = serde_json::to_string(&exp).unwrap();
        let args = RecordArgs {
            spec_path: "spec.json".into(),
            out_path: out.to_str().unwrap().to_string(),
            requests: 5_000,
        };
        let (json, code) = run_record_cli(&raw, &args).unwrap();
        assert_eq!(code, 0);
        assert!(json.contains("\"workload\": \"ycsb\""), "{json}");
        assert!(json.contains("\"requests\": 5000"), "{json}");

        // The recorded trace replays the exact live sequence: the header
        // carries a real count (backpatched, not the until-EOF marker),
        // the recorded name, and the stream's requests in order.
        let mut replay =
            sawl_trace::TraceFileStream::open(&out).expect("recorded trace must parse");
        assert_eq!(replay.name(), "ycsb");
        use sawl_trace::AddressStream;
        let mut live = exp.workload.try_build(exp.data_lines, stable_seed(&exp.id)).unwrap();
        for i in 0..5_000 {
            assert_eq!(replay.next_req(), live.next_req(), "request {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_cli_rejects_observation_driven_workloads() {
        let exp = LifetimeExperiment {
            id: "cli/record-gc".into(),
            scheme: SchemeSpec::Ideal,
            workload: WorkloadSpec::GcFeedback {
                exponent: 1.0,
                write_ratio: 1.0,
                base_threshold: 0.1,
                waf_gain: 0.2,
                cov_gain: 0.2,
                gc_burst: 64,
            },
            data_lines: 1 << 10,
            device: DeviceSpec::default(),
            max_demand_writes: 0,
            fault: None,
            telemetry: None,
            timing: None,
        };
        let raw = serde_json::to_string(&exp).unwrap();
        let args = RecordArgs {
            spec_path: "spec.json".into(),
            out_path: "unused.trc".into(),
            requests: 100,
        };
        let (msg, code) = run_record_cli(&raw, &args).unwrap_err();
        assert_eq!(code, 2, "{msg}");
        assert!(msg.contains("observation-driven"), "{msg}");
    }

    #[test]
    fn record_cli_rejects_corrupt_trace_replay_specs() {
        // A lifetime spec pointing at a malformed trace file dies with the
        // typed spec error (exit 2), in the CLI as in the library.
        let dir = std::env::temp_dir().join(format!("sawl-sim-badtrc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.trc");
        std::fs::write(&bad, b"JUNKJUNKJUNKJUNKJUNKJUNKJUNK").unwrap();
        let exp = LifetimeExperiment {
            id: "cli/bad-trace".into(),
            scheme: SchemeSpec::Ideal,
            workload: WorkloadSpec::TraceFile { path: bad.to_str().unwrap().to_string() },
            data_lines: 1 << 10,
            device: DeviceSpec { endurance: 500, ..Default::default() },
            max_demand_writes: 10_000,
            fault: None,
            telemetry: None,
            timing: None,
        };
        let raw = serde_json::to_string(&exp).unwrap();
        let (msg, code) = run_lifetime_cli(&raw, &plain_args("spec.json")).unwrap_err();
        assert_eq!(code, 2, "{msg}");
        assert!(msg.contains("bad trace magic"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn perf_cli_rejects_telemetry_flags() {
        let args = RunArgs { telemetry_out: Some("t.json".into()), ..plain_args("spec.json") };
        let (msg, code) = run_perf_cli("{}", &args).unwrap_err();
        assert_eq!(code, 2);
        assert!(msg.contains("perf runs do not support"), "{msg}");
        let args = RunArgs { checkpoint: Some("c.ckpt".into()), ..plain_args("spec.json") };
        let (msg, code) = run_perf_cli("{}", &args).unwrap_err();
        assert_eq!(code, 2);
        assert!(msg.contains("checkpoint"), "{msg}");
    }
}
