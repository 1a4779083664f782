//! The checkpoint/resume contract, pinned for every scheme:
//!
//! 1. **Kill-point equivalence** — a run checkpointed at a random batch
//!    boundary, torn down, and resumed from the file produces a
//!    [`LifetimeResult`] (telemetry series included) equal to an
//!    uninterrupted run, for all 10 `SchemeSpec` variants under BPA,
//!    Zipf, drifting YCSB, diurnal phases, tenant interleaving, GC
//!    feedback, and binary trace replay. The restored run also
//!    re-encodes to the exact bytes it was loaded from.
//! 2. **Container rejection** — truncated, bit-rotted, wrong-magic and
//!    wrong-version checkpoint files come back as typed
//!    [`DriverError::Checkpoint`] errors: never a panic, never a silent
//!    partial load.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use sawl_simctl::{
    run_lifetime, DeviceSpec, DriverError, LifetimeExperiment, ResumableRun, SchemeSpec,
    TelemetrySpec, WorkloadSpec,
};

/// Every `SchemeSpec` variant, sized for a 2^9-line device.
fn all_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::Baseline,
        SchemeSpec::Ideal,
        SchemeSpec::SegmentSwap { segment_lines: 64, swap_period: 1 << 10 },
        SchemeSpec::Rbsg { regions: 4, region_lines: 128, period: 64 },
        SchemeSpec::SingleSr { period: 32 },
        SchemeSpec::Tlsr { region_lines: 64, inner_period: 8, outer_period: 32 },
        SchemeSpec::PcmS { region_lines: 16, period: 32 },
        SchemeSpec::Mwsr { region_lines: 16, period: 32 },
        SchemeSpec::Nwl { granularity: 4, cmt_entries: 64, swap_period: 1 << 10 },
        SchemeSpec::sawl_default(64),
    ]
}

/// Workloads under test: the two classic generators plus every workload
/// zoo addition — drifting YCSB, diurnal phases, tenant interleaving,
/// closed-loop GC feedback, and binary trace replay.
const WORKLOAD_KINDS: u64 = 7;

/// A shared on-disk trace for the `TraceFile` workload, recorded once
/// per process. Oversized so no capped run reaches EOF.
fn shared_trace() -> String {
    use sawl_trace::{AddressStream as _, TraceWriter};
    static PATH: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    PATH.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("sawl-resume-equiv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.trc");
        let spec = WorkloadSpec::Ycsb {
            hot_lines: 64,
            exponent: 1.1,
            write_ratio: 0.8,
            rotate_every: 2_048,
            drift: 16,
        };
        let mut gen = spec.try_build(1 << 9, sawl_simctl::stable_seed("resume-trace")).unwrap();
        let mut w =
            TraceWriter::with_name(std::io::Cursor::new(Vec::new()), 1 << 9, gen.name()).unwrap();
        w.record(gen.as_mut(), 400_000).unwrap();
        let (out, _) = w.finish().unwrap();
        std::fs::write(&path, out.into_inner()).unwrap();
        path.to_str().unwrap().to_string()
    })
    .clone()
}

fn workload_for(pick: u64) -> WorkloadSpec {
    match pick {
        0 => WorkloadSpec::Bpa { writes_per_target: 512 },
        1 => WorkloadSpec::Zipf { exponent: 1.0, write_ratio: 0.7 },
        2 => WorkloadSpec::Ycsb {
            hot_lines: 64,
            exponent: 1.1,
            write_ratio: 0.7,
            rotate_every: 2_048,
            drift: 16,
        },
        3 => WorkloadSpec::Diurnal {
            phases: vec![
                sawl_simctl::DiurnalPhase {
                    workload: WorkloadSpec::Ycsb {
                        hot_lines: 48,
                        exponent: 1.2,
                        write_ratio: 0.9,
                        rotate_every: 1_024,
                        drift: 8,
                    },
                    requests: 3_000,
                },
                sawl_simctl::DiurnalPhase {
                    workload: WorkloadSpec::Uniform { write_ratio: 0.3 },
                    requests: 1_500,
                },
            ],
        },
        4 => WorkloadSpec::MultiTenant {
            slice: 64,
            tenants: vec![
                WorkloadSpec::Zipf { exponent: 1.2, write_ratio: 0.9 },
                WorkloadSpec::Uniform { write_ratio: 0.5 },
            ],
        },
        5 => WorkloadSpec::GcFeedback {
            exponent: 1.1,
            write_ratio: 0.8,
            base_threshold: 0.3,
            waf_gain: 0.05,
            cov_gain: 0.1,
            gc_burst: 256,
        },
        _ => WorkloadSpec::TraceFile { path: shared_trace() },
    }
}

fn experiment(scheme: SchemeSpec, workload: u64, tag: u64) -> LifetimeExperiment {
    LifetimeExperiment {
        id: format!("resume-equiv/{}/{workload}/{tag}", scheme.name()),
        scheme,
        workload: workload_for(workload),
        data_lines: 1 << 9,
        // Endurance above the BPA dwell (512) so no line dies inside one
        // attack burst: runs span many stream batches and the kill point
        // actually lands mid-run.
        device: DeviceSpec { endurance: 2_000, ..Default::default() },
        max_demand_writes: 60_000,
        fault: None,
        telemetry: Some(TelemetrySpec::with_stride(5_000)),
        timing: None,
    }
}

fn scratch_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sawl-resume-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.ckpt"))
}

/// Drive `exp` to `kill_batches`, checkpoint to a file, drop the run
/// (the simulated SIGKILL), resume from the file, finish, and compare
/// against the uninterrupted reference.
fn kill_and_resume_matches(exp: &LifetimeExperiment, kill_batches: u64, tag: &str) {
    let reference = run_lifetime(exp).unwrap();

    let path = scratch_file(tag);
    let mut run = ResumableRun::new(exp).unwrap();
    for _ in 0..kill_batches {
        if !run.step().unwrap() {
            break; // the run may end before the kill point — still valid
        }
    }
    run.save(&path).unwrap();
    drop(run);

    let mut resumed = ResumableRun::resume(exp, &path).unwrap();
    // The restored run re-encodes to the same bytes: stream cursors
    // (RNG state, phase clocks, trace positions) serialize
    // deterministically through the checkpoint frame.
    let resave = scratch_file(&format!("{tag}-resave"));
    resumed.save(&resave).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&resave).unwrap(),
        "{}: resumed checkpoint re-encoded differently",
        exp.id
    );
    std::fs::remove_file(&resave).ok();
    resumed.run_to_end().unwrap();
    assert_eq!(
        resumed.into_result(),
        reference,
        "{}: killed at batch {kill_batches}, resume diverged",
        exp.id
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_scheme_resumes_identically_under_every_workload() {
    for (i, scheme) in all_schemes().into_iter().enumerate() {
        for workload in 0..WORKLOAD_KINDS {
            let exp = experiment(scheme.clone(), workload, 0);
            kill_and_resume_matches(&exp, 3, &format!("exhaustive-{i}-{workload}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn random_kill_points_resume_identically(
        scheme_pick in 0usize..10,
        workload in 0u64..WORKLOAD_KINDS,
        kill_batches in 1u64..24,
        tag in 0u64..1 << 12,
    ) {
        let scheme = all_schemes().swap_remove(scheme_pick);
        let exp = experiment(scheme, workload, tag);
        kill_and_resume_matches(
            &exp,
            kill_batches,
            &format!("prop-{scheme_pick}-{workload}-{kill_batches}-{tag}"),
        );
    }
}

// ---- container rejection -----------------------------------------------

/// A valid on-disk checkpoint for corruption experiments.
fn valid_checkpoint(exp: &LifetimeExperiment, tag: &str) -> (PathBuf, Vec<u8>) {
    let path = scratch_file(tag);
    let mut run = ResumableRun::new(exp).unwrap();
    for _ in 0..3 {
        if !run.step().unwrap() {
            break;
        }
    }
    run.save(&path).unwrap();
    (path.clone(), std::fs::read(&path).unwrap())
}

fn resume_err(exp: &LifetimeExperiment, path: &Path) -> String {
    match ResumableRun::resume(exp, path) {
        Err(DriverError::Checkpoint(msg)) => msg,
        Err(other) => panic!("expected a Checkpoint error, got {other:?}"),
        Ok(_) => panic!("corrupted checkpoint loaded silently"),
    }
}

#[test]
fn corrupted_checkpoint_files_are_rejected_with_typed_errors() {
    let exp = experiment(SchemeSpec::sawl_default(64), 0, 99);
    let (path, bytes) = valid_checkpoint(&exp, "corrupt");

    // Sanity: the pristine file resumes.
    assert!(ResumableRun::resume(&exp, &path).is_ok());

    // Truncation at every structurally interesting length: inside the
    // magic, inside the header, inside the payload, inside the checksum.
    for cut in [0, 4, 11, 19, bytes.len() / 2, bytes.len() - 3] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let msg = resume_err(&exp, &path);
        assert!(!msg.is_empty(), "truncation at {cut} produced an empty error");
    }

    // Wrong magic: not a checkpoint file at all.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    std::fs::write(&path, &bad).unwrap();
    assert!(resume_err(&exp, &path).contains("magic"));

    // Wrong version: the u32 after the 8-byte magic.
    let mut bad = bytes.clone();
    bad[8] = 0xEE;
    std::fs::write(&path, &bad).unwrap();
    assert!(resume_err(&exp, &path).contains("version"));

    // Bit rot inside the payload: the checksum catches it.
    let mut bad = bytes.clone();
    let mid = bytes.len() / 2;
    bad[mid] ^= 0x01;
    std::fs::write(&path, &bad).unwrap();
    assert!(resume_err(&exp, &path).contains("checksum"));

    // Valid container, garbage payload: unframe succeeds, decode must
    // still fail typed. Reframe random bytes through the public API.
    let garbage = sawl_ckpt::frame(&[0xAB; 64]);
    std::fs::write(&path, &garbage).unwrap();
    let msg = resume_err(&exp, &path);
    assert!(!msg.is_empty());

    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoints_refuse_to_cross_schemes() {
    // A checkpoint from one scheme must not load into another even when
    // everything else about the experiments matches.
    let sawl = experiment(SchemeSpec::sawl_default(64), 0, 7);
    let (path, _) = valid_checkpoint(&sawl, "cross-scheme");
    let mut pcms = experiment(SchemeSpec::PcmS { region_lines: 16, period: 32 }, 0, 7);
    pcms.id = sawl.id.clone(); // same id, different scheme: specs still differ
    let msg = resume_err(&pcms, &path);
    assert!(msg.contains("different experiment"), "{msg}");
    std::fs::remove_file(&path).ok();
}
