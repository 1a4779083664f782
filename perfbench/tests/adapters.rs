//! The layer probes and the timing marks must not change what they
//! measure: a traced run and a marked run are byte-identical to an
//! untraced one and to `run_lifetime`.

use sawl_nvm::NvmConfig;
use sawl_perfbench::case::{run_case, run_case_marked, Marks};
use sawl_perfbench::probe::{Probe, SpanMode, TracedStream};
use sawl_simctl::{
    run_lifetime, DeviceSpec, FaultPlan, LifetimeExperiment, SchemeSpec, TelemetrySpec, TimingSpec,
    WorkloadSpec,
};
use sawl_trace::{AddressStream, MemReq};

fn exp(id: &str, scheme: SchemeSpec, workload: WorkloadSpec) -> LifetimeExperiment {
    LifetimeExperiment {
        id: id.into(),
        scheme,
        workload,
        data_lines: 1 << 12,
        device: DeviceSpec { endurance: 100_000, ..Default::default() },
        max_demand_writes: 300_000,
        fault: None,
        telemetry: Some(TelemetrySpec::with_stride(10_000)),
        timing: None,
    }
}

/// Traced, untraced, marked and `run_lifetime` results serialize
/// identically.
fn assert_identical(e: &LifetimeExperiment) -> sawl_perfbench::case::CaseRun {
    let reference = serde_json::to_string(&run_lifetime(e).unwrap()).unwrap();
    let plain = run_case(e, false).unwrap();
    let traced = run_case(e, true).unwrap();
    let mut marks = Marks { every: 3, ..Marks::default() };
    let marked = run_case_marked(e, &mut marks).unwrap();
    assert_eq!(serde_json::to_string(&plain.result).unwrap(), reference, "untraced {}", e.id);
    assert_eq!(serde_json::to_string(&traced.result).unwrap(), reference, "traced {}", e.id);
    assert_eq!(serde_json::to_string(&marked.result).unwrap(), reference, "marked {}", e.id);
    assert_eq!(marks.ns.len() as u64, marks.calls.div_ceil(3), "one mark every 3 blocks");
    assert!(marks.ns.windows(2).all(|w| w[0] <= w[1]) && marks.ns.last() <= Some(&marked.pump_ns));
    traced
}

#[test]
fn wrapped_gc_feedback_run_is_byte_identical() {
    let e = exp(
        "adapters/gc",
        SchemeSpec::PcmS { region_lines: 16, period: 32 },
        WorkloadSpec::GcFeedback {
            exponent: 1.1,
            write_ratio: 0.8,
            base_threshold: 0.3,
            waf_gain: 0.05,
            cov_gain: 0.1,
            gc_burst: 512,
        },
    );
    let run = assert_identical(&e);
    let t = run.trace.unwrap();
    assert!(t.stream.observe_calls > 0, "the feedback stream was never observed");
    assert!(run.result.telemetry.unwrap().samples.len() == 30);
}

#[test]
fn wrapped_timed_bpa_run_is_byte_identical_and_batched() {
    for scheme in [SchemeSpec::PcmS { region_lines: 16, period: 32 }, SchemeSpec::sawl_default(64)]
    {
        let mut e =
            exp("adapters/timed-bpa", scheme, WorkloadSpec::Bpa { writes_per_target: 2048 });
        e.timing = Some(TimingSpec::default());
        let run = assert_identical(&e);
        let s = run.trace.unwrap().scheme;
        // A dropped `quiet_writes` would put the timed pump back on scalar
        // serving: every call would miss and `write_run` would never run.
        assert!(s.quiet_hits > 0 && s.quiet_hits <= s.quiet_calls, "{s:?}");
        assert!(s.write_run_calls > 0, "{s:?}");
        assert!(s.write_calls > 0, "{s:?}");
    }
}

#[test]
fn wrapped_run_recovers_from_power_losses_identically() {
    let mut e = exp(
        "adapters/faulted",
        SchemeSpec::sawl_default(64),
        WorkloadSpec::Bpa { writes_per_target: 512 },
    );
    e.fault = Some(FaultPlan {
        stuck_lines: vec![3],
        transient_rate: 0.0,
        power_loss_at_writes: vec![10_000, 120_000],
        seed: 5,
    });
    let run = assert_identical(&e);
    assert_eq!(run.result.recoveries, 2);
}

#[test]
fn traced_stream_forwards_cursor_and_skip() {
    let spec = WorkloadSpec::Zipf { exponent: 1.0, write_ratio: 0.7 };
    let shadow = || {
        let cfg = NvmConfig::builder().lines(1 << 10).banks(1).endurance(100).build().unwrap();
        sawl_nvm::NvmDevice::new(cfg)
    };
    let probe = Probe::new(SpanMode::PerBlock, shadow());
    let mut scratch = vec![MemReq::read(0); 64];

    let mut a = spec.build(1 << 10, 9);
    let mut b = spec.build(1 << 10, 9);
    let mut traced = TracedStream { inner: &mut *a, probe: &probe };
    traced.skip_batches(3, &mut scratch);
    b.skip_batches(3, &mut scratch);
    assert_eq!(traced.cursor_kind(), b.cursor_kind());
    assert_eq!(traced.name(), b.name());
    assert_eq!(traced.space_lines(), b.space_lines());

    let mut w = sawl_ckpt::Writer::new();
    traced.cursor_save(&mut w);
    let payload = w.into_payload();
    let mut c = spec.build(1 << 10, 9);
    let mut restored = TracedStream { inner: &mut *c, probe: &probe };
    restored.cursor_restore(&mut sawl_ckpt::Reader::new(&payload)).unwrap();
    for _ in 0..1000 {
        let want = b.next_req();
        assert_eq!(traced.next_req(), want);
        assert_eq!(restored.next_req(), want);
    }
}
