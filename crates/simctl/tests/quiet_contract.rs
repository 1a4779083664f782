//! The quiet-span batching contract, checked directly.
//!
//! `WearLeveler::write_run`'s default batches through two hooks:
//! `quiet_writes(la)` certifies how many further writes to `la` are quiet,
//! and `note_quiet(la, k)` advances the scheme as if `k` of them had been
//! served. These tests pin that contract at three levels:
//!
//! * **soundness** — from random reachable states of every scheme, `k =
//!   quiet_writes(la)` scalar writes are quiet (stable translation, no
//!   overhead writes, no reads, no op-count movement) and leave scheme and
//!   device byte-identical to one device run plus `note_quiet`;
//! * **power loss** — `write_run` reports exactly the writes the device
//!   applied, so a pump retries precisely the writes a power loss dropped;
//! * **equivalence** — the schemes that batch only through the default
//!   (RBSG, Segment Swapping, NWL) match the scalar loop across dwells
//!   around their trigger period, untimed and timed.

use proptest::prelude::*;
use sawl_algos::WearLeveler;
use sawl_nvm::NvmDevice;
use sawl_simctl::{
    pump_writes, run_lifetime, stable_seed, DeviceSpec, FaultPlan, LifetimeExperiment,
    SchemeInstance, SchemeSpec, TelemetrySpec, TimingSpec, WorkloadSpec,
};
use sawl_trace::AddressStream;

const LINES: u64 = 1 << 9;

/// Every `SchemeSpec` variant, sized for a 2^9-line device, with periods
/// short enough that a few thousand writes cross several triggers and a
/// CMT small enough to miss.
fn all_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::Baseline,
        SchemeSpec::Ideal,
        SchemeSpec::SegmentSwap { segment_lines: 64, swap_period: 128 },
        SchemeSpec::Rbsg { regions: 4, region_lines: 128, period: 64 },
        SchemeSpec::SingleSr { period: 32 },
        SchemeSpec::Tlsr { region_lines: 64, inner_period: 8, outer_period: 32 },
        SchemeSpec::PcmS { region_lines: 16, period: 32 },
        SchemeSpec::Mwsr { region_lines: 16, period: 32 },
        SchemeSpec::Nwl { granularity: 4, cmt_entries: 16, swap_period: 16 },
        SchemeSpec::sawl_default(16),
    ]
}

fn build(scheme: &SchemeSpec, device: &DeviceSpec, seed: u64) -> (SchemeInstance, NvmDevice) {
    let dev = device.build(scheme.physical_lines(LINES), seed);
    (scheme.instantiate(LINES, seed), dev)
}

fn scheme_bytes(wl: &SchemeInstance) -> Vec<u8> {
    let mut w = sawl_ckpt::Writer::new();
    wl.ckpt_save(&mut w);
    w.into_payload()
}

fn device_bytes(dev: &NvmDevice) -> Vec<u8> {
    let mut w = sawl_ckpt::Writer::new();
    dev.ckpt_save(&mut w);
    w.into_payload()
}

/// Fork a run through its checkpoint: a fresh instance of the same spec
/// restored from the original's scheme and device bytes.
fn fork(
    scheme: &SchemeSpec,
    device: &DeviceSpec,
    seed: u64,
    wl: &SchemeInstance,
    dev: &NvmDevice,
) -> (SchemeInstance, NvmDevice) {
    let (mut wl2, mut dev2) = build(scheme, device, seed);
    let bytes = scheme_bytes(wl);
    let mut r = sawl_ckpt::Reader::new(&bytes);
    wl2.ckpt_restore(&mut r).unwrap();
    r.finish().unwrap();
    let bytes = device_bytes(dev);
    let mut r = sawl_ckpt::Reader::new(&bytes);
    dev2.ckpt_restore(&mut r).unwrap();
    r.finish().unwrap();
    (wl2, dev2)
}

/// Longest quiet span one soundness case serves.
const SPAN_CAP: u64 = 4_096;

/// Drive `scheme` to the state `warmup` reaches — dwells of scalar writes,
/// the reachable states by definition — then check one certified quiet
/// span on `la` from there.
fn check_quiet_span(scheme: &SchemeSpec, seed: u64, warmup: &[(u64, u64)], la: u64) {
    // Endurance low enough that lines fail (and spares refill) inside the
    // spans, high enough that no case can kill the device.
    let device = DeviceSpec { endurance: 2_000, banks: 1, ..Default::default() };
    let (mut wl, mut dev) = build(scheme, &device, seed);
    for &(target, dwell) in warmup {
        for _ in 0..dwell {
            wl.write(target % LINES, &mut dev);
        }
    }
    let k = wl.quiet_writes(la).min(SPAN_CAP);
    let (mut batched, mut batched_dev) = fork(scheme, &device, seed, &wl, &dev);

    let pa = wl.translate(la);
    let before = *dev.wear();
    let ops = wl.op_counts();
    for i in 0..k {
        assert_eq!(wl.write(la, &mut dev), pa, "{}: write {i} of a quiet span moved", wl.name());
        assert_eq!(wl.translate(la), pa, "{}: translation moved mid-span", wl.name());
    }
    let after = *dev.wear();
    assert!(!dev.is_dead(), "{}: the soundness device must survive", wl.name());
    assert_eq!(after.demand_writes - before.demand_writes, k);
    assert_eq!(after.overhead_writes, before.overhead_writes, "{}: overhead", wl.name());
    assert_eq!(after.reads, before.reads, "{}: device reads in a quiet span", wl.name());
    assert_eq!(wl.op_counts(), ops, "{}: op counts moved in a quiet span", wl.name());

    assert_eq!(batched.translate(la), pa);
    let (applied, _) = batched_dev.write_run(pa, k);
    assert_eq!(applied, k);
    batched.note_quiet(la, k);
    assert_eq!(
        scheme_bytes(&batched),
        scheme_bytes(&wl),
        "{}: note_quiet({la}, {k}) diverged from {k} scalar writes",
        wl.name()
    );
    assert_eq!(device_bytes(&batched_dev), device_bytes(&dev), "{}: device diverged", wl.name());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn quiet_spans_are_sound_from_random_reachable_states(
        warmup in prop::collection::vec((any::<u64>(), 1u64..400), 1..24),
        pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        // Half the cases probe the last dwell's address, whose mapping is
        // cached and whose trigger counters are mid-period; the rest probe
        // an arbitrary line.
        let la = if pick.is_multiple_of(2) { warmup[warmup.len() - 1].0 % LINES } else { pick % LINES };
        for scheme in all_schemes() {
            check_quiet_span(&scheme, seed, &warmup, la);
        }
    }
}

#[test]
fn quiet_spans_are_sound_right_after_a_trigger() {
    // Dwells that end exactly on, just before and just after each
    // scheme's trigger period, so spans start at the counter extremes.
    for dwell in [31u64, 32, 33, 63, 64, 65, 127, 128, 129, 511, 512, 513] {
        for scheme in all_schemes() {
            check_quiet_span(&scheme, 7, &[(3, dwell)], 3);
            check_quiet_span(&scheme, 7, &[(3, dwell), (200, dwell)], 200);
        }
    }
}

#[test]
fn write_run_reports_only_writes_the_device_applied() {
    // Power losses land inside spans, on trigger writes and back to back;
    // each dropped write must be missing from `write_run`'s count.
    let plan = FaultPlan {
        power_loss_at_writes: vec![10, 75, 76, 300, 1_029, 2_048, 4_000, 6_100],
        ..Default::default()
    };
    let device = DeviceSpec { endurance: 1_000, banks: 1, ..Default::default() };
    for scheme in all_schemes() {
        let (mut wl, mut dev) = build(&scheme, &device, 11);
        dev.install_fault_plan(&plan).unwrap();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut losses = 0;
        for _ in 0..40 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let la = x % LINES;
            let n = 1 + (x >> 20) % 400;
            let before = dev.wear().demand_writes;
            let done = wl.write_run(la, n, &mut dev);
            assert_eq!(done, dev.wear().demand_writes - before, "{}: write_run count", wl.name());
            if dev.power_lost() {
                // The loss may have hit the last write's own data movement,
                // after every demand write landed.
                losses += 1;
                assert!(done <= n);
                while !wl.recover(&mut dev).complete {}
            } else if !dev.is_dead() {
                assert_eq!(done, n, "{}: a healthy run came back short", wl.name());
            }
        }
        assert!(losses >= 4, "{}: only {losses} power losses fired", wl.name());
    }
}

/// Serve `stream`'s writes one `write` at a time until death or `cap`.
fn scalar_writes(wl: &mut SchemeInstance, dev: &mut NvmDevice, stream: &mut dyn AddressStream) {
    let cap = 4 * dev.config().ideal_lifetime_writes();
    while !dev.is_dead() && dev.wear().demand_writes < cap {
        let req = stream.next_req();
        if req.write {
            wl.write(req.la, dev);
        }
    }
}

/// The schemes that batch only through the default `write_run`, each
/// paired with its trigger period: the demand writes to one region (or
/// segment) from one exchange or gap move to the next.
fn newly_batched() -> Vec<(SchemeSpec, u64)> {
    vec![
        (SchemeSpec::Rbsg { regions: 4, region_lines: 128, period: 64 }, 64),
        (SchemeSpec::Rbsg { regions: 8, region_lines: 64, period: 7 }, 7),
        (SchemeSpec::SegmentSwap { segment_lines: 64, swap_period: 64 }, 64),
        // One segment: the swap trigger is disabled, every write is quiet.
        (SchemeSpec::SegmentSwap { segment_lines: 512, swap_period: 64 }, 64),
        // NWL exchanges a 4-line region after 16 writes per line.
        (SchemeSpec::Nwl { granularity: 4, cmt_entries: 64, swap_period: 16 }, 64),
        (SchemeSpec::Nwl { granularity: 4, cmt_entries: 8, swap_period: 3 }, 12),
    ]
}

fn dwells(period: u64) -> [u64; 5] {
    [1, period - 1, period, period + 1, 5_000]
}

#[test]
fn newly_batched_schemes_match_the_scalar_loop_around_their_period() {
    for variation in
        [sawl_nvm::EnduranceModel::Uniform, sawl_nvm::EnduranceModel::Gaussian { cov: 0.2 }]
    {
        let device = DeviceSpec { endurance: 200, variation, ..Default::default() };
        for (scheme, period) in newly_batched() {
            for dwell in dwells(period) {
                let id = format!("quiet-equiv/{}/{period}/{dwell}", scheme.name());
                let seed = stable_seed(&id);
                let workload = WorkloadSpec::Bpa { writes_per_target: dwell };
                let (mut wl, mut dev) = build(&scheme, &device, seed);
                let mut stream = workload.build(wl.logical_lines(), seed);
                pump_writes(&mut wl, &mut dev, stream.as_mut(), u64::MAX).unwrap();

                let (mut ref_wl, mut ref_dev) = build(&scheme, &device, seed);
                let mut ref_stream = workload.build(ref_wl.logical_lines(), seed);
                scalar_writes(&mut ref_wl, &mut ref_dev, ref_stream.as_mut());

                assert!(dev.is_dead() && ref_dev.is_dead(), "{id}: a run survived");
                assert_eq!(dev.demand_writes_at_death(), ref_dev.demand_writes_at_death(), "{id}");
                assert_eq!(scheme_bytes(&wl), scheme_bytes(&ref_wl), "{id}: scheme diverged");
                assert_eq!(device_bytes(&dev), device_bytes(&ref_dev), "{id}: device diverged");
            }
        }
    }
}

#[test]
fn newly_batched_timed_runs_match_the_scalar_serve_path() {
    for (scheme, period) in newly_batched() {
        for workload in dwells(period)
            .into_iter()
            .map(|dwell| WorkloadSpec::Bpa { writes_per_target: dwell })
            .chain([WorkloadSpec::Uniform { write_ratio: 0.7 }])
        {
            let exp = |scalar_serve| LifetimeExperiment {
                id: format!("quiet-timed/{}/{period}/{}", scheme.name(), workload.name()),
                scheme: scheme.clone(),
                workload: workload.clone(),
                data_lines: LINES,
                device: DeviceSpec { endurance: 200, ..Default::default() },
                max_demand_writes: 40_000,
                fault: None,
                // 777 never divides a dwell, so samples land mid-span.
                telemetry: Some(TelemetrySpec::with_stride(777)),
                timing: Some(TimingSpec { scalar_serve, ..Default::default() }),
            };
            let fast = run_lifetime(&exp(false)).unwrap();
            let scalar = run_lifetime(&exp(true)).unwrap();
            assert_eq!(fast, scalar, "timed fast path diverged for {}", fast.id);
        }
    }
}
