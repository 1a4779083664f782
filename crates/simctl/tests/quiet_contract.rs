//! The quiet-span batching contract, checked directly.
//!
//! `WearLeveler::write_run`, the one loop that serves runs, batches
//! through three hooks: `quiet_writes(la)` certifies how many further
//! writes to `la` are quiet, `note_quiet(la, k)` advances the scheme as if
//! `k` of them had been served, and `write_chunk(la, n)` lets a scheme
//! with closed-form triggers (SR, TLSR, MWSR, RBSG) serve a stretch across
//! them as one failure-free chunk.
//! These tests pin that contract:
//!
//! * **soundness** — from random reachable states of every scheme, `k =
//!   quiet_writes(la)` scalar writes are quiet (stable translation, no
//!   overhead writes, no reads, no op-count movement) and leave scheme and
//!   device byte-identical to one device run plus `note_quiet`;
//! * **power loss** — `write_run` reports exactly the writes the device
//!   applied, so a pump retries precisely the writes a power loss dropped;
//! * **equivalence** — RBSG (quiet spans and chunks), Segment Swapping
//!   and NWL (quiet spans only) match the scalar loop across dwells
//!   around their trigger period, untimed and timed;
//! * **refresh chunks** — Security Refresh and TLSR, whose `write_chunk`
//!   serves chunks the device proves failure-free, match the scalar loop
//!   byte for byte from random reachable states, one step before a round
//!   wrap, and next to failing lines and spare exhaustion;
//! * **all or nothing** — one `write_chunk` offer either serves `w` writes
//!   exactly as `w` scalar writes would, or (refused, or declined because
//!   the run ends by the next trigger) changes no scheme or device byte;
//!   checked for the refresh schemes and for MWSR's and RBSG's chunk
//!   plans across migration steps and gap moves.

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
    build_sized(scheme, device, seed, LINES)
}

fn build_sized(
    scheme: &SchemeSpec,
    device: &DeviceSpec,
    seed: u64,
    lines: u64,
) -> (SchemeInstance, NvmDevice) {
    let dev = device.build(scheme.physical_lines(lines), seed);
    (scheme.instantiate(lines, seed), dev)
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

/// Fork a run over `lines` logical lines through its checkpoint: a fresh
/// instance of the same spec restored from the original's scheme and
/// device bytes.
fn fork(
    scheme: &SchemeSpec,
    device: &DeviceSpec,
    seed: u64,
    lines: u64,
    wl: &SchemeInstance,
    dev: &NvmDevice,
) -> (SchemeInstance, NvmDevice) {
    let (mut wl2, mut dev2) = build_sized(scheme, device, seed, lines);
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
    let (mut batched, mut batched_dev) = fork(scheme, &device, seed, LINES, &wl, &dev);

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

/// RBSG, Segment Swapping and NWL, each paired with its trigger period:
/// the demand writes to one region (or segment) from one exchange or gap
/// move to the next.
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

/// The refresh schemes, whose `write_chunk` serves chunks, each with the
/// logical lines it runs over: geometries with long rounds, rounds shorter
/// than a dwell, an inner period of 1, and regions long enough that a
/// chunk stops at the cap on a partial inner round (more than 257 lines,
/// with outer swaps elsewhere inside the chunk).
fn refresh_schemes() -> Vec<(SchemeSpec, u64)> {
    vec![
        (SchemeSpec::Tlsr { region_lines: 64, inner_period: 8, outer_period: 32 }, LINES),
        (SchemeSpec::Tlsr { region_lines: 16, inner_period: 2, outer_period: 4 }, LINES),
        (SchemeSpec::Tlsr { region_lines: 8, inner_period: 1, outer_period: 3 }, LINES),
        (SchemeSpec::Tlsr { region_lines: 512, inner_period: 4, outer_period: 64 }, 1 << 13),
        (SchemeSpec::SingleSr { period: 1 }, LINES),
        (SchemeSpec::SingleSr { period: 7 }, LINES),
    ]
}

/// Refresh schemes whose periods are near `2^62`, so the distance to a
/// round's wrap overflows `u64`.
fn huge_period_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::SingleSr { period: 1 << 62 },
        SchemeSpec::Tlsr {
            region_lines: 64,
            inner_period: u64::from(u32::MAX),
            outer_period: (1 << 62) + 1,
        },
    ]
}

/// A refresh state to move a scheme to: the level that serves the target
/// (`outer` picks TLSR's outer level) with `steps_left` steps left in its
/// round (clamped to `1..=size`, so `u64::MAX` is a fresh round) and its
/// trigger counter at `counter % period`.
#[derive(Debug, Clone, Copy)]
struct Edit {
    outer: bool,
    steps_left: u64,
    counter: u64,
}

/// Apply `e` to the refresh level that serves `la` by editing the
/// scheme's checkpoint. Keys, pointers and counters are free, so the
/// edited state is reachable too.
fn edit_refresh_state(wl: &mut SchemeInstance, scheme: &SchemeSpec, la: u64, e: Edit) {
    let pointer = |size: u64| size - e.steps_left.clamp(1, size);
    let (lines, outer, counter) = (wl.logical_lines(), e.outer, e.counter);
    let bytes = scheme_bytes(wl);
    let mut r = sawl_ckpt::Reader::new(&bytes);
    let mut w = sawl_ckpt::Writer::new();
    w.put_u8(r.get_u8().unwrap());
    let copy_u64 = |r: &mut sawl_ckpt::Reader, w: &mut sawl_ckpt::Writer, edit: Option<u64>| {
        let v = r.get_u64().unwrap();
        w.put_u64(edit.unwrap_or(v));
    };
    match *scheme {
        SchemeSpec::SingleSr { period } => {
            copy_u64(&mut r, &mut w, None);
            copy_u64(&mut r, &mut w, None);
            copy_u64(&mut r, &mut w, Some(pointer(lines)));
            copy_u64(&mut r, &mut w, Some(counter % period));
        }
        SchemeSpec::Tlsr { region_lines, inner_period, outer_period } => {
            copy_u64(&mut r, &mut w, None);
            copy_u64(&mut r, &mut w, None);
            copy_u64(&mut r, &mut w, outer.then(|| pointer(lines)));
            let regions = r.get_u64().unwrap();
            w.put_u64(regions);
            let region = wl.translate(la) / region_lines;
            for i in 0..regions {
                copy_u64(&mut r, &mut w, None);
                copy_u64(&mut r, &mut w, None);
                copy_u64(&mut r, &mut w, (!outer && i == region).then(|| pointer(region_lines)));
            }
            let mut inner_writes = r.get_u32_vec().unwrap();
            if !outer {
                inner_writes[region as usize] = (counter % inner_period) as u32;
            }
            w.put_u32_slice(&inner_writes);
            copy_u64(&mut r, &mut w, outer.then_some(counter % outer_period));
        }
        _ => unreachable!("not a refresh scheme"),
    }
    let rest = r.remaining();
    for _ in 0..rest {
        w.put_u8(r.get_u8().unwrap());
    }
    let bytes = w.into_payload();
    let mut r = sawl_ckpt::Reader::new(&bytes);
    wl.ckpt_restore(&mut r).unwrap();
    r.finish().unwrap();
}

/// Drive `scheme` over `lines` logical lines to a reachable state,
/// optionally edit its refresh state, bring chosen lines 0–2 writes from
/// failure on a device with `spares_left` spares, then check
/// `write_run(la, n)` against `n` scalar writes (stopping after the one
/// that kills the device).
#[allow(clippy::too_many_arguments)]
fn check_chunked_run(
    scheme: &SchemeSpec,
    lines: u64,
    seed: u64,
    warmup: &[(u64, u64)],
    la: u64,
    edit: Option<Edit>,
    near: &[(u64, u64)],
    spares_left: u64,
    n: u64,
) {
    let device = DeviceSpec {
        endurance: 3_000,
        banks: 1,
        variation: if seed.is_multiple_of(2) {
            sawl_nvm::EnduranceModel::Uniform
        } else {
            sawl_nvm::EnduranceModel::Gaussian { cov: 0.2 }
        },
        ..Default::default()
    };
    let (mut wl, mut dev) = build_sized(scheme, &device, seed, lines);
    for &(target, dwell) in warmup {
        for _ in 0..dwell {
            wl.write(target % lines, &mut dev);
        }
    }
    if let Some(e) = edit {
        edit_refresh_state(&mut wl, scheme, la, e);
    }
    // Spend spares on lines the run is unlikely to touch, then leave the
    // chosen lines (the target's own line first) a few writes from failure.
    let to_failure =
        |dev: &NvmDevice, pa: u64| u64::from(dev.limit(pa) - dev.write_count(pa) % dev.limit(pa));
    let spares = dev.config().spare_lines();
    for i in 0..spares.saturating_sub(spares_left) {
        let pa = lines - 1 - i;
        dev.write_run(pa, to_failure(&dev, pa));
    }
    let own = wl.translate(la);
    for &(pa, slack) in [(own, near[0].1)].iter().chain(near) {
        let pa = pa % lines;
        let left = to_failure(&dev, pa);
        dev.write_run(pa, left - 1 - slack.min(left - 1));
    }
    assert!(!dev.is_dead());
    let (mut batched, mut batched_dev) = fork(scheme, &device, seed, lines, &wl, &dev);
    // A third of the cases watch wear with the telemetry probe on, which
    // a chunk must keep current.
    if seed.is_multiple_of(3) {
        dev.enable_wear_probe();
        batched_dev.enable_wear_probe();
    }

    let before = dev.wear().demand_writes;
    for _ in 0..n {
        if dev.is_dead() {
            break;
        }
        wl.write(la, &mut dev);
    }
    let done = batched.write_run(la, n, &mut batched_dev);
    let id = format!("{} la {la} n {n} {edit:?}", wl.name());
    assert_eq!(done, dev.wear().demand_writes - before, "{id}: write_run count");
    assert_eq!(batched_dev.is_dead(), dev.is_dead(), "{id}: death");
    assert_eq!(scheme_bytes(&batched), scheme_bytes(&wl), "{id}: scheme diverged");
    assert_eq!(device_bytes(&batched_dev), device_bytes(&dev), "{id}: device diverged");
    assert_eq!(batched_dev.wear_snapshot(), dev.wear_snapshot(), "{id}: wear probe diverged");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// The refresh schemes' chunks (demand runs, region sweeps and
    /// single swap writes the device proves failure-free) equal the
    /// scalar loop from random reachable states, one step before an
    /// inner or outer round wrap, and on devices with lines a few writes
    /// from failure and spares nearly gone.
    #[test]
    fn refresh_chunks_match_scalar_writes_from_random_reachable_states(
        warmup in prop::collection::vec((any::<u64>(), 1u64..600), 1..12),
        pick in any::<u64>(),
        edge in 0u8..3,
        counter in any::<u64>(),
        near in prop::collection::vec((any::<u64>(), 0u64..3), 1..12),
        spares_left in 0u64..3,
        n in 1u64..4_000,
        seed in any::<u64>(),
    ) {
        let la = if pick.is_multiple_of(2) { warmup[warmup.len() - 1].0 } else { pick };
        let huge = huge_period_schemes().into_iter().map(|s| (s, LINES));
        for (scheme, lines) in refresh_schemes().into_iter().chain(huge) {
            let edge = if matches!(scheme, SchemeSpec::SingleSr { .. }) { edge.min(1) } else { edge };
            let edit = (edge > 0).then_some(Edit { outer: edge == 2, steps_left: 1, counter });
            check_chunked_run(&scheme, lines, seed, &warmup, la % lines, edit, &near, spares_left, n);
        }
    }
}

#[test]
fn refresh_chunks_match_scalar_writes_when_rounds_outlast_u64() {
    // A round of `lines * period` writes past `u64::MAX`: runs that cross
    // a trigger, at the start of the serving level's round or one step
    // before its wrap, must be served (not stall or overflow) exactly as
    // scalar writes.
    for scheme in huge_period_schemes() {
        let (period, levels) = match scheme {
            SchemeSpec::SingleSr { period } => (period, &[false][..]),
            SchemeSpec::Tlsr { outer_period, .. } => (outer_period, &[false, true][..]),
            _ => unreachable!("not a refresh scheme"),
        };
        for &outer in levels {
            for steps_left in [u64::MAX, 1] {
                for counter in [period - 1, period - 5, u64::from(u32::MAX) - 3] {
                    let edit = Some(Edit { outer, steps_left, counter });
                    check_chunked_run(&scheme, LINES, 5, &[(9, 300)], 9, edit, &[(0, 2)], 2, 40);
                }
            }
        }
    }
}

/// A device setup for one `write_chunk` offer.
#[derive(Debug, Clone, Copy)]
enum ChunkDevice {
    /// No line near failure: most chunks apply.
    Healthy,
    /// Chosen lines (not the target's own) 0–2 writes from failure, and
    /// spares nearly gone: chunks that touch them are refused.
    NearFailure,
    /// The target's own line 0–2 writes from failure as well.
    OwnLineNearFailure,
    /// A fault plan armed (one power loss no run reaches): every chunk
    /// is refused.
    FaultArmed,
}

/// Drive `scheme` over `lines` logical lines to a reachable state,
/// optionally edit its refresh state, prepare the device as `setup`
/// says, then offer one `write_chunk(la, n)` and check its all-or-nothing
/// rule (see [`offer_one_chunk`]).
#[allow(clippy::too_many_arguments)]
fn check_write_chunk(
    scheme: &SchemeSpec,
    lines: u64,
    seed: u64,
    warmup: &[(u64, u64)],
    la: u64,
    edit: Option<Edit>,
    near: &[(u64, u64)],
    setup: ChunkDevice,
    n: u64,
) {
    let device = DeviceSpec { endurance: 3_000, banks: 1, ..Default::default() };
    let (mut wl, mut dev) = build_sized(scheme, &device, seed, lines);
    for &(target, dwell) in warmup {
        for _ in 0..dwell {
            wl.write(target % lines, &mut dev);
        }
    }
    if let Some(e) = edit {
        edit_refresh_state(&mut wl, scheme, la, e);
    }
    let near: Vec<(u64, u64)> = near.iter().map(|&(pa, slack)| (pa % lines, slack)).collect();
    let (got, quiet) = offer_one_chunk(
        scheme,
        lines,
        seed,
        &device,
        wl,
        dev,
        la,
        &near,
        setup,
        n,
        &format!("{edit:?}"),
    );
    // Single-level SR plans a chunk for every run past the next trigger,
    // so an armed device must show the refusal itself.
    if matches!(setup, ChunkDevice::FaultArmed)
        && matches!(scheme, SchemeSpec::SingleSr { .. })
        && n > quiet + 1
    {
        assert!(got.is_err(), "{}: an armed device's refusal was not reported", scheme.name());
    }
}

/// Prepare `dev` as `setup` says (the physical lines `near` and, for
/// `OwnLineNearFailure`, the target's own line 0–2 writes from failure; a
/// fault plan for `FaultArmed`), then offer one `write_chunk(la, n)` and
/// check its all-or-nothing rule: `Ok(0)` (always when `n <=
/// quiet_writes(la) + 1`) and `Err` change no scheme or device byte, and
/// `Ok(w)` equals `w` scalar writes. Returns the offer's answer and the
/// target's quiet writes before it.
#[allow(clippy::too_many_arguments)]
fn offer_one_chunk(
    scheme: &SchemeSpec,
    lines: u64,
    seed: u64,
    device: &DeviceSpec,
    mut wl: SchemeInstance,
    mut dev: NvmDevice,
    la: u64,
    near: &[(u64, u64)],
    setup: ChunkDevice,
    n: u64,
    state: &str,
) -> (Result<u64, u64>, u64) {
    let to_failure =
        |dev: &NvmDevice, pa: u64| u64::from(dev.limit(pa) - dev.write_count(pa) % dev.limit(pa));
    let own = wl.translate(la);
    let near_lines = match setup {
        ChunkDevice::Healthy | ChunkDevice::FaultArmed => &[][..],
        _ => near,
    };
    for &(pa, slack) in near_lines {
        if pa != own || matches!(setup, ChunkDevice::OwnLineNearFailure) {
            let left = to_failure(&dev, pa);
            dev.write_run(pa, left - 1 - slack.min(left - 1));
        }
    }
    if matches!(setup, ChunkDevice::OwnLineNearFailure) {
        let left = to_failure(&dev, own);
        dev.write_run(own, left - 1 - near[0].1.min(left - 1));
    }
    assert!(!dev.is_dead());
    // The scalar reference: an armed device takes no chunk, so it never
    // needs the plan.
    let (mut scalar, mut scalar_dev) = fork(scheme, device, seed, lines, &wl, &dev);
    if matches!(setup, ChunkDevice::FaultArmed) {
        let plan = FaultPlan { power_loss_at_writes: vec![u64::MAX], ..Default::default() };
        dev.install_fault_plan(&plan).unwrap();
    }
    if seed.is_multiple_of(3) {
        dev.enable_wear_probe();
        scalar_dev.enable_wear_probe();
    }

    let quiet = wl.quiet_writes(la);
    let (scheme_before, device_before) = (scheme_bytes(&wl), device_bytes(&dev));
    let got = wl.write_chunk(la, n, &mut dev);
    let id = format!("{} la {la} n {n} quiet {quiet} {setup:?} {state}: {got:?}", wl.name());
    if n <= quiet + 1 {
        assert_eq!(got, Ok(0), "{id}: a run that ends by the next trigger was chunked");
    }
    match got {
        Ok(0) | Err(_) => {
            if let Err(w) = got {
                assert!(0 < w && w <= n, "{id}: refused chunk length");
            }
            assert_eq!(scheme_bytes(&wl), scheme_before, "{id}: scheme changed");
            assert_eq!(device_bytes(&dev), device_before, "{id}: device changed");
        }
        Ok(w) => {
            assert!(w <= n, "{id}: chunk longer than the run");
            assert!(!matches!(setup, ChunkDevice::FaultArmed), "{id}: armed device took a chunk");
            for _ in 0..w {
                scalar.write(la, &mut scalar_dev);
            }
            assert!(!scalar_dev.is_dead(), "{id}: a chunk spanned a fatal write");
            assert_eq!(scheme_bytes(&wl), scheme_bytes(&scalar), "{id}: scheme diverged");
            assert_eq!(device_bytes(&dev), device_bytes(&scalar_dev), "{id}: device diverged");
            assert_eq!(dev.wear_snapshot(), scalar_dev.wear_snapshot(), "{id}: wear probe");
        }
    }
    (got, quiet)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// `write_chunk` is all or nothing from random reachable states of
    /// the refresh schemes, at round edges, next to failing lines and on
    /// fault-armed devices.
    #[test]
    fn write_chunk_is_all_or_nothing_from_random_reachable_states(
        warmup in prop::collection::vec((any::<u64>(), 1u64..600), 1..12),
        pick in any::<u64>(),
        edge in 0u8..3,
        counter in any::<u64>(),
        near in prop::collection::vec((any::<u64>(), 0u64..3), 1..12),
        setup in 0u8..4,
        n in 1u64..4_000,
        short in 0u8..2,
        seed in any::<u64>(),
    ) {
        let setup = [
            ChunkDevice::Healthy,
            ChunkDevice::NearFailure,
            ChunkDevice::OwnLineNearFailure,
            ChunkDevice::FaultArmed,
        ][usize::from(setup)];
        // Half the cases offer short runs, around the trigger gate.
        let n = if short == 0 { 1 + n % 40 } else { n };
        let la = if pick.is_multiple_of(2) { warmup[warmup.len() - 1].0 } else { pick };
        let huge = huge_period_schemes().into_iter().map(|s| (s, LINES));
        for (scheme, lines) in refresh_schemes().into_iter().chain(huge) {
            let edge = if matches!(scheme, SchemeSpec::SingleSr { .. }) { edge.min(1) } else { edge };
            let edit = (edge > 0).then_some(Edit { outer: edge == 2, steps_left: 1, counter });
            check_write_chunk(&scheme, lines, seed, &warmup, la % lines, edit, &near, setup, n);
        }
    }
}

/// The schemes whose `write_chunk` plans across migration steps (MWSR) or
/// gap moves (RBSG), each with the logical lines it runs over: the
/// default geometries, Fig. 4's smallest MWSR regions, a period of 1 with
/// regions long enough that a partial migration is many single writes,
/// odd RBSG regions, and RBSG regions of one line.
fn planned_schemes() -> Vec<(SchemeSpec, u64)> {
    vec![
        (SchemeSpec::Mwsr { region_lines: 16, period: 32 }, LINES),
        (SchemeSpec::Mwsr { region_lines: 4, period: 8 }, LINES),
        (SchemeSpec::Mwsr { region_lines: 128, period: 1 }, LINES),
        (SchemeSpec::Rbsg { regions: 4, region_lines: 128, period: 64 }, LINES),
        (SchemeSpec::Rbsg { regions: 8, region_lines: 64, period: 7 }, LINES),
        (SchemeSpec::Rbsg { regions: 5, region_lines: 103, period: 1 }, 515),
        (SchemeSpec::Rbsg { regions: 512, region_lines: 1, period: 3 }, LINES),
    ]
}

/// A state to move MWSR or RBSG to before a chunk offer. MWSR reads
/// `engine`, `rotate_next`, `victim_is_target` and `counters`; RBSG reads
/// `gap`, `left` and `counters`.
#[derive(Debug, Clone, Copy)]
struct PlanEdit {
    /// MWSR: 0 leaves the engine as the warmup left it, 1 drives it idle
    /// and 2 busy, by scalar writes to the target.
    engine: u8,
    /// MWSR: whether the next migration start takes the round-robin turn.
    rotate_next: bool,
    /// MWSR: whether the round-robin victim is the target's own region.
    victim_is_target: bool,
    /// When `Some`, the target region's trigger counter (modulo the
    /// period); MWSR also seeds the other regions' counters from it.
    counters: Option<u64>,
    /// RBSG: 0 leaves the gap as it is, 1 puts it at slot 0 (a chunk's
    /// destinations wrap), 2 leaves `left` moves in the round, and 3 does
    /// both.
    gap: u8,
    /// RBSG: moves left in the round for `gap` 2 and 3 (clamped to
    /// `1..=region_lines`).
    left: u64,
}

/// MWSR's engine as its checkpoint shows it: whether a migration is in
/// flight, and the spare region (the target of the migration in flight
/// or of the next one).
fn mwsr_engine(wl: &SchemeInstance) -> (bool, u64) {
    let bytes = scheme_bytes(wl);
    let mut r = sawl_ckpt::Reader::new(&bytes);
    r.get_u8().unwrap();
    let regions = r.get_u64().unwrap();
    for _ in 0..2 * regions + 2 {
        r.get_u32().unwrap();
    }
    let busy = r.get_opt_u64().unwrap().is_some();
    r.get_u64().unwrap();
    (busy, u64::from(r.get_u32().unwrap()))
}

/// Apply `e` to MWSR or RBSG serving `la`, through scalar writes to `la`
/// (MWSR's engine) and edits of the checkpoint's free fields: trigger
/// counters, the round-robin turn and victim, and RBSG's gap and round.
fn edit_planned_state(
    wl: &mut SchemeInstance,
    dev: &mut NvmDevice,
    scheme: &SchemeSpec,
    la: u64,
    e: PlanEdit,
) {
    if let SchemeSpec::Mwsr { .. } = scheme {
        while e.engine > 0 && mwsr_engine(wl).0 != (e.engine == 2) {
            wl.write(la, dev);
        }
    }
    let mix =
        |i: u64| (e.counters.unwrap_or(0) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).rotate_left(29);
    let bytes = scheme_bytes(wl);
    let mut r = sawl_ckpt::Reader::new(&bytes);
    let mut w = sawl_ckpt::Writer::new();
    w.put_u8(r.get_u8().unwrap());
    match *scheme {
        SchemeSpec::Mwsr { region_lines, period } => {
            let regions = r.get_u64().unwrap();
            w.put_u64(regions);
            for _ in 0..2 * regions + 2 {
                w.put_u32(r.get_u32().unwrap());
            }
            w.put_opt_u64(r.get_opt_u64().unwrap());
            w.put_u64(r.get_u64().unwrap());
            w.put_u32(r.get_u32().unwrap());
            let mut ctr = r.get_u32_vec().unwrap();
            if let Some(c) = e.counters {
                for (i, v) in ctr.iter_mut().enumerate() {
                    *v = (mix(i as u64) % period) as u32;
                }
                ctr[(la / region_lines) as usize] = (c % period) as u32;
            }
            w.put_u32_slice(&ctr);
            w.put_rng(r.get_rng().unwrap());
            w.put_u64(r.get_u64().unwrap());
            r.get_bool().unwrap();
            w.put_bool(e.rotate_next);
            let victim = r.get_u32().unwrap();
            w.put_u32(if e.victim_is_target { (la / region_lines) as u32 } else { victim });
        }
        SchemeSpec::Rbsg { region_lines, period, .. } => {
            w.put_u64(r.get_u64().unwrap());
            let regions = r.get_u64().unwrap();
            w.put_u64(regions);
            let m = region_lines + 1;
            for i in 0..regions {
                let (mut rounds, mut gap, mut writes) =
                    (r.get_u64().unwrap(), r.get_u64().unwrap(), r.get_u64().unwrap());
                if i == la / region_lines {
                    let left = e.left.clamp(1, region_lines);
                    match e.gap {
                        // Rounds past 0 keep slot 0 clear of the one gap
                        // position no write reaches.
                        1 => (rounds, gap) = (rounds.max(1), 0),
                        2 => gap = (region_lines + rounds + 1 + left) % m,
                        3 => (rounds, gap) = (m - left, 0),
                        _ => {}
                    }
                    if let Some(c) = e.counters {
                        writes = c % period;
                    }
                }
                w.put_u64(rounds);
                w.put_u64(gap);
                w.put_u64(writes);
            }
        }
        _ => unreachable!("not a planning scheme"),
    }
    let bytes = w.into_payload();
    let mut r2 = sawl_ckpt::Reader::new(&bytes);
    wl.ckpt_restore(&mut r2).unwrap();
    r2.finish().unwrap();
}

/// Drive `scheme` to a reachable state, apply `edit`, then bring the
/// `near` lines close to failure — the even-indexed ones inside the lines
/// a chunk sweeps (MWSR's spare region, the target's RBSG region) — and
/// offer one `write_chunk(la, n)` (see [`offer_one_chunk`]).
#[allow(clippy::too_many_arguments)]
fn check_planned_chunk(
    scheme: &SchemeSpec,
    lines: u64,
    seed: u64,
    warmup: &[(u64, u64)],
    la: u64,
    edit: PlanEdit,
    near: &[(u64, u64)],
    setup: ChunkDevice,
    n: u64,
) {
    let device = DeviceSpec { endurance: 3_000, banks: 1, ..Default::default() };
    let (mut wl, mut dev) = build_sized(scheme, &device, seed, lines);
    for &(target, dwell) in warmup {
        for _ in 0..dwell {
            wl.write(target % lines, &mut dev);
        }
    }
    edit_planned_state(&mut wl, &mut dev, scheme, la, edit);
    let (zone, span) = match *scheme {
        SchemeSpec::Mwsr { region_lines, .. } => (mwsr_engine(&wl).1 * region_lines, region_lines),
        SchemeSpec::Rbsg { region_lines, .. } => {
            (la / region_lines * (region_lines + 1), region_lines + 1)
        }
        _ => unreachable!("not a planning scheme"),
    };
    let near: Vec<(u64, u64)> = near
        .iter()
        .enumerate()
        .map(|(i, &(pa, slack))| {
            (if i % 2 == 0 { zone + pa % span } else { pa % dev.lines() }, slack)
        })
        .collect();
    let (got, quiet) = offer_one_chunk(
        scheme,
        lines,
        seed,
        &device,
        wl,
        dev,
        la,
        &near,
        setup,
        n,
        &format!("{edit:?}"),
    );
    // Both schemes plan a chunk for every run past the next trigger.
    if matches!(setup, ChunkDevice::FaultArmed) && n > quiet + 1 {
        assert!(got.is_err(), "{}: an armed device's refusal was not reported", scheme.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// MWSR's and RBSG's chunks are all or nothing from random reachable
    /// states: MWSR mid-migration and idle with either round-robin turn
    /// next, its victim the target's own region, and other regions'
    /// counters anywhere in their period; RBSG with the gap at slot 0 (so
    /// a chunk's gap moves wrap) and with its round ending inside the
    /// chunk. Devices have lines near failure where the chunk writes, a
    /// fault plan armed, or the wear probe on.
    #[test]
    fn planned_chunks_are_all_or_nothing_from_random_reachable_states(
        warmup in prop::collection::vec((any::<u64>(), 1u64..600), 1..12),
        pick in any::<u64>(),
        engine in 0u8..3,
        rotate_next in any::<bool>(),
        victim_is_target in any::<bool>(),
        counters in any::<u64>(),
        set_counters in any::<bool>(),
        gap in 0u8..4,
        left in 1u64..5,
        near in prop::collection::vec((any::<u64>(), 0u64..3), 1..12),
        setup in 0u8..4,
        n in 1u64..4_000,
        short in 0u8..2,
        seed in any::<u64>(),
    ) {
        let setup = [
            ChunkDevice::Healthy,
            ChunkDevice::NearFailure,
            ChunkDevice::OwnLineNearFailure,
            ChunkDevice::FaultArmed,
        ][usize::from(setup)];
        // Half the cases offer short runs, around the trigger gate.
        let n = if short == 0 { 1 + n % 40 } else { n };
        let la = if pick.is_multiple_of(2) { warmup[warmup.len() - 1].0 } else { pick };
        let counters = set_counters.then_some(counters);
        let edit = PlanEdit { engine, rotate_next, victim_is_target, counters, gap, left };
        for (scheme, lines) in planned_schemes() {
            check_planned_chunk(&scheme, lines, seed, &warmup, la % lines, edit, &near, setup, n);
        }
    }
}

#[test]
fn planned_chunks_serve_runs_when_periods_are_huge() {
    // RBSG with a period near `u64::MAX`, where the distance to a chunk's
    // end overflows `u64`, and MWSR at its 32-bit counter limit: runs that
    // cross a trigger must be served as one exact chunk, not stall or
    // overflow.
    let schemes = [
        (SchemeSpec::Rbsg { regions: 4, region_lines: 128, period: u64::MAX - 1 }, u64::MAX - 1),
        (SchemeSpec::Mwsr { region_lines: 16, period: u64::from(u32::MAX) }, u64::from(u32::MAX)),
    ];
    for (scheme, period) in schemes {
        for back in [1u64, 2, 5] {
            for n in [back, back + 1, 40] {
                let edit = PlanEdit {
                    engine: 0,
                    rotate_next: false,
                    victim_is_target: false,
                    counters: Some(period - back),
                    gap: 0,
                    left: 1,
                };
                for setup in [ChunkDevice::Healthy, ChunkDevice::FaultArmed] {
                    let near = [(0, 2)];
                    check_planned_chunk(&scheme, LINES, 5, &[(9, 300)], 9, edit, &near, setup, n);
                }
            }
        }
    }
}
