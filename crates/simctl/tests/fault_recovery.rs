//! Fault-injection and crash-recovery integration: power losses injected
//! into full lifetime runs and directly into SAWL's journaled operations
//! (merge / split / exchange), followed by `recover()` and a full
//! invariant check — the acceptance path for the fault layer.

use sawl_core::{Sawl, SawlConfig};
use sawl_nvm::{FaultPlan, NvmConfig, NvmDevice};
use sawl_simctl::{
    run_lifetime, Channel, DeviceSpec, FaultCounters, LifetimeExperiment, SchemeSpec,
    TelemetrySpec, TimingSpec, WorkloadSpec,
};

fn sawl_small() -> Sawl {
    Sawl::new(SawlConfig {
        data_lines: 1 << 10,
        initial_granularity: 4,
        max_granularity: 64,
        cmt_entries: 64,
        swap_period: 16,
        seed: 7,
        ..SawlConfig::default()
    })
}

fn device_for(sawl: &Sawl) -> NvmDevice {
    NvmDevice::new(
        NvmConfig::builder()
            .lines(sawl.required_physical_lines())
            .banks(1)
            .endurance(u32::MAX)
            .build()
            .unwrap(),
    )
}

/// Schedule a power loss `writes_ahead` total writes from now.
fn crash_in(dev: &mut NvmDevice, writes_ahead: u64) {
    dev.install_fault_plan(&FaultPlan {
        power_loss_at_writes: vec![dev.wear().total_writes + writes_ahead],
        ..FaultPlan::default()
    })
    .unwrap();
}

#[test]
fn sawl_lifetime_survives_dense_power_losses_and_faults() {
    let exp = LifetimeExperiment {
        id: "fault/lifetime-sawl".into(),
        scheme: SchemeSpec::sawl_default(512),
        workload: WorkloadSpec::Bpa { writes_per_target: 512 },
        data_lines: 1 << 10,
        device: DeviceSpec { endurance: 1_000_000, ..Default::default() },
        max_demand_writes: 80_000,
        fault: Some(FaultPlan {
            stuck_lines: vec![5, 100],
            transient_rate: 0.0005,
            power_loss_at_writes: vec![5_000, 20_000, 45_000, 70_000, 90_000],
            seed: 13,
        }),
        telemetry: None,
        timing: None,
    };
    let r = run_lifetime(&exp).unwrap();
    assert_eq!(r.demand_writes, 80_000, "run must complete despite the crashes");
    assert_eq!(r.stuck_lines_remapped, 2);
    assert!(r.transient_faults > 0, "transient rate 5e-4 over >80k writes must fire");
    assert!(r.power_losses >= 4, "expected dense crashes, saw {}", r.power_losses);
    assert_eq!(r.recoveries, r.power_losses, "every crash must be recovered");
    assert!(r.spares_remaining < 1 << 4, "stuck lines consume spares");
    // Reproducible: faults are part of the deterministic configuration.
    assert_eq!(r, run_lifetime(&exp).unwrap());
}

#[test]
fn power_loss_mid_merge_replays_and_passes_invariants() {
    let mut sawl = sawl_small();
    let mut dev = device_for(&sawl);

    // A merge journals its updates, then pays the translation-line write
    // and the 2Q-line data recharge. Crash a few writes in: the journaled
    // update has landed, so recovery must roll the merge forward.
    crash_in(&mut dev, 3);
    let merged = sawl.merge(0, &mut dev);
    assert!(!merged, "the crash interrupts the merge");
    assert!(dev.power_lost());
    assert!(sawl.journal().has_pending());

    let rec = sawl.recover(&mut dev);
    assert!(rec.complete);
    assert!(rec.replayed, "a landed update must be rolled forward");
    assert!(!rec.rolled_back);
    assert!(!dev.power_lost());
    assert!(!sawl.journal().has_pending());
    assert_eq!(sawl.journal().replays(), 1);
    sawl.check_invariants();

    // The merged region exists: its entry covers 8 lines.
    use sawl_algos::WearLeveler;
    let before: Vec<u64> = (0..sawl.logical_lines()).map(|la| sawl.translate(la)).collect();

    // Recovery is idempotent: a second recover() on the healthy state is
    // clean and moves nothing.
    let rec2 = sawl.recover(&mut dev);
    assert!(rec2.complete && !rec2.replayed && !rec2.rolled_back);
    sawl.check_invariants();
    let after: Vec<u64> = (0..sawl.logical_lines()).map(|la| sawl.translate(la)).collect();
    assert_eq!(before, after);
}

#[test]
fn power_loss_exactly_on_the_journal_land_boundary() {
    use sawl_algos::WearLeveler;

    // Count the merge's device writes on a fault-free twin: W writes
    // from journal record to final data recharge, then the commit.
    let mut reference = sawl_small();
    let mut ref_dev = device_for(&reference);
    let before = ref_dev.wear().total_writes;
    assert!(reference.merge(0, &mut ref_dev));
    let w = ref_dev.wear().total_writes - before;
    assert!(w > 2, "a merge must pay translation + recharge writes, saw {w}");

    // Crash on the merge's final write (1-based index W): every earlier
    // journaled update has landed, so recovery rolls the record forward.
    let mut sawl = sawl_small();
    let mut dev = device_for(&sawl);
    crash_in(&mut dev, w - 1);
    assert!(!sawl.merge(0, &mut dev), "the crash interrupts the last write");
    assert!(sawl.journal().has_pending());
    let rec = sawl.recover(&mut dev);
    assert!(rec.complete && rec.replayed && !rec.rolled_back, "{rec:?}");
    sawl.check_invariants();
    let replayed: Vec<u64> = (0..sawl.logical_lines()).map(|la| sawl.translate(la)).collect();
    let committed: Vec<u64> =
        (0..reference.logical_lines()).map(|la| reference.translate(la)).collect();
    assert_eq!(replayed, committed, "replay must converge on the committed merge");

    // One write later the merge lands in full and commits before the
    // lights go out: recovery finds a clean journal and moves nothing.
    let mut sawl = sawl_small();
    let mut dev = device_for(&sawl);
    crash_in(&mut dev, w);
    assert!(sawl.merge(0, &mut dev), "the power loss lands after the commit");
    assert!(!sawl.journal().has_pending());
    dev.write(0); // a raw device write fires the scheduled loss
    assert!(dev.power_lost());
    let rec = sawl.recover(&mut dev);
    assert!(rec.complete && !rec.replayed && !rec.rolled_back, "{rec:?}");
    sawl.check_invariants();
}

#[test]
fn power_loss_before_split_lands_rolls_back() {
    let mut sawl = sawl_small();
    let mut dev = device_for(&sawl);

    // Merge once (fault-free) so there is a region to split back down.
    assert!(sawl.merge(0, &mut dev));
    use sawl_algos::WearLeveler;
    let before: Vec<u64> = (0..sawl.logical_lines()).map(|la| sawl.translate(la)).collect();

    // Crash on the split's *first* write: no journaled update lands, so
    // recovery must discard the record and keep the pre-split mapping.
    crash_in(&mut dev, 0);
    assert!(!sawl.split(0, &mut dev));
    assert!(sawl.journal().has_pending());

    let rec = sawl.recover(&mut dev);
    assert!(rec.complete);
    assert!(rec.rolled_back, "nothing landed: the split must be rolled back");
    assert!(!rec.replayed);
    assert_eq!(sawl.journal().rollbacks(), 1);
    sawl.check_invariants();
    let after: Vec<u64> = (0..sawl.logical_lines()).map(|la| sawl.translate(la)).collect();
    assert_eq!(before, after, "a rolled-back split must not move any line");
}

#[test]
fn power_loss_mid_exchange_replays_and_translation_stays_injective() {
    let mut sawl = sawl_small();
    let mut dev = device_for(&sawl);

    crash_in(&mut dev, 2);
    sawl.exchange(64, &mut dev);
    assert!(dev.power_lost());
    assert!(sawl.journal().has_pending());

    let rec = sawl.recover(&mut dev);
    assert!(rec.complete && rec.replayed);
    sawl.check_invariants();

    use sawl_algos::WearLeveler;
    let mut seen = std::collections::HashSet::new();
    for la in 0..sawl.logical_lines() {
        assert!(seen.insert(sawl.translate(la)), "translation lost injectivity at {la}");
    }
}

#[test]
fn chained_power_losses_during_recovery_eventually_complete() {
    let mut sawl = sawl_small();
    let mut dev = device_for(&sawl);

    // First crash interrupts the merge; the next two events are spaced so
    // tightly that they also interrupt the recovery's own replay writes.
    let t = dev.wear().total_writes;
    dev.install_fault_plan(&FaultPlan {
        power_loss_at_writes: vec![t + 3, t + 4, t + 5],
        ..FaultPlan::default()
    })
    .unwrap();
    assert!(!sawl.merge(0, &mut dev));

    let mut rounds = 0;
    loop {
        let rec = sawl.recover(&mut dev);
        rounds += 1;
        if rec.complete {
            break;
        }
        assert!(rounds < 16, "recovery failed to converge");
    }
    assert!(rounds >= 2, "the chained events must interrupt at least one replay");
    assert!(!sawl.journal().has_pending());
    sawl.check_invariants();
    let f: FaultCounters = dev.fault_counters();
    assert_eq!(f.power_losses, 3);
    assert_eq!(f.power_restores, 3);
}

/// Every `SchemeSpec` variant, sized for a 2^9-line device (the list of
/// `quiet_contract.rs`).
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

/// A timed run under dense power losses serves every demand write through
/// the timing model and the telemetry clock exactly once, including a
/// write that lands just before a loss interrupts its own data movement.
#[test]
fn fault_armed_timed_runs_observe_every_served_write() {
    let workloads =
        [WorkloadSpec::Bpa { writes_per_target: 100 }, WorkloadSpec::Uniform { write_ratio: 0.7 }];
    for scheme in all_schemes() {
        for workload in &workloads {
            let exp = LifetimeExperiment {
                id: format!("fault/timed/{}/{}", scheme.name(), workload.name()),
                scheme: scheme.clone(),
                workload: workload.clone(),
                data_lines: 1 << 9,
                device: DeviceSpec { endurance: 1_000_000, ..Default::default() },
                max_demand_writes: 30_000,
                fault: Some(FaultPlan {
                    power_loss_at_writes: (1..300).map(|i| i * 113).collect(),
                    ..FaultPlan::default()
                }),
                telemetry: Some(TelemetrySpec::with_stride(997)),
                timing: Some(TimingSpec::default()),
            };
            let r = run_lifetime(&exp).unwrap();
            assert!(r.power_losses > 0, "{}: the schedule must fire", exp.id);
            let latency = r.latency.as_ref().unwrap();
            assert_eq!(latency.requests, r.demand_writes, "{}: timing missed writes", exp.id);
            let series = r.telemetry.as_ref().unwrap();
            assert!(!series.samples.is_empty(), "{}", exp.id);
            for s in &series.samples {
                assert_eq!(
                    s.counter(Channel::DemandWrites),
                    Some(s.requests),
                    "{}: telemetry clock drifted from the demand counter",
                    exp.id
                );
            }
        }
    }
}

/// A write that a power loss dropped must not count toward a refresh
/// trigger, whichever path serves it: timed runs serve fault-armed writes
/// one `write` at a time, untimed runs batch through `write_run`, and the
/// two must end in the same report.
#[test]
fn refresh_schemes_count_only_applied_writes_timed_and_untimed() {
    for scheme in [
        SchemeSpec::SingleSr { period: 32 },
        SchemeSpec::Tlsr { region_lines: 64, inner_period: 8, outer_period: 32 },
    ] {
        let exp = |timing| LifetimeExperiment {
            id: format!("fault/refresh-power/{}", scheme.name()),
            scheme: scheme.clone(),
            workload: WorkloadSpec::Bpa { writes_per_target: 512 },
            data_lines: 1 << 12,
            device: DeviceSpec::default(),
            max_demand_writes: 100_000,
            fault: Some(FaultPlan {
                power_loss_at_writes: (1..5_000).map(|i| i * 31).collect(),
                ..FaultPlan::default()
            }),
            telemetry: None,
            timing,
        };
        let untimed = run_lifetime(&exp(None)).unwrap();
        let mut timed = run_lifetime(&exp(Some(TimingSpec::default()))).unwrap();
        assert!(untimed.power_losses > 1_000, "{}: the schedule must fire", untimed.id);
        assert!(timed.latency.take().is_some());
        assert_eq!(timed, untimed, "{}: timed and untimed runs diverged", untimed.id);
    }
}

/// Every scheme's trigger accounting skips a write that a power loss
/// dropped, on the scalar `write` path (timed, fault-armed) as on the
/// batched `write_run` path (untimed): the two runs end in the same report.
#[test]
fn every_scheme_counts_only_applied_writes_timed_and_untimed() {
    for scheme in [
        SchemeSpec::Baseline,
        SchemeSpec::Ideal,
        SchemeSpec::SegmentSwap { segment_lines: 64, swap_period: 128 },
        SchemeSpec::Rbsg { regions: 4, region_lines: 1024, period: 64 },
        SchemeSpec::SingleSr { period: 32 },
        SchemeSpec::Tlsr { region_lines: 64, inner_period: 8, outer_period: 32 },
        SchemeSpec::PcmS { region_lines: 16, period: 32 },
        SchemeSpec::Mwsr { region_lines: 16, period: 32 },
        SchemeSpec::Nwl { granularity: 4, cmt_entries: 64, swap_period: 16 },
        SchemeSpec::sawl_default(64),
    ] {
        let exp = |timing| LifetimeExperiment {
            id: format!("fault/every-scheme-power/{}", scheme.name()),
            scheme: scheme.clone(),
            workload: WorkloadSpec::Bpa { writes_per_target: 512 },
            data_lines: 1 << 12,
            device: DeviceSpec::default(),
            max_demand_writes: 50_000,
            fault: Some(FaultPlan {
                power_loss_at_writes: (1..3_000).map(|i| i * 31).collect(),
                ..FaultPlan::default()
            }),
            telemetry: None,
            timing,
        };
        let untimed = run_lifetime(&exp(None)).unwrap();
        let mut timed = run_lifetime(&exp(Some(TimingSpec::default()))).unwrap();
        assert!(untimed.power_losses > 500, "{}: the schedule must fire", untimed.id);
        assert!(timed.latency.take().is_some());
        assert_eq!(timed, untimed, "{}: timed and untimed runs diverged", untimed.id);
    }
}
