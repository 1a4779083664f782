//! Property tests of the telemetry pipeline: sampled rates stay in
//! [0, 1], counters are monotone, and the device's incremental wear
//! probe agrees with a full O(lines) recompute at every sampled stride.

use proptest::prelude::*;

use sawl_algos::WearLeveler;
use sawl_simctl::{
    run_lifetime, stable_seed, Channel, DeviceSpec, LifetimeExperiment, SchemeSpec, TelemetryRun,
    TelemetrySpec, WorkloadSpec,
};
use sawl_trace::AddressStream;

fn workload_for(pick: u64) -> WorkloadSpec {
    if pick == 0 {
        WorkloadSpec::Bpa { writes_per_target: 512 }
    } else {
        WorkloadSpec::Uniform { write_ratio: 0.7 }
    }
}

fn experiment(tag: u64, stride: u64, workload: u64, scheme: SchemeSpec) -> LifetimeExperiment {
    LifetimeExperiment {
        id: format!("props/{}/{tag}/{stride}/{workload}", scheme.name()),
        scheme,
        workload: workload_for(workload),
        data_lines: 1 << 9,
        device: DeviceSpec { endurance: 200, ..Default::default() },
        max_demand_writes: 20_000,
        fault: None,
        telemetry: Some(TelemetrySpec::with_stride(stride)),
        timing: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn rates_stay_in_unit_interval_and_counters_are_monotone(
        tag in 0u64..1 << 16,
        stride in 1u64..2_000,
        workload in 0u64..2,
    ) {
        let e = experiment(tag, stride, workload, SchemeSpec::sawl_default(64));
        let series = run_lifetime(&e).unwrap().telemetry.expect("series requested");
        assert!(!series.samples.is_empty(), "20k writes at stride <2k must sample");

        for point in &series.samples {
            for ch in [Channel::CmtHitRate, Channel::CmtWindowedHitRate, Channel::CmtHotHalfShare]
            {
                let v = point.gauge(ch).expect("SAWL reports all hit-rate gauges");
                assert!((0.0..=1.0).contains(&v), "{ch:?} = {v} out of range at {}", point.requests);
            }
        }
        for pair in series.samples.windows(2) {
            for (ch, v) in &pair[1].counters {
                let prev = pair[0].counter(*ch).expect("channel sets never shrink");
                assert!(*v >= prev, "{ch:?} decreased: {prev} -> {v}");
            }
            assert!(pair[1].requests > pair[0].requests);
        }
    }

    #[test]
    fn incremental_wear_gauges_match_full_recompute_at_every_stride(
        tag in 0u64..1 << 16,
        stride in 1u64..1_500,
        workload in 0u64..2,
    ) {
        // Scalar drive: after every demand write, advance the recorder and
        // — at each boundary — recompute the wear distribution from the
        // raw per-line counts. The incremental probe must agree.
        let e = experiment(tag, stride, workload, SchemeSpec::PcmS { region_lines: 16, period: 32 });
        let seed = stable_seed(&e.id);
        let phys = e.scheme.physical_lines(e.data_lines);
        let mut wl = e.scheme.instantiate(e.data_lines, seed);
        let mut dev = e.device.build(phys, seed);
        let mut run = TelemetryRun::new(&e.id, e.telemetry.as_ref().unwrap());
        run.attach(&mut wl, &mut dev);
        let mut stream = e.workload.build(wl.logical_lines(), seed);

        let mut expected = Vec::new();
        let mut served = 0u64;
        while !dev.is_dead() && dev.wear().demand_writes < e.max_demand_writes {
            let req = stream.next_req();
            if !req.write {
                continue;
            }
            wl.write(req.la, &mut dev);
            run.note_served(1, &wl, &dev);
            served += 1;
            if served.is_multiple_of(stride) {
                expected.push(dev.wear_stats());
            }
        }
        let series = run.finish(&mut wl);

        assert_eq!(series.samples.len(), expected.len());
        for (point, full) in series.samples.iter().zip(&expected) {
            let cov = point.gauge(Channel::WearCov).expect("probe attached");
            let mean = point.gauge(Channel::WearMean).expect("probe attached");
            let max = point.counter(Channel::WearMax).expect("probe attached");
            assert!((cov - full.cov).abs() < 1e-9, "cov {cov} vs full {}", full.cov);
            assert!((mean - full.mean).abs() < 1e-9, "mean {mean} vs full {}", full.mean);
            assert_eq!(max, u64::from(full.max));
        }
    }
}
