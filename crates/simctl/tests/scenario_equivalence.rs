//! Experiment-level bit-equivalence of the batched block pump.
//!
//! The driver's block pump pre-generates requests in 4096-request batches
//! and checks death/cap after every write; these tests pin down that the
//! resulting `LifetimeResult` is **identical** — every field, including
//! the wear-distribution statistics — to a scalar `next_req`-driven
//! reference loop, for every scheme variant under both a mixed
//! read/write workload (Uniform) and the write-only attack the paper
//! centers on (BPA).

use sawl_algos::WearLeveler;
use sawl_simctl::{
    feed_observation, run_lifetime, stable_seed, DeviceSpec, DiurnalPhase, FaultPlan,
    LifetimeExperiment, LifetimeResult, SchemeSpec, WorkloadSpec, BLOCK,
};
use sawl_trace::AddressStream;

/// Scalar reference: `run_lifetime` with the pump replaced by the
/// one-request-at-a-time loop the driver used before block pumping.
///
/// Observation-driven workloads (GC feedback) see device wear through
/// the same hook the block pump uses, fed at the same request offsets —
/// immediately before request 0, [`BLOCK`], 2×[`BLOCK`], … — because the
/// pump observes once per block pull and the protocol freezes feedback
/// in between. That makes the scalar loop a true reference even for
/// closed-loop streams.
fn scalar_lifetime(exp: &LifetimeExperiment) -> LifetimeResult {
    let seed = stable_seed(&exp.id);
    let phys = exp.scheme.physical_lines(exp.data_lines);
    let mut wl = exp.scheme.instantiate(exp.data_lines, seed);
    let mut dev = exp.device.build(phys, seed);
    if let Some(plan) = &exp.fault {
        // The scalar reference only supports plans without power losses
        // (it has no recovery loop); the zero-fault guard below needs
        // exactly that.
        dev.install_fault_plan(plan).unwrap();
    }
    let mut stream = exp.workload.try_build(wl.logical_lines(), seed).unwrap();
    let workload = stream.name().to_string();
    let cap = if exp.max_demand_writes == 0 {
        4 * dev.config().ideal_lifetime_writes()
    } else {
        exp.max_demand_writes
    };

    let mut pulled: u64 = 0;
    while !dev.is_dead() && dev.wear().demand_writes < cap {
        if pulled.is_multiple_of(BLOCK as u64) {
            feed_observation(stream.as_mut(), &mut dev);
        }
        pulled += 1;
        let req = stream.next_req();
        if !req.write {
            continue;
        }
        wl.write(req.la, &mut dev);
    }

    let wear = *dev.wear();
    let stats = dev.wear_stats();
    let faults = dev.fault_counters();
    let ideal = exp.data_lines as f64 * f64::from(exp.device.endurance);
    LifetimeResult {
        id: exp.id.clone(),
        scheme: exp.scheme.name(),
        workload,
        normalized_lifetime: wear.demand_writes as f64 / ideal,
        demand_writes: wear.demand_writes,
        overhead_writes: wear.overhead_writes,
        overhead_fraction: if wear.demand_writes == 0 {
            0.0
        } else {
            wear.overhead_writes as f64 / wear.demand_writes as f64
        },
        device_died: dev.is_dead(),
        wear_cov: stats.cov,
        wear_gini: stats.gini,
        stuck_lines_remapped: faults.stuck_lines_remapped,
        transient_faults: faults.transient_write_faults,
        power_losses: faults.power_losses,
        recoveries: 0,
        journal_replays: 0,
        journal_rollbacks: 0,
        spares_remaining: dev.spares_remaining(),
        telemetry: None,
        latency: None,
    }
}

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

#[test]
fn batched_lifetime_matches_scalar_reference_for_every_scheme() {
    for scheme in all_schemes() {
        for workload in [
            WorkloadSpec::Uniform { write_ratio: 0.5 },
            WorkloadSpec::Bpa { writes_per_target: 512 },
        ] {
            let exp = LifetimeExperiment {
                id: format!("equiv/{}/{}", scheme.name(), workload.name()),
                scheme: scheme.clone(),
                workload,
                data_lines: 1 << 9,
                device: DeviceSpec { endurance: 200, ..Default::default() },
                max_demand_writes: 0,
                fault: None,
                telemetry: None,
                timing: None,
            };
            let batched = run_lifetime(&exp).unwrap();
            let scalar = scalar_lifetime(&exp);
            assert_eq!(batched, scalar, "batched pump diverged from scalar for {}", exp.id);
        }
    }
}

#[test]
fn batched_lifetime_matches_scalar_reference_under_raa_and_variation() {
    // RAA is the extreme run-batching case — an endless write run to one
    // address, so every 4096-request block collapses into a single
    // `write_run` call — and Gaussian endurance variation makes the
    // device-side countdown math heterogeneous across lines. Together
    // they pin the batched path's behavior at line-failure and death
    // boundaries that land mid-run.
    for scheme in all_schemes() {
        let exp = LifetimeExperiment {
            id: format!("equiv-raa/{}", scheme.name()),
            scheme,
            workload: WorkloadSpec::Raa,
            data_lines: 1 << 9,
            device: DeviceSpec {
                endurance: 200,
                variation: sawl_nvm::EnduranceModel::Gaussian { cov: 0.2 },
                ..Default::default()
            },
            max_demand_writes: 0,
            fault: None,
            telemetry: None,
            timing: None,
        };
        let batched = run_lifetime(&exp).unwrap();
        let scalar = scalar_lifetime(&exp);
        assert_eq!(batched, scalar, "batched pump diverged from scalar for {}", exp.id);
    }
}

#[test]
fn tlsr_batched_write_run_matches_scalar_across_parameter_grid() {
    // TLSR's `write_run` collapses a whole inner/outer refresh window —
    // one translation plus one device run per window, including the
    // window's first write. These cases pin that restructuring against the
    // scalar loop where windows interact awkwardly with run boundaries:
    // dwells shorter than, equal to, and much longer than both periods,
    // inner/outer period ratios from 2 to 64, and a single-region
    // geometry where the outer level is degenerate.
    let grids = [
        (64u64, 2u64, 4u64), // tiny windows: a step almost every write
        (64, 8, 512),        // wide outer: inner steps dominate
        (128, 64, 128),      // window == common BPA dwell sizes
        (512, 16, 64),       // single region: outer mapping degenerate
    ];
    let dwells = [3u64, 16, 512, 5_000];
    for (region_lines, inner_period, outer_period) in grids {
        for dwell in dwells {
            let exp = LifetimeExperiment {
                id: format!("equiv-tlsr/{region_lines}-{inner_period}-{outer_period}/{dwell}"),
                scheme: SchemeSpec::Tlsr { region_lines, inner_period, outer_period },
                workload: WorkloadSpec::Bpa { writes_per_target: dwell },
                data_lines: 1 << 9,
                device: DeviceSpec { endurance: 200, ..Default::default() },
                max_demand_writes: 0,
                fault: None,
                telemetry: None,
                timing: None,
            };
            let batched = run_lifetime(&exp).unwrap();
            let scalar = scalar_lifetime(&exp);
            assert_eq!(batched, scalar, "batched TLSR diverged from scalar for {}", exp.id);
        }
    }
}

#[test]
fn single_sr_batched_write_run_matches_scalar_across_periods() {
    // The single-level refresh shares TLSR's window-collapsing
    // `write_run`; sweep the period against a fixed awkward dwell and
    // under Gaussian endurance variation so failures land mid-window.
    for period in [1u64, 2, 7, 32, 513] {
        let exp = LifetimeExperiment {
            id: format!("equiv-sr/{period}"),
            scheme: SchemeSpec::SingleSr { period },
            workload: WorkloadSpec::Bpa { writes_per_target: 96 },
            data_lines: 1 << 9,
            device: DeviceSpec {
                endurance: 200,
                variation: sawl_nvm::EnduranceModel::Gaussian { cov: 0.2 },
                ..Default::default()
            },
            max_demand_writes: 0,
            fault: None,
            telemetry: None,
            timing: None,
        };
        let batched = run_lifetime(&exp).unwrap();
        let scalar = scalar_lifetime(&exp);
        assert_eq!(batched, scalar, "batched SR diverged from scalar for {}", exp.id);
    }
}

#[test]
fn refresh_chunks_match_scalar_on_a_long_lived_device() {
    // At endurance 200 almost no chunk of the refresh schemes can be
    // proven failure-free, so the grids above mostly exercise the window
    // fallback. Here lines live 20 000 writes (with Gaussian variation),
    // so dwells are served as chunks (demand runs, whole-region sweeps
    // and single swap writes) and fall back only near failures; runs go
    // both to death and to a cap in mid-life. With 512-line regions and
    // an inner period well below the outer one, chunks stop at the cap on
    // a partial inner round and drop outer swaps gathered past it.
    let schemes = [
        SchemeSpec::Tlsr { region_lines: 64, inner_period: 8, outer_period: 32 },
        SchemeSpec::Tlsr { region_lines: 16, inner_period: 2, outer_period: 4 },
        SchemeSpec::Tlsr { region_lines: 512, inner_period: 2, outer_period: 64 },
        SchemeSpec::SingleSr { period: 32 },
        SchemeSpec::SingleSr { period: 513 },
    ];
    for scheme in schemes {
        for dwell in [2_048u64, 5_000] {
            for cap in [0u64, 15_000_003] {
                let exp = LifetimeExperiment {
                    id: format!("equiv-chunks/{}/{dwell}/{cap}", scheme.name()),
                    scheme: scheme.clone(),
                    workload: WorkloadSpec::Bpa { writes_per_target: dwell },
                    data_lines: 1 << 12,
                    device: DeviceSpec {
                        endurance: 20_000,
                        variation: sawl_nvm::EnduranceModel::Gaussian { cov: 0.2 },
                        ..Default::default()
                    },
                    max_demand_writes: cap,
                    fault: None,
                    telemetry: None,
                    timing: None,
                };
                let batched = run_lifetime(&exp).unwrap();
                assert_eq!(batched.device_died, cap == 0, "{}", exp.id);
                let scalar = scalar_lifetime(&exp);
                assert_eq!(batched, scalar, "chunked run diverged from scalar for {}", exp.id);
            }
        }
    }
}

#[test]
fn planned_chunks_match_scalar_on_a_long_lived_device() {
    // MWSR plans chunks across its migration steps and RBSG across its gap
    // moves. Lines live 20 000 writes with Gaussian variation, so dwells
    // are served as chunks (demand runs, sweeps of the spare region or of
    // the gap's slots, and single migration writes) and fall back to
    // scalar steps near failures; runs go both to death and to a cap in
    // mid-life. Geometries: Fig. 4's MWSR extremes (4- and 1024-line
    // regions at period 8) and RBSG with odd 315-line regions at period 1,
    // where every write moves the gap.
    let cases = [
        (SchemeSpec::Mwsr { region_lines: 4, period: 8 }, 1u64 << 11, 8_000_003u64),
        (SchemeSpec::Mwsr { region_lines: 1024, period: 8 }, 1 << 11, 8_000_003),
        (SchemeSpec::Rbsg { regions: 13, region_lines: 315, period: 1 }, 13 * 315, 5_000_003),
    ];
    for (i, (scheme, data_lines, mid_life)) in cases.into_iter().enumerate() {
        for dwell in [2_048u64, 5_000] {
            for cap in [0, mid_life] {
                let exp = LifetimeExperiment {
                    id: format!("equiv-planned/{i}/{}/{dwell}/{cap}", scheme.name()),
                    scheme: scheme.clone(),
                    workload: WorkloadSpec::Bpa { writes_per_target: dwell },
                    data_lines,
                    device: DeviceSpec {
                        endurance: 20_000,
                        variation: sawl_nvm::EnduranceModel::Gaussian { cov: 0.2 },
                        ..Default::default()
                    },
                    max_demand_writes: cap,
                    fault: None,
                    telemetry: None,
                    timing: None,
                };
                let batched = run_lifetime(&exp).unwrap();
                assert_eq!(batched.device_died, cap == 0, "{}", exp.id);
                let scalar = scalar_lifetime(&exp);
                assert_eq!(batched, scalar, "chunked run diverged from scalar for {}", exp.id);
            }
        }
    }
}

#[test]
fn batched_lifetime_matches_scalar_reference_at_a_write_cap() {
    // A cap that lands mid-block: the pump must stop within one request
    // of it, exactly like the scalar loop.
    for cap in [1u64, 100, 4_096, 4_097, 10_000] {
        let exp = LifetimeExperiment {
            id: format!("equiv-cap/{cap}"),
            scheme: SchemeSpec::PcmS { region_lines: 16, period: 32 },
            workload: WorkloadSpec::Uniform { write_ratio: 0.5 },
            data_lines: 1 << 9,
            device: DeviceSpec { endurance: u32::MAX, ..Default::default() },
            max_demand_writes: cap,
            fault: None,
            telemetry: None,
            timing: None,
        };
        let batched = run_lifetime(&exp).unwrap();
        assert_eq!(batched.demand_writes, cap, "cap overshoot at {cap}");
        assert_eq!(batched, scalar_lifetime(&exp), "cap mismatch at {cap}");
    }
}

/// The service-shaped workloads of the workload zoo: drifting YCSB, a
/// diurnal phase schedule, tenant interleaving, and the closed-loop
/// FTL/GC feedback stream. Parameters are sized for the 2^9-line
/// equivalence device.
fn service_workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::Ycsb {
            hot_lines: 64,
            exponent: 1.1,
            write_ratio: 0.7,
            rotate_every: 2_048,
            drift: 16,
        },
        WorkloadSpec::Diurnal {
            phases: vec![
                DiurnalPhase {
                    workload: WorkloadSpec::Ycsb {
                        hot_lines: 48,
                        exponent: 1.2,
                        write_ratio: 0.9,
                        rotate_every: 1_024,
                        drift: 8,
                    },
                    requests: 3_000,
                },
                DiurnalPhase {
                    workload: WorkloadSpec::Uniform { write_ratio: 0.3 },
                    requests: 1_500,
                },
            ],
        },
        WorkloadSpec::MultiTenant {
            slice: 64,
            tenants: vec![
                WorkloadSpec::Zipf { exponent: 1.2, write_ratio: 0.9 },
                WorkloadSpec::Uniform { write_ratio: 0.5 },
            ],
        },
        WorkloadSpec::GcFeedback {
            exponent: 1.1,
            write_ratio: 0.8,
            base_threshold: 0.3,
            waf_gain: 0.05,
            cov_gain: 0.1,
            gc_burst: 256,
        },
    ]
}

#[test]
fn batched_lifetime_matches_scalar_for_service_workloads() {
    // The zoo's own equivalence sweep: every scheme variant × every
    // service-shaped workload, including the observation-driven GC
    // feedback stream (whose scalar reference feeds wear at the same
    // block offsets as the pump — see `scalar_lifetime`).
    for scheme in all_schemes() {
        for workload in service_workloads() {
            let exp = LifetimeExperiment {
                id: format!("equiv-svc/{}/{}", scheme.name(), workload.name()),
                scheme: scheme.clone(),
                workload,
                data_lines: 1 << 9,
                device: DeviceSpec { endurance: 200, ..Default::default() },
                max_demand_writes: 0,
                fault: None,
                telemetry: None,
                timing: None,
            };
            let batched = run_lifetime(&exp).unwrap();
            let scalar = scalar_lifetime(&exp);
            assert_eq!(batched, scalar, "batched pump diverged from scalar for {}", exp.id);
        }
    }
}

#[test]
fn trace_replay_is_byte_identical_to_the_live_generator_for_every_scheme() {
    use sawl_trace::TraceWriter;

    // One shared experiment id → one seed → one recorded trace serves
    // every scheme (the workload seed derives from the id, not the
    // scheme). Oversized so the capped runs never reach trace EOF.
    let live_workload = WorkloadSpec::Ycsb {
        hot_lines: 64,
        exponent: 1.1,
        write_ratio: 0.8,
        rotate_every: 2_048,
        drift: 16,
    };
    let id = "equiv-trace";
    let space = 1u64 << 9;
    let mut gen = live_workload.try_build(space, stable_seed(id)).unwrap();
    let mut w =
        TraceWriter::with_name(std::io::Cursor::new(Vec::new()), space, gen.name()).unwrap();
    w.record(gen.as_mut(), 200_000).unwrap();
    let (out, _) = w.finish().unwrap();
    let dir = std::env::temp_dir().join(format!("sawl-equiv-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ycsb.trc");
    std::fs::write(&path, out.into_inner()).unwrap();

    for scheme in all_schemes() {
        let live = LifetimeExperiment {
            id: id.into(),
            scheme: scheme.clone(),
            workload: live_workload.clone(),
            data_lines: space,
            device: DeviceSpec { endurance: 200, ..Default::default() },
            max_demand_writes: 30_000,
            fault: None,
            telemetry: Some(sawl_simctl::TelemetrySpec::with_stride(777)),
            timing: None,
        };
        let replay = LifetimeExperiment {
            workload: WorkloadSpec::TraceFile { path: path.to_str().unwrap().into() },
            ..live.clone()
        };
        let reference = run_lifetime(&live).unwrap();
        let replayed = run_lifetime(&replay).unwrap();
        // Every field — including the embedded telemetry series and the
        // reported workload name, which the replay reads back out of the
        // trace header.
        assert_eq!(replayed, reference, "trace replay diverged for {}", scheme.name());
        assert_eq!(
            serde_json::to_string(&replayed).unwrap(),
            serde_json::to_string(&reference).unwrap(),
            "serialized replay diverged for {}",
            scheme.name()
        );
        let mut no_tel = replay.clone();
        no_tel.telemetry = None;
        let batched = run_lifetime(&no_tel).unwrap();
        assert_eq!(
            scalar_lifetime(&no_tel),
            batched,
            "scalar trace replay diverged for {}",
            scheme.name()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_is_observation_only_for_every_scheme() {
    // Attaching a recorder (wear probe + event ring + stride-clamped
    // batching) must not change a single result field — for every scheme
    // variant, under both a mixed workload and BPA. This is the guard
    // that lets telemetry ride along without an equivalence tax.
    for scheme in all_schemes() {
        for workload in [
            WorkloadSpec::Uniform { write_ratio: 0.5 },
            WorkloadSpec::Bpa { writes_per_target: 512 },
        ]
        .into_iter()
        .chain(service_workloads())
        {
            let plain = LifetimeExperiment {
                id: format!("equiv-tel/{}/{}", scheme.name(), workload.name()),
                scheme: scheme.clone(),
                workload,
                data_lines: 1 << 9,
                device: DeviceSpec { endurance: 200, ..Default::default() },
                max_demand_writes: 0,
                fault: None,
                telemetry: None,
                timing: None,
            };
            // An awkward stride, so sample boundaries land mid-block.
            let instrumented = LifetimeExperiment {
                telemetry: Some(sawl_simctl::TelemetrySpec::with_stride(777)),
                timing: None,
                ..plain.clone()
            };
            let bare = run_lifetime(&plain).unwrap();
            let mut observed = run_lifetime(&instrumented).unwrap();
            let series = observed.telemetry.take().expect("series requested");
            assert_eq!(observed, bare, "telemetry perturbed the run for {}", plain.id);
            assert_eq!(
                series.samples.len() as u64,
                bare.demand_writes / 777,
                "sample count off for {}",
                plain.id
            );
        }
    }
}

#[test]
fn zero_fault_plan_is_byte_identical_to_the_fault_free_path() {
    // Installing an all-default fault plan must not perturb anything: not
    // the device's RNG draws, not the write paths, not the result — for
    // every scheme, batched *and* scalar. This is the guard that lets the
    // fault layer ride in the hot path without an equivalence tax.
    for scheme in all_schemes() {
        for workload in [
            WorkloadSpec::Uniform { write_ratio: 0.5 },
            WorkloadSpec::Bpa { writes_per_target: 512 },
        ] {
            let plain = LifetimeExperiment {
                id: format!("equiv-zf/{}/{}", scheme.name(), workload.name()),
                scheme: scheme.clone(),
                workload,
                data_lines: 1 << 9,
                device: DeviceSpec { endurance: 200, ..Default::default() },
                max_demand_writes: 0,
                fault: None,
                telemetry: None,
                timing: None,
            };
            let zero_plan =
                LifetimeExperiment { fault: Some(FaultPlan::default()), ..plain.clone() };
            let fault_free = run_lifetime(&plain).unwrap();
            let zero_batched = run_lifetime(&zero_plan).unwrap();
            let zero_scalar = scalar_lifetime(&zero_plan);
            assert_eq!(zero_batched, fault_free, "zero-fault drift (batched) for {}", plain.id);
            assert_eq!(zero_scalar, fault_free, "zero-fault drift (scalar) for {}", plain.id);
        }
    }
}
