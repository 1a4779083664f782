//! The batched stream path, `fill_runs`, must flatten to a sequence
//! bit-identical to scalar `next_req` for every generator — the block
//! pumps in the simulation driver rely on it.

use sawl_trace::{
    AddressStream, Bpa, GcFeedback, Hotspot, Interleave, MemReq, Mix, Phased, Raa, ReqRun, SeqScan,
    Stride, Uniform, WearObservation, Ycsb, ZipfStream, ALL_BENCHMARKS,
};

/// Drain `total` requests scalar-wise from one stream and run-wise through
/// `fill_runs` (with an awkward mix of block sizes) from an
/// identically-constructed twin, then compare the full flattened sequences.
fn assert_fill_matches_scalar(
    mut scalar: Box<dyn AddressStream>,
    mut batched: Box<dyn AddressStream>,
    total: usize,
    label: &str,
) {
    let expected: Vec<MemReq> = (0..total).map(|_| scalar.next_req()).collect();
    let mut got: Vec<MemReq> = Vec::with_capacity(total);
    let mut scratch = vec![MemReq::read(0); 257];
    let mut runs: Vec<ReqRun> = Vec::new();
    // Odd sizes on purpose: misaligned with dwell times and phase lengths.
    for &chunk in [1usize, 7, 64, 257, 100].iter().cycle() {
        if got.len() >= total {
            break;
        }
        let n = chunk.min(total - got.len());
        let filled = batched.fill_runs(&mut runs, &mut scratch[..n]);
        assert_eq!(filled, n as u64, "{label}: fill_runs shorted a block");
        assert_eq!(runs.iter().map(|r| r.len).sum::<u64>(), filled, "{label}: runs miscount");
        for run in &runs {
            assert!(run.len >= 1, "{label}: empty run");
            got.extend((0..run.len).map(|_| MemReq { la: run.la, write: run.write }));
        }
    }
    assert_eq!(got, expected, "{label}: batched sequence diverged from scalar");
}

#[test]
fn uniform_fill_matches_scalar() {
    assert_fill_matches_scalar(
        Box::new(Uniform::new(1 << 12, 0.37, 42)),
        Box::new(Uniform::new(1 << 12, 0.37, 42)),
        10_000,
        "uniform",
    );
}

#[test]
fn raa_fill_matches_scalar() {
    assert_fill_matches_scalar(
        Box::new(Raa::new(5, 1 << 10)),
        Box::new(Raa::new(5, 1 << 10)),
        5_000,
        "raa",
    );
}

#[test]
fn bpa_fill_matches_scalar_across_dwell_boundaries() {
    for dwell in [1u64, 2, 13, 256, 9_999] {
        assert_fill_matches_scalar(
            Box::new(Bpa::new(1 << 14, dwell, 7)),
            Box::new(Bpa::new(1 << 14, dwell, 7)),
            20_000,
            &format!("bpa/dwell={dwell}"),
        );
    }
}

#[test]
fn spec_models_fill_matches_scalar() {
    for bench in ALL_BENCHMARKS {
        assert_fill_matches_scalar(
            Box::new(bench.stream(1 << 14, 11)),
            Box::new(bench.stream(1 << 14, 11)),
            10_000,
            bench.name(),
        );
    }
}

#[test]
fn soplex_fill_matches_scalar_across_phase_switches() {
    // Soplex switches phases; drive past at least one switch. Its stock
    // phase length is millions of requests, so cross the boundary cheaply
    // with a phased composite instead: two scans with tiny phase budgets.
    let mk = || {
        let a = Box::new(SeqScan::new(64, 0, 16, 1.0, 3));
        let b = Box::new(SeqScan::new(64, 16, 16, 0.5, 4));
        Box::new(Phased::new(vec![(11, a), (5, b)]))
    };
    assert_fill_matches_scalar(mk(), mk(), 5_000, "phased");
}

/// Drain blocks through `fill_runs` and compare the expanded runs
/// against a scalar twin — and require the runs to be maximally
/// coalesced (no two adjacent runs mergeable), since the batched pump's
/// speed rests on that.
fn assert_fill_runs_matches_scalar(
    mut scalar: Box<dyn AddressStream>,
    mut batched: Box<dyn AddressStream>,
    blocks: usize,
    label: &str,
) {
    let mut scratch = vec![MemReq::read(0); 499]; // odd on purpose
    let mut runs: Vec<ReqRun> = Vec::new();
    for b in 0..blocks {
        let consumed = batched.fill_runs(&mut runs, &mut scratch);
        assert_eq!(consumed, scratch.len() as u64, "{label}: fill_runs shorted block {b}");
        let mut expanded = Vec::with_capacity(scratch.len());
        for run in &runs {
            for _ in 0..run.len {
                expanded.push(MemReq { la: run.la, write: run.write });
            }
        }
        let expected: Vec<MemReq> = (0..scratch.len()).map(|_| scalar.next_req()).collect();
        assert_eq!(expanded, expected, "{label}: block {b} runs diverged from scalar");
        for w in runs.windows(2) {
            assert!(
                w[0].la != w[1].la || w[0].write != w[1].write,
                "{label}: block {b} left adjacent mergeable runs"
            );
        }
    }
}

#[test]
fn ycsb_fill_and_fill_runs_match_scalar_across_rotations() {
    // 499-request blocks against a 1000-request rotation clock: window
    // slides land mid-block from the second block on.
    let mk = || Box::new(Ycsb::new(1 << 12, 256, 1.1, 0.7, 1_000, 64, 9));
    assert_fill_matches_scalar(mk(), mk(), 10_000, "ycsb");
    assert_fill_runs_matches_scalar(mk(), mk(), 8, "ycsb runs");
}

#[test]
fn interleave_fill_and_fill_runs_match_scalar_across_slices() {
    let mk = || {
        let a: Box<dyn AddressStream + Send> = Box::new(ZipfStream::new(1 << 12, 1.2, 0.9, 3));
        let b: Box<dyn AddressStream + Send> = Box::new(Uniform::new(1 << 12, 0.5, 4));
        Box::new(Interleave::new(vec![a, b], 64))
    };
    assert_fill_matches_scalar(mk(), mk(), 10_000, "interleave");
    assert_fill_runs_matches_scalar(mk(), mk(), 8, "interleave runs");
}

#[test]
fn gc_feedback_fill_and_fill_runs_match_scalar_open_loop() {
    // With no observations the stream stays at its base threshold; the
    // batched paths must still track the scalar draw-for-draw.
    let mk = || Box::new(GcFeedback::new(1 << 12, 1.1, 0.8, 0.3, 0.05, 0.1, 256, 11));
    assert_fill_matches_scalar(mk(), mk(), 10_000, "gc-feedback");
    assert_fill_runs_matches_scalar(mk(), mk(), 8, "gc-feedback runs");
}

#[test]
fn gc_feedback_fill_runs_matches_scalar_with_synced_observations() {
    // The driver feeds observations immediately before every block pull;
    // twins fed identical observations at identical request offsets must
    // stay bit-identical even as the feedback trips GC bursts on one
    // side of a block boundary and drains them on the other.
    let mk = || GcFeedback::new(1 << 12, 1.1, 0.8, 0.3, 0.05, 0.1, 256, 11);
    let mut scalar = mk();
    let mut batched = mk();
    let mut scratch = vec![MemReq::read(0); 1_024];
    let mut runs: Vec<ReqRun> = Vec::new();
    let mut demand = 1_000u64;
    for block in 0..24u64 {
        // Wear statistics that swing the dynamic threshold both ways:
        // WAF climbs and falls, the variance term ramps steadily.
        let obs = WearObservation {
            demand_writes: demand,
            overhead_writes: demand * (1 + block % 3),
            wear_mean: 10.0 + block as f64,
            wear_cov: 0.02 * block as f64,
            wear_max: 100 + block as u32,
        };
        scalar.observe_wear(&obs);
        batched.observe_wear(&obs);
        demand += 800;

        let consumed = batched.fill_runs(&mut runs, &mut scratch);
        assert_eq!(consumed, scratch.len() as u64, "block {block} shorted");
        let mut expanded = Vec::with_capacity(scratch.len());
        for run in &runs {
            for _ in 0..run.len {
                expanded.push(MemReq { la: run.la, write: run.write });
            }
        }
        let expected: Vec<MemReq> = (0..scratch.len()).map(|_| scalar.next_req()).collect();
        assert_eq!(expanded, expected, "block {block} diverged under feedback");
    }
}

#[test]
fn mix_and_pattern_streams_fill_matches_scalar() {
    let mk_mix = || {
        let a = Box::new(Uniform::new(256, 1.0, 1));
        let b = Box::new(Hotspot::new(256, 0, 16, 0.9, 0.5, 2));
        Box::new(Mix::new(vec![(2.0, a), (1.0, b)], 9))
    };
    assert_fill_matches_scalar(mk_mix(), mk_mix(), 5_000, "mix");
    assert_fill_matches_scalar(
        Box::new(Stride::new(512, 0, 128, 5, 0.8, 3)),
        Box::new(Stride::new(512, 0, 128, 5, 0.8, 3)),
        5_000,
        "stride",
    );
}
