//! Host-speed correction for throughput.
//!
//! The benchmark runs on a few CPUs of a shared host, which the load of
//! other guests slows for minutes at a time, so for whole runs: no
//! estimator over one run's own timings can remove that. A fixed
//! reference loop, owned by the benchmark and timed beside the simulator
//! throughout a run, measures the slowing: throughput is reported scaled
//! by the reference loop's median time over [`REF_NOMINAL_NS`], that is,
//! as it would read on a host where the loop takes its nominal time. The
//! loop never changes with the simulator, so a change to the simulator
//! moves the corrected figure exactly as it moves the raw one.
//!
//! The loop is one serial chain, so it tracks the clock and most of the
//! slowing a run sees, but not all of it: in the host's worst phases the
//! simulator's scenarios slowed 1.4–1.9x while the loop slowed 1.15–1.2x.
//! An eight-chain loop that slowed as much as the simulator in those
//! phases was tried and spread wider over ten runs, since its median
//! follows the bursts that the simulator's chunked minima skip.

use std::time::Instant;

/// Iterations of the reference loop in one sample.
const REF_ITERS: u64 = 2_000_000;

/// The reference loop's nominal time: its median on an idle Intel Xeon
/// (Sapphire Rapids) KVM guest with 2 vCPUs.
pub const REF_NOMINAL_NS: f64 = 4_400_000.0;

/// Samples taken after each scenario run.
pub const REF_REPS: usize = 2;

/// Time one pass of the reference loop: a serial chain of xorshift64
/// steps mixed through a multiply, with no memory traffic.
pub fn reference_ns() -> u64 {
    let t = Instant::now();
    let mut x: u64 = 0x853c_49e6_748f_ea9b;
    let mut acc: u64 = 0;
    for _ in 0..REF_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 7);
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as u64
}

/// [`REF_REPS`] samples of the reference loop.
pub fn samples() -> Vec<u64> {
    (0..REF_REPS).map(|_| reference_ns()).collect()
}

/// The correction factor for a run whose reference samples are `ns`:
/// median over nominal, so above 1 on a host slower than nominal.
pub fn factor(ns: &[u64]) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
    match crate::report::median(&v) {
        m if m > 0.0 => m / REF_NOMINAL_NS,
        _ => 1.0,
    }
}
