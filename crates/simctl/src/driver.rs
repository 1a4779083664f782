//! The shared request pump.
//!
//! Every run in the suite — lifetime, performance, adaptation traces, the
//! examples — is at its core the same loop: pull requests from an address
//! stream and route writes/reads through a wear leveler against a device.
//! This module is that loop, written once. The figure binaries never
//! hand-roll it; they describe *what* to run (an experiment) and the
//! driver does the running.
//!
//! The loop is **batched**: requests are drained from the stream
//! [`BLOCK`] at a time as runs of identical requests via
//! [`AddressStream::fill_runs`], so the per-request cost of a
//! `Box<dyn AddressStream>` is one virtual dispatch (and one RNG state
//! load) per block rather than per request. The request sequence each pump
//! applies is bit-identical to the scalar `next_req`-per-request loop it
//! replaced — `fill_runs` guarantees it, and the driver equivalence tests
//! enforce it end to end.

use std::error::Error;
use std::fmt;

use sawl_algos::WearLeveler;
use sawl_core::ConfigError;
use sawl_nvm::{FaultPlanError, NvmDevice};
use sawl_trace::{AddressStream, MemReq, ReqRun, WearObservation};

use crate::telemetry::TelemetryRun;
use crate::timing::TimingRun;

/// Requests drained from the stream per batch. Big enough to amortize the
/// virtual dispatch and RNG setup, small enough to stay cache-resident
/// (4096 × 16 B = 64 KiB).
pub const BLOCK: usize = 4096;

/// Consecutive reads [`pump_writes`] tolerates before declaring the
/// workload write-free and bailing out instead of spinning forever.
pub const READ_SPIN_LIMIT: u64 = 16 << 20;

/// A defect in a run's specification or workload, surfaced as a value so
/// spec-driven entry points (`sawl-sim`, the daemon) can report it and
/// exit nonzero instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum DriverError {
    /// The workload produced [`READ_SPIN_LIMIT`] consecutive reads without
    /// a single demand write; a lifetime run over it can never finish.
    WriteFreeStream {
        /// The offending stream's display name.
        stream: String,
    },
    /// The scheme's configuration is structurally invalid.
    Config(ConfigError),
    /// The fault plan is invalid for the target device.
    FaultPlan(FaultPlanError),
    /// A scheme/device/probe geometry defect in the spec.
    Spec(String),
    /// A checkpoint file could not be written, read, or restored (I/O,
    /// corruption, version skew, or a spec mismatch). Carries the
    /// rendered [`sawl_ckpt::CkptError`]/IO reason; the run is not lost —
    /// an earlier checkpoint or a fresh start both remain valid.
    Checkpoint(String),
    /// A finished run's report failed to serialize (diagnostic path for
    /// what would otherwise be a panic in the CLI).
    Report(String),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WriteFreeStream { stream } => write!(
                f,
                "{READ_SPIN_LIMIT} consecutive reads without a single demand write — the \
                 workload (stream \"{stream}\") produces no writes, so a lifetime run can \
                 never finish; fix the workload's write ratio"
            ),
            Self::Config(e) => write!(f, "invalid scheme config: {e}"),
            Self::FaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            Self::Spec(msg) => write!(f, "invalid spec: {msg}"),
            Self::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            Self::Report(msg) => write!(f, "cannot serialize report: {msg}"),
        }
    }
}

impl Error for DriverError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            Self::FaultPlan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for DriverError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

impl From<FaultPlanError> for DriverError {
    fn from(e: FaultPlanError) -> Self {
        Self::FaultPlan(e)
    }
}

/// Recovery bookkeeping accumulated by one [`pump_writes`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Power-loss events the pump recovered from.
    pub recoveries: u64,
    /// Recovery passes that replayed a journaled in-flight operation.
    pub journal_replays: u64,
    /// Recovery passes that rolled a journaled operation back.
    pub journal_rollbacks: u64,
}

/// Feed the device's current wear statistics to an observation-driven
/// stream (the FTL/GC feedback loop, [`sawl_trace::GcFeedback`]). Every
/// pump calls this immediately before each batch pull, so the stream sees
/// the device at deterministic request offsets — the property the
/// batched-vs-scalar equivalence tests rely on. Streams that do not ask
/// for observations cost one branch per *block*, nothing per request.
///
/// The device's incremental wear probe is enabled on first use: runs
/// without an observing stream never pay the probe's per-write upkeep.
pub fn feed_observation<S>(stream: &mut S, dev: &mut NvmDevice)
where
    S: AddressStream + ?Sized,
{
    if !stream.wants_observation() {
        return;
    }
    if !dev.wear_probe_enabled() {
        dev.enable_wear_probe();
    }
    let snap = dev.wear_snapshot().expect("wear probe just enabled");
    let w = dev.wear();
    stream.observe_wear(&WearObservation {
        demand_writes: w.demand_writes,
        overhead_writes: w.overhead_writes,
        wear_mean: snap.mean,
        wear_cov: snap.cov,
        wear_max: snap.max,
    });
}

/// Drive `requests` requests from `stream` through `wl`.
pub fn pump<W, S>(wl: &mut W, dev: &mut NvmDevice, stream: &mut S, requests: u64)
where
    W: WearLeveler + ?Sized,
    S: AddressStream + ?Sized,
{
    pump_observed(wl, dev, stream, requests, |_, _, _, _| {});
}

/// The request loop behind [`pump`], invoking
/// `observe` after every request with the request, the physical address
/// it resolved to, and the post-request engine and device state — the
/// hook the timing models feed from.
pub fn pump_observed<W, S, F>(
    wl: &mut W,
    dev: &mut NvmDevice,
    stream: &mut S,
    requests: u64,
    mut observe: F,
) where
    W: WearLeveler + ?Sized,
    S: AddressStream + ?Sized,
    F: FnMut(MemReq, u64, &W, &NvmDevice),
{
    let mut scratch = [MemReq::read(0); BLOCK];
    let mut runs = Vec::new();
    let mut left = requests;
    while left > 0 {
        let n = left.min(BLOCK as u64) as usize;
        feed_observation(stream, dev);
        let filled = stream.fill_runs(&mut runs, &mut scratch[..n]);
        assert!(filled == n as u64, "streams are infinite; fill_runs must not short a block");
        for run in &runs {
            let req = MemReq { la: run.la, write: run.write };
            for _ in 0..run.len {
                let pa = if req.write { wl.write(req.la, dev) } else { wl.read(req.la, dev) };
                observe(req, pa, wl, dev);
            }
        }
        left -= filled;
    }
}

/// The lifetime loop: drive only the stream's writes (reads do not wear
/// cells) until the device dies or `cap` demand writes have been served.
/// Stops within one request of either condition, exactly like the scalar
/// loop: the per-request check happens inside the block walk.
///
/// The workload is drained at *run* granularity
/// ([`AddressStream::fill_runs`]): each run of consecutive writes to the
/// same logical address is handed to [`WearLeveler::write_run`] as one
/// call — letting every scheme collapse the run into counter arithmetic
/// through the one `write_run` loop (certified quiet spans, plus
/// failure-free chunks for security refresh and TLSR), and letting
/// run-structured generators (BPA, RAA) skip materializing the request
/// sequence entirely.
/// `write_run` is bit-equivalent to the scalar loop, so the request
/// sequence every scheme observes — and the resulting device state — is
/// bit-identical to the per-request loop; the scenario equivalence tests
/// enforce this end to end.
///
/// When the device carries a fault plan, a scheduled power loss surfaces
/// here as a short `write_run`: the pump drives [`WearLeveler::recover`]
/// until a pass completes (replay is idempotent, so repeated losses during
/// recovery are fine), counts the recovery, and re-serves whatever the
/// interrupted run did not complete. Returns the recovery bookkeeping, or
/// a [`DriverError::WriteFreeStream`] after [`READ_SPIN_LIMIT`]
/// consecutive reads — a stream that never produces writes (write ratio 0,
/// or a phase schedule degenerating to reads) would otherwise spin forever
/// without advancing `demand_writes`.
///
/// All three lifetime pumps, and [`crate::ResumableRun`], run the same
/// serve loop; they differ only in the observers they attach.
pub fn pump_writes<W, S>(
    wl: &mut W,
    dev: &mut NvmDevice,
    stream: &mut S,
    cap: u64,
) -> Result<PumpStats, DriverError>
where
    W: WearLeveler + ?Sized,
    S: AddressStream + ?Sized,
{
    pump_lifetime(wl, dev, stream, cap, None, None)
}

/// [`pump_writes`] with an optional telemetry recorder.
///
/// The sampling clock counts *served demand writes* (the lifetime-probe
/// request index). Each batched `write_run` is clamped at the recorder's
/// [`until_sample`](TelemetryRun::until_sample) boundary, so samples land
/// after the request with 1-based index `k * stride` — exactly where the
/// scalar per-request loop would take them (`telemetry_alignment.rs` pins
/// this). A sample on the killing or cap-reaching write is still taken;
/// writes dropped by a power loss are not counted as served.
///
/// A disabled recorder costs one branch per `write_run` call, never one
/// per write.
pub fn pump_writes_telemetry<W, S>(
    wl: &mut W,
    dev: &mut NvmDevice,
    stream: &mut S,
    cap: u64,
    telemetry: Option<&mut TelemetryRun>,
) -> Result<PumpStats, DriverError>
where
    W: WearLeveler + ?Sized,
    S: AddressStream + ?Sized,
{
    pump_lifetime(wl, dev, stream, cap, telemetry, None)
}

/// [`pump_writes_telemetry`] with the closed-loop timing model attached.
///
/// Timing needs the physical address and the per-request device/scheme
/// counter deltas of every write, but it does **not** need them one write
/// at a time: a span the scheme certifies as *quiet*
/// ([`WearLeveler::quiet_writes`] — stable translation, no device reads,
/// no overhead writes, no op-count movement) produces `n` copies of one
/// event, which the controller advances in closed form
/// ([`TimingRun::observe_run`]). Everything else — the first write after a
/// mapping move, CMT misses, exchange/merge/split triggers, telemetry
/// sample boundaries — is served scalar, so the observed event stream, and
/// with it every nanosecond, histogram slot and stall counter, is
/// bit-identical to the scalar reference loop (`latency_alignment.rs` pins
/// this for every scheme variant).
///
/// Devices with an armed fault plan can drop writes (power loss) or add
/// retries mid-span, so every timed step on them is scalar, as it is
/// under a spec with [`TimingSpec::scalar_serve`] set. A write dropped by
/// a power loss is neither observed nor counted as served; a write that
/// lands before a loss interrupts its own data movement is both, exactly
/// as in the untimed pump. The recovery's own data movement is charged to
/// the next observed request's overhead delta.
///
/// The telemetry clock advances per served write exactly as in the batched
/// pump: quiet spans are clamped at the recorder's
/// [`until_sample`](TelemetryRun::until_sample) boundary, so samples land
/// on identical request indices.
///
/// [`TimingSpec::scalar_serve`]: sawl_timing::TimingSpec
pub fn pump_writes_timed<W, S>(
    wl: &mut W,
    dev: &mut NvmDevice,
    stream: &mut S,
    cap: u64,
    telemetry: Option<&mut TelemetryRun>,
    timing: &mut TimingRun,
) -> Result<PumpStats, DriverError>
where
    W: WearLeveler + ?Sized,
    S: AddressStream + ?Sized,
{
    timing.prime(wl, dev);
    pump_lifetime(wl, dev, stream, cap, telemetry, Some(timing))
}

/// The one block loop behind the three lifetime pumps.
fn pump_lifetime<W, S>(
    wl: &mut W,
    dev: &mut NvmDevice,
    stream: &mut S,
    cap: u64,
    mut telemetry: Option<&mut TelemetryRun>,
    mut timing: Option<&mut TimingRun>,
) -> Result<PumpStats, DriverError>
where
    W: WearLeveler + ?Sized,
    S: AddressStream + ?Sized,
{
    let mut serve = LifetimeServe::new(cap);
    while !serve.finished(dev) {
        serve.step(wl, dev, stream, telemetry.as_deref_mut(), timing.as_deref_mut())?;
    }
    Ok(serve.stats)
}

/// The state of one lifetime serve loop between stream batches: the cap,
/// the read-spin guard, the recovery tallies and the reused batch buffers.
/// The lifetime pumps keep one for the length of a call;
/// [`crate::ResumableRun`] keeps one for the length of a run and
/// checkpoints it between [`step`](Self::step)s.
pub(crate) struct LifetimeServe {
    pub(crate) cap: u64,
    pub(crate) consecutive_reads: u64,
    pub(crate) stats: PumpStats,
    /// Reused run buffer.
    runs: Vec<ReqRun>,
    /// Reused request scratch; re-initializing 64 KiB per batch would
    /// dwarf the cost of serving a bulk-run batch.
    scratch: Box<[MemReq; BLOCK]>,
}

impl LifetimeServe {
    pub(crate) fn new(cap: u64) -> Self {
        Self {
            cap,
            consecutive_reads: 0,
            stats: PumpStats::default(),
            runs: Vec::new(),
            scratch: Box::new([MemReq::read(0); BLOCK]),
        }
    }

    /// The device died or the demand-write cap was hit.
    pub(crate) fn finished(&self, dev: &NvmDevice) -> bool {
        dev.is_dead() || dev.wear().demand_writes >= self.cap
    }

    /// Pull one stream batch ([`BLOCK`] requests) and serve its writes,
    /// stopping at death or the cap. A timed run's `timing` must have been
    /// primed on the run's state.
    pub(crate) fn step<W, S>(
        &mut self,
        wl: &mut W,
        dev: &mut NvmDevice,
        stream: &mut S,
        mut telemetry: Option<&mut TelemetryRun>,
        mut timing: Option<&mut TimingRun>,
    ) -> Result<(), DriverError>
    where
        W: WearLeveler + ?Sized,
        S: AddressStream + ?Sized,
    {
        let Self { cap, consecutive_reads, stats, runs, scratch } = self;
        feed_observation(stream, dev);
        stream.fill_runs(runs, &mut scratch[..]);
        // A fault-armed device can drop writes or add retries mid-span, so
        // timing observes it one scalar write at a time.
        let scalar = timing.as_deref().is_some_and(|t| t.scalar_serve() || dev.fault_plan_armed());
        for run in runs.iter() {
            if !run.write {
                *consecutive_reads += run.len;
                if *consecutive_reads >= READ_SPIN_LIMIT {
                    return Err(DriverError::WriteFreeStream { stream: stream.name().to_string() });
                }
                continue;
            }
            *consecutive_reads = 0;
            let mut served = 0u64;
            while served < run.len {
                let until = telemetry.as_deref().map_or(u64::MAX, TelemetryRun::until_sample);
                let mut n = (run.len - served).min(*cap - dev.wear().demand_writes).min(until);
                let done = match timing.as_deref_mut() {
                    None => wl.write_run(run.la, n, dev),
                    Some(t) => {
                        n = if scalar { 0 } else { wl.quiet_writes(run.la).min(n) };
                        if n == 0 {
                            // Not certified quiet (mapping move, CMT miss,
                            // trigger or sample boundary ahead): serve
                            // scalar and let the builder diff the deltas. A
                            // write a power loss dropped is not observed.
                            n = 1;
                            let before = dev.wear().demand_writes;
                            let pa = wl.write(run.la, dev);
                            let done = dev.wear().demand_writes - before;
                            if done > 0 {
                                t.observe(true, pa, wl, dev);
                            }
                            done
                        } else {
                            // The whole span repeats one physical line; the
                            // killing write (if the device dies mid-span) is
                            // still served and observed, exactly as in the
                            // scalar loop.
                            let pa = wl.translate(run.la);
                            let done = wl.write_run(run.la, n, dev);
                            t.observe_run(true, pa, done, wl, dev);
                            done
                        }
                    }
                };
                if let Some(t) = telemetry.as_deref_mut() {
                    t.note(done, wl, dev, timing.as_deref());
                }
                if dev.is_dead() || dev.wear().demand_writes >= *cap {
                    return Ok(());
                }
                if dev.power_lost() {
                    // Replay is idempotent; keep recovering until a pass
                    // runs to completion without another scheduled power
                    // loss.
                    loop {
                        let r = wl.recover(dev);
                        stats.journal_replays += u64::from(r.replayed);
                        stats.journal_rollbacks += u64::from(r.rolled_back);
                        if r.complete {
                            break;
                        }
                    }
                    stats.recoveries += 1;
                    // Replayed data movement wears cells too and can finish
                    // off a nearly-dead device.
                    if dev.is_dead() {
                        return Ok(());
                    }
                    // Whatever the interrupted run did not serve is retried
                    // by the next inner-loop iteration.
                    served += done;
                    continue;
                }
                debug_assert_eq!(done, n, "write_run must complete unless the device died");
                served += done;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sawl_algos::{Ideal, NoWl};
    use sawl_nvm::NvmConfig;
    use sawl_trace::{Bpa, Phased, Uniform};

    fn device(lines: u64, endurance: u32) -> NvmDevice {
        NvmDevice::new(
            NvmConfig::builder()
                .lines(lines)
                .banks(1)
                .endurance(endurance)
                .spare_shift(6)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn pump_serves_exactly_the_requested_count() {
        let mut wl = NoWl::new(1 << 10);
        let mut dev = device(1 << 10, u32::MAX);
        let mut stream = Uniform::new(1 << 10, 0.5, 3);
        pump(&mut wl, &mut dev, &mut stream, 10_000);
        let w = dev.wear();
        assert_eq!(w.demand_writes + w.reads, 10_000);
    }

    #[test]
    fn pump_observed_sees_every_request_in_order() {
        let mut wl = NoWl::new(1 << 8);
        let mut dev = device(1 << 8, u32::MAX);
        let mut stream = Uniform::new(1 << 8, 1.0, 3);
        let mut seen = 0u64;
        pump_observed(&mut wl, &mut dev, &mut stream, 500, |req, pa, w, d| {
            assert_eq!(pa, req.la, "identity scheme must not remap");
            assert_eq!(w.translate(req.la), pa);
            seen += 1;
            assert_eq!(d.wear().demand_writes, seen);
        });
        assert_eq!(seen, 500);
    }

    #[test]
    fn pump_writes_stops_at_death() {
        let mut wl = Ideal::new(1 << 6);
        let mut dev = device(1 << 6, 100);
        let mut stream = Uniform::new(1 << 6, 1.0, 3);
        pump_writes(&mut wl, &mut dev, &mut stream, u64::MAX).unwrap();
        assert!(dev.is_dead());
    }

    #[test]
    fn pump_writes_respects_the_cap() {
        let mut wl = Ideal::new(1 << 6);
        let mut dev = device(1 << 6, u32::MAX);
        let mut stream = Uniform::new(1 << 6, 1.0, 3);
        pump_writes(&mut wl, &mut dev, &mut stream, 1_234).unwrap();
        assert_eq!(dev.wear().demand_writes, 1_234);
    }

    #[test]
    fn pump_skips_reads_in_lifetime_mode() {
        let mut wl = NoWl::new(1 << 8);
        let mut dev = device(1 << 8, u32::MAX);
        // Write ratio 0.5: roughly half the requests are reads and must
        // not be issued to the device at all.
        let mut stream = Uniform::new(1 << 8, 0.5, 9);
        pump_writes(&mut wl, &mut dev, &mut stream, 1_000).unwrap();
        assert_eq!(dev.wear().demand_writes, 1_000);
        assert_eq!(dev.wear().reads, 0);
    }

    #[test]
    fn pump_writes_bails_on_a_write_free_stream() {
        // Write ratio 0: the scalar loop would spin forever; the guard must
        // bail with a typed error once READ_SPIN_LIMIT reads pass without a
        // single write.
        let mut wl = NoWl::new(1 << 8);
        let mut dev = device(1 << 8, u32::MAX);
        let mut stream = Uniform::new(1 << 8, 0.0, 9);
        let err = pump_writes(&mut wl, &mut dev, &mut stream, 1_000).unwrap_err();
        assert_eq!(err, DriverError::WriteFreeStream { stream: "uniform".into() });
        assert!(err.to_string().contains("produces no writes"), "{err}");
    }

    #[test]
    fn pump_writes_tolerates_long_read_runs_between_writes() {
        // Writes reset the consecutive-read counter: a tiny write ratio
        // must not trip the guard.
        let mut wl = NoWl::new(1 << 8);
        let mut dev = device(1 << 8, u32::MAX);
        let mut stream = Uniform::new(1 << 8, 0.001, 9);
        pump_writes(&mut wl, &mut dev, &mut stream, 50).unwrap();
        assert_eq!(dev.wear().demand_writes, 50);
    }

    #[test]
    fn pump_writes_recovers_from_scheduled_power_losses() {
        let mut wl = Ideal::new(1 << 6);
        let mut dev = device(1 << 6, u32::MAX);
        dev.install_fault_plan(&sawl_nvm::FaultPlan {
            power_loss_at_writes: vec![10, 25, 400],
            ..Default::default()
        })
        .unwrap();
        let mut stream = Uniform::new(1 << 6, 1.0, 3);
        let stats = pump_writes(&mut wl, &mut dev, &mut stream, 1_000).unwrap();
        assert_eq!(stats.recoveries, 3);
        assert_eq!(dev.fault_counters().power_losses, 3);
        assert_eq!(dev.fault_counters().power_restores, 3);
        // Every dropped request is retried after recovery: the cap is
        // still reached exactly.
        assert_eq!(dev.wear().demand_writes, 1_000);
        assert!(!dev.power_lost());
    }

    /// The scalar reference loops `pump`/`pump_writes` replaced; the block
    /// pumps must produce identical device state.
    fn scalar_pump<W: WearLeveler, S: AddressStream>(
        wl: &mut W,
        dev: &mut NvmDevice,
        stream: &mut S,
        requests: u64,
    ) {
        for _ in 0..requests {
            let req = stream.next_req();
            if req.write {
                wl.write(req.la, dev);
            } else {
                wl.read(req.la, dev);
            }
        }
    }

    fn scalar_pump_writes<W: WearLeveler, S: AddressStream>(
        wl: &mut W,
        dev: &mut NvmDevice,
        stream: &mut S,
        cap: u64,
    ) {
        while !dev.is_dead() && dev.wear().demand_writes < cap {
            let req = stream.next_req();
            if req.write {
                wl.write(req.la, dev);
            }
        }
    }

    #[test]
    fn batched_pump_matches_scalar_reference() {
        // Request counts straddle block boundaries on purpose.
        for requests in [0u64, 1, 100, 4_096, 4_097, 10_000] {
            let mut wl_a = NoWl::new(1 << 10);
            let mut dev_a = device(1 << 10, 1_000);
            let mut s_a = Uniform::new(1 << 10, 0.5, 17);
            pump(&mut wl_a, &mut dev_a, &mut s_a, requests);

            let mut wl_b = NoWl::new(1 << 10);
            let mut dev_b = device(1 << 10, 1_000);
            let mut s_b = Uniform::new(1 << 10, 0.5, 17);
            scalar_pump(&mut wl_b, &mut dev_b, &mut s_b, requests);

            assert_eq!(dev_a.wear(), dev_b.wear(), "{requests} requests");
            assert_eq!(dev_a.write_counts(), dev_b.write_counts());
        }
    }

    #[test]
    fn batched_pump_writes_matches_scalar_reference() {
        let mut wl_a = Ideal::new(1 << 6);
        let mut dev_a = device(1 << 6, 200);
        let mut s_a = Uniform::new(1 << 6, 0.7, 23);
        pump_writes(&mut wl_a, &mut dev_a, &mut s_a, u64::MAX).unwrap();

        let mut wl_b = Ideal::new(1 << 6);
        let mut dev_b = device(1 << 6, 200);
        let mut s_b = Uniform::new(1 << 6, 0.7, 23);
        scalar_pump_writes(&mut wl_b, &mut dev_b, &mut s_b, u64::MAX);

        assert!(dev_a.is_dead() && dev_b.is_dead());
        assert_eq!(dev_a.wear(), dev_b.wear());
        assert_eq!(dev_a.demand_writes_at_death(), dev_b.demand_writes_at_death());
        assert_eq!(dev_a.write_counts(), dev_b.write_counts());
    }

    /// `pump_observed` must see, in order, exactly the requests the scalar
    /// loop issues, and leave the device in the same state.
    fn assert_observed_matches_scalar<S: AddressStream>(mk: impl Fn() -> S, requests: u64) {
        let mut wl = NoWl::new(1 << 8);
        let mut dev = device(1 << 8, u32::MAX);
        let mut observed: Vec<MemReq> = Vec::new();
        pump_observed(&mut wl, &mut dev, &mut mk(), requests, |req, _, _, _| observed.push(req));

        let mut reference = mk();
        let expected: Vec<MemReq> = (0..requests).map(|_| reference.next_req()).collect();
        assert_eq!(observed, expected);

        let mut wl_ref = NoWl::new(1 << 8);
        let mut dev_ref = device(1 << 8, u32::MAX);
        scalar_pump(&mut wl_ref, &mut dev_ref, &mut mk(), requests);
        assert_eq!(dev.wear(), dev_ref.wear());
        assert_eq!(dev.write_counts(), dev_ref.write_counts());
    }

    #[test]
    fn pump_observed_matches_scalar_order_across_blocks() {
        assert_observed_matches_scalar(|| Uniform::new(1 << 8, 0.5, 3), 9_000);
    }

    #[test]
    fn pump_observed_matches_scalar_for_bpa_dwells_across_blocks() {
        // Dwell 1000 does not divide BLOCK: dwells straddle block edges.
        assert_observed_matches_scalar(|| Bpa::new(1 << 8, 1_000, 5), 3 * BLOCK as u64 + 17);
    }

    #[test]
    fn pump_observed_matches_scalar_for_phased_streams() {
        // Phase lengths straddle block edges; the BPA phase emits dwells
        // through Phased's delegating `fill_runs`.
        let mk = || {
            Phased::new(vec![
                (3_000, Box::new(Bpa::new(1 << 8, 700, 2)) as Box<dyn AddressStream + Send>),
                (1_500, Box::new(Uniform::new(1 << 8, 0.5, 1))),
            ])
        };
        assert_observed_matches_scalar(mk, 4 * BLOCK as u64 + 5);
    }
}
