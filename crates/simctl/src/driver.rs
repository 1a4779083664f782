//! The shared request pump.
//!
//! Every run in the suite — lifetime, performance, adaptation traces, the
//! examples — is at its core the same loop: pull requests from an address
//! stream and route writes/reads through a wear leveler against a device.
//! This module is that loop, written once. The figure binaries never
//! hand-roll it; they describe *what* to run ([`crate::scenario`]) and the
//! driver does the running.
//!
//! The loop is **batched**: requests are drained from the stream into a
//! reusable [`BLOCK`]-request buffer via [`AddressStream::fill`], so the
//! per-request cost of a `Box<dyn AddressStream>` is one virtual dispatch
//! (and one RNG state load) per block rather than per request. The request
//! sequence each pump applies is bit-identical to the scalar
//! `next_req`-per-request loop it replaced — `fill` guarantees it, and the
//! driver equivalence tests enforce it end to end.

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
/// spec-driven entry points (`sawl-sim`, JSON scenarios) can report it and
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
    let mut buf = [MemReq::read(0); BLOCK];
    let mut left = requests;
    while left > 0 {
        let n = left.min(BLOCK as u64) as usize;
        feed_observation(stream, dev);
        let filled = stream.fill(&mut buf[..n]);
        for req in &buf[..filled] {
            if req.write {
                wl.write(req.la, dev);
            } else {
                wl.read(req.la, dev);
            }
        }
        left -= filled as u64;
        assert!(filled == n, "address streams are infinite; fill must not short a block");
    }
}

/// [`pump`] with an optional telemetry recorder. Every request — read or
/// write — advances the sampling clock by one, so a sample lands after
/// the request with 1-based index `k * stride` regardless of batching.
///
/// `None` delegates to the plain [`pump`] loop, so a disabled recorder
/// costs the hot path nothing at all — not even a per-request branch.
pub fn pump_telemetry<W, S>(
    wl: &mut W,
    dev: &mut NvmDevice,
    stream: &mut S,
    requests: u64,
    telemetry: Option<&mut TelemetryRun>,
) where
    W: WearLeveler + ?Sized,
    S: AddressStream + ?Sized,
{
    let Some(t) = telemetry else {
        return pump(wl, dev, stream, requests);
    };
    let mut buf = [MemReq::read(0); BLOCK];
    let mut left = requests;
    while left > 0 {
        let n = left.min(BLOCK as u64) as usize;
        feed_observation(stream, dev);
        let filled = stream.fill(&mut buf[..n]);
        for req in &buf[..filled] {
            if req.write {
                wl.write(req.la, dev);
            } else {
                wl.read(req.la, dev);
            }
            t.note_served(1, wl, dev);
        }
        left -= filled as u64;
        assert!(filled == n, "address streams are infinite; fill must not short a block");
    }
}

/// Like [`pump`], invoking `observe` after every request with the request,
/// the physical address it resolved to, and the post-request engine and
/// device state — the hook the timing models feed from.
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
    let mut buf = [MemReq::read(0); BLOCK];
    let mut left = requests;
    while left > 0 {
        let n = left.min(BLOCK as u64) as usize;
        feed_observation(stream, dev);
        let filled = stream.fill(&mut buf[..n]);
        for &req in &buf[..filled] {
            let pa = if req.write { wl.write(req.la, dev) } else { wl.read(req.la, dev) };
            observe(req, pa, wl, dev);
        }
        left -= filled as u64;
        assert!(filled == n, "address streams are infinite; fill must not short a block");
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
/// call — letting every scheme that certifies quiet spans (RBSG, segment
/// swapping, PCM-S, MWSR, NWL, SAWL through the default `write_run`;
/// security refresh and TLSR through their window overrides) collapse the
/// run into counter arithmetic, and letting run-structured generators
/// (BPA, RAA) skip materializing the request sequence entirely.
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
    let mut scratch = [MemReq::read(0); BLOCK];
    let mut runs: Vec<ReqRun> = Vec::new();
    let mut consecutive_reads = 0u64;
    let mut stats = PumpStats::default();
    'blocks: while !dev.is_dead() && dev.wear().demand_writes < cap {
        feed_observation(stream, dev);
        stream.fill_runs(&mut runs, &mut scratch);
        for run in &runs {
            if !run.write {
                consecutive_reads += run.len;
                if consecutive_reads >= READ_SPIN_LIMIT {
                    return Err(DriverError::WriteFreeStream { stream: stream.name().to_string() });
                }
                continue;
            }
            consecutive_reads = 0;
            let mut served = 0u64;
            while served < run.len {
                let n = (run.len - served).min(cap - dev.wear().demand_writes);
                let done = wl.write_run(run.la, n, dev);
                if dev.is_dead() || dev.wear().demand_writes >= cap {
                    break 'blocks;
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
                        break 'blocks;
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
    }
    Ok(stats)
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
/// `None` delegates to the plain [`pump_writes`] loop, so a disabled
/// recorder costs the hot path nothing at all — not even a per-run branch.
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
    let Some(t) = telemetry else {
        return pump_writes(wl, dev, stream, cap);
    };
    let mut scratch = [MemReq::read(0); BLOCK];
    let mut runs: Vec<ReqRun> = Vec::new();
    let mut consecutive_reads = 0u64;
    let mut stats = PumpStats::default();
    'blocks: while !dev.is_dead() && dev.wear().demand_writes < cap {
        feed_observation(stream, dev);
        stream.fill_runs(&mut runs, &mut scratch);
        for run in &runs {
            if !run.write {
                consecutive_reads += run.len;
                if consecutive_reads >= READ_SPIN_LIMIT {
                    return Err(DriverError::WriteFreeStream { stream: stream.name().to_string() });
                }
                continue;
            }
            consecutive_reads = 0;
            let mut served = 0u64;
            while served < run.len {
                let n =
                    (run.len - served).min(cap - dev.wear().demand_writes).min(t.until_sample());
                let done = wl.write_run(run.la, n, dev);
                t.note_served(done, wl, dev);
                if dev.is_dead() || dev.wear().demand_writes >= cap {
                    break 'blocks;
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
                        break 'blocks;
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
    }
    Ok(stats)
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
/// retries mid-span, so they take the scalar serve loop unconditionally,
/// as does a spec with [`TimingSpec::scalar_serve`] set.
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
    mut telemetry: Option<&mut TelemetryRun>,
    timing: &mut TimingRun,
) -> Result<PumpStats, DriverError>
where
    W: WearLeveler + ?Sized,
    S: AddressStream + ?Sized,
{
    if dev.fault_plan_armed() || timing.scalar_serve() {
        return pump_writes_timed_scalar(wl, dev, stream, cap, telemetry, timing);
    }
    let mut scratch = [MemReq::read(0); BLOCK];
    let mut runs: Vec<ReqRun> = Vec::new();
    let mut consecutive_reads = 0u64;
    let stats = PumpStats::default();
    timing.prime(wl, dev);
    'blocks: while !dev.is_dead() && dev.wear().demand_writes < cap {
        feed_observation(stream, dev);
        stream.fill_runs(&mut runs, &mut scratch);
        for run in &runs {
            if !run.write {
                consecutive_reads += run.len;
                if consecutive_reads >= READ_SPIN_LIMIT {
                    return Err(DriverError::WriteFreeStream { stream: stream.name().to_string() });
                }
                continue;
            }
            consecutive_reads = 0;
            let mut served = 0u64;
            while served < run.len {
                let until =
                    telemetry.as_deref().map_or(u64::MAX, |t: &TelemetryRun| t.until_sample());
                let n = wl
                    .quiet_writes(run.la)
                    .min(run.len - served)
                    .min(cap - dev.wear().demand_writes)
                    .min(until);
                let done = if n == 0 {
                    // Not certified quiet (mapping move, CMT miss, trigger
                    // or sample boundary ahead): serve scalar and let the
                    // builder diff the deltas.
                    let pa = wl.write(run.la, dev);
                    timing.observe(true, pa, wl, dev);
                    1
                } else {
                    // The whole span repeats one physical line; the killing
                    // write (if the device dies mid-span) is still served
                    // and observed, exactly as in the scalar loop.
                    let pa = wl.translate(run.la);
                    let done = wl.write_run(run.la, n, dev);
                    debug_assert!(done > 0, "write_run served nothing on a live device");
                    timing.observe_run(true, pa, done, wl, dev);
                    done
                };
                if let Some(t) = telemetry.as_deref_mut() {
                    t.note_served_timed(done, wl, dev, timing);
                }
                served += done;
                if dev.is_dead() || dev.wear().demand_writes >= cap {
                    break 'blocks;
                }
            }
        }
    }
    Ok(stats)
}

/// The scalar serve loop of [`pump_writes_timed`]: one
/// [`WearLeveler::write`] and one observed event per request, with full
/// power-loss recovery. Fault-armed runs use it for correctness; fast
/// runs use it as the measured baseline (`TimingSpec::scalar_serve`).
///
/// A write dropped by a power loss is neither observed by the timing model
/// nor counted as served; the recovery's own data movement is charged to
/// the next observed request's overhead delta.
fn pump_writes_timed_scalar<W, S>(
    wl: &mut W,
    dev: &mut NvmDevice,
    stream: &mut S,
    cap: u64,
    mut telemetry: Option<&mut TelemetryRun>,
    timing: &mut TimingRun,
) -> Result<PumpStats, DriverError>
where
    W: WearLeveler + ?Sized,
    S: AddressStream + ?Sized,
{
    let mut scratch = [MemReq::read(0); BLOCK];
    let mut runs: Vec<ReqRun> = Vec::new();
    let mut consecutive_reads = 0u64;
    let mut stats = PumpStats::default();
    timing.prime(wl, dev);
    'blocks: while !dev.is_dead() && dev.wear().demand_writes < cap {
        feed_observation(stream, dev);
        stream.fill_runs(&mut runs, &mut scratch);
        for run in &runs {
            if !run.write {
                consecutive_reads += run.len;
                if consecutive_reads >= READ_SPIN_LIMIT {
                    return Err(DriverError::WriteFreeStream { stream: stream.name().to_string() });
                }
                continue;
            }
            consecutive_reads = 0;
            let mut served = 0u64;
            while served < run.len {
                let before = dev.wear().demand_writes;
                let pa = wl.write(run.la, dev);
                if dev.power_lost() {
                    // Replay is idempotent; keep recovering until a pass
                    // runs to completion without another scheduled loss.
                    loop {
                        let r = wl.recover(dev);
                        stats.journal_replays += u64::from(r.replayed);
                        stats.journal_rollbacks += u64::from(r.rolled_back);
                        if r.complete {
                            break;
                        }
                    }
                    stats.recoveries += 1;
                    if dev.is_dead() {
                        break 'blocks;
                    }
                    // A dropped write is retried; a landed one is observed
                    // below on the retry path's next iteration only if it
                    // actually advanced the demand counter.
                    served += dev.wear().demand_writes - before;
                    continue;
                }
                timing.observe(true, pa, wl, dev);
                if let Some(t) = telemetry.as_deref_mut() {
                    t.note_served_timed(1, wl, dev, timing);
                }
                served += 1;
                if dev.is_dead() || dev.wear().demand_writes >= cap {
                    break 'blocks;
                }
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sawl_algos::{Ideal, NoWl};
    use sawl_nvm::NvmConfig;
    use sawl_trace::Uniform;

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

    #[test]
    fn pump_observed_matches_scalar_order_across_blocks() {
        let mut wl = NoWl::new(1 << 8);
        let mut dev = device(1 << 8, u32::MAX);
        let mut stream = Uniform::new(1 << 8, 0.5, 3);
        let mut observed: Vec<MemReq> = Vec::new();
        pump_observed(&mut wl, &mut dev, &mut stream, 9_000, |req, _, _, _| observed.push(req));

        let mut reference = Uniform::new(1 << 8, 0.5, 3);
        let expected: Vec<MemReq> = (0..9_000).map(|_| reference.next_req()).collect();
        assert_eq!(observed, expected);
    }
}
