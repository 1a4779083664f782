//! One simulator scenario, set up and pumped from outside the crates.
//!
//! [`run_case`] performs exactly the set-up of `sawl_simctl::run_lifetime`
//! through the public spec builders, timing each builder, and then drives
//! the public pump `run_lifetime` would pick. The result it assembles is
//! the `LifetimeResult` `run_lifetime` returns for the same experiment;
//! the adapter tests pin that byte for byte.

use std::time::Instant;

use sawl_algos::WearLeveler;
use sawl_ckpt::{CkptError, Reader, Writer};
use sawl_simctl::{
    pump_writes_telemetry, pump_writes_timed, stable_seed, DriverError, LifetimeExperiment,
    LifetimeResult, PumpStats, TelemetryRun, TimingRun,
};
use sawl_trace::{AddressStream, CursorKind, MemReq, ReqRun, WearObservation};

use crate::probe::{Probe, SchemeStats, SpanMode, StreamStats, TracedScheme, TracedStream};

/// Host time of each spec builder, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub scheme_ns: u64,
    pub nvm_ns: u64,
    pub trace_ns: u64,
    /// Everything before the first request, telemetry attach included.
    pub total_ns: u64,
}

impl SetupTimes {
    pub fn add(&mut self, o: &Self) {
        self.scheme_ns += o.scheme_ns;
        self.nvm_ns += o.nvm_ns;
        self.trace_ns += o.trace_ns;
        self.total_ns += o.total_ns;
    }
}

/// What the probes saw during one traced scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTrace {
    pub scheme: SchemeStats,
    pub stream: StreamStats,
    /// Host time replaying the demand spans on a fresh device.
    pub replay_ns: u64,
    /// Pump wall time not inside a stream, scheme or replay span.
    pub pump_self_ns: u64,
}

/// One finished scenario.
#[derive(Debug, Clone)]
pub struct CaseRun {
    pub result: LifetimeResult,
    pub setup: SetupTimes,
    /// Host time of the pump call.
    pub pump_ns: u64,
    pub wear_state_bytes: u64,
    pub trace: Option<LayerTrace>,
}

/// Host-time marks taken inside an untraced pump, every `every` calls of
/// `AddressStream::fill_runs` (so every `every` blocks of requests).
/// `every == 0` only counts the calls. [`crate::sim::measure`] times a
/// scenario chunk by chunk between the marks.
#[derive(Debug, Clone, Default)]
pub struct Marks {
    pub every: u64,
    /// `fill_runs` calls the pump made.
    pub calls: u64,
    /// Host time of each mark, from the start of the pump, in nanoseconds.
    pub ns: Vec<u64>,
}

/// Forwards every `AddressStream` method to `inner` and takes the marks.
/// One modulo per block is all it adds to the pump.
struct MarkedStream<'a, S: ?Sized> {
    inner: &'a mut S,
    marks: &'a mut Marks,
    start: Instant,
}

impl<S: AddressStream + ?Sized> AddressStream for MarkedStream<'_, S> {
    fn next_req(&mut self) -> MemReq {
        self.inner.next_req()
    }

    fn fill(&mut self, buf: &mut [MemReq]) -> usize {
        self.inner.fill(buf)
    }

    fn fill_runs(&mut self, runs: &mut Vec<ReqRun>, scratch: &mut [MemReq]) -> u64 {
        let m = &mut *self.marks;
        if m.every > 0 && m.calls.is_multiple_of(m.every) {
            m.ns.push(self.start.elapsed().as_nanos() as u64);
        }
        m.calls += 1;
        self.inner.fill_runs(runs, scratch)
    }

    fn skip_batches(&mut self, batches: u64, scratch: &mut [MemReq]) {
        self.inner.skip_batches(batches, scratch)
    }

    fn space_lines(&self) -> u64 {
        self.inner.space_lines()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn wants_observation(&self) -> bool {
        self.inner.wants_observation()
    }

    fn observe_wear(&mut self, obs: &WearObservation) {
        self.inner.observe_wear(obs)
    }

    fn cursor_kind(&self) -> CursorKind {
        self.inner.cursor_kind()
    }

    fn cursor_save(&self, w: &mut Writer) {
        self.inner.cursor_save(w)
    }

    fn cursor_restore(&mut self, r: &mut Reader) -> Result<(), CkptError> {
        self.inner.cursor_restore(r)
    }
}

/// Set up and run `exp`; with `trace`, through the layer probes.
pub fn run_case(exp: &LifetimeExperiment, trace: bool) -> Result<CaseRun, DriverError> {
    run_case_with(exp, trace, None)
}

/// Set up and run `exp` untraced, taking `marks` inside the pump.
pub fn run_case_marked(
    exp: &LifetimeExperiment,
    marks: &mut Marks,
) -> Result<CaseRun, DriverError> {
    marks.calls = 0;
    marks.ns.clear();
    run_case_with(exp, false, Some(marks))
}

fn run_case_with(
    exp: &LifetimeExperiment,
    trace: bool,
    marks: Option<&mut Marks>,
) -> Result<CaseRun, DriverError> {
    let t0 = Instant::now();
    let seed = stable_seed(&exp.id);
    let phys = exp.scheme.physical_lines(exp.data_lines);
    let mut wl = exp.scheme.try_instantiate(exp.data_lines, seed)?;
    let t1 = Instant::now();
    let mut dev = exp.device.try_build(phys, seed)?;
    let t2 = Instant::now();
    if let Some(plan) = &exp.fault {
        dev.install_fault_plan(plan)?;
    }
    let mut telemetry = match &exp.telemetry {
        Some(spec) if spec.stride == 0 => {
            return Err(DriverError::Spec("telemetry stride must be >= 1".into()));
        }
        Some(spec) => Some(TelemetryRun::new(&exp.id, spec)),
        None => None,
    };
    let t3 = Instant::now();
    let mut stream = exp.workload.try_build(wl.logical_lines(), seed)?;
    let t4 = Instant::now();
    let cap = if exp.max_demand_writes == 0 {
        4 * dev.config().ideal_lifetime_writes()
    } else {
        exp.max_demand_writes
    };
    let mut timing = exp.timing.as_ref().map(|s| TimingRun::new(s, exp.scheme.translation_kind()));

    let (pump, pump_ns, layer, series) = if trace {
        let mode = if timing.is_some() { SpanMode::PerCall } else { SpanMode::PerBlock };
        let probe = Probe::new(mode, exp.device.try_build(phys, seed)?);
        let mut tw = TracedScheme { inner: &mut wl, probe: &probe };
        let mut ts = TracedStream { inner: &mut *stream, probe: &probe };
        if let Some(t) = &telemetry {
            t.attach(&mut tw, &mut dev);
        }
        let start = probe.now();
        let pump = run_pump(&mut tw, &mut dev, &mut ts, cap, telemetry.as_mut(), timing.as_mut());
        probe.close_block();
        let end = probe.now();
        let pump_ns = end - start;
        let in_pump_replay = probe.replay_ns();
        probe.flush_replay();
        let series = telemetry.map(|t| t.finish(&mut tw));
        let scheme = probe.scheme_stats();
        let stream = probe.stream_stats();
        let spans = scheme.busy_ns() + stream.fill_runs_ns + stream.observe_ns + in_pump_replay;
        let layer = LayerTrace {
            scheme,
            stream,
            replay_ns: probe.replay_ns(),
            pump_self_ns: pump_ns.saturating_sub(spans),
        };
        (pump?, pump_ns, Some(layer), series)
    } else {
        if let Some(t) = &telemetry {
            t.attach(&mut wl, &mut dev);
        }
        let start = Instant::now();
        let pump = match marks {
            Some(marks) => {
                let mut ms = MarkedStream { inner: &mut *stream, marks, start };
                run_pump(&mut wl, &mut dev, &mut ms, cap, telemetry.as_mut(), timing.as_mut())
            }
            None => {
                run_pump(&mut wl, &mut dev, &mut *stream, cap, telemetry.as_mut(), timing.as_mut())
            }
        };
        let pump_ns = start.elapsed().as_nanos() as u64;
        let series = telemetry.map(|t| t.finish(&mut wl));
        (pump?, pump_ns, None, series)
    };
    let latency = timing.map(TimingRun::finish);
    let setup = SetupTimes {
        scheme_ns: (t1 - t0).as_nanos() as u64,
        nvm_ns: (t2 - t1).as_nanos() as u64,
        trace_ns: (t4 - t3).as_nanos() as u64,
        total_ns: (t4 - t0).as_nanos() as u64,
    };
    let result = lifetime_result(exp, stream.name().to_string(), &dev, &pump, series, latency);
    Ok(CaseRun { result, setup, pump_ns, wear_state_bytes: dev.wear_state_bytes(), trace: layer })
}

/// The public pump `run_lifetime` picks: timed when `timing` is set.
fn run_pump<W: WearLeveler + ?Sized, S: AddressStream + ?Sized>(
    wl: &mut W,
    dev: &mut sawl_nvm::NvmDevice,
    stream: &mut S,
    cap: u64,
    telemetry: Option<&mut TelemetryRun>,
    timing: Option<&mut TimingRun>,
) -> Result<PumpStats, DriverError> {
    match timing {
        Some(tm) => pump_writes_timed(wl, dev, stream, cap, telemetry, tm),
        None => pump_writes_telemetry(wl, dev, stream, cap, telemetry),
    }
}

/// The `LifetimeResult` `run_lifetime` reports for this final state.
fn lifetime_result(
    exp: &LifetimeExperiment,
    workload: String,
    dev: &sawl_nvm::NvmDevice,
    pump: &PumpStats,
    telemetry: Option<sawl_simctl::Series>,
    latency: Option<sawl_simctl::LatencyReport>,
) -> LifetimeResult {
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
        recoveries: pump.recoveries,
        journal_replays: pump.journal_replays,
        journal_rollbacks: pump.journal_rollbacks,
        spares_remaining: dev.spares_remaining(),
        telemetry,
        latency,
    }
}
