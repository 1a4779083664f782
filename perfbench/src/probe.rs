//! Layer probes: wrappers around the simulator's public trait objects.
//!
//! A traced run hands the public pumps a [`TracedScheme`] and a
//! [`TracedStream`] instead of the bare scheme and stream. Both forward
//! every trait method — the defaulted ones too — to the wrapped object,
//! so a traced run executes the same simulation as an untraced one; the
//! benchmark checks that its outputs are byte-identical. Nothing inside
//! the simulator crates is instrumented.
//!
//! ## Span modes
//!
//! Reading the clock costs tens of nanoseconds, as much as a short
//! `write_run` call, so the untimed pumps are traced per *block*
//! ([`SpanMode::PerBlock`]): the stream wrapper opens a block when
//! `fill_runs` returns and closes it at the pump's next batch boundary
//! (its `wants_observation` call), and the whole interval is charged to
//! the scheme's `write_run`. In an untimed pump nothing but the serve loop
//! (run clamps, `write_run`, telemetry's per-span bookkeeping) runs inside
//! that interval. The timed pump interleaves scheme calls with the timing
//! model inside a block, so it is traced per call ([`SpanMode::PerCall`]),
//! with the measured cost of a clock read subtracted from every span.
//!
//! Spans are aggregated in memory (a count and a busy total per layer
//! boundary) and written out when the run ends.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use sawl_algos::{OpCounts, Recovery, WearLeveler};
use sawl_ckpt::{CkptError, Reader, Writer};
use sawl_nvm::{La, NvmDevice, Pa};
use sawl_trace::{AddressStream, CursorKind, MemReq, ReqRun, WearObservation};

/// How scheme calls are timed; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanMode {
    /// One span per stream block; `write_run` calls are only counted.
    PerBlock,
    /// One span per scheme call.
    PerCall,
}

/// Demand spans buffered before they are replayed on the shadow device.
const REPLAY_CHUNK: usize = 1 << 20;

/// Busy time and call counts at the scheme boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchemeStats {
    pub write_run_ns: u64,
    pub write_run_calls: u64,
    pub write_run_writes: u64,
    pub write_ns: u64,
    pub write_calls: u64,
    pub quiet_ns: u64,
    pub quiet_calls: u64,
    pub quiet_hits: u64,
}

impl SchemeStats {
    pub fn add(&mut self, o: &Self) {
        self.write_run_ns += o.write_run_ns;
        self.write_run_calls += o.write_run_calls;
        self.write_run_writes += o.write_run_writes;
        self.write_ns += o.write_ns;
        self.write_calls += o.write_calls;
        self.quiet_ns += o.quiet_ns;
        self.quiet_calls += o.quiet_calls;
        self.quiet_hits += o.quiet_hits;
    }

    /// Host time spent inside the scheme boundary.
    pub fn busy_ns(&self) -> u64 {
        self.write_run_ns + self.write_ns + self.quiet_ns
    }
}

/// Busy time and call counts at the stream boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    pub fill_runs_ns: u64,
    pub fill_runs_calls: u64,
    /// Requests the `fill_runs` calls covered.
    pub reqs: u64,
    /// Runs the `fill_runs` calls produced.
    pub runs: u64,
    pub observe_ns: u64,
    pub observe_calls: u64,
}

impl StreamStats {
    pub fn add(&mut self, o: &Self) {
        self.fill_runs_ns += o.fill_runs_ns;
        self.fill_runs_calls += o.fill_runs_calls;
        self.reqs += o.reqs;
        self.runs += o.runs;
        self.observe_ns += o.observe_ns;
        self.observe_calls += o.observe_calls;
    }
}

/// Demand spans recorded at the scheme boundary, replayed through
/// [`NvmDevice::write_run`] on a fresh device of the same geometry.
struct Replay {
    dev: NvmDevice,
    spans: Vec<(Pa, u64)>,
    ns: u64,
}

/// The shared recorder of one traced scenario.
pub struct Probe {
    origin: Instant,
    mode: SpanMode,
    clock_cost_ns: u64,
    scheme: Cell<SchemeStats>,
    stream: Cell<StreamStats>,
    /// Start of the open block (`PerBlock` mode), in probe nanoseconds.
    block_start: Cell<Option<u64>>,
    replay: RefCell<Replay>,
}

impl Probe {
    /// A recorder whose replay device is `shadow` (fresh, same geometry
    /// as the scenario's device).
    pub fn new(mode: SpanMode, shadow: NvmDevice) -> Self {
        Probe {
            origin: Instant::now(),
            mode,
            clock_cost_ns: clock_cost_ns(),
            scheme: Cell::new(SchemeStats::default()),
            stream: Cell::new(StreamStats::default()),
            block_start: Cell::new(None),
            replay: RefCell::new(Replay {
                dev: shadow,
                spans: Vec::with_capacity(REPLAY_CHUNK),
                ns: 0,
            }),
        }
    }

    /// Nanoseconds since the probe was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn span_since(&self, start: u64) -> u64 {
        self.now().saturating_sub(start).saturating_sub(self.clock_cost_ns)
    }

    fn with_scheme(&self, f: impl FnOnce(&mut SchemeStats)) {
        let mut s = self.scheme.get();
        f(&mut s);
        self.scheme.set(s);
    }

    fn with_stream(&self, f: impl FnOnce(&mut StreamStats)) {
        let mut s = self.stream.get();
        f(&mut s);
        self.stream.set(s);
    }

    /// Close the open block, if any, charging it to `write_run`. The
    /// pump's batch boundary calls this through the stream wrapper; the
    /// benchmark calls it once more when the pump returns.
    pub fn close_block(&self) {
        if let Some(start) = self.block_start.take() {
            let ns = self.span_since(start);
            self.with_scheme(|s| s.write_run_ns += ns);
        }
    }

    fn record_span(&self, pa: Pa, n: u64) {
        self.replay.borrow_mut().spans.push((pa, n));
    }

    /// Replay the buffered demand spans on the shadow device. Returns the
    /// host time the replay took.
    pub fn flush_replay(&self) -> u64 {
        let mut r = self.replay.borrow_mut();
        let r = &mut *r;
        let t = Instant::now();
        for &(pa, n) in &r.spans {
            if r.dev.is_dead() {
                break;
            }
            r.dev.write_run(pa, n);
        }
        let ns = t.elapsed().as_nanos() as u64;
        r.spans.clear();
        r.ns += ns;
        ns
    }

    /// Host time spent replaying so far.
    pub fn replay_ns(&self) -> u64 {
        self.replay.borrow().ns
    }

    pub fn scheme_stats(&self) -> SchemeStats {
        self.scheme.get()
    }

    pub fn stream_stats(&self) -> StreamStats {
        self.stream.get()
    }
}

/// Median cost of one clock read, subtracted from every span so that the
/// wrappers' own clock reads do not land in the layers they time.
fn clock_cost_ns() -> u64 {
    let mut samples: Vec<u64> = (0..257)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(Instant::now());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A [`WearLeveler`] that times its calls into the wrapped scheme.
pub struct TracedScheme<'a, W: ?Sized> {
    pub inner: &'a mut W,
    pub probe: &'a Probe,
}

impl<W: WearLeveler + ?Sized> WearLeveler for TracedScheme<'_, W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn logical_lines(&self) -> u64 {
        self.inner.logical_lines()
    }

    fn translate(&self, la: La) -> Pa {
        self.inner.translate(la)
    }

    fn write(&mut self, la: La, dev: &mut NvmDevice) -> Pa {
        let t = self.probe.now();
        let pa = self.inner.write(la, dev);
        let ns = self.probe.span_since(t);
        self.probe.with_scheme(|s| {
            s.write_ns += ns;
            s.write_calls += 1;
        });
        self.probe.record_span(pa, 1);
        pa
    }

    fn read(&mut self, la: La, dev: &mut NvmDevice) -> Pa {
        self.inner.read(la, dev)
    }

    fn write_run(&mut self, la: La, n: u64, dev: &mut NvmDevice) -> u64 {
        let pa = self.inner.translate(la);
        let (done, ns) = match self.probe.mode {
            SpanMode::PerBlock => (self.inner.write_run(la, n, dev), 0),
            SpanMode::PerCall => {
                let t = self.probe.now();
                let done = self.inner.write_run(la, n, dev);
                (done, self.probe.span_since(t))
            }
        };
        self.probe.with_scheme(|s| {
            s.write_run_ns += ns;
            s.write_run_calls += 1;
            s.write_run_writes += done;
        });
        self.probe.record_span(pa, done);
        done
    }

    fn quiet_writes(&self, la: La) -> u64 {
        let t = self.probe.now();
        let quiet = self.inner.quiet_writes(la);
        let ns = self.probe.span_since(t);
        self.probe.with_scheme(|s| {
            s.quiet_ns += ns;
            s.quiet_calls += 1;
            s.quiet_hits += u64::from(quiet > 0);
        });
        quiet
    }

    fn recover(&mut self, dev: &mut NvmDevice) -> Recovery {
        self.inner.recover(dev)
    }

    fn onchip_bits(&self) -> u64 {
        self.inner.onchip_bits()
    }

    fn telemetry_sample(&self, out: &mut sawl_telemetry::SchemeSample) {
        self.inner.telemetry_sample(out)
    }

    fn telemetry_events_enable(&mut self, capacity: usize) {
        self.inner.telemetry_events_enable(capacity)
    }

    fn telemetry_events_take(&mut self) -> Option<(Vec<sawl_telemetry::Event>, u64)> {
        self.inner.telemetry_events_take()
    }

    fn op_counts(&self) -> OpCounts {
        self.inner.op_counts()
    }
}

/// An [`AddressStream`] that times its calls into the wrapped stream and
/// marks the pump's batch boundaries for [`SpanMode::PerBlock`].
pub struct TracedStream<'a, S: ?Sized> {
    pub inner: &'a mut S,
    pub probe: &'a Probe,
}

impl<S: AddressStream + ?Sized> AddressStream for TracedStream<'_, S> {
    fn next_req(&mut self) -> MemReq {
        self.inner.next_req()
    }

    fn fill(&mut self, buf: &mut [MemReq]) -> usize {
        self.inner.fill(buf)
    }

    fn fill_runs(&mut self, runs: &mut Vec<ReqRun>, scratch: &mut [MemReq]) -> u64 {
        self.probe.close_block();
        if self.probe.replay.borrow().spans.len() >= REPLAY_CHUNK {
            self.probe.flush_replay();
        }
        let t = self.probe.now();
        let reqs = self.inner.fill_runs(runs, scratch);
        let end = self.probe.now();
        let ns = end.saturating_sub(t).saturating_sub(self.probe.clock_cost_ns);
        let produced = runs.len() as u64;
        self.probe.with_stream(|s| {
            s.fill_runs_ns += ns;
            s.fill_runs_calls += 1;
            s.reqs += reqs;
            s.runs += produced;
        });
        if self.probe.mode == SpanMode::PerBlock {
            self.probe.block_start.set(Some(end));
        }
        reqs
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
        // The pump asks this first thing at every batch boundary.
        self.probe.close_block();
        self.inner.wants_observation()
    }

    fn observe_wear(&mut self, obs: &WearObservation) {
        let t = self.probe.now();
        self.inner.observe_wear(obs);
        let ns = self.probe.span_since(t);
        self.probe.with_stream(|s| {
            s.observe_ns += ns;
            s.observe_calls += 1;
        });
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
