//! The in-process simulator workloads: `bpa-lifetime` and `timed-sweep`.
//!
//! An untraced run repeats the workload's scenarios, serially and in
//! order, until `--seconds` have passed (a warm-up round and at least
//! [`MIN_ROUNDS`] timed rounds), and reports throughput over the sum of
//! each scenario's fastest chunks (see [`measure`]). A traced run
//! makes one untraced round and one traced round, and measures the added
//! cost of the telemetry and timing layers by running the scenarios that
//! carry them with and without the layer.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Instant;

use sawl_simctl::{DriverError, LifetimeExperiment};

use crate::case::{run_case, run_case_marked, CaseRun, Marks, SetupTimes};
use crate::host;
use crate::probe::{SchemeStats, StreamStats};
use crate::report::{committed_digest, digest, median, peak_rss_mib, Metrics, Tally};
use crate::workloads::{Case, DEFAULT_SEED};

/// Fewest timed rounds an untraced run makes, so that `setup_s` is a median.
pub const MIN_ROUNDS: usize = 3;

/// Runs per side when a layer's added cost is measured ([`added_ns`]).
const ADDED_REPS: usize = 2;

/// Scheme labels that get per-scheme metrics, across all workloads.
const SCHEME_LABELS: [&str; 7] = ["baseline", "pcms", "tlsr", "mwsr", "rbsg", "nwl", "sawl"];

/// Run every case once; failures are tallied and the case skipped.
pub fn round(cases: &[Case], tally: &mut Tally, trace: bool) -> Vec<(&'static str, CaseRun)> {
    let mut out = Vec::new();
    for case in cases {
        match run_case(&case.exp, trace) {
            Ok(run) => {
                tally.check(true, String::new);
                out.push((case.label, run));
            }
            Err(e) => tally.check(false, || format!("{}: {e}", case.exp.id)),
        }
    }
    out
}

/// Simulated-output checks that hold for every seed.
fn check_outputs(workload: &str, cases: &[Case], runs: &[(&str, CaseRun)], tally: &mut Tally) {
    tally.check(runs.len() == cases.len(), || format!("{workload}: a scenario failed to run"));
    for (case, (_, run)) in cases.iter().zip(runs) {
        let r = &run.result;
        let id = &case.exp.id;
        if case.exp.max_demand_writes == 0 {
            tally.check(r.device_died && r.demand_writes > 0, || format!("{id}: device survived"));
        } else {
            let cap = case.exp.max_demand_writes;
            tally.check(r.demand_writes == cap, || {
                format!("{id}: served {} of a {cap}-write cap", r.demand_writes)
            });
        }
        if let Some(lat) = &r.latency {
            tally.check(lat.requests == r.demand_writes, || {
                format!("{id}: timing saw {} of {} writes", lat.requests, r.demand_writes)
            });
        }
        if let Some(series) = &r.telemetry {
            let stride = case.exp.telemetry.as_ref().map_or(1, |t| t.stride);
            let want = r.demand_writes / stride;
            tally.check(series.samples.len() as u64 == want, || {
                format!("{id}: {} telemetry samples, expected {want}", series.samples.len())
            });
        }
    }
}

/// Digest of one round's results.
fn round_digest(runs: &[(&str, CaseRun)]) -> String {
    digest(runs.iter().map(|(_, r)| &r.result))
}

/// Compare the default seed's outputs with the committed digest.
fn check_committed(workload: &str, seed: u64, got: &str, tally: &mut Tally) {
    if seed != DEFAULT_SEED {
        return;
    }
    let want = committed_digest(workload);
    tally.check(want.as_deref() == Some(got), || {
        format!("{workload}: digest {got} != committed {want:?}")
    });
}

/// Pump time a chunk of a scenario aims at, between two marks.
const CHUNK_NS: u64 = 1_000_000;

/// One scenario's chunked timing across the timed rounds and lanes.
#[derive(Debug, Default)]
struct Chunked {
    /// Mark every this many `fill_runs` calls (0 in the warm-up round).
    every: u64,
    /// `fill_runs` calls per run, from the warm-up round.
    calls: u64,
    /// The fastest time seen for each chunk, in nanoseconds.
    best_ns: Vec<u64>,
}

impl Chunked {
    /// After the warm-up round: mark about every `CHUNK_NS` of pump time.
    fn plan(&mut self, calls: u64, pump_ns: u64) {
        self.calls = calls;
        let chunks = (pump_ns / CHUNK_NS).clamp(1, calls.max(1));
        self.every = calls.div_ceil(chunks).max(1);
    }

    /// Fold in one timed run whose pump took `pump_ns`.
    fn record(&mut self, marks: &Marks, pump_ns: u64) {
        let bounds: Vec<u64> =
            std::iter::once(0).chain(marks.ns.iter().copied()).chain([pump_ns]).collect();
        let took = bounds.windows(2).map(|w| w[1].saturating_sub(w[0]));
        if self.best_ns.is_empty() {
            self.best_ns = took.collect();
        } else {
            for (best, t) in self.best_ns.iter_mut().zip(took) {
                *best = (*best).min(t);
            }
        }
    }

    fn estimate_ns(&self) -> u64 {
        self.best_ns.iter().sum()
    }
}

/// Copies of a scenario run at once: one per host CPU, at most two.
pub fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One lane's run: the scenario and its marks.
type Lane = (CaseRun, Marks);

/// A further lane: the channel that sends it a scenario and the one its
/// run comes back on.
type Helper<'a> = (mpsc::Sender<(&'a LifetimeExperiment, u64)>, mpsc::Receiver<LaneResult>);

type LaneResult = Result<Lane, DriverError>;

/// Run `exp` untraced, taking marks every `every` blocks.
fn run_lane(exp: &LifetimeExperiment, every: u64) -> LaneResult {
    let mut marks = Marks { every, ..Marks::default() };
    let run = run_case_marked(exp, &mut marks)?;
    Ok((run, marks))
}

/// Run `exp` in this thread and in every helper at the same time.
fn run_lanes<'a>(
    helpers: &[Helper<'a>],
    exp: &'a LifetimeExperiment,
    every: u64,
) -> Vec<LaneResult> {
    for (jobs, _) in helpers {
        jobs.send((exp, every)).expect("lane thread stopped");
    }
    let mut out = vec![run_lane(exp, every)];
    out.extend(helpers.iter().map(|(_, done)| done.recv().expect("lane thread stopped")));
    out
}

/// The further lanes: threads that last as long as [`with_lanes`]' call,
/// so that each keeps its allocator arena and peak RSS does not depend on
/// thread start-up order.
pub struct Lanes<'a> {
    helpers: Vec<Helper<'a>>,
}

/// Call `f` with [`lanes`]` - 1` helper threads running.
pub fn with_lanes<'a, R>(f: impl FnOnce(&Lanes<'a>) -> R) -> R {
    std::thread::scope(|s| {
        let helpers = (1..lanes())
            .map(|_| {
                let (jobs, inbox) = mpsc::channel::<(&LifetimeExperiment, u64)>();
                let (outbox, done) = mpsc::channel();
                s.spawn(move || {
                    for (exp, every) in inbox {
                        if outbox.send(run_lane(exp, every)).is_err() {
                            break;
                        }
                    }
                });
                (jobs, done)
            })
            .collect();
        f(&Lanes { helpers })
    })
}

/// Chunked timing of a list of scenarios over repeated rounds.
///
/// The first round is a warm-up: it runs each scenario once, in this
/// thread only, and counts its stream blocks. Every later round runs each
/// scenario in [`lanes`] threads at once, so that every host CPU the
/// benchmark is given runs the same work at the same time, and times each
/// lane's run in chunks of about `CHUNK_NS`, between marks at fixed block
/// counts, so that a chunk is the same work in every lane and round. A
/// scenario's pump time is the sum over its chunks of the chunk's fastest
/// lane and round. After each scenario, with the lanes idle, this thread
/// samples the [`host`] reference loop.
///
/// The host is shared. Interference from other guests only ever slows a
/// chunk down, comes and goes within seconds, and often holds one host
/// CPU for tens of seconds while the other runs free: the fastest of a
/// chunk's lanes and rounds is the steadiest estimate of the simulator's
/// own speed, and chunks short against the interference catch its gaps,
/// which whole runs seldom do. What remains is the slowing of the whole
/// host, which [`host`] corrects in part.
pub struct ChunkTimer<'a> {
    cases: &'a [Case],
    chunked: Vec<Chunked>,
    /// Each scenario's demand writes, from the warm-up round.
    demand: Vec<u64>,
    warmed: bool,
    /// Each timed round's set-up time, summed over its scenarios (each
    /// scenario's fastest lane), in seconds.
    pub setups: Vec<f64>,
    /// Reference-loop samples, in nanoseconds.
    pub ref_ns: Vec<u64>,
}

impl<'a> ChunkTimer<'a> {
    pub fn new(cases: &'a [Case]) -> Self {
        ChunkTimer {
            cases,
            chunked: cases.iter().map(|_| Chunked::default()).collect(),
            demand: vec![0; cases.len()],
            warmed: false,
            setups: Vec::new(),
            ref_ns: Vec::new(),
        }
    }

    /// Run one round; returns the first lane's runs, in case order.
    /// Lanes that disagree, or a block count that differs from the
    /// warm-up's, count as failures.
    pub fn round(&mut self, lanes: &Lanes<'a>, tally: &mut Tally) -> Vec<(&'static str, CaseRun)> {
        let helpers = if self.warmed { &lanes.helpers[..] } else { &lanes.helpers[..0] };
        let mut runs = Vec::new();
        let mut setup_ns = 0;
        for (i, (case, ch)) in self.cases.iter().zip(&mut self.chunked).enumerate() {
            let id = &case.exp.id;
            let mut done: Vec<Lane> = Vec::new();
            for lane in run_lanes(helpers, &case.exp, ch.every) {
                match lane {
                    Ok(run) => {
                        tally.check(true, String::new);
                        done.push(run);
                    }
                    Err(e) => tally.check(false, || format!("{id}: {e}")),
                }
            }
            let Some(((run, marks), others)) = done.split_first() else { continue };
            let json = |r: &CaseRun| serde_json::to_string(&r.result).expect("results serialize");
            for (other, other_marks) in others {
                tally.check(json(other) == json(run) && other_marks.calls == marks.calls, || {
                    format!("{id}: lanes differ")
                });
            }
            if self.warmed {
                tally.check(marks.calls == ch.calls, || {
                    format!("{id}: {} blocks, warm-up had {}", marks.calls, ch.calls)
                });
                for (r, m) in &done {
                    ch.record(m, r.pump_ns);
                }
                self.ref_ns.extend(host::samples());
                setup_ns += done.iter().map(|(r, ..)| r.setup.total_ns).min().unwrap_or(0);
            } else {
                ch.plan(marks.calls, run.pump_ns);
                self.demand[i] = run.result.demand_writes;
            }
            runs.push((case.label, run.clone()));
        }
        if self.warmed {
            self.setups.push(setup_ns as f64 / 1e9);
        }
        self.warmed = true;
        runs
    }

    /// Raw throughput, in Mw/s, over the scenarios whose label `pick`
    /// accepts.
    pub fn rate(&self, pick: impl Fn(&str) -> bool) -> f64 {
        let (mut demand, mut ns) = (0u64, 0u64);
        for ((case, ch), d) in self.cases.iter().zip(&self.chunked).zip(&self.demand) {
            if pick(case.label) {
                demand += d;
                ns += ch.estimate_ns();
            }
        }
        demand as f64 / ns as f64 * 1e3
    }

    /// Print each scenario's raw throughput.
    pub fn print_cases(&self) {
        for ((case, ch), d) in self.cases.iter().zip(&self.chunked).zip(&self.demand) {
            let mwps = *d as f64 / ch.estimate_ns() as f64 * 1e3;
            println!("  {}: {mwps:.1} Mw/s raw over {} chunks", case.exp.id, ch.best_ns.len());
        }
    }
}

/// The untraced run: end-to-end metrics, from a [`ChunkTimer`] over the
/// workload's scenarios. `peak_rss_mib` is read right after the warm-up
/// round, so it is what one run of every scenario costs.
pub fn measure(workload: &str, cases: &[Case], seed: u64, seconds: f64) -> (Tally, Metrics) {
    with_lanes(|lanes| {
        let mut tally = Tally::default();
        let start = Instant::now();
        let mut timer = ChunkTimer::new(cases);
        let mut first: Option<Vec<(&str, CaseRun)>> = None;
        let mut peak_rss = 0.0;
        while timer.setups.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
            let runs = timer.round(lanes, &mut tally);
            check_outputs(workload, cases, &runs, &mut tally);
            if tally.failed() > 0 {
                break;
            }
            match &first {
                None => {
                    let d = round_digest(&runs);
                    check_committed(workload, seed, &d, &mut tally);
                    println!("digest {workload} {d}");
                    peak_rss = peak_rss_mib();
                    first = Some(runs);
                }
                Some(f) => {
                    let same = round_digest(f) == round_digest(&runs);
                    let n = timer.setups.len();
                    tally.check(same, || format!("{workload}: round {n} differs"));
                }
            }
        }
        timer.print_cases();
        let (mwps, sawl_mwps) = (timer.rate(|_| true), timer.rate(|l| l == "sawl"));
        let speed = host::factor(&timer.ref_ns);
        println!(
            "{workload}: raw mwps {mwps:.1}, sawl_mwps {sawl_mwps:.1}; host factor {speed:.4} \
             over {} samples",
            timer.ref_ns.len()
        );
        let mut m = Metrics::default();
        m.put("mwps", mwps * speed, "Mw/s");
        m.put("sawl_mwps", sawl_mwps * speed, "Mw/s");
        m.put("setup_s", median(&timer.setups), "s");
        m.put("peak_rss_mib", peak_rss, "MiB");
        println!(
            "{workload}: {} lanes, warm-up and {} timed rounds, failed_frac {}",
            lanes.helpers.len() + 1,
            timer.setups.len(),
            tally.failed() as f64 / tally.attempted.max(1) as f64
        );
        (tally, m)
    })
}

/// The traced run: per-layer metrics.
pub fn trace(workload: &str, cases: &[Case], seed: u64) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let plain = round(cases, &mut tally, false);
    check_outputs(workload, cases, &plain, &mut tally);
    let traced = round(cases, &mut tally, true);
    let (d_plain, d_traced) = (round_digest(&plain), round_digest(&traced));
    check_committed(workload, seed, &d_plain, &mut tally);
    tally.check(d_plain == d_traced, || {
        format!("{workload}: traced digest {d_traced} != untraced {d_plain}")
    });
    println!("digest {workload} {d_plain}");

    let timing_added = added_ns("timing", cases, &plain, &mut tally, |e| e.timing.take().is_some());
    let telemetry_added =
        added_ns("telemetry", cases, &plain, &mut tally, |e| e.telemetry.take().is_some());

    write_spans(workload, seed, &traced);
    let mut m = Metrics::default();
    layer_metrics(&mut m, &plain, &traced);
    m.put("timing.added_ns", timing_added, "ns");
    m.put("telemetry.added_ns", telemetry_added, "ns");
    let pump_ns = |runs: &[(&str, CaseRun)]| -> u64 { runs.iter().map(|(_, r)| r.pump_ns).sum() };
    let (plain_ns, traced_ns) = (pump_ns(&plain), pump_ns(&traced));
    m.put("trace_overhead_frac", traced_ns as f64 / plain_ns as f64 - 1.0, "frac");
    (tally, m)
}

/// `layer`'s added cost: the pump time of the scenarios that carry the
/// layer, less the same scenarios with `strip` having removed it. Each
/// side is the fastest of `ADDED_REPS` runs (the untraced round counts
/// as one run with the layer), so that interference does not swamp the
/// difference.
pub fn added_ns(
    layer: &str,
    cases: &[Case],
    plain: &[(&str, CaseRun)],
    tally: &mut Tally,
    strip: fn(&mut LifetimeExperiment) -> bool,
) -> f64 {
    let pump_ns = |exp: &LifetimeExperiment, tally: &mut Tally| -> u64 {
        match run_case(exp, false) {
            Ok(r) => {
                tally.check(true, String::new);
                r.pump_ns
            }
            Err(e) => {
                tally.check(false, || format!("{}: {e}", exp.id));
                u64::MAX
            }
        }
    };
    let (mut with, mut without) = (0u64, 0u64);
    for case in cases {
        let mut exp = case.exp.clone();
        let Some((_, run)) = plain.iter().find(|(_, r)| r.result.id == exp.id) else { continue };
        if !strip(&mut exp) {
            continue;
        }
        let mut w = run.pump_ns;
        let mut wo = u64::MAX;
        for _ in 0..ADDED_REPS {
            wo = wo.min(pump_ns(&exp, tally));
        }
        for _ in 1..ADDED_REPS {
            w = w.min(pump_ns(&case.exp, tally));
        }
        println!(
            "  {}: +{:.1}% pump time with {layer}",
            exp.id,
            (w as f64 / wo as f64 - 1.0) * 100.0
        );
        with += w;
        without += wo;
    }
    with as f64 - without as f64
}

/// Per-layer metrics shared by every workload that runs scenarios
/// in-process: `plain` is the untraced round, `traced` the traced one.
pub fn layer_metrics(m: &mut Metrics, plain: &[(&str, CaseRun)], traced: &[(&str, CaseRun)]) {
    let mut stream = StreamStats::default();
    let mut replay_ns = 0u64;
    let mut pump_self_ns = 0u64;
    let mut schemes: BTreeMap<&str, (SchemeStats, u64, u64)> = BTreeMap::new();
    for (label, run) in traced {
        let t = run.trace.as_ref().expect("traced rounds carry layer traces");
        stream.add(&t.stream);
        replay_ns += t.replay_ns;
        pump_self_ns += t.pump_self_ns;
        let e = schemes.entry(label).or_default();
        e.0.add(&t.scheme);
        e.1 += run.result.demand_writes;
        e.2 += run.result.overhead_writes;
    }
    let mut setup = SetupTimes::default();
    for (_, run) in plain {
        setup.add(&run.setup);
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.put("trace.fill_runs_ns", stream.fill_runs_ns as f64, "ns");
    m.put("trace.fill_runs_calls", stream.fill_runs_calls as f64, "count");
    m.put("trace.reqs_per_run", ratio(stream.reqs, stream.runs), "req/run");
    m.put("trace.observe_ns", stream.observe_ns as f64, "ns");
    m.put("trace.build_ns", setup.trace_ns as f64, "ns");
    m.put("scheme.build_ns", setup.scheme_ns as f64, "ns");
    m.put("nvm.build_ns", setup.nvm_ns as f64, "ns");
    m.put("nvm.replay_ns", replay_ns as f64, "ns");
    let wear_bytes = plain.iter().map(|(_, r)| r.wear_state_bytes).max().unwrap_or(0);
    m.put("nvm.wear_state_bytes", wear_bytes as f64, "B");
    m.put("simctl.pump_self_ns", pump_self_ns as f64, "ns");
    for label in SCHEME_LABELS {
        let (s, demand, overhead) = schemes.get(label).copied().unwrap_or_default();
        m.put(format!("scheme.{label}.write_run_ns"), s.write_run_ns as f64, "ns");
        m.put(format!("scheme.{label}.write_run_calls"), s.write_run_calls as f64, "count");
        m.put(
            format!("scheme.{label}.writes_per_call"),
            ratio(s.write_run_writes, s.write_run_calls),
            "w/call",
        );
        m.put(format!("scheme.{label}.write_ns"), s.write_ns as f64, "ns");
        m.put(format!("scheme.{label}.write_calls"), s.write_calls as f64, "count");
        m.put(format!("scheme.{label}.quiet_ns"), s.quiet_ns as f64, "ns");
        m.put(format!("scheme.{label}.quiet_hit_frac"), ratio(s.quiet_hits, s.quiet_calls), "frac");
        m.put(format!("scheme.{label}.overhead_frac"), ratio(overhead, demand), "frac");
    }
    let timed: Vec<_> = plain.iter().filter_map(|(_, r)| r.result.latency.as_ref()).collect();
    let p99 = timed.iter().map(|l| l.p99_ns).max().unwrap_or(0);
    let trans_miss: f64 = timed.iter().map(|l| l.stall_trans_miss_ns).sum();
    m.put("timing.sim_p99_ns", p99 as f64, "ns");
    m.put("timing.stall_trans_miss_ns", trans_miss, "ns");
    let samples: usize = plain
        .iter()
        .filter_map(|(_, r)| r.result.telemetry.as_ref())
        .map(|s| s.samples.len())
        .sum();
    m.put("telemetry.samples", samples as f64, "count");
}

/// Write the traced round's spans, one JSON object per line: each
/// scenario's pump span and, as its children, the busy time and call
/// count aggregated at every layer boundary. Written to
/// `.bench_build/perfbench-spans-<workload>-s<seed>.jsonl`.
pub fn write_spans(workload: &str, seed: u64, traced: &[(&str, CaseRun)]) {
    let mut out = String::new();
    for (label, run) in traced {
        let Some(t) = &run.trace else { continue };
        let id = &run.result.id;
        let mut span = |name: &str, parent: &str, busy_ns: u64, calls: u64| {
            out.push_str(&format!(
                "{{\"span\": \"{name}\", \"scenario\": \"{id}\", \"scheme\": \"{label}\", \
                 \"parent\": \"{parent}\", \"busy_ns\": {busy_ns}, \"calls\": {calls}}}\n"
            ));
        };
        let s = &t.scheme;
        span("simctl.pump", "", run.pump_ns, 1);
        span("simctl.pump_self", "simctl.pump", t.pump_self_ns, 1);
        span("trace.fill_runs", "simctl.pump", t.stream.fill_runs_ns, t.stream.fill_runs_calls);
        span("trace.observe_wear", "simctl.pump", t.stream.observe_ns, t.stream.observe_calls);
        span("scheme.write_run", "simctl.pump", s.write_run_ns, s.write_run_calls);
        span("scheme.write", "simctl.pump", s.write_ns, s.write_calls);
        span("scheme.quiet_writes", "simctl.pump", s.quiet_ns, s.quiet_calls);
        span("nvm.replay", "", t.replay_ns, 1);
    }
    let dir = std::path::Path::new(".bench_build");
    let path = dir.join(format!("perfbench-spans-{workload}-s{seed}.jsonl"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
