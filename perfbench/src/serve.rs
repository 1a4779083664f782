//! The `serve-tenants` workload: an in-process daemon and one client.
//!
//! One cycle starts a [`Daemon`] with one worker on a fresh state
//! directory and an abstract Unix socket, and one client connection submits the
//! tenant mix of [`workloads::serve_tenants`]. The client then sends
//! `Status` open loop, one every `CTL_PERIOD`, and times each from when
//! it was due. Once half of all demand writes are served it sends
//! `Shutdown`, restarts the daemon on the same state directory, lets the
//! tenants finish and fetches every `Result`, which must be
//! byte-identical to an in-process `run_lifetime` of the same spec.

use std::io::{BufRead, BufReader};
use std::os::linux::net::SocketAddrExt;
use std::os::unix::net::{SocketAddr, UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sawl_serve::{Daemon, Endpoint, Request, Response, ServeConfig};
use sawl_simctl::{run_lifetime, ResumableRun};

use crate::case::CaseRun;
use crate::host;
use crate::report::{committed_digest, median, peak_rss_mib, percentile, Metrics, Tally};
use crate::sim::{added_ns, layer_metrics, round, with_lanes, write_spans, ChunkTimer, MIN_ROUNDS};
use crate::workloads::{self, Case, DEFAULT_SEED};

/// Interval between the client's `Status` requests (500 per second).
const CTL_PERIOD: Duration = Duration::from_millis(2);
/// Demand writes between a tenant's periodic checkpoints: every tenant is
/// checkpointed more than once before it finishes.
const CHECKPOINT_INTERVAL: u64 = 1_000_000;
/// Daemon start-ups on an empty state directory timed for `setup_s`: one
/// start-up takes a few hundred microseconds, so its median needs many.
const STARTS: usize = 25;
/// Restarts on the populated state directory timed per cycle for
/// `restart_s`.
const RESTARTS_PER_CYCLE: usize = 5;
/// A `Status` sent this long after it was due counts as late.
const LATE: Duration = Duration::from_micros(100);
/// Fewest daemon cycles in a traced run.
const TRACE_CYCLES: usize = 3;
/// A daemon phase (to half the demand, or to the end) that takes longer
/// than this counts as hung.
const POLL_LIMIT: Duration = Duration::from_secs(60);
/// No single response may take longer than this.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The in-process reference: `run_lifetime` of every tenant's spec.
struct Reference {
    json: Vec<String>,
    wall_ns: Vec<u64>,
    digest: String,
}

fn reference(tenants: &[(String, Case)], tally: &mut Tally) -> Reference {
    let mut r = Reference { json: Vec::new(), wall_ns: Vec::new(), digest: String::new() };
    let mut results = Vec::new();
    for (_, case) in tenants {
        let t = Instant::now();
        let res = run_lifetime(&case.exp);
        r.wall_ns.push(t.elapsed().as_nanos() as u64);
        match res {
            Ok(res) => {
                tally.check(true, String::new);
                r.json.push(serde_json::to_string(&res).expect("lifetime results serialize"));
                results.push(res);
            }
            Err(e) => {
                // An empty reference matches no daemon result either.
                tally.check(false, || format!("{}: {e}", case.exp.id));
                r.json.push(String::new());
            }
        }
    }
    r.digest = crate::report::digest(&results);
    r
}

fn check_committed(seed: u64, got: &str, tally: &mut Tally) {
    if seed == DEFAULT_SEED {
        let want = committed_digest("serve-tenants");
        tally.check(want.as_deref() == Some(got), || {
            format!("serve-tenants: digest {got} != committed {want:?}")
        });
    }
}

/// One line-JSON connection to the daemon.
struct Client {
    conn: BufReader<UnixStream>,
    line: String,
}

impl Client {
    fn connect(sock: &SocketAddr) -> std::io::Result<Self> {
        let s = UnixStream::connect_addr(sock)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(Client { conn: BufReader::new(s), line: String::new() })
    }

    fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        sawl_serve::write_line(self.conn.get_mut(), req)?;
        self.line.clear();
        if self.conn.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::other("daemon closed the connection"));
        }
        serde_json::from_str(self.line.trim()).map_err(|e| std::io::Error::other(e.to_string()))
    }
}

/// A running daemon: its serve thread and one client.
struct Running {
    daemon: Arc<Daemon>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    client: Client,
}

fn config(dir: &Path) -> ServeConfig {
    ServeConfig { workers: 1, checkpoint_interval: CHECKPOINT_INTERVAL, ..ServeConfig::new(dir) }
}

/// The control socket: an abstract Unix socket, which leaves no file
/// behind and has no path-length limit.
fn control_socket(tag: &str) -> std::io::Result<SocketAddr> {
    SocketAddr::from_abstract_name(format!("sawl-perfbench-{}-{tag}", std::process::id()))
}

/// `Daemon::new` on `dir`, then the socket bound: the start-up time.
fn start(dir: &Path, sock: &SocketAddr) -> std::io::Result<(Arc<Daemon>, UnixListener, Duration)> {
    let t = Instant::now();
    let daemon = Daemon::new(config(dir))?;
    let listener = UnixListener::bind_addr(sock)?;
    Ok((daemon, listener, t.elapsed()))
}

/// Connect, then start serving. Connecting first queues the connection
/// on the bound socket, so the daemon's first accept finds it and the
/// client never waits out the accept loop's idle poll.
fn serve(
    daemon: Arc<Daemon>,
    listener: UnixListener,
    sock: &SocketAddr,
) -> std::io::Result<Running> {
    let client = Client::connect(sock)?;
    let d = Arc::clone(&daemon);
    let thread = std::thread::spawn(move || d.serve(vec![Endpoint::Unix(listener)], || false));
    Ok(Running { daemon, thread, client })
}

impl Running {
    /// `Shutdown`, then wait for the daemon's final checkpoint sweep.
    /// Returns the checkpoints the daemon wrote.
    fn shutdown(mut self, tally: &mut Tally) -> u64 {
        let resp = self.client.call(&Request::Shutdown);
        tally.check(matches!(resp, Ok(Response::ShuttingDown)), || {
            format!("Shutdown answered {resp:?}")
        });
        self.daemon.request_shutdown();
        let joined = self.thread.join();
        tally.check(matches!(joined, Ok(Ok(()))), || format!("daemon exit: {joined:?}"));
        self.daemon.checkpoints_written()
    }
}

/// What one cycle measured.
#[derive(Debug, Default)]
struct Cycle {
    /// First `Submit` sent to last `Result` received, less the extra
    /// restarts timed for `restart_s`.
    region: Duration,
    demand: u64,
    ctl_us: Vec<f64>,
    ctl_late: u64,
    submit_us: Vec<f64>,
    result_us: Vec<f64>,
    restart_s: Vec<f64>,
    checkpoints: u64,
}

/// Open-loop `Status` until `done` says stop. Returns `false` if the
/// daemon stopped answering.
fn poll_status(
    client: &mut Client,
    cycle: &mut Cycle,
    tally: &mut Tally,
    mut done: impl FnMut(u64, bool) -> bool,
) -> bool {
    let started = Instant::now();
    let mut due = started;
    loop {
        if started.elapsed() > POLL_LIMIT {
            tally.check(false, || format!("tenants did not progress within {POLL_LIMIT:?}"));
            return false;
        }
        due += CTL_PERIOD;
        // Sleep to just short of the due time, then spin: a bare sleep
        // overshoots by tens of microseconds, which would read as latency.
        let now = Instant::now();
        if let Some(wait) = due.checked_duration_since(now) {
            if wait > Duration::from_micros(300) {
                std::thread::sleep(wait - Duration::from_micros(300));
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
        }
        if Instant::now() > due + LATE {
            cycle.ctl_late += 1;
        }
        let resp = client.call(&Request::Status);
        cycle.ctl_us.push(due.elapsed().as_secs_f64() * 1e6);
        let tenants = match resp {
            Ok(Response::Status { tenants }) => {
                tally.check(true, String::new);
                tenants
            }
            other => {
                tally.check(false, || format!("Status answered {other:?}"));
                return false;
            }
        };
        let served = tenants.iter().map(|t| t.demand_writes).sum();
        let finished = tenants.iter().all(|t| t.state == "finished");
        if let Some(t) = tenants.iter().find(|t| t.state == "failed") {
            tally.check(false, || format!("tenant {} failed: {:?}", t.tenant, t.error));
            return false;
        }
        if done(served, finished) {
            return true;
        }
    }
}

/// Time `n` daemon start-ups on an empty state directory, each from
/// `Daemon::new` until the daemon answers a first `Ping`. A start-up that
/// finds no tenants leaves the directory as it was.
fn startups(root: &Path, n: usize, tally: &mut Tally) -> std::io::Result<Vec<f64>> {
    let dir = root.join("startup");
    std::fs::create_dir_all(&dir)?;
    let sock = control_socket("startup")?;
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let (daemon, listener, _) = start(&dir, &sock)?;
        let mut run = serve(daemon, listener, &sock)?;
        let pong = run.client.call(&Request::Ping);
        times.push(t.elapsed().as_secs_f64());
        tally.check(matches!(pong, Ok(Response::Pong)), || format!("Ping answered {pong:?}"));
        run.shutdown(tally);
    }
    Ok(times)
}

/// One full cycle: start, submit, half, shutdown, restart, finish.
fn cycle(
    tenants: &[(String, Case)],
    reference: &Reference,
    root: &Path,
    tally: &mut Tally,
) -> std::io::Result<Cycle> {
    let mut c = Cycle::default();
    let dir = root.join("state");
    let sock = control_socket("ctl")?;
    let _ = std::fs::remove_dir_all(&dir);
    let (daemon, listener, _) = start(&dir, &sock)?;
    let mut run = serve(daemon, listener, &sock)?;

    let total: u64 = tenants.iter().map(|(_, t)| t.exp.max_demand_writes).sum();
    let region_start = Instant::now();
    for (name, case) in tenants {
        let t = Instant::now();
        let resp =
            run.client.call(&Request::Submit { tenant: name.clone(), spec: case.exp.clone() });
        c.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        tally.check(matches!(resp, Ok(Response::Ok)), || format!("Submit {name}: {resp:?}"));
    }
    let alive = poll_status(&mut run.client, &mut c, tally, |served, finished| {
        finished || 2 * served >= total
    });
    c.checkpoints += run.shutdown(tally);
    if !alive {
        return Ok(c);
    }

    let mut extra = Duration::ZERO;
    for _ in 1..RESTARTS_PER_CYCLE {
        let t = Instant::now();
        drop(Daemon::new(config(&dir))?);
        let took = t.elapsed();
        c.restart_s.push(took.as_secs_f64());
        extra += took;
    }
    let (daemon, listener, took) = start(&dir, &sock)?;
    c.restart_s.push(took.as_secs_f64());
    let mut run = serve(daemon, listener, &sock)?;
    let alive = poll_status(&mut run.client, &mut c, tally, |_, finished| finished);
    if alive {
        for ((name, _), want) in tenants.iter().zip(&reference.json) {
            let t = Instant::now();
            let resp = run.client.call(&Request::Result { tenant: name.clone() });
            c.result_us.push(t.elapsed().as_secs_f64() * 1e6);
            match resp {
                Ok(Response::Result { result, .. }) => {
                    c.demand += result.demand_writes;
                    let got = serde_json::to_string(&*result).expect("lifetime results serialize");
                    tally.check(got == *want, || format!("{name}: daemon result != run_lifetime"));
                }
                other => tally.check(false, || format!("Result {name}: {other:?}")),
            }
        }
    }
    c.region = region_start.elapsed() - extra;
    c.checkpoints += run.shutdown(tally);
    Ok(c)
}

/// Scratch space for the daemon's state directories, inside the working
/// directory.
fn scratch_root() -> PathBuf {
    let root =
        PathBuf::from(".bench_build").join(format!("perfbench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn run_cycle(
    tenants: &[(String, Case)],
    reference: &Reference,
    root: &Path,
    tally: &mut Tally,
) -> Cycle {
    let made = std::fs::create_dir_all(root).and_then(|()| cycle(tenants, reference, root, tally));
    match made {
        Ok(c) => c,
        Err(e) => {
            tally.check(false, || format!("serve cycle: {e}"));
            Cycle::default()
        }
    }
}

/// The untraced run: end-to-end metrics.
///
/// `setup_s` is the median of `STARTS` start-ups. The in-process
/// reference, which every cycle's results must match, runs once. Then
/// each step runs one daemon cycle and one [`ChunkTimer`] round of the
/// SAWL tenants' specs, which times them for `sawl_mwps` as the simulator
/// workloads time theirs. `mwps` is the fastest cycle's: interference
/// only ever slows a cycle down. Both are corrected for host speed with
/// reference-loop samples taken after every cycle and scenario.
/// `peak_rss_mib` is read after the first step, so it is what one
/// reference, one cycle and one run of each SAWL spec cost.
pub fn measure(seed: u64, seconds: f64) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let tenants = workloads::serve_tenants(seed);
    let sawl: Vec<Case> =
        tenants.iter().filter(|(_, c)| c.label == "sawl").map(|(_, c)| c.clone()).collect();
    let start = Instant::now();
    let root = scratch_root();
    let setup_s =
        match std::fs::create_dir_all(&root).and_then(|()| startups(&root, STARTS, &mut tally)) {
            Ok(t) => t,
            Err(e) => {
                tally.check(false, || format!("daemon start-up: {e}"));
                Vec::new()
            }
        };
    let reference = reference(&tenants, &mut tally);
    check_committed(seed, &reference.digest, &mut tally);
    println!("digest serve-tenants {}", reference.digest);
    let sawl_want: Vec<&String> = tenants
        .iter()
        .zip(&reference.json)
        .filter(|((_, c), _)| c.label == "sawl")
        .map(|(_, json)| json)
        .collect();

    let mut all = Cycle::default();
    let mut best_mwps = 0.0f64;
    let mut cycles = 0;
    let mut cycle_ref_ns = Vec::new();
    let mut peak_rss = 0.0;
    let timer = with_lanes(|lanes| {
        let mut timer = ChunkTimer::new(&sawl);
        while cycles < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
            let c = run_cycle(&tenants, &reference, &root, &mut tally);
            cycle_ref_ns.extend(host::samples());
            best_mwps = best_mwps.max(c.demand as f64 / c.region.as_nanos() as f64 * 1e3);
            all.ctl_us.extend(c.ctl_us);
            all.ctl_late += c.ctl_late;
            all.restart_s.extend(c.restart_s);
            all.checkpoints += c.checkpoints;
            cycles += 1;
            for ((_, run), want) in timer.round(lanes, &mut tally).iter().zip(&sawl_want) {
                let got = serde_json::to_string(&run.result).expect("results serialize");
                tally.check(got == **want, || format!("{}: != run_lifetime", run.result.id));
            }
            if cycles == 1 {
                peak_rss = peak_rss_mib();
            }
            if tally.failed() > 0 {
                break;
            }
        }
        timer
    });
    let _ = std::fs::remove_dir_all(&root);
    timer.print_cases();
    let sawl_mwps = timer.rate(|_| true);
    let ref_ns: Vec<u64> = timer.ref_ns.iter().chain(&cycle_ref_ns).copied().collect();
    let speed = host::factor(&ref_ns);
    println!(
        "serve-tenants: raw mwps {best_mwps:.2}, sawl_mwps {sawl_mwps:.1}; host factor {speed:.4} \
         over {} samples",
        ref_ns.len()
    );
    let mut m = Metrics::default();
    m.put("mwps", best_mwps * speed, "Mw/s");
    m.put("sawl_mwps", sawl_mwps * speed, "Mw/s");
    m.put("setup_s", median(&setup_s), "s");
    m.put("peak_rss_mib", peak_rss, "MiB");
    println!(
        "serve-tenants: {cycles} cycles, ctl p50 {:.1} us, p99 {:.1} us over {} samples \
         ({} late), restart {:.4} s, {} checkpoints, failed_frac {}",
        percentile(&all.ctl_us, 0.5),
        percentile(&all.ctl_us, 0.99),
        all.ctl_us.len(),
        all.ctl_late,
        median(&all.restart_s),
        all.checkpoints,
        tally.failed() as f64 / tally.attempted.max(1) as f64
    );
    (tally, m)
}

/// Save and restore cost of `ResumableRun` on every tenant spec, at the
/// half-way point of each run. The restored run must finish on the
/// reference result.
fn ckpt_layer(
    tenants: &[(String, Case)],
    reference: &Reference,
    root: &Path,
    tally: &mut Tally,
) -> (u64, u64, u64) {
    let (mut save_ns, mut restore_ns, mut bytes) = (0u64, 0u64, 0u64);
    for ((name, case), want) in tenants.iter().zip(&reference.json) {
        let path = root.join(format!("{name}.ckpt"));
        let outcome = (|| -> Result<String, sawl_simctl::DriverError> {
            let mut run = ResumableRun::new(&case.exp)?;
            while 2 * run.demand_writes() < run.cap() && run.step()? {}
            let t = Instant::now();
            run.save(&path)?;
            save_ns += t.elapsed().as_nanos() as u64;
            bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
            drop(run);
            let t = Instant::now();
            let mut run = ResumableRun::resume(&case.exp, &path)?;
            restore_ns += t.elapsed().as_nanos() as u64;
            run.run_to_end()?;
            Ok(serde_json::to_string(&run.into_result()).expect("lifetime results serialize"))
        })();
        match outcome {
            Ok(got) => tally.check(got == *want, || format!("{name}: resumed run != run_lifetime")),
            Err(e) => tally.check(false, || format!("{name}: checkpoint cycle: {e}")),
        }
    }
    (save_ns, restore_ns, bytes)
}

/// The traced run: per-layer metrics.
pub fn trace(seed: u64) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let tenants = workloads::serve_tenants(seed);
    let reference = reference(&tenants, &mut tally);
    check_committed(seed, &reference.digest, &mut tally);
    println!("digest serve-tenants {}", reference.digest);

    let cases: Vec<Case> = tenants.iter().map(|(_, c)| c.clone()).collect();
    let plain = round(&cases, &mut tally, false);
    let traced = round(&cases, &mut tally, true);
    for (label, set) in [("untraced", &plain), ("traced", &traced)] {
        let d = crate::report::digest(set.iter().map(|(_, r)| &r.result));
        tally.check(d == reference.digest, || {
            format!("serve-tenants: {label} digest {d} != run_lifetime {}", reference.digest)
        });
    }
    let telemetry_added =
        added_ns("telemetry", &cases, &plain, &mut tally, |e| e.telemetry.take().is_some());

    let root = scratch_root();
    // Enough cycles that `serve.ctl_p99_us` has at least ten samples
    // beyond it: 1000 `Status` round trips.
    let mut c = Cycle::default();
    let mut overheads = Vec::new();
    let in_process: u64 = reference.wall_ns.iter().sum();
    let mut cycles = 0;
    while cycles < TRACE_CYCLES || (c.ctl_us.len() < 1000 && cycles < 10 * TRACE_CYCLES) {
        cycles += 1;
        let one = run_cycle(&tenants, &reference, &root, &mut tally);
        overheads.push(one.region.as_nanos() as f64 / in_process as f64 - 1.0);
        c.ctl_us.extend(one.ctl_us);
        c.ctl_late += one.ctl_late;
        c.submit_us.extend(one.submit_us);
        c.result_us.extend(one.result_us);
        c.restart_s.extend(one.restart_s);
        c.checkpoints += one.checkpoints;
    }
    let (save_ns, restore_ns, bytes) = ckpt_layer(&tenants, &reference, &root, &mut tally);
    let _ = std::fs::remove_dir_all(&root);

    write_spans("serve-tenants", seed, &traced);
    let mut m = Metrics::default();
    layer_metrics(&mut m, &plain, &traced);
    m.put("timing.added_ns", 0.0, "ns");
    m.put("telemetry.added_ns", telemetry_added, "ns");
    m.put("ckpt.save_ns", save_ns as f64, "ns");
    m.put("ckpt.restore_ns", restore_ns as f64, "ns");
    m.put("ckpt.bytes", bytes as f64, "B");
    m.put("serve.submit_us", median(&c.submit_us), "us");
    m.put("serve.result_us", median(&c.result_us), "us");
    m.put("serve.checkpoints_written", c.checkpoints as f64 / cycles as f64, "count");
    m.put("serve.overhead_frac", median(&overheads), "frac");
    m.put("serve.ctl_p50_us", percentile(&c.ctl_us, 0.5), "us");
    m.put("serve.ctl_p99_us", percentile(&c.ctl_us, 0.99), "us");
    m.put("serve.ctl_samples", c.ctl_us.len() as f64, "count");
    m.put("serve.ctl_late_frac", c.ctl_late as f64 / c.ctl_us.len().max(1) as f64, "frac");
    m.put("serve.restart_s", median(&c.restart_s), "s");
    let pump = |set: &[(&str, CaseRun)]| -> u64 { set.iter().map(|(_, r)| r.pump_ns).sum() };
    m.put("trace_overhead_frac", pump(&traced) as f64 / pump(&plain) as f64 - 1.0, "frac");
    (tally, m)
}
