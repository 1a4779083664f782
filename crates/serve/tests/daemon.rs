//! In-process daemon tests: protocol over real TCP, the request-line cap,
//! graceful shutdown, restart recovery, and a bounded multi-tenant soak.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sawl_serve::{Daemon, Endpoint, Request, Response, ServeConfig};
use sawl_simctl::{
    run_lifetime, DeviceSpec, LifetimeExperiment, SchemeSpec, TelemetrySpec, WorkloadSpec,
};

fn small_exp(id: &str, cap: u64) -> LifetimeExperiment {
    LifetimeExperiment {
        id: id.into(),
        scheme: SchemeSpec::PcmS { region_lines: 4, period: 16 },
        workload: WorkloadSpec::Bpa { writes_per_target: 512 },
        data_lines: 1 << 10,
        device: DeviceSpec { endurance: 1_000, ..Default::default() },
        max_demand_writes: cap,
        fault: None,
        telemetry: Some(TelemetrySpec::with_stride(10_000)),
        timing: None,
    }
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sawl-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One request line, one response line, over a fresh connection.
fn call(addr: SocketAddr, req: &Request) -> Response {
    let stream = TcpStream::connect(addr).expect("daemon is listening");
    let mut reader = BufReader::new(stream);
    let json = serde_json::to_string(req).unwrap();
    reader.get_mut().write_all(json.as_bytes()).unwrap();
    reader.get_mut().write_all(b"\n").unwrap();
    reader.get_mut().flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    serde_json::from_str(line.trim()).expect("daemon answers valid JSON")
}

/// Poll until every named tenant reports `finished` (or panic at the deadline).
fn wait_finished(addr: SocketAddr, tenants: &[&str], deadline: Duration) {
    let start = Instant::now();
    loop {
        let Response::Status { tenants: status } = call(addr, &Request::Status) else {
            panic!("status request failed");
        };
        let done = tenants.iter().all(|name| {
            status.iter().any(|t| {
                assert_ne!(t.state, "failed", "tenant {} failed: {:?}", t.tenant, t.error);
                t.tenant == *name && t.state == "finished"
            })
        });
        if done {
            return;
        }
        assert!(start.elapsed() < deadline, "tenants still running after {deadline:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

struct Fixture {
    addr: SocketAddr,
    serve: Option<std::thread::JoinHandle<()>>,
}

impl Fixture {
    fn start(cfg: ServeConfig) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = Daemon::new(cfg).unwrap();
        let serve = std::thread::spawn(move || {
            daemon.serve(vec![Endpoint::Tcp(listener)], || false).unwrap();
        });
        Fixture { addr, serve: Some(serve) }
    }

    fn shutdown(mut self) {
        assert!(matches!(call(self.addr, &Request::Shutdown), Response::ShuttingDown));
        self.serve.take().unwrap().join().unwrap();
    }
}

fn tenant_files(dir: &Path, name: &str) -> [PathBuf; 4] {
    [
        dir.join(format!("{name}.spec.json")),
        dir.join(format!("{name}.ckpt")),
        dir.join(format!("{name}.result.json")),
        dir.join(format!("{name}.telemetry.jsonl")),
    ]
}

#[test]
fn submit_run_and_fetch_results_over_tcp() {
    let dir = unique_dir("tcp");
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 2;
    cfg.slice_batches = 4;
    let fx = Fixture::start(cfg);

    let exp_a = small_exp("serve/tcp-a", 60_000);
    let exp_b = small_exp("serve/tcp-b", 40_000);
    for (name, exp) in [("a", &exp_a), ("b", &exp_b)] {
        let resp = call(fx.addr, &Request::Submit { tenant: name.into(), spec: exp.clone() });
        assert!(matches!(resp, Response::Ok), "{resp:?}");
    }
    assert!(matches!(call(fx.addr, &Request::Ping), Response::Pong));
    wait_finished(fx.addr, &["a", "b"], Duration::from_secs(60));

    for (name, exp) in [("a", &exp_a), ("b", &exp_b)] {
        let reference = run_lifetime(exp).unwrap();
        let Response::Result { tenant, result } =
            call(fx.addr, &Request::Result { tenant: name.into() })
        else {
            panic!("result fetch failed for {name}");
        };
        assert_eq!(tenant, name);
        assert_eq!(*result, reference, "served result diverged for {name}");
        // Byte-identical over the wire too.
        assert_eq!(
            serde_json::to_string(&*result).unwrap(),
            serde_json::to_string(&reference).unwrap(),
        );
        for path in tenant_files(&dir, name) {
            assert!(path.exists(), "missing {}", path.display());
        }
        // The streamed telemetry file is the series' canonical JSON-lines.
        let series = reference.telemetry.as_ref().unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join(format!("{name}.telemetry.jsonl"))).unwrap(),
            series.to_json_lines(),
        );
    }

    fx.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_submissions_are_rejected_with_typed_errors() {
    let dir = unique_dir("reject");
    let fx = Fixture::start(ServeConfig::new(&dir));

    let exp = small_exp("serve/reject", 20_000);
    // Path-hostile name.
    let resp = call(fx.addr, &Request::Submit { tenant: "../evil".into(), spec: exp.clone() });
    assert!(
        matches!(&resp, Response::Error { message } if message.contains("invalid tenant name")),
        "{resp:?}"
    );
    // Timing specs cannot be checkpointed, so the daemon refuses them.
    let mut timed = exp.clone();
    timed.timing = Some(sawl_simctl::TimingSpec::default());
    let resp = call(fx.addr, &Request::Submit { tenant: "timed".into(), spec: timed });
    assert!(matches!(&resp, Response::Error { message } if message.contains("timing")), "{resp:?}");
    // Duplicates.
    assert!(matches!(
        call(fx.addr, &Request::Submit { tenant: "dup".into(), spec: exp.clone() }),
        Response::Ok
    ));
    let resp = call(fx.addr, &Request::Submit { tenant: "dup".into(), spec: exp });
    assert!(
        matches!(&resp, Response::Error { message } if message.contains("already exists")),
        "{resp:?}"
    );
    // Unknown tenants.
    let resp = call(fx.addr, &Request::Result { tenant: "ghost".into() });
    assert!(
        matches!(&resp, Response::Error { message } if message.contains("no tenant")),
        "{resp:?}"
    );
    // Malformed lines answer with an error instead of dropping the link.
    {
        let stream = TcpStream::connect(fx.addr).unwrap();
        let mut reader = BufReader::new(stream);
        reader.get_mut().write_all(b"{\"what\": 1}\n\"Ping\"\n").unwrap();
        reader.get_mut().flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("malformed request"), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "\"Pong\"");
    }

    fx.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_shutdown_checkpoints_and_restart_continues_byte_identically() {
    let dir = unique_dir("graceful");
    // Sized so the run takes a macroscopic fraction of a second even in
    // release builds: the test must reach the shutdown point mid-run. A
    // per-request workload keeps the batched serve loop from collapsing
    // the run into a few bulk spans.
    let mut exp = small_exp("serve/graceful", 10_000_000);
    exp.workload = WorkloadSpec::Zipf { exponent: 0.9, write_ratio: 1.0 };
    exp.device.endurance = 20_000;
    let reference = run_lifetime(&exp).unwrap();

    // First daemon: let the tenant make some progress, then shut down.
    {
        let mut cfg = ServeConfig::new(&dir);
        cfg.workers = 1;
        cfg.slice_batches = 2;
        let fx = Fixture::start(cfg);
        assert!(matches!(
            call(fx.addr, &Request::Submit { tenant: "t".into(), spec: exp.clone() }),
            Response::Ok
        ));
        let start = Instant::now();
        loop {
            let Response::Status { tenants } =
                call(fx.addr, &Request::Tenant { tenant: "t".into() })
            else {
                panic!("status failed");
            };
            let t = &tenants[0];
            assert_ne!(t.state, "failed", "{:?}", t.error);
            if t.state == "finished" {
                panic!("tenant finished before the shutdown point; raise the cap");
            }
            if t.demand_writes > 0 {
                break;
            }
            assert!(start.elapsed() < Duration::from_secs(60), "tenant never progressed");
            std::thread::sleep(Duration::from_millis(10));
        }
        fx.shutdown();
        assert!(dir.join("t.ckpt").exists(), "graceful shutdown must checkpoint");
        assert!(!dir.join("t.result.json").exists(), "tenant must not have finished");
    }

    // Second daemon: recovery resumes the tenant and finishes it.
    {
        let fx = Fixture::start(ServeConfig::new(&dir));
        wait_finished(fx.addr, &["t"], Duration::from_secs(120));
        let Response::Result { result, .. } =
            call(fx.addr, &Request::Result { tenant: "t".into() })
        else {
            panic!("result fetch failed");
        };
        assert_eq!(*result, reference, "resumed run diverged from uninterrupted reference");
        fx.shutdown();
    }

    // Third daemon: a finished tenant stays finished with the same result.
    {
        let fx = Fixture::start(ServeConfig::new(&dir));
        let Response::Result { result, .. } =
            call(fx.addr, &Request::Result { tenant: "t".into() })
        else {
            panic!("result fetch failed after second restart");
        };
        assert_eq!(*result, reference);
        fx.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn uploaded_trace_replays_byte_identically_to_the_live_generator() {
    use sawl_trace::{AddressStream as _, TraceWriter};

    let dir = unique_dir("upload");
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 2;
    cfg.slice_batches = 4;
    let fx = Fixture::start(cfg);

    // The live run: a drifting YCSB workload, capped small.
    let mut live = small_exp("serve/upload", 50_000);
    live.workload = WorkloadSpec::Ycsb {
        hot_lines: 128,
        exponent: 1.1,
        write_ratio: 0.8,
        rotate_every: 4_096,
        drift: 13,
    };
    let reference = run_lifetime(&live).unwrap();

    // Record the same generator to an in-memory trace, oversized so the
    // replayed run hits its demand-write cap before the trace runs out.
    let seed = sawl_simctl::stable_seed(&live.id);
    let mut stream = live.workload.try_build(live.data_lines, seed).unwrap();
    let mut w =
        TraceWriter::with_name(std::io::Cursor::new(Vec::new()), live.data_lines, stream.name())
            .unwrap();
    w.record(stream.as_mut(), 4 * live.max_demand_writes).unwrap();
    let (out, recorded) = w.finish().unwrap();
    let trace_bytes = out.into_inner();

    // Upload it and point a TraceFile submission at the stored path.
    let resp = call(
        fx.addr,
        &Request::UploadTrace {
            name: "ycsb-drift".into(),
            data: sawl_serve::b64::encode(&trace_bytes),
        },
    );
    let Response::TraceStored { path, requests, space_lines } = resp else {
        panic!("upload failed: {resp:?}");
    };
    assert_eq!(requests, recorded);
    assert_eq!(space_lines, live.data_lines);
    assert!(std::fs::read(&path).unwrap() == trace_bytes, "stored trace diverged");

    let mut replay = live.clone();
    replay.workload = WorkloadSpec::TraceFile { path };
    let resp = call(fx.addr, &Request::Submit { tenant: "replay".into(), spec: replay });
    assert!(matches!(resp, Response::Ok), "{resp:?}");
    wait_finished(fx.addr, &["replay"], Duration::from_secs(120));

    let Response::Result { result, .. } =
        call(fx.addr, &Request::Result { tenant: "replay".into() })
    else {
        panic!("result fetch failed");
    };
    assert_eq!(*result, reference, "trace replay diverged from the live generator");
    assert_eq!(
        serde_json::to_string(&*result).unwrap(),
        serde_json::to_string(&reference).unwrap(),
        "wire form must be byte-identical too"
    );

    fx.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_trace_uploads_are_rejected_before_touching_disk() {
    let dir = unique_dir("upload-reject");
    let daemon = Daemon::new(ServeConfig::new(&dir)).unwrap();

    let cases: [(&str, Request, &str); 4] = [
        (
            "path-hostile name",
            Request::UploadTrace { name: "../evil".into(), data: String::new() },
            "invalid trace name",
        ),
        (
            "bad base64",
            Request::UploadTrace { name: "t".into(), data: "not base64!".into() },
            "base64",
        ),
        (
            "wrong magic",
            Request::UploadTrace { name: "t".into(), data: sawl_serve::b64::encode(&[0x41u8; 64]) },
            "bad trace magic",
        ),
        (
            "truncated header",
            Request::UploadTrace { name: "t".into(), data: sawl_serve::b64::encode(b"SAWLTRC2") },
            "shorter than header",
        ),
    ];
    for (what, req, needle) in cases {
        let resp = daemon.handle(req);
        let Response::Error { message } = resp else {
            panic!("{what}: expected an error, got {resp:?}");
        };
        assert!(message.contains(needle), "{what}: {message}");
    }
    assert!(
        !dir.join("t.trc").exists() && !dir.join("t.tmp").exists(),
        "rejected uploads must leave no file behind"
    );

    // A well-formed empty trace is storable and replaceable.
    let mut w = sawl_trace::TraceWriter::new(std::io::Cursor::new(Vec::new()), 64).unwrap();
    w.push(sawl_trace::MemReq { la: 1, write: true }).unwrap();
    let (out, _) = w.finish().unwrap();
    let good = out.into_inner();
    let resp = daemon
        .handle(Request::UploadTrace { name: "t".into(), data: sawl_serve::b64::encode(&good) });
    let Response::TraceStored { requests, space_lines, .. } = resp else {
        panic!("good upload failed: {resp:?}");
    };
    assert_eq!((requests, space_lines), (1, 64));
    assert!(dir.join("t.trc").exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn over_long_request_line_gets_a_typed_error_and_the_daemon_keeps_serving() {
    let dir = unique_dir("linecap");
    let fx = Fixture::start(ServeConfig::new(&dir));

    // One byte past the cap and no newline: the daemon must answer with an
    // error and close, not wait for the line to end.
    let stream = TcpStream::connect(fx.addr).unwrap();
    // A daemon that waits for the newline fails the test instead of hanging it.
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut reader = BufReader::new(stream);
    let flood = vec![b'a'; sawl_serve::protocol::MAX_LINE_BYTES + 1];
    reader.get_mut().write_all(&flood).unwrap();
    reader.get_mut().flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp: Response = serde_json::from_str(line.trim()).expect("daemon answers valid JSON");
    assert!(
        matches!(&resp, Response::Error { message } if message.contains("exceeds")),
        "{resp:?}"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection must close after the error");

    // A second client is served as usual.
    assert!(matches!(call(fx.addr, &Request::Ping), Response::Pong));
    fx.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degenerate_scheme_specs_get_typed_errors_and_the_daemon_keeps_serving() {
    let dir = unique_dir("degenerate");
    let fx = Fixture::start(ServeConfig::new(&dir));

    // Specs whose scheme constructors would panic on the thread serving
    // the connection; the daemon must answer each with a typed error.
    let schemes = [
        SchemeSpec::SingleSr { period: 0 },
        SchemeSpec::Tlsr { region_lines: 64, inner_period: 0, outer_period: 32 },
        SchemeSpec::Tlsr { region_lines: 48, inner_period: 8, outer_period: 32 },
        SchemeSpec::PcmS { region_lines: 4, period: 0 },
        SchemeSpec::SegmentSwap { segment_lines: 64, swap_period: 0 },
        SchemeSpec::Nwl { granularity: 4, cmt_entries: 128, swap_period: 0 },
    ];
    for (i, scheme) in schemes.into_iter().enumerate() {
        let spec = LifetimeExperiment { scheme, ..small_exp("serve/degenerate", 20_000) };
        let resp = call(fx.addr, &Request::Submit { tenant: format!("bad{i}"), spec });
        assert!(
            matches!(&resp, Response::Error { message } if message.contains("period")
                || message.contains("region_lines")),
            "{resp:?}"
        );
        assert!(matches!(call(fx.addr, &Request::Ping), Response::Pong));
    }

    fx.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Peak resident set of this process, from /proc (Linux only).
#[cfg(target_os = "linux")]
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn soak_64_tenants_complete_under_bounded_memory_and_shut_down_promptly() {
    let dir = unique_dir("soak");
    let mut cfg = ServeConfig::new(&dir);
    cfg.slice_batches = 2;
    let daemon = Daemon::new(cfg).unwrap();

    let names: Vec<String> = (0..64).map(|i| format!("soak-{i:02}")).collect();
    for name in &names {
        let resp = daemon.handle(Request::Submit {
            tenant: name.clone(),
            spec: small_exp(&format!("serve/{name}"), 20_000),
        });
        assert!(matches!(resp, Response::Ok), "{resp:?}");
    }

    // Drive without sockets: serve() honours the stop closure even with
    // no endpoints, so a watcher thread acts as the control plane.
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let daemon = Arc::clone(&daemon);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let start = Instant::now();
            loop {
                let status = daemon.status();
                assert!(
                    status.iter().all(|t| t.state != "failed"),
                    "soak tenant failed: {status:?}"
                );
                if status.iter().all(|t| t.state == "finished") {
                    stop.store(true, Ordering::Release);
                    return;
                }
                assert!(
                    start.elapsed() < Duration::from_secs(300),
                    "soak did not complete in time"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    };
    let quiesce = Instant::now();
    daemon.serve(Vec::new(), move || stop.load(Ordering::Acquire)).unwrap();
    watcher.join().unwrap();
    assert!(
        quiesce.elapsed() < Duration::from_secs(300),
        "serve did not quiesce within the deadline"
    );

    for name in &names {
        assert!(dir.join(format!("{name}.result.json")).exists(), "{name} left no result");
    }
    #[cfg(target_os = "linux")]
    if let Some(rss) = peak_rss_bytes() {
        // 64 tiny tenants (2^10-line devices) must stay far under 1 GiB;
        // the ceiling catches accidental per-tenant state blowups.
        assert!(rss < 1 << 30, "peak RSS {} MiB exceeds the soak ceiling", rss >> 20);
    }
    std::fs::remove_dir_all(&dir).ok();
}
