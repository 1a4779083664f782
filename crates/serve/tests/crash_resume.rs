//! Crash realism against the real binary: SIGKILL a live daemon mid-run,
//! restart it, and pin that every tenant's resumed result — and its
//! streamed telemetry — is byte-identical to an uninterrupted run. Also
//! covers SIGTERM → graceful checkpoint-and-exit-0.
//!
//! The tenants come from `specs/serve_smoke.json` (one plain, one
//! fault-armed with stuck lines, transient faults, and scheduled power
//! losses), the same fixture the CI `serve-smoke` job drives. Both serve a
//! per-request Zipf workload sized to run for over half a second in a
//! release build, so the kill window is open long enough to hit.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sawl_serve::{Request, Response};
use sawl_simctl::{run_lifetime, LifetimeExperiment};

const SMOKE_SPEC: &str = include_str!("../../../specs/serve_smoke.json");

fn smoke_tenants() -> Vec<(String, LifetimeExperiment)> {
    let doc: serde::Value = serde_json::from_str(SMOKE_SPEC).expect("smoke spec parses");
    let serde::Value::Arr(tenants) = doc.get("tenants").expect("tenants key").clone() else {
        panic!("tenants must be an array");
    };
    tenants
        .iter()
        .map(|entry| {
            let serde::Value::Str(name) = entry.get("tenant").expect("tenant name") else {
                panic!("tenant name must be a string");
            };
            let spec = serde::Deserialize::deserialize(entry.get("spec").expect("tenant spec"))
                .expect("tenant spec deserializes as a LifetimeExperiment");
            (name.clone(), spec)
        })
        .collect()
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sawl-serve-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct DaemonProc {
    child: Child,
    addr: String,
}

/// Spawn the real `sawl-serve` binary on a free port and parse the
/// bound address from its `listening on` line.
fn spawn_daemon(state_dir: &Path, extra: &[&str]) -> DaemonProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sawl-serve"))
        .arg("--state-dir")
        .arg(state_dir)
        .args(["--listen", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("sawl-serve spawns");
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("daemon prints its endpoint");
    let addr = line
        .trim()
        .strip_prefix("sawl-serve: listening on tcp://")
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .to_string();
    DaemonProc { child, addr }
}

fn call(addr: &str, req: &Request) -> Response {
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

fn status_of(addr: &str) -> Vec<sawl_serve::TenantStatus> {
    match call(addr, &Request::Status) {
        Response::Status { tenants } => tenants,
        other => panic!("status failed: {other:?}"),
    }
}

#[test]
fn sigkill_then_restart_resumes_byte_identically() {
    let tenants = smoke_tenants();
    assert_eq!(tenants.len(), 2, "smoke fixture hosts two tenants");
    assert!(
        tenants.iter().any(|(_, exp)| exp.fault.is_some()),
        "one smoke tenant must be fault-armed"
    );
    let dir = unique_dir("sigkill");

    // Uninterrupted references, computed in-process.
    let references: Vec<_> =
        tenants.iter().map(|(name, exp)| (name.clone(), run_lifetime(exp).unwrap())).collect();

    // Daemon #1: checkpoint every 50k writes, then SIGKILL mid-run.
    {
        let mut daemon =
            spawn_daemon(&dir, &["--checkpoint-interval", "50000", "--slice-batches", "4"]);
        for (name, exp) in &tenants {
            let resp =
                call(&daemon.addr, &Request::Submit { tenant: name.clone(), spec: exp.clone() });
            assert!(matches!(resp, Response::Ok), "{resp:?}");
        }
        let start = Instant::now();
        loop {
            let status = status_of(&daemon.addr);
            for t in &status {
                assert_ne!(t.state, "failed", "tenant {} failed: {:?}", t.tenant, t.error);
            }
            // Kill once every tenant is past its first periodic checkpoint
            // but none has finished — that is the interesting window.
            let past_ckpt = status.len() == 2 && status.iter().all(|t| t.demand_writes >= 100_000);
            let any_done = status.iter().any(|t| t.state == "finished");
            if past_ckpt || any_done {
                assert!(!any_done, "a tenant finished before the kill; grow its cap");
                break;
            }
            assert!(
                start.elapsed() < Duration::from_secs(120),
                "tenants never reached the kill window: {status:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        daemon.child.kill().expect("SIGKILL");
        daemon.child.wait().unwrap();
    }
    for (name, _) in &tenants {
        assert!(dir.join(format!("{name}.ckpt")).exists(), "{name} left no checkpoint");
        assert!(
            !dir.join(format!("{name}.result.json")).exists(),
            "{name} finished before the kill"
        );
    }

    // Daemon #2: recover, run to completion, compare byte-for-byte.
    {
        let mut daemon = spawn_daemon(&dir, &[]);
        let start = Instant::now();
        loop {
            let status = status_of(&daemon.addr);
            for t in &status {
                assert_ne!(t.state, "failed", "tenant {} failed: {:?}", t.tenant, t.error);
            }
            if status.iter().all(|t| t.state == "finished") {
                break;
            }
            assert!(
                start.elapsed() < Duration::from_secs(300),
                "resumed tenants did not finish: {status:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        for (name, reference) in &references {
            let Response::Result { result, .. } =
                call(&daemon.addr, &Request::Result { tenant: name.clone() })
            else {
                panic!("result fetch failed for {name}");
            };
            assert_eq!(&*result, reference, "{name}: resumed run diverged");
            assert_eq!(
                serde_json::to_string(&*result).unwrap(),
                serde_json::to_string(reference).unwrap(),
                "{name}: wire encoding diverged"
            );
            let series = reference.telemetry.as_ref().expect("smoke specs sample telemetry");
            assert_eq!(
                std::fs::read_to_string(dir.join(format!("{name}.telemetry.jsonl"))).unwrap(),
                series.to_json_lines(),
                "{name}: streamed telemetry diverged"
            );
        }
        assert!(matches!(call(&daemon.addr, &Request::Shutdown), Response::ShuttingDown));
        let code = daemon.child.wait().unwrap();
        assert!(code.success(), "graceful shutdown must exit 0, got {code:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_checkpoints_all_tenants_and_exits_zero() {
    let tenants = smoke_tenants();
    let dir = unique_dir("sigterm");
    let mut daemon = spawn_daemon(&dir, &["--slice-batches", "4"]);
    for (name, exp) in &tenants {
        let resp = call(&daemon.addr, &Request::Submit { tenant: name.clone(), spec: exp.clone() });
        assert!(matches!(resp, Response::Ok), "{resp:?}");
    }
    // Wait for first progress so the runs are genuinely mid-flight.
    let start = Instant::now();
    loop {
        let status = status_of(&daemon.addr);
        if status.len() == 2 && status.iter().all(|t| t.demand_writes > 0) {
            break;
        }
        assert!(start.elapsed() < Duration::from_secs(60), "no progress: {status:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let term =
        Command::new("kill").args(["-TERM", &daemon.child.id().to_string()]).status().unwrap();
    assert!(term.success());
    let code = daemon.child.wait().unwrap();
    assert!(code.success(), "SIGTERM must exit 0, got {code:?}");
    for (name, _) in &tenants {
        assert!(
            dir.join(format!("{name}.ckpt")).exists(),
            "{name}: SIGTERM quiesce must leave a checkpoint"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
