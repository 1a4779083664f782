//! Tenant state: one scheme × device × workload run hosted by the daemon.
//!
//! ## State-dir layout
//!
//! Each tenant owns a family of files under the daemon's state
//! directory, keyed by its (path-safe) name:
//!
//! | file | written | purpose |
//! |---|---|---|
//! | `<name>.spec.json`      | at submit            | rebuild the run after a restart |
//! | `<name>.ckpt`           | periodically, atomically | resume cursor ([`sawl_ckpt`] frame) |
//! | `<name>.progress.jsonl` | appended per slice   | streaming progress lines |
//! | `<name>.telemetry.jsonl`| once, at finish      | the sampled series, JSON-lines form |
//! | `<name>.result.json`    | once, at finish      | the final [`LifetimeResult`] |
//!
//! The spec and result files are written with the same tmp + fsync +
//! rename discipline as checkpoints, so a crash at any instant leaves
//! either the old file or the new one — never a torn half. Recovery
//! logic ([`crate::daemon::Daemon::new`]) keys off exactly these files:
//! a result file means the tenant is done, a checkpoint file means it
//! resumes mid-run, a bare spec file means it restarts from scratch —
//! all three land on the same bytes an uninterrupted run produces.

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

use sawl_simctl::{LifetimeResult, ResumableRun};
use serde::Serialize;

use crate::protocol::TenantStatus;

/// Phase mirror for lock-free status queries (`Tenant::phase`).
pub(crate) const PHASE_RUNNING: u8 = 0;
pub(crate) const PHASE_FINISHED: u8 = 1;
pub(crate) const PHASE_FAILED: u8 = 2;

/// Where a tenant's run currently lives.
pub(crate) enum TenantState {
    /// In progress; `last_ckpt` is the demand-write mark of the latest
    /// checkpoint, driving the periodic-save interval.
    Running { run: Box<ResumableRun>, last_ckpt: u64 },
    /// Ran to completion; the result is served from memory.
    Finished(Box<LifetimeResult>),
    /// Died with an error; the message is served from status queries.
    Failed(String),
}

/// One hosted tenant. The mutable run lives behind a mutex a worker
/// holds for the length of a slice; the atomics mirror its progress so
/// status queries never contend with the pump.
pub(crate) struct Tenant {
    pub(crate) name: String,
    pub(crate) state: Mutex<TenantState>,
    pub(crate) phase: AtomicU8,
    pub(crate) demand_writes: AtomicU64,
    pub(crate) cap: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) error: Mutex<Option<String>>,
}

impl Tenant {
    /// Wrap a freshly built or resumed run.
    pub(crate) fn running(name: String, run: ResumableRun) -> Self {
        let t = Tenant {
            name,
            phase: AtomicU8::new(PHASE_RUNNING),
            demand_writes: AtomicU64::new(run.demand_writes()),
            cap: AtomicU64::new(run.cap()),
            batches: AtomicU64::new(run.batches()),
            error: Mutex::new(None),
            state: Mutex::new(TenantState::Running { run: Box::new(run), last_ckpt: 0 }),
        };
        // A resumed run starts its periodic-save clock from its cursor,
        // not from zero, so resume does not immediately re-checkpoint.
        if let TenantState::Running { run, last_ckpt } = &mut *t.state.lock().unwrap() {
            *last_ckpt = run.demand_writes();
        }
        t
    }

    /// Wrap an already-finished result (restart after completion).
    pub(crate) fn finished(name: String, result: LifetimeResult) -> Self {
        Tenant {
            name,
            phase: AtomicU8::new(PHASE_FINISHED),
            demand_writes: AtomicU64::new(result.demand_writes),
            cap: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            error: Mutex::new(None),
            state: Mutex::new(TenantState::Finished(Box::new(result))),
        }
    }

    /// Wrap a tenant that could not be rebuilt or failed mid-run.
    pub(crate) fn failed(name: String, message: String) -> Self {
        Tenant {
            name,
            phase: AtomicU8::new(PHASE_FAILED),
            demand_writes: AtomicU64::new(0),
            cap: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            error: Mutex::new(Some(message.clone())),
            state: Mutex::new(TenantState::Failed(message)),
        }
    }

    /// Record a failure in both the state and the lock-free mirrors.
    pub(crate) fn mark_failed(&self, state: &mut TenantState, message: String) {
        *self.error.lock().unwrap() = Some(message.clone());
        *state = TenantState::Failed(message);
        self.phase.store(PHASE_FAILED, Ordering::Release);
    }

    /// Refresh the lock-free progress mirrors from the run.
    pub(crate) fn publish_progress(&self, run: &ResumableRun) {
        self.demand_writes.store(run.demand_writes(), Ordering::Release);
        self.cap.store(run.cap(), Ordering::Release);
        self.batches.store(run.batches(), Ordering::Release);
    }

    /// Snapshot for a status response — reads only the mirrors.
    pub(crate) fn status(&self) -> TenantStatus {
        let state = match self.phase.load(Ordering::Acquire) {
            PHASE_FINISHED => "finished",
            PHASE_FAILED => "failed",
            _ => "running",
        };
        TenantStatus {
            tenant: self.name.clone(),
            state: state.into(),
            demand_writes: self.demand_writes.load(Ordering::Acquire),
            cap: self.cap.load(Ordering::Acquire),
            batches: self.batches.load(Ordering::Acquire),
            error: self.error.lock().unwrap().clone(),
        }
    }
}

/// A tenant name is a filename fragment; keep it path-safe.
pub(crate) fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        && !name.starts_with('.')
}

/// The four per-tenant file paths under `dir`.
pub(crate) struct TenantPaths {
    pub(crate) spec: PathBuf,
    pub(crate) ckpt: PathBuf,
    pub(crate) progress: PathBuf,
    pub(crate) telemetry: PathBuf,
    pub(crate) result: PathBuf,
}

/// Suffix of the spec file, the key recovery scans for.
pub(crate) const SPEC_SUFFIX: &str = ".spec.json";

pub(crate) fn paths(dir: &Path, name: &str) -> TenantPaths {
    TenantPaths {
        spec: dir.join(format!("{name}{SPEC_SUFFIX}")),
        ckpt: dir.join(format!("{name}.ckpt")),
        progress: dir.join(format!("{name}.progress.jsonl")),
        telemetry: dir.join(format!("{name}.telemetry.jsonl")),
        result: dir.join(format!("{name}.result.json")),
    }
}

/// Write `value` as pretty JSON atomically: tmp + fsync + rename, the
/// same crash discipline as [`sawl_ckpt::write_file`].
pub(crate) fn write_json_atomic<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut bytes = json.into_bytes();
    bytes.push(b'\n');
    write_bytes_atomic(path, &bytes)
}

/// Write raw bytes atomically with the same tmp + fsync + rename
/// discipline as [`write_json_atomic`] — used for uploaded traces.
pub(crate) fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        // Make the rename itself durable.
        if let Ok(d) = File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Where an uploaded trace named `name` lives under `dir`. The `.trc`
/// suffix keeps traces out of the tenant-recovery scan (which keys on
/// [`SPEC_SUFFIX`]).
pub(crate) fn trace_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.trc"))
}

/// Append one JSON line to the tenant's progress stream. Progress lines
/// are observability, not state — an append lost to a crash costs
/// nothing, so plain buffered append is enough.
pub(crate) fn append_progress_line<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_string(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(json.as_bytes())?;
    f.write_all(b"\n")
}

/// One slice-boundary progress line. Owned fields: the vendored serde
/// derive does not handle lifetime parameters.
#[derive(Serialize)]
pub(crate) struct ProgressLine {
    pub(crate) line: String,
    pub(crate) tenant: String,
    pub(crate) demand_writes: u64,
    pub(crate) cap: u64,
    pub(crate) batches: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_must_be_path_safe() {
        for good in ["a", "tenant-1", "x.y_z", "A9"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".hidden", "a/b", "a b", "über", &"x".repeat(129)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn atomic_json_write_replaces_and_survives_reread() {
        let dir = std::env::temp_dir().join("sawl-serve-tenant-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("value.json");
        write_json_atomic(&path, &vec![1u64, 2, 3]).unwrap();
        write_json_atomic(&path, &vec![4u64]).unwrap();
        let back: Vec<u64> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, vec![4]);
        assert!(!path.with_extension("tmp").exists(), "tmp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
