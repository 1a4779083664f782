//! The daemon: tenant registry, worker pool, control listeners,
//! graceful shutdown, and crash recovery.
//!
//! ## Scheduling
//!
//! Tenants shard across a fixed worker pool through an unbounded MPMC
//! [`crossbeam::channel`]: submit (and recovery) enqueue the tenant,
//! a worker dequeues it, runs one *slice* ([`ServeConfig::slice_batches`]
//! stream batches) under the tenant's state lock, then re-enqueues it if
//! unfinished. Slices keep long runs from starving short ones while the
//! per-slice locking keeps each tenant's run strictly sequential — the
//! byte-identity contract of [`ResumableRun`] needs nothing more.
//!
//! ## Crash safety
//!
//! Workers checkpoint a tenant whenever it has served
//! [`ServeConfig::checkpoint_interval`] demand writes since its last
//! save, and once more when it finishes. Graceful shutdown (socket
//! `Shutdown` command or the binary's SIGTERM latch) stops the accept
//! loops, drains the workers at their next batch boundary, then sweeps
//! every still-running tenant through one final checkpoint. A SIGKILL
//! loses at most the work since the last checkpoint; restart resumes
//! from the state directory and lands on the same bytes an
//! uninterrupted run produces.

use std::collections::BTreeMap;
use std::io;
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crossbeam::channel;
use sawl_simctl::{LifetimeExperiment, LifetimeResult, ResumableRun, DEFAULT_CHECKPOINT_INTERVAL};
use sawl_trace::AddressStream as _;

use crate::protocol::{serve_connection, Request, Response, TenantStatus};
use crate::tenant::{
    append_progress_line, paths, trace_path, valid_name, write_bytes_atomic, write_json_atomic,
    ProgressLine, Tenant, TenantState, PHASE_FINISHED, SPEC_SUFFIX,
};

/// An accepted client connection, served on its own thread.
type Connection = Box<dyn FnOnce(&Daemon) + Send>;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Where per-tenant spec/checkpoint/result files live.
    pub state_dir: PathBuf,
    /// Worker threads; `0` sizes to the machine.
    pub workers: usize,
    /// Demand writes between periodic checkpoints of each tenant.
    pub checkpoint_interval: u64,
    /// Stream batches per scheduling slice.
    pub slice_batches: u64,
}

impl ServeConfig {
    /// Defaults for `state_dir`: machine-sized workers, the library
    /// checkpoint interval, 64-batch slices.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            state_dir: state_dir.into(),
            workers: 0,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            slice_batches: 64,
        }
    }

    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    }
}

/// A control-socket endpoint the daemon accepts connections on.
pub enum Endpoint {
    /// A bound TCP listener.
    Tcp(TcpListener),
    /// A bound Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

/// The multi-tenant simulation daemon. See the [module docs](self).
pub struct Daemon {
    cfg: ServeConfig,
    tenants: Mutex<BTreeMap<String, Arc<Tenant>>>,
    queue_tx: channel::Sender<Arc<Tenant>>,
    queue_rx: channel::Receiver<Arc<Tenant>>,
    shutdown: AtomicBool,
    /// Checkpoint files written over the daemon's lifetime (observability).
    checkpoints_written: AtomicU64,
}

impl Daemon {
    /// Create the state directory if needed, recover every tenant whose
    /// spec file is present (resuming from checkpoints where they
    /// exist), and return the daemon ready to [`serve`](Self::serve).
    ///
    /// Recovery is forgiving per tenant: a spec that no longer parses or
    /// a checkpoint that fails validation marks that tenant `failed` and
    /// the daemon keeps going — one rotten file must not take down the
    /// other tenants.
    pub fn new(cfg: ServeConfig) -> io::Result<Arc<Self>> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        let (queue_tx, queue_rx) = channel::unbounded();
        let daemon = Arc::new(Daemon {
            cfg,
            tenants: Mutex::new(BTreeMap::new()),
            queue_tx,
            queue_rx,
            shutdown: AtomicBool::new(false),
            checkpoints_written: AtomicU64::new(0),
        });
        daemon.recover()?;
        Ok(daemon)
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Checkpoint files written so far.
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written.load(Ordering::Relaxed)
    }

    /// Ask the daemon to quiesce; `serve` returns once workers drain.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Whether shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn recover(self: &Arc<Self>) -> io::Result<()> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.cfg.state_dir)? {
            let entry = entry?;
            let file = entry.file_name();
            let Some(file) = file.to_str() else { continue };
            if let Some(name) = file.strip_suffix(SPEC_SUFFIX) {
                names.push(name.to_string());
            }
        }
        names.sort();
        for name in names {
            let tenant = self.recover_tenant(&name);
            let running = !matches!(
                &*tenant.state.lock().unwrap(),
                TenantState::Finished(_) | TenantState::Failed(_)
            );
            let tenant = Arc::new(tenant);
            self.tenants.lock().unwrap().insert(name, Arc::clone(&tenant));
            if running {
                let _ = self.queue_tx.send(tenant);
            }
        }
        Ok(())
    }

    fn recover_tenant(&self, name: &str) -> Tenant {
        let p = paths(&self.cfg.state_dir, name);
        let spec = match std::fs::read_to_string(&p.spec)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str::<LifetimeExperiment>(&s).map_err(|e| e.to_string()))
        {
            Ok(spec) => spec,
            Err(e) => {
                return Tenant::failed(
                    name.into(),
                    format!("cannot reload spec {}: {e}", p.spec.display()),
                )
            }
        };
        if p.result.exists() {
            return match std::fs::read_to_string(&p.result)
                .map_err(|e| e.to_string())
                .and_then(|s| serde_json::from_str::<LifetimeResult>(&s).map_err(|e| e.to_string()))
            {
                Ok(result) => Tenant::finished(name.into(), result),
                Err(e) => Tenant::failed(
                    name.into(),
                    format!("cannot reload result {}: {e}", p.result.display()),
                ),
            };
        }
        let run = if p.ckpt.exists() {
            ResumableRun::resume(&spec, &p.ckpt)
        } else {
            ResumableRun::new(&spec)
        };
        match run {
            Ok(run) => Tenant::running(name.into(), run),
            Err(e) => Tenant::failed(name.into(), e.to_string()),
        }
    }

    /// Handle one protocol request. Public so tests (and embedders) can
    /// drive the daemon without a socket.
    pub fn handle(&self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Submit { tenant, spec } => self.submit(tenant, spec),
            Request::UploadTrace { name, data } => self.upload_trace(&name, &data),
            Request::Status => Response::Status { tenants: self.status() },
            Request::Tenant { tenant } => match self.tenants.lock().unwrap().get(&tenant) {
                Some(t) => Response::Status { tenants: vec![t.status()] },
                None => Response::error(format!("no tenant {tenant:?}")),
            },
            Request::Result { tenant } => self.result(&tenant),
            Request::Checkpoint => match self.checkpoint_running() {
                Ok(n) => Response::Checkpointed { tenants: n },
                Err(e) => Response::error(e),
            },
            Request::Shutdown => {
                self.request_shutdown();
                Response::ShuttingDown
            }
        }
    }

    /// Progress of every tenant, alphabetical (BTreeMap order).
    pub fn status(&self) -> Vec<TenantStatus> {
        self.tenants.lock().unwrap().values().map(|t| t.status()).collect()
    }

    fn submit(&self, name: String, spec: LifetimeExperiment) -> Response {
        if self.shutting_down() {
            return Response::error("daemon is shutting down");
        }
        if !valid_name(&name) {
            return Response::error(format!(
                "invalid tenant name {name:?}: use 1-128 chars of [A-Za-z0-9._-], \
                 not starting with a dot"
            ));
        }
        {
            let tenants = self.tenants.lock().unwrap();
            if tenants.contains_key(&name) {
                return Response::error(format!("tenant {name:?} already exists"));
            }
        }
        let run = match ResumableRun::new(&spec) {
            Ok(run) => run,
            Err(e) => return Response::error(format!("cannot start {name:?}: {e}")),
        };
        let tenant = Arc::new(Tenant::running(name.clone(), run));
        {
            let mut tenants = self.tenants.lock().unwrap();
            // Re-check under the lock: a racing submit may have won.
            if tenants.contains_key(&name) {
                return Response::error(format!("tenant {name:?} already exists"));
            }
            tenants.insert(name.clone(), Arc::clone(&tenant));
        }
        // Persist the spec only after winning the name, so a lost race
        // cannot clobber the winner's file.
        let p = paths(&self.cfg.state_dir, &name);
        if let Err(e) = write_json_atomic(&p.spec, &spec) {
            self.tenants.lock().unwrap().remove(&name);
            return Response::error(format!("cannot persist spec for {name:?}: {e}"));
        }
        let _ = self.queue_tx.send(tenant);
        Response::Ok
    }

    /// Validate and store an uploaded trace under the state directory.
    /// The bytes must parse as a complete trace (magic, header, whole
    /// records) before anything is written — a daemon never hosts a
    /// trace file it could not itself replay.
    fn upload_trace(&self, name: &str, data: &str) -> Response {
        if self.shutting_down() {
            return Response::error("daemon is shutting down");
        }
        if !valid_name(name) {
            return Response::error(format!(
                "invalid trace name {name:?}: use 1-128 chars of [A-Za-z0-9._-], \
                 not starting with a dot"
            ));
        }
        let bytes = match crate::b64::decode(data) {
            Ok(b) => b,
            Err(e) => return Response::error(format!("trace upload {name:?}: {e}")),
        };
        let reader = match sawl_trace::TraceReader::from_reader(&bytes[..]) {
            Ok(r) => r,
            Err(e) => return Response::error(format!("trace upload {name:?}: {e}")),
        };
        let path = trace_path(&self.cfg.state_dir, name);
        if let Err(e) = write_bytes_atomic(&path, &bytes) {
            return Response::error(format!("cannot store trace {name:?}: {e}"));
        }
        Response::TraceStored {
            path: path.display().to_string(),
            requests: reader.len(),
            space_lines: reader.space_lines(),
        }
    }

    fn result(&self, name: &str) -> Response {
        let tenant = match self.tenants.lock().unwrap().get(name) {
            Some(t) => Arc::clone(t),
            None => return Response::error(format!("no tenant {name:?}")),
        };
        let state = tenant.state.lock().unwrap();
        match &*state {
            TenantState::Finished(result) => {
                Response::Result { tenant: name.into(), result: result.clone() }
            }
            TenantState::Running { run, .. } => Response::error(format!(
                "tenant {name:?} is still running ({} / {} demand writes)",
                run.demand_writes(),
                run.cap()
            )),
            TenantState::Failed(msg) => Response::error(format!("tenant {name:?} failed: {msg}")),
        }
    }

    /// Checkpoint every running tenant now. Returns how many were saved.
    fn checkpoint_running(&self) -> Result<u64, String> {
        let tenants: Vec<Arc<Tenant>> = self.tenants.lock().unwrap().values().cloned().collect();
        let mut saved = 0;
        for tenant in tenants {
            let mut state = tenant.state.lock().unwrap();
            if let TenantState::Running { run, last_ckpt } = &mut *state {
                let p = paths(&self.cfg.state_dir, &tenant.name);
                run.save(&p.ckpt).map_err(|e| e.to_string())?;
                *last_ckpt = run.demand_writes();
                self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
                saved += 1;
            }
        }
        Ok(saved)
    }

    /// Run one scheduling slice of `tenant`. Returns whether the tenant
    /// should be re-enqueued (still running).
    fn run_slice(&self, tenant: &Tenant) -> bool {
        let mut state = tenant.state.lock().unwrap();
        let TenantState::Running { run, last_ckpt } = &mut *state else {
            return false;
        };
        let p = paths(&self.cfg.state_dir, &tenant.name);
        let mut failure: Option<String> = None;
        let mut finished = false;
        for _ in 0..self.cfg.slice_batches.max(1) {
            match run.step() {
                Ok(true) => {
                    if run.demand_writes().saturating_sub(*last_ckpt)
                        >= self.cfg.checkpoint_interval
                    {
                        match run.save(&p.ckpt) {
                            Ok(()) => {
                                *last_ckpt = run.demand_writes();
                                self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => {
                                failure = Some(e.to_string());
                                break;
                            }
                        }
                    }
                    if self.shutting_down() {
                        break;
                    }
                }
                Ok(false) => {
                    finished = true;
                    break;
                }
                Err(e) => {
                    failure = Some(e.to_string());
                    break;
                }
            }
        }
        tenant.publish_progress(run);
        let _ = append_progress_line(
            &p.progress,
            &ProgressLine {
                line: "progress".into(),
                tenant: tenant.name.clone(),
                demand_writes: run.demand_writes(),
                cap: run.cap(),
                batches: run.batches(),
            },
        );
        if let Some(msg) = failure {
            tenant.mark_failed(&mut state, msg);
            return false;
        }
        if finished {
            // Final checkpoint first: a crash between here and the result
            // write resumes into an already-finished run and reproduces
            // the result on the next restart.
            if let Err(e) = run.save(&p.ckpt) {
                tenant.mark_failed(&mut state, e.to_string());
                return false;
            }
            self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
            let prev = std::mem::replace(&mut *state, TenantState::Failed("finishing".into()));
            let TenantState::Running { run, .. } = prev else { unreachable!() };
            let result = run.into_result();
            if let Some(series) = &result.telemetry {
                let _ = std::fs::write(&p.telemetry, series.to_json_lines());
            }
            if let Err(e) = write_json_atomic(&p.result, &result) {
                tenant.mark_failed(&mut state, format!("cannot persist result: {e}"));
                return false;
            }
            tenant.demand_writes.store(result.demand_writes, Ordering::Release);
            *state = TenantState::Finished(Box::new(result));
            tenant.phase.store(PHASE_FINISHED, Ordering::Release);
            return false;
        }
        true
    }

    fn worker(&self) {
        loop {
            match self.queue_rx.recv_timeout(Duration::from_millis(25)) {
                Ok(tenant) => {
                    let requeue = self.run_slice(&tenant);
                    if self.shutting_down() {
                        // Quiesce: the final checkpoint sweep in `serve`
                        // captures whatever this slice did not save.
                        break;
                    }
                    if requeue {
                        let _ = self.queue_tx.send(tenant);
                    }
                }
                Err(channel::RecvTimeoutError::Timeout) => {
                    if self.shutting_down() {
                        break;
                    }
                }
                Err(channel::RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    fn accept_loop(self: &Arc<Self>, endpoint: Endpoint, stop: impl Fn() -> bool) {
        match &endpoint {
            Endpoint::Tcp(l) => {
                let _ = l.set_nonblocking(true);
            }
            #[cfg(unix)]
            Endpoint::Unix(l) => {
                let _ = l.set_nonblocking(true);
            }
        }
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.shutting_down() {
                break;
            }
            if stop() {
                self.request_shutdown();
                break;
            }
            let accepted: Option<Connection> = match &endpoint {
                Endpoint::Tcp(l) => match l.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        Some(Box::new(move |d: &Daemon| {
                            let _ = serve_connection(stream, |req| d.handle(req));
                        }))
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(_) => None,
                },
                #[cfg(unix)]
                Endpoint::Unix(l) => match l.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        Some(Box::new(move |d: &Daemon| {
                            let _ = serve_connection(stream, |req| d.handle(req));
                        }))
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(_) => None,
                },
            };
            match accepted {
                Some(conn) => {
                    let daemon = Arc::clone(self);
                    conns.push(std::thread::spawn(move || conn(&daemon)));
                    conns.retain(|h| !h.is_finished());
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        for h in conns {
            let _ = h.join();
        }
    }

    /// Run the daemon: spawn the worker pool, accept control connections
    /// on every endpoint, and block until shutdown is requested (by a
    /// `Shutdown` command or by `stop` returning true — the binary's
    /// signal latch). Before returning, every still-running tenant is
    /// checkpointed once more, so a graceful exit never loses progress.
    pub fn serve(
        self: &Arc<Self>,
        endpoints: Vec<Endpoint>,
        stop: impl Fn() -> bool + Send + Sync + Clone,
    ) -> io::Result<()> {
        let workers = self.cfg.effective_workers();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let daemon = Arc::clone(self);
                scope.spawn(move || daemon.worker());
            }
            for endpoint in endpoints {
                let daemon = Arc::clone(self);
                let stop = stop.clone();
                scope.spawn(move || daemon.accept_loop(endpoint, stop));
            }
            // If the daemon serves no endpoints (embedded use), still honour
            // the external stop signal.
            while !self.shutting_down() {
                if stop() {
                    self.request_shutdown();
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        self.checkpoint_running().map_err(io::Error::other)?;
        Ok(())
    }
}
