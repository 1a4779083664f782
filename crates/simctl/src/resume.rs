//! Resumable lifetime runs: the lifetime pump, sliced into stream-batch
//! steps with checkpoint/restore at the batch boundaries.
//!
//! ## Why batch boundaries
//!
//! The batched drivers ([`crate::driver`]) consume the workload one
//! [`fill_runs`](AddressStream::fill_runs) call (one [`BLOCK`]-request
//! batch) at a time and serve every run the batch produced before pulling
//! the next. A checkpoint taken *between* batches therefore needs no
//! mid-run bookkeeping at all: the stream cursor is just the number of
//! completed batches, and resume rebuilds the stream from its spec and
//! seed and replays that many `fill_runs` calls into a scratch buffer
//! ([`AddressStream::skip_batches`]), discarding the output. Everything
//! else — scheme, device, recovery tallies, telemetry cursor — restores
//! through the per-crate `ckpt_save`/`ckpt_restore` pattern.
//!
//! ## Equivalence contract
//!
//! [`ResumableRun`] is the lifetime run: [`run_lifetime`] builds one and
//! drives it to the end, and every [`step`](ResumableRun::step) runs the
//! same serve loop as the [`pump_writes`](crate::driver::pump_writes)
//! family. So a run driven to completion through `step` — with or without
//! an intervening save/kill/restore cycle — produces a [`LifetimeResult`]
//! and telemetry series byte-identical to [`run_lifetime`] on the same
//! experiment (`resume_equivalence.rs` pins this for every scheme
//! variant).
//!
//! ## What cannot be checkpointed
//!
//! The closed-loop timing model accumulates an HDR histogram and
//! controller queue state with no serialization; [`ResumableRun::new`]
//! rejects a spec carrying a `timing` block up front with a typed
//! [`DriverError::Spec`] rather than silently dropping latency data.
//!
//! [`run_lifetime`]: crate::lifetime::run_lifetime

use std::path::Path;

use sawl_algos::WearLeveler;
use sawl_ckpt::{CkptError, Reader, Writer};
use sawl_nvm::NvmDevice;
use sawl_trace::{AddressStream, CursorKind, MemReq};

use crate::driver::{DriverError, LifetimeServe, PumpStats, BLOCK};
use crate::lifetime::{build_result, LifetimeExperiment, LifetimeResult};
use crate::seed::stable_seed;
use crate::spec::SchemeInstance;
use crate::telemetry::TelemetryRun;
use crate::timing::TimingRun;

/// Default demand-write interval between periodic checkpoints (2^28 ≈
/// 268M writes). Sized from the release pump's measured rates: the
/// bulk-served BPA probe retires ~8 GW/s, so one interval is ~33ms of
/// compute against a ~0.5ms fsync'd save — under 2% overhead even for
/// the fastest workload (`checkpoint_overhead.rs` pins the 5% budget).
/// Per-request workloads run orders of magnitude slower, so a crash
/// still loses at most seconds-to-minutes of work.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 1 << 28;

/// A lifetime run that can be paused, checkpointed, and resumed.
///
/// The experiment's id seeds the scheme, device, fault plan and workload
/// deterministically, exactly as [`run_lifetime`] does — which builds and
/// drives this same type. Driving the run happens through [`step`] — one
/// stream batch per call — and a checkpoint taken between steps captures
/// the complete mutable state.
///
/// [`run_lifetime`]: crate::lifetime::run_lifetime
/// [`step`]: Self::step
pub struct ResumableRun {
    exp: LifetimeExperiment,
    wl: SchemeInstance,
    dev: NvmDevice,
    stream: Box<dyn AddressStream + Send>,
    telemetry: Option<TelemetryRun>,
    /// Only [`run_lifetime`](crate::lifetime::run_lifetime) builds a timed
    /// run; [`ResumableRun::new`] rejects timing specs.
    timing: Option<TimingRun>,
    serve: LifetimeServe,
    /// Completed `fill_runs` batches — the stream's resume cursor.
    batches: u64,
}

impl ResumableRun {
    /// Build a fresh run from `exp`, exactly as `run_lifetime` would.
    ///
    /// Rejects specs with a `timing` block ([`DriverError::Spec`]): the
    /// timing model has no checkpoint form.
    pub fn new(exp: &LifetimeExperiment) -> Result<Self, DriverError> {
        if exp.timing.is_some() {
            return Err(DriverError::Spec(
                "the closed-loop timing model cannot be checkpointed; drop the spec's \
                 `timing` block to run resumably, or run without checkpointing"
                    .into(),
            ));
        }
        let run = Self::build(exp)?;
        if run.stream.wants_observation() && run.stream.cursor_kind() == CursorKind::Replay {
            // A replay cursor fast-forwards by regenerating batches open
            // loop, but an observation-driven stream's output depends on
            // device feedback the fast-forward cannot reproduce.
            return Err(DriverError::Spec(format!(
                "stream \"{}\" is observation-driven but only supports replay cursors, \
                 so a resumed run could not reproduce it",
                run.stream.name()
            )));
        }
        Ok(run)
    }

    /// Build a fresh run from `exp`, timed or not: the one place a
    /// lifetime run is set up.
    pub(crate) fn build(exp: &LifetimeExperiment) -> Result<Self, DriverError> {
        let seed = stable_seed(&exp.id);
        // Concrete enum instance: the serve loop monomorphizes against it,
        // so the per-write scheme call is static-dispatched. Built first:
        // it validates the spec that `physical_lines` assumes valid.
        let mut wl = exp.scheme.try_instantiate(exp.data_lines, seed)?;
        let phys = exp.scheme.physical_lines(exp.data_lines);
        let mut dev = exp.device.try_build(phys, seed)?;
        if let Some(plan) = &exp.fault {
            dev.install_fault_plan(plan)?;
        }
        let telemetry = match &exp.telemetry {
            Some(spec) if spec.stride == 0 => {
                return Err(DriverError::Spec("telemetry stride must be >= 1".into()));
            }
            Some(spec) => {
                let run = TelemetryRun::new(&exp.id, spec);
                run.attach(&mut wl, &mut dev);
                Some(run)
            }
            None => None,
        };
        let stream = exp.workload.try_build(wl.logical_lines(), seed)?;
        let cap = if exp.max_demand_writes == 0 {
            4 * dev.config().ideal_lifetime_writes()
        } else {
            exp.max_demand_writes
        };
        let timing = exp.timing.as_ref().map(|spec| {
            let mut t = TimingRun::new(spec, exp.scheme.translation_kind());
            t.prime(&wl, &dev);
            t
        });
        Ok(Self {
            exp: exp.clone(),
            wl,
            dev,
            stream,
            telemetry,
            timing,
            serve: LifetimeServe::new(cap),
            batches: 0,
        })
    }

    /// Build a run from `exp` and restore it from the checkpoint at
    /// `path`. I/O and container problems (missing file, truncation, bad
    /// checksum, version skew) and state mismatches all surface as
    /// [`DriverError::Checkpoint`].
    pub fn resume(exp: &LifetimeExperiment, path: &Path) -> Result<Self, DriverError> {
        let payload = sawl_ckpt::read_file(path)
            .map_err(|e| DriverError::Checkpoint(format!("cannot read {}: {e}", path.display())))?;
        let mut run = Self::new(exp)?;
        let mut r = Reader::new(&payload);
        run.ckpt_restore(&mut r).and_then(|()| r.finish()).map_err(|e| {
            DriverError::Checkpoint(format!("cannot restore {}: {e}", path.display()))
        })?;
        Ok(run)
    }

    /// The run is over: the device died or the demand-write cap was hit.
    pub fn finished(&self) -> bool {
        self.serve.finished(&self.dev)
    }

    /// Demand writes served so far.
    pub fn demand_writes(&self) -> u64 {
        self.dev.wear().demand_writes
    }

    /// The run's demand-write cap.
    pub fn cap(&self) -> u64 {
        self.serve.cap
    }

    /// Completed stream batches (the checkpoint cursor).
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// The experiment this run executes.
    pub fn experiment(&self) -> &LifetimeExperiment {
        &self.exp
    }

    /// Serve one stream batch ([`BLOCK`] requests). Returns `false` once
    /// the run is [`finished`](Self::finished). Checkpoints are valid
    /// only between `step` calls — that is the batch boundary the stream
    /// cursor counts.
    pub fn step(&mut self) -> Result<bool, DriverError> {
        if self.finished() {
            return Ok(false);
        }
        self.batches += 1;
        self.serve.step(
            &mut self.wl,
            &mut self.dev,
            self.stream.as_mut(),
            self.telemetry.as_mut(),
            self.timing.as_mut(),
        )?;
        Ok(!self.finished())
    }

    /// Drive the run to completion without checkpointing.
    pub fn run_to_end(&mut self) -> Result<(), DriverError> {
        while self.step()? {}
        Ok(())
    }

    /// Drive the run to completion, writing a checkpoint to `path` every
    /// `interval` demand writes and once more when the run finishes (so a
    /// restart after completion resumes into an already-finished run and
    /// reports immediately). `should_stop` is polled at every batch
    /// boundary; returning `true` checkpoints and pauses the run early
    /// (the caller decides whether that is a graceful shutdown or an
    /// interrupt). Returns whether the run finished.
    pub fn run_with_checkpoints(
        &mut self,
        path: &Path,
        interval: u64,
        mut should_stop: impl FnMut() -> bool,
    ) -> Result<bool, DriverError> {
        let interval = interval.max(1);
        let mut next = self.demand_writes().saturating_add(interval);
        while self.step()? {
            if should_stop() {
                self.save(path)?;
                return Ok(false);
            }
            if self.demand_writes() >= next {
                self.save(path)?;
                next = self.demand_writes().saturating_add(interval);
            }
        }
        self.save(path)?;
        Ok(true)
    }

    /// Serialize the run's complete mutable state. The payload opens with
    /// the experiment's canonical JSON so a resume against a different
    /// spec is rejected before any state is interpreted.
    pub fn ckpt_save(&self, w: &mut Writer) {
        let spec = serde_json::to_string(&self.exp).expect("experiment specs serialize infallibly");
        w.put_str(&spec);
        w.put_u64(self.serve.cap);
        w.put_u64(self.batches);
        // The stream cursor: state-cursor streams serialize their full
        // position (RNG, phase, replay offset, GC mode); replay-cursor
        // streams rely on the batch count alone and are fast-forwarded by
        // regeneration on restore.
        match self.stream.cursor_kind() {
            CursorKind::Replay => w.put_u8(0),
            CursorKind::State => {
                w.put_u8(1);
                self.stream.cursor_save(w);
            }
        }
        w.put_u64(self.serve.consecutive_reads);
        w.put_u64(self.serve.stats.recoveries);
        w.put_u64(self.serve.stats.journal_replays);
        w.put_u64(self.serve.stats.journal_rollbacks);
        match &self.telemetry {
            None => w.put_bool(false),
            Some(t) => {
                w.put_bool(true);
                t.ckpt_save(w);
            }
        }
        self.wl.ckpt_save(w);
        self.dev.ckpt_save(w);
    }

    /// Restore state saved by [`ckpt_save`](Self::ckpt_save) into a run
    /// freshly built from the same experiment, then fast-forward the
    /// stream to the checkpointed batch cursor.
    pub fn ckpt_restore(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {
        let saved_spec = r.get_str()?;
        let spec = serde_json::to_string(&self.exp).expect("experiment specs serialize infallibly");
        if saved_spec != spec {
            let saved_id = serde_json::from_str::<LifetimeExperiment>(&saved_spec)
                .map(|e| e.id)
                .unwrap_or_else(|_| "<unparseable>".into());
            return Err(CkptError::Corrupt(format!(
                "checkpoint belongs to a different experiment (saved id {saved_id:?}, \
                 resuming {:?} — the full specs differ)",
                self.exp.id
            )));
        }
        let cap = r.get_u64()?;
        if cap != self.serve.cap {
            return Err(CkptError::Corrupt(format!(
                "demand-write cap {cap} does not match the rebuilt run's {}",
                self.serve.cap
            )));
        }
        self.batches = r.get_u64()?;
        let cursor_tag = r.get_u8()?;
        let expected_tag = match self.stream.cursor_kind() {
            CursorKind::Replay => 0,
            CursorKind::State => 1,
        };
        if cursor_tag != expected_tag {
            return Err(CkptError::Corrupt(format!(
                "stream cursor tag {cursor_tag} does not match the rebuilt stream's \
                 {:?} cursor",
                self.stream.cursor_kind()
            )));
        }
        if cursor_tag == 1 {
            self.stream.cursor_restore(r)?;
        }
        self.serve.consecutive_reads = r.get_u64()?;
        self.serve.stats = PumpStats {
            recoveries: r.get_u64()?,
            journal_replays: r.get_u64()?,
            journal_rollbacks: r.get_u64()?,
        };
        let has_telemetry = r.get_bool()?;
        if has_telemetry != self.telemetry.is_some() {
            return Err(CkptError::Corrupt(format!(
                "checkpoint {} a telemetry cursor but the rebuilt run {}",
                if has_telemetry { "carries" } else { "lacks" },
                if self.telemetry.is_some() { "expects one" } else { "has none" },
            )));
        }
        if let Some(t) = self.telemetry.as_mut() {
            t.ckpt_restore(r)?;
        }
        self.wl.ckpt_restore(r)?;
        self.dev.ckpt_restore(r)?;
        if cursor_tag == 0 {
            // Replay cursor: fast-forward the freshly built stream by
            // regenerating (and discarding) the completed batches.
            let mut scratch = [MemReq::read(0); BLOCK];
            self.stream.skip_batches(self.batches, &mut scratch);
        }
        Ok(())
    }

    /// Write the run's checkpoint atomically to `path` (tmp + fsync +
    /// rename, via [`sawl_ckpt::write_file`]).
    pub fn save(&self, path: &Path) -> Result<(), DriverError> {
        let mut w = Writer::new();
        self.ckpt_save(&mut w);
        sawl_ckpt::write_file(path, &w.into_payload())
            .map_err(|e| DriverError::Checkpoint(format!("cannot write {}: {e}", path.display())))
    }

    /// Finish the run: drain the telemetry recorder and the timing model
    /// and assemble the [`LifetimeResult`].
    pub fn into_result(mut self) -> LifetimeResult {
        let latency = self.timing.take().map(TimingRun::finish);
        let series = self.telemetry.take().map(|t| t.finish(&mut self.wl));
        // The result reports the *stream's* name: for generators it equals
        // the spec name, and for trace replay it is the name recorded in
        // the trace header — which is what makes a replayed run's report
        // byte-identical to the live generator run it was recorded from.
        let workload = self.stream.name().to_string();
        build_result(&self.exp, workload, &self.dev, &self.serve.stats, series, latency)
    }
}

impl std::fmt::Debug for ResumableRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResumableRun")
            .field("id", &self.exp.id)
            .field("demand_writes", &self.demand_writes())
            .field("cap", &self.serve.cap)
            .field("batches", &self.batches)
            .field("finished", &self.finished())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::run_lifetime;
    use crate::spec::{DeviceSpec, SchemeSpec, WorkloadSpec};
    use sawl_telemetry::TelemetrySpec;
    use sawl_timing::TimingSpec;

    fn exp() -> LifetimeExperiment {
        LifetimeExperiment {
            id: "resume/unit".into(),
            scheme: SchemeSpec::PcmS { region_lines: 4, period: 16 },
            workload: WorkloadSpec::Bpa { writes_per_target: 512 },
            data_lines: 1 << 10,
            device: DeviceSpec { endurance: 1_000, ..Default::default() },
            max_demand_writes: 60_000,
            fault: None,
            telemetry: Some(TelemetrySpec::with_stride(10_000)),
            timing: None,
        }
    }

    #[test]
    fn stepped_run_matches_run_lifetime() {
        let e = exp();
        let reference = run_lifetime(&e).unwrap();
        let mut run = ResumableRun::new(&e).unwrap();
        run.run_to_end().unwrap();
        assert_eq!(run.into_result(), reference);
    }

    #[test]
    fn save_restore_midway_is_byte_identical() {
        let e = exp();
        let reference = run_lifetime(&e).unwrap();

        let mut run = ResumableRun::new(&e).unwrap();
        for _ in 0..3 {
            assert!(run.step().unwrap(), "run ended before the kill point");
        }
        let mut w = Writer::new();
        run.ckpt_save(&mut w);
        let payload = w.into_payload();
        drop(run); // the "killed" process

        let mut resumed = ResumableRun::new(&e).unwrap();
        let mut r = Reader::new(&payload);
        resumed.ckpt_restore(&mut r).unwrap();
        r.finish().unwrap();

        // Re-encoding the restored run reproduces the payload bit for bit.
        let mut w2 = Writer::new();
        resumed.ckpt_save(&mut w2);
        assert_eq!(payload, w2.into_payload(), "restore lost state");

        resumed.run_to_end().unwrap();
        assert_eq!(resumed.into_result(), reference);
    }

    #[test]
    fn timing_specs_are_rejected() {
        let mut e = exp();
        e.timing = Some(TimingSpec::default());
        let err = ResumableRun::new(&e).unwrap_err();
        assert!(matches!(err, DriverError::Spec(_)), "{err:?}");
        assert!(err.to_string().contains("timing"), "{err}");
    }

    #[test]
    fn restore_rejects_a_different_experiment() {
        let e = exp();
        let mut run = ResumableRun::new(&e).unwrap();
        run.step().unwrap();
        let mut w = Writer::new();
        run.ckpt_save(&mut w);
        let payload = w.into_payload();

        let mut other = exp();
        other.id = "resume/other".into();
        let mut twin = ResumableRun::new(&other).unwrap();
        let err = twin.ckpt_restore(&mut Reader::new(&payload)).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("different experiment"), "{err}");
    }

    #[test]
    fn file_round_trip_and_corruption_rejection() {
        let dir = std::env::temp_dir().join("sawl-resume-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");

        let e = exp();
        let mut run = ResumableRun::new(&e).unwrap();
        let finished = run.run_with_checkpoints(&path, 20_000, || false).unwrap();
        assert!(finished);
        let reference = run.into_result();

        // Resuming the finished checkpoint reports the same result.
        let mut resumed = ResumableRun::resume(&e, &path).unwrap();
        assert!(resumed.finished());
        resumed.run_to_end().unwrap();
        assert_eq!(resumed.into_result(), reference);

        // A missing file is a typed checkpoint error, not a panic.
        let missing = ResumableRun::resume(&e, &dir.join("nope.ckpt")).unwrap_err();
        assert!(matches!(missing, DriverError::Checkpoint(_)), "{missing:?}");

        // Bit rot: flip one payload byte — checksum rejects it.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = ResumableRun::resume(&e, &path).unwrap_err();
        assert!(matches!(err, DriverError::Checkpoint(_)), "{err:?}");
        assert!(err.to_string().contains("checksum"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
