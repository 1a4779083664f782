//! Driver-side telemetry glue: owns the [`Recorder`] during a pump and
//! gathers [`DeviceSample`]/[`SchemeSample`] pairs at each stride boundary.
//!
//! ## Sampling clock (request-index granularity)
//!
//! The recorder's stride counts **served requests**: demand writes for
//! lifetime pumps (reads are not part of lifetime workloads), every
//! request for trace pumps. The batched [`pump_writes`] clamps each
//! `write_run` at [`TelemetryRun::until_sample`], so a sample lands after
//! the request with 1-based index `k * stride` no matter how requests are
//! batched — the batched and scalar drivers observe identical sample
//! points (pinned by `telemetry_alignment.rs`). Because the engine's own
//! adaptation sampling runs *inside* the request, a boundary sample always
//! observes post-tick state, which is what makes the recorder's
//! SAWL channels line up with the engine's `History`.
//!
//! [`pump_writes`]: crate::driver::pump_writes

use std::time::Instant;

use sawl_algos::WearLeveler;
use sawl_nvm::NvmDevice;
use sawl_telemetry::{DeviceSample, Recorder, SchemeSample, Series, TelemetrySpec};

use crate::timing::TimingRun;

/// One run's live telemetry state: the recorder plus the optional stderr
/// progress ticker.
#[derive(Debug)]
pub struct TelemetryRun {
    rec: Recorder,
    id: String,
    progress: bool,
    started: Instant,
    last_progress: Instant,
}

/// Build a [`DeviceSample`] from the device's counters, fault counters and
/// (if enabled) incremental wear probe.
pub fn device_sample(dev: &NvmDevice) -> DeviceSample {
    let wear = dev.wear();
    let faults = dev.fault_counters();
    let snap = dev.wear_snapshot();
    DeviceSample {
        demand_writes: wear.demand_writes,
        overhead_writes: wear.overhead_writes,
        wear_mean: snap.map(|s| s.mean),
        wear_cov: snap.map(|s| s.cov),
        wear_max: snap.map(|s| u64::from(s.max)),
        spares_remaining: dev.spares_remaining(),
        power_losses: faults.power_losses,
        transient_faults: faults.transient_write_faults,
    }
}

impl TelemetryRun {
    /// Recorder for one run. `id` labels progress lines.
    pub fn new(id: &str, spec: &TelemetrySpec) -> Self {
        let now = Instant::now();
        Self {
            rec: Recorder::new(spec.clone()),
            id: id.to_string(),
            progress: spec.progress,
            started: now,
            last_progress: now,
        }
    }

    /// Enable the producer-side instrumentation this run needs: the
    /// device's incremental wear probe and the scheme's event ring.
    pub fn attach<W: WearLeveler + ?Sized>(&self, wl: &mut W, dev: &mut NvmDevice) {
        dev.enable_wear_probe();
        wl.telemetry_events_enable(self.rec.spec().effective_event_capacity());
    }

    /// Requests the driver may serve before the next sample boundary
    /// (always >= 1); batched pumps clamp their runs to it.
    pub fn until_sample(&self) -> u64 {
        self.rec.until_sample()
    }

    /// Advance the clock by `k` served requests and sample at a boundary.
    pub fn note_served<W: WearLeveler + ?Sized>(&mut self, k: u64, wl: &W, dev: &NvmDevice) {
        self.note(k, wl, dev, None);
    }

    /// [`note_served`](Self::note_served) for timed runs: boundary samples
    /// additionally capture the timing model's stall counters and latency
    /// histogram. The timing snapshot is taken only at a boundary, so the
    /// per-request cost off-boundary is unchanged.
    pub fn note_served_timed<W: WearLeveler + ?Sized>(
        &mut self,
        k: u64,
        wl: &W,
        dev: &NvmDevice,
        timing: &TimingRun,
    ) {
        self.note(k, wl, dev, Some(timing));
    }

    /// [`note_served`](Self::note_served), or
    /// [`note_served_timed`](Self::note_served_timed) when `timing` is set.
    pub(crate) fn note<W: WearLeveler + ?Sized>(
        &mut self,
        k: u64,
        wl: &W,
        dev: &NvmDevice,
        timing: Option<&TimingRun>,
    ) {
        if self.rec.note_served(k) {
            let mut scheme = SchemeSample::default();
            wl.telemetry_sample(&mut scheme);
            let sample = timing.map(|t| t.sample());
            self.rec.record(&device_sample(dev), &scheme, sample.as_ref());
            if self.progress {
                self.progress_tick(dev);
            }
        }
    }

    /// Checkpoint the recorder's sampling cursor and gathered samples.
    /// The progress ticker's wall-clock state is not written — it is
    /// cosmetic and restarts on resume.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        self.rec.ckpt_save(w);
    }

    /// Restore the cursor captured by [`ckpt_save`](Self::ckpt_save) into
    /// a run freshly built from the same spec.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        self.rec.ckpt_restore(r)
    }

    /// Finish the run: drain the scheme's event ring into the series.
    pub fn finish<W: WearLeveler + ?Sized>(self, wl: &mut W) -> Series {
        let (events, dropped) = wl.telemetry_events_take().unwrap_or_default();
        self.rec.into_series(events, dropped)
    }

    /// Stderr ticker, throttled to ~5 lines per second.
    fn progress_tick(&mut self, dev: &NvmDevice) {
        let now = Instant::now();
        if now.duration_since(self.last_progress).as_millis() < 200 {
            return;
        }
        self.last_progress = now;
        eprintln!(
            "[{}] {} requests served, {} demand writes, {:.1}s",
            self.id,
            self.rec.served(),
            dev.wear().demand_writes,
            self.started.elapsed().as_secs_f64()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sawl_algos::NoWl;
    use sawl_nvm::NvmConfig;
    use sawl_telemetry::Channel;

    fn device(lines: u64) -> NvmDevice {
        NvmDevice::new(
            NvmConfig::builder()
                .lines(lines)
                .banks(1)
                .endurance(1_000)
                .spare_shift(6)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn attach_enables_the_wear_probe_and_samples_it() {
        let mut wl = NoWl::new(64);
        let mut dev = device(64);
        let mut run = TelemetryRun::new("t", &TelemetrySpec::with_stride(4));
        run.attach(&mut wl, &mut dev);
        assert!(dev.wear_probe_enabled());
        for i in 0..8u64 {
            wl.write(i % 64, &mut dev);
            run.note_served(1, &wl, &dev);
        }
        let series = run.finish(&mut wl);
        assert_eq!(series.samples.len(), 2);
        assert_eq!(series.samples[0].requests, 4);
        assert_eq!(series.samples[1].requests, 8);
        assert!(series.samples[1].gauge(Channel::WearCov).is_some());
        assert_eq!(series.samples[1].counter(Channel::DemandWrites), Some(8));
        // NoWl has no CMT, no journal, no events.
        assert_eq!(series.samples[0].counter(Channel::CmtHits), None);
        assert!(series.events.is_empty());
    }

    #[test]
    fn device_sample_reads_fault_counters() {
        let mut dev = device(64);
        dev.enable_wear_probe();
        dev.write(0);
        let s = device_sample(&dev);
        assert_eq!(s.demand_writes, 1);
        assert_eq!(s.wear_max, Some(1));
        assert_eq!(s.power_losses, 0);
        assert_eq!(s.spares_remaining, dev.spares_remaining());
    }
}
