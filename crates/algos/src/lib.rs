//! # sawl-algos — baseline wear-leveling algorithms
//!
//! The paper classifies existing wear-leveling schemes into three families
//! (§2.1) and evaluates one or two representatives of each; this crate
//! implements all of them behind a single [`WearLeveler`] trait:
//!
//! | family | scheme | module | paper's verdict on MLC NVM |
//! |--------|--------|--------|----------------------------|
//! | table-based (TBWL) | Segment Swapping | [`segment_swap`] | RAA-vulnerable (static intra-segment offset) |
//! | algebraic (AWL) | Region-Based Start-Gap | [`start_gap`] | RAA-vulnerable (static region mapping) |
//! | algebraic (AWL) | two-level Security Refresh | [`security_refresh`] | survives RAA, lifetime collapses (Fig. 3) |
//! | hybrid (HWL) | PCM-S | [`pcms`] | long lifetime, huge on-chip table (Figs. 4-5) |
//! | hybrid (HWL) | MWSR | [`mwsr`] | like PCM-S, bigger table entries |
//! | — | no wear leveling | [`nowl`] | the IPC baseline of Fig. 17 |
//! | — | ideal oracle | [`nowl`] | defines "ideal lifetime" = lines × Wmax |
//!
//! ## Simulation contract
//!
//! A wear leveler owns the logical→physical permutation for a device. The
//! experiment drivers funnel every demand request through [`WearLeveler::write`]
//! / [`WearLeveler::read`]; the scheme translates the address, applies the
//! demand write to the [`NvmDevice`], and runs its own remapping machinery,
//! charging any data-movement writes to the device via
//! [`NvmDevice::write_wl`]. Wear-leveling data exchanges are modelled as the
//! set of physical lines rewritten; reads performed during an exchange do
//! not wear cells and are not charged.
//!
//! Every scheme maintains the invariant that `translate` is injective over
//! the logical space — verified by [`verify::check_permutation`] and by
//! property tests in each module.

pub mod exchange;
pub mod mwsr;
pub mod nowl;
pub mod pcms;
pub mod region;
pub mod security_refresh;
pub mod segment_swap;
pub mod start_gap;
pub mod verify;

pub use exchange::SwapCounters;
pub use mwsr::Mwsr;
pub use nowl::{Ideal, NoWl};
pub use pcms::PcmS;
pub use region::RegionGeometry;
pub use security_refresh::{SecurityRefresh, Tlsr};
pub use segment_swap::SegmentSwap;
pub use start_gap::StartGap;

use sawl_nvm::{La, NvmDevice, Pa};

/// Outcome of one [`WearLeveler::recover`] pass after a power-loss event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// Whether recovery fully completed. `false` means another power loss
    /// fired during replay; the mapping is still recoverable — call
    /// [`WearLeveler::recover`] again (replay is idempotent).
    pub complete: bool,
    /// An interrupted operation was rolled forward (its journaled updates
    /// replayed).
    pub replayed: bool,
    /// An interrupted operation was rolled back (nothing of it had landed).
    pub rolled_back: bool,
}

impl Recovery {
    /// A completed recovery that found nothing to repair.
    pub const CLEAN: Self = Self { complete: true, replayed: false, rolled_back: false };
}

/// A wear-leveling scheme: owns the logical→physical line mapping of one
/// device and decides when to exchange data to spread wear.
pub trait WearLeveler {
    /// Short name used on report axes ("tlsr", "pcm-s", ...).
    fn name(&self) -> &'static str;

    /// Number of logical lines served. May be smaller than the device's
    /// physical line count when the scheme reserves gap/spare space
    /// (Start-Gap, MWSR).
    fn logical_lines(&self) -> u64;

    /// Current physical location of logical line `la`, without side
    /// effects. `la` must be `< logical_lines()`.
    fn translate(&self, la: La) -> Pa;

    /// Serve a demand write to `la`: apply it to the device at the current
    /// translation and run the scheme's wear-leveling machinery (which may
    /// remap lines and charge overhead writes). Returns the physical address
    /// the demand write landed on.
    fn write(&mut self, la: La, dev: &mut NvmDevice) -> Pa;

    /// Serve a demand read. Default: translate and count the read.
    fn read(&mut self, la: La, dev: &mut NvmDevice) -> Pa {
        let pa = self.translate(la);
        dev.read(pa);
        pa
    }

    /// Serve `n` consecutive demand writes to the same logical line.
    /// Bit-equivalent to calling [`write`](WearLeveler::write) `n` times,
    /// stopping after the write that kills the device or loses power.
    /// Returns the writes the device applied — its `demand_writes` delta —
    /// so a caller retries exactly the writes a power loss dropped.
    ///
    /// Batching is defined once, by the quiet-span contract of
    /// [`quiet_writes`](WearLeveler::quiet_writes) and
    /// [`note_quiet`](WearLeveler::note_quiet). The default serves one
    /// scalar `write` (and whatever exchange, gap move or cache miss it
    /// triggers), then applies the next `quiet_writes(la)` writes as one
    /// closed-form [`NvmDevice::write_run`] followed by `note_quiet`, and
    /// repeats. A scheme that certifies quiet spans therefore batches here
    /// and in the timed driver by construction, without overriding this.
    ///
    /// Security Refresh and TLSR are the exception: their overrides serve
    /// whole refresh rounds as chunks the device proves failure-free
    /// (demand runs, region sweeps and single swap writes), which the
    /// scalar-first default cannot (DESIGN.md §10).
    fn write_run(&mut self, la: La, n: u64, dev: &mut NvmDevice) -> u64 {
        let start = dev.wear().demand_writes;
        let mut left = n;
        while left > 0 && !dev.is_dead() && !dev.power_lost() {
            self.write(la, dev);
            left -= 1;
            if left == 0 {
                break; // a single-write run skips the quiet check
            }
            let k = self.quiet_writes(la).min(left);
            if k > 0 {
                // On a dead or unpowered device this applies nothing.
                let (applied, _) = dev.write_run(self.translate(la), k);
                self.note_quiet(la, applied);
                left -= applied;
            }
        }
        dev.wear().demand_writes - start
    }

    /// Lower bound on how many *further* consecutive demand writes to `la`
    /// are **quiet**: they keep [`translate`](WearLeveler::translate)`(la)`
    /// unchanged, perform no device reads, post no overhead writes, and
    /// advance no [`op_counts`](WearLeveler::op_counts) counter — each one
    /// is exactly one demand write to the same physical line.
    ///
    /// Anything the scheme might do (exchange, gap move, refresh step, CMT
    /// miss, adaptation sample) must lie strictly *beyond* the returned
    /// count. The default [`write_run`](WearLeveler::write_run) and the
    /// timed driver both batch exactly this many writes. `0` — the
    /// default — is always safe and keeps both scalar.
    ///
    /// Pure observation: must not change scheme state.
    fn quiet_writes(&self, _la: La) -> u64 {
        0
    }

    /// Advance the scheme's state as if `k` quiet demand writes to `la`
    /// had been served, without touching the device: `k` scalar
    /// [`write`](WearLeveler::write)s and one `NvmDevice::write_run(
    /// translate(la), k)` followed by `note_quiet(la, k)` leave scheme and
    /// device in identical states. `k` never exceeds `quiet_writes(la)`.
    ///
    /// Only [`write_run`](WearLeveler::write_run) calls this; drivers go
    /// through `write_run`. The default accepts only `k == 0`, which is
    /// consistent with the default `quiet_writes` of `0`, and panics
    /// otherwise so that a wrapper forgetting to forward it fails loudly
    /// instead of silently dropping counter updates.
    fn note_quiet(&mut self, _la: La, k: u64) {
        assert_eq!(k, 0, "{}: note_quiet without a quiet-span implementation", self.name());
    }

    /// Bring the scheme back to a consistent state after a power-loss
    /// event: restore device power, resolve any interrupted wear-leveling
    /// operation, and rebuild volatile (cache/counter) state.
    ///
    /// Default: restore power and report a clean recovery — correct for the
    /// algebraic and table-based baselines, whose entire mapping lives in
    /// on-chip registers modeled as durable (cf. the paper's assumption
    /// that the GTD-class registers survive power loss). Tiered schemes
    /// with NVM-resident tables override this with journal replay/rollback.
    fn recover(&mut self, dev: &mut NvmDevice) -> Recovery {
        dev.restore_power();
        Recovery::CLEAN
    }

    /// Bits of mapping state the scheme must keep **on chip** for correct
    /// operation (tables, keys, pointers, counters). This is the hardware
    /// overhead axis of the paper's Fig. 5 / §4.5.
    fn onchip_bits(&self) -> u64;

    /// Fill `out` with whatever telemetry signals the scheme tracks (CMT
    /// counters, adaptation state, journal ops). Pure observation: must
    /// not change scheme state. The default reports nothing — correct for
    /// schemes without caches or journals.
    fn telemetry_sample(&self, _out: &mut sawl_telemetry::SchemeSample) {}

    /// Start buffering discrete adaptation events (merge/split/exchange/
    /// threshold crossings) in a bounded ring of `capacity` entries.
    /// Default: no-op for schemes that emit no events.
    fn telemetry_events_enable(&mut self, _capacity: usize) {}

    /// Drain the event ring as `(events_oldest_first, dropped_count)`, and
    /// stop buffering. `None` when no ring was enabled (or the scheme
    /// never buffers events).
    fn telemetry_events_take(&mut self) -> Option<(Vec<sawl_telemetry::Event>, u64)> {
        None
    }

    /// Cumulative wear-leveling operation counts. The timing driver diffs
    /// this around each request to attribute that request's overhead
    /// writes to a cause (data exchange vs. merge/split reorganization).
    /// Default: all zero — correct for schemes that report nothing; their
    /// overhead writes are then attributed to exchanges, which is what
    /// every non-SAWL scheme performs.
    fn op_counts(&self) -> OpCounts {
        OpCounts::default()
    }
}

/// Cumulative operation counters reported by
/// [`WearLeveler::op_counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Completed data exchanges (remap/swap moves).
    pub exchanges: u64,
    /// Completed region reorganizations (SAWL's merges + splits).
    pub reorgs: u64,
}

/// Blanket impl so drivers can hold `Box<dyn WearLeveler>`.
impl<W: WearLeveler + ?Sized> WearLeveler for Box<W> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn logical_lines(&self) -> u64 {
        (**self).logical_lines()
    }

    fn translate(&self, la: La) -> Pa {
        (**self).translate(la)
    }

    fn write(&mut self, la: La, dev: &mut NvmDevice) -> Pa {
        (**self).write(la, dev)
    }

    fn read(&mut self, la: La, dev: &mut NvmDevice) -> Pa {
        (**self).read(la, dev)
    }

    fn write_run(&mut self, la: La, n: u64, dev: &mut NvmDevice) -> u64 {
        (**self).write_run(la, n, dev)
    }

    fn quiet_writes(&self, la: La) -> u64 {
        (**self).quiet_writes(la)
    }

    fn note_quiet(&mut self, la: La, k: u64) {
        (**self).note_quiet(la, k)
    }

    fn recover(&mut self, dev: &mut NvmDevice) -> Recovery {
        (**self).recover(dev)
    }

    fn onchip_bits(&self) -> u64 {
        (**self).onchip_bits()
    }

    fn telemetry_sample(&self, out: &mut sawl_telemetry::SchemeSample) {
        (**self).telemetry_sample(out)
    }

    fn telemetry_events_enable(&mut self, capacity: usize) {
        (**self).telemetry_events_enable(capacity)
    }

    fn telemetry_events_take(&mut self) -> Option<(Vec<sawl_telemetry::Event>, u64)> {
        (**self).telemetry_events_take()
    }

    fn op_counts(&self) -> OpCounts {
        (**self).op_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sawl_nvm::NvmConfig;

    #[test]
    fn boxed_wear_leveler_delegates() {
        let cfg = NvmConfig::builder().lines(64).banks(1).endurance(100).build().unwrap();
        let mut dev = NvmDevice::new(cfg);
        let mut wl: Box<dyn WearLeveler> = Box::new(NoWl::new(64));
        assert_eq!(wl.name(), "baseline");
        assert_eq!(wl.logical_lines(), 64);
        assert_eq!(wl.translate(5), 5);
        assert_eq!(wl.write(5, &mut dev), 5);
        assert_eq!(wl.read(6, &mut dev), 6);
        assert_eq!(wl.onchip_bits(), 0);
    }
}
