//! Serializable experiment specifications.
//!
//! A run is `(SchemeSpec, WorkloadSpec, DeviceSpec, seed)`. The spec layer
//! owns the fiddly geometry coupling: each scheme dictates how many
//! physical lines the device must provide (Start-Gap's gap slots, MWSR's
//! spare region, the tiered schemes' translation region), and the workload
//! is generated over the scheme's *logical* space.

use serde::{Deserialize, Serialize};

use sawl_algos::{
    Ideal, Mwsr, NoWl, PcmS, SecurityRefresh, SegmentSwap, StartGap, Tlsr, WearLeveler,
};
use sawl_core::{Sawl, SawlConfig};
use sawl_nvm::{EnduranceModel, NvmConfig, NvmDevice};
use sawl_tiered::{Nwl, NwlConfig};
use sawl_trace::{
    AddressStream, Bpa, GcFeedback, Interleave, Phased, Raa, SpecBenchmark, TraceFileStream,
    Uniform, Ycsb, ZipfStream,
};

use crate::driver::DriverError;
use crate::seed::derive;

/// How a scheme translates addresses — determines the per-request
/// translation latency in the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TranslationKind {
    /// No translation at all (the Fig. 17 baseline).
    None,
    /// Full mapping state on chip: every translation costs the SRAM hit
    /// latency (BWL, the algebraic schemes).
    OnChip,
    /// Tiered: hit/miss against the CMT decides 5 ns vs 55 ns.
    Tiered,
}

/// Wear-leveling scheme selector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchemeSpec {
    /// No wear leveling (identity mapping).
    Baseline,
    /// Round-robin oracle (normalization yardstick).
    Ideal,
    /// Table-based Segment Swapping.
    SegmentSwap {
        /// Lines per segment.
        segment_lines: u64,
        /// Writes to a segment between swaps.
        swap_period: u64,
    },
    /// Region-Based Start-Gap.
    Rbsg {
        /// Number of regions.
        regions: u64,
        /// Logical lines per region.
        region_lines: u64,
        /// Writes per gap movement.
        period: u64,
    },
    /// Single-level Security Refresh over the whole space.
    SingleSr {
        /// Writes per refresh step.
        period: u64,
    },
    /// Two-level Security Refresh.
    Tlsr {
        /// Lines per region.
        region_lines: u64,
        /// Inner swapping period.
        inner_period: u64,
        /// Outer swapping period (the paper fixes 32).
        outer_period: u64,
    },
    /// PCM-S hybrid (also the "BWL" of Fig. 17 — full table on chip).
    PcmS {
        /// Lines per region.
        region_lines: u64,
        /// Writes per line between exchanges.
        period: u64,
    },
    /// MWSR hybrid.
    Mwsr {
        /// Lines per region.
        region_lines: u64,
        /// Writes to a region per migration step.
        period: u64,
    },
    /// Naive tiered scheme at a fixed granularity (NWL-4 / NWL-64).
    Nwl {
        /// Region size in lines.
        granularity: u64,
        /// CMT capacity in entries.
        cmt_entries: usize,
        /// PCM-S swapping period.
        swap_period: u64,
    },
    /// Self-adaptive wear leveling (the paper's scheme). Carries the full
    /// engine configuration so ablations (thresholds, mechanism switches)
    /// are expressible as specs; the embedded `data_lines` and `seed` are
    /// replaced by the experiment's geometry and derived seed at build
    /// time.
    Sawl(SawlConfig),
}

impl SchemeSpec {
    /// Short display name matching the paper's legends.
    pub fn name(&self) -> String {
        match self {
            Self::Baseline => "baseline".into(),
            Self::Ideal => "ideal".into(),
            Self::SegmentSwap { .. } => "segment-swap".into(),
            Self::Rbsg { .. } => "rbsg".into(),
            Self::SingleSr { .. } => "sr".into(),
            Self::Tlsr { inner_period, .. } => format!("tlsr/{inner_period}"),
            Self::PcmS { period, .. } => format!("pcm-s/{period}"),
            Self::Mwsr { period, .. } => format!("mwsr/{period}"),
            Self::Nwl { granularity, .. } => format!("nwl-{granularity}"),
            Self::Sawl(_) => "sawl".into(),
        }
    }

    /// Translation cost class for the timing model.
    pub fn translation_kind(&self) -> TranslationKind {
        match self {
            Self::Baseline | Self::Ideal => TranslationKind::None,
            Self::Nwl { .. } | Self::Sawl(_) => TranslationKind::Tiered,
            _ => TranslationKind::OnChip,
        }
    }

    /// SAWL defaults for a given data size and cache, paper parameters.
    pub fn sawl_default(cmt_entries: usize) -> Self {
        Self::Sawl(SawlConfig { cmt_entries, ..SawlConfig::default() })
    }

    /// Instantiate the scheme over `data_lines` logical lines, boxed. The
    /// concrete type behind the box is [`SchemeInstance`], so even dynamic
    /// callers get the enum-dispatched (devirtualized-per-variant) paths.
    pub fn build(&self, data_lines: u64, seed: u64) -> Box<dyn WearLeveler + Send> {
        Box::new(self.instantiate(data_lines, seed))
    }

    /// Instantiate the scheme as a concrete [`SchemeInstance`]. The probe
    /// loops are generic over `W: WearLeveler` and monomorphize against
    /// this enum, so the per-request `write`/`read`/`translate` calls are
    /// a predictable jump instead of a virtual call through a fat pointer.
    ///
    /// Panics on an invalid spec; spec-driven entry points use
    /// [`SchemeSpec::try_instantiate`] to surface the defect instead.
    pub fn instantiate(&self, data_lines: u64, seed: u64) -> SchemeInstance {
        self.try_instantiate(data_lines, seed)
            .unwrap_or_else(|e| panic!("invalid scheme spec: {e}"))
    }

    /// Fallible [`SchemeSpec::instantiate`]: geometry and configuration
    /// defects come back as a [`DriverError`] instead of a panic.
    pub fn try_instantiate(
        &self,
        data_lines: u64,
        seed: u64,
    ) -> Result<SchemeInstance, DriverError> {
        self.validate(data_lines)?;
        Ok(match *self {
            Self::Baseline => SchemeInstance::Baseline(NoWl::new(data_lines)),
            Self::Ideal => SchemeInstance::Ideal(Ideal::new(data_lines)),
            Self::SegmentSwap { segment_lines, swap_period } => SchemeInstance::SegmentSwap(
                SegmentSwap::new(data_lines, segment_lines, swap_period),
            ),
            Self::Rbsg { regions, region_lines, period } => {
                SchemeInstance::Rbsg(StartGap::new(regions, region_lines, period))
            }
            Self::SingleSr { period } => SchemeInstance::SingleSr(SecurityRefresh::new(
                data_lines,
                period,
                derive(seed, "sr"),
            )),
            Self::Tlsr { region_lines, inner_period, outer_period } => {
                SchemeInstance::Tlsr(Tlsr::new(
                    data_lines,
                    region_lines,
                    inner_period,
                    outer_period,
                    derive(seed, "tlsr"),
                ))
            }
            Self::PcmS { region_lines, period } => SchemeInstance::PcmS(PcmS::new(
                data_lines,
                region_lines,
                period,
                derive(seed, "pcms"),
            )),
            Self::Mwsr { region_lines, period } => SchemeInstance::Mwsr(Mwsr::new(
                data_lines,
                region_lines,
                period,
                derive(seed, "mwsr"),
            )),
            Self::Nwl { granularity, cmt_entries, swap_period } => {
                SchemeInstance::Nwl(Nwl::new(NwlConfig {
                    data_lines,
                    granularity,
                    cmt_entries,
                    swap_period,
                    gtd_period: 32,
                    seed: derive(seed, "nwl"),
                }))
            }
            Self::Sawl(ref cfg) => SchemeInstance::Sawl(
                Sawl::try_new(SawlConfig { data_lines, seed: derive(seed, "sawl"), ..cfg.clone() })
                    .map_err(DriverError::Config)?,
            ),
        })
    }

    /// Reject the parameters a scheme constructor would panic on: zero
    /// periods, region splits that are not powers of two within the
    /// logical space, RBSG geometry that does not cover it, a TLSR inner
    /// period or an MWSR period past its 32-bit per-region counters, an
    /// NWL cache of fewer than two entries, and an invalid SAWL config.
    fn validate(&self, data_lines: u64) -> Result<(), DriverError> {
        let name = self.name();
        let period = |field: &str, value: u64| {
            if value == 0 {
                return Err(DriverError::Spec(format!("{name}: {field} must be non-zero")));
            }
            Ok(())
        };
        // A period the scheme counts in 32-bit per-region counters.
        let counter32 = |field: &str, value: u64| {
            if value > u64::from(u32::MAX) {
                return Err(DriverError::Spec(format!(
                    "{name}: {field} {value} exceeds the 32-bit region counters (at most {})",
                    u32::MAX
                )));
            }
            Ok(())
        };
        let regions = |field: &str, region_lines: u64| {
            if !data_lines.is_power_of_two()
                || !region_lines.is_power_of_two()
                || region_lines > data_lines
            {
                return Err(DriverError::Spec(format!(
                    "{name}: {field} {region_lines} must be a power of two within the \
                     {data_lines} data lines (itself a power of two)"
                )));
            }
            Ok(())
        };
        match *self {
            Self::Baseline | Self::Ideal => Ok(()),
            Self::Nwl { granularity, cmt_entries, swap_period } => {
                period("swap_period", swap_period)?;
                if cmt_entries < 2 {
                    return Err(DriverError::Spec(format!(
                        "{name}: cmt_entries {cmt_entries} must be at least 2"
                    )));
                }
                regions("granularity", granularity)
            }
            Self::Sawl(ref cfg) => {
                SawlConfig { data_lines, ..cfg.clone() }.validate().map_err(DriverError::Config)
            }
            Self::SegmentSwap { segment_lines, swap_period } => {
                period("swap_period", swap_period)?;
                regions("segment_lines", segment_lines)
            }
            Self::Rbsg { regions, region_lines, period: p } => {
                period("period", p)?;
                if regions.checked_mul(region_lines) != Some(data_lines) {
                    return Err(DriverError::Spec(format!(
                        "RBSG geometry must cover the logical space: {regions} regions × \
                         {region_lines} lines != {data_lines} data lines"
                    )));
                }
                Ok(())
            }
            Self::SingleSr { period: p } => {
                period("period", p)?;
                regions("data_lines", data_lines)
            }
            Self::Tlsr { region_lines, inner_period, outer_period } => {
                period("inner_period", inner_period)?;
                period("outer_period", outer_period)?;
                counter32("inner_period", inner_period)?;
                regions("region_lines", region_lines)
            }
            Self::PcmS { region_lines, period: p } => {
                period("period", p)?;
                regions("region_lines", region_lines)
            }
            Self::Mwsr { region_lines, period: p } => {
                period("period", p)?;
                counter32("period", p)?;
                regions("region_lines", region_lines)
            }
        }
    }

    /// Physical lines the device must provide for this scheme over
    /// `data_lines` logical lines. May panic on a spec that
    /// [`SchemeSpec::try_instantiate`] rejects.
    pub fn physical_lines(&self, data_lines: u64) -> u64 {
        match *self {
            Self::Rbsg { regions, region_lines, .. } => regions * (region_lines + 1),
            Self::Mwsr { region_lines, .. } => data_lines + region_lines,
            Self::Nwl { granularity, .. } => {
                sawl_tiered::TieredLayout::new(data_lines, granularity).total_lines()
            }
            Self::Sawl(ref cfg) => {
                sawl_tiered::TieredLayout::new(data_lines, cfg.initial_granularity).total_lines()
            }
            _ => data_lines,
        }
    }
}

/// A fully-instantiated wear-leveling scheme, one variant per concrete
/// engine. Exists so the hot probe loops can be monomorphic: `pump` and
/// friends take `W: WearLeveler` and are compiled once against this enum,
/// turning the per-request dispatch into a match the branch predictor
/// resolves (the variant never changes within a run) instead of an opaque
/// indirect call. [`SchemeSpec::instantiate`] builds it with exactly the
/// same constructors and derived seeds as the boxed path, so results are
/// bit-identical either way.
#[allow(missing_docs)]
// One instance exists per running scenario, never in bulk collections, so
// the size spread between variants (SAWL's engine vs the tiny algebraic
// schemes) costs nothing; boxing the large variants would reintroduce the
// indirection this enum exists to remove.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum SchemeInstance {
    Baseline(NoWl),
    Ideal(Ideal),
    SegmentSwap(SegmentSwap),
    Rbsg(StartGap),
    SingleSr(SecurityRefresh),
    Tlsr(Tlsr),
    PcmS(PcmS),
    Mwsr(Mwsr),
    Nwl(Nwl),
    Sawl(Sawl),
}

impl SchemeInstance {
    /// The concrete SAWL engine, when this instance is one (trace probes
    /// read its adaptation history and stats after the run).
    pub fn as_sawl(&self) -> Option<&Sawl> {
        match self {
            Self::Sawl(s) => Some(s),
            _ => None,
        }
    }

    /// The concrete NWL engine, when this instance is one (trace probes
    /// read its CMT hit rate after the run).
    pub fn as_nwl(&self) -> Option<&Nwl> {
        match self {
            Self::Nwl(n) => Some(n),
            _ => None,
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            SchemeInstance::Baseline($inner) => $body,
            SchemeInstance::Ideal($inner) => $body,
            SchemeInstance::SegmentSwap($inner) => $body,
            SchemeInstance::Rbsg($inner) => $body,
            SchemeInstance::SingleSr($inner) => $body,
            SchemeInstance::Tlsr($inner) => $body,
            SchemeInstance::PcmS($inner) => $body,
            SchemeInstance::Mwsr($inner) => $body,
            SchemeInstance::Nwl($inner) => $body,
            SchemeInstance::Sawl($inner) => $body,
        }
    };
}

impl SchemeInstance {
    /// Stable scheme tag embedded in checkpoints so a restore against the
    /// wrong scheme is rejected before any payload is interpreted.
    fn ckpt_tag(&self) -> u8 {
        match self {
            Self::Baseline(_) => 0,
            Self::Ideal(_) => 1,
            Self::SegmentSwap(_) => 2,
            Self::Rbsg(_) => 3,
            Self::SingleSr(_) => 4,
            Self::Tlsr(_) => 5,
            Self::PcmS(_) => 6,
            Self::Mwsr(_) => 7,
            Self::Nwl(_) => 8,
            Self::Sawl(_) => 9,
        }
    }

    /// Checkpoint the scheme's mutable state, prefixed with its scheme
    /// tag. Every variant serializes through its own `ckpt_save`.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_u8(self.ckpt_tag());
        dispatch!(self, s => s.ckpt_save(w))
    }

    /// Restore state saved by [`ckpt_save`](Self::ckpt_save) into an
    /// instance built from the same spec and seed. Rejects a checkpoint
    /// written by a different scheme with a typed error.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        let tag = r.get_u8()?;
        if tag != self.ckpt_tag() {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "scheme: checkpoint carries scheme tag {tag}, instance is {} (tag {})",
                self.name(),
                self.ckpt_tag()
            )));
        }
        dispatch!(self, s => s.ckpt_restore(r))
    }
}

impl WearLeveler for SchemeInstance {
    fn name(&self) -> &'static str {
        dispatch!(self, w => w.name())
    }

    fn logical_lines(&self) -> u64 {
        dispatch!(self, w => w.logical_lines())
    }

    #[inline]
    fn translate(&self, la: sawl_nvm::La) -> sawl_nvm::Pa {
        dispatch!(self, w => w.translate(la))
    }

    #[inline]
    fn write(&mut self, la: sawl_nvm::La, dev: &mut NvmDevice) -> sawl_nvm::Pa {
        dispatch!(self, w => w.write(la, dev))
    }

    #[inline]
    fn write_run(&mut self, la: sawl_nvm::La, n: u64, dev: &mut NvmDevice) -> u64 {
        dispatch!(self, w => w.write_run(la, n, dev))
    }

    fn write_chunk(&mut self, la: sawl_nvm::La, n: u64, dev: &mut NvmDevice) -> Result<u64, u64> {
        dispatch!(self, w => w.write_chunk(la, n, dev))
    }

    #[inline]
    fn quiet_writes(&self, la: sawl_nvm::La) -> u64 {
        dispatch!(self, w => w.quiet_writes(la))
    }

    #[inline]
    fn note_quiet(&mut self, la: sawl_nvm::La, k: u64) {
        dispatch!(self, w => w.note_quiet(la, k))
    }

    #[inline]
    fn read(&mut self, la: sawl_nvm::La, dev: &mut NvmDevice) -> sawl_nvm::Pa {
        dispatch!(self, w => w.read(la, dev))
    }

    fn recover(&mut self, dev: &mut NvmDevice) -> sawl_algos::Recovery {
        dispatch!(self, w => w.recover(dev))
    }

    fn onchip_bits(&self) -> u64 {
        dispatch!(self, w => w.onchip_bits())
    }

    fn telemetry_sample(&self, out: &mut sawl_telemetry::SchemeSample) {
        dispatch!(self, w => w.telemetry_sample(out))
    }

    fn telemetry_events_enable(&mut self, capacity: usize) {
        dispatch!(self, w => w.telemetry_events_enable(capacity))
    }

    fn telemetry_events_take(&mut self) -> Option<(Vec<sawl_telemetry::Event>, u64)> {
        dispatch!(self, w => w.telemetry_events_take())
    }

    fn op_counts(&self) -> sawl_algos::OpCounts {
        dispatch!(self, w => w.op_counts())
    }
}

/// Workload selector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// Repeated Address Attack on line 0.
    Raa,
    /// Birthday Paradox Attack with the given per-target dwell.
    Bpa {
        /// Writes to each randomly chosen target.
        writes_per_target: u64,
    },
    /// Uniform random traffic with a write ratio.
    Uniform {
        /// Fraction of requests that are writes.
        write_ratio: f64,
    },
    /// Zipf-popular traffic: line popularity follows a power law with the
    /// given exponent (rank 0 hottest), the heavy-tailed profile of real
    /// application heaps.
    Zipf {
        /// Zipf exponent (`s > 0`; 1.0 is the classic harmonic skew).
        exponent: f64,
        /// Fraction of requests that are writes.
        write_ratio: f64,
    },
    /// One of the 14 SPEC-like benchmark models.
    Spec(SpecBenchmark),
    /// YCSB-style key-value skew: Zipf popularity over a sliding hot
    /// window of `hot_lines` that rotates by `drift` lines every
    /// `rotate_every` requests (hot-set drift on a request clock).
    Ycsb {
        /// Hot-window size in lines.
        hot_lines: u64,
        /// Zipf exponent over the window.
        exponent: f64,
        /// Fraction of requests that are writes.
        write_ratio: f64,
        /// Requests between window rotations.
        rotate_every: u64,
        /// Lines the window slides per rotation.
        drift: u64,
    },
    /// Diurnal phase cycling: each phase serves its request budget in
    /// order, and the schedule wraps around — the day/night regime shifts
    /// a long-lived service sees.
    Diurnal {
        /// The phase schedule, in order.
        phases: Vec<DiurnalPhase>,
    },
    /// Multi-tenant round-robin interleaving: each tenant's stream gets
    /// the device for `slice` consecutive requests.
    MultiTenant {
        /// Requests per scheduling quantum.
        slice: u64,
        /// Per-tenant workloads (all built over the experiment's space).
        tenants: Vec<WorkloadSpec>,
    },
    /// FTL/GC-style feedback workload: Zipf host traffic with sequential
    /// cleaning bursts triggered by the device's own wear statistics
    /// (`base + waf_gain·(WAF−1) − cov_gain·wear_CoV`). Requires a driver
    /// that feeds wear observations.
    GcFeedback {
        /// Zipf exponent of the host traffic.
        exponent: f64,
        /// Fraction of host requests that are writes.
        write_ratio: f64,
        /// Base invalid-ratio trigger threshold.
        base_threshold: f64,
        /// Threshold gain on (WAF − 1).
        waf_gain: f64,
        /// Threshold gain on wear CoV.
        cov_gain: f64,
        /// Writes per cleaning burst.
        gc_burst: u64,
    },
    /// Replay a recorded binary trace file (see DESIGN.md §16). The
    /// trace's address space must match the experiment's logical space.
    TraceFile {
        /// Path to the `.trc` file.
        path: String,
    },
}

/// One phase of a [`WorkloadSpec::Diurnal`] schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiurnalPhase {
    /// Workload served during this phase.
    pub workload: WorkloadSpec,
    /// Requests the phase serves before handing over.
    pub requests: u64,
}

impl WorkloadSpec {
    /// Display name. For the generator variants this matches the built
    /// stream's `AddressStream::name`, so spec-labelled and
    /// stream-labelled reports agree; trace replay reports under the name
    /// recorded in the trace header instead.
    pub fn name(&self) -> String {
        match self {
            Self::Raa => "raa".into(),
            Self::Bpa { .. } => "bpa".into(),
            Self::Uniform { .. } => "uniform".into(),
            Self::Zipf { .. } => "zipf".into(),
            Self::Spec(b) => b.name().into(),
            Self::Ycsb { .. } => "ycsb".into(),
            Self::Diurnal { phases } => format!(
                "phased({})",
                phases.iter().map(|p| p.workload.name()).collect::<Vec<_>>().join(">")
            ),
            Self::MultiTenant { tenants, .. } => {
                format!("multi({})", tenants.iter().map(|t| t.name()).collect::<Vec<_>>().join("+"))
            }
            Self::GcFeedback { .. } => "gc-feedback".into(),
            Self::TraceFile { path } => format!(
                "trace:{}",
                std::path::Path::new(path)
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default()
            ),
        }
    }

    /// Instantiate over `space` logical lines (power of two). Panics on an
    /// invalid spec; spec-driven entry points use
    /// [`WorkloadSpec::try_build`] to surface the defect instead.
    pub fn build(&self, space: u64, seed: u64) -> Box<dyn AddressStream + Send> {
        self.try_build(space, seed).unwrap_or_else(|e| panic!("invalid workload spec: {e}"))
    }

    /// Fallible [`WorkloadSpec::build`]: parameter defects, unreadable or
    /// malformed trace files, and space mismatches come back as a
    /// [`DriverError`] instead of a panic.
    pub fn try_build(
        &self,
        space: u64,
        seed: u64,
    ) -> Result<Box<dyn AddressStream + Send>, DriverError> {
        Ok(match self {
            Self::Raa => Box::new(Raa::new(0, space)),
            Self::Bpa { writes_per_target } => {
                Box::new(Bpa::new(space, *writes_per_target, derive(seed, "bpa")))
            }
            Self::Uniform { write_ratio } => {
                Self::check_ratio(*write_ratio)?;
                Box::new(Uniform::new(space, *write_ratio, derive(seed, "uniform")))
            }
            Self::Zipf { exponent, write_ratio } => {
                Self::check_ratio(*write_ratio)?;
                Box::new(ZipfStream::new(space, *exponent, *write_ratio, derive(seed, "zipf")))
            }
            Self::Spec(b) => Box::new(b.stream(space, derive(seed, b.name()))),
            Self::Ycsb { hot_lines, exponent, write_ratio, rotate_every, drift } => {
                Self::check_ratio(*write_ratio)?;
                if *hot_lines == 0 || *hot_lines > space {
                    return Err(DriverError::Spec(format!(
                        "ycsb hot window of {hot_lines} lines must fit the {space}-line space"
                    )));
                }
                if *rotate_every == 0 {
                    return Err(DriverError::Spec("ycsb rotate_every must be non-zero".into()));
                }
                Box::new(Ycsb::new(
                    space,
                    *hot_lines,
                    *exponent,
                    *write_ratio,
                    *rotate_every,
                    *drift,
                    derive(seed, "ycsb"),
                ))
            }
            Self::Diurnal { phases } => {
                if phases.is_empty() {
                    return Err(DriverError::Spec("diurnal schedule has no phases".into()));
                }
                let mut children = Vec::with_capacity(phases.len());
                for (i, p) in phases.iter().enumerate() {
                    if p.requests == 0 {
                        return Err(DriverError::Spec(format!(
                            "diurnal phase {i} has a zero request budget"
                        )));
                    }
                    children.push((
                        p.requests,
                        p.workload.try_build(space, derive(seed, &format!("phase{i}")))?,
                    ));
                }
                Box::new(Phased::new(children))
            }
            Self::MultiTenant { slice, tenants } => {
                if tenants.is_empty() {
                    return Err(DriverError::Spec("multi-tenant spec has no tenants".into()));
                }
                if *slice == 0 {
                    return Err(DriverError::Spec("multi-tenant slice must be non-zero".into()));
                }
                let mut children = Vec::with_capacity(tenants.len());
                for (i, t) in tenants.iter().enumerate() {
                    children.push(t.try_build(space, derive(seed, &format!("tenant{i}")))?);
                }
                Box::new(Interleave::new(children, *slice))
            }
            Self::GcFeedback {
                exponent,
                write_ratio,
                base_threshold,
                waf_gain,
                cov_gain,
                gc_burst,
            } => {
                Self::check_ratio(*write_ratio)?;
                if !(0.0..=1.0).contains(base_threshold) {
                    return Err(DriverError::Spec(format!(
                        "gc base threshold {base_threshold} must be a ratio in [0, 1]"
                    )));
                }
                if *gc_burst == 0 {
                    return Err(DriverError::Spec("gc burst must be non-zero".into()));
                }
                Box::new(GcFeedback::new(
                    space,
                    *exponent,
                    *write_ratio,
                    *base_threshold,
                    *waf_gain,
                    *cov_gain,
                    *gc_burst,
                    derive(seed, "gc-feedback"),
                ))
            }
            Self::TraceFile { path } => {
                let stream = TraceFileStream::open(std::path::Path::new(path))
                    .map_err(|e| DriverError::Spec(format!("trace file {path}: {e}")))?;
                // Schemes may round the logical space up (e.g. to a whole
                // number of regions), so a trace recorded against the
                // experiment's data size must still replay: any space the
                // trace's addresses cannot escape is acceptable.
                if stream.space_lines() > space {
                    return Err(DriverError::Spec(format!(
                        "trace file {path} covers {} lines but the experiment only maps {space}",
                        stream.space_lines()
                    )));
                }
                Box::new(stream)
            }
        })
    }

    fn check_ratio(write_ratio: f64) -> Result<(), DriverError> {
        if (0.0..=1.0).contains(&write_ratio) {
            Ok(())
        } else {
            Err(DriverError::Spec(format!("write ratio {write_ratio} must be in [0, 1]")))
        }
    }
}

/// Device parameters (geometry comes from the scheme).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Nominal cell endurance (the scaled Wmax, DESIGN.md §4).
    pub endurance: u32,
    /// Spare pool: spares = lines >> spare_shift (paper: 6).
    pub spare_shift: u32,
    /// Endurance process variation.
    pub variation: EnduranceModel,
    /// Banks.
    pub banks: u32,
}

impl Default for DeviceSpec {
    fn default() -> Self {
        Self { endurance: 10_000, spare_shift: 6, variation: EnduranceModel::Uniform, banks: 32 }
    }
}

impl DeviceSpec {
    /// Build a device with `physical_lines` lines. Panics on an invalid
    /// spec; spec-driven entry points use [`DeviceSpec::try_build`].
    pub fn build(&self, physical_lines: u64, seed: u64) -> NvmDevice {
        self.try_build(physical_lines, seed).unwrap_or_else(|e| panic!("invalid device spec: {e}"))
    }

    /// Fallible [`DeviceSpec::build`]: geometry defects come back as a
    /// [`DriverError`] instead of a panic.
    pub fn try_build(&self, physical_lines: u64, seed: u64) -> Result<NvmDevice, DriverError> {
        let banks = if u64::from(self.banks) > physical_lines { 1 } else { self.banks };
        NvmConfig::builder()
            .lines(physical_lines)
            .endurance(self.endurance)
            .spare_shift(self.spare_shift)
            .variation(self.variation)
            .banks(banks)
            .seed(derive(seed, "device"))
            .build()
            .map(NvmDevice::new)
            .map_err(|e| DriverError::Spec(format!("invalid device spec: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scheme_builds_and_serves_traffic() {
        let data_lines = 1 << 12;
        let specs = vec![
            SchemeSpec::Baseline,
            SchemeSpec::Ideal,
            SchemeSpec::SegmentSwap { segment_lines: 64, swap_period: 100 },
            SchemeSpec::Rbsg { regions: 16, region_lines: 256, period: 64 },
            SchemeSpec::SingleSr { period: 32 },
            SchemeSpec::Tlsr { region_lines: 64, inner_period: 8, outer_period: 32 },
            SchemeSpec::PcmS { region_lines: 16, period: 32 },
            SchemeSpec::Mwsr { region_lines: 16, period: 32 },
            SchemeSpec::Nwl { granularity: 4, cmt_entries: 128, swap_period: 128 },
            SchemeSpec::sawl_default(128),
        ];
        for spec in specs {
            let phys = spec.physical_lines(data_lines);
            assert!(phys >= data_lines, "{}", spec.name());
            let mut wl = spec.build(data_lines, 7);
            let mut dev = DeviceSpec::default().build(phys, 7);
            let mut stream =
                WorkloadSpec::Uniform { write_ratio: 0.5 }.build(wl.logical_lines(), 7);
            for _ in 0..2_000 {
                let r = stream.next_req();
                if r.write {
                    wl.write(r.la, &mut dev);
                } else {
                    wl.read(r.la, &mut dev);
                }
            }
            assert!(dev.wear().demand_writes > 0, "{}", spec.name());
        }
    }

    #[test]
    fn specs_serialize_round_trip() {
        let spec = SchemeSpec::Tlsr { region_lines: 64, inner_period: 8, outer_period: 32 };
        let json = serde_json::to_string(&spec).unwrap();
        let back: SchemeSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        let w = WorkloadSpec::Spec(SpecBenchmark::Soplex);
        let json = serde_json::to_string(&w).unwrap();
        assert_eq!(w, serde_json::from_str::<WorkloadSpec>(&json).unwrap());
    }

    #[test]
    fn translation_kinds() {
        assert_eq!(SchemeSpec::Baseline.translation_kind(), TranslationKind::None);
        assert_eq!(
            SchemeSpec::PcmS { region_lines: 4, period: 8 }.translation_kind(),
            TranslationKind::OnChip
        );
        assert_eq!(SchemeSpec::sawl_default(64).translation_kind(), TranslationKind::Tiered);
    }

    #[test]
    fn bad_specs_surface_typed_errors() {
        let err = SchemeSpec::Rbsg { regions: 3, region_lines: 100, period: 8 }
            .try_instantiate(1 << 10, 1)
            .unwrap_err();
        assert!(matches!(err, DriverError::Spec(_)), "{err:?}");
        assert!(err.to_string().contains("RBSG geometry"), "{err}");

        let bad = SchemeSpec::Sawl(SawlConfig { initial_granularity: 3, ..SawlConfig::default() });
        let err = bad.try_instantiate(1 << 10, 1).unwrap_err();
        assert!(matches!(err, DriverError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("powers of two"), "{err}");

        // Specs whose constructors would panic come back typed, naming
        // the offending field.
        for (spec, field) in [
            (SchemeSpec::SingleSr { period: 0 }, "period"),
            (
                SchemeSpec::Tlsr { region_lines: 64, inner_period: 0, outer_period: 32 },
                "inner_period",
            ),
            (
                SchemeSpec::Tlsr { region_lines: 64, inner_period: 8, outer_period: 0 },
                "outer_period",
            ),
            (
                SchemeSpec::Tlsr { region_lines: 48, inner_period: 8, outer_period: 32 },
                "region_lines",
            ),
            (
                SchemeSpec::Tlsr {
                    region_lines: 64,
                    inner_period: u64::from(u32::MAX) + 1,
                    outer_period: 32,
                },
                "inner_period",
            ),
            (SchemeSpec::PcmS { region_lines: 16, period: 0 }, "period"),
            (SchemeSpec::Mwsr { region_lines: 16, period: 0 }, "period"),
            (SchemeSpec::Mwsr { region_lines: 16, period: u64::from(u32::MAX) + 1 }, "period"),
            (SchemeSpec::Rbsg { regions: 4, region_lines: 256, period: 0 }, "period"),
            (SchemeSpec::SegmentSwap { segment_lines: 64, swap_period: 0 }, "swap_period"),
            (SchemeSpec::Nwl { granularity: 3, cmt_entries: 128, swap_period: 128 }, "granularity"),
            (SchemeSpec::Nwl { granularity: 4, cmt_entries: 128, swap_period: 0 }, "swap_period"),
            (SchemeSpec::Nwl { granularity: 4, cmt_entries: 1, swap_period: 128 }, "cmt_entries"),
        ] {
            let err = spec.try_instantiate(1 << 10, 1).unwrap_err();
            assert!(matches!(err, DriverError::Spec(_)), "{spec:?}: {err:?}");
            assert!(err.to_string().contains(field), "{spec:?}: {err}");
        }

        // Whole runs reject the NWL and SAWL specs whose layout
        // `physical_lines` cannot compute before it is asked to.
        for scheme in [
            SchemeSpec::Nwl { granularity: 3, cmt_entries: 128, swap_period: 128 },
            SchemeSpec::Nwl { granularity: 4, cmt_entries: 128, swap_period: 0 },
            SchemeSpec::Nwl { granularity: 4, cmt_entries: 1, swap_period: 128 },
            bad,
        ] {
            let exp = crate::LifetimeExperiment {
                id: "bad".into(),
                scheme,
                workload: WorkloadSpec::Bpa { writes_per_target: 64 },
                data_lines: 1 << 10,
                device: DeviceSpec::default(),
                max_demand_writes: 1_000,
                fault: None,
                telemetry: None,
                timing: None,
            };
            let err = crate::run_lifetime(&exp).unwrap_err();
            assert!(matches!(err, DriverError::Spec(_) | DriverError::Config(_)), "{err:?}");
        }
    }

    #[test]
    fn workload_names() {
        assert_eq!(WorkloadSpec::Raa.name(), "raa");
        assert_eq!(WorkloadSpec::Zipf { exponent: 1.0, write_ratio: 0.5 }.name(), "zipf");
        assert_eq!(WorkloadSpec::Spec(SpecBenchmark::Gcc).name(), "gcc");
    }

    #[test]
    fn zoo_workloads_round_trip_and_name_themselves() {
        let ycsb = WorkloadSpec::Ycsb {
            hot_lines: 64,
            exponent: 1.1,
            write_ratio: 0.8,
            rotate_every: 1_024,
            drift: 8,
        };
        let zoo = vec![
            (ycsb.clone(), "ycsb"),
            (
                WorkloadSpec::Diurnal {
                    phases: vec![
                        DiurnalPhase { workload: ycsb.clone(), requests: 100 },
                        DiurnalPhase {
                            workload: WorkloadSpec::Uniform { write_ratio: 0.3 },
                            requests: 50,
                        },
                    ],
                },
                "phased(ycsb>uniform)",
            ),
            (
                WorkloadSpec::MultiTenant {
                    slice: 32,
                    tenants: vec![
                        WorkloadSpec::Zipf { exponent: 1.2, write_ratio: 0.9 },
                        WorkloadSpec::Uniform { write_ratio: 0.5 },
                    ],
                },
                "multi(zipf+uniform)",
            ),
            (
                WorkloadSpec::GcFeedback {
                    exponent: 1.1,
                    write_ratio: 0.8,
                    base_threshold: 0.3,
                    waf_gain: 0.05,
                    cov_gain: 0.1,
                    gc_burst: 64,
                },
                "gc-feedback",
            ),
            (WorkloadSpec::TraceFile { path: "/some/dir/run.trc".into() }, "trace:run.trc"),
        ];
        for (w, name) in &zoo {
            assert_eq!(&w.name(), name);
            let json = serde_json::to_string(w).unwrap();
            assert_eq!(*w, serde_json::from_str::<WorkloadSpec>(&json).unwrap(), "{name}");
        }
    }

    #[test]
    fn zoo_workload_defects_surface_typed_spec_errors() {
        let cases: Vec<(WorkloadSpec, &str)> = vec![
            (
                WorkloadSpec::Ycsb {
                    hot_lines: 0,
                    exponent: 1.1,
                    write_ratio: 0.8,
                    rotate_every: 1_024,
                    drift: 8,
                },
                "hot window",
            ),
            (
                WorkloadSpec::Ycsb {
                    hot_lines: 64,
                    exponent: 1.1,
                    write_ratio: 0.8,
                    rotate_every: 0,
                    drift: 8,
                },
                "rotate_every",
            ),
            (WorkloadSpec::Diurnal { phases: vec![] }, "no phases"),
            (
                WorkloadSpec::Diurnal {
                    phases: vec![DiurnalPhase {
                        workload: WorkloadSpec::Uniform { write_ratio: 0.3 },
                        requests: 0,
                    }],
                },
                "request budget",
            ),
            (WorkloadSpec::MultiTenant { slice: 32, tenants: vec![] }, "no tenants"),
            (
                WorkloadSpec::MultiTenant {
                    slice: 0,
                    tenants: vec![WorkloadSpec::Uniform { write_ratio: 0.5 }],
                },
                "slice",
            ),
            (
                WorkloadSpec::GcFeedback {
                    exponent: 1.1,
                    write_ratio: 0.8,
                    base_threshold: 1.5,
                    waf_gain: 0.05,
                    cov_gain: 0.1,
                    gc_burst: 64,
                },
                "base threshold",
            ),
            (
                WorkloadSpec::GcFeedback {
                    exponent: 1.1,
                    write_ratio: 0.8,
                    base_threshold: 0.3,
                    waf_gain: 0.05,
                    cov_gain: 0.1,
                    gc_burst: 0,
                },
                "burst",
            ),
            (WorkloadSpec::TraceFile { path: "/nonexistent/missing.trc".into() }, "trace file"),
        ];
        for (w, needle) in cases {
            let err = match w.try_build(1 << 10, 1) {
                Err(e) => e,
                Ok(_) => panic!("{needle}: defective spec built a stream"),
            };
            assert!(matches!(err, DriverError::Spec(_)), "{needle}: {err:?}");
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn zipf_workload_builds_and_round_trips() {
        let w = WorkloadSpec::Zipf { exponent: 1.1, write_ratio: 0.8 };
        let json = serde_json::to_string(&w).unwrap();
        assert_eq!(w, serde_json::from_str::<WorkloadSpec>(&json).unwrap());
        let mut stream = w.build(1 << 10, 5);
        let mut hot = 0u64;
        for _ in 0..10_000 {
            let r = stream.next_req();
            assert!(r.la < 1 << 10);
            hot += u64::from(r.la < 16);
        }
        assert!(hot > 3_000, "zipf skew missing: {hot}");
    }
}
