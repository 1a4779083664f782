//! # sawl-telemetry — time-series observability for the SAWL stack
//!
//! SAWL's adaptive loop is driven by observed signals (CMT hit rate, LRU
//! hot-half concentration, wear CoV), but the simulator historically only
//! reported end-of-run aggregates. This crate makes those signals
//! first-class: a [`Recorder`] samples a typed counter/gauge registry at a
//! fixed request stride, and a bounded [`EventRing`] captures discrete
//! adaptation events (merge, split, exchange, target-granularity moves).
//!
//! The design contract is *zero cost when disabled*: producers keep their
//! instrumentation behind `Option`s that are `None` unless a
//! [`TelemetrySpec`] is attached to the experiment, so the hot paths pay at
//! most one well-predicted branch. Enabled or not, telemetry is pure
//! observation — it must never change simulation results (the simctl
//! equivalence suite pins this bit-for-bit).
//!
//! ## Sampling clock
//!
//! The stride counts *served requests*, not device writes: for lifetime
//! pumps that is the demand writes the experiment serves (reads are not
//! part of lifetime workloads), for trace pumps it is every request. A
//! sample is taken immediately after the request with 1-based index
//! `k * stride` completes — the same clock the engine's own
//! `HitRateAdaptation` uses — so batched and scalar drivers sample at
//! identical points (see `pump_writes` in sawl-simctl).
//!
//! ## Output
//!
//! A finished run yields a [`Series`]: the sampled points, the drained
//! event ring, and the channel registry. It serializes as ordinary JSON
//! (embedded in `LifetimeResult`), and [`Series::to_json_lines`] renders
//! the streaming JSON-lines form used by `sawl-sim --telemetry` and the
//! golden-run regression suite (schema in DESIGN.md §12).

mod hist;
mod recorder;
mod ring;

pub use hist::{HistogramSnapshot, LatencyHistogram, Percentile, MAX_TRACKABLE_NS};
pub use recorder::Recorder;
pub use ring::{Event, EventKind, EventRing};

use serde::{Deserialize, Serialize};

/// Default sample stride (requests between samples) when a spec does not
/// give one — matches the engine's default `sample_interval`.
pub const DEFAULT_STRIDE: u64 = 100_000;

/// Default bounded event-ring capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// JSON-lines schema version emitted in the `meta` line.
///
/// * v1 — counters + gauges.
/// * v2 — adds [`ChannelKind::Histogram`] channels (`hists` on every
///   sample line, run-length-encoded buckets) and the per-cause stall
///   counters from the timing model.
pub const SCHEMA_VERSION: u32 = 2;

/// What kind of value a channel carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// Monotone non-decreasing `u64` (cumulative count).
    Counter,
    /// Point-in-time `f64` reading.
    Gauge,
    /// Cumulative log-bucketed distribution ([`HistogramSnapshot`]).
    Histogram,
}

/// The typed channel registry. Counters are cumulative and monotone
/// across the samples of one run; gauges are instantaneous readings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Channel {
    // -- counters ---------------------------------------------------------
    /// Demand (application) writes served.
    DemandWrites,
    /// Wear-leveling overhead writes issued by the scheme.
    OverheadWrites,
    /// Maximum per-line write count on the device.
    WearMax,
    /// CMT lookup hits (cumulative).
    CmtHits,
    /// CMT lookup misses (cumulative).
    CmtMisses,
    /// Completed region merges.
    Merges,
    /// Completed region splits.
    Splits,
    /// Completed region exchanges.
    Exchanges,
    /// Journal records opened (`begin`).
    JournalBegins,
    /// Journal records landed (`commit`).
    JournalCommits,
    /// Journal records rolled back.
    JournalRollbacks,
    /// Power-loss events the device has suffered.
    PowerLosses,
    /// Transient write faults injected (before verify-and-retry).
    TransientFaults,
    /// Cumulative demand-request stall attributed to bank queueing, ns.
    StallQueueNs,
    /// Cumulative stall attributed to CMT translation misses, ns.
    StallTransMissNs,
    /// Cumulative stall attributed to in-flight data exchanges, ns.
    StallExchangeNs,
    /// Cumulative stall attributed to region merges/splits, ns.
    StallReorgNs,
    // -- gauges -----------------------------------------------------------
    /// Mean per-line write count.
    WearMean,
    /// Coefficient of variation of per-line write counts
    /// (population stddev / mean; 0 when the mean is 0).
    WearCov,
    /// Spare lines remaining in the pool.
    SpareLevel,
    /// Instantaneous CMT hit rate over the last stride (hits delta /
    /// lookups delta; 0 when no lookups happened).
    CmtHitRate,
    /// The scheme's own windowed hit-rate estimate (SAWL's observation
    /// window), when it keeps one.
    CmtWindowedHitRate,
    /// Share of CMT hits landing in the hot (first) LRU half over the
    /// last stride.
    CmtHotHalfShare,
    /// Regions currently mapped (SAWL) or granules (fixed schemes).
    RegionCount,
    /// Average cached region size in lines (SAWL).
    RegionSizeCached,
    /// Average global region size in lines (SAWL).
    RegionSizeGlobal,
    // -- histograms -------------------------------------------------------
    /// Cumulative demand-request latency distribution, ns.
    LatencyNs,
}

impl Channel {
    /// Every channel, in the canonical sampling order (counters, then
    /// gauges, then histograms).
    pub const ALL: [Channel; 27] = [
        Channel::DemandWrites,
        Channel::OverheadWrites,
        Channel::WearMax,
        Channel::CmtHits,
        Channel::CmtMisses,
        Channel::Merges,
        Channel::Splits,
        Channel::Exchanges,
        Channel::JournalBegins,
        Channel::JournalCommits,
        Channel::JournalRollbacks,
        Channel::PowerLosses,
        Channel::TransientFaults,
        Channel::StallQueueNs,
        Channel::StallTransMissNs,
        Channel::StallExchangeNs,
        Channel::StallReorgNs,
        Channel::WearMean,
        Channel::WearCov,
        Channel::SpareLevel,
        Channel::CmtHitRate,
        Channel::CmtWindowedHitRate,
        Channel::CmtHotHalfShare,
        Channel::RegionCount,
        Channel::RegionSizeCached,
        Channel::RegionSizeGlobal,
        Channel::LatencyNs,
    ];

    /// Counter, gauge, or histogram.
    pub fn kind(self) -> ChannelKind {
        match self {
            Channel::DemandWrites
            | Channel::OverheadWrites
            | Channel::WearMax
            | Channel::CmtHits
            | Channel::CmtMisses
            | Channel::Merges
            | Channel::Splits
            | Channel::Exchanges
            | Channel::JournalBegins
            | Channel::JournalCommits
            | Channel::JournalRollbacks
            | Channel::PowerLosses
            | Channel::TransientFaults
            | Channel::StallQueueNs
            | Channel::StallTransMissNs
            | Channel::StallExchangeNs
            | Channel::StallReorgNs => ChannelKind::Counter,
            Channel::WearMean
            | Channel::WearCov
            | Channel::SpareLevel
            | Channel::CmtHitRate
            | Channel::CmtWindowedHitRate
            | Channel::CmtHotHalfShare
            | Channel::RegionCount
            | Channel::RegionSizeCached
            | Channel::RegionSizeGlobal => ChannelKind::Gauge,
            Channel::LatencyNs => ChannelKind::Histogram,
        }
    }

    /// Stable name, identical to the serde variant tag.
    pub fn name(self) -> &'static str {
        match self {
            Channel::DemandWrites => "DemandWrites",
            Channel::OverheadWrites => "OverheadWrites",
            Channel::WearMax => "WearMax",
            Channel::CmtHits => "CmtHits",
            Channel::CmtMisses => "CmtMisses",
            Channel::Merges => "Merges",
            Channel::Splits => "Splits",
            Channel::Exchanges => "Exchanges",
            Channel::JournalBegins => "JournalBegins",
            Channel::JournalCommits => "JournalCommits",
            Channel::JournalRollbacks => "JournalRollbacks",
            Channel::PowerLosses => "PowerLosses",
            Channel::TransientFaults => "TransientFaults",
            Channel::StallQueueNs => "StallQueueNs",
            Channel::StallTransMissNs => "StallTransMissNs",
            Channel::StallExchangeNs => "StallExchangeNs",
            Channel::StallReorgNs => "StallReorgNs",
            Channel::WearMean => "WearMean",
            Channel::WearCov => "WearCov",
            Channel::SpareLevel => "SpareLevel",
            Channel::CmtHitRate => "CmtHitRate",
            Channel::CmtWindowedHitRate => "CmtWindowedHitRate",
            Channel::CmtHotHalfShare => "CmtHotHalfShare",
            Channel::RegionCount => "RegionCount",
            Channel::RegionSizeCached => "RegionSizeCached",
            Channel::RegionSizeGlobal => "RegionSizeGlobal",
            Channel::LatencyNs => "LatencyNs",
        }
    }
}

/// What to record and how often. Attach one to a `LifetimeExperiment` or
/// `TraceExperiment` to enable telemetry; absent means fully disabled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySpec {
    /// Requests between samples (must be >= 1).
    pub stride: u64,
    /// Channels to record; empty selects the full registry.
    #[serde(default)]
    pub channels: Vec<Channel>,
    /// Event-ring capacity; 0 selects [`DEFAULT_EVENT_CAPACITY`].
    #[serde(default)]
    pub event_capacity: usize,
    /// Emit a stderr progress ticker while the run pumps.
    #[serde(default)]
    pub progress: bool,
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        Self { stride: DEFAULT_STRIDE, channels: Vec::new(), event_capacity: 0, progress: false }
    }
}

impl TelemetrySpec {
    /// A full-registry spec with the given stride.
    pub fn with_stride(stride: u64) -> Self {
        Self { stride, ..Self::default() }
    }

    /// Whether `channel` is selected (empty selection = all).
    pub fn records(&self, channel: Channel) -> bool {
        self.channels.is_empty() || self.channels.contains(&channel)
    }

    /// The event-ring capacity after defaulting.
    pub fn effective_event_capacity(&self) -> usize {
        if self.event_capacity == 0 {
            DEFAULT_EVENT_CAPACITY
        } else {
            self.event_capacity
        }
    }
}

/// A scheme's contribution to one sample. Producers fill what they track
/// and leave the rest `None`; missing signals are simply not recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchemeSample {
    pub cmt_hits: Option<u64>,
    pub cmt_misses: Option<u64>,
    pub cmt_hits_first_half: Option<u64>,
    pub cmt_hits_second_half: Option<u64>,
    pub windowed_hit_rate: Option<f64>,
    pub merges: Option<u64>,
    pub splits: Option<u64>,
    pub exchanges: Option<u64>,
    pub journal_begins: Option<u64>,
    pub journal_commits: Option<u64>,
    pub journal_rollbacks: Option<u64>,
    pub region_count: Option<u64>,
    pub region_size_cached: Option<f64>,
    pub region_size_global: Option<f64>,
}

/// The device's contribution to one sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceSample {
    pub demand_writes: u64,
    pub overhead_writes: u64,
    /// From the incremental wear probe; `None` when the probe is off.
    pub wear_mean: Option<f64>,
    pub wear_cov: Option<f64>,
    pub wear_max: Option<u64>,
    pub spares_remaining: u64,
    pub power_losses: u64,
    pub transient_faults: u64,
}

/// The timing model's contribution to one sample: cumulative per-cause
/// stall time plus the cumulative latency distribution. Producers sample
/// it on the same served-request clock as everything else, so batched and
/// scalar drivers emit bit-identical snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingSample {
    pub stall_queue_ns: u64,
    pub stall_trans_miss_ns: u64,
    pub stall_exchange_ns: u64,
    pub stall_reorg_ns: u64,
    pub latency: HistogramSnapshot,
}

/// One recorded point: the request index it was taken at plus the
/// counter/gauge/histogram readings, all in [`Channel::ALL`] order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplePoint {
    pub requests: u64,
    #[serde(default)]
    pub counters: Vec<(Channel, u64)>,
    #[serde(default)]
    pub gauges: Vec<(Channel, f64)>,
    #[serde(default)]
    pub hists: Vec<(Channel, HistogramSnapshot)>,
}

impl SamplePoint {
    /// Look up a counter reading by channel.
    pub fn counter(&self, channel: Channel) -> Option<u64> {
        self.counters.iter().find(|(c, _)| *c == channel).map(|(_, v)| *v)
    }

    /// Look up a gauge reading by channel.
    pub fn gauge(&self, channel: Channel) -> Option<f64> {
        self.gauges.iter().find(|(c, _)| *c == channel).map(|(_, v)| *v)
    }

    /// Look up a histogram snapshot by channel.
    pub fn hist(&self, channel: Channel) -> Option<&HistogramSnapshot> {
        self.hists.iter().find(|(c, _)| *c == channel).map(|(_, v)| v)
    }
}

/// A finished telemetry run: the sampled series plus the drained event
/// ring. Embedded verbatim in `LifetimeResult`/`TraceReport`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    pub stride: u64,
    /// The channels that were eligible for recording (the resolved
    /// selection, full registry if the spec left it empty).
    pub channels: Vec<Channel>,
    pub samples: Vec<SamplePoint>,
    #[serde(default)]
    pub events: Vec<Event>,
    /// Events discarded by the bounded ring (oldest-first).
    #[serde(default)]
    pub events_dropped: u64,
}

impl Series {
    /// Render the streaming JSON-lines form (`meta`, `sample`*, `event`*,
    /// `end`), one JSON object per line, trailing newline included. The
    /// encoding is deterministic — goldens byte-compare it.
    pub fn to_json_lines(&self) -> String {
        #[derive(Serialize)]
        struct MetaLine {
            line: &'static str,
            version: u32,
            stride: u64,
            channels: Vec<&'static str>,
        }
        #[derive(Serialize)]
        struct SampleLine {
            line: &'static str,
            requests: u64,
            counters: Vec<(&'static str, u64)>,
            gauges: Vec<(&'static str, f64)>,
            hists: Vec<(&'static str, HistogramSnapshot)>,
        }
        #[derive(Serialize)]
        struct EventLine {
            line: &'static str,
            requests: u64,
            kind: EventKind,
        }
        #[derive(Serialize)]
        struct EndLine {
            line: &'static str,
            samples: u64,
            events: u64,
            events_dropped: u64,
        }

        let mut out = String::new();
        let meta = MetaLine {
            line: "meta",
            version: SCHEMA_VERSION,
            stride: self.stride,
            channels: self.channels.iter().map(|c| c.name()).collect(),
        };
        out.push_str(&serde_json::to_string(&meta).expect("serialize meta line"));
        out.push('\n');
        for s in &self.samples {
            let line = SampleLine {
                line: "sample",
                requests: s.requests,
                counters: s.counters.iter().map(|(c, v)| (c.name(), *v)).collect(),
                gauges: s.gauges.iter().map(|(c, v)| (c.name(), *v)).collect(),
                hists: s.hists.iter().map(|(c, v)| (c.name(), v.clone())).collect(),
            };
            out.push_str(&serde_json::to_string(&line).expect("serialize sample line"));
            out.push('\n');
        }
        for e in &self.events {
            let line = EventLine { line: "event", requests: e.requests, kind: e.kind };
            out.push_str(&serde_json::to_string(&line).expect("serialize event line"));
            out.push('\n');
        }
        let end = EndLine {
            line: "end",
            samples: self.samples.len() as u64,
            events: self.events.len() as u64,
            events_dropped: self.events_dropped,
        };
        out.push_str(&serde_json::to_string(&end).expect("serialize end line"));
        out.push('\n');
        out
    }

    /// The trajectory of one gauge as `(requests, value)` pairs.
    pub fn gauge_series(&self, channel: Channel) -> Vec<(u64, f64)> {
        self.samples.iter().filter_map(|s| s.gauge(channel).map(|v| (s.requests, v))).collect()
    }

    /// The trajectory of one counter as `(requests, value)` pairs.
    pub fn counter_series(&self, channel: Channel) -> Vec<(u64, u64)> {
        self.samples.iter().filter_map(|s| s.counter(channel).map(|v| (s.requests, v))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        assert_eq!(Channel::ALL.len(), 27);
        for (i, c) in Channel::ALL.iter().enumerate() {
            // Names are unique and serde round-trips the unit variant.
            for d in &Channel::ALL[i + 1..] {
                assert_ne!(c.name(), d.name());
            }
            let json = serde_json::to_string(c).unwrap();
            assert_eq!(json, format!("\"{}\"", c.name()));
            let back: Channel = serde_json::from_str(&json).unwrap();
            assert_eq!(back, *c);
        }
    }

    #[test]
    fn kinds_are_blocked_in_registry_order() {
        // Counters, then gauges, then histograms — sample rows keep the
        // same shape as the registry listing.
        let first_gauge = Channel::ALL.iter().position(|c| c.kind() == ChannelKind::Gauge).unwrap();
        let first_hist =
            Channel::ALL.iter().position(|c| c.kind() == ChannelKind::Histogram).unwrap();
        assert!(first_gauge < first_hist);
        assert!(Channel::ALL[..first_gauge].iter().all(|c| c.kind() == ChannelKind::Counter));
        assert!(Channel::ALL[first_gauge..first_hist]
            .iter()
            .all(|c| c.kind() == ChannelKind::Gauge));
        assert!(Channel::ALL[first_hist..].iter().all(|c| c.kind() == ChannelKind::Histogram));
    }

    #[test]
    fn spec_defaults_and_selection() {
        let spec = TelemetrySpec::default();
        assert_eq!(spec.stride, DEFAULT_STRIDE);
        assert!(spec.records(Channel::WearCov));
        assert_eq!(spec.effective_event_capacity(), DEFAULT_EVENT_CAPACITY);

        let narrow = TelemetrySpec {
            channels: vec![Channel::DemandWrites],
            event_capacity: 4,
            ..TelemetrySpec::with_stride(10)
        };
        assert!(narrow.records(Channel::DemandWrites));
        assert!(!narrow.records(Channel::WearCov));
        assert_eq!(narrow.effective_event_capacity(), 4);
    }

    #[test]
    fn spec_json_round_trip_with_defaults() {
        let spec: TelemetrySpec = serde_json::from_str("{\"stride\": 500}").unwrap();
        assert_eq!(spec, TelemetrySpec::with_stride(500));
        let json = serde_json::to_string(&spec).unwrap();
        let back: TelemetrySpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn series_round_trips_through_json() {
        let series = Series {
            stride: 100,
            channels: vec![Channel::DemandWrites, Channel::WearCov],
            samples: vec![SamplePoint {
                requests: 100,
                counters: vec![(Channel::DemandWrites, 100)],
                gauges: vec![(Channel::WearCov, 0.25)],
                hists: vec![(Channel::LatencyNs, {
                    let mut h = LatencyHistogram::new();
                    h.record(60);
                    h.record(410);
                    h.snapshot()
                })],
            }],
            events: vec![Event { requests: 42, kind: EventKind::Merge { base: 8 } }],
            events_dropped: 1,
        };
        let json = serde_json::to_string(&series).unwrap();
        let back: Series = serde_json::from_str(&json).unwrap();
        assert_eq!(back, series);
    }

    #[test]
    fn json_lines_shape_and_determinism() {
        let series = Series {
            stride: 100,
            channels: vec![Channel::DemandWrites, Channel::CmtHitRate],
            samples: vec![SamplePoint {
                requests: 100,
                counters: vec![(Channel::DemandWrites, 100)],
                gauges: vec![(Channel::CmtHitRate, 0.5)],
                hists: vec![(Channel::LatencyNs, {
                    let mut h = LatencyHistogram::new();
                    h.record_n(60, 99);
                    h.record(900);
                    h.snapshot()
                })],
            }],
            events: vec![Event { requests: 7, kind: EventKind::Split { base: 0 } }],
            events_dropped: 0,
        };
        let text = series.to_json_lines();
        assert_eq!(text, series.to_json_lines());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"line\":\"meta\""));
        assert!(lines[0].contains("\"version\":2"));
        assert!(lines[1].contains("[\"DemandWrites\",100]"));
        assert!(lines[1].contains("\"hists\":[[\"LatencyNs\",{\"count\":100"));
        assert!(lines[2].contains("\"Split\""));
        assert!(lines[3].starts_with("{\"line\":\"end\""));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn sample_lookup_helpers() {
        let p = SamplePoint {
            requests: 10,
            counters: vec![(Channel::CmtHits, 3)],
            gauges: vec![(Channel::WearMean, 1.5)],
            hists: vec![(Channel::LatencyNs, LatencyHistogram::new().snapshot())],
        };
        assert_eq!(p.counter(Channel::CmtHits), Some(3));
        assert_eq!(p.counter(Channel::CmtMisses), None);
        assert_eq!(p.gauge(Channel::WearMean), Some(1.5));
        assert_eq!(p.gauge(Channel::WearCov), None);
        assert!(p.hist(Channel::LatencyNs).is_some());
    }
}
