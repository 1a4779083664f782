//! # sawl-trace — memory request streams
//!
//! The SAWL paper evaluates wear leveling under three kinds of traffic:
//!
//! 1. **Attack programs** — Repeated Address Attack (RAA) writes one logical
//!    address forever; Birthday Paradox Attack (BPA) randomly selects logical
//!    addresses and hammers each precisely ([`attack`]).
//! 2. **SPEC CPU2006 applications** — 14 memory-intensive benchmarks played
//!    through gem5. SPEC traces are proprietary, so this crate provides
//!    *synthetic SPEC-like models* ([`spec`]): parameterized address-stream
//!    generators (footprint, Zipf skew, scan fraction, write ratio, phase
//!    schedule) whose parameters are chosen per benchmark to reproduce the
//!    qualitative access classes the paper reports. See DESIGN.md §5.
//! 3. **Microbenchmark patterns** — uniform, stride, sequential, hotspot
//!    ([`patterns`]) used by unit tests and ablations.
//!
//! Every generator implements [`AddressStream`]; streams compose via
//! [`phased::Phased`] and [`phased::Mix`]. Streams can be recorded to and
//! replayed from a compact binary format ([`file`]).
//!
//! All randomness is deterministic per seed: the same (generator, seed)
//! pair always produces the same request sequence.

pub mod attack;
pub mod crash;
pub mod feedback;
pub mod file;
pub mod interleave;
pub mod patterns;
pub mod phased;
pub mod reuse;
pub mod spec;
pub mod ycsb;
pub mod zipf;

pub use attack::{Bpa, Raa};
pub use crash::{
    demand_writes_before, power_loss_at_sample_boundaries, power_loss_schedule, sample_boundaries,
};
pub use feedback::GcFeedback;
pub use file::{TraceFileStream, TraceReader, TraceWriter};
pub use interleave::Interleave;
pub use patterns::{Hotspot, SeqScan, Stride, Uniform, ZipfStream};
pub use phased::{Mix, Phased};
pub use reuse::ReuseTracker;
pub use spec::{SpecBenchmark, SpecModel, ALL_BENCHMARKS};
pub use ycsb::Ycsb;
pub use zipf::Zipf;

/// One memory request at line granularity, after the on-chip caches: this
/// is the traffic the memory controller (and hence wear leveling) sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemReq {
    /// Logical line address.
    pub la: u64,
    /// `true` for a write (wears the cell), `false` for a read.
    pub write: bool,
}

impl MemReq {
    /// Construct a read request.
    pub fn read(la: u64) -> Self {
        Self { la, write: false }
    }

    /// Construct a write request.
    pub fn write(la: u64) -> Self {
        Self { la, write: true }
    }
}

/// A run of `len` consecutive identical requests (same logical address,
/// same kind). The run-level stream interface ([`AddressStream::fill_runs`])
/// speaks in these so that run-structured generators (BPA dwells, RAA) can
/// hand whole runs to the batched write path without ever materializing —
/// or re-scanning — the per-request sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqRun {
    /// Logical line address every request in the run targets.
    pub la: u64,
    /// `true` for writes, `false` for reads.
    pub write: bool,
    /// Number of consecutive requests in the run (≥ 1).
    pub len: u64,
}

/// A point-in-time summary of device wear, fed to observation-driven
/// streams ([`AddressStream::observe_wear`]) at batch boundaries. Drivers
/// build one from the device's wear counters and its O(1) incremental
/// wear probe immediately before each batch pull, so a feedback workload
/// (e.g. a GC model whose trigger follows write amplification and wear
/// variance) sees the same numbers on the scalar and batched paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearObservation {
    /// Demand writes the device has absorbed so far.
    pub demand_writes: u64,
    /// Overhead (wear-leveling / fault) writes so far.
    pub overhead_writes: u64,
    /// Mean per-line write count.
    pub wear_mean: f64,
    /// Coefficient of variation of per-line write counts.
    pub wear_cov: f64,
    /// Maximum per-line write count.
    pub wear_max: u32,
}

impl WearObservation {
    /// Write amplification factor: total writes / demand writes (1.0
    /// before any demand write lands).
    pub fn waf(&self) -> f64 {
        if self.demand_writes == 0 {
            1.0
        } else {
            (self.demand_writes + self.overhead_writes) as f64 / self.demand_writes as f64
        }
    }
}

/// How a stream's position is captured in a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorKind {
    /// The stream has no serialized cursor: resume rebuilds it from its
    /// spec and fast-forwards with [`AddressStream::skip_batches`].
    Replay,
    /// The stream serializes its full position through
    /// [`AddressStream::cursor_save`] / [`AddressStream::cursor_restore`],
    /// so resume is O(cursor) instead of O(history) — and is the only
    /// sound option for observation-driven streams, whose replay would
    /// diverge without the original wear feedback.
    State,
}

/// An infinite stream of memory requests over a logical address space of
/// `space_lines()` lines. Implementations must be deterministic functions of
/// their construction parameters (including seeds).
pub trait AddressStream {
    /// Produce the next request. Streams are infinite; generators cycle or
    /// re-draw as needed.
    fn next_req(&mut self) -> MemReq;

    /// Fill `buf` with the next `buf.len()` requests and return how many
    /// were produced (always `buf.len()` — streams are infinite), in the
    /// [`next_req`](Self::next_req) order.
    ///
    /// No workspace code calls this: [`fill_runs`](Self::fill_runs) is the
    /// one batched path. It stays on the trait only because the benchmark
    /// crate's forwarding wrappers override it, and goes with the next
    /// change to the benchmark.
    fn fill(&mut self, buf: &mut [MemReq]) -> usize {
        for slot in buf.iter_mut() {
            *slot = self.next_req();
        }
        buf.len()
    }

    /// The one batched stream path: drain the next `scratch.len()`
    /// requests as runs of identical consecutive requests, replacing the
    /// contents of `runs`. Returns the total number of requests covered
    /// (always `scratch.len()`); `scratch` is only the request budget.
    ///
    /// Flattening the produced runs yields exactly the
    /// [`next_req`](Self::next_req) sequence, except that run boundaries
    /// are unspecified: a maximal run may be split across several `ReqRun`
    /// entries (never merged out of order). Batched drivers must therefore
    /// treat consecutive entries independently — which the device/scheme
    /// `write_run` split-equivalence already guarantees.
    ///
    /// The default coalesces straight off `next_req`, which is statically
    /// dispatched and inlined in each generator's copy of this method, so
    /// a new generator needs nothing more. Override it only to do strictly
    /// better: run-structured generators (BPA, RAA) emit whole runs in
    /// O(1), and the combinators delegate to their children's own paths.
    fn fill_runs(&mut self, runs: &mut Vec<ReqRun>, scratch: &mut [MemReq]) -> u64 {
        runs.clear();
        let budget = scratch.len() as u64;
        if budget == 0 {
            return 0;
        }
        let first = self.next_req();
        let mut cur = ReqRun { la: first.la, write: first.write, len: 1 };
        for _ in 1..budget {
            let req = self.next_req();
            if req.la == cur.la && req.write == cur.write {
                cur.len += 1;
            } else {
                runs.push(cur);
                cur = ReqRun { la: req.la, write: req.write, len: 1 };
            }
        }
        runs.push(cur);
        budget
    }

    /// Fast-forward the stream by replaying `batches` complete
    /// [`fill_runs`](Self::fill_runs) calls of `scratch.len()` requests
    /// each, discarding the output. This is the resume cursor of a
    /// [`CursorKind::Replay`] stream: its internal state after N batches is
    /// a deterministic function of (generator parameters, seed, batch
    /// size, N), so a checkpoint needs to record only the batch count —
    /// rebuilding the stream from its spec and replaying the same call
    /// pattern lands it exactly where the original run left off.
    ///
    /// Every built-in generator has a [`CursorKind::State`] cursor, so only
    /// a user-defined stream ever replays. This is a trait method rather
    /// than a loop in the resume path only because the benchmark crate's
    /// wrappers override it; like [`fill`](Self::fill), it goes with the
    /// next change to the benchmark.
    fn skip_batches(&mut self, batches: u64, scratch: &mut [MemReq]) {
        let mut runs = Vec::new();
        for _ in 0..batches {
            self.fill_runs(&mut runs, scratch);
        }
    }

    /// Size of the logical address space this stream draws from; every
    /// produced `la` is `< space_lines()`.
    fn space_lines(&self) -> u64;

    /// Human-readable name for reports.
    fn name(&self) -> &str {
        "stream"
    }

    /// Whether this stream consumes wear observations. Drivers only pay
    /// for building a [`WearObservation`] (and for the device's wear
    /// probe) when this returns `true`.
    fn wants_observation(&self) -> bool {
        false
    }

    /// Feed the stream a wear summary. Drivers call this immediately
    /// before every [`fill_runs`](Self::fill_runs) pull — i.e. at every
    /// batch boundary — so feedback decisions land at deterministic,
    /// batch-size-pinned points in the request stream.
    fn observe_wear(&mut self, _obs: &WearObservation) {}

    /// How this stream's position checkpoints. Streams with a
    /// [`CursorKind::State`] cursor must implement
    /// [`cursor_save`](Self::cursor_save) /
    /// [`cursor_restore`](Self::cursor_restore) as exact inverses.
    fn cursor_kind(&self) -> CursorKind {
        CursorKind::Replay
    }

    /// Serialize the stream's position. Only meaningful for
    /// [`CursorKind::State`] streams; the default writes nothing.
    fn cursor_save(&self, _w: &mut sawl_ckpt::Writer) {}

    /// Restore the position written by [`cursor_save`](Self::cursor_save)
    /// into a freshly built stream. Only meaningful for
    /// [`CursorKind::State`] streams; the default reads nothing.
    fn cursor_restore(&mut self, _r: &mut sawl_ckpt::Reader) -> Result<(), sawl_ckpt::CkptError> {
        Ok(())
    }
}

impl<S: AddressStream + ?Sized> AddressStream for Box<S> {
    fn next_req(&mut self) -> MemReq {
        (**self).next_req()
    }

    fn fill(&mut self, buf: &mut [MemReq]) -> usize {
        (**self).fill(buf)
    }

    fn fill_runs(&mut self, runs: &mut Vec<ReqRun>, scratch: &mut [MemReq]) -> u64 {
        (**self).fill_runs(runs, scratch)
    }

    fn space_lines(&self) -> u64 {
        (**self).space_lines()
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn wants_observation(&self) -> bool {
        (**self).wants_observation()
    }

    fn observe_wear(&mut self, obs: &WearObservation) {
        (**self).observe_wear(obs)
    }

    fn cursor_kind(&self) -> CursorKind {
        (**self).cursor_kind()
    }

    fn cursor_save(&self, w: &mut sawl_ckpt::Writer) {
        (**self).cursor_save(w)
    }

    fn cursor_restore(&mut self, r: &mut sawl_ckpt::Reader) -> Result<(), sawl_ckpt::CkptError> {
        (**self).cursor_restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flatten `fill_runs` output back into requests and check it matches
    /// the `next_req` sequence of an identical twin stream.
    fn assert_runs_match_scalar<S: AddressStream>(
        mut runs_side: S,
        mut scalar_side: S,
        total: u64,
    ) {
        let mut runs = Vec::new();
        let mut scratch = [MemReq::read(0); 512];
        let mut produced = 0u64;
        while produced < total {
            let covered = runs_side.fill_runs(&mut runs, &mut scratch);
            assert!(covered > 0);
            for run in &runs {
                assert!(run.len >= 1);
                for _ in 0..run.len {
                    let expect = scalar_side.next_req();
                    assert_eq!((run.la, run.write), (expect.la, expect.write));
                }
            }
            assert_eq!(runs.iter().map(|r| r.len).sum::<u64>(), covered);
            produced += covered;
        }
    }

    #[test]
    fn default_fill_runs_matches_next_req() {
        assert_runs_match_scalar(
            Uniform::new(1 << 10, 0.5, 17),
            Uniform::new(1 << 10, 0.5, 17),
            5_000,
        );
    }

    #[test]
    fn bpa_fill_runs_matches_next_req() {
        // Dwell 96 does not divide the 512-request scratch budget, so runs
        // split at block boundaries — the flattened sequence must still be
        // bit-identical.
        assert_runs_match_scalar(Bpa::new(1 << 16, 96, 7), Bpa::new(1 << 16, 96, 7), 10_000);
    }

    #[test]
    fn raa_fill_runs_matches_next_req() {
        assert_runs_match_scalar(Raa::new(5, 64), Raa::new(5, 64), 2_048);
    }

    #[test]
    fn zipf_fill_runs_matches_next_req() {
        // Flattening the default's runs must reproduce the scalar sequence
        // bit for bit, mixed reads and writes included.
        assert_runs_match_scalar(
            ZipfStream::new(256, 1.2, 0.7, 11),
            ZipfStream::new(256, 1.2, 0.7, 11),
            20_000,
        );
    }

    #[test]
    fn zipf_fill_runs_coalesces_hot_ranks() {
        // A skewed write-only stream over a small space must actually
        // produce multi-request runs (the batched pumps rely on them);
        // the exact count is pinned by the seed.
        let mut s = ZipfStream::new(64, 1.3, 1.0, 7);
        let mut runs = Vec::new();
        let mut scratch = [MemReq::read(0); 4096];
        let covered = s.fill_runs(&mut runs, &mut scratch);
        assert_eq!(covered, 4096);
        assert_eq!(runs.iter().map(|r| r.len).sum::<u64>(), 4096);
        assert!(runs.len() < 4096, "no coalescing happened across {} requests", covered);
        assert!(runs.iter().any(|r| r.len > 1));
    }

    #[test]
    fn ycsb_fill_runs_matches_next_req() {
        // Rotation every 700 requests lands mid-block against the
        // 512-request scratch budget; the flattened sequence must still be
        // bit-identical.
        assert_runs_match_scalar(
            Ycsb::new(1 << 12, 128, 1.2, 0.8, 700, 32, 13),
            Ycsb::new(1 << 12, 128, 1.2, 0.8, 700, 32, 13),
            20_000,
        );
    }

    #[test]
    fn interleave_fill_runs_matches_next_req() {
        let mk = || {
            Interleave::new(
                vec![
                    Box::new(Bpa::new(1 << 12, 96, 7)) as Box<dyn AddressStream + Send>,
                    Box::new(ZipfStream::new(1 << 12, 1.1, 0.6, 3)),
                    Box::new(Raa::new(42, 1 << 12)),
                ],
                330,
            )
        };
        assert_runs_match_scalar(mk(), mk(), 20_000);
    }

    #[test]
    fn gc_feedback_fill_runs_matches_next_req_with_observations() {
        // The trigger only moves at observation points, so equivalence
        // holds when both sides see the same observations at the same
        // request offsets — which is exactly the driver protocol (one
        // observation immediately before each batch pull).
        let mk = || GcFeedback::new(1 << 10, 1.1, 0.9, 0.05, 0.2, 0.3, 48, 11);
        let mut runs_side = mk();
        let mut scalar_side = mk();
        let mut runs = Vec::new();
        let mut scratch = [MemReq::read(0); 512];
        let mut demand = 0u64;
        for round in 0..40u64 {
            let obs = WearObservation {
                demand_writes: demand,
                overhead_writes: demand / 3,
                wear_mean: demand as f64 / 1024.0,
                wear_cov: 0.1 + (round as f64) * 0.01,
                wear_max: 1 + round as u32,
            };
            runs_side.observe_wear(&obs);
            scalar_side.observe_wear(&obs);
            let covered = runs_side.fill_runs(&mut runs, &mut scratch);
            assert_eq!(covered, 512);
            for run in &runs {
                for _ in 0..run.len {
                    let expect = scalar_side.next_req();
                    assert_eq!((run.la, run.write), (expect.la, expect.write));
                    demand += u64::from(expect.write);
                }
            }
        }
        assert!(runs_side.gc_triggers() > 0, "the trigger never fired");
    }

    #[test]
    fn skip_batches_lands_on_the_replayed_cursor() {
        // A fresh stream fast-forwarded by N batches continues exactly
        // like one that actually served those batches.
        let mut skipped = Bpa::new(1 << 12, 96, 7);
        let mut served = Bpa::new(1 << 12, 96, 7);
        let mut scratch = [MemReq::read(0); 512];
        let mut runs = Vec::new();
        for _ in 0..5 {
            served.fill_runs(&mut runs, &mut scratch);
        }
        skipped.skip_batches(5, &mut scratch);
        for i in 0..1_000 {
            assert_eq!(skipped.next_req(), served.next_req(), "diverged at request {i}");
        }
    }

    #[test]
    fn memreq_constructors() {
        assert!(!MemReq::read(7).write);
        assert!(MemReq::write(7).write);
        assert_eq!(MemReq::read(7).la, 7);
    }

    #[test]
    fn boxed_stream_delegates() {
        let mut s: Box<dyn AddressStream> = Box::new(Raa::new(5, 64));
        assert_eq!(s.next_req(), MemReq::write(5));
        assert_eq!(s.space_lines(), 64);
        assert_eq!(s.name(), "raa");
        assert_eq!(s.cursor_kind(), CursorKind::State);
        assert!(!s.wants_observation());
    }

    /// Save a stream's cursor mid-run, restore it into a fresh twin, and
    /// check the two continue identically.
    fn assert_cursor_round_trips<S: AddressStream>(mut reference: S, mut fresh: S) {
        assert_eq!(reference.cursor_kind(), CursorKind::State);
        let mut scratch = [MemReq::read(0); 512];
        let mut runs = Vec::new();
        for _ in 0..3 {
            reference.fill_runs(&mut runs, &mut scratch);
        }
        reference.next_req();
        let mut w = sawl_ckpt::Writer::new();
        reference.cursor_save(&mut w);
        let payload = w.into_payload();
        let mut r = sawl_ckpt::Reader::new(&payload);
        fresh.cursor_restore(&mut r).unwrap();
        r.finish().unwrap();
        for i in 0..2_000 {
            assert_eq!(fresh.next_req(), reference.next_req(), "diverged at request {i}");
        }
    }

    #[test]
    fn every_builtin_generator_has_a_state_cursor() {
        assert_cursor_round_trips(Uniform::new(1 << 10, 0.5, 17), Uniform::new(1 << 10, 0.5, 17));
        assert_cursor_round_trips(
            ZipfStream::new(256, 1.2, 0.7, 11),
            ZipfStream::new(256, 1.2, 0.7, 11),
        );
        assert_cursor_round_trips(
            SeqScan::new(1 << 10, 16, 100, 0.5, 3),
            SeqScan::new(1 << 10, 16, 100, 0.5, 3),
        );
        assert_cursor_round_trips(
            Stride::new(1 << 10, 0, 128, 5, 0.5, 3),
            Stride::new(1 << 10, 0, 128, 5, 0.5, 3),
        );
        assert_cursor_round_trips(
            Hotspot::new(1 << 10, 0, 64, 0.9, 0.5, 3),
            Hotspot::new(1 << 10, 0, 64, 0.9, 0.5, 3),
        );
        assert_cursor_round_trips(Raa::new(5, 64), Raa::new(5, 64));
        assert_cursor_round_trips(Bpa::new(1 << 12, 96, 7), Bpa::new(1 << 12, 96, 7));
        assert_cursor_round_trips(
            SpecBenchmark::Soplex.stream(1 << 12, 9),
            SpecBenchmark::Soplex.stream(1 << 12, 9),
        );
        let mix = || {
            Mix::new(
                vec![
                    (1.0, Box::new(Uniform::new(1 << 10, 0.5, 1)) as Box<dyn AddressStream + Send>),
                    (2.0, Box::new(ZipfStream::new(1 << 10, 1.1, 0.8, 2))),
                ],
                5,
            )
        };
        assert_cursor_round_trips(mix(), mix());
        let phased = || {
            Phased::new(vec![
                (700, Box::new(Uniform::new(1 << 10, 0.5, 1)) as Box<dyn AddressStream + Send>),
                (300, Box::new(Bpa::new(1 << 10, 17, 2))),
            ])
        };
        assert_cursor_round_trips(phased(), phased());
    }
}
