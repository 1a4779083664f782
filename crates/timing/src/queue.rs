//! Closed-loop multi-channel, multi-bank memory-controller simulator.
//!
//! A window of `W = cores × MLP` outstanding requests circulates through
//! the memory system: a new request may issue only when a window slot is
//! free (the oldest outstanding request completed). Each request
//!
//! 1. waits `think_ns` of core compute after the previous issue,
//! 2. pays its translation latency on the critical path — 0 for
//!    untranslated baselines, `trans_hit_ns` on a CMT hit, `trans_miss_ns`
//!    on a miss (the controller cannot address the device before
//!    translating),
//! 3. waits for a slot in its bank's bounded FR-FCFS-style queue
//!    (`queue_depth` entries; admission blocks until the oldest queued
//!    access retires),
//! 4. serializes on its channel's data bus for `bus_ns` (channel of bank
//!    `b` is `b % channels`, the usual fine-grain channel interleave), and
//! 5. occupies its bank for the device service time (50 ns read / 350 ns
//!    write, Table 1), queueing behind earlier occupants.
//!
//! Wear-leveling writes ride along as *background* bank occupancy on the
//! banks adjacent to the accessed one (region moves touch
//! interleave-adjacent lines). They never block the issuing core directly
//! — they surface as queueing delay for later demand requests on those
//! banks, which is exactly how the paper argues lazy merge/split hides
//! its cost.
//!
//! ## Stall attribution
//!
//! Every nanosecond a demand request spends beyond its bare service time
//! is attributed to one cause:
//!
//! * **translation miss** — the `trans_miss_ns` paid when the CMT missed;
//! * **exchange** / **merge-split** — queueing delay consumed from the
//!   per-bank occupancy *debt* that background wear-leveling writes
//!   posted (tracked separately per cause);
//! * **queueing** — the remainder: ordinary bank/bus/window contention.
//!
//! Latencies land in a log-bucketed [`LatencyHistogram`] (sawl-telemetry)
//! with explicit overflow — the old linear histogram saturated silently
//! at 3.2 µs, right where the tail lives. Everything is deterministic:
//! the same event sequence produces bit-identical histograms and stall
//! counters, which the telemetry alignment suite relies on.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;

use serde::{Deserialize, Serialize};

use sawl_telemetry::{LatencyHistogram, Percentile, TimingSample};

use crate::event::{MemEvent, Translation};

/// Ordered f64 for the completion heap (times are finite by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Static parameters of the simulator. [`ClosedLoopConfig::default`] is
/// the Table 1 memory system; JSON specs either omit the config (taking
/// the default) or spell out every field.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoopConfig {
    /// Memory channels; bank `b` belongs to channel `b % channels`.
    pub channels: u32,
    /// Total banks across all channels (Table 1: 32).
    pub banks: u32,
    /// Outstanding-request window (cores × per-core MLP).
    pub window: usize,
    /// Per-bank queue depth; admission to a full queue blocks until the
    /// oldest queued access retires.
    pub queue_depth: usize,
    /// Core compute time between consecutive issues, ns.
    pub think_ns: f64,
    /// Device read service time, ns.
    pub read_ns: f64,
    /// Device write service time, ns.
    pub write_ns: f64,
    /// Channel data-bus occupancy per demand access, ns.
    pub bus_ns: f64,
    /// Address translation on a CMT hit, ns.
    pub trans_hit_ns: f64,
    /// Address translation on a CMT miss, ns.
    pub trans_miss_ns: f64,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        Self::table1(10.0, 32)
    }
}

impl ClosedLoopConfig {
    /// Table 1 memory system under a given think time and window: 2
    /// channels × 16 banks, 8-deep bank queues, 50/350 ns MLC reads and
    /// writes, 5/55 ns CMT hit/miss translation.
    pub fn table1(think_ns: f64, window: usize) -> Self {
        Self {
            channels: 2,
            banks: 32,
            window,
            queue_depth: 8,
            think_ns,
            read_ns: 50.0,
            write_ns: 350.0,
            bus_ns: 5.0,
            trans_hit_ns: 5.0,
            trans_miss_ns: 55.0,
        }
    }

    /// Translation latency of one event under this config, ns.
    pub fn translation_ns(&self, t: Translation) -> f64 {
        match t {
            Translation::None => 0.0,
            Translation::Hit => self.trans_hit_ns,
            Translation::Miss => self.trans_miss_ns,
        }
    }
}

/// Largest magnitude (in ns) where every whole-ns f64 value, sum and
/// product used by the closed-form jump is exactly representable. 2^52 ns
/// is ~52 simulated days — far beyond any run this model sees.
const MAX_EXACT_NS: f64 = (1u64 << 52) as f64;

/// Whether `x` is a whole number of ns inside the exact-arithmetic range.
#[inline]
fn exact_ns(x: f64) -> bool {
    x.fract() == 0.0 && x.abs() < MAX_EXACT_NS
}

/// The O(1) subset of [`StepSig`]: the scalar clocks plus the queue and
/// window occupancy, captured without touching their contents. A uniform
/// shift here is necessary (not sufficient) for a [`StepSig`] shift, so
/// the warm loop tracks this for free every push and only pays for the
/// full capture once the light fields go periodic.
#[derive(Debug, Clone, Copy)]
struct LightSig {
    now: f64,
    chan_free: f64,
    bank_free: f64,
    queue_len: usize,
    heap_len: usize,
    exch_debt: f64,
    reorg_debt: f64,
}

/// The restricted simulator state that one steady-state `push` of a fixed
/// wl-free event reads and writes: the issue clock, the target bank and
/// channel, the outstanding window, and the latency/stall accumulators.
/// (`finish` is only max-folded, never read, so it stays out.) Two
/// consecutive captures differing by a uniform time shift prove the
/// controller is periodic (see [`ClosedLoopSim::push_n`]).
#[derive(Debug, Clone)]
struct StepSig {
    now: f64,
    chan_free: f64,
    bank_free: f64,
    queue: Vec<f64>,
    /// Outstanding completion times, sorted (heap order is not canonical).
    heap: Vec<f64>,
    exch_debt: f64,
    reorg_debt: f64,
    stalls: StallBreakdown,
    total_latency: f64,
}

/// One step of a proven-periodic span: the uniform time shift of the
/// state and what each event adds to the accumulators.
#[derive(Debug, Clone, Copy)]
struct Period {
    shift: f64,
    latency: f64,
    stalls: StallBreakdown,
}

/// A memoized span start (see [`ClosedLoopSim::push_n`]): what the first
/// `len` pushes of one event shape do from one keyed state, up to the
/// push where the span proved periodic. Times are relative to the span's
/// starting issue clock.
#[derive(Debug, Clone)]
struct Transient {
    /// The [`ClosedLoopSim::span_key`] the entry was recorded under.
    key: Box<[u64]>,
    /// Pushes the recording span made before its proof.
    len: u64,
    /// The `len` latencies as `(ns, count)`.
    latencies: Vec<(u64, u64)>,
    /// Accumulator deltas over the `len` pushes: total latency, CMT-miss
    /// stall, and queueing delay before it is split by the bank's debts.
    total_latency: f64,
    trans_miss: f64,
    wait: f64,
    /// State after the `len` pushes.
    now: f64,
    chan_free: f64,
    bank_free: f64,
    queue: Vec<f64>,
    /// The whole window, sorted; entries complete at the span start are
    /// negative.
    heap: Vec<f64>,
    /// Latest of the end-state times, for the exactness gate.
    horizon: f64,
    period: Period,
}

/// Bound on memoized span starts per simulator. A full memo is cleared
/// and refills with the working set.
const MEMO_CAP: usize = 64;

/// Memo entries by key fingerprint. The fixed-key hasher keeps the map
/// deterministic and free to create.
type Memo = HashMap<u64, Transient, BuildHasherDefault<DefaultHasher>>;

/// Events each path of [`ClosedLoopSim::push_n`] served. A measurement of
/// the fast path only: not part of any timing result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounts {
    /// Events served one at a time by [`ClosedLoopSim::push`].
    pub scalar: u64,
    /// Events served by replaying a memoized span start.
    pub replayed: u64,
    /// Events served by the closed-form periodic jump.
    pub jumped: u64,
}

/// One bank's state: accepted-but-unretired accesses plus the occupancy
/// debt that background wear-leveling writes posted, split by cause.
#[derive(Debug, Clone, Default)]
struct Bank {
    /// Time the bank finishes everything accepted so far.
    free: f64,
    /// Completion times of queued accesses, oldest first (completions are
    /// monotone because the bank serializes).
    queue: VecDeque<f64>,
    /// Unconsumed occupancy from exchange writes, ns.
    exch_debt: f64,
    /// Unconsumed occupancy from merge/split writes, ns.
    reorg_debt: f64,
}

/// Per-cause demand-stall totals, ns (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StallBreakdown {
    pub queue_ns: f64,
    pub trans_miss_ns: f64,
    pub exchange_ns: f64,
    pub reorg_ns: f64,
}

impl StallBreakdown {
    fn fields(&self) -> [f64; 4] {
        [self.queue_ns, self.trans_miss_ns, self.exchange_ns, self.reorg_ns]
    }

    /// Per-cause `self - before`.
    fn since(&self, before: &Self) -> Self {
        Self {
            queue_ns: self.queue_ns - before.queue_ns,
            trans_miss_ns: self.trans_miss_ns - before.trans_miss_ns,
            exchange_ns: self.exchange_ns - before.exchange_ns,
            reorg_ns: self.reorg_ns - before.reorg_ns,
        }
    }

    /// Per-cause `self + k × step`.
    fn plus_n(&self, step: &Self, k: f64) -> Self {
        Self {
            queue_ns: self.queue_ns + k * step.queue_ns,
            trans_miss_ns: self.trans_miss_ns + k * step.trans_miss_ns,
            exchange_ns: self.exchange_ns + k * step.exchange_ns,
            reorg_ns: self.reorg_ns + k * step.reorg_ns,
        }
    }
}

/// The simulator state.
#[derive(Debug, Clone)]
pub struct ClosedLoopSim {
    cfg: ClosedLoopConfig,
    banks: Vec<Bank>,
    /// Next-free time per channel data bus.
    chan_free: Vec<f64>,
    /// Completion times of outstanding requests.
    outstanding: BinaryHeap<Reverse<Time>>,
    /// Core issue clock.
    now: f64,
    /// Latest completion seen.
    finish: f64,
    events: u64,
    /// Accumulated request latency (completion - issue-ready), for the
    /// average-latency report.
    total_latency: f64,
    stalls: StallBreakdown,
    hist: LatencyHistogram,
    /// Warmup length of the last successful [`Self::push_n`] jump — a
    /// scheduling hint for when the next run's full periodicity check is
    /// worth attempting. Never read by the timing semantics: any attempt
    /// schedule yields bit-identical results, the hint only skips capture
    /// attempts that are known to fail while the window flushes.
    warm_hint: u64,
    /// Whether the config admits span memoization: every time a whole,
    /// non-negative number of ns, and both service times non-zero.
    memo_ok: bool,
    /// Memoized span starts. Like `warm_hint`, never read by the timing
    /// semantics: a replay is taken only where it is exact.
    memo: Memo,
    /// The current span's key and its fingerprint ([`Self::span_key`]).
    key: Vec<u64>,
    key_hash: u64,
    served: ServeCounts,
}

impl ClosedLoopSim {
    /// Fresh simulator.
    pub fn new(cfg: ClosedLoopConfig) -> Self {
        assert!(cfg.channels > 0 && cfg.banks > 0 && cfg.window > 0 && cfg.queue_depth > 0);
        let times = [
            cfg.think_ns,
            cfg.read_ns,
            cfg.write_ns,
            cfg.bus_ns,
            cfg.trans_hit_ns,
            cfg.trans_miss_ns,
        ];
        let memo_ok = times.iter().all(|&t| exact_ns(t) && t >= 0.0)
            && cfg.read_ns > 0.0
            && cfg.write_ns > 0.0;
        Self {
            cfg,
            banks: vec![Bank::default(); cfg.banks as usize],
            chan_free: vec![0.0; cfg.channels as usize],
            outstanding: BinaryHeap::with_capacity(cfg.window + 1),
            now: 0.0,
            finish: 0.0,
            events: 0,
            total_latency: 0.0,
            stalls: StallBreakdown::default(),
            hist: LatencyHistogram::new(),
            warm_hint: 0,
            memo_ok,
            memo: Memo::default(),
            key: Vec::new(),
            key_hash: 0,
            served: ServeCounts::default(),
        }
    }

    /// Feed one event.
    pub fn push(&mut self, e: MemEvent) {
        let cfg = self.cfg;
        // Core compute before this request can issue.
        self.now += cfg.think_ns;
        // Window admission: wait for the oldest outstanding completion.
        if self.outstanding.len() >= cfg.window {
            let Reverse(Time(c)) = self.outstanding.pop().unwrap();
            if c > self.now {
                self.now = c;
            }
        }
        let issue = self.now;
        // Translation on the critical path.
        let trans_ns = cfg.translation_ns(e.translation);
        let mut ready = issue + trans_ns;
        if e.translation == Translation::Miss {
            self.stalls.trans_miss_ns += trans_ns;
        }
        let b = (e.bank % cfg.banks) as usize;
        // Bounded bank queue: retire what finished, then block for a slot.
        // A full queue stalls the controller's issue stream — head-of-line
        // blocking for every later request, whatever bank it targets.
        while let Some(&c) = self.banks[b].queue.front() {
            if c <= ready {
                self.banks[b].queue.pop_front();
            } else {
                break;
            }
        }
        if self.banks[b].queue.len() >= cfg.queue_depth {
            while self.banks[b].queue.len() >= cfg.queue_depth {
                let c = self.banks[b].queue.pop_front().unwrap();
                ready = ready.max(c);
            }
            self.now = self.now.max(ready);
        }
        // Channel bus serialization.
        let chan = (e.bank % cfg.channels) as usize;
        let ready = ready.max(self.chan_free[chan]);
        self.chan_free[chan] = ready + cfg.bus_ns;
        // Bank occupancy.
        let service = if e.write { cfg.write_ns } else { cfg.read_ns };
        let start = self.banks[b].free.max(ready);
        let done = start + service;
        self.banks[b].free = done;
        self.banks[b].queue.push_back(done);
        self.outstanding.push(Reverse(Time(done)));
        self.finish = self.finish.max(done);
        let latency = done - issue;
        self.total_latency += latency;
        self.hist.record(latency.round() as u64);
        self.events += 1;
        self.served.scalar += 1;
        // Queueing delay, attributed first to the wear-leveling occupancy
        // debt this bank carries (clamped to what is actually owed), the
        // remainder to ordinary contention.
        let mut wait = done - issue - trans_ns - service;
        let from_exch = wait.min(self.banks[b].exch_debt);
        self.banks[b].exch_debt -= from_exch;
        self.stalls.exchange_ns += from_exch;
        wait -= from_exch;
        let from_reorg = wait.min(self.banks[b].reorg_debt);
        self.banks[b].reorg_debt -= from_reorg;
        self.stalls.reorg_ns += from_reorg;
        self.stalls.queue_ns += wait - from_reorg;
        // Background wear-leveling writes: spread across banks starting at
        // the accessed one (region moves touch interleave-adjacent lines).
        for (writes, reorg) in [(e.exchange_writes, false), (e.reorg_writes, true)] {
            for k in 0..writes {
                let bb = ((e.bank + k) % cfg.banks) as usize;
                let s = self.banks[bb].free.max(ready);
                let d = s + cfg.write_ns;
                self.banks[bb].free = d;
                self.finish = self.finish.max(d);
                if reorg {
                    self.banks[bb].reorg_debt += cfg.write_ns;
                } else {
                    self.banks[bb].exch_debt += cfg.write_ns;
                }
            }
        }
    }

    /// Feed the same event `n` times — bit-identical to `n` calls of
    /// [`ClosedLoopSim::push`], but in O(warmup) instead of O(n) when the
    /// controller settles into a steady state, and in O(window) when the
    /// span starts from a state an earlier span started from.
    ///
    /// ## Closed-form run advancement
    ///
    /// A long same-address run with no background wear-leveling traffic
    /// drives the controller into a *periodic* regime: every further event
    /// shifts the reachable state (issue clock, bank queue, channel bus,
    /// outstanding window) by one constant time offset `P` and adds one
    /// constant latency sample. The `push` transition reads only that
    /// state and is time-translation invariant, so once two consecutive
    /// events produce states that differ by a uniform shift, every later
    /// event does too — the remaining `k` events collapse to `state += k·P`
    /// plus `k` histogram/stall increments ([`LatencyHistogram::record_n`]).
    ///
    /// The jump is taken only when it is *exactly* equal to the scalar
    /// replay: every participating time must be a whole number of ns (true
    /// for any integer config, e.g. Table 1) and stay below 2^52 so f64
    /// arithmetic is exact. Events with wear-leveling writes, short runs,
    /// fractional configs, and states still draining queue-full blocking or
    /// occupancy debt all fall back to the scalar loop automatically.
    ///
    /// ## Replayed span starts
    ///
    /// The pushes before the proof (the *transient*) depend on little: the
    /// span reads only the issue clock, the window, the target bank and
    /// that bank's channel bus. [`Self::span_key`] writes that state down
    /// relative to the issue clock. A span that finds its key in the memo
    /// skips the transient and the jump. It moves the state the recording
    /// span reached after its proof to this span's clock, advances it by
    /// the remaining periods, and records the stored latencies and stall
    /// deltas. A span whose key is new runs the warmup above and records
    /// its transient when the proof succeeds ([`Transient`]). BPA visits
    /// few keys: each dwell starts from the previous dwell's steady state,
    /// on the same bank or another.
    ///
    /// The key leaves out only what the span cannot tell apart, so the
    /// replay is exact. A bank, bus or queue entry already free at the span
    /// start acts as free at the first push. A window entry complete by the
    /// span start never moves the clock when popped, and it is popped
    /// before any other entry; a span longer than the window (every span
    /// past the short-run cutoff) pops all of them, so the window it leaves
    /// is the recorded one, moved. The exactness gates of the jump apply to
    /// the replayed state too.
    pub fn push_n(&mut self, e: MemEvent, n: u64) {
        // Steady state is reached within one window circulation plus one
        // bank-queue drain; past that, give up and stay scalar.
        let warmup_cap = (self.cfg.window + self.cfg.queue_depth + 8) as u64;
        if e.wl_writes() > 0 || n <= warmup_cap + 2 {
            for _ in 0..n {
                self.push(e);
            }
            return;
        }
        let keyed = self.span_key(&e);
        if keyed && self.replay(&e, n) {
            return;
        }
        let start = (self.now, self.total_latency, self.stalls);
        let mut latencies = Vec::new();
        let mut remaining = n;
        let mut warm = 0u64;
        // Two-tier detection. The O(1) light signature is tracked on every
        // push; the allocating full capture (queue + sorted window
        // contents) runs in consecutive-push pairs, and a failed pair backs
        // off exponentially before the next attempt. The backoff matters:
        // while the window is still flushing another bank's completions
        // (e.g. each new dwell of a BPA run), those stale entries can sit
        // exactly one period apart, so the light fields shift uniformly for
        // a whole window's worth of pushes while the full check keeps
        // failing on the unshifted heap contents — paying the full capture
        // on every one of them would dominate the run cost.
        let mut prev_light = self.light_sig(&e);
        let mut pending: Option<StepSig> = None;
        let mut next_attempt = 0u64;
        let mut backoff = 2u64;
        let mut used_hint = false;
        while remaining > 0 && warm <= warmup_cap {
            let before = self.total_latency;
            self.push(e);
            if keyed {
                latencies.push(self.total_latency - before);
            }
            remaining -= 1;
            warm += 1;
            let cur_light = self.light_sig(&e);
            let light_ok = Self::light_shift(&prev_light, &cur_light).is_some();
            prev_light = cur_light;
            if !light_ok {
                pending = None;
                continue;
            }
            if let Some(prev) = pending.take() {
                let cur = self.step_sig(&e);
                if remaining >= 2 {
                    if let Some(period) = Self::uniform_shift(&prev, &cur) {
                        if keyed {
                            self.remember(start, &cur, period, &mut latencies);
                        }
                        if self.try_jump(&e, period, remaining) {
                            self.warm_hint = warm;
                            return;
                        }
                    }
                }
                // First failure fast-forwards to the last successful
                // warmup length (a still-flushing window keeps the light
                // check green while every full check fails); later
                // failures back off exponentially.
                if used_hint {
                    next_attempt = warm + backoff;
                    backoff *= 2;
                } else {
                    next_attempt = (warm + backoff).max(self.warm_hint.saturating_sub(2));
                    used_hint = true;
                }
            } else if warm >= next_attempt && remaining >= 3 {
                pending = Some(self.step_sig(&e));
            }
        }
        for _ in 0..remaining {
            self.push(e);
        }
    }

    /// Write the memo key of a span of `e` from the current state into
    /// `self.key` (and its fingerprint into `self.key_hash`). Returns
    /// false when the config or the state falls outside the exact range.
    ///
    /// The key is what the span's clocks read, relative to the issue
    /// clock `now`: the event shape; the bank's free time and its channel's
    /// bus, with anything at or before `now` read as `now` (the first push
    /// starts no earlier); the bank's queue entries after `now` (the first
    /// push retires the rest); and the window's entries after `now`. The
    /// bank's debts are left out: they never move a clock, and
    /// [`Self::replay`] splits the span's queueing delay over them
    /// directly.
    fn span_key(&mut self, e: &MemEvent) -> bool {
        let now = self.now;
        let bank = &self.banks[(e.bank % self.cfg.banks) as usize];
        let chan_free = self.chan_free[(e.bank % self.cfg.channels) as usize];
        // Under `memo_ok` every time is a whole number of ns (sums and
        // maxima of whole config times), so below 2^52 all are exact.
        // `finish` bounds every completion.
        if !self.memo_ok || now.max(self.finish).max(chan_free) >= MAX_EXACT_NS {
            return false;
        }
        let rel = |t: &f64| (t - now) as u64;
        let retired = bank.queue.partition_point(|&q| q <= now);
        let key = &mut self.key;
        key.clear();
        key.extend([
            u64::from(e.write) | (e.translation as u64) << 1,
            rel(&bank.free.max(now)),
            rel(&chan_free.max(now)),
            (bank.queue.len() - retired) as u64,
        ]);
        key.extend(bank.queue.range(retired..).map(rel));
        // The window's live entries, in canonical (sorted) order.
        let live = key.len();
        key.extend(self.outstanding.iter().filter(|r| r.0 .0 > now).map(|r| rel(&r.0 .0)));
        key[live..].sort_unstable();
        self.key_hash = key
            .iter()
            .fold(0, |h: u64, &x| (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95));
        true
    }

    /// Serve `n` pushes of `e` from the memo entry for the current key:
    /// false (state untouched) when there is none or the result would leave
    /// the exact range. `n` must exceed the window (see [`Self::push_n`]).
    fn replay(&mut self, e: &MemEvent, n: u64) -> bool {
        debug_assert!(n > self.cfg.window as u64);
        let Some(t) = self.memo.get(&self.key_hash) else {
            return false;
        };
        if *t.key != self.key[..] {
            return false;
        }
        let k = n - t.len;
        let kf = k as f64;
        let p = &t.period;
        // The clock the recorded end state moves to: this span's start
        // plus the `k` periods the recording span would have jumped.
        let base = self.now + kf * p.shift;
        let total_latency = self.total_latency + t.total_latency + kf * p.latency;
        // Each push bills its queueing delay to the exchange debt first,
        // then to the merge/split debt, then to plain queueing; over the
        // span that is the same split applied to the total delay.
        let b = (e.bank % self.cfg.banks) as usize;
        let (exch_debt, reorg_debt) = (self.banks[b].exch_debt, self.banks[b].reorg_debt);
        let wait = t.wait + kf * (p.stalls.queue_ns + p.stalls.exchange_ns + p.stalls.reorg_ns);
        let from_exch = wait.min(exch_debt);
        let from_reorg = (wait - from_exch).min(reorg_debt);
        let stalls = StallBreakdown {
            queue_ns: self.stalls.queue_ns + (wait - from_exch - from_reorg),
            trans_miss_ns: self.stalls.trans_miss_ns + t.trans_miss + kf * p.stalls.trans_miss_ns,
            exchange_ns: self.stalls.exchange_ns + from_exch,
            reorg_ns: self.stalls.reorg_ns + from_reorg,
        };
        if !exact_ns(base + t.horizon)
            || !exact_ns(total_latency)
            || !exact_ns(wait)
            || !exact_ns(exch_debt)
            || !exact_ns(reorg_debt)
            || stalls.fields().iter().any(|&v| !exact_ns(v))
        {
            return false;
        }
        self.now = base + t.now;
        self.chan_free[(e.bank % self.cfg.channels) as usize] = base + t.chan_free;
        let bank = &mut self.banks[b];
        bank.free = base + t.bank_free;
        bank.queue.clear();
        bank.queue.extend(t.queue.iter().map(|q| base + q));
        bank.exch_debt -= from_exch;
        bank.reorg_debt -= from_reorg;
        // Completions of one bank grow monotonically: the last is the max.
        self.finish = self.finish.max(bank.free);
        // The stored window is sorted, so it is already in heap order.
        let mut heap = std::mem::take(&mut self.outstanding).into_vec();
        heap.clear();
        heap.extend(t.heap.iter().map(|h| Reverse(Time(base + h))));
        self.outstanding = BinaryHeap::from(heap);
        self.total_latency = total_latency;
        self.stalls = stalls;
        for &(ns, count) in &t.latencies {
            self.hist.record_n(ns, count);
        }
        self.hist.record_n(p.latency as u64, k);
        self.events += n;
        self.served.replayed += t.len;
        self.served.jumped += k;
        true
    }

    /// Memoize the transient of the current span under `self.key`: the
    /// span started at `start` (issue clock, total latency, stalls), made
    /// `latencies.len()` pushes with those latencies, and reached `cur`,
    /// which `period` proved periodic.
    fn remember(
        &mut self,
        start: (f64, f64, StallBreakdown),
        cur: &StepSig,
        period: Period,
        latencies: &mut [f64],
    ) {
        let (now0, latency0, stalls0) = start;
        let stalls = cur.stalls.since(&stalls0);
        if !exact_ns(cur.total_latency) || cur.stalls.fields().iter().any(|&v| !exact_ns(v)) {
            return;
        }
        latencies.sort_unstable_by(f64::total_cmp);
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for &l in latencies.iter() {
            let ns = l.round() as u64;
            match runs.last_mut() {
                Some((v, count)) if *v == ns => *count += 1,
                _ => runs.push((ns, 1)),
            }
        }
        let rel = |t: &f64| t - now0;
        let horizon = [cur.now, cur.chan_free, cur.bank_free]
            .iter()
            .chain(&cur.queue)
            .chain(&cur.heap)
            .fold(f64::MIN, |m, &t| m.max(t));
        let transient = Transient {
            key: self.key.as_slice().into(),
            len: latencies.len() as u64,
            latencies: runs,
            total_latency: cur.total_latency - latency0,
            trans_miss: stalls.trans_miss_ns,
            wait: stalls.queue_ns + stalls.exchange_ns + stalls.reorg_ns,
            now: rel(&cur.now),
            chan_free: rel(&cur.chan_free),
            bank_free: rel(&cur.bank_free),
            queue: cur.queue.iter().map(rel).collect(),
            heap: cur.heap.iter().map(rel).collect(),
            horizon: rel(&horizon),
            period,
        };
        if self.memo.len() >= MEMO_CAP {
            self.memo.clear();
        }
        self.memo.insert(self.key_hash, transient);
    }

    /// Allocation-free capture of the light step signature (see
    /// [`LightSig`]).
    fn light_sig(&self, e: &MemEvent) -> LightSig {
        let b = (e.bank % self.cfg.banks) as usize;
        let chan = (e.bank % self.cfg.channels) as usize;
        LightSig {
            now: self.now,
            chan_free: self.chan_free[chan],
            bank_free: self.banks[b].free,
            queue_len: self.banks[b].queue.len(),
            heap_len: self.outstanding.len(),
            exch_debt: self.banks[b].exch_debt,
            reorg_debt: self.banks[b].reorg_debt,
        }
    }

    /// If the light fields of `cur` are exactly those of `prev` advanced by
    /// one uniform, whole-ns time shift (with untouched occupancy and
    /// debts), return the shift. Necessary for [`Self::uniform_shift`] on
    /// the corresponding full captures, but not sufficient: the queue and
    /// window *contents* still have to shift, which only the full check
    /// sees.
    fn light_shift(prev: &LightSig, cur: &LightSig) -> Option<f64> {
        let p = cur.now - prev.now;
        if !(p >= 0.0 && exact_ns(p) && exact_ns(prev.now) && exact_ns(cur.now)) {
            return None;
        }
        let shifted = |a: f64, b: f64| exact_ns(a) && exact_ns(b) && b - a == p;
        if !shifted(prev.chan_free, cur.chan_free)
            || !shifted(prev.bank_free, cur.bank_free)
            || prev.queue_len != cur.queue_len
            || prev.heap_len != cur.heap_len
            || prev.exch_debt != cur.exch_debt
            || prev.reorg_debt != cur.reorg_debt
        {
            return None;
        }
        Some(p)
    }

    /// The restricted state one steady-state `push` of `e` reads and
    /// writes, captured for shift comparison.
    fn step_sig(&self, e: &MemEvent) -> StepSig {
        let b = (e.bank % self.cfg.banks) as usize;
        let chan = (e.bank % self.cfg.channels) as usize;
        let mut heap: Vec<f64> = self.outstanding.iter().map(|Reverse(Time(t))| *t).collect();
        heap.sort_by(f64::total_cmp);
        StepSig {
            now: self.now,
            chan_free: self.chan_free[chan],
            bank_free: self.banks[b].free,
            queue: self.banks[b].queue.iter().copied().collect(),
            heap,
            exch_debt: self.banks[b].exch_debt,
            reorg_debt: self.banks[b].reorg_debt,
            stalls: self.stalls,
            total_latency: self.total_latency,
        }
    }

    /// If `cur` is exactly `prev` advanced by one uniform, whole-ns time
    /// shift (with untouched debts), return that step.
    fn uniform_shift(prev: &StepSig, cur: &StepSig) -> Option<Period> {
        let p = cur.now - prev.now;
        if !(p >= 0.0 && exact_ns(p) && exact_ns(prev.now) && exact_ns(cur.now)) {
            return None;
        }
        let shifted = |a: f64, b: f64| exact_ns(a) && exact_ns(b) && b - a == p;
        if !shifted(prev.chan_free, cur.chan_free)
            || !shifted(prev.bank_free, cur.bank_free)
            || prev.queue.len() != cur.queue.len()
            || prev.heap.len() != cur.heap.len()
            || prev.exch_debt != cur.exch_debt
            || prev.reorg_debt != cur.reorg_debt
        {
            return None;
        }
        let pairs = prev.queue.iter().zip(&cur.queue).chain(prev.heap.iter().zip(&cur.heap));
        for (&a, &b) in pairs {
            if !shifted(a, b) {
                return None;
            }
        }
        Some(Period {
            shift: p,
            latency: cur.total_latency - prev.total_latency,
            stalls: cur.stalls.since(&prev.stalls),
        })
    }

    /// Apply `k` steps of `period` at once. Returns `false` (leaving the
    /// state untouched) if the extrapolated values would leave the range
    /// where f64 arithmetic is exact.
    fn try_jump(&mut self, e: &MemEvent, period: Period, k: u64) -> bool {
        let b = (e.bank % self.cfg.banks) as usize;
        let chan = (e.bank % self.cfg.channels) as usize;
        let kf = k as f64;
        let kp = kf * period.shift;
        // Every extrapolated time, and every accumulator after k more
        // whole-ns additions, must stay exactly representable. `finish`
        // bounds every completion time.
        let horizon = self.finish.max(self.now).max(self.chan_free[chan]) + kp;
        let total_latency = self.total_latency + kf * period.latency;
        let stalls = self.stalls.plus_n(&period.stalls, kf);
        let [q, m, x, r] = period.stalls.fields();
        let [sq, sm, sx, sr] = stalls.fields();
        let accum = [q, m, x, r, sq, sm, sx, sr, period.latency, total_latency];
        if !exact_ns(horizon) || accum.iter().any(|&v| !exact_ns(v) || v < 0.0) {
            return false;
        }
        self.now += kp;
        self.chan_free[chan] += kp;
        let bank = &mut self.banks[b];
        bank.free += kp;
        for q in bank.queue.iter_mut() {
            *q += kp;
        }
        self.finish = self.finish.max(bank.free);
        // Adding one constant keeps heap order, so the rebuild only checks
        // it.
        let mut heap = std::mem::take(&mut self.outstanding).into_vec();
        for Reverse(Time(t)) in heap.iter_mut() {
            *t += kp;
        }
        self.outstanding = BinaryHeap::from(heap);
        self.stalls = stalls;
        self.total_latency = total_latency;
        self.hist.record_n(period.latency as u64, k);
        self.events += k;
        self.served.jumped += k;
        true
    }

    /// Events each path of [`Self::push_n`] has served so far.
    pub fn serve_counts(&self) -> ServeCounts {
        self.served
    }
    /// Total simulated time once all events have been pushed, ns.
    pub fn elapsed_ns(&self) -> f64 {
        self.finish.max(self.now)
    }

    /// Demand events processed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Mean demand-request latency (queueing + translation + service), ns.
    pub fn mean_latency_ns(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.total_latency / self.events as f64
        }
    }

    /// The configuration.
    pub fn config(&self) -> ClosedLoopConfig {
        self.cfg
    }

    /// The latency distribution.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.hist
    }

    /// Per-cause demand-stall totals so far.
    pub fn stalls(&self) -> StallBreakdown {
        self.stalls
    }

    /// Latency at the given percentile with explicit saturation, `None`
    /// before any event.
    pub fn latency_percentile(&self, p: f64) -> Option<Percentile> {
        self.hist.percentile(p)
    }

    /// Latency at the given percentile (0 < p <= 1) as a bare number;
    /// 0 before any event. Thin compatibility wrapper over
    /// [`ClosedLoopSim::latency_percentile`] — unlike the old linear
    /// histogram this never silently caps: values land in log buckets up
    /// to ~2.1 s and the overflow bin reports the exact maximum.
    pub fn latency_percentile_ns(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "percentile out of range");
        if p == 0.0 {
            return 0.0;
        }
        self.latency_percentile(p).map_or(0.0, |q| q.ns as f64)
    }

    /// The telemetry sample for the current clock: cumulative stall
    /// counters (rounded to whole ns) plus the latency histogram.
    pub fn timing_sample(&self) -> TimingSample {
        TimingSample {
            stall_queue_ns: self.stalls.queue_ns.round() as u64,
            stall_trans_miss_ns: self.stalls.trans_miss_ns.round() as u64,
            stall_exchange_ns: self.stalls.exchange_ns.round() as u64,
            stall_reorg_ns: self.stalls.reorg_ns.round() as u64,
            latency: self.hist.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn cfg() -> ClosedLoopConfig {
        ClosedLoopConfig {
            channels: 1,
            banks: 4,
            window: 2,
            queue_depth: 8,
            think_ns: 10.0,
            read_ns: 50.0,
            write_ns: 350.0,
            bus_ns: 0.0,
            trans_hit_ns: 5.0,
            trans_miss_ns: 55.0,
        }
    }

    #[test]
    fn single_read_takes_think_plus_service() {
        let mut s = ClosedLoopSim::new(cfg());
        s.push(MemEvent::read(0));
        assert!((s.elapsed_ns() - 60.0).abs() < 1e-9);
        assert!((s.mean_latency_ns() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn translation_adds_to_critical_path() {
        let mut s = ClosedLoopSim::new(cfg());
        s.push(MemEvent::read(0).with_translation(Translation::Miss));
        assert!((s.elapsed_ns() - 115.0).abs() < 1e-9);
        assert!((s.stalls().trans_miss_ns - 55.0).abs() < 1e-9);
        let mut h = ClosedLoopSim::new(cfg());
        h.push(MemEvent::read(0).with_translation(Translation::Hit));
        assert!((h.elapsed_ns() - 65.0).abs() < 1e-9);
        assert_eq!(h.stalls().trans_miss_ns, 0.0);
    }

    #[test]
    fn different_banks_overlap() {
        let mut a = ClosedLoopSim::new(cfg());
        a.push(MemEvent::read(0));
        a.push(MemEvent::read(1));
        // Issues at 10 and 20; both served in parallel; finish 70.
        assert!((a.elapsed_ns() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn same_bank_serializes() {
        let mut a = ClosedLoopSim::new(cfg());
        a.push(MemEvent::read(0));
        a.push(MemEvent::read(0));
        // Second starts when the bank frees at 60, done at 110.
        assert!((a.elapsed_ns() - 110.0).abs() < 1e-9);
        // The 40 ns wait is plain queueing.
        assert!((a.stalls().queue_ns - 40.0).abs() < 1e-9);
    }

    #[test]
    fn window_backpressures_issue() {
        let mut s = ClosedLoopSim::new(cfg()); // window 2
        for _ in 0..3 {
            s.push(MemEvent::write(0)); // same bank: 350ns each
        }
        // Request 3 cannot issue until request 1 completes (t=360).
        // Bank serialization: completions at 360, 710, 1060.
        assert!((s.elapsed_ns() - 1060.0).abs() < 1e-9, "{}", s.elapsed_ns());
    }

    #[test]
    fn bounded_bank_queue_blocks_head_of_line() {
        // 8 writes hammer bank 0, then 96 reads spread over the other
        // banks. With 1-deep bank queues the writes stall the issue
        // stream (head-of-line), so the reads start ~2 µs late; deep
        // queues absorb the writes and let the reads overlap them.
        let run = |queue_depth| {
            let mut s = ClosedLoopSim::new(ClosedLoopConfig { queue_depth, window: 16, ..cfg() });
            for _ in 0..8 {
                s.push(MemEvent::write(0));
            }
            for i in 0..96u32 {
                s.push(MemEvent::read(1 + i % 3));
            }
            s.elapsed_ns()
        };
        let (shallow, deep) = (run(1), run(64));
        assert!(shallow > deep + 500.0, "shallow {shallow} vs deep {deep}");
    }

    #[test]
    fn channel_bus_serializes_across_banks() {
        let slow = ClosedLoopConfig { bus_ns: 40.0, window: 8, ..cfg() };
        let mut one_chan = ClosedLoopSim::new(slow);
        let mut two_chan = ClosedLoopSim::new(ClosedLoopConfig { channels: 2, ..slow });
        for i in 0..64u32 {
            one_chan.push(MemEvent::read(i));
            two_chan.push(MemEvent::read(i));
        }
        assert!(
            one_chan.elapsed_ns() > 1.5 * two_chan.elapsed_ns(),
            "one channel {} vs two {}",
            one_chan.elapsed_ns(),
            two_chan.elapsed_ns()
        );
    }

    #[test]
    fn wl_writes_occupy_banks() {
        let mut with = ClosedLoopSim::new(cfg());
        with.push(MemEvent::write(0).with_exchange_writes(4));
        with.push(MemEvent::write(0));
        let mut without = ClosedLoopSim::new(cfg());
        without.push(MemEvent::write(0));
        without.push(MemEvent::write(0));
        assert!(
            with.elapsed_ns() > without.elapsed_ns() + 300.0,
            "wl writes had no effect: {} vs {}",
            with.elapsed_ns(),
            without.elapsed_ns()
        );
    }

    #[test]
    fn stalls_attribute_wl_wait_to_cause() {
        // An exchange posts occupancy on bank 0; the next demand write
        // there waits, and the wait is billed to the exchange, not to
        // generic queueing.
        let mut s = ClosedLoopSim::new(cfg());
        s.push(MemEvent::write(0).with_exchange_writes(1));
        s.push(MemEvent::write(0));
        let st = s.stalls();
        assert!(st.exchange_ns > 300.0, "exchange stall {}", st.exchange_ns);
        assert_eq!(st.reorg_ns, 0.0);

        let mut m = ClosedLoopSim::new(cfg());
        m.push(MemEvent::write(0).with_reorg_writes(1));
        m.push(MemEvent::write(0));
        let st = m.stalls();
        assert!(st.reorg_ns > 300.0, "reorg stall {}", st.reorg_ns);
        assert_eq!(st.exchange_ns, 0.0);
    }

    #[test]
    fn stall_attribution_is_conservative() {
        // Attributed stall never exceeds total measured latency minus the
        // bare service time.
        let mut s = ClosedLoopSim::new(cfg());
        let mut service = 0.0;
        for i in 0..500u32 {
            let e = if i % 3 == 0 {
                service += 350.0;
                MemEvent::write(i % 2).with_exchange_writes(2).with_reorg_writes(1)
            } else {
                service += 50.0;
                MemEvent::read(i % 2).with_translation(Translation::Miss)
            };
            s.push(e);
        }
        let st = s.stalls();
        let attributed = st.queue_ns + st.trans_miss_ns + st.exchange_ns + st.reorg_ns;
        let total_wait = s.mean_latency_ns() * s.events() as f64 - service;
        assert!(attributed <= total_wait + 1e-6, "{attributed} > {total_wait}");
        assert!((attributed - total_wait).abs() < 1e-6, "unattributed stall");
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let mut w = ClosedLoopSim::new(cfg());
        let mut r = ClosedLoopSim::new(cfg());
        for _ in 0..100 {
            w.push(MemEvent::write(0));
            r.push(MemEvent::read(0));
        }
        assert!(w.elapsed_ns() > 5.0 * r.elapsed_ns());
    }

    #[test]
    fn latency_percentiles_track_contention() {
        let mut uncontended = ClosedLoopSim::new(cfg());
        let mut contended = ClosedLoopSim::new(cfg());
        for i in 0..1_000u32 {
            uncontended.push(MemEvent::read(i)); // spread over banks
            contended.push(MemEvent::write(0)); // one bank, serialized
        }
        assert!(uncontended.latency_percentile_ns(0.5) <= 100.0);
        assert!(
            contended.latency_percentile_ns(0.99) > uncontended.latency_percentile_ns(0.99),
            "contention must fatten the tail"
        );
        // The median is never above the p99, nor the p99 above the p999.
        assert!(contended.latency_percentile_ns(0.5) <= contended.latency_percentile_ns(0.99));
        assert!(contended.latency_percentile_ns(0.99) <= contended.latency_percentile_ns(0.999));
    }

    #[test]
    fn deep_tail_is_not_capped_at_3200ns() {
        // Regression for the old linear histogram: a hard-contended bank
        // drives tail latencies far beyond 3.2 µs, and the percentile
        // must follow them instead of reporting the cap.
        let mut s = ClosedLoopSim::new(ClosedLoopConfig { window: 64, queue_depth: 64, ..cfg() });
        for _ in 0..200 {
            s.push(MemEvent::write(0));
        }
        let p999 = s.latency_percentile_ns(0.999);
        assert!(p999 > 10_000.0, "tail still capped: p999 = {p999}");
        let q = s.latency_percentile(0.999).unwrap();
        assert!(!q.saturated, "within histogram range, must not be flagged");
    }

    #[test]
    fn throughput_scales_with_banks() {
        let mut narrow = ClosedLoopSim::new(ClosedLoopConfig { banks: 1, window: 8, ..cfg() });
        let mut wide =
            ClosedLoopSim::new(ClosedLoopConfig { banks: 8, window: 8, queue_depth: 64, ..cfg() });
        for i in 0..800u32 {
            narrow.push(MemEvent::read(i));
            wide.push(MemEvent::read(i));
        }
        assert!(narrow.elapsed_ns() > 4.0 * wide.elapsed_ns());
    }

    /// Bit-exact equality of two simulators: clocks, accumulators, stall
    /// attribution and the full latency distribution.
    fn assert_sims_identical(a: &ClosedLoopSim, b: &ClosedLoopSim, ctx: &str) {
        assert_eq!(a.events(), b.events(), "{ctx}: events");
        assert_eq!(a.elapsed_ns().to_bits(), b.elapsed_ns().to_bits(), "{ctx}: elapsed");
        assert_eq!(a.mean_latency_ns().to_bits(), b.mean_latency_ns().to_bits(), "{ctx}: mean");
        assert_eq!(a.stalls(), b.stalls(), "{ctx}: stalls");
        assert_eq!(a.histogram(), b.histogram(), "{ctx}: histogram");
        assert_eq!(a.timing_sample(), b.timing_sample(), "{ctx}: sample");
    }

    /// Bit-exact equality of the controller state itself: clocks, every
    /// bus and bank, and the window (as a sorted multiset).
    fn assert_states_identical(a: &ClosedLoopSim, b: &ClosedLoopSim, ctx: &str) {
        let state = |s: &ClosedLoopSim| {
            let mut window: Vec<f64> = s.outstanding.iter().map(|r| r.0 .0).collect();
            window.sort_by(f64::total_cmp);
            let mut v = vec![s.now, s.finish];
            v.extend(&s.chan_free);
            v.extend(window);
            for k in &s.banks {
                v.extend([k.free, k.exch_debt, k.reorg_debt, k.queue.len() as f64]);
                v.extend(&k.queue);
            }
            v.into_iter().map(f64::to_bits).collect::<Vec<_>>()
        };
        assert_eq!(state(a), state(b), "{ctx}: controller state");
    }

    /// Replay `script` on two fresh sims — one via scalar `push`, one via
    /// `push_n` — then feed both an identical scalar coda to prove the
    /// post-jump state behaves identically, not just reports identically.
    /// Returns how the `push_n` side served the script.
    fn assert_push_n_matches_scalar(
        cfg: ClosedLoopConfig,
        script: &[(MemEvent, u64)],
    ) -> ServeCounts {
        let mut scalar = ClosedLoopSim::new(cfg);
        let mut fast = ClosedLoopSim::new(cfg);
        for &(e, n) in script {
            for _ in 0..n {
                scalar.push(e);
            }
            fast.push_n(e, n);
        }
        assert_sims_identical(&scalar, &fast, "after script");
        assert_states_identical(&scalar, &fast, "after script");
        let served = fast.serve_counts();
        for i in 0..200u32 {
            let e = if i % 3 == 0 {
                MemEvent::write(i % 7).with_exchange_writes(1)
            } else {
                MemEvent::read(i % 5).with_translation(Translation::Miss)
            };
            scalar.push(e);
            fast.push(e);
        }
        assert_sims_identical(&scalar, &fast, "after coda");
        served
    }

    #[test]
    fn push_n_matches_scalar_on_long_write_runs() {
        for n in [1u64, 7, 40, 41, 1000, 10_000] {
            assert_push_n_matches_scalar(
                ClosedLoopConfig::default(),
                &[(MemEvent::write(3).with_translation(Translation::Hit), n)],
            );
        }
    }

    #[test]
    fn push_n_matches_scalar_for_reads_and_untranslated_events() {
        assert_push_n_matches_scalar(ClosedLoopConfig::default(), &[(MemEvent::read(0), 5_000)]);
        assert_push_n_matches_scalar(ClosedLoopConfig::default(), &[(MemEvent::write(9), 5_000)]);
        assert_push_n_matches_scalar(
            ClosedLoopConfig::default(),
            &[(MemEvent::write(2).with_translation(Translation::Miss), 5_000)],
        );
    }

    #[test]
    fn push_n_matches_scalar_from_a_dirty_state() {
        // Pre-contend several banks and channels, leave occupancy debt and
        // stale window entries behind, then jump on a different bank.
        let mut script: Vec<(MemEvent, u64)> = Vec::new();
        for i in 0..40u32 {
            script.push((MemEvent::write(i % 6).with_exchange_writes(2).with_reorg_writes(1), 1));
        }
        script.push((MemEvent::write(0).with_translation(Translation::Hit), 3_000));
        script.push((MemEvent::read(1), 700));
        script.push((MemEvent::write(0).with_translation(Translation::Hit), 3_000));
        assert_push_n_matches_scalar(ClosedLoopConfig::default(), &script);
    }

    #[test]
    fn push_n_matches_scalar_under_fractional_configs() {
        // Fractional think time breaks the whole-ns gate: push_n must fall
        // back to the scalar loop and still match exactly.
        let frac = ClosedLoopConfig { think_ns: 10.25, ..ClosedLoopConfig::default() };
        assert_push_n_matches_scalar(frac, &[(MemEvent::write(0), 2_000)]);
        let frac_bus = ClosedLoopConfig { bus_ns: 2.5, ..ClosedLoopConfig::default() };
        assert_push_n_matches_scalar(frac_bus, &[(MemEvent::write(4), 2_000)]);
    }

    #[test]
    fn push_n_matches_scalar_with_wl_writes() {
        // Background traffic disables the fast path outright.
        assert_push_n_matches_scalar(
            ClosedLoopConfig::default(),
            &[(MemEvent::write(0).with_exchange_writes(3), 500)],
        );
    }

    #[test]
    fn push_n_matches_scalar_across_configs() {
        for cfg in [
            cfg(),
            ClosedLoopConfig { window: 1, ..cfg() },
            ClosedLoopConfig { queue_depth: 1, window: 16, ..cfg() },
            ClosedLoopConfig { banks: 1, channels: 1, ..cfg() },
            ClosedLoopConfig::table1(0.0, 64),
        ] {
            assert_push_n_matches_scalar(cfg, &[(MemEvent::write(0), 4_000)]);
        }
    }

    #[test]
    fn push_n_takes_the_closed_form_jump_on_table1() {
        // Not just equal — actually fast. The steady state must be found
        // within the warmup cap, so a huge run costs O(warmup) pushes; if
        // the jump were declined this test would still pass, so pin the
        // jump indirectly through its exact long-run arithmetic: the run
        // must not drift by even one ns over 10^7 events.
        let mut s = ClosedLoopSim::new(ClosedLoopConfig::default());
        let e = MemEvent::write(5).with_translation(Translation::Hit);
        s.push_n(e, 10_000_000);
        assert_eq!(s.events(), 10_000_000);
        // Steady-state period for a single hammered bank under Table 1:
        // one write every 350 ns (the bank service time; the 10 ns think
        // overlaps under the 32-deep window), after a short ramp.
        let per_event = s.elapsed_ns() / s.events() as f64;
        assert!((per_event - 350.0).abs() < 0.01, "period drifted: {per_event}");
        assert_eq!(s.histogram().snapshot().count, 10_000_000);
    }

    #[test]
    fn timing_sample_matches_histogram() {
        let mut s = ClosedLoopSim::new(cfg());
        for i in 0..100u32 {
            s.push(MemEvent::write(i % 2).with_exchange_writes(1));
        }
        let t = s.timing_sample();
        assert_eq!(t.latency.restore(), *s.histogram());
        assert_eq!(t.stall_exchange_ns, s.stalls().exchange_ns.round() as u64);
        assert_eq!(t.latency.count, s.events());
    }

    /// A random controller config for the span proptest: Table 1, the
    /// degenerate window, queue and bank shapes, and a fractional think
    /// time that keeps every span scalar.
    fn span_config(i: usize) -> ClosedLoopConfig {
        let t1 = ClosedLoopConfig::default();
        [
            t1,
            ClosedLoopConfig { window: 1, ..t1 },
            ClosedLoopConfig { queue_depth: 1, ..t1 },
            ClosedLoopConfig { banks: 1, channels: 1, ..t1 },
            ClosedLoopConfig { think_ns: 10.25, ..t1 },
            ClosedLoopConfig::table1(0.0, 64),
        ][i]
    }

    /// A script from a random reachable state: a prefix of single events,
    /// a fifth of them with background exchange or merge/split writes,
    /// then spans drawn from three event shapes on a few banks (so span
    /// starts repeat), with same-shape continuations and an occasional
    /// background-write event between spans to leave debt behind.
    fn span_script(seed: u64) -> Vec<(MemEvent, u64)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let translation = |rng: &mut SmallRng| {
            [Translation::None, Translation::Hit, Translation::Miss][rng.random_range(0..3usize)]
        };
        let background = |rng: &mut SmallRng| {
            MemEvent::write(rng.random_range(0..40))
                .with_translation(translation(rng))
                .with_exchange_writes(rng.random_range(0..4))
                .with_reorg_writes(rng.random_range(0..3))
        };
        let mut script = Vec::new();
        for _ in 0..rng.random_range(0..150u32) {
            let e = if rng.random_range(0..5u32) == 0 {
                background(&mut rng)
            } else {
                MemEvent { write: rng.random(), ..MemEvent::read(rng.random_range(0..40)) }
                    .with_translation(translation(&mut rng))
            };
            script.push((e, 1));
        }
        let shapes: Vec<MemEvent> = (0..3)
            .map(|_| {
                MemEvent {
                    write: rng.random_range(0..4u32) != 0,
                    ..MemEvent::read(rng.random_range(0..6))
                }
                .with_translation(translation(&mut rng))
            })
            .collect();
        for _ in 0..rng.random_range(4..24u32) {
            let n = match rng.random_range(0..5u32) {
                0 => rng.random_range(1..120),
                _ => rng.random_range(120..3000),
            };
            script.push((shapes[rng.random_range(0..3usize)], n));
            if rng.random_range(0..4u32) == 0 {
                script.push((background(&mut rng), 1));
            }
        }
        // Close on a cycle of long spans, whose second lap starts from the
        // states the first lap started from.
        for _ in 0..2 {
            script.extend([(shapes[0], 2048), (shapes[1], 2048)]);
        }
        script
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]

        #[test]
        fn push_n_matches_scalar_from_random_reachable_states(
            seed in any::<u64>(),
            config in 0usize..6,
        ) {
            let cfg = span_config(config);
            let served = assert_push_n_matches_scalar(cfg, &span_script(seed));
            // The memo serves spans only under whole-ns configs. Where the
            // closing cycle reaches a steady state (every config but the
            // 64-wide window, whose warmup often outlasts its cap), it must
            // have served some, or the case checked nothing new.
            if config < 4 {
                assert!(served.replayed > 0 && served.jumped > 0, "{config} {served:?}");
            } else if config == 4 {
                assert_eq!(served.replayed + served.jumped, 0, "{served:?}");
            }
        }
    }

    #[test]
    fn random_bank_spans_replay_from_the_memo() {
        // BPA-like dwells: 2,000 spans of 2048 writes, each on a random
        // bank. Once the memo holds the few span starts this produces,
        // each span is served by replay and jump with no scalar pushes.
        let mut rng = SmallRng::seed_from_u64(19);
        let mut scalar = ClosedLoopSim::new(ClosedLoopConfig::default());
        let mut fast = ClosedLoopSim::new(ClosedLoopConfig::default());
        let mut worst = 0;
        for span in 0..2_000 {
            let e = MemEvent::write(rng.random_range(0..32)).with_translation(Translation::Hit);
            let before = fast.serve_counts().scalar;
            fast.push_n(e, 2048);
            if span >= 100 {
                worst = worst.max(fast.serve_counts().scalar - before);
            }
            for _ in 0..2048 {
                scalar.push(e);
            }
        }
        assert!(worst <= 2, "a warm span pushed {worst} scalar events");
        let served = fast.serve_counts();
        assert_eq!(served.scalar + served.replayed + served.jumped, fast.events());
        assert!(served.replayed > 0, "{served:?}");
        assert_sims_identical(&scalar, &fast, "random banks");
        assert_states_identical(&scalar, &fast, "random banks");
    }

    #[test]
    fn span_keys_tell_bank_queues_apart() {
        // Two starts that agree on every clock a span on bank 6 reads, but
        // not on its queue: a demand write on bank 6 (queued until 360 ns),
        // and a write on bank 4 whose background writes occupy banks 4..6
        // until the same time (not queued; the demand completion at 360 ns
        // is bank 4's). The span fills bank 6's queue one push sooner from
        // the first. A memo entry recorded from one must not serve the
        // other.
        let span = MemEvent::write(6);
        let mut queued = ClosedLoopSim::new(ClosedLoopConfig::default());
        queued.push(MemEvent::write(6));
        let mut occupied = ClosedLoopSim::new(ClosedLoopConfig::default());
        occupied.push(MemEvent::write(4).with_exchange_writes(3));
        let mut scalar = occupied.clone();
        queued.push_n(span, 2048);
        occupied.memo = queued.memo.clone();
        occupied.push_n(span, 2048);
        for _ in 0..2048 {
            scalar.push(span);
        }
        assert_sims_identical(&scalar, &occupied, "handed-over memo");
        assert_states_identical(&scalar, &occupied, "handed-over memo");
    }
}
