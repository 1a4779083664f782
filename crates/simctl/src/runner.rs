//! Parallel experiment sweeps.
//!
//! Figure sweeps are dozens of independent, CPU-bound simulations; this
//! module fans them out over the machine's cores ([`run_all`] runs a grid
//! of one experiment kind through [`parallel_map`]). Each worker pulls the
//! next item off a shared atomic cursor — work-stealing degenerate to a
//! single deque — so long-running configurations don't leave cores idle
//! behind a static partition, and streams its `(index, result)` pairs back
//! over a crossbeam channel. Results are reassembled in input order, and
//! every run derives its own seed from its id, so the sweep's output is
//! independent of scheduling.
//!
//! The fan-out honors a `SAWL_THREADS` environment override (clamped to at
//! least 1) so CI and shared machines can bound the worker count
//! deterministically; unset or unparsable values fall back to the
//! machine's available parallelism. A process-wide programmatic override
//! ([`set_thread_override`], the `--threads` CLI flag) beats the
//! environment. Worker count never changes results — every run is seeded
//! from its own id and results are reassembled in input order — so the
//! knobs only bound the resource footprint.

use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam::channel;

/// Process-wide thread-count override set by CLI flags; 0 means unset.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Set (or clear, with `None`) the programmatic worker-count override.
/// Takes precedence over `SAWL_THREADS`; values clamp to at least 1. This
/// is how `--threads N` flags plumb into every [`parallel_map`] sweep.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// Parse a raw `SAWL_THREADS` value into a worker count (clamped to ≥ 1).
/// `None` means fall back to the machine's parallelism — silently when the
/// variable is unset, with a one-line stderr warning when it is set but
/// unparsable, so a typo'd override doesn't silently change the sweep's
/// resource footprint.
fn parse_thread_override(raw: Option<&str>) -> Option<usize> {
    let raw = raw?;
    match raw.trim().parse::<usize>() {
        Ok(n) => Some(n.max(1)),
        Err(_) => {
            eprintln!(
                "warning: SAWL_THREADS={raw:?} is not a thread count; \
                 falling back to available parallelism"
            );
            None
        }
    }
}

/// Worker threads to use: the programmatic override when set (a `--threads`
/// flag), else the `SAWL_THREADS` override (clamped to ≥ 1), otherwise the
/// machine's available parallelism.
fn configured_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => {}
        n => return n,
    }
    match parse_thread_override(std::env::var("SAWL_THREADS").ok().as_deref()) {
        Some(n) => n,
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
    }
}

/// Apply `f` to every item on all cores; results keep the input order.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = configured_threads().min(items.len());
    if threads == 1 {
        return items.iter().map(&f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = channel::bounded::<(usize, R)>(threads * 2);
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(|| {
                // Move the clone into the worker; the last drop closes the
                // channel once every worker finishes.
                let tx = tx;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(&items[i]);
                    if tx.send((i, r)).is_err() {
                        break; // receiver gone: nothing left to report to
                    }
                }
            });
        }
        drop(tx);
        // Collect on the calling thread while workers run.
        for (i, r) in rx {
            results[i] = Some(r);
        }
    });
    results.into_iter().map(|r| r.expect("worker skipped an item")).collect()
}

/// Run a grid of experiments of one kind (`run_lifetime`, `run_trace` or
/// `run_perf`) across cores; results keep the grid order. The first
/// defective experiment's error is returned.
pub fn run_all<T, R, E, F>(grid: &[T], run: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    parallel_map(grid, run).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::{run_lifetime, LifetimeExperiment};
    use crate::spec::{DeviceSpec, SchemeSpec, WorkloadSpec};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let count = AtomicU64::new(0);
        let items: Vec<u32> = (0..500).collect();
        let _ = parallel_map(&items, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = parallel_map(&Vec::<u32>::new(), |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let out = parallel_map(&[41], |&x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with very different costs: the atomic cursor ensures no
        // static partition straggles. We only check correctness here.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, |&x| {
            let mut acc = 0u64;
            for i in 0..(x % 7) * 100_000 {
                acc = acc.wrapping_add(i);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn thread_env_override_is_honored() {
        // One test covers every SAWL_THREADS case — and the programmatic
        // override's precedence over it — so the env/global mutations
        // can't race each other across the test harness's threads. The
        // other tests in this module are thread-count-agnostic, so a
        // transient override cannot affect their outcomes.
        let items: Vec<u64> = (0..64).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3).collect();

        std::env::set_var("SAWL_THREADS", "1");
        assert_eq!(configured_threads(), 1);
        assert_eq!(parallel_map(&items, |&x| x * 3), expect);

        std::env::set_var("SAWL_THREADS", "2");
        assert_eq!(configured_threads(), 2);
        assert_eq!(parallel_map(&items, |&x| x * 3), expect);

        // The --threads flag (programmatic override) beats the env var,
        // clamps to >= 1, and clears back to the env behind it.
        set_thread_override(Some(3));
        assert_eq!(configured_threads(), 3);
        assert_eq!(parallel_map(&items, |&x| x * 3), expect);
        set_thread_override(Some(0));
        assert_eq!(configured_threads(), 1);
        set_thread_override(None);
        assert_eq!(configured_threads(), 2);

        // Zero clamps up to one worker instead of hanging or panicking.
        std::env::set_var("SAWL_THREADS", "0");
        assert_eq!(configured_threads(), 1);

        // Garbage falls back to the machine's parallelism.
        std::env::set_var("SAWL_THREADS", "lots");
        assert!(configured_threads() >= 1);

        std::env::remove_var("SAWL_THREADS");
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn thread_override_parses_numbers_and_warns_on_garbage() {
        // Pure-function cases, no env mutation: unset is a silent
        // fallback, numbers parse (with whitespace, clamped to >= 1), and
        // garbage falls back with a warning (visible with --nocapture).
        assert_eq!(parse_thread_override(None), None);
        assert_eq!(parse_thread_override(Some("3")), Some(3));
        assert_eq!(parse_thread_override(Some(" 8 ")), Some(8));
        assert_eq!(parse_thread_override(Some("0")), Some(1));
        assert_eq!(parse_thread_override(Some("lots")), None);
        assert_eq!(parse_thread_override(Some("")), None);
        assert_eq!(parse_thread_override(Some("-2")), None);
    }

    #[test]
    fn run_all_keeps_grid_order() {
        let grid: Vec<LifetimeExperiment> = (0..6)
            .map(|i| {
                LifetimeExperiment::new(
                    format!("scn/grid/{i}"),
                    SchemeSpec::PcmS { region_lines: 8, period: 8 + i },
                    WorkloadSpec::Bpa { writes_per_target: 400 },
                    1 << 10,
                    DeviceSpec { endurance: 400, ..Default::default() },
                )
            })
            .collect();
        let results = run_all(&grid, run_lifetime).unwrap();
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.id, format!("scn/grid/{i}"));
        }
    }

    #[test]
    fn results_can_outnumber_channel_capacity() {
        // More items than the bounded channel's capacity: backpressure
        // must not deadlock the workers.
        let items: Vec<u32> = (0..10_000).collect();
        let out = parallel_map(&items, |&x| x + 1);
        assert_eq!(out.len(), 10_000);
        assert_eq!(out[9_999], 10_000);
    }
}
