//! SAWL's and NWL's exchange cycles do not touch the heap.
//!
//! Under BPA at the probe geometry a tiered scheme exchanges a region every
//! `swap_period × Q` writes, so anything an exchange allocates is paid
//! hundreds of thousands of times per lifetime. A counting global allocator
//! counts every allocation while each scheme serves at least 10^5
//! exchanges through `write_run`, after a warmup that lets the reused
//! buffers (journal record, exchange plan, stream runs) reach their size.
//! The bound allows amortized growth of the adaptation history, not one
//! allocation per exchange.
//!
//! Debug builds also run SAWL's O(data lines) invariant check after every
//! structural operation. It allocates nothing either, so the test runs
//! there too, over 10^4 exchanges to keep its time in bounds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sawl_algos::WearLeveler;
use sawl_core::{Sawl, SawlConfig};
use sawl_nvm::{NvmConfig, NvmDevice};
use sawl_tiered::{Nwl, NwlConfig};
use sawl_trace::{AddressStream, Bpa, MemReq, ReqRun};

/// Counts the allocations and reallocations of the calling thread (the
/// test harness runs tests on parallel threads); frees are not counted.
struct Counting;

thread_local! {
    // Const-initialized with no destructor: touching it never allocates,
    // so the allocator may use it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for each call; the counting touches only a
// thread-local `Cell`, never allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations allowed across the whole measured span (amortized growth).
const MAX_ALLOCS: u64 = 64;
/// Exchanges the measured span must cover. Debug builds run SAWL's
/// O(data lines) invariant check after every exchange, so they measure a
/// tenth of the span; one allocation per exchange still breaks the bound.
const MIN_EXCHANGES: u64 = if cfg!(debug_assertions) { 10_000 } else { 100_000 };
/// The perfbench BPA dwell.
const DWELL: u64 = 2048;

fn device(lines: u64) -> NvmDevice {
    NvmDevice::new(
        NvmConfig::builder()
            .lines(lines)
            .banks(1)
            .endurance(u32::MAX)
            .spare_shift(6)
            .build()
            .unwrap(),
    )
}

/// Serve BPA batches through `write_run` until `exchanges()` has grown by
/// `count`, reusing one run buffer and one request scratch.
fn drive<W: WearLeveler>(
    w: &mut W,
    dev: &mut NvmDevice,
    stream: &mut Bpa,
    runs: &mut Vec<ReqRun>,
    scratch: &mut [MemReq],
    count: u64,
) {
    let target = w.op_counts().exchanges + count;
    while w.op_counts().exchanges < target {
        stream.fill_runs(runs, scratch);
        for r in runs.iter() {
            assert!(r.write, "BPA issues writes only");
            assert_eq!(w.write_run(r.la, r.len, dev), r.len, "device refused a write");
        }
    }
}

/// Warm up, then count the allocations of at least `MIN_EXCHANGES`
/// exchanges.
fn allocations_over_exchanges<W: WearLeveler>(w: &mut W, dev: &mut NvmDevice) -> (u64, u64) {
    let mut stream = Bpa::new(w.logical_lines(), DWELL, 7);
    let mut runs = Vec::with_capacity(1024);
    let mut scratch = vec![MemReq::write(0); 1 << 16];
    drive(w, dev, &mut stream, &mut runs, &mut scratch, 2_000);
    let before_ops = w.op_counts().exchanges;
    let before = allocs();
    drive(w, dev, &mut stream, &mut runs, &mut scratch, MIN_EXCHANGES);
    (allocs() - before, w.op_counts().exchanges - before_ops)
}

#[test]
fn sawl_exchanges_do_not_allocate() {
    let mut sawl = Sawl::new(SawlConfig::default());
    let mut dev = device(sawl.required_physical_lines());
    let (allocs, exchanges) = allocations_over_exchanges(&mut sawl, &mut dev);
    assert!(exchanges >= MIN_EXCHANGES, "only {exchanges} exchanges");
    assert!(
        allocs <= MAX_ALLOCS,
        "{allocs} allocations over {exchanges} SAWL exchanges (at most {MAX_ALLOCS} allowed)"
    );
}

#[test]
fn nwl_exchanges_do_not_allocate() {
    let mut nwl = Nwl::new(NwlConfig::default());
    let mut dev = device(nwl.required_physical_lines());
    let (allocs, exchanges) = allocations_over_exchanges(&mut nwl, &mut dev);
    assert!(exchanges >= MIN_EXCHANGES, "only {exchanges} exchanges");
    assert!(
        allocs <= MAX_ALLOCS,
        "{allocs} allocations over {exchanges} NWL exchanges (at most {MAX_ALLOCS} allowed)"
    );
}
