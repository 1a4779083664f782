//! Diagnostic: watch SAWL adapt to a benchmark in real time.
//!
//! ```text
//! probe_adaptation [benchmark] [millions-of-requests]
//! probe_adaptation mcf 20
//! ```
//!
//! Prints the windowed hit rate, target and cached region sizes, decision
//! counts and cumulative write overhead every 2M requests — the fastest
//! way to understand what the engine is doing on a new workload. Unlike
//! the figure binaries this one inspects live engine state between pump
//! chunks, so it builds the engine concretely instead of going through
//! `run_trace`.

use sawl_core::{Sawl, SawlConfig};
use sawl_simctl::trace::wearless_device;
use sawl_simctl::{pump, stable_seed};
use sawl_trace::SpecBenchmark;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let bench =
        args.get(1).and_then(|s| SpecBenchmark::from_name(s)).unwrap_or(SpecBenchmark::Soplex);
    let millions: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(20);

    let cfg = SawlConfig {
        data_lines: 1 << 22,
        cmt_entries: (256 * 1024 * 8 / 48) as usize,
        swap_period: 128,
        observation_window: 1 << 20,
        settling_window: 1 << 20,
        sample_interval: 100_000,
        max_granularity: 256,
        ..Default::default()
    };
    let mut sawl = Sawl::new(cfg.clone());
    let mut dev = wearless_device(sawl.required_physical_lines());
    let mut stream = bench.stream(cfg.data_lines, stable_seed("probe-adaptation"));

    println!("probing {} for {millions}M requests (space 2^22, CMT 256KB)", bench.name());
    println!("  req   windowed  target  cached  mdec  sdec  merges  splits  overhead");
    const CHUNK: u64 = 2_000_000;
    for chunk in 1..=(millions * 1_000_000).div_ceil(CHUNK) {
        pump(&mut sawl, &mut dev, &mut stream, CHUNK);
        let last = sawl
            .history()
            .samples()
            .last()
            .copied()
            .unwrap_or_else(|| panic!("no samples recorded yet"));
        let st = sawl.stats();
        println!(
            "{:>4}M  {:>8.3}  {:>6}  {:>6.1}  {:>4}  {:>4}  {:>6}  {:>6}  {:>7.4}",
            chunk * CHUNK / 1_000_000,
            last.windowed_hit_rate,
            sawl.target_granularity(),
            last.cached_region_size,
            st.merge_decisions,
            st.split_decisions,
            st.merges,
            st.splits,
            dev.wear().overhead_writes as f64 / dev.wear().demand_writes.max(1) as f64,
        );
    }
}
