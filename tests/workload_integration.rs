//! Integration tests of the workload substrate against the wear-leveling
//! stack: reuse-distance-driven expectations, cross-validation of the CMT
//! against the reuse-distance theory, and footprint classes seen through
//! the full stack.

use sawl::algos::WearLeveler;
use sawl::tiered::cmt::{Cmt, CmtLookup};
use sawl::tiered::{Nwl, NwlConfig};
use sawl::trace::{AddressStream, ReuseTracker, SpecBenchmark};

fn wearless(lines: u64) -> sawl::nvm::NvmDevice {
    sawl::nvm::NvmDevice::new(
        sawl::nvm::NvmConfig::builder().lines(lines).endurance(u32::MAX).build().unwrap(),
    )
}

#[test]
fn reuse_tracker_predicts_cmt_hit_rate() {
    // The CMT is an exact LRU, so the sampled reuse-distance profile must
    // predict its hit rate. Run both on the same stream and compare.
    let entries = 512;
    let granularity = 4u64;
    let mut stream = SpecBenchmark::Gobmk.stream(1 << 18, 9);
    let mut cmt: Cmt<u8> = Cmt::new(entries);
    let mut tracker = ReuseTracker::new(3, 8192);
    for _ in 0..400_000 {
        let lrn = stream.next_req().la / granularity;
        if matches!(cmt.lookup(lrn), CmtLookup::Miss) {
            cmt.insert(lrn, 0);
        }
        tracker.observe(lrn);
    }
    let predicted = tracker.estimated_hit_rate(entries);
    let measured = cmt.hit_rate();
    assert!(
        (predicted - measured).abs() < 0.06,
        "reuse prediction {predicted} vs measured {measured}"
    );
}

#[test]
fn benchmarks_footprint_ordering_survives_the_full_stack() {
    // End-to-end sanity: the SPEC-like models' footprint classes must be
    // visible through NWL's hit rates (small footprint -> high hit rate).
    let run = |b: SpecBenchmark| {
        let mut nwl = Nwl::new(NwlConfig {
            data_lines: 1 << 20,
            granularity: 4,
            cmt_entries: 2048,
            swap_period: 1 << 20,
            ..NwlConfig::default()
        });
        let mut dev = wearless(nwl.required_physical_lines());
        let mut s = b.stream(1 << 20, 8);
        for _ in 0..300_000 {
            let r = s.next_req();
            if r.write {
                nwl.write(r.la, &mut dev);
            } else {
                nwl.read(r.la, &mut dev);
            }
        }
        nwl.mapping_stats().hit_rate()
    };
    let hmmer = run(SpecBenchmark::Hmmer); // ~0.1% footprint
    let mcf = run(SpecBenchmark::Mcf); // ~18% footprint
    assert!(hmmer > 0.9, "hmmer should be cache-resident: {hmmer}");
    assert!(hmmer > mcf + 0.2, "hmmer {hmmer} vs mcf {mcf}");
}
