//! Absolute request sequences of the Zipf-family and pattern generators.
//!
//! `fill_equivalence.rs` holds the batched path to the scalar one of the
//! same build; this suite pins what the scalar path itself produces. Each
//! case digests the first 2^20 `next_req`s of a stream (FNV-1a over each
//! request's line and write bit), then the stream's saved cursor, so the
//! digest also covers the generator's RNG state after the last draw: a
//! sampler that returns the right ranks but consumes a different number of
//! draws fails here too.

use sawl_trace::{
    AddressStream, GcFeedback, Hotspot, SpecBenchmark, Uniform, Ycsb, ZipfStream, ALL_BENCHMARKS,
};

/// Requests digested per case.
const REQS: usize = 1 << 20;
/// Seeds every case runs at.
const SEEDS: [u64; 2] = [7, 2026];
/// Address space of the SPEC-like models and the Zipf streams.
const SPACE: u64 = 1 << 18;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the first [`REQS`] requests, then over the cursor.
fn digest(s: &mut dyn AddressStream) -> u64 {
    let mut h = FNV_OFFSET;
    for _ in 0..REQS {
        let r = s.next_req();
        h = fnv(h, &r.la.to_le_bytes());
        h = fnv(h, &[u8::from(r.write)]);
    }
    let mut w = sawl_ckpt::Writer::new();
    s.cursor_save(&mut w);
    fnv(h, &w.into_payload())
}

/// Soplex switches phase (and redraws its drift offset) every 6M
/// requests. Rewrite a fresh model's cursor so the switch falls half way
/// through the digested requests.
fn soplex_near_switch(seed: u64) -> Box<dyn AddressStream> {
    let mut m = SpecBenchmark::Soplex.stream(SPACE, seed);
    let mut w = sawl_ckpt::Writer::new();
    m.cursor_save(&mut w);
    let saved = w.into_payload();
    let mut r = sawl_ckpt::Reader::new(&saved);
    let rng = r.get_rng().unwrap();
    let cur_phase = r.get_u64().unwrap();
    let _until_switch = r.get_u64().unwrap();
    let drift_offset = r.get_u64().unwrap();
    let scan_pos = r.get_u64().unwrap();
    r.finish().unwrap();
    let mut w = sawl_ckpt::Writer::new();
    w.put_rng(rng);
    w.put_u64(cur_phase);
    w.put_u64(REQS as u64 / 2);
    w.put_u64(drift_offset);
    w.put_u64(scan_pos);
    let edited = w.into_payload();
    m.cursor_restore(&mut sawl_ckpt::Reader::new(&edited)).unwrap();
    Box::new(m)
}

/// Every pinned stream at one seed, by name.
fn streams(seed: u64) -> Vec<(String, Box<dyn AddressStream>)> {
    let mut v: Vec<(String, Box<dyn AddressStream>)> = vec![
        ("zipf-1.0".into(), Box::new(ZipfStream::new(SPACE, 1.0, 0.7, seed))),
        ("zipf-1.2".into(), Box::new(ZipfStream::new(SPACE, 1.2, 0.7, seed))),
        ("ycsb".into(), Box::new(Ycsb::new(1 << 16, 512, 1.1, 0.8, 8_192, 64, seed))),
        // A window that wraps the space every few thousand requests.
        ("ycsb-wrap".into(), Box::new(Ycsb::new(1 << 12, 1 << 12, 0.9, 0.5, 997, 1_500, seed))),
        (
            "gc-feedback".into(),
            Box::new(GcFeedback::new(1 << 16, 1.1, 0.8, 0.3, 0.05, 0.1, 512, seed)),
        ),
        ("uniform".into(), Box::new(Uniform::new(SPACE, 0.4, seed))),
        ("hotspot".into(), Box::new(Hotspot::new(SPACE, 4_096, 1_024, 0.9, 0.6, seed))),
        ("soplex-switch".into(), soplex_near_switch(seed)),
    ];
    for bench in ALL_BENCHMARKS {
        v.push((bench.name().into(), Box::new(bench.stream(SPACE, seed))));
    }
    v
}

/// `(stream, seed, digest)`, recorded from the rejection-inversion
/// sampler without a guide table.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("zipf-1.0", 7, 0xf4b593c97715c1f9),
    ("zipf-1.2", 7, 0x344263f1f658e000),
    ("ycsb", 7, 0xd4851084ca5dec07),
    ("ycsb-wrap", 7, 0xd8528fa6cace7bd5),
    ("gc-feedback", 7, 0xe1560259a224708b),
    ("uniform", 7, 0xa83bc27292043652),
    ("hotspot", 7, 0xb3352fac20fac3da),
    ("soplex-switch", 7, 0x8bdb07216f4dc807),
    ("bzip2", 7, 0x109415da7aa393b0),
    ("gcc", 7, 0xebc9f81b16f0404d),
    ("mcf", 7, 0x5f6ebd0c01b3ad5e),
    ("milc", 7, 0xc224073df97555f0),
    ("gromacs", 7, 0x060e796acdeef3b2),
    ("cactusADM", 7, 0x57d319830d5c5532),
    ("leslie3d", 7, 0x3407443a47d4d69b),
    ("namd", 7, 0xcefac27ba5a6753e),
    ("gobmk", 7, 0xeb6ada3651ed7293),
    ("soplex", 7, 0x48e5eb915015f717),
    ("hmmer", 7, 0x2fd09e3e627b1ef1),
    ("sjeng", 7, 0x1f4cd7152820ffd6),
    ("libquantum", 7, 0x67341bfd540f421e),
    ("lbm", 7, 0xebe52d9b687f7a43),
    ("zipf-1.0", 2026, 0x9d2bc662266ef491),
    ("zipf-1.2", 2026, 0xcb41ac3b68419080),
    ("ycsb", 2026, 0x49edb868a224b04a),
    ("ycsb-wrap", 2026, 0x2549571bb3832ca2),
    ("gc-feedback", 2026, 0x83c695c64a97e92c),
    ("uniform", 2026, 0x3f640dcb75d74a97),
    ("hotspot", 2026, 0xff16eedb8c0077c3),
    ("soplex-switch", 2026, 0xb777bcd185d0636f),
    ("bzip2", 2026, 0xf893529f9e8c8d3e),
    ("gcc", 2026, 0x6f9a5a89f982ba67),
    ("mcf", 2026, 0xe53ee7f019b54947),
    ("milc", 2026, 0x48130273fdb07ab3),
    ("gromacs", 2026, 0x5404856f7c88979d),
    ("cactusADM", 2026, 0x44b3c2cd420f8ad8),
    ("leslie3d", 2026, 0x1f6cb63aca3488d7),
    ("namd", 2026, 0x97e209e6ca9e058a),
    ("gobmk", 2026, 0x613b5a145572d54e),
    ("soplex", 2026, 0x81922d870f807979),
    ("hmmer", 2026, 0x415bc99fca034cf4),
    ("sjeng", 2026, 0xca42ab4b10c3443e),
    ("libquantum", 2026, 0xced236c3d305f044),
    ("lbm", 2026, 0xe9dd2a401fec73d1),
];

#[test]
fn streams_match_their_recorded_digests() {
    let mut got = Vec::new();
    for seed in SEEDS {
        for (name, mut s) in streams(seed) {
            got.push((name, seed, digest(s.as_mut())));
        }
    }
    let listing: String =
        got.iter().map(|(n, seed, d)| format!("    (\"{n}\", {seed}, {d:#018x}),\n")).collect();
    assert_eq!(got.len(), GOLDEN.len(), "digests:\n{listing}");
    for ((name, seed, d), &(want_name, want_seed, want)) in got.iter().zip(GOLDEN) {
        assert_eq!((name.as_str(), *seed), (want_name, want_seed), "digests:\n{listing}");
        assert_eq!(*d, want, "{name} at seed {seed}: stream diverged; digests:\n{listing}");
    }
}
