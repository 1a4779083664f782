//! Synthetic SPEC-CPU2006-like workload models.
//!
//! The paper drives its performance and general-application lifetime
//! experiments with 14 SPEC CPU2006 benchmarks traced through gem5. SPEC is
//! proprietary and gem5 is out of scope, so each benchmark is modelled here
//! as a parameterized address-stream generator (the substitution is
//! documented in DESIGN.md §5). A model is characterized by:
//!
//! * **footprint** — fraction of the logical address space the benchmark
//!   touches (its resident working set at line granularity);
//! * **Zipf skew** over hot *blocks* — popularity concentration; blocks of
//!   `locality_block` lines model spatial locality (a hot structure spans
//!   neighbouring lines, not one line);
//! * **scan fraction** — portion of requests issued by a cyclic sequential
//!   walk (streaming kernels: libquantum, lbm, leslie3d);
//! * **write ratio** — fraction of requests that are writes;
//! * **phases** — optional alternation between locality regimes with
//!   working-set drift, which is what makes soplex's cache hit rate swing in
//!   the paper's Figs. 12–14.
//!
//! Parameters are chosen so the qualitative classes the paper reports hold:
//! bzip2/milc/namd are cache-friendly; gcc/cactusADM spread fine-grained
//! entries thin but behave at coarse granularity; gromacs/hmmer concentrate
//! writes on a tiny footprint (their lifetime collapses without good wear
//! leveling); soplex alternates phases.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::zipf::Zipf;
use crate::{AddressStream, CursorKind, MemReq};

/// Multiplier for the block-scatter bijection (odd => invertible mod 2^k).
const SCATTER_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The 14 SPEC CPU2006 applications the paper evaluates (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum SpecBenchmark {
    Bzip2,
    Gcc,
    Mcf,
    Milc,
    Gromacs,
    CactusADM,
    Leslie3d,
    Namd,
    Gobmk,
    Soplex,
    Hmmer,
    Sjeng,
    Libquantum,
    Lbm,
}

/// All 14 benchmarks in the order of the paper's Fig. 16/17 x-axis.
pub const ALL_BENCHMARKS: [SpecBenchmark; 14] = [
    SpecBenchmark::Bzip2,
    SpecBenchmark::Gcc,
    SpecBenchmark::Mcf,
    SpecBenchmark::Milc,
    SpecBenchmark::Gromacs,
    SpecBenchmark::CactusADM,
    SpecBenchmark::Leslie3d,
    SpecBenchmark::Namd,
    SpecBenchmark::Gobmk,
    SpecBenchmark::Soplex,
    SpecBenchmark::Hmmer,
    SpecBenchmark::Sjeng,
    SpecBenchmark::Libquantum,
    SpecBenchmark::Lbm,
];

/// One locality regime of a benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseParams {
    /// Fraction of the benchmark footprint active in this phase (0, 1].
    pub active_frac: f64,
    /// Zipf exponent over hot blocks within the active set.
    pub zipf_s: f64,
    /// Probability a request is drawn from the Zipf-hot distribution (the
    /// remainder minus `scan_frac` is uniform over the active set).
    pub hot_frac: f64,
    /// Probability a request comes from the sequential scanner.
    pub scan_frac: f64,
    /// Probability a request is a write.
    pub write_ratio: f64,
}

/// Static description of a benchmark model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecParams {
    /// Benchmark name as used on the paper's axes.
    pub name: &'static str,
    /// Fraction of the logical address space the benchmark touches.
    pub footprint_frac: f64,
    /// Spatial-locality block size in lines (hot blocks, not hot lines).
    pub locality_block: u64,
    /// Locality regimes; a single entry means a stationary workload.
    pub phases: Vec<PhaseParams>,
    /// Requests per phase before switching (ignored for single-phase).
    pub phase_len: u64,
    /// Whether the hot-set scatter drifts at each phase switch, modelling a
    /// moving working set.
    pub drift: bool,
    /// CPU-side characteristics for the timing model: average non-memory
    /// cycles per instruction and memory requests (post-L2) per
    /// kilo-instruction. These govern how sensitive the benchmark's IPC is
    /// to added memory latency.
    pub base_cpi: f64,
    /// Post-L2 memory requests per 1000 instructions.
    pub mem_per_kilo_instr: f64,
}

impl SpecBenchmark {
    /// Name as printed on the paper's figure axes.
    pub fn name(self) -> &'static str {
        self.params().name
    }

    /// Parse from the paper's benchmark name (case-insensitive).
    pub fn from_name(s: &str) -> Option<Self> {
        let lower = s.to_ascii_lowercase();
        ALL_BENCHMARKS.iter().copied().find(|b| b.name().to_ascii_lowercase() == lower)
    }

    /// The model parameters for this benchmark. Values are the reproduction
    /// suite's calibration, not SPEC measurements; see module docs.
    pub fn params(self) -> SpecParams {
        use SpecBenchmark::*;
        let one = |active_frac, zipf_s, hot_frac, scan_frac, write_ratio| {
            vec![PhaseParams { active_frac, zipf_s, hot_frac, scan_frac, write_ratio }]
        };
        match self {
            Bzip2 => SpecParams {
                name: "bzip2",
                footprint_frac: 0.02,
                locality_block: 32,
                phases: one(1.0, 1.1, 0.75, 0.15, 0.35),
                phase_len: 0,
                drift: false,
                base_cpi: 0.8,
                mem_per_kilo_instr: 6.0,
            },
            Gcc => SpecParams {
                name: "gcc",
                footprint_frac: 0.10,
                locality_block: 16,
                phases: one(1.0, 0.8, 0.55, 0.35, 0.40),
                phase_len: 0,
                drift: false,
                base_cpi: 0.9,
                mem_per_kilo_instr: 9.0,
            },
            Mcf => SpecParams {
                name: "mcf",
                footprint_frac: 0.18,
                locality_block: 4,
                phases: one(1.0, 0.7, 0.55, 0.05, 0.25),
                phase_len: 0,
                drift: false,
                base_cpi: 0.6,
                mem_per_kilo_instr: 40.0,
            },
            Milc => SpecParams {
                name: "milc",
                footprint_frac: 0.012,
                locality_block: 64,
                phases: one(1.0, 1.2, 0.65, 0.30, 0.30),
                phase_len: 0,
                drift: false,
                base_cpi: 0.7,
                mem_per_kilo_instr: 12.0,
            },
            Gromacs => SpecParams {
                name: "gromacs",
                footprint_frac: 0.002,
                locality_block: 8,
                phases: one(1.0, 1.4, 0.90, 0.02, 0.45),
                phase_len: 0,
                drift: false,
                base_cpi: 0.8,
                mem_per_kilo_instr: 5.0,
            },
            CactusADM => SpecParams {
                name: "cactusADM",
                footprint_frac: 0.08,
                locality_block: 16,
                phases: one(1.0, 0.9, 0.50, 0.30, 0.40),
                phase_len: 0,
                drift: false,
                base_cpi: 0.7,
                mem_per_kilo_instr: 15.0,
            },
            Leslie3d => SpecParams {
                name: "leslie3d",
                footprint_frac: 0.06,
                locality_block: 32,
                phases: one(1.0, 0.8, 0.35, 0.50, 0.35),
                phase_len: 0,
                drift: false,
                base_cpi: 0.7,
                mem_per_kilo_instr: 18.0,
            },
            Namd => SpecParams {
                name: "namd",
                footprint_frac: 0.008,
                locality_block: 16,
                phases: one(1.0, 1.0, 0.75, 0.10, 0.30),
                phase_len: 0,
                drift: false,
                base_cpi: 0.9,
                mem_per_kilo_instr: 3.0,
            },
            Gobmk => SpecParams {
                name: "gobmk",
                footprint_frac: 0.03,
                locality_block: 8,
                phases: one(1.0, 1.0, 0.65, 0.10, 0.30),
                phase_len: 0,
                drift: false,
                base_cpi: 1.0,
                mem_per_kilo_instr: 4.0,
            },
            Soplex => SpecParams {
                name: "soplex",
                footprint_frac: 0.12,
                locality_block: 16,
                // Alternates between a compact pricing phase (high locality)
                // and a scattered factorization phase (poor locality); the
                // working set drifts each switch. This produces the hit-rate
                // swings of Figs. 12-14.
                phases: vec![
                    PhaseParams {
                        active_frac: 0.04,
                        zipf_s: 1.2,
                        hot_frac: 0.85,
                        scan_frac: 0.10,
                        write_ratio: 0.30,
                    },
                    PhaseParams {
                        active_frac: 1.0,
                        zipf_s: 0.6,
                        hot_frac: 0.40,
                        scan_frac: 0.15,
                        write_ratio: 0.35,
                    },
                ],
                phase_len: 6_000_000,
                drift: true,
                base_cpi: 0.7,
                mem_per_kilo_instr: 25.0,
            },
            Hmmer => SpecParams {
                name: "hmmer",
                footprint_frac: 0.001,
                locality_block: 8,
                phases: one(1.0, 1.3, 0.92, 0.04, 0.50),
                phase_len: 0,
                drift: false,
                base_cpi: 0.9,
                mem_per_kilo_instr: 4.0,
            },
            Sjeng => SpecParams {
                name: "sjeng",
                footprint_frac: 0.15,
                locality_block: 4,
                phases: one(1.0, 0.6, 0.50, 0.02, 0.30),
                phase_len: 0,
                drift: false,
                base_cpi: 1.0,
                mem_per_kilo_instr: 5.0,
            },
            Libquantum => SpecParams {
                name: "libquantum",
                footprint_frac: 0.05,
                locality_block: 64,
                phases: one(1.0, 0.8, 0.15, 0.80, 0.40),
                phase_len: 0,
                drift: false,
                base_cpi: 0.5,
                mem_per_kilo_instr: 30.0,
            },
            Lbm => SpecParams {
                name: "lbm",
                footprint_frac: 0.15,
                locality_block: 64,
                phases: one(1.0, 0.7, 0.20, 0.70, 0.55),
                phase_len: 0,
                drift: false,
                base_cpi: 0.5,
                mem_per_kilo_instr: 35.0,
            },
        }
    }

    /// Instantiate the generator over `space` lines with a seed.
    pub fn stream(self, space: u64, seed: u64) -> SpecModel {
        SpecModel::new(self, space, seed)
    }
}

/// Per-phase runtime state (Zipf sampler sized to the phase's active set).
#[derive(Debug, Clone)]
struct PhaseState {
    params: PhaseParams,
    zipf: Zipf,
    /// Active blocks in this phase.
    active_blocks: u64,
}

/// Instantiated SPEC-like address-stream generator.
#[derive(Debug, Clone)]
pub struct SpecModel {
    bench: SpecBenchmark,
    space: u64,
    /// Footprint in lines, rounded to a power of two >= locality_block.
    footprint: u64,
    block: u64,
    phases: Vec<PhaseState>,
    phase_len: u64,
    drift: bool,
    cur_phase: usize,
    until_switch: u64,
    /// Drift offset applied to the block scatter, in blocks.
    drift_offset: u64,
    scan_pos: u64,
    rng: SmallRng,
}

impl SpecModel {
    /// Build the model for `bench` over a `space`-line logical address
    /// space. `space` must be a power of two of at least 2^10 lines.
    pub fn new(bench: SpecBenchmark, space: u64, seed: u64) -> Self {
        assert!(
            space.is_power_of_two() && space >= 1 << 10,
            "space must be a power of two >= 1024"
        );
        let p = bench.params();
        let want = (space as f64 * p.footprint_frac) as u64;
        let footprint = want.next_power_of_two().clamp(p.locality_block * 4, space);
        let block = p.locality_block;
        let blocks = footprint / block;
        let phases = p
            .phases
            .iter()
            .map(|&params| {
                let active_blocks = ((blocks as f64 * params.active_frac) as u64)
                    .max(1)
                    .next_power_of_two()
                    .min(blocks);
                PhaseState { params, zipf: Zipf::new(active_blocks, params.zipf_s), active_blocks }
            })
            .collect::<Vec<_>>();
        let until_switch = if phases.len() > 1 { p.phase_len } else { u64::MAX };
        Self {
            bench,
            space,
            footprint,
            block,
            phases,
            phase_len: p.phase_len,
            drift: p.drift,
            cur_phase: 0,
            until_switch,
            drift_offset: 0,
            scan_pos: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The benchmark this model instantiates.
    pub fn benchmark(&self) -> SpecBenchmark {
        self.bench
    }

    /// Footprint in lines actually used after rounding.
    pub fn footprint_lines(&self) -> u64 {
        self.footprint
    }

    /// Index of the phase currently generating requests.
    pub fn current_phase(&self) -> usize {
        self.cur_phase
    }

    /// Scatter a block rank into a block index within the footprint: an
    /// invertible multiply-mod-2^k so hot ranks land far apart, plus the
    /// drift offset.
    #[inline]
    fn scatter_block(&self, rank: u64, blocks_mask: u64) -> u64 {
        (rank.wrapping_mul(SCATTER_MULT).wrapping_add(self.drift_offset)) & blocks_mask
    }
}

impl AddressStream for SpecModel {
    #[inline]
    fn next_req(&mut self) -> MemReq {
        if self.until_switch == 0 {
            self.cur_phase = (self.cur_phase + 1) % self.phases.len();
            self.until_switch = self.phase_len;
            if self.drift {
                self.drift_offset = self.rng.random::<u64>();
            }
        }
        self.until_switch = self.until_switch.saturating_sub(1);

        let blocks_mask = self.footprint / self.block - 1;
        let phase = &self.phases[self.cur_phase];
        let u = self.rng.random::<f64>();
        let la = if u < phase.params.scan_frac {
            // Sequential scan over the whole footprint.
            let la = self.scan_pos;
            self.scan_pos = (self.scan_pos + 1) & (self.footprint - 1);
            la
        } else if u < phase.params.scan_frac + phase.params.hot_frac {
            // Zipf-hot block, uniform line within the block.
            let rank = phase.zipf.sample(&mut self.rng);
            let block = self.scatter_block(rank, blocks_mask);
            block * self.block + self.rng.random_range(0..self.block)
        } else {
            // Uniform over the phase's active set (scattered like the hot
            // set so the two regimes overlap).
            let rank = self.rng.random_range(0..phase.active_blocks);
            let block = self.scatter_block(rank, blocks_mask);
            block * self.block + self.rng.random_range(0..self.block)
        };
        let write = self.rng.random::<f64>() < phase.params.write_ratio;
        MemReq { la, write }
    }

    fn space_lines(&self) -> u64 {
        self.space
    }

    fn name(&self) -> &str {
        self.bench.name()
    }

    fn cursor_kind(&self) -> CursorKind {
        CursorKind::State
    }

    fn cursor_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_rng(self.rng.state());
        w.put_u64(self.cur_phase as u64);
        w.put_u64(self.until_switch);
        w.put_u64(self.drift_offset);
        w.put_u64(self.scan_pos);
    }

    fn cursor_restore(&mut self, r: &mut sawl_ckpt::Reader) -> Result<(), sawl_ckpt::CkptError> {
        self.rng = SmallRng::from_state(r.get_rng()?);
        let cur_phase = r.get_u64()? as usize;
        if cur_phase >= self.phases.len() {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "spec-model phase cursor {cur_phase} past the {}-phase model",
                self.phases.len()
            )));
        }
        self.cur_phase = cur_phase;
        self.until_switch = r.get_u64()?;
        self.drift_offset = r.get_u64()?;
        self.scan_pos = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const SPACE: u64 = 1 << 20;

    #[test]
    fn all_benchmarks_instantiate_and_stay_in_space() {
        for b in ALL_BENCHMARKS {
            let mut m = b.stream(SPACE, 1);
            for _ in 0..10_000 {
                let r = m.next_req();
                assert!(r.la < SPACE, "{}: {} out of space", b.name(), r.la);
            }
        }
    }

    #[test]
    fn from_name_round_trips() {
        for b in ALL_BENCHMARKS {
            assert_eq!(SpecBenchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(SpecBenchmark::from_name("CACTUSadm"), Some(SpecBenchmark::CactusADM));
        assert_eq!(SpecBenchmark::from_name("nope"), None);
    }

    #[test]
    fn footprints_order_matches_params() {
        let small = SpecBenchmark::Hmmer.stream(SPACE, 1).footprint_lines();
        let large = SpecBenchmark::Mcf.stream(SPACE, 1).footprint_lines();
        assert!(small < large, "hmmer {small} !< mcf {large}");
    }

    #[test]
    fn gromacs_concentrates_writes() {
        // The paper singles out gromacs/hmmer as concentrating writes on a
        // small fraction of the space.
        let mut m = SpecBenchmark::Gromacs.stream(SPACE, 2);
        let mut writes: HashSet<u64> = HashSet::new();
        let mut n_writes = 0u64;
        for _ in 0..200_000 {
            let r = m.next_req();
            if r.write {
                writes.insert(r.la);
                n_writes += 1;
            }
        }
        assert!(n_writes > 50_000);
        let unique_frac = writes.len() as f64 / SPACE as f64;
        assert!(unique_frac < 0.01, "gromacs touched {unique_frac} of space");
    }

    #[test]
    fn mcf_touches_much_more_than_gromacs() {
        let touched = |b: SpecBenchmark| {
            let mut m = b.stream(SPACE, 3);
            let mut seen: HashSet<u64> = HashSet::new();
            for _ in 0..200_000 {
                seen.insert(m.next_req().la);
            }
            seen.len()
        };
        assert!(touched(SpecBenchmark::Mcf) > 10 * touched(SpecBenchmark::Gromacs));
    }

    #[test]
    fn soplex_switches_phases() {
        let mut m = SpecBenchmark::Soplex.stream(SPACE, 4);
        assert_eq!(m.current_phase(), 0);
        let phase_len = SpecBenchmark::Soplex.params().phase_len;
        for _ in 0..phase_len + 1 {
            m.next_req();
        }
        assert_eq!(m.current_phase(), 1);
    }

    #[test]
    fn write_ratio_is_respected() {
        let mut m = SpecBenchmark::Lbm.stream(SPACE, 5);
        let writes = (0..100_000).filter(|_| m.next_req().write).count();
        let ratio = writes as f64 / 100_000.0;
        assert!((ratio - 0.55).abs() < 0.02, "lbm write ratio {ratio}");
    }

    #[test]
    fn determinism_per_seed() {
        let take = |seed| {
            let mut m = SpecBenchmark::Gcc.stream(SPACE, seed);
            (0..256).map(|_| m.next_req()).collect::<Vec<_>>()
        };
        assert_eq!(take(9), take(9));
        assert_ne!(take(9), take(10));
    }

    #[test]
    fn libquantum_is_scan_dominated() {
        let mut m = SpecBenchmark::Libquantum.stream(SPACE, 6);
        // Count strictly-sequential successor pairs.
        let mut prev = m.next_req().la;
        let mut seq = 0;
        let total = 50_000;
        for _ in 0..total {
            let la = m.next_req().la;
            if la == (prev + 1) & (m.footprint_lines() - 1) {
                seq += 1;
            }
            prev = la;
        }
        // With 80% scan traffic, ~64% of adjacent pairs are scan-scan.
        assert!(seq as f64 / total as f64 > 0.5, "sequential pairs {seq}/{total}");
    }
}
