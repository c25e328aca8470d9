//! Benchmark profiles: the 29 SPEC CPU2006 benchmarks of Table 2, modeled
//! as parameterized synthetic kernels.
//!
//! Each profile is tuned so that the synthetic benchmark lands in the
//! paper's published band for that application: its MPKI class (Table 2),
//! its dependent-cache-miss fraction (Figure 2: mcf/omnetpp high,
//! libquantum/lbm ≈ 0), its short source→dependent chain lengths
//! (Figure 6), and its qualitative access pattern (pointer-chasing vs
//! streaming vs mixed; integer vs floating-point).

/// The SPEC CPU2006 benchmarks (Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Benchmark {
    // High memory intensity (MPKI >= 10), Table 2.
    Omnetpp,
    Milc,
    Soplex,
    Sphinx3,
    Bwaves,
    Libquantum,
    Lbm,
    Mcf,
    // Low memory intensity (MPKI < 10), Table 2.
    Calculix,
    Povray,
    Namd,
    Gamess,
    Perlbench,
    Tonto,
    Gromacs,
    Gobmk,
    DealII,
    Sjeng,
    Gcc,
    Hmmer,
    H264ref,
    Bzip2,
    Astar,
    Xalancbmk,
    Zeusmp,
    CactusADM,
    Wrf,
    GemsFDTD,
    Leslie3d,
}

impl Benchmark {
    /// The high-memory-intensity benchmarks (Table 2, MPKI ≥ 10).
    pub const HIGH_INTENSITY: [Benchmark; 8] = [
        Benchmark::Omnetpp,
        Benchmark::Milc,
        Benchmark::Soplex,
        Benchmark::Sphinx3,
        Benchmark::Bwaves,
        Benchmark::Libquantum,
        Benchmark::Lbm,
        Benchmark::Mcf,
    ];

    /// The low-memory-intensity benchmarks (Table 2, MPKI < 10).
    pub const LOW_INTENSITY: [Benchmark; 21] = [
        Benchmark::Calculix,
        Benchmark::Povray,
        Benchmark::Namd,
        Benchmark::Gamess,
        Benchmark::Perlbench,
        Benchmark::Tonto,
        Benchmark::Gromacs,
        Benchmark::Gobmk,
        Benchmark::DealII,
        Benchmark::Sjeng,
        Benchmark::Gcc,
        Benchmark::Hmmer,
        Benchmark::H264ref,
        Benchmark::Bzip2,
        Benchmark::Astar,
        Benchmark::Xalancbmk,
        Benchmark::Zeusmp,
        Benchmark::CactusADM,
        Benchmark::Wrf,
        Benchmark::GemsFDTD,
        Benchmark::Leslie3d,
    ];

    /// Every benchmark, high-intensity first (the sort order used by the
    /// paper's Figure 1 is ascending intensity; harnesses re-sort).
    pub fn all() -> Vec<Benchmark> {
        let mut v = Self::HIGH_INTENSITY.to_vec();
        v.extend(Self::LOW_INTENSITY);
        v
    }

    /// Lower-case benchmark name as printed in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Omnetpp => "omnetpp",
            Benchmark::Milc => "milc",
            Benchmark::Soplex => "soplex",
            Benchmark::Sphinx3 => "sphinx3",
            Benchmark::Bwaves => "bwaves",
            Benchmark::Libquantum => "libquantum",
            Benchmark::Lbm => "lbm",
            Benchmark::Mcf => "mcf",
            Benchmark::Calculix => "calculix",
            Benchmark::Povray => "povray",
            Benchmark::Namd => "namd",
            Benchmark::Gamess => "gamess",
            Benchmark::Perlbench => "perlbench",
            Benchmark::Tonto => "tonto",
            Benchmark::Gromacs => "gromacs",
            Benchmark::Gobmk => "gobmk",
            Benchmark::DealII => "dealII",
            Benchmark::Sjeng => "sjeng",
            Benchmark::Gcc => "gcc",
            Benchmark::Hmmer => "hmmer",
            Benchmark::H264ref => "h264ref",
            Benchmark::Bzip2 => "bzip2",
            Benchmark::Astar => "astar",
            Benchmark::Xalancbmk => "xalancbmk",
            Benchmark::Zeusmp => "zeusmp",
            Benchmark::CactusADM => "cactusADM",
            Benchmark::Wrf => "wrf",
            Benchmark::GemsFDTD => "GemsFDTD",
            Benchmark::Leslie3d => "leslie3d",
        }
    }

    /// Whether Table 2 classifies this benchmark as high memory intensity.
    pub fn is_high_intensity(self) -> bool {
        Self::HIGH_INTENSITY.contains(&self)
    }

    /// The synthetic-kernel parameters for this benchmark.
    pub fn profile(self) -> Profile {
        profile_of(self)
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Synthetic-kernel parameters. One loop iteration of the generated
/// program contains the configured number of each segment type; see
/// `emc-workloads::gen` for segment shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Pointer-chase node region size in cache lines (0 = no chasing).
    pub chase_lines: u64,
    /// Payload region size in cache lines (targets of dependent loads).
    pub payload_lines: u64,
    /// Pointer-chase segments per iteration (source + dependent misses).
    pub chase_segments: u32,
    /// Dependent loads per chase beyond the first (levels of indirection).
    pub dep_depth: u32,
    /// ALU ops between the source load and the dependent load (Figure 6).
    pub interleave_ops: u32,
    /// Sequential-stream segments per iteration.
    pub stream_segments: u32,
    /// Stream advance in bytes per segment (8 = dense scan, 64 = line).
    pub stream_stride: u64,
    /// Whether streams also store (write-back traffic, lbm-style).
    pub stream_stores: bool,
    /// Random independent-load segments per iteration (xorshift address).
    pub random_segments: u32,
    /// Span of the random region in bytes (power of two).
    pub random_span: u64,
    /// Integer filler ALU ops per iteration.
    pub compute_ops: u32,
    /// Floating-point filler ops per iteration (not EMC-executable).
    pub fp_ops: u32,
    /// Register spill/fill segments per iteration.
    pub spill_segments: u32,
    /// Data-dependent (hard-to-predict) branches per iteration.
    pub noisy_branches: u32,
}

/// Default iteration count cap used by [`crate::build_default`]; sims
/// usually stop on a retired-uop budget first.
pub const DEFAULT_ITERATIONS: u64 = 50_000_000;

fn profile_of(b: Benchmark) -> Profile {
    // Shorthand base profiles.
    let zero = Profile {
        chase_lines: 0,
        payload_lines: 0,
        chase_segments: 0,
        dep_depth: 1,
        interleave_ops: 4,
        stream_segments: 0,
        stream_stride: 64,
        stream_stores: false,
        random_segments: 0,
        random_span: 1 << 26,
        compute_ops: 0,
        fp_ops: 0,
        spill_segments: 0,
        noisy_branches: 0,
    };
    match b {
        // ----- high intensity -----
        // mcf: the pointer-chasing poster child. Highest dependent-miss
        // fraction in Figure 2 (and lowest IPC of the suite).
        Benchmark::Mcf => Profile {
            chase_lines: 128 * 1024,   // 8 MB node region
            payload_lines: 128 * 1024, // 8 MB payload region
            chase_segments: 1,
            dep_depth: 2,
            interleave_ops: 6,
            compute_ops: 8,
            spill_segments: 1,
            noisy_branches: 1,
            ..zero
        },
        // omnetpp: discrete-event simulator; heavy linked structures with
        // a high dependent-miss fraction, some locality.
        Benchmark::Omnetpp => Profile {
            chase_lines: 96 * 1024,
            payload_lines: 64 * 1024,
            chase_segments: 1,
            dep_depth: 1,
            interleave_ops: 6,
            stream_segments: 1,
            stream_stride: 8,
            compute_ops: 14,
            spill_segments: 1,
            noisy_branches: 2,
            ..zero
        },
        // milc: lattice QCD, FP streaming with indexed gathers.
        Benchmark::Milc => Profile {
            chase_lines: 10 * 1024,
            payload_lines: 10 * 1024,
            chase_segments: 1,
            interleave_ops: 5,
            stream_segments: 2,
            stream_stride: 8,
            compute_ops: 10,
            fp_ops: 6,
            ..zero
        },
        // soplex: sparse LP solver; indexed sparse accesses + streams.
        Benchmark::Soplex => Profile {
            chase_lines: 48 * 1024,
            payload_lines: 32 * 1024,
            chase_segments: 1,
            interleave_ops: 4,
            stream_segments: 2,
            stream_stride: 8,
            compute_ops: 12,
            fp_ops: 3,
            spill_segments: 1,
            ..zero
        },
        // sphinx3: speech recognition; mixed gather + streaming.
        Benchmark::Sphinx3 => Profile {
            chase_lines: 14 * 1024,
            payload_lines: 14 * 1024,
            chase_segments: 1,
            interleave_ops: 6,
            stream_segments: 2,
            stream_stride: 8,
            compute_ops: 16,
            fp_ops: 4,
            ..zero
        },
        // bwaves: blast-wave CFD; dominant regular streams, a few indexed
        // accesses, FP heavy.
        Benchmark::Bwaves => Profile {
            chase_lines: 3 * 1024,
            payload_lines: 3 * 1024,
            chase_segments: 1,
            interleave_ops: 4,
            stream_segments: 3,
            stream_stride: 8,
            compute_ops: 6,
            fp_ops: 8,
            ..zero
        },
        // libquantum: quantum simulation; dense sequential sweeps over a
        // huge array, trivially prefetchable, ~zero dependent misses.
        Benchmark::Libquantum => Profile {
            stream_segments: 3,
            stream_stride: 8,
            compute_ops: 4,
            noisy_branches: 0,
            ..zero
        },
        // lbm: lattice Boltzmann; streaming reads AND writes, FP heavy,
        // no dependent misses, saturates bandwidth.
        Benchmark::Lbm => Profile {
            stream_segments: 3,
            stream_stride: 8,
            stream_stores: true,
            compute_ops: 4,
            fp_ops: 6,
            ..zero
        },
        // ----- low intensity -----
        // leslie3d sits just under the MPKI 10 boundary in Table 2.
        Benchmark::Leslie3d => Profile {
            stream_segments: 2,
            stream_stride: 8,
            compute_ops: 18,
            fp_ops: 10,
            ..zero
        },
        Benchmark::GemsFDTD => Profile {
            stream_segments: 2,
            stream_stride: 8,
            compute_ops: 22,
            fp_ops: 12,
            ..zero
        },
        Benchmark::Zeusmp | Benchmark::CactusADM | Benchmark::Wrf => Profile {
            stream_segments: 1,
            stream_stride: 8,
            compute_ops: 24,
            fp_ops: 14,
            spill_segments: 1,
            ..zero
        },
        // xalancbmk/astar/gcc: pointer-y integer codes whose working sets
        // mostly fit: small chase regions that hit in the LLC.
        Benchmark::Xalancbmk | Benchmark::Astar | Benchmark::Gcc => Profile {
            chase_lines: 256, // 16 KB: cache-resident pointer work
            payload_lines: 128,
            chase_segments: 1,
            interleave_ops: 4,
            stream_segments: 1,
            stream_stride: 8,
            compute_ops: 20,
            spill_segments: 1,
            noisy_branches: 3,
            ..zero
        },
        Benchmark::Bzip2 | Benchmark::Hmmer | Benchmark::H264ref => Profile {
            stream_segments: 1,
            stream_stride: 8,
            compute_ops: 28,
            spill_segments: 1,
            noisy_branches: 2,
            ..zero
        },
        Benchmark::Perlbench | Benchmark::Gobmk | Benchmark::Sjeng => Profile {
            chase_lines: 384, // 24 KB: cache-resident pointer work
            payload_lines: 128,
            chase_segments: 1,
            interleave_ops: 4,
            stream_segments: 1,
            stream_stride: 8,
            compute_ops: 26,
            spill_segments: 2,
            noisy_branches: 4,
            ..zero
        },
        // Pure compute: negligible miss traffic.
        Benchmark::Calculix
        | Benchmark::Povray
        | Benchmark::Namd
        | Benchmark::Gamess
        | Benchmark::Tonto
        | Benchmark::Gromacs
        | Benchmark::DealII => Profile {
            compute_ops: 30,
            fp_ops: 16,
            spill_segments: 1,
            noisy_branches: 1,
            ..zero
        },
    }
}

/// The ten heterogeneous quad-core workloads of Table 3.
pub const QUAD_MIXES: [(&str, [Benchmark; 4]); 10] = [
    (
        "H1",
        [
            Benchmark::Bwaves,
            Benchmark::Lbm,
            Benchmark::Milc,
            Benchmark::Omnetpp,
        ],
    ),
    (
        "H2",
        [
            Benchmark::Soplex,
            Benchmark::Omnetpp,
            Benchmark::Bwaves,
            Benchmark::Libquantum,
        ],
    ),
    (
        "H3",
        [
            Benchmark::Sphinx3,
            Benchmark::Mcf,
            Benchmark::Omnetpp,
            Benchmark::Milc,
        ],
    ),
    (
        "H4",
        [
            Benchmark::Mcf,
            Benchmark::Sphinx3,
            Benchmark::Soplex,
            Benchmark::Libquantum,
        ],
    ),
    (
        "H5",
        [
            Benchmark::Lbm,
            Benchmark::Mcf,
            Benchmark::Libquantum,
            Benchmark::Bwaves,
        ],
    ),
    (
        "H6",
        [
            Benchmark::Lbm,
            Benchmark::Soplex,
            Benchmark::Mcf,
            Benchmark::Milc,
        ],
    ),
    (
        "H7",
        [
            Benchmark::Bwaves,
            Benchmark::Libquantum,
            Benchmark::Sphinx3,
            Benchmark::Omnetpp,
        ],
    ),
    (
        "H8",
        [
            Benchmark::Omnetpp,
            Benchmark::Soplex,
            Benchmark::Mcf,
            Benchmark::Bwaves,
        ],
    ),
    (
        "H9",
        [
            Benchmark::Lbm,
            Benchmark::Mcf,
            Benchmark::Libquantum,
            Benchmark::Soplex,
        ],
    ),
    (
        "H10",
        [
            Benchmark::Libquantum,
            Benchmark::Bwaves,
            Benchmark::Soplex,
            Benchmark::Omnetpp,
        ],
    ),
];

/// Look up a Table 3 mix by name ("H1".."H10").
pub fn mix_by_name(name: &str) -> Option<[Benchmark; 4]> {
    QUAD_MIXES.iter().find(|(n, _)| *n == name).map(|(_, m)| *m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_classification_sizes() {
        assert_eq!(Benchmark::HIGH_INTENSITY.len(), 8);
        assert_eq!(Benchmark::LOW_INTENSITY.len(), 21);
        assert_eq!(Benchmark::all().len(), 29);
    }

    #[test]
    fn names_are_unique_and_nonempty() {
        let mut names: Vec<_> = Benchmark::all().iter().map(|b| b.name()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(names.iter().all(|n| !n.is_empty()));
    }

    #[test]
    fn pointer_chasers_have_dependent_misses() {
        for b in [Benchmark::Mcf, Benchmark::Omnetpp] {
            let p = b.profile();
            assert!(p.chase_segments > 0 && p.chase_lines > 0, "{b} must chase");
            // Working set must overflow the 4 MB quad-core LLC.
            assert!(
                p.chase_lines * 64 + p.payload_lines * 64 > 4 << 20,
                "{b} working set"
            );
        }
    }

    #[test]
    fn streamers_have_no_dependent_misses() {
        for b in [Benchmark::Libquantum, Benchmark::Lbm] {
            let p = b.profile();
            assert_eq!(p.chase_segments, 0, "{b} must not chase");
            assert!(p.stream_segments > 0);
        }
        assert!(
            Benchmark::Lbm.profile().stream_stores,
            "lbm writes its streams"
        );
    }

    #[test]
    fn table3_mixes_match_paper() {
        assert_eq!(QUAD_MIXES.len(), 10);
        for (name, mix) in QUAD_MIXES {
            assert_eq!(mix.len(), 4, "{name}");
            // Each benchmark appears only once per mix (paper §5).
            let mut m = mix.to_vec();
            m.sort();
            m.dedup();
            assert_eq!(m.len(), 4, "{name} has duplicates");
            // All mixes draw from the high-intensity set.
            assert!(mix.iter().all(|b| b.is_high_intensity()), "{name}");
        }
        assert_eq!(
            mix_by_name("H4").unwrap(),
            [
                Benchmark::Mcf,
                Benchmark::Sphinx3,
                Benchmark::Soplex,
                Benchmark::Libquantum
            ]
        );
        assert!(mix_by_name("H11").is_none());
    }

    #[test]
    fn fp_benchmarks_carry_fp_ops() {
        for b in [Benchmark::Milc, Benchmark::Bwaves, Benchmark::Lbm] {
            assert!(b.profile().fp_ops > 0, "{b} is an FP benchmark");
        }
        assert_eq!(Benchmark::Mcf.profile().fp_ops, 0, "mcf is integer");
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(format!("{}", Benchmark::Mcf), "mcf");
    }
}
