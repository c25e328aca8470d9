//! Golden digests: the canonical `Stats` JSON of the benchmark's three
//! simulator cells (`benchmark/src/workload.rs`, seed 1, full budget)
//! hashes to a committed value. A host-only change leaves them alone; a
//! change that moves a simulated count edits the table below in the same
//! commit, and nothing else: CI's `benchmark-gate` job reads its expected
//! `# stats digest` lines out of this file.

use emc_campaign::{digest128_hex, stats_to_json};
use emc_sim::{build_system, cycle_cap};
use emc_types::rng::substream;
use emc_types::{PrefetcherKind, SystemConfig};
use emc_workloads::Benchmark::{self, *};

/// Workload name and digest, one pair per line (CI matches the lines).
const GOLDEN: [(&str, &str); 3] = [
    ("quad_h4_emc", "b51f6b9397439b9aae9dfe66c5e532a0"),
    ("stream_rw", "cb31b5b092bc6c9af3f32530d0b8b0e3"),
    ("compute_core", "48efdb2a73dc22ec6fd9e87ed7d817a0"),
];

fn cell(workload: &str) -> (SystemConfig, [Benchmark; 4], u64) {
    let quad = SystemConfig::quad_core();
    match workload {
        "quad_h4_emc" => (quad, [Mcf, Sphinx3, Soplex, Libquantum], 12_000),
        "stream_rw" => (
            quad.without_emc().with_prefetcher(PrefetcherKind::Stream),
            [Libquantum, Lbm, Libquantum, Lbm],
            70_000,
        ),
        "compute_core" => (quad, [Povray, Namd, Gamess, Calculix], 160_000),
        other => panic!("no cell named {other}"),
    }
}

#[test]
fn benchmark_cells_hash_to_the_committed_digests() {
    for (workload, golden) in GOLDEN {
        let (cfg, benches, base) = cell(workload);
        let budget = base + substream(1, 0) % (base / 64);
        let mut sys = build_system(cfg, &benches).expect("pinned cell builds");
        let report = sys.run_with_warmup(budget / 2, budget, cycle_cap(budget));
        let digest = digest128_hex(stats_to_json(&report.stats).to_json().as_bytes());
        assert_eq!(digest, golden, "{workload}: a simulated count moved");
    }
}
