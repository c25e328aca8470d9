//! Golden digests: the canonical `Stats` JSON of the benchmark's three
//! simulator cells (`benchmark/src/workload.rs`, seed 1, full budget)
//! hashes to a committed value. A host-only change leaves them alone; a
//! change that moves a simulated count edits the table below in the same
//! commit, and nothing else: CI's `benchmark-gate` job reads its expected
//! `# stats digest` lines out of this file.
//!
//! The encoding goldens below need no simulation. A struct's declaration
//! order is its key order on the wire (`json_struct!`), so reordering or
//! renaming a field of a config, stats, result, manifest or service
//! struct would orphan every cache entry, manifest and journal already
//! on disk; these bytes are what makes that loud.

use emc_campaign::{
    config_json, digest128_hex, run_result_to_json, stats_to_json, JobKey, Manifest, RunResult,
};
use emc_energy::EnergyBreakdown;
use emc_sim::{build_system, cycle_cap};
use emc_types::rng::substream;
use emc_types::{FaultPlan, PrefetcherKind, Stats, SubmitRequest, SystemConfig};
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

#[test]
fn encodings_are_the_committed_bytes() {
    let mut chaos = SystemConfig::eight_core_2mc()
        .with_faults(FaultPlan::chaos())
        .with_prefetcher(PrefetcherKind::MarkovStream);
    chaos.liveness.enabled = false;

    let mut stats = Stats::new(2);
    stats.cycles = 1_234_567;
    stats.cores[0].retired_uops = 30_000;
    stats.cores[0].record_chain_length(5);
    stats.cores[1].stall_episodes.record(1024);
    stats.mem.core_miss_latency.record(300);
    // Saturates the sum: pins the string branch of the u64 encoding.
    stats.mem.core_miss_latency.record(u64::MAX);
    stats.ring.total_hops = 1 << 53;
    let energy = EnergyBreakdown {
        core_dynamic_j: 0.125,
        emc_dynamic_j: 1e-9,
        ..Default::default()
    };
    let result = RunResult {
        workload: "H4".into(),
        prefetcher: "GHB".into(),
        emc: true,
        stats,
        energy,
        ipcs: vec![0.75, 0.5],
    };

    // Digest and length of each document's compact text.
    for (what, text, golden) in [
        (
            "quad config",
            config_json(&SystemConfig::quad_core()).to_json(),
            ("6e9cd479904b98618abf32e890f4a4f7", 1524),
        ),
        (
            "chaos config",
            config_json(&chaos).to_json(),
            ("716b4da9f542edbfdb2d816533e25da0", 1552),
        ),
        (
            "run result",
            run_result_to_json(&result).to_json(),
            ("5ee5b7f1b407ead89da27bf2ec0b9a91", 3491),
        ),
    ] {
        let digest = digest128_hex(text.as_bytes());
        assert_eq!((&*digest, text.len()), golden, "{what} moved: {text}");
    }

    let jobs = [(JobKey(format!("{:032x}", 7)), "H1".to_string())];
    assert_eq!(
        Manifest::fresh("golden", &jobs).to_json().to_json(),
        concat!(
            r#"{"schema":"emc-campaign-manifest-v1","name":"golden","#,
            r#""id":"d9179894b13df8ff2fd1b593ceed7dfd","total":1,"done":0,"jobs":["#,
            r#"{"key":"00000000000000000000000000000007","label":"H1","status":"pending","#,
            r#""attempts":0,"outcome":"","wall_ms":0,"sim_cycles":0}]}"#
        )
    );

    let mut req = SubmitRequest::new("alice", "quad");
    req.repeat = 3;
    req.prefetcher = Some("GHB".into());
    assert_eq!(
        req.to_json().to_json(),
        r#"{"schema":"emc-campaignd-v1","tenant":"alice","name":"","suite":"quad","budget":0,"seed_bump":0,"repeat":3,"prefetcher":"GHB"}"#
    );
}
