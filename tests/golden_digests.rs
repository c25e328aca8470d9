//! Golden digests: the canonical `Stats` JSON of the benchmark's three
//! simulator cells (`benchmark/src/workload.rs`, seed 1, full budget)
//! hashes to a committed value. A host-only change leaves them alone; a
//! change that moves a simulated count edits the table below in the same
//! commit, and nothing else: CI's `benchmark-gate` job reads its expected
//! `# stats digest` lines out of this file.
//!
//! The same sixteen runs, made once, also show that every declared
//! statistic counts in some cell, or says why it cannot.
//!
//! The encoding goldens below need no simulation. A struct's declaration
//! order is its key order on the wire (`json_struct!`), so reordering or
//! renaming a field of a config, stats, result, manifest or service
//! struct would orphan every cache entry, manifest and journal already
//! on disk; these bytes are what makes that loud.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use emc_campaign::{
    config_json, digest128_hex, run_result_to_json, stats_to_json, JobKey, Manifest, RunResult,
};
use emc_energy::EnergyBreakdown;
use emc_sim::{build_system, cycle_cap, eight_core_mix};
use emc_types::rng::substream;
use emc_types::{
    FaultPlan, FromJson, HistSummary, JsonValue, PrefetcherKind, Stats, StatsView, SubmitRequest,
    SystemConfig,
};
use emc_workloads::mix_by_name;
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

/// The `Stats` a cell ends with.
fn run(cfg: SystemConfig, benches: &[Benchmark], budget: u64) -> Stats {
    let mut sys = build_system(cfg, benches).expect("pinned cell builds");
    sys.run_with_warmup(budget / 2, budget, cycle_cap(budget))
        .stats
}

/// Digest of the canonical `Stats` JSON.
fn digest(stats: &Stats) -> String {
    digest128_hex(stats_to_json(stats).to_json().as_bytes())
}

/// The `GOLDEN` cells, run once for every test that reads them.
fn golden_runs() -> &'static [Stats] {
    static RUNS: OnceLock<Vec<Stats>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let runs = GOLDEN.iter().map(|&(workload, _)| {
            let (cfg, benches, base) = cell(workload);
            run(cfg, &benches, base + substream(1, 0) % (base / 64))
        });
        runs.collect()
    })
}

#[test]
fn benchmark_cells_hash_to_the_committed_digests() {
    for ((workload, golden), stats) in GOLDEN.into_iter().zip(golden_runs()) {
        assert_eq!(digest(stats), golden, "{workload}: a simulated count moved");
    }
}

/// What the three cells above cannot see (ROADMAP 3(a)): every
/// prefetcher with and without the EMC, two memory controllers (the
/// only cells in which EMC data crosses the ring between controllers,
/// so the only ones that notice the order merged EMC loads and the load
/// that issued the fetch are served in), every fault generator, and
/// runahead. Mix H4 throughout, the default seed, small budgets. The
/// names have capitals and spaces so that CI's `sed` over `GOLDEN`
/// passes them by. In 4 500 uops per core the Markov half of
/// Markov+Stream changes no count, so those two rows equal the Stream
/// rows. At the default lease (32 768 cycles) no cell kills a context,
/// so the last two rows shorten it to 400: 24 and 118 lease kills, the
/// only witnesses of when a context's lease clock restarts.
const CELLS: [(&str, &str); 13] = [
    ("H4 No-PF", "3f2444aaf2e2c836409193435a469953"),
    ("H4 No-PF +EMC", "262d9135a3ab2b2df848858495c17104"),
    ("H4 Stream", "393ea2231f74ba5e7be662109227b2da"),
    ("H4 Stream +EMC", "ed6c11f747a1419ab2c1292ba3ad9dab"),
    ("H4 GHB", "f5523ee8676572262c78317ee513a332"),
    ("H4 GHB +EMC", "44f1d323f07a4cf365b991a4d5ab361e"),
    ("H4 Markov+Stream", "393ea2231f74ba5e7be662109227b2da"),
    ("H4 Markov+Stream +EMC", "ed6c11f747a1419ab2c1292ba3ad9dab"),
    ("H4 x2, 2 MCs", "eea90a5b81b6697926a4cf45ae371657"),
    ("H4 Chaos", "d8729bf4fcb0537b25e82e236721fbc0"),
    ("H4 Runahead", "b4ce045b9c4e154e0240f93724ad94a0"),
    ("H4 lease 400", "a81e605981d81cf35e3cc8b32132ba4d"),
    (
        "H4 x2, 2 MCs, lease 400",
        "a3f0f88664ab98267f133bd0306ad5e8",
    ),
];

/// The `CELLS`, run once for every test that reads them.
fn small_runs() -> &'static [Stats] {
    static RUNS: OnceLock<Vec<Stats>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let cells = small_cells();
        assert_eq!(cells.len(), CELLS.len());
        let runs = cells
            .into_iter()
            .map(|(cfg, benches, budget)| run(cfg, &benches, budget));
        runs.collect()
    })
}

fn small_cells() -> Vec<(SystemConfig, Vec<Benchmark>, u64)> {
    let h4 = mix_by_name("H4").unwrap();
    let quad = SystemConfig::quad_core;
    let mut runahead = quad().without_emc();
    runahead.core.runahead = true;
    let mut cells = Vec::new();
    for pf in [
        PrefetcherKind::None,
        PrefetcherKind::Stream,
        PrefetcherKind::Ghb,
        PrefetcherKind::MarkovStream,
    ] {
        cells.push((quad().without_emc().with_prefetcher(pf), h4.to_vec(), 3_000));
        cells.push((quad().with_prefetcher(pf), h4.to_vec(), 3_000));
    }
    cells.push((SystemConfig::eight_core_2mc(), eight_core_mix(h4), 2_000));
    cells.push((quad().with_faults(FaultPlan::chaos()), h4.to_vec(), 3_000));
    cells.push((runahead, h4.to_vec(), 3_000));
    let mut lease = quad();
    lease.liveness.emc_lease = 400;
    cells.push((lease, h4.to_vec(), 3_000));
    let mut lease = SystemConfig::eight_core_2mc();
    lease.liveness.emc_lease = 400;
    cells.push((lease, eight_core_mix(h4), 2_000));
    cells
}

#[test]
fn small_cells_hash_to_the_committed_digests() {
    for ((name, golden), stats) in CELLS.into_iter().zip(small_runs()) {
        assert_eq!(digest(stats), golden, "{name}: a simulated count moved");
    }
}

/// The statistics no `GOLDEN` or `CELLS` run counts, by their path in
/// the metrics view (`emcsim --metrics-out`, core index dropped), and
/// why. A statistic that starts counting must leave the list.
const NEVER_COUNTED: [(&str, &str); 4] = [
    (
        "cores.chains_aborted_branch",
        "the core's side of emc.branch_mispredicts_detected",
    ),
    (
        "emc.branch_mispredicts_detected",
        "no chain branch resolves against its prediction in these cells, \
         quad_h4_emc's mcf included; cause unverified",
    ),
    (
        "emc.chains_rejected_busy",
        "unreachable: the System ships a chain only to a free context \
         (DESIGN.md §5 item 12)",
    ),
    (
        "emc.stores_executed",
        "no chain in these cells holds a register-spill store; cause unverified",
    ),
];

/// Fold a metrics view into `path -> counted`, the core index dropped: a
/// histogram is one statistic (counted once it has a sample), and so is
/// a vector of counters.
fn fold_counted(view: &JsonValue, path: &str, counted: &mut BTreeMap<String, bool>) {
    let nonzero = |v: &JsonValue| v.as_f64() != Some(0.0);
    let count = match view {
        JsonValue::Obj(_) if HistSummary::from_json_value(view).is_ok() => {
            nonzero(view.get("count").unwrap())
        }
        JsonValue::Obj(fields) => {
            for (key, v) in fields {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                fold_counted(v, &sub, counted);
            }
            return;
        }
        JsonValue::Arr(items) if matches!(items.first(), Some(JsonValue::Obj(_))) => {
            for core in items {
                fold_counted(core, path, counted);
            }
            return;
        }
        JsonValue::Arr(items) => items.iter().any(nonzero),
        leaf => nonzero(leaf),
    };
    *counted.entry(path.to_string()).or_default() |= count;
}

#[test]
fn every_statistic_counts_in_some_cell() {
    let mut counted = BTreeMap::new();
    for stats in golden_runs().iter().chain(small_runs()) {
        fold_counted(&stats.view(), "", &mut counted);
    }
    let silent: Vec<&str> = (counted.iter())
        .filter(|(_, &c)| !c)
        .map(|(path, _)| path.as_str())
        .collect();
    let allowed: Vec<&str> = NEVER_COUNTED.iter().map(|&(path, _)| path).collect();
    assert_eq!(
        silent,
        allowed,
        "every statistic must count in some cell or be listed in NEVER_COUNTED \
         with a reason ({} statistics)",
        counted.len()
    );
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
