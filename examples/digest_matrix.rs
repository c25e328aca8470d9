//! The equivalence matrix: 56 small cells over every mechanism the
//! simulator has, one line each —
//!
//! ```text
//! name outcome final-cycle skipped-cycles digest
//! ```
//!
//! where the digest covers the canonical `Stats` JSON and the
//! 1 000-cycle samples, and on the three traced cells every
//! `MissJourney` (with its `ReqId`) and trace event too. Then one line
//! per benchmark for the memory image its workload starts from, in the
//! same five columns —
//!
//! ```text
//! image/<bench> image resident-pages 0 digest
//! ```
//!
//! where the digest covers the resident page count and every 8-byte
//! word of the chase and payload regions of `build(bench, 1,
//! DEFAULT_ITERATIONS)`, read back with `read_u64`. No expected value
//! lives here: a change that claims to move no simulated count copies
//! this file into a checkout of its parent, runs both, and `diff`s the
//! two outputs (DESIGN.md §7). So it uses no API newer than the parent's.
//!
//! Run with: `cargo run --release --example digest_matrix` (~8 s)

use emc_campaign::{digest128_hex, stats_to_json};
use emc_repro::emc_types::Addr;
use emc_repro::emc_workloads::{CHASE_BASE, DEFAULT_ITERATIONS, PAYLOAD_BASE};
use emc_repro::{build, mix_by_name, Benchmark, FaultPlan, PrefetcherKind, SystemConfig};
use emc_sim::{build_system, cycle_cap, eight_core_mix};
use std::fmt::Write;

const PREFETCHERS: [(&str, PrefetcherKind); 4] = [
    ("nopf", PrefetcherKind::None),
    ("stream", PrefetcherKind::Stream),
    ("ghb", PrefetcherKind::Ghb),
    ("markov", PrefetcherKind::MarkovStream),
];

fn run(name: &str, cfg: SystemConfig, benches: &[Benchmark], budget: u64, traced: bool) {
    let mut sys = build_system(cfg, benches).expect("cell builds");
    sys.set_sample_interval(1_000);
    if traced {
        sys.enable_tracing();
    }
    let report = sys.run_with_warmup(budget / 2, budget, cycle_cap(budget));
    let mut text = stats_to_json(&report.stats).to_json();
    write!(text, "{:?}", sys.samples()).unwrap();
    if traced {
        let trace = sys.trace();
        write!(text, "{:?}{:?}", trace.journeys(), trace.events()).unwrap();
    }
    println!(
        "{name} {:?} {} {} {}",
        report.outcome,
        sys.now(),
        sys.skipped_cycles(),
        digest128_hex(text.as_bytes())
    );
}

fn image(bench: Benchmark) {
    let memory = build(bench, 1, DEFAULT_ITERATIONS).memory;
    let p = bench.profile();
    let pages = memory.resident_pages();
    let mut bytes = (pages as u64).to_le_bytes().to_vec();
    for (base, lines) in [(CHASE_BASE, p.chase_lines), (PAYLOAD_BASE, p.payload_lines)] {
        for addr in (base..base + lines * 64).step_by(8) {
            bytes.extend_from_slice(&memory.read_u64(Addr(addr)).to_le_bytes());
        }
    }
    println!(
        "image/{} image {pages} 0 {}",
        bench.name(),
        digest128_hex(&bytes)
    );
}

fn main() {
    let mix = |name: &str| mix_by_name(name).expect("table 3 mix");
    let quad = SystemConfig::quad_core;
    let two_mc = SystemConfig::eight_core_2mc;
    let h4 = mix("H4");

    for m in ["H1", "H4", "H7", "H10"] {
        for (pf_name, pf) in PREFETCHERS {
            let cfg = quad().with_prefetcher(pf);
            run(
                &format!("{m}/{pf_name}/base"),
                cfg.clone().without_emc(),
                &mix(m),
                6_000,
                false,
            );
            run(&format!("{m}/{pf_name}/emc"), cfg, &mix(m), 6_000, false);
        }
    }
    for m in ["H2", "H4", "H9"] {
        let benches = eight_core_mix(mix(m));
        for (sys_name, cfg) in [
            ("1mc", SystemConfig::eight_core_1mc()),
            ("2mc", two_mc()),
            ("2mc-ghb", two_mc().with_prefetcher(PrefetcherKind::Ghb)),
        ] {
            run(
                &format!("8core/{m}/{sys_name}"),
                cfg,
                &benches,
                2_000,
                false,
            );
        }
    }
    run("traced/H4/emc", quad(), &h4, 3_000, true);
    run(
        "traced/H7/stream/emc",
        quad().with_prefetcher(PrefetcherKind::Stream),
        &mix("H7"),
        3_000,
        true,
    );
    run(
        "traced/8core/H4/2mc",
        two_mc(),
        &eight_core_mix(h4),
        2_000,
        true,
    );
    let chaos = FaultPlan::chaos;
    run("chaos/H4", quad().with_faults(chaos()), &h4, 3_000, false);
    run(
        "chaos/8core/H4/2mc-markov",
        two_mc()
            .with_faults(chaos())
            .with_prefetcher(PrefetcherKind::MarkovStream),
        &eight_core_mix(h4),
        2_000,
        false,
    );
    let mut runahead = quad();
    runahead.core.runahead = true;
    run("runahead/H4/emc", runahead.clone(), &h4, 3_000, false);
    run(
        "runahead/H4/base",
        runahead.without_emc(),
        &h4,
        3_000,
        false,
    );
    let mut ideal = quad().without_emc();
    ideal.ideal_dependent_hits = true;
    run("ideal-dependent-hits/H4", ideal, &h4, 3_000, false);
    let mut no_liveness = quad();
    no_liveness.liveness.enabled = false;
    run("liveness-off/H4", no_liveness, &h4, 3_000, false);
    // The default lease never fires in these budgets; 400 cycles does.
    let mut lease = quad();
    lease.liveness.emc_lease = 400;
    run("lease400/H4", lease, &h4, 3_000, false);
    let mut lease = two_mc();
    lease.liveness.emc_lease = 400;
    run(
        "lease400/8core/H4/2mc",
        lease,
        &eight_core_mix(h4),
        2_000,
        false,
    );
    for bench in [
        Benchmark::Mcf,
        Benchmark::Omnetpp,
        Benchmark::Libquantum,
        Benchmark::Lbm,
    ] {
        run(
            &format!("{}x4", bench.name()),
            quad(),
            &[bench; 4],
            6_000,
            false,
        );
    }
    for bench in Benchmark::all() {
        image(bench);
    }
}
