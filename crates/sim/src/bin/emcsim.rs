//! `emcsim` — command-line front end to the full-system simulator.
//!
//! Usage:
//!   emcsim [--mix H4 | --homog mcf] [--cores 4|8] [--mcs 1|2]
//!          [--prefetcher none|ghb|stream|markov|stride] [--no-emc] [--runahead]
//!          [--budget N] [--seed N] [--faults] [--json] [--liveness] [--no-liveness]
//!          [--metrics-out FILE] [--trace-out FILE] [--sample-interval N]
//!          [--profile] [--profile-stride N]
//!
//! Prints a human-readable report with latency percentiles, or with
//! `--json` the full statistics document (`emcsim-metrics-v2`: every
//! counter, histogram summaries and time-series samples) on stdout.
//! `--metrics-out` writes the same document to a file, for any outcome;
//! `--trace-out` writes a Chrome trace-event file loadable in Perfetto.
//! Both are written even for wedged or capped runs, so a bad run still
//! leaves its evidence behind. `--liveness` additionally dumps the
//! per-component liveness probe snapshot on any non-completed outcome.
//! `--profile` prints a host-side wall-time breakdown of the tick
//! phases (stderr), sampling one tick in `--profile-stride` (default
//! 64).
//!
//! Exit codes: 0 on a completed run, 2 on bad arguments. A run that
//! does not complete exits with its wedge root-cause class — 10
//! mc-starvation, 11 emc-context-leak, 12 ring-backpressure, 13
//! core-deadlock, 14 slow-but-live — falling back to 3 (wedged) or 4
//! (cycle-cap hit) when no class was captured.

use emc_sim::{
    build_system, cycle_cap, eight_core_mix, metrics_json, RunOutcome, ThroughputMeter,
    DEFAULT_PROFILE_STRIDE,
};
use emc_types::{FaultPlan, Histogram, LivenessConfig, PrefetcherKind, SystemConfig, WedgeClass};
use emc_workloads::{mix_by_name, Benchmark};
use std::io::Write;

const EXIT_BAD_ARGS: i32 = 2;
const EXIT_WEDGED: i32 = 3;
const EXIT_CAP_HIT: i32 = 4;
const EXIT_MC_STARVATION: i32 = 10;
const EXIT_EMC_CONTEXT_LEAK: i32 = 11;
const EXIT_RING_BACKPRESSURE: i32 = 12;
const EXIT_CORE_DEADLOCK: i32 = 13;
const EXIT_SLOW_BUT_LIVE: i32 = 14;

/// Exit code for a classified non-completed run (one code per
/// [`WedgeClass`], so scripts can dispatch without parsing stderr).
fn class_exit_code(class: &WedgeClass) -> i32 {
    match class {
        WedgeClass::McStarvation { .. } => EXIT_MC_STARVATION,
        WedgeClass::EmcContextLeak { .. } => EXIT_EMC_CONTEXT_LEAK,
        WedgeClass::RingBackpressure { .. } => EXIT_RING_BACKPRESSURE,
        WedgeClass::CoreDeadlock { .. } => EXIT_CORE_DEADLOCK,
        WedgeClass::SlowButLive => EXIT_SLOW_BUT_LIVE,
    }
}

fn usage() {
    eprintln!(
        "usage: emcsim [--mix H1..H10 | --homog <bench>] [--cores 4|8] [--mcs 1|2]\n\
         \t[--prefetcher none|ghb|stream|markov|stride] [--no-emc] [--runahead]\n\
         \t[--budget N] [--seed N] [--faults] [--json] [--liveness] [--no-liveness]\n\
         \t[--metrics-out FILE] [--trace-out FILE] [--sample-interval N]\n\
         \t[--profile] [--profile-stride N]\n\
         --json prints the emcsim-metrics-v2 document on stdout, as --metrics-out writes it"
    );
}

/// Report a bad argument by name and exit with the bad-args code.
fn bad_args(msg: &str) -> ! {
    eprintln!("emcsim: error: {msg}");
    usage();
    std::process::exit(EXIT_BAD_ARGS)
}

/// The value following `flag`, or a bad-args exit naming the flag.
fn require_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| bad_args(&format!("{flag} requires a value")))
}

/// Parse the value following `flag` as an integer, naming both the flag
/// and the offending value on failure.
fn parse_value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let v = require_value(args, flag);
    v.parse()
        .unwrap_or_else(|_| bad_args(&format!("{flag}: expected a number, got {v:?}")))
}

/// One row of the latency percentile table.
fn latency_row(label: &str, h: &Histogram) -> String {
    format!(
        "{label:<16} {:>8} {:>8} {:>8} {:>8} {:>8.0}",
        h.p50(),
        h.p95(),
        h.p99(),
        h.max,
        h.mean()
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut mix_name = "H4".to_string();
    let mut homog: Option<String> = None;
    let mut cores = 4usize;
    let mut mcs = 1usize;
    let mut pf = PrefetcherKind::None;
    let mut emc = true;
    let mut runahead = false;
    let mut budget = 30_000u64;
    let mut seed = 0x00c0_ffeeu64;
    let mut faults = false;
    let mut json = false;
    let mut liveness = false;
    let mut no_liveness = false;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut sample_interval: Option<u64> = None;
    let mut profile_stride: Option<u32> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--mix" => mix_name = require_value(&mut args, "--mix"),
            "--homog" => homog = Some(require_value(&mut args, "--homog")),
            "--cores" => cores = parse_value(&mut args, "--cores"),
            "--mcs" => mcs = parse_value(&mut args, "--mcs"),
            "--prefetcher" => {
                let v = require_value(&mut args, "--prefetcher");
                pf = match v.as_str() {
                    "none" => PrefetcherKind::None,
                    "ghb" => PrefetcherKind::Ghb,
                    "stream" => PrefetcherKind::Stream,
                    "markov" => PrefetcherKind::MarkovStream,
                    "stride" => PrefetcherKind::Stride,
                    _ => bad_args(&format!(
                        "--prefetcher: unknown kind {v:?} (expected none|ghb|stream|markov|stride)"
                    )),
                }
            }
            "--no-emc" => emc = false,
            "--runahead" => runahead = true,
            "--budget" => budget = parse_value(&mut args, "--budget"),
            "--seed" => seed = parse_value(&mut args, "--seed"),
            "--faults" => faults = true,
            "--json" => json = true,
            "--liveness" => liveness = true,
            "--no-liveness" => no_liveness = true,
            "--metrics-out" => metrics_out = Some(require_value(&mut args, "--metrics-out")),
            "--trace-out" => trace_out = Some(require_value(&mut args, "--trace-out")),
            "--sample-interval" => {
                sample_interval = Some(parse_value(&mut args, "--sample-interval"))
            }
            "--profile" => profile_stride = profile_stride.or(Some(DEFAULT_PROFILE_STRIDE)),
            "--profile-stride" => profile_stride = Some(parse_value(&mut args, "--profile-stride")),
            other => bad_args(&format!("unknown flag {other:?}")),
        }
    }
    let mut cfg = match (cores, mcs) {
        (4, 1) => SystemConfig::quad_core(),
        (8, 1) => SystemConfig::eight_core_1mc(),
        (8, 2) => SystemConfig::eight_core_2mc(),
        _ => bad_args(&format!(
            "--cores {cores} --mcs {mcs}: unsupported combination (use 4/1, 8/1 or 8/2)"
        )),
    };
    cfg = cfg.with_prefetcher(pf);
    cfg.emc.enabled = emc;
    cfg.core.runahead = runahead;
    cfg.seed = seed;
    if faults {
        cfg.faults = FaultPlan::chaos();
    }
    if no_liveness {
        cfg.liveness = LivenessConfig::disabled();
    }

    let benches: Vec<Benchmark> = match &homog {
        Some(name) => {
            let b = Benchmark::all()
                .into_iter()
                .find(|b| b.name() == name)
                .unwrap_or_else(|| bad_args(&format!("--homog: unknown benchmark {name:?}")));
            vec![b; cores]
        }
        None => {
            let quad = mix_by_name(&mix_name)
                .unwrap_or_else(|| bad_args(&format!("--mix: unknown mix {mix_name:?}")));
            if cores == 8 {
                eight_core_mix(quad)
            } else {
                quad.to_vec()
            }
        }
    };
    let names: Vec<&str> = benches.iter().map(|b| b.name()).collect();
    eprintln!(
        "# {cores}-core, {mcs} MC, prefetcher {}, EMC {}, runahead {}, budget {budget}{}",
        pf.label(),
        emc,
        runahead,
        if faults { ", fault injection ON" } else { "" }
    );
    eprintln!("# workload: {}", names.join("+"));

    let mut sys = build_system(cfg, &benches).unwrap_or_else(|e| bad_args(&e.to_string()));
    if trace_out.is_some() {
        sys.enable_tracing();
    }
    if let Some(iv) = sample_interval {
        sys.set_sample_interval(iv);
    }
    if let Some(stride) = profile_stride {
        sys.enable_profiling(stride);
    }
    let meter = ThroughputMeter::new();
    let report = sys.run_with_warmup(budget / 2, budget, cycle_cap(budget));
    let throughput = meter.finish(
        sys.now(),
        report.stats.cores.iter().map(|c| c.retired_uops).sum(),
    );

    // Host-performance breakdown goes to stderr so it composes with
    // --json on stdout.
    if let Some(stride) = profile_stride {
        let prof = sys.profile_report();
        eprintln!(
            "# host: {:.2} Mcycles/s, {:.2} Muops/s (wall {:.2}s, profile stride {stride})",
            throughput.cycles_per_sec() / 1e6,
            throughput.uops_per_sec() / 1e6,
            throughput.wall_nanos as f64 / 1e9,
        );
        for line in prof.table().lines() {
            eprintln!("#   {line}");
        }
        eprintln!(
            "#   (ticks are executed ticks: {} of {} cycles, {:.1} %, were jumped over)",
            sys.skipped_cycles(),
            sys.now(),
            100.0 * sys.skipped_cycles() as f64 / sys.now().max(1) as f64
        );
    }

    // Exporters run before outcome handling: a wedged or capped run
    // still writes its metrics and trace for post-mortem inspection.
    let names = &sys.bench_names;
    let metrics = || metrics_json(&report.stats, names, report.outcome, sys.samples());
    if let Some(path) = &metrics_out {
        std::fs::write(path, metrics().to_json() + "\n")
            .unwrap_or_else(|e| bad_args(&format!("--metrics-out {path}: {e}")));
        eprintln!("# metrics written to {path}");
    }
    if let Some(path) = &trace_out {
        let f = std::fs::File::create(path)
            .unwrap_or_else(|e| bad_args(&format!("--trace-out {path}: {e}")));
        let mut w = std::io::BufWriter::new(f);
        sys.trace()
            .write_chrome_trace(&mut w)
            .and_then(|()| w.flush())
            .unwrap_or_else(|e| bad_args(&format!("--trace-out {path}: {e}")));
        eprintln!(
            "# trace written to {path} ({} events, {} journeys, {} dropped)",
            sys.trace().events().len(),
            sys.trace().journeys().len(),
            sys.trace().dropped()
        );
    }

    match report.outcome {
        RunOutcome::Completed => {}
        outcome => {
            match outcome {
                RunOutcome::Wedged => {
                    eprintln!("emcsim: run WEDGED — no forward progress");
                    match &report.wedge {
                        Some(w) => eprintln!("{w}"),
                        None => eprintln!("(no wedge report captured)"),
                    }
                }
                _ => {
                    let progress: Vec<u64> =
                        report.stats.cores.iter().map(|c| c.retired_uops).collect();
                    eprintln!(
                        "emcsim: cycle cap hit after {} cycles before every core reached its \
                         budget; per-core retired uops: {progress:?}",
                        report.stats.cycles
                    );
                }
            }
            if let Some(class) = &report.class {
                eprintln!("emcsim: root cause: {class}");
            }
            if liveness {
                match &report.liveness {
                    Some(snap) => eprintln!("emcsim: liveness probes:\n{}", snap.summary()),
                    None => eprintln!("emcsim: liveness probes: (no snapshot captured)"),
                }
            }
            let code = report.class.as_ref().map(class_exit_code).unwrap_or(
                if outcome == RunOutcome::Wedged {
                    EXIT_WEDGED
                } else {
                    EXIT_CAP_HIT
                },
            );
            std::process::exit(code);
        }
    }
    if json {
        println!("{}", metrics().to_json());
        return;
    }
    let stats = report.stats;
    println!(
        "{:<12} {:>8} {:>8} {:>10} {:>8}",
        "core", "IPC", "MPKI", "dep-miss%", "chains"
    );
    for (i, c) in stats.cores.iter().enumerate() {
        println!(
            "{:<12} {:>8.3} {:>8.1} {:>9.1}% {:>8}",
            names[i],
            c.ipc(),
            c.mpki(),
            100.0 * c.dependent_miss_fraction(),
            c.chains_sent
        );
    }
    println!();
    println!("cycles: {}", stats.cycles);
    println!(
        "DRAM reads/writes/prefetches: {}/{}/{}",
        stats.mem.dram_reads, stats.mem.dram_writes, stats.mem.dram_prefetches
    );
    println!(
        "row conflict rate: {:.1}%",
        100.0 * stats.mem.row_conflict_rate()
    );
    let lease_aborts: u64 = stats.cores.iter().map(|c| c.chains_aborted_lease).sum();
    println!(
        "escalated requests: {} · lease-aborted chains: {}",
        stats.mem.escalated_requests, lease_aborts
    );
    println!();
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "latency (cyc)", "p50", "p95", "p99", "max", "mean"
    );
    println!("{}", latency_row("core miss", &stats.mem.core_miss_latency));
    if emc {
        println!("{}", latency_row("emc miss", &stats.mem.emc_miss_latency));
    }
    println!(
        "{}",
        latency_row("dram service", &stats.mem.dram_service_latency)
    );
    println!(
        "{}",
        latency_row("mc queue", &stats.mem.core_queue_component)
    );
    println!("{}", latency_row("on-chip delay", &stats.mem.on_chip_delay));
    if emc {
        println!();
        println!(
            "EMC: {} chains, {:.1} uops/chain, {:.1}% of misses, dcache hit {:.1}%",
            stats.emc.chains_executed,
            stats.mean_chain_uops(),
            100.0 * stats.emc_miss_fraction(),
            100.0 * stats.emc.dcache_hit_rate()
        );
        println!(
            "{}",
            latency_row("chain (ship→done)", &stats.emc.chain_latency)
        );
        if faults {
            let injected: u64 = stats.cores.iter().map(|c| c.chains_aborted_injected).sum();
            let quiesces: u64 = stats.cores.iter().map(|c| c.emc_quiesce_events).sum();
            println!(
                "faults: {} ring delays, {} ECC re-issues, {} backpressure storms, \
                 {} chains killed, {} EMC quiesce events",
                stats.ring.injected_delays,
                stats.mem.ecc_reissues,
                stats.mem.backpressure_storms,
                injected,
                quiesces
            );
        }
    }
}
