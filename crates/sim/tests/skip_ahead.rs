//! `run_with_warmup` jumps over the cycles in which nothing can happen
//! and lets idle components sleep; a system that is ticked through every
//! single cycle must end in exactly the same place.

use emc_sim::{build_system, cycle_cap, eight_core_mix, System};
use emc_types::{FaultPlan, PrefetcherKind, RunOutcome, RunReport, SystemConfig, ToJson};
use emc_workloads::{mix_by_name, Benchmark};

fn all_retired(sys: &System, budget: u64) -> bool {
    (0..sys.cfg().cores).all(|c| {
        let core = sys.core(c);
        core.stats.retired_uops >= budget || core.finished_at().is_some()
    })
}

/// `run_with_warmup(warmup, budget, ..)` out of public parts that never
/// jump: `tick` for every cycle, and runs too short to have a second
/// tick (a run never jumps to its first).
fn run_ticking_every_cycle(sys: &mut System, warmup: u64, budget: u64) -> RunReport {
    while !all_retired(sys, warmup) {
        sys.tick(u64::MAX);
    }
    // No warm-up left to do, so this discards the statistics and ticks
    // the measured phase's first cycle.
    let _ = sys.run_with_warmup(0, budget, sys.now() + 1);
    while !all_retired(sys, budget) {
        sys.tick(budget);
    }
    let report = sys.run(budget, sys.now());
    assert_eq!(sys.skipped_cycles(), 0);
    report
}

/// Run the cell both ways, hold every observable end state equal, and
/// return the share of cycles the jumping run left out.
fn check(name: &str, cfg: SystemConfig, benches: &[Benchmark], budget: u64) -> f64 {
    let mut jumping = build_system(cfg.clone(), benches).expect("cell builds");
    let mut ticking = build_system(cfg, benches).expect("cell builds");
    for sys in [&mut jumping, &mut ticking] {
        sys.set_sample_interval(1_000);
    }
    let got = jumping.run_with_warmup(budget / 2, budget, cycle_cap(budget));
    let expect = run_ticking_every_cycle(&mut ticking, budget / 2, budget);
    assert_eq!(got.outcome, RunOutcome::Completed, "{name}");
    assert_eq!(expect.outcome, RunOutcome::Completed, "{name}");
    assert_eq!(jumping.now(), ticking.now(), "{name}: final cycle");
    assert_eq!(
        got.stats.to_json_value().to_json(),
        expect.stats.to_json_value().to_json(),
        "{name}: statistics"
    );
    let samples = jumping.samples().iter().zip(ticking.samples());
    if let Some((got, expect)) = samples.clone().find(|(a, b)| a != b) {
        panic!("{name}: sample {got:?}, ticked {expect:?}");
    }
    assert_eq!(samples.len(), ticking.samples().len(), "{name}: samples");
    assert!(jumping.samples().len() > 3, "{name}: sampled");
    assert_eq!(
        jumping.post_mortem(),
        ticking.post_mortem(),
        "{name}: post-mortem"
    );
    for c in 0..jumping.cfg().cores {
        assert_eq!(
            format!("{:?}", jumping.core(c).stats),
            format!("{:?}", ticking.core(c).stats),
            "{name}: core {c}'s own counters"
        );
        assert_eq!(
            jumping.core(c).committed_regs(),
            ticking.core(c).committed_regs(),
            "{name}: core {c}'s registers"
        );
    }
    jumping.skipped_cycles() as f64 / jumping.now() as f64
}

/// The eight fig12 cells of mix H4: four prefetchers, EMC off and on.
#[test]
fn fig12_h4_cells_end_where_ticked_ones_do() {
    let mix = mix_by_name("H4").unwrap();
    for pf in [
        PrefetcherKind::None,
        PrefetcherKind::Stream,
        PrefetcherKind::Ghb,
        PrefetcherKind::MarkovStream,
    ] {
        for emc in [false, true] {
            let mut cfg = SystemConfig::quad_core().with_prefetcher(pf);
            if !emc {
                cfg = cfg.without_emc();
            }
            let skipped = check(&format!("H4 {pf:?} emc={emc}"), cfg, &mix, 3_000);
            if pf == PrefetcherKind::None {
                // The cells skip-ahead is for, the baseline as much as
                // the EMC: were nothing skipped, this test would hold
                // vacuously.
                assert!(
                    skipped > 0.20,
                    "emc={emc}: skipped {:.1} %",
                    100.0 * skipped
                );
            }
        }
    }
}

#[test]
fn streaming_cell_with_ghb_ends_where_a_ticked_one_does() {
    use Benchmark::*;
    let cfg = SystemConfig::quad_core()
        .without_emc()
        .with_prefetcher(PrefetcherKind::Ghb);
    check(
        "stream+GHB",
        cfg,
        &[Libquantum, Lbm, Libquantum, Lbm],
        6_000,
    );
}

#[test]
fn runahead_cell_ends_where_a_ticked_one_does() {
    let mut cfg = SystemConfig::quad_core().without_emc();
    cfg.core.runahead = true;
    check("runahead", cfg, &mix_by_name("H4").unwrap(), 3_000);
}

#[test]
fn eight_core_two_mc_cell_ends_where_a_ticked_one_does() {
    let benches = eight_core_mix(mix_by_name("H4").unwrap());
    check(
        "8 cores, 2 MCs",
        SystemConfig::eight_core_2mc(),
        &benches,
        2_000,
    );
}

/// The EMC-kill and MC-storm generators draw every cycle, so a faulted
/// run may not leave a cycle out.
#[test]
fn faulted_cell_never_jumps() {
    let cfg = SystemConfig::quad_core().with_faults(FaultPlan::chaos());
    let skipped = check("chaos", cfg, &mix_by_name("H4").unwrap(), 3_000);
    assert_eq!(skipped, 0.0);
}
