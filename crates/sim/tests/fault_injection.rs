//! Chaos tests for the fault-injection layer: under arbitrary (valid)
//! fault plans the simulator still terminates, still produces the same
//! architectural state as a fault-free run (faults are timing-only),
//! and remains bit-identical across reruns with the same seed. Plus
//! run-outcome reporting: starved runs report `CapHit`, never a silent
//! truncation.

use emc_sim::{build_system, cycle_cap, BuildError, RunOutcome, System};
use emc_types::rng::{for_each_case, SmallRng};
use emc_types::{FaultPlan, Stats, SystemConfig, WedgeClass};
use emc_workloads::{build, Benchmark, SPILL_BASE};

/// Architectural fingerprint of a finished run: retired counts, final
/// committed registers, and the spill words every benchmark writes.
type ArchState = (Vec<u64>, Vec<[u64; 16]>, Vec<u64>);

/// Run four copies of mcf to completion (small iteration count) under
/// `faults` and return the architectural state plus statistics.
fn run_to_completion(faults: FaultPlan, iters: u64) -> (ArchState, Stats) {
    run_storm(faults, |_| {}, iters, 1)
}

/// [`run_to_completion`] with a config tweak (liveness thresholds) and
/// an explicit cycle-cap multiplier: storm scenarios legitimately need
/// more wall-clock than a clean run, so they get 10× the normal cap and
/// must still terminate — via liveness escalation, not luck.
fn run_storm(
    faults: FaultPlan,
    tweak: impl FnOnce(&mut SystemConfig),
    iters: u64,
    cap_mult: u64,
) -> (ArchState, Stats) {
    let mut cfg = SystemConfig::quad_core();
    cfg.faults = faults;
    tweak(&mut cfg);
    let workloads: Vec<_> = (0..4)
        .map(|i| build(Benchmark::Mcf, 50 + i, iters))
        .collect();
    let mut sys = System::new(cfg, workloads).expect("build system");
    let report = sys.run(u64::MAX, cycle_cap(100_000) * cap_mult);
    assert_eq!(
        report.outcome,
        RunOutcome::Completed,
        "faulty run must still terminate: {:?}",
        report.post_mortem
    );
    let stats = report.stats;
    let retired = stats.cores.iter().map(|c| c.retired_uops).collect();
    let regs = (0..4).map(|c| *sys.core(c).committed_regs()).collect();
    let mem = (0..4)
        .flat_map(|c| (0..8).map(move |k| (c, k)))
        .map(|(c, k)| {
            sys.core(c)
                .mem
                .read_u64(emc_types::Addr(SPILL_BASE + k * 8))
        })
        .collect();
    ((retired, regs, mem), stats)
}

/// Any valid fault plan, every knob drawn inside its hostile-but-sane
/// range.
fn arb_fault_plan(rng: &mut SmallRng) -> FaultPlan {
    // Uniform in `0.0..hi`, in millionths of `hi`.
    let mut prob = |hi: f64| hi * rng.gen_range(0..1_000_000) as f64 / 1e6;
    let (ring_delay_prob, dram_reissue_prob) = (prob(0.05), prob(0.02));
    // emc_kill_prob is per busy context per cycle.
    let (emc_kill_prob, mc_storm_prob) = (prob(0.003), prob(0.001));
    FaultPlan {
        enabled: true,
        ring_delay_prob,
        ring_delay_cycles: rng.gen_range(1..32),
        dram_reissue_prob,
        dram_reissue_penalty: rng.gen_range(1..200),
        emc_kill_prob,
        mc_storm_prob,
        mc_storm_cycles: rng.gen_range(1..300),
    }
}

fn baseline() -> &'static ArchState {
    static BASELINE: std::sync::OnceLock<ArchState> = std::sync::OnceLock::new();
    BASELINE.get_or_init(|| run_to_completion(FaultPlan::default(), 120).0)
}

/// Any valid fault plan: the run terminates and its final
/// architectural state is bit-identical to the fault-free run —
/// faults perturb timing only.
#[test]
fn chaos_faults_are_architecturally_invisible() {
    for_each_case(0x5eed_fa01, 6, |rng| {
        let plan = arb_fault_plan(rng);
        let (faulty, _) = run_to_completion(plan, 120);
        let clean = baseline();
        assert_eq!(
            &faulty.0, &clean.0,
            "retired-uop counts diverged under {plan:?}"
        );
        assert_eq!(
            &faulty.1, &clean.1,
            "final registers diverged under {plan:?}"
        );
        assert_eq!(&faulty.2, &clean.2, "spill memory diverged under {plan:?}");
    });
}

/// Same seed, same fault plan: reruns are bit-identical, faults and
/// all.
#[test]
fn chaos_runs_are_deterministic() {
    for_each_case(0x5eed_fa02, 6, |rng| {
        let plan = arb_fault_plan(rng);
        let (state_a, a) = run_to_completion(plan, 100);
        let (state_b, b) = run_to_completion(plan, 100);
        assert_eq!(state_a, state_b);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mem.dram_reads, b.mem.dram_reads);
        assert_eq!(a.ring.injected_delays, b.ring.injected_delays);
        assert_eq!(a.mem.ecc_reissues, b.mem.ecc_reissues);
        assert_eq!(a.mem.backpressure_storms, b.mem.backpressure_storms);
        for (ca, cb) in a.cores.iter().zip(&b.cores) {
            assert_eq!(ca.chains_aborted_injected, cb.chains_aborted_injected);
            assert_eq!(ca.emc_quiesce_events, cb.emc_quiesce_events);
        }
    });
}

#[test]
fn chaos_plan_actually_injects_faults() {
    let (_, stats) = run_to_completion(FaultPlan::chaos(), 150);
    assert!(
        stats.ring.injected_delays > 0,
        "no ring delays injected: {:?}",
        stats.ring
    );
    assert!(
        stats.mem.ecc_reissues > 0,
        "no ECC re-issues injected: {:?}",
        stats.mem
    );
}

#[test]
fn emc_kill_storm_degrades_gracefully() {
    // An absurdly hostile kill rate: most chains die mid-flight. The
    // run must still complete (cores re-execute locally), the injected
    // aborts must be counted, and the per-core quiesce logic must kick
    // in at least once.
    let plan = FaultPlan {
        enabled: true,
        emc_kill_prob: 0.05,
        ..FaultPlan::default()
    };
    let (state, stats) = run_to_completion(plan, 120);
    assert_eq!(&state, baseline(), "kill storm changed architectural state");
    let injected: u64 = stats.cores.iter().map(|c| c.chains_aborted_injected).sum();
    let quiesces: u64 = stats.cores.iter().map(|c| c.emc_quiesce_events).sum();
    assert!(injected > 0, "kill storm never killed a chain");
    assert!(
        quiesces > 0,
        "consecutive kills never triggered a quiesce: {injected} kills"
    );
}

#[test]
fn backpressure_storm_terminates_via_escalation() {
    // Frequent long backpressure storms shrink the MC queue to a
    // quarter and bounce everything else to the retry path. With the
    // escalation age tightened below the storm length, aged requests
    // must escalate (the counter proves the mechanism fired), the run
    // must complete inside 10× the normal cap, and the storm must stay
    // architecturally invisible.
    let plan = FaultPlan {
        enabled: true,
        mc_storm_prob: 0.005,
        mc_storm_cycles: 300,
        ..FaultPlan::default()
    };
    let (state, stats) = run_storm(plan, |cfg| cfg.liveness.mc_escalation_age = 256, 120, 10);
    assert_eq!(&state, baseline(), "storm changed architectural state");
    assert!(
        stats.mem.backpressure_storms > 0,
        "storm plan never stormed: {:?}",
        stats.mem
    );
    assert!(
        stats.mem.escalated_requests > 0,
        "no request escalated under sustained storms: {:?}",
        stats.mem
    );
}

#[test]
fn combined_storm_with_short_lease_terminates() {
    // Everything at once: backpressure storms, chain kills, ring
    // delays, ECC re-issues — plus a lease short enough that stalled
    // EMC contexts are reclaimed rather than waited out. Termination
    // must come from the liveness layer (escalations observed), and the
    // re-executed chains must leave architectural state untouched.
    let plan = FaultPlan {
        enabled: true,
        ring_delay_prob: 0.05,
        ring_delay_cycles: 32,
        dram_reissue_prob: 0.02,
        dram_reissue_penalty: 200,
        emc_kill_prob: 0.01,
        mc_storm_prob: 0.003,
        mc_storm_cycles: 300,
    };
    let (state, stats) = run_storm(
        plan,
        |cfg| {
            cfg.liveness.mc_escalation_age = 256;
            cfg.liveness.emc_lease = 1_500;
        },
        120,
        10,
    );
    assert_eq!(
        &state,
        baseline(),
        "combined storm changed architectural state"
    );
    assert!(
        stats.mem.escalated_requests > 0,
        "no request escalated under the combined storm: {:?}",
        stats.mem
    );
}

#[test]
fn starved_run_reports_cap_hit_with_progress() {
    // Budget far beyond what the cycle cap allows: the run must report
    // CapHit — with real per-core progress — and never pretend it
    // completed.
    let mix = [
        Benchmark::Mcf,
        Benchmark::Sphinx3,
        Benchmark::Soplex,
        Benchmark::Libquantum,
    ];
    let mut sys = build_system(SystemConfig::quad_core(), &mix).expect("build system");
    let report = sys.run(1_000_000_000, 20_000);
    assert_eq!(report.outcome, RunOutcome::CapHit);
    let pm = report
        .post_mortem
        .as_ref()
        .expect("a cap hit has a post-mortem");
    assert_eq!((pm.cycle, pm.cores.len()), (20_000, 4));
    for (i, c) in report.stats.cores.iter().enumerate() {
        assert!(
            c.retired_uops > 0,
            "core {i} shows no progress in a cap-hit report"
        );
        assert!(c.retired_uops < 1_000_000_000);
    }
}

#[test]
fn starved_warmup_reports_cap_hit_too() {
    let mix = [
        Benchmark::Mcf,
        Benchmark::Sphinx3,
        Benchmark::Soplex,
        Benchmark::Libquantum,
    ];
    let mut sys = build_system(SystemConfig::quad_core(), &mix).expect("build system");
    let report = sys.run_with_warmup(1_000_000_000, 2_000_000_000, 20_000);
    assert_eq!(report.outcome, RunOutcome::CapHit);
}

#[test]
fn wedged_run_explains_itself_once() {
    // A watchdog window of two DRAM round trips: four mcf cores all
    // waiting on misses at once is a "wedge", and its post-mortem finds
    // every core stalled, two chains at the EMC and no memory-side probe
    // firing.
    let mut cfg = SystemConfig::quad_core();
    (cfg.liveness.core_stall_age, cfg.liveness.probe_interval) = (300, 1);
    let mut sys = build_system(cfg, &[Benchmark::Mcf; 4]).expect("build system");
    let report = sys.run(10_000, cycle_cap(10_000));
    assert_eq!(report.outcome, RunOutcome::Wedged);
    let pm = report
        .post_mortem
        .as_ref()
        .expect("a wedge has a post-mortem");
    let cores = vec![0, 1, 2, 3];
    assert_eq!(pm.class, WedgeClass::CoreDeadlock { cores });
    assert!(pm.cores.iter().all(|c| c.retire_age >= 300 && !c.finished));
    let text = pm.to_string();
    assert_eq!(text.matches("core-deadlock").count(), 1, "{text}");
    assert_eq!(text.matches("  core ").count(), 4, "{text}");
    assert_eq!(text.matches("  emc 0 ctx ").count(), 2, "{text}");
}

#[test]
#[should_panic(expected = "cycle cap")]
fn expect_completed_fails_loudly_on_starved_run() {
    let mix = [
        Benchmark::Mcf,
        Benchmark::Sphinx3,
        Benchmark::Soplex,
        Benchmark::Libquantum,
    ];
    let mut sys = build_system(SystemConfig::quad_core(), &mix).expect("build system");
    let _ = sys.run(1_000_000_000, 20_000).expect_completed();
}

#[test]
fn invalid_fault_plan_is_rejected_at_build_time() {
    let mut cfg = SystemConfig::quad_core();
    cfg.faults = FaultPlan {
        enabled: true,
        ring_delay_prob: 1.5,
        ..FaultPlan::default()
    };
    let err = build_system(cfg, &[Benchmark::Mcf; 4])
        .err()
        .expect("must reject");
    match err {
        BuildError::InvalidConfig(msg) => {
            assert!(
                msg.contains("ring_delay_prob"),
                "error must name the field: {msg}"
            )
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn workload_count_mismatch_is_a_typed_error() {
    let err = build_system(SystemConfig::quad_core(), &[Benchmark::Mcf; 3])
        .err()
        .expect("must reject");
    assert_eq!(
        err,
        BuildError::WorkloadMismatch {
            workloads: 3,
            cores: 4
        }
    );
    assert!(err.to_string().contains("one workload per core"));
}
