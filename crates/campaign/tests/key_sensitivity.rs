//! Property tests for the content-addressed job key: perturbing *any*
//! `SystemConfig` field, the seed, the budget, or the workload mix must
//! change the key, and equal specs must always agree on it. The mutator
//! table below names every field the canonical encoding covers, and
//! `mutator_table_names_every_leaf_of_the_config_document` holds it to
//! that: the encoding is generated from the config structs' definitions,
//! so a new field is in the key by being declared, and this table is the
//! only second list there is. The test fails, naming the field, until the
//! table has a mutator for it.

use emc_campaign::{config_json, JobSpec};
use emc_types::rng::for_each_case;
use emc_types::{JsonValue, PrefetcherKind, SystemConfig};
use emc_workloads::{mix_by_name, Benchmark};

fn base_spec(seed: u64, budget: u64) -> JobSpec {
    let mut cfg = SystemConfig::quad_core();
    cfg.seed = seed;
    JobSpec::mix("H1", mix_by_name("H1").unwrap(), cfg, budget)
}

/// A nonzero perturbation of one identity-bearing field. `d` is a
/// positive magnitude from the property strategy; every mutator must
/// change the spec for every `d >= 1`.
type Mutator = (&'static str, fn(&mut JobSpec, u64));

fn mutators() -> Vec<Mutator> {
    fn du(v: &mut u64, d: u64) {
        *v = v.wrapping_add(d.max(1));
    }
    fn dus(v: &mut usize, d: u64) {
        *v = v.wrapping_add(d.max(1) as usize);
    }
    fn df(v: &mut f64, d: u64) {
        *v += d.max(1) as f64 * 0.125;
    }
    vec![
        // Job identity outside the config.
        ("budget", |s, d| du(&mut s.budget, d)),
        ("benches", |s, d| {
            let all = Benchmark::all();
            let i = (d as usize) % s.benches.len();
            let cur = s.benches[i];
            s.benches[i] = all.into_iter().find(|b| *b != cur).unwrap();
        }),
        // SystemConfig scalars.
        ("cores", |s, d| dus(&mut s.cfg.cores, d)),
        ("memory_controllers", |s, d| {
            dus(&mut s.cfg.memory_controllers, d)
        }),
        ("seed", |s, d| du(&mut s.cfg.seed, d)),
        ("ideal_dependent_hits", |s, _| {
            s.cfg.ideal_dependent_hits = !s.cfg.ideal_dependent_hits
        }),
        ("prefetcher", |s, d| {
            let others: Vec<PrefetcherKind> = PrefetcherKind::ALL
                .into_iter()
                .filter(|p| *p != s.cfg.prefetcher)
                .collect();
            s.cfg.prefetcher = others[(d as usize) % others.len()];
        }),
        // Core.
        ("core.fetch_width", |s, d| {
            dus(&mut s.cfg.core.fetch_width, d)
        }),
        ("core.issue_width", |s, d| {
            dus(&mut s.cfg.core.issue_width, d)
        }),
        ("core.retire_width", |s, d| {
            dus(&mut s.cfg.core.retire_width, d)
        }),
        ("core.rob_entries", |s, d| {
            dus(&mut s.cfg.core.rob_entries, d)
        }),
        ("core.rs_entries", |s, d| dus(&mut s.cfg.core.rs_entries, d)),
        ("core.lsq_entries", |s, d| {
            dus(&mut s.cfg.core.lsq_entries, d)
        }),
        ("core.mispredict_penalty", |s, d| {
            du(&mut s.cfg.core.mispredict_penalty, d)
        }),
        ("core.bp_table_entries", |s, d| {
            dus(&mut s.cfg.core.bp_table_entries, d)
        }),
        ("core.runahead", |s, _| {
            s.cfg.core.runahead = !s.cfg.core.runahead
        }),
        // L1 / LLC slice.
        ("l1.bytes", |s, d| du(&mut s.cfg.l1.bytes, d)),
        ("l1.ways", |s, d| dus(&mut s.cfg.l1.ways, d)),
        ("l1.latency", |s, d| du(&mut s.cfg.l1.latency, d)),
        ("l1.mshrs", |s, d| dus(&mut s.cfg.l1.mshrs, d)),
        ("llc_slice.bytes", |s, d| du(&mut s.cfg.llc_slice.bytes, d)),
        ("llc_slice.ways", |s, d| dus(&mut s.cfg.llc_slice.ways, d)),
        ("llc_slice.latency", |s, d| {
            du(&mut s.cfg.llc_slice.latency, d)
        }),
        ("llc_slice.mshrs", |s, d| dus(&mut s.cfg.llc_slice.mshrs, d)),
        // Ring.
        ("ring.link_cycles", |s, d| {
            du(&mut s.cfg.ring.link_cycles, d)
        }),
        ("ring.stop_cycles", |s, d| {
            du(&mut s.cfg.ring.stop_cycles, d)
        }),
        // DRAM.
        ("dram.channels", |s, d| dus(&mut s.cfg.dram.channels, d)),
        ("dram.ranks_per_channel", |s, d| {
            dus(&mut s.cfg.dram.ranks_per_channel, d)
        }),
        ("dram.banks_per_rank", |s, d| {
            dus(&mut s.cfg.dram.banks_per_rank, d)
        }),
        ("dram.row_bytes", |s, d| du(&mut s.cfg.dram.row_bytes, d)),
        ("dram.t_cas", |s, d| du(&mut s.cfg.dram.t_cas, d)),
        ("dram.t_rcd", |s, d| du(&mut s.cfg.dram.t_rcd, d)),
        ("dram.t_rp", |s, d| du(&mut s.cfg.dram.t_rp, d)),
        ("dram.t_ras", |s, d| du(&mut s.cfg.dram.t_ras, d)),
        ("dram.t_burst", |s, d| du(&mut s.cfg.dram.t_burst, d)),
        ("dram.queue_entries", |s, d| {
            dus(&mut s.cfg.dram.queue_entries, d)
        }),
        // Prefetch knobs.
        ("prefetch.stream_count", |s, d| {
            dus(&mut s.cfg.prefetch.stream_count, d)
        }),
        ("prefetch.stream_distance", |s, d| {
            du(&mut s.cfg.prefetch.stream_distance, d)
        }),
        ("prefetch.markov_entries", |s, d| {
            dus(&mut s.cfg.prefetch.markov_entries, d)
        }),
        ("prefetch.markov_fanout", |s, d| {
            dus(&mut s.cfg.prefetch.markov_fanout, d)
        }),
        ("prefetch.ghb_entries", |s, d| {
            dus(&mut s.cfg.prefetch.ghb_entries, d)
        }),
        ("prefetch.ghb_index_entries", |s, d| {
            dus(&mut s.cfg.prefetch.ghb_index_entries, d)
        }),
        ("prefetch.fdp_min_degree", |s, d| {
            dus(&mut s.cfg.prefetch.fdp_min_degree, d)
        }),
        ("prefetch.fdp_max_degree", |s, d| {
            dus(&mut s.cfg.prefetch.fdp_max_degree, d)
        }),
        ("prefetch.fdp_high_accuracy", |s, d| {
            df(&mut s.cfg.prefetch.fdp_high_accuracy, d)
        }),
        ("prefetch.fdp_low_accuracy", |s, d| {
            df(&mut s.cfg.prefetch.fdp_low_accuracy, d)
        }),
        ("prefetch.fdp_interval", |s, d| {
            du(&mut s.cfg.prefetch.fdp_interval, d)
        }),
        // EMC.
        ("emc.enabled", |s, _| s.cfg.emc.enabled = !s.cfg.emc.enabled),
        ("emc.contexts", |s, d| dus(&mut s.cfg.emc.contexts, d)),
        ("emc.uop_buffer", |s, d| dus(&mut s.cfg.emc.uop_buffer, d)),
        ("emc.prf_entries", |s, d| dus(&mut s.cfg.emc.prf_entries, d)),
        ("emc.live_in_entries", |s, d| {
            dus(&mut s.cfg.emc.live_in_entries, d)
        }),
        ("emc.lsq_entries", |s, d| dus(&mut s.cfg.emc.lsq_entries, d)),
        ("emc.rs_entries", |s, d| dus(&mut s.cfg.emc.rs_entries, d)),
        ("emc.issue_width", |s, d| dus(&mut s.cfg.emc.issue_width, d)),
        ("emc.tlb_entries", |s, d| dus(&mut s.cfg.emc.tlb_entries, d)),
        ("emc.dcache_bytes", |s, d| {
            du(&mut s.cfg.emc.dcache_bytes, d)
        }),
        ("emc.dcache_ways", |s, d| dus(&mut s.cfg.emc.dcache_ways, d)),
        ("emc.dcache_latency", |s, d| {
            du(&mut s.cfg.emc.dcache_latency, d)
        }),
        ("emc.miss_pred_entries", |s, d| {
            dus(&mut s.cfg.emc.miss_pred_entries, d)
        }),
        // u8 fields: fold `d` into 1..=255 so no delta wraps to a no-op.
        ("emc.miss_pred_threshold", |s, d| {
            s.cfg.emc.miss_pred_threshold = s
                .cfg
                .emc
                .miss_pred_threshold
                .wrapping_add((d % 255) as u8 + 1)
        }),
        ("emc.dep_counter_trigger", |s, d| {
            s.cfg.emc.dep_counter_trigger = s
                .cfg
                .emc
                .dep_counter_trigger
                .wrapping_add((d % 255) as u8 + 1)
        }),
        ("emc.chain_candidates", |s, d| {
            dus(&mut s.cfg.emc.chain_candidates, d)
        }),
        ("emc.quiesce_threshold", |s, d| {
            s.cfg.emc.quiesce_threshold = s.cfg.emc.quiesce_threshold.wrapping_add(d.max(1) as u32)
        }),
        ("emc.quiesce_backoff", |s, d| {
            du(&mut s.cfg.emc.quiesce_backoff, d)
        }),
        ("emc.quiesce_backoff_max", |s, d| {
            du(&mut s.cfg.emc.quiesce_backoff_max, d)
        }),
        // Fault plan.
        ("faults.enabled", |s, _| {
            s.cfg.faults.enabled = !s.cfg.faults.enabled
        }),
        ("faults.ring_delay_prob", |s, d| {
            df(&mut s.cfg.faults.ring_delay_prob, d)
        }),
        ("faults.ring_delay_cycles", |s, d| {
            du(&mut s.cfg.faults.ring_delay_cycles, d)
        }),
        ("faults.dram_reissue_prob", |s, d| {
            df(&mut s.cfg.faults.dram_reissue_prob, d)
        }),
        ("faults.dram_reissue_penalty", |s, d| {
            du(&mut s.cfg.faults.dram_reissue_penalty, d)
        }),
        ("faults.emc_kill_prob", |s, d| {
            df(&mut s.cfg.faults.emc_kill_prob, d)
        }),
        ("faults.mc_storm_prob", |s, d| {
            df(&mut s.cfg.faults.mc_storm_prob, d)
        }),
        ("faults.mc_storm_cycles", |s, d| {
            du(&mut s.cfg.faults.mc_storm_cycles, d)
        }),
        // Liveness enforcement.
        ("liveness.enabled", |s, _| {
            s.cfg.liveness.enabled = !s.cfg.liveness.enabled
        }),
        ("liveness.mc_escalation_age", |s, d| {
            du(&mut s.cfg.liveness.mc_escalation_age, d)
        }),
        ("liveness.emc_lease", |s, d| {
            du(&mut s.cfg.liveness.emc_lease, d)
        }),
        ("liveness.ring_backlog_threshold", |s, d| {
            du(&mut s.cfg.liveness.ring_backlog_threshold, d)
        }),
        ("liveness.core_stall_age", |s, d| {
            du(&mut s.cfg.liveness.core_stall_age, d)
        }),
        ("liveness.probe_interval", |s, d| {
            du(&mut s.cfg.liveness.probe_interval, d)
        }),
    ]
}

/// The table above and the config document name the same fields: no
/// field of the key is without a mutator, and no mutator is for a field
/// the key no longer has.
#[test]
fn mutator_table_names_every_leaf_of_the_config_document() {
    // The document is two levels deep: scalars and sections of scalars.
    let JsonValue::Obj(top) = config_json(&SystemConfig::quad_core()) else {
        panic!("a config encodes as an object");
    };
    let mut leaves: Vec<String> = Vec::new();
    for (key, value) in &top {
        match value {
            JsonValue::Obj(section) => {
                leaves.extend(section.iter().map(|(k, _)| format!("{key}.{k}")))
            }
            _ => leaves.push(key.clone()),
        }
    }
    let named: Vec<String> = mutators()
        .iter()
        .map(|(name, _)| name.to_string())
        .filter(|name| name != "budget" && name != "benches")
        .collect();
    let missing: Vec<_> = leaves.iter().filter(|l| !named.contains(l)).collect();
    let stale: Vec<_> = named.iter().filter(|n| !leaves.contains(n)).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "config fields without a mutator: {missing:?}; mutators without a field: {stale:?}"
    );
    assert_eq!(named.len(), leaves.len(), "a field has two mutators");
}

/// Every mutator, applied with the smallest magnitude, changes the key —
/// no config field is invisible to the content hash.
#[test]
fn every_field_perturbation_changes_the_key() {
    let base = base_spec(0x5eed, 30_000);
    let base_key = base.key();
    for (name, m) in mutators() {
        let mut s = base.clone();
        m(&mut s, 1);
        assert_ne!(base_key, s.key(), "perturbing {name} must change the key");
    }
}

/// Random field, random magnitude: the key always moves, and the
/// same perturbation applied to a fresh spec lands on the same key
/// (the hash is a pure function of the spec).
#[test]
fn perturbed_specs_never_collide_with_their_base() {
    let table = mutators();
    for_each_case(0x5eed_4e01, 64, |rng| {
        let (name, m) = table[rng.gen_range(0..table.len() as u64) as usize];
        let delta = rng.gen_range(1..1_000_000);
        let base = base_spec(rng.gen_range(0..u64::MAX), rng.gen_range(1..1 << 40));

        let mut a = base.clone();
        m(&mut a, delta);
        assert_ne!(base.key(), a.key(), "mutator {name} at delta {delta}");

        let mut b = base.clone();
        m(&mut b, delta);
        assert_eq!(a.key(), b.key(), "key must be deterministic ({name})");
    });
}

/// Two *different* workload mixes never share a key, whatever the
/// seed/budget (benches are part of the canonical encoding).
#[test]
fn distinct_mixes_hash_apart() {
    for_each_case(0x5eed_4e02, 64, |rng| {
        let mut cfg = SystemConfig::quad_core();
        cfg.seed = rng.gen_range(0..u64::MAX);
        let budget = rng.gen_range(1..1 << 40);
        let a = JobSpec::mix("H1", mix_by_name("H1").unwrap(), cfg.clone(), budget);
        let b = JobSpec::mix("H2", mix_by_name("H2").unwrap(), cfg, budget);
        // Same label on purpose: only the benches differ.
        assert_ne!(a.with_label("x").key(), b.with_label("x").key());
    });
}
