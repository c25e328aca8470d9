//! One property over every `json_struct!` type, in place of the
//! hand-written field lists the compiler used to check against each
//! other: whatever values a document's leaves take, `decode → encode`
//! returns the document's text, and that text is a fixed point of
//! `parse → decode → encode`.
//!
//! Each case starts from a sample document of the type and overwrites
//! every leaf with a random value of its kind, read off the sample: a
//! whole number is an integer field (so float fields are sampled with
//! fractions), anything else in quotes a string. Integers range over 0,
//! the 2^53 edge of the JSON double grid where the encoding switches to
//! strings, and `u64::MAX`.

use std::collections::HashSet;

use emc_campaign::{JobSpec, Manifest, ManifestEntry, RunResult};
use emc_energy::EnergyBreakdown;
use emc_types::json::u;
use emc_types::rng::{for_each_case, SmallRng};
use emc_types::*;
use emc_workloads::Benchmark;

const GRID_EDGE: u64 = 1 << 53;

fn random_u64(rng: &mut SmallRng) -> u64 {
    match rng.gen_range(0..8) {
        0 => 0,
        1 => GRID_EDGE - 1,
        2 => GRID_EDGE,
        3 => GRID_EDGE + 1,
        4 => u64::MAX,
        // Every magnitude, not just the top bits.
        _ => rng.next_u64() >> rng.gen_range(0..64),
    }
}

fn random_f64(rng: &mut SmallRng) -> f64 {
    loop {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() {
            return v;
        }
    }
}

fn random_string(rng: &mut SmallRng) -> String {
    const ALPHABET: [&str; 10] = ["a", "Z", "7", " ", "\"", "\\", "\n", "\u{1}", "é", "/"];
    (0..rng.gen_range(0..12))
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len() as u64) as usize])
        .collect()
}

/// An integer above the double grid, as [`u`] writes it.
fn is_wide_integer(s: &str) -> bool {
    s.parse::<u64>()
        .is_ok_and(|v| v > GRID_EDGE && v.to_string() == s)
}

/// `sample` with every leaf overwritten by a random value of its kind.
/// Leaves named in `narrow` cannot hold every value of their kind: an
/// integer there stays below 256 and a string stays what it was.
fn mutate(
    sample: &JsonValue,
    path: &str,
    narrow: &HashSet<String>,
    rng: &mut SmallRng,
) -> JsonValue {
    let is_narrow = narrow.contains(path);
    match sample {
        JsonValue::Obj(members) => JsonValue::Obj(
            members
                .iter()
                .map(|(k, v)| (k.clone(), mutate(v, &format!("{path}.{k}"), narrow, rng)))
                .collect(),
        ),
        JsonValue::Arr(items) => JsonValue::Arr(
            items
                .iter()
                .enumerate()
                .map(|(i, v)| mutate(v, &format!("{path}[{i}]"), narrow, rng))
                .collect(),
        ),
        JsonValue::Bool(_) => JsonValue::Bool(rng.gen_bool(0.5)),
        JsonValue::Num(n) if n.fract() != 0.0 => JsonValue::Num(random_f64(rng)),
        JsonValue::Num(_) if is_narrow => u(rng.gen_range(0..256)),
        JsonValue::Num(_) => u(random_u64(rng)),
        JsonValue::Str(s) if is_wide_integer(s) => u(random_u64(rng)),
        JsonValue::Str(_) if is_narrow => sample.clone(),
        JsonValue::Str(_) => JsonValue::Str(random_string(rng)),
        JsonValue::Null => panic!("{path}: samples carry no null"),
    }
}

/// The property, for one type and one case; appends the members of
/// `base` that `T` lets a document omit.
fn check<T: ToJson + FromJson>(base: &JsonValue, rng: &mut SmallRng, absent_ok: &mut Vec<String>) {
    let sample = T::from_json_value(base).expect("sample decodes");
    assert_eq!(sample.to_json_value(), *base, "sample is canonical");

    // Narrow integers (`u8`, `u32`) and enum labels refuse most values of
    // their kind, with an error that names the leaf: learn them from it.
    let mut narrow = HashSet::new();
    let (doc, value) = loop {
        let doc = mutate(base, "", &narrow, rng);
        match T::from_json_value(&doc) {
            Ok(value) => break (doc, value),
            Err(e) => {
                let (path, complaint) = e.split_once(": ").expect("path: complaint");
                let refusal = ["value exceeds", "unknown label"];
                assert!(refusal.iter().any(|r| complaint.starts_with(r)), "{e}");
                assert!(narrow.insert(path.to_string()), "still refused: {e}");
            }
        }
    };
    let text = doc.to_json();
    assert_eq!(value.to_json_value().to_json(), text, "decode, encode");
    let reparsed = JsonValue::parse(&text).expect("encodings parse");
    let again = T::from_json_value(&reparsed).expect("encodings decode");
    assert_eq!(again.to_json_value().to_json(), text, "fixed point");

    // Removing a member is tolerated, or refused by name.
    let JsonValue::Obj(members) = base else {
        panic!("json_struct! types encode as objects");
    };
    for (key, _) in members {
        let without = members.iter().filter(|(k, _)| k != key).cloned().collect();
        match T::from_json_value(&JsonValue::Obj(without)) {
            Ok(_) => absent_ok.push(key.clone()),
            Err(e) => assert_eq!(e, format!(".{key}: missing")),
        }
    }
}

/// [`check`] a sample document of each of the 28 types declared in
/// `json_struct!` (every array non-empty, every optional member present,
/// every float fractional); returns the members that may be absent.
fn check_every_wire_type(rng: &mut SmallRng) -> Vec<String> {
    let mut absent_ok = Vec::new();
    macro_rules! check {
        ($t:ty, $doc:expr) => {
            check::<$t>($doc, rng, &mut absent_ok)
        };
    }
    let mut stats = Stats::new(2);
    stats.cores[0].record_chain_length(5);
    stats.cores[0].stall_episodes.record(1024);
    stats.mem.core_miss_latency.record(u64::MAX);
    let spec = JobSpec::homog(
        Benchmark::Mcf,
        SystemConfig::eight_core_2mc().with_faults(FaultPlan::chaos()),
        500,
    );
    let doc = |text: &str| JsonValue::parse(text).expect("sample parses");
    let energy = doc(
        r#"{"core_dynamic_j":0.125,"cache_dynamic_j":0.25,"ring_dynamic_j":0.001,"dram_dynamic_j":1.5,"emc_dynamic_j":1e-9,"chip_static_j":2.75,"dram_static_j":0.1}"#,
    );
    let result = RunResult {
        energy: EnergyBreakdown::from_json_value(&energy).expect("sample decodes"),
        ipcs: vec![0.75, 0.5],
        ..spec.to_result(stats)
    };
    let (result, cfg) = (result.to_json_value(), spec.cfg.to_json_value());
    let part = |doc: &JsonValue, key: &str| doc.get(key).expect("sample has the member").clone();
    let stats = part(&result, "stats");
    let mem = part(&stats, "mem");
    check!(Histogram, &part(&mem, "core_miss_latency"));
    check!(CoreStats, part(&stats, "cores").idx(0).expect("two cores"));
    check!(MemStats, &mem);
    check!(RingStats, &part(&stats, "ring"));
    check!(EmcStats, &part(&stats, "emc"));
    check!(PrefetchStats, &part(&stats, "prefetch"));
    check!(Stats, &stats);
    check!(CoreConfig, &part(&cfg, "core"));
    check!(CacheConfig, &part(&cfg, "l1"));
    check!(RingConfig, &part(&cfg, "ring"));
    check!(DramConfig, &part(&cfg, "dram"));
    check!(PrefetchConfig, &part(&cfg, "prefetch"));
    check!(EmcConfig, &part(&cfg, "emc"));
    check!(FaultPlan, &part(&cfg, "faults"));
    check!(LivenessConfig, &part(&cfg, "liveness"));
    check!(SystemConfig, &cfg);
    check!(EnergyBreakdown, &energy);
    check!(RunResult, &result);
    let manifest = Manifest::fresh("sample", &[(spec.key(), spec.label)]);
    check!(ManifestEntry, &manifest.entries[0].to_json_value());

    // The service documents, as they look on the wire.
    let summary = r#"{"count":3,"mean":23.5,"p50":20,"p95":41,"p99":41,"max":41}"#;
    let event = r#"{"seq":1,"label":"H1","outcome":"completed","done":1,"total":3,"hits":0,"failed":0,"eta_ms":2000}"#;
    let tenant = format!(
        r#"{{"tenant":"alice","queued":10,"running":2,"done":100,"failed":1,"wait_ms":{summary},"max_wait_ms":160,"escalated":3}}"#
    );
    let batch = format!(r#"{{"id":"j7","next":1,"complete":false,"events":[{event}]}}"#);
    let service = format!(
        r#"{{"uptime_ms":60000,"workers":4,"queue_depth":30,"queue_cap":4096,"draining":false,"jobs":12,"jobs_done":9,"tasks_done":300,"hits":270,"executed":29,"failed":1,"hit_rate":0.9,"wait_ms":{summary},"task_wall_ms":{summary},"job_wall_ms":{summary},"mcycles_per_sec":1.25,"tenants":[{tenant}]}}"#
    );
    let submit = r#"{"tenant":"alice","name":"nightly","suite":"quad","budget":0,"seed_bump":7,"repeat":3,"prefetcher":"GHB","emc":true}"#;
    let ack = r#"{"id":"j42","total":80,"queue_depth":160}"#;
    let rejection = r#"{"error":"queue-full","detail":"full","queue_depth":4096,"capacity":4096}"#;
    let status = r#"{"id":"j1","tenant":"alice","name":"quad","state":"running","total":80,"done":20,"hits":12,"executed":8,"failed":0,"wall_ms":1500,"eta_ms":4500}"#;
    check!(SubmitRequest, &doc(submit));
    check!(SubmitAck, &doc(ack));
    check!(Rejection, &doc(rejection));
    check!(JobStatusView, &doc(status));
    check!(ProgressEvent, &doc(event));
    check!(EventBatch, &doc(&batch));
    check!(HistSummary, &doc(summary));
    check!(TenantStats, &doc(&tenant));
    check!(ServiceStats, &doc(&service));
    absent_ok
}

#[test]
fn every_wire_type_round_trips_whatever_its_leaves_hold() {
    for_each_case(0xc0de_c001, 48, |rng| {
        // The one tolerance a decoder has is the declared one: exactly
        // the fields declared `= value` may be missing from a document.
        assert_eq!(
            check_every_wire_type(rng),
            [
                // CoreStats, MemStats: counters younger than the cache.
                "chains_aborted_lease",
                "escalated_requests",
                // SystemConfig: sections younger than the cache.
                "faults",
                "liveness",
                // ManifestEntry: host-perf columns younger than the manifest.
                "wall_ms",
                "sim_cycles",
                // SubmitRequest: everything but who and what.
                "name",
                "budget",
                "seed_bump",
                "repeat",
                "prefetcher",
                "emc",
                // Rejection: queue context, zero when not applicable.
                "queue_depth",
                "capacity",
                // JobStatusView, ProgressEvent: no estimate yet, or any more.
                "eta_ms",
                "eta_ms",
            ]
        );
    });
}
