//! End-to-end tests of the observability layer: miss-journey tracing,
//! latency histograms, the time-series sampler, the JSON exporters, and
//! the zero-perturbation guarantee (tracing must not change simulated
//! behavior, only record it).

use emc_sim::{build_system, cycle_cap, metrics_json};
use emc_types::{FromJson, HistSummary, Histogram, JsonValue, SystemConfig, ToJson, TraceEvent};
use emc_workloads::mix_by_name;

const BUDGET: u64 = 20_000;

fn traced_run() -> emc_sim::System {
    let mix = mix_by_name("H4").unwrap();
    let mut sys = build_system(SystemConfig::quad_core(), &mix).unwrap();
    sys.enable_tracing();
    sys.set_sample_interval(1_000);
    let report = sys.run(BUDGET, cycle_cap(BUDGET));
    report.expect_completed();
    sys
}

#[test]
fn journeys_are_recorded_and_stage_deltas_tile_the_total() {
    let sys = traced_run();
    let journeys = sys.trace().journeys();
    assert!(!journeys.is_empty(), "traced run produced no miss journeys");
    let mut emc_seen = false;
    for j in journeys {
        let stages = j.stages();
        assert!(!stages.is_empty(), "journey {:?} has no stages", j.req);
        // Stages are consecutive and cover created..delivered exactly.
        assert_eq!(stages.first().unwrap().1, j.created);
        assert_eq!(stages.last().unwrap().2, j.delivered);
        for w in stages.windows(2) {
            assert_eq!(w[0].2, w[1].1, "gap between stages in {:?}", j.req);
        }
        let sum: u64 = stages.iter().map(|(_, s, e)| e - s).sum();
        assert_eq!(sum, j.total(), "stage deltas must sum to the total");
        emc_seen |= j.emc;
    }
    assert!(emc_seen, "no EMC-issued journey was traced");
}

#[test]
fn every_latency_site_reports_percentiles() {
    let mix = mix_by_name("H4").unwrap();
    let mut sys = build_system(SystemConfig::quad_core(), &mix).unwrap();
    let report_stats = sys.run(BUDGET, cycle_cap(BUDGET)).expect_completed();
    let m = &report_stats.mem;
    for (name, h) in [
        ("core_miss_latency", &m.core_miss_latency),
        ("emc_miss_latency", &m.emc_miss_latency),
        ("dram_service_latency", &m.dram_service_latency),
        ("on_chip_delay", &m.on_chip_delay),
    ] {
        assert!(h.count > 0, "{name} recorded nothing");
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!(p50 > 0, "{name} p50 is zero");
        assert!(p50 <= p95 && p95 <= p99, "{name} percentiles not monotone");
        assert!(p99 <= h.max, "{name} p99 exceeds max");
    }
    // Stall episodes feed a histogram too.
    let stalls: u64 = report_stats
        .cores
        .iter()
        .map(|c| c.stall_episodes.count)
        .sum();
    assert!(stalls > 0, "no stall episodes recorded");
}

#[test]
fn sampler_captures_queue_depth_time_series() {
    let sys = traced_run();
    let samples = sys.samples();
    assert!(samples.len() >= 4, "too few samples: {}", samples.len());
    for w in samples.windows(2) {
        assert!(w[0].cycle < w[1].cycle, "samples out of order");
    }
    let cfg_cores = 4;
    for s in samples {
        assert_eq!(s.mc_queue_depth.len(), 1, "one MC in quad-core config");
        assert_eq!(s.rob_occupancy.len(), cfg_cores);
        assert_eq!(s.llc_occupancy.len(), cfg_cores, "one LLC slice per core");
    }
    // Something must have been in flight at least once.
    assert!(
        samples
            .iter()
            .any(|s| s.outstanding_misses > 0 || s.mc_queue_depth[0] > 0),
        "every sample shows an idle memory system"
    );
}

#[test]
fn chrome_trace_export_parses_and_names_tracks() {
    let sys = traced_run();
    let mut buf = Vec::new();
    sys.trace().write_chrome_trace(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let doc = JsonValue::parse(&text).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(events.len() > 10);
    let labels: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert!(labels.contains(&"core 0"), "labels: {labels:?}");
    assert!(
        labels.iter().any(|l| l.starts_with("mc ")),
        "no MC track: {labels:?}"
    );
    // Journeys appear as nestable async begin/end pairs.
    let begins = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("b"))
        .count();
    let ends = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("e"))
        .count();
    assert!(
        begins > 0 && begins == ends,
        "b/e mismatch: {begins}/{ends}"
    );
    // Counters from the sampler made it in.
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C")),
        "no counter events"
    );
    // In-memory event stream contains spans (stalls, DRAM banks, chains).
    assert!(sys
        .trace()
        .events()
        .iter()
        .any(|e| matches!(e, TraceEvent::Span { .. })));
}

/// Every leaf of the canonical encoding `canonical` is at the same path
/// in `doc`: counters and vectors equal, histograms summarised.
fn assert_exported(canonical: &JsonValue, doc: &JsonValue, path: &str) {
    if let Ok(h) = Histogram::from_json_value(canonical) {
        let summary = HistSummary::from_json_value(doc);
        assert_eq!(summary, Ok(HistSummary::of(&h)), "{path}");
        return;
    }
    match canonical {
        JsonValue::Obj(fields) => {
            for (key, v) in fields {
                let d = doc
                    .get(key)
                    .unwrap_or_else(|| panic!("{path}.{key} missing"));
                assert_exported(v, d, &format!("{path}.{key}"));
            }
        }
        JsonValue::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                let d = doc.idx(i).unwrap_or_else(|| panic!("{path}[{i}] missing"));
                assert_exported(v, d, &format!("{path}[{i}]"));
            }
        }
        leaf => assert_eq!(leaf, doc, "{path}"),
    }
}

#[test]
fn metrics_export_has_required_keys() {
    let mix = mix_by_name("H4").unwrap();
    let mut sys = build_system(SystemConfig::quad_core(), &mix).unwrap();
    sys.set_sample_interval(1_000);
    let report = sys.run(BUDGET, cycle_cap(BUDGET));
    let names = sys.bench_names.clone();
    let doc = metrics_json(&report.stats, &names, report.outcome, sys.samples());
    let back = JsonValue::parse(&doc.to_json()).expect("metrics JSON parses");
    assert_eq!(
        back.get("schema").and_then(|v| v.as_str()),
        Some("emcsim-metrics-v2")
    );
    assert_eq!(
        back.get("outcome").and_then(|v| v.as_str()),
        Some("completed")
    );
    assert_eq!(back.get("cores").unwrap().as_arr().unwrap().len(), 4);
    // Every declared statistic the run counted, under its declared name.
    assert_exported(&report.stats.to_json_value(), &back, "");
    assert!(
        !back.get("samples").unwrap().as_arr().unwrap().is_empty(),
        "metrics document carries no samples"
    );
}

#[test]
fn tracing_does_not_perturb_simulation() {
    let mix = mix_by_name("H4").unwrap();
    let mut plain = build_system(SystemConfig::quad_core(), &mix).unwrap();
    let plain_stats = plain.run(BUDGET, cycle_cap(BUDGET)).expect_completed();
    let traced_stats = {
        let mix = mix_by_name("H4").unwrap();
        let mut sys = build_system(SystemConfig::quad_core(), &mix).unwrap();
        sys.enable_tracing();
        sys.set_sample_interval(1_000);
        sys.run(BUDGET, cycle_cap(BUDGET)).expect_completed()
    };
    assert_eq!(
        format!("{plain_stats:?}"),
        format!("{traced_stats:?}"),
        "tracing+sampling changed simulated statistics"
    );
}

#[test]
fn profiling_does_not_perturb_results_and_attributes_wall_time() {
    let mix = mix_by_name("H4").unwrap();
    let mut plain = build_system(SystemConfig::quad_core(), &mix).unwrap();
    let plain_stats = plain.run(BUDGET, cycle_cap(BUDGET)).expect_completed();

    let mut profiled = build_system(SystemConfig::quad_core(), &mix).unwrap();
    profiled.enable_profiling(16);
    let profiled_stats = profiled.run(BUDGET, cycle_cap(BUDGET)).expect_completed();
    assert_eq!(
        format!("{plain_stats:?}"),
        format!("{profiled_stats:?}"),
        "host profiling changed simulated statistics"
    );

    let report = profiled.profile_report();
    assert!(report.sampled_ticks > 0, "no ticks were sampled");
    assert!(
        report.total_ticks >= report.sampled_ticks,
        "coverage accounting inverted"
    );
    // Every phase ran at least once on sampled ticks, and the dominant
    // phases carry real time.
    assert!(report.sampled_nanos() > 0, "no wall time attributed");
    for p in &report.phases {
        assert_eq!(
            p.samples, report.sampled_ticks,
            "phase {} measured on {} of {} sampled ticks",
            p.name, p.samples, report.sampled_ticks
        );
    }
    let share_sum: f64 = report.phases.iter().map(|p| report.share(p.name)).sum();
    assert!(
        share_sum <= 1.0 + 1e-9,
        "phase shares sum to {share_sum} > 1"
    );

    // A disabled profiler reports all zeros.
    let empty = plain.profile_report();
    assert_eq!(empty.sampled_ticks, 0);
    assert_eq!(empty.sampled_nanos(), 0);
}

#[test]
fn post_mortem_history_ends_at_the_stop_cycle() {
    let mix = mix_by_name("H4").unwrap();
    let mut sys = build_system(SystemConfig::quad_core(), &mix).unwrap();
    sys.set_sample_interval(500);
    // Run briefly, then ask for a post-mortem directly: it must carry the
    // queue-depth history captured so far, ending with one taken now.
    sys.run(200, cycle_cap(200));
    let pm = sys.post_mortem();
    assert!(pm.recent_samples.len() > 1, "post-mortem has no history");
    assert_eq!(pm.cycle, sys.now());
    assert_eq!(pm.recent_samples.last().map(|s| s.cycle), Some(pm.cycle));
    let rendered = format!("{pm}");
    assert!(
        rendered.contains("queue history"),
        "post-mortem display omits sample history:\n{rendered}"
    );
}
