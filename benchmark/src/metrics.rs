//! The metric registry and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `/BENCHMARK.json` name for
//! name (a unit test compares them), so a metric cannot be printed
//! without being declared or declared without being printed.

use emc_types::JsonValue;

use crate::Tally;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`, as in `BENCHMARK.json`.
    pub better: &'static str,
    /// Computed by the simulator from the seed alone, so it repeats
    /// exactly: two runs of one commit, or of two commits that differ
    /// only in host code, must agree on it to the last digit.
    pub simulated: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
        simulated: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
        simulated: false,
    }
}

impl Def {
    const fn simulated(self) -> Def {
        Def {
            simulated: true,
            ..self
        }
    }
}

/// What a user of the stack sees; printed by `e2e` on every workload.
pub const END_TO_END: &[Def] = &[
    lower("setup_s", "s"),
    lower("op_ms", "ms"),
    higher("sim_mcycles_per_s", "Mcycles/s"),
    higher("tasks_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
];

/// One layer each, layer = crate; printed by `trace` on every workload.
/// A metric whose layer the workload leaves idle reads 0.
pub const PER_LAYER: &[Def] = &[
    // emc-sim: the tick loop, in situ.
    lower("sim.tick_ns", "ns"),
    lower("sim.clock_read_ns", "ns"),
    lower("sim.phase.events_ns", "ns"),
    lower("sim.phase.tick_mcs_ns", "ns"),
    lower("sim.phase.tick_emcs_ns", "ns"),
    lower("sim.phase.chain_gen_ns", "ns"),
    lower("sim.phase.prefetch_ns", "ns"),
    lower("sim.phase.tick_cores_ns", "ns"),
    lower("sim.phase.observe_ns", "ns"),
    lower("sim.unattributed_ns", "ns"),
    lower("sim.trace_overhead_pct", "%"),
    lower("sim.build_system_ms", "ms"),
    lower("sim.allocs_per_kcycle", "1/kcycle"),
    lower("sim.alloc_bytes_per_kcycle", "B/kcycle"),
    lower("sim.cycles", "cycles").simulated(),
    higher("sim.retired_uops", "count").simulated(),
    higher("sim.ipc_sum", "uops/cycle").simulated(),
    // emc-cpu
    lower("cpu.core_tick_ns", "ns"),
    lower("cpu.core_tick_stalled_ns", "ns"),
    lower("cpu.full_window_stall_cycles", "cycles").simulated(),
    lower("cpu.branch_mispredicts", "count").simulated(),
    higher("cpu.retired_loads", "count").simulated(),
    // emc-core (the EMC)
    lower("core.generate_chain_ns", "ns"),
    lower("core.emc_tick_ns", "ns"),
    lower("core.emc_tick_idle_ns", "ns"),
    higher("core.chains_sent", "count").simulated(),
    higher("core.chains_executed", "count").simulated(),
    higher("core.uops_executed", "count").simulated(),
    lower("core.chains_aborted", "count").simulated(),
    lower("core.chain_latency_p50_cycles", "cycles").simulated(),
    higher("core.emc_miss_share_pct", "%").simulated(),
    // emc-memctrl
    lower("memctrl.tick_full_queue_ns", "ns"),
    lower("memctrl.enqueue_ns", "ns"),
    lower("memctrl.dram_reads", "count").simulated(),
    lower("memctrl.dram_writes", "count").simulated(),
    lower("memctrl.escalated_requests", "count").simulated(),
    lower("memctrl.queue_p50_cycles", "cycles").simulated(),
    // emc-dram
    lower("dram.issue_ns", "ns"),
    lower("dram.map_line_ns", "ns"),
    higher("dram.row_hits", "count").simulated(),
    lower("dram.row_conflicts", "count").simulated(),
    lower("dram.activates", "count").simulated(),
    lower("dram.service_p50_cycles", "cycles").simulated(),
    // emc-cache
    lower("cache.access_hit_ns", "ns"),
    lower("cache.miss_fill_ns", "ns"),
    lower("cache.mshr_alloc_complete_ns", "ns"),
    lower("cache.llc_accesses", "count").simulated(),
    lower("cache.llc_misses", "count").simulated(),
    lower("cache.dependent_llc_misses", "count").simulated(),
    // emc-ring
    lower("ring.send_ns", "ns"),
    lower("ring.data_msgs", "count").simulated(),
    lower("ring.control_msgs", "count").simulated(),
    lower("ring.total_hops", "count").simulated(),
    // emc-prefetch
    lower("prefetch.stream_train_ns", "ns"),
    lower("prefetch.ghb_train_ns", "ns"),
    lower("prefetch.issued", "count").simulated(),
    higher("prefetch.useful", "count").simulated(),
    // emc-workloads
    lower("workloads.build_mcf_ms", "ms"),
    lower("workloads.build_libquantum_ms", "ms"),
    // emc-types
    higher("types.json_parse_mb_per_s", "MB/s"),
    higher("types.json_encode_mb_per_s", "MB/s"),
    lower("types.hist_record_ns", "ns"),
    // emc-campaign
    lower("campaign.key_us", "us"),
    lower("campaign.cache_load_us", "us"),
    lower("campaign.cache_store_us", "us"),
    lower("campaign.result_decode_us", "us"),
    lower("campaign.result_encode_us", "us"),
    lower("campaign.manifest_save_us", "us"),
    lower("campaign.entry_bytes", "B").simulated(),
    lower("campaign.exec_wall_sum_s", "s"),
    higher("campaign.worker_mcycles_per_s", "Mcycles/s"),
    higher("campaign.parallel_efficiency", "ratio"),
    higher("campaign.emc_gain_pct", "%").simulated(),
    lower("campaign.emc_gain_err_pp", "pp").simulated(),
    // emc-campaignd
    lower("campaignd.submit_p50_ms", "ms"),
    lower("campaignd.submit_p90_ms", "ms"),
    lower("campaignd.job_p90_ms", "ms"),
    lower("campaignd.poll_rtt_p50_ms", "ms"),
    lower("campaignd.queue_wait_p50_ms", "ms"),
    lower("campaignd.queue_wait_p95_ms", "ms"),
    lower("campaignd.max_tenant_wait_ms", "ms"),
    lower("campaignd.rejected_429", "count"),
    lower("campaignd.http_parse_us", "us"),
    lower("campaignd.http_response_us", "us"),
    lower("campaignd.queue_admit_pop_ns", "ns"),
    lower("campaignd.submit_inproc_us", "us"),
    lower("campaignd.handle_stats_us", "us"),
];

/// Values measured in one run, checked against a registry.
#[derive(Debug)]
pub struct Metrics {
    defs: &'static [Def],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(defs: &'static [Def]) -> Metrics {
        Metrics {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Record `name`.
    ///
    /// # Panics
    ///
    /// If `name` is not declared or was already set: both are bugs in
    /// the benchmark, not measurements.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        assert!(self.values[i].is_none(), "metric {name:?} set twice");
        self.values[i] = Some(value);
    }

    /// Names declared but not set.
    pub fn unset(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|(d, _)| d.name)
            .collect()
    }

    /// The result line the driver reads: one JSON object with `correct`
    /// (no operation failed), `attempted`, `failed` and every declared
    /// metric; unset ones read 0.
    pub fn result_line(&self, tally: &Tally) -> String {
        let metrics = self
            .defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| {
                let value = JsonValue::obj(vec![
                    ("value", v.unwrap_or(0.0).into()),
                    ("unit", d.unit.into()),
                ]);
                (d.name.to_string(), value)
            })
            .collect();
        JsonValue::obj(vec![
            ("correct", (tally.failed == 0).into()),
            ("attempted", tally.attempted.into()),
            ("failed", tally.failed.into()),
            ("metrics", JsonValue::Obj(metrics)),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let workloads = Workload::ALL.iter().map(|w| w.name());
        let metrics = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name);
        for name in workloads.chain(metrics) {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit_ok(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(d.better == "lower" || d.better == "higher");
        }
        assert!(!name_ok("has space") && !name_ok(".dot-first") && !name_ok(""));
    }

    fn manifest() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        JsonValue::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        let field = |m: &JsonValue, k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json_both_ways() {
        let doc = manifest();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<_> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect();
            assert_eq!(declared(&doc, key), ours, "{key} differs from the registry");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for m in doc.get("end_to_end").and_then(|v| v.as_arr()).unwrap() {
            let bound = m.get("bound").and_then(|v| v.as_f64()).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn result_line_round_trips_and_carries_every_metric() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 0.8127);
        m.set("op_ms", 1.2034);
        assert_eq!(
            m.unset(),
            ["sim_mcycles_per_s", "tasks_per_s", "peak_rss_mb"]
        );
        let line = m.result_line(&Tally {
            attempted: 7,
            failed: 0,
        });
        assert!(!line.contains('\n'));
        let doc = JsonValue::parse(&line).expect("result line parses");
        let JsonValue::Obj(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(|v| v.as_f64()), Some(7.0));
        let JsonValue::Obj(metrics) = doc.get("metrics").unwrap() else {
            panic!()
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let ours: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, ours);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        Metrics::new(END_TO_END).set("nope", 1.0);
    }
}
