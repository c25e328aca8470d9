//! The time-series metrics pipeline: a configurable [`Sampler`] that
//! captures queue-occupancy [`MetricSample`]s each epoch, and the JSON
//! exporters behind `emcsim --metrics-out` and `--json`.
//!
//! All JSON here is rendered through [`JsonValue`]. The schemas are
//! versioned by a `"schema"` key so downstream consumers can detect
//! format changes.

use emc_types::{Cycle, Histogram, JsonValue, MetricSample, RunOutcome, Stats};

/// Default sampling epoch: coarse enough to be free (one sample per
/// 10 k cycles), fine enough that a wedge report shows meaningful
/// queue-depth history.
pub const DEFAULT_SAMPLE_INTERVAL: Cycle = 10_000;

/// Retention cap: when the buffer fills, the oldest half is discarded
/// (and counted), so the most recent history always survives.
const SAMPLE_CAP: usize = 100_000;

/// Periodic capture of [`MetricSample`]s at a configurable interval.
///
/// The sampler itself does not know how to read the system; the
/// simulator asks [`Sampler::due`] each cycle and pushes a sample it
/// assembled. Sampling is on by default at [`DEFAULT_SAMPLE_INTERVAL`];
/// an interval of 0 disables it entirely.
#[derive(Debug, Clone)]
pub struct Sampler {
    interval: Cycle,
    next: Cycle,
    samples: Vec<MetricSample>,
    dropped: u64,
}

impl Default for Sampler {
    fn default() -> Self {
        Sampler::with_interval(DEFAULT_SAMPLE_INTERVAL)
    }
}

impl Sampler {
    /// A sampler firing every `interval` cycles (0 = disabled).
    pub fn with_interval(interval: Cycle) -> Self {
        Sampler {
            interval,
            next: 0,
            samples: Vec::new(),
            dropped: 0,
        }
    }

    /// Change the sampling interval (0 disables). The next sample is
    /// taken immediately.
    pub fn set_interval(&mut self, interval: Cycle) {
        self.interval = interval;
        self.next = 0;
    }

    /// Whether a sample should be captured at `now`.
    #[inline]
    pub fn due(&self, now: Cycle) -> bool {
        self.interval != 0 && now >= self.next
    }

    /// The first cycle at which [`due`](Self::due) holds (`None` while
    /// sampling is disabled).
    pub fn next_due(&self) -> Option<Cycle> {
        (self.interval != 0).then_some(self.next)
    }

    /// Store a captured sample and schedule the next epoch.
    pub fn push(&mut self, s: MetricSample) {
        self.next = s.cycle.saturating_add(self.interval.max(1));
        if self.samples.len() >= SAMPLE_CAP {
            let drop = SAMPLE_CAP / 2;
            self.samples.drain(..drop);
            self.dropped += drop as u64;
        }
        self.samples.push(s);
    }

    /// All retained samples, oldest first.
    pub fn samples(&self) -> &[MetricSample] {
        &self.samples
    }

    /// The most recent `n` samples (fewer if fewer were captured).
    pub fn recent(&self, n: usize) -> &[MetricSample] {
        &self.samples[self.samples.len().saturating_sub(n)..]
    }

    /// Samples discarded to honor the retention cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discard captured samples (used when warmup statistics are reset).
    pub fn clear(&mut self) {
        self.samples.clear();
        self.dropped = 0;
        self.next = 0;
    }
}

/// Stable lower-case label for a run outcome, used as a JSON value.
pub fn outcome_label(outcome: RunOutcome) -> &'static str {
    match outcome {
        RunOutcome::Completed => "completed",
        RunOutcome::CapHit => "cap-hit",
        RunOutcome::Wedged => "wedged",
    }
}

/// Render a [`Histogram`] with its headline percentiles.
pub fn histogram_json(h: &Histogram) -> JsonValue {
    JsonValue::obj(vec![
        ("count", h.count.into()),
        ("sum", h.sum.into()),
        ("mean", h.mean().into()),
        ("min", h.min.into()),
        ("max", h.max.into()),
        ("p50", h.p50().into()),
        ("p95", h.p95().into()),
        ("p99", h.p99().into()),
    ])
}

/// Render one [`MetricSample`].
pub fn sample_json(s: &MetricSample) -> JsonValue {
    fn nums(v: &[u32]) -> JsonValue {
        JsonValue::nums(v.iter().map(|&x| x as u64))
    }
    JsonValue::obj(vec![
        ("cycle", s.cycle.into()),
        ("mc_queue_depth", nums(&s.mc_queue_depth)),
        ("mc_retry_depth", nums(&s.mc_retry_depth)),
        ("banks_open", nums(&s.banks_open)),
        ("emc_busy_contexts", nums(&s.emc_busy_contexts)),
        ("ring_busy_links", u64::from(s.ring_busy_links).into()),
        ("outstanding_misses", u64::from(s.outstanding_misses).into()),
        ("llc_occupancy_permille", nums(&s.llc_occupancy)),
        ("rob_occupancy", nums(&s.rob_occupancy)),
    ])
}

/// The full `--metrics-out` document: run outcome, per-core statistics,
/// every latency histogram with percentiles, and the captured
/// time-series samples.
pub fn metrics_json(
    stats: &Stats,
    names: &[String],
    outcome: RunOutcome,
    samples: &[MetricSample],
) -> JsonValue {
    let cores: Vec<JsonValue> = stats
        .cores
        .iter()
        .enumerate()
        .map(|(i, c)| {
            JsonValue::obj(vec![
                ("core", (i as u64).into()),
                (
                    "bench",
                    names.get(i).map(String::as_str).unwrap_or("?").into(),
                ),
                ("ipc", c.ipc().into()),
                ("mpki", c.mpki().into()),
                ("retired_uops", c.retired_uops.into()),
                ("llc_misses", c.llc_misses.into()),
                (
                    "full_window_stall_cycles",
                    c.full_window_stall_cycles.into(),
                ),
                ("stall_episodes", histogram_json(&c.stall_episodes)),
                ("chains_sent", c.chains_sent.into()),
                ("chains_aborted_lease", c.chains_aborted_lease.into()),
            ])
        })
        .collect();
    let m = &stats.mem;
    let latency = JsonValue::obj(vec![
        ("core_miss", histogram_json(&m.core_miss_latency)),
        ("emc_miss", histogram_json(&m.emc_miss_latency)),
        ("dram_service", histogram_json(&m.dram_service_latency)),
        ("on_chip_delay", histogram_json(&m.on_chip_delay)),
        ("core_ring", histogram_json(&m.core_ring_component)),
        ("core_cache", histogram_json(&m.core_cache_component)),
        ("core_queue", histogram_json(&m.core_queue_component)),
        ("emc_ring", histogram_json(&m.emc_ring_component)),
        ("emc_cache", histogram_json(&m.emc_cache_component)),
        ("emc_queue", histogram_json(&m.emc_queue_component)),
    ]);
    JsonValue::obj(vec![
        ("schema", "emcsim-metrics-v1".into()),
        ("outcome", outcome_label(outcome).into()),
        ("cycles", stats.cycles.into()),
        ("cores", JsonValue::Arr(cores)),
        (
            "mem",
            JsonValue::obj(vec![
                ("dram_reads", m.dram_reads.into()),
                ("dram_writes", m.dram_writes.into()),
                ("dram_prefetches", m.dram_prefetches.into()),
                ("row_hits", m.row_hits.into()),
                ("row_conflicts", m.row_conflicts.into()),
                ("row_empties", m.row_empties.into()),
                ("escalated_requests", m.escalated_requests.into()),
                ("latency", latency),
            ]),
        ),
        (
            "emc",
            JsonValue::obj(vec![
                ("chains_executed", stats.emc.chains_executed.into()),
                ("uops_executed", stats.emc.uops_executed.into()),
                ("chain_latency", histogram_json(&stats.emc.chain_latency)),
                ("dcache_hit_rate", stats.emc.dcache_hit_rate().into()),
            ]),
        ),
        (
            "ring",
            JsonValue::obj(vec![
                ("control_msgs", stats.ring.control_msgs.into()),
                ("data_msgs", stats.ring.data_msgs.into()),
                ("total_hops", stats.ring.total_hops.into()),
            ]),
        ),
        (
            "prefetch",
            JsonValue::obj(vec![
                ("issued", stats.prefetch.issued.into()),
                ("useful", stats.prefetch.useful.into()),
                ("useless", stats.prefetch.useless.into()),
                ("degree", stats.prefetch.degree.into()),
            ]),
        ),
        (
            "samples",
            JsonValue::Arr(samples.iter().map(sample_json).collect()),
        ),
    ])
}

/// The compact `--json` run summary: outcome, per-core IPC, and the
/// headline latency percentiles.
pub fn summary_json(stats: &Stats, names: &[String], outcome: RunOutcome) -> JsonValue {
    fn pcts(h: &Histogram) -> JsonValue {
        JsonValue::obj(vec![
            ("p50", h.p50().into()),
            ("p95", h.p95().into()),
            ("p99", h.p99().into()),
            ("mean", h.mean().into()),
        ])
    }
    let cores: Vec<JsonValue> = stats
        .cores
        .iter()
        .enumerate()
        .map(|(i, c)| {
            JsonValue::obj(vec![
                ("core", (i as u64).into()),
                (
                    "bench",
                    names.get(i).map(String::as_str).unwrap_or("?").into(),
                ),
                ("ipc", c.ipc().into()),
                ("mpki", c.mpki().into()),
                ("chains_sent", c.chains_sent.into()),
                ("chains_aborted_lease", c.chains_aborted_lease.into()),
            ])
        })
        .collect();
    let lease_aborts: u64 = stats.cores.iter().map(|c| c.chains_aborted_lease).sum();
    JsonValue::obj(vec![
        ("schema", "emcsim-summary-v1".into()),
        ("outcome", outcome_label(outcome).into()),
        ("cycles", stats.cycles.into()),
        ("ipc_sum", stats.ipc_sum().into()),
        ("cores", JsonValue::Arr(cores)),
        (
            // PR 6's forward-progress counters: requests force-escalated
            // by MC aging and chains aborted by EMC context leases.
            "counters",
            JsonValue::obj(vec![
                ("escalated_requests", stats.mem.escalated_requests.into()),
                ("chains_aborted_lease", lease_aborts.into()),
            ]),
        ),
        (
            "latency",
            JsonValue::obj(vec![
                ("core_miss", pcts(&stats.mem.core_miss_latency)),
                ("emc_miss", pcts(&stats.mem.emc_miss_latency)),
                ("dram_service", pcts(&stats.mem.dram_service_latency)),
                ("mc_queue", pcts(&stats.mem.core_queue_component)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycle: Cycle) -> MetricSample {
        MetricSample {
            cycle,
            mc_queue_depth: vec![1],
            ..Default::default()
        }
    }

    #[test]
    fn sampler_fires_on_interval_boundaries() {
        let mut s = Sampler::with_interval(100);
        assert!(s.due(0));
        s.push(sample(0));
        assert!(!s.due(99));
        assert!(s.due(100));
        s.push(sample(100));
        assert_eq!(s.samples().len(), 2);
    }

    #[test]
    fn zero_interval_disables_sampling() {
        let s = Sampler::with_interval(0);
        assert!(!s.due(0));
        assert!(!s.due(1_000_000));
    }

    #[test]
    fn recent_returns_the_tail() {
        let mut s = Sampler::with_interval(1);
        for c in 0..10 {
            s.push(sample(c));
        }
        let r = s.recent(3);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].cycle, 7);
        assert_eq!(r[2].cycle, 9);
        assert_eq!(s.recent(100).len(), 10);
    }

    #[test]
    fn metrics_json_has_required_keys_and_parses() {
        let stats = Stats::new(2);
        let names = vec!["mcf".to_string(), "lbm".to_string()];
        let doc = metrics_json(&stats, &names, RunOutcome::Completed, &[sample(5)]);
        let text = doc.to_json();
        let back = JsonValue::parse(&text).expect("valid JSON");
        for key in [
            "schema", "outcome", "cycles", "cores", "mem", "emc", "samples",
        ] {
            assert!(back.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(
            back.get("schema").and_then(|v| v.as_str()),
            Some("emcsim-metrics-v1")
        );
        let lat = back.get("mem").and_then(|m| m.get("latency")).unwrap();
        for site in ["core_miss", "emc_miss", "dram_service", "on_chip_delay"] {
            let h = lat.get(site).unwrap_or_else(|| panic!("missing {site}"));
            for p in ["p50", "p95", "p99", "count"] {
                assert!(h.get(p).is_some(), "{site} missing {p}");
            }
        }
        let samples = back.get("samples").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(samples.len(), 1);
        assert!(samples[0].get("mc_queue_depth").is_some());
    }

    #[test]
    fn summary_json_reports_per_core_ipc_and_percentiles() {
        let mut stats = Stats::new(1);
        stats.cores[0].retired_uops = 1000;
        stats.cores[0].cycles = 500;
        for v in [100u64, 200, 400] {
            stats.mem.core_miss_latency.record(v);
        }
        let doc = summary_json(&stats, &["mcf".to_string()], RunOutcome::CapHit);
        let back = JsonValue::parse(&doc.to_json()).expect("valid JSON");
        assert_eq!(
            back.get("outcome").and_then(|v| v.as_str()),
            Some("cap-hit")
        );
        let ipc = back
            .get("cores")
            .and_then(|c| c.idx(0))
            .and_then(|c| c.get("ipc"))
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!((ipc - 2.0).abs() < 1e-9);
        let p99 = back
            .get("latency")
            .and_then(|l| l.get("core_miss"))
            .and_then(|h| h.get("p99"))
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!(p99 >= 256.0, "p99 {p99} should bracket the 400-cycle tail");
    }

    #[test]
    fn summary_json_exports_forward_progress_counters() {
        let mut stats = Stats::new(2);
        stats.mem.escalated_requests = 7;
        stats.cores[0].chains_aborted_lease = 2;
        stats.cores[1].chains_aborted_lease = 3;
        let names = vec!["mcf".to_string(), "lbm".to_string()];
        let doc = summary_json(&stats, &names, RunOutcome::Completed);
        let back = JsonValue::parse(&doc.to_json()).expect("valid JSON");
        let counters = back.get("counters").expect("counters object");
        assert_eq!(
            counters.get("escalated_requests").and_then(|v| v.as_f64()),
            Some(7.0)
        );
        assert_eq!(
            counters
                .get("chains_aborted_lease")
                .and_then(|v| v.as_f64()),
            Some(5.0),
            "summed across cores"
        );
        assert_eq!(
            back.get("cores")
                .and_then(|c| c.idx(1))
                .and_then(|c| c.get("chains_aborted_lease"))
                .and_then(|v| v.as_f64()),
            Some(3.0),
            "per-core breakdown exported too"
        );
    }
}
