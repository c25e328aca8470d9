//! The time-series metrics pipeline: a configurable [`Sampler`] that
//! captures queue-occupancy [`MetricSample`]s each epoch, and the JSON
//! exporter behind `emcsim --metrics-out` and `--json`.
//!
//! All JSON here is rendered through [`JsonValue`]. The schema is
//! versioned by a `"schema"` key so downstream consumers can detect
//! format changes.

use emc_types::{Cycle, JsonValue, MetricSample, RunOutcome, Stats, StatsView, ToJson};

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
/// simulator asks [`Sampler::next_wake`] each cycle it ticks and pushes
/// a sample it assembled when the answer is that cycle. Sampling is on by default at [`DEFAULT_SAMPLE_INTERVAL`];
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

    /// The first cycle from `now` at which a sample is due (`now`: take
    /// one) — `Cycle::MAX` while sampling is disabled.
    #[inline]
    pub fn next_wake(&self, now: Cycle) -> Cycle {
        if self.interval == 0 {
            Cycle::MAX
        } else {
            self.next.max(now)
        }
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

/// The full `--metrics-out` document (`emcsim-metrics-v2`): the run
/// outcome, every declared statistic under its declared name (the
/// [`StatsView`] of [`Stats`], each core's object opening with its index,
/// benchmark, IPC and MPKI), and the captured time-series samples.
pub fn metrics_json(
    stats: &Stats,
    names: &[String],
    outcome: RunOutcome,
    samples: &[MetricSample],
) -> JsonValue {
    let mut doc = vec![
        ("schema".to_string(), "emcsim-metrics-v2".into()),
        ("outcome".to_string(), outcome.to_json_value()),
    ];
    if let JsonValue::Obj(view) = stats.view() {
        doc.extend(view);
    }
    for (key, value) in &mut doc {
        let ("cores", JsonValue::Arr(cores)) = (key.as_str(), value) else {
            continue;
        };
        for (i, (core, c)) in cores.iter_mut().zip(&stats.cores).enumerate() {
            if let JsonValue::Obj(fields) = core {
                let bench = names.get(i).map(String::as_str).unwrap_or("?");
                let head = [
                    ("core", i.into()),
                    ("bench", bench.into()),
                    ("ipc", c.ipc().into()),
                    ("mpki", c.mpki().into()),
                ];
                fields.splice(0..0, head.map(|(k, v)| (k.to_string(), v)));
            }
        }
    }
    doc.push(("samples".to_string(), samples.to_json_value()));
    JsonValue::Obj(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_types::{FromJson, HistSummary, Histogram};

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
        assert_eq!(s.next_wake(0), 0);
        s.push(sample(0));
        assert_eq!(s.next_wake(99), 100);
        assert_eq!(s.next_wake(100), 100);
        s.push(sample(100));
        assert_eq!(s.samples().len(), 2);
    }

    #[test]
    fn zero_interval_disables_sampling() {
        let s = Sampler::with_interval(0);
        assert_eq!(s.next_wake(0), Cycle::MAX);
        assert_eq!(s.next_wake(1_000_000), Cycle::MAX);
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

    /// Every leaf of the canonical encoding `canonical` is at the same
    /// path in `doc`: counters and vectors equal, histograms summarised.
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
    fn metrics_json_has_required_keys_and_parses() {
        let mut stats = Stats::new(2);
        stats.cores[1].record_chain_length(4);
        stats.mem.core_miss_latency.record(300);
        let names = vec!["mcf".to_string(), "lbm".to_string()];
        let doc = metrics_json(&stats, &names, RunOutcome::Completed, &[sample(5)]);
        let text = doc.to_json();
        let back = JsonValue::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = match &back {
            JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(
            keys,
            ["schema", "outcome", "cycles", "cores", "mem", "ring", "emc", "prefetch", "samples"]
        );
        assert_eq!(
            back.get("schema").and_then(|v| v.as_str()),
            Some("emcsim-metrics-v2")
        );
        assert_eq!(
            back.get("outcome").and_then(|v| v.as_str()),
            Some("completed")
        );
        // Every declared statistic, under its declared name.
        assert_exported(&stats.to_json_value(), &back, "");
        let core = back.get("cores").and_then(|c| c.idx(1)).unwrap();
        assert_eq!(core.get("bench").and_then(|v| v.as_str()), Some("lbm"));
        assert!(core.get("ipc").is_some() && core.get("mpki").is_some());
        let samples = back.get("samples").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(samples.len(), 1);
        assert!(samples[0].get("mc_queue_depth").is_some());
    }
}
