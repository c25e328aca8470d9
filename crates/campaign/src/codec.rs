//! Lossless JSON codec for cached results.
//!
//! The cache's whole contract is that a hit is indistinguishable from a
//! fresh run — down to the bytes of every figure sidecar derived from
//! it. That requires an exact round-trip of [`RunResult`] (statistics,
//! histograms, energy breakdown) through the on-disk format, with no
//! external JSON crate on the runtime path (matching the metrics
//! exporters in `emc-sim`).
//!
//! [`RunResult`] and everything inside it are declared in
//! [`emc_types::json_struct!`], so their definitions are the on-disk
//! format and there is no field list here: the functions below (and
//! [`stats_to_json`], re-exported from [`emc_types::codec`]) name the
//! documents the rest of the workspace asks for by name.

use emc_types::{FromJson, JsonValue, ToJson};

pub use emc_types::codec::stats_to_json;

use crate::spec::RunResult;

/// Encode a full [`RunResult`].
pub fn run_result_to_json(r: &RunResult) -> JsonValue {
    r.to_json_value()
}

/// Decode a full [`RunResult`].
///
/// # Errors
///
/// Returns the path to the first missing or malformed field.
pub fn run_result_from_json(v: &JsonValue) -> Result<RunResult, String> {
    RunResult::from_json_value(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_types::{Histogram, Stats, SystemConfig};

    fn busy_stats() -> Stats {
        let mut s = Stats::new(2);
        s.cycles = 1_234_567;
        s.cores[0].retired_uops = 30_000;
        s.cores[0].llc_misses = 777;
        s.cores[0].record_chain_length(5);
        s.cores[0].stall_episodes.record(1024);
        s.cores[0].chains_aborted_lease = 2;
        s.cores[1].cycles = 999;
        s.mem.dram_reads = 4242;
        s.mem.core_miss_latency.record(300);
        s.mem.core_miss_latency.record(9000);
        s.mem.emc_miss_latency.record(250);
        s.mem.escalated_requests = 11;
        s.emc.chains_executed = 17;
        s.emc.chain_latency.record(512);
        s.prefetch.issued = 5;
        s
    }

    fn result() -> RunResult {
        let spec = crate::JobSpec::homog(
            emc_workloads::Benchmark::Mcf,
            SystemConfig::quad_core(),
            1000,
        );
        let mut r = spec.to_result(busy_stats());
        r.ipcs = vec![0.75, 0.5];
        r
    }

    fn assert_result_eq(a: &RunResult, b: &RunResult) {
        // RunResult has no PartialEq (Stats doesn't derive it); byte
        // equality of the canonical encoding is the stronger check
        // anyway — it is exactly what the cache relies on.
        assert_eq!(
            run_result_to_json(a).to_json(),
            run_result_to_json(b).to_json()
        );
    }

    #[test]
    fn run_result_round_trips_exactly() {
        let r = result();
        let text = run_result_to_json(&r).to_json();
        let back = run_result_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_result_eq(&r, &back);
        assert_eq!(back.stats.cycles, 1_234_567);
        assert_eq!(back.stats.mem.core_miss_latency.count, 2);
        assert_eq!(back.stats.mem.core_miss_latency.p99(), 9000);
        assert_eq!(back.stats.mem.escalated_requests, 11);
        assert_eq!(back.stats.cores[0].chain_length_hist[5], 1);
        assert_eq!(back.stats.cores[0].chains_aborted_lease, 2);
        assert_eq!(back.ipcs, vec![0.75, 0.5]);
    }

    #[test]
    fn saturated_u64_round_trips_via_string() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(1);
        let text = h.to_json_value().to_json();
        assert!(text.contains(&format!("\"{}\"", u64::MAX)), "{text}");
        let back = Histogram::from_json_value(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn empty_histogram_round_trips_with_empty_buckets() {
        let h = Histogram::new();
        let back =
            Histogram::from_json_value(&JsonValue::parse(&h.to_json_value().to_json()).unwrap())
                .unwrap();
        assert_eq!(back, h);
        assert!(back.buckets.is_empty());
    }

    #[test]
    fn decode_errors_name_the_path() {
        let mut doc = run_result_to_json(&result());
        if let JsonValue::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "energy");
        }
        let err = run_result_from_json(&doc).unwrap_err();
        assert!(err.contains("energy"), "{err}");

        let bad = JsonValue::parse(r#"{"count":1,"sum":-3,"min":0,"max":0,"buckets":[]}"#).unwrap();
        let err = Histogram::from_json_value(&bad).unwrap_err();
        assert!(err.contains("sum"), "{err}");
    }
}
