//! Canonical, lossless JSON encoding of configs and statistics.
//!
//! This is the one encoding used wherever a config or a statistics block
//! crosses a process boundary: the campaign result cache and its
//! content-addressed keys, and the `emcsim` exporters. There is no field
//! list here. Every struct involved is declared inside
//! [`json_struct!`](crate::json_struct), which derives both directions
//! from the definition; the functions below name the two documents the
//! rest of the workspace asks for by name.
//!
//! Two invariants make the encoding canonical:
//!
//! - **Exact numbers.** Floats use Rust's shortest round-trip
//!   formatting; `u64` counters above 2^53 are carried as strings (see
//!   [`u`]) so nothing is flattened onto the JSON double grid.
//! - **One list of fields.** A struct's declaration *is* its document:
//!   keys are the field names in declaration order, so a new config or
//!   stats field enters the cache key and the cache entry by being
//!   declared, and there is no second list to forget. The other edge is
//!   that reordering or renaming a field moves every byte derived from
//!   it; the encoding goldens in `tests/golden_digests.rs` pin them.
//!
//! Decoders are tolerant in exactly one dimension: a field declared
//! `= value` decodes as that value when its key is missing, so documents
//! written before the field existed still load.

use crate::config::SystemConfig;
use crate::json::{JsonValue, ToJson};
use crate::stats::Stats;

pub use crate::json::{dec_u64, u};

/// Encode full run statistics.
pub fn stats_to_json(s: &Stats) -> JsonValue {
    s.to_json_value()
}

/// Canonical encoding of a [`SystemConfig`], every field of every nested
/// struct: the document the campaign engine hashes into
/// content-addressed job keys.
pub fn config_to_json(cfg: &SystemConfig) -> JsonValue {
    cfg.to_json_value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultPlan, LivenessConfig, PrefetcherKind};
    use crate::json::FromJson;

    #[test]
    fn config_round_trips_exactly() {
        let mut cfg = SystemConfig::quad_core().with_faults(FaultPlan::chaos());
        cfg.prefetcher = PrefetcherKind::MarkovStream;
        cfg.liveness.emc_lease = 12_345;
        cfg.liveness.enabled = false;
        let text = config_to_json(&cfg).to_json();
        let back = SystemConfig::from_json_value(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, cfg);
        // Byte-stable: re-encoding the decoded config is identical.
        assert_eq!(config_to_json(&back).to_json(), text);
    }

    #[test]
    fn legacy_config_without_faults_or_liveness_decodes_with_defaults() {
        let doc = config_to_json(&SystemConfig::quad_core());
        let JsonValue::Obj(pairs) = &doc else {
            panic!("config encodes as an object")
        };
        let stripped = JsonValue::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "faults" && k != "liveness")
                .cloned()
                .collect(),
        );
        let back = SystemConfig::from_json_value(&stripped).unwrap();
        assert_eq!(back.faults, FaultPlan::default());
        assert_eq!(back.liveness, LivenessConfig::default());
        assert_eq!(back, SystemConfig::quad_core());
    }

    #[test]
    fn prefetcher_label_round_trips() {
        for pf in PrefetcherKind::ALL {
            assert_eq!(PrefetcherKind::from_label(pf.label()), Some(pf));
        }
        assert_eq!(PrefetcherKind::from_label("bogus"), None);
    }

    #[test]
    fn stats_round_trip_preserves_new_liveness_counters() {
        let mut s = Stats::new(1);
        s.cores[0].chains_aborted_lease = 3;
        s.mem.escalated_requests = 99;
        let text = stats_to_json(&s).to_json();
        let back = Stats::from_json_value(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back.cores[0].chains_aborted_lease, 3);
        assert_eq!(back.mem.escalated_requests, 99);
    }

    #[test]
    fn stats_without_liveness_counters_decode_as_zero() {
        let doc = stats_to_json(&Stats::new(1));
        let strip = |v: &JsonValue, keys: &[&str]| -> JsonValue {
            let JsonValue::Obj(pairs) = v else {
                panic!("expected object")
            };
            JsonValue::Obj(
                pairs
                    .iter()
                    .filter(|(k, _)| !keys.contains(&k.as_str()))
                    .cloned()
                    .collect(),
            )
        };
        let JsonValue::Obj(mut pairs) = doc else {
            panic!("stats encodes as an object")
        };
        for (k, v) in &mut pairs {
            if k == "mem" {
                *v = strip(v, &["escalated_requests"]);
            } else if k == "cores" {
                let JsonValue::Arr(cores) = v else {
                    panic!("cores is an array")
                };
                for c in cores {
                    *c = strip(c, &["chains_aborted_lease"]);
                }
            }
        }
        let back = Stats::from_json_value(&JsonValue::Obj(pairs)).unwrap();
        assert_eq!(back.cores[0].chains_aborted_lease, 0);
        assert_eq!(back.mem.escalated_requests, 0);
    }

    #[test]
    fn decode_errors_name_dotted_paths() {
        let doc = config_to_json(&SystemConfig::quad_core());
        let JsonValue::Obj(mut pairs) = doc else {
            panic!("config encodes as an object")
        };
        for (k, v) in &mut pairs {
            if k == "dram" {
                if let JsonValue::Obj(dp) = v {
                    dp.retain(|(dk, _)| dk != "t_cas");
                }
            }
        }
        let err = SystemConfig::from_json_value(&JsonValue::Obj(pairs)).unwrap_err();
        assert!(err.contains("dram.") && err.contains("t_cas"), "{err}");
    }
}
