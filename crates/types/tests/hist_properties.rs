//! Property-based tests for the log2 latency histogram.
//!
//! The histogram backs every latency claim the simulator makes, so its
//! algebra must be airtight: merging partial histograms (per-MC, per-
//! core) must equal recording into one, percentile estimates must be
//! monotone and bounded by the bucket width, and the exact aggregates
//! (count/sum/min/max) must never drift from the recorded samples.

use emc_types::rng::{for_each_case, SmallRng};
use emc_types::{FromJson, Histogram, JsonValue, ToJson};

fn hist_of(vals: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in vals {
        h.record(v);
    }
    h
}

/// `min_len..max_len` arbitrary 64-bit samples.
fn any_vals(rng: &mut SmallRng, min_len: u64, max_len: u64) -> Vec<u64> {
    (0..rng.gen_range(min_len..max_len))
        .map(|_| rng.next_u64())
        .collect()
}

/// Merging two histograms is exactly recording the concatenation —
/// including the empty-side edge cases where `merge` takes
/// shortcuts.
#[test]
fn merge_matches_concatenated_recording() {
    for_each_case(0x5eed_7001, 256, |rng| {
        let (a, b) = (any_vals(rng, 0, 200), any_vals(rng, 0, 200));
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        assert_eq!(merged, hist_of(&concat));
    });
}

/// Merge order never matters: (a + b) + c == a + (b + c) and
/// a + b == b + a.
#[test]
fn merge_is_associative_and_commutative() {
    for_each_case(0x5eed_7002, 256, |rng| {
        let [ha, hb, hc] = [(); 3].map(|()| hist_of(&any_vals(rng, 0, 100)));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb;
        ba.merge(&ha);
        assert_eq!(ab, ba);
    });
}

/// Exact aggregates match the samples: count, sum, min, max, and
/// total bucket mass. (Values are bounded so the sum cannot
/// saturate — saturation is covered by a unit test.)
#[test]
fn aggregates_are_exact() {
    for_each_case(0x5eed_7003, 256, |rng| {
        let vals: Vec<u64> = (0..rng.gen_range(1..300))
            .map(|_| rng.gen_range(0..1 << 32))
            .collect();
        let h = hist_of(&vals);
        assert_eq!(h.count, vals.len() as u64);
        assert_eq!(h.sum, vals.iter().sum::<u64>());
        assert_eq!(h.min, *vals.iter().min().unwrap());
        assert_eq!(h.max, *vals.iter().max().unwrap());
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    });
}

/// Percentile estimates are monotone in `p`, stay inside
/// `[min, max]`, and are exact at the endpoints.
#[test]
fn percentile_is_monotone_and_bounded() {
    for_each_case(0x5eed_7004, 256, |rng| {
        let h = hist_of(&any_vals(rng, 1, 300));
        assert_eq!(h.percentile(0.0), h.min);
        assert_eq!(h.percentile(100.0), h.max);
        let mut last = 0u64;
        for step in 0..=100u32 {
            let p = f64::from(step);
            let v = h.percentile(p);
            assert!(v >= last, "percentile({p}) = {v} < {last}");
            assert!(v >= h.min && v <= h.max);
            last = v;
        }
    });
}

/// The log2-bucket error bound: the estimate for percentile `p`
/// never undershoots the true order statistic and never exceeds
/// twice it (the width of its bucket).
#[test]
fn percentile_error_bounded_by_bucket_width() {
    for_each_case(0x5eed_7005, 256, |rng| {
        let vals = any_vals(rng, 1, 300);
        let h = hist_of(&vals);
        let p = rng.gen_range(0..101) as f64;
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        let est = h.percentile(p);
        assert!(est >= truth, "estimate {est} under true p{p}={truth}");
        if truth > 0 {
            assert!(
                est <= truth.saturating_mul(2),
                "estimate {est} beyond bucket bound for true p{p}={truth}"
            );
        } else {
            assert_eq!(est, 0);
        }
    });
}

/// A histogram survives the wire exactly: encoded by the codec,
/// rendered to text, parsed and decoded again. (The name is from when
/// the wire was serde's.)
#[test]
fn serde_round_trip() {
    for_each_case(0x5eed_7006, 256, |rng| {
        let h = hist_of(&any_vals(rng, 0, 100));
        let text = h.to_json_value().to_json();
        let back = Histogram::from_json_value(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
    });
}
