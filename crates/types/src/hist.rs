//! Log2-bucketed latency histograms.
//!
//! The paper's latency claims are *distribution* claims (Figures 18–20
//! show the EMC shaving the tail of dependent-miss latency), so every
//! latency site in [`crate::stats`] records into a [`Histogram`] rather
//! than a bare count+sum pair. Buckets are powers of two: bucket 0 holds
//! the value 0 and bucket `i` (for `i >= 1`) holds `[2^(i-1), 2^i - 1]`
//! (the last bucket saturates at `u64::MAX`). That gives constant-size
//! state (65 buckets), O(1) recording, exact count/sum/min/max, and
//! percentile estimates whose error is bounded by the bucket width.

/// Number of log2 buckets: one for zero plus one per bit of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

crate::json_struct! {
    /// An accumulating latency histogram (log2 buckets, exact count/sum/
    /// min/max, percentile estimates, mergeable).
    ///
    /// The bucket vector is allocated lazily on the first
    /// [`record`](Histogram::record), so a default (empty) histogram is as
    /// cheap as the count+sum statistic it replaced.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct Histogram {
        /// Number of samples.
        pub count: u64,
        /// Sum of sample values.
        pub sum: u64,
        /// Smallest sample (0 when empty).
        pub min: u64,
        /// Largest sample (0 when empty).
        pub max: u64,
        /// Per-bucket sample counts; empty until the first record.
        pub buckets: Vec<u64>,
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros(v)`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; HISTOGRAM_BUCKETS];
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Record one wall-clock duration sample that may come from an
    /// untrusted clock. Values at or above 2^63 (a clock anomaly: no
    /// real wait is 292 years in nanoseconds) are clamped to
    /// `2^63 - 1` before recording, so downstream `sum` arithmetic
    /// keeps headroom even when many anomalous samples merge, while
    /// `count` still advances by exactly one per call — a service
    /// wait-time histogram can never lose samples or panic because a
    /// host clock stepped backwards and a subtraction wrapped.
    pub fn saturating_record(&mut self, value: u64) {
        self.record(value.min((1u64 << 63) - 1));
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if self.buckets.is_empty() {
            self.buckets = vec![0; HISTOGRAM_BUCKETS];
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Mean value, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated value at percentile `p` in `[0, 100]`.
    ///
    /// Returns the inclusive upper bound of the bucket containing the
    /// `ceil(p/100 * count)`-th smallest sample, clamped to the observed
    /// `[min, max]` range — so `percentile(0)`/`percentile(100)` are
    /// exact and the estimate is monotone non-decreasing in `p`. Returns
    /// 0 with no samples.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        if p == 0.0 {
            // The generic path would return the first occupied bucket's
            // upper bound, which overshoots the exact, tracked minimum.
            return self.min;
        }
        let target = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th-percentile estimate (the tail the EMC targets).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }
}

crate::json_struct! {
    /// Six-number summary of a [`Histogram`] for stats and report
    /// documents (the full bucket vector stays off the wire).
    #[derive(Debug, Clone, PartialEq)]
    pub struct HistSummary {
        /// Samples.
        pub count: u64,
        /// Mean value.
        pub mean: f64,
        /// Median.
        pub p50: u64,
        /// 95th percentile.
        pub p95: u64,
        /// 99th percentile.
        pub p99: u64,
        /// Largest sample.
        pub max: u64,
    }
}

impl HistSummary {
    /// Summarize a histogram.
    pub fn of(h: &Histogram) -> HistSummary {
        HistSummary {
            count: h.count,
            mean: h.mean(),
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
            max: h.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count, 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.p99(), 0);
        assert!(h.buckets.is_empty(), "no allocation before first record");
    }

    #[test]
    fn bucket_boundaries_at_zero_one_and_max() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.buckets[0], 1, "0 goes to bucket 0");
        assert_eq!(h.buckets[1], 1, "1 goes to bucket 1");
        assert_eq!(h.buckets[64], 1, "u64::MAX goes to the last bucket");
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
        // Sum saturates rather than wrapping.
        assert_eq!(h.sum, u64::MAX);
    }

    #[test]
    fn power_of_two_values_start_new_buckets() {
        for bit in 1..64u32 {
            let v = 1u64 << bit;
            assert_eq!(bucket_index(v), bit as usize + 1);
            assert_eq!(bucket_index(v - 1), bit as usize);
        }
    }

    #[test]
    fn mean_matches_exact_sum() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.mean(), 20.0);
        assert_eq!(h.sum, 60);
    }

    #[test]
    fn percentiles_bracket_the_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 1, "p0 is the min");
        assert_eq!(h.percentile(100.0), 1000, "p100 is the max");
        let p50 = h.p50();
        // 500 lives in bucket [256, 511]; the estimate is that bucket's
        // upper bound.
        assert!((500..=511).contains(&p50), "p50 was {p50}");
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 7, 100, 5000, 123_456, u64::MAX] {
            h.record(v);
        }
        let mut last = 0;
        for tenth in 0..=1000 {
            let p = tenth as f64 / 10.0;
            let v = h.percentile(p);
            assert!(v >= last, "percentile({p}) = {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        let mut h = Histogram::new();
        h.record(300);
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 300);
        }
        assert_eq!(h.min, 300);
        assert_eq!(h.max, 300);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = mk(&[1, 2, 3]);
        let b = mk(&[100, 200]);
        let c = mk(&[0, u64::MAX]);
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // b + a == a + b
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn saturating_record_clamps_clock_anomalies_and_preserves_count() {
        let mut h = Histogram::new();
        // A wrapped `now - then` subtraction produces values like these;
        // none may panic or be dropped.
        for v in [u64::MAX, u64::MAX - 1, 1u64 << 63, (1u64 << 63) - 1] {
            h.saturating_record(v);
        }
        assert_eq!(h.count, 4, "every anomalous sample is counted");
        assert_eq!(h.max, (1 << 63) - 1, "clamped to 2^63 - 1");
        assert_eq!(h.min, (1 << 63) - 1);
        // All four land in bucket 63 ([2^62, 2^63 - 1]); the u64::MAX
        // bucket stays empty because the values were clamped.
        assert_eq!(h.buckets[63], 4);
        assert_eq!(h.buckets[64], 0);
        // Sane values pass through unchanged.
        h.saturating_record(42);
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 42);
        // Merging two anomaly-heavy histograms still cannot overflow
        // count/sum arithmetic (sum saturates, count adds exactly).
        let other = h.clone();
        h.merge(&other);
        assert_eq!(h.count, 10);
        assert!(h.percentile(99.0) < (1 << 63));
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut h = Histogram::new();
        h.record(42);
        let orig = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, orig, "merging in empty changes nothing");
        let mut e = Histogram::new();
        e.merge(&orig);
        assert_eq!(e, orig, "merging into empty copies");
        // In particular min must not become 0.
        assert_eq!(e.min, 42);
    }

    #[test]
    fn hist_summary_matches_histogram_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = HistSummary::of(&h);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, h.p50());
        assert_eq!(s.p95, h.p95());
        assert_eq!(s.max, 1000);
    }
}
