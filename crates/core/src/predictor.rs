//! The EMC's two small predictors.
//!
//! - [`DepMissCounter`]: the per-core 3-bit saturating counter that gates
//!   chain generation (§4.2): incremented when an LLC miss has a
//!   dependent cache miss, decremented otherwise; generation begins when
//!   either of the top two bits is set.
//! - [`MissPredictor`]: the per-core array of PC-hashed 3-bit counters
//!   (§4.3, after Qureshi & Loh \[47\]) that lets the EMC send a load
//!   straight to DRAM instead of querying the LLC.

/// Per-core 3-bit dependent-miss confidence counter.
///
/// # Example
///
/// ```
/// use emc_core::DepMissCounter;
///
/// let mut c = DepMissCounter::new(2);
/// assert!(!c.should_generate());
/// c.on_llc_miss(true);
/// c.on_llc_miss(true);
/// assert!(c.should_generate());
/// ```
#[derive(Debug, Clone)]
pub struct DepMissCounter {
    value: u8,
    trigger: u8,
}

impl DepMissCounter {
    /// Create a counter that triggers at `trigger` (the paper's "either
    /// of the top 2 bits set" = 2 for a 3-bit counter).
    pub fn new(trigger: u8) -> Self {
        DepMissCounter { value: 0, trigger }
    }

    /// Train on an LLC miss: did it have a dependent cache miss?
    pub fn on_llc_miss(&mut self, had_dependent: bool) {
        if had_dependent {
            self.value = (self.value + 1).min(7);
        } else {
            self.value = self.value.saturating_sub(1);
        }
    }

    /// Whether chain generation should begin at a full-window stall.
    pub fn should_generate(&self) -> bool {
        self.value >= self.trigger
    }
}

/// PC-hashed 3-bit LLC hit/miss predictor (one per core at the EMC).
#[derive(Debug, Clone)]
pub struct MissPredictor {
    counters: Vec<u8>,
    threshold: u8,
}

impl MissPredictor {
    /// Create a predictor with `entries` 3-bit counters and the given
    /// bypass threshold.
    pub fn new(entries: usize, threshold: u8) -> Self {
        MissPredictor {
            counters: vec![0; entries.next_power_of_two().max(16)],
            threshold,
        }
    }

    fn idx(&self, pc: u64) -> usize {
        // Simple multiplicative hash of the PC.
        let h = pc.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        (h as usize) & (self.counters.len() - 1)
    }

    /// Predict whether the load at `pc` will miss the LLC (if so, the
    /// EMC issues it directly to DRAM).
    pub fn predict_miss(&self, pc: u64) -> bool {
        self.counters[self.idx(pc)] >= self.threshold
    }

    /// Train with the actual outcome: miss increments, hit decrements.
    pub fn train(&mut self, pc: u64, was_miss: bool) {
        let i = self.idx(pc);
        if was_miss {
            self.counters[i] = (self.counters[i] + 1).min(7);
        } else {
            self.counters[i] = self.counters[i].saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dep_counter_saturates_both_ends() {
        let mut c = DepMissCounter::new(2);
        for _ in 0..20 {
            c.on_llc_miss(true);
        }
        assert_eq!(c.value, 7);
        for _ in 0..20 {
            c.on_llc_miss(false);
        }
        assert_eq!(c.value, 0);
        assert!(!c.should_generate());
    }

    #[test]
    fn dep_counter_hysteresis() {
        let mut c = DepMissCounter::new(2);
        c.on_llc_miss(true);
        assert!(!c.should_generate(), "one hit is not enough");
        c.on_llc_miss(true);
        assert!(c.should_generate());
        c.on_llc_miss(false);
        c.on_llc_miss(false);
        assert!(!c.should_generate());
    }

    #[test]
    fn miss_predictor_learns_per_pc() {
        let mut mp = MissPredictor::new(256, 4);
        for _ in 0..8 {
            mp.train(0x100, true);
            mp.train(0x204, false);
        }
        assert!(mp.predict_miss(0x100));
        assert!(!mp.predict_miss(0x204));
    }

    #[test]
    fn miss_predictor_counter_saturates() {
        let mut mp = MissPredictor::new(64, 4);
        for _ in 0..100 {
            mp.train(0x40, true);
        }
        // 7 hits (decrements) needed to fall below threshold 4.
        for _ in 0..3 {
            mp.train(0x40, false);
        }
        assert!(mp.predict_miss(0x40));
        for _ in 0..4 {
            mp.train(0x40, false);
        }
        assert!(!mp.predict_miss(0x40));
    }

    #[test]
    fn cold_predictor_predicts_hit() {
        let mp = MissPredictor::new(64, 4);
        assert!(!mp.predict_miss(0xdead));
    }
}
