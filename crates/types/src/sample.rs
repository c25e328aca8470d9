//! Time-series metric samples captured by the `--sample-interval`
//! sampler.
//!
//! One [`MetricSample`] is captured per epoch, recording the occupancy
//! of every scheduler-visible queue in the system. The samples feed the
//! metrics exporter (`--metrics-out`), counter tracks in the Chrome
//! trace (`--trace-out`), and — via
//! [`PostMortem::recent_samples`](crate::PostMortem) — the post-mortem
//! of a run that did not complete, so it shows the queue-depth history
//! leading up to the stop rather than just the final snapshot.

use crate::Cycle;

crate::json_struct! {
    /// Occupancy of every scheduler-visible queue at one sample epoch.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct MetricSample {
        /// Cycle the sample was taken.
        pub cycle: Cycle,
        /// Memory-controller queue depth, per MC.
        pub mc_queue_depth: Vec<u32>,
        /// Memory-controller retry-queue depth (rejected enqueues), per MC.
        pub mc_retry_depth: Vec<u32>,
        /// DRAM banks with an open row, per MC (row-buffer state).
        pub banks_open: Vec<u32>,
        /// Occupied EMC issue contexts, per MC.
        pub emc_busy_contexts: Vec<u32>,
        /// Ring links (either kind, either direction) busy this cycle.
        pub ring_busy_links: u32,
        /// Cache lines with an outstanding fill (MSHR occupancy).
        pub outstanding_misses: u32,
        /// Valid lines per LLC slice, in thousandths of its capacity.
        pub llc_occupancy: Vec<u32>,
        /// ROB occupancy, per core.
        pub rob_occupancy: Vec<u32>,
    }
}

impl MetricSample {
    /// Compact single-line rendering used by the wedge report.
    pub fn summary_line(&self) -> String {
        format!(
            "cycle {}: mcq={:?} retry={:?} banks_open={:?} emc_ctx={:?} ring_links={} \
             outstanding={} rob={:?}",
            self.cycle,
            self.mc_queue_depth,
            self.mc_retry_depth,
            self.banks_open,
            self.emc_busy_contexts,
            self.ring_busy_links,
            self.outstanding_misses,
            self.rob_occupancy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_names_every_queue() {
        let s = MetricSample {
            cycle: 4000,
            mc_queue_depth: vec![12, 3],
            mc_retry_depth: vec![0, 1],
            banks_open: vec![5, 2],
            emc_busy_contexts: vec![2, 0],
            ring_busy_links: 7,
            outstanding_misses: 31,
            llc_occupancy: vec![100, 90],
            rob_occupancy: vec![192, 14],
        };
        let line = s.summary_line();
        for needle in [
            "cycle 4000",
            "mcq=[12, 3]",
            "retry=[0, 1]",
            "banks_open=[5, 2]",
            "emc_ctx=[2, 0]",
            "ring_links=7",
            "outstanding=31",
            "rob=[192, 14]",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }
}
