//! Statistics counters collected by the simulator and consumed by the
//! figure harnesses and the energy model.
//!
//! Every statistic is declared once, here, inside `stats_struct!`: the
//! declaration gives the struct its canonical encoding (through
//! [`json_struct!`](crate::json_struct), the bytes of every cache entry)
//! and its [`StatsView`], the body of `emcsim --metrics-out`.
//! A new counter is one declaration plus one increment.

use crate::hist::{HistSummary, Histogram};
use crate::json::{u, JsonValue, ToJson};

/// The metrics view of a statistic: a counter or a vector as it is, a
/// [`Histogram`] as its [`HistSummary`], and a stats struct as an object
/// of its fields' views under their declared names, in declaration
/// order.
pub trait StatsView {
    /// Build the view.
    fn view(&self) -> JsonValue;
}

impl StatsView for u64 {
    fn view(&self) -> JsonValue {
        u(*self)
    }
}

impl StatsView for Histogram {
    fn view(&self) -> JsonValue {
        HistSummary::of(self).to_json_value()
    }
}

impl<T: StatsView> StatsView for Vec<T> {
    fn view(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(StatsView::view).collect())
    }
}

/// [`json_struct!`](crate::json_struct) plus the struct's [`StatsView`].
macro_rules! stats_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $ty:ty $(= $absent:expr)? ),* $(,)?
        }
    ) => {
        crate::json_struct! {
            $(#[$meta])*
            pub struct $name {
                $( $(#[$fmeta])* pub $field: $ty $(= $absent)? ),*
            }
        }

        impl StatsView for $name {
            fn view(&self) -> JsonValue {
                JsonValue::obj(vec![$( (stringify!($field), self.$field.view()) ),*])
            }
        }
    };
}

stats_struct! {
    /// Per-core pipeline statistics.
    #[derive(Debug, Clone, Default)]
    pub struct CoreStats {
        /// Cycles this core took to finish its benchmark (or cycles elapsed).
        pub cycles: u64,
        /// Retired micro-ops.
        pub retired_uops: u64,
        /// Retired loads.
        pub retired_loads: u64,
        /// Retired stores.
        pub retired_stores: u64,
        /// Retired branches.
        pub retired_branches: u64,
        /// Mispredicted branches.
        pub branch_mispredicts: u64,
        /// L1D accesses.
        pub l1d_accesses: u64,
        /// L1D misses.
        pub l1d_misses: u64,
        /// Demand LLC accesses by this core.
        pub llc_accesses: u64,
        /// Demand LLC misses by this core (core-issued only).
        pub llc_misses: u64,
        /// LLC misses that were data-dependent on an earlier in-flight LLC
        /// miss (the paper's "dependent cache misses", Figure 2).
        pub dependent_llc_misses: u64,
        /// Dependent cache misses that a prefetcher had already covered
        /// (Figure 3 numerator).
        pub dependent_misses_prefetched: u64,
        /// Sum over dependent misses of the number of chain uops between the
        /// source miss and the dependent miss (Figure 6 numerator).
        pub dep_chain_uop_sum: u64,
        /// Count of (source, dependent) miss pairs for the Figure 6 mean.
        pub dep_chain_pairs: u64,
        /// Cycles stalled with a full ROB whose head is an LLC-miss load.
        pub full_window_stall_cycles: u64,
        /// Dependence chains shipped to the EMC.
        pub chains_sent: u64,
        /// Total uops across all shipped chains (Figure 22).
        pub chain_uops_sent: u64,
        /// Total live-in registers shipped (§6.5).
        pub chain_live_ins: u64,
        /// Total live-out registers returned (§6.5).
        pub chain_live_outs: u64,
        /// Chains aborted because the EMC detected a mispredicted branch.
        pub chains_aborted_branch: u64,
        /// Chains aborted on an EMC TLB miss (core re-executes).
        pub chains_aborted_tlb: u64,
        /// Chains cancelled for memory-disambiguation conflicts.
        pub chains_cancelled_disambiguation: u64,
        /// Chains killed by injected EMC context faults (fault injection).
        pub chains_aborted_injected: u64,
        /// Chains killed because their EMC context lease expired without
        /// forward progress (liveness enforcement; absent from runs that
        /// predate it).
        pub chains_aborted_lease: u64 = 0,
        /// Times graceful degradation quiesced chain generation for this
        /// core after consecutive chain failures.
        pub emc_quiesce_events: u64,
        /// Demand misses by this core that hit in a prefetched line.
        pub prefetch_covered_misses: u64,
        /// Times the core entered runahead mode.
        pub runahead_entries: u64,
        /// Speculative uops pseudo-retired during runahead episodes.
        pub runahead_uops: u64,
        /// Memory requests issued from runahead mode (the prefetch effect).
        pub runahead_requests: u64,
        /// Histogram of shipped chain lengths (index = uops, 0..=16).
        pub chain_length_hist: Vec<u64>,
        /// Distribution of full-window stall *episode* lengths in cycles
        /// (one sample per contiguous stall; `full_window_stall_cycles` is
        /// the sum of all episodes).
        pub stall_episodes: Histogram,
    }
}

impl CoreStats {
    /// Record a shipped chain's length in the histogram.
    pub fn record_chain_length(&mut self, uops: usize) {
        if self.chain_length_hist.is_empty() {
            self.chain_length_hist = vec![0; 17];
        }
        let i = uops.min(16);
        self.chain_length_hist[i] += 1;
    }

    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired_uops as f64 / self.cycles as f64
        }
    }

    /// LLC misses per thousand retired instructions.
    pub fn mpki(&self) -> f64 {
        if self.retired_uops == 0 {
            0.0
        } else {
            1000.0 * self.llc_misses as f64 / self.retired_uops as f64
        }
    }

    /// Fraction of LLC misses that are dependent on a prior LLC miss.
    pub fn dependent_miss_fraction(&self) -> f64 {
        if self.llc_misses == 0 {
            0.0
        } else {
            self.dependent_llc_misses as f64 / self.llc_misses as f64
        }
    }
}

stats_struct! {
    /// DRAM / memory-controller statistics (summed over channels).
    #[derive(Debug, Clone, Default)]
    pub struct MemStats {
        /// Demand read requests serviced by DRAM.
        pub dram_reads: u64,
        /// Write-backs serviced by DRAM.
        pub dram_writes: u64,
        /// Prefetch reads serviced by DRAM.
        pub dram_prefetches: u64,
        /// Row-buffer hits.
        pub row_hits: u64,
        /// Row-buffer conflicts (row open to a different row).
        pub row_conflicts: u64,
        /// Row-buffer "empty" accesses (bank precharged, plain activate).
        pub row_empties: u64,
        /// DRAM activate commands issued.
        pub activates: u64,
        /// DRAM precharge commands issued.
        pub precharges: u64,
        /// Latency of core-issued demand misses, creation → delivery (Fig 18).
        pub core_miss_latency: Histogram,
        /// Latency of EMC-issued demand misses, creation → delivery (Fig 18).
        pub emc_miss_latency: Histogram,
        /// Ring/fill-path component of core-issued miss latency (Fig 19).
        pub core_ring_component: Histogram,
        /// Cache-hierarchy component of core-issued miss latency (Fig 19).
        pub core_cache_component: Histogram,
        /// MC queueing component of core-issued miss latency (Fig 19).
        pub core_queue_component: Histogram,
        /// Ring/fill-path component of EMC-issued miss latency.
        pub emc_ring_component: Histogram,
        /// Cache-hierarchy component of EMC-issued miss latency.
        pub emc_cache_component: Histogram,
        /// MC queueing component of EMC-issued miss latency.
        pub emc_queue_component: Histogram,
        /// Pure DRAM service latency across demand misses (Figure 1).
        pub dram_service_latency: Histogram,
        /// On-chip delay across demand misses (Figure 1).
        pub on_chip_delay: Histogram,
        /// DRAM accesses re-issued with a latency penalty by injected
        /// ECC-style faults.
        pub ecc_reissues: u64,
        /// Injected queue-full backpressure storms started.
        pub backpressure_storms: u64,
        /// Requests escalated by anti-starvation aging (queue age crossed
        /// the liveness escalation threshold; absent from runs that
        /// predate it).
        pub escalated_requests: u64 = 0,
    }
}

impl MemStats {
    /// Row-buffer conflict rate among DRAM accesses.
    pub fn row_conflict_rate(&self) -> f64 {
        let total = self.row_hits + self.row_conflicts + self.row_empties;
        if total == 0 {
            0.0
        } else {
            self.row_conflicts as f64 / total as f64
        }
    }

    /// Total DRAM data transfers (reads + writes + prefetches), a proxy for
    /// memory bandwidth consumption (§6.6 traffic numbers).
    pub fn dram_traffic(&self) -> u64 {
        self.dram_reads + self.dram_writes + self.dram_prefetches
    }
}

stats_struct! {
    /// Ring interconnect statistics (§6.5 overhead numbers).
    #[derive(Debug, Clone, Default)]
    pub struct RingStats {
        /// Control-ring messages.
        pub control_msgs: u64,
        /// Data-ring messages.
        pub data_msgs: u64,
        /// Control-ring messages attributable to the EMC.
        pub emc_control_msgs: u64,
        /// Data-ring messages attributable to the EMC (chains, live-ins/outs).
        pub emc_data_msgs: u64,
        /// Total hop·message products (for occupancy/energy).
        pub total_hops: u64,
        /// Messages hit by an injected ring delay fault.
        pub injected_delays: u64,
    }
}

stats_struct! {
    /// EMC statistics (§6.3, Figures 15, 17, 21, 22).
    #[derive(Debug, Clone, Default)]
    pub struct EmcStats {
        /// Chains accepted and executed (at least partially).
        pub chains_executed: u64,
        /// Uops executed at the EMC.
        pub uops_executed: u64,
        /// Loads executed at the EMC.
        pub loads_executed: u64,
        /// Stores executed at the EMC (register spills).
        pub stores_executed: u64,
        /// EMC data-cache accesses.
        pub dcache_accesses: u64,
        /// EMC data-cache hits (Figure 17).
        pub dcache_hits: u64,
        /// Loads sent directly to DRAM on a predicted LLC miss.
        pub direct_to_dram: u64,
        /// Loads that queried the LLC (predicted hit).
        pub llc_lookups: u64,
        /// LLC misses generated by EMC execution (Figure 15 numerator).
        pub llc_misses_generated: u64,
        /// EMC TLB hits.
        pub tlb_hits: u64,
        /// EMC TLB misses (chain handed back to the core).
        pub tlb_misses: u64,
        /// Chains rejected because no context was free.
        pub chains_rejected_busy: u64,
        /// Mispredicted branches detected during chain execution.
        pub branch_mispredicts_detected: u64,
        /// EMC-generated misses that were LLC hits due to a prefetcher
        /// (Figure 21 numerator, measured against the no-prefetch EMC set).
        pub requests_covered_by_prefetch: u64,
        /// Distribution of chain ship-to-completion latency in cycles
        /// (data-ring departure at the core to context release at the EMC).
        pub chain_latency: Histogram,
    }
}

impl EmcStats {
    /// EMC data-cache hit rate (Figure 17).
    pub fn dcache_hit_rate(&self) -> f64 {
        if self.dcache_accesses == 0 {
            0.0
        } else {
            self.dcache_hits as f64 / self.dcache_accesses as f64
        }
    }
}

stats_struct! {
    /// Prefetcher statistics.
    #[derive(Debug, Clone, Default)]
    pub struct PrefetchStats {
        /// Prefetch requests issued to the memory system.
        pub issued: u64,
        /// Prefetched lines later hit by a demand access (useful).
        pub useful: u64,
        /// Prefetched lines evicted without use.
        pub useless: u64,
        /// Current FDP dynamic degree (last value).
        pub degree: u64,
    }
}

impl PrefetchStats {
    /// Prefetch accuracy (useful / issued).
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.useful as f64 / self.issued as f64
        }
    }
}

stats_struct! {
    /// All statistics for one simulation run.
    #[derive(Debug, Clone, Default)]
    pub struct Stats {
        /// Total cycles simulated (max over cores).
        pub cycles: u64,
        /// Per-core pipeline stats.
        pub cores: Vec<CoreStats>,
        /// Memory-system stats.
        pub mem: MemStats,
        /// Ring stats.
        pub ring: RingStats,
        /// EMC stats (zeroed when the EMC is disabled).
        pub emc: EmcStats,
        /// Prefetcher stats (zeroed when prefetching is off).
        pub prefetch: PrefetchStats,
    }
}

impl Stats {
    /// Create stats for `cores` cores.
    pub fn new(cores: usize) -> Self {
        Stats {
            cores: vec![CoreStats::default(); cores],
            ..Default::default()
        }
    }

    /// Sum of per-core IPCs (throughput metric).
    pub fn ipc_sum(&self) -> f64 {
        self.cores.iter().map(|c| c.ipc()).sum()
    }

    /// Weighted speedup against per-core baseline IPCs:
    /// `sum_i IPC_shared_i / IPC_baseline_i`.
    ///
    /// # Panics
    ///
    /// Panics if `baseline_ipcs.len()` differs from the core count.
    pub fn weighted_speedup(&self, baseline_ipcs: &[f64]) -> f64 {
        assert_eq!(
            baseline_ipcs.len(),
            self.cores.len(),
            "baseline core count mismatch"
        );
        self.cores
            .iter()
            .zip(baseline_ipcs)
            .map(|(c, b)| if *b > 0.0 { c.ipc() / b } else { 0.0 })
            .sum()
    }

    /// Fraction of all LLC misses generated by the EMC (Figure 15).
    pub fn emc_miss_fraction(&self) -> f64 {
        let core: u64 = self.cores.iter().map(|c| c.llc_misses).sum();
        let total = core + self.emc.llc_misses_generated;
        if total == 0 {
            0.0
        } else {
            self.emc.llc_misses_generated as f64 / total as f64
        }
    }

    /// Mean chain length in uops (Figure 22).
    pub fn mean_chain_uops(&self) -> f64 {
        let chains: u64 = self.cores.iter().map(|c| c.chains_sent).sum();
        let uops: u64 = self.cores.iter().map(|c| c.chain_uops_sent).sum();
        if chains == 0 {
            0.0
        } else {
            uops as f64 / chains as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sites_are_histograms_with_percentiles() {
        let mut m = MemStats::default();
        m.core_miss_latency.record(100);
        m.core_miss_latency.record(300);
        m.core_miss_latency.record(900);
        assert_eq!(m.core_miss_latency.count, 3);
        assert!((m.core_miss_latency.mean() - 433.333).abs() < 0.001);
        assert_eq!(m.core_miss_latency.percentile(0.0), 100);
        assert_eq!(m.core_miss_latency.percentile(100.0), 900);
        let mut e = EmcStats::default();
        e.chain_latency.record(50);
        assert_eq!(e.chain_latency.p99(), 50);
        let mut c = CoreStats::default();
        c.stall_episodes.record(1000);
        assert_eq!(c.stall_episodes.max, 1000);
    }

    #[test]
    fn core_derived_metrics() {
        let c = CoreStats {
            cycles: 1000,
            retired_uops: 500,
            llc_misses: 10,
            dependent_llc_misses: 4,
            ..Default::default()
        };
        assert_eq!(c.ipc(), 0.5);
        assert_eq!(c.mpki(), 20.0);
        assert_eq!(c.dependent_miss_fraction(), 0.4);
    }

    #[test]
    fn zero_division_is_safe() {
        let c = CoreStats::default();
        assert_eq!(c.ipc(), 0.0);
        assert_eq!(c.mpki(), 0.0);
        assert_eq!(c.dependent_miss_fraction(), 0.0);
        let m = MemStats::default();
        assert_eq!(m.row_conflict_rate(), 0.0);
        let e = EmcStats::default();
        assert_eq!(e.dcache_hit_rate(), 0.0);
        let p = PrefetchStats::default();
        assert_eq!(p.accuracy(), 0.0);
    }

    #[test]
    fn weighted_speedup() {
        let mut s = Stats::new(2);
        s.cores[0].cycles = 100;
        s.cores[0].retired_uops = 100; // IPC 1.0
        s.cores[1].cycles = 100;
        s.cores[1].retired_uops = 50; // IPC 0.5
        let ws = s.weighted_speedup(&[0.5, 0.5]);
        assert!((ws - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn weighted_speedup_validates_len() {
        Stats::new(2).weighted_speedup(&[1.0]);
    }

    #[test]
    fn emc_fraction() {
        let mut s = Stats::new(1);
        s.cores[0].llc_misses = 78;
        s.emc.llc_misses_generated = 22;
        assert!((s.emc_miss_fraction() - 0.22).abs() < 1e-9);
    }

    #[test]
    fn chain_length_histogram() {
        let mut c = CoreStats::default();
        c.record_chain_length(3);
        c.record_chain_length(3);
        c.record_chain_length(16);
        c.record_chain_length(99); // clamped
        assert_eq!(c.chain_length_hist[3], 2);
        assert_eq!(c.chain_length_hist[16], 2);
    }

    #[test]
    fn chain_mean() {
        let mut s = Stats::new(2);
        s.cores[0].chains_sent = 2;
        s.cores[0].chain_uops_sent = 10;
        s.cores[1].chains_sent = 2;
        s.cores[1].chain_uops_sent = 26;
        assert_eq!(s.mean_chain_uops(), 9.0);
    }

    #[test]
    fn view_keeps_counters_and_summarises_histograms() {
        let mut s = Stats::new(1);
        s.emc.chains_executed = 3;
        s.emc.chain_latency.record(40);
        s.cores[0].record_chain_length(2);
        let view = s.view();
        let emc = view.get("emc").unwrap();
        assert_eq!(emc.get("chains_executed"), Some(&JsonValue::from(3u64)));
        let latency = HistSummary::of(&s.emc.chain_latency).to_json_value();
        assert_eq!(emc.get("chain_latency"), Some(&latency));
        let core = view.get("cores").and_then(|c| c.idx(0)).unwrap();
        assert_eq!(
            core.get("chain_length_hist"),
            Some(&s.cores[0].chain_length_hist.to_json_value())
        );
    }

    #[test]
    fn row_conflict_rate() {
        let m = MemStats {
            row_hits: 50,
            row_conflicts: 25,
            row_empties: 25,
            ..Default::default()
        };
        assert_eq!(m.row_conflict_rate(), 0.25);
        assert_eq!(m.dram_traffic(), 0);
    }
}
