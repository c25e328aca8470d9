//! Event-based chip and DRAM energy model in the spirit of McPAT and
//! CACTI (paper §5: "We model chip energy using McPAT and DRAM power
//! using CACTI. Shared structures dissipate static power until the
//! completion of the entire workload.").
//!
//! The paper's energy results (Figures 23–24) are *relative*: percentage
//! change in total chip+DRAM energy versus the no-EMC, no-prefetching
//! baseline. Those deltas depend on event counts (which our simulator
//! measures exactly) and on runtime (static energy), not on absolute
//! nanojoule calibration, so this model uses fixed per-event energies in
//! the published range for a 32 nm quad-core and DDR3 DRAM.
//!
//! The EMC is modeled as the paper prescribes (§5): a stripped-down core
//! with no front end, no rename, no floating-point pipe — 10.4% of a full
//! core's area, which we scale to its static power — plus explicit
//! chain-generation events at the home core (CDB tag broadcasts, RRT
//! reads/writes, ROB reads, ring transfers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use emc_types::{Stats, SystemConfig};

/// Per-event dynamic energies (nanojoules) and static powers (watts).
///
/// Defaults are in the range published for 32 nm out-of-order cores
/// (McPAT) and DDR3 devices (CACTI/Micron power calculators).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Core clock in GHz (converts cycles to seconds).
    pub clock_ghz: f64,
    /// Dynamic energy per retired integer uop (fetch/rename/issue/commit).
    pub core_uop_nj: f64,
    /// Extra dynamic energy per floating-point uop.
    pub fp_extra_nj: f64,
    /// L1 access.
    pub l1_access_nj: f64,
    /// LLC slice access.
    pub llc_access_nj: f64,
    /// One ring-link hop of a message.
    pub ring_hop_nj: f64,
    /// DRAM row activation.
    pub dram_activate_nj: f64,
    /// DRAM 64-byte read/write burst (including I/O).
    pub dram_rw_nj: f64,
    /// DRAM precharge.
    pub dram_precharge_nj: f64,
    /// EMC uop execution (2-wide, no front end).
    pub emc_uop_nj: f64,
    /// EMC data-cache access.
    pub emc_dcache_nj: f64,
    /// Chain generation: per-uop cost at the home core (CDB broadcast +
    /// RRT lookup/write + ROB read, §5).
    pub chain_gen_uop_nj: f64,
    /// Static power per core (W).
    pub core_static_w: f64,
    /// Static power per MB of LLC (W).
    pub llc_static_w_per_mb: f64,
    /// Static power per DRAM channel (background/refresh, W).
    pub dram_static_w_per_channel: f64,
    /// EMC static power as a fraction of one core (10.4% area, §6.6).
    pub emc_static_fraction: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            clock_ghz: 3.2,
            core_uop_nj: 0.15,
            fp_extra_nj: 0.20,
            l1_access_nj: 0.05,
            llc_access_nj: 0.50,
            ring_hop_nj: 0.10,
            dram_activate_nj: 2.0,
            dram_rw_nj: 4.0,
            dram_precharge_nj: 1.0,
            emc_uop_nj: 0.05,
            emc_dcache_nj: 0.02,
            chain_gen_uop_nj: 0.03,
            core_static_w: 1.2,
            llc_static_w_per_mb: 0.30,
            dram_static_w_per_channel: 0.50,
            emc_static_fraction: 0.104,
        }
    }
}

emc_types::json_struct! {
    /// Energy broken down by component, in joules.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct EnergyBreakdown {
        /// Core pipeline dynamic energy.
        pub core_dynamic_j: f64,
        /// L1 + LLC dynamic energy.
        pub cache_dynamic_j: f64,
        /// Ring interconnect dynamic energy.
        pub ring_dynamic_j: f64,
        /// DRAM dynamic energy (activates, bursts, precharges).
        pub dram_dynamic_j: f64,
        /// EMC execution + chain-generation dynamic energy.
        pub emc_dynamic_j: f64,
        /// Chip static energy (cores, LLC, EMC) over the run.
        pub chip_static_j: f64,
        /// DRAM background/refresh energy over the run.
        pub dram_static_j: f64,
    }
}

impl EnergyBreakdown {
    /// Total chip + DRAM energy.
    pub fn total_j(&self) -> f64 {
        self.core_dynamic_j
            + self.cache_dynamic_j
            + self.ring_dynamic_j
            + self.dram_dynamic_j
            + self.emc_dynamic_j
            + self.chip_static_j
            + self.dram_static_j
    }

    /// Percentage difference of this breakdown's total versus `base`
    /// (the Figure 23/24 metric).
    pub fn percent_vs(&self, base: &EnergyBreakdown) -> f64 {
        100.0 * (self.total_j() - base.total_j()) / base.total_j()
    }
}

/// Estimate the energy of a simulation run from its statistics.
///
/// # Example
///
/// ```
/// use emc_energy::{estimate, EnergyParams};
/// use emc_types::{Stats, SystemConfig};
///
/// let mut stats = Stats::new(4);
/// stats.cycles = 1_000_000;
/// for c in &mut stats.cores {
///     c.retired_uops = 300_000;
///     c.cycles = 1_000_000;
/// }
/// let e = estimate(&stats, &SystemConfig::quad_core(), &EnergyParams::default());
/// assert!(e.total_j() > 0.0);
/// assert!(e.chip_static_j > e.core_dynamic_j, "mostly-idle run is static-dominated");
/// ```
pub fn estimate(stats: &Stats, cfg: &SystemConfig, p: &EnergyParams) -> EnergyBreakdown {
    let nj = 1e-9;
    let seconds = stats.cycles as f64 / (p.clock_ghz * 1e9);

    let mut core_dynamic = 0.0;
    let mut cache_dynamic = 0.0;
    let mut chain_gen_uops = 0u64;
    for c in &stats.cores {
        core_dynamic += c.retired_uops as f64 * p.core_uop_nj * nj;
        // FP fraction is not tracked per-uop in stats; approximate from
        // the non-load/store/branch remainder at a fixed 15% FP share of
        // compute (the workloads' FP profiles dominate this number).
        let compute = c
            .retired_uops
            .saturating_sub(c.retired_loads + c.retired_stores + c.retired_branches);
        core_dynamic += compute as f64 * 0.15 * p.fp_extra_nj * nj;
        cache_dynamic += c.l1d_accesses as f64 * p.l1_access_nj * nj;
        cache_dynamic += c.llc_accesses as f64 * p.llc_access_nj * nj;
        chain_gen_uops += c.chain_uops_sent;
    }
    let ring_dynamic = stats.ring.total_hops as f64 * p.ring_hop_nj * nj;

    let dram_dynamic = (stats.mem.activates as f64 * p.dram_activate_nj
        + stats.mem.dram_traffic() as f64 * p.dram_rw_nj
        + stats.mem.precharges as f64 * p.dram_precharge_nj)
        * nj;

    let emc_dynamic = (stats.emc.uops_executed as f64 * p.emc_uop_nj
        + stats.emc.dcache_accesses as f64 * p.emc_dcache_nj
        + chain_gen_uops as f64 * p.chain_gen_uop_nj)
        * nj;

    let llc_mb = cfg.cores as f64 * cfg.llc_slice.bytes as f64 / (1024.0 * 1024.0);
    let mut chip_static_w = cfg.cores as f64 * p.core_static_w + llc_mb * p.llc_static_w_per_mb;
    if cfg.emc.enabled {
        chip_static_w += cfg.memory_controllers as f64 * p.emc_static_fraction * p.core_static_w;
    }
    let dram_static_w = cfg.dram.channels as f64 * p.dram_static_w_per_channel;

    EnergyBreakdown {
        core_dynamic_j: core_dynamic,
        cache_dynamic_j: cache_dynamic,
        ring_dynamic_j: ring_dynamic,
        dram_dynamic_j: dram_dynamic,
        emc_dynamic_j: emc_dynamic,
        chip_static_j: chip_static_w * seconds,
        dram_static_j: dram_static_w * seconds,
    }
}

/// Estimate with default parameters.
pub fn estimate_default(stats: &Stats, cfg: &SystemConfig) -> EnergyBreakdown {
    estimate(stats, cfg, &EnergyParams::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_stats(cycles: u64) -> Stats {
        let mut s = Stats::new(4);
        s.cycles = cycles;
        for c in &mut s.cores {
            c.cycles = cycles;
            c.retired_uops = cycles / 2;
            c.retired_loads = cycles / 10;
            c.l1d_accesses = cycles / 10;
            c.llc_accesses = cycles / 100;
        }
        s.mem.dram_reads = cycles / 200;
        s.mem.activates = cycles / 400;
        s.mem.precharges = cycles / 500;
        s.ring.total_hops = cycles / 50;
        s
    }

    #[test]
    fn longer_runs_cost_more_static_energy() {
        let cfg = SystemConfig::quad_core();
        let p = EnergyParams::default();
        let short = estimate(&base_stats(1_000_000), &cfg, &p);
        let long = estimate(&base_stats(2_000_000), &cfg, &p);
        assert!(long.chip_static_j > short.chip_static_j * 1.9);
        assert!(long.total_j() > short.total_j());
    }

    #[test]
    fn more_dram_traffic_costs_more() {
        let cfg = SystemConfig::quad_core();
        let p = EnergyParams::default();
        let mut a = base_stats(1_000_000);
        let mut b = base_stats(1_000_000);
        b.mem.dram_reads += 100_000;
        b.mem.activates += 50_000;
        let ea = estimate(&a, &cfg, &p);
        let eb = estimate(&b, &cfg, &p);
        assert!(eb.dram_dynamic_j > ea.dram_dynamic_j);
        assert!(eb.percent_vs(&ea) > 0.0);
        a.mem.dram_prefetches += 100_000; // prefetch traffic costs too
        let ea2 = estimate(&a, &cfg, &p);
        assert!(ea2.dram_dynamic_j > ea.dram_dynamic_j);
    }

    #[test]
    fn emc_adds_static_power_only_when_enabled() {
        let p = EnergyParams::default();
        let s = base_stats(1_000_000);
        let with = estimate(&s, &SystemConfig::quad_core(), &p);
        let without = estimate(&s, &SystemConfig::quad_core().without_emc(), &p);
        assert!(with.chip_static_j > without.chip_static_j);
        // ~10.4% of one core out of 4 cores + LLC: small.
        let ratio = with.chip_static_j / without.chip_static_j;
        assert!(ratio < 1.05, "EMC static overhead must be small: {ratio}");
    }

    #[test]
    fn performance_improvement_reduces_total_energy() {
        // Same work finished in fewer cycles → less static energy, same
        // dynamic energy → lower total (the paper's main energy effect).
        let cfg = SystemConfig::quad_core();
        let p = EnergyParams::default();
        let slow = estimate(&base_stats(2_000_000), &cfg, &p);
        let mut fast_stats = base_stats(2_000_000);
        fast_stats.cycles = 1_600_000;
        let fast = estimate(&fast_stats, &cfg, &p);
        assert!(fast.percent_vs(&slow) < 0.0);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let cfg = SystemConfig::quad_core();
        let e = estimate(&base_stats(500_000), &cfg, &EnergyParams::default());
        let sum = e.core_dynamic_j
            + e.cache_dynamic_j
            + e.ring_dynamic_j
            + e.dram_dynamic_j
            + e.emc_dynamic_j
            + e.chip_static_j
            + e.dram_static_j;
        assert!((sum - e.total_j()).abs() < 1e-12);
    }

    #[test]
    fn emc_dynamic_counts_chain_generation() {
        let cfg = SystemConfig::quad_core();
        let p = EnergyParams::default();
        let mut s = base_stats(1_000_000);
        let e0 = estimate(&s, &cfg, &p);
        s.emc.uops_executed = 50_000;
        s.emc.dcache_accesses = 20_000;
        s.cores[0].chain_uops_sent = 40_000;
        let e1 = estimate(&s, &cfg, &p);
        assert!(e1.emc_dynamic_j > e0.emc_dynamic_j);
    }
}
