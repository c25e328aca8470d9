//! System configuration mirroring Table 1 of the paper.
//!
//! All DRAM timings are expressed in *core* cycles at 3.2 GHz (the paper's
//! clock). DDR3-1600 with CAS 13.75 ns gives tCAS = tRCD = tRP ≈ 44 core
//! cycles; one 64-byte burst at an 800 MHz DDR bus takes 5 ns = 16 core
//! cycles.

crate::json_struct! {
    /// Which hardware prefetcher configuration is active (§5 of the paper:
    /// stream always accompanies Markov because it strictly helps it).
    /// The labels are the figure column names and the canonical config
    /// encoding (see [`json_struct!`](crate::json_struct)).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum PrefetcherKind {
        /// No prefetching (baseline).
        None = "No-PF",
        /// Global History Buffer G/DC delta-correlation prefetcher.
        Ghb = "GHB",
        /// IBM POWER4-style stream prefetcher.
        Stream = "Stream",
        /// Markov correlation prefetcher combined with the stream prefetcher.
        MarkovStream = "Markov+Stream",
    }
}

impl PrefetcherKind {
    /// The four configurations evaluated in the paper, in figure order.
    pub const ALL: [PrefetcherKind; 4] = [
        PrefetcherKind::None,
        PrefetcherKind::Ghb,
        PrefetcherKind::Stream,
        PrefetcherKind::MarkovStream,
    ];
}

crate::json_struct! {
    /// Core pipeline parameters (Table 1: 4-wide issue, 256-entry ROB,
    /// 92-entry reservation station, hybrid branch predictor, 3.2 GHz).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct CoreConfig {
        /// Uops fetched/renamed per cycle.
        pub fetch_width: usize,
        /// Uops issued to execution per cycle.
        pub issue_width: usize,
        /// Uops retired per cycle.
        pub retire_width: usize,
        /// Reorder buffer entries.
        pub rob_entries: usize,
        /// Reservation station entries.
        pub rs_entries: usize,
        /// Load/store queue entries.
        pub lsq_entries: usize,
        /// Pipeline refill penalty after a branch misprediction (cycles).
        pub mispredict_penalty: u64,
        /// Branch predictor global-history table size (entries, power of two).
        pub bp_table_entries: usize,
        /// Runahead execution (Mutlu et al., HPCA 2003): on a full-window
        /// stall, checkpoint and pre-execute past the blocking miss to
        /// prefetch *independent* misses. The paper's §1/§2 contrast: runahead
        /// cannot touch dependent misses, which is exactly what the EMC adds.
        pub runahead: bool,
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            fetch_width: 4,
            issue_width: 4,
            retire_width: 4,
            rob_entries: 256,
            rs_entries: 92,
            lsq_entries: 64,
            mispredict_penalty: 14,
            bp_table_entries: 4096,
            runahead: false,
        }
    }
}

crate::json_struct! {
    /// Parameters of one cache (L1 or one LLC slice).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct CacheConfig {
        /// Total capacity in bytes.
        pub bytes: u64,
        /// Associativity.
        pub ways: usize,
        /// Access latency in core cycles.
        pub latency: u64,
        /// Number of MSHR entries (outstanding misses).
        pub mshrs: usize,
    }
}

impl CacheConfig {
    /// 32 KB, 8-way, 3-cycle L1 (Table 1).
    pub fn l1() -> Self {
        CacheConfig {
            bytes: 32 * 1024,
            ways: 8,
            latency: 3,
            mshrs: 16,
        }
    }

    /// 1 MB, 8-way, 18-cycle LLC slice (Table 1).
    pub fn llc_slice() -> Self {
        CacheConfig {
            bytes: 1024 * 1024,
            ways: 8,
            latency: 18,
            mshrs: 32,
        }
    }

    /// Number of sets given 64-byte lines.
    pub fn sets(&self) -> usize {
        (self.bytes / crate::addr::CACHE_LINE_BYTES) as usize / self.ways
    }
}

crate::json_struct! {
    /// Ring interconnect parameters (Table 1: two bi-directional rings,
    /// 8-byte control and 64-byte data, 1-cycle links).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct RingConfig {
        /// Latency of one ring link hop, in cycles.
        pub link_cycles: u64,
        /// Extra cycle to bypass from a core into its own LLC slice stop.
        pub stop_cycles: u64,
    }
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            link_cycles: 1,
            stop_cycles: 1,
        }
    }
}

crate::json_struct! {
    /// DRAM device and channel parameters, in core cycles (3.2 GHz).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct DramConfig {
        /// Independent channels.
        pub channels: usize,
        /// Ranks per channel.
        pub ranks_per_channel: usize,
        /// Banks per rank (DDR3: 8).
        pub banks_per_rank: usize,
        /// Row-buffer size in bytes (Table 1: 8 KB).
        pub row_bytes: u64,
        /// Column access strobe latency (core cycles). 13.75 ns ≈ 44.
        pub t_cas: u64,
        /// Row-to-column delay (core cycles).
        pub t_rcd: u64,
        /// Row precharge time (core cycles).
        pub t_rp: u64,
        /// Minimum row-open time before precharge (core cycles). 35 ns ≈ 112.
        pub t_ras: u64,
        /// Data-bus occupancy of one 64-byte burst (core cycles). 5 ns ≈ 16.
        pub t_burst: u64,
        /// Memory-controller queue entries (Table 1: 128 quad / 256 eight).
        pub queue_entries: usize,
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 2,
            ranks_per_channel: 1,
            banks_per_rank: 8,
            row_bytes: 8 * 1024,
            t_cas: 44,
            t_rcd: 44,
            t_rp: 44,
            t_ras: 112,
            t_burst: 16,
            queue_entries: 128,
        }
    }
}

crate::json_struct! {
    /// Prefetcher parameters (Table 1).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct PrefetchConfig {
        /// Stream prefetcher: concurrent streams tracked per core.
        pub stream_count: usize,
        /// Stream prefetcher: maximum prefetch distance.
        pub stream_distance: u64,
        /// Markov prefetcher: correlation-table entries (1 MB / entry size).
        pub markov_entries: usize,
        /// Markov prefetcher: next-address slots per entry.
        pub markov_fanout: usize,
        /// GHB: global history buffer entries.
        pub ghb_entries: usize,
        /// GHB: index-table entries.
        pub ghb_index_entries: usize,
        /// FDP: minimum dynamic degree.
        pub fdp_min_degree: usize,
        /// FDP: maximum dynamic degree (Table 1: 1..32).
        pub fdp_max_degree: usize,
        /// FDP: accuracy threshold above which degree is increased.
        pub fdp_high_accuracy: f64,
        /// FDP: accuracy threshold below which degree is decreased.
        pub fdp_low_accuracy: f64,
        /// FDP: interval (in prefetch fills) between feedback adjustments.
        pub fdp_interval: u64,
    }
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            stream_count: 32,
            stream_distance: 32,
            markov_entries: 32 * 1024,
            markov_fanout: 4,
            ghb_entries: 1024,
            ghb_index_entries: 512,
            fdp_min_degree: 1,
            fdp_max_degree: 32,
            fdp_high_accuracy: 0.75,
            fdp_low_accuracy: 0.40,
            fdp_interval: 256,
        }
    }
}

crate::json_struct! {
    /// Enhanced Memory Controller parameters (Table 1 and §4.1).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct EmcConfig {
        /// Whether the EMC is present at all.
        pub enabled: bool,
        /// Issue contexts per EMC (2 quad-core; 4 total eight-core).
        pub contexts: usize,
        /// Uop-buffer entries per context (= max chain length).
        pub uop_buffer: usize,
        /// Physical registers per context.
        pub prf_entries: usize,
        /// Live-in vector entries per context.
        pub live_in_entries: usize,
        /// LSQ entries per context.
        pub lsq_entries: usize,
        /// Shared reservation-station entries.
        pub rs_entries: usize,
        /// Back-end issue width (2-wide).
        pub issue_width: usize,
        /// TLB entries per core.
        pub tlb_entries: usize,
        /// Data-cache capacity in bytes (4 KB).
        pub dcache_bytes: u64,
        /// Data-cache associativity (4-way).
        pub dcache_ways: usize,
        /// Data-cache access latency (2 cycles).
        pub dcache_latency: u64,
        /// Miss-predictor table entries per core (3-bit counters, PC-hashed).
        pub miss_pred_entries: usize,
        /// Miss-predictor counter threshold to bypass the LLC.
        pub miss_pred_threshold: u8,
        /// Dependent-miss 3-bit saturating counter: generation begins when
        /// either of the top 2 bits is set, i.e. counter >= this value.
        pub dep_counter_trigger: u8,
        /// How many outstanding misses in the stalled window are considered
        /// as chain sources (1 = strictly the ROB head, a literal reading of
        /// the paper; higher values find the pointer-chase chain when the
        /// head is a leaf payload miss — see DESIGN.md deviation 4).
        pub chain_candidates: usize,
        /// Graceful degradation: after this many *consecutive* chain
        /// failures (aborts/cancels with no completed chain in between) on
        /// one core, the EMC quiesces chain generation for that core for a
        /// backoff window instead of thrashing the abort path.
        pub quiesce_threshold: u32,
        /// Initial quiesce backoff window in cycles; doubles on every
        /// repeated quiesce (saturating at [`EmcConfig::quiesce_backoff_max`])
        /// and resets when a chain completes.
        pub quiesce_backoff: u64,
        /// Saturation point for the quiesce backoff window.
        pub quiesce_backoff_max: u64,
    }
}

impl Default for EmcConfig {
    fn default() -> Self {
        EmcConfig {
            enabled: true,
            contexts: 2,
            uop_buffer: 16,
            prf_entries: 16,
            live_in_entries: 16,
            lsq_entries: 8,
            rs_entries: 8,
            issue_width: 2,
            tlb_entries: 32,
            dcache_bytes: 4096,
            dcache_ways: 4,
            dcache_latency: 2,
            miss_pred_entries: 256,
            miss_pred_threshold: 4,
            dep_counter_trigger: 2,
            chain_candidates: 4,
            quiesce_threshold: 8,
            quiesce_backoff: 512,
            quiesce_backoff_max: 16_384,
        }
    }
}

crate::json_struct! {
    /// Deterministic fault-injection plan: every fault is *timing-only* —
    /// it delays, re-issues, or aborts work that the existing retry and
    /// chain-abort/re-execute paths then recover, so architectural state is
    /// bit-identical to a fault-free run. All draws come from seeded
    /// [`substream`](crate::rng::substream)s of [`SystemConfig::seed`], so
    /// a faulty run is exactly reproducible.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct FaultPlan {
        /// Master switch; when false no fault RNG is even constructed and
        /// the simulation is cycle-identical to a build without this field.
        pub enabled: bool,
        /// Per-message probability that a ring hop is delayed (models a
        /// flit retry after a link-level CRC error).
        pub ring_delay_prob: f64,
        /// Extra cycles added to a delayed ring message.
        pub ring_delay_cycles: u64,
        /// Per-DRAM-issue probability that the access is re-issued (models
        /// an ECC correction + retransmit) with a latency penalty.
        pub dram_reissue_prob: f64,
        /// Extra cycles of service latency for a re-issued DRAM access.
        pub dram_reissue_penalty: u64,
        /// Per-cycle, per-busy-context probability that an EMC issue
        /// context is killed mid-chain; the chain aborts through the normal
        /// abort path and the home core re-executes the uops locally.
        pub emc_kill_prob: f64,
        /// Per-cycle, per-MC probability that a queue-full backpressure
        /// storm starts: the controller advertises a reduced effective
        /// queue capacity for a window, forcing enqueue rejections/retries.
        pub mc_storm_prob: f64,
        /// Length of a backpressure storm in cycles.
        pub mc_storm_cycles: u64,
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            enabled: false,
            ring_delay_prob: 0.0,
            ring_delay_cycles: 0,
            dram_reissue_prob: 0.0,
            dram_reissue_penalty: 0,
            emc_kill_prob: 0.0,
            mc_storm_prob: 0.0,
            mc_storm_cycles: 0,
        }
    }
}

impl FaultPlan {
    /// A moderate chaos preset: every fault class active at rates that
    /// stress the recovery paths without starving forward progress.
    pub fn chaos() -> Self {
        FaultPlan {
            enabled: true,
            ring_delay_prob: 0.02,
            ring_delay_cycles: 24,
            dram_reissue_prob: 0.01,
            dram_reissue_penalty: 100,
            emc_kill_prob: 0.001,
            mc_storm_prob: 0.0005,
            mc_storm_cycles: 200,
        }
    }

    /// Validate the plan.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("ring_delay_prob", self.ring_delay_prob),
            ("dram_reissue_prob", self.dram_reissue_prob),
            ("emc_kill_prob", self.emc_kill_prob),
            ("mc_storm_prob", self.mc_storm_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(format!(
                    "fault {name} must be a probability in [0, 1], got {p}"
                ));
            }
        }
        Ok(())
    }
}

crate::json_struct! {
    /// Forward-progress (liveness) enforcement and diagnosis parameters.
    ///
    /// Two mechanisms actively guarantee progress — memory-queue aging
    /// (escalation past row-hit preference once a request has waited
    /// `mc_escalation_age` cycles) and EMC context leases (a shipped chain
    /// making no progress for `emc_lease` cycles is deterministically killed
    /// and re-executed at the core). The remaining thresholds only classify
    /// an already-stalled run for the wedge root-cause report; they never
    /// change simulated behaviour.
    ///
    /// Both mechanisms are timing-only and architecturally invisible: they
    /// reorder or re-execute work through existing paths, never drop it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct LivenessConfig {
        /// Master switch for aging and leases (probes always run).
        pub enabled: bool,
        /// Memory-queue age (cycles) at which a request escalates ahead of
        /// row-hit preference and batch boundaries.
        pub mc_escalation_age: u64,
        /// Cycles an occupied EMC context may go without a progress event
        /// (ship arrival, source delivery, load completion, result drain)
        /// before its chain is killed and re-executed at the core.
        pub emc_lease: u64,
        /// Ring link backlog (cycles of queued occupancy) the classifier
        /// treats as pathological backpressure.
        pub ring_backlog_threshold: u64,
        /// Cycles since last retirement beyond which the classifier deems a
        /// core deadlocked rather than slow.
        pub core_stall_age: u64,
        /// Cadence (cycles) of the watchdog's liveness probe sampling.
        pub probe_interval: u64,
    }
}

impl Default for LivenessConfig {
    fn default() -> Self {
        LivenessConfig {
            enabled: true,
            mc_escalation_age: 8_192,
            emc_lease: 32_768,
            ring_backlog_threshold: 1_024,
            core_stall_age: 250_000,
            probe_interval: 10_000,
        }
    }
}

impl LivenessConfig {
    /// A disabled configuration: no aging, no leases. Probes and
    /// classification still run (they are read-only).
    pub fn disabled() -> Self {
        LivenessConfig {
            enabled: false,
            ..Self::default()
        }
    }

    /// Validate threshold sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistent parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.enabled && (self.mc_escalation_age == 0 || self.emc_lease == 0) {
            return Err("liveness thresholds must be > 0 when enabled".into());
        }
        if self.probe_interval == 0 {
            return Err("liveness probe_interval must be > 0".into());
        }
        Ok(())
    }
}

crate::json_struct! {
    /// Full system configuration.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SystemConfig {
        /// Number of cores (4 or 8 in the paper).
        pub cores: usize,
        /// Number of (enhanced) memory controllers; channels are split evenly.
        pub memory_controllers: usize,
        /// Core pipeline parameters.
        pub core: CoreConfig,
        /// L1 instruction/data cache parameters (modeled identically).
        pub l1: CacheConfig,
        /// One shared-LLC slice per core.
        pub llc_slice: CacheConfig,
        /// Ring interconnect.
        pub ring: RingConfig,
        /// DRAM system.
        pub dram: DramConfig,
        /// Active prefetcher configuration.
        pub prefetcher: PrefetcherKind,
        /// Prefetcher parameters.
        pub prefetch: PrefetchConfig,
        /// EMC parameters.
        pub emc: EmcConfig,
        /// RNG seed for every stochastic element of the simulation.
        pub seed: u64,
        /// Idealization for Figure 2's limit study: loads that are data-
        /// dependent on an in-flight LLC miss are served as LLC hits.
        pub ideal_dependent_hits: bool,
        /// Deterministic timing-fault injection (disabled by default).
        pub faults: FaultPlan = FaultPlan::default(),
        /// Forward-progress enforcement and diagnosis (enabled by default).
        pub liveness: LivenessConfig = LivenessConfig::default(),
    }
}

impl SystemConfig {
    /// The paper's quad-core system (Figure 7, Table 1): 4 cores, one MC
    /// with two DDR3 channels, 128-entry memory queue, 2 EMC contexts.
    pub fn quad_core() -> Self {
        SystemConfig {
            cores: 4,
            memory_controllers: 1,
            core: CoreConfig::default(),
            l1: CacheConfig::l1(),
            llc_slice: CacheConfig::llc_slice(),
            ring: RingConfig::default(),
            dram: DramConfig::default(),
            prefetcher: PrefetcherKind::None,
            prefetch: PrefetchConfig::default(),
            emc: EmcConfig::default(),
            seed: 0x00c0_ffee,
            ideal_dependent_hits: false,
            faults: FaultPlan::default(),
            liveness: LivenessConfig::default(),
        }
    }

    /// The paper's eight-core single-MC system (Figure 11a): 4 channels,
    /// 256-entry queue, one EMC with 4 contexts.
    pub fn eight_core_1mc() -> Self {
        let mut cfg = Self::quad_core();
        cfg.cores = 8;
        cfg.dram.channels = 4;
        cfg.dram.queue_entries = 256;
        cfg.emc.contexts = 4;
        cfg
    }

    /// The paper's eight-core dual-MC system (Figure 11b): two EMCs with
    /// 2 contexts each, 2 channels per MC.
    pub fn eight_core_2mc() -> Self {
        let mut cfg = Self::eight_core_1mc();
        cfg.memory_controllers = 2;
        cfg.emc.contexts = 2;
        cfg
    }

    /// Disable the EMC (baseline systems).
    pub fn without_emc(mut self) -> Self {
        self.emc.enabled = false;
        self
    }

    /// Select a prefetcher configuration.
    pub fn with_prefetcher(mut self, pf: PrefetcherKind) -> Self {
        self.prefetcher = pf;
        self
    }

    /// Enable a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Set DRAM channels/ranks for the Figure 20 sensitivity sweep,
    /// scaling the memory queue commensurately as the paper does.
    pub fn with_dram_geometry(mut self, channels: usize, ranks: usize) -> Self {
        self.dram.channels = channels;
        self.dram.ranks_per_channel = ranks;
        self.dram.queue_entries = 64 * channels.max(1);
        self
    }

    /// Channels owned by memory controller `mc` (split evenly, remainder
    /// to the lower-numbered MCs).
    pub fn channels_of_mc(&self, mc: usize) -> std::ops::Range<usize> {
        let per = self.dram.channels / self.memory_controllers;
        let extra = self.dram.channels % self.memory_controllers;
        let start = mc * per + mc.min(extra);
        let len = per + usize::from(mc < extra);
        start..start + len
    }

    /// The memory controller that owns channel `ch`: the inverse of
    /// [`channels_of_mc`](Self::channels_of_mc), in which the first
    /// `channels % memory_controllers` controllers own one extra channel.
    pub fn mc_of_channel(&self, ch: usize) -> usize {
        let per = self.dram.channels / self.memory_controllers;
        let extra = self.dram.channels % self.memory_controllers;
        let wide = extra * (per + 1);
        if ch < wide {
            ch / (per + 1)
        } else {
            extra + (ch - wide) / per
        }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistent parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("cores must be > 0".into());
        }
        if self.memory_controllers == 0 || self.memory_controllers > self.dram.channels {
            return Err("memory_controllers must be in 1..=channels".into());
        }
        if self.emc.uop_buffer == 0 || self.emc.prf_entries == 0 {
            return Err("EMC buffers must be non-empty".into());
        }
        if !self.l1.sets().is_power_of_two() || !self.llc_slice.sets().is_power_of_two() {
            return Err("cache set counts must be powers of two".into());
        }
        if self.core.rob_entries == 0 || self.core.rs_entries == 0 {
            return Err("core window must be non-empty".into());
        }
        self.faults.validate()?;
        self.liveness.validate()?;
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::quad_core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_quad_core_parameters() {
        let c = SystemConfig::quad_core();
        c.validate().unwrap();
        assert_eq!(c.cores, 4);
        assert_eq!(c.core.rob_entries, 256);
        assert_eq!(c.core.rs_entries, 92);
        assert_eq!(c.core.issue_width, 4);
        assert_eq!(c.l1.bytes, 32 * 1024);
        assert_eq!(c.llc_slice.bytes, 1024 * 1024);
        assert_eq!(c.llc_slice.latency, 18);
        assert_eq!(c.dram.channels, 2);
        assert_eq!(c.dram.queue_entries, 128);
        assert_eq!(c.emc.contexts, 2);
        assert_eq!(c.emc.uop_buffer, 16);
        assert_eq!(c.emc.lsq_entries, 8);
        assert_eq!(c.emc.tlb_entries, 32);
        assert_eq!(c.emc.dcache_bytes, 4096);
        assert_eq!(c.emc.issue_width, 2);
    }

    #[test]
    fn eight_core_presets() {
        let one = SystemConfig::eight_core_1mc();
        one.validate().unwrap();
        assert_eq!(one.cores, 8);
        assert_eq!(one.dram.channels, 4);
        assert_eq!(one.dram.queue_entries, 256);
        assert_eq!(one.emc.contexts, 4);
        assert_eq!(one.memory_controllers, 1);

        let two = SystemConfig::eight_core_2mc();
        two.validate().unwrap();
        assert_eq!(two.memory_controllers, 2);
        assert_eq!(two.emc.contexts, 2);
        assert_eq!(two.channels_of_mc(0), 0..2);
        assert_eq!(two.channels_of_mc(1), 2..4);
    }

    #[test]
    fn channel_split_with_remainder() {
        let mut c = SystemConfig::quad_core();
        c.dram.channels = 3;
        c.memory_controllers = 2;
        assert_eq!(c.channels_of_mc(0), 0..2);
        assert_eq!(c.channels_of_mc(1), 2..3);
    }

    #[test]
    fn mc_of_channel_inverts_channels_of_mc() {
        let mut c = SystemConfig::quad_core();
        for channels in 1..=8 {
            for mcs in 1..=channels {
                (c.dram.channels, c.memory_controllers) = (channels, mcs);
                for mc in 0..mcs {
                    for ch in c.channels_of_mc(mc) {
                        assert_eq!(c.mc_of_channel(ch), mc, "{channels} channels, {mcs} MCs");
                    }
                }
            }
        }
    }

    #[test]
    fn builders() {
        let c = SystemConfig::quad_core()
            .without_emc()
            .with_prefetcher(PrefetcherKind::Ghb)
            .with_dram_geometry(4, 4);
        assert!(!c.emc.enabled);
        assert_eq!(c.prefetcher, PrefetcherKind::Ghb);
        assert_eq!(c.dram.channels, 4);
        assert_eq!(c.dram.ranks_per_channel, 4);
        assert_eq!(c.dram.queue_entries, 256);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = SystemConfig::quad_core();
        c.cores = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::quad_core();
        c.memory_controllers = 5;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::quad_core();
        c.l1.bytes = 3000; // not a power-of-two set count
        assert!(c.validate().is_err());

        let mut c = SystemConfig::quad_core();
        c.faults.ring_delay_prob = 1.5;
        let err = c.validate().unwrap_err();
        assert!(
            err.contains("ring_delay_prob"),
            "error names the field: {err}"
        );
    }

    #[test]
    fn fault_plan_defaults_are_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.enabled);
        plan.validate().unwrap();
        // A config carrying the default plan is valid and identical to
        // the preset.
        assert_eq!(SystemConfig::quad_core().faults, plan);
    }

    #[test]
    fn fault_plan_chaos_is_valid_and_active() {
        let plan = FaultPlan::chaos();
        plan.validate().unwrap();
        assert!(plan.enabled && plan.emc_kill_prob > 0.0);
        let cfg = SystemConfig::quad_core().with_faults(plan);
        cfg.validate().unwrap();
        assert_eq!(cfg.faults, plan);
    }

    #[test]
    fn members_younger_than_a_document_decode_as_declared() {
        use crate::json::{FromJson, JsonValue, ToJson};
        use crate::stats::Stats;
        // A document written before `member` existed.
        let without = |text: String, member: String| {
            assert!(text.contains(&member), "{member} in {text}");
            text.replace(&format!(",{member}"), "")
        };
        let mut cfg = SystemConfig::quad_core().with_faults(FaultPlan::chaos());
        cfg.liveness.enabled = false;
        let mut text = cfg.to_json_value().to_json();
        for (key, v) in [
            ("faults", cfg.faults.to_json_value()),
            ("liveness", cfg.liveness.to_json_value()),
        ] {
            text = without(text, format!("\"{key}\":{}", v.to_json()));
        }
        let back = SystemConfig::from_json_value(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back.faults, FaultPlan::default());
        assert_eq!(back.liveness, LivenessConfig::default());

        let mut s = Stats::new(1);
        s.cores[0].chains_aborted_lease = 3;
        s.mem.escalated_requests = 99;
        let text = without(
            s.to_json_value().to_json(),
            "\"chains_aborted_lease\":3".into(),
        );
        let text = without(text, "\"escalated_requests\":99".into());
        let back = Stats::from_json_value(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back.cores[0].chains_aborted_lease, 0);
        assert_eq!(back.mem.escalated_requests, 0);
    }

    #[test]
    fn cache_geometry() {
        let l1 = CacheConfig::l1();
        assert_eq!(l1.sets(), 64);
        let llc = CacheConfig::llc_slice();
        assert_eq!(llc.sets(), 2048);
    }

    #[test]
    fn labels_round_trip() {
        use crate::svc::JobState;
        for pf in PrefetcherKind::ALL {
            assert!(!pf.label().is_empty());
            assert_eq!(PrefetcherKind::from_label(pf.label()), Some(pf));
        }
        assert_eq!(PrefetcherKind::MarkovStream.label(), "Markov+Stream");
        assert_eq!(PrefetcherKind::from_label("bogus"), None);
        for state in [JobState::Queued, JobState::Running, JobState::Done] {
            assert_eq!(JobState::from_label(state.label()), Some(state));
        }
        assert_eq!(JobState::from_label("exploded"), None);
    }

    #[test]
    fn ddr3_timings_in_core_cycles() {
        let d = DramConfig::default();
        // 13.75 ns at 3.2 GHz = 44 cycles.
        assert_eq!(d.t_cas, 44);
        assert_eq!(d.t_rcd, 44);
        assert_eq!(d.t_rp, 44);
        assert!(d.t_ras >= 2 * d.t_cas);
    }
}
