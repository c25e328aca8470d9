//! Canonical, lossless JSON codec for configs and statistics.
//!
//! This is the single hand-rolled encoding used everywhere a config or
//! a statistics block crosses a process boundary: the campaign result
//! cache, the `emcsim` metrics exporters, and the round-trip tests in
//! [`config`](crate::config) and [`stats`](crate::stats). It has no
//! external JSON dependency — documents are [`JsonValue`] trees from
//! [`json`](crate::json) — so it works identically in every build
//! environment.
//!
//! Two invariants make the encoding canonical:
//!
//! - **Exact numbers.** Floats use Rust's shortest round-trip
//!   formatting; `u64` counters above 2^53 are carried as strings (see
//!   [`u`]) so nothing is flattened onto the JSON double grid.
//! - **Exhaustive fields.** Every encoder destructures its struct
//!   without a `..` rest pattern, so adding a field to any config or
//!   stats struct without extending the codec is a compile error, not a
//!   silently lossy cache. This is what lets the campaign engine derive
//!   its content-addressed job keys from [`config_to_json`]: a new
//!   field (such as [`LivenessConfig`]) cannot ship without entering
//!   the cache key.
//!
//! Decoders are tolerant in exactly one dimension: a key added after
//! documents were already on disk decodes as its default when missing,
//! so documents written before the field existed still load.

use crate::config::{
    CacheConfig, CoreConfig, DramConfig, EmcConfig, FaultPlan, LivenessConfig, PrefetchConfig,
    PrefetcherKind, RingConfig, SystemConfig,
};
use crate::hist::Histogram;
use crate::json::JsonValue;
use crate::stats::{CoreStats, EmcStats, MemStats, PrefetchStats, RingStats, Stats};

/// Encode a `u64` exactly: numbers up to 2^53 fit JSON's double grid;
/// larger values (saturated histogram sums) are carried as strings so
/// the codec round-trips bit-exactly.
pub fn u(v: u64) -> JsonValue {
    if v <= (1u64 << 53) {
        JsonValue::Num(v as f64)
    } else {
        JsonValue::Str(v.to_string())
    }
}

fn b(v: bool) -> JsonValue {
    JsonValue::Bool(v)
}

fn f(v: f64) -> JsonValue {
    JsonValue::Num(v)
}

// ---------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------

/// Fetch a required key from a JSON object.
///
/// # Errors
///
/// Returns a message naming the missing key.
pub fn get<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    obj.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

/// Decode a value produced by [`u`] back to a `u64`.
///
/// # Errors
///
/// Returns a message naming `key` when the value is neither an exact
/// non-negative integer on the double grid nor a parseable string.
pub fn dec_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    match v {
        JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
            Ok(*n as u64)
        }
        JsonValue::Str(s) => s
            .parse()
            .map_err(|_| format!("{key}: bad u64 string {s:?}")),
        other => Err(format!("{key}: expected u64, got {other:?}")),
    }
}

/// Fetch and decode a required `u64` field.
///
/// # Errors
///
/// Propagates [`get`] / [`dec_u64`] failures.
pub fn get_u64(obj: &JsonValue, key: &str) -> Result<u64, String> {
    dec_u64(get(obj, key)?, key)
}

fn get_usize(obj: &JsonValue, key: &str) -> Result<usize, String> {
    usize::try_from(get_u64(obj, key)?).map_err(|_| format!("{key}: value exceeds usize"))
}

fn get_u8(obj: &JsonValue, key: &str) -> Result<u8, String> {
    u8::try_from(get_u64(obj, key)?).map_err(|_| format!("{key}: value exceeds u8"))
}

fn get_u32(obj: &JsonValue, key: &str) -> Result<u32, String> {
    u32::try_from(get_u64(obj, key)?).map_err(|_| format!("{key}: value exceeds u32"))
}

/// Fetch and decode a required `f64` field.
///
/// # Errors
///
/// Returns a message naming the key when missing or non-numeric.
pub fn get_f64(obj: &JsonValue, key: &str) -> Result<f64, String> {
    get(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("{key}: expected number"))
}

/// Fetch and decode a required `bool` field.
///
/// # Errors
///
/// Returns a message naming the key when missing or non-boolean.
pub fn get_bool(obj: &JsonValue, key: &str) -> Result<bool, String> {
    match get(obj, key)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(format!("{key}: expected bool")),
    }
}

/// Fetch a required string field.
///
/// # Errors
///
/// Returns a message naming the key when missing or non-string.
pub fn get_str<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    get(obj, key)?
        .as_str()
        .ok_or_else(|| format!("{key}: expected string"))
}

/// Fetch and decode a required array of `u64`s.
///
/// # Errors
///
/// Returns a message naming the key when missing, non-array, or when
/// any element fails [`dec_u64`].
pub fn get_u64_vec(obj: &JsonValue, key: &str) -> Result<Vec<u64>, String> {
    get(obj, key)?
        .as_arr()
        .ok_or_else(|| format!("{key}: expected array"))?
        .iter()
        .map(|v| dec_u64(v, key))
        .collect()
}

/// Fetch and decode a required [`Histogram`] field.
///
/// # Errors
///
/// Returns a dotted path (`key.subfield`) naming the failure.
pub fn get_hist(obj: &JsonValue, key: &str) -> Result<Histogram, String> {
    histogram_from_json(get(obj, key)?).map_err(|e| format!("{key}.{e}"))
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// Encode a [`Histogram`] (count/sum/min/max plus the sparse-or-empty
/// bucket vector).
pub fn histogram_to_json(h: &Histogram) -> JsonValue {
    let Histogram {
        count,
        sum,
        min,
        max,
        buckets,
    } = h;
    JsonValue::obj(vec![
        ("count", u(*count)),
        ("sum", u(*sum)),
        ("min", u(*min)),
        ("max", u(*max)),
        (
            "buckets",
            JsonValue::Arr(buckets.iter().map(|&n| u(n)).collect()),
        ),
    ])
}

/// Decode a [`Histogram`].
///
/// # Errors
///
/// Returns a message naming the first bad field.
pub fn histogram_from_json(v: &JsonValue) -> Result<Histogram, String> {
    Ok(Histogram {
        count: get_u64(v, "count")?,
        sum: get_u64(v, "sum")?,
        min: get_u64(v, "min")?,
        max: get_u64(v, "max")?,
        buckets: get_u64_vec(v, "buckets")?,
    })
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

fn core_stats_to_json(c: &CoreStats) -> JsonValue {
    let CoreStats {
        cycles,
        retired_uops,
        retired_loads,
        retired_stores,
        retired_branches,
        branch_mispredicts,
        l1d_accesses,
        l1d_misses,
        llc_accesses,
        llc_misses,
        dependent_llc_misses,
        dependent_misses_prefetched,
        dep_chain_uop_sum,
        dep_chain_pairs,
        full_window_stall_cycles,
        chains_sent,
        chain_uops_sent,
        chain_live_ins,
        chain_live_outs,
        chains_aborted_branch,
        chains_aborted_tlb,
        chains_cancelled_disambiguation,
        chains_aborted_injected,
        chains_aborted_lease,
        emc_quiesce_events,
        prefetch_covered_misses,
        runahead_entries,
        runahead_uops,
        runahead_requests,
        chain_length_hist,
        stall_episodes,
    } = c;
    JsonValue::obj(vec![
        ("cycles", u(*cycles)),
        ("retired_uops", u(*retired_uops)),
        ("retired_loads", u(*retired_loads)),
        ("retired_stores", u(*retired_stores)),
        ("retired_branches", u(*retired_branches)),
        ("branch_mispredicts", u(*branch_mispredicts)),
        ("l1d_accesses", u(*l1d_accesses)),
        ("l1d_misses", u(*l1d_misses)),
        ("llc_accesses", u(*llc_accesses)),
        ("llc_misses", u(*llc_misses)),
        ("dependent_llc_misses", u(*dependent_llc_misses)),
        (
            "dependent_misses_prefetched",
            u(*dependent_misses_prefetched),
        ),
        ("dep_chain_uop_sum", u(*dep_chain_uop_sum)),
        ("dep_chain_pairs", u(*dep_chain_pairs)),
        ("full_window_stall_cycles", u(*full_window_stall_cycles)),
        ("chains_sent", u(*chains_sent)),
        ("chain_uops_sent", u(*chain_uops_sent)),
        ("chain_live_ins", u(*chain_live_ins)),
        ("chain_live_outs", u(*chain_live_outs)),
        ("chains_aborted_branch", u(*chains_aborted_branch)),
        ("chains_aborted_tlb", u(*chains_aborted_tlb)),
        (
            "chains_cancelled_disambiguation",
            u(*chains_cancelled_disambiguation),
        ),
        ("chains_aborted_injected", u(*chains_aborted_injected)),
        ("chains_aborted_lease", u(*chains_aborted_lease)),
        ("emc_quiesce_events", u(*emc_quiesce_events)),
        ("prefetch_covered_misses", u(*prefetch_covered_misses)),
        ("runahead_entries", u(*runahead_entries)),
        ("runahead_uops", u(*runahead_uops)),
        ("runahead_requests", u(*runahead_requests)),
        (
            "chain_length_hist",
            JsonValue::Arr(chain_length_hist.iter().map(|&n| u(n)).collect()),
        ),
        ("stall_episodes", histogram_to_json(stall_episodes)),
    ])
}

fn core_stats_from_json(v: &JsonValue) -> Result<CoreStats, String> {
    Ok(CoreStats {
        cycles: get_u64(v, "cycles")?,
        retired_uops: get_u64(v, "retired_uops")?,
        retired_loads: get_u64(v, "retired_loads")?,
        retired_stores: get_u64(v, "retired_stores")?,
        retired_branches: get_u64(v, "retired_branches")?,
        branch_mispredicts: get_u64(v, "branch_mispredicts")?,
        l1d_accesses: get_u64(v, "l1d_accesses")?,
        l1d_misses: get_u64(v, "l1d_misses")?,
        llc_accesses: get_u64(v, "llc_accesses")?,
        llc_misses: get_u64(v, "llc_misses")?,
        dependent_llc_misses: get_u64(v, "dependent_llc_misses")?,
        dependent_misses_prefetched: get_u64(v, "dependent_misses_prefetched")?,
        dep_chain_uop_sum: get_u64(v, "dep_chain_uop_sum")?,
        dep_chain_pairs: get_u64(v, "dep_chain_pairs")?,
        full_window_stall_cycles: get_u64(v, "full_window_stall_cycles")?,
        chains_sent: get_u64(v, "chains_sent")?,
        chain_uops_sent: get_u64(v, "chain_uops_sent")?,
        chain_live_ins: get_u64(v, "chain_live_ins")?,
        chain_live_outs: get_u64(v, "chain_live_outs")?,
        chains_aborted_branch: get_u64(v, "chains_aborted_branch")?,
        chains_aborted_tlb: get_u64(v, "chains_aborted_tlb")?,
        chains_cancelled_disambiguation: get_u64(v, "chains_cancelled_disambiguation")?,
        chains_aborted_injected: get_u64(v, "chains_aborted_injected")?,
        // Written by runs that predate lease enforcement.
        chains_aborted_lease: opt_u64(v, "chains_aborted_lease")?,
        emc_quiesce_events: get_u64(v, "emc_quiesce_events")?,
        prefetch_covered_misses: get_u64(v, "prefetch_covered_misses")?,
        runahead_entries: get_u64(v, "runahead_entries")?,
        runahead_uops: get_u64(v, "runahead_uops")?,
        runahead_requests: get_u64(v, "runahead_requests")?,
        chain_length_hist: get_u64_vec(v, "chain_length_hist")?,
        stall_episodes: get_hist(v, "stall_episodes")?,
    })
}

/// Decode an optional `u64` field: absent means zero.
fn opt_u64(obj: &JsonValue, key: &str) -> Result<u64, String> {
    match obj.get(key) {
        Some(v) => dec_u64(v, key),
        None => Ok(0),
    }
}

fn mem_stats_to_json(m: &MemStats) -> JsonValue {
    let MemStats {
        dram_reads,
        dram_writes,
        dram_prefetches,
        row_hits,
        row_conflicts,
        row_empties,
        activates,
        precharges,
        core_miss_latency,
        emc_miss_latency,
        core_ring_component,
        core_cache_component,
        core_queue_component,
        emc_ring_component,
        emc_cache_component,
        emc_queue_component,
        dram_service_latency,
        on_chip_delay,
        ecc_reissues,
        backpressure_storms,
        escalated_requests,
    } = m;
    JsonValue::obj(vec![
        ("dram_reads", u(*dram_reads)),
        ("dram_writes", u(*dram_writes)),
        ("dram_prefetches", u(*dram_prefetches)),
        ("row_hits", u(*row_hits)),
        ("row_conflicts", u(*row_conflicts)),
        ("row_empties", u(*row_empties)),
        ("activates", u(*activates)),
        ("precharges", u(*precharges)),
        ("core_miss_latency", histogram_to_json(core_miss_latency)),
        ("emc_miss_latency", histogram_to_json(emc_miss_latency)),
        (
            "core_ring_component",
            histogram_to_json(core_ring_component),
        ),
        (
            "core_cache_component",
            histogram_to_json(core_cache_component),
        ),
        (
            "core_queue_component",
            histogram_to_json(core_queue_component),
        ),
        ("emc_ring_component", histogram_to_json(emc_ring_component)),
        (
            "emc_cache_component",
            histogram_to_json(emc_cache_component),
        ),
        (
            "emc_queue_component",
            histogram_to_json(emc_queue_component),
        ),
        (
            "dram_service_latency",
            histogram_to_json(dram_service_latency),
        ),
        ("on_chip_delay", histogram_to_json(on_chip_delay)),
        ("ecc_reissues", u(*ecc_reissues)),
        ("backpressure_storms", u(*backpressure_storms)),
        ("escalated_requests", u(*escalated_requests)),
    ])
}

fn mem_stats_from_json(v: &JsonValue) -> Result<MemStats, String> {
    Ok(MemStats {
        dram_reads: get_u64(v, "dram_reads")?,
        dram_writes: get_u64(v, "dram_writes")?,
        dram_prefetches: get_u64(v, "dram_prefetches")?,
        row_hits: get_u64(v, "row_hits")?,
        row_conflicts: get_u64(v, "row_conflicts")?,
        row_empties: get_u64(v, "row_empties")?,
        activates: get_u64(v, "activates")?,
        precharges: get_u64(v, "precharges")?,
        core_miss_latency: get_hist(v, "core_miss_latency")?,
        emc_miss_latency: get_hist(v, "emc_miss_latency")?,
        core_ring_component: get_hist(v, "core_ring_component")?,
        core_cache_component: get_hist(v, "core_cache_component")?,
        core_queue_component: get_hist(v, "core_queue_component")?,
        emc_ring_component: get_hist(v, "emc_ring_component")?,
        emc_cache_component: get_hist(v, "emc_cache_component")?,
        emc_queue_component: get_hist(v, "emc_queue_component")?,
        dram_service_latency: get_hist(v, "dram_service_latency")?,
        on_chip_delay: get_hist(v, "on_chip_delay")?,
        ecc_reissues: get_u64(v, "ecc_reissues")?,
        backpressure_storms: get_u64(v, "backpressure_storms")?,
        // Written by runs that predate anti-starvation aging.
        escalated_requests: opt_u64(v, "escalated_requests")?,
    })
}

fn ring_stats_to_json(r: &RingStats) -> JsonValue {
    let RingStats {
        control_msgs,
        data_msgs,
        emc_control_msgs,
        emc_data_msgs,
        total_hops,
        injected_delays,
    } = r;
    JsonValue::obj(vec![
        ("control_msgs", u(*control_msgs)),
        ("data_msgs", u(*data_msgs)),
        ("emc_control_msgs", u(*emc_control_msgs)),
        ("emc_data_msgs", u(*emc_data_msgs)),
        ("total_hops", u(*total_hops)),
        ("injected_delays", u(*injected_delays)),
    ])
}

fn ring_stats_from_json(v: &JsonValue) -> Result<RingStats, String> {
    Ok(RingStats {
        control_msgs: get_u64(v, "control_msgs")?,
        data_msgs: get_u64(v, "data_msgs")?,
        emc_control_msgs: get_u64(v, "emc_control_msgs")?,
        emc_data_msgs: get_u64(v, "emc_data_msgs")?,
        total_hops: get_u64(v, "total_hops")?,
        injected_delays: get_u64(v, "injected_delays")?,
    })
}

fn emc_stats_to_json(e: &EmcStats) -> JsonValue {
    let EmcStats {
        chains_executed,
        uops_executed,
        loads_executed,
        stores_executed,
        dcache_accesses,
        dcache_hits,
        direct_to_dram,
        llc_lookups,
        llc_misses_generated,
        tlb_hits,
        tlb_misses,
        chains_rejected_busy,
        branch_mispredicts_detected,
        requests_covered_by_prefetch,
        chain_latency,
    } = e;
    JsonValue::obj(vec![
        ("chains_executed", u(*chains_executed)),
        ("uops_executed", u(*uops_executed)),
        ("loads_executed", u(*loads_executed)),
        ("stores_executed", u(*stores_executed)),
        ("dcache_accesses", u(*dcache_accesses)),
        ("dcache_hits", u(*dcache_hits)),
        ("direct_to_dram", u(*direct_to_dram)),
        ("llc_lookups", u(*llc_lookups)),
        ("llc_misses_generated", u(*llc_misses_generated)),
        ("tlb_hits", u(*tlb_hits)),
        ("tlb_misses", u(*tlb_misses)),
        ("chains_rejected_busy", u(*chains_rejected_busy)),
        (
            "branch_mispredicts_detected",
            u(*branch_mispredicts_detected),
        ),
        (
            "requests_covered_by_prefetch",
            u(*requests_covered_by_prefetch),
        ),
        ("chain_latency", histogram_to_json(chain_latency)),
    ])
}

fn emc_stats_from_json(v: &JsonValue) -> Result<EmcStats, String> {
    Ok(EmcStats {
        chains_executed: get_u64(v, "chains_executed")?,
        uops_executed: get_u64(v, "uops_executed")?,
        loads_executed: get_u64(v, "loads_executed")?,
        stores_executed: get_u64(v, "stores_executed")?,
        dcache_accesses: get_u64(v, "dcache_accesses")?,
        dcache_hits: get_u64(v, "dcache_hits")?,
        direct_to_dram: get_u64(v, "direct_to_dram")?,
        llc_lookups: get_u64(v, "llc_lookups")?,
        llc_misses_generated: get_u64(v, "llc_misses_generated")?,
        tlb_hits: get_u64(v, "tlb_hits")?,
        tlb_misses: get_u64(v, "tlb_misses")?,
        chains_rejected_busy: get_u64(v, "chains_rejected_busy")?,
        branch_mispredicts_detected: get_u64(v, "branch_mispredicts_detected")?,
        requests_covered_by_prefetch: get_u64(v, "requests_covered_by_prefetch")?,
        chain_latency: get_hist(v, "chain_latency")?,
    })
}

fn prefetch_stats_to_json(p: &PrefetchStats) -> JsonValue {
    let PrefetchStats {
        issued,
        useful,
        useless,
        degree,
    } = p;
    JsonValue::obj(vec![
        ("issued", u(*issued)),
        ("useful", u(*useful)),
        ("useless", u(*useless)),
        ("degree", u(*degree)),
    ])
}

fn prefetch_stats_from_json(v: &JsonValue) -> Result<PrefetchStats, String> {
    Ok(PrefetchStats {
        issued: get_u64(v, "issued")?,
        useful: get_u64(v, "useful")?,
        useless: get_u64(v, "useless")?,
        degree: get_u64(v, "degree")?,
    })
}

/// Encode full run statistics.
pub fn stats_to_json(s: &Stats) -> JsonValue {
    let Stats {
        cycles,
        cores,
        mem,
        ring,
        emc,
        prefetch,
    } = s;
    JsonValue::obj(vec![
        ("cycles", u(*cycles)),
        (
            "cores",
            JsonValue::Arr(cores.iter().map(core_stats_to_json).collect()),
        ),
        ("mem", mem_stats_to_json(mem)),
        ("ring", ring_stats_to_json(ring)),
        ("emc", emc_stats_to_json(emc)),
        ("prefetch", prefetch_stats_to_json(prefetch)),
    ])
}

/// Decode full run statistics.
///
/// # Errors
///
/// Returns a dotted path naming the first bad field.
pub fn stats_from_json(v: &JsonValue) -> Result<Stats, String> {
    let cores = get(v, "cores")?
        .as_arr()
        .ok_or("cores: expected array")?
        .iter()
        .enumerate()
        .map(|(i, c)| core_stats_from_json(c).map_err(|e| format!("cores[{i}].{e}")))
        .collect::<Result<_, _>>()?;
    Ok(Stats {
        cycles: get_u64(v, "cycles")?,
        cores,
        mem: mem_stats_from_json(get(v, "mem")?).map_err(|e| format!("mem.{e}"))?,
        ring: ring_stats_from_json(get(v, "ring")?).map_err(|e| format!("ring.{e}"))?,
        emc: emc_stats_from_json(get(v, "emc")?).map_err(|e| format!("emc.{e}"))?,
        prefetch: prefetch_stats_from_json(get(v, "prefetch")?)
            .map_err(|e| format!("prefetch.{e}"))?,
    })
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Canonical encoding of a [`SystemConfig`]. Every field of every
/// nested struct is named; the destructuring patterns are intentionally
/// `..`-free so new fields cannot be omitted silently. This is the
/// document the campaign engine hashes into content-addressed job keys.
pub fn config_to_json(cfg: &SystemConfig) -> JsonValue {
    let SystemConfig {
        cores,
        memory_controllers,
        core,
        l1,
        llc_slice,
        ring,
        dram,
        prefetcher,
        prefetch,
        emc,
        seed,
        ideal_dependent_hits,
        faults,
        liveness,
    } = cfg;
    JsonValue::obj(vec![
        ("cores", u(*cores as u64)),
        ("memory_controllers", u(*memory_controllers as u64)),
        ("core", core_config_to_json(core)),
        ("l1", cache_config_to_json(l1)),
        ("llc_slice", cache_config_to_json(llc_slice)),
        ("ring", ring_config_to_json(ring)),
        ("dram", dram_config_to_json(dram)),
        ("prefetcher", prefetcher.label().into()),
        ("prefetch", prefetch_config_to_json(prefetch)),
        ("emc", emc_config_to_json(emc)),
        ("seed", u(*seed)),
        ("ideal_dependent_hits", b(*ideal_dependent_hits)),
        ("faults", fault_plan_to_json(faults)),
        ("liveness", liveness_config_to_json(liveness)),
    ])
}

/// Decode a [`SystemConfig`] written by [`config_to_json`].
///
/// Documents written before the fault or liveness layers existed (no
/// `faults` / `liveness` key) decode with those sections defaulted.
///
/// # Errors
///
/// Returns a dotted path naming the first missing or malformed field.
pub fn config_from_json(v: &JsonValue) -> Result<SystemConfig, String> {
    Ok(SystemConfig {
        cores: get_usize(v, "cores")?,
        memory_controllers: get_usize(v, "memory_controllers")?,
        core: core_config_from_json(get(v, "core")?).map_err(|e| format!("core.{e}"))?,
        l1: cache_config_from_json(get(v, "l1")?).map_err(|e| format!("l1.{e}"))?,
        llc_slice: cache_config_from_json(get(v, "llc_slice")?)
            .map_err(|e| format!("llc_slice.{e}"))?,
        ring: ring_config_from_json(get(v, "ring")?).map_err(|e| format!("ring.{e}"))?,
        dram: dram_config_from_json(get(v, "dram")?).map_err(|e| format!("dram.{e}"))?,
        prefetcher: {
            let label = get_str(v, "prefetcher")?;
            PrefetcherKind::from_label(label)
                .ok_or_else(|| format!("prefetcher: unknown label {label:?}"))?
        },
        prefetch: prefetch_config_from_json(get(v, "prefetch")?)
            .map_err(|e| format!("prefetch.{e}"))?,
        emc: emc_config_from_json(get(v, "emc")?).map_err(|e| format!("emc.{e}"))?,
        seed: get_u64(v, "seed")?,
        ideal_dependent_hits: get_bool(v, "ideal_dependent_hits")?,
        faults: match v.get("faults") {
            Some(fv) => fault_plan_from_json(fv).map_err(|e| format!("faults.{e}"))?,
            None => FaultPlan::default(),
        },
        liveness: match v.get("liveness") {
            Some(lv) => liveness_config_from_json(lv).map_err(|e| format!("liveness.{e}"))?,
            None => LivenessConfig::default(),
        },
    })
}

fn core_config_to_json(c: &CoreConfig) -> JsonValue {
    let CoreConfig {
        fetch_width,
        issue_width,
        retire_width,
        rob_entries,
        rs_entries,
        lsq_entries,
        mispredict_penalty,
        bp_table_entries,
        runahead,
    } = c;
    JsonValue::obj(vec![
        ("fetch_width", u(*fetch_width as u64)),
        ("issue_width", u(*issue_width as u64)),
        ("retire_width", u(*retire_width as u64)),
        ("rob_entries", u(*rob_entries as u64)),
        ("rs_entries", u(*rs_entries as u64)),
        ("lsq_entries", u(*lsq_entries as u64)),
        ("mispredict_penalty", u(*mispredict_penalty)),
        ("bp_table_entries", u(*bp_table_entries as u64)),
        ("runahead", b(*runahead)),
    ])
}

fn core_config_from_json(v: &JsonValue) -> Result<CoreConfig, String> {
    Ok(CoreConfig {
        fetch_width: get_usize(v, "fetch_width")?,
        issue_width: get_usize(v, "issue_width")?,
        retire_width: get_usize(v, "retire_width")?,
        rob_entries: get_usize(v, "rob_entries")?,
        rs_entries: get_usize(v, "rs_entries")?,
        lsq_entries: get_usize(v, "lsq_entries")?,
        mispredict_penalty: get_u64(v, "mispredict_penalty")?,
        bp_table_entries: get_usize(v, "bp_table_entries")?,
        runahead: get_bool(v, "runahead")?,
    })
}

fn cache_config_to_json(c: &CacheConfig) -> JsonValue {
    let CacheConfig {
        bytes,
        ways,
        latency,
        mshrs,
    } = c;
    JsonValue::obj(vec![
        ("bytes", u(*bytes)),
        ("ways", u(*ways as u64)),
        ("latency", u(*latency)),
        ("mshrs", u(*mshrs as u64)),
    ])
}

fn cache_config_from_json(v: &JsonValue) -> Result<CacheConfig, String> {
    Ok(CacheConfig {
        bytes: get_u64(v, "bytes")?,
        ways: get_usize(v, "ways")?,
        latency: get_u64(v, "latency")?,
        mshrs: get_usize(v, "mshrs")?,
    })
}

fn ring_config_to_json(r: &RingConfig) -> JsonValue {
    let RingConfig {
        link_cycles,
        stop_cycles,
    } = r;
    JsonValue::obj(vec![
        ("link_cycles", u(*link_cycles)),
        ("stop_cycles", u(*stop_cycles)),
    ])
}

fn ring_config_from_json(v: &JsonValue) -> Result<RingConfig, String> {
    Ok(RingConfig {
        link_cycles: get_u64(v, "link_cycles")?,
        stop_cycles: get_u64(v, "stop_cycles")?,
    })
}

fn dram_config_to_json(d: &DramConfig) -> JsonValue {
    let DramConfig {
        channels,
        ranks_per_channel,
        banks_per_rank,
        row_bytes,
        t_cas,
        t_rcd,
        t_rp,
        t_ras,
        t_burst,
        queue_entries,
    } = d;
    JsonValue::obj(vec![
        ("channels", u(*channels as u64)),
        ("ranks_per_channel", u(*ranks_per_channel as u64)),
        ("banks_per_rank", u(*banks_per_rank as u64)),
        ("row_bytes", u(*row_bytes)),
        ("t_cas", u(*t_cas)),
        ("t_rcd", u(*t_rcd)),
        ("t_rp", u(*t_rp)),
        ("t_ras", u(*t_ras)),
        ("t_burst", u(*t_burst)),
        ("queue_entries", u(*queue_entries as u64)),
    ])
}

fn dram_config_from_json(v: &JsonValue) -> Result<DramConfig, String> {
    Ok(DramConfig {
        channels: get_usize(v, "channels")?,
        ranks_per_channel: get_usize(v, "ranks_per_channel")?,
        banks_per_rank: get_usize(v, "banks_per_rank")?,
        row_bytes: get_u64(v, "row_bytes")?,
        t_cas: get_u64(v, "t_cas")?,
        t_rcd: get_u64(v, "t_rcd")?,
        t_rp: get_u64(v, "t_rp")?,
        t_ras: get_u64(v, "t_ras")?,
        t_burst: get_u64(v, "t_burst")?,
        queue_entries: get_usize(v, "queue_entries")?,
    })
}

fn prefetch_config_to_json(p: &PrefetchConfig) -> JsonValue {
    let PrefetchConfig {
        stream_count,
        stream_distance,
        markov_entries,
        markov_fanout,
        ghb_entries,
        ghb_index_entries,
        fdp_min_degree,
        fdp_max_degree,
        fdp_high_accuracy,
        fdp_low_accuracy,
        fdp_interval,
    } = p;
    JsonValue::obj(vec![
        ("stream_count", u(*stream_count as u64)),
        ("stream_distance", u(*stream_distance)),
        ("markov_entries", u(*markov_entries as u64)),
        ("markov_fanout", u(*markov_fanout as u64)),
        ("ghb_entries", u(*ghb_entries as u64)),
        ("ghb_index_entries", u(*ghb_index_entries as u64)),
        ("fdp_min_degree", u(*fdp_min_degree as u64)),
        ("fdp_max_degree", u(*fdp_max_degree as u64)),
        ("fdp_high_accuracy", f(*fdp_high_accuracy)),
        ("fdp_low_accuracy", f(*fdp_low_accuracy)),
        ("fdp_interval", u(*fdp_interval)),
    ])
}

fn prefetch_config_from_json(v: &JsonValue) -> Result<PrefetchConfig, String> {
    Ok(PrefetchConfig {
        stream_count: get_usize(v, "stream_count")?,
        stream_distance: get_u64(v, "stream_distance")?,
        markov_entries: get_usize(v, "markov_entries")?,
        markov_fanout: get_usize(v, "markov_fanout")?,
        ghb_entries: get_usize(v, "ghb_entries")?,
        ghb_index_entries: get_usize(v, "ghb_index_entries")?,
        fdp_min_degree: get_usize(v, "fdp_min_degree")?,
        fdp_max_degree: get_usize(v, "fdp_max_degree")?,
        fdp_high_accuracy: get_f64(v, "fdp_high_accuracy")?,
        fdp_low_accuracy: get_f64(v, "fdp_low_accuracy")?,
        fdp_interval: get_u64(v, "fdp_interval")?,
    })
}

fn emc_config_to_json(e: &EmcConfig) -> JsonValue {
    let EmcConfig {
        enabled,
        contexts,
        uop_buffer,
        prf_entries,
        live_in_entries,
        lsq_entries,
        rs_entries,
        issue_width,
        tlb_entries,
        dcache_bytes,
        dcache_ways,
        dcache_latency,
        miss_pred_entries,
        miss_pred_threshold,
        dep_counter_trigger,
        chain_candidates,
        quiesce_threshold,
        quiesce_backoff,
        quiesce_backoff_max,
    } = e;
    JsonValue::obj(vec![
        ("enabled", b(*enabled)),
        ("contexts", u(*contexts as u64)),
        ("uop_buffer", u(*uop_buffer as u64)),
        ("prf_entries", u(*prf_entries as u64)),
        ("live_in_entries", u(*live_in_entries as u64)),
        ("lsq_entries", u(*lsq_entries as u64)),
        ("rs_entries", u(*rs_entries as u64)),
        ("issue_width", u(*issue_width as u64)),
        ("tlb_entries", u(*tlb_entries as u64)),
        ("dcache_bytes", u(*dcache_bytes)),
        ("dcache_ways", u(*dcache_ways as u64)),
        ("dcache_latency", u(*dcache_latency)),
        ("miss_pred_entries", u(*miss_pred_entries as u64)),
        ("miss_pred_threshold", u(*miss_pred_threshold as u64)),
        ("dep_counter_trigger", u(*dep_counter_trigger as u64)),
        ("chain_candidates", u(*chain_candidates as u64)),
        ("quiesce_threshold", u(*quiesce_threshold as u64)),
        ("quiesce_backoff", u(*quiesce_backoff)),
        ("quiesce_backoff_max", u(*quiesce_backoff_max)),
    ])
}

fn emc_config_from_json(v: &JsonValue) -> Result<EmcConfig, String> {
    Ok(EmcConfig {
        enabled: get_bool(v, "enabled")?,
        contexts: get_usize(v, "contexts")?,
        uop_buffer: get_usize(v, "uop_buffer")?,
        prf_entries: get_usize(v, "prf_entries")?,
        live_in_entries: get_usize(v, "live_in_entries")?,
        lsq_entries: get_usize(v, "lsq_entries")?,
        rs_entries: get_usize(v, "rs_entries")?,
        issue_width: get_usize(v, "issue_width")?,
        tlb_entries: get_usize(v, "tlb_entries")?,
        dcache_bytes: get_u64(v, "dcache_bytes")?,
        dcache_ways: get_usize(v, "dcache_ways")?,
        dcache_latency: get_u64(v, "dcache_latency")?,
        miss_pred_entries: get_usize(v, "miss_pred_entries")?,
        miss_pred_threshold: get_u8(v, "miss_pred_threshold")?,
        dep_counter_trigger: get_u8(v, "dep_counter_trigger")?,
        chain_candidates: get_usize(v, "chain_candidates")?,
        quiesce_threshold: get_u32(v, "quiesce_threshold")?,
        quiesce_backoff: get_u64(v, "quiesce_backoff")?,
        quiesce_backoff_max: get_u64(v, "quiesce_backoff_max")?,
    })
}

/// Encode a [`FaultPlan`].
pub fn fault_plan_to_json(p: &FaultPlan) -> JsonValue {
    let FaultPlan {
        enabled,
        ring_delay_prob,
        ring_delay_cycles,
        dram_reissue_prob,
        dram_reissue_penalty,
        emc_kill_prob,
        mc_storm_prob,
        mc_storm_cycles,
    } = p;
    JsonValue::obj(vec![
        ("enabled", b(*enabled)),
        ("ring_delay_prob", f(*ring_delay_prob)),
        ("ring_delay_cycles", u(*ring_delay_cycles)),
        ("dram_reissue_prob", f(*dram_reissue_prob)),
        ("dram_reissue_penalty", u(*dram_reissue_penalty)),
        ("emc_kill_prob", f(*emc_kill_prob)),
        ("mc_storm_prob", f(*mc_storm_prob)),
        ("mc_storm_cycles", u(*mc_storm_cycles)),
    ])
}

/// Decode a [`FaultPlan`].
///
/// # Errors
///
/// Returns a message naming the first missing or malformed field.
pub fn fault_plan_from_json(v: &JsonValue) -> Result<FaultPlan, String> {
    Ok(FaultPlan {
        enabled: get_bool(v, "enabled")?,
        ring_delay_prob: get_f64(v, "ring_delay_prob")?,
        ring_delay_cycles: get_u64(v, "ring_delay_cycles")?,
        dram_reissue_prob: get_f64(v, "dram_reissue_prob")?,
        dram_reissue_penalty: get_u64(v, "dram_reissue_penalty")?,
        emc_kill_prob: get_f64(v, "emc_kill_prob")?,
        mc_storm_prob: get_f64(v, "mc_storm_prob")?,
        mc_storm_cycles: get_u64(v, "mc_storm_cycles")?,
    })
}

/// Encode a [`LivenessConfig`].
pub fn liveness_config_to_json(l: &LivenessConfig) -> JsonValue {
    let LivenessConfig {
        enabled,
        mc_escalation_age,
        emc_lease,
        ring_backlog_threshold,
        core_stall_age,
        probe_interval,
    } = l;
    JsonValue::obj(vec![
        ("enabled", b(*enabled)),
        ("mc_escalation_age", u(*mc_escalation_age)),
        ("emc_lease", u(*emc_lease)),
        ("ring_backlog_threshold", u(*ring_backlog_threshold)),
        ("core_stall_age", u(*core_stall_age)),
        ("probe_interval", u(*probe_interval)),
    ])
}

/// Decode a [`LivenessConfig`].
///
/// # Errors
///
/// Returns a message naming the first missing or malformed field.
pub fn liveness_config_from_json(v: &JsonValue) -> Result<LivenessConfig, String> {
    Ok(LivenessConfig {
        enabled: get_bool(v, "enabled")?,
        mc_escalation_age: get_u64(v, "mc_escalation_age")?,
        emc_lease: get_u64(v, "emc_lease")?,
        ring_backlog_threshold: get_u64(v, "ring_backlog_threshold")?,
        core_stall_age: get_u64(v, "core_stall_age")?,
        probe_interval: get_u64(v, "probe_interval")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_exactly() {
        let mut cfg = SystemConfig::quad_core().with_faults(FaultPlan::chaos());
        cfg.prefetcher = PrefetcherKind::MarkovStream;
        cfg.liveness.emc_lease = 12_345;
        cfg.liveness.enabled = false;
        let text = config_to_json(&cfg).to_json();
        let back = config_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
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
        let back = config_from_json(&stripped).unwrap();
        assert_eq!(back.faults, FaultPlan::default());
        assert_eq!(back.liveness, LivenessConfig::default());
        assert_eq!(back, SystemConfig::quad_core());
    }

    #[test]
    fn prefetcher_label_round_trips() {
        for pf in PrefetcherKind::ALL {
            assert_eq!(PrefetcherKind::from_label(pf.label()), Some(pf));
        }
        assert_eq!(
            PrefetcherKind::from_label(PrefetcherKind::Stride.label()),
            Some(PrefetcherKind::Stride)
        );
        assert_eq!(PrefetcherKind::from_label("bogus"), None);
    }

    #[test]
    fn stats_round_trip_preserves_new_liveness_counters() {
        let mut s = Stats::new(1);
        s.cores[0].chains_aborted_lease = 3;
        s.mem.escalated_requests = 99;
        let text = stats_to_json(&s).to_json();
        let back = stats_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
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
        let back = stats_from_json(&JsonValue::Obj(pairs)).unwrap();
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
        let err = config_from_json(&JsonValue::Obj(pairs)).unwrap_err();
        assert!(err.contains("dram.") && err.contains("t_cas"), "{err}");
    }
}
