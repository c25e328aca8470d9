//! Regenerate the paper's tables and figures.
//!
//! Usage: `cargo run -p emc-bench --release --bin figures -- <id>`, where
//! `<id>` is a row of [`FIGURES`] or `all` (the default), which draws
//! every row but `check` and `calibrate` in table order. Set
//! `EMC_FIGURE_BUDGET` to change the per-core retired-uop budget
//! (default 30000).
//!
//! Every grid goes through the campaign engine: results are cached by
//! content under `results/cache/`, shared across figures (fig1, fig6 and
//! tab2 reuse the same baseline runs; `check` reuses the quad grid), and
//! an interrupted `all` resumes from its manifests instead of starting
//! over. Re-running a figure with a warm cache is pure lookups.

use std::cell::OnceCell;

use emc_bench::{
    bar, config_grid, config_json, figure_budget, find, homog_jobs, mix8_jobs,
    norm_weighted_speedup, quad_jobs, run_jobs, write_json, JobSpec, RunResult,
};
use emc_types::{JsonValue, PrefetcherKind, SystemConfig, ToJson};
use emc_workloads::{Benchmark, QUAD_MIXES};
use Draw::{Budget, Fixed, Homog, Quad};

/// One row of the harness: `figures <id>` draws it, and `figures all`
/// draws every row with `in_all` set, in table order.
struct Figure {
    id: &'static str,
    in_all: bool,
    draw: Draw,
}

/// What a row reads, and the function that draws it from that. Each
/// returns the sidecar written as `results/<id>.json`, if it has one.
enum Draw {
    Fixed(fn() -> Sidecar),
    Budget(fn(u64) -> Sidecar),
    /// H1–H10 × the eight configurations of `config_grid`.
    Quad(fn(&[RunResult]) -> Sidecar),
    /// The high-intensity benchmarks, four copies each, × the same eight.
    Homog(fn(&[RunResult]) -> Sidecar),
}

type Sidecar = Option<JsonValue>;

#[rustfmt::skip]
const FIGURES: &[Figure] = &[
    Figure { id: "tab1", in_all: true, draw: Fixed(tab1) },
    Figure { id: "tab3", in_all: true, draw: Fixed(tab3) },
    Figure { id: "fig1", in_all: true, draw: Budget(|b| fig1_2(b, false)) },
    Figure { id: "fig2", in_all: true, draw: Budget(|b| fig1_2(b, true)) },
    Figure { id: "fig3", in_all: true, draw: Budget(fig3) },
    Figure { id: "fig6", in_all: true, draw: Budget(fig6) },
    Figure { id: "fig12", in_all: true, draw: Quad(fig12) },
    Figure { id: "fig15", in_all: true, draw: Quad(fig15) },
    Figure { id: "fig16", in_all: true, draw: Quad(fig16) },
    Figure { id: "fig17", in_all: true, draw: Quad(fig17) },
    Figure { id: "fig18", in_all: true, draw: Quad(fig18) },
    Figure { id: "fig19", in_all: true, draw: Quad(fig19) },
    Figure { id: "fig21", in_all: true, draw: Quad(fig21) },
    Figure { id: "fig22", in_all: true, draw: Quad(fig22) },
    Figure { id: "fig23", in_all: true, draw: Quad(fig23) },
    Figure { id: "overhead", in_all: true, draw: Quad(overhead) },
    Figure { id: "fig13", in_all: true, draw: Homog(fig13) },
    Figure { id: "fig24", in_all: true, draw: Homog(fig24) },
    Figure { id: "fig14", in_all: true, draw: Budget(fig14) },
    Figure { id: "fig20", in_all: true, draw: Budget(fig20) },
    Figure { id: "ablation", in_all: true, draw: Budget(ablation) },
    Figure { id: "tab2", in_all: true, draw: Budget(tab2) },
    Figure { id: "check", in_all: false, draw: Budget(check) },
    Figure { id: "calibrate", in_all: false, draw: Fixed(calibrate) },
];

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let inputs = Inputs {
        budget: figure_budget(),
        quad: OnceCell::new(),
        homog: OnceCell::new(),
    };
    eprintln!(
        "# figure budget: {} retired uops/core (EMC_FIGURE_BUDGET to change)",
        inputs.budget
    );
    if what == "all" {
        FIGURES
            .iter()
            .filter(|f| f.in_all)
            .for_each(|f| f.draw(&inputs));
    } else if let Some(f) = FIGURES.iter().find(|f| f.id == what) {
        f.draw(&inputs);
    } else {
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        eprintln!("unknown figure id: {what} (one of: {} all)", ids.join(" "));
        std::process::exit(2);
    }
}

/// What rows read: the budget, and the two shared grids, each run at
/// most once per invocation, by the first row that reads it.
struct Inputs {
    budget: u64,
    quad: OnceCell<Vec<RunResult>>,
    homog: OnceCell<Vec<RunResult>>,
}

impl Figure {
    fn draw(&self, inputs: &Inputs) {
        let budget = inputs.budget;
        let sidecar = match self.draw {
            Fixed(f) => f(),
            Budget(f) => f(budget),
            Quad(f) => f(inputs
                .quad
                .get_or_init(|| shared_grid("quad-core", "quad", quad_jobs(budget)))),
            Homog(f) => f(inputs
                .homog
                .get_or_init(|| shared_grid("homogeneous", "homog", homog_jobs(budget)))),
        };
        if let Some(data) = sidecar {
            emit(self.id, &data);
        }
    }
}

/// Run one of the shared grids under campaign `<name>-grid` and write
/// it whole to `results/<name>_grid.json`.
fn shared_grid(what: &str, name: &str, jobs: Vec<JobSpec>) -> Vec<RunResult> {
    eprintln!("# running {what} grid ({} simulations)...", jobs.len());
    let grid = run_jobs(&format!("{name}-grid"), jobs);
    emit(&format!("{name}_grid"), &grid);
    grid
}

/// Write a sidecar, failing the run loudly (with the path) if the write
/// fails — a figure whose JSON silently vanished is worse than no
/// figure.
fn emit<T: ToJson>(name: &str, value: &T) {
    if let Err(e) = write_json(name, value) {
        eprintln!("# sidecar failure: {e}");
        std::process::exit(1);
    }
}

/// The homogeneous no-EMC baseline specs over `benches` — the jobs
/// fig1, fig2, fig6, tab2 and `calibrate` all share (and therefore
/// cache-hit on, at the same budget).
fn baseline_specs(benches: &[Benchmark], budget: u64) -> Vec<JobSpec> {
    let cfg = SystemConfig::quad_core().without_emc();
    benches
        .iter()
        .map(|&b| JobSpec::homog(b, cfg.clone(), budget))
        .collect()
}

fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

fn tab1() -> Sidecar {
    header("Table 1: system configuration");
    println!(
        "{}",
        config_json(&SystemConfig::quad_core()).to_json_pretty()
    );
    None
}

fn tab2(budget: u64) -> Sidecar {
    header("Table 2: SPEC CPU2006 classification by memory intensity (measured MPKI)");
    let jobs: Vec<Benchmark> = Benchmark::all();
    let runs = run_jobs("tab2-mpki", baseline_specs(&jobs, budget));
    let mut rows: Vec<(String, f64, bool)> = jobs
        .iter()
        .zip(&runs)
        .map(|(b, r)| {
            (
                b.name().to_string(),
                r.stats.cores[0].mpki(),
                b.is_high_intensity(),
            )
        })
        .collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    println!(
        "{:<12} {:>8}  {:<22} paper class",
        "benchmark", "MPKI", "measured class"
    );
    let mut agree = 0;
    for (name, mpki, paper_high) in &rows {
        let measured_high = *mpki >= 10.0;
        if measured_high == *paper_high {
            agree += 1;
        }
        println!(
            "{:<12} {:>8.1}  {:<22} {}",
            name,
            mpki,
            if measured_high {
                "high (MPKI >= 10)"
            } else {
                "low (MPKI < 10)"
            },
            if *paper_high { "high" } else { "low" },
        );
    }
    println!("classification agreement: {agree}/{}", rows.len());
    Some(rows.to_json_value())
}

fn tab3() -> Sidecar {
    header("Table 3: quad-core workloads");
    for (name, mix) in QUAD_MIXES {
        let names: Vec<&str> = mix.iter().map(|b| b.name()).collect();
        println!("{name:<4} {}", names.join("+"));
    }
    None
}

/// Workload calibration (DESIGN.md §2): MPKI, IPC, dependent-miss share
/// and full-window-stall share of the high-intensity benchmarks and
/// four others, four copies each on the quad-core without EMC or
/// prefetching, at a fixed 150 000 uops per core whatever the figure
/// budget is. Keeps the synthetic profiles inside the paper's bands.
fn calibrate() -> Sidecar {
    use Benchmark::{Gcc, Hmmer, Leslie3d, Perlbench};
    header("Workload calibration: no EMC, no prefetcher, 150 000 uops/core");
    let mut benches = Benchmark::HIGH_INTENSITY.to_vec();
    benches.extend([Gcc, Perlbench, Leslie3d, Hmmer]);
    let runs = run_jobs("calibrate", baseline_specs(&benches, 150_000));
    println!(
        "{:<12} {:>7} {:>6} {:>6} {:>7}",
        "bench", "MPKI", "IPC", "dep%", "stall%"
    );
    for (b, r) in benches.iter().zip(&runs) {
        let c = &r.stats.cores[0];
        println!(
            "{:<12} {:>7.1} {:>6.3} {:>6.1} {:>7.1}",
            b.name(),
            c.mpki(),
            c.ipc(),
            100.0 * c.dependent_miss_fraction(),
            100.0 * c.full_window_stall_cycles as f64 / c.cycles as f64
        );
    }
    None
}

// ---------------------------------------------------------------------
// Motivation figures (1, 2, 3, 6)
// ---------------------------------------------------------------------

/// Figures 1 and 2 share the homogeneous no-prefetch runs over the whole
/// suite; `ideal` additionally runs the dependent-misses-become-hits
/// limit study of Figure 2.
fn fig1_2(budget: u64, ideal: bool) -> Sidecar {
    let jobs: Vec<Benchmark> = Benchmark::all();
    let runs = run_jobs("motivation-base", baseline_specs(&jobs, budget));
    // Sort ascending by memory intensity as the paper does.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        runs[a].stats.cores[0]
            .mpki()
            .partial_cmp(&runs[b].stats.cores[0].mpki())
            .expect("finite")
    });

    if !ideal {
        header("Figure 1: DRAM latency vs on-chip delay of LLC misses (cycles)");
        println!(
            "{:<12} {:>8} {:>8} {:>8} {:>9}",
            "benchmark", "dram", "on-chip", "total", "on-chip%"
        );
        let mut out = Vec::new();
        for &i in &order {
            let m = &runs[i].stats.mem;
            let dram = m.dram_service_latency.mean();
            let chip = m.on_chip_delay.mean();
            let total = dram + chip;
            if total == 0.0 {
                continue; // no misses at all
            }
            println!(
                "{:<12} {:>8.0} {:>8.0} {:>8.0} {:>8.1}%",
                jobs[i].name(),
                dram,
                chip,
                total,
                100.0 * chip / total
            );
            out.push((jobs[i].name(), dram, chip));
        }
        return Some(out.to_json_value());
    }

    header("Figure 2: dependent LLC misses and the ideal-hit limit study");
    let mut ideal_cfg = SystemConfig::quad_core().without_emc();
    ideal_cfg.ideal_dependent_hits = true;
    let ideal_runs = run_jobs(
        "motivation-ideal",
        jobs.iter()
            .map(|&b| JobSpec::homog(b, ideal_cfg.clone(), budget))
            .collect(),
    );
    println!(
        "{:<12} {:>12} {:>16}",
        "benchmark", "dependent%", "ideal speedup%"
    );
    let mut out = Vec::new();
    for &i in &order {
        let dep = 100.0 * runs[i].stats.cores[0].dependent_miss_fraction();
        let base_ipc: f64 = runs[i].ipcs.iter().sum();
        let ideal_ipc: f64 = ideal_runs[i].ipcs.iter().sum();
        let speedup = if base_ipc > 0.0 {
            100.0 * (ideal_ipc / base_ipc - 1.0)
        } else {
            0.0
        };
        println!("{:<12} {:>11.1}% {:>15.1}%", jobs[i].name(), dep, speedup);
        out.push((jobs[i].name(), dep, speedup));
    }
    Some(out.to_json_value())
}

fn fig3(budget: u64) -> Sidecar {
    header("Figure 3: % of dependent cache misses covered by each prefetcher");
    println!(
        "{:<12} {:>8} {:>8} {:>14}",
        "benchmark", "GHB", "Stream", "Markov+Stream"
    );
    let pfs = [
        PrefetcherKind::Ghb,
        PrefetcherKind::Stream,
        PrefetcherKind::MarkovStream,
    ];
    let mut specs = Vec::new();
    for b in Benchmark::HIGH_INTENSITY {
        for pf in pfs {
            specs.push(JobSpec::homog(
                b,
                SystemConfig::quad_core().without_emc().with_prefetcher(pf),
                budget,
            ));
        }
    }
    let runs = run_jobs("fig3-coverage", specs);
    let mut out = Vec::new();
    for (bi, b) in Benchmark::HIGH_INTENSITY.iter().enumerate() {
        let mut cov = [0.0f64; 3];
        for (pi, _) in pfs.iter().enumerate() {
            let r = &runs[bi * 3 + pi];
            let covered: u64 = r
                .stats
                .cores
                .iter()
                .map(|c| c.dependent_misses_prefetched)
                .sum();
            let dep: u64 = r.stats.cores.iter().map(|c| c.dependent_llc_misses).sum();
            let total = covered + dep;
            cov[pi] = if total == 0 {
                0.0
            } else {
                100.0 * covered as f64 / total as f64
            };
        }
        println!(
            "{:<12} {:>7.1}% {:>7.1}% {:>13.1}%",
            b.name(),
            cov[0],
            cov[1],
            cov[2]
        );
        out.push((b.name(), cov));
    }
    Some(out.to_json_value())
}

fn fig6(budget: u64) -> Sidecar {
    header("Figure 6: average ops between a source miss and its dependent miss");
    // Same specs as the fig1/tab2 baseline over the high-intensity
    // subset: all cache hits once either has run.
    let jobs: Vec<Benchmark> = Benchmark::HIGH_INTENSITY.to_vec();
    let runs = run_jobs("fig6-chains", baseline_specs(&jobs, budget));
    let mut out = Vec::new();
    for (b, r) in jobs.iter().zip(&runs) {
        let pairs: u64 = r.stats.cores.iter().map(|c| c.dep_chain_pairs).sum();
        let sum: u64 = r.stats.cores.iter().map(|c| c.dep_chain_uop_sum).sum();
        let mean = if pairs == 0 {
            0.0
        } else {
            sum as f64 / pairs as f64
        };
        println!("{:<12} {:>6.2}", b.name(), mean);
        out.push((b.name(), mean));
    }
    Some(out.to_json_value())
}

// ---------------------------------------------------------------------
// Performance (12, 13, 14) and energy (23, 24) against the baseline
// ---------------------------------------------------------------------

/// How Figures 12–14, 23 and 24 tabulate a grid: a row per workload, in
/// grid order, with one value per `config_grid` column but the no-PF,
/// no-EMC baseline (the workload's run in that column against its
/// baseline run), then a mean row.
struct Versus {
    /// A cell's value, from its run and the workload's baseline run.
    value: fn(&RunResult, &RunResult) -> f64,
    /// A printed cell, leading space included.
    cell: fn(f64) -> String,
    /// Printed after the column labels.
    note: &'static str,
    /// The mean row's label.
    mean: &'static str,
    /// Whether the sidecar pairs each value with its column label.
    labelled: bool,
}

/// Normalized weighted speedup (Figures 12–14).
const SPEEDUP: Versus = Versus {
    value: |r, base| norm_weighted_speedup(r, &base.ipcs),
    cell: |v| format!(" {v:>14.3}"),
    note: "",
    mean: "gmean-ish",
    labelled: true,
};

/// Energy change in percent (Figures 23 and 24).
const ENERGY: Versus = Versus {
    value: |r, base| r.energy.percent_vs(&base.energy),
    cell: |v| format!(" {v:>+13.1}%"),
    note: "   (% energy vs no-PF baseline)",
    mean: "mean",
    labelled: false,
};

impl Versus {
    /// Print the table of `grid` and return its sidecar.
    fn table(&self, grid: &[RunResult]) -> JsonValue {
        let mut workloads: Vec<&str> = Vec::new();
        for r in grid {
            if !workloads.contains(&r.workload.as_str()) {
                workloads.push(&r.workload);
            }
        }
        let columns: Vec<(PrefetcherKind, bool)> = config_grid(SystemConfig::quad_core())
            .iter()
            .map(|c| (c.prefetcher, c.emc.enabled))
            .filter(|&(pf, emc)| pf != PrefetcherKind::None || emc)
            .collect();
        let labels: Vec<String> = columns
            .iter()
            .map(|(pf, emc)| format!("{}{}", pf.label(), if *emc { "+EMC" } else { "" }))
            .collect();
        print!("{:<12}", "workload");
        for l in &labels {
            print!(" {l:>14}");
        }
        println!("{}", self.note);
        let mut sums = vec![0.0; columns.len()];
        let mut rows = Vec::new();
        for &w in &workloads {
            let base = find(grid, w, PrefetcherKind::None, false);
            print!("{w:<12}");
            let mut values = Vec::new();
            for (&(pf, emc), sum) in columns.iter().zip(&mut sums) {
                let v = (self.value)(find(grid, w, pf, emc), base);
                print!("{}", (self.cell)(v));
                *sum += v;
                values.push(v);
            }
            println!();
            rows.push((w.to_string(), values));
        }
        print!("{:<12}", self.mean);
        for s in &sums {
            print!("{}", (self.cell)(s / workloads.len() as f64));
        }
        println!();
        if !self.labelled {
            return rows.to_json_value();
        }
        let labelled: Vec<(String, Vec<(String, f64)>)> = rows
            .into_iter()
            .map(|(w, values)| (w, labels.iter().cloned().zip(values).collect()))
            .collect();
        labelled.to_json_value()
    }
}

fn fig12(grid: &[RunResult]) -> Sidecar {
    header("Figure 12: quad-core weighted speedup vs no-PF baseline, H1-H10");
    Some(SPEEDUP.table(grid))
}

fn fig13(grid: &[RunResult]) -> Sidecar {
    header("Figure 13: quad-core homogeneous workloads (4 copies each)");
    Some(SPEEDUP.table(grid))
}

fn fig14(budget: u64) -> Sidecar {
    header("Figure 14: eight-core performance, single vs dual memory controller");
    for (label, cfg) in [
        ("1MC", SystemConfig::eight_core_1mc()),
        ("2MC", SystemConfig::eight_core_2mc()),
    ] {
        // Campaign names match the `campaign run mix8-*` CLI suites, so
        // either entry point warms the other.
        let grid = run_jobs(
            &format!("mix8-{}", label.to_lowercase()),
            mix8_jobs(cfg, budget),
        );
        println!("--- {label} ---");
        emit(&format!("fig14_{label}"), &SPEEDUP.table(&grid));
    }
    None
}

fn fig23(grid: &[RunResult]) -> Sidecar {
    header("Figure 23: energy consumption vs no-EMC/no-PF baseline, H1-H10");
    Some(ENERGY.table(grid))
}

fn fig24(grid: &[RunResult]) -> Sidecar {
    header("Figure 24: energy consumption, homogeneous workloads");
    Some(ENERGY.table(grid))
}

// ---------------------------------------------------------------------
// Analysis figures (15-19, 21, 22)
// ---------------------------------------------------------------------

fn emc_runs(grid: &[RunResult]) -> Vec<&RunResult> {
    QUAD_MIXES
        .iter()
        .map(|(n, _)| find(grid, n, PrefetcherKind::None, true))
        .collect()
}

fn fig15(grid: &[RunResult]) -> Sidecar {
    header("Figure 15: fraction of all LLC misses generated by the EMC");
    let mut out = Vec::new();
    for r in emc_runs(grid) {
        let f = r.stats.emc_miss_fraction();
        println!(
            "{:<5} {:>6.1}%  |{}|",
            r.workload,
            100.0 * f,
            bar(f, 0.5, 40)
        );
        out.push((r.workload.clone(), f));
    }
    Some(out.to_json_value())
}

fn fig16(grid: &[RunResult]) -> Sidecar {
    header("Figure 16: row-buffer conflict-rate change vs no-PF baseline");
    let mut out = Vec::new();
    for (name, _) in QUAD_MIXES {
        let base = find(grid, name, PrefetcherKind::None, false);
        let emc = find(grid, name, PrefetcherKind::None, true);
        let delta = emc.stats.mem.row_conflict_rate() - base.stats.mem.row_conflict_rate();
        println!(
            "{name:<5} {:>+7.2}% (base {:.1}%, EMC {:.1}%)",
            100.0 * delta,
            100.0 * base.stats.mem.row_conflict_rate(),
            100.0 * emc.stats.mem.row_conflict_rate()
        );
        out.push((name, delta));
    }
    Some(out.to_json_value())
}

fn fig17(grid: &[RunResult]) -> Sidecar {
    header("Figure 17: EMC data-cache hit rate");
    let mut out = Vec::new();
    for r in emc_runs(grid) {
        let h = r.stats.emc.dcache_hit_rate();
        println!(
            "{:<5} {:>6.1}%  |{}|",
            r.workload,
            100.0 * h,
            bar(h, 0.6, 40)
        );
        out.push((r.workload.clone(), h));
    }
    Some(out.to_json_value())
}

fn fig18(grid: &[RunResult]) -> Sidecar {
    header("Figure 18: LLC-miss latency, EMC-issued vs core-issued (cycles)");
    // The paper's claim is about the latency *distribution*, so report
    // the median and tail of each histogram, not just the mean.
    println!(
        "{:<5} {:>24} {:>24} {:>9}",
        "mix", "core p50/p95/p99", "EMC p50/p95/p99", "saving"
    );
    let mut csum = 0.0;
    let mut esum = 0.0;
    let mut out = Vec::new();
    for r in emc_runs(grid) {
        let ch = &r.stats.mem.core_miss_latency;
        let eh = &r.stats.mem.emc_miss_latency;
        let (c, e) = (ch.mean(), eh.mean());
        let save = if c > 0.0 { 100.0 * (1.0 - e / c) } else { 0.0 };
        println!(
            "{:<5} {:>24} {:>24} {:>8.1}%",
            r.workload,
            format!("{}/{}/{}", ch.p50(), ch.p95(), ch.p99()),
            format!("{}/{}/{}", eh.p50(), eh.p95(), eh.p99()),
            save
        );
        csum += c;
        esum += e;
        out.push((
            r.workload.clone(),
            c,
            e,
            ch.p50(),
            ch.p95(),
            ch.p99(),
            eh.p50(),
            eh.p95(),
            eh.p99(),
        ));
    }
    let n = out.len() as f64;
    println!(
        "{:<5} mean {:>7.0} vs {:>7.0} {:>8.1}%  (paper: ~20% lower for EMC requests)",
        "avg",
        csum / n,
        esum / n,
        100.0 * (1.0 - esum / csum)
    );
    Some(out.to_json_value())
}

fn fig19(grid: &[RunResult]) -> Sidecar {
    header("Figure 19: average cycles saved per EMC request, by source");
    println!(
        "{:<5} {:>12} {:>12} {:>12} {:>8}",
        "mix", "interconnect", "cache", "queue", "total"
    );
    let mut out = Vec::new();
    for r in emc_runs(grid) {
        let m = &r.stats.mem;
        let ring = m.core_ring_component.mean() - m.emc_ring_component.mean();
        let cache = m.core_cache_component.mean() - m.emc_cache_component.mean();
        let queue = m.core_queue_component.mean() - m.emc_queue_component.mean();
        println!(
            "{:<5} {:>12.0} {:>12.0} {:>12.0} {:>8.0}",
            r.workload,
            ring,
            cache,
            queue,
            ring + cache + queue
        );
        out.push((r.workload.clone(), ring, cache, queue));
    }
    Some(out.to_json_value())
}

fn fig21(grid: &[RunResult]) -> Sidecar {
    header("Figure 21: % of EMC-generated misses covered when prefetching is on");
    println!(
        "{:<5} {:>8} {:>8} {:>14}",
        "mix", "GHB", "Stream", "Markov+Stream"
    );
    let mut out = Vec::new();
    for (name, _) in QUAD_MIXES {
        let nopf = find(grid, name, PrefetcherKind::None, true);
        let denom = nopf.stats.emc.llc_misses_generated.max(1) as f64;
        let mut cov = [0.0f64; 3];
        for (i, pf) in [
            PrefetcherKind::Ghb,
            PrefetcherKind::Stream,
            PrefetcherKind::MarkovStream,
        ]
        .into_iter()
        .enumerate()
        {
            let r = find(grid, name, pf, true);
            cov[i] = 100.0 * r.stats.emc.requests_covered_by_prefetch as f64 / denom;
        }
        println!(
            "{name:<5} {:>7.1}% {:>7.1}% {:>13.1}%",
            cov[0], cov[1], cov[2]
        );
        out.push((name, cov));
    }
    Some(out.to_json_value())
}

fn fig22(grid: &[RunResult]) -> Sidecar {
    header("Figure 22: average uops per dependence chain");
    let mut out = Vec::new();
    let mut hist = [0u64; 17];
    for r in emc_runs(grid) {
        let m = r.stats.mean_chain_uops();
        println!("{:<5} {:>6.1}  |{}|", r.workload, m, bar(m, 16.0, 32));
        for c in &r.stats.cores {
            for (i, n) in c.chain_length_hist.iter().enumerate() {
                hist[i] += n;
            }
        }
        out.push((r.workload.clone(), m));
    }
    let total: u64 = hist.iter().sum();
    if total > 0 {
        println!("chain-length distribution over H1-H10:");
        for (len, n) in hist.iter().enumerate().filter(|(_, n)| **n > 0) {
            let frac = *n as f64 / total as f64;
            println!(
                "  {len:>2} uops {:>5.1}%  |{}|",
                100.0 * frac,
                bar(frac, 0.5, 30)
            );
        }
    }
    Some(out.to_json_value())
}

// ---------------------------------------------------------------------
// Sensitivity (20), overhead (§6.5), self-check, ablations
// ---------------------------------------------------------------------

fn fig20(budget: u64) -> Sidecar {
    header("Figure 20: sensitivity to DRAM channels/ranks (speedup over 1C1R, no-PF)");
    // The paper averages H1-H10; three representative mixes bound the
    // runtime (the mix list is fixed, whatever the budget).
    let mixes = ["H1", "H4", "H9"];
    let geoms = [
        (1, 1),
        (1, 2),
        (1, 4),
        (2, 1),
        (2, 2),
        (2, 4),
        (4, 2),
        (4, 4),
    ];
    let mut meta = Vec::new();
    let mut specs = Vec::new();
    for (c, r) in geoms {
        for emc in [false, true] {
            for m in mixes {
                let mut cfg = SystemConfig::quad_core().with_dram_geometry(c, r);
                cfg.emc.enabled = emc;
                let mix = emc_workloads::mix_by_name(m).expect("known mix");
                meta.push((c, r, emc));
                specs.push(JobSpec::mix(m, mix, cfg, budget));
            }
        }
    }
    let runs = run_jobs("fig20-dram-sensitivity", specs);
    // Aggregate IPC sum per (geom, emc) averaged over mixes, normalized
    // to (1,1,false).
    let agg = |c: usize, r: usize, emc: bool| -> f64 {
        let mut s = 0.0;
        for (j, run) in meta.iter().zip(&runs) {
            if j.0 == c && j.1 == r && j.2 == emc {
                s += run.stats.ipc_sum();
            }
        }
        s / mixes.len() as f64
    };
    let base = agg(1, 1, false);
    println!(
        "{:<8} {:>10} {:>10} {:>8}",
        "geometry", "no-EMC", "EMC", "EMC gain"
    );
    let mut out = Vec::new();
    for (c, r) in geoms {
        let b = agg(c, r, false) / base;
        let e = agg(c, r, true) / base;
        println!(
            "{:<8} {:>10.3} {:>10.3} {:>+7.1}%",
            format!("{c}C{r}R"),
            b,
            e,
            100.0 * (e / b - 1.0)
        );
        out.push((format!("{c}C{r}R"), b, e));
    }
    Some(out.to_json_value())
}

/// Automated reproduction self-test: re-runs a small grid and asserts
/// the scorecard's directional claims (EXPERIMENTS.md). Exits non-zero
/// on any violation.
fn check(budget: u64) -> Sidecar {
    header("Reproduction self-check");
    let mut failures: Vec<String> = Vec::new();
    let mut claim = |name: &str, ok: bool, detail: String| {
        println!("{} {name}: {detail}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            failures.push(name.to_string());
        }
    };

    // Representative mixes keep the check fast; the specs are a subset
    // of the quad grid, so a warm cache answers them without simulating.
    let mixes = ["H1", "H4", "H7"];
    let specs = quad_jobs(budget)
        .into_iter()
        .filter(|j| mixes.contains(&j.label.as_str()))
        .collect();
    let grid = run_jobs("check", specs);
    let n = mixes.len() as f64;

    // 1. EMC speeds up the no-prefetch system on average.
    let mut emc_gain = 0.0;
    for name in mixes {
        let base = find(&grid, name, PrefetcherKind::None, false);
        let emc = find(&grid, name, PrefetcherKind::None, true);
        emc_gain += norm_weighted_speedup(emc, &base.ipcs);
    }
    emc_gain /= n;
    claim(
        "emc_speedup",
        emc_gain > 1.02,
        format!("mean weighted speedup {emc_gain:.3}"),
    );

    // 2. EMC-issued misses are faster than core-issued ones.
    let mut c = 0.0;
    let mut e = 0.0;
    for name in mixes {
        let r = find(&grid, name, PrefetcherKind::None, true);
        c += r.stats.mem.core_miss_latency.mean();
        e += r.stats.mem.emc_miss_latency.mean();
    }
    claim(
        "emc_latency",
        e < c,
        format!("core {:.0} vs EMC {:.0} cycles", c / n, e / n),
    );

    // 3. EMC saves energy; Markov+stream costs energy on chase mixes.
    let base = find(&grid, "H4", PrefetcherKind::None, false);
    let emc = find(&grid, "H4", PrefetcherKind::None, true);
    let mk = find(&grid, "H4", PrefetcherKind::MarkovStream, false);
    let d_emc = emc.energy.percent_vs(&base.energy);
    let d_mk = mk.energy.percent_vs(&base.energy);
    claim(
        "energy_direction",
        d_emc < d_mk,
        format!("EMC {d_emc:+.1}% vs Markov+Stream {d_mk:+.1}%"),
    );

    // 4. EMC traffic overhead is far below the Markov prefetcher's.
    let t_base = base.stats.mem.dram_traffic() as f64;
    let t_emc = emc.stats.mem.dram_traffic() as f64 / t_base;
    let t_mk = mk.stats.mem.dram_traffic() as f64 / t_base;
    claim(
        "traffic",
        t_emc < t_mk,
        format!("EMC x{t_emc:.2} vs Markov+Stream x{t_mk:.2}"),
    );

    // 5. Chains are real and bounded.
    let mean_chain = emc.stats.mean_chain_uops();
    claim(
        "chains",
        emc.stats.emc.chains_executed > 0 && mean_chain > 2.0 && mean_chain <= 16.0,
        format!(
            "{} chains, {:.1} uops mean",
            emc.stats.emc.chains_executed, mean_chain
        ),
    );

    if failures.is_empty() {
        println!("\nall checks passed");
    } else {
        println!("\nFAILED: {failures:?}");
        std::process::exit(1);
    }
    None
}

/// Design-space ablations: the paper chose the EMC's context count, data
/// cache and uop-buffer sizes "via sensitivity analysis" (§5); this
/// regenerates that analysis, plus the §1/§2 mechanism comparison against
/// runahead execution.
fn ablation(budget: u64) -> Sidecar {
    header("Ablation A: EMC design space (omnetpp x4, speedup vs no EMC)");
    let mut specs = vec![JobSpec::homog(
        Benchmark::Omnetpp,
        SystemConfig::quad_core().without_emc(),
        budget,
    )
    .with_label("baseline")];
    for contexts in [1usize, 2, 4] {
        let mut c = SystemConfig::quad_core();
        c.emc.contexts = contexts;
        specs.push(
            JobSpec::homog(Benchmark::Omnetpp, c, budget)
                .with_label(format!("contexts={contexts}")),
        );
    }
    for kb in [2u64, 4, 8] {
        let mut c = SystemConfig::quad_core();
        c.emc.dcache_bytes = kb * 1024;
        specs.push(
            JobSpec::homog(Benchmark::Omnetpp, c, budget).with_label(format!("dcache={kb}KB")),
        );
    }
    for buf in [8usize, 16, 32] {
        let mut c = SystemConfig::quad_core();
        c.emc.uop_buffer = buf;
        c.emc.prf_entries = buf.max(16);
        c.emc.live_in_entries = buf.max(16);
        specs.push(
            JobSpec::homog(Benchmark::Omnetpp, c, budget).with_label(format!("uop_buffer={buf}")),
        );
    }
    for cand in [1usize, 2, 4] {
        let mut c = SystemConfig::quad_core();
        c.emc.chain_candidates = cand;
        specs.push(
            JobSpec::homog(Benchmark::Omnetpp, c, budget).with_label(format!("candidates={cand}")),
        );
    }
    let runs = run_jobs("ablation-design", specs);
    let (base, variants) = runs.split_first().expect("baseline plus variants");
    let mut out = Vec::new();
    for r in variants {
        let ws = norm_weighted_speedup(r, &base.ipcs);
        println!(
            "{:<16} {ws:>7.3}  (chains {} / rejected {})",
            r.workload,
            r.stats.cores.iter().map(|c| c.chains_sent).sum::<u64>(),
            r.stats.emc.chains_rejected_busy
        );
        out.push((r.workload.clone(), ws));
    }
    emit("ablation_design", &out);

    header("Ablation B: mechanism comparison — runahead vs EMC (speedup vs plain core)");
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "bench", "runahead", "EMC", "both"
    );
    let benches = [
        Benchmark::Mcf,
        Benchmark::Omnetpp,
        Benchmark::Soplex,
        Benchmark::Milc,
        Benchmark::Libquantum,
    ];
    let mut specs = Vec::new();
    for b in benches {
        let plain = SystemConfig::quad_core().without_emc();
        let mut ra = plain.clone();
        ra.core.runahead = true;
        let mut both = SystemConfig::quad_core();
        both.core.runahead = true;
        for (tag, cfg) in [
            ("plain", plain),
            ("runahead", ra),
            ("emc", SystemConfig::quad_core()),
            ("both", both),
        ] {
            specs.push(JobSpec::homog(b, cfg, budget).with_label(format!("{}-{tag}", b.name())));
        }
    }
    let runs = run_jobs("ablation-mechanisms", specs);
    let mut out = Vec::new();
    for (i, b) in benches.iter().enumerate() {
        let group = &runs[i * 4..(i + 1) * 4];
        let ws: Vec<f64> = group[1..]
            .iter()
            .map(|r| norm_weighted_speedup(r, &group[0].ipcs))
            .collect();
        println!(
            "{:<12} {:>10.3} {:>10.3} {:>10.3}",
            b.name(),
            ws[0],
            ws[1],
            ws[2]
        );
        out.push((b.name(), ws));
    }
    println!("(runahead targets independent misses; the EMC targets dependent ones — §1/§2)");
    emit("ablation_mechanisms", &out);
    None
}

fn overhead(grid: &[RunResult]) -> Sidecar {
    header("Section 6.5: EMC interconnect overhead (averages over H1-H10)");
    let mut live_in = 0.0;
    let mut live_out = 0.0;
    let mut chains = 0u64;
    let mut data_pct = 0.0;
    let mut ctrl_pct = 0.0;
    let mut emc_data_share = 0.0;
    let n = QUAD_MIXES.len() as f64;
    for (name, _) in QUAD_MIXES {
        let base = find(grid, name, PrefetcherKind::None, false);
        let emc = find(grid, name, PrefetcherKind::None, true);
        let c: u64 = emc.stats.cores.iter().map(|x| x.chains_sent).sum();
        chains += c;
        if c > 0 {
            live_in += emc
                .stats
                .cores
                .iter()
                .map(|x| x.chain_live_ins)
                .sum::<u64>() as f64
                / c as f64;
            live_out += emc
                .stats
                .cores
                .iter()
                .map(|x| x.chain_live_outs)
                .sum::<u64>() as f64
                / c as f64;
        }
        data_pct += 100.0
            * (emc.stats.ring.data_msgs as f64 / base.stats.ring.data_msgs.max(1) as f64 - 1.0);
        ctrl_pct += 100.0
            * (emc.stats.ring.control_msgs as f64 / base.stats.ring.control_msgs.max(1) as f64
                - 1.0);
        emc_data_share +=
            100.0 * emc.stats.ring.emc_data_msgs as f64 / emc.stats.ring.data_msgs.max(1) as f64;
    }
    println!("chains executed (total over mixes): {chains}");
    println!(
        "average live-ins per chain:  {:.1} (paper: 6.4)",
        live_in / n
    );
    println!(
        "average live-outs per chain: {:.1} (paper: 8.8)",
        live_out / n
    );
    println!(
        "data-ring message increase:  {:+.1}% (paper: +33%)",
        data_pct / n
    );
    println!(
        "control-ring message increase: {:+.1}% (paper: +7%)",
        ctrl_pct / n
    );
    println!(
        "EMC share of data messages:  {:.1}% (paper: 25%)",
        emc_data_share / n
    );
    None
}

#[cfg(test)]
mod tests {
    use super::FIGURES;
    use std::collections::BTreeSet;

    fn ids() -> BTreeSet<&'static str> {
        FIGURES.iter().map(|f| f.id).collect()
    }

    /// The word after each occurrence of `prefix` in `text`.
    fn cited<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
        text.split(prefix)
            .skip(1)
            .map(|rest| {
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .collect()
    }

    #[test]
    fn design_index_names_every_row_once_and_nothing_else() {
        let design = include_str!("../../../../DESIGN.md");
        let index = design
            .split("\n## 4.")
            .nth(1)
            .and_then(|s| s.split("\n## ").next())
            .expect("DESIGN.md has a §4");
        // The "Bench target" column is the last cell of each table row.
        let targets: Vec<&str> = index
            .lines()
            .filter(|l| l.starts_with('|'))
            .filter_map(|l| l.trim_end().trim_end_matches('|').rsplit('|').next())
            .flat_map(|cell| cited(cell, "`figures "))
            .collect();
        let unique: BTreeSet<&str> = targets.iter().copied().collect();
        assert_eq!(unique.len(), targets.len(), "a target is listed twice");
        assert_eq!(unique, ids());
    }

    #[test]
    fn readme_and_experiments_cite_only_rows() {
        for (doc, text) in [
            ("README.md", include_str!("../../../../README.md")),
            ("EXPERIMENTS.md", include_str!("../../../../EXPERIMENTS.md")),
        ] {
            for prefix in ["`figures ", "--bin figures -- "] {
                for id in cited(text, prefix) {
                    assert!(
                        id == "all" || ids().contains(id),
                        "{doc} cites `figures {id}`, which is no row of FIGURES"
                    );
                }
            }
        }
    }
}
