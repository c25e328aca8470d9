//! The gate: one workload, tracing off, every end-to-end metric.
//!
//! A run is [`ROUNDS`] rounds; each round sets the workload up once and
//! then repeats its operation, closed loop, for its share of `--seconds`.
//! Every operation's output is checked; a failed check counts the
//! operation as failed and the exit code is 1.
//!
//! Each timing is the **best** the run saw: `setup_s` the fastest of
//! the set-ups, `op_ms` the fastest operation, the two rates the
//! highest. Each virtual CPU of the reference host runs at two speeds,
//! half as fast again apart, and stays in one for 5 to 15 seconds (the
//! same cell took 190-215 ms for seven seconds, then 300-315 ms for
//! eight), so a median over a run lands in whichever speed held longer
//! and spread 17-46 % over ten runs of one binary, while the best of a
//! run spreads 6-12 %. Spreading the set-ups over the rounds gives them
//! the same chance to meet a fast spell. A warm job takes milliseconds,
//! so there an "operation" is one second of jobs: its median latency,
//! its summed throughput.

use std::time::Instant;

use emc_benchmark::metrics::{Metrics, END_TO_END};
use emc_benchmark::stat::median;
use emc_benchmark::svc::{evict, run_closed_loop, run_job, run_jobs_once, specs_of, Harness};
use emc_benchmark::workload::{SimCell, SvcPlan, Workload};
use emc_benchmark::{peak_rss_mb, Args, Tally, TempDir};
use emc_campaign::{digest128_hex, stats_to_json, ResultCache};
use emc_types::{RunOutcome, SubmitRequest};

/// Rounds per run: one set-up each, then an equal share of the timed
/// section.
const ROUNDS: usize = 4;
/// `svc_warm` groups its jobs into slices of this many seconds.
const SLICE_S: f64 = 1.0;

/// One timed sample: an operation of whole seconds (a cell, a grid), or
/// one slice of warm jobs.
struct Sample {
    op_ms: f64,
    mcycles_per_s: f64,
    tasks_per_s: f64,
}

/// What one workload measured.
#[derive(Default)]
struct Measured {
    /// Seconds each part of the set-up took, one row per round. Only
    /// `svc_warm`'s set-up has more than one part.
    setup_s: Vec<Vec<f64>>,
    samples: Vec<Sample>,
    tally: Tally,
}

impl Measured {
    /// Record an operation that took `wall_s` and delivered `mcycles`
    /// simulated megacycles in `tasks` tasks.
    fn op(&mut self, wall_s: f64, mcycles: f64, tasks: f64) {
        self.samples.push(Sample {
            op_ms: wall_s * 1e3,
            mcycles_per_s: mcycles / wall_s,
            tasks_per_s: tasks / wall_s,
        });
    }
}

/// The set-up time: each part's fastest round, summed.
fn best_setup(rounds: &[Vec<f64>]) -> f64 {
    let parts = rounds.first().map_or(0, Vec::len);
    (0..parts)
        .map(|p| fastest(rounds.iter().map(|r| r[p])))
        .sum()
}

fn fastest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

fn highest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, f64::max)
}

fn main() {
    let args = Args::from_env();
    let measured = match args.workload {
        Workload::Fig12Cold => run_fig12_cold(&args),
        Workload::SvcWarm => run_svc_warm(&args),
        _ => run_sim(&args),
    };

    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("setup_s", best_setup(&measured.setup_s));
    metrics.set("op_ms", fastest(measured.samples.iter().map(|s| s.op_ms)));
    metrics.set(
        "sim_mcycles_per_s",
        highest(measured.samples.iter().map(|s| s.mcycles_per_s)),
    );
    metrics.set(
        "tasks_per_s",
        highest(measured.samples.iter().map(|s| s.tasks_per_s)),
    );
    metrics.set("peak_rss_mb", peak_rss_mb());
    assert!(metrics.unset().is_empty(), "unset: {:?}", metrics.unset());
    eprintln!(
        "# {} seed={}: best of {} set-ups and {} samples; {} operations, {} failed",
        args.workload.name(),
        args.seed,
        measured.setup_s.len(),
        measured.samples.len(),
        measured.tally.attempted,
        measured.tally.failed,
    );
    println!("{}", metrics.result_line(&measured.tally));
    std::process::exit(if measured.tally.failed == 0 { 0 } else { 1 });
}

// ---------------------------------------------------------------------
// quad_h4_emc, stream_rw, compute_core
// ---------------------------------------------------------------------

fn run_sim(args: &Args) -> Measured {
    let mut m = Measured::default();
    let mut first_digest: Option<String> = None;
    for _ in 0..ROUNDS {
        // Set-up: make the inputs from the seed and run the cell once at
        // a tenth of the budget, which faults in the allocator's pages
        // and the simulator's code before anything is timed.
        let start = Instant::now();
        let cell = SimCell::of(args.workload, args.seed, args.quick).expect("a simulator workload");
        let run = cell.run((cell.budget / 10).max(1));
        m.setup_s.push(vec![start.elapsed().as_secs_f64()]);
        assert_eq!(
            run.report.outcome,
            RunOutcome::Completed,
            "warm-up repetition did not complete"
        );

        let timed = Instant::now();
        loop {
            let run = cell.run(cell.budget);
            // The simulator is deterministic: every repetition of one
            // cell must retire the same statistics, bit for bit.
            let digest = digest128_hex(stats_to_json(&run.report.stats).to_json().as_bytes());
            let expected = first_digest.get_or_insert_with(|| digest.clone());
            let ok = run.report.outcome == RunOutcome::Completed && digest == *expected;
            m.tally.check(ok, || {
                format!(
                    "outcome {:?}, digest {digest} (first {expected})",
                    run.report.outcome
                )
            });
            m.op(run.wall_s, run.cycles as f64 / 1e6, 1.0);
            if timed.elapsed().as_secs_f64() >= args.seconds / ROUNDS as f64 {
                break;
            }
        }
    }
    eprintln!("# stats digest {}", first_digest.unwrap_or_default());
    m
}

// ---------------------------------------------------------------------
// fig12_cold
// ---------------------------------------------------------------------

/// Simulated cycles the results of `reqs` carry, read back from `cache`;
/// `None` when an entry is missing.
fn cached_cycles(cache: &ResultCache, reqs: &[SubmitRequest]) -> Option<u64> {
    reqs.iter()
        .flat_map(specs_of)
        .map(|spec| cache.load(&spec).map(|r| r.stats.cycles))
        .sum()
}

/// Run both tenants' jobs once on `harness`; `Err` names the first
/// failure, `Ok` carries the wall seconds from first submit to both
/// complete and whether every task was simulated, none served or failed.
fn run_grid(harness: &Harness, reqs: &[SubmitRequest; 2]) -> Result<(f64, bool), String> {
    let start = Instant::now();
    let runs = run_jobs_once(&harness.client(), reqs, start);
    let wall_s = start.elapsed().as_secs_f64();
    let mut all_executed = true;
    for run in runs {
        let run = run.map_err(|e| e.to_string())?;
        all_executed &= run.total > 0 && run.executed() == run.total;
    }
    Ok((wall_s, all_executed))
}

fn run_fig12_cold(args: &Args) -> Measured {
    let plan = SvcPlan::of(args.workload, args.seed, args.quick).expect("a service workload");
    let mut m = Measured::default();
    let warmup = plan.warmup.as_ref().expect("fig12_cold has a warm-up grid");
    let tasks: usize = plan.tenants.iter().map(|r| specs_of(r).len()).sum();
    let harness = Harness::start("fig12");
    let cache = harness.cache();
    for _ in 0..ROUNDS {
        evict(&cache, warmup);
        let start = Instant::now();
        let done = run_grid(&harness, warmup);
        m.setup_s.push(vec![start.elapsed().as_secs_f64()]);
        assert_eq!(done.map(|(_, ok)| ok), Ok(true), "warm-up grid failed");

        let timed = Instant::now();
        loop {
            // Every grid finds none of its cells cached: all 20 simulate.
            evict(&cache, &plan.tenants);
            let done = run_grid(&harness, &plan.tenants);
            match (done, cached_cycles(&cache, &plan.tenants)) {
                (Ok((wall_s, all_executed)), Some(cycles)) => {
                    m.tally.check(all_executed, || {
                        "a task was served from cache or failed".into()
                    });
                    m.op(wall_s, cycles as f64 / 1e6, tasks as f64);
                }
                (done, cycles) => m.tally.check(false, || {
                    format!("grid: {done:?}, cycles on disk: {cycles:?}")
                }),
            }
            if timed.elapsed().as_secs_f64() >= args.seconds / ROUNDS as f64 {
                break;
            }
        }
    }
    harness.stop();
    m
}

// ---------------------------------------------------------------------
// svc_warm
// ---------------------------------------------------------------------

fn run_svc_warm(args: &Args) -> Measured {
    let plan = SvcPlan::of(args.workload, args.seed, args.quick).expect("a service workload");
    let mut m = Measured::default();
    let round_s = args.seconds / ROUNDS as f64;
    let slice_s = SLICE_S.min(round_s);
    let slices = (round_s / slice_s) as usize;
    let harness = Harness::start("warm");
    let cache = harness.cache();
    for _ in 0..ROUNDS {
        // Set-up: simulate the whole suite into an empty cache, one
        // part at a time.
        evict(&cache, &plan.fill);
        let mut parts = Vec::new();
        for part in &plan.fill {
            let start = Instant::now();
            let filled = run_job(&harness.client(), part, start).expect("cache fill");
            parts.push(start.elapsed().as_secs_f64());
            assert_eq!(
                (filled.executed(), filled.failed),
                (filled.total, 0),
                "cache fill"
            );
        }
        m.setup_s.push(parts);

        let probe = specs_of(&plan.fill[0])
            .into_iter()
            .next()
            .expect("the suite has cells");
        let cold_entry = std::fs::read(cache.path_of(&probe.key())).expect("entry stored cold");
        let mcycles_per_job: Vec<f64> = plan
            .tenants
            .iter()
            .map(|r| {
                cached_cycles(&cache, std::slice::from_ref(r))
                    .expect("the fill covers every tenant") as f64
                    / 1e6
            })
            .collect();
        let before = harness.service().stats();

        let epoch = Instant::now();
        let per_tenant = run_closed_loop(&harness.client(), &plan.tenants, epoch, round_s);

        // Per slice: the median latency of the jobs that completed
        // inside it, and their tasks (and the simulated cycles their
        // results carry) per second of the span from the first of them
        // starting to the last of them ending. The job in flight at the
        // deadline ends outside every slice.
        let mut latencies = vec![Vec::new(); slices];
        let mut tasks_in = vec![0.0; slices];
        let mut mcycles_in = vec![0.0; slices];
        let mut span = vec![(f64::INFINITY, 0.0f64); slices];
        let mut hits = 0;
        for (runs, &mcycles) in per_tenant.iter().zip(&mcycles_per_job) {
            for run in runs {
                match run {
                    Ok(run) => {
                        let all_hits = run.total > 0 && run.hits == run.total;
                        m.tally.check(all_hits, || {
                            format!("{}: {} of {} tasks were hits", run.id, run.hits, run.total)
                        });
                        hits += run.hits;
                        let slice = (run.end_s / slice_s) as usize;
                        if slice < slices {
                            latencies[slice].push(run.latency_ms());
                            tasks_in[slice] += run.total as f64;
                            mcycles_in[slice] += mcycles;
                            span[slice] =
                                (span[slice].0.min(run.start_s), span[slice].1.max(run.end_s));
                        }
                    }
                    // A 429 is a refusal, and a refused job has failed.
                    Err(e) => m.tally.check(false, || e.to_string()),
                }
            }
        }
        for slice in (0..slices).filter(|&s| !latencies[s].is_empty()) {
            let span_s = span[slice].1 - span[slice].0;
            m.samples.push(Sample {
                op_ms: median(&latencies[slice]),
                mcycles_per_s: mcycles_in[slice] / span_s,
                tasks_per_s: tasks_in[slice] / span_s,
            });
        }

        // The service must not have simulated anything since set-up,
        // and must have counted every hit the clients saw.
        let stats = harness.service().stats();
        let quiet = stats.executed == before.executed
            && stats.hits == before.hits + hits
            && stats.failed == 0;
        m.tally.check(quiet, || {
            format!(
                "service counted executed={} hits={} failed={}",
                stats.executed, stats.hits, stats.failed
            )
        });
        // A result loaded warm must encode to the bytes stored cold.
        let scratch = TempDir::new("reencode");
        let reencoded = cache
            .load(&probe)
            .and_then(|result| ResultCache::new(scratch.path()).store(&probe, &result).ok())
            .and_then(|path| std::fs::read(path).ok());
        m.tally
            .check(reencoded.as_deref() == Some(cold_entry.as_slice()), || {
                "warm result does not re-encode to the cold entry".into()
            });
    }
    harness.stop();
    m
}
