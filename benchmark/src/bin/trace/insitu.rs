//! The workload itself, traced.

use std::time::Instant;

use emc_bench::alloc::counters;
use emc_benchmark::metrics::Metrics;
use emc_benchmark::stat::{median, tail};
use emc_benchmark::svc::{
    parallelism, run_closed_loop, run_job, run_jobs_once, specs_of, Harness, JobRun,
};
use emc_benchmark::workload::{SimCell, SvcPlan};
use emc_benchmark::{Args, Tally};
use emc_campaign::{digest128_hex, stats_to_json, ClientError, Manifest, ResultCache};
use emc_sim::{Phase, ProfileReport};
use emc_types::{Histogram, RunOutcome, ServiceStats, Stats};

use crate::spans::Spans;

/// One tick in this many is timed by the simulator's profiler.
const PROFILE_STRIDE: u32 = 64;
/// The paper's mean EMC gain in weighted speedup over H1-H10, Fig. 12.
const PAPER_EMC_GAIN_PCT: f64 = 15.0;

// ---------------------------------------------------------------------
// Simulated counts, from one cell's statistics or many cells' summed
// ---------------------------------------------------------------------

/// Sums of the statistics of the cells a workload simulated.
#[derive(Default)]
struct Counts {
    cells: u64,
    sums: Vec<(&'static str, u64)>,
    ipc_sum: f64,
    chain_latency: Histogram,
    queue: Histogram,
    dram_service: Histogram,
    emc_misses: u64,
    core_misses: u64,
}

impl Counts {
    fn add(&mut self, s: &Stats) {
        let cores = |f: fn(&emc_types::CoreStats) -> u64| s.cores.iter().map(f).sum::<u64>();
        let row = [
            ("sim.cycles", s.cycles),
            ("sim.retired_uops", cores(|c| c.retired_uops)),
            (
                "cpu.full_window_stall_cycles",
                cores(|c| c.full_window_stall_cycles),
            ),
            ("cpu.branch_mispredicts", cores(|c| c.branch_mispredicts)),
            ("cpu.retired_loads", cores(|c| c.retired_loads)),
            ("core.chains_sent", cores(|c| c.chains_sent)),
            ("core.chains_executed", s.emc.chains_executed),
            ("core.uops_executed", s.emc.uops_executed),
            (
                "core.chains_aborted",
                cores(|c| {
                    c.chains_aborted_branch
                        + c.chains_aborted_tlb
                        + c.chains_cancelled_disambiguation
                        + c.chains_aborted_injected
                        + c.chains_aborted_lease
                }),
            ),
            ("memctrl.dram_reads", s.mem.dram_reads),
            ("memctrl.dram_writes", s.mem.dram_writes),
            ("memctrl.escalated_requests", s.mem.escalated_requests),
            ("dram.row_hits", s.mem.row_hits),
            ("dram.row_conflicts", s.mem.row_conflicts),
            ("dram.activates", s.mem.activates),
            ("cache.llc_accesses", cores(|c| c.llc_accesses)),
            ("cache.llc_misses", cores(|c| c.llc_misses)),
            (
                "cache.dependent_llc_misses",
                cores(|c| c.dependent_llc_misses),
            ),
            ("ring.data_msgs", s.ring.data_msgs),
            ("ring.control_msgs", s.ring.control_msgs),
            ("ring.total_hops", s.ring.total_hops),
            ("prefetch.issued", s.prefetch.issued),
            ("prefetch.useful", s.prefetch.useful),
        ];
        if self.sums.is_empty() {
            self.sums = row.to_vec();
        } else {
            for (sum, (_, v)) in self.sums.iter_mut().zip(row) {
                sum.1 += v;
            }
        }
        self.cells += 1;
        self.ipc_sum += s.ipc_sum();
        self.chain_latency.merge(&s.emc.chain_latency);
        self.queue.merge(&s.mem.core_queue_component);
        self.queue.merge(&s.mem.emc_queue_component);
        self.dram_service.merge(&s.mem.dram_service_latency);
        self.emc_misses += s.emc.llc_misses_generated;
        self.core_misses += cores(|c| c.llc_misses);
    }

    fn report(&self, m: &mut Metrics) {
        for &(name, v) in &self.sums {
            m.set(name, v as f64);
        }
        // Mean over cells, so that one cell and a grid read alike.
        m.set("sim.ipc_sum", self.ipc_sum / self.cells.max(1) as f64);
        m.set(
            "core.chain_latency_p50_cycles",
            self.chain_latency.p50() as f64,
        );
        m.set("memctrl.queue_p50_cycles", self.queue.p50() as f64);
        m.set("dram.service_p50_cycles", self.dram_service.p50() as f64);
        let misses = self.emc_misses + self.core_misses;
        m.set(
            "core.emc_miss_share_pct",
            100.0 * self.emc_misses as f64 / misses.max(1) as f64,
        );
    }
}

// ---------------------------------------------------------------------
// Simulator workloads
// ---------------------------------------------------------------------

/// Cost of one `Instant::now()`, nanoseconds: the profiler pays one per
/// phase boundary of a sampled tick, inside the interval it measures.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / READS as f64
        })
        .collect();
    median(&batches)
}

/// Per-tick cost of each profiler phase, in [`Phase::ALL`] order: sampled
/// nanoseconds per sample, less the clock read the sample contains.
fn phase_costs(report: &ProfileReport, clock_ns: f64) -> Vec<f64> {
    report
        .phases
        .iter()
        .map(|p| (p.nanos as f64 / p.samples.max(1) as f64 - clock_ns).max(0.0))
        .collect()
}

/// What one tick costs beyond its phases, so that phases + residual =
/// tick by construction. Negative when sampled ticks ran slower than
/// the average tick.
pub fn unattributed_ns(tick_ns: f64, phases: &[f64]) -> f64 {
    tick_ns - phases.iter().sum::<f64>()
}

pub fn sim(args: &Args, clock_ns: f64, m: &mut Metrics, spans: &mut Spans, tally: &mut Tally) {
    let cell = SimCell::of(args.workload, args.seed, args.quick).expect("a simulator workload");
    assert_eq!(
        cell.run((cell.budget / 10).max(1)).report.outcome,
        RunOutcome::Completed,
        "warm-up"
    );

    /// What the fastest repetition of a kind looked like.
    struct Best {
        wall_s: f64,
        build_s: f64,
        profile: ProfileReport,
        allocs_per_kcycle: f64,
        alloc_bytes_per_kcycle: f64,
    }
    // Plain and profiled repetitions alternate for half of `--seconds`,
    // and each kind reports its fastest (the host runs at two speeds;
    // see `e2e`), so the overhead figure compares like with like.
    let mut best: [Option<Best>; 2] = [None, None];
    let mut counts = Counts::default();
    let mut first_digest: Option<String> = None;
    let timed = Instant::now();
    let mut rep = 0;
    while timed.elapsed().as_secs_f64() < args.seconds / 2.0 || rep % 2 == 1 {
        let traced = rep % 2 == 1;
        let id = format!("rep{rep}");
        let start_s = spans.epoch().elapsed().as_secs_f64();
        let mut at_run_start = counters();
        let (run, sys) = cell.run_with(cell.budget, |sys| {
            if traced {
                sys.enable_profiling(PROFILE_STRIDE);
            }
            at_run_start = counters();
        });
        let churn = counters().since(at_run_start);
        let parent = spans.push("repetition", &id, None, start_s, start_s + run.wall_s);
        spans.push(
            "sim.build_system",
            &id,
            Some(parent),
            start_s,
            start_s + run.build_s,
        );
        spans.push(
            "sim.run_with_warmup",
            &id,
            Some(parent),
            start_s + run.build_s,
            start_s + run.wall_s,
        );

        // Profiling must not change what is simulated.
        let digest = digest128_hex(stats_to_json(&run.report.stats).to_json().as_bytes());
        let expected = first_digest.get_or_insert_with(|| digest.clone());
        let ok = run.report.outcome == RunOutcome::Completed && digest == *expected;
        tally.check(ok, || {
            format!(
                "{id}: outcome {:?}, digest {digest} (first {expected})",
                run.report.outcome
            )
        });
        if counts.cells == 0 {
            counts.add(&run.report.stats);
        }
        let slot = &mut best[traced as usize];
        if slot.as_ref().is_none_or(|b| run.wall_s < b.wall_s) {
            *slot = Some(Best {
                wall_s: run.wall_s,
                build_s: run.build_s,
                profile: sys.profile_report(),
                allocs_per_kcycle: churn.allocs_per_kilocycle(run.cycles),
                alloc_bytes_per_kcycle: churn.bytes_per_kilocycle(run.cycles),
            });
        }
        rep += 1;
    }

    let [Some(plain), Some(traced)] = best else {
        unreachable!("the loop ran both kinds")
    };
    let tick = (traced.wall_s - traced.build_s) * 1e9 / traced.profile.total_ticks.max(1) as f64;
    let phase_ns = phase_costs(&traced.profile, clock_ns);
    m.set("sim.tick_ns", tick);
    for (phase, &ns) in Phase::ALL.iter().zip(&phase_ns) {
        m.set(&format!("sim.phase.{}_ns", phase.name()), ns);
    }
    m.set("sim.unattributed_ns", unattributed_ns(tick, &phase_ns));
    m.set(
        "sim.trace_overhead_pct",
        100.0 * (traced.wall_s / plain.wall_s - 1.0),
    );
    m.set(
        "sim.build_system_ms",
        plain.build_s.min(traced.build_s) * 1e3,
    );
    m.set("sim.allocs_per_kcycle", traced.allocs_per_kcycle);
    m.set("sim.alloc_bytes_per_kcycle", traced.alloc_bytes_per_kcycle);
    counts.report(m);
    eprintln!(
        "# in situ: {rep} repetitions, half of them profiled; stats digest {}",
        first_digest.unwrap_or_default()
    );
}

// ---------------------------------------------------------------------
// Service workloads
// ---------------------------------------------------------------------

/// Spans of one job: the job, its submit, and each long-poll.
fn job_spans(spans: &mut Spans, job: &JobRun) {
    let parent = spans.push("job", &job.id, None, job.start_s, job.end_s);
    let mut at = job.start_s + job.submit_ms / 1e3;
    spans.push("campaignd.submit", &job.id, Some(parent), job.start_s, at);
    for poll_ms in &job.polls_ms {
        spans.push(
            "campaignd.events",
            &job.id,
            Some(parent),
            at,
            at + poll_ms / 1e3,
        );
        at += poll_ms / 1e3;
    }
}

/// What the clients and the service's own statistics say about a run.
fn service_metrics(
    m: &mut Metrics,
    plan: &SvcPlan,
    jobs: &[JobRun],
    rejected: u64,
    poll_rtt_ms: &[f64],
    stats: &ServiceStats,
) {
    let submit: Vec<f64> = jobs.iter().map(|j| j.submit_ms).collect();
    let latency: Vec<f64> = jobs.iter().map(JobRun::latency_ms).collect();
    m.set("campaignd.submit_p50_ms", median(&submit));
    m.set("campaignd.submit_p90_ms", tail(&submit, 90.0));
    m.set("campaignd.job_p90_ms", tail(&latency, 90.0));
    m.set("campaignd.poll_rtt_p50_ms", median(poll_rtt_ms));
    m.set("campaignd.queue_wait_p50_ms", stats.wait_ms.p50 as f64);
    m.set("campaignd.queue_wait_p95_ms", stats.wait_ms.p95 as f64);
    // The timed tenants only: the cache fill's tasks waited for set-up.
    let timed = |name: &str| plan.tenants.iter().any(|r| r.tenant == name);
    let worst = stats
        .tenants
        .iter()
        .filter(|t| timed(&t.tenant))
        .map(|t| t.max_wait_ms)
        .max()
        .unwrap_or(0);
    m.set("campaignd.max_tenant_wait_ms", worst as f64);
    m.set("campaignd.rejected_429", rejected as f64);
}

/// Round trips of `events` on a job that is already complete: nothing
/// to wait for, so this is the HTTP path alone.
fn poll_rtts(harness: &Harness, job: &JobRun) -> Vec<f64> {
    let client = harness.client();
    (0..20)
        .filter_map(|_| {
            let start = Instant::now();
            client.events(&job.id, u64::MAX, 0).ok()?;
            Some(start.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// Sort client results into completed jobs and 429 refusals; anything
/// else is a failed operation.
fn sort_results(
    results: Vec<Result<JobRun, ClientError>>,
    tally: &mut Tally,
) -> (Vec<JobRun>, u64) {
    let mut jobs = Vec::new();
    let mut rejected = 0;
    for result in results {
        match result {
            Ok(job) => jobs.push(job),
            Err(e) => {
                if matches!(e, ClientError::Rejected { status: 429, .. }) {
                    rejected += 1;
                }
                tally.check(false, || e.to_string());
            }
        }
    }
    (jobs, rejected)
}

pub fn fig12_cold(args: &Args, m: &mut Metrics, spans: &mut Spans, tally: &mut Tally) {
    let plan = &SvcPlan::of(args.workload, args.seed, args.quick).expect("a service workload");
    let warmup = plan.warmup.as_ref().expect("fig12_cold has a warm-up grid");
    let harness = Harness::start("trace-warmup");
    for run in run_jobs_once(&harness.client(), warmup, Instant::now()) {
        run.expect("warm-up grid");
    }
    harness.stop();

    // One traced grid, on a service of its own, so that the service's
    // statistics are this grid's alone.
    let harness = Harness::start("trace-grid");
    let start = Instant::now();
    let results = run_jobs_once(&harness.client(), &plan.tenants, spans.epoch());
    let grid_s = start.elapsed().as_secs_f64();
    let (jobs, rejected) = sort_results(results, tally);
    for job in &jobs {
        tally.check(job.executed() == job.total, || {
            format!(
                "{}: {} of {} tasks simulated",
                job.id,
                job.executed(),
                job.total
            )
        });
        job_spans(spans, job);
    }
    let poll_rtt_ms = jobs
        .first()
        .map(|j| poll_rtts(&harness, j))
        .unwrap_or_default();
    let stats = harness.service().stats();
    service_metrics(m, plan, &jobs, rejected, &poll_rtt_ms, &stats);

    // Execution time per task is in the manifests the service keeps,
    // one per job id.
    let cache = harness.cache();
    let rows: Vec<_> = jobs
        .iter()
        .filter_map(|j| Manifest::load(cache.root(), &format!("svc-{}", j.id)))
        .flat_map(|manifest| manifest.entries)
        .collect();
    let exec_s: f64 = rows.iter().map(|r| r.wall_ms as f64 / 1e3).sum();
    let exec_mcycles: f64 = rows.iter().map(|r| r.sim_cycles as f64 / 1e6).sum();
    m.set("campaign.exec_wall_sum_s", exec_s);
    m.set(
        "campaign.worker_mcycles_per_s",
        if exec_s > 0.0 {
            exec_mcycles / exec_s
        } else {
            0.0
        },
    );
    m.set(
        "campaign.parallel_efficiency",
        exec_s / (parallelism() as f64 * grid_s),
    );

    // Simulated counts over the 20 cells, and Fig. 12's number: each
    // mix's weighted speedup with the EMC over the same mix without.
    let mut counts = Counts::default();
    let load = |cache: &ResultCache, req| {
        specs_of(req)
            .iter()
            .map(|s| cache.load(s))
            .collect::<Option<Vec<_>>>()
    };
    match (
        load(&cache, &plan.tenants[0]),
        load(&cache, &plan.tenants[1]),
    ) {
        (Some(base), Some(emc)) => {
            let gains: Vec<f64> = base
                .iter()
                .zip(&emc)
                .map(|(b, e)| {
                    100.0 * (e.stats.weighted_speedup(&b.ipcs) / b.ipcs.len() as f64 - 1.0)
                })
                .collect();
            let gain = gains.iter().sum::<f64>() / gains.len() as f64;
            // Reference = the paper's Fig. 12 mean. The workloads here
            // are synthetic and the model is otherwise unvalidated.
            m.set("campaign.emc_gain_pct", gain);
            m.set(
                "campaign.emc_gain_err_pp",
                (gain - PAPER_EMC_GAIN_PCT).abs(),
            );
            base.iter().chain(&emc).for_each(|r| counts.add(&r.stats));
        }
        _ => tally.check(false, || "a result is missing from the cache".into()),
    }
    if counts.cells > 0 {
        counts.report(m);
    }
    harness.stop();
    eprintln!(
        "# in situ: one grid of {} jobs in {grid_s:.3} s",
        jobs.len()
    );
}

pub fn svc_warm(args: &Args, m: &mut Metrics, spans: &mut Spans, tally: &mut Tally) {
    let plan = &SvcPlan::of(args.workload, args.seed, args.quick).expect("a service workload");
    let harness = Harness::start("trace-warm");
    for part in &plan.fill {
        let filled = run_job(&harness.client(), part, spans.epoch()).expect("cache fill");
        assert_eq!(filled.executed(), filled.total, "cache fill");
    }

    let client = harness.client();
    let epoch = spans.epoch();
    // Job times are on the span clock, which started before the fill.
    let until_s = epoch.elapsed().as_secs_f64() + args.seconds / 2.0;
    let results = run_closed_loop(&client, &plan.tenants, epoch, until_s)
        .into_iter()
        .flatten()
        .collect();
    let (jobs, rejected) = sort_results(results, tally);
    for job in &jobs {
        tally.check(job.hits == job.total, || {
            format!("{}: {} of {} tasks were hits", job.id, job.hits, job.total)
        });
        job_spans(spans, job);
    }
    let poll_rtt_ms = jobs
        .first()
        .map(|j| poll_rtts(&harness, j))
        .unwrap_or_default();
    let stats = harness.service().stats();
    service_metrics(m, plan, &jobs, rejected, &poll_rtt_ms, &stats);
    harness.stop();
    eprintln!("# in situ: {} warm jobs", jobs.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_and_residual_sum_to_the_tick() {
        let phases = [143.4, 132.8, 148.9, 242.7, 0.0, 558.8, 82.7];
        for tick in [1234.3, 900.0] {
            let residual = unattributed_ns(tick, &phases);
            assert!((residual + phases.iter().sum::<f64>() - tick).abs() < 1e-9);
        }
        assert!(
            unattributed_ns(900.0, &phases) < 0.0,
            "sampled ticks may cost more than the average tick"
        );
    }

    #[test]
    fn phase_cost_subtracts_the_clock_read_and_stays_non_negative() {
        let report = ProfileReport {
            phases: vec![
                emc_sim::PhaseStat {
                    name: "events",
                    nanos: 1_000,
                    samples: 10,
                },
                emc_sim::PhaseStat {
                    name: "prefetch",
                    nanos: 300,
                    samples: 10,
                },
                emc_sim::PhaseStat {
                    name: "observe",
                    nanos: 0,
                    samples: 0,
                },
            ],
            sampled_ticks: 10,
            total_ticks: 640,
        };
        assert_eq!(phase_costs(&report, 50.0), [50.0, 0.0, 0.0]);
    }
}
