//! The five workloads and the inputs `--seed` makes for them.
//!
//! Why each was chosen is in `README.md` and `/BENCHMARK.json`; this
//! file only pins the inputs. Budgets are sized so that one repetition
//! takes about half a second on the 2-core reference box: that host
//! runs at two speeds and changes between them every 5 to 15 seconds,
//! so a run of 20 seconds holds some forty repetitions, many of them
//! wholly inside a fast spell (see `e2e`).
//!
//! What `--seed` varies is the budget, by up to 1/64. It is not XORed
//! into `SystemConfig::seed`: the synthetic program generators shuffle
//! their segments from that seed, and the cost of a cell is multimodal
//! in it (H4 at budget 20 000 ran 289 154 to 638 837 cycles over seeds
//! 1-12), which no bound on a timing could absorb. The programs are
//! therefore the ones the repository's pinned seed generates, the same
//! that `figures_all.txt` and EXPERIMENTS.md report on.

use emc_sim::{build_system, cycle_cap};
use emc_types::rng::substream;
use emc_types::{PrefetcherKind, RunReport, SubmitRequest, SystemConfig};
use emc_workloads::Benchmark;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QuadH4Emc,
    StreamRw,
    ComputeCore,
    Fig12Cold,
    SvcWarm,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::QuadH4Emc,
        Workload::StreamRw,
        Workload::ComputeCore,
        Workload::Fig12Cold,
        Workload::SvcWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QuadH4Emc => "quad_h4_emc",
            Workload::StreamRw => "stream_rw",
            Workload::ComputeCore => "compute_core",
            Workload::Fig12Cold => "fig12_cold",
            Workload::SvcWarm => "svc_warm",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `--quick` divides every budget and job count by this.
pub const QUICK_DIVISOR: u64 = 20;

/// The budget `--seed` makes of a workload's base budget: the base
/// (a twentieth of it under `--quick`) plus up to 1/64 of itself.
fn budget_for(base: u64, seed: u64, quick: bool) -> u64 {
    let base = if quick {
        (base / QUICK_DIVISOR).max(1)
    } else {
        base
    };
    base + substream(seed, 0) % (base / 64).max(1)
}

/// One simulator cell: a quad-core system, one benchmark per core, and
/// the retired-uop budget per core.
#[derive(Debug, Clone)]
pub struct SimCell {
    pub cfg: SystemConfig,
    pub benches: [Benchmark; 4],
    pub budget: u64,
}

/// What one repetition of a [`SimCell`] produced.
pub struct CellRun {
    pub report: RunReport,
    /// `System::now()` after the run, warm-up included.
    pub cycles: u64,
    /// Host seconds for `build_system`.
    pub build_s: f64,
    /// Host seconds for `build_system` + `run_with_warmup`.
    pub wall_s: f64,
}

impl SimCell {
    /// The cell of a simulator workload; `None` for the service ones.
    pub fn of(workload: Workload, seed: u64, quick: bool) -> Option<SimCell> {
        use Benchmark::*;
        let quad = SystemConfig::quad_core();
        let (cfg, benches, budget) = match workload {
            Workload::QuadH4Emc => (quad, [Mcf, Sphinx3, Soplex, Libquantum], 12_000),
            Workload::StreamRw => (
                quad.without_emc().with_prefetcher(PrefetcherKind::Stream),
                [Libquantum, Lbm, Libquantum, Lbm],
                70_000,
            ),
            Workload::ComputeCore => (quad, [Povray, Namd, Gamess, Calculix], 160_000),
            Workload::Fig12Cold | Workload::SvcWarm => return None,
        };
        Some(SimCell {
            cfg,
            benches,
            budget: budget_for(budget, seed, quick),
        })
    }

    /// Build the system and run it with a half-budget warm-up, as the
    /// campaign engine runs every cell. `budget` overrides the cell's
    /// own (set-up runs a tenth); `prepare` sees the built system before
    /// it runs (the traced run switches the profiler on there).
    pub fn run_with(
        &self,
        budget: u64,
        prepare: impl FnOnce(&mut emc_sim::System),
    ) -> (CellRun, emc_sim::System) {
        let start = Instant::now();
        let mut sys = build_system(self.cfg.clone(), &self.benches).expect("pinned cell builds");
        let build_s = start.elapsed().as_secs_f64();
        prepare(&mut sys);
        let report = sys.run_with_warmup(budget / 2, budget, cycle_cap(budget));
        let wall_s = start.elapsed().as_secs_f64();
        let run = CellRun {
            report,
            cycles: sys.now(),
            build_s,
            wall_s,
        };
        (run, sys)
    }

    pub fn run(&self, budget: u64) -> CellRun {
        self.run_with(budget, |_| {}).0
    }
}

/// The two service workloads' submissions.
#[derive(Debug, Clone)]
pub struct SvcPlan {
    /// What each of the two closed-loop tenants submits, repeatedly.
    pub tenants: [SubmitRequest; 2],
    /// Submitted one after another in every set-up to fill the cache
    /// (`svc_warm` only): the suite in four parts, one per prefetcher,
    /// so that each part is short enough to fit a fast spell of the
    /// host and the set-up can be timed as the sum of its parts' bests.
    pub fill: Vec<SubmitRequest>,
    /// A grid at a tenth of the budget, run once per set-up so that the
    /// first timed grid does not pay for cold code (`fig12_cold` only).
    pub warmup: Option<[SubmitRequest; 2]>,
}

impl SvcPlan {
    pub fn of(workload: Workload, seed: u64, quick: bool) -> Option<SvcPlan> {
        let request = |tenant: &str, budget: u64| {
            let mut r = SubmitRequest::new(tenant, "quad");
            r.budget = budget;
            r
        };
        // One tenant asks for the cells without the EMC and one for the
        // same cells with it, so each mix's pair gives Fig. 12's EMC gain.
        let pair = |budget: u64, prefetcher: Option<PrefetcherKind>| {
            [false, true].map(|emc| {
                let mut r = request(if emc { "emc" } else { "base" }, budget);
                r.prefetcher = prefetcher.map(|p| p.label().to_string());
                r.emc = Some(emc);
                r
            })
        };
        match workload {
            // H1-H10 on No-PF: 2 x 10 cells.
            Workload::Fig12Cold => {
                let budget = budget_for(1_000, seed, quick);
                Some(SvcPlan {
                    tenants: pair(budget, Some(PrefetcherKind::None)),
                    fill: Vec::new(),
                    warmup: Some(pair((budget / 10).max(1), Some(PrefetcherKind::None))),
                })
            }
            // The 80-cell quad suite at a budget small enough that
            // filling the cache is set-up, not the workload; each tenant
            // then asks for its 40-cell half over and over. Forty cache
            // hits are about 10 ms of work, so a job ends well inside the
            // service's 20 ms accept tick whatever the host's speed; at 80
            // per tenant the work straddled a tick and the median job
            // latency jumped between 40 and 60 ms from run to run.
            Workload::SvcWarm => {
                let budget = budget_for(500, seed, quick);
                let fill = PrefetcherKind::ALL
                    .iter()
                    .map(|p| {
                        let mut r = request("fill", budget);
                        r.prefetcher = Some(p.label().to_string());
                        r
                    })
                    .collect();
                Some(SvcPlan {
                    tenants: pair(budget, None),
                    fill,
                    warmup: None,
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn seed_reaches_every_input_and_same_seed_gives_same_input() {
        for w in Workload::ALL {
            if let Some(a) = SimCell::of(w, 7, false) {
                let b = SimCell::of(w, 7, false).unwrap();
                assert_eq!(a.budget, b.budget);
                assert_ne!(a.budget, SimCell::of(w, 8, false).unwrap().budget);
                assert_eq!(
                    a.cfg.seed,
                    SystemConfig::quad_core().seed,
                    "programs are the pinned seed's"
                );
            }
            if let Some(a) = SvcPlan::of(w, 7, false) {
                assert_eq!(a.tenants[0], SvcPlan::of(w, 7, false).unwrap().tenants[0]);
                assert_ne!(
                    a.tenants[0].budget,
                    SvcPlan::of(w, 8, false).unwrap().tenants[0].budget
                );
            }
            assert_ne!(
                SimCell::of(w, 1, false).is_some(),
                SvcPlan::of(w, 1, false).is_some()
            );
        }
    }

    #[test]
    fn stream_rw_has_no_emc_and_quick_shrinks_budgets() {
        let cell = SimCell::of(Workload::StreamRw, 1, false).unwrap();
        assert!(!cell.cfg.emc.enabled);
        let quick = SimCell::of(Workload::StreamRw, 1, true).unwrap();
        assert!(
            quick.budget * (QUICK_DIVISOR - 1) < cell.budget
                && cell.budget < quick.budget * (QUICK_DIVISOR + 1)
        );
        for seed in 0..200 {
            let b = budget_for(70_000, seed, false);
            assert!(
                (70_000..70_000 + 70_000 / 64).contains(&b),
                "seed {seed} gives {b}"
            );
        }
    }
}
