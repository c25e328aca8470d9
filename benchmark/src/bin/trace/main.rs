//! The traced run: one workload with tracing on, every per-layer metric.
//!
//! Two sources. *In situ*: the workload itself, run with the counting
//! allocator and the tick profiler on (simulator workloads) or with
//! client-side spans around every submit and poll (service workloads);
//! simulated counts come from the returned statistics and repeat
//! exactly for one seed. *Standalone*: plain timed loops over each
//! crate's public functions, the same in every run. A layer the
//! workload leaves idle reads 0.
//!
//! Everything here measures from outside, by timing calls into the
//! crates; nothing in the crates was changed to be measured. Spans are
//! kept in memory and written to `benchmark/out/trace-<workload>.json`
//! when the run ends.

mod insitu;
mod spans;
mod standalone;

use emc_benchmark::metrics::{Metrics, PER_LAYER};
use emc_benchmark::workload::Workload;
use emc_benchmark::{Args, Tally, OUT_DIR};
use emc_types::JsonValue;

#[global_allocator]
static ALLOC: emc_bench::alloc::CountingAlloc = emc_bench::alloc::CountingAlloc;

fn main() {
    let args = Args::from_env();
    let mut metrics = Metrics::new(PER_LAYER);
    let mut spans = spans::Spans::new();
    let mut tally = Tally::default();

    let clock_ns = insitu::clock_read_ns();
    metrics.set("sim.clock_read_ns", clock_ns);
    match args.workload {
        Workload::Fig12Cold => insitu::fig12_cold(&args, &mut metrics, &mut spans, &mut tally),
        Workload::SvcWarm => insitu::svc_warm(&args, &mut metrics, &mut spans, &mut tally),
        _ => insitu::sim(&args, clock_ns, &mut metrics, &mut spans, &mut tally),
    }
    standalone::run(&args, &mut metrics);

    eprintln!(
        "# {} seed={}: {} metrics read 0 (layer idle)",
        args.workload.name(),
        args.seed,
        metrics.unset().len()
    );
    let line = metrics.result_line(&tally);
    let doc = JsonValue::obj(vec![
        ("workload", args.workload.name().into()),
        ("seed", args.seed.into()),
        (
            "result",
            JsonValue::parse(&line).expect("result line is JSON"),
        ),
        ("spans", spans.to_json()),
    ]);
    let path = format!("{OUT_DIR}/trace-{}.json", args.workload.name());
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, doc.to_json_pretty() + "\n"))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("{line}");
    std::process::exit(if tally.failed == 0 { 0 } else { 1 });
}
