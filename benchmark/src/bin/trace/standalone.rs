//! Plain timed loops over each crate's public functions.
//!
//! Each loop times one call (or one fixed group of calls) in batches and
//! reports the fastest batch's mean (the host runs at two speeds; see
//! `e2e`), so a hot-path change can name the layer it moved. Inputs come
//! from `--seed`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use emc_benchmark::metrics::Metrics;
use emc_benchmark::{Args, TempDir};
use emc_cache::{Mshrs, SetAssocCache};
use emc_campaign::{run_result_from_json, run_result_to_json, JobSpec, Manifest, ResultCache};
use emc_campaignd::http::response_bytes;
use emc_campaignd::{handle_request, read_request, FairQueue, Service, ServiceConfig, TaskRef};
use emc_campaignd::{DEFAULT_AGE_MS, DEFAULT_MARK_CAP};
use emc_core::{generate_chain, Chain, Emc, EmcEvent};
use emc_cpu::{Core, CoreEvent, RobId};
use emc_dram::{map_line, Channel, Location};
use emc_memctrl::MemoryController;
use emc_prefetch::PrefetchEngine;
use emc_ring::{Ring, RingKind, Topology};
use emc_types::rng::substream;
use emc_types::{
    CacheConfig, CoreConfig, DramConfig, EmcConfig, Histogram, JsonValue, LineAddr, MemReq,
    MemStats, PrefetchConfig, PrefetcherKind, ReqId, Requester, RingConfig, RingStats, RunOutcome,
    SubmitRequest, SystemConfig,
};
use emc_workloads::{build, Benchmark, DEFAULT_ITERATIONS};

/// Batches per loop; the fastest is reported.
const BATCHES: usize = 5;

/// Times closures; holds the batch length so `--quick` can shorten it.
struct Timer {
    batch: Duration,
}

impl Timer {
    /// Nanoseconds per call of `op`: the fastest of [`BATCHES`] batches'
    /// means. The batch size is found by doubling until a batch lasts
    /// half of `self.batch`.
    fn ns(&self, mut op: impl FnMut()) -> f64 {
        let mut run = |calls: u64| {
            let start = Instant::now();
            for _ in 0..calls {
                op();
            }
            start.elapsed()
        };
        let mut calls = 1;
        while run(calls) < self.batch / 2 {
            calls *= 2;
        }
        let fastest = (0..BATCHES).map(|_| run(calls)).min().expect("BATCHES > 0");
        fastest.as_nanos() as f64 / calls as f64
    }

    fn us(&self, op: impl FnMut()) -> f64 {
        self.ns(op) / 1e3
    }

    fn ms(&self, op: impl FnMut()) -> f64 {
        self.ns(op) / 1e6
    }
}

/// SplitMix64 stream of the seed: inputs for the loops.
struct Inputs(u64, u64);

impl Inputs {
    fn next(&mut self) -> u64 {
        self.1 += 1;
        substream(self.0, self.1)
    }

    fn lines(&mut self, n: usize, span: u64) -> Vec<LineAddr> {
        (0..n).map(|_| LineAddr(self.next() % span)).collect()
    }
}

pub fn run(args: &Args, m: &mut Metrics) {
    let timer = Timer {
        batch: Duration::from_millis(if args.quick { 4 } else { 40 }),
    };
    let mut inputs = Inputs(args.seed, 0);
    cpu(&timer, m);
    emc(&timer, m);
    memory(&timer, &mut inputs, m);
    workloads_and_types(&timer, args.seed, m);
    campaign(&timer, m);
    campaignd(&timer, m);
}

// ---------------------------------------------------------------------
// emc-cpu
// ---------------------------------------------------------------------

/// The seed programs are generated from: the repository's pinned one,
/// as in the end-to-end workloads (their cost is multimodal in it; see
/// `workload.rs`). `--seed` drives the address and value streams only.
fn program_seed() -> u64 {
    SystemConfig::quad_core().seed
}

fn core_on(bench: Benchmark) -> Core {
    let w = build(bench, program_seed(), DEFAULT_ITERATIONS);
    Core::new(&CoreConfig::default(), Arc::new(w.program), w.memory)
}

/// Cycles a core runs against a perfect memory before its loads stop
/// returning: long enough for the branch predictor to learn the loop,
/// or fetch runs off the end of the program down a wrong path.
const TRAINING_CYCLES: u64 = 20_000;

/// A core that ran [`TRAINING_CYCLES`] with every load answered the
/// next cycle and then had every load miss the LLC and never return,
/// until its window filled behind a stalled miss at the head. Returns
/// the core, that head, and the cycle reached.
fn stalled_core() -> (Core, RobId, u64) {
    let mut core = core_on(Benchmark::Mcf);
    let (mut events, mut due) = (Vec::new(), Vec::new());
    for now in 0..TRAINING_CYCLES * 10 {
        for rob in due.drain(..) {
            core.complete_load(rob, now);
        }
        core.tick(now, &mut events);
        for ev in events.drain(..) {
            if let CoreEvent::LoadIssued { rob, .. } = ev {
                if now < TRAINING_CYCLES {
                    due.push(rob);
                } else {
                    core.mark_llc_miss(rob);
                }
            }
        }
        if let Some(head) = core.full_window_stall() {
            return (core, head, now + 1);
        }
    }
    panic!("mcf never stalled on a full window");
}

fn cpu(timer: &Timer, m: &mut Metrics) {
    // A compute-bound program against a perfect memory: every load is
    // answered the cycle after it issues.
    let mut core = core_on(Benchmark::Povray);
    let (mut events, mut due, mut now) = (Vec::new(), Vec::new(), 0);
    m.set(
        "cpu.core_tick_ns",
        timer.ns(|| {
            for rob in due.drain(..) {
                core.complete_load(rob, now);
            }
            core.tick(now, &mut events);
            for ev in events.drain(..) {
                if let CoreEvent::LoadIssued { rob, .. } = ev {
                    due.push(rob);
                }
            }
            now += 1;
        }),
    );
    assert!(
        core.finished_at().is_none() && core.stats.retired_uops > 0,
        "the loop timed a running core"
    );

    let (mut core, _, mut now) = stalled_core();
    m.set(
        "cpu.core_tick_stalled_ns",
        timer.ns(|| {
            core.tick(now, &mut events);
            events.clear();
            now += 1;
        }),
    );
}

// ---------------------------------------------------------------------
// emc-core
// ---------------------------------------------------------------------

/// Start `chain` in a free context with its source data already there.
fn start(emc: &mut Emc, chain: &Chain, now: u64) {
    let ctx = emc
        .start_chain(chain.clone(), now)
        .unwrap_or_else(|_| panic!("a context is free"));
    emc.deliver_source(ctx, 0x4000);
}

fn emc(timer: &Timer, m: &mut Metrics) {
    let cfg = EmcConfig::default();
    let (core, head, _) = stalled_core();
    let generated =
        generate_chain(&core, 0, head, &cfg).expect("mcf's stalled head has dependents");
    m.set(
        "core.generate_chain_ns",
        timer.ns(|| drop(black_box(generate_chain(&core, 0, head, &cfg)))),
    );

    // Every context busy: loads are answered at once and a finished
    // chain is replaced by a fresh copy, so no tick finds a free context.
    let mut emc = Emc::new(&cfg, 4);
    let mut now = 0;
    for _ in 0..emc.context_count() {
        start(&mut emc, &generated.chain, now);
    }
    m.set(
        "core.emc_tick_ns",
        timer.ns(|| {
            for ev in emc.tick(now) {
                match ev {
                    EmcEvent::Load {
                        ctx, uop, vaddr, ..
                    } => emc.complete_load(ctx, uop, vaddr.0 ^ 0x40),
                    EmcEvent::Results { ctx } => drop(emc.drain_results(ctx)),
                    EmcEvent::ChainDone { ctx } | EmcEvent::ChainAborted { ctx, .. } => {
                        drop(emc.take_finished(ctx));
                        start(&mut emc, &generated.chain, now);
                    }
                }
            }
            now += 1;
        }),
    );
    assert!(emc.stats.chains_executed > 0, "the loop executed chains");

    let mut idle = Emc::new(&cfg, 4);
    m.set(
        "core.emc_tick_idle_ns",
        timer.ns(|| {
            black_box(idle.tick(now));
            now += 1;
        }),
    );
}

// ---------------------------------------------------------------------
// emc-memctrl, emc-dram, emc-cache, emc-ring, emc-prefetch
// ---------------------------------------------------------------------

fn memory(timer: &Timer, inputs: &mut Inputs, m: &mut Metrics) {
    let dram = DramConfig::default();
    let channels: Vec<usize> = (0..dram.channels).collect();
    let lines = inputs.lines(1 << 16, 1 << 24);
    let read = |i: u64, now: u64| {
        MemReq::read(
            ReqId(i),
            lines[i as usize % lines.len()],
            Requester::Core(i as usize % 4),
            0x400 + i % 64,
            now,
        )
    };

    // PAR-BS pick over a full queue: every completion is replaced at
    // once, so each tick schedules from a queue at capacity.
    let mut mc = MemoryController::new(&dram, channels.clone());
    let (mut stats, mut next, mut now) = (MemStats::default(), 0, 0);
    while mc.enqueue(read(next, now), now).is_ok() {
        next += 1;
    }
    m.set(
        "memctrl.tick_full_queue_ns",
        timer.ns(|| {
            for _ in mc.tick(now, &mut stats) {
                mc.enqueue(read(next, now), now)
                    .expect("a completion freed a slot");
                next += 1;
            }
            now += 1;
        }),
    );
    assert!(stats.dram_reads > 0, "the loop serviced reads");

    // Enqueue into a queue that is never ticked; a fresh controller
    // replaces a full one, once per `queue_entries` calls.
    let mut mc = MemoryController::new(&dram, channels.clone());
    m.set(
        "memctrl.enqueue_ns",
        timer.ns(|| {
            if mc.is_full() {
                mc = MemoryController::new(&dram, channels.clone());
            }
            mc.enqueue(read(next, 0), 0).expect("not full");
            next += 1;
        }),
    );

    let locations: Vec<Location> = lines.iter().map(|&l| map_line(l, &dram)).collect();
    let (mut i, mut now) = (0, 0);
    m.set(
        "dram.map_line_ns",
        timer.ns(|| {
            black_box(map_line(black_box(lines[i % lines.len()]), &dram));
            i += 1;
        }),
    );
    let mut channel = Channel::new(&dram);
    m.set(
        "dram.issue_ns",
        timer.ns(|| {
            let loc = locations[i % locations.len()];
            if channel.can_issue(loc, now) {
                black_box(channel.issue(loc, false, now));
            }
            i += 1;
            now += dram.t_burst;
        }),
    );

    // One LLC slice. Hits: a resident set half the slice's size.
    // Misses: ever-new lines into a full slice, so every fill evicts.
    let llc = CacheConfig::llc_slice();
    let resident = (llc.bytes / 64 / 2) as usize;
    let mut cache = SetAssocCache::new(&llc);
    for l in 0..resident as u64 {
        cache.fill(LineAddr(l), false, false);
    }
    let order = inputs.lines(1 << 16, resident as u64);
    m.set(
        "cache.access_hit_ns",
        timer.ns(|| {
            black_box(cache.access(order[i % order.len()], false)).expect("resident line hits");
            i += 1;
        }),
    );
    let mut fresh = llc.bytes;
    m.set(
        "cache.miss_fill_ns",
        timer.ns(|| {
            let line = LineAddr(fresh);
            if cache.access(line, false).is_none() {
                black_box(cache.fill(line, fresh.is_multiple_of(4), false));
            }
            fresh += 1;
        }),
    );
    let mut mshrs = Mshrs::new(llc.mshrs);
    m.set(
        "cache.mshr_alloc_complete_ns",
        timer.ns(|| {
            let line = lines[i % lines.len()];
            black_box(mshrs.alloc(line, i as u64));
            black_box(mshrs.complete(line));
            i += 1;
        }),
    );

    let topo = Topology { cores: 4, mcs: 1 };
    let mut ring = Ring::new(topo, RingConfig::default());
    let mut ring_stats = RingStats::default();
    let hops: Vec<(usize, usize)> = (0..1024)
        .map(|_| ((inputs.next() % 5) as usize, (inputs.next() % 5) as usize))
        .collect();
    m.set(
        "ring.send_ns",
        timer.ns(|| {
            let (from, to) = hops[i % hops.len()];
            let kind = if i % 2 == 0 {
                RingKind::Control
            } else {
                RingKind::Data
            };
            black_box(ring.send(kind, from, to, now, false, &mut ring_stats));
            i += 1;
            now += 1;
        }),
    );

    // Four interleaved ascending streams with a random jump now and then.
    let pattern: Vec<LineAddr> = (0..1u64 << 14)
        .map(|k| {
            if k % 97 == 0 {
                LineAddr(inputs.next() % (1 << 24))
            } else {
                LineAddr((k % 4) << 20 | (k / 4))
            }
        })
        .collect();
    for (name, kind) in [
        ("prefetch.stream_train_ns", PrefetcherKind::Stream),
        ("prefetch.ghb_train_ns", PrefetcherKind::Ghb),
    ] {
        let mut engine = PrefetchEngine::new(kind, &PrefetchConfig::default());
        m.set(
            name,
            timer.ns(|| {
                engine.train(pattern[i % pattern.len()], 0x400 + (i % 4) as u64 * 8);
                black_box(engine.take_requests());
                i += 1;
            }),
        );
    }
}

// ---------------------------------------------------------------------
// emc-workloads, emc-types
// ---------------------------------------------------------------------

/// A real cache entry: H4 on the quad-core system at a small budget,
/// simulated here and stored through `ResultCache`.
struct Entry {
    dir: TempDir,
    cache: ResultCache,
    spec: JobSpec,
    text: String,
}

fn entry() -> Entry {
    let cfg = SystemConfig::quad_core();
    let mix = emc_workloads::mix_by_name("H4").expect("H4 is a pinned mix");
    let spec = JobSpec::mix("H4", mix, cfg, 500);
    let report = spec.execute();
    assert_eq!(
        report.outcome,
        RunOutcome::Completed,
        "the entry's cell completes"
    );
    let dir = TempDir::new("entry");
    let cache = ResultCache::new(dir.path());
    let path = cache
        .store(&spec, &spec.to_result(report.stats))
        .expect("store the entry");
    let text = std::fs::read_to_string(path).expect("read the entry back");
    Entry {
        dir,
        cache,
        spec,
        text,
    }
}

fn workloads_and_types(timer: &Timer, seed: u64, m: &mut Metrics) {
    for (name, bench) in [
        ("workloads.build_mcf_ms", Benchmark::Mcf),
        ("workloads.build_libquantum_ms", Benchmark::Libquantum),
    ] {
        m.set(
            name,
            timer.ms(|| drop(black_box(build(bench, program_seed(), DEFAULT_ITERATIONS)))),
        );
    }

    let entry = entry();
    let doc = JsonValue::parse(&entry.text).expect("the entry parses");
    let mb_per_s = |ns_per_call: f64| entry.text.len() as f64 / ns_per_call * 1e3;
    m.set(
        "types.json_parse_mb_per_s",
        mb_per_s(timer.ns(|| drop(black_box(JsonValue::parse(&entry.text))))),
    );
    m.set(
        "types.json_encode_mb_per_s",
        mb_per_s(timer.ns(|| drop(black_box(doc.to_json())))),
    );

    let mut hist = Histogram::new();
    let mut v = seed | 1;
    m.set(
        "types.hist_record_ns",
        timer.ns(|| {
            // xorshift: values spread over the buckets.
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
            hist.record(v >> (v % 48));
        }),
    );
}

// ---------------------------------------------------------------------
// emc-campaign
// ---------------------------------------------------------------------

fn campaign(timer: &Timer, m: &mut Metrics) {
    let Entry {
        dir,
        cache,
        spec,
        text,
    } = entry();
    let doc = JsonValue::parse(&text).expect("the entry parses");
    let result_doc = doc.get("result").expect("the entry has a result");
    let result = run_result_from_json(result_doc).expect("the result decodes");

    m.set("campaign.key_us", timer.us(|| drop(black_box(spec.key()))));
    m.set(
        "campaign.cache_load_us",
        timer.us(|| drop(black_box(cache.load(&spec)).expect("hit"))),
    );
    m.set(
        "campaign.cache_store_us",
        timer.us(|| drop(black_box(cache.store(&spec, &result)).expect("store"))),
    );
    m.set(
        "campaign.result_decode_us",
        timer.us(|| drop(black_box(run_result_from_json(result_doc)))),
    );
    m.set(
        "campaign.result_encode_us",
        timer.us(|| drop(black_box(run_result_to_json(&result)))),
    );
    m.set("campaign.entry_bytes", text.len() as f64);

    // The manifest of an 80-cell job, as the service saves it.
    let rows: Vec<_> = emc_campaign::quad_jobs(500)
        .iter()
        .map(|s| (s.key(), s.label.clone()))
        .collect();
    let manifest = Manifest::fresh("trace", &rows);
    m.set(
        "campaign.manifest_save_us",
        timer.us(|| drop(black_box(manifest.save(dir.path())).expect("save"))),
    );
}

// ---------------------------------------------------------------------
// emc-campaignd
// ---------------------------------------------------------------------

fn campaignd(timer: &Timer, m: &mut Metrics) {
    // A ten-cell submission: H1-H10 on No-PF with the EMC.
    let mut req = SubmitRequest::new("trace", "quad");
    req.budget = 500;
    req.prefetcher = Some(PrefetcherKind::None.label().to_string());
    req.emc = Some(true);
    let body = req.to_json().to_json();
    let post = format!("POST /v1/jobs HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}", body.len());
    m.set(
        "campaignd.http_parse_us",
        timer.us(|| drop(black_box(read_request(post.as_bytes())).expect("parses"))),
    );
    m.set(
        "campaignd.http_response_us",
        timer.us(|| drop(black_box(response_bytes(200, &body)))),
    );

    // Two tenants, 4096 tasks deep: each call admits one and pops one.
    let mut queue = FairQueue::new(8192, DEFAULT_MARK_CAP, DEFAULT_AGE_MS);
    for tenant in 0..2 {
        queue
            .admit(
                tenant,
                (0..2048).map(|index| TaskRef { job: tenant, index }),
                0,
            )
            .expect("fits");
    }
    let mut i = 0;
    m.set(
        "campaignd.queue_admit_pop_ns",
        timer.ns(|| {
            queue
                .admit(
                    i % 2,
                    [TaskRef {
                        job: i % 2,
                        index: i,
                    }],
                    i as u64 / 1000,
                )
                .expect("fits");
            black_box(queue.pop(i as u64 / 1000)).expect("not empty");
            i += 1;
        }),
    );

    // The service without workers or a socket: submit journals the
    // request, saves a manifest and enqueues; nothing dequeues, so the
    // queue must hold every submission of the loop.
    let dir = TempDir::new("inproc");
    let svc = Service::new(ServiceConfig {
        workers: 1,
        queue_cap: usize::MAX / 2,
        cache_dir: dir.path().to_path_buf(),
        ..ServiceConfig::default()
    });
    m.set(
        "campaignd.submit_inproc_us",
        timer.us(|| drop(black_box(svc.submit(&req)).expect("admitted"))),
    );
    let get =
        read_request(&b"GET /v1/stats HTTP/1.1\r\nhost: localhost\r\n\r\n"[..]).expect("parses");
    m.set(
        "campaignd.handle_stats_us",
        timer.us(|| {
            let (status, doc) = handle_request(&svc, &get);
            assert_eq!(status, 200);
            black_box(doc);
        }),
    );
}
