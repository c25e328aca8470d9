//! Command-line front end for the campaign engine and the `campaignd`
//! service.
//!
//! ```text
//! campaign run <suite>... [--budget N] [--workers N] [--cache-dir DIR]
//!                         [--no-cache] [--no-resume] [--retry-failed]
//!                         [--max-jobs N] [--report FILE] [--quiet]
//! campaign status <name> [--cache-dir DIR]
//! campaign stats         [--cache-dir DIR]
//! campaign submit <suite> --tenant NAME [--addr HOST:PORT] [--budget N]
//!                         [--repeat N] [--seed-bump N] [--prefetcher L]
//!                         [--emc on|off] [--name S] [--watch]
//! campaign watch <job-id> [--addr HOST:PORT]
//! campaign svc-status     [--addr HOST:PORT]
//! campaign drain          [--addr HOST:PORT]
//! ```
//!
//! Suites: `quad` (H1–H10 × 8 configs), `homog` (high-intensity × 8),
//! `mix8-1mc` / `mix8-2mc` (Figure 14 grids), or `all`. For `run` the
//! budget defaults to `EMC_FIGURE_BUDGET` (else 30000) — the *resolved*
//! value is what enters every job key, so cached results are immune to
//! later environment changes. For `submit` an omitted budget is sent as
//! 0 and the **daemon's** configured default applies, so every client
//! of one daemon resolves to the same cache keys.
//!
//! Exit codes are a contract (see [`exit_code`]): 0 complete, 1 runtime
//! failure, 2 usage, 3 partial campaign, 5 service unreachable.

use emc_campaign::{
    figure_budget, suite_jobs, Campaign, CampaignOptions, Client, ClientError, JobSpec, JobStatus,
    Manifest, ResultCache, Tally, DEFAULT_ADDR, DEFAULT_CACHE_DIR, SUITES,
};
use emc_types::{ServiceStats, SubmitRequest};

// ---------------------------------------------------------------------
// Exit-code contract
// ---------------------------------------------------------------------

/// How an invocation ended. Every command funnels into one of these;
/// `main` exits exactly once through [`exit_code`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Everything asked for resolved.
    Complete,
    /// Runtime failure: missing manifest, unwritable report, daemon
    /// rejection, protocol mismatch.
    Failed,
    /// Bad command line.
    Usage,
    /// The campaign/job finished with unresolved or failed work —
    /// distinct from `Failed` so CI can treat "ran, but not everything
    /// landed" separately from "could not run".
    Partial,
    /// `campaignd` did not answer at the given address — distinct from
    /// `Failed` so scripts can fall back to local `run`.
    ServiceUnreachable,
}

/// The single process-exit mapping. Scripts and CI match on these
/// numbers, so changing one is a protocol break.
fn exit_code(outcome: Outcome) -> u8 {
    match outcome {
        Outcome::Complete => 0,
        Outcome::Failed => 1,
        Outcome::Usage => 2,
        Outcome::Partial => 3,
        Outcome::ServiceUnreachable => 5,
    }
}

/// Print a client error and fold it into the exit-code contract.
fn client_outcome(e: ClientError) -> Outcome {
    eprintln!("campaign: {e}");
    match e {
        ClientError::Unreachable(_) => Outcome::ServiceUnreachable,
        ClientError::Rejected { .. } | ClientError::Protocol(_) => Outcome::Failed,
    }
}

fn usage_text() -> String {
    "usage: campaign run <suite>... [--budget N] [--workers N] [--cache-dir DIR]\n\
     \x20                           [--no-cache] [--no-resume] [--retry-failed]\n\
     \x20                           [--max-jobs N] [--report FILE] [--quiet]\n\
     \x20      campaign status <name> [--cache-dir DIR]\n\
     \x20      campaign stats [--cache-dir DIR]\n\
     \x20      campaign submit <suite> --tenant NAME [--addr HOST:PORT]\n\
     \x20                              [--budget N] [--repeat N] [--seed-bump N]\n\
     \x20                              [--prefetcher L] [--emc on|off] [--name S] [--watch]\n\
     \x20      campaign watch <job-id> [--addr HOST:PORT]\n\
     \x20      campaign svc-status [--addr HOST:PORT]\n\
     \x20      campaign drain [--addr HOST:PORT]\n\
     suites: quad homog mix8-1mc mix8-2mc all"
        .to_string()
}

// ---------------------------------------------------------------------
// Argument parsing
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Args {
    positional: Vec<String>,
    budget: Option<u64>,
    workers: usize,
    cache_dir: String,
    no_cache: bool,
    no_resume: bool,
    retry_failed: bool,
    max_jobs: Option<usize>,
    report: Option<String>,
    quiet: bool,
    // Service-client flags.
    addr: String,
    tenant: String,
    name: Option<String>,
    seed_bump: u64,
    repeat: u64,
    prefetcher: Option<String>,
    emc: Option<bool>,
    watch: bool,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            positional: Vec::new(),
            budget: None,
            workers: 0,
            cache_dir: DEFAULT_CACHE_DIR.to_string(),
            no_cache: false,
            no_resume: false,
            retry_failed: false,
            max_jobs: None,
            report: None,
            quiet: false,
            addr: DEFAULT_ADDR.to_string(),
            tenant: String::new(),
            name: None,
            seed_bump: 0,
            repeat: 1,
            prefetcher: None,
            emc: None,
            watch: false,
        }
    }
}

fn want(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn want_u64(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<u64, String> {
    let v = want(it, flag)?;
    v.parse().map_err(|_| format!("{flag}: not a number: {v}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--budget" => args.budget = Some(want_u64(&mut it, "--budget")?),
            "--workers" => args.workers = want_u64(&mut it, "--workers")? as usize,
            "--max-jobs" => args.max_jobs = Some(want_u64(&mut it, "--max-jobs")? as usize),
            "--cache-dir" => args.cache_dir = want(&mut it, "--cache-dir")?,
            "--report" => args.report = Some(want(&mut it, "--report")?),
            "--no-cache" => args.no_cache = true,
            "--no-resume" => args.no_resume = true,
            "--retry-failed" => args.retry_failed = true,
            "--quiet" => args.quiet = true,
            "--addr" => args.addr = want(&mut it, "--addr")?,
            "--tenant" => args.tenant = want(&mut it, "--tenant")?,
            "--name" => args.name = Some(want(&mut it, "--name")?),
            "--seed-bump" => args.seed_bump = want_u64(&mut it, "--seed-bump")?,
            "--repeat" => args.repeat = want_u64(&mut it, "--repeat")?.max(1),
            "--prefetcher" => args.prefetcher = Some(want(&mut it, "--prefetcher")?),
            "--emc" => {
                args.emc = Some(match want(&mut it, "--emc")?.as_str() {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    other => return Err(format!("--emc: expected on|off, got {other:?}")),
                })
            }
            "--watch" => args.watch = true,
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag: {flag}")),
            pos => args.positional.push(pos.to_string()),
        }
    }
    Ok(args)
}

/// Build the wire submission from parsed flags. Unlike `run`, the
/// budget is NOT environment-resolved here: an omitted `--budget` goes
/// out as 0 so the daemon's default applies uniformly to all clients.
fn submit_request_of(args: &Args) -> Result<SubmitRequest, String> {
    let suite = args
        .positional
        .first()
        .ok_or("submit: which suite?")?
        .clone();
    if args.tenant.is_empty() {
        return Err("submit: --tenant is required".into());
    }
    let mut req = SubmitRequest::new(args.tenant.clone(), suite);
    req.name = args.name.clone().unwrap_or_default();
    req.budget = args.budget.unwrap_or(0);
    req.seed_bump = args.seed_bump;
    req.repeat = args.repeat;
    req.prefetcher = args.prefetcher.clone();
    req.emc = args.emc;
    Ok(req)
}

// ---------------------------------------------------------------------
// Local commands (run / status / stats)
// ---------------------------------------------------------------------

/// The named suites' job lists, `all` standing for every suite.
fn suites_of(names: &[String], budget: u64) -> Result<Vec<(&str, Vec<JobSpec>)>, String> {
    names
        .iter()
        .flat_map(|n| match n.as_str() {
            "all" => SUITES.to_vec(),
            one => vec![one],
        })
        .map(|n| {
            let jobs = suite_jobs(n, budget).ok_or_else(|| format!("unknown suite: {n}"))?;
            Ok((n, jobs))
        })
        .collect()
}

fn cmd_run(args: Args) -> Outcome {
    if args.positional.is_empty() {
        eprintln!("run: no suites named");
        return Outcome::Usage;
    }
    // Flag, then `EMC_FIGURE_BUDGET`, then the figures default.
    let budget = args.budget.unwrap_or_else(figure_budget);
    let suites = match suites_of(&args.positional, budget) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return Outcome::Usage;
        }
    };
    let cache = (!args.no_cache).then(|| ResultCache::new(&args.cache_dir));
    let opts = CampaignOptions {
        cache,
        workers: args.workers,
        resume: !args.no_resume,
        retry_failed: args.retry_failed,
        max_fresh_runs: args.max_jobs,
        progress: !args.quiet,
    };

    if !args.quiet {
        eprintln!(
            "# budget: {budget} retired uops/core · cache: {}",
            args.cache_dir
        );
    }
    let mut reports = Vec::new();
    let mut incomplete = 0usize;
    for (name, jobs) in suites {
        let report = Campaign::new(name, jobs).run(&opts);
        println!(
            "{name}: {} jobs · {} hits ({:.0}%) · {} executed · {} deferred · {} unresolved · {:.1}s",
            report.records.len(),
            report.hits(),
            report.hit_rate() * 100.0,
            report.executed(),
            report.deferred(),
            report.unresolved() - report.deferred(),
            report.wall.as_secs_f64(),
        );
        incomplete += report.unresolved();
        reports.push(report);
    }

    if let Some(path) = &args.report {
        let doc = emc_types::JsonValue::Arr(reports.iter().map(|r| r.to_json()).collect());
        let mut text = doc.to_json();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write report {path}: {e}");
            return Outcome::Failed;
        }
        println!("report written to {path}");
    }
    // Deferred jobs are an intentional interrupt (--max-jobs), still a
    // partial campaign: exit non-zero so CI can't mistake it for done.
    if incomplete > 0 {
        return Outcome::Partial;
    }
    Outcome::Complete
}

fn cmd_status(args: Args) -> Outcome {
    let Some(name) = args.positional.first() else {
        eprintln!("status: which campaign?");
        return Outcome::Usage;
    };
    let root = std::path::Path::new(&args.cache_dir);
    let Some(m) = Manifest::load(root, name) else {
        println!("{name}: no manifest under {}", args.cache_dir);
        return Outcome::Failed;
    };
    let tally = Tally::of(&m);
    let pending = m.entries.len() as u64 - tally.done;
    println!(
        "{name}: {} done · {} failed · {pending} pending (of {})",
        tally.done - tally.failed,
        tally.failed,
        m.entries.len()
    );
    for e in m.entries.iter().filter(|e| e.status == JobStatus::Failed) {
        println!(
            "  FAILED {} ({} attempts): {}",
            e.label, e.attempts, e.outcome
        );
    }
    if pending > 0 {
        println!(
            "  resume with: campaign run {name} --cache-dir {}",
            args.cache_dir
        );
    }
    Outcome::Complete
}

/// "p50 120ms · p95 340ms · 0.61 Mcyc/s median" from the measured rows
/// of a manifest slice, or `None` if nothing was ever executed (e.g. a
/// manifest written before host-perf landed).
fn host_perf_line(entries: &[emc_campaign::ManifestEntry]) -> Option<String> {
    let mut wall_ms = emc_types::Histogram::new();
    let mut cps = emc_types::Histogram::new();
    for e in entries.iter().filter(|e| e.sim_cycles > 0) {
        wall_ms.record(e.wall_ms);
        cps.record(e.cycles_per_sec() as u64);
    }
    if wall_ms.count == 0 {
        return None;
    }
    Some(format!(
        "host p50 {}ms · p95 {}ms · {:.2} Mcyc/s median ({} measured)",
        wall_ms.p50(),
        wall_ms.p95(),
        cps.p50() as f64 / 1e6,
        wall_ms.count,
    ))
}

fn cmd_stats(args: Args) -> Outcome {
    let cache = ResultCache::new(&args.cache_dir);
    println!(
        "cache {}: {} result entries · fingerprint {}",
        args.cache_dir,
        cache.entry_count(),
        emc_campaign::code_fingerprint()
    );
    let mut all_entries = Vec::new();
    let manifests = std::path::Path::new(&args.cache_dir).join("manifests");
    if let Ok(rd) = std::fs::read_dir(&manifests) {
        let mut paths: Vec<_> = rd.flatten().map(|f| f.path()).collect();
        paths.sort();
        for path in paths {
            if path.extension().is_some_and(|x| x == "json") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    if let Some(m) = Manifest::load(std::path::Path::new(&args.cache_dir), stem) {
                        let perf = host_perf_line(&m.entries)
                            .map(|l| format!(" · {l}"))
                            .unwrap_or_default();
                        println!(
                            "  manifest {stem}: {}/{} done{perf}",
                            m.done_count(),
                            m.entries.len()
                        );
                        all_entries.extend(m.entries);
                    }
                }
            }
        }
    }
    if let Some(l) = host_perf_line(&all_entries) {
        println!("  all manifests: {l}");
    }
    Outcome::Complete
}

// ---------------------------------------------------------------------
// Service commands (submit / watch / svc-status / drain)
// ---------------------------------------------------------------------

/// Render a milliseconds span compactly ("850ms", "4.2s", "3m07s").
fn fmt_ms(ms: u64) -> String {
    if ms < 1_000 {
        format!("{ms}ms")
    } else if ms < 60_000 {
        format!("{:.1}s", ms as f64 / 1_000.0)
    } else {
        format!("{}m{:02}s", ms / 60_000, (ms % 60_000) / 1_000)
    }
}

fn cmd_submit(args: Args) -> Outcome {
    let req = match submit_request_of(&args) {
        Ok(r) => r,
        Err(m) => {
            eprintln!("{m}");
            return Outcome::Usage;
        }
    };
    let client = Client::new(args.addr.clone());
    match client.submit(&req) {
        Ok(ack) => {
            println!(
                "submitted {}: {} tasks queued (service depth {})",
                ack.id, ack.total, ack.queue_depth
            );
            if args.watch {
                watch_job(&client, &ack.id, args.quiet)
            } else {
                println!(
                    "follow with: campaign watch {} --addr {}",
                    ack.id, args.addr
                );
                Outcome::Complete
            }
        }
        Err(e) => client_outcome(e),
    }
}

fn cmd_watch(args: Args) -> Outcome {
    let Some(id) = args.positional.first() else {
        eprintln!("watch: which job id?");
        return Outcome::Usage;
    };
    watch_job(&Client::new(args.addr.clone()), id, args.quiet)
}

/// Long-poll a job's event stream to completion, then map the final
/// status onto the exit-code contract (failures → `Partial`).
fn watch_job(client: &Client, id: &str, quiet: bool) -> Outcome {
    let mut since = 0u64;
    loop {
        let batch = match client.events(id, since, 10_000) {
            Ok(b) => b,
            Err(e) => return client_outcome(e),
        };
        for ev in &batch.events {
            if !quiet {
                let eta = ev
                    .eta_ms
                    .map(|ms| format!(" · eta {}", fmt_ms(ms)))
                    .unwrap_or_default();
                println!(
                    "[{}/{}] {} — {} ({} hits, {} failed{eta})",
                    ev.done, ev.total, ev.label, ev.outcome, ev.hits, ev.failed
                );
            }
        }
        since = batch.next;
        if batch.complete {
            break;
        }
    }
    match client.status(id) {
        Ok(s) => {
            println!(
                "{id} done: {} tasks · {} hits · {} executed · {} failed · {}",
                s.total,
                s.hits,
                s.executed,
                s.failed,
                fmt_ms(s.wall_ms)
            );
            if s.failed == 0 {
                Outcome::Complete
            } else {
                Outcome::Partial
            }
        }
        Err(e) => client_outcome(e),
    }
}

/// Render `/v1/stats` for humans.
fn render_stats(addr: &str, s: &ServiceStats) {
    let drain = if s.draining { " · DRAINING" } else { "" };
    println!(
        "campaignd at {addr}: up {} · {} workers · queue {}/{}{drain}",
        fmt_ms(s.uptime_ms),
        s.workers,
        s.queue_depth,
        s.queue_cap
    );
    println!(
        "  jobs {} ({} done) · tasks {} · hits {} ({:.1}%) · executed {} · failed {}",
        s.jobs,
        s.jobs_done,
        s.tasks_done,
        s.hits,
        s.hit_rate * 100.0,
        s.executed,
        s.failed
    );
    println!(
        "  wait p50 {} p95 {} max {} · task p50 {} p95 {} · job p50 {} p95 {}",
        fmt_ms(s.wait_ms.p50),
        fmt_ms(s.wait_ms.p95),
        fmt_ms(s.wait_ms.max),
        fmt_ms(s.task_wall_ms.p50),
        fmt_ms(s.task_wall_ms.p95),
        fmt_ms(s.job_wall_ms.p50),
        fmt_ms(s.job_wall_ms.p95)
    );
    if s.mcycles_per_sec > 0.0 {
        println!(
            "  host {:.2} Mcyc/s over {} executed tasks",
            s.mcycles_per_sec, s.executed
        );
    }
    for t in &s.tenants {
        println!(
            "  tenant {}: {} queued · {} running · {} done · {} failed · wait p50 {} p95 {} max {} · {} escalated",
            t.tenant,
            t.queued,
            t.running,
            t.done,
            t.failed,
            fmt_ms(t.wait_ms.p50),
            fmt_ms(t.wait_ms.p95),
            fmt_ms(t.max_wait_ms),
            t.escalated
        );
    }
}

fn cmd_svc_status(args: Args) -> Outcome {
    match Client::new(args.addr.clone()).stats() {
        Ok(s) => {
            render_stats(&args.addr, &s);
            Outcome::Complete
        }
        Err(e) => client_outcome(e),
    }
}

fn cmd_drain(args: Args) -> Outcome {
    match Client::new(args.addr.clone()).drain() {
        Ok(_) => {
            println!("drain accepted; campaignd exits once the queue is idle");
            Outcome::Complete
        }
        Err(e) => client_outcome(e),
    }
}

// ---------------------------------------------------------------------
// Entry
// ---------------------------------------------------------------------

fn run(argv: &[String]) -> Outcome {
    let Some(cmd) = argv.first() else {
        eprintln!("{}", usage_text());
        return Outcome::Usage;
    };
    let args = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{}", usage_text());
            } else {
                eprintln!("{msg}\n\n{}", usage_text());
            }
            return Outcome::Usage;
        }
    };
    match cmd.as_str() {
        "run" => cmd_run(args),
        "status" => cmd_status(args),
        "stats" => cmd_stats(args),
        "submit" => cmd_submit(args),
        "watch" => cmd_watch(args),
        "svc-status" => cmd_svc_status(args),
        "drain" => cmd_drain(args),
        other => {
            eprintln!("unknown command: {other}\n\n{}", usage_text());
            Outcome::Usage
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(exit_code(run(&argv)) as i32);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn exit_codes_are_a_stable_contract() {
        assert_eq!(exit_code(Outcome::Complete), 0);
        assert_eq!(exit_code(Outcome::Failed), 1);
        assert_eq!(exit_code(Outcome::Usage), 2);
        assert_eq!(exit_code(Outcome::Partial), 3);
        assert_eq!(exit_code(Outcome::ServiceUnreachable), 5);
    }

    #[test]
    fn client_errors_map_onto_the_contract() {
        assert_eq!(
            client_outcome(ClientError::Unreachable("nope".into())),
            Outcome::ServiceUnreachable
        );
        assert_eq!(
            client_outcome(ClientError::Protocol("weird".into())),
            Outcome::Failed
        );
        assert_eq!(
            client_outcome(ClientError::Rejected {
                status: 429,
                rejection: emc_types::Rejection::of("queue-full", "full"),
            }),
            Outcome::Failed
        );
    }

    #[test]
    fn parse_args_maps_service_flags() {
        let args = parse_args(&strs(&[
            "quad",
            "--tenant",
            "alice",
            "--addr",
            "127.0.0.1:9000",
            "--repeat",
            "12",
            "--seed-bump",
            "3",
            "--prefetcher",
            "GHB",
            "--emc",
            "on",
            "--name",
            "nightly",
            "--watch",
        ]))
        .unwrap();
        assert_eq!(args.positional, vec!["quad"]);
        assert_eq!(args.tenant, "alice");
        assert_eq!(args.addr, "127.0.0.1:9000");
        assert_eq!(args.repeat, 12);
        assert_eq!(args.seed_bump, 3);
        assert_eq!(args.prefetcher.as_deref(), Some("GHB"));
        assert_eq!(args.emc, Some(true));
        assert_eq!(args.name.as_deref(), Some("nightly"));
        assert!(args.watch);
    }

    #[test]
    fn parse_args_rejects_bad_input() {
        assert!(parse_args(&strs(&["--frobnicate"]))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse_args(&strs(&["--tenant"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_args(&strs(&["--repeat", "many"]))
            .unwrap_err()
            .contains("not a number"));
        assert!(parse_args(&strs(&["--emc", "maybe"]))
            .unwrap_err()
            .contains("on|off"));
        // --repeat 0 silently clamps to 1 (a zero-copy submission is
        // never what anyone means).
        assert_eq!(parse_args(&strs(&["--repeat", "0"])).unwrap().repeat, 1);
    }

    #[test]
    fn submit_request_passes_budget_through_unresolved() {
        let mut args = parse_args(&strs(&["quad", "--tenant", "alice"])).unwrap();
        let req = submit_request_of(&args).unwrap();
        assert_eq!(req.budget, 0, "omitted budget defers to the daemon");
        assert_eq!(req.tenant, "alice");
        assert_eq!(req.suite, "quad");
        assert_eq!(req.repeat, 1);

        args.budget = Some(500);
        assert_eq!(submit_request_of(&args).unwrap().budget, 500);
    }

    #[test]
    fn submit_requires_suite_and_tenant() {
        let no_suite = parse_args(&strs(&["--tenant", "alice"])).unwrap();
        assert!(submit_request_of(&no_suite).unwrap_err().contains("suite"));
        let no_tenant = parse_args(&strs(&["quad"])).unwrap();
        assert!(submit_request_of(&no_tenant)
            .unwrap_err()
            .contains("--tenant"));
    }

    #[test]
    fn fmt_ms_picks_sane_units() {
        assert_eq!(fmt_ms(850), "850ms");
        assert_eq!(fmt_ms(4_200), "4.2s");
        assert_eq!(fmt_ms(187_000), "3m07s");
    }

    #[test]
    fn unknown_suites_are_usage_errors_not_panics() {
        assert!(suites_of(&strs(&["frob"]), 100).is_err());
        let names = strs(&["quad", "homog"]);
        let suites = suites_of(&names, 100).unwrap();
        assert_eq!(suites.len(), 2);
        assert_eq!(suites[0].0, "quad");
    }
}
