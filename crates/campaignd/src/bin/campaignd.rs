//! The campaignd daemon: bind, resume, serve until drained.
//!
//! ```text
//! campaignd [--addr 127.0.0.1:8321] [--workers N] [--cache-dir DIR]
//!           [--queue-cap N] [--mark-cap N] [--age-ms MS] [--budget N]
//! ```
//!
//! The process exits 0 after `POST /v1/drain` once the queue empties and
//! the last in-flight task lands; exits 2 on usage errors.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

use emc_campaign::DEFAULT_ADDR;
use emc_campaignd::{Service, ServiceConfig};

fn usage() -> String {
    format!(
        "usage: campaignd [options]\n\
         \n\
         options:\n\
         \x20 --addr HOST:PORT   listen address (default {DEFAULT_ADDR})\n\
         \x20 --workers N        worker threads (default: one per core)\n\
         \x20 --cache-dir DIR    result cache root (default {})\n\
         \x20 --queue-cap N      admission-control capacity in tasks (default {})\n\
         \x20 --mark-cap N       fair-batch marking cap per tenant (default {})\n\
         \x20 --age-ms MS        aging escalation threshold (default {})\n\
         \x20 --budget N         default per-core uop budget (default {})\n",
        emc_campaign::DEFAULT_CACHE_DIR,
        ServiceConfig::default().queue_cap,
        ServiceConfig::default().mark_cap,
        ServiceConfig::default().age_ms,
        ServiceConfig::default().default_budget,
    )
}

fn parse_args(args: &[String]) -> Result<(String, ServiceConfig), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut cfg = ServiceConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr")?.clone(),
            "--workers" => {
                cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs a number".to_string())?
            }
            "--cache-dir" => cfg.cache_dir = PathBuf::from(value("--cache-dir")?),
            "--queue-cap" => {
                cfg.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|_| "--queue-cap needs a number".to_string())?
            }
            "--mark-cap" => {
                cfg.mark_cap = value("--mark-cap")?
                    .parse()
                    .map_err(|_| "--mark-cap needs a number".to_string())?
            }
            "--age-ms" => {
                cfg.age_ms = value("--age-ms")?
                    .parse()
                    .map_err(|_| "--age-ms needs a number".to_string())?
            }
            "--budget" => {
                cfg.default_budget = value("--budget")?
                    .parse()
                    .map_err(|_| "--budget needs a number".to_string())?
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n\n{}", usage())),
        }
    }
    Ok((addr, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (addr, cfg) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("campaignd: cannot bind {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "# campaignd: listening on {addr}, cache {}",
        cfg.cache_dir.display()
    );

    let service = Service::new(cfg);
    let workers = service.start_workers();
    eprintln!("# campaignd: {} workers resident", workers.len());

    // Blocks until a drain completes (stop flag set with an idle queue).
    service.serve(listener);
    for w in workers {
        let _ = w.join();
    }
    eprintln!("# campaignd: drained; bye");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_args_maps_every_flag() {
        let (addr, cfg) = parse_args(&strs(&[
            "--addr",
            "127.0.0.1:9000",
            "--workers",
            "3",
            "--cache-dir",
            "/tmp/c",
            "--queue-cap",
            "64",
            "--mark-cap",
            "2",
            "--age-ms",
            "500",
            "--budget",
            "1234",
        ]))
        .unwrap();
        assert_eq!(addr, "127.0.0.1:9000");
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.cache_dir, PathBuf::from("/tmp/c"));
        assert_eq!(cfg.queue_cap, 64);
        assert_eq!(cfg.mark_cap, 2);
        assert_eq!(cfg.age_ms, 500);
        assert_eq!(cfg.default_budget, 1234);
    }

    #[test]
    fn parse_args_rejects_unknown_and_incomplete_flags() {
        assert!(parse_args(&strs(&["--frobnicate"]))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse_args(&strs(&["--workers"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_args(&strs(&["--workers", "many"]))
            .unwrap_err()
            .contains("number"));
        let (addr, cfg) = parse_args(&[]).unwrap();
        assert_eq!(addr, DEFAULT_ADDR);
        assert_eq!(cfg.queue_cap, ServiceConfig::default().queue_cap);
    }
}
