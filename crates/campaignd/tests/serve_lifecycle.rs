//! `Service::serve` over real sockets: it starts, answers, and returns
//! promptly on every way the service stops — `stop()` on a loopback or
//! an unspecified-address listener, and a drain over HTTP that lands
//! while a job is still running. Each `serve` runs on its own thread and
//! its return is awaited with a deadline, so a missed wake-up fails the
//! test instead of hanging it.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use emc_campaign::{Client, Manifest};
use emc_campaignd::{Service, ServiceConfig};
use emc_types::json::dec_u64;
use emc_types::{JobState, SubmitRequest};

fn service(tag: &str, workers: usize) -> (Service, PathBuf) {
    let cache_dir =
        std::env::temp_dir().join(format!("emc-serve-lifecycle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let svc = Service::new(ServiceConfig {
        workers,
        default_budget: 300,
        cache_dir: cache_dir.clone(),
        ..ServiceConfig::default()
    });
    (svc, cache_dir)
}

/// `serve` on its own thread; the receiver yields what `after` returns
/// once `serve` has.
fn spawn_serve<T: Send + 'static>(
    svc: &Service,
    listener: TcpListener,
    after: impl FnOnce(&Service) -> T + Send + 'static,
) -> (mpsc::Receiver<T>, JoinHandle<()>) {
    let (tx, rx) = mpsc::channel();
    let svc = svc.clone();
    let server = std::thread::spawn(move || {
        svc.serve(listener);
        let _ = tx.send(after(&svc));
    });
    (rx, server)
}

/// A client for a listener, over loopback when it is bound to the
/// unspecified address.
fn client_for(addr: SocketAddr) -> Client {
    Client::new(format!("127.0.0.1:{}", addr.port()))
}

fn stop_returns_promptly(bind: &str, tag: &str) {
    let (svc, cache_dir) = service(tag, 1);
    let workers = svc.start_workers();
    let listener = TcpListener::bind(bind).unwrap();
    let client = client_for(listener.local_addr().unwrap());
    let (returned, server) = spawn_serve(&svc, listener, |_| ());
    // One answered request: the loop is up and back in `accept`.
    client.healthz().expect("serving");

    svc.stop();
    returned
        .recv_timeout(Duration::from_secs(2))
        .unwrap_or_else(|_| panic!("serve on {bind} still blocked 2 s after stop()"));
    server.join().unwrap();
    for w in workers {
        w.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(cache_dir);
}

#[test]
fn stop_wakes_a_loopback_listener() {
    stop_returns_promptly("127.0.0.1:0", "loopback");
}

#[test]
fn stop_wakes_an_unspecified_address_listener() {
    stop_returns_promptly("0.0.0.0:0", "unspecified");
}

#[test]
fn a_drain_mid_job_returns_after_the_jobs_last_event() {
    let (svc, cache_dir) = service("drain", 1);
    let workers = svc.start_workers();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let client = client_for(listener.local_addr().unwrap());
    // What the service had resolved at the moment `serve` returned.
    let (returned, server) = spawn_serve(&svc, listener, |svc| svc.stats().tasks_done);

    // Cold: ten cells, simulated one at a time on one worker.
    let mut req = SubmitRequest::new("t", "quad");
    req.prefetcher = Some("No-PF".into());
    req.emc = Some(false);
    let ack = client.submit(&req).expect("admitted");
    let drain = client.drain().expect("drain answered");
    let pending: u64 = ["queue_depth", "running"]
        .iter()
        .map(|k| dec_u64(drain.get(k).expect(k)).unwrap())
        .sum();
    assert!(pending > 0, "the drain must land mid-job: {drain:?}");

    let done_at_return = returned
        .recv_timeout(Duration::from_secs(120))
        .expect("serve returns once the drained job finishes");
    assert_eq!(
        done_at_return, ack.total,
        "serve returned before the last task"
    );
    server.join().unwrap();
    for w in workers {
        w.join().unwrap();
    }

    let view = svc.status(&ack.id).unwrap();
    assert_eq!((view.state, view.done), (JobState::Done, ack.total));
    let batch = svc.events(&ack.id, 0, 0).unwrap();
    let seqs: Vec<u64> = batch.events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, (1..=ack.total).collect::<Vec<u64>>());
    let manifest = Manifest::load(&cache_dir, &format!("svc-{}", ack.id)).expect("manifest");
    assert_eq!(
        manifest.done_count(),
        manifest.entries.len(),
        "fully resolved on disk"
    );
    let _ = std::fs::remove_dir_all(cache_dir);
}

#[test]
fn sequential_requests_wait_for_no_timer() {
    let (svc, cache_dir) = service("healthz", 1);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let client = client_for(listener.local_addr().unwrap());
    let (returned, server) = spawn_serve(&svc, listener, |_| ());

    let start = Instant::now();
    for _ in 0..50 {
        client.healthz().expect("healthz");
    }
    let took = start.elapsed();
    // Under a 20 ms accept poll each round trip waits out a tick, about
    // 1 s in all.
    assert!(
        took < Duration::from_millis(500),
        "50 round trips took {took:?}"
    );

    svc.stop();
    returned.recv_timeout(Duration::from_secs(2)).unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(cache_dir);
}
