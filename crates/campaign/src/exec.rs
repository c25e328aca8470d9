//! Work-stealing parallel map on `std::thread::scope`.
//!
//! Generalizes the bench harness's first parallel map: a shared index
//! counter acts as the work queue, each worker claims the next
//! unclaimed job when it finishes its current one (so a slow job never
//! blocks the queue behind it), and results land in their input slot so
//! output order always matches input order. Unlike the old
//! implementation this one is not capped at four workers — campaign
//! grids are embarrassingly parallel and should use the whole machine.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The one reading of a worker-count option: `workers`, or every core
/// the OS will give us (minimum one) when it is 0.
pub fn worker_count(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        workers
    }
}

/// Apply `f` to every job across `workers` threads (0 = all cores),
/// returning results in input order. Panics in `f` propagate after all
/// workers stop claiming new jobs.
pub fn parallel_map<J, R, F>(jobs: Vec<J>, workers: usize, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    let workers = worker_count(workers).min(jobs.len()).max(1);
    if workers <= 1 {
        return jobs.iter().enumerate().map(|(i, j)| f(i, j)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let r = f(i, &jobs[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_input_order_regardless_of_finish_order() {
        let jobs: Vec<u64> = (0..64).collect();
        let out = parallel_map(jobs, 8, |i, &j| {
            // Early jobs sleep longer, so they finish last.
            std::thread::sleep(std::time::Duration::from_micros(200 - 3 * i as u64));
            j * 2
        });
        assert_eq!(out, (0..64).map(|j| j * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = parallel_map((0..257).collect(), 16, |i, &j: &usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, j);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 257);
        assert_eq!(out.iter().copied().collect::<HashSet<_>>().len(), 257);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(
            parallel_map(Vec::<u8>::new(), 4, |_, &j| j),
            Vec::<u8>::new()
        );
        assert_eq!(parallel_map(vec![7], 0, |_, &j| j + 1), vec![8]);
        // More workers than jobs is fine.
        assert_eq!(parallel_map(vec![1, 2], 64, |_, &j| j), vec![1, 2]);
    }

    #[test]
    fn serial_fallback_used_for_single_worker() {
        // With workers=1 the map must not spawn; observable via order of
        // side effects matching input order exactly.
        let seen = Mutex::new(Vec::new());
        parallel_map((0..10).collect(), 1, |i, _: &usize| {
            seen.lock().unwrap().push(i);
        });
        assert_eq!(*seen.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }
}
