//! Per-tenant fair queue with PAR-BS-style batching and aging.
//!
//! This is the same algorithm family as the memory controller's
//! parallelism-aware batch scheduler in `crates/memctrl`, lifted from
//! DRAM requests to experiment tasks — the mapping is deliberate and
//! one-to-one:
//!
//! | memctrl (PAR-BS)                  | campaignd fair queue            |
//! |-----------------------------------|---------------------------------|
//! | request in a bank queue           | task in a tenant queue          |
//! | per-(core, bank) marking cap      | per-tenant marking cap          |
//! | marked > unmarked priority        | batch tasks dispatch first      |
//! | rank within batch (row hits, age) | round-robin tenants, oldest-first within a tenant |
//! | aging escalation past threshold   | aging escalation past threshold |
//!
//! **Batching** bounds how far a bulk submitter can get ahead: when no
//! marked task remains, the queue marks up to `mark_cap` of the oldest
//! tasks from *every* tenant with pending work, and marked tasks are
//! dispatched before any unmarked one. A tenant that dumps 10 000 tasks
//! therefore contributes at most `mark_cap` tasks per batch, and every
//! other tenant's work rides in the same batch — the bulk queue drains
//! in the background instead of blocking the interactive one.
//!
//! **Ranking** within a batch is round-robin across tenants (each tenant
//! oldest-first), so batch service is interleaved rather than
//! tenant-serial.
//!
//! **Aging** is the same backstop PR 6 added to the memory controller:
//! a tenant whose *head-of-line* task waits past `age_ms` escalates
//! above batch membership entirely, so a tenant arriving mid-way
//! through a giant batch is bounded by the aging threshold, not by the
//! batch's residual drain time — exactly the role `mc_escalation_age`
//! plays against open-row streams. One deliberate adaptation: memctrl
//! ranks escalated *requests* oldest-first (the starved request is the
//! oldest), but here the fairness unit is the tenant, and under
//! saturation every deep queue is older than any threshold — global
//! oldest-first would collapse into FIFO and hand the service back to
//! the bulk submitter. Escalated *heads* therefore share service
//! round-robin, exactly like the batch rank, and only the head of each
//! tenant queue is age-checked (a tenant's own backlog behind its head
//! is fair-share delay, not starvation).
//!
//! The queue is a pure data structure: callers pass `now_ms` (any
//! monotonic millisecond clock) so every fairness property is testable
//! with a virtual clock.

use std::collections::VecDeque;

/// Default marking cap: tasks per tenant per batch.
pub const DEFAULT_MARK_CAP: usize = 16;

/// Default aging threshold (milliseconds) before a queued task escalates
/// above batch boundaries.
pub const DEFAULT_AGE_MS: u64 = 30_000;

/// An opaque reference to a queued unit of work: a (job, task) index
/// pair into the service's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskRef {
    /// Index of the owning job.
    pub job: usize,
    /// Index of the task within the job.
    pub index: usize,
}

#[derive(Debug)]
struct QueuedTask {
    task: TaskRef,
    enqueued_ms: u64,
    marked: bool,
    escalated: bool,
}

#[derive(Debug, Default)]
struct TenantQueue {
    tasks: VecDeque<QueuedTask>,
}

/// Admission-control rejection: the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// Tasks queued at rejection time.
    pub depth: usize,
    /// The configured capacity.
    pub capacity: usize,
}

/// What [`FairQueue::pop`] dispatched, beyond the task itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// The dispatched task.
    pub task: TaskRef,
    /// Tenant the task belongs to.
    pub tenant: usize,
    /// How long the task waited in the queue, milliseconds.
    pub wait_ms: u64,
    /// True when the task was dispatched via aging escalation rather
    /// than normal batch order.
    pub escalated: bool,
}

/// The service's fair scheduler (see module docs).
#[derive(Debug)]
pub struct FairQueue {
    tenants: Vec<TenantQueue>,
    /// Round-robin rank cursor over tenants.
    cursor: usize,
    capacity: usize,
    mark_cap: usize,
    age_ms: u64,
    len: usize,
}

impl FairQueue {
    /// An empty queue admitting at most `capacity` tasks, marking up to
    /// `mark_cap` tasks per tenant per batch, and escalating tasks older
    /// than `age_ms`.
    pub fn new(capacity: usize, mark_cap: usize, age_ms: u64) -> Self {
        FairQueue {
            tenants: Vec::new(),
            cursor: 0,
            capacity,
            mark_cap: mark_cap.max(1),
            age_ms: age_ms.max(1),
            len: 0,
        }
    }

    /// Total queued tasks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The admission-control capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queued tasks for one tenant (0 for unknown tenants).
    pub fn depth_of(&self, tenant: usize) -> usize {
        self.tenants.get(tenant).map_or(0, |t| t.tasks.len())
    }

    /// Whether `n` more tasks fit under the capacity: the check
    /// [`admit`](Self::admit) makes, for a caller that wants the answer
    /// before it builds the tasks.
    pub fn room_for(&self, n: usize) -> Result<(), QueueFull> {
        if n > self.capacity.saturating_sub(self.len) {
            return Err(QueueFull {
                depth: self.len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Admit a job's tasks for `tenant`, all or nothing: if the batch
    /// would push the queue past capacity, nothing is admitted and the
    /// caller turns the [`QueueFull`] into a structured 429. The batch
    /// is sized before any of it is produced, so an absurd task count
    /// costs a rejection, not memory.
    pub fn admit(
        &mut self,
        tenant: usize,
        tasks: impl IntoIterator<Item = TaskRef, IntoIter: ExactSizeIterator>,
        now_ms: u64,
    ) -> Result<usize, QueueFull> {
        let tasks = tasks.into_iter();
        let n = tasks.len();
        self.room_for(n)?;
        while self.tenants.len() <= tenant {
            self.tenants.push(TenantQueue::default());
        }
        for task in tasks {
            self.tenants[tenant].tasks.push_back(QueuedTask {
                task,
                enqueued_ms: now_ms,
                marked: false,
                escalated: false,
            });
        }
        self.len += n;
        Ok(n)
    }

    /// Escalate every tenant *head* whose wait crossed the aging
    /// threshold (the pure `(queue ages, now)` scan, as in the memory
    /// controller — restricted to heads, see module docs). Only heads
    /// are ever popped, so at most one task per tenant carries the flag.
    fn escalate_aged(&mut self, now_ms: u64) {
        for tq in &mut self.tenants {
            if let Some(t) = tq.tasks.front_mut() {
                if !t.escalated && now_ms.saturating_sub(t.enqueued_ms) >= self.age_ms {
                    t.escalated = true;
                }
            }
        }
    }

    /// Form a new batch if no marked task remains: mark up to `mark_cap`
    /// of the oldest tasks from every tenant with pending work.
    fn form_batch(&mut self) {
        if self
            .tenants
            .iter()
            .any(|tq| tq.tasks.iter().any(|t| t.marked))
        {
            return;
        }
        for tq in &mut self.tenants {
            for t in tq.tasks.iter_mut().take(self.mark_cap) {
                t.marked = true;
            }
        }
    }

    /// Dispatch the next task, or `None` when the queue is empty. Only
    /// tenant heads are candidates (marking covers the oldest prefix of
    /// each queue and pops remove from the front, so the head is always
    /// a tenant's highest-priority task). Priority classes: escalated
    /// heads > marked heads > any head, with the shared round-robin
    /// cursor ranking tenants inside whichever class is non-empty.
    pub fn pop(&mut self, now_ms: u64) -> Option<Dispatch> {
        if self.len == 0 {
            return None;
        }
        self.escalate_aged(now_ms);

        let head = |tq: &TenantQueue| -> Option<(bool, bool)> {
            tq.tasks.front().map(|t| (t.escalated, t.marked))
        };
        let any_escalated = self.tenants.iter().any(|tq| head(tq).is_some_and(|h| h.0));
        if !any_escalated {
            self.form_batch();
        }
        let any_marked = self.tenants.iter().any(|tq| head(tq).is_some_and(|h| h.1));

        let n = self.tenants.len();
        for step in 0..n {
            let ti = (self.cursor + step) % n;
            let Some((escalated, marked)) = head(&self.tenants[ti]) else {
                continue;
            };
            let eligible = if any_escalated {
                escalated
            } else if any_marked {
                marked
            } else {
                true
            };
            if eligible {
                self.cursor = (ti + 1) % n;
                return Some(self.take(ti, now_ms, escalated));
            }
        }
        None
    }

    fn take(&mut self, tenant: usize, now_ms: u64, escalated: bool) -> Dispatch {
        let t = self.tenants[tenant]
            .tasks
            .pop_front()
            .expect("head checked by caller");
        self.len -= 1;
        Dispatch {
            task: t.task,
            tenant,
            wait_ms: now_ms.saturating_sub(t.enqueued_ms),
            escalated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(job: usize, n: usize) -> Vec<TaskRef> {
        (0..n).map(|index| TaskRef { job, index }).collect()
    }

    #[test]
    fn admission_control_is_all_or_nothing() {
        let mut q = FairQueue::new(10, 4, 1_000);
        assert_eq!(q.admit(0, refs(0, 8), 0), Ok(8));
        let err = q.admit(1, refs(1, 3), 0).unwrap_err();
        assert_eq!(
            err,
            QueueFull {
                depth: 8,
                capacity: 10
            }
        );
        assert_eq!(q.len(), 8, "rejected batch admitted nothing");
        assert_eq!(q.admit(1, refs(1, 2), 0), Ok(2), "exact fit admits");
        assert_eq!(q.len(), 10);
    }

    #[test]
    fn batching_interleaves_a_bulk_tenant_with_a_small_one() {
        // Tenant 0 dumps 100 tasks; tenant 1 submits 4. With mark_cap 4
        // the first batch holds 4+4 tasks and round-robin ranking
        // alternates tenants, so tenant 1's last task dispatches within
        // the first 8 pops — not after tenant 0's 100.
        let mut q = FairQueue::new(4096, 4, 1_000_000);
        q.admit(0, refs(0, 100), 0).unwrap();
        q.admit(1, refs(1, 4), 0).unwrap();
        let mut last_t1_pop = 0;
        for i in 0..q.len() {
            let d = q.pop(1).unwrap();
            if d.tenant == 1 {
                last_t1_pop = i;
            }
            assert!(!d.escalated, "nothing should age in this scenario");
        }
        assert!(
            last_t1_pop < 8,
            "small tenant finished at pop {last_t1_pop}, starved behind bulk"
        );
    }

    #[test]
    fn round_robin_ranks_three_tenants_evenly_within_a_batch() {
        let mut q = FairQueue::new(4096, 2, 1_000_000);
        for tenant in 0..3 {
            q.admit(tenant, refs(tenant, 2), 0).unwrap();
        }
        // One batch of 6; the first three pops hit three distinct
        // tenants (round-robin), not one tenant twice.
        let first3: Vec<usize> = (0..3).map(|_| q.pop(1).unwrap().tenant).collect();
        let mut sorted = first3.clone();
        sorted.sort();
        assert_eq!(sorted, vec![0, 1, 2], "rank interleaves: {first3:?}");
    }

    #[test]
    fn late_tenant_is_rescued_by_aging_not_batch_drain() {
        // Bulk tenant forms a huge batch (mark_cap 1000 ≈ no batching);
        // tenant 1 arrives after batch formation. Without aging it would
        // wait for the whole batch; with aging it dispatches as soon as
        // its wait crosses the threshold.
        let age = 50;
        let mut q = FairQueue::new(16_384, 1_000, age);
        q.admit(0, refs(0, 1_000), 0).unwrap();
        let _ = q.pop(1).unwrap(); // batch formed at t=1
        q.admit(1, refs(1, 1), 2).unwrap();

        // Before the threshold, bulk tasks keep dispatching.
        for now in [10, 20, 30] {
            assert_eq!(q.pop(now).unwrap().tenant, 0);
        }
        // First pop at/after the threshold dispatches the aged task.
        let d = q.pop(2 + age).unwrap();
        assert_eq!(d.tenant, 1, "aged task outranks the batch");
        assert!(d.escalated);
        assert_eq!(d.wait_ms, age);
    }

    #[test]
    fn escalated_heads_share_service_round_robin_not_fifo() {
        // Under saturation every head crosses the threshold; dispatch
        // must still interleave tenants (round-robin) instead of
        // degrading to global FIFO that would favor the oldest (bulk)
        // queue — see module docs for why this diverges from memctrl's
        // oldest-first request ranking.
        let mut q = FairQueue::new(4096, 1, 10);
        q.admit(0, refs(0, 5), 0).unwrap(); // oldest, deepest
        q.admit(1, refs(1, 2), 3).unwrap();
        q.admit(2, refs(2, 2), 5).unwrap();
        let order: Vec<(usize, bool)> = (0..6)
            .map(|i| {
                let d = q.pop(100 + i).unwrap();
                (d.tenant, d.escalated)
            })
            .collect();
        assert!(order.iter().all(|&(_, esc)| esc), "all waits crossed 10ms");
        let first3: Vec<usize> = order.iter().take(3).map(|&(t, _)| t).collect();
        let mut sorted = first3.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            vec![0, 1, 2],
            "escalated service interleaves tenants: {order:?}"
        );
    }

    #[test]
    fn wait_is_measured_and_queue_drains_empty() {
        let mut q = FairQueue::new(64, 4, 1_000_000);
        q.admit(0, refs(0, 3), 100).unwrap();
        let d = q.pop(250).unwrap();
        assert_eq!(d.wait_ms, 150);
        assert_eq!(q.len(), 2);
        assert!(q.pop(260).is_some());
        assert!(q.pop(270).is_some());
        assert!(q.pop(280).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn wait_bound_property_under_continuous_bulk_load() {
        // Deterministic end-to-end fairness property: with aging at A
        // and a single server popping every 1ms, a small tenant's worst
        // wait stays within A plus the escalated backlog it joins —
        // never the bulk tenant's full drain time.
        let age = 40;
        let mut q = FairQueue::new(65_536, 8, age);
        q.admit(0, refs(0, 2_000), 0).unwrap();
        let mut worst_small_wait = 0;
        let mut now = 0;
        // Tenant 1 submits one task every 25ms; serve one task per ms.
        for step in 0..500u64 {
            now = step;
            if step % 25 == 0 {
                q.admit(1, refs(1, 1), now).unwrap();
            }
            if let Some(d) = q.pop(now) {
                if d.tenant == 1 {
                    worst_small_wait = worst_small_wait.max(d.wait_ms);
                }
            }
        }
        let _ = now;
        assert!(
            worst_small_wait <= age + 8,
            "small tenant worst wait {worst_small_wait}ms exceeds aging bound"
        );
    }
}
