//! The wait queue.

use crate::admission::{all_nodes_up, DeadlinePrice};
use crate::traits::{Placement, SchedContext};
use dmhpc_des::time::SimTime;
use dmhpc_workload::Job;
use std::collections::VecDeque;

/// A job waiting to run, with queue metadata.
///
/// An entry memoizes the pass-independent parts of its own pricing the
/// first time a pass needs them, so later passes reuse them: the job's
/// [`Placement::best_dilation`], its EDF key, and the last instant at
/// which `RejectInfeasible` admission still admits it on a healthy
/// machine. A resubmitted job is a new entry and is priced afresh. Debug
/// builds check every memo hit against a fresh computation.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// The job as submitted.
    pub job: Job,
    /// When it entered the queue (== arrival for normal submissions).
    pub enqueued: SimTime,
    /// [`Placement::best_dilation`] for this job once admission has priced
    /// it (`None` until then). It depends only on the job, the machine spec
    /// and the model (the trait's contract), so one call serves every
    /// later pass.
    priced: Option<Option<f64>>,
    /// The job's EDF key once an EDF pass has asked for it:
    /// [`SchedContext::deadline`], or [`SimTime::MAX`] for a job without a
    /// deadline. The deadline depends only on the job and the run-wide SLO
    /// target, which is fixed before the first pass.
    deadline_key: Option<SimTime>,
    /// The last instant at which the laxity test admits this job, once
    /// `RejectInfeasible` admission has admitted it through that test on a
    /// machine with every node up ([`crate::DeadlinePrice`] explains why
    /// the test holds at every earlier instant too).
    admit_until: Option<SimTime>,
}

/// Queue entries compare by job and enqueue instant; the memos are caches.
impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.job == other.job && self.enqueued == other.enqueued
    }
}

impl QueuedJob {
    /// A fresh, unpriced entry for `job` enqueued at `enqueued`.
    pub fn new(job: Job, enqueued: SimTime) -> Self {
        QueuedJob {
            job,
            enqueued,
            priced: None,
            deadline_key: None,
            admit_until: None,
        }
    }

    /// The job's [`Placement::best_dilation`]: the memo when admission
    /// has priced it, else a fresh call. Read-only, so scans over a
    /// borrowed queue (the engine's preemption check) share the memo.
    /// Debug builds check every memo hit against a fresh call: a placement
    /// whose `best_dilation` reads pass state breaks the memo's contract.
    pub fn best_dilation(&self, ctx: &SchedContext<'_>, placement: &dyn Placement) -> Option<f64> {
        let Some(best) = self.priced else {
            return placement.best_dilation(&self.job, ctx);
        };
        debug_assert_eq!(
            best.map(f64::to_bits),
            placement.best_dilation(&self.job, ctx).map(f64::to_bits),
            "{}: best_dilation of job {} changed since it was memoized",
            placement.name(),
            self.job.id.0
        );
        best
    }

    /// [`QueuedJob::best_dilation`], stored for later passes.
    pub(crate) fn price_best_dilation(
        &mut self,
        ctx: &SchedContext<'_>,
        placement: &dyn Placement,
    ) -> Option<f64> {
        let best = self.best_dilation(ctx, placement);
        self.priced = Some(best);
        best
    }

    /// Memoize the job's EDF key if no pass has yet; debug builds check
    /// a memo hit against a fresh [`SchedContext::deadline`].
    pub(crate) fn memo_deadline_key(&mut self, ctx: &SchedContext<'_>) {
        let fresh = || ctx.deadline(&self.job).unwrap_or(SimTime::MAX);
        match self.deadline_key {
            Some(key) => debug_assert_eq!(
                key,
                fresh(),
                "deadline of job {} changed since it was memoized \
                 (set the SLO target before the first pass)",
                self.job.id.0
            ),
            None => self.deadline_key = Some(fresh()),
        }
    }

    /// The memoized EDF key (`None` before [`QueuedJob::memo_deadline_key`]).
    pub(crate) fn deadline_key(&self) -> Option<SimTime> {
        self.deadline_key
    }

    /// Whether the admit-until memo admits the job at this pass: `ctx.now`
    /// is no later than the memoized instant and every node is up. Debug
    /// builds check a hit against a fresh laxity test.
    pub(crate) fn admitted_until(&self, ctx: &SchedContext<'_>, placement: &dyn Placement) -> bool {
        let Some(until) = self.admit_until else {
            return false;
        };
        if ctx.now > until || !all_nodes_up(ctx) {
            return false;
        }
        debug_assert!(
            DeadlinePrice::of(&self.job, ctx)
                .is_some_and(|p| p.meets(self.best_dilation(ctx, placement).unwrap_or(1.0))),
            "job {} was admitted until {until:?} but fails the laxity test at {:?}",
            self.job.id.0,
            ctx.now
        );
        true
    }

    /// Store the last instant the laxity test admits the job.
    pub(crate) fn set_admit_until(&mut self, until: SimTime) {
        self.admit_until = Some(until);
    }

    /// The admit-until memo, for tests that probe its boundary.
    #[cfg(test)]
    pub(crate) fn admit_until_memo(&self) -> Option<SimTime> {
        self.admit_until
    }
}

/// Deque-backed wait queue that scheduling passes reorder in place.
///
/// Phase 1 of a pass consumes the queue strictly from the head (start or
/// reject, then look at the new head), so the backing store is a
/// [`VecDeque`]: popping the head is O(1) instead of the O(n) shift a
/// `Vec` pays per started job. Backfill removals from the middle stay
/// O(n), but they are the rare case.
///
/// The queue deliberately stores jobs by value: a scheduling pass removes
/// started jobs and the engine owns them thereafter, so there is no shared
/// mutable job state anywhere in the simulator.
#[derive(Debug, Clone, Default)]
pub struct WaitQueue {
    entries: VecDeque<QueuedJob>,
}

impl WaitQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of waiting jobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no jobs wait.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Enqueue a job at time `now`. The entry starts unpriced, so a
    /// resubmitted job is priced afresh.
    pub fn push(&mut self, job: Job, now: SimTime) {
        self.entries.push_back(QueuedJob::new(job, now));
    }

    /// The entry at position `idx`, if any.
    pub fn get(&self, idx: usize) -> Option<&QueuedJob> {
        self.entries.get(idx)
    }

    /// Mutable access to the entry at position `idx`, if any.
    pub(crate) fn get_mut(&mut self, idx: usize) -> Option<&mut QueuedJob> {
        self.entries.get_mut(idx)
    }

    /// The queue head (next to schedule), if any.
    pub fn front(&self) -> Option<&QueuedJob> {
        self.entries.front()
    }

    /// Waiting jobs in current order.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedJob> {
        self.entries.iter()
    }

    /// Mutable access for order policies. Contiguous so policies can use
    /// slice sorts; amortized O(1) across passes.
    pub fn entries_mut(&mut self) -> &mut [QueuedJob] {
        self.entries.make_contiguous()
    }

    /// Remove and return the queue head.
    ///
    /// # Panics
    /// Panics on an empty queue — passes check emptiness first.
    pub fn pop_front(&mut self) -> QueuedJob {
        // lint: allow(panic) — documented contract: callers check is_empty first
        self.entries.pop_front().expect("pop_front on empty queue")
    }

    /// Remove and return the entry at `idx`.
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds.
    pub fn remove(&mut self, idx: usize) -> QueuedJob {
        // lint: allow(panic) — documented contract: callers pass indexes below len
        self.entries.remove(idx).expect("queue index out of bounds")
    }

    /// Total nodes requested by waiting jobs (queue-pressure metric).
    pub fn total_requested_nodes(&self) -> u64 {
        self.entries.iter().map(|e| e.job.nodes as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmhpc_workload::{JobBuilder, JobId};

    #[test]
    fn push_remove_position() {
        let mut q = WaitQueue::new();
        assert!(q.is_empty());
        q.push(JobBuilder::new(1).nodes(2).build(), SimTime::from_secs(5));
        q.push(JobBuilder::new(2).nodes(3).build(), SimTime::from_secs(6));
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_requested_nodes(), 5);
        let removed = q.remove(0);
        assert_eq!(removed.job.id, JobId(1));
        assert_eq!(removed.enqueued, SimTime::from_secs(5));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn front_pop_and_iter() {
        let mut q = WaitQueue::new();
        for id in 1..=3 {
            q.push(JobBuilder::new(id).nodes(1).build(), SimTime::ZERO);
        }
        assert_eq!(q.front().unwrap().job.id, JobId(1));
        assert_eq!(q.get(2).unwrap().job.id, JobId(3));
        assert!(q.get(3).is_none());
        assert_eq!(q.pop_front().job.id, JobId(1));
        assert_eq!(q.front().unwrap().job.id, JobId(2));
        let ids: Vec<u64> = q.iter().map(|e| e.job.id.0).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn entries_mut_is_contiguous_after_wraparound() {
        // Force deque wraparound: push, pop, push — then sort the slice.
        let mut q = WaitQueue::new();
        for id in 0..8 {
            q.push(JobBuilder::new(id).nodes(1).build(), SimTime::ZERO);
        }
        for _ in 0..5 {
            q.pop_front();
        }
        for id in 8..12 {
            q.push(JobBuilder::new(id).nodes(1).build(), SimTime::ZERO);
        }
        let slice = q.entries_mut();
        slice.sort_by_key(|e| std::cmp::Reverse(e.job.id.0));
        let ids: Vec<u64> = q.iter().map(|e| e.job.id.0).collect();
        assert_eq!(ids, vec![11, 10, 9, 8, 7, 6, 5]);
    }
}
