//! Queue-ordering policies.

use crate::queue::QueuedJob;
use crate::traits::{PassDirective, SchedContext};
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_workload::JobId;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::thread::LocalKey;

/// A queue entry's sort key, computed once per pass, and its position.
type Keyed<K> = Vec<(K, usize)>;
/// The tie-break every ordering ends with.
type Fifo = (SimTime, JobId);

thread_local! {
    /// Per-thread key buffers reused across passes, one per key type.
    /// Ordering runs on every scheduling pass of every engine, and engines
    /// are thread-confined, so reusing these buffers drops the pass's
    /// steady-state allocations to zero without changing the order.
    static SCORE_KEYS: RefCell<Keyed<(i64, Fifo)>> = const { RefCell::new(Vec::new()) };
    static WFP_KEYS: RefCell<Keyed<(Reverse<i64>, Fifo)>> = const { RefCell::new(Vec::new()) };
}

/// `x` as an integer whose order is [`f64::total_cmp`]'s, so float scores
/// can be sort keys: flipping the magnitude bits of negative values turns
/// the sign-magnitude layout into two's-complement order.
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Sort `entries` by `key`, evaluated once per entry instead of once per
/// comparison, in the reused buffer `scratch`. Positions break key ties,
/// so the result equals a stable sort by `key`; every built-in key ends
/// in the unique `(arrival, id)` pair anyway.
fn sort_by_pass_key<K: Ord>(
    scratch: &'static LocalKey<RefCell<Keyed<K>>>,
    entries: &mut [QueuedJob],
    key: impl Fn(&QueuedJob) -> K,
) {
    scratch.with(|keys| {
        let keys = &mut *keys.borrow_mut();
        keys.clear();
        keys.extend(entries.iter().map(key).zip(0..));
        keys.sort_unstable();
        // Apply the permutation in place with swaps: position `i` takes the
        // entry that started at `keys[i].1`, following the chain of earlier
        // swaps when that entry has already moved.
        for i in 0..keys.len() {
            let mut src = keys[i].1;
            while src < i {
                src = keys[src].1;
            }
            keys[i].1 = src;
            entries.swap(i, src);
        }
    });
}

/// The `(arrival, id)` tie-break of `e`.
fn fifo(e: &QueuedJob) -> Fifo {
    (e.job.arrival, e.job.id)
}

/// How the wait queue is ordered before each scheduling pass.
///
/// All orderings are total and deterministic: ties fall back to
/// `(arrival, id)` so two runs of the same seed schedule identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OrderPolicy {
    /// First-come first-served: ascending arrival.
    Fcfs,
    /// Shortest (requested) job first: ascending walltime. Starvation of
    /// long jobs is bounded by backfill reservations, not by the order.
    Sjf,
    /// Largest job first: descending node count — the capability-system
    /// ordering that keeps big science in front.
    LargestFirst,
    /// WFP-style utility (ALCF): `(wait / walltime)^exponent × nodes`,
    /// descending. Grows super-linearly for old jobs, so large-and-old wins.
    Wfp {
        /// Exponent on the normalized wait (3 at ALCF).
        exponent: f64,
    },
    /// Earliest deadline first: ascending absolute start deadline (per-job
    /// [`dmhpc_workload::Slo`] stamp, else the run-wide SLO target).
    /// Deadline-free jobs sort last; with no deadlines anywhere this
    /// degrades to FCFS exactly. The key does not depend on the pass
    /// instant, so each queue entry works it out once and keeps it.
    Edf,
    /// Least laxity first: ascending [`SchedContext::laxity_s`] — the job
    /// closest to missing its deadline (walltime included) goes first.
    /// Deadline-free jobs have infinite laxity and sort last.
    LeastLaxity,
    /// Batch formation with a latency budget: order FCFS, but hold every
    /// pass's start set until the oldest queued job has waited `hold_s`
    /// seconds — then release the whole accumulated batch. Larger batches
    /// give placement more choice per pass at bounded added wait (the
    /// InferSim-style batching policy).
    BatchBudget {
        /// Latency budget: the longest the oldest queued job may wait
        /// before the batch is forced out (seconds, ≥ 0).
        hold_s: f64,
    },
}

impl OrderPolicy {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            OrderPolicy::Fcfs => "fcfs",
            OrderPolicy::Sjf => "sjf",
            OrderPolicy::LargestFirst => "largest-first",
            OrderPolicy::Wfp { .. } => "wfp",
            OrderPolicy::Edf => "edf",
            OrderPolicy::LeastLaxity => "llf",
            OrderPolicy::BatchBudget { .. } => "batch-budget",
        }
    }

    /// Sort the queue in scheduling order (front = next to run).
    pub fn order(&self, entries: &mut [QueuedJob], ctx: &SchedContext<'_>) {
        match *self {
            OrderPolicy::Fcfs | OrderPolicy::BatchBudget { .. } => {
                entries.sort_by_key(fifo);
            }
            OrderPolicy::Sjf => {
                entries.sort_by_key(|e| (e.job.walltime, fifo(e)));
            }
            OrderPolicy::LargestFirst => {
                entries.sort_by_key(|e| (Reverse(e.job.nodes), fifo(e)));
            }
            OrderPolicy::Edf => {
                // A queued job's deadline never changes, so each entry
                // memoizes its key once; deadline-free jobs get the MAX
                // sentinel and queue behind every constrained job, FCFS
                // among themselves.
                for e in entries.iter_mut() {
                    e.memo_deadline_key(ctx);
                }
                entries.sort_by_key(|e| (e.deadline_key(), fifo(e)));
            }
            OrderPolicy::LeastLaxity => {
                sort_by_pass_key(&SCORE_KEYS, entries, |e| {
                    (
                        total_key(ctx.laxity_s(&e.job).unwrap_or(f64::INFINITY)),
                        fifo(e),
                    )
                });
            }
            OrderPolicy::Wfp { exponent } => {
                // The score is recomputed against `now` each pass.
                let now = ctx.now;
                sort_by_pass_key(&WFP_KEYS, entries, |e| {
                    let wait = now.saturating_since(e.job.arrival).as_secs_f64();
                    let wall = e.job.walltime.as_secs_f64().max(1.0);
                    let score = (wait / wall).powf(exponent) * e.job.nodes as f64;
                    debug_assert!(!score.is_nan(), "WFP score of job {} is NaN", e.job.id.0);
                    (Reverse(total_key(score)), fifo(e))
                });
            }
        }
    }

    /// Proceed or hold (see [`PassDirective`]): every built-in except
    /// [`OrderPolicy::BatchBudget`] always proceeds.
    pub fn directive(&self, entries: &[QueuedJob], ctx: &SchedContext<'_>) -> PassDirective {
        let OrderPolicy::BatchBudget { hold_s } = *self else {
            return PassDirective::Proceed;
        };
        // Release when the oldest enqueued job exhausts the budget; until
        // then, hold and let the batch accumulate.
        let Some(oldest) = entries.iter().map(|e| e.enqueued).min() else {
            return PassDirective::Proceed;
        };
        let until = oldest.saturating_add(SimDuration::from_secs_f64(hold_s));
        if ctx.now >= until {
            PassDirective::Proceed
        } else {
            PassDirective::Hold { until }
        }
    }
}

impl crate::traits::Ordering for OrderPolicy {
    fn name(&self) -> &str {
        OrderPolicy::name(self)
    }

    fn order(&self, entries: &mut [QueuedJob], ctx: &SchedContext<'_>) {
        OrderPolicy::order(self, entries, ctx)
    }

    fn directive(&self, entries: &[QueuedJob], ctx: &SchedContext<'_>) -> PassDirective {
        OrderPolicy::directive(self, entries, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::release::ReleaseView;
    use dmhpc_des::time::SimDuration;
    use dmhpc_platform::{Cluster, ClusterSpec, NodeSpec, PoolTopology, SlowdownModel};
    use dmhpc_workload::{JobBuilder, JobId, Slo};

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::new(
            1,
            2,
            NodeSpec::new(8, 64 * 1024),
            PoolTopology::None,
        ))
    }

    /// Run `policy` at `now` with an otherwise empty context.
    fn order_at(policy: OrderPolicy, entries: &mut [QueuedJob], now_s: u64) {
        order_with(policy, entries, now_s, None);
    }

    fn order_with(
        policy: OrderPolicy,
        entries: &mut [QueuedJob],
        now_s: u64,
        slo_wait_s: Option<f64>,
    ) {
        let c = cluster();
        let model = SlowdownModel::None;
        let ctx = SchedContext::new(
            SimTime::from_secs(now_s),
            &c,
            &model,
            ReleaseView::empty(),
            slo_wait_s,
        );
        policy.order(entries, &ctx);
    }

    fn queued(id: u64, arrival_s: u64, nodes: u32, wall_s: u64) -> QueuedJob {
        QueuedJob::new(
            JobBuilder::new(id)
                .arrival_secs(arrival_s)
                .nodes(nodes)
                .runtime(SimDuration::from_secs(wall_s.min(60)))
                .walltime(SimDuration::from_secs(wall_s))
                .build(),
            SimTime::from_secs(arrival_s),
        )
    }

    fn queued_slo(id: u64, arrival_s: u64, wall_s: u64, slo: Slo) -> QueuedJob {
        let mut e = queued(id, arrival_s, 1, wall_s);
        e.job.slo = Some(slo);
        e
    }

    fn ids(entries: &[QueuedJob]) -> Vec<u64> {
        entries.iter().map(|e| e.job.id.0).collect()
    }

    #[test]
    fn fcfs_by_arrival() {
        let mut q = vec![
            queued(1, 30, 1, 100),
            queued(2, 10, 1, 100),
            queued(3, 20, 1, 100),
        ];
        order_at(OrderPolicy::Fcfs, &mut q, 100);
        assert_eq!(ids(&q), vec![2, 3, 1]);
    }

    #[test]
    fn sjf_by_walltime() {
        let mut q = vec![
            queued(1, 0, 1, 500),
            queued(2, 1, 1, 100),
            queued(3, 2, 1, 300),
        ];
        order_at(OrderPolicy::Sjf, &mut q, 100);
        assert_eq!(ids(&q), vec![2, 3, 1]);
    }

    #[test]
    fn largest_first_by_nodes() {
        let mut q = vec![
            queued(1, 0, 4, 100),
            queued(2, 1, 64, 100),
            queued(3, 2, 16, 100),
        ];
        order_at(OrderPolicy::LargestFirst, &mut q, 100);
        assert_eq!(ids(&q), vec![2, 3, 1]);
    }

    #[test]
    fn wfp_favors_old_large_jobs() {
        // Same walltime; job 1 is old and large, job 2 fresh and large,
        // job 3 old but small.
        let mut q = vec![
            queued(1, 0, 32, 3600),
            queued(2, 3500, 32, 3600),
            queued(3, 0, 1, 3600),
        ];
        order_at(OrderPolicy::Wfp { exponent: 3.0 }, &mut q, 3600);
        assert_eq!(ids(&q)[0], 1, "old+large first");
        // Old small beats fresh large here: (1·1)·1 = 1 vs (0.027)^3·32 ≈ 6e-4.
        assert_eq!(ids(&q), vec![1, 3, 2]);
    }

    #[test]
    fn wfp_ties_fall_back_to_fcfs() {
        let mut q = vec![queued(2, 5, 1, 100), queued(1, 5, 1, 100)];
        order_at(OrderPolicy::Wfp { exponent: 3.0 }, &mut q, 5);
        // Zero wait for both → scores equal → arrival/id order.
        assert_eq!(ids(&q), vec![1, 2]);
    }

    #[test]
    fn edf_by_stamped_deadline_with_fcfs_degradation() {
        // Tight relative budget beats loose absolute one; unstamped last.
        let mut q = vec![
            queued(1, 0, 100, 100),
            queued_slo(2, 10, 1000, Slo::Deadline { deadline_s: 500.0 }),
            queued_slo(3, 20, 1000, Slo::BudgetFactor { factor: 0.1 }),
        ];
        order_at(OrderPolicy::Edf, &mut q, 50);
        // Deadlines: job 2 at 510, job 3 at 120, job 1 none → MAX.
        assert_eq!(ids(&q), vec![3, 2, 1]);

        // No deadlines anywhere: EDF must equal FCFS.
        let mut a = vec![
            queued(1, 30, 1, 100),
            queued(2, 10, 1, 100),
            queued(3, 20, 1, 100),
        ];
        order_at(OrderPolicy::Edf, &mut a, 100);
        assert_eq!(ids(&a), vec![2, 3, 1]);

        // Run-wide SLO target applies to unstamped jobs: a constant offset
        // preserves arrival order among them.
        let mut b = vec![queued(1, 30, 1, 100), queued(2, 10, 1, 100)];
        order_with(OrderPolicy::Edf, &mut b, 100, Some(600.0));
        assert_eq!(ids(&b), vec![2, 1]);
    }

    #[test]
    fn least_laxity_accounts_for_walltime() {
        // Same deadline, different walltime: the longer job has less slack
        // and must go first — where EDF would tie-break by arrival.
        let mut q = vec![
            queued_slo(1, 0, 100, Slo::Deadline { deadline_s: 900.0 }),
            queued_slo(2, 10, 800, Slo::Deadline { deadline_s: 890.0 }),
            queued(3, 0, 1, 100),
        ];
        order_at(OrderPolicy::LeastLaxity, &mut q, 50);
        // Laxity: job 1 = 900-50-100 = 750; job 2 = 900-50-800 = 50;
        // job 3 = +inf.
        assert_eq!(ids(&q), vec![2, 1, 3]);
    }

    #[test]
    fn batch_budget_orders_fcfs_and_holds_until_budget() {
        let policy = OrderPolicy::BatchBudget { hold_s: 120.0 };
        let mut q = vec![queued(2, 40, 1, 100), queued(1, 10, 1, 100)];
        let c = cluster();
        let model = SlowdownModel::None;

        // Ordering is FCFS.
        order_at(policy, &mut q, 50);
        assert_eq!(ids(&q), vec![1, 2]);

        // Budget not exhausted at t=50 (oldest enqueued t=10): hold until
        // t=130.
        let ctx = SchedContext::new(
            SimTime::from_secs(50),
            &c,
            &model,
            ReleaseView::empty(),
            None,
        );
        assert_eq!(
            policy.directive(&q, &ctx),
            PassDirective::Hold {
                until: SimTime::from_secs(130)
            }
        );

        // At the release instant (and beyond) the batch goes out.
        let ctx = SchedContext::new(
            SimTime::from_secs(130),
            &c,
            &model,
            ReleaseView::empty(),
            None,
        );
        assert_eq!(policy.directive(&q, &ctx), PassDirective::Proceed);

        // An empty queue never holds.
        assert_eq!(policy.directive(&[], &ctx), PassDirective::Proceed);

        // A zero budget is plain FCFS.
        let zero = OrderPolicy::BatchBudget { hold_s: 0.0 };
        let ctx = SchedContext::new(
            SimTime::from_secs(10),
            &c,
            &model,
            ReleaseView::empty(),
            None,
        );
        assert_eq!(zero.directive(&q, &ctx), PassDirective::Proceed);
    }

    #[test]
    fn ordering_is_stable_under_equal_keys() {
        let mut q = vec![
            queued(5, 7, 2, 100),
            queued(6, 7, 2, 100),
            queued(7, 7, 2, 100),
        ];
        for policy in [
            OrderPolicy::Fcfs,
            OrderPolicy::Sjf,
            OrderPolicy::LargestFirst,
            OrderPolicy::Wfp { exponent: 3.0 },
            OrderPolicy::Edf,
            OrderPolicy::LeastLaxity,
            OrderPolicy::BatchBudget { hold_s: 60.0 },
        ] {
            order_at(policy, &mut q, 50);
            assert_eq!(ids(&q), vec![5, 6, 7], "{}", policy.name());
        }
    }

    #[test]
    fn names() {
        assert_eq!(OrderPolicy::Fcfs.name(), "fcfs");
        assert_eq!(OrderPolicy::Wfp { exponent: 3.0 }.name(), "wfp");
        assert_eq!(OrderPolicy::Edf.name(), "edf");
        assert_eq!(OrderPolicy::LeastLaxity.name(), "llf");
        assert_eq!(
            OrderPolicy::BatchBudget { hold_s: 60.0 }.name(),
            "batch-budget"
        );
    }

    #[test]
    fn empty_and_single() {
        let mut q: Vec<QueuedJob> = vec![];
        order_at(OrderPolicy::Fcfs, &mut q, 0);
        let mut q = vec![queued(1, 0, 1, 10)];
        order_at(OrderPolicy::Wfp { exponent: 2.0 }, &mut q, 0);
        assert_eq!(q[0].job.id, JobId(1));
    }

    thread_local! {
        /// The key buffer of the reference EDF sort below.
        static FRESH_DEADLINE_KEYS: RefCell<Keyed<(SimTime, Fifo)>> =
            const { RefCell::new(Vec::new()) };
    }

    /// EDF as it read before entries memoized their keys: every key
    /// worked out afresh on each pass.
    fn fresh_edf(entries: &mut [QueuedJob], ctx: &SchedContext<'_>) {
        sort_by_pass_key(&FRESH_DEADLINE_KEYS, entries, |e| {
            (ctx.deadline(&e.job).unwrap_or(SimTime::MAX), fifo(e))
        });
    }

    /// Memoized EDF keys give the fresh-key order on a queue that lives
    /// across passes: arrivals (stamped, unstamped under a run-wide SLO
    /// target, or unconstrained) join between passes and the head leaves
    /// as jobs start, so every pass mixes memo hits with fresh entries.
    #[test]
    fn edf_memo_matches_fresh_keys_across_passes() {
        let mut rng = dmhpc_des::rng::Pcg64::new(1818);
        let c = cluster();
        let model = SlowdownModel::None;
        let (mut hits, mut fresh) = (0, 0);
        for case in 0..60 {
            let slo_wait_s = (case % 2 == 0).then_some(600.0 + rng.bounded_u64(3_000) as f64);
            let mut q: Vec<QueuedJob> = Vec::new();
            let mut next_id = 0;
            for pass in 0..40u64 {
                let now_s = 100 * pass;
                hits += q.len();
                for _ in 0..rng.bounded_u64(5) {
                    // Arrivals share instants and walltimes, so keys tie
                    // often and the (arrival, id) tie-break decides.
                    let wall_s = 1 + rng.bounded_u64(4) * 500;
                    let arrival_s = now_s.saturating_sub(rng.bounded_u64(2) * 50);
                    let mut e = queued(next_id, arrival_s, 1, wall_s);
                    e.job.slo = match rng.bounded_u64(3) {
                        0 => None,
                        1 => Some(Slo::Deadline {
                            deadline_s: 100.0 * (1 + rng.bounded_u64(30)) as f64,
                        }),
                        _ => Some(Slo::BudgetFactor {
                            factor: 0.5 * (1 + rng.bounded_u64(6)) as f64,
                        }),
                    };
                    q.push(e);
                    next_id += 1;
                    fresh += 1;
                }
                let ctx = SchedContext::new(
                    SimTime::from_secs(now_s),
                    &c,
                    &model,
                    ReleaseView::empty(),
                    slo_wait_s,
                );
                let mut want = q.clone();
                want.reverse();
                fresh_edf(&mut want, &ctx);
                OrderPolicy::Edf.order(&mut q, &ctx);
                assert_eq!(ids(&q), ids(&want), "case {case} pass {pass}");
                let started = rng.bounded_u64(3).min(q.len() as u64) as usize;
                q.drain(..started);
            }
        }
        assert!(
            hits >= 40_000 && fresh >= 4_000,
            "coverage: {hits} memo hits, {fresh} fresh entries"
        );
    }

    /// The once-per-pass keyed sorts give exactly the order the
    /// per-comparison sorts they replaced give, on seeded random queues
    /// dense with key ties (shared arrivals, deadlines and walltimes).
    #[test]
    fn pass_keys_match_per_comparison_sorts() {
        let mut rng = dmhpc_des::rng::Pcg64::new(77);
        for case in 0..300 {
            let now_s = 1_000 + rng.bounded_u64(5_000);
            let mut q: Vec<QueuedJob> = (0..rng.bounded_u64(40))
                .map(|id| {
                    let arrival_s = rng.bounded_u64(8) * 100;
                    let wall_s = 1 + rng.bounded_u64(4) * 500;
                    let mut e = queued(id, arrival_s, 1 + rng.bounded_u64(8) as u32, wall_s);
                    e.job.slo = match rng.bounded_u64(3) {
                        0 => None,
                        1 => Some(Slo::Deadline {
                            deadline_s: 100.0 * (1 + rng.bounded_u64(30)) as f64,
                        }),
                        _ => Some(Slo::BudgetFactor {
                            factor: 0.5 * (1 + rng.bounded_u64(6)) as f64,
                        }),
                    };
                    e
                })
                .collect();
            let slo_wait_s = (rng.bounded_u64(2) == 0).then_some(900.0);
            let c = cluster();
            let model = SlowdownModel::None;
            let ctx = SchedContext::new(
                SimTime::from_secs(now_s),
                &c,
                &model,
                ReleaseView::empty(),
                slo_wait_s,
            );
            let mut edf = q.clone();
            edf.sort_by_key(|e| {
                (
                    ctx.deadline(&e.job).unwrap_or(SimTime::MAX),
                    e.job.arrival,
                    e.job.id,
                )
            });
            let mut llf = q.clone();
            llf.sort_by(|a, b| {
                let la = ctx.laxity_s(&a.job).unwrap_or(f64::INFINITY);
                let lb = ctx.laxity_s(&b.job).unwrap_or(f64::INFINITY);
                la.total_cmp(&lb)
                    .then_with(|| (a.job.arrival, a.job.id).cmp(&(b.job.arrival, b.job.id)))
            });
            let mut wfp = q.clone();
            let score = |e: &QueuedJob| {
                let wait = ctx.now.saturating_since(e.job.arrival).as_secs_f64();
                let wall = e.job.walltime.as_secs_f64().max(1.0);
                (wait / wall).powf(3.0) * e.job.nodes as f64
            };
            wfp.sort_by(|a, b| {
                score(b)
                    .partial_cmp(&score(a))
                    .unwrap()
                    .then_with(|| (a.job.arrival, a.job.id).cmp(&(b.job.arrival, b.job.id)))
            });
            for (policy, want) in [
                (OrderPolicy::Edf, edf),
                (OrderPolicy::LeastLaxity, llf),
                (OrderPolicy::Wfp { exponent: 3.0 }, wfp),
            ] {
                policy.order(&mut q, &ctx);
                assert_eq!(ids(&q), ids(&want), "case {case}: {}", policy.name());
                // Scramble again so the next policy starts from disorder.
                q.reverse();
            }
        }
    }
}
