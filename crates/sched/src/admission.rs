//! Admission control and deadline-priced preemption.
//!
//! The deadline-aware ordering family (EDF, least-laxity) decides *who goes
//! first*; this module closes the loop on the other two decisions a
//! deadline can drive:
//!
//! * [`AdmissionPolicy`] — whether a job should stay in the queue at all.
//!   `AdmitAll` is the classic batch-scheduler behaviour (and the default:
//!   it adds nothing to labels, cell hashes, or serialized specs).
//!   `RejectInfeasible` turns the scheduler into an admission controller:
//!   a job whose deadline can no longer be met by any placement on the
//!   current up-capacity machine is rejected with a typed
//!   [`RejectReason`] instead of aging in the queue. `DeferUntilFeasible`
//!   is the lenient middle ground: jobs that are only *transiently*
//!   unservable (capacity busy, pools degraded pending repair) are
//!   deferred — kept queued, surfaced once as deferred, re-checked at the
//!   instant their deadline would lapse — and rejected only when even a
//!   healthy idle machine could not meet the deadline any more.
//! * [`PreemptPolicy`] — whether a deadline-critical arrival may
//!   checkpoint running work to start in time. `Never` is the default.
//!   `LaxityCheckpoint` preempts the laxity-richest running jobs (the ones
//!   that can best afford a restart) and resubmits them with a
//!   checkpoint-restart overhead, reusing the fault-model interrupt paths.
//!
//! Both policies are engine-facing: the scheduler evaluates admission
//! verdicts for jobs a pass left queued, and the simulation engine acts on
//! them (emitting reject/defer events, scheduling re-check wake-ups,
//! driving preemption between passes).
//!
//! Both price a deadline the same way, through [`DeadlinePrice`]: the
//! laxity test against the smallest dilation the placement can achieve
//! ([`Placement::best_dilation`]). That dilation depends only on the job,
//! the machine spec and the model, so the scheduler works it out once per
//! queued job and keeps it in the [`QueuedJob`] entry; later passes, and
//! the engine's preemption scan, reuse it. The nominal shape, which also
//! reads the pass instant, is asked for only when its answer can change
//! the verdict — never for a laxity-feasible job on a machine with every
//! node up under `RejectInfeasible`.

use crate::queue::QueuedJob;
use crate::traits::{Placement, SchedContext};
use dmhpc_des::time::SimTime;
use dmhpc_workload::Job;

/// Why a job was refused admission. `Display` renders the exact strings
/// carried by reject events and records — the first two predate this enum
/// and must stay byte-identical for replay stability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The job cannot run on this machine under the active placement
    /// policy, even when the machine is idle.
    CapacityExceeded,
    /// The job's nominal shape never fits the availability profile on a
    /// healthy machine (pool topology too small for the shape).
    ProfileInfeasible,
    /// No up-capacity placement can start the job early enough to meet
    /// its deadline.
    DeadlineInfeasible,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RejectReason::CapacityExceeded => "demand exceeds machine capacity under this policy",
            RejectReason::ProfileInfeasible => "nominal shape never fits the profile",
            RejectReason::DeadlineInfeasible => "no up-capacity placement can meet the deadline",
        })
    }
}

/// The admission controller's verdict on one queued job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionVerdict {
    /// Keep the job queued; nothing to report.
    Admit,
    /// Keep the job queued, surface it as deferred, and re-assess no later
    /// than `recheck_at` (the instant its deadline would lapse).
    Defer {
        /// When the engine must re-run admission for this job.
        recheck_at: SimTime,
    },
    /// Remove the job from the queue and record it as rejected.
    Reject(RejectReason),
}

/// Per-run admission control. See the module docs for the three modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Every job waits as long as it takes (classic batch behaviour).
    #[default]
    AdmitAll,
    /// Reject jobs whose deadline no placement on the current up-capacity
    /// machine can meet.
    RejectInfeasible,
    /// Defer transiently-unservable jobs; reject only once even a healthy
    /// idle machine could not meet the deadline.
    DeferUntilFeasible,
}

impl AdmissionPolicy {
    /// Stable name for labels and serialized specs.
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionPolicy::AdmitAll => "admit-all",
            AdmissionPolicy::RejectInfeasible => "reject-infeasible",
            AdmissionPolicy::DeferUntilFeasible => "defer",
        }
    }

    /// Inverse of [`AdmissionPolicy::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "admit-all" => Some(AdmissionPolicy::AdmitAll),
            "reject-infeasible" => Some(AdmissionPolicy::RejectInfeasible),
            "defer" => Some(AdmissionPolicy::DeferUntilFeasible),
            _ => None,
        }
    }

    /// Assess one job a pass left queued. Jobs without a deadline are
    /// always admitted: admission control is a deadline mechanism, and a
    /// run without SLO stamps behaves identically under every policy.
    ///
    /// Feasibility is the laxity test ([`DeadlinePrice::meets`]): a shape
    /// with predicted dilation `d` started *now* finishes by the deadline
    /// iff `walltime × (d − 1) ≤ laxity`, using the best (smallest)
    /// dilation the placement policy can achieve. `RejectInfeasible`
    /// additionally demands the job's nominal node count fit the machine's
    /// current up-capacity, so capacity lost to faults fails jobs fast;
    /// `DeferUntilFeasible` assesses the healthy machine and defers
    /// instead, so transient degradation never terminally strands a job.
    ///
    /// This form prices the job from scratch; scheduling passes go
    /// through the queue entry's memo instead, with identical verdicts.
    pub fn assess(
        &self,
        job: &Job,
        ctx: &SchedContext<'_>,
        placement: &dyn Placement,
    ) -> AdmissionVerdict {
        if matches!(self, AdmissionPolicy::AdmitAll) {
            return AdmissionVerdict::Admit;
        }
        let Some(price) = DeadlinePrice::of(job, ctx) else {
            return AdmissionVerdict::Admit;
        };
        let best = placement.best_dilation(job, ctx).unwrap_or(1.0);
        self.verdict(job, price, best, ctx, placement)
    }

    /// [`AdmissionPolicy::assess`] for a queue entry, pricing its best
    /// dilation once and reusing it on every later pass. Under
    /// `RejectInfeasible`, an entry admitted through the laxity test with
    /// every node up also keeps the last instant the test still holds,
    /// and is admitted unpriced until then while every node stays up.
    pub(crate) fn assess_queued(
        &self,
        entry: &mut QueuedJob,
        ctx: &SchedContext<'_>,
        placement: &dyn Placement,
    ) -> AdmissionVerdict {
        match self {
            AdmissionPolicy::AdmitAll => return AdmissionVerdict::Admit,
            AdmissionPolicy::RejectInfeasible if entry.admitted_until(ctx, placement) => {
                return AdmissionVerdict::Admit;
            }
            _ => {}
        }
        let Some(price) = DeadlinePrice::of(&entry.job, ctx) else {
            return AdmissionVerdict::Admit;
        };
        let best = entry.price_best_dilation(ctx, placement).unwrap_or(1.0);
        let verdict = self.verdict(&entry.job, price, best, ctx, placement);
        if *self == AdmissionPolicy::RejectInfeasible && price.meets(best) && all_nodes_up(ctx) {
            entry.set_admit_until(price.meets_until(best, ctx.now));
        }
        verdict
    }

    /// The verdict for a priced, deadline-stamped job whose best dilation
    /// is `best` (1 when it has no shape). Jobs impossible even on an idle
    /// machine (no nominal shape) are the scheduling pass's problem —
    /// rejected at the queue head as `CapacityExceeded` — so admission
    /// admits them and only prices deadlines.
    fn verdict(
        &self,
        job: &Job,
        price: DeadlinePrice,
        best: f64,
        ctx: &SchedContext<'_>,
        placement: &dyn Placement,
    ) -> AdmissionVerdict {
        let meets = price.meets(best);
        match self {
            AdmissionPolicy::AdmitAll => AdmissionVerdict::Admit,
            AdmissionPolicy::RejectInfeasible => {
                // A `Some` nominal shape never has more than `total_nodes`
                // nodes, so with every node up the capacity test passes
                // whatever the shape is, and so does a missing shape.
                if meets && all_nodes_up(ctx) {
                    return AdmissionVerdict::Admit;
                }
                let Some((demand, _)) = placement.nominal_shape(job, ctx) else {
                    return AdmissionVerdict::Admit;
                };
                if meets && ctx.cluster.available_nodes() >= demand.nodes as usize {
                    AdmissionVerdict::Admit
                } else {
                    AdmissionVerdict::Reject(RejectReason::DeadlineInfeasible)
                }
            }
            AdmissionPolicy::DeferUntilFeasible => {
                if placement.nominal_shape(job, ctx).is_none() {
                    return AdmissionVerdict::Admit;
                }
                if !meets {
                    return AdmissionVerdict::Reject(RejectReason::DeadlineInfeasible);
                }
                // Still feasible on a healthy machine but not started:
                // re-check at the instant the best shape would start too
                // late. At that boundary the laxity test still passes with
                // equality, so fall back to the deadline itself — there
                // laxity is strictly negative and the reject arm fires.
                let lapse =
                    SimTime::from_secs_f64(price.deadline.as_secs_f64() - price.walltime_s * best);
                let recheck_at = if lapse > ctx.now {
                    lapse
                } else {
                    price.deadline
                };
                AdmissionVerdict::Defer { recheck_at }
            }
        }
    }
}

/// Whether every node of the machine is up: the state in which
/// `RejectInfeasible` admits a laxity-feasible job without its shape.
pub(crate) fn all_nodes_up(ctx: &SchedContext<'_>) -> bool {
    ctx.cluster.available_nodes() == ctx.cluster.total_nodes() as usize
}

/// A deadline-stamped job's terms at one pass instant: what admission and
/// preemption price feasibility with.
///
/// For a fixed deadline and walltime, [`DeadlinePrice::meets`] can only
/// turn from true to false as the pass instant advances. Every step of
/// the laxity `(deadline − now) − walltime` is a correctly rounded
/// floating-point operation (µs to `f64`, division by 10⁶, subtraction),
/// and correct rounding is monotone, so the laxity never increases with
/// `now`; both tests in `meets` compare it against a constant. Hence a job
/// that meets the test at some instant meets it at every earlier one,
/// which is what lets a queue entry keep the last such instant instead
/// of re-pricing each pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlinePrice {
    /// The job's absolute start deadline ([`SchedContext::deadline`]).
    pub deadline: SimTime,
    /// Seconds of slack left at the pass instant
    /// ([`SchedContext::laxity_s`]).
    pub laxity_s: f64,
    /// The job's requested walltime, in seconds.
    pub walltime_s: f64,
}

impl DeadlinePrice {
    /// The terms for `job` at `ctx.now`; `None` when no deadline
    /// constrains the job.
    pub fn of(job: &Job, ctx: &SchedContext<'_>) -> Option<Self> {
        let deadline = ctx.deadline(job)?;
        Some(DeadlinePrice::at(
            deadline,
            job.walltime.as_secs_f64(),
            ctx.now,
        ))
    }

    /// The terms for a job due to start by `deadline` with a walltime of
    /// `walltime_s` seconds, priced at `now`: the one laxity formula.
    pub(crate) fn at(deadline: SimTime, walltime_s: f64, now: SimTime) -> Self {
        DeadlinePrice {
            deadline,
            laxity_s: deadline.as_secs_f64() - now.as_secs_f64() - walltime_s,
            walltime_s,
        }
    }

    /// The laxity test: started now in a shape of dilation `best`, the job
    /// runs out its walltime by the deadline — `walltime × (best − 1) ≤
    /// laxity`, on a deadline not already lost.
    pub fn meets(&self, best: f64) -> bool {
        self.laxity_s >= 0.0 && self.walltime_s * (best - 1.0) <= self.laxity_s
    }

    /// The last µs instant in `[now, deadline]` at which the same terms,
    /// re-priced, still meet the laxity test with dilation `best`, for
    /// terms priced at `now` that meet it. The test holds at every instant
    /// up to the answer (see the type docs), so the search is exact.
    pub(crate) fn meets_until(&self, best: f64, now: SimTime) -> SimTime {
        debug_assert!(self.meets(best), "meets_until on terms that fail");
        let meets_at = |t: u64| {
            DeadlinePrice::at(self.deadline, self.walltime_s, SimTime::from_micros(t)).meets(best)
        };
        // Invariant: the test holds at `lo`; it fails past `hi`.
        let (mut lo, mut hi) = (now.as_micros(), self.deadline.as_micros());
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if meets_at(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        SimTime::from_micros(lo)
    }
}

/// Whether a deadline-critical arrival may checkpoint running work. The
/// engine triggers preemption when a stamped job's deadline would be lost
/// by waiting for the next natural release but could still be met if it
/// started now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreemptPolicy {
    /// Running jobs are never disturbed (classic batch behaviour).
    #[default]
    Never,
    /// Checkpoint the laxity-richest running jobs — those that can best
    /// afford a restart — and resubmit them with `overhead_s` seconds of
    /// checkpoint-restart rework added to their remaining runtime.
    LaxityCheckpoint {
        /// Checkpoint-restart overhead charged to each preempted job.
        overhead_s: u64,
    },
}

impl PreemptPolicy {
    /// Stable name for labels and serialized specs.
    pub fn name(&self) -> &'static str {
        match self {
            PreemptPolicy::Never => "never",
            PreemptPolicy::LaxityCheckpoint { .. } => "laxity-checkpoint",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::release::ReleaseView;
    use crate::MemoryPolicy;
    use dmhpc_platform::{Cluster, ClusterSpec, NodeSpec, PoolTopology, SlowdownModel};
    use dmhpc_workload::{JobBuilder, Slo};

    const GIB: u64 = 1024;

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::new(
            1,
            4,
            NodeSpec::new(64, 256 * GIB),
            PoolTopology::None,
        ))
    }

    fn ctx<'a>(now_s: u64, cluster: &'a Cluster, model: &'a SlowdownModel) -> SchedContext<'a> {
        SchedContext::new(
            SimTime::from_secs(now_s),
            cluster,
            model,
            ReleaseView::empty(),
            None,
        )
    }

    fn stamped(deadline_s: f64) -> dmhpc_workload::Job {
        JobBuilder::new(1)
            .arrival_secs(0)
            .nodes(1)
            .runtime_secs(50, 100)
            .mem_per_node(32 * GIB)
            .slo(Slo::Deadline { deadline_s })
            .build()
    }

    #[test]
    fn admit_all_is_inert() {
        let c = cluster();
        let model = SlowdownModel::None;
        let ctx = ctx(0, &c, &model);
        let verdict =
            AdmissionPolicy::AdmitAll.assess(&stamped(1.0), &ctx, &MemoryPolicy::LocalOnly);
        assert_eq!(verdict, AdmissionVerdict::Admit);
    }

    #[test]
    fn unstamped_jobs_are_always_admitted() {
        let c = cluster();
        let model = SlowdownModel::None;
        let ctx = ctx(0, &c, &model);
        let plain = JobBuilder::new(2).nodes(1).runtime_secs(50, 100).build();
        for policy in [
            AdmissionPolicy::RejectInfeasible,
            AdmissionPolicy::DeferUntilFeasible,
        ] {
            assert_eq!(
                policy.assess(&plain, &ctx, &MemoryPolicy::LocalOnly),
                AdmissionVerdict::Admit
            );
        }
    }

    #[test]
    fn reject_infeasible_prices_laxity() {
        let c = cluster();
        let model = SlowdownModel::None;
        // Deadline 500 s, walltime 100 s: feasible until t = 400.
        let job = stamped(500.0);
        let at_350 = ctx(350, &c, &model);
        assert_eq!(
            AdmissionPolicy::RejectInfeasible.assess(&job, &at_350, &MemoryPolicy::LocalOnly),
            AdmissionVerdict::Admit
        );
        let at_450 = ctx(450, &c, &model);
        assert_eq!(
            AdmissionPolicy::RejectInfeasible.assess(&job, &at_450, &MemoryPolicy::LocalOnly),
            AdmissionVerdict::Reject(RejectReason::DeadlineInfeasible)
        );
    }

    #[test]
    fn defer_until_feasible_defers_then_rejects() {
        let c = cluster();
        let model = SlowdownModel::None;
        let job = stamped(500.0);
        // Feasible but (by construction of the test) not started: defer,
        // re-check at the lapse instant deadline − walltime = t = 400.
        let at_100 = ctx(100, &c, &model);
        assert_eq!(
            AdmissionPolicy::DeferUntilFeasible.assess(&job, &at_100, &MemoryPolicy::LocalOnly),
            AdmissionVerdict::Defer {
                recheck_at: SimTime::from_secs(400)
            }
        );
        // At the boundary the laxity test passes with equality: defer one
        // more time, to the deadline itself.
        let at_400 = ctx(400, &c, &model);
        assert_eq!(
            AdmissionPolicy::DeferUntilFeasible.assess(&job, &at_400, &MemoryPolicy::LocalOnly),
            AdmissionVerdict::Defer {
                recheck_at: SimTime::from_secs(500)
            }
        );
        // Past it: even a healthy idle machine cannot meet the deadline.
        let at_401 = ctx(401, &c, &model);
        assert_eq!(
            AdmissionPolicy::DeferUntilFeasible.assess(&job, &at_401, &MemoryPolicy::LocalOnly),
            AdmissionVerdict::Reject(RejectReason::DeadlineInfeasible)
        );
    }

    #[test]
    fn reject_strings_are_stable() {
        assert_eq!(
            RejectReason::CapacityExceeded.to_string(),
            "demand exceeds machine capacity under this policy"
        );
        assert_eq!(
            RejectReason::ProfileInfeasible.to_string(),
            "nominal shape never fits the profile"
        );
        assert_eq!(
            RejectReason::DeadlineInfeasible.to_string(),
            "no up-capacity placement can meet the deadline"
        );
    }

    #[test]
    fn names_round_trip() {
        for policy in [
            AdmissionPolicy::AdmitAll,
            AdmissionPolicy::RejectInfeasible,
            AdmissionPolicy::DeferUntilFeasible,
        ] {
            assert_eq!(AdmissionPolicy::from_name(policy.name()), Some(policy));
        }
        assert_eq!(AdmissionPolicy::from_name("bogus"), None);
        assert_eq!(AdmissionPolicy::default(), AdmissionPolicy::AdmitAll);
        assert_eq!(PreemptPolicy::default(), PreemptPolicy::Never);
        assert_eq!(
            PreemptPolicy::LaxityCheckpoint { overhead_s: 60 }.name(),
            "laxity-checkpoint"
        );
    }
}
