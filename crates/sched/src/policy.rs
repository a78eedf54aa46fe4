//! The scheduler: queue ordering × backfilling × memory placement.
//!
//! A scheduling pass ([`Scheduler::schedule`]) runs at every arrival and
//! completion event:
//!
//! 1. Order the queue per [`OrderPolicy`].
//! 2. Greedily start jobs from the head while the [`MemoryPolicy`] can
//!    place them.
//! 3. When the head blocks, backfill per [`BackfillPolicy`]:
//!    * **EASY** — reserve the head at its earliest two-resource fit (via
//!      [`AvailabilityProfile`]), then start any later job whose concrete
//!      placement fits *alongside the reservation* for its whole (possibly
//!      dilation-inflated) walltime. A backfill can therefore never delay
//!      the head — including by stealing pool memory the head needs, which
//!      single-resource backfilling misses.
//!    * **Conservative** — walk the queue in order, give every job a
//!      reservation at its earliest fit given all earlier reservations, and
//!      start exactly those whose reservation is *now* and whose concrete
//!      placement agrees with the profile. No job is ever delayed by a
//!      later-queued one.

use crate::admission::{AdmissionPolicy, AdmissionVerdict, PreemptPolicy, RejectReason};
use crate::memory::MemoryPolicy;
use crate::order::OrderPolicy;
use crate::profile::{AvailabilityProfile, Demand, NodeHorizons};
use crate::queue::WaitQueue;
use crate::release::{ReleaseView, RunningRelease};
use crate::traits::{Ordering, PassDirective, Placement, SchedContext};
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_platform::{Cluster, MemoryAssignment, MiB, PlatformError, SlowdownModel};
use dmhpc_workload::{Job, JobId};
use std::cell::Cell;

/// Backfilling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackfillPolicy {
    /// No backfilling: strict queue order (head blocks everyone).
    None,
    /// EASY: one reservation (queue head); aggressive otherwise.
    Easy,
    /// Conservative: a reservation for every queued job.
    Conservative,
}

impl BackfillPolicy {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            BackfillPolicy::None => "none",
            BackfillPolicy::Easy => "easy",
            BackfillPolicy::Conservative => "conservative",
        }
    }
}

/// Full scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Queue ordering.
    pub order: OrderPolicy,
    /// Backfilling flavour.
    pub backfill: BackfillPolicy,
    /// Memory placement policy.
    pub memory: MemoryPolicy,
    /// Far-memory cost model (shared with the engine).
    pub slowdown: SlowdownModel,
    /// Inflate planned walltimes (reservation lengths and kill limits) by
    /// the predicted dilation, so borrowing jobs are not killed for running
    /// exactly as slow as predicted. Ablation A1 turns this off.
    pub inflate_walltime: bool,
    /// Admission control for deadline-stamped jobs. The default
    /// ([`AdmissionPolicy::AdmitAll`]) is inert: it contributes nothing to
    /// labels, cell hashes, or serialized specs.
    pub admission: AdmissionPolicy,
    /// Deadline-priced preemption of running jobs. The default
    /// ([`PreemptPolicy::Never`]) is inert, exactly as for `admission`.
    pub preempt: PreemptPolicy,
}

impl SchedulerConfig {
    /// Human-readable policy triple, e.g. `fcfs+easy+pool-ff`.
    pub fn label(&self) -> String {
        format!(
            "{}+{}+{}",
            self.order.name(),
            self.backfill.name(),
            self.memory.name()
        )
    }

    /// A label that distinguishes *every* field, including policy
    /// parameters, the slowdown model, and the walltime-inflation switch —
    /// e.g. `fcfs+easy+slowdown-aware1.35+sat1.5k3+noinfl`. Two configs
    /// share a full label iff they are equal, which is what experiment
    /// grids key cells on.
    pub fn full_label(&self) -> String {
        let order = match self.order {
            OrderPolicy::Wfp { exponent } => format!("wfp{exponent}"),
            OrderPolicy::BatchBudget { hold_s } => format!("batch-budget{hold_s}"),
            other => other.name().to_string(),
        };
        let memory = match self.memory {
            MemoryPolicy::SlowdownAware { max_dilation } => {
                format!("slowdown-aware{max_dilation}")
            }
            MemoryPolicy::LaxityAware { max_dilation } => {
                format!("laxity-aware{max_dilation}")
            }
            other => other.name().to_string(),
        };
        let slowdown = match self.slowdown {
            SlowdownModel::None => "sd-none".to_string(),
            SlowdownModel::Linear { penalty } => format!("lin{penalty}"),
            SlowdownModel::Saturating { penalty, curvature } => {
                format!("sat{penalty}k{curvature}")
            }
            SlowdownModel::Contention { penalty, gamma } => format!("con{penalty}g{gamma}"),
        };
        let mut label = format!("{order}+{}+{memory}+{slowdown}", self.backfill.name());
        if !self.inflate_walltime {
            label.push_str("+noinfl");
        }
        if self.admission != AdmissionPolicy::AdmitAll {
            label.push('+');
            label.push_str(self.admission.name());
        }
        if let PreemptPolicy::LaxityCheckpoint { overhead_s } = self.preempt {
            label.push_str(&format!("+preempt{overhead_s}"));
        }
        label
    }
}

/// Fluent builder for [`SchedulerConfig`] with the conventional defaults
/// (FCFS + EASY + LocalOnly + linear 1.5× slowdown + walltime inflation
/// on). The result is plain data; validation happens when a [`Scheduler`]
/// or simulation is constructed from it.
#[derive(Debug, Clone)]
pub struct SchedulerBuilder {
    cfg: SchedulerConfig,
}

impl Default for SchedulerBuilder {
    fn default() -> Self {
        SchedulerBuilder {
            cfg: SchedulerConfig {
                order: OrderPolicy::Fcfs,
                backfill: BackfillPolicy::Easy,
                memory: MemoryPolicy::LocalOnly,
                slowdown: SlowdownModel::Linear { penalty: 1.5 },
                inflate_walltime: true,
                admission: AdmissionPolicy::AdmitAll,
                preempt: PreemptPolicy::Never,
            },
        }
    }
}

impl SchedulerBuilder {
    /// Start from defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the queue order.
    pub fn order(mut self, order: OrderPolicy) -> Self {
        self.cfg.order = order;
        self
    }

    /// Set the backfill flavour.
    pub fn backfill(mut self, backfill: BackfillPolicy) -> Self {
        self.cfg.backfill = backfill;
        self
    }

    /// Set the memory policy.
    pub fn memory(mut self, memory: MemoryPolicy) -> Self {
        self.cfg.memory = memory;
        self
    }

    /// Set the slowdown model.
    pub fn slowdown(mut self, model: SlowdownModel) -> Self {
        self.cfg.slowdown = model;
        self
    }

    /// Toggle walltime inflation (ablation A1).
    pub fn inflate_walltime(mut self, on: bool) -> Self {
        self.cfg.inflate_walltime = on;
        self
    }

    /// Set the admission policy for deadline-stamped jobs.
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.cfg.admission = admission;
        self
    }

    /// Set the preemption policy.
    pub fn preempt(mut self, preempt: PreemptPolicy) -> Self {
        self.cfg.preempt = preempt;
        self
    }

    /// Finish, yielding the configuration value. Pass it to
    /// [`Scheduler::new`] (or a `dmhpc-sim` constructor), which validates
    /// it and reports problems as typed errors.
    pub fn build(self) -> SchedulerConfig {
        self.cfg
    }
}

/// A job the pass decided to start, with everything the engine needs.
#[derive(Debug, Clone)]
pub struct StartedJob {
    /// The job (removed from the queue).
    pub job: Job,
    /// Where it runs and how its memory splits.
    pub assignment: MemoryAssignment,
    /// Planned dilation estimate at start.
    pub dilation: f64,
    /// Kill limit (inflated if configured).
    pub planned_walltime: SimDuration,
}

/// Result of one scheduling pass.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Jobs started now (already allocated on the cluster).
    pub started: Vec<StartedJob>,
    /// Jobs refused admission (removed from the queue): either they can
    /// never run on this machine, or the active [`AdmissionPolicy`]
    /// declared their deadline unmeetable.
    pub rejected: Vec<(Job, RejectReason)>,
    /// Jobs the admission policy deferred this pass (still queued, in
    /// queue order), each with its re-check instant. The engine surfaces
    /// each job's *first* deferral as an event.
    pub deferred: Vec<(JobId, SimTime)>,
    /// Earliest instant a deferred job's deadline feasibility lapses; the
    /// engine schedules a wake-up so the lapse is assessed even if no
    /// natural event intervenes. `None` when nothing was deferred.
    pub recheck_at: Option<SimTime>,
    /// Set when the ordering held the batch ([`PassDirective::Hold`]):
    /// nothing was started or rejected, and the engine should re-pass at
    /// this instant.
    pub hold_until: Option<SimTime>,
}

/// The scheduler. Stateless between passes: all state lives in the queue,
/// the cluster, and the engine's running set, so passes are pure functions
/// of the visible system state — a property the determinism tests rely on.
///
/// Ordering and placement behaviour are held as trait objects, so the
/// built-in [`OrderPolicy`]/[`MemoryPolicy`] enums and user-supplied
/// [`Ordering`]/[`Placement`] implementations schedule through the same
/// code path.
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedulerConfig,
    order: Box<dyn Ordering>,
    placement: Box<dyn Placement>,
    /// Run-wide SLO wait target (seconds), surfaced to policies through
    /// [`SchedContext::slo_wait_s`]. Deliberately *not* part of
    /// [`SchedulerConfig`]: it describes the workload's service objective,
    /// not the policy, so labels and cell hashes ignore it.
    slo_wait_s: Option<f64>,
}

impl Scheduler {
    /// A scheduler with the given configuration, using the built-in policy
    /// enums. Fails with a typed error when the slowdown model is
    /// ill-formed.
    pub fn new(cfg: SchedulerConfig) -> Result<Self, PlatformError> {
        Self::with_policies(cfg, Box::new(cfg.order), Box::new(cfg.memory))
    }

    /// A scheduler with custom ordering and placement behaviour. `cfg`
    /// still supplies the backfill flavour, the slowdown model, and the
    /// walltime-inflation switch; its `order`/`memory` enums are ignored
    /// in favour of the supplied trait objects. Note the enums keep their
    /// original values inside the config — `config().label()` and any
    /// serialized form describe the *enums*, not the active custom
    /// policies; use [`Scheduler::label`] (or the engine's report labels,
    /// which go through it) for what actually ran.
    pub fn with_policies(
        cfg: SchedulerConfig,
        order: Box<dyn Ordering>,
        placement: Box<dyn Placement>,
    ) -> Result<Self, PlatformError> {
        cfg.slowdown.validate()?;
        Ok(Scheduler {
            cfg,
            order,
            placement,
            slo_wait_s: None,
        })
    }

    /// This scheduler's configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Set (or clear) the run-wide SLO wait target policies see through
    /// [`SchedContext::slo_wait_s`]. The engine wires this from an open
    /// run's service objective; standalone users may set it directly.
    ///
    /// Set it before the first pass: queue entries memoize their
    /// deadlines (EDF keys and admission's admit-until instants), which
    /// the target feeds for unstamped jobs. Debug builds catch a later
    /// change that alters a memoized deadline.
    pub fn set_slo_target(&mut self, slo_wait_s: Option<f64>) {
        self.slo_wait_s = slo_wait_s;
    }

    /// The active run-wide SLO wait target, if any.
    pub fn slo_target(&self) -> Option<f64> {
        self.slo_wait_s
    }

    /// The active placement policy. The engine prices deadline feasibility
    /// with it ([`Placement::best_dilation`]) when deciding whether a
    /// queued job justifies preempting running work.
    pub fn placement(&self) -> &dyn Placement {
        self.placement.as_ref()
    }

    /// The context all policy calls in a pass receive. Cheap to build, so
    /// passes materialize one wherever the previous cluster mutation ended
    /// its predecessor's borrow.
    fn ctx<'a>(
        &'a self,
        now: SimTime,
        cluster: &'a Cluster,
        running: ReleaseView<'a>,
    ) -> SchedContext<'a> {
        SchedContext::new(now, cluster, &self.cfg.slowdown, running, self.slo_wait_s)
    }

    /// Human-readable policy triple, using the *active* policies (which
    /// differ from `config().label()` when custom trait objects are
    /// plugged in).
    pub fn label(&self) -> String {
        format!(
            "{}+{}+{}",
            self.order.name(),
            self.cfg.backfill.name(),
            self.placement.name()
        )
    }

    /// Planned walltime for a job at the given dilation.
    ///
    /// Contract: never below `job.walltime`. Only a dilation above 1
    /// inflates, and [`SimDuration::scale`] by a factor above 1 never
    /// rounds below its input (test
    /// `inflation_never_shortens_a_walltime`). The EASY scan's node-horizon
    /// filter relies on it to test a candidate's window before planning,
    /// and checks it with a debug assertion.
    fn planned_walltime(&self, job: &Job, dilation: f64) -> SimDuration {
        if self.cfg.inflate_walltime && dilation > 1.0 {
            job.walltime.scale(dilation)
        } else {
            job.walltime
        }
    }

    /// Run one scheduling pass. Started jobs are allocated on `cluster`
    /// (lease = job id) and removed from `queue`. `running` is the
    /// engine-maintained [`crate::ReleaseIndex`]'s view of planned
    /// releases, already in ascending planned-end order — passes no longer
    /// rebuild it.
    pub fn schedule(
        &self,
        now: SimTime,
        queue: &mut WaitQueue,
        cluster: &mut Cluster,
        running: ReleaseView<'_>,
    ) -> PassResult {
        let mut result = PassResult::default();
        {
            let ctx = self.ctx(now, cluster, running);
            let entries = queue.entries_mut();
            self.order.order(entries, &ctx);
            // Batch-forming orderings may hold the whole start set until
            // their latency budget expires (directives with `until ≤ now`
            // proceed — the budget is already spent).
            if let PassDirective::Hold { until } = self.order.directive(entries, &ctx) {
                if until > now {
                    result.hold_until = Some(until);
                    return result;
                }
            }
        }

        // Phase 1: greedy head starts. It ends with the blocked head's
        // nominal shape, which the backfill pass reuses (nothing changed
        // since it was priced), or `None` once the queue is empty.
        let head_shape = loop {
            let Some(head) = queue.front() else {
                break None;
            };
            let job = &head.job;
            let ctx = self.ctx(now, cluster, running);
            // Jobs impossible even on an idle machine are rejected here so
            // they cannot block the queue forever.
            let Some(shape) = self.placement.nominal_shape(job, &ctx) else {
                let entry = queue.pop_front();
                result
                    .rejected
                    .push((entry.job, RejectReason::CapacityExceeded));
                continue;
            };
            let Some(plan) = self.placement.plan(job, &ctx) else {
                break Some(shape); // head blocked
            };
            let entry = queue.pop_front();
            let planned_walltime = self.planned_walltime(&entry.job, plan.dilation);
            cluster
                .allocate(entry.job.id.as_u64(), plan.assignment.clone())
                // lint: allow(panic) — plan() only returns assignments the cluster can satisfy right now
                .expect("plan() returned an unallocatable assignment");
            result.started.push(StartedJob {
                job: entry.job,
                assignment: plan.assignment,
                dilation: plan.dilation,
                planned_walltime,
            });
        };

        let Some(head_shape) = head_shape.filter(|_| self.cfg.backfill != BackfillPolicy::None)
        else {
            self.admission_pass(now, queue, cluster, running, &mut result);
            return result;
        };

        // This thread's reused buffers, taken out for the pass and put
        // back after it, so no borrow spans a policy callback: a nested
        // pass run from a callback finds fresh buffers.
        let mut scratch = PASS_SCRATCH.replace(PassScratch::new());
        // View iteration is already planned-end sorted, so the build skips
        // the sort; jobs started in phase 1 also release capacity later.
        scratch.profile.rebuild(now, cluster, running.iter());
        for s in &result.started {
            let end = now + s.planned_walltime;
            scratch
                .profile
                .add_release(&RunningRelease::of(cluster, &s.assignment, end));
        }

        // The profile only sees current free capacity plus running-job
        // releases; it knows nothing about scheduled repairs or drain
        // ends. On a degraded machine (out-of-service nodes or degraded
        // pools), "never fits the profile" may therefore be transient —
        // such jobs stay queued instead of being rejected, and the engine
        // fails them terminally only once no event can restore capacity.
        // On a healthy machine the predicate is always false, so the
        // pre-fault rejection behaviour is untouched.
        let degraded = cluster.available_nodes() < cluster.total_nodes() as usize
            || cluster.pools().iter().any(|p| p.health() < 1.0);

        match self.cfg.backfill {
            BackfillPolicy::None => unreachable!("handled above"),
            BackfillPolicy::Easy => self.easy_pass(
                now,
                queue,
                cluster,
                running,
                degraded,
                head_shape,
                &mut scratch,
                &mut result,
            ),
            BackfillPolicy::Conservative => self.conservative_pass(
                now,
                queue,
                cluster,
                running,
                degraded,
                head_shape,
                &mut scratch,
                &mut result,
            ),
        }
        PASS_SCRATCH.set(scratch);
        self.admission_pass(now, queue, cluster, running, &mut result);
        result
    }

    /// Assess every job the pass left queued against the admission
    /// policy: rejects are removed from the queue and recorded with their
    /// typed reason; deferrals stay queued and surface with the earliest
    /// re-check instant. A no-op under the default
    /// [`AdmissionPolicy::AdmitAll`] — and on held passes, which return
    /// before scheduling anything (the engine re-passes at `hold_until`,
    /// well inside any deadline a batch budget could threaten). Each
    /// entry's best dilation is priced on its first assessment and reused
    /// on every later pass; under `RejectInfeasible` an entry admitted on
    /// a healthy machine is not re-priced until its admit-until instant.
    fn admission_pass(
        &self,
        now: SimTime,
        queue: &mut WaitQueue,
        cluster: &Cluster,
        running: ReleaseView<'_>,
        result: &mut PassResult,
    ) {
        if self.cfg.admission == AdmissionPolicy::AdmitAll {
            return;
        }
        let ctx = self.ctx(now, cluster, running);
        let mut idx = 0;
        while let Some(entry) = queue.get_mut(idx) {
            let verdict = self
                .cfg
                .admission
                .assess_queued(entry, &ctx, self.placement.as_ref());
            match verdict {
                AdmissionVerdict::Admit => idx += 1,
                AdmissionVerdict::Defer { recheck_at } => {
                    result.deferred.push((entry.job.id, recheck_at));
                    result.recheck_at = Some(match result.recheck_at {
                        Some(t) => t.min(recheck_at),
                        None => recheck_at,
                    });
                    idx += 1;
                }
                AdmissionVerdict::Reject(reason) => {
                    let entry = queue.remove(idx);
                    result.rejected.push((entry.job, reason));
                }
            }
        }
    }

    /// EASY: reserve the head (whose nominal shape phase 1 priced), then
    /// start any later job that fits alongside.
    #[allow(clippy::too_many_arguments)]
    fn easy_pass(
        &self,
        now: SimTime,
        queue: &mut WaitQueue,
        cluster: &mut Cluster,
        running: ReleaseView<'_>,
        degraded: bool,
        (head_demand, head_dilation): (Demand, f64),
        scratch: &mut PassScratch,
        result: &mut PassResult,
    ) {
        let PassScratch {
            profile,
            horizons,
            witness,
            pool_min,
            plan_split,
        } = scratch;
        // lint: allow(panic) — the caller enters the easy pass only with a non-empty queue
        let head = &queue.front().expect("easy pass needs a head").job;
        let head_wall = self.planned_walltime(head, head_dilation);
        let Some(shadow) =
            profile.earliest_fit_into(now, head_wall, &head_demand, witness, pool_min)
        else {
            if degraded {
                // Capacity lost to faults may return (pending repair /
                // drain-end): keep the head queued and skip backfilling
                // (no reservation to protect it against).
                return;
            }
            // Healthy machine: cannot ever fit (pool topology too small
            // for the nominal shape) — reject rather than wedge the queue.
            let entry = queue.pop_front();
            result
                .rejected
                .push((entry.job, RejectReason::ProfileInfeasible));
            return;
        };
        profile.reserve(shadow, head_wall, witness, head_demand.remote_per_node);

        // Scan the rest of the queue in order. A plan occupies at least
        // `job.nodes` nodes (the `Placement::plan` contract) for at least
        // `job.walltime` (the `planned_walltime` contract), so it passes
        // `fits_split` only if that many nodes stay free, net of the head's
        // reservation and earlier backfills, until `now + job.walltime`.
        // The node horizons answer that in O(1): skip the rest unplanned.
        profile.node_horizons(horizons);
        let mut idx = 1;
        while idx < queue.len() {
            // lint: allow(panic) — the loop condition maintains idx < queue.len()
            let job = &queue.get(idx).expect("idx < len").job;
            if !horizons.admits(job.nodes, now.saturating_add(job.walltime)) {
                idx += 1;
                continue;
            }
            let Some(plan) = self.placement.plan(job, &self.ctx(now, cluster, running)) else {
                idx += 1;
                continue;
            };
            debug_assert!(
                plan.assignment.nodes.len() >= job.nodes as usize,
                "Placement::plan must occupy at least job.nodes nodes"
            );
            let wall = self.planned_walltime(job, plan.dilation);
            debug_assert!(wall >= job.walltime, "planned walltime below job.walltime");
            split_into(cluster, &plan.assignment, plan_split);
            if !profile.fits_split(now, wall, plan_split, plan.assignment.remote_per_node) {
                idx += 1;
                continue;
            }
            let entry = queue.remove(idx);
            cluster
                .allocate(entry.job.id.as_u64(), plan.assignment.clone())
                // lint: allow(panic) — plan() only returns assignments the cluster can satisfy right now
                .expect("plan() returned an unallocatable assignment");
            profile.reserve(now, wall, plan_split, plan.assignment.remote_per_node);
            profile.node_horizons(horizons);
            result.started.push(StartedJob {
                job: entry.job,
                assignment: plan.assignment,
                dilation: plan.dilation,
                planned_walltime: wall,
            });
            // Do not advance idx: removal shifted the next candidate here.
        }
    }

    /// Conservative: a reservation per queued job, in queue order, the
    /// head's from the nominal shape phase 1 priced.
    #[allow(clippy::too_many_arguments)]
    fn conservative_pass(
        &self,
        now: SimTime,
        queue: &mut WaitQueue,
        cluster: &mut Cluster,
        running: ReleaseView<'_>,
        degraded: bool,
        head_shape: (Demand, f64),
        scratch: &mut PassScratch,
        result: &mut PassResult,
    ) {
        let PassScratch {
            profile,
            witness,
            pool_min,
            plan_split,
            ..
        } = scratch;
        let mut head_shape = Some(head_shape);
        let mut idx = 0;
        while idx < queue.len() {
            // lint: allow(panic) — the loop condition maintains idx < queue.len()
            let job = &queue.get(idx).expect("idx < len").job;
            let shape = head_shape.take().or_else(|| {
                self.placement
                    .nominal_shape(job, &self.ctx(now, cluster, running))
            });
            let Some((demand, dilation)) = shape else {
                // Never runnable here: phase 1 rejects it once it reaches
                // the head (as under EASY); until then it holds nothing.
                idx += 1;
                continue;
            };
            let wall = self.planned_walltime(job, dilation);
            let Some(start) = profile.earliest_fit_into(now, wall, &demand, witness, pool_min)
            else {
                if degraded {
                    // Transiently unservable (see `schedule`): keep it
                    // queued, unreserved, and move on.
                    idx += 1;
                    continue;
                }
                let entry = queue.remove(idx);
                result
                    .rejected
                    .push((entry.job, RejectReason::ProfileInfeasible));
                continue;
            };
            if start == now {
                if let Some(plan) = self.placement.plan(job, &self.ctx(now, cluster, running)) {
                    let plan_wall = self.planned_walltime(job, plan.dilation);
                    split_into(cluster, &plan.assignment, plan_split);
                    if profile.fits_split(
                        now,
                        plan_wall,
                        plan_split,
                        plan.assignment.remote_per_node,
                    ) {
                        let entry = queue.remove(idx);
                        cluster
                            .allocate(entry.job.id.as_u64(), plan.assignment.clone())
                            // lint: allow(panic) — plan() only returns assignments the cluster can satisfy right now
                            .expect("plan() returned an unallocatable assignment");
                        profile.reserve(
                            now,
                            plan_wall,
                            plan_split,
                            plan.assignment.remote_per_node,
                        );
                        result.started.push(StartedJob {
                            job: entry.job,
                            assignment: plan.assignment,
                            dilation: plan.dilation,
                            planned_walltime: plan_wall,
                        });
                        continue; // same idx: next job shifted in
                    }
                }
            }
            // Hold a reservation; the job stays queued.
            profile.reserve(start, wall, witness, demand.remote_per_node);
            idx += 1;
        }
    }
}

/// Count an assignment's nodes per rack into `split` (resized to the
/// cluster's rack count).
fn split_into(cluster: &Cluster, assignment: &MemoryAssignment, split: &mut Vec<u32>) {
    split.clear();
    split.resize(cluster.spec().racks as usize, 0);
    for &node in &assignment.nodes {
        split[cluster.rack_of(node).0 as usize] += 1;
    }
}

/// The buffers a backfill pass works in, kept per thread between passes
/// (each pass rebuilds them before reading, so fleet sites advanced on
/// one thread share them safely).
#[derive(Debug)]
struct PassScratch {
    /// The availability profile, rebuilt in place each pass.
    profile: AvailabilityProfile,
    /// The EASY scan's node-horizon table.
    horizons: NodeHorizons,
    /// `earliest_fit` witness splits.
    witness: Vec<u32>,
    /// `earliest_fit` pool-minima scratch.
    pool_min: Vec<MiB>,
    /// A concrete plan's nodes per rack.
    plan_split: Vec<u32>,
}

impl PassScratch {
    const fn new() -> Self {
        PassScratch {
            profile: AvailabilityProfile::empty(),
            horizons: NodeHorizons::new(),
            witness: Vec::new(),
            pool_min: Vec::new(),
            plan_split: Vec::new(),
        }
    }
}

thread_local! {
    /// This thread's [`PassScratch`]. A pass takes it out and puts it back
    /// (never borrowing it across policy callbacks), so the steady-state
    /// backfill pass allocates no profile, witness or scan buffer.
    static PASS_SCRATCH: Cell<PassScratch> = const { Cell::new(PassScratch::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::PlannedAllocation;
    use crate::profile::naive::NaiveProfile;
    use crate::profile::Demand;
    use crate::release::ReleaseIndex;
    use dmhpc_des::rng::Pcg64;
    use dmhpc_platform::{ClusterSpec, NodeSpec, PoolTopology};
    use dmhpc_workload::{JobBuilder, JobId};

    const GIB: u64 = 1024;

    /// 1 rack × 4 nodes, 256 GiB DRAM, 100 GiB rack pool.
    fn small_cluster() -> Cluster {
        Cluster::new(ClusterSpec::new(
            1,
            4,
            NodeSpec::new(64, 256 * GIB),
            PoolTopology::PerRack {
                mib_per_rack: 100 * GIB,
            },
        ))
    }

    fn fcfs_easy() -> Scheduler {
        Scheduler::new(
            SchedulerBuilder::new()
                .memory(MemoryPolicy::PoolFirstFit)
                .build(),
        )
        .unwrap()
    }

    fn job(id: u64, nodes: u32, runtime_s: u64, wall_s: u64) -> Job {
        JobBuilder::new(id)
            .nodes(nodes)
            .runtime_secs(runtime_s, wall_s)
            .mem_per_node(32 * GIB)
            .build()
    }

    /// Park a lease on the cluster and track its release in the index.
    fn park(
        cluster: &mut Cluster,
        running: &mut ReleaseIndex,
        lease: u64,
        nodes: &[u32],
        remote: u64,
        end_s: u64,
    ) {
        let ids: Vec<_> = nodes.iter().map(|&n| dmhpc_platform::NodeId(n)).collect();
        let a = if remote > 0 {
            MemoryAssignment::hybrid(ids, 32 * GIB, remote)
        } else {
            MemoryAssignment::local(ids, 32 * GIB)
        };
        cluster.allocate(lease, a.clone()).unwrap();
        running.insert(
            lease,
            RunningRelease::of(cluster, &a, SimTime::from_secs(end_s)),
        );
    }

    fn ids(started: &[StartedJob]) -> Vec<u64> {
        started.iter().map(|s| s.job.id.0).collect()
    }

    #[test]
    fn greedy_starts_until_blocked() {
        let sched = fcfs_easy();
        let mut cluster = small_cluster();
        let mut queue = WaitQueue::new();
        for (id, nodes) in [(1, 2), (2, 1), (3, 4)] {
            queue.push(job(id, nodes, 100, 200), SimTime::ZERO);
        }
        let result = sched.schedule(
            SimTime::ZERO,
            &mut queue,
            &mut cluster,
            ReleaseView::empty(),
        );
        // Jobs 1 (2 nodes) and 2 (1 node) start; job 3 (4 nodes) blocks
        // (1 node free) and nothing is behind it to backfill.
        assert_eq!(ids(&result.started), vec![1, 2]);
        assert_eq!(queue.len(), 1);
        assert_eq!(cluster.free_nodes(), 1);
        cluster.verify_invariants().unwrap();
    }

    #[test]
    fn easy_backfills_short_jobs_only() {
        let sched = fcfs_easy();
        let mut cluster = small_cluster();
        // 2 nodes busy until t=100.
        let mut running = ReleaseIndex::new();
        park(&mut cluster, &mut running, 100, &[0, 1], 0, 100);
        let mut queue = WaitQueue::new();
        // Head: needs all 4 nodes → shadow at t=100.
        queue.push(job(1, 4, 500, 1000), SimTime::ZERO);
        // Short filler (2 nodes, 100 s ≤ shadow): must start.
        queue.push(job(2, 2, 50, 100), SimTime::ZERO);
        // Long filler (2 nodes, 400 s): would hold nodes past t=100 → no.
        queue.push(job(3, 2, 300, 400), SimTime::ZERO);
        let result = sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
        assert_eq!(ids(&result.started), vec![2]);
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.front().unwrap().job.id, JobId(1), "head still first");
    }

    #[test]
    fn easy_pool_aware_backfill_blocks_pool_thieves() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .memory(MemoryPolicy::PoolFirstFit)
                .inflate_walltime(false) // keep window arithmetic exact
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        // Node 0 borrows 60 GiB of the 100 GiB pool until t=100; nodes 1–2
        // are busy locally until t=100. Only node 3 and 40 GiB of pool are
        // free now.
        let mut running = ReleaseIndex::new();
        park(&mut cluster, &mut running, 100, &[0], 60 * GIB, 100);
        park(&mut cluster, &mut running, 101, &[1, 2], 0, 100);
        let mut queue = WaitQueue::new();
        // Head: 1 node borrowing 100 GiB. Now: pool has only 40 free and
        // inflation (2 nodes) has only 1 free node → blocked. Shadow at
        // t=100 when the pool refills.
        let head = JobBuilder::new(1)
            .nodes(1)
            .mem_per_node(356 * GIB) // 256 local + 100 remote
            .runtime_secs(500, 1000)
            .build();
        queue.push(head, SimTime::ZERO);
        // Filler borrowing 40 GiB for 400 s: node 3 and 40 GiB are free NOW
        // — but from t=100 the head's reservation needs the whole pool.
        // Single-resource (node-count) backfill would start it and delay
        // the head; the two-resource profile must not.
        let thief = JobBuilder::new(2)
            .nodes(1)
            .mem_per_node(296 * GIB) // 256 local + 40 remote
            .runtime_secs(300, 400)
            .build();
        queue.push(thief, SimTime::ZERO);
        // Same shape but short (50 s): returns the pool before the shadow.
        let polite = JobBuilder::new(3)
            .nodes(1)
            .mem_per_node(296 * GIB)
            .runtime_secs(30, 50)
            .build();
        queue.push(polite, SimTime::ZERO);

        let result = sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
        assert_eq!(ids(&result.started), vec![3], "only the polite filler");
        assert_eq!(queue.front().unwrap().job.id, JobId(1));
        assert_eq!(queue.get(1).unwrap().job.id, JobId(2));
        cluster.verify_invariants().unwrap();
    }

    #[test]
    fn no_backfill_policy_blocks_strictly() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .backfill(BackfillPolicy::None)
                .memory(MemoryPolicy::PoolFirstFit)
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park(&mut cluster, &mut running, 100, &[0, 1], 0, 100);
        let mut queue = WaitQueue::new();
        queue.push(job(1, 4, 500, 1000), SimTime::ZERO);
        queue.push(job(2, 1, 50, 100), SimTime::ZERO);
        let result = sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
        assert!(result.started.is_empty(), "head blocks everything");
    }

    #[test]
    fn conservative_never_delays_earlier_reservations() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .backfill(BackfillPolicy::Conservative)
                .memory(MemoryPolicy::PoolFirstFit)
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park(&mut cluster, &mut running, 100, &[0, 1], 0, 100);
        let mut queue = WaitQueue::new();
        // Head: all 4 nodes, reserved at t=100 for 1000 s.
        queue.push(job(1, 4, 500, 1000), SimTime::ZERO);
        // Second: 2 nodes for 1000 s → reserved at t=1100 (after head).
        queue.push(job(2, 2, 500, 1000), SimTime::ZERO);
        // Third: 2 nodes, 100 s: fits NOW (2 free until t=100) without
        // delaying either reservation.
        queue.push(job(3, 2, 50, 100), SimTime::ZERO);
        let result = sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
        assert_eq!(ids(&result.started), vec![3]);

        // Under conservative, a job that EASY would admit but which delays
        // the SECOND reservation must stay queued: 2 nodes for 150 s
        // overlaps [100, 1100) when head holds all 4… here it would overlap
        // the head reservation itself, so it stays queued too.
        let mut queue2 = WaitQueue::new();
        queue2.push(job(4, 2, 100, 150), SimTime::ZERO);
        // (fresh pass on the mutated cluster: nodes 0-3 now: 0,1 parked +
        // job 3 on two → all busy)
        let r2 = sched.schedule(SimTime::ZERO, &mut queue2, &mut cluster, running.view());
        assert!(r2.started.is_empty());
    }

    #[test]
    fn conservative_skips_impossible_jobs_behind_a_blocked_head() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .backfill(BackfillPolicy::Conservative)
                .memory(MemoryPolicy::PoolFirstFit)
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park(&mut cluster, &mut running, 100, &[0, 1], 0, 100);
        let mut queue = WaitQueue::new();
        queue.push(job(1, 4, 500, 1000), SimTime::ZERO); // blocked head
        queue.push(job(2, 8, 100, 200), SimTime::ZERO); // wider than the machine
        queue.push(job(3, 2, 50, 100), SimTime::ZERO); // backfills
        let result = sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
        assert_eq!(ids(&result.started), vec![3]);
        assert!(result.rejected.is_empty(), "rejected once it is the head");
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn impossible_jobs_rejected_not_wedged() {
        let sched = fcfs_easy();
        let mut cluster = small_cluster();
        let mut queue = WaitQueue::new();
        // 8 nodes on a 4-node machine.
        queue.push(job(1, 8, 100, 200), SimTime::ZERO);
        queue.push(job(2, 1, 100, 200), SimTime::ZERO);
        let result = sched.schedule(
            SimTime::ZERO,
            &mut queue,
            &mut cluster,
            ReleaseView::empty(),
        );
        assert_eq!(result.rejected.len(), 1);
        assert_eq!(result.rejected[0].0.id, JobId(1));
        assert_eq!(ids(&result.started), vec![2], "queue not wedged");
    }

    #[test]
    fn walltime_inflation_toggle() {
        let heavy = JobBuilder::new(1)
            .nodes(1)
            .mem_per_node(356 * GIB) // borrows 100 GiB → dilated
            .intensity(1.0)
            .runtime_secs(100, 1000)
            .build();
        for (inflate, expect_longer) in [(true, true), (false, false)] {
            let sched = Scheduler::new(
                SchedulerBuilder::new()
                    .memory(MemoryPolicy::PoolFirstFit)
                    .inflate_walltime(inflate)
                    .build(),
            )
            .unwrap();
            let mut cluster = small_cluster();
            let mut queue = WaitQueue::new();
            queue.push(heavy.clone(), SimTime::ZERO);
            let result = sched.schedule(
                SimTime::ZERO,
                &mut queue,
                &mut cluster,
                ReleaseView::empty(),
            );
            let s = &result.started[0];
            assert!(s.dilation > 1.0);
            if expect_longer {
                assert!(s.planned_walltime > heavy.walltime);
            } else {
                assert_eq!(s.planned_walltime, heavy.walltime);
            }
        }
    }

    #[test]
    fn sjf_reorders_before_scheduling() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .order(OrderPolicy::Sjf)
                .memory(MemoryPolicy::PoolFirstFit)
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        let mut queue = WaitQueue::new();
        queue.push(job(1, 1, 100, 10_000), SimTime::ZERO);
        queue.push(job(2, 1, 100, 100), SimTime::ZERO);
        let result = sched.schedule(
            SimTime::ZERO,
            &mut queue,
            &mut cluster,
            ReleaseView::empty(),
        );
        assert_eq!(ids(&result.started), vec![2, 1], "short job first");
    }

    #[test]
    fn pass_is_deterministic() {
        let sched = fcfs_easy();
        let build = || {
            let mut cluster = small_cluster();
            let mut running = ReleaseIndex::new();
            park(&mut cluster, &mut running, 100, &[0], 20 * GIB, 77);
            let mut queue = WaitQueue::new();
            for i in 0..6 {
                queue.push(job(i, 1 + (i % 3) as u32, 50 + i * 10, 200), SimTime::ZERO);
            }
            (cluster, running, queue)
        };
        let (mut c1, r1, mut q1) = build();
        let (mut c2, r2, mut q2) = build();
        let a = sched.schedule(SimTime::ZERO, &mut q1, &mut c1, r1.view());
        let b = sched.schedule(SimTime::ZERO, &mut q2, &mut c2, r2.view());
        assert_eq!(ids(&a.started), ids(&b.started));
        for (x, y) in a.started.iter().zip(b.started.iter()) {
            assert_eq!(x.assignment, y.assignment);
        }
    }

    #[test]
    fn config_label() {
        assert_eq!(fcfs_easy().config().label(), "fcfs+easy+pool-ff");
    }

    #[test]
    fn batch_budget_holds_then_releases() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .order(OrderPolicy::BatchBudget { hold_s: 100.0 })
                .memory(MemoryPolicy::PoolFirstFit)
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        let mut queue = WaitQueue::new();
        queue.push(job(1, 1, 50, 100), SimTime::from_secs(10));
        queue.push(job(2, 1, 50, 100), SimTime::from_secs(40));

        // Budget not exhausted: nothing starts, the pass asks for a
        // wake-up at oldest-enqueued + budget.
        let held = sched.schedule(
            SimTime::from_secs(50),
            &mut queue,
            &mut cluster,
            ReleaseView::empty(),
        );
        assert!(held.started.is_empty() && held.rejected.is_empty());
        assert_eq!(held.hold_until, Some(SimTime::from_secs(110)));
        assert_eq!(queue.len(), 2, "held jobs stay queued");
        assert_eq!(cluster.free_nodes(), 4, "nothing allocated while held");

        // At the release instant the whole batch goes out at once.
        let released = sched.schedule(
            SimTime::from_secs(110),
            &mut queue,
            &mut cluster,
            ReleaseView::empty(),
        );
        assert_eq!(ids(&released.started), vec![1, 2]);
        assert_eq!(released.hold_until, None);
        cluster.verify_invariants().unwrap();
    }

    #[test]
    fn full_label_admission_and_preempt_suffixes() {
        let default = SchedulerBuilder::new().build();
        assert_eq!(default.full_label(), "fcfs+easy+local-only+lin1.5");
        let loaded = SchedulerBuilder::new()
            .memory(MemoryPolicy::LaxityAware { max_dilation: 1.5 })
            .admission(AdmissionPolicy::RejectInfeasible)
            .preempt(PreemptPolicy::LaxityCheckpoint { overhead_s: 60 })
            .build();
        assert_eq!(
            loaded.full_label(),
            "fcfs+easy+laxity-aware1.5+lin1.5+reject-infeasible+preempt60"
        );
        let deferred = SchedulerBuilder::new()
            .admission(AdmissionPolicy::DeferUntilFeasible)
            .build();
        assert_eq!(deferred.full_label(), "fcfs+easy+local-only+lin1.5+defer");
    }

    fn stamped_job(id: u64, wall_s: u64, deadline_s: f64) -> Job {
        JobBuilder::new(id)
            .arrival_secs(0)
            .nodes(1)
            .runtime_secs(wall_s / 2, wall_s)
            .mem_per_node(32 * GIB)
            .slo(dmhpc_workload::Slo::Deadline { deadline_s })
            .build()
    }

    /// Fill the whole machine until `end_s` so nothing can start.
    fn park_all(cluster: &mut Cluster, running: &mut ReleaseIndex, end_s: u64) {
        park(cluster, running, 900, &[0, 1, 2, 3], 0, end_s);
    }

    #[test]
    fn admission_rejects_laxity_exhausted_jobs() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .memory(MemoryPolicy::PoolFirstFit)
                .admission(AdmissionPolicy::RejectInfeasible)
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park_all(&mut cluster, &mut running, 1000);
        let mut queue = WaitQueue::new();
        // Deadline t=50 but walltime 100: lost before it could ever start.
        queue.push(stamped_job(1, 100, 50.0), SimTime::ZERO);
        // Deadline t=5000: plenty of laxity, stays queued.
        queue.push(stamped_job(2, 100, 5000.0), SimTime::ZERO);
        let result = sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
        assert!(result.started.is_empty());
        assert_eq!(result.rejected.len(), 1);
        assert_eq!(result.rejected[0].0.id, JobId(1));
        assert_eq!(
            result.rejected[0].1,
            crate::RejectReason::DeadlineInfeasible
        );
        assert_eq!(queue.len(), 1, "feasible job still queued");
        assert!(result.deferred.is_empty(), "reject mode never defers");
    }

    #[test]
    fn admission_defers_then_rejects_on_lapse() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .memory(MemoryPolicy::PoolFirstFit)
                .admission(AdmissionPolicy::DeferUntilFeasible)
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park_all(&mut cluster, &mut running, 1000);
        let mut queue = WaitQueue::new();
        // Deadline t=500, walltime 100: feasible until t=400.
        queue.push(stamped_job(1, 100, 500.0), SimTime::ZERO);
        let held = sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
        assert!(held.started.is_empty() && held.rejected.is_empty());
        assert_eq!(held.deferred, vec![(JobId(1), SimTime::from_secs(400))]);
        assert_eq!(held.recheck_at, Some(SimTime::from_secs(400)));
        assert_eq!(queue.len(), 1, "deferred jobs stay queued");

        // Past the lapse instant even an idle healthy machine cannot meet
        // the deadline: the deferral converts to a typed reject.
        let late = sched.schedule(
            SimTime::from_secs(450),
            &mut queue,
            &mut cluster,
            running.view(),
        );
        assert_eq!(late.rejected.len(), 1);
        assert_eq!(late.rejected[0].1, crate::RejectReason::DeadlineInfeasible);
        assert!(queue.is_empty());
    }

    #[test]
    fn edf_uses_run_wide_slo_target_via_scheduler() {
        // Two jobs, both unstamped; per-job budget-factor stamp on the
        // later arrival gives it the earlier deadline, so EDF flips FCFS.
        let mut sched = Scheduler::new(
            SchedulerBuilder::new()
                .order(OrderPolicy::Edf)
                .memory(MemoryPolicy::PoolFirstFit)
                .build(),
        )
        .unwrap();
        assert_eq!(sched.slo_target(), None);
        sched.set_slo_target(Some(3600.0));
        assert_eq!(sched.slo_target(), Some(3600.0));

        let mut cluster = small_cluster();
        let mut queue = WaitQueue::new();
        let early = JobBuilder::new(1)
            .arrival_secs(0)
            .nodes(1)
            .runtime_secs(50, 100)
            .mem_per_node(32 * GIB)
            .build();
        let mut urgent = JobBuilder::new(2)
            .arrival_secs(10)
            .nodes(1)
            .runtime_secs(50, 100)
            .mem_per_node(32 * GIB)
            .build();
        urgent.slo = Some(dmhpc_workload::Slo::Deadline { deadline_s: 30.0 });
        queue.push(early, SimTime::ZERO);
        queue.push(urgent, SimTime::from_secs(10));
        let result = sched.schedule(
            SimTime::from_secs(20),
            &mut queue,
            &mut cluster,
            ReleaseView::empty(),
        );
        // Deadlines: job 2 at t=40 (stamp), job 1 at t=3600 (run-wide).
        assert_eq!(ids(&result.started), vec![2, 1]);
    }

    /// The reference pass for the differential oracles below: releases
    /// cloned and sorted, the profile rebuilt from scratch as the naive
    /// `Vec<Point>` profile, and every queued job planned (no node-horizon
    /// filter). Otherwise step for step what `Scheduler::schedule` does.
    ///
    /// The EASY scan also checks the filter it omits: a candidate whose
    /// width does not stay free (naive window minima) for its walltime
    /// must fail `fits_split`. It counts in `horizon_only` the candidates
    /// the filter prunes that the old width test (free nodes now) would
    /// have planned.
    fn naive_schedule(
        sched: &Scheduler,
        now: SimTime,
        queue: &mut WaitQueue,
        cluster: &mut Cluster,
        running: ReleaseView<'_>,
        horizon_only: &mut usize,
    ) -> PassResult {
        let mut result = PassResult::default();
        {
            let ctx = sched.ctx(now, cluster, running);
            sched.order.order(queue.entries_mut(), &ctx);
        }
        let start = |cluster: &mut Cluster,
                     result: &mut PassResult,
                     job: Job,
                     plan: PlannedAllocation,
                     wall| {
            cluster
                .allocate(job.id.as_u64(), plan.assignment.clone())
                .unwrap();
            result.started.push(StartedJob {
                job,
                assignment: plan.assignment,
                dilation: plan.dilation,
                planned_walltime: wall,
            });
        };
        while let Some(head) = queue.front() {
            let ctx = sched.ctx(now, cluster, running);
            if sched.placement.nominal_shape(&head.job, &ctx).is_none() {
                let entry = queue.pop_front();
                result
                    .rejected
                    .push((entry.job, RejectReason::CapacityExceeded));
                continue;
            }
            let Some(plan) = sched.placement.plan(&head.job, &ctx) else {
                break;
            };
            let job = queue.pop_front().job;
            let wall = sched.planned_walltime(&job, plan.dilation);
            start(cluster, &mut result, job, plan, wall);
        }
        if queue.is_empty() || sched.cfg.backfill == BackfillPolicy::None {
            sched.admission_pass(now, queue, cluster, running, &mut result);
            return result;
        }
        let mut releases: Vec<RunningRelease> = running.iter().cloned().collect();
        for s in &result.started {
            releases.push(RunningRelease::of(
                cluster,
                &s.assignment,
                now + s.planned_walltime,
            ));
        }
        let mut profile = NaiveProfile::from_cluster(now, cluster, &releases);
        let degraded = cluster.available_nodes() < cluster.total_nodes() as usize
            || cluster.pools().iter().any(|p| p.health() < 1.0);
        let split_of = |cluster: &Cluster, a: &MemoryAssignment| {
            let mut split = vec![0u32; cluster.spec().racks as usize];
            for &node in &a.nodes {
                split[cluster.rack_of(node).0 as usize] += 1;
            }
            split
        };
        if sched.cfg.backfill == BackfillPolicy::Easy {
            let head = &queue.front().unwrap().job;
            let ctx = sched.ctx(now, cluster, running);
            let (demand, dilation) = sched.placement.nominal_shape(head, &ctx).unwrap();
            let wall = sched.planned_walltime(head, dilation);
            match profile.earliest_fit(now, wall, &demand) {
                Some((shadow, split)) => {
                    profile.reserve(shadow, wall, &split, demand.remote_per_node);
                    let mut idx = 1;
                    while idx < queue.len() {
                        let job = &queue.get(idx).unwrap().job;
                        let (minima, _) =
                            profile.window_minima(now, now.saturating_add(job.walltime));
                        let pruned = minima.iter().sum::<u32>() < job.nodes;
                        let free_now: u32 = profile.free_nodes_at(now).iter().sum();
                        *horizon_only += usize::from(pruned && job.nodes <= free_now);
                        let ctx = sched.ctx(now, cluster, running);
                        let Some(plan) = sched.placement.plan(job, &ctx) else {
                            idx += 1;
                            continue;
                        };
                        let wall = sched.planned_walltime(job, plan.dilation);
                        let split = split_of(cluster, &plan.assignment);
                        let remote = plan.assignment.remote_per_node;
                        let fits = profile.fits_split(now, wall, &split, remote);
                        assert!(!(pruned && fits), "the node horizon pruned a fitting job");
                        if !fits {
                            idx += 1;
                            continue;
                        }
                        let job = queue.remove(idx).job;
                        start(cluster, &mut result, job, plan, wall);
                        profile.reserve(now, wall, &split, remote);
                    }
                }
                None if degraded => {}
                None => {
                    let entry = queue.pop_front();
                    result
                        .rejected
                        .push((entry.job, RejectReason::ProfileInfeasible));
                }
            }
        } else {
            let mut idx = 0;
            while idx < queue.len() {
                let job = &queue.get(idx).unwrap().job;
                let ctx = sched.ctx(now, cluster, running);
                let Some((demand, dilation)) = sched.placement.nominal_shape(job, &ctx) else {
                    idx += 1;
                    continue;
                };
                let wall = sched.planned_walltime(job, dilation);
                let Some((at, split)) = profile.earliest_fit(now, wall, &demand) else {
                    if degraded {
                        idx += 1;
                    } else {
                        let entry = queue.remove(idx);
                        result
                            .rejected
                            .push((entry.job, RejectReason::ProfileInfeasible));
                    }
                    continue;
                };
                if at == now {
                    if let Some(plan) = sched.placement.plan(job, &ctx) {
                        let plan_wall = sched.planned_walltime(job, plan.dilation);
                        let plan_split = split_of(cluster, &plan.assignment);
                        let remote = plan.assignment.remote_per_node;
                        if profile.fits_split(now, plan_wall, &plan_split, remote) {
                            let job = queue.remove(idx).job;
                            start(cluster, &mut result, job, plan, plan_wall);
                            profile.reserve(now, plan_wall, &plan_split, remote);
                            continue;
                        }
                    }
                }
                profile.reserve(at, wall, &split, demand.remote_per_node);
                idx += 1;
            }
        }
        sched.admission_pass(now, queue, cluster, running, &mut result);
        result
    }

    /// A seeded random machine state: some running jobs (a few past their
    /// planned end), and on degraded cases down/draining nodes and
    /// degraded pools.
    fn random_state(rng: &mut Pcg64, now: SimTime) -> (Cluster, ReleaseIndex, WaitQueue) {
        let racks = 1 + rng.bounded_u64(4) as u32;
        let pool = match rng.bounded_u64(3) {
            0 => PoolTopology::None,
            1 => PoolTopology::PerRack {
                mib_per_rack: (32 + rng.bounded_u64(256)) * GIB,
            },
            _ => PoolTopology::Global {
                mib: (64 + rng.bounded_u64(512)) * GIB,
            },
        };
        let per_rack = 2 + rng.bounded_u64(7) as u32;
        let mut cluster = Cluster::new(ClusterSpec::new(
            racks,
            per_rack,
            NodeSpec::new(64, 256 * GIB),
            pool,
        ));
        let random_job = |rng: &mut Pcg64, id: u64| {
            let wall = 60 + rng.bounded_u64(20_000);
            JobBuilder::new(id)
                .arrival_secs(rng.bounded_u64(now.as_secs() + 1))
                .nodes(1 + rng.bounded_u64(u64::from(per_rack) + 2) as u32)
                .mem_per_node((16 + rng.bounded_u64(400)) * GIB)
                .intensity(rng.bounded_u64(100) as f64 / 100.0)
                .runtime_secs(1 + rng.bounded_u64(wall), wall)
                .build()
        };
        let mut running = ReleaseIndex::new();
        let placer = MemoryPolicy::PoolFirstFit;
        let model = SlowdownModel::Linear { penalty: 1.5 };
        for lease in 0..rng.bounded_u64(12) {
            let job = random_job(rng, 10_000 + lease);
            let Some(plan) = placer.plan(&job, &cluster, &model) else {
                continue;
            };
            let lease = 10_000 + lease;
            cluster.allocate(lease, plan.assignment.clone()).unwrap();
            let end = SimTime::from_secs(now.as_secs() - 200 + rng.bounded_u64(30_000));
            running.insert(lease, RunningRelease::of(&cluster, &plan.assignment, end));
        }
        if rng.bounded_u64(3) == 0 {
            for _ in 0..1 + rng.bounded_u64(3) {
                let node =
                    dmhpc_platform::NodeId(rng.bounded_u64(u64::from(racks * per_rack)) as u32);
                if rng.bounded_u64(2) == 0 {
                    cluster.fail_node(node).unwrap();
                } else {
                    cluster.drain_node(node).unwrap();
                }
            }
            for p in 0..cluster.pools().len() {
                if rng.bounded_u64(2) == 0 {
                    let health = 0.3 + rng.bounded_u64(70) as f64 / 100.0;
                    cluster
                        .set_pool_health(dmhpc_platform::PoolId(p as u32), health)
                        .unwrap();
                }
            }
        }
        let mut queue = WaitQueue::new();
        for id in 0..2 + rng.bounded_u64(30) {
            let job = random_job(rng, id);
            let at = job.arrival;
            queue.push(job, at);
        }
        (cluster, running, queue)
    }

    /// Two passes decided identically: the same starts (assignments,
    /// walltimes, dilations), rejects and deferrals, and the same queue
    /// left behind.
    fn assert_same_pass(
        got: &PassResult,
        want: &PassResult,
        got_queue: &WaitQueue,
        want_queue: &WaitQueue,
        ctx: &str,
    ) {
        assert_eq!(ids(&got.started), ids(&want.started), "{ctx}: started");
        for (a, b) in got.started.iter().zip(&want.started) {
            assert_eq!(a.assignment, b.assignment, "{ctx}: assignment");
            assert_eq!(a.planned_walltime, b.planned_walltime, "{ctx}: walltime");
            assert_eq!(
                a.dilation.to_bits(),
                b.dilation.to_bits(),
                "{ctx}: dilation"
            );
        }
        let rejects = |r: &PassResult| -> Vec<(u64, RejectReason)> {
            r.rejected.iter().map(|(j, why)| (j.id.0, *why)).collect()
        };
        assert_eq!(rejects(got), rejects(want), "{ctx}: rejected");
        assert_eq!(got.deferred, want.deferred, "{ctx}: deferred");
        assert_eq!(got.recheck_at, want.recheck_at, "{ctx}: recheck");
        assert_eq!(got.hold_until, want.hold_until, "{ctx}: hold");
        let left = |q: &WaitQueue| -> Vec<u64> { q.iter().map(|e| e.job.id.0).collect() };
        assert_eq!(left(got_queue), left(want_queue), "{ctx}: queue");
    }

    /// Differential oracle: on seeded random states, healthy and degraded,
    /// the production pass (flat profile, node-horizon filter, reused
    /// buffers) starts and rejects exactly what the naive reference pass
    /// does, with identical assignments, and leaves the same queue behind.
    #[test]
    fn pass_matches_naive_reference_pass() {
        let mut rng = Pcg64::new(4242);
        let now = SimTime::from_secs(5_000);
        let (mut backfilled, mut rejected, mut degraded) = (0, 0, 0);
        let mut horizon_only = 0;
        for case in 0..400 {
            let (cluster, running, queue) = random_state(&mut rng, now);
            let memory = match rng.bounded_u64(5) {
                0 => MemoryPolicy::LocalOnly,
                1 => MemoryPolicy::PoolFirstFit,
                2 => MemoryPolicy::PoolBestFit,
                3 => MemoryPolicy::SlowdownAware { max_dilation: 1.35 },
                _ => MemoryPolicy::LaxityAware { max_dilation: 1.4 },
            };
            let backfill = if rng.bounded_u64(2) == 0 {
                BackfillPolicy::Easy
            } else {
                BackfillPolicy::Conservative
            };
            let order = if rng.bounded_u64(2) == 0 {
                OrderPolicy::Fcfs
            } else {
                OrderPolicy::Sjf
            };
            let sched = Scheduler::new(
                SchedulerBuilder::new()
                    .order(order)
                    .backfill(backfill)
                    .memory(memory)
                    .inflate_walltime(rng.bounded_u64(2) == 0)
                    .build(),
            )
            .unwrap();
            let (mut c1, mut q1) = (cluster.clone(), queue.clone());
            let (mut c2, mut q2) = (cluster, queue);
            let got = sched.schedule(now, &mut q1, &mut c1, running.view());
            let want = naive_schedule(
                &sched,
                now,
                &mut q2,
                &mut c2,
                running.view(),
                &mut horizon_only,
            );
            let ctx = format!("case {case}: {}", sched.label());
            assert_same_pass(&got, &want, &q1, &q2, &ctx);
            // Coverage: under FCFS, a start queued behind a job that is
            // still waiting is a backfill.
            let first_left = q1.iter().map(|e| (e.enqueued, e.job.id)).min();
            if order == OrderPolicy::Fcfs {
                backfilled += got
                    .started
                    .iter()
                    .filter(|s| first_left.is_some_and(|f| (s.job.arrival, s.job.id) > f))
                    .count();
            }
            rejected += want.rejected.len();
            degraded += usize::from(c1.available_nodes() < c1.total_nodes() as usize);
        }
        assert!(
            backfilled >= 50 && rejected >= 50 && degraded >= 50 && horizon_only >= 50,
            "oracle coverage: {backfilled} backfills, {rejected} rejects, {degraded} degraded, \
             {horizon_only} candidates only the node horizon prunes"
        );
    }

    #[derive(Debug)]
    struct ContractChecked(MemoryPolicy);

    impl Placement for ContractChecked {
        fn name(&self) -> &str {
            "contract-checked"
        }
        fn nominal_shape(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<(Demand, f64)> {
            Placement::nominal_shape(&self.0, job, ctx)
        }
        fn plan(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<PlannedAllocation> {
            let plan = Placement::plan(&self.0, job, ctx)?;
            assert!(
                plan.assignment.nodes.len() >= job.nodes as usize,
                "{} planned {} nodes for a {}-node job",
                self.0.name(),
                plan.assignment.nodes.len(),
                job.nodes
            );
            Some(plan)
        }
    }

    /// Every built-in placement honours the `Placement::plan` contract the
    /// EASY node-horizon filter relies on: at least `job.nodes` nodes per plan.
    #[test]
    fn built_in_placements_honour_plan_width_contract() {
        let mut rng = Pcg64::new(99);
        let now = SimTime::from_secs(5_000);
        for memory in [
            MemoryPolicy::LocalOnly,
            MemoryPolicy::PoolFirstFit,
            MemoryPolicy::PoolBestFit,
            MemoryPolicy::SlowdownAware { max_dilation: 1.35 },
            MemoryPolicy::LaxityAware { max_dilation: 1.4 },
        ] {
            let sched = Scheduler::with_policies(
                SchedulerBuilder::new().memory(memory).build(),
                Box::new(OrderPolicy::Fcfs),
                Box::new(ContractChecked(memory)),
            )
            .unwrap();
            for _ in 0..100 {
                let (mut cluster, running, mut queue) = random_state(&mut rng, now);
                sched.schedule(now, &mut queue, &mut cluster, running.view());
            }
        }
    }

    /// A placement that breaks the contract: whenever the job's width is
    /// free it plans a single node.
    #[derive(Debug)]
    struct OneNode;

    impl Placement for OneNode {
        fn name(&self) -> &str {
            "one-node"
        }
        fn nominal_shape(&self, job: &Job, _: &SchedContext<'_>) -> Option<(Demand, f64)> {
            let demand = Demand {
                nodes: job.nodes,
                remote_per_node: 0,
            };
            Some((demand, 1.0))
        }
        fn plan(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<PlannedAllocation> {
            if job.nodes as usize > ctx.cluster.free_nodes() {
                return None;
            }
            let node = ctx.cluster.free_node_iter().next()?;
            Some(PlannedAllocation {
                assignment: MemoryAssignment::local(vec![node], job.mem_per_node),
                dilation: 1.0,
            })
        }
    }

    /// Breaking the contract trips the EASY scan's debug assertion instead
    /// of silently skewing decisions.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "at least job.nodes nodes")]
    fn easy_scan_asserts_plan_width_contract() {
        let sched = Scheduler::with_policies(
            SchedulerBuilder::new().build(),
            Box::new(OrderPolicy::Fcfs),
            Box::new(OneNode),
        )
        .unwrap();
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park(&mut cluster, &mut running, 100, &[0, 1], 0, 100);
        let mut queue = WaitQueue::new();
        // The 4-node head blocks (2 nodes free), so the scan plans the
        // 2-node job behind it and receives a single node.
        queue.push(job(1, 4, 500, 1000), SimTime::ZERO);
        queue.push(job(2, 2, 50, 100), SimTime::ZERO);
        sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
    }

    /// The five built-in placements, as the oracles below cycle through
    /// them.
    const PLACEMENTS: [MemoryPolicy; 5] = [
        MemoryPolicy::LocalOnly,
        MemoryPolicy::PoolFirstFit,
        MemoryPolicy::PoolBestFit,
        MemoryPolicy::SlowdownAware { max_dilation: 1.35 },
        MemoryPolicy::LaxityAware { max_dilation: 1.4 },
    ];

    /// Stamp most of `queue` with random deadlines, tight to lenient, so
    /// admission sees lost, feasible and unconstrained jobs.
    fn stamp_randomly(rng: &mut Pcg64, queue: &mut WaitQueue) {
        for e in queue.entries_mut() {
            e.job.slo = match rng.bounded_u64(4) {
                0 => None,
                1 => Some(dmhpc_workload::Slo::BudgetFactor {
                    factor: 0.25 + rng.bounded_u64(400) as f64 / 100.0,
                }),
                _ => Some(dmhpc_workload::Slo::Deadline {
                    deadline_s: 1.0 + rng.bounded_u64(30_000) as f64,
                }),
            };
        }
    }

    /// `AdmissionPolicy::assess` as it read before pricing was memoized:
    /// nominal shape first, then the best dilation, every time.
    fn reference_verdict(
        policy: AdmissionPolicy,
        job: &Job,
        ctx: &SchedContext<'_>,
        placement: &dyn Placement,
    ) -> AdmissionVerdict {
        if policy == AdmissionPolicy::AdmitAll {
            return AdmissionVerdict::Admit;
        }
        let (Some(deadline), Some(laxity)) = (ctx.deadline(job), ctx.laxity_s(job)) else {
            return AdmissionVerdict::Admit;
        };
        let Some((demand, _)) = placement.nominal_shape(job, ctx) else {
            return AdmissionVerdict::Admit;
        };
        let best = placement.best_dilation(job, ctx).unwrap_or(1.0);
        let wall = job.walltime.as_secs_f64();
        let meets = laxity >= 0.0 && wall * (best - 1.0) <= laxity;
        if policy == AdmissionPolicy::RejectInfeasible {
            let up = ctx.cluster.available_nodes() >= demand.nodes as usize;
            return if meets && up {
                AdmissionVerdict::Admit
            } else {
                AdmissionVerdict::Reject(RejectReason::DeadlineInfeasible)
            };
        }
        if !meets {
            return AdmissionVerdict::Reject(RejectReason::DeadlineInfeasible);
        }
        let lapse = SimTime::from_secs_f64(deadline.as_secs_f64() - wall * best);
        let recheck_at = if lapse > ctx.now { lapse } else { deadline };
        AdmissionVerdict::Defer { recheck_at }
    }

    /// The naive admission pass: `AdmissionPolicy::assess` per queued job,
    /// nothing memoized, each verdict checked against the reference.
    fn naive_admission(
        sched: &Scheduler,
        now: SimTime,
        queue: &mut WaitQueue,
        cluster: &Cluster,
        running: ReleaseView<'_>,
    ) -> PassResult {
        let mut result = PassResult::default();
        let ctx = sched.ctx(now, cluster, running);
        let placement = sched.placement.as_ref();
        let mut idx = 0;
        while idx < queue.len() {
            let job = &queue.get(idx).unwrap().job;
            let verdict = sched.cfg.admission.assess(job, &ctx, placement);
            let reference = reference_verdict(sched.cfg.admission, job, &ctx, placement);
            assert_eq!(verdict, reference, "assess diverged from the reference");
            match verdict {
                AdmissionVerdict::Admit => idx += 1,
                AdmissionVerdict::Defer { recheck_at } => {
                    result.deferred.push((job.id, recheck_at));
                    let earliest = result.recheck_at.map_or(recheck_at, |t| t.min(recheck_at));
                    result.recheck_at = Some(earliest);
                    idx += 1;
                }
                AdmissionVerdict::Reject(reason) => {
                    result.rejected.push((queue.remove(idx).job, reason));
                }
            }
        }
        result
    }

    /// Differential oracle: the memoized admission pass decides exactly
    /// what a naive per-job `assess` loop decides, on seeded random
    /// queues over healthy and degraded machines, for both admission
    /// modes and every built-in placement. Each case runs two passes —
    /// the second after the machine changed, on entries the first one
    /// priced — so memo hits are compared too.
    #[test]
    fn admission_pass_matches_naive_assess_loop() {
        let mut rng = Pcg64::new(1313);
        let (mut rejected, mut deferred, mut degraded, mut repriced) = (0, 0, 0, 0);
        for case in 0..400 {
            let now = SimTime::from_secs(5_000);
            let (mut cluster, running, mut queue) = random_state(&mut rng, now);
            stamp_randomly(&mut rng, &mut queue);
            let admission = if rng.bounded_u64(2) == 0 {
                AdmissionPolicy::RejectInfeasible
            } else {
                AdmissionPolicy::DeferUntilFeasible
            };
            let memory = PLACEMENTS[case % PLACEMENTS.len()];
            let sched = Scheduler::new(
                SchedulerBuilder::new()
                    .memory(memory)
                    .admission(admission)
                    .build(),
            )
            .unwrap();
            let mut naive_queue = queue.clone();
            let label = format!("case {case}: {}", sched.config().full_label());
            for pass in 0..2 {
                let now = now + SimDuration::from_secs(pass * rng.bounded_u64(4_000));
                if pass == 1 {
                    // Change occupancy or health between the passes.
                    if rng.bounded_u64(2) == 0 {
                        let node = cluster.free_node_iter().next();
                        if let Some(node) = node {
                            cluster.fail_node(node).unwrap();
                        }
                    } else if !cluster.pools().is_empty() {
                        cluster
                            .set_pool_health(dmhpc_platform::PoolId(0), 0.5)
                            .unwrap();
                    }
                    repriced += queue.len();
                }
                let mut got = PassResult::default();
                sched.admission_pass(now, &mut queue, &cluster, running.view(), &mut got);
                let want = naive_admission(&sched, now, &mut naive_queue, &cluster, running.view());
                let rejects = |r: &PassResult| -> Vec<(u64, RejectReason)> {
                    r.rejected.iter().map(|(j, why)| (j.id.0, *why)).collect()
                };
                assert_eq!(
                    rejects(&got),
                    rejects(&want),
                    "{label} pass {pass}: rejected"
                );
                assert_eq!(got.deferred, want.deferred, "{label} pass {pass}: deferred");
                assert_eq!(
                    got.recheck_at, want.recheck_at,
                    "{label} pass {pass}: recheck"
                );
                let left = |q: &WaitQueue| -> Vec<u64> { q.iter().map(|e| e.job.id.0).collect() };
                assert_eq!(
                    left(&queue),
                    left(&naive_queue),
                    "{label} pass {pass}: queue"
                );
                rejected += want.rejected.len();
                deferred += want.deferred.len();
                degraded += usize::from(cluster.available_nodes() < cluster.total_nodes() as usize);
            }
        }
        assert!(
            rejected >= 1_000 && deferred >= 1_000 && degraded >= 200 && repriced >= 2_000,
            "oracle coverage: {rejected} rejects, {deferred} defers, \
             {degraded} degraded passes, {repriced} memo hits"
        );
    }

    /// Boundary oracle for the admit-until memo: after a first pass on a
    /// healthy machine, passes run exactly at each admitted entry's
    /// memoized instant `T` (the last one its laxity test holds, a memo
    /// hit) and at `T + 1 µs` (the first re-pricing), on the healthy
    /// machine and with nodes failed, and must decide what the naive
    /// per-job `assess` loop decides. An off-by-one `T` admits a job the
    /// naive loop rejects at `T + 1 µs`.
    #[test]
    fn admission_memo_boundaries_match_naive_assess_loop() {
        let mut rng = Pcg64::new(1717);
        let (mut at_t, mut past_t, mut degraded) = (0, 0, 0);
        for case in 0..320 {
            let now = SimTime::from_secs(5_000);
            let (cluster, running, mut queue) = random_state(&mut rng, now);
            if cluster.available_nodes() < cluster.total_nodes() as usize {
                continue; // memos are only made with every node up
            }
            stamp_randomly(&mut rng, &mut queue);
            let memory = PLACEMENTS[case % PLACEMENTS.len()];
            let sched = Scheduler::new(
                SchedulerBuilder::new()
                    .memory(memory)
                    .admission(AdmissionPolicy::RejectInfeasible)
                    .build(),
            )
            .unwrap();
            let label = format!("case {case}: {}", sched.config().full_label());
            let mut first = PassResult::default();
            sched.admission_pass(now, &mut queue, &cluster, running.view(), &mut first);
            let memos: Vec<SimTime> = queue.iter().filter_map(|e| e.admit_until_memo()).collect();
            // Each memo is exact: the laxity test holds at `T` and fails
            // one µs later, unless `T` is the deadline itself.
            for e in queue.iter() {
                let Some(until) = e.admit_until_memo() else {
                    continue;
                };
                let best = e.best_dilation(&sched.ctx(now, &cluster, running.view()), &memory);
                let meets_at = |t: SimTime| {
                    let ctx = sched.ctx(t, &cluster, running.view());
                    crate::DeadlinePrice::of(&e.job, &ctx)
                        .map(|p| (p.meets(best.unwrap_or(1.0)), p))
                };
                let (held, price) = meets_at(until).unwrap();
                assert!(held, "{label}: job {} fails at its memo", e.job.id.0);
                let past = meets_at(until + SimDuration::from_micros(1)).unwrap().0;
                assert!(
                    until == price.deadline || !past,
                    "{label}: job {} still meets the test after its memo",
                    e.job.id.0
                );
            }
            let mut broken = cluster.clone();
            for n in 0..1 + rng.bounded_u64(u64::from(cluster.total_nodes())) {
                broken.fail_node(dmhpc_platform::NodeId(n as u32)).unwrap();
            }
            for until in memos {
                for at in [until, until + SimDuration::from_micros(1)] {
                    for machine in [&cluster, &broken] {
                        let healthy = machine.available_nodes() == machine.total_nodes() as usize;
                        let mut got_queue = queue.clone();
                        let mut naive_queue = queue.clone();
                        let mut got = PassResult::default();
                        sched.admission_pass(at, &mut got_queue, machine, running.view(), &mut got);
                        let want =
                            naive_admission(&sched, at, &mut naive_queue, machine, running.view());
                        let pass = format!("{label} at {at:?} healthy {healthy}");
                        let rejects = |r: &PassResult| -> Vec<(u64, RejectReason)> {
                            r.rejected.iter().map(|(j, why)| (j.id.0, *why)).collect()
                        };
                        assert_eq!(rejects(&got), rejects(&want), "{pass}: rejected");
                        let left =
                            |q: &WaitQueue| -> Vec<u64> { q.iter().map(|e| e.job.id.0).collect() };
                        assert_eq!(left(&got_queue), left(&naive_queue), "{pass}: queue");
                        if !healthy {
                            degraded += 1;
                            continue;
                        }
                        let memo_is = |t: SimTime| {
                            queue
                                .iter()
                                .filter(|e| e.admit_until_memo() == Some(t))
                                .count()
                        };
                        if at == until {
                            at_t += memo_is(at);
                        } else {
                            past_t += memo_is(until);
                        }
                    }
                }
            }
        }
        assert!(
            at_t >= 1_000 && past_t >= 1_000 && degraded >= 100,
            "oracle coverage: {at_t} entries hit at T, {past_t} re-priced at T + 1 µs, \
             {degraded} degraded passes"
        );
    }

    /// The contracts admission's shortcuts rest on, for every built-in
    /// placement on random pass instants, occupancy and health:
    /// `best_dilation` equals its answer on an idle, healthy machine at
    /// another instant, and a `Some` nominal shape fits the machine.
    #[test]
    fn built_in_placements_honour_pricing_contracts() {
        let mut rng = Pcg64::new(2024);
        let model = SlowdownModel::Linear { penalty: 1.5 };
        for case in 0..300 {
            let now = SimTime::from_secs(1_000 + rng.bounded_u64(20_000));
            let (cluster, running, mut queue) = random_state(&mut rng, now);
            stamp_randomly(&mut rng, &mut queue);
            let idle = Cluster::new(*cluster.spec());
            let busy_ctx = SchedContext::new(now, &cluster, &model, running.view(), None);
            let idle_ctx =
                SchedContext::new(SimTime::ZERO, &idle, &model, ReleaseView::empty(), None);
            let total = cluster.total_nodes();
            for memory in PLACEMENTS {
                for e in queue.iter() {
                    let job = &e.job;
                    let label = format!("case {case}: {} job {}", memory.name(), job.id.0);
                    assert_eq!(
                        Placement::best_dilation(&memory, job, &busy_ctx).map(f64::to_bits),
                        Placement::best_dilation(&memory, job, &idle_ctx).map(f64::to_bits),
                        "{label}: best_dilation read pass state"
                    );
                    if let Some((demand, _)) = Placement::nominal_shape(&memory, job, &busy_ctx) {
                        assert!(demand.nodes <= total, "{label}: {} nodes", demand.nodes);
                    }
                }
            }
        }
    }

    /// A placement whose best dilation is a dial the test turns, counting
    /// its calls.
    #[derive(Debug, Default)]
    struct Dial {
        dilation_bits: std::sync::atomic::AtomicU64,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl Dial {
        fn shared(dilation: f64) -> std::sync::Arc<Self> {
            let dial = Dial::default();
            dial.set(dilation);
            std::sync::Arc::new(dial)
        }
        fn set(&self, dilation: f64) {
            use std::sync::atomic::Ordering::Relaxed;
            self.dilation_bits.store(dilation.to_bits(), Relaxed);
        }
        fn calls(&self) -> usize {
            self.calls.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl Placement for std::sync::Arc<Dial> {
        fn name(&self) -> &str {
            "dial"
        }
        fn nominal_shape(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<(Demand, f64)> {
            Placement::nominal_shape(&MemoryPolicy::LocalOnly, job, ctx)
        }
        fn plan(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<PlannedAllocation> {
            Placement::plan(&MemoryPolicy::LocalOnly, job, ctx)
        }
        fn best_dilation(&self, _: &Job, _: &SchedContext<'_>) -> Option<f64> {
            use std::sync::atomic::Ordering::Relaxed;
            self.calls.fetch_add(1, Relaxed);
            Some(f64::from_bits(self.dilation_bits.load(Relaxed)))
        }
    }

    fn dial_scheduler(dial: &std::sync::Arc<Dial>) -> Scheduler {
        Scheduler::with_policies(
            SchedulerBuilder::new()
                .admission(AdmissionPolicy::RejectInfeasible)
                .build(),
            Box::new(OrderPolicy::Fcfs),
            Box::new(dial.clone()),
        )
        .unwrap()
    }

    /// Admission prices each queued job once: later passes reuse the memo
    /// (debug builds add one checking call per hit), and a job removed
    /// and pushed again — as the engine resubmits interrupted work — is a
    /// new entry, priced afresh.
    #[test]
    fn admission_prices_each_entry_once_and_resubmits_afresh() {
        let dial = Dial::shared(1.0);
        let sched = dial_scheduler(&dial);
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park_all(&mut cluster, &mut running, 10_000);
        let mut queue = WaitQueue::new();
        // Walltime 100 s, deadline t = 300: laxity 200 s at t = 0.
        queue.push(stamped_job(1, 100, 300.0), SimTime::ZERO);
        queue.push(stamped_job(2, 100, 300.0), SimTime::ZERO);
        let pass = |queue: &mut WaitQueue, cluster: &mut Cluster| {
            sched.schedule(SimTime::ZERO, queue, cluster, running.view())
        };
        assert!(pass(&mut queue, &mut cluster).rejected.is_empty());
        assert_eq!(dial.calls(), 2, "one pricing call per entry");
        for _ in 0..3 {
            assert!(pass(&mut queue, &mut cluster).rejected.is_empty());
        }
        let checks = if cfg!(debug_assertions) { 3 * 2 } else { 0 };
        assert_eq!(dial.calls(), 2 + checks, "later passes hit the memo");

        // Resubmit job 1 after the placement's answer changed: dilation 4
        // needs 300 s of laxity, so the fresh entry is rejected while the
        // memo would have admitted it.
        let entry = queue.remove(0);
        queue.remove(0);
        dial.set(4.0);
        queue.push(entry.job, SimTime::ZERO);
        let ids: Vec<u64> = {
            let result = pass(&mut queue, &mut cluster);
            result.rejected.iter().map(|(j, _)| j.id.0).collect()
        };
        assert_eq!(ids, vec![1], "the resubmitted job is priced afresh");
    }

    /// A placement that breaks the `best_dilation` contract trips the
    /// memo's debug check instead of silently using a stale price.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "changed since it was memoized")]
    fn stale_memo_trips_debug_check() {
        let dial = Dial::shared(1.0);
        let sched = dial_scheduler(&dial);
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park_all(&mut cluster, &mut running, 10_000);
        let mut queue = WaitQueue::new();
        queue.push(stamped_job(1, 100, 300.0), SimTime::ZERO);
        sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
        dial.set(1.5);
        sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
    }

    /// Engine-level oracle: the production pass and the naive reference
    /// pass side by side through seeded event loops — arrivals, finishes
    /// at the planned walltime, node failures and repairs — so they meet
    /// the deep, reservation-shaped profiles of a real run, not only
    /// single random states. Every pass must decide identically.
    #[test]
    fn pass_trajectory_matches_naive_reference() {
        use std::collections::BTreeSet;
        let mut rng = Pcg64::new(5151);
        let (mut passes, mut deepest, mut backfilled, mut failures) = (0, 0, 0, 0);
        let mut horizon_only = 0;
        for case in 0..2 * PLACEMENTS.len() {
            let memory = PLACEMENTS[case % PLACEMENTS.len()];
            let (backfill, jobs) = if case < PLACEMENTS.len() {
                (BackfillPolicy::Easy, 240)
            } else {
                (BackfillPolicy::Conservative, 90)
            };
            let sched = Scheduler::new(
                SchedulerBuilder::new()
                    .order(if case % 3 == 0 {
                        OrderPolicy::Sjf
                    } else {
                        OrderPolicy::Fcfs
                    })
                    .backfill(backfill)
                    .memory(memory)
                    .inflate_walltime(case % 2 == 0)
                    .build(),
            )
            .unwrap();
            let racks = 2 + rng.bounded_u64(3) as u32;
            let per_rack = 3 + rng.bounded_u64(4) as u32;
            let pool = match case % 3 {
                0 => PoolTopology::None,
                1 => PoolTopology::PerRack {
                    mib_per_rack: (64 + rng.bounded_u64(256)) * GIB,
                },
                _ => PoolTopology::Global {
                    mib: (128 + rng.bounded_u64(512)) * GIB,
                },
            };
            let mut cluster = Cluster::new(ClusterSpec::new(
                racks,
                per_rack,
                NodeSpec::new(64, 256 * GIB),
                pool,
            ));
            // Arrivals come much faster than the machine drains them, so
            // the queue grows deep before it empties.
            let mut arrival = 0;
            let mut arrivals: Vec<Job> = (0..jobs)
                .map(|id| {
                    arrival += rng.bounded_u64(120);
                    let wall = 600 + rng.bounded_u64(20_000);
                    JobBuilder::new(id)
                        .arrival_secs(arrival)
                        .nodes(1 + rng.bounded_u64(u64::from(per_rack) + 1) as u32)
                        .mem_per_node((16 + rng.bounded_u64(400)) * GIB)
                        .intensity(rng.bounded_u64(100) as f64 / 100.0)
                        .runtime_secs(1 + rng.bounded_u64(wall), wall)
                        .build()
                })
                .collect();
            arrivals.reverse();
            let mut queue = WaitQueue::new();
            let mut running = ReleaseIndex::new();
            let mut ends: BTreeSet<(SimTime, u64)> = BTreeSet::new();
            let mut repairs: BTreeSet<(SimTime, u32)> = BTreeSet::new();
            let mut step = 0;
            loop {
                let next_arrival = arrivals.last().map(|j| j.arrival);
                let next_end = ends.first().map(|&(t, _)| t);
                let next_repair = repairs.first().map(|&(t, _)| t);
                let Some(now) = [next_arrival, next_end, next_repair]
                    .into_iter()
                    .flatten()
                    .min()
                else {
                    break;
                };
                while let Some(&(end, lease)) = ends.first().filter(|&&(end, _)| end <= now) {
                    ends.remove(&(end, lease));
                    cluster.release(lease).unwrap();
                    running.remove(lease).unwrap();
                }
                while let Some(&(at, node)) = repairs.first().filter(|&&(at, _)| at <= now) {
                    repairs.remove(&(at, node));
                    cluster.repair_node(dmhpc_platform::NodeId(node)).unwrap();
                }
                while arrivals.last().is_some_and(|j| j.arrival <= now) {
                    let job = arrivals.pop().unwrap();
                    queue.push(job, now);
                }
                // Now and then a free node fails until a later repair.
                let free = cluster.free_node_iter().next();
                if let Some(node) = free.filter(|_| rng.bounded_u64(10) == 0) {
                    cluster.fail_node(node).unwrap();
                    let back = now + SimDuration::from_secs(1 + rng.bounded_u64(20_000));
                    repairs.insert((back, node.0));
                    failures += 1;
                }
                if queue.is_empty() {
                    continue;
                }
                deepest = deepest.max(queue.len());
                let (mut naive_cluster, mut naive_queue) = (cluster.clone(), queue.clone());
                let got = sched.schedule(now, &mut queue, &mut cluster, running.view());
                let want = naive_schedule(
                    &sched,
                    now,
                    &mut naive_queue,
                    &mut naive_cluster,
                    running.view(),
                    &mut horizon_only,
                );
                let ctx = format!("case {case} ({}) pass {step} at {now}", sched.label());
                assert_same_pass(&got, &want, &queue, &naive_queue, &ctx);
                let first_left = queue.iter().map(|e| (e.job.arrival, e.job.id)).min();
                for s in got.started {
                    let end = now + s.planned_walltime;
                    let lease = s.job.id.as_u64();
                    running.insert(lease, RunningRelease::of(&cluster, &s.assignment, end));
                    ends.insert((end, lease));
                    backfilled +=
                        usize::from(first_left.is_some_and(|f| (s.job.arrival, s.job.id) > f));
                }
                cluster.verify_invariants().unwrap();
                passes += 1;
                step += 1;
            }
        }
        assert!(
            passes >= 2_000
                && deepest >= 150
                && backfilled >= 300
                && failures >= 100
                && horizon_only >= 1_000,
            "trajectory coverage: {passes} passes, queue depth up to {deepest}, \
             {backfilled} backfills, {failures} node failures, \
             {horizon_only} candidates only the node horizon prunes"
        );
    }

    /// A placement that runs a whole nested EASY pass, on a machine of its
    /// own, inside every `plan` call before answering like the placement
    /// it wraps.
    #[derive(Debug)]
    struct Nesting(MemoryPolicy);

    impl Placement for Nesting {
        fn name(&self) -> &str {
            "nesting"
        }
        fn nominal_shape(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<(Demand, f64)> {
            Placement::nominal_shape(&self.0, job, ctx)
        }
        fn plan(&self, candidate: &Job, ctx: &SchedContext<'_>) -> Option<PlannedAllocation> {
            let mut cluster = small_cluster();
            let mut running = ReleaseIndex::new();
            park(&mut cluster, &mut running, 100, &[0, 1], 0, 100);
            let mut queue = WaitQueue::new();
            queue.push(job(1, 4, 500, 1000), SimTime::ZERO);
            queue.push(job(2, 2, 50, 100), SimTime::ZERO);
            let nested =
                fcfs_easy().schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
            assert_eq!(ids(&nested.started), vec![2], "the nested pass backfilled");
            Placement::plan(&self.0, candidate, ctx)
        }
    }

    /// A pass run from inside a placement callback finds fresh buffers
    /// (the outer pass has taken its own out), so it neither panics nor
    /// changes what the outer pass decides.
    #[test]
    fn nested_pass_in_a_placement_callback_leaves_decisions_alone() {
        let mut rng = Pcg64::new(606);
        let now = SimTime::from_secs(5_000);
        let mut backfilled = 0;
        for case in 0..60 {
            let (cluster, running, queue) = random_state(&mut rng, now);
            let memory = PLACEMENTS[case % PLACEMENTS.len()];
            let backfill = if case % 2 == 0 {
                BackfillPolicy::Easy
            } else {
                BackfillPolicy::Conservative
            };
            let cfg = SchedulerBuilder::new()
                .backfill(backfill)
                .memory(memory)
                .build();
            let plain = Scheduler::new(cfg).unwrap();
            let nesting = Scheduler::with_policies(
                cfg,
                Box::new(OrderPolicy::Fcfs),
                Box::new(Nesting(memory)),
            )
            .unwrap();
            let (mut c1, mut q1) = (cluster.clone(), queue.clone());
            let (mut c2, mut q2) = (cluster, queue);
            let got = nesting.schedule(now, &mut q1, &mut c1, running.view());
            let want = plain.schedule(now, &mut q2, &mut c2, running.view());
            assert_same_pass(&got, &want, &q1, &q2, &format!("case {case}"));
            backfilled += got.started.len();
        }
        assert!(backfilled >= 30, "coverage: {backfilled} starts");
    }

    /// In steady state the backfill pass allocates no profile, witness or
    /// scan buffer: a repeat of the same pass finds every buffer where
    /// the first one left it.
    #[test]
    fn backfill_pass_reuses_its_buffers() {
        let addrs = || {
            let scratch = PASS_SCRATCH.replace(PassScratch::new());
            let mut addrs = scratch.profile.buffer_addrs().to_vec();
            addrs.extend(scratch.horizons.buffer_addrs());
            addrs.extend([
                scratch.witness.as_ptr() as usize,
                scratch.pool_min.as_ptr() as usize,
                scratch.plan_split.as_ptr() as usize,
            ]);
            PASS_SCRATCH.set(scratch);
            addrs
        };
        for backfill in [BackfillPolicy::Easy, BackfillPolicy::Conservative] {
            let sched = Scheduler::new(
                SchedulerBuilder::new()
                    .backfill(backfill)
                    .memory(MemoryPolicy::PoolFirstFit)
                    .build(),
            )
            .unwrap();
            let pass = || {
                let mut cluster = small_cluster();
                let mut running = ReleaseIndex::new();
                park(&mut cluster, &mut running, 100, &[0], 20 * GIB, 100);
                park(&mut cluster, &mut running, 101, &[1], 0, 300);
                let mut queue = WaitQueue::new();
                queue.push(job(1, 4, 500, 1000), SimTime::ZERO);
                queue.push(job(2, 1, 50, 100), SimTime::ZERO);
                queue.push(job(3, 2, 300, 400), SimTime::ZERO);
                let result =
                    sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
                assert_eq!(ids(&result.started), vec![2], "{}", backfill.name());
            };
            pass();
            let first = addrs();
            // An empty `Vec`'s pointer is a dangling one equal to its
            // alignment; every buffer must have been grown by the pass.
            let dangling = std::mem::align_of::<u64>();
            assert!(
                first.iter().all(|&a| a > dangling),
                "{}: unused buffer",
                backfill.name()
            );
            pass();
            assert_eq!(addrs(), first, "{}: buffers moved", backfill.name());
        }
    }

    /// `planned_walltime`'s contract: inflation by any dilation ≥ 1 never
    /// shortens a walltime, including where `SimDuration::scale` rounds
    /// (walltimes past 2^53 µs are not exact as `f64`).
    #[test]
    fn inflation_never_shortens_a_walltime() {
        let sched = fcfs_easy();
        let mut rng = Pcg64::new(17);
        let mut walls: Vec<u64> = vec![0, 1, 2, 3, 1 << 40];
        for bit in [53, 54, 60, 62] {
            walls.extend([(1u64 << bit) - 1, 1 << bit, (1 << bit) + 1, (1 << bit) + 3]);
        }
        walls.extend((0..64).map(|shift| rng.next_u64() >> shift));
        let next_up = f64::from_bits(1.0f64.to_bits() + 1);
        let mut dilations = vec![1.0, next_up, 1.0 + 1e-12, 1.0 + 1e-6, 1.35, 1.5, 2.0, 3.7];
        dilations.extend((0..32).map(|_| 1.0 + rng.next_f64() * 3.0));
        let mut checked = 0;
        for &wall in &walls {
            let mut j = job(1, 1, 1, 1);
            j.walltime = SimDuration::from_micros(wall);
            for &dilation in &dilations {
                if wall as f64 * dilation >= u64::MAX as f64 {
                    continue; // `scale` refuses durations past u64
                }
                let planned = sched.planned_walltime(&j, dilation);
                assert!(
                    planned >= j.walltime,
                    "{wall} µs × {dilation} planned as {} µs",
                    planned.as_micros()
                );
                checked += 1;
            }
        }
        assert!(checked >= 2_000, "coverage: {checked} walltimes");
    }
}
