//! # dmhpc-sched — batch scheduling with disaggregated memory
//!
//! The paper's contribution: schedulers that order, backfill, and place jobs
//! on a cluster whose memory is partly disaggregated.
//!
//! The crate decomposes a scheduler into three orthogonal policies, combined
//! by [`Scheduler`]:
//!
//! * [`OrderPolicy`] — who goes first: FCFS, shortest-job-first, the
//!   WFP-style utility function used on leadership systems, and the
//!   deadline-aware family (EDF, least-laxity, budget-bounded batch
//!   formation) driven by per-job [`dmhpc_workload::Slo`] stamps or a
//!   run-wide SLO target.
//! * [`MemoryPolicy`] — how a job's footprint is placed: `LocalOnly`
//!   (conventional cluster: memory-hungry jobs inflate their node count),
//!   `PoolFirstFit` / `PoolBestFit` (borrow pool memory, first-fit or
//!   best-fit across rack pools), and `SlowdownAware` (borrow only when the
//!   predicted dilation is worth the saved nodes, budgeted by a dilation
//!   cap).
//! * [`BackfillPolicy`] — EASY or conservative backfilling, both running
//!   against the **two-resource** [`AvailabilityProfile`] that forecasts
//!   free nodes *and* free pool bytes per domain, so a backfilled job can
//!   never steal the pool memory a reservation depends on.
//!
//! Ordering and placement are **pluggable**: the [`Ordering`] and
//! [`Placement`] traits define the behaviour, the enums above are the
//! built-in implementations, and [`Scheduler::with_policies`] accepts any
//! boxed pair — downstream users add policies without forking the enums.
//! Every policy call receives a [`SchedContext`]: the pass instant, the
//! read-only cluster, the slowdown model, the running-job release plan,
//! and the active SLO target, plus derived per-job wait/deadline/laxity
//! accessors. Orderings may additionally return a [`PassDirective`] to
//! hold a pass's start set until a latency budget expires.
//!
//! Deadlines flow through all three scheduling decisions, not just
//! ordering: [`MemoryPolicy::LaxityAware`] placement prefers shapes whose
//! dilated finish still meets the job's deadline, an [`AdmissionPolicy`]
//! rejects or defers jobs whose deadline no up-capacity placement can
//! meet (with typed [`RejectReason`]s), and a [`PreemptPolicy`] lets a
//! deadline-critical arrival checkpoint the laxity-richest running jobs.
//! All three default to inert variants that leave labels, hashes, and
//! serialized specs untouched.
//!
//! Construction is fallible: [`SchedulerBuilder::build`] yields a plain
//! [`SchedulerConfig`] value, and [`Scheduler::new`] validates it with
//! typed [`dmhpc_platform::PlatformError`]s instead of panicking.
//!
//! Above single-cluster scheduling sits the fleet layer: a
//! [`MetaPolicy`] routes each arriving job to one of N federated sites
//! from [`SiteSnapshot`]s taken at epoch barriers (round-robin,
//! least-queue-depth, and least-memory-pressure built-ins via
//! [`MetaPolicyKind`]); the federation engine in `dmhpc-sim` drives it.
//!
//! Scheduling passes mutate a [`dmhpc_platform::Cluster`] directly and
//! return the jobs started; the simulation engine in `dmhpc-sim` wires
//! passes to events. Passes are **incremental** on the engine side: the
//! planned releases of running jobs live in a persistent [`ReleaseIndex`]
//! (sorted by planned end, updated on start/finish) and each pass receives
//! a read-only [`ReleaseView`] instead of a freshly rebuilt release list.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod memory;
mod meta;
mod order;
mod policy;
mod profile;
mod queue;
mod release;
mod traits;

pub use admission::{
    AdmissionPolicy, AdmissionVerdict, DeadlinePrice, PreemptPolicy, RejectReason,
};
pub use memory::{MemoryPolicy, PlannedAllocation};
pub use meta::{
    LeastMemoryPressure, LeastQueueDepth, MetaPolicy, MetaPolicyKind, RoundRobin, SiteSnapshot,
};
pub use order::OrderPolicy;
pub use policy::{
    BackfillPolicy, PassResult, Scheduler, SchedulerBuilder, SchedulerConfig, StartedJob,
};
pub use profile::{AvailabilityProfile, Demand, NodeHorizons};
pub use queue::{QueuedJob, WaitQueue};
pub use release::{ReleaseIndex, ReleaseView, RunningRelease};
pub use traits::{Ordering, PassDirective, Placement, SchedContext};
