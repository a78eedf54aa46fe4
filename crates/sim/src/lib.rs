//! # dmhpc-sim — the end-to-end batch-scheduling simulator
//!
//! Binds the DES kernel, platform, workload, scheduler and metrics crates
//! into a deterministic simulator behind a declarative experiment API:
//!
//! * [`experiment`] — the public entry point for studies:
//!   [`ExperimentSpec`] (a JSON-(de)serializable description of a run
//!   grid: clusters × loads × seeds × schedulers), [`ExperimentRunner`]
//!   (parallel execution with deterministic, grid-ordered results), and
//!   [`ExperimentResults`] (labelled per-cell outputs with CSV/JSON
//!   export).
//! * [`Simulation`] — one run: the event loop where arrivals enqueue
//!   jobs, completions release capacity, and a scheduling pass runs after
//!   every event batch. Running jobs carry **work-remaining** state, so
//!   the contention-aware slowdown model can re-dilate in-flight jobs
//!   exactly whenever pool pressure changes (stale finish events are
//!   invalidated by finish stamps). Construction is fallible
//!   ([`SimError`]); custom [`dmhpc_sched::Ordering`]/
//!   [`dmhpc_sched::Placement`] policies plug in via
//!   [`Simulation::with_policies`].
//! * [`SimConfig`] — machine × scheduler × execution-model configuration.
//! * [`observe`] — the streaming observation API: the engine emits a
//!   typed [`observe::SimEvent`] per state change, all metrics are
//!   built-in [`observe::Observer`]s (so [`SimOutput`] is assembled from
//!   the default observer set, bit-identically), and pluggable consumers
//!   ride the same stream — a constant-memory JSONL
//!   [`observe::TraceSink`], a cadence-sampled
//!   [`observe::SampledSeriesProbe`], progress heartbeats. Observers are
//!   hash-neutral by construction.
//! * [`collector`] — time-weighted series (busy nodes, pool use, DRAM use,
//!   queue depth) recorded exactly at every change, maintained by the
//!   series observer.
//! * [`service`] — open-system service mode: a [`ServiceSpec`] describes
//!   a streaming arrival scenario (Poisson / diurnal / MMPP process,
//!   load control by rate or target utilization, a run horizon by job
//!   count or duration, a warmup cutoff). The engine pulls jobs from
//!   the source one ahead of the clock — the same arrival cursor closed
//!   runs read their workload through — and metrics come from
//!   O(1)-memory sketches
//!   ([`observe::SketchStatsObserver`]) instead of per-job records.
//! * [`sweep`] — scoped-thread parallel fan-out with deterministic result
//!   ordering (the runner's execution substrate).
//! * [`scenarios`] — the axis vocabulary (preset machines, calibrated
//!   workloads, the paper's policy suite) experiment specs compose.
//!
//! Determinism: a run is a pure function of `(SimConfig, Workload)`. The
//! output carries a trace hash; two runs of the same inputs produce the
//! same hash — and the experiment runner produces identical per-cell
//! hashes at any thread count (both tested), which is what makes the
//! experiment tables trustworthy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
mod config;
mod engine;
mod error;
pub mod experiment;
pub mod faults;
pub mod federation;
pub mod observe;
pub mod scenarios;
pub mod service;
pub mod sweep;

pub use collector::SeriesBundle;
pub use config::SimConfig;
pub use engine::{ObserverSet, SimOutput, Simulation};
pub use error::SimError;
pub use experiment::{
    CellKey, CellResult, ExperimentBuilder, ExperimentResults, ExperimentRunner, ExperimentSpec,
    ResultCache, RunSpec, RunStats, Shard, WorkloadSource,
};
pub use faults::{FaultAction, FaultGenerator, FaultSpec, InterruptPolicy};
pub use federation::{FleetOutput, FleetSimulation, FleetSpec, SiteSpec};
pub use observe::{
    EventCounter, Observer, ObserverFactory, ProgressObserver, RunLabel, SampledSeriesProbe,
    SimEvent, SketchStatsObserver, TraceDir, TraceSink,
};
pub use service::{ServiceLoad, ServiceSpec};
