//! Grid execution.

use super::cache::{self, ResultCache};
use super::results::{CellResult, ExperimentResults, RunStats};
use super::shard::Shard;
use super::{ExperimentSpec, RunSpec, WorkloadSource};
use crate::engine::{ObserverSet, Simulation};
use crate::error::SimError;
use crate::federation::FleetSimulation;
use crate::observe::{Observer, ObserverFactory, RunLabel, TraceDir};
use crate::sweep::run_parallel;
use dmhpc_workload::{transform, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Executes every cell of an [`ExperimentSpec`] and returns the labelled
/// result table.
///
/// Workloads are materialized once per distinct `(seed, load, node-count)`
/// combination and shared across cells, then the cells fan out over the
/// [`run_parallel`] worker pool. Results come back in grid order no matter
/// how many threads run, and each cell's simulation is a pure function of
/// its cell config and workload — so the whole experiment is deterministic
/// (the 1-thread and N-thread runs produce identical per-cell trace
/// hashes; tested).
///
/// Two scaling levers compose with that determinism:
///
/// * **Result caching** ([`ExperimentRunner::cache_dir`]): each cell is
///   content-addressed by a stable hash of everything that determines its
///   result; cached cells are loaded instead of simulated, bit-identically.
///   Re-running an edited spec therefore re-executes only the cells whose
///   hash changed — incremental re-runs for free.
/// * **Sharding** ([`ExperimentRunner::run_shard`]): N processes each run
///   a disjoint slice of the grid; [`ExperimentResults::merge`] (or a warm
///   cached run over the full spec) recombines them.
#[derive(Clone, Default)]
pub struct ExperimentRunner {
    threads: usize,
    cache: Option<ResultCache>,
    /// Per-cell observer factories (see [`ExperimentRunner::observe`]).
    observers: Vec<Arc<dyn ObserverFactory>>,
}

impl std::fmt::Debug for ExperimentRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentRunner")
            .field("threads", &self.threads)
            .field("cache", &self.cache)
            .field("observers", &self.observers.len())
            .finish()
    }
}

/// Workload-cache key: `(seed, load bits, cluster node count)`. Loads are
/// keyed by bit pattern — exact float identity is what the grid axes mean.
type WorkloadKey = (Option<u64>, Option<u64>, u32);

impl ExperimentRunner {
    /// A runner using one worker per available core.
    pub fn new() -> Self {
        Self::default()
    }

    /// A runner with an explicit worker count (`0` = one per core, `1` =
    /// serial).
    pub fn with_threads(threads: usize) -> Self {
        ExperimentRunner {
            threads,
            ..Self::default()
        }
    }

    /// Attach a content-addressed result cache rooted at `dir` (created if
    /// missing). Subsequent runs load unchanged cells from the cache and
    /// store every freshly simulated cell.
    pub fn cache_dir(self, dir: impl Into<PathBuf>) -> Result<Self, SimError> {
        Ok(self.cache(ResultCache::open(dir)?))
    }

    /// Attach an already opened [`ResultCache`].
    pub fn cache(mut self, cache: ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attach a per-cell observer factory: every *simulated* cell creates
    /// one fresh observer (named by `spec.name` + cell label) and feeds it
    /// the cell's event stream. Hash-neutral — observers never change a
    /// cell's result, its hash, or its cache entry — and cells served
    /// from the cache are not re-simulated, so they produce no
    /// observations (run without `cache_dir`, or with a cold cache, to
    /// observe every cell).
    pub fn observe(mut self, factory: Arc<dyn ObserverFactory>) -> Self {
        self.observers.push(factory);
        self
    }

    /// Convenience for the common factory: stream every simulated cell's
    /// event trace to `dir/<spec>.<cell>.jsonl` (constant memory per
    /// cell; see [`crate::TraceSink`]).
    pub fn trace_dir(self, dir: impl Into<PathBuf>) -> Result<Self, SimError> {
        Ok(self.observe(Arc::new(TraceDir::new(dir)?)))
    }

    fn workload_key(cell: &RunSpec) -> WorkloadKey {
        // Fleet cells scale offered load against the whole fleet's
        // capacity (with unpinned sites resolved to the cell's cluster),
        // so `load 0.8` means the same relative pressure federated or not.
        let nodes = if cell.fleet.is_none() {
            cell.config.cluster.total_nodes()
        } else {
            cell.fleet.total_nodes(&cell.config.cluster)
        };
        (cell.key.seed, cell.key.load.map(f64::to_bits), nodes)
    }

    /// Materialize the workload for one cache key.
    fn materialize(
        source: &WorkloadSource,
        seed: Option<u64>,
        load: Option<f64>,
        nodes: u32,
    ) -> Arc<Workload> {
        let base = match source {
            WorkloadSource::Preset { preset, jobs } => {
                // lint: allow(panic) — compile() stamps a seed on every preset cell
                let seed = seed.expect("preset cells carry a seed");
                Arc::new(preset.synthetic_spec(*jobs).generate(seed))
            }
            WorkloadSource::Fixed(w) => Arc::clone(w),
        };
        match load {
            None => match source {
                // Generated workloads are shifted to t=0 even unscaled, so
                // native-load and rescaled cells share a time origin.
                WorkloadSource::Preset { .. } => Arc::new(transform::shift_to_origin(&base)),
                WorkloadSource::Fixed(_) => base,
            },
            Some(load) => {
                let scaled = transform::rescale_load(&base, nodes, load);
                Arc::new(transform::shift_to_origin(&scaled))
            }
        }
    }

    /// Run the whole grid. Grid validation is the only fallible step of
    /// execution itself; with a cache attached, store failures (disk
    /// full, permissions) also surface here.
    pub fn run(&self, spec: &ExperimentSpec) -> Result<ExperimentResults, SimError> {
        let cells = spec.compile()?;
        self.execute(spec, cells)
    }

    /// Run one shard of the grid (see [`Shard`]); the partial results are
    /// in grid order and recombine via [`ExperimentResults::merge`].
    pub fn run_shard(
        &self,
        spec: &ExperimentSpec,
        shard: Shard,
    ) -> Result<ExperimentResults, SimError> {
        let cells = spec.shard(shard)?;
        self.execute(spec, cells)
    }

    fn execute(
        &self,
        spec: &ExperimentSpec,
        cells: Vec<RunSpec>,
    ) -> Result<ExperimentResults, SimError> {
        // Probe the cache first: hits skip both workload materialization
        // and simulation.
        let digest = self
            .cache
            .as_ref()
            .map(|_| cache::workload_digest(&spec.workload));
        let mut slots: Vec<Option<CellResult>> = (0..cells.len()).map(|_| None).collect();
        let mut pending: Vec<(usize, RunSpec, Option<u64>)> = Vec::new();
        for (i, cell) in cells.into_iter().enumerate() {
            if let (Some(cache), Some(digest)) = (&self.cache, digest) {
                let hash = cache::cell_hash(digest, &cell);
                if let Some(output) = cache.load_cell(hash, &cell) {
                    slots[i] = Some(CellResult {
                        key: cell.key,
                        config: cell.config,
                        output,
                    });
                    continue;
                }
                pending.push((i, cell, Some(hash)));
            } else {
                pending.push((i, cell, None));
            }
        }
        let cache_hits = slots.iter().filter(|s| s.is_some()).count();
        let simulated = pending.len();

        // Materialize each distinct workload once, serially: generation is
        // cheap next to simulation and sharing maximizes cache reuse.
        // Service cells stream their jobs from the scenario instead, so
        // they share one empty placeholder workload.
        let empty = Arc::new(Workload::from_jobs(Vec::new()));
        let mut workloads: BTreeMap<WorkloadKey, Arc<Workload>> = BTreeMap::new();
        for (_, cell, _) in &pending {
            if !cell.service.is_none() {
                continue;
            }
            let key = Self::workload_key(cell);
            workloads.entry(key).or_insert_with(|| {
                Self::materialize(&spec.workload, cell.key.seed, cell.key.load, key.2)
            });
        }

        let outputs = run_parallel(pending, self.threads, |(i, cell, hash)| {
            let workload = if cell.service.is_none() {
                &workloads[&Self::workload_key(cell)]
            } else {
                &empty
            };
            // Fleet cells run the federation engine serially (the grid
            // already parallelizes across cells) and report the
            // fleet-level aggregate. They are observation-free: per-site
            // event streams have no single-run identity to attach
            // observers to yet. compile() validated every cell config and
            // fault/service scenario, so construction errors here are
            // bugs — but they ride the per-cell error channel rather than
            // panicking a worker thread.
            if !cell.fleet.is_none() {
                let result = FleetSimulation::new(&cell.fleet, cell.config)
                    .map(|fleet| fleet.run(workload).aggregate);
                return (*i, cell.clone(), *hash, result);
            }
            let result = Simulation::new(cell.config)
                .and_then(|s| s.with_fault_spec(cell.faults.clone()))
                .and_then(|s| s.with_service_spec(cell.service.clone()))
                .and_then(|sim| {
                    // Observers are created in the worker, right before
                    // the cell runs, so open sinks (trace files, fds,
                    // buffers) are bounded by the thread count, not the
                    // grid size. Factory failures ride the same per-cell
                    // channel as deferred sink failures.
                    let run = RunLabel::new(format!("{}.{}", spec.name, cell.key.label()));
                    let mut obs: Vec<Box<dyn Observer>> = self
                        .observers
                        .iter()
                        .map(|f| f.make(&run))
                        .collect::<Result<_, SimError>>()?;
                    let output =
                        sim.try_run_with(workload, ObserverSet::new().watch_boxed(&mut obs))?;
                    match obs.iter().find_map(|o| o.failure()) {
                        Some(e) => Err(e),
                        None => Ok(output),
                    }
                });
            (*i, cell.clone(), *hash, result)
        });

        for (i, cell, hash, result) in outputs {
            let output = result?;
            if let (Some(cache), Some(hash)) = (&self.cache, hash) {
                cache.store_cell(hash, &output)?;
            }
            slots[i] = Some(CellResult {
                key: cell.key,
                config: cell.config,
                output,
            });
        }

        Ok(ExperimentResults::with_stats(
            spec.name.clone(),
            slots
                .into_iter()
                // lint: allow(panic) — the result loop above filled every slot or returned the error
                .map(|slot| slot.expect("every grid slot filled"))
                .collect(),
            RunStats {
                simulated,
                cache_hits,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{default_slowdown, policy_suite};
    use crate::ExperimentSpec;
    use dmhpc_platform::PoolTopology;
    use dmhpc_workload::SystemPreset;

    fn small_spec() -> ExperimentSpec {
        ExperimentSpec::builder("runner-test")
            .preset(SystemPreset::HighThroughput, 60)
            .pools([
                PoolTopology::None,
                PoolTopology::PerRack {
                    mib_per_rack: 384 * 1024,
                },
            ])
            .load(0.8)
            .seed(9)
            .schedulers(policy_suite(default_slowdown()))
            .build()
            .unwrap()
    }

    #[test]
    fn runs_whole_grid_in_order() {
        let spec = small_spec();
        let results = ExperimentRunner::with_threads(2).run(&spec).unwrap();
        assert_eq!(results.len(), spec.cell_count());
        assert_eq!(results.stats().simulated, spec.cell_count());
        assert_eq!(results.stats().cache_hits, 0);
        let compiled = spec.compile().unwrap();
        for (cell, result) in compiled.iter().zip(results.cells()) {
            assert_eq!(cell.key, result.key, "grid order preserved");
            let r = &result.output.report;
            assert_eq!(r.completed + r.killed + r.rejected, 60);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let spec = small_spec();
        let serial = ExperimentRunner::with_threads(1).run(&spec).unwrap();
        let parallel = ExperimentRunner::with_threads(4).run(&spec).unwrap();
        for (a, b) in serial.cells().iter().zip(parallel.cells()) {
            assert_eq!(a.key, b.key);
            assert_eq!(
                a.output.trace_hash,
                b.output.trace_hash,
                "{}",
                a.key.label()
            );
            assert_eq!(a.output.report.mean_wait_s, b.output.report.mean_wait_s);
        }
    }

    #[test]
    fn workloads_are_shared_across_policies() {
        // All four policies on one (cluster, load, seed) point must see the
        // same jobs: equal totals.
        let spec = small_spec();
        let results = ExperimentRunner::new().run(&spec).unwrap();
        let totals: Vec<usize> = results
            .cells()
            .iter()
            .map(|c| c.output.records.len())
            .collect();
        assert!(totals.iter().all(|&t| t == totals[0]));
    }

    #[test]
    fn service_cells_stream_and_stay_deterministic() {
        let spec = ExperimentSpec::builder("svc-runner")
            .preset(SystemPreset::HighThroughput, 10)
            .pool(PoolTopology::None)
            .seeds([1, 2])
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .service(
                crate::service::ServiceSpec::open(SystemPreset::HighThroughput)
                    .with_utilization(0.7)
                    .with_horizon_jobs(300),
            )
            .build()
            .unwrap();
        let serial = ExperimentRunner::with_threads(1).run(&spec).unwrap();
        let parallel = ExperimentRunner::with_threads(4).run(&spec).unwrap();
        for (a, b) in serial.cells().iter().zip(parallel.cells()) {
            assert_eq!(a.key, b.key);
            assert_eq!(
                a.output.trace_hash,
                b.output.trace_hash,
                "{}",
                a.key.label()
            );
            let svc = a.output.service.expect("service cells carry a summary");
            assert!(svc.observed > 0);
            assert!(
                a.output.records.is_empty(),
                "service mode keeps no per-job records"
            );
        }
        // Distinct seed-axis points stream distinct jobs.
        assert_ne!(
            serial.cells()[0].output.trace_hash,
            serial.cells()[1].output.trace_hash
        );
    }

    #[test]
    fn fleet_cells_run_federated_and_stay_deterministic() {
        use crate::federation::FleetSpec;
        let spec = ExperimentSpec::builder("fleet-runner")
            .preset(SystemPreset::HighThroughput, 40)
            .pool(PoolTopology::None)
            .load(0.8)
            .seed(5)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .fleet(FleetSpec::none())
            .fleet(FleetSpec::symmetric(
                2,
                300.0,
                dmhpc_sched::MetaPolicyKind::RoundRobin,
            ))
            .build()
            .unwrap();
        let serial = ExperimentRunner::with_threads(1).run(&spec).unwrap();
        let parallel = ExperimentRunner::with_threads(4).run(&spec).unwrap();
        assert_eq!(serial.len(), 2);
        for (a, b) in serial.cells().iter().zip(parallel.cells()) {
            assert_eq!(a.key, b.key);
            assert_eq!(
                a.output.trace_hash,
                b.output.trace_hash,
                "{}",
                a.key.label()
            );
        }
        let fleet_cell = &serial.cells()[1];
        assert!(fleet_cell.key.fleet.is_some());
        assert_eq!(
            fleet_cell.output.records.len(),
            40,
            "fleet aggregate merges every site's records"
        );
        // The fleet cell's workload is rescaled against twice the
        // capacity, so it is a genuinely different run.
        assert_ne!(
            serial.cells()[0].output.trace_hash,
            fleet_cell.output.trace_hash
        );
    }

    #[test]
    fn fleet_cells_round_trip_through_the_cache() {
        use crate::federation::FleetSpec;
        let dir =
            std::env::temp_dir().join(format!("dmhpc-fleet-runner-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = ExperimentSpec::builder("fleet-cache")
            .preset(SystemPreset::HighThroughput, 30)
            .pool(PoolTopology::None)
            .seed(3)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .fleet(FleetSpec::symmetric(
                2,
                120.0,
                dmhpc_sched::MetaPolicyKind::LeastQueueDepth,
            ))
            .build()
            .unwrap();
        let cold = ExperimentRunner::with_threads(1)
            .cache_dir(&dir)
            .unwrap()
            .run(&spec)
            .unwrap();
        assert_eq!(cold.stats().simulated, 1);
        let warm = ExperimentRunner::with_threads(1)
            .cache_dir(&dir)
            .unwrap()
            .run(&spec)
            .unwrap();
        assert_eq!(warm.stats().cache_hits, 1, "fleet cells replay from cache");
        assert_eq!(warm.to_csv(), cold.to_csv(), "CSV byte-identical");
        assert_eq!(
            warm.cells()[0].output.trace_hash,
            cold.cells()[0].output.trace_hash
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_runs_are_slices_of_the_full_run() {
        let spec = small_spec();
        let runner = ExperimentRunner::with_threads(2);
        let full = runner.run(&spec).unwrap();
        let shard = runner.run_shard(&spec, Shard::new(1, 3).unwrap()).unwrap();
        assert!(shard.len() < full.len());
        for cell in shard.cells() {
            let twin = full
                .cells()
                .iter()
                .find(|c| c.key == cell.key)
                .expect("shard cell exists in full grid");
            assert_eq!(cell.output.trace_hash, twin.output.trace_hash);
        }
    }
}
