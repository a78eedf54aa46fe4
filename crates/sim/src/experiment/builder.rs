//! Fluent construction of [`ExperimentSpec`]s.

use super::{pool_label, ExperimentSpec, WorkloadSource};
use crate::error::SimError;
use crate::faults::FaultSpec;
use crate::federation::FleetSpec;
use crate::scenarios;
use crate::service::ServiceSpec;
use dmhpc_platform::{ClusterSpec, PoolTopology, SlowdownModel};
use dmhpc_sched::SchedulerConfig;
use dmhpc_workload::{SystemPreset, Workload};
use std::sync::Arc;

/// Builds an [`ExperimentSpec`] fluently. Finish with
/// [`ExperimentBuilder::build`], which validates the whole grid and
/// reports every problem as a typed [`SimError`].
///
/// The usual shape:
///
/// ```
/// use dmhpc_sim::ExperimentSpec;
/// use dmhpc_platform::PoolTopology;
/// use dmhpc_workload::SystemPreset;
///
/// let spec = ExperimentSpec::builder("pool-sweep")
///     .preset(SystemPreset::MidCluster, 500)
///     .pools((0..3).map(|i| PoolTopology::PerRack {
///         mib_per_rack: 128 * 1024 << i,
///     }))
///     .load(0.9)
///     .seed(42)
///     .policy_suite(dmhpc_sim::scenarios::default_slowdown())
///     .build()
///     .unwrap();
/// assert_eq!(spec.cell_count(), 3 * 4);
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    name: String,
    workload: Option<WorkloadSource>,
    preset: Option<SystemPreset>,
    clusters: Vec<(String, ClusterSpec)>,
    loads: Vec<f64>,
    seeds: Vec<u64>,
    schedulers: Vec<SchedulerConfig>,
    faults: Vec<FaultSpec>,
    services: Vec<ServiceSpec>,
    fleets: Vec<FleetSpec>,
    enforce_walltime: bool,
    check_invariants: bool,
    deferred_error: Option<String>,
}

impl ExperimentBuilder {
    pub(super) fn new(name: impl Into<String>) -> Self {
        ExperimentBuilder {
            name: name.into(),
            workload: None,
            preset: None,
            clusters: Vec::new(),
            loads: Vec::new(),
            seeds: Vec::new(),
            schedulers: Vec::new(),
            faults: Vec::new(),
            services: Vec::new(),
            fleets: Vec::new(),
            enforce_walltime: true,
            check_invariants: false,
            deferred_error: None,
        }
    }

    /// Reopen an existing spec for editing — the incremental-re-run path:
    /// tweak an axis, `build()`, and a cached runner re-executes only the
    /// cells whose content hash changed
    /// ([`super::ExperimentSpec::cell_hashes`]).
    ///
    /// For preset-sourced specs the preset is restored, so
    /// [`ExperimentBuilder::pool`]/[`ExperimentBuilder::pools`] keep
    /// working on the reopened builder.
    pub fn from_spec(spec: ExperimentSpec) -> Self {
        let preset = match spec.workload {
            WorkloadSource::Preset { preset, .. } => Some(preset),
            WorkloadSource::Fixed(_) => None,
        };
        ExperimentBuilder {
            name: spec.name,
            workload: Some(spec.workload),
            preset,
            clusters: spec.clusters,
            loads: spec.loads,
            seeds: spec.seeds,
            schedulers: spec.schedulers,
            faults: spec.faults,
            services: spec.services,
            fleets: spec.fleets,
            enforce_walltime: spec.enforce_walltime,
            check_invariants: spec.check_invariants,
            deferred_error: None,
        }
    }

    /// Replace the experiment name (useful when deriving a variant spec
    /// via [`ExperimentBuilder::from_spec`]).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    fn defer(&mut self, reason: String) {
        if self.deferred_error.is_none() {
            self.deferred_error = Some(reason);
        }
    }

    /// Generate the workload from a calibrated preset (`jobs` jobs per
    /// `(seed, load)` grid point) and use the preset's machine shape as
    /// the base for [`ExperimentBuilder::pool`]/[`ExperimentBuilder::pools`].
    pub fn preset(mut self, preset: SystemPreset, jobs: usize) -> Self {
        if self.workload.is_some() {
            self.defer("workload source set twice".into());
        }
        self.workload = Some(WorkloadSource::Preset { preset, jobs });
        self.preset = Some(preset);
        self
    }

    /// Replay a fixed trace instead of generating workloads. The seed axis
    /// collapses; the load axis still rescales arrivals per cluster.
    pub fn fixed_workload(mut self, workload: Workload) -> Self {
        if self.workload.is_some() {
            self.defer("workload source set twice".into());
        }
        self.workload = Some(WorkloadSource::Fixed(Arc::new(workload)));
        self
    }

    /// Add one cluster-axis point: the preset's machine with this pool
    /// topology, auto-labelled (e.g. `rack-512gib`). Requires
    /// [`ExperimentBuilder::preset`] first.
    pub fn pool(mut self, pool: PoolTopology) -> Self {
        match self.preset {
            Some(preset) => {
                let label = pool_label(&pool);
                self.clusters
                    .push((label, scenarios::preset_cluster(preset, pool)));
            }
            None => self.defer("pool() requires preset() first (no base machine)".into()),
        }
        self
    }

    /// Add several preset-machine × pool-topology cluster points.
    pub fn pools(mut self, pools: impl IntoIterator<Item = PoolTopology>) -> Self {
        for pool in pools {
            self = self.pool(pool);
        }
        self
    }

    /// Add an explicitly shaped, labelled cluster-axis point.
    pub fn cluster(mut self, label: impl Into<String>, spec: ClusterSpec) -> Self {
        self.clusters.push((label.into(), spec));
        self
    }

    /// Add one offered-load axis point.
    pub fn load(mut self, load: f64) -> Self {
        self.loads.push(load);
        self
    }

    /// Add several offered-load axis points.
    pub fn loads(mut self, loads: impl IntoIterator<Item = f64>) -> Self {
        self.loads.extend(loads);
        self
    }

    /// Add one seed-axis point.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seeds.push(seed);
        self
    }

    /// Add several seed-axis points.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Add one scheduler-axis point.
    pub fn scheduler(mut self, cfg: SchedulerConfig) -> Self {
        self.schedulers.push(cfg);
        self
    }

    /// Add several scheduler-axis points.
    pub fn schedulers(mut self, cfgs: impl IntoIterator<Item = SchedulerConfig>) -> Self {
        self.schedulers.extend(cfgs);
        self
    }

    /// Add one fault-scenario axis point. An empty fault axis (the
    /// default) means every cell runs fault-free; adding scenarios crosses
    /// them into the grid like any other dimension. Add
    /// [`FaultSpec::none`] explicitly to keep a fault-free baseline
    /// alongside fault scenarios — its cells hash (and cache) identically
    /// to a grid without the axis.
    pub fn fault(mut self, spec: FaultSpec) -> Self {
        self.faults.push(spec);
        self
    }

    /// Add several fault-scenario axis points.
    pub fn faults(mut self, specs: impl IntoIterator<Item = FaultSpec>) -> Self {
        self.faults.extend(specs);
        self
    }

    /// Add one service-scenario axis point. An empty service axis (the
    /// default) means every cell is a closed batch run; adding open
    /// scenarios crosses them into the grid like any other dimension. Add
    /// [`ServiceSpec::none`] explicitly to keep a closed baseline
    /// alongside open scenarios — its cells hash (and cache) identically
    /// to a grid without the axis. Open scenarios cross with the fault
    /// axis: each open stream runs under each fault scenario.
    pub fn service(mut self, spec: ServiceSpec) -> Self {
        self.services.push(spec);
        self
    }

    /// Add several service-scenario axis points.
    pub fn services(mut self, specs: impl IntoIterator<Item = ServiceSpec>) -> Self {
        self.services.extend(specs);
        self
    }

    /// Add one fleet-axis point. An empty fleet axis (the default) means
    /// every cell runs on a single cluster; adding federated scenarios
    /// crosses them into the grid like any other dimension. Add
    /// [`FleetSpec::none`] explicitly to keep a single-cluster baseline
    /// alongside fleets — its cells hash (and cache) identically to a
    /// grid without the axis. Fleets do not combine with fault or service
    /// scenarios (rejected at build).
    pub fn fleet(mut self, spec: FleetSpec) -> Self {
        self.fleets.push(spec);
        self
    }

    /// Add several fleet-axis points.
    pub fn fleets(mut self, specs: impl IntoIterator<Item = FleetSpec>) -> Self {
        self.fleets.extend(specs);
        self
    }

    /// Add the paper's four-way policy comparison suite (local-only, pool
    /// first/best fit, slowdown-aware; all FCFS + EASY) under the given
    /// slowdown model.
    pub fn policy_suite(self, slowdown: SlowdownModel) -> Self {
        self.schedulers(scenarios::policy_suite(slowdown))
    }

    /// Toggle walltime enforcement for every cell (default on).
    pub fn enforce_walltime(mut self, on: bool) -> Self {
        self.enforce_walltime = on;
        self
    }

    /// Toggle per-batch invariant checking for every cell (default off;
    /// O(nodes) per event — tests only).
    pub fn check_invariants(mut self, on: bool) -> Self {
        self.check_invariants = on;
        self
    }

    /// Validate and produce the spec. Seeds default to `[42]` when the
    /// axis was never touched.
    pub fn build(self) -> Result<ExperimentSpec, SimError> {
        if let Some(reason) = self.deferred_error {
            return Err(SimError::spec(reason));
        }
        let workload = self.workload.ok_or_else(|| {
            SimError::spec("no workload source (call preset() or fixed_workload())")
        })?;
        let seeds = if self.seeds.is_empty() {
            vec![42]
        } else {
            self.seeds
        };
        let spec = ExperimentSpec {
            name: self.name,
            workload,
            clusters: self.clusters,
            loads: self.loads,
            seeds,
            schedulers: self.schedulers,
            faults: self.faults,
            services: self.services,
            fleets: self.fleets,
            enforce_walltime: self.enforce_walltime,
            check_invariants: self.check_invariants,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmhpc_sched::SchedulerBuilder;

    #[test]
    fn pool_before_preset_is_a_typed_error() {
        let err = ExperimentSpec::builder("bad")
            .pool(PoolTopology::None)
            .preset(SystemPreset::MidCluster, 10)
            .scheduler(SchedulerBuilder::new().build())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("preset"), "{err}");
    }

    #[test]
    fn seeds_default_to_42() {
        let spec = ExperimentSpec::builder("d")
            .preset(SystemPreset::MidCluster, 10)
            .pool(PoolTopology::None)
            .scheduler(SchedulerBuilder::new().build())
            .build()
            .unwrap();
        assert_eq!(spec.seeds, vec![42]);
    }

    #[test]
    fn from_spec_reopens_for_incremental_edits() {
        let spec = ExperimentSpec::builder("incr")
            .preset(SystemPreset::MidCluster, 10)
            .pool(PoolTopology::None)
            .seeds([1, 2])
            .scheduler(SchedulerBuilder::new().build())
            .build()
            .unwrap();
        let base_hashes = spec.cell_hashes().unwrap();

        // Unchanged rebuild: identical hashes.
        let same = ExperimentBuilder::from_spec(spec.clone()).build().unwrap();
        assert_eq!(same.cell_hashes().unwrap(), base_hashes);

        // Adding a seed (and renaming) keeps the old cells' hashes —
        // only the new cell would simulate on a cached re-run.
        let edited = ExperimentBuilder::from_spec(spec.clone())
            .name("incr-v2")
            .seed(3)
            .pool(PoolTopology::PerRack {
                mib_per_rack: 256 * 1024,
            })
            .build()
            .unwrap();
        let edited_hashes = edited.cell_hashes().unwrap();
        assert_eq!(edited.cell_count(), 2 * 3);
        for (_, h) in &base_hashes {
            assert!(
                edited_hashes.iter().any(|(_, eh)| eh == h),
                "original cells keep their hashes under edits"
            );
        }
    }

    #[test]
    fn double_workload_source_rejected() {
        let err = ExperimentSpec::builder("d")
            .preset(SystemPreset::MidCluster, 10)
            .preset(SystemPreset::Capability, 10)
            .pool(PoolTopology::None)
            .scheduler(SchedulerBuilder::new().build())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
    }
}
