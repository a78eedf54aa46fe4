//! Simulation configuration.

use dmhpc_platform::ClusterSpec;
use dmhpc_sched::SchedulerConfig;

/// Everything that defines a run besides the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Machine shape.
    pub cluster: ClusterSpec,
    /// Scheduling policy triple + slowdown model.
    pub scheduler: SchedulerConfig,
    /// Kill jobs at their planned walltime (production behaviour). With
    /// `false`, jobs always run to natural completion — useful for isolating
    /// policy effects from kill effects.
    pub enforce_walltime: bool,
    /// Run `Cluster::verify_invariants` after every event batch. O(nodes)
    /// per batch — meant for tests, not sweeps. Note that the incremental
    /// kernel only reaches a batch end when an arrival or a live finish was
    /// processed, so with sparse scheduling passes this check still runs
    /// per *batch*, not per pass: its cost scales with events, and stays
    /// the dominant cost of a checked run on large machines.
    pub check_invariants: bool,
}

impl SimConfig {
    /// A config with production defaults (walltime enforcement on,
    /// invariant checking off).
    pub fn new(cluster: ClusterSpec, scheduler: SchedulerConfig) -> Self {
        SimConfig {
            cluster,
            scheduler,
            enforce_walltime: true,
            check_invariants: false,
        }
    }

    /// Same config with invariant checking on (for tests).
    pub fn checked(mut self) -> Self {
        self.check_invariants = true;
        self
    }

    /// Label used in reports: policy triple.
    pub fn label(&self) -> String {
        self.scheduler.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmhpc_platform::{NodeSpec, PoolTopology};
    use dmhpc_sched::SchedulerBuilder;

    #[test]
    fn construction_and_label() {
        let cfg = SimConfig::new(
            ClusterSpec::new(1, 4, NodeSpec::new(8, 1024), PoolTopology::None),
            SchedulerBuilder::new().build(),
        );
        assert!(cfg.enforce_walltime);
        assert!(!cfg.check_invariants);
        assert!(cfg.checked().check_invariants);
        assert_eq!(cfg.label(), "fcfs+easy+local-only");
    }
}
