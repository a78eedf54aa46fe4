//! The built-in metric observers — the simulator's own metrics,
//! re-expressed as consumers of the event stream.
//!
//! The engine attaches all three to every run and assembles
//! [`crate::SimOutput`] from their final state. Each performs exactly the
//! floating-point operations the pre-observer engine performed, in the
//! same order, so the default observer set reproduces historic outputs
//! bit for bit (pinned by the golden-hash parity tests in
//! `tests/integration.rs`).

use super::{Observer, RunContext, SimEvent};
use crate::collector::SeriesBundle;
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_metrics::{FaultSummary, JobRecord};
use dmhpc_platform::ClusterSpec;

/// Maintains the time-weighted system series ([`SeriesBundle`]) from the
/// event stream: queue depth from submit/start/reject events, busy
/// nodes and memory occupancy from allocation grab/release.
#[derive(Debug, Clone)]
pub struct SeriesObserver {
    bundle: SeriesBundle,
}

impl SeriesObserver {
    /// A series observer for a machine, with its time origin.
    pub fn new(start: SimTime, spec: &ClusterSpec) -> Self {
        SeriesObserver {
            bundle: SeriesBundle::new(start, spec),
        }
    }

    /// The live series.
    pub fn bundle(&self) -> &SeriesBundle {
        &self.bundle
    }

    /// Take the series out (end of run).
    pub fn into_bundle(self) -> SeriesBundle {
        self.bundle
    }
}

impl Observer for SeriesObserver {
    fn on_run_start(&mut self, ctx: &RunContext) {
        self.bundle = SeriesBundle::new(ctx.start, &ctx.cluster);
    }

    fn on_event(&mut self, ev: &SimEvent) {
        match *ev {
            SimEvent::JobSubmitted { at, .. } => self.bundle.on_queue_change(at, 1.0),
            SimEvent::JobStarted { at, .. } => self.bundle.on_queue_change(at, -1.0),
            SimEvent::AllocationGrabbed {
                at,
                nodes,
                local_mib,
                remote_mib,
                ..
            } => self.bundle.on_start(at, nodes, local_mib, remote_mib),
            SimEvent::AllocationReleased {
                at,
                nodes,
                local_mib,
                remote_mib,
                ..
            } => self.bundle.on_finish(at, nodes, local_mib, remote_mib),
            SimEvent::JobRejected { at, .. } => self.bundle.on_queue_change(at, -1.0),
            // A job that failed without ever starting was still queued.
            SimEvent::JobFailed { at, ref record } if record.start.is_none() => {
                self.bundle.on_queue_change(at, -1.0)
            }
            _ => {}
        }
    }
}

/// Collects the per-job outcome records in completion order (rejected
/// jobs at rejection time), exactly as `SimOutput::records` reports them.
#[derive(Debug, Clone, Default)]
pub struct JobStatsObserver {
    records: Vec<JobRecord>,
}

impl JobStatsObserver {
    /// An empty collector pre-sized for `jobs` records.
    pub fn with_capacity(jobs: usize) -> Self {
        JobStatsObserver {
            records: Vec::with_capacity(jobs),
        }
    }

    /// The records collected so far.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Take the records out (end of run).
    pub fn into_records(self) -> Vec<JobRecord> {
        self.records
    }
}

impl Observer for JobStatsObserver {
    fn on_run_start(&mut self, ctx: &RunContext) {
        self.records.clear();
        self.records.reserve(ctx.jobs);
    }

    fn on_event(&mut self, ev: &SimEvent) {
        match ev {
            SimEvent::JobFinished { record, .. }
            | SimEvent::JobFailed { record, .. }
            | SimEvent::JobRejected { record, .. } => self.records.push(record.clone()),
            _ => {}
        }
    }
}

/// Accumulates fault counters and the availability breakpoints, and
/// derives the [`FaultSummary`] at end of run.
#[derive(Debug, Clone)]
pub struct FaultObserver {
    interruptions: u64,
    resubmissions: u64,
    rework_s: f64,
    /// Availability breakpoints `(time, in-service nodes)`, seeded at the
    /// run origin; appended whenever a fault event changes the count.
    /// Kept as breakpoints (not a running integral) because the metrics
    /// window is clamped at finalize, which is unknown until then.
    avail_points: Vec<(SimTime, usize)>,
}

impl FaultObserver {
    /// A fault observer for a run starting at `start` with `in_service`
    /// nodes up.
    pub fn new(start: SimTime, in_service: usize) -> Self {
        FaultObserver {
            interruptions: 0,
            resubmissions: 0,
            rework_s: 0.0,
            avail_points: vec![(start, in_service)],
        }
    }

    fn note_avail(&mut self, at: SimTime, count: usize) {
        // lint: allow(panic) — the series is seeded with a t=0 point at construction
        if count != self.avail_points.last().expect("seeded at start").1 {
            self.avail_points.push((at, count));
        }
    }

    /// Derive the run's [`FaultSummary`] over the metrics window
    /// `[window start, end]`. `node_util` is the run's reported node
    /// utilization and `busy_node_s` the busy node-seconds integrated up
    /// to `end`. Without downtime inside the window, `avail_util` is
    /// `node_util` itself (bit-equal) and downtime is exactly zero —
    /// fault-free outputs are unchanged.
    pub fn finalize(
        &self,
        end: SimTime,
        makespan: SimDuration,
        total_nodes: f64,
        node_util: f64,
        busy_node_s: f64,
    ) -> FaultSummary {
        let mut summary = FaultSummary {
            interruptions: self.interruptions,
            resubmissions: self.resubmissions,
            rework_s: self.rework_s,
            ..FaultSummary::default()
        };
        let had_downtime = self
            .avail_points
            .iter()
            .any(|&(t, count)| t < end && count != self.avail_points[0].1);
        if had_downtime {
            let mut avail_node_s = 0.0f64;
            for (i, &(t, count)) in self.avail_points.iter().enumerate() {
                if t >= end {
                    break;
                }
                let next = self
                    .avail_points
                    .get(i + 1)
                    .map(|&(t, _)| t.min_of(end))
                    .unwrap_or(end);
                avail_node_s += count as f64 * (next - t).as_secs_f64();
            }
            summary.downtime_node_s =
                (total_nodes * makespan.as_secs_f64() - avail_node_s).max(0.0);
            summary.avail_util = if avail_node_s > 0.0 {
                busy_node_s / avail_node_s
            } else {
                0.0
            };
        } else {
            summary.avail_util = node_util;
        }
        summary
    }
}

impl Observer for FaultObserver {
    fn on_run_start(&mut self, ctx: &RunContext) {
        *self = FaultObserver::new(ctx.start, ctx.in_service_nodes);
    }

    fn on_event(&mut self, ev: &SimEvent) {
        match *ev {
            SimEvent::JobInterrupted {
                rework_s,
                resubmitted,
                ..
            } => {
                self.interruptions += 1;
                self.rework_s += rework_s;
                if resubmitted {
                    self.resubmissions += 1;
                }
            }
            SimEvent::FaultApplied {
                at,
                nodes_in_service,
                ..
            }
            | SimEvent::FaultCleared {
                at,
                nodes_in_service,
                ..
            } => self.note_avail(at, nodes_in_service),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultAction;
    use dmhpc_platform::{NodeId, NodeSpec, PoolTopology};
    use dmhpc_workload::JobBuilder;

    fn spec() -> ClusterSpec {
        ClusterSpec::new(
            1,
            4,
            NodeSpec::new(8, 1000),
            PoolTopology::PerRack { mib_per_rack: 500 },
        )
    }

    #[test]
    fn series_observer_tracks_queue_and_allocations() {
        let mut obs = SeriesObserver::new(SimTime::ZERO, &spec());
        let job = JobBuilder::new(1).nodes(2).runtime_secs(10, 20).build();
        obs.on_event(&SimEvent::JobSubmitted {
            at: SimTime::ZERO,
            job,
            resubmit: false,
        });
        obs.on_event(&SimEvent::JobStarted {
            at: SimTime::from_secs(5),
            job: dmhpc_workload::JobId(1),
            nodes: 2,
            dilation: 1.0,
        });
        obs.on_event(&SimEvent::AllocationGrabbed {
            at: SimTime::from_secs(5),
            job: dmhpc_workload::JobId(1),
            nodes: 2,
            local_mib: 800,
            remote_mib: 100,
        });
        assert_eq!(obs.bundle().nodes_busy.stats().current(), 2.0);
        assert_eq!(obs.bundle().queue_depth.stats().current(), 0.0);
        obs.on_event(&SimEvent::AllocationReleased {
            at: SimTime::from_secs(15),
            job: dmhpc_workload::JobId(1),
            nodes: 2,
            local_mib: 800,
            remote_mib: 100,
        });
        assert_eq!(obs.bundle().nodes_busy.stats().current(), 0.0);
    }

    #[test]
    fn fault_observer_counts_and_integrates() {
        let mut obs = FaultObserver::new(SimTime::ZERO, 4);
        obs.on_event(&SimEvent::FaultApplied {
            at: SimTime::from_secs(10),
            action: FaultAction::NodeFail(NodeId(0)),
            nodes_in_service: 3,
        });
        obs.on_event(&SimEvent::JobInterrupted {
            at: SimTime::from_secs(10),
            job: dmhpc_workload::JobId(1),
            rework_s: 10.0,
            resubmitted: true,
        });
        obs.on_event(&SimEvent::FaultCleared {
            at: SimTime::from_secs(30),
            action: FaultAction::NodeRepair(NodeId(0)),
            nodes_in_service: 4,
        });
        let end = SimTime::from_secs(40);
        let summary = obs.finalize(end, SimDuration::from_secs(40), 4.0, 0.0, 70.0);
        assert_eq!(summary.interruptions, 1);
        assert_eq!(summary.resubmissions, 1);
        assert!((summary.rework_s - 10.0).abs() < 1e-12);
        // 4×40 total − (4×10 + 3×20 + 4×10) = 20 node-seconds down.
        assert!((summary.downtime_node_s - 20.0).abs() < 1e-9);
        // 70 busy of the 140 available node-seconds.
        assert!((summary.avail_util - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_observer_keeps_record_order() {
        let mut obs = JobStatsObserver::with_capacity(2);
        let rec =
            |id: u64| dmhpc_metrics::JobRecord::rejected(JobBuilder::new(id).nodes(1).build());
        obs.on_event(&SimEvent::JobRejected {
            at: SimTime::ZERO,
            record: rec(7),
        });
        obs.on_event(&SimEvent::JobFinished {
            at: SimTime::ZERO,
            record: rec(3),
        });
        let ids: Vec<u64> = obs.records().iter().map(|r| r.job.id.0).collect();
        assert_eq!(ids, vec![7, 3]);
    }
}
