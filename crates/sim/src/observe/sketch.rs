//! The O(1)-memory streaming metrics observer for open-system runs.
//!
//! [`crate::observe::JobStatsObserver`] keeps every [`JobRecord`] — O(jobs)
//! memory, fatal for service runs streaming millions of arrivals.
//! [`SketchStatsObserver`] replaces it with
//! [`dmhpc_metrics::StreamingJobStats`] (P² quantile sketches + online
//! moments) and replaces the breakpoint-recording series of
//! [`crate::observe::SeriesObserver`] with plain [`TimeWeighted`]
//! integrators: the footprint is constant in both job count and event
//! count (growing only with the distinct-user population).
//!
//! **Warmup / measurement window.** Service runs report steady-state
//! numbers: per-job records whose event lands before `start + warmup` are
//! skipped (counted in `warmup_skipped`), and the time-weighted system
//! metrics are integrated over the measurement window `[start + warmup,
//! end]` — the integral at the cutoff is snapshotted at the first event
//! inside the window, which is exact because the signals are
//! piecewise-constant and every earlier update precedes the cutoff. The
//! queue-depth *maximum* remains run-global (a sketchless property of the
//! whole run). With zero warmup every reported quantity spans the full
//! run, and the quantile fields are the only ones that differ from a
//! batch run's exact report (by the P² sketch error; tested).

use super::{Observer, RunContext, SimEvent};
use dmhpc_des::stats::TimeWeighted;
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_metrics::{
    ClassThresholds, FaultSummary, JobRecord, ServiceSummary, SimReport, StreamingJobStats,
    SystemSeriesStats,
};
use dmhpc_platform::ClusterSpec;

/// Streaming (constant-memory) replacement for the series + job-stats
/// observer pair. Attachable to closed runs too (e.g. to compare sketch
/// estimates against exact records); the engine attaches it automatically
/// on service runs.
#[derive(Debug, Clone)]
pub struct SketchStatsObserver {
    warmup: SimDuration,
    window_start: SimTime,
    stats: StreamingJobStats,
    warmup_skipped: u64,
    slo_wait_s: Option<f64>,
    nodes_busy: TimeWeighted,
    pool_used: TimeWeighted,
    dram_used: TimeWeighted,
    queue_depth: TimeWeighted,
    /// `[nodes_busy, pool_used, dram_used, queue_depth]` integrals at the
    /// window start, snapshotted at the first in-window event.
    window_base: Option<[f64; 4]>,
    total_nodes: f64,
    total_pool: f64,
    total_dram: f64,
}

impl SketchStatsObserver {
    /// An observer for a machine, with its time origin, warmup cutoff, and
    /// optional wait-SLO target.
    pub fn new(start: SimTime, spec: &ClusterSpec, warmup_s: u64, slo_wait_s: Option<f64>) -> Self {
        let warmup = SimDuration::from_secs(warmup_s);
        SketchStatsObserver {
            warmup,
            window_start: start + warmup,
            stats: StreamingJobStats::new(slo_wait_s),
            warmup_skipped: 0,
            slo_wait_s,
            nodes_busy: TimeWeighted::new(start, 0.0),
            pool_used: TimeWeighted::new(start, 0.0),
            dram_used: TimeWeighted::new(start, 0.0),
            queue_depth: TimeWeighted::new(start, 0.0),
            window_base: None,
            total_nodes: spec.total_nodes() as f64,
            total_pool: spec.total_pool_mem() as f64,
            total_dram: spec.total_local_mem() as f64,
        }
    }

    /// Jobs excluded by the warmup cutoff so far.
    pub fn warmup_skipped(&self) -> u64 {
        self.warmup_skipped
    }

    /// The live streaming accumulator.
    pub fn stats(&self) -> &StreamingJobStats {
        &self.stats
    }

    /// Snapshot the window-start integrals if `at` is the first event
    /// inside the measurement window. Exact: all earlier updates precede
    /// `window_start`, so `integral_until(window_start)` closes the last
    /// pre-window segment at the cutoff.
    fn note_window(&mut self, at: SimTime) {
        if self.window_base.is_none() && at >= self.window_start {
            self.window_base = Some([
                self.nodes_busy.integral_until(self.window_start),
                self.pool_used.integral_until(self.window_start),
                self.dram_used.integral_until(self.window_start),
                self.queue_depth.integral_until(self.window_start),
            ]);
        }
    }

    /// Fold a final per-job record in, subject to the warmup cutoff.
    fn observe_record(&mut self, at: SimTime, record: &JobRecord) {
        if at < self.window_start {
            self.warmup_skipped += 1;
        } else {
            self.stats.observe(record);
        }
    }

    /// The time-weighted system metrics over the measurement window
    /// ending at `end`.
    pub fn system_stats(&self, end: SimTime) -> SystemSeriesStats {
        let measure_start = self.window_start.min_of(end);
        let span = end.saturating_since(measure_start).as_secs_f64();
        // No event ever reached the window: every update precedes the
        // cutoff, so querying the integrators at it is still exact.
        let base = self.window_base.unwrap_or_else(|| {
            [
                self.nodes_busy.integral_until(measure_start),
                self.pool_used.integral_until(measure_start),
                self.dram_used.integral_until(measure_start),
                self.queue_depth.integral_until(measure_start),
            ]
        });
        let mean = |tw: &TimeWeighted, base: f64, denom: f64| {
            if span <= 0.0 || denom == 0.0 {
                0.0
            } else {
                (tw.integral_until(end) - base) / span / denom
            }
        };
        SystemSeriesStats {
            makespan_s: span,
            node_util: mean(&self.nodes_busy, base[0], self.total_nodes),
            pool_util: mean(&self.pool_used, base[1], self.total_pool),
            dram_util: mean(&self.dram_used, base[2], self.total_dram),
            queue_depth_mean: mean(&self.queue_depth, base[3], 1.0),
            queue_depth_max: self.queue_depth.max(),
        }
    }

    /// Busy node-seconds over the whole run up to `end` (not just the
    /// measurement window): the availability denominator's counterpart.
    pub fn busy_node_s(&self, end: SimTime) -> f64 {
        self.nodes_busy.integral_until(end)
    }

    /// Synthesize the run's report and service summary at end of run.
    /// `faults` carries interruption counters and availability; `None`
    /// stands for a fault-free run, whose `avail_util` equals the
    /// computed node utilization.
    pub fn finalize(
        &self,
        label: &str,
        end: SimTime,
        faults: Option<FaultSummary>,
        thresholds: &ClassThresholds,
    ) -> (SimReport, ServiceSummary) {
        let sys = self.system_stats(end);
        let faults = faults.unwrap_or(FaultSummary {
            avail_util: sys.node_util,
            ..FaultSummary::default()
        });
        let report = self.stats.report(label, &sys, &faults, thresholds);
        let summary = self.stats.service_summary(self.warmup_skipped);
        (report, summary)
    }
}

impl Observer for SketchStatsObserver {
    fn on_run_start(&mut self, ctx: &RunContext) {
        *self = SketchStatsObserver::new(
            ctx.start,
            &ctx.cluster,
            self.warmup.as_secs(),
            self.slo_wait_s,
        );
    }

    fn on_event(&mut self, ev: &SimEvent) {
        self.note_window(ev.at());
        match *ev {
            SimEvent::JobSubmitted { at, .. } => self.queue_depth.add(at, 1.0),
            SimEvent::JobStarted { at, .. } => self.queue_depth.add(at, -1.0),
            SimEvent::AllocationGrabbed {
                at,
                nodes,
                local_mib,
                remote_mib,
                ..
            } => {
                self.nodes_busy.add(at, nodes as f64);
                self.dram_used.add(at, local_mib as f64);
                self.pool_used.add(at, remote_mib as f64);
            }
            SimEvent::AllocationReleased {
                at,
                nodes,
                local_mib,
                remote_mib,
                ..
            } => {
                self.nodes_busy.add(at, -(nodes as f64));
                self.dram_used.add(at, -(local_mib as f64));
                self.pool_used.add(at, -(remote_mib as f64));
            }
            SimEvent::JobFinished { at, ref record } => self.observe_record(at, record),
            SimEvent::JobRejected { at, ref record } => {
                self.queue_depth.add(at, -1.0);
                self.observe_record(at, record);
            }
            SimEvent::JobFailed { at, ref record } => {
                if record.start.is_none() {
                    self.queue_depth.add(at, -1.0);
                }
                self.observe_record(at, record);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmhpc_platform::{NodeSpec, PoolTopology};
    use dmhpc_workload::{JobBuilder, JobId};

    fn spec() -> ClusterSpec {
        ClusterSpec::new(
            1,
            4,
            NodeSpec::new(8, 1000),
            PoolTopology::PerRack { mib_per_rack: 500 },
        )
    }

    fn finished(id: u64, arrival: u64, start: u64, finish: u64) -> SimEvent {
        SimEvent::JobFinished {
            at: SimTime::from_secs(finish),
            record: JobRecord {
                job: JobBuilder::new(id)
                    .arrival_secs(arrival)
                    .runtime_secs(finish - start, 2 * (finish - start))
                    .build(),
                outcome: dmhpc_metrics::JobOutcome::Completed,
                start: Some(SimTime::from_secs(start)),
                finish: Some(SimTime::from_secs(finish)),
                nodes_allocated: 1,
                remote_per_node: 0,
                dilation_planned: 1.0,
                dilation_actual: 1.0,
            },
        }
    }

    #[test]
    fn integrates_series_like_the_series_observer() {
        let mut obs = SketchStatsObserver::new(SimTime::ZERO, &spec(), 0, None);
        obs.on_event(&SimEvent::AllocationGrabbed {
            at: SimTime::ZERO,
            job: JobId(1),
            nodes: 2,
            local_mib: 800,
            remote_mib: 200,
        });
        obs.on_event(&SimEvent::AllocationReleased {
            at: SimTime::from_secs(50),
            job: JobId(1),
            nodes: 2,
            local_mib: 800,
            remote_mib: 200,
        });
        let sys = obs.system_stats(SimTime::from_secs(100));
        // Same arithmetic as SeriesBundle: 2 of 4 nodes for half the window.
        assert!((sys.node_util - 0.25).abs() < 1e-9);
        assert!((sys.dram_util - 0.1).abs() < 1e-9);
        assert!((sys.pool_util - 0.2).abs() < 1e-9);
        assert_eq!(sys.makespan_s, 100.0);
    }

    #[test]
    fn warmup_window_excludes_transient_jobs_and_time() {
        let mut obs = SketchStatsObserver::new(SimTime::ZERO, &spec(), 100, Some(30.0));
        // Finishes inside the warmup: skipped, not measured.
        obs.on_event(&finished(1, 0, 10, 50));
        // Busy the whole run: 1 node from t=0 to t=200.
        obs.on_event(&SimEvent::AllocationGrabbed {
            at: SimTime::ZERO,
            job: JobId(2),
            nodes: 1,
            local_mib: 0,
            remote_mib: 0,
        });
        // Finishes inside the window: measured (wait 20 > SLO? no, 20 <= 30).
        obs.on_event(&finished(3, 100, 120, 150));
        obs.on_event(&SimEvent::AllocationReleased {
            at: SimTime::from_secs(200),
            job: JobId(2),
            nodes: 1,
            local_mib: 0,
            remote_mib: 0,
        });
        assert_eq!(obs.warmup_skipped(), 1);
        assert_eq!(obs.stats().observed(), 1);
        let sys = obs.system_stats(SimTime::from_secs(200));
        // Window is [100, 200]; 1 of 4 nodes busy for all of it.
        assert_eq!(sys.makespan_s, 100.0);
        assert!((sys.node_util - 0.25).abs() < 1e-9);
        let (report, summary) = obs.finalize(
            "svc",
            SimTime::from_secs(200),
            None,
            &ClassThresholds::standard(1000),
        );
        assert_eq!(report.completed, 1);
        assert!((report.mean_wait_s - 20.0).abs() < 1e-9);
        assert_eq!(report.avail_util, report.node_util);
        assert_eq!(summary.warmup_skipped, 1);
        assert_eq!(summary.observed, 1);
        assert_eq!(summary.slo_attained, Some(1.0));
        assert_eq!(summary.slo_wait_s, Some(30.0));
    }

    #[test]
    fn no_event_reaches_the_window() {
        let mut obs = SketchStatsObserver::new(SimTime::ZERO, &spec(), 1000, None);
        obs.on_event(&finished(1, 0, 10, 50));
        // Run ends inside the warmup: nothing measured, empty window.
        let sys = obs.system_stats(SimTime::from_secs(50));
        assert_eq!(sys.makespan_s, 0.0);
        assert_eq!(sys.node_util, 0.0);
        assert_eq!(obs.warmup_skipped(), 1);
    }

    #[test]
    fn run_start_resets_but_keeps_configuration() {
        let mut obs = SketchStatsObserver::new(SimTime::ZERO, &spec(), 60, Some(10.0));
        obs.on_event(&finished(1, 0, 10, 20));
        assert_eq!(obs.warmup_skipped(), 1);
        obs.on_run_start(&RunContext {
            start: SimTime::from_secs(500),
            cluster: spec(),
            jobs: 0,
            in_service_nodes: 4,
            label: "x".into(),
        });
        assert_eq!(obs.warmup_skipped(), 0);
        assert_eq!(obs.stats().observed(), 0);
        // Warmup still applies, now relative to the new origin.
        obs.on_event(&finished(2, 500, 510, 540));
        assert_eq!(obs.warmup_skipped(), 1);
        obs.on_event(&finished(3, 500, 560, 600));
        assert_eq!(obs.stats().observed(), 1);
    }
}
