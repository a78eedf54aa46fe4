//! The four benchmark workloads: how each is generated from its seed, how
//! it is run, and the checks every run of it must pass.
//!
//! All four share one machine and cost model: the `HighThroughput`
//! preset's 128-node shape with `PerRack { 384 GiB }` memory pools, the
//! `Contention { 1.5, 1.0 }` slowdown model, and the binary-heap event
//! queue (the `SimConfig` default). They differ in which scheduler layer
//! does the work.

use dmhpc_metrics::JobRecord;
use dmhpc_platform::{PoolTopology, SlowdownModel};
use dmhpc_sched::{
    AdmissionPolicy, BackfillPolicy, MemoryPolicy, MetaPolicyKind, OrderPolicy, SchedulerBuilder,
    SchedulerConfig,
};
use dmhpc_sim::scenarios::preset_cluster;
use dmhpc_sim::{
    FaultGenerator, FaultSpec, FleetOutput, FleetSimulation, FleetSpec, InterruptPolicy,
    ServiceSpec, SimConfig, SimOutput, Simulation,
};
use dmhpc_workload::source::JobSource as _;
use dmhpc_workload::{transform, SloModel, SystemPreset, Workload};

const PRESET: SystemPreset = SystemPreset::HighThroughput;
const POOLS: PoolTopology = PoolTopology::PerRack {
    mib_per_rack: 384 * 1024,
};
const SLOWDOWN: SlowdownModel = SlowdownModel::Contention {
    penalty: 1.5,
    gamma: 1.0,
};
/// Budget-factor SLO stamps: each job's wait budget is a seeded factor in
/// this range times its walltime.
const SLO_FACTORS: (f64, f64) = (1.5, 4.0);
/// Most replicas one run may simulate (keeps replica seeds of different
/// run seeds apart).
pub const MAX_REPLICAS: usize = 4096;
/// Sites in the `fleet_epochs` federation.
pub const FLEET_SITES: usize = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed batch under FCFS + EASY + pool best fit: backfill dominates.
    ClosedEasy,
    /// Open Poisson stream under EDF + laxity-aware placement + rejection
    /// of infeasible jobs, no backfill: ordering, admission, streaming
    /// arrivals.
    OpenDeadline,
    /// Closed batch under slowdown-aware placement + conservative backfill
    /// with a fault storm across the whole run.
    ClosedConservativeFaults,
    /// Four-site federation routed by least memory pressure, 60 s epochs.
    FleetEpochs,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::ClosedEasy,
        Kind::OpenDeadline,
        Kind::ClosedConservativeFaults,
        Kind::FleetEpochs,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ClosedEasy => "closed_easy",
            Kind::OpenDeadline => "open_deadline",
            Kind::ClosedConservativeFaults => "closed_conservative_faults",
            Kind::FleetEpochs => "fleet_epochs",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Jobs per replica (closed batch size, or open horizon) unless
    /// overridden with `--jobs`.
    pub fn default_jobs(self) -> usize {
        match self {
            Kind::ClosedEasy => 4_000,
            Kind::OpenDeadline => 8_000,
            Kind::ClosedConservativeFaults => 250,
            Kind::FleetEpochs => 8_000,
        }
    }

    /// Independent replicas per run unless overridden with `--replicas`.
    /// Host time varies strongly from one seeded workload to the next
    /// (queue depth follows the heavy-tailed job mix), so a run simulates
    /// many independently seeded replicas and reports their sum; the
    /// counts are sized so the run-to-run spread across seeds stays
    /// inside the end-to-end bounds.
    pub fn default_replicas(self) -> usize {
        match self {
            Kind::ClosedEasy => 16,
            Kind::OpenDeadline => 24,
            Kind::ClosedConservativeFaults => 512,
            Kind::FleetEpochs => 12,
        }
    }

    /// The seed of replica `i` of a run seeded with `seed`.
    pub fn replica_seed(seed: u64, i: usize) -> u64 {
        seed.wrapping_mul(MAX_REPLICAS as u64)
            .wrapping_add(i as u64)
    }

    /// Whether jobs arrive from a stream during the run.
    pub fn is_open(self) -> bool {
        self == Kind::OpenDeadline
    }
}

/// A workload ready to run: the generated inputs plus a constructed
/// simulator. Everything built here counts as set-up time.
pub struct Prepared {
    /// Which workload this is.
    pub kind: Kind,
    /// Jobs submitted by a closed batch, or the open stream's horizon.
    pub jobs: usize,
    /// The machine and scheduler (per site, for the fleet).
    pub cfg: SimConfig,
    /// The fault scenario (`FaultSpec::none()` where unused).
    pub faults: FaultSpec,
    /// The open-system scenario (`ServiceSpec::none()` for closed runs).
    pub service: ServiceSpec,
    /// The fleet layout (`FleetSpec::none()` for single-cluster runs).
    pub fleet: FleetSpec,
    /// The closed batch (empty for the open stream).
    pub workload: Workload,
    /// The simulator, built from the public constructors.
    pub runner: Runner,
}

/// The simulator a workload runs on.
pub enum Runner {
    /// One cluster.
    Single(Box<Simulation>),
    /// A federation, at the library's default worker count.
    Fleet(FleetSimulation),
}

/// What one run produced, reduced to what the benchmark reports and
/// checks.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Trace hash (the fleet's combined hash for `fleet_epochs`).
    pub hash: u64,
    /// Engine events processed (summed over sites).
    pub events: u64,
    /// Scheduling passes (summed over sites).
    pub passes: u64,
    /// Simulated mean bounded slowdown.
    pub bsld_mean: f64,
    /// Simulated 95th-percentile queue wait, seconds.
    pub wait_p95_s: f64,
    /// Simulated time-weighted node utilization.
    pub node_util: f64,
    /// Simulated SLO attainment (`None` when no job carries a deadline).
    pub slo_attainment: Option<f64>,
    /// Problems found by the conservation checks; empty when they pass.
    pub problems: Vec<String>,
    /// Per-site outputs and routing, for fleet runs.
    pub fleet: Option<FleetOutput>,
}

fn scheduler(kind: Kind) -> SchedulerConfig {
    let b = SchedulerBuilder::new().slowdown(SLOWDOWN);
    match kind {
        Kind::ClosedEasy | Kind::FleetEpochs => b
            .order(OrderPolicy::Fcfs)
            .backfill(BackfillPolicy::Easy)
            .memory(MemoryPolicy::PoolBestFit),
        Kind::OpenDeadline => b
            .order(OrderPolicy::Edf)
            .backfill(BackfillPolicy::None)
            .memory(MemoryPolicy::LaxityAware { max_dilation: 1.4 })
            .admission(AdmissionPolicy::RejectInfeasible),
        Kind::ClosedConservativeFaults => b
            .order(OrderPolicy::Fcfs)
            .backfill(BackfillPolicy::Conservative)
            .memory(MemoryPolicy::SlowdownAware { max_dilation: 1.35 }),
    }
    .build()
}

/// The seeded closed batch: the preset's job mix, every job stamped with
/// a budget-factor SLO. The stamps use their own random stream and no
/// closed workload's policies read them, so they change no schedule; they
/// only make SLO attainment measurable on every workload.
fn closed_batch(jobs: usize, seed: u64) -> Workload {
    let mut spec = PRESET.synthetic_spec(jobs);
    spec.slo = Some(SloModel {
        factor_min: SLO_FACTORS.0,
        factor_max: SLO_FACTORS.1,
    });
    spec.generate(seed)
}

/// A fault storm whose generator horizon covers the whole simulated run:
/// twice the batch's last arrival, since the batch drains after it.
fn fault_storm(workload: &Workload, seed: u64) -> FaultSpec {
    let last = workload
        .last_arrival()
        .map_or(0, |t| t.as_secs_f64().ceil() as u64);
    let mut gen = FaultGenerator::quiet(seed, 2 * last.max(1));
    gen.node_mtbf_s = 900;
    gen.node_repair_s = 1_800;
    gen.drain_interval_s = 3_000;
    gen.drain_duration_s = 1_200;
    gen.pool_degrade_interval_s = 5_000;
    gen.pool_degrade_duration_s = 2_500;
    gen.pool_degrade_factor = 0.4;
    FaultSpec::none()
        .with_generator(gen)
        .with_interrupt(InterruptPolicy::Checkpoint { overhead_s: 120 })
        .with_max_resubmits(2)
}

/// The fleet layout of `fleet_epochs`.
fn fleet_spec() -> FleetSpec {
    FleetSpec::symmetric(FLEET_SITES, 60.0, MetaPolicyKind::LeastMemoryPressure)
}

/// Offered load every workload is calibrated to exactly, against the
/// nodes it runs on. Fixing the realized load (not just its expectation)
/// keeps the heavy-tailed job mix from making some seeds far more loaded
/// than others.
fn offered_load(kind: Kind) -> f64 {
    match kind {
        Kind::ClosedEasy => 0.8,
        Kind::OpenDeadline => 0.85,
        Kind::ClosedConservativeFaults => 0.75,
        Kind::FleetEpochs => 0.8,
    }
}

/// Nodes the workload's load is calibrated against (the whole fleet's for
/// `fleet_epochs`).
fn nodes(kind: Kind) -> u32 {
    let cluster = preset_cluster(PRESET, POOLS);
    match kind {
        Kind::FleetEpochs => fleet_spec().total_nodes(&cluster),
        _ => cluster.total_nodes(),
    }
}

/// Generate a closed workload's batch from `seed`, its arrivals rescaled
/// to the workload's exact offered load (empty for the open stream, whose
/// jobs are generated during the run).
pub fn generate(kind: Kind, seed: u64, jobs: usize) -> Workload {
    if kind.is_open() {
        return Workload::from_jobs(Vec::new());
    }
    let w = closed_batch(jobs, seed);
    transform::shift_to_origin(&transform::rescale_load(
        &w,
        nodes(kind),
        offered_load(kind),
    ))
}

/// The open stream, with its Poisson rate set so the realized offered load
/// of its whole horizon is exact: one pilot pass over the seeded stream
/// sums the jobs' node-seconds (job attributes are drawn from streams
/// independent of the arrival rate, so the rate does not change them).
fn open_stream(seed: u64, jobs: usize) -> Result<ServiceSpec, String> {
    let cluster = preset_cluster(PRESET, POOLS);
    let pilot = ServiceSpec::open(PRESET)
        .with_utilization(offered_load(Kind::OpenDeadline))
        .with_horizon_jobs(jobs as u64)
        .with_warmup_secs(3_600)
        .with_slo_wait_secs(3_600.0)
        .with_slo_budget_factor(SLO_FACTORS.0, SLO_FACTORS.1)
        .with_seed(seed);
    let mut src = pilot.open_source(&cluster).map_err(|e| e.to_string())?;
    let demand: f64 = std::iter::from_fn(|| src.next_job())
        .map(|j| j.node_seconds())
        .sum();
    let capacity =
        offered_load(Kind::OpenDeadline) * jobs as f64 * nodes(Kind::OpenDeadline) as f64;
    Ok(pilot.with_rate(demand / capacity))
}

/// Generate `kind`'s inputs from `seed` and construct its simulator.
pub fn prepare(kind: Kind, seed: u64, jobs: usize) -> Result<Prepared, String> {
    let cfg = SimConfig::new(preset_cluster(PRESET, POOLS), scheduler(kind));
    let workload = generate(kind, seed, jobs);
    let faults = match kind {
        Kind::ClosedConservativeFaults => fault_storm(&workload, seed ^ 0x9e37_79b9_7f4a_7c15),
        _ => FaultSpec::none(),
    };
    let service = match kind {
        Kind::OpenDeadline => open_stream(seed, jobs)?,
        _ => ServiceSpec::none(),
    };
    let (fleet, runner) = match kind {
        Kind::FleetEpochs => {
            let fleet = fleet_spec();
            let sim = FleetSimulation::new(&fleet, cfg).map_err(|e| e.to_string())?;
            (fleet, Runner::Fleet(sim))
        }
        _ => (
            FleetSpec::none(),
            Runner::Single(Box::new(build_single(&cfg, &faults, &service, None)?)),
        ),
    };
    Ok(Prepared {
        kind,
        jobs,
        cfg,
        faults,
        service,
        fleet,
        workload,
        runner,
    })
}

/// Construct a single-cluster simulator for `cfg`, optionally with custom
/// policies in place of the config's built-in enums.
pub fn build_single(
    cfg: &SimConfig,
    faults: &FaultSpec,
    service: &ServiceSpec,
    policies: Option<(
        Box<dyn dmhpc_sched::Ordering>,
        Box<dyn dmhpc_sched::Placement>,
    )>,
) -> Result<Simulation, String> {
    let sim = match policies {
        None => Simulation::new(*cfg),
        Some((order, placement)) => Simulation::with_policies(*cfg, order, placement),
    };
    sim.and_then(|s| s.with_fault_spec(faults.clone()))
        .and_then(|s| s.with_service_spec(service.clone()))
        .map_err(|e| e.to_string())
}

impl Prepared {
    /// Run the workload once on its untraced simulator.
    pub fn run(&self) -> RunResult {
        match &self.runner {
            Runner::Single(sim) => self.single_result(sim.run(&self.workload)),
            Runner::Fleet(fleet) => self.fleet_result(fleet.run(&self.workload)),
        }
    }

    /// Reduce one single-cluster output and check job conservation.
    pub fn single_result(&self, out: SimOutput) -> RunResult {
        let mut problems = Vec::new();
        let slo_attainment = if let Some(svc) = &out.service {
            // Open runs: every job of the horizon is measured or skipped
            // by the warmup cutoff.
            let seen = svc.observed + svc.warmup_skipped;
            if seen != self.jobs as u64 {
                problems.push(format!(
                    "open run lost jobs: observed {} + warmup {} != horizon {}",
                    svc.observed, svc.warmup_skipped, self.jobs
                ));
            }
            svc.slo_attained
        } else {
            conserve(&out, self.jobs, &mut problems);
            closed_slo_attainment(&out.records)
        };
        RunResult {
            hash: out.trace_hash,
            events: out.events_processed,
            passes: out.passes,
            bsld_mean: out.report.mean_bsld,
            wait_p95_s: out.report.p95_wait_s,
            node_util: out.report.node_util,
            slo_attainment,
            problems,
            fleet: None,
        }
    }

    /// Reduce one fleet output and check routing and job conservation.
    pub fn fleet_result(&self, out: FleetOutput) -> RunResult {
        let mut problems = Vec::new();
        let routed: u64 = out.routed_jobs.iter().sum();
        if routed != self.jobs as u64 {
            problems.push(format!(
                "fleet routed {routed} jobs, workload has {}",
                self.jobs
            ));
        }
        conserve(&out.aggregate, self.jobs, &mut problems);
        let agg = &out.aggregate;
        RunResult {
            hash: agg.trace_hash,
            events: agg.events_processed,
            passes: agg.passes,
            bsld_mean: agg.report.mean_bsld,
            wait_p95_s: agg.report.p95_wait_s,
            node_util: agg.report.node_util,
            slo_attainment: closed_slo_attainment(&agg.records),
            problems,
            fleet: Some(out),
        }
    }
}

/// Closed runs: completed + killed + rejected + failed = submitted.
fn conserve(out: &SimOutput, submitted: usize, problems: &mut Vec<String>) {
    let r = &out.report;
    let accounted = r.completed + r.killed + r.rejected + r.failed;
    if accounted != submitted {
        problems.push(format!(
            "closed run lost jobs: completed {} + killed {} + rejected {} + failed {} != submitted {submitted}",
            r.completed, r.killed, r.rejected, r.failed
        ));
    }
}

/// Closed-run SLO attainment: the share of stamped jobs that started by
/// their deadline (rejected and failed stamped jobs count as misses).
fn closed_slo_attainment(records: &[JobRecord]) -> Option<f64> {
    let mut met = 0u64;
    let mut total = 0u64;
    for r in records {
        let Some(slo) = r.job.slo else { continue };
        total += 1;
        let deadline = slo.deadline_for(r.job.arrival, r.job.walltime);
        if r.start.is_some_and(|s| s <= deadline) {
            met += 1;
        }
    }
    (total > 0).then(|| met as f64 / total as f64)
}
