//! Experiment definitions: one function per reconstructed table/figure.
//!
//! Base configuration (unless a sweep varies it): `mid-256` preset
//! (256 nodes × 64 cores × 256 GiB), per-rack pools of 512 GiB, offered
//! load 0.9, 1,500 jobs, seed 42, saturating slowdown with a 1.5× worst
//! case. Each experiment prints the same rows/series the corresponding
//! figure plots.
//!
//! Every simulation-backed experiment is a declarative
//! [`ExperimentSpec`] grid executed by [`ExperimentRunner`]; the functions
//! here only declare axes and format the resulting table.

use dmhpc_metrics::{JobClass, SimReport};
use dmhpc_platform::{NodeSpec, PoolTopology, SlowdownModel};
use dmhpc_sched::{
    AdmissionPolicy, BackfillPolicy, MemoryPolicy, OrderPolicy, SchedulerBuilder, SchedulerConfig,
};
use dmhpc_sim::scenarios::default_slowdown;
use dmhpc_sim::{ExperimentBuilder, ExperimentResults, ExperimentRunner, ExperimentSpec, SimError};
use dmhpc_workload::{stats as wstats, SystemPreset};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;

const GIB: u64 = 1024;
const N_JOBS: usize = 1500;
const SEED: u64 = 42;
const LOAD: f64 = 0.9;
const BASE_POOL_GIB: u64 = 512;
const PRESET: SystemPreset = SystemPreset::MidCluster;

/// A finished experiment: id, title, and the printed body.
pub struct ExpResult {
    /// Experiment id (`t1`, `f3`, `a2`, …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Printed rows (also written to `results/<id>.txt`).
    pub body: String,
}

/// All experiment ids in report order.
pub fn all_ids() -> &'static [&'static str] {
    &[
        "t1", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "t2", "a1", "a2", "a3",
    ]
}

/// Execution knobs shared by every experiment in one `repro` invocation.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Attach a content-addressed result cache at this directory: cells
    /// already stored there load instead of simulating, and fresh cells
    /// are stored for the next invocation.
    pub cache_dir: Option<PathBuf>,
    /// Worker threads (`0` = one per available core).
    pub threads: usize,
    /// Stream every simulated cell's event trace to this directory as
    /// JSONL (constant memory per cell; hash-neutral, so caches stay
    /// warm). `None` = no trace export.
    pub trace_dir: Option<PathBuf>,
}

thread_local! {
    // The experiment functions below are declarative tables; the runner
    // they share is ambient so adding an execution knob does not churn
    // every table definition.
    static RUNNER: RefCell<ExperimentRunner> = RefCell::new(ExperimentRunner::new());
}

/// Run one experiment by id with default options (no cache, auto threads).
pub fn run(id: &str) -> Option<ExpResult> {
    run_with(id, &RunOptions::default()).expect("default options cannot fail")
}

/// Run one experiment by id under explicit [`RunOptions`]. `Ok(None)`
/// means the id is unknown; `Err` surfaces cache-directory *setup*
/// problems (unwritable/uncreatable dir). Store failures mid-run (disk
/// filling up underneath a running sweep) abort with a panic — the
/// experiment tables are deliberately infallible declarations; `repro
/// grid` mode reports the same condition as a typed error.
pub fn run_with(id: &str, options: &RunOptions) -> Result<Option<ExpResult>, SimError> {
    let mut runner = ExperimentRunner::with_threads(options.threads);
    if let Some(dir) = &options.cache_dir {
        runner = runner.cache_dir(dir)?;
    }
    if let Some(dir) = &options.trace_dir {
        runner = runner.trace_dir(dir)?;
    }
    RUNNER.with(|r| *r.borrow_mut() = runner);
    let result = dispatch(id);
    RUNNER.with(|r| *r.borrow_mut() = ExperimentRunner::new());
    Ok(result)
}

/// The CI smoke grid: small enough to finish in seconds, wide enough to
/// exercise every axis (2 pools × 2 seeds × 2 schedulers) — the grid the
/// sharded `repro grid`/`repro merge` smoke in CI runs on every PR.
pub fn smoke_spec() -> Result<ExperimentSpec, SimError> {
    ExperimentSpec::builder("smoke")
        .preset(SystemPreset::HighThroughput, 80)
        .pools([
            PoolTopology::None,
            PoolTopology::PerRack {
                mib_per_rack: 384 * GIB,
            },
        ])
        .load(0.8)
        .seeds([1, 2])
        .scheduler(sched_with(MemoryPolicy::LocalOnly, default_slowdown()))
        .scheduler(sched_with(MemoryPolicy::PoolFirstFit, default_slowdown()))
        .build()
}

/// The contention-model smoke grid: the same shape as [`smoke_spec`] but
/// under the dynamic `Contention` slowdown, so re-dilation is exercised
/// end to end on every PR.
pub fn smoke_contention_spec() -> Result<ExperimentSpec, SimError> {
    let contention = SlowdownModel::Contention {
        penalty: 1.5,
        gamma: 1.0,
    };
    ExperimentSpec::builder("smoke-contention")
        .preset(SystemPreset::HighThroughput, 80)
        .pools([
            PoolTopology::None,
            PoolTopology::PerRack {
                mib_per_rack: 384 * GIB,
            },
        ])
        .load(0.8)
        .seeds([1, 2])
        .scheduler(sched_with(MemoryPolicy::PoolBestFit, contention))
        .scheduler(sched_with(
            MemoryPolicy::SlowdownAware { max_dilation: 1.4 },
            contention,
        ))
        .build()
}

/// The canned fault scenario `repro grid --faults` attaches and
/// [`smoke_faults_spec`] builds in: a storm of node failures, periodic
/// maintenance drains, and pool degradations, with checkpoint/restart
/// handling. Aggressive timescales so even second-long smoke runs see
/// interruptions.
pub fn default_fault_scenario() -> dmhpc_sim::FaultSpec {
    let mut gen = dmhpc_sim::FaultGenerator::quiet(21, 40_000);
    gen.node_mtbf_s = 900;
    gen.node_repair_s = 1_800;
    gen.drain_interval_s = 3_000;
    gen.drain_duration_s = 1_200;
    gen.pool_degrade_interval_s = 5_000;
    gen.pool_degrade_duration_s = 2_500;
    gen.pool_degrade_factor = 0.4;
    dmhpc_sim::FaultSpec::none()
        .with_generator(gen)
        .with_interrupt(dmhpc_sim::InterruptPolicy::Checkpoint { overhead_s: 120 })
        .with_max_resubmits(2)
}

/// Cross a spec's grid with the default fault axis (a fault-free baseline
/// plus [`default_fault_scenario`]) — what `repro grid <spec> --faults`
/// applies. The baseline cells hash identically to the original grid's,
/// so a shared cache serves both.
pub fn with_default_faults(spec: ExperimentSpec) -> Result<ExperimentSpec, SimError> {
    if !spec.faults.is_empty() {
        return Err(SimError::spec(
            "--faults conflicts with a spec that already declares a fault axis",
        ));
    }
    ExperimentBuilder::from_spec(spec)
        .fault(dmhpc_sim::FaultSpec::none())
        .fault(default_fault_scenario())
        .build()
}

/// The availability smoke grid: [`smoke_contention_spec`]'s shape crossed
/// with the default fault axis (fault-free baseline + the canned storm),
/// so node failures, drains, pool-degradation eviction, *and* dynamic
/// re-dilation under faults run — sharded — on every PR.
pub fn smoke_faults_spec() -> Result<ExperimentSpec, SimError> {
    let base = smoke_contention_spec()?;
    with_default_faults(
        ExperimentBuilder::from_spec(base)
            .name("smoke-faults")
            .build()?,
    )
}

/// The canned open-system scenario `repro grid --service` attaches and
/// [`smoke_service_spec`] builds in: a Poisson stream of the
/// high-throughput job mix at 0.85 target utilization, a 2,000-job
/// horizon, a one-hour warmup cutoff, and a one-hour wait SLO — small
/// enough for second-long smoke runs, loaded enough that queues form.
/// The stream seed is left unset so each grid cell's workload seed
/// resolves it (distinct seeds stream distinct arrivals).
pub fn default_service_scenario() -> dmhpc_sim::ServiceSpec {
    dmhpc_sim::ServiceSpec::open(SystemPreset::HighThroughput)
        .with_utilization(0.85)
        .with_horizon_jobs(2_000)
        .with_warmup_secs(3_600)
        .with_slo_wait_secs(3_600.0)
}

/// Cross a spec's grid with the default service axis (a closed-batch
/// baseline plus [`default_service_scenario`]) — what
/// `repro grid <spec> --service` applies. The baseline cells hash
/// identically to the original grid's, so a shared cache serves both.
pub fn with_default_service(spec: ExperimentSpec) -> Result<ExperimentSpec, SimError> {
    if !spec.services.is_empty() {
        return Err(SimError::spec(
            "--service conflicts with a spec that already declares a service axis",
        ));
    }
    ExperimentBuilder::from_spec(spec)
        .service(dmhpc_sim::ServiceSpec::none())
        .service(default_service_scenario())
        .build()
}

/// The open-system smoke grid: [`smoke_spec`]'s shape crossed with the
/// default service axis, so streaming admission, load control, warmup
/// cutoffs, and the O(1)-memory sketch observer run — sharded — on every
/// PR, with the closed-baseline half proving service-axis cache keys
/// stay disjoint from open cells.
pub fn smoke_service_spec() -> Result<ExperimentSpec, SimError> {
    let base = smoke_spec()?;
    with_default_service(
        ExperimentBuilder::from_spec(base)
            .name("smoke-service")
            .build()?,
    )
}

/// The canned federation scenario `repro grid --fleet` attaches and
/// [`smoke_fleet_spec`] builds in: a four-site symmetric fleet (every
/// site inherits the cell's cluster and scheduler) behind a
/// least-queue-depth meta-scheduler routing on 300 s epochs — small
/// enough for second-long smoke runs, federated enough that the
/// epoch-synchronized lockstep and snapshot routing are exercised end
/// to end.
pub fn default_fleet_scenario() -> dmhpc_sim::FleetSpec {
    dmhpc_sim::FleetSpec::symmetric(4, 300.0, dmhpc_sched::MetaPolicyKind::LeastQueueDepth)
}

/// Cross a spec's grid with the default fleet axis (a no-federation
/// baseline plus [`default_fleet_scenario`]) — what
/// `repro grid <spec> --fleet` applies. The baseline cells hash
/// identically to the original grid's, so a shared cache serves both.
pub fn with_default_fleet(spec: ExperimentSpec) -> Result<ExperimentSpec, SimError> {
    if !spec.fleets.is_empty() {
        return Err(SimError::spec(
            "--fleet conflicts with a spec that already declares a fleet axis",
        ));
    }
    ExperimentBuilder::from_spec(spec)
        .fleet(dmhpc_sim::FleetSpec::none())
        .fleet(default_fleet_scenario())
        .build()
}

/// The federation smoke grid: [`smoke_spec`]'s shape crossed with the
/// default fleet axis, so epoch-synchronized multi-site routing runs —
/// sharded — on every PR, with the no-fleet half proving fleet-axis
/// cache keys stay disjoint from federated cells.
pub fn smoke_fleet_spec() -> Result<ExperimentSpec, SimError> {
    let base = smoke_spec()?;
    with_default_fleet(
        ExperimentBuilder::from_spec(base)
            .name("smoke-fleet")
            .build()?,
    )
}

/// The deadline service scenario the `smoke-deadline` grid runs:
/// [`default_service_scenario`]'s stream with per-job budget-factor SLO
/// stamping (deadline = arrival + factor × walltime, factor uniform in
/// [1.5, 4)). Budget factors — not a uniform wait target — so deadline
/// order genuinely differs from arrival order and EDF/least-laxity have
/// something to exploit.
pub fn default_deadline_scenario() -> dmhpc_sim::ServiceSpec {
    default_service_scenario().with_slo_budget_factor(1.5, 4.0)
}

/// The deadline-scheduling smoke grid: the [`smoke_spec`] machine under
/// the budget-factor-stamped open stream, sweeping the deadline-aware
/// ordering family (FCFS baseline, EDF, least-laxity, batched-budget
/// release) with everything else held fixed — so the only grid axis that
/// moves is *ordering*, and per-cell `slo_attainment` columns compare
/// directly. Sharded in CI like the other smoke grids.
pub fn smoke_deadline_spec() -> Result<ExperimentSpec, SimError> {
    let order_sched = |order: OrderPolicy| {
        SchedulerBuilder::new()
            .order(order)
            .slowdown(default_slowdown())
            .build()
    };
    ExperimentSpec::builder("smoke-deadline")
        .preset(SystemPreset::HighThroughput, 80)
        .pool(PoolTopology::None)
        .load(0.8)
        .seeds([1, 2])
        .service(default_deadline_scenario())
        .scheduler(order_sched(OrderPolicy::Fcfs))
        .scheduler(order_sched(OrderPolicy::Edf))
        .scheduler(order_sched(OrderPolicy::LeastLaxity))
        .scheduler(order_sched(OrderPolicy::BatchBudget { hold_s: 60.0 }))
        .build()
}

/// The admission-control smoke grid: the deadline-stamped stream of
/// [`default_deadline_scenario`] with ordering pinned at EDF and the
/// *other* two deadline decisions sweeping — cost-based vs laxity-aware
/// placement, and admit-all vs reject-infeasible vs defer admission — on
/// a pooled machine, so per-cell `slo_attainment`/`rejected` columns
/// isolate what placement and admission add over EDF alone. Sharded in
/// CI like the other smoke grids.
pub fn smoke_admission_spec() -> Result<ExperimentSpec, SimError> {
    let sched = |memory: MemoryPolicy, admission: AdmissionPolicy| {
        SchedulerBuilder::new()
            .order(OrderPolicy::Edf)
            .memory(memory)
            .slowdown(default_slowdown())
            .admission(admission)
            .build()
    };
    let laxity = MemoryPolicy::LaxityAware { max_dilation: 1.4 };
    ExperimentSpec::builder("smoke-admission")
        .preset(SystemPreset::HighThroughput, 80)
        .pool(PoolTopology::PerRack {
            mib_per_rack: 384 * GIB,
        })
        .load(0.8)
        .seeds([1, 2])
        .service(default_deadline_scenario())
        .scheduler(sched(
            MemoryPolicy::SlowdownAware { max_dilation: 1.4 },
            AdmissionPolicy::AdmitAll,
        ))
        .scheduler(sched(laxity, AdmissionPolicy::AdmitAll))
        .scheduler(sched(laxity, AdmissionPolicy::RejectInfeasible))
        .scheduler(sched(laxity, AdmissionPolicy::DeferUntilFeasible))
        .build()
}

fn dispatch(id: &str) -> Option<ExpResult> {
    Some(match id {
        "t1" => t1(),
        "f1" => f1(),
        "f2" => f2(),
        "f3" => f3(),
        "f4" => f4(),
        "f5" => f5(),
        "f6" => f6(),
        "f7" => f7(),
        "f8" => f8(),
        "f9" => f9(),
        "t2" => t2(),
        "a1" => a1(),
        "a2" => a2(),
        "a3" => a3(),
        _ => return None,
    })
}

/// The shared base grid: `mid-256` preset, 1,500 jobs, seed 42, load 0.9.
/// Experiments add their own cluster/scheduler axes on top.
fn base(name: &'static str) -> ExperimentBuilder {
    ExperimentSpec::builder(name)
        .preset(PRESET, N_JOBS)
        .load(LOAD)
        .seed(SEED)
}

/// Declare-and-run: every experiment goes through the shared ambient
/// runner (set up by [`run_with`]), so `repro --cache-dir` accelerates
/// every table and figure without each one knowing about caching.
fn execute(builder: ExperimentBuilder) -> ExperimentResults {
    let spec = builder.build().expect("experiment grid is well-formed");
    RUNNER
        .with(|r| r.borrow().clone())
        .run(&spec)
        .expect("validated grid runs and the cache directory is writable")
}

fn per_rack(gib: u64) -> PoolTopology {
    PoolTopology::PerRack {
        mib_per_rack: gib * GIB,
    }
}

fn sched_with(memory: MemoryPolicy, slowdown: SlowdownModel) -> SchedulerConfig {
    SchedulerBuilder::new()
        .memory(memory)
        .slowdown(slowdown)
        .build()
}

fn policy_short(label: &str) -> &str {
    label.rsplit('+').next().unwrap_or(label)
}

// ---------------------------------------------------------------- T1 / F1

fn t1() -> ExpResult {
    let mut body = String::new();
    let _ = writeln!(
        body,
        "{:<10} {:>6} {:>9} {:>10} {:>7} {:>9} {:>9} {:>8} {:>9} {:>9}",
        "trace",
        "jobs",
        "span_h",
        "node_h",
        "mean_n",
        "med_run_s",
        "med_mem%",
        "p95_mem%",
        "over_node",
        "over_work"
    );
    for preset in SystemPreset::ALL {
        let spec = preset.synthetic_spec(8000);
        let w = spec.generate(SEED);
        let s = wstats::summarize(preset.name(), &w, spec.memory.node_mem_mib);
        let _ = writeln!(
            body,
            "{:<10} {:>6} {:>9.1} {:>10.0} {:>7.1} {:>9.0} {:>8.1}% {:>7.1}% {:>8.1}% {:>8.1}%",
            s.name,
            s.jobs,
            s.span_hours,
            s.node_hours,
            s.mean_nodes,
            s.median_runtime_s,
            100.0 * s.median_mem_frac,
            100.0 * s.p95_mem_frac,
            100.0 * s.over_node_fraction,
            100.0 * s.over_node_work_fraction,
        );
    }
    ExpResult {
        id: "t1",
        title: "Workload characterization (per synthetic system preset)",
        body,
    }
}

fn f1() -> ExpResult {
    let spec = PRESET.synthetic_spec(8000);
    let w = spec.generate(SEED);
    let pts = wstats::memory_demand_cdf(&w, spec.memory.node_mem_mib, 25);
    let mut body = String::from("mem_frac_of_node,cdf\n");
    for (x, y) in pts {
        let _ = writeln!(body, "{x:.4},{y:.4}");
    }
    ExpResult {
        id: "f1",
        title: "CDF of per-node memory demand (fraction of node DRAM)",
        body,
    }
}

// ---------------------------------------------------------------- F2

fn f2() -> ExpResult {
    let outs = execute(
        base("f2")
            .pool(PoolTopology::None)
            .scheduler(sched_with(MemoryPolicy::LocalOnly, SlowdownModel::None)),
    );
    let out = &outs.cells()[0].output;
    let mut body = String::new();
    let _ = writeln!(
        body,
        "# motivation: CPU vs DRAM utilization gap under local-only scheduling"
    );
    let _ = writeln!(
        body,
        "node_util={:.3} dram_util={:.3} gap={:.3} inflated_jobs={:.1}%",
        out.report.node_util,
        out.report.dram_util,
        out.report.node_util - out.report.dram_util,
        100.0 * out.report.inflated_fraction,
    );
    let _ = writeln!(body, "hour,nodes_busy_frac,dram_used_frac");
    let nodes = out.series.node_util_series(out.end_time, 25);
    let dram = out.series.dram_util_series(out.end_time, 25);
    for ((h, n), (_, d)) in nodes.iter().zip(dram.iter()) {
        let _ = writeln!(body, "{h:.2},{n:.4},{d:.4}");
    }
    ExpResult {
        id: "f2",
        title: "CPU vs memory utilization over time (local-only baseline)",
        body,
    }
}

// ---------------------------------------------------------------- F3

fn f3() -> ExpResult {
    let sizes = [0u64, 128, 256, 512, 1024];
    let outs = execute(
        base("f3")
            .pools(sizes.iter().map(|&gib| {
                if gib == 0 {
                    PoolTopology::None
                } else {
                    per_rack(gib)
                }
            }))
            .policy_suite(default_slowdown()),
    );
    let mut body = String::new();
    let _ = writeln!(
        body,
        "{:<14} {:>10} {:>12} {:>12} {:>10}",
        "policy", "pool_gib", "mean_wait_s", "p95_wait_s", "p95_bsld"
    );
    // Policy-major rows (the figure draws one line per policy). Grid order
    // is cluster-outer/scheduler-inner, so cell (ci, si) sits at
    // `ci * n_policies + si`.
    let n_policies = outs.len() / sizes.len();
    for si in 0..n_policies {
        for (ci, &gib) in sizes.iter().enumerate() {
            let cell = &outs.cells()[ci * n_policies + si];
            let _ = writeln!(
                body,
                "{:<14} {:>10} {:>12.0} {:>12.0} {:>10.2}",
                policy_short(&cell.output.report.label),
                gib,
                cell.output.report.mean_wait_s,
                cell.output.report.p95_wait_s,
                cell.output.report.p95_bsld,
            );
        }
    }
    ExpResult {
        id: "f3",
        title: "Wait time vs per-rack pool capacity (4 policies)",
        body,
    }
}

// ---------------------------------------------------------------- F4

fn f4() -> ExpResult {
    let outs = execute(
        base("f4")
            .pool(per_rack(BASE_POOL_GIB))
            .loads([0.7, 0.8, 1.0, 1.1]) // 0.9 comes from base()
            .policy_suite(default_slowdown()),
    );
    let mut body = String::new();
    let _ = writeln!(
        body,
        "{:<14} {:>6} {:>12} {:>10} {:>10}",
        "policy", "load", "mean_wait_s", "p95_bsld", "node_util"
    );
    let mut loads: Vec<f64> = outs.cells().iter().filter_map(|c| c.key.load).collect();
    loads.sort_by(|a, b| a.partial_cmp(b).expect("finite loads"));
    loads.dedup();
    for &load in &loads {
        for cell in outs.select(|k| k.load == Some(load)) {
            let _ = writeln!(
                body,
                "{:<14} {:>6.2} {:>12.0} {:>10.2} {:>10.3}",
                policy_short(&cell.output.report.label),
                load,
                cell.output.report.mean_wait_s,
                cell.output.report.p95_bsld,
                cell.output.report.node_util,
            );
        }
    }
    ExpResult {
        id: "f4",
        title: "Bounded slowdown vs offered load (4 policies, pool 512 GiB/rack)",
        body,
    }
}

// ---------------------------------------------------------------- F5

fn f5() -> ExpResult {
    // Shrink node DRAM while a fixed pool compensates: does disaggregation
    // let you buy thinner nodes?
    let drams = [128u64, 192, 256, 384, 512];
    let (racks, npr, cores, _) = PRESET.machine();
    let mut builder = base("f5");
    for &dram in &drams {
        builder = builder.cluster(
            format!("dram-{dram}gib"),
            dmhpc_platform::ClusterSpec::new(
                racks,
                npr,
                NodeSpec::new(cores, dram * GIB),
                per_rack(BASE_POOL_GIB),
            ),
        );
    }
    let outs = execute(builder.schedulers([
        sched_with(MemoryPolicy::LocalOnly, default_slowdown()),
        sched_with(
            MemoryPolicy::SlowdownAware { max_dilation: 1.35 },
            default_slowdown(),
        ),
    ]));
    let mut body = String::new();
    let _ = writeln!(
        body,
        "{:<14} {:>9} {:>10} {:>12} {:>12} {:>10}",
        "policy", "dram_gib", "node_util", "mean_wait_s", "jobs_per_day", "borrowed%"
    );
    for memory in ["local-only", "slowdown-aware"] {
        for &dram in &drams {
            let cell = outs
                .select(|k| k.cluster == format!("dram-{dram}gib") && k.scheduler.contains(memory))
                .into_iter()
                .next()
                .expect("every (dram, policy) cell ran");
            let r = &cell.output.report;
            let _ = writeln!(
                body,
                "{:<14} {:>9} {:>10.3} {:>12.0} {:>12.0} {:>9.1}%",
                memory,
                dram,
                r.node_util,
                r.mean_wait_s,
                r.throughput_jobs_per_day,
                100.0 * r.borrowed_fraction,
            );
        }
    }
    ExpResult {
        id: "f5",
        title: "Utilization & throughput vs node DRAM (pool fixed at 512 GiB/rack)",
        body,
    }
}

// ---------------------------------------------------------------- F6

fn f6() -> ExpResult {
    let penalties = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0];
    let mut body = String::new();
    let _ = writeln!(
        body,
        "{:<14} {:>8} {:>11} {:>12} {:>11} {:>10}",
        "policy", "penalty", "makespan_h", "mean_wait_s", "mean_dil", "borrowed%"
    );
    // Local-only reference (penalty-independent).
    let base_outs = execute(
        base("f6-baseline")
            .pool(PoolTopology::None)
            .scheduler(sched_with(MemoryPolicy::LocalOnly, SlowdownModel::None)),
    );
    let b = &base_outs.cells()[0].output.report;
    let _ = writeln!(
        body,
        "{:<14} {:>8} {:>11.1} {:>12.0} {:>11.3} {:>9.1}%",
        "local-only", "-", b.makespan_h, b.mean_wait_s, 1.0, 0.0
    );
    // The penalty sweep is a scheduler axis: memory policy × slowdown model.
    let memories = [
        MemoryPolicy::PoolFirstFit,
        MemoryPolicy::SlowdownAware { max_dilation: 1.35 },
    ];
    let outs = execute(base("f6").pool(per_rack(BASE_POOL_GIB)).schedulers(
        memories.iter().flat_map(|&memory| {
            penalties.map(move |penalty| {
                sched_with(
                    memory,
                    SlowdownModel::Saturating {
                        penalty,
                        curvature: 3.0,
                    },
                )
            })
        }),
    ));
    for (cell, (memory, penalty)) in outs.cells().iter().zip(
        memories
            .iter()
            .flat_map(|&m| penalties.map(move |p| (m, p))),
    ) {
        let r = &cell.output.report;
        let _ = writeln!(
            body,
            "{:<14} {:>8.1} {:>11.1} {:>12.0} {:>11.3} {:>9.1}%",
            memory.name(),
            penalty,
            r.makespan_h,
            r.mean_wait_s,
            r.mean_dilation_borrowers.max(1.0),
            100.0 * r.borrowed_fraction,
        );
    }
    ExpResult {
        id: "f6",
        title: "Crossover vs far-memory penalty (does borrowing stop paying?)",
        body,
    }
}

// ---------------------------------------------------------------- F7

fn f7() -> ExpResult {
    let outs = execute(
        base("f7")
            .pools([per_rack(128), per_rack(512)])
            .scheduler(sched_with(MemoryPolicy::PoolFirstFit, default_slowdown())),
    );
    let mut body = String::from("pool_gib,hour,pool_util\n");
    for (cell, gib) in outs.cells().iter().zip([128u64, 512]) {
        let out = &cell.output;
        for (h, u) in out.series.pool_util_series(out.end_time, 25) {
            let _ = writeln!(body, "{gib},{h:.2},{u:.4}");
        }
    }
    ExpResult {
        id: "f7",
        title: "Pool utilization over time (128 vs 512 GiB/rack)",
        body,
    }
}

// ---------------------------------------------------------------- F8

fn f8() -> ExpResult {
    let baseline = execute(
        base("f8-baseline")
            .pool(PoolTopology::None)
            .scheduler(sched_with(MemoryPolicy::LocalOnly, SlowdownModel::None)),
    );
    let aware = execute(
        base("f8-aware")
            .pool(per_rack(BASE_POOL_GIB))
            .scheduler(sched_with(
                MemoryPolicy::SlowdownAware { max_dilation: 1.35 },
                default_slowdown(),
            )),
    );
    let baseline = &baseline.cells()[0].output;
    let aware = &aware.cells()[0].output;
    let mut body = String::new();
    let _ = writeln!(
        body,
        "{:<12} {:>6} {:>14} {:>14} {:>9} {:>10} {:>10}",
        "class", "jobs", "wait_local_s", "wait_aware_s", "speedup", "borrowed%", "inflated%"
    );
    for class in JobClass::ALL {
        let b = baseline.report.classes.row(class);
        let a = aware.report.classes.row(class);
        let speedup = if a.mean_wait_s > 0.0 {
            b.mean_wait_s / a.mean_wait_s
        } else if b.mean_wait_s > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        let _ = writeln!(
            body,
            "{:<12} {:>6} {:>14.0} {:>14.0} {:>8.2}x {:>9.1}% {:>9.1}%",
            class.name(),
            b.jobs,
            b.mean_wait_s,
            a.mean_wait_s,
            speedup,
            100.0 * a.borrowed_fraction,
            100.0 * b.inflated_fraction,
        );
    }
    ExpResult {
        id: "f8",
        title: "Per-class wait: local-only vs slowdown-aware (who wins?)",
        body,
    }
}

// ---------------------------------------------------------------- F9

fn f9() -> ExpResult {
    let total = BASE_POOL_GIB * 8; // same total capacity, different layout
    let outs = execute(
        base("f9")
            .pools([
                PoolTopology::None,
                per_rack(BASE_POOL_GIB),
                PoolTopology::Global { mib: total * GIB },
            ])
            .scheduler(sched_with(MemoryPolicy::PoolBestFit, default_slowdown())),
    );
    let mut body = String::new();
    let _ = writeln!(
        body,
        "{:<14} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "topology", "mean_wait_s", "p95_bsld", "node_util", "pool_util", "borrowed%"
    );
    for (cell, name) in outs
        .cells()
        .iter()
        .zip(["none", "per-rack-512", "global-4096"])
    {
        let r = &cell.output.report;
        let _ = writeln!(
            body,
            "{:<14} {:>12.0} {:>10.2} {:>10.3} {:>10.3} {:>9.1}%",
            name,
            r.mean_wait_s,
            r.p95_bsld,
            r.node_util,
            r.pool_util,
            100.0 * r.borrowed_fraction,
        );
    }
    ExpResult {
        id: "f9",
        title: "Pool topology: none vs per-rack vs global (equal total capacity)",
        body,
    }
}

// ---------------------------------------------------------------- T2

fn report_table(reports: &[&SimReport]) -> String {
    let mut body = String::new();
    let _ = writeln!(
        body,
        "{:<28} {:>5} {:>5} {:>4} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "policy",
        "done",
        "kill",
        "rej",
        "mean_w_s",
        "p95_w_s",
        "p95_bsld",
        "node_ut",
        "pool_ut",
        "borrow%",
        "infl%",
        "fair"
    );
    for r in reports {
        let _ = writeln!(
            body,
            "{:<28} {:>5} {:>5} {:>4} {:>10.0} {:>10.0} {:>9.2} {:>9.3} {:>9.3} {:>8.1}% {:>8.1}% {:>9.3}",
            r.label,
            r.completed,
            r.killed,
            r.rejected,
            r.mean_wait_s,
            r.p95_wait_s,
            r.p95_bsld,
            r.node_util,
            r.pool_util,
            100.0 * r.borrowed_fraction,
            100.0 * r.inflated_fraction,
            r.user_fairness,
        );
    }
    body
}

fn t2() -> ExpResult {
    let outs = execute(
        base("t2")
            .pool(per_rack(BASE_POOL_GIB))
            .policy_suite(default_slowdown()),
    );
    let reports: Vec<&SimReport> = outs.cells().iter().map(|c| &c.output.report).collect();
    ExpResult {
        id: "t2",
        title: "Headline policy comparison (base config: load 0.9, 512 GiB/rack)",
        body: report_table(&reports),
    }
}

// ---------------------------------------------------------------- A1–A3

fn a1() -> ExpResult {
    let outs = execute(
        base("a1")
            .pool(per_rack(BASE_POOL_GIB))
            .schedulers([true, false].map(|inflate| {
                SchedulerBuilder::new()
                    .memory(MemoryPolicy::PoolFirstFit)
                    .slowdown(default_slowdown())
                    .inflate_walltime(inflate)
                    .build()
            })),
    );
    let mut reports = Vec::new();
    for (cell, inflate) in outs.cells().iter().zip([true, false]) {
        let mut r = cell.output.report.clone();
        r.label = format!("pool-ff inflate={inflate}");
        reports.push(r);
    }
    let refs: Vec<&SimReport> = reports.iter().collect();
    ExpResult {
        id: "a1",
        title: "Ablation A1: walltime inflation for dilated jobs (kill counts)",
        body: report_table(&refs),
    }
}

fn a2() -> ExpResult {
    let outs = execute(
        base("a2").pool(per_rack(BASE_POOL_GIB)).schedulers(
            [
                BackfillPolicy::None,
                BackfillPolicy::Easy,
                BackfillPolicy::Conservative,
            ]
            .map(|backfill| {
                SchedulerBuilder::new()
                    .order(OrderPolicy::Fcfs)
                    .backfill(backfill)
                    .memory(MemoryPolicy::PoolBestFit)
                    .slowdown(default_slowdown())
                    .build()
            }),
        ),
    );
    let reports: Vec<&SimReport> = outs.cells().iter().map(|c| &c.output.report).collect();
    ExpResult {
        id: "a2",
        title: "Ablation A2: backfill flavour under disaggregation",
        body: report_table(&reports),
    }
}

fn a3() -> ExpResult {
    let models: [(&str, SlowdownModel); 3] = [
        ("static-linear-1.5", SlowdownModel::Linear { penalty: 1.5 }),
        (
            "contention-g1",
            SlowdownModel::Contention {
                penalty: 1.5,
                gamma: 1.0,
            },
        ),
        (
            "contention-g2",
            SlowdownModel::Contention {
                penalty: 1.5,
                gamma: 2.0,
            },
        ),
    ];
    let outs = execute(
        base("a3")
            .pool(per_rack(BASE_POOL_GIB))
            .schedulers(models.map(|(_, model)| sched_with(MemoryPolicy::PoolFirstFit, model))),
    );
    let mut body = String::new();
    let _ = writeln!(
        body,
        "{:<20} {:>12} {:>10} {:>12} {:>6}",
        "model", "mean_wait_s", "p95_bsld", "mean_dil", "kill"
    );
    for (cell, (name, _)) in outs.cells().iter().zip(models) {
        let r = &cell.output.report;
        let _ = writeln!(
            body,
            "{:<20} {:>12.0} {:>10.2} {:>12.3} {:>6}",
            name,
            r.mean_wait_s,
            r.p95_bsld,
            r.mean_dilation_borrowers.max(1.0),
            r.killed,
        );
    }
    ExpResult {
        id: "a3",
        title: "Ablation A3: static vs contention-aware dilation",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_dispatch() {
        assert_eq!(all_ids().len(), 14);
        assert!(run("zzz").is_none());
    }

    #[test]
    fn t1_runs_quickly_and_shapes() {
        let r = run("t1").unwrap();
        assert_eq!(r.id, "t1");
        assert_eq!(r.body.lines().count(), 4, "header + 3 presets");
    }

    #[test]
    fn f1_is_csv_cdf() {
        let r = run("f1").unwrap();
        let lines: Vec<&str> = r.body.trim().lines().collect();
        assert_eq!(lines[0], "mem_frac_of_node,cdf");
        assert!(lines.len() > 10);
    }

    #[test]
    fn smoke_spec_compiles_and_serializes() {
        let spec = smoke_spec().unwrap();
        assert_eq!(
            spec.cell_count(),
            8,
            "2 pools × 1 load × 2 seeds × 2 schedulers"
        );
        assert_eq!(spec.compile().unwrap().len(), spec.cell_count());
        // The CI smoke writes/reads this spec as JSON.
        let json = spec.to_json().unwrap();
        let back = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(back.cell_hashes().unwrap(), spec.cell_hashes().unwrap());
    }

    #[test]
    fn smoke_contention_spec_compiles_and_differs_from_smoke() {
        let spec = smoke_contention_spec().unwrap();
        assert_eq!(spec.cell_count(), 8);
        let cells = spec.compile().unwrap();
        assert!(cells
            .iter()
            .all(|c| c.config.scheduler.slowdown.is_dynamic()));
        // Distinct scheduler configs ⇒ disjoint cache keys from `smoke`.
        let smoke_hashes: Vec<u64> = smoke_spec()
            .unwrap()
            .cell_hashes()
            .unwrap()
            .into_iter()
            .map(|(_, h)| h)
            .collect();
        for (_, h) in spec.cell_hashes().unwrap() {
            assert!(!smoke_hashes.contains(&h));
        }
    }

    #[test]
    fn smoke_service_spec_baseline_shares_smoke_cache_keys() {
        let spec = smoke_service_spec().unwrap();
        assert_eq!(spec.cell_count(), 2 * smoke_spec().unwrap().cell_count());
        let smoke: Vec<u64> = smoke_spec()
            .unwrap()
            .cell_hashes()
            .unwrap()
            .into_iter()
            .map(|(_, h)| h)
            .collect();
        let mut baseline = 0;
        for (key, h) in spec.cell_hashes().unwrap() {
            if key.service.is_none() {
                baseline += 1;
                assert!(
                    smoke.contains(&h),
                    "closed-baseline cells reuse smoke cache entries"
                );
            } else {
                assert!(!smoke.contains(&h), "open cells get their own cache keys");
            }
        }
        assert_eq!(baseline * 2, spec.cell_count(), "half the cells are closed");
    }

    #[test]
    fn default_service_scenario_validates_and_resolves_seeds() {
        default_service_scenario().validate().unwrap();
        assert_eq!(
            default_service_scenario().seed,
            None,
            "stream seed left to the grid's seed axis"
        );
        // Every open cell in the smoke grid carries a resolved stream seed.
        for cell in smoke_service_spec().unwrap().compile().unwrap() {
            if !cell.service.is_none() {
                assert_eq!(cell.service.seed, cell.key.seed);
            }
        }
    }

    #[test]
    fn smoke_fleet_spec_baseline_shares_smoke_cache_keys() {
        let spec = smoke_fleet_spec().unwrap();
        assert_eq!(spec.cell_count(), 2 * smoke_spec().unwrap().cell_count());
        let smoke: Vec<u64> = smoke_spec()
            .unwrap()
            .cell_hashes()
            .unwrap()
            .into_iter()
            .map(|(_, h)| h)
            .collect();
        let mut baseline = 0;
        for (key, h) in spec.cell_hashes().unwrap() {
            if key.fleet.is_none() {
                baseline += 1;
                assert!(
                    smoke.contains(&h),
                    "no-fleet baseline cells reuse smoke cache entries"
                );
            } else {
                assert!(!smoke.contains(&h), "federated cells get their own keys");
            }
        }
        assert_eq!(baseline * 2, spec.cell_count(), "half the cells are plain");
    }

    #[test]
    fn default_fleet_scenario_validates_against_smoke_clusters() {
        let fleet = default_fleet_scenario();
        fleet.validate().unwrap();
        assert_eq!(fleet.sites.len(), 4);
        for cluster in &smoke_spec().unwrap().clusters {
            fleet.validate_for(&cluster.1).unwrap();
        }
    }

    #[test]
    fn smoke_deadline_spec_sweeps_only_ordering() {
        let spec = smoke_deadline_spec().unwrap();
        assert_eq!(
            spec.cell_count(),
            8,
            "1 pool × 1 load × 2 seeds × 4 orderings"
        );
        let cells = spec.compile().unwrap();
        // Every cell is open and stamps per-job budget-factor deadlines.
        for cell in &cells {
            assert!(!cell.service.is_none());
            assert_eq!(cell.service.slo_budget_factor, Some((1.5, 4.0)));
            assert_eq!(cell.service.seed, cell.key.seed);
        }
        let orders: std::collections::BTreeSet<&'static str> = cells
            .iter()
            .map(|c| c.config.scheduler.order.name())
            .collect();
        assert_eq!(
            orders.into_iter().collect::<Vec<_>>(),
            ["batch-budget", "edf", "fcfs", "llf"]
        );
        // Round-trips through JSON with identical cache keys, like the
        // other CI smoke grids.
        let json = spec.to_json().unwrap();
        let back = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(back.cell_hashes().unwrap(), spec.cell_hashes().unwrap());
    }

    #[test]
    fn run_with_cache_dir_reuses_results() {
        let dir =
            std::env::temp_dir().join(format!("dmhpc-repro-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = RunOptions {
            cache_dir: Some(dir.clone()),
            threads: 2,
            trace_dir: None,
        };
        let cold = run_with("f2", &options).unwrap().unwrap();
        let warm = run_with("f2", &options).unwrap().unwrap();
        assert_eq!(cold.body, warm.body, "cached replay reproduces the figure");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn base_grid_declares_the_standard_cell() {
        let spec = base("probe")
            .pool(per_rack(BASE_POOL_GIB))
            .policy_suite(default_slowdown())
            .build()
            .unwrap();
        assert_eq!(spec.cell_count(), 4, "1 cluster × 1 load × 1 seed × suite");
        assert_eq!(spec.seeds, vec![SEED]);
        assert_eq!(spec.loads, vec![LOAD]);
    }
}
