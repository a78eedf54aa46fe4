//! Experiment-runner overhead on a small grid.
//!
//! Measures the full declarative path — grid compilation, workload
//! materialization/caching, parallel fan-out, result labelling — against
//! the raw per-cell simulation cost, so later sweep-scaling work (sharding,
//! result caching, incremental grids) has a baseline to beat. The grid is
//! deliberately small and the workload short: the interesting number is
//! the fixed overhead around the simulations, not the simulations.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dmhpc_des::time::SimDuration;
use dmhpc_platform::{PoolTopology, SlowdownModel};
use dmhpc_sched::{
    AdmissionPolicy, BackfillPolicy, MemoryPolicy, MetaPolicyKind, OrderPolicy, SchedulerBuilder,
};
use dmhpc_sim::observe::{EventCounter, SampledSeriesProbe, TraceSink};
use dmhpc_sim::scenarios::{default_slowdown, policy_suite, preset_cluster};
use dmhpc_sim::{
    ExperimentRunner, ExperimentSpec, FleetSimulation, FleetSpec, Shard, SimConfig, Simulation,
};
use dmhpc_workload::source::JobSource as _;
use dmhpc_workload::{SloModel, SystemPreset};

const JOBS: usize = 120;

fn small_grid() -> ExperimentSpec {
    ExperimentSpec::builder("bench-grid")
        .preset(SystemPreset::HighThroughput, JOBS)
        .pools([
            PoolTopology::None,
            PoolTopology::PerRack {
                mib_per_rack: 384 * 1024,
            },
        ])
        .load(0.8)
        .seed(17)
        .schedulers(policy_suite(default_slowdown()))
        .build()
        .expect("bench grid is well-formed")
}

fn bench_experiment(c: &mut Criterion) {
    let spec = small_grid();
    let cells = spec.cell_count() as u64;

    let mut group = c.benchmark_group("experiment_runner");
    group.sample_size(10);

    // Compilation alone: pure grid expansion + validation, no simulation.
    group.throughput(Throughput::Elements(cells));
    group.bench_function("compile", |b| {
        b.iter(|| black_box(spec.compile().expect("valid grid")))
    });

    // Spec (de)serialization: the config-file path.
    group.bench_function("json_round_trip", |b| {
        b.iter(|| {
            let json = spec.to_json().expect("serializable");
            black_box(ExperimentSpec::from_json(&json).expect("parses back"))
        })
    });

    // Whole grid, serial vs parallel: the difference is the fan-out win;
    // `serial` vs `raw_cells` below is the runner's bookkeeping overhead.
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("run", threads), &threads, |b, &t| {
            let runner = ExperimentRunner::with_threads(t);
            b.iter(|| black_box(runner.run(&spec).expect("validated grid runs")))
        });
    }

    // The same cells simulated by hand against a pre-materialized
    // workload: the floor the runner's overhead sits on.
    let compiled = spec.compile().expect("valid grid");
    let workload = SystemPreset::HighThroughput
        .synthetic_spec(JOBS)
        .generate(17);
    group.bench_function("raw_cells", |b| {
        b.iter(|| {
            for cell in &compiled {
                let sim = Simulation::new(black_box(cell.config)).expect("valid config");
                black_box(sim.run(&workload));
            }
        })
    });
    group.finish();
}

fn bench_grid_scaling(c: &mut Criterion) {
    // The scaling layer itself: what does a fully warm cached run cost
    // relative to simulating (`run/1` above), and what does sharding the
    // grid cost beyond compilation?
    let spec = small_grid();
    let cells = spec.cell_count() as u64;
    let dir = std::env::temp_dir().join(format!("dmhpc-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut group = c.benchmark_group("grid_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cells));

    // Populate the cache once (cold run), then measure all-hit replays:
    // the number every future "skip unchanged cells" feature banks on.
    let runner = ExperimentRunner::with_threads(1)
        .cache_dir(&dir)
        .expect("temp cache dir is writable");
    let cold = runner.run(&spec).expect("cold run populates the cache");
    assert_eq!(cold.stats().cache_hits, 0);
    group.bench_function("warm_cache_run", |b| {
        b.iter(|| {
            let results = runner.run(&spec).expect("warm run loads from cache");
            assert_eq!(results.stats().simulated, 0, "warm run must not simulate");
            black_box(results)
        })
    });

    // Cell hashing alone: the per-cell cost every cached run pays even
    // on a miss.
    group.bench_function("cell_hashes", |b| {
        b.iter(|| black_box(spec.cell_hashes().expect("valid grid")))
    });

    // Shard partitioning (compile + filter), the per-process startup cost
    // of a fan-out.
    group.bench_function("shard_partition", |b| {
        let shard = Shard::new(0, 4).expect("valid shard");
        b.iter(|| black_box(spec.shard(shard).expect("valid grid")))
    });
    group.finish();

    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_single_cell(c: &mut Criterion) {
    // Reference: one simulation outside any grid machinery.
    let spec = small_grid();
    let cell = spec.compile().expect("valid grid").remove(0);
    let workload = SystemPreset::HighThroughput
        .synthetic_spec(JOBS)
        .generate(17);
    let mut group = c.benchmark_group("experiment_cell");
    group.sample_size(10);
    group.throughput(Throughput::Elements(2 * JOBS as u64));
    group.bench_function("single_cell", |b| {
        let sim = Simulation::new(cell.config).expect("valid config");
        b.iter(|| black_box(sim.run(&workload)))
    });
    group.finish();
}

fn bench_engine_kernel(c: &mut Criterion) {
    // Engine throughput (events/sec) on a large high-load workload — the
    // number the incremental kernel moves. The contention model keeps the pool-scoped re-dilation path
    // hot, which is the expensive regime.
    const KERNEL_JOBS: usize = 2_000;
    let workload = SystemPreset::HighThroughput
        .synthetic_spec(KERNEL_JOBS)
        .generate(23);
    let cluster = preset_cluster(
        SystemPreset::HighThroughput,
        PoolTopology::PerRack {
            mib_per_rack: 384 * 1024,
        },
    );
    let sched = SchedulerBuilder::new()
        .memory(MemoryPolicy::PoolBestFit)
        .slowdown(SlowdownModel::Contention {
            penalty: 1.5,
            gamma: 1.0,
        })
        .build();
    let cfg = SimConfig::new(cluster, sched);

    // One reference run: fix the throughput denominator and report the
    // pass sparsity the event-driven kernel achieves at this load.
    let reference = Simulation::new(cfg).expect("valid config").run(&workload);
    assert!(
        reference.passes < reference.events_processed,
        "kernel must schedule fewer passes than events"
    );
    eprintln!(
        "engine_kernel: {} events, {} passes ({:.1}% of events)",
        reference.events_processed,
        reference.passes,
        100.0 * reference.passes as f64 / reference.events_processed as f64
    );

    let mut group = c.benchmark_group("engine_kernel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reference.events_processed));
    // The `heap` id is historical (the engine once had a calendar-queue
    // arm); it is kept so the gate and the trajectory rows stay comparable.
    let sim = Simulation::new(cfg).expect("valid config");
    group.bench_function("heap", |b| b.iter(|| black_box(sim.run(&workload))));
    // The same run without backfilling: `bench_gate` bounds heap over
    // this arm (`backfill_vs_none_ratio`), i.e. what the backfill layer
    // (profile build + scan) costs on top of the rest of the kernel.
    let mut no_backfill = cfg;
    no_backfill.scheduler.backfill = BackfillPolicy::None;
    let sim = Simulation::new(no_backfill).expect("valid config");
    group.bench_function("no_backfill", |b| b.iter(|| black_box(sim.run(&workload))));
    group.finish();
}

fn bench_engine_faults(c: &mut Criterion) {
    // Fault-path cost: the same high-load contention workload once
    // fault-free and once under the canned fault storm (node failures,
    // drains, pool degradations, checkpoint/restart). The `bench_gate`
    // bounds the faults/clean throughput ratio so the availability
    // subsystem cannot silently slow the kernel — on fault-free runs the
    // path is dead code, and even under an active storm the overhead is
    // interruption-work, not per-event tax.
    const FAULT_JOBS: usize = 1_500;
    let workload = SystemPreset::HighThroughput
        .synthetic_spec(FAULT_JOBS)
        .generate(29);
    let cluster = preset_cluster(
        SystemPreset::HighThroughput,
        PoolTopology::PerRack {
            mib_per_rack: 384 * 1024,
        },
    );
    let sched = SchedulerBuilder::new()
        .memory(MemoryPolicy::PoolBestFit)
        .slowdown(SlowdownModel::Contention {
            penalty: 1.5,
            gamma: 1.0,
        })
        .build();
    let cfg = SimConfig::new(cluster, sched);

    let clean = Simulation::new(cfg).expect("valid config");
    let faulty = Simulation::new(cfg)
        .expect("valid config")
        .with_fault_spec(dmhpc_bench::experiments::default_fault_scenario())
        .expect("valid scenario");
    let reference = faulty.run(&workload);
    assert!(
        reference.faults.interruptions > 0,
        "fault storm must actually interrupt jobs at this load"
    );
    eprintln!(
        "engine_faults: {} events, {} interruptions, {} resubmissions, {} failed",
        reference.events_processed,
        reference.faults.interruptions,
        reference.faults.resubmissions,
        reference.report.failed,
    );

    let mut group = c.benchmark_group("engine_faults");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reference.events_processed));
    group.bench_function("none", |b| b.iter(|| black_box(clean.run(&workload))));
    group.bench_function("storm", |b| b.iter(|| black_box(faulty.run(&workload))));
    group.finish();
}

fn bench_engine_observers(c: &mut Criterion) {
    // Observer overhead: the same high-load contention workload with the
    // default observer set only (`none` — the built-ins that assemble
    // SimOutput) versus the full extra set attached (`full`: a streaming
    // JSONL TraceSink, a cadence-sampled series probe, and an event
    // counter). `bench_gate` bounds the full/none throughput ratio so the
    // observation layer cannot silently tax the kernel — extras pay one
    // virtual dispatch per event plus their own work, never a change to
    // the simulation itself (traces are bit-identical; asserted here).
    const OBS_JOBS: usize = 1_500;
    let workload = SystemPreset::HighThroughput
        .synthetic_spec(OBS_JOBS)
        .generate(31);
    let cluster = preset_cluster(
        SystemPreset::HighThroughput,
        PoolTopology::PerRack {
            mib_per_rack: 384 * 1024,
        },
    );
    let sched = SchedulerBuilder::new()
        .memory(MemoryPolicy::PoolBestFit)
        .slowdown(SlowdownModel::Contention {
            penalty: 1.5,
            gamma: 1.0,
        })
        .build();
    let cfg = SimConfig::new(cluster, sched);
    let sim = Simulation::new(cfg).expect("valid config");
    let reference = sim.run(&workload);
    let trace_path = std::env::temp_dir().join(format!(
        "dmhpc-bench-observers-{}.jsonl",
        std::process::id()
    ));

    // One observed reference run: the attached extras must be trace- and
    // metric-neutral, or the ratio below measures the wrong thing.
    {
        let mut trace = TraceSink::create(&trace_path).expect("temp trace");
        let mut probe = SampledSeriesProbe::new(SimDuration::from_secs(3600));
        let mut counter = EventCounter::new();
        let observed = sim.run_with(
            &workload,
            dmhpc_sim::ObserverSet::new()
                .watch(&mut trace)
                .watch(&mut probe)
                .watch(&mut counter),
        );
        assert_eq!(
            observed.trace_hash, reference.trace_hash,
            "observers must be neutral"
        );
        let events = trace.finish().expect("trace flushes");
        eprintln!(
            "engine_observers: {} engine events -> {} observed events, {} samples",
            reference.events_processed,
            events,
            probe.samples().len()
        );
    }

    let mut group = c.benchmark_group("engine_observers");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reference.events_processed));
    group.bench_function("none", |b| b.iter(|| black_box(sim.run(&workload))));
    group.bench_function("full", |b| {
        b.iter(|| {
            let mut trace = TraceSink::create(&trace_path).expect("temp trace");
            let mut probe = SampledSeriesProbe::new(SimDuration::from_secs(3600));
            let mut counter = EventCounter::new();
            black_box(
                sim.run_with(
                    &workload,
                    dmhpc_sim::ObserverSet::new()
                        .watch(&mut trace)
                        .watch(&mut probe)
                        .watch(&mut counter),
                ),
            )
        })
    });
    group.finish();
    let _ = std::fs::remove_file(&trace_path);
}

fn bench_engine_service(c: &mut Criterion) {
    // Open-system service cost: the *same job stream* once as an
    // open-system run (pull-based admission straight from the arrival
    // source, O(1)-memory sketch metrics) and once pre-materialized into
    // a closed workload on the record-keeping job-stats path. Identical
    // jobs at identical submit times, so the ratio isolates the service
    // machinery — source refills per arrival plus the sketch observer —
    // from load effects. `bench_gate` bounds the sketch/jobstats time
    // ratio so streaming admission cannot silently cost more than the
    // path it replaces.
    const SERVICE_JOBS: usize = 1_500;
    let cluster = preset_cluster(
        SystemPreset::HighThroughput,
        PoolTopology::PerRack {
            mib_per_rack: 384 * 1024,
        },
    );
    let scenario = dmhpc_sim::ServiceSpec::open(SystemPreset::HighThroughput)
        .with_utilization(0.85)
        .with_horizon_jobs(SERVICE_JOBS as u64)
        .with_warmup_secs(3_600)
        .with_seed(37);
    let mut src = scenario.open_source(&cluster).expect("valid scenario");
    let workload =
        dmhpc_workload::Workload::from_jobs(std::iter::from_fn(|| src.next_job()).collect());
    assert_eq!(workload.len(), SERVICE_JOBS, "whole horizon materialized");
    let empty = dmhpc_workload::Workload::from_jobs(Vec::new());
    let sched = SchedulerBuilder::new()
        .memory(MemoryPolicy::PoolBestFit)
        .slowdown(SlowdownModel::Contention {
            penalty: 1.5,
            gamma: 1.0,
        })
        .build();
    let cfg = SimConfig::new(cluster, sched);
    let closed = Simulation::new(cfg).expect("valid config");
    let open = Simulation::new(cfg)
        .expect("valid config")
        .with_service_spec(scenario)
        .expect("valid scenario");

    let reference = open.run(&empty);
    let svc = reference
        .service
        .expect("open runs report a service summary");
    assert_eq!(
        svc.observed + svc.warmup_skipped,
        SERVICE_JOBS as u64,
        "the stream's whole horizon must be accounted for"
    );
    assert!(reference.records.is_empty(), "sketch path keeps no records");
    // Pull-based admission must be trace-identical to pre-loading the
    // same stream as a closed batch — otherwise the two bench arms
    // simulate different histories and the ratio is meaningless.
    assert_eq!(
        closed.run(&workload).trace_hash,
        reference.trace_hash,
        "open admission replays the materialized stream bit-identically"
    );
    eprintln!(
        "engine_service: {} events, {} jobs measured ({} warmup), p99 wait {:.0}s",
        reference.events_processed, svc.observed, svc.warmup_skipped, svc.p99_wait_s
    );

    let mut group = c.benchmark_group("engine_service");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reference.events_processed));
    group.bench_function("jobstats", |b| b.iter(|| black_box(closed.run(&workload))));
    group.bench_function("sketch", |b| b.iter(|| black_box(open.run(&empty))));
    group.finish();
}

fn bench_engine_deadline(c: &mut Criterion) {
    // Deadline-ordering cost: the same deadline-stamped high-load
    // contention workload once under FCFS (the stamps are carried but
    // ignored) and once under EDF (every scheduling pass orders the queue
    // by the stamped absolute deadline through the policy context).
    // `bench_gate` bounds the edf/fcfs time ratio so deadline-aware
    // ordering cannot silently tax the scheduler — the stamps are data
    // the comparator reads, never extra simulation work, so the only
    // admissible cost is the deadline lookups inside the pass sort.
    const DEADLINE_JOBS: usize = 1_500;
    let mut wl_spec = SystemPreset::HighThroughput.synthetic_spec(DEADLINE_JOBS);
    wl_spec.slo = Some(SloModel {
        factor_min: 1.5,
        factor_max: 4.0,
    });
    let workload = wl_spec.generate(41);
    assert!(
        workload.jobs().iter().all(|j| j.slo.is_some()),
        "every job must carry a deadline stamp"
    );
    let cluster = preset_cluster(
        SystemPreset::HighThroughput,
        PoolTopology::PerRack {
            mib_per_rack: 384 * 1024,
        },
    );
    let sched_for = |order: OrderPolicy| {
        SchedulerBuilder::new()
            .order(order)
            .memory(MemoryPolicy::PoolBestFit)
            .slowdown(SlowdownModel::Contention {
                penalty: 1.5,
                gamma: 1.0,
            })
            .build()
    };
    let fcfs = Simulation::new(SimConfig::new(cluster, sched_for(OrderPolicy::Fcfs)))
        .expect("valid config");
    let edf = Simulation::new(SimConfig::new(cluster, sched_for(OrderPolicy::Edf)))
        .expect("valid config");

    // One reference run per arm: fix the throughput denominator and make
    // sure the two arms actually schedule different histories (otherwise
    // the heterogeneous stamps did not reorder anything and the ratio
    // measures nothing).
    let reference = fcfs.run(&workload);
    let edf_reference = edf.run(&workload);
    assert_ne!(
        reference.trace_hash, edf_reference.trace_hash,
        "EDF must reorder the deadline-stamped queue"
    );
    eprintln!(
        "engine_deadline: fcfs {} events, edf {} events",
        reference.events_processed, edf_reference.events_processed
    );

    let mut group = c.benchmark_group("engine_deadline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reference.events_processed));
    group.bench_function("fcfs", |b| b.iter(|| black_box(fcfs.run(&workload))));
    group.bench_function("edf", |b| b.iter(|| black_box(edf.run(&workload))));
    group.finish();
}

fn bench_engine_admission(c: &mut Criterion) {
    // Admission-control cost: the same deadline-stamped workload once
    // under EDF with slowdown-aware placement (every stamped job is
    // admitted) and once under the full deadline stack — laxity-aware
    // placement plus infeasibility rejection. Both arms enumerate the
    // same candidate shapes, so the guarded arm's only extra work is the
    // laxity sort key and one feasibility probe per admission;
    // `bench_gate` bounds the guarded/edf time ratio so the admission
    // path cannot silently tax schedulers that never reject anything.
    const ADMISSION_JOBS: usize = 1_500;
    let mut wl_spec = SystemPreset::HighThroughput.synthetic_spec(ADMISSION_JOBS);
    wl_spec.slo = Some(SloModel {
        factor_min: 1.5,
        factor_max: 4.0,
    });
    let workload = wl_spec.generate(41);
    let cluster = preset_cluster(
        SystemPreset::HighThroughput,
        PoolTopology::PerRack {
            mib_per_rack: 384 * 1024,
        },
    );
    let sched_for = |memory: MemoryPolicy, admission: AdmissionPolicy| {
        SchedulerBuilder::new()
            .order(OrderPolicy::Edf)
            .memory(memory)
            .slowdown(SlowdownModel::Contention {
                penalty: 1.5,
                gamma: 1.0,
            })
            .admission(admission)
            .build()
    };
    let edf = Simulation::new(SimConfig::new(
        cluster,
        sched_for(
            MemoryPolicy::SlowdownAware { max_dilation: 1.4 },
            AdmissionPolicy::AdmitAll,
        ),
    ))
    .expect("valid config");
    let guarded = Simulation::new(SimConfig::new(
        cluster,
        sched_for(
            MemoryPolicy::LaxityAware { max_dilation: 1.4 },
            AdmissionPolicy::RejectInfeasible,
        ),
    ))
    .expect("valid config");

    let reference = edf.run(&workload);
    let guarded_reference = guarded.run(&workload);
    assert_ne!(
        reference.trace_hash, guarded_reference.trace_hash,
        "the admission stack must change the schedule it guards"
    );
    eprintln!(
        "engine_admission: edf {} events, guarded {} events ({} rejected)",
        reference.events_processed,
        guarded_reference.events_processed,
        guarded_reference.report.rejected
    );

    let mut group = c.benchmark_group("engine_admission");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reference.events_processed));
    group.bench_function("edf", |b| b.iter(|| black_box(edf.run(&workload))));
    group.bench_function("guarded", |b| b.iter(|| black_box(guarded.run(&workload))));
    group.finish();
}

fn bench_engine_scale(c: &mut Criterion) {
    // Fleet-barrier throughput: a 4-site fleet advanced in conservative
    // lockstep epochs, so the routing, snapshot and barrier layer is
    // timed on top of four site kernels.
    const SCALE_JOBS: usize = 4_000;
    let workload = SystemPreset::HighThroughput
        .synthetic_spec(SCALE_JOBS)
        .generate(43);
    let cluster = preset_cluster(
        SystemPreset::HighThroughput,
        PoolTopology::PerRack {
            mib_per_rack: 384 * 1024,
        },
    );
    let sched = SchedulerBuilder::new()
        .memory(MemoryPolicy::PoolBestFit)
        .slowdown(SlowdownModel::Contention {
            penalty: 1.5,
            gamma: 1.0,
        })
        .build();
    let cfg = SimConfig::new(cluster, sched);
    let fleet = FleetSpec::symmetric(4, 300.0, MetaPolicyKind::LeastQueueDepth);
    let fleet_sim = FleetSimulation::new(&fleet, cfg).expect("valid fleet");

    let reference = fleet_sim.run(&workload);
    assert_eq!(reference.routed_jobs.iter().sum::<u64>(), SCALE_JOBS as u64);
    eprintln!(
        "engine_scale: {} jobs over {} sites, routed {:?}",
        SCALE_JOBS,
        reference.site_outputs.len(),
        reference.routed_jobs
    );

    let mut group = c.benchmark_group("engine_scale");
    group.sample_size(10);
    group.throughput(Throughput::Elements(SCALE_JOBS as u64));
    group.bench_function("serial", |b| b.iter(|| black_box(fleet_sim.run(&workload))));
    group.finish();
}

criterion_group!(
    benches,
    bench_experiment,
    bench_grid_scaling,
    bench_single_cell,
    bench_engine_kernel,
    bench_engine_faults,
    bench_engine_observers,
    bench_engine_service,
    bench_engine_deadline,
    bench_engine_admission,
    bench_engine_scale
);
criterion_main!(benches);
