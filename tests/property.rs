//! Randomized invariant tests (DESIGN.md §7), driven by the workspace's own
//! deterministic PCG64 streams instead of an external property-testing
//! framework: each test fuzzes a fixed number of seeded cases, so failures
//! reproduce exactly by seed.

use dmhpc::des::{BinaryHeapQueue, CalendarQueue, EventQueue, Pcg64, SimDuration, SimTime};
use dmhpc::platform::{Cluster, ClusterSpec, MemoryAssignment, NodeSpec, PoolTopology};
use dmhpc::prelude::*;
use dmhpc::sim::scenarios::preset_cluster;
use dmhpc_metrics::JobOutcome;
use dmhpc_workload::{Job, JobId, Workload};

// ------------------------------------------------------------------ queues

/// Invariant 1: both pending-event sets are stable min-queues and agree
/// with each other on arbitrary interleavings of schedules and pops.
#[test]
fn heap_and_calendar_agree() {
    for case in 0..128u64 {
        let mut rng = Pcg64::new_stream(0xCAFE, case);
        let mut heap: BinaryHeapQueue<usize> = BinaryHeapQueue::new();
        let mut cal: CalendarQueue<usize> = CalendarQueue::new();
        let ops = 1 + rng.index(400);
        for i in 0..ops {
            if rng.chance(0.6) {
                let at = SimTime::from_micros(rng.bounded_u64(10_000));
                heap.schedule(at, i);
                cal.schedule(at, i);
            } else {
                // Dequeue times need not be monotone across interleaved
                // inserts of earlier events — only implementation agreement
                // is the invariant here.
                let a = heap.pop();
                let b = cal.pop();
                assert_eq!(a, b, "implementations diverged (case {case})");
            }
            assert_eq!(heap.len(), cal.len());
        }
        // Drain: both empty in the same order.
        loop {
            let a = heap.pop();
            let b = cal.pop();
            assert_eq!(a, b, "case {case}");
            if a.is_none() {
                break;
            }
        }
    }
}

/// Dequeue order is (time, insertion) — stability over random inputs.
#[test]
fn queue_drain_is_stable_sorted() {
    for case in 0..128u64 {
        let mut rng = Pcg64::new_stream(0xBEEF, case);
        let n = 1 + rng.index(300);
        let times: Vec<u64> = (0..n).map(|_| rng.bounded_u64(1_000)).collect();
        let mut q: BinaryHeapQueue<usize> = BinaryHeapQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut out = Vec::new();
        while let Some((t, i)) = q.pop() {
            out.push((t.as_micros(), i));
        }
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort();
        assert_eq!(out, expect, "case {case}");
    }
}

// ----------------------------------------------------------------- cluster

/// Invariant 2: arbitrary allocate/release sequences never corrupt the
/// ledger, and at the end everything is released.
#[test]
fn cluster_ledger_survives_random_churn() {
    for case in 0..64u64 {
        let mut rng = Pcg64::new_stream(0xD00D, case);
        let mut cluster = Cluster::new(ClusterSpec::new(
            3,
            8,
            NodeSpec::new(16, 128),
            PoolTopology::PerRack { mib_per_rack: 256 },
        ));
        let mut active: Vec<u64> = Vec::new();
        let ops = 1 + rng.index(120);
        for _ in 0..ops {
            let lease = rng.bounded_u64(24);
            let nodes = 1 + rng.index(5);
            let remote = rng.bounded_u64(96);
            if active.contains(&lease) {
                cluster.release(lease).unwrap();
                active.retain(|&l| l != lease);
            } else if let Some(ids) = cluster.first_fit_nodes(nodes) {
                let a = MemoryAssignment::hybrid(ids, 64, remote);
                if cluster.can_allocate(&a).is_ok() {
                    cluster.allocate(lease, a).unwrap();
                    active.push(lease);
                }
            }
            assert!(cluster.verify_invariants().is_ok(), "case {case}");
        }
        for lease in active {
            cluster.release(lease).unwrap();
        }
        assert_eq!(cluster.lease_count(), 0);
        assert_eq!(cluster.free_nodes(), 24);
        assert_eq!(cluster.total_pool_used(), 0);
    }
}

/// Availability invariant 2b: arbitrary interleavings of allocation churn
/// and node state transitions never desynchronize the free-capacity
/// indexes, and out-of-service nodes never reenter them early.
#[test]
fn cluster_state_machine_survives_random_transitions() {
    use dmhpc::platform::{NodeId, NodeState};
    for case in 0..64u64 {
        let mut rng = Pcg64::new_stream(0xFA11, case);
        let mut cluster = Cluster::new(ClusterSpec::new(
            2,
            8,
            NodeSpec::new(16, 128),
            PoolTopology::PerRack { mib_per_rack: 256 },
        ));
        let mut active: Vec<u64> = Vec::new();
        let ops = 1 + rng.index(200);
        for _ in 0..ops {
            match rng.index(6) {
                0 => {
                    let lease = rng.bounded_u64(24);
                    if !active.contains(&lease) {
                        if let Some(ids) = cluster.first_fit_nodes(1 + rng.index(3)) {
                            let a = MemoryAssignment::hybrid(ids, 32, rng.bounded_u64(64));
                            if cluster.can_allocate(&a).is_ok() {
                                cluster.allocate(lease, a).unwrap();
                                active.push(lease);
                            }
                        }
                    }
                }
                1 => {
                    if let Some(&lease) = active.first() {
                        cluster.release(lease).unwrap();
                        active.retain(|&l| l != lease);
                    }
                }
                2 => {
                    let node = NodeId(rng.index(16) as u32);
                    cluster.fail_node(node).unwrap();
                    // The engine contract: interrupt (release) any lease
                    // holding a node that leaves service.
                    if let Some(lease) = cluster.holder(node) {
                        cluster.release(lease).unwrap();
                        active.retain(|&l| l != lease);
                    }
                }
                3 => {
                    let node = NodeId(rng.index(16) as u32);
                    cluster.repair_node(node).unwrap();
                }
                4 => {
                    let node = NodeId(rng.index(16) as u32);
                    cluster.drain_node(node).unwrap();
                    if let Some(lease) = cluster.holder(node) {
                        cluster.release(lease).unwrap();
                        active.retain(|&l| l != lease);
                    }
                }
                _ => {
                    let node = NodeId(rng.index(16) as u32);
                    cluster.undrain_node(node).unwrap();
                }
            }
            cluster.verify_invariants().unwrap_or_else(|e| {
                panic!("case {case}: {e}");
            });
            // Free nodes are exactly the allocatable ones.
            for n in 0..16u32 {
                let node = NodeId(n);
                let expect =
                    cluster.holder(node).is_none() && cluster.node_state(node) == NodeState::Up;
                assert_eq!(cluster.is_free(node), expect, "case {case} node {n}");
            }
        }
        // Repair everything, release everything: machine whole again.
        for lease in active {
            cluster.release(lease).unwrap();
        }
        for n in 0..16u32 {
            cluster.undrain_node(NodeId(n)).unwrap();
            cluster.repair_node(NodeId(n)).unwrap();
        }
        assert_eq!(cluster.free_nodes(), 16);
        assert_eq!(cluster.available_nodes(), 16);
        cluster.verify_invariants().unwrap();
    }
}

// ------------------------------------------------------------------ engine

/// One random job: arrival, nodes, runtime, walltime multiple, per-node
/// memory, intensity.
fn random_job(rng: &mut Pcg64, id: u64, max_nodes: u32) -> Job {
    let runtime = 60 + rng.bounded_u64(20_000 - 60);
    Job {
        id: JobId(id),
        user: (id % 7) as u32,
        arrival: SimTime::from_secs(rng.bounded_u64(50_000)),
        nodes: 1 + rng.index(max_nodes as usize) as u32,
        walltime: SimDuration::from_secs(runtime * (1 + rng.bounded_u64(3))),
        runtime: SimDuration::from_secs(runtime),
        mem_per_node: 256 + rng.bounded_u64(400_000 - 256),
        intensity: rng.next_f64(),
        slo: None,
    }
}

fn random_workload(rng: &mut Pcg64, max_jobs: usize, max_nodes: u32) -> Workload {
    let n = 1 + rng.index(max_jobs);
    let jobs: Vec<Job> = (0..n)
        .map(|i| random_job(rng, i as u64, max_nodes))
        .collect();
    Workload::from_jobs(jobs)
}

/// [`random_workload`] on a coarse 100 s grid: arrivals and runtimes are
/// whole multiples of 100 s, so undilated finishes land on arrival
/// instants and seeded runs exercise same-instant ties.
fn random_tied_workload(rng: &mut Pcg64, max_jobs: usize, max_nodes: u32) -> Workload {
    let n = 1 + rng.index(max_jobs);
    let jobs: Vec<Job> = (0..n)
        .map(|i| {
            let mut job = random_job(rng, i as u64, max_nodes);
            let runtime = 100 * (1 + rng.bounded_u64(30));
            job.arrival = SimTime::from_secs(100 * rng.bounded_u64(60));
            job.runtime = SimDuration::from_secs(runtime);
            job.walltime = SimDuration::from_secs(runtime * (1 + rng.bounded_u64(3)));
            job
        })
        .collect();
    Workload::from_jobs(jobs)
}

/// An open stream over a fixed job list.
struct ListSource(std::vec::IntoIter<Job>);

impl JobSource for ListSource {
    fn next_job(&mut self) -> Option<Job> {
        self.0.next()
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.0.len() as u64)
    }
}

/// The arrival path is invisible (invariant 7b): the same jobs run as a
/// closed batch and pulled as an open stream give the same trace, event
/// count and pass count — on workloads built so that arrivals tie with
/// finishes scheduled earlier.
#[test]
fn closed_and_open_arrivals_agree_on_tied_workloads() {
    let mut ties = 0;
    for case in 0..32u64 {
        let mut rng = Pcg64::new_stream(0x71E5, case);
        let w = random_tied_workload(&mut rng, 60, 32);
        let cluster = preset_cluster(
            SystemPreset::HighThroughput,
            PoolTopology::PerRack {
                mib_per_rack: 512 * 1024,
            },
        );
        let sched = SchedulerBuilder::new()
            .memory(MemoryPolicy::PoolBestFit)
            .slowdown(SlowdownModel::None)
            .build();
        let sim = Simulation::new(SimConfig::new(cluster, sched).checked()).unwrap();
        let closed = sim.run(&w);
        let open = sim.run_stream(Box::new(ListSource(w.jobs().to_vec().into_iter())));
        assert_eq!(open.trace_hash, closed.trace_hash, "case {case}");
        assert_eq!(
            open.events_processed, closed.events_processed,
            "case {case}"
        );
        assert_eq!(open.passes, closed.passes, "case {case}");
        let arrivals: std::collections::BTreeSet<SimTime> = w.iter().map(|j| j.arrival).collect();
        ties += closed
            .records
            .iter()
            .filter(|r| r.finish.is_some_and(|f| arrivals.contains(&f)))
            .count();
    }
    assert!(ties > 0, "the 100 s grid must produce same-instant ties");
}

/// Invariants 3 & 6 end to end on random workloads: causality holds, every
/// job is accounted for, completed jobs consume exactly their work, and the
/// cluster ends empty (checked mode panics otherwise).
#[test]
fn engine_invariants_on_random_workloads() {
    for case in 0..48u64 {
        let mut rng = Pcg64::new_stream(0xE4617E, case);
        let w = random_workload(&mut rng, 60, 32);
        let cluster = preset_cluster(
            SystemPreset::HighThroughput,
            PoolTopology::PerRack {
                mib_per_rack: 512 * 1024,
            },
        );
        let memory = [
            MemoryPolicy::LocalOnly,
            MemoryPolicy::PoolFirstFit,
            MemoryPolicy::PoolBestFit,
            MemoryPolicy::SlowdownAware { max_dilation: 1.4 },
        ][rng.index(4)];
        let sched = SchedulerBuilder::new()
            .memory(memory)
            .slowdown(SlowdownModel::Saturating {
                penalty: 1.5,
                curvature: 3.0,
            })
            .build();
        let out = Simulation::new(SimConfig::new(cluster, sched).checked())
            .unwrap()
            .run(&w);
        assert_eq!(out.records.len(), w.len(), "case {case}");
        for r in &out.records {
            match r.outcome {
                JobOutcome::Rejected => assert!(r.start.is_none()),
                JobOutcome::Completed => {
                    let res = r.residence().unwrap();
                    let expect = r.job.runtime.scale(r.dilation_actual);
                    assert!(
                        res.as_micros().abs_diff(expect.as_micros()) <= 2,
                        "case {case}: work conservation: {res} vs {expect}"
                    );
                }
                JobOutcome::Killed => {
                    assert!(r.residence().unwrap() <= r.job.walltime.scale(2.0));
                }
                JobOutcome::Failed => {
                    panic!("case {case}: fault-free run produced a Failed job")
                }
            }
            if let Some(s) = r.start {
                assert!(s >= r.job.arrival);
            }
        }
        assert!(out.report.node_util <= 1.0 + 1e-9);
    }
}

/// Determinism (invariant 7): identical inputs give identical traces.
#[test]
fn engine_is_deterministic() {
    for case in 0..24u64 {
        let mut rng = Pcg64::new_stream(0xDE7E12, case);
        let w = random_workload(&mut rng, 40, 16);
        let cluster = preset_cluster(
            SystemPreset::HighThroughput,
            PoolTopology::Global { mib: 1024 * 1024 },
        );
        let sched = SchedulerBuilder::new()
            .memory(MemoryPolicy::PoolBestFit)
            .slowdown(SlowdownModel::Contention {
                penalty: 1.5,
                gamma: 1.0,
            })
            .build();
        let sim = Simulation::new(SimConfig::new(cluster, sched)).unwrap();
        let a = sim.run(&w);
        let b = sim.run(&w);
        assert_eq!(a.trace_hash, b.trace_hash, "case {case}");
        assert_eq!(a.passes, b.passes);
    }
}

/// A random fault scenario: some mix of failures, drains, and pool
/// degradations with a random interrupt policy and budget.
fn random_faults(rng: &mut Pcg64) -> dmhpc::sim::FaultSpec {
    use dmhpc::sim::{FaultGenerator, FaultSpec, InterruptPolicy};
    let mut gen =
        FaultGenerator::quiet(rng.bounded_u64(1 << 20), 50_000 + rng.bounded_u64(150_000));
    if rng.chance(0.8) {
        gen.node_mtbf_s = 5_000 + rng.bounded_u64(40_000);
        gen.node_repair_s = 500 + rng.bounded_u64(20_000);
    }
    if rng.chance(0.5) {
        gen.drain_interval_s = 20_000 + rng.bounded_u64(80_000);
        gen.drain_duration_s = 1_000 + rng.bounded_u64(30_000);
    }
    if rng.chance(0.5) {
        gen.pool_degrade_interval_s = 20_000 + rng.bounded_u64(100_000);
        gen.pool_degrade_duration_s = 1_000 + rng.bounded_u64(40_000);
        gen.pool_degrade_factor = rng.range_f64(0.2, 0.9);
    }
    let interrupt = if rng.chance(0.5) {
        InterruptPolicy::Resubmit
    } else {
        InterruptPolicy::Checkpoint {
            overhead_s: rng.bounded_u64(600),
        }
    };
    FaultSpec::none()
        .with_generator(gen)
        .with_interrupt(interrupt)
        .with_max_resubmits(rng.index(4) as u32)
}

/// Fault-scenario invariants end to end on random workloads × random
/// scenarios, with per-batch checks on (checked mode asserts that no job
/// occupies a Down/Draining node and no pool exceeds its degraded
/// capacity after every event batch):
///
/// * every job is accounted for exactly once
///   (completed + killed + rejected + failed == submitted);
/// * every interruption ends in exactly one of {resubmission, terminal
///   failure}: `interruptions == resubmissions + failed-while-running`;
/// * resubmissions never exceed the per-job budget;
/// * identical inputs reproduce identical traces and fault counters.
#[test]
fn engine_fault_invariants_on_random_scenarios() {
    for case in 0..32u64 {
        let mut rng = Pcg64::new_stream(0xFA117E57, case);
        let w = random_workload(&mut rng, 50, 24);
        let faults = random_faults(&mut rng);
        let cluster = preset_cluster(
            SystemPreset::HighThroughput,
            PoolTopology::PerRack {
                mib_per_rack: 512 * 1024,
            },
        );
        let memory = [
            MemoryPolicy::LocalOnly,
            MemoryPolicy::PoolFirstFit,
            MemoryPolicy::PoolBestFit,
            MemoryPolicy::SlowdownAware { max_dilation: 1.4 },
        ][rng.index(4)];
        let sched = SchedulerBuilder::new()
            .memory(memory)
            .slowdown(SlowdownModel::Contention {
                penalty: 1.5,
                gamma: 1.0,
            })
            .build();
        let sim = Simulation::new(SimConfig::new(cluster, sched).checked())
            .unwrap()
            .with_fault_spec(faults.clone())
            .unwrap();
        let out = sim.run(&w);

        assert_eq!(out.records.len(), w.len(), "case {case}");
        let r = &out.report;
        assert_eq!(
            r.completed + r.killed + r.rejected + r.failed,
            w.len(),
            "case {case}: every job accounted for exactly once"
        );
        let failed_running = out
            .records
            .iter()
            .filter(|rec| rec.outcome == JobOutcome::Failed && rec.start.is_some())
            .count() as u64;
        assert_eq!(
            out.faults.interruptions,
            out.faults.resubmissions + failed_running,
            "case {case}: each interruption → one resubmission xor one terminal failure"
        );
        assert!(
            out.faults.resubmissions <= out.faults.interruptions,
            "case {case}"
        );
        if out.faults.interruptions > 0 {
            assert!(out.faults.rework_s >= 0.0);
        }
        assert!(out.report.avail_util <= 1.0 + 1e-9, "case {case}");

        // Determinism under faults (trace + counters).
        let again = sim.run(&w);
        assert_eq!(out.trace_hash, again.trace_hash, "case {case}");
        assert_eq!(out.faults, again.faults, "case {case}");
        assert_eq!(out.passes, again.passes, "case {case}");
    }
}

// ---------------------------------------------------------------- workload

/// rescale_load hits its target for arbitrary workloads (within the
/// rounding of integer microsecond arrivals).
#[test]
fn rescale_load_is_exact() {
    let mut tested = 0u32;
    for case in 0..96u64 {
        let mut rng = Pcg64::new_stream(0x10AD, case);
        let n = 3 + rng.index(47);
        let jobs: Vec<Job> = (0..n).map(|i| random_job(&mut rng, i as u64, 8)).collect();
        let w = Workload::from_jobs(jobs);
        let target = rng.range_f64(0.2, 1.5);
        if w.arrival_span() <= SimDuration::from_secs(10) {
            continue;
        }
        tested += 1;
        let scaled = dmhpc::workload::transform::rescale_load(&w, 64, target);
        let achieved = scaled.offered_load(64);
        assert!(
            (achieved - target).abs() / target < 0.01,
            "case {case}: target {target} achieved {achieved}"
        );
    }
    assert!(
        tested >= 32,
        "most random workloads must exercise the check"
    );
}

/// Memory-preserving node capping (invariant 5 precondition).
#[test]
fn cap_nodes_preserves_footprint() {
    for case in 0..64u64 {
        let mut rng = Pcg64::new_stream(0xCA9, case);
        let w = random_workload(&mut rng, 40, 64);
        let cap = 1 + rng.index(31) as u32;
        let capped = dmhpc::workload::transform::cap_nodes(&w, cap);
        for (a, b) in w.iter().zip(capped.iter()) {
            assert!(b.nodes <= cap.max(a.nodes.min(cap)), "case {case}");
            // ceil rounding may only grow the total, never shrink it.
            assert!(b.total_mem() >= a.total_mem());
            assert!(b.total_mem() < a.total_mem() + b.nodes as u64);
        }
    }
}
