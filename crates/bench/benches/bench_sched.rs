//! T3: scheduling-pass latency vs queue depth (EASY and conservative), plus
//! the admission layer alone (EDF + laxity-aware placement + infeasibility
//! rejection, no backfill) on a queue an earlier pass already priced.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dmhpc_des::time::SimTime;
use dmhpc_platform::{Cluster, ClusterSpec, MemoryAssignment, NodeId, NodeSpec, PoolTopology};
use dmhpc_sched::{
    AdmissionPolicy, BackfillPolicy, MemoryPolicy, OrderPolicy, ReleaseIndex, RunningRelease,
    Scheduler, SchedulerBuilder, WaitQueue,
};
use dmhpc_workload::{Slo, SystemPreset};

/// The pass instant every arm schedules at.
const NOW_S: u64 = 600_000;

/// A mostly-full cluster with a populated queue: the worst case for a pass.
fn setup(depth: usize) -> (Cluster, WaitQueue, ReleaseIndex) {
    let mut cluster = Cluster::new(ClusterSpec::new(
        8,
        32,
        NodeSpec::new(64, 256 * 1024),
        PoolTopology::PerRack {
            mib_per_rack: 512 * 1024,
        },
    ));
    // Fill 95% of nodes with running leases ending at staggered times.
    let mut releases = ReleaseIndex::new();
    let busy = (cluster.total_nodes() as usize * 95) / 100;
    for i in 0..busy {
        let node = NodeId(i as u32);
        let a = MemoryAssignment::local(vec![node], 64 * 1024);
        let lease = 1_000_000 + i as u64;
        let end = SimTime::from_secs(600 + (i as u64 % 96) * 600);
        releases.insert(lease, RunningRelease::of(&cluster, &a, end));
        cluster.allocate(lease, a).unwrap();
    }
    let spec = SystemPreset::MidCluster.synthetic_spec(depth);
    let w = spec.generate(11);
    let mut queue = WaitQueue::new();
    for job in w.iter() {
        queue.push(job.clone(), SimTime::ZERO);
    }
    (cluster, queue, releases)
}

fn pass(sched: &Scheduler, cluster: &Cluster, queue: &WaitQueue, releases: &ReleaseIndex) {
    let mut c = cluster.clone();
    let mut q = queue.clone();
    black_box(sched.schedule(SimTime::from_secs(NOW_S), &mut q, &mut c, releases.view()));
}

/// The admission arm's state: the queue stamped with staggered deadlines
/// (from already lost to hours of slack), after one pass has started what
/// fits, rejected what is lost, and priced every job left.
fn priced(
    sched: &Scheduler,
    cluster: &Cluster,
    queue: &WaitQueue,
    releases: &ReleaseIndex,
) -> (Cluster, WaitQueue) {
    let (mut c, mut q) = (cluster.clone(), queue.clone());
    for (i, e) in q.entries_mut().iter_mut().enumerate() {
        let deadline_s = NOW_S as f64 + 3_600.0 * (i % 24) as f64;
        e.job.slo = Some(Slo::Deadline { deadline_s });
    }
    let first = sched.schedule(SimTime::from_secs(NOW_S), &mut q, &mut c, releases.view());
    assert!(!first.rejected.is_empty(), "some deadlines must be lost");
    assert!(q.len() > 1, "the priced queue must keep jobs to assess");
    (c, q)
}

fn bench_sched(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduling_pass");
    group.sample_size(10);
    for &depth in &[16usize, 128, 512] {
        let (cluster, queue, releases) = setup(depth);
        let easy = Scheduler::new(
            SchedulerBuilder::new()
                .backfill(BackfillPolicy::Easy)
                .memory(MemoryPolicy::SlowdownAware { max_dilation: 1.35 })
                .build(),
        )
        .expect("valid config");
        group.bench_with_input(BenchmarkId::new("easy", depth), &depth, |b, _| {
            b.iter(|| pass(&easy, &cluster, &queue, &releases))
        });
        let cons = Scheduler::new(
            SchedulerBuilder::new()
                .backfill(BackfillPolicy::Conservative)
                .memory(MemoryPolicy::SlowdownAware { max_dilation: 1.35 })
                .build(),
        )
        .expect("valid config");
        group.bench_with_input(BenchmarkId::new("conservative", depth), &depth, |b, _| {
            b.iter(|| pass(&cons, &cluster, &queue, &releases))
        });
        if depth < 128 {
            continue;
        }
        let admission = Scheduler::new(
            SchedulerBuilder::new()
                .order(OrderPolicy::Edf)
                .backfill(BackfillPolicy::None)
                .memory(MemoryPolicy::LaxityAware { max_dilation: 1.35 })
                .admission(AdmissionPolicy::RejectInfeasible)
                .build(),
        )
        .expect("valid config");
        let (admission_cluster, admission_queue) = priced(&admission, &cluster, &queue, &releases);
        group.bench_with_input(BenchmarkId::new("admission", depth), &depth, |b, _| {
            b.iter(|| pass(&admission, &admission_cluster, &admission_queue, &releases))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sched);
criterion_main!(benches);
