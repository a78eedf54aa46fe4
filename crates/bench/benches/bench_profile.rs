//! T3: two-resource availability-profile operations vs horizon length.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dmhpc_des::rng::Pcg64;
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_platform::{Cluster, ClusterSpec, NodeSpec, PoolTopology};
use dmhpc_sched::{AvailabilityProfile, Demand, NodeHorizons, RunningRelease};

fn make(releases: usize) -> (Cluster, Vec<RunningRelease>) {
    let cluster = Cluster::new(ClusterSpec::new(
        8,
        32,
        NodeSpec::new(64, 256 * 1024),
        PoolTopology::PerRack {
            mib_per_rack: 512 * 1024,
        },
    ));
    let mut rng = Pcg64::new(3);
    let rels = (0..releases)
        .map(|_| RunningRelease {
            planned_end: SimTime::from_secs(rng.bounded_u64(100_000)),
            nodes_per_rack: (0..8).map(|_| rng.bounded_u64(3) as u32).collect(),
            pool_per_domain: (0..8).map(|_| rng.bounded_u64(64 * 1024)).collect(),
        })
        .collect();
    (cluster, rels)
}

fn bench_profile(c: &mut Criterion) {
    let mut group = c.benchmark_group("availability_profile");
    group.sample_size(20);
    for &n in &[16usize, 128, 1024] {
        let (cluster, rels) = make(n);
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| {
                black_box(AvailabilityProfile::from_cluster(
                    SimTime::ZERO,
                    &cluster,
                    &rels,
                ))
            })
        });
        let profile = AvailabilityProfile::from_cluster(SimTime::ZERO, &cluster, &rels);
        group.bench_with_input(BenchmarkId::new("earliest_fit", n), &n, |b, _| {
            b.iter(|| {
                black_box(profile.earliest_fit(
                    SimTime::ZERO,
                    SimDuration::from_hours(2),
                    &Demand {
                        nodes: 64,
                        remote_per_node: 32 * 1024,
                    },
                ))
            })
        });
        // The EASY scan's per-candidate check: a 16-node split, 2 per rack.
        group.bench_with_input(BenchmarkId::new("fits_split", n), &n, |b, _| {
            b.iter(|| {
                black_box(profile.fits_split(
                    SimTime::ZERO,
                    SimDuration::from_hours(2),
                    &[2; 8],
                    32 * 1024,
                ))
            })
        });
        // The EASY scan's pre-plan filter: rebuilt after the head's
        // reservation and after every backfill start, into reused buffers.
        let mut horizons = NodeHorizons::new();
        group.bench_with_input(BenchmarkId::new("node_horizons", n), &n, |b, _| {
            b.iter(|| {
                profile.node_horizons(&mut horizons);
                black_box(horizons.admits(16, SimTime::from_secs(7_200)))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_profile);
criterion_main!(benches);
