//! T3: pending-event-set throughput — binary heap vs calendar queue.
//!
//! The small sizes (16–512) are the engine's own regime: its heap holds
//! only job finishes, fault events and wake-ups, never arrivals, so a few
//! hundred events are pending at most. The engine uses the binary heap
//! because it is at least as fast there; the calendar queue stays in
//! `dmhpc-des` and only pays off at thousands of pending events.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dmhpc_des::queue::{BinaryHeapQueue, CalendarQueue, EventQueue};
use dmhpc_des::rng::Pcg64;
use dmhpc_des::time::SimTime;

/// The classic "hold" pattern: steady-state queue of size n, repeatedly pop
/// the minimum and schedule a new event a random offset ahead.
fn hold<Q: EventQueue<u64>>(q: &mut Q, rng: &mut Pcg64, ops: usize) {
    for i in 0..ops {
        let (t, _) = q.pop().expect("queue non-empty");
        q.schedule(
            t + dmhpc_des::time::SimDuration::from_micros(rng.bounded_u64(10_000_000)),
            i as u64,
        );
    }
}

fn bench_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_hold");
    group.sample_size(10);
    for &n in &[16usize, 128, 512, 1_000, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("binary_heap", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let mut rng = Pcg64::new(1);
                    let mut q = BinaryHeapQueue::new();
                    for i in 0..n {
                        q.schedule(SimTime::from_micros(rng.bounded_u64(10_000_000)), i as u64);
                    }
                    (q, rng)
                },
                |(mut q, mut rng)| hold(&mut q, &mut rng, black_box(10_000)),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("calendar", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let mut rng = Pcg64::new(1);
                    let mut q = CalendarQueue::new();
                    for i in 0..n {
                        q.schedule(SimTime::from_micros(rng.bounded_u64(10_000_000)), i as u64);
                    }
                    (q, rng)
                },
                |(mut q, mut rng)| hold(&mut q, &mut rng, black_box(10_000)),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_queues);
criterion_main!(benches);
