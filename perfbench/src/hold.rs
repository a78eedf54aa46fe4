//! The standalone `des.queue` hold operation.
//!
//! The engine's pending-event set cannot be timed from outside a run, so
//! both backends are driven here in the classic hold model at the pending
//! size a workload's traced run reached: preload `size` events, then
//! repeatedly pop the earliest and schedule it again a random increment
//! later, so the size stays fixed.

use std::hint::black_box;
use std::time::Instant;

use dmhpc_des::queue::{BinaryHeapQueue, CalendarQueue, EventQueue};
use dmhpc_des::rng::Pcg64;
use dmhpc_des::time::{SimDuration, SimTime};

/// Mean gap between an event and its rescheduled successor: one
/// simulated hour, the order of a job's runtime in these workloads.
const MEAN_INCREMENT_US: f64 = 3_600.0 * 1e6;

fn increment(rng: &mut Pcg64) -> SimDuration {
    SimDuration::from_micros((-rng.next_f64_open().ln() * MEAN_INCREMENT_US) as u64)
}

/// Nanoseconds per hold at a fixed pending size on one backend.
fn hold_ns<Q: EventQueue<u32>>(mut q: Q, size: usize, holds: usize, seed: u64) -> f64 {
    let mut rng = Pcg64::new(seed);
    for i in 0..size.max(1) {
        q.schedule(SimTime::ZERO + increment(&mut rng), i as u32);
    }
    let t0 = Instant::now();
    for _ in 0..holds {
        let Some((at, payload)) = q.pop() else { break };
        q.schedule(at + increment(&mut rng), black_box(payload));
    }
    let ns = t0.elapsed().as_nanos() as f64;
    black_box(q.len());
    ns / holds as f64
}

/// Median nanoseconds per hold over `reps` repetitions, for the heap and
/// the calendar backend.
pub fn hold_pair(size: usize, holds: usize, reps: usize, seed: u64) -> (f64, f64) {
    let mut heap = Vec::with_capacity(reps);
    let mut calendar = Vec::with_capacity(reps);
    for r in 0..reps {
        let s = seed.wrapping_add(r as u64);
        heap.push(hold_ns(
            BinaryHeapQueue::with_capacity(size),
            size,
            holds,
            s,
        ));
        calendar.push(hold_ns(CalendarQueue::new(), size, holds, s));
    }
    (crate::median(&mut heap), crate::median(&mut calendar))
}
