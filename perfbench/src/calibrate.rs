//! Host-speed calibration of the end-to-end timings.
//!
//! On a shared host the speed available to one process drifts by ±20%
//! over minutes (other tenants load the same cores and caches), and runs
//! minutes apart see different speeds whatever they measure. So every
//! timed sample is scaled by how fast the host is at that moment: a fixed
//! reference kernel, built from the standard library only so no change to
//! the simulator can alter it, is timed at least every `RECALIBRATE_S`
//! seconds of measured work, and each sample is reported as
//! `raw × NOMINAL_S ÷ reference time`, i.e. in seconds at the speed of the
//! host `NOMINAL_S` was taken on. Raw times are printed beside the
//! calibrated ones.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Median of the fastest of `REFERENCE_RUNS` [`reference`] runs on the
/// host the benchmark's bounds were set on (2-vCPU "Intel(R) Xeon(R)
/// Processor", rustc 1.95.0).
pub const NOMINAL_S: f64 = 0.0078;
/// Most seconds of measured work between two reference timings.
const RECALIBRATE_S: f64 = 0.2;
/// Kernel runs per reference timing; the fastest one counts, since
/// interference only ever slows a run down.
const REFERENCE_RUNS: usize = 3;

/// One run of the reference kernel (sort, heap hold loop, ordered-map
/// inserts and lookups, the operation mix of a scheduling pass); returns
/// its time in seconds.
pub fn reference() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut keys: Vec<u64> = (0..100_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let mut heap: BinaryHeap<Reverse<u64>> = keys.iter().take(4_096).map(|&k| Reverse(k)).collect();
    for &step in &keys {
        if let Some(Reverse(k)) = heap.pop() {
            heap.push(Reverse(k.wrapping_add(step >> 20)));
        }
    }
    let map: BTreeMap<u64, usize> = keys.iter().take(25_000).map(|&k| (k >> 3, 1)).collect();
    let hits: usize = keys
        .iter()
        .take(50_000)
        .filter_map(|k| map.get(&(k >> 3)))
        .sum();
    black_box((heap.len(), hits));
    t0.elapsed().as_secs_f64()
}

/// A stopwatch whose readings are calibrated to the nominal host speed.
#[derive(Debug)]
pub struct Clock {
    factor: f64,
    since: f64,
}

impl Clock {
    /// A clock that calibrates before its first reading.
    pub fn new() -> Self {
        Clock {
            factor: 1.0,
            since: f64::INFINITY,
        }
    }

    /// Time `f`: its output, raw seconds, and calibrated seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        if self.since >= RECALIBRATE_S {
            let fastest = (0..REFERENCE_RUNS)
                .map(|_| reference())
                .fold(f64::INFINITY, f64::min);
            self.factor = NOMINAL_S / fastest;
            self.since = 0.0;
        }
        let t0 = Instant::now();
        let out = f();
        let raw = t0.elapsed().as_secs_f64();
        self.since += raw;
        (out, raw, raw * self.factor)
    }
}
