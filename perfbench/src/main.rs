//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--jobs N] [--replicas N] [--pins FILE]
//! ```
//!
//! Generates independently seeded replicas of the named workload from
//! `--seed`, runs them on the simulator through the public API only,
//! checks every run, and prints one JSON object as the last line of
//! standard output:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! * `--trace 0` times untraced runs for `--seconds` and reports the
//!   end-to-end metrics (host time, plus `sim_*` simulated results).
//! * `--trace 1` adds one traced run through timing wrappers around the
//!   built-in policies and reports the per-layer metrics, including the
//!   tracing overhead (traced minus untraced wall time). Pass spans are
//!   written to `perfbench/out/<workload>.spans.jsonl`.
//!
//! `--jobs` (per replica) and `--replicas` resize the run (the tests use
//! tiny sizes); `--pins` replaces the built-in table of pinned trace
//! hashes.
//! See `perfbench/README.md` for workloads, metrics and the layer map.

mod calibrate;
mod hold;
mod host;
mod trace;
mod workload;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dmhpc_sim::observe::TraceSink;
use dmhpc_sim::{FleetSimulation, ObserverSet, Simulation};
use dmhpc_workload::source::JobSource as _;
use dmhpc_workload::Workload;

use calibrate::Clock;
use trace::{Arrivals, Layers, TimedOrder, TimedPlacement, TimedSink, TraceObserver};
use workload::{Kind, Prepared, RunResult};

/// The seed the pinned hashes were taken at.
const DEFAULT_SEED: u64 = 1;
/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 9;
/// Fewest timed repetitions a run reports, however long they take.
const MIN_SAMPLES: usize = 3;
/// Holds per repetition of the standalone event-queue measurement.
const HOLDS: usize = 200_000;
/// Pinned trace hashes: `<workload> <jobs> <replicas> <seed> <hash>` per
/// line; the hash combines the replicas' trace hashes.
const PINS: &str = include_str!("../pinned_hashes.txt");

const USAGE: &str = "usage: perfbench --workload <closed_easy|open_deadline|closed_conservative_faults|fleet_epochs> \
[--seed N] [--seconds S] [--trace 0|1] [--jobs N] [--replicas N] [--pins FILE]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    jobs: usize,
    replicas: usize,
    pins: Option<PathBuf>,
}

impl Args {
    /// Whether the run has the workload's default size (the size hashes
    /// are pinned at).
    fn is_default_size(&self) -> bool {
        self.jobs == self.kind.default_jobs() && self.replicas == self.kind.default_replicas()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut jobs = None;
    let mut replicas = None;
    let mut pins = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = parse_num(&flag, &value()?)?,
            "--seconds" => {
                seconds = parse_num(&flag, &value()?)?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--jobs" => {
                let n: usize = parse_num(&flag, &value()?)?;
                if n == 0 {
                    return Err("--jobs must be positive".into());
                }
                jobs = Some(n);
            }
            "--replicas" => {
                let n: usize = parse_num(&flag, &value()?)?;
                if n == 0 || n > workload::MAX_REPLICAS {
                    return Err(format!(
                        "--replicas must be in 1..={}",
                        workload::MAX_REPLICAS
                    ));
                }
                replicas = Some(n);
            }
            "--pins" => pins = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        jobs: jobs.unwrap_or(kind.default_jobs()),
        replicas: replicas.unwrap_or(kind.default_replicas()),
        pins,
    })
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} expects a number, got {v:?}"))
}

/// The median of `xs` (mean of the middle two for even lengths).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Runs attempted and runs that failed a check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count one run; report its problems on stderr.
    fn run(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("perfbench: check failed ({what}): {p}");
            }
        }
    }
}

/// The trace hash pinned for this workload, size, replica count and
/// seed, if any. The default seed and size must have one.
fn pinned(args: &Args) -> Result<Option<u64>, String> {
    let text = match &args.pins {
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?,
        None => PINS.to_string(),
    };
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let [name, jobs, replicas, seed, hash] = f[..] else {
            return Err(format!("malformed pin line {line:?}"));
        };
        if name == args.kind.name()
            && jobs.parse() == Ok(args.jobs)
            && replicas.parse() == Ok(args.replicas)
            && seed.parse() == Ok(args.seed)
        {
            let hash = u64::from_str_radix(hash.trim_start_matches("0x"), 16)
                .map_err(|_| format!("malformed pinned hash {hash:?}"))?;
            return Ok(Some(hash));
        }
    }
    if args.seed == DEFAULT_SEED && args.is_default_size() {
        return Err(format!(
            "no pinned hash for {} at the default seed",
            args.kind.name()
        ));
    }
    Ok(None)
}

/// One run's inputs: independently seeded replicas of the workload.
struct Bench {
    parts: Vec<Prepared>,
}

/// One pass over every replica.
struct SetResult {
    results: Vec<RunResult>,
}

impl SetResult {
    /// FNV-1a over the replicas' trace hashes, in replica order.
    fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &self.results {
            for b in r.hash.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    fn events(&self) -> u64 {
        self.results.iter().map(|r| r.events).sum()
    }

    fn passes(&self) -> u64 {
        self.results.iter().map(|r| r.passes).sum()
    }

    /// Mean of a simulated result over the replicas.
    fn mean(&self, f: impl Fn(&RunResult) -> f64) -> f64 {
        self.results.iter().map(f).sum::<f64>() / self.results.len().max(1) as f64
    }

    /// Conservation problems of every replica, plus agreement with a
    /// reference hash and with the pinned one.
    fn check(&self, reference: Option<u64>, pin: Option<u64>) -> Vec<String> {
        let mut problems: Vec<String> = self
            .results
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.problems.iter().map(move |p| format!("replica {i}: {p}")))
            .collect();
        let hash = self.hash();
        if let Some(r) = reference {
            if hash != r {
                problems.push(format!(
                    "hash {hash:016x} differs from the first run's {r:016x}"
                ));
            }
        }
        if let Some(p) = pin {
            if hash != p {
                problems.push(format!("hash {hash:016x} differs from the pinned {p:016x}"));
            }
        }
        if self.results.iter().any(|r| r.slo_attainment.is_none()) {
            problems.push("a replica has no SLO-stamped job".into());
        }
        problems
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    s.push_str("}}");
    s
}

/// Build the run's replicas `SETUP_REPS` times; return the last build
/// and the median build time, calibrated and raw.
fn setup(args: &Args) -> Result<(Bench, f64, f64), String> {
    let mut clock = Clock::new();
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut raws = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (parts, raw, cal) = clock.time(|| {
            (0..args.replicas)
                .map(|i| workload::prepare(args.kind, Kind::replica_seed(args.seed, i), args.jobs))
                .collect::<Result<Vec<_>, _>>()
        });
        times.push(cal);
        raws.push(raw);
        last = Some(Bench { parts: parts? });
    }
    let bench = last.ok_or("no set-up ran")?;
    Ok((bench, median(&mut times), median(&mut raws)))
}

/// Time `f` once, in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Worker count for the fleet's 1-vs-N determinism check and timing.
fn fleet_workers() -> usize {
    host::nproc().min(workload::FLEET_SITES)
}

/// Run every fleet replica at `workers`, check the results against the
/// reference, and return the wall time.
fn fleet_at(
    bench: &Bench,
    workers: usize,
    reference: u64,
    tally: &mut Tally,
) -> Result<f64, String> {
    if workers > host::nproc() {
        eprintln!(
            "perfbench: warning: fleet uses {workers} worker threads on {} CPUs",
            host::nproc()
        );
    }
    let sims = bench
        .parts
        .iter()
        .map(|p| {
            FleetSimulation::new(&p.fleet, p.cfg)
                .map(|f| f.workers(workers))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (outs, wall) = timed(|| {
        sims.iter()
            .zip(&bench.parts)
            .map(|(sim, p)| sim.run(&p.workload))
            .collect::<Vec<_>>()
    });
    let set = SetResult {
        results: bench
            .parts
            .iter()
            .zip(outs)
            .map(|(p, out)| p.fleet_result(out))
            .collect(),
    };
    tally.run(
        &format!("fleet at {workers} workers"),
        &set.check(Some(reference), None),
    );
    Ok(wall)
}

/// Median times of a run: calibrated to the nominal host speed, and raw.
struct Walls {
    calibrated: f64,
    raw: f64,
    passes: usize,
}

/// Time passes over every replica until `seconds` have passed (at least
/// `MIN_SAMPLES`), checking each pass against the first. Each replica is
/// timed on its own, so a burst of load from elsewhere on the host only
/// spoils the samples it overlaps: the run's wall time is the sum over
/// replicas of each replica's median time. Returns the first pass's
/// results and those wall times.
fn timed_passes(
    bench: &Bench,
    seconds: f64,
    pin: Option<u64>,
    tally: &mut Tally,
) -> (SetResult, Walls) {
    let started = Instant::now();
    let mut clock = Clock::new();
    let mut cal = vec![Vec::new(); bench.parts.len()];
    let mut raw = vec![Vec::new(); bench.parts.len()];
    let mut pass = || {
        let mut results = Vec::with_capacity(bench.parts.len());
        for (i, p) in bench.parts.iter().enumerate() {
            let (r, t, c) = clock.time(|| black_box(p.run()));
            raw[i].push(t);
            cal[i].push(c);
            results.push(r);
        }
        SetResult { results }
    };
    let first = pass();
    tally.run("first run", &first.check(None, pin));
    eprintln!("perfbench: trace hash {:016x}", first.hash());
    let mut passes = 1;
    while passes < MIN_SAMPLES || started.elapsed().as_secs_f64() < seconds {
        let set = pass();
        passes += 1;
        tally.run("timed run", &set.check(Some(first.hash()), None));
    }
    let sum_of_medians = |t: &mut Vec<Vec<f64>>| t.iter_mut().map(|x| median(x)).sum();
    let walls = Walls {
        calibrated: sum_of_medians(&mut cal),
        raw: sum_of_medians(&mut raw),
        passes,
    };
    (first, walls)
}

fn end_to_end(args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let (bench, setup_s, setup_raw_s) = setup(args)?;
    let pin = pinned(args)?;
    let (first, walls) = timed_passes(&bench, args.seconds, pin, tally);
    // Before the threaded fleet check, whose per-thread allocator arenas
    // would add memory the measured runs never use.
    let peak_rss_mib = host::peak_rss_mib().unwrap_or(0.0);
    if args.kind == Kind::FleetEpochs {
        fleet_at(&bench, fleet_workers(), first.hash(), tally)?;
    }
    let (events, passes) = (first.events(), first.passes());
    let wall_s = walls.calibrated;
    println!(
        "# wall_s: sum over {} replicas of each one's median of {} runs; {events} events, {passes} passes",
        bench.parts.len(),
        walls.passes
    );
    println!(
        "# raw (uncalibrated) wall_s {} setup_s {}; calibration factor {}",
        walls.raw,
        setup_raw_s,
        walls.calibrated / walls.raw
    );
    Ok(vec![
        m("setup_s", setup_s, "s"),
        m("wall_s", wall_s, "s"),
        m("events_per_s", events as f64 / wall_s, "events/s"),
        m("us_per_pass", wall_s * 1e6 / passes as f64, "us"),
        m("peak_rss_mib", peak_rss_mib, "MiB"),
        m("sim_bsld_mean", first.mean(|r| r.bsld_mean), "1"),
        m("sim_wait_p95_s", first.mean(|r| r.wait_p95_s), "s"),
        m("sim_node_util", first.mean(|r| r.node_util), "ratio"),
        m(
            "sim_slo_attainment",
            first.mean(|r| r.slo_attainment.unwrap_or(0.0)),
            "ratio",
        ),
    ])
}

/// Time generating every replica's jobs alone: the closed batches, or
/// every pull of the open streams' horizons from fresh sources.
fn generation_s(bench: &Bench, args: &Args) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        for (i, p) in bench.parts.iter().enumerate() {
            if p.kind.is_open() {
                let mut src = p
                    .service
                    .open_source(&p.cfg.cluster)
                    .map_err(|e| e.to_string())?;
                black_box(std::iter::from_fn(|| src.next_job()).count());
            } else {
                let seed = Kind::replica_seed(args.seed, i);
                black_box(workload::generate(p.kind, seed, p.jobs));
            }
        }
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&mut times))
}

/// One traced single-cluster run: returns the recording and its wall time.
fn traced_run(
    p: &Prepared,
    workload: &Workload,
    reference: u64,
    tally: &mut Tally,
) -> Result<(trace::Tracer, f64), String> {
    let cfg = &p.cfg;
    let sim = workload::build_single(
        cfg,
        &p.faults,
        &p.service,
        Some((
            Box::new(TimedOrder(cfg.scheduler.order)),
            Box::new(TimedPlacement(cfg.scheduler.memory)),
        )),
    )?;
    let arrivals = if p.kind.is_open() {
        Arrivals::Open(p.jobs as u64)
    } else {
        Arrivals::Closed(workload.len() as u64)
    };
    let faults_total = p.faults.materialize(&cfg.cluster).len() as u64;
    let mut observer = TraceObserver;
    trace::begin(arrivals, faults_total);
    let (out, wall) = timed(|| sim.run_with(workload, ObserverSet::new().watch(&mut observer)));
    let tracer = trace::end().ok_or("tracer vanished")?;
    let mut problems = Vec::new();
    if out.trace_hash != reference {
        problems.push(format!(
            "traced hash {:016x} differs from untraced {reference:016x}",
            out.trace_hash
        ));
    }
    tally.run("traced run", &problems);
    Ok((tracer, wall))
}

/// Nanoseconds per event of a `TraceSink` attached to an untraced run.
fn sink_ns_per_event(sim: &Simulation, workload: &Workload, dir: &Path) -> Result<f64, String> {
    let path = dir.join(format!("sink-{}.jsonl", std::process::id()));
    let sink = TraceSink::create(&path).map_err(|e| e.to_string())?;
    let mut timed_sink = TimedSink {
        sink,
        work: Default::default(),
    };
    black_box(sim.run_with(workload, ObserverSet::new().watch(&mut timed_sink)));
    let work = timed_sink.work;
    let finished = timed_sink.sink.finish().map_err(|e| e.to_string());
    let _ = std::fs::remove_file(&path);
    finished?;
    Ok(work.ns as f64 / work.calls.max(1) as f64)
}

fn per_layer(args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let (bench, _, _) = setup(args)?;
    let gen_s = generation_s(&bench, args)?;
    let pin = pinned(args)?;

    // Untraced passes: the hashes every traced run must match and the
    // wall time tracing overhead is measured against.
    let (first, walls) = timed_passes(&bench, args.seconds / 2.0, pin, tally);
    let (untraced_s, samples) = (walls.raw, walls.passes);

    // The traced run: each replica's cluster, or every site of each fleet
    // replica replayed on its own with the jobs the fleet routed to it
    // (its hash must equal the site's hash inside the fleet).
    let mut layers = Layers::default();
    let mut traced_s = 0.0;
    let mut spans = Vec::new();
    for (i, (p, res)) in bench.parts.iter().zip(&first.results).enumerate() {
        match &res.fleet {
            None => {
                let (t, wall) = traced_run(p, &p.workload, res.hash, tally)?;
                layers.add(&t);
                traced_s += wall;
                spans.push((format!("seed{}-replica{i}", args.seed), t));
            }
            Some(out) => {
                for (j, site) in out.site_outputs.iter().enumerate() {
                    let jobs = site.records.iter().map(|r| r.job.clone()).collect();
                    let (t, wall) =
                        traced_run(p, &Workload::from_jobs(jobs), site.trace_hash, tally)?;
                    layers.add(&t);
                    traced_s += wall;
                    spans.push((format!("seed{}-replica{i}-site{j}", args.seed), t));
                }
            }
        }
    }
    // One file per workload, replaced by each traced run: a run's spans
    // reach 100 MB on `open_deadline`.
    let spans_path = out_dir.join(format!("{}.spans.jsonl", args.kind.name()));
    trace::write_spans(&spans_path, &spans).map_err(|e| e.to_string())?;

    // Trace-sink cost per event, on the first replica's first cluster.
    let p0 = &bench.parts[0];
    let sink_workload = match &first.results[0].fleet {
        Some(out) => Workload::from_jobs(
            out.site_outputs[0]
                .records
                .iter()
                .map(|r| r.job.clone())
                .collect(),
        ),
        None => p0.workload.clone(),
    };
    let sink_sim = workload::build_single(&p0.cfg, &p0.faults, &p0.service, None)?;
    let sink_ns = sink_ns_per_event(&sink_sim, &sink_workload, &out_dir)?;

    let (heap_ns, calendar_ns) = hold::hold_pair(layers.pending_peak as usize, HOLDS, 3, args.seed);

    let mut federation = (0.0, 0.0, 0.0);
    if args.kind == Kind::FleetEpochs {
        let mut routed = [0u64; workload::FLEET_SITES];
        for out in first.results.iter().filter_map(|r| r.fleet.as_ref()) {
            for (total, n) in routed.iter_mut().zip(&out.routed_jobs) {
                *total += n;
            }
        }
        let max = routed.iter().copied().max().unwrap_or(0) as f64;
        let mean = routed.iter().sum::<u64>() as f64 / routed.len() as f64;
        let threaded_s = fleet_at(&bench, fleet_workers(), first.hash(), tally)?;
        federation = (
            bench
                .parts
                .iter()
                .map(|p| epochs(&p.workload, 60.0))
                .sum::<usize>() as f64,
            if mean > 0.0 { max / mean } else { 0.0 },
            threaded_s / untraced_s,
        );
    }

    let c = layers.all_children();
    let pass_total = layers.pass_total_ns() as f64 * 1e-9;
    let outside_s = layers.outside.ns() as f64 * 1e-9;
    let engine_self_s = (traced_s - pass_total - outside_s).max(0.0);
    let passes = layers.pass_ns.len() as f64;
    let mut pass_us: Vec<f64> = layers.pass_ns.iter().map(|&n| n as f64 * 1e-3).collect();
    pass_us.sort_by(f64::total_cmp);
    let pct = |q: f64| match pass_us.len() {
        0 => 0.0,
        n => pass_us[((n - 1) as f64 * q).round() as usize],
    };
    let events = first.events() as f64;
    let jobs = (args.jobs * args.replicas) as f64;
    let fail_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "# traced wall {traced_s:.4} s vs untraced {untraced_s:.4} s (median of {samples} runs)"
    );
    Ok(vec![
        m("sched.pass.us_p50", pct(0.5), "us"),
        m("sched.pass.us_p99", pct(0.99), "us"),
        m("sched.pass.total_s", pass_total, "s"),
        m(
            "sched.pass.self_s",
            layers.pass_self_ns() as f64 * 1e-9,
            "s",
        ),
        m("sched.pass.started", layers.started as f64, "count"),
        m(
            "sched.pass.idle_frac",
            layers.idle_passes as f64 / passes.max(1.0),
            "ratio",
        ),
        m(
            "sched.pass.queue_depth_mean",
            layers.depth_sum as f64 / passes.max(1.0),
            "count",
        ),
        m("sched.order.calls", c.order.calls as f64, "count"),
        m("sched.order.entries", c.order_entries as f64, "count"),
        m("sched.order.self_s", c.order.ns as f64 * 1e-9, "s"),
        m("sched.memory.plan_calls", c.plan.calls as f64, "count"),
        m("sched.memory.plan_ok", c.plan_ok as f64, "count"),
        m("sched.memory.plan_s", c.plan.ns as f64 * 1e-9, "s"),
        m(
            "sched.memory.plan_used_ratio",
            if c.plan_ok > 0 {
                layers.started as f64 / c.plan_ok as f64
            } else {
                0.0
            },
            "ratio",
        ),
        m(
            "sched.memory.nominal_calls",
            c.nominal.calls as f64,
            "count",
        ),
        m("sched.memory.nominal_s", c.nominal.ns as f64 * 1e-9, "s"),
        m(
            "sched.memory.best_dilation_calls",
            c.best_dilation.calls as f64,
            "count",
        ),
        m(
            "sched.memory.best_dilation_s",
            c.best_dilation.ns as f64 * 1e-9,
            "s",
        ),
        m("sched.admission.rejected", layers.rejected as f64, "count"),
        m("sched.admission.deferred", layers.deferred as f64, "count"),
        m("sim.engine.events", events, "count"),
        m("sim.engine.passes", first.passes() as f64, "count"),
        m(
            "sim.engine.passes_per_event",
            first.passes() as f64 / events.max(1.0),
            "ratio",
        ),
        m("sim.engine.self_s", engine_self_s, "s"),
        m(
            "sim.engine.self_ns_per_event",
            engine_self_s * 1e9 / events.max(1.0),
            "ns",
        ),
        m(
            "des.queue.pending_peak",
            layers.pending_peak as f64,
            "count",
        ),
        m("des.queue.hold_ns.heap", heap_ns, "ns"),
        m("des.queue.hold_ns.calendar", calendar_ns, "ns"),
        m("sim.observe.dispatches", layers.dispatches as f64, "count"),
        m("sim.observe.self_s", c.observer.ns as f64 * 1e-9, "s"),
        m("sim.observe.trace_sink_ns_per_event", sink_ns, "ns"),
        m("sim.faults.events", layers.fault_events as f64, "count"),
        m(
            "sim.faults.interruptions",
            layers.interruptions as f64,
            "count",
        ),
        m("sim.faults.rework_s", layers.rework_s, "s"),
        m("sim.federation.epochs", federation.0, "count"),
        m("sim.federation.routed_imbalance", federation.1, "ratio"),
        m("sim.federation.threaded_over_serial", federation.2, "ratio"),
        m("workload.jobs", jobs, "count"),
        m("workload.gen_s", gen_s, "s"),
        m("trace.wall_s", traced_s, "s"),
        m("trace.untraced_wall_s", untraced_s, "s"),
        m("trace.overhead_s", traced_s - untraced_s, "s"),
        m("fail_frac", fail_frac, "ratio"),
    ])
}

/// Routing barriers a fleet passes through: distinct epochs that hold at
/// least one arrival (empty epochs are skipped by the router).
fn epochs(w: &Workload, epoch_s: f64) -> usize {
    let origin = w.first_arrival().map_or(0.0, |t| t.as_secs_f64());
    w.iter()
        .map(|j| ((j.arrival.as_secs_f64() - origin) / epoch_s).floor() as u64)
        .collect::<BTreeSet<_>>()
        .len()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# host nproc={} cpu={:?} rustc={:?} commit={} workload={} seed={} jobs={} replicas={} trace={}",
        host::nproc(),
        host::cpu_model(),
        host::rustc_version(),
        host::git_commit(),
        args.kind.name(),
        args.seed,
        args.jobs,
        args.replicas,
        u8::from(args.trace)
    );
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&args, &mut tally)
    } else {
        end_to_end(&args, &mut tally)
    };
    match metrics {
        Ok(mut metrics) => {
            for x in metrics.iter_mut().filter(|x| !x.value.is_finite()) {
                tally.run(x.name, &[format!("{} is not a finite number", x.name)]);
                x.value = 0.0;
            }
            println!("{}", result_line(&tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
