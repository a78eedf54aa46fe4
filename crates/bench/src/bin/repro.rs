//! Reproduction harness: regenerate any table/figure of the evaluation,
//! and run/shard/merge declarative experiment grids at scale.
//!
//! ```text
//! # Tables and figures (optionally accelerated by a result cache):
//! cargo run --release -p dmhpc-bench --bin repro -- all
//! cargo run --release -p dmhpc-bench --bin repro -- --cache-dir .cache t2 f3 f6
//!
//! # Grid mode: run a spec (JSON file or the built-in `smoke` grid),
//! # optionally one shard of it, storing cells in the content-addressed
//! # cache so independent shard processes/CI jobs share one store:
//! cargo run --release -p dmhpc-bench --bin repro -- grid smoke --shard 0/2 --cache-dir .grid
//! cargo run --release -p dmhpc-bench --bin repro -- grid smoke --shard 1/2 --cache-dir .grid
//!
//! # Merge: recombine shard outputs into the full grid-ordered table.
//! # Every cell must already be cached (zero simulations) — a missing
//! # cell means a shard did not run, and the merge fails loudly:
//! cargo run --release -p dmhpc-bench --bin repro -- merge smoke --cache-dir .grid
//! ```
//!
//! Table/figure output is printed and mirrored to `results/<id>.txt`;
//! grid/merge output lands in `results/<name>.*.{csv,json}`.
//!
//! Internally every invocation is parsed ([`parse_cli`]) and then
//! *resolved* ([`RunMode::resolve`]) into one [`RunMode`] variant carrying
//! exactly the knobs that apply to it. Every flag × mode combination rule
//! lives in `resolve` — the run functions below cannot even see a flag
//! that is meaningless in their mode.

use dmhpc_bench::experiments::{self, RunOptions};
use dmhpc_sim::{ExperimentResults, ExperimentRunner, ExperimentSpec, Shard, SimError};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

const BUILTIN_GRIDS: &str =
    "smoke|smoke-contention|smoke-faults|smoke-service|smoke-deadline|smoke-admission|smoke-fleet";

fn usage() {
    eprintln!(
        "usage: repro [--list] [--cache-dir DIR] [--threads N] [--trace-out DIR] <id>... | all"
    );
    eprintln!("       repro grid  <spec.json|{BUILTIN_GRIDS}> [--shard i/n] [--cache-dir DIR] [--threads N] [--trace-out DIR] [--faults] [--service|--fleet]");
    eprintln!("       repro merge <spec.json|{BUILTIN_GRIDS}> --cache-dir DIR [--faults]");
    eprintln!("       --faults crosses the spec's grid with the built-in fault axis");
    eprintln!("       (fault-free baseline + node failures/drains/pool degradations);");
    eprintln!("       it composes with --service and with service specs");
    eprintln!("       --service crosses the spec's grid with the built-in open-system");
    eprintln!("       service axis (closed-batch baseline + a streaming-arrival cell");
    eprintln!("       with O(1)-memory sketch metrics); grid mode only — use the");
    eprintln!("       smoke-service built-in for merges");
    eprintln!("       --fleet crosses the spec's grid with the built-in federation");
    eprintln!("       axis (no-fleet baseline + a 4-site epoch-synchronized fleet");
    eprintln!("       behind a least-queue-depth meta-scheduler); grid mode only —");
    eprintln!("       use the smoke-fleet built-in for merges. Federated cells run");
    eprintln!("       observation-free, so --fleet does not combine with --trace-out");
    eprintln!("       --trace-out DIR streams one <spec>.<cell>.jsonl event trace per");
    eprintln!("       simulated cell into DIR (constant memory per cell; hash-neutral,");
    eprintln!("       so result caches stay warm — cache-hit cells emit no trace)");
    eprintln!("ids: {}", experiments::all_ids().join(" "));
}

/// Raw flags exactly as given — parsed, but not yet checked against each
/// other. [`RunMode::resolve`] turns this into something runnable.
#[derive(Debug)]
struct Cli {
    mode: Mode,
    list: bool,
    cache_dir: Option<PathBuf>,
    shard: Option<Shard>,
    /// `None` = auto (one worker per core); validated ≥ 1 when given.
    threads: Option<usize>,
    /// Stream per-cell event traces into this directory.
    trace_out: Option<PathBuf>,
    /// Cross the grid with the built-in fault axis (grid/merge modes).
    faults: bool,
    /// Cross the grid with the built-in open-system service axis (grid
    /// mode only).
    service: bool,
    /// Cross the grid with the built-in federation axis (grid mode only).
    fleet: bool,
    args: Vec<String>,
}

#[derive(Debug)]
enum Mode {
    Tables,
    Grid,
    Merge,
}

/// Everything the simulated-run modes share: cache, workers, trace
/// export.
#[derive(Debug)]
struct ExecKnobs {
    cache_dir: Option<PathBuf>,
    /// `0` = auto (one worker per core).
    threads: usize,
    trace_out: Option<PathBuf>,
}

/// One fully validated invocation. Each variant carries exactly the knobs
/// that apply to it; every rejected flag combination is refused in
/// [`RunMode::resolve`] — the single source of truth for the CLI's
/// flag × mode matrix (exhaustively pinned by
/// `rejected_flag_combinations`).
#[derive(Debug)]
enum RunMode {
    /// `repro --list`: print experiment ids and the built-in grid
    /// inventory. Never simulates.
    ListTables,
    /// `repro <id>... | all`: regenerate tables/figures.
    Tables {
        ids: Vec<String>,
        options: RunOptions,
    },
    /// `repro grid <spec> --list`: print the cells (optionally one
    /// shard's) the spec compiles to. Never simulates.
    ListGrid {
        spec_arg: String,
        shard: Option<Shard>,
        faults: bool,
    },
    /// `repro grid <spec>`: run a grid, optionally one shard of it.
    Grid {
        spec_arg: String,
        shard: Option<Shard>,
        faults: bool,
        service: bool,
        fleet: bool,
        exec: ExecKnobs,
    },
    /// `repro merge <spec>`: recombine a fully cached grid.
    Merge {
        spec_arg: String,
        cache_dir: PathBuf,
        faults: bool,
    },
}

impl RunMode {
    /// The one place flag combinations are accepted or refused. Checks
    /// keep the historical order so every long-standing error message
    /// (and the CI scripts grepping for them) is preserved verbatim.
    fn resolve(cli: Cli) -> Result<RunMode, String> {
        // Listing never simulates, in any mode: execution knobs are
        // refused, not silently dropped.
        fn reject_exec_knobs_under_list(cli: &Cli) -> Result<(), String> {
            if cli.threads.is_some() {
                return Err("--threads does not apply to --list (listing never simulates)".into());
            }
            if cli.trace_out.is_some() {
                return Err(
                    "--trace-out does not apply to --list (listing never simulates)".into(),
                );
            }
            Ok(())
        }
        match cli.mode {
            Mode::Grid => {
                let Some(spec_arg) = cli.args.first().cloned() else {
                    return Err("grid mode needs a spec (a JSON file or `smoke`)".into());
                };
                if cli.fleet && cli.faults {
                    return Err(
                        "--fleet does not combine with --faults (federated fleet scenarios \
                         and fault scenarios are separate experiments)"
                            .into(),
                    );
                }
                if cli.fleet && cli.service {
                    return Err(
                        "--fleet does not combine with --service (federated fleet scenarios \
                         and open-system service runs are separate experiments)"
                            .into(),
                    );
                }
                if cli.fleet && cli.trace_out.is_some() {
                    // Federated cells run observation-free (no per-event
                    // probes cross site engines), so a trace-out run over
                    // a fleet cross would promise traces it cannot write.
                    return Err(
                        "--trace-out does not combine with --fleet (federated cells run \
                         observation-free and emit no traces; trace the fleet-free grid \
                         instead)"
                            .into(),
                    );
                }
                if cli.list {
                    if cli.fleet {
                        return Err(
                            "--fleet does not apply to --list (list a spec with a fleet \
                             axis — e.g. the smoke-fleet built-in — instead)"
                                .into(),
                        );
                    }
                    // The listing must show exactly the cells a spec
                    // compiles to; a flag that rewrites the grid under
                    // --list invites listing one grid and running
                    // another. Specs with a service axis (or the
                    // smoke-service / smoke-deadline built-ins) list
                    // their service cells natively. (--faults is the
                    // historical exception: the listing applies the same
                    // cross the run would.)
                    if cli.service {
                        return Err(
                            "--service does not apply to --list (list a spec with a service \
                             axis — e.g. the smoke-service built-in — instead)"
                                .into(),
                        );
                    }
                    reject_exec_knobs_under_list(&cli)?;
                    return Ok(RunMode::ListGrid {
                        spec_arg,
                        shard: cli.shard,
                        faults: cli.faults,
                    });
                }
                Ok(RunMode::Grid {
                    spec_arg,
                    shard: cli.shard,
                    faults: cli.faults,
                    service: cli.service,
                    fleet: cli.fleet,
                    exec: ExecKnobs {
                        cache_dir: cli.cache_dir,
                        threads: cli.threads.unwrap_or(0),
                        trace_out: cli.trace_out,
                    },
                })
            }
            Mode::Merge => {
                let Some(spec_arg) = cli.args.first().cloned() else {
                    return Err("merge mode needs a spec (a JSON file or `smoke`)".into());
                };
                if cli.cache_dir.is_none() {
                    return Err(
                        "merge mode needs --cache-dir (where the shards stored cells)".to_string(),
                    );
                }
                if cli.service {
                    return Err(
                        "--service only applies to grid mode (merge a spec that declares a \
                         service axis — e.g. the smoke-service built-in — so it reconstructs \
                         the exact grid the shards ran)"
                            .into(),
                    );
                }
                if cli.fleet {
                    return Err(
                        "--fleet only applies to grid mode (merge a spec that declares a \
                         fleet axis — e.g. the smoke-fleet built-in — so it reconstructs \
                         the exact grid the shards ran)"
                            .into(),
                    );
                }
                if cli.shard.is_some() {
                    return Err(
                        "--shard does not apply to merge mode (it always rebuilds the full grid)"
                            .into(),
                    );
                }
                if cli.threads.is_some() {
                    // Merge demands all-cache-hits and therefore
                    // simulates nothing: a worker count here means the
                    // caller expected simulations.
                    return Err(
                        "--threads does not apply to merge mode (merge loads cells, never \
                         simulates; use `grid` to run missing cells)"
                            .into(),
                    );
                }
                if cli.trace_out.is_some() {
                    return Err(
                        "--trace-out does not apply to merge mode (merge loads cells, never \
                         simulates)"
                            .into(),
                    );
                }
                Ok(RunMode::Merge {
                    spec_arg,
                    cache_dir: cli.cache_dir.expect("checked above"),
                    faults: cli.faults,
                })
            }
            Mode::Tables => {
                if cli.faults {
                    return Err(
                        "--faults only applies to grid/merge modes (tables run fixed grids)".into(),
                    );
                }
                if cli.service {
                    return Err(
                        "--service only applies to grid mode (tables run fixed grids)".into(),
                    );
                }
                if cli.fleet {
                    return Err("--fleet only applies to grid mode (tables run fixed grids)".into());
                }
                if cli.shard.is_some() {
                    // Silently running the *full* suite under a flag
                    // that promises a slice would double work in fan-out
                    // scripts; refuse instead.
                    return Err(
                        "--shard only applies to grid mode (tables always run whole grids)".into(),
                    );
                }
                if cli.list {
                    reject_exec_knobs_under_list(&cli)?;
                    return Ok(RunMode::ListTables);
                }
                Ok(RunMode::Tables {
                    ids: cli.args,
                    options: RunOptions {
                        cache_dir: cli.cache_dir,
                        threads: cli.threads.unwrap_or(0),
                        trace_dir: cli.trace_out,
                    },
                })
            }
        }
    }
}

fn parse_cli(raw: Vec<String>) -> Result<Cli, Box<dyn std::error::Error>> {
    let mut cli = Cli {
        mode: Mode::Tables,
        list: false,
        cache_dir: None,
        shard: None,
        threads: None,
        trace_out: None,
        faults: false,
        service: false,
        fleet: false,
        args: Vec::new(),
    };
    let mut it = raw.into_iter().peekable();
    if let Some(first) = it.peek() {
        match first.as_str() {
            "grid" => {
                cli.mode = Mode::Grid;
                it.next();
            }
            "merge" => {
                cli.mode = Mode::Merge;
                it.next();
            }
            _ => {}
        }
    }
    while let Some(arg) = it.next() {
        let value = |it: &mut std::iter::Peekable<std::vec::IntoIter<String>>,
                     flag: &str|
         -> Result<String, Box<dyn std::error::Error>> {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value").into())
        };
        match arg.as_str() {
            "--list" => cli.list = true,
            "--faults" => cli.faults = true,
            "--service" => cli.service = true,
            "--fleet" => cli.fleet = true,
            "--cache-dir" => cli.cache_dir = Some(PathBuf::from(value(&mut it, "--cache-dir")?)),
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value(&mut it, "--trace-out")?)),
            "--shard" => cli.shard = Some(Shard::parse(&value(&mut it, "--shard")?)?),
            "--threads" => {
                let n: usize = value(&mut it, "--threads")?.parse()?;
                if n == 0 {
                    // `0` used to silently mean "auto" — ambiguous enough
                    // that fan-out scripts passed it expecting "none".
                    return Err(
                        "--threads needs a positive worker count (omit the flag for one \
                         worker per core)"
                            .into(),
                    );
                }
                cli.threads = Some(n);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}").into());
            }
            _ => cli.args.push(arg),
        }
    }
    Ok(cli)
}

/// Resolve a grid-mode spec argument: a JSON file path, or one of the
/// built-in grids (`smoke`, `smoke-contention`, …). Compile errors surface
/// as `SimError` → non-zero exit.
fn load_spec(arg: &str) -> Result<ExperimentSpec, Box<dyn std::error::Error>> {
    match arg {
        "smoke" => return Ok(experiments::smoke_spec()?),
        "smoke-contention" => return Ok(experiments::smoke_contention_spec()?),
        "smoke-faults" => return Ok(experiments::smoke_faults_spec()?),
        "smoke-service" => return Ok(experiments::smoke_service_spec()?),
        "smoke-deadline" => return Ok(experiments::smoke_deadline_spec()?),
        "smoke-admission" => return Ok(experiments::smoke_admission_spec()?),
        "smoke-fleet" => return Ok(experiments::smoke_fleet_spec()?),
        _ => {}
    }
    let text =
        std::fs::read_to_string(arg).map_err(|e| SimError::io(format!("reading spec {arg}"), e))?;
    Ok(ExperimentSpec::from_json(&text)?)
}

fn export(results: &ExperimentResults, stem: &str) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    std::fs::write(format!("results/{stem}.csv"), results.to_csv())?;
    std::fs::write(format!("results/{stem}.json"), results.to_json())?;
    Ok(())
}

fn list_grid(
    spec_arg: &str,
    shard: Option<Shard>,
    faults: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut spec = load_spec(spec_arg)?;
    if faults {
        spec = experiments::with_default_faults(spec)?;
    }
    // Listing compiles the grid, so an ill-formed spec fails loudly here
    // instead of being discovered mid-CI. With --shard, list exactly the
    // cells that shard would run.
    for (i, (key, hash)) in spec.cell_hashes()?.into_iter().enumerate() {
        if shard.is_none_or(|s| s.owns(i)) {
            println!("{:016x}  {}", hash, key.label());
        }
    }
    Ok(())
}

fn run_grid(
    spec_arg: &str,
    shard: Option<Shard>,
    faults: bool,
    service: bool,
    fleet: bool,
    exec: &ExecKnobs,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut spec = load_spec(spec_arg)?;
    if faults {
        spec = experiments::with_default_faults(spec)?;
    }
    if service {
        spec = experiments::with_default_service(spec)?;
    }
    if fleet {
        spec = experiments::with_default_fleet(spec)?;
    }
    let mut runner = ExperimentRunner::with_threads(exec.threads);
    if let Some(dir) = &exec.cache_dir {
        runner = runner.cache_dir(dir)?;
    }
    if let Some(dir) = &exec.trace_out {
        runner = runner.trace_dir(dir)?;
    }
    let started_at = std::time::SystemTime::now();
    let start = Instant::now();
    let (results, stem) = match shard {
        Some(shard) => (
            runner.run_shard(&spec, shard)?,
            format!("{}.shard{}of{}", spec.name, shard.index(), shard.count()),
        ),
        None => (runner.run(&spec)?, spec.name.clone()),
    };
    export(&results, &stem)?;
    let stats = results.stats();
    println!(
        "== grid {} — {} cells ({} simulated, {} cached) [{:.1}s] -> results/{stem}.{{csv,json}}",
        spec.name,
        results.len(),
        stats.simulated,
        stats.cache_hits,
        start.elapsed().as_secs_f64()
    );
    if let Some(dir) = &exec.trace_out {
        verify_traces(dir, stats.simulated, started_at)?;
    }
    Ok(())
}

/// Check the streamed traces after a `--trace-out` run: every `.jsonl`
/// file must be non-empty and every line must parse as JSON. A run that
/// simulated cells must have written at least one *fresh* trace (mtime
/// at/after the run started, with a 1 s cushion for coarse filesystem
/// timestamps) — stale files from earlier runs are still validated but
/// cannot satisfy that check, and the totals distinguish the two so
/// smoke logs show what this invocation actually exported.
fn verify_traces(
    dir: &PathBuf,
    simulated: usize,
    started_at: std::time::SystemTime,
) -> Result<(), Box<dyn std::error::Error>> {
    let cutoff = started_at - std::time::Duration::from_secs(1);
    let mut files = 0usize;
    let mut fresh = 0usize;
    let mut events = 0usize;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "jsonl") {
            continue;
        }
        // Stream line by line: traces can be arbitrarily large (that is
        // the point of the sink), so verification must not buffer one
        // wholesale.
        use std::io::BufRead as _;
        let reader = std::io::BufReader::new(std::fs::File::open(&path)?);
        let mut lines = 0usize;
        for (i, line) in reader.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            dmhpc_sim::observe::parse_trace_line(&line)
                .map_err(|e| format!("trace {} line {}: {e}", path.display(), i + 1))?;
            lines += 1;
        }
        if lines == 0 {
            return Err(format!("trace {} is empty", path.display()).into());
        }
        files += 1;
        if entry.metadata()?.modified().is_ok_and(|m| m >= cutoff) {
            fresh += 1;
        }
        events += lines.saturating_sub(2); // header + footer
    }
    if simulated > 0 && fresh == 0 {
        return Err(format!(
            "--trace-out {}: {simulated} cells simulated but no trace files written by this run",
            dir.display()
        )
        .into());
    }
    println!(
        "== traces: {files} files ({fresh} from this run), {events} events verified -> {}",
        dir.display()
    );
    Ok(())
}

fn run_merge(
    spec_arg: &str,
    cache_dir: &PathBuf,
    faults: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut spec = load_spec(spec_arg)?;
    if faults {
        // Merge must reconstruct exactly the grid the shards ran.
        spec = experiments::with_default_faults(spec)?;
    }
    let runner = ExperimentRunner::with_threads(1).cache_dir(cache_dir)?;
    let start = Instant::now();
    let results = runner.run(&spec)?;
    let stats = results.stats();
    if stats.simulated > 0 {
        return Err(format!(
            "merge expected every cell cached, but {} of {} cell(s) were missing \
             (did all shards run against this cache dir?)",
            stats.simulated,
            results.len()
        )
        .into());
    }
    export(&results, &spec.name)?;
    println!(
        "== merge {} — {} cells, all from cache [{:.1}s] -> results/{}.{{csv,json}}",
        spec.name,
        results.len(),
        start.elapsed().as_secs_f64(),
        spec.name
    );
    Ok(())
}

fn list_tables() -> Result<(), Box<dyn std::error::Error>> {
    for id in experiments::all_ids() {
        println!("{id}");
    }
    // The built-in grid specs are part of the CLI surface; an ill-formed
    // one must fail the listing (and therefore CI), not exit 0 silently.
    let smoke = experiments::smoke_spec()?;
    println!("grid: smoke ({} cells)", smoke.compile()?.len());
    let contention = experiments::smoke_contention_spec()?;
    println!(
        "grid: smoke-contention ({} cells)",
        contention.compile()?.len()
    );
    let faults = experiments::smoke_faults_spec()?;
    println!("grid: smoke-faults ({} cells)", faults.compile()?.len());
    let service = experiments::smoke_service_spec()?;
    println!("grid: smoke-service ({} cells)", service.compile()?.len());
    let deadline = experiments::smoke_deadline_spec()?;
    println!("grid: smoke-deadline ({} cells)", deadline.compile()?.len());
    let admission = experiments::smoke_admission_spec()?;
    println!(
        "grid: smoke-admission ({} cells)",
        admission.compile()?.len()
    );
    let fleet = experiments::smoke_fleet_spec()?;
    println!("grid: smoke-fleet ({} cells)", fleet.compile()?.len());
    Ok(())
}

fn run_tables(ids: &[String], options: &RunOptions) -> Result<(), Box<dyn std::error::Error>> {
    let started_at = std::time::SystemTime::now();
    let ids: Vec<&str> = if ids.iter().any(|a| a == "all") {
        experiments::all_ids().to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    std::fs::create_dir_all("results")?;
    for id in ids {
        let start = Instant::now();
        let Some(result) = experiments::run_with(id, options)? else {
            return Err(format!("unknown experiment id {id:?} (try --list)").into());
        };
        let elapsed = start.elapsed();
        println!(
            "== {} — {} [{:.1}s]",
            result.id,
            result.title,
            elapsed.as_secs_f64()
        );
        println!("{}", result.body);
        let mut f = std::fs::File::create(format!("results/{}.txt", result.id))?;
        writeln!(f, "# {} — {}", result.id, result.title)?;
        f.write_all(result.body.as_bytes())?;
    }
    if let Some(dir) = &options.trace_dir {
        // Tables runs may be fully cache-served (zero simulations, zero
        // traces): validate whatever was written without demanding files.
        verify_traces(dir, 0, started_at)?;
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return Ok(());
    }
    let mode = match RunMode::resolve(parse_cli(args)?) {
        Ok(mode) => mode,
        Err(e) => {
            usage();
            return Err(e.into());
        }
    };
    match mode {
        RunMode::ListTables => list_tables(),
        RunMode::Tables { ids, options } => run_tables(&ids, &options),
        RunMode::ListGrid {
            spec_arg,
            shard,
            faults,
        } => list_grid(&spec_arg, shard, faults),
        RunMode::Grid {
            spec_arg,
            shard,
            faults,
            service,
            fleet,
            exec,
        } => run_grid(&spec_arg, shard, faults, service, fleet, &exec),
        RunMode::Merge {
            spec_arg,
            cache_dir,
            faults,
        } => run_merge(&spec_arg, &cache_dir, faults),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, Box<dyn std::error::Error>> {
        parse_cli(args.iter().map(|s| s.to_string()).collect())
    }

    fn resolve(args: &[&str]) -> Result<RunMode, String> {
        RunMode::resolve(parse(args).unwrap())
    }

    /// The whole rejected-combination matrix, in one table: every flag
    /// that is meaningless in a mode is refused by [`RunMode::resolve`]
    /// with its long-standing message. Adding a flag or a mode means
    /// extending this table.
    #[test]
    fn rejected_flag_combinations() {
        let table: &[(&[&str], &str)] = &[
            // grid mode
            (&["grid"], "grid mode needs a spec"),
            (
                &["grid", "smoke", "--list", "--service"],
                "--service does not apply to --list",
            ),
            (
                &["grid", "smoke", "--fleet", "--faults"],
                "--fleet does not combine with --faults",
            ),
            (
                &["grid", "smoke", "--fleet", "--service"],
                "--fleet does not combine with --service",
            ),
            (
                &["grid", "smoke", "--fleet", "--trace-out", "/tmp/t"],
                "--trace-out does not combine with --fleet",
            ),
            (
                &["grid", "smoke", "--list", "--fleet"],
                "--fleet does not apply to --list",
            ),
            (
                &["grid", "smoke", "--list", "--threads", "2"],
                "--threads does not apply to --list (listing never simulates)",
            ),
            (
                &["grid", "smoke", "--list", "--trace-out", "/tmp/t"],
                "--trace-out does not apply to --list (listing never simulates)",
            ),
            // merge mode
            (&["merge"], "merge mode needs a spec"),
            (&["merge", "smoke"], "merge mode needs --cache-dir"),
            (
                &["merge", "smoke", "--cache-dir", "/tmp/x", "--service"],
                "--service only applies to grid mode",
            ),
            (
                &["merge", "smoke", "--cache-dir", "/tmp/x", "--fleet"],
                "--fleet only applies to grid mode",
            ),
            (
                &["merge", "smoke", "--cache-dir", "/tmp/x", "--shard", "0/2"],
                "--shard does not apply to merge mode",
            ),
            (
                &["merge", "smoke", "--cache-dir", "/tmp/x", "--threads", "2"],
                "--threads does not apply to merge mode",
            ),
            (
                &[
                    "merge",
                    "smoke",
                    "--cache-dir",
                    "/tmp/x",
                    "--trace-out",
                    "/tmp/t",
                ],
                "--trace-out does not apply to merge mode",
            ),
            // tables mode
            (
                &["t1", "--faults"],
                "--faults only applies to grid/merge modes",
            ),
            (&["t1", "--service"], "--service only applies to grid mode"),
            (&["t1", "--fleet"], "--fleet only applies to grid mode"),
            (
                &["t1", "--shard", "0/2"],
                "--shard only applies to grid mode",
            ),
            (
                &["--list", "--threads", "2"],
                "--threads does not apply to --list (listing never simulates)",
            ),
            (
                &["--list", "--trace-out", "/tmp/t"],
                "--trace-out does not apply to --list (listing never simulates)",
            ),
        ];
        for (args, want) in table {
            let err = resolve(args).unwrap_err();
            assert!(err.contains(want), "{args:?}: {err}");
        }
    }

    /// Valid combinations all resolve — including the ones that pair
    /// flags the rejected table refuses in *other* modes.
    #[test]
    fn accepted_flag_combinations_resolve() {
        let accepted: &[&[&str]] = &[
            &["t1", "t2"],
            &["all", "--cache-dir", "/tmp/x", "--threads", "2"],
            &["--list"],
            &["--list", "--cache-dir", "/tmp/x"],
            &["grid", "smoke"],
            &["grid", "smoke-deadline", "--shard", "1/2", "--threads", "4"],
            &["grid", "smoke", "--faults", "--trace-out", "/tmp/t"],
            &["grid", "smoke", "--service", "--threads", "2"],
            &["grid", "smoke", "--faults", "--service"],
            &["grid", "smoke-service", "--faults", "--shard", "1/2"],
            &[
                "merge",
                "smoke-service",
                "--cache-dir",
                "/tmp/x",
                "--faults",
            ],
            &["grid", "smoke", "--fleet"],
            &[
                "grid",
                "smoke-fleet",
                "--shard",
                "0/2",
                "--cache-dir",
                "/tmp/x",
            ],
            &["merge", "smoke-fleet", "--cache-dir", "/tmp/x"],
            &["grid", "smoke", "--list"],
            &["grid", "smoke", "--list", "--shard", "0/2", "--faults"],
            &["merge", "smoke", "--cache-dir", "/tmp/x"],
            &["merge", "smoke", "--cache-dir", "/tmp/x", "--faults"],
        ];
        for args in accepted {
            resolve(args).unwrap_or_else(|e| panic!("{args:?} should resolve: {e}"));
        }
    }

    #[test]
    fn resolved_modes_carry_only_their_knobs() {
        match resolve(&["grid", "smoke-deadline", "--shard", "0/2", "--threads", "3"]).unwrap() {
            RunMode::Grid {
                spec_arg,
                shard,
                exec,
                ..
            } => {
                assert_eq!(spec_arg, "smoke-deadline");
                assert_eq!(shard.unwrap().index(), 0);
                assert_eq!(exec.threads, 3);
            }
            other => panic!("expected Grid, got {other:?}"),
        }
        match resolve(&["grid", "smoke"]).unwrap() {
            RunMode::Grid { exec, .. } => assert_eq!(exec.threads, 0, "omitted flag means auto"),
            other => panic!("expected Grid, got {other:?}"),
        }
        match resolve(&["merge", "smoke", "--cache-dir", "/tmp/x", "--faults"]).unwrap() {
            RunMode::Merge {
                cache_dir, faults, ..
            } => {
                assert_eq!(cache_dir, PathBuf::from("/tmp/x"));
                assert!(faults);
            }
            other => panic!("expected Merge, got {other:?}"),
        }
        match resolve(&["--list"]).unwrap() {
            RunMode::ListTables => {}
            other => panic!("expected ListTables, got {other:?}"),
        }
        match resolve(&["t1", "all"]).unwrap() {
            RunMode::Tables { ids, options } => {
                assert_eq!(ids, ["t1", "all"]);
                assert_eq!(options.threads, 0);
            }
            other => panic!("expected Tables, got {other:?}"),
        }
    }

    #[test]
    fn threads_zero_is_rejected() {
        let err = parse(&["grid", "smoke", "--threads", "0"]).unwrap_err();
        assert!(err.to_string().contains("positive worker count"), "{err}");
        // Omitting the flag means auto; an explicit positive count parses.
        assert_eq!(parse(&["grid", "smoke"]).unwrap().threads, None);
        assert_eq!(
            parse(&["grid", "smoke", "--threads", "3"]).unwrap().threads,
            Some(3)
        );
    }

    #[test]
    fn queue_flag_parses_and_validates() {
        // The engine has one event heap: the old backend flag is refused
        // as unknown instead of being silently ignored.
        for backend in ["heap", "calendar"] {
            let err = parse(&["grid", "smoke", "--queue", backend]).unwrap_err();
            assert!(
                err.to_string().contains("unknown flag \"--queue\""),
                "{err}"
            );
        }
    }

    #[test]
    fn faults_flag_parses_and_crossing_twice_is_refused() {
        assert!(parse(&["grid", "smoke", "--faults"]).unwrap().faults);
        assert!(!parse(&["grid", "smoke"]).unwrap().faults);
        assert!(
            parse(&["merge", "smoke", "--cache-dir", "/tmp/x", "--faults"])
                .unwrap()
                .faults
        );
        // Crossing a spec that already has a fault axis is refused.
        let err = experiments::with_default_faults(experiments::smoke_faults_spec().unwrap())
            .unwrap_err();
        assert!(err.to_string().contains("already declares"), "{err}");
        // Same for the service cross.
        let err = experiments::with_default_service(experiments::smoke_service_spec().unwrap())
            .unwrap_err();
        assert!(err.to_string().contains("already declares"), "{err}");
    }

    #[test]
    fn smoke_service_grid_compiles_with_baseline_cells() {
        let spec = experiments::smoke_service_spec().unwrap();
        let cells = spec.compile().unwrap();
        assert_eq!(
            cells.len(),
            2 * experiments::smoke_spec().unwrap().cell_count()
        );
        let baseline = cells.iter().filter(|c| c.key.service.is_none()).count();
        assert_eq!(baseline * 2, cells.len(), "half the cells are closed");
    }

    #[test]
    fn smoke_faults_grid_compiles_with_baseline_cells() {
        let spec = experiments::smoke_faults_spec().unwrap();
        let cells = spec.compile().unwrap();
        assert_eq!(
            cells.len(),
            2 * experiments::smoke_contention_spec().unwrap().cell_count()
        );
        let baseline = cells.iter().filter(|c| c.key.fault.is_none()).count();
        assert_eq!(baseline * 2, cells.len(), "half the cells are fault-free");
    }

    #[test]
    fn smoke_fleet_grid_compiles_with_baseline_cells() {
        let spec = experiments::smoke_fleet_spec().unwrap();
        let cells = spec.compile().unwrap();
        assert_eq!(
            cells.len(),
            2 * experiments::smoke_spec().unwrap().cell_count()
        );
        let baseline = cells.iter().filter(|c| c.key.fleet.is_none()).count();
        assert_eq!(baseline * 2, cells.len(), "half the cells are fleet-free");
        // Crossing a spec that already has a fleet axis is refused.
        let err =
            experiments::with_default_fleet(experiments::smoke_fleet_spec().unwrap()).unwrap_err();
        assert!(err.to_string().contains("already declares"), "{err}");
    }

    #[test]
    fn smoke_fleet_is_a_builtin_spec() {
        let spec = load_spec("smoke-fleet").unwrap();
        assert_eq!(spec.name, "smoke-fleet");
        assert_eq!(spec.cell_count(), 16);
    }

    #[test]
    fn smoke_deadline_is_a_builtin_spec() {
        let spec = load_spec("smoke-deadline").unwrap();
        assert_eq!(spec.name, "smoke-deadline");
        assert_eq!(spec.cell_count(), 8);
    }

    #[test]
    fn smoke_admission_is_a_builtin_spec() {
        let spec = load_spec("smoke-admission").unwrap();
        assert_eq!(spec.name, "smoke-admission");
        assert_eq!(spec.cell_count(), 8);
        // The admission/placement knobs must keep cell labels (and hence
        // cache keys) distinct across the four scheduler columns.
        let cells = spec.compile().unwrap();
        let labels: std::collections::BTreeSet<_> = cells.iter().map(|c| c.key.label()).collect();
        assert_eq!(labels.len(), cells.len(), "every cell label is unique");
    }

    #[test]
    fn trace_out_parses() {
        assert_eq!(
            parse(&["grid", "smoke", "--trace-out", "/tmp/t"])
                .unwrap()
                .trace_out,
            Some(PathBuf::from("/tmp/t"))
        );
        assert_eq!(parse(&["grid", "smoke"]).unwrap().trace_out, None);
    }
}
