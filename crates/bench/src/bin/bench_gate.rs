//! CI bench-regression gate for the experiment runner and the engine
//! kernel.
//!
//! Reads the JSON-lines file the criterion-shim emits when `BENCH_JSON`
//! is set (one `{"name", "mean_ns", "std_ns"}` object per benchmark) and
//! compares ratios against a checked-in baseline:
//!
//! * **runner overhead** — the whole declarative path
//!   (`experiment_runner/run/1`) over the same cells simulated by hand
//!   (`experiment_runner/raw_cells`);
//! * **backfill layer** — the kernel workload under EASY backfilling
//!   (`engine_kernel/heap`) over the same run with backfilling off
//!   (`engine_kernel/no_backfill`), so the availability-profile build and
//!   the backfill scan cannot silently grow back to dominate a pass;
//! * **fault path** — the same workload under the canned fault storm
//!   (`engine_faults/storm`) over its fault-free run
//!   (`engine_faults/none`), bounding what the availability subsystem may
//!   cost (it is dead code on fault-free runs; under faults the overhead
//!   is interruption work plus the redone jobs, not a per-event tax);
//! * **observer overhead** — the same workload with the full extra
//!   observer set attached (`engine_observers/full`: streaming JSONL
//!   trace sink + sampled series probe + event counter) over the default
//!   observer set alone (`engine_observers/none`), bounding what
//!   attaching observers may cost per event;
//! * **service sketch path** — an open-system run streaming its jobs
//!   from the arrival source into O(1)-memory sketch metrics
//!   (`engine_service/sketch`) over a closed batch of the same size on
//!   the record-keeping job-stats path (`engine_service/jobstats`),
//!   bounding what pull-based admission plus the sketch observer may
//!   cost relative to the path they replace;
//! * **deadline ordering** — the same deadline-stamped workload under
//!   EDF ordering (`engine_deadline/edf`) over FCFS on identical stamps
//!   (`engine_deadline/fcfs`), bounding what deadline-aware queue
//!   ordering may cost per run (the stamps are data the pass comparator
//!   reads, never extra simulation work);
//! * **admission control** — the same deadline-stamped workload under
//!   the full deadline stack — laxity-aware placement plus infeasibility
//!   rejection (`engine_admission/guarded`) — over plain EDF on the same
//!   stamps (`engine_admission/edf`), bounding what the per-admission
//!   feasibility probe and the laxity-priced placement scan may cost.
//!
//! Ratios, not absolute times: CI machines vary wildly in speed, but cost
//! relative to a same-machine reference is a property of the code. Exits
//! non-zero when a measured ratio exceeds `baseline × (1 + max_regression)`.
//!
//! ```text
//! BENCH_JSON=BENCH_ci.json cargo bench -p dmhpc-bench --bench bench_experiment
//! cargo run -p dmhpc-bench --bin bench_gate -- BENCH_ci.json crates/bench/BENCH_baseline.json
//! ```

use dmhpc_metrics::json::parse;

const RUN_BENCH: &str = "experiment_runner/run/1";
const RAW_BENCH: &str = "experiment_runner/raw_cells";
const KERNEL_HEAP_BENCH: &str = "engine_kernel/heap";
const KERNEL_NO_BACKFILL_BENCH: &str = "engine_kernel/no_backfill";
const FAULTS_STORM_BENCH: &str = "engine_faults/storm";
const FAULTS_NONE_BENCH: &str = "engine_faults/none";
const OBSERVERS_FULL_BENCH: &str = "engine_observers/full";
const OBSERVERS_NONE_BENCH: &str = "engine_observers/none";
const SERVICE_SKETCH_BENCH: &str = "engine_service/sketch";
const SERVICE_JOBSTATS_BENCH: &str = "engine_service/jobstats";
const DEADLINE_EDF_BENCH: &str = "engine_deadline/edf";
const DEADLINE_FCFS_BENCH: &str = "engine_deadline/fcfs";
const ADMISSION_GUARDED_BENCH: &str = "engine_admission/guarded";
const ADMISSION_EDF_BENCH: &str = "engine_admission/edf";

fn mean_of(lines: &str, bench: &str) -> Result<f64, String> {
    // Last occurrence wins: re-runs append.
    let mut found = None;
    for line in lines.lines().filter(|l| !l.trim().is_empty()) {
        let doc = parse(line).map_err(|e| format!("bad bench-results line {line:?}: {e}"))?;
        let name = doc
            .expect_key("name")
            .and_then(|n| n.to_str().map(str::to_string))
            .map_err(|e| e.to_string())?;
        if name == bench {
            let mean = doc
                .expect_key("mean_ns")
                .and_then(|m| m.to_f64())
                .map_err(|e| e.to_string())?;
            found = Some(mean);
        }
    }
    found.ok_or_else(|| {
        format!("benchmark {bench:?} not found in results (did bench_experiment run?)")
    })
}

/// Check one ratio gate; returns an error message when it regressed.
fn gate(
    label: &str,
    num_name: &str,
    den_name: &str,
    num_ns: f64,
    den_ns: f64,
    baseline_ratio: f64,
    max_regression: f64,
) -> Result<(), String> {
    if den_ns <= 0.0 {
        return Err(format!("{den_name} mean is not positive ({den_ns} ns)"));
    }
    let ratio = num_ns / den_ns;
    let limit = baseline_ratio * (1.0 + max_regression);
    println!("{label}: {num_name} = {num_ns:.0} ns, {den_name} = {den_ns:.0} ns");
    println!(
        "measured ratio {ratio:.3} vs baseline {baseline_ratio:.3} \
         (limit {limit:.3} = baseline × {:.2})",
        1.0 + max_regression
    );
    if ratio > limit {
        return Err(format!(
            "{label} regressed: ratio {ratio:.3} exceeds limit {limit:.3}"
        ));
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [results_path, baseline_path] = args.as_slice() else {
        return Err("usage: bench_gate <bench-results.jsonl> <baseline.json>".into());
    };

    let results = std::fs::read_to_string(results_path)
        .map_err(|e| format!("reading {results_path}: {e}"))?;
    let baseline_text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("reading {baseline_path}: {e}"))?;
    let baseline = parse(&baseline_text)?;
    let max_regression = baseline.expect_key("max_regression")?.to_f64()?;

    gate(
        "runner overhead",
        RUN_BENCH,
        RAW_BENCH,
        mean_of(&results, RUN_BENCH)?,
        mean_of(&results, RAW_BENCH)?,
        baseline.expect_key("runner_overhead_ratio")?.to_f64()?,
        max_regression,
    )?;
    gate(
        "backfill vs no backfill",
        KERNEL_HEAP_BENCH,
        KERNEL_NO_BACKFILL_BENCH,
        mean_of(&results, KERNEL_HEAP_BENCH)?,
        mean_of(&results, KERNEL_NO_BACKFILL_BENCH)?,
        baseline.expect_key("backfill_vs_none_ratio")?.to_f64()?,
        max_regression,
    )?;
    gate(
        "fault storm vs clean kernel",
        FAULTS_STORM_BENCH,
        FAULTS_NONE_BENCH,
        mean_of(&results, FAULTS_STORM_BENCH)?,
        mean_of(&results, FAULTS_NONE_BENCH)?,
        baseline.expect_key("faults_vs_clean_ratio")?.to_f64()?,
        max_regression,
    )?;
    gate(
        "observer overhead",
        OBSERVERS_FULL_BENCH,
        OBSERVERS_NONE_BENCH,
        mean_of(&results, OBSERVERS_FULL_BENCH)?,
        mean_of(&results, OBSERVERS_NONE_BENCH)?,
        baseline.expect_key("observer_overhead_ratio")?.to_f64()?,
        max_regression,
    )?;
    gate(
        "service sketch vs jobstats",
        SERVICE_SKETCH_BENCH,
        SERVICE_JOBSTATS_BENCH,
        mean_of(&results, SERVICE_SKETCH_BENCH)?,
        mean_of(&results, SERVICE_JOBSTATS_BENCH)?,
        baseline.expect_key("sketch_vs_jobstats_ratio")?.to_f64()?,
        max_regression,
    )?;
    gate(
        "deadline ordering vs fcfs",
        DEADLINE_EDF_BENCH,
        DEADLINE_FCFS_BENCH,
        mean_of(&results, DEADLINE_EDF_BENCH)?,
        mean_of(&results, DEADLINE_FCFS_BENCH)?,
        baseline.expect_key("deadline_vs_fcfs_ratio")?.to_f64()?,
        max_regression,
    )?;
    gate(
        "admission stack vs edf",
        ADMISSION_GUARDED_BENCH,
        ADMISSION_EDF_BENCH,
        mean_of(&results, ADMISSION_GUARDED_BENCH)?,
        mean_of(&results, ADMISSION_EDF_BENCH)?,
        baseline.expect_key("admission_vs_edf_ratio")?.to_f64()?,
        max_regression,
    )?;
    println!("bench gate OK");
    Ok(())
}
