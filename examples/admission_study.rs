//! Admission study: does the deadline stack buy SLO attainment beyond
//! EDF ordering alone?
//!
//! EDF decides *which* queued job goes first, but it still places jobs
//! greedily (cheapest dilation wins) and admits everything — including
//! jobs whose deadline is already unreachable, which then occupy nodes
//! and pool bandwidth that deadline-feasible work needed. This example
//! runs the same streaming arrival process — same pooled machine, same
//! utilization, same seeds, same per-job budget-factor deadlines
//! (deadline = arrival + factor × walltime, factor uniform in [1.5, 4))
//! — under EDF with four placement/admission stacks and compares what
//! fraction of jobs met the one-hour wait SLO:
//!
//! * `edf-alone` — slowdown-aware placement, admit everything: the
//!   baseline every other arm adds exactly one knob to;
//! * `+laxity` — laxity-aware placement: a shape whose dilated finish
//!   blows the job's own deadline is priced as infeasible even when its
//!   dilation is cheapest;
//! * `+reject` — laxity placement plus infeasibility rejection: a job
//!   that cannot meet its deadline even undilated is turned away at
//!   admission instead of occupying the queue;
//! * `+defer` — laxity placement plus deferral: the same infeasible jobs
//!   are parked and rechecked at their laxity-lapse instant, rejected
//!   only when the deadline itself lapses.
//!
//! Only the placement/admission stack differs between cells, so any
//! attainment gap is the stack's doing. Across seeds, the combined
//! stacks (+reject, +defer) beat EDF-alone by several attainment points:
//! turning away — or parking — the handful of jobs that were never going
//! to make it returns their nodes to jobs whose deadlines are still
//! live. The run also proves the whole stack deterministic: the per-cell
//! trace hashes are byte-identical whether the grid runs on one thread or
//! several.
//!
//! ```text
//! cargo run --release --example admission_study
//! ```

use dmhpc::prelude::*;

fn spec(seeds: &[u64]) -> Result<ExperimentSpec, SimError> {
    let stack = |memory: MemoryPolicy, admission: AdmissionPolicy| {
        SchedulerBuilder::new()
            .order(OrderPolicy::Edf)
            .memory(memory)
            .slowdown(SlowdownModel::Saturating {
                penalty: 1.5,
                curvature: 3.0,
            })
            .admission(admission)
            .build()
    };
    let laxity = MemoryPolicy::LaxityAware { max_dilation: 1.4 };
    ExperimentSpec::builder("admission-study")
        .preset(SystemPreset::HighThroughput, 1)
        .pool(PoolTopology::PerRack {
            mib_per_rack: 384 * 1024,
        })
        .seeds(seeds.iter().copied())
        .service(
            ServiceSpec::open(SystemPreset::HighThroughput)
                .with_utilization(0.9)
                .with_horizon_jobs(4_000)
                .with_warmup_secs(3_600)
                .with_slo_wait_secs(3_600.0)
                .with_slo_budget_factor(1.5, 4.0),
        )
        .scheduler(stack(
            MemoryPolicy::SlowdownAware { max_dilation: 1.4 },
            AdmissionPolicy::AdmitAll,
        ))
        .scheduler(stack(laxity, AdmissionPolicy::AdmitAll))
        .scheduler(stack(laxity, AdmissionPolicy::RejectInfeasible))
        .scheduler(stack(laxity, AdmissionPolicy::DeferUntilFeasible))
        .build()
}

/// Stack name for a cell: which of the four arms produced it.
fn stack_name(config: &SchedulerConfig) -> &'static str {
    match (&config.memory, &config.admission) {
        (MemoryPolicy::SlowdownAware { .. }, _) => "edf-alone",
        (_, AdmissionPolicy::AdmitAll) => "+laxity",
        (_, AdmissionPolicy::RejectInfeasible) => "+reject",
        (_, AdmissionPolicy::DeferUntilFeasible) => "+defer",
    }
}

fn main() -> Result<(), SimError> {
    let seeds = [1_u64, 2, 3];
    let spec = spec(&seeds)?;
    println!(
        "admission study: {} cells ({} seeds × 4 stacks)\n",
        spec.cell_count(),
        seeds.len()
    );
    let results = ExperimentRunner::with_threads(1).run(&spec)?;

    println!(
        "{:>6} {:>10} {:>9} {:>9} {:>12} {:>10}",
        "seed", "stack", "measured", "rejected", "p99_wait_s", "slo_1h"
    );
    const STACKS: [&str; 4] = ["edf-alone", "+laxity", "+reject", "+defer"];
    let mut by_stack: Vec<(&'static str, Vec<f64>)> =
        STACKS.iter().map(|s| (*s, Vec::new())).collect();
    for cell in results.cells() {
        let svc = cell
            .output
            .service
            .expect("open cells report a service summary");
        let attained = cell
            .slo_attainment()
            .expect("cells with a wait SLO report attainment");
        let stack = stack_name(&cell.config.scheduler);
        println!(
            "{:>6} {:>10} {:>9} {:>9} {:>12.0} {:>9.1}%",
            cell.key.seed.expect("preset grids carry a seed"),
            stack,
            svc.observed,
            cell.output.report.rejected,
            svc.p99_wait_s,
            100.0 * attained,
        );
        let slot = by_stack
            .iter_mut()
            .find(|(name, _)| *name == stack)
            .expect("every cell's stack is in the sweep");
        slot.1.push(attained);
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let edf_alone = mean(&by_stack[0].1);
    println!("\nmean SLO attainment over {} seeds:", seeds.len());
    for (name, attained) in &by_stack {
        let m = mean(attained);
        println!(
            "  {:>10}: {:>5.1}%  ({:+.2} pts vs edf-alone)",
            name,
            100.0 * m,
            100.0 * (m - edf_alone)
        );
    }

    // The headline claim: laxity-aware placement plus either admission
    // policy beats EDF ordering alone at identical offered load. Laxity
    // pricing by itself can trade attainment near saturation (it keeps
    // doomed jobs queued on their nominal shape instead of starting them
    // dilated); the admission layer is what converts that honesty into a
    // win, so the combined stacks are the asserted bar.
    let laxity = mean(&by_stack[1].1);
    let reject = mean(&by_stack[2].1);
    let defer = mean(&by_stack[3].1);
    assert!(
        reject > edf_alone && defer > edf_alone && reject > laxity && defer > laxity,
        "placement + admission should buy attainment over EDF alone \
         (edf-alone {edf_alone:.4}, +laxity {laxity:.4}, +reject {reject:.4}, \
         +defer {defer:.4})"
    );

    // Determinism: the identical grid on several threads must reproduce
    // every cell byte-for-byte.
    let hashes = |r: &ExperimentResults| -> Vec<(String, u64)> {
        r.cells()
            .iter()
            .map(|c| (c.key.label(), c.output.trace_hash))
            .collect()
    };
    let reference = hashes(&results);
    let threaded = ExperimentRunner::with_threads(4).run(&spec)?;
    assert_eq!(
        reference,
        hashes(&threaded),
        "trace hashes must not depend on worker-thread count"
    );

    println!(
        "\ndeadline stack wins: +laxity {:+.2} pts, +reject {:+.2} pts, +defer {:+.2} pts \
         over edf-alone at identical offered load; all {} cells byte-identical across \
         1-vs-4 threads.",
        100.0 * (laxity - edf_alone),
        100.0 * (reject - edf_alone),
        100.0 * (defer - edf_alone),
        reference.len()
    );
    Ok(())
}
