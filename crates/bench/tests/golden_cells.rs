//! Hash-neutrality goldens for the CI smoke grids.
//!
//! The SLO/deadline work added per-job `Slo` stamps, a scheduler-context
//! API, new ordering policies, and service-level budget-factor stamping.
//! All of it must be *absent-is-neutral*: a grid that never mentions
//! deadlines digests, hashes, and replays exactly as it did before the
//! feature existed — otherwise every pre-SLO result cache in the wild is
//! silently invalidated. These tests pin the cache cell keys of the three
//! long-standing smoke grids to the values captured before the redesign,
//! and prove a warm cache replays byte-identically on a differently
//! configured runner.

use dmhpc_bench::experiments;
use dmhpc_sim::{ExperimentRunner, ExperimentSpec};

/// `(cell label, cache cell key)` for every cell of a grid, captured
/// before SLO stamps / `SchedContext` / deadline policies existed.
const SMOKE_GOLDEN_CELLS: &[(&str, u64)] = &[
    (
        "no-pool|load0.80|seed1|fcfs+easy+local-only+sat1.5k3",
        0xf78438cad0676df3,
    ),
    (
        "no-pool|load0.80|seed1|fcfs+easy+pool-ff+sat1.5k3",
        0x2582b8a2e8186199,
    ),
    (
        "no-pool|load0.80|seed2|fcfs+easy+local-only+sat1.5k3",
        0xb3478e545677e454,
    ),
    (
        "no-pool|load0.80|seed2|fcfs+easy+pool-ff+sat1.5k3",
        0x39491907498b3c94,
    ),
    (
        "rack-384gib|load0.80|seed1|fcfs+easy+local-only+sat1.5k3",
        0x86215f88d9ee73c6,
    ),
    (
        "rack-384gib|load0.80|seed1|fcfs+easy+pool-ff+sat1.5k3",
        0xc28ef2263ac8559a,
    ),
    (
        "rack-384gib|load0.80|seed2|fcfs+easy+local-only+sat1.5k3",
        0x66c199bd834e1989,
    ),
    (
        "rack-384gib|load0.80|seed2|fcfs+easy+pool-ff+sat1.5k3",
        0xf539de4a8647e8eb,
    ),
];

const SMOKE_FAULTS_GOLDEN_CELLS: &[(&str, u64)] = &[
    ("no-pool|load0.80|seed1|fcfs+easy+pool-bf+con1.5g1", 0x16d5efaf3932b10b),
    ("no-pool|load0.80|seed1|fcfs+easy+slowdown-aware1.4+con1.5g1", 0xc0c6eb50e50a7648),
    ("no-pool|load0.80|seed1|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+easy+pool-bf+con1.5g1", 0x9e5620d103868368),
    ("no-pool|load0.80|seed1|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+easy+slowdown-aware1.4+con1.5g1", 0xeeb0b7787d5edf7f),
    ("no-pool|load0.80|seed2|fcfs+easy+pool-bf+con1.5g1", 0x488c51f81d17b402),
    ("no-pool|load0.80|seed2|fcfs+easy+slowdown-aware1.4+con1.5g1", 0x7dea239731471f97),
    ("no-pool|load0.80|seed2|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+easy+pool-bf+con1.5g1", 0x17e1602133128531),
    ("no-pool|load0.80|seed2|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+easy+slowdown-aware1.4+con1.5g1", 0xcbbab97dfe515c34),
    ("rack-384gib|load0.80|seed1|fcfs+easy+pool-bf+con1.5g1", 0xff47b8433f20282c),
    ("rack-384gib|load0.80|seed1|fcfs+easy+slowdown-aware1.4+con1.5g1", 0x77b155c353eca84d),
    ("rack-384gib|load0.80|seed1|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+easy+pool-bf+con1.5g1", 0x9f7922e241f79fe3),
    ("rack-384gib|load0.80|seed1|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+easy+slowdown-aware1.4+con1.5g1", 0xd67772ecba3f4d7a),
    ("rack-384gib|load0.80|seed2|fcfs+easy+pool-bf+con1.5g1", 0x69bf476e443c2649),
    ("rack-384gib|load0.80|seed2|fcfs+easy+slowdown-aware1.4+con1.5g1", 0x6ca18e6dcce0f292),
    ("rack-384gib|load0.80|seed2|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+easy+pool-bf+con1.5g1", 0x3f1d46c0a8007856),
    ("rack-384gib|load0.80|seed2|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+easy+slowdown-aware1.4+con1.5g1", 0x4d11a71d77599261),
];

/// Open-system cells too: the run-wide wait SLO (`slo3600`) predates this
/// work and was already hashed, and the new optional budget-factor
/// stamping writes nothing when unset — so even service cells keep their
/// pre-redesign keys.
const SMOKE_SERVICE_GOLDEN_CELLS: &[(&str, u64)] = &[
    ("no-pool|load0.80|seed1|fcfs+easy+local-only+sat1.5k3", 0xf78438cad0676df3),
    ("no-pool|load0.80|seed1|fcfs+easy+pool-ff+sat1.5k3", 0x2582b8a2e8186199),
    ("no-pool|load0.80|seed1|svc-htc-128-poisson-u0.85-j2000-w3600-slo3600|fcfs+easy+local-only+sat1.5k3", 0x953d30caf65f9233),
    ("no-pool|load0.80|seed1|svc-htc-128-poisson-u0.85-j2000-w3600-slo3600|fcfs+easy+pool-ff+sat1.5k3", 0x726cf622ae34615d),
    ("no-pool|load0.80|seed2|fcfs+easy+local-only+sat1.5k3", 0xb3478e545677e454),
    ("no-pool|load0.80|seed2|fcfs+easy+pool-ff+sat1.5k3", 0x39491907498b3c94),
    ("no-pool|load0.80|seed2|svc-htc-128-poisson-u0.85-j2000-w3600-slo3600|fcfs+easy+local-only+sat1.5k3", 0xafc7856759328a7d),
    ("no-pool|load0.80|seed2|svc-htc-128-poisson-u0.85-j2000-w3600-slo3600|fcfs+easy+pool-ff+sat1.5k3", 0x1dd738309bfec43d),
    ("rack-384gib|load0.80|seed1|fcfs+easy+local-only+sat1.5k3", 0x86215f88d9ee73c6),
    ("rack-384gib|load0.80|seed1|fcfs+easy+pool-ff+sat1.5k3", 0xc28ef2263ac8559a),
    ("rack-384gib|load0.80|seed1|svc-htc-128-poisson-u0.85-j2000-w3600-slo3600|fcfs+easy+local-only+sat1.5k3", 0xc56b747081e0e13c),
    ("rack-384gib|load0.80|seed1|svc-htc-128-poisson-u0.85-j2000-w3600-slo3600|fcfs+easy+pool-ff+sat1.5k3", 0xe5d4a112d3a9a890),
    ("rack-384gib|load0.80|seed2|fcfs+easy+local-only+sat1.5k3", 0x66c199bd834e1989),
    ("rack-384gib|load0.80|seed2|fcfs+easy+pool-ff+sat1.5k3", 0xf539de4a8647e8eb),
    ("rack-384gib|load0.80|seed2|svc-htc-128-poisson-u0.85-j2000-w3600-slo3600|fcfs+easy+local-only+sat1.5k3", 0x98e3c1bfa61ba1ce),
    ("rack-384gib|load0.80|seed2|svc-htc-128-poisson-u0.85-j2000-w3600-slo3600|fcfs+easy+pool-ff+sat1.5k3", 0xf62413adcc9912f8),
];

fn assert_cells_match(spec: &ExperimentSpec, golden: &[(&str, u64)]) {
    let hashes = spec.cell_hashes().expect("spec compiles");
    assert_eq!(hashes.len(), golden.len(), "{}: cell count", spec.name);
    for ((key, hash), (label, want)) in hashes.iter().zip(golden) {
        assert_eq!(key.label(), *label, "{}: cell order/labels", spec.name);
        assert_eq!(
            hash, want,
            "{}: cache key for {label} drifted — pre-SLO result caches would miss",
            spec.name
        );
    }
}

#[test]
fn smoke_cell_keys_match_pre_slo_goldens() {
    assert_cells_match(&experiments::smoke_spec().unwrap(), SMOKE_GOLDEN_CELLS);
}

#[test]
fn smoke_faults_cell_keys_match_pre_slo_goldens() {
    assert_cells_match(
        &experiments::smoke_faults_spec().unwrap(),
        SMOKE_FAULTS_GOLDEN_CELLS,
    );
}

#[test]
fn smoke_service_cell_keys_match_pre_slo_goldens() {
    assert_cells_match(
        &experiments::smoke_service_spec().unwrap(),
        SMOKE_SERVICE_GOLDEN_CELLS,
    );
}

/// The deadline grid, by contrast, must NOT collide with any pre-SLO key:
/// its cells hash in the budget-factor stamp and (for non-FCFS cells) a
/// different ordering, so a shared cache can never serve a deadline cell
/// from a deadline-free run or vice versa.
#[test]
fn smoke_deadline_cell_keys_are_disjoint_from_goldens() {
    let spec = experiments::smoke_deadline_spec().unwrap();
    let golden: Vec<u64> = SMOKE_GOLDEN_CELLS
        .iter()
        .chain(SMOKE_FAULTS_GOLDEN_CELLS)
        .chain(SMOKE_SERVICE_GOLDEN_CELLS)
        .map(|&(_, h)| h)
        .collect();
    for (key, hash) in spec.cell_hashes().unwrap() {
        assert!(
            !golden.contains(&hash),
            "deadline cell {} collides with a pre-SLO cache key",
            key.label()
        );
    }
}

/// The federation grid splits the same way the service grid does: its
/// no-fleet baseline half must keep the exact pre-federation smoke keys
/// (so a shared cache serves both grids), while every federated cell
/// must be disjoint from *all* pre-federation goldens — a cache can
/// never serve a fleet cell from a single-cluster run or vice versa.
#[test]
fn smoke_fleet_baseline_keeps_goldens_and_fleet_cells_are_disjoint() {
    let spec = experiments::smoke_fleet_spec().unwrap();
    let golden: Vec<u64> = SMOKE_GOLDEN_CELLS
        .iter()
        .chain(SMOKE_FAULTS_GOLDEN_CELLS)
        .chain(SMOKE_SERVICE_GOLDEN_CELLS)
        .map(|&(_, h)| h)
        .collect();
    let smoke: Vec<u64> = SMOKE_GOLDEN_CELLS.iter().map(|&(_, h)| h).collect();
    let mut baseline = 0;
    for (key, hash) in spec.cell_hashes().unwrap() {
        match &key.fleet {
            None => {
                baseline += 1;
                assert!(
                    smoke.contains(&hash),
                    "no-fleet cell {} must keep its pre-federation smoke key",
                    key.label()
                );
            }
            Some(label) => {
                assert_eq!(label, "fleet4-least-queue-e300");
                assert!(
                    !golden.contains(&hash),
                    "fleet cell {} collides with a pre-federation cache key",
                    key.label()
                );
            }
        }
    }
    assert_eq!(baseline, SMOKE_GOLDEN_CELLS.len());
}

/// Federated cells round-trip through the result cache like plain cells:
/// cold-run the fleet grid on two workers, warm-replay on one — zero
/// simulations, byte-identical exports. This pins cache replay of fleet
/// aggregates end to end through the grid runner. (The name predates the
/// single event heap.)
#[test]
fn smoke_fleet_warm_replay_is_byte_identical_across_backends() {
    let dir = std::env::temp_dir().join(format!("dmhpc-golden-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = experiments::smoke_fleet_spec().unwrap();

    let cold_runner = ExperimentRunner::with_threads(2).cache_dir(&dir).unwrap();
    let cold = cold_runner.run(&spec).unwrap();
    assert_eq!(cold.stats().simulated, cold.len(), "cold run simulates all");

    let warm_runner = ExperimentRunner::with_threads(1).cache_dir(&dir).unwrap();
    let warm = warm_runner.run(&spec).unwrap();
    assert_eq!(warm.stats().simulated, 0, "warm run is all cache hits");
    assert_eq!(cold.to_csv(), warm.to_csv(), "CSV replays byte-identically");
    assert_eq!(cold.to_json(), warm.to_json(), "JSON too");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cold-run the smoke grid into a cache on two workers, then warm-replay
/// it on one: zero simulations, and the exported CSV and JSON documents
/// are byte-identical. Worker count and replay must both be invisible in
/// results — including the new trailing `slo_attainment` column, which
/// stays empty for this SLO-free grid. (The name predates the single
/// event heap.)
#[test]
fn warm_replay_is_byte_identical_on_both_queue_backends() {
    let dir = std::env::temp_dir().join(format!("dmhpc-golden-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = experiments::smoke_spec().unwrap();

    let cold_runner = ExperimentRunner::with_threads(2).cache_dir(&dir).unwrap();
    let cold = cold_runner.run(&spec).unwrap();
    assert_eq!(cold.stats().simulated, cold.len(), "cold run simulates all");

    let warm_runner = ExperimentRunner::with_threads(1).cache_dir(&dir).unwrap();
    let warm = warm_runner.run(&spec).unwrap();
    assert_eq!(warm.stats().simulated, 0, "warm run is all cache hits");
    assert_eq!(warm.stats().cache_hits, cold.len());

    assert_eq!(cold.to_csv(), warm.to_csv(), "CSV replays byte-identically");
    assert_eq!(
        cold.to_json(),
        warm.to_json(),
        "JSON replays byte-identically"
    );
    // The SLO-free grid's new attainment column is present but empty.
    for line in cold.to_csv().trim_end().lines().skip(1) {
        assert!(line.ends_with(','));
    }
    assert!(!cold.to_json().contains("slo_attainment"));
    let _ = std::fs::remove_dir_all(&dir);
}
