//! The benchmark's own tests: tiny runs of every workload must emit every
//! metric `BENCHMARK.json` names, and a wrong pinned hash must count as a
//! failed run.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "closed_easy",
    "open_deadline",
    "closed_conservative_faults",
    "fleet_epochs",
];

fn manifest() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark")
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names(manifest: &str, key: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let rest = &manifest[start..];
    let body = &rest[..rest.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("name value") + 1..];
            s[..s.find('"').expect("name ends")].to_string()
        })
        .collect()
}

struct Outcome {
    last_line: String,
    stderr: String,
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.05"])
        .args([
            "--trace",
            &trace.to_string(),
            "--jobs",
            "40",
            "--replicas",
            "2",
        ])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
    assert!(out.status.success(), "{workload} failed:\n{stderr}");
    Outcome {
        last_line: stdout.lines().last().expect("a result line").to_string(),
        stderr,
    }
}

/// The value of metric `name` in a result line.
fn metric(line: &str, name: &str) -> f64 {
    let at = line
        .find(&format!("\"{name}\": {{\"value\": "))
        .unwrap_or_else(|| panic!("metric {name} missing from {line}"));
    let rest = &line[at + name.len() + 14..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .expect("numeric value")
}

#[test]
fn every_workload_emits_every_named_metric() {
    let manifest = manifest();
    for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
        let wanted = names(&manifest, key);
        assert!(!wanted.is_empty(), "{key} lists metrics");
        for w in WORKLOADS {
            let line = run(w, trace, &[]).last_line;
            assert!(line.starts_with("{\"correct\": true, "), "{w}: {line}");
            for name in &wanted {
                assert!(metric(&line, name).is_finite(), "{w}: {name}");
            }
            assert_eq!(
                line.matches("\"unit\"").count(),
                wanted.len(),
                "{w} emits exactly the {key} metrics"
            );
        }
    }
}

fn pin_file(name: &str, line: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, format!("{line}\n")).expect("pin file written");
    path
}

#[test]
fn wrong_pinned_hash_raises_fail_frac() {
    // Learn the real hash at this size, then pin it and a wrong one.
    let first = run("closed_easy", 1, &[]);
    let hash = first
        .stderr
        .lines()
        .find_map(|l| l.strip_prefix("perfbench: trace hash "))
        .expect("hash reported")
        .to_string();
    let right = pin_file("right.pins", &format!("closed_easy 40 2 3 {hash}"));
    let line = run(
        "closed_easy",
        1,
        &["--pins", right.to_str().expect("utf-8 path")],
    )
    .last_line;
    assert_eq!(metric(&line, "fail_frac"), 0.0, "{line}");

    let wrong = pin_file("wrong.pins", "closed_easy 40 2 3 0000000000000001");
    for trace in [0, 1] {
        let line = run(
            "closed_easy",
            trace,
            &["--pins", wrong.to_str().expect("utf-8 path")],
        )
        .last_line;
        assert!(line.starts_with("{\"correct\": false, "), "{line}");
        if trace == 1 {
            assert!(metric(&line, "fail_frac") > 0.0, "{line}");
        }
    }
}
