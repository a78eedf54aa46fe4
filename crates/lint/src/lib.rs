//! `dmhpc-lint`: the workspace's determinism & hash-discipline auditor.
//!
//! Every guarantee this repo sells — byte-identical warm-cache replays,
//! 1-vs-N-thread and closed-vs-open trace equality, hash-neutral
//! absence values for the fault/service/fleet/SLO axes — rests on
//! conventions that compilers do not check: no unordered iteration in
//! result-affecting paths, no wall clocks or ambient randomness, every
//! result-determining field folded into the cell hash, no panics in
//! library code. The golden-hash tests catch violations *after* they
//! corrupt a result; this crate catches them at the token level,
//! before.
//!
//! It is a dependency-free, hand-rolled tokenizer ([`lexer`]) plus a
//! rule engine — the same in-tree idiom as `metrics::json` and
//! `criterion-shim`. Rules are named and individually suppressible with
//! an audited grammar (see [`scan`]):
//!
//! | rule | what it flags |
//! |------|----------------|
//! | `unordered-iter`  | `HashMap`/`HashSet` in result-affecting code |
//! | `wall-clock`      | `Instant::now` / `SystemTime::now` |
//! | `thread-id`       | `thread::current()` identity |
//! | `ambient-rng`     | randomness that is not the seeded `Pcg64` |
//! | `panic`           | `unwrap()`/`expect()`/`panic!`/`todo!` in library code |
//! | `hash-field`      | a spec field missing from its digest fn ([`hashcheck`]) |
//! | `forbid-unsafe`   | a crate root without `#![forbid(unsafe_code)]` |
//! | `bare-suppression`   | an `allow` without a justification (not suppressible) |
//! | `unused-suppression` | an `allow` matching no finding (not suppressible) |
//!
//! Ships three ways: `cargo run -p dmhpc-lint` (file:line diagnostics,
//! non-zero exit on findings), the workspace integration test
//! `tests/lint.rs` (so plain `cargo test` enforces it), and a CI step.

#![forbid(unsafe_code)]

pub mod hashcheck;
pub mod lexer;
pub mod scan;

use hashcheck::HashPair;
use scan::ScannedFile;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// The named rules. Every finding carries one; every suppression names
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` in a result-affecting path: their iteration
    /// order is seeded per process, so anything downstream of it is
    /// nondeterministic. Use `BTreeMap`/`BTreeSet` or justify the use as
    /// a pure point lookup.
    UnorderedIter,
    /// `Instant::now()` / `SystemTime::now()`: wall clocks leak host
    /// timing into results.
    WallClock,
    /// `thread::current()`: thread identity varies run to run.
    ThreadId,
    /// Randomness that is not the workspace's seeded `Pcg64` streams
    /// (`RandomState`, `DefaultHasher`, `thread_rng`, ...).
    AmbientRng,
    /// `unwrap()`/`expect()`/`panic!`/`todo!` in library code outside
    /// tests: the workspace convention is fallible construction with
    /// typed errors; surviving panics are documented invariants.
    Panic,
    /// A field of a hash-relevant spec type not referenced in its digest
    /// function (see [`hashcheck`]).
    HashField,
    /// A crate root missing `#![forbid(unsafe_code)]` — the workspace is
    /// pure-safe and pinned so.
    ForbidUnsafe,
    /// A suppression without a justification, naming an unknown rule, or
    /// malformed. Not itself suppressible.
    BareSuppression,
    /// A suppression that matched no finding — stale annotations are
    /// misdocumentation. Not itself suppressible.
    UnusedSuppression,
}

impl Rule {
    /// The stable name used in diagnostics and `allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "unordered-iter",
            Rule::WallClock => "wall-clock",
            Rule::ThreadId => "thread-id",
            Rule::AmbientRng => "ambient-rng",
            Rule::Panic => "panic",
            Rule::HashField => "hash-field",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::BareSuppression => "bare-suppression",
            Rule::UnusedSuppression => "unused-suppression",
        }
    }

    /// Inverse of [`Rule::name`] over the suppressible rules.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "unordered-iter" => Some(Rule::UnorderedIter),
            "wall-clock" => Some(Rule::WallClock),
            "thread-id" => Some(Rule::ThreadId),
            "ambient-rng" => Some(Rule::AmbientRng),
            "panic" => Some(Rule::Panic),
            "hash-field" => Some(Rule::HashField),
            "forbid-unsafe" => Some(Rule::ForbidUnsafe),
            _ => None,
        }
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line (0 for configuration-level findings).
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// What to lint and how. [`Config::workspace`] is the repo's canonical
/// configuration; fixtures and tests build their own.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Directories (path prefixes) holding sources to scan at all.
    pub scan_dirs: Vec<String>,
    /// Path prefixes where the determinism rules (`unordered-iter`,
    /// `wall-clock`, `thread-id`, `ambient-rng`) apply — the
    /// result-affecting crates.
    pub determinism_paths: Vec<String>,
    /// Path prefixes where the `panic` rule applies — library code.
    pub panic_paths: Vec<String>,
    /// Crate-root files that must carry `#![forbid(unsafe_code)]`.
    pub crate_roots: Vec<String>,
    /// Registered (spec type, digest fn) obligations for `hash-field`.
    pub hash_pairs: Vec<HashPair>,
}

impl Config {
    /// The canonical workspace configuration.
    ///
    /// Scope choices, deliberately:
    /// * determinism rules cover every crate whose code can affect a
    ///   result or output ordering — `des`, `platform`, `sched`,
    ///   `workload`, `metrics`, and all of `sim` (engine, federation,
    ///   experiment, observe);
    /// * the `panic` rule covers the same plus the facade and this crate
    ///   itself (the lint holds itself to the convention);
    /// * `crates/bench` and `crates/criterion-shim` are bench harness
    ///   code — wall clocks and panics are their job — and are excluded.
    pub fn workspace() -> Config {
        let product = [
            "crates/des/src",
            "crates/metrics/src",
            "crates/platform/src",
            "crates/sched/src",
            "crates/workload/src",
            "crates/sim/src",
        ];
        let mut scan_dirs: Vec<String> = product.iter().map(|s| s.to_string()).collect();
        scan_dirs.push("src".to_string());
        scan_dirs.push("crates/lint/src".to_string());
        let mut panic_paths = scan_dirs.clone();
        panic_paths.sort();
        Config {
            scan_dirs,
            determinism_paths: product.iter().map(|s| s.to_string()).collect(),
            panic_paths,
            crate_roots: [
                "src/lib.rs",
                "crates/des/src/lib.rs",
                "crates/metrics/src/lib.rs",
                "crates/platform/src/lib.rs",
                "crates/sched/src/lib.rs",
                "crates/workload/src/lib.rs",
                "crates/sim/src/lib.rs",
                "crates/lint/src/lib.rs",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            hash_pairs: Self::workspace_hash_pairs(),
        }
    }

    /// Every hash-relevant spec type, paired with the digest function
    /// obliged to fold it. **Adding a result-determining axis or field?
    /// Register it here** — that is what turns "forgot to digest it"
    /// into a lint error instead of a cache-corruption incident.
    fn workspace_hash_pairs() -> Vec<HashPair> {
        [
            // The cell hash proper (crates/sim/src/experiment/cache.rs).
            ("FaultSpec", "cell_hash"),
            ("FaultGenerator", "cell_hash"),
            ("InterruptPolicy", "cell_hash"),
            ("FaultAction", "action_tag"),
            ("ServiceSpec", "cell_hash"),
            ("ServiceLoad", "cell_hash"),
            ("ArrivalProcess", "cell_hash"),
            ("FleetSpec", "cell_hash"),
            ("SiteSpec", "cell_hash"),
            // Shared sub-digests.
            ("ClusterSpec", "hash_cluster"),
            ("NodeSpec", "hash_cluster"),
            ("PoolTopology", "hash_cluster"),
            ("SchedulerConfig", "hash_scheduler"),
            ("OrderPolicy", "hash_scheduler"),
            ("BackfillPolicy", "hash_scheduler"),
            ("MemoryPolicy", "hash_scheduler"),
            ("SlowdownModel", "hash_scheduler"),
            ("AdmissionPolicy", "hash_scheduler"),
            ("PreemptPolicy", "hash_scheduler"),
            // The workload digest.
            ("Job", "workload_digest"),
            ("Slo", "workload_digest"),
            ("SloModel", "workload_digest"),
        ]
        .iter()
        .map(|(s, d)| HashPair::new(s, d))
        .collect()
    }

    fn path_in(path: &str, prefixes: &[String]) -> bool {
        prefixes
            .iter()
            .any(|p| p.is_empty() || path == p || path.starts_with(&format!("{p}/")))
    }
}

/// One source file handed to the engine. Paths are workspace-relative
/// with `/` separators; the text is held in memory so tests can lint
/// *edited* sources (e.g. to prove a deleted digest fold is caught).
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path.
    pub path: String,
    /// Full file contents.
    pub text: String,
}

/// Read every `.rs` file under the config's scan dirs.
pub fn collect_sources(root: &Path, cfg: &Config) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for dir in &cfg.scan_dirs {
        let mut stack = vec![root.join(dir)];
        while let Some(d) = stack.pop() {
            if !d.is_dir() {
                continue;
            }
            let mut entries: Vec<PathBuf> = std::fs::read_dir(&d)?
                .map(|e| e.map(|e| e.path()))
                .collect::<io::Result<_>>()?;
            entries.sort();
            for p in entries {
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|e| e == "rs") {
                    let rel = p
                        .strip_prefix(root)
                        .unwrap_or(&p)
                        .components()
                        .map(|c| c.as_os_str().to_string_lossy())
                        .collect::<Vec<_>>()
                        .join("/");
                    files.push(SourceFile {
                        path: rel,
                        text: std::fs::read_to_string(&p)?,
                    });
                }
            }
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Run every rule over the sources. Returns all surviving findings,
/// sorted by (path, line, rule) — deterministically, of course.
pub fn lint(files: &[SourceFile], cfg: &Config) -> Vec<Finding> {
    let mut scanned: Vec<ScannedFile> =
        files.iter().map(|f| scan::scan(&f.path, &f.text)).collect();
    let mut findings = Vec::new();
    for sf in &scanned {
        if Config::path_in(&sf.path, &cfg.determinism_paths) {
            determinism_rules(sf, &mut findings);
        }
        if Config::path_in(&sf.path, &cfg.panic_paths) {
            panic_rule(sf, &mut findings);
        }
        if cfg.crate_roots.contains(&sf.path) {
            forbid_unsafe_rule(sf, &mut findings);
        }
    }
    hashcheck::check(&scanned, &cfg.hash_pairs, &mut findings);
    resolve_suppressions(&mut scanned, findings)
}

/// Apply suppressions to raw findings and report suppression hygiene.
fn resolve_suppressions(scanned: &mut [ScannedFile], raw: Vec<Finding>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in raw {
        let mut suppressed = false;
        if let Some(sf) = scanned.iter_mut().find(|sf| sf.path == f.path) {
            for s in sf.suppressions.iter_mut() {
                if !s.malformed && s.target == f.line && s.rule == f.rule.name() {
                    s.used = true;
                    suppressed = s.justified;
                }
            }
        }
        if !suppressed {
            findings.push(f);
        }
    }
    for sf in scanned.iter() {
        let path = sf.path.as_str();
        for s in &sf.suppressions {
            if s.malformed {
                findings.push(Finding {
                    path: path.to_string(),
                    line: s.line,
                    rule: Rule::BareSuppression,
                    message: "malformed suppression — the grammar is \
                              `// lint: allow(<rule>) — <justification>`"
                        .to_string(),
                });
            } else if Rule::from_name(&s.rule).is_none() {
                findings.push(Finding {
                    path: path.to_string(),
                    line: s.line,
                    rule: Rule::BareSuppression,
                    message: format!("suppression names unknown rule `{}`", s.rule),
                });
            } else if !s.justified {
                findings.push(Finding {
                    path: path.to_string(),
                    line: s.line,
                    rule: Rule::BareSuppression,
                    message: format!(
                        "bare `allow({})` — a suppression must say *why*: \
                         `// lint: allow({}) — <justification>`",
                        s.rule, s.rule
                    ),
                });
            } else if !s.used {
                findings.push(Finding {
                    path: path.to_string(),
                    line: s.line,
                    rule: Rule::UnusedSuppression,
                    message: format!(
                        "`allow({})` matched no finding on line {} — remove the stale annotation",
                        s.rule, s.target
                    ),
                });
            }
        }
    }
    findings.sort();
    findings.dedup();
    findings
}

/// The token-pattern determinism rules.
fn determinism_rules(sf: &ScannedFile, findings: &mut Vec<Finding>) {
    let toks = &sf.tokens;
    let mut push = |line: u32, rule: Rule, message: String| {
        findings.push(Finding {
            path: sf.path.clone(),
            line,
            rule,
            message,
        });
    };
    for (i, t) in toks.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        let path_follows = toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'));
        match id {
            "HashMap" | "HashSet" => push(
                t.line,
                Rule::UnorderedIter,
                format!(
                    "`{id}` in a result-affecting path — iteration order is per-process \
                     random; use `BTree{}` or justify a pure point lookup",
                    &id[4..]
                ),
            ),
            "Instant" | "SystemTime"
                if path_follows && toks.get(i + 3).and_then(|n| n.ident()) == Some("now") =>
            {
                push(
                    t.line,
                    Rule::WallClock,
                    format!(
                        "`{id}::now()` leaks host wall-clock time into a result-affecting path"
                    ),
                )
            }
            "thread"
                if path_follows && toks.get(i + 3).and_then(|n| n.ident()) == Some("current") =>
            {
                push(
                    t.line,
                    Rule::ThreadId,
                    "`thread::current()` identity varies run to run".to_string(),
                )
            }
            "RandomState" | "DefaultHasher" | "thread_rng" | "from_entropy" | "getrandom" => push(
                t.line,
                Rule::AmbientRng,
                format!(
                    "`{id}` is ambient (per-process) randomness — use the seeded `Pcg64` streams"
                ),
            ),
            _ => {}
        }
    }
}

/// The panic-discipline rule.
fn panic_rule(sf: &ScannedFile, findings: &mut Vec<Finding>) {
    let toks = &sf.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        let flagged = match id {
            "unwrap" | "expect" => i > 0 && toks[i - 1].is_punct('.'),
            "panic" | "todo" | "unimplemented" => toks.get(i + 1).is_some_and(|n| n.is_punct('!')),
            _ => false,
        };
        if flagged {
            let call = match id {
                "unwrap" | "expect" => format!(".{id}()"),
                _ => format!("{id}!"),
            };
            findings.push(Finding {
                path: sf.path.clone(),
                line: t.line,
                rule: Rule::Panic,
                message: format!(
                    "`{call}` in library code — propagate a typed error, or document the \
                     invariant with `lint: allow(panic)`"
                ),
            });
        }
    }
}

/// The crate-root `#![forbid(unsafe_code)]` rule.
fn forbid_unsafe_rule(sf: &ScannedFile, findings: &mut Vec<Finding>) {
    let toks = &sf.tokens;
    let has = toks.windows(7).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].ident() == Some("forbid")
            && w[4].is_punct('(')
            && w[5].ident() == Some("unsafe_code")
            && w[6].is_punct(')')
    });
    if !has {
        findings.push(Finding {
            path: sf.path.clone(),
            line: 1,
            rule: Rule::ForbidUnsafe,
            message: "crate root lacks `#![forbid(unsafe_code)]` — the workspace is \
                      pure-safe and stays that way"
                .to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(path: &str, text: &str) -> Vec<Finding> {
        let cfg = Config {
            scan_dirs: vec![String::new()],
            determinism_paths: vec![String::new()],
            panic_paths: vec![String::new()],
            crate_roots: vec![],
            hash_pairs: vec![],
        };
        lint(
            &[SourceFile {
                path: path.to_string(),
                text: text.to_string(),
            }],
            &cfg,
        )
    }

    #[test]
    fn justified_allow_suppresses_and_is_used() {
        let f = one(
            "a.rs",
            "fn f() -> Option<u32> {\n    // lint: allow(unordered-iter) — point lookup only, never iterated\n    let m = std::collections::HashMap::from([(1u32, 2u32)]);\n    m.get(&1).copied()\n}\n",
        );
        assert_eq!(f, Vec::new());
    }

    #[test]
    fn bare_allow_reports_both_the_finding_and_the_bareness() {
        let f = one(
            "a.rs",
            "fn f() {\n    x.unwrap(); // lint: allow(panic)\n}\n",
        );
        let rules: Vec<Rule> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&Rule::Panic));
        assert!(rules.contains(&Rule::BareSuppression));
    }

    #[test]
    fn unused_allow_is_flagged() {
        let f = one(
            "a.rs",
            "// lint: allow(panic) — it cannot fail\nfn f() -> u32 {\n    1\n}\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnusedSuppression);
    }

    #[test]
    fn findings_are_sorted_and_deduped() {
        let f = one(
            "a.rs",
            "use std::collections::{HashMap, HashSet};\nfn g() { x.unwrap(); }\n",
        );
        let mut sorted = f.clone();
        sorted.sort();
        assert_eq!(f, sorted);
        assert_eq!(f.len(), 3);
    }
}
