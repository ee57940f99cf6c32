//! `smart-lint`: workspace static analysis for the SMART reproduction.
//!
//! A dev-layer tool (nothing in the product graph may depend on it)
//! that enforces the four repository-wide contracts the compiler
//! cannot:
//!
//! * **layering** ([`rules::layering`]) — the crate DAG rebuilt from
//!   every `Cargo.toml` must be acyclic, match the README layer map
//!   edge for edge, and respect strictly-downward layer numbering;
//! * **determinism** ([`rules::determinism`]) — no wall-clock or
//!   environment reads, and no `HashMap` iteration, in code feeding
//!   `ResultTable`s, golden snapshots, or persisted-store bytes;
//! * **panic-freedom** ([`rules::panic_freedom`]) — no unjustified
//!   `unwrap`/`expect`/`panic!` family calls or unchecked indexing in
//!   non-test library code;
//! * **registry coherence** ([`rules::registry`]) — the golden snapshot
//!   sections and the README catalogue both agree with the
//!   `ExperimentDescriptor` table.
//!
//! Findings are suppressed only by a written justification
//! (`// lint:allow(rule, reason)`, see [`allow`]); a malformed or
//! reason-less justification is itself a finding. The scanner is a
//! hand-rolled lexer ([`lexer`]) rather than regexes so that raw
//! strings, nested block comments, lifetimes, and `#[cfg(test)]`
//! regions are classified correctly — see the adversarial tests there.

pub mod allow;
pub mod lexer;
pub mod rules;
pub mod workspace;

pub use rules::{Finding, RULES};

use rules::registry::{Paths, RegistryEntry};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// The experiment registry as the lint sees it, straight from
/// `smart_bench`'s descriptor table (so the lint can never drift from
/// the thing it checks others against).
#[must_use]
pub fn registry_entries() -> Vec<RegistryEntry> {
    smart_bench::registry::REGISTRY
        .iter()
        .map(|d| RegistryEntry {
            name: d.name.to_owned(),
            tag: d.group.tag().to_owned(),
            figure: d.figure.to_owned(),
        })
        .collect()
}

/// Repo-relative path of the golden snapshot the registry rule checks.
pub const SNAPSHOT_PATH: &str = "tests/snapshots/all_experiments.txt";

/// What one lint pass over a workspace found.
#[derive(Debug, Default)]
pub struct Lint {
    /// Every finding, sorted by file, line, and rule.
    pub findings: Vec<Finding>,
    /// How many well-formed `lint:allow` justifications the pass parsed,
    /// by whether they are file-wide, then by rule.
    pub allows: BTreeMap<(bool, String), usize>,
}

/// Lints the workspace rooted at `root`.
///
/// # Errors
///
/// Returns the underlying [`io::Error`] when a manifest, source file,
/// the README, or the golden snapshot cannot be read — a lint that
/// cannot see the workspace must fail loudly, not report a clean run.
pub fn lint_workspace(root: &Path) -> io::Result<Lint> {
    let mut findings = Vec::new();
    let mut counts = BTreeMap::new();

    // Layering: real crate graph vs the README layer map.
    let crates = workspace::scan_crates(root)?;
    let readme = fs::read_to_string(root.join("README.md"))?;
    let map = workspace::parse_layer_map(&readme);
    findings.extend(rules::layering::check(&crates, &map, "README.md"));

    // Per-file rules.
    for file in workspace::source_files(root)? {
        let src = fs::read_to_string(&file.path)?;
        let lx = lexer::lex(&src);
        let (allows, bad) = allow::parse_allows(&lx.comments);
        for a in &allows {
            *counts.entry((a.file_wide, a.rule.clone())).or_insert(0) += 1;
        }
        for b in bad {
            findings.push(Finding {
                file: file.rel.clone(),
                line: b.line,
                rule: "allow",
                message: b.message,
            });
        }
        let feeding = rules::determinism::is_snapshot_feeding(&lx);
        findings.extend(rules::determinism::check(&file.rel, &lx, &allows, feeding));
        if file.kind == workspace::FileKind::Lib {
            findings.extend(rules::panic_freedom::check(&file.rel, &lx, &allows));
        }
    }

    // Registry coherence across snapshot and README.
    let registry = registry_entries();
    let snapshot = fs::read_to_string(root.join(SNAPSHOT_PATH))?;
    let sections = workspace::snapshot_sections(&snapshot);
    let catalogue = workspace::parse_catalogue(&readme);
    let paths = Paths {
        snapshot: SNAPSHOT_PATH.to_owned(),
        readme: "README.md".to_owned(),
    };
    findings.extend(rules::registry::check(
        &registry, &sections, &catalogue, &paths,
    ));

    findings.sort();
    Ok(Lint {
        findings,
        allows: counts,
    })
}
