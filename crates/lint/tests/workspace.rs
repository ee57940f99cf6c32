//! The lint gate: the real workspace must be clean, and seeded drift
//! must be caught.
//!
//! `workspace_is_lint_clean` is the same check CI runs via
//! `smart_lint --check`, so plain `cargo test` already fails on
//! layering, determinism, panic-freedom, or registry drift — including
//! a new experiment added to the registry without a snapshot section or
//! README catalogue row.

use smart_lint::rules::registry::{self, Paths};
use smart_lint::{lint_workspace, registry_entries, workspace};
use std::path::Path;

fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn workspace_is_lint_clean() {
    let findings = lint_workspace(root()).expect("workspace must be readable");
    assert!(
        findings.is_empty(),
        "{} lint finding(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_registry_rule_would_catch_a_missing_catalogue_row() {
    let registry = registry_entries();
    let snapshot =
        std::fs::read_to_string(root().join(smart_lint::SNAPSHOT_PATH)).expect("snapshot");
    let sections = workspace::snapshot_sections(&snapshot);
    let readme = std::fs::read_to_string(root().join("README.md")).expect("README");
    let mut catalogue = workspace::parse_catalogue(&readme);
    catalogue.retain(|row| row.name != "fig18");
    let paths = Paths {
        snapshot: smart_lint::SNAPSHOT_PATH.to_owned(),
        readme: "README.md".to_owned(),
    };
    let findings = registry::check(&registry, &sections, &catalogue, &paths);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].message.contains("`fig18`"),
        "{}",
        findings[0].message
    );
}

#[test]
fn the_layering_rule_would_catch_an_undocumented_edge() {
    let crates = workspace::scan_crates(root()).expect("manifests");
    let readme = std::fs::read_to_string(root().join("README.md")).expect("README");
    let mut map = workspace::parse_layer_map(&readme);
    for entry in &mut map {
        if entry.name == "smart-core" {
            // Pretend the README forgot core's compiler edge again (the
            // drift this rule was built to catch).
            entry.deps.retain(|d| d != "smart-compiler");
        }
    }
    let findings = smart_lint::rules::layering::check(&crates, &map, "README.md");
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("omits the real dependency `smart-core`")),
        "{findings:?}"
    );
}
