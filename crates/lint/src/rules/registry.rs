//! Rule `registry`: every view of the experiment catalogue agrees.
//!
//! The `ExperimentDescriptor` table in `smart-bench` is the single
//! source of truth, but two other artifacts mirror it and can drift
//! silently: the `==== name ====` section headers of the golden
//! snapshot, and the README's experiment catalogue. This rule
//! cross-checks both:
//!
//! * the snapshot sections are exactly the registry names, in registry
//!   order (the snapshot is regenerated in that order, so any deviation
//!   means a stale or hand-edited golden file);
//! * the README catalogue lists exactly the registry entries, in order,
//!   with matching group tags and figure labels.

use crate::rules::Finding;

/// One registry descriptor, as seen by the lint (name, tag, figure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry {
    /// Dispatch name (`fig18`, `serving_saturation`, …).
    pub name: String,
    /// Group tag (`paper`, `timing`, …).
    pub tag: String,
    /// Paper artifact label (`Figure 18`, `-`, …).
    pub figure: String,
}

/// One line of the README experiment catalogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogueEntry {
    /// Experiment name.
    pub name: String,
    /// Group tag.
    pub tag: String,
    /// Figure label (rest of the line).
    pub figure: String,
    /// 1-based README line.
    pub line: u32,
}

/// The non-registry artifact paths, for findings.
#[derive(Debug, Clone)]
pub struct Paths {
    /// The golden snapshot file.
    pub snapshot: String,
    /// The README.
    pub readme: String,
}

/// Runs the registry rule over the three catalogue views.
#[must_use]
pub fn check(
    registry: &[RegistryEntry],
    snapshot_sections: &[String],
    catalogue: &[CatalogueEntry],
    paths: &Paths,
) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Snapshot sections: exactly the registry names, in order.
    let names: Vec<&str> = registry.iter().map(|e| e.name.as_str()).collect();
    let sections: Vec<&str> = snapshot_sections.iter().map(String::as_str).collect();
    findings.extend(ordered_diff(
        &names,
        &sections,
        &paths.snapshot,
        "snapshot section",
    ));

    // README catalogue: same names in order, then per-entry fields.
    let listed: Vec<&str> = catalogue.iter().map(|c| c.name.as_str()).collect();
    findings.extend(ordered_diff(
        &names,
        &listed,
        &paths.readme,
        "README catalogue entry",
    ));
    for c in catalogue {
        let Some(e) = registry.iter().find(|e| e.name == c.name) else {
            continue; // already reported by the ordered diff
        };
        if c.tag != e.tag {
            findings.push(Finding {
                file: paths.readme.clone(),
                line: c.line,
                rule: "registry",
                message: format!(
                    "catalogue tags `{}` as `{}` but the registry says `{}`",
                    c.name, c.tag, e.tag
                ),
            });
        }
        if c.figure != e.figure {
            findings.push(Finding {
                file: paths.readme.clone(),
                line: c.line,
                rule: "registry",
                message: format!(
                    "catalogue labels `{}` as `{}` but the registry says `{}`",
                    c.name, c.figure, e.figure
                ),
            });
        }
    }
    findings
}

/// Compares `actual` against the `expected` registry order: reports
/// missing entries, unknown entries, and (when the sets agree) the
/// first out-of-order position.
fn ordered_diff(expected: &[&str], actual: &[&str], file: &str, what: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for name in expected {
        if !actual.contains(name) {
            findings.push(Finding {
                file: file.to_owned(),
                line: 0,
                rule: "registry",
                message: format!("missing {what} for experiment `{name}`"),
            });
        }
    }
    for name in actual {
        if !expected.contains(name) {
            findings.push(Finding {
                file: file.to_owned(),
                line: 0,
                rule: "registry",
                message: format!("{what} `{name}` does not exist in the registry"),
            });
        }
    }
    if findings.is_empty() {
        if let Some(pos) = expected.iter().zip(actual).position(|(e, a)| e != a) {
            // lint:allow(index, pos comes from position() over zip of these same slices)
            let (got, want) = (&actual[pos], &expected[pos]);
            findings.push(Finding {
                file: file.to_owned(),
                line: 0,
                rule: "registry",
                message: format!(
                    "{what}s are out of registry order: position {pos} holds `{got}`, \
                     expected `{want}`"
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, tag: &str, figure: &str) -> RegistryEntry {
        RegistryEntry {
            name: name.to_owned(),
            tag: tag.to_owned(),
            figure: figure.to_owned(),
        }
    }

    fn paths() -> Paths {
        Paths {
            snapshot: "crates/bench/tests/snapshots/all_experiments.txt".to_owned(),
            readme: "README.md".to_owned(),
        }
    }

    fn world() -> (Vec<RegistryEntry>, Vec<String>, Vec<CatalogueEntry>) {
        let registry = vec![
            entry("fig18", "paper", "Figure 18"),
            entry("timing_stall_breakdown", "timing", "-"),
        ];
        let sections = vec!["fig18".to_owned(), "timing_stall_breakdown".to_owned()];
        let catalogue = registry
            .iter()
            .enumerate()
            .map(|(i, e)| CatalogueEntry {
                name: e.name.clone(),
                tag: e.tag.clone(),
                figure: e.figure.clone(),
                line: 100 + u32::try_from(i).unwrap_or(0),
            })
            .collect();
        (registry, sections, catalogue)
    }

    #[test]
    fn a_coherent_catalogue_is_clean() {
        let (registry, sections, catalogue) = world();
        let f = check(&registry, &sections, &catalogue, &paths());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn snapshot_drift_is_flagged() {
        let (registry, mut sections, catalogue) = world();
        sections.swap(0, 1);
        let f = check(&registry, &sections, &catalogue, &paths());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("out of registry order"),
            "{}",
            f[0].message
        );

        let (registry, mut sections, catalogue) = world();
        sections.pop();
        let f = check(&registry, &sections, &catalogue, &paths());
        assert!(
            f.iter()
                .any(|x| x.message.contains("missing snapshot section")),
            "{f:?}"
        );
    }

    #[test]
    fn catalogue_field_drift_is_flagged() {
        let (registry, sections, mut catalogue) = world();
        catalogue[0].tag = "circuit".to_owned();
        catalogue[1].figure = "Figure 7".to_owned();
        let f = check(&registry, &sections, &catalogue, &paths());
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("tags"), "{}", f[0].message);
        assert!(f[1].message.contains("labels"), "{}", f[1].message);
    }
}
