//! Reading the real workspace: manifests, source files, README blocks,
//! snapshot sections.
//!
//! Everything here produces the plain data structures the rule modules
//! consume, so the rules stay testable on seeded inputs. The parsers
//! are deliberately narrow: they understand exactly the conventions
//! this repository uses (section-per-line `Cargo.toml`s, the fenced
//! `## Workspace layout` map, the fenced `### Experiment catalogue`)
//! and nothing more.

use crate::rules::layering::{CrateInfo, LayerEntry};
use crate::rules::registry::CatalogueEntry;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// How a source file is linted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: all rules apply.
    Lib,
    /// A binary under `src/bin/`: determinism applies (its stdout may
    /// be snapshot bytes) but panic-freedom does not (a binary owns its
    /// process).
    Bin,
}

/// One source file of the workspace.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub rel: String,
    /// Absolute path to read.
    pub path: PathBuf,
    /// Lib or bin.
    pub kind: FileKind,
}

/// Parses every workspace crate manifest: the root package plus each
/// `crates/*` member (the `vendor/` shims are third-party API stands-in
/// and exempt).
pub fn scan_crates(root: &Path) -> io::Result<Vec<CrateInfo>> {
    let mut out = Vec::new();
    let text = fs::read_to_string(root.join("Cargo.toml"))?;
    if let Some(info) = parse_manifest(&text, "Cargo.toml") {
        out.push(info);
    }
    for dir in sorted_dirs(&root.join("crates"))? {
        let manifest = dir.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let rel = format!(
            "crates/{}/Cargo.toml",
            dir.file_name().unwrap_or_default().to_string_lossy()
        );
        let text = fs::read_to_string(&manifest)?;
        if let Some(info) = parse_manifest(&text, &rel) {
            out.push(info);
        }
    }
    Ok(out)
}

/// Parses one `Cargo.toml`: package name plus every `smart-*` key under
/// `[dependencies]` / `[dev-dependencies]`. Returns `None` for
/// manifests with no `[package]` section.
#[must_use]
pub fn parse_manifest(text: &str, rel: &str) -> Option<CrateInfo> {
    let mut section = String::new();
    let mut name: Option<String> = None;
    let mut deps = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(head) = line.strip_prefix('[') {
            section = head.trim_end_matches(']').to_owned();
            continue;
        }
        if section == "package" {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    name = Some(v.trim().trim_matches('"').to_owned());
                }
            }
        }
        if section == "dependencies" || section == "dev-dependencies" {
            let key: String = line
                .chars()
                .take_while(|c| !c.is_whitespace() && *c != '.' && *c != '=')
                .collect();
            if key.starts_with("smart-") && !deps.contains(&key) {
                deps.push(key);
            }
        }
    }
    deps.sort();
    Some(CrateInfo {
        name: name?,
        manifest: rel.to_owned(),
        deps,
    })
}

/// Every lintable `.rs` file: `src/` trees of the root package and each
/// `crates/*` member, sorted by path. Integration tests (`tests/`),
/// benches, and the vendored shims are out of scope by construction.
pub fn source_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    walk_src(&root.join("src"), "src", &mut out)?;
    for dir in sorted_dirs(&root.join("crates"))? {
        let src = dir.join("src");
        if src.is_dir() {
            let rel = format!(
                "crates/{}/src",
                dir.file_name().unwrap_or_default().to_string_lossy()
            );
            walk_src(&src, &rel, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn walk_src(dir: &Path, rel: &str, out: &mut Vec<SourceFile>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        let child_rel = format!("{rel}/{name}");
        if path.is_dir() {
            walk_src(&path, &child_rel, out)?;
        } else if name.ends_with(".rs") {
            let kind = if child_rel.contains("/bin/") {
                FileKind::Bin
            } else {
                FileKind::Lib
            };
            out.push(SourceFile {
                rel: child_rel,
                path,
                kind,
            });
        }
    }
    Ok(())
}

fn sorted_dirs(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    out.sort();
    Ok(out)
}

/// The fenced ```text block following `heading`, with the 1-based line
/// number of each content line.
fn fenced_block<'a>(text: &'a str, heading: &str) -> Vec<(u32, &'a str)> {
    let mut out = Vec::new();
    let mut seen_heading = false;
    let mut in_block = false;
    for (i, line) in text.lines().enumerate() {
        let lineno = u32::try_from(i).unwrap_or(u32::MAX).saturating_add(1);
        if !seen_heading {
            seen_heading = line.trim() == heading;
            continue;
        }
        if !in_block {
            if line.trim_start().starts_with("```") {
                in_block = true;
            }
            continue;
        }
        if line.trim_start().starts_with("```") {
            break;
        }
        out.push((lineno, line));
    }
    out
}

/// Parses the README's `## Workspace layout` fenced map into
/// [`LayerEntry`] values. Lines look like
///
/// ```text
/// layer 2   smart-josim    ← sfq            (transient circuit simulator)
///           smart-cryomem  ← sfq            (cryogenic memory models)
/// dev       smart-lint     ← bench          (workspace lints)
/// ```
///
/// — a `layer N` / `dev` prefix opens a layer, indented lines continue
/// it, `←` introduces the dependency list (cut at `(` or `—`), and bare
/// dependency names get the `smart-` prefix.
#[must_use]
pub fn parse_layer_map(readme: &str) -> Vec<LayerEntry> {
    let mut out = Vec::new();
    let mut layer: Option<Option<u32>> = None;
    for (lineno, raw) in fenced_block(readme, "## Workspace layout") {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let rest = if let Some(r) = line.strip_prefix("layer") {
            let r = r.trim_start();
            let digits: String = r.chars().take_while(char::is_ascii_digit).collect();
            let Ok(n) = digits.parse::<u32>() else {
                continue;
            };
            layer = Some(Some(n));
            r.trim_start_matches(|c: char| c.is_ascii_digit())
                .trim_start()
        } else if let Some(r) = line.strip_prefix("dev") {
            layer = Some(None);
            r.trim_start()
        } else {
            line
        };
        let Some(current) = layer else {
            continue;
        };
        let Some(name) = rest.split_whitespace().next() else {
            continue;
        };
        if name != "smart" && !name.starts_with("smart-") {
            continue;
        }
        let mut deps = Vec::new();
        if let Some((_, tail)) = rest.split_once('←') {
            let tail = tail.split('(').next().unwrap_or(tail);
            let tail = tail.split('—').next().unwrap_or(tail);
            for dep in tail.split(',') {
                let dep = dep.trim();
                if dep.is_empty() {
                    continue;
                }
                if dep == "smart" || dep.starts_with("smart-") {
                    deps.push(dep.to_owned());
                } else {
                    deps.push(format!("smart-{dep}"));
                }
            }
        }
        deps.sort();
        out.push(LayerEntry {
            name: name.to_owned(),
            layer: current,
            deps,
            line: lineno,
        });
    }
    out
}

/// Parses the README's `### Experiment catalogue` fenced block: the
/// `--list` columns `name  tag  figure`.
#[must_use]
pub fn parse_catalogue(readme: &str) -> Vec<CatalogueEntry> {
    let mut out = Vec::new();
    for (lineno, raw) in fenced_block(readme, "### Experiment catalogue") {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let Some((name, rest)) = line.split_once(char::is_whitespace) else {
            continue;
        };
        let rest = rest.trim_start();
        let (tag, figure) = match rest.split_once(char::is_whitespace) {
            Some((t, f)) => (t, f.trim_start()),
            None => (rest, ""),
        };
        out.push(CatalogueEntry {
            name: name.to_owned(),
            tag: tag.to_owned(),
            figure: figure.to_owned(),
            line: lineno,
        });
    }
    out
}

/// The `==== name ====` section headers of a golden snapshot, in file
/// order.
#[must_use]
pub fn snapshot_sections(snapshot: &str) -> Vec<String> {
    snapshot
        .lines()
        .filter_map(|l| {
            l.strip_prefix("==== ")
                .and_then(|r| r.strip_suffix(" ===="))
                .map(str::to_owned)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifests_parse_name_and_smart_deps() {
        let toml = "[package]\nname = \"smart-spm\"\n\n[dependencies]\n\
                    smart-sfq.workspace = true\nsmart-units.workspace = true\n\
                    proptest.workspace = true\n\n[dev-dependencies]\n\
                    smart-cryomem = { workspace = true }\n";
        let info = parse_manifest(toml, "crates/spm/Cargo.toml").expect("package section");
        assert_eq!(info.name, "smart-spm");
        assert_eq!(info.deps, ["smart-cryomem", "smart-sfq", "smart-units"]);
    }

    #[test]
    fn workspace_dependency_tables_are_not_package_deps() {
        let toml = "[workspace.dependencies]\nsmart-sfq = { path = \"x\" }\n\n\
                    [package]\nname = \"smart\"\n";
        let info = parse_manifest(toml, "Cargo.toml").expect("package section");
        assert!(info.deps.is_empty(), "{:?}", info.deps);
    }

    #[test]
    fn layer_map_lines_parse_layers_continuations_and_deps() {
        let readme = "intro\n\n## Workspace layout\n\nblah\n\n```text\n\
                      layer 0   smart-units    — depends on nothing\n\
                      layer 2   smart-josim    ← sfq            (transient sim)\n\
                                smart-cryomem  ← sfq — memory models\n\
                      dev       smart-lint     ← bench\n\
                      ```\n";
        let map = parse_layer_map(readme);
        assert_eq!(map.len(), 4, "{map:?}");
        assert_eq!(map[0].name, "smart-units");
        assert_eq!(map[0].layer, Some(0));
        assert!(map[0].deps.is_empty());
        assert_eq!(map[1].deps, ["smart-sfq"]);
        assert_eq!(map[2].layer, Some(2), "continuation keeps the layer");
        assert_eq!(map[2].deps, ["smart-sfq"], "deps cut at the em dash");
        assert_eq!(map[3].layer, None, "dev layer has no number");
        assert_eq!(map[3].deps, ["smart-bench"]);
        assert_eq!(map[1].line, 9, "1-based README lines");
    }

    #[test]
    fn catalogue_lines_split_into_three_columns() {
        let readme = "## X\n\n### Experiment catalogue\n\n```text\n\
                      fig18                    paper     Figure 18\n\
                      timing_stall_breakdown   timing    -\n\
                      ```\n";
        let cat = parse_catalogue(readme);
        assert_eq!(cat.len(), 2);
        assert_eq!(
            (
                cat[0].name.as_str(),
                cat[0].tag.as_str(),
                cat[0].figure.as_str()
            ),
            ("fig18", "paper", "Figure 18")
        );
        assert_eq!(cat[1].figure, "-");
    }

    #[test]
    fn snapshot_headers_parse_in_order() {
        let s = "==== fig02 ====\nrows\n==== table1 ====\nmore\n";
        assert_eq!(snapshot_sections(s), ["fig02", "table1"]);
    }
}
