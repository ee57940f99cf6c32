//! Rule `determinism`: no nondeterminism sources in result-feeding code.
//!
//! Golden snapshots, `bench_check`, and the persisted warm-start stores
//! all assume byte-identical output across runs, machines, and
//! `--jobs` values. Three constructs break that silently:
//!
//! * **wall-clock reads** — `Instant` / `SystemTime` values differ every
//!   run; elapsed-time reporting is welcome on *stderr* but must never
//!   reach stdout, `--json`, or store bytes (justify the stderr-only
//!   usage with `lint:allow(determinism, …)`);
//! * **environment reads** — `std::env` makes output depend on ambient
//!   state (the one legitimate reader, the shared CLI parser, carries a
//!   justification);
//! * **`HashMap` in snapshot-feeding modules** — iteration order is
//!   randomized across builds, so any map whose contents reach rendered
//!   tables or store bytes must be a `BTreeMap` or carry a justification
//!   explaining why its iteration order is never observed.
//!
//! Imports are exempt (a `use` line observes nothing); the usage sites
//! they enable are what gets flagged.
//!
//! A module is *snapshot-feeding* when it mentions any of the
//! [`FEEDING_MARKERS`] identifiers outside test code — the types and
//! methods through which bytes reach a `ResultTable`, the golden
//! snapshot, or a persisted store.

// lint:allow-file(index, token-stream scanning is positional; every index is guarded by the bounds check beside it)

use crate::allow::{allowed, Allow};
use crate::lexer::{Lexed, TokenKind};
use crate::rules::Finding;

/// Identifiers marking a module as snapshot-feeding: serialization
/// writers and result-table builders.
pub const FEEDING_MARKERS: &[&str] = &["ByteWriter", "ResultTable", "push_row", "to_bytes"];

/// Whether `lx` is a snapshot-feeding module (sees [`FEEDING_MARKERS`]).
#[must_use]
pub fn is_snapshot_feeding(lx: &Lexed) -> bool {
    FEEDING_MARKERS.iter().any(|m| lx.has_ident(m))
}

/// Runs the determinism rule over one lexed file.
#[must_use]
pub fn check(file: &str, lx: &Lexed, allows: &[Allow], snapshot_feeding: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut push = |line: u32, message: String| {
        if !allowed(allows, "determinism", line) {
            findings.push(Finding {
                file: file.to_owned(),
                line,
                rule: "determinism",
                message,
            });
        }
    };
    let tokens = &lx.tokens;
    // Inside a `use …;` item: an import alone observes nothing, so only
    // usage sites are findings (`use` is a keyword, so a bare `use`
    // ident can only open an import).
    let mut in_use = false;
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if t.kind == TokenKind::Punct(';') {
            in_use = false;
            continue;
        }
        let TokenKind::Ident(name) = &t.kind else {
            continue;
        };
        if name == "use" {
            in_use = true;
            continue;
        }
        if in_use {
            continue;
        }
        match name.as_str() {
            "Instant" | "SystemTime" => push(
                t.line,
                format!(
                    "wall-clock read `{name}` in non-test code; keep timing on stderr and \
                     justify with lint:allow(determinism, …)"
                ),
            ),
            "env" => {
                // The path `std::env` (tokens: std : : env).
                let is_std = i >= 3
                    && matches!(&tokens[i - 3].kind, TokenKind::Ident(s) if s == "std")
                    && tokens[i - 2].kind == TokenKind::Punct(':')
                    && tokens[i - 1].kind == TokenKind::Punct(':');
                if is_std {
                    push(
                        t.line,
                        "environment read `std::env` in non-test code makes output depend on \
                         ambient state"
                            .to_owned(),
                    );
                }
            }
            "HashMap" if snapshot_feeding => push(
                t.line,
                "`HashMap` in a snapshot-feeding module: iteration order is nondeterministic; \
                 use BTreeMap or justify that its order is never observed"
                    .to_owned(),
            ),
            _ => {}
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allow::parse_allows;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        let lx = lex(src);
        let (allows, _) = parse_allows(&lx.comments);
        let feeding = is_snapshot_feeding(&lx);
        check("x.rs", &lx, &allows, feeding)
    }

    #[test]
    fn instant_in_result_code_is_flagged() {
        let f = run("fn f() { let t = Instant::now(); }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("Instant"), "{}", f[0].message);
    }

    #[test]
    fn justified_stderr_timing_passes() {
        let f = run(
            "// lint:allow(determinism, stderr-only timing, never in stdout bytes)\n\
             fn f() { let t = Instant::now(); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn std_env_reads_are_flagged_but_other_envs_are_not() {
        assert_eq!(run("fn f() { std::env::args(); }").len(), 1);
        // An `env!` macro or a local named env is not std::env.
        assert!(run("fn f() { let dir = env!(\"CARGO_MANIFEST_DIR\"); }").is_empty());
        assert!(run("fn f(env: u32) { use_it(env); }").is_empty());
    }

    #[test]
    fn hashmap_is_only_flagged_in_snapshot_feeding_modules() {
        // No feeding marker: HashMap is fine.
        assert!(run("fn f() { let m: HashMap<u32, u32> = HashMap::new(); }").is_empty());
        // With a marker in the module, every HashMap mention needs a reason.
        let f = run(
            "fn g(w: &mut ByteWriter) {} fn f() { let m: HashMap<u32, u32> = HashMap::new(); }",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        // BTreeMap never is.
        assert!(run(
            "fn g(w: &mut ByteWriter) {} fn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }"
        )
        .is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let f = run("fn g(t: &ResultTable) {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { let d = std::env::temp_dir(); let i = Instant::now(); }\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn imports_are_exempt_but_usage_is_not() {
        let f = run("use std::time::Instant;\nuse std::collections::HashMap;\nfn f() {}");
        assert!(f.is_empty(), "{f:?}");
        let f = run("use std::time::Instant;\nfn f() { let t = Instant::now(); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn instant_inside_strings_is_invisible() {
        assert!(run(r#"fn f() { let s = "Instant::now and std::env"; }"#).is_empty());
    }
}
