//! `smart_lint` — run the workspace lints and report findings.
//!
//! ```text
//! smart_lint                 lint the workspace, text findings
//! smart_lint --check         same; CI spelling of "fail on findings"
//! smart_lint --json          machine-readable findings
//! smart_lint --filter RULE   only findings whose rule contains RULE
//! smart_lint --list          the rules and what they enforce
//! smart_lint --root DIR      lint a different workspace root
//! ```
//!
//! Exits `0` when every rule passes (or every finding is justified with
//! a written `lint:allow`), `1` when findings remain, `2` on usage
//! errors — the same contract as the `smart-bench` drivers.

use smart_bench::cli::{CliSpec, ExtraFlag, Format};
use smart_lint::{lint_workspace, Finding, RULES};
use std::path::Path;
use std::process::ExitCode;

const SPEC: CliSpec = CliSpec {
    bin: "smart_lint",
    about: "workspace static analysis: layering, determinism, panic-freedom, registry coherence",
    extras: &[ExtraFlag {
        flag: "--root",
        value: Some("DIR"),
        help: "workspace root to lint (default: this checkout)",
    }],
    positional: None,
};

/// One-line description per rule, for `--list`.
const RULE_HELP: &[(&str, &str)] = &[
    (
        "layering",
        "crate DAG is acyclic and matches the README layer map",
    ),
    (
        "determinism",
        "no clock/env reads or HashMap order in result-feeding code",
    ),
    (
        "panic_freedom",
        "no unjustified unwrap/expect/panic! in library code",
    ),
    (
        "index",
        "no unjustified slice indexing in library code (per file)",
    ),
    (
        "registry",
        "snapshot sections and README catalogue match the registry",
    ),
    (
        "allow",
        "every lint:allow names a real rule and carries a reason",
    ),
];

fn main() -> ExitCode {
    let args = SPEC.parse_env_or_exit();
    if args.list {
        for (rule, help) in RULE_HELP {
            println!("{rule:<16} {help}");
        }
        return ExitCode::SUCCESS;
    }
    let default_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let root = args.value_of("--root").unwrap_or(default_root).to_owned();
    let findings = match lint_workspace(Path::new(&root)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("smart_lint: cannot read workspace at {root}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let findings: Vec<Finding> = findings
        .into_iter()
        .filter(|f| {
            args.filters.is_empty() || args.filters.iter().any(|p| f.rule.contains(p.as_str()))
        })
        .collect();

    match args.format {
        Format::Text => {
            for f in &findings {
                println!("{f}");
            }
            eprintln!(
                "smart_lint: {} finding(s) across {} rule(s)",
                findings.len(),
                RULES.len()
            );
        }
        Format::Json => println!("{}", to_json(&findings)),
        Format::Csv => {
            println!("rule,file,line,message");
            for f in &findings {
                println!(
                    "{},{},{},\"{}\"",
                    f.rule,
                    f.file,
                    f.line,
                    f.message.replace('"', "\"\"")
                );
            }
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            escape(f.rule),
            escape(&f.file),
            f.line,
            escape(&f.message)
        ));
    }
    out.push_str(&format!("],\"count\":{}}}", findings.len()));
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
