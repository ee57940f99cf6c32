//! Compares a fresh criterion run against a committed `BENCH_*.json`
//! baseline and fails (exit 1) on regressions — the CI perf gate.
//!
//! ```sh
//! cargo bench -p smart-bench --bench ilp -- --bench --quick --save-json BENCH_ilp.new.json
//! cargo run --release -p smart-bench --bin bench_check -- \
//!     --baseline BENCH_ilp.json --current BENCH_ilp.new.json --max-regression 0.25
//! ```
//!
//! * `--max-regression R` — fail when `current > baseline * (1 + R)`
//!   (default 0.25);
//! * `--filter PREFIX` — only gate benchmark ids starting with `PREFIX`
//!   (the shared repeatable flag; default: every baseline id);
//! * a gated baseline id missing from the current run fails the gate and
//!   is named, so renaming or deleting a gated benchmark cannot silently
//!   un-gate it (refresh the baseline in the same change);
//! * ungated baseline-only ids and current-only ids are reported but never
//!   fail the gate (new benchmarks need a baseline refresh, not a red
//!   build).
//!
//! Baselines are machine-relative wall-clock means; refresh them with the
//! command in the README's Performance section when the reference machine
//! changes, never to absorb an unexplained regression.

use smart_bench::cli::{parse_non_negative, require_value, CliSpec, ExtraFlag};
use std::process::ExitCode;

const SPEC: CliSpec = CliSpec {
    bin: "bench_check",
    about: "gate a fresh criterion run against a committed baseline",
    extras: &[
        ExtraFlag {
            flag: "--baseline",
            value: Some("FILE"),
            help: "committed BENCH_*.json baseline (required)",
        },
        ExtraFlag {
            flag: "--current",
            value: Some("FILE"),
            help: "fresh --save-json output to gate (required)",
        },
        ExtraFlag {
            flag: "--max-regression",
            value: Some("R"),
            help: "fail when current > baseline * (1 + R) (default 0.25)",
        },
        ExtraFlag {
            flag: "--ratio-of",
            value: Some("ID"),
            help: "ratio gate numerator: a benchmark id in the current file",
        },
        ExtraFlag {
            flag: "--ratio-to",
            value: Some("ID"),
            help: "ratio gate denominator: a benchmark id in the current file",
        },
        ExtraFlag {
            flag: "--max-ratio",
            value: Some("R"),
            help: "fail when current(--ratio-of) > R * current(--ratio-to)",
        },
    ],
    positional: None,
};

/// Minimal parser for the shim's `{"benchmarks": [{"id": ..,
/// "mean_ns": ..}]}` files: scans for the `"id"`/`"mean_ns"` pairs in
/// order. Not a general JSON parser — the format is produced by this
/// workspace's criterion shim only.
fn parse(body: &str, path: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for chunk in body.split("\"id\"").skip(1) {
        let Some(start) = chunk.find('"') else {
            continue;
        };
        let rest = &chunk[start + 1..];
        let Some(end) = rest.find('"') else { continue };
        let id = rest[..end].to_owned();
        let Some(mean_at) = rest.find("\"mean_ns\"") else {
            eprintln!("{path}: entry `{id}` has no mean_ns; skipped");
            continue;
        };
        let tail = &rest[mean_at + "\"mean_ns\"".len()..];
        let num: String = tail
            .chars()
            .skip_while(|c| *c == ':' || c.is_whitespace())
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
            .collect();
        match num.parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => out.push((id, v)),
            _ => eprintln!("{path}: entry `{id}` has unparsable mean_ns `{num}`; skipped"),
        }
    }
    out
}

fn load(path: &str) -> Option<Vec<(String, f64)>> {
    match std::fs::read_to_string(path) {
        Ok(body) => Some(parse(&body, path)),
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            None
        }
    }
}

fn main() -> ExitCode {
    let args = SPEC.parse_env_or_exit();

    let max_regression = match args.value_of("--max-regression") {
        Some(v) => match parse_non_negative("--max-regression", Some(v)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => 0.25,
    };
    let required = |flag: &str| -> Result<String, String> {
        require_value(flag, "file path", args.value_of(flag))
    };
    let (baseline_path, current_path) = match (required("--baseline"), required("--current")) {
        (Ok(b), Ok(c)) => (b, c),
        _ => {
            eprintln!("usage: bench_check --baseline BENCH_ilp.json --current BENCH_ilp.new.json");
            return ExitCode::FAILURE;
        }
    };
    let filters = &args.filters;
    let (Some(baseline), Some(current)) = (load(&baseline_path), load(&current_path)) else {
        return ExitCode::FAILURE;
    };
    if baseline.is_empty() || current.is_empty() {
        eprintln!(
            "empty benchmark set (baseline {}, current {})",
            baseline.len(),
            current.len()
        );
        return ExitCode::FAILURE;
    }

    let gated = |id: &str| filters.is_empty() || filters.iter().any(|f| id.starts_with(f.as_str()));
    let mut failed = false;
    let mut compared = 0usize;
    let mut missing: Vec<&str> = Vec::new();
    for (id, base) in &baseline {
        let Some((_, cur)) = current.iter().find(|(cid, _)| cid == id) else {
            if gated(id) {
                eprintln!("FAIL  {id}: gated benchmark missing from {current_path}");
                missing.push(id);
            } else {
                eprintln!("~ {id}: in baseline only (refresh pending?)");
            }
            continue;
        };
        let ratio = cur / base.max(1e-9);
        let marker = if ratio > 1.0 + max_regression && gated(id) {
            failed = true;
            compared += 1;
            "FAIL"
        } else if gated(id) {
            compared += 1;
            "ok"
        } else {
            "skip"
        };
        println!(
            "{marker:>4}  {id:<40} baseline {base:>14.1} ns  current {cur:>14.1} ns  ({:+.1}%)",
            (ratio - 1.0) * 100.0
        );
    }
    for (id, _) in &current {
        if !baseline.iter().any(|(bid, _)| bid == id) {
            eprintln!("~ {id}: in current only (add to the committed baseline)");
        }
    }

    // The ratio gate compares two ids of the *current* file against each
    // other — a machine-independent relative claim (e.g. "the disabled
    // tracing hooks cost <= 3% on the replay path"), unlike the absolute
    // baseline comparison above.
    let ratio_requested =
        args.value_of("--ratio-of").is_some() || args.value_of("--ratio-to").is_some();
    if ratio_requested {
        let (Some(of_id), Some(to_id)) = (args.value_of("--ratio-of"), args.value_of("--ratio-to"))
        else {
            eprintln!("--ratio-of and --ratio-to must be given together");
            return ExitCode::FAILURE;
        };
        let max_ratio = match parse_non_negative("--max-ratio", args.value_of("--max-ratio")) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e} (required with --ratio-of)");
                return ExitCode::FAILURE;
            }
        };
        let lookup = |id: &str| current.iter().find(|(cid, _)| cid == id).map(|(_, v)| *v);
        let (Some(of), Some(to)) = (lookup(of_id), lookup(to_id)) else {
            eprintln!("ratio gate: `{of_id}` or `{to_id}` missing from {current_path}");
            return ExitCode::FAILURE;
        };
        let ratio = of / to.max(1e-9);
        println!("ratio  {of_id} / {to_id} = {ratio:.3} (max {max_ratio:.3})");
        if ratio > max_ratio {
            eprintln!("ratio gate failed: {ratio:.3} > {max_ratio:.3}");
            return ExitCode::FAILURE;
        }
    }
    if !missing.is_empty() {
        eprintln!(
            "perf gate failed: gated benchmark(s) missing from {current_path}: {}",
            missing.join(", ")
        );
        return ExitCode::FAILURE;
    }
    if compared == 0 && !ratio_requested {
        eprintln!("no benchmarks matched the gate filters {filters:?}");
        return ExitCode::FAILURE;
    }
    if failed {
        eprintln!(
            "perf gate failed: regression above {:.0}%",
            max_regression * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!(
        "perf gate ok: {compared} benchmarks within {:.0}%",
        max_regression * 100.0
    );
    ExitCode::SUCCESS
}
