//! End-to-end benchmark of the SMART reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Four workloads (see `perfbench/LEDGER.md`):
//! `figures_cold`, `figures_warm`, `design_search` and `serving_mix`. An
//! untraced run (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) reports the per-layer metrics and writes its spans to
//! `.bench_out/trace-<workload>-seed<seed>.json`. Every iteration's output
//! is checked against a reference; the last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod figures;
mod search;
mod serving;
mod spans;
mod stats;

use smart_trace::MetricsSnapshot;
use spans::Spans;
use stats::Metric;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Worker threads of every timed iteration and set-up. One, not the two
/// CPUs of the reference VM: with both busy, host contention on either
/// one stalls the pool's critical path, and 20 s medians of
/// `figures_cold` spread 28% between runs (one worker: under 9%).
pub const JOBS: usize = 1;

/// Worker threads of the pooled iterations a traced `figures_*` run
/// times for `report.pool_efficiency` (the reference VM's CPU count).
pub const POOL_JOBS: usize = 2;

/// Every per-layer metric a traced run reports, with its unit. A workload
/// that bypasses a layer reports it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("exp_ms.paper", "ms"),
    ("exp_ms.ablation", "ms"),
    ("exp_ms.circuit", "ms"),
    ("exp_ms.timing", "ms"),
    ("exp_ms.search", "ms"),
    ("exp_ms.serving", "ms"),
    ("ilp.cold_solves", "count"),
    ("ilp.warm_hits", "count"),
    ("ilp.solution_hits", "count"),
    ("ilp.nodes", "count"),
    ("ilp.pivots", "count"),
    ("ilp.refactorizations", "count"),
    ("ilp.pivots_per_node", "ratio"),
    ("ilp.memo_hit_rate", "ratio"),
    ("core.eval_cache.misses", "count"),
    ("core.eval_cache.hit_rate", "ratio"),
    ("josim.circuit_cache.misses", "count"),
    ("timing.timing_cache.misses", "count"),
    ("timing.timing_cache.hit_rate", "ratio"),
    ("units.store_save_ms.eval", "ms"),
    ("units.store_save_ms.circuit", "ms"),
    ("units.store_save_ms.timing", "ms"),
    ("units.store_save_ms.ilp", "ms"),
    ("units.store_load_ms.eval", "ms"),
    ("units.store_load_ms.circuit", "ms"),
    ("units.store_load_ms.timing", "ms"),
    ("units.store_load_ms.ilp", "ms"),
    ("units.store_bytes", "bytes"),
    ("report.pool_efficiency", "ratio"),
    ("search.stage1_ms", "ms"),
    ("search.prune_ms", "ms"),
    ("systolic.prep_ms", "ms"),
    ("compiler.compile_ms", "ms"),
    ("timing.prepass_ms", "ms"),
    ("timing.replay_ms", "ms"),
    ("search.points", "count"),
    ("search.survivors", "count"),
    ("search.frontier", "count"),
    ("search.prune_rate", "ratio"),
    ("compiler.us_per_node", "us"),
    ("search.trace_coverage", "ratio"),
    ("serving.profile_ms", "ms"),
    ("serving.arrivals_ms", "ms"),
    ("serving.dispatch_ms.fcfs", "ms"),
    ("serving.dispatch_ms.quantum", "ms"),
    ("serving.dispatch_ms.batched", "ms"),
    ("serving.dispatch_ns_per_request", "ns"),
    ("serving.switches", "count"),
    ("serving.utilization", "ratio"),
    ("serving.thrash_overhead", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Set-ups a run makes: one when traced (a traced run reports no
    /// `setup_s`), else [`stats::SETUP_REPEATS`].
    pub fn setup_repeats(&self) -> usize {
        if self.trace {
            1
        } else {
            stats::SETUP_REPEATS
        }
    }
}

/// What a workload run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted (tables, design points, or simulated requests).
    pub attempted: u64,
    /// Ops whose output differed from the reference.
    pub failed: u64,
    /// Differential and repeatability checks that are not per-op.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Informational lines printed before the result.
    pub info: Vec<String>,
}

impl Report {
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }
}

const USAGE: &str =
    "usage: perfbench --workload <figures_cold|figures_warm|design_search|serving_mix> \
     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = argv.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument `{flag}`"));
        };
        let value = argv
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        flags.insert(name.to_owned(), value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    if let Some(unknown) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{unknown}"));
    }
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

fn run(args: &Args, scratch: &Path, spans: &mut Spans) -> Result<Report, String> {
    match args.workload.as_str() {
        "figures_cold" => figures::run(args, figures::Kind::Cold, scratch, spans),
        "figures_warm" => figures::run(args, figures::Kind::Warm, scratch, spans),
        "design_search" => search::run(args, spans),
        "serving_mix" => serving::run(args, spans),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The ILP and cache work counters of a context, from
/// `ExperimentContext::metrics_snapshot`. Cache hits count `hits +
/// coalesced`, the split-independent sum.
pub fn counter_metrics(snap: &MetricsSnapshot) -> Vec<Metric> {
    let c = |name: &str| snap.counter(name) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut m: Vec<Metric> = [
        "cold_solves",
        "warm_hits",
        "solution_hits",
        "nodes",
        "pivots",
        "refactorizations",
    ]
    .iter()
    .map(|k| Metric::new(format!("ilp.{k}"), c(&format!("ilp.{k}")), "count"))
    .collect();
    let memo = c("ilp.solution_hits");
    m.push(Metric::new(
        "ilp.pivots_per_node",
        ratio(c("ilp.pivots"), c("ilp.nodes")),
        "ratio",
    ));
    m.push(Metric::new(
        "ilp.memo_hit_rate",
        ratio(memo, memo + c("ilp.cold_solves") + c("ilp.warm_attempts")),
        "ratio",
    ));
    let served = |cache: &str| c(&format!("{cache}.hits")) + c(&format!("{cache}.coalesced"));
    let hit_rate = |cache: &str| {
        let (s, misses) = (served(cache), c(&format!("{cache}.misses")));
        ratio(s, s + misses)
    };
    m.extend([
        Metric::new("core.eval_cache.misses", c("eval_cache.misses"), "count"),
        Metric::new("core.eval_cache.hit_rate", hit_rate("eval_cache"), "ratio"),
        Metric::new(
            "josim.circuit_cache.misses",
            c("circuit_cache.misses"),
            "count",
        ),
        Metric::new(
            "timing.timing_cache.misses",
            c("timing_cache.misses"),
            "count",
        ),
        Metric::new(
            "timing.timing_cache.hit_rate",
            hit_rate("timing_cache"),
            "ratio",
        ),
    ]);
    m
}

/// Orders a traced run's metrics by [`PER_LAYER`], reporting layers the
/// workload bypasses as 0.
fn per_layer(measured: &[Metric]) -> Result<Vec<Metric>, String> {
    if let Some(m) = measured
        .iter()
        .find(|m| !PER_LAYER.iter().any(|(n, u)| *n == m.name && *u == m.unit))
    {
        return Err(format!(
            "undeclared per-layer metric {} ({})",
            m.name, m.unit
        ));
    }
    Ok(PER_LAYER
        .iter()
        .map(|(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == *name)
                .cloned()
                .unwrap_or_else(|| Metric::new(*name, 0.0, unit))
        })
        .collect())
}

fn result_json(correct: bool, report: &Report, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    let mut spans = Spans::new();
    let result = run(&args, &scratch, &mut spans);
    let _ = std::fs::remove_dir_all(&scratch);
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = if args.trace {
        let path = out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = spans.write_chrome(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        report
            .info
            .push(format!("spans written to {}", path.display()));
        match per_layer(&report.metrics) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        report.metrics.clone()
    };
    match figures::fidelity() {
        Ok(line) => report.info.push(line),
        Err(e) => {
            eprintln!("perfbench: fidelity block: {e}");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "workload {} seed {} seconds {} trace {} jobs {JOBS}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &report.info {
        println!("info: {line}");
    }
    for (what, ok) in &report.checks {
        println!("check: {} {what}", if *ok { "ok" } else { "FAILED" });
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "info: error_rate {error_rate} ({} failed of {} ops)",
        report.failed, report.attempted
    );
    let correct = report.failed == 0 && report.attempted > 0 && report.checks.iter().all(|c| c.1);
    println!("{}", result_json(correct, &report, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_owned)
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(argv(
            "--workload serving_mix --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("serving_mix", 7, true)
        );
        assert!(parse_args(argv("--workload x --seed 1 --seconds 10")).is_err());
        assert!(parse_args(argv("--workload x --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(argv(
            "--workload x --seed 1 --seconds 10 --trace 0 --bogus 1"
        ))
        .is_err());
    }

    #[test]
    fn per_layer_names_match_the_benchmark_manifest() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let per_layer = manifest
            .split("\"per_layer\"")
            .nth(1)
            .expect("per_layer section");
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                per_layer.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn bypassed_layers_read_zero_and_strays_are_refused() {
        let full = per_layer(&[Metric::new("ilp.nodes", 5.0, "count")]).expect("declared");
        assert_eq!(full.len(), PER_LAYER.len());
        assert_eq!(
            full.iter().find(|m| m.name == "ilp.nodes").map(|m| m.value),
            Some(5.0)
        );
        assert!(full
            .iter()
            .filter(|m| m.name != "ilp.nodes")
            .all(|m| m.value == 0.0));
        assert!(per_layer(&[Metric::new("ilp.nodes", 5.0, "ms")]).is_err());
    }
}
