//! Design-space Pareto search over generated accelerator geometries.
//!
//! Sweeps the default 1000-point heterogeneous grid (or the small
//! 18-point grid with `--small`) through the staged search engine:
//! parallel analytic objectives, ε-dominance pruning, warm-started ILP
//! enrichment of the survivors, and cycle-level replay confirmation of
//! the frontier.
//!
//! ```sh
//! cargo run --release -p smart-bench --bin pareto_search
//! cargo run --release -p smart-bench --bin pareto_search -- --jobs 8 --json
//! cargo run --release -p smart-bench --bin pareto_search -- --cache-dir target/warm
//! cargo run --release -p smart-bench --bin pareto_search -- --small --check
//! ```
//!
//! Flags come from the shared `smart_bench::cli` module (see `--help`);
//! `--check` verifies the search invariants (finite objectives,
//! frontier ⊆ survivors, no dominated frontier point, and a sequential
//! `--jobs 1` rerun producing the identical outcome).

use smart_bench::cli::{self, CliSpec, ExtraFlag, Format};
use smart_bench::frontier_table;
use smart_search::{dominates, search, SearchConfig, SearchOutcome, SearchSpace};
use std::process::ExitCode;
use std::time::Instant;

const SPEC: CliSpec = CliSpec {
    bin: "pareto_search",
    about: "staged Pareto search over generated accelerator geometries",
    extras: &[ExtraFlag {
        flag: "--small",
        value: None,
        help: "the 18-point grid instead of the 1000-point one",
    }],
    positional: None,
};

/// Verifies the search invariants; returns every violation found.
fn check_outcome(out: &SearchOutcome, rerun: &SearchOutcome) -> Vec<String> {
    let mut bad = Vec::new();
    for (i, p) in out.points.iter().enumerate() {
        if !p.objectives.is_finite() {
            bad.push(format!(
                "point {i}: non-finite objectives {:?}",
                p.objectives
            ));
        }
    }
    for i in &out.frontier {
        if !out.survivors.contains(i) {
            bad.push(format!("frontier point {i} missing from the survivor set"));
        }
        if let Some(j) = (0..out.points.len())
            .find(|&j| dominates(&out.points[j].objectives, &out.points[*i].objectives))
        {
            bad.push(format!("frontier point {i} is dominated by point {j}"));
        }
    }
    if rerun.frontier != out.frontier || rerun.survivors != out.survivors {
        bad.push("sequential --jobs 1 rerun produced a different outcome".to_owned());
    }
    for (i, (a, b)) in out.points.iter().zip(&rerun.points).enumerate() {
        if a.objectives != b.objectives {
            bad.push(format!(
                "point {i}: objectives differ from the --jobs 1 rerun"
            ));
        }
    }
    bad
}

fn main() -> ExitCode {
    let args = SPEC.parse_env_or_exit();
    let selected = args.filters.is_empty()
        || args
            .filters
            .iter()
            .any(|f| "pareto_search".contains(f.as_str()) || f == "search");
    if args.list {
        if selected {
            cli::write_stdout("pareto_search\n");
        }
        return ExitCode::SUCCESS;
    }
    if !selected {
        return ExitCode::SUCCESS;
    }

    let ctx = args.context();
    if let Some(dir) = &args.cache_dir {
        ctx.load_caches_verbose(dir);
    }

    let space = if args.has("--small") {
        SearchSpace::small()
    } else {
        SearchSpace::default_grid()
    };
    let cfg = SearchConfig::new(ctx.jobs);
    // lint:allow(determinism, wall-clock timing is reported on stderr only and never reaches stdout/JSON/snapshot bytes)
    let started = Instant::now();
    let out = match search(&space, &cfg, &ctx.cache, &ctx.timing) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("search failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed().as_secs_f64();

    if let Some(dir) = &args.cache_dir {
        ctx.save_caches_or_warn(dir);
    }

    let table = frontier_table(
        "pareto_search",
        &format!(
            "Design-space search: Pareto frontier of the {}-point heterogeneous grid (AlexNet, batch 1)",
            out.stats.space
        ),
        &out,
    );
    let s = out.stats;
    // Wall-clock timing is observability, not a result: it goes to stderr
    // in every format, and deliberately never into the stdout JSON (which
    // must stay deterministic for diffing and snapshotting). Cache and
    // solver counts come from the unified metrics snapshot (the numbers
    // `--metrics` dumps), with single-flight waiters folded into hits so
    // the line is stable across worker interleavings.
    let snap = ctx.metrics_snapshot();
    eprintln!(
        "{} configs in {:.2}s ({:.0} configs/s); eval {}h/{}m, replay {}h/{}m, \
         solver {} warm / {} memo / {} cold",
        s.space,
        elapsed,
        s.space as f64 / elapsed.max(1e-9),
        snap.counter("eval_cache.hits") + snap.counter("eval_cache.coalesced"),
        snap.counter("eval_cache.misses"),
        snap.counter("timing_cache.hits") + snap.counter("timing_cache.coalesced"),
        snap.counter("timing_cache.misses"),
        snap.counter("ilp.warm_hits"),
        snap.counter("ilp.solution_hits"),
        snap.counter("ilp.cold_solves"),
    );
    match args.format {
        Format::Json => {
            // The table's own JSON plus the run counters (satellite stats
            // the fixed-width text has no room for). Deterministic fields
            // only — elapsed time stays on stderr.
            cli::write_stdout(&format!(
                "{{\"table\":{},\"stats\":{{\
                 \"space\":{},\"pruned\":{},\"survivors\":{},\"frontier\":{},\
                 \"ilp_compiles\":{},\
                 \"eval_hits\":{},\"eval_misses\":{},\
                 \"timing_hits\":{},\"timing_misses\":{},\
                 \"warm_attempts\":{},\"warm_hits\":{},\"cold_solves\":{},\"solution_hits\":{}}}}}\n",
                table.to_json(),
                s.space,
                s.pruned,
                s.survivors,
                s.frontier,
                s.ilp_compiles,
                s.eval_hits,
                s.eval_misses,
                s.timing_hits,
                s.timing_misses,
                s.warm_attempts,
                s.warm_hits,
                s.cold_solves,
                s.solution_hits,
            ));
        }
        Format::Csv | Format::Text => cli::print_table(&table, args.format),
    }

    if !cli::emit_observability(&args, &ctx) {
        return ExitCode::FAILURE;
    }

    if args.check {
        let rerun = match search(&space, &SearchConfig::new(1), &ctx.cache, &ctx.timing) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("check rerun failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let bad = check_outcome(&out, &rerun);
        if !bad.is_empty() {
            for b in &bad {
                eprintln!("CHECK FAILED: {b}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!("check passed: {} invariants verified", out.points.len());
    }
    ExitCode::SUCCESS
}
