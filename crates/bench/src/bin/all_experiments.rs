//! Regenerates every table and figure of the paper (plus the ablations
//! and the timing/search/serving studies) in order, on a worker pool
//! with a shared evaluation cache.
//!
//! ```sh
//! cargo run --release -p smart-bench --bin all_experiments             # everything
//! cargo run --release -p smart-bench --bin all_experiments -- --list  # catalogue
//! cargo run --release -p smart-bench --bin all_experiments -- fig18 fig19
//! cargo run --release -p smart-bench --bin all_experiments -- --filter serving
//! cargo run --release -p smart-bench --bin all_experiments -- --jobs 2 --check
//! ```
//!
//! All flags come from the shared `smart_bench::cli` module; see
//! `--help`. Experiments can be selected positionally by exact name or
//! with `--filter` by group tag / name substring.

use smart_bench::cli::{self, CliSpec, Format};
use smart_bench::{registry, run_experiments};
use std::process::ExitCode;

const SPEC: CliSpec = CliSpec {
    bin: "all_experiments",
    about: "regenerate every experiment of the paper reproduction",
    extras: &[],
    positional: Some("EXPERIMENT"),
};

fn main() -> ExitCode {
    let args = SPEC.parse_env_or_exit();

    // Positional names (exact, validated) narrow the set first; --filter
    // tags narrow by group/substring. Both empty = everything.
    let mut selected = registry::filtered(&args.filters);
    if !args.positional.is_empty() {
        let mut picked = Vec::new();
        for name in &args.positional {
            let Some(d) = registry::find(name) else {
                eprintln!("unknown experiment `{name}`; try --list");
                return ExitCode::FAILURE;
            };
            if args.filters.is_empty() || selected.iter().any(|s| s.name == d.name) {
                picked.push(d);
            }
        }
        selected = picked;
    }

    if args.list {
        cli::print_listing(&selected);
        return ExitCode::SUCCESS;
    }

    let ctx = args.context();
    if let Some(dir) = &args.cache_dir {
        ctx.load_caches_verbose(dir);
    }
    let names: Vec<&str> = selected.iter().map(|d| d.name).collect();
    let tables = run_experiments(&names, &ctx);
    if let Some(dir) = &args.cache_dir {
        ctx.save_caches_or_warn(dir);
    }

    // Every stdout write goes through `cli`, which ends the run quietly
    // when the reader closes the pipe.
    match args.format {
        Format::Text => {
            for table in &tables {
                cli::write_stdout(&format!("==== {} ====\n{table}\n", table.name));
            }
        }
        Format::Json => {
            let bodies: Vec<String> = tables
                .iter()
                .map(smart_report::ResultTable::to_json)
                .collect();
            cli::write_stdout(&format!("[{}]\n", bodies.join(",")));
        }
        Format::Csv => {
            for table in &tables {
                cli::print_table(table, Format::Csv);
            }
        }
    }

    if !cli::emit_observability(&args, &ctx) {
        return ExitCode::FAILURE;
    }

    if args.check {
        if !cli::check_tables(&tables) {
            return ExitCode::FAILURE;
        }
        // Counts come from the unified metrics snapshot — the same
        // numbers `--metrics` dumps. Single-flight waiters (coalesced)
        // count as hits here so the line stays deterministic across
        // worker interleavings.
        let snap = ctx.metrics_snapshot();
        eprintln!(
            "check ok: {} tables finite; eval cache {} entries, {} hits / {} misses",
            tables.len(),
            snap.gauge("eval_cache.entries").unwrap_or(0),
            snap.counter("eval_cache.hits") + snap.counter("eval_cache.coalesced"),
            snap.counter("eval_cache.misses")
        );
    }
    ExitCode::SUCCESS
}
