//! The typed, parallel experiment engine: one builder per table/figure of
//! the paper, all producing [`ResultTable`]s.
//!
//! Every builder shares one implementation across the `all_experiments`
//! runner (`cargo run -p smart-bench --bin all_experiments -- fig18` runs
//! one figure), the benchmarks, and the tests. Builders take an
//! [`ExperimentContext`] — a shared memoized [`EvalCache`] plus a worker
//! count — so repeated evaluation points (the TPU/SuperNPU baselines
//! behind every normalized figure) are computed once, and independent
//! experiments / sweep points / grid cells run concurrently.
//!
//! ```no_run
//! use smart_bench::{all_experiments, run_experiment, ExperimentContext};
//!
//! let ctx = ExperimentContext::new(4);
//! let fig18 = run_experiment("fig18", &ctx).expect("known name");
//! println!("{fig18}");            // legacy fixed-width text
//! println!("{}", fig18.to_json()); // typed rows for scripts
//! let all = all_experiments(&ctx); // every figure, 4-way parallel
//! assert_eq!(all.len(), 35);
//! ```
//!
//! Experiments are catalogued in the typed [`registry`]
//! ([`registry::ExperimentDescriptor`]: name, paper figure, group tag,
//! runner), and every driver under `src/bin/` parses its command line
//! through the shared [`cli`] module, so `--list`, `--filter`, and the
//! flag error messages are identical everywhere.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cli;
mod experiments;
pub mod registry;
mod serving;

pub use serving::{count_serving_work, serving_batch_tail, serving_saturation, serving_tenant_mix};

pub use experiments::{
    ablation_ilp_vs_greedy, ablation_lane_length, fig02_wires, fig05_homogeneous, fig06_trace,
    fig07_hetero, fig09_htree_breakdown, fig12_subbank_validation, fig13_josim_validation,
    fig14_design_space, fig16_access_energy, fig17_area, fig18_single_speedup, fig19_batch_speedup,
    fig20_single_energy, fig21_batch_energy, fig22_shift_capacity, fig23_random_capacity,
    fig24_prefetch, fig25_write_latency, frontier_table, josim_fanout_characterization,
    josim_jtl_characterization, josim_ptl_characterization, search_frontier, search_frontier_gap,
    search_warm_vs_cold, table1_memories, table2_components, table4_configs, timing_buffer_depth,
    timing_random_bandwidth, timing_stall_breakdown,
};

use smart_core::cache::EvalCache;
use smart_josim::cache::CircuitCache;
use smart_report::{parallel_map, ResultTable};
use smart_timing::TimingCache;
use smart_trace::metrics::{MetricsRegistry, MetricsSnapshot};
use smart_trace::wall::WallProfile;
use smart_trace::Tracer;
use std::path::Path;
use std::sync::Arc;

/// Shared state of one experiment run: the memoized evaluation,
/// circuit-characterization, and timing-replay caches, and the
/// worker-thread budget every builder fans out with.
#[derive(Debug)]
pub struct ExperimentContext {
    /// Memoized `(Scheme, ModelId, batch)` evaluation results, shared
    /// across experiments and worker threads.
    pub cache: Arc<EvalCache>,
    /// Memoized transient circuit characterizations (JTL chains, fan-out
    /// trees, PTL links), keyed on the full `CellSpec` value.
    pub circuits: Arc<CircuitCache>,
    /// Memoized cycle-level replay results, keyed on the full
    /// `(Scheme, ModelId, TimingConfig)` value (the `timing_*`
    /// experiments share their nominal SMART replays this way).
    pub timing: Arc<TimingCache>,
    /// Worker-thread budget for this context's fan-outs (sweep points,
    /// grid cells). `1` means fully sequential. [`run_experiments`] splits
    /// the budget between the experiment level and the per-experiment
    /// level so total concurrency stays ~`jobs`, not `jobs^2`.
    pub jobs: usize,
    /// Span recorder for `--trace-out`: disabled (free) by default;
    /// clones share the same buffer, so experiments running on worker
    /// threads all land in one trace.
    pub tracer: Tracer,
    /// Wall-clock profile for the `--metrics` per-experiment stderr
    /// tree. Strictly stderr reporting; never feeds deterministic output.
    pub wall: Arc<WallProfile>,
    /// Run-level gauges (warm entries loaded per store) merged into
    /// [`ExperimentContext::metrics_snapshot`].
    pub metrics: Arc<MetricsRegistry>,
}

impl ExperimentContext {
    /// A context with empty caches and an explicit worker budget (clamped
    /// to at least 1).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self {
            cache: Arc::new(EvalCache::new()),
            circuits: Arc::new(CircuitCache::new()),
            timing: Arc::new(TimingCache::new()),
            jobs: jobs.max(1),
            tracer: Tracer::disabled(),
            wall: Arc::new(WallProfile::disabled()),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// A fully sequential context: deterministic single-thread execution
    /// for debugging and tests. (The drivers default to
    /// [`ExperimentContext::default`], i.e. available parallelism.)
    #[must_use]
    pub fn single_threaded() -> Self {
        Self::new(1)
    }

    /// A context sharing this one's caches with a different worker budget
    /// (how [`run_experiments`] hands experiments their share of `jobs`).
    #[must_use]
    pub fn with_jobs(&self, jobs: usize) -> Self {
        Self {
            cache: Arc::clone(&self.cache),
            circuits: Arc::clone(&self.circuits),
            timing: Arc::clone(&self.timing),
            jobs: jobs.max(1),
            tracer: self.tracer.clone(),
            wall: Arc::clone(&self.wall),
            metrics: Arc::clone(&self.metrics),
        }
    }

    /// This context with span recording switched to `tracer` (clones
    /// share one buffer). Also hands the tracer to the shared ILP solver
    /// context so branch-and-bound emits its pivot spans into the same
    /// trace.
    #[must_use]
    pub fn with_tracer(self, tracer: Tracer) -> Self {
        self.timing.solver().set_tracer(tracer.clone());
        Self { tracer, ..self }
    }

    /// This context with wall-clock profiling enabled (the `--metrics`
    /// per-experiment stderr tree).
    #[must_use]
    pub fn with_wall_profile(self) -> Self {
        Self {
            wall: Arc::new(WallProfile::enabled()),
            ..self
        }
    }

    /// The unified metrics snapshot of this run: the five live work
    /// records (the three caches', the transient engine's and the
    /// solver's) poured into one deterministically ordered
    /// [`MetricsSnapshot`] under dotted names, merged with the run-level
    /// gauges recorded in [`ExperimentContext::metrics`] (warm entries
    /// loaded). Hit counts are reported per kind — `*.hits` for callers
    /// that found a ready entry, `*.coalesced` for single-flight waiters
    /// that piggybacked on an in-flight computation.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        // One work record's counters and gauges, under `prefix.`.
        let pour = |prefix: &str,
                    counters: &mut dyn Iterator<Item = (&str, u64)>,
                    gauges: &mut dyn Iterator<Item = (&str, usize)>| {
            counters.for_each(|(name, value)| reg.add(&format!("{prefix}.{name}"), value));
            gauges
                .for_each(|(name, value)| reg.set_gauge(&format!("{prefix}.{name}"), value as u64));
        };
        for (prefix, stats) in [
            ("eval_cache", self.cache.stats()),
            ("circuit_cache", self.circuits.stats()),
            ("timing_cache", self.timing.stats()),
        ] {
            pour(prefix, &mut stats.counters(), &mut stats.gauges());
        }
        let (josim, ilp) = (self.circuits.work(), self.timing.solver().stats());
        pour("josim", &mut josim.counters(), &mut josim.gauges());
        pour("ilp", &mut ilp.counters(), &mut ilp.gauges());
        let mut snap = reg.snapshot();
        let stored = self.metrics.snapshot();
        snap.counters.extend(stored.counters);
        snap.gauges.extend(stored.gauges);
        snap
    }

    /// Warms every cache from the persisted stores in `dir` (the
    /// `--cache-dir` of a previous run). Each store falls back to cold
    /// independently: a missing, truncated, corrupted, or
    /// version-mismatched file loads zero entries and never fails the run.
    /// Warm entries are bit-exact — a warm run's output is byte-identical
    /// to the cold run that wrote the stores. The entries loaded per store
    /// are recorded as the `warm.eval`, `warm.circuits`, `warm.timing` and
    /// `warm.bases` gauges of [`ExperimentContext::metrics_snapshot`].
    pub fn load_caches(&self, dir: &Path) {
        let gauge = |name: &str, loaded: usize| self.metrics.set_gauge(name, loaded as u64);
        gauge("warm.eval", smart_core::cache::load(&self.cache, dir));
        gauge(
            "warm.circuits",
            smart_josim::cache::load(&self.circuits, dir),
        );
        gauge(
            "warm.timing",
            smart_timing::persist::load(&self.timing, dir),
        );
        gauge("warm.bases", self.timing.solver().load_from(dir));
    }

    /// [`ExperimentContext::load_caches`] plus the canonical stderr
    /// summary line every driver prints for `--cache-dir` (one
    /// implementation, so the wording cannot drift). The printed counts
    /// come back out of the metrics registry the load just recorded, so
    /// this line and the `--metrics` dump cannot disagree.
    pub fn load_caches_verbose(&self, dir: &Path) {
        self.load_caches(dir);
        let snap = self.metrics.snapshot();
        let of = |name: &str| snap.gauge(name).unwrap_or(0);
        eprintln!(
            "cache-dir: {} warm entries loaded ({} eval, {} circuit, {} timing, {} bases)",
            of("warm.eval") + of("warm.circuits") + of("warm.timing") + of("warm.bases"),
            of("warm.eval"),
            of("warm.circuits"),
            of("warm.timing"),
            of("warm.bases")
        );
    }

    /// [`ExperimentContext::save_caches`] with the canonical stderr
    /// warning on failure instead of an error return — results already
    /// computed should never be discarded because the warm store could
    /// not be written.
    pub fn save_caches_or_warn(&self, dir: &Path) {
        if let Err(e) = self.save_caches(dir) {
            eprintln!("cache-dir: save failed: {e}");
        }
    }

    /// Persists every cache into `dir` (creating it if needed) so the next
    /// process can [`ExperimentContext::load_caches`] and start warm.
    /// Writes are atomic (temp file + rename), so a crashed run leaves the
    /// previous stores intact. Every store is attempted, so one that fails
    /// costs only itself.
    ///
    /// # Errors
    ///
    /// The first [`smart_units::SmartError::Store`] of any store's
    /// underlying filesystem failure.
    pub fn save_caches(&self, dir: &Path) -> smart_units::Result<()> {
        std::fs::create_dir_all(dir)?;
        [
            smart_core::cache::save(&self.cache, dir),
            smart_josim::cache::save(&self.circuits, dir),
            smart_timing::persist::save(&self.timing, dir),
            self.timing.solver().save_to(dir),
        ]
        .into_iter()
        .collect()
    }
}

impl Default for ExperimentContext {
    /// Defaults to the machine's available parallelism.
    fn default() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
    }
}

/// A figure/table builder: takes the shared context, returns the typed
/// result.
pub type Experiment = fn(&ExperimentContext) -> ResultTable;

/// Runs one experiment by name, returning its typed table, or `None` for
/// an unknown name. Names are listed by [`experiment_names`].
#[must_use]
pub fn run_experiment(name: &str, ctx: &ExperimentContext) -> Option<ResultTable> {
    registry::find(name).map(|d| (d.run)(ctx))
}

/// Names of every experiment, in registry order (paper figures/tables,
/// then the beyond-the-paper studies), without running anything.
#[must_use]
pub fn experiment_names() -> Vec<&'static str> {
    registry::REGISTRY.iter().map(|d| d.name).collect()
}

/// All experiments in registry order, fanned over the context's worker
/// pool with the shared evaluation cache.
#[must_use]
pub fn all_experiments(ctx: &ExperimentContext) -> Vec<ResultTable> {
    run_experiments(&experiment_names(), ctx)
}

/// Runs a selection of experiments concurrently, preserving the given
/// order. Unknown names are skipped (validate against
/// [`experiment_names`] first to report them).
///
/// The `jobs` budget is split across the two fan-out levels: up to
/// `min(jobs, experiments)` experiments run concurrently, and each
/// receives `jobs / outer` workers for its internal sweeps/grids, so
/// total concurrency stays around `jobs` rather than `jobs^2`.
#[must_use]
pub fn run_experiments(names: &[&str], ctx: &ExperimentContext) -> Vec<ResultTable> {
    let selected: Vec<&'static registry::ExperimentDescriptor> = names
        .iter()
        .filter_map(|name| registry::find(name))
        .collect();
    let outer = ctx.jobs.min(selected.len()).max(1);
    let inner = ctx.with_jobs(ctx.jobs / outer);
    parallel_map(outer, &selected, |d| {
        ctx.wall.time(d.name, || (d.run)(&inner))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_names_are_unique_and_known() {
        let names = experiment_names();
        let mut seen = std::collections::HashSet::new();
        for n in &names {
            assert!(seen.insert(*n), "duplicate experiment name {n}");
        }
        assert_eq!(
            names.len(),
            35,
            "21 figures/tables + 2 ablations + 3 circuit characterizations \
             + 3 timing replays + 3 design-space searches + 3 serving studies"
        );
        assert!(
            run_experiment("not_an_experiment", &ExperimentContext::single_threaded()).is_none()
        );
    }

    #[test]
    fn dispatch_runs_cheap_experiments() {
        // Smoke the dispatch path on the cheap entries; the expensive
        // sweeps are exercised by the golden snapshot test and CI's
        // all_experiments run.
        let ctx = ExperimentContext::single_threaded();
        for name in ["table2", "table4", "fig16", "ablation_lane_length"] {
            let table = run_experiment(name, &ctx).expect("known name");
            assert_eq!(table.name, name);
            assert!(!table.rows.is_empty(), "{name} table is empty");
            assert!(
                table.to_text().contains(char::is_numeric),
                "{name} report is empty"
            );
            assert!(
                table.non_finite_cells().is_empty(),
                "{name} has non-finite cells"
            );
        }
    }

    #[test]
    fn a_store_that_fails_to_save_does_not_skip_the_others() {
        let dir = std::env::temp_dir().join(format!("smart-bench-save-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("eval-cache.bin")).expect("mkdir");
        let err = ExperimentContext::single_threaded().save_caches(&dir);
        assert!(err.is_err(), "a directory is in the way of the eval store");
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .expect("lists")
            .map(|e| e.expect("entry").file_name())
            .collect();
        names.sort();
        assert_eq!(
            names,
            [
                "circuit-cache.bin",
                "eval-cache.bin",
                "ilp-bases.bin",
                "ilp-solutions.bin",
                "timing-cache.bin"
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ilp_metric_names_are_pinned() {
        // The `ilp.*` names are `SolverContextStats`' field names, so
        // renaming a field renames a `--metrics` counter: the committed
        // metrics snapshots and perfbench's counter metrics read these.
        let snap = ExperimentContext::single_threaded().metrics_snapshot();
        let ilp = |metrics: &std::collections::BTreeMap<String, u64>| {
            let names = metrics.keys().filter_map(|k| k.strip_prefix("ilp."));
            names.collect::<Vec<_>>().join(" ")
        };
        let counters = "bound_flips cold_solves cols cols_fixed node_limited nodes nonzeros \
                        pivots refactorizations rows rows_kept rows_rounded solution_hits \
                        warm_attempts warm_hits";
        assert_eq!(ilp(&snap.counters), counters);
        let gauges = "stored_bases stored_solutions structures";
        assert_eq!(ilp(&snap.gauges), gauges);
    }

    #[test]
    fn josim_metric_names_are_pinned() {
        // The `josim.*` names are `TransientWork`'s field names, which the
        // committed metrics snapshots read.
        let snap = ExperimentContext::single_threaded().metrics_snapshot();
        let names = snap
            .counters
            .keys()
            .filter_map(|k| k.strip_prefix("josim."));
        assert_eq!(
            names.collect::<Vec<_>>().join(" "),
            "linear_solves newton_iterations refactorizations rejected_trials runs trials"
        );
    }

    #[test]
    fn cache_metric_names_are_pinned() {
        // The `eval_cache.*`, `circuit_cache.*` and `timing_cache.*` names
        // are `MemoStats`' field names; perfbench's counter metrics read
        // an absent name as 0, so a rename would otherwise go unnoticed.
        let snap = ExperimentContext::single_threaded().metrics_snapshot();
        for cache in ["eval_cache", "circuit_cache", "timing_cache"] {
            let prefix = format!("{cache}.");
            let names = |metrics: &std::collections::BTreeMap<String, u64>| {
                let names = metrics.keys().filter_map(|k| k.strip_prefix(&prefix));
                names.collect::<Vec<_>>().join(" ")
            };
            assert_eq!(names(&snap.counters), "coalesced hits misses", "{cache}");
            assert_eq!(names(&snap.gauges), "entries", "{cache}");
        }
    }

    #[test]
    fn run_experiments_preserves_selection_order() {
        let ctx = ExperimentContext::new(2);
        let tables = run_experiments(&["table4", "table2", "bogus"], &ctx);
        let names: Vec<&str> = tables.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["table4", "table2"]);
    }
}
