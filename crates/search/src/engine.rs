//! The search engine: staged evaluation of a [`SearchSpace`] with
//! dominance pruning and warm-started solves, plus the naive per-config
//! baseline it is measured against.
//!
//! Three stages of increasing cost, each fed only what the previous stage
//! could not rule out:
//!
//! 1. **Analytic** (every point): latency / energy / area from the
//!    closed-form evaluator, fanned out with
//!    [`parallel_map`] through a shared
//!    [`EvalCache`]. These are the objectives of record — the frontier is
//!    exact, not an approximation.
//! 2. **ILP enrichment** (ε-survivors only): the allocation compiler runs
//!    sequentially in enumeration order through the timing cache's shared
//!    [`SolverContext`], so each config
//!    warm-starts from its grid neighbor.
//! 3. **Replay confirmation** (frontier only): the cycle-level
//!    `smart-timing` simulator cross-checks each frontier point's latency.
//!
//! Determinism: stage 1 computes pure values (safe under any `jobs`),
//! stages 2-3 run in canonical order, so the outcome is identical across
//! `--jobs` values and cold-vs-warm cache runs.

// lint:allow-file(index, grid points are indexed by the axis lengths that generated them)

use crate::pareto::{epsilon_survivors, pareto_frontier, Objectives};
use crate::space::SearchSpace;
use smart_compiler::{resident_fraction, SolverContext, SolverContextStats};
use smart_core::area::ChipArea;
use smart_core::cache::EvalCache;
use smart_core::eval::evaluate;
use smart_core::geometry::GeometryParams;
use smart_core::scheme::Scheme;
use smart_report::pool::parallel_map;
use smart_systolic::models::ModelId;
use smart_timing::{compile_scheme_layer, prepare_model_ctx, TimingCache, TimingConfig};
use smart_units::{Result, SmartError, Time};

/// What to evaluate and how hard to prune.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// CNN model the objectives are measured on.
    pub model: ModelId,
    /// Inference batch size.
    pub batch: u32,
    /// Replay scenario for the frontier confirmation stage (its
    /// `max_iterations` also caps the enrichment ILPs' DAG coarsening).
    pub timing: TimingConfig,
    /// ε-dominance pruning margin: a point must be beaten by at least this
    /// relative margin in *all three* objectives before it is pruned, so
    /// the exact frontier always survives. `0.0` prunes only strictly
    /// worse-everywhere points. [`search`] rejects a negative or
    /// non-finite margin, which could prune frontier points (negative) or
    /// silently prune nothing (NaN).
    pub epsilon: f64,
    /// Worker threads for the analytic fan-out (stages 2-3 are
    /// sequential by design).
    pub jobs: usize,
}

impl SearchConfig {
    /// The default search: AlexNet, batch 1, nominal replay scenario,
    /// ε = 0.05.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self {
            model: ModelId::AlexNet,
            batch: 1,
            timing: TimingConfig::nominal(),
            epsilon: 0.05,
            jobs,
        }
    }
}

/// ILP allocation metrics of one design point, summed over the model's
/// layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IlpMetrics {
    /// Summed schedule objective (bytes-weighted access cost).
    pub objective: f64,
    /// Summed branch & bound nodes (0 = every layer's seeded incumbent was
    /// provably optimal). A layer answered from the solution memo counts
    /// the nodes of the search it replays, which may have run for another
    /// design point whose problem differed only in rows that never bind.
    pub nodes: usize,
    /// Bytes the schedules place in SHIFT staging.
    pub shift_bytes: u64,
    /// Bytes placed in the RANDOM array.
    pub random_bytes: u64,
    /// Bytes spilled to DRAM.
    pub dram_bytes: u64,
}

impl IlpMetrics {
    /// Fraction of scheduled bytes resident in the SPM (SHIFT + RANDOM).
    #[must_use]
    pub fn resident_fraction(&self) -> f64 {
        resident_fraction((self.shift_bytes, self.random_bytes, self.dram_bytes))
    }
}

/// Cycle-level confirmation of one frontier point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayCheck {
    /// Replayed end-to-end latency.
    pub latency: Time,
    /// Replayed / analytic latency ratio (≥ 1 up to rounding: the replay
    /// sees arbitration and late prefetches the analytic model cannot).
    pub vs_analytic: f64,
}

/// Work and reuse counters of one search run. Cache and solver counters
/// are **deltas** over the run (after minus before), so a shared cache's
/// prior history does not leak in; work that other threads do on the same
/// caches during the run is included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Points in the space.
    pub space: usize,
    /// Points ε-dominated on the analytic objectives (skipped stages 2-3).
    pub pruned: usize,
    /// Points that reached the ILP stage.
    pub survivors: usize,
    /// Pareto-optimal points.
    pub frontier: usize,
    /// Layer ILP compilations stage 2 ran.
    pub ilp_compiles: u64,
    /// Analytic evaluations served from the [`EvalCache`].
    pub eval_hits: u64,
    /// Analytic evaluations that ran the evaluator.
    pub eval_misses: u64,
    /// Replay confirmations served from the [`TimingCache`].
    pub timing_hits: u64,
    /// Replay confirmations that ran the simulator.
    pub timing_misses: u64,
    /// ILP solves that found a stored basis for their structure.
    pub warm_attempts: u64,
    /// Warm attempts that reoptimized from the stored basis.
    pub warm_hits: u64,
    /// ILP solves that started cold.
    pub cold_solves: u64,
    /// ILP solves answered verbatim from the exact-match solution memo.
    pub solution_hits: u64,
    /// Branch & bound nodes, over every solver context the run used (the
    /// naive baseline's frontier replays included).
    pub nodes: u64,
    /// Simplex pivots, over the same contexts.
    pub pivots: u64,
    /// Primal simplex bound flips, over the same contexts.
    pub bound_flips: u64,
}

impl SearchStats {
    /// Stats whose seven solver fields are `ilp`'s; every other field is 0.
    fn of_solver(ilp: &SolverContextStats) -> Self {
        Self {
            warm_attempts: ilp.warm_attempts,
            warm_hits: ilp.warm_hits,
            cold_solves: ilp.cold_solves,
            solution_hits: ilp.solution_hits,
            nodes: ilp.nodes,
            pivots: ilp.pivots,
            bound_flips: ilp.bound_flips,
            ..Self::default()
        }
    }
}

/// One evaluated design point.
#[derive(Debug, Clone)]
pub struct EvaluatedPoint {
    /// The generating geometry.
    pub params: GeometryParams,
    /// The elaborated scheme.
    pub scheme: Scheme,
    /// Analytic latency / energy / area (the objectives of record).
    pub objectives: Objectives,
    /// ILP allocation metrics; `None` for pruned points.
    pub ilp: Option<IlpMetrics>,
    /// Cycle-level confirmation; `None` off the frontier.
    pub replay: Option<ReplayCheck>,
}

/// The result of a search: every point with its evaluation depth, plus the
/// survivor and frontier index sets (into `points`, in enumeration order).
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// All points, in the space's canonical enumeration order.
    pub points: Vec<EvaluatedPoint>,
    /// Indices that survived ε-dominance pruning.
    pub survivors: Vec<usize>,
    /// Indices of the Pareto frontier (always a subset of `survivors`).
    pub frontier: Vec<usize>,
    /// Work and reuse counters.
    pub stats: SearchStats,
}

impl SearchOutcome {
    /// The frontier's points, in enumeration order.
    pub fn frontier_points(&self) -> impl Iterator<Item = &EvaluatedPoint> {
        self.frontier.iter().map(|&i| &self.points[i])
    }
}

/// Builds every point's scheme, with the failing point named on error.
fn build_schemes(params: &[GeometryParams]) -> Result<Vec<Scheme>> {
    params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            p.build().map_err(|e| {
                SmartError::invalid_input(format!("search point {i} ({}): {e}", p.name))
            })
        })
        .collect()
}

/// The analytic objectives of one scheme (latency and energy from the
/// evaluator report, area exactly from the geometry).
fn objectives_of(scheme: &Scheme, latency: Time, energy: smart_units::Energy) -> Objectives {
    Objectives {
        latency,
        energy,
        area: ChipArea::of(&scheme.spm, scheme.config.shape).total(),
    }
}

/// Sums the ILP allocation metrics of every layer of `model` on `scheme`,
/// compiled through `solver` (warm-started when the caller shares it
/// across neighboring points).
fn ilp_metrics(
    scheme: &Scheme,
    model: &smart_systolic::layer::CnnModel,
    max_iterations: u32,
    solver: &SolverContext,
) -> Result<IlpMetrics> {
    let mut m = IlpMetrics {
        objective: 0.0,
        nodes: 0,
        shift_bytes: 0,
        random_bytes: 0,
        dram_bytes: 0,
    };
    for layer in &model.layers {
        let c = compile_scheme_layer(scheme, layer, max_iterations, solver)?;
        let (shift, random, dram) = c.schedule.bytes_by_location(&c.dag);
        m.objective += c.schedule.objective;
        m.nodes += c.schedule.nodes;
        m.shift_bytes += shift;
        m.random_bytes += random;
        m.dram_bytes += dram;
    }
    Ok(m)
}

/// The outcome of a search: every point with its objectives and its
/// evaluation depth (ILP metrics, replay check), in enumeration order,
/// and `stats` with the space, pruned, survivor and frontier counts.
fn outcome(
    params: Vec<GeometryParams>,
    schemes: Vec<Scheme>,
    objectives: Vec<Objectives>,
    depth: impl IntoIterator<Item = (Option<IlpMetrics>, Option<ReplayCheck>)>,
    survivors: Vec<usize>,
    frontier: Vec<usize>,
    stats: SearchStats,
) -> SearchOutcome {
    let stats = SearchStats {
        space: params.len(),
        pruned: params.len() - survivors.len(),
        survivors: survivors.len(),
        frontier: frontier.len(),
        ..stats
    };
    let points = params
        .into_iter()
        .zip(schemes)
        .zip(objectives)
        .zip(depth)
        .map(
            |(((params, scheme), objectives), (ilp, replay))| EvaluatedPoint {
                params,
                scheme,
                objectives,
                ilp,
                replay,
            },
        )
        .collect();
    SearchOutcome {
        points,
        survivors,
        frontier,
        stats,
    }
}

/// Searches `space` through the staged engine: parallel analytic
/// objectives for every point, ε-dominance pruning, warm-started ILP
/// enrichment of the survivors, and cycle-level replay confirmation of the
/// frontier. The frontier is identical to [`search_naive`]'s on the same
/// space and config.
///
/// # Errors
///
/// [`SmartError::InvalidInput`] when `cfg.epsilon` is negative or not
/// finite, or a grid point fails geometry validation or elaborates a
/// non-heterogeneous SPM (the replay stages need SHIFT + RANDOM).
pub fn search(
    space: &SearchSpace,
    cfg: &SearchConfig,
    eval: &EvalCache,
    timing: &TimingCache,
) -> Result<SearchOutcome> {
    if !(cfg.epsilon.is_finite() && cfg.epsilon >= 0.0) {
        return Err(SmartError::invalid_input(format!(
            "search epsilon must be finite and non-negative, not {}",
            cfg.epsilon
        )));
    }
    let params = space.points();
    let schemes = build_schemes(&params)?;
    let eval_before = eval.stats();
    let timing_before = timing.stats();
    let solver_before = timing.solver().stats();

    // Stage 1: analytic objectives for every point, in parallel. Pure
    // values through a single-flight cache — safe and deterministic under
    // any jobs count.
    let objectives: Vec<Objectives> = parallel_map(cfg.jobs.max(1), &schemes, |scheme| {
        let report = eval.report(scheme, cfg.model, cfg.batch);
        objectives_of(scheme, report.total_time, report.energy_per_image())
    });
    for (i, o) in objectives.iter().enumerate() {
        if !o.is_finite() {
            return Err(SmartError::invalid_input(format!(
                "search point {i} ({}) has non-finite objectives: {o:?}",
                params[i].name
            )));
        }
    }

    let survivors = epsilon_survivors(&objectives, cfg.epsilon);
    let frontier = pareto_frontier(&objectives);

    // Stage 2: ILP enrichment of the survivors, sequentially in
    // enumeration order through the cache's shared solver context so each
    // point warm-starts from its grid neighbor.
    let model = cfg.model.build();
    let mut ilp: Vec<Option<IlpMetrics>> = vec![None; schemes.len()];
    let mut ilp_compiles = 0u64;
    for &i in &survivors {
        ilp[i] = Some(ilp_metrics(
            &schemes[i],
            &model,
            cfg.timing.max_iterations,
            timing.solver(),
        )?);
        ilp_compiles += model.layers.len() as u64;
    }

    // Stage 3: cycle-level confirmation of the frontier only.
    let mut replay: Vec<Option<ReplayCheck>> = vec![None; schemes.len()];
    for &i in &frontier {
        let report = timing.report(&schemes[i], cfg.model, &cfg.timing)?;
        let latency = report.total_time();
        replay[i] = Some(ReplayCheck {
            latency,
            vs_analytic: latency.as_s() / objectives[i].latency.as_s(),
        });
    }

    let eval_after = eval.stats();
    let timing_after = timing.stats();
    let solver = timing.solver().stats().since(&solver_before);
    let stats = SearchStats {
        ilp_compiles,
        // Hits include coalesced waits on in-flight work: the split
        // between the two depends on worker timing, but their sum is
        // deterministic.
        eval_hits: (eval_after.hits + eval_after.coalesced)
            - (eval_before.hits + eval_before.coalesced),
        eval_misses: eval_after.misses - eval_before.misses,
        timing_hits: (timing_after.hits + timing_after.coalesced)
            - (timing_before.hits + timing_before.coalesced),
        timing_misses: timing_after.misses - timing_before.misses,
        ..SearchStats::of_solver(&solver)
    };

    Ok(outcome(
        params,
        schemes,
        objectives,
        ilp.into_iter().zip(replay),
        survivors,
        frontier,
        stats,
    ))
}

/// The baseline the engine's speedup is measured against: every point of
/// the space pays the full cost — a direct (uncached) analytic evaluation,
/// a cold per-config ILP compile of every layer, and a cold replay for
/// each frontier point. No pruning, no sharing; `cfg.jobs` is ignored (the
/// baseline is sequential). Produces the exact same frontier as
/// [`search`].
///
/// # Errors
///
/// As for [`search`].
pub fn search_naive(space: &SearchSpace, cfg: &SearchConfig) -> Result<SearchOutcome> {
    let params = space.points();
    let schemes = build_schemes(&params)?;
    let model = cfg.model.build();

    let mut objectives = Vec::with_capacity(schemes.len());
    let mut ilp = Vec::with_capacity(schemes.len());
    let mut solver_totals = SolverContextStats::default();
    for scheme in &schemes {
        let report = evaluate(scheme, &model, cfg.batch);
        objectives.push(objectives_of(
            scheme,
            report.total_time,
            report.energy_per_image(),
        ));
        // A fresh context per config: nothing warm-starts, by construction.
        let solver = SolverContext::new();
        ilp.push(Some(ilp_metrics(
            scheme,
            &model,
            cfg.timing.max_iterations,
            &solver,
        )?));
        solver_totals += solver.stats();
    }

    let survivors: Vec<usize> = (0..schemes.len()).collect();
    let frontier = pareto_frontier(&objectives);

    // Each frontier replay is a full simulation on a fresh context of its
    // own, as `simulate_scheme` runs it; its branch & bound work counts in
    // the run's nodes, pivots and bound flips.
    let mut replay: Vec<Option<ReplayCheck>> = vec![None; schemes.len()];
    for &i in &frontier {
        let solver = SolverContext::new();
        let report = prepare_model_ctx(&schemes[i], &model, cfg.timing.max_iterations, &solver)?
            .replay(&cfg.timing);
        let s = solver.stats();
        solver_totals.nodes += s.nodes;
        solver_totals.pivots += s.pivots;
        solver_totals.bound_flips += s.bound_flips;
        let latency = report.total_time();
        replay[i] = Some(ReplayCheck {
            latency,
            vs_analytic: latency.as_s() / objectives[i].latency.as_s(),
        });
    }

    let stats = SearchStats {
        ilp_compiles: schemes.len() as u64 * model.layers.len() as u64,
        eval_hits: 0,
        eval_misses: schemes.len() as u64,
        timing_hits: 0,
        timing_misses: frontier.len() as u64,
        ..SearchStats::of_solver(&solver_totals)
    };

    Ok(outcome(
        params,
        schemes,
        objectives,
        ilp.into_iter().zip(replay),
        survivors,
        frontier,
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_units::rng::Rng;

    fn tiny() -> SearchSpace {
        SearchSpace {
            windows: vec![None, Some(3)],
            random_banks: vec![256],
            kinds: vec![smart_cryomem::array::RandomArrayKind::PipelinedCmosSfq],
            shift_kb: vec![32, 64],
            random_mb: vec![14, 28],
            shift_banks: 256,
        }
    }

    #[test]
    fn engine_and_naive_agree_on_the_frontier() {
        let space = tiny();
        let cfg = SearchConfig::new(2);
        let eval = EvalCache::new();
        let timing = TimingCache::new();
        let fast = search(&space, &cfg, &eval, &timing).expect("searches");
        let naive = search_naive(&space, &cfg).expect("searches");
        assert_eq!(fast.frontier, naive.frontier);
        for (a, b) in fast.points.iter().zip(&naive.points) {
            assert_eq!(a.objectives, b.objectives);
        }
        // Pruned points carry no ILP metrics; survivors' schedules match
        // the naive run's exactly — warm starts are solution-transparent —
        // though the branch & bound may take a different number of nodes
        // to prove the same optimum.
        for &i in &fast.survivors {
            let (a, b) = (
                fast.points[i].ilp.expect("survivor"),
                naive.points[i].ilp.expect("all naive points"),
            );
            assert_eq!(a.objective, b.objective, "point {i}");
            assert_eq!(
                (a.shift_bytes, a.random_bytes, a.dram_bytes),
                (b.shift_bytes, b.random_bytes, b.dram_bytes),
                "point {i}"
            );
        }
        for (i, p) in fast.points.iter().enumerate() {
            assert_eq!(p.ilp.is_some(), fast.survivors.contains(&i));
            assert_eq!(p.replay.is_some(), fast.frontier.contains(&i));
        }
    }

    /// Up to `n` distinct values of `axis`, in grid order.
    fn draw<T: Copy>(rng: &mut Rng, axis: &[T], n: usize) -> Vec<T> {
        let mut picked: Vec<usize> = (0..axis.len()).collect();
        for i in 0..n.min(axis.len()) {
            let j = i + (rng.next_u64() % (axis.len() - i) as u64) as usize;
            picked.swap(i, j);
        }
        picked.truncate(n);
        picked.sort_unstable();
        picked.into_iter().map(|i| axis[i]).collect()
    }

    #[test]
    fn engine_and_naive_agree_on_random_grids() {
        // Grids of at most 8 points, each axis one or two values of the
        // 1000-point grid's: the naive run compiles every layer on a fresh
        // context (the cold root LP), the engine warm-starts and replays
        // from its memo, and both must land on the same bits.
        let full = SearchSpace::default_grid();
        let mut rng = Rng::new(0x5eed_0005);
        for grid in 0..8 {
            let mut sizes = [0; 5].map(|_| 1 + (rng.next_u64() % 2) as usize);
            while sizes.iter().product::<usize>() > 8 {
                sizes[(rng.next_u64() % 5) as usize] = 1;
            }
            let space = SearchSpace {
                windows: draw(&mut rng, &full.windows, sizes[0]),
                random_banks: draw(&mut rng, &full.random_banks, sizes[1]),
                kinds: draw(&mut rng, &full.kinds, sizes[2]),
                shift_kb: draw(&mut rng, &full.shift_kb, sizes[3]),
                random_mb: draw(&mut rng, &full.random_mb, sizes[4]),
                shift_banks: full.shift_banks,
            };
            let cfg = SearchConfig::new(2);
            let fast = search(&space, &cfg, &EvalCache::new(), &TimingCache::new()).expect("ok");
            let naive = search_naive(&space, &cfg).expect("searches");
            assert_eq!(fast.frontier, naive.frontier, "grid {grid}: {space:?}");
            let bits = |o: &Objectives| [o.latency.as_s(), o.energy.as_j(), o.area.as_mm2()];
            for (a, b) in fast.points.iter().zip(&naive.points) {
                let (a, b) = (bits(&a.objectives), bits(&b.objectives));
                assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "grid {grid}");
            }
            for &i in &fast.survivors {
                let (a, b) = (
                    fast.points[i].ilp.expect("survivor"),
                    naive.points[i].ilp.expect("all naive points"),
                );
                assert_eq!(
                    a.objective.to_bits(),
                    b.objective.to_bits(),
                    "grid {grid} point {i}"
                );
                assert_eq!(
                    (a.shift_bytes, a.random_bytes, a.dram_bytes),
                    (b.shift_bytes, b.random_bytes, b.dram_bytes),
                    "grid {grid} point {i}"
                );
            }
        }
    }

    #[test]
    fn frontier_is_a_subset_of_survivors() {
        let space = tiny();
        let cfg = SearchConfig::new(1);
        let out = search(&space, &cfg, &EvalCache::new(), &TimingCache::new()).expect("searches");
        for i in &out.frontier {
            assert!(out.survivors.contains(i));
        }
        assert!(out.stats.frontier <= out.stats.survivors);
        assert_eq!(out.stats.space, space.len());
        assert_eq!(out.stats.pruned + out.stats.survivors, out.stats.space);
    }

    #[test]
    fn a_negative_or_non_finite_epsilon_is_invalid_input() {
        // At ε = -0.05 a point within 5% of another in every objective,
        // and better in one, prunes it, so near points prune each other
        // (frontier points included, which would reach stage 3 without ILP
        // metrics); a NaN ε would prune nothing.
        for epsilon in [-0.05, -f64::MIN_POSITIVE, f64::NAN, f64::INFINITY] {
            let cfg = SearchConfig {
                epsilon,
                ..SearchConfig::new(1)
            };
            let r = search(&tiny(), &cfg, &EvalCache::new(), &TimingCache::new());
            assert!(
                matches!(r, Err(SmartError::InvalidInput { .. })),
                "{epsilon}: {r:?}"
            );
        }
        let cfg = SearchConfig {
            epsilon: 0.0,
            ..SearchConfig::new(1)
        };
        assert!(search(&tiny(), &cfg, &EvalCache::new(), &TimingCache::new()).is_ok());
    }

    #[test]
    fn outcome_is_identical_across_jobs() {
        let space = tiny();
        let runs: Vec<SearchOutcome> = [1usize, 2, 4]
            .iter()
            .map(|&jobs| {
                let cfg = SearchConfig::new(jobs);
                search(&space, &cfg, &EvalCache::new(), &TimingCache::new()).expect("searches")
            })
            .collect();
        for run in &runs[1..] {
            assert_eq!(run.frontier, runs[0].frontier);
            assert_eq!(run.survivors, runs[0].survivors);
            for (a, b) in run.points.iter().zip(&runs[0].points) {
                assert_eq!(a.objectives, b.objectives);
                assert_eq!(a.ilp, b.ilp);
                assert_eq!(a.replay, b.replay);
            }
        }
    }

    #[test]
    fn warm_engine_reuses_where_naive_cannot() {
        let space = tiny();
        let cfg = SearchConfig::new(1);
        let timing = TimingCache::new();
        let fast = search(&space, &cfg, &EvalCache::new(), &timing).expect("ok");
        let naive = search_naive(&space, &cfg).expect("ok");
        assert!(
            fast.stats.ilp_compiles <= naive.stats.ilp_compiles,
            "pruning must not add compiles"
        );
        // The engine's branch & bound work is its context's; the naive
        // run's spans a context per config and per frontier replay.
        let shared = timing.solver().stats();
        assert_eq!(
            (fast.stats.nodes, fast.stats.pivots),
            (shared.nodes, shared.pivots)
        );
        assert!(
            naive.stats.pivots > fast.stats.pivots,
            "{:?} vs {:?}",
            naive.stats,
            fast.stats
        );
        assert_eq!(naive.stats.warm_attempts, 0, "naive never warm-starts");
        assert!(
            fast.stats.warm_attempts + fast.stats.solution_hits > 0,
            "engine reuses bases or memoized solutions: {:?}",
            fast.stats
        );
        assert_eq!(naive.stats.pruned, 0);
    }

    #[test]
    fn replay_confirms_analytic_latency() {
        let out = search(
            &tiny(),
            &SearchConfig::new(2),
            &EvalCache::new(),
            &TimingCache::new(),
        )
        .expect("searches");
        for p in out.frontier_points() {
            let check = p.replay.expect("frontier points are replayed");
            assert!(check.latency.as_s() > 0.0);
            assert!(
                check.vs_analytic > 0.5 && check.vs_analytic < 3.0,
                "replay/analytic = {} for {}",
                check.vs_analytic,
                p.params.name
            );
            let m = p.ilp.expect("frontier points carry ILP metrics");
            assert!(m.resident_fraction() > 0.0);
        }
    }
}
