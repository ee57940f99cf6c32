//! `design_search`: `smart_search::search` over the default 1000-point
//! grid (AlexNet, batch 1) with fresh caches each iteration, as
//! `pareto_search` runs it.
//!
//! An op is one design point; an iteration is one whole search, checked
//! point by point against a jobs-1 reference computed in set-up. The
//! traced run re-implements the engine stage by stage from the crates'
//! public functions, with a span per stage, and must reproduce `search()`
//! exactly.

use crate::spans::Spans;
use crate::stats::{self, median, ms, Metric};
use crate::{counter_metrics, Args, Report, JOBS};
use smart_bench::ExperimentContext;
use smart_compiler::formulation::compile_layer_ctx;
use smart_core::scheme::Scheme;
use smart_core::ChipArea;
use smart_report::parallel_map;
use smart_search::{
    epsilon_survivors, pareto_frontier, search, EvaluatedPoint, IlpMetrics, Objectives,
    ReplayCheck, SearchConfig, SearchOutcome, SearchSpace, SearchStats,
};
use smart_systolic::dag::LayerDag;
use smart_systolic::mapping::LayerMapping;
use smart_systolic::trace::LayerDemand;
use smart_timing::{hetero_spm, params_for, prepare_model_ctx};
use smart_trace::MetricsSnapshot;
use std::time::{Duration, Instant};

/// The jobs-1 reference search and the context it ran in (its timing
/// cache holds the frontier replays the traced run is checked against).
struct Reference {
    ctx: ExperimentContext,
    outcome: SearchOutcome,
}

fn setup() -> Result<Reference, String> {
    let ctx = ExperimentContext::new(1);
    let outcome = search(
        &SearchSpace::default_grid(),
        &SearchConfig::new(1),
        &ctx.cache,
        &ctx.timing,
    )
    .map_err(|e| format!("reference search: {e}"))?;
    Ok(Reference { ctx, outcome })
}

fn objective_bits(o: &Objectives) -> [u64; 3] {
    [
        o.latency.as_s().to_bits(),
        o.energy.as_j().to_bits(),
        o.area.as_mm2().to_bits(),
    ]
}

fn membership(indices: &[usize], n: usize) -> Vec<bool> {
    let mut member = vec![false; n];
    for &i in indices {
        if let Some(m) = member.get_mut(i) {
            *m = true;
        }
    }
    member
}

/// Design points of `out` that differ from the reference: objective bits,
/// ILP metrics, replay check, or survivor/frontier membership.
fn mismatches(reference: &SearchOutcome, out: &SearchOutcome) -> u64 {
    let n = reference.points.len();
    if out.points.len() != n
        || out.survivors != reference.survivors
        || out.frontier != reference.frontier
    {
        return n as u64;
    }
    let member = |o: &SearchOutcome| (membership(&o.survivors, n), membership(&o.frontier, n));
    let ((rs, rf), (os, of)) = (member(reference), member(out));
    (0..n)
        .filter(|&i| {
            let (a, b) = (&out.points[i], &reference.points[i]);
            objective_bits(&a.objectives) != objective_bits(&b.objectives)
                || a.ilp != b.ilp
                || a.replay != b.replay
                || os[i] != rs[i]
                || of[i] != rf[i]
        })
        .count() as u64
}

/// One untraced iteration: a fresh context and one whole search.
fn iteration() -> Result<(Duration, SearchOutcome, MetricsSnapshot), String> {
    let start = Instant::now();
    let ctx = ExperimentContext::new(JOBS);
    let out = search(
        &SearchSpace::default_grid(),
        &SearchConfig::new(JOBS),
        &ctx.cache,
        &ctx.timing,
    )
    .map_err(|e| format!("search: {e}"))?;
    Ok((start.elapsed(), out, ctx.metrics_snapshot()))
}

pub fn run(args: &Args, spans: &mut Spans) -> Result<Report, String> {
    let (reference, setups) = stats::repeated_setup(args.setup_repeats(), setup)?;
    let mut report = Report::default();
    report.info.push(format!(
        "inputs: SearchSpace::default_grid() ({} points), AlexNet batch 1 (fixed; --seed is \
         recorded, not used)",
        reference.outcome.points.len()
    ));
    if args.trace {
        traced(args, &reference, spans, &mut report)?;
        return Ok(report);
    }

    let mut error = None;
    let times = stats::timed_loop(args.seconds, || match iteration() {
        Ok((elapsed, out, _)) => {
            report.attempted += reference.outcome.points.len() as u64;
            report.failed += mismatches(&reference.outcome, &out);
            elapsed
        }
        Err(e) => {
            error.get_or_insert(e);
            Duration::ZERO
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    let (metrics, info) = stats::end_to_end(&setups, &times);
    report.metrics = metrics;
    report.info.push(info);
    Ok(report)
}

/// Host time of each stage of one staged iteration, in ms.
#[derive(Debug, Default, Clone, Copy)]
struct Stages {
    stage1: f64,
    prune: f64,
    prep: f64,
    compile: f64,
    prepass: f64,
    replay: f64,
    total: f64,
    /// Branch & bound nodes of the ILP enrichment stage alone.
    compile_nodes: u64,
}

/// `search()` rebuilt stage by stage from public functions, one span per
/// stage (and per frontier replay). Returns the stage times and the
/// outcome; `report` gets the differential checks.
fn staged(
    id: usize,
    spans: &mut Spans,
    reference: &Reference,
    report: &mut Report,
) -> Result<(Stages, SearchOutcome), String> {
    let cfg = SearchConfig::new(JOBS);
    let model = cfg.model.build();
    let mut st = Stages::default();
    let root = spans.open(id, "design_search iteration", None);
    let ctx = ExperimentContext::new(JOBS);
    let solver = ctx.timing.solver();

    // Stage 1: build every point's geometry, then analytic objectives
    // through the eval cache on the worker pool.
    let span = spans.open(id, "search.stage1", Some(root));
    let params = SearchSpace::default_grid().points();
    let schemes: Vec<Scheme> = params
        .iter()
        .map(|p| p.build().map_err(|e| format!("point {}: {e}", p.name)))
        .collect::<Result<_, _>>()?;
    let objectives: Vec<Objectives> = parallel_map(cfg.jobs, &schemes, |scheme| {
        let r = ctx.cache.report(scheme, cfg.model, cfg.batch);
        Objectives {
            latency: r.total_time,
            energy: r.energy_per_image(),
            area: ChipArea::of(&scheme.spm, scheme.config.shape).total(),
        }
    });
    st.stage1 = ms(spans.close(span));

    let span = spans.open(id, "search.prune", Some(root));
    let survivors = epsilon_survivors(&objectives, cfg.epsilon);
    let frontier = pareto_frontier(&objectives);
    st.prune = ms(spans.close(span));

    // Stage 2: ILP enrichment of the survivors, in enumeration order
    // through one shared solver context; mapping/demand/DAG time is
    // split from the compile.
    let span = spans.open(id, "search.stage2", Some(root));
    let nodes_before = solver.stats().nodes;
    let mut ilp: Vec<Option<IlpMetrics>> = vec![None; schemes.len()];
    let (mut prep, mut compile) = (Duration::ZERO, Duration::ZERO);
    for &i in &survivors {
        let scheme = &schemes[i];
        let spm = hetero_spm(scheme).map_err(|e| e.to_string())?;
        let fp = params_for(spm, scheme.policy);
        let mut m = IlpMetrics {
            objective: 0.0,
            nodes: 0,
            shift_bytes: 0,
            random_bytes: 0,
            dram_bytes: 0,
        };
        for layer in &model.layers {
            let t0 = Instant::now();
            let mapping = LayerMapping::map(layer, scheme.config.shape, 1);
            std::hint::black_box(LayerDemand::derive(layer, &mapping));
            let dag = LayerDag::build(&mapping, cfg.timing.max_iterations);
            let t1 = Instant::now();
            let schedule = compile_layer_ctx(&dag, &fp, solver);
            compile += t1.elapsed();
            prep += t1 - t0;
            let (shift, random, dram) = schedule.bytes_by_location(&dag);
            m.objective += schedule.objective;
            m.nodes += schedule.nodes;
            m.shift_bytes += shift;
            m.random_bytes += random;
            m.dram_bytes += dram;
        }
        ilp[i] = Some(m);
    }
    spans.close(span);
    st.compile_nodes = solver.stats().nodes - nodes_before;
    (st.prep, st.compile) = (ms(prep), ms(compile));

    // Stage 3: prepass + replay of the frontier, each checked against the
    // reference timing cache's report for the same point.
    let span = spans.open(id, "search.stage3", Some(root));
    let mut replay: Vec<Option<ReplayCheck>> = vec![None; schemes.len()];
    let mut replays_equal = true;
    for &i in &frontier {
        let scheme = &schemes[i];
        let point = spans.open(
            id,
            &format!("timing.prepass {}", params[i].name),
            Some(span),
        );
        let prepass = prepare_model_ctx(scheme, &model, cfg.timing.max_iterations, solver)
            .map_err(|e| e.to_string())?;
        st.prepass += ms(spans.close(point));
        let point = spans.open(id, &format!("timing.replay {}", params[i].name), Some(span));
        let timing = prepass.replay(&cfg.timing);
        st.replay += ms(spans.close(point));
        let expected = reference
            .ctx
            .timing
            .report(scheme, cfg.model, &cfg.timing)
            .map_err(|e| e.to_string())?;
        replays_equal &= *expected == timing;
        let latency = timing.total_time();
        replay[i] = Some(ReplayCheck {
            latency,
            vs_analytic: latency.as_s() / objectives[i].latency.as_s(),
        });
    }
    spans.close(span);
    st.total = ms(spans.close(root));

    report.check(
        format!(
            "iteration {id}: every frontier prepare_model_ctx+replay equals TimingCache::report"
        ),
        replays_equal,
    );
    let solved = solver.stats();
    let expected: &SearchStats = &reference.outcome.stats;
    report.check(
        format!("iteration {id}: staged ILP counters equal search()'s"),
        (
            solved.cold_solves,
            solved.warm_attempts,
            solved.warm_hits,
            solved.solution_hits,
        ) == (
            expected.cold_solves,
            expected.warm_attempts,
            expected.warm_hits,
            expected.solution_hits,
        ) && solved == reference.ctx.timing.solver().stats(),
    );
    let points = params
        .into_iter()
        .zip(schemes)
        .zip(objectives)
        .zip(ilp.into_iter().zip(replay))
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
    let outcome = SearchOutcome {
        points,
        stats: SearchStats::default(),
        survivors,
        frontier,
    };
    Ok((st, outcome))
}

/// The traced run: alternating untraced searches (the baseline of the
/// coverage and overhead ratios, and the source of the work counters)
/// and staged, traced ones.
fn traced(
    args: &Args,
    reference: &Reference,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<(), String> {
    let start = Instant::now();
    let points = reference.outcome.points.len();
    let (mut untraced, mut runs, mut counters) = (Vec::new(), Vec::new(), Vec::new());
    while runs.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let (elapsed, out, snap) = iteration()?;
        report.attempted += points as u64;
        report.failed += mismatches(&reference.outcome, &out);
        untraced.push(ms(elapsed));
        counters = counter_metrics(&snap);

        let (stages, out) = staged(runs.len(), spans, reference, report)?;
        report.attempted += points as u64;
        report.failed += mismatches(&reference.outcome, &out);
        runs.push(stages);
    }
    let med = |f: fn(&Stages) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let base = median(&untraced);
    let stats = &reference.outcome.stats;
    let compile_ms = med(|s| s.compile);
    let compile_nodes = runs[0].compile_nodes;
    let staged_ms = med(|s| s.stage1 + s.prune + s.prep + s.compile + s.prepass + s.replay);
    let mut metrics = vec![
        Metric::new("search.stage1_ms", med(|s| s.stage1), "ms"),
        Metric::new("search.prune_ms", med(|s| s.prune), "ms"),
        Metric::new("systolic.prep_ms", med(|s| s.prep), "ms"),
        Metric::new("compiler.compile_ms", compile_ms, "ms"),
        Metric::new("timing.prepass_ms", med(|s| s.prepass), "ms"),
        Metric::new("timing.replay_ms", med(|s| s.replay), "ms"),
        Metric::new("search.points", stats.space as f64, "count"),
        Metric::new("search.survivors", stats.survivors as f64, "count"),
        Metric::new("search.frontier", stats.frontier as f64, "count"),
        Metric::new(
            "search.prune_rate",
            stats.pruned as f64 / stats.space.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "compiler.us_per_node",
            if compile_nodes > 0 {
                1e3 * compile_ms / compile_nodes as f64
            } else {
                0.0
            },
            "us",
        ),
        Metric::new("search.trace_coverage", staged_ms / base, "ratio"),
        Metric::new(
            "trace.overhead_pct",
            100.0 * (med(|s| s.total) / base - 1.0),
            "%",
        ),
    ];
    metrics.extend(counters);
    report.metrics = metrics;
    report.info.push(format!(
        "traced: {} staged iterations, {} untraced (baseline of coverage and overhead); \
         work counters from the untraced search's metrics snapshot",
        runs.len(),
        untraced.len()
    ));
    Ok(())
}
