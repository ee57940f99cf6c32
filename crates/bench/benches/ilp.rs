//! The CI-enforced performance harness for the numeric hot paths: the
//! warm-started ILP engine behind `ablation_ilp_vs_greedy`, the memoized
//! evaluator cache, the `parallel_map` worker pool, the `josim_*`
//! transient-circuit kernels (the adaptive sparse MNA engine against the
//! seed fixed-step dense engine on identical JTL and PTL netlists), the
//! `timing_*` cycle-level replay kernels (one-layer replay and cold
//! full-model compile + replay), the incremental-sweep paths (delta
//! replay against per-point simulation, plus the process-level
//! cold-vs-warm `--cache-dir` comparison), the design-space search engine
//! (the staged warm-started search against naive per-config cold solves
//! over the 1000-point grid, plus the pure pruning kernel), and the
//! multi-tenant serving dispatch kernel (the full saturation sweep grid
//! over prebuilt tenant profiles).
//!
//! Run it and refresh the committed baseline with:
//!
//! ```sh
//! cargo bench -p smart-bench --bench ilp -- --bench --save-json "$PWD/BENCH_ilp.json"
//! ```
//!
//! (The bench binary runs with the package directory as its cwd, so the
//! output path should be anchored to the workspace root.)
//!
//! CI runs the same harness in `--quick` mode, writes a fresh
//! `BENCH_ilp.new.json`, and fails the `bench` job if any `ilp_*`
//! benchmark regressed more than 25% against the committed `BENCH_ilp.json`
//! (see `bench_check`). Baselines are machine-relative: refresh the file
//! when the reference machine changes, not to absorb a regression.

use criterion::{criterion_group, criterion_main, Criterion};
use smart_bench::{ablation_ilp_vs_greedy, run_experiments, ExperimentContext};
use smart_compiler::formulation::{compile_layer_ctx, FormulationParams};
use smart_compiler::SolverContext;
use smart_core::cache::EvalCache;
use smart_core::scheme::Scheme;
use smart_josim::cells::{CellCircuit, CellSpec};
use smart_report::parallel_map;
use smart_sfq::cells::{JtlChainSpec, PtlLinkSpec};
use smart_systolic::dag::LayerDag;
use smart_systolic::layer::ConvLayer;
use smart_systolic::mapping::{ArrayShape, LayerMapping};
use smart_systolic::models::ModelId;
use std::hint::black_box;

/// The whole ILP-vs-greedy ablation (16 branch & bound searches: every
/// AlexNet layer at default and contested capacities) — the wall-clock
/// target of the PR-3 rewrite.
fn bench_ilp_ablation(c: &mut Criterion) {
    let ctx = ExperimentContext::single_threaded();
    c.bench_function("ilp_ablation_ilp_vs_greedy", |b| {
        b.iter(|| ablation_ilp_vs_greedy(black_box(&ctx)))
    });
}

/// One layer compilation, cold solver context each call (the per-layer
/// branch & bound cost on its own).
fn bench_ilp_compile_layer(c: &mut Criterion) {
    let layer = ConvLayer::conv("conv3", 13, 13, 256, 384, 3, 1, 1);
    let mapping = LayerMapping::map(&layer, ArrayShape::new(64, 256), 1);
    let dag = LayerDag::build(&mapping, 6);
    let params = FormulationParams::smart_default();
    c.bench_function("ilp_compile_conv3_cold_ctx", |b| {
        b.iter(|| compile_layer_ctx(black_box(&dag), black_box(&params), &SolverContext::new()))
    });
}

/// The compiler-side SHIFT-capacity sweep through one shared
/// `SolverContext`: every AlexNet layer compiled at 16, 32 and 64 KB.
/// After the first point, every root relaxation warm-starts from a stored
/// basis (rhs-only changes). Each iteration builds the model and its DAGs
/// and then compiles, all on a fresh context.
fn bench_ilp_warm_sweep(c: &mut Criterion) {
    c.bench_function("ilp_allocation_sweep_warm_3pts", |b| {
        b.iter(|| {
            let solver = SolverContext::new();
            let dags: Vec<LayerDag> = ModelId::AlexNet
                .build()
                .layers
                .iter()
                .map(|layer| {
                    LayerDag::build(&LayerMapping::map(layer, ArrayShape::new(64, 256), 1), 6)
                })
                .collect();
            [16u64, 32, 64].map(|kb| {
                let params = FormulationParams {
                    shift_capacity: kb * 1024,
                    ..FormulationParams::smart_default()
                };
                dags.iter()
                    .map(|dag| compile_layer_ctx(dag, &params, black_box(&solver)).objective)
                    .sum::<f64>()
            })
        })
    });
}

/// EvalCache hit path: the memoized lookup the sensitivity sweeps lean on.
fn bench_eval_cache_hit(c: &mut Criterion) {
    let cache = EvalCache::new();
    let scheme = Scheme::smart();
    let _ = cache.report(&scheme, ModelId::AlexNet, 1); // warm
    c.bench_function("eval_cache_hit_alexnet", |b| {
        b.iter(|| cache.report(black_box(&scheme), ModelId::AlexNet, 1))
    });
}

/// EvalCache miss path: one full evaluation plus the insertion.
fn bench_eval_cache_miss(c: &mut Criterion) {
    let scheme = Scheme::smart();
    c.bench_function("eval_cache_miss_alexnet", |b| {
        b.iter(|| {
            let cache = EvalCache::new();
            cache.report(black_box(&scheme), ModelId::AlexNet, 1)
        })
    });
}

/// `parallel_map` scaling over a fixed CPU-bound workload: 1 worker vs 4.
/// On a single-core runner the 4-way run measures pool overhead instead of
/// speedup — the gate only compares each variant against its own baseline.
fn bench_parallel_map(c: &mut Criterion) {
    let items: Vec<u64> = (0..8).collect();
    let work = |&seed: &u64| -> f64 {
        let mut acc = seed as f64 + 1.5;
        for i in 0..20_000u32 {
            acc = (acc * 1.000_000_11 + f64::from(i)).sqrt() + 1.0;
        }
        acc
    };
    let mut g = c.benchmark_group("parallel_map");
    g.bench_function("jobs1_8items", |b| {
        b.iter(|| parallel_map(1, black_box(&items), work))
    });
    g.bench_function("jobs4_8items", |b| {
        b.iter(|| parallel_map(4, black_box(&items), work))
    });
    g.finish();
}

/// The JTL-chain cells of the characterization sweep, built once; both
/// engine variants below simulate exactly these netlists.
fn jtl_sweep_cells() -> Vec<CellCircuit> {
    [4u32, 8, 12]
        .iter()
        .map(|&s| CellCircuit::build(&CellSpec::Jtl(JtlChainSpec::standard(s))))
        .collect()
}

/// The warm JTL sweep on the adaptive sparse engine: workspaces (sparsity
/// pattern, symbolic LU, buffers) are prepared once, so the loop measures
/// pure stepping — the PR-4 acceptance target is >= 2x over
/// `josim_jtl_sweep_fixed_dense` at matched flux accuracy.
fn bench_josim_jtl_adaptive(c: &mut Criterion) {
    let cells = jtl_sweep_cells();
    let mut workspaces: Vec<_> = cells
        .iter()
        .map(|w| w.engine().prepare_workspace())
        .collect();
    c.bench_function("josim_jtl_sweep_adaptive_sparse", |b| {
        b.iter(|| {
            for (cell, ws) in cells.iter().zip(workspaces.iter_mut()) {
                let m = cell.measure_adaptive(ws).expect("simulates");
                black_box(m);
            }
        })
    });
}

/// The same sweep on the seed engine: fixed 0.02 ps steps, dense LU
/// factored from scratch every Newton iteration.
fn bench_josim_jtl_fixed_dense(c: &mut Criterion) {
    let cells = jtl_sweep_cells();
    c.bench_function("josim_jtl_sweep_fixed_dense", |b| {
        b.iter(|| {
            for cell in &cells {
                let m = cell.measure_fixed().expect("simulates");
                black_box(m);
            }
        })
    });
}

/// A linear (junction-free) adaptive run: the 0.4 mm PTL ladder, where
/// the cached full/half-step factorizations make quiescent stretches
/// refactor nothing.
fn bench_josim_ptl_adaptive(c: &mut Criterion) {
    let cell = CellCircuit::build(&CellSpec::Ptl(PtlLinkSpec::from_mm(0.4)));
    let mut ws = cell.engine().prepare_workspace();
    c.bench_function("josim_ptl_adaptive_sparse", |b| {
        b.iter(|| {
            let m = cell.measure_adaptive(&mut ws).expect("simulates");
            black_box(m);
        })
    });
}

/// One VGG16 conv layer replayed through the SMART SPM: mapping, demand,
/// DAG, and schedule are prepared once, so the loop measures the pure
/// cycle-level replay engine (the `timing_*` experiments' inner kernel).
fn bench_timing_vgg_layer_replay(c: &mut Criterion) {
    use smart_systolic::trace::LayerDemand;
    use smart_timing::{replay_layer, LayerInstance, TimingConfig};

    let layer = ConvLayer::conv("conv4_2", 28, 28, 512, 512, 3, 1, 1);
    let scheme = Scheme::smart();
    let mapping = LayerMapping::map(&layer, scheme.config.shape, 1);
    let demand = LayerDemand::derive(&layer, &mapping);
    let dag = LayerDag::build(&mapping, 6);
    let spm = smart_timing::hetero_spm(&scheme).expect("heterogeneous");
    let schedule = compile_layer_ctx(
        &dag,
        &smart_timing::params_for(spm, scheme.policy),
        &SolverContext::new(),
    );
    let instance = LayerInstance {
        name: &layer.name,
        mapping: &mapping,
        demand: &demand,
        dag: &dag,
        schedule: &schedule,
    };
    let cfg = TimingConfig::nominal();
    c.bench_function("timing_vgg_layer_replay", |b| {
        b.iter(|| {
            replay_layer(
                black_box(&instance),
                spm,
                scheme.config.frequency,
                black_box(&cfg),
            )
        })
    });
}

/// Full-model replay: compile + replay every AlexNet layer on the SMART
/// scheme (the cost of one cold `timing_*` experiment point).
fn bench_timing_full_model_replay(c: &mut Criterion) {
    use smart_timing::{simulate_scheme, TimingConfig};

    let model = ModelId::AlexNet.build();
    let scheme = Scheme::smart();
    let cfg = TimingConfig::nominal();
    c.bench_function("timing_full_model_replay", |b| {
        b.iter(|| simulate_scheme(black_box(&scheme), black_box(&model), &cfg).expect("simulates"))
    });
}

/// The same full-model replay with the observability hooks in their
/// shipped-off state: the solver's span hooks behind a disabled tracer
/// plus the no-op timeline derivation on the finished report. CI gates
/// the ratio of this id over `timing_full_model_replay` at <= 1.03
/// (`bench_check --ratio-of/--ratio-to/--max-ratio`), pinning the
/// "tracing disabled is free" claim with a machine-independent number.
fn bench_timing_replay_traced_off(c: &mut Criterion) {
    use smart_timing::{simulate_scheme, trace_model_replay, TimingConfig};
    use smart_trace::Tracer;

    let model = ModelId::AlexNet.build();
    let scheme = Scheme::smart();
    let cfg = TimingConfig::nominal();
    let tracer = Tracer::disabled();
    c.bench_function("timing_full_model_replay_traced_off", |b| {
        b.iter(|| {
            let report =
                simulate_scheme(black_box(&scheme), black_box(&model), &cfg).expect("simulates");
            trace_model_replay(&report, black_box(&tracer), "replay/alexnet");
            report
        })
    });
}

/// A 16-point RANDOM-bandwidth sweep of AlexNet on SMART, two ways:
///
/// * `per_point_16pt` — one full `simulate_scheme` (ILP compile + replay)
///   per point, the pre-PR-6 cost of a sweep;
/// * `delta_16pt` — one `prepare_model_ctx` on a fresh context, then 16
///   cheap finish passes (delta replay, what `TimingCache::sweep` does for
///   its misses).
///
/// The acceptance target of the delta path is >= 5x over `per_point`.
fn bench_timing_sweep(c: &mut Criterion) {
    use smart_timing::{prepare_model_ctx, simulate_scheme, TimingConfig};

    let model = ModelId::AlexNet.build();
    let scheme = Scheme::smart();
    let nominal = TimingConfig::nominal();
    let cfgs: Vec<TimingConfig> = (1..=16)
        .map(|i| nominal.with_bandwidth_pct(i * 25))
        .collect();

    let mut g = c.benchmark_group("timing_sweep");
    g.bench_function("per_point_16pt", |b| {
        b.iter(|| {
            for cfg in &cfgs {
                black_box(simulate_scheme(&scheme, &model, cfg).expect("simulates"));
            }
        })
    });
    g.bench_function("delta_16pt", |b| {
        b.iter(|| {
            let prepass = prepare_model_ctx(
                &scheme,
                &model,
                nominal.max_iterations,
                &SolverContext::new(),
            )
            .expect("prepares");
            for cfg in &cfgs {
                black_box(prepass.replay(cfg));
            }
        })
    });
    g.finish();
}

/// Process-level cold vs warm: the two timing sweep experiments run with a
/// fresh context (cold) against a fresh context that first loads the
/// persisted stores a previous run saved (`--cache-dir` warm). The PR-6
/// acceptance target is warm >= 2x over cold.
fn bench_cold_vs_warm_process(c: &mut Criterion) {
    let selection = ["timing_random_bandwidth", "timing_buffer_depth"];
    let dir = std::env::temp_dir().join(format!("smart-bench-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let seed = ExperimentContext::single_threaded();
    let _ = run_experiments(&selection, &seed);
    seed.save_caches(&dir).expect("saves");

    let mut g = c.benchmark_group("cold_vs_warm_process");
    g.bench_function("cold", |b| {
        b.iter(|| {
            let ctx = ExperimentContext::single_threaded();
            black_box(run_experiments(&selection, &ctx))
        })
    });
    g.bench_function("warm", |b| {
        b.iter(|| {
            let ctx = ExperimentContext::single_threaded();
            ctx.load_caches(&dir);
            black_box(run_experiments(&selection, &ctx))
        })
    });
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// The benchmark search space: the full 1000-point grid under
/// `cargo bench`, the 18-point grid for the once-through smoke run under
/// `cargo test` (where a debug-build naive search of 1000 points would
/// take minutes).
fn search_space() -> smart_search::SearchSpace {
    if std::env::args().any(|a| a == "--bench") {
        smart_search::SearchSpace::default_grid()
    } else {
        smart_search::SearchSpace::small()
    }
}

/// The naive design-space baseline: every config pays a direct analytic
/// evaluation and a cold per-config ILP compile of all 8 AlexNet layers;
/// frontier replays start cold too. Sequential, like the engine's
/// ILP/replay stages, so the comparison isolates warm starts + pruning.
fn bench_search_cold(c: &mut Criterion) {
    use smart_search::{search_naive, SearchConfig};
    let space = search_space();
    let cfg = SearchConfig::new(1);
    c.bench_function("search_1000pt_cold", |b| {
        b.iter(|| search_naive(black_box(&space), &cfg).expect("searches"))
    });
}

/// The staged engine on shared caches: ε-dominance pruning gates the ILP
/// stage, survivors warm-start from grid neighbors through the timing
/// cache's solver context, and repeat sweeps (the warm-up iterations fill
/// the caches) are served memoized — the PR-7 acceptance target is >= 3x
/// over `search_1000pt_cold`.
fn bench_search_warm(c: &mut Criterion) {
    use smart_search::{search, SearchConfig};
    use smart_timing::TimingCache;
    let space = search_space();
    let cfg = SearchConfig::new(1);
    let eval = EvalCache::new();
    let timing = TimingCache::new();
    c.bench_function("search_1000pt_warm", |b| {
        b.iter(|| search(black_box(&space), &cfg, &eval, &timing).expect("searches"))
    });
}

/// The pure pruning kernel: ε-survivor selection plus the exact Pareto
/// frontier over the grid's precomputed objective triples (the O(N^2)
/// dominance passes, no evaluation).
fn bench_frontier_prune_rate(c: &mut Criterion) {
    use smart_search::{epsilon_survivors, pareto_frontier, search, Objectives, SearchConfig};
    use smart_timing::TimingCache;
    let space = search_space();
    let out = search(
        &space,
        &SearchConfig::new(1),
        &EvalCache::new(),
        &TimingCache::new(),
    )
    .expect("searches");
    let objs: Vec<Objectives> = out.points.iter().map(|p| p.objectives).collect();
    c.bench_function("frontier_prune_rate", |b| {
        b.iter(|| {
            let survivors = epsilon_survivors(black_box(&objs), 0.05);
            let frontier = pareto_frontier(black_box(&objs));
            black_box((survivors, frontier))
        })
    });
}

/// The serving dispatch simulator over prebuilt tenant profiles: the
/// full `serving_saturation` sweep grid (6 loads x 3 schemes under
/// `cargo bench`, 2 x 3 in the once-through smoke run under `cargo
/// test`) with the one-off `TenantProfile` prepasses paid outside the
/// loop — so the measurement is the pure queueing/dispatch kernel every
/// added sweep point costs.
fn bench_serving_saturation_sweep(c: &mut Criterion) {
    use smart_serving::{simulate, ServingConfig, Tenant, TenantProfile, Workload};
    use smart_timing::{TimingCache, TimingConfig};

    let tenants = vec![
        Tenant::of(ModelId::AlexNet, 3.0),
        Tenant::of(ModelId::MobileNet, 1.0),
    ];
    let cfg = TimingConfig::nominal();
    let cache = TimingCache::new();
    let schemes = [Scheme::heter(), Scheme::pipe(), Scheme::smart()];
    let profs: Vec<Vec<TenantProfile>> = schemes
        .iter()
        .map(|s| {
            tenants
                .iter()
                .map(|t| TenantProfile::build(s, t.model, &cfg, &cache).expect("heterogeneous"))
                .collect()
        })
        .collect();
    let capacities: Vec<f64> = profs
        .iter()
        .map(|p| {
            let total: f64 = tenants.iter().map(|t| t.weight).sum();
            1.0 / p
                .iter()
                .zip(&tenants)
                .map(|(p, t)| (t.weight / total) / p.standalone_rps())
                .sum::<f64>()
        })
        .collect();
    let loads: &[f64] = if std::env::args().any(|a| a == "--bench") {
        &[0.2, 0.4, 0.6, 0.8, 1.0, 1.2]
    } else {
        &[0.5, 1.0]
    };
    let slo: Vec<u64> = profs[0].iter().map(|p| p.standalone_cycles() * 8).collect();

    c.bench_function("serving_saturation_sweep", |b| {
        b.iter(|| {
            for (prof, &capacity) in profs.iter().zip(&capacities) {
                for &load in loads {
                    let w = Workload::poisson(tenants.clone(), load * capacity, 42);
                    black_box(simulate(
                        prof,
                        &w,
                        400,
                        &ServingConfig::fcfs().with_slo(slo.clone()),
                    ));
                }
            }
        })
    });
}

criterion_group!(
    benches,
    bench_ilp_ablation,
    bench_ilp_compile_layer,
    bench_ilp_warm_sweep,
    bench_eval_cache_hit,
    bench_eval_cache_miss,
    bench_parallel_map,
    bench_josim_jtl_adaptive,
    bench_josim_jtl_fixed_dense,
    bench_josim_ptl_adaptive,
    bench_timing_vgg_layer_replay,
    bench_timing_full_model_replay,
    bench_timing_replay_traced_off,
    bench_timing_sweep,
    bench_cold_vs_warm_process,
    bench_search_cold,
    bench_search_warm,
    bench_frontier_prune_rate,
    bench_serving_saturation_sweep,
);
criterion_main!(benches);
