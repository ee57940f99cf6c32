//! Golden-value regression tests over the *typed* experiment results.
//!
//! Instead of string-matching the rendered reports, these assert the key
//! numbers of the paper's headline figures straight out of the
//! [`ResultTable`] cells, with a 2% band so that benign floating-point
//! reorderings don't trip them but a real model regression does.

use smart_bench::{run_experiment, ExperimentContext};
use smart_report::{ResultTable, Value};

fn ctx() -> ExperimentContext {
    ExperimentContext::new(2)
}

fn display(t: &ResultTable, row: usize, col: usize) -> f64 {
    t.rows[row][col]
        .as_display_f64()
        .unwrap_or_else(|| panic!("{}[{row}][{col}] is not numeric", t.name))
}

fn assert_close(got: f64, golden: f64, what: &str) {
    let rel = (got - golden).abs() / golden.abs().max(1e-12);
    assert!(
        rel < 0.02,
        "{what}: got {got}, golden {golden} (rel {rel:.4})"
    );
}

/// Fig. 18 golden values: per-model single-image speedups over TPU for the
/// SHIFT (SuperNPU) and SMART columns, plus both gmeans.
#[test]
fn fig18_per_model_speedups() {
    let t = run_experiment("fig18", &ctx()).expect("fig18");
    // Columns: model, SHIFT, SRAM, Heter, Pipe, SMART.
    const SHIFT: usize = 1;
    const SMART: usize = 5;
    let golden = [
        ("AlexNet", 5.84, 18.68),
        ("FasterRCNN", 0.35, 12.90),
        ("GoogleNet", 4.46, 21.72),
        ("MobileNet", 8.39, 90.53),
        ("ResNet50", 2.36, 16.53),
        ("VGG16", 3.08, 16.26),
    ];
    assert_eq!(t.rows.len(), golden.len() + 1, "6 models + gmean");
    for (row, (model, shift, smart)) in golden.iter().enumerate() {
        assert_eq!(t.rows[row][0], Value::text(*model));
        assert_close(display(&t, row, SHIFT), *shift, &format!("{model} SHIFT"));
        assert_close(display(&t, row, SMART), *smart, &format!("{model} SMART"));
    }
    let gmean_row = golden.len();
    assert_eq!(t.rows[gmean_row][0], Value::text("gmean"));
    assert_close(display(&t, gmean_row, SHIFT), 2.86, "gmean SHIFT");
    assert_close(display(&t, gmean_row, SMART), 22.43, "gmean SMART");
}

/// Fig. 20 golden values: the paper's headline energy story — SMART's
/// gmean single-image energy lands well under TPU and under SuperNPU.
#[test]
fn fig20_gmean_energy() {
    let t = run_experiment("fig20", &ctx()).expect("fig20");
    let gmean_row = t.rows.len() - 1;
    assert_close(display(&t, gmean_row, 1), 2.687, "gmean SHIFT energy");
    assert_close(display(&t, gmean_row, 5), 0.143, "gmean SMART energy");
}

/// Table 4 golden values, asserted as typed cells rather than substrings.
#[test]
fn table4_typed_configs() {
    let t = run_experiment("table4", &ctx()).expect("table4");
    // Columns: config, clock(GHz), rows, cols, peak(TMAC/s), cryogenic.
    let golden = [
        ("TPU", 0.7, 256u64, 256u64, 45.9, false),
        ("SuperNPU", 52.6, 64, 256, 862.0, true),
        ("SMART", 52.6, 64, 256, 862.0, true),
    ];
    assert_eq!(t.rows.len(), golden.len());
    for (row, (name, ghz, rows, cols, peak, cryo)) in golden.iter().enumerate() {
        assert_eq!(t.rows[row][0], Value::text(*name));
        assert_close(display(&t, row, 1), *ghz, &format!("{name} clock"));
        assert_eq!(t.rows[row][2], Value::count(*rows));
        assert_eq!(t.rows[row][3], Value::count(*cols));
        assert_close(display(&t, row, 4), *peak, &format!("{name} peak"));
        assert_eq!(t.rows[row][5], Value::Bool(*cryo));
    }
}

/// Fig. 24 golden shape: prefetch saturates at the paper's `a = 3`.
#[test]
fn fig24_saturation_point() {
    let t = run_experiment("fig24", &ctx()).expect("fig24");
    let single: Vec<f64> = (0..t.rows.len()).map(|r| display(&t, r, 1)).collect();
    assert_close(single[2], 7.84, "a=3 single speedup");
    assert!(single[0] < single[2], "a=1 must trail a=3");
    assert_close(single[4], single[2], "a=5 saturates at a=3");
}

/// Fig. 13 and `josim_ptl` read the same cached PTL links: on one
/// context, fig13's length, model, josim and dev columns equal
/// josim_ptl's length, model, sim and dev columns cell for cell.
#[test]
fn fig13_reads_the_josim_ptl_measurements() {
    let ctx = ctx();
    let fig13 = run_experiment("fig13", &ctx).expect("fig13");
    let ptl = run_experiment("josim_ptl", &ctx).expect("josim_ptl");
    assert_eq!(fig13.rows.len(), ptl.rows.len());
    for (a, b) in fig13.rows.iter().zip(&ptl.rows) {
        assert_eq!(a[..4], b[..4], "fig13 row {a:?} vs josim_ptl row {b:?}");
    }
}

/// The engine is deterministic: a parallel run with a warm shared cache
/// produces exactly the tables of a sequential cold run.
#[test]
fn parallel_and_sequential_runs_agree() {
    let sequential = ExperimentContext::single_threaded();
    let parallel = ExperimentContext::new(4);
    for name in [
        "fig05",
        "fig07",
        "fig18",
        "fig25",
        "timing_random_bandwidth",
    ] {
        let a = run_experiment(name, &sequential).expect(name);
        let b = run_experiment(name, &parallel).expect(name);
        // Run fig18 twice on the parallel context: the second pass is
        // served from the cache and must be identical too.
        let c = run_experiment(name, &parallel).expect(name);
        assert_eq!(a, b, "{name}: parallel != sequential");
        assert_eq!(b, c, "{name}: cached != computed");
    }
}

/// Every experiment's table is finite and renderable in all three
/// formats. (The expensive sweeps run under `all_experiments --check` in
/// CI's `golden-snapshot` job; this covers the cheap majority.)
#[test]
fn tables_are_finite_and_render() {
    let ctx = ctx();
    for name in [
        "fig02",
        "table1",
        "table2",
        "fig05",
        "fig06",
        "fig07",
        "fig09",
        "fig12",
        "fig13",
        "fig14",
        "fig16",
        "fig17",
        "table4",
        "ablation_lane_length",
        "timing_random_bandwidth",
    ] {
        let t = run_experiment(name, &ctx).expect(name);
        assert!(t.non_finite_cells().is_empty(), "{name} not finite");
        assert!(!t.to_text().is_empty());
        assert!(t.to_csv().lines().count() > t.rows.len());
        assert!(t.to_json().starts_with('{') && t.to_json().ends_with('}'));
    }
}

/// Ablation golden values: the per-layer MIP objectives of the ILP
/// compiler, pinned tightly (1e-9 relative). The PR-3 solver rewrite
/// (sparse revised simplex, warm starts, incumbent seeding) must land on
/// exactly the objectives the dense-tableau solver proved optimal — any
/// drift here means the solver changed results, not just speed.
#[test]
fn ablation_ilp_objectives_pinned() {
    let t = run_experiment("ablation_ilp_vs_greedy", &ctx()).expect("ablation");
    let golden = [
        ("conv1", 1_792_657.2),
        ("conv2", 1_686_576.0),
        ("conv3", 1_254_133.8),
        ("conv4", 1_746_547.2),
        ("conv5", 1_018_204.2),
        ("fc6", 14_101.8),
        ("fc7", 8_974_558.8),
        ("fc8", 3_387_950.4),
    ];
    assert_eq!(t.rows.len(), golden.len());
    let pin = |got: f64, want: f64, what: &str| {
        let rel = (got - want).abs() / want.abs();
        assert!(rel < 1e-9, "{what}: got {got}, pinned {want} (rel {rel:e})");
    };
    for (row, (layer, objective)) in golden.iter().enumerate() {
        assert_eq!(t.rows[row][0], Value::text(*layer));
        pin(
            display(&t, row, 1),
            *objective,
            &format!("{layer} ILP objective"),
        );
        // At default capacities greedy is provably optimal too, so the ILP
        // column must equal the greedy column.
        pin(
            display(&t, row, 2),
            *objective,
            &format!("{layer} greedy objective"),
        );
    }
    let summary = |label: &str| -> f64 {
        t.summary
            .iter()
            .find(|(l, _)| l == label)
            .and_then(|(_, v)| v.as_display_f64())
            .unwrap_or_else(|| panic!("missing summary {label}"))
    };
    pin(summary("total ILP"), 19_874_729.4, "total ILP");
    pin(summary("contested greedy"), 1_723_078.2, "contested greedy");
    // No contested search stops at the node limit, so the contested total
    // is the proven optimum. It is pinned like the rest — a solver change
    // that moves it should be a conscious decision, not an accident.
    pin(summary("contested ILP"), 1_776_823.8, "contested ILP");
}

/// PR-7 cache round trip: a warm `--cache-dir` search must reproduce the
/// cold run's frontier table byte for byte, with the analytic and replay
/// stages served entirely from the persisted stores.
#[test]
fn search_cache_roundtrip_is_byte_identical() {
    use smart_search::{search, SearchConfig, SearchSpace};

    let dir = std::env::temp_dir().join(format!("smart-golden-search-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let space = SearchSpace::small();

    let cold_ctx = ctx();
    let cold = search(
        &space,
        &SearchConfig::new(2),
        &cold_ctx.cache,
        &cold_ctx.timing,
    )
    .expect("cold search");
    cold_ctx.save_caches(&dir).expect("saves");
    let cold_text = smart_bench::frontier_table("golden", "golden", &cold).to_string();

    let warm_ctx = ctx();
    warm_ctx.load_caches(&dir);
    let loaded = warm_ctx.metrics_snapshot();
    for store in ["warm.eval", "warm.timing"] {
        assert!(
            loaded.gauge(store).unwrap_or(0) > 0,
            "{store}: stores must load"
        );
    }
    let warm = search(
        &space,
        &SearchConfig::new(2),
        &warm_ctx.cache,
        &warm_ctx.timing,
    )
    .expect("warm search");
    let warm_text = smart_bench::frontier_table("golden", "golden", &warm).to_string();

    assert_eq!(cold_text, warm_text, "warm frontier table drifted");
    assert_eq!(
        warm.stats.eval_misses, 0,
        "analytic stage must be fully warm"
    );
    assert_eq!(
        warm.stats.timing_misses, 0,
        "replay stage must be fully warm"
    );
    std::fs::remove_dir_all(&dir).ok();
}
