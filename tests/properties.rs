//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use smart::compiler::formulation::{compile_layer_ctx, FormulationParams};
use smart::compiler::lifespan::analyze;
use smart::compiler::schedule::Location;
use smart::compiler::SolverContext;
use smart::ilp::problem::{Problem, Relation, Sense};
use smart::ilp::solver::Solver;
use smart::sfq::ptl::PtlGeometry;
use smart::spm::service::SpmService;
use smart::spm::shift::ShiftArray;
use smart::systolic::dag::LayerDag;
use smart::systolic::layer::ConvLayer;
use smart::systolic::mapping::{ArrayShape, LayerMapping};
use smart::units::{Energy, Frequency, Length, Power, Time};

/// Cases per property: 64 keeps CI bounded; `PROPTEST_CASES` overrides for
/// deeper soak runs. Read explicitly here (not left to the harness) so the
/// behavior is identical under the vendored shim and the real proptest,
/// where an explicit `with_cases` would otherwise pin the count.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Unit arithmetic: power * time == energy, associative sums.
    #[test]
    fn units_power_time_energy(mw in 0.0f64..1e3, ns in 0.0f64..1e6) {
        let e = Power::from_mw(mw) * Time::from_ns(ns);
        let expected = mw * 1e-3 * ns * 1e-9;
        prop_assert!((e.as_j() - expected).abs() <= 1e-12 * expected.max(1.0));
    }

    /// Unit conversions round-trip.
    #[test]
    fn units_round_trip(ps in 0.0f64..1e9) {
        let t = Time::from_ps(ps);
        prop_assert!((Time::from_ns(t.as_ns()).as_ps() - ps).abs() < 1e-6 * ps.max(1.0));
    }

    /// Frequency/period are inverse.
    #[test]
    fn frequency_period_inverse(ghz in 0.001f64..1e3) {
        let f = Frequency::from_ghz(ghz);
        let back = 1.0 / f.period().as_s();
        prop_assert!((back - f.as_si()).abs() < 1e-3 * f.as_si());
    }

    /// PTL delay is linear in length; impedance is length-independent.
    #[test]
    fn ptl_delay_linear(mm in 0.01f64..10.0, k in 2.0f64..8.0) {
        let g = PtlGeometry::hypres_microstrip();
        let d1 = g.line(Length::from_mm(mm)).delay().as_s();
        let d2 = g.line(Length::from_mm(mm * k)).delay().as_s();
        prop_assert!((d2 / d1 - k).abs() < 1e-9 * k);
    }

    /// SHIFT streaming time is monotone in words and never beats one cycle
    /// per bank-full.
    #[test]
    fn shift_stream_monotone(words_a in 1u64..1_000_000, extra in 1u64..1_000_000) {
        let a = ShiftArray::new(1 << 20, 64);
        let t1 = a.serve_stream(words_a, false).time;
        let t2 = a.serve_stream(words_a + extra, false).time;
        prop_assert!(t2.as_s() >= t1.as_s());
        let min_cycles = (words_a + extra).div_ceil(64);
        prop_assert!(t2.as_ns() >= 0.02 * min_cycles as f64 - 1e-9);
    }

    /// SHIFT rotation is capped at one lane revolution.
    #[test]
    fn shift_rotation_capped(distance in 0u64..u64::MAX / 2) {
        let a = ShiftArray::new(1 << 20, 64);
        let t = a.rotate_time(distance);
        let cap = 0.02e-9 * a.lane_bytes() as f64;
        prop_assert!(t.as_s() <= cap + 1e-15);
    }

    /// Layer mapping invariants: folds cover the GEMM, utilization in (0,1].
    #[test]
    fn mapping_invariants(
        hw in 4u32..64,
        in_c in 1u32..256,
        out_c in 1u32..512,
        kernel in 1u32..5,
        batch in 1u32..8,
    ) {
        prop_assume!(hw >= kernel);
        let layer = ConvLayer::conv("p", hw, hw, in_c, out_c, kernel, 1, 0);
        let m = LayerMapping::map(&layer, ArrayShape::new(64, 256), batch);
        prop_assert!(m.k_folds * 64 >= layer.gemm_k());
        prop_assert!((m.k_folds - 1) * 64 < layer.gemm_k());
        prop_assert!(m.m_folds * 256 >= layer.gemm_m());
        let u = m.peak_utilization();
        prop_assert!(u > 0.0 && u <= 1.0 + 1e-12);
        prop_assert_eq!(m.macs, layer.macs(batch));
    }

    /// Lifespans stay within the DAG's edge range and respect the prefetch
    /// window.
    #[test]
    fn lifespan_invariants(
        in_c in 16u32..128,
        out_c in 16u32..256,
        a in 1u32..6,
        iters in 2u32..10,
    ) {
        let layer = ConvLayer::conv("p", 14, 14, in_c, out_c, 3, 1, 1);
        let m = LayerMapping::map(&layer, ArrayShape::new(64, 256), 1);
        let dag = LayerDag::build(&m, iters);
        let spans = analyze(&dag, a);
        let max_edge = dag.edges.len() as u32 - 1;
        for ls in &spans {
            prop_assert!(ls.first_edge <= ls.last_edge);
            prop_assert!(ls.last_edge <= max_edge);
            prop_assert!(ls.prefetch_distance() < a);
            prop_assert!(ls.fetch_iteration <= ls.use_iteration);
        }
    }

    /// The ILP compiler never overfills the SHIFT staging arrays, whatever
    /// the capacity.
    #[test]
    fn compiler_respects_random_capacity(shift_kb in 1u64..64, random_kb in 4u64..512) {
        let layer = ConvLayer::conv("p", 27, 27, 96, 128, 3, 1, 1);
        let m = LayerMapping::map(&layer, ArrayShape::new(64, 256), 1);
        let dag = LayerDag::build(&m, 4);
        let mut params = FormulationParams::smart_default();
        params.shift_capacity = shift_kb * 1024;
        params.random_capacity = random_kb * 1024;
        let s = compile_layer_ctx(&dag, &params, &SolverContext::new());
        for edge in 0..dag.edges.len() as u32 {
            let resident: u64 = dag
                .objects
                .iter()
                .filter(|o| s.location_of(o.id) == Location::Random)
                .filter(|o| {
                    let ls = s.lifespans[o.id as usize];
                    ls.first_edge <= edge && edge <= ls.last_edge
                })
                .map(|o| o.bytes)
                .sum();
            prop_assert!(resident <= params.random_capacity);
        }
    }

    /// Branch & bound matches brute force on random 0/1 knapsacks.
    #[test]
    fn ilp_matches_brute_force(
        values in prop::collection::vec(1u32..50, 3..8),
        weights in prop::collection::vec(1u32..20, 3..8),
        cap in 10u32..60,
    ) {
        let n = values.len().min(weights.len());
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|_| p.binary()).collect();
        for i in 0..n {
            p.set_objective(vars[i], f64::from(values[i]));
        }
        let terms: Vec<_> = (0..n).map(|i| (vars[i], f64::from(weights[i]))).collect();
        p.add_constraint(&terms, Relation::Le, f64::from(cap));

        let got = Solver::new()
            .solve(&p, &SolverContext::new())
            .expect("knapsack always feasible")
            .objective;

        // Brute force.
        let mut best = 0u32;
        for mask in 0u32..(1 << n) {
            let w: u32 = (0..n).filter(|&i| mask >> i & 1 == 1).map(|i| weights[i]).sum();
            if w <= cap {
                let v: u32 = (0..n).filter(|&i| mask >> i & 1 == 1).map(|i| values[i]).sum();
                best = best.max(v);
            }
        }
        prop_assert!((got - f64::from(best)).abs() < 1e-6, "ilp {got} vs brute {best}");
    }

    /// Memoized evaluation is *identical* to direct evaluation: the cache
    /// layer must never change a result, whatever the scheme/model/batch.
    #[test]
    fn cached_evaluation_identical(
        scheme_idx in 0usize..6,
        model_idx in 0usize..6,
        batch in 1u32..8,
    ) {
        use smart::core::cache::EvalCache;
        use smart::core::eval::evaluate;
        use smart::core::scheme::Scheme;
        use smart::systolic::models::ModelId;

        let mut schemes = Scheme::figure18_set();
        schemes.push(Scheme::tpu());
        let scheme = &schemes[scheme_idx];
        let id = ModelId::ALL[model_idx];
        let cache = EvalCache::new();
        let direct = evaluate(scheme, &id.build(), batch);
        let cached = cache.report(scheme, id, batch);
        prop_assert_eq!(&*cached, &direct);
        // A second (hitting) lookup returns the same report again.
        let again = cache.report(scheme, id, batch);
        prop_assert_eq!(&*again, &direct);
    }

    /// The cycle-level replay is bounded below by the analytic compute
    /// ideal on random layer/mapping pairs, and its cycle accounting
    /// identity holds.
    #[test]
    fn timing_replay_bounded_below_by_compute(
        hw in 8u32..40,
        in_c in 8u32..128,
        out_c in 16u32..256,
        kernel in 1u32..4,
        depth in 1u32..5,
    ) {
        use smart::core::scheme::Scheme;
        use smart::systolic::layer::{CnnModel, ConvLayer};
        use smart::timing::{simulate_scheme, TimingConfig};

        let layer = ConvLayer::conv("p", hw, hw, in_c, out_c, kernel, 1, 1);
        let mapping = LayerMapping::map(&layer, ArrayShape::new(64, 256), 1);
        let model = CnnModel::new("p", vec![layer]);
        let cfg = TimingConfig::nominal().with_depth(depth);
        let sim = simulate_scheme(&Scheme::smart(), &model, &cfg).expect("heterogeneous");
        let report = &sim.layers[0];
        prop_assert!(report.is_consistent(), "{report:?}");
        prop_assert_eq!(report.compute_cycles, mapping.compute_cycles());
        prop_assert!(report.total_cycles >= mapping.compute_cycles());
        prop_assert!(report.random_occupancy() >= 0.0 && report.random_occupancy() <= 1.0);
    }

    /// In the stall-free regime (idealized RANDOM twin, buffer depth
    /// covering the prefetch window) the replay agrees with the analytic
    /// evaluator within 1% on random layer/window pairs.
    #[test]
    fn timing_stall_free_matches_analytic(
        hw in 8u32..40,
        in_c in 8u32..128,
        out_c in 16u32..256,
        window in 1u32..5,
    ) {
        use smart::core::scheme::{AllocationPolicy, Scheme};
        use smart::systolic::layer::{CnnModel, ConvLayer};
        use smart::timing::{max_layer_deviation, TimingConfig};

        let layer = ConvLayer::conv("p", hw, hw, in_c, out_c, 3, 1, 1);
        let model = CnnModel::new("p", vec![layer]);
        let mut scheme = Scheme::smart();
        scheme.policy = AllocationPolicy::Prefetch { window };
        let cfg = TimingConfig::nominal().with_depth(window.max(1));
        let dev = max_layer_deviation(&scheme, &model, &cfg, &SolverContext::new())
            .expect("heterogeneous");
        prop_assert!(dev < 0.01, "stall-free deviation {dev:.4}");
    }

    /// The replay simulator is a pure function: repeated simulations of
    /// the same `(scheme, model, config)` point are identical whether
    /// they go through the memoized cache or not (the `--jobs` fan-outs
    /// of the timing experiments rely on this).
    #[test]
    fn timing_replay_deterministic_through_cache(
        pct_idx in 0usize..3,
        depth in 1u32..4,
    ) {
        use smart::core::scheme::Scheme;
        use smart::systolic::models::ModelId;
        use smart::timing::{simulate_scheme, TimingCache, TimingConfig};

        let pct = [25u32, 50, 100][pct_idx];
        let cfg = TimingConfig::nominal().with_depth(depth).with_bandwidth_pct(pct);
        let scheme = Scheme::smart();
        let cache = TimingCache::new();
        let direct = simulate_scheme(&scheme, &ModelId::AlexNet.build(), &cfg).expect("ok");
        let cached = cache.report(&scheme, ModelId::AlexNet, &cfg).expect("ok");
        let again = cache.report(&scheme, ModelId::AlexNet, &cfg).expect("ok");
        prop_assert_eq!(&*cached, &direct);
        prop_assert_eq!(&*again, &direct);
    }

    /// SHIFT stream energy scales linearly with words.
    #[test]
    fn shift_energy_linear(words in 1u64..100_000) {
        let a = ShiftArray::new(1 << 16, 64);
        let e1 = a.stream_energy(words);
        let e2 = a.stream_energy(2 * words);
        prop_assert!((e2.as_si() / e1.as_si() - 2.0).abs() < 1e-9);
        prop_assert!(e1.as_si() > 0.0);
        let _: Energy = e1;
    }

    /// Delta replay is bit-identical to a full per-config simulation on
    /// random layer/config pairs: one prepass finished under each config
    /// equals compiling and replaying from scratch.
    #[test]
    fn timing_delta_replay_equals_full_replay(
        hw in 8u32..32,
        in_c in 8u32..96,
        out_c in 16u32..192,
        kernel in 1u32..4,
        depths in 1u32..5,
        pct_idx in 0usize..4,
    ) {
        use smart::core::scheme::Scheme;
        use smart::systolic::layer::{CnnModel, ConvLayer};
        use smart::timing::{prepare_model_ctx, simulate_scheme, TimingConfig};

        let layer = ConvLayer::conv("p", hw, hw, in_c, out_c, kernel, 1, 1);
        let model = CnnModel::new("p", vec![layer]);
        let pct = [10u32, 50, 100, 400][pct_idx];
        let cfgs: Vec<TimingConfig> = (1..=depths)
            .map(|d| TimingConfig::nominal().with_depth(d).with_bandwidth_pct(pct))
            .collect();
        let scheme = Scheme::smart();
        let prepass = prepare_model_ctx(&scheme, &model, cfgs[0].max_iterations, &SolverContext::new())
            .expect("heterogeneous");
        for cfg in &cfgs {
            let full = simulate_scheme(&scheme, &model, cfg).expect("heterogeneous");
            prop_assert_eq!(&prepass.replay(cfg), &full);
        }
    }

    /// A persisted-then-reloaded timing cache serves results bit-identical
    /// to the cold run that wrote it, without replaying, and re-saving the
    /// warm cache reproduces the same file bytes.
    #[test]
    fn timing_warm_reload_is_byte_identical(
        depth in 1u32..4,
        pct_idx in 0usize..3,
    ) {
        use smart::core::scheme::Scheme;
        use smart::systolic::models::ModelId;
        use smart::timing::{persist, ModelTimingReport, TimingCache, TimingConfig};
        use smart::units::memo::Persist;

        let pct = [25u32, 50, 100][pct_idx];
        let cfg = TimingConfig::nominal().with_depth(depth).with_bandwidth_pct(pct);
        let scheme = Scheme::smart();
        let (dir, resaved) = (unique_temp_dir("timing-warm"), unique_temp_dir("timing-resave"));
        let cold = TimingCache::new();
        let direct = cold.report(&scheme, ModelId::AlexNet, &cfg).expect("heterogeneous");
        persist::save(&cold, &dir).expect("saves");

        let warm = TimingCache::new();
        prop_assert_eq!(persist::load(&warm, &dir), 1);
        let reloaded = warm.report(&scheme, ModelId::AlexNet, &cfg).expect("heterogeneous");
        prop_assert_eq!(&*reloaded, &*direct);
        prop_assert_eq!(warm.stats().misses, 0);
        persist::save(&warm, &resaved).expect("saves");
        let bytes = |d: &std::path::Path| std::fs::read(d.join(ModelTimingReport::FILE_NAME)).expect("reads");
        prop_assert_eq!(bytes(&resaved), bytes(&dir));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&resaved).ok();
    }

    /// Same round trip for the analytic evaluation cache: warm results are
    /// bit-identical and served without evaluating.
    #[test]
    fn eval_warm_reload_is_byte_identical(
        batch in 1u32..16,
        id_idx in 0usize..3,
    ) {
        use smart::core::cache::{self, EvalCache};
        use smart::core::scheme::Scheme;
        use smart::systolic::models::ModelId;

        let id = [ModelId::AlexNet, ModelId::Vgg16, ModelId::ResNet50][id_idx];
        let scheme = Scheme::smart();
        let dir = unique_temp_dir("eval-warm");
        let cold = EvalCache::new();
        let direct = cold.report(&scheme, id, batch);
        cache::save(&cold, &dir).expect("saves");

        let warm = EvalCache::new();
        prop_assert_eq!(cache::load(&warm, &dir), 1);
        let reloaded = warm.report(&scheme, id, batch);
        prop_assert_eq!(&*reloaded, &*direct);
        prop_assert_eq!(warm.stats().misses, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Any truncation or byte corruption of a persisted store loads zero
    /// entries — the run falls back to cold, it never errors and never
    /// serves a damaged report.
    #[test]
    fn corrupt_cache_store_falls_back_to_cold(
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        use smart::core::cache::{self, EvalCache};
        use smart::core::{InferenceReport, Scheme};
        use smart::systolic::models::ModelId;
        use smart::units::memo::Persist;

        let dir = unique_temp_dir("eval-corrupt");
        let cold = EvalCache::new();
        let _ = cold.report(&Scheme::smart(), ModelId::AlexNet, 1);
        cache::save(&cold, &dir).expect("saves");
        let path = dir.join(InferenceReport::FILE_NAME);
        let good = std::fs::read(&path).expect("reads");

        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = (cut_frac * (good.len() - 1) as f64) as usize;
        std::fs::write(&path, &good[..cut]).expect("writes");
        prop_assert_eq!(cache::load(&EvalCache::new(), &dir), 0);

        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let at = (flip_frac * (good.len() - 1) as f64) as usize;
        let mut bad = good.clone();
        bad[at] ^= flip;
        std::fs::write(&path, &bad).expect("writes");
        prop_assert_eq!(cache::load(&EvalCache::new(), &dir), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The same for the two ILP stores: a truncated or corrupted file
    /// loads zero entries, the other file still loads, and a compile
    /// through the reloaded context equals the cold one.
    #[test]
    fn corrupt_ilp_store_falls_back_to_cold(
        which in 0usize..2,
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        use smart::ilp::{Basis, MipSolution};
        use smart::units::memo::Persist;

        let layer = ConvLayer::conv("c", 13, 13, 64, 64, 3, 1, 1);
        let dag = LayerDag::build(&LayerMapping::map(&layer, ArrayShape::new(64, 256), 1), 6);
        let params = FormulationParams::smart_default();
        let dir = unique_temp_dir("ilp-corrupt");
        let cold = SolverContext::new();
        let expected = compile_layer_ctx(&dag, &params, &cold);
        cold.save_to(&dir).expect("saves");
        let stored = cold.stats();
        let stored = [stored.stored_bases, stored.stored_solutions];
        prop_assert!(stored.iter().all(|&n| n > 0), "{:?}", stored);
        let path = dir.join([Basis::FILE_NAME, MipSolution::FILE_NAME][which]);
        let good = std::fs::read(&path).expect("reads");

        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = (cut_frac * (good.len() - 1) as f64) as usize;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let at = (flip_frac * (good.len() - 1) as f64) as usize;
        let mut flipped = good.clone();
        flipped[at] ^= flip;
        for bad in [&good[..cut], &flipped[..]] {
            std::fs::write(&path, bad).expect("writes");
            let warm = SolverContext::new();
            prop_assert_eq!(warm.load_from(&dir), stored[1 - which]);
            let loaded = warm.stats();
            let mut want = stored;
            want[which] = 0;
            prop_assert_eq!([loaded.stored_bases, loaded.stored_solutions], want);
            prop_assert_eq!(compile_layer_ctx(&dag, &params, &warm), expected.clone());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The persisted-key hash tells near-identical keys apart: a seeded
    /// vector of 0 to 64 words of every magnitude hashes, in both 64-bit
    /// halves, unlike itself with one bit flipped, with a zero word
    /// appended, and with two unequal words swapped.
    #[test]
    fn content_hash_separates_one_edit(seed in 0u64..u64::MAX) {
        use smart::units::codec::content_hash;
        use smart::units::rng::Rng;

        let mut rng = Rng::new(seed);
        let mut draw = |k: u64| rng.next_u64() % k;
        let words: Vec<u64> = (0..draw(65))
            .map(|_| u64::MAX >> draw(64) & draw(u64::MAX))
            .collect();
        let n = words.len() as u64;
        let mut edits = Vec::new();
        if n > 0 {
            let mut flipped = words.clone();
            flipped[draw(n) as usize] ^= 1 << draw(64);
            edits.push(("bit flip", flipped));
        }
        let mut longer = words.clone();
        longer.push(0);
        edits.push(("zero word appended", longer));
        if n > 1 {
            let (i, j) = (draw(n) as usize, draw(n) as usize);
            if words[i] != words[j] {
                let mut swapped = words.clone();
                swapped.swap(i, j);
                edits.push(("swap", swapped));
            }
        }
        let halves = |h: u128| ((h >> 64) as u64, h as u64);
        let (hi, lo) = halves(content_hash(&words));
        for (what, edited) in edits {
            let (edited_hi, edited_lo) = halves(content_hash(&edited));
            prop_assert!(edited_hi != hi && edited_lo != lo, "{} of {:?}", what, words);
        }
    }
}

/// A per-case scratch directory (pid + atomic counter, so concurrent test
/// threads and repeated cases never collide).
fn unique_temp_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "smart-prop-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The sparse revised simplex and the dense reference tableau agree on
    /// random feasible (and infeasible, and unbounded) LPs: same outcome
    /// kind, and equal objectives when both are optimal.
    #[test]
    fn sparse_and_dense_relaxations_agree(
        uppers in prop::collection::vec(1u32..8, 2..6),
        coefs in prop::collection::vec(1u32..12, 4..24),
        objs in prop::collection::vec(1u32..20, 2..6),
        rhs_a in 1u32..40,
        rhs_b in 1u32..40,
        relation_pick in 0u32..3,
        minimize in 0u32..2,
    ) {
        use smart::ilp::dense::solve_relaxation_dense;
        use smart::ilp::simplex::solve_relaxation;
        use smart::ilp::LpResult;

        let n = uppers.len().min(objs.len());
        let sense = if minimize == 1 { Sense::Minimize } else { Sense::Maximize };
        let mut p = Problem::new(sense);
        let vars: Vec<_> = (0..n)
            .map(|i| p.continuous(0.0, f64::from(uppers[i])))
            .collect();
        for i in 0..n {
            p.set_objective(vars[i], f64::from(objs[i]));
        }
        let rel = match relation_pick {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        let terms_a: Vec<_> = (0..n)
            .map(|i| (vars[i], f64::from(coefs[i % coefs.len()])))
            .collect();
        let terms_b: Vec<_> = (0..n)
            .map(|i| (vars[i], f64::from(coefs[(i + n) % coefs.len()])))
            .collect();
        p.add_constraint(&terms_a, Relation::Le, f64::from(rhs_a));
        p.add_constraint(&terms_b, rel, f64::from(rhs_b));

        let sparse = solve_relaxation(&p, &[]);
        let dense = solve_relaxation_dense(&p, &[]);
        match (&sparse, &dense) {
            (LpResult::Optimal(s), LpResult::Optimal(d)) => {
                let rel_err = (s.objective - d.objective).abs()
                    / d.objective.abs().max(1.0);
                prop_assert!(
                    rel_err < 1e-6,
                    "sparse {} vs dense {}",
                    s.objective,
                    d.objective
                );
            }
            (LpResult::Infeasible, LpResult::Infeasible)
            | (LpResult::Unbounded, LpResult::Unbounded) => {}
            (s, d) => prop_assert!(false, "outcome mismatch: sparse {s:?} vs dense {d:?}"),
        }
    }

    /// Warm-started branch & bound (live bases + dual simplex) reaches the
    /// same objective as a fully cold-started search on random knapsacks
    /// with a side constraint.
    #[test]
    fn warm_and_cold_branch_and_bound_agree(
        values in prop::collection::vec(1u32..50, 3..9),
        weights in prop::collection::vec(1u32..20, 3..9),
        cap in 10u32..60,
        pair_cap in 1u32..3,
    ) {
        let n = values.len().min(weights.len());
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|_| p.binary()).collect();
        for i in 0..n {
            p.set_objective(vars[i], f64::from(values[i]));
        }
        let terms: Vec<_> = (0..n).map(|i| (vars[i], f64::from(weights[i]))).collect();
        p.add_constraint(&terms, Relation::Le, f64::from(cap));
        // A second, tighter structure so branching actually happens.
        p.add_constraint(
            &[(vars[0], 1.0), (vars[1], 1.0)],
            Relation::Le,
            f64::from(pair_cap),
        );

        let warm = Solver::new().solve(&p, &SolverContext::new());
        let cold = Solver::new().with_warm_start(false).solve(&p, &SolverContext::new());
        prop_assert!(warm.is_ok() && cold.is_ok(), "knapsack must be feasible");
        let (w, c) = (warm.unwrap(), cold.unwrap());
        prop_assert!(
            (w.objective - c.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            w.objective,
            c.objective
        );
        prop_assert!(w.proven_optimal == c.proven_optimal);
    }

    /// A shared SolverContext (cross-solve warm starts) never changes
    /// results across an rhs sweep — only wall-clock.
    #[test]
    fn solver_context_reuse_is_transparent(
        values in prop::collection::vec(1u32..30, 3..7),
        weights in prop::collection::vec(1u32..15, 3..7),
        caps in prop::collection::vec(5u32..50, 2..5),
    ) {
        let n = values.len().min(weights.len());
        let ctx = SolverContext::new();
        for &cap in &caps {
            let mut p = Problem::new(Sense::Maximize);
            let vars: Vec<_> = (0..n).map(|_| p.binary()).collect();
            for i in 0..n {
                p.set_objective(vars[i], f64::from(values[i]));
            }
            let terms: Vec<_> = (0..n).map(|i| (vars[i], f64::from(weights[i]))).collect();
            p.add_constraint(&terms, Relation::Le, f64::from(cap));

            let with_ctx = Solver::new().solve(&p, &ctx);
            let fresh = Solver::new().solve(&p, &SolverContext::new());
            match (with_ctx, fresh) {
                (Ok(a), Ok(b)) => prop_assert!(
                    (a.objective - b.objective).abs() < 1e-6,
                    "cap {cap}: ctx {} vs fresh {}",
                    a.objective,
                    b.objective
                ),
                (a, b) => prop_assert!(a.is_ok() == b.is_ok(), "cap {cap}"),
            }
        }
    }

    /// The sparse LU (fixed symbolic pattern, no pivoting) and the dense
    /// partial-pivoting LU agree on random stamped MNA-style matrices:
    /// conductance ladders with random bridges and grounded diagonals —
    /// exactly the structure the circuit engine stamps.
    #[test]
    fn sparse_and_dense_lu_agree_on_stamped_mna(
        grounds in prop::collection::vec(1u32..100, 3..16),
        ladder in prop::collection::vec(1u32..100, 3..16),
        // Each entry encodes one bridge as (a, b, g) in base 16/16/50.
        bridges in prop::collection::vec(0u64..(16 * 16 * 50), 0..6),
        rhs in prop::collection::vec(1u32..100, 3..16),
    ) {
        use smart::josim::linalg::Matrix;
        use smart::josim::sparse::{SparseLu, SparseMatrix, SparsityPattern, SymbolicLu};

        let n = grounds.len().min(ladder.len()).min(rhs.len());
        prop_assume!(n >= 3);

        // Collect stamp positions (the engine's symbolic dry run).
        let mut positions = Vec::new();
        let mut stamps: Vec<(usize, usize, f64)> = Vec::new();
        let conduct = |a: usize, b: Option<usize>, g: f64, st: &mut Vec<(usize, usize, f64)>| {
            st.push((a, a, g));
            if let Some(b) = b {
                st.push((b, b, g));
                st.push((a, b, -g));
                st.push((b, a, -g));
            }
        };
        for i in 0..n {
            conduct(i, None, f64::from(grounds[i]) * 0.1, &mut stamps);
            if i > 0 {
                conduct(i, Some(i - 1), f64::from(ladder[i]) * 0.1, &mut stamps);
            }
        }
        for &enc in &bridges {
            let (a, b) = ((enc % 16) as usize % n, (enc / 16 % 16) as usize % n);
            let g = (enc / 256 + 1) as f64;
            if a != b {
                conduct(a, Some(b), g * 0.1, &mut stamps);
            }
        }
        for &(r, c, _) in &stamps {
            positions.push((r, c));
        }

        let mut sparse = SparseMatrix::zeros(SparsityPattern::from_positions(n, &positions));
        let mut dense = Matrix::zeros(n);
        for &(r, c, v) in &stamps {
            sparse.add(r, c, v);
            dense.add(r, c, v);
        }

        let mut slu = SparseLu::new(SymbolicLu::analyze(sparse.pattern()));
        slu.refactor(&sparse).expect("grounded ladder is nonsingular");
        let b: Vec<f64> = rhs.iter().take(n).map(|&v| f64::from(v)).collect();
        let xs = slu.solve(&b);
        let xd = dense.lu().expect("nonsingular").solve(&b);
        for (s, d) in xs.iter().zip(xd.iter()) {
            prop_assert!(
                (s - d).abs() < 1e-8 * d.abs().max(1.0),
                "sparse {s} vs dense {d}"
            );
        }
    }

    /// The adaptive sparse integrator agrees with a fine fixed-step dense
    /// run on single-junction fixtures across bias/kick operating points:
    /// same pulse count, and final flux within a few percent of Phi0.
    #[test]
    fn adaptive_matches_fine_fixed_on_jj_fixtures(
        bias_pm in 500u32..880,
        kick_pm in 400u32..750,
    ) {
        use smart::josim::circuit::Circuit;
        use smart::josim::engine::{Engine, TransientSpec};
        use smart::josim::waveform::Waveform;

        // Keep clear of the switching threshold: a borderline kick can
        // legitimately resolve either way under different integrators.
        let sum = bias_pm + kick_pm;
        prop_assume!(sum >= 1250 || sum <= 900);

        let phi0 = 2.067_833_848e-15;
        let ic = 100e-6;
        let r = 3.0;
        let c = phi0 / (2.0 * std::f64::consts::PI * ic * r * r);
        let mut ckt = Circuit::new();
        let n = ckt.node();
        ckt.junction(n, Circuit::GROUND, ic, r, c);
        ckt.current_source(Circuit::GROUND, n, Waveform::dc(f64::from(bias_pm) * 1e-3 * ic));
        ckt.current_source(
            Circuit::GROUND,
            n,
            Waveform::gaussian(f64::from(kick_pm) * 1e-3 * ic, 20e-12, 2e-12),
        );
        let engine = Engine::new(ckt);
        let fixed = engine
            .run(TransientSpec::new(60e-12, 0.01e-12), &[n])
            .expect("fixed runs");
        let adaptive = engine
            .run_adaptive(60e-12, &[n])
            .expect("adaptive runs");

        prop_assert_eq!(
            adaptive.pulse_count_after(0, 10e-12),
            fixed.pulse_count_after(0, 10e-12)
        );
        let ff = *fixed.flux(0).last().unwrap();
        let fa = *adaptive.flux(0).last().unwrap();
        prop_assert!(
            (ff - fa).abs() < 0.03 * phi0 + 0.01 * ff.abs(),
            "final flux: fixed {} vs adaptive {} (phi0 {})", ff, fa, phi0
        );
        // Fewer steps is the whole point.
        prop_assert!(adaptive.times().len() * 4 < fixed.times().len());
    }

    /// The adaptive engine agrees with the fixed-step oracle on whole
    /// JTL-chain cells: identical pulse delivery and arrival delays within
    /// 1%.
    #[test]
    fn adaptive_matches_oracle_on_jtl_chains(
        stages in 2u32..6,
        bias_pm in 680u32..820,
    ) {
        use smart::josim::cells::{CellCircuit, CellSpec};
        use smart::sfq::cells::JtlChainSpec;

        let spec = JtlChainSpec::new(stages, 100_000, bias_pm);
        let cell = CellCircuit::build(&CellSpec::Jtl(spec));
        let mut ws = cell.engine().prepare_workspace();
        let (adaptive, _) = cell.measure_adaptive(&mut ws).expect("adaptive runs");
        let fixed = cell.measure_fixed().expect("fixed runs");

        prop_assert_eq!(adaptive.min_output_pulses, fixed.min_output_pulses);
        prop_assert_eq!(adaptive.max_output_pulses, fixed.max_output_pulses);
        prop_assert!(adaptive.delivered_exactly_one());
        let rel = (adaptive.delay - fixed.delay).abs() / fixed.delay.max(1e-15);
        prop_assert!(rel < 0.01, "delay disagreement {:.3}%", rel * 100.0);
        prop_assert!(adaptive.steps < fixed.steps / 4);
    }

    /// Incumbent seeding is sound: seeding any feasible point never makes
    /// the solver return something worse, and a seeded complete search
    /// still finds the brute-force optimum.
    #[test]
    fn seeded_search_matches_brute_force(
        values in prop::collection::vec(1u32..40, 3..8),
        weights in prop::collection::vec(1u32..20, 3..8),
        cap in 10u32..60,
        seed_mask in 0u32..256,
    ) {
        let n = values.len().min(weights.len());
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|_| p.binary()).collect();
        for i in 0..n {
            p.set_objective(vars[i], f64::from(values[i]));
        }
        let terms: Vec<_> = (0..n).map(|i| (vars[i], f64::from(weights[i]))).collect();
        p.add_constraint(&terms, Relation::Le, f64::from(cap));

        // A (possibly infeasible, then ignored) random seed.
        let seed: Vec<f64> = (0..n)
            .map(|i| f64::from(seed_mask >> i & 1))
            .collect();
        let got = Solver::new()
            .with_incumbent(seed)
            .solve(&p, &SolverContext::new())
            .expect("knapsack feasible")
            .objective;

        let mut best = 0u32;
        for mask in 0u32..(1 << n) {
            let w: u32 = (0..n).filter(|&i| mask >> i & 1 == 1).map(|i| weights[i]).sum();
            if w <= cap {
                let v: u32 = (0..n).filter(|&i| mask >> i & 1 == 1).map(|i| values[i]).sum();
                best = best.max(v);
            }
        }
        prop_assert!((got - f64::from(best)).abs() < 1e-6, "seeded {got} vs brute {best}");
    }

    /// The presolve never changes a result. On random small 0/1 programs
    /// that mix never-binding rows (`Le` above the coefficient sum, `Ge`
    /// below zero) with tight ones, the presolved form keeps exactly the
    /// rows that can bind, branch & bound matches brute force, the
    /// relaxation matches the dense oracle, and the root basis survives the
    /// round trip through problem coordinates.
    #[test]
    fn presolve_keeps_results_and_round_trips_the_root_basis(
        values in prop::collection::vec(1u32..40, 3..8),
        coefs in prop::collection::vec(1u32..12, 8..40),
        picks in prop::collection::vec(0u32..6, 2..6),
    ) {
        use smart::ilp::dense::solve_relaxation_dense;
        use smart::ilp::revised::StandardForm;
        use smart::ilp::simplex::solve_relaxation;
        use smart::ilp::LpResult;

        let (rows, binding) = random_01_rows(values.len(), &coefs, &picks);
        let p = program_01(&values, &rows);
        let form = StandardForm::build(&p, None);
        prop_assert_eq!(form.rows(), &binding[..]);

        match (Solver::new().solve(&p, &SolverContext::new()), brute_force_01(&values, &rows)) {
            (Ok(s), Some(best)) => prop_assert!(
                (s.objective - best).abs() < 1e-6,
                "ilp {} vs brute {best}",
                s.objective
            ),
            (Err(_), None) => {}
            (s, best) => prop_assert!(false, "ilp {s:?} vs brute {best:?}"),
        }

        match (solve_relaxation(&p, &[]), solve_relaxation_dense(&p, &[])) {
            (LpResult::Optimal(s), LpResult::Optimal(d)) => prop_assert!(
                (s.objective - d.objective).abs() < 1e-6 * d.objective.abs().max(1.0),
                "presolved {} vs dense {}",
                s.objective,
                d.objective
            ),
            (LpResult::Infeasible, LpResult::Infeasible) => {}
            (s, d) => prop_assert!(false, "outcome mismatch: presolved {s:?} vs dense {d:?}"),
        }

        if let (LpResult::Optimal(_), Some(root)) = form.relaxation(&p, &[]) {
            prop_assert_eq!(form.restrict(&form.expand(&root)), Some(root));
        }
    }

    /// Rows that can never bind are invisible to the solution memo. The
    /// presolve property's random 0/1 programs are solved in variants that
    /// insert never-binding rows (random coefficients, random slack beyond
    /// the extreme activity) at random positions. Through one context the
    /// first variant searches and every later one replays without a node
    /// or pivot; every variant matches a fresh-context solve of itself and
    /// brute force, and its values satisfy each of its rows. An added row
    /// lowered until it can bind is a new problem and misses.
    #[test]
    fn never_binding_rows_replay_from_the_memo(
        values in prop::collection::vec(1u32..40, 3..8),
        coefs in prop::collection::vec(1u32..12, 8..40),
        picks in prop::collection::vec(0u32..6, 2..6),
        seed in 0u64..u64::MAX,
    ) {
        use smart::units::rng::Rng;

        let n = values.len();
        let (rows, _) = random_01_rows(n, &coefs, &picks);
        let best = brute_force_01(&values, &rows);
        let mut rng = Rng::new(seed);
        let mut draw = |k: u64| rng.next_u64() % k;
        // Each variant with the position of its last added row.
        let variants: Vec<(Vec<Row>, usize)> = (0..4)
            .map(|_| {
                let mut variant = rows.clone();
                let mut added = 0;
                for _ in 0..=draw(3) {
                    let terms: Vec<f64> = (0..n)
                        .map(|_| {
                            let k = (1 + draw(12)) as f64;
                            if draw(2) == 0 { k } else { -k }
                        })
                        .collect();
                    let slack = 0.25 * (1 + draw(200)) as f64;
                    let positive: f64 = terms.iter().filter(|&&k| k > 0.0).sum();
                    let negative: f64 = terms.iter().filter(|&&k| k < 0.0).sum();
                    let row = if draw(2) == 0 {
                        (terms, Relation::Le, positive + slack)
                    } else {
                        (terms, Relation::Ge, negative - slack)
                    };
                    added = draw(variant.len() as u64 + 1) as usize;
                    variant.insert(added, row);
                }
                (variant, added)
            })
            .collect();
        let ctx = SolverContext::new();
        for (v, (variant, _)) in variants.iter().enumerate() {
            let p = program_01(&values, variant);
            let before = ctx.stats();
            let shared = Solver::new().solve(&p, &ctx);
            let after = ctx.stats();
            match (&shared, Solver::new().solve(&p, &SolverContext::new()), best) {
                (Ok(s), Ok(fresh), Some(best)) => {
                    prop_assert!(s.objective == fresh.objective, "variant {v}: {s:?} vs {fresh:?}");
                    prop_assert!(s.proven_optimal == fresh.proven_optimal, "variant {v}");
                    prop_assert!((s.objective - best).abs() < 1e-6, "{} vs brute {best}", s.objective);
                    prop_assert!(satisfies(&s.values, variant), "variant {v}: {:?}", s.values);
                }
                (Err(_), Err(_), None) => {}
                (s, fresh, best) => prop_assert!(false, "{s:?} vs fresh {fresh:?} vs brute {best:?}"),
            }
            let replayed = v > 0 && shared.is_ok();
            prop_assert_eq!(after.solution_hits, before.solution_hits + u64::from(replayed));
            if replayed {
                prop_assert_eq!((after.nodes, after.pivots), (before.nodes, before.pivots));
            }
        }

        // Lower (or raise) the last added row onto its extreme activity: it
        // can bind now, though it still cuts no 0/1 point.
        let (mut variant, added) = variants[variants.len() - 1].clone();
        let (terms, relation, rhs) = &mut variant[added];
        *rhs = match relation {
            Relation::Le => terms.iter().filter(|&&k| k > 0.0).sum(),
            _ => terms.iter().filter(|&&k| k < 0.0).sum(),
        };
        let p = program_01(&values, &variant);
        let before = ctx.stats();
        let tight = Solver::new().solve(&p, &ctx);
        prop_assert!(ctx.stats().solution_hits == before.solution_hits, "a row that can bind misses");
        match (tight, best) {
            (Ok(s), Some(best)) => prop_assert!((s.objective - best).abs() < 1e-6),
            (Err(_), None) => {}
            (s, best) => prop_assert!(false, "{s:?} vs brute {best:?}"),
        }
    }

    /// The integer presolve (bound tightening and gcd rounding) is exact.
    /// The presolve property's random 0/1 programs get seeded extra rows:
    /// `Le` rows with oversized coefficients, and `Le` and `Ge` rows whose
    /// coefficients share a factor that their right-hand side misses.
    /// Branch & bound matches brute force, every brute-force feasible point
    /// lies inside the strengthened form, and the strengthened root bound
    /// lies between the integer optimum and the dense oracle's bound of
    /// the raw problem.
    #[test]
    fn integer_presolve_keeps_every_integer_point(
        values in prop::collection::vec(1u32..40, 3..8),
        coefs in prop::collection::vec(1u32..12, 8..40),
        picks in prop::collection::vec(0u32..6, 1..4),
        seed in 0u64..u64::MAX,
    ) {
        use smart::ilp::dense::solve_relaxation_dense;
        use smart::ilp::revised::StandardForm;
        use smart::ilp::LpResult;
        use smart::units::rng::Rng;

        let n = values.len();
        let (mut rows, _) = random_01_rows(n, &coefs, &picks);
        let mut rng = Rng::new(seed);
        let mut draw = |k: u64| rng.next_u64() % k;
        for _ in 0..=draw(3) {
            let factor = 1 + draw(6);
            let mut row: Vec<f64> = (0..n).map(|_| (factor * (1 + draw(4))) as f64).collect();
            let multiples: u64 = row.iter().map(|&k| k as u64 / factor).sum();
            // A right-hand side between 0 and the coefficient sum, off the
            // factor's multiples by `draw(factor)`.
            let rhs = (factor * draw(multiples) + draw(factor)) as f64;
            let relation = match draw(3) {
                0 => {
                    for _ in 0..=draw(2) {
                        row[draw(n as u64) as usize] = rhs + (1 + draw(20)) as f64;
                    }
                    Relation::Le
                }
                1 => Relation::Le,
                _ => Relation::Ge,
            };
            rows.push((row, relation, rhs));
        }
        let p = program_01(&values, &rows);
        let best = brute_force_01(&values, &rows);
        match (Solver::new().solve(&p, &SolverContext::new()), best) {
            (Ok(s), Some(best)) => prop_assert!(
                (s.objective - best).abs() < 1e-6,
                "ilp {} vs brute {best}",
                s.objective
            ),
            (Err(_), None) => {}
            (s, best) => prop_assert!(false, "ilp {s:?} vs brute {best:?}"),
        }

        let mut form = StandardForm::build(&p, None);
        form.tighten(&p);
        for mask in 0u32..1 << n {
            let x: Vec<f64> = (0..n).map(|i| f64::from(mask >> i & 1)).collect();
            if satisfies(&x, &rows) {
                prop_assert!(form.admits(&x), "the presolve cut off {x:?}");
            }
        }
        if let Some(best) = best {
            match (form.relaxation(&p, &[]).0, solve_relaxation_dense(&p, &[])) {
                (LpResult::Optimal(s), LpResult::Optimal(d)) => {
                    let tol = 1e-6 * d.objective.abs().max(1.0);
                    prop_assert!(
                        best - tol <= s.objective && s.objective <= d.objective + tol,
                        "optimum {best} <= strengthened {} <= raw {}",
                        s.objective,
                        d.objective
                    );
                }
                (s, d) => prop_assert!(false, "strengthened {s:?} vs raw {d:?}"),
            }
        }
    }
}

/// One constraint row of a small 0/1 program: a coefficient per variable,
/// the relation and the right-hand side.
type Row = (Vec<f64>, Relation, f64);

/// The presolve properties' random rows over `n` binaries: per pick, one
/// row with coefficients from `coefs` that either can never bind (`Le`
/// above the coefficient sum, `Ge` below zero) or can. Returns the rows and
/// the indexes of those that can bind.
fn random_01_rows(n: usize, coefs: &[u32], picks: &[u32]) -> (Vec<Row>, Vec<usize>) {
    let mut rows = Vec::new();
    let mut binding = Vec::new();
    for (r, &pick) in picks.iter().enumerate() {
        let row: Vec<f64> = (0..n)
            .map(|i| f64::from(coefs[(r * n + i) % coefs.len()]))
            .collect();
        let sum: f64 = row.iter().sum();
        let (relation, rhs, can_bind) = match pick {
            0 => (Relation::Le, sum + 1.0 + r as f64, false),
            1 => (Relation::Ge, -1.0 - r as f64, false),
            2 => (Relation::Le, sum, true), // largest activity equals the rhs
            3 => (Relation::Ge, 1.0, true),
            _ => (Relation::Le, (sum / 2.0).floor(), true),
        };
        if can_bind {
            binding.push(r);
        }
        rows.push((row, relation, rhs));
    }
    (rows, binding)
}

/// Maximizes `values` over binaries subject to `rows`.
fn program_01(values: &[u32], rows: &[Row]) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = (0..values.len()).map(|_| p.binary()).collect();
    for (&v, &value) in vars.iter().zip(values) {
        p.set_objective(v, f64::from(value));
    }
    for (row, relation, rhs) in rows {
        let terms: Vec<_> = vars.iter().copied().zip(row.iter().copied()).collect();
        p.add_constraint(&terms, *relation, *rhs);
    }
    p
}

/// Whether `x` satisfies every row, to a feasibility tolerance.
fn satisfies(x: &[f64], rows: &[Row]) -> bool {
    rows.iter().all(|(row, relation, rhs)| {
        let activity: f64 = row.iter().zip(x).map(|(k, x)| k * x).sum();
        match relation {
            Relation::Le => activity <= rhs + 1e-6,
            Relation::Ge => activity >= rhs - 1e-6,
            Relation::Eq => (activity - rhs).abs() <= 1e-6,
        }
    })
}

/// The best objective over every 0/1 point that satisfies `rows`, by
/// enumeration; `None` when no point does.
fn brute_force_01(values: &[u32], rows: &[Row]) -> Option<f64> {
    let n = values.len();
    (0u32..1 << n)
        .map(|mask| (0..n).map(|i| f64::from(mask >> i & 1)).collect::<Vec<_>>())
        .filter(|x| satisfies(x, rows))
        .map(|x| x.iter().zip(values).map(|(x, &v)| x * f64::from(v)).sum())
        .fold(None, |best: Option<f64>, v| {
            Some(best.map_or(v, |b| b.max(v)))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The geometry generator is total: whatever the parameters — zero
    /// dims, absurd splits, broken bank counts — `build` returns a typed
    /// result and never panics, and every `Ok` scheme satisfies the
    /// invariants the downstream constructors would otherwise panic on.
    #[test]
    fn geometry_build_total_and_sound(
        rows in 0u32..512,
        cols in 0u32..512,
        clock_pick in 0usize..6,
        capacity_kb in 0u64..(64 * 1024),
        shift_kb in 0u64..256,
        shift_banks in 0u32..512,
        random_banks in 0u32..512,
        kind_idx in 0usize..5,
        window_pick in 0u32..9,
    ) {
        use smart::core::geometry::{GeometryParams, SpmGeometry};
        use smart::core::scheme::AllocationPolicy;
        use smart::cryomem::array::RandomArrayKind;

        let clock = [52.6, 0.7, 0.0, -1.0, f64::NAN, f64::INFINITY][clock_pick];
        let window = window_pick.checked_sub(1); // None, Some(0), ..., Some(7)
        let params = GeometryParams {
            spm: SpmGeometry::Heterogeneous {
                capacity_bytes: capacity_kb * 1024,
                shift_bytes: shift_kb * 1024,
                shift_banks,
                random_banks,
                kind: RandomArrayKind::ALL[kind_idx],
            },
            rows,
            cols,
            clock_ghz: clock,
            prefetch_window: window,
            ..GeometryParams::smart()
        };
        match params.build() {
            Err(e) => {
                // Typed rejection, with the offending parameter named.
                prop_assert!(!e.to_string().is_empty());
            }
            Ok(scheme) => {
                prop_assert!(rows > 0 && cols > 0);
                prop_assert!(clock.is_finite() && clock > 0.0);
                prop_assert!(shift_banks > 0 && (shift_kb * 1024).is_multiple_of(u64::from(shift_banks)));
                prop_assert!(random_banks > 1 && random_banks.is_power_of_two());
                prop_assert!(3 * shift_kb < capacity_kb);
                let expected = match window {
                    None => AllocationPolicy::Static,
                    Some(a) => {
                        prop_assert!(a >= 1);
                        AllocationPolicy::Prefetch { window: a }
                    }
                };
                prop_assert_eq!(scheme.policy, expected);
            }
        }
    }

    /// Every named generator elaborates exactly its handwritten scheme
    /// (the umbrella-level view of the `crates/core` golden pins).
    #[test]
    fn geometry_generators_match_named_schemes(pick in 0usize..6) {
        use smart::core::geometry::GeometryParams;
        use smart::core::scheme::Scheme;

        let (generated, handwritten) = match pick {
            0 => (GeometryParams::tpu(), Scheme::tpu()),
            1 => (GeometryParams::supernpu(), Scheme::supernpu()),
            2 => (GeometryParams::sram(), Scheme::sram()),
            3 => (GeometryParams::heter(), Scheme::heter()),
            4 => (GeometryParams::pipe(), Scheme::pipe()),
            _ => (GeometryParams::smart(), Scheme::smart()),
        };
        prop_assert_eq!(generated.build().expect("named points are valid"), handwritten);
    }

    /// Pareto pruning invariants on random objective clouds: the frontier
    /// is a subset of the ε-survivors for every ε >= 0, no frontier point
    /// is dominated, and ε = 0 degenerates to exact dominance.
    #[test]
    fn pareto_pruning_invariants(
        lats in prop::collection::vec(1u32..1000, 1..60),
        energies in prop::collection::vec(1u32..1000, 1..60),
        areas in prop::collection::vec(1u32..1000, 1..60),
        eps in 0.0f64..0.5,
    ) {
        use smart::search::{epsilon_survivors, pareto_frontier, Objectives};
        use smart::units::Area;

        let n = lats.len().min(energies.len()).min(areas.len());
        let objs: Vec<Objectives> = (0..n)
            .map(|i| Objectives {
                latency: Time::from_ns(f64::from(lats[i])),
                energy: Energy::from_j(f64::from(energies[i])),
                area: Area::from_mm2(f64::from(areas[i])),
            })
            .collect();
        let frontier = pareto_frontier(&objs);
        prop_assert!(!frontier.is_empty());
        let survivors = epsilon_survivors(&objs, eps);
        for i in &frontier {
            prop_assert!(survivors.contains(i), "frontier {i} pruned at eps {eps}");
            for (j, o) in objs.iter().enumerate() {
                prop_assert!(
                    !smart::search::dominates(o, &objs[*i]),
                    "frontier {i} dominated by {j}"
                );
            }
        }
        prop_assert_eq!(epsilon_survivors(&objs, 0.0), frontier);
    }

    /// `pareto_frontier`'s sorted sweep and `epsilon_survivors`'
    /// frontier-only tests equal their quadratic definitions, here kept,
    /// on clouds thick with ties and duplicates: each objective takes one
    /// of four values, and points repeat from a small pool. At ε = 0 and
    /// at ε > 0.
    #[test]
    fn pareto_pruning_matches_the_quadratic_definitions(
        pool in prop::collection::vec(0u32..64, 1..12),
        picks in prop::collection::vec(0u32..1000, 1..80),
        eps in 0.0f64..0.6,
    ) {
        use smart::search::pareto::eps_dominates;
        use smart::search::{dominates, epsilon_survivors, pareto_frontier, Objectives};
        use smart::units::Area;

        let point = |p: u32| Objectives {
            latency: Time::from_ns(f64::from(1 + p % 4)),
            energy: Energy::from_j(f64::from(1 + p / 4 % 4)),
            area: Area::from_mm2(f64::from(1 + p / 16)),
        };
        let objs: Vec<Objectives> = picks
            .iter()
            .map(|&k| point(pool[k as usize % pool.len()]))
            .collect();
        // The points no other point prunes, in input order.
        let unpruned = |prunes: &dyn Fn(&Objectives, &Objectives) -> bool| -> Vec<usize> {
            (0..objs.len())
                .filter(|&i| !objs.iter().any(|o| prunes(o, &objs[i])))
                .collect()
        };
        prop_assert_eq!(pareto_frontier(&objs), unpruned(&dominates));
        for e in [0.0, eps] {
            let quadratic = unpruned(&|o, i| eps_dominates(o, i, e));
            prop_assert_eq!(epsilon_survivors(&objs, e), quadratic);
        }
    }

    /// Every point of the search grids builds a valid scheme, and the
    /// generated SPM budget follows the 3-SHIFT + RANDOM split.
    #[test]
    fn search_grid_points_always_build(small in 0u32..2) {
        use smart::core::geometry::SpmGeometry;
        use smart::search::SearchSpace;

        let space = if small == 1 { SearchSpace::small() } else { SearchSpace::default_grid() };
        let points = space.points();
        prop_assert_eq!(points.len(), space.len());
        for p in &points {
            let scheme = p.build().expect("grid points are valid");
            prop_assert!(matches!(p.spm, SpmGeometry::Heterogeneous { .. }));
            prop_assert!(scheme.config.frequency.as_si() > 0.0);
        }
    }
}

/// A synthetic serving profile: `layers` uniform layers of `total`
/// cycles (`compute` of them batch-scaling) with `restage` cold-switch
/// cycles each. The dispatch simulator reads only the public fields, so
/// the properties need no ILP compile.
fn serving_profile(
    total: u64,
    compute: u64,
    restage: u64,
    layers: usize,
) -> smart::serving::TenantProfile {
    smart::serving::TenantProfile {
        name: "synthetic".to_owned(),
        model: smart::systolic::models::ModelId::AlexNet,
        scheme: "TEST",
        clock: Frequency::from_ghz(1.0),
        layer_cycles: vec![total; layers],
        layer_compute: vec![compute; layers],
        restage_cycles: vec![restage; layers],
        resident_fraction: 0.5,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Serving conservation: every injected request completes exactly
    /// once, per-tenant tallies partition the totals, and the latency
    /// quantiles are ordered p50 <= p99 <= p999.
    #[test]
    fn serving_requests_conserved_and_quantiles_ordered(
        n in 10usize..120,
        rate in 1e3f64..5e4,
        seed in 0u64..1_000,
        batch in 1u32..4,
        quantum in 0u32..3,
    ) {
        use smart::serving::{simulate, ServingConfig, Tenant, Workload};
        use smart::systolic::models::ModelId;

        let profiles = [
            serving_profile(1_000, 600, 50, 8),
            serving_profile(2_000, 1_200, 80, 6),
        ];
        let w = Workload::poisson(
            vec![Tenant::of(ModelId::AlexNet, 1.0), Tenant::of(ModelId::AlexNet, 2.0)],
            rate,
            seed,
        );
        let cfg = ServingConfig::fcfs().with_batching(batch, 500).with_quantum(quantum);
        let r = simulate(&profiles, &w, n, &cfg);

        prop_assert_eq!(r.injected, n as u64);
        prop_assert_eq!(r.completed, r.injected);
        prop_assert_eq!(r.latencies().len(), n);
        prop_assert_eq!(r.per_tenant.iter().map(|t| t.injected).sum::<u64>(), r.injected);
        prop_assert_eq!(r.per_tenant.iter().map(|t| t.completed).sum::<u64>(), r.completed);
        prop_assert!(r.p50() <= r.p99(), "p50 {:?} > p99 {:?}", r.p50(), r.p99());
        prop_assert!(r.p99() <= r.p999(), "p99 {:?} > p999 {:?}", r.p99(), r.p999());
        prop_assert!(r.makespan_cycles >= r.service_cycles + r.switch_cycles);
    }

    /// Serving determinism: the same seed reproduces the trace and the
    /// report bit-for-bit; the simulator itself draws no randomness.
    #[test]
    fn serving_same_seed_same_report(
        n in 10usize..80,
        rate in 1e3f64..4e4,
        seed in 0u64..1_000,
    ) {
        use smart::serving::{simulate, ServingConfig, Tenant, Workload};
        use smart::systolic::models::ModelId;

        let profiles = [
            serving_profile(1_500, 900, 40, 5),
            serving_profile(900, 500, 30, 7),
        ];
        let w = Workload::poisson(
            vec![Tenant::of(ModelId::AlexNet, 1.0), Tenant::of(ModelId::AlexNet, 1.0)],
            rate,
            seed,
        );
        prop_assert_eq!(
            w.trace(n, profiles[0].clock),
            w.trace(n, profiles[0].clock)
        );
        let cfg = ServingConfig::fcfs().with_batching(2, 200);
        let a = simulate(&profiles, &w, n, &cfg);
        let b = simulate(&profiles, &w, n, &cfg);
        prop_assert_eq!(a.latencies(), b.latencies());
        prop_assert_eq!(a.switch_cycles, b.switch_cycles);
        prop_assert_eq!(a.makespan_cycles, b.makespan_cycles);
    }

    /// A single tenant under FCFS is an M/D/1 queue: the simulator must
    /// reproduce the Lindley recurrence with the stand-alone replay as
    /// the (deterministic) service time — so at low load every request
    /// that finds the array idle (warm, by the replay convention) costs
    /// exactly the stand-alone latency, and a request that lands on a
    /// busy array queues for precisely the residual service.
    #[test]
    fn serving_single_tenant_fcfs_is_lindley(
        n in 1usize..20,
        seed in 0u64..1_000,
        total in 500u64..5_000,
    ) {
        use smart::serving::{simulate, ServingConfig, Tenant, Workload};
        use smart::systolic::models::ModelId;

        let p = serving_profile(total, total / 2, 25, 6);
        let standalone = p.standalone_cycles();
        // 1 rps against ~micro-second services: gaps dwarf service
        // times, so nearly every latency is exactly `standalone`.
        let w = Workload::poisson(vec![Tenant::of(ModelId::AlexNet, 1.0)], 1.0, seed);
        let trace = w.trace(n, p.clock);
        let r = simulate(&[p], &w, n, &ServingConfig::fcfs());
        prop_assert_eq!(r.completed, n as u64);
        prop_assert_eq!(r.switch_cycles, 0);
        let mut prev_end = 0u64;
        let mut expected: Vec<u64> = trace
            .iter()
            .map(|req| {
                let start = req.arrival.max(prev_end);
                prev_end = start + standalone;
                prev_end - req.arrival
            })
            .collect();
        expected.sort_unstable();
        // The merged per-tenant samples come back sorted.
        prop_assert_eq!(&r.latencies(), &expected);
        prop_assert_eq!(expected[0], standalone);
    }
}
