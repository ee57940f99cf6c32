//! Golden cross-validation tests: the acceptance gates of the replay
//! simulator.
//!
//! 1. On *every* ablation scheme with a heterogeneous SPM — the Fig. 18
//!    set's Heter/Pipe/SMART, all Fig. 7 RANDOM-technology variants, and
//!    the Fig. 24 prefetch windows — the cycle-level replay of the ILP
//!    schedule agrees with the analytic `evaluate()` latency within 1% in
//!    the stall-free regime (idealized RANDOM twin, buffer depth covering
//!    the window).
//! 2. A constrained-bandwidth scenario exposes stalls the analytic model
//!    cannot see: the analytic latency is bandwidth-blind, while the
//!    replay degrades and attributes the loss to data classes.

use smart_compiler::SolverContext;
use smart_core::eval::evaluate;
use smart_core::scheme::{AllocationPolicy, Scheme};
use smart_cryomem::array::RandomArrayKind;
use smart_systolic::models::ModelId;
use smart_timing::{max_layer_deviation, simulate_scheme, TimingConfig};

/// Every heterogeneous ablation scheme in the repo's experiment set.
fn ablation_schemes() -> Vec<Scheme> {
    let mut schemes = vec![Scheme::heter(), Scheme::pipe(), Scheme::smart()];
    // Fig. 7: each RANDOM technology behind the staging arrays.
    for kind in [
        RandomArrayKind::JosephsonCmosSram,
        RandomArrayKind::SheMram,
        RandomArrayKind::Snm,
        RandomArrayKind::Vtm,
    ] {
        schemes.push(Scheme::fig7_hetero(kind, false));
    }
    schemes.push(Scheme::fig7_hetero(RandomArrayKind::Vtm, true));
    // Fig. 24: the prefetch-window sweep.
    for window in 1..=5 {
        let mut s = Scheme::smart();
        s.policy = AllocationPolicy::Prefetch { window };
        schemes.push(s);
    }
    schemes
}

/// Acceptance gate 1: replay == analytic within 1% in the stall-free
/// regime, for every ablation scheme. The buffer depth is set to cover
/// the widest swept prefetch window so the schedule, not the buffer,
/// decides the prefetch distances.
#[test]
fn stall_free_replay_agrees_with_analytic_on_every_ablation_scheme() {
    let model = ModelId::AlexNet.build();
    let cfg = TimingConfig::nominal().with_depth(5);
    for scheme in ablation_schemes() {
        let dev = max_layer_deviation(&scheme, &model, &cfg, &SolverContext::new())
            .expect("heterogeneous scheme");
        assert!(
            dev < 0.01,
            "{} ({:?}): stall-free deviation {:.4} >= 1%",
            scheme.name,
            scheme.policy,
            dev
        );
    }
}

/// Acceptance gate 2: at 10% RANDOM bandwidth the replay exposes large
/// stalls while the analytic evaluator — which has no bandwidth-contention
/// term — reports the very same latency it reports at full bandwidth.
#[test]
fn constrained_bandwidth_exposes_stalls_the_analytic_model_cannot_see() {
    let model = ModelId::AlexNet.build();
    let scheme = Scheme::smart();
    let analytic = evaluate(&scheme, &model, 1);

    let nominal = simulate_scheme(&scheme, &model, &TimingConfig::nominal()).expect("simulates");
    let starved = simulate_scheme(
        &scheme,
        &model,
        &TimingConfig::nominal().with_bandwidth_pct(10),
    )
    .expect("simulates");

    // The replay degrades by several x...
    let slowdown = starved.total_time().as_s() / nominal.total_time().as_s();
    assert!(slowdown > 3.0, "slowdown only {slowdown:.2}x");
    // ...with the loss attributed to exposed per-class stalls...
    let exposed = starved.exposed_total() as f64 / starved.total_cycles() as f64;
    assert!(exposed > 0.5, "exposed fraction {exposed:.2}");
    // ...while the analytic model cannot tell the two configurations
    // apart: the replay under starvation is far beyond its latency.
    assert!(
        starved.total_time().as_s() > 3.0 * analytic.total_time.as_s(),
        "replay {:.1} us vs analytic {:.1} us",
        starved.total_time().as_us(),
        analytic.total_time.as_us()
    );
}

/// The replay is a lower-bounded model: it can never beat the analytic
/// ideal (pure compute) on any ablation scheme.
#[test]
fn replay_never_beats_the_compute_ideal() {
    let model = ModelId::AlexNet.build();
    for scheme in ablation_schemes() {
        let sim = simulate_scheme(&scheme, &model, &TimingConfig::nominal()).expect("simulates");
        for (timing, layer) in sim.layers.iter().zip(&model.layers) {
            let mapping = smart_systolic::mapping::LayerMapping::map(layer, scheme.config.shape, 1);
            assert!(
                timing.total_cycles >= mapping.compute_cycles(),
                "{}/{}: replay {} < ideal {}",
                scheme.name,
                layer.name,
                timing.total_cycles,
                mapping.compute_cycles()
            );
            assert!(timing.is_consistent(), "{}/{}", scheme.name, layer.name);
        }
    }
}

/// Determinism: two independent simulations of the same point are
/// identical, whatever the order (the experiment engine's `--jobs`
/// fan-outs rely on this).
#[test]
fn replay_is_reproducible() {
    let model = ModelId::Vgg16.build();
    let cfg = TimingConfig::nominal().with_bandwidth_pct(50);
    let a = simulate_scheme(&Scheme::smart(), &model, &cfg).expect("simulates");
    let b = simulate_scheme(&Scheme::smart(), &model, &cfg).expect("simulates");
    assert_eq!(a, b);
}
