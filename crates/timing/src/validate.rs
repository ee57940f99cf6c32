//! Scheme-level simulation and cross-validation against the analytic
//! evaluator.
//!
//! [`simulate_scheme`] compiles every layer of a model with the ILP
//! compiler (the same Eq. 5/6 formulation the experiments use) and replays
//! the resulting schedules through the scheme's heterogeneous SPM.
//!
//! [`stall_free_variant`] builds the *validation twin* of a scheme: the
//! same geometry with an idealized RANDOM array (vanishing access latency
//! and issue interval). On that twin the analytic evaluator exposes no
//! memory time and the replay hides every prefetch, so the two must agree
//! on every layer — [`max_layer_deviation`] measures how closely they do.
//! On the *real* array the replay sees arbitration and late prefetches the
//! analytic `overlap_fraction` cannot, which is the simulator's purpose.

use crate::config::TimingConfig;
use crate::replay::{LayerInstance, LayerPrepass, RandomCosts};
use crate::report::ModelTimingReport;
use smart_compiler::formulation::{compile_layer_ctx, FormulationParams};
use smart_compiler::schedule::Schedule;
use smart_compiler::SolverContext;
use smart_core::eval::evaluate;
use smart_core::scheme::{AllocationPolicy, Scheme, SpmOrganization};
use smart_spm::hetero::HeterogeneousSpm;
use smart_systolic::dag::LayerDag;
use smart_systolic::layer::{CnnModel, ConvLayer};
use smart_systolic::mapping::LayerMapping;
use smart_systolic::trace::LayerDemand;
use smart_units::{Result, SmartError, Time};

/// The scheme's heterogeneous SPM, or a typed error for organizations the
/// replay simulator does not model (ideal, pure-SHIFT, pure-RANDOM).
///
/// # Errors
///
/// [`SmartError::InvalidInput`] unless the scheme is heterogeneous.
pub fn hetero_spm(scheme: &Scheme) -> Result<&HeterogeneousSpm> {
    match &scheme.spm {
        SpmOrganization::Heterogeneous(spm) => Ok(spm),
        other => Err(SmartError::invalid_input(format!(
            "timing replay needs a heterogeneous SPM; scheme {} has {other:?}",
            scheme.name
        ))),
    }
}

/// The scheme's prefetch window: the ILP `a` for prefetching policies, 1
/// (no prefetch) for static allocation.
#[must_use]
pub fn prefetch_window(policy: AllocationPolicy) -> u32 {
    match policy {
        AllocationPolicy::Static => 1,
        AllocationPolicy::Prefetch { window } => window.max(1),
    }
}

/// Formulation parameters matching a scheme's SPM geometry and policy, so
/// the replayed schedules are compiled against the hardware they run on.
#[must_use]
pub fn params_for(spm: &HeterogeneousSpm, policy: AllocationPolicy) -> FormulationParams {
    FormulationParams {
        shift_capacity: spm.input_shift.capacity_bytes(),
        random_capacity: spm.random.capacity_bytes,
        random_banks: spm.random.banks,
        prefetch_window: prefetch_window(policy),
        ..FormulationParams::smart_default()
    }
}

/// One layer taken through the full compile pipeline: mapping → demand →
/// iteration DAG → ILP schedule. This is the plumbing every consumer of the
/// compiler shares — the replay prepass ([`prepare_model_ctx`]), the
/// stall-breakdown experiment, and the design-space search — deduplicated
/// here so the pipeline exists exactly once.
#[derive(Debug, Clone)]
pub struct LayerCompilation {
    /// The layer's fold mapping onto the scheme's array shape (batch 1).
    pub mapping: LayerMapping,
    /// Streaming demand derived from the mapping.
    pub demand: LayerDemand,
    /// The coarsened iteration DAG.
    pub dag: LayerDag,
    /// The ILP (or provably-optimal greedy) allocation schedule.
    pub schedule: Schedule,
}

impl LayerCompilation {
    /// The config-independent replay prepass of this compilation.
    #[must_use]
    pub fn prepass(
        &self,
        name: &str,
        spm: &HeterogeneousSpm,
        clock: smart_units::Frequency,
    ) -> LayerPrepass {
        LayerPrepass::build(
            &LayerInstance {
                name,
                mapping: &self.mapping,
                demand: &self.demand,
                dag: &self.dag,
                schedule: &self.schedule,
            },
            spm,
            clock,
        )
    }
}

/// Compiles one layer of `scheme` end to end — mapping, demand, DAG, and
/// the ILP allocation schedule — through a caller-owned [`SolverContext`]
/// so adjacent compilations (neighboring design points, other layers of
/// the same model) warm-start from each other's bases.
///
/// # Errors
///
/// [`SmartError::InvalidInput`] when the scheme's SPM is not
/// heterogeneous.
pub fn compile_scheme_layer(
    scheme: &Scheme,
    layer: &ConvLayer,
    max_iterations: u32,
    solver: &SolverContext,
) -> Result<LayerCompilation> {
    let spm = hetero_spm(scheme)?;
    let params = params_for(spm, scheme.policy);
    Ok(compile_layer_for(
        layer,
        scheme,
        &params,
        max_iterations,
        solver,
    ))
}

/// [`compile_scheme_layer`] with the formulation parameters already in
/// hand (sweeps that perturb capacities reuse one `params` across layers).
fn compile_layer_for(
    layer: &ConvLayer,
    scheme: &Scheme,
    params: &FormulationParams,
    max_iterations: u32,
    solver: &SolverContext,
) -> LayerCompilation {
    let mapping = LayerMapping::map(layer, scheme.config.shape, 1);
    let demand = LayerDemand::derive(layer, &mapping);
    let dag = LayerDag::build(&mapping, max_iterations);
    let schedule = compile_layer_ctx(&dag, params, solver);
    LayerCompilation {
        mapping,
        demand,
        dag,
        schedule,
    }
}

/// The compiled, config-independent half of a whole-model simulation: one
/// [`LayerPrepass`] per layer, plus the scheme context the finish passes
/// need ([`Self::replay`] prices each config against the captured SPM and
/// clock). Built once by [`prepare_model_ctx`] — which pays the ILP compile —
/// and replayed per [`TimingConfig`], so a sweep compiles each layer once
/// instead of once per point.
#[derive(Debug, Clone)]
pub struct ModelPrepass {
    /// Scheme name (copied into each report).
    scheme: &'static str,
    /// Model name (copied into each report).
    model: String,
    /// The scheme's heterogeneous SPM.
    spm: HeterogeneousSpm,
    /// Accelerator clock.
    clock: smart_units::Frequency,
    /// The DAG coarsening cap the layers were compiled with; every
    /// replayed config must carry the same value.
    max_iterations: u32,
    /// Per-layer prepasses, in model order.
    layers: Vec<LayerPrepass>,
}

impl ModelPrepass {
    /// The per-config finish pass over every layer, bit-identical to
    /// [`simulate_scheme`] on the same scheme/model.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.max_iterations` differs from the value the layers
    /// were compiled with — the iteration DAG is baked into the prepass,
    /// so such a replay would silently simulate the wrong DAG.
    #[must_use]
    pub fn replay(&self, cfg: &TimingConfig) -> ModelTimingReport {
        assert_eq!(
            cfg.max_iterations, self.max_iterations,
            "prepass compiled with max_iterations {} replayed with {}",
            self.max_iterations, cfg.max_iterations
        );
        let costs = RandomCosts::new(&self.spm, self.clock, cfg);
        ModelTimingReport {
            scheme: self.scheme,
            model: self.model.clone(),
            clock: self.clock,
            layers: self.layers.iter().map(|l| l.replay(&costs, cfg)).collect(),
        }
    }
}

/// Compiles every layer of `model` on `scheme` (the ILP plus the
/// config-independent replay prepass), without replaying anything. Layers
/// run sequentially through the caller's [`SolverContext`], so bases
/// warm-start across layers and models and — through the context's
/// persisted store — across processes; a one-off prepass passes
/// `&SolverContext::new()`. Warm starts never change the optimum (the
/// simplex refactorizes and falls back cold when a stored basis does not
/// fit), so the result is the same for any context, and the whole function
/// is deterministic.
///
/// # Errors
///
/// [`SmartError::InvalidInput`] when the scheme's SPM is not
/// heterogeneous.
pub fn prepare_model_ctx(
    scheme: &Scheme,
    model: &CnnModel,
    max_iterations: u32,
    solver: &SolverContext,
) -> Result<ModelPrepass> {
    let spm = hetero_spm(scheme)?;
    let params = params_for(spm, scheme.policy);
    let layers: Vec<LayerPrepass> = model
        .layers
        .iter()
        .map(|layer| {
            compile_layer_for(layer, scheme, &params, max_iterations, solver).prepass(
                &layer.name,
                spm,
                scheme.config.frequency,
            )
        })
        .collect();
    Ok(ModelPrepass {
        scheme: scheme.name,
        model: model.name.clone(),
        spm: *spm,
        clock: scheme.config.frequency,
        max_iterations,
        layers,
    })
}

/// Compiles and replays every layer of `model` on `scheme`: exactly
/// [`prepare_model_ctx`] on a fresh [`SolverContext`] followed by
/// [`ModelPrepass::replay`], which is what makes delta replay equivalent
/// to full simulation by construction. This is the full-simulation
/// reference of the delta-replay tests and of the naive search.
///
/// # Errors
///
/// [`SmartError::InvalidInput`] when the scheme's SPM is not
/// heterogeneous.
pub fn simulate_scheme(
    scheme: &Scheme,
    model: &CnnModel,
    cfg: &TimingConfig,
) -> Result<ModelTimingReport> {
    Ok(prepare_model_ctx(scheme, model, cfg.max_iterations, &SolverContext::new())?.replay(cfg))
}

/// The validation twin of a scheme: same SPM geometry with an idealized
/// RANDOM array (attosecond access latency and issue interval). The
/// analytic evaluator and the replay simulator must agree on this twin —
/// every RANDOM-side term vanishes on both sides, leaving only compute and
/// SHIFT streaming, which both model word-exactly.
///
/// # Errors
///
/// [`SmartError::InvalidInput`] when the scheme's SPM is not
/// heterogeneous.
pub fn stall_free_variant(scheme: &Scheme) -> Result<Scheme> {
    let spm = hetero_spm(scheme)?;
    let mut idealized = *spm;
    let ideal = Time::from_s(1e-18);
    idealized.random.read_latency = ideal;
    idealized.random.write_latency = ideal;
    idealized.random.issue_interval = ideal;
    Ok(Scheme {
        spm: SpmOrganization::Heterogeneous(idealized),
        ..scheme.clone()
    })
}

/// Cross-validates the replay against the analytic evaluator on the
/// stall-free twin of `scheme`: returns the maximum relative deviation of
/// per-layer total latency (and of the model total) between
/// [`simulate_scheme`] and [`evaluate`].
///
/// # Errors
///
/// [`SmartError::InvalidInput`] when the scheme's SPM is not
/// heterogeneous.
pub fn max_layer_deviation(scheme: &Scheme, model: &CnnModel, cfg: &TimingConfig) -> Result<f64> {
    let twin = stall_free_variant(scheme)?;
    let sim = simulate_scheme(&twin, model, cfg)?;
    let analytic = evaluate(&twin, model, 1);
    let mut worst: f64 = 0.0;
    for (s, a) in sim.layers.iter().zip(&analytic.layers) {
        let sim_t = s.total_time(sim.clock).as_s();
        let ana_t = a.total.as_s();
        worst = worst.max((sim_t - ana_t).abs() / ana_t.max(1e-30));
    }
    let sim_total = sim.total_time().as_s();
    let ana_total = analytic.total_time.as_s();
    worst = worst.max((sim_total - ana_total).abs() / ana_total.max(1e-30));
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_systolic::models::ModelId;

    #[test]
    fn non_heterogeneous_schemes_are_rejected() {
        let err = simulate_scheme(
            &Scheme::supernpu(),
            &ModelId::AlexNet.build(),
            &TimingConfig::nominal(),
        )
        .unwrap_err();
        assert!(matches!(err, SmartError::InvalidInput { .. }), "{err}");
        assert!(hetero_spm(&Scheme::tpu()).is_err());
    }

    #[test]
    fn params_follow_scheme_geometry() {
        let scheme = Scheme::smart();
        let spm = hetero_spm(&scheme).expect("hetero");
        let p = params_for(spm, scheme.policy);
        assert_eq!(p.shift_capacity, 32 * 1024);
        assert_eq!(p.random_capacity, 28 * 1024 * 1024);
        assert_eq!(p.random_banks, 256);
        assert_eq!(p.prefetch_window, 3);
        assert_eq!(params_for(spm, AllocationPolicy::Static).prefetch_window, 1);
    }

    #[test]
    fn simulate_smart_alexnet_is_consistent() {
        let report = simulate_scheme(
            &Scheme::smart(),
            &ModelId::AlexNet.build(),
            &TimingConfig::nominal(),
        )
        .expect("simulates");
        assert_eq!(report.layers.len(), 8);
        for l in &report.layers {
            assert!(l.is_consistent(), "{}: {l:?}", l.name);
            assert!(l.total_cycles > 0);
        }
        assert!(report.total_time().as_s() > 0.0);
    }

    #[test]
    fn prepared_model_replays_identically_across_configs() {
        let scheme = Scheme::smart();
        let model = ModelId::AlexNet.build();
        let nominal = TimingConfig::nominal();
        let prepass = prepare_model_ctx(
            &scheme,
            &model,
            nominal.max_iterations,
            &SolverContext::new(),
        )
        .expect("prepares");
        for cfg in [
            nominal,
            nominal.with_depth(1),
            nominal.with_bandwidth_pct(25),
            nominal.with_depth(5).with_bandwidth_pct(400),
        ] {
            let delta = prepass.replay(&cfg);
            let full = simulate_scheme(&scheme, &model, &cfg).expect("simulates");
            assert_eq!(delta, full, "{cfg:?}");
        }
    }

    #[test]
    #[should_panic(expected = "max_iterations")]
    fn replaying_a_foreign_dag_depth_is_rejected() {
        let model = ModelId::AlexNet.build();
        let prepass =
            prepare_model_ctx(&Scheme::smart(), &model, 6, &SolverContext::new()).expect("ok");
        let mut cfg = TimingConfig::nominal();
        cfg.max_iterations = 4;
        let _ = prepass.replay(&cfg);
    }

    #[test]
    fn stall_free_twin_agrees_with_analytic_within_1pct() {
        let model = ModelId::AlexNet.build();
        for scheme in [Scheme::heter(), Scheme::pipe(), Scheme::smart()] {
            let dev = max_layer_deviation(&scheme, &model, &TimingConfig::nominal())
                .expect("heterogeneous");
            assert!(dev < 0.01, "{}: deviation {:.4}", scheme.name, dev);
        }
    }

    #[test]
    fn simulated_total_never_beats_analytic_ideal() {
        let model = ModelId::AlexNet.build();
        let scheme = Scheme::smart();
        let sim = simulate_scheme(&scheme, &model, &TimingConfig::nominal()).expect("simulates");
        for (s, layer) in sim.layers.iter().zip(&model.layers) {
            let mapping = LayerMapping::map(layer, scheme.config.shape, 1);
            assert!(
                s.compute_cycles == mapping.compute_cycles(),
                "{}: compute drifted",
                layer.name
            );
            assert!(s.total_cycles >= mapping.compute_cycles());
        }
    }
}
