//! Cross-crate integration tests: the device models, circuit simulator,
//! memory models, compiler, and evaluator working together.

use smart::compiler::formulation::{compile_layer_ctx, FormulationParams};
use smart::compiler::schedule::{Location, ScheduleSource};
use smart::compiler::SolverContext;
use smart::core::eval::evaluate;
use smart::core::scheme::Scheme;
use smart::cryomem::array::{RandomArray, RandomArrayKind};
use smart::josim::{CellSpec, CircuitCache};
use smart::sfq::cells::PtlLinkSpec;
use smart::sfq::jj::FLUX_QUANTUM;
use smart::systolic::dag::LayerDag;
use smart::systolic::mapping::{ArrayShape, LayerMapping};
use smart::systolic::models::ModelId;
use smart::systolic::trace::DataClass;

/// The paper's Fig. 13 validation runs end to end: the analytic PTL model
/// built in `smart-sfq` agrees with the transient simulation in
/// `smart-josim`, measured through the circuit cache, within the paper's
/// error bands.
#[test]
fn fig13_model_vs_circuit_simulation() {
    let cache = CircuitCache::new();
    for mm in [0.2, 0.5] {
        let spec = PtlLinkSpec::from_mm(mm);
        let m = cache
            .measure(&CellSpec::Ptl(spec))
            .expect("simulation runs");
        let delay_error = (m.delay - spec.closed_form_delay()) / spec.closed_form_delay();
        assert!(
            delay_error.abs() < 0.06,
            "delay error {:.1}% at {mm} mm",
            delay_error * 100.0
        );
        // The ladder's Gaussian source current (area 2*Phi0/Z, sigma 1 ps)
        // sees Z/2 (the source resistor in parallel with the matched
        // line), so it dissipates
        // E = (2*Phi0/Z)^2 / (2 sigma sqrt(pi)) * Z/2.
        let z = spec.geometry().impedance();
        let sigma = 1e-12;
        let analytic_energy =
            (2.0 * FLUX_QUANTUM / z).powi(2) / (2.0 * sigma * std::f64::consts::PI.sqrt()) * z
                / 2.0;
        let energy_error = (m.dissipated_energy - analytic_energy) / analytic_energy;
        assert!(
            energy_error.abs() < 0.11,
            "energy error {:.1}% at {mm} mm",
            energy_error * 100.0
        );
    }
}

/// The ILP compiler produces feasible schedules for every layer of every
/// model in the zoo, and the solver (not the greedy fallback) handles them.
#[test]
fn ilp_compiler_handles_all_models() {
    let shape = ArrayShape::new(64, 256);
    let params = FormulationParams::smart_default();
    for id in [ModelId::AlexNet, ModelId::GoogleNet] {
        let model = id.build();
        for layer in &model.layers {
            let mapping = LayerMapping::map(layer, shape, 1);
            let dag = LayerDag::build(&mapping, 4);
            let schedule = compile_layer_ctx(&dag, &params, &SolverContext::new());
            assert!(
                matches!(
                    schedule.source,
                    ScheduleSource::IlpOptimal | ScheduleSource::IlpFeasible
                ),
                "{}/{}: fell back to greedy",
                id.name(),
                layer.name
            );
            // Every placement respects per-edge SHIFT capacity.
            for edge in 0..dag.edges.len() as u32 {
                for class in DataClass::ALL {
                    let resident: u64 = dag
                        .objects
                        .iter()
                        .filter(|o| o.class == class)
                        .filter(|o| schedule.location_of(o.id) == Location::Shift)
                        .filter(|o| {
                            let ls = schedule.lifespans[o.id as usize];
                            ls.first_edge <= edge && edge <= ls.last_edge
                        })
                        .map(|o| o.bytes)
                        .sum();
                    assert!(resident <= params.shift_capacity);
                }
            }
        }
    }
}

/// End-to-end figure shape: the scheme ordering of Fig. 18 holds on every
/// model (SMART >= Pipe > SuperNPU > Heter > SRAM is the paper's gmean
/// ordering; we assert the key inequalities per model where the paper's
/// bars show them).
#[test]
fn fig18_scheme_ordering() {
    for id in ModelId::ALL {
        let model = id.build();
        let sn = evaluate(&Scheme::supernpu(), &model, 1);
        let pipe = evaluate(&Scheme::pipe(), &model, 1);
        let smart = evaluate(&Scheme::smart(), &model, 1);
        assert!(
            pipe.speedup_over(&sn) > 1.0,
            "{}: Pipe should beat SuperNPU",
            id.name()
        );
        assert!(
            smart.speedup_over(&pipe) >= 1.0,
            "{}: SMART should not lose to Pipe",
            id.name()
        );
    }
}

/// The headline result: SMART improves single-image throughput over
/// SuperNPU by a factor in the right band and cuts energy by most of it
/// (paper: 3.9x and -86%).
#[test]
fn headline_single_image_result() {
    let mut log_speed = 0.0;
    let mut log_energy = 0.0;
    for id in ModelId::ALL {
        let model = id.build();
        let sn = evaluate(&Scheme::supernpu(), &model, 1);
        let smart = evaluate(&Scheme::smart(), &model, 1);
        log_speed += smart.speedup_over(&sn).ln();
        log_energy += (smart.energy.total.as_si() / sn.energy.total.as_si()).ln();
    }
    let gmean_speed = (log_speed / ModelId::ALL.len() as f64).exp();
    let gmean_energy = (log_energy / ModelId::ALL.len() as f64).exp();
    assert!(
        (2.5..=12.0).contains(&gmean_speed),
        "gmean speedup = {gmean_speed:.2} (paper: 3.9)"
    );
    assert!(
        gmean_energy < 0.30,
        "gmean energy ratio = {gmean_energy:.2} (paper: 0.14)"
    );
}

/// The batch result: SMART still wins but by less (paper: 2.2x).
#[test]
fn headline_batch_result() {
    let mut log_speed = 0.0;
    for id in ModelId::ALL {
        let model = id.build();
        let sn = evaluate(&Scheme::supernpu(), &model, id.supernpu_batch());
        let smart = evaluate(&Scheme::smart(), &model, id.smart_batch());
        log_speed += smart.speedup_over(&sn).ln();
    }
    let gmean = (log_speed / ModelId::ALL.len() as f64).exp();
    assert!(gmean > 1.0, "SMART must still win at batch: {gmean:.2}");
    // The batch advantage is smaller than the single-image advantage.
    let single = {
        let mut l = 0.0;
        for id in ModelId::ALL {
            let model = id.build();
            let sn = evaluate(&Scheme::supernpu(), &model, 1);
            let smart = evaluate(&Scheme::smart(), &model, 1);
            l += smart.speedup_over(&sn).ln();
        }
        (l / ModelId::ALL.len() as f64).exp()
    };
    assert!(gmean < single, "batch {gmean:.2} vs single {single:.2}");
}

/// The pipelined array built from the cryomem component stack really is
/// what the SMART scheme evaluates with.
#[test]
fn smart_scheme_uses_pipelined_array() {
    let scheme = Scheme::smart();
    let smart::core::scheme::SpmOrganization::Heterogeneous(spm) = &scheme.spm else {
        panic!("SMART must be heterogeneous");
    };
    let rebuilt = RandomArray::build(RandomArrayKind::PipelinedCmosSfq, 28 * 1024 * 1024, 256);
    assert_eq!(spm.random, rebuilt);
    assert!(spm.random.pipelined);
    assert!(spm.random.issue_interval.as_ns() < 0.11);
}

/// All six models evaluate on all six schemes without panicking and with
/// sane outputs.
#[test]
fn full_matrix_evaluates() {
    let mut schemes = Scheme::figure18_set();
    schemes.push(Scheme::tpu());
    for id in ModelId::ALL {
        let model = id.build();
        for scheme in &schemes {
            let r = evaluate(scheme, &model, 1);
            assert!(r.total_time.as_s() > 0.0, "{}/{}", id.name(), scheme.name);
            assert!(r.energy.total.as_si() > 0.0);
            assert!(r.throughput_tmacs() <= scheme.config.peak_tmacs() * 1.001);
        }
    }
}
