//! The ILP formulation of SPM allocation and prefetching (Sec. 4.3,
//! Eq. 5-6), built per layer and solved with `smart-ilp`.
//!
//! Variables: for every memory object `o`, binaries `h_o` (allocated to its
//! class's SHIFT array) and `r_o` (allocated to the shared RANDOM array);
//! unallocated objects stream from DRAM.
//!
//! Objective (Eq. 5): maximize the access-time saving of SPM residency
//! minus the cost of the loads that bring objects in (`T^HD`, `T^RD`,
//! `T^HR` terms — weights arrive from DRAM, inputs/PSums from the RANDOM
//! array or DRAM).
//!
//! Constraints:
//! * placement exclusivity: `h_o + r_o <= 1`;
//! * Eq. 6 consistency is enforced *by construction*: an object's residency
//!   interval is exactly its lifespan window, so it is loaded once at its
//!   fetch edge and stays until its last edge;
//! * SPM size per edge: resident bytes fit the SHIFT array of each class
//!   and the shared RANDOM array on every edge;
//! * SPM bandwidth: bytes fetched at one edge are bounded by the transfer
//!   budget of one iteration;
//! * sub-bank: at most `banks` objects may be fetched into the RANDOM array
//!   on the same edge (conflicting fetches serialize).

// lint:allow-file(index, the formulation indexes object/slot matrices sized by its own constructor)

use crate::lifespan::{analyze, Lifespan};
use crate::schedule::{Location, Placement, Schedule, ScheduleSource};
use smart_ilp::problem::{Problem, Relation, Sense, VarId};
use smart_ilp::solver::{MipSolution, Solver};
use smart_ilp::SolverContext;
use smart_systolic::dag::LayerDag;
use smart_systolic::trace::DataClass;

/// Cost/capacity parameters of the formulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormulationParams {
    /// Per-class SHIFT array capacity in bytes.
    pub shift_capacity: u64,
    /// Shared RANDOM array capacity in bytes.
    pub random_capacity: u64,
    /// RANDOM array bank count (sub-bank constraint).
    pub random_banks: u32,
    /// Bytes transferable into SPMs during one iteration (bandwidth
    /// constraint).
    pub bytes_per_iteration: u64,
    /// Prefetch window `a` (>= 1).
    pub prefetch_window: u32,
    /// Relative time saved per byte when streaming from SHIFT instead of
    /// DRAM (the Eq. 5 `T^H_s` coefficient).
    pub shift_saving_per_byte: f64,
    /// Relative time saved per byte when streaming from RANDOM instead of
    /// DRAM (`T^R_s`).
    pub random_saving_per_byte: f64,
    /// Load cost per byte into SHIFT (`T^HD/HR_r`).
    pub shift_load_per_byte: f64,
    /// Load cost per byte into RANDOM (`T^RD_r`).
    pub random_load_per_byte: f64,
}

impl FormulationParams {
    /// The SMART defaults (Table 4 geometry, cost ratios from the access
    /// latencies: SHIFT 0.02 ns/word, RANDOM 0.103 ns/word, DRAM reference
    /// 1.0).
    #[must_use]
    pub fn smart_default() -> Self {
        Self {
            shift_capacity: 32 * 1024,
            random_capacity: 28 * 1024 * 1024,
            random_banks: 256,
            bytes_per_iteration: 4 * 1024 * 1024,
            prefetch_window: 3,
            shift_saving_per_byte: 1.0,
            random_saving_per_byte: 0.9,
            shift_load_per_byte: 0.05,
            random_load_per_byte: 0.1,
        }
    }
}

/// Builds and solves the allocation ILP for one layer DAG, threading the
/// caller's [`SolverContext`] through the solver so adjacent compilations
/// (the same layer at different capacities, the ablation's
/// default-vs-contested runs, neighbouring design points) warm-start from
/// each other's optimal bases and identical ones replay from its memo. A
/// one-off compilation passes `&SolverContext::new()`.
///
/// The greedy allocation is computed first and seeded as the solver's
/// initial incumbent, so best-bound pruning starts at node zero and a
/// node-limited search can never return something worse than greedy. When
/// the solver finds no feasible point, the greedy schedule is returned
/// (the paper's compiler is "near-optimal" as well).
///
/// # Panics
///
/// Panics if `params.prefetch_window` is zero.
#[must_use]
pub fn compile_layer_ctx(
    dag: &LayerDag,
    params: &FormulationParams,
    solver: &SolverContext,
) -> Schedule {
    let lifespans = analyze(dag, params.prefetch_window);
    let greedy = crate::greedy::allocate(dag, params, lifespans.clone());
    let (p, h_vars, r_vars) = build_problem(dag, params, &lifespans);
    let seed = seed_values(dag, &greedy, &h_vars, &r_vars, p.num_vars());
    let schedule = Solver::new()
        .with_node_limit(2_000)
        .with_incumbent(seed)
        .solve(&p, solver)
        .map(|sol| schedule_from(dag, params, lifespans, &sol, &h_vars, &r_vars));
    match schedule {
        // The incumbent seed makes the solver's result at least as good as
        // greedy; this guard only survives as a numerical backstop.
        Ok(s) if s.source == ScheduleSource::IlpFeasible && greedy.objective > s.objective => {
            greedy
        }
        Ok(s) => s,
        Err(_) => greedy,
    }
}

/// Encodes a (greedy) schedule as ILP variable values, for incumbent
/// seeding: `h_o = 1` for SHIFT placements, `r_o = 1` for RANDOM ones.
fn seed_values(
    dag: &LayerDag,
    schedule: &Schedule,
    h_vars: &[VarId],
    r_vars: &[VarId],
    n_vars: usize,
) -> Vec<f64> {
    let mut values = vec![0.0; n_vars];
    for o in &dag.objects {
        match schedule.location_of(o.id) {
            Location::Shift => values[h_vars[o.id as usize].index()] = 1.0,
            Location::Random => values[r_vars[o.id as usize].index()] = 1.0,
            Location::Dram => {}
        }
    }
    values
}

/// Assembles the Eq. 5/6 problem: placement binaries, the saving-minus-load
/// objective, and per-edge capacity / bandwidth / sub-bank constraints.
///
/// Adjacent edges usually see the same live/fetch sets, so the per-edge
/// loops produce long runs of *identical* rows; those are deduplicated
/// before reaching the solver (a duplicate constraint cannot change the
/// feasible region, but every extra row widens the simplex basis).
fn build_problem(
    dag: &LayerDag,
    params: &FormulationParams,
    lifespans: &[Lifespan],
) -> (Problem, Vec<VarId>, Vec<VarId>) {
    let n_objects = dag.objects.len();

    let mut p = Problem::new(Sense::Maximize);
    let mut h_vars = Vec::with_capacity(n_objects);
    let mut r_vars = Vec::with_capacity(n_objects);
    for o in &dag.objects {
        let h = p.binary(&format!("h_{}", o.id));
        let r = p.binary(&format!("r_{}", o.id));
        let bytes = o.bytes as f64;
        // Eq. 5: saving minus load cost, folded per object.
        p.set_objective(
            h,
            bytes * (params.shift_saving_per_byte - params.shift_load_per_byte),
        );
        p.set_objective(
            r,
            bytes * (params.random_saving_per_byte - params.random_load_per_byte),
        );
        p.add_constraint(&[(h, 1.0), (r, 1.0)], Relation::Le, 1.0);
        h_vars.push(h);
        r_vars.push(r);
    }

    let mut seen = std::collections::HashSet::new();
    let mut add_unique = |p: &mut Problem, terms: &[(VarId, f64)], rhs: f64| {
        if terms.is_empty() {
            return;
        }
        let mut key = Vec::with_capacity(terms.len() * 2 + 1);
        for (v, k) in terms {
            key.push(v.index() as u64);
            key.push(k.to_bits());
        }
        key.push(rhs.to_bits());
        if seen.insert(key) {
            p.add_constraint(terms, Relation::Le, rhs);
        }
    };

    let edges = dag.edges.len() as u32;
    for edge in 0..edges {
        // SHIFT capacity per class.
        for class in DataClass::ALL {
            let terms: Vec<_> = dag
                .objects
                .iter()
                .filter(|o| o.class == class)
                .filter(|o| live_on(&lifespans[o.id as usize], edge))
                .map(|o| (h_vars[o.id as usize], o.bytes as f64))
                .collect();
            add_unique(&mut p, &terms, params.shift_capacity as f64);
        }
        // RANDOM capacity (shared).
        let terms: Vec<_> = dag
            .objects
            .iter()
            .filter(|o| live_on(&lifespans[o.id as usize], edge))
            .map(|o| (r_vars[o.id as usize], o.bytes as f64))
            .collect();
        add_unique(&mut p, &terms, params.random_capacity as f64);
        // Bandwidth: objects whose fetch edge is this edge.
        let fetch_terms: Vec<_> = dag
            .objects
            .iter()
            .filter(|o| lifespans[o.id as usize].first_edge == edge)
            .flat_map(|o| {
                [
                    (h_vars[o.id as usize], o.bytes as f64),
                    (r_vars[o.id as usize], o.bytes as f64),
                ]
            })
            .collect();
        add_unique(&mut p, &fetch_terms, params.bytes_per_iteration as f64);
        // Sub-bank: count of simultaneous RANDOM fetches.
        let bank_terms: Vec<_> = dag
            .objects
            .iter()
            .filter(|o| lifespans[o.id as usize].first_edge == edge)
            .map(|o| (r_vars[o.id as usize], 1.0))
            .collect();
        add_unique(&mut p, &bank_terms, f64::from(params.random_banks));
    }

    (p, h_vars, r_vars)
}

/// Decodes a MIP solution into object placements.
fn schedule_from(
    dag: &LayerDag,
    params: &FormulationParams,
    lifespans: Vec<Lifespan>,
    sol: &MipSolution,
    h_vars: &[VarId],
    r_vars: &[VarId],
) -> Schedule {
    let source = if sol.proven_optimal {
        ScheduleSource::IlpOptimal
    } else {
        ScheduleSource::IlpFeasible
    };
    let placements = dag
        .objects
        .iter()
        .map(|o| {
            let location = if sol.value(h_vars[o.id as usize]) > 0.5 {
                Location::Shift
            } else if sol.value(r_vars[o.id as usize]) > 0.5 {
                Location::Random
            } else {
                Location::Dram
            };
            Placement {
                object: o.id,
                location,
            }
        })
        .collect();
    Schedule {
        placements,
        lifespans,
        prefetch_window: params.prefetch_window,
        objective: sol.objective,
        source,
        nodes: sol.nodes,
    }
}

fn live_on(ls: &Lifespan, edge: u32) -> bool {
    ls.first_edge <= edge && edge <= ls.last_edge
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_systolic::layer::ConvLayer;
    use smart_systolic::mapping::{ArrayShape, LayerMapping};
    use smart_systolic::models::ModelId;

    fn dag_for(layer: &ConvLayer) -> LayerDag {
        let m = LayerMapping::map(layer, ArrayShape::new(64, 256), 1);
        LayerDag::build(&m, 6)
    }

    fn compile_fresh(dag: &LayerDag, params: &FormulationParams) -> Schedule {
        compile_layer_ctx(dag, params, &SolverContext::new())
    }

    /// AlexNet's summed allocation objective at each SHIFT capacity, every
    /// layer compiled through `solver`: the Fig. 22 sweep as the ILP sees
    /// it, before the evaluator.
    fn alexnet_capacity_sweep(solver: &SolverContext, capacities_kb: &[u64]) -> Vec<f64> {
        let dags: Vec<LayerDag> = ModelId::AlexNet
            .build()
            .layers
            .iter()
            .map(dag_for)
            .collect();
        capacities_kb
            .iter()
            .map(|&kb| {
                let mut params = FormulationParams::smart_default();
                params.shift_capacity = kb * 1024;
                dags.iter()
                    .map(|dag| compile_layer_ctx(dag, &params, solver).objective)
                    .sum()
            })
            .collect()
    }

    #[test]
    fn small_layer_fully_resident() {
        // A small layer fits everything in SPM: no object left in DRAM.
        let l = ConvLayer::conv("c", 13, 13, 64, 64, 3, 1, 1);
        let dag = dag_for(&l);
        let s = compile_fresh(&dag, &FormulationParams::smart_default());
        assert!(matches!(
            s.source,
            ScheduleSource::IlpOptimal | ScheduleSource::IlpFeasible
        ));
        let (_, _, dram) = s.bytes_by_location(&dag);
        assert_eq!(dram, 0, "everything should be SPM-resident");
    }

    #[test]
    fn shift_preferred_for_fit() {
        // SHIFT has the higher saving, so small objects should prefer it.
        let l = ConvLayer::conv("c", 13, 13, 64, 64, 3, 1, 1);
        let dag = dag_for(&l);
        let s = compile_fresh(&dag, &FormulationParams::smart_default());
        let (shift, _, _) = s.bytes_by_location(&dag);
        assert!(shift > 0);
    }

    #[test]
    fn capacity_respected() {
        // Shrink the SHIFT arrays so large objects must go to RANDOM.
        let l = ConvLayer::conv("c", 56, 56, 128, 256, 3, 1, 1);
        let dag = dag_for(&l);
        let mut params = FormulationParams::smart_default();
        params.shift_capacity = 1024;
        let s = compile_fresh(&dag, &params);
        // Verify per-edge residency against capacity.
        for edge in 0..dag.edges.len() as u32 {
            for class in DataClass::ALL {
                let resident: u64 = dag
                    .objects
                    .iter()
                    .filter(|o| o.class == class)
                    .filter(|o| s.location_of(o.id) == Location::Shift)
                    .filter(|o| {
                        let ls = s.lifespans[o.id as usize];
                        ls.first_edge <= edge && edge <= ls.last_edge
                    })
                    .map(|o| o.bytes)
                    .sum();
                assert!(
                    resident <= params.shift_capacity,
                    "edge {edge} class {class:?}: {resident} bytes"
                );
            }
        }
    }

    #[test]
    fn tiny_random_array_pushes_data_to_dram() {
        let l = ConvLayer::conv("c", 56, 56, 128, 256, 3, 1, 1);
        let dag = dag_for(&l);
        let mut params = FormulationParams::smart_default();
        params.shift_capacity = 512;
        params.random_capacity = 1024;
        let s = compile_fresh(&dag, &params);
        let (_, _, dram) = s.bytes_by_location(&dag);
        assert!(dram > 0, "overflow must fall back to DRAM");
    }

    #[test]
    fn objective_positive_when_spm_used() {
        let l = ConvLayer::conv("c", 13, 13, 64, 64, 3, 1, 1);
        let dag = dag_for(&l);
        let s = compile_fresh(&dag, &FormulationParams::smart_default());
        assert!(s.objective > 0.0);
    }

    #[test]
    fn prefetch_window_recorded() {
        let l = ConvLayer::conv("c", 13, 13, 64, 64, 3, 1, 1);
        let dag = dag_for(&l);
        let mut params = FormulationParams::smart_default();
        params.prefetch_window = 4;
        let s = compile_fresh(&dag, &params);
        assert_eq!(s.prefetch_window, 4);
        assert!(s.prefetched_fraction(&dag) > 0.0);
    }

    #[test]
    fn allocation_sweep_is_monotone_and_warm_starts() {
        let ctx = SolverContext::new();
        let objectives = alexnet_capacity_sweep(&ctx, &[8, 16, 32]);
        assert_eq!(objectives.len(), 3);
        // More staging capacity can only help the allocation objective.
        assert!(objectives[0] <= objectives[1] + 1e-6);
        assert!(objectives[1] <= objectives[2] + 1e-6);
        let stats = ctx.stats();
        assert!(
            stats.warm_attempts > 0,
            "adjacent points must warm-start: {stats:?}"
        );
    }

    #[test]
    fn allocation_sweep_shared_context_matches_fresh_contexts() {
        // Warm-start reuse must never change a result, only wall-clock.
        let capacities = [16u64, 32];
        let shared = alexnet_capacity_sweep(&SolverContext::new(), &capacities);
        for (i, kb) in capacities.into_iter().enumerate() {
            let fresh = alexnet_capacity_sweep(&SolverContext::new(), &[kb])[0];
            assert!(
                (shared[i] - fresh).abs() < 1e-6,
                "{kb}KB: {} vs {fresh}",
                shared[i]
            );
        }
    }
}
