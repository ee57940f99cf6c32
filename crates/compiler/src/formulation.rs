//! The ILP formulation of SPM allocation and prefetching (Sec. 4.3,
//! Eq. 5-6), built once per layer structure and solved per design point
//! with `smart-ilp`.
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
use smart_systolic::dag::{LayerDag, MemoryObject};
use smart_systolic::trace::DataClass;
use smart_units::codec::content_hash;
use std::sync::Arc;

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
/// The problem's structure is built once per context: it is fetched from
/// the context's structure table ([`SolverContext::structure`]) under a
/// key over everything its rows depend on (the DAG, the lifespans, the
/// cost coefficients and the bandwidth budget), and each compilation sets
/// only the SHIFT-capacity, RANDOM-capacity and bank-count right-hand
/// sides.
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
    let f = formulation(dag, params, &lifespans, solver);
    let p = f.instantiate(params);
    let seed = seed_values(dag, &greedy, &f.h_vars, &f.r_vars, p.num_vars());
    let schedule = Solver::new()
        .with_node_limit(2_000)
        .with_incumbent(seed)
        .solve(&p, solver)
        .map(|sol| schedule_from(dag, params, lifespans, &sol, &f.h_vars, &f.r_vars));
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

/// A right-hand side that varies between design points of one structure.
#[derive(Debug, Clone, Copy)]
enum Capacity {
    /// Per-class SHIFT array bytes.
    Shift,
    /// Shared RANDOM array bytes.
    Random,
    /// RANDOM bank count.
    Banks,
}

impl Capacity {
    fn of(self, params: &FormulationParams) -> f64 {
        match self {
            Self::Shift => params.shift_capacity as f64,
            Self::Random => params.random_capacity as f64,
            Self::Banks => f64::from(params.random_banks),
        }
    }
}

/// The Eq. 5/6 problem of one layer structure: placement binaries, the
/// saving-minus-load objective, and per-edge capacity / bandwidth /
/// sub-bank constraints, with the capacity rows recorded so that each
/// design point sets its own.
#[derive(Debug)]
struct Formulation {
    /// The problem, at the capacities of the point that built it.
    problem: Problem,
    h_vars: Vec<VarId>,
    r_vars: Vec<VarId>,
    /// The capacity behind each row's right-hand side, if any.
    capacities: Vec<Option<Capacity>>,
}

impl Formulation {
    /// Builds the problem at `params`' capacities, recording which rows
    /// hold a capacity. Adjacent edges usually see the same live/fetch
    /// sets, so the per-edge loops produce long runs of *identical* rows;
    /// those are deduplicated
    /// before reaching the solver (a duplicate constraint cannot change the
    /// feasible region, but every extra row widens the simplex basis). Two
    /// rows are identical when their terms and right-hand sides are. Rows of
    /// one kind share their right-hand side, and rows of different kinds
    /// have different terms, except that a RANDOM-capacity row and a bank
    /// row (both over `r` variables) have the same terms when every object
    /// of the one is 1 byte and they hold the same objects. So the rows and
    /// their order depend on the capacities only through whether the RANDOM
    /// capacity equals the bank count, which [`structure_key`] records.
    fn build(dag: &LayerDag, params: &FormulationParams, lifespans: &[Lifespan]) -> Self {
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

        let mut capacities = vec![None; p.num_constraints()];
        let mut seen = std::collections::HashSet::new();
        let mut add_unique =
            |p: &mut Problem, terms: &[(VarId, f64)], rhs: f64, capacity: Option<Capacity>| {
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
                    capacities.push(capacity);
                    p.add_constraint(terms, Relation::Le, rhs);
                }
            };

        let live_on = |o: &MemoryObject, edge: u32| {
            let ls = &lifespans[o.id as usize];
            ls.first_edge <= edge && edge <= ls.last_edge
        };
        let fetched_on = |o: &MemoryObject, edge: u32| lifespans[o.id as usize].first_edge == edge;
        let edges = dag.edges.len() as u32;
        for edge in 0..edges {
            // SHIFT capacity per class.
            for class in DataClass::ALL {
                let terms: Vec<_> = dag
                    .objects
                    .iter()
                    .filter(|o| o.class == class && live_on(o, edge))
                    .map(|o| (h_vars[o.id as usize], o.bytes as f64))
                    .collect();
                let shift = Capacity::Shift;
                add_unique(&mut p, &terms, shift.of(params), Some(shift));
            }
            // RANDOM capacity (shared).
            let terms: Vec<_> = dag
                .objects
                .iter()
                .filter(|o| live_on(o, edge))
                .map(|o| (r_vars[o.id as usize], o.bytes as f64))
                .collect();
            let random = Capacity::Random;
            add_unique(&mut p, &terms, random.of(params), Some(random));
            // Bandwidth: objects whose fetch edge is this edge.
            let fetch_terms: Vec<_> = dag
                .objects
                .iter()
                .filter(|o| fetched_on(o, edge))
                .flat_map(|o| {
                    [
                        (h_vars[o.id as usize], o.bytes as f64),
                        (r_vars[o.id as usize], o.bytes as f64),
                    ]
                })
                .collect();
            add_unique(
                &mut p,
                &fetch_terms,
                params.bytes_per_iteration as f64,
                None,
            );
            // Sub-bank: count of simultaneous RANDOM fetches.
            let bank_terms: Vec<_> = dag
                .objects
                .iter()
                .filter(|o| fetched_on(o, edge))
                .map(|o| (r_vars[o.id as usize], 1.0))
                .collect();
            let banks = Capacity::Banks;
            add_unique(&mut p, &bank_terms, banks.of(params), Some(banks));
        }

        p.shrink_to_fit();
        capacities.shrink_to_fit();
        Self {
            problem: p,
            h_vars,
            r_vars,
            capacities,
        }
    }

    /// The problem at `params`' capacities (its structure shared with this
    /// formulation's).
    fn instantiate(&self, params: &FormulationParams) -> Problem {
        let mut p = self.problem.clone();
        for (row, capacity) in self.capacities.iter().enumerate() {
            if let Some(c) = capacity {
                p.set_rhs(row, c.of(params));
            }
        }
        p
    }
}

/// The formulation of `dag` under `params`' structure, from `solver`'s
/// structure table (built on the first request).
fn formulation(
    dag: &LayerDag,
    params: &FormulationParams,
    lifespans: &[Lifespan],
    solver: &SolverContext,
) -> Arc<Formulation> {
    solver.structure(structure_key(dag, params, lifespans), || {
        Formulation::build(dag, params, lifespans)
    })
}

/// The structure-table key of a layer's formulation: everything its rows,
/// their order and its objective depend on. That is the DAG's objects
/// and edge count, the lifespans, the cost coefficients, the bandwidth
/// budget, and whether the RANDOM capacity equals the bank count (see
/// [`Formulation::build`]); the capacities themselves are right-hand sides.
fn structure_key(dag: &LayerDag, params: &FormulationParams, lifespans: &[Lifespan]) -> u128 {
    let merged = Capacity::Random.of(params).to_bits() == Capacity::Banks.of(params).to_bits();
    let mut words = Vec::with_capacity(3 * dag.objects.len() + lifespans.len() + 7);
    words.push(dag.edges.len() as u64);
    for o in &dag.objects {
        words.extend([u64::from(o.id), o.class as u64, o.bytes]);
    }
    for ls in lifespans {
        words.push(u64::from(ls.first_edge) << 32 | u64::from(ls.last_edge));
    }
    words.extend([
        params.shift_saving_per_byte.to_bits(),
        params.shift_load_per_byte.to_bits(),
        params.random_saving_per_byte.to_bits(),
        params.random_load_per_byte.to_bits(),
        params.bytes_per_iteration,
        u64::from(merged),
    ]);
    content_hash(&words)
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

#[cfg(test)]
mod tests {
    use super::*;
    use smart_systolic::layer::ConvLayer;
    use smart_systolic::mapping::{ArrayShape, LayerMapping};
    use smart_systolic::models::ModelId;
    use smart_units::codec::{ByteReader, ByteWriter};
    use smart_units::rng::Rng;

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

    /// The Eq. 5/6 problem built from scratch for one design point,
    /// without the structure table: the oracle every instance must equal
    /// bit for bit.
    fn fresh_problem(
        dag: &LayerDag,
        params: &FormulationParams,
        lifespans: &[Lifespan],
    ) -> Problem {
        let live_on = |ls: &Lifespan, edge: u32| ls.first_edge <= edge && edge <= ls.last_edge;
        let mut p = Problem::new(Sense::Maximize);
        let mut h_vars = Vec::new();
        let mut r_vars = Vec::new();
        for o in &dag.objects {
            let h = p.binary(&format!("h_{}", o.id));
            let r = p.binary(&format!("r_{}", o.id));
            let bytes = o.bytes as f64;
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
            let mut key: Vec<u64> = terms
                .iter()
                .flat_map(|(v, k)| [v.index() as u64, k.to_bits()])
                .collect();
            key.push(rhs.to_bits());
            if seen.insert(key) {
                p.add_constraint(terms, Relation::Le, rhs);
            }
        };
        for edge in 0..dag.edges.len() as u32 {
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
            let terms: Vec<_> = dag
                .objects
                .iter()
                .filter(|o| live_on(&lifespans[o.id as usize], edge))
                .map(|o| (r_vars[o.id as usize], o.bytes as f64))
                .collect();
            add_unique(&mut p, &terms, params.random_capacity as f64);
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
            let bank_terms: Vec<_> = dag
                .objects
                .iter()
                .filter(|o| lifespans[o.id as usize].first_edge == edge)
                .map(|o| (r_vars[o.id as usize], 1.0))
                .collect();
            add_unique(&mut p, &bank_terms, f64::from(params.random_banks));
        }
        p
    }

    /// The largest activity of every SHIFT-capacity, RANDOM-capacity and
    /// bank row on every edge (duplicates included): bytes live in one
    /// class, bytes live in all, objects fetched.
    fn capacity_activities(dag: &LayerDag, lifespans: &[Lifespan]) -> [Vec<u64>; 3] {
        let mut acts: [Vec<u64>; 3] = Default::default();
        for edge in 0..dag.edges.len() as u32 {
            let live = |o: &&MemoryObject| {
                let ls = &lifespans[o.id as usize];
                ls.first_edge <= edge && edge <= ls.last_edge
            };
            for class in DataClass::ALL {
                let bytes = dag.objects.iter().filter(live).filter(|o| o.class == class);
                acts[0].push(bytes.map(|o| o.bytes).sum());
            }
            acts[1].push(dag.objects.iter().filter(live).map(|o| o.bytes).sum());
            let fetched = dag
                .objects
                .iter()
                .filter(|o| lifespans[o.id as usize].first_edge == edge);
            acts[2].push(fetched.count() as u64);
        }
        for a in &mut acts {
            a.retain(|&x| x > 0);
        }
        acts
    }

    /// A capacity against rows of these activities: one row's activity
    /// exactly, below it (that row binds), above it, or above them all (no
    /// row of the kind can bind).
    fn draw_capacity(rng: &mut Rng, activities: &[u64]) -> u64 {
        let mut below = |n: u64| rng.next_u64() % n.max(1);
        let a = activities[below(activities.len() as u64) as usize];
        let max = activities.iter().copied().max().unwrap_or(1);
        match below(4) {
            0 => a,
            1 => (a - below(a)).max(1),
            2 => a + 1 + below(a),
            _ => max + 1 + below(max),
        }
    }

    #[test]
    fn every_instance_equals_a_fresh_build_of_its_design_point() {
        // Per case: is each capacity row's activity above its rhs (it
        // binds), equal to it, or below it by more than the presolve
        // margin (it never binds)?
        let mut cases = [0usize; 3];
        let mut rng = Rng::new(0x5eed_cafe);
        for model in [ModelId::AlexNet, ModelId::Vgg16] {
            // One context per model: every layer and window shares its
            // structure table.
            let ctx = SolverContext::new();
            let mut dags = 0;
            for layer in &model.build().layers {
                let dag = dag_for(layer);
                for window in 1..=5 {
                    dags += 1;
                    let lifespans = analyze(&dag, window);
                    let acts = capacity_activities(&dag, &lifespans);
                    for _ in 0..4 {
                        let mut params = FormulationParams::smart_default();
                        params.prefetch_window = window;
                        params.shift_capacity = draw_capacity(&mut rng, &acts[0]);
                        params.random_capacity = draw_capacity(&mut rng, &acts[1]);
                        params.random_banks =
                            draw_capacity(&mut rng, &acts[2]).clamp(1, 256) as u32;
                        let got = formulation(&dag, &params, &lifespans, &ctx).instantiate(&params);
                        let want = fresh_problem(&dag, &params, &lifespans);
                        assert!(
                            got == want,
                            "{} at window {window}, {params:?}: instance differs",
                            layer.name
                        );
                        let rhs = [
                            params.shift_capacity,
                            params.random_capacity,
                            u64::from(params.random_banks),
                        ];
                        for (kind, &cap) in acts.iter().zip(&rhs) {
                            for &a in kind {
                                let slack = cap as f64 - a as f64;
                                let i = if slack < 0.0 {
                                    0
                                } else if slack == 0.0 {
                                    1
                                } else if slack > 1e-6 * cap as f64 {
                                    2
                                } else {
                                    continue;
                                };
                                cases[i] += 1;
                            }
                        }
                    }
                }
            }
            let structures = ctx.stats().structures;
            assert!((1..=dags).contains(&structures), "{structures} of {dags}");
        }
        assert!(
            cases.iter().all(|&n| n > 0),
            "binding/equal/never: {cases:?}"
        );
    }

    #[test]
    fn a_random_row_and_a_bank_row_merge_when_the_capacity_equals_the_bank_count() {
        // With every object 1 byte, the RANDOM-capacity row of edge 0 and
        // its bank row have the same terms (the objects live on edge 0 are
        // the ones fetched there); at equal right-hand sides the dedupe
        // keeps one of them.
        let mut dag = dag_for(&ConvLayer::conv("c", 13, 13, 64, 64, 3, 1, 1));
        for o in &mut dag.objects {
            o.bytes = 1;
        }
        let ctx = SolverContext::new();
        let mut params = FormulationParams::smart_default();
        params.prefetch_window = 1;
        let lifespans = analyze(&dag, 1);
        let mut instance = |capacity: u64, banks: u32| {
            params.random_capacity = capacity;
            params.random_banks = banks;
            let got = formulation(&dag, &params, &lifespans, &ctx).instantiate(&params);
            assert_eq!(
                got,
                fresh_problem(&dag, &params, &lifespans),
                "{capacity} vs {banks}"
            );
            got.num_constraints()
        };
        let merged = instance(7, 7);
        let apart = instance(7, 8);
        assert!(merged < apart, "{merged} rows merged, {apart} apart");
        assert_eq!(instance(5, 5), merged);
        assert_eq!(instance(9, 3), apart);
        assert_eq!(ctx.stats().structures, 2);
    }

    #[test]
    fn instances_share_a_memo_entry_only_across_never_binding_capacities() {
        // SHIFT capacity binds in this layer; no allocation exhausts the
        // 28 MB RANDOM array or its 256 banks.
        let dag = dag_for(&ConvLayer::conv("c", 56, 56, 128, 256, 3, 1, 1));
        let ctx = SolverContext::new();
        let mut params = FormulationParams::smart_default();
        let first = compile_layer_ctx(&dag, &params, &ctx);
        params.random_capacity += 1024 * 1024;
        params.random_banks = 200;
        assert_eq!(compile_layer_ctx(&dag, &params, &ctx), first);
        let stats = ctx.stats();
        assert_eq!(
            (
                stats.structures,
                stats.stored_solutions,
                stats.solution_hits
            ),
            (1, 1, 1),
            "{stats:?}"
        );
        params.shift_capacity /= 2;
        let _ = compile_layer_ctx(&dag, &params, &ctx);
        let stats = ctx.stats();
        assert_eq!(
            (
                stats.structures,
                stats.stored_solutions,
                stats.solution_hits
            ),
            (1, 2, 1),
            "{stats:?}"
        );
    }

    /// `payload` (a `SolverContext` store) with every memoized solution cut
    /// to its first value, length fields kept consistent.
    fn truncate_solutions(payload: &[u8]) -> Vec<u8> {
        let mut r = ByteReader::new(payload);
        let mut w = ByteWriter::new();
        let copy_u64 = |r: &mut ByteReader<'_>, w: &mut ByteWriter| {
            let v = r.u64().expect("u64");
            w.u64(v);
            v
        };
        for _ in 0..copy_u64(&mut r, &mut w) {
            copy_u64(&mut r, &mut w);
            w.u64_slice(&r.u64_vec().expect("basic columns"));
            for _ in 0..copy_u64(&mut r, &mut w) {
                w.u8(r.u8().expect("status"));
            }
        }
        for _ in 0..copy_u64(&mut r, &mut w) {
            w.u128(r.u128().expect("key"));
            w.f64(r.f64().expect("objective"));
            let values: Vec<f64> = (0..r.u64().expect("len"))
                .map(|_| r.f64().expect("value"))
                .collect();
            w.u64(1);
            w.f64(values[0]);
            copy_u64(&mut r, &mut w);
            w.u8(r.u8().expect("optimal"));
        }
        assert!(r.is_empty());
        w.into_bytes()
    }

    #[test]
    fn a_stored_solution_of_the_wrong_length_compiles_instead_of_panicking() {
        let dag = dag_for(&ConvLayer::conv("c", 13, 13, 64, 64, 3, 1, 1));
        let params = FormulationParams::smart_default();
        let writer = SolverContext::new();
        let expected = compile_layer_ctx(&dag, &params, &writer);
        let ctx = SolverContext::new();
        let loaded = ctx.load_bytes(&truncate_solutions(&writer.to_bytes()));
        assert_eq!(loaded, writer.stats().stored_bases + 1, "the store loads");
        assert_eq!(compile_layer_ctx(&dag, &params, &ctx), expected);
        assert_eq!(ctx.stats().solution_hits, 0);
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
