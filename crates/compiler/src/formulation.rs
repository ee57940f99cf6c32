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
use smart_ilp::problem::{Edit, Problem, Relation, Sense, VarId};
use smart_ilp::solver::{MipSolution, Solver};
use smart_ilp::SolverContext;
use smart_systolic::dag::{LayerDag, MemoryObject};
use smart_systolic::trace::DataClass;
use smart_units::codec::ContentHasher;
use std::hash::Hasher;
use std::sync::Arc;

/// Relative time saved per byte when streaming from SHIFT instead of DRAM
/// (the Eq. 5 `T^H_s` coefficient). The four Eq. 5 costs are ratios of the
/// access latencies: SHIFT 0.02 ns/word, RANDOM 0.103 ns/word, DRAM
/// reference 1.0.
pub const SHIFT_SAVING_PER_BYTE: f64 = 1.0;
/// Relative time saved per byte when streaming from RANDOM instead of DRAM
/// (`T^R_s`).
pub const RANDOM_SAVING_PER_BYTE: f64 = 0.9;
/// Load cost per byte into SHIFT (`T^HD/HR_r`).
pub const SHIFT_LOAD_PER_BYTE: f64 = 0.05;
/// Load cost per byte into RANDOM (`T^RD_r`).
pub const RANDOM_LOAD_PER_BYTE: f64 = 0.1;

/// Capacity parameters of the formulation.
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
}

impl FormulationParams {
    /// The SMART defaults (Table 4 geometry).
    #[must_use]
    pub fn smart_default() -> Self {
        Self {
            shift_capacity: 32 * 1024,
            random_capacity: 28 * 1024 * 1024,
            random_banks: 256,
            bytes_per_iteration: 4 * 1024 * 1024,
            prefetch_window: 3,
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
/// key over everything its rows depend on (the DAG, the lifespans and the
/// bandwidth budget), and each compilation sets only the SHIFT-capacity,
/// RANDOM-capacity and bank-count right-hand sides.
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
    /// Builds the problem at `params`' capacities in one pass, recording
    /// which rows hold a capacity. Adjacent edges usually see the same
    /// live/fetch sets, so the per-edge loops produce long runs of
    /// *identical* rows; those are deduplicated
    /// ([`Edit::add_distinct_constraint`]) before reaching the solver (a
    /// duplicate constraint cannot change the feasible region, but every
    /// extra row widens the simplex basis). Two rows are identical when
    /// their terms and right-hand sides are. Rows of one kind share their
    /// right-hand side, and rows of different kinds have different terms,
    /// except that a RANDOM-capacity row and a bank row (both over `r`
    /// variables) have the same terms when every object of the one is 1
    /// byte and they hold the same objects. So the rows and their order
    /// depend on the capacities only through whether the RANDOM capacity
    /// equals the bank count, which [`structure_key`] records.
    fn build(dag: &LayerDag, params: &FormulationParams, lifespans: &[Lifespan]) -> Self {
        let n_objects = dag.objects.len();
        let mut problem = Problem::new(Sense::Maximize);
        let mut p = problem.edit();
        // Two terms per object's exclusivity row, and per edge six rows: a
        // term per live object in a SHIFT row and in the RANDOM row, and
        // three per fetched one (each object is fetched once).
        let live_edges: usize = lifespans
            .iter()
            .map(|ls| ls.last_edge.saturating_sub(ls.first_edge) as usize + 1)
            .sum();
        let rows = n_objects + 6 * dag.edges.len();
        p.reserve(2 * n_objects, rows, 5 * n_objects + 2 * live_edges);
        let mut h_vars = Vec::with_capacity(n_objects);
        let mut r_vars = Vec::with_capacity(n_objects);
        for o in &dag.objects {
            let (h, r) = (p.binary(), p.binary());
            let bytes = o.bytes as f64;
            // Eq. 5: saving minus load cost, folded per object.
            p.set_objective(h, bytes * (SHIFT_SAVING_PER_BYTE - SHIFT_LOAD_PER_BYTE));
            p.set_objective(r, bytes * (RANDOM_SAVING_PER_BYTE - RANDOM_LOAD_PER_BYTE));
            p.add_constraint([(h, 1.0), (r, 1.0)], Relation::Le, 1.0);
            h_vars.push(h);
            r_vars.push(r);
        }

        let h = |o: &MemoryObject| h_vars[o.id as usize];
        let r = |o: &MemoryObject| r_vars[o.id as usize];
        let mut capacities = Vec::with_capacity(rows);
        capacities.resize(n_objects, None);
        // Each kind of edge row's right-hand side and the capacity it is.
        let [shift, random, banks] =
            [Capacity::Shift, Capacity::Random, Capacity::Banks].map(|c| (c.of(params), Some(c)));
        let bandwidth = (params.bytes_per_iteration as f64, None);
        // The objects live on an edge and those fetched there, in object
        // order; each row of the edge reads one of the two lists.
        let mut live = Vec::with_capacity(n_objects);
        let mut fetched = Vec::with_capacity(n_objects);
        for edge in 0..dag.edges.len() as u32 {
            live.clear();
            fetched.clear();
            for o in &dag.objects {
                let ls = &lifespans[o.id as usize];
                if ls.first_edge <= edge && edge <= ls.last_edge {
                    live.push(o);
                }
                if ls.first_edge == edge {
                    fetched.push(o);
                }
            }
            // SHIFT capacity per class.
            for class in DataClass::ALL {
                let of_class = live.iter().filter(|o| o.class == class);
                let terms = of_class.map(|o| (h(o), o.bytes as f64));
                push_row(&mut p, &mut capacities, terms, shift);
            }
            // RANDOM capacity (shared).
            let terms = live.iter().map(|o| (r(o), o.bytes as f64));
            push_row(&mut p, &mut capacities, terms, random);
            // Bandwidth: objects whose fetch edge is this edge.
            let terms = fetched
                .iter()
                .flat_map(|o| [(h(o), o.bytes as f64), (r(o), o.bytes as f64)]);
            push_row(&mut p, &mut capacities, terms, bandwidth);
            // Sub-bank: count of simultaneous RANDOM fetches.
            let terms = fetched.iter().map(|o| (r(o), 1.0));
            push_row(&mut p, &mut capacities, terms, banks);
        }

        problem.shrink_to_fit();
        capacities.shrink_to_fit();
        Self {
            problem,
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

/// Adds the edge row `terms <= rhs` unless it repeats an earlier one,
/// recording `capacity`, the right-hand side's, if any.
fn push_row(
    p: &mut Edit<'_>,
    capacities: &mut Vec<Option<Capacity>>,
    terms: impl IntoIterator<Item = (VarId, f64)>,
    (rhs, capacity): (f64, Option<Capacity>),
) {
    if p.add_distinct_constraint(terms, Relation::Le, rhs) {
        capacities.push(capacity);
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
/// and edge count, the lifespans, the bandwidth budget, and whether the
/// RANDOM capacity equals the bank count (see [`Formulation::build`]); the
/// capacities themselves are right-hand sides. The words stream straight
/// into one [`ContentHasher`].
fn structure_key(dag: &LayerDag, params: &FormulationParams, lifespans: &[Lifespan]) -> u128 {
    let merged = Capacity::Random.of(params).to_bits() == Capacity::Banks.of(params).to_bits();
    let mut h = ContentHasher::default();
    h.write_u64(params.bytes_per_iteration);
    h.write_u64(u64::from(merged));
    h.write_usize(dag.edges.len());
    h.write_usize(dag.objects.len());
    for o in &dag.objects {
        h.write_u64(u64::from(o.id));
        h.write_u64(o.class as u64);
        h.write_u64(o.bytes);
    }
    for ls in lifespans {
        h.write_u64(u64::from(ls.first_edge) << 32 | u64::from(ls.last_edge));
    }
    h.finish128()
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
    use smart_units::codec::{ByteReader, ByteWriter, Store};
    use smart_units::memo::Persist;
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
            let h = p.binary();
            let r = p.binary();
            let bytes = o.bytes as f64;
            p.set_objective(h, bytes * (SHIFT_SAVING_PER_BYTE - SHIFT_LOAD_PER_BYTE));
            p.set_objective(r, bytes * (RANDOM_SAVING_PER_BYTE - RANDOM_LOAD_PER_BYTE));
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

    /// The key of the one entry of the `R` store `ctx` saves.
    fn only_stored_key<R: Persist>(ctx: &SolverContext, tag: &str) -> u128 {
        let dir = std::env::temp_dir().join(format!("smart-compiler-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        ctx.save_to(&dir).expect("saves");
        let payload = Store::read_file(&dir.join(R::FILE_NAME), R::TAG, R::VERSION);
        std::fs::remove_dir_all(&dir).ok();
        let payload = payload.expect("the store opens");
        let mut r = ByteReader::new(&payload);
        assert_eq!(r.u64(), Some(1), "one entry");
        r.u128().expect("key")
    }

    #[test]
    fn the_persisted_keys_of_an_alexnet_compile_are_pinned() {
        // AlexNet conv3 at the SMART defaults: its structure-table key, and
        // the keys its compile stores its root basis and its solution
        // under. A change to any of them empties the stores and must bump
        // their versions.
        let dag = dag_for(&ModelId::AlexNet.build().layers[2]);
        let params = FormulationParams::smart_default();
        let lifespans = analyze(&dag, params.prefetch_window);
        assert_eq!(
            structure_key(&dag, &params, &lifespans),
            0x37e1_240d_1942_5c44_fa04_46e7_fd8c_4b39
        );
        let ctx = SolverContext::new();
        let _ = compile_layer_ctx(&dag, &params, &ctx);
        let solution = only_stored_key::<MipSolution>(&ctx, "pinned-solution");
        assert_eq!(solution, 0xbd09_15fd_5cf7_533c_ea0a_83f7_497a_d2fa);
        let basis = only_stored_key::<smart_ilp::Basis>(&ctx, "pinned-basis");
        assert_eq!(basis, 0x28d9_0452_3006_480f, "the structure's fingerprint");
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

    /// Rewrites the solution store in `dir`, passing every memoized
    /// solution through `damage`.
    fn rewrite_solutions(dir: &std::path::Path, damage: impl Fn(&mut MipSolution)) {
        let path = dir.join(MipSolution::FILE_NAME);
        let payload = Store::read_file(&path, MipSolution::TAG, MipSolution::VERSION)
            .expect("the solution store opens");
        let mut r = ByteReader::new(&payload);
        let mut w = ByteWriter::new();
        let n = r.u64().expect("count");
        w.u64(n);
        for _ in 0..n {
            w.u128(r.u128().expect("key"));
            let mut solution = MipSolution::read(&mut r).expect("solution");
            damage(&mut solution);
            solution.write(&mut w);
        }
        assert!(r.is_empty());
        Store::write_file(
            &path,
            MipSolution::TAG,
            MipSolution::VERSION,
            w.into_bytes(),
        )
        .expect("rewrites");
    }

    /// Compiles a layer on a fresh context that loads the store of a
    /// writer context after `damage` rewrote each memoized solution; the
    /// compile must equal the writer's and replay nothing.
    fn compiles_past_damaged_solutions(tag: &str, damage: impl Fn(&mut MipSolution)) {
        let dag = dag_for(&ConvLayer::conv("c", 13, 13, 64, 64, 3, 1, 1));
        let params = FormulationParams::smart_default();
        let writer = SolverContext::new();
        let expected = compile_layer_ctx(&dag, &params, &writer);
        let dir = std::env::temp_dir().join(format!("smart-compiler-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        writer.save_to(&dir).expect("saves");
        rewrite_solutions(&dir, damage);
        let ctx = SolverContext::new();
        let loaded = ctx.load_from(&dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded, writer.stats().stored_bases + 1, "the store loads");
        assert_eq!(compile_layer_ctx(&dag, &params, &ctx), expected);
        assert_eq!(ctx.stats().solution_hits, 0);
    }

    #[test]
    fn a_stored_solution_of_the_wrong_length_compiles_instead_of_panicking() {
        compiles_past_damaged_solutions("short-solution", |s| s.values.truncate(1));
    }

    #[test]
    fn a_stored_infeasible_solution_is_validated_not_replayed() {
        // Of the right length but not the seed: every placement variable
        // at 1 puts each object in SHIFT and in RANDOM at once.
        compiles_past_damaged_solutions("infeasible-solution", |s| s.values.fill(1.0));
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
