//! Greedy SPM allocation: the "ideal static" baseline of the paper's
//! `Heter`/`Pipe` schemes, and the fallback when the ILP cannot produce a
//! feasible point.
//!
//! Objects are visited largest-saving-first and placed into the first array
//! (SHIFT, then RANDOM) whose per-edge capacity still fits them; leftovers
//! stay in DRAM. No prefetch decisions beyond the window already baked into
//! the lifespans.
//!
//! Beyond serving as a baseline, the greedy schedule seeds branch & bound:
//! `formulation` encodes its placements as ILP variable values and hands
//! them to the solver as the initial incumbent, so best-bound pruning is
//! active from the first node and the search only has to *improve on*
//! greedy rather than rediscover it.

// lint:allow-file(index, greedy allocation walks index pairs bounded by the lane counts it derives)

use crate::formulation::{
    FormulationParams, RANDOM_LOAD_PER_BYTE, RANDOM_SAVING_PER_BYTE, SHIFT_LOAD_PER_BYTE,
    SHIFT_SAVING_PER_BYTE,
};
use crate::lifespan::Lifespan;
use crate::schedule::{Location, Placement, Schedule, ScheduleSource};
use smart_systolic::dag::LayerDag;
use smart_systolic::trace::DataClass;

/// Greedily allocates the DAG's objects.
#[must_use]
pub fn allocate(dag: &LayerDag, params: &FormulationParams, lifespans: Vec<Lifespan>) -> Schedule {
    let edges = dag.edges.len() as u32;
    // Remaining capacity per edge for each array.
    let mut shift_free: Vec<[i64; 4]> = vec![[params.shift_capacity as i64; 4]; edges as usize];
    let mut random_free: Vec<i64> = vec![params.random_capacity as i64; edges as usize];
    // Per-edge fetch budget (the same bandwidth constraint the ILP has).
    let mut fetch_free: Vec<i64> = vec![params.bytes_per_iteration as i64; edges as usize];

    // Largest objects first (they are hardest to place).
    let mut order: Vec<u32> = dag.objects.iter().map(|o| o.id).collect();
    order.sort_by_key(|&id| std::cmp::Reverse(dag.objects[id as usize].bytes));

    let mut placements = vec![
        Placement {
            object: 0,
            location: Location::Dram,
        };
        dag.objects.len()
    ];
    let mut objective = 0.0;

    for id in order {
        let o = &dag.objects[id as usize];
        let ls = &lifespans[id as usize];
        let class_idx = class_index(o.class);
        let bytes = o.bytes as i64;

        let bandwidth_ok = fetch_free[ls.first_edge as usize] >= bytes;
        let fits_shift = bandwidth_ok
            && (ls.first_edge..=ls.last_edge).all(|e| shift_free[e as usize][class_idx] >= bytes);
        let location = if fits_shift {
            for e in ls.first_edge..=ls.last_edge {
                shift_free[e as usize][class_idx] -= bytes;
            }
            fetch_free[ls.first_edge as usize] -= bytes;
            objective += o.bytes as f64 * (SHIFT_SAVING_PER_BYTE - SHIFT_LOAD_PER_BYTE);
            Location::Shift
        } else {
            let fits_random = bandwidth_ok
                && (ls.first_edge..=ls.last_edge).all(|e| random_free[e as usize] >= bytes);
            if fits_random {
                for e in ls.first_edge..=ls.last_edge {
                    random_free[e as usize] -= bytes;
                }
                fetch_free[ls.first_edge as usize] -= bytes;
                objective += o.bytes as f64 * (RANDOM_SAVING_PER_BYTE - RANDOM_LOAD_PER_BYTE);
                Location::Random
            } else {
                Location::Dram
            }
        };
        placements[id as usize] = Placement {
            object: id,
            location,
        };
    }

    Schedule {
        placements,
        lifespans,
        prefetch_window: params.prefetch_window,
        objective,
        source: ScheduleSource::Greedy,
        nodes: 0,
    }
}

fn class_index(class: DataClass) -> usize {
    match class {
        DataClass::Weight => 0,
        DataClass::Input => 1,
        DataClass::Output => 2,
        DataClass::Psum => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifespan::analyze;
    use smart_systolic::layer::ConvLayer;
    use smart_systolic::mapping::{ArrayShape, LayerMapping};

    fn fixture() -> (LayerDag, FormulationParams) {
        let l = ConvLayer::conv("c", 27, 27, 96, 256, 5, 1, 2);
        let m = LayerMapping::map(&l, ArrayShape::new(64, 256), 1);
        (LayerDag::build(&m, 6), FormulationParams::smart_default())
    }

    #[test]
    fn greedy_places_everything_when_roomy() {
        let (dag, params) = fixture();
        let s = allocate(&dag, &params, analyze(&dag, params.prefetch_window));
        let (_, _, dram) = s.bytes_by_location(&dag);
        assert_eq!(dram, 0);
        assert_eq!(s.source, ScheduleSource::Greedy);
    }

    #[test]
    fn greedy_respects_shift_capacity() {
        let (dag, mut params) = fixture();
        params.shift_capacity = 2048;
        let s = allocate(&dag, &params, analyze(&dag, params.prefetch_window));
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
                assert!(resident <= params.shift_capacity);
            }
        }
    }

    #[test]
    fn greedy_overflows_to_random_then_dram() {
        let (dag, mut params) = fixture();
        params.shift_capacity = 64;
        params.random_capacity = 4096;
        let s = allocate(&dag, &params, analyze(&dag, params.prefetch_window));
        let (shift, random, dram) = s.bytes_by_location(&dag);
        assert!(random > 0 || dram > 0);
        // SHIFT never exceeds its tiny per-edge capacity times classes and
        // edges (each edge's capacity can be reused by disjoint lifespans).
        assert!(shift <= 64 * 4 * dag.edges.len() as u64);
    }

    #[test]
    fn greedy_objective_nonnegative() {
        let (dag, params) = fixture();
        let s = allocate(&dag, &params, analyze(&dag, params.prefetch_window));
        assert!(s.objective >= 0.0);
    }
}
