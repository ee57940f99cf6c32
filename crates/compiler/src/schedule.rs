//! Compiler output: per-object placements and the derived load-exposure
//! model the evaluator consumes.

// lint:allow-file(index, schedule slots are indexed by positions produced by the same pass)

use crate::lifespan::Lifespan;
use smart_systolic::dag::LayerDag;
use smart_systolic::trace::DataClass;
use smart_units::Time;

/// Where an object is allocated for its whole lifespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// The class's SHIFT staging array.
    Shift,
    /// The shared RANDOM array.
    Random,
    /// Not SPM-resident: streamed from DRAM on use.
    Dram,
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Shift => "SHIFT",
            Self::Random => "RANDOM",
            Self::Dram => "DRAM",
        })
    }
}

/// Placement decision for one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Object id.
    pub object: u32,
    /// Chosen location.
    pub location: Location,
}

/// How the schedule was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleSource {
    /// The ILP solver proved optimality.
    IlpOptimal,
    /// The ILP solver hit its node limit; best incumbent used.
    IlpFeasible,
    /// Greedy allocation (baseline schemes or ILP fallback).
    Greedy,
}

/// A compiled layer schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Placement per object, indexed by object id.
    pub placements: Vec<Placement>,
    /// Lifespans used (fixes prefetch distances).
    pub lifespans: Vec<Lifespan>,
    /// Prefetch window `a` the schedule was built with.
    pub prefetch_window: u32,
    /// ILP objective value (time saved, in model units), if solved.
    pub objective: f64,
    /// Provenance.
    pub source: ScheduleSource,
    /// Branch & bound nodes the solver explored to produce this schedule
    /// (0 for greedy allocations — and for ILP schedules whose seeded
    /// greedy incumbent was already provably optimal).
    pub nodes: usize,
}

impl Schedule {
    /// Placement of an object.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn location_of(&self, object: u32) -> Location {
        self.placements[object as usize].location
    }

    /// Bytes allocated to each location across the layer: (SHIFT,
    /// RANDOM, DRAM), the triple [`resident_fraction`] reads.
    #[must_use]
    pub fn bytes_by_location(&self, dag: &LayerDag) -> (u64, u64, u64) {
        let mut shift = 0;
        let mut random = 0;
        let mut dram = 0;
        for p in &self.placements {
            let b = dag.objects[p.object as usize].bytes;
            match p.location {
                Location::Shift => shift += b,
                Location::Random => random += b,
                Location::Dram => dram += b,
            }
        }
        (shift, random, dram)
    }

    /// Fraction of SPM-resident bytes whose loads are prefetched at least
    /// one iteration early. Returns `0.0` (not NaN) when nothing is
    /// resident — including degenerate zero-byte DAGs.
    #[must_use]
    pub fn prefetched_fraction(&self, dag: &LayerDag) -> f64 {
        let mut resident = 0u64;
        let mut early = 0u64;
        for p in &self.placements {
            if p.location == Location::Dram {
                continue;
            }
            let o = &dag.objects[p.object as usize];
            if o.class == DataClass::Output {
                continue;
            }
            resident += o.bytes;
            if self.lifespans[p.object as usize].prefetch_distance() >= 1 {
                early += o.bytes;
            }
        }
        if resident == 0 {
            0.0
        } else {
            early as f64 / resident as f64
        }
    }

    /// Exposed (non-overlapped) load time of the layer: for each
    /// SPM-resident object, the part of its load time not hidden behind the
    /// `prefetch_distance` iterations of compute that precede its use.
    ///
    /// `iteration_time` is the compute time of one iteration;
    /// `load_time_of(bytes, location)` prices a load (DRAM bandwidth or
    /// RANDOM array streaming).
    #[must_use]
    pub fn exposed_load_time(
        &self,
        dag: &LayerDag,
        iteration_time: Time,
        load_time_of: impl Fn(u64, Location) -> Time,
    ) -> Time {
        let mut exposed = Time::ZERO;
        for p in &self.placements {
            let o = &dag.objects[p.object as usize];
            if o.class == DataClass::Output {
                continue; // writes drain asynchronously
            }
            let load = load_time_of(o.bytes, p.location);
            let hidden =
                iteration_time * f64::from(self.lifespans[p.object as usize].prefetch_distance());
            exposed += (load - hidden).max(Time::ZERO);
        }
        exposed
    }
}

/// Fraction of the (SHIFT, RANDOM, DRAM) bytes of
/// [`Schedule::bytes_by_location`] (or a sum of such triples) that is
/// SPM-resident, in SHIFT or RANDOM. Returns `0.0` for a zero total
/// instead of NaN, like [`Schedule::prefetched_fraction`].
#[must_use]
pub fn resident_fraction((shift, random, dram): (u64, u64, u64)) -> f64 {
    let total = shift + random + dram;
    if total == 0 {
        0.0
    } else {
        (shift + random) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifespan::analyze;
    use smart_systolic::dag::LayerDag;
    use smart_systolic::layer::ConvLayer;
    use smart_systolic::mapping::{ArrayShape, LayerMapping};

    fn fixture(a: u32) -> (LayerDag, Schedule) {
        let l = ConvLayer::conv("c", 27, 27, 96, 256, 5, 1, 2);
        let m = LayerMapping::map(&l, ArrayShape::new(64, 256), 1);
        let dag = LayerDag::build(&m, 6);
        let lifespans = analyze(&dag, a);
        let placements = dag
            .objects
            .iter()
            .map(|o| Placement {
                object: o.id,
                location: Location::Shift,
            })
            .collect();
        let schedule = Schedule {
            placements,
            lifespans,
            prefetch_window: a,
            objective: 0.0,
            source: ScheduleSource::Greedy,
            nodes: 0,
        };
        (dag, schedule)
    }

    #[test]
    fn bytes_by_location_sum_to_total() {
        let (dag, s) = fixture(3);
        let (h, r, d) = s.bytes_by_location(&dag);
        let total: u64 = dag.objects.iter().map(|o| o.bytes).sum();
        assert_eq!(h + r + d, total);
        assert_eq!(r, 0);
        assert_eq!(d, 0);
    }

    #[test]
    fn prefetched_fraction_grows_with_window() {
        let (dag1, s1) = fixture(1);
        let (dag3, s3) = fixture(3);
        assert_eq!(s1.prefetched_fraction(&dag1), 0.0);
        assert!(s3.prefetched_fraction(&dag3) > 0.5);
    }

    #[test]
    fn exposure_shrinks_with_prefetch() {
        let load = |bytes: u64, _loc: Location| Time::from_ns(bytes as f64 * 0.01);
        let iter_time = Time::from_us(1.0);
        let (dag1, s1) = fixture(1);
        let (dag3, s3) = fixture(3);
        let e1 = s1.exposed_load_time(&dag1, iter_time, load);
        let e3 = s3.exposed_load_time(&dag3, iter_time, load);
        assert!(e3.as_si() < e1.as_si());
    }

    /// A degenerate DAG whose objects all have zero bytes — the ratio
    /// helpers must return 0.0, not NaN.
    fn zero_byte_fixture() -> (LayerDag, Schedule) {
        let (mut dag, _) = fixture(3);
        for o in &mut dag.objects {
            o.bytes = 0;
        }
        let lifespans = analyze(&dag, 3);
        let placements = dag
            .objects
            .iter()
            .map(|o| Placement {
                object: o.id,
                location: Location::Shift,
            })
            .collect();
        let schedule = Schedule {
            placements,
            lifespans,
            prefetch_window: 3,
            objective: 0.0,
            source: ScheduleSource::Greedy,
            nodes: 0,
        };
        (dag, schedule)
    }

    #[test]
    fn zero_byte_dag_fractions_are_zero_not_nan() {
        let (dag, s) = zero_byte_fixture();
        let prefetched = s.prefetched_fraction(&dag);
        let resident = resident_fraction(s.bytes_by_location(&dag));
        assert!(!prefetched.is_nan() && !resident.is_nan());
        assert_eq!(prefetched, 0.0);
        assert_eq!(resident, 0.0);
    }

    #[test]
    fn spm_resident_fraction_counts_both_arrays() {
        let (dag, mut s) = fixture(3);
        assert!((resident_fraction(s.bytes_by_location(&dag)) - 1.0).abs() < 1e-12);
        // Push one object to DRAM: the fraction must drop below one.
        s.placements[0].location = Location::Dram;
        let f = resident_fraction(s.bytes_by_location(&dag));
        assert!(f < 1.0 && f > 0.0);
    }

    #[test]
    fn location_display_names() {
        assert_eq!(Location::Shift.to_string(), "SHIFT");
        assert_eq!(Location::Random.to_string(), "RANDOM");
        assert_eq!(Location::Dram.to_string(), "DRAM");
    }

    #[test]
    fn outputs_excluded_from_exposure() {
        let (dag, s) = fixture(1);
        // A load function that bills everything absurdly: outputs must not
        // contribute.
        let with_outputs: u64 = dag.objects.iter().map(|o| o.bytes).sum();
        let without_outputs: u64 = dag
            .objects
            .iter()
            .filter(|o| o.class != smart_systolic::trace::DataClass::Output)
            .map(|o| o.bytes)
            .sum();
        let e = s.exposed_load_time(&dag, Time::ZERO, |b, _| Time::from_ns(b as f64));
        assert!((e.as_ns() - without_outputs as f64).abs() < 1e-6);
        assert!(without_outputs < with_outputs);
    }
}
