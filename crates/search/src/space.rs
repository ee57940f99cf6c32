//! Grid enumeration of the heterogeneous design space, in neighbor order.

use smart_core::geometry::{GeometryParams, SpmGeometry};
use smart_cryomem::array::RandomArrayKind;

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// A grid over the heterogeneous (SHIFT staging + RANDOM) design space.
///
/// [`SearchSpace::points`] enumerates the cartesian product with the
/// capacity axes **innermost**: consecutive points differ only in SHIFT /
/// RANDOM capacities, which enter the allocation ILP purely as constraint
/// right-hand sides, so a shared
/// [`SolverContext`](smart_compiler::SolverContext) warm-starts each point's
/// solve from its neighbor's basis. The technology axis sits *outside* the
/// capacity axes: the memory kind never enters the ILP formulation, so a
/// second technology revisits byte-identical problems and is answered
/// verbatim from the context's exact-match solution memo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    /// Prefetch windows; `None` is static allocation (the `Pipe` family).
    /// Outermost axis — the window changes the ILP's constraint structure.
    pub windows: Vec<Option<u32>>,
    /// RANDOM bank (port) counts. The bank count only sets the right-hand
    /// side of the formulation's sub-bank rows (the Eq. 5 costs are
    /// constants), and those rows never bind, so the presolve drops them
    /// and the solution memo's key leaves them out: like the technology
    /// axis, a second bank count replays the first one's problems from
    /// the memo.
    pub random_banks: Vec<u32>,
    /// RANDOM memory technologies (no ILP impact; outside the capacity
    /// axes so each technology replays the previous one's exact problems).
    pub kinds: Vec<RandomArrayKind>,
    /// Per-class SHIFT staging capacities in KB.
    pub shift_kb: Vec<u64>,
    /// RANDOM array capacities in MB. Innermost axis.
    pub random_mb: Vec<u64>,
    /// SHIFT bank (lane) count, fixed across the grid.
    pub shift_banks: u32,
}

impl SearchSpace {
    /// The 1000-point grid the headline configs/second number is measured
    /// on: 5 windows x 4 bank counts x 2 technologies x 5 SHIFT x 5 RANDOM
    /// capacities.
    #[must_use]
    pub fn default_grid() -> Self {
        Self {
            windows: vec![None, Some(1), Some(2), Some(3), Some(5)],
            random_banks: vec![64, 128, 256, 512],
            kinds: vec![
                RandomArrayKind::PipelinedCmosSfq,
                RandomArrayKind::JosephsonCmosSram,
            ],
            shift_kb: vec![8, 16, 32, 48, 64],
            random_mb: vec![7, 14, 28, 42, 56],
            shift_banks: 256,
        }
    }

    /// A small deterministic 18-point space for experiments, golden
    /// snapshots, and debug-mode tests.
    #[must_use]
    pub fn small() -> Self {
        Self {
            windows: vec![None, Some(3)],
            random_banks: vec![256],
            kinds: vec![RandomArrayKind::PipelinedCmosSfq],
            shift_kb: vec![16, 32, 64],
            random_mb: vec![14, 28, 42],
            shift_banks: 256,
        }
    }

    /// Number of grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.windows.len()
            * self.random_banks.len()
            * self.kinds.len()
            * self.shift_kb.len()
            * self.random_mb.len()
    }

    /// Whether any axis is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All grid points in canonical (neighbor) order.
    #[must_use]
    pub fn points(&self) -> Vec<GeometryParams> {
        let mut pts = Vec::with_capacity(self.len());
        for &window in &self.windows {
            for &random_banks in &self.random_banks {
                for &kind in &self.kinds {
                    for &shift_kb in &self.shift_kb {
                        for &random_mb in &self.random_mb {
                            pts.push(self.point(window, random_banks, kind, shift_kb, random_mb));
                        }
                    }
                }
            }
        }
        pts
    }

    /// One grid point: the SMART matrix unit over the given SPM geometry.
    /// Prefetching points are of the `SMART` family, static ones of `Pipe`.
    #[must_use]
    pub fn point(
        &self,
        window: Option<u32>,
        random_banks: u32,
        kind: RandomArrayKind,
        shift_kb: u64,
        random_mb: u64,
    ) -> GeometryParams {
        let shift_bytes = shift_kb * KB;
        let random_bytes = random_mb * MB;
        GeometryParams {
            name: if window.is_some() { "SMART" } else { "Pipe" },
            config_name: "SMART",
            rows: 64,
            cols: 256,
            clock_ghz: 52.6,
            cryogenic: true,
            mac_energy_j: 1.35e-15,
            average_power_w: None,
            spm: SpmGeometry::Heterogeneous {
                capacity_bytes: 3 * shift_bytes + random_bytes,
                shift_bytes,
                shift_banks: self.shift_banks,
                random_banks,
                kind,
            },
            prefetch_window: window,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_is_1000_points() {
        let space = SearchSpace::default_grid();
        assert_eq!(space.len(), 1000);
        assert_eq!(space.points().len(), 1000);
    }

    #[test]
    fn every_grid_point_builds() {
        for space in [SearchSpace::default_grid(), SearchSpace::small()] {
            for p in space.points() {
                p.build().expect("grid points are valid by construction");
            }
        }
    }

    #[test]
    fn capacity_axes_are_innermost() {
        // Consecutive points share window/banks/kind (rhs-only deltas)
        // within each innermost block.
        let space = SearchSpace::small();
        let pts = space.points();
        let block = space.shift_kb.len() * space.random_mb.len();
        for (i, p) in pts.iter().enumerate() {
            let first = &pts[i / block * block];
            assert_eq!(p.prefetch_window, first.prefetch_window, "point {i}");
        }
    }

    #[test]
    fn families_are_named_by_policy() {
        let space = SearchSpace::small();
        for p in space.points() {
            let expected = if p.prefetch_window.is_some() {
                "SMART"
            } else {
                "Pipe"
            };
            assert_eq!(p.name, expected);
        }
    }
}
