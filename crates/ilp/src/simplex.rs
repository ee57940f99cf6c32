//! LP relaxation API: the result types and the one-shot
//! [`solve_relaxation`] entry point.
//!
//! The implementation behind [`solve_relaxation`] is the sparse revised
//! simplex in [`crate::revised`] (bounded variables, warm-startable bases);
//! the original dense tableau survives in [`crate::dense`] as the reference
//! oracle the property suite cross-checks against. Nothing on the
//! production path calls it: branch & bound solves its relaxations inside
//! [`crate::solver::Solver::solve`].

use crate::problem::Problem;
use crate::revised::{solve_with_pins, SolveTrace, StandardForm};

/// LP outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum LpResult {
    /// Optimal solution found.
    Optimal(LpSolution),
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded.
    Unbounded,
}

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Objective value in the problem's original sense.
    pub objective: f64,
    /// Values of the structural variables, in declaration order.
    pub values: Vec<f64>,
}

/// Solves the LP relaxation of `problem` (integrality dropped), with extra
/// pinned bounds `x[i] = v` from branch & bound (pass `None` for free).
///
/// One-shot: builds the sparse standard form, cold-solves, and discards the
/// basis. Callers that re-solve related LPs (branch & bound, sweeps) should
/// go through [`crate::solver::Solver`] with a
/// [`crate::context::SolverContext`] instead, which reuses bases between
/// solves.
///
/// # Panics
///
/// Panics if `pins` is non-empty and its length differs from the problem's
/// variable count.
#[must_use]
pub fn solve_relaxation(problem: &Problem, pins: &[Option<f64>]) -> LpResult {
    assert!(
        pins.len() == problem.num_vars() || pins.is_empty(),
        "pin vector length mismatch"
    );
    let form = StandardForm::build(problem);
    solve_with_pins(&form, problem, pins, None, &mut SolveTrace::default()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Relation, Sense};

    // API-level behavior of the (revised) relaxation solver; the detailed
    // algorithmic tests live in `revised` and `dense`.

    #[test]
    fn textbook_maximization() {
        // max 5x + 4y s.t. 6x + 4y <= 24; x + 2y <= 6 => x=3, y=1.5, z=21.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous("x", 0.0, f64::INFINITY);
        let y = p.continuous("y", 0.0, f64::INFINITY);
        p.set_objective(x, 5.0);
        p.set_objective(y, 4.0);
        p.add_constraint(&[(x, 6.0), (y, 4.0)], Relation::Le, 24.0);
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Le, 6.0);
        let LpResult::Optimal(s) = solve_relaxation(&p, &[]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 21.0).abs() < 1e-6, "z = {}", s.objective);
        assert!((s.values[0] - 3.0).abs() < 1e-6);
        assert!((s.values[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn respects_bounds_without_explicit_rows() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous("x", 0.0, 3.0);
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Le, 100.0);
        let LpResult::Optimal(s) = solve_relaxation(&p, &[]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 3.0).abs() < 1e-6);

        let mut p = Problem::new(Sense::Minimize);
        let x = p.continuous("x", 2.0, 10.0);
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Le, 10.0);
        let LpResult::Optimal(s) = solve_relaxation(&p, &[]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn fractional_relaxation_of_knapsack() {
        // max 10a + 6b s.t. 5a + 4b <= 7 (binaries): LP optimum a=1,
        // b=0.5 => 13.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary("a");
        let b = p.binary("b");
        p.set_objective(a, 10.0);
        p.set_objective(b, 6.0);
        p.add_constraint(&[(a, 5.0), (b, 4.0)], Relation::Le, 7.0);
        let LpResult::Optimal(s) = solve_relaxation(&p, &[]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 13.0).abs() < 1e-6, "z = {}", s.objective);
        assert!((s.values[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn try_solve_relaxation_reports_infeasible() {
        // x <= 1 but x >= 2: empty feasible region -> Infeasible, no panic.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous("x", 0.0, 1.0);
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(solve_relaxation(&p, &[]), LpResult::Infeasible);
    }

    #[test]
    fn try_solve_relaxation_reports_unbounded() {
        // max x with x unbounded above: Unbounded, no panic.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous("x", 0.0, f64::INFINITY);
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 0.0);
        assert_eq!(solve_relaxation(&p, &[]), LpResult::Unbounded);
    }

    #[test]
    fn try_solve_relaxation_passes_through_optimum() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous("x", 0.0, 3.0);
        p.set_objective(x, 2.0);
        p.add_constraint(&[(x, 1.0)], Relation::Le, 100.0);
        let LpResult::Optimal(s) = solve_relaxation(&p, &[]) else {
            panic!("bounded and feasible")
        };
        assert!((s.objective - 6.0).abs() < 1e-6);
    }

    #[test]
    fn agrees_with_dense_reference() {
        // One structured spot-check here; the property suite fuzzes this.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.continuous("x", 0.0, f64::INFINITY);
        let y = p.continuous("y", 0.0, f64::INFINITY);
        p.set_objective(x, 2.0);
        p.set_objective(y, 3.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 1.0);
        let LpResult::Optimal(sparse) = solve_relaxation(&p, &[]) else {
            panic!("sparse failed")
        };
        let LpResult::Optimal(dense) = crate::dense::solve_relaxation_dense(&p, &[]) else {
            panic!("dense failed")
        };
        assert!((sparse.objective - dense.objective).abs() < 1e-9);
    }
}
