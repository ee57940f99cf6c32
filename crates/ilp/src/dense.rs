//! Dense two-phase primal simplex — the *reference oracle*.
//!
//! This is the original dense-tableau implementation the revised simplex in
//! [`crate::revised`] replaced on the hot path. It stays in the crate (not
//! `cfg(test)`) because the workspace property suite cross-checks every
//! random LP against it: the sparse solver and this one must agree on
//! feasibility, boundedness, and (when optimal) objective value.
//!
//! Standard-form conversion: every variable gets an upper-bound row (when
//! finite), `Ge`/`Eq` rows get artificials, `Le` rows get slacks. Phase one
//! drives the artificials to zero; phase two optimizes the real objective.
//! Bland's rule is used once degeneracy is detected, guaranteeing
//! termination.

// lint:allow-file(index, dense simplex tableau kernel; row/column bounds are the tableau dimensions fixed at construction)

use crate::problem::{Problem, Relation, Sense};
use crate::simplex::{LpResult, LpSolution};

const EPS: f64 = 1e-9;
/// Iteration cap (anti-runaway; Bland's rule prevents cycling well before
/// this).
const MAX_ITERS: usize = 100_000;

struct Tableau {
    /// rows x cols coefficient matrix (col `cols-1` is the RHS).
    a: Vec<f64>,
    rows: usize,
    cols: usize,
    /// Basis: which column is basic in each row.
    basis: Vec<usize>,
    /// Objective row (phase-dependent), length `cols`.
    obj: Vec<f64>,
    /// Objective constant.
    obj_const: f64,
}

impl Tableau {
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.cols + c]
    }

    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.a[r * self.cols + c] = v;
    }

    fn pivot(&mut self, pr: usize, pc: usize) {
        let cols = self.cols;
        let pv = self.at(pr, pc);
        for c in 0..cols {
            self.a[pr * cols + c] /= pv;
        }
        for r in 0..self.rows {
            if r != pr {
                let f = self.at(r, pc);
                if f.abs() > EPS {
                    for c in 0..cols {
                        let v = self.at(pr, c);
                        self.a[r * cols + c] -= f * v;
                    }
                }
            }
        }
        let f = self.obj[pc];
        if f.abs() > EPS {
            for c in 0..cols {
                self.obj[c] -= f * self.at(pr, c);
            }
            self.obj_const -= f * self.at(pr, cols - 1);
        }
        self.basis[pr] = pc;
    }

    /// Runs simplex on the current objective row (maximization: pick the
    /// most negative reduced cost). Returns `false` if unbounded.
    fn optimize(&mut self) -> bool {
        let rhs_col = self.cols - 1;
        let mut bland = false;
        let mut last_obj = f64::NEG_INFINITY;
        let mut stall = 0usize;
        for _ in 0..MAX_ITERS {
            // Entering column.
            let mut pc = None;
            if bland {
                for c in 0..rhs_col {
                    if self.obj[c] < -EPS {
                        pc = Some(c);
                        break;
                    }
                }
            } else {
                let mut best = -EPS;
                for c in 0..rhs_col {
                    if self.obj[c] < best {
                        best = self.obj[c];
                        pc = Some(c);
                    }
                }
            }
            let Some(pc) = pc else { return true };

            // Ratio test.
            let mut pr = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.rows {
                let a = self.at(r, pc);
                if a > EPS {
                    let ratio = self.at(r, rhs_col) / a;
                    if ratio < best_ratio - EPS
                        || (bland
                            && (ratio - best_ratio).abs() <= EPS
                            && pr.is_some_and(|p: usize| self.basis[r] < self.basis[p]))
                    {
                        best_ratio = ratio;
                        pr = Some(r);
                    }
                }
            }
            let Some(pr) = pr else { return false };

            self.pivot(pr, pc);

            // Degeneracy detection: switch to Bland's rule if the objective
            // stalls.
            let cur = -self.obj_const;
            if (cur - last_obj).abs() < EPS {
                stall += 1;
                if stall > 20 {
                    bland = true;
                }
            } else {
                stall = 0;
            }
            last_obj = cur;
        }
        true // iteration cap: treat as converged to current point
    }
}

/// Solves the LP relaxation with the dense reference tableau (integrality
/// dropped), with extra pinned bounds `x[i] = v` from branch & bound (pass
/// `None` for free).
///
/// Lower bounds other than zero are handled by substitution; upper bounds by
/// explicit rows.
#[must_use]
pub fn solve_relaxation_dense(problem: &Problem, pins: &[Option<f64>]) -> LpResult {
    let n = problem.num_vars();
    assert!(
        pins.len() == n || pins.is_empty(),
        "pin vector length mismatch"
    );

    // Effective bounds.
    let mut lower = Vec::with_capacity(n);
    let mut upper = Vec::with_capacity(n);
    for (i, v) in problem.variables().iter().enumerate() {
        let pin = pins.get(i).copied().flatten();
        match pin {
            Some(p) => {
                lower.push(p);
                upper.push(p);
            }
            None => {
                lower.push(v.lower);
                upper.push(v.upper);
            }
        }
    }

    // Shift x = lower + y (y >= 0); constraints on y.
    // Count rows: constraints + finite upper bounds.
    let ub_rows: Vec<usize> = (0..n)
        .filter(|&i| upper[i].is_finite() && upper[i] - lower[i] > EPS)
        .collect();
    // Fixed variables (upper == lower) are constants.
    let is_fixed: Vec<bool> = (0..n).map(|i| upper[i] - lower[i] <= EPS).collect();

    let m = problem.num_constraints() + ub_rows.len();
    // Columns: structural n + slack/surplus (one per row) + artificials.
    // Allocate generously: artificials at most m.
    let struct_cols = n;
    let slack_cols = m;
    let total_cols = struct_cols + slack_cols + m + 1;
    let rhs_col = total_cols - 1;

    let mut t = Tableau {
        a: vec![0.0; m * total_cols],
        rows: m,
        cols: total_cols,
        basis: vec![usize::MAX; m],
        obj: vec![0.0; total_cols],
        obj_const: 0.0,
    };

    let mut next_art = struct_cols + slack_cols;
    let mut artificials = Vec::new();

    let mut row = 0usize;
    // Real constraints.
    for c in problem.constraints() {
        let mut rhs = c.rhs;
        for &(v, coef) in c.terms {
            rhs -= coef * lower[v.0];
            if !is_fixed[v.0] {
                let cur = t.at(row, v.0);
                t.set(row, v.0, cur + coef);
            }
        }
        let mut relation = c.relation;
        if rhs < 0.0 {
            // Negate the row.
            for col in 0..struct_cols {
                let v = t.at(row, col);
                t.set(row, col, -v);
            }
            rhs = -rhs;
            relation = match relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
        t.set(row, rhs_col, rhs);
        let slack = struct_cols + row;
        match relation {
            Relation::Le => {
                t.set(row, slack, 1.0);
                t.basis[row] = slack;
            }
            Relation::Ge => {
                t.set(row, slack, -1.0);
                t.set(row, next_art, 1.0);
                t.basis[row] = next_art;
                artificials.push(next_art);
                next_art += 1;
            }
            Relation::Eq => {
                t.set(row, next_art, 1.0);
                t.basis[row] = next_art;
                artificials.push(next_art);
                next_art += 1;
            }
        }
        row += 1;
    }
    // Upper-bound rows: y_i <= upper - lower.
    for &i in &ub_rows {
        t.set(row, i, 1.0);
        t.set(row, rhs_col, upper[i] - lower[i]);
        let slack = struct_cols + row;
        t.set(row, slack, 1.0);
        t.basis[row] = slack;
        row += 1;
    }

    // Phase one: minimize sum of artificials == maximize -sum.
    if !artificials.is_empty() {
        t.obj = vec![0.0; total_cols];
        for &a in &artificials {
            t.obj[a] = 1.0; // maximize(-sum art) => reduced costs: obj row holds +1
        }
        // Make the objective row consistent with the basis (artificials are
        // basic): subtract their rows.
        t.obj_const = 0.0;
        for r in 0..t.rows {
            if artificials.contains(&t.basis[r]) {
                for c in 0..total_cols {
                    t.obj[c] -= t.at(r, c);
                }
                t.obj_const -= t.at(r, rhs_col);
            }
        }
        if !t.optimize() {
            return LpResult::Infeasible; // phase-1 unbounded cannot happen
        }
        let art_sum = -t.obj_const;
        if art_sum > 1e-6 {
            return LpResult::Infeasible;
        }
        // Pivot out any artificial still basic at zero.
        for r in 0..t.rows {
            if artificials.contains(&t.basis[r]) {
                if let Some(c) = (0..struct_cols + slack_cols).find(|&c| t.at(r, c).abs() > EPS) {
                    t.pivot(r, c);
                }
            }
        }
    }

    // Phase two: real objective (convert minimize to maximize).
    let sign = match problem.sense() {
        Sense::Maximize => 1.0,
        Sense::Minimize => -1.0,
    };
    t.obj = vec![0.0; total_cols];
    t.obj_const = 0.0;
    for (i, v) in problem.variables().iter().enumerate() {
        if !is_fixed[i] {
            t.obj[i] = -sign * v.objective;
        }
        t.obj_const -= sign * v.objective * lower[i];
    }
    // Block artificials from re-entering.
    for &a in &artificials {
        t.obj[a] = 1e18;
    }
    // Price out the basic columns.
    for r in 0..t.rows {
        let b = t.basis[r];
        let f = t.obj[b];
        if f.abs() > EPS {
            for c in 0..total_cols {
                let v = t.at(r, c);
                t.obj[c] -= f * v;
            }
            t.obj_const -= f * t.at(r, rhs_col);
        }
    }
    if !t.optimize() {
        return LpResult::Unbounded;
    }

    // Extract.
    let mut values = lower.clone();
    for r in 0..t.rows {
        let b = t.basis[r];
        if b < struct_cols {
            values[b] = lower[b] + t.at(r, rhs_col);
        }
    }
    let objective: f64 = problem
        .variables()
        .iter()
        .enumerate()
        .map(|(i, v)| v.objective * values[i])
        .sum();
    LpResult::Optimal(LpSolution { objective, values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Relation, Sense};

    #[test]
    fn textbook_maximization() {
        // max 5x + 4y s.t. 6x + 4y <= 24; x + 2y <= 6 => x=3, y=1.5, z=21.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous(0.0, f64::INFINITY);
        let y = p.continuous(0.0, f64::INFINITY);
        p.set_objective(x, 5.0);
        p.set_objective(y, 4.0);
        p.add_constraint(&[(x, 6.0), (y, 4.0)], Relation::Le, 24.0);
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Le, 6.0);
        let LpResult::Optimal(s) = solve_relaxation_dense(&p, &[]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 21.0).abs() < 1e-6, "z = {}", s.objective);
        assert!((s.values[0] - 3.0).abs() < 1e-6);
        assert!((s.values[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn minimization_with_ge() {
        // min 2x + 3y s.t. x + y >= 4; x >= 1 => x=4?? (y=0): z=8 vs x=1,y=3:
        // 2+9=11. Optimal x=4,y=0 => 8.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.continuous(0.0, f64::INFINITY);
        let y = p.continuous(0.0, f64::INFINITY);
        p.set_objective(x, 2.0);
        p.set_objective(y, 3.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 1.0);
        let LpResult::Optimal(s) = solve_relaxation_dense(&p, &[]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 8.0).abs() < 1e-6, "z = {}", s.objective);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 5, x <= 2 => 5 with x=2, y=3.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous(0.0, 2.0);
        let y = p.continuous(0.0, f64::INFINITY);
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        let LpResult::Optimal(s) = solve_relaxation_dense(&p, &[]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous(0.0, 1.0);
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(solve_relaxation_dense(&p, &[]), LpResult::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous(0.0, f64::INFINITY);
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 0.0);
        assert_eq!(solve_relaxation_dense(&p, &[]), LpResult::Unbounded);
    }

    #[test]
    fn respects_upper_bounds() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous(0.0, 3.0);
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Le, 100.0);
        let LpResult::Optimal(s) = solve_relaxation_dense(&p, &[]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn respects_lower_bounds() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.continuous(2.0, 10.0);
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Le, 10.0);
        let LpResult::Optimal(s) = solve_relaxation_dense(&p, &[]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn pins_fix_variables() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.binary();
        let y = p.binary();
        p.set_objective(x, 3.0);
        p.set_objective(y, 2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        // Pin x = 0: best is y = 1 with z = 2.
        let LpResult::Optimal(s) = solve_relaxation_dense(&p, &[Some(0.0), None]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 2.0).abs() < 1e-6);
        assert!(s.values[0].abs() < 1e-9);
    }

    #[test]
    fn fractional_relaxation_of_knapsack() {
        // max 10a + 6b s.t. 5a + 4b <= 7 (binaries): LP optimum a=1,
        // b=0.5 => 13.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary();
        let b = p.binary();
        p.set_objective(a, 10.0);
        p.set_objective(b, 6.0);
        p.add_constraint(&[(a, 5.0), (b, 4.0)], Relation::Le, 7.0);
        let LpResult::Optimal(s) = solve_relaxation_dense(&p, &[]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 13.0).abs() < 1e-6, "z = {}", s.objective);
        assert!((s.values[1] - 0.5).abs() < 1e-6);
    }
}
