//! Sparse revised simplex with bounded variables and warm starts — the
//! solver's hot path.
//!
//! The LP is held in standard form `A x + s = b` over a compressed sparse
//! column (`StandardForm`) matrix: one slack column per row (`Le` rows get
//! `s >= 0`, `Ge` rows `s <= 0`, `Eq` rows `s = 0`) and *no* explicit
//! upper-bound rows — variable bounds are handled implicitly by the
//! bounded-variable ratio test, which shrinks the basis from
//! `constraints + bounds` rows (the old dense tableau) to `constraints`
//! rows. Rows are scaled by their largest coefficient and the objective by
//! its largest coefficient, so absolute tolerances are meaningful even for
//! byte-sized formulation coefficients.
//!
//! A presolve drops every inequality row that cannot bind anywhere inside
//! the variable bounds (its largest `Le` activity, or smallest `Ge`
//! activity, clears the right-hand side by a strict relative margin): its
//! slack would stay basic all search long, yet every pivot would still
//! pay for it in the inverse, pricing and ratio tests. Stored [`Basis`]es
//! stay in *problem* coordinates ([`StandardForm::expand`] /
//! [`StandardForm::restrict`]), so warm starts and the persisted store do
//! not depend on which rows a form dropped.
//!
//! Branch & bound then strengthens its form with two exact integer rules
//! ([`StandardForm::tighten`]): a bound on each integer column from the
//! least activity of the other columns of a row (a placement larger than
//! its capacity is fixed at 0), and each integral row's right-hand side
//! rounded to a multiple of its coefficients' gcd. Every integer point of
//! the original rows satisfies the strengthened LP, so the integer optimum
//! cannot move; only the relaxation bound tightens. The plain relaxation
//! ([`StandardForm::relaxation`] on an unstrengthened form) stays the one
//! the dense oracle checks.
//!
//! Only an `m x m` basis inverse is maintained (product-form updates with
//! periodic refactorization); pricing walks the sparse columns, once per
//! basis: a primal bound flip re-prices nothing. An `Lp`
//! workspace is long-lived — branch & bound keeps one per search — and
//! every solve goes through `Lp::solve_pinned`, which sets the bounds
//! from the form's defaults and compact `(column, value)` pins. A solve
//! can start three ways (`Warm`):
//!
//! * **`Live`**: the workspace still holds the optimal basis and inverse of
//!   the *previous* solve (the parent node, when the search dives into a
//!   child). Only the bounds change, so the basic values are updated from
//!   the columns whose bound moved, and a few *dual simplex* pivots
//!   restore primal feasibility with no refactorization at all.
//! * **`Basis`**: a stored [`Basis`] from an earlier solve (a
//!   [`crate::context::SolverContext`] hit from an adjacent sweep point).
//!   The inverse and the basic values are rebuilt once, then dual
//!   (bound/rhs changes) or primal (objective changes) reoptimization
//!   proceeds as above.
//! * **`Cold`**: slack basis, artificial columns only on infeasible rows,
//!   then phase two.
//!
//! The dense tableau implementation survives in [`crate::dense`] as the
//! reference oracle for the property suite.

// lint:allow-file(index, revised simplex kernel; basis and factor indices are maintained invariants of the algorithm, exercised by the property tests)

use crate::context::SolverContextStats;
use crate::problem::{Problem, Relation, Row, Sense, VarId, Variable};
use crate::simplex::{LpResult, LpSolution};
use crate::solver::INT_TOL;

/// Primal feasibility tolerance (on row-scaled values).
const FEAS_TOL: f64 = 1e-7;
/// Dual feasibility tolerance (on objective-scaled reduced costs).
const DUAL_TOL: f64 = 1e-7;
/// Smallest acceptable pivot magnitude.
const PIVOT_TOL: f64 = 1e-8;
/// Relative margin (of the larger of `|rhs|` and the row's largest
/// coefficient) by which a row's extreme activity must clear its
/// right-hand side for the presolve to drop it: ten times the feasibility
/// tolerance, so a dropped slack could never have tied in a ratio test.
const PRESOLVE_MARGIN: f64 = 1e-6;
/// Iteration cap per simplex phase (anti-runaway).
const MAX_ITERS: usize = 50_000;
/// Basis-inverse refactorization interval (bounds drift).
const REFACTOR_EVERY: usize = 64;
/// Degenerate steps tolerated before switching to Bland's rule.
const STALL_LIMIT: usize = 30;

/// Bound status of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    Lower,
    /// Nonbasic at its upper bound.
    Upper,
}

/// A simplex basis: the basic column of every row plus each column's bound
/// status. It is small (O(rows + columns) integers), cheap to clone, and
/// the unit of warm-start reuse — between branch & bound nodes and, through
/// [`crate::context::SolverContext`], between whole solves. A basis a
/// context stores is in problem coordinates (one slack per constraint
/// row); an LP workspace works in its [`StandardForm`]'s coordinates,
/// which lack the slacks of the rows the presolve dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    pub(crate) basic: Vec<usize>,
    pub(crate) status: Vec<Status>,
}

/// The presolved, scaled standard-form LP of a [`Problem`]: CSC structural
/// columns, implicit unit slack columns for the rows that can bind, and
/// default (node-independent) bounds. Branch & bound builds one per
/// search; [`StandardForm::relaxation`] solves it once.
#[derive(Debug, Clone)]
pub struct StandardForm {
    /// LP rows: the problem rows the presolve kept.
    pub(crate) m: usize,
    pub(crate) n_struct: usize,
    /// Structural + slack columns.
    pub(crate) n_total: usize,
    /// The problem row behind each LP row (ascending).
    rows: Vec<usize>,
    /// Constraint rows of the problem, dropped ones included.
    problem_rows: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    val: Vec<f64>,
    /// Row-scaled right-hand sides.
    pub(crate) rhs: Vec<f64>,
    /// Internal objective: max-sense, divided by the largest |coefficient|.
    pub(crate) obj: Vec<f64>,
    /// Default lower bounds, length `n_total`.
    pub(crate) lower: Vec<f64>,
    /// Default upper bounds, length `n_total`.
    pub(crate) upper: Vec<f64>,
}

/// Which rows of `p` can bind inside the variable bounds, one flag per
/// row: all but the rows that never bind, a `Le` row whose largest
/// activity, or a `Ge` row whose smallest activity, clears the right-hand
/// side by [`PRESOLVE_MARGIN`]. A row with an infinite or NaN extreme
/// activity, and every `Eq` row, may bind. The presolve drops the rows
/// that never bind and the solution memo's key leaves them out
/// ([`crate::context`]); a solve evaluates this mask once for both, so
/// they always agree on which rows a search sees. The activities are
/// derived as each row is added, so this is one pass over the rows.
pub(crate) fn binding_rows(p: &Problem) -> Vec<bool> {
    let never_binds = |row: &Row, rhs: f64| {
        let margin = PRESOLVE_MARGIN * rhs.abs().max(row.scale);
        match row.relation {
            Relation::Le => row.extreme.is_finite() && row.extreme < rhs - margin,
            Relation::Ge => row.extreme.is_finite() && row.extreme > rhs + margin,
            Relation::Eq => false,
        }
    };
    let rows = p.rows().iter().zip(p.rhs());
    rows.map(|(row, &rhs)| !never_binds(row, rhs)).collect()
}

/// The factor the standard form divides constraint `i` of `p` by: its
/// largest |coefficient|.
fn row_scale(p: &Problem, i: usize) -> f64 {
    p.rows()[i].scale.max(1e-12)
}

/// What [`StandardForm::tighten`] changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tightening {
    /// Integer columns whose bounds tightened.
    pub cols_fixed: u64,
    /// Rows whose right-hand side the gcd rounding moved.
    pub rows_rounded: u64,
}

impl StandardForm {
    /// Builds the presolved standard form of `p`. An inequality row is
    /// dropped when its extreme activity over the variable bounds is
    /// finite and clears the right-hand side by a strict relative margin,
    /// so it can never bind; `Eq` rows always stay. A droppable row also
    /// stays when `stored`, the basis a warm start will
    /// [restrict](StandardForm::restrict), has its slack nonbasic: the row
    /// bound at the stored optimum, and keeping it keeps that basis usable.
    #[must_use]
    pub fn build(p: &Problem, stored: Option<&Basis>) -> Self {
        Self::presolved(p, &binding_rows(p), stored)
    }

    /// [`StandardForm::build`] with the rows that can bind already known:
    /// `binding` is [`binding_rows`] of `p`.
    pub(crate) fn presolved(p: &Problem, binding: &[bool], stored: Option<&Basis>) -> Self {
        let n = p.num_vars();
        let rows: Vec<usize> = (0..p.num_constraints())
            .filter(|&i| {
                binding[i] || stored.is_some_and(|b| b.status.get(n + i) != Some(&Status::Basic))
            })
            .collect();
        let m = rows.len();
        let sign = match p.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };

        let row_scale: Vec<f64> = rows.iter().map(|&i| row_scale(p, i)).collect();

        // CSC in two passes over the kept rows: count each column's
        // distinct rows, then scatter the scaled terms in row order, so
        // every column lists its rows ascending. A column repeated within
        // a row accumulates into one entry.
        let mut col_ptr = vec![0; n + 1];
        let mut last_row = vec![usize::MAX; n];
        for (r, &i) in rows.iter().enumerate() {
            for &(v, _) in p.constraint(i).terms {
                let j = v.index();
                if std::mem::replace(&mut last_row[j], r) != r {
                    col_ptr[j + 1] += 1;
                }
            }
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let nnz = col_ptr[n];
        let (mut row_idx, mut val) = (vec![0; nnz], vec![0.0; nnz]);
        let mut next = col_ptr[..n].to_vec();
        for (r, &i) in rows.iter().enumerate() {
            for &(v, k) in p.constraint(i).terms {
                let j = v.index();
                let scaled = k / row_scale[r];
                if next[j] > col_ptr[j] && row_idx[next[j] - 1] == r {
                    val[next[j] - 1] += scaled;
                } else {
                    row_idx[next[j]] = r;
                    val[next[j]] = scaled;
                    next[j] += 1;
                }
            }
        }

        let obj_scale = p
            .variables()
            .iter()
            .map(|v| v.objective.abs())
            .fold(0.0f64, f64::max)
            .max(1e-12);

        let mut lower = Vec::with_capacity(n + m);
        let mut upper = Vec::with_capacity(n + m);
        let mut obj = Vec::with_capacity(n + m);
        for v in p.variables() {
            lower.push(v.lower);
            upper.push(v.upper);
            obj.push(sign * v.objective / obj_scale);
        }
        let mut rhs = Vec::with_capacity(m);
        for (&i, scale) in rows.iter().zip(&row_scale) {
            let c = p.constraint(i);
            rhs.push(c.rhs / scale);
            let (lo, up) = match c.relation {
                Relation::Le => (0.0, f64::INFINITY),
                Relation::Ge => (f64::NEG_INFINITY, 0.0),
                Relation::Eq => (0.0, 0.0),
            };
            lower.push(lo);
            upper.push(up);
            obj.push(0.0);
        }

        Self {
            m,
            n_struct: n,
            n_total: n + m,
            rows,
            problem_rows: p.num_constraints(),
            col_ptr,
            row_idx,
            val,
            rhs,
            obj,
            lower,
            upper,
        }
    }

    /// The problem row behind each LP row: the rows the presolve kept, in
    /// ascending order.
    #[must_use]
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// The LP column of every problem column: a structural column maps to
    /// itself, a kept row's slack to its LP slack, a dropped row's slack to
    /// `None`.
    fn lp_columns(&self) -> Vec<Option<usize>> {
        let n = self.n_struct;
        let mut map: Vec<Option<usize>> = (0..n).map(Some).collect();
        map.resize(n + self.problem_rows, None);
        for (k, &i) in self.rows.iter().enumerate() {
            map[n + i] = Some(n + k);
        }
        map
    }

    /// Maps a basis of this form to problem coordinates: the LP's basic
    /// columns, renumbered, followed by the slacks of the dropped rows,
    /// which are basic.
    ///
    /// # Panics
    ///
    /// Panics if `lp` is not a basis of this form.
    #[must_use]
    pub fn expand(&self, lp: &Basis) -> Basis {
        let n = self.n_struct;
        let lp_columns = self.lp_columns();
        let status = lp_columns
            .iter()
            .map(|c| c.map_or(Status::Basic, |c| lp.status[c]))
            .collect();
        let column = |j: usize| if j < n { j } else { n + self.rows[j - n] };
        let dropped = (0..lp_columns.len()).filter(|&j| lp_columns[j].is_none());
        let basic = lp.basic.iter().map(|&j| column(j)).chain(dropped).collect();
        Basis { basic, status }
    }

    /// Maps a basis in problem coordinates (as a
    /// [`crate::context::SolverContext`] stores it) into this form, the
    /// inverse of [`StandardForm::expand`]. `None` unless the basis is
    /// well formed — one basic column per problem row, each in range,
    /// distinct and marked `Basic`, no other column marked `Basic` — and
    /// every dropped row's slack is basic.
    #[must_use]
    pub fn restrict(&self, stored: &Basis) -> Option<Basis> {
        let lp_columns = self.lp_columns();
        let total = lp_columns.len();
        if stored.basic.len() != self.problem_rows || stored.status.len() != total {
            return None;
        }
        let mut listed = vec![false; total];
        for &j in &stored.basic {
            if j >= total || std::mem::replace(&mut listed[j], true) {
                return None;
            }
        }
        // The listed columns are exactly the `Basic` ones, and they include
        // every dropped row's slack.
        let consistent = (0..total).all(|j| {
            (stored.status[j] == Status::Basic) == listed[j]
                && (listed[j] || lp_columns[j].is_some())
        });
        if !consistent {
            return None;
        }
        Some(Basis {
            basic: stored.basic.iter().filter_map(|&j| lp_columns[j]).collect(),
            status: (0..total)
                .filter(|&j| lp_columns[j].is_some())
                .map(|j| stored.status[j])
                .collect(),
        })
    }

    /// One cold solve of this form's LP relaxation of `p` (the problem it
    /// was built from) under pins `x[i] = v` (`None` is free; an empty
    /// slice pins nothing), with the optimal basis in this form's
    /// coordinates when one is storable.
    #[must_use]
    pub fn relaxation(&self, p: &Problem, pins: &[Option<f64>]) -> (LpResult, Option<Basis>) {
        let (result, basis, _) = solve_with_pins(self, p, pins, None);
        (result, basis)
    }

    /// Strengthens this form of `p` with two exact integer presolve rules,
    /// one pass each over the kept rows in order:
    ///
    /// 1. **Bound tightening.** In each row (each side of an `Eq` row),
    ///    the least activity of the other columns leaves each integer
    ///    column a largest (or smallest) value, rounded to an integer: a
    ///    binary whose coefficient alone exceeds the right-hand side is
    ///    fixed at 0. Bounds only tighten and never cross.
    /// 2. **Gcd rounding.** An inequality row whose unfixed columns are all
    ///    integer, with integral coefficients below 2⁵³, gets its
    ///    right-hand side less the fixed columns' activity rounded down
    ///    (`Ge`: up) to a multiple of their coefficients' gcd:
    ///    `6144·(h₁+h₂+h₃) ≤ 8192` becomes `≤ 6144`.
    ///
    /// Every integer point of `p`'s rows satisfies the result (both rules
    /// round outward by the integrality tolerance and the sums' float
    /// error), so the integer optimum cannot move. Infeasibility is left
    /// for the LP to find. The rows, and so the basis coordinates, do not
    /// change.
    pub fn tighten(&mut self, p: &Problem) -> Tightening {
        let n = self.n_struct;
        let vars = p.variables();
        let mut moved = vec![false; n];
        let mut terms = Vec::new();
        for &i in &self.rows {
            let c = p.constraint(i);
            // Each side the row bounds, as `sign * activity <= sign * rhs`.
            let signs: &[f64] = match c.relation {
                Relation::Le => &[1.0],
                Relation::Ge => &[-1.0],
                Relation::Eq => &[1.0, -1.0],
            };
            for &sign in signs {
                merge_terms(c.terms, sign, &mut terms);
                let bounds = (&mut self.lower[..], &mut self.upper[..]);
                tighten_bounds(vars, &terms, sign * c.rhs, bounds, &mut moved);
            }
        }
        let mut rows_rounded = 0;
        for (r, &i) in self.rows.iter().enumerate() {
            let c = p.constraint(i);
            let sign = match c.relation {
                Relation::Le => 1.0,
                Relation::Ge => -1.0,
                Relation::Eq => continue,
            };
            merge_terms(c.terms, sign, &mut terms);
            let bounds = (&self.lower[..], &self.upper[..]);
            if let Some(rounded) = gcd_rounded(vars, &terms, sign * c.rhs, bounds) {
                self.rhs[r] = sign * rounded / row_scale(p, i);
                rows_rounded += 1;
            }
        }
        Tightening {
            cols_fixed: moved.iter().filter(|&&m| m).count() as u64,
            rows_rounded,
        }
    }

    /// Whether the structural point `x` lies within this form's column
    /// bounds and satisfies each of its rows, to the feasibility
    /// tolerance: the check that [`StandardForm::tighten`] cut off no
    /// integer point.
    #[must_use]
    pub fn admits(&self, x: &[f64]) -> bool {
        let n = self.n_struct;
        if x.len() != n {
            return false;
        }
        let tol = |bound: f64| FEAS_TOL * bound.abs().max(1.0);
        let in_bounds = x.iter().enumerate().all(|(j, &v)| {
            let (lo, up) = (self.lower[j], self.upper[j]);
            v >= lo - tol(lo) && v <= up + tol(up)
        });
        let mut activity = vec![0.0; self.m];
        for (j, &v) in x.iter().enumerate() {
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                activity[self.row_idx[k]] += self.val[k] * v;
            }
        }
        // Row `r` holds when its slack, `rhs - activity`, is within the
        // slack column's bounds.
        in_bounds
            && activity.iter().enumerate().all(|(r, a)| {
                let slack = self.rhs[r] - a;
                slack >= self.lower[n + r] - FEAS_TOL && slack <= self.upper[n + r] + FEAS_TOL
            })
    }
}

/// The terms of one row with duplicate columns summed and zero
/// coefficients dropped, each times `sign`, into `out` (by column).
fn merge_terms(terms: &[(VarId, f64)], sign: f64, out: &mut Vec<(usize, f64)>) {
    out.clear();
    out.extend(terms.iter().map(|&(v, k)| (v.index(), sign * k)));
    out.sort_unstable_by_key(|&(j, _)| j);
    out.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    out.retain(|&(_, k)| k != 0.0);
}

/// A bound on the float error of a sum of `terms` values whose magnitudes
/// add up to `size`, and of one subtraction from it. Both presolve rules
/// add it before they round, so a rounding error never cuts off a point.
fn sum_error(terms: usize, size: f64) -> f64 {
    (terms + 1) as f64 * f64::EPSILON * size
}

/// The least value of `k * x` over `lower <= x <= upper`.
fn least(k: f64, lower: f64, upper: f64) -> f64 {
    k * if k > 0.0 { lower } else { upper }
}

/// Bound tightening on one row side `sum(k * x) <= rhs` (merged terms):
/// the least activity of the other columns leaves `k * x_j` at most
/// `rhs - others`, a bound on integer column `j`, rounded outward. A bound
/// is written only if it is tighter and does not cross the other one;
/// `moved` marks the columns written.
fn tighten_bounds(
    vars: &[Variable],
    terms: &[(usize, f64)],
    rhs: f64,
    (lower, upper): (&mut [f64], &mut [f64]),
    moved: &mut [bool],
) {
    // The least activity, and the magnitude its float error scales with.
    // A continuous column without an upper bound makes it infinite, and
    // then it bounds no other column.
    let (mut activity, mut size) = (0.0, rhs.abs());
    for &(j, k) in terms {
        let a = least(k, lower[j], upper[j]);
        activity += a;
        size += a.abs();
    }
    if !activity.is_finite() {
        return;
    }
    let slop = sum_error(terms.len(), size);
    for &(j, k) in terms {
        if !vars[j].integer {
            continue;
        }
        // The loop only moves the bound a column's least term does not
        // read (the upper one for k > 0), so the activity stays valid.
        let others = activity - least(k, lower[j], upper[j]);
        let q = (rhs - others + slop) / k;
        if k > 0.0 {
            let up = (q + INT_TOL).floor();
            if up < upper[j] && up >= lower[j] {
                upper[j] = up;
                moved[j] = true;
            }
        } else {
            let lo = (q - INT_TOL).ceil();
            if lo > lower[j] && lo <= upper[j] {
                lower[j] = lo;
                moved[j] = true;
            }
        }
    }
}

/// Gcd rounding of one inequality row side `sum(k * x) <= rhs` (merged
/// terms) under `(lower, upper)`: when every unfixed column is integer with
/// an integral coefficient below 2⁵³, their activity is a multiple of the
/// coefficients' gcd, so `rhs` less the fixed columns' activity rounds down
/// to one. Returns the rounded right-hand side when it is tighter.
fn gcd_rounded(
    vars: &[Variable],
    terms: &[(usize, f64)],
    rhs: f64,
    (lower, upper): (&[f64], &[f64]),
) -> Option<f64> {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2⁵³
    let (mut fixed, mut size, mut g) = (0.0, rhs.abs(), 0u64);
    for &(j, k) in terms {
        if lower[j] == upper[j] {
            fixed += k * lower[j];
            size += (k * lower[j]).abs();
        } else if vars[j].integer && k.fract() == 0.0 && k.abs() < EXACT {
            // Exact: an integral float below 2⁵³.
            g = gcd(g, k.abs() as u64);
        } else {
            return None;
        }
    }
    if g == 0 {
        return None; // every column is fixed
    }
    let g = g as f64;
    let room = rhs - fixed + sum_error(terms.len(), size);
    let rounded = fixed + g * (room / g + INT_TOL).floor();
    (rounded < rhs).then_some(rounded)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// How one LP solve ended.
#[derive(Debug)]
pub(crate) enum SolveOutcome {
    /// Optimal: structural values, true-objective value, and the final
    /// basis (absent when a redundant row kept an artificial basic).
    Optimal {
        values: Vec<f64>,
        objective: f64,
        basis: Option<Basis>,
    },
    Infeasible,
    Unbounded,
}

/// How to start a solve (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Warm<'a> {
    /// Continue from the workspace's still-installed previous basis.
    Live,
    /// Rebuild the inverse from a stored basis, then reoptimize.
    Basis(&'a Basis),
    /// Slack basis + phase one.
    Cold,
}

/// One-shot relaxation solve behind [`StandardForm::relaxation`] and the
/// warm-start unit tests: a fresh workspace solves under the pins
/// `x[i] = v` (`None` is free), and the outcome maps to [`LpResult`], next
/// to whether the warm start held.
pub(crate) fn solve_with_pins(
    form: &StandardForm,
    p: &Problem,
    pins: &[Option<f64>],
    warm: Option<&Basis>,
) -> (LpResult, Option<Basis>, bool) {
    let pins: Vec<(usize, f64)> = pins
        .iter()
        .enumerate()
        .filter_map(|(i, pin)| pin.map(|v| (i, v)))
        .collect();
    let mut lp = Lp::new(form);
    let warm = warm.map_or(Warm::Cold, Warm::Basis);
    let (outcome, held) = lp.solve_pinned(p, &pins, warm, true);
    let (result, basis) = match outcome {
        SolveOutcome::Optimal {
            values,
            objective,
            basis,
        } => (LpResult::Optimal(LpSolution { objective, values }), basis),
        SolveOutcome::Infeasible => (LpResult::Infeasible, None),
        SolveOutcome::Unbounded => (LpResult::Unbounded, None),
    };
    (result, basis, held)
}

enum PrimalEnd {
    Optimal,
    Unbounded,
    IterLimit,
}

enum DualEnd {
    PrimalFeasible,
    Infeasible,
    Stalled,
}

/// A reusable LP workspace: the standard form plus node bounds, artificial
/// columns, basis, dense basis inverse, and basic values. Branch & bound
/// keeps one alive for the whole search so a dive into a child node reuses
/// the just-computed factorization (`Warm::Live`).
pub(crate) struct Lp<'a> {
    form: &'a StandardForm,
    /// Bounds over structural + slack + artificial columns.
    lo: Vec<f64>,
    up: Vec<f64>,
    /// Artificial columns as `(row, sign)` unit vectors.
    art: Vec<(usize, f64)>,
    /// Current-phase objective (length of `lo`).
    obj: Vec<f64>,
    basic: Vec<usize>,
    status: Vec<Status>,
    /// Row-major m x m basis inverse.
    binv: Vec<f64>,
    /// Values of the basic variables, by row.
    xb: Vec<f64>,
    pivots: usize,
    /// Lifetime pivot / bound flip / refactorization tallies, never reset
    /// ([`Lp::count_work`]).
    total_pivots: u64,
    total_flips: u64,
    total_refactors: u64,
    /// The workspace holds a clean optimal basis (no artificials basic)
    /// from the previous solve, usable via [`Warm::Live`].
    live_ok: bool,
    /// Scratch buffers (avoid per-iteration allocation).
    scratch_y: Vec<f64>,
    scratch_w: Vec<f64>,
    scratch_d: Vec<f64>,
    scratch_a: Vec<f64>,
    /// The primal's entering candidates `(column, violation)`.
    scratch_c: Vec<(usize, f64)>,
    /// Bounds of the previous solve (for incremental rebinds on dives).
    /// Valid only while the installed basic values were computed under
    /// them, that is after a [`Warm::Live`] solve: installing a stored
    /// basis clears them.
    prev_lo: Vec<f64>,
    prev_up: Vec<f64>,
}

impl<'a> Lp<'a> {
    pub(crate) fn new(form: &'a StandardForm) -> Self {
        let m = form.m;
        Self {
            form,
            // `solve_pinned` sets the bounds of every solve.
            lo: Vec::new(),
            up: Vec::new(),
            art: Vec::new(),
            obj: form.obj.clone(),
            basic: (0..m).map(|i| form.n_struct + i).collect(),
            status: vec![Status::Lower; form.n_total],
            binv: vec![0.0; m * m],
            xb: vec![0.0; m],
            pivots: 0,
            total_pivots: 0,
            total_flips: 0,
            total_refactors: 0,
            live_ok: false,
            scratch_y: vec![0.0; m],
            scratch_w: vec![0.0; m],
            scratch_d: Vec::new(),
            scratch_a: Vec::new(),
            scratch_c: Vec::new(),
            prev_lo: Vec::new(),
            prev_up: Vec::new(),
        }
    }

    /// Solves under the form's default bounds with compact pins
    /// `(column, value)` applied over them: the one place an LP's bounds
    /// are set, for the root relaxation, every branch & bound node and the
    /// one-shot [`StandardForm::relaxation`]. The bound vectors are
    /// refilled in place, and the previous solve's are kept so that a
    /// [`Warm::Live`] start updates the basic values from the few columns
    /// whose bound moved (`rebind`). `Live` and `Basis` fall back to a
    /// cold start when the warm basis cannot be reused; the flag returned
    /// next to the outcome says whether the warm start held.
    pub(crate) fn solve_pinned(
        &mut self,
        p: &Problem,
        pins: &[(usize, f64)],
        warm: Warm,
        want_basis: bool,
    ) -> (SolveOutcome, bool) {
        self.drop_artificials();
        std::mem::swap(&mut self.lo, &mut self.prev_lo);
        std::mem::swap(&mut self.up, &mut self.prev_up);
        self.lo.resize(self.form.n_total, 0.0);
        self.up.resize(self.form.n_total, 0.0);
        self.lo.copy_from_slice(&self.form.lower);
        self.up.copy_from_slice(&self.form.upper);
        for &(i, v) in pins {
            self.lo[i] = v;
            self.up[i] = v;
        }
        self.live_ok = false;
        let warm_outcome = match warm {
            // A live basis was optimal for this same objective, so it
            // stays dual feasible under any bound change: skip the pricing
            // scan.
            Warm::Live => self.reoptimize(p, false, want_basis),
            Warm::Basis(basis) => self.try_warm(basis, p, want_basis),
            Warm::Cold => None,
        };
        match warm_outcome {
            Some(outcome) => (outcome, true),
            None => (self.solve_cold(p, want_basis), false),
        }
    }

    /// Whether [`Warm::Live`] is currently possible.
    pub(crate) fn live_available(&self) -> bool {
        self.live_ok
    }

    /// Writes the pivots, bound flips and refactorizations of every solve
    /// so far into `work`: a search runs on one workspace, so they are its.
    pub(crate) fn count_work(&self, work: &mut SolverContextStats) {
        work.pivots = self.total_pivots;
        work.bound_flips = self.total_flips;
        work.refactorizations = self.total_refactors;
    }

    /// Removes any artificial columns left over from a previous cold
    /// solve.
    fn drop_artificials(&mut self) {
        self.art.clear();
        self.lo.truncate(self.form.n_total);
        self.up.truncate(self.form.n_total);
        self.obj.truncate(self.form.n_total);
        self.status.truncate(self.form.n_total);
    }

    fn ncols(&self) -> usize {
        self.form.n_total + self.art.len()
    }

    /// Applies `f(row, value)` over the nonzeros of column `j`.
    fn with_col<F: FnMut(usize, f64)>(&self, j: usize, mut f: F) {
        if j < self.form.n_struct {
            for k in self.form.col_ptr[j]..self.form.col_ptr[j + 1] {
                f(self.form.row_idx[k], self.form.val[k]);
            }
        } else if j < self.form.n_total {
            f(j - self.form.n_struct, 1.0);
        } else {
            let (row, sign) = self.art[j - self.form.n_total];
            f(row, sign);
        }
    }

    /// `w = B^-1 A_j`.
    fn ftran(&self, j: usize, w: &mut [f64]) {
        let m = self.form.m;
        w.fill(0.0);
        self.with_col(j, |r, v| {
            for (i, wi) in w.iter_mut().enumerate() {
                *wi += v * self.binv[i * m + r];
            }
        });
    }

    /// `y = c_B^T B^-1` for the current-phase objective.
    fn compute_y(&self, y: &mut [f64]) {
        let m = self.form.m;
        y.fill(0.0);
        for i in 0..m {
            let c = self.obj[self.basic[i]];
            if c != 0.0 {
                for (r, yr) in y.iter_mut().enumerate() {
                    *yr += c * self.binv[i * m + r];
                }
            }
        }
    }

    fn reduced_cost(&self, j: usize, y: &[f64]) -> f64 {
        let mut d = self.obj[j];
        self.with_col(j, |r, v| d -= y[r] * v);
        d
    }

    /// Value a nonbasic column sits at.
    fn nb_value(&self, j: usize) -> f64 {
        match self.status[j] {
            Status::Upper => self.up[j],
            _ => self.lo[j],
        }
    }

    /// Whether column `j` can move at all (fixed columns never enter).
    fn movable(&self, j: usize) -> bool {
        self.up[j] - self.lo[j] > 1e-12
    }

    /// Recomputes `xb = B^-1 (b - N x_N)` from scratch.
    fn compute_xb(&mut self) {
        let m = self.form.m;
        let mut t = self.form.rhs.clone();
        for j in 0..self.ncols() {
            if self.status[j] != Status::Basic {
                let v = self.nb_value(j);
                if v != 0.0 {
                    self.with_col(j, |r, val| t[r] -= val * v);
                }
            }
        }
        for i in 0..m {
            let mut s = 0.0;
            for (r, tr) in t.iter().enumerate() {
                s += self.binv[i * m + r] * tr;
            }
            self.xb[i] = s;
        }
    }

    /// Rebuilds the dense basis inverse by Gauss-Jordan elimination with
    /// partial pivoting. Returns `false` when the basis matrix is singular.
    fn invert_basis(&mut self) -> bool {
        let m = self.form.m;
        if m == 0 {
            return true;
        }
        // aug = [B | I], row-major, 2m columns.
        let w = 2 * m;
        let mut aug = vec![0.0; m * w];
        for (i, row) in aug.chunks_exact_mut(w).enumerate() {
            row[m + i] = 1.0;
        }
        for (col, &j) in self.basic.iter().enumerate() {
            self.with_col(j, |r, v| aug[r * w + col] += v);
        }
        for col in 0..m {
            // Partial pivot.
            let mut best = col;
            let mut best_mag = aug[col * w + col].abs();
            for r in col + 1..m {
                let mag = aug[r * w + col].abs();
                if mag > best_mag {
                    best = r;
                    best_mag = mag;
                }
            }
            if best_mag < 1e-10 {
                return false;
            }
            if best != col {
                for c in 0..w {
                    aug.swap(col * w + c, best * w + c);
                }
            }
            let piv = aug[col * w + col];
            for c in 0..w {
                aug[col * w + c] /= piv;
            }
            for r in 0..m {
                if r != col {
                    let f = aug[r * w + col];
                    if f.abs() > 1e-14 {
                        for c in 0..w {
                            aug[r * w + c] -= f * aug[col * w + c];
                        }
                    }
                }
            }
        }
        for r in 0..m {
            for c in 0..m {
                self.binv[r * m + c] = aug[r * w + m + c];
            }
        }
        self.pivots = 0;
        self.total_refactors += 1;
        true
    }

    /// Product-form update of the inverse after pivoting column `q`
    /// (direction `w = B^-1 A_q`) into row `r`.
    fn pivot_update(&mut self, r: usize, w: &[f64]) {
        let m = self.form.m;
        let piv = w[r];
        for c in 0..m {
            self.binv[r * m + c] /= piv;
        }
        for (i, &f) in w.iter().enumerate() {
            if i != r && f.abs() > 1e-14 {
                for c in 0..m {
                    self.binv[i * m + c] -= f * self.binv[r * m + c];
                }
            }
        }
        self.pivots += 1;
        self.total_pivots += 1;
    }

    /// Refactorizes the inverse once `REFACTOR_EVERY` pivots have updated
    /// it; whether it did.
    fn maybe_refactor(&mut self) -> bool {
        let refactored = self.pivots >= REFACTOR_EVERY && self.invert_basis();
        if refactored {
            self.compute_xb();
        }
        refactored
    }

    /// Bounded-variable primal simplex on the current-phase objective.
    /// Requires a primal-feasible starting basis.
    fn primal(&mut self) -> PrimalEnd {
        let mut y = std::mem::take(&mut self.scratch_y);
        let mut w = std::mem::take(&mut self.scratch_w);
        let mut candidates = std::mem::take(&mut self.scratch_c);
        let end = self.primal_loop(&mut y, &mut w, &mut candidates);
        self.scratch_y = y;
        self.scratch_w = w;
        self.scratch_c = candidates;
        end
    }

    /// The primal iterations. Pricing happens once per basis: a bound flip
    /// changes neither the basis nor any reduced cost, so it only retires
    /// the flipped column from the candidates (its violation changes sign),
    /// and the next iteration picks among the rest without re-pricing. A
    /// basis change or a refactorization re-prices.
    fn primal_loop(
        &mut self,
        y: &mut [f64],
        w: &mut [f64],
        candidates: &mut Vec<(usize, f64)>,
    ) -> PrimalEnd {
        let mut priced = false;
        let mut bland = false;
        let mut stalls = 0usize;
        for _ in 0..MAX_ITERS {
            if self.maybe_refactor() || !priced {
                self.price(y, candidates);
                priced = true;
            }

            // Entering column: Dantzig (the first candidate of largest
            // violation), Bland (the first candidate) on stall.
            let pick = if bland {
                (!candidates.is_empty()).then_some(0)
            } else {
                (0..candidates.len()).min_by(|&a, &b| candidates[b].1.total_cmp(&candidates[a].1))
            };
            let Some(k) = pick else {
                return PrimalEnd::Optimal;
            };
            let q = candidates[k].0;

            self.ftran(q, w);
            let dir = if self.status[q] == Status::Lower {
                1.0
            } else {
                -1.0
            };

            // Bounded ratio test: the entering column moves by `t >= 0`;
            // basics move by `-dir * t * w`.
            let mut t_best = self.up[q] - self.lo[q]; // own bound flip
            let mut leave: Option<(usize, Status)> = None;
            for (i, &wi) in w.iter().enumerate() {
                let e = dir * wi;
                let b = self.basic[i];
                if e > PIVOT_TOL {
                    let room = (self.xb[i] - self.lo[b]).max(0.0);
                    let t = room / e;
                    if t < t_best - 1e-12
                        || (bland
                            && (t - t_best).abs() <= 1e-12
                            && leave.is_some_and(|(p, _)| b < self.basic[p]))
                    {
                        t_best = t;
                        leave = Some((i, Status::Lower));
                    }
                } else if e < -PIVOT_TOL && self.up[b].is_finite() {
                    let room = (self.up[b] - self.xb[i]).max(0.0);
                    let t = room / -e;
                    if t < t_best - 1e-12
                        || (bland
                            && (t - t_best).abs() <= 1e-12
                            && leave.is_some_and(|(p, _)| b < self.basic[p]))
                    {
                        t_best = t;
                        leave = Some((i, Status::Upper));
                    }
                }
            }
            if t_best.is_infinite() {
                return PrimalEnd::Unbounded;
            }
            if t_best < 1e-10 {
                stalls += 1;
                if stalls > STALL_LIMIT {
                    bland = true;
                }
            } else {
                stalls = 0;
            }

            let xq = self.nb_value(q) + dir * t_best;
            for (xi, &wi) in self.xb.iter_mut().zip(w.iter()) {
                *xi -= dir * t_best * wi;
            }
            match leave {
                None => {
                    // Bound flip: the entering column crosses to its other
                    // bound without a basis change.
                    self.status[q] = if self.status[q] == Status::Lower {
                        Status::Upper
                    } else {
                        Status::Lower
                    };
                    candidates.remove(k);
                    self.total_flips += 1;
                }
                Some((r, side)) => {
                    self.status[self.basic[r]] = side;
                    self.basic[r] = q;
                    self.status[q] = Status::Basic;
                    self.xb[r] = xq;
                    self.pivot_update(r, w);
                    priced = false;
                }
            }
        }
        PrimalEnd::IterLimit
    }

    /// Prices every nonbasic column that can move and collects those whose
    /// violation (the reduced cost, negated at the upper bound) exceeds
    /// `DUAL_TOL`, by ascending column: the entering rules' picks are then
    /// the first candidate (Bland) and the first of largest violation
    /// (Dantzig), the columns a full pricing scan would pick.
    fn price(&self, y: &mut [f64], candidates: &mut Vec<(usize, f64)>) {
        self.compute_y(y);
        candidates.clear();
        for j in 0..self.ncols() {
            if self.status[j] == Status::Basic || !self.movable(j) {
                continue;
            }
            let d = self.reduced_cost(j, y);
            let viol = if self.status[j] == Status::Upper {
                -d
            } else {
                d
            };
            if viol > DUAL_TOL {
                candidates.push((j, viol));
            }
        }
    }

    /// Scaled feasibility tolerance for column `j` (infinite bounds do not
    /// widen it).
    fn feas_tol(&self, j: usize) -> f64 {
        let lo = if self.lo[j].is_finite() {
            self.lo[j].abs()
        } else {
            0.0
        };
        let up = if self.up[j].is_finite() {
            self.up[j].abs()
        } else {
            0.0
        };
        FEAS_TOL * lo.max(up).max(1.0)
    }

    /// Largest primal bound violation among basic variables.
    fn worst_violation(&self) -> Option<(usize, bool, f64)> {
        let mut worst: Option<(usize, bool, f64)> = None;
        for i in 0..self.form.m {
            let b = self.basic[i];
            let tol = self.feas_tol(b);
            let below = self.lo[b] - self.xb[i];
            let above = self.xb[i] - self.up[b];
            if below > tol && worst.is_none_or(|(_, _, v)| below > v) {
                worst = Some((i, true, below));
            }
            if above > tol && worst.is_none_or(|(_, _, v)| above > v) {
                worst = Some((i, false, above));
            }
        }
        worst
    }

    /// Bounded-variable dual simplex: restores primal feasibility while
    /// preserving dual feasibility (the warm-start reoptimizer after bound
    /// or rhs changes).
    fn dual(&mut self) -> DualEnd {
        let m = self.form.m;
        let mut y = std::mem::take(&mut self.scratch_y);
        let mut w = std::mem::take(&mut self.scratch_w);
        let mut d = std::mem::take(&mut self.scratch_d);
        let mut alphas = std::mem::take(&mut self.scratch_a);
        let end = self.dual_loop(m, &mut y, &mut w, &mut d, &mut alphas);
        self.scratch_y = y;
        self.scratch_w = w;
        self.scratch_d = d;
        self.scratch_a = alphas;
        end
    }

    fn dual_loop(
        &mut self,
        m: usize,
        y: &mut [f64],
        w: &mut [f64],
        d: &mut Vec<f64>,
        alphas: &mut Vec<f64>,
    ) -> DualEnd {
        // Reduced costs are priced once and then maintained incrementally
        // across pivots (`d_j -= theta * alpha_j`); a pivot-choice drift
        // only costs extra pivots, never correctness, because the primal
        // polish after the dual re-prices from scratch.
        let ncols = self.ncols();
        d.resize(ncols, 0.0);
        alphas.resize(ncols, 0.0);
        self.compute_y(y);
        for (j, dj) in d.iter_mut().enumerate() {
            *dj = if self.status[j] == Status::Basic {
                0.0
            } else {
                self.reduced_cost(j, y)
            };
        }
        for _ in 0..MAX_ITERS {
            self.maybe_refactor();
            let Some((r, below, _)) = self.worst_violation() else {
                return DualEnd::PrimalFeasible;
            };
            let rho = &self.binv[r * m..(r + 1) * m];

            // Entering column: among sign-compatible candidates, the one
            // whose reduced cost reaches zero first keeps dual feasibility.
            let mut best: Option<(usize, f64)> = None; // (col, ratio)
            for j in 0..ncols {
                if self.status[j] == Status::Basic || !self.movable(j) {
                    alphas[j] = 0.0;
                    continue;
                }
                let mut alpha = 0.0;
                self.with_col(j, |row, v| alpha += rho[row] * v);
                alphas[j] = alpha;
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                // Moving j by `delta * t` changes `xb[r]` by
                // `-delta * alpha * t`; pick columns that push `xb[r]`
                // toward the violated bound.
                let delta = if self.status[j] == Status::Lower {
                    1.0
                } else {
                    -1.0
                };
                let pushes_up = delta * alpha < 0.0;
                if pushes_up != below {
                    continue;
                }
                let ratio = d[j].abs() / alpha.abs();
                if best.is_none_or(|(_, r0)| ratio < r0) {
                    best = Some((j, ratio));
                }
            }
            let Some((q, _)) = best else {
                return DualEnd::Infeasible;
            };

            self.ftran(q, w);
            if w[r].abs() <= PIVOT_TOL {
                // Numerical disagreement between the row and column views:
                // refactorize once, then give up on the warm path.
                if !self.invert_basis() {
                    return DualEnd::Stalled;
                }
                self.compute_xb();
                continue;
            }
            // Step length: the leaving variable travels to its violated
            // bound; basics update incrementally (no full recompute).
            let leaving = self.basic[r];
            let bnd = if below {
                self.lo[leaving]
            } else {
                self.up[leaving]
            };
            let delta = if self.status[q] == Status::Lower {
                1.0
            } else {
                -1.0
            };
            let t = (self.xb[r] - bnd) / (delta * w[r]);
            let xq = self.nb_value(q) + delta * t;
            for (xi, &wi) in self.xb.iter_mut().zip(w.iter()) {
                *xi -= delta * t * wi;
            }
            // Dual price update: after the pivot, d_j -= theta * alpha_j
            // with theta = d_q / alpha_q; the leaving column (alpha = 1)
            // picks up -theta, the entering one goes to zero.
            let theta = d[q] / alphas[q];
            if theta != 0.0 {
                for j in 0..ncols {
                    if alphas[j] != 0.0 {
                        d[j] -= theta * alphas[j];
                    }
                }
            }
            d[leaving] = -theta;
            d[q] = 0.0;
            self.status[leaving] = if below { Status::Lower } else { Status::Upper };
            self.basic[r] = q;
            self.status[q] = Status::Basic;
            self.xb[r] = xq;
            self.pivot_update(r, w);
        }
        DualEnd::Stalled
    }

    fn dual_feasible(&self) -> bool {
        let m = self.form.m;
        let mut y = vec![0.0; m];
        self.compute_y(&mut y);
        for j in 0..self.ncols() {
            if self.status[j] == Status::Basic || !self.movable(j) {
                continue;
            }
            let d = self.reduced_cost(j, &y);
            let bad = match self.status[j] {
                Status::Lower => d > DUAL_TOL * 10.0,
                Status::Upper => d < -DUAL_TOL * 10.0,
                // lint:allow(panic_freedom, this loop iterates nonbasic columns only)
                Status::Basic => unreachable!(),
            };
            if bad {
                return false;
            }
        }
        true
    }

    fn primal_feasible(&self) -> bool {
        self.worst_violation().is_none()
    }

    /// Normalizes nonbasic statuses against the current bounds (a column
    /// cannot sit at an infinite bound) and recomputes basic values.
    ///
    /// When the previous solve's bounds are known (`solve_pinned` keeps
    /// them, `try_warm` clears them), the basic values are updated
    /// *incrementally* from the few nonbasic columns whose resting value
    /// actually moved — a dive changes one pin, not the whole problem.
    fn rebind(&mut self) {
        let n_total = self.form.n_total;
        let incremental = self.prev_lo.len() == n_total && self.prev_up.len() == n_total;
        let mut w = std::mem::take(&mut self.scratch_w);
        let mut moved = 0usize;
        for j in 0..n_total {
            if self.status[j] == Status::Basic {
                continue;
            }
            let old = if incremental {
                match self.status[j] {
                    Status::Upper => self.prev_up[j],
                    _ => self.prev_lo[j],
                }
            } else {
                0.0
            };
            if self.status[j] == Status::Lower && self.lo[j].is_infinite() {
                self.status[j] = Status::Upper;
            }
            if self.status[j] == Status::Upper && self.up[j].is_infinite() {
                self.status[j] = Status::Lower;
            }
            if incremental && moved != usize::MAX {
                let delta = self.nb_value(j) - old;
                if delta != 0.0 {
                    if delta.is_finite() {
                        // xb -= delta * B^-1 A_j.
                        self.ftran(j, &mut w);
                        for (xi, wi) in self.xb.iter_mut().zip(w.iter()) {
                            *xi -= delta * wi;
                        }
                        moved += 1;
                    } else {
                        moved = usize::MAX; // infinite flip: full recompute
                    }
                }
            }
        }
        self.scratch_w = w;
        if !incremental || moved == usize::MAX {
            self.compute_xb();
        }
    }

    /// Reoptimizes from the currently-installed basis and inverse after a
    /// bounds change (`Warm::Live`). `None` means "fall back cold".
    ///
    /// `check_dual` skips the dual-feasibility scan when the caller knows
    /// the basis was optimal for this very objective (a live dive: bound
    /// changes cannot disturb reduced costs).
    fn reoptimize(
        &mut self,
        p: &Problem,
        check_dual: bool,
        want_basis: bool,
    ) -> Option<SolveOutcome> {
        self.rebind();
        if self.primal_feasible() {
            return match self.primal() {
                PrimalEnd::Optimal => Some(self.extract(p, want_basis)),
                PrimalEnd::Unbounded => Some(SolveOutcome::Unbounded),
                PrimalEnd::IterLimit => None,
            };
        }
        if !check_dual || self.dual_feasible() {
            return match self.dual() {
                // The dual maintains dual feasibility, so a primal-feasible
                // end state is optimal; the primal call below re-prices and
                // normally exits without pivoting (it also mops up any
                // incremental-pricing drift).
                DualEnd::PrimalFeasible => match self.primal() {
                    PrimalEnd::Optimal => Some(self.extract(p, want_basis)),
                    PrimalEnd::Unbounded => Some(SolveOutcome::Unbounded),
                    PrimalEnd::IterLimit => None,
                },
                DualEnd::Infeasible => {
                    // The workspace still holds a consistent, dual-feasible
                    // basis (dual pivots preserve both invariants), so the
                    // next node of the same search can keep reusing it.
                    self.live_ok = true;
                    Some(SolveOutcome::Infeasible)
                }
                DualEnd::Stalled => None,
            };
        }
        None
    }

    /// Attempts a warm start from a stored `basis`; `None` means "fall
    /// back to a cold start".
    fn try_warm(&mut self, basis: &Basis, p: &Problem, want_basis: bool) -> Option<SolveOutcome> {
        if basis.basic.len() != self.form.m || basis.status.len() != self.form.n_total {
            return None;
        }
        self.basic.copy_from_slice(&basis.basic);
        self.status.copy_from_slice(&basis.status);
        // The basic values belong to whatever basis the workspace held
        // before: without the previous bounds, `rebind` recomputes them.
        self.prev_lo.clear();
        self.prev_up.clear();
        if !self.invert_basis() {
            return None;
        }
        self.rest_boxed_columns();
        self.reoptimize(p, true, want_basis)
    }

    /// Moves each nonbasic column with two finite bounds to the bound its
    /// reduced cost favours. A stored basis can come from a problem with
    /// other bounds: a column the presolve fixed there, at whichever
    /// bound, may be free here. After this, only a column with an infinite
    /// bound can make the basis dual infeasible.
    fn rest_boxed_columns(&mut self) {
        let mut y = std::mem::take(&mut self.scratch_y);
        self.compute_y(&mut y);
        for j in 0..self.form.n_total {
            if self.status[j] == Status::Basic
                || !(self.lo[j].is_finite() && self.up[j].is_finite())
            {
                continue;
            }
            let d = self.reduced_cost(j, &y);
            if d > DUAL_TOL {
                self.status[j] = Status::Upper;
            } else if d < -DUAL_TOL {
                self.status[j] = Status::Lower;
            }
        }
        self.scratch_y = y;
    }

    /// Cold start: slack basis, artificial phase one where needed, then
    /// the real objective.
    fn solve_cold(&mut self, p: &Problem, want_basis: bool) -> SolveOutcome {
        let m = self.form.m;
        let n_total = self.form.n_total;
        self.drop_artificials();
        self.status.clear();
        self.status.resize(n_total, Status::Lower);
        for j in 0..n_total {
            if self.lo[j].is_infinite() {
                self.status[j] = Status::Upper;
            }
        }
        for i in 0..m {
            self.basic[i] = self.form.n_struct + i;
            self.status[self.form.n_struct + i] = Status::Basic;
        }
        self.binv.fill(0.0);
        for i in 0..m {
            self.binv[i * m + i] = 1.0;
        }
        self.pivots = 0;
        self.compute_xb();

        // Phase one: artificial columns only on rows whose slack start is
        // out of bounds.
        let mut art_rows = Vec::new();
        for i in 0..m {
            let s = self.basic[i];
            let tol = self.feas_tol(s);
            if self.xb[i] > self.up[s] + tol {
                art_rows.push((i, true, 1.0));
            } else if self.xb[i] < self.lo[s] - tol {
                art_rows.push((i, false, -1.0));
            }
        }
        if !art_rows.is_empty() {
            for &(row, at_upper, sgn) in &art_rows {
                let j = n_total + self.art.len();
                self.art.push((row, sgn));
                self.lo.push(0.0);
                self.up.push(f64::INFINITY);
                self.obj.push(0.0);
                // The slack leaves the basis at its violated bound; the
                // artificial absorbs the residual (positive by sign
                // choice).
                let s = self.basic[row];
                self.status[s] = if at_upper {
                    Status::Upper
                } else {
                    Status::Lower
                };
                self.basic[row] = j;
                self.status.push(Status::Basic);
            }
            // The basis is still diagonal, but negative-sign artificials
            // are -e_i columns: flip their inverse entries in place.
            for &(row, sign) in &self.art {
                if self.basic[row] >= n_total {
                    self.binv[row * m + row] = sign;
                }
            }
            self.compute_xb();
            // Phase-one objective: maximize -(sum of artificials).
            self.obj = vec![0.0; self.ncols()];
            for k in 0..self.art.len() {
                self.obj[n_total + k] = -1.0;
            }
            match self.primal() {
                // lint:allow(panic_freedom, phase one minimizes a sum of bounded artificials, so its primal cannot be unbounded)
                PrimalEnd::Unbounded => unreachable!("phase one is bounded below"),
                // On the (anti-runaway) iteration cap, don't guess: judge
                // by the residual infeasibility below, like a normal exit.
                PrimalEnd::IterLimit | PrimalEnd::Optimal => {}
            }
            let infeasibility: f64 = (0..m)
                .filter(|&i| self.basic[i] >= n_total)
                .map(|i| self.xb[i].max(0.0))
                .sum();
            if infeasibility > 1e-6 {
                return SolveOutcome::Infeasible;
            }
            self.retire_artificials();
        }

        // Phase two: the real objective.
        self.obj.clear();
        self.obj.extend_from_slice(&self.form.obj);
        self.obj.resize(self.ncols(), 0.0);
        match self.primal() {
            PrimalEnd::Optimal | PrimalEnd::IterLimit => self.extract(p, want_basis),
            PrimalEnd::Unbounded => SolveOutcome::Unbounded,
        }
    }

    /// After phase one: fix artificials at zero and pivot basic ones out
    /// where a usable pivot exists (a redundant row may keep one).
    fn retire_artificials(&mut self) {
        let m = self.form.m;
        let n_total = self.form.n_total;
        for k in 0..self.art.len() {
            let j = n_total + k;
            self.lo[j] = 0.0;
            self.up[j] = 0.0;
        }
        let mut w = vec![0.0; m];
        for r in 0..m {
            if self.basic[r] < n_total {
                continue;
            }
            // Prefer the row's own slack, then any structural column.
            let slack = self.form.n_struct + r;
            let candidates = std::iter::once(slack).chain(0..self.form.n_struct);
            for j in candidates {
                if self.status[j] == Status::Basic {
                    continue;
                }
                self.ftran(j, &mut w);
                if w[r].abs() > 1e-7 {
                    // Zero-step pivot: the entering column keeps its bound
                    // value; only the basis bookkeeping changes.
                    let art = self.basic[r];
                    self.status[art] = Status::Lower;
                    self.basic[r] = j;
                    self.status[j] = Status::Basic;
                    self.pivot_update(r, &w);
                    self.compute_xb();
                    break;
                }
            }
        }
    }

    /// Reads out structural values, recomputes the objective from the
    /// original (unscaled) coefficients, and packages the basis.
    fn extract(&mut self, p: &Problem, want_basis: bool) -> SolveOutcome {
        let n = self.form.n_struct;
        let mut values = vec![0.0; n];
        for (j, value) in values.iter_mut().enumerate() {
            *value = match self.status[j] {
                Status::Basic => 0.0, // filled below
                Status::Upper => self.up[j],
                Status::Lower => self.lo[j],
            };
        }
        for (i, &b) in self.basic.iter().enumerate() {
            if b < n {
                values[b] = self.xb[i];
            }
        }
        let objective = p
            .variables()
            .iter()
            .enumerate()
            .map(|(i, v)| v.objective * values[i])
            .sum();
        self.live_ok = self.basic.iter().all(|&b| b < self.form.n_total);
        let basis = if want_basis && self.live_ok {
            Some(Basis {
                basic: self.basic.clone(),
                status: self.status[..self.form.n_total].to_vec(),
            })
        } else {
            None
        };
        SolveOutcome::Optimal {
            values,
            objective,
            basis,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Relation, Sense};

    fn solve(p: &Problem, pins: &[Option<f64>]) -> LpResult {
        StandardForm::build(p, None).relaxation(p, pins).0
    }

    /// `max 9a + 9b + 16c` s.t. `5a + 5b + 8c <= 10` over binaries: the
    /// relaxation (c = 1, a = 0.4, objective 19.6) is fractional.
    fn branchy_knapsack() -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary();
        let b = p.binary();
        let c = p.binary();
        p.set_objective(a, 9.0);
        p.set_objective(b, 9.0);
        p.set_objective(c, 16.0);
        p.add_constraint(&[(a, 5.0), (b, 5.0), (c, 8.0)], Relation::Le, 10.0);
        p
    }

    #[test]
    fn matches_dense_on_textbook_max() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous(0.0, f64::INFINITY);
        let y = p.continuous(0.0, f64::INFINITY);
        p.set_objective(x, 5.0);
        p.set_objective(y, 4.0);
        p.add_constraint(&[(x, 6.0), (y, 4.0)], Relation::Le, 24.0);
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Le, 6.0);
        let LpResult::Optimal(s) = solve(&p, &[]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 21.0).abs() < 1e-6, "z = {}", s.objective);
        assert!((s.values[0] - 3.0).abs() < 1e-6);
        assert!((s.values[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn phase_one_handles_ge_and_eq() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.continuous(0.0, f64::INFINITY);
        let y = p.continuous(0.0, f64::INFINITY);
        p.set_objective(x, 2.0);
        p.set_objective(y, 3.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 1.0);
        let LpResult::Optimal(s) = solve(&p, &[]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 8.0).abs() < 1e-6, "z = {}", s.objective);

        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous(0.0, 2.0);
        let y = p.continuous(0.0, f64::INFINITY);
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        let LpResult::Optimal(s) = solve(&p, &[]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible_and_unbounded() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous(0.0, 1.0);
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(solve(&p, &[]), LpResult::Infeasible);

        let mut p = Problem::new(Sense::Maximize);
        let x = p.continuous(0.0, f64::INFINITY);
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 0.0);
        assert_eq!(solve(&p, &[]), LpResult::Unbounded);
    }

    #[test]
    fn pins_respected_without_explicit_rows() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.binary();
        let y = p.binary();
        p.set_objective(x, 3.0);
        p.set_objective(y, 2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        let LpResult::Optimal(s) = solve(&p, &[Some(0.0), None]) else {
            panic!("expected optimal")
        };
        assert!((s.objective - 2.0).abs() < 1e-6);
        assert!(s.values[0].abs() < 1e-9);
    }

    #[test]
    fn bound_flips_are_counted_apart_from_pivots() {
        // `max 3a + 2b + 2c` over `[0, 1]` columns with `a + b + c <= 2.5`:
        // from the slack basis, `a` and then `b` (the lower index of a
        // tie) reach their upper bounds before the row blocks them (two
        // flips, no basis change), and `c` stops at 0.5 where the row
        // binds (one pivot).
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..3).map(|_| p.continuous(0.0, 1.0)).collect();
        for (&v, c) in vars.iter().zip([3.0, 2.0, 2.0]) {
            p.set_objective(v, c);
        }
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(&terms, Relation::Le, 2.5);
        let form = StandardForm::build(&p, None);
        let mut lp = Lp::new(&form);
        let (SolveOutcome::Optimal { values, .. }, _) = lp.solve_pinned(&p, &[], Warm::Cold, true)
        else {
            panic!("expected optimal")
        };
        assert_eq!(values, vec![1.0, 1.0, 0.5]);
        assert_eq!((lp.total_pivots, lp.total_flips), (1, 2));
    }

    #[test]
    fn warm_start_after_rhs_tightening_matches_cold() {
        // A capacity-style LP: solve, keep the basis, shrink the rhs, and
        // re-solve warm — the dual simplex must land on the cold optimum.
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..6).map(|_| p.binary()).collect();
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective(v, 10.0 - i as f64);
        }
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(&terms, Relation::Le, 4.0);

        let form = StandardForm::build(&p, None);
        let (res, basis, _) = solve_with_pins(&form, &p, &[], None);
        let LpResult::Optimal(cold) = res else {
            panic!("cold solve failed")
        };
        assert!((cold.objective - 34.0).abs() < 1e-6);
        let basis = basis.expect("storable basis");

        let mut tighter = p.clone();
        tighter.set_rhs(0, 2.0);
        let tight_form = StandardForm::build(&tighter, None);
        let (warm_res, _, warm_held) = solve_with_pins(&tight_form, &tighter, &[], Some(&basis));
        let LpResult::Optimal(warm) = warm_res else {
            panic!("warm solve failed")
        };
        assert!(warm_held, "warm path must be taken");
        let (cold_res, _, _) = solve_with_pins(&tight_form, &tighter, &[], None);
        let LpResult::Optimal(cold2) = cold_res else {
            panic!("cold re-solve failed")
        };
        assert!(
            (warm.objective - cold2.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective,
            cold2.objective
        );
    }

    #[test]
    fn tighten_fixes_oversized_columns_and_rounds_integral_rows() {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary();
        let b = p.binary();
        let c = p.binary();
        let y = p.continuous(0.0, 10.0);
        for v in [a, b, c, y] {
            p.set_objective(v, 1.0);
        }
        // 0: a's two terms add up to 9 > 6, so a is fixed at 0; b and c
        //    then share the gcd 4, and 6 rounds down to 4.
        p.add_constraint(&[(a, 4.5), (b, 4.0), (a, 4.5), (c, 4.0)], Relation::Le, 6.0);
        // 1: a `Ge` row rounds up, from 1 to 3.
        p.add_constraint(&[(b, 3.0), (c, 3.0)], Relation::Ge, 1.0);
        // 2: a continuous column keeps the rhs.
        p.add_constraint(&[(b, 2.0), (y, 1.0)], Relation::Le, 10.5);
        let mut form = StandardForm::build(&p, None);
        let raw = form.clone();
        let moved = form.tighten(&p);
        assert_eq!((moved.cols_fixed, moved.rows_rounded), (1, 2));
        assert_eq!((form.lower[0], form.upper[0]), (0.0, 0.0));
        // Every integer point stays; the fractional points the rules cut
        // off go.
        for x in [[0.0, 1.0, 0.0, 8.5], [0.0, 0.0, 1.0, 0.5]] {
            assert!(raw.admits(&x) && form.admits(&x), "{x:?}");
        }
        for x in [
            [0.0, 0.75, 0.75, 0.0],
            [0.0, 0.25, 0.25, 0.0],
            [0.2, 0.0, 1.0, 0.0],
        ] {
            assert!(raw.admits(&x) && !form.admits(&x), "{x:?}");
        }

        // A bound that would cross is not written: the LP finds the
        // infeasibility.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary();
        p.set_objective(a, 1.0);
        p.add_constraint(&[(a, 2.0)], Relation::Le, -1.0);
        let mut form = StandardForm::build(&p, None);
        assert_eq!(form.tighten(&p).cols_fixed, 0);
        assert_eq!((form.lower[0], form.upper[0]), (0.0, 1.0));
        assert_eq!(form.relaxation(&p, &[]).0, LpResult::Infeasible);
    }

    #[test]
    fn warm_start_across_a_capacity_that_frees_a_fixed_column() {
        // At capacity 10 the presolve fixes j (weight 15) at 0, and the
        // optimal basis rests it at its lower bound although its reduced
        // cost (+3) favours the upper one. At capacity 20 j is free: there
        // that basis is neither primal (a = 2.4) nor dual feasible, unless
        // the warm start first moves j to its upper bound; then the dual
        // simplex reoptimizes from it instead of solving cold.
        let knapsack = |capacity: f64| {
            let mut p = Problem::new(Sense::Maximize);
            // a, b, c and j.
            let items = [(9.0, 5.0), (9.0, 5.0), (16.0, 8.0), (30.0, 15.0)];
            let terms: Vec<_> = items
                .into_iter()
                .map(|(value, weight)| {
                    let v = p.binary();
                    p.set_objective(v, value);
                    (v, weight)
                })
                .collect();
            p.add_constraint(&terms, Relation::Le, capacity);
            p
        };
        let (small, large) = (knapsack(10.0), knapsack(20.0));
        let mut small_form = StandardForm::build(&small, None);
        assert_eq!(small_form.tighten(&small).cols_fixed, 1);
        let (LpResult::Optimal(_), Some(stored), _) =
            solve_with_pins(&small_form, &small, &[], None)
        else {
            panic!("optimal with a storable basis")
        };
        assert_eq!(
            (stored.basic.as_slice(), stored.status[3]),
            (&[0][..], Status::Lower)
        );

        let mut large_form = StandardForm::build(&large, None);
        assert_eq!(large_form.tighten(&large), Tightening::default());
        let (warm, _, warm_held) = solve_with_pins(&large_form, &large, &[], Some(&stored));
        assert!(warm_held, "the stored basis must be reused");
        let (cold, _, _) = solve_with_pins(&large_form, &large, &[], None);
        let (LpResult::Optimal(w), LpResult::Optimal(c)) = (warm, cold) else {
            panic!("both solves must be optimal")
        };
        assert!((w.objective - 40.0).abs() < 1e-9, "warm {}", w.objective);
        assert!((c.objective - 40.0).abs() < 1e-9, "cold {}", c.objective);
    }

    #[test]
    fn warm_start_with_pin_matches_cold() {
        // Branch & bound's exact pattern: optimal parent basis, then a
        // child with one variable pinned.
        let p = branchy_knapsack();

        let form = StandardForm::build(&p, None);
        let (root, basis, _) = solve_with_pins(&form, &p, &[], None);
        let LpResult::Optimal(_) = root else {
            panic!("root failed")
        };
        let basis = basis.expect("storable basis");
        for pin in [0.0, 1.0] {
            let pins = vec![None, None, Some(pin)];
            let (warm, _, _) = solve_with_pins(&form, &p, &pins, Some(&basis));
            let (cold, _, _) = solve_with_pins(&form, &p, &pins, None);
            match (warm, cold) {
                (LpResult::Optimal(w), LpResult::Optimal(c)) => {
                    assert!(
                        (w.objective - c.objective).abs() < 1e-6,
                        "pin {pin}: warm {} vs cold {}",
                        w.objective,
                        c.objective
                    );
                }
                (w, c) => assert_eq!(w, c, "pin {pin}"),
            }
        }
    }

    #[test]
    fn live_reoptimize_matches_fresh_solves() {
        // The dive pattern: keep one workspace, change pins, re-solve live.
        let p = branchy_knapsack();
        let form = StandardForm::build(&p, None);

        let mut lp = Lp::new(&form);
        let (root, _) = lp.solve_pinned(&p, &[], Warm::Cold, true);
        assert!(matches!(root, SolveOutcome::Optimal { .. }));
        assert!(lp.live_available());

        for pins in [vec![(2, 1.0)], vec![(2, 0.0)], vec![(0, 1.0), (2, 1.0)]] {
            let (live, live_held) = lp.solve_pinned(&p, &pins, Warm::Live, false);
            assert!(live_held, "{pins:?}: the live basis must be reused");
            let (fresh, _) = Lp::new(&form).solve_pinned(&p, &pins, Warm::Cold, false);
            match (live, fresh) {
                (
                    SolveOutcome::Optimal { objective, .. },
                    SolveOutcome::Optimal {
                        objective: fresh_obj,
                        ..
                    },
                ) => {
                    assert!(
                        (objective - fresh_obj).abs() < 1e-6,
                        "{pins:?}: live {objective} vs fresh {fresh_obj}"
                    );
                }
                (SolveOutcome::Infeasible, SolveOutcome::Infeasible) => {}
                (live, fresh) => panic!("{pins:?}: live {live:?} vs fresh {fresh:?}"),
            }
        }
    }

    #[test]
    fn a_stored_basis_installed_on_a_used_workspace_matches_a_cold_solve() {
        // The basic values a workspace holds belong to its last basis:
        // after installing a stored one, they must be recomputed, not
        // updated from the last solve's bounds.
        let p = branchy_knapsack();
        let form = StandardForm::build(&p, None);
        let (cold, root) = form.relaxation(&p, &[]);
        let root = root.expect("storable basis");
        let mut lp = Lp::new(&form);
        for pins in [vec![(2, 0.0)], vec![(2, 1.0)], vec![(0, 1.0), (1, 1.0)]] {
            lp.solve_pinned(&p, &pins, Warm::Cold, false);
        }
        let (
            SolveOutcome::Optimal {
                values, objective, ..
            },
            warm_held,
        ) = lp.solve_pinned(&p, &[], Warm::Basis(&root), true)
        else {
            panic!("the root relaxation is optimal")
        };
        assert!(warm_held, "the stored basis must be reused");
        assert_eq!(LpResult::Optimal(LpSolution { objective, values }), cold);
    }

    #[test]
    fn scaling_keeps_byte_sized_coefficients_stable() {
        // Formulation-sized magnitudes: byte coefficients in the millions.
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..8).map(|_| p.binary()).collect();
        let bytes = [
            600_000.0,
            1_200_000.0,
            300_000.0,
            2_400_000.0,
            150_000.0,
            75_000.0,
            900_000.0,
            37_500.0,
        ];
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective(v, bytes[i] * 0.95);
        }
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, bytes[i]))
            .collect();
        p.add_constraint(&terms, Relation::Le, 3_000_000.0);
        let LpResult::Optimal(s) = solve(&p, &[]) else {
            panic!("expected optimal")
        };
        let dense = crate::dense::solve_relaxation_dense(&p, &[]);
        let LpResult::Optimal(d) = dense else {
            panic!("dense failed")
        };
        let rel = (s.objective - d.objective).abs() / d.objective.abs().max(1.0);
        assert!(
            rel < 1e-9,
            "sparse {} vs dense {}",
            s.objective,
            d.objective
        );
    }

    /// Relaxation objectives of the presolved form and the dense oracle
    /// agree.
    fn assert_matches_dense(p: &Problem) {
        let (LpResult::Optimal(s), LpResult::Optimal(d)) =
            (solve(p, &[]), crate::dense::solve_relaxation_dense(p, &[]))
        else {
            panic!("both solves must be optimal")
        };
        assert!(
            (s.objective - d.objective).abs() < 1e-9,
            "presolved {} vs dense {}",
            s.objective,
            d.objective
        );
    }

    #[test]
    fn presolve_drops_only_rows_that_can_never_bind() {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary();
        let b = p.binary();
        let y = p.continuous(0.0, f64::INFINITY);
        p.set_objective(a, 3.0);
        p.set_objective(b, 2.0);
        p.set_objective(y, 1.0);
        let ab = [(a, 1.0), (b, 1.0)];
        // 0: largest activity 2 is below the rhs: dropped.
        p.add_constraint(&ab, Relation::Le, 3.0);
        // 1: largest activity equals the rhs: kept.
        p.add_constraint(&ab, Relation::Le, 2.0);
        // 2: smallest activity 0 is above the rhs: dropped.
        p.add_constraint(&ab, Relation::Ge, -1.0);
        // 3: smallest activity equals the rhs: kept.
        p.add_constraint(&ab, Relation::Ge, 0.0);
        // 4: an Eq row is never dropped.
        p.add_constraint(&ab, Relation::Eq, 1.0);
        // 5: infinite largest activity (y has no upper bound): kept.
        p.add_constraint(&[(y, 1.0), (a, 1.0)], Relation::Le, 10.0);
        // 6: infinite smallest activity: kept.
        p.add_constraint(&[(y, -1.0), (b, 1.0)], Relation::Ge, -20.0);
        // 7: y only loosens the row, whose largest activity is 1: dropped.
        p.add_constraint(&[(y, -1.0), (a, 1.0)], Relation::Le, 5.0);
        // 8: largest activity below the rhs by less than the margin: kept.
        p.add_constraint(&ab, Relation::Le, 2.0 + 1e-9);
        let form = StandardForm::build(&p, None);
        assert_eq!(form.rows(), &[1, 3, 4, 5, 6, 8]);
        assert_eq!((form.m, form.n_total), (6, 9));
        assert_matches_dense(&p);

        // Every row can be dropped: the LP then has no rows at all.
        let mut p = Problem::new(Sense::Minimize);
        let a = p.binary();
        let b = p.binary();
        p.set_objective(a, 1.0);
        p.set_objective(b, -2.0);
        p.add_constraint(&[(a, 4.0), (b, 4.0)], Relation::Le, 9.0);
        assert_eq!(StandardForm::build(&p, None).rows(), &[] as &[usize]);
        assert_matches_dense(&p);

        // An Eq row stays even when its largest activity is below the rhs:
        // dropping it would hide that the problem is infeasible.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary();
        p.set_objective(a, 1.0);
        p.add_constraint(&[(a, 1.0)], Relation::Eq, 3.0);
        assert_eq!(StandardForm::build(&p, None).rows(), &[0]);
        assert_eq!(solve(&p, &[]), LpResult::Infeasible);
    }

    #[test]
    fn bases_map_between_problem_and_presolved_coordinates() {
        use Status::{Basic as B, Lower as L, Upper as U};
        // Row 0 never binds; at the optimum (a = 1, b = 0.5) row 1 binds
        // and row 2 does not, so row 2's slack is basic.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary();
        let b = p.binary();
        p.set_objective(a, 3.0);
        p.set_objective(b, 2.0);
        p.add_constraint(&[(a, 1.0), (b, 3.0)], Relation::Le, 5.0);
        p.add_constraint(&[(a, 2.0), (b, 2.0)], Relation::Le, 3.0);
        p.add_constraint(&[(a, 1.0), (b, 1.0)], Relation::Le, 1.8);
        let form = StandardForm::build(&p, None);
        assert_eq!(form.rows(), &[1, 2]);
        let (LpResult::Optimal(_), Some(lp)) = form.relaxation(&p, &[]) else {
            panic!("optimal with a storable basis")
        };
        // Problem columns: a, b, then the slacks of rows 0, 1 and 2. The
        // dropped row's slack follows the LP's basic columns.
        let stored = form.expand(&lp);
        assert_eq!(stored.basic, vec![1, 4, 2]);
        assert_eq!(stored.status, vec![U, B, B, L, B]);
        assert_eq!(form.restrict(&stored), Some(lp));

        // A stored basis with row 0's slack nonbasic keeps the row ...
        let bound = Basis {
            basic: vec![1, 0, 4],
            status: vec![B, B, L, L, B],
        };
        let keeping = StandardForm::build(&p, Some(&bound));
        assert_eq!(keeping.rows(), &[0, 1, 2]);
        assert!(keeping.restrict(&bound).is_some());
        // ... and a form that dropped the row rejects it.
        assert_eq!(form.restrict(&bound), None);
    }
}
