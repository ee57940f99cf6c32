//! Branch & bound over the LP relaxation, with warm-started node solves,
//! incumbent seeding, and a greedy-rounding fallback.
//!
//! Best-first search on the most-fractional integer variable. The presolved
//! sparse standard form is built **once** per solve, and one LP workspace
//! solves the root and every node; each node only overrides variable
//! bounds (its pins) and warm-starts the dual simplex from its parent's
//! optimal basis, so a child LP typically reoptimizes in a handful of
//! pivots instead of a cold two-phase solve. A node is pruned when its
//! bound does not beat the incumbent by more than the integrality
//! tolerance. A caller-supplied incumbent ([`Solver::with_incumbent`] —
//! e.g. the compiler's greedy allocation) seeds that pruning from node
//! zero. Every solve goes through a [`SolverContext`] ([`Solver::solve`]),
//! which memoizes whole solutions, warm-starts root relaxations and counts
//! the work.
//!
//! The node limit bounds runtime; if it is hit with an incumbent, the
//! incumbent is returned flagged as near-optimal (the paper's compiler is
//! itself only "near-optimal", Sec. 4.3); if no incumbent exists, a greedy
//! rounding repair pass is attempted.

// lint:allow-file(index, branch-and-bound indexes variable arrays sized by the formulation)

use crate::context::{solution_key, SolverContext, SolverContextStats};
use crate::problem::{Problem, Relation, Sense};
use crate::revised::{binding_rows, Lp, SolveOutcome, StandardForm, Warm};
use smart_trace::Lane;
use smart_units::{Result, SmartError};
use std::collections::BinaryHeap;
use std::sync::Arc;

pub(crate) const INT_TOL: f64 = 1e-6;

/// An integer-feasible solution.
#[derive(Debug, Clone, PartialEq)]
pub struct MipSolution {
    /// Objective value.
    pub objective: f64,
    /// Variable values in declaration order.
    pub values: Vec<f64>,
    /// Branch & bound nodes explored. A solution replayed from a
    /// [`SolverContext`]'s memo reports the nodes of the search it replays,
    /// which may have solved a problem with other never-binding rows.
    pub nodes: usize,
    /// `true` when branch & bound proved this solution optimal; `false`
    /// when the node limit stopped the search or the greedy repair pass
    /// produced it.
    pub proven_optimal: bool,
}

impl MipSolution {
    /// Value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn value(&self, var: crate::problem::VarId) -> f64 {
        self.values[var.index()]
    }
}

/// Branch & bound solver.
#[derive(Debug, Clone)]
pub struct Solver {
    node_limit: usize,
    warm_start: bool,
    seed: Option<Vec<f64>>,
}

impl Solver {
    /// Creates a solver with the default node limit (20 000) and
    /// warm-started node relaxations.
    #[must_use]
    pub fn new() -> Self {
        Self {
            node_limit: 20_000,
            warm_start: true,
            seed: None,
        }
    }

    /// Overrides the node limit.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    #[must_use]
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        assert!(limit > 0, "node limit must be positive");
        self.node_limit = limit;
        self
    }

    /// Disables (or re-enables) warm-starting child relaxations from the
    /// parent's basis. Cold mode exists for A/B verification — the property
    /// suite asserts warm and cold searches reach the same objective.
    #[must_use]
    pub fn with_warm_start(mut self, warm: bool) -> Self {
        self.warm_start = warm;
        self
    }

    /// Seeds the search with a known feasible point (variable values in
    /// declaration order) whose objective becomes the initial best bound.
    ///
    /// The seed is validated against bounds, integrality, and constraints;
    /// an invalid seed is silently ignored (the search then starts with no
    /// incumbent, exactly as without a seed). The compiler seeds its greedy
    /// allocation here, so branch & bound starts pruning immediately and a
    /// node-limited search can never return something worse than greedy.
    #[must_use]
    pub fn with_incumbent(mut self, values: Vec<f64>) -> Self {
        self.seed = Some(values);
        self
    }

    /// Solves the problem through `ctx`. A solve whose search would repeat
    /// an earlier one (same variables, objective, rows that can bind,
    /// validated seed, and configuration; rows that can never bind may
    /// differ) replays from the context's solution memo; otherwise the
    /// root relaxation warm-starts from the basis of the last structurally
    /// identical problem, which makes sweeps over right-hand sides
    /// (capacities, budgets) reoptimizations instead of cold solves.
    /// One-off callers pass `&SolverContext::new()`.
    ///
    /// # Errors
    ///
    /// [`SmartError::Infeasible`] when no integer-feasible point exists and
    /// [`SmartError::Unbounded`] when the relaxation is unbounded.
    pub fn solve(&self, problem: &Problem, ctx: &SolverContext) -> Result<MipSolution> {
        // An invalid seed is ignored, so the search starts exactly as
        // without one.
        let seed = self
            .seed
            .as_deref()
            .and_then(|vals| Some((vals, validate_seed(problem, vals)?)));
        // Solution memo: branch & bound is deterministic and sees neither
        // the rows the presolve drops nor a rejected seed, so a solve whose
        // key matches an earlier one replays that search's solution —
        // objective, values, node count, and optimality flag — without
        // touching the tree. This is the path that makes warm
        // `--cache-dir` reruns of ILP-heavy experiments near-free. A
        // stored solution replays only if it is a feasible point of this
        // problem (a store file can hold one of the wrong length);
        // otherwise the search runs and overwrites it. One bit-identical
        // to the seed, which the key covers, is the point validated above.
        // The key and the presolve read one mask of the rows that can bind.
        let binding = binding_rows(problem);
        let seed_values = seed.map(|(vals, _)| vals);
        let memo_key = solution_key(
            problem,
            &binding,
            seed_values,
            self.node_limit,
            self.warm_start,
        );
        let feasible = |s: &MipSolution| {
            seed_values.is_some_and(|vals| same_bits(vals, &s.values))
                || validate_seed(problem, &s.values).is_some()
        };
        if let Some(sol) = ctx.solution_lookup(memo_key, feasible) {
            return Ok(MipSolution::clone(&sol));
        }
        // Per-solve trace lane, keyed by the solution memo key so
        // concurrent searches of problems the memo tells apart never
        // interleave on one lane. Virtual time is cumulative simplex pivots within this
        // solve; memo-hit replays above emit nothing (no pivots spent).
        let tracer = ctx.tracer();
        let lane = tracer
            .is_enabled()
            .then(|| tracer.lane(&format!("ilp/{memo_key:032x}")));
        if let Some(l) = &lane {
            l.begin("solve", 0);
        }
        let mut work = SolverContextStats::default();
        let result = self.search(problem, &binding, seed, ctx, lane.as_ref(), &mut work);
        ctx.note_search(work);
        if let Some(l) = &lane {
            l.end("solve", work.pivots);
        }
        if let Ok(s) = &result {
            ctx.solution_store(memo_key, Arc::new(s.clone()));
        }
        result
    }

    /// The branch & bound search behind [`Solver::solve`] from the
    /// validated `seed` (values and objective), over the rows `binding`
    /// marks and the ones a stored basis keeps; counts its work, start
    /// mode included, in `work`, on every exit.
    fn search(
        &self,
        problem: &Problem,
        binding: &[bool],
        seed: Option<(&[f64], f64)>,
        ctx: &SolverContext,
        lane: Option<&Lane>,
        work: &mut SolverContextStats,
    ) -> Result<MipSolution> {
        let int_vars = problem.integer_vars();
        let sign = match problem.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };

        let mut incumbent: Option<MipSolution> = seed.map(|(values, objective)| MipSolution {
            objective,
            values: values.to_vec(),
            nodes: 0,
            proven_optimal: false,
        });

        // Root relaxation, warm-started from the context when a basis for
        // this problem structure is stored. The form is presolved after the
        // lookup, so it keeps every row the stored basis has bound; a
        // stored basis that does not fit is rejected and the root solves
        // cold. One LP workspace lives for the whole search: dives into
        // child nodes reuse its installed factorization (`Warm::Live`).
        // The root and every node solve the form the integer presolve
        // strengthened, which closes most of the gap between the
        // relaxation and the integer optimum before any branching.
        let fp = problem.digests().fingerprint;
        let stored = ctx.lookup(fp);
        let mut form = StandardForm::presolved(problem, binding, stored.as_deref());
        *work += form.tighten(problem);
        work.cols = problem.num_vars() as u64;
        work.nonzeros = problem.num_nonzeros() as u64;
        (work.rows, work.rows_kept) = (problem.num_constraints() as u64, form.m as u64);
        let mut lp = Lp::new(&form);
        let restricted = stored.and_then(|b| form.restrict(&b));
        let root_warm = restricted.as_ref().map_or(Warm::Cold, Warm::Basis);
        let (root_outcome, warm_held) = lp.solve_pinned(problem, &[], root_warm, true);
        (work.warm_hits, work.cold_solves) = (u64::from(warm_held), u64::from(!warm_held));
        lp.count_work(work);
        if let Some(l) = lane {
            l.span("root relaxation", 0, work.pivots);
        }
        let (root_values, root_objective, root_basis) = match root_outcome {
            SolveOutcome::Optimal {
                values,
                objective,
                basis,
            } => (values, objective, basis),
            // A validated seed proves feasibility; trust it over a
            // numerically confused relaxation.
            SolveOutcome::Infeasible => {
                return incumbent.ok_or_else(|| SmartError::infeasible("integer program"))
            }
            SolveOutcome::Unbounded => return Err(unbounded()),
        };
        if let Some(b) = root_basis {
            ctx.store(fp, Arc::new(form.expand(&b)));
        }

        #[derive(Debug)]
        struct Node {
            bound: f64, // objective * sign (higher = more promising)
            /// Compact branching decisions `(variable, pinned value)` on
            /// the path from the root.
            pins: Vec<(usize, f64)>,
        }
        impl PartialEq for Node {
            fn eq(&self, other: &Self) -> bool {
                self.bound == other.bound
            }
        }
        impl Eq for Node {}
        impl PartialOrd for Node {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Node {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.bound.total_cmp(&other.bound)
            }
        }

        let mut heap = BinaryHeap::new();
        // The dive slot: the child processed immediately after its parent.
        // Within one search the objective never changes, so the live
        // workspace basis stays *dual feasible* for every node — dives and
        // heap pops alike reoptimize from it with a few dual simplex
        // pivots and no refactorization.
        let mut dive: Option<Node> = Some(Node {
            bound: root_objective * sign,
            pins: Vec::new(),
        });

        // Check the limit before taking a node: discarding a popped-but-
        // unexplored node would leave the search empty and misclassify the
        // incumbent as proven optimal below.
        while work.nodes < self.node_limit as u64 {
            let node = match dive.take() {
                Some(node) => node,
                None => match heap.pop() {
                    Some(node) => node,
                    None => break,
                },
            };
            // Best-bound pruning.
            if let Some(inc) = &incumbent {
                if node.bound <= inc.objective * sign + INT_TOL {
                    continue;
                }
            }
            work.nodes += 1;
            let warm = if self.warm_start && lp.live_available() {
                Warm::Live
            } else {
                Warm::Cold
            };
            let node_t0 = work.pivots;
            let (outcome, _) = lp.solve_pinned(problem, &node.pins, warm, false);
            lp.count_work(work);
            if let Some(l) = lane {
                l.span(&format!("node {}", work.nodes), node_t0, work.pivots);
            }
            let (values, objective) = match outcome {
                SolveOutcome::Optimal {
                    values, objective, ..
                } => (values, objective),
                SolveOutcome::Infeasible => continue,
                SolveOutcome::Unbounded => return Err(unbounded()),
            };
            if let Some(inc) = &incumbent {
                if objective * sign <= inc.objective * sign + INT_TOL {
                    continue;
                }
            }

            // Branching variable: among fractional integer variables,
            // weight fractionality by the objective coefficient — driving
            // the heaviest undecided placement to a bound degrades the
            // child bounds fastest, which is what best-bound pruning
            // feeds on.
            let frac_var = int_vars
                .iter()
                .map(|&v| {
                    let frac = (values[v.index()] - values[v.index()].round()).abs();
                    (
                        v,
                        frac,
                        frac * problem.variables()[v.index()].objective.abs().max(1.0),
                    )
                })
                .filter(|(_, f, _)| *f > INT_TOL)
                .max_by(|a, b| a.2.total_cmp(&b.2))
                .map(|(v, f, _)| (v, f));

            match frac_var {
                None => {
                    // Integer feasible.
                    let better = incumbent
                        .as_ref()
                        .is_none_or(|inc| objective * sign > inc.objective * sign + INT_TOL);
                    if better {
                        incumbent = Some(MipSolution {
                            objective,
                            values,
                            nodes: work.nodes as usize,
                            proven_optimal: false,
                        });
                    }
                }
                Some((v, _)) => {
                    let val = values[v.index()];
                    // Dive toward the nearer integer; the sibling waits on
                    // the heap.
                    let (first, second) = if val - val.floor() >= 0.5 {
                        (val.ceil(), val.floor())
                    } else {
                        (val.floor(), val.ceil())
                    };
                    let mut dive_pins = node.pins.clone();
                    dive_pins.push((v.index(), first));
                    let mut sibling_pins = node.pins;
                    sibling_pins.push((v.index(), second));
                    dive = Some(Node {
                        bound: objective * sign,
                        pins: dive_pins,
                    });
                    heap.push(Node {
                        bound: objective * sign,
                        pins: sibling_pins,
                    });
                }
            }
        }

        work.node_limited = u64::from(dive.is_some() || !heap.is_empty());
        match incumbent {
            Some(mut s) => {
                s.nodes = work.nodes as usize;
                s.proven_optimal = work.node_limited == 0;
                Ok(s)
            }
            // Greedy fallback: round the root relaxation and check.
            None => greedy_round(problem, &root_values, work.nodes as usize)
                .ok_or_else(|| SmartError::infeasible("integer program")),
        }
    }
}

/// The error of an integer program whose relaxation is unbounded.
fn unbounded() -> SmartError {
    SmartError::unbounded("integer program relaxation")
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

/// Validates a seed incumbent: bounds, integrality of integer variables,
/// and every constraint within a scaled tolerance. Returns the recomputed
/// objective on success.
fn validate_seed(problem: &Problem, values: &[f64]) -> Option<f64> {
    if values.len() != problem.num_vars() {
        return None;
    }
    for (i, v) in problem.variables().iter().enumerate() {
        let x = values[i];
        if !x.is_finite() || x < v.lower - INT_TOL || x > v.upper + INT_TOL {
            return None;
        }
        if v.integer && (x - x.round()).abs() > INT_TOL {
            return None;
        }
    }
    for c in problem.constraints() {
        let lhs: f64 = c.terms.iter().map(|(v, k)| k * values[v.index()]).sum();
        let tol = 1e-6 * (1.0 + c.rhs.abs());
        let ok = match c.relation {
            Relation::Le => lhs <= c.rhs + tol,
            Relation::Ge => lhs >= c.rhs - tol,
            Relation::Eq => (lhs - c.rhs).abs() <= tol,
        };
        if !ok {
            return None;
        }
    }
    Some(
        problem
            .variables()
            .iter()
            .enumerate()
            .map(|(i, v)| v.objective * values[i])
            .sum(),
    )
}

/// Whether `a` and `b` hold the same values, bit for bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Rounds integer variables of an LP point and repairs feasibility by
/// flipping binaries greedily (switching offenders to zero). Returns
/// `None` if the repair fails.
fn greedy_round(problem: &Problem, lp_values: &[f64], nodes: usize) -> Option<MipSolution> {
    let mut values = lp_values.to_vec();
    for v in problem.integer_vars() {
        values[v.index()] = values[v.index()].round();
    }
    // Repair loop: while some constraint is violated, zero out the binary
    // with the largest contribution to the violation.
    for _ in 0..problem.num_vars() + 1 {
        let mut violated = None;
        for c in problem.constraints() {
            let lhs: f64 = c.terms.iter().map(|(v, k)| k * values[v.index()]).sum();
            let bad = match c.relation {
                Relation::Le => lhs > c.rhs + 1e-6,
                Relation::Ge => lhs < c.rhs - 1e-6,
                Relation::Eq => (lhs - c.rhs).abs() > 1e-6,
            };
            if bad {
                violated = Some(c);
                break;
            }
        }
        let Some(c) = violated else {
            let objective = problem
                .variables()
                .iter()
                .enumerate()
                .map(|(i, v)| v.objective * values[i])
                .sum();
            return Some(MipSolution {
                objective,
                values,
                nodes,
                proven_optimal: false,
            });
        };
        // Flip the binary with the largest |coefficient| that is currently 1
        // (for Le) or 0 (for Ge).
        let want_zero = matches!(c.relation, Relation::Le | Relation::Eq);
        let candidate = c
            .terms
            .iter()
            .filter(|(v, _)| problem.variables()[v.index()].integer)
            .filter(|(v, _)| {
                let x = values[v.index()];
                if want_zero {
                    x > 0.5
                } else {
                    x < 0.5
                }
            })
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()));
        let (v, _) = candidate?;
        values[v.index()] = if want_zero { 0.0 } else { 1.0 };
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Relation, Sense, VarId};

    /// Solves `p` with `solver` through a fresh context.
    fn solve_once(solver: Solver, p: &Problem) -> Result<MipSolution> {
        solver.solve(p, &SolverContext::new())
    }

    #[test]
    fn knapsack_integer_optimum() {
        // max 10a + 6b + 4c s.t. 5a + 4b + 3c <= 7 => a=0,b=1,c=1: 10 vs
        // a=1: 10 (5 used, nothing else fits but c? 5+3=8>7). a+c infeasible.
        // Optimal: b+c = 10 or a alone = 10: both 10.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary();
        let b = p.binary();
        let c = p.binary();
        p.set_objective(a, 10.0);
        p.set_objective(b, 6.0);
        p.set_objective(c, 4.0);
        p.add_constraint(&[(a, 5.0), (b, 4.0), (c, 3.0)], Relation::Le, 7.0);
        let s = solve_once(Solver::new(), &p).expect("solution");
        assert!((s.objective - 10.0).abs() < 1e-6, "z = {}", s.objective);
        // Solution is integral.
        for v in &s.values {
            assert!((v - v.round()).abs() < 1e-6);
        }
    }

    #[test]
    fn branching_beats_rounding() {
        // max 9a + 9b + 16c s.t. 5a + 5b + 8c <= 10: LP picks c + fractional;
        // integer optimum is a + b = 18.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary();
        let b = p.binary();
        let c = p.binary();
        p.set_objective(a, 9.0);
        p.set_objective(b, 9.0);
        p.set_objective(c, 16.0);
        p.add_constraint(&[(a, 5.0), (b, 5.0), (c, 8.0)], Relation::Le, 10.0);
        let s = solve_once(Solver::new(), &p).expect("solution");
        assert!((s.objective - 18.0).abs() < 1e-6, "z = {}", s.objective);
        assert!(s.proven_optimal);
    }

    #[test]
    fn assignment_problem() {
        // 2x2 assignment: costs [[1, 10], [10, 1]]; minimize.
        let mut p = Problem::new(Sense::Minimize);
        let x00 = p.binary();
        let x01 = p.binary();
        let x10 = p.binary();
        let x11 = p.binary();
        p.set_objective(x00, 1.0);
        p.set_objective(x01, 10.0);
        p.set_objective(x10, 10.0);
        p.set_objective(x11, 1.0);
        for row in [[x00, x01], [x10, x11]] {
            p.add_constraint(&[(row[0], 1.0), (row[1], 1.0)], Relation::Eq, 1.0);
        }
        for col in [[x00, x10], [x01, x11]] {
            p.add_constraint(&[(col[0], 1.0), (col[1], 1.0)], Relation::Eq, 1.0);
        }
        let s = solve_once(Solver::new(), &p).expect("solution");
        assert!((s.objective - 2.0).abs() < 1e-6);
        assert!((s.value(x00) - 1.0).abs() < 1e-6);
        assert!((s.value(x11) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn try_solve_knapsack_that_must_branch() {
        // max 9a + 9b + 16c s.t. 5a + 5b + 8c <= 10: the LP relaxation is
        // fractional (c = 1, a = 0.2), so branch & bound must actually
        // branch to find the integer optimum a + b = 18.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary();
        let b = p.binary();
        let c = p.binary();
        p.set_objective(a, 9.0);
        p.set_objective(b, 9.0);
        p.set_objective(c, 16.0);
        p.add_constraint(&[(a, 5.0), (b, 5.0), (c, 8.0)], Relation::Le, 10.0);
        let s = solve_once(Solver::new(), &p).expect("feasible knapsack");
        assert!((s.objective - 18.0).abs() < 1e-6, "z = {}", s.objective);
        assert!(s.proven_optimal);
        assert!(
            s.nodes > 1,
            "must have branched, explored {} nodes",
            s.nodes
        );
    }

    #[test]
    fn presolve_proves_a_seeded_placement_optimal_at_the_root() {
        // A SHIFT-capacity row as the compiler writes it: objects of 25,764
        // and 9,000 bytes cannot fit 8,192 at all, and only one of three
        // 6,144-byte objects can. The plain relaxation packs fractions of
        // all of them (bound 7,782.4); fixing the oversized two at 0 and
        // rounding the rhs to 6,144 leaves `h2 + h3 + h4 <= 1`, whose bound
        // is the seed's objective, so the root closes with no node.
        let mut p = Problem::new(Sense::Maximize);
        let bytes = [25_764.0, 9_000.0, 6_144.0, 6_144.0, 6_144.0];
        let terms: Vec<(VarId, f64)> = bytes
            .iter()
            .map(|&b| {
                let h = p.binary();
                p.set_objective(h, 0.95 * b);
                (h, b)
            })
            .collect();
        p.add_constraint(&terms, Relation::Le, 8_192.0);
        let seed = vec![0.0, 0.0, 1.0, 0.0, 0.0];
        let ctx = SolverContext::new();
        let s = Solver::new()
            .with_incumbent(seed.clone())
            .solve(&p, &ctx)
            .expect("feasible");
        assert_eq!((s.values, s.nodes, s.proven_optimal), (seed, 0, true));
        let stats = ctx.stats();
        assert_eq!((stats.cols_fixed, stats.rows_rounded), (2, 1), "{stats:?}");
        assert_eq!(stats.node_limited, 0, "{stats:?}");
    }

    #[test]
    fn node_limit_never_claims_optimality_with_open_nodes() {
        // With a node limit too small to finish the search, the solver must
        // not report proven optimality: open nodes remain on the heap (a
        // popped-but-unexplored node must not be discarded).
        let p = branchy_knapsack();
        for limit in 1..4 {
            let ctx = SolverContext::new();
            let r = Solver::new().with_node_limit(limit).solve(&p, &ctx);
            if let Ok(s) = r {
                assert!(!s.proven_optimal, "limit {limit}");
            }
            assert_eq!(ctx.stats().node_limited, 1, "limit {limit}");
        }
        // A generous limit does prove optimality.
        let ctx = SolverContext::new();
        let s = Solver::new().solve(&p, &ctx).expect("feasible");
        assert!(s.proven_optimal && (s.objective - 18.0).abs() < 1e-6);
        assert_eq!(ctx.stats().node_limited, 0);
    }

    #[test]
    fn try_solve_reports_infeasible() {
        // Two binaries cannot sum to 3: Err(Infeasible), not a panic.
        let err = solve_once(Solver::new(), &unsatisfiable()).unwrap_err();
        assert!(matches!(err, SmartError::Infeasible { .. }), "{err}");
    }

    #[test]
    fn try_solve_reports_unbounded() {
        // A free continuous variable with positive objective and no upper
        // bound: Err(Unbounded), not a panic.
        let err = solve_once(Solver::new(), &unbounded_relaxation()).unwrap_err();
        assert!(matches!(err, SmartError::Unbounded { .. }), "{err}");
    }

    #[test]
    fn failed_searches_count_their_work() {
        // Both searches end at the root relaxation, which starts cold: the
        // infeasible one flips both binaries to their upper bounds, the
        // unbounded one flips the binary before `y` can grow without
        // bound. No compiler solve gets here: each has a feasible seed.
        for (p, bound_flips) in [(unsatisfiable(), 2), (unbounded_relaxation(), 1)] {
            let ctx = SolverContext::new();
            assert!(Solver::new().solve(&p, &ctx).is_err());
            let expected = SolverContextStats {
                cold_solves: 1,
                bound_flips,
                rows: 1,
                rows_kept: 1,
                cols: 2,
                nonzeros: 2,
                ..SolverContextStats::default()
            };
            assert_eq!(ctx.stats(), expected);
        }
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 3a + y s.t. a + y <= 2.5, y <= 2 (a binary, y continuous):
        // a = 1, y = 1.5 => 4.5.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary();
        let y = p.continuous(0.0, 2.0);
        p.set_objective(a, 3.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(a, 1.0), (y, 1.0)], Relation::Le, 2.5);
        let s = solve_once(Solver::new(), &p).expect("solution");
        assert!((s.objective - 4.5).abs() < 1e-6, "z = {}", s.objective);
    }

    #[test]
    fn node_limit_returns_feasible() {
        // A problem big enough to hit a 1-node limit after the root: the
        // solver should still produce something via incumbent or greedy.
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..12).map(|_| p.binary()).collect();
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective(v, 1.0 + (i as f64) * 0.1);
        }
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(&terms, Relation::Le, 6.0);
        let r = solve_once(Solver::new().with_node_limit(1), &p);
        assert!(r.is_ok(), "{r:?}");
    }

    #[test]
    fn larger_cover_problem_solves() {
        // Select minimum-weight cover: 20 binaries, pair constraints.
        let mut p = Problem::new(Sense::Minimize);
        let vars: Vec<_> = (0..20).map(|_| p.binary()).collect();
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective(v, 1.0 + f64::from(u32::try_from(i % 3).unwrap()));
        }
        for i in 0..19 {
            p.add_constraint(&[(vars[i], 1.0), (vars[i + 1], 1.0)], Relation::Ge, 1.0);
        }
        let s = solve_once(Solver::new(), &p).expect("solution");
        // A valid vertex cover of a path of 20 nodes needs >= 9 nodes.
        let chosen = s.values.iter().filter(|&&v| v > 0.5).count();
        assert!(chosen >= 9);
    }

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

    /// `max a + y` over a binary `a` and `y >= 0` with no upper bound, with
    /// `a + y >= 0`: the relaxation is unbounded.
    fn unbounded_relaxation() -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary();
        let y = p.continuous(0.0, f64::INFINITY);
        p.set_objective(a, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(a, 1.0), (y, 1.0)], Relation::Ge, 0.0);
        p
    }

    /// Two binaries that would have to sum to 3: even the relaxation is
    /// infeasible.
    fn unsatisfiable() -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary();
        let b = p.binary();
        p.set_objective(a, 1.0);
        p.add_constraint(&[(a, 1.0), (b, 1.0)], Relation::Ge, 3.0);
        p
    }

    #[test]
    fn warm_and_cold_searches_agree() {
        let p = branchy_knapsack();
        let warm = solve_once(Solver::new(), &p).expect("warm");
        let cold = solve_once(Solver::new().with_warm_start(false), &p).expect("cold");
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        assert!(warm.proven_optimal && cold.proven_optimal);
    }

    #[test]
    fn seeded_incumbent_prunes_and_is_never_lost() {
        let p = branchy_knapsack();
        // Optimal seed: the search only has to prove it.
        let s =
            solve_once(Solver::new().with_incumbent(vec![1.0, 1.0, 0.0]), &p).expect("feasible");
        assert!((s.objective - 18.0).abs() < 1e-9);
        assert!(s.proven_optimal);
        // Suboptimal seed: the search must still find the optimum.
        let s =
            solve_once(Solver::new().with_incumbent(vec![0.0, 0.0, 1.0]), &p).expect("feasible");
        assert!((s.objective - 18.0).abs() < 1e-6);
        // With a 1-node limit and a seed, the seed survives.
        let s = solve_once(
            Solver::new()
                .with_incumbent(vec![0.0, 0.0, 1.0])
                .with_node_limit(1),
            &p,
        )
        .expect("seed survives");
        assert!(s.objective >= 16.0 - 1e-9);
    }

    #[test]
    fn invalid_seed_is_ignored() {
        let p = branchy_knapsack();
        for bad in [
            vec![1.0, 1.0, 1.0],      // violates the capacity
            vec![0.5, 0.0, 0.0],      // fractional binary
            vec![2.0, 0.0, 0.0],      // out of bounds
            vec![1.0, 1.0],           // wrong arity
            vec![f64::NAN, 0.0, 0.0], // non-finite
        ] {
            let s = solve_once(Solver::new().with_incumbent(bad.clone()), &p).expect("solvable");
            assert!(
                (s.objective - 18.0).abs() < 1e-6,
                "seed {bad:?} corrupted the search: {}",
                s.objective
            );
        }
    }

    /// A maximization over binaries with the given objective coefficients.
    fn with_objective(coefficients: &[f64]) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        for &c in coefficients {
            let v = p.binary();
            p.set_objective(v, c);
        }
        p
    }

    #[test]
    fn a_near_tie_above_the_tolerance_is_not_pruned() {
        // x = 1 beats the seed y = 1 by 0.05, far above INT_TOL but tiny
        // against the coefficients: a pruning margin scaled to them would
        // cut x off and call the seed optimal.
        let mut p = with_objective(&[1e8 + 0.05, 1e8]);
        p.add_constraint(&[(VarId(0), 1.0), (VarId(1), 1.0)], Relation::Le, 1.0);
        for solver in [Solver::new(), Solver::new().with_incumbent(vec![0.0, 1.0])] {
            let s = solve_once(solver, &p).expect("feasible");
            assert_eq!((s.value(VarId(0)), s.value(VarId(1))), (1.0, 0.0));
            assert!(s.proven_optimal);
        }
    }

    #[test]
    fn identical_solve_replays_from_the_memo() {
        let p = branchy_knapsack();
        let ctx = SolverContext::new();
        let first = Solver::new().solve(&p, &ctx).expect("feasible");
        let solved = ctx.stats();
        assert!(solved.nodes > 0 && solved.pivots > 0, "{solved:?}");
        let second = Solver::new().solve(&p, &ctx).expect("feasible");
        assert_eq!(first, second);
        let replayed = ctx.stats();
        assert_eq!(replayed.solution_hits, solved.solution_hits + 1);
        assert_eq!(replayed.nodes, solved.nodes, "no node explored");
        assert_eq!(replayed.pivots, solved.pivots, "no pivot spent");
        assert_eq!(replayed.cold_solves, solved.cold_solves, "no cold solve");
        // A seed that fails validation is ignored, so it is no seed.
        let ignored = Solver::new()
            .with_incumbent(vec![1.0, 1.0, 1.0])
            .solve(&p, &ctx)
            .expect("feasible");
        assert_eq!(first, ignored);
        let replayed = ctx.stats();
        assert_eq!(replayed.solution_hits, solved.solution_hits + 2);

        // The seed and the node limit are part of the key: either one
        // changed is a different solve.
        Solver::new()
            .with_incumbent(vec![0.0, 0.0, 1.0])
            .solve(&p, &ctx)
            .expect("feasible");
        Solver::new()
            .with_node_limit(1)
            .solve(&p, &ctx)
            .expect("greedy repair");
        let missed = ctx.stats();
        assert_eq!(missed.solution_hits, replayed.solution_hits);
        assert_eq!(missed.stored_solutions, 3);
        assert!(missed.nodes > replayed.nodes, "{missed:?}");

        // An infeasible problem stores nothing, so a retry solves again.
        let ctx = SolverContext::new();
        for _ in 0..2 {
            let err = Solver::new().solve(&unsatisfiable(), &ctx).unwrap_err();
            assert!(matches!(err, SmartError::Infeasible { .. }), "{err}");
        }
        let stats = ctx.stats();
        assert_eq!(stats.stored_solutions, 0, "{stats:?}");
        assert_eq!(stats.solution_hits, 0, "{stats:?}");
        assert_eq!(stats.cold_solves, 2, "{stats:?}");
    }

    #[test]
    fn context_reuses_bases_across_rhs_sweep() {
        // The same knapsack structure at shrinking capacities: every solve
        // after the first should warm-start from the stored basis.
        let ctx = SolverContext::new();
        let mut objectives = Vec::new();
        for cap in [10.0, 9.0, 8.0, 7.0] {
            let mut p = branchy_knapsack();
            p.set_rhs(0, cap);
            let s = Solver::new().solve(&p, &ctx).expect("feasible");
            objectives.push(s.objective);
        }
        // cap 10: a+b = 18; caps 9 and 8: c = 16; cap 7: a alone = 9.
        assert_eq!(objectives, vec![18.0, 16.0, 16.0, 9.0]);
        let stats = ctx.stats();
        assert_eq!(stats.stored_bases, 1, "one structure, one stored basis");
        assert!(
            stats.warm_attempts >= 3,
            "later sweep points warm-start: {stats:?}"
        );
        assert!(stats.warm_hits >= 1, "{stats:?}");
    }

    #[test]
    fn sweep_across_a_row_that_stops_binding_warm_starts_every_point() {
        // The capacity row binds below 18 (= 5 + 5 + 8) and can never bind
        // above it, so the presolve keeps or drops it from point to point;
        // the stored basis, in problem coordinates, fits every form. Above
        // 18 the capacity changes nothing the search sees: caps 20, 25, 30
        // and 40 are one problem, searched once and then replayed.
        let ctx = SolverContext::new();
        let caps = [10.0, 20.0, 25.0, 9.0, 30.0, 40.0, 7.0];
        for cap in caps {
            let mut p = branchy_knapsack();
            p.set_rhs(0, cap);
            p.add_constraint(&[(VarId(0), 1.0), (VarId(1), 1.0)], Relation::Le, 1.0);
            let shared = Solver::new().solve(&p, &ctx).expect("feasible");
            let fresh = solve_once(Solver::new(), &p).expect("feasible");
            assert_eq!(shared.objective, fresh.objective, "cap {cap}");
        }
        let stats = ctx.stats();
        assert_eq!(stats.cold_solves, 1, "{stats:?}");
        assert_eq!((stats.warm_attempts, stats.warm_hits), (3, 3), "{stats:?}");
        assert_eq!(stats.solution_hits, 3, "caps 25, 30 and 40: {stats:?}");
        // Caps 10, 20, 9 and 7 search. Cap 20 keeps the droppable row too:
        // the basis stored at cap 10 has it bound.
        assert_eq!((stats.rows, stats.rows_kept), (8, 8), "{stats:?}");
    }

    #[test]
    fn context_solutions_match_contextless_solutions() {
        let ctx = SolverContext::new();
        for cap in [10.0, 7.0, 12.0, 5.0] {
            let mut p = branchy_knapsack();
            p.set_rhs(0, cap);
            let shared = Solver::new().solve(&p, &ctx).expect("feasible");
            let fresh = solve_once(Solver::new(), &p).expect("feasible");
            assert!(
                (shared.objective - fresh.objective).abs() < 1e-9,
                "cap {cap}: {} vs {}",
                shared.objective,
                fresh.objective
            );
            assert_eq!(shared.proven_optimal, fresh.proven_optimal, "cap {cap}");
        }
    }
}
