//! A from-scratch 0/1 integer linear programming solver.
//!
//! The paper solves its SPM allocation/prefetch formulation with Gurobi;
//! this crate is the reproduction's substitute. The hot path is a *sparse
//! revised simplex* over a compressed-sparse-column standard form
//! ([`revised`]) — bounded variables handled implicitly (no upper-bound
//! rows), an `m x m` basis inverse instead of a full tableau, and
//! warm-startable bases — under best-first branch & bound ([`solver`]) that
//! reoptimizes every child node from its parent's basis with a few dual
//! simplex pivots, prunes against a caller-seeded incumbent, and falls back
//! to greedy rounding so compilation always terminates. A [`SolverContext`]
//! carries optimal bases *between* solves, so sweeps over capacities or
//! budgets (same constraint structure, different right-hand sides) become
//! cheap reoptimizations. [`Solver::solve`] is the one entry point: every
//! solve goes through a context, and a one-off solve passes a fresh one.
//! The original dense tableau lives on in [`dense`] as the property-test
//! oracle of [`solve_relaxation`].
//!
//! # Quick start
//!
//! ```
//! use smart_ilp::{Problem, Relation, Sense, Solver, SolverContext};
//!
//! // Knapsack: max 10a + 6b + 4c  s.t.  5a + 4b + 3c <= 7.
//! let mut p = Problem::new(Sense::Maximize);
//! let a = p.binary("a");
//! let b = p.binary("b");
//! let c = p.binary("c");
//! p.set_objective(a, 10.0);
//! p.set_objective(b, 6.0);
//! p.set_objective(c, 4.0);
//! p.add_constraint(&[(a, 5.0), (b, 4.0), (c, 3.0)], Relation::Le, 7.0);
//!
//! let solution = Solver::new().solve(&p, &SolverContext::new())?;
//! assert!((solution.objective - 10.0).abs() < 1e-6);
//! # Ok::<(), smart_ilp::SmartError>(())
//! ```
//!
//! Sweep-style callers share one [`SolverContext`] so adjacent solves
//! warm-start from each other's bases:
//!
//! ```
//! use smart_ilp::{Problem, Relation, Sense, Solver, SolverContext};
//!
//! let ctx = SolverContext::new();
//! for capacity in [7.0, 6.0, 5.0] {
//!     let mut p = Problem::new(Sense::Maximize);
//!     let a = p.binary("a");
//!     let b = p.binary("b");
//!     p.set_objective(a, 10.0);
//!     p.set_objective(b, 6.0);
//!     p.add_constraint(&[(a, 5.0), (b, 4.0)], Relation::Le, capacity);
//!     Solver::new().solve(&p, &ctx)?;
//! }
//! assert!(ctx.stats().warm_attempts >= 2);
//! # Ok::<(), smart_ilp::SmartError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod context;
pub mod dense;
pub mod problem;
pub mod revised;
pub mod simplex;
pub mod solver;

pub use context::{SolverContext, SolverContextStats};
pub use problem::{Problem, Relation, Sense, VarId};
pub use revised::Basis;
pub use simplex::{solve_relaxation, LpResult, LpSolution};
pub use smart_units::{Result, SmartError};
pub use solver::{MipSolution, Solver};
