//! Linear/integer program description.
//!
//! A [`Problem`] is built incrementally: declare variables (binary or
//! bounded continuous), set objective coefficients, and add linear
//! constraints. The solver consumes the finished problem.
//!
//! A problem is a *structure* (sense, variables with their objective,
//! and each row's relation and terms) plus one right-hand side per row.
//! Clones share the structure, and with it the digests the solver
//! derives from it once: the warm-start fingerprint, a content hash per
//! row and each row's extreme activities. A caller that solves one
//! structure at many right-hand sides builds it once and, per point,
//! clones it and sets the rows that differ ([`Problem::set_rhs`]).

// lint:allow-file(index, coefficient rows are sized to the variable count by the builder)

use smart_units::codec::content_hash;
use std::sync::{Arc, OnceLock};

/// Handle to a declared variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// Less than or equal.
    Le,
    /// Greater than or equal.
    Ge,
    /// Equal.
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub lower: f64,
    pub upper: f64,
    pub integer: bool,
    pub objective: f64,
}

/// One constraint row of a [`Structure`]: where its terms end in
/// [`Structure::terms`], and its relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    end: usize,
    relation: Relation,
}

/// One linear constraint `sum(coef * var) REL rhs` of a problem.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Constraint<'a> {
    pub terms: &'a [(VarId, f64)],
    pub relation: Relation,
    pub rhs: f64,
}

/// Everything of a problem but its right-hand sides, in flat arrays: a
/// structure can outlive many solves as a template, so it keeps no
/// allocation per variable or row.
#[derive(Debug, Clone)]
struct Structure {
    sense: Sense,
    variables: Vec<Variable>,
    /// Every variable's name, concatenated in declaration order.
    names: String,
    /// Where each variable's name ends in `names`.
    name_ends: Vec<usize>,
    /// Every row's terms, concatenated in row order.
    terms: Vec<(VarId, f64)>,
    rows: Vec<Row>,
    /// Derived on first use; every mutation resets it.
    digests: OnceLock<Digests>,
}

/// What the solver derives from a problem's structure. Computed once per
/// structure and shared by every clone, whatever its right-hand sides.
#[derive(Debug, Clone)]
pub(crate) struct Digests {
    /// The warm-start key: sense, variables (bounds, integrality,
    /// objective) and every row's relation and terms.
    pub fingerprint: u64,
    /// Content hash of the sense and the variables. Names are left out:
    /// they never influence a solve.
    pub variables: u128,
    /// One per row, in row order.
    pub rows: Vec<RowDigest>,
}

/// The right-hand-side-free facts of one row.
#[derive(Debug, Clone)]
pub(crate) struct RowDigest {
    /// Content hash of the relation and terms.
    pub hash: u128,
    /// The activity over the variable bounds that the relation bounds: the
    /// largest for `Le`, the smallest for `Ge` (the largest for `Eq`,
    /// where it is unused).
    pub extreme: f64,
    /// Largest |coefficient|.
    pub scale: f64,
}

impl Structure {
    /// The terms of row `i`.
    fn row_terms(&self, i: usize) -> &[(VarId, f64)] {
        let start = i.checked_sub(1).map_or(0, |j| self.rows[j].end);
        &self.terms[start..self.rows[i].end]
    }

    fn derive_digests(&self) -> Digests {
        let vars: Vec<u64> = self
            .variables
            .iter()
            .flat_map(|v| {
                let integer = u64::from(v.integer);
                [
                    v.lower.to_bits(),
                    v.upper.to_bits(),
                    integer,
                    v.objective.to_bits(),
                ]
            })
            .collect();
        let variables = content_hash(&(matches!(self.sense, Sense::Maximize), vars));
        let mut words = Vec::new();
        let rows: Vec<RowDigest> = (0..self.rows.len())
            .map(|i| self.row_digest(i, &mut words))
            .collect();
        let row_hashes: Vec<u128> = rows.iter().map(|r| r.hash).collect();
        Digests {
            // The low half of a content hash is a 64-bit one.
            fingerprint: content_hash(&(variables, row_hashes)) as u64,
            variables,
            rows,
        }
    }

    /// The digest of row `i`; `words` is scratch space for its terms.
    fn row_digest(&self, i: usize, words: &mut Vec<u64>) -> RowDigest {
        let row_terms = self.row_terms(i);
        let relation = self.rows[i].relation;
        words.clear();
        words.extend(
            row_terms
                .iter()
                .flat_map(|&(v, k)| [v.0 as u64, k.to_bits()]),
        );
        let largest = relation != Relation::Ge;
        let extreme = row_terms
            .iter()
            .map(|&(v, k)| {
                let var = &self.variables[v.0];
                let at_upper = if largest { k > 0.0 } else { k < 0.0 };
                k * if at_upper { var.upper } else { var.lower }
            })
            .sum();
        RowDigest {
            hash: content_hash(&(relation as u8, &words[..])),
            extreme,
            scale: row_terms
                .iter()
                .map(|(_, k)| k.abs())
                .fold(0.0f64, f64::max),
        }
    }
}

/// An integer/linear program under construction.
///
/// # Examples
///
/// ```
/// use smart_ilp::problem::{Problem, Relation, Sense};
///
/// // maximize 5x + 4y  s.t.  6x + 4y <= 24, x + 2y <= 6
/// let mut p = Problem::new(Sense::Maximize);
/// let x = p.continuous("x", 0.0, f64::INFINITY);
/// let y = p.continuous("y", 0.0, f64::INFINITY);
/// p.set_objective(x, 5.0);
/// p.set_objective(y, 4.0);
/// p.add_constraint(&[(x, 6.0), (y, 4.0)], Relation::Le, 24.0);
/// p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Le, 6.0);
/// assert_eq!(p.num_vars(), 2);
///
/// // The same structure with a looser first row shares everything but
/// // its right-hand sides with `p`.
/// let mut looser = p.clone();
/// looser.set_rhs(0, 30.0);
/// assert_ne!(looser, p);
/// ```
#[derive(Debug, Clone)]
pub struct Problem {
    /// Shared by clones until one of them changes it.
    structure: Arc<Structure>,
    /// The right-hand side of each row.
    rhs: Vec<f64>,
}

impl Problem {
    /// Creates an empty problem with the given sense.
    #[must_use]
    pub fn new(sense: Sense) -> Self {
        Self {
            structure: Arc::new(Structure {
                sense,
                variables: Vec::new(),
                names: String::new(),
                name_ends: Vec::new(),
                terms: Vec::new(),
                rows: Vec::new(),
                digests: OnceLock::new(),
            }),
            rhs: Vec::new(),
        }
    }

    /// The structure, unshared and with its digests reset, for a mutation.
    fn structure_mut(&mut self) -> &mut Structure {
        let s = Arc::make_mut(&mut self.structure);
        s.digests.take();
        s
    }

    /// Declares a binary (0/1) variable.
    pub fn binary(&mut self, name: &str) -> VarId {
        self.var(name, 0.0, 1.0, true)
    }

    /// Declares a bounded continuous variable.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or `lower` is negative (the solver works
    /// on non-negative variables).
    pub fn continuous(&mut self, name: &str, lower: f64, upper: f64) -> VarId {
        self.var(name, lower, upper, false)
    }

    fn var(&mut self, name: &str, lower: f64, upper: f64, integer: bool) -> VarId {
        assert!(lower <= upper, "lower bound exceeds upper bound");
        assert!(lower >= 0.0, "variables must be non-negative");
        let s = self.structure_mut();
        let id = VarId(s.variables.len());
        s.variables.push(Variable {
            lower,
            upper,
            integer,
            objective: 0.0,
        });
        s.names.push_str(name);
        s.name_ends.push(s.names.len());
        id
    }

    /// Sets the objective coefficient of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this problem.
    pub fn set_objective(&mut self, var: VarId, coefficient: f64) {
        assert!(var.0 < self.num_vars(), "unknown variable");
        self.structure_mut().variables[var.0].objective = coefficient;
    }

    /// Adds a linear constraint.
    ///
    /// # Panics
    ///
    /// Panics if any variable does not belong to this problem or `terms` is
    /// empty.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], relation: Relation, rhs: f64) {
        assert!(!terms.is_empty(), "constraint must have terms");
        for (v, _) in terms {
            assert!(v.0 < self.num_vars(), "unknown variable");
        }
        let s = self.structure_mut();
        s.terms.extend_from_slice(terms);
        s.rows.push(Row {
            end: s.terms.len(),
            relation,
        });
        self.rhs.push(rhs);
    }

    /// Sets the right-hand side of constraint `row` (numbered in the order
    /// the constraints were added). The structure, and everything derived
    /// from it, stays shared with the problem's clones.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not a constraint of this problem.
    pub fn set_rhs(&mut self, row: usize, rhs: f64) {
        assert!(row < self.rhs.len(), "unknown constraint");
        self.rhs[row] = rhs;
    }

    /// Frees the spare capacity the builder methods left, for a problem
    /// kept as a template whose clones are solved at many right-hand
    /// sides.
    pub fn shrink_to_fit(&mut self) {
        let s = Arc::make_mut(&mut self.structure);
        s.variables.shrink_to_fit();
        s.names.shrink_to_fit();
        s.name_ends.shrink_to_fit();
        s.terms.shrink_to_fit();
        s.rows.shrink_to_fit();
        self.rhs.shrink_to_fit();
    }

    /// Number of declared variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.structure.variables.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.rhs.len()
    }

    /// Variable name (for diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this problem.
    #[must_use]
    pub fn var_name(&self, var: VarId) -> &str {
        let s = &self.structure;
        let start = var.0.checked_sub(1).map_or(0, |j| s.name_ends[j]);
        &s.names[start..s.name_ends[var.0]]
    }

    /// Ids of all integer variables.
    #[must_use]
    pub fn integer_vars(&self) -> Vec<VarId> {
        self.variables()
            .iter()
            .enumerate()
            .filter(|(_, v)| v.integer)
            .map(|(i, _)| VarId(i))
            .collect()
    }

    pub(crate) fn sense(&self) -> Sense {
        self.structure.sense
    }

    pub(crate) fn variables(&self) -> &[Variable] {
        &self.structure.variables
    }

    /// Constraint `i`.
    pub(crate) fn constraint(&self, i: usize) -> Constraint<'_> {
        Constraint {
            terms: self.structure.row_terms(i),
            relation: self.structure.rows[i].relation,
            rhs: self.rhs[i],
        }
    }

    /// Every constraint, in order.
    pub(crate) fn constraints(&self) -> impl Iterator<Item = Constraint<'_>> {
        (0..self.num_constraints()).map(|i| self.constraint(i))
    }

    /// The structure's digests, computed on the first call after the
    /// structure last changed.
    pub(crate) fn digests(&self) -> &Digests {
        self.structure
            .digests
            .get_or_init(|| self.structure.derive_digests())
    }
}

/// Bit-for-bit equality: the same sense, variables (names included) and
/// rows in the same order, with every bound, objective coefficient, term
/// coefficient and right-hand side equal to the bit.
impl PartialEq for Problem {
    fn eq(&self, other: &Self) -> bool {
        fn var(v: &Variable) -> (bool, [u64; 3]) {
            (v.integer, [v.lower, v.upper, v.objective].map(f64::to_bits))
        }
        let (a, b) = (&*self.structure, &*other.structure);
        let term = |&(v, k): &(VarId, f64)| (v, k.to_bits());
        let bits = |r: &f64| r.to_bits();
        self.rhs.iter().map(bits).eq(other.rhs.iter().map(bits))
            && (Arc::ptr_eq(&self.structure, &other.structure)
                || (a.sense == b.sense
                    && (&a.names, &a.name_ends, &a.rows) == (&b.names, &b.name_ends, &b.rows)
                    && a.variables.iter().map(var).eq(b.variables.iter().map(var))
                    && a.terms.iter().map(term).eq(b.terms.iter().map(term))))
    }
}

impl Eq for Problem {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_incrementally() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.binary("x");
        let y = p.continuous("y", 0.0, 5.0);
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 3.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), 1);
        assert_eq!(p.var_name(x), "x");
        assert_eq!(p.integer_vars(), vec![x]);
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper bound")]
    fn inverted_bounds_panic() {
        let mut p = Problem::new(Sense::Minimize);
        let _ = p.continuous("y", 2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "variables must be non-negative")]
    fn negative_lower_panics() {
        let mut p = Problem::new(Sense::Minimize);
        let _ = p.continuous("y", -1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "constraint must have terms")]
    fn empty_constraint_panics() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_constraint(&[], Relation::Le, 0.0);
    }
}
