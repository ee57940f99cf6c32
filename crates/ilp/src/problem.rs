//! Linear/integer program description.
//!
//! A [`Problem`] is built incrementally: declare variables (binary or
//! bounded continuous), set objective coefficients, and add linear
//! constraints, one call at a time on the problem or as one run of
//! additions through [`Problem::edit`]. The solver consumes the finished
//! problem.
//!
//! A problem is a *structure* (sense, variables with their objective,
//! and each row's relation and terms) plus one right-hand side per row.
//! Each row's digest (a content hash, its extreme activity and scale) is
//! derived in the same walk that adds it; the rest, the warm-start
//! fingerprint and a content hash of the variables, is derived once per
//! structure on first use. Clones share the structure and all of its
//! digests. A caller that solves one structure at many right-hand sides
//! builds it once and, per point, clones it and sets the rows that differ
//! ([`Problem::set_rhs`]).

// lint:allow-file(index, coefficient rows are sized to the variable count by the builder)

use smart_units::codec::ContentHasher;
use std::hash::Hasher;
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
/// [`Structure::terms`], its relation, and the right-hand-side-free facts
/// the solver reads, derived as the row is added (a variable's bounds
/// never change once declared).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    end: usize,
    pub relation: Relation,
    /// Content hash of the relation and terms.
    pub hash: u128,
    /// The activity over the variable bounds that the relation bounds: the
    /// largest for `Le`, the smallest for `Ge` (the largest for `Eq`,
    /// where it is unused).
    pub extreme: f64,
    /// Largest |coefficient|.
    pub scale: f64,
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
    /// Every row's terms, concatenated in row order.
    terms: Vec<(VarId, f64)>,
    rows: Vec<Row>,
    /// Derived on first use; every mutation resets it.
    digests: OnceLock<Digests>,
}

/// What the solver derives from a whole structure: computed once and
/// shared by every clone, whatever its right-hand sides.
#[derive(Debug, Clone)]
pub(crate) struct Digests {
    /// The warm-start key: sense, variables (bounds, integrality,
    /// objective) and every row's relation and terms.
    pub fingerprint: u64,
    /// Content hash of the sense and the variables.
    pub variables: u128,
}

impl Structure {
    /// The terms of row `i`.
    fn row_terms(&self, i: usize) -> &[(VarId, f64)] {
        let start = i.checked_sub(1).map_or(0, |j| self.rows[j].end);
        &self.terms[start..self.rows[i].end]
    }

    /// Appends `terms` after the last row's; returns where they start.
    fn push_terms(&mut self, terms: impl IntoIterator<Item = (VarId, f64)>) -> usize {
        let start = self.terms.len();
        self.terms.extend(terms);
        start
    }

    /// The row of `relation` over the terms from `start` on, its hash,
    /// extreme activity and scale taken in one walk. The hash streams the
    /// bytes std's `Hash` writes for `(relation as u8, &[u64])` over each
    /// term's index and coefficient bits, so it equals the content hash of
    /// that collected key.
    ///
    /// # Panics
    ///
    /// Panics if a term's variable is not declared.
    fn row(&self, start: usize, relation: Relation) -> Row {
        let terms = &self.terms[start..];
        let largest = relation != Relation::Ge;
        let mut h = ContentHasher::default();
        h.write_u8(relation as u8);
        h.write_usize(2 * terms.len());
        let (mut extreme, mut scale) = (0.0, 0.0f64);
        for &(v, k) in terms {
            assert!(v.0 < self.variables.len(), "unknown variable");
            h.write_u64(v.0 as u64);
            h.write_u64(k.to_bits());
            let var = &self.variables[v.0];
            let at_upper = if largest { k > 0.0 } else { k < 0.0 };
            extreme += k * if at_upper { var.upper } else { var.lower };
            scale = scale.max(k.abs());
        }
        Row {
            end: self.terms.len(),
            relation,
            hash: h.finish128(),
            extreme,
            scale,
        }
    }

    /// The fingerprint and the variables' hash. Each streams the bytes
    /// std's `Hash` writes for a collected key, so each equals that key's
    /// content hash: `(is_max, [lower, upper, integer, objective] bits of
    /// every variable)` for the variables, `(variables, [row hash])` for
    /// the fingerprint (its low half: a 64-bit hash).
    fn derive_digests(&self) -> Digests {
        let mut h = ContentHasher::default();
        h.write_u8(u8::from(self.sense == Sense::Maximize));
        h.write_usize(4 * self.variables.len());
        for v in &self.variables {
            h.write_u64(v.lower.to_bits());
            h.write_u64(v.upper.to_bits());
            h.write_u64(u64::from(v.integer));
            h.write_u64(v.objective.to_bits());
        }
        let variables = h.finish128();
        let mut h = ContentHasher::default();
        h.write_u128(variables);
        h.write_usize(self.rows.len());
        for row in &self.rows {
            h.write_u128(row.hash);
        }
        Digests {
            fingerprint: h.finish(),
            variables,
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
/// let x = p.continuous(0.0, f64::INFINITY);
/// let y = p.continuous(0.0, f64::INFINITY);
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
                terms: Vec::new(),
                rows: Vec::new(),
                digests: OnceLock::new(),
            }),
            rhs: Vec::new(),
        }
    }

    /// Opens a run of additions: the structure is unshared and its
    /// digests reset once for the whole run instead of once per call. The
    /// single-call methods below each open one.
    pub fn edit(&mut self) -> Edit<'_> {
        let structure = Arc::make_mut(&mut self.structure);
        structure.digests.take();
        Edit {
            structure,
            rhs: &mut self.rhs,
            distinct: RowSet::default(),
        }
    }

    /// Declares a binary (0/1) variable.
    pub fn binary(&mut self) -> VarId {
        self.edit().binary()
    }

    /// Declares a bounded continuous variable.
    ///
    /// # Panics
    ///
    /// As [`Edit::continuous`].
    pub fn continuous(&mut self, lower: f64, upper: f64) -> VarId {
        self.edit().continuous(lower, upper)
    }

    /// Sets the objective coefficient of a variable.
    ///
    /// # Panics
    ///
    /// As [`Edit::set_objective`].
    pub fn set_objective(&mut self, var: VarId, coefficient: f64) {
        self.edit().set_objective(var, coefficient);
    }

    /// Adds a linear constraint.
    ///
    /// # Panics
    ///
    /// As [`Edit::add_constraint`].
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], relation: Relation, rhs: f64) {
        self.edit()
            .add_constraint(terms.iter().copied(), relation, rhs);
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

    /// Every row, in order.
    pub(crate) fn rows(&self) -> &[Row] {
        &self.structure.rows
    }

    /// Every row's right-hand side, in order.
    pub(crate) fn rhs(&self) -> &[f64] {
        &self.rhs
    }

    /// Nonzero coefficients over every row.
    pub(crate) fn num_nonzeros(&self) -> usize {
        self.structure.terms.len()
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

/// A run of additions to one [`Problem`] ([`Problem::edit`]): each call
/// writes straight into the problem's flat arrays and derives the new
/// row's digest in the same walk.
#[derive(Debug)]
pub struct Edit<'a> {
    structure: &'a mut Structure,
    rhs: &'a mut Vec<f64>,
    /// The rows [`Edit::add_distinct_constraint`] added.
    distinct: RowSet,
}

impl Edit<'_> {
    /// Reserves room for `vars` more variables and `rows` more rows of
    /// `terms` terms in all, so that a run of additions whose size the
    /// caller can bound grows no array on the way.
    pub fn reserve(&mut self, vars: usize, rows: usize, terms: usize) {
        let s = &mut *self.structure;
        s.variables.reserve(vars);
        s.terms.reserve(terms);
        s.rows.reserve(rows);
        self.rhs.reserve(rows);
        self.distinct.reserve(rows);
    }

    /// Declares a binary (0/1) variable.
    pub fn binary(&mut self) -> VarId {
        self.var(0.0, 1.0, true)
    }

    /// Declares a bounded continuous variable.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or `lower` is negative (the solver works
    /// on non-negative variables).
    pub fn continuous(&mut self, lower: f64, upper: f64) -> VarId {
        assert!(lower <= upper, "lower bound exceeds upper bound");
        assert!(lower >= 0.0, "variables must be non-negative");
        self.var(lower, upper, false)
    }

    fn var(&mut self, lower: f64, upper: f64, integer: bool) -> VarId {
        let variables = &mut self.structure.variables;
        variables.push(Variable {
            lower,
            upper,
            integer,
            objective: 0.0,
        });
        VarId(variables.len() - 1)
    }

    /// Sets the objective coefficient of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this problem.
    pub fn set_objective(&mut self, var: VarId, coefficient: f64) {
        let variables = &mut self.structure.variables;
        assert!(var.0 < variables.len(), "unknown variable");
        variables[var.0].objective = coefficient;
    }

    /// Adds the linear constraint `terms REL rhs`.
    ///
    /// # Panics
    ///
    /// Panics if any variable does not belong to this problem or `terms` is
    /// empty.
    pub fn add_constraint(
        &mut self,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        relation: Relation,
        rhs: f64,
    ) {
        let start = self.structure.push_terms(terms);
        assert!(
            start < self.structure.terms.len(),
            "constraint must have terms"
        );
        let row = self.structure.row(start, relation);
        self.structure.rows.push(row);
        self.rhs.push(rhs);
    }

    /// Adds `terms REL rhs` unless it has no terms or repeats, to the bit
    /// (relation, terms and right-hand side), a row an earlier call of
    /// this method on this edit added; returns whether it was added.
    ///
    /// # Panics
    ///
    /// Panics if any variable does not belong to this problem.
    pub fn add_distinct_constraint(
        &mut self,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        relation: Relation,
        rhs: f64,
    ) -> bool {
        let s = &mut *self.structure;
        let start = s.push_terms(terms);
        if start == s.terms.len() {
            return false;
        }
        let row = s.row(start, relation);
        let bits = |&(v, k): &(VarId, f64)| (v, k.to_bits());
        let new = &s.terms[start..];
        let same = |i: usize| {
            let old = &s.rows[i];
            (old.hash, old.relation, self.rhs[i].to_bits()) == (row.hash, relation, rhs.to_bits())
                && s.row_terms(i).iter().map(bits).eq(new.iter().map(bits))
        };
        if !self.distinct.insert(row.hash as u64, s.rows.len(), same) {
            s.terms.truncate(start);
            return false;
        }
        s.rows.push(row);
        self.rhs.push(rhs);
        true
    }
}

/// A set of row numbers by row hash: an open-addressing table of `(hash,
/// row + 1)` slots (`(0, 0)` is empty), probed linearly from the hash and
/// kept at most half full, so a lookup is O(1) and allocates nothing.
#[derive(Debug, Default)]
struct RowSet {
    slots: Vec<(u64, usize)>,
    len: usize,
}

impl RowSet {
    /// Grows the table, if need be, to hold `more` rows beyond its own.
    fn reserve(&mut self, more: usize) {
        let wanted = (2 * (self.len + more)).next_power_of_two().max(16);
        if wanted > self.slots.len() {
            let old = std::mem::replace(&mut self.slots, vec![(0, 0); wanted]);
            for (hash, row) in old.into_iter().filter(|&(_, row)| row > 0) {
                if let Some(at) = self.free_slot(hash, |_| false) {
                    self.slots[at] = (hash, row);
                }
            }
        }
    }

    /// The empty slot where a row of `hash` goes, or `None` if the set
    /// holds a row of `hash` that `same` holds for.
    fn free_slot(&self, hash: u64, same: impl Fn(usize) -> bool) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.slots[at] {
                (_, 0) => return Some(at),
                (h, row) if h == hash && same(row - 1) => return None,
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Adds `row`, of `hash`, unless the set holds a row of `hash` that
    /// `same` holds for; returns whether it was added.
    fn insert(&mut self, hash: u64, row: usize, same: impl Fn(usize) -> bool) -> bool {
        self.reserve(1);
        let Some(at) = self.free_slot(hash, same) else {
            return false;
        };
        self.slots[at] = (hash, row + 1);
        self.len += 1;
        true
    }
}

/// Bit-for-bit equality: the same sense, variables and rows in the same
/// order, with every bound, objective coefficient, term coefficient and
/// right-hand side equal to the bit.
impl PartialEq for Problem {
    fn eq(&self, other: &Self) -> bool {
        fn var(v: &Variable) -> (bool, [u64; 3]) {
            (v.integer, [v.lower, v.upper, v.objective].map(f64::to_bits))
        }
        let (a, b) = (&*self.structure, &*other.structure);
        let term = |&(v, k): &(VarId, f64)| (v, k.to_bits());
        let row = |r: &Row| (r.end, r.relation);
        let bits = |r: &f64| r.to_bits();
        self.rhs.iter().map(bits).eq(other.rhs.iter().map(bits))
            && (Arc::ptr_eq(&self.structure, &other.structure)
                || (a.sense == b.sense
                    && a.rows.iter().map(row).eq(b.rows.iter().map(row))
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
        let x = p.binary();
        let y = p.continuous(0.0, 5.0);
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 3.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), 1);
        assert_eq!(p.integer_vars(), vec![x]);
    }

    /// A fixed problem over both kinds of variable and every relation.
    fn pinned_problem() -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let a = p.binary();
        let b = p.binary();
        let y = p.continuous(0.5, 8.0);
        p.set_objective(a, 3.0);
        p.set_objective(b, -2.0);
        p.set_objective(y, 0.25);
        p.add_constraint(&[(a, 4.0), (b, -1.5), (y, 1.0)], Relation::Le, 6.0);
        p.add_constraint(&[(b, 2.0), (y, 1.0)], Relation::Ge, 1.0);
        p.add_constraint(&[(a, 1.0), (b, 1.0)], Relation::Eq, 1.0);
        p
    }

    #[test]
    fn the_persisted_digests_are_pinned() {
        // The fingerprint keys `ilp-bases.bin`, and the variables' and
        // rows' hashes go into every `ilp-solutions.bin` key: a change
        // here empties both stores and must bump their versions.
        let p = pinned_problem();
        let d = p.digests();
        assert_eq!(d.fingerprint, 0x134a_71ce_555d_dd37);
        assert_eq!(d.variables, 0x131a_d7a1_0409_74a7_07bd_49ec_74a4_af9c);
        let row = p.rows()[1];
        assert_eq!(row.hash, 0xfb9e_bfbd_c30e_13f3_ecee_a20f_257d_ae88);
        assert_eq!((row.extreme, row.scale), (0.5, 2.0));
        let extremes: Vec<f64> = p.rows().iter().map(|r| r.extreme).collect();
        assert_eq!(extremes, [12.0, 0.5, 2.0]);
    }

    #[test]
    fn one_edit_equals_single_calls_and_adds_each_distinct_row_once() {
        let mut edited = Problem::new(Sense::Minimize);
        let mut e = edited.edit();
        let (a, b, y) = (e.binary(), e.binary(), e.continuous(0.5, 8.0));
        for (v, c) in [(a, 3.0), (b, -2.0), (y, 0.25)] {
            e.set_objective(v, c);
        }
        e.add_constraint([(a, 4.0), (b, -1.5), (y, 1.0)], Relation::Le, 6.0);
        assert!(e.add_distinct_constraint([(b, 2.0), (y, 1.0)], Relation::Ge, 1.0));
        e.add_constraint([(a, 1.0), (b, 1.0)], Relation::Eq, 1.0);
        assert!(!e.add_distinct_constraint([], Relation::Le, 1.0), "empty");
        let mut want = pinned_problem();
        for (terms, relation, rhs) in [
            // The distinct row above, then rows that differ from it in
            // the relation, the right-hand side or a coefficient's bits.
            ([(b, 2.0), (y, 1.0)], Relation::Le, 1.0),
            ([(b, 2.0), (y, 1.0)], Relation::Ge, 2.0),
            ([(b, 2.0), (y, 0.0)], Relation::Ge, 1.0),
            ([(b, 2.0), (y, -0.0)], Relation::Ge, 1.0),
            // Equal to a row `add_constraint` added: not a repeat.
            ([(a, 1.0), (b, 1.0)], Relation::Eq, 1.0),
        ] {
            assert!(e.add_distinct_constraint(terms, relation, rhs));
            assert!(!e.add_distinct_constraint(terms, relation, rhs), "a repeat");
            want.add_constraint(&terms, relation, rhs);
        }
        assert!(!e.add_distinct_constraint([(b, 2.0), (y, 1.0)], Relation::Ge, 1.0));
        assert_eq!(edited, want);
        assert_eq!(edited.digests().fingerprint, want.digests().fingerprint);
    }

    #[test]
    fn distinct_rows_are_found_again_after_the_table_grows() {
        // 100 distinct rows grow the table from 16 slots to 256 on the
        // way; each must still be found as a repeat afterwards.
        let mut p = Problem::new(Sense::Maximize);
        let mut e = p.edit();
        let x = e.binary();
        let rows = |k: u32| ([(x, f64::from(k % 10 + 1))], f64::from(k / 10));
        for k in 0..100 {
            let (terms, rhs) = rows(k);
            assert!(e.add_distinct_constraint(terms, Relation::Le, rhs), "{k}");
        }
        for k in 0..100 {
            let (terms, rhs) = rows(k);
            assert!(!e.add_distinct_constraint(terms, Relation::Le, rhs), "{k}");
        }
        assert_eq!(p.num_constraints(), 100);
        assert_eq!(p.num_nonzeros(), 100);
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper bound")]
    fn inverted_bounds_panic() {
        let mut p = Problem::new(Sense::Minimize);
        let _ = p.continuous(2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "variables must be non-negative")]
    fn negative_lower_panics() {
        let mut p = Problem::new(Sense::Minimize);
        let _ = p.continuous(-1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "constraint must have terms")]
    fn empty_constraint_panics() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_constraint(&[], Relation::Le, 0.0);
    }
}
