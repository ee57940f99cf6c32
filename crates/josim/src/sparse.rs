//! Sparse linear algebra for the circuit engine: a CSR stamp matrix over a
//! fixed sparsity pattern, and an LU factorization whose symbolic (fill-in)
//! analysis is performed once and reused across every Newton iteration and
//! timestep.
//!
//! The modified-nodal-analysis matrix of a circuit has a *static* nonzero
//! pattern: element stamps always hit the same `(row, col)` positions, only
//! the values change with the timestep and the junction linearization. The
//! engine therefore:
//!
//! 1. dry-runs its stamps once to collect the pattern
//!    ([`SparsityPattern::from_positions`]),
//! 2. symbolically eliminates that pattern once to find all fill-in
//!    positions ([`SymbolicLu::analyze`]),
//! 3. and then re-stamps values and re-factors numerically *in place*
//!    ([`SparseLu::refactor`]) — no allocation, no symbolic work — for
//!    every Newton iteration of every timestep.
//!
//! Pivoting: MNA matrices stamped by this engine are structurally symmetric
//! with structurally nonzero diagonals (conductance stamps are symmetric,
//! inductor branch rows carry `-2L/h` on the diagonal), the same property
//! SPICE-class engines rely on to fix the pivot order up front. The
//! factorization eliminates in natural order without row exchanges and
//! reports [`SingularMatrix`] when a pivot underflows — the dense path in
//! [`crate::linalg`] (which *does* pivot) remains available as the oracle,
//! and the property suite checks both agree on stamped circuit matrices.

// lint:allow-file(index, CSR kernel; offsets come from the sparsity pattern built beside them)

/// Pivot magnitude below which the factorization reports singularity.
/// Matches the dense path's threshold in [`crate::linalg::Matrix::lu`].
const PIVOT_TINY: f64 = 1e-300;

/// Error returned when a matrix cannot be factorized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix {
    /// Column at which elimination broke down.
    pub column: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "singular matrix at column {}", self.column)
    }
}

impl std::error::Error for SingularMatrix {}

/// A fixed CSR sparsity pattern: sorted, deduplicated column indices per
/// row, with the diagonal always present (every MNA row produced by the
/// engine has a structurally nonzero diagonal; keeping it in the pattern
/// also guarantees the elimination below always finds its pivot slot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
}

impl SparsityPattern {
    /// Builds a pattern from stamp positions. Duplicates are merged and the
    /// diagonal is added to every row.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or a position is out of bounds.
    #[must_use]
    pub fn from_positions(n: usize, positions: &[(usize, usize)]) -> Self {
        assert!(n > 0, "matrix dimension must be positive");
        let mut rows: Vec<Vec<usize>> = (0..n).map(|r| vec![r]).collect();
        for &(r, c) in positions {
            assert!(r < n && c < n, "stamp position ({r}, {c}) out of bounds");
            rows[r].push(c);
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0);
        for row in &mut rows {
            row.sort_unstable();
            row.dedup();
            col_idx.extend_from_slice(row);
            row_ptr.push(col_idx.len());
        }
        Self {
            n,
            row_ptr,
            col_idx,
        }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Column indices of `row`, sorted ascending.
    #[must_use]
    pub fn row_cols(&self, row: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[row]..self.row_ptr[row + 1]]
    }

    /// The value-slot index of `(row, col)`, or `None` if the position is
    /// not part of the pattern.
    #[must_use]
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let base = self.row_ptr[row];
        self.row_cols(row)
            .binary_search(&col)
            .ok()
            .map(|off| base + off)
    }
}

/// A CSR matrix over a fixed [`SparsityPattern`]: values may be re-stamped
/// freely, positions may not change.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    pattern: SparsityPattern,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// A zero matrix over the pattern.
    #[must_use]
    pub fn zeros(pattern: SparsityPattern) -> Self {
        let values = vec![0.0; pattern.nnz()];
        Self { pattern, values }
    }

    /// The pattern this matrix is stamped over.
    #[must_use]
    pub fn pattern(&self) -> &SparsityPattern {
        &self.pattern
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.pattern.n
    }

    /// Resets all values to zero, keeping the pattern.
    pub fn clear(&mut self) {
        self.values.fill(0.0);
    }

    /// Adds `value` at `(row, col)` (the MNA stamp operation).
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` is not part of the pattern — stamping outside
    /// the analyzed pattern would silently corrupt the symbolic
    /// factorization.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        let slot = self
            .pattern
            .slot(row, col)
            // lint:allow(panic_freedom, assemblers stamp only positions present in the pattern they built)
            .unwrap_or_else(|| panic!("position ({row}, {col}) not in the sparsity pattern"));
        self.values[slot] += value;
    }

    /// Reads `(row, col)` (zero for positions outside the pattern).
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.pattern
            .slot(row, col)
            .map_or(0.0, |slot| self.values[slot])
    }

    /// Raw value slice, aligned with the pattern's slots.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable raw value slice (for bulk re-stamping from a cached base).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }
}

/// The symbolic LU factorization of a [`SparsityPattern`]: the fill-in
/// extended pattern of `L + U` under natural-order elimination, computed
/// once per engine and shared by every numeric refactorization.
#[derive(Debug, Clone)]
pub struct SymbolicLu {
    n: usize,
    /// CSR pattern of `L + U` (unit-diagonal `L` strictly below, `U` on and
    /// above the diagonal), sorted per row.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    /// Slot of the diagonal entry of each row.
    diag: Vec<usize>,
}

impl SymbolicLu {
    /// Symbolically eliminates the pattern in natural order, recording
    /// every fill-in position.
    ///
    /// For each row `i`, the united pattern is the fixed point of: start
    /// from `A`'s row `i`; for every `j < i` in the row (ascending), merge
    /// in the columns `> j` of the already-computed row `j` of `U`.
    #[must_use]
    pub fn analyze(pattern: &SparsityPattern) -> Self {
        let n = pattern.dim();
        let mut rows: Vec<Vec<usize>> = Vec::with_capacity(n);
        // `mark[c] == i` means column c is already in row i's pattern.
        let mut mark = vec![usize::MAX; n];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..n {
            let mut cols: Vec<usize> = Vec::new();
            for &c in pattern.row_cols(i) {
                if mark[c] != i {
                    mark[c] = i;
                    cols.push(c);
                    if c < i {
                        stack.push(c);
                    }
                }
            }
            // Worklist of sub-diagonal columns still to be expanded. Each
            // expansion of j merges U's row j (columns > j); newly merged
            // sub-diagonal columns join the worklist, so the fixed point is
            // reached regardless of discovery order.
            while let Some(j) = stack.pop() {
                for &c in &rows[j] {
                    if c > j && mark[c] != i {
                        mark[c] = i;
                        cols.push(c);
                        if c < i {
                            stack.push(c);
                        }
                    }
                }
            }
            cols.sort_unstable();
            rows.push(cols);
        }

        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut diag = Vec::with_capacity(n);
        row_ptr.push(0);
        for (i, row) in rows.iter().enumerate() {
            let base = col_idx.len();
            let at = row
                .binary_search(&i)
                // lint:allow(panic_freedom, the MNA assembler inserts every diagonal entry)
                .expect("diagonal present in every row");
            diag.push(base + at);
            col_idx.extend_from_slice(row);
            row_ptr.push(col_idx.len());
        }
        Self {
            n,
            row_ptr,
            col_idx,
            diag,
        }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Structural nonzeros of `L + U` (including fill-in).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    fn row(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }
}

/// A reusable numeric LU factorization over a [`SymbolicLu`]: refactoring
/// and solving allocate nothing after construction.
#[derive(Debug, Clone)]
pub struct SparseLu {
    symbolic: SymbolicLu,
    /// Values aligned with the symbolic `L + U` slots.
    values: Vec<f64>,
    /// Dense scatter workspace for the active row.
    scratch: Vec<f64>,
}

impl SparseLu {
    /// Prepares storage for factorizations over the symbolic pattern.
    #[must_use]
    pub fn new(symbolic: SymbolicLu) -> Self {
        let values = vec![0.0; symbolic.nnz()];
        let scratch = vec![0.0; symbolic.dim()];
        Self {
            symbolic,
            values,
            scratch,
        }
    }

    /// The symbolic analysis this factorization reuses.
    #[must_use]
    pub fn symbolic(&self) -> &SymbolicLu {
        &self.symbolic
    }

    /// Numerically refactors `a` in place (row-wise up-looking Doolittle
    /// over the precomputed fill pattern).
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] when a pivot underflows.
    ///
    /// # Panics
    ///
    /// Panics if `a`'s dimension does not match the symbolic pattern.
    pub fn refactor(&mut self, a: &SparseMatrix) -> Result<(), SingularMatrix> {
        let n = self.symbolic.n;
        assert_eq!(a.dim(), n, "matrix dimension mismatch");
        for i in 0..n {
            let (start, end) = (self.symbolic.row_ptr[i], self.symbolic.row_ptr[i + 1]);
            // Scatter row i of A over the (fill-extended) LU row pattern.
            for off in start..end {
                self.scratch[self.symbolic.col_idx[off]] = 0.0;
            }
            let a_base = a.pattern.row_ptr[i];
            for (off, &c) in a.pattern.row_cols(i).iter().enumerate() {
                self.scratch[c] = a.values[a_base + off];
            }
            // Eliminate with every finished row j < i in ascending order.
            for off in start..end {
                let j = self.symbolic.col_idx[off];
                if j >= i {
                    break;
                }
                let pivot = self.values[self.symbolic.diag[j]];
                let l_ij = self.scratch[j] / pivot;
                self.scratch[j] = l_ij;
                if l_ij != 0.0 {
                    let (j_start, j_end) = (self.symbolic.row_ptr[j], self.symbolic.row_ptr[j + 1]);
                    for j_off in j_start..j_end {
                        let k = self.symbolic.col_idx[j_off];
                        if k > j {
                            self.scratch[k] -= l_ij * self.values[j_off];
                        }
                    }
                }
            }
            // Gather back and check the pivot.
            for off in start..end {
                self.values[off] = self.scratch[self.symbolic.col_idx[off]];
            }
            if self.values[self.symbolic.diag[i]].abs() < PIVOT_TINY {
                return Err(SingularMatrix { column: i });
            }
        }
        Ok(())
    }

    /// Solves `A x = b` with the current factors, writing the solution over
    /// `b` (forward substitution with unit-diagonal `L`, then backward with
    /// `U`).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.symbolic.n;
        assert_eq!(b.len(), n, "rhs length mismatch");
        for i in 0..n {
            let base = self.symbolic.row_ptr[i];
            let mut sum = b[i];
            for (off, &c) in self.symbolic.row(i).iter().enumerate() {
                if c >= i {
                    break;
                }
                sum -= self.values[base + off] * b[c];
            }
            b[i] = sum;
        }
        for i in (0..n).rev() {
            let base = self.symbolic.row_ptr[i];
            let mut sum = b[i];
            for (off, &c) in self.symbolic.row(i).iter().enumerate().rev() {
                if c <= i {
                    break;
                }
                sum -= self.values[base + off] * b[c];
            }
            b[i] = sum / self.values[self.symbolic.diag[i]];
        }
    }

    /// Convenience allocating solve (tests and one-shot callers).
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;

    fn sparse_from_dense(entries: &[&[f64]]) -> SparseMatrix {
        let n = entries.len();
        let mut positions = Vec::new();
        for (r, row) in entries.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    positions.push((r, c));
                }
            }
        }
        let mut m = SparseMatrix::zeros(SparsityPattern::from_positions(n, &positions));
        for (r, row) in entries.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    m.add(r, c, v);
                }
            }
        }
        m
    }

    fn factor(m: &SparseMatrix) -> SparseLu {
        let mut lu = SparseLu::new(SymbolicLu::analyze(m.pattern()));
        lu.refactor(m).expect("nonsingular");
        lu
    }

    #[test]
    fn pattern_dedups_and_adds_diagonal() {
        let p = SparsityPattern::from_positions(3, &[(0, 1), (0, 1), (2, 0)]);
        assert_eq!(p.row_cols(0), &[0, 1]);
        assert_eq!(p.row_cols(1), &[1]);
        assert_eq!(p.row_cols(2), &[0, 2]);
        assert_eq!(p.nnz(), 5);
        assert!(p.slot(0, 2).is_none());
        assert!(p.slot(2, 0).is_some());
    }

    #[test]
    fn solves_identity() {
        let m = sparse_from_dense(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x = factor(&m).solve(&[3.0, 4.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn solves_general_system() {
        // 2x + y = 5 ; x + 3y = 10 => x = 1, y = 3
        let m = sparse_from_dense(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = factor(&m).solve(&[5.0, 10.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fill_in_is_found_and_used() {
        // Arrow matrix: eliminating column 0 fills the entire trailing
        // block's last row/column intersections.
        let m = sparse_from_dense(&[
            &[4.0, 1.0, 1.0, 1.0],
            &[1.0, 3.0, 0.0, 0.0],
            &[1.0, 0.0, 3.0, 0.0],
            &[1.0, 0.0, 0.0, 3.0],
        ]);
        let lu = factor(&m);
        assert!(lu.symbolic().nnz() > m.pattern().nnz(), "fill-in expected");
        let b = [7.0, 4.0, 4.0, 4.0];
        let x = lu.solve(&b);
        // Check A x = b against the dense oracle.
        let mut dense = Matrix::zeros(4);
        for r in 0..4 {
            for c in 0..4 {
                dense.set(r, c, m.get(r, c));
            }
        }
        let oracle = dense.lu().unwrap().solve(&b);
        for (xs, xd) in x.iter().zip(oracle.iter()) {
            assert!((xs - xd).abs() < 1e-10, "sparse {xs} vs dense {xd}");
        }
    }

    #[test]
    fn refactor_reuses_symbolic_for_new_values() {
        let m1 = sparse_from_dense(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let mut lu = factor(&m1);
        // Same pattern, different values (a new timestep's stamps).
        let mut m2 = m1.clone();
        m2.clear();
        m2.add(0, 0, 5.0);
        m2.add(0, 1, 2.0);
        m2.add(1, 0, 2.0);
        m2.add(1, 1, 4.0);
        lu.refactor(&m2).expect("nonsingular");
        let x = lu.solve(&[9.0, 10.0]);
        // 5x + 2y = 9 ; 2x + 4y = 10 => x = 1, y = 2
        assert!((x[0] - 1.0).abs() < 1e-12, "x = {}", x[0]);
        assert!((x[1] - 2.0).abs() < 1e-12, "y = {}", x[1]);
    }

    #[test]
    fn singular_matrix_detected() {
        let m = sparse_from_dense(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut lu = SparseLu::new(SymbolicLu::analyze(m.pattern()));
        assert!(lu.refactor(&m).is_err());
    }

    #[test]
    fn structurally_missing_pivot_detected() {
        // Row 1 has no entries besides the auto-added (numerically zero)
        // diagonal: a floating node.
        let p = SparsityPattern::from_positions(2, &[(0, 0)]);
        let mut m = SparseMatrix::zeros(p);
        m.add(0, 0, 1.0);
        let mut lu = SparseLu::new(SymbolicLu::analyze(m.pattern()));
        let err = lu.refactor(&m).unwrap_err();
        assert_eq!(err.column, 1);
    }

    #[test]
    #[should_panic(expected = "not in the sparsity pattern")]
    fn stamping_outside_pattern_panics() {
        let p = SparsityPattern::from_positions(2, &[(0, 0)]);
        let mut m = SparseMatrix::zeros(p);
        m.add(0, 1, 1.0);
    }

    #[test]
    fn matches_dense_on_tridiagonal_ladder() {
        // The PTL-ladder shape: tridiagonal with strong diagonal.
        let n = 12;
        let mut positions = Vec::new();
        for i in 0..n {
            if i > 0 {
                positions.push((i, i - 1));
                positions.push((i - 1, i));
            }
        }
        let mut sp = SparseMatrix::zeros(SparsityPattern::from_positions(n, &positions));
        let mut dn = Matrix::zeros(n);
        for i in 0..n {
            let d = 4.0 + i as f64 * 0.25;
            sp.add(i, i, d);
            dn.add(i, i, d);
            if i > 0 {
                sp.add(i, i - 1, -1.0);
                sp.add(i - 1, i, -1.0);
                dn.add(i, i - 1, -1.0);
                dn.add(i - 1, i, -1.0);
            }
        }
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let xs = factor(&sp).solve(&b);
        let xd = dn.lu().unwrap().solve(&b);
        for (a, b) in xs.iter().zip(xd.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
        // No fill-in on a tridiagonal pattern.
        let sym = SymbolicLu::analyze(sp.pattern());
        assert_eq!(sym.nnz(), sp.pattern().nnz());
    }
}
