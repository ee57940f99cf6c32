//! Dense linear algebra for the circuit engine: LU factorization with
//! partial pivoting and triangular solves.
//!
//! The modified-nodal-analysis matrices of `josim-lite` circuits are small
//! (tens to a few hundreds of unknowns), so a dense LU is both simple and
//! fast enough. For linear circuits the factorization is computed once and
//! reused every timestep.

// lint:allow-file(index, LU kernel; pivot and row indices are bounded by the square dimension asserted at entry)

use crate::sparse::SingularMatrix;

/// A dense row-major square matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `n x n` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "matrix dimension must be positive");
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Reads entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col]
    }

    /// Writes entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col] = value;
    }

    /// Adds `value` to entry `(row, col)` (the MNA "stamp" operation).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col] += value;
    }

    /// Sets all entries to zero, preserving the dimension.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Computes the LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] if a pivot is numerically zero.
    pub fn lu(&self) -> Result<LuFactors, SingularMatrix> {
        let n = self.n;
        let mut lu = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivot: find the largest |entry| in column k at or
            // below the diagonal.
            let mut pivot_row = k;
            let mut pivot_val = lu[k * n + k].abs();
            for r in (k + 1)..n {
                let v = lu[r * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return Err(SingularMatrix { column: k });
            }
            if pivot_row != k {
                for c in 0..n {
                    lu.swap(k * n + c, pivot_row * n + c);
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu[k * n + k];
            for r in (k + 1)..n {
                let factor = lu[r * n + k] / pivot;
                lu[r * n + k] = factor;
                for c in (k + 1)..n {
                    lu[r * n + c] -= factor * lu[k * n + c];
                }
            }
        }
        Ok(LuFactors { n, lu, perm })
    }
}

/// LU factors produced by [`Matrix::lu`], reusable across right-hand sides.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
}

impl LuFactors {
    /// Solves `A x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let n = self.n;
        // Apply permutation.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution (L has implicit unit diagonal).
        for r in 1..n {
            let mut sum = x[r];
            for (c, xc) in x.iter().enumerate().take(r) {
                sum -= self.lu[r * n + c] * xc;
            }
            x[r] = sum;
        }
        // Backward substitution.
        for r in (0..n).rev() {
            let mut sum = x[r];
            for (c, xc) in x.iter().enumerate().skip(r + 1) {
                sum -= self.lu[r * n + c] * xc;
            }
            x[r] = sum / self.lu[r * n + r];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(entries: &[&[f64]]) -> Matrix {
        let n = entries.len();
        let mut m = Matrix::zeros(n);
        for (r, row) in entries.iter().enumerate() {
            assert_eq!(row.len(), n);
            for (c, &v) in row.iter().enumerate() {
                m.set(r, c, v);
            }
        }
        m
    }

    #[test]
    fn solves_identity() {
        let m = mat(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x = m.lu().unwrap().solve(&[3.0, 4.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn solves_general_system() {
        // 2x + y = 5 ; x + 3y = 10 => x = 1, y = 3
        let m = mat(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = m.lu().unwrap().solve(&[5.0, 10.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let m = mat(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = m.lu().unwrap().solve(&[2.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        let m = mat(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(m.lu().is_err());
    }

    #[test]
    fn random_roundtrip_3x3() {
        let m = mat(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]);
        let b = [1.0, 2.0, 3.0];
        let x = m.lu().unwrap().solve(&b);
        // Verify A x = b.
        for (r, &rhs) in b.iter().enumerate() {
            let sum: f64 = x.iter().enumerate().map(|(c, &xc)| m.get(r, c) * xc).sum();
            assert!((sum - rhs).abs() < 1e-10);
        }
    }

    #[test]
    fn stamp_accumulates() {
        let mut m = Matrix::zeros(2);
        m.add(0, 0, 1.5);
        m.add(0, 0, 0.5);
        assert!((m.get(0, 0) - 2.0).abs() < 1e-12);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "matrix dimension must be positive")]
    fn zero_dim_panics() {
        let _ = Matrix::zeros(0);
    }

    #[test]
    #[should_panic(expected = "rhs length mismatch")]
    fn rhs_mismatch_panics() {
        let m = mat(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let _ = m.lu().unwrap().solve(&[1.0]);
    }
}
