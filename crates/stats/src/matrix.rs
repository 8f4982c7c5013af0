//! A small dense matrix with the inversion needed by the coefficient of
//! multiple correlation (paper Eq. 2–3).

use std::fmt;

/// Row-major dense `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Error returned when a matrix operation is impossible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// Inversion of a singular (or numerically singular) matrix.
    Singular,
    /// Operand shapes are incompatible.
    ShapeMismatch,
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::Singular => write!(f, "matrix is singular"),
            MatrixError::ShapeMismatch => write!(f, "matrix shapes are incompatible"),
        }
    }
}

impl std::error::Error for MatrixError {}

impl Matrix {
    /// Creates a zero matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix.
    fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[cfg(test)]
    fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match shape");
        Self { rows, cols, data }
    }

    /// Matrix–vector product.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ShapeMismatch`] when `v.len() != cols`.
    pub(crate) fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>, MatrixError> {
        if v.len() != self.cols {
            return Err(MatrixError::ShapeMismatch);
        }
        Ok((0..self.rows)
            .map(|i| (0..self.cols).map(|j| self[(i, j)] * v[j]).sum())
            .collect())
    }

    /// Inverse by Gauss-Jordan elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ShapeMismatch`] for non-square matrices and
    /// [`MatrixError::Singular`] when a pivot underflows.
    pub(crate) fn inverse(&self) -> Result<Matrix, MatrixError> {
        if self.rows != self.cols {
            return Err(MatrixError::ShapeMismatch);
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Partial pivot.
            let pivot_row = (col..n)
                .max_by(|&r1, &r2| {
                    a[(r1, col)]
                        .abs()
                        .partial_cmp(&a[(r2, col)].abs())
                        .expect("NaN during inversion")
                })
                .expect("non-empty range");
            let pivot = a[(pivot_row, col)];
            if pivot.abs() < 1e-12 {
                return Err(MatrixError::Singular);
            }
            a.swap_rows(col, pivot_row);
            inv.swap_rows(col, pivot_row);
            let inv_pivot = 1.0 / pivot;
            for j in 0..n {
                a[(col, j)] *= inv_pivot;
                inv[(col, j)] *= inv_pivot;
            }
            for row in 0..n {
                if row == col {
                    continue;
                }
                let factor = a[(row, col)];
                if factor == 0.0 {
                    continue;
                }
                for j in 0..n {
                    a[(row, j)] -= factor * a[(col, j)];
                    inv[(row, j)] -= factor * inv[(col, j)];
                }
            }
        }
        Ok(inv)
    }

    /// Adds `lambda` to the diagonal (ridge regularization used when the
    /// shader-count correlation matrix is near-singular).
    pub(crate) fn add_ridge(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }

    fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(r1 * self.cols + j, r2 * self.cols + j);
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_times_original_is_identity() {
        let m = Matrix::from_rows(3, 3, vec![4.0, 7.0, 2.0, 3.0, 6.0, 1.0, 2.0, 5.0, 3.0]);
        let inv = m.inverse().unwrap();
        for j in 0..3 {
            // Column j of m · inv is m applied to column j of inv.
            let col: Vec<f64> = (0..3).map(|i| inv[(i, j)]).collect();
            let prod = m.mul_vec(&col).unwrap();
            for (i, &p) in prod.iter().enumerate() {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((p - expected).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn singular_matrix_is_detected() {
        let m = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(m.inverse(), Err(MatrixError::Singular));
    }

    #[test]
    fn ridge_makes_singular_invertible() {
        let mut m = Matrix::from_rows(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        m.add_ridge(1e-3);
        assert!(m.inverse().is_ok());
    }

    #[test]
    fn mul_vec_matches_manual() {
        let m = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let m = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let inv = m.inverse().unwrap();
        assert_eq!(inv, Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]));
    }
}
