//! A minimal row-major dense matrix used by the benchmark workloads.

use crate::complex::Complex32;
use std::fmt;

/// A row-major `rows x cols` matrix of complex samples.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex32>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Complex32::ZERO; rows * cols],
        }
    }

    /// Creates a matrix from an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major buffer.
    pub fn as_slice(&self) -> &[Complex32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [Complex32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major buffer.
    pub fn into_vec(self) -> Vec<Complex32> {
        self.data
    }

    /// Borrows row `r`.
    pub fn row(&self, r: usize) -> &[Complex32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Complex32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Complex32) {
        self.data[r * self.cols + c] = v;
    }

    /// Returns the out-of-place transpose.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        crate::transpose::transpose(&self.data, &mut out.data, self.rows, self.cols);
        out
    }

    /// Maximum absolute element-wise difference against another matrix.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f32::max)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f32>().sqrt()
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_accessors() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols(), m.len()), (2, 3, 6));
        m.set(1, 2, Complex32::new(5.0, -1.0));
        assert_eq!(m.get(1, 2), Complex32::new(5.0, -1.0));
        assert_eq!(m.row(1)[2], Complex32::new(5.0, -1.0));
    }

    #[test]
    fn from_fn_row_major_layout() {
        let m = Matrix::from_fn(2, 2, |r, c| Complex32::new(r as f32, c as f32));
        assert_eq!(m.as_slice()[1], Complex32::new(0.0, 1.0));
        assert_eq!(m.as_slice()[2], Complex32::new(1.0, 0.0));
    }

    #[test]
    fn transpose_swaps_indices() {
        let m = Matrix::from_fn(3, 5, |r, c| Complex32::new((r * 10 + c) as f32, 0.0));
        let t = m.transposed();
        assert_eq!((t.rows(), t.cols()), (5, 3));
        for r in 0..3 {
            for c in 0..5 {
                assert_eq!(m.get(r, c), t.get(c, r));
            }
        }
    }

    #[test]
    fn diff_and_norm() {
        let a = Matrix::from_fn(2, 2, |_, _| Complex32::new(3.0, 4.0));
        let b = Matrix::zeros(2, 2);
        assert_eq!(a.max_abs_diff(&b), 5.0);
        assert!((a.norm() - 10.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_bad_shape() {
        Matrix::from_vec(2, 2, vec![Complex32::ZERO; 3]);
    }
}
