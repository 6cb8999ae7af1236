//! Deterministic workload generation and serial reference implementations.
//!
//! The paper's data sets ("a 1024x1024 data matrix ... provided by CSPI")
//! are not available, so inputs are synthesized deterministically: every
//! element is a pure function of `(seed, row, col)`, which lets each
//! distributed source thread generate exactly its stripe with no
//! communication — the same property the real benchmark harness had with
//! pre-staged sensor data.

use rand::splitmix64;
use sage_signal::fft::{Fft1d, FftDirection};
use sage_signal::{Complex32, Matrix};

/// The deterministic input sample at `(row, col)` for a given seed: both
/// components uniform in [-1, 1).
pub fn sample(seed: u64, row: usize, col: usize) -> Complex32 {
    let h = splitmix64(seed ^ ((row as u64) << 32) ^ col as u64);
    let re = ((h >> 40) as f32 / (1u64 << 23) as f32) - 1.0;
    let im = (((h >> 8) & 0xFFFFFF) as f32 / (1u64 << 23) as f32) - 1.0;
    Complex32::new(re, im)
}

/// Generates the full `size x size` input matrix.
pub fn input_matrix(seed: u64, size: usize) -> Matrix {
    Matrix::from_fn(size, size, |r, c| sample(seed, r, c))
}

/// Generates one row-stripe (`rows` rows starting at `row0`) of the input.
pub fn input_stripe(seed: u64, size: usize, row0: usize, rows: usize) -> Vec<Complex32> {
    let mut v = vec![Complex32::ZERO; rows * size];
    fill_stripe(seed, size, row0, &mut v);
    v
}

/// Writes the input's rows `row0..` (`size` samples each) over `stripe`, a
/// whole number of rows — [`input_stripe`] into storage the caller owns.
pub fn fill_stripe(seed: u64, size: usize, row0: usize, stripe: &mut [Complex32]) {
    for (r, row) in stripe.chunks_exact_mut(size.max(1)).enumerate() {
        for (c, z) in row.iter_mut().enumerate() {
            *z = sample(seed, row0 + r, c);
        }
    }
}

/// Serial reference 2D FFT, returned **transposed** (`[cols, rows]`) to
/// match the distributed decomposition's natural output layout.
pub fn fft2d_reference_transposed(input: &Matrix) -> Matrix {
    let (rows, cols) = (input.rows(), input.cols());
    let mut work = input.clone();
    Fft1d::new(cols, FftDirection::Forward).process_rows(work.as_mut_slice());
    let mut t = work.transposed(); // [cols, rows]
    Fft1d::new(rows, FftDirection::Forward).process_rows(t.as_mut_slice());
    t
}

/// Serial reference corner turn: the plain transpose.
pub fn corner_turn_reference(input: &Matrix) -> Matrix {
    input.transposed()
}

/// Relative error between two matrices (max abs diff over max abs value).
pub fn relative_error(a: &Matrix, b: &Matrix) -> f32 {
    let scale = a
        .as_slice()
        .iter()
        .map(|z| z.abs())
        .fold(f32::EPSILON, f32::max);
    a.max_abs_diff(b) / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_deterministic_and_bounded() {
        assert_eq!(sample(1, 5, 9), sample(1, 5, 9));
        assert_ne!(sample(1, 5, 9), sample(2, 5, 9));
        assert_ne!(sample(1, 5, 9), sample(1, 5, 10));
        for r in 0..20 {
            for c in 0..20 {
                let z = sample(42, r, c);
                assert!(z.re >= -1.0 && z.re < 1.0);
                assert!(z.im >= -1.0 && z.im < 1.0);
            }
        }
    }

    #[test]
    fn stripes_tile_the_matrix() {
        let m = input_matrix(7, 8);
        let top = input_stripe(7, 8, 0, 4);
        let bottom = input_stripe(7, 8, 4, 4);
        assert_eq!(&m.as_slice()[..32], &top[..]);
        assert_eq!(&m.as_slice()[32..], &bottom[..]);
    }

    #[test]
    fn reference_fft2d_matches_manual_composition() {
        let input = input_matrix(3, 8);
        let t = fft2d_reference_transposed(&input);
        assert_eq!((t.rows(), t.cols()), (8, 8));
        // Spot-check one output bin against the direct 2D DFT definition.
        let (k1, k2) = (3usize, 5usize);
        let mut acc_re = 0.0f64;
        let mut acc_im = 0.0f64;
        for r in 0..8 {
            for c in 0..8 {
                let theta = -2.0 * std::f64::consts::PI * ((k1 * r + k2 * c) as f64) / 8.0;
                let x = input.get(r, c);
                let (s, co) = theta.sin_cos();
                acc_re += x.re as f64 * co - x.im as f64 * s;
                acc_im += x.re as f64 * s + x.im as f64 * co;
            }
        }
        // Output is transposed: bin (k1 rows, k2 cols) lives at [k2, k1].
        let got = t.get(k2, k1);
        assert!((got.re as f64 - acc_re).abs() < 1e-3, "{got} vs {acc_re}");
        assert!((got.im as f64 - acc_im).abs() < 1e-3);
    }

    #[test]
    fn corner_turn_reference_is_transpose() {
        let input = input_matrix(9, 4);
        let t = corner_turn_reference(&input);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(t.get(r, c), input.get(c, r));
            }
        }
    }

    #[test]
    fn relative_error_zero_for_identical() {
        let m = input_matrix(1, 4);
        assert_eq!(relative_error(&m, &m), 0.0);
        let z = Matrix::zeros(4, 4);
        assert!(relative_error(&m, &z) > 0.0);
    }
}
