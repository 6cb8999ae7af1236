//! Radix-2 decimation-in-time fast Fourier transform.
//!
//! This is the compute kernel of the paper's **Parallel 2D FFT** benchmark.
//! The distributed algorithm (in `sage-apps`) performs row FFTs on each node,
//! a distributed corner turn, then row FFTs again (i.e. column FFTs of the
//! original matrix); this module provides the node-local 1D transform and a
//! row-batched helper, with a cached twiddle-factor plan ([`Fft1d`]) so that
//! the 100-iteration benchmark loops of the paper do not recompute tables.

use crate::complex::Complex32;

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FftDirection {
    /// `X[k] = sum_n x[n] e^{-2 pi i n k / N}`
    Forward,
    /// Unnormalized inverse; [`Fft1d::process`] applies the `1/N` scaling.
    Inverse,
}

/// A reusable FFT plan for a fixed power-of-two length.
///
/// Precomputes the bit-reversal permutation and the per-stage twiddle
/// factors. A plan is cheap to clone and is `Send + Sync`, so node threads
/// can share one.
#[derive(Clone, Debug)]
pub struct Fft1d {
    n: usize,
    direction: FftDirection,
    /// Bit-reversal permutation indices.
    rev: Vec<u32>,
    /// Twiddles for all stages, concatenated: stage with half-size `m` uses
    /// `m` consecutive factors.
    twiddles: Vec<Complex32>,
}

impl Fft1d {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize, direction: FftDirection) -> Self {
        assert!(n.is_power_of_two(), "FFT length {n} must be a power of two");
        let bits = n.trailing_zeros();
        let rev: Vec<u32> = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .collect();
        let sign = match direction {
            FftDirection::Forward => -1.0f32,
            FftDirection::Inverse => 1.0f32,
        };
        let mut twiddles = Vec::with_capacity(n.max(1));
        let mut m = 1;
        while m < n {
            for j in 0..m {
                let theta = sign * std::f32::consts::PI * j as f32 / m as f32;
                twiddles.push(Complex32::cis(theta));
            }
            m <<= 1;
        }
        Fft1d {
            n,
            direction,
            rev,
            twiddles,
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for the degenerate length-0 plan (never constructible;
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The direction this plan computes.
    pub fn direction(&self) -> FftDirection {
        self.direction
    }

    /// Transforms `data` in place.
    ///
    /// The inverse direction includes the `1/N` normalization, so
    /// forward-then-inverse is the identity (up to rounding).
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn process(&self, data: &mut [Complex32]) {
        assert_eq!(data.len(), self.n, "buffer length mismatch");
        if self.n <= 1 {
            return;
        }
        // Bit-reversal reordering.
        for i in 0..self.n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        // Iterative Cooley-Tukey butterflies.
        let mut m = 1;
        let mut tw_base = 0;
        while m < self.n {
            for start in (0..self.n).step_by(2 * m) {
                for j in 0..m {
                    let w = self.twiddles[tw_base + j];
                    let a = data[start + j];
                    let b = data[start + j + m] * w;
                    data[start + j] = a + b;
                    data[start + j + m] = a - b;
                }
            }
            tw_base += m;
            m <<= 1;
        }
        if self.direction == FftDirection::Inverse {
            let k = 1.0 / self.n as f32;
            for z in data.iter_mut() {
                *z = z.scale(k);
            }
        }
    }

    /// Transforms every length-`n` row of a row-major buffer in place.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of the plan length.
    pub fn process_rows(&self, data: &mut [Complex32]) {
        assert_eq!(data.len() % self.n.max(1), 0, "not a whole number of rows");
        for row in data.chunks_exact_mut(self.n) {
            self.process(row);
        }
    }
}

/// One-shot forward FFT of a power-of-two-length buffer.
pub fn fft_1d(data: &mut [Complex32]) {
    Fft1d::new(data.len(), FftDirection::Forward).process(data);
}

/// One-shot normalized inverse FFT.
pub fn fft_inverse_1d(data: &mut [Complex32]) {
    Fft1d::new(data.len(), FftDirection::Inverse).process(data);
}

/// Naive `O(N^2)` DFT used as a test oracle for the fast transform.
pub fn dft_reference(input: &[Complex32], direction: FftDirection) -> Vec<Complex32> {
    let n = input.len();
    let sign = match direction {
        FftDirection::Forward => -1.0f64,
        FftDirection::Inverse => 1.0f64,
    };
    let mut out = vec![Complex32::ZERO; n];
    for (k, slot) in out.iter_mut().enumerate() {
        let mut acc_re = 0.0f64;
        let mut acc_im = 0.0f64;
        for (j, &x) in input.iter().enumerate() {
            let theta = sign * 2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
            let (s, c) = theta.sin_cos();
            acc_re += x.re as f64 * c - x.im as f64 * s;
            acc_im += x.re as f64 * s + x.im as f64 * c;
        }
        if direction == FftDirection::Inverse {
            acc_re /= n as f64;
            acc_im /= n as f64;
        }
        *slot = Complex32::new(acc_re as f32, acc_im as f32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn impulse(n: usize) -> Vec<Complex32> {
        let mut v = vec![Complex32::ZERO; n];
        v[0] = Complex32::ONE;
        v
    }

    fn max_err(a: &[Complex32], b: &[Complex32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f32::max)
    }

    fn ramp(n: usize) -> Vec<Complex32> {
        (0..n)
            .map(|i| Complex32::new(i as f32 * 0.1, (n - i) as f32 * -0.05))
            .collect()
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        Fft1d::new(12, FftDirection::Forward);
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut v = impulse(16);
        fft_1d(&mut v);
        for z in &v {
            assert!((z.re - 1.0).abs() < 1e-5 && z.im.abs() < 1e-5);
        }
    }

    #[test]
    fn dc_transforms_to_impulse() {
        let mut v = vec![Complex32::ONE; 8];
        fft_1d(&mut v);
        assert!((v[0].re - 8.0).abs() < 1e-4);
        for z in &v[1..] {
            assert!(z.abs() < 1e-4);
        }
    }

    #[test]
    fn matches_reference_dft() {
        for n in [1usize, 2, 4, 8, 32, 128] {
            let input = ramp(n);
            let mut fast = input.clone();
            fft_1d(&mut fast);
            let slow = dft_reference(&input, FftDirection::Forward);
            assert!(max_err(&fast, &slow) < 1e-2, "n={n}");
        }
    }

    #[test]
    fn inverse_matches_reference_dft() {
        let input = ramp(64);
        let mut fast = input.clone();
        fft_inverse_1d(&mut fast);
        let slow = dft_reference(&input, FftDirection::Inverse);
        assert!(max_err(&fast, &slow) < 1e-3);
    }

    #[test]
    fn round_trip_is_identity() {
        let input = ramp(256);
        let mut v = input.clone();
        fft_1d(&mut v);
        fft_inverse_1d(&mut v);
        assert!(max_err(&v, &input) < 1e-3);
    }

    #[test]
    fn parseval_energy_preserved() {
        let input = ramp(128);
        let time_energy: f32 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut v = input.clone();
        fft_1d(&mut v);
        let freq_energy: f32 = v.iter().map(|z| z.norm_sqr()).sum::<f32>() / 128.0;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-4);
    }

    #[test]
    fn linearity() {
        let a = ramp(32);
        let b: Vec<Complex32> = ramp(32).iter().map(|z| z.conj()).collect();
        let mut sum: Vec<Complex32> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        fft_1d(&mut sum);
        let mut fa = a.clone();
        fft_1d(&mut fa);
        let mut fb = b.clone();
        fft_1d(&mut fb);
        let expect: Vec<Complex32> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&sum, &expect) < 1e-3);
    }

    #[test]
    fn shift_theorem() {
        // x[(n-1) mod N] has spectrum X[k] * e^{-2 pi i k / N}.
        let n = 64;
        let x = ramp(n);
        let mut shifted: Vec<Complex32> = vec![Complex32::ZERO; n];
        for i in 0..n {
            shifted[(i + 1) % n] = x[i];
        }
        let mut fx = x.clone();
        fft_1d(&mut fx);
        let mut fs = shifted;
        fft_1d(&mut fs);
        for k in 0..n {
            let phase = Complex32::cis(-2.0 * std::f32::consts::PI * k as f32 / n as f32);
            assert!((fs[k] - fx[k] * phase).abs() < 1e-2);
        }
    }

    #[test]
    fn process_rows_equals_per_row_process() {
        let cols = 16;
        let rows = 5;
        let mut data: Vec<Complex32> = (0..rows * cols)
            .map(|i| Complex32::new((i % 7) as f32, (i % 3) as f32))
            .collect();
        let mut expect = data.clone();
        let plan = Fft1d::new(cols, FftDirection::Forward);
        for r in 0..rows {
            plan.process(&mut expect[r * cols..(r + 1) * cols]);
        }
        plan.process_rows(&mut data);
        assert!(max_err(&data, &expect) == 0.0);
    }

    #[test]
    fn plan_reuse_is_stable() {
        let plan = Fft1d::new(32, FftDirection::Forward);
        let input = ramp(32);
        let mut a = input.clone();
        let mut b = input;
        plan.process(&mut a);
        plan.process(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn length_one_is_identity() {
        let mut v = vec![Complex32::new(2.0, 3.0)];
        fft_1d(&mut v);
        assert_eq!(v[0], Complex32::new(2.0, 3.0));
    }
}
