//! Radix-2 decimation-in-time fast Fourier transform.
//!
//! This is the compute kernel of the paper's **Parallel 2D FFT** benchmark.
//! The distributed algorithm (in `sage-apps`) performs row FFTs on each node,
//! a distributed corner turn, then row FFTs again (i.e. column FFTs of the
//! original matrix); this module provides the node-local 1D transform, with
//! a cached twiddle-factor plan ([`Fft1d`]) so that the 100-iteration
//! benchmark loops of the paper do not recompute tables.
//!
//! Every entry point runs one butterfly core that transforms four
//! sequences at once: it gathers them, bit-reversed, into split real /
//! imaginary scratch, runs the stages two at a time, and stores the
//! results. The column entry ([`Fft1d::process_columns_into`]) gathers the
//! columns of an untransposed matrix, so the corner turn before a column
//! pass is done by the pass's loads instead of a transpose of its own. Each
//! output element sees the twiddle values, operations and operand order of
//! the textbook one-row-at-a-time loop, so the result is bit-identical to it.

use crate::complex::Complex32;

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FftDirection {
    /// `X[k] = sum_n x[n] e^{-2 pi i n k / N}`
    Forward,
    /// Unnormalized inverse; [`Fft1d::process`] applies the `1/N` scaling.
    Inverse,
}

/// Sequences the butterfly core transforms together: four `f32` lanes are
/// one 128-bit vector, which baseline x86-64 (SSE2) has.
const LANES: usize = 4;

/// Sample `k` of [`LANES`] sequences, real and imaginary parts split so a
/// butterfly is whole-vector arithmetic. Spare lanes hold zeros.
#[derive(Clone, Copy, Default)]
struct Quad {
    re: [f32; LANES],
    im: [f32; LANES],
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
    /// Twiddles for all stages, concatenated and split into real and
    /// imaginary parts: the stage with half-size `m` uses the `m` factors
    /// from index `m - 1`.
    tw_re: Vec<f32>,
    tw_im: Vec<f32>,
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
        let (mut tw_re, mut tw_im) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut m = 1;
        while m < n {
            for j in 0..m {
                let theta = sign * std::f32::consts::PI * j as f32 / m as f32;
                let w = Complex32::cis(theta);
                tw_re.push(w.re);
                tw_im.push(w.im);
            }
            m <<= 1;
        }
        Fft1d {
            n,
            direction,
            rev,
            tw_re,
            tw_im,
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
        self.process_rows(data);
    }

    /// Transforms every length-`n` row of a row-major buffer in place.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of the plan length.
    pub fn process_rows(&self, data: &mut [Complex32]) {
        assert_eq!(data.len() % self.n, 0, "not a whole number of rows");
        let mut q = vec![Quad::default(); self.n];
        for group in data.chunks_mut(LANES * self.n) {
            self.load(&mut q, row_samples(group, self.n));
            self.finish(&mut q, group);
        }
    }

    /// [`process_rows`](Self::process_rows) from `src` into `dst`, which it
    /// overwrites: the rows are read once, by the transform's own loads.
    ///
    /// # Panics
    /// Panics if the lengths differ or are not a multiple of the plan
    /// length.
    pub fn process_rows_into(&self, src: &[Complex32], dst: &mut [Complex32]) {
        assert_eq!(src.len(), dst.len(), "source and destination differ");
        assert_eq!(src.len() % self.n, 0, "not a whole number of rows");
        let mut q = vec![Quad::default(); self.n];
        let width = LANES * self.n;
        for (s, d) in src.chunks(width).zip(dst.chunks_mut(width)) {
            self.load(&mut q, row_samples(s, self.n));
            self.finish(&mut q, d);
        }
    }

    /// Transforms every length-`n` column of the row-major `[n, c]` matrix
    /// stacked from `blocks` (whole rows, top to bottom) into row `j` of the
    /// `[c, n]` destination, `c = dst.len() / n`: a corner turn followed by
    /// [`process_rows`](Self::process_rows), with the turn done by the
    /// transform's loads (four adjacent columns of one row at a time).
    ///
    /// # Panics
    /// Panics if `dst` is not a whole number of rows, if a block is not a
    /// whole number of `c`-sample rows, or if the blocks do not hold `n`
    /// rows in all.
    pub fn process_columns_into(&self, blocks: &[&[Complex32]], dst: &mut [Complex32]) {
        let n = self.n;
        assert_eq!(dst.len() % n, 0, "not a whole number of rows");
        let cols = dst.len() / n;
        let held: usize = blocks.iter().map(|b| b.len()).sum();
        assert_eq!(held, dst.len(), "the blocks do not hold {n} rows of {cols}");
        if cols == 0 {
            return;
        }
        assert!(
            blocks.iter().all(|b| b.len() % cols == 0),
            "a block is not a whole number of {cols}-sample rows"
        );
        let mut q = vec![Quad::default(); n];
        for (g, d) in dst.chunks_mut(LANES * n).enumerate() {
            let c0 = g * LANES;
            let rows = blocks.iter().flat_map(|b| b.chunks_exact(cols));
            self.load(&mut q, rows.map(|row| lanes(|l| row.get(c0 + l))));
            self.finish(&mut q, d);
        }
    }

    /// Gathers one group: `samples` yields sample `i` of every lane in input
    /// order, and lands in `q` at the bit-reversed index.
    fn load(&self, q: &mut [Quad], samples: impl Iterator<Item = [Complex32; LANES]>) {
        for (&k, z) in self.rev.iter().zip(samples) {
            q[k as usize] = Quad {
                re: z.map(|z| z.re),
                im: z.map(|z| z.im),
            };
        }
    }

    /// Runs every stage over the group in `q` and stores it into `out`, one
    /// row per used lane; spare lanes are never stored.
    fn finish(&self, q: &mut [Quad], out: &mut [Complex32]) {
        self.stages(q);
        // A length-1 transform is the identity, unscaled.
        let inverse = self.direction == FftDirection::Inverse && self.n > 1;
        let k = 1.0 / self.n as f32;
        for (l, row) in out.chunks_exact_mut(self.n).enumerate() {
            for (z, s) in row.iter_mut().zip(q.iter()) {
                let v = Complex32::new(s.re[l], s.im[l]);
                *z = if inverse { v.scale(k) } else { v };
            }
        }
    }

    /// The butterfly stages, two at a time (radix 2²): the four samples of
    /// a quartet stay in registers through both, then one plain stage if
    /// log₂ n is odd.
    fn stages(&self, q: &mut [Quad]) {
        let n = self.n;
        let mut m = 1;
        while 4 * m <= n {
            let (w1r, w1i) = (&self.tw_re[m - 1..][..m], &self.tw_im[m - 1..][..m]);
            let (w2r, w2i) = (
                &self.tw_re[2 * m - 1..][..2 * m],
                &self.tw_im[2 * m - 1..][..2 * m],
            );
            for block in q.chunks_exact_mut(4 * m) {
                let (q0, rest) = block.split_at_mut(m);
                let (q1, rest) = rest.split_at_mut(m);
                let (q2, q3) = rest.split_at_mut(m);
                let q3 = &mut q3[..m];
                for j in 0..m {
                    let (mut a, mut b, mut c, mut d) = (q0[j], q1[j], q2[j], q3[j]);
                    butterfly(&mut a, &mut b, w1r[j], w1i[j]);
                    butterfly(&mut c, &mut d, w1r[j], w1i[j]);
                    butterfly(&mut a, &mut c, w2r[j], w2i[j]);
                    butterfly(&mut b, &mut d, w2r[j + m], w2i[j + m]);
                    (q0[j], q1[j], q2[j], q3[j]) = (a, b, c, d);
                }
            }
            m *= 4;
        }
        if m < n {
            let (lo, hi) = q.split_at_mut(m);
            let (wr, wi) = (&self.tw_re[m - 1..][..m], &self.tw_im[m - 1..][..m]);
            for (j, (a, b)) in lo.iter_mut().zip(hi).enumerate() {
                butterfly(a, b, wr[j], wi[j]);
            }
        }
    }
}

/// `(a, b) <- (a + b w, a - b w)` on every lane, with `Complex32`'s `*`,
/// `+` and `-` operations in their operand order, so each lane rounds
/// exactly as the one-row loop does.
#[inline(always)]
fn butterfly(a: &mut Quad, b: &mut Quad, wr: f32, wi: f32) {
    for l in 0..LANES {
        let tr = b.re[l] * wr - b.im[l] * wi;
        let ti = b.re[l] * wi + b.im[l] * wr;
        b.re[l] = a.re[l] - tr;
        b.im[l] = a.im[l] - ti;
        a.re[l] += tr;
        a.im[l] += ti;
    }
}

/// One sample per lane from `at(lane)`; a lane it has nothing for is zero.
#[inline(always)]
fn lanes<'a>(at: impl Fn(usize) -> Option<&'a Complex32>) -> [Complex32; LANES] {
    std::array::from_fn(|l| at(l).copied().unwrap_or_default())
}

/// Sample `i` of each of the (up to [`LANES`]) length-`n` rows of `group`.
fn row_samples(group: &[Complex32], n: usize) -> impl Iterator<Item = [Complex32; LANES]> + '_ {
    (0..n).map(move |i| lanes(|l| group.get(l * n + i)))
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

    /// The one-row-at-a-time loop the lane core replaced, with its own
    /// array-of-structs tables, as it stood: the reference every entry
    /// point must match bit for bit.
    fn radix2_reference(data: &mut [Complex32], direction: FftDirection) {
        let n = data.len();
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
        if n <= 1 {
            return;
        }
        for (i, &j) in rev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        let mut m = 1;
        let mut tw_base = 0;
        while m < n {
            for start in (0..n).step_by(2 * m) {
                for j in 0..m {
                    let w = twiddles[tw_base + j];
                    let a = data[start + j];
                    let b = data[start + j + m] * w;
                    data[start + j] = a + b;
                    data[start + j + m] = a - b;
                }
            }
            tw_base += m;
            m <<= 1;
        }
        if direction == FftDirection::Inverse {
            let k = 1.0 / n as f32;
            for z in data.iter_mut() {
                *z = z.scale(k);
            }
        }
    }

    /// `len` seeded samples: finite values over a wide exponent range with
    /// zeros of both signs and subnormals among them; with `specials`, one
    /// in eight is instead ±∞ or a NaN (quiet, negative, or with a payload).
    fn samples(len: usize, seed: u64, specials: bool) -> Vec<Complex32> {
        let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut value = move || {
            let r = next();
            let odd = [
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                f32::from_bits(0xffc0_0000),
                f32::from_bits(0x7fc0_1234),
            ];
            match r % 16 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits((r >> 32) as u32 & 0x807f_ffff),
                3 | 4 if specials => odd[(r >> 40) as usize % odd.len()],
                _ => {
                    let exponent = 0x70 + (r >> 8) as u32 % 0x20;
                    f32::from_bits((r >> 32) as u32 & 0x807f_ffff | exponent << 23)
                }
            }
        };
        (0..len).map(|_| Complex32::new(value(), value())).collect()
    }

    /// Every component's bits, except that a NaN is just NaN: when two NaNs
    /// meet, Rust leaves the result's payload unspecified and LLVM commutes
    /// `+` and `*` operands freely (both builds of either loop do), so the
    /// payload is not the loop's to keep. Every other bit is.
    fn bits(v: &[Complex32]) -> Vec<(u32, u32)> {
        let b = |x: f32| if x.is_nan() { f32::NAN } else { x }.to_bits();
        v.iter().map(|z| (b(z.re), b(z.im))).collect()
    }

    /// `rows x n` row-major samples through the reference, one row at a time.
    fn reference_rows(src: &[Complex32], n: usize, dir: FftDirection) -> Vec<Complex32> {
        let mut out = src.to_vec();
        for row in out.chunks_exact_mut(n) {
            radix2_reference(row, dir);
        }
        out
    }

    #[test]
    fn every_entry_matches_the_radix2_loop_bit_for_bit() {
        let mut seed = 0;
        for n in (0..=10).map(|p| 1usize << p) {
            for dir in [FftDirection::Forward, FftDirection::Inverse] {
                let plan = Fft1d::new(n, dir);
                for specials in [false, true] {
                    for count in 0..=9 {
                        seed += 1;
                        let at = format!("n={n} {dir:?} specials={specials} count={count}");
                        // `count` rows of length n.
                        let src = samples(count * n, seed, specials);
                        let expect = bits(&reference_rows(&src, n, dir));
                        let mut rows = src.clone();
                        plan.process_rows(&mut rows);
                        assert_eq!(bits(&rows), expect, "process_rows {at}");
                        let mut into = samples(count * n, !seed, true);
                        plan.process_rows_into(&src, &mut into);
                        assert_eq!(bits(&into), expect, "process_rows_into {at}");
                        if count == 1 {
                            let mut one = src.clone();
                            plan.process(&mut one);
                            assert_eq!(bits(&one), expect, "process {at}");
                        }

                        // The `[n, count]` matrix whose columns are those rows,
                        // whole and cut into row blocks.
                        let mut matrix = vec![Complex32::ZERO; src.len()];
                        crate::transpose(&src, &mut matrix, count, n);
                        for rows_per_block in [n, 1, n.div_ceil(2)] {
                            if n % rows_per_block != 0 {
                                continue;
                            }
                            let blocks: Vec<&[Complex32]> = if count == 0 {
                                vec![]
                            } else {
                                matrix.chunks(rows_per_block * count).collect()
                            };
                            let mut cols = samples(count * n, !seed, true);
                            plan.process_columns_into(&blocks, &mut cols);
                            assert_eq!(
                                bits(&cols),
                                expect,
                                "process_columns_into {at} blocks of {rows_per_block}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "do not hold")]
    fn columns_reject_blocks_short_of_n_rows() {
        let plan = Fft1d::new(4, FftDirection::Forward);
        let rows = [Complex32::ONE; 6];
        plan.process_columns_into(&[&rows], &mut [Complex32::ZERO; 8]);
    }

    #[test]
    #[should_panic(expected = "whole number of 2-sample rows")]
    fn columns_reject_ragged_blocks() {
        let plan = Fft1d::new(4, FftDirection::Forward);
        let rows = [Complex32::ONE; 8];
        plan.process_columns_into(&[&rows[..3], &rows[3..]], &mut [Complex32::ZERO; 8]);
    }

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
