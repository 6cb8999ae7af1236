//! The output oracle: sink-stream checksums and independent serial
//! references.
//!
//! * every rep's sink stream must hash to the first rep's;
//! * local and TCP twins of the same model + seed must hash alike, and so
//!   must every fleet job and the in-process run of its model;
//! * the last frame of the first rep is compared against a serial
//!   reference that shares no code path with the distributed run
//!   (`sage_apps::workload` references for the 512-point programs,
//!   `sage_signal::dft_reference` — the O(n^2) DFT — for the 64-point ones
//!   and the beamformer).

use sage::apps::workload;
use sage::runtime::{FnRole, GlueProgram, SinkResults};
use sage::signal::complex::from_bytes;
use sage::signal::fft::{dft_reference, FftDirection};
use sage::signal::{Complex32, Matrix};

/// Relative error (max abs diff over max abs value) a frame may have
/// against its serial reference.
pub const REFERENCE_TOLERANCE: f32 = 1e-3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 folded over little-endian 8-byte words (tail bytes one at a
/// time): xor and multiplication by an odd constant are both bijections on
/// `u64`, so any single changed word changes the hash, at an eighth of the
/// byte-wise cost — a rep hashes up to 48 MiB of sink output.
pub fn hash_words(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        h = (h ^ w).wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Ids of the program's sink functions, ascending.
fn sinks(program: &GlueProgram) -> impl Iterator<Item = &sage::runtime::FunctionDescriptor> {
    program.functions.iter().filter(|f| f.role == FnRole::Sink)
}

/// Hash of every stripe every sink absorbed, in (function, iteration,
/// thread) order. A missing stripe hashes as a marker word, so a short
/// stream never equals a complete one.
pub fn sink_checksum(program: &GlueProgram, results: &SinkResults, iterations: u32) -> u64 {
    let mut h = FNV_OFFSET;
    for f in sinks(program) {
        for iter in 0..iterations {
            for thread in 0..f.threads {
                match results.stripe(f.id, iter, thread) {
                    Some(bytes) => h = hash_words(h, bytes),
                    None => h = hash_words(h, b"\xffmissing"),
                }
            }
        }
    }
    h
}

/// The assembled payload the (last) sink absorbed on `iteration`.
pub fn last_sink_frame(
    program: &GlueProgram,
    results: &SinkResults,
    iteration: u32,
) -> Option<Vec<u8>> {
    let sink = sinks(program).last()?;
    results.assemble(program, sink.id, iteration)
}

/// Which serial reference a workload's frames are held against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reference {
    /// Transposed 2-D FFT of the seeded input.
    Fft2d,
    /// Plain transpose of the seeded input.
    CornerTurn,
    /// Hamming shading, spatial DFT across channels, beam power.
    Beamformer,
}

fn dft_rows(m: &Matrix) -> Matrix {
    let mut out = Vec::with_capacity(m.len());
    for r in 0..m.rows() {
        out.extend(dft_reference(m.row(r), FftDirection::Forward));
    }
    Matrix::from_vec(m.rows(), m.cols(), out)
}

/// The reference frame for `size x size` input generated from `seed`.
pub fn reference_frame(kind: Reference, size: usize, seed: u64) -> Matrix {
    let input = workload::input_matrix(seed, size);
    match kind {
        // The radix-2 path is what the distributed run uses; at 64 points
        // the O(n^2) DFT is affordable and shares nothing with it.
        Reference::Fft2d if size <= 64 => dft_rows(&dft_rows(&input).transposed()),
        Reference::Fft2d => workload::fft2d_reference_transposed(&input),
        Reference::CornerTurn => workload::corner_turn_reference(&input),
        Reference::Beamformer => {
            let denom = (size - 1) as f32;
            let shaded = Matrix::from_fn(size, size, |r, c| {
                let x = 2.0 * std::f32::consts::PI * c as f32 / denom;
                input.get(r, c).scale(0.54 - 0.46 * x.cos())
            });
            let beams = dft_rows(&shaded.transposed());
            Matrix::from_fn(size, size, |r, c| {
                Complex32::new(beams.get(r, c).norm_sqr(), 0.0)
            })
        }
    }
}

/// Relative error of an assembled sink frame against the reference.
pub fn reference_error(kind: Reference, size: usize, seed: u64, frame: &[u8]) -> f32 {
    let got = from_bytes(frame);
    if got.len() != size * size {
        return f32::INFINITY;
    }
    let got = Matrix::from_vec(size, size, got);
    workload::relative_error(&reference_frame(kind, size, seed), &got)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_hash_sees_every_byte() {
        let base = vec![7u8; 37];
        let h0 = hash_words(FNV_OFFSET, &base);
        for i in 0..base.len() {
            let mut v = base.clone();
            v[i] ^= 1;
            assert_ne!(hash_words(FNV_OFFSET, &v), h0, "byte {i}");
        }
        assert_ne!(hash_words(FNV_OFFSET, &base[..36]), h0);
    }

    #[test]
    fn dft_reference_agrees_with_the_radix2_reference() {
        let slow = reference_frame(Reference::Fft2d, 64, 11);
        let fast = workload::fft2d_reference_transposed(&workload::input_matrix(11, 64));
        assert!(workload::relative_error(&fast, &slow) < REFERENCE_TOLERANCE);
    }
}
