//! Matrix transposition — the compute core of the **Distributed Corner Turn**.
//!
//! A "corner turn" in embedded radar/signal processing is the re-distribution
//! of a matrix so that a processing chain can switch from row-oriented to
//! column-oriented access (e.g. range processing followed by Doppler
//! processing). Locally it is a transpose; distributed across nodes it is an
//! all-to-all exchange of tiles plus local tile transposes (implemented in
//! `sage-apps`). This module provides the local kernels, including a
//! cache-blocked variant appropriate for the large (1024x1024) paper
//! workloads.

use crate::complex::Complex32;

/// Default tile edge for [`transpose_blocked`]; 32 complex elements = 256
/// bytes per tile row, a good fit for small data caches like the 603e's.
pub const DEFAULT_BLOCK: usize = 32;

/// Naive out-of-place transpose of a row-major `rows x cols` matrix into a
/// `cols x rows` destination.
///
/// # Panics
/// Panics if the buffers do not match the given shape.
pub fn transpose(src: &[Complex32], dst: &mut [Complex32], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "source shape mismatch");
    assert_eq!(dst.len(), rows * cols, "destination shape mismatch");
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// Cache-blocked out-of-place transpose with tile edge `block`.
///
/// Produces exactly the same result as [`transpose`] but walks the matrix in
/// `block x block` tiles so that both source reads and destination writes
/// stay within cache lines for longer.
///
/// # Panics
/// Panics if the buffers do not match the given shape or `block == 0`.
pub fn transpose_blocked(
    src: &[Complex32],
    dst: &mut [Complex32],
    rows: usize,
    cols: usize,
    block: usize,
) {
    assert_eq!(src.len(), rows * cols, "source shape mismatch");
    assert_eq!(dst.len(), rows * cols, "destination shape mismatch");
    assert!(block > 0, "block must be positive");
    for rb in (0..rows).step_by(block) {
        let r_end = (rb + block).min(rows);
        for cb in (0..cols).step_by(block) {
            let c_end = (cb + block).min(cols);
            for r in rb..r_end {
                for c in cb..c_end {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(rows: usize, cols: usize) -> Vec<Complex32> {
        (0..rows * cols)
            .map(|i| Complex32::new(i as f32, -(i as f32) * 0.5))
            .collect()
    }

    #[test]
    fn naive_transpose_rectangular() {
        let src = fill(3, 4);
        let mut dst = vec![Complex32::ZERO; 12];
        transpose(&src, &mut dst, 3, 4);
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(dst[c * 3 + r], src[r * 4 + c]);
            }
        }
    }

    #[test]
    fn blocked_matches_naive_various_shapes() {
        for &(rows, cols, block) in &[(8, 8, 4), (17, 5, 4), (33, 65, 32), (1, 9, 3), (64, 64, 32)]
        {
            let src = fill(rows, cols);
            let mut a = vec![Complex32::ZERO; rows * cols];
            let mut b = vec![Complex32::ZERO; rows * cols];
            transpose(&src, &mut a, rows, cols);
            transpose_blocked(&src, &mut b, rows, cols, block);
            assert_eq!(a, b, "shape {rows}x{cols} block {block}");
        }
    }

    #[test]
    fn double_transpose_is_identity() {
        let src = fill(6, 10);
        let mut once = vec![Complex32::ZERO; 60];
        let mut twice = vec![Complex32::ZERO; 60];
        transpose(&src, &mut once, 6, 10);
        transpose(&once, &mut twice, 10, 6);
        assert_eq!(src, twice);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn rejects_wrong_shape() {
        let src = fill(2, 3);
        let mut dst = vec![Complex32::ZERO; 5];
        transpose(&src, &mut dst, 2, 3);
    }
}
