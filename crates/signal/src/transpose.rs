//! Matrix transposition — the compute core of the **Distributed Corner Turn**.
//!
//! A "corner turn" in embedded radar/signal processing is the re-distribution
//! of a matrix so that a processing chain can switch from row-oriented to
//! column-oriented access (e.g. range processing followed by Doppler
//! processing). Locally it is a transpose; distributed across nodes it is an
//! all-to-all exchange of tiles plus local tile transposes (implemented in
//! `sage-apps`). This module provides the naive reference and one
//! cache-blocked core, [`transpose_strided`], which writes destination rows
//! in order: the SAGE kernel ([`transpose_blocked`]) and the hand-coded
//! baseline's transposing unpack both run it.

use crate::complex::Complex32;

/// Default tile edge for [`transpose_blocked`] and [`transpose_strided`].
/// A 32-sample tile row is 256 bytes, four whole cache lines, written in
/// order. Measured on a 2-vCPU x86-64 Xeon (48 KiB 12-way L1d), the write
/// order is what matters: a 512 x 256 stripe turns in ~110–140 µs at this
/// edge against ~520–600 µs when a tile's stores run down destination
/// columns. Edges of 16 to 128 land within noise of 32; an edge of 8 is
/// slower.
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

/// Cache-blocked out-of-place transpose with tile edge `block`: the dense
/// case of [`transpose_strided`].
///
/// Produces exactly the same result as [`transpose`].
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
    assert_eq!(dst.len(), rows * cols, "destination shape mismatch");
    transpose_strided(src, dst, rows, cols, rows, block);
}

/// Transposes the row-major `rows x cols` matrix `src` into `dst`, whose
/// rows are `stride` elements apart: element `(r, c)` lands at
/// `dst[c * stride + r]`, so a tile can be turned into place inside a wider
/// matrix. Elements of `dst` outside those `cols` row segments are left
/// untouched.
///
/// The matrix is walked in `block x block` tiles, and within a tile the
/// innermost loop writes one destination row in order while it reads a
/// source column. Storing down a destination column instead puts every
/// store of a tile row `stride` elements apart; at a power-of-two stride of
/// 256 or more they fall into one or two cache sets and evict each other.
///
/// # Panics
/// Panics if `src` is not `rows x cols`, `stride < rows`, `dst` is too short
/// for the last destination row, or `block == 0`.
pub fn transpose_strided(
    src: &[Complex32],
    dst: &mut [Complex32],
    rows: usize,
    cols: usize,
    stride: usize,
    block: usize,
) {
    assert_eq!(src.len(), rows * cols, "source shape mismatch");
    assert!(stride >= rows, "destination stride {stride} < {rows} rows");
    let needed = cols.checked_sub(1).map_or(0, |last| last * stride + rows);
    assert!(dst.len() >= needed, "destination too short");
    assert!(block > 0, "block must be positive");
    for rb in (0..rows).step_by(block) {
        let r_end = (rb + block).min(rows);
        for cb in (0..cols).step_by(block) {
            let c_end = (cb + block).min(cols);
            for c in cb..c_end {
                let column = src[rb * cols + c..].iter().step_by(cols);
                let row = &mut dst[c * stride + rb..c * stride + r_end];
                for (d, s) in row.iter_mut().zip(column) {
                    *d = *s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::as_bytes;

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

    /// Samples whose bit patterns a float `==` would not pin: NaNs with
    /// distinct payloads, `-0.0`, subnormals and infinities, between
    /// ordinary values that number every position.
    fn awkward(rows: usize, cols: usize) -> Vec<Complex32> {
        let special = [
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffa0_beef),
            -0.0,
            f32::from_bits(1),
            -f32::MIN_POSITIVE / 3.0,
            f32::NEG_INFINITY,
        ];
        (0..rows * cols)
            .map(|i| match i % 3 {
                0 => Complex32::new(i as f32, special[i % special.len()]),
                1 => Complex32::new(special[(i / 3) % special.len()], -(i as f32)),
                _ => Complex32::new(-(i as f32) * 0.5, i as f32 + 0.25),
            })
            .collect()
    }

    #[test]
    fn blocked_matches_naive_various_shapes() {
        let shapes = [
            (1, 37),
            (37, 1),
            (33, 65),
            (17, 5),
            (8, 8),
            (512, 256),
            (256, 512),
        ];
        for (rows, cols) in shapes {
            let src = awkward(rows, cols);
            let mut want = vec![Complex32::ZERO; rows * cols];
            transpose(&src, &mut want, rows, cols);
            for block in [1, 3, 32, 64] {
                let mut got = vec![Complex32::new(7.0, 7.0); rows * cols];
                transpose_blocked(&src, &mut got, rows, cols, block);
                assert!(
                    as_bytes(&got) == as_bytes(&want),
                    "shape {rows}x{cols} block {block}"
                );
            }
        }
    }

    #[test]
    fn strided_turns_a_tile_into_place_and_leaves_the_rest() {
        // A 5 x 3 tile turned into columns 4..9 of a 3 x 11 matrix.
        let (rows, cols, stride, offset) = (5, 3, 11, 4);
        let src = awkward(rows, cols);
        let mut tile_t = vec![Complex32::ZERO; rows * cols];
        transpose(&src, &mut tile_t, rows, cols);
        let fill_value = Complex32::new(-1.0, 2.0);
        for block in [1, 2, 32] {
            let mut dst = vec![fill_value; cols * stride];
            transpose_strided(&src, &mut dst[offset..], rows, cols, stride, block);
            for (c, row) in dst.chunks(stride).enumerate() {
                let want = &tile_t[c * rows..(c + 1) * rows];
                assert!(as_bytes(&row[offset..offset + rows]) == as_bytes(want));
                let mut rest = row[..offset].iter().chain(&row[offset + rows..]);
                assert!(rest.all(|z| *z == fill_value), "block {block}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "destination too short")]
    fn strided_rejects_a_short_destination() {
        let src = fill(4, 3);
        let mut dst = vec![Complex32::ZERO; 2 * 8 + 3];
        transpose_strided(&src, &mut dst, 4, 3, 8, 32);
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
