//! Single-precision complex arithmetic.
//!
//! The benchmark data of the paper (2D FFT and corner turn on 256/512/1024
//! square matrices) is single-precision complex, the native element type of
//! the ISSPL library on the PowerPC 603e. We implement our own small complex
//! type rather than pulling in an extra dependency; the layout is
//! `#[repr(C)]` so a `&[Complex32]` can be viewed as raw bytes for message
//! transfer without copies.

use std::borrow::Cow;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A single-precision complex number (`re + i*im`).
#[derive(Clone, Copy, Default, PartialEq)]
#[repr(C)]
pub struct Complex32 {
    /// Real component.
    pub re: f32,
    /// Imaginary component.
    pub im: f32,
}

impl Complex32 {
    /// The additive identity.
    pub const ZERO: Complex32 = Complex32 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex32 = Complex32 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex32 = Complex32 { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f32, im: f32) -> Self {
        Complex32 { re, im }
    }

    /// Creates a complex number from polar coordinates.
    #[inline]
    pub fn from_polar(r: f32, theta: f32) -> Self {
        Complex32::new(r * theta.cos(), r * theta.sin())
    }

    /// `e^{i theta}`: a point on the unit circle. This is the twiddle-factor
    /// constructor used by the FFT.
    #[inline]
    pub fn cis(theta: f32) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// The complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex32::new(self.re, -self.im)
    }

    /// The squared magnitude `re^2 + im^2` (avoids the square root).
    #[inline]
    pub fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// The magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f32 {
        self.norm_sqr().sqrt()
    }

    /// The argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f32 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f32) -> Self {
        Complex32::new(self.re * k, self.im * k)
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex32 {
    type Output = Complex32;
    #[inline]
    fn add(self, o: Complex32) -> Complex32 {
        Complex32::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Complex32 {
    type Output = Complex32;
    #[inline]
    fn sub(self, o: Complex32) -> Complex32 {
        Complex32::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, o: Complex32) -> Complex32 {
        Complex32::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div for Complex32 {
    type Output = Complex32;
    #[inline]
    fn div(self, o: Complex32) -> Complex32 {
        let d = o.norm_sqr();
        Complex32::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }
}

impl Neg for Complex32 {
    type Output = Complex32;
    #[inline]
    fn neg(self) -> Complex32 {
        Complex32::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex32 {
    #[inline]
    fn add_assign(&mut self, o: Complex32) {
        *self = *self + o;
    }
}

impl SubAssign for Complex32 {
    #[inline]
    fn sub_assign(&mut self, o: Complex32) {
        *self = *self - o;
    }
}

impl MulAssign for Complex32 {
    #[inline]
    fn mul_assign(&mut self, o: Complex32) {
        *self = *self * o;
    }
}

impl Mul<f32> for Complex32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, k: f32) -> Complex32 {
        self.scale(k)
    }
}

impl Sum for Complex32 {
    fn sum<I: Iterator<Item = Complex32>>(iter: I) -> Complex32 {
        iter.fold(Complex32::ZERO, |a, b| a + b)
    }
}

impl From<f32> for Complex32 {
    #[inline]
    fn from(re: f32) -> Self {
        Complex32::new(re, 0.0)
    }
}

impl fmt::Debug for Complex32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl fmt::Display for Complex32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Views a complex slice as raw bytes (for zero-copy message transfer).
pub fn as_bytes(data: &[Complex32]) -> &[u8] {
    // SAFETY: Complex32 is #[repr(C)] with two f32 fields, no padding, and
    // any bit pattern of the underlying bytes is a valid f32 pair.
    unsafe { std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data)) }
}

/// Copies raw bytes into a freshly allocated complex vector (any alignment).
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of 8.
pub fn from_bytes(bytes: &[u8]) -> Vec<Complex32> {
    assert_eq!(bytes.len() % std::mem::size_of::<Complex32>(), 0);
    let n = bytes.len() / std::mem::size_of::<Complex32>();
    let mut out = vec![Complex32::ZERO; n];
    // SAFETY: `out` owns exactly `bytes.len()` bytes (`n * 8`, checked
    // above), the two regions cannot overlap (`out` was just allocated),
    // byte copies need no alignment of the source, and every bit pattern is
    // a valid `f32` pair.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr() as *mut u8, bytes.len());
    }
    out
}

/// Views raw bytes as complex samples without copying — the way kernels
/// read a stripe. A slice that is not 4-byte aligned or not a whole number
/// of samples cannot be viewed and takes [`from_bytes`]'s copying path
/// instead (and its panic on a ragged length), so the result is the same
/// either way.
pub fn view(bytes: &[u8]) -> Cow<'_, [Complex32]> {
    // SAFETY: `Complex32` is `#[repr(C)]` over two `f32`s with no padding,
    // and every bit pattern is a valid `f32` pair; `align_to` itself keeps
    // the middle slice aligned and in bounds.
    let (head, samples, tail) = unsafe { bytes.align_to::<Complex32>() };
    if head.is_empty() && tail.is_empty() {
        Cow::Borrowed(samples)
    } else {
        Cow::Owned(from_bytes(bytes))
    }
}

/// Runs `f` over raw bytes viewed as mutable complex samples — the way
/// kernels write a stripe in place. A slice that cannot be viewed (see
/// [`view`]) is copied out, handed to `f` and copied back, so `f` observes
/// and leaves the same bytes either way.
pub fn with_view_mut<R>(bytes: &mut [u8], f: impl FnOnce(&mut [Complex32]) -> R) -> R {
    // SAFETY: as in `view`; in addition every `Complex32` bit pattern is a
    // valid byte sequence, so writes through the view leave `bytes` valid.
    let (head, samples, tail) = unsafe { bytes.align_to_mut::<Complex32>() };
    if head.is_empty() && tail.is_empty() {
        return f(samples);
    }
    let mut copy = from_bytes(bytes);
    let result = f(&mut copy);
    bytes.copy_from_slice(as_bytes(&copy));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex32, b: Complex32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex32::new(3.0, -4.0);
        assert_eq!(z + Complex32::ZERO, z);
        assert_eq!(z * Complex32::ONE, z);
        assert_eq!(z - z, Complex32::ZERO);
        assert!(close(z / z, Complex32::ONE));
    }

    #[test]
    fn magnitude_and_conjugate() {
        let z = Complex32::new(3.0, 4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.conj(), Complex32::new(3.0, -4.0));
        // z * conj(z) = |z|^2
        assert!(close(z * z.conj(), Complex32::new(25.0, 0.0)));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex32::I * Complex32::I, Complex32::new(-1.0, 0.0));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex32::from_polar(2.0, 0.5);
        assert!((z.abs() - 2.0).abs() < 1e-6);
        assert!((z.arg() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn cis_is_unit_circle() {
        for k in 0..16 {
            let theta = k as f32 * std::f32::consts::PI / 8.0;
            assert!((Complex32::cis(theta).abs() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn mul_matches_expanded_formula() {
        let a = Complex32::new(1.5, -2.5);
        let b = Complex32::new(-0.5, 4.0);
        let c = a * b;
        assert!((c.re - (1.5 * -0.5 - -2.5 * 4.0)).abs() < 1e-6);
        assert!((c.im - (1.5 * 4.0 + -2.5 * -0.5)).abs() < 1e-6);
    }

    #[test]
    fn byte_round_trip() {
        let data = vec![Complex32::new(1.0, 2.0), Complex32::new(-3.5, 0.25)];
        let bytes = as_bytes(&data);
        assert_eq!(bytes.len(), 16);
        let back = from_bytes(bytes);
        assert_eq!(back, data);
    }

    /// A 16-byte window of `raw` starting `extra` bytes past a
    /// `Complex32`-aligned address, holding `data`.
    fn window<'a>(raw: &'a mut Vec<u8>, extra: usize, data: &[Complex32]) -> &'a mut [u8] {
        raw.resize(16 + 8, 0);
        let skew = raw.as_ptr().align_offset(std::mem::align_of::<Complex32>()) + extra;
        let window = &mut raw[skew..skew + 16];
        window.copy_from_slice(as_bytes(data));
        window
    }

    #[test]
    fn views_borrow_aligned_bytes_in_place() {
        let data = vec![Complex32::new(1.0, 2.0), Complex32::new(-3.5, 0.25)];
        let mut raw = Vec::new();
        let bytes = window(&mut raw, 0, &data);
        let at = bytes.as_ptr();

        let seen = view(bytes);
        assert!(matches!(seen, Cow::Borrowed(_)));
        assert_eq!(seen.as_ptr() as *const u8, at);
        assert_eq!(&seen[..], &data[..]);

        // The mutable view writes through to the same storage.
        let seen_at = with_view_mut(bytes, |s| {
            s[1] = s[1].scale(2.0);
            s.as_ptr() as *const u8
        });
        assert_eq!(seen_at, at, "an aligned slice is viewed, not copied");
        assert_eq!(from_bytes(bytes), vec![data[0], data[1].scale(2.0)]);
    }

    #[test]
    fn misaligned_views_fall_back_to_the_copying_path() {
        let data = vec![Complex32::new(1.0, 2.0), Complex32::new(-3.5, 0.25)];
        // One byte past a 4-byte boundary: never viewable in place.
        let mut raw = Vec::new();
        let bytes = window(&mut raw, 1, &data);

        let seen = view(bytes);
        assert!(matches!(seen, Cow::Owned(_)));
        assert_eq!(&seen[..], &data[..]);

        // The closure's writes still land in the caller's bytes.
        let len = with_view_mut(bytes, |s| {
            s[0] = Complex32::new(9.0, -9.0);
            s.len()
        });
        assert_eq!(len, 2);
        assert_eq!(from_bytes(bytes), vec![Complex32::new(9.0, -9.0), data[1]]);
    }

    #[test]
    #[should_panic]
    fn ragged_views_panic_like_from_bytes() {
        let data = [Complex32::ONE, Complex32::I];
        view(&as_bytes(&data)[..12]);
    }

    #[test]
    fn sum_folds() {
        let s: Complex32 = (0..4).map(|k| Complex32::new(k as f32, 1.0)).sum();
        assert_eq!(s, Complex32::new(6.0, 4.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", Complex32::new(1.0, -2.0)), "1-2i");
        assert_eq!(format!("{}", Complex32::new(1.0, 2.0)), "1+2i");
    }
}
