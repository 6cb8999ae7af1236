//! # sage-signal
//!
//! Signal-processing function library for the SAGE reproduction.
//!
//! This crate plays the role of the **CSPI ISSPL functional library** that the
//! paper's experiments link against: the shelf of reusable, high-performance
//! kernels (FFTs, corner turns, windows) that the hand-coded benchmark
//! applications and the SAGE run-time invoke, plus the naive oracles their
//! tests compare against.
//!
//! Every kernel comes with an analytic **flop-cost model** ([`cost`]) so that
//! the virtual-time execution mode of `sage-fabric` can charge deterministic
//! compute time for it, exactly as the AToT optimizer estimates task costs
//! from shelf metadata in the paper.

#![warn(missing_docs)]

// The crate's only `unsafe`: the byte <-> sample casts of `view` and
// `with_view_mut`, in one module.
#[allow(unsafe_code)]
pub mod complex;
pub mod cost;
pub mod fft;
pub mod matrix;
pub mod transpose;
pub mod window;

pub use complex::Complex32;
pub use fft::{fft_1d, fft_inverse_1d, Fft1d, FftDirection};
pub use matrix::Matrix;
pub use transpose::{transpose, transpose_blocked};
