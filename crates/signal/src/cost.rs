//! Analytic cost models for the shelf kernels.
//!
//! The paper's AToT tool estimates task execution time from shelf metadata in
//! order to drive mapping and trade studies, and the virtual-time execution
//! mode charges deterministic compute time per kernel invocation. Both use
//! these models. Costs are expressed in **floating-point operations** plus
//! **bytes of memory traffic**; `sage-fabric` converts them to seconds using
//! the platform profile (clock rate, flops/cycle, memory bandwidth).

/// Cost of one kernel invocation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelCost {
    /// Floating-point operations performed.
    pub flops: f64,
    /// Bytes moved through the memory system (reads + writes).
    pub mem_bytes: f64,
}

impl KernelCost {
    /// A zero cost (e.g. for sources/sinks that only hand off buffers).
    pub const ZERO: KernelCost = KernelCost {
        flops: 0.0,
        mem_bytes: 0.0,
    };

    /// Creates a cost record.
    pub const fn new(flops: f64, mem_bytes: f64) -> Self {
        KernelCost { flops, mem_bytes }
    }

    /// Component-wise sum.
    pub fn plus(self, other: KernelCost) -> KernelCost {
        KernelCost::new(self.flops + other.flops, self.mem_bytes + other.mem_bytes)
    }

    /// Scales both components (e.g. for `k` rows of a row kernel).
    pub fn times(self, k: f64) -> KernelCost {
        KernelCost::new(self.flops * k, self.mem_bytes * k)
    }
}

/// Bytes per complex sample.
pub const COMPLEX_BYTES: f64 = 8.0;

/// Cost of one radix-2 complex FFT of length `n`.
///
/// The classic count is `5 n log2 n` real flops (per butterfly: one complex
/// multiply = 6 flops and two complex adds = 4 flops over two points).
pub fn fft_1d_cost(n: usize) -> KernelCost {
    if n <= 1 {
        return KernelCost::ZERO;
    }
    let nf = n as f64;
    let stages = nf.log2();
    KernelCost::new(5.0 * nf * stages, 2.0 * nf * COMPLEX_BYTES * stages)
}

/// Cost of FFT-ing `rows` rows of length `cols` each.
pub fn fft_rows_cost(rows: usize, cols: usize) -> KernelCost {
    fft_1d_cost(cols).times(rows as f64)
}

/// Cost of transposing a `rows x cols` complex matrix (pure data movement:
/// one read and one write per element).
pub fn transpose_cost(rows: usize, cols: usize) -> KernelCost {
    let elems = (rows * cols) as f64;
    KernelCost::new(0.0, 2.0 * elems * COMPLEX_BYTES)
}

/// Cost of applying a window to `n` complex samples (2 real multiplies each).
pub fn window_cost(n: usize) -> KernelCost {
    KernelCost::new(2.0 * n as f64, 2.0 * n as f64 * COMPLEX_BYTES)
}

/// Cost of element-wise magnitude over `n` samples (~4 flops incl. sqrt
/// approximation).
pub fn magnitude_cost(n: usize) -> KernelCost {
    KernelCost::new(4.0 * n as f64, 1.5 * n as f64 * COMPLEX_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_cost_is_n_log_n() {
        let c = fft_1d_cost(1024);
        assert!((c.flops - 5.0 * 1024.0 * 10.0).abs() < 1e-6);
        assert_eq!(fft_1d_cost(1).flops, 0.0);
    }

    #[test]
    fn fft_cost_monotone_in_n() {
        let mut prev = 0.0;
        for p in 1..=12 {
            let c = fft_1d_cost(1 << p);
            assert!(c.flops > prev);
            prev = c.flops;
        }
    }

    #[test]
    fn rows_cost_scales_linearly() {
        let one = fft_1d_cost(256);
        let many = fft_rows_cost(64, 256);
        assert!((many.flops - 64.0 * one.flops).abs() < 1e-6);
    }

    #[test]
    fn transpose_moves_every_element_twice() {
        let c = transpose_cost(100, 50);
        assert_eq!(c.flops, 0.0);
        assert_eq!(c.mem_bytes, 2.0 * 5000.0 * 8.0);
    }

    #[test]
    fn plus_and_times() {
        let a = KernelCost::new(10.0, 20.0);
        let b = KernelCost::new(1.0, 2.0);
        assert_eq!(a.plus(b), KernelCost::new(11.0, 22.0));
        assert_eq!(b.times(3.0), KernelCost::new(3.0, 6.0));
    }
}
