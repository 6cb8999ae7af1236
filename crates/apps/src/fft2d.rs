//! The **Parallel 2D FFT** benchmark (paper §3.1), in both forms.
//!
//! Decomposition (standard transpose algorithm): each node FFTs its row
//! stripe, the matrix is corner-turned (all-to-all), and each node FFTs its
//! stripe of the transposed matrix. The distributed output is therefore the
//! **transposed** 2D FFT, which [`crate::workload`] provides a reference
//! for.

use crate::dist;
use crate::kernels::register_kernels;
use crate::workload;
use sage_core::{Project, ProjectError};
use sage_fabric::{FabricMetrics, MachineSpec, TimePolicy};
use sage_model::{AppGraph, Block, CostModel, DataType, HardwareShelf, Port, PropValue, Striping};
use sage_runtime::RuntimeOptions;
use sage_signal::cost;
use sage_signal::Matrix;
use std::time::Duration;

/// The outcome of one distributed run (either form).
#[derive(Debug)]
pub struct DistRun {
    /// Virtual seconds per iteration (0 in real-time mode).
    pub per_iter_secs: f64,
    /// Total virtual makespan.
    pub makespan: f64,
    /// Host wall-clock time.
    pub wall: Duration,
    /// Assembled result of the final iteration (the transposed 2D FFT).
    pub result: Matrix,
    /// Per-node fabric counters (traffic, faults, retries, lost time).
    pub metrics: FabricMetrics,
}

/// Default workload seed (the benchmark data set identity).
pub const SEED: u64 = 0x5A6E;

/// Builds the SAGE Designer model of the parallel 2D FFT on `threads`
/// threads over a `size x size` complex matrix.
pub fn sage_model(size: usize, threads: usize) -> AppGraph {
    assert!(size.is_power_of_two(), "benchmark sizes are powers of two");
    assert_eq!(size % threads, 0);
    let mat = DataType::complex_matrix(size, size);
    let mat_t = DataType::complex_matrix(size, size); // square: same type
    let mut g = AppGraph::new(format!("parallel_2d_fft_{size}"));
    let to_cm = |k: cost::KernelCost| CostModel::new(k.flops, k.mem_bytes);

    let src = g.add_block(
        Block::source_threaded(
            "src",
            threads,
            vec![Port::output("out", mat.clone(), Striping::BY_ROWS)],
        )
        .with_prop("kernel", PropValue::Str("workload.matrix".into()))
        .with_prop("seed", PropValue::Int(SEED as i64)),
    );
    let fftr = g.add_block(Block::primitive(
        "row_fft",
        "isspl.fft_rows",
        threads,
        to_cm(cost::fft_rows_cost(size, size)),
        vec![
            Port::input("in", mat.clone(), Striping::BY_ROWS),
            Port::output("out", mat.clone(), Striping::BY_ROWS),
        ],
    ));
    let fftc = g.add_block(Block::primitive(
        "col_fft",
        "isspl.transpose_fft_rows",
        threads,
        to_cm(cost::transpose_cost(size, size).plus(cost::fft_rows_cost(size, size))),
        vec![
            Port::input("in", mat.clone(), Striping::BY_COLS),
            Port::output("out", mat_t.clone(), Striping::BY_ROWS),
        ],
    ));
    let snk = g.add_block(Block::sink_threaded(
        "snk",
        threads,
        vec![Port::input("in", mat_t, Striping::BY_ROWS)],
    ));
    g.connect(src, "out", fftr, "in").expect("model wiring");
    g.connect(fftr, "out", fftc, "in").expect("model wiring");
    g.connect(fftc, "out", snk, "in").expect("model wiring");
    g
}

/// Builds the full project (model + CSPI hardware + kernels) for `nodes`
/// nodes.
pub fn sage_project(size: usize, nodes: usize) -> Project {
    let mut p = Project::new(
        sage_model(size, nodes),
        HardwareShelf::cspi_with_nodes(nodes),
    );
    register_kernels(&mut p.registry);
    p
}

/// Runs the SAGE auto-generated form.
pub fn run_sage(
    size: usize,
    nodes: usize,
    policy: TimePolicy,
    options: &RuntimeOptions,
    iterations: u32,
) -> DistRun {
    try_run_sage(size, nodes, policy, options, iterations).expect("execution")
}

/// Fallible variant of [`run_sage`]: surfaces injected-fault failures (via
/// `RuntimeOptions::with_faults`) as structured [`ProjectError`]s instead of
/// panicking, so chaos tests can distinguish a typed failure from silent
/// corruption.
pub fn try_run_sage(
    size: usize,
    nodes: usize,
    policy: TimePolicy,
    options: &RuntimeOptions,
    iterations: u32,
) -> Result<DistRun, ProjectError> {
    dist::run_project(
        &sage_project(size, nodes),
        size,
        policy,
        options,
        iterations,
    )
}

/// Runs the hand-coded MPI form on the same machine model.
pub fn run_hand_coded(size: usize, nodes: usize, policy: TimePolicy, iterations: u32) -> DistRun {
    let machine = MachineSpec::from_hardware(&HardwareShelf::cspi_with_nodes(nodes));
    dist::run_hand_coded(machine, policy, size, iterations, true)
}

/// Relative error of a run's result against the serial reference.
pub fn verify(run: &DistRun, size: usize) -> f32 {
    let reference = workload::fft2d_reference_transposed(&workload::input_matrix(SEED, size));
    workload::relative_error(&reference, &run.result)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f32 = 2e-3;

    #[test]
    fn hand_coded_matches_reference() {
        let run = run_hand_coded(32, 4, TimePolicy::Virtual, 1);
        assert!(verify(&run, 32) < TOL, "err {}", verify(&run, 32));
        assert!(run.makespan > 0.0);
    }

    #[test]
    fn sage_matches_reference() {
        let run = run_sage(
            32,
            4,
            TimePolicy::Virtual,
            &RuntimeOptions::paper_faithful(),
            1,
        );
        assert!(verify(&run, 32) < TOL, "err {}", verify(&run, 32));
    }

    #[test]
    fn sage_and_hand_agree_bitwise() {
        // Same kernels, same exchange: the two forms should agree to
        // rounding (identical operation order per element in fact).
        let a = run_sage(
            16,
            2,
            TimePolicy::Virtual,
            &RuntimeOptions::paper_faithful(),
            1,
        );
        let b = run_hand_coded(16, 2, TimePolicy::Virtual, 1);
        assert_eq!(a.result.max_abs_diff(&b.result), 0.0);
    }

    #[test]
    fn sage_is_slower_but_comparable() {
        let sage = run_sage(
            64,
            4,
            TimePolicy::Virtual,
            &RuntimeOptions::paper_faithful(),
            2,
        );
        let hand = run_hand_coded(64, 4, TimePolicy::Virtual, 2);
        let pct = hand.per_iter_secs / sage.per_iter_secs;
        assert!(pct < 1.0, "SAGE should carry overhead (pct={pct})");
        assert!(pct > 0.5, "SAGE should stay comparable (pct={pct})");
    }

    #[test]
    fn real_mode_also_verifies() {
        let run = run_sage(16, 2, TimePolicy::Real, &RuntimeOptions::optimized(), 1);
        assert!(verify(&run, 16) < TOL);
    }

    #[test]
    fn model_flattens_and_validates() {
        let m = sage_model(64, 8);
        let flat = m.flatten().unwrap();
        assert!(sage_model::validate(&flat).is_ok());
        assert_eq!(flat.block_count(), 4);
        assert_eq!(flat.connections().len(), 3);
    }
}
