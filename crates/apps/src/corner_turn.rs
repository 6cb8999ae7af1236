//! The **Distributed Corner Turn** benchmark (paper §3.1), in both forms.
//!
//! The matrix starts row-striped across the nodes and must end up
//! column-striped (equivalently: row-striped in transposed form) — the
//! re-orientation every radar chain performs between range and Doppler
//! processing. The hand-coded form is pack → vendor `MPI_All_to_All` →
//! transposing unpack; the SAGE form is a row-striped source feeding a
//! column-striped transpose function, with the run-time's striping engine
//! carrying the exchange.

use crate::dist;
use crate::fft2d::{DistRun, SEED};
use crate::kernels::register_kernels;
use crate::workload;
use sage_core::{Project, ProjectError};
use sage_fabric::{MachineSpec, TimePolicy};
use sage_model::{AppGraph, Block, CostModel, DataType, HardwareShelf, Port, PropValue, Striping};
use sage_runtime::RuntimeOptions;
use sage_signal::cost;

/// Builds the SAGE Designer model of the distributed corner turn.
pub fn sage_model(size: usize, threads: usize) -> AppGraph {
    assert_eq!(size % threads, 0);
    let mat = DataType::complex_matrix(size, size);
    let mut g = AppGraph::new(format!("corner_turn_{size}"));
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
    let ct = g.add_block(Block::primitive(
        "corner_turn",
        "isspl.transpose",
        threads,
        to_cm(cost::transpose_cost(size, size)),
        vec![
            Port::input("in", mat.clone(), Striping::BY_COLS),
            Port::output("out", mat.clone(), Striping::BY_ROWS),
        ],
    ));
    let snk = g.add_block(Block::sink_threaded(
        "snk",
        threads,
        vec![Port::input("in", mat, Striping::BY_ROWS)],
    ));
    g.connect(src, "out", ct, "in").expect("model wiring");
    g.connect(ct, "out", snk, "in").expect("model wiring");
    g
}

/// Builds the full project for `nodes` CSPI nodes.
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

/// Fallible variant of [`run_sage`]: surfaces injected-fault failures as
/// structured [`ProjectError`]s instead of panicking.
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

/// Runs the hand-coded MPI form.
pub fn run_hand_coded(size: usize, nodes: usize, policy: TimePolicy, iterations: u32) -> DistRun {
    let machine = MachineSpec::from_hardware(&HardwareShelf::cspi_with_nodes(nodes));
    dist::run_hand_coded(machine, policy, size, iterations, false)
}

/// Relative error against the serial transpose (0 expected: the corner turn
/// moves data without arithmetic).
pub fn verify(run: &DistRun, size: usize) -> f32 {
    let reference = workload::corner_turn_reference(&workload::input_matrix(SEED, size));
    workload::relative_error(&reference, &run.result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_coded_is_exact() {
        let run = run_hand_coded(32, 4, TimePolicy::Virtual, 1);
        assert_eq!(verify(&run, 32), 0.0);
    }

    #[test]
    fn sage_is_exact() {
        let run = run_sage(
            32,
            4,
            TimePolicy::Virtual,
            &RuntimeOptions::paper_faithful(),
            1,
        );
        assert_eq!(verify(&run, 32), 0.0);
    }

    #[test]
    fn works_on_two_nodes_and_odd_node_counts() {
        for nodes in [1usize, 2, 8] {
            let run = run_sage(
                32,
                nodes,
                TimePolicy::Virtual,
                &RuntimeOptions::paper_faithful(),
                1,
            );
            assert_eq!(verify(&run, 32), 0.0, "nodes={nodes}");
        }
    }

    #[test]
    fn sage_overhead_is_worst_at_two_nodes() {
        // Paper §3.4: "A performance hit was taken on a two-node
        // configuration" — the unique-buffer copies scale with the local
        // stripe, which is biggest at small node counts.
        let pct = |nodes| {
            let sage = run_sage(
                128,
                nodes,
                TimePolicy::Virtual,
                &RuntimeOptions::paper_faithful(),
                2,
            );
            let hand = run_hand_coded(128, nodes, TimePolicy::Virtual, 2);
            hand.per_iter_secs / sage.per_iter_secs
        };
        let two = pct(2);
        let eight = pct(8);
        assert!(
            two < eight,
            "2-node pct {two} should be below 8-node {eight}"
        );
    }

    #[test]
    fn optimized_runtime_closes_the_gap() {
        let paper = run_sage(
            64,
            4,
            TimePolicy::Virtual,
            &RuntimeOptions::paper_faithful(),
            2,
        );
        let improved = run_sage(64, 4, TimePolicy::Virtual, &RuntimeOptions::optimized(), 2);
        assert!(improved.per_iter_secs < paper.per_iter_secs);
    }
}
