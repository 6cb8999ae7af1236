//! Frequency-domain image filtering — a computer-vision/image-processing
//! application (the second domain the paper's introduction motivates).
//!
//! The pipeline low-passes a complex "image" through the 2D frequency
//! domain: forward 2D FFT (row FFTs + corner turn + row FFTs), an ideal
//! low-pass mask, then the inverse transform (two more corner-turn +
//! inverse-FFT stages). Seven functions, **three** distributed corner turns
//! — a much deeper exercise of the striping engine than the Table 1.0
//! benchmarks.
//!
//! Orientation bookkeeping (square `N x N`): the forward half leaves the
//! spectrum transposed; the two inverse stages each transpose again, so the
//! final sink payload is the **transposed** filtered image.

use crate::fft2d::SEED;
use crate::kernels::register_kernels;
use crate::workload;
use sage_core::Project;
use sage_fabric::TimePolicy;
use sage_model::{AppGraph, Block, CostModel, DataType, HardwareShelf, Port, PropValue, Striping};
use sage_runtime::RuntimeOptions;
use sage_signal::cost;
use sage_signal::fft::{Fft1d, FftDirection};
use sage_signal::Matrix;

/// Builds the Designer model of the frequency-domain low-pass filter.
pub fn sage_model(size: usize, threads: usize, radius: usize) -> AppGraph {
    assert!(size.is_power_of_two());
    assert_eq!(size % threads, 0);
    let mat = DataType::complex_matrix(size, size);
    let mut g = AppGraph::new(format!("image_lowpass_{size}"));
    let to_cm = |k: cost::KernelCost| CostModel::new(k.flops, k.mem_bytes);
    let fft_cost = to_cm(cost::transpose_cost(size, size).plus(cost::fft_rows_cost(size, size)));

    let src = g.add_block(
        Block::source_threaded(
            "image",
            threads,
            vec![Port::output("out", mat.clone(), Striping::BY_ROWS)],
        )
        .with_prop("kernel", PropValue::Str("workload.matrix".into()))
        .with_prop("seed", PropValue::Int(SEED as i64)),
    );
    let fr = g.add_block(Block::primitive(
        "row_fft",
        "isspl.fft_rows",
        threads,
        to_cm(cost::fft_rows_cost(size, size)),
        vec![
            Port::input("in", mat.clone(), Striping::BY_ROWS),
            Port::output("out", mat.clone(), Striping::BY_ROWS),
        ],
    ));
    let fc = g.add_block(Block::primitive(
        "col_fft",
        "isspl.transpose_fft_rows",
        threads,
        fft_cost,
        vec![
            Port::input("in", mat.clone(), Striping::BY_COLS),
            Port::output("out", mat.clone(), Striping::BY_ROWS),
        ],
    ));
    let mask = g.add_block(
        Block::primitive(
            "lowpass",
            "isspl.lowpass_mask",
            threads,
            to_cm(cost::magnitude_cost(size * size)),
            vec![
                Port::input("in", mat.clone(), Striping::BY_ROWS),
                Port::output("out", mat.clone(), Striping::BY_ROWS),
            ],
        )
        .with_prop("radius", PropValue::Int(radius as i64)),
    );
    let ic1 = g.add_block(Block::primitive(
        "irow_fft",
        "isspl.transpose_ifft_rows",
        threads,
        fft_cost,
        vec![
            Port::input("in", mat.clone(), Striping::BY_COLS),
            Port::output("out", mat.clone(), Striping::BY_ROWS),
        ],
    ));
    let ic2 = g.add_block(Block::primitive(
        "icol_fft",
        "isspl.transpose_ifft_rows",
        threads,
        fft_cost,
        vec![
            Port::input("in", mat.clone(), Striping::BY_COLS),
            Port::output("out", mat.clone(), Striping::BY_ROWS),
        ],
    ));
    let snk = g.add_block(Block::sink_threaded(
        "filtered",
        threads,
        vec![Port::input("in", mat, Striping::BY_ROWS)],
    ));
    g.connect(src, "out", fr, "in").expect("wiring");
    g.connect(fr, "out", fc, "in").expect("wiring");
    g.connect(fc, "out", mask, "in").expect("wiring");
    g.connect(mask, "out", ic1, "in").expect("wiring");
    g.connect(ic1, "out", ic2, "in").expect("wiring");
    g.connect(ic2, "out", snk, "in").expect("wiring");
    g
}

/// Project on a CSPI machine with the kernels registered.
pub fn sage_project(size: usize, nodes: usize, radius: usize) -> Project {
    let mut p = Project::new(
        sage_model(size, nodes, radius),
        HardwareShelf::cspi_with_nodes(nodes),
    );
    register_kernels(&mut p.registry);
    p
}

/// Runs the pipeline and returns the (transposed) filtered image.
pub fn run_sage(
    size: usize,
    nodes: usize,
    radius: usize,
    options: &RuntimeOptions,
    iterations: u32,
) -> Matrix {
    let project = sage_project(size, nodes, radius);
    crate::dist::run_project(&project, size, TimePolicy::Virtual, options, iterations)
        .expect("execution")
        .result
}

/// Serial reference: 2D FFT → ideal low-pass → inverse 2D FFT, returned
/// transposed to match the distributed pipeline's orientation.
pub fn reference(size: usize, radius: usize) -> Matrix {
    let input = workload::input_matrix(SEED, size);
    let fwd = Fft1d::new(size, FftDirection::Forward);
    let inv = Fft1d::new(size, FftDirection::Inverse);
    // Forward 2D FFT.
    let mut work = input.clone();
    fwd.process_rows(work.as_mut_slice());
    let mut spec = work.transposed();
    fwd.process_rows(spec.as_mut_slice());
    // spec is F^T: spec[kc][kr]. Mask circularly.
    for kc in 0..size {
        let kcf = kc.min(size - kc);
        for kr in 0..size {
            let krf = kr.min(size - kr);
            if kcf > radius || krf > radius {
                spec.set(kc, kr, sage_signal::Complex32::ZERO);
            }
        }
    }
    // Inverse: IFFT rows of spec^T twice with transposes, mirroring the
    // distributed stages: D = IFFT_dim1(M.F) from spec^T.
    let mut d = spec.transposed(); // [R, C] = M.F
    inv.process_rows(d.as_mut_slice()); // IFFT along dim1
    let mut out = d.transposed(); // [C, R]
    inv.process_rows(out.as_mut_slice()); // IFFT along dim0 (as rows)
    out // (filtered image)^T
}

/// Relative error between the distributed run and the reference.
pub fn verify(result: &Matrix, size: usize, radius: usize) -> f32 {
    workload::relative_error(&reference(size, radius), result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filtered_image_matches_reference() {
        let out = run_sage(32, 4, 4, &RuntimeOptions::paper_faithful(), 1);
        let err = verify(&out, 32, 4);
        assert!(err < 2e-3, "relative error {err}");
    }

    #[test]
    fn mask_actually_removes_energy() {
        let narrow = run_sage(32, 2, 1, &RuntimeOptions::optimized(), 1);
        let wide = run_sage(32, 2, 16, &RuntimeOptions::optimized(), 1);
        assert!(narrow.norm() < wide.norm());
        // Radius >= size/2 keeps everything: output ~= input (transposed).
        let input_t = workload::input_matrix(SEED, 32).transposed();
        assert!(workload::relative_error(&input_t, &wide) < 2e-3);
    }

    #[test]
    fn model_has_three_corner_turns() {
        let m = sage_model(64, 8, 8);
        let flat = m.flatten().unwrap();
        let turns = flat
            .connections()
            .iter()
            .filter(|c| {
                let sp = flat.port_at(c.from).unwrap().striping;
                let sc = flat.port_at(c.to).unwrap().striping;
                sp != sc
            })
            .count();
        assert_eq!(turns, 3);
        assert!(sage_model::validate(&flat).is_ok());
    }

    #[test]
    fn works_across_node_counts() {
        let a = run_sage(32, 1, 3, &RuntimeOptions::paper_faithful(), 1);
        let b = run_sage(32, 8, 3, &RuntimeOptions::paper_faithful(), 1);
        assert!(a.max_abs_diff(&b) < 1e-5);
    }
}
