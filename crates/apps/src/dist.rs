//! The hand-coded distributed implementation: tile packing for
//! `MPI_All_to_All`, the transposing unpack, and the one driver
//! ([`run_hand_coded`]) both benchmarks and the cross-vendor sweep run,
//! exactly as the CSPI reference codes organize the exchange — plus its
//! SAGE twin ([`run_project`]), the one way a matrix project is generated,
//! executed and its sink read back.

use crate::fft2d::{DistRun, SEED};
use crate::workload;
use sage_core::{Placement, Project, ProjectError};
use sage_fabric::{Cluster, MachineSpec, Payload, TimePolicy, Transport, Work};
use sage_mpi::Communicator;
use sage_runtime::RuntimeOptions;
use sage_signal::complex::{as_bytes, from_bytes, view};
use sage_signal::cost::{self, KernelCost};
use sage_signal::fft::{Fft1d, FftDirection};
use sage_signal::transpose::{transpose_strided, DEFAULT_BLOCK};
use sage_signal::{Complex32, Matrix};

/// Packs a local row-stripe (`rl` rows of `size` columns) into one
/// contiguous tile per destination: destination `j` receives the `rl x cl`
/// tile of columns `j*cl..(j+1)*cl`, where `cl = size / n`. Each tile is
/// built once, in a message buffer from the fabric, and handed to the
/// exchange as is.
pub fn pack_tiles(local: &[Complex32], rl: usize, size: usize, n: usize) -> Vec<Payload> {
    assert_eq!(local.len(), rl * size);
    assert_eq!(size % n, 0);
    let cl = size / n;
    let row_bytes = cl * std::mem::size_of::<Complex32>();
    (0..n)
        .map(|j| {
            // Every byte of the tile is written below.
            let mut tile = Payload::scratch(rl * row_bytes);
            let bytes = tile.to_mut();
            for r in 0..rl {
                let row = &local[r * size + j * cl..r * size + (j + 1) * cl];
                bytes[r * row_bytes..(r + 1) * row_bytes].copy_from_slice(as_bytes(row));
            }
            tile
        })
        .collect()
}

/// Unpacks the received tiles (index = source rank) while transposing into
/// `out`, this rank's `cl x size` row-stripe of the **transposed** matrix.
/// Source `j`'s tile holds rows `j*rl..` of the original matrix restricted
/// to this rank's `cl` columns; together the tiles overwrite all of `out`.
/// Each tile is turned into columns `j*rl..` of `out` by the same blocked
/// core the SAGE `isspl.transpose` kernel runs.
pub fn unpack_transpose(
    tiles: &[Payload],
    rl: usize,
    cl: usize,
    size: usize,
    out: &mut [Complex32],
) {
    assert_eq!(tiles.len() * rl, size);
    assert_eq!(out.len(), cl * size);
    for (j, bytes) in tiles.iter().enumerate() {
        let tile = view(bytes);
        assert_eq!(tile.len(), rl * cl, "tile from rank {j} has wrong size");
        transpose_strided(&tile, &mut out[j * rl..], rl, cl, size, DEFAULT_BLOCK);
    }
}

/// The hand-coded MPI form of both benchmarks, the way CSPI's engineers
/// wrote the reference versions: [row FFTs →] pack → vendor-tuned
/// `MPI_All_to_All` → transposing unpack (corner turn) or column FFTs
/// straight from the received tiles (2D FFT), one rank per node of
/// `machine`. `with_fft` selects the parallel 2D FFT; without it the
/// exchange alone is the distributed corner turn.
pub fn run_hand_coded(
    machine: MachineSpec,
    policy: TimePolicy,
    size: usize,
    iterations: u32,
    with_fft: bool,
) -> DistRun {
    let nodes = machine.node_count();
    assert_eq!(size % nodes, 0);
    let rl = size / nodes; // local rows before the turn
    let cl = size / nodes; // local rows after (square matrix)
    let plan = Fft1d::new(size, FftDirection::Forward);
    let work = |c: KernelCost| Work {
        flops: c.flops,
        mem_bytes: c.mem_bytes,
        overhead_secs: 0.0,
    };

    let (stripes, report) = Cluster::new(machine, policy).run(|ctx| {
        let me = ctx.id();
        let mut comm = Communicator::new(ctx);
        // The two stripes are allocated once and reused every iteration, as
        // the run-time's recycled stripes are.
        let mut local = vec![Complex32::ZERO; rl * size];
        let mut last = vec![Complex32::ZERO; cl * size];
        for _iter in 0..iterations {
            // Input stripe arrives resident (same convention as the SAGE
            // source kernel: generation is not part of the measured work).
            workload::fill_stripe(SEED, size, me * rl, &mut local);
            if with_fft {
                comm.ctx().compute(work(cost::fft_rows_cost(rl, size)));
                plan.process_rows(&mut local);
            }
            // Pack tiles (one explicit copy of the stripe).
            comm.ctx().compute(Work::copy(local.len() * 8));
            let blocks = pack_tiles(&local, rl, size, nodes);
            let tiles = comm
                .try_alltoall(&blocks)
                .expect("hand-coded baselines run fault-free");
            // The transposing unpack completes the corner turn; the 2D FFT
            // instead reads the tiles (row blocks of the `[size, cl]` column
            // stripe) through the column FFT's gather, as the SAGE kernel
            // reads its stripe.
            comm.ctx().compute(work(cost::transpose_cost(cl, size)));
            if with_fft {
                comm.ctx().compute(work(cost::fft_rows_cost(cl, size)));
                let views: Vec<_> = tiles.iter().map(|t| view(t)).collect();
                let blocks: Vec<&[Complex32]> = views.iter().map(|v| &v[..]).collect();
                plan.process_columns_into(&blocks, &mut last);
            } else {
                unpack_transpose(&tiles, rl, cl, size, &mut last);
            }
        }
        last
    });

    // Assemble: rank me holds rows me*cl.. of the transposed result. A run
    // of no iterations turned nothing.
    let (per_iter_secs, result) = if iterations > 0 {
        (
            report.makespan / iterations as f64,
            Matrix::from_vec(size, size, stripes.concat()),
        )
    } else {
        (0.0, Matrix::zeros(size, size))
    };
    DistRun {
        per_iter_secs,
        makespan: report.makespan,
        wall: report.wall,
        result,
        metrics: report.metrics,
    }
}

/// The SAGE auto-generated form of a `size x size` matrix benchmark:
/// generates `project` with the aligned placement, executes it and
/// assembles what its sink (the last function in topological order)
/// absorbed on the final iteration. Injected-fault failures (via
/// `RuntimeOptions::with_faults`) surface as structured [`ProjectError`]s;
/// a run of no iterations absorbed nothing and reports a zero matrix.
pub fn run_project(
    project: &Project,
    size: usize,
    policy: TimePolicy,
    options: &RuntimeOptions,
    iterations: u32,
) -> Result<DistRun, ProjectError> {
    let (program, _src) = project.generate(&Placement::Aligned)?;
    let exec = project.execute(&program, policy, options, iterations)?;
    let result = match iterations.checked_sub(1) {
        Some(last) => {
            let sink_id = (program.functions.len() - 1) as u32;
            let bytes = exec.results.assemble(&program, sink_id, last);
            Matrix::from_vec(size, size, from_bytes(&bytes.expect("sink result")))
        }
        None => Matrix::zeros(size, size),
    };
    Ok(DistRun {
        per_iter_secs: exec.secs_per_iteration(),
        makespan: exec.report.makespan,
        wall: exec.report.wall,
        result,
        metrics: exec.report.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_model::HardwareShelf;

    #[test]
    fn pack_then_unpack_transposes() {
        // Simulate n ranks without any communication. Tiles of 16 and 32
        // rows fall short of and land on the transpose block edge, 256 rows
        // span several blocks.
        for (size, n) in [(8, 2), (48, 3), (96, 3), (64, 4), (512, 2)] {
            let rl = size / n;
            let cl = size / n;
            let turned = workload::input_matrix(3, size).transposed();
            let stripes: Vec<Vec<Complex32>> = (0..n)
                .map(|me| workload::input_stripe(3, size, me * rl, rl))
                .collect();
            let packed: Vec<Vec<Payload>> =
                stripes.iter().map(|s| pack_tiles(s, rl, size, n)).collect();
            // "alltoall": rank me receives packed[j][me] from each j.
            #[allow(clippy::needless_range_loop)]
            for me in 0..n {
                let tiles: Vec<Payload> = (0..n).map(|j| packed[j][me].clone()).collect();
                let mut out = vec![Complex32::new(f32::NAN, -0.0); cl * size];
                unpack_transpose(&tiles, rl, cl, size, &mut out);
                // `out` is rows me*cl.. of the transposed matrix.
                let want = &turned.as_slice()[me * cl * size..(me + 1) * cl * size];
                assert!(
                    as_bytes(&out) == as_bytes(want),
                    "size={size} n={n} me={me}"
                );
            }
        }
    }

    #[test]
    fn pack_tile_sizes() {
        let local = workload::input_stripe(1, 8, 0, 2);
        let tiles = pack_tiles(&local, 2, 8, 4);
        assert_eq!(tiles.len(), 4);
        for t in &tiles {
            assert_eq!(t.len(), 2 * 2 * 8); // rl x cl complex samples
        }
    }

    #[test]
    fn app_wrappers_are_the_one_driver_on_the_cspi_machine() {
        let cspi = || MachineSpec::from_hardware(&HardwareShelf::cspi_with_nodes(4));
        let virt = TimePolicy::Virtual;
        let ms = |r: DistRun| r.makespan.to_bits();
        assert_eq!(
            ms(run_hand_coded(cspi(), virt, 32, 2, true)),
            ms(crate::fft2d::run_hand_coded(32, 4, virt, 2))
        );
        assert_eq!(
            ms(run_hand_coded(cspi(), virt, 32, 2, false)),
            ms(crate::corner_turn::run_hand_coded(32, 4, virt, 2))
        );
    }

    #[test]
    fn zero_iterations_is_an_empty_run_not_a_panic() {
        let virt = TimePolicy::Virtual;
        let options = RuntimeOptions::paper_faithful();
        for run in [
            crate::fft2d::run_hand_coded(32, 4, virt, 0),
            crate::corner_turn::run_hand_coded(32, 4, virt, 0),
            crate::fft2d::run_sage(32, 4, virt, &options, 0),
            crate::corner_turn::run_sage(32, 4, virt, &options, 0),
        ] {
            assert_eq!(run.per_iter_secs, 0.0);
            assert_eq!(run.result, Matrix::zeros(32, 32));
        }
        let filtered = crate::image_filter::run_sage(32, 4, 4, &options, 0);
        assert_eq!(filtered, Matrix::zeros(32, 32));
    }

    #[test]
    #[should_panic]
    fn unpack_rejects_bad_tiles() {
        let tiles = vec![Payload::zeroed(8); 2];
        unpack_transpose(&tiles, 4, 4, 8, &mut [Complex32::ZERO; 32]);
    }
}
