//! Layer micro-cells and the hand-coded baselines: direct calls into one
//! layer's public functions, each under the same calibrate / quiet-rep
//! protocol as the workloads, so a kernel, glue, wire or front-end
//! regression can be told apart without opening the program.

use crate::estimator::{self, Gate, Summary};
use crate::host;
use crate::workloads::{Program, RANKS};
use sage::apps::{corner_turn, fft2d};
use sage::fabric::{Cluster, FabricError, MachineSpec, Payload, TimePolicy, Transport};
use sage::model::{HardwareShelf, Striping};
use sage::net::wire::{write_parts, Frame, FrameKind};
use sage::net::{NetConfig, TcpTransport};
use sage::runtime::{prepare, PairOps, Redistribution};
use sage::signal::fft::{Fft1d, FftDirection};
use sage::signal::{transpose_blocked, Complex32};
use sage::visualizer::Probe;
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::Barrier;
use std::time::Instant;

/// Minimum timed work before a cell stops, seconds.
const MIN_TIMED_SECS: f64 = 0.5;
/// Target length of one batch, seconds.
const BATCH_SECS: f64 = 0.1;
/// Upper bound on operations per batch.
const MAX_BATCH_OPS: u64 = 1 << 24;

const MIB: usize = 1 << 20;
const GIB: f64 = (1u64 << 30) as f64;

/// Measures `batch(n)` — run `n` operations, return their total seconds, or
/// `None` if the layer failed — in ~0.1 s batches flanked by calibrations
/// until they hold [`MIN_TIMED_SECS`] of work; reports the per-operation
/// time (seconds) brought to the quiet-host calibration, like a workload's
/// reps.
pub fn measure(gate: &mut Gate, mut batch: impl FnMut(u64) -> Option<f64>) -> Option<Summary> {
    // Size the batch on warmed-up operations: grow `n` until a batch is long
    // enough to extrapolate from, then aim at BATCH_SECS.
    let mut n = 1u64;
    let mut pilot = batch(n)?;
    while pilot < BATCH_SECS / 10.0 && n < MAX_BATCH_OPS {
        n = (n * 8).min(MAX_BATCH_OPS);
        pilot = batch(n)?;
    }
    let n = ((n as f64 * BATCH_SECS / pilot.max(1e-9)).ceil() as u64).clamp(1, MAX_BATCH_OPS);
    let mut after = gate.calibrate_after();
    let mut flanks = Vec::new();
    let mut per_op = Vec::new();
    let mut timed_secs = 0.0;
    while timed_secs < MIN_TIMED_SECS {
        let before = gate.await_quiet(after);
        let secs = batch(n)?;
        after = gate.calibrate_after();
        flanks.push((before, after));
        per_op.push(secs / n as f64);
        timed_secs += secs;
    }
    let adjusted = estimator::adjust(&per_op, &flanks, gate.fastest());
    Some(estimator::summarize(&adjusted.values))
}

fn timed(n: u64, mut op: impl FnMut()) -> Option<f64> {
    let t0 = Instant::now();
    for _ in 0..n {
        op();
    }
    Some(t0.elapsed().as_secs_f64())
}

fn test_stripe(rows: usize, cols: usize) -> Vec<Complex32> {
    (0..rows * cols)
        .map(|i| Complex32::new((i % 97) as f32 * 0.01 - 0.5, (i % 89) as f32 * 0.01 - 0.4))
        .collect()
}

/// `Fft1d::process_rows` over a 256 x 512 stripe (one rank's share of the
/// 512-point programs), seconds per stripe.
pub fn fft_rows_512(gate: &mut Gate) -> Option<Summary> {
    let plan = Fft1d::new(512, FftDirection::Forward);
    let input = test_stripe(256, 512);
    let mut work = input.clone();
    measure(gate, |n| {
        timed(n, || {
            work.copy_from_slice(&input);
            plan.process_rows(black_box(&mut work));
        })
    })
}

/// Floating-point operations of [`fft_rows_512`]'s stripe, computed as
/// 5 N log2 N per row (not counted).
pub const FFT_ROWS_512_FLOPS: f64 = 5.0 * 512.0 * 9.0 * 256.0;

/// `transpose_blocked` of a 256 x 512 stripe, seconds per stripe.
pub fn transpose_512(gate: &mut Gate) -> Option<Summary> {
    let src = test_stripe(256, 512);
    let mut dst = vec![Complex32::ZERO; src.len()];
    measure(gate, |n| {
        timed(n, || {
            transpose_blocked(black_box(&src), black_box(&mut dst), 256, 512, 32)
        })
    })
}

fn corner_turn_plan() -> Redistribution {
    Redistribution::plan(
        &[512, 512],
        8,
        Striping::BY_ROWS,
        RANKS,
        Striping::BY_COLS,
        RANKS,
    )
}

/// `Redistribution::plan` + `pair_ops` for every pair of the 512^2
/// rows -> columns layout, seconds per plan.
pub fn plan_512(gate: &mut Gate) -> Option<Summary> {
    measure(gate, |n| {
        timed(n, || {
            let plan = corner_turn_plan();
            for i in 0..RANKS {
                for j in 0..RANKS {
                    black_box(plan.pair_ops(i, j));
                }
            }
        })
    })
}

/// Bytes one producer thread packs (or one consumer thread unpacks) per
/// operation of the pack / unpack cells.
pub const PACK_BYTES: f64 = (256 * 512 * 8) as f64;

/// `PairOps::pack_into` of one producer stripe toward both consumers (and
/// `unpack_into` of both messages into one consumer stripe): seconds per
/// 1 MiB stripe, as (pack, unpack).
pub fn pack_unpack_512(gate: &mut Gate) -> Option<(Summary, Summary)> {
    let plan = corner_turn_plan();
    let to: Vec<PairOps> = (0..RANKS).map(|j| plan.pair_ops(0, j)).collect();
    let from: Vec<PairOps> = (0..RANKS).map(|i| plan.pair_ops(i, 0)).collect();
    let stripe = vec![0x5au8; PACK_BYTES as usize];
    let mut msgs: Vec<Vec<u8>> = to.iter().map(|o| vec![0u8; o.bytes]).collect();
    let pack = measure(gate, |n| {
        timed(n, || {
            for (ops, msg) in to.iter().zip(msgs.iter_mut()) {
                ops.pack_into(black_box(&stripe), msg);
            }
        })
    })?;
    let inbox: Vec<Vec<u8>> = from.iter().map(|o| vec![0xa5u8; o.bytes]).collect();
    let mut local = vec![0u8; PACK_BYTES as usize];
    let unpack = measure(gate, |n| {
        timed(n, || {
            for (ops, msg) in from.iter().zip(&inbox) {
                ops.unpack_into(black_box(msg), &mut local);
            }
        })
    })?;
    Some((pack, unpack))
}

/// `sage_runtime::prepare` of the workload's own program, seconds per call.
pub fn prepare_cell(gate: &mut Gate, p: &Program) -> Option<Summary> {
    measure(gate, |n| {
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(prepare(&p.program, &p.project.registry).ok()?);
        }
        Some(t0.elapsed().as_secs_f64())
    })
}

/// The per-job front end on the workload's model text: seconds per call of
/// (`model_from_sexpr`, `lint_model_source`, `check_model_source`,
/// `Project::generate`).
pub fn front_end_cells(gate: &mut Gate, p: &Program) -> Option<[Summary; 4]> {
    let text = &p.model_text;
    let parse = measure(gate, |n| {
        timed(n, || {
            black_box(sage::core::model_from_sexpr(black_box(text)).is_ok());
        })
    })?;
    let lint = measure(gate, |n| {
        timed(n, || {
            black_box(sage::core::lint_model_source(black_box(text), RANKS).error_count());
        })
    })?;
    let check = measure(gate, |n| {
        timed(n, || {
            black_box(sage::core::check_model_source(black_box(text), RANKS).error_count());
        })
    })?;
    let codegen = measure(gate, |n| {
        timed(n, || {
            black_box(p.project.generate(&sage::core::Placement::Aligned).is_ok());
        })
    })?;
    Some([parse, lint, check, codegen])
}

const PING: u64 = 7;
const PONG: u64 = 8;
const DATA: u64 = 9;
const ACK: u64 = 10;

/// `rounds` 64-byte round trips; rank 0 returns the seconds they took.
fn ping_pong<T: Transport>(t: &mut T, rounds: u64) -> Result<f64, FabricError> {
    let msg = Payload::from_vec(vec![0x42; 64]);
    if t.rank() == 0 {
        let t0 = Instant::now();
        for _ in 0..rounds {
            t.try_send(1, PING, &msg)?;
            black_box(t.try_recv(1, PONG)?);
        }
        Ok(t0.elapsed().as_secs_f64())
    } else {
        for _ in 0..rounds {
            let m = t.try_recv(0, PING)?;
            t.try_send(0, PONG, &m)?;
        }
        Ok(0.0)
    }
}

/// `count` one-way 1 MiB messages and a final ack; rank 0 returns the
/// seconds from the first send to the ack.
fn stream<T: Transport>(t: &mut T, count: u64) -> Result<f64, FabricError> {
    if t.rank() == 0 {
        let msg = Payload::from_vec(vec![0x17; MIB]);
        let t0 = Instant::now();
        for _ in 0..count {
            t.try_send(1, DATA, &msg)?;
        }
        t.try_recv(1, ACK)?;
        Ok(t0.elapsed().as_secs_f64())
    } else {
        let mut seen = 0usize;
        for _ in 0..count {
            seen += t.try_recv(0, DATA)?.len();
        }
        black_box(seen);
        t.try_send(0, ACK, &Payload::from_vec(vec![1]))?;
        Ok(0.0)
    }
}

fn on_fabric(
    cpus: &[usize],
    n: u64,
    body: fn(&mut sage::fabric::NodeCtx, u64) -> Result<f64, FabricError>,
) -> Option<f64> {
    let cluster = Cluster::new(
        MachineSpec::from_hardware(&HardwareShelf::cspi_with_nodes(RANKS)),
        TimePolicy::Real,
    );
    let (secs, _report) = host::with_placement(cpus, RANKS, || cluster.run(|ctx| body(ctx, n)));
    secs.into_iter().next()?.ok()
}

/// In-process fabric: seconds per 64-byte round trip between two ranks.
pub fn fabric_rtt(gate: &mut Gate) -> Option<Summary> {
    let cpus = gate.cpus().to_vec();
    measure(gate, |n| on_fabric(&cpus, n, ping_pong))
}

/// In-process fabric: seconds per 1 MiB payload handed from rank 0 to 1.
pub fn fabric_handoff(gate: &mut Gate) -> Option<Summary> {
    let cpus = gate.cpus().to_vec();
    measure(gate, |n| on_fabric(&cpus, n, stream))
}

fn on_mesh(
    cpus: &[usize],
    n: u64,
    body: fn(&mut TcpTransport, u64) -> Result<f64, FabricError>,
) -> Option<f64> {
    let listeners: Vec<TcpListener> = (0..RANKS)
        .map(|_| TcpListener::bind("127.0.0.1:0").ok())
        .collect::<Option<_>>()?;
    let peers: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().ok().map(|a| a.to_string()))
        .collect::<Option<_>>()?;
    let barrier = Barrier::new(RANKS);
    let results: Vec<Option<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..RANKS)
            .map(|rank| {
                let (peers, listener, barrier) = (&peers, &listeners[rank], &barrier);
                s.spawn(move || {
                    host::pin(0, cpus, rank);
                    let transport = TcpTransport::connect(
                        rank,
                        peers,
                        listener,
                        NetConfig::default(),
                        Probe::disabled(),
                    );
                    barrier.wait();
                    let mut transport = transport.ok()?;
                    let secs = body(&mut transport, n).ok();
                    transport.finish();
                    secs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mesh cell thread panicked"))
            .collect()
    });
    if results.iter().any(Option::is_none) {
        return None;
    }
    results[0]
}

/// Loopback TCP mesh: seconds per 64-byte round trip between two ranks.
pub fn net_rtt(gate: &mut Gate) -> Option<Summary> {
    let cpus = gate.cpus().to_vec();
    measure(gate, |n| on_mesh(&cpus, n, ping_pong))
}

/// Loopback TCP mesh: seconds per 1 MiB payload streamed rank 0 -> 1.
pub fn net_stream(gate: &mut Gate) -> Option<Summary> {
    let cpus = gate.cpus().to_vec();
    measure(gate, |n| on_mesh(&cpus, n, stream))
}

/// Wire codec on a 1 MiB payload: seconds per `write_parts` into a `Vec`
/// and per `Frame::read_from` a slice, as (encode, decode).
pub fn wire_codec(gate: &mut Gate) -> Option<(Summary, Summary)> {
    let payload = vec![0x3cu8; MIB];
    let mut buf = Vec::with_capacity(MIB + 64);
    let encode = measure(gate, |n| {
        let t0 = Instant::now();
        for seq in 0..n {
            buf.clear();
            write_parts(
                &mut buf,
                FrameKind::Data,
                0x1234,
                0,
                1,
                0,
                seq,
                black_box(&payload),
            )
            .ok()?;
        }
        Some(t0.elapsed().as_secs_f64())
    })?;
    let decode = measure(gate, |n| {
        let t0 = Instant::now();
        for _ in 0..n {
            let frame = Frame::read_from(&mut black_box(&buf[..])).ok()?;
            black_box(frame.payload.len());
        }
        Some(t0.elapsed().as_secs_f64())
    })?;
    Some((encode, decode))
}

/// GiB/s for a cell that moves `bytes` per operation of `per_op` seconds.
pub fn gib_per_s(per_op: Summary, bytes: f64) -> Summary {
    per_op.inverted(|secs| bytes / GIB / secs.max(1e-12))
}

/// Bytes per operation of the 1 MiB cells.
pub const MIB_BYTES: f64 = MIB as f64;

/// The hand-coded MPI form of a 512-point program (`run_hand_coded`,
/// through `sage-mpi`, real clock): seconds per frame. Also checks the
/// result against the program's own `verify`.
pub fn hand_coded_512(gate: &mut Gate, corner: bool, frames: u32) -> Option<Summary> {
    let cpus = gate.cpus().to_vec();
    let mut verified = false;
    measure(gate, |n| {
        // `measure` sizes batches in operations; one operation here is one
        // frame, run in calls of at most `frames`.
        let iterations = (n as u32).clamp(1, frames);
        let run = host::with_placement(&cpus, RANKS, || {
            if corner {
                corner_turn::run_hand_coded(512, RANKS, TimePolicy::Real, iterations)
            } else {
                fft2d::run_hand_coded(512, RANKS, TimePolicy::Real, iterations)
            }
        });
        if !verified {
            let err = if corner {
                corner_turn::verify(&run, 512)
            } else {
                fft2d::verify(&run, 512)
            };
            if err >= crate::oracle::REFERENCE_TOLERANCE {
                return None;
            }
            verified = true;
        }
        Some(run.wall.as_secs_f64() * n as f64 / f64::from(iterations))
    })
}
