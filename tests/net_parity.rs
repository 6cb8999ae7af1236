//! Distributed-execution parity: running a model as separate OS processes
//! over loopback TCP must produce sink output **bit-identical** to the
//! in-process local backend — same model, same seed, same bytes.
//!
//! These tests drive the real `sage` binary (`run --nodes N` vs
//! `launch --workers N`) end to end, including the daemon banner handshake,
//! the framed wire protocol, the one-job fleet `launch` stands up, and its
//! report merge — in lock-step and streaming. A final test kills one daemon
//! mid-run with the `SAGE_NET_CHAOS_EXIT_MS` chaos hook and requires a
//! *typed* failure, not a hang.
//!
//! The `sim_` twins run the same jobs through the same `run_fleet_job`,
//! executor and mesh core over `sage-simnet`'s seeded simulator instead of
//! sockets and processes: deterministic per seed, milliseconds per run.

mod common;

use common::{assert_parity, assert_parity_with, model_path, sink_bytes, sink_dump};
use sage::core::{Placement, Project};
use sage_fleet::{run_fleet_job, FleetJob, JobParams, LaunchOptions};
use sage_net::{NetConfig, NetError};
use sage_runtime::{fnv1a_64, Execution, GlueProgram, RuntimeError};
use sage_simnet::SimNet;
use std::time::{Duration, Instant};

/// Sink output fingerprints pinned at the build each model first landed
/// in (4 nodes, 2 iterations, local transport). The first four were
/// recorded from the copy-heavy build *before* the zero-copy data plane
/// (which has since retired — these pins are what is left of it as a
/// reference); the beamformer and range-doppler pipelines were pinned when
/// they were added. The executor must keep reproducing these bytes
/// exactly.
const PINNED_SINKS: [(&str, usize, u64); 6] = [
    ("fft2d_64.sexpr", 65536, 0x106286f4fa7ffcfd),
    ("corner_turn_256.sexpr", 1048576, 0x5f7c4d9797348e85),
    ("image_filter_128.sexpr", 262144, 0x0e8a2d6c26012b69),
    ("stap_128.sexpr", 262144, 0xabf2fd818ed6c305),
    ("beamformer_64.sexpr", 65536, 0x27d32f3631ae7505),
    ("range_doppler_64.sexpr", 65536, 0xc725b54c961d462d),
];

/// Every committed model still produces its pinned sink bytes on the
/// local transport.
#[test]
fn sink_checksums_match_pinned_builds() {
    for (model, len, sum) in PINNED_SINKS {
        let path = model_path(model);
        let sink = sink_dump(
            &["run", &path, "--nodes", "4", "--iters", "2"],
            &format!("pin_{model}"),
        );
        assert_eq!(sink.len(), len, "{model}: sink size drifted");
        assert_eq!(
            fnv1a_64(&sink),
            sum,
            "{model}: sink differs from the pinned build (got {:#018x})",
            fnv1a_64(&sink)
        );
    }
}

#[test]
fn fft2d_parity_two_ranks() {
    assert_parity("fft2d_64.sexpr", 2);
}

#[test]
fn fft2d_parity_four_ranks() {
    assert_parity("fft2d_64.sexpr", 4);
}

#[test]
fn corner_turn_parity_two_ranks() {
    assert_parity("corner_turn_256.sexpr", 2);
}

#[test]
fn corner_turn_parity_four_ranks() {
    assert_parity("corner_turn_256.sexpr", 4);
}

#[test]
fn image_filter_parity_four_ranks() {
    assert_parity("image_filter_128.sexpr", 4);
}

#[test]
fn stap_parity_four_ranks() {
    assert_parity("stap_128.sexpr", 4);
}

#[test]
fn beamformer_parity_four_ranks() {
    assert_parity("beamformer_64.sexpr", 4);
}

#[test]
fn range_doppler_parity_four_ranks() {
    assert_parity("range_doppler_64.sexpr", 4);
}

/// `launch --pipeline 4` streams over TCP (per-buffer caps from the static
/// plan ride the job) and must reproduce the local lock-step sink exactly.
fn assert_streaming_parity(model: &str) {
    assert_parity_with(model, 4, "6", &["--pipeline", "4"]);
}

/// The streamed job's credit ledger comes back with its sink: the merged
/// `Execution` of a launched run carries the counters every rank shipped,
/// conserved and equal to the closed form the in-process proptests pin.
#[test]
fn fft2d_streaming_launch_matches_local_lock_step() {
    assert_streaming_parity("fft2d_64.sexpr");

    let (ranks, iters, depth) = (4, 6, 4);
    let text = std::fs::read_to_string(model_path("fft2d_64.sexpr")).unwrap();
    let project = sage::core::Project::from_sexpr(&text, ranks).expect("model loads");
    let (program, _) = project
        .generate(&sage::core::Placement::Aligned)
        .expect("codegen");
    let plan = sage::check::pipeline_plan(&program, &project.hardware).expect("pipeline plan");
    let caps: Vec<u32> = plan.buffers.iter().map(|b| b.safe_depth).collect();
    let opts = LaunchOptions {
        workers: ranks,
        heartbeat_ms: None,
        params: JobParams {
            pipeline: Some(depth),
            pipeline_depths: caps.clone(),
            ..JobParams::new(text, iters)
        },
    };
    let exec = sage_fleet::launch(&opts, &common::spawn_worker).expect("streamed launch");
    let want = common::expected_credits(&program, depth, &caps, iters);
    assert!(want > 0, "6 iterations at depth 4 must outrun the window");
    assert_eq!(exec.stream.credits_issued, want);
    assert_eq!(exec.stream.credits_retired, want);
}

#[test]
fn beamformer_streaming_launch_matches_local_lock_step() {
    assert_streaming_parity("beamformer_64.sexpr");
}

/// Kill rank 1's process shortly after it accepts the job: the launcher
/// must come back with a typed node/peer failure — never hang, never
/// report success.
#[test]
fn killed_worker_surfaces_typed_failure() {
    let text = std::fs::read_to_string(model_path("corner_turn_256.sexpr")).unwrap();
    let opts = LaunchOptions {
        workers: 2,
        heartbeat_ms: None,
        params: JobParams::new(text, 200),
    };
    let spawn = |rank: usize| {
        let mut cmd = common::fleet_daemon_command();
        if rank == 1 {
            cmd.env(sage_fleet::CHAOS_EXIT_ENV, "5");
        }
        cmd.spawn()
    };
    let err = sage_fleet::launch(&opts, &spawn).expect_err("run must fail");
    match err {
        NetError::Runtime(
            RuntimeError::NodeFailed { .. }
            | RuntimeError::PeerFailed { .. }
            | RuntimeError::Timeout { .. }
            | RuntimeError::TransferFailed { .. },
        )
        | NetError::WorkerDied { .. } => {}
        other => panic!("expected a typed node/peer failure, got: {other}"),
    }
}

/// A model's glue program at `ranks` and the checksum of its in-process
/// lock-step sink over `iters` iterations.
fn local_sink(text: &str, ranks: usize, iters: u32) -> (GlueProgram, u64) {
    let mut project = Project::from_sexpr(text, ranks).expect("model loads");
    sage::apps::kernels::register_kernels(&mut project.registry);
    let (program, _) = project.generate(&Placement::Aligned).expect("codegen");
    let options = sage::runtime::RuntimeOptions::paper_faithful();
    let run = project
        .execute(&program, sage::fabric::TimePolicy::Virtual, &options, iters)
        .expect("local lock-step run");
    let sum = fnv1a_64(&sink_bytes(&program, &run.results, iters));
    (program, sum)
}

/// One simulated job and what it took.
struct SimRun {
    outcome: Result<Execution, RuntimeError>,
    trace: u64,
    steps: u64,
}

/// Runs `params` as job 1 over a simulated `ranks`-endpoint mesh, rank `r`
/// on endpoint `r` through `run_fleet_job`, as the fleet daemons would;
/// `faults` arms the simulator once the ranks are started. A killed
/// endpoint's report never arrives.
fn sim_job(seed: u64, params: &JobParams, ranks: usize, faults: &dyn Fn(&SimNet)) -> SimRun {
    let sim = SimNet::new(seed);
    let cores = sim.mesh(ranks, NetConfig::default());
    let rank_map: Vec<u32> = (0..ranks as u32).collect();
    let ranks: Vec<_> = (cores.iter().enumerate())
        .map(|(rank, core)| {
            let job = FleetJob {
                job: 1,
                rank: rank as u32,
                rank_map: rank_map.clone(),
                params: params.clone(),
            };
            let core = core.clone();
            sim.spawn(move || run_fleet_job(core, job, &sage::apps::kernels::register_kernels))
        })
        .collect();
    faults(&sim);
    sim.run();
    let reports = (ranks.into_iter().enumerate())
        .map(|(rank, report)| Some(report.join()).filter(|_| !sim.is_dead(rank)))
        .collect();
    SimRun {
        outcome: Execution::merge(reports, Duration::ZERO, params.iterations),
        trace: sim.trace(),
        steps: sim.steps(),
    }
}

/// What a run's trace and sink (or error) say about it: equal for two runs
/// of one seed.
fn fingerprint(run: &SimRun, program: &GlueProgram, iters: u32) -> (u64, Result<u64, String>) {
    let sink = (run.outcome.as_ref())
        .map(|exec| fnv1a_64(&sink_bytes(program, &exec.results, iters)))
        .map_err(ToString::to_string);
    (run.trace, sink)
}

/// Twin of `killed_worker_surfaces_typed_failure`: over 64 seeds, rank 1
/// of a 2-rank corner turn dies at a step the seed picks, and on every
/// fourth seed one bit of one delivered chunk flips too. Every run ends
/// with the fault-free sink or a typed error the original accepts.
#[test]
fn sim_killed_worker_surfaces_typed_failure() {
    const ITERS: u32 = 3;
    let text = std::fs::read_to_string(model_path("corner_turn_256.sexpr")).unwrap();
    let params = JobParams::new(text.clone(), ITERS);
    let (program, want) = local_sink(&text, 2, ITERS);
    let within = sim_job(0, &params, 2, &|_| {}).steps * 5 / 4;
    let (started, mut steps, mut failed) = (Instant::now(), 0, 0);
    for seed in 0..64 {
        let faults = |sim: &SimNet| {
            sim.kill_within(1, within);
            if seed % 4 == 3 {
                sim.corrupt_within(within);
            }
        };
        let run = sim_job(seed, &params, 2, &faults);
        steps += run.steps;
        match &run.outcome {
            Ok(exec) => {
                let got = fnv1a_64(&sink_bytes(&program, &exec.results, ITERS));
                assert_eq!(got, want, "seed {seed}: a completed run's sink differs");
            }
            Err(
                RuntimeError::NodeFailed { .. }
                | RuntimeError::PeerFailed { .. }
                | RuntimeError::Timeout { .. }
                | RuntimeError::TransferFailed { .. },
            ) => failed += 1,
            Err(other) => panic!("seed {seed}: expected a typed node/peer failure, got: {other}"),
        }
        if seed % 32 == 3 {
            let again = sim_job(seed, &params, 2, &faults);
            assert_eq!(
                fingerprint(&run, &program, ITERS),
                fingerprint(&again, &program, ITERS)
            );
        }
    }
    assert!(failed > 0, "no seed killed the worker mid-run");
    let secs = started.elapsed().as_secs_f64();
    let rate = steps as f64 / secs;
    eprintln!("{failed} of 64 seeds end typed; {steps} seed-steps in {secs:.2} s: {rate:.0}/s");
}

/// Simulated twins of the two-rank parity and streaming-parity tests:
/// `fft2d_64` and `beamformer_64` lock-step and at pipeline depth 4 give
/// the in-process lock-step sink, and a streamed run's credit units and
/// credit frames are their closed forms, on every seed. Both models run 4
/// and 8 threads on the 2 ranks, so a credit frame stands for several
/// pairs.
#[test]
fn sim_sinks_match_local_lock_step_and_credits_the_closed_form() {
    const ITERS: u32 = 6;
    for model in ["fft2d_64.sexpr", "beamformer_64.sexpr"] {
        let text = std::fs::read_to_string(model_path(model)).unwrap();
        let (program, want) = local_sink(&text, 2, ITERS);
        let project = Project::from_sexpr(&text, 2).expect("model loads");
        let plan = sage::check::pipeline_plan(&program, &project.hardware).expect("plan");
        let caps: Vec<u32> = plan.buffers.iter().map(|b| b.safe_depth).collect();
        let data_frames = common::remote_data_pairs(&program) * u64::from(ITERS);
        for depth in [None, Some(4)] {
            let params = JobParams {
                pipeline: depth,
                pipeline_depths: depth.map_or_else(Vec::new, |_| caps.clone()),
                ..JobParams::new(text.clone(), ITERS)
            };
            for seed in 0..4 {
                let run = sim_job(seed, &params, 2, &|_| {});
                let exec =
                    (run.outcome.as_ref()).unwrap_or_else(|e| panic!("{model} seed {seed}: {e}"));
                let got = fnv1a_64(&sink_bytes(&program, &exec.results, ITERS));
                assert_eq!(got, want, "{model} at depth {depth:?}, seed {seed}");
                let credits =
                    depth.map_or(0, |d| common::expected_credits(&program, d, &caps, ITERS));
                assert_eq!(exec.stream.credits_issued, credits, "{model} seed {seed}");
                assert_eq!(exec.stream.credits_retired, credits, "{model} seed {seed}");
                let credit_frames = depth.map_or(0, |d| {
                    common::expected_credit_messages(&program, d, &caps, ITERS)
                });
                assert!(
                    depth.is_none() || (0 < credit_frames && credit_frames < credits),
                    "{model}: {credit_frames} credit frames for {credits} units"
                );
                assert_eq!(
                    exec.report.metrics.total_messages() - data_frames,
                    credit_frames,
                    "{model} at depth {depth:?}, seed {seed}: credit frames"
                );
                if seed == 0 {
                    let again = sim_job(seed, &params, 2, &|_| {});
                    assert_eq!(
                        fingerprint(&run, &program, ITERS),
                        fingerprint(&again, &program, ITERS)
                    );
                }
            }
        }
    }
}

/// The simulated twin with probes on: every rank's lane comes home from the
/// mesh in time order, lock-step and streamed, beside the lock-step sink.
#[test]
fn sim_probed_lanes_come_home_time_ordered() {
    const ITERS: u32 = 4;
    let text = std::fs::read_to_string(model_path("fft2d_64.sexpr")).unwrap();
    let (program, want) = local_sink(&text, 2, ITERS);
    let project = Project::from_sexpr(&text, 2).expect("model loads");
    let plan = sage::check::pipeline_plan(&program, &project.hardware).expect("plan");
    let caps: Vec<u32> = plan.buffers.iter().map(|b| b.safe_depth).collect();
    for depth in [None, Some(4)] {
        let params = JobParams {
            probes: true,
            pipeline: depth,
            pipeline_depths: depth.map_or_else(Vec::new, |_| caps.clone()),
            ..JobParams::new(text.clone(), ITERS)
        };
        let run = sim_job(1, &params, 2, &|_| {});
        let exec = (run.outcome.as_ref()).unwrap_or_else(|e| panic!("depth {depth:?}: {e}"));
        let got = fnv1a_64(&sink_bytes(&program, &exec.results, ITERS));
        assert_eq!(got, want, "depth {depth:?}");
        common::assert_lanes_time_ordered(&exec.trace, &format!("simnet, depth {depth:?}"));
    }
}
