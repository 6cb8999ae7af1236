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

mod common;

use common::{assert_parity, assert_parity_with, model_path, sink_dump};
use sage_fleet::{JobParams, LaunchOptions};
use sage_net::NetError;
use sage_runtime::{fnv1a_64, RuntimeError};

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
