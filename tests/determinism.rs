//! Determinism guarantees: virtual-time runs, code generation, and AToT are
//! all bit-reproducible — the property that lets the Table 1.0 harness run
//! with reduced averaging.

use sage::prelude::*;
use sage_apps::experiment::{table1_cell, BenchApp};
use sage_apps::{corner_turn, fft2d};

#[test]
fn virtual_time_is_bit_reproducible() {
    let run = || {
        let r = fft2d::run_sage(
            64,
            4,
            TimePolicy::Virtual,
            &RuntimeOptions::paper_faithful(),
            2,
        );
        (r.makespan, r.per_iter_secs)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn hand_coded_virtual_time_is_bit_reproducible() {
    let a = corner_turn::run_hand_coded(64, 8, TimePolicy::Virtual, 3).makespan;
    let b = corner_turn::run_hand_coded(64, 8, TimePolicy::Virtual, 3).makespan;
    assert_eq!(a, b);
}

#[test]
fn codegen_is_deterministic() {
    let gen = || {
        let p = fft2d::sage_project(64, 4);
        p.generate(&Placement::Aligned).unwrap()
    };
    let (prog_a, src_a) = gen();
    let (prog_b, src_b) = gen();
    assert_eq!(prog_a, prog_b);
    assert_eq!(src_a, src_b);
}

#[test]
fn atot_ga_is_deterministic_under_seed() {
    let map = || {
        fft2d::sage_project(64, 4)
            .auto_map(&GaConfig {
                population: 16,
                generations: 12,
                seed: 99,
                ..GaConfig::default()
            })
            .unwrap()
    };
    assert_eq!(map(), map());
}

#[test]
fn results_identical_across_time_policies() {
    let opts = RuntimeOptions::paper_faithful();
    let v = corner_turn::run_sage(32, 4, TimePolicy::Virtual, &opts, 1);
    let r = corner_turn::run_sage(32, 4, TimePolicy::Real, &opts, 1);
    assert_eq!(v.result.max_abs_diff(&r.result), 0.0);
}

#[test]
fn iterations_scale_makespan_linearly() {
    // Steady-state pipelining: per-iteration virtual time must be stable.
    let one = corner_turn::run_sage(
        64,
        4,
        TimePolicy::Virtual,
        &RuntimeOptions::paper_faithful(),
        1,
    );
    let five = corner_turn::run_sage(
        64,
        4,
        TimePolicy::Virtual,
        &RuntimeOptions::paper_faithful(),
        5,
    );
    let ratio = five.makespan / one.makespan;
    assert!(
        (4.0..=6.0).contains(&ratio),
        "5 iterations should take ~5x one ({ratio})"
    );
}

/// Table 1.0 virtual times, pinned to the bit at the commit before the
/// lock-step loop folded into the scheduler (PR 12). The cost model is the
/// reproduction's result; an executor refactor that moves a single charge
/// — one extra message, one reordered `advance` — shows up here.
#[test]
fn table1_virtual_times_are_pinned() {
    if std::env::var("SAGE_FULL_ITERS").is_ok() {
        return; // pins are for the default (2 x 5) repetition schedule
    }
    let paper = RuntimeOptions::paper_faithful();
    let optimized = RuntimeOptions::optimized();
    for (app, options, hand, sage) in [
        (
            BenchApp::Fft2d,
            &paper,
            0x3f6b4f10df4b548a_u64,
            0x3f6dd6aa9c205ca0_u64,
        ),
        (
            BenchApp::Fft2d,
            &optimized,
            0x3f6b4f10df4b548a,
            0x3f6bba70a9b6474e,
        ),
        (
            BenchApp::CornerTurn,
            &paper,
            0x3f3e90e4bf31d998,
            0x3f453a23e83c94e6,
        ),
        (
            BenchApp::CornerTurn,
            &optimized,
            0x3f3e90e4bf31d998,
            0x3f40b2d5aac1e010,
        ),
    ] {
        let cell = table1_cell(app, 128, 4, options);
        assert_eq!(
            (cell.hand_secs.to_bits(), cell.sage_secs.to_bits()),
            (hand, sage),
            "{} 128x128 on 4 nodes moved: hand {} s, SAGE {} s",
            app.name(),
            cell.hand_secs,
            cell.sage_secs
        );
    }
}

/// The streaming speed-up experiment (`pipeline_speedup`): five committed
/// models at 4 nodes, 24 frames, depth `min(proven, 8)` on the
/// stage-pipelined placement. Lock-step frames per virtual second are
/// pinned to the bit (identical at PR 10, PR 12 and the commit that retired
/// `sage bench`); the streaming makespan moves a little with the
/// scheduler's host-timing-dependent issue order, so the speed-up is held
/// to 75% of the committed value. `bench_pipeline` itself fails if the
/// streaming sink checksum differs from the lock-step one.
#[test]
fn pipeline_speedup_is_pinned() {
    for (name, lockstep_fps, speedup, checksum) in [
        (
            "fft2d_64",
            0x40806cd89908b26e_u64,
            1.71,
            0xe91aa01d7650d305_u64,
        ),
        (
            "corner_turn_256",
            0x406444cbe8f6eabb,
            1.47,
            0x4d530ae090a280a5,
        ),
        (
            "image_filter_128",
            0x405009592ed58a2a,
            1.52,
            0xd06c6c9d9f8636b5,
        ),
        ("stap_128", 0x405d64715397be21, 1.69, 0x60b59dba3c0edda5),
        (
            "beamformer_64",
            0x407e6e6cb2377714,
            1.39,
            0xfb63c60a240327a5,
        ),
    ] {
        let cell = sage_bench::pipeline::bench_pipeline(name).expect("cell runs");
        assert_eq!(cell.depth, 8, "{name}: proven depth fell below the cap");
        assert_eq!(
            (cell.lockstep_fps.to_bits(), cell.checksum),
            (lockstep_fps, checksum),
            "{name} moved: lock-step {} frames/s ({:#018x}), checksum {:#018x}",
            cell.lockstep_fps,
            cell.lockstep_fps.to_bits(),
            cell.checksum
        );
        assert!(
            cell.speedup >= 0.75 * speedup,
            "{name}: streaming speed-up {:.2}x fell below 75% of the committed {speedup}x",
            cell.speedup
        );
    }
}
