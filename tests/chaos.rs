//! Chaos harness: random seeded fault plans against the FFT-2D and
//! corner-turn applications.
//!
//! The contract under test is the fault layer's core invariant: injected
//! faults may slow a run down or kill it with a *typed* error, but they must
//! never corrupt data. Every case below runs an application under a randomly
//! generated [`FaultPlan`] and accepts exactly two outcomes:
//!
//! 1. the run completes and its sink payload is **bit-identical** to the
//!    fault-free baseline, or
//! 2. the run fails with a structured `ProjectError::Runtime` error.
//!
//! Each plan runs twice: once lock-step and once through the streaming
//! pipeline executor at the app's statically proven depth, so the 40 cases
//! per app exercise 80 plan-runs per app overall. The streaming leg holds
//! the same invariant against the *same lock-step baseline* — a fault plan
//! must never make the dataflow schedule emit different bits, and a fault
//! that kills the run must still surface as a typed error, never a hang.
//!
//! Anything else — a panic, a codegen error, or a silently different result
//! — fails the property. A failing case prints its `PROPTEST_CASE_SEED`,
//! the exact fault-plan seed and configuration cell, and writes the
//! offending plan to `target/fuzz-failures/` in the `sage fuzz` replay
//! codec; see EXPERIMENTS.md ("Fault injection & chaos testing") for how
//! to replay it.

mod common;

use proptest::prelude::*;
use sage::fuzz::failure::plan_to_text;
use sage::prelude::*;
use sage_apps::fft2d::DistRun;
use sage_apps::{corner_turn, fft2d};
use std::sync::OnceLock;

const SIZE: usize = 16;
const NODES: usize = 4;
const ITERS: u32 = 2;

fn options() -> RuntimeOptions {
    RuntimeOptions::paper_faithful()
}

/// Fault-free FFT-2D baseline (computed once).
fn fft2d_baseline() -> &'static DistRun {
    static BASE: OnceLock<DistRun> = OnceLock::new();
    BASE.get_or_init(|| fft2d::run_sage(SIZE, NODES, TimePolicy::Virtual, &options(), ITERS))
}

/// Fault-free corner-turn baseline (computed once).
fn corner_turn_baseline() -> &'static DistRun {
    static BASE: OnceLock<DistRun> = OnceLock::new();
    BASE.get_or_init(|| corner_turn::run_sage(SIZE, NODES, TimePolicy::Virtual, &options(), ITERS))
}

/// Statically proven streaming depth for one app's generated program,
/// capped at 3 to keep each chaos case cheap (the proven depths on these
/// programs are far deeper than anything a 2-iteration run can fill).
fn proven_stream_depth(project: &Project) -> u32 {
    let (program, _) = project
        .generate(&Placement::Aligned)
        .expect("committed apps generate cleanly");
    let plan = sage::check::pipeline_plan(&program, &project.hardware)
        .expect("committed apps are pipeline-check clean");
    plan.safe_depth.clamp(1, 3)
}

fn fft2d_stream_depth() -> u32 {
    static DEPTH: OnceLock<u32> = OnceLock::new();
    *DEPTH.get_or_init(|| proven_stream_depth(&fft2d::sage_project(SIZE, NODES)))
}

fn corner_turn_stream_depth() -> u32 {
    static DEPTH: OnceLock<u32> = OnceLock::new();
    *DEPTH.get_or_init(|| proven_stream_depth(&corner_turn::sage_project(SIZE, NODES)))
}

/// Bit patterns of a run's result payload (f32 equality would mask a
/// corrupted-but-close value; the invariant is *bit*-exactness).
fn result_bits(run: &DistRun) -> Vec<(u32, u32)> {
    run.result
        .as_slice()
        .iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

/// Random fault plans over a `NODES`-node cluster running `blocks`.
///
/// Mixes every fault class the plan supports: wire drops, degraded links,
/// stalls, node failures, kernel faults (into both real and nonexistent
/// blocks), and combinations. Failure times are chosen around the scale of
/// a small virtual run (~milliseconds) so some fire mid-run and some never
/// fire at all — both are valid cases.
fn plan_strategy(blocks: &'static [&'static str]) -> impl Strategy<Value = FaultPlan> {
    let n = NODES as u32;
    let drops = (0u64..=u64::MAX, 0.0f64..0.35)
        .prop_map(|(seed, p)| FaultPlan::new(seed).with_drop_prob(p));
    let degraded = (0u64..=u64::MAX, 0u32..n, 0u32..n, 1.0f64..8.0)
        .prop_map(|(seed, src, dst, f)| FaultPlan::new(seed).degrade_link(src, dst, f));
    let stalls = (0u64..=u64::MAX, 0u32..n, 0.0f64..0.01, 0.0f64..0.005)
        .prop_map(|(seed, node, at, dur)| FaultPlan::new(seed).stall_node(node, at, dur));
    let failures = (0u64..=u64::MAX, 0u32..n, 0.0f64..0.02)
        .prop_map(|(seed, node, at)| FaultPlan::new(seed).fail_node(node, at));
    let kernels = (
        0u64..=u64::MAX,
        0usize..blocks.len() + 1,
        0u32..ITERS,
        0u32..n,
    )
        .prop_map(move |(seed, b, iter, thread)| {
            // One index past the end targets a block that does not exist:
            // the fault must never fire and the run must stay bit-exact.
            let block = blocks.get(b).copied().unwrap_or("no_such_block");
            FaultPlan::new(seed).inject_kernel_fault(block, iter, thread, "injected chaos fault")
        });
    let mixed = (
        0u64..=u64::MAX,
        0.0f64..0.2,
        0u32..n,
        0u32..n,
        1.0f64..4.0,
        0.0f64..0.01,
    )
        .prop_map(move |(seed, p, src, node, f, at)| {
            FaultPlan::new(seed)
                .with_drop_prob(p)
                .degrade_link(src, (src + 1) % n, f)
                .stall_node(node, at, at / 2.0)
        });
    prop_oneof![drops, degraded, stalls, failures, kernels, mixed]
}

/// Writes the offending fault plan to `target/fuzz-failures/` in the
/// `sage fuzz` replay codec and returns a replay hint for the panic text.
fn save_failed_plan(app: &str, plan: &FaultPlan) -> String {
    let dir = common::failures_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("chaos-{app}-{:016x}.plan", plan.seed));
    match std::fs::write(&path, plan_to_text(plan)) {
        Ok(()) => format!(
            "plan seed {:016x}, app {app}, saved to {}",
            plan.seed,
            path.display()
        ),
        Err(e) => format!(
            "plan seed {:016x}, app {app} (saving plan failed: {e})",
            plan.seed
        ),
    }
}

/// Checks the bit-exact-or-typed-error invariant for one app run.
fn check(
    app: &str,
    run: Result<DistRun, ProjectError>,
    baseline: &DistRun,
    plan: &FaultPlan,
) -> Result<(), proptest::test_runner::TestCaseError> {
    match run {
        Ok(r) => {
            if result_bits(&r) != result_bits(baseline) {
                let hint = save_failed_plan(app, plan);
                prop_assert!(
                    false,
                    "fault plan {:?} corrupted the {} sink payload ({})",
                    plan,
                    app,
                    hint
                );
            }
        }
        Err(ProjectError::Runtime(e)) => {
            // Typed failure: fine, but it must describe a fault, i.e. have
            // a non-empty rendering (a smoke check that the error survived
            // the fabric -> runtime translation).
            prop_assert!(!e.to_string().is_empty());
        }
        Err(ProjectError::Codegen(e)) => {
            let hint = save_failed_plan(app, plan);
            prop_assert!(
                false,
                "fault plan {:?} broke {} codegen: {} ({})",
                plan,
                app,
                e,
                hint
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn fft2d_faults_never_corrupt(
        plan in plan_strategy(&["src", "row_fft", "col_fft", "snk"]),
    ) {
        let run = fft2d::try_run_sage(
            SIZE,
            NODES,
            TimePolicy::Virtual,
            &options().with_faults(plan.clone()),
            ITERS,
        );
        check("fft2d", run, fft2d_baseline(), &plan)?;
        // Streaming axis: the same plan, pipelined at the proven depth, must
        // match the same lock-step baseline bit-for-bit or fail typed.
        let srun = fft2d::try_run_sage(
            SIZE,
            NODES,
            TimePolicy::Virtual,
            &options()
                .with_faults(plan.clone())
                .with_pipeline(fft2d_stream_depth()),
            ITERS,
        );
        check("fft2d-streaming", srun, fft2d_baseline(), &plan)?;
    }

    #[test]
    fn corner_turn_faults_never_corrupt(
        plan in plan_strategy(&["src", "corner_turn", "snk"]),
    ) {
        let run = corner_turn::try_run_sage(
            SIZE,
            NODES,
            TimePolicy::Virtual,
            &options().with_faults(plan.clone()),
            ITERS,
        );
        check("corner_turn", run, corner_turn_baseline(), &plan)?;
        // Streaming axis: same invariant, same baseline, pipelined run.
        let srun = corner_turn::try_run_sage(
            SIZE,
            NODES,
            TimePolicy::Virtual,
            &options()
                .with_faults(plan.clone())
                .with_pipeline(corner_turn_stream_depth()),
            ITERS,
        );
        check("corner_turn-streaming", srun, corner_turn_baseline(), &plan)?;
    }
}

/// Same seed + same plan must reproduce the run bit-for-bit: identical
/// metrics (drops, retries, faults, lost time) and identical makespan bits.
#[test]
fn same_plan_same_seed_is_bit_identical() {
    // Seed 2 drops ~10 transfers of this run's ~24; the stall fires well
    // inside the ~400 us virtual makespan of a 16x16 run.
    let plan = FaultPlan::new(2)
        .with_drop_prob(0.15)
        .degrade_link(0, 2, 3.0)
        .stall_node(1, 0.0001, 0.00005);
    let go = || {
        fft2d::try_run_sage(
            SIZE,
            NODES,
            TimePolicy::Virtual,
            &options().with_faults(plan.clone()),
            ITERS,
        )
        .expect("plan is survivable")
    };
    let (a, b) = (go(), go());
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(result_bits(&a), result_bits(&b));
    // The plan must actually have injected something, or this test shows
    // nothing about fault determinism.
    assert!(a.metrics.total_faults() > 0, "plan injected no faults");
}

/// An empty fault plan must reproduce the fault-free run *exactly* — the
/// fault layer charges nothing when no plan is attached.
#[test]
fn empty_plan_reproduces_fault_free_run() {
    let base = fft2d_baseline();
    let run = fft2d::try_run_sage(
        SIZE,
        NODES,
        TimePolicy::Virtual,
        &options().with_faults(FaultPlan::default()),
        ITERS,
    )
    .expect("empty plan cannot fail");
    assert_eq!(run.makespan.to_bits(), base.makespan.to_bits());
    assert_eq!(run.metrics, base.metrics);
    assert_eq!(result_bits(&run), result_bits(base));
    assert_eq!(run.metrics.total_faults(), 0);
    assert_eq!(run.metrics.total_dropped(), 0);
}

/// A fault-free streaming run at the proven depth must reproduce the
/// lock-step sink payload bit-for-bit — the dataflow schedule reorders
/// work, never results.
#[test]
fn streaming_empty_plan_matches_lockstep_bits() {
    let run = fft2d::try_run_sage(
        SIZE,
        NODES,
        TimePolicy::Virtual,
        &options()
            .with_faults(FaultPlan::default())
            .with_pipeline(fft2d_stream_depth()),
        ITERS,
    )
    .expect("empty plan cannot fail");
    assert_eq!(result_bits(&run), result_bits(fft2d_baseline()));
}

/// A node failure at t=0 under the streaming executor must also surface as
/// a structured error — a stalled credit loop that hangs instead would be
/// exactly the failure mode the typed-error contract forbids.
#[test]
fn streaming_immediate_node_failure_is_typed() {
    let err = corner_turn::try_run_sage(
        SIZE,
        NODES,
        TimePolicy::Virtual,
        &options()
            .with_faults(FaultPlan::new(7).fail_node(2, 0.0))
            .with_pipeline(corner_turn_stream_depth()),
        ITERS,
    )
    .expect_err("a dead node cannot produce the sink payload");
    let msg = err.to_string();
    assert!(msg.contains("failed"), "got: {msg}");
}

/// A node failure at t=0 must surface as a structured error naming a node,
/// never as a hang or a panic.
#[test]
fn immediate_node_failure_is_typed() {
    let err = corner_turn::try_run_sage(
        SIZE,
        NODES,
        TimePolicy::Virtual,
        &options().with_faults(FaultPlan::new(7).fail_node(2, 0.0)),
        ITERS,
    )
    .expect_err("a dead node cannot produce the sink payload");
    let msg = err.to_string();
    assert!(msg.contains("failed"), "got: {msg}");
}

/// A kernel fault injected into a real block must surface as a kernel error
/// naming that block.
#[test]
fn injected_kernel_fault_names_its_block() {
    let plan = FaultPlan::new(11).inject_kernel_fault("row_fft", 1, 2, "chaos kernel fault");
    let err = fft2d::try_run_sage(
        SIZE,
        NODES,
        TimePolicy::Virtual,
        &options().with_faults(plan),
        ITERS,
    )
    .expect_err("injected kernel fault must fail the run");
    let msg = err.to_string();
    assert!(msg.contains("kernel error in `row_fft`"), "got: {msg}");
    assert!(msg.contains("chaos kernel fault"), "got: {msg}");
}

/// Stripes of 256 KiB are recycled between runs (`sage_fabric::Payload`'s
/// pool), so a run killed mid-frame hands half-written buffers back. The
/// next fault-free run in this process must not see them: the corner turn
/// is compared against the serial transpose — bits no pool had a hand in,
/// what a fresh process would print — and the 2-D FFT against its own
/// baseline taken before any fault.
#[test]
fn a_run_killed_mid_frame_leaves_the_buffer_pool_clean() {
    const BIG: usize = 256;
    const RANKS: usize = 2;
    const FRAMES: u32 = 3;
    let virt = TimePolicy::Virtual;
    let bits = |m: &sage_signal::Matrix| -> Vec<(u32, u32)> {
        let bits = |c: &sage_signal::Complex32| (c.re.to_bits(), c.im.to_bits());
        m.as_slice().iter().map(bits).collect()
    };
    let turned = sage_apps::workload::corner_turn_reference(&sage_apps::workload::input_matrix(
        fft2d::SEED,
        BIG,
    ));
    let fft_base = fft2d::run_sage(BIG, RANKS, virt, &options(), FRAMES);
    let turn_base = corner_turn::run_sage(BIG, RANKS, virt, &options(), FRAMES);
    assert_eq!(bits(&turn_base.result), bits(&turned));
    // Node failures land mid-run on either app's virtual clock.
    let mid_run = turn_base.makespan.min(fft_base.makespan) / 2.0;
    for (name, plan) in [
        ("NodeFailed", FaultPlan::new(1).fail_node(1, mid_run)),
        ("PeerFailed", FaultPlan::new(2).fail_node(0, mid_run / 4.0)),
        (
            "kernel error",
            FaultPlan::new(3)
                .inject_kernel_fault("corner_turn", 1, 1, "chaos")
                .inject_kernel_fault("col_fft", 1, 1, "chaos"),
        ),
    ] {
        for streaming in [false, true] {
            let faulty = if streaming {
                options().with_faults(plan.clone()).with_pipeline(2)
            } else {
                options().with_faults(plan.clone())
            };
            let what = format!("{name}, streaming {streaming}");
            corner_turn::try_run_sage(BIG, RANKS, virt, &faulty, FRAMES)
                .expect_err(&format!("corner turn survived {what}"));
            let after = corner_turn::run_sage(BIG, RANKS, virt, &options(), FRAMES);
            assert_eq!(
                bits(&after.result),
                bits(&turned),
                "corner turn after {what}"
            );
            fft2d::try_run_sage(BIG, RANKS, virt, &faulty, FRAMES)
                .expect_err(&format!("fft2d survived {what}"));
            let after = fft2d::run_sage(BIG, RANKS, virt, &options(), FRAMES);
            assert_eq!(
                result_bits(&after),
                result_bits(&fft_base),
                "fft2d after {what}"
            );
        }
    }
}
