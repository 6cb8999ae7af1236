//! Cross-crate integration tests: the full Designer → AToT → glue-code →
//! run-time pipeline on both benchmark applications, verified against the
//! serial references in both clock modes.

use sage::prelude::*;
use sage_apps::{corner_turn, fft2d, stap, workload};

const TOL: f32 = 2e-3;

#[test]
fn fft2d_sage_vs_reference_virtual() {
    let run = fft2d::run_sage(
        64,
        4,
        TimePolicy::Virtual,
        &RuntimeOptions::paper_faithful(),
        2,
    );
    assert!(fft2d::verify(&run, 64) < TOL);
    assert!(run.makespan > 0.0);
}

#[test]
fn fft2d_sage_vs_reference_real() {
    let run = fft2d::run_sage(64, 4, TimePolicy::Real, &RuntimeOptions::optimized(), 1);
    assert!(fft2d::verify(&run, 64) < TOL);
}

#[test]
fn fft2d_hand_vs_sage_identical_results() {
    let hand = fft2d::run_hand_coded(64, 8, TimePolicy::Virtual, 1);
    let sage = fft2d::run_sage(
        64,
        8,
        TimePolicy::Virtual,
        &RuntimeOptions::paper_faithful(),
        1,
    );
    assert_eq!(hand.result.max_abs_diff(&sage.result), 0.0);
}

#[test]
fn corner_turn_exact_on_all_configs() {
    for (size, nodes) in [(32usize, 1usize), (32, 2), (64, 4), (64, 8)] {
        for policy in [TimePolicy::Virtual, TimePolicy::Real] {
            let run =
                corner_turn::run_sage(size, nodes, policy, &RuntimeOptions::paper_faithful(), 1);
            assert_eq!(
                corner_turn::verify(&run, size),
                0.0,
                "size={size} nodes={nodes} policy={policy:?}"
            );
        }
    }
}

#[test]
fn table1_shape_holds() {
    // The paper's headline shape at a reduced size: hand-coded wins, SAGE
    // stays within a factor comparable to the reported 75-95% band, and the
    // corner turn carries relatively more overhead than the FFT.
    use sage_apps::experiment::{table1_cell, BenchApp};
    let opts = RuntimeOptions::paper_faithful();
    let fft = table1_cell(BenchApp::Fft2d, 128, 4, &opts);
    let ct = table1_cell(BenchApp::CornerTurn, 128, 4, &opts);
    assert!(
        fft.pct_of_hand() < 100.0 && fft.pct_of_hand() > 60.0,
        "{fft:?}"
    );
    assert!(
        ct.pct_of_hand() < 100.0 && ct.pct_of_hand() > 50.0,
        "{ct:?}"
    );
    assert!(
        ct.overhead() > fft.overhead(),
        "corner turn should carry relatively more glue overhead"
    );
}

#[test]
fn optimized_runtime_reaches_ninety_percent() {
    // §4: "Work is currently underway ... that will reach levels of 90% of
    // hand coded performance."
    use sage_apps::experiment::{table1_cell, BenchApp};
    let opts = RuntimeOptions::optimized();
    for app in [BenchApp::Fft2d, BenchApp::CornerTurn] {
        let cell = table1_cell(app, 128, 4, &opts);
        assert!(
            cell.pct_of_hand() >= 90.0,
            "{} at {:.1}%",
            app.name(),
            cell.pct_of_hand()
        );
    }
}

#[test]
fn stap_pipeline_with_atot_mapping_and_probes() {
    let project = stap::sage_project(32, 2);
    let mapping = project
        .auto_map(&GaConfig {
            population: 12,
            generations: 10,
            ..GaConfig::default()
        })
        .unwrap();
    let (exec, source) = project
        .run(
            &Placement::Tasks(mapping),
            TimePolicy::Virtual,
            &RuntimeOptions::paper_faithful().with_probes(true),
            3,
        )
        .unwrap();
    assert!(source.contains("sage_function_table[6]"));
    let analysis = Analysis::of(&exec.trace);
    assert_eq!(analysis.latencies.len(), 3);
    assert!(analysis.mean_latency() > 0.0);
    assert!(analysis.top_bottleneck().is_some());
}

#[test]
fn workload_reference_self_consistency() {
    // Corner-turning the FFT'd matrix equals FFT-ing columns first: the
    // references used by the two benchmarks agree with each other.
    let input = workload::input_matrix(9, 16);
    let via_fft = workload::fft2d_reference_transposed(&input);
    // Manual: transpose first, then row FFT twice in the other order.
    let plan = sage::signal::Fft1d::new(16, sage::signal::FftDirection::Forward);
    let mut rows_first = input.clone();
    plan.process_rows(rows_first.as_mut_slice());
    let mut t = rows_first.transposed();
    plan.process_rows(t.as_mut_slice());
    assert!(via_fft.max_abs_diff(&t) < 1e-4);
}

#[test]
fn sink_results_assemble_across_node_counts() {
    // The same input matrix must reassemble identically regardless of how
    // many nodes carried it.
    let a = corner_turn::run_sage(
        32,
        2,
        TimePolicy::Virtual,
        &RuntimeOptions::paper_faithful(),
        1,
    );
    let b = corner_turn::run_sage(
        32,
        8,
        TimePolicy::Virtual,
        &RuntimeOptions::paper_faithful(),
        1,
    );
    assert_eq!(a.result.max_abs_diff(&b.result), 0.0);
}
