//! Shrunk regression fixtures produced by the `sage-fuzz` minimizer.
//!
//! Each fixture under `tests/fixtures/` is the minimal model the greedy
//! shrinker ([`sage::fuzz::shrink::minimize`]) reached for one historical
//! bug shape. The suite asserts two things per fixture:
//!
//! 1. the committed fixture still *reproduces* the failure it was shrunk
//!    for (and runs clean otherwise), and
//! 2. the shrinker, pointed at a sprawling model exhibiting the same bug
//!    shape, still converges to exactly the committed fixture — the
//!    catch-and-shrink pipeline end to end, byte-for-byte.
//!
//! Regenerate a fixture after an intentional change with
//! `SAGE_BLESS=1 cargo test -q --test fuzz_regressions`.

mod common;

use sage::fuzz::gen::{chain_model, Stage};
use sage::fuzz::shrink::minimize;
use sage::prelude::*;
use sage_core::{checked_program, model_io};
use sage_model::AppGraph;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/{name}"))
}

/// The historical bug shape: a glue program whose per-node schedule is
/// not in dataflow order. PR 4's transfer engine would deadlock on it;
/// today it must surface a typed error, never hang, never succeed.
///
/// Returns `true` when `app` at `nodes` (a) passes the whole front door
/// check-clean, (b) executes clean as scheduled, and (c) fails *typed*
/// once node 0's schedule is reversed — i.e. it still reproduces the bug.
fn out_of_order_schedule_fails(app: &AppGraph, nodes: usize) -> bool {
    let source = model_io::model_to_sexpr(app);
    let (program, diags) = checked_program(&source, nodes);
    let Some(mut program) = program else {
        return false;
    };
    if diags
        .diags
        .iter()
        .any(|d| d.severity == sage_lint::Severity::Error)
    {
        return false;
    }
    // Reversing a single-task schedule changes nothing; such a model
    // cannot exhibit the bug, so it is not a valid shrink candidate.
    if program.schedules.first().is_none_or(|s| s.len() < 2) {
        return false;
    }
    let mut project = Project::new(
        model_io::model_from_sexpr(&source).expect("round-trips"),
        HardwareShelf::cspi_with_nodes(nodes),
    );
    sage::apps::kernels::register_kernels(&mut project.registry);
    let options = RuntimeOptions::paper_faithful().with_probes(false);
    if project
        .execute(&program, TimePolicy::Virtual, &options, 1)
        .is_err()
    {
        return false;
    }
    program.schedules[0].reverse();
    project
        .execute(&program, TimePolicy::Virtual, &options, 1)
        .is_err()
}

/// The committed fixture still reproduces the out-of-order failure: it is
/// check-clean, runs bit-identically twice as scheduled, and fails with a
/// typed runtime error under the reversed schedule.
#[test]
fn ooo_transfer_fixture_reproduces_the_failure() {
    let source = std::fs::read_to_string(fixture_path("ooo_transfer_min.sexpr"))
        .expect("committed fixture exists");
    let nodes = 1;
    let (program, diags) = checked_program(&source, nodes);
    let mut program = program.expect("fixture passes the front door");
    assert!(
        diags
            .diags
            .iter()
            .all(|d| d.severity != sage_lint::Severity::Error),
        "fixture must be check-clean:\n{}",
        diags.render("ooo_transfer_min.sexpr", Some(&source))
    );

    let mut project = Project::new(
        model_io::model_from_sexpr(&source).expect("parses"),
        HardwareShelf::cspi_with_nodes(nodes),
    );
    sage::apps::kernels::register_kernels(&mut project.registry);
    let options = RuntimeOptions::paper_faithful().with_probes(false);
    let a = project
        .execute(&program, TimePolicy::Virtual, &options, 1)
        .expect("fixture runs clean as scheduled");
    let b = project
        .execute(&program, TimePolicy::Virtual, &options, 1)
        .expect("fixture runs clean as scheduled");
    assert_eq!(
        sage_runtime::fnv1a_64(&common::sink_bytes(&program, &a.results, 1)),
        sage_runtime::fnv1a_64(&common::sink_bytes(&program, &b.results, 1)),
        "clean runs must be bit-identical"
    );

    program.schedules[0].reverse();
    let err = project
        .execute(&program, TimePolicy::Virtual, &options, 1)
        .expect_err("out-of-order schedule must fail");
    let msg = err.to_string();
    assert!(
        !msg.is_empty(),
        "failure must be typed, not a hang or panic"
    );
}

/// End-to-end catch-and-shrink: a four-stage, 16x16, multi-threaded chain
/// exhibiting the bug shape shrinks to exactly the committed fixture.
#[test]
fn shrinker_reduces_the_bug_shape_to_the_committed_fixture() {
    let stages: Vec<Stage> = vec![
        (4, Striping::BY_ROWS, Striping::BY_COLS),
        (2, Striping::BY_COLS, Striping::BY_ROWS),
        (2, Striping::BY_ROWS, Striping::BY_ROWS),
    ];
    let app = chain_model(
        &DataType::complex_matrix(16, 16),
        9,
        4,
        &stages,
        2,
        Striping::BY_ROWS,
    );
    assert!(
        out_of_order_schedule_fails(&app, 2),
        "the sprawling start model must exhibit the bug shape"
    );

    let (min_app, min_nodes) = minimize(&app, 2, out_of_order_schedule_fails);
    let min_source = model_io::model_to_sexpr(&min_app);
    assert!(
        out_of_order_schedule_fails(&min_app, min_nodes),
        "the shrunk model must still exhibit the bug shape"
    );

    let path = fixture_path("ooo_transfer_min.sexpr");
    if std::env::var("SAGE_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &min_source).unwrap();
    }
    let fixture = std::fs::read_to_string(&path)
        .expect("committed fixture exists (regenerate with SAGE_BLESS=1)");
    assert_eq!(
        min_source, fixture,
        "the shrinker no longer converges to the committed fixture"
    );
    assert!(
        min_app.block_count() <= 3,
        "shrinker left fat: {} blocks",
        min_app.block_count()
    );
    assert_eq!(min_nodes, 1, "one node suffices for the minimal repro");
}
