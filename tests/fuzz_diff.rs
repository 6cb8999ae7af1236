//! The differential fuzz suite: seeded random model corpora swept across
//! every transport / data-plane / fault configuration via `sage_fuzz`.
//!
//! Fast, deterministic slices run in the normal test job; the full soak
//! (larger corpus, TCP half of the lattice, shrinking) is gated behind
//! `SAGE_SOAK=1`. Any failure prints the exact master seed, per-model
//! seed, and configuration cell, and writes the offending model and
//! fault plan to `target/fuzz-failures/` — `sage fuzz --replay
//! target/fuzz-failures/fuzz-<seed>` reproduces it bit-identically.

mod common;

use sage::fuzz::{diff::DiffConfig, failure, gen, run_fuzz, FuzzOptions};
use sage_fabric::FaultPlan;
use sage_model::Striping;

/// Runs a campaign and asserts it found no property violations; on
/// failure the rendered report (seeds, cells, messages) is the panic
/// text, and the repro bundles are already on disk.
fn assert_campaign_clean(opts: &FuzzOptions, tcp: bool) {
    let spawner: &sage_fleet::Spawner<'_> = &common::spawn_worker;
    let report = run_fuzz(opts, tcp.then_some(spawner));
    assert_eq!(
        report.failed(),
        0,
        "fuzz campaign (seed {}) violated a differential property; repros under {}:\n{}",
        opts.seed,
        common::failures_dir().display(),
        report.render()
    );
}

/// Quick local sweep — always on, bounded (~12 local runs).
#[test]
fn quick_local_corpus_is_differentially_clean() {
    let opts = FuzzOptions {
        seed: 7,
        count: 6,
        save_failing: Some(common::failures_dir()),
        ..FuzzOptions::default()
    };
    assert_campaign_clean(&opts, false);
}

/// Same master seed twice ⇒ byte-identical campaign reports.
#[test]
fn campaign_report_is_deterministic() {
    let opts = FuzzOptions {
        seed: 21,
        count: 4,
        ..FuzzOptions::default()
    };
    let a = run_fuzz(&opts, None).render();
    let b = run_fuzz(&opts, None).render();
    assert_eq!(a, b, "same seed must render the same bytes");
}

/// A tiny corpus through the full {local, tcp} lattice: each clean model
/// spawns real worker processes.
#[test]
fn tcp_lattice_stays_bit_identical() {
    let opts = FuzzOptions {
        seed: 13,
        count: 3,
        diff: DiffConfig {
            tcp: true,
            fault_rounds: 1,
            ..DiffConfig::default()
        },
        save_failing: Some(common::failures_dir()),
        ..FuzzOptions::default()
    };
    assert_campaign_clean(&opts, true);
}

/// The long soak: bigger corpus, full lattice, more fault rounds, shrink
/// anything that fails. `SAGE_SOAK=1 cargo test -q --test fuzz_diff`.
#[test]
fn soak_full_lattice() {
    if std::env::var("SAGE_SOAK").is_err() {
        eprintln!("soak_full_lattice: skipped (set SAGE_SOAK=1 to run)");
        return;
    }
    let opts = FuzzOptions {
        seed: 42,
        count: 50,
        diff: DiffConfig {
            tcp: true,
            fault_rounds: 3,
            ..DiffConfig::default()
        },
        minimize: true,
        save_failing: Some(common::failures_dir()),
        ..FuzzOptions::default()
    };
    assert_campaign_clean(&opts, true);
}

/// Replaying a saved failure bundle must reproduce the run bit-for-bit:
/// a deterministically-failing fault plan is saved, loaded back, and run
/// twice — same typed error, same rendering, both times.
#[test]
fn saved_failure_replays_bit_identically() {
    let stages: Vec<gen::Stage> = vec![(2, Striping::BY_ROWS, Striping::BY_COLS)];
    let app = gen::chain_model(
        &sage_model::DataType::complex_matrix(8, 8),
        5,
        2,
        &stages,
        2,
        Striping::BY_ROWS,
    );
    let source = sage_core::model_io::model_to_sexpr(&app);
    // This plan fails the run deterministically on iteration 0.
    let plan = FaultPlan::new(3).inject_kernel_fault("stage0", 0, 1, "soak repro fault");
    let repro = failure::Repro {
        seed: 0x50a7, // arbitrary fixed tag
        nodes: 2,
        iterations: 2,
        cell: "local/zero-copy".into(),
        message: "injected kernel fault".into(),
        source,
        plan: Some(plan),
    };
    let dir = common::failures_dir();
    let stem = failure::save_repro(&dir, &repro).expect("save");
    let loaded = failure::load_repro(&stem).expect("load");
    assert_eq!(loaded, repro, "bundle must round-trip losslessly");

    // Replay twice through the same front door the harness uses.
    let run = |r: &failure::Repro| -> String {
        let app = sage_core::model_io::model_from_sexpr(&r.source).expect("parses");
        let mut project =
            sage_core::Project::new(app, sage_model::HardwareShelf::cspi_with_nodes(r.nodes));
        sage::apps::kernels::register_kernels(&mut project.registry);
        let (program, _) = project
            .generate(&sage_core::Placement::Aligned)
            .expect("codegen");
        let options = sage_runtime::RuntimeOptions::paper_faithful()
            .with_probes(false)
            .with_faults(r.plan.clone().expect("plan"));
        match project.execute(
            &program,
            sage_fabric::TimePolicy::Virtual,
            &options,
            r.iterations,
        ) {
            Ok(exec) => format!(
                "ok:{:016x}",
                sage_runtime::fnv1a_64(&common::sink_bytes(&program, &exec.results, r.iterations))
            ),
            Err(e) => format!("err:{e}"),
        }
    };
    let first = run(&loaded);
    let second = run(&loaded);
    assert_eq!(first, second, "replay must be bit-identical");
    assert!(
        first.starts_with("err:") && first.contains("soak repro fault"),
        "replay must reproduce the injected failure, got: {first}"
    );
}

/// A bundle saved in a cell of the retired copy-heavy data plane must be
/// refused with a one-line error: replaying it on the surviving plane
/// would report on a run that is not the one that failed.
#[test]
fn replay_of_a_retired_plane_bundle_is_refused() {
    for (seed, cell) in [(0xc0b1, "local/copy"), (0xc0b2, "tcp/copy")] {
        let repro = failure::Repro {
            seed,
            nodes: 2,
            iterations: 1,
            cell: cell.into(),
            message: "checksum mismatch".into(),
            source: "(app \"x\")".into(),
            plan: None,
        };
        let stem = failure::save_repro(&common::failures_dir(), &repro).expect("save");
        let out = std::process::Command::new(common::sage_bin())
            .args(["fuzz", "--replay"])
            .arg(&stem)
            .output()
            .expect("spawn sage");
        assert!(!out.status.success(), "{cell}: replay must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{cell}: {stderr}");
        assert!(
            stderr.contains(cell) && stderr.contains("data plane retired in PR 12"),
            "{cell}: {stderr}"
        );
    }
}
