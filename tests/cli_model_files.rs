//! The committed sample model files stay loadable and runnable (they are
//! what the `sage` CLI's `export` command produces).

use sage::prelude::*;
use sage_core::model_from_sexpr;

fn load(name: &str) -> AppGraph {
    let path = format!("{}/examples/models/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    model_from_sexpr(&text).expect("model file parses")
}

#[test]
fn sample_models_validate() {
    for name in ["corner_turn_256.sexpr", "stap_128.sexpr"] {
        let model = load(name);
        let flat = model.flatten().expect("flattens");
        sage_model::validate(&flat).expect("validates");
    }
}

#[test]
fn sample_corner_turn_runs_end_to_end() {
    let model = load("corner_turn_256.sexpr");
    let mut project = Project::new(model, HardwareShelf::cspi_with_nodes(8));
    sage::apps::kernels::register_kernels(&mut project.registry);
    let (exec, _) = project
        .run(
            &Placement::Aligned,
            TimePolicy::Virtual,
            &RuntimeOptions::paper_faithful(),
            1,
        )
        .expect("runs");
    assert!(exec.report.makespan > 0.0);
    assert_eq!(exec.results.len(), 8);
}

#[test]
fn sample_files_match_fresh_exports() {
    use sage_core::model_io::model_to_sexpr;
    let fresh = model_to_sexpr(&sage::apps::corner_turn::sage_model(256, 8));
    let committed = std::fs::read_to_string(format!(
        "{}/examples/models/corner_turn_256.sexpr",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap();
    assert_eq!(
        fresh, committed,
        "regenerate with `sage export corner_turn --size 256 --threads 8`"
    );
}

mod common;

/// Every code in the published registry is reachable through the CLI's
/// `sage explain <code>` — the registry, the long-form explanations, and
/// the CLI dispatch can never drift apart.
#[test]
fn every_registered_code_is_reachable_from_sage_explain() {
    for (code, _, summary) in sage_lint::CODE_TABLE {
        let out = std::process::Command::new(common::sage_bin())
            .args(["explain", code])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "sage explain {code}: {stderr}");
        assert!(
            stderr.contains(code) && stderr.contains(summary),
            "sage explain {code} must echo the registry entry, got:\n{stderr}"
        );
    }
    // And unknown codes are rejected, not silently accepted.
    let out = std::process::Command::new(common::sage_bin())
        .args(["explain", "SAGE999"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// `sage pipeline` proves a committed example safe beyond lock-step, and
/// the plan it exports as `--format json`'s `"plan"` is the library's own
/// proof of the same file, byte for byte.
#[test]
fn sage_pipeline_proves_example_and_plan_round_trips() {
    let model = common::model_path("fft2d_64.sexpr");
    let run = |format: &[&str]| {
        let out = std::process::Command::new(common::sage_bin())
            .args(["pipeline", &model, "--deny-warnings"])
            .args(format)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        stdout
    };
    let table = run(&[]);
    assert!(table.contains("safe pipeline depth"), "{table}");

    let source = std::fs::read_to_string(&model).unwrap();
    let (plan, diags) = sage_core::pipeline_model_source(&source, 4, None);
    let plan = plan.expect("fft2d_64 carries a pipeline proof");
    assert!(plan.safe_depth >= 2, "fft2d_64 must pipeline: {plan:?}");
    assert_eq!(
        run(&["--format", "json"]).trim_end(),
        format!(
            "{{\"plan\":{},\"diagnostics\":{}}}",
            plan.to_json(),
            diags.to_json(&model, Some(&source))
        )
    );
}

/// `sage race` proves a committed example race-free under `--deny-warnings`
/// (exactly as CI runs it) and prints the happens-before graph size.
#[test]
fn sage_race_proves_example_race_free() {
    let out = std::process::Command::new(common::sage_bin())
        .args([
            "race",
            &common::model_path("beamformer_64.sexpr"),
            "--deny-warnings",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("happens-before graph"), "{stdout}");
    assert!(stdout.contains("race-free"), "{stdout}");
}

/// The racy fixture fails `sage race` with SAGE070 on stderr, and fails a
/// `--race-detect --unchecked` run typed with the dynamic detector's
/// data-race report — both layers through the real CLI.
#[test]
fn sage_race_and_race_detect_reject_racy_fixture() {
    let fixture = format!(
        "{}/tests/fixtures/race_min.sexpr",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = std::process::Command::new(common::sage_bin())
        .args(["race", &fixture, "--nodes", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "race_min must be rejected");
    let all = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(all.contains("SAGE070"), "{all}");

    let out = std::process::Command::new(common::sage_bin())
        .args([
            "run",
            &fixture,
            "--nodes",
            "2",
            "--race-detect",
            "--unchecked",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "detector must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("data race on `snk.in`"), "{stderr}");
}

/// Requesting a depth above the proven cap fails the CLI with the hazard
/// diagnostic on stderr.
#[test]
fn sage_pipeline_rejects_over_deep_request() {
    let fixture = format!(
        "{}/tests/fixtures/pipeline_hazard_min.sexpr",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = std::process::Command::new(common::sage_bin())
        .args(["pipeline", &fixture, "--nodes", "2", "--depth", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "depth 2 must be rejected");
    let all = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(all.contains("SAGE060"), "{all}");
}

/// `run --ga` goes through the same gate as any run — the mapping is
/// linted and the GA-mapped program is the one checked and executed — and
/// reproduces the aligned run's sink bit for bit. A feedback (`delay`)
/// model maps too: its feedback arc crosses the iteration boundary, so it
/// is no cycle in the task graph AToT schedules (it used to panic there,
/// exit 101).
#[test]
fn sage_run_ga_is_checked_and_matches_the_aligned_sink() {
    let fixture = format!(
        "{}/tests/fixtures/feedback_cycle_min.sexpr",
        env!("CARGO_MANIFEST_DIR")
    );
    for (model, nodes, clean) in [
        (common::model_path("fft2d_64.sexpr"), "4", true),
        (fixture, "2", false),
    ] {
        let sink_line = |extra: &[&str]| {
            let out = std::process::Command::new(common::sage_bin())
                .args(["run", &model, "--nodes", nodes, "--iters", "2"])
                .args(extra)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "sage run {extra:?}: {stderr}");
            if clean {
                assert!(stderr.is_empty(), "clean model, clean gate: {stderr}");
            }
            assert!(!stderr.contains("panicked"), "{stderr}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().find(|l| l.starts_with("sink output:"));
            line.expect("sink checksum line").to_owned()
        };
        assert_eq!(sink_line(&["--ga"]), sink_line(&[]), "{model}");
    }
}

/// A program the checker's preamble faults (here a zero-extent payload,
/// `SAGE054`) is reported once, by the check stage of `run` — so
/// `--unchecked` still bypasses it — and by the lint stage of `codegen`,
/// which has no check stage.
#[test]
fn sage_run_reports_a_preamble_fault_once_in_the_check_stage() {
    let model = std::env::temp_dir().join(format!("sage_zero_{}.sexpr", std::process::id()));
    std::fs::write(
        &model,
        r#"(model "zero"
  (block "src" (source 2)
    (port out "out" (array (complex) 0 8) (striped 0))
    (props ("kernel" "workload.bytes") ("seed" 3)))
  (block "snk" (sink 2)
    (port in "in" (array (complex) 0 8) (striped 0)))
  (connect "src" "out" "snk" "in"))"#,
    )
    .unwrap();
    let sage = |sub: &str, extra: &[&str]| {
        let out = std::process::Command::new(common::sage_bin())
            .args([sub, model.to_str().unwrap(), "--nodes", "2"])
            .args(extra)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.success(), stderr)
    };
    let (ok, stderr) = sage("run", &["--iters", "1"]);
    assert!(!ok && stderr.contains("generated program fails check (1 error)"));
    assert_eq!(stderr.matches("error[SAGE054]").count(), 1, "{stderr}");
    let (ok, stderr) = sage("run", &["--iters", "1", "--unchecked"]);
    assert!(ok && !stderr.contains("SAGE054"), "{stderr}");
    let (ok, stderr) = sage("codegen", &[]);
    assert!(
        !ok && stderr.contains("model fails lint (1 error)"),
        "{stderr}"
    );
    let _ = std::fs::remove_file(&model);
}

/// A mistyped flag or an unparsable number fails the CLI with a one-line
/// error naming the flag — never a silent run with the default.
#[test]
fn sage_cli_rejects_unknown_flags_and_bad_numbers() {
    let model = common::model_path("fft2d_64.sexpr");
    for (args, needle) in [
        (&["run", &model, "--pipline", "4"][..], "--pipline"),
        (&["run", &model, "--iters", "x"], "--iters"),
        (&["launch", &model, "--copy-baseline"], "--copy-baseline"),
        (&["launch", &model, "--optimized"], "--optimized"),
        (&["launch", &model, "--race-detect"], "--race-detect"),
        (&["submit", &model, "--optimized"], "--optimized"),
        (&["run", &model, "--pipeline", "0"], "--pipeline 0"),
        (
            &["run", &model, "--pipeline-validate", "0"],
            "--pipeline-validate 0",
        ),
        // Sizes the app models assert against are rejected before one is
        // built.
        (
            &["export", "corner_turn", "--size", "30", "--threads", "4"],
            "--threads 4",
        ),
        (
            &["export", "fft2d", "--size", "8", "--threads", "0"],
            "--threads 0",
        ),
        (
            &["export", "fft2d", "--size", "48", "--threads", "2"],
            "--size 48",
        ),
        // A count of nothing to run on is refused before a model is read
        // or a daemon spawned, not asserted against deep in the model.
        (&["run", &model, "--nodes", "0"], "--nodes"),
        (&["check", &model, "--nodes", "0"], "--nodes"),
        (&["codegen", &model, "--nodes", "0"], "--nodes"),
        (&["launch", &model, "--workers", "0"], "--workers"),
        (
            &["submit", &model, "--sched", "127.0.0.1:9", "--ranks", "0"],
            "--ranks",
        ),
        (&["sched", "--spawn", "1", "--slots", "0"], "--slots"),
        (&["sched", "--spawn", "0"], "--spawn"),
        // Zero iterations is no run: never a throughput line over nothing
        // or a fuzz verdict on an empty sink.
        (&["run", &model, "--iters", "0"], "--iters"),
        (
            &["run", &model, "--pipeline", "4", "--iters", "0"],
            "--iters",
        ),
        (
            &["launch", &model, "--workers", "2", "--iters", "0"],
            "--iters",
        ),
        (
            &["submit", &model, "--sched", "127.0.0.1:9", "--iters", "0"],
            "--iters",
        ),
        (&["fuzz", "--count", "2", "--iters", "0"], "--iters"),
        (
            &["fuzz", "--replay", "no-such-bundle", "--iters", "0"],
            "--iters",
        ),
    ] {
        let out = std::process::Command::new(common::sage_bin())
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "sage {args:?} must fail");
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.contains(needle), "{stderr}");
        // Rejected before anything runs: nothing reaches stdout.
        assert!(
            out.stdout.is_empty(),
            "sage {args:?} printed before failing"
        );
    }
    // A retired subcommand is an unknown one: usage, exit 2 — `sage fleet`
    // is the only daemon.
    let out = std::process::Command::new(common::sage_bin())
        .args(["worker", "--listen", "127.0.0.1:0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "sage worker must exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage:"));
}

/// `sage run` with probes on prints the same report, bottleneck line and
/// Gantt chart, and writes the same `--trace` CSV, byte for byte, as the
/// build these fingerprints were recorded at (lock-step, virtual clock, 4
/// nodes, 3 iterations). The Visualizer may change how it reads a trace,
/// never what it shows.
#[test]
fn sage_run_stdout_and_trace_csv_are_pinned() {
    const PINS: [(&str, u64, u64); 6] = [
        ("beamformer_64", 0x89e0bd85ad76d728, 0x7b412b20ee5ed97a),
        ("corner_turn_256", 0x3fe9bb60ea5856e9, 0xc412c71ef9d38f95),
        ("fft2d_64", 0x32455ebdc4b8c46b, 0x21b74b6f08243c68),
        ("image_filter_128", 0x23f455ab19f23de4, 0x5f8dbf2b7a353c3d),
        ("range_doppler_64", 0xd57904e5ff65261b, 0x43b28965d242e49c),
        ("stap_128", 0x025072d5dbfb8b33, 0x27caac43697c3232),
    ];
    for (model, stdout_sum, csv_sum) in PINS {
        let csv = common::out_path(&format!("pinned_trace_{model}"));
        let path = common::model_path(&format!("{model}.sexpr"));
        let out = std::process::Command::new(common::sage_bin())
            .args(["run", &path, "--nodes", "4"])
            .args(["--iters", "3", "--trace"])
            .arg(&csv)
            .output()
            .unwrap();
        assert!(out.status.success(), "{model}: {out:?}");
        let trace = std::fs::read(&csv).expect("trace written");
        let _ = std::fs::remove_file(&csv);
        let fnv = sage_runtime::fnv1a_64;
        let got = (fnv(&out.stdout), fnv(&trace));
        assert_eq!(
            got,
            (stdout_sum, csv_sum),
            "{model}: stdout or CSV moved (got {:#018x}, {:#018x})",
            got.0,
            got.1
        );
    }
}
