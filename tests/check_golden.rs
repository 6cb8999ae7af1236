//! Golden-file and acceptance tests for whole-model-source `sage check`:
//! the front end in `sage_core::check_model_source` ties the s-expression
//! loader, the model-layer gate, code generation, and the abstract
//! interpreter together, so the rendered output here covers spans resolved
//! against the model file.
//!
//! Program-level goldens live in `crates/check/tests/golden.rs`.
//! Regenerate after an intentional rendering change with
//! `UPDATE_GOLDEN=1 cargo test --test check_golden`.

use sage::fuzz::gen::{derive_seed, gen_model, GenConfig};
use sage_check::Checker;
use sage_core::{
    check_model_source, lint_model_source, model_from_sexpr, pipeline_model_source, Placement,
    Project,
};
use sage_fabric::TimePolicy;
use sage_lint::Diagnostics;
use sage_model::{HardwareShelf, Properties, Striping};
use sage_runtime::{
    execute, fnv1a_64, Execution, FnRole, FnThreadCtx, FunctionDescriptor, GlueProgram,
    LogicalBufferDesc, Registry, RuntimeError, RuntimeOptions, Task,
};
use std::fmt::Write;

fn fixture_path(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn check_golden(name: &str, actual: &str) {
    let path = fixture_path(&format!("{name}.expected"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    assert_eq!(
        actual, expected,
        "rendered output for `{name}` drifted from its golden file; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Loads `<name>.sexpr`, checks it at `nodes`, asserts `expect_code`
/// fired, and golden-checks the rendering.
fn check_model_golden(name: &str, nodes: usize, expect_code: &str) {
    let src = std::fs::read_to_string(fixture_path(&format!("{name}.sexpr"))).unwrap();
    let diags = check_model_source(&src, nodes);
    assert!(
        diags.diags.iter().any(|d| d.code == expect_code),
        "{name}: expected {expect_code}, got {:?}",
        diags.diags
    );
    check_golden(name, &diags.render(&format!("{name}.sexpr"), Some(&src)));
}

/// Pins every view of one `Checker` session on generated text no
/// hand-built fixture reaches: the six example models at the CLI's default
/// 4 nodes, and the 50 models `sage fuzz --seed 42 --count 50` draws, each
/// at its own node count. One fingerprint line per (model, pass) in
/// `checker_corpus.expected`: `deadlock()` (also with every node's schedule
/// reversed), `check()`, `pipeline(None)` (the plan's JSON, then the
/// diagnostics) and `race()` (the analysis JSON, then the diagnostics), each
/// sorted and rendered against the model source.
#[test]
fn checker_views_of_the_example_and_fuzz_corpus_are_pinned() {
    let dir = format!("{}/examples/models", env!("CARGO_MANIFEST_DIR"));
    let mut examples: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("sexpr"))
        .collect();
    examples.sort();
    let mut corpus: Vec<(String, String, usize)> = examples
        .iter()
        .map(|path| {
            let name = path.file_stem().unwrap().to_str().unwrap().to_owned();
            (name, std::fs::read_to_string(path).unwrap(), 4)
        })
        .collect();
    corpus.extend((0..50).map(|i| {
        let gm = gen_model(derive_seed(42, i), &GenConfig::default());
        (format!("fuzz{i:02}_{:016x}", gm.seed), gm.source, gm.nodes)
    }));
    assert_eq!(corpus.len(), 56);

    let mut pinned = String::new();
    for (name, src, nodes) in &corpus {
        let file = format!("{name}.sexpr");
        let render = |mut diags: Diagnostics| {
            diags.sort();
            diags.render(&file, Some(src))
        };
        let loaded = sage_core::load(src, *nodes)
            .unwrap_or_else(|diags| panic!("{name} does not load:\n{}", render(diags)));
        let (program, generated) = loaded.generate(&Placement::Aligned);
        let program =
            program.unwrap_or_else(|| panic!("{name} does not generate:\n{}", render(generated)));
        let hw = &loaded.project.hardware;
        let c = Checker::new(&program, hw, Some(&loaded.spans));
        let (plan, pipeline) = c.pipeline(None);
        let (races, race) = c.race();
        // The corpus schedules never deadlock; run backwards, most do, which
        // pins the blocking chain `SAGE040` prints.
        let mut reversed = program.clone();
        reversed.schedules.iter_mut().for_each(|s| s.reverse());
        let backwards = Checker::new(&reversed, hw, Some(&loaded.spans)).deadlock();
        let views = [
            ("deadlock", render(c.deadlock())),
            ("deadlock_reversed", render(backwards)),
            ("check", render(c.check())),
            (
                "pipeline",
                plan.map(|p| p.to_json()).unwrap_or_default() + "\n" + &render(pipeline),
            ),
            (
                "race",
                races.map(|r| r.to_json()).unwrap_or_default() + "\n" + &render(race),
            ),
        ];
        for (view, text) in views {
            writeln!(pinned, "{name} {view} {:016x}", fnv1a_64(text.as_bytes())).unwrap();
        }
    }
    check_golden("checker_corpus", &pinned);
}

/// The model-layer lint has no opinion on kernel FFT lengths, but the
/// abstract interpreter rejects the program the model generates.
#[test]
fn fft_not_pow2_lints_clean_but_fails_check() {
    let src = std::fs::read_to_string(fixture_path("fft_not_pow2.sexpr")).unwrap();
    let lint = lint_model_source(&src, 4);
    assert!(
        lint.is_empty(),
        "lint should accept it:\n{}",
        lint.render("fft_not_pow2.sexpr", Some(&src))
    );
    check_model_golden("fft_not_pow2", 4, "SAGE054");
}

#[test]
fn overweight_matrix_exceeds_node_memory() {
    check_model_golden("overweight_matrix", 4, "SAGE055");
}

#[test]
fn bandwidth_fanout_warns_but_does_not_fail() {
    let src = std::fs::read_to_string(fixture_path("bandwidth_fanout.sexpr")).unwrap();
    let diags = check_model_source(&src, 4);
    // A feasibility hazard, not a hard error: plain check passes, strict
    // (`--deny-warnings`, as CI runs it) fails.
    assert!(!diags.fails(false), "{:?}", diags.diags);
    assert!(diags.fails(true));
    check_model_golden("bandwidth_fanout", 4, "SAGE056");
}

/// Every committed example model passes `sage check` exactly as CI runs it
/// (`--deny-warnings` at the default node count).
#[test]
fn committed_example_models_check_clean() {
    let dir = format!("{}/examples/models", env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("sexpr") {
            continue;
        }
        seen += 1;
        let src = std::fs::read_to_string(&path).unwrap();
        let diags = check_model_source(&src, 4);
        assert!(
            diags.is_empty(),
            "{}:\n{}",
            path.display(),
            diags.render(&path.display().to_string(), Some(&src))
        );
    }
    assert!(seen >= 4, "expected the committed models, found {seen}");
}

#[test]
fn pipeline_hazard_min_warns_sage060() {
    check_model_golden("pipeline_hazard_min", 2, "SAGE060");
}

#[test]
fn feedback_cycle_min_warns_sage061() {
    check_model_golden("feedback_cycle_min", 2, "SAGE061");
}

/// The acceptance contract for the happens-before race pass: the minimal
/// unordered fan-in model is rejected *statically* with a SAGE070 naming
/// both producers' task paths, and the same program fails *typed* under
/// the run-time's vector-clock detector.
#[test]
fn race_min_is_caught_by_both_layers() {
    // Statically: SAGE070, naming both unordered writers.
    let src = std::fs::read_to_string(fixture_path("race_min.sexpr")).unwrap();
    let diags = check_model_source(&src, 2);
    let d = diags
        .diags
        .iter()
        .find(|d| d.code == "SAGE070")
        .unwrap_or_else(|| panic!("expected SAGE070, got {:?}", diags.diags));
    assert!(
        d.message.contains("`src_a[0]` (node 0, slot 0)")
            && d.message.contains("`src_b[1]` (node 1, slot 1)"),
        "finding must name both racing task paths: {}",
        d.message
    );
    check_golden("race_min", &diags.render("race_min.sexpr", Some(&src)));

    // Dynamically: the vector-clock detector fails the run typed, naming
    // the same port.
    let (project, program) = fixture_project("race_min", 2);
    let err = project
        .execute(
            &program,
            TimePolicy::Virtual,
            &RuntimeOptions::paper_faithful().with_race_detect(true),
            2,
        )
        .unwrap_err();
    assert!(
        matches!(
            &err,
            sage_core::ProjectError::Runtime(RuntimeError::RaceDetected { port, .. })
                if port == "snk.in"
        ),
        "expected RaceDetected on `snk.in`, got: {err}"
    );
}

/// Every committed example model is statically race-free *and* runs
/// detector-clean — the two layers must agree on clean programs too.
#[test]
fn committed_example_models_run_detector_clean() {
    let dir = format!("{}/examples/models", env!("CARGO_MANIFEST_DIR"));
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("sexpr") {
            continue;
        }
        let name = path.file_stem().unwrap().to_str().unwrap();
        let src = std::fs::read_to_string(&path).unwrap();
        let model = model_from_sexpr(&src).unwrap();
        let mut project = Project::new(model, HardwareShelf::cspi_with_nodes(4));
        sage_apps::kernels::register_kernels(&mut project.registry);
        let (program, _) = project.generate(&Placement::Aligned).unwrap();
        project
            .execute(
                &program,
                TimePolicy::Virtual,
                &RuntimeOptions::paper_faithful().with_race_detect(true),
                2,
            )
            .unwrap_or_else(|e| panic!("{name} must run detector-clean: {e}"));
    }
}

/// Loads a fixture model, generates its aligned glue program, and returns
/// a ready-to-execute project plus the program.
fn fixture_project(name: &str, nodes: usize) -> (Project, GlueProgram) {
    let src = std::fs::read_to_string(fixture_path(&format!("{name}.sexpr"))).unwrap();
    let model = model_from_sexpr(&src).unwrap();
    let mut project = Project::new(model, HardwareShelf::cspi_with_nodes(nodes));
    sage_apps::kernels::register_kernels(&mut project.registry);
    let (program, _) = project.generate(&Placement::Aligned).unwrap();
    (project, program)
}

/// Concatenates every sink's assembled output over all iterations — the
/// stream the pipeline-safety pass promises stays bit-identical at any
/// statically proven depth.
fn sink_stream(program: &GlueProgram, exec: &Execution, iterations: u32) -> Vec<u8> {
    let mut out = Vec::new();
    for f in &program.functions {
        if f.role != FnRole::Sink {
            continue;
        }
        for iter in 0..iterations {
            if let Some(full) = exec.results.assemble(program, f.id, iter) {
                out.extend_from_slice(&full);
            }
        }
    }
    out
}

/// The acceptance contract for the pipeline-safety pass: a delay-arc model
/// that *silently corrupts* its sink stream when run two iterations deep is
/// statically capped at depth 1, with both hazard endpoints named in the
/// SAGE060 finding.
#[test]
fn pipeline_pass_statically_caps_what_corrupts_at_depth_two() {
    let src = std::fs::read_to_string(fixture_path("pipeline_hazard_min.sexpr")).unwrap();

    // Statically: safe depth 1, and the finding names producer + consumer.
    let (plan, diags) = pipeline_model_source(&src, 2, Some(2));
    let plan = plan.expect("pipeline plan");
    assert_eq!(plan.safe_depth, 1, "{plan:?}");
    let d = diags
        .diags
        .iter()
        .find(|d| d.code == "SAGE060")
        .unwrap_or_else(|| panic!("expected SAGE060, got {:?}", diags.diags));
    assert!(
        d.message.contains("`dly[0]` (node 0, slot 1)")
            && d.message.contains("`snk[0]` (node 0, slot 2)"),
        "finding must name both hazard endpoints' task paths: {}",
        d.message
    );

    // Dynamically: at depth 2 the producer overwrites the delay ring slot
    // before the consumer drains it — the run *succeeds* but the sink
    // stream silently diverges from lock-step.
    let (project, program) = fixture_project("pipeline_hazard_min", 2);
    let iters = 4;
    let options = RuntimeOptions::paper_faithful();
    let policy = TimePolicy::Virtual;
    let base = project.execute(&program, policy, &options, iters).unwrap();
    let deep = project
        .execute(
            &program,
            policy,
            &options.clone().with_pipeline_validate(2),
            iters,
        )
        .unwrap();
    assert_ne!(
        sink_stream(&program, &base, iters),
        sink_stream(&program, &deep, iters),
        "depth 2 must corrupt the hazard fixture's sink stream"
    );

    // At the proven depth the pipelined stream is bit-identical.
    let safe = project
        .execute(
            &program,
            policy,
            &options.clone().with_pipeline_validate(1),
            iters,
        )
        .unwrap();
    assert_eq!(
        sink_stream(&program, &base, iters),
        sink_stream(&program, &safe, iters)
    );
}

/// The feedback-cycle variant fails *typed* instead of corrupting: with two
/// iterations in flight the mixer needs feedback its delay block has not
/// produced yet, and the executor reports the missing hand-off.
#[test]
fn feedback_cycle_fails_typed_above_proven_depth() {
    let src = std::fs::read_to_string(fixture_path("feedback_cycle_min.sexpr")).unwrap();
    let (plan, diags) = pipeline_model_source(&src, 2, Some(2));
    assert_eq!(plan.expect("pipeline plan").safe_depth, 1);
    assert!(diags.diags.iter().any(|d| d.code == "SAGE061"));

    let (project, program) = fixture_project("feedback_cycle_min", 2);
    let err = project
        .execute(
            &program,
            TimePolicy::Virtual,
            &RuntimeOptions::paper_faithful().with_pipeline_validate(2),
            4,
        )
        .unwrap_err();
    assert!(
        format!("{err}").contains("never materialized"),
        "expected a missing hand-off failure, got: {err}"
    );
}

/// src -> snk on two nodes, one thread per node, with node 1's schedule
/// reversed: the same-node hand-off there is consumed before it exists.
fn out_of_order_program() -> GlueProgram {
    let t = |fn_id: u32, thread: u32| Task { fn_id, thread };
    GlueProgram {
        app_name: "acceptance".into(),
        functions: vec![
            FunctionDescriptor {
                id: 0,
                name: "src".into(),
                function: "test.fill".into(),
                role: FnRole::Source,
                threads: 2,
                placement: vec![0, 1],
                flops: 0.0,
                mem_bytes: 0.0,
                inputs: vec![],
                outputs: vec![0],
                params: Properties::new(),
            },
            FunctionDescriptor {
                id: 1,
                name: "snk".into(),
                function: "sink.null".into(),
                role: FnRole::Sink,
                threads: 2,
                placement: vec![0, 1],
                flops: 0.0,
                mem_bytes: 0.0,
                inputs: vec![0],
                outputs: vec![],
                params: Properties::new(),
            },
        ],
        buffers: vec![LogicalBufferDesc {
            id: 0,
            producer: 0,
            producer_port: "out".into(),
            consumer: 1,
            consumer_port: "in".into(),
            shape: vec![4, 4],
            elem_bytes: 8,
            send_striping: Striping::BY_ROWS,
            recv_striping: Striping::BY_ROWS,
            delay: 0,
        }],
        schedules: vec![
            vec![t(0, 0), t(1, 0)], // node 0: in order
            vec![t(1, 1), t(0, 1)], // node 1: consumer first
        ],
    }
}

/// The acceptance contract for the abstract interpreter: a program that
/// dies at run time with `TransferFailed` is rejected *statically*, with a
/// `SAGE050` naming both endpoints' task paths.
#[test]
fn check_statically_rejects_what_fails_at_runtime_as_transfer_failed() {
    let program = out_of_order_program();

    // Dynamically: the executor hits the missing hand-off and fails typed.
    let mut registry = Registry::new();
    registry.register("test.fill", |ctx: &mut FnThreadCtx<'_>| {
        for o in ctx.outputs.iter_mut() {
            o.bytes.fill(ctx.thread as u8);
        }
        Ok(())
    });
    let machine = sage_fabric::MachineSpec::uniform(
        "t",
        2,
        sage_fabric::NodeSpec {
            flops_per_sec: 1.0e9,
            mem_bw: 1.0e9,
        },
        sage_fabric::LinkSpec {
            bandwidth: 1.0e8,
            latency: 10.0e-6,
        },
    );
    let err = execute(
        &program,
        &machine,
        sage_fabric::TimePolicy::Virtual,
        &registry,
        &RuntimeOptions::paper_faithful(),
        1,
    )
    .unwrap_err();
    assert!(
        matches!(err, RuntimeError::TransferFailed { attempts: 0, .. }),
        "{err}"
    );

    // Statically: the interpreter reports the same failure as SAGE050,
    // naming both the consuming and the producing task's schedule slots.
    let hw = HardwareShelf::cspi_with_nodes(2);
    let diags = sage_check::check_program(&program, &hw, None);
    let d = diags
        .diags
        .iter()
        .find(|d| d.code == "SAGE050")
        .unwrap_or_else(|| panic!("expected SAGE050, got {:?}", diags.diags));
    assert!(
        d.message.contains("`snk[1]` (node 1, slot 0)")
            && d.message.contains("`src[1]` (node 1, slot 1)"),
        "finding must name both endpoints' task paths: {}",
        d.message
    );
}
