//! Golden-file tests: the exact rendered output for each stable code the
//! passes over the generated program produce on hand-built glue programs.
//! Model-source-level goldens (driving `sage check` end to end) live in the
//! workspace-level test suite because they need the `sage-core` front end.
//!
//! Regenerate after an intentional rendering change with
//! `UPDATE_GOLDEN=1 cargo test -p sage-check --test golden`.

use sage_check::{check_program, pipeline_plan, Checker};
use sage_lint::Diagnostics;
use sage_model::{HardwareShelf, Properties, Striping};
use sage_runtime::{FnRole, FunctionDescriptor, GlueProgram, LogicalBufferDesc, Task};

fn fixture_path(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Compares `actual` against the committed `<name>.expected`; with
/// `UPDATE_GOLDEN` set, (re)writes the fixture instead.
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

/// Checks `program` against a cspi machine of its own node count and
/// golden-checks the rendering; every fixture must actually contain
/// `expect_code`.
fn check_program_golden(name: &str, program: &GlueProgram, expect_code: &str) {
    pass_golden(name, program, expect_code, |c| c.check());
}

/// [`check_program_golden`] for any one pass of the session.
fn pass_golden(
    name: &str,
    program: &GlueProgram,
    expect_code: &str,
    pass: fn(&Checker<'_>) -> Diagnostics,
) {
    let hw = HardwareShelf::cspi_with_nodes(program.node_count());
    let mut diags = pass(&Checker::new(program, &hw, None));
    diags.sort();
    assert!(
        diags.diags.iter().any(|d| d.code == expect_code),
        "{name}: expected {expect_code}, got {:?}",
        diags.diags
    );
    check_golden(name, &diags.render("golden.glue", None));
}

/// Function `id`, `name`, running `function` on two threads, one per
/// node, with no ports: the base every fixture's descriptors update.
fn descriptor(id: u32, name: &str, function: &str, role: FnRole) -> FunctionDescriptor {
    FunctionDescriptor {
        id,
        name: name.into(),
        function: function.into(),
        role,
        threads: 2,
        placement: vec![0, 1],
        flops: 0.0,
        mem_bytes: 0.0,
        inputs: vec![],
        outputs: vec![],
        params: Properties::new(),
    }
}

fn buffer(id: u32, producer: u32, consumer: u32, shape: Vec<usize>) -> LogicalBufferDesc {
    LogicalBufferDesc {
        id,
        producer,
        producer_port: "out".into(),
        consumer,
        consumer_port: "in".into(),
        shape,
        elem_bytes: 8,
        send_striping: Striping::BY_ROWS,
        recv_striping: Striping::BY_ROWS,
        delay: 0,
    }
}

fn t(fn_id: u32, thread: u32) -> Task {
    Task { fn_id, thread }
}

/// A two-stage pipeline (src -> snk, two threads each, one thread per
/// node) that checks completely clean: the mutation base for every broken
/// fixture.
fn two_stage() -> GlueProgram {
    GlueProgram {
        app_name: "golden".into(),
        functions: vec![
            FunctionDescriptor {
                outputs: vec![0],
                ..descriptor(0, "src", "test.fill", FnRole::Source)
            },
            FunctionDescriptor {
                inputs: vec![0],
                ..descriptor(1, "snk", "sink.null", FnRole::Sink)
            },
        ],
        buffers: vec![buffer(0, 0, 1, vec![4, 4])],
        schedules: vec![vec![t(0, 0), t(1, 0)], vec![t(0, 1), t(1, 1)]],
    }
}

#[test]
fn baseline_two_stage_checks_clean() {
    let program = two_stage();
    let hw = HardwareShelf::cspi_with_nodes(2);
    let diags = check_program(&program, &hw, None);
    assert!(diags.is_empty(), "{:?}", diags.diags);
}

#[test]
fn sage050_handoff_out_of_order() {
    // Node 1 consumes the same-node hand-off before producing it: the exact
    // program that dies at run time with TransferFailed (attempts: 0).
    let mut program = two_stage();
    program.schedules[1].reverse();
    check_program_golden("sage050_handoff_out_of_order", &program, "SAGE050");
}

#[test]
fn sage050_no_sender() {
    // The producer no longer emits the buffer; both consumer threads wait
    // for stripes nothing sends.
    let mut program = two_stage();
    program.functions[0].outputs.clear();
    check_program_golden("sage050_no_sender", &program, "SAGE050");
}

#[test]
fn sage051_duplicate_send() {
    // A second source claims the same output buffer: every stripe tag is
    // sent twice (SAGE051) and the function table has a double-write
    // (SAGE053).
    let mut program = two_stage();
    program.functions.push(FunctionDescriptor {
        outputs: vec![0],
        ..descriptor(2, "src2", "test.fill", FnRole::Source)
    });
    program.schedules[0].insert(0, t(2, 0));
    program.schedules[1].insert(0, t(2, 1));
    check_program_golden("sage051_duplicate_send", &program, "SAGE051");
}

#[test]
fn sage052_foreign_input() {
    // A third function reads a buffer routed to someone else: a
    // use-before-init (SAGE052), and its receives collide with the real
    // consumer's transfer tags (SAGE051).
    let mut program = two_stage();
    program.functions.push(FunctionDescriptor {
        inputs: vec![0],
        ..descriptor(2, "spy", "sink.null", FnRole::Sink)
    });
    program.schedules[0].push(t(2, 0));
    program.schedules[1].push(t(2, 1));
    check_program_golden("sage052_foreign_input", &program, "SAGE052");
}

#[test]
fn sage053_double_write() {
    // The sink also lists the buffer as an output: one writer too many.
    let mut program = two_stage();
    program.functions[1].outputs.push(0);
    check_program_golden("sage053_double_write", &program, "SAGE053");
}

#[test]
fn sage054_degenerate_payload() {
    let mut program = two_stage();
    program.buffers[0].shape = vec![0, 4];
    check_program_golden("sage054_degenerate_payload", &program, "SAGE054");
}

#[test]
fn sage054_kernel_contract() {
    // A three-stage pipeline whose FFT stage gets 12-sample rows: 12 is not
    // a power of two, so Fft1d::new would panic at run time.
    let program = GlueProgram {
        app_name: "golden".into(),
        functions: vec![
            FunctionDescriptor {
                outputs: vec![0],
                ..descriptor(0, "src", "test.fill", FnRole::Source)
            },
            FunctionDescriptor {
                inputs: vec![0],
                outputs: vec![1],
                ..descriptor(1, "fft", "isspl.fft_rows", FnRole::Compute)
            },
            FunctionDescriptor {
                inputs: vec![1],
                ..descriptor(2, "snk", "sink.null", FnRole::Sink)
            },
        ],
        buffers: vec![buffer(0, 0, 1, vec![4, 12]), buffer(1, 1, 2, vec![4, 12])],
        schedules: vec![
            vec![t(0, 0), t(1, 0), t(2, 0)],
            vec![t(0, 1), t(1, 1), t(2, 1)],
        ],
    };
    check_program_golden("sage054_kernel_contract", &program, "SAGE054");
}

#[test]
fn sage055_memory_high_water() {
    // A 134 MB matrix striped over two 64 MB nodes: 67 MB stripes cannot
    // fit either node's DRAM.
    let mut program = two_stage();
    program.buffers[0].shape = vec![4096, 4096];
    check_program_golden("sage055_memory_high_water", &program, "SAGE055");
}

#[test]
fn sage056_bandwidth_infeasible() {
    // One replicated 33 MB source fanned out to four nodes: over 0.2 s of
    // Myrinet wire time per iteration on every link.
    let program = GlueProgram {
        app_name: "golden".into(),
        functions: vec![
            FunctionDescriptor {
                threads: 1,
                placement: vec![0],
                outputs: vec![0],
                ..descriptor(0, "src", "test.fill", FnRole::Source)
            },
            FunctionDescriptor {
                threads: 4,
                placement: vec![0, 1, 2, 3],
                inputs: vec![0],
                ..descriptor(1, "snk", "sink.null", FnRole::Sink)
            },
        ],
        buffers: vec![{
            let mut b = buffer(0, 0, 1, vec![4096, 1024]);
            b.send_striping = Striping::Replicated;
            b.recv_striping = Striping::Replicated;
            b
        }],
        schedules: vec![
            vec![t(0, 0), t(1, 0)],
            vec![t(1, 1)],
            vec![t(1, 2)],
            vec![t(1, 3)],
        ],
    };
    check_program_golden("sage056_bandwidth_infeasible", &program, "SAGE056");
}

#[test]
fn sage057_tag_overflow() {
    // 1025 threads per function: thread indices no longer fit the tag's
    // 10-bit fields, so every transfer ledger entry would alias.
    let threads = 1025u32;
    let all = vec![0u32; threads as usize];
    let mut sched: Vec<Task> = (0..threads).map(|th| t(0, th)).collect();
    sched.extend((0..threads).map(|th| t(1, th)));
    let program = GlueProgram {
        app_name: "golden".into(),
        functions: vec![
            FunctionDescriptor {
                threads,
                placement: all.clone(),
                outputs: vec![0],
                ..descriptor(0, "src", "test.fill", FnRole::Source)
            },
            FunctionDescriptor {
                threads,
                placement: all,
                inputs: vec![0],
                ..descriptor(1, "snk", "sink.null", FnRole::Sink)
            },
        ],
        buffers: vec![{
            let mut b = buffer(0, 0, 1, vec![2050]);
            b.elem_bytes = 1;
            b
        }],
        schedules: vec![sched],
    };
    check_program_golden("sage057_tag_overflow", &program, "SAGE057");
}

#[test]
fn sage060_cross_iteration_hazard() {
    // The clean two-stage hand-off becomes a one-iteration delay arc: safe
    // in lock-step, but with two iterations in flight the producer
    // overwrites the single ring slot the consumer still has to drain.
    let mut program = two_stage();
    program.buffers[0].delay = 1;
    check_program_golden("sage060_cross_iteration_hazard", &program, "SAGE060");
}

#[test]
fn sage061_feedback_cycle() {
    // src -> m -> fbd -> m: the mixer consumes its own output of the
    // previous iteration, so the delay arc closes a cycle and the whole
    // program is pinned to lock-step execution.
    let program = GlueProgram {
        app_name: "golden".into(),
        functions: vec![
            FunctionDescriptor {
                outputs: vec![0],
                ..descriptor(0, "src", "test.fill", FnRole::Source)
            },
            FunctionDescriptor {
                inputs: vec![0, 2],
                outputs: vec![1],
                ..descriptor(1, "m", "workload.mix", FnRole::Compute)
            },
            FunctionDescriptor {
                inputs: vec![1],
                outputs: vec![2],
                ..descriptor(2, "fbd", "id", FnRole::Compute)
            },
        ],
        buffers: vec![buffer(0, 0, 1, vec![4, 4]), buffer(1, 1, 2, vec![4, 4]), {
            let mut b = buffer(2, 2, 1, vec![4, 4]);
            b.consumer_port = "fb".into();
            b.delay = 1;
            b
        }],
        // The feedback-aware toposort schedules the consumer `m` before the
        // delay producer `fbd`: legal only because the arc reads last
        // iteration's payload.
        schedules: vec![
            vec![t(0, 0), t(1, 0), t(2, 0)],
            vec![t(0, 1), t(1, 1), t(2, 1)],
        ],
    };
    check_program_golden("sage061_feedback_cycle", &program, "SAGE061");
}

#[test]
fn sage062_depth_infeasible_memory() {
    // A 67 MB matrix striped over two 64 MB nodes: the 33.5 MB stripes fit
    // lock-step (no SAGE055), but a 2-slot ring would not, so the deepest
    // pipeline that fits is depth 1.
    let mut program = two_stage();
    program.buffers[0].shape = vec![4096, 2048];
    let hw = HardwareShelf::cspi_with_nodes(2);
    let diags = check_program(&program, &hw, None);
    assert!(
        !diags.diags.iter().any(|d| d.code == "SAGE055"),
        "fixture must fit lock-step: {:?}",
        diags.diags
    );
    check_program_golden("sage062_depth_infeasible_memory", &program, "SAGE062");
}

/// Two 2-threaded sources (rows-striped and cols-striped) fan into one
/// sink port on 2 nodes: cross-node overlapping writes with no ordering —
/// the mutation base for the race-pass fixtures.
fn fan_in_base() -> GlueProgram {
    GlueProgram {
        app_name: "golden".into(),
        functions: vec![
            FunctionDescriptor {
                outputs: vec![0],
                ..descriptor(0, "a", "fill.a", FnRole::Source)
            },
            FunctionDescriptor {
                outputs: vec![1],
                ..descriptor(1, "b", "fill.b", FnRole::Source)
            },
            FunctionDescriptor {
                inputs: vec![0, 1],
                ..descriptor(2, "snk", "sink.null", FnRole::Sink)
            },
        ],
        buffers: vec![buffer(0, 0, 2, vec![4, 4]), {
            let mut b = buffer(1, 1, 2, vec![4, 4]);
            b.send_striping = Striping::BY_COLS;
            b
        }],
        schedules: vec![
            vec![t(0, 0), t(1, 0), t(2, 0)],
            vec![t(0, 1), t(1, 1), t(2, 1)],
        ],
    }
}

#[test]
fn sage070_fan_in_write_write_race() {
    check_program_golden("sage070_fan_in_write_write_race", &fan_in_base(), "SAGE070");
}

#[test]
fn sage071_read_write_race() {
    // A single-threaded replicated source `a` plus a rows-striped source
    // `b` fan into the sink: `b[0]`'s stripe lands in the full payload
    // `snk[1]` reads, but the only transfer from `b[0]` goes to `snk[0]` —
    // nothing orders the write against the cross-node read (SAGE071; the
    // unordered `a`/`b` write pair is the companion SAGE070).
    let mut program = fan_in_base();
    program.functions[0].threads = 1;
    program.functions[0].placement = vec![0];
    program.buffers[0].send_striping = Striping::Replicated;
    program.buffers[0].recv_striping = Striping::Replicated;
    program.buffers[1].send_striping = Striping::BY_ROWS;
    program.schedules = vec![vec![t(0, 0), t(1, 0), t(2, 0)], vec![t(1, 1), t(2, 1)]];
    check_program_golden("sage071_read_write_race", &program, "SAGE071");
}

#[test]
fn sage072_depth_conditional_race() {
    // Both writers on one node, one arc delayed: the lock-step iteration
    // boundary orders them, pipelined execution does not — the race pass
    // caps the buffers at depth 1 and the pipeline plan reports the cap.
    let mut program = fan_in_base();
    program.buffers[1].delay = 1;
    for b in &mut program.buffers {
        b.send_striping = Striping::Replicated;
        b.recv_striping = Striping::Replicated;
    }
    for f in &mut program.functions {
        f.threads = 1;
        f.placement = vec![0];
    }
    program.schedules = vec![vec![t(0, 0), t(1, 0), t(2, 0)]];
    check_program_golden("sage072_depth_conditional_race", &program, "SAGE072");
}

#[test]
fn sage073_benign_splat() {
    // The same generator with the same parameters splats identical
    // replicated payloads from two unordered cross-node threads: either
    // arrival order leaves the same bytes (warning, not error).
    let mut program = fan_in_base();
    program.functions[1].function = "fill.a".into();
    program.functions[1].placement = vec![1, 0];
    for b in &mut program.buffers {
        b.send_striping = Striping::Replicated;
        b.recv_striping = Striping::Replicated;
    }
    program.schedules = vec![
        vec![t(0, 0), t(1, 1), t(2, 0)],
        vec![t(0, 1), t(1, 0), t(2, 1)],
    ];
    check_program_golden("sage073_benign_splat", &program, "SAGE073");
}

#[test]
fn sage040_schedule_deadlock() {
    // Node 1 runs the consumer before the producer — the canonical
    // schedule-induced deadlock.
    let mut program = two_stage();
    program.schedules[1].reverse();
    pass_golden("sage040_deadlock", &program, "SAGE040", |c| c.deadlock());
}

#[test]
fn sage019_unstripeable_buffer() {
    let mut program = two_stage();
    program.buffers[0].shape = vec![5, 4]; // 5 rows over 2 threads
    pass_golden("sage019_unstripeable", &program, "SAGE019", |c| {
        c.deadlock()
    });
}

#[test]
fn sage041_malformed_program() {
    let mut program = two_stage();
    program.schedules[1].clear(); // schedules no longer cover the task set
    pass_golden("sage041_malformed", &program, "SAGE041", |c| c.deadlock());
}

/// Every consumer of a session reports the one preamble: the codes each
/// pass (and the `pipeline_plan` wrapper) yields on `program`.
fn preamble_codes(program: &GlueProgram, nodes: usize) -> Vec<Vec<&'static str>> {
    let hw = HardwareShelf::cspi_with_nodes(nodes);
    assert_eq!(pipeline_plan(program, &hw), None);
    let c = Checker::new(program, &hw, None);
    assert_eq!(c.peaks(), None);
    let (plan, pipeline) = c.pipeline(None);
    let (races, race) = c.race();
    assert!(plan.is_none() && races.is_none());
    [c.check(), c.deadlock(), pipeline, race]
        .iter()
        .map(|d| d.diags.iter().map(|x| x.code).collect())
        .collect()
}

#[test]
fn tag_overflow_is_sage057_from_every_pass() {
    // More threads than the tag's thread field: also fails `validate`, but
    // no pass may report it as a bare SAGE041.
    let mut program = two_stage();
    let threads = sage_runtime::glue::MAX_THREADS + 1;
    program.functions[0].threads = threads;
    program.functions[0].placement = vec![0; threads as usize];
    for codes in preamble_codes(&program, 2) {
        assert_eq!(codes, ["SAGE057"]);
    }
}

#[test]
fn node_count_mismatch_is_sage041_from_every_pass() {
    for codes in preamble_codes(&two_stage(), 3) {
        assert_eq!(codes, ["SAGE041"]);
    }
}

/// Every golden fixture uses only codes from the published registry.
#[test]
fn golden_fixtures_only_use_registered_codes() {
    let dir = fixture_path("");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("expected") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            if let Some(start) = line.find("[SAGE") {
                let code = &line[start + 1..start + 8];
                assert!(
                    sage_lint::code_summary(code).is_some(),
                    "{}: unregistered code {code}",
                    path.display()
                );
            }
        }
    }
}
