//! Streaming-executor properties on randomly generated check-clean DAGs.
//!
//! The streaming pipeline executor replaces the lock-step walk with a
//! continuous-issue dataflow loop governed by per-pair credits. Two
//! invariants make that loop trustworthy, and both are checked here on
//! random `chain_model` pipelines (the same generator the `sage fuzz`
//! corpus uses) across random depths and iteration counts:
//!
//! 1. **Bit-equality**: every iteration's assembled sink payload is
//!    bit-identical to the lock-step run's — the dataflow schedule may
//!    reorder work, never results.
//! 2. **Credit conservation**: every credit issued is retired
//!    (`issued == retired`), and the total matches the closed form
//!    `sum over buffers of nonzero_pairs(b) * max(0, iters - window(b))`
//!    where `window(b) = min(depth, cap(b)) + delay(b)`. A leak in either
//!    direction means a producer ran ahead of proven bounds or a consumer
//!    stranded a ring slot — the two ways a credit loop deadlocks or
//!    corrupts under load.
//!
//! A third closed form counts fabric messages: every cross-node pair's
//! data each iteration, plus one credit per (buffer, consumer thread,
//! producer node) group per iteration past the window.
//!
//! Depths are deliberately allowed to exceed the proven per-buffer caps:
//! the executor must clamp each ring to its cap, and the expected-credit
//! formula pins that clamping down.

mod common;

use common::{expected_credit_messages, expected_credits, remote_data_pairs};
use proptest::prelude::*;
use sage::fabric::Payload;
use sage::fuzz::gen::{chain_model, Stage};
use sage::prelude::*;
use sage::runtime::Redistribution;

const NODES: usize = 2;

/// Stripings that are contract-clean on a threaded `id` stage in either
/// port position (replicated inputs on threaded stages are the SAGE054
/// violation the generator reserves for negative tests).
fn striping(bit: bool) -> Striping {
    if bit {
        Striping::BY_COLS
    } else {
        Striping::BY_ROWS
    }
}

/// Builds a random source -> id-stages -> sink chain from packed strategy
/// bits: stage `i` reads `pattern` bits `2i` (input striping) and `2i + 1`
/// (output striping), and runs 1 + bit `i` of `threads` threads, doubled
/// when bit `8 + i` is set (so up to 4 threads on the 2 nodes).
fn chain(seed: u32, nstages: usize, pattern: u32, threads: u32) -> AppGraph {
    let stages: Vec<Stage> = (0..nstages)
        .map(|i| {
            (
                (1 + (threads >> i & 1) as usize) << (threads >> (8 + i) & 1),
                striping(pattern >> (2 * i) & 1 == 1),
                striping(pattern >> (2 * i + 1) & 1 == 1),
            )
        })
        .collect();
    chain_model(
        &DataType::complex_matrix(8, 8),
        seed,
        NODES,
        &stages,
        NODES,
        striping(pattern >> 31 == 1),
    )
}

/// Per-iteration sink payloads of one run (the sink is the last function
/// in topological order).
fn sink_frames(program: &GlueProgram, exec: &sage::runtime::Execution, iters: u32) -> Vec<Vec<u8>> {
    let sink = (program.functions.len() - 1) as u32;
    (0..iters)
        .map(|i| exec.results.assemble(program, sink, i).expect("sink frame"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn streaming_conserves_credits_and_bits_on_random_chains(
        seed in 0u32..1_000_000,
        nstages in 1usize..4,
        pattern in 0u32..=u32::MAX,
        threads in 0u32..8,
        depth in 1u32..5,
        iters in 1u32..7,
    ) {
        let app = chain(seed, nstages, pattern, threads);
        let mut project = Project::new(app, HardwareShelf::cspi_with_nodes(NODES));
        sage::apps::kernels::register_kernels(&mut project.registry);
        let (program, _) = project
            .generate(&Placement::Aligned)
            .expect("generated chains are check-clean");
        let pplan = sage::check::pipeline_plan(&program, &project.hardware)
            .expect("check-clean chains always carry a pipeline proof");
        let caps: Vec<u32> = pplan.buffers.iter().map(|b| b.safe_depth).collect();

        let base = project
            .execute(
                &program,
                TimePolicy::Virtual,
                &RuntimeOptions::paper_faithful().with_probes(false),
                iters,
            )
            .expect("lock-step run");
        let stream = project
            .execute(
                &program,
                TimePolicy::Virtual,
                &RuntimeOptions::paper_faithful()
                    .with_probes(false)
                    .with_pipeline(depth)
                    .with_pipeline_depths(caps.clone()),
                iters,
            )
            .expect("streaming run");

        prop_assert_eq!(
            sink_frames(&program, &base, iters),
            sink_frames(&program, &stream, iters),
            "depth {} reordered a visible effect", depth
        );
        prop_assert_eq!(
            stream.stream.credits_issued,
            stream.stream.credits_retired,
            "credit leak at depth {}", depth
        );
        prop_assert_eq!(
            stream.stream.credits_issued,
            expected_credits(&program, depth, &caps, iters),
            "credit total drifted from the closed form at depth {}", depth
        );
        // Lock-step charges the credit machinery nothing.
        prop_assert_eq!(base.stream.credits_issued, 0u64);
    }

    /// A streamed run's fabric messages are its remote data pairs every
    /// iteration plus one credit per credit group past the window, on
    /// chains whose stages run up to twice as many threads as there are
    /// nodes (so one credit message stands for several pairs); lock-step
    /// sends the data alone.
    #[test]
    fn streaming_sends_data_pairs_plus_the_credit_message_closed_form(
        seed in 0u32..1_000_000,
        nstages in 1usize..4,
        pattern in 0u32..=u32::MAX,
        threads in 0u32..(1 << 11),
        depth in 1u32..5,
        iters in 1u32..9,
    ) {
        let app = chain(seed, nstages, pattern, threads);
        let (program, caps, project) =
            streamable(Project::new(app, HardwareShelf::cspi_with_nodes(NODES)));
        let data = remote_data_pairs(&program) * u64::from(iters);
        let want = data + expected_credit_messages(&program, depth, &caps, iters);
        let base = RuntimeOptions::paper_faithful().with_probes(false);
        let stream = base.clone().with_pipeline(depth).with_pipeline_depths(caps.clone());
        for (options, messages) in [(base, data), (stream, want)] {
            let exec = project
                .execute(&program, TimePolicy::Virtual, &options, iters)
                .expect("runs");
            prop_assert_eq!(
                exec.report.metrics.total_messages(),
                messages,
                "{:?}", options.issue
            );
        }
    }
}

/// `project`'s generated program and its proven per-buffer depth caps,
/// with the project, kernels registered, that runs it.
fn streamable(mut project: Project) -> (GlueProgram, Vec<u32>, Project) {
    sage::apps::kernels::register_kernels(&mut project.registry);
    let (program, _) = project
        .generate(&Placement::Aligned)
        .expect("generated models are check-clean");
    let caps = sage::check::pipeline_plan(&program, &project.hardware)
        .expect("check-clean programs carry a pipeline proof")
        .buffers
        .iter()
        .map(|b| b.safe_depth)
        .collect();
    (program, caps, project)
}

/// Fan-in ports and `delay` arcs keep the message closed form: the
/// feedback fan-in model below at 16 x 16 and 4 threads a block on the 2
/// nodes (a one-iteration feedback loop, and a two-iteration tap merging
/// into the sink's port beside the direct arc, across corner turns) at
/// depths 1 to 3.
#[test]
fn fan_in_and_delay_arcs_send_the_credit_message_closed_form() {
    let model = FEEDBACK_FAN_IN_LARGE
        .replace("256 256", "16 16")
        .replace("(source 2)", "(source 4)")
        .replace(" 2 (cost", " 4 (cost")
        .replace("(sink 2)", "(sink 4)");
    let (program, caps, project) =
        streamable(Project::from_sexpr(&model, NODES).expect("model loads"));
    let iters = 7;
    for depth in 1..=3 {
        let options = RuntimeOptions::paper_faithful()
            .with_probes(false)
            .with_pipeline(depth)
            .with_pipeline_depths(caps.clone());
        let exec = project
            .execute(&program, TimePolicy::Virtual, &options, iters)
            .expect("runs");
        let credits = expected_credit_messages(&program, depth, &caps, iters);
        assert!(credits > 0, "depth {depth} sends no credit");
        assert_eq!(
            exec.report.metrics.total_messages(),
            remote_data_pairs(&program) * u64::from(iters) + credits,
            "depth {depth}"
        );
        assert_eq!(
            exec.stream.credits_issued,
            expected_credits(&program, depth, &caps, iters)
        );
    }
}

/// Depth 1 streaming is the degenerate one-slot window: issue order matches
/// lock-step, credits still ledger exactly.
#[test]
fn depth_one_window_still_ledgers_credits() {
    let app = chain(7, 2, 0b0110, 0b11);
    let mut project = Project::new(app, HardwareShelf::cspi_with_nodes(NODES));
    sage::apps::kernels::register_kernels(&mut project.registry);
    let (program, _) = project.generate(&Placement::Aligned).expect("codegen");
    let iters = 5;
    let exec = project
        .execute(
            &program,
            TimePolicy::Virtual,
            &RuntimeOptions::paper_faithful()
                .with_probes(false)
                .with_pipeline(1),
            iters,
        )
        .expect("streaming run");
    assert_eq!(exec.stream.credits_issued, exec.stream.credits_retired);
    assert_eq!(
        exec.stream.credits_issued,
        expected_credits(&program, 1, &[], iters)
    );
    assert!(exec.stream.credits_issued > 0, "chain issued no credits");
}

/// On the real clock, where a rank parks in its mailbox whenever its peer
/// is behind, every remote credit shares one empty payload and still
/// ledgers exactly: issued == retired == the closed form, and the streamed
/// sink is the lock-step one.
#[test]
fn real_clock_streaming_ledgers_credits_through_the_shared_credit() {
    let text = std::fs::read_to_string(common::model_path("beamformer_64.sexpr")).unwrap();
    let mut project = Project::from_sexpr(&text, NODES).unwrap();
    sage::apps::kernels::register_kernels(&mut project.registry);
    let (program, _) = project.generate(&Placement::Aligned).expect("codegen");
    let caps: Vec<u32> = sage::check::pipeline_plan(&program, &project.hardware)
        .expect("the example carries a pipeline proof")
        .buffers
        .iter()
        .map(|b| b.safe_depth)
        .collect();
    let (depth, iters) = (4, 24);
    let base = RuntimeOptions::paper_faithful().with_probes(false);
    let run = |options: &RuntimeOptions| {
        project
            .execute(&program, TimePolicy::Real, options, iters)
            .expect("runs")
    };
    let lock_step = run(&base);
    let stream = run(&base.with_pipeline(depth).with_pipeline_depths(caps.clone()));
    let want = expected_credits(&program, depth, &caps, iters);
    assert!(
        want > 0,
        "{iters} iterations at depth {depth} must outrun the window"
    );
    assert_eq!(
        (stream.stream.credits_issued, stream.stream.credits_retired),
        (want, want)
    );
    assert_eq!(
        sink_frames(&program, &lock_step, iters),
        sink_frames(&program, &stream, iters)
    );
}

/// The benchmark's streaming beamformer (32 x 32, 16 threads on 2 nodes,
/// depth 8) on the real clock: 128 remote data pairs a frame fall into 16
/// credit groups, so over 200 frames 192 retirements per group send 15.36
/// credit messages a frame where one per pair would send 122.88.
#[test]
fn real_clock_beamformer_sends_one_credit_per_group() {
    let app = sage::apps::beamformer::sage_model(32, 16);
    let (program, caps, project) =
        streamable(Project::new(app, HardwareShelf::cspi_with_nodes(NODES)));
    let (depth, iters) = (8, 200);
    let options = RuntimeOptions::paper_faithful()
        .with_probes(false)
        .with_pipeline(depth)
        .with_pipeline_depths(caps.clone());
    let exec = project
        .execute(&program, TimePolicy::Real, &options, iters)
        .expect("runs");
    let credits = expected_credit_messages(&program, depth, &caps, iters);
    assert_eq!(credits * 100, 1536 * u64::from(iters), "15.36 a frame");
    assert_eq!(remote_data_pairs(&program), 128);
    assert_eq!(
        exec.report.metrics.total_messages(),
        128 * u64::from(iters) + credits
    );
    let units = expected_credits(&program, depth, &caps, iters);
    assert_eq!(
        (exec.stream.credits_issued, exec.stream.credits_retired),
        (units, units)
    );
}

/// One end of a transfer as the edge tables should describe it, with the
/// pair named by its `(buffer, producer thread, consumer thread)` key
/// instead of its dense index.
type EdgeKey = ((u32, u32, u32), u32, u32, u32, u32);

/// The compiled edge tables are exactly a brute-force walk of every
/// buffer's `Redistribution::pairs` against the placement — the ledger
/// `sage check`'s transfer pass builds statically: each nonempty pair is
/// one output edge of its producer task and one input edge of its consumer
/// task (sharing one pair index no other pair has), inputs grouped by port
/// in `f.inputs` then producer-thread order, outputs per buffer in
/// consumer-thread order. Over the fuzz corpus' models, on the aligned and
/// on a GA placement.
#[test]
fn edge_tables_match_a_brute_force_walk_of_the_pair_matrices() {
    use sage::fuzz::gen::{derive_seed, gen_model, GenConfig};
    use sage::runtime::{prepare, Edge, Task};
    use std::collections::HashMap;

    let ga = GaConfig {
        population: 8,
        generations: 4,
        ..GaConfig::default()
    };
    let mut checked = 0;
    for index in 0..96 {
        let model = gen_model(derive_seed(16, index), &GenConfig::default());
        let mut project = Project::new(model.app, HardwareShelf::cspi_with_nodes(model.nodes));
        sage::apps::kernels::register_kernels(&mut project.registry);
        let Ok(mapping) = project.auto_map(&ga) else {
            continue; // a seeded violation the generator refuses
        };
        for placement in [Placement::Aligned, Placement::Tasks(mapping)] {
            let Ok((program, _)) = project.generate(&placement) else {
                continue;
            };
            let Ok(prepared) = prepare(&program, &project.registry) else {
                continue;
            };
            // Name every pair index by the key its output edge gives it.
            let mut key_of_pair: HashMap<u32, (u32, u32, u32)> = HashMap::new();
            for f in &program.functions {
                for t in 0..f.threads {
                    let edges = prepared.edges(Task {
                        fn_id: f.id,
                        thread: t,
                    });
                    for e in edges.outputs.iter().flatten() {
                        let key = (e.buffer, t, e.peer_thread);
                        assert_eq!(key_of_pair.insert(e.pair, key), None, "pair index reused");
                    }
                }
            }
            let named = |edges: &[Vec<Edge>]| -> Vec<Vec<EdgeKey>> {
                let name = |e: &Edge| {
                    let key = key_of_pair[&e.pair];
                    (key, e.peer_thread, e.peer_node, e.delay, e.runs)
                };
                edges.iter().map(|g| g.iter().map(name).collect()).collect()
            };
            let plans: Vec<Redistribution> = program
                .buffers
                .iter()
                .map(|b| program.plan_buffer(b).expect("plannable"))
                .collect();
            let (mut pairs, mut groups_seen) = (0, 0);
            for f in &program.functions {
                for t in 0..f.threads as usize {
                    let mut inputs: Vec<(&str, Vec<EdgeKey>)> = Vec::new();
                    for &bid in &f.inputs {
                        let b = &program.buffers[bid as usize];
                        let producer = &program.functions[b.producer as usize];
                        let port = b.consumer_port.as_str();
                        if !inputs.iter().any(|(p, _)| *p == port) {
                            inputs.push((port, Vec::new()));
                        }
                        let group = inputs.iter_mut().find(|(p, _)| *p == port).unwrap();
                        for (i, row) in plans[bid as usize].pairs.iter().enumerate() {
                            if !row[t].is_empty() {
                                group.1.push((
                                    (bid, i as u32, t as u32),
                                    i as u32,
                                    producer.placement[i],
                                    b.delay,
                                    row[t].len() as u32,
                                ));
                            }
                        }
                    }
                    let outputs: Vec<Vec<EdgeKey>> = f
                        .outputs
                        .iter()
                        .map(|&bid| {
                            let consumer =
                                &program.functions[program.buffers[bid as usize].consumer as usize];
                            let row = &plans[bid as usize].pairs[t];
                            (0..row.len())
                                .filter(|&j| !row[j].is_empty())
                                .map(|j| {
                                    (
                                        (bid, t as u32, j as u32),
                                        j as u32,
                                        consumer.placement[j],
                                        program.buffers[bid as usize].delay,
                                        row[j].len() as u32,
                                    )
                                })
                                .collect()
                        })
                        .collect();
                    pairs += outputs.iter().flatten().count();
                    let edges = prepared.edges(Task {
                        fn_id: f.id,
                        thread: t as u32,
                    });
                    let what = format!("seed index {index}, `{}[{t}]`", f.name);
                    let inputs: Vec<Vec<EdgeKey>> = inputs.into_iter().map(|(_, g)| g).collect();
                    assert_eq!(named(&edges.inputs), inputs, "{what}: inputs");
                    assert_eq!(named(&edges.outputs), outputs, "{what}: outputs");
                    // A cross-node input edge names the credit group of its
                    // (buffer, producer node) into this thread, and the task
                    // lists each such group once, in first-named order.
                    let mut listed: Vec<u32> = Vec::new();
                    for e in edges.inputs.iter().flatten() {
                        let remote = e.peer_node != f.placement[t];
                        assert_eq!(e.credit_group.is_some(), remote, "{what}: {e:?}");
                        let Some(g) = e.credit_group else { continue };
                        let group = &prepared.credit_groups()[g as usize];
                        let key = (group.buffer, group.producer_node);
                        assert_eq!(key, (e.buffer, e.peer_node), "{what}");
                        assert!(group.pairs.contains(&e.pair), "{what}: {e:?}");
                        if !listed.contains(&g) {
                            listed.push(g);
                        }
                    }
                    assert_eq!(edges.credit_groups, listed, "{what}: credit groups");
                    groups_seen += listed.len();
                }
            }
            assert_eq!(key_of_pair.len(), pairs, "seed index {index}: pair count");
            let groups = prepared.credit_groups();
            assert_eq!(
                groups_seen,
                groups.len(),
                "seed index {index}: a group listed twice"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 128,
        "only {checked} programs checked (64 seeds x 2)"
    );
}

/// A `delay` (feedback) model's lock-step sink, pinned on the tree before
/// the hand-off store became one ring per pair, and held by every issue
/// policy: the consumer of a delay arc reads iteration `i - delay`, so the
/// lock-step ring keeps `1 + delay` payloads live and the streaming ring
/// `depth + delay`.
#[test]
fn feedback_model_sink_is_pinned_under_every_issue_policy() {
    let path = format!(
        "{}/tests/fixtures/feedback_cycle_min.sexpr",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut project = Project::from_sexpr(&std::fs::read_to_string(path).unwrap(), 2).unwrap();
    sage::apps::kernels::register_kernels(&mut project.registry);
    let (program, _) = project.generate(&Placement::Aligned).expect("codegen");
    let caps: Vec<u32> = sage::check::pipeline_plan(&program, &project.hardware)
        .expect("the fixture carries a pipeline proof")
        .buffers
        .iter()
        .map(|b| b.safe_depth)
        .collect();
    let iters = 16;
    let base = RuntimeOptions::paper_faithful();
    for (options, credits) in [
        (base.clone(), 0),
        (
            base.clone().with_pipeline(4).with_pipeline_depths(caps),
            100,
        ),
        (base.with_pipeline_validate(1), 0),
    ] {
        let exec = project
            .execute(&program, TimePolicy::Virtual, &options, iters)
            .expect("runs");
        assert_eq!(
            sage::runtime::fnv1a_64(&exec.results.stream(&program, iters)),
            0xbe711c7d5587802b,
            "{:?}",
            options.issue
        );
        assert_eq!(
            (exec.stream.credits_issued, exec.stream.credits_retired),
            (credits, credits),
            "{:?}",
            options.issue
        );
    }
}

/// The feedback fixture scaled up until its stripes are recycled storage
/// (256 KiB stripes, 128 KiB packed messages). Every block keeps one
/// striping across its ports, so each is a pass-through of the whole
/// array, but neighbours disagree: every arc except `m -> snk` is a corner
/// turn, unpacked into the consumer's stripe rather than handed off. A
/// second, two-iteration `delay` tap merges into the sink's port beside
/// the direct arc (fan-in: one aligned copy, one unpack).
const FEEDBACK_FAN_IN_LARGE: &str = r#"
(model "feedback_fan_in_large"
  (block "src" (source 2)
    (port out "out" (array (complex) 256 256) (striped 0))
    (props ("kernel" "workload.bytes") ("seed" 11)))
  (block "m" (primitive "workload.mix" 2 (cost 16.0 128.0))
    (port in "in" (array (complex) 256 256) (striped 1))
    (port in "fb" (array (complex) 256 256) (striped 1))
    (port out "out" (array (complex) 256 256) (striped 1)))
  (block "fbd" (primitive "id" 2 (cost 16.0 128.0))
    (port in "in" (array (complex) 256 256) (striped 0))
    (port out "out" (array (complex) 256 256) (striped 0))
    (props ("delay" 1)))
  (block "tap" (primitive "id" 2 (cost 16.0 128.0))
    (port in "in" (array (complex) 256 256) (striped 0))
    (port out "out" (array (complex) 256 256) (striped 0))
    (props ("delay" 2)))
  (block "snk" (sink 2)
    (port in "in" (array (complex) 256 256) (striped 1)))
  (connect "src" "out" "m" "in")
  (connect "m" "out" "fbd" "in")
  (connect "fbd" "out" "m" "fb")
  (connect "m" "out" "tap" "in")
  (connect "m" "out" "snk" "in")
  (connect "tap" "out" "snk" "in"))
"#;

/// Recycled storage never shows through: where nothing is written — the
/// `fb` stripe before the `delay` arc's first payload, the sink's port
/// before the tap's — a consumer reads zeros, and where the executor skips
/// the zero-fill because the unpack overwrites every byte, it does. Every
/// block but the source and the XOR is a pass-through, so the expected
/// sink stream is a pure function of the source frames (taken from a
/// source -> sink program no redistribution touches); each run starts over
/// a pool stocked with `0xFF` buffers of its stripe and message lengths,
/// and one stale byte — the stock's or the run's own — reaching a sink
/// breaks the equality.
#[test]
fn recycled_buffers_never_show_through_a_delay_arc_or_a_fan_in_port() {
    let iters = 6;
    let run = |model: &str, options: &RuntimeOptions| -> Vec<Vec<u8>> {
        let mut project = Project::from_sexpr(model, 2).unwrap();
        sage::apps::kernels::register_kernels(&mut project.registry);
        let (program, _) = project.generate(&Placement::Aligned).expect("codegen");
        let exec = project
            .execute(&program, TimePolicy::Virtual, options, iters)
            .expect("runs");
        sink_frames(&program, &exec, iters)
    };
    let base = RuntimeOptions::paper_faithful();
    let source = run(
        r#"(model "source_only"
             (block "src" (source 2)
               (port out "out" (array (complex) 256 256) (striped 0))
               (props ("kernel" "workload.bytes") ("seed" 11)))
             (block "snk" (sink 2)
               (port in "in" (array (complex) 256 256) (striped 0)))
             (connect "src" "out" "snk" "in"))"#,
        &base,
    );
    // m[i] = src[i] ^ m[i-1] (zeros before the first feedback payload); the
    // sink's port takes m[i], then the tap's m[i-2] over it once it flows.
    let mut mixed: Vec<Vec<u8>> = Vec::new();
    for (i, frame) in source.iter().enumerate() {
        let fb = if i > 0 {
            mixed[i - 1].clone()
        } else {
            vec![0; frame.len()]
        };
        mixed.push(frame.iter().zip(&fb).map(|(a, b)| a ^ b).collect());
    }
    let expected: Vec<&Vec<u8>> = (0..mixed.len())
        .map(|i| &mixed[if i >= 2 { i - 2 } else { i }])
        .collect();

    for options in [
        base.clone(),
        base.clone().with_pipeline(2),
        base.with_pipeline_validate(1),
    ] {
        let stock: Vec<Payload> = [256 << 10, 128 << 10]
            .into_iter()
            .flat_map(|len| (0..24).map(move |_| Payload::from_vec(vec![0xFF; len])))
            .collect();
        drop(stock);
        let frames = run(FEEDBACK_FAN_IN_LARGE, &options);
        for (i, (got, want)) in frames.iter().zip(&expected).enumerate() {
            assert!(got == *want, "{:?}: sink frame {i} differs", options.issue);
        }
    }
}
