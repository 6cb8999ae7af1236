//! Property test tying the abstract interpreter to both execution
//! backends: a randomly generated pipeline that **checks clean**
//! (`sage_core::check_model_source` — shape propagation, transfer
//! matching, capacity feasibility) must execute to completion on the
//! in-process local backend AND on the multi-process TCP backend, with
//! bit-identical sink output.
//!
//! The chain builder lives in `sage_fuzz::gen` (shared with the `sage
//! fuzz` corpus generator) and only uses kernels the `sage fleet` daemon
//! registers (`workload.matrix`, the built-in `id`), so every case is a
//! real distributed run of the real binary.
//!
//! The same generator also drives the deadlock pass both ways: with a few
//! schedule slots swapped, `SAGE040` fires exactly when an in-test walk of
//! the schedules stalls.

mod common;

use proptest::prelude::*;
use sage::fuzz::gen::{chain_model, Stage};
use sage::fuzz::gen::{gen_model, GenConfig};
use sage::prelude::*;
use sage_check::Checker;
use sage_core::model_io;
use sage_fleet::{JobParams, LaunchOptions};
use sage_runtime::{GlueProgram, Task};
use std::collections::{HashMap, HashSet};

fn dt() -> DataType {
    DataType::complex_matrix(8, 8)
}

fn threads_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(4), Just(8)]
}

fn striping_strategy() -> impl Strategy<Value = Striping> {
    prop_oneof![Just(Striping::BY_ROWS), Just(Striping::BY_COLS)]
}

proptest! {
    // Each case spawns `nodes` OS processes for the TCP leg; keep the
    // count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn check_clean_random_chains_match_on_local_and_tcp(
        seed in 1u32..10_000,
        src_threads in threads_strategy(),
        stages in proptest::collection::vec(
            (threads_strategy(), striping_strategy(), striping_strategy()),
            1..=3,
        ),
        sink_threads in threads_strategy(),
        sink_striping in prop_oneof![
            Just(Striping::BY_ROWS),
            Just(Striping::BY_COLS),
            Just(Striping::Replicated),
        ],
        nodes in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        // No idle ranks: every block's thread count must cover the machine
        // (power-of-two counts keep every divisibility check happy too).
        let min_threads = stages
            .iter()
            .map(|&(t, _, _)| t)
            .chain([src_threads, sink_threads])
            .min()
            .unwrap();
        let nodes = nodes.min(min_threads);
        let iters = 2u32;
        let stages: Vec<Stage> = stages;
        let app = chain_model(&dt(), seed, src_threads, &stages, sink_threads, sink_striping);
        let source = model_io::model_to_sexpr(&app);

        // The generator stays inside every kernel contract and capacity
        // envelope by construction, so the interpreter must accept it.
        let diags = sage_core::check_model_source(&source, nodes);
        prop_assert!(
            diags.is_empty(),
            "generator should be check-clean by construction:\n{}",
            diags.render("random_chain.sexpr", Some(&source))
        );

        // Local, in-process backend.
        let mut project = Project::new(app, HardwareShelf::cspi_with_nodes(nodes));
        sage::apps::kernels::register_kernels(&mut project.registry);
        let (program, _) = project.generate(&Placement::Aligned).unwrap();
        let exec = project
            .execute(
                &program,
                TimePolicy::Virtual,
                &RuntimeOptions::paper_faithful(),
                iters,
            )
            .unwrap();
        let local = common::sink_bytes(&program, &exec.results, iters);
        prop_assert!(!local.is_empty());

        // Distributed backend: one OS process per rank over loopback TCP.
        let opts = LaunchOptions {
            workers: nodes,
            heartbeat_ms: None,
            params: JobParams::new(source, iters),
        };
        let launched = sage::fleet::launch(&opts, &common::spawn_worker).unwrap();
        let tcp = common::sink_bytes(&program, &launched.results, iters);
        prop_assert_eq!(
            local, tcp,
            "sink bytes differ between local and tcp backends"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A randomly generated layered DAG the happens-before pass proves
    /// race-free must run detector-clean (`--race-detect` never trips on
    /// a statically clean program), with sink bytes bit-identical to the
    /// detector-off run — arming the vector clocks cannot change the
    /// answer.
    #[test]
    fn race_clean_random_dags_run_detector_clean_bit_identically(
        seed in 1u64..100_000,
    ) {
        let cfg = sage::fuzz::gen::GenConfig {
            violation_rate: 0.0,
            race_rate: 0.0,
        };
        let gm = sage::fuzz::gen::gen_model(seed, &cfg);
        let iters = 2u32;

        // Without seeded races the corpus can still trip unrelated checks
        // (kernel contracts, capacity); keep only the check-clean cases —
        // those are exactly the ones the race pass proved free of
        // SAGE070/SAGE071.
        let diags = sage_core::check_model_source(&gm.source, gm.nodes);
        prop_assume!(diags.error_count() == 0);

        let mut project = Project::new(gm.app, HardwareShelf::cspi_with_nodes(gm.nodes));
        sage::apps::kernels::register_kernels(&mut project.registry);
        let (program, _) = project.generate(&Placement::Aligned).unwrap();
        let plain = project
            .execute(
                &program,
                TimePolicy::Virtual,
                &RuntimeOptions::paper_faithful(),
                iters,
            )
            .unwrap();
        let armed = project
            .execute(
                &program,
                TimePolicy::Virtual,
                &RuntimeOptions::paper_faithful().with_race_detect(true),
                iters,
            )
            .unwrap_or_else(|e| panic!("statically race-free program tripped the detector: {e}"));
        prop_assert_eq!(
            common::sink_bytes(&program, &plain.results, iters),
            common::sink_bytes(&program, &armed.results, iters),
            "arming the race detector changed the sink bytes"
        );
    }
}

/// Whether one iteration of `program`'s node schedules stalls: each node
/// runs its schedule in order, and a task runs once every delay-0 producer
/// with a non-empty planned pair into it has run.
fn schedule_walk_stalls(program: &GlueProgram) -> bool {
    let mut producers: HashMap<Task, Vec<Task>> = HashMap::new();
    for b in program.buffers.iter().filter(|b| b.delay == 0) {
        let Ok(plan) = program.plan_buffer(b) else {
            continue;
        };
        for (i, row) in plan.pairs.iter().enumerate() {
            for (j, _) in row.iter().enumerate().filter(|(_, iv)| !iv.is_empty()) {
                let task = |fn_id, thread| Task { fn_id, thread };
                let into = producers.entry(task(b.consumer, j as u32)).or_default();
                into.push(task(b.producer, i as u32));
            }
        }
    }
    let mut ran: HashSet<Task> = HashSet::new();
    let mut next = vec![0usize; program.node_count()];
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (node, sched) in program.schedules.iter().enumerate() {
            while let Some(&t) = sched.get(next[node]) {
                if !producers
                    .get(&t)
                    .is_none_or(|ps| ps.iter().all(|p| ran.contains(p)))
                {
                    break;
                }
                ran.insert(t);
                next[node] += 1;
                progressed = true;
            }
        }
    }
    next.iter()
        .zip(&program.schedules)
        .any(|(&n, sched)| n < sched.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `SAGE040` is exact: on a generated program with a few tasks of its
    /// node schedules swapped, the deadlock pass reports a wait-for cycle
    /// if and only if a walk of the schedules stalls.
    #[test]
    fn sage040_fires_exactly_when_a_schedule_walk_stalls(
        seed in 1u64..100_000,
        swaps in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64), 0..4),
    ) {
        let gm = gen_model(seed, &GenConfig::default());
        let generated = Project::new(gm.app, HardwareShelf::cspi_with_nodes(gm.nodes))
            .generate(&Placement::Aligned);
        prop_assume!(generated.is_ok());
        let (mut program, _) = generated.unwrap();
        for (node, a, b) in swaps {
            let sched = &mut program.schedules[node % gm.nodes];
            let len = sched.len();
            sched.swap(a % len, b % len);
        }
        let hw = HardwareShelf::cspi_with_nodes(gm.nodes);
        let checker = Checker::new(&program, &hw, None);
        prop_assume!(checker.preamble().is_empty());
        let deadlock = checker.deadlock().diags.iter().any(|d| d.code == "SAGE040");
        prop_assert_eq!(deadlock, schedule_walk_stalls(&program));
    }
}
