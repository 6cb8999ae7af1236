//! Failure-path and heterogeneity tests: what happens when models, kernels,
//! or mappings are wrong, and whether the stack honours heterogeneous
//! hardware ("multi-processor, heterogeneous architecture", §1.1).

use sage::prelude::*;
use sage_model::{FabricSpec, Processor};
use sage_runtime::{FnThreadCtx, RuntimeError};

fn tiny_app(threads: usize) -> AppGraph {
    let dt = DataType::complex_matrix(8, 8);
    let mut g = AppGraph::new("tiny");
    let s = g.add_block(Block::source_threaded(
        "src",
        threads,
        vec![Port::output("out", dt.clone(), Striping::BY_ROWS)],
    ));
    let f = g.add_block(Block::primitive(
        "f",
        "boom",
        threads,
        CostModel::ZERO,
        vec![
            Port::input("in", dt.clone(), Striping::BY_ROWS),
            Port::output("out", dt.clone(), Striping::BY_ROWS),
        ],
    ));
    let k = g.add_block(Block::sink_threaded(
        "snk",
        threads,
        vec![Port::input("in", dt, Striping::BY_ROWS)],
    ));
    g.connect(s, "out", f, "in").unwrap();
    g.connect(f, "out", k, "in").unwrap();
    g
}

#[test]
fn unknown_kernel_is_a_preflight_error_not_a_crash() {
    let project = Project::new(tiny_app(2), HardwareShelf::cspi_with_nodes(2));
    let (program, _) = project.generate(&Placement::Aligned).unwrap();
    let err = project
        .execute(
            &program,
            TimePolicy::Virtual,
            &RuntimeOptions::paper_faithful(),
            1,
        )
        .unwrap_err();
    assert!(err.to_string().contains("unknown function `boom`"));
}

#[test]
fn kernel_runtime_error_is_structured_with_block_name() {
    let mut project = Project::new(tiny_app(2), HardwareShelf::cspi_with_nodes(2));
    project
        .registry
        .register("boom", |_: &mut FnThreadCtx<'_>| {
            Err("deliberate failure".into())
        });
    let err = project
        .run(
            &Placement::Aligned,
            TimePolicy::Virtual,
            &RuntimeOptions::paper_faithful(),
            1,
        )
        .expect_err("kernel failure must propagate as a structured error");
    let msg = err.to_string();
    assert!(msg.contains("kernel error in `f`"), "got: {msg}");
    assert!(msg.contains("deliberate failure"), "got: {msg}");
}

#[test]
fn striping_mismatch_is_rejected_at_codegen() {
    // 8 rows cannot stripe over 3 threads.
    let project = Project::new(tiny_app(3), HardwareShelf::cspi_with_nodes(3));
    let err = project.generate(&Placement::Aligned).unwrap_err();
    assert!(matches!(
        err,
        sage::core::CodegenError::Model(sage_model::ModelError::BadStriping { .. })
    ));
}

#[test]
fn runtime_error_types_round_trip_display() {
    let e = RuntimeError::BadProgram("x".into());
    assert!(e.to_string().contains("invalid glue program"));
}

/// A heterogeneous machine: one fast board and one slow board.
fn hetero_hw() -> HardwareSpec {
    let fast = Processor {
        name: "fast".into(),
        clock_mhz: 400.0,
        flops_per_cycle: 1.0,
        mem_mb: 64.0,
        mem_bw_mbps: 800.0,
    };
    let slow = Processor {
        name: "slow".into(),
        clock_mhz: 100.0,
        flops_per_cycle: 1.0,
        mem_mb: 64.0,
        mem_bw_mbps: 400.0,
    };
    let link = FabricSpec {
        bandwidth_mbps: 160.0,
        latency_us: 20.0,
    };
    HardwareSpec::single_chassis(
        "hetero",
        sage_model::Chassis {
            name: "c0".into(),
            boards: vec![
                sage_model::Board {
                    name: "fast-board".into(),
                    processors: vec![fast; 2],
                    intra: link,
                },
                sage_model::Board {
                    name: "slow-board".into(),
                    processors: vec![slow; 2],
                    intra: link,
                },
            ],
            fabric: link,
        },
    )
}

#[test]
fn machine_spec_carries_heterogeneous_rates() {
    let m = MachineSpec::from_hardware(&hetero_hw());
    assert_eq!(m.node_count(), 4);
    assert_eq!(m.node(0).flops_per_sec, 400.0e6);
    assert_eq!(m.node(3).flops_per_sec, 100.0e6);
}

#[test]
fn atot_ga_prefers_fast_nodes_on_heterogeneous_machines() {
    use sage_atot::{ga, GaConfig, Scheduler, TaskGraph};
    use sage_model::BlockId;
    // Four independent heavy tasks: the fast nodes (0,1) run them 4x
    // faster, so the optimum puts two on each fast node rather than
    // spreading 1-per-node.
    let graph = TaskGraph {
        tasks: (0..4)
            .map(|i| sage_atot::TaskSpec {
                block: BlockId(0),
                thread: i,
                flops: 4.0e8,
                mem_bytes: 0.0,
                name: format!("t{i}"),
            })
            .collect(),
        edges: vec![],
    };
    let hw = hetero_hw();
    let scheduler = Scheduler::new(&graph, &hw).unwrap();
    let result = ga::optimize(
        &graph,
        &scheduler,
        &GaConfig {
            population: 32,
            generations: 60,
            ..GaConfig::default()
        },
    );
    // All tasks on fast nodes (ids 0 and 1), two each: makespan = 2 s.
    assert!(
        result.mapping.nodes.iter().all(|p| p.index() < 2),
        "mapping {:?}",
        result.mapping.nodes
    );
    assert!((result.makespan - 2.0).abs() < 1e-9, "{}", result.makespan);
}

#[test]
fn virtual_execution_reflects_heterogeneous_speed() {
    use sage::fabric::{Cluster, Transport, Work};
    let m = MachineSpec::from_hardware(&hetero_hw());
    let cluster = Cluster::new(m, TimePolicy::Virtual);
    let (_, report) = cluster.run(|ctx| {
        ctx.compute(Work::flops(4.0e8));
    });
    // Fast nodes: 1 s; slow nodes: 4 s.
    assert!((report.metrics.nodes[0].final_clock - 1.0).abs() < 1e-9);
    assert!((report.metrics.nodes[3].final_clock - 4.0).abs() < 1e-9);
}
