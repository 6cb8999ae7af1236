//! The glue-code generator: traverse the SAGE model, produce the run-time
//! tables.
//!
//! Paper §2: "Alter traverses through the SAGE model and generates source
//! code that can be compiled with application function libraries and the
//! SAGE run-time. ... The glue-code generator develops several SAGE run-time
//! source files, using information generated from the application model. For
//! example, the function table is generated from a list of all function
//! instances in the SAGE design."
//!
//! This module is the generator — native Rust where the paper's was an
//! Alter script — producing the executable [`GlueProgram`];
//! [`crate::emit`] renders the same tables as readable source text.

use sage_atot::TaskMapping;
use sage_model::{
    validate, AppGraph, BlockKind, DataType, Direction, HardwareSpec, ModelError, PropValue,
};
use sage_runtime::{FnRole, FunctionDescriptor, GlueProgram, LogicalBufferDesc, Task};
use std::fmt;

/// How function threads are placed on nodes.
#[derive(Clone, Debug)]
pub enum Placement {
    /// Thread `t` of every function goes to node `t % nodes` — the natural
    /// SPMD hand-mapping.
    Aligned,
    /// An explicit AToT task mapping (tasks in (block, thread) order of the
    /// flattened model, matching [`sage_atot::TaskGraph::from_model`]).
    Tasks(TaskMapping),
}

/// Everything that can go wrong during generation.
#[derive(Clone, Debug, PartialEq)]
pub enum CodegenError {
    /// The model failed Designer validation.
    Model(ModelError),
    /// The mapping does not cover the task set.
    Placement(String),
    /// The generated program failed its own consistency checks (a generator
    /// bug if it ever fires).
    Internal(String),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Model(e) => write!(f, "model error: {e}"),
            CodegenError::Placement(m) => write!(f, "placement error: {m}"),
            CodegenError::Internal(m) => write!(f, "internal generator error: {m}"),
        }
    }
}

impl std::error::Error for CodegenError {}

impl From<ModelError> for CodegenError {
    fn from(e: ModelError) -> Self {
        CodegenError::Model(e)
    }
}

/// Extracts `(shape, elem_bytes)` for a logical buffer from a port type.
fn buffer_shape(dt: &DataType) -> (Vec<usize>, usize) {
    match dt {
        DataType::Array { elem, shape } => (shape.clone(), elem.size_bytes()),
        other => (vec![1], other.size_bytes()),
    }
}

/// Generates the glue program for a (possibly hierarchical) application
/// model on `nodes` processors.
///
/// The model is flattened and validated; function instances are ordered
/// topologically and assigned IDs `0..N-1`; one logical buffer is generated
/// per data-flow arc; per-node schedules list each node's tasks in ID order
/// (which is dataflow order, so same-node hand-offs are always produced
/// before they are consumed — except feedback arcs from `delay` blocks,
/// whose consumers read the previous iterations' payloads and therefore
/// legally precede their producer in the schedule).
pub fn generate(
    app: &AppGraph,
    hw: &HardwareSpec,
    placement: &Placement,
) -> Result<GlueProgram, CodegenError> {
    let flat = app.flatten()?;
    validate(&flat)?;
    let nodes = hw.node_count();
    if nodes == 0 {
        return Err(CodegenError::Placement("hardware has no nodes".into()));
    }
    // Feedback arcs leaving `delay` blocks cross the iteration boundary and
    // do not constrain the per-iteration order.
    let order = flat.toposort_feedback()?;

    // Function IDs follow the topological order.
    let mut fn_id_of_block = vec![u32::MAX; flat.block_count()];
    for (id, b) in order.iter().enumerate() {
        fn_id_of_block[b.index()] = id as u32;
    }

    // Task placements. AToT task order is (block, thread) in *insertion*
    // order of the flattened graph, so index through a per-block base.
    let mut task_base = vec![0usize; flat.block_count()];
    {
        let mut acc = 0;
        for (bi, b) in flat.blocks().iter().enumerate() {
            task_base[bi] = acc;
            acc += b.threads();
        }
        if let Placement::Tasks(m) = placement {
            if m.nodes.len() != acc {
                return Err(CodegenError::Placement(format!(
                    "mapping covers {} tasks, model has {acc}",
                    m.nodes.len()
                )));
            }
            for (i, p) in m.nodes.iter().enumerate() {
                if p.index() >= nodes {
                    return Err(CodegenError::Placement(format!(
                        "task {i} placed on node {} of {nodes}",
                        p.index()
                    )));
                }
            }
        }
    }
    let place = |bi: usize, t: usize| -> u32 {
        match placement {
            Placement::Aligned => (t % nodes) as u32,
            Placement::Tasks(m) => m.nodes[task_base[bi] + t].index() as u32,
        }
    };

    // Buffers: one per connection, in connection order.
    let mut buffers = Vec::with_capacity(flat.connections().len());
    for c in flat.connections() {
        let from_port = flat.port_at(c.from).expect("validated endpoint");
        let to_port = flat.port_at(c.to).expect("validated endpoint");
        let (shape, elem_bytes) = buffer_shape(&from_port.data_type);
        buffers.push(LogicalBufferDesc {
            id: c.id.index() as u32,
            producer: fn_id_of_block[c.from.block.index()],
            producer_port: from_port.name.clone(),
            consumer: fn_id_of_block[c.to.block.index()],
            consumer_port: to_port.name.clone(),
            shape,
            elem_bytes,
            send_striping: from_port.striping,
            recv_striping: to_port.striping,
            delay: flat.blocks()[c.from.block.index()].delay(),
        });
    }

    // Function table in ID (topological) order.
    let mut functions = Vec::with_capacity(flat.block_count());
    for (id, bid) in order.iter().enumerate() {
        let b = &flat.blocks()[bid.index()];
        let (role, function) = match &b.kind {
            BlockKind::Source { .. } => (FnRole::Source, prop_kernel(b, "source.zero")),
            BlockKind::Sink { .. } => (FnRole::Sink, prop_kernel(b, "sink.null")),
            BlockKind::Primitive { function, .. } => (FnRole::Compute, function.clone()),
            BlockKind::Hierarchical { .. } => {
                return Err(CodegenError::Internal(
                    "hierarchical block survived flattening".into(),
                ))
            }
        };
        let threads = b.threads();
        let cost = b.cost();
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for (pi, p) in b.ports.iter().enumerate() {
            let ep = sage_model::Endpoint {
                block: *bid,
                port: pi,
            };
            match p.direction {
                Direction::In => {
                    // One buffer per incoming arc; fan-in keeps a port's
                    // buffers contiguous so the executor can merge them.
                    for c in flat.incomings(ep) {
                        inputs.push(c.id.index() as u32);
                    }
                }
                Direction::Out => {
                    for c in flat.outgoing(ep) {
                        outputs.push(c.id.index() as u32);
                    }
                }
            }
        }
        functions.push(FunctionDescriptor {
            id: id as u32,
            name: b.name.clone(),
            function,
            role,
            threads: threads as u32,
            placement: (0..threads).map(|t| place(bid.index(), t)).collect(),
            flops: cost.flops,
            mem_bytes: cost.mem_bytes,
            inputs,
            outputs,
            params: b.props.clone(),
        });
    }

    // Per-node schedules in function-ID order.
    let mut schedules: Vec<Vec<Task>> = vec![Vec::new(); nodes];
    for f in &functions {
        for (t, &node) in f.placement.iter().enumerate() {
            schedules[node as usize].push(Task {
                fn_id: f.id,
                thread: t as u32,
            });
        }
    }

    let program = GlueProgram {
        app_name: flat.name.clone(),
        functions,
        buffers,
        schedules,
    };
    program.validate().map_err(CodegenError::Internal)?;
    Ok(program)
}

fn prop_kernel(b: &sage_model::Block, default: &str) -> String {
    match b.props.get("kernel") {
        Some(PropValue::Str(s)) => s.clone(),
        _ => default.to_string(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sage_model::{Block, CostModel, HardwareShelf, Port, Striping};

    /// src -> fft -> snk, all 4-threaded, 8x8 complex matrix striped by rows.
    pub(crate) fn demo_app(threads: usize) -> AppGraph {
        let dt = DataType::complex_matrix(8, 8);
        let mut g = AppGraph::new("demo");
        let s = g.add_block(
            Block::source(
                "src",
                vec![Port::output("out", dt.clone(), Striping::BY_ROWS)],
            )
            .with_prop("kernel", PropValue::Str("test.fill".into())),
        );
        let f = g.add_block(Block::primitive(
            "fft",
            "id",
            threads,
            CostModel::new(640.0, 0.0),
            vec![
                Port::input("in", dt.clone(), Striping::BY_ROWS),
                Port::output("out", dt.clone(), Striping::BY_ROWS),
            ],
        ));
        let k = g.add_block(Block::sink(
            "snk",
            vec![Port::input("in", dt, Striping::BY_ROWS)],
        ));
        g.connect(s, "out", f, "in").unwrap();
        g.connect(f, "out", k, "in").unwrap();
        g
    }

    #[test]
    fn generates_tables_in_topo_order() {
        let app = demo_app(4);
        let hw = HardwareShelf::cspi_with_nodes(4);
        let p = generate(&app, &hw, &Placement::Aligned).unwrap();
        assert_eq!(p.functions.len(), 3);
        assert_eq!(p.functions[0].name, "src");
        assert_eq!(p.functions[1].name, "fft");
        assert_eq!(p.functions[2].name, "snk");
        assert_eq!(p.functions[1].threads, 4);
        assert_eq!(p.functions[1].placement, vec![0, 1, 2, 3]);
        assert_eq!(p.buffers.len(), 2);
        assert_eq!(p.buffers[0].shape, vec![8, 8]);
        assert_eq!(p.buffers[0].elem_bytes, 8);
        assert_eq!(p.node_count(), 4);
        // Source kernel picked up from the property.
        assert_eq!(p.functions[0].function, "test.fill");
        assert_eq!(p.functions[2].function, "sink.null");
    }

    #[test]
    fn aligned_placement_wraps_on_small_machines() {
        let app = demo_app(4);
        let hw = HardwareShelf::cspi_with_nodes(2);
        let p = generate(&app, &hw, &Placement::Aligned).unwrap();
        assert_eq!(p.functions[1].placement, vec![0, 1, 0, 1]);
        // Schedules cover all tasks.
        assert_eq!(p.schedules[0].len() + p.schedules[1].len(), 4 + 1 + 1);
    }

    #[test]
    fn explicit_task_mapping_respected() {
        use sage_model::ProcId;
        let app = demo_app(2);
        let hw = HardwareShelf::cspi_with_nodes(2);
        // Tasks: src[0], fft[0], fft[1], snk[0] (insertion order).
        let m = TaskMapping {
            nodes: vec![ProcId(1), ProcId(0), ProcId(1), ProcId(0)],
        };
        let p = generate(&app, &hw, &Placement::Tasks(m)).unwrap();
        assert_eq!(p.functions[0].placement, vec![1]);
        assert_eq!(p.functions[1].placement, vec![0, 1]);
        assert_eq!(p.functions[2].placement, vec![0]);
    }

    #[test]
    fn wrong_size_mapping_rejected() {
        use sage_model::ProcId;
        let app = demo_app(2);
        let hw = HardwareShelf::cspi_with_nodes(2);
        let m = TaskMapping {
            nodes: vec![ProcId(0); 3],
        };
        assert!(matches!(
            generate(&app, &hw, &Placement::Tasks(m)),
            Err(CodegenError::Placement(_))
        ));
    }

    #[test]
    fn invalid_model_rejected() {
        let mut g = AppGraph::new("bad");
        g.add_block(Block::sink(
            "snk",
            vec![Port::input("in", DataType::Complex, Striping::Replicated)],
        ));
        let hw = HardwareShelf::cspi_with_nodes(2);
        assert!(matches!(
            generate(&g, &hw, &Placement::Aligned),
            Err(CodegenError::Model(_))
        ));
    }

    #[test]
    fn generated_program_executes() {
        use sage_fabric::{MachineSpec, TimePolicy};
        use sage_runtime::{execute, FnThreadCtx, Registry, RuntimeOptions};
        let app = demo_app(4);
        let hw = HardwareShelf::cspi_with_nodes(4);
        let p = generate(&app, &hw, &Placement::Aligned).unwrap();
        let mut reg = Registry::new();
        reg.register("test.fill", |ctx: &mut FnThreadCtx<'_>| {
            for o in ctx.outputs.iter_mut() {
                let t = ctx.thread as u8;
                for (i, b) in o.bytes.iter_mut().enumerate() {
                    *b = t.wrapping_add(i as u8);
                }
            }
            Ok(())
        });
        let exec = execute(
            &p,
            &MachineSpec::from_hardware(&hw),
            TimePolicy::Virtual,
            &reg,
            &RuntimeOptions::paper_faithful(),
            1,
        )
        .unwrap();
        let out = exec.results.assemble(&p, 2, 0).unwrap();
        assert_eq!(out.len(), 8 * 8 * 8);
        assert!(exec.report.makespan > 0.0);
    }
}
