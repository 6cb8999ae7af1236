//! # sage-runtime
//!
//! The **SAGE run-time kernel**: "responsible for all sequencing of
//! functions, data striping, and buffer management" (paper §2).
//!
//! * [`glue`] — the generated "run-time source files" in executable form:
//!   the function table (IDs `0..N-1`, the index of each descriptor), the
//!   logical buffer table (striding information, total buffer size before
//!   striding, thread information), and per-node schedules;
//! * [`striping`] — the port-striping engine: replicated and striped thread
//!   layouts, and the redistribution plans between them (a
//!   row-striped-to-column-striped connection *is* the corner turn);
//! * [`function`] — the kernel ABI and registry binding function-table
//!   entries to shelf kernels;
//! * [`options`] — buffer-management schemes: the paper's
//!   unique-logical-buffer-per-function scheme and the improved shared
//!   scheme ("work underway ... to reach 90% of hand-coded");
//! * [`executor`] — the per-node scheduler that issues schedule slots
//!   (in order, or streamed under credit backpressure), assembles stripes,
//!   dispatches kernels, and transmits outputs, on either the real or
//!   virtual clock. One private module per decision: `tables` (what
//!   [`prepare`] compiles once per program), `flow` (hand-off rings and
//!   credits), `issue` (which slot runs next) and `task` (what one slot
//!   does);
//! * [`race`] — the vector-clock race detector that cross-validates the
//!   static `sage race` happens-before proofs at run time, over footprint
//!   tables it builds itself;
//! * [`report`] — how a run reads back on every backend: one
//!   [`RankReport`] per rank, folded by [`Execution::merge`] into the one
//!   [`Execution`], root-cause error first, with the sink deposits
//!   ([`SinkResults`]) it holds.

#![warn(missing_docs)]

pub mod executor;
pub mod function;
pub mod glue;
pub mod options;
pub mod race;
pub mod report;
pub mod striping;

pub use executor::{
    execute, execute_rank, fabric_to_runtime, prepare, CreditGroup, Deposit, Edge, Prepared,
    RankOutcome, StreamStats, TaskEdges,
};
pub use function::{FnThreadCtx, Kernel, Registry, RuntimeError, StripePayload};
pub use glue::{FnRole, FunctionDescriptor, GlueProgram, LogicalBufferDesc, Task};
pub use options::{BufferScheme, IssuePolicy, RuntimeOptions};
pub use race::{fnv1a_64, RaceState};
pub use report::{Execution, RankReport, SinkResults};
pub use striping::{CopyOp, Layout, PairOps, Redistribution};

/// Small programs and machines the runtime's unit tests share.
#[cfg(test)]
mod fixtures {
    use crate::function::{FnThreadCtx, Registry};
    use crate::glue::{FnRole, FunctionDescriptor, GlueProgram, LogicalBufferDesc, Task};
    use sage_fabric::{LinkSpec, MachineSpec, NodeSpec};
    use sage_model::{Properties, Striping};

    pub(crate) fn machine(n: usize) -> MachineSpec {
        MachineSpec::uniform(
            "t",
            n,
            NodeSpec {
                flops_per_sec: 1.0e9,
                mem_bw: 1.0e9,
            },
            LinkSpec {
                bandwidth: 1.0e8,
                latency: 10.0e-6,
            },
        )
    }

    /// src (fills bytes with pattern) -> id -> sink on `n` nodes, matrix
    /// striped by rows everywhere.
    pub(crate) fn pipeline_program(n: u32, rows: usize, cols: usize) -> GlueProgram {
        let shape = vec![rows, cols];
        let mk_buf = |id: u32, producer: u32, consumer: u32| LogicalBufferDesc {
            id,
            producer,
            producer_port: "out".into(),
            consumer,
            consumer_port: "in".into(),
            shape: shape.clone(),
            elem_bytes: 1,
            send_striping: Striping::BY_ROWS,
            recv_striping: Striping::BY_ROWS,
            delay: 0,
        };
        let placement: Vec<u32> = (0..n).collect();
        let mk_fn = |id: u32,
                     name: &str,
                     function: &str,
                     role: FnRole,
                     inputs: Vec<u32>,
                     outputs: Vec<u32>| FunctionDescriptor {
            id,
            name: name.into(),
            function: function.into(),
            role,
            threads: n,
            placement: placement.clone(),
            flops: 1000.0,
            mem_bytes: 0.0,
            inputs,
            outputs,
            params: Properties::new(),
        };
        GlueProgram {
            app_name: "pipeline".into(),
            functions: vec![
                mk_fn(0, "src", "test.fill", FnRole::Source, vec![], vec![0]),
                mk_fn(1, "mid", "id", FnRole::Compute, vec![0], vec![1]),
                mk_fn(2, "snk", "sink.null", FnRole::Sink, vec![1], vec![]),
            ],
            buffers: vec![mk_buf(0, 0, 1), mk_buf(1, 1, 2)],
            schedules: (0..n)
                .map(|t| {
                    vec![
                        Task {
                            fn_id: 0,
                            thread: t,
                        },
                        Task {
                            fn_id: 1,
                            thread: t,
                        },
                        Task {
                            fn_id: 2,
                            thread: t,
                        },
                    ]
                })
                .collect(),
        }
    }

    pub(crate) fn fill_registry() -> Registry {
        let mut reg = Registry::new();
        // Fill output bytes with (thread, index) pattern so stripes differ.
        reg.register("test.fill", |ctx: &mut FnThreadCtx<'_>| {
            let t = ctx.thread as u8;
            for o in ctx.outputs.iter_mut() {
                for (i, b) in o.bytes.iter_mut().enumerate() {
                    *b = t.wrapping_mul(31).wrapping_add(i as u8);
                }
            }
            Ok(())
        });
        reg
    }

    /// src striped by rows -> sink striped by cols on 2 nodes: every
    /// (producer thread, consumer thread) pair overlaps, so half the pairs
    /// cross nodes.
    pub(crate) fn row_to_col_program() -> GlueProgram {
        let mk_fn = |id: u32, name: &str, function: &str, role: FnRole| FunctionDescriptor {
            id,
            name: name.into(),
            function: function.into(),
            role,
            threads: 2,
            placement: vec![0, 1],
            flops: 0.0,
            mem_bytes: 0.0,
            inputs: if role == FnRole::Sink {
                vec![0]
            } else {
                vec![]
            },
            outputs: if role == FnRole::Source {
                vec![0]
            } else {
                vec![]
            },
            params: Properties::new(),
        };
        GlueProgram {
            app_name: "ct".into(),
            functions: vec![
                mk_fn(0, "src", "test.fill", FnRole::Source),
                mk_fn(1, "snk", "sink.null", FnRole::Sink),
            ],
            buffers: vec![LogicalBufferDesc {
                id: 0,
                producer: 0,
                producer_port: "out".into(),
                consumer: 1,
                consumer_port: "in".into(),
                shape: vec![4, 4],
                elem_bytes: 1,
                send_striping: Striping::BY_ROWS,
                recv_striping: Striping::BY_COLS,
                delay: 0,
            }],
            schedules: (0..2)
                .map(|t| {
                    vec![
                        Task {
                            fn_id: 0,
                            thread: t,
                        },
                        Task {
                            fn_id: 1,
                            thread: t,
                        },
                    ]
                })
                .collect(),
        }
    }
}
