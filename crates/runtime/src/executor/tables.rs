//! The run-time tables: everything [`prepare`] compiles once per program
//! and every rank reads — resolved kernels, each buffer's redistribution
//! plan, input ports grouped for fan-in, every task's edge list, the pair
//! table and the credit groups.

use crate::function::{Registry, RuntimeError};
use crate::glue::{FunctionDescriptor, GlueProgram, Task};
use crate::striping::{Layout, PairOps, Redistribution};
use std::sync::Arc;

/// Precomputed per-buffer machinery shared by all nodes.
pub(crate) struct BufferPlan {
    pub(crate) plan: Redistribution,
    /// `true` when producer and consumer layouts are identical per thread:
    /// the transfer degrades to per-thread hand-offs (no pack/unpack).
    pub(super) aligned: bool,
    /// `true` when the pairs arriving at each consumer thread cover its
    /// whole layout: a stripe this buffer is unpacked or merged into is
    /// overwritten in full, so its storage need not start zeroed.
    pub(super) covering: bool,
    pub(super) dst_local_shape: Vec<usize>,
    pub(super) src_local_shape: Vec<usize>,
}

/// One input port of a function: the logical buffers that merge into it.
/// Exactly one buffer per port in canonically generated programs; fan-in
/// (multiple producers connected to one port) puts several.
pub(crate) struct PortGroup {
    /// Consumer port name.
    pub(crate) port: String,
    /// Buffer ids in function-input order (the merge order).
    pub(crate) buffers: Vec<u32>,
}

/// Kernel resolution and buffer-redistribution planning, done once per
/// program and shared by every rank — the same `Prepared` drives the
/// in-process cluster and `sage-net`'s one-process-per-rank backend.
pub struct Prepared {
    pub(crate) plans: Vec<BufferPlan>,
    pub(super) kernels: Vec<Arc<dyn crate::function::Kernel>>,
    /// Per function: its input buffers grouped by consumer port.
    pub(crate) input_groups: Vec<Vec<PortGroup>>,
    /// Per function, per thread: the task's compiled transfers.
    tasks: Vec<Vec<TaskEdges>>,
    /// Per pair index: the pair's buffer and its compiled, coalesced
    /// pack/unpack programs (empty when the buffer is aligned: never packed).
    pub(super) pair_table: Vec<(u32, PairOps)>,
    /// Per credit-group index ([`Edge::credit_group`]).
    pub(super) credit_groups: Vec<CreditGroup>,
}

impl Prepared {
    /// The compiled transfers of `task`.
    pub fn edges(&self, task: Task) -> &TaskEdges {
        &self.tasks[task.fn_id as usize][task.thread as usize]
    }

    /// Every credit group of the program, by index.
    pub fn credit_groups(&self) -> &[CreditGroup] {
        &self.credit_groups
    }
}

/// The remote pairs one streaming credit message stands for: every
/// nonempty pair of one buffer into one consumer thread (the task that
/// lists the group) whose producer thread sits on one other node. Retiring
/// an iteration frees a ring slot of all of them at once, so the consumer
/// sends one credit per group and the producer node counts it once per
/// pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CreditGroup {
    /// Logical buffer id.
    pub buffer: u32,
    /// The node every producer thread of the group is placed on.
    pub producer_node: u32,
    /// The group's pair indices, in producer-thread order.
    pub pairs: Vec<u32>,
}

/// One compiled transfer — a nonempty (producer thread, consumer thread)
/// pair of a logical buffer — seen from the task at one end of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Logical buffer id.
    pub buffer: u32,
    /// The buffer's iteration delay: the consumer reads iteration
    /// `i - delay`.
    pub delay: u32,
    /// The peer task's thread (of the buffer's other function).
    pub peer_thread: u32,
    /// The node the peer task is placed on.
    pub peer_node: u32,
    /// The pair's dense index over the whole program, shared by its two
    /// ends: it addresses the pair's pack/unpack program, hand-off ring,
    /// staging buffer and credit cell.
    pub pair: u32,
    /// Byte runs the pair moves (descriptor walks are charged per run).
    pub runs: u32,
    /// The pair's [`CreditGroup`] index when its two ends are on different
    /// nodes; `None` for a same-node hand-off.
    pub credit_group: Option<u32>,
}

/// Every transfer of one task `(fn, thread)`, in the order the task
/// performs them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskEdges {
    /// Per input port (fan-in group): its edges in `f.inputs` order, then
    /// producer-thread order.
    pub inputs: Vec<Vec<Edge>>,
    /// Per output buffer, in `f.outputs` order: its edges in
    /// consumer-thread order.
    pub outputs: Vec<Vec<Edge>>,
    /// The credit groups this task returns credits to as a consumer, each
    /// once, in the order its input edges first name them.
    pub credit_groups: Vec<u32>,
}

/// Validates `program`, resolves every kernel through `registry`, and plans
/// every buffer's redistribution.
pub fn prepare(program: &GlueProgram, registry: &Registry) -> Result<Prepared, RuntimeError> {
    program.validate().map_err(RuntimeError::BadProgram)?;
    // A hand-built program with an out-of-range or indivisible stripe is a
    // typed error, not a panic in the layout walk.
    let planned = program
        .buffers
        .iter()
        .map(|b| {
            program.plan_buffer(b).map_err(|faults| {
                RuntimeError::BadProgram(format!("buffer {}: {}", b.id, faults[0].1))
            })
        })
        .collect::<Result<Vec<Redistribution>, _>>()?;
    // Resolve every kernel up front.
    let mut kernels = Vec::with_capacity(program.functions.len());
    for f in &program.functions {
        let k = registry
            .get(&f.function)
            .ok_or_else(|| RuntimeError::UnknownFunction {
                block: f.name.clone(),
                function: f.function.clone(),
            })?;
        kernels.push(k);
    }
    // Compile every buffer's redistribution plan.
    let plans: Vec<BufferPlan> = program
        .buffers
        .iter()
        .zip(planned)
        .map(|(b, plan)| {
            let pf = &program.functions[b.producer as usize];
            let cf = &program.functions[b.consumer as usize];
            let aligned = pf.threads == cf.threads
                && (0..pf.threads as usize).all(|t| plan.src[t] == plan.dst[t]);
            BufferPlan {
                dst_local_shape: Layout::local_shape(
                    &b.shape,
                    b.recv_striping,
                    cf.threads as usize,
                ),
                src_local_shape: Layout::local_shape(
                    &b.shape,
                    b.send_striping,
                    pf.threads as usize,
                ),
                covering: (0..plan.dst.len()).all(|j| plan.incoming_bytes(j) == plan.dst[j].len()),
                plan,
                aligned,
            }
        })
        .collect();
    // Group every function's inputs by consumer port: the buffers of one
    // port merge into a single kernel-visible stripe. Fan-in groups must
    // agree on the port's layout or the merge target is ill-defined.
    let mut input_groups: Vec<Vec<PortGroup>> = Vec::with_capacity(program.functions.len());
    let mut tasks: Vec<Vec<TaskEdges>> = Vec::with_capacity(program.functions.len());
    for f in &program.functions {
        let mut groups: Vec<PortGroup> = Vec::new();
        for &bid in &f.inputs {
            let port = &program.buffers[bid as usize].consumer_port;
            match groups.iter_mut().find(|g| &g.port == port) {
                Some(g) => g.buffers.push(bid),
                None => groups.push(PortGroup {
                    port: port.clone(),
                    buffers: vec![bid],
                }),
            }
        }
        for g in &groups {
            let first = &plans[g.buffers[0] as usize];
            for &bid in &g.buffers[1..] {
                let bp = &plans[bid as usize];
                if bp.dst_local_shape != first.dst_local_shape
                    || program.buffers[bid as usize].elem_bytes
                        != program.buffers[g.buffers[0] as usize].elem_bytes
                    || bp.plan.dst != first.plan.dst
                {
                    return Err(RuntimeError::BadProgram(format!(
                        "function `{}` port `{}`: fan-in buffers {} and {} \
                         disagree on the port's consumer layout",
                        f.name, g.port, g.buffers[0], bid
                    )));
                }
            }
        }
        let shape = TaskEdges {
            inputs: vec![Vec::new(); groups.len()],
            outputs: vec![Vec::new(); f.outputs.len()],
            credit_groups: Vec::new(),
        };
        tasks.push(vec![shape; f.threads as usize]);
        input_groups.push(groups);
    }
    // Compile every task's transfers, the one walk of the pair matrices:
    // each nonempty pair becomes an input edge of its consumer task and an
    // output edge of its producer task, under one fresh pair index. A
    // cross-node pair joins the credit group of its (buffer, consumer
    // thread, producer node).
    let mut pairs = Vec::new();
    let mut credit_groups: Vec<CreditGroup> = Vec::new();
    for (cf, groups) in program.functions.iter().zip(&input_groups) {
        for (gi, bid) in groups
            .iter()
            .enumerate()
            .flat_map(|(gi, g)| g.buffers.iter().map(move |&bid| (gi, bid)))
        {
            let desc = &program.buffers[bid as usize];
            let pf = &program.functions[desc.producer as usize];
            // Only the buffer's own consumer is sent to; a function reading
            // a buffer routed elsewhere fails typed on its missing hand-off.
            let output = pf.outputs.iter().position(|&o| o == bid);
            let output = output.filter(|_| desc.consumer == cf.id);
            let bp = &plans[bid as usize];
            for (i, row) in bp.plan.pairs.iter().enumerate() {
                for j in 0..cf.threads as usize {
                    let Some(runs) = row.get(j).map(Vec::len).filter(|&n| n > 0) else {
                        continue;
                    };
                    let pair = pairs.len() as u32;
                    let producer_node = pf.placement[i];
                    let credit_group = (producer_node != cf.placement[j]).then(|| {
                        let listed = &mut tasks[cf.id as usize][j].credit_groups;
                        let g = match listed.iter().find(|&&g| {
                            let group = &credit_groups[g as usize];
                            group.buffer == bid && group.producer_node == producer_node
                        }) {
                            Some(&g) => g,
                            None => {
                                listed.push(credit_groups.len() as u32);
                                credit_groups.push(CreditGroup {
                                    buffer: bid,
                                    producer_node,
                                    pairs: Vec::new(),
                                });
                                credit_groups.len() as u32 - 1
                            }
                        };
                        credit_groups[g as usize].pairs.push(pair);
                        g
                    });
                    let end = |f: &FunctionDescriptor, thread: usize| Edge {
                        buffer: bid,
                        delay: desc.delay,
                        peer_thread: thread as u32,
                        peer_node: f.placement[thread],
                        pair,
                        runs: runs as u32,
                        credit_group,
                    };
                    tasks[cf.id as usize][j].inputs[gi].push(end(pf, i));
                    if let Some(k) = output {
                        tasks[pf.id as usize][i].outputs[k].push(end(cf, j));
                    }
                    let ops = (!bp.aligned).then(|| bp.plan.pair_ops(i, j));
                    pairs.push((bid, ops.unwrap_or_default()));
                }
            }
        }
    }
    Ok(Prepared {
        plans,
        kernels,
        input_groups,
        tasks,
        pair_table: pairs,
        credit_groups,
    })
}

#[cfg(test)]
mod tests {
    use crate::executor::execute;
    use crate::fixtures::{fill_registry, machine, pipeline_program, row_to_col_program};
    use crate::function::RuntimeError;
    use crate::options::RuntimeOptions;
    use sage_fabric::TimePolicy;

    #[test]
    fn unknown_function_rejected_up_front() {
        let mut program = pipeline_program(2, 4, 4);
        program.functions[1].function = "no.such.kernel".into();
        let err = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &fill_registry(),
            &RuntimeOptions::default(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownFunction { .. }));
    }

    #[test]
    fn indivisible_striping_rejected_up_front() {
        // 5 rows over 2 threads cannot stripe; prepare must reject it
        // instead of panicking inside the striping engine.
        let mut program = pipeline_program(2, 4, 4);
        program.buffers[0].shape = vec![5, 4];
        program.buffers[1].shape = vec![5, 4];
        let err = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &fill_registry(),
            &RuntimeOptions::paper_faithful(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::BadProgram(_)), "{err}");
        assert!(
            err.to_string().contains("cannot stripe over `src`"),
            "{err}"
        );
    }

    #[test]
    fn row_to_col_redistribution_transposes_ownership() {
        // src striped by rows -> sink striped by cols: the runtime must
        // deliver column stripes that reassemble into the original matrix.
        let program = row_to_col_program();
        let exec = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &fill_registry(),
            &RuntimeOptions::paper_faithful(),
            1,
        )
        .unwrap();
        let full = exec.results.assemble(&program, 1, 0).unwrap();
        // Reconstruct what the source threads produced: thread t filled its
        // row stripe (rows 2t..2t+2) with t*31 + local index.
        let mut expect = vec![0u8; 16];
        for t in 0..2u8 {
            for i in 0..8usize {
                expect[t as usize * 8 + i] = t.wrapping_mul(31) + i as u8;
            }
        }
        assert_eq!(full, expect);
    }
}

#[cfg(test)]
mod replicated_tests {
    use super::*;
    use crate::executor::execute;
    use crate::fixtures::machine;
    use crate::glue::{FnRole, LogicalBufferDesc};
    use crate::options::RuntimeOptions;
    use sage_fabric::TimePolicy;
    use sage_model::{Properties, Striping};

    fn registry() -> Registry {
        let mut reg = Registry::new();
        reg.register("fill", |ctx: &mut crate::function::FnThreadCtx<'_>| {
            for o in ctx.outputs.iter_mut() {
                for (i, b) in o.bytes.iter_mut().enumerate() {
                    *b = (i as u8).wrapping_add(7);
                }
            }
            Ok(())
        });
        // Sink kernel that asserts it received the FULL payload.
        reg.register(
            "expect_full",
            |ctx: &mut crate::function::FnThreadCtx<'_>| {
                let input = &ctx.inputs[0];
                if input.shape != [4, 4] {
                    return Err(format!("expected full 4x4 shape, got {:?}", input.shape));
                }
                for (i, &b) in input.bytes.iter().enumerate() {
                    if b != (i as u8).wrapping_add(7) {
                        return Err(format!("byte {i} was {b}"));
                    }
                }
                Ok(())
            },
        );
        reg
    }

    /// Single-threaded source broadcasts a replicated payload to every
    /// thread of a 3-threaded consumer on 3 nodes.
    #[test]
    fn replicated_consumer_receives_full_payload_on_every_thread() {
        let program = GlueProgram {
            app_name: "bcast".into(),
            functions: vec![
                FunctionDescriptor {
                    id: 0,
                    name: "src".into(),
                    function: "fill".into(),
                    role: FnRole::Source,
                    threads: 1,
                    placement: vec![0],
                    flops: 0.0,
                    mem_bytes: 0.0,
                    inputs: vec![],
                    outputs: vec![0],
                    params: Properties::new(),
                },
                FunctionDescriptor {
                    id: 1,
                    name: "snk".into(),
                    function: "expect_full".into(),
                    role: FnRole::Sink,
                    threads: 3,
                    placement: vec![0, 1, 2],
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
                elem_bytes: 1,
                send_striping: Striping::Replicated,
                recv_striping: Striping::Replicated,
                delay: 0,
            }],
            schedules: vec![
                vec![
                    Task {
                        fn_id: 0,
                        thread: 0,
                    },
                    Task {
                        fn_id: 1,
                        thread: 0,
                    },
                ],
                vec![Task {
                    fn_id: 1,
                    thread: 1,
                }],
                vec![Task {
                    fn_id: 1,
                    thread: 2,
                }],
            ],
        };
        let exec = execute(
            &program,
            &machine(3),
            TimePolicy::Virtual,
            &registry(),
            &RuntimeOptions::paper_faithful(),
            2,
        )
        .unwrap();
        // Every sink thread deposited the full 16-byte payload, twice.
        assert_eq!(exec.results.len(), 6);
        for t in 0..3 {
            assert_eq!(exec.results.stripe(1, 1, t).unwrap().len(), 16);
        }
    }

    /// A 2-threaded replicated producer only transmits from thread 0 (the
    /// paper's convention), and a striped consumer still gets its slices.
    #[test]
    fn replicated_producer_to_striped_consumer() {
        let program = GlueProgram {
            app_name: "scatter".into(),
            functions: vec![
                FunctionDescriptor {
                    id: 0,
                    name: "src".into(),
                    function: "fill".into(),
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
                elem_bytes: 1,
                send_striping: Striping::Replicated,
                recv_striping: Striping::BY_ROWS,
                delay: 0,
            }],
            schedules: vec![
                vec![
                    Task {
                        fn_id: 0,
                        thread: 0,
                    },
                    Task {
                        fn_id: 1,
                        thread: 0,
                    },
                ],
                vec![
                    Task {
                        fn_id: 0,
                        thread: 1,
                    },
                    Task {
                        fn_id: 1,
                        thread: 1,
                    },
                ],
            ],
        };
        let exec = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &registry(),
            &RuntimeOptions::paper_faithful(),
            1,
        )
        .unwrap();
        let full = exec.results.assemble(&program, 1, 0).unwrap();
        let expect: Vec<u8> = (0..16).map(|i| (i as u8).wrapping_add(7)).collect();
        assert_eq!(full, expect);
    }
}
