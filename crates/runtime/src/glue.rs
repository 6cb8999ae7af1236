//! The generated glue program: the "run-time source files" of the paper.
//!
//! Paper §2: "the function table is generated from a list of all function
//! instances in the SAGE design. SAGE Designer orders all function instances
//! and assigns them IDs from 0..N-1. The SAGE runtime executes functions
//! based on this ID, which is the index of this descriptor into the function
//! table. ... Located and shared between each port on the sender and
//! receiver functions is the SAGE notion of a logical buffer. ... It
//! contains the striding information, total buffer size (before striding),
//! thread information (number and type), etc."
//!
//! [`GlueProgram`] is the executable form of those generated files: the
//! function table, the logical buffer table, and the per-node schedules. The
//! glue-code *generator* (in `sage-core`) produces it by traversing the
//! Designer model, alongside a human-readable source rendering.

use crate::striping::{stripe_fault, Redistribution};
use sage_model::Striping;

/// Role of a function-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FnRole {
    /// Produces the input data set each iteration.
    Source,
    /// Absorbs the final result.
    Sink,
    /// Ordinary computation bound to a registered kernel.
    Compute,
}

/// One entry of the function table.
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionDescriptor {
    /// Function ID: the index of this descriptor in the table.
    pub id: u32,
    /// Block instance name from the Designer model.
    pub name: String,
    /// Registry name of the kernel to invoke.
    pub function: String,
    /// Source / sink / compute.
    pub role: FnRole,
    /// Number of threads of the host function.
    pub threads: u32,
    /// Node each thread is placed on (`placement[t]`), from AToT.
    pub placement: Vec<u32>,
    /// Estimated flops per invocation (whole function, all threads).
    pub flops: f64,
    /// Estimated memory traffic per invocation, bytes.
    pub mem_bytes: f64,
    /// Logical buffer ids feeding this function, in input-port order.
    pub inputs: Vec<u32>,
    /// Logical buffer ids this function fills, in output-port order.
    pub outputs: Vec<u32>,
    /// Model properties forwarded to the kernel (sizes, seeds, ...).
    pub params: sage_model::Properties,
}

/// One entry of the logical buffer table.
#[derive(Clone, Debug, PartialEq)]
pub struct LogicalBufferDesc {
    /// Buffer ID (index into the table); one per data-flow arc.
    pub id: u32,
    /// Producing function id.
    pub producer: u32,
    /// Producer port name (for generated-source readability).
    pub producer_port: String,
    /// Consuming function id.
    pub consumer: u32,
    /// Consumer port name.
    pub consumer_port: String,
    /// Array shape of the payload, outermost dimension first.
    pub shape: Vec<usize>,
    /// Bytes per element.
    pub elem_bytes: usize,
    /// Striping on the sending port.
    pub send_striping: Striping,
    /// Striping on the receiving port.
    pub recv_striping: Striping,
    /// Iteration delay: the consumer of iteration `i` reads the payload the
    /// producer emitted on iteration `i - delay` (zeros while `i < delay`).
    /// Nonzero only for feedback arcs leaving a block with a `delay`
    /// property; 0 is the ordinary same-iteration dataflow arc.
    pub delay: u32,
}

impl LogicalBufferDesc {
    /// Total payload size in bytes ("total buffer size (before striding)").
    pub fn total_bytes(&self) -> usize {
        self.shape.iter().product::<usize>() * self.elem_bytes
    }
}

/// A task is one thread of one function instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Task {
    /// Function-table index.
    pub fn_id: u32,
    /// Thread index within the function.
    pub thread: u32,
}

/// The complete generated program.
#[derive(Clone, Debug, PartialEq)]
pub struct GlueProgram {
    /// Application model name.
    pub app_name: String,
    /// The function table, indexed by function ID.
    pub functions: Vec<FunctionDescriptor>,
    /// The logical buffer table, indexed by buffer ID.
    pub buffers: Vec<LogicalBufferDesc>,
    /// Per-node schedules: the tasks each node executes each iteration, in
    /// dataflow (topological) order.
    pub schedules: Vec<Vec<Task>>,
}

impl GlueProgram {
    /// Number of nodes the program is generated for.
    pub fn node_count(&self) -> usize {
        self.schedules.len()
    }

    /// The node a task is placed on.
    pub fn node_of(&self, t: Task) -> u32 {
        self.functions[t.fn_id as usize].placement[t.thread as usize]
    }

    /// Where a task sits in its node's schedule: `(node, slot)` if it is
    /// scheduled, `None` otherwise.
    pub fn schedule_slot(&self, t: Task) -> Option<(u32, usize)> {
        for (node, sched) in self.schedules.iter().enumerate() {
            if let Some(slot) = sched.iter().position(|s| *s == t) {
                return Some((node as u32, slot));
            }
        }
        None
    }

    /// A human-readable path for a task: name, thread, and where it runs
    /// (`` `fft[1]` (node 0, slot 3)``). Used by diagnostics to name the two
    /// endpoints of a transfer.
    pub fn task_path(&self, t: Task) -> String {
        let name = self
            .functions
            .get(t.fn_id as usize)
            .map(|f| f.name.as_str())
            .unwrap_or("?");
        match self.schedule_slot(t) {
            Some((node, slot)) => {
                format!("`{name}[{}]` (node {node}, slot {slot})", t.thread)
            }
            None => format!("`{name}[{}]` (unscheduled)", t.thread),
        }
    }

    /// Plans buffer `b`'s redistribution between its producer's and its
    /// consumer's threads — the one planner `prepare` and the static checker
    /// share. `Err` carries, per side that has no layout, the striping
    /// function's name and why. `b`'s endpoints must be in range
    /// ([`GlueProgram::validate`]).
    pub fn plan_buffer(
        &self,
        b: &LogicalBufferDesc,
    ) -> Result<Redistribution, Vec<(&str, String)>> {
        let pf = &self.functions[b.producer as usize];
        let cf = &self.functions[b.consumer as usize];
        let sides = [(pf, b.send_striping), (cf, b.recv_striping)];
        let faults: Vec<_> = sides
            .into_iter()
            .filter_map(|(f, striping)| {
                let fault = stripe_fault(&b.shape, striping, f.threads as usize, &f.name)?;
                Some((f.name.as_str(), fault))
            })
            .collect();
        if !faults.is_empty() {
            return Err(faults);
        }
        Ok(Redistribution::plan(
            &b.shape,
            b.elem_bytes,
            b.send_striping,
            pf.threads as usize,
            b.recv_striping,
            cf.threads as usize,
        ))
    }

    /// Consistency checks: placements in range, schedules cover exactly the
    /// task set, buffer endpoints valid.
    pub fn validate(&self) -> Result<(), String> {
        let nodes = self.schedules.len() as u32;
        // Transfer tags pack ids into fixed-width fields; past them two
        // pairs share a tag and the mailbox mis-delivers silently.
        if self.buffers.len() > MAX_BUFFERS {
            return Err(format!(
                "the buffer table has {} entries; transfer tags encode at most {MAX_BUFFERS}",
                self.buffers.len()
            ));
        }
        for (i, f) in self.functions.iter().enumerate() {
            if f.id as usize != i {
                return Err(format!("function {i} has id {}", f.id));
            }
            if f.threads > MAX_THREADS {
                return Err(format!(
                    "function {} has {} threads; transfer tags encode at most {MAX_THREADS}",
                    f.name, f.threads
                ));
            }
            if f.placement.len() != f.threads as usize {
                return Err(format!("function {} placement/threads mismatch", f.name));
            }
            for &n in &f.placement {
                if n >= nodes {
                    return Err(format!("function {} placed on node {n}/{nodes}", f.name));
                }
            }
            for &b in f.inputs.iter().chain(&f.outputs) {
                if b as usize >= self.buffers.len() {
                    return Err(format!("function {} references buffer {b}", f.name));
                }
            }
        }
        for b in &self.buffers {
            if b.producer as usize >= self.functions.len()
                || b.consumer as usize >= self.functions.len()
            {
                return Err(format!("buffer {} endpoint out of range", b.id));
            }
        }
        // Schedules: every (fn, thread) exactly once, on its placed node.
        let mut seen = std::collections::HashSet::new();
        for (node, sched) in self.schedules.iter().enumerate() {
            for t in sched {
                if self.node_of(*t) != node as u32 {
                    return Err(format!(
                        "task {t:?} scheduled on node {node} but placed on {}",
                        self.node_of(*t)
                    ));
                }
                if !seen.insert(*t) {
                    return Err(format!("task {t:?} scheduled twice"));
                }
            }
        }
        let expected: usize = self.functions.iter().map(|f| f.threads as usize).sum();
        if seen.len() != expected {
            return Err(format!(
                "schedules cover {} tasks, expected {expected}",
                seen.len()
            ));
        }
        Ok(())
    }
}

/// Maximum logical buffers [`xfer_tag`]'s 20-bit buffer field can address.
pub const MAX_BUFFERS: usize = 1 << 20;
/// Maximum threads per function [`xfer_tag`]'s 10-bit thread fields can
/// address.
pub const MAX_THREADS: u32 = 1 << 10;
/// Iterations [`xfer_tag`]'s 20-bit iteration field tells apart: the
/// deepest ring a logical buffer can have.
pub const TAG_ITERATIONS: u32 = 1 << 20;

/// Message tags for redistribution traffic: `buffer | iteration | src thread
/// | dst thread`, all packed into the fabric's 64-bit tag space (top bit
/// clear — the MPI layer's user/collective spaces are disjoint by
/// construction since the runtime sends through the raw fabric context).
/// [`GlueProgram::validate`] rejects programs whose ids overflow a field.
pub fn xfer_tag(buffer: u32, iteration: u32, src_thread: u32, dst_thread: u32) -> u64 {
    debug_assert!((buffer as usize) < MAX_BUFFERS);
    debug_assert!(src_thread < MAX_THREADS && dst_thread < MAX_THREADS);
    ((buffer as u64) << 40)
        | (((iteration % TAG_ITERATIONS) as u64) << 20)
        | ((src_thread as u64) << 10)
        | dst_thread as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_model::Properties;

    fn tiny_program() -> GlueProgram {
        GlueProgram {
            app_name: "t".into(),
            functions: vec![
                FunctionDescriptor {
                    id: 0,
                    name: "src".into(),
                    function: "source".into(),
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
                    function: "sink".into(),
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
        }
    }

    #[test]
    fn valid_program_passes() {
        assert_eq!(tiny_program().validate(), Ok(()));
    }

    #[test]
    fn buffer_total_bytes() {
        assert_eq!(tiny_program().buffers[0].total_bytes(), 128);
    }

    #[test]
    fn misplaced_task_rejected() {
        let mut p = tiny_program();
        p.schedules[0].push(Task {
            fn_id: 0,
            thread: 1,
        }); // belongs to node 1
        assert!(p.validate().is_err());
    }

    #[test]
    fn missing_task_rejected() {
        let mut p = tiny_program();
        p.schedules[1].pop();
        assert!(p.validate().is_err());
    }

    #[test]
    fn bad_placement_rejected() {
        let mut p = tiny_program();
        p.functions[0].placement[0] = 9;
        assert!(p.validate().is_err());
    }

    /// Ids past a tag field's width alias another pair's tag; `validate` is
    /// the only gate `--unchecked` runs and library callers pass through.
    #[test]
    fn ids_wider_than_a_tag_field_rejected() {
        let mut p = tiny_program();
        p.functions[0].threads = MAX_THREADS + 1;
        p.functions[0].placement = vec![0; MAX_THREADS as usize + 1];
        let err = p.validate().unwrap_err();
        assert!(err.contains("src") && err.contains("1024"), "{err}");
    }

    #[test]
    fn task_paths_name_node_and_slot() {
        let p = tiny_program();
        let t = Task {
            fn_id: 1,
            thread: 1,
        };
        assert_eq!(p.schedule_slot(t), Some((1, 1)));
        assert_eq!(p.task_path(t), "`snk[1]` (node 1, slot 1)");
        let ghost = Task {
            fn_id: 0,
            thread: 7,
        };
        assert_eq!(p.schedule_slot(ghost), None);
        assert_eq!(p.task_path(ghost), "`src[7]` (unscheduled)");
    }

    #[test]
    fn tags_unique_across_fields() {
        let a = xfer_tag(1, 0, 0, 0);
        let b = xfer_tag(1, 1, 0, 0);
        let c = xfer_tag(1, 0, 1, 0);
        let d = xfer_tag(1, 0, 0, 1);
        let e = xfer_tag(2, 0, 0, 0);
        let all = [a, b, c, d, e];
        let set: std::collections::HashSet<u64> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len());
    }
}
