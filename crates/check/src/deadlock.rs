//! Communication-deadlock detection over a generated glue program.
//!
//! The run-time walks each node's schedule in order; a task blocks until
//! every remote stripe it consumes has been sent and every same-node
//! hand-off it reads has already been produced *earlier in the schedule*.
//! That gives a per-iteration wait-for graph over tasks:
//!
//! * **program-order edges** — a task waits for the task scheduled
//!   immediately before it on the same node;
//! * **communication edges** — a consumer thread waits for every producer
//!   thread that sends it a non-empty stripe, per the session's
//!   redistribution plans (the executor's own).
//!
//! Both are edges of the session's one order relation; this pass asks it
//! for a cycle among the delay-0 ones. Any cycle in the union means no task on the cycle can ever run: a
//! communication deadlock (`SAGE040`), reported with the full blocking
//! chain. A buffer the preamble could not plan (`SAGE054`/`SAGE019`)
//! moves no stripes and contributes no edges.

use crate::order::{Order, Wait};
use crate::Checker;
use sage_lint::{Diagnostic, Diagnostics};
use sage_runtime::{GlueProgram, Task};

/// Reports a wait-for cycle among a validated program's tasks (`SAGE040`).
/// `delay` arcs cross the iteration boundary: the consumer reads the
/// payload emitted `delay` iterations earlier (zeros at start-up), so it
/// never waits on this iteration's producer and contributes no edge.
pub(crate) fn check(cx: &Checker<'_>, order: &Order<'_>, diags: &mut Diagnostics) {
    let Some(cycle) = order.cycle() else {
        return;
    };
    let program = cx.program;
    let names: Vec<String> = cycle
        .iter()
        .map(|&(p, _)| task_name(program, order.task(p)))
        .collect();
    let mut d = Diagnostic::error(
        "SAGE040",
        format!(
            "communication deadlock: {} tasks wait on each other in a cycle \
             ({})",
            cycle.len(),
            names.join(" -> "),
        ),
    );
    for (k, &(p, wait)) in cycle.iter().enumerate() {
        let waiter = &names[k];
        let waited = &names[(k + 1) % names.len()];
        let note = match wait {
            Wait::Program => format!(
                "`{waiter}` cannot start until `{waited}` finishes: it is \
                 scheduled after `{waited}` on node {}",
                order.at(p).0
            ),
            Wait::Recv(e) => {
                let buffer = order.syncs[e].buffer;
                let b = &program.buffers[buffer as usize];
                format!(
                    "`{waiter}` blocks receiving logical buffer {buffer} \
                     (`{}` -> `{}`) from `{waited}`",
                    b.producer_port, b.consumer_port
                )
            }
        };
        d = d.with_note(note);
    }
    d = d.with_note(
        "every task on the cycle waits forever; reorder the schedule or \
         change the mapping so producers run before their consumers",
    );
    let first = &program.functions[order.task(cycle[0].0).fn_id as usize].name;
    diags.push(d.with_span_opt(cx.spans.and_then(|s| s.block(first))));
}

fn task_name(program: &GlueProgram, t: Task) -> String {
    format!("{}[{}]", program.functions[t.fn_id as usize].name, t.thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_lint::ModelSpans;
    use sage_model::{HardwareShelf, Properties, Striping};
    use sage_runtime::{FnRole, FunctionDescriptor, LogicalBufferDesc};

    fn deadlock_pass(program: &GlueProgram, spans: Option<&ModelSpans>) -> Diagnostics {
        let hw = HardwareShelf::cspi_with_nodes(program.node_count());
        Checker::new(program, &hw, spans).deadlock()
    }

    /// src (2 threads on nodes 0/1) -> snk (2 threads on nodes 0/1), one
    /// 4x4 complex buffer striped by rows on both sides. `order(node)`
    /// controls the schedule on each node: tasks listed producer-first when
    /// `true`.
    fn two_stage(order: [bool; 2]) -> GlueProgram {
        let functions = vec![
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
        ];
        let buffers = vec![LogicalBufferDesc {
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
        }];
        let sched = |t: usize, producer_first: bool| {
            let p = Task {
                fn_id: 0,
                thread: t as u32,
            };
            let c = Task {
                fn_id: 1,
                thread: t as u32,
            };
            if producer_first {
                vec![p, c]
            } else {
                vec![c, p]
            }
        };
        GlueProgram {
            app_name: "t".into(),
            functions,
            buffers,
            schedules: vec![sched(0, order[0]), sched(1, order[1])],
        }
    }

    #[test]
    fn well_ordered_program_is_clean() {
        let d = deadlock_pass(&two_stage([true, true]), None);
        assert!(d.is_empty(), "{:?}", d.diags);
    }

    #[test]
    fn reversed_schedule_deadlocks() {
        let d = deadlock_pass(&two_stage([true, false]), None);
        assert_eq!(d.diags.len(), 1, "{:?}", d.diags);
        let diag = &d.diags[0];
        assert_eq!(diag.code, "SAGE040");
        assert!(diag.message.contains("snk[1]"), "{}", diag.message);
        assert!(diag.message.contains("src[1]"), "{}", diag.message);
        // The blocking chain names both the recv and the schedule ordering.
        let all_notes = diag.notes.join("\n");
        assert!(
            all_notes.contains("blocks receiving logical buffer 0"),
            "{all_notes}"
        );
        assert!(all_notes.contains("scheduled after"), "{all_notes}");
    }

    #[test]
    fn corner_turn_cross_node_deadlock() {
        // BY_ROWS -> BY_COLS is all-to-all: every consumer thread waits on
        // every producer thread, so a single reversed node deadlocks the
        // whole machine.
        let mut p = two_stage([true, false]);
        p.buffers[0].recv_striping = Striping::BY_COLS;
        let d = deadlock_pass(&p, None);
        assert_eq!(d.diags.len(), 1);
        assert_eq!(d.diags[0].code, "SAGE040");
    }

    #[test]
    fn unstripeable_buffer_reports_sage019_not_a_panic() {
        let mut p = two_stage([true, true]);
        p.buffers[0].shape = vec![5, 4]; // 5 rows over 2 threads
        let d = deadlock_pass(&p, None);
        assert_eq!(d.diags.len(), 2, "{:?}", d.diags); // send and recv side
        assert!(d.diags.iter().all(|x| x.code == "SAGE019"));
    }

    #[test]
    fn out_of_range_stripe_dim_reports_sage019_not_a_panic() {
        let mut p = two_stage([true, true]);
        p.buffers[0].send_striping = Striping::Striped { dim: 7 };
        let d = deadlock_pass(&p, None);
        assert_eq!(d.diags.len(), 1, "{:?}", d.diags);
        assert_eq!(d.diags[0].code, "SAGE019");
        assert!(d.diags[0].message.contains("dimension 7 of a 2-D payload"));
    }

    #[test]
    fn malformed_program_reports_sage041() {
        let mut p = two_stage([true, true]);
        p.schedules[0].clear(); // schedules no longer cover the task set
        let d = deadlock_pass(&p, None);
        assert_eq!(d.diags.len(), 1);
        assert_eq!(d.diags[0].code, "SAGE041");
    }

    #[test]
    fn replicated_producer_only_blocks_on_thread_zero() {
        let mut p = two_stage([true, true]);
        p.buffers[0].send_striping = Striping::Replicated;
        p.buffers[0].recv_striping = Striping::BY_ROWS;
        // Reverse node 1's schedule: snk[1] runs before src[1]. With a
        // replicated producer only src[0] transmits, so snk[1] never waits
        // on src[1] and nothing deadlocks.
        p.schedules[1].reverse();
        let d = deadlock_pass(&p, None);
        assert!(d.is_empty(), "{:?}", d.diags);
    }
}
