//! Cross-rank transfer matching.
//!
//! Walks every node's schedule exactly the way the executor does and
//! records, per `(buffer, producer thread, consumer thread)` tag key, who
//! sends and who receives. In a correct program every non-empty plan pair
//! has exactly one sender and one receiver, the byte counts agree, and a
//! same-node hand-off is produced strictly before it is consumed (the
//! executor's local hand-off store has no other ordering). Everything else
//! is a `SAGE050`/`SAGE051`, reported with both endpoints' task paths.

use crate::{buffer_label, BufferPlans, Checker};
use sage_lint::{Diagnostic, Diagnostics};
use sage_runtime::Task;
use std::collections::BTreeMap;

/// One transfer endpoint: the task, where it is scheduled, and how many
/// bytes it moves.
#[derive(Clone, Copy, Debug)]
struct Endpoint {
    task: Task,
    node: u32,
    slot: usize,
    bytes: usize,
}

/// (buffer, src thread, dst thread) -> (senders, receivers). BTreeMap
/// keeps reporting order deterministic.
type Ledger = BTreeMap<(u32, u32, u32), (Vec<Endpoint>, Vec<Endpoint>)>;

/// Matches every send against every receive over the planned
/// redistributions.
pub(crate) fn check(cx: &Checker<'_>, plans: &BufferPlans, diags: &mut Diagnostics) {
    let (program, spans) = (cx.program, cx.spans);
    let mut ledger: Ledger = BTreeMap::new();
    for (node, sched) in program.schedules.iter().enumerate() {
        for (slot, &task) in sched.iter().enumerate() {
            let f = &program.functions[task.fn_id as usize];
            let tid = task.thread as usize;
            let at = |bytes: usize| Endpoint {
                task,
                node: node as u32,
                slot,
                bytes,
            };
            // Receives: one per producer thread with a non-empty pair, just
            // like the executor's input assembly.
            for &bid in &f.inputs {
                let Some(plan) = &plans[bid as usize] else {
                    continue;
                };
                for (i, row) in plan.pairs.iter().enumerate() {
                    let Some(intervals) = row.get(tid) else {
                        continue; // foreign consumer beyond the plan's width
                    };
                    if intervals.is_empty() {
                        continue;
                    }
                    let bytes: usize = intervals.iter().map(|(s, e)| e - s).sum();
                    ledger
                        .entry((bid, i as u32, task.thread))
                        .or_default()
                        .1
                        .push(at(bytes));
                }
            }
            // Sends: one per consumer thread with a non-empty pair, just
            // like the executor's output emission.
            for &bid in &f.outputs {
                let Some(plan) = &plans[bid as usize] else {
                    continue;
                };
                let Some(row) = plan.pairs.get(tid) else {
                    continue; // foreign producer beyond the plan's width
                };
                for (j, intervals) in row.iter().enumerate() {
                    if intervals.is_empty() {
                        continue;
                    }
                    let bytes: usize = intervals.iter().map(|(s, e)| e - s).sum();
                    ledger
                        .entry((bid, task.thread, j as u32))
                        .or_default()
                        .0
                        .push(at(bytes));
                }
            }
        }
    }

    for ((bid, i, j), (sends, recvs)) in &ledger {
        let label = buffer_label(program, *bid);
        let b = &program.buffers[*bid as usize];
        let span = spans.and_then(|s| {
            s.block(&program.functions[b.producer as usize].name)
                .or_else(|| s.block(&program.functions[b.consumer as usize].name))
        });
        let paths = |eps: &[Endpoint]| -> String {
            eps.iter()
                .map(|e| program.task_path(e.task))
                .collect::<Vec<_>>()
                .join(", ")
        };
        if sends.len() > 1 || recvs.len() > 1 {
            let (what, eps) = if sends.len() > 1 {
                ("sent", sends)
            } else {
                ("received", recvs)
            };
            diags.push(
                Diagnostic::error(
                    "SAGE051",
                    format!(
                        "transfer tag collision on {label}, stripe {i}->{j}: \
                         {what} by {} tasks ({})",
                        eps.len(),
                        paths(eps)
                    ),
                )
                .with_note(
                    "the runtime's tagged mailbox would deliver the wrong message to one of them",
                )
                .with_span_opt(span),
            );
            continue;
        }
        match (sends.first(), recvs.first()) {
            (Some(s), None) => {
                let intended = Task {
                    fn_id: b.consumer,
                    thread: *j,
                };
                diags.push(
                    Diagnostic::error(
                        "SAGE050",
                        format!(
                            "stripe {i}->{j} of {label} is sent by {} but never \
                             received; the intended receiver is {}",
                            program.task_path(s.task),
                            program.task_path(intended)
                        ),
                    )
                    .with_note(
                        "the message would sit in the mailbox forever and the consumer reads zeros",
                    )
                    .with_span_opt(span),
                );
            }
            (None, Some(r)) => {
                let intended = Task {
                    fn_id: b.producer,
                    thread: *i,
                };
                diags.push(
                    Diagnostic::error(
                        "SAGE050",
                        format!(
                            "{} waits for stripe {i}->{j} of {label} that no \
                             task sends; the intended sender is {}",
                            program.task_path(r.task),
                            program.task_path(intended)
                        ),
                    )
                    .with_note("at run time the receive blocks forever (or the local hand-off fails as TransferFailed)")
                    .with_span_opt(span),
                );
            }
            (Some(s), Some(r)) => {
                if s.bytes != r.bytes {
                    diags.push(
                        Diagnostic::error(
                            "SAGE051",
                            format!(
                                "stripe {i}->{j} of {label}: {} sends {} bytes \
                                 but {} expects {}",
                                program.task_path(s.task),
                                s.bytes,
                                program.task_path(r.task),
                                r.bytes
                            ),
                        )
                        .with_span_opt(span),
                    );
                } else if s.node == r.node && r.slot <= s.slot && b.delay == 0 {
                    // `delay` arcs are exempt: their consumer legally
                    // precedes their producer in the schedule because it
                    // reads the payload emitted `delay` iterations earlier
                    // (zeros on the first iterations).
                    diags.push(
                        Diagnostic::error(
                            "SAGE050",
                            format!(
                                "same-node hand-off of {label}, stripe \
                                 {i}->{j}, is consumed by {} before {} produces \
                                 it",
                                program.task_path(r.task),
                                program.task_path(s.task)
                            ),
                        )
                        .with_note(
                            "node schedules run in order; at run time this \
                             fails as a missing hand-off (TransferFailed)",
                        )
                        .with_span_opt(span),
                    );
                }
            }
            (None, None) => {}
        }
    }
}
