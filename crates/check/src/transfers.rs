//! Cross-rank transfer matching.
//!
//! Every planned transfer pair — one tag, `(buffer, producer thread,
//! consumer thread)`, a sync edge of the session's order — has a ledger
//! entry: the tasks that send it (that producer thread of every function
//! listing the buffer as an output, as the executor's output emission
//! does) and the tasks that receive it (that consumer thread of every
//! function listing it as an input, as its input assembly does), in
//! schedule order. In a correct program every pair has exactly one sender
//! and one receiver, and a same-node hand-off is produced strictly before
//! it is consumed (the executor's local hand-off store has no other
//! ordering). Everything else is a `SAGE050`/`SAGE051`, reported with both
//! endpoints' task paths.

use crate::order::Order;
use crate::{buffer_label, Checker};
use sage_lint::{Diagnostic, Diagnostics};
use sage_runtime::{FunctionDescriptor, Task};

/// Matches every send against every receive over the planned
/// redistributions.
pub(crate) fn check(cx: &Checker<'_>, order: &Order<'_>, diags: &mut Diagnostics) {
    let (program, spans) = (cx.program, cx.spans);
    for e in &order.syncs {
        let (bid, i, j) = (e.buffer, order.task(e.from).thread, order.task(e.to).thread);
        // The positions of `thread` of every function `listed` names.
        let ledger = |thread, listed: fn(&FunctionDescriptor) -> &[u32]| {
            let fns = program
                .functions
                .iter()
                .flat_map(|f| listed(f).iter().filter(|&&b| b == bid).map(|_| f.id));
            let mut at: Vec<usize> = fns
                .filter_map(|fn_id| order.position(Task { fn_id, thread }))
                .collect();
            at.sort_unstable();
            at
        };
        let (sends, recvs) = (ledger(i, |f| &f.outputs), ledger(j, |f| &f.inputs));
        let label = buffer_label(program, bid);
        let b = &program.buffers[bid as usize];
        let span = spans.and_then(|s| {
            s.block(&program.functions[b.producer as usize].name)
                .or_else(|| s.block(&program.functions[b.consumer as usize].name))
        });
        let path = |p: usize| program.task_path(order.task(p));
        if sends.len() > 1 || recvs.len() > 1 {
            let (what, eps) = if sends.len() > 1 {
                ("sent", sends)
            } else {
                ("received", recvs)
            };
            let paths: Vec<String> = eps.iter().map(|&p| path(p)).collect();
            diags.push(
                Diagnostic::error(
                    "SAGE051",
                    format!(
                        "transfer tag collision on {label}, stripe {i}->{j}: \
                         {what} by {} tasks ({})",
                        eps.len(),
                        paths.join(", ")
                    ),
                )
                .with_note(
                    "the runtime's tagged mailbox would deliver the wrong message to one of them",
                )
                .with_span_opt(span),
            );
            continue;
        }
        let intended = |fn_id, thread| program.task_path(Task { fn_id, thread });
        match (sends.first(), recvs.first()) {
            (Some(&s), None) => diags.push(
                Diagnostic::error(
                    "SAGE050",
                    format!(
                        "stripe {i}->{j} of {label} is sent by {} but never \
                         received; the intended receiver is {}",
                        path(s),
                        intended(b.consumer, j)
                    ),
                )
                .with_note(
                    "the message would sit in the mailbox forever and the consumer reads zeros",
                )
                .with_span_opt(span),
            ),
            (None, Some(&r)) => diags.push(
                Diagnostic::error(
                    "SAGE050",
                    format!(
                        "{} waits for stripe {i}->{j} of {label} that no \
                         task sends; the intended sender is {}",
                        path(r),
                        intended(b.producer, i)
                    ),
                )
                .with_note("at run time the receive blocks forever (or the local hand-off fails as TransferFailed)")
                .with_span_opt(span),
            ),
            // Positions run node by node in slot order. `delay` arcs are
            // exempt: their consumer legally precedes their producer in the
            // schedule because it reads the payload emitted `delay`
            // iterations earlier (zeros on the first iterations).
            (Some(&s), Some(&r)) if order.at(s).0 == order.at(r).0 && r <= s && e.delay == 0 => {
                diags.push(
                    Diagnostic::error(
                        "SAGE050",
                        format!(
                            "same-node hand-off of {label}, stripe \
                             {i}->{j}, is consumed by {} before {} produces \
                             it",
                            path(r),
                            path(s)
                        ),
                    )
                    .with_note(
                        "node schedules run in order; at run time this \
                         fails as a missing hand-off (TransferFailed)",
                    )
                    .with_span_opt(span),
                )
            }
            _ => {}
        }
    }
}
