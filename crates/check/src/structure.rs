//! Symbolic shape and wiring analysis of the function and buffer tables.
//!
//! Propagates shapes and element counts through every descriptor the way
//! the striping engine will, without touching any payload bytes:
//! degenerate descriptors and unstripeable layouts, function-table wiring
//! (a kernel reading a buffer no transfer delivers is a use-before-init;
//! two functions claiming the same output buffer is a double-write), the
//! shape/dtype contracts of the registered kernels, and the transfer-tag
//! field widths the runtime packs ids into.

use crate::{buffer_label, BufferPlans, Checker};
use sage_lint::{Diagnostic, Diagnostics, ModelSpans};
use sage_model::Striping;
use sage_runtime::glue::{MAX_BUFFERS, MAX_THREADS};
use sage_runtime::{FunctionDescriptor, GlueProgram, Layout, LogicalBufferDesc};

/// Plans every buffer's redistribution through the run-time's planner,
/// reporting degenerate descriptors (`SAGE054`) and unstripeable layouts
/// (`SAGE019`) instead of planning them.
pub(crate) fn plan_buffers(
    program: &GlueProgram,
    spans: Option<&ModelSpans>,
    diags: &mut Diagnostics,
) -> BufferPlans {
    let at = |block: &str| spans.and_then(|s| s.block(block));
    let plan_one = |b: &LogicalBufferDesc| {
        let label = buffer_label(program, b.id);
        if b.elem_bytes == 0 || b.shape.is_empty() || b.shape.contains(&0) {
            let message = format!(
                "{label}: degenerate payload (shape {:?}, {} bytes per element)",
                b.shape, b.elem_bytes
            );
            diags.push(
                Diagnostic::error("SAGE054", message)
                    .with_note("every dimension extent and the element size must be nonzero")
                    .with_span_opt(at(&program.functions[b.producer as usize].name)),
            );
            return None;
        }
        let faults = match program.plan_buffer(b) {
            Ok(plan) => return Some(plan),
            Err(faults) => faults,
        };
        for (who, fault) in faults {
            let message = format!("{label}: {fault}");
            diags.push(Diagnostic::error("SAGE019", message).with_span_opt(at(who)));
        }
        None
    };
    program.buffers.iter().map(plan_one).collect()
}

/// Checks the program against the transfer-tag field widths (`SAGE057`).
/// Returns `true` when tags would alias, in which case nothing the later
/// passes say about transfers means anything.
pub(crate) fn check_tag_widths(
    program: &GlueProgram,
    spans: Option<&ModelSpans>,
    diags: &mut Diagnostics,
) -> bool {
    let before = diags.diags.len();
    let buffers = program.buffers.len();
    if buffers > MAX_BUFFERS {
        let message = format!(
            "the buffer table has {buffers} entries; transfer tags encode at most {MAX_BUFFERS}"
        );
        let note = "tags would alias between distinct logical buffers";
        diags.push(Diagnostic::error("SAGE057", message).with_note(note));
    }
    for f in program.functions.iter().filter(|f| f.threads > MAX_THREADS) {
        let message = format!(
            "function `{}` has {} threads; transfer tags encode at most {MAX_THREADS}",
            f.name, f.threads
        );
        diags.push(
            Diagnostic::error("SAGE057", message)
                .with_note("thread indices above the field width alias lower threads' transfers")
                .with_span_opt(spans.and_then(|s| s.block(&f.name))),
        );
    }
    diags.diags.len() > before
}

/// Checks function-table wiring against the buffer table: an input listing
/// a buffer routed to another function is a use-before-init (`SAGE052`),
/// an output listing a buffer another function produces is a double-write
/// (`SAGE053`). A plan whose producer intervals do not cover a consumer
/// stripe is also a use-before-init.
pub(crate) fn check_wiring(cx: &Checker<'_>, plans: &BufferPlans, diags: &mut Diagnostics) {
    let (program, spans) = (cx.program, cx.spans);
    for f in &program.functions {
        for (input, listed) in [(true, &f.inputs), (false, &f.outputs)] {
            let (code, what, role, note) = if input {
                let note = "no transfer delivers the buffer here; the kernel would read \
                            uninitialized bytes";
                ("SAGE052", "an input", "consumer", note)
            } else {
                let note = "two writers would race on the buffer and its transfer tags";
                ("SAGE053", "an output", "producer", note)
            };
            for &bid in listed {
                let b = &program.buffers[bid as usize];
                let owner = if input { b.consumer } else { b.producer };
                if owner != f.id {
                    let message = format!(
                        "function `{}` lists {} as {what}, but the buffer's {role} is `{}`",
                        f.name,
                        buffer_label(program, bid),
                        program.functions[owner as usize].name
                    );
                    diags.push(
                        Diagnostic::error(code, message)
                            .with_note(note)
                            .with_span_opt(spans.and_then(|s| s.block(&f.name))),
                    );
                }
            }
        }
    }
    // Coverage safety net: every consumer stripe must be fully covered by
    // producer intervals. Unreachable with the current planner's striping
    // algebra, but cheap insurance against future layout kinds.
    for (bid, plan) in plans.iter().enumerate() {
        let Some(plan) = plan else { continue };
        let b = &program.buffers[bid];
        let cf = &program.functions[b.consumer as usize];
        for j in 0..cf.threads as usize {
            let expect = plan.dst.get(j).map(Layout::len).unwrap_or(0);
            let got = plan.incoming_bytes(j);
            if got != expect {
                diags.push(
                    Diagnostic::error(
                        "SAGE052",
                        format!(
                            "consumer thread {j} of {} receives {got} of its \
                             {expect} stripe bytes; the rest is never written",
                            buffer_label(program, bid as u32)
                        ),
                    )
                    .with_span_opt(spans.and_then(|s| s.block(&cf.name))),
                );
            }
        }
    }
}

/// One port's thread-local stripe: (local shape, element bytes).
type PortShape = (Vec<usize>, usize);

/// The thread-local input/output stripe shapes of a function, derived from
/// its canonically wired, plannable buffers. `None` when any port's
/// descriptor is broken (those already carry their own diagnostics).
fn local_port_shapes(
    program: &GlueProgram,
    plans: &BufferPlans,
    f: &FunctionDescriptor,
) -> Option<(Vec<PortShape>, Vec<PortShape>)> {
    let mut ins = Vec::with_capacity(f.inputs.len());
    let mut seen_ports: Vec<&str> = Vec::new();
    for &bid in &f.inputs {
        let b = &program.buffers[bid as usize];
        if b.consumer != f.id || plans[bid as usize].is_none() {
            return None;
        }
        if seen_ports.contains(&b.consumer_port.as_str()) {
            // Fan-in: the port's buffers merge into one kernel-visible
            // stripe, so the contract sees one shape per port.
            continue;
        }
        seen_ports.push(&b.consumer_port);
        ins.push((
            Layout::local_shape(&b.shape, b.recv_striping, f.threads as usize),
            b.elem_bytes,
        ));
    }
    let mut outs = Vec::with_capacity(f.outputs.len());
    for &bid in &f.outputs {
        let b = &program.buffers[bid as usize];
        if b.producer != f.id || plans[bid as usize].is_none() {
            return None;
        }
        outs.push((
            Layout::local_shape(&b.shape, b.send_striping, f.threads as usize),
            b.elem_bytes,
        ));
    }
    Some((ins, outs))
}

fn stripe_bytes(port: &PortShape) -> usize {
    port.0.iter().product::<usize>() * port.1
}

/// Checks every function invocation against its kernel's shape and dtype
/// contract (`SAGE054`): the conditions under which the registered kernel
/// would fail or panic at run time, decided from the descriptors alone.
pub(crate) fn check_kernel_contracts(
    cx: &Checker<'_>,
    plans: &BufferPlans,
    diags: &mut Diagnostics,
) {
    let (program, spans) = (cx.program, cx.spans);
    for f in &program.functions {
        let Some((ins, outs)) = local_port_shapes(program, plans, f) else {
            continue;
        };
        let mut violations: Vec<String> = Vec::new();
        let mut viol = |m: String| violations.push(m);
        let complex_ports = |ins: &[(Vec<usize>, usize)],
                             outs: &[(Vec<usize>, usize)],
                             viol: &mut dyn FnMut(String)| {
            for (k, p) in ins.iter().chain(outs.iter()).enumerate() {
                if p.1 != 8 {
                    viol(format!(
                        "port {k} carries {}-byte elements, but the kernel \
                         computes on 8-byte complex samples",
                        p.1
                    ));
                }
            }
        };
        let one_in_one_out = |ins: &[(Vec<usize>, usize)],
                              outs: &[(Vec<usize>, usize)],
                              viol: &mut dyn FnMut(String)|
         -> bool {
            if ins.is_empty() || outs.is_empty() {
                viol("the kernel needs one input and one output port".into());
                return false;
            }
            true
        };
        let bytes_preserved = |ins: &[(Vec<usize>, usize)],
                               outs: &[(Vec<usize>, usize)],
                               viol: &mut dyn FnMut(String)| {
            let (i, o) = (stripe_bytes(&ins[0]), stripe_bytes(&outs[0]));
            if i != o {
                viol(format!(
                    "the kernel copies its {i}-byte input stripe into a \
                     {o}-byte output stripe"
                ));
            }
        };
        match f.function.as_str() {
            "id" => {
                if ins.len() != outs.len() {
                    viol(format!(
                        "`id` needs matching port counts, got {} inputs and {} \
                         outputs",
                        ins.len(),
                        outs.len()
                    ));
                } else {
                    for (k, (i, o)) in ins.iter().zip(outs.iter()).enumerate() {
                        let (ib, ob) = (stripe_bytes(i), stripe_bytes(o));
                        if ib != ob {
                            viol(format!(
                                "`id` copies input {k} of {ib} bytes into an \
                                 output stripe of {ob} bytes"
                            ));
                        }
                    }
                }
            }
            "workload.matrix" => {
                if outs.is_empty() {
                    viol("`workload.matrix` needs an output port".into());
                } else {
                    if outs[0].0.len() != 2 {
                        viol(format!(
                            "`workload.matrix` emits a matrix stripe, but the \
                             output's local shape is {:?}",
                            outs[0].0
                        ));
                    }
                    complex_ports(&[], &outs[..1], &mut viol);
                    let b = &program.buffers[f.outputs[0] as usize];
                    let row_striped = matches!(b.send_striping, Striping::Striped { dim: 0 });
                    if f.threads > 1 && !row_striped {
                        viol(format!(
                            "`workload.matrix` assumes a row-striped output \
                             (thread t owns rows t*rows..), but the port is \
                             {:?} over {} threads",
                            b.send_striping, f.threads
                        ));
                    }
                }
            }
            "isspl.fft_rows" if one_in_one_out(&ins, &outs, &mut viol) => {
                complex_ports(&ins[..1], &outs[..1], &mut viol);
                bytes_preserved(&ins, &outs, &mut viol);
                let cols = ins[0].0.last().copied().unwrap_or(0);
                if !cols.is_power_of_two() {
                    viol(format!(
                        "FFT length {cols} (the local stripe's row length) \
                         is not a power of two"
                    ));
                }
            }
            "isspl.transpose" if one_in_one_out(&ins, &outs, &mut viol) => {
                complex_ports(&ins[..1], &outs[..1], &mut viol);
                if ins[0].0.len() != 2 {
                    viol(format!(
                        "`isspl.transpose` needs a matrix stripe, got local \
                         shape {:?}",
                        ins[0].0
                    ));
                } else {
                    let (r, c) = (ins[0].0[0], ins[0].0[1]);
                    if outs[0].0 != [c, r] {
                        viol(format!(
                            "transposing a local [{r}, {c}] stripe needs a \
                             [{c}, {r}] output, got {:?}",
                            outs[0].0
                        ));
                    }
                }
            }
            "isspl.transpose_fft_rows" | "isspl.transpose_ifft_rows"
                if one_in_one_out(&ins, &outs, &mut viol) =>
            {
                complex_ports(&ins[..1], &outs[..1], &mut viol);
                bytes_preserved(&ins, &outs, &mut viol);
                if ins[0].0.len() != 2 {
                    viol(format!(
                        "the kernel needs a matrix stripe, got local shape \
                         {:?}",
                        ins[0].0
                    ));
                } else {
                    let r = ins[0].0[0];
                    if !r.is_power_of_two() {
                        viol(format!(
                            "FFT length {r} (the local stripe's row count, \
                             which becomes the row length after the \
                             transpose) is not a power of two"
                        ));
                    }
                }
            }
            "isspl.lowpass_mask" if one_in_one_out(&ins, &outs, &mut viol) => {
                complex_ports(&ins[..1], &outs[..1], &mut viol);
                bytes_preserved(&ins, &outs, &mut viol);
                if ins[0].0.len() != 2 {
                    viol(format!(
                        "`isspl.lowpass_mask` needs a matrix stripe, got \
                         local shape {:?}",
                        ins[0].0
                    ));
                }
            }
            "isspl.window_rows" | "isspl.magnitude" if one_in_one_out(&ins, &outs, &mut viol) => {
                complex_ports(&ins[..1], &outs[..1], &mut viol);
                bytes_preserved(&ins, &outs, &mut viol);
            }
            "workload.bytes" if outs.is_empty() => {
                viol("`workload.bytes` needs at least one output port".into());
            }
            "workload.splat" => {
                if ins.is_empty() || outs.is_empty() {
                    viol("`workload.splat` needs one input and at least one output port".into());
                } else {
                    let ib = stripe_bytes(&ins[0]);
                    for (k, o) in outs.iter().enumerate() {
                        let ob = stripe_bytes(o);
                        if ib != ob {
                            viol(format!(
                                "`workload.splat` copies its {ib}-byte input \
                                 stripe into output {k} of {ob} bytes"
                            ));
                        }
                    }
                }
            }
            "workload.mix" => {
                if ins.len() < 2 || outs.is_empty() {
                    viol(
                        "`workload.mix` needs two inputs (forward, feedback) \
                         and at least one output port"
                            .into(),
                    );
                } else {
                    let ib = stripe_bytes(&ins[0]);
                    let fb = stripe_bytes(&ins[1]);
                    if fb != ib {
                        viol(format!(
                            "`workload.mix` combines its {ib}-byte forward \
                             stripe with a feedback stripe of {fb} bytes"
                        ));
                    }
                    for (k, o) in outs.iter().enumerate() {
                        let ob = stripe_bytes(o);
                        if ib != ob {
                            viol(format!(
                                "`workload.mix` writes its {ib}-byte mix into \
                                 output {k} of {ob} bytes"
                            ));
                        }
                    }
                }
            }
            _ => {} // unknown kernels carry no static contract
        }
        for message in violations {
            diags.push(
                Diagnostic::error(
                    "SAGE054",
                    format!("function `{}` (kernel `{}`): {message}", f.name, f.function),
                )
                .with_note("the kernel would reject this invocation or panic at run time")
                .with_span_opt(spans.and_then(|s| s.block(&f.name))),
            );
        }
    }
}
