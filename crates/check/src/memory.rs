//! Per-node capacity feasibility: memory high-water-mark and bandwidth.
//!
//! Walks each node's schedule over one symbolic iteration under the
//! shared-buffer scheme (the documented lower bound on any scheme): a
//! task's working set is its input and output stripes, and a same-node
//! hand-off stays live from the slot that produces it to the slot that
//! consumes it. The peak of that walk against the hardware model's DRAM is
//! `SAGE055`; the per-iteration wire time of a node's off-node
//! redistribution traffic against the link capacities is `SAGE056`.

use crate::order::Order;
use crate::{buffer_label, BufferPlans, Checker};
use sage_lint::{Diagnostic, Diagnostics};
use sage_runtime::{GlueProgram, Layout};

/// Per-iteration wire-time budget per node. A node whose redistribution
/// traffic alone takes longer than this per data set cannot meet any
/// real-time rate the paper's applications run at; the fabric, not
/// computation, is the bound.
pub const COMM_FEASIBLE_SECS: f64 = 0.1;

/// Per-node predicted memory high-water marks: for each node, the peak
/// live bytes over its schedule and the slot where the peak occurs.
///
/// The walk is the one documented on this module: a task's working set is
/// its input and output stripes, and a same-node hand-off stays live from
/// the slot that produces it to the slot that consumes it. The figure is a
/// lower bound for any buffer scheme — which is exactly why the executor's
/// measured `mem_high_water` must never exceed it.
pub(crate) fn node_peaks(
    program: &GlueProgram,
    plans: &BufferPlans,
    order: &Order<'_>,
) -> Vec<(usize, usize)> {
    // Same-node hand-off live ranges: node -> (producer slot, consumer
    // slot, bytes).
    let mut handoffs: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); program.node_count()];
    // `delay` arcs cross the iteration boundary: their payloads stay live
    // from one iteration into the next, so they are resident at every slot
    // (a d-deep delay keeps d payloads in flight at once).
    let mut resident: Vec<usize> = vec![0; program.node_count()];
    for e in &order.syncs {
        let ((node, ps), (dst_node, cs)) = (order.at(e.from), order.at(e.to));
        if node != dst_node {
            continue;
        }
        if e.delay > 0 {
            resident[node] += e.bytes * e.delay as usize;
        } else {
            handoffs[node].push((ps, cs, e.bytes));
        }
    }

    program
        .schedules
        .iter()
        .enumerate()
        .map(|(node, sched)| {
            let mut peak = 0usize;
            let mut peak_slot = 0usize;
            for (slot, &task) in sched.iter().enumerate() {
                let f = &program.functions[task.fn_id as usize];
                let tid = task.thread as usize;
                let mut live = resident[node];
                for &bid in f.inputs.iter() {
                    if let Some(plan) = &plans[bid as usize] {
                        live += plan.dst.get(tid).map(Layout::len).unwrap_or(0);
                    }
                }
                for &bid in f.outputs.iter() {
                    if let Some(plan) = &plans[bid as usize] {
                        live += plan.src.get(tid).map(Layout::len).unwrap_or(0);
                    }
                }
                for &(ps, cs, bytes) in &handoffs[node] {
                    if ps < slot && slot < cs {
                        live += bytes;
                    }
                }
                if live > peak {
                    peak = live;
                    peak_slot = slot;
                }
            }
            (peak, peak_slot)
        })
        .collect()
}

/// Checks per-node memory high-water-marks (`SAGE055`) and bandwidth
/// feasibility (`SAGE056`) against the hardware model.
pub(crate) fn check(
    cx: &Checker<'_>,
    plans: &BufferPlans,
    order: &Order<'_>,
    diags: &mut Diagnostics,
) {
    let (program, hw, spans) = (cx.program, cx.hw, cx.spans);
    let caps = hw.capacities();
    let flat = hw.flatten();

    // Cross-node wire seconds and bytes charged to every node the link
    // touches.
    let mut wire_secs = vec![0.0f64; program.node_count()];
    let mut wire_bytes = vec![0usize; program.node_count()];

    for e in &order.syncs {
        let (src_node, dst_node) = order.nodes(e);
        if src_node != dst_node {
            let secs = hw
                .link_between(&flat[src_node], &flat[dst_node])
                .transfer_secs(e.bytes);
            for node in [src_node, dst_node] {
                wire_secs[node] += secs;
                wire_bytes[node] += e.bytes;
            }
        }
    }

    let peaks = node_peaks(program, plans, order);
    for (node, sched) in program.schedules.iter().enumerate() {
        if sched.is_empty() {
            continue;
        }
        let (peak, peak_slot) = peaks[node];
        let cap = caps[node].mem_bytes;
        if peak as f64 > cap {
            let at = program.task_path(sched[peak_slot]);
            let fname = &program.functions[sched[peak_slot].fn_id as usize].name;
            diags.push(
                Diagnostic::error(
                    "SAGE055",
                    format!(
                        "node {node}: peak live buffer bytes ({peak}) exceed \
                         the hardware model's {:.0} bytes of DRAM",
                        cap
                    ),
                )
                .with_note(format!("high-water mark while executing {at}"))
                .with_note(
                    "counted as task working stripes plus pending same-node \
                     hand-offs over one iteration (a lower bound for any \
                     buffer scheme)",
                )
                .with_span_opt(spans.and_then(|s| s.block(fname))),
            );
        }
    }

    for node in 0..program.node_count() {
        if wire_secs[node] > COMM_FEASIBLE_SECS {
            // Name the heaviest buffer through this node to point somewhere
            // actionable.
            let heaviest = heaviest_buffer(order, plans.len(), node);
            let mut d = Diagnostic::warning(
                "SAGE056",
                format!(
                    "node {node}: estimated per-iteration redistribution wire \
                     time {:.3} s ({} bytes on and off the node) exceeds the \
                     {COMM_FEASIBLE_SECS} s feasibility budget",
                    wire_secs[node], wire_bytes[node]
                ),
            )
            .with_note(
                "the fabric, not computation, bounds the achievable iteration \
                 rate; restripe or re-place to keep traffic on-node",
            );
            if let Some(bid) = heaviest {
                d = d.with_note(format!(
                    "largest contributor: {}",
                    buffer_label(program, bid)
                ));
            }
            diags.push(d);
        }
    }
}

/// The buffer moving the most cross-node bytes through `node`, if any
/// (the lowest id on a tie).
fn heaviest_buffer(order: &Order<'_>, buffers: usize, node: usize) -> Option<u32> {
    let mut through = vec![0usize; buffers];
    for e in &order.syncs {
        let (src, dst) = order.nodes(e);
        if src != dst && (src == node || dst == node) {
            through[e.buffer as usize] += e.bytes;
        }
    }
    let heaviest = (0..through.len()).rev().max_by_key(|&bid| through[bid])?;
    (through[heaviest] > 0).then_some(heaviest as u32)
}
