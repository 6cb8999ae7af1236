//! Pipeline-safety analysis: static per-buffer depth proofs.
//!
//! The executor's pipeline-validate mode runs `d` iterations in flight by
//! giving every logical buffer and hand-off a `d`-slot ring (slot =
//! iteration mod `d`). That is bit-identical to lock-step execution *iff*
//! no ring slot is overwritten while an earlier iteration's payload is
//! still unconsumed. This pass proves, per buffer, the largest `d` for
//! which that holds, without executing anything:
//!
//! * a same-iteration arc (`delay == 0`) is produced and consumed inside
//!   the same iteration of the schedule walk, so its ring never aliases
//!   live data — safe at **any** depth;
//! * a `delay k > 0` arc crosses the iteration boundary: iteration `i`
//!   consumes the payload produced in iteration `i - k`, so with two or
//!   more iterations in flight the producer's next payload lands in (or
//!   races with) a slot the consumer has not yet drained. The safe depths
//!   for such an arc are not downward-closed past 1, so the proof caps the
//!   buffer at depth **1** (lock-step). When the arc closes a feedback
//!   cycle the whole cycle serialises (`SAGE061`); otherwise it is a plain
//!   cross-iteration write-after-read hazard (`SAGE060`).
//!
//! Depth also costs memory: `d` iterations in flight scale every node's
//! live-buffer peak by ~`d` (each buffer holds a `d`-slot ring). The pass
//! reuses [`memory::node_peaks`] to find the deepest ring that still fits
//! the hardware model's DRAM, reporting depth-infeasible requests as
//! `SAGE062`.
//!
//! The result is a [`PipelinePlan`] artifact (exported as `sage pipeline
//! --format json`'s `"plan"`), consumed by `sage pipeline`, the fuzz
//! harness's pipelined scheduling axis, and `sage run
//! --pipeline-validate`.

use crate::order::Order;
use crate::{buffer_label, memory, BufferPlans, Checker};
use sage_lint::{Diagnostic, Diagnostics, JsonWriter};
use sage_model::HardwareSpec;
use sage_runtime::{GlueProgram, Task};

/// Sentinel depth for "safe at any depth" (no delay arc constrains it).
pub const UNBOUNDED: u32 = u32::MAX;

/// Why a buffer's safe pipeline depth is what it is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DepthLimit {
    /// Same-iteration arc: any ring depth reproduces lock-step semantics.
    Unbounded,
    /// `delay` arc not on a cycle: a cross-iteration write-after-read
    /// hazard at every depth >= 2 caps the buffer at lock-step.
    Hazard {
        /// The arc's iteration delay.
        delay: u32,
    },
    /// `delay` arc closing a feedback cycle: the cycle serialises
    /// iterations, capping the buffer at lock-step.
    Cycle {
        /// Function names around the cycle, first repeated last
        /// (`m -> fbd -> m`).
        path: Vec<String>,
    },
    /// The race pass proved the buffer's ordering depends on the lock-step
    /// iteration boundary (`SAGE072`): pipelining removes that boundary,
    /// capping the buffer at lock-step.
    Race,
}

impl DepthLimit {
    /// Compact single-token encoding used by the JSON plan: `ok`,
    /// `delay:<k>`, `cycle:<a->b->a>`, or `race`.
    pub fn encode(&self) -> String {
        match self {
            DepthLimit::Unbounded => "ok".into(),
            DepthLimit::Hazard { delay } => format!("delay:{delay}"),
            DepthLimit::Cycle { path } => format!("cycle:{}", path.join("->")),
            DepthLimit::Race => "race".into(),
        }
    }
}

/// One buffer's entry in the pipeline plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BufferDepth {
    /// Logical buffer id.
    pub buffer: u32,
    /// Largest pipeline depth proven safe for this buffer
    /// ([`UNBOUNDED`] when nothing constrains it).
    pub safe_depth: u32,
    /// Why.
    pub limit: DepthLimit,
}

/// The proven pipeline-safety artifact for one generated program.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelinePlan {
    /// Application model name.
    pub app_name: String,
    /// Node count the program was generated for.
    pub nodes: u32,
    /// Per-buffer proofs, in buffer-id order.
    pub buffers: Vec<BufferDepth>,
    /// Minimum over the per-buffer caps ([`UNBOUNDED`] if no delay arcs).
    pub hazard_depth: u32,
    /// Deepest ring that fits every node's DRAM, from the same live-range
    /// walk as `SAGE055` scaled by depth ([`UNBOUNDED`] if no node holds
    /// live bytes).
    pub mem_depth: u32,
    /// The overall proof: `min(hazard_depth, mem_depth)`, never below 1.
    pub safe_depth: u32,
}

/// Renders a depth with the [`UNBOUNDED`] sentinel spelled out.
pub fn depth_str(d: u32) -> String {
    if d == UNBOUNDED {
        "unbounded".into()
    } else {
        d.to_string()
    }
}

impl PipelinePlan {
    /// JSON rendering (`UNBOUNDED` depths become `null`).
    pub fn to_json(&self) -> String {
        let depth = |j: &mut JsonWriter, d: u32| {
            if d == UNBOUNDED {
                j.null()
            } else {
                j.number(d)
            }
        };
        let mut j = JsonWriter::default();
        j.object(|j| {
            j.key("app").string(&self.app_name);
            j.key("nodes").number(self.nodes);
            depth(j.key("hazard_depth"), self.hazard_depth);
            depth(j.key("mem_depth"), self.mem_depth);
            depth(j.key("safe_depth"), self.safe_depth);
            j.key("buffers").array(|j| {
                for b in &self.buffers {
                    j.object(|j| {
                        j.key("buffer").number(b.buffer);
                        depth(j.key("safe_depth"), b.safe_depth);
                        j.key("limit").string(&b.limit.encode());
                    });
                }
            });
        });
        j.finish()
    }
}

/// Proves the per-buffer and overall safe pipeline depths for a
/// structurally valid program. `race_capped` lists the buffers the race
/// pass proved depth-conditional (`SAGE072`); each is capped at lock-step
/// with [`DepthLimit::Race`] unless a delay hazard already caps it. Pure
/// analysis — no diagnostics; see [`check`] for the reporting pass.
fn analyze(
    program: &GlueProgram,
    hw: &HardwareSpec,
    order: &Order<'_>,
    peaks: &[(usize, usize)],
    race_capped: &[u32],
) -> PipelinePlan {
    let mut buffers = Vec::with_capacity(program.buffers.len());
    let mut hazard_depth = UNBOUNDED;
    for b in &program.buffers {
        let (safe_depth, limit) = if b.delay == 0 && race_capped.contains(&b.id) {
            (1, DepthLimit::Race)
        } else if b.delay == 0 {
            (UNBOUNDED, DepthLimit::Unbounded)
        } else if let Some(mut path) = order.dataflow_path(b.consumer, b.producer) {
            // Close the cycle through the delay arc itself.
            path.push(b.consumer);
            let name = |f: u32| program.functions[f as usize].name.clone();
            let path = path.into_iter().map(name).collect();
            (1, DepthLimit::Cycle { path })
        } else {
            (1, DepthLimit::Hazard { delay: b.delay })
        };
        hazard_depth = hazard_depth.min(safe_depth);
        buffers.push(BufferDepth {
            buffer: b.id,
            safe_depth,
            limit,
        });
    }

    let caps = hw.capacities();
    let mut mem_depth = UNBOUNDED;
    for (node, &(peak, _)) in peaks.iter().enumerate() {
        if peak == 0 {
            continue;
        }
        let fits = (caps[node].mem_bytes / peak as f64).floor();
        let node_depth = if fits >= UNBOUNDED as f64 {
            UNBOUNDED
        } else {
            (fits as u32).max(1)
        };
        mem_depth = mem_depth.min(node_depth);
    }

    PipelinePlan {
        app_name: program.app_name.clone(),
        nodes: program.node_count() as u32,
        buffers,
        hazard_depth,
        mem_depth,
        safe_depth: hazard_depth.min(mem_depth).max(1),
    }
}

/// The node whose DRAM bounds the pipeline depth, with its lock-step peak
/// bytes, the slot the peak occurs at, and its capacity.
fn limiting_node(
    hw: &HardwareSpec,
    peaks: &[(usize, usize)],
) -> Option<(usize, usize, usize, f64)> {
    let caps = hw.capacities();
    peaks
        .iter()
        .enumerate()
        .filter(|&(_, &(peak, _))| peak > 0)
        .map(|(node, &(peak, slot))| (node, peak, slot, caps[node].mem_bytes))
        .min_by(|a, b| (a.3 / a.1 as f64).total_cmp(&(b.3 / b.1 as f64)))
}

/// Runs the pipeline-safety pass: proves the [`PipelinePlan`] and reports
/// `SAGE060` (cross-iteration WAR hazard), `SAGE061` (feedback cycle
/// forces lock-step), and `SAGE062` (depth-infeasible memory: `requested`
/// — or even double-buffering — does not fit the hardware model's DRAM).
pub(crate) fn check(
    cx: &Checker<'_>,
    plans: &BufferPlans,
    order: &Order<'_>,
    race_capped: &[u32],
    requested: Option<u32>,
    diags: &mut Diagnostics,
) -> PipelinePlan {
    let (program, hw, spans) = (cx.program, cx.hw, cx.spans);
    let peaks = memory::node_peaks(program, plans, order);
    let plan = analyze(program, hw, order, &peaks, race_capped);

    for (b, bd) in program.buffers.iter().zip(&plan.buffers) {
        // Only delay arcs report here; race caps carry their own `SAGE072`
        // from the race pass.
        if matches!(bd.limit, DepthLimit::Unbounded | DepthLimit::Race) {
            continue;
        }
        let label = buffer_label(program, b.id);
        // Name one concrete endpoint pair: the first planned one.
        let (pi, cj) = order
            .syncs
            .iter()
            .find(|e| e.buffer == b.id)
            .map_or((0, 0), |e| {
                (order.task(e.from).thread, order.task(e.to).thread)
            });
        let producer = program.task_path(Task {
            fn_id: b.producer,
            thread: pi,
        });
        let consumer = program.task_path(Task {
            fn_id: b.consumer,
            thread: cj,
        });
        let span = spans.and_then(|s| {
            s.block(&program.functions[b.producer as usize].name)
                .or_else(|| s.block(&program.functions[b.consumer as usize].name))
        });
        match &bd.limit {
            DepthLimit::Unbounded | DepthLimit::Race => {}
            DepthLimit::Hazard { delay } => diags.push(
                Diagnostic::warning(
                    "SAGE060",
                    format!(
                        "cross-iteration write-after-read hazard on {label}: \
                         with two or more iterations in flight, {producer} \
                         overwrites the `delay {delay}` ring slot before \
                         {consumer} drains the earlier iteration's payload"
                    ),
                )
                .with_note(
                    "the pipeline pass caps this buffer's safe depth at 1 \
                     (lock-step); deeper runs corrupt silently or fail as \
                     TransferFailed",
                )
                .with_span_opt(span),
            ),
            DepthLimit::Cycle { path } => diags.push(
                Diagnostic::warning(
                    "SAGE061",
                    format!(
                        "feedback cycle `{}` forces lock-step execution: \
                         {label} carries `delay {}` state around the cycle, \
                         so iteration i+1 cannot enter the pipeline before \
                         iteration i retires",
                        path.join(" -> "),
                        b.delay
                    ),
                )
                .with_note(format!(
                    "delay arc endpoints: {producer} -> {consumer}; safe \
                     pipeline depth is 1"
                ))
                .with_span_opt(span),
            ),
        }
    }

    let infeasible = match requested {
        Some(want) => want > plan.mem_depth,
        // Unrequested: flag programs that fit lock-step but cannot even
        // double-buffer (a lock-step overflow is already `SAGE055`).
        None => plan.mem_depth < 2 && plan.hazard_depth >= 2,
    };
    if infeasible {
        if let Some((node, peak, peak_slot, cap)) = limiting_node(hw, &peaks) {
            if (peak as f64) <= cap {
                let want = requested.unwrap_or(2);
                let fname = program.schedules[node]
                    .get(peak_slot)
                    .map(|t| program.functions[t.fn_id as usize].name.as_str());
                diags.push(
                    Diagnostic::warning(
                        "SAGE062",
                        format!(
                            "pipeline depth {want} is memory-infeasible: node \
                             {node}'s predicted lock-step peak of {peak} live \
                             bytes scales to ~{} bytes of {want}-slot rings, \
                             exceeding the hardware model's {cap:.0} bytes of \
                             DRAM",
                            peak.saturating_mul(want as usize)
                        ),
                    )
                    .with_note(format!(
                        "the deepest ring that fits every node is depth {}",
                        depth_str(plan.mem_depth)
                    ))
                    .with_span_opt(spans.and_then(|s| fname.and_then(|f| s.block(f)))),
                );
            }
        }
    }

    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> PipelinePlan {
        PipelinePlan {
            app_name: "demo".into(),
            nodes: 4,
            buffers: vec![
                BufferDepth {
                    buffer: 0,
                    safe_depth: UNBOUNDED,
                    limit: DepthLimit::Unbounded,
                },
                BufferDepth {
                    buffer: 1,
                    safe_depth: 1,
                    limit: DepthLimit::Hazard { delay: 2 },
                },
                BufferDepth {
                    buffer: 2,
                    safe_depth: 1,
                    limit: DepthLimit::Cycle {
                        path: vec!["m".into(), "fbd".into(), "m".into()],
                    },
                },
                BufferDepth {
                    buffer: 3,
                    safe_depth: 1,
                    limit: DepthLimit::Race,
                },
            ],
            hazard_depth: 1,
            mem_depth: 7,
            safe_depth: 1,
        }
    }

    #[test]
    fn json_escapes_names_from_the_model() {
        // App and block names are model text: quote, backslash, newline,
        // tab and a control byte must all come out as JSON escapes.
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let escaped = r#"a\"b\\c\nd\te\u0001f"#;
        let mut p = plan();
        p.app_name = nasty.into();
        p.buffers[2].limit = DepthLimit::Cycle {
            path: vec![nasty.into(), "m".into()],
        };
        let j = p.to_json();
        assert!(j.starts_with(&format!("{{\"app\":\"{escaped}\",")), "{j}");
        assert!(
            j.contains(&format!("\"limit\":\"cycle:{escaped}->m\"")),
            "{j}"
        );
        assert!(!j.contains(['\n', '\t', '\u{1}']), "{j:?}");
    }

    #[test]
    fn json_spells_unbounded_as_null() {
        let j = plan().to_json();
        assert!(j.contains("\"hazard_depth\":1"));
        assert!(j.contains("\"safe_depth\":null"), "{j}");
        assert!(j.contains("cycle:m->fbd->m"));
    }
}
