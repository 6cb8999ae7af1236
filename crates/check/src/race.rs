//! Static happens-before race proofs over generated glue programs.
//!
//! The model layer allows fan-in: several producers may feed one input
//! port. Whether that is *safe* is a property of the generated program —
//! which threads write which byte regions of the port, and whether the
//! transfer ledger orders them. This pass proves it without executing
//! anything, mirroring exactly the happens-before relation the run-time's
//! vector-clock detector (`sage run --race-detect`) observes:
//!
//! * **program order** — each node walks its schedule serially, so slot
//!   `k` of iteration `i` precedes slot `k+1` of iteration `i`, and (in
//!   lock-step execution) the last slot of iteration `i` precedes the
//!   first slot of iteration `i+1`;
//! * **synchronization order** — a matched transfer orders the producing
//!   task's write before the consuming task's read `delay` iterations
//!   later, exactly where the detector joins clocks on a mailbox
//!   hand-off. There are **no** global iteration barriers: two nodes are
//!   ordered only through chains of transfers.
//!
//! Accesses are per `(consumer function, input-port group, version)`: a
//! write of buffer `b` at producer iteration `s` lands on port version
//! `s + delay_b`; a read at consumer iteration `t` reads version `t`.
//! Byte regions come from the same [`Redistribution`] plans the executor
//! follows. Two overlapping accesses to one version with at least one
//! writer and no happens-before path between them are a race:
//!
//! * `SAGE070` — write/write, both task paths named (error);
//! * `SAGE071` — read/write (error);
//! * `SAGE072` — ordered in lock-step, but only through an
//!   iteration-boundary (wraparound) edge that pipelined execution
//!   removes: the race is depth-conditional, so the involved buffers'
//!   safe pipeline depth is capped at 1 (warning);
//! * `SAGE073` — unordered write/write where both writers are the same
//!   generator with the same parameters splatting identical regions: a
//!   benign same-value splat (warning). The dynamic detector applies the
//!   same exemption by content hash.
//!
//! [`Redistribution`]: sage_runtime::Redistribution

use crate::order::Order;
use crate::{buffer_label, BufferPlans, Checker};
use sage_lint::{Diagnostic, Diagnostics, JsonWriter};
use sage_runtime::race::{overlaps, union_intervals};
use sage_runtime::{GlueProgram, Task};
use std::collections::HashMap;

/// One verified race (or depth hazard) between two accesses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceFinding {
    /// Diagnostic code: `SAGE070`..`SAGE073`.
    pub code: &'static str,
    /// The contested port, as `consumer.port`.
    pub port: String,
    /// One access, as `write/read by <task path> at iteration N`.
    pub first: String,
    /// The other access, same form.
    pub second: String,
    /// Logical buffers written by the racing accesses.
    pub buffers: Vec<u32>,
    /// How many thread pairs collapsed into this finding (the named pair
    /// plus `pairs - 1` analogous ones).
    pub pairs: usize,
}

/// The proven happens-before analysis of one program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceAnalysis {
    /// Happens-before graph size: one position per scheduled task.
    pub positions: usize,
    /// Synchronization edges (matched transfer pairs) in the graph.
    pub sync_edges: usize,
    /// Buffers whose safe pipeline depth is capped at 1 by a `SAGE072`
    /// depth-conditional ordering (sorted, deduplicated).
    pub capped: Vec<u32>,
    /// All findings, deterministic order.
    pub findings: Vec<RaceFinding>,
}

impl RaceAnalysis {
    /// JSON rendering of the artefact's sizes (`sage race --format json`);
    /// the findings themselves travel as diagnostics.
    pub fn to_json(&self) -> String {
        let mut j = JsonWriter::default();
        j.object(|j| {
            j.key("positions").number(self.positions);
            j.key("sync_edges").number(self.sync_edges);
            j.key("capped").array(|j| {
                for &buffer in &self.capped {
                    j.number(buffer);
                }
            });
            j.key("findings").number(self.findings.len());
        });
        j.finish()
    }

    /// `true` when no error-severity race was found (`SAGE070`/`SAGE071`).
    pub fn is_clean(&self) -> bool {
        !self
            .findings
            .iter()
            .any(|f| f.code == "SAGE070" || f.code == "SAGE071")
    }
}

/// One access to a port version, at the representative version `t*`.
struct Access {
    write: bool,
    task: Task,
    pos: usize,
    /// Iteration of the accessing task at the representative version.
    iter: i64,
    region: Vec<(usize, usize)>,
    /// The written buffer (`None` for reads).
    buffer: Option<u32>,
    /// Producer function id (for the benign-splat classification).
    producer: u32,
}

fn describe(program: &GlueProgram, a: &Access) -> String {
    format!(
        "{} by {} at iteration {}",
        if a.write { "write" } else { "read" },
        program.task_path(a.task),
        a.iter
    )
}

/// Proves the happens-before relation and scans every input-port group for
/// conflicting access pairs. Pure analysis — no diagnostics; see [`check`]
/// for the reporting pass.
pub(crate) fn analyze(
    program: &GlueProgram,
    plans: &BufferPlans,
    order: &Order<'_>,
) -> RaceAnalysis {
    // Lock-step order keeps each node's wraparound edge (the next
    // iteration's walk); product order drops it — with several iterations
    // in flight, the only same-node guarantee left is slot order within an
    // iteration. Both carry every sync edge: a matched transfer of buffer
    // `b` orders the producer thread's write at iteration `s` before the
    // consumer thread's read at iteration `s + delay`.
    let hb_lock = order.closure(true);
    let hb_prod = order.closure(false);

    // ---- Access sets per (function, input-port group) ---------------
    let mut findings: Vec<RaceFinding> = Vec::new();
    let mut capped: Vec<u32> = Vec::new();
    // Dedup: one finding per (code, port, producer pair); later pairs
    // only bump the count.
    let mut seen: HashMap<(&'static str, String, u32, u32), usize> = HashMap::new();
    for f in &program.functions {
        // Group inputs by consumer port, first-appearance order.
        let mut groups: Vec<(&str, Vec<u32>)> = Vec::new();
        for &bid in &f.inputs {
            let b = &program.buffers[bid as usize];
            if b.consumer != f.id || plans[bid as usize].is_none() {
                continue; // mis-wired or degenerate: reported elsewhere
            }
            match groups.iter_mut().find(|(p, _)| *p == b.consumer_port) {
                Some((_, v)) => v.push(bid),
                None => groups.push((&b.consumer_port, vec![bid])),
            }
        }
        for (port, buffers) in groups {
            let port_label = format!("{}.{port}", f.name);
            // Representative version: every producer iteration
            // `t* - delay` is non-negative, and pairwise iteration
            // distances are invariant under the choice of version.
            let t_star = buffers
                .iter()
                .map(|&bid| program.buffers[bid as usize].delay as i64)
                .max()
                .unwrap_or(0);
            let mut accesses: Vec<Access> = Vec::new();
            for &bid in &buffers {
                let b = &program.buffers[bid as usize];
                let plan = plans[bid as usize].as_ref().expect("filtered above");
                for (i, row) in plan.pairs.iter().enumerate() {
                    let region = union_intervals(row.iter().map(|iv| iv.as_slice()));
                    if region.is_empty() {
                        continue;
                    }
                    let task = Task {
                        fn_id: b.producer,
                        thread: i as u32,
                    };
                    let Some(pos) = order.position(task) else {
                        continue;
                    };
                    accesses.push(Access {
                        write: true,
                        task,
                        pos,
                        iter: t_star - b.delay as i64,
                        region,
                        buffer: Some(bid),
                        producer: b.producer,
                    });
                }
            }
            let first_plan = plans[buffers[0] as usize].as_ref().expect("filtered above");
            for j in 0..first_plan.dst.len() {
                let region = union_intervals(
                    buffers
                        .iter()
                        .filter_map(|&bid| plans[bid as usize].as_ref())
                        .map(|p| p.dst[j].runs()),
                );
                if region.is_empty() {
                    continue;
                }
                let task = Task {
                    fn_id: f.id,
                    thread: j as u32,
                };
                let Some(pos) = order.position(task) else {
                    continue;
                };
                accesses.push(Access {
                    write: false,
                    task,
                    pos,
                    iter: t_star,
                    region,
                    buffer: None,
                    producer: f.id,
                });
            }

            // ---- Conflict scan --------------------------------------
            for (ai, a) in accesses.iter().enumerate() {
                for b in &accesses[ai + 1..] {
                    if !(a.write || b.write) || a.task == b.task {
                        continue;
                    }
                    if !overlaps(&a.region, &b.region) {
                        continue;
                    }
                    let code = if !hb_lock.ordered(a.pos, a.iter, b.pos, b.iter) {
                        if a.write && b.write {
                            let benign = program.functions[a.producer as usize].function
                                == program.functions[b.producer as usize].function
                                && program.functions[a.producer as usize].params
                                    == program.functions[b.producer as usize].params
                                && a.region == b.region;
                            if benign {
                                "SAGE073"
                            } else {
                                "SAGE070"
                            }
                        } else {
                            "SAGE071"
                        }
                    } else if !hb_prod.ordered(a.pos, a.iter, b.pos, b.iter) {
                        for bid in [a.buffer, b.buffer].into_iter().flatten() {
                            if !capped.contains(&bid) {
                                capped.push(bid);
                            }
                        }
                        "SAGE072"
                    } else {
                        continue;
                    };
                    let (plo, phi) = if a.producer <= b.producer {
                        (a.producer, b.producer)
                    } else {
                        (b.producer, a.producer)
                    };
                    let key = (code, port_label.clone(), plo, phi);
                    if let Some(&idx) = seen.get(&key) {
                        findings[idx].pairs += 1;
                        continue;
                    }
                    let (mut first, mut second) = (describe(program, a), describe(program, b));
                    if second < first {
                        std::mem::swap(&mut first, &mut second);
                    }
                    let mut bufs: Vec<u32> = [a.buffer, b.buffer].into_iter().flatten().collect();
                    bufs.sort_unstable();
                    bufs.dedup();
                    seen.insert(key, findings.len());
                    findings.push(RaceFinding {
                        code,
                        port: port_label.clone(),
                        first,
                        second,
                        buffers: bufs,
                        pairs: 1,
                    });
                }
            }
        }
    }
    capped.sort_unstable();
    RaceAnalysis {
        positions: order.len(),
        sync_edges: order.syncs.len(),
        capped,
        findings,
    }
}

/// Reports a proven analysis as `SAGE070`..`SAGE073` diagnostics.
pub(crate) fn report(cx: &Checker<'_>, analysis: &RaceAnalysis, diags: &mut Diagnostics) {
    let (program, spans) = (cx.program, cx.spans);
    for f in &analysis.findings {
        let labels = f
            .buffers
            .iter()
            .map(|&bid| buffer_label(program, bid))
            .collect::<Vec<_>>()
            .join(", ");
        let span = spans.and_then(|s| {
            f.buffers.first().and_then(|&bid| {
                let b = &program.buffers[bid as usize];
                s.block(&program.functions[b.producer as usize].name)
                    .or_else(|| s.block(&program.functions[b.consumer as usize].name))
            })
        });
        let more = match f.pairs {
            0 | 1 => String::new(),
            2 => " (and 1 analogous thread pair)".to_owned(),
            n => format!(" (and {} analogous thread pairs)", n - 1),
        };
        let diag = match f.code {
            "SAGE070" => Diagnostic::error(
                f.code,
                format!(
                    "write/write race on `{}`: {} and {} have no happens-before \
                     ordering{more}; involved: {labels}",
                    f.port, f.first, f.second
                ),
            )
            .with_note(
                "the port's bytes depend on arrival order; the run-time's \
                 vector-clock detector (`sage run --race-detect`) fails this \
                 program with RaceDetected",
            ),
            "SAGE071" => Diagnostic::error(
                f.code,
                format!(
                    "read/write race on `{}`: {} and {} have no happens-before \
                     ordering{more}; involved: {labels}",
                    f.port, f.first, f.second
                ),
            )
            .with_note(
                "the reader may observe a partly written port version; no \
                 transfer chain orders these tasks",
            ),
            "SAGE072" => Diagnostic::warning(
                f.code,
                format!(
                    "depth-conditional ordering on `{}`: {} and {} are ordered \
                     only by the lock-step iteration boundary{more}; involved: \
                     {labels}",
                    f.port, f.first, f.second
                ),
            )
            .with_note(
                "pipelined execution interleaves iterations and removes that \
                 boundary, so the involved buffers' safe pipeline depth is \
                 capped at 1",
            ),
            _ => Diagnostic::warning(
                f.code,
                format!(
                    "benign same-value splat on `{}`: {} and {} are unordered \
                     but identical generators over identical regions{more}; \
                     involved: {labels}",
                    f.port, f.first, f.second
                ),
            )
            .with_note(
                "either arrival order leaves the same bytes; the dynamic \
                 detector exempts byte-identical splats by content hash",
            ),
        };
        diags.push(diag.with_span_opt(span));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure;
    use sage_model::{Properties, Striping};
    use sage_runtime::{FnRole, FunctionDescriptor, GlueProgram, LogicalBufferDesc};

    /// Function `id`, `name`, running `function` on two threads, one per
    /// node, with no ports: the base every test's descriptors update.
    fn mk_fn(id: u32, name: &str, function: &str, role: FnRole) -> FunctionDescriptor {
        FunctionDescriptor {
            id,
            name: name.into(),
            function: function.into(),
            role,
            threads: 2,
            placement: vec![0, 1],
            flops: 0.0,
            mem_bytes: 0.0,
            inputs: vec![],
            outputs: vec![],
            params: Properties::new(),
        }
    }

    fn mk_buf(
        id: u32,
        producer: u32,
        consumer: u32,
        send: Striping,
        recv: Striping,
        delay: u32,
    ) -> LogicalBufferDesc {
        LogicalBufferDesc {
            id,
            producer,
            producer_port: "out".into(),
            consumer,
            consumer_port: "in".into(),
            shape: vec![4, 4],
            elem_bytes: 1,
            send_striping: send,
            recv_striping: recv,
            delay,
        }
    }

    /// Two 2-threaded sources (rows-striped and cols-striped) fan into one
    /// sink port on 2 nodes: cross-node overlapping writes, no ordering.
    fn racy_program() -> GlueProgram {
        GlueProgram {
            app_name: "racy".into(),
            functions: vec![
                FunctionDescriptor {
                    outputs: vec![0],
                    ..mk_fn(0, "a", "fill.a", FnRole::Source)
                },
                FunctionDescriptor {
                    outputs: vec![1],
                    ..mk_fn(1, "b", "fill.b", FnRole::Source)
                },
                FunctionDescriptor {
                    inputs: vec![0, 1],
                    ..mk_fn(2, "snk", "sink.null", FnRole::Sink)
                },
            ],
            buffers: vec![
                mk_buf(0, 0, 2, Striping::BY_ROWS, Striping::BY_ROWS, 0),
                mk_buf(1, 1, 2, Striping::BY_COLS, Striping::BY_ROWS, 0),
            ],
            schedules: (0..2)
                .map(|t| {
                    [0u32, 1, 2]
                        .iter()
                        .map(|&fn_id| Task { fn_id, thread: t })
                        .collect()
                })
                .collect(),
        }
    }

    fn run(program: &GlueProgram) -> RaceAnalysis {
        let mut diags = sage_lint::Diagnostics::new();
        let plans = structure::plan_buffers(program, None, &mut diags);
        assert_eq!(diags.error_count(), 0);
        analyze(program, &plans, &Order::new(program, &plans))
    }

    #[test]
    fn fan_in_overlapping_writes_race() {
        let analysis = run(&racy_program());
        assert!(!analysis.is_clean());
        let f = analysis
            .findings
            .iter()
            .find(|f| f.code == "SAGE070")
            .expect("write/write race");
        assert_eq!(f.port, "snk.in");
        // Both task paths named.
        assert!(f.first.contains("`a[") || f.second.contains("`a["), "{f:?}");
        assert!(f.first.contains("`b[") || f.second.contains("`b["), "{f:?}");
    }

    #[test]
    fn single_writer_chain_is_clean() {
        let program = GlueProgram {
            app_name: "clean".into(),
            functions: vec![
                FunctionDescriptor {
                    outputs: vec![0],
                    ..mk_fn(0, "src", "fill.a", FnRole::Source)
                },
                FunctionDescriptor {
                    inputs: vec![0],
                    ..mk_fn(1, "snk", "sink.null", FnRole::Sink)
                },
            ],
            buffers: vec![mk_buf(0, 0, 1, Striping::BY_ROWS, Striping::BY_COLS, 0)],
            schedules: (0..2)
                .map(|t| {
                    [0u32, 1]
                        .iter()
                        .map(|&fn_id| Task { fn_id, thread: t })
                        .collect()
                })
                .collect(),
        };
        let analysis = run(&program);
        assert!(analysis.is_clean());
        assert!(analysis.findings.is_empty(), "{:?}", analysis.findings);
        assert!(analysis.positions > 0 && analysis.sync_edges > 0);
    }

    #[test]
    fn identical_generators_are_benign_splat() {
        let mut program = racy_program();
        // Same kernel, same params, and identical (replicated) regions.
        program.functions[1].function = "fill.a".into();
        program.buffers[0].send_striping = Striping::Replicated;
        program.buffers[0].recv_striping = Striping::Replicated;
        program.buffers[1].send_striping = Striping::Replicated;
        program.buffers[1].recv_striping = Striping::Replicated;
        // Put the two transmitting threads (`a[0]`, `b[0]`) on different
        // nodes so nothing orders their writes.
        program.functions[1].placement = vec![1, 0];
        program.schedules = vec![
            vec![
                Task {
                    fn_id: 0,
                    thread: 0,
                },
                Task {
                    fn_id: 1,
                    thread: 1,
                },
                Task {
                    fn_id: 2,
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
                    thread: 0,
                },
                Task {
                    fn_id: 2,
                    thread: 1,
                },
            ],
        ];
        let analysis = run(&program);
        assert!(analysis.is_clean());
        assert!(
            analysis.findings.iter().any(|f| f.code == "SAGE073"),
            "{:?}",
            analysis.findings
        );
    }

    /// `sage pipeline` builds the race proof only when a `delay` arc lets
    /// it cap a buffer: without one its caps are empty, and the two
    /// happens-before closures it costs are never built.
    #[test]
    fn the_pipeline_pass_proves_races_only_with_a_delay_arc() {
        let hw = sage_model::HardwareShelf::cspi_with_nodes(2);
        let mut program = racy_program();
        for delay in [0, 1] {
            program.buffers[1].delay = delay;
            let checker = crate::Checker::new(&program, &hw, None);
            assert!(checker.pipeline(None).0.is_some(), "delay {delay}");
            assert_eq!(checker.races.get().is_some(), delay > 0, "delay {delay}");
        }
    }

    #[test]
    fn delay_mismatch_is_depth_conditional() {
        // Two writers into one port, one arc delayed: within lock-step the
        // iteration boundary orders them, pipelining does not.
        let mut program = racy_program();
        program.buffers[1].delay = 1;
        // Make both writers same-node single-thread so the only ordering is
        // the schedule walk.
        for f in &mut program.functions {
            f.threads = 1;
            f.placement = vec![0];
        }
        program.schedules = vec![
            [0u32, 1, 2]
                .iter()
                .map(|&fn_id| Task { fn_id, thread: 0 })
                .collect(),
            Vec::new(),
        ];
        for b in &mut program.buffers {
            b.send_striping = Striping::Replicated;
            b.recv_striping = Striping::Replicated;
        }
        let analysis = run(&program);
        assert!(analysis.is_clean(), "{:?}", analysis.findings);
        let f = analysis
            .findings
            .iter()
            .find(|f| f.code == "SAGE072")
            .expect("depth-conditional finding");
        assert!(!analysis.capped.is_empty());
        assert!(f.buffers.iter().any(|b| analysis.capped.contains(b)));
    }
}
