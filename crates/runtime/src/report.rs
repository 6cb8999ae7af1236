//! How a run reads back: one record per rank, one merge, one outcome.
//!
//! The paper collects per-node probe data and merges it for the Visualizer
//! the same way on every target (§3.3). Here every backend ends the same
//! way too: each rank's run — a thread of the in-process cluster or a
//! `sage fleet` daemon across a TCP mesh — is one [`RankReport`], and
//! [`Execution::merge`] folds the ranks' reports into the one
//! [`Execution`] every caller reads. The root-cause rule for a failed run
//! lives in that function and nowhere else.

use crate::executor::{Deposit, RankOutcome, StreamStats};
use crate::function::RuntimeError;
use crate::glue::{FnRole, GlueProgram};
use crate::striping::{stripe_fault, Layout};
use sage_fabric::{FabricMetrics, LinkMetrics, NodeMetrics, Payload, RunReport};
use sage_visualizer::{ProbeEvent, Trace};
use std::collections::HashMap;
use std::time::Duration;

/// What one rank produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RankReport {
    /// The reporting rank.
    pub rank: u32,
    /// The run error, if the rank failed.
    pub error: Option<RuntimeError>,
    /// Sink deposits made on this rank: `(fn_id, iteration, thread)` ->
    /// stripe bytes.
    pub deposits: Vec<Deposit>,
    /// Wall-clock seconds this rank spent executing the program.
    pub wall_secs: f64,
    /// This rank's traffic counters.
    pub metrics: NodeMetrics,
    /// Wire counters for each outgoing link of this rank (empty on the
    /// in-process fabric, which moves payloads by pointer).
    pub links: Vec<LinkMetrics>,
    /// This rank's probe lane: its events in recording order, which is time
    /// order (empty unless probes were on).
    pub events: Vec<ProbeEvent>,
    /// Streaming credit counters (zero outside streaming mode).
    pub stream: StreamStats,
}

impl RankReport {
    /// The report of a rank whose executor returned `outcome`: its deposits
    /// and credit counters, or its error alone. Wall time, traffic counters
    /// and events come from the rank's clock, transport and probe lane, not
    /// from the executor's outcome — they start zeroed, for the caller to
    /// fill in.
    pub fn new(rank: u32, outcome: Result<RankOutcome, RuntimeError>) -> RankReport {
        let (error, outcome) = match outcome {
            Ok(outcome) => (None, outcome),
            Err(e) => (Some(e), RankOutcome::default()),
        };
        RankReport {
            rank,
            error,
            deposits: outcome.deposits,
            wall_secs: 0.0,
            metrics: NodeMetrics::default(),
            links: Vec::new(),
            events: Vec::new(),
            stream: outcome.stream,
        }
    }
}

/// The outcome of executing a glue program, on any backend.
#[derive(Debug)]
pub struct Execution {
    /// Fabric-level report: per-rank traffic counters, per-link wire
    /// counters, wall time, and the virtual makespan (0 on real clocks).
    pub report: RunReport,
    /// Visualizer trace: each rank's lane, as the rank recorded it (empty
    /// unless probes were enabled).
    pub trace: Trace,
    /// Sink deposits.
    pub results: SinkResults,
    /// Iterations executed.
    pub iterations: u32,
    /// Streaming-executor credit counters, summed over ranks (all zero in
    /// lock-step and pipeline-validate modes).
    pub stream: StreamStats,
    /// Per-rank wall seconds spent inside the executor.
    pub rank_walls: Vec<f64>,
}

impl Execution {
    /// Folds per-rank reports, indexed by rank, into one run. `None` means
    /// the process hosting that rank died before reporting.
    ///
    /// A failed run surfaces its root cause, deterministically: a rank that
    /// failed outright (kernel fault, fail-at-time, exhausted retries, a
    /// dead process) beats a rank that merely noticed a dead or silent
    /// peer, and ties break by rank order. Without the priority, rank 0's
    /// secondary `PeerFailed` would always mask the real fault on a
    /// higher-numbered rank. A failed rank's deposits are never merged.
    ///
    /// Each rank's probe lane moves into the trace uncopied: every backend
    /// stamps a rank from one monotonic clock, so it is already in order.
    pub fn merge(
        reports: Vec<Option<RankReport>>,
        wall: Duration,
        iterations: u32,
    ) -> Result<Execution, RuntimeError> {
        let mut results = SinkResults::default();
        let mut stream = StreamStats::default();
        let mut metrics = FabricMetrics::default();
        let mut lanes = Vec::with_capacity(reports.len());
        let mut rank_walls = Vec::with_capacity(reports.len());
        let mut primary: Option<RuntimeError> = None;
        let mut secondary: Option<RuntimeError> = None;
        for (rank, report) in reports.into_iter().enumerate() {
            let rank = rank as u32;
            let report = report.unwrap_or_else(|| {
                RankReport::new(rank, Err(RuntimeError::NodeFailed { node: rank }))
            });
            rank_walls.push(report.wall_secs);
            metrics.nodes.push(report.metrics);
            metrics.links.extend(report.links);
            lanes.push(report.events);
            match report.error {
                None => {
                    stream.credits_issued += report.stream.credits_issued;
                    stream.credits_retired += report.stream.credits_retired;
                    for ((f, i, t), bytes) in report.deposits {
                        results.insert(f, i, t, bytes);
                    }
                }
                Some(e @ (RuntimeError::PeerFailed { .. } | RuntimeError::Timeout { .. })) => {
                    secondary.get_or_insert(e);
                }
                Some(e) => {
                    primary.get_or_insert(e);
                }
            }
        }
        if let Some(e) = primary.or(secondary) {
            return Err(e);
        }
        let makespan = metrics.makespan();
        Ok(Execution {
            report: RunReport {
                metrics,
                wall,
                makespan,
            },
            trace: Trace::new(lanes),
            results,
            iterations,
            stream,
            rank_walls,
        })
    }

    /// Virtual seconds per iteration (makespan / iterations); the paper's
    /// per-data-set time for steady-state runs.
    pub fn secs_per_iteration(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.report.makespan / self.iterations as f64
        }
    }
}

/// Collected sink deposits: the stripes each sink thread absorbed.
#[derive(Clone, Debug, Default)]
pub struct SinkResults {
    deposits: HashMap<(u32, u32, u32), Payload>,
}

impl SinkResults {
    /// The raw stripe a sink thread absorbed, if present.
    pub fn stripe(&self, fn_id: u32, iteration: u32, thread: u32) -> Option<&[u8]> {
        self.deposits
            .get(&(fn_id, iteration, thread))
            .map(|p| &p[..])
    }

    /// Reassembles the full payload a sink absorbed on `iteration` by
    /// stitching its threads' stripes back together via the sink's input
    /// striping.
    pub fn assemble(&self, program: &GlueProgram, fn_id: u32, iteration: u32) -> Option<Vec<u8>> {
        self.try_assemble(program, fn_id, iteration).ok()
    }

    /// [`SinkResults::assemble`] with a typed error instead of `None`: every
    /// way reassembly can fail (unknown function, missing stripe, stripe
    /// shorter than its layout, unstripeable descriptor) reports what went
    /// wrong as a [`RuntimeError::Assembly`].
    pub fn try_assemble(
        &self,
        program: &GlueProgram,
        fn_id: u32,
        iteration: u32,
    ) -> Result<Vec<u8>, RuntimeError> {
        let err = |message: String| RuntimeError::Assembly {
            fn_id,
            iteration,
            message,
        };
        let f = program
            .functions
            .get(fn_id as usize)
            .ok_or_else(|| err(format!("no function {fn_id} in the table")))?;
        let bid = *f
            .inputs
            .first()
            .ok_or_else(|| err("function has no input buffer".into()))?;
        let desc = program
            .buffers
            .get(bid as usize)
            .ok_or_else(|| err(format!("input buffer {bid} not in the buffer table")))?;
        let threads = f.threads as usize;
        if let Some(fault) = stripe_fault(&desc.shape, desc.recv_striping, threads, &f.name) {
            return Err(err(fault));
        }
        let total = desc.total_bytes();
        let mut full = vec![0u8; total];
        for t in 0..f.threads {
            let stripe = self
                .stripe(fn_id, iteration, t)
                .ok_or_else(|| err(format!("thread {t} deposited no stripe")))?;
            let layout = Layout::of_thread(
                &desc.shape,
                desc.elem_bytes,
                desc.recv_striping,
                f.threads as usize,
                t as usize,
            );
            if stripe.len() != layout.len() {
                return Err(err(format!(
                    "thread {t} deposited {} bytes, its layout covers {}",
                    stripe.len(),
                    layout.len()
                )));
            }
            let mut cursor = 0;
            for &(s, e) in layout.runs() {
                full[s..e].copy_from_slice(&stripe[cursor..cursor + (e - s)]);
                cursor += e - s;
            }
        }
        Ok(full)
    }

    /// Every sink's assembled output over `iterations` iterations, in
    /// (function id, iteration) order — the canonical byte stream all
    /// backends and execution modes must agree on bit-for-bit (frames that
    /// fail to assemble are skipped). [`crate::fnv1a_64`] of it is the
    /// fingerprint the CLI prints and the test suite pins.
    pub fn stream(&self, program: &GlueProgram, iterations: u32) -> Vec<u8> {
        let mut out = Vec::new();
        for f in program.functions.iter().filter(|f| f.role == FnRole::Sink) {
            for iter in 0..iterations {
                if let Some(full) = self.assemble(program, f.id, iter) {
                    out.extend_from_slice(&full);
                }
            }
        }
        out
    }

    /// Records a deposited stripe. Distributed launchers use this to merge
    /// per-rank deposits back into one result set.
    pub fn insert(&mut self, fn_id: u32, iteration: u32, thread: u32, bytes: impl Into<Payload>) {
        self.deposits
            .insert((fn_id, iteration, thread), bytes.into());
    }

    /// Number of deposited stripes.
    pub fn len(&self) -> usize {
        self.deposits.len()
    }

    /// `true` if no sink absorbed anything.
    pub fn is_empty(&self) -> bool {
        self.deposits.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::pipeline_program;
    use sage_visualizer::EventKind;

    fn ok(rank: u32) -> RankReport {
        let outcome = RankOutcome {
            deposits: vec![((7, 0, rank), vec![rank as u8; 2].into())],
            stream: StreamStats {
                credits_issued: 3,
                credits_retired: 3,
            },
        };
        RankReport {
            wall_secs: 0.5 + f64::from(rank),
            metrics: NodeMetrics {
                messages_sent: 10 + u64::from(rank),
                final_clock: 2.0 - f64::from(rank),
                ..NodeMetrics::default()
            },
            links: vec![LinkMetrics {
                src: rank,
                dst: 0,
                messages: 1,
                bytes: 8,
            }],
            // Rank 0 records late, rank 1 early.
            events: vec![ProbeEvent::new(
                1.0 - f64::from(rank),
                EventKind::FnStart,
                0,
                0,
            )],
            ..RankReport::new(rank, Ok(outcome))
        }
    }

    /// A rank that failed after depositing: the error must win and the
    /// deposit must go nowhere.
    fn failed(rank: u32, error: RuntimeError) -> RankReport {
        RankReport {
            error: Some(error),
            ..ok(rank)
        }
    }

    fn kernel(block: &str) -> RuntimeError {
        RuntimeError::Kernel {
            block: block.into(),
            message: "boom".into(),
        }
    }

    #[test]
    fn merge_surfaces_the_root_cause_and_never_a_failed_ranks_deposits() {
        let peer = RuntimeError::PeerFailed { node: 0, peer: 1 };
        let timeout = RuntimeError::Timeout { node: 0, peer: 2 };
        let table: Vec<(&str, Vec<Option<RankReport>>, RuntimeError)> = vec![
            (
                "an outright failure beats a lower rank's PeerFailed",
                vec![Some(failed(0, peer.clone())), Some(failed(1, kernel("k")))],
                kernel("k"),
            ),
            (
                "and a lower rank's Timeout",
                vec![
                    Some(failed(0, timeout.clone())),
                    Some(failed(1, kernel("k"))),
                ],
                kernel("k"),
            ),
            (
                "outright failures tie-break by rank",
                vec![
                    Some(ok(0)),
                    Some(failed(1, kernel("first"))),
                    Some(failed(2, kernel("second"))),
                ],
                kernel("first"),
            ),
            (
                "secondary failures tie-break by rank",
                vec![
                    Some(failed(0, timeout.clone())),
                    Some(failed(1, peer.clone())),
                ],
                timeout,
            ),
            (
                "a missing report is that rank's node failure",
                vec![Some(ok(0)), None],
                RuntimeError::NodeFailed { node: 1 },
            ),
            (
                "which is a root cause, not a symptom",
                vec![
                    Some(failed(0, peer.clone())),
                    None,
                    Some(failed(2, kernel("late"))),
                ],
                RuntimeError::NodeFailed { node: 1 },
            ),
            (
                "one failed rank fails the run, whatever the others deposited",
                vec![Some(ok(0)), Some(failed(1, peer.clone()))],
                peer,
            ),
        ];
        for (what, reports, want) in table {
            let got = Execution::merge(reports, Duration::ZERO, 1).map(|e| e.results.len());
            assert_eq!(got, Err(want), "{what}");
        }
    }

    #[test]
    fn merge_folds_clean_ranks_into_one_run() {
        let wall = Duration::from_millis(7);
        let reports = vec![Some(ok(0)), Some(ok(1))];
        let recorded: Vec<*const ProbeEvent> = (reports.iter().flatten())
            .map(|r| r.events.as_ptr())
            .collect();
        let exec = Execution::merge(reports, wall, 4).expect("clean run");
        assert_eq!(exec.results.stripe(7, 0, 0), Some(&[0u8, 0][..]));
        assert_eq!(exec.results.stripe(7, 0, 1), Some(&[1u8, 1][..]));
        assert_eq!(exec.results.len(), 2);
        assert_eq!(exec.stream.credits_issued, 6);
        assert_eq!(exec.stream.credits_retired, 6);
        assert_eq!(exec.rank_walls, vec![0.5, 1.5]);
        assert_eq!(exec.report.metrics.total_messages(), 21);
        assert_eq!(exec.report.metrics.wire_messages(), 2);
        assert_eq!(exec.report.wall, wall);
        assert_eq!(exec.report.makespan, 2.0);
        assert_eq!(exec.secs_per_iteration(), 0.5);
        let lanes: Vec<Vec<f64>> = (exec.trace.lanes().iter())
            .map(|lane| lane.iter().map(|e| e.time).collect())
            .collect();
        assert_eq!(lanes, vec![vec![1.0], vec![0.0]], "one lane per rank");
        let moved: Vec<*const ProbeEvent> = (exec.trace.lanes().iter())
            .map(|lane| lane.as_ptr())
            .collect();
        assert_eq!(moved, recorded, "each lane is moved in, not copied");
        let walked: Vec<u32> = exec.trace.in_time_order().map(|(r, _)| r).collect();
        assert_eq!(walked, vec![1, 0], "the walk across ranks is in time order");
    }

    #[test]
    fn try_assemble_reports_missing_stripes() {
        let program = pipeline_program(2, 4, 4);
        let results = SinkResults::default();
        let err = results.try_assemble(&program, 2, 0).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Assembly { fn_id: 2, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("no stripe"), "{err}");
        // Short stripe: deposited bytes disagree with the layout. The
        // message must carry both the actual and expected byte counts
        // (each thread of this sink's layout covers 8 bytes).
        let mut results = SinkResults::default();
        for t in 0..2 {
            results.insert(2, 0, t, vec![0u8; 3]);
        }
        let err = results.try_assemble(&program, 2, 0).unwrap_err();
        assert!(
            err.to_string()
                .contains("deposited 3 bytes, its layout covers 8"),
            "{err}"
        );
        // Oversized stripe trips the same branch with the counts swapped
        // in magnitude — the check is an exact equality, not a floor.
        let mut results = SinkResults::default();
        for t in 0..2 {
            results.insert(2, 0, t, vec![0u8; 9]);
        }
        let err = results.try_assemble(&program, 2, 0).unwrap_err();
        assert!(
            err.to_string()
                .contains("deposited 9 bytes, its layout covers 8"),
            "{err}"
        );
        // Unknown function id.
        let err = results.try_assemble(&program, 9, 0).unwrap_err();
        assert!(err.to_string().contains("no function"), "{err}");
    }
}
