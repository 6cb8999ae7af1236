//! The merged view of a distributed run: per-rank reports folded into one
//! outcome, root-cause error first. `sage-fleet`'s `launch` and the
//! `sage submit` client both end here.

use crate::error::NetError;
use crate::proto::RankReport;
use sage_fabric::{FabricMetrics, NodeMetrics, RunReport};
use sage_runtime::{GlueProgram, RuntimeError, SinkResults};
use sage_visualizer::Trace;
use std::time::Duration;

/// A merged distributed run.
#[derive(Debug)]
pub struct LaunchOutcome {
    /// Merged sink deposits from all ranks.
    pub results: SinkResults,
    /// Merged report: per-rank traffic counters and per-link wire counters.
    pub report: RunReport,
    /// Merged, time-sorted trace (empty unless probes were on).
    pub trace: Trace,
    /// The glue program the job ran (regenerate-once, for assembling sink
    /// output).
    pub program: GlueProgram,
    /// Per-rank wall seconds spent inside the executor.
    pub rank_walls: Vec<f64>,
}

/// Merges per-rank outcomes, surfacing the root-cause error with the same
/// deterministic priority the in-process executor uses: a rank that failed
/// outright beats a rank that merely noticed a dead or silent peer, and
/// ties break by rank order.
pub fn merge_outcomes(
    program: GlueProgram,
    outcomes: Vec<Result<RankReport, NetError>>,
    wall: Duration,
    ranks: usize,
) -> Result<LaunchOutcome, NetError> {
    let mut results = SinkResults::default();
    let mut nodes = vec![NodeMetrics::default(); ranks];
    let mut links = Vec::new();
    let mut events = Vec::new();
    let mut rank_walls = vec![0.0; ranks];
    let mut primary: Option<NetError> = None;
    let mut secondary: Option<NetError> = None;
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(report) => {
                rank_walls[rank] = report.wall_secs;
                nodes[rank] = report.metrics;
                links.extend(report.links);
                events.extend(report.events);
                match report.error {
                    None => {
                        for ((f, i, t), bytes) in report.deposits {
                            results.insert(f, i, t, bytes);
                        }
                    }
                    Some(e @ (RuntimeError::PeerFailed { .. } | RuntimeError::Timeout { .. })) => {
                        secondary.get_or_insert(NetError::Runtime(e));
                    }
                    Some(e) => {
                        primary.get_or_insert(NetError::Runtime(e));
                    }
                }
            }
            Err(NetError::WorkerDied { rank }) => {
                // The process is gone: report it as the node failure it is.
                primary.get_or_insert(NetError::Runtime(RuntimeError::NodeFailed { node: rank }));
            }
            Err(e) => {
                primary.get_or_insert(e);
            }
        }
    }
    if let Some(e) = primary.or(secondary) {
        return Err(e);
    }
    events.sort_by(|a, b| a.time.total_cmp(&b.time));
    Ok(LaunchOutcome {
        results,
        report: RunReport {
            metrics: FabricMetrics { nodes, links },
            wall,
            makespan: 0.0,
        },
        trace: Trace::new(events),
        program,
        rank_walls,
    })
}
