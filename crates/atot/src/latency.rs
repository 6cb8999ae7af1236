//! Latency-constraint evaluation ("optimizing over latency constraints").

use crate::schedule::{ScheduleEstimate, Scheduler};
use crate::taskgraph::{TaskGraph, TaskMapping};

/// The verdict on one mapping against a latency budget.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyCheck {
    /// Estimated end-to-end latency (iteration makespan), seconds.
    pub latency: f64,
    /// The budget checked against.
    pub budget: f64,
    /// Slack = budget - latency (negative when violated).
    pub slack: f64,
}

/// Checks `mapping` against a latency `budget`.
pub fn check(
    scheduler: &Scheduler,
    graph: &TaskGraph,
    mapping: &TaskMapping,
    budget: f64,
) -> (LatencyCheck, ScheduleEstimate) {
    let est = scheduler.estimate(graph, mapping);
    (
        LatencyCheck {
            latency: est.makespan,
            budget,
            slack: budget - est.makespan,
        },
        est,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines;
    use crate::taskgraph::TaskSpec;
    use sage_model::{BlockId, FabricSpec, HardwareSpec, Processor};

    #[test]
    fn slack_sign_reflects_budget() {
        let graph = TaskGraph {
            tasks: vec![TaskSpec {
                block: BlockId(0),
                thread: 0,
                flops: 1e8, // 1 s on the node below
                mem_bytes: 0.0,
                name: "t".into(),
            }],
            edges: vec![],
        };
        let hw = HardwareSpec::homogeneous(
            "hw",
            Processor {
                name: "p".into(),
                clock_mhz: 100.0,
                flops_per_cycle: 1.0,
                mem_mb: 1.0,
                mem_bw_mbps: 100.0,
            },
            1,
            1,
            FabricSpec {
                bandwidth_mbps: 1.0,
                latency_us: 1.0,
            },
            FabricSpec {
                bandwidth_mbps: 1.0,
                latency_us: 1.0,
            },
        );
        let s = Scheduler::new(&graph, &hw).unwrap();
        let m = baselines::round_robin(&graph, 1);
        let (ok, _) = check(&s, &graph, &m, 2.0);
        assert!((ok.slack - 1.0).abs() < 1e-9);
        let (bad, _) = check(&s, &graph, &m, 0.5);
        assert!(bad.slack < 0.0);
    }
}
