//! Architecture trade studies: sweep candidate platforms and node counts,
//! map each with the GA, and tabulate the results — the paper's
//! "optimization and trade-off activities" that "determine a target hardware
//! architecture".

use crate::ga::{optimize, GaConfig};
use crate::schedule::Scheduler;
use crate::taskgraph::TaskGraph;
use sage_model::{HardwareShelf, ModelError};
use std::fmt::Write;

/// One evaluated design point.
#[derive(Clone, Debug, PartialEq)]
pub struct TradePoint {
    /// Platform name.
    pub platform: String,
    /// Node count.
    pub nodes: usize,
    /// Best estimated makespan (seconds) found by the GA.
    pub makespan: f64,
    /// Bytes crossing node boundaries in the best mapping.
    pub cut_bytes: f64,
    /// Load imbalance of the best mapping.
    pub imbalance: f64,
}

/// A complete trade study over platforms × node counts.
#[derive(Clone, Debug, Default)]
pub struct TradeStudy {
    /// Evaluated points, in sweep order.
    pub points: Vec<TradePoint>,
}

impl TradeStudy {
    /// Runs the study for `graph` over the given `platforms` (hardware-shelf
    /// names) and `node_counts`.
    ///
    /// Unknown platform names are skipped (the shelf only stocks the four
    /// vendors of the paper's comparison). [`ModelError::Cycle`] if `graph`
    /// cannot be scheduled.
    pub fn run(
        graph: &TaskGraph,
        platforms: &[&str],
        node_counts: &[usize],
        ga: &GaConfig,
    ) -> Result<TradeStudy, ModelError> {
        let mut study = TradeStudy::default();
        for &platform in platforms {
            for &nodes in node_counts {
                let Some(hw) = HardwareShelf::by_name(platform, nodes) else {
                    continue;
                };
                let scheduler = Scheduler::new(graph, &hw)?;
                let result = optimize(graph, &scheduler, ga);
                let est = scheduler.estimate(graph, &result.mapping);
                study.points.push(TradePoint {
                    platform: platform.to_string(),
                    nodes,
                    makespan: result.makespan,
                    cut_bytes: est.cut_bytes,
                    imbalance: est.imbalance(),
                });
            }
        }
        Ok(study)
    }

    /// The point with the smallest makespan.
    pub fn best(&self) -> Option<&TradePoint> {
        self.points
            .iter()
            .min_by(|a, b| a.makespan.total_cmp(&b.makespan))
    }

    /// Formats the study as an aligned text table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<10} {:>6} {:>14} {:>14} {:>10}",
            "platform", "nodes", "makespan(ms)", "cut(KB)", "imbalance"
        );
        for p in &self.points {
            let _ = writeln!(
                s,
                "{:<10} {:>6} {:>14.3} {:>14.1} {:>10.3}",
                p.platform,
                p.nodes,
                p.makespan * 1e3,
                p.cut_bytes / 1024.0,
                p.imbalance
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taskgraph::{TaskEdge, TaskSpec};
    use sage_model::BlockId;

    fn graph() -> TaskGraph {
        TaskGraph {
            tasks: (0..8)
                .map(|i| TaskSpec {
                    block: BlockId(0),
                    thread: i as u32,
                    flops: 2.0e7,
                    mem_bytes: 1.0e5,
                    name: format!("t{i}"),
                })
                .collect(),
            edges: (0..7)
                .map(|i| TaskEdge {
                    from: i,
                    to: i + 1,
                    bytes: 1.0e4,
                    feedback: false,
                })
                .collect(),
        }
    }

    fn quick_ga() -> GaConfig {
        GaConfig {
            population: 16,
            generations: 10,
            ..GaConfig::default()
        }
    }

    #[test]
    fn study_covers_the_sweep() {
        let s = TradeStudy::run(&graph(), &["CSPI", "Mercury"], &[2, 4], &quick_ga()).unwrap();
        assert_eq!(s.points.len(), 4);
        assert!(s.best().is_some());
        let table = s.render();
        assert!(table.contains("CSPI") && table.contains("Mercury"));
        assert_eq!(table.lines().count(), 5);
    }

    #[test]
    fn unknown_platforms_skipped() {
        let s = TradeStudy::run(&graph(), &["Cray", "CSPI"], &[2], &quick_ga()).unwrap();
        assert_eq!(s.points.len(), 1);
        assert_eq!(s.points[0].platform, "CSPI");
    }

    #[test]
    fn faster_platform_wins_compute_bound_study() {
        // A serial chain cannot use more nodes, so the fastest CPU wins.
        let s = TradeStudy::run(&graph(), &["Mercury", "SIGI"], &[4], &quick_ga()).unwrap();
        let best = s.best().unwrap();
        assert_eq!(best.platform, "Mercury");
    }
}
