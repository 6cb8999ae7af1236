//! Communication-aware list scheduling: AToT's makespan estimator
//! ("scheduling of CPUs and busses").

use crate::taskgraph::{TaskGraph, TaskMapping};
use sage_model::{HardwareSpec, ModelError};

/// The estimate produced for one candidate mapping.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleEstimate {
    /// Estimated iteration makespan, seconds.
    pub makespan: f64,
    /// Per-node busy time, seconds.
    pub node_busy: Vec<f64>,
    /// Estimated per-task completion times.
    pub finish: Vec<f64>,
    /// Total bytes crossing node boundaries.
    pub cut_bytes: f64,
}

impl ScheduleEstimate {
    /// Load imbalance: max busy / mean busy (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let max = self.node_busy.iter().cloned().fold(0.0, f64::max);
        let mean = self.node_busy.iter().sum::<f64>() / self.node_busy.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

/// A list scheduler over a fixed task graph and hardware model.
///
/// Two estimation modes: [`Scheduler::estimate`] treats links as
/// contention-free (fast, used inside the GA loop), while
/// [`Scheduler::estimate_with_bus`] additionally serializes each node's
/// outgoing transfers through its NIC/bus — the paper's "scheduling of CPUs
/// and busses" — which penalizes mappings that funnel traffic through one
/// node.
pub struct Scheduler {
    flops_rate: Vec<f64>,
    mem_bw: Vec<f64>,
    /// Pairwise transfer estimate parameters: `lat[i][j]` seconds and
    /// `inv_bw[i][j]` seconds/byte.
    lat: Vec<Vec<f64>>,
    inv_bw: Vec<Vec<f64>>,
    /// Tasks in a topological order of the dependency edges.
    topo: Vec<usize>,
    preds: Vec<Vec<(usize, f64)>>,
}

impl Scheduler {
    /// Prepares a scheduler for `graph` on `hw`: [`ModelError::Cycle`] if
    /// the graph's precedence edges have a cycle ([`TaskGraph::topo_order`]).
    pub fn new(graph: &TaskGraph, hw: &HardwareSpec) -> Result<Scheduler, ModelError> {
        let flat = hw.flatten();
        let n = flat.len();
        let flops_rate: Vec<f64> = flat.iter().map(|p| p.proc.flops_per_sec()).collect();
        let mem_bw: Vec<f64> = flat.iter().map(|p| p.proc.mem_bw_mbps * 1e6).collect();
        let mut lat = vec![vec![0.0; n]; n];
        let mut inv_bw = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let l = hw.link_between(&flat[i], &flat[j]);
                    lat[i][j] = l.latency_us * 1e-6;
                    inv_bw[i][j] = 1.0 / (l.bandwidth_mbps * 1e6);
                }
            }
        }
        let topo = graph.topo_order()?;
        let mut preds: Vec<Vec<(usize, f64)>> = vec![Vec::new(); graph.len()];
        for e in graph.precedence_edges() {
            preds[e.to].push((e.from, e.bytes));
        }
        Ok(Scheduler {
            flops_rate,
            mem_bw,
            lat,
            inv_bw,
            topo,
            preds,
        })
    }

    /// Number of nodes in the hardware model.
    pub fn node_count(&self) -> usize {
        self.flops_rate.len()
    }

    /// Estimates the schedule of `graph` under `mapping`: tasks start when
    /// their node is free and all predecessor data has arrived (cross-node
    /// edges charge `latency + bytes/bandwidth`).
    pub fn estimate(&self, graph: &TaskGraph, mapping: &TaskMapping) -> ScheduleEstimate {
        let nodes = self.node_count();
        let mut node_free = vec![0.0f64; nodes];
        let mut node_busy = vec![0.0f64; nodes];
        let mut finish = vec![0.0f64; graph.len()];
        for &ti in &self.topo {
            let node = mapping.nodes[ti].index();
            let mut ready = node_free[node];
            for &(p, bytes) in &self.preds[ti] {
                let pn = mapping.nodes[p].index();
                let arrive = if pn == node {
                    finish[p]
                } else {
                    finish[p] + self.lat[pn][node] + bytes * self.inv_bw[pn][node]
                };
                ready = ready.max(arrive);
            }
            let t = &graph.tasks[ti];
            let dur = t.flops / self.flops_rate[node] + t.mem_bytes / self.mem_bw[node];
            finish[ti] = ready + dur;
            node_free[node] = finish[ti];
            node_busy[node] += dur;
        }
        ScheduleEstimate {
            makespan: finish.iter().cloned().fold(0.0, f64::max),
            node_busy,
            finish,
            cut_bytes: mapping.cut_bytes(graph),
        }
    }

    /// Like [`Scheduler::estimate`], but outgoing transfers serialize
    /// through the sending node's bus: a transfer cannot start before both
    /// the producing task has finished and the sender's bus is free.
    pub fn estimate_with_bus(&self, graph: &TaskGraph, mapping: &TaskMapping) -> ScheduleEstimate {
        let nodes = self.node_count();
        let mut node_free = vec![0.0f64; nodes];
        let mut bus_free = vec![0.0f64; nodes];
        let mut node_busy = vec![0.0f64; nodes];
        let mut finish = vec![0.0f64; graph.len()];
        for &ti in &self.topo {
            let node = mapping.nodes[ti].index();
            let mut ready = node_free[node];
            for &(p, bytes) in &self.preds[ti] {
                let pn = mapping.nodes[p].index();
                let arrive = if pn == node {
                    finish[p]
                } else {
                    // Serialize on the sender's bus.
                    let start = finish[p].max(bus_free[pn]);
                    let xfer = bytes * self.inv_bw[pn][node];
                    bus_free[pn] = start + xfer;
                    start + xfer + self.lat[pn][node]
                };
                ready = ready.max(arrive);
            }
            let t = &graph.tasks[ti];
            let dur = t.flops / self.flops_rate[node] + t.mem_bytes / self.mem_bw[node];
            finish[ti] = ready + dur;
            node_free[node] = finish[ti];
            node_busy[node] += dur;
        }
        ScheduleEstimate {
            makespan: finish.iter().cloned().fold(0.0, f64::max),
            node_busy,
            finish,
            cut_bytes: mapping.cut_bytes(graph),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taskgraph::{TaskEdge, TaskSpec};
    use sage_model::{BlockId, FabricSpec, HardwareSpec, ProcId, Processor};

    fn hw(nodes: usize) -> HardwareSpec {
        HardwareSpec::homogeneous(
            "hw",
            Processor {
                name: "p".into(),
                clock_mhz: 100.0,
                flops_per_cycle: 1.0, // 1e8 flops/s
                mem_mb: 64.0,
                mem_bw_mbps: 100.0,
            },
            1,
            nodes,
            FabricSpec {
                bandwidth_mbps: 10.0, // 1e7 B/s
                latency_us: 100.0,
            },
            FabricSpec {
                bandwidth_mbps: 10.0,
                latency_us: 100.0,
            },
        )
    }

    fn task(flops: f64) -> TaskSpec {
        TaskSpec {
            block: BlockId(0),
            thread: 0,
            flops,
            mem_bytes: 0.0,
            name: "t".into(),
        }
    }

    #[test]
    fn independent_tasks_parallelize() {
        let graph = TaskGraph {
            tasks: vec![task(1e8), task(1e8)],
            edges: vec![],
        };
        let s = Scheduler::new(&graph, &hw(2)).unwrap();
        let together = s.estimate(
            &graph,
            &TaskMapping {
                nodes: vec![ProcId(0), ProcId(0)],
            },
        );
        let apart = s.estimate(
            &graph,
            &TaskMapping {
                nodes: vec![ProcId(0), ProcId(1)],
            },
        );
        assert!((together.makespan - 2.0).abs() < 1e-9);
        assert!((apart.makespan - 1.0).abs() < 1e-9);
        assert!((apart.imbalance() - 1.0).abs() < 1e-9);
        assert!(together.imbalance() > 1.9);
    }

    #[test]
    fn cross_node_edges_charge_transfer() {
        let graph = TaskGraph {
            tasks: vec![task(1e8), task(1e8)],
            edges: vec![TaskEdge {
                from: 0,
                to: 1,
                bytes: 1e7, // 1 second at 10 MB/s
                feedback: false,
            }],
        };
        let s = Scheduler::new(&graph, &hw(2)).unwrap();
        let local = s.estimate(
            &graph,
            &TaskMapping {
                nodes: vec![ProcId(0), ProcId(0)],
            },
        );
        let remote = s.estimate(
            &graph,
            &TaskMapping {
                nodes: vec![ProcId(0), ProcId(1)],
            },
        );
        assert!((local.makespan - 2.0).abs() < 1e-9);
        assert!((remote.makespan - (1.0 + 1.0 + 1e-4 + 1.0)).abs() < 1e-6);
        assert_eq!(local.cut_bytes, 0.0);
        assert_eq!(remote.cut_bytes, 1e7);
    }

    #[test]
    fn chain_respects_dependencies() {
        let graph = TaskGraph {
            tasks: vec![task(1e8), task(1e8), task(1e8)],
            edges: vec![
                TaskEdge {
                    from: 0,
                    to: 1,
                    bytes: 0.0,
                    feedback: false,
                },
                TaskEdge {
                    from: 1,
                    to: 2,
                    bytes: 0.0,
                    feedback: false,
                },
            ],
        };
        let s = Scheduler::new(&graph, &hw(3)).unwrap();
        // Spread over 3 nodes: still serial because of the chain (zero-byte
        // edges still pay latency).
        let e = s.estimate(
            &graph,
            &TaskMapping {
                nodes: vec![ProcId(0), ProcId(1), ProcId(2)],
            },
        );
        assert!((e.makespan - (3.0 + 2.0e-4)).abs() < 1e-6);
    }

    #[test]
    fn mem_traffic_charged() {
        let graph = TaskGraph {
            tasks: vec![TaskSpec {
                block: BlockId(0),
                thread: 0,
                flops: 0.0,
                mem_bytes: 1e8, // 1 s at 100 MB/s
                name: "m".into(),
            }],
            edges: vec![],
        };
        let s = Scheduler::new(&graph, &hw(1)).unwrap();
        let e = s.estimate(
            &graph,
            &TaskMapping {
                nodes: vec![ProcId(0)],
            },
        );
        assert!((e.makespan - 1.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod bus_tests {
    use super::*;
    use crate::taskgraph::{TaskEdge, TaskGraph, TaskMapping, TaskSpec};
    use sage_model::{BlockId, FabricSpec, HardwareSpec, ProcId, Processor};

    fn hw(nodes: usize) -> HardwareSpec {
        HardwareSpec::homogeneous(
            "hw",
            Processor {
                name: "p".into(),
                clock_mhz: 100.0,
                flops_per_cycle: 1.0,
                mem_mb: 64.0,
                mem_bw_mbps: 100.0,
            },
            1,
            nodes,
            FabricSpec {
                bandwidth_mbps: 10.0, // 1e7 B/s
                latency_us: 0.0,
            },
            FabricSpec {
                bandwidth_mbps: 10.0,
                latency_us: 0.0,
            },
        )
    }

    fn task(flops: f64) -> TaskSpec {
        TaskSpec {
            block: BlockId(0),
            thread: 0,
            flops,
            mem_bytes: 0.0,
            name: "t".into(),
        }
    }

    #[test]
    fn bus_serializes_fan_out_transfers() {
        // One producer fans 1e7-byte payloads (1 s each on the wire) out to
        // two consumers on different nodes. Contention-free: both arrive at
        // t=1; bus-aware: the second transfer queues, arriving at t=2.
        let graph = TaskGraph {
            tasks: vec![task(0.0), task(0.0), task(0.0)],
            edges: vec![
                TaskEdge {
                    from: 0,
                    to: 1,
                    bytes: 1e7,
                    feedback: false,
                },
                TaskEdge {
                    from: 0,
                    to: 2,
                    bytes: 1e7,
                    feedback: false,
                },
            ],
        };
        let s = Scheduler::new(&graph, &hw(3)).unwrap();
        let m = TaskMapping {
            nodes: vec![ProcId(0), ProcId(1), ProcId(2)],
        };
        let free = s.estimate(&graph, &m);
        let bus = s.estimate_with_bus(&graph, &m);
        assert!((free.makespan - 1.0).abs() < 1e-9);
        assert!((bus.makespan - 2.0).abs() < 1e-9, "got {}", bus.makespan);
    }

    #[test]
    fn bus_and_free_agree_without_contention() {
        let graph = TaskGraph {
            tasks: vec![task(1e8), task(1e8)],
            edges: vec![TaskEdge {
                from: 0,
                to: 1,
                bytes: 1e6,
                feedback: false,
            }],
        };
        let s = Scheduler::new(&graph, &hw(2)).unwrap();
        let m = TaskMapping {
            nodes: vec![ProcId(0), ProcId(1)],
        };
        let a = s.estimate(&graph, &m).makespan;
        let b = s.estimate_with_bus(&graph, &m).makespan;
        assert!((a - b).abs() < 1e-12);
    }
    /// A feedback arc (one leaving a `delay` block) crosses the iteration
    /// boundary: it orders nothing within an iteration, so a delay-cycle
    /// model schedules and maps, and its bytes still count when a mapping
    /// cuts it. A cycle that no delay breaks is a typed error, not a panic.
    #[test]
    fn delay_cycles_schedule_and_true_cycles_are_typed() {
        use sage_model::{AppGraph, Block, CostModel, DataType, Port, PropValue, Striping};
        let dt = DataType::complex_matrix(4, 4);
        let input = |name: &str| Port::input(name, dt.clone(), Striping::BY_ROWS);
        let output = || Port::output("out", dt.clone(), Striping::BY_ROWS);
        let cost = CostModel::new(16.0, 0.0);
        let mut g = AppGraph::new("feedback");
        let m = g.add_block(Block::primitive(
            "m",
            "id",
            2,
            cost,
            vec![input("fb"), output()],
        ));
        let d = g.add_block(
            Block::primitive("d", "id", 2, cost, vec![input("in"), output()])
                .with_prop("delay", PropValue::Int(1)),
        );
        g.connect(m, "out", d, "in").unwrap();
        g.connect(d, "out", m, "fb").unwrap();
        let graph = TaskGraph::from_model(&g);
        assert_eq!(graph.edges.iter().filter(|e| e.feedback).count(), 2);
        let s = Scheduler::new(&graph, &hw(2)).expect("the delay arc breaks the cycle");
        let quick = crate::GaConfig {
            population: 8,
            generations: 4,
            ..crate::GaConfig::default()
        };
        let mapped = crate::ga::optimize(&graph, &s, &quick).mapping;
        assert!(mapped.check(&graph, 2).is_empty());
        // m on node 0, d on node 1: both arcs (128 bytes each) are cut.
        let split = TaskMapping {
            nodes: vec![ProcId(0), ProcId(0), ProcId(1), ProcId(1)],
        };
        assert_eq!(s.estimate(&graph, &split).cut_bytes, 256.0);

        let mut cyclic = graph.clone();
        cyclic.edges.iter_mut().for_each(|e| e.feedback = false);
        assert!(matches!(
            Scheduler::new(&cyclic, &hw(2)),
            Err(ModelError::Cycle)
        ));
    }
}
