//! The task graph AToT optimizes over.
//!
//! A *task* is one thread of one function instance (the unit the run-time
//! schedules). The task graph carries per-task compute estimates from the
//! shelf cost models and per-edge byte estimates derived from the port
//! striping conventions — AToT optimizes against these estimates, not
//! against measured executions, exactly as the paper's tool flow does.

use sage_model::{AppGraph, BlockId, ModelError, ProcId, Striping};

/// One schedulable task (a function thread).
#[derive(Clone, Debug, PartialEq)]
pub struct TaskSpec {
    /// Originating block.
    pub block: BlockId,
    /// Thread index within the block's function.
    pub thread: u32,
    /// Estimated flops (block cost divided over threads).
    pub flops: f64,
    /// Estimated memory traffic bytes (ditto).
    pub mem_bytes: f64,
    /// Display name, `block[t]`.
    pub name: String,
}

/// A directed data dependency between tasks with estimated payload bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskEdge {
    /// Producing task index.
    pub from: usize,
    /// Consuming task index.
    pub to: usize,
    /// Estimated bytes that move along this edge per iteration.
    pub bytes: f64,
    /// `true` for an arc leaving a `delay` block: its consumer reads what
    /// an earlier iteration produced, so the edge costs bytes when cut but
    /// orders nothing within an iteration.
    pub feedback: bool,
}

/// A task-level mapping: node per task (what AToT produces and the glue-code
/// generator consumes as thread placements).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskMapping {
    /// `nodes[i]` is the processor of task `i`.
    pub nodes: Vec<ProcId>,
}

impl TaskMapping {
    /// Checks this mapping against a task graph and a node count, returning
    /// every problem found (wrong task coverage, nodes out of range).
    /// Returns an empty vector when the mapping is serviceable.
    pub fn check(&self, graph: &TaskGraph, node_count: usize) -> Vec<String> {
        let mut problems = Vec::new();
        if self.nodes.len() != graph.len() {
            problems.push(format!(
                "mapping covers {} tasks, task graph has {}",
                self.nodes.len(),
                graph.len()
            ));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.index() >= node_count {
                let name = graph
                    .tasks
                    .get(i)
                    .map(|t| t.name.clone())
                    .unwrap_or_else(|| format!("task {i}"));
                problems.push(format!(
                    "{name} mapped to node {}, hardware has {node_count}",
                    node.index()
                ));
            }
        }
        problems
    }

    /// Nodes (below `node_count`) that no task is mapped to.
    pub fn idle_nodes(&self, node_count: usize) -> Vec<usize> {
        let mut used = vec![false; node_count];
        for node in &self.nodes {
            if node.index() < node_count {
                used[node.index()] = true;
            }
        }
        used.iter()
            .enumerate()
            .filter(|(_, &u)| !u)
            .map(|(i, _)| i)
            .collect()
    }

    /// Total bytes crossing node boundaries under this mapping.
    pub fn cut_bytes(&self, graph: &TaskGraph) -> f64 {
        graph
            .edges
            .iter()
            .filter(|e| self.nodes[e.from] != self.nodes[e.to])
            .map(|e| e.bytes)
            .sum()
    }
}

/// The complete task graph of an application model.
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    /// Tasks in (block, thread) order.
    pub tasks: Vec<TaskSpec>,
    /// Estimated data-dependency edges.
    pub edges: Vec<TaskEdge>,
}

impl TaskGraph {
    /// Expands a *flattened* application graph into tasks and estimated
    /// edges.
    ///
    /// Edge byte estimates follow the striping conventions:
    /// * identical striping and thread counts → aligned (diagonal) edges of
    ///   `total/threads` bytes;
    /// * differing striping dims (e.g. rows → columns) → all-to-all edges of
    ///   `total/(Tp*Tc)` bytes;
    /// * replicated producer → each consumer thread receives its stripe from
    ///   producer thread 0;
    /// * replicated consumer → every consumer thread receives the full
    ///   payload.
    pub fn from_model(graph: &AppGraph) -> TaskGraph {
        let mut tg = TaskGraph::default();
        // Task index of (block, thread).
        let mut base = vec![0usize; graph.block_count()];
        for (bi, b) in graph.blocks().iter().enumerate() {
            base[bi] = tg.tasks.len();
            let threads = b.threads() as u32;
            let cost = b.cost();
            for t in 0..threads {
                tg.tasks.push(TaskSpec {
                    block: BlockId::from_index(bi),
                    thread: t,
                    flops: cost.flops / threads as f64,
                    mem_bytes: cost.mem_bytes / threads as f64,
                    name: format!("{}[{t}]", b.name),
                });
            }
        }
        for c in graph.connections() {
            let pb = &graph.blocks()[c.from.block.index()];
            let cb = &graph.blocks()[c.to.block.index()];
            let tp = pb.threads();
            let tc = cb.threads();
            let total = graph.connection_bytes(c) as f64;
            let sp = pb.ports[c.from.port].striping;
            let sc = cb.ports[c.to.port].striping;
            let pbase = base[c.from.block.index()];
            let cbase = base[c.to.block.index()];
            let feedback = pb.delay() > 0;
            let mut edge = |i: usize, j: usize, bytes: f64| {
                tg.edges.push(TaskEdge {
                    from: pbase + i,
                    to: cbase + j,
                    bytes,
                    feedback,
                })
            };
            match (sp, sc) {
                (Striping::Replicated, Striping::Replicated) => {
                    for j in 0..tc {
                        edge(0, j, total);
                    }
                }
                (Striping::Replicated, Striping::Striped { .. }) => {
                    for j in 0..tc {
                        edge(0, j, total / tc as f64);
                    }
                }
                (Striping::Striped { .. }, Striping::Replicated) => {
                    for i in 0..tp {
                        for j in 0..tc {
                            edge(i, j, total / tp as f64);
                        }
                    }
                }
                (Striping::Striped { dim: dp }, Striping::Striped { dim: dc }) => {
                    if dp == dc {
                        // Aligned or nested distribution along one dim.
                        if tp == tc {
                            for t in 0..tp {
                                edge(t, t, total / tp as f64);
                            }
                        } else {
                            // Coarser/finer stripes: each consumer reads from
                            // the producer(s) covering its slice.
                            for j in 0..tc {
                                let lo = j * tp / tc;
                                let hi = ((j + 1) * tp).div_ceil(tc);
                                for i in lo..hi.max(lo + 1).min(tp) {
                                    edge(i, j, total / (tc as f64 * (hi - lo).max(1) as f64));
                                }
                            }
                        }
                    } else {
                        // Corner turn: all-to-all tiles.
                        for i in 0..tp {
                            for j in 0..tc {
                                edge(i, j, total / (tp * tc) as f64);
                            }
                        }
                    }
                }
            }
        }
        tg
    }

    /// The edges that order tasks within an iteration: all but the
    /// feedback arcs, which cross the iteration boundary.
    pub fn precedence_edges(&self) -> impl Iterator<Item = &TaskEdge> {
        self.edges.iter().filter(|e| !e.feedback)
    }

    /// A topological order of the tasks under
    /// [`TaskGraph::precedence_edges`] (Kahn, lowest ready index first).
    /// [`ModelError::Cycle`] if those edges have a cycle — impossible for
    /// graphs expanded from validated models, whose every cycle passes
    /// through a `delay` block.
    pub fn topo_order(&self) -> Result<Vec<usize>, ModelError> {
        let t = self.len();
        let mut indeg = vec![0usize; t];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); t];
        for e in self.precedence_edges() {
            indeg[e.to] += 1;
            succ[e.from].push(e.to);
        }
        let mut ready: Vec<usize> = (0..t).filter(|&i| indeg[i] == 0).collect();
        ready.sort_unstable_by(|a, b| b.cmp(a));
        let mut topo = Vec::with_capacity(t);
        while let Some(i) = ready.pop() {
            topo.push(i);
            for &s in &succ[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
            ready.sort_unstable_by(|a, b| b.cmp(a));
        }
        if topo.len() == t {
            Ok(topo)
        } else {
            Err(ModelError::Cycle)
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if there are no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total estimated flops.
    pub fn total_flops(&self) -> f64 {
        self.tasks.iter().map(|t| t.flops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_model::{Block, CostModel, DataType, Port};

    fn two_stage(tp: usize, tc: usize, sp: Striping, sc: Striping) -> AppGraph {
        let mut g = AppGraph::new("g");
        let dt = DataType::complex_matrix(16, 16);
        let a = g.add_block(Block::primitive(
            "a",
            "id",
            tp,
            CostModel::new(100.0, 0.0),
            vec![Port::output("out", dt.clone(), sp)],
        ));
        let b = g.add_block(Block::primitive(
            "b",
            "id",
            tc,
            CostModel::new(200.0, 0.0),
            vec![Port::input("in", dt, sc)],
        ));
        g.connect(a, "out", b, "in").unwrap();
        g
    }

    const TOTAL: f64 = 16.0 * 16.0 * 8.0;

    #[test]
    fn tasks_split_block_cost() {
        let tg = TaskGraph::from_model(&two_stage(4, 2, Striping::BY_ROWS, Striping::BY_ROWS));
        assert_eq!(tg.len(), 6);
        assert_eq!(tg.tasks[0].flops, 25.0);
        assert_eq!(tg.tasks[4].flops, 100.0);
        assert_eq!(tg.total_flops(), 300.0);
        assert_eq!(tg.tasks[1].name, "a[1]");
    }

    #[test]
    fn aligned_edges_are_diagonal() {
        let tg = TaskGraph::from_model(&two_stage(4, 4, Striping::BY_ROWS, Striping::BY_ROWS));
        assert_eq!(tg.edges.len(), 4);
        for (t, e) in tg.edges.iter().enumerate() {
            assert_eq!(e.from, t);
            assert_eq!(e.to, 4 + t);
            assert_eq!(e.bytes, TOTAL / 4.0);
        }
    }

    #[test]
    fn corner_turn_edges_are_all_to_all() {
        let tg = TaskGraph::from_model(&two_stage(4, 4, Striping::BY_ROWS, Striping::BY_COLS));
        assert_eq!(tg.edges.len(), 16);
        for e in &tg.edges {
            assert_eq!(e.bytes, TOTAL / 16.0);
        }
        let sum: f64 = tg.edges.iter().map(|e| e.bytes).sum();
        assert_eq!(sum, TOTAL);
    }

    #[test]
    fn replicated_consumer_gets_full_payload() {
        let tg = TaskGraph::from_model(&two_stage(2, 3, Striping::BY_ROWS, Striping::Replicated));
        assert_eq!(tg.edges.len(), 6);
        for e in &tg.edges {
            assert_eq!(e.bytes, TOTAL / 2.0);
        }
    }

    #[test]
    fn replicated_producer_sends_from_thread_zero() {
        let tg = TaskGraph::from_model(&two_stage(3, 2, Striping::Replicated, Striping::BY_ROWS));
        assert_eq!(tg.edges.len(), 2);
        for e in &tg.edges {
            assert_eq!(e.from, 0);
            assert_eq!(e.bytes, TOTAL / 2.0);
        }
    }

    #[test]
    fn mapping_check_reports_coverage_and_range() {
        let tg = TaskGraph::from_model(&two_stage(2, 2, Striping::BY_ROWS, Striping::BY_ROWS));
        let good = TaskMapping {
            nodes: vec![ProcId(0), ProcId(1), ProcId(0), ProcId(1)],
        };
        assert!(good.check(&tg, 2).is_empty());
        assert!(good.idle_nodes(2).is_empty());
        let bad = TaskMapping {
            nodes: vec![ProcId(0), ProcId(5), ProcId(0)],
        };
        let problems = bad.check(&tg, 2);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("covers 3 tasks"));
        assert!(problems[1].contains("a[1] mapped to node 5"));
        assert_eq!(bad.idle_nodes(3), vec![1, 2]);
    }

    #[test]
    fn cut_bytes_counts_cross_node_edges() {
        let tg = TaskGraph::from_model(&two_stage(2, 2, Striping::BY_ROWS, Striping::BY_ROWS));
        let same = TaskMapping {
            nodes: vec![ProcId(0); 4],
        };
        assert_eq!(same.cut_bytes(&tg), 0.0);
        let split = TaskMapping {
            nodes: vec![ProcId(0), ProcId(0), ProcId(1), ProcId(1)],
        };
        // Diagonal edges 0->2 and 1->3 both cross.
        assert_eq!(split.cut_bytes(&tg), TOTAL);
    }
}
