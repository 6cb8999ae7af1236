//! Baseline mappers AToT's GA is compared against (and seeded with).

use crate::taskgraph::{TaskGraph, TaskMapping};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage_model::ProcId;

/// Tasks dealt out `0, 1, 2, ... n-1, 0, 1, ...` in task order.
pub fn round_robin(graph: &TaskGraph, nodes: usize) -> TaskMapping {
    assert!(nodes > 0);
    TaskMapping {
        nodes: (0..graph.len())
            .map(|i| ProcId((i % nodes) as u32))
            .collect(),
    }
}

/// Thread-aligned mapping: thread `t` of every function goes to node
/// `t % nodes`. For SPMD dataflow apps this colocates matching stripes and
/// is the natural hand-mapping an engineer would draw in the Designer.
pub fn aligned(graph: &TaskGraph, nodes: usize) -> TaskMapping {
    assert!(nodes > 0);
    TaskMapping {
        nodes: graph
            .tasks
            .iter()
            .map(|t| ProcId((t.thread as usize % nodes) as u32))
            .collect(),
    }
}

/// Uniform random mapping (seeded).
pub fn random(graph: &TaskGraph, nodes: usize, seed: u64) -> TaskMapping {
    assert!(nodes > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    TaskMapping {
        nodes: (0..graph.len())
            .map(|_| ProcId(rng.random_range(0..nodes) as u32))
            .collect(),
    }
}

/// Greedy load balancing: tasks in descending compute order, each to the
/// currently least-loaded node (LPT). Ignores communication.
pub fn greedy_load(graph: &TaskGraph, nodes: usize) -> TaskMapping {
    assert!(nodes > 0);
    let mut order: Vec<usize> = (0..graph.len()).collect();
    order.sort_by(|&a, &b| graph.tasks[b].flops.total_cmp(&graph.tasks[a].flops));
    let mut load = vec![0.0f64; nodes];
    let mut assignment = vec![ProcId(0); graph.len()];
    for ti in order {
        let (node, _) = load
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assignment[ti] = ProcId(node as u32);
        load[node] += graph.tasks[ti].flops;
    }
    TaskMapping { nodes: assignment }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taskgraph::TaskSpec;
    use sage_model::BlockId;

    fn graph(flops: &[f64]) -> TaskGraph {
        TaskGraph {
            tasks: flops
                .iter()
                .enumerate()
                .map(|(i, &f)| TaskSpec {
                    block: BlockId(0),
                    thread: i as u32,
                    flops: f,
                    mem_bytes: 0.0,
                    name: format!("t{i}"),
                })
                .collect(),
            edges: vec![],
        }
    }

    #[test]
    fn round_robin_deals_evenly() {
        let g = graph(&[1.0; 6]);
        let m = round_robin(&g, 3);
        assert_eq!(
            m.nodes,
            vec![
                ProcId(0),
                ProcId(1),
                ProcId(2),
                ProcId(0),
                ProcId(1),
                ProcId(2)
            ]
        );
    }

    #[test]
    fn aligned_follows_thread_index() {
        let g = graph(&[1.0; 4]);
        let m = aligned(&g, 2);
        assert_eq!(m.nodes, vec![ProcId(0), ProcId(1), ProcId(0), ProcId(1)]);
    }

    #[test]
    fn random_is_seeded() {
        let g = graph(&[1.0; 16]);
        assert_eq!(random(&g, 4, 7), random(&g, 4, 7));
        // Different seeds almost surely differ on 16 genes.
        assert_ne!(random(&g, 4, 7), random(&g, 4, 8));
    }

    #[test]
    fn greedy_balances_unequal_tasks() {
        // LPT on [5,4,3,3,3] over 2 nodes: 5 -> n0, 4 -> n1, 3 -> n1,
        // 3 -> n0, 3 -> n1 => loads 8 and 10.
        let g = graph(&[5.0, 4.0, 3.0, 3.0, 3.0]);
        let m = greedy_load(&g, 2);
        let mut load = [0.0f64; 2];
        for (t, p) in m.nodes.iter().enumerate() {
            load[p.index()] += g.tasks[t].flops;
        }
        let mut sorted = load;
        sorted.sort_by(f64::total_cmp);
        assert_eq!(sorted, [8.0, 10.0]);
    }
}

/// Simulated annealing: a single-solution metaheuristic baseline between
/// the greedy mappers and the GA. Starts from round-robin, proposes single
/// task moves, accepts uphill moves with temperature-decayed probability.
/// Deterministic under the seed.
pub fn simulated_annealing(
    graph: &TaskGraph,
    scheduler: &crate::schedule::Scheduler,
    nodes: usize,
    steps: usize,
    seed: u64,
) -> TaskMapping {
    assert!(nodes > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = round_robin(graph, nodes);
    let mut current_cost = scheduler.estimate(graph, &current).makespan;
    let mut best = current.clone();
    let mut best_cost = current_cost;
    let t0 = current_cost.max(f64::MIN_POSITIVE);
    for step in 0..steps {
        let temp = t0 * 0.5f64.powf(8.0 * step as f64 / steps.max(1) as f64);
        let task = rng.random_range(0..graph.len());
        let old = current.nodes[task];
        let new = ProcId(rng.random_range(0..nodes) as u32);
        if new == old {
            continue;
        }
        current.nodes[task] = new;
        let cost = scheduler.estimate(graph, &current).makespan;
        let accept = cost <= current_cost
            || rng.random_bool((-((cost - current_cost) / temp)).exp().clamp(0.0, 1.0));
        if accept {
            current_cost = cost;
            if cost < best_cost {
                best_cost = cost;
                best = current.clone();
            }
        } else {
            current.nodes[task] = old;
        }
    }
    best
}

#[cfg(test)]
mod sa_tests {
    use super::*;
    use crate::schedule::Scheduler;
    use crate::taskgraph::TaskSpec;
    use sage_model::{BlockId, FabricSpec, HardwareSpec, Processor};

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
                bandwidth_mbps: 10.0,
                latency_us: 10.0,
            },
            FabricSpec {
                bandwidth_mbps: 10.0,
                latency_us: 10.0,
            },
        )
    }

    #[test]
    fn annealing_improves_on_a_skewed_start() {
        // Unequal tasks where round-robin is poor: [8,8,1,1,1,1,1,1] on 2
        // nodes round-robins to loads 11/11? -> tasks 0,2,4,6 on n0 = 8+1+1+1
        // = 11. Actually balanced; use [8,8,1,1] -> rr loads 9/9, optimal 9.
        // Make rr bad: [8,1,8,1] -> rr n0 gets 8+8=16, n1 gets 2. SA should
        // find ~9.
        let graph = TaskGraph {
            tasks: [8.0e7, 1.0e7, 8.0e7, 1.0e7]
                .iter()
                .map(|&f| TaskSpec {
                    block: BlockId(0),
                    thread: 0,
                    flops: f,
                    mem_bytes: 0.0,
                    name: "t".into(),
                })
                .collect(),
            edges: vec![],
        };
        let s = Scheduler::new(&graph, &hw(2)).unwrap();
        let rr_cost = s.estimate(&graph, &round_robin(&graph, 2)).makespan;
        let sa = simulated_annealing(&graph, &s, 2, 400, 11);
        let sa_cost = s.estimate(&graph, &sa).makespan;
        assert!(sa_cost < rr_cost, "sa {sa_cost} vs rr {rr_cost}");
        assert!(
            (sa_cost - 0.9).abs() < 1e-9,
            "optimum is 0.9 s, got {sa_cost}"
        );
    }

    #[test]
    fn annealing_is_deterministic() {
        let graph = TaskGraph {
            tasks: (0..6)
                .map(|i| TaskSpec {
                    block: BlockId(0),
                    thread: i,
                    flops: 1.0e7 * (i + 1) as f64,
                    mem_bytes: 0.0,
                    name: "t".into(),
                })
                .collect(),
            edges: vec![],
        };
        let s = Scheduler::new(&graph, &hw(3)).unwrap();
        let a = simulated_annealing(&graph, &s, 3, 200, 5);
        let b = simulated_annealing(&graph, &s, 3, 200, 5);
        assert_eq!(a, b);
    }
}
