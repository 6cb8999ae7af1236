//! The genetic-algorithm mapper.
//!
//! Chromosome = one node id per task. Fitness = estimated makespan from the
//! list scheduler plus a weighted communication-volume term and a penalty
//! for violating the latency constraint — "load balancing of CPU resources,
//! optimizing over latency constraints, communication minimization" (paper
//! §1.1). Deterministic under a fixed seed.

use crate::baselines;
use crate::schedule::Scheduler;
use crate::taskgraph::{TaskGraph, TaskMapping};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage_model::ProcId;

/// GA hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Generations to evolve.
    pub generations: usize,
    /// Tournament size for selection.
    pub tournament: usize,
    /// Per-gene mutation probability.
    pub mutation: f64,
    /// Elite individuals copied unchanged each generation.
    pub elitism: usize,
    /// Weight (seconds per byte) of the communication-volume term.
    pub comm_weight: f64,
    /// Optional latency (makespan) constraint in seconds; violations are
    /// penalized proportionally.
    pub latency_constraint: Option<f64>,
    /// RNG seed (the GA is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 48,
            generations: 120,
            tournament: 3,
            mutation: 0.05,
            elitism: 2,
            comm_weight: 0.0,
            latency_constraint: None,
            seed: 0x5a6e,
        }
    }
}

/// The GA's outcome.
#[derive(Clone, Debug)]
pub struct GaResult {
    /// Best mapping found.
    pub mapping: TaskMapping,
    /// Its fitness (lower is better).
    pub fitness: f64,
    /// Its estimated makespan.
    pub makespan: f64,
    /// Best fitness per generation (monotone non-increasing with elitism).
    pub history: Vec<f64>,
}

/// Runs the GA, returning the best mapping found.
///
/// # Panics
/// Panics if the graph is empty or the hardware has no nodes.
pub fn optimize(graph: &TaskGraph, scheduler: &Scheduler, config: &GaConfig) -> GaResult {
    assert!(!graph.is_empty(), "nothing to map");
    let nodes = scheduler.node_count();
    assert!(nodes > 0);
    let genes = graph.len();
    let mut rng = StdRng::seed_from_u64(config.seed);

    let fitness_of = |m: &TaskMapping| -> (f64, f64) {
        let est = scheduler.estimate(graph, m);
        let mut fit = est.makespan + config.comm_weight * est.cut_bytes;
        if let Some(limit) = config.latency_constraint {
            if est.makespan > limit {
                fit += 10.0 * (est.makespan - limit);
            }
        }
        (fit, est.makespan)
    };

    // Seed the population with the baseline mappers plus random individuals,
    // so the GA never loses to its own baselines.
    let mut pop: Vec<Vec<ProcId>> = Vec::with_capacity(config.population);
    pop.push(baselines::round_robin(graph, nodes).nodes);
    pop.push(baselines::aligned(graph, nodes).nodes);
    pop.push(baselines::greedy_load(graph, nodes).nodes);
    while pop.len() < config.population.max(4) {
        pop.push(
            (0..genes)
                .map(|_| ProcId(rng.random_range(0..nodes) as u32))
                .collect(),
        );
    }

    let mut scored: Vec<(f64, f64, Vec<ProcId>)> = pop
        .into_iter()
        .map(|genome| {
            let m = TaskMapping {
                nodes: genome.clone(),
            };
            let (fit, ms) = fitness_of(&m);
            (fit, ms, genome)
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut history = Vec::with_capacity(config.generations);
    for _ in 0..config.generations {
        history.push(scored[0].0);
        let mut next: Vec<(f64, f64, Vec<ProcId>)> =
            scored.iter().take(config.elitism).cloned().collect();
        while next.len() < scored.len() {
            let a = tournament(&scored, config.tournament, &mut rng);
            let b = tournament(&scored, config.tournament, &mut rng);
            // Uniform crossover.
            let mut child: Vec<ProcId> = (0..genes)
                .map(|g| {
                    if rng.random_bool(0.5) {
                        scored[a].2[g]
                    } else {
                        scored[b].2[g]
                    }
                })
                .collect();
            // Mutation.
            for gene in child.iter_mut() {
                if rng.random_bool(config.mutation) {
                    *gene = ProcId(rng.random_range(0..nodes) as u32);
                }
            }
            let m = TaskMapping {
                nodes: child.clone(),
            };
            let (fit, ms) = fitness_of(&m);
            next.push((fit, ms, child));
        }
        next.sort_by(|a, b| a.0.total_cmp(&b.0));
        scored = next;
    }
    history.push(scored[0].0);

    let best = &scored[0];
    GaResult {
        mapping: TaskMapping {
            nodes: best.2.clone(),
        },
        fitness: best.0,
        makespan: best.1,
        history,
    }
}

fn tournament(scored: &[(f64, f64, Vec<ProcId>)], k: usize, rng: &mut StdRng) -> usize {
    let mut best = rng.random_range(0..scored.len());
    for _ in 1..k.max(1) {
        let c = rng.random_range(0..scored.len());
        if scored[c].0 < scored[best].0 {
            best = c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taskgraph::{TaskEdge, TaskSpec};
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
                latency_us: 50.0,
            },
            FabricSpec {
                bandwidth_mbps: 10.0,
                latency_us: 50.0,
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

    /// 8 independent equal tasks on 4 nodes: optimum = 2 tasks per node.
    fn balanced_problem() -> TaskGraph {
        TaskGraph {
            tasks: (0..8).map(|_| task(1e8)).collect(),
            edges: vec![],
        }
    }

    #[test]
    fn ga_finds_balanced_mapping() {
        let graph = balanced_problem();
        let s = Scheduler::new(&graph, &hw(4)).unwrap();
        let r = optimize(&graph, &s, &GaConfig::default());
        // Perfect balance: makespan 2 s.
        assert!((r.makespan - 2.0).abs() < 1e-9, "got {}", r.makespan);
    }

    #[test]
    fn elitism_makes_fitness_monotone() {
        let graph = balanced_problem();
        let s = Scheduler::new(&graph, &hw(4)).unwrap();
        let r = optimize(
            &graph,
            &s,
            &GaConfig {
                generations: 30,
                ..GaConfig::default()
            },
        );
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "fitness regressed: {w:?}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let graph = balanced_problem();
        let s = Scheduler::new(&graph, &hw(4)).unwrap();
        let cfg = GaConfig {
            generations: 20,
            ..GaConfig::default()
        };
        let a = optimize(&graph, &s, &cfg);
        let b = optimize(&graph, &s, &cfg);
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn comm_weight_pulls_chatty_tasks_together() {
        // Two tasks with a huge edge: with comm_weight the GA should
        // colocate them even though splitting balances load.
        let graph = TaskGraph {
            tasks: vec![task(1e6), task(1e6)],
            edges: vec![TaskEdge {
                from: 0,
                to: 1,
                bytes: 1e8,
                feedback: false,
            }],
        };
        let s = Scheduler::new(&graph, &hw(2)).unwrap();
        let r = optimize(
            &graph,
            &s,
            &GaConfig {
                comm_weight: 1e-6,
                ..GaConfig::default()
            },
        );
        assert_eq!(r.mapping.nodes[0], r.mapping.nodes[1]);
    }

    #[test]
    fn ga_beats_or_matches_random_baseline() {
        // Pipeline of unequal tasks with edges.
        let graph = TaskGraph {
            tasks: (0..12)
                .map(|i| task(1e7 * (1.0 + (i % 4) as f64)))
                .collect(),
            edges: (0..11)
                .map(|i| TaskEdge {
                    from: i,
                    to: i + 1,
                    bytes: 1e5,
                    feedback: false,
                })
                .collect(),
        };
        let s = Scheduler::new(&graph, &hw(4)).unwrap();
        let ga = optimize(&graph, &s, &GaConfig::default());
        let rand_m = baselines::random(&graph, 4, 99);
        let rand_est = s.estimate(&graph, &rand_m);
        assert!(ga.makespan <= rand_est.makespan + 1e-12);
    }

    #[test]
    fn latency_constraint_penalizes_fitness() {
        let graph = balanced_problem();
        let s = Scheduler::new(&graph, &hw(1)).unwrap(); // 1 node: makespan 8 s
        let unconstrained = optimize(&graph, &s, &GaConfig::default());
        let constrained = optimize(
            &graph,
            &s,
            &GaConfig {
                latency_constraint: Some(1.0),
                ..GaConfig::default()
            },
        );
        assert!((unconstrained.makespan - 8.0).abs() < 1e-9);
        // Same makespan (no choice on 1 node) but penalized fitness.
        assert!(constrained.fitness > unconstrained.fitness + 10.0);
    }
}
