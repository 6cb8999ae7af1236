//! AToT mapping ablation (§1.1): the genetic-algorithm mapper against the
//! baseline mappers on the STAP-like pipeline, plus an architecture trade
//! study across the vendor platforms.

use sage_apps::stap;
use sage_atot::{baselines, ga, GaConfig, Scheduler, TaskGraph, TradeStudy};
use sage_model::HardwareShelf;

fn main() {
    let size = 256;
    let threads = 8;
    let nodes = 8;
    let flat = stap::sage_model(size, threads)
        .flatten()
        .expect("model flattens");
    let graph = TaskGraph::from_model(&flat);
    let hw = HardwareShelf::cspi_with_nodes(nodes);
    let scheduler = Scheduler::new(&graph, &hw).expect("the STAP task graph is acyclic");

    println!(
        "AToT mapping study — STAP pipeline ({} tasks) on {} CSPI nodes\n",
        graph.len(),
        nodes
    );
    println!(
        "{:<22} {:>14} {:>14} {:>10}",
        "mapper", "makespan(ms)", "cut(KB)", "imbalance"
    );
    let report = |name: &str, mapping: &sage_atot::TaskMapping| {
        let est = scheduler.estimate(&graph, mapping);
        println!(
            "{:<22} {:>14.3} {:>14.1} {:>10.3}",
            name,
            est.makespan * 1e3,
            est.cut_bytes / 1024.0,
            est.imbalance()
        );
        est.makespan
    };
    let rr = report("round-robin", &baselines::round_robin(&graph, nodes));
    let al = report("aligned", &baselines::aligned(&graph, nodes));
    let rnd = report("random(seed=7)", &baselines::random(&graph, nodes, 7));
    let gr = report("greedy-load (LPT)", &baselines::greedy_load(&graph, nodes));
    let sa = report(
        "simulated annealing",
        &baselines::simulated_annealing(&graph, &scheduler, nodes, 2000, 17),
    );
    let ga_result = ga::optimize(&graph, &scheduler, &GaConfig::default());
    let gam = report("genetic algorithm", &ga_result.mapping);

    println!();
    println!(
        "GA vs baselines: {:.1}% of round-robin, {:.1}% of aligned, {:.1}% of random, \
         {:.1}% of greedy, {:.1}% of annealing",
        100.0 * gam / rr,
        100.0 * gam / al,
        100.0 * gam / rnd,
        100.0 * gam / gr,
        100.0 * gam / sa
    );
    println!(
        "GA fitness improved {:.1}% over {} generations (monotone with elitism)",
        100.0 * (ga_result.history.first().unwrap() - ga_result.history.last().unwrap())
            / ga_result.history.first().unwrap(),
        ga_result.history.len() - 1
    );

    println!("\nArchitecture trade study (AToT 'trades process'):");
    let quick = GaConfig {
        population: 24,
        generations: 30,
        ..GaConfig::default()
    };
    let study = TradeStudy::run(
        &graph,
        &["CSPI", "Mercury", "SKY", "SIGI"],
        &[4, 8, 16],
        &quick,
    )
    .expect("the STAP task graph is acyclic");
    print!("{}", study.render());
    let best = study.best().expect("non-empty study");
    println!(
        "\nselected target architecture: {} x{} ({:.3} ms estimated makespan)",
        best.platform,
        best.nodes,
        best.makespan * 1e3
    );
}
