//! An AToT architecture trade study: sweep the vendor platforms and node
//! counts for the STAP pipeline, GA-map each point, and pick a target
//! architecture — the "architecture trades process" of paper §1.1.
//!
//! Run with: `cargo run --release --example trade_study`

use sage::prelude::*;
use sage_apps::stap;

fn main() {
    let size = 128;
    let threads = 8;
    let flat = stap::sage_model(size, threads)
        .flatten()
        .expect("model flattens");
    let graph = TaskGraph::from_model(&flat);
    println!(
        "STAP pipeline task graph: {} tasks, {} edges, {:.1} Mflop per data set\n",
        graph.len(),
        graph.edges.len(),
        graph.total_flops() / 1e6
    );

    let ga = GaConfig {
        population: 24,
        generations: 25,
        ..GaConfig::default()
    };
    let study = sage_atot::TradeStudy::run(
        &graph,
        &["CSPI", "Mercury", "SKY", "SIGI"],
        &[2, 4, 8, 16],
        &ga,
    )
    .expect("the task graph of a validated model is acyclic");
    print!("{}", study.render());

    let best = study.best().expect("study is non-empty");
    println!(
        "\nAToT selects: {} with {} nodes ({:.3} ms estimated makespan per data set)",
        best.platform,
        best.nodes,
        best.makespan * 1e3
    );
}
