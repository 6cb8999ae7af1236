//! The STAP-flavoured radar pipeline, mapped by AToT's genetic algorithm
//! and instrumented with the Visualizer — the workflow the paper's
//! introduction promises (design → optimize → generate → visualize).
//!
//! Run with: `cargo run --release --example radar_pipeline`

use sage::prelude::*;
use sage_apps::stap;
use sage_visualizer::{gantt, Analysis};

fn main() {
    let size = 128;
    let nodes = 4;
    let project = stap::sage_project(size, nodes);

    // AToT: GA-based partitioning and mapping.
    let ga = GaConfig {
        population: 32,
        generations: 40,
        ..GaConfig::default()
    };
    let mapping = project.auto_map(&ga).expect("AToT mapping");
    println!(
        "AToT mapped {} tasks across {} nodes",
        mapping.nodes.len(),
        nodes
    );

    // Generate and execute with probes enabled.
    let (exec, _) = project
        .run(
            &Placement::Tasks(mapping),
            TimePolicy::Virtual,
            &RuntimeOptions::paper_faithful().with_probes(true),
            4,
        )
        .expect("pipeline runs");

    // Visualizer: performance displays, bottleneck search, latency check.
    let analysis = Analysis::of(&exec.trace);
    println!(
        "\nper-iteration latency: {:.3} ms (mean over {} iterations), period {:.3} ms",
        analysis.mean_latency() * 1e3,
        analysis.latencies.len(),
        analysis.mean_period() * 1e3
    );
    println!("\nnode utilization:");
    for (node, u) in &analysis.utilization {
        println!("  node {node}: {:5.1}%", u * 100.0);
    }
    if let Some(b) = analysis.top_bottleneck() {
        println!(
            "\ntop bottleneck: function F{} on node {} ({:.3} ms busy, {:.1}% of the run)",
            b.fn_id,
            b.node,
            b.busy_secs * 1e3,
            b.share * 100.0
        );
    }
    let threshold = analysis.mean_latency() * 1.05;
    let violations = analysis.latency_violations(threshold);
    println!(
        "\nlatency threshold {:.3} ms: {} violation(s)",
        threshold * 1e3,
        violations.len()
    );

    println!("\nexecution timeline (Gantt):");
    print!("{}", gantt::render(&analysis, 72));
}
