//! Frequency-domain image filtering with full Visualizer instrumentation:
//! runs the 7-stage low-pass pipeline (three distributed corner turns),
//! verifies the output against the serial reference, and prints the
//! Visualizer report, Gantt chart, and a CSV trace excerpt.
//!
//! Run with: `cargo run --release --example image_filter_demo`

use sage::prelude::*;
use sage_apps::image_filter;
use sage_visualizer::{export, gantt, report, Analysis};

fn main() {
    let size = 64;
    let nodes = 4;
    let radius = 6;
    let project = image_filter::sage_project(size, nodes, radius);
    let (program, _) = project.generate(&Placement::Aligned).expect("codegen");
    let exec = project
        .execute(
            &program,
            TimePolicy::Virtual,
            &RuntimeOptions::paper_faithful().with_probes(true),
            3,
        )
        .expect("execution");

    // Verify the final image against the serial reference.
    let sink_id = (program.functions.len() - 1) as u32;
    let bytes = exec.results.assemble(&program, sink_id, 2).expect("result");
    let out = sage::signal::Matrix::from_vec(size, size, sage::signal::complex::from_bytes(&bytes));
    let err = image_filter::verify(&out, size, radius);
    println!(
        "low-pass filtered a {size}x{size} image on {nodes} nodes (radius {radius}); \
         relative error vs serial reference: {err:.2e}\n"
    );

    let analysis = Analysis::of(&exec.trace);
    println!("{}", report::render(&analysis));
    println!("timeline:");
    print!("{}", gantt::render(&analysis, 72));

    let csv = export::to_csv(&exec.trace);
    let lines: Vec<&str> = csv.lines().collect();
    println!("\ntrace CSV ({} events), first rows:", lines.len() - 1);
    for l in lines.iter().take(8) {
        println!("  {l}");
    }
}
