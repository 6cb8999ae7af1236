//! A tour of the glue-code generator (the paper's Figure 1.0 pipeline):
//! the Designer model of the 2D FFT as a model file and as DOT, the
//! generated run-time tables, and the run-time executing them.
//!
//! Run with: `cargo run --release --example codegen_tour`

use sage::prelude::*;
use sage_apps::fft2d;
use sage_core::model_io;

fn main() {
    let model = fft2d::sage_model(256, 8);

    println!("=== Designer model file (s-expression persistence) ===\n");
    let saved = model_io::model_to_sexpr(&model);
    println!("{saved}");
    let reloaded = model_io::model_from_sexpr(&saved).expect("model file parses");
    assert_eq!(model, reloaded);
    println!("(reloaded model is identical to the original)\n");

    println!("=== Designer model (DOT) ===\n");
    println!("{}", sage::model::dot::to_dot(&model));

    println!("=== Glue-code generator: the run-time tables ===\n");
    let project = fft2d::sage_project(256, 8);
    let (program, source) = project.generate(&Placement::Aligned).unwrap();
    println!("{source}");
    println!(
        "program: {} functions, {} logical buffers, schedules for {} nodes\n",
        program.functions.len(),
        program.buffers.len(),
        program.node_count()
    );

    println!("=== Run-time: the tables, executed ===\n");
    let exec = project
        .execute(
            &program,
            TimePolicy::Virtual,
            &RuntimeOptions::paper_faithful(),
            3,
        )
        .unwrap();
    println!(
        "executed {} iterations: {:.3} ms/data set (virtual), {} messages",
        exec.iterations,
        exec.secs_per_iteration() * 1e3,
        exec.report.metrics.total_messages()
    );
}
