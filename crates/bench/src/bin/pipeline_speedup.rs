//! The streaming speed-up table: lock-step vs the streaming executor at
//! the statically proven safe depth (capped at 8) on a stage-pipelined
//! 4-node placement, in frames per *virtual* second — deterministic model
//! time, so the lock-step column is bit-reproducible and the speed-up
//! moves only with the streaming scheduler's issue order.

use sage_bench::pipeline::{bench_pipeline, PIPELINE_ITERATIONS, PIPELINE_MODELS, PIPELINE_NODES};

fn main() {
    println!(
        "Streaming speed-up — {PIPELINE_NODES} nodes, {PIPELINE_ITERATIONS} frames, \
         stage-pipelined placement, CSPI model (virtual time)\n"
    );
    println!(
        "{:<18} {:>6} {:>14} {:>14} {:>8}  checksum",
        "model", "depth", "lockstep f/s", "pipelined f/s", "speedup"
    );
    for name in PIPELINE_MODELS {
        match bench_pipeline(name) {
            Ok(p) => println!(
                "{:<18} {:>6} {:>14.1} {:>14.1} {:>7.2}x  {:#018x}",
                name, p.depth, p.lockstep_fps, p.pipelined_fps, p.speedup, p.checksum
            ),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    println!();
    println!("committed (PR 10): 1.71x / 1.47x / 1.52x / 1.69x / 1.39x; each row's sink");
    println!("checksum is checked equal between the lock-step and streaming runs.");
}
