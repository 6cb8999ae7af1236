//! The MITRE-style cross-vendor comparison (paper §3.1, reference [2]:
//! Games, "Cross-Vendor Parallel Performance"): the same two benchmarks on
//! the four vendor platform models, hand-coded form, over node counts.
//!
//! Absolute numbers are from the platform *models* (plausible late-90s
//! parameters, see `sage-model`'s hardware shelf); the comparison's shape —
//! which vendor wins where and how the gap moves with node count — is the
//! reproduced result.

use sage_apps::dist::run_hand_coded;
use sage_fabric::{MachineSpec, TimePolicy};
use sage_model::HardwareShelf;

/// Virtual seconds per data set of the hand-coded form on this platform's
/// machine model.
fn run(app: &str, hw: &sage_model::HardwareSpec, size: usize) -> f64 {
    let machine = MachineSpec::from_hardware(hw);
    run_hand_coded(machine, TimePolicy::Virtual, size, 3, app == "fft").per_iter_secs
}

fn main() {
    let size = if std::env::var("SAGE_QUICK").is_ok() {
        256
    } else {
        1024
    };
    let vendors = ["CSPI", "Mercury", "SKY", "SIGI"];
    let node_counts = [4usize, 8, 16];

    for app in ["fft", "corner_turn"] {
        println!(
            "\nCross-vendor {} — {size}x{size}, hand-coded, virtual time (ms/data set)",
            if app == "fft" {
                "Parallel 2D FFT"
            } else {
                "Distributed Corner Turn"
            }
        );
        print!("{:<10}", "vendor");
        for n in node_counts {
            print!(" {:>12}", format!("{n} nodes"));
        }
        println!();
        for v in vendors {
            print!("{v:<10}");
            for n in node_counts {
                let hw = HardwareShelf::by_name(v, n).expect("known vendor");
                let t = run(app, &hw, size);
                print!(" {:>12.3}", t * 1e3);
            }
            println!();
        }
    }
    println!("\nexpected shape (MITRE ref [2]): Mercury fastest (clock + RACEway),");
    println!("SKY close behind, CSPI mid-pack, SIGI slowest; corner turn gaps track");
    println!("fabric bandwidth while FFT gaps track CPU clock.");
}
