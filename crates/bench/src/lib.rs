//! # sage-bench
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation (see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results).
//!
//! Binaries (run with `cargo run -p sage-bench --release --bin <name>`):
//!
//! * `table1` — Table 1.0: hand-coded vs SAGE auto-generated, 2D FFT and
//!   corner turn, 256/512/1024 arrays on 4 and 8 CSPI nodes;
//! * `buffer_ablation` — §3.4/§4 claims: the two-node corner-turn hit of
//!   the unique-buffer scheme and the ≥90% optimized run-time;
//! * `cross_vendor` — the MITRE-style cross-vendor comparison (reference
//!   [2]) over the CSPI/Mercury/SKY/SIGI platform models;
//! * `mapping_study` — AToT's GA against baseline mappers (§1.1 ablation);
//! * `pipeline_speedup` — lock-step vs depth-8 streaming in virtual time on
//!   five committed models (see [`pipeline`]).
//!
//! Wall-clock measurement lives in the repo's `benchmark/` package, not
//! here: everything in this crate runs on the virtual clock.

pub mod pipeline;

use sage_apps::experiment::{BenchApp, Table1Cell};

/// The paper's array sizes for Table 1.0.
pub const PAPER_SIZES: [usize; 3] = [256, 512, 1024];

/// The paper's node configurations for Table 1.0.
pub const PAPER_NODES: [usize; 2] = [4, 8];

/// Reduced sizes used by quick (`SAGE_QUICK=1`) runs.
pub const QUICK_SIZES: [usize; 2] = [128, 256];

/// Returns the sweep sizes honouring `SAGE_QUICK`.
pub fn sweep_sizes() -> Vec<usize> {
    if std::env::var("SAGE_QUICK").is_ok() {
        QUICK_SIZES.to_vec()
    } else {
        PAPER_SIZES.to_vec()
    }
}

/// Headline aggregates used in the paper's abstract and conclusions.
pub struct Headline {
    /// Cumulative average "% of hand coded" (paper: 77.5% overall; §3.4
    /// text: average 86% on CSPI).
    pub cumulative_pct: f64,
    /// Per-application average overheads (paper: FFT ~17-20%, corner turn
    /// ~20-25%).
    pub fft_overhead: f64,
    /// See [`Headline::fft_overhead`].
    pub corner_turn_overhead: f64,
}

/// Computes the headline aggregates over a set of Table 1.0 cells.
pub fn headline(cells: &[Table1Cell]) -> Headline {
    let avg = |app: Option<BenchApp>, f: &dyn Fn(&Table1Cell) -> f64| -> f64 {
        let xs: Vec<f64> = cells
            .iter()
            .filter(|c| app.is_none_or(|a| c.app == a))
            .map(f)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    Headline {
        cumulative_pct: avg(None, &|c| c.pct_of_hand()),
        fft_overhead: avg(Some(BenchApp::Fft2d), &|c| c.overhead()),
        corner_turn_overhead: avg(Some(BenchApp::CornerTurn), &|c| c.overhead()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_aggregates() {
        let cells = vec![
            Table1Cell {
                app: BenchApp::Fft2d,
                size: 256,
                nodes: 4,
                hand_secs: 1.0,
                sage_secs: 1.25,
            },
            Table1Cell {
                app: BenchApp::CornerTurn,
                size: 256,
                nodes: 4,
                hand_secs: 1.0,
                sage_secs: 2.0,
            },
        ];
        let h = headline(&cells);
        assert!((h.cumulative_pct - 65.0).abs() < 1e-9); // (80+50)/2
        assert!((h.fft_overhead - 0.25).abs() < 1e-9);
        assert!((h.corner_turn_overhead - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_sizes_default_to_paper() {
        // (environment-dependent, but SAGE_QUICK is unset in CI tests)
        if std::env::var("SAGE_QUICK").is_err() {
            assert_eq!(sweep_sizes(), vec![256, 512, 1024]);
        }
    }
}
