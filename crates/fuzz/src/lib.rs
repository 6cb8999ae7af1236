//! sage-fuzz: model-corpus generation and differential soak testing.
//!
//! The SAGE toolchain makes a layered promise: whatever the Designer can
//! express, `sage lint` vets, `sage check` abstractly interprets,
//! codegen turns into a glue program, and the run-time executes — on one
//! process or many, in order or streamed, through faults — without
//! changing the answer. Hand-written example models
//! exercise a handful of points in that space; this crate sweeps it.
//!
//! - [`gen`] derives whole Designer models from a `u64` seed: layered
//!   DAGs and chains with replicated/striped/fan-out ports, mixed
//!   element types, 2-D and 3-D extents, varied striping dimensions and
//!   thread/node counts — emitted as real `.sexpr` source that flows
//!   through the same front door as committed models.
//! - [`diff`] runs every lint/check-clean model across the {local, tcp}
//!   lattice and the scheduling axis demanding bit-identical sink
//!   checksums, soaks it under seeded [`sage_fabric::FaultPlan`]s
//!   demanding bit-exact-or-typed-error, and cross-validates `sage
//!   check` against reality in both directions (static memory
//!   prediction ≥ measured high-water; static rejection ⇒ dynamic
//!   failure).
//! - [`shrink`] greedily minimizes a failing model to a committable
//!   regression fixture.
//! - [`failure`] persists failures (model + fault plan + metadata) for
//!   deterministic replay.
//! - [`report`] renders the campaign deterministically: same seed, same
//!   bytes.
//!
//! The `sage fuzz` CLI subcommand and the repository's property suites
//! (`tests/lint_props.rs`, `tests/check_props.rs`, `tests/fuzz_diff.rs`)
//! are thin wrappers over this crate.

pub mod diff;
pub mod failure;
pub mod gen;
pub mod report;
pub mod shrink;

use diff::{DiffConfig, Verdict};
use gen::{derive_seed, gen_model, GenConfig};
use report::{FuzzReport, ModelReport};
use sage_core::model_io;
use sage_fleet::Spawner;
use std::path::PathBuf;

/// Campaign configuration for [`run_fuzz`].
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Master seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Corpus size.
    pub count: usize,
    /// What each model is run through: iterations, the TCP half of the
    /// lattice (spawns worker processes), seeded fault-injection rounds.
    pub diff: DiffConfig,
    /// Shrink failing models to minimal reproductions.
    pub minimize: bool,
    /// Directory to save failing models (and their shrunk forms) into.
    pub save_failing: Option<PathBuf>,
    /// Generator envelope.
    pub gen: GenConfig,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            seed: 1,
            count: 16,
            diff: DiffConfig::default(),
            minimize: false,
            save_failing: None,
            gen: GenConfig::default(),
        }
    }
}

/// Runs a whole campaign: generate `count` models from `seed`, push each
/// through the differential property suite, optionally shrink and save
/// failures. Returns the deterministic report.
///
/// `spawner` provides worker processes for the TCP half of the lattice;
/// without one (or with `opts.diff.tcp == false`) the sweep is local-only.
pub fn run_fuzz(opts: &FuzzOptions, spawner: Option<&Spawner<'_>>) -> FuzzReport {
    let cfg = &opts.diff;
    let mut models = Vec::with_capacity(opts.count);
    for index in 0..opts.count {
        let seed = derive_seed(opts.seed, index);
        let gm = gen_model(seed, &opts.gen);
        let mut outcome = diff::run_diff(&gm.source, gm.nodes, cfg, seed, spawner);

        if outcome.verdict == Verdict::Failed {
            if let Some(dir) = &opts.save_failing {
                let first = &outcome.failures[0];
                let repro = failure::Repro {
                    seed,
                    nodes: gm.nodes,
                    iterations: cfg.iterations,
                    cell: first.cell.clone(),
                    message: first.message.clone(),
                    source: gm.source.clone(),
                    plan: first.plan.clone(),
                };
                if let Ok(stem) = failure::save_repro(dir, &repro) {
                    outcome.failures[0].message =
                        format!("{} (saved: {})", first.message, stem.display());
                }
            }
            if opts.minimize {
                let (small, small_nodes) = shrink::minimize(&gm.app, gm.nodes, |app, nodes| {
                    let source = model_io::model_to_sexpr(app);
                    diff::run_diff(&source, nodes, cfg, seed, spawner).verdict == Verdict::Failed
                });
                let small_source = model_io::model_to_sexpr(&small);
                if let Some(dir) = &opts.save_failing {
                    let _ = std::fs::create_dir_all(dir);
                    let _ = std::fs::write(
                        dir.join(format!("fuzz-{seed:016x}-min.sexpr")),
                        &small_source,
                    );
                }
                outcome.failures.push(diff::Failure {
                    cell: "shrinker".into(),
                    message: format!(
                        "minimized to {} blocks on {} nodes",
                        small.block_count(),
                        small_nodes
                    ),
                    plan: None,
                });
            }
        }

        models.push(ModelReport {
            index,
            seed,
            name: gm.app.name.clone(),
            nodes: gm.nodes,
            seeded_violation: gm.seeded_violation,
            seeded_race: gm.seeded_race,
            outcome,
        });
    }
    FuzzReport {
        master_seed: opts.seed,
        count: opts.count,
        iterations: cfg.iterations,
        tcp: cfg.tcp,
        models,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_deterministic_and_clean() {
        let opts = FuzzOptions {
            seed: 11,
            count: 6,
            ..FuzzOptions::default()
        };
        let a = run_fuzz(&opts, None);
        let b = run_fuzz(&opts, None);
        assert_eq!(a.render(), b.render(), "same seed must render identically");
        assert_eq!(a.failed(), 0, "campaign found failures:\n{}", a.render());
        assert!(a.lint_clean() > 0);
    }
}
