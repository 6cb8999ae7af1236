//! What every rank of a distributed job does before it can execute:
//! regenerate the glue program from the shipped model text (the generation
//! pipeline is deterministic, so every rank — and the submitter — derives
//! identical tables and schedules) and bind its kernels. The daemon that
//! calls this lives in `sage-fleet`.

use crate::proto::RankReport;
use sage_core::{Placement, Project};
use sage_fabric::NodeMetrics;
use sage_runtime::{prepare, GlueProgram, Prepared, Registry, RuntimeError};

/// Regenerates one job's glue program from its model text through the
/// un-gated loader ([`Project::from_sexpr`] — the submitter ran the lint
/// gate): parse, place, generate, rank-count check. The project comes back
/// too — its registry is where the job's kernels bind, its hardware what
/// static plans are proved against.
pub fn generate_job(
    model_text: &str,
    ranks: usize,
) -> Result<(Project, GlueProgram), RuntimeError> {
    let project = Project::from_sexpr(model_text, ranks)
        .map_err(|e| RuntimeError::BadProgram(format!("model: {e}")))?;
    let (program, _) = project
        .generate(&Placement::Aligned)
        .map_err(|e| RuntimeError::BadProgram(format!("codegen: {e}")))?;
    if program.node_count() != ranks {
        return Err(RuntimeError::BadProgram(format!(
            "program wants {} nodes, job has {} ranks",
            program.node_count(),
            ranks
        )));
    }
    Ok((project, program))
}

/// Regenerates and prepares one job's program: [`generate_job`], then
/// kernel binding through `register`.
pub fn prepare_job(
    model_text: &str,
    ranks: usize,
    register: &dyn Fn(&mut Registry),
) -> Result<(GlueProgram, Prepared), RuntimeError> {
    let (mut project, program) = generate_job(model_text, ranks)?;
    register(&mut project.registry);
    let prepared = prepare(&program, &project.registry)?;
    Ok((program, prepared))
}

/// Failure report scaffold: everything zeroed except the error.
pub fn failed_report(rank: u32, error: RuntimeError) -> RankReport {
    RankReport {
        rank,
        error: Some(error),
        deposits: Vec::new(),
        wall_secs: 0.0,
        metrics: NodeMetrics::default(),
        links: Vec::new(),
        events: Vec::new(),
    }
}
