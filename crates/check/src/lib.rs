//! # sage-check
//!
//! Abstract interpretation of generated glue programs: everything the
//! model-layer lints cannot see because it only exists *after* code
//! generation — the function table, the logical buffer table, the per-node
//! schedules, and the redistribution plans the executor will follow.
//!
//! `sage-lint` proves properties of the *input* (the Designer model and the
//! Alter scripts); this crate proves properties of the *output*, without
//! executing it. Three passes walk the program exactly the way the run-time
//! kernel does:
//!
//! * [`structure`] — symbolic shape/element-count propagation: degenerate
//!   or unstripeable [`LogicalBufferDesc`]s, function-table wiring
//!   (use-before-init `SAGE052`, double-write `SAGE053`), kernel shape and
//!   dtype contracts (`SAGE054`), and transfer-tag field widths
//!   (`SAGE057`);
//! * [`transfers`] — cross-rank transfer matching over the same
//!   [`Redistribution`] plans the executor uses: every send must have
//!   exactly one compatible receive (`SAGE050`), with tag collisions and
//!   byte mismatches as `SAGE051`, each finding naming both endpoints'
//!   task paths;
//! * [`memory`] — per-node memory high-water-mark from buffer live ranges
//!   against the hardware model's DRAM (`SAGE055`) and a per-iteration
//!   bandwidth-feasibility estimate against the link capacities
//!   (`SAGE056`);
//! * [`pipeline`] — cross-iteration hazard analysis over the `delay` arcs:
//!   per-buffer maximum safe pipeline depths (`SAGE060` WAR hazards,
//!   `SAGE061` feedback cycles, `SAGE062` depth-infeasible memory),
//!   emitted as a [`pipeline::PipelinePlan`] artifact that gates the
//!   executor's block-interleaved pipeline-validate mode;
//! * [`race`] — static happens-before race proofs over every input-port
//!   group: unordered overlapping writes (`SAGE070`), read/write races
//!   (`SAGE071`), depth-conditional orderings that cap the pipeline plan
//!   (`SAGE072`), and benign same-value splats (`SAGE073`) — all
//!   cross-validated by the run-time's vector-clock detector
//!   (`sage run --race-detect`).
//!
//! Findings render through `sage-lint`'s diagnostics engine (rustc-style
//! and JSON), with spans back into the model source when a
//! [`ModelSpans`] index is supplied.
//!
//! [`LogicalBufferDesc`]: sage_runtime::LogicalBufferDesc
//! [`Redistribution`]: sage_runtime::Redistribution
//! [`ModelSpans`]: sage_lint::ModelSpans

#![warn(missing_docs)]

pub mod memory;
pub mod pipeline;
pub mod race;
pub mod structure;
pub mod transfers;

use sage_lint::{Diagnostic, Diagnostics, ModelSpans};
use sage_model::HardwareSpec;
use sage_runtime::{GlueProgram, Redistribution};

/// Checks a generated glue program against the hardware model it was
/// generated for, without executing it.
///
/// The program must be structurally sound ([`GlueProgram::validate`]) and
/// match the hardware's node count; otherwise a single `SAGE041` is
/// reported and the deeper passes are skipped.
pub fn check_program(
    program: &GlueProgram,
    hw: &HardwareSpec,
    spans: Option<&ModelSpans>,
) -> Diagnostics {
    let mut diags = Diagnostics::new();
    // Tag-width overflow also fails `validate`; report it under its own
    // code (with the offending block's span) rather than as a bare SAGE041.
    if structure::check_tag_widths(program, spans, &mut diags) {
        return diags;
    }
    if let Err(e) = program.validate() {
        diags.push(
            Diagnostic::error("SAGE041", format!("malformed glue program: {e}")).with_note(
                "the program fails its structural self-checks; abstract \
                 interpretation needs a well-formed program",
            ),
        );
        return diags;
    }
    if program.node_count() != hw.node_count() {
        diags.push(
            Diagnostic::error(
                "SAGE041",
                format!(
                    "program generated for {} nodes, hardware model `{}` has {}",
                    program.node_count(),
                    hw.name,
                    hw.node_count()
                ),
            )
            .with_note("capacity checks need the program and the hardware to agree on the machine"),
        );
        return diags;
    }
    let plans = structure::plan_buffers(program, spans, &mut diags);
    structure::check_wiring(program, &plans, spans, &mut diags);
    structure::check_kernel_contracts(program, &plans, spans, &mut diags);
    transfers::check(program, &plans, spans, &mut diags);
    memory::check(program, hw, &plans, spans, &mut diags);
    let races = race::check(program, &plans, spans, &mut diags);
    pipeline::check(program, hw, &plans, &races.capped, None, spans, &mut diags);
    diags
}

/// Runs only the pipeline-safety pass over a generated program, proving
/// its [`pipeline::PipelinePlan`] and reporting `SAGE060`/`SAGE061`/
/// `SAGE062` findings — with `requested` as the depth the caller intends
/// to run at (depth-infeasibility is judged against it). This is the
/// `sage pipeline` engine; [`check_program`] runs the same pass with no
/// requested depth as part of the full battery.
///
/// The plan is `None` only when the program fails its structural
/// self-checks or disagrees with the hardware model (`SAGE041`).
pub fn check_pipeline(
    program: &GlueProgram,
    hw: &HardwareSpec,
    requested: Option<u32>,
    spans: Option<&ModelSpans>,
) -> (Option<pipeline::PipelinePlan>, Diagnostics) {
    let mut diags = Diagnostics::new();
    if let Err(e) = program.validate() {
        diags.push(Diagnostic::error(
            "SAGE041",
            format!("malformed glue program: {e}"),
        ));
        return (None, diags);
    }
    if program.node_count() != hw.node_count() {
        diags.push(Diagnostic::error(
            "SAGE041",
            format!(
                "program generated for {} nodes, hardware model `{}` has {}",
                program.node_count(),
                hw.name,
                hw.node_count()
            ),
        ));
        return (None, diags);
    }
    let plans = structure::plan_buffers(program, spans, &mut diags);
    // Race caps feed the depth proof but report through `sage race` /
    // `check_program`, not here.
    let races = race::analyze(program, &plans);
    let plan = pipeline::check(
        program,
        hw,
        &plans,
        &races.capped,
        requested,
        spans,
        &mut diags,
    );
    (Some(plan), diags)
}

/// Runs only the happens-before race pass over a generated program,
/// reporting `SAGE070`..`SAGE073` findings plus the proven
/// [`race::RaceAnalysis`] artifact. This is the `sage race` engine;
/// [`check_program`] runs the same pass as part of the full battery.
///
/// The analysis is `None` only when the program fails its structural
/// self-checks (`SAGE041`).
pub fn check_race(
    program: &GlueProgram,
    spans: Option<&ModelSpans>,
) -> (Option<race::RaceAnalysis>, Diagnostics) {
    let mut diags = Diagnostics::new();
    if let Err(e) = program.validate() {
        diags.push(Diagnostic::error(
            "SAGE041",
            format!("malformed glue program: {e}"),
        ));
        return (None, diags);
    }
    let plans = structure::plan_buffers(program, spans, &mut diags);
    let races = race::check(program, &plans, spans, &mut diags);
    (Some(races), diags)
}

/// The proven [`pipeline::PipelinePlan`] for a well-formed program, with
/// no diagnostics — the artifact-only front door the fuzz harness uses to
/// pick a depth for its pipelined scheduling cell.
///
/// Returns `None` when the program fails its structural self-checks,
/// disagrees with the hardware's node count, or any buffer descriptor is
/// degenerate (all already reported by [`check_program`] as errors).
pub fn pipeline_plan(program: &GlueProgram, hw: &HardwareSpec) -> Option<pipeline::PipelinePlan> {
    if program.validate().is_err() || program.node_count() != hw.node_count() {
        return None;
    }
    let mut scratch = Diagnostics::new();
    let plans = structure::plan_buffers(program, None, &mut scratch);
    if scratch.error_count() > 0 || plans.iter().any(Option::is_none) {
        return None;
    }
    let races = race::analyze(program, &plans);
    Some(pipeline::analyze(program, hw, &plans, &races.capped))
}

/// The proven [`race::RaceAnalysis`] for a well-formed program, with no
/// diagnostics — the artifact-only front door for `sage race --format
/// json` and the fuzz harness's race axis.
///
/// Returns `None` when the program fails its structural self-checks or
/// any buffer descriptor is degenerate (already reported by
/// [`check_program`] as errors).
pub fn race_analysis(program: &GlueProgram) -> Option<race::RaceAnalysis> {
    if program.validate().is_err() {
        return None;
    }
    let mut scratch = Diagnostics::new();
    let plans = structure::plan_buffers(program, None, &mut scratch);
    if scratch.error_count() > 0 || plans.iter().any(Option::is_none) {
        return None;
    }
    Some(race::analyze(program, &plans))
}

/// Predicted per-node memory high-water marks (bytes) for a well-formed
/// program: the static walk behind `SAGE055`, exposed so a dynamic run
/// can be cross-validated against it (the prediction is a documented
/// lower bound for any buffer scheme, so measured peaks must never
/// exceed it — `predicted[node] >= measured[node]` for every node).
///
/// Returns `None` when the program fails its structural self-checks or
/// any buffer descriptor is degenerate (those cases are already reported
/// by [`check_program`] as errors).
pub fn predicted_peaks(program: &GlueProgram) -> Option<Vec<usize>> {
    if program.validate().is_err() {
        return None;
    }
    let mut scratch = Diagnostics::new();
    let plans = structure::plan_buffers(program, None, &mut scratch);
    if scratch.error_count() > 0 || plans.iter().any(Option::is_none) {
        return None;
    }
    Some(
        memory::node_peaks(program, &plans)
            .into_iter()
            .map(|(peak, _)| peak)
            .collect(),
    )
}

/// A human-readable label for a logical buffer: id and both endpoints.
pub(crate) fn buffer_label(program: &GlueProgram, bid: u32) -> String {
    let b = &program.buffers[bid as usize];
    let pf = &program.functions[b.producer as usize];
    let cf = &program.functions[b.consumer as usize];
    format!(
        "buffer {} (`{}.{}` -> `{}.{}`)",
        b.id, pf.name, b.producer_port, cf.name, b.consumer_port
    )
}

/// Per-buffer redistribution plans; `None` where the descriptor is
/// degenerate or unstripeable (already reported by the structure pass).
pub(crate) type BufferPlans = Vec<Option<Redistribution>>;
