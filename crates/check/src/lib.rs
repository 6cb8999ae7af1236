//! # sage-check
//!
//! Abstract interpretation of generated glue programs: everything the
//! model-layer lints cannot see because it only exists *after* code
//! generation — the function table, the logical buffer table, the per-node
//! schedules, and the redistribution plans the executor will follow.
//!
//! `sage-lint` proves properties of the *input* (the Designer model and
//! the mapping); this crate proves properties of the
//! *output*, without executing it — every pass over the generated program
//! lives here.
//!
//! One front door, [`Checker`]: a validated session over one program, the
//! hardware it was generated for, and (optionally) the span index of the
//! model source its findings point back into. [`Checker::new`] runs the one
//! preamble — transfer-tag field widths (`SAGE057`),
//! [`GlueProgram::validate`] and the program/hardware node count
//! (`SAGE041`), then every buffer's redistribution plan through the
//! run-time's own planner (`SAGE054` degenerate, `SAGE019` unstripeable) —
//! exactly once, and owns the plans. On them the session builds, once and
//! for the first pass that asks, one order relation: a position per
//! scheduled task, the program-order and lock-step wraparound edges, and a
//! sync edge per planned transfer pair. Every method is a pass that
//! queries it and reports the preamble's findings followed by its own:
//!
//! * [`Checker::deadlock`] — [`deadlock`]: a wait-for cycle among the
//!   order's delay-0 edges (`SAGE040`);
//! * [`Checker::race`] — [`race`]: static happens-before race proofs over
//!   every input-port group, from the order's all-pairs closure (the only
//!   pass that builds it): unordered overlapping writes (`SAGE070`),
//!   read/write races (`SAGE071`), depth-conditional orderings that cap the
//!   pipeline plan (`SAGE072`), and benign same-value splats (`SAGE073`) —
//!   all cross-validated by the run-time's vector-clock detector
//!   (`sage run --race-detect`);
//! * [`Checker::pipeline`] — [`pipeline`]: cross-iteration hazard analysis
//!   over the `delay` arcs: per-buffer maximum safe pipeline depths
//!   (`SAGE060` WAR hazards, `SAGE061` feedback cycles, `SAGE062`
//!   depth-infeasible memory), emitted as a [`pipeline::PipelinePlan`]
//!   artifact that caps the executor's per-buffer rings;
//! * [`Checker::check`] — the full battery `sage check` runs: [`structure`]
//!   (function-table wiring: use-before-init `SAGE052`, double-write
//!   `SAGE053`; kernel shape and dtype contracts `SAGE054`), [`transfers`]
//!   (every send has exactly one compatible receive `SAGE050`, tag
//!   collisions `SAGE051`), [`memory`] (per-node
//!   high-water-mark against DRAM `SAGE055`, per-iteration wire time
//!   against the link capacities `SAGE056`), then the race and pipeline
//!   passes above — the order and the race proof are computed once per
//!   session and shared;
//! * [`Checker::peaks`] — the memory walk's per-node prediction, for
//!   cross-validation against a real run.
//!
//! Findings render through `sage-lint`'s diagnostics engine (rustc-style
//! and JSON), with spans back into the model source when the session holds
//! a [`ModelSpans`] index.
//!
//! [`LogicalBufferDesc`]: sage_runtime::LogicalBufferDesc
//! [`Redistribution`]: sage_runtime::Redistribution
//! [`ModelSpans`]: sage_lint::ModelSpans

#![warn(missing_docs)]

pub mod deadlock;
pub mod memory;
mod order;
pub mod pipeline;
pub mod race;
pub mod structure;
pub mod transfers;

use order::Order;
use sage_lint::{Diagnostic, Diagnostics, ModelSpans};
use sage_model::HardwareSpec;
use sage_runtime::{GlueProgram, Redistribution};
use std::cell::OnceCell;

/// Per-buffer redistribution plans; `None` where the descriptor is
/// degenerate or unstripeable (reported by the preamble).
pub(crate) type BufferPlans = Vec<Option<Redistribution>>;

/// One validated analysis session over a generated program, the hardware
/// model it was generated for, and (optionally) the span index of the model
/// source its findings point into (see the crate docs).
pub struct Checker<'a> {
    program: &'a GlueProgram,
    hw: &'a HardwareSpec,
    spans: Option<&'a ModelSpans>,
    preamble: Diagnostics,
    /// `None` when the program is malformed or disagrees with the hardware:
    /// the passes have nothing sound to walk.
    plans: Option<BufferPlans>,
    /// The one order relation over `plans`, built for the first pass that
    /// asks, and the race analysis proven on it.
    order: OnceCell<Order<'a>>,
    races: OnceCell<race::RaceAnalysis>,
}

impl<'a> Checker<'a> {
    /// Runs the preamble: tag widths, structural self-checks, node count,
    /// then every buffer's redistribution plan.
    pub fn new(
        program: &'a GlueProgram,
        hw: &'a HardwareSpec,
        spans: Option<&'a ModelSpans>,
    ) -> Checker<'a> {
        let mut preamble = Diagnostics::new();
        let plans = plan(program, hw, spans, &mut preamble);
        Checker {
            program,
            hw,
            spans,
            preamble,
            plans,
            order: OnceCell::new(),
            races: OnceCell::new(),
        }
    }

    /// The preamble's findings (all errors) — how every pass's report
    /// begins. A caller staging several passes of one session (the CLI's
    /// pre-flight) looks here to report them once.
    pub fn preamble(&self) -> &Diagnostics {
        &self.preamble
    }

    fn order(&self, plans: &BufferPlans) -> &Order<'a> {
        self.order.get_or_init(|| Order::new(self.program, plans))
    }

    fn races(&self, plans: &BufferPlans) -> &race::RaceAnalysis {
        let order = self.order(plans);
        self.races
            .get_or_init(|| race::analyze(self.program, plans, order))
    }

    /// The full battery (`sage check`): wiring, kernel contracts, transfer
    /// matching, capacity feasibility, races, pipeline hazards.
    pub fn check(&self) -> Diagnostics {
        let mut diags = self.preamble.clone();
        let Some(plans) = &self.plans else {
            return diags;
        };
        let order = self.order(plans);
        structure::check_wiring(self, plans, &mut diags);
        structure::check_kernel_contracts(self, plans, &mut diags);
        transfers::check(self, order, &mut diags);
        memory::check(self, plans, order, &mut diags);
        let races = self.races(plans);
        race::report(self, races, &mut diags);
        pipeline::check(self, plans, order, &races.capped, None, &mut diags);
        diags
    }

    /// The communication-deadlock pass (`SAGE040`) — what `sage lint` runs
    /// over the program a model generates.
    pub fn deadlock(&self) -> Diagnostics {
        let mut diags = self.preamble.clone();
        if let Some(plans) = &self.plans {
            deadlock::check(self, self.order(plans), &mut diags);
        }
        diags
    }

    /// The pipeline-safety pass (`sage pipeline`): proves the
    /// [`pipeline::PipelinePlan`] and reports `SAGE060`/`SAGE061`/`SAGE062`
    /// with `requested` as the depth the caller intends to run at
    /// (depth-infeasibility is judged against it). Race caps feed the depth
    /// proof but report through [`Checker::race`] / [`Checker::check`].
    ///
    /// The plan is `None` only when the preamble stopped at `SAGE057` or
    /// `SAGE041`.
    pub fn pipeline(
        &self,
        requested: Option<u32>,
    ) -> (Option<pipeline::PipelinePlan>, Diagnostics) {
        let mut diags = self.preamble.clone();
        let plan = self.plans.as_ref().map(|plans| {
            // Only a `SAGE072` ordering caps a buffer, and only where the
            // lock-step and the pipelined orders disagree. Without a `delay`
            // arc every access to a port version is at one iteration, and a
            // path of zero weight uses no wraparound edge (each weighs 1),
            // so the two orders agree: the race proof could cap nothing.
            let delayed = self.program.buffers.iter().any(|b| b.delay > 0);
            let races = delayed.then(|| self.races(plans));
            let (order, capped) = (self.order(plans), races.map_or(&[][..], |r| &r.capped));
            pipeline::check(self, plans, order, capped, requested, &mut diags)
        });
        (plan, diags)
    }

    /// The happens-before race pass (`sage race`): `SAGE070`..`SAGE073`
    /// plus the proven [`race::RaceAnalysis`], `None` only when the
    /// preamble stopped at `SAGE057` or `SAGE041`.
    pub fn race(&self) -> (Option<race::RaceAnalysis>, Diagnostics) {
        let mut diags = self.preamble.clone();
        let races = self.plans.as_ref().map(|plans| {
            let races = self.races(plans);
            race::report(self, races, &mut diags);
            races.clone()
        });
        (races, diags)
    }

    /// Predicted per-node memory high-water marks (bytes): the static walk
    /// behind `SAGE055`, exposed so a dynamic run can be cross-validated
    /// against it (the prediction is a documented lower bound for any
    /// buffer scheme, so measured peaks must never exceed it —
    /// `predicted[node] >= measured[node]` for every node).
    ///
    /// `None` unless the preamble is clean.
    pub fn peaks(&self) -> Option<Vec<usize>> {
        let plans = self.plans.as_ref().filter(|_| self.preamble.is_empty())?;
        let peaks = memory::node_peaks(self.program, plans, self.order(plans));
        Some(peaks.into_iter().map(|(peak, _)| peak).collect())
    }
}

/// The one preamble. `None`: the program is malformed or generated for
/// another machine, and `diags` says how.
fn plan(
    program: &GlueProgram,
    hw: &HardwareSpec,
    spans: Option<&ModelSpans>,
    diags: &mut Diagnostics,
) -> Option<BufferPlans> {
    // Tag-width overflow also fails `validate`; report it under its own
    // code (with the offending block's span) rather than as a bare SAGE041.
    if structure::check_tag_widths(program, spans, diags) {
        return None;
    }
    let (nodes, machine) = (program.node_count(), hw.node_count());
    let malformed = match program.validate() {
        Err(e) => Some((
            format!("malformed glue program: {e}"),
            "the program fails its structural self-checks; abstract \
             interpretation needs a well-formed program",
        )),
        Ok(()) if nodes != machine => Some((
            format!(
                "program generated for {nodes} nodes, hardware model `{}` has {machine}",
                hw.name
            ),
            "capacity checks need the program and the hardware to agree on the machine",
        )),
        Ok(()) => None,
    };
    if let Some((message, note)) = malformed {
        diags.push(Diagnostic::error("SAGE041", message).with_note(note));
        return None;
    }
    Some(structure::plan_buffers(program, spans, diags))
}

/// [`Checker::check`] for a caller with one question: checks a generated
/// glue program against the hardware model it was generated for, without
/// executing it.
pub fn check_program(
    program: &GlueProgram,
    hw: &HardwareSpec,
    spans: Option<&ModelSpans>,
) -> Diagnostics {
    Checker::new(program, hw, spans).check()
}

/// The proven [`pipeline::PipelinePlan`] of a program the preamble passes
/// clean, with no diagnostics — what a runner caps its per-buffer ring
/// depths with. `None` otherwise: the pipeline pass itself only warns, so
/// any error is a preamble finding [`check_program`] reports.
pub fn pipeline_plan(program: &GlueProgram, hw: &HardwareSpec) -> Option<pipeline::PipelinePlan> {
    let (plan, diags) = Checker::new(program, hw, None).pipeline(None);
    plan.filter(|_| diags.error_count() == 0)
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
