//! The static front door: one way from model text to a checked glue
//! program, and the four views `sage lint`, `sage check`, `sage pipeline`
//! and `sage race` take of it.
//!
//! 1. [`load`] — read the s-expression source once (`SAGE007` on failure),
//!    build the model and the span index from the same forms, and run the
//!    model-layer lints; a model the generator would reject stops here with
//!    the findings;
//! 2. [`Loaded::generate`] — lint an explicit task mapping
//!    (`SAGE020`/`SAGE021`/`SAGE031`), generate the glue program for the
//!    placement that will execute, and turn a generator refusal into its
//!    diagnostic;
//! 3. one [`Checker`] session over the program: every pass (`SAGE04x`
//!    deadlock, `SAGE05x` abstract interpretation, `SAGE06x` pipeline
//!    depths, `SAGE07x` races) walks the same plans.
//!
//! [`Project::from_sexpr`] is the un-gated half of step 1 for callers that
//! must stay cheap and are handed already-checked text (the fleet daemon).

use crate::codegen::{CodegenError, Placement};
use crate::model_io::{model_from_forms, read_forms, ModelIoError};
use crate::project::Project;
use sage_alter::Span;
use sage_check::pipeline::PipelinePlan;
use sage_check::race::RaceAnalysis;
use sage_check::Checker;
use sage_lint::{lint_mapping, lint_model, model_error_diag, Diagnostic, Diagnostics, ModelSpans};
use sage_model::HardwareShelf;
use sage_runtime::GlueProgram;

/// A model through step 1: parsed, span-indexed, and past the model-layer
/// lint gate.
pub struct Loaded {
    /// The model on a machine of the requested node count.
    pub project: Project,
    /// Where the model's blocks and ports sit in the source text.
    pub spans: ModelSpans,
    /// Model-layer warnings (idle nodes, fan-out): `sage lint`'s to report,
    /// not `sage check`'s.
    pub warnings: Diagnostics,
}

/// Step 1. `Err` carries the findings that stop the flow: a syntax error,
/// or everything the model-layer lints found once any of it is an error.
pub fn load(src: &str, nodes: usize) -> Result<Loaded, Diagnostics> {
    let unloadable = |e: ModelIoError, at: Option<Span>| {
        let syntax = Diagnostic::error("SAGE007", e.to_string())
            .with_span_opt(at)
            .with_note("fix the file syntax before any deeper analysis can run");
        Diagnostics {
            diags: vec![syntax],
        }
    };
    let forms = read_forms(src).map_err(|(e, at)| unloadable(e, Some(Span::point(at))))?;
    let app = model_from_forms(&forms).map_err(|e| unloadable(e, None))?;
    let project = Project::new(app, HardwareShelf::cspi_with_nodes(nodes));
    let spans = ModelSpans::index(&forms);
    let warnings = lint_model(&project.app, nodes, Some(&spans));
    if warnings.error_count() > 0 {
        // The generator would reject the model anyway; the structural
        // findings are the actionable report.
        return Err(warnings);
    }
    Ok(Loaded {
        project,
        spans,
        warnings,
    })
}

impl Loaded {
    /// Step 2: the glue program for `placement`, with the mapping's own
    /// findings. The program is `None` when the mapping or the generator
    /// reports an error.
    pub fn generate(&self, placement: &Placement) -> (Option<GlueProgram>, Diagnostics) {
        let Project { app, hardware, .. } = &self.project;
        let mut diags = Diagnostics::new();
        if let Placement::Tasks(mapping) = placement {
            match app.flatten() {
                Ok(flat) => diags.extend(lint_mapping(&flat, mapping, hardware.node_count())),
                Err(e) => diags.push(model_error_diag(&e, Some(&self.spans))),
            }
            if diags.error_count() > 0 {
                return (None, diags);
            }
        }
        match crate::codegen::generate(app, hardware, placement) {
            Ok(program) => return (Some(program), diags),
            Err(CodegenError::Model(e)) => diags.push(model_error_diag(&e, Some(&self.spans))),
            Err(CodegenError::Placement(m)) => diags.push(Diagnostic::error("SAGE021", m)),
            Err(CodegenError::Internal(m)) => diags.push(Diagnostic::error(
                "SAGE041",
                format!("malformed glue program: {m}"),
            )),
        }
        (None, diags)
    }
}

/// The body the four views share: steps 1–3 for the aligned placement, one
/// `pass` of the session. Model-layer warnings are kept only on request.
fn view<T>(
    src: &str,
    nodes: usize,
    keep_warnings: bool,
    pass: impl FnOnce(&Checker<'_>) -> (T, Diagnostics),
) -> (Option<GlueProgram>, Option<T>, Diagnostics) {
    let loaded = match load(src, nodes) {
        Ok(loaded) => loaded,
        Err(diags) => return (None, None, diags),
    };
    let (program, generated) = loaded.generate(&Placement::Aligned);
    let mut diags = Diagnostics::new();
    if keep_warnings {
        diags.extend(loaded.warnings);
    }
    diags.extend(generated);
    let proven = program.as_ref().map(|program| {
        let hw = &loaded.project.hardware;
        let (proven, found) = pass(&Checker::new(program, hw, Some(&loaded.spans)));
        diags.extend(found);
        proven
    });
    diags.sort();
    (program, proven, diags)
}

/// Lints a Designer model file (s-expression source) end to end against a
/// machine of `nodes` processors: the model-layer findings, then the
/// communication-deadlock pass over the program the model generates.
pub fn lint_model_source(src: &str, nodes: usize) -> Diagnostics {
    view(src, nodes, true, |c| ((), c.deadlock())).2
}

/// Checks a Designer model file end to end: code generation for a machine
/// of `nodes` processors followed by abstract interpretation of the
/// generated program. Model-layer warnings belong to `sage lint` and are
/// not repeated.
pub fn check_model_source(src: &str, nodes: usize) -> Diagnostics {
    checked_program(src, nodes).1
}

/// [`check_model_source`], but also returning the generated glue program
/// whenever code generation succeeded — for tooling that wants both the
/// static verdict and the artifact it was issued about (the differential
/// fuzz harness cross-validates the predictions against a real run of
/// exactly this program). The program is returned even when the
/// interpreter reports findings on it.
pub fn checked_program(src: &str, nodes: usize) -> (Option<GlueProgram>, Diagnostics) {
    let (program, _, diags) = view(src, nodes, false, |c| ((), c.check()));
    (program, diags)
}

/// Proves a model's pipeline-safety plan the way `sage pipeline` runs it:
/// *only* the pipeline pass — `SAGE060`/`SAGE061`/`SAGE062` judged against
/// `depth` (the depth the caller intends to run at; `None` asks only
/// whether double-buffering fits). The plan is `None` whenever the front
/// door fails; the diagnostics say why.
pub fn pipeline_model_source(
    src: &str,
    nodes: usize,
    depth: Option<u32>,
) -> (Option<PipelinePlan>, Diagnostics) {
    let (_, plan, diags) = view(src, nodes, false, |c| c.pipeline(depth));
    (plan.flatten(), diags)
}

/// Proves a model's happens-before race story the way `sage race` runs it:
/// *only* the race pass — `SAGE070`..`SAGE073` plus the [`RaceAnalysis`]
/// artifact (graph sizes, depth caps), `None` whenever the front door
/// fails.
pub fn race_model_source(src: &str, nodes: usize) -> (Option<RaceAnalysis>, Diagnostics) {
    let (_, analysis, diags) = view(src, nodes, false, |c| c.race());
    (analysis.flatten(), diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_io::model_to_sexpr;

    const EXAMPLES: [&str; 4] = [
        "../../examples/models/corner_turn_256.sexpr",
        "../../examples/models/fft2d_64.sexpr",
        "../../examples/models/image_filter_128.sexpr",
        "../../examples/models/stap_128.sexpr",
    ];

    #[test]
    fn clean_model_source_is_clean_through_every_view() {
        let src = model_to_sexpr(&crate::codegen::tests::demo_app(4));
        for d in [lint_model_source(&src, 4), check_model_source(&src, 4)] {
            assert!(d.is_empty(), "{}", d.render("demo.sexpr", Some(&src)));
        }
    }

    #[test]
    fn example_models_in_tree_are_lint_and_check_clean() {
        for path in EXAMPLES {
            let src = std::fs::read_to_string(path).expect(path);
            for d in [lint_model_source(&src, 4), check_model_source(&src, 4)] {
                assert!(d.is_empty(), "{path}:\n{}", d.render(path, Some(&src)));
            }
        }
    }

    #[test]
    fn unloadable_source_reports_sage007_through_every_view() {
        let src = "(model \"x\"";
        for d in [
            lint_model_source(src, 4),
            check_model_source(src, 4),
            pipeline_model_source(src, 4, None).1,
            race_model_source(src, 4).1,
        ] {
            assert_eq!(d.diags.len(), 1);
            assert_eq!(d.diags[0].code, "SAGE007");
            assert_eq!(d.diags[0].span, Some(Span::point(0)), "the unclosed `(`");
        }
        // A file that reads but is no model has no one place to point at.
        let d = lint_model_source("(modle \"x\")", 4);
        assert_eq!((d.diags[0].code, d.diags[0].span), ("SAGE007", None));
    }

    #[test]
    fn striping_mismatch_is_caught_with_a_span() {
        // 8 threads on 3 nodes: the acceptance-case striping/node-count
        // mismatch, pointed at the offending block in the source.
        let src = model_to_sexpr(&crate::codegen::tests::demo_app(8));
        let d = lint_model_source(&src, 3);
        assert!(d.diags.iter().any(|x| x.code == "SAGE030"), "{:?}", d.diags);
        let hit = d.diags.iter().find(|x| x.code == "SAGE030").unwrap();
        let span = hit.span.expect("span resolved from source");
        assert!(src[span.start..span.end].contains("fft"));
        assert!(d.fails(true) && !d.fails(false));
        // Model-layer warnings are `sage lint`'s alone.
        assert!(check_model_source(&src, 3).is_empty());
    }

    #[test]
    fn model_layer_errors_gate_the_program_pass() {
        // 8 rows striped over 3 threads is a model-layer error: the check
        // driver reports the model findings and never reaches the program
        // pass.
        let src = model_to_sexpr(&crate::codegen::tests::demo_app(3));
        let d = check_model_source(&src, 3);
        assert!(
            d.error_count() > 0,
            "{}",
            d.render("demo.sexpr", Some(&src))
        );
        assert!(d.diags.iter().all(|x| !x.code.starts_with("SAGE05")));
    }

    #[test]
    fn the_placement_that_runs_is_the_placement_that_is_linted() {
        // Every thread of fft2d_64 piled onto node 0 of a 4-node machine:
        // the mapping lint sees three idle nodes, the aligned placement of
        // the same model sees none.
        let src = std::fs::read_to_string(EXAMPLES[1]).unwrap();
        let loaded = load(&src, 4).expect("loads");
        assert!(loaded.warnings.is_empty());
        let (program, d) = loaded.generate(&Placement::Aligned);
        assert!(program.is_some() && d.is_empty(), "{:?}", d.diags);

        let tasks = sage_atot::TaskGraph::from_model(&loaded.project.app.flatten().unwrap()).len();
        let piled = Placement::Tasks(sage_atot::TaskMapping {
            nodes: vec![sage_model::ProcId(0); tasks],
        });
        let (program, d) = loaded.generate(&piled);
        assert!(program.is_some(), "idle nodes only warn");
        let codes: Vec<_> = d.diags.iter().map(|x| x.code).collect();
        assert_eq!(codes, ["SAGE031"]);

        // A mapping naming a node the hardware lacks never reaches codegen.
        let off = Placement::Tasks(sage_atot::TaskMapping {
            nodes: vec![sage_model::ProcId(9); tasks],
        });
        let (program, d) = loaded.generate(&off);
        assert!(program.is_none());
        assert_eq!(d.error_count(), tasks);
        assert!(d.diags.iter().any(|x| x.code == "SAGE021"), "{:?}", d.diags);
    }
}
