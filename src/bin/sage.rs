//! `sage` — command-line driver for the tool suite.
//!
//! ```console
//! $ sage lint     model.sexpr --nodes 8 [--deny-warnings] [--format json] [--explain]
//! $ sage check    model.sexpr --nodes 8 [--deny-warnings] [--format json] [--explain]
//! $ sage pipeline model.sexpr --nodes 8 [--depth D] [--deny-warnings] [--format json]
//!                                             # per-buffer safe pipeline depths
//! $ sage race     model.sexpr --nodes 8 [--deny-warnings] [--format json]
//!                                             # static happens-before race proofs
//! $ sage explain  SAGE050                     # long-form diagnostic description
//! $ sage inspect  model.sexpr                 # validate + DOT view
//! $ sage codegen  model.sexpr --nodes 8       # emit the glue source files
//! $ sage run      model.sexpr --nodes 8 --iters 10 [--optimized] [--real] [--ga]
//!                 [--pipeline D] [--pipeline-validate D] [--race-detect]
//!                 [--unchecked] [--dump-sink F] [--trace F]
//! $ sage launch   model.sexpr --workers 4 --iters 10 [--pipeline D]
//!                 [--heartbeat-ms MS] [--dump-sink F] [--trace F]
//! $ sage fleet    [--listen ADDR]             # persistent multi-job worker daemon
//! $ sage fleet    drain|stats --sched ADDR    # drain the fleet / print service metrics
//! $ sage sched    [--spawn N | --workers A,B,...] [--listen ADDR] [--queue-depth D]
//!                 [--slots S] [--heartbeat-ms MS]
//! $ sage submit   model.sexpr --sched ADDR --ranks N --iters I [--tenant T]
//!                 [--dump-sink F] [--trace F]
//! $ sage export   fft2d|corner_turn|stap|image_filter --size 256 --threads 8 > model.sexpr
//! $ sage fuzz     --seed 42 --count 50 [--iters I] [--transport local|tcp]
//!                 [--fault-rounds R] [--minimize] [--save-failing DIR] [--replay STEM]
//! ```
//!
//! Models are the s-expression files written by `sage_core::model_io`
//! (`export` produces ready-made ones for the built-in applications).
//! `run` registers the ISSPL kernel library, so any model whose blocks
//! reference those kernels executes end to end. `codegen`, `run`, `launch`
//! and `submit` go through one pre-flight: the model is loaded and linted
//! once, the glue program is generated once for the placement that will
//! execute (`--ga` included), and `run`, `launch` and `submit` then
//! abstractly interpret that very program (`sage check`) before executing
//! it, on either transport; error-severity findings refuse the command.
//! `run` executes on the in-process fabric; `launch` executes each rank in
//! its own OS process over loopback TCP: it spawns one `fleet` daemon per
//! rank, runs the one job through an in-process scheduler, and drains the
//! daemons. All three end in the same `sage_runtime::Execution`, so they
//! share one summary line and one tail (sink checksum, streaming credits,
//! `--dump-sink`, `--trace`). `--optimized` and `--race-detect` are `run`'s
//! alone: the optimized preset changes only what a virtual clock is charged,
//! and the vector-clock detector needs every rank in one process — a
//! distributed rank has neither.
//!
//! The fleet commands run the same path as a persistent job service:
//! `fleet` daemons keep their mesh warm across jobs (one started by hand on
//! a remote host is reached via `sched --workers`), `sched` multiplexes
//! many concurrent jobs over it with typed admission control, and `submit`
//! is the client — a submitted job and a launched one are the same
//! messages, so their sink output is bit-identical.

use sage::prelude::*;
use sage_check::pipeline::{depth_str, PipelinePlan};
use sage_core::{check_model_source, lint_model_source, model_from_sexpr, model_io, Project};
use sage_fleet::{JobParams, LaunchOptions};
use sage_lint::Diagnostics;
use sage_net::NetError;
use sage_runtime::{fnv1a_64, Execution, GlueProgram, StreamStats};
use sage_visualizer::{export, gantt, report, Analysis};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sage lint <model.sexpr>... [--nodes N] [--deny-warnings] [--format json] [--explain]\n  \
         sage check <model.sexpr>... [--nodes N] [--deny-warnings] [--format json] [--explain]\n  \
         sage pipeline <model.sexpr>... [--nodes N] [--depth D] [--deny-warnings] [--format json]\n  \
         sage race <model.sexpr>... [--nodes N] [--deny-warnings] [--format json]\n  \
         sage explain [SAGE0xx]...\n  \
         sage inspect <model.sexpr>\n  sage codegen <model.sexpr> [--nodes N]\n  \
         sage run <model.sexpr> [--nodes N] [--iters I] [--optimized] [--real] [--ga]\n           \
         [--pipeline D] [--pipeline-validate D] [--race-detect] [--unchecked]\n           \
         [--dump-sink FILE] [--trace FILE]\n  \
         sage launch <model.sexpr> [--workers N] [--iters I] [--pipeline D]\n              \
         [--heartbeat-ms MS] [--dump-sink FILE] [--trace FILE]\n  \
         sage fleet [--listen ADDR] | sage fleet drain|stats --sched ADDR\n  \
         sage sched [--spawn N | --workers ADDR,ADDR,...] [--listen ADDR]\n             \
         [--queue-depth D] [--slots S] [--heartbeat-ms MS]\n  \
         sage submit <model.sexpr> --sched ADDR [--ranks N] [--iters I] [--tenant T]\n              \
         [--dump-sink FILE] [--trace FILE]\n  \
         sage export <fft2d|corner_turn|stap|image_filter|beamformer|range_doppler> [--size S] [--threads T]\n  \
         sage fuzz [--seed S] [--count N] [--iters I] [--transport local|tcp]\n            \
         [--fault-rounds R] [--minimize] [--save-failing DIR] [--replay STEM]"
    );
    ExitCode::from(2)
}

/// One subcommand: its entry point and the flags it reads, as
/// space-separated names — switches take no value, valued flags exactly
/// one. Anything else on the command line is a typo and is rejected, never
/// ignored.
struct Subcommand {
    run: fn(&Args) -> Result<(), String>,
    switches: &'static str,
    valued: &'static str,
}

/// The subcommand table; `None` for an unknown name.
fn subcommand(cmd: &str) -> Option<Subcommand> {
    let sub = |run, switches, valued| Subcommand {
        run,
        switches,
        valued,
    };
    Some(match cmd {
        "lint" => sub(cmd_lint, "deny-warnings explain", "nodes format"),
        "check" => sub(cmd_check, "deny-warnings explain", "nodes format"),
        "pipeline" => sub(cmd_pipeline, "deny-warnings", "nodes depth format"),
        "race" => sub(cmd_race, "deny-warnings", "nodes format"),
        "explain" => sub(cmd_explain, "", ""),
        "inspect" => sub(cmd_inspect, "", ""),
        "codegen" => sub(cmd_codegen, "", "nodes"),
        "run" => sub(
            cmd_run,
            "optimized real ga race-detect unchecked",
            "nodes iters pipeline pipeline-validate dump-sink trace",
        ),
        "launch" => sub(
            cmd_launch,
            "",
            "workers iters pipeline heartbeat-ms dump-sink trace",
        ),
        "fleet" => sub(cmd_fleet, "", "listen sched"),
        "sched" => sub(
            cmd_sched,
            "",
            "spawn workers listen queue-depth slots heartbeat-ms",
        ),
        "submit" => sub(cmd_submit, "", "sched ranks iters tenant dump-sink trace"),
        "export" => sub(cmd_export, "", "size threads"),
        "fuzz" => sub(
            cmd_fuzz,
            "minimize",
            "seed count iters transport fault-rounds save-failing replay",
        ),
        _ => return None,
    })
}

/// Tiny flag parser: `--key value` pairs plus boolean switches.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `raw` against the flags subcommand `cmd` reads.
    fn parse(cmd: &str, sub: &Subcommand, raw: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                positional.push(a.clone());
                continue;
            };
            let lists = |flags: &str| flags.split_whitespace().any(|f| f == name);
            let value = if lists(sub.switches) {
                None
            } else if lists(sub.valued) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(format!("--{name} needs a value")),
                }
            } else {
                return Err(format!("unknown flag `--{name}` for `sage {cmd}`"));
            };
            flags.push((name.to_string(), value));
        }
        Ok(Args { positional, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// A numeric flag's value; an unparsable one is an error, never the
    /// default.
    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} needs a non-negative integer, got `{v}`"))
            })
            .transpose()
    }

    fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.num(name)?.unwrap_or(default))
    }

    /// A flag that counts from 1 (`--depth`; `--heartbeat-ms`, whose absence
    /// leaves the transport's default period in force).
    fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
        &self,
        name: &str,
    ) -> Result<Option<T>, String> {
        let parsed = |v: &str| v.parse().ok().filter(|n| *n >= T::from(1));
        self.get(name)
            .map(|v| {
                parsed(v).ok_or_else(|| format!("--{name} must be a positive integer, got `{v}`"))
            })
            .transpose()
    }

    /// A count from 1 with a default: node, worker, rank, daemon, slot and
    /// iteration counts, which a zero would leave nothing to run on.
    fn positive_or<T: std::str::FromStr + PartialOrd + From<u8>>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        Ok(self.positive(name)?.unwrap_or(default))
    }

    /// The `--pipeline` streaming knob: `None` means lock-step execution.
    /// Depth 0 is an explicit error, not silent lock-step — the flag's
    /// absence already means lock-step, and depth 1 is a real streaming
    /// mode (a one-iteration window per buffer).
    fn pipeline_depth(&self) -> Result<Option<u32>, String> {
        match self.num::<u32>("pipeline")? {
            Some(0) => Err("--pipeline 0 is not a mode: omit the flag for lock-step \
                 execution, or pass a depth >= 1 to stream (depth 1 streams \
                 with a one-iteration window per buffer)"
                .into()),
            depth => Ok(depth),
        }
    }
}

/// Per-buffer ring-depth caps from a proven pipeline plan.
fn ring_caps(plan: &PipelinePlan) -> Vec<u32> {
    plan.buffers.iter().map(|b| b.safe_depth).collect()
}

/// What a static pass proves beyond its findings (`sage pipeline`'s plan,
/// `sage race`'s analysis) and how the analysis driver publishes it.
struct Artefact<'a, T> {
    /// The JSON key it travels under, beside `"diagnostics"`.
    key: &'static str,
    to_json: fn(&T) -> String,
    /// Called once per file that produced one: prints the text table
    /// unless `json`, and returns whether the artefact itself fails the
    /// file.
    show: &'a dyn Fn(&str, &T, bool) -> bool,
}

/// The per-file driver behind `sage lint|check|pipeline|race`: run
/// `analyze` over one or more model files and report text or JSON. Errors
/// (and warnings under `--deny-warnings`) fail the run; `--explain` appends
/// the long-form description of every code that fired.
fn analyze_files<T>(
    what: &str,
    args: &Args,
    analyze: impl Fn(&str, usize) -> (Option<T>, Diagnostics),
    artefact: Option<Artefact<'_, T>>,
) -> Result<(), String> {
    if args.positional.is_empty() {
        return Err(format!("{what} needs at least one model file"));
    }
    let nodes: usize = args.positive_or("nodes", 4)?;
    let deny_warnings = args.has("deny-warnings");
    let json = match args.get("format") {
        None | Some("text") => false,
        Some("json") => true,
        Some(other) => return Err(format!("unknown --format `{other}` (text|json)")),
    };
    let mut failed = 0usize;
    let mut fired: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for path in &args.positional {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let (proven, diags) = analyze(&source, nodes);
        match (&artefact, json) {
            (None, true) => println!("{}", diags.to_json(path, Some(&source))),
            (Some(a), true) => println!(
                "{{\"{}\":{},\"diagnostics\":{}}}",
                a.key,
                proven.as_ref().map_or("null".to_owned(), a.to_json),
                diags.to_json(path, Some(&source))
            ),
            (None, false) if diags.is_empty() => eprintln!("{path}: clean"),
            (_, false) => {
                eprint!("{}", diags.render(path, Some(&source)));
                if artefact.is_none() {
                    eprintln!("{path}: {}", diags.summary());
                }
            }
        }
        let mut fails = diags.fails(deny_warnings);
        if let (Some(a), Some(proven)) = (&artefact, &proven) {
            fails |= (a.show)(path, proven, json);
        }
        if args.has("explain") {
            fired.extend(diags.diags.iter().map(|d| d.code.to_string()));
        }
        if fails {
            failed += 1;
        }
    }
    for code in &fired {
        eprintln!();
        explain_code(code)?;
    }
    if failed > 0 {
        return Err(format!(
            "{what} failed for {failed} of {} file(s)",
            args.positional.len()
        ));
    }
    Ok(())
}

/// `sage lint`: the model- and script-layer static-analysis suite.
fn cmd_lint(args: &Args) -> Result<(), String> {
    let lint = |src: &str, nodes| (None::<()>, lint_model_source(src, nodes));
    analyze_files("lint", args, lint, None)
}

/// `sage check`: abstract interpretation of the glue program the model
/// generates — transfer matching, shape propagation, capacity feasibility.
fn cmd_check(args: &Args) -> Result<(), String> {
    let check = |src: &str, nodes| (None::<()>, check_model_source(src, nodes));
    analyze_files("check", args, check, None)
}

/// `sage pipeline`: the pipeline-safety pass — per-buffer maximum safe
/// pipeline depths (`SAGE060`/`SAGE061`/`SAGE062`) plus the proven
/// `PipelinePlan` artifact, printed as a table (or as `--format json`'s
/// `"plan"`).
fn cmd_pipeline(args: &Args) -> Result<(), String> {
    use sage_check::pipeline::{DepthLimit, UNBOUNDED};
    let depth: Option<u32> = args.positive("depth")?;
    let table = |path: &str, plan: &PipelinePlan| {
        println!("{path}: `{}` on {} nodes", plan.app_name, plan.nodes);
        for bd in &plan.buffers {
            let why = match &bd.limit {
                DepthLimit::Unbounded => "no cross-iteration constraint".to_owned(),
                DepthLimit::Hazard { delay } => {
                    format!("delay {delay} arc: WAR hazard past lock-step")
                }
                DepthLimit::Cycle { path } => {
                    format!("feedback cycle {}", path.join(" -> "))
                }
                DepthLimit::Race => {
                    "ordering holds only at the lock-step boundary (SAGE072)".to_owned()
                }
            };
            println!(
                "  buffer {:<3} depth {:<9} {why}",
                bd.buffer,
                depth_str(bd.safe_depth)
            );
        }
        println!(
            "  hazard depth {} * memory depth {} -> safe pipeline depth {}",
            depth_str(plan.hazard_depth),
            depth_str(plan.mem_depth),
            depth_str(plan.safe_depth)
        );
        if let Some(want) = depth {
            let verdict = if plan.safe_depth == UNBOUNDED || want <= plan.safe_depth {
                "proven safe"
            } else {
                "NOT proven safe"
            };
            println!("  requested depth {want}: {verdict}");
        }
    };
    let show = |path: &str, plan: &PipelinePlan, json: bool| {
        if !json {
            table(path, plan);
        }
        depth.is_some_and(|want| want > plan.safe_depth)
    };
    analyze_files(
        "pipeline",
        args,
        |src, nodes| sage_core::pipeline_model_source(src, nodes, depth),
        Some(Artefact {
            key: "plan",
            to_json: PipelinePlan::to_json,
            show: &show,
        }),
    )
}

/// `sage race`: the static happens-before race pass — unordered
/// overlapping accesses on fan-in ports (`SAGE070`/`SAGE071`),
/// depth-conditional orderings (`SAGE072`), benign splats (`SAGE073`) —
/// plus the proven analysis artifact (graph sizes, capped buffers).
fn cmd_race(args: &Args) -> Result<(), String> {
    use sage_check::race::RaceAnalysis;
    let show = |path: &str, a: &RaceAnalysis, json: bool| {
        if json {
            return false;
        }
        println!(
            "{path}: happens-before graph of {} positions, {} sync edges",
            a.positions, a.sync_edges
        );
        if a.is_clean() && a.findings.is_empty() {
            println!("  race-free: every overlapping access pair is ordered");
        } else if a.is_clean() {
            println!("  no races; {} warning finding(s)", a.findings.len());
        } else {
            println!("  {} race finding(s) — see diagnostics above", {
                a.findings
                    .iter()
                    .filter(|f| f.code == "SAGE070" || f.code == "SAGE071")
                    .count()
            });
        }
        if !a.capped.is_empty() {
            let ids: Vec<String> = a.capped.iter().map(u32::to_string).collect();
            println!(
                "  pipeline depth capped at 1 for buffer(s) {} (SAGE072)",
                ids.join(", ")
            );
        }
        false
    };
    analyze_files(
        "race",
        args,
        sage_core::race_model_source,
        Some(Artefact {
            key: "race",
            to_json: RaceAnalysis::to_json,
            show: &show,
        }),
    )
}

/// Prints one code's registry entry and long-form description to stderr.
fn explain_code(code: &str) -> Result<(), String> {
    let code = code.to_ascii_uppercase();
    let Some((_, severity, summary)) = sage_lint::CODE_TABLE.iter().find(|(c, _, _)| *c == code)
    else {
        return Err(format!(
            "unknown diagnostic code `{code}` (run `sage explain` for the full registry)"
        ));
    };
    eprintln!("{code} ({severity}): {summary}");
    if let Some(text) = sage_lint::code_explanation(&code) {
        eprintln!("  {text}");
    }
    Ok(())
}

/// `sage explain SAGE0xx...`: long-form diagnostic descriptions; with no
/// arguments, lists the whole registry.
fn cmd_explain(args: &Args) -> Result<(), String> {
    if args.positional.is_empty() {
        for (code, severity, summary) in sage_lint::CODE_TABLE {
            eprintln!("{code} ({severity}): {summary}");
        }
        eprintln!("\nrun `sage explain <code>` for the long-form description");
        return Ok(());
    }
    for (i, code) in args.positional.iter().enumerate() {
        if i > 0 {
            eprintln!();
        }
        explain_code(code)?;
    }
    Ok(())
}

/// One pre-flight stage's verdict: prints the stage's findings; errors
/// abort the command as `what` (the program would not generate, or would
/// fail or deadlock at run time), warnings let it proceed. `cmd` is the
/// subcommand that reports the stage in full.
fn gate(path: &str, text: &str, diags: &Diagnostics, what: &str, cmd: &str) -> Result<(), String> {
    if diags.is_empty() {
        return Ok(());
    }
    eprint!("{}", diags.render(path, Some(text)));
    if diags.error_count() > 0 {
        return Err(format!(
            "{what} ({}); fix the findings above or run `sage {cmd} {path}` for details",
            diags.summary()
        ));
    }
    eprintln!("warning: continuing despite {}", diags.summary());
    Ok(())
}

/// What [`preflight`] hands on to execution: the one parse, the one
/// generated program, and the plan proved about it.
struct Preflight {
    /// The model file's text (what a distributed job ships).
    text: String,
    project: Project,
    /// The program for the placement that executes.
    program: GlueProgram,
    /// Its statically proven pipeline plan: the per-buffer ring-depth caps
    /// of a streaming run.
    plan: Option<PipelinePlan>,
}

/// The static gate in front of `codegen`, `run`, `launch` and `submit`:
/// load the model once, generate once *for the placement that will
/// execute* (`--ga` maps first, and the mapping is linted), then run the
/// deadlock pass and — when `check` — the full `sage check` battery over
/// that very program, on one session.
fn preflight(args: &Args, path: &str, nodes: usize, check: bool) -> Result<Preflight, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // A model that does not load or generate carries the error that says
    // why: the lint gate refuses it.
    let lint_gate = |diags: &Diagnostics| gate(path, &text, diags, "model fails lint", "lint");
    let loaded = match sage_core::load(&text, nodes) {
        Ok(loaded) => loaded,
        Err(diags) => return lint_gate(&diags).and(Err("model does not load".into())),
    };
    let placement = if args.has("ga") {
        let mapping = loaded.project.auto_map(&GaConfig::default());
        Placement::Tasks(mapping.map_err(|e| e.to_string())?)
    } else {
        Placement::Aligned
    };
    let (program, generated) = loaded.generate(&placement);
    let mut lint = loaded.warnings;
    lint.extend(generated);
    lint.sort();
    let Some(program) = program else {
        return lint_gate(&lint).and(Err("model does not generate".into()));
    };
    let checker = sage_check::Checker::new(&program, &loaded.project.hardware, Some(&loaded.spans));
    // With a check stage to follow, what the session's preamble faults (a
    // malformed or unplannable program) is that stage's to report, once —
    // and `--unchecked`'s to skip; the deadlock pass then has nothing sound
    // to add to it.
    if !check || checker.preamble().is_empty() {
        lint.extend(checker.deadlock());
        lint.sort();
    }
    lint_gate(&lint)?;
    if args.has("unchecked") {
        // Escape hatch for cross-validating the static gates against the
        // run-time's own defenses (e.g. a statically proven race against
        // `--race-detect`): skip the pre-run abstract interpretation.
        eprintln!("warning: --unchecked skips `sage check`; the program may fail at run time");
    } else if check {
        let mut diags = checker.check();
        diags.sort();
        let what = "generated program fails check";
        gate(path, &text, &diags, what, "check")?;
    }
    // Only a streaming or pipeline-validate run reads the plan.
    let wants_plan = args.has("pipeline") || args.has("pipeline-validate");
    let plan = wants_plan.then(|| checker.pipeline(None).0).flatten();
    Ok(Preflight {
        text,
        project: loaded.project,
        program,
        plan,
    })
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("inspect needs a model file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let model = model_from_sexpr(&text).map_err(|e| e.to_string())?;
    let flat = model.flatten().map_err(|e| e.to_string())?;
    sage_model::validate(&flat).map_err(|e| e.to_string())?;
    println!(
        "model `{}`: {} blocks ({} after flattening), {} connections — valid",
        model.name,
        model.block_count(),
        flat.block_count(),
        flat.connections().len()
    );
    print!("{}", sage::model::dot::to_dot(&flat));
    Ok(())
}

fn cmd_codegen(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("codegen needs a model file")?;
    let pre = preflight(args, path, args.positive_or("nodes", 4)?, false)?;
    println!("{}", sage::core::render_glue_source(&pre.program));
    Ok(())
}

/// The summary line `run`, `launch` and `submit` share: one [`Execution`],
/// whichever backend produced it. A virtual-clock run is timed by its
/// makespan, a real-clock one by its slowest rank; traffic is counted on
/// the wire where there is one. `lead` prefixes a submitted job's id.
fn summarize(lead: &str, app: &str, hosts: &str, exec: &Execution) {
    let m = &exec.report.metrics;
    let iters = f64::from(exec.iterations.max(1));
    let timing = if exec.report.makespan > 0.0 {
        format!(
            "{:.3} ms/data set (Virtual clock)",
            exec.secs_per_iteration() * 1e3
        )
    } else {
        let slowest = exec.rank_walls.iter().copied().fold(0.0, f64::max);
        format!(
            "{:.3} ms/data set (wall, slowest rank), {:.1} ms in service",
            slowest * 1e3 / iters,
            exec.report.wall.as_secs_f64() * 1e3
        )
    };
    let traffic = if m.links.is_empty() {
        format!(
            "{} messages, {} KB moved",
            m.total_messages(),
            m.total_bytes() / 1024
        )
    } else {
        format!(
            "{} framed messages, {} KB on the wire",
            m.wire_messages(),
            m.wire_bytes() / 1024
        )
    };
    println!(
        "{lead}ran `{app}` on {} {hosts} for {} iterations: {timing}, {traffic}\n",
        exec.rank_walls.len(),
        exec.iterations
    );
}

/// The tail `run`, `launch` and `submit` share: sink checksum, the credit
/// ledger of a streamed run, `--dump-sink`, `--trace`.
fn finish_run(args: &Args, program: &GlueProgram, exec: &Execution) -> Result<(), String> {
    let bytes = exec.results.stream(program, exec.iterations);
    println!(
        "sink output: {} bytes, checksum {:#018x}",
        bytes.len(),
        fnv1a_64(&bytes)
    );
    if exec.stream != StreamStats::default() {
        println!(
            "streaming credits: {} issued / {} retired",
            exec.stream.credits_issued, exec.stream.credits_retired
        );
    }
    if let Some(path) = args.get("dump-sink") {
        std::fs::write(path, &bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote sink output to {path}");
    }
    if let Some(path) = args.get("trace") {
        std::fs::write(path, export::to_csv(&exec.trace))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote trace to {path}");
    }
    Ok(())
}

/// Spawns `sage fleet --listen 127.0.0.1:0` daemon processes out of the
/// currently running binary.
fn spawn_local_fleet(_index: usize) -> std::io::Result<std::process::Child> {
    std::process::Command::new(std::env::current_exe()?)
        .args(["fleet", "--listen", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
}

/// The job a distributed subcommand's flags describe (`launch`, `submit`).
/// Probe events ship back exactly when `--trace` asks for them; a streaming
/// job carries the per-buffer ring caps its pre-flight proved.
fn job_params(args: &Args, pre: &Preflight, iters: u32) -> Result<JobParams, String> {
    let pipeline = args.pipeline_depth()?;
    let mut pipeline_depths = Vec::new();
    if let (Some(_), Some(plan)) = (pipeline, &pre.plan) {
        println!(
            "statically proven safe pipeline depth: {}",
            depth_str(plan.safe_depth)
        );
        pipeline_depths = ring_caps(plan);
    }
    Ok(JobParams {
        probes: args.has("trace"),
        pipeline,
        pipeline_depths,
        ..JobParams::new(&pre.text, iters)
    })
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("run needs a model file")?;
    let nodes: usize = args.positive_or("nodes", 4)?;
    // The pipelined modes are checked before anything runs or prints.
    if args.has("pipeline") && args.has("pipeline-validate") {
        return Err(
            "--pipeline and --pipeline-validate are mutually exclusive: \
             streaming already validates against lock-step output"
                .into(),
        );
    }
    let pipeline = args.pipeline_depth()?;
    let validate = match args.num::<u32>("pipeline-validate")? {
        Some(0) => {
            return Err("--pipeline-validate 0 is not a mode: omit the flag for a \
                 plain lock-step run, or pass depth 1, which validates in \
                 lock-step order and is bit-equivalent to lock-step"
                .into())
        }
        depth => depth,
    };
    let iters: u32 = args.positive_or("iters", 3)?;
    let mut pre = preflight(args, path, nodes, true)?;
    sage::apps::kernels::register_kernels(&mut pre.project.registry);
    let (project, program, plan) = (&pre.project, &pre.program, &pre.plan);
    let options = if args.has("optimized") {
        RuntimeOptions::optimized()
    } else {
        RuntimeOptions::paper_faithful()
    }
    .with_probes(true)
    .with_race_detect(args.has("race-detect"));
    let policy = if args.has("real") {
        TimePolicy::Real
    } else {
        TimePolicy::Virtual
    };
    let exec = project
        .execute(program, policy, &options, iters)
        .map_err(|e| e.to_string())?;
    summarize("", &program.app_name, "nodes", &exec);
    let analysis = Analysis::of(&exec.trace);
    println!("{}", report::render(&analysis));
    if let Some(b) = analysis.top_bottleneck() {
        println!(
            "top bottleneck: F{} on node {} ({:.1}% of the run)\n",
            b.fn_id,
            b.node,
            b.share * 100.0
        );
    }
    print!("{}", gantt::render(&analysis, 72));
    // Both pipelined modes re-execute the program and hold the sink stream
    // to the lock-step run above, the oracle: it must be bit-identical.
    let replay = |what: &str, options: RuntimeOptions, hint: &str| {
        let run = project
            .execute(program, policy, &options, iters)
            .map_err(|e| format!("{what}: {e}"))?;
        let lockstep = exec.results.stream(program, iters);
        let replayed = run.results.stream(program, iters);
        if lockstep != replayed {
            return Err(format!(
                "{what}: sink stream diverged from lock-step ({:#018x} vs {:#018x}){hint}",
                fnv1a_64(&lockstep),
                fnv1a_64(&replayed)
            ));
        }
        Ok((run, fnv1a_64(&lockstep)))
    };
    if let Some(depth) = pipeline {
        // Streaming run: per-buffer rings capped by the static safety
        // plan, continuous issue with credit-based backpressure.
        if let Some(plan) = plan {
            println!(
                "statically proven safe pipeline depth: {} (requested {depth})",
                depth_str(plan.safe_depth)
            );
        }
        let caps = plan.as_ref().map(ring_caps).unwrap_or_default();
        let streamed = options
            .clone()
            .with_pipeline(depth)
            .with_pipeline_depths(caps);
        let (streaming, checksum) = replay(&format!("pipeline depth {depth}"), streamed, "")?;
        let frames = |e: &Execution| {
            let secs = match policy {
                TimePolicy::Virtual => e.report.makespan,
                TimePolicy::Real => e.report.wall.as_secs_f64(),
            };
            f64::from(iters) / secs.max(1e-9)
        };
        let (fps, base) = (frames(&streaming), frames(&exec));
        println!(
            "pipeline depth {depth}: {fps:.1} frames/s vs {base:.1} lock-step \
             ({:.2}x), {} credits issued / {} retired, bit-identical to \
             lock-step (checksum {checksum:#018x})",
            fps / base.max(1e-9),
            streaming.stream.credits_issued,
            streaming.stream.credits_retired,
        );
    }
    if let Some(depth) = validate {
        if let Some(plan) = plan {
            println!(
                "statically proven safe pipeline depth: {}",
                depth_str(plan.safe_depth)
            );
        }
        let (_, checksum) = replay(
            &format!("pipeline-validate depth {depth}"),
            options.clone().with_pipeline_validate(depth),
            " — the depth exceeds what the program can sustain",
        )?;
        println!(
            "pipeline-validate depth {depth}: bit-identical to lock-step \
             (checksum {checksum:#018x})"
        );
    }
    finish_run(args, program, &exec)
}

/// `sage launch`: run a pre-flighted model across freshly spawned daemon
/// processes over loopback TCP.
fn cmd_launch(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("launch needs a model file")?;
    let workers: usize = args.positive_or("workers", 4)?;
    let iters: u32 = args.positive_or("iters", 3)?;
    let pre = preflight(args, path, workers, true)?;
    let opts = LaunchOptions {
        workers,
        heartbeat_ms: args.positive("heartbeat-ms")?,
        params: job_params(args, &pre, iters)?,
    };
    let exec = sage::fleet::launch(&opts, &spawn_local_fleet).map_err(|e| e.to_string())?;
    summarize("", &pre.program.app_name, "worker processes", &exec);
    finish_run(args, &pre.program, &exec)
}

/// `sage fleet`: with no subcommand, run one persistent worker daemon
/// (serves jobs until drained, then exits 0). `fleet drain` and
/// `fleet stats` are clients of a running `sage sched`.
fn cmd_fleet(args: &Args) -> Result<(), String> {
    match args.positional.first().map(String::as_str) {
        None => {
            let listen = args.get("listen").unwrap_or("127.0.0.1:0");
            sage::fleet::serve_fleet(listen, &|reg| {
                sage::apps::kernels::register_kernels(reg);
            })
            .map_err(|e| e.to_string())
        }
        Some("drain") => {
            let addr = args.get("sched").ok_or("fleet drain needs --sched ADDR")?;
            let n = sage::fleet::drain_fleet(addr).map_err(|e| e.to_string())?;
            println!("fleet drained: {n} jobs completed over its lifetime");
            Ok(())
        }
        Some("stats") => {
            let addr = args.get("sched").ok_or("fleet stats needs --sched ADDR")?;
            let s = sage::fleet::fleet_stats(addr).map_err(|e| e.to_string())?;
            println!(
                "fleet: {}/{} workers live, {} queued (high water {}), {} active",
                s.workers_live, s.workers, s.queue_depth, s.queue_high_water, s.active
            );
            println!(
                "jobs: {} accepted, {} completed, {} failed, {} rejected \
                 (queue-full {}, insufficient-workers {}, draining {}, version {})",
                s.accepted,
                s.completed,
                s.failed,
                s.rejected_total(),
                s.rejected_queue_full,
                s.rejected_insufficient,
                s.rejected_draining,
                s.rejected_version
            );
            for t in &s.tenants {
                let name = if t.tenant.is_empty() {
                    "(anonymous)"
                } else {
                    &t.tenant
                };
                println!(
                    "  tenant {name}: {} accepted, {} completed, {} failed, {} rejected",
                    t.accepted, t.completed, t.failed, t.rejected
                );
            }
            Ok(())
        }
        Some(other) => Err(format!("unknown fleet subcommand `{other}` (drain|stats)")),
    }
}

/// `sage sched`: connect to (or spawn) a fleet and serve the job-submission
/// protocol until a client drains it — then exit 0.
fn cmd_sched(args: &Args) -> Result<(), String> {
    let cfg = sage::fleet::SchedConfig {
        queue_depth: args.num_or("queue-depth", 128)?,
        slots_per_worker: args.positive_or("slots", 64)?,
        heartbeat_ms: args.positive("heartbeat-ms")?,
    };
    let (children, addrs) = if let Some(list) = args.get("workers") {
        let addrs = list
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        (Vec::new(), addrs)
    } else {
        sage::fleet::spawn_daemons(args.positive_or("spawn", 4)?, &spawn_local_fleet)
            .map_err(|e| e.to_string())?
    };
    let result = (|| {
        let sched = sage::fleet::Scheduler::connect(&addrs, cfg).map_err(|e| e.to_string())?;
        let listen = args.get("listen").unwrap_or("127.0.0.1:0");
        let listener = std::net::TcpListener::bind(listen)
            .map_err(|e| format!("cannot bind {listen}: {e}"))?;
        sage::fleet::serve_sched(listener, sched).map_err(|e| e.to_string())
    })();
    for mut child in children {
        if result.is_err() {
            let _ = child.kill();
        }
        // Drained workers exit 0 on their own.
        let _ = child.wait();
    }
    result
}

/// `sage submit`: ship one job to a running scheduler and merge the
/// per-rank reports exactly as `launch` does.
fn cmd_submit(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("submit needs a model file")?;
    let addr = args.get("sched").ok_or("submit needs --sched ADDR")?;
    let ranks: usize = args.positive_or("ranks", 4)?;
    let iters: u32 = args.positive_or("iters", 3)?;
    let pre = preflight(args, path, ranks, true)?;
    let spec = sage::fleet::SubmitSpec {
        tenant: args.get("tenant").unwrap_or("").to_string(),
        ..sage::fleet::SubmitSpec::with_params(job_params(args, &pre, iters)?, ranks as u32)
    };
    let outcome = sage::fleet::submit(addr, &spec).map_err(|e| e.to_string())?;
    // The daemons regenerated this same program (the pipeline is
    // deterministic): merge their reports and assemble sink output on it.
    let wall = std::time::Duration::from_secs_f64(outcome.wall_secs);
    let exec = Execution::merge(outcome.reports, wall, iters)
        .map_err(|e| NetError::Runtime(e).to_string())?;
    let lead = format!("job {} ", outcome.job);
    summarize(&lead, &pre.program.app_name, "fleet ranks", &exec);
    finish_run(args, &pre.program, &exec)
}

/// Replays one saved failure bundle (`<stem>.sexpr` / `.plan` / `.meta`)
/// bit-identically and reports whether it still fails.
fn fuzz_replay(stem: &str, iters_override: Option<u32>) -> Result<(), String> {
    use sage::fuzz::{diff, failure};
    let repro =
        failure::load_repro(std::path::Path::new(stem)).map_err(|e| format!("replay: {e}"))?;
    let iters = iters_override.unwrap_or(repro.iterations);
    eprintln!(
        "replaying seed {:016x} on {} nodes, {} iterations, cell {} (original failure: {})",
        repro.seed, repro.nodes, iters, repro.cell, repro.message
    );
    if let Some(plan) = &repro.plan {
        // Fault-induced failure: establish the fault-free checksum in the
        // saved cell, then re-attach the exact saved plan (fault plans are
        // local-only, exactly as the soak runs them).
        let (want, _) = diff::run_local_cell(&repro.source, repro.nodes, iters, None)
            .map_err(|e| format!("fault-free baseline run failed: {e}"))?;
        return match diff::run_local_cell(&repro.source, repro.nodes, iters, Some(plan.clone())) {
            Err(e) => {
                println!("  !! [{}] typed failure reproduced: {e}", repro.cell);
                Err("replay reproduced the failure".into())
            }
            Ok((got, _)) if got != want => {
                println!(
                    "  !! [{}] silent corruption reproduced: checksum {got:016x} != \
                     fault-free {want:016x}",
                    repro.cell
                );
                Err("replay reproduced the failure".into())
            }
            Ok(_) => {
                println!("replay: model no longer fails under the saved fault plan");
                Ok(())
            }
        };
    }
    let cfg = diff::DiffConfig {
        iterations: iters,
        tcp: repro.cell.starts_with("tcp"),
        fault_rounds: 0,
    };
    let outcome = diff::run_diff(
        &repro.source,
        repro.nodes,
        &cfg,
        repro.seed,
        Some(&spawn_local_fleet),
    );
    for f in &outcome.failures {
        println!("  !! [{}] {}", f.cell, f.message);
    }
    if outcome.failures.is_empty() {
        println!("replay: model no longer fails (fixed, or failure was fault-specific)");
        Ok(())
    } else {
        Err("replay reproduced the failure".into())
    }
}

/// `sage fuzz`: generate a seeded model corpus and sweep every entry
/// through the differential lattice (and fault soak). Exits non-zero if
/// any property fails.
fn cmd_fuzz(args: &Args) -> Result<(), String> {
    use sage::fuzz::{diff::DiffConfig, run_fuzz, FuzzOptions};
    if let Some(stem) = args.get("replay") {
        return fuzz_replay(stem, args.positive("iters")?);
    }
    let tcp = match args.get("transport") {
        None | Some("local") => false,
        Some("tcp") => true,
        Some(other) => return Err(format!("unknown --transport `{other}` (local|tcp)")),
    };
    let opts = FuzzOptions {
        seed: args.num_or("seed", 1)?,
        count: args.num_or("count", 16)?,
        diff: DiffConfig {
            iterations: args.positive_or("iters", 2)?,
            tcp,
            fault_rounds: args.num_or("fault-rounds", 2)?,
        },
        minimize: args.has("minimize"),
        save_failing: args.get("save-failing").map(std::path::PathBuf::from),
        ..FuzzOptions::default()
    };
    let report = run_fuzz(&opts, tcp.then_some(&spawn_local_fleet));
    print!("{}", report.render());
    if report.failed() > 0 {
        return Err(format!(
            "{} of {} models violated a differential property",
            report.failed(),
            report.models.len()
        ));
    }
    Ok(())
}

fn cmd_export(args: &Args) -> Result<(), String> {
    let which = args.positional.first().ok_or("export needs an app name")?;
    let size: usize = args.num_or("size", 256)?;
    let threads: usize = args.num_or("threads", 8)?;
    let build: fn(usize, usize) -> AppGraph = match which.as_str() {
        "fft2d" => sage::apps::fft2d::sage_model,
        "corner_turn" => sage::apps::corner_turn::sage_model,
        "stap" => sage::apps::stap::sage_model,
        "image_filter" => {
            |size, threads| sage::apps::image_filter::sage_model(size, threads, size / 8)
        }
        "beamformer" => sage::apps::beamformer::sage_model,
        "range_doppler" => {
            |size, threads| sage::apps::range_doppler::sage_model(size, threads, size / 4)
        }
        other => return Err(format!("unknown app `{other}`")),
    };
    // Every app model stripes `size` evenly over `threads`, and all but the
    // corner turn run radix-2 FFTs over it: the models assert both.
    if threads == 0 {
        return Err("--threads 0: an app needs at least one thread".into());
    }
    if !size.is_multiple_of(threads) {
        return Err(format!(
            "--size {size} is not a multiple of --threads {threads}"
        ));
    }
    if which != "corner_turn" && !size.is_power_of_two() {
        return Err(format!("--size {size} is not a power of two"));
    }
    print!("{}", model_io::model_to_sexpr(&build(size, threads)));
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        return usage();
    };
    let Some(sub) = subcommand(cmd) else {
        return usage();
    };
    match Args::parse(cmd, &sub, rest).and_then(|args| (sub.run)(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
