//! The differential executor: one generated model, every configuration.
//!
//! A lint/check-clean model must produce **bit-identical** sink bytes in
//! both cells of the {local, tcp} lattice, and again along the
//! {lock-step, pipeline-validate, streaming} scheduling axis: when the pipeline-safety pass proves a depth >= 2
//! safe, a block-interleaved run at that depth must reproduce the
//! lock-step checksum exactly (an unsound depth proof shows up here as
//! silent corruption), and the streaming dataflow executor must do the
//! same at the proven depth while conserving every backpressure credit
//! (issued == retired) — in process and, when the TCP half is swept,
//! across daemons. Every cell's run is one `Execution`, held to one
//! `judge`. It then runs under seeded random [`FaultPlan`]s, where
//! each run must either reproduce the fault-free checksum exactly or
//! fail with a typed error — never hang, never silently corrupt.
//!
//! Two cross-validations tie `sage check`'s static story to reality:
//!
//! - **Direction A (memory)**: the abstract interpreter's per-node
//!   memory high-water prediction ([`sage_check::Checker::peaks`]) must
//!   dominate the executor's measured `mem_high_water` on every node of
//!   every cell. A measured peak above the prediction means the static
//!   walk missed live bytes.
//! - **Direction A (races)**: every fault-free local cell runs with the
//!   vector-clock race detector armed (it needs every rank in one process)
//!   — a model the happens-before pass proved race-free must run
//!   detector-clean and bit-identically. A `RaceDetected` failure here
//!   means the static
//!   happens-before relation admits an ordering the run time does not
//!   actually provide.
//! - **Direction B (rejection)**: a model `sage check` rejects for a
//!   kernel-contract violation (SAGE054) must also fail at run time, and
//!   a model it rejects as racy (SAGE070) must trip the dynamic detector
//!   when the static gate is bypassed. A statically rejected model that
//!   runs clean is a harness failure — the checker is crying wolf or the
//!   runtime is too lenient.

use rand::rngs::StdRng;
use rand::{splitmix64, Rng, SeedableRng};
use sage_core::{checked_program, Placement, Project, ProjectError};
use sage_fabric::{FaultPlan, TimePolicy};
use sage_fleet::{JobParams, LaunchOptions, Spawner};
use sage_model::HardwareShelf;
use sage_runtime::{fnv1a_64, Execution, GlueProgram, Redistribution, RuntimeOptions};
use std::collections::BTreeSet;

/// Display labels of the two lattice cells. The `/zero-copy` suffix dates
/// from when the lattice had a data-plane axis; saved bundles carry it, so
/// it stays.
const LOCAL_CELL: &str = "local/zero-copy";
const TCP_CELL: &str = "tcp/zero-copy";

/// How one differential property failed.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Cell the failing run executed in.
    pub cell: String,
    /// What went wrong.
    pub message: String,
    /// Fault plan active during the failing run, if any.
    pub plan: Option<FaultPlan>,
}

/// Where a model landed after the front door and the lattice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Rejected before codegen (parse, lint, or placement error).
    FrontDoorRejected,
    /// `sage check` rejected it and the runtime agreed (or the rejection
    /// had no runtime counterpart to cross-check).
    CheckRejected,
    /// Clean everywhere: bit-identical across the lattice, fault rounds
    /// bit-exact-or-typed, memory prediction dominated reality.
    Clean,
    /// At least one differential property failed (see `failures`).
    Failed,
}

/// The full differential record for one model.
#[derive(Clone, Debug)]
pub struct DiffOutcome {
    /// Final verdict.
    pub verdict: Verdict,
    /// Diagnostic codes the front door / checker reported (sorted).
    pub reject_codes: Vec<String>,
    /// Fault-free sink checksum (when at least one cell ran clean).
    pub checksum: Option<u64>,
    /// Labels of the cells that executed.
    pub cells_run: Vec<&'static str>,
    /// Fault rounds that completed bit-identically (vs typed errors).
    pub fault_ok: usize,
    /// Fault rounds that surfaced a typed runtime error.
    pub fault_typed: usize,
    /// Every property violation observed.
    pub failures: Vec<Failure>,
}

impl DiffOutcome {
    /// Records a property violation of a fault-free run in `cell`.
    fn fail(&mut self, cell: &str, message: impl Into<String>) {
        self.failures.push(Failure {
            cell: cell.into(),
            message: message.into(),
            plan: None,
        });
    }
}

/// Per-model knobs for [`run_diff`].
#[derive(Clone, Copy, Debug)]
pub struct DiffConfig {
    /// Iterations (data sets) per run.
    pub iterations: u32,
    /// Sweep the TCP half of the lattice (needs a spawner).
    pub tcp: bool,
    /// Seeded fault-injection rounds after the fault-free lattice.
    pub fault_rounds: usize,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            iterations: 2,
            tcp: false,
            fault_rounds: 2,
        }
    }
}

/// Which scheduling mode a local differential run executes under.
#[derive(Clone, Debug, PartialEq, Eq)]
enum PipeMode {
    /// Plain lock-step walk.
    LockStep,
    /// Block-interleaved pipeline-validate mode at a proven depth.
    Validate(u32),
    /// The streaming executor at a global depth with per-buffer ring caps.
    Streaming(u32, Vec<u32>),
}

/// The one judge every cell's run answers to, whichever backend produced
/// the [`Execution`]: a streaming run at `streaming`'s (global depth,
/// per-buffer ring caps) must conserve every backpressure credit and send
/// exactly [`expected_messages`], and any run must have fed its sinks.
/// Returns (sink checksum, per-node measured memory high-waters).
fn judge(
    program: &GlueProgram,
    exec: &Execution,
    iterations: u32,
    streaming: Option<(u32, &[u32])>,
) -> Result<(u64, Vec<u64>), String> {
    if let Some((depth, caps)) = streaming {
        let (issued, retired) = (exec.stream.credits_issued, exec.stream.credits_retired);
        if issued != retired {
            return Err(format!("credit leak: issued {issued} != retired {retired}"));
        }
        let want = expected_messages(program, depth, caps, iterations);
        let sent = exec.report.metrics.total_messages();
        if sent != want {
            return Err(format!(
                "sent {sent} messages, the closed form says {want} (one per remote pair per \
                 iteration, plus one credit per credit group past its window)"
            ));
        }
    }
    let bytes = exec.results.stream(program, iterations);
    if bytes.is_empty() {
        return Err("sink produced no bytes".into());
    }
    let nodes = &exec.report.metrics.nodes;
    let mems = nodes.iter().map(|n| n.mem_high_water).collect();
    Ok((fnv1a_64(&bytes), mems))
}

/// The messages a fault-free streaming run of `program` sends, from a
/// fresh [`Redistribution::plan`] of every buffer and the placement alone:
/// one data message per cross-node nonempty pair per iteration, plus one
/// credit per (buffer, consumer thread, other node holding a producer
/// thread with a pair into it) per iteration past the buffer's window.
fn expected_messages(program: &GlueProgram, depth: u32, caps: &[u32], iterations: u32) -> u64 {
    let mut total = 0;
    for b in &program.buffers {
        let producer = &program.functions[b.producer as usize];
        let consumer = &program.functions[b.consumer as usize];
        let plan = Redistribution::plan(
            &b.shape,
            b.elem_bytes,
            b.send_striping,
            producer.threads as usize,
            b.recv_striping,
            consumer.threads as usize,
        );
        let mut groups = BTreeSet::new();
        for (i, row) in plan.pairs.iter().enumerate() {
            for (j, runs) in row.iter().enumerate() {
                let node = producer.placement[i];
                if !runs.is_empty() && node != consumer.placement[j] {
                    total += u64::from(iterations);
                    groups.insert((j, node));
                }
            }
        }
        let cap = caps.get(b.id as usize).map_or(depth, |&c| c.min(depth));
        let window = cap.max(1) + b.delay;
        total += groups.len() as u64 * u64::from(iterations.saturating_sub(window));
    }
    total
}

fn run_local(
    source: &str,
    nodes: usize,
    iterations: u32,
    race_detect: bool,
    plan: Option<FaultPlan>,
    mode: PipeMode,
) -> Result<(u64, Vec<u64>), String> {
    let mut project = Project::from_sexpr(source, nodes).map_err(|e| format!("parse: {e}"))?;
    sage_apps::kernels::register_kernels(&mut project.registry);
    let (program, _) = project
        .generate(&Placement::Aligned)
        .map_err(|e| format!("codegen: {e}"))?;
    let mut options = RuntimeOptions::paper_faithful()
        .with_probes(false)
        .with_race_detect(race_detect);
    if let Some(plan) = plan {
        options = options.with_faults(plan);
    }
    match &mode {
        PipeMode::LockStep => {}
        PipeMode::Validate(depth) => options = options.with_pipeline_validate(*depth),
        PipeMode::Streaming(depth, caps) => {
            options = options
                .with_pipeline(*depth)
                .with_pipeline_depths(caps.clone());
        }
    }
    let exec = project
        .execute(&program, TimePolicy::Virtual, &options, iterations)
        .map_err(|e| match e {
            ProjectError::Runtime(e) => format!("runtime: {e}"),
            ProjectError::Codegen(e) => format!("codegen: {e}"),
        })?;
    let streaming = match &mode {
        PipeMode::Streaming(depth, caps) => Some((*depth, caps.as_slice())),
        PipeMode::LockStep | PipeMode::Validate(_) => None,
    };
    judge(&program, &exec, iterations, streaming)
}

/// One job of `source` — `program`'s model — across freshly spawned
/// daemons: lock-step, or streaming at `streaming`'s (global depth,
/// per-buffer ring caps).
fn run_tcp(
    program: &GlueProgram,
    source: &str,
    nodes: usize,
    iterations: u32,
    spawner: &Spawner<'_>,
    streaming: Option<(u32, &[u32])>,
) -> Result<(u64, Vec<u64>), String> {
    let opts = LaunchOptions {
        workers: nodes,
        heartbeat_ms: None,
        params: JobParams {
            pipeline: streaming.map(|(depth, _)| depth),
            pipeline_depths: streaming.map_or_else(Vec::new, |(_, caps)| caps.to_vec()),
            ..JobParams::new(source, iterations)
        },
    };
    let exec = sage_fleet::launch(&opts, spawner).map_err(|e| format!("launch: {e}"))?;
    judge(program, &exec, iterations, streaming)
}

/// Runs the local lock-step cell, optionally under a fault plan, and
/// returns (sink checksum, per-node measured memory high-waters) — the
/// replay entry point (fault plans are local-only, exactly as the soak
/// injects them).
pub fn run_local_cell(
    source: &str,
    nodes: usize,
    iterations: u32,
    plan: Option<FaultPlan>,
) -> Result<(u64, Vec<u64>), String> {
    // Fault-free runs carry the race detector; faulted runs drop it so an
    // injected failure never masquerades as an ordering bug.
    let race_detect = plan.is_none();
    run_local(
        source,
        nodes,
        iterations,
        race_detect,
        plan,
        PipeMode::LockStep,
    )
}

/// Checks direction A on one cell's run: the static per-node prediction
/// must dominate the measured high-water everywhere.
fn mem_violation(predicted: &[usize], actual: &[u64]) -> Option<String> {
    for (node, &got) in actual.iter().enumerate() {
        let want = predicted.get(node).copied().unwrap_or(0) as u64;
        if got > want {
            return Some(format!(
                "node {node} measured mem high-water {got} B above the static prediction {want} B"
            ));
        }
    }
    None
}

/// A seeded random fault plan in the soak value ranges, derived from
/// `(model_seed, round)` so replay needs no extra state.
pub fn derived_fault_plan(
    model_seed: u64,
    round: usize,
    nodes: usize,
    blocks: &[String],
) -> FaultPlan {
    let seed = splitmix64(model_seed ^ splitmix64(round as u64 ^ 0xfa07));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = FaultPlan::new(seed);
    let last = nodes.saturating_sub(1) as u32;
    if rng.random_bool(0.5) {
        plan = plan.with_drop_prob(rng.random_range(0.0..0.35));
    }
    if nodes > 1 && rng.random_bool(0.5) {
        let src = rng.random_range(0..=last);
        let dst = rng.random_range(0..=last);
        plan = plan.degrade_link(src, dst, rng.random_range(1.0..8.0));
    }
    if rng.random_bool(0.35) {
        plan = plan.stall_node(
            rng.random_range(0..=last),
            rng.random_range(0.0..0.01),
            rng.random_range(0.0..0.005),
        );
    }
    if rng.random_bool(0.2) {
        plan = plan.fail_node(rng.random_range(0..=last), rng.random_range(0.0..0.02));
    }
    if !blocks.is_empty() && rng.random_bool(0.25) {
        let block = &blocks[rng.random_range(0..blocks.len())];
        plan = plan.inject_kernel_fault(block, rng.random_range(0..2), 0, "injected by sage-fuzz");
    }
    plan
}

/// Runs the full differential property suite for one model source.
///
/// `spawner` supplies the TCP half of the lattice; pass `None` (or set
/// `cfg.tcp = false`) for a local-only sweep.
pub fn run_diff(
    source: &str,
    nodes: usize,
    cfg: &DiffConfig,
    model_seed: u64,
    spawner: Option<&Spawner<'_>>,
) -> DiffOutcome {
    let mut outcome = DiffOutcome {
        verdict: Verdict::Clean,
        reject_codes: Vec::new(),
        checksum: None,
        cells_run: Vec::new(),
        fault_ok: 0,
        fault_typed: 0,
        failures: Vec::new(),
    };

    // ---- Front door: parse → lint → check → codegen ---------------
    let (program, diags) = checked_program(source, nodes);
    let error_codes: Vec<String> = diags
        .diags
        .iter()
        .filter(|d| d.severity == sage_lint::Severity::Error)
        .map(|d| d.code.to_string())
        .collect();
    outcome.reject_codes = error_codes.clone();
    outcome.reject_codes.sort();
    outcome.reject_codes.dedup();

    let Some(program) = program else {
        outcome.verdict = Verdict::FrontDoorRejected;
        return outcome;
    };

    if !error_codes.is_empty() {
        // ---- Direction B: static reject must not run clean --------
        // Only kernel-contract violations (SAGE054) and proven races
        // (SAGE070) have a runtime counterpart; capacity/feasibility
        // findings (SAGE055/056) model limits the executor does not
        // enforce.
        if error_codes.iter().all(|c| c == "SAGE054") {
            match run_local(
                source,
                nodes,
                cfg.iterations,
                false,
                None,
                PipeMode::LockStep,
            ) {
                Err(_) => outcome.verdict = Verdict::CheckRejected,
                Ok(_) => {
                    outcome.verdict = Verdict::Failed;
                    outcome.fail(
                        LOCAL_CELL,
                        "sage check rejected this model (SAGE054) but it ran clean \
                                  — static/dynamic disagreement",
                    );
                }
            }
        } else if error_codes.iter().all(|c| c == "SAGE070") {
            // A statically proven write/write race must trip the
            // vector-clock detector once the gate is bypassed.
            match run_local(
                source,
                nodes,
                cfg.iterations,
                true,
                None,
                PipeMode::LockStep,
            ) {
                Err(e) if e.contains("data race") => outcome.verdict = Verdict::CheckRejected,
                Err(e) => {
                    outcome.verdict = Verdict::Failed;
                    outcome.fail(
                        LOCAL_CELL,
                        format!(
                            "sage check proved a race (SAGE070) but the run failed with \
                             `{e}` instead of RaceDetected"
                        ),
                    );
                }
                Ok(_) => {
                    outcome.verdict = Verdict::Failed;
                    outcome.fail(
                        LOCAL_CELL,
                        "sage check proved a race (SAGE070) but the run was \
                                  detector-clean — static/dynamic disagreement",
                    );
                }
            }
        } else {
            outcome.verdict = Verdict::CheckRejected;
        }
        return outcome;
    }

    // ---- Fault-free lattice: bit-identical checksums everywhere ----
    // One session answers every static question the lattice cross-checks.
    let hw = HardwareShelf::cspi_with_nodes(nodes);
    let checker = sage_check::Checker::new(&program, &hw, None);
    let predicted = checker.peaks();
    // A local cell, then its TCP twin when that half is swept — last,
    // because it spawns real worker processes.
    let tcp = spawner.filter(|_| cfg.tcp);
    let backends = |local: &'static str, remote: &'static str| {
        std::iter::once((local, None)).chain(tcp.map(|spawner| (remote, Some(spawner))))
    };
    let mut baseline: Option<u64> = None;
    for (cell, tcp) in backends(LOCAL_CELL, TCP_CELL) {
        let run = match tcp {
            Some(spawner) => run_tcp(&program, source, nodes, cfg.iterations, spawner, None),
            // Direction A (races): fault-free cells run detector-armed.
            None => run_local(
                source,
                nodes,
                cfg.iterations,
                true,
                None,
                PipeMode::LockStep,
            ),
        };
        outcome.cells_run.push(cell);
        match run {
            Err(e) => outcome.fail(cell, format!("check-clean model failed to execute: {e}")),
            Ok((checksum, mems)) => {
                match baseline {
                    None => baseline = Some(checksum),
                    Some(want) if want != checksum => outcome.fail(
                        cell,
                        format!("sink checksum {checksum:016x} differs from baseline {want:016x}"),
                    ),
                    Some(_) => {}
                }
                if let Some(predicted) = &predicted {
                    if let Some(msg) = mem_violation(predicted, &mems) {
                        outcome.fail(cell, msg);
                    }
                }
            }
        }
    }
    outcome.checksum = baseline;

    // ---- Pipelined scheduling axis: a statically proven depth >= 2
    // must reproduce the lock-step stream bit-for-bit ---------------
    if let Some(want) = baseline {
        if let (Some(pplan), _) = checker.pipeline(None) {
            let depth = pplan.safe_depth.min(3);
            if depth >= 2 {
                outcome.cells_run.push("local/pipelined");
                match run_local(
                    source,
                    nodes,
                    cfg.iterations,
                    true,
                    None,
                    PipeMode::Validate(depth),
                ) {
                    Err(e) => outcome.fail(
                        "local/pipelined",
                        format!("proven-safe pipeline depth {depth} failed to execute: {e}"),
                    ),
                    Ok((checksum, mems)) => {
                        if checksum != want {
                            outcome.fail(
                                "local/pipelined",
                                format!(
                                    "pipeline depth {depth} produced checksum {checksum:016x} \
                                     instead of lock-step {want:016x} — the static depth proof \
                                     is unsound"
                                ),
                            );
                        }
                        // Direction A, scaled: a depth-d run keeps at most d
                        // lock-step working sets (d-slot rings) live at once.
                        if let Some(predicted) = &predicted {
                            let scaled: Vec<usize> = predicted
                                .iter()
                                .map(|p| p.saturating_mul(depth as usize))
                                .collect();
                            if let Some(msg) = mem_violation(&scaled, &mems) {
                                outcome.fail(
                                    "local/pipelined",
                                    format!("at pipeline depth {depth}: {msg}"),
                                );
                            }
                        }
                    }
                }
            }
            // ---- Streaming executor: continuous issue with per-pair
            // credits must reproduce lock-step bit-for-bit at any depth
            // up to the proven plan, and conserve every credit — in
            // process, and across daemons when the TCP half is swept ------
            let caps: Vec<u32> = pplan.buffers.iter().map(|b| b.safe_depth).collect();
            let sdepth = pplan.safe_depth.clamp(1, 3);
            for (cell, tcp) in backends("local/streaming", "tcp/streaming") {
                outcome.cells_run.push(cell);
                let run = match tcp {
                    Some(spawner) => {
                        let streaming = Some((sdepth, caps.as_slice()));
                        run_tcp(&program, source, nodes, cfg.iterations, spawner, streaming)
                    }
                    None => run_local(
                        source,
                        nodes,
                        cfg.iterations,
                        true,
                        None,
                        PipeMode::Streaming(sdepth, caps.clone()),
                    ),
                };
                match run {
                    Err(e) => outcome.fail(
                        cell,
                        format!("streaming at proven depth {sdepth} failed to execute: {e}"),
                    ),
                    Ok((checksum, mems)) => {
                        if checksum != want {
                            outcome.fail(
                                cell,
                                format!(
                                    "streaming depth {sdepth} produced checksum {checksum:016x} \
                                     instead of lock-step {want:016x} — the dataflow schedule \
                                     reordered a visible effect"
                                ),
                            );
                        }
                        // Direction A, scaled: per-tag FIFO queues hold up to
                        // `depth` ring slots plus a window's worth of frames
                        // still in flight between producer and consumer.
                        if let Some(predicted) = &predicted {
                            let scaled: Vec<usize> = predicted
                                .iter()
                                .map(|p| p.saturating_mul(sdepth as usize + 2))
                                .collect();
                            if let Some(msg) = mem_violation(&scaled, &mems) {
                                outcome.fail(cell, format!("at streaming depth {sdepth}: {msg}"));
                            }
                        }
                    }
                }
            }
        }
    }

    // ---- Fault soak: bit-exact or typed error, never silent -------
    if let Some(want) = baseline {
        let blocks: Vec<String> = program.functions.iter().map(|f| f.name.clone()).collect();
        for round in 0..cfg.fault_rounds {
            let plan = derived_fault_plan(model_seed, round, nodes, &blocks);
            if plan.is_empty() {
                continue;
            }
            match run_local(
                source,
                nodes,
                cfg.iterations,
                false,
                Some(plan.clone()),
                PipeMode::LockStep,
            ) {
                Ok((checksum, _)) if checksum == want => outcome.fault_ok += 1,
                Ok((checksum, _)) => outcome.failures.push(Failure {
                    cell: LOCAL_CELL.into(),
                    message: format!(
                        "faulted run completed but produced checksum {checksum:016x} \
                         instead of {want:016x} — silent corruption"
                    ),
                    plan: Some(plan),
                }),
                // `run_local` stringifies errors; anything it returns came
                // through the typed ProjectError/RuntimeError path.
                Err(_) => outcome.fault_typed += 1,
            }
        }
    }

    if !outcome.failures.is_empty() {
        outcome.verdict = Verdict::Failed;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{chain_model, Stage};
    use sage_core::model_io;
    use sage_model::{DataType, Striping};

    fn clean_chain_source() -> String {
        let stages: Vec<Stage> = vec![(2, Striping::BY_ROWS, Striping::BY_COLS)];
        let app = chain_model(
            &DataType::complex_matrix(8, 8),
            7,
            2,
            &stages,
            2,
            Striping::BY_ROWS,
        );
        model_io::model_to_sexpr(&app)
    }

    #[test]
    fn clean_chain_is_bit_identical_locally() {
        let src = clean_chain_source();
        let out = run_diff(&src, 2, &DiffConfig::default(), 1234, None);
        assert_eq!(out.verdict, Verdict::Clean, "failures: {:?}", out.failures);
        assert!(out.checksum.is_some());
        assert_eq!(
            out.cells_run,
            vec!["local/zero-copy", "local/pipelined", "local/streaming"]
        );
    }

    #[test]
    fn diff_is_deterministic() {
        let src = clean_chain_source();
        let a = run_diff(&src, 2, &DiffConfig::default(), 99, None);
        let b = run_diff(&src, 2, &DiffConfig::default(), 99, None);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.fault_ok, b.fault_ok);
        assert_eq!(a.fault_typed, b.fault_typed);
    }

    #[test]
    fn contract_violation_is_check_rejected_and_runtime_confirmed() {
        // Replicated in, striped out on a threaded `id`: SAGE054 statically,
        // "id stripe mismatch" dynamically.
        let stages: Vec<Stage> = vec![(2, Striping::Replicated, Striping::BY_ROWS)];
        let app = chain_model(
            &DataType::complex_matrix(8, 8),
            7,
            2,
            &stages,
            2,
            Striping::BY_ROWS,
        );
        let src = model_io::model_to_sexpr(&app);
        let out = run_diff(&src, 2, &DiffConfig::default(), 5, None);
        assert_eq!(out.verdict, Verdict::CheckRejected, "{:?}", out.failures);
        assert!(out.reject_codes.iter().any(|c| c == "SAGE054"));
    }

    #[test]
    fn derived_fault_plans_are_deterministic() {
        let blocks = vec!["src".to_string(), "snk".to_string()];
        let a = derived_fault_plan(42, 1, 4, &blocks);
        let b = derived_fault_plan(42, 1, 4, &blocks);
        assert_eq!(a, b);
        assert_ne!(a, derived_fault_plan(42, 2, 4, &blocks));
    }
}
