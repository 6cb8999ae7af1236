//! The `sage bench` performance-trajectory harness.
//!
//! Runs the four committed example models on both transports (in-process
//! local fabric, multi-process loopback TCP), reporting wall-clock latency
//! per iteration, bytes moved, and effective bandwidth from the fabric's
//! own counters. The results serialize to `BENCH_runtime.json`
//! (hand-rolled writer/parser — the workspace is offline, no serde), and
//! committed snapshots gate CI: a quick re-run must stay within
//! [`DEFAULT_TOLERANCE`] of the recorded bandwidth.

use sage_atot::TaskMapping;
use sage_core::{model_from_sexpr, Placement, Project};
use sage_fabric::TimePolicy;
use sage_model::{HardwareShelf, ProcId};
use sage_net::{launch, LaunchOptions, Spawner};
use sage_runtime::{fnv1a_64, GlueProgram, RuntimeOptions};

/// The committed example models `sage bench` sweeps, as
/// `(name, path from the repo root)`.
pub const BENCH_MODELS: [(&str, &str); 4] = [
    ("fft2d_64", "examples/models/fft2d_64.sexpr"),
    ("corner_turn_256", "examples/models/corner_turn_256.sexpr"),
    ("image_filter_128", "examples/models/image_filter_128.sexpr"),
    ("stap_128", "examples/models/stap_128.sexpr"),
];

/// The models `sage bench --pipeline` sweeps: the trajectory set plus the
/// beamformer, whose long cross-node chain is where streaming pays most.
pub const PIPELINE_MODELS: [(&str, &str); 5] = [
    ("fft2d_64", "examples/models/fft2d_64.sexpr"),
    ("corner_turn_256", "examples/models/corner_turn_256.sexpr"),
    ("image_filter_128", "examples/models/image_filter_128.sexpr"),
    ("stap_128", "examples/models/stap_128.sexpr"),
    ("beamformer_64", "examples/models/beamformer_64.sexpr"),
];

/// Requested global ring depth for `sage bench --pipeline`; each model
/// runs at `min(proven safe depth, this)` so every cell is provably safe.
/// Eight frames in flight is enough to cover the cross-group round-trip
/// on every committed model; the proven depths are all far deeper.
pub const PIPELINE_BENCH_DEPTH: u32 = 8;

/// Ranks (local nodes or worker processes) each bench run uses.
pub const BENCH_NODES: usize = 4;

/// Bandwidth regression tolerated by [`check_regression`]: a run must
/// reach at least `1 - DEFAULT_TOLERANCE` of the committed bandwidth.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Measured executions per local cell: one untimed warm-up, then the
/// fastest of this many timed runs wins. Sub-millisecond cells are at the
/// mercy of the scheduler; best-of-N is what keeps the CI gate honest.
const LOCAL_REPEATS: usize = 3;

/// Iterations per bench run, honouring `SAGE_QUICK`.
pub fn bench_iterations() -> u32 {
    if std::env::var("SAGE_QUICK").is_ok() {
        8
    } else {
        24
    }
}

/// Iterations per `sage bench --pipeline` cell: the trajectory count with
/// a floor of twice [`PIPELINE_BENCH_DEPTH`], so the streaming run spends
/// most of its frames in steady state instead of ring fill/drain. The
/// cells run on the virtual clock, so the floor costs negligible wall
/// time even under `SAGE_QUICK`.
pub fn pipeline_iterations() -> u32 {
    bench_iterations().max(2 * PIPELINE_BENCH_DEPTH)
}

/// One measured (model, transport) cell.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchResult {
    /// Model name (`fft2d_64`, ...).
    pub model: String,
    /// `"local"` or `"tcp"`.
    pub transport: String,
    /// Ranks the run used.
    pub nodes: usize,
    /// Iterations (data sets) executed.
    pub iterations: u32,
    /// Total wall-clock seconds inside the executor.
    pub wall_secs: f64,
    /// Wall milliseconds per iteration.
    pub ms_per_iter: f64,
    /// Bytes moved through the fabric (local: all messages; tcp: framed
    /// wire traffic).
    pub bytes_moved: u64,
    /// Messages moved through the fabric.
    pub messages: u64,
    /// Effective bandwidth: `bytes_moved / wall_secs`, in MiB/s.
    pub bandwidth_mib_s: f64,
    /// Assembled sink output length over all iterations.
    pub sink_bytes: u64,
    /// FNV-1a-64 over the assembled sink output — bit-identical across
    /// transports or the run is wrong.
    pub checksum: u64,
}

/// The raw quantities one timed run yields before derivation.
struct RawRun {
    wall_secs: f64,
    bytes_moved: u64,
    messages: u64,
}

fn make_result(
    model: &str,
    transport: &str,
    iterations: u32,
    raw: RawRun,
    sink: &[u8],
) -> BenchResult {
    let wall = raw.wall_secs.max(1e-9);
    BenchResult {
        model: model.to_string(),
        transport: transport.to_string(),
        nodes: BENCH_NODES,
        iterations,
        wall_secs: raw.wall_secs,
        ms_per_iter: wall * 1e3 / f64::from(iterations.max(1)),
        bytes_moved: raw.bytes_moved,
        messages: raw.messages,
        bandwidth_mib_s: raw.bytes_moved as f64 / wall / (1024.0 * 1024.0),
        sink_bytes: sink.len() as u64,
        checksum: fnv1a_64(sink),
    }
}

/// Benches one model on the in-process local fabric (real clock).
pub fn bench_local(name: &str, model_text: &str, iterations: u32) -> Result<BenchResult, String> {
    let model = model_from_sexpr(model_text).map_err(|e| e.to_string())?;
    let mut project = Project::new(model, HardwareShelf::cspi_with_nodes(BENCH_NODES));
    sage_apps::kernels::register_kernels(&mut project.registry);
    let options = RuntimeOptions::paper_faithful();
    let (program, _) = project
        .generate(&Placement::Aligned)
        .map_err(|e| e.to_string())?;
    // Warm-up run (discarded), then best-of-N: the counters and sink bytes
    // are deterministic across repeats, only the wall clock varies.
    let mut best = None;
    for rep in 0..=LOCAL_REPEATS {
        let exec = project
            .execute(&program, TimePolicy::Real, &options, iterations)
            .map_err(|e| e.to_string())?;
        if rep == 0 {
            continue;
        }
        if best
            .as_ref()
            .is_none_or(|b: &sage_runtime::Execution| exec.report.wall < b.report.wall)
        {
            best = Some(exec);
        }
    }
    let exec = best.expect("at least one timed bench run");
    let sink = exec.results.stream(&program, iterations);
    let raw = RawRun {
        wall_secs: exec.report.wall.as_secs_f64(),
        bytes_moved: exec.report.metrics.total_bytes(),
        messages: exec.report.metrics.total_messages(),
    };
    Ok(make_result(name, "local", iterations, raw, &sink))
}

/// Benches one model across worker processes over loopback TCP. `spawn`
/// starts the per-rank worker (the `sage` binary re-spawns itself).
pub fn bench_tcp(
    name: &str,
    model_text: &str,
    iterations: u32,
    spawn: &Spawner<'_>,
) -> Result<BenchResult, String> {
    let opts = LaunchOptions {
        workers: BENCH_NODES,
        iterations,
        optimized: false,
        probes: false,
        race_detect: false,
        heartbeat_ms: None,
        pipeline: None,
        pipeline_depths: Vec::new(),
    };
    let outcome = launch(model_text, &opts, spawn).map_err(|e| e.to_string())?;
    let sink = outcome.results.stream(&outcome.program, iterations);
    // Wall time is the slowest rank's executor time, not the launcher's
    // end-to-end wall (which is dominated by process spawn + mesh setup).
    let raw = RawRun {
        wall_secs: outcome.rank_walls.iter().copied().fold(0.0, f64::max),
        bytes_moved: outcome.report.metrics.wire_bytes(),
        messages: outcome.report.metrics.wire_messages(),
    };
    Ok(make_result(name, "tcp", iterations, raw, &sink))
}

/// One measured streaming-pipeline cell (`sage bench --pipeline`):
/// lock-step vs the streaming executor at the proven-safe depth, on the
/// in-process fabric's virtual clock (frames/sec in deterministic model
/// time, independent of host load).
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineResult {
    /// Model name (`fft2d_64`, ...).
    pub model: String,
    /// Ranks the run used.
    pub nodes: usize,
    /// Iterations (data frames) executed.
    pub iterations: u32,
    /// Global ring depth the streaming run used
    /// (`min(proven, PIPELINE_BENCH_DEPTH)`).
    pub depth: u32,
    /// Lock-step frames per virtual second.
    pub lockstep_fps: f64,
    /// Streaming frames per virtual second.
    pub pipelined_fps: f64,
    /// `pipelined_fps / lockstep_fps`.
    pub speedup: f64,
    /// FNV-1a-64 over the assembled sink output — lock-step and streaming
    /// must agree bit-for-bit or the cell fails instead of reporting.
    pub checksum: u64,
}

/// Runs one virtual-clock execution per repeat and keeps the smallest
/// makespan (the streaming scheduler's issue order can vary with host
/// timing even though its output bytes cannot).
fn best_virtual_run(
    project: &Project,
    program: &GlueProgram,
    options: &RuntimeOptions,
    iterations: u32,
) -> Result<(f64, u64), String> {
    let mut best: Option<f64> = None;
    let mut checksum = 0u64;
    for rep in 0..=LOCAL_REPEATS {
        let exec = project
            .execute(program, TimePolicy::Virtual, options, iterations)
            .map_err(|e| e.to_string())?;
        let sink = exec.results.stream(program, iterations);
        checksum = fnv1a_64(&sink);
        if rep == 0 {
            continue;
        }
        if best.is_none_or(|b| exec.report.makespan < b) {
            best = Some(exec.report.makespan);
        }
    }
    Ok((
        best.expect("at least one timed bench run").max(1e-9),
        checksum,
    ))
}

/// Builds the stage-pipelined placement the pipeline bench runs on: the
/// block chain is split into two cost-balanced stage groups, each group
/// striped over half the nodes.
///
/// The SPMD-aligned mapping gives streaming nothing to overlap: every rank
/// runs every stage, and the fabric charges message serialization to the
/// sender's clock, so an aligned lock-step rank never waits (measured
/// `wait_secs` is zero on all committed models). Splitting the chain
/// across disjoint node groups puts a real cross-group round-trip inside
/// every frame — lock-step eats it as idle time, while the streaming
/// executor fills it with later frames' compute. Both cells of each bench
/// row run on this same placement, so the comparison is apples-to-apples.
fn stage_pipelined_placement(project: &Project) -> Result<Placement, String> {
    let flat = project.app.flatten().map_err(|e| e.to_string())?;
    let costs: Vec<f64> = flat.blocks().iter().map(|b| b.cost().flops).collect();
    // Greedy running balance: each block goes to the group with less
    // accumulated compute, keeping the two halves of the machine equally
    // busy in steady state.
    let mut acc = [0.0f64; 2];
    let mut groups = Vec::with_capacity(costs.len());
    for &c in &costs {
        let g = usize::from(acc[0] > acc[1]);
        acc[g] += c;
        groups.push(g);
    }
    // A single dominant block (corner turn) can swallow one whole group;
    // alternate instead so both node groups stay on the critical path.
    if groups.iter().all(|&g| g == groups[0]) {
        for (bi, g) in groups.iter_mut().enumerate() {
            *g = bi % 2;
        }
    }
    let per = (project.hardware.node_count() / 2).max(1);
    let mut nodes = Vec::new();
    for (bi, b) in flat.blocks().iter().enumerate() {
        for t in 0..b.threads() {
            nodes.push(ProcId((groups[bi] * per + t % per) as u32));
        }
    }
    Ok(Placement::Tasks(TaskMapping { nodes }))
}

/// Benches one model's streaming executor against lock-step at the
/// statically proven safe depth (capped at [`PIPELINE_BENCH_DEPTH`]),
/// with per-buffer ring caps from the same plan. Both cells run on the
/// [`stage_pipelined_placement`] so the lock-step baseline has real
/// communication bubbles for streaming to reclaim.
pub fn bench_pipeline(
    name: &str,
    model_text: &str,
    iterations: u32,
) -> Result<PipelineResult, String> {
    let model = model_from_sexpr(model_text).map_err(|e| e.to_string())?;
    let mut project = Project::new(model, HardwareShelf::cspi_with_nodes(BENCH_NODES));
    sage_apps::kernels::register_kernels(&mut project.registry);
    let placement = stage_pipelined_placement(&project)?;
    let (program, _) = project.generate(&placement).map_err(|e| e.to_string())?;
    let (caps, proven) = match sage_check::pipeline_plan(&program, &project.hardware) {
        Some(p) => (
            p.buffers.iter().map(|b| b.safe_depth).collect::<Vec<u32>>(),
            p.safe_depth,
        ),
        None => (Vec::new(), PIPELINE_BENCH_DEPTH),
    };
    let depth = proven.clamp(1, PIPELINE_BENCH_DEPTH);
    let base = RuntimeOptions::paper_faithful();
    let (lock_mk, lock_sum) = best_virtual_run(&project, &program, &base, iterations)?;
    let streaming = base.clone().with_pipeline(depth).with_pipeline_depths(caps);
    let (pipe_mk, pipe_sum) = best_virtual_run(&project, &program, &streaming, iterations)?;
    if lock_sum != pipe_sum {
        return Err(format!(
            "pipeline bench `{name}`: streaming sink checksum {pipe_sum:#018x} \
             diverged from lock-step {lock_sum:#018x}"
        ));
    }
    let lockstep_fps = f64::from(iterations) / lock_mk;
    let pipelined_fps = f64::from(iterations) / pipe_mk;
    Ok(PipelineResult {
        model: name.to_string(),
        nodes: BENCH_NODES,
        iterations,
        depth,
        lockstep_fps,
        pipelined_fps,
        speedup: pipelined_fps / lockstep_fps.max(1e-12),
        checksum: lock_sum,
    })
}

// ---- JSON writer / parser --------------------------------------------

/// One measured job-service throughput cell (`sage bench --jobs`): `jobs`
/// small jobs pushed through `concurrency` submitting clients, either over
/// a persistent fleet (`mode == "fleet"`) or by forking a full launch per
/// job (`mode == "fork"`).
#[derive(Clone, Debug, PartialEq)]
pub struct JobsCell {
    /// `"fleet"` (persistent daemons, warm mesh) or `"fork"` (spawn
    /// processes and build the mesh per job).
    pub mode: String,
    /// Concurrent submitting clients.
    pub concurrency: u32,
    /// Jobs completed in the cell.
    pub jobs: u32,
    /// Ranks per job.
    pub ranks: usize,
    /// Iterations (data sets) per job.
    pub iterations: u32,
    /// Wall seconds for the whole cell.
    pub wall_secs: f64,
    /// Jobs per second: `jobs / wall_secs`.
    pub jobs_per_sec: f64,
    /// FNV-1a-64 over one job's assembled sink output — every job in the
    /// cell must agree, and fleet must match fork bit-for-bit.
    pub checksum: u64,
}

/// A whole `BENCH_runtime.json` document: the trajectory sweep plus the
/// (possibly empty) job-service and streaming-pipeline sweeps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchDoc {
    /// Whether the run was a quick (`SAGE_QUICK=1`) sweep.
    pub quick: bool,
    /// The per-(model, transport) trajectory cells.
    pub results: Vec<BenchResult>,
    /// The job-service throughput cells (empty in runs without `--jobs`).
    pub jobs: Vec<JobsCell>,
    /// The streaming-pipeline cells (empty in runs without `--pipeline`).
    pub pipeline: Vec<PipelineResult>,
}

/// Frames/sec regression tolerated by [`check_pipeline_regression`]: a
/// run must reach at least `1 - PIPELINE_TOLERANCE` of the committed
/// streaming frame rate. Virtual-clock fps is deterministic modulo the
/// scheduler's timing-dependent issue order, so the bandwidth tolerance
/// is plenty.
pub const PIPELINE_TOLERANCE: f64 = 0.25;

/// Throughput regression tolerated by [`check_jobs_regression`]: a run
/// must reach at least half the committed jobs/sec. Job cells measure
/// end-to-end service latency (spawns, handshakes, queueing), which is far
/// noisier on shared CI hosts than steady-state bandwidth.
pub const JOBS_TOLERANCE: f64 = 0.5;

/// Serializes results as the `BENCH_runtime.json` document (schema
/// `sage-bench/v4`: v3 minus the per-cell `data_plane` axis).
pub fn to_json_doc(doc: &BenchDoc) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"sage-bench/v4\",\n");
    out.push_str(&format!("  \"quick\": {},\n", doc.quick));
    out.push_str("  \"results\": [\n");
    for (i, r) in doc.results.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"model\": \"{}\", ", r.model));
        out.push_str(&format!("\"transport\": \"{}\", ", r.transport));
        out.push_str(&format!("\"nodes\": {}, ", r.nodes));
        out.push_str(&format!("\"iterations\": {}, ", r.iterations));
        out.push_str(&format!("\"wall_secs\": {}, ", r.wall_secs));
        out.push_str(&format!("\"ms_per_iter\": {}, ", r.ms_per_iter));
        out.push_str(&format!("\"bytes_moved\": {}, ", r.bytes_moved));
        out.push_str(&format!("\"messages\": {}, ", r.messages));
        out.push_str(&format!("\"bandwidth_mib_s\": {}, ", r.bandwidth_mib_s));
        out.push_str(&format!("\"sink_bytes\": {}, ", r.sink_bytes));
        out.push_str(&format!("\"checksum\": \"{:#018x}\"", r.checksum));
        out.push_str(if i + 1 < doc.results.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"jobs\": [\n");
    for (i, j) in doc.jobs.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"mode\": \"{}\", ", j.mode));
        out.push_str(&format!("\"concurrency\": {}, ", j.concurrency));
        out.push_str(&format!("\"jobs\": {}, ", j.jobs));
        out.push_str(&format!("\"ranks\": {}, ", j.ranks));
        out.push_str(&format!("\"iterations\": {}, ", j.iterations));
        out.push_str(&format!("\"wall_secs\": {}, ", j.wall_secs));
        out.push_str(&format!("\"jobs_per_sec\": {}, ", j.jobs_per_sec));
        out.push_str(&format!("\"checksum\": \"{:#018x}\"", j.checksum));
        out.push_str(if i + 1 < doc.jobs.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"pipeline\": [\n");
    for (i, p) in doc.pipeline.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"model\": \"{}\", ", p.model));
        out.push_str(&format!("\"nodes\": {}, ", p.nodes));
        out.push_str(&format!("\"iterations\": {}, ", p.iterations));
        out.push_str(&format!("\"depth\": {}, ", p.depth));
        out.push_str(&format!("\"lockstep_fps\": {}, ", p.lockstep_fps));
        out.push_str(&format!("\"pipelined_fps\": {}, ", p.pipelined_fps));
        out.push_str(&format!("\"speedup\": {}, ", p.speedup));
        out.push_str(&format!("\"checksum\": \"{:#018x}\"", p.checksum));
        out.push_str(if i + 1 < doc.pipeline.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pulls one `"key": value` out of a flat JSON object body. Strings come
/// back without quotes.
fn field<'a>(obj: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":");
    let at = obj
        .find(&pat)
        .ok_or_else(|| format!("bench json: missing field `{key}`"))?;
    let rest = obj[at + pat.len()..].trim_start();
    let end = rest
        .char_indices()
        .scan(false, |in_str, (i, c)| {
            match c {
                '"' => *in_str = !*in_str,
                ',' | '}' if !*in_str => return Some(Some(i)),
                _ => {}
            }
            Some(None)
        })
        .flatten()
        .next()
        .unwrap_or(rest.len());
    Ok(rest[..end].trim().trim_matches('"'))
}

fn num<T: std::str::FromStr>(obj: &str, key: &str) -> Result<T, String> {
    field(obj, key)?
        .parse()
        .map_err(|_| format!("bench json: field `{key}` is not a number"))
}

/// Extracts the body of a top-level `"key": [ ... ]` array. Result objects
/// are flat (no nested brackets), so the first `]` after the opener closes
/// the array.
fn array_body<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)?;
    let rest = json[at + pat.len()..].trim_start();
    let rest = rest.strip_prefix('[')?;
    Some(&rest[..rest.find(']')?])
}

fn parse_checksum(obj: &str) -> Result<u64, String> {
    let checksum = field(obj, "checksum")?;
    u64::from_str_radix(checksum.trim_start_matches("0x"), 16)
        .map_err(|_| "bench json: bad checksum".to_string())
}

/// Iterates the flat `{...}` objects inside one array body.
fn objects(body: &str) -> impl Iterator<Item = &str> {
    let mut rest = body;
    std::iter::from_fn(move || {
        let open = rest.find('{')?;
        let close = open + rest[open..].find('}')?;
        let obj = &rest[open..=close];
        rest = &rest[close + 1..];
        Some(obj)
    })
}

/// Parses a `BENCH_runtime.json` document — the schema validation CI runs
/// on every generated file. Accepts `sage-bench/v4` only: the one committed
/// baseline is regenerated whenever the schema moves.
pub fn parse_doc(json: &str) -> Result<BenchDoc, String> {
    if field(json, "schema")? != "sage-bench/v4" {
        return Err("bench json: unknown schema (want sage-bench/v4)".into());
    }
    let quick = field(json, "quick")? == "true";
    let section = |key: &str| {
        array_body(json, key).ok_or_else(|| format!("bench json: missing `{key}` array"))
    };
    let mut results = Vec::new();
    for obj in objects(section("results")?) {
        results.push(BenchResult {
            model: field(obj, "model")?.to_string(),
            transport: field(obj, "transport")?.to_string(),
            nodes: num(obj, "nodes")?,
            iterations: num(obj, "iterations")?,
            wall_secs: num(obj, "wall_secs")?,
            ms_per_iter: num(obj, "ms_per_iter")?,
            bytes_moved: num(obj, "bytes_moved")?,
            messages: num(obj, "messages")?,
            bandwidth_mib_s: num(obj, "bandwidth_mib_s")?,
            sink_bytes: num(obj, "sink_bytes")?,
            checksum: parse_checksum(obj)?,
        });
    }
    if results.is_empty() {
        return Err("bench json: empty results".into());
    }
    let mut jobs = Vec::new();
    for obj in objects(section("jobs")?) {
        jobs.push(JobsCell {
            mode: field(obj, "mode")?.to_string(),
            concurrency: num(obj, "concurrency")?,
            jobs: num(obj, "jobs")?,
            ranks: num(obj, "ranks")?,
            iterations: num(obj, "iterations")?,
            wall_secs: num(obj, "wall_secs")?,
            jobs_per_sec: num(obj, "jobs_per_sec")?,
            checksum: parse_checksum(obj)?,
        });
    }
    let mut pipeline = Vec::new();
    for obj in objects(section("pipeline")?) {
        pipeline.push(PipelineResult {
            model: field(obj, "model")?.to_string(),
            nodes: num(obj, "nodes")?,
            iterations: num(obj, "iterations")?,
            depth: num(obj, "depth")?,
            lockstep_fps: num(obj, "lockstep_fps")?,
            pipelined_fps: num(obj, "pipelined_fps")?,
            speedup: num(obj, "speedup")?,
            checksum: parse_checksum(obj)?,
        });
    }
    Ok(BenchDoc {
        quick,
        results,
        jobs,
        pipeline,
    })
}

/// One section's regression gate: every baseline cell that `same` pairs
/// with a cell of this run must have kept at least `1 - tolerance` of its
/// committed `metric`. A run with cells the baseline has no counterpart for
/// — a disjoint baseline, or one missing the whole section — is an error,
/// not a silent pass; a section this run did not produce gates nothing.
fn gate<C>(
    what: &str,
    current: &[C],
    baseline: &[C],
    tolerance: f64,
    same: impl Fn(&C, &C) -> bool,
    metric: impl Fn(&C) -> f64,
    label: impl Fn(&C) -> String,
) -> Result<(), String> {
    let mut checked = 0usize;
    for b in baseline {
        let Some(c) = current.iter().find(|c| same(c, b)) else {
            continue;
        };
        checked += 1;
        let floor = metric(b) * (1.0 - tolerance);
        if metric(c) < floor {
            return Err(format!(
                "{what} regression: {} measured {:.1}, committed {:.1} (floor {floor:.1})",
                label(c),
                metric(c),
                metric(b)
            ));
        }
    }
    if checked == 0 && !current.is_empty() {
        return Err(format!(
            "bench baseline has no {what} cells in common with this run"
        ));
    }
    Ok(())
}

/// Fails if any `(model, transport)` cell present in both runs lost more
/// than `tolerance` of its committed effective bandwidth (MiB/s).
pub fn check_regression(
    current: &[BenchResult],
    baseline: &[BenchResult],
    tolerance: f64,
) -> Result<(), String> {
    gate(
        "bandwidth (MiB/s)",
        current,
        baseline,
        tolerance,
        |c, b| c.model == b.model && c.transport == b.transport,
        |c| c.bandwidth_mib_s,
        |c| format!("{} {}", c.model, c.transport),
    )
}

/// Fails if any `(mode, concurrency, ranks)` job cell present in both runs
/// lost more than `tolerance` of its committed jobs/sec.
pub fn check_jobs_regression(
    current: &[JobsCell],
    baseline: &[JobsCell],
    tolerance: f64,
) -> Result<(), String> {
    gate(
        "job-throughput (jobs/s)",
        current,
        baseline,
        tolerance,
        |c, b| c.mode == b.mode && c.concurrency == b.concurrency && c.ranks == b.ranks,
        |c| c.jobs_per_sec,
        |c| format!("{} x{}", c.mode, c.concurrency),
    )
}

/// Fails if any streaming-pipeline cell present in both runs lost more
/// than `tolerance` of its committed frames/sec.
pub fn check_pipeline_regression(
    current: &[PipelineResult],
    baseline: &[PipelineResult],
    tolerance: f64,
) -> Result<(), String> {
    gate(
        "pipeline (frames/s)",
        current,
        baseline,
        tolerance,
        |c, b| c.model == b.model && c.nodes == b.nodes,
        |c| c.pipelined_fps,
        |c| c.model.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(model: &str, bw: f64) -> BenchResult {
        BenchResult {
            model: model.into(),
            transport: "local".into(),
            nodes: 4,
            iterations: 3,
            wall_secs: 0.125,
            ms_per_iter: 41.666666666666664,
            bytes_moved: 1_048_576,
            messages: 96,
            bandwidth_mib_s: bw,
            sink_bytes: 65536,
            checksum: 0x106286f4fa7ffcfd,
        }
    }

    fn jobs_sample(mode: &str, concurrency: u32, jps: f64) -> JobsCell {
        JobsCell {
            mode: mode.into(),
            concurrency,
            jobs: 64,
            ranks: 2,
            iterations: 8,
            wall_secs: 64.0 / jps,
            jobs_per_sec: jps,
            checksum: 0x106286f4fa7ffcfd,
        }
    }

    fn pipeline_sample(model: &str, fps: f64) -> PipelineResult {
        PipelineResult {
            model: model.into(),
            nodes: 4,
            iterations: 24,
            depth: 3,
            lockstep_fps: fps / 1.5,
            pipelined_fps: fps,
            speedup: 1.5,
            checksum: 0x106286f4fa7ffcfd,
        }
    }

    fn doc(results: Vec<BenchResult>) -> BenchDoc {
        BenchDoc {
            results,
            ..BenchDoc::default()
        }
    }

    #[test]
    fn doc_round_trips_with_job_and_pipeline_cells() {
        let bare = doc(vec![
            sample("fft2d_64", 8.0),
            sample("corner_turn_256", 80.5),
        ]);
        assert_eq!(parse_doc(&to_json_doc(&bare)).unwrap(), bare);
        let full = BenchDoc {
            quick: true,
            results: vec![sample("fft2d_64", 8.0)],
            jobs: vec![
                jobs_sample("fleet", 64, 120.0),
                jobs_sample("fork", 64, 11.5),
            ],
            pipeline: vec![
                pipeline_sample("fft2d_64", 900.0),
                pipeline_sample("beamformer_64", 300.0),
            ],
        };
        assert_eq!(parse_doc(&to_json_doc(&full)).unwrap(), full);
    }

    #[test]
    fn schema_is_validated() {
        assert!(parse_doc("{}").is_err());
        assert!(parse_doc("{\"schema\": \"other/v9\", \"results\": []}").is_err());
        let json = to_json_doc(&doc(vec![sample("m", 1.0)]));
        for older in ["sage-bench/v3", "bogus"] {
            let err = parse_doc(&json.replace("sage-bench/v4", older)).unwrap_err();
            assert!(err.contains("schema"), "{err}");
        }
        let err = parse_doc(&json.replace("\"jobs\"", "\"jbos\"")).unwrap_err();
        assert!(err.contains("missing `jobs`"), "{err}");
    }

    #[test]
    fn pipeline_regression_gate() {
        let committed = vec![pipeline_sample("fft2d_64", 100.0)];
        let ok = vec![pipeline_sample("fft2d_64", 80.0)];
        let bad = vec![pipeline_sample("fft2d_64", 70.0)];
        assert!(check_pipeline_regression(&ok, &committed, 0.25).is_ok());
        assert!(check_pipeline_regression(&bad, &committed, 0.25).is_err());
        // Disjoint cells are an error, and so is a baseline without the
        // section: a gate that compares nothing must not pass.
        let other = vec![pipeline_sample("stap_128", 99.0)];
        assert!(check_pipeline_regression(&other, &committed, 0.25).is_err());
        assert!(check_pipeline_regression(&ok, &[], 0.25).is_err());
        // A run without `--pipeline` has nothing to gate.
        assert!(check_pipeline_regression(&[], &committed, 0.25).is_ok());
    }

    #[test]
    fn jobs_regression_gate() {
        let committed = vec![jobs_sample("fleet", 8, 100.0)];
        assert!(check_jobs_regression(&[jobs_sample("fleet", 8, 60.0)], &committed, 0.5).is_ok());
        assert!(check_jobs_regression(&[jobs_sample("fleet", 8, 40.0)], &committed, 0.5).is_err());
        // Disjoint cells are an error, and so is a baseline whose `jobs`
        // section is empty (the state the committed file was in when this
        // gate passed vacuously).
        assert!(check_jobs_regression(&[jobs_sample("fork", 8, 99.0)], &committed, 0.5).is_err());
        assert!(check_jobs_regression(&[jobs_sample("fleet", 8, 100.0)], &[], 0.5).is_err());
        // A run without `--jobs` has nothing to gate.
        assert!(check_jobs_regression(&[], &committed, 0.5).is_ok());
    }

    #[test]
    fn regression_gate_trips_beyond_tolerance() {
        let committed = vec![sample("m", 100.0)];
        assert!(check_regression(&[sample("m", 80.0)], &committed, 0.25).is_ok());
        assert!(check_regression(&[sample("m", 74.0)], &committed, 0.25).is_err());
        // Disjoint cells are an error, not a silent pass.
        assert!(check_regression(&[sample("other", 99.0)], &committed, 0.25).is_err());
    }
}
