//! The streaming speed-up experiment: lock-step vs the streaming executor
//! at the statically proven safe depth, on the in-process fabric's virtual
//! clock (frames/sec in deterministic model time, independent of host
//! load). The `pipeline_speedup` binary prints the table; the root
//! `tests/determinism.rs` pins the lock-step column bit-for-bit.

use sage_atot::TaskMapping;
use sage_core::{model_from_sexpr, Placement, Project};
use sage_fabric::TimePolicy;
use sage_model::{HardwareShelf, ProcId};
use sage_runtime::{fnv1a_64, GlueProgram, RuntimeOptions};

/// The committed example models (`examples/models/<name>.sexpr`) the
/// experiment sweeps: four applications plus the beamformer, whose long
/// cross-node chain is where streaming pays most.
pub const PIPELINE_MODELS: [&str; 5] = [
    "fft2d_64",
    "corner_turn_256",
    "image_filter_128",
    "stap_128",
    "beamformer_64",
];

/// Requested global ring depth; each model runs at
/// `min(proven safe depth, this)` so every cell is provably safe. Eight
/// frames in flight is enough to cover the cross-group round-trip on every
/// committed model; the proven depths are all far deeper.
pub const PIPELINE_DEPTH: u32 = 8;

/// Nodes each run uses.
pub const PIPELINE_NODES: usize = 4;

/// Iterations (data frames) per cell: three times [`PIPELINE_DEPTH`], so
/// the streaming run spends most of its frames in steady state instead of
/// ring fill/drain. The cells run on the virtual clock, so this costs
/// negligible wall time.
pub const PIPELINE_ITERATIONS: u32 = 24;

/// Virtual-clock executions per cell after one discarded warm-up; the
/// smallest makespan wins.
const REPEATS: usize = 3;

/// One measured streaming-pipeline cell.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineResult {
    /// Global ring depth the streaming run used
    /// (`min(proven, PIPELINE_DEPTH)`).
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
    for rep in 0..=REPEATS {
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

/// Builds the stage-pipelined placement the experiment runs on: the
/// block chain is split into two cost-balanced stage groups, each group
/// striped over half the nodes.
///
/// The SPMD-aligned mapping gives streaming nothing to overlap: every rank
/// runs every stage, and the fabric charges message serialization to the
/// sender's clock, so an aligned lock-step rank never waits (measured
/// `wait_secs` is zero on all committed models). Splitting the chain
/// across disjoint node groups puts a real cross-group round-trip inside
/// every frame — lock-step eats it as idle time, while the streaming
/// executor fills it with later frames' compute. Both cells of each row
/// run on this same placement, so the comparison is apples-to-apples.
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

/// Measures one model's streaming executor against lock-step at the
/// statically proven safe depth (capped at [`PIPELINE_DEPTH`]), with
/// per-buffer ring caps from the same plan. Both cells run on the
/// [`stage_pipelined_placement`] so the lock-step baseline has real
/// communication bubbles for streaming to reclaim.
pub fn bench_pipeline(name: &str) -> Result<PipelineResult, String> {
    let iterations = PIPELINE_ITERATIONS;
    let path = format!(
        "{}/../../examples/models/{name}.sexpr",
        env!("CARGO_MANIFEST_DIR")
    );
    let model_text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let model = model_from_sexpr(&model_text).map_err(|e| e.to_string())?;
    let mut project = Project::new(model, HardwareShelf::cspi_with_nodes(PIPELINE_NODES));
    sage_apps::kernels::register_kernels(&mut project.registry);
    let placement = stage_pipelined_placement(&project)?;
    let (program, _) = project.generate(&placement).map_err(|e| e.to_string())?;
    let (caps, proven) = match sage_check::pipeline_plan(&program, &project.hardware) {
        Some(p) => (
            p.buffers.iter().map(|b| b.safe_depth).collect::<Vec<u32>>(),
            p.safe_depth,
        ),
        None => (Vec::new(), PIPELINE_DEPTH),
    };
    let depth = proven.clamp(1, PIPELINE_DEPTH);
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
        depth,
        lockstep_fps,
        pipelined_fps,
        speedup: pipelined_fps / lockstep_fps.max(1e-12),
        checksum: lock_sum,
    })
}
