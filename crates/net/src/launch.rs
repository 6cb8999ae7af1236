//! The distributed launcher: spawns one worker process per rank, ships the
//! job, and collects the merged outcome.

use crate::error::{NetError, RejectReason};
use crate::proto::{JobSpec, RankReport, PROTO_VERSION};
use crate::wire::{Frame, FrameKind, WireError};
use sage_core::{model_from_sexpr, Placement, Project};
use sage_fabric::{FabricMetrics, NodeMetrics, RunReport};
use sage_model::HardwareShelf;
use sage_runtime::{GlueProgram, RuntimeError, SinkResults};
use sage_visualizer::Trace;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::Child;
use std::time::{Duration, Instant};

/// What to run and how.
#[derive(Clone, Debug)]
pub struct LaunchOptions {
    /// Ranks (worker processes) to spawn.
    pub workers: usize,
    /// Iterations (data sets).
    pub iterations: u32,
    /// Use the optimized (shared-buffer) run-time options.
    pub optimized: bool,
    /// Collect probe events from every rank into the merged trace.
    pub probes: bool,
    /// Arm the per-process vector-clock race detector on every rank (see
    /// `RuntimeOptions::race_detect`).
    pub race_detect: bool,
    /// Heartbeat period override in milliseconds shipped to every rank
    /// (`None` = transport default).
    pub heartbeat_ms: Option<u64>,
    /// Streaming pipeline depth shipped to every rank (`None` =
    /// lock-step; see `RuntimeOptions::pipeline`).
    pub pipeline: Option<u32>,
    /// Per-buffer ring-depth caps for streaming, indexed by buffer id.
    /// The caller computes these from the static pipeline-safety plan;
    /// empty means every buffer uses the global depth.
    pub pipeline_depths: Vec<u32>,
}

/// A merged distributed run.
#[derive(Debug)]
pub struct LaunchOutcome {
    /// Merged sink deposits from all ranks.
    pub results: SinkResults,
    /// Merged report: per-rank traffic counters and per-link wire counters.
    pub report: RunReport,
    /// Merged, time-sorted trace (empty unless probes were on).
    pub trace: Trace,
    /// The glue program the job ran (regenerate-once, for assembling sink
    /// output).
    pub program: GlueProgram,
    /// Per-rank wall seconds spent inside the executor.
    pub rank_walls: Vec<f64>,
}

/// Spawns the worker process for one rank. It must run `sage worker` (or
/// equivalent) with stdout piped, so the launcher can read the listen
/// banner.
pub type Spawner<'a> = dyn Fn(usize) -> std::io::Result<Child> + 'a;

/// Runs `model_text` across `opts.workers` freshly spawned worker
/// processes and merges the per-rank reports.
///
/// The launcher regenerates the glue program locally (same deterministic
/// pipeline the workers use) to validate the model up front and to let
/// callers assemble sink output from the merged deposits.
pub fn launch(
    model_text: &str,
    opts: &LaunchOptions,
    spawn: &Spawner<'_>,
) -> Result<LaunchOutcome, NetError> {
    if opts.workers == 0 {
        return Err(NetError::BadJob("need at least one worker".into()));
    }
    let t0 = Instant::now();
    let model =
        model_from_sexpr(model_text).map_err(|e| NetError::BadJob(format!("model: {e}")))?;
    let project = Project::new(model, HardwareShelf::cspi_with_nodes(opts.workers));
    let (program, _) = project
        .generate(&Placement::Aligned)
        .map_err(|e| NetError::BadJob(format!("codegen: {e}")))?;

    // Spawn every worker and read its listen banner.
    let mut children: Vec<Child> = Vec::with_capacity(opts.workers);
    let mut addrs: Vec<String> = Vec::with_capacity(opts.workers);
    for rank in 0..opts.workers {
        let mut child = spawn(rank).map_err(|e| {
            kill_all(&mut children);
            NetError::Io(format!("spawning worker {rank}: {e}"))
        })?;
        let stdout = child.stdout.take();
        children.push(child);
        let Some(stdout) = stdout else {
            kill_all(&mut children);
            return Err(NetError::Protocol(format!(
                "worker {rank} spawned without piped stdout"
            )));
        };
        let mut line = String::new();
        if BufReader::new(stdout).read_line(&mut line).is_err() || line.is_empty() {
            kill_all(&mut children);
            return Err(NetError::WorkerDied { rank: rank as u32 });
        }
        let Some(addr) = crate::worker::parse_banner(&line) else {
            kill_all(&mut children);
            return Err(NetError::Protocol(format!(
                "worker {rank} announced `{}` instead of a listen banner",
                line.trim()
            )));
        };
        addrs.push(addr.to_string());
    }

    // Ship the job over one control connection per worker.
    let mut controls: Vec<TcpStream> = Vec::with_capacity(opts.workers);
    for (rank, addr) in addrs.iter().enumerate() {
        let control = match TcpStream::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                kill_all(&mut children);
                return Err(NetError::Io(format!("control connect to rank {rank}: {e}")));
            }
        };
        let _ = control.set_nodelay(true);
        let spec = JobSpec {
            proto_version: PROTO_VERSION,
            rank: rank as u32,
            ranks: opts.workers as u32,
            iterations: opts.iterations,
            optimized: opts.optimized,
            probes: opts.probes,
            race_detect: opts.race_detect,
            heartbeat_ms: opts.heartbeat_ms,
            pipeline: opts.pipeline,
            pipeline_depths: opts.pipeline_depths.clone(),
            model: model_text.to_string(),
            peers: addrs.clone(),
        };
        let job = Frame {
            kind: FrameKind::Job,
            tag: 0,
            src: u32::MAX,
            dst: rank as u32,
            job: 0,
            seq: 1,
            payload: spec.encode(),
        };
        if let Err(e) = job.write_to(&mut &control) {
            kill_all(&mut children);
            return Err(e.into());
        }
        controls.push(control);
    }

    // Collect one result per rank; a dropped control connection (the
    // process died) is a typed worker death, not a hang.
    let collectors: Vec<_> = controls
        .into_iter()
        .enumerate()
        .map(|(rank, control)| {
            std::thread::spawn(move || -> Result<RankReport, NetError> {
                let frame = Frame::read_from(&mut &control).map_err(|e| match e {
                    WireError::Truncated => NetError::WorkerDied { rank: rank as u32 },
                    other => NetError::Wire(other),
                })?;
                if frame.kind == FrameKind::Reject {
                    // The worker refused the job with a typed reason;
                    // surface a version mismatch as the first-class error
                    // it is (`ours`/`theirs` from this side's view).
                    return Err(match RejectReason::decode(&frame.payload)? {
                        RejectReason::VersionMismatch { ours, theirs } => {
                            NetError::VersionMismatch {
                                ours: theirs,
                                theirs: ours,
                            }
                        }
                        reason => NetError::Rejected(reason),
                    });
                }
                if frame.kind != FrameKind::Result {
                    return Err(NetError::Protocol(format!(
                        "rank {rank}: expected result frame, got {:?}",
                        frame.kind
                    )));
                }
                RankReport::decode(&frame.payload)
            })
        })
        .collect();
    let outcomes: Vec<Result<RankReport, NetError>> = collectors
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| Err(NetError::Protocol("collector thread panicked".into())))
        })
        .collect();
    let wall = t0.elapsed();
    // All ranks have reported or died; nothing left to wait politely for.
    kill_all(&mut children);

    merge_outcomes(program, outcomes, wall, opts.workers)
}

/// Merges per-rank outcomes, surfacing the root-cause error with the same
/// deterministic priority the in-process executor uses: a rank that failed
/// outright beats a rank that merely noticed a dead or silent peer, and
/// ties break by rank order. Public so the fleet client can merge the
/// per-rank reports a scheduler hands back the same way the launcher does.
pub fn merge_outcomes(
    program: GlueProgram,
    outcomes: Vec<Result<RankReport, NetError>>,
    wall: Duration,
    ranks: usize,
) -> Result<LaunchOutcome, NetError> {
    let mut results = SinkResults::default();
    let mut nodes = vec![NodeMetrics::default(); ranks];
    let mut links = Vec::new();
    let mut events = Vec::new();
    let mut rank_walls = vec![0.0; ranks];
    let mut primary: Option<NetError> = None;
    let mut secondary: Option<NetError> = None;
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(report) => {
                rank_walls[rank] = report.wall_secs;
                nodes[rank] = report.metrics;
                links.extend(report.links);
                events.extend(report.events);
                match report.error {
                    None => {
                        for ((f, i, t), bytes) in report.deposits {
                            results.insert(f, i, t, bytes);
                        }
                    }
                    Some(e @ (RuntimeError::PeerFailed { .. } | RuntimeError::Timeout { .. })) => {
                        secondary.get_or_insert(NetError::Runtime(e));
                    }
                    Some(e) => {
                        primary.get_or_insert(NetError::Runtime(e));
                    }
                }
            }
            Err(NetError::WorkerDied { rank }) => {
                // The process is gone: report it as the node failure it is.
                primary.get_or_insert(NetError::Runtime(RuntimeError::NodeFailed { node: rank }));
            }
            Err(e) => {
                primary.get_or_insert(e);
            }
        }
    }
    if let Some(e) = primary.or(secondary) {
        return Err(e);
    }
    events.sort_by(|a, b| a.time.total_cmp(&b.time));
    Ok(LaunchOutcome {
        results,
        report: RunReport {
            metrics: FabricMetrics { nodes, links },
            wall,
            makespan: 0.0,
        },
        trace: Trace::new(events),
        program,
        rank_walls,
    })
}

fn kill_all(children: &mut [Child]) {
    for c in children.iter_mut() {
        let _ = c.kill();
        let _ = c.wait();
    }
}
