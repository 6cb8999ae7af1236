//! The six workloads: what each runs, how one rep of it is driven, and how
//! its output is verified.
//!
//! The program only ever sees what a user would hand it: model text
//! generated from `--seed` (through the same parse -> lint -> check ->
//! codegen front end `sage run` uses) and calls into public run functions.

use crate::host;
use crate::oracle::{self, Reference};
use crate::trace::{self, RankTrace, TimedTransport};
use sage::apps::kernels::register_kernels;
use sage::apps::{beamformer, corner_turn, fft2d};
use sage::core::{
    check_model_source, lint_model_source, model_from_sexpr, model_to_sexpr, Placement, Project,
};
use sage::fabric::{Cluster, MachineSpec, TimePolicy};
use sage::fleet::{parse_fleet_banner, SchedConfig, Scheduler, SubmitSpec};
use sage::model::{AppGraph, BlockId, BlockKind, HardwareShelf, PropValue};
use sage::net::{NetConfig, TcpTransport};
use sage::runtime::{
    execute_rank, prepare, GlueProgram, Prepared, RankOutcome, Registry, RuntimeError,
    RuntimeOptions, SinkResults,
};
use sage::visualizer::Probe;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Ranks of every workload (= the sandbox's vCPUs).
pub const RANKS: usize = 2;

/// Bytes of wire header per framed message (`sage_net::wire::HEADER_LEN`).
const WIRE_HEADER: u64 = sage::net::wire::HEADER_LEN as u64;

/// The application a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    /// `sage_apps::fft2d` — paper benchmark 1.
    Fft2d,
    /// `sage_apps::corner_turn` — paper benchmark 2.
    CornerTurn,
    /// `sage_apps::beamformer`.
    Beamformer,
}

/// How a workload is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// In-process fabric, lock-step, through `Project::execute`.
    Local,
    /// In-process fabric, streaming executor at this depth with the
    /// per-buffer caps from `sage_check::pipeline_plan`.
    Stream(u32),
    /// Two threads of this process, each with a `TcpTransport` on its own
    /// loopback listener, calling `execute_rank` as
    /// `sage_net::worker::run_job` does.
    Tcp,
    /// Jobs of this many iterations submitted by two closed-loop clients
    /// to a 2-daemon fleet.
    Fleet(u32),
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name, as in BENCHMARK.json.
    pub name: &'static str,
    /// Application.
    pub app: App,
    /// Matrix edge.
    pub size: usize,
    /// Threads per function in the model.
    pub threads: usize,
    /// Driver.
    pub mode: Mode,
    /// Frames (or fleet jobs) per rep: a closed-loop batch.
    pub batch: u32,
}

/// Closed-loop client threads of the fleet workload.
pub const FLEET_CLIENTS: usize = 2;

/// The workloads, in reporting order. Batches are sized to 40-60 ms on the
/// quiet sandbox. The sandbox's noise comes in phases of 0.2-3 s with quiet
/// windows as short between them, and a rep only counts when a calibration
/// on either side of it was quiet: a 0.2 s rep almost never fits, a 50 ms
/// one often does. Short batches also keep `SinkResults` (which retains
/// every frame) small; at 50 ms, thread start-up and `prepare` (~0.3 ms)
/// are still under 1% of a rep.
pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "fft2d_512_local",
        app: App::Fft2d,
        size: 512,
        threads: RANKS,
        mode: Mode::Local,
        batch: 8,
    },
    Spec {
        name: "corner_turn_512_local",
        app: App::CornerTurn,
        size: 512,
        threads: RANKS,
        mode: Mode::Local,
        batch: 24,
    },
    Spec {
        name: "beamformer_32x16_stream",
        app: App::Beamformer,
        size: 32,
        threads: 16,
        mode: Mode::Stream(8),
        batch: 200,
    },
    Spec {
        name: "fft2d_64_tcp",
        app: App::Fft2d,
        size: 64,
        threads: RANKS,
        mode: Mode::Tcp,
        batch: 100,
    },
    Spec {
        name: "corner_turn_512_tcp",
        app: App::CornerTurn,
        size: 512,
        threads: RANKS,
        mode: Mode::Tcp,
        batch: 10,
    },
    Spec {
        name: "fleet_jobs_fft2d_64",
        app: App::Fft2d,
        size: 64,
        threads: RANKS,
        mode: Mode::Fleet(8),
        batch: 12,
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Frames retired at the sinks per rep.
    pub fn frames_per_rep(&self) -> u32 {
        match self.mode {
            Mode::Fleet(iterations) => self.batch * iterations,
            _ => self.batch,
        }
    }

    /// Iterations one run call (or fleet job) executes.
    pub fn iterations_per_call(&self) -> u32 {
        match self.mode {
            Mode::Fleet(iterations) => iterations,
            _ => self.batch,
        }
    }

    /// The serial reference its frames are held against.
    pub fn reference(&self) -> Reference {
        match self.app {
            App::Fft2d => Reference::Fft2d,
            App::CornerTurn => Reference::CornerTurn,
            App::Beamformer => Reference::Beamformer,
        }
    }

    /// The same program on the in-process fabric (the TCP workloads' twin).
    pub fn local_twin(&self) -> Spec {
        Spec {
            mode: Mode::Local,
            ..*self
        }
    }
}

/// The data-set seed a `--seed` argument maps to (positive, fits the model
/// file's integer syntax).
pub fn data_seed(seed: u64) -> u64 {
    (seed.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20
}

/// Builds the Designer model with every source block's `seed` property
/// overridden.
pub fn build_model(spec: &Spec, seed: u64) -> AppGraph {
    let mut model = match spec.app {
        App::Fft2d => fft2d::sage_model(spec.size, spec.threads),
        App::CornerTurn => corner_turn::sage_model(spec.size, spec.threads),
        App::Beamformer => beamformer::sage_model(spec.size, spec.threads),
    };
    for i in 0..model.block_count() {
        let id = BlockId::from_index(i);
        if matches!(model.block(id).kind, BlockKind::Source { .. }) {
            model
                .block_mut(id)
                .props
                .insert("seed".into(), PropValue::Int(data_seed(seed) as i64));
        }
    }
    model
}

/// A generated, runnable program.
pub struct Program {
    /// Project (model + CSPI hardware + registered kernels).
    pub project: Project,
    /// Generated glue program.
    pub program: GlueProgram,
    /// Run-time options the workload uses.
    pub options: RuntimeOptions,
    /// The model text the front end was fed (and fleet jobs ship).
    pub model_text: String,
    /// CPUs ranks are placed on (rank `r` on the `r`-th, see `host`).
    pub cpus: Vec<usize>,
}

/// The front end a user goes through: model -> text -> parse -> lint ->
/// check -> codegen, plus the pipeline-safety plan for streaming workloads.
pub fn front_end(spec: &Spec, seed: u64) -> Result<Program, String> {
    let model_text = model_to_sexpr(&build_model(spec, seed));
    let lint = lint_model_source(&model_text, RANKS);
    if lint.error_count() > 0 {
        return Err(format!(
            "lint: {}",
            lint.render(spec.name, Some(&model_text))
        ));
    }
    let check = check_model_source(&model_text, RANKS);
    if check.error_count() > 0 {
        return Err(format!(
            "check: {}",
            check.render(spec.name, Some(&model_text))
        ));
    }
    let model = model_from_sexpr(&model_text).map_err(|e| format!("parse: {e}"))?;
    let mut project = Project::new(model, HardwareShelf::cspi_with_nodes(RANKS));
    register_kernels(&mut project.registry);
    let (program, _source) = project
        .generate(&Placement::Aligned)
        .map_err(|e| format!("codegen: {e}"))?;
    let mut options = RuntimeOptions::paper_faithful();
    if let Mode::Stream(depth) = spec.mode {
        let plan = sage::check::pipeline_plan(&program, &project.hardware)
            .ok_or("pipeline plan: program failed its structural self-checks")?;
        options = options
            .with_pipeline(depth)
            .with_pipeline_depths(plan.buffers.iter().map(|b| b.safe_depth).collect());
    }
    Ok(Program {
        project,
        program,
        options,
        model_text,
        cpus: host::allowed_cpus(),
    })
}

/// What one rep produced.
#[derive(Default)]
pub struct Rep {
    /// Wall seconds of the timed region.
    pub secs: f64,
    /// Why the rep failed, if it did (an `Err` from a run call, a refused or
    /// failed job, a rank error).
    pub error: Option<String>,
    /// Sink-stream checksum (of every job, for the fleet).
    pub checksums: Vec<u64>,
    /// The last frame the sink absorbed, assembled (frames workloads).
    pub last_frame: Option<Vec<u8>>,
    /// Cross-rank data messages.
    pub messages: u64,
    /// Cross-rank payload bytes.
    pub bytes: u64,
    /// Mesh establishment, ms (TCP).
    pub connect_ms: f64,
    /// Per-job client latency, ms (fleet).
    pub latency_ms: Vec<f64>,
    /// Per-job `JobOutcome::wall_secs`, ms (fleet).
    pub run_ms: Vec<f64>,
    /// Per-rank recordings (traced reps).
    pub ranks: Vec<RankTrace>,
}

impl Rep {
    fn failed(secs: f64, error: String) -> Rep {
        Rep {
            secs,
            error: Some(error),
            ..Rep::default()
        }
    }

    /// Payload bytes plus one wire header per message (computed, TCP).
    pub fn wire_bytes(&self) -> u64 {
        self.bytes + self.messages * WIRE_HEADER
    }
}

/// Merges the ranks' deposits and records what the oracle needs of them.
fn collect(
    program: &GlueProgram,
    outcomes: impl IntoIterator<Item = RankOutcome>,
    iterations: u32,
    rep: &mut Rep,
) {
    let mut results = SinkResults::default();
    for outcome in outcomes {
        for ((f, i, t), bytes) in outcome.deposits {
            results.insert(f, i, t, bytes);
        }
    }
    rep.checksums = vec![oracle::sink_checksum(program, &results, iterations)];
    rep.last_frame = oracle::last_sink_frame(program, &results, iterations - 1);
}

/// One untraced rep on the in-process fabric, timed around the public run
/// call.
pub fn run_local(p: &Program, options: &RuntimeOptions, frames: u32) -> Rep {
    let (exec, secs) = host::with_placement(&p.cpus, RANKS, || {
        let t0 = Instant::now();
        let exec = p
            .project
            .execute(&p.program, TimePolicy::Real, options, frames);
        (exec, t0.elapsed().as_secs_f64())
    });
    match exec {
        Err(e) => Rep::failed(secs, e.to_string()),
        Ok(exec) => Rep {
            secs,
            checksums: vec![oracle::sink_checksum(&p.program, &exec.results, frames)],
            last_frame: oracle::last_sink_frame(&p.program, &exec.results, frames - 1),
            messages: exec.report.metrics.total_messages(),
            bytes: exec.report.metrics.total_bytes(),
            ..Rep::default()
        },
    }
}

/// Kernel names and span budget of a traced rep.
pub struct Tracing<'a> {
    /// The registry with every kernel behind a `TimedKernel`.
    pub registry: &'a Registry,
    /// Kernel name table size.
    pub names: usize,
    /// Keep spans of frames below this id.
    pub keep_frames_below: u32,
}

fn first_error(outcomes: &[Result<RankOutcome, RuntimeError>]) -> Option<String> {
    outcomes
        .iter()
        .find_map(|o| o.as_ref().err().map(|e| e.to_string()))
}

/// One traced rep on the in-process fabric: what `sage_runtime::execute`
/// does (prepare, cluster, `execute_rank` per rank, merge), with the
/// kernels and each rank's transport behind stopwatches.
pub fn run_local_traced(p: &Program, tracing: &Tracing<'_>, frames: u32) -> Rep {
    let epoch = Instant::now();
    let prepared = match prepare(&p.program, tracing.registry) {
        Ok(prepared) => prepared,
        Err(e) => return Rep::failed(epoch.elapsed().as_secs_f64(), e.to_string()),
    };
    let cluster = Cluster::new(
        MachineSpec::from_hardware(&p.project.hardware),
        TimePolicy::Real,
    );
    let (per_rank, report) = host::with_placement(&p.cpus, RANKS, || {
        cluster.run(|ctx| {
            let rank = ctx.id();
            trace::traced_rank(
                rank,
                epoch,
                tracing.names,
                tracing.keep_frames_below,
                || {
                    execute_rank(
                        &mut TimedTransport::new(ctx),
                        &p.program,
                        &prepared,
                        &p.options,
                        frames,
                        &Probe::disabled(),
                        None,
                    )
                },
            )
        })
    });
    let (outcomes, ranks): (Vec<_>, Vec<_>) = per_rank.into_iter().unzip();
    let mut rep = Rep {
        secs: epoch.elapsed().as_secs_f64(),
        error: first_error(&outcomes),
        messages: report.metrics.total_messages(),
        bytes: report.metrics.total_bytes(),
        ranks,
        ..Rep::default()
    };
    collect(&p.program, outcomes.into_iter().flatten(), frames, &mut rep);
    rep
}

/// One rep over a real loopback mesh. Mesh establishment is outside the
/// timed region (and reported as `connect_ms`): the clock runs from a
/// barrier after both transports are up to the last rank returning, as a
/// `sage worker` times its job.
pub fn run_tcp(
    p: &Program,
    prepared: &Prepared,
    frames: u32,
    tracing: Option<&Tracing<'_>>,
) -> Rep {
    let bind = || TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"));
    let listeners = match (0..RANKS).map(|_| bind()).collect::<Result<Vec<_>, _>>() {
        Ok(l) => l,
        Err(e) => return Rep::failed(0.0, e),
    };
    let peers: Vec<String> = listeners
        .iter()
        .filter_map(|l| l.local_addr().ok())
        .map(|a| a.to_string())
        .collect();
    if peers.len() != RANKS {
        return Rep::failed(0.0, "listener without a local address".into());
    }
    let barrier = Barrier::new(RANKS);
    let epoch = Instant::now();
    struct RankRun {
        outcome: Result<RankOutcome, String>,
        start: Instant,
        end: Instant,
        connect_ms: f64,
        messages: u64,
        bytes: u64,
        trace: Option<RankTrace>,
    }
    let runs: Vec<RankRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..RANKS)
            .map(|rank| {
                let (peers, listener, barrier) = (&peers, &listeners[rank], &barrier);
                s.spawn(move || {
                    // The I/O thread `connect` spawns inherits this mask and
                    // stays with its rank.
                    host::pin(0, &p.cpus, rank);
                    let t0 = Instant::now();
                    let transport = TcpTransport::connect(
                        rank,
                        peers,
                        listener,
                        NetConfig::default(),
                        Probe::disabled(),
                    );
                    let connect_ms = t0.elapsed().as_secs_f64() * 1e3;
                    // Both ranks reach the barrier whether or not their
                    // connect succeeded, so a half-built mesh cannot hang it.
                    barrier.wait();
                    let start = Instant::now();
                    let mut transport = match transport {
                        Ok(t) => t,
                        Err(e) => {
                            return RankRun {
                                outcome: Err(format!("mesh: {e}")),
                                start,
                                end: start,
                                connect_ms,
                                messages: 0,
                                bytes: 0,
                                trace: None,
                            }
                        }
                    };
                    let probe = Probe::disabled();
                    let (outcome, trace) = match tracing {
                        None => (
                            execute_rank(
                                &mut transport,
                                &p.program,
                                prepared,
                                &p.options,
                                frames,
                                &probe,
                                None,
                            ),
                            None,
                        ),
                        Some(t) => {
                            let (o, tr) = trace::traced_rank(
                                rank,
                                epoch,
                                t.names,
                                t.keep_frames_below,
                                || {
                                    execute_rank(
                                        &mut TimedTransport::new(&mut transport),
                                        &p.program,
                                        prepared,
                                        &p.options,
                                        frames,
                                        &probe,
                                        None,
                                    )
                                },
                            );
                            (o, Some(tr))
                        }
                    };
                    let end = Instant::now();
                    let (_node, links) = transport.finish();
                    RankRun {
                        outcome: outcome.map_err(|e| e.to_string()),
                        start,
                        end,
                        connect_ms,
                        messages: links.iter().map(|l| l.messages).sum(),
                        bytes: links.iter().map(|l| l.bytes).sum(),
                        trace,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });
    let start = runs.iter().map(|r| r.start).min().unwrap_or(epoch);
    let end = runs.iter().map(|r| r.end).max().unwrap_or(epoch);
    let mut rep = Rep {
        secs: end.duration_since(start).as_secs_f64(),
        connect_ms: runs.iter().map(|r| r.connect_ms).fold(0.0, f64::max),
        messages: runs.iter().map(|r| r.messages).sum(),
        bytes: runs.iter().map(|r| r.bytes).sum(),
        ..Rep::default()
    };
    let mut outcomes = Vec::with_capacity(RANKS);
    for run in runs {
        match run.outcome {
            Ok(o) => outcomes.push(o),
            Err(e) => rep.error = rep.error.or(Some(e)),
        }
        rep.ranks.extend(run.trace);
    }
    if rep.error.is_none() {
        collect(&p.program, outcomes, frames, &mut rep);
    }
    rep
}

/// A running 2-daemon fleet with a connected scheduler.
pub struct Fleet {
    children: Vec<Child>,
    sched: Option<Arc<Scheduler>>,
}

impl Fleet {
    /// Spawns [`RANKS`] daemons (this binary in `fleet-daemon` mode, banner
    /// read from piped stdout, as `sage bench --jobs` does with `sage
    /// fleet`) and connects a scheduler to them.
    pub fn start(cpus: &[usize]) -> Result<Fleet, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut fleet = Fleet {
            children: Vec::with_capacity(RANKS),
            sched: None,
        };
        let mut addrs = Vec::with_capacity(RANKS);
        for slot in 0..RANKS {
            let mut child = Command::new(&exe)
                .arg("fleet-daemon")
                .arg(cpus[slot % cpus.len()].to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawning fleet daemon: {e}"))?;
            let stdout = child.stdout.take();
            fleet.children.push(child);
            let mut line = String::new();
            BufReader::new(stdout.ok_or("fleet daemon without piped stdout")?)
                .read_line(&mut line)
                .map_err(|e| format!("fleet daemon banner: {e}"))?;
            let addr = parse_fleet_banner(&line)
                .ok_or_else(|| format!("fleet daemon announced `{}`", line.trim()))?;
            addrs.push(addr.to_string());
        }
        fleet.sched = Some(
            Scheduler::connect(&addrs, SchedConfig::default())
                .map_err(|e| format!("scheduler connect: {e}"))?,
        );
        Ok(fleet)
    }

    fn sched(&self) -> &Scheduler {
        self.sched.as_ref().expect("scheduler connected in start()")
    }

    /// Scheduler admission counters: (admitted, rejected).
    pub fn admission(&self) -> (u64, u64) {
        let s = self.sched().stats();
        (s.accepted, s.rejected_total())
    }

    /// Pids of the daemons (for `/proc` RSS and CPU readings).
    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    /// One rep: `jobs` jobs drawn from a shared counter by
    /// [`FLEET_CLIENTS`] closed-loop clients, each waiting for its reply
    /// before submitting the next. Outcomes are verified after the clock
    /// stops.
    pub fn run_rep(&self, p: &Program, jobs: u32, iterations: u32) -> Rep {
        let spec = SubmitSpec {
            tenant: "benchmark".into(),
            ..SubmitSpec::new(p.model_text.clone(), RANKS as u32, iterations)
        };
        let next = AtomicU32::new(0);
        let done = Mutex::new(Vec::with_capacity(jobs as usize));
        let barrier = Barrier::new(FLEET_CLIENTS + 1);
        let sched = self.sched();
        let mut secs = 0.0;
        std::thread::scope(|s| {
            for client in 0..FLEET_CLIENTS {
                let (barrier, next, done, spec) = (&barrier, &next, &done, &spec);
                s.spawn(move || {
                    host::pin(0, &p.cpus, client);
                    barrier.wait();
                    while next.fetch_add(1, Ordering::Relaxed) < jobs {
                        let t0 = Instant::now();
                        let outcome = sched.submit(spec);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        done.lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push((ms, outcome));
                    }
                    barrier.wait();
                });
            }
            barrier.wait();
            let t0 = Instant::now();
            barrier.wait();
            secs = t0.elapsed().as_secs_f64();
        });
        let mut rep = Rep {
            secs,
            ..Rep::default()
        };
        for (ms, outcome) in done.into_inner().unwrap_or_else(|e| e.into_inner()) {
            let outcome = match outcome {
                Ok(o) => o,
                Err(e) => {
                    rep.error = rep.error.or(Some(format!("job refused: {e}")));
                    continue;
                }
            };
            rep.latency_ms.push(ms);
            rep.run_ms.push(outcome.wall_secs * 1e3);
            let mut results = SinkResults::default();
            for (rank, report) in outcome.reports.into_iter().enumerate() {
                match report {
                    None => {
                        rep.error = rep.error.or(Some(format!("rank {rank} died")));
                    }
                    Some(report) => {
                        if let Some(e) = report.error {
                            rep.error = rep.error.or(Some(format!("rank {rank}: {e}")));
                        }
                        for ((f, i, t), bytes) in report.deposits {
                            results.insert(f, i, t, bytes);
                        }
                    }
                }
            }
            rep.checksums
                .push(oracle::sink_checksum(&p.program, &results, iterations));
        }
        if rep.checksums.len() != jobs as usize && rep.error.is_none() {
            rep.error = Some(format!("ran {} of {jobs} jobs", rep.checksums.len()));
        }
        rep
    }

    /// Drains the fleet: daemons ack and exit 0; every child is waited for.
    pub fn stop(mut self) -> Result<(), String> {
        let drained = match self.sched.take() {
            Some(sched) => sched.drain().map(|_| ()).map_err(|e| format!("drain: {e}")),
            None => Ok(()),
        };
        for mut child in std::mem::take(&mut self.children) {
            if drained.is_err() {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        drained
    }
}

impl Drop for Fleet {
    /// Error paths: no daemon outlives the benchmark.
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Body of the `fleet-daemon <cpu>` mode: one `sage_fleet::serve_fleet`
/// worker on an ephemeral loopback port with the application kernels,
/// pinned (with every thread it spawns) to `cpu`.
pub fn fleet_daemon(cpu: usize) -> Result<(), String> {
    host::pin(0, &[cpu], 0);
    sage::fleet::serve_fleet("127.0.0.1:0", &|reg: &mut Registry| register_kernels(reg))
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_reaches_the_model_text() {
        let spec = Spec::by_name("fft2d_64_tcp").unwrap();
        let a = model_to_sexpr(&build_model(spec, 1));
        let b = model_to_sexpr(&build_model(spec, 2));
        assert_ne!(a, b);
        assert!(a.contains(&data_seed(1).to_string()));
        assert_eq!(a, model_to_sexpr(&build_model(spec, 1)));
    }

    /// The stopwatches must not change what the program computes: a rep
    /// through `TimedTransport` + `TimedKernel` leaves the sink stream
    /// bit-identical to `Project::execute`, lock-step and streaming.
    #[test]
    fn wrappers_leave_sink_checksums_bit_identical() {
        for name in ["fft2d_64_tcp", "beamformer_32x16_stream"] {
            let spec = Spec::by_name(name).unwrap();
            let spec = if spec.mode == Mode::Tcp {
                spec.local_twin()
            } else {
                *spec
            };
            let p = front_end(&spec, 5).unwrap();
            let plain = run_local(&p, &p.options, 6);
            assert!(plain.error.is_none(), "{:?}", plain.error);
            let (registry, names) = trace::wrap_registry(&p.project.registry);
            let tracing = Tracing {
                registry: &registry,
                names: names.len(),
                keep_frames_below: 2,
            };
            let traced = run_local_traced(&p, &tracing, 6);
            assert!(traced.error.is_none(), "{:?}", traced.error);
            assert_eq!(plain.checksums, traced.checksums, "{name}");
            assert_eq!(plain.last_frame, traced.last_frame, "{name}");
            for r in &traced.ranks {
                assert!(r.attributed_ns() <= r.wall_ns(), "{name} rank {}", r.rank);
                assert!(r.rec.count[trace::Kind::Kernel as usize] > 0);
                assert!(!r.rec.spans.is_empty());
            }
        }
    }

    /// Same over the wire: the TCP twin through the wrappers equals the
    /// unwrapped TCP run and the in-process run.
    #[test]
    fn tcp_twin_agrees_wrapped_and_unwrapped() {
        let spec = Spec::by_name("fft2d_64_tcp").unwrap();
        let p = front_end(spec, 9).unwrap();
        let local = run_local(&p, &p.options, 5);
        let prepared = prepare(&p.program, &p.project.registry).unwrap();
        let plain = run_tcp(&p, &prepared, 5, None);
        assert!(plain.error.is_none(), "{:?}", plain.error);
        let (registry, names) = trace::wrap_registry(&p.project.registry);
        let wrapped = prepare(&p.program, &registry).unwrap();
        let tracing = Tracing {
            registry: &registry,
            names: names.len(),
            keep_frames_below: 1,
        };
        let traced = run_tcp(&p, &wrapped, 5, Some(&tracing));
        assert!(traced.error.is_none(), "{:?}", traced.error);
        assert_eq!(local.checksums, plain.checksums);
        assert_eq!(local.checksums, traced.checksums);
        assert_eq!(traced.ranks.len(), RANKS);
        assert!(plain.messages > 0 && plain.wire_bytes() > plain.bytes);
    }

    #[test]
    fn references_accept_the_real_output() {
        for name in [
            "fft2d_64_tcp",
            "beamformer_32x16_stream",
            "corner_turn_512_local",
        ] {
            let spec = Spec::by_name(name).unwrap().local_twin();
            let p = front_end(&spec, 3).unwrap();
            let rep = run_local(&p, &RuntimeOptions::paper_faithful(), 2);
            let frame = rep.last_frame.expect("sink frame");
            let err = oracle::reference_error(spec.reference(), spec.size, data_seed(3), &frame);
            assert!(err < oracle::REFERENCE_TOLERANCE, "{name}: {err}");
            // And reject a frame generated from another seed.
            let other = oracle::reference_error(spec.reference(), spec.size, data_seed(4), &frame);
            assert!(other > oracle::REFERENCE_TOLERANCE, "{name}: {other}");
        }
    }
}
