//! The fleet worker daemon: a long-lived process hosting one mesh
//! endpoint, executing many concurrent jobs over warm connections.
//!
//! Lifecycle, from the worker's side:
//!
//! 1. bind the control listen address, print
//!    `sage-fleet listening on <addr>` so the scheduler (or an operator)
//!    can collect the bound port;
//! 2. accept the scheduler's control connection, exchange
//!    `Hello`/`HelloAck` (an explicit version check — a mismatched
//!    scheduler gets a typed `Reject`, never a codec parse failure),
//!    announce the data-plane listen address;
//! 3. on `Init`, build the warm mesh with the other fleet workers
//!    ([`MeshCore`]) and ack with `InitDone`;
//! 4. serve jobs: each `Job` message runs on its own thread over a
//!    [`JobTransport`] view of the shared mesh (per-job rank namespace)
//!    with its own probe lane, reporting back with `JobResult` — run
//!    failures travel in-band;
//! 5. on `Drain` (or scheduler EOF): join the in-flight job threads, ack
//!    with `DrainDone`, tear the mesh down, and return `Ok` — exit code 0.
//!    The control reader never waits on a job thread before that, so a
//!    scheduler writing it a `Job` is never stuck behind one.
//!
//! Thread count is O(1) in peers and jobs-in-flight bounded only by the
//! scheduler's slot accounting: one mesh I/O thread, one control reader
//! (the main thread), plus one short-lived thread per *executing* job.
//!
//! Set `SAGE_NET_CHAOS_EXIT_MS=<millis>` to make the daemon kill its own
//! process that long after its first job arrives — the chaos hook the
//! kill-a-worker-mid-run tests use.

use crate::proto::{is_eof, read_fleet, send_fleet, send_reject, FleetJob, FleetMsg};
use sage_core::{Placement, Project};
use sage_fabric::Transport;
use sage_net::{
    Driver, JobParams, JobTransport, MeshCore, NetConfig, NetError, RejectReason, PROTO_VERSION,
};
use sage_runtime::{
    execute_rank, prepare, GlueProgram, RankReport, Registry, RuntimeError, RuntimeOptions,
};
use sage_visualizer::Probe;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Environment variable: if set to a millisecond count, the daemon exits
/// the whole process that long after its first job arrives
/// (fault-injection for the distributed layer: a real crash, not a
/// simulated one).
pub const CHAOS_EXIT_ENV: &str = "SAGE_NET_CHAOS_EXIT_MS";

/// Runs one fleet worker daemon: binds `listen`, serves jobs until
/// drained (or the scheduler disconnects), and returns.
///
/// `register` installs the kernel library into each job's registry; it
/// must be `Sync` because concurrent jobs prepare concurrently.
pub fn serve_fleet(
    listen: &str,
    register: &(dyn Fn(&mut Registry) + Sync),
) -> Result<(), NetError> {
    let control_listener = TcpListener::bind(listen)
        .map_err(|e| NetError::Io(format!("cannot bind {listen}: {e}")))?;
    let addr = control_listener.local_addr()?;
    println!("sage-fleet listening on {addr}");
    std::io::stdout().flush()?;

    let (control, _) = control_listener.accept()?;
    control.set_nodelay(true)?;

    // Version exchange before anything layout-dependent.
    let hello = read_fleet(&mut &control)?;
    let FleetMsg::Hello { proto_version } = hello else {
        return Err(NetError::Protocol(format!("expected hello, got {hello:?}")));
    };
    if proto_version != PROTO_VERSION {
        let _ = send_reject(
            &mut &control,
            RejectReason::VersionMismatch {
                ours: PROTO_VERSION,
                theirs: proto_version,
            },
        );
        return Err(NetError::VersionMismatch {
            ours: PROTO_VERSION,
            theirs: proto_version,
        });
    }
    // The mesh listens on its own ephemeral port, same interface.
    let data_listener = TcpListener::bind((addr.ip(), 0))?;
    let data_addr = data_listener.local_addr()?.to_string();
    send_fleet(
        &mut &control,
        &FleetMsg::HelloAck {
            proto_version: PROTO_VERSION,
            data_addr,
        },
    )?;

    let init = read_fleet(&mut &control)?;
    let FleetMsg::Init {
        worker_index,
        peers,
        heartbeat_ms,
    } = init
    else {
        return Err(NetError::Protocol(format!("expected init, got {init:?}")));
    };
    let core = MeshCore::connect(
        worker_index as usize,
        &peers,
        &data_listener,
        NetConfig::default().with_heartbeat_ms(heartbeat_ms),
    )?;
    send_fleet(&mut &control, &FleetMsg::InitDone { worker_index })?;

    let writer = Mutex::new(control.try_clone()?);
    let completed = AtomicU64::new(0);

    let mut chaos_armed = false;
    // Whether the scheduler asked for a drain. Either way the scope joins
    // every job thread first, so `DrainDone` follows the last `JobResult`.
    let drain = std::thread::scope(|s| -> Result<bool, NetError> {
        loop {
            let msg = match read_fleet(&mut &control) {
                Ok(m) => m,
                // Scheduler gone without a drain: finish what is in
                // flight, then exit cleanly.
                Err(e) if is_eof(&e) => return Ok(false),
                Err(e) => return Err(e),
            };
            match msg {
                FleetMsg::Job(job) => {
                    if !std::mem::replace(&mut chaos_armed, true) {
                        arm_chaos_exit();
                    }
                    let core = core.clone();
                    let writer = &writer;
                    let completed = &completed;
                    s.spawn(move || {
                        let id = job.job;
                        let report = run_fleet_job(core, job, register);
                        if report.error.is_none() {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        send_result(writer, id, report);
                    });
                }
                FleetMsg::Drain => return Ok(true),
                other => {
                    return Err(NetError::Protocol(format!(
                        "unexpected control message {other:?}"
                    )));
                }
            }
        }
    });
    let served = match drain {
        Ok(true) => {
            let jobs_completed = completed.into_inner();
            send_fleet(&mut &control, &FleetMsg::DrainDone { jobs_completed })
        }
        Ok(false) => Ok(()),
        Err(e) => Err(e),
    };
    core.shutdown();
    served
}

fn send_result(writer: &Mutex<TcpStream>, job: u32, report: RankReport) {
    let mut w = match writer.lock() {
        Ok(w) => w,
        Err(e) => e.into_inner(),
    };
    // A failed write means the scheduler is gone; the control reader will
    // see EOF and wind the daemon down — nothing to do here.
    let _ = send_fleet(&mut *w, &FleetMsg::JobResult { job, report });
}

/// Starts the [`CHAOS_EXIT_ENV`] countdown, if the variable asks for one.
// A fault injector, off unless the variable is set: a timer is its point.
#[allow(clippy::disallowed_methods)]
fn arm_chaos_exit() {
    let Some(ms) = std::env::var(CHAOS_EXIT_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    else {
        return;
    };
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(ms));
        eprintln!("sage-fleet: chaos exit after {ms} ms");
        std::process::exit(101);
    });
}

/// The run-time options a job asks for, checked against the program its
/// model generated. The per-buffer depths arrive from a client, so a list
/// that does not cover the program's buffers is a malformed job — the
/// executor would quietly fall back to the global depth for the rest.
///
/// Always the paper-faithful preset: the optimized one differs only in
/// what it charges a virtual clock, and a rank here runs on the wall clock.
fn runtime_options(
    params: &JobParams,
    program: &GlueProgram,
) -> Result<RuntimeOptions, RuntimeError> {
    let depths = &params.pipeline_depths;
    if !depths.is_empty() && depths.len() != program.buffers.len() {
        return Err(RuntimeError::BadProgram(format!(
            "job carries {} pipeline depths, program has {} buffers",
            depths.len(),
            program.buffers.len()
        )));
    }
    Ok(RuntimeOptions::paper_faithful()
        .with_probes(params.probes)
        .with_pipeline(params.pipeline.unwrap_or(0))
        .with_pipeline_depths(depths.clone()))
}

/// Regenerates one job's glue program from its model text — what every rank
/// does before it can execute. The generation pipeline is deterministic,
/// so every rank and the submitter derive identical tables and schedules.
/// It goes through the un-gated loader ([`Project::from_sexpr`] — the
/// submitter ran the lint gate): parse, place, generate, rank-count check.
/// The project comes back too — its registry is where the job's kernels
/// bind.
fn generate_job(model_text: &str, ranks: usize) -> Result<(Project, GlueProgram), RuntimeError> {
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

/// Checks where a job puts this endpoint before anything runs: `rank`
/// names an entry of `rank_map`, every entry is a mesh index, and `rank`'s
/// entry is this endpoint's own. All three arrive over the control
/// connection; a job failing them would index past the map or the mesh.
fn check_placement(
    rank: u32,
    rank_map: &[u32],
    mesh_rank: usize,
    mesh_size: usize,
) -> Result<(), RuntimeError> {
    let own = rank_map.get(rank as usize).map(|&m| m as usize);
    let why = match (own, rank_map.iter().find(|&&m| m as usize >= mesh_size)) {
        (None, _) => format!("rank {rank} of a {}-rank job", rank_map.len()),
        (_, Some(m)) => format!("mesh index {m} in a {mesh_size}-endpoint mesh"),
        (Some(own), None) if own != mesh_rank => {
            format!("rank {rank} placed on endpoint {own}, not {mesh_rank}")
        }
        _ => return Ok(()),
    };
    Err(RuntimeError::BadProgram(format!("job placement: {why}")))
}

/// Executes one rank of one job over a job-scoped view of the warm mesh —
/// whichever driver the mesh runs under.
pub fn run_fleet_job<D: Driver>(
    core: Arc<MeshCore<D>>,
    spec: FleetJob,
    register: &(dyn Fn(&mut Registry) + Sync),
) -> RankReport {
    let FleetJob {
        job,
        rank,
        rank_map,
        params,
    } = spec;
    let ranks = rank_map.len();
    let placed = check_placement(rank, &rank_map, core.mesh_rank(), core.mesh_size());
    let prepared = placed.and_then(|()| generate_job(&params.model, ranks));
    let prepared = prepared.and_then(|(mut project, program)| {
        register(&mut project.registry);
        let prepared = prepare(&program, &project.registry)?;
        Ok((runtime_options(&params, &program)?, program, prepared))
    });
    let (options, program, prepared) = match prepared {
        Ok(p) => p,
        Err(e) => return RankReport::new(rank, Err(e)),
    };

    let probe = Probe::new(params.probes);
    let rank_map: Vec<usize> = rank_map.iter().map(|&m| m as usize).collect();
    let mut transport = JobTransport::new(core, job, rank as usize, rank_map);
    let t0 = transport.now();
    let outcome = execute_rank(
        &mut transport,
        &program,
        &prepared,
        &options,
        params.iterations,
        &probe,
        None,
    );
    let wall_secs = transport.now() - t0;
    // Finish on both paths: `JobDone` tells peer ranks this rank is out of
    // the job (success or failure), while the mesh link stays warm for
    // every other job on the daemon.
    let (metrics, links) = transport.finish();
    RankReport {
        wall_secs,
        metrics,
        links,
        events: probe.into_events(),
        ..RankReport::new(rank, outcome)
    }
}

/// Reads the `sage-fleet listening on <addr>` banner off a daemon's
/// stdout line.
pub fn parse_fleet_banner(line: &str) -> Option<&str> {
    line.trim().strip_prefix("sage-fleet listening on ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_round_trip() {
        assert_eq!(
            parse_fleet_banner("sage-fleet listening on 127.0.0.1:4099\n"),
            Some("127.0.0.1:4099")
        );
        assert_eq!(parse_fleet_banner("something else"), None);
    }

    #[test]
    fn a_placement_off_the_map_or_the_mesh_or_this_endpoint_is_refused() {
        let refused = |rank, map: &[u32]| match check_placement(rank, map, 1, 3) {
            Err(RuntimeError::BadProgram(m)) => m,
            other => panic!("rank {rank} of {map:?}: {other:?}"),
        };
        assert_eq!(check_placement(1, &[0, 1], 1, 3), Ok(()));
        assert!(refused(2, &[0, 1]).contains("rank 2 of a 2-rank job"));
        assert!(refused(u32::MAX, &[]).contains("of a 0-rank job"));
        assert!(refused(1, &[0, 1, 3]).contains("mesh index 3 in a 3-endpoint mesh"));
        assert!(refused(0, &[2, 1]).contains("rank 0 placed on endpoint 2, not 1"));
    }

    #[test]
    fn pipeline_depths_must_cover_the_programs_buffers() {
        let program = GlueProgram {
            app_name: "demo".into(),
            functions: Vec::new(),
            buffers: Vec::new(),
            schedules: Vec::new(),
        };
        let mut params = JobParams::new("(app demo)", 1);
        params.pipeline = Some(2);
        let options = runtime_options(&params, &program).expect("no depths: global depth");
        assert_eq!(options.issue, sage_runtime::IssuePolicy::Streaming(2));
        params.pipeline_depths = vec![2];
        assert!(matches!(
            runtime_options(&params, &program),
            Err(RuntimeError::BadProgram(m)) if m.contains("1 pipeline depths")
        ));
    }
}
