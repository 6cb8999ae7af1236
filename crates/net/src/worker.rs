//! The worker daemon: hosts one rank of a distributed job.
//!
//! Protocol, from the worker's side:
//!
//! 1. bind the listen address, print `sage-worker listening on <addr>` so
//!    the launcher (or an operator) can collect the bound port;
//! 2. accept the control connection and read one `Job` frame;
//! 3. regenerate the glue program from the shipped model text (the
//!    generation pipeline is deterministic, so every rank derives identical
//!    tables and schedules), build the TCP mesh with the peer ranks, and run
//!    this rank's schedule;
//! 4. send one `Result` frame back with deposits, counters, and trace
//!    events — run failures travel in-band as typed `RuntimeError`s.
//!
//! Set `SAGE_NET_CHAOS_EXIT_MS=<millis>` to make the worker kill its own
//! process that long after accepting a job — the chaos hook the
//! kill-a-worker-mid-run tests use.

use crate::error::{NetError, RejectReason};
use crate::proto::{JobSpec, RankReport};
use crate::transport::{NetConfig, TcpTransport};
use crate::wire::{Frame, FrameKind};
use sage_core::{model_from_sexpr, Placement, Project};
use sage_fabric::NodeMetrics;
use sage_model::HardwareShelf;
use sage_runtime::{execute_rank, prepare, Registry, RuntimeError};
use sage_visualizer::{Collector, Probe};
use std::io::Write;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

/// Environment variable: if set to a millisecond count, the worker exits
/// the whole process that long after accepting a job (fault-injection for
/// the distributed layer: a real crash, not a simulated one).
pub const CHAOS_EXIT_ENV: &str = "SAGE_NET_CHAOS_EXIT_MS";

/// Runs one worker: binds `listen`, serves exactly one job, and returns.
///
/// `register` installs the kernel library into each job's registry (the
/// binary passes the ISSPL shelf; tests can pass their own).
pub fn serve(listen: &str, register: &dyn Fn(&mut Registry)) -> Result<(), NetError> {
    let listener = TcpListener::bind(listen)
        .map_err(|e| NetError::Io(format!("cannot bind {listen}: {e}")))?;
    let addr = listener.local_addr()?;
    println!("sage-worker listening on {addr}");
    std::io::stdout().flush()?;

    let (control, _) = listener.accept()?;
    control.set_nodelay(true)?;
    let job = Frame::read_from(&mut &control)?;
    if job.kind != FrameKind::Job {
        return Err(NetError::Protocol(format!(
            "expected job frame, got {:?}",
            job.kind
        )));
    }
    let spec = match JobSpec::decode(&job.payload) {
        Ok(spec) => spec,
        Err(e @ NetError::VersionMismatch { ours, theirs }) => {
            // Tell the launcher *why* before bailing: it sees a typed
            // rejection instead of a dropped connection.
            let reason = RejectReason::VersionMismatch { ours, theirs };
            let _ = Frame {
                kind: FrameKind::Reject,
                tag: 0,
                src: job.dst,
                dst: u32::MAX,
                job: 0,
                seq: 1,
                payload: reason.encode(),
            }
            .write_to(&mut &control);
            return Err(e);
        }
        Err(e) => return Err(e),
    };

    if let Some(ms) = std::env::var(CHAOS_EXIT_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            eprintln!("sage-worker: chaos exit after {ms} ms");
            std::process::exit(101);
        });
    }

    let report = run_job(&spec, &listener, register);
    Frame {
        kind: FrameKind::Result,
        tag: 0,
        src: spec.rank,
        dst: u32::MAX,
        job: 0,
        seq: 1,
        payload: report.encode(),
    }
    .write_to(&mut &control)?;
    Frame::control(FrameKind::Goodbye, spec.rank, u32::MAX, 2).write_to(&mut &control)?;
    Ok(())
}

/// Regenerates and prepares one job's program from its model text: parse,
/// place, generate, rank-count check, kernel binding. Shared by the
/// one-shot worker and the fleet daemon — both must derive identical
/// tables from the same model text.
pub fn prepare_job(
    model_text: &str,
    ranks: usize,
    register: &dyn Fn(&mut Registry),
) -> Result<(sage_runtime::GlueProgram, sage_runtime::Prepared), RuntimeError> {
    let model = model_from_sexpr(model_text)
        .map_err(|e| RuntimeError::BadProgram(format!("model: {e}")))?;
    let mut project = Project::new(model, HardwareShelf::cspi_with_nodes(ranks));
    register(&mut project.registry);
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
    let prepared = prepare(&program, &project.registry)?;
    Ok((program, prepared))
}

/// Failure report scaffold: everything zeroed except the error.
pub fn failed_report(rank: u32, error: RuntimeError) -> RankReport {
    RankReport {
        rank,
        error: Some(error),
        deposits: Vec::new(),
        wall_secs: 0.0,
        metrics: NodeMetrics::default(),
        links: Vec::new(),
        events: Vec::new(),
    }
}

/// Executes this rank of the job; all failures come back in-band.
fn run_job(spec: &JobSpec, listener: &TcpListener, register: &dyn Fn(&mut Registry)) -> RankReport {
    let rank = spec.rank;
    let (program, prepared) = match prepare_job(&spec.model, spec.ranks as usize, register) {
        Ok(p) => p,
        Err(e) => return failed_report(rank, e),
    };
    let options = if spec.optimized {
        sage_runtime::RuntimeOptions::optimized()
    } else {
        sage_runtime::RuntimeOptions::paper_faithful()
    }
    .with_probes(spec.probes)
    .with_race_detect(spec.race_detect)
    .with_pipeline(spec.pipeline.unwrap_or(0))
    .with_pipeline_depths(spec.pipeline_depths.clone());

    let collector = Arc::new(Collector::new(spec.ranks as usize, spec.probes));
    let probe = Probe::new(collector.clone(), rank);
    let mut transport = match TcpTransport::connect(
        rank as usize,
        &spec.peers,
        listener,
        NetConfig::default().with_heartbeat_ms(spec.heartbeat_ms),
        probe.clone(),
    ) {
        Ok(t) => t,
        // A peer that never came up is indistinguishable from a dead one.
        Err(_) => return failed_report(rank, RuntimeError::NodeFailed { node: rank }),
    };

    let t0 = Instant::now();
    // Degraded per-process detector: it only sees this rank's serial
    // accesses, so it is trivially clean — cross-rank race validation runs
    // on the in-process backend.
    let race = options
        .race_detect
        .then(|| sage_runtime::RaceState::new(spec.ranks as usize));
    let outcome = execute_rank(
        &mut transport,
        &program,
        &prepared,
        &options,
        spec.iterations,
        &probe,
        race.as_ref(),
    );
    let wall_secs = t0.elapsed().as_secs_f64();

    let (error, deposits, metrics, links) = match outcome {
        Ok(outcome) => {
            let (metrics, links) = transport.finish();
            // Deposits leave the shared-payload world here: the report
            // codec ships plain bytes. `into_vec` is free when the run-time
            // handed over the sole reference.
            let deposits = outcome
                .deposits
                .into_iter()
                .map(|(key, payload)| (key, payload.into_vec()))
                .collect();
            (None, deposits, metrics, links)
        }
        Err(e) => {
            // Error path: drop the mesh (peers see EOF and fail over) and
            // report the typed cause.
            drop(transport);
            (Some(e), Vec::new(), NodeMetrics::default(), Vec::new())
        }
    };
    drop(probe);
    let events = Arc::into_inner(collector)
        .map(|c| c.into_trace().events().to_vec())
        .unwrap_or_default();
    RankReport {
        rank,
        error,
        deposits,
        wall_secs,
        metrics,
        links,
        events,
    }
}

/// Reads the `sage-worker listening on <addr>` banner off a worker's
/// stdout line.
pub fn parse_banner(line: &str) -> Option<&str> {
    line.trim().strip_prefix("sage-worker listening on ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_round_trip() {
        assert_eq!(
            parse_banner("sage-worker listening on 127.0.0.1:4099\n"),
            Some("127.0.0.1:4099")
        );
        assert_eq!(parse_banner("something else"), None);
    }
}
