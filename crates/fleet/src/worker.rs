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
//!    [`JobTransport`] view of the shared mesh (per-job rank namespace),
//!    reporting back with `JobResult` — run failures travel in-band;
//! 5. on `Drain` (or scheduler EOF): finish in-flight jobs, ack with
//!    `DrainDone`, tear the mesh down, and return `Ok` — exit code 0.
//!
//! Thread count is O(1) in peers and jobs-in-flight bounded only by the
//! scheduler's slot accounting: one mesh I/O thread, one control reader
//! (the main thread), plus one short-lived thread per *executing* job.

use crate::proto::{is_eof, read_fleet, send_fleet, send_reject, FleetJob, FleetMsg};
use sage_net::{
    failed_report, prepare_job, JobTransport, MeshCore, NetConfig, NetError, RankReport,
    RejectReason, PROTO_VERSION,
};
use sage_runtime::{execute_rank, Registry, RuntimeOptions};
use sage_visualizer::Probe;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

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
        Probe::disabled(),
    )?;
    send_fleet(&mut &control, &FleetMsg::InitDone { worker_index })?;

    let writer = Mutex::new(control.try_clone()?);
    let active = ActiveJobs::default();
    let completed = AtomicU64::new(0);

    let served = std::thread::scope(|s| -> Result<(), NetError> {
        loop {
            let msg = match read_fleet(&mut &control) {
                Ok(m) => m,
                // Scheduler gone without a drain: finish what is in
                // flight (the scope join below waits for job threads),
                // then exit cleanly.
                Err(e) if is_eof(&e) => return Ok(()),
                Err(e) => return Err(e),
            };
            match msg {
                FleetMsg::Job(job) => {
                    active.begin();
                    let core = core.clone();
                    let writer = &writer;
                    let active = &active;
                    let completed = &completed;
                    s.spawn(move || {
                        let id = job.job;
                        let report = run_fleet_job(core, job, register);
                        if report.error.is_none() {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        send_result(writer, id, report);
                        active.end();
                    });
                }
                FleetMsg::Drain => {
                    active.wait_idle();
                    send_fleet(
                        &mut &control,
                        &FleetMsg::DrainDone {
                            jobs_completed: completed.load(Ordering::Relaxed),
                        },
                    )?;
                    return Ok(());
                }
                other => {
                    return Err(NetError::Protocol(format!(
                        "unexpected control message {other:?}"
                    )));
                }
            }
        }
    });
    core.shutdown();
    served
}

/// In-flight job counter with an idle condvar for drains.
#[derive(Default)]
struct ActiveJobs {
    count: Mutex<usize>,
    idle: Condvar,
}

impl ActiveJobs {
    fn begin(&self) {
        *self.count.lock().unwrap_or_else(|e| e.into_inner()) += 1;
    }
    fn end(&self) {
        let mut n = self.count.lock().unwrap_or_else(|e| e.into_inner());
        *n -= 1;
        if *n == 0 {
            self.idle.notify_all();
        }
    }
    fn wait_idle(&self) {
        let mut n = self.count.lock().unwrap_or_else(|e| e.into_inner());
        while *n > 0 {
            n = self.idle.wait(n).unwrap_or_else(|e| e.into_inner());
        }
    }
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

/// Executes one rank of one job over a job-scoped view of the warm mesh.
fn run_fleet_job(
    core: Arc<MeshCore>,
    spec: FleetJob,
    register: &(dyn Fn(&mut Registry) + Sync),
) -> RankReport {
    let rank = spec.rank;
    let (program, prepared) = match prepare_job(&spec.model, spec.rank_map.len(), &|r| register(r))
    {
        Ok(p) => p,
        Err(e) => return failed_report(rank, e),
    };
    let options = if spec.optimized {
        RuntimeOptions::optimized()
    } else {
        RuntimeOptions::paper_faithful()
    };

    let rank_map: Vec<usize> = spec.rank_map.iter().map(|&m| m as usize).collect();
    let mut transport = JobTransport::new(core, spec.job, rank as usize, rank_map);
    let probe = Probe::disabled();
    let t0 = Instant::now();
    // Degraded per-process detector (only this rank's serial accesses).
    let race = options
        .race_detect
        .then(|| sage_runtime::RaceState::new(spec.rank_map.len()));
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
    // Finish on both paths: `JobDone` tells peer ranks this rank is out of
    // the job (success or failure), while the mesh link stays warm for
    // every other job on the daemon.
    let (metrics, links) = transport.finish();
    match outcome {
        Ok(outcome) => RankReport {
            rank,
            error: None,
            deposits: outcome
                .deposits
                .into_iter()
                .map(|(key, payload)| (key, payload.into_vec()))
                .collect(),
            wall_secs,
            metrics,
            links,
            events: Vec::new(),
        },
        Err(e) => RankReport {
            rank,
            error: Some(e),
            deposits: Vec::new(),
            wall_secs,
            metrics,
            links,
            events: Vec::new(),
        },
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
}
