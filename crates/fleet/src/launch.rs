//! One job, one fleet: `launch` spawns a daemon per rank, runs the job
//! through an in-process [`Scheduler`] and drains the fleet again. There is
//! no second protocol — a launched job travels the same `Submit` → `Job` →
//! `JobResult` path as one submitted to a standing fleet.

use crate::proto::SubmitSpec;
use crate::sched::{SchedConfig, Scheduler};
use crate::worker::parse_fleet_banner;
use sage_net::{JobParams, NetError};
use sage_runtime::Execution;
use std::io::{BufRead, BufReader};
use std::process::Child;
use std::time::Instant;

/// What to launch and on how many freshly spawned daemons.
#[derive(Clone, Debug)]
pub struct LaunchOptions {
    /// Ranks (daemon processes) to spawn.
    pub workers: usize,
    /// Heartbeat period override in milliseconds for the mesh (`None` =
    /// transport default).
    pub heartbeat_ms: Option<u64>,
    /// What to run and how.
    pub params: JobParams,
}

/// Spawns the daemon process for one mesh index. It must run `sage fleet`
/// (or equivalent) with stdout piped, so the caller can read the listen
/// banner.
pub type Spawner<'a> = dyn Fn(usize) -> std::io::Result<Child> + 'a;

/// Spawns `n` fleet daemons and reads each one's listen banner; returns the
/// children and their control addresses, both indexed by mesh index. On
/// failure every child spawned so far is killed.
pub fn spawn_daemons(n: usize, spawn: &Spawner<'_>) -> Result<(Vec<Child>, Vec<String>), NetError> {
    let mut children: Vec<Child> = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for index in 0..n {
        let banner = spawn(index)
            .map_err(|e| NetError::Io(format!("spawning fleet daemon {index}: {e}")))
            .and_then(|mut child| {
                let stdout = child.stdout.take();
                children.push(child);
                read_banner(index, stdout)
            });
        match banner {
            Ok(addr) => addrs.push(addr),
            Err(e) => {
                kill_all(&mut children);
                return Err(e);
            }
        }
    }
    Ok((children, addrs))
}

fn read_banner(
    index: usize,
    stdout: Option<std::process::ChildStdout>,
) -> Result<String, NetError> {
    let stdout = stdout.ok_or_else(|| {
        NetError::Protocol(format!("fleet daemon {index} spawned without piped stdout"))
    })?;
    let mut line = String::new();
    if BufReader::new(stdout).read_line(&mut line).is_err() || line.is_empty() {
        return Err(NetError::WorkerDied { rank: index as u32 });
    }
    parse_fleet_banner(&line)
        .map(str::to_string)
        .ok_or_else(|| {
            NetError::Protocol(format!(
                "fleet daemon {index} announced `{}` instead of a listen banner",
                line.trim()
            ))
        })
}

fn kill_all(children: &mut [Child]) {
    for c in children.iter_mut() {
        let _ = c.kill();
        let _ = c.wait();
    }
}

/// Runs `opts.params` across `opts.workers` freshly spawned daemons and
/// merges the per-rank reports into the run's [`Execution`] — the caller
/// holds the glue program `opts.params.model` generates (each daemon
/// regenerates the same one) and assembles sink output on it. A daemon
/// that dies mid-run leaves its rank's report missing, which merges as the
/// typed node failure it is.
pub fn launch(opts: &LaunchOptions, spawn: &Spawner<'_>) -> Result<Execution, NetError> {
    if opts.workers == 0 {
        return Err(NetError::BadJob("need at least one worker".into()));
    }
    let t0 = Instant::now();
    let (mut children, addrs) = spawn_daemons(opts.workers, spawn)?;
    let cfg = SchedConfig {
        heartbeat_ms: opts.heartbeat_ms,
        ..SchedConfig::default()
    };
    let sched = match Scheduler::connect(&addrs, cfg) {
        Ok(sched) => sched,
        Err(e) => {
            kill_all(&mut children);
            return Err(e);
        }
    };
    let spec = SubmitSpec::with_params(opts.params.clone(), opts.workers as u32);
    let merged = sched.submit(&spec).and_then(|outcome| {
        Execution::merge(outcome.reports, t0.elapsed(), opts.params.iterations)
            .map_err(NetError::Runtime)
    });
    if merged.is_err() {
        kill_all(&mut children);
    }
    // Either way the drain stops the scheduler's threads: live daemons ack
    // and exit 0, killed ones already read as dead.
    let _ = sched.drain();
    for child in &mut children {
        let _ = child.wait();
    }
    merged
}
