//! The `sage bench --jobs` job-service throughput harness.
//!
//! Measures jobs/sec for a stream of small jobs (2-rank 2D FFT, 8
//! iterations each) pushed through N concurrent submitting clients, two
//! ways:
//!
//! * **fleet** — a persistent 2-worker fleet behind the scheduler: the
//!   worker processes and their mesh are built once, every job rides the
//!   warm links under its own job id;
//! * **fork** — the classic `sage launch` path per job: spawn 2 worker
//!   processes, build the mesh, run, tear everything down.
//!
//! Same model, same iterations, same concurrency — the cells differ only
//! in infrastructure amortization, which is exactly the quantity the
//! persistent-fleet design claims. Every job's assembled sink output must
//! be bit-identical across jobs *and* across modes; a mismatch fails the
//! bench.

use crate::trajectory::JobsCell;
use sage_core::{model_from_sexpr, model_io, Placement, Project};
use sage_fleet::{parse_fleet_banner, reports_to_outcomes, SchedConfig, Scheduler, SubmitSpec};
use sage_model::HardwareShelf;
use sage_net::{launch, LaunchOptions};
use sage_runtime::{fnv1a_64, GlueProgram, SinkResults};
use std::io::{BufRead, BufReader};
use std::process::Child;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Ranks per benchmark job (and workers in the persistent fleet).
pub const JOBS_RANKS: usize = 2;

/// Iterations (data sets) per benchmark job — deliberately small, so the
/// cell measures infrastructure overhead, not kernel time.
pub const JOBS_ITERATIONS: u32 = 8;

/// A spawner that can be called from concurrent submitting clients.
pub type SyncSpawner<'a> = dyn Fn(usize) -> std::io::Result<Child> + Sync + 'a;

/// Concurrency levels swept, honouring `SAGE_QUICK`.
pub fn jobs_concurrency() -> Vec<u32> {
    if std::env::var("SAGE_QUICK").is_ok() {
        vec![8]
    } else {
        vec![1, 8, 64]
    }
}

/// Jobs per cell, honouring `SAGE_QUICK`.
pub fn jobs_total() -> u32 {
    if std::env::var("SAGE_QUICK").is_ok() {
        16
    } else {
        64
    }
}

/// The benchmark job's model: a 64-point 2D FFT striped over
/// [`JOBS_RANKS`] threads, generated in-process (no committed file — the
/// export pipeline is deterministic).
pub fn jobs_model_text() -> String {
    model_io::model_to_sexpr(&sage_apps::fft2d::sage_model(64, JOBS_RANKS))
}

/// Regenerates the glue program the jobs run, for assembling sink output.
pub fn jobs_program(model_text: &str) -> Result<GlueProgram, String> {
    let model = model_from_sexpr(model_text).map_err(|e| e.to_string())?;
    let project = Project::new(model, HardwareShelf::cspi_with_nodes(JOBS_RANKS));
    let (program, _) = project
        .generate(&Placement::Aligned)
        .map_err(|e| e.to_string())?;
    Ok(program)
}

fn make_cell(mode: &str, concurrency: u32, jobs: u32, wall_secs: f64, checksum: u64) -> JobsCell {
    JobsCell {
        mode: mode.to_string(),
        concurrency,
        jobs,
        ranks: JOBS_RANKS,
        iterations: JOBS_ITERATIONS,
        wall_secs,
        jobs_per_sec: f64::from(jobs) / wall_secs.max(1e-9),
        checksum,
    }
}

/// Drives `jobs` runs of `run_one` from `concurrency` client threads and
/// returns (wall seconds, the one checksum every job produced).
fn drive(
    concurrency: u32,
    jobs: u32,
    run_one: &(dyn Fn() -> Result<u64, String> + Sync),
) -> Result<(f64, u64), String> {
    let next = AtomicU32::new(0);
    let sums: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(jobs as usize));
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..concurrency {
            s.spawn(|| {
                while next.fetch_add(1, Ordering::Relaxed) < jobs {
                    match run_one() {
                        Ok(sum) => sums.lock().unwrap_or_else(|e| e.into_inner()).push(sum),
                        Err(e) => {
                            *failure.lock().unwrap_or_else(|e| e.into_inner()) = Some(e);
                            return;
                        }
                    }
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    if let Some(e) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(e);
    }
    let sums = sums.into_inner().unwrap_or_else(|e| e.into_inner());
    if sums.len() != jobs as usize {
        return Err(format!("jobs bench: ran {} of {jobs} jobs", sums.len()));
    }
    let checksum = sums[0];
    if sums.iter().any(|&s| s != checksum) {
        return Err(format!(
            "jobs bench: sink checksum diverged across jobs: {sums:#018x?}"
        ));
    }
    Ok((wall, checksum))
}

/// Benches the persistent fleet: spawns [`JOBS_RANKS`] fleet daemons with
/// `spawn_fleet` (a `sage fleet --listen 127.0.0.1:0` child with piped
/// stdout), connects a scheduler, sweeps every concurrency level over the
/// warm mesh, then drains — workers exit 0.
pub fn bench_fleet_jobs(
    spawn_fleet: &SyncSpawner<'_>,
    concurrency: &[u32],
    jobs: u32,
) -> Result<Vec<JobsCell>, String> {
    let model = jobs_model_text();
    let program = jobs_program(&model)?;
    let mut children: Vec<Child> = Vec::with_capacity(JOBS_RANKS);
    let mut addrs: Vec<String> = Vec::with_capacity(JOBS_RANKS);
    let result = (|| {
        for i in 0..JOBS_RANKS {
            let mut child = spawn_fleet(i).map_err(|e| format!("spawning fleet worker: {e}"))?;
            let stdout = child
                .stdout
                .take()
                .ok_or("fleet worker spawned without piped stdout")?;
            children.push(child);
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .map_err(|e| format!("fleet worker banner: {e}"))?;
            let addr = parse_fleet_banner(&line)
                .ok_or_else(|| format!("fleet worker announced `{}`", line.trim()))?;
            addrs.push(addr.to_string());
        }
        let sched =
            Scheduler::connect(&addrs, SchedConfig::default()).map_err(|e| e.to_string())?;
        let mut cells = Vec::new();
        // One warm-up job: first contact pays codegen/registry setup on
        // every worker; steady-state cells should not.
        submit_one(&sched, &model, &program)?;
        for &conc in concurrency {
            let (wall, checksum) = drive(conc, jobs, &|| submit_one(&sched, &model, &program))?;
            cells.push(make_cell("fleet", conc, jobs, wall, checksum));
        }
        sched.drain().map_err(|e| e.to_string())?;
        Ok(cells)
    })();
    for mut child in children {
        if result.is_err() {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
    result
}

fn submit_one(sched: &Scheduler, model: &str, program: &GlueProgram) -> Result<u64, String> {
    let spec = SubmitSpec {
        tenant: "bench".into(),
        ..SubmitSpec::new(model, JOBS_RANKS as u32, JOBS_ITERATIONS)
    };
    let outcome = sched.submit(&spec).map_err(|e| e.to_string())?;
    let mut results = SinkResults::default();
    for report in reports_to_outcomes(outcome.reports) {
        let report = report.map_err(|e| e.to_string())?;
        if let Some(e) = report.error {
            return Err(format!("rank {} failed: {e}", report.rank));
        }
        for ((f, i, t), bytes) in report.deposits {
            results.insert(f, i, t, bytes);
        }
    }
    Ok(fnv1a_64(&results.stream(program, JOBS_ITERATIONS)))
}

/// Benches fork-per-job: every job is a full `launch` — spawn
/// [`JOBS_RANKS`] one-shot workers, build a fresh mesh, run, tear down.
pub fn bench_fork_jobs(
    spawn_worker: &SyncSpawner<'_>,
    concurrency: &[u32],
    jobs: u32,
) -> Result<Vec<JobsCell>, String> {
    let model = jobs_model_text();
    let run_one = || -> Result<u64, String> {
        let opts = LaunchOptions {
            workers: JOBS_RANKS,
            iterations: JOBS_ITERATIONS,
            optimized: false,
            probes: false,
            race_detect: false,
            heartbeat_ms: None,
            pipeline: None,
            pipeline_depths: Vec::new(),
        };
        let outcome = launch(&model, &opts, spawn_worker).map_err(|e| e.to_string())?;
        Ok(fnv1a_64(
            &outcome.results.stream(&outcome.program, JOBS_ITERATIONS),
        ))
    };
    let mut cells = Vec::new();
    for &conc in concurrency {
        let (wall, checksum) = drive(conc, jobs, &run_one)?;
        cells.push(make_cell("fork", conc, jobs, wall, checksum));
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_generates_for_two_ranks() {
        let text = jobs_model_text();
        let program = jobs_program(&text).unwrap();
        assert_eq!(program.node_count(), JOBS_RANKS);
    }

    #[test]
    fn drive_collects_and_checks() {
        let (wall, sum) = drive(4, 16, &|| Ok(7)).unwrap();
        assert!(wall >= 0.0);
        assert_eq!(sum, 7);
        let counter = AtomicU32::new(0);
        let err = drive(2, 8, &|| {
            Ok(u64::from(counter.fetch_add(1, Ordering::SeqCst)))
        });
        assert!(err.unwrap_err().contains("diverged"));
    }
}
