//! Integration tests for the persistent fleet: concurrent mixed jobs
//! through one scheduler are bit-identical to a one-job `launch`, a
//! submitted job's trace carries every rank's events, concurrent streaming
//! jobs stay inside their job namespaces, a worker killed mid-queue fails
//! only its in-flight job (typed) while queued jobs complete on the
//! survivors, drain under load finishes the admitted work and exits 0, and
//! a fleet daemon's thread count does not grow with the number of peers.
//!
//! The `sim_` tests run the scheduler core and the daemons' job path
//! (`SchedState`, `run_fleet_job`) over `sage-simnet`'s seeded simulator:
//! no process, no socket, deterministic per seed.

mod common;

use common::{out_path, sage_bin, sink_bytes, sink_dump};
use sage::core::{Placement, Project};
use sage::fleet::{
    run_fleet_job, FleetJob, JobOutcome, SchedConfig, SchedState, Scheduler, SubmitSpec,
};
use sage::net::{MeshCore, NetConfig, NetError, RejectReason};
use sage_runtime::{fnv1a_64, Execution, RankReport, RuntimeError};
use sage_simnet::{Handle, SimDriver, SimNet};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Kills the wrapped children on drop so a panicking test does not leak
/// daemon processes; disarm once they are expected to exit on their own.
struct KillGuard(Vec<Child>);

impl KillGuard {
    fn wait_all_exit_zero(mut self, what: &str) {
        for child in &mut self.0 {
            let status = child.wait().expect("wait on child");
            assert!(status.success(), "{what} exited with {status}");
        }
        self.0.clear();
    }
}

impl Drop for KillGuard {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns a fleet of `n` daemons plus an in-process scheduler.
fn spawn_fleet(n: usize, cfg: SchedConfig) -> (KillGuard, Arc<Scheduler>) {
    let (children, addrs) =
        sage::fleet::spawn_daemons(n, &common::spawn_worker).expect("fleet daemons come up");
    let guard = KillGuard(children);
    let sched = Scheduler::connect(&addrs, cfg).expect("scheduler connects");
    (guard, sched)
}

/// Spawns `sage sched --spawn 2` and returns (guard, scheduler address).
fn spawn_cli_sched() -> (KillGuard, String) {
    let mut sched_child = Command::new(sage_bin())
        .args(["sched", "--spawn", "2", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn sched");
    let stdout = sched_child.stdout.take().expect("piped stdout");
    let guard = KillGuard(vec![sched_child]);
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read sched banner");
    let addr = sage::fleet::parse_sched_banner(&line)
        .unwrap_or_else(|| panic!("not a sched banner: `{}`", line.trim()))
        .to_string();
    (guard, addr)
}

/// Drains a CLI scheduler through `sage fleet drain` and waits for exit 0.
fn drain_cli_sched(guard: KillGuard, addr: &str) {
    let status = Command::new(sage_bin())
        .args(["fleet", "drain", "--sched", addr])
        .status()
        .expect("run fleet drain");
    assert!(status.success(), "fleet drain failed");
    guard.wait_all_exit_zero("sched");
}

/// Polls `probe` until it returns true or the deadline passes.
fn wait_until(what: &str, timeout: Duration, probe: &dyn Fn() -> bool) {
    let deadline = Instant::now() + timeout;
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Writes an in-process-generated 2-rank model to a scratch file.
fn write_model(name: &str, app: &sage::model::AppGraph) -> String {
    let path = out_path(&format!("fleet_model_{name}"));
    std::fs::write(&path, sage::core::model_io::model_to_sexpr(app)).expect("write model");
    path.to_string_lossy().into_owned()
}

/// The small job every in-process test submits: a 64-point 2-D FFT over
/// two ranks, the job `benchmark/`'s fleet workload also runs.
fn small_spec(iterations: u32) -> SubmitSpec {
    let model = sage::apps::fft2d::sage_model(64, 2);
    SubmitSpec::new(sage::core::model_io::model_to_sexpr(&model), 2, iterations)
}

/// Sink checksum of one successful [`small_spec`] outcome.
fn outcome_checksum(outcome: &JobOutcome, iterations: u32) -> u64 {
    project_checksum(&sage::apps::fft2d::sage_project(64, 2), outcome, iterations)
}

/// Sink checksum of one successful fleet outcome of `project`'s model,
/// asserting every rank reported cleanly.
fn project_checksum(project: &Project, outcome: &JobOutcome, iterations: u32) -> u64 {
    let (program, _) = project.generate(&Placement::Aligned).expect("codegen");
    let wall = Duration::from_secs_f64(outcome.wall_secs);
    let exec = Execution::merge(outcome.reports.clone(), wall, iterations)
        .expect("every rank reported cleanly");
    fnv1a_64(&sink_bytes(&program, &exec.results, iterations))
}

/// N concurrent mixed jobs through one CLI fleet (`sage sched --spawn 2`,
/// `sage submit`) produce sink dumps bit-identical to `sage launch` on the
/// same models, then a CLI drain exits 0.
#[test]
fn concurrent_mixed_jobs_match_one_shot_tcp() {
    let models = [
        (
            "fft2d",
            write_model("fft2d", &sage::apps::fft2d::sage_model(64, 2)),
        ),
        (
            "corner_turn",
            write_model("corner_turn", &sage::apps::corner_turn::sage_model(128, 2)),
        ),
        (
            "beamformer",
            write_model("beamformer", &sage::apps::beamformer::sage_model(64, 2)),
        ),
    ];
    let references: Vec<Vec<u8>> = models
        .iter()
        .map(|(name, path)| {
            sink_dump(
                &["launch", path, "--workers", "2", "--iters", "3"],
                &format!("fleet_ref_{name}"),
            )
        })
        .collect();

    let (guard, addr) = spawn_cli_sched();

    // Three concurrent submitters per model, all through the one fleet.
    std::thread::scope(|s| {
        for (m, (name, path)) in models.iter().enumerate() {
            for submitter in 0..3 {
                let (addr, reference) = (&addr, &references[m]);
                s.spawn(move || {
                    let dump = sink_dump(
                        &[
                            "submit", path, "--sched", addr, "--ranks", "2", "--iters", "3",
                        ],
                        &format!("fleet_sub_{name}_{submitter}"),
                    );
                    assert_eq!(
                        &dump, reference,
                        "{name} via a standing fleet differs from `sage launch`"
                    );
                });
            }
        }
    });

    drain_cli_sched(guard, &addr);
    for (_, path) in &models {
        let _ = std::fs::remove_file(path);
    }
}

/// `sage submit --trace` ships probe events back from every rank: the CSV
/// carries function and transfer rows from both daemons, not just a
/// header, every row stamped on the rank's wall clock — and the transport
/// records none of its own.
#[test]
fn submit_trace_carries_events_from_every_rank() {
    let model = write_model("trace", &sage::apps::fft2d::sage_model(64, 2));
    let trace = out_path("fleet_trace_csv");
    let (guard, addr) = spawn_cli_sched();
    sink_dump(
        &[
            "submit",
            &model,
            "--sched",
            &addr,
            "--ranks",
            "2",
            "--iters",
            "2",
            "--trace",
            &trace.to_string_lossy(),
        ],
        "fleet_trace_sink",
    );
    drain_cli_sched(guard, &addr);
    let csv = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&model);
    let rows: Vec<Vec<&str>> = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').collect())
        .collect();
    for node in ["0", "1"] {
        for kind in ["FnStart", "FnEnd", "XferStart", "XferEnd"] {
            assert!(
                rows.iter().any(|r| r[1] == node && r[2] == kind),
                "no {kind} row from rank {node} in:\n{csv}"
            );
        }
    }
    for r in &rows {
        assert!(!r[2].starts_with("Net"), "a transport row: {r:?}");
        if r[2] == "FnStart" {
            let time: f64 = r[0].parse().expect("a time");
            assert!(time > 0.0, "an unstamped row: {r:?}");
        }
    }
}

/// Two streaming jobs of different models run concurrently on one 2-daemon
/// fleet, each bit-identical to its own local lock-step sink: credit and
/// data tags of one job must never satisfy a receive of the other.
#[test]
fn concurrent_streaming_jobs_match_their_lock_step_sinks() {
    let iters = 8;
    let projects = [
        sage::apps::fft2d::sage_project(64, 2),
        sage::apps::beamformer::sage_project(64, 2),
    ];
    let (guard, sched) = spawn_fleet(2, SchedConfig::default());
    let together = std::sync::Barrier::new(projects.len());
    std::thread::scope(|s| {
        for project in &projects {
            let (sched, together) = (&sched, &together);
            s.spawn(move || {
                let (program, _) = project.generate(&Placement::Aligned).expect("codegen");
                let lock_step = project
                    .execute(
                        &program,
                        sage::fabric::TimePolicy::Virtual,
                        &sage::runtime::RuntimeOptions::paper_faithful(),
                        iters,
                    )
                    .expect("local lock-step run");
                let want = fnv1a_64(&sink_bytes(&program, &lock_step.results, iters));
                let plan =
                    sage::check::pipeline_plan(&program, &project.hardware).expect("pipeline plan");
                let mut spec =
                    SubmitSpec::new(sage::core::model_io::model_to_sexpr(&project.app), 2, iters);
                spec.params.pipeline = Some(4);
                spec.params.pipeline_depths = plan.buffers.iter().map(|b| b.safe_depth).collect();
                together.wait();
                let outcome = sched.submit(&spec).expect("streaming job completes");
                assert_eq!(
                    project_checksum(project, &outcome, iters),
                    want,
                    "`{}` streamed through the fleet differs from lock-step",
                    project.app.name
                );
            });
        }
    });
    sched.drain().expect("drain");
    guard.wait_all_exit_zero("fleet worker");
}

/// Killing a worker mid-queue fails the in-flight job with a typed error
/// and the queued jobs complete on the survivors — no hang, checksums
/// intact.
#[test]
fn killed_worker_fails_in_flight_job_and_survivors_drain_queue() {
    let cfg = SchedConfig {
        queue_depth: 32,
        slots_per_worker: 1,
        heartbeat_ms: Some(100),
    };
    let (mut guard, sched) = spawn_fleet(3, cfg);

    std::thread::scope(|s| {
        // A long job pins the two least-loaded workers (0 and 1)...
        let long = s.spawn(|| sched.submit(&small_spec(1500)));
        wait_until("long job dispatch", Duration::from_secs(10), &|| {
            sched.stats().active > 0
        });
        // ...so with one slot per worker, these four can only queue.
        let short: Vec<_> = (0..4)
            .map(|_| s.spawn(|| sched.submit(&small_spec(8))))
            .collect();
        wait_until("short jobs queued", Duration::from_secs(10), &|| {
            sched.stats().queue_depth >= 4
        });

        let victim = guard.0.remove(0);
        drop(KillGuard(vec![victim]));

        let outcome = long.join().unwrap().expect("in-flight job completes");
        let reports = outcome.reports;
        assert!(
            (reports.iter()).any(|r| r.as_ref().is_none_or(|report| report.error.is_some())),
            "in-flight job on the killed worker should fail typed: {reports:?}"
        );

        let mut checksums = Vec::new();
        for handle in short {
            let outcome = handle.join().unwrap().expect("queued job completes");
            checksums.push(outcome_checksum(&outcome, 8));
        }
        assert!(
            checksums.windows(2).all(|w| w[0] == w[1]),
            "survivor checksums diverged: {checksums:#018x?}"
        );
    });

    let stats = sched.stats();
    assert_eq!(stats.workers_live, 2, "one worker should be marked dead");
    assert_eq!(stats.failed, 1, "exactly the in-flight job should fail");
    assert_eq!(stats.completed, 4, "all queued jobs should complete");

    sched.drain().expect("drain survivors");
    guard.wait_all_exit_zero("surviving fleet worker");
}

/// Draining while jobs are queued and running finishes every admitted job,
/// refuses later submissions with the typed `Draining` reason, and the
/// workers exit 0.
#[test]
fn drain_under_load_completes_admitted_jobs() {
    let (guard, sched) = spawn_fleet(2, SchedConfig::default());
    let completed = AtomicUsize::new(0);
    let rejected = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..6 {
            s.spawn(|| match sched.submit(&small_spec(8)) {
                Ok(outcome) => {
                    outcome_checksum(&outcome, 8);
                    completed.fetch_add(1, Ordering::SeqCst);
                }
                Err(NetError::Rejected(RejectReason::Draining)) => {
                    rejected.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) => panic!("unexpected submit failure under drain: {e}"),
            });
        }
        wait_until("load to build", Duration::from_secs(10), &|| {
            sched.stats().accepted > 0
        });
        sched.drain().expect("drain under load");
    });
    assert!(
        completed.load(Ordering::SeqCst) > 0,
        "drain should finish the in-flight jobs, not abandon them"
    );
    assert_eq!(
        completed.load(Ordering::SeqCst) + rejected.load(Ordering::SeqCst),
        6,
        "every submission must resolve as completed or typed-draining"
    );
    match sched.submit(&small_spec(8)) {
        Err(NetError::Rejected(RejectReason::Draining)) => {}
        other => panic!("post-drain submit should be refused as Draining, got {other:?}"),
    }
    guard.wait_all_exit_zero("fleet worker");
}

/// A fleet daemon's thread count is O(1) in the number of peers: a worker
/// in a 4-peer mesh idles with the same threads as one in a 2-peer mesh.
#[cfg(target_os = "linux")]
#[test]
fn worker_thread_count_constant_in_peers() {
    fn idle_thread_count(workers: usize) -> usize {
        let (guard, sched) = spawn_fleet(workers, SchedConfig::default());
        let outcome = sched.submit(&small_spec(4)).expect("warm-up job");
        outcome_checksum(&outcome, 4);
        wait_until("fleet to go idle", Duration::from_secs(10), &|| {
            sched.stats().active == 0
        });
        let pid = guard.0[0].id();
        let mut threads = usize::MAX;
        // Job threads are scoped; give the last one a beat to unwind.
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            let status =
                std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read /proc status");
            let now = status
                .lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
                .expect("Threads: line");
            if now >= threads {
                threads = now;
                break;
            }
            threads = now;
            std::thread::sleep(Duration::from_millis(100));
        }
        sched.drain().expect("drain");
        guard.wait_all_exit_zero("fleet worker");
        threads
    }

    let two = idle_thread_count(2);
    let four = idle_thread_count(4);
    assert!(
        four <= two + 1,
        "fleet daemon threads grew with peers: {two} at 2 peers, {four} at 4 peers"
    );
}

/// One rank of a job on a simulated fleet endpoint, as its daemon runs it.
fn sim_rank(sim: &SimNet, core: &Arc<MeshCore<SimDriver>>, job: FleetJob) -> Handle<RankReport> {
    let core = core.clone();
    sim.spawn(move || run_fleet_job(core, job, &sage::apps::kernels::register_kernels))
}

/// The simulated kill case: `SchedState` on the simulator's clock over 3
/// endpoints with 1 slot each, one long job and four queued; worker 0 dies
/// at a step the seed picks while the long job runs. Returns the trace,
/// the stats and the queued jobs' checksums.
fn sim_kill_case(seed: u64) -> (u64, sage::fleet::FleetStats, Vec<u64>) {
    let sim = SimNet::new(seed);
    let cores = sim.mesh(3, NetConfig::default());
    let cfg = SchedConfig {
        queue_depth: 32,
        slots_per_worker: 1,
        heartbeat_ms: None,
    };
    let mut sched = SchedState::new(3, cfg);
    let (tx, long) = mpsc::channel();
    let mut frames = sched
        .submit(&small_spec(40), tx, sim.now())
        .expect("admitted");
    let short: Vec<_> = (0..4)
        .map(|_| {
            let (tx, rx) = mpsc::channel();
            let held = sched
                .submit(&small_spec(8), tx, sim.now())
                .expect("admitted");
            assert!(held.is_empty(), "one slot per worker: the short jobs queue");
            rx
        })
        .collect();
    sim.kill_within(0, 200);
    let mut running: Vec<(usize, u32, Handle<RankReport>)> = Vec::new();
    let mut down = false;
    loop {
        for (w, job) in frames.drain(..) {
            running.push((w, job.job, sim_rank(&sim, &cores[w], job)));
        }
        if running.is_empty() {
            break;
        }
        assert!(
            sim.steps() < 1_000_000 && sim.step(),
            "seed {seed}: the fleet hung"
        );
        if !down && sim.is_dead(0) {
            down = true;
            frames.extend(sched.worker_down(0, sim.now()));
        }
        let (done, left) = running.into_iter().partition(|(_, _, h)| h.is_finished());
        running = left;
        for (w, job, report) in done {
            // A dead worker's report never reaches the scheduler.
            let report = report.join();
            if !sim.is_dead(w) {
                frames.extend(sched.on_result(job, report, sim.now()));
            }
        }
    }
    let long = long.try_recv().expect("resolved").expect("admitted");
    assert!(
        (long.reports.iter()).any(|r| r.as_ref().is_none_or(|r| r.error.is_some())),
        "seed {seed}: the long job on the killed worker must fail typed"
    );
    let sums = (short.iter())
        .map(|rx| outcome_checksum(&rx.try_recv().expect("resolved").expect("ran"), 8))
        .collect();
    (sim.trace(), sched.stats(), sums)
}

/// Twin of `killed_worker_fails_in_flight_job_and_survivors_drain_queue`,
/// over seeds: the in-flight job fails, the four queued ones complete on
/// the survivors with one checksum, and a seed run twice runs the same.
#[test]
fn sim_killed_worker_fails_in_flight_job_and_survivors_drain_queue() {
    for seed in 0..8 {
        let (trace, stats, sums) = sim_kill_case(seed);
        assert_eq!(stats.workers_live, 2, "seed {seed}: one worker is dead");
        assert_eq!(
            stats.failed, 1,
            "seed {seed}: exactly the in-flight job fails"
        );
        assert_eq!(
            stats.completed, 4,
            "seed {seed}: every queued job completes"
        );
        assert!(
            sums.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: {sums:#018x?}"
        );
        if seed == 0 {
            assert_eq!(sim_kill_case(seed), (trace, stats, sums));
        }
    }
}

/// A `Job` whose rank or rank map does not fit the mesh or the worker is
/// refused with a typed report, and the endpoint keeps serving: the next
/// job on the same mesh completes.
#[test]
fn sim_malformed_job_is_a_typed_report_and_the_endpoint_keeps_serving() {
    let sim = SimNet::new(1);
    let cores = sim.mesh(2, NetConfig::default());
    let params = small_spec(2).params;
    let job = |rank, rank_map: &[u32]| FleetJob {
        job: 7,
        rank,
        rank_map: rank_map.to_vec(),
        params: params.clone(),
    };
    for (what, bad) in [
        ("rank past the map", job(2, &[0, 1])),
        ("map past the mesh", job(0, &[0, 5])),
        ("rank on another endpoint", job(0, &[1, 0])),
    ] {
        let report = sim_rank(&sim, &cores[0], bad);
        sim.run();
        let report = report.join();
        assert!(
            matches!(report.error, Some(RuntimeError::BadProgram(_))),
            "{what}: {:?}",
            report.error
        );
    }
    let ranks: Vec<_> = (0..2)
        .map(|r| {
            sim_rank(
                &sim,
                &cores[r],
                FleetJob {
                    job: 8,
                    ..job(r as u32, &[0, 1])
                },
            )
        })
        .collect();
    sim.run();
    let reports = ranks.into_iter().map(|h| Some(h.join())).collect();
    let outcome = JobOutcome {
        job: 8,
        wall_secs: 0.0,
        reports,
    };
    outcome_checksum(&outcome, 2);
}
