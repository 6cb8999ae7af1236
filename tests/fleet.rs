//! Integration tests for the persistent fleet: concurrent mixed jobs
//! through one scheduler are bit-identical to the one-shot TCP transport,
//! a worker killed mid-queue fails only its in-flight job (typed) while
//! queued jobs complete on the survivors, drain under load finishes the
//! admitted work and exits 0, and a fleet daemon's thread count does not
//! grow with the number of peers.

mod common;

use common::{out_path, sage_bin, sink_bytes, sink_dump};
use sage::fleet::{reports_to_outcomes, SchedConfig, Scheduler, SubmitSpec};
use sage::net::{NetError, RejectReason};
use sage_runtime::{fnv1a_64, SinkResults};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
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

/// Spawns one `sage fleet` daemon and returns (child, data-plane address).
fn spawn_fleet_daemon() -> (Child, String) {
    let mut child = Command::new(sage_bin())
        .args(["fleet", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn fleet daemon");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read fleet banner");
    let addr = sage::fleet::parse_fleet_banner(&line)
        .unwrap_or_else(|| panic!("not a fleet banner: `{}`", line.trim()))
        .to_string();
    (child, addr)
}

/// Spawns a fleet of `n` daemons plus an in-process scheduler.
fn spawn_fleet(n: usize, cfg: SchedConfig) -> (KillGuard, Arc<Scheduler>) {
    let mut children = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let (child, addr) = spawn_fleet_daemon();
        children.push(child);
        addrs.push(addr);
    }
    let sched = Scheduler::connect(&addrs, cfg).expect("scheduler connects");
    (KillGuard(children), sched)
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

/// Sink checksum of one successful fleet outcome, asserting every rank
/// reported cleanly.
fn outcome_checksum(outcome: &sage::fleet::JobOutcome, iterations: u32) -> u64 {
    let (program, _) = sage::apps::fft2d::sage_project(64, 2)
        .generate(&sage::core::Placement::Aligned)
        .expect("codegen");
    let mut results = SinkResults::default();
    for report in reports_to_outcomes(outcome.reports.clone()) {
        let report = report.expect("rank reported");
        assert!(report.error.is_none(), "rank failed: {:?}", report.error);
        for ((f, i, t), bytes) in report.deposits {
            results.insert(f, i, t, bytes);
        }
    }
    fnv1a_64(&sink_bytes(&program, &results, iterations))
}

/// N concurrent mixed jobs through one CLI fleet (`sage sched --spawn 2`,
/// `sage submit`) produce sink dumps bit-identical to `sage run
/// --transport tcp` on the same models, then a CLI drain exits 0.
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
                &[
                    "run",
                    path,
                    "--transport",
                    "tcp",
                    "--nodes",
                    "2",
                    "--iters",
                    "3",
                ],
                &format!("fleet_ref_{name}"),
            )
        })
        .collect();

    let mut sched_child = Command::new(sage_bin())
        .args(["sched", "--spawn", "2", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn sched");
    let stdout = sched_child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read sched banner");
    let addr = sage::fleet::parse_sched_banner(&line)
        .unwrap_or_else(|| panic!("not a sched banner: `{}`", line.trim()))
        .to_string();
    let guard = KillGuard(vec![sched_child]);

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
                        "{name} via fleet differs from one-shot tcp"
                    );
                });
            }
        }
    });

    let status = Command::new(sage_bin())
        .args(["fleet", "drain", "--sched", &addr])
        .status()
        .expect("run fleet drain");
    assert!(status.success(), "fleet drain failed");
    guard.wait_all_exit_zero("sched");
    for (_, path) in &models {
        let _ = std::fs::remove_file(path);
    }
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
        let outcomes = reports_to_outcomes(outcome.reports);
        assert!(
            outcomes.iter().any(|r| match r {
                Err(NetError::WorkerDied { .. }) => true,
                Ok(report) => report.error.is_some(),
                Err(_) => false,
            }),
            "in-flight job on the killed worker should fail typed: {outcomes:?}"
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
