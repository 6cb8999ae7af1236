//! The job scheduler: admission control, a bounded queue, least-loaded
//! placement over the fleet, and per-job/per-tenant accounting.
//!
//! One [`Scheduler`] owns the control connections to every fleet worker.
//! Submissions pass admission (protocol version, drain state, fleet size,
//! queue bound — each refusal a typed [`RejectReason`]), wait in a bounded
//! FIFO queue, and dispatch when enough workers have free job slots. Each
//! dispatched job gets a fresh job id — the wire-header namespace that
//! keeps its traffic separate on the shared warm mesh — and a rank map
//! choosing which workers host which logical ranks.
//!
//! Threads: one dispatcher (pops the queue when slots free up) and one
//! reader per worker (collects `JobResult`s, detects worker death as
//! control-connection EOF). A dead worker fails its in-flight ranks with a
//! typed outcome; queued jobs simply dispatch to the survivors.
//!
//! [`serve_sched`] wraps a [`Scheduler`] in the TCP service the
//! `sage submit` / `sage fleet drain` / `sage fleet stats` clients speak.

use crate::metrics::{FleetStats, TenantStats};
use crate::proto::{is_eof, read_fleet, send_fleet, send_reject, FleetJob, FleetMsg, SubmitSpec};
use sage_net::poll::{self, PollFd};
use sage_net::{NetError, RejectReason, PROTO_VERSION};
use sage_runtime::RankReport;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduler tuning knobs.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Bound on the admission queue; submissions beyond it are refused
    /// with [`RejectReason::QueueFull`].
    pub queue_depth: usize,
    /// Concurrent job ranks one worker will host before the dispatcher
    /// holds further jobs in the queue.
    pub slots_per_worker: usize,
    /// Heartbeat period override shipped to the fleet mesh.
    pub heartbeat_ms: Option<u64>,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            queue_depth: 128,
            slots_per_worker: 64,
            heartbeat_ms: None,
        }
    }
}

/// What a submission resolves to once the job has run (or failed).
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutcome {
    /// The scheduler-assigned job id.
    pub job: u32,
    /// Wall seconds from dispatch to the last rank reporting.
    pub wall_secs: f64,
    /// Per-rank reports, indexed by logical rank. `None` means the worker
    /// hosting that rank died before reporting.
    pub reports: Vec<Option<RankReport>>,
}

/// One fleet worker's control link, from the scheduler's side.
struct WorkerLink {
    writer: Mutex<TcpStream>,
    alive: AtomicBool,
    /// Job ranks currently dispatched to this worker.
    active: AtomicUsize,
}

struct QueuedJob {
    job: u32,
    spec: SubmitSpec,
    tx: mpsc::Sender<Result<JobOutcome, NetError>>,
}

struct PendingJob {
    tenant: String,
    /// Logical rank -> worker (== mesh) index.
    assigned: Vec<usize>,
    reports: Vec<Option<RankReport>>,
    /// Ranks whose worker died before reporting.
    dead: Vec<bool>,
    /// Slots resolved so far (report arrived or worker died).
    filled: usize,
    tx: mpsc::Sender<Result<JobOutcome, NetError>>,
    t0: Instant,
}

#[derive(Default)]
struct SchedState {
    queue: VecDeque<QueuedJob>,
    pending: HashMap<u32, PendingJob>,
    next_job: u32,
    draining: bool,
    accepted: u64,
    completed: u64,
    failed: u64,
    rejected_queue_full: u64,
    rejected_insufficient: u64,
    rejected_draining: u64,
    rejected_version: u64,
    queue_high_water: u32,
    tenants: BTreeMap<String, TenantStats>,
    drain_done: Vec<Option<u64>>,
}

impl SchedState {
    fn new(workers: usize) -> SchedState {
        SchedState {
            // Job id 0 is `TcpTransport`'s private-mesh namespace; fleet
            // jobs start above it.
            next_job: 1,
            drain_done: vec![None; workers],
            ..SchedState::default()
        }
    }

    fn tenant(&mut self, name: &str) -> &mut TenantStats {
        self.tenants
            .entry(name.to_string())
            .or_insert_with(|| TenantStats {
                tenant: name.to_string(),
                ..TenantStats::default()
            })
    }
}

/// The fleet scheduler. See the module docs for the thread layout.
pub struct Scheduler {
    workers: Vec<Arc<WorkerLink>>,
    state: Mutex<SchedState>,
    cv: Condvar,
    stop: AtomicBool,
    cfg: SchedConfig,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Connects to every fleet worker, exchanges versions, wires the mesh
    /// (each worker learns every other worker's data-plane address), and
    /// starts the dispatcher and reader threads.
    pub fn connect(addrs: &[String], cfg: SchedConfig) -> Result<Arc<Scheduler>, NetError> {
        if addrs.is_empty() {
            return Err(NetError::Protocol("fleet needs at least one worker".into()));
        }
        let mut streams = Vec::with_capacity(addrs.len());
        let mut data_addrs = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let stream = TcpStream::connect(addr)
                .map_err(|e| NetError::Io(format!("cannot reach fleet worker {addr}: {e}")))?;
            stream.set_nodelay(true)?;
            send_fleet(
                &mut &stream,
                &FleetMsg::Hello {
                    proto_version: PROTO_VERSION,
                },
            )?;
            match read_fleet(&mut &stream)? {
                FleetMsg::HelloAck {
                    proto_version,
                    data_addr,
                } => {
                    if proto_version != PROTO_VERSION {
                        return Err(NetError::VersionMismatch {
                            ours: PROTO_VERSION,
                            theirs: proto_version,
                        });
                    }
                    data_addrs.push(data_addr);
                }
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected hello ack, got {other:?}"
                    )));
                }
            }
            streams.push(stream);
        }
        for (i, stream) in streams.iter().enumerate() {
            send_fleet(
                &mut &*stream,
                &FleetMsg::Init {
                    worker_index: i as u32,
                    peers: data_addrs.clone(),
                    heartbeat_ms: cfg.heartbeat_ms,
                },
            )?;
        }
        for stream in &streams {
            match read_fleet(&mut &*stream)? {
                FleetMsg::InitDone { .. } => {}
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected init ack, got {other:?}"
                    )));
                }
            }
        }

        let readers: Vec<TcpStream> = streams
            .iter()
            .map(TcpStream::try_clone)
            .collect::<Result<_, _>>()?;
        let workers = streams
            .into_iter()
            .map(|s| {
                Arc::new(WorkerLink {
                    writer: Mutex::new(s),
                    alive: AtomicBool::new(true),
                    active: AtomicUsize::new(0),
                })
            })
            .collect();
        let sched = Arc::new(Scheduler {
            workers,
            state: Mutex::new(SchedState::new(addrs.len())),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            cfg,
            handles: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(addrs.len() + 1);
        for (i, stream) in readers.into_iter().enumerate() {
            let sd = sched.clone();
            handles.push(std::thread::spawn(move || sd.reader_loop(i, &stream)));
        }
        let sd = sched.clone();
        handles.push(std::thread::spawn(move || sd.dispatch_loop()));
        *sched.handles.lock().unwrap_or_else(|e| e.into_inner()) = handles;
        Ok(sched)
    }

    /// Submits one job and blocks until its outcome. Run failures travel
    /// inside the `Ok` outcome's reports; an `Err` is an admission refusal
    /// (typed) or a scheduler shutdown.
    pub fn submit(&self, spec: &SubmitSpec) -> Result<JobOutcome, NetError> {
        let mut state = self.lock();
        if spec.proto_version != PROTO_VERSION {
            state.rejected_version += 1;
            state.tenant(&spec.tenant).rejected += 1;
            return Err(NetError::VersionMismatch {
                ours: PROTO_VERSION,
                theirs: spec.proto_version,
            });
        }
        if state.draining {
            state.rejected_draining += 1;
            state.tenant(&spec.tenant).rejected += 1;
            return Err(NetError::Rejected(RejectReason::Draining));
        }
        let live = self.live_workers();
        if spec.ranks == 0 || spec.ranks as usize > live {
            state.rejected_insufficient += 1;
            state.tenant(&spec.tenant).rejected += 1;
            return Err(NetError::Rejected(RejectReason::InsufficientWorkers {
                want: spec.ranks,
                have: live as u32,
            }));
        }
        if state.queue.len() >= self.cfg.queue_depth {
            state.rejected_queue_full += 1;
            state.tenant(&spec.tenant).rejected += 1;
            return Err(NetError::Rejected(RejectReason::QueueFull {
                depth: self.cfg.queue_depth as u32,
            }));
        }
        let job = state.next_job;
        state.next_job += 1;
        state.accepted += 1;
        state.tenant(&spec.tenant).accepted += 1;
        let (tx, rx) = mpsc::channel();
        state.queue.push_back(QueuedJob {
            job,
            spec: spec.clone(),
            tx,
        });
        state.queue_high_water = state.queue_high_water.max(state.queue.len() as u32);
        self.cv.notify_all();
        drop(state);
        rx.recv()
            .map_err(|_| NetError::Protocol("scheduler shut down before job completed".into()))?
    }

    /// Stops admitting, lets the queue and in-flight jobs finish, tells
    /// every worker to drain (they ack and exit 0), and returns the total
    /// jobs the fleet completed over its lifetime.
    pub fn drain(&self) -> Result<u64, NetError> {
        let mut state = self.lock();
        state.draining = true;
        self.cv.notify_all();
        while !(state.queue.is_empty() && state.pending.is_empty()) {
            state = self.wait(state);
        }
        drop(state);
        for w in &self.workers {
            if w.alive.load(Ordering::SeqCst) {
                let mut wr = w.writer.lock().unwrap_or_else(|e| e.into_inner());
                let _ = send_fleet(&mut *wr, &FleetMsg::Drain);
            }
        }
        let mut state = self.lock();
        loop {
            let all = (0..self.workers.len()).all(|i| {
                state.drain_done[i].is_some() || !self.workers[i].alive.load(Ordering::SeqCst)
            });
            if all {
                break;
            }
            state = self.wait(state);
        }
        let total = state.drain_done.iter().flatten().sum();
        drop(state);
        self.stop.store(true, Ordering::SeqCst);
        self.cv.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
        Ok(total)
    }

    /// A metrics snapshot.
    pub fn stats(&self) -> FleetStats {
        let state = self.lock();
        FleetStats {
            workers: self.workers.len() as u32,
            workers_live: self.live_workers() as u32,
            accepted: state.accepted,
            completed: state.completed,
            failed: state.failed,
            rejected_queue_full: state.rejected_queue_full,
            rejected_insufficient: state.rejected_insufficient,
            rejected_draining: state.rejected_draining,
            rejected_version: state.rejected_version,
            queue_depth: state.queue.len() as u32,
            queue_high_water: state.queue_high_water,
            active: state.pending.len() as u32,
            tenants: state.tenants.values().cloned().collect(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Condvar wait with a timeout: a missed wakeup costs at most 100 ms,
    /// and the timeout doubles as the stop-flag poll for the dispatcher.
    fn wait<'a>(&self, state: MutexGuard<'a, SchedState>) -> MutexGuard<'a, SchedState> {
        self.cv
            .wait_timeout(state, Duration::from_millis(100))
            .unwrap_or_else(|e| e.into_inner())
            .0
    }

    fn live_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.alive.load(Ordering::SeqCst))
            .count()
    }

    fn dispatch_loop(&self) {
        let mut state = self.lock();
        while !self.stop.load(Ordering::SeqCst) {
            match self.try_dispatch(&mut state) {
                Some((job, spec, assigned)) => {
                    drop(state);
                    self.ship(job, &spec, &assigned);
                    state = self.lock();
                }
                None => state = self.wait(state),
            }
        }
    }

    /// Pops the front job if enough workers have free slots; jobs that can
    /// no longer fit the surviving fleet complete with a typed refusal.
    fn try_dispatch(&self, state: &mut SchedState) -> Option<(u32, SubmitSpec, Vec<usize>)> {
        loop {
            let ranks = state.queue.front()?.spec.ranks as usize;
            let live: Vec<usize> = (0..self.workers.len())
                .filter(|&i| self.workers[i].alive.load(Ordering::SeqCst))
                .collect();
            if live.len() < ranks {
                // Admitted when the fleet was big enough, but workers died
                // while it queued. The front exists — `ranks` was just read
                // from it — so the `?` can never actually bail here.
                let q = state.queue.pop_front()?;
                state.rejected_insufficient += 1;
                state.failed += 1;
                state.tenant(&q.spec.tenant).failed += 1;
                let _ =
                    q.tx.send(Err(NetError::Rejected(RejectReason::InsufficientWorkers {
                        want: q.spec.ranks,
                        have: live.len() as u32,
                    })));
                continue;
            }
            let mut free: Vec<usize> = live
                .into_iter()
                .filter(|&i| {
                    self.workers[i].active.load(Ordering::SeqCst) < self.cfg.slots_per_worker
                })
                .collect();
            if free.len() < ranks {
                return None;
            }
            free.sort_by_key(|&i| (self.workers[i].active.load(Ordering::SeqCst), i));
            // Same front-exists contract as the refusal branch above.
            let q = state.queue.pop_front()?;
            let assigned: Vec<usize> = free[..ranks].to_vec();
            for &w in &assigned {
                self.workers[w].active.fetch_add(1, Ordering::SeqCst);
            }
            state.pending.insert(
                q.job,
                PendingJob {
                    tenant: q.spec.tenant.clone(),
                    assigned: assigned.clone(),
                    reports: vec![None; ranks],
                    dead: vec![false; ranks],
                    filled: 0,
                    tx: q.tx,
                    t0: Instant::now(),
                },
            );
            return Some((q.job, q.spec, assigned));
        }
    }

    fn ship(&self, job: u32, spec: &SubmitSpec, assigned: &[usize]) {
        let rank_map: Vec<u32> = assigned.iter().map(|&w| w as u32).collect();
        for (rank, &w) in assigned.iter().enumerate() {
            let msg = FleetMsg::Job(FleetJob {
                job,
                rank: rank as u32,
                rank_map: rank_map.clone(),
                params: spec.params.clone(),
            });
            let sent = {
                let mut wr = self.workers[w]
                    .writer
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                send_fleet(&mut *wr, &msg)
            };
            if sent.is_err() {
                self.worker_down(w);
            }
        }
    }

    fn reader_loop(&self, w: usize, stream: &TcpStream) {
        loop {
            match read_fleet(&mut &*stream) {
                Ok(FleetMsg::JobResult { job, report }) => {
                    let mut state = self.lock();
                    if let Some(p) = state.pending.get_mut(&job) {
                        let rank = report.rank as usize;
                        if rank < p.reports.len() && p.reports[rank].is_none() && !p.dead[rank] {
                            p.reports[rank] = Some(report);
                            p.filled += 1;
                            self.workers[p.assigned[rank]]
                                .active
                                .fetch_sub(1, Ordering::SeqCst);
                            if p.filled == p.reports.len() {
                                self.complete_locked(&mut state, job);
                            }
                        }
                    }
                    self.cv.notify_all();
                }
                Ok(FleetMsg::DrainDone { jobs_completed }) => {
                    let mut state = self.lock();
                    state.drain_done[w] = Some(jobs_completed);
                    self.cv.notify_all();
                }
                Ok(other) => {
                    eprintln!("sage-sched: worker {w} spoke out of turn ({other:?})");
                    self.worker_down(w);
                    return;
                }
                Err(e) => {
                    if !is_eof(&e) {
                        eprintln!("sage-sched: worker {w} link error: {e}");
                    }
                    self.worker_down(w);
                    return;
                }
            }
        }
    }

    /// Marks a worker dead and resolves its unreported in-flight ranks.
    /// The peers of those ranks see the death on the mesh and report typed
    /// failures of their own, so every slot still resolves.
    fn worker_down(&self, w: usize) {
        if !self.workers[w].alive.swap(false, Ordering::SeqCst) {
            return;
        }
        let mut state = self.lock();
        let jobs: Vec<u32> = state.pending.keys().copied().collect();
        for job in jobs {
            let done = {
                let Some(p) = state.pending.get_mut(&job) else {
                    continue;
                };
                let mut newly = false;
                for rank in 0..p.assigned.len() {
                    if p.assigned[rank] == w && p.reports[rank].is_none() && !p.dead[rank] {
                        p.dead[rank] = true;
                        p.filled += 1;
                        newly = true;
                    }
                }
                newly && p.filled == p.reports.len()
            };
            if done {
                self.complete_locked(&mut state, job);
            }
        }
        self.cv.notify_all();
    }

    fn complete_locked(&self, state: &mut SchedState, job: u32) {
        let Some(p) = state.pending.remove(&job) else {
            return;
        };
        let ok = p
            .reports
            .iter()
            .all(|r| r.as_ref().is_some_and(|r| r.error.is_none()));
        if ok {
            state.completed += 1;
            state.tenant(&p.tenant).completed += 1;
        } else {
            state.failed += 1;
            state.tenant(&p.tenant).failed += 1;
        }
        let _ = p.tx.send(Ok(JobOutcome {
            job,
            wall_secs: p.t0.elapsed().as_secs_f64(),
            reports: p.reports,
        }));
    }
}

/// Serves the client protocol over `listener` until a client drains the
/// fleet: `Submit` → `Outcome` (or a typed `Reject`), `Stats` →
/// `StatsReply`, `DrainFleet` → `Drained` then a clean return — exit 0.
pub fn serve_sched(listener: TcpListener, sched: Arc<Scheduler>) -> Result<(), NetError> {
    let addr = listener.local_addr()?;
    println!("sage-sched listening on {addr}");
    std::io::stdout().flush()?;
    listener.set_nonblocking(true)?;
    // The client that drains the fleet writes one byte to `stop`; the
    // accept loop blocks in `poll(2)` on the listener and the other end.
    let (stop, stopped) = UnixStream::pair()?;
    let stop = Arc::new(stop);
    loop {
        let mut fds = [PollFd::readable(&listener), PollFd::readable(&stopped)];
        poll::wait(&mut fds, None)?;
        if fds[1].ready() {
            return Ok(());
        }
        match listener.accept() {
            Ok((conn, _)) => {
                let sched = sched.clone();
                let stop = stop.clone();
                // Detached on purpose: a client that connects and idles
                // must not block the drain-triggered shutdown.
                std::thread::spawn(move || handle_client(&conn, &sched, &stop));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(e.into()),
        }
    }
}

fn handle_client(conn: &TcpStream, sched: &Scheduler, mut stop: &UnixStream) {
    let _ = conn.set_nodelay(true);
    let _ = conn.set_nonblocking(false);
    loop {
        let msg = match read_fleet(&mut &*conn) {
            Ok(m) => m,
            Err(_) => return,
        };
        let sent = match msg {
            FleetMsg::Submit(spec) => match sched.submit(&spec) {
                Ok(out) => send_fleet(
                    &mut &*conn,
                    &FleetMsg::Outcome {
                        job: out.job,
                        wall_secs: out.wall_secs,
                        reports: out.reports,
                    },
                ),
                Err(NetError::VersionMismatch { ours, theirs }) => {
                    send_reject(&mut &*conn, RejectReason::VersionMismatch { ours, theirs })
                }
                Err(NetError::Rejected(reason)) => send_reject(&mut &*conn, reason),
                Err(e) => {
                    eprintln!("sage-sched: submit failed: {e}");
                    return;
                }
            },
            FleetMsg::Stats => send_fleet(&mut &*conn, &FleetMsg::StatsReply(sched.stats())),
            FleetMsg::DrainFleet => {
                let n = match sched.drain() {
                    Ok(n) => n,
                    Err(e) => {
                        eprintln!("sage-sched: drain failed: {e}");
                        0
                    }
                };
                let _ = send_fleet(&mut &*conn, &FleetMsg::Drained { jobs_completed: n });
                let _ = stop.write(&[1]);
                return;
            }
            other => {
                eprintln!("sage-sched: unexpected client message {other:?}");
                return;
            }
        };
        if sent.is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare_scheduler() -> Scheduler {
        Scheduler {
            workers: Vec::new(),
            state: Mutex::new(SchedState::new(0)),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            cfg: SchedConfig::default(),
            handles: Mutex::new(Vec::new()),
        }
    }

    #[test]
    fn admission_refusals_are_typed_and_counted() {
        let sched = bare_scheduler();

        let mut stale = SubmitSpec::new("(app demo)", 1, 1);
        stale.proto_version = 1;
        assert_eq!(
            sched.submit(&stale),
            Err(NetError::VersionMismatch {
                ours: PROTO_VERSION,
                theirs: 1
            })
        );

        assert_eq!(
            sched.submit(&SubmitSpec::new("(app demo)", 1, 1)),
            Err(NetError::Rejected(RejectReason::InsufficientWorkers {
                want: 1,
                have: 0
            }))
        );

        sched.lock().draining = true;
        assert_eq!(
            sched.submit(&SubmitSpec::new("(app demo)", 1, 1)),
            Err(NetError::Rejected(RejectReason::Draining))
        );

        let stats = sched.stats();
        assert_eq!(stats.rejected_version, 1);
        assert_eq!(stats.rejected_insufficient, 1);
        assert_eq!(stats.rejected_draining, 1);
        assert_eq!(stats.rejected_total(), 3);
        assert_eq!(stats.accepted, 0);
        assert_eq!(stats.tenants.len(), 1);
        assert_eq!(stats.tenants[0].rejected, 3);
    }

    #[test]
    fn config_defaults() {
        let cfg = SchedConfig::default();
        assert_eq!(cfg.queue_depth, 128);
        assert_eq!(cfg.slots_per_worker, 64);
        assert_eq!(cfg.heartbeat_ms, None);
    }
}
