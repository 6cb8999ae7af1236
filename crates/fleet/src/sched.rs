//! The job scheduler: admission control, a bounded queue, least-loaded
//! placement over the fleet, and per-job/per-tenant accounting.
//!
//! It is split the way the mesh endpoint is (`sage_net`'s `mesh` under
//! `transport`). [`SchedState`] is a sans-I/O core that makes every
//! decision: admission and its four typed refusals ([`RejectReason`]), the
//! bounded FIFO queue (its head waits until enough workers have a free job
//! slot, and nothing overtakes it), least-loaded placement with the worker
//! index as the tie-break, per-worker liveness and slot counts, filling in
//! rank reports, worker death, completion and every counter. Time is an
//! argument, never read; the core opens no socket and starts no thread, so
//! its rules are unit-tested with hand-made reports and instants.
//! [`Scheduler`] is the driver: it owns the control connections and the
//! threads, runs each event through the core under one lock, and ships the
//! `Job` frames the core returns once the lock is released. Each dispatched
//! job gets a fresh job id — the wire-header namespace that keeps its
//! traffic apart on the shared warm mesh — and a rank map.
//!
//! | event | entry point | effect |
//! |---|---|---|
//! | a client submits | `SchedState::submit` | typed refusal, or queued under a fresh job id; dispatch |
//! | a `JobResult` arrives | `SchedState::on_result` | rank filled, its slot freed, the job completes once every rank has resolved; dispatch. A late or duplicate report (rank already filled, rank on a dead worker, unknown job) changes nothing |
//! | a worker's control link ends | `SchedState::worker_down` | worker dead; its unreported ranks resolve as `None`; queued jobs wanting more ranks than survive fail with `InsufficientWorkers`; dispatch |
//! | a `DrainDone` arrives | `SchedState::drain_done` | the worker's lifetime job count recorded |
//!
//! Dispatch runs on exactly the three events that can change it, in the
//! thread that delivered the event — no dispatcher thread and no timed
//! poll. Threads: one reader per worker (collects `JobResult`s and
//! `DrainDone`, sees worker death as control-connection EOF), plus the
//! submitting callers. A reader may ship a `Job` to its own worker: the
//! daemon's control reader never waits on its job threads, so the write
//! drains. `drain` blocks on the condvar every event notifies.
//!
//! [`serve_sched`] wraps a [`Scheduler`] in the TCP service the
//! `sage submit` / `sage fleet drain` / `sage fleet stats` clients speak.

use crate::metrics::{FleetStats, TenantStats};
use crate::proto::{is_eof, read_fleet, send_fleet, send_reject, FleetJob, FleetMsg, SubmitSpec};
use sage_net::poll::{self, PollFd};
use sage_net::{NetError, RejectReason, PROTO_VERSION};
use sage_runtime::RankReport;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Scheduler tuning knobs.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Bound on the admission queue; submissions beyond it are refused
    /// with [`RejectReason::QueueFull`].
    pub queue_depth: usize,
    /// Concurrent job ranks one worker will host before dispatch holds
    /// further jobs in the queue.
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

/// Where a submitter waits for its job's outcome.
pub type Reply = mpsc::Sender<Result<JobOutcome, NetError>>;

/// `Job` frames a dispatch decided on, each with the worker to ship it to.
pub type Frames = Vec<(usize, FleetJob)>;

struct QueuedJob {
    job: u32,
    spec: SubmitSpec,
    reply: Reply,
}

struct PendingJob {
    tenant: String,
    /// Logical rank -> the worker still owing its report; `None` once the
    /// report arrived or the worker died.
    waiting: Vec<Option<usize>>,
    reports: Vec<Option<RankReport>>,
    reply: Reply,
    dispatched: Instant,
}

/// The sans-I/O scheduler core (see the module docs): every decision, with
/// the time an argument. [`Scheduler`] drives it over sockets; a simulated
/// fleet drives it on a virtual clock.
#[derive(Default)]
pub struct SchedState {
    cfg: SchedConfig,
    /// Per worker: its control link is up.
    alive: Vec<bool>,
    /// Per worker: job ranks dispatched to it and not yet reported.
    active: Vec<usize>,
    queue: VecDeque<QueuedJob>,
    /// Dispatched jobs by id; ordered, so a death resolves them in id order.
    pending: BTreeMap<u32, PendingJob>,
    next_job: u32,
    draining: bool,
    /// The running counters; [`SchedState::stats`] fills in the rest.
    counts: FleetStats,
    tenants: BTreeMap<String, TenantStats>,
    /// Per worker: the job count its `DrainDone` reported.
    acked: Vec<Option<u64>>,
}

impl SchedState {
    /// A core for `workers` live workers, nothing queued.
    pub fn new(workers: usize, cfg: SchedConfig) -> SchedState {
        SchedState {
            cfg,
            alive: vec![true; workers],
            active: vec![0; workers],
            // Job id 0 is `TcpTransport`'s private-mesh namespace; fleet
            // jobs start above it.
            next_job: 1,
            acked: vec![None; workers],
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

    fn live(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Admits `spec` (its outcome goes to `reply`) or refuses it, typed.
    pub fn submit(
        &mut self,
        spec: &SubmitSpec,
        reply: Reply,
        now: Instant,
    ) -> Result<Frames, NetError> {
        let live = self.live();
        let c = &mut self.counts;
        let refusal = if spec.proto_version != PROTO_VERSION {
            c.rejected_version += 1;
            NetError::VersionMismatch {
                ours: PROTO_VERSION,
                theirs: spec.proto_version,
            }
        } else if self.draining {
            c.rejected_draining += 1;
            NetError::Rejected(RejectReason::Draining)
        } else if spec.ranks == 0 || spec.ranks as usize > live {
            c.rejected_insufficient += 1;
            NetError::Rejected(RejectReason::InsufficientWorkers {
                want: spec.ranks,
                have: live as u32,
            })
        } else if self.queue.len() >= self.cfg.queue_depth {
            c.rejected_queue_full += 1;
            NetError::Rejected(RejectReason::QueueFull {
                depth: self.cfg.queue_depth as u32,
            })
        } else {
            let job = self.next_job;
            self.next_job += 1;
            self.queue.push_back(QueuedJob {
                job,
                spec: spec.clone(),
                reply,
            });
            c.accepted += 1;
            c.queue_high_water = c.queue_high_water.max(self.queue.len() as u32);
            self.tenant(&spec.tenant).accepted += 1;
            return Ok(self.dispatch(now));
        };
        self.tenant(&spec.tenant).rejected += 1;
        Err(refusal)
    }

    /// Files one rank's report.
    pub fn on_result(&mut self, job: u32, report: RankReport, now: Instant) -> Frames {
        let Some(p) = self.pending.get_mut(&job) else {
            return Frames::new();
        };
        let rank = report.rank as usize;
        let Some(w) = p.waiting.get_mut(rank).and_then(Option::take) else {
            return Frames::new();
        };
        self.active[w] -= 1;
        p.reports[rank] = Some(report);
        if p.waiting.iter().all(Option::is_none) {
            self.complete(job, now);
        }
        self.dispatch(now)
    }

    /// Marks worker `w` dead. The peers of its in-flight ranks see the death
    /// on the mesh and report typed failures of their own, so every rank
    /// still resolves.
    pub fn worker_down(&mut self, w: usize, now: Instant) -> Frames {
        if !std::mem::replace(&mut self.alive[w], false) {
            return Frames::new();
        }
        let mut resolved = Vec::new();
        for (&job, p) in &mut self.pending {
            for slot in p.waiting.iter_mut().filter(|slot| **slot == Some(w)) {
                *slot = None;
            }
            if p.waiting.iter().all(Option::is_none) {
                resolved.push(job);
            }
        }
        for job in resolved {
            self.complete(job, now);
        }
        // Admitted when the fleet was big enough, but stranded now: failed
        // jobs, whose submitters get the typed refusal.
        let live = self.live();
        let (stranded, queue): (VecDeque<_>, _) = std::mem::take(&mut self.queue)
            .into_iter()
            .partition(|q| q.spec.ranks as usize > live);
        self.queue = queue;
        for q in stranded {
            self.counts.failed += 1;
            self.tenant(&q.spec.tenant).failed += 1;
            let _ = q
                .reply
                .send(Err(NetError::Rejected(RejectReason::InsufficientWorkers {
                    want: q.spec.ranks,
                    have: live as u32,
                })));
        }
        self.dispatch(now)
    }

    fn drain_done(&mut self, w: usize, jobs_completed: u64) {
        self.acked[w] = Some(jobs_completed);
    }

    fn idle(&self) -> bool {
        self.queue.is_empty() && self.pending.is_empty()
    }

    /// The jobs the fleet completed over its lifetime, once every worker
    /// has acked the drain or died.
    fn drained(&self) -> Option<u64> {
        let all = (self.acked.iter().zip(&self.alive)).all(|(ack, &alive)| ack.is_some() || !alive);
        all.then(|| self.acked.iter().flatten().sum())
    }

    /// Dispatches queue heads while enough live workers have a free slot,
    /// least-loaded first.
    fn dispatch(&mut self, now: Instant) -> Frames {
        let mut frames = Frames::new();
        while let Some(q) = self.queue.pop_front() {
            let ranks = q.spec.ranks as usize;
            let mut free: Vec<usize> = (0..self.alive.len())
                .filter(|&w| self.alive[w] && self.active[w] < self.cfg.slots_per_worker)
                .collect();
            if free.len() < ranks {
                self.queue.push_front(q);
                break;
            }
            free.sort_by_key(|&w| (self.active[w], w));
            free.truncate(ranks);
            let rank_map: Vec<u32> = free.iter().map(|&w| w as u32).collect();
            for (rank, &w) in free.iter().enumerate() {
                self.active[w] += 1;
                let job = FleetJob {
                    job: q.job,
                    rank: rank as u32,
                    rank_map: rank_map.clone(),
                    params: q.spec.params.clone(),
                };
                frames.push((w, job));
            }
            let pending = PendingJob {
                tenant: q.spec.tenant,
                waiting: free.into_iter().map(Some).collect(),
                reports: vec![None; ranks],
                reply: q.reply,
                dispatched: now,
            };
            self.pending.insert(q.job, pending);
        }
        frames
    }

    fn complete(&mut self, job: u32, now: Instant) {
        let Some(p) = self.pending.remove(&job) else {
            return;
        };
        let ok = (p.reports.iter()).all(|r| r.as_ref().is_some_and(|r| r.error.is_none()));
        if ok {
            self.counts.completed += 1;
            self.tenant(&p.tenant).completed += 1;
        } else {
            self.counts.failed += 1;
            self.tenant(&p.tenant).failed += 1;
        }
        let _ = p.reply.send(Ok(JobOutcome {
            job,
            wall_secs: now.saturating_duration_since(p.dispatched).as_secs_f64(),
            reports: p.reports,
        }));
    }

    /// A metrics snapshot.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            workers: self.alive.len() as u32,
            workers_live: self.live() as u32,
            queue_depth: self.queue.len() as u32,
            active: self.pending.len() as u32,
            tenants: self.tenants.values().cloned().collect(),
            ..self.counts.clone()
        }
    }
}

/// The fleet scheduler: the driver around [`SchedState`]. See the module
/// docs for the thread layout.
pub struct Scheduler {
    writers: Vec<Mutex<TcpStream>>,
    state: Mutex<SchedState>,
    cv: Condvar,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Connects to every fleet worker, exchanges versions, wires the mesh
    /// (each worker learns every other worker's data-plane address), and
    /// starts one reader thread per worker.
    // One reader thread per worker link: a blocking read is the event
    // that a result, a death or a drain reply arrived.
    #[allow(clippy::disallowed_methods)]
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
        let sched = Arc::new(Scheduler {
            writers: streams.into_iter().map(Mutex::new).collect(),
            state: Mutex::new(SchedState::new(addrs.len(), cfg)),
            cv: Condvar::new(),
            readers: Mutex::new(Vec::new()),
        });
        let handles = (readers.into_iter().enumerate())
            .map(|(i, stream)| {
                let sd = sched.clone();
                std::thread::spawn(move || sd.reader_loop(i, &stream))
            })
            .collect();
        *sched.readers.lock().unwrap_or_else(|e| e.into_inner()) = handles;
        Ok(sched)
    }

    /// Submits one job and blocks until its outcome. Run failures travel
    /// inside the `Ok` outcome's reports; an `Err` is an admission refusal
    /// (typed) or a scheduler shutdown.
    pub fn submit(&self, spec: &SubmitSpec) -> Result<JobOutcome, NetError> {
        let (tx, rx) = mpsc::channel();
        let frames = self.lock().submit(spec, tx, Instant::now())?;
        self.ship(frames);
        rx.recv()
            .map_err(|_| NetError::Protocol("scheduler shut down before job completed".into()))?
    }

    /// Stops admitting, lets the queue and in-flight jobs finish, tells
    /// every worker to drain (they ack and exit 0), and returns the total
    /// jobs the fleet completed over its lifetime.
    pub fn drain(&self) -> Result<u64, NetError> {
        let mut state = self.lock();
        state.draining = true;
        let live = (self.cv.wait_while(state, |s| !s.idle()))
            .unwrap_or_else(|e| e.into_inner())
            .alive
            .clone();
        for w in (0..live.len()).filter(|&w| live[w]) {
            let _ = send_fleet(&mut *self.writer(w), &FleetMsg::Drain);
        }
        let total = (self.cv.wait_while(self.lock(), |s| s.drained().is_none()))
            .unwrap_or_else(|e| e.into_inner())
            .drained()
            .unwrap_or_default();
        let readers = std::mem::take(&mut *self.readers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in readers {
            let _ = h.join();
        }
        Ok(total)
    }

    /// A metrics snapshot.
    pub fn stats(&self) -> FleetStats {
        self.lock().stats()
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn writer(&self, w: usize) -> MutexGuard<'_, TcpStream> {
        self.writers[w].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs one event through the core, wakes `drain`, and ships what it
    /// dispatched once the lock is released.
    fn event(&self, f: impl FnOnce(&mut SchedState, Instant) -> Frames) {
        let frames = f(&mut self.lock(), Instant::now());
        self.cv.notify_all();
        self.ship(frames);
    }

    fn ship(&self, frames: Frames) {
        for (w, job) in frames {
            let sent = send_fleet(&mut *self.writer(w), &FleetMsg::Job(job));
            if sent.is_err() {
                self.worker_down(w);
            }
        }
    }

    fn worker_down(&self, w: usize) {
        self.event(|s, now| s.worker_down(w, now));
    }

    fn reader_loop(&self, w: usize, stream: &TcpStream) {
        loop {
            match read_fleet(&mut &*stream) {
                Ok(FleetMsg::JobResult { job, report }) => {
                    self.event(|s, now| s.on_result(job, report, now));
                }
                Ok(FleetMsg::DrainDone { jobs_completed }) => self.event(|s, _| {
                    s.drain_done(w, jobs_completed);
                    Frames::new()
                }),
                Ok(other) => {
                    eprintln!("sage-sched: worker {w} spoke out of turn ({other:?})");
                    return self.worker_down(w);
                }
                Err(e) => {
                    if !is_eof(&e) {
                        eprintln!("sage-sched: worker {w} link error: {e}");
                    }
                    return self.worker_down(w);
                }
            }
        }
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
                #[allow(clippy::disallowed_methods)]
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
                Ok(out) => send_fleet(&mut &*conn, &FleetMsg::Outcome(out)),
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
    use sage_runtime::{RankOutcome, RuntimeError};
    use std::sync::mpsc::Receiver;

    type Outcome = Receiver<Result<JobOutcome, NetError>>;

    fn core(workers: usize, slots_per_worker: usize) -> SchedState {
        let cfg = SchedConfig {
            queue_depth: 8,
            slots_per_worker,
            heartbeat_ms: None,
        };
        SchedState::new(workers, cfg)
    }

    fn spec(tenant: &str, ranks: u32) -> SubmitSpec {
        SubmitSpec {
            tenant: tenant.into(),
            ..SubmitSpec::new("(app demo)", ranks, 1)
        }
    }

    /// Submits at `now`; the frames it dispatched and where its outcome lands.
    fn submit(
        s: &mut SchedState,
        spec: &SubmitSpec,
        now: Instant,
    ) -> Result<(Frames, Outcome), NetError> {
        let (tx, rx) = mpsc::channel();
        s.submit(spec, tx, now).map(|frames| (frames, rx))
    }

    fn ok(rank: u32) -> RankReport {
        RankReport::new(rank, Ok(RankOutcome::default()))
    }

    fn peer_failed(rank: u32) -> RankReport {
        RankReport::new(
            rank,
            Err(RuntimeError::PeerFailed {
                node: rank,
                peer: 0,
            }),
        )
    }

    /// Where each frame went: `(job, rank, worker)`.
    fn placed(frames: &Frames) -> Vec<(u32, u32, usize)> {
        frames.iter().map(|(w, f)| (f.job, f.rank, *w)).collect()
    }

    /// Every frame's rank reports success; so do the frames that frees up,
    /// until nothing more dispatches.
    fn run_to_idle(s: &mut SchedState, mut frames: Frames, now: Instant) {
        while let Some((_, f)) = frames.pop() {
            frames.extend(s.on_result(f.job, ok(f.rank), now));
        }
    }

    fn outcome(rx: &Outcome) -> Result<JobOutcome, NetError> {
        rx.try_recv().expect("resolved")
    }

    #[test]
    fn admission_refusals_are_typed_and_counted() {
        let mut s = SchedState::new(0, SchedConfig::default());
        let t0 = Instant::now();

        let mut stale = SubmitSpec::new("(app demo)", 1, 1);
        stale.proto_version = 1;
        assert_eq!(
            submit(&mut s, &stale, t0).unwrap_err(),
            NetError::VersionMismatch {
                ours: PROTO_VERSION,
                theirs: 1
            }
        );
        assert_eq!(
            submit(&mut s, &SubmitSpec::new("(app demo)", 1, 1), t0).unwrap_err(),
            NetError::Rejected(RejectReason::InsufficientWorkers { want: 1, have: 0 })
        );
        s.draining = true;
        assert_eq!(
            submit(&mut s, &SubmitSpec::new("(app demo)", 1, 1), t0).unwrap_err(),
            NetError::Rejected(RejectReason::Draining)
        );

        let stats = s.stats();
        assert_eq!(stats.rejected_version, 1);
        assert_eq!(stats.rejected_insufficient, 1);
        assert_eq!(stats.rejected_draining, 1);
        assert_eq!(stats.rejected_total(), 3);
        assert_eq!(stats.accepted, 0);
        assert_eq!(stats.tenants.len(), 1);
        assert_eq!(stats.tenants[0].rejected, 3);
    }

    /// `accepted`, `rejected_*`, `completed`, `failed` and the gauges add up
    /// after every kind of submission, fleet-wide and per tenant — including
    /// a queued job stranded by worker deaths, counted once, as failed.
    #[test]
    fn accounting_sums_hold_across_refusals_completions_and_strandings() {
        let mut s = core(3, 1);
        let t0 = Instant::now();
        let mut submissions = 0u64;
        let mut go = |s: &mut SchedState, spec: SubmitSpec| {
            submissions += 1;
            submit(s, &spec, t0)
        };

        let (first, _a) = go(&mut s, spec("alice", 2)).unwrap();
        run_to_idle(&mut s, first, t0); // job 1 completed
        let (held, failing) = go(&mut s, spec("bob", 2)).unwrap(); // 2 on workers 0, 1
        let (_, stranded) = go(&mut s, spec("alice", 3)).unwrap(); // 3 queued
        let (_, queued) = go(&mut s, spec("bob", 1)).unwrap(); // 4 queued
        assert!(go(&mut s, spec("carol", 4)).is_err()); // insufficient
        let stale = SubmitSpec {
            proto_version: 1,
            ..spec("carol", 1)
        };
        assert!(go(&mut s, stale).is_err()); // version
        for _ in 0..6 {
            go(&mut s, spec("dave", 1)).unwrap(); // 5..=10 fill the queue
        }
        assert!(go(&mut s, spec("dave", 1)).is_err()); // queue full

        assert!(s.worker_down(2, t0).is_empty());
        assert_eq!(
            outcome(&stranded).unwrap_err(),
            NetError::Rejected(RejectReason::InsufficientWorkers { want: 3, have: 2 })
        );
        let frames = s.on_result(held[0].1.job, peer_failed(0), t0);
        assert_eq!(placed(&frames), vec![(4, 0, 0)]);
        let frames = s.on_result(held[1].1.job, peer_failed(1), t0);
        assert_eq!(placed(&frames), vec![(5, 0, 1)]);
        assert!(outcome(&failing)
            .unwrap()
            .reports
            .iter()
            .all(Option::is_some));
        assert!(queued.try_recv().is_err(), "still in flight");
        s.draining = true;
        assert!(go(&mut s, spec("erin", 1)).is_err()); // draining

        let st = s.stats();
        assert_eq!(
            (st.completed, st.failed, st.active, st.queue_depth),
            (1, 2, 2, 5)
        );
        assert_eq!(
            st.rejected_insufficient, 1,
            "the stranded job is not a refusal"
        );
        assert_eq!(submissions, st.accepted + st.rejected_total());
        assert_eq!(
            st.accepted,
            st.completed + st.failed + u64::from(st.queue_depth + st.active)
        );
        let sum = |f: fn(&TenantStats) -> u64| st.tenants.iter().map(f).sum::<u64>();
        assert_eq!(st.accepted, sum(|t| t.accepted));
        assert_eq!(st.completed, sum(|t| t.completed));
        assert_eq!(st.failed, sum(|t| t.failed));
        assert_eq!(st.rejected_total(), sum(|t| t.rejected));
    }

    /// Socket-free twin of `tests/fleet.rs`'
    /// `killed_worker_fails_in_flight_job_and_survivors_drain_queue`.
    #[test]
    fn killed_worker_fails_in_flight_job_and_survivors_drain_queue() {
        let mut s = core(3, 1);
        let t0 = Instant::now();
        let (long, long_rx) = submit(&mut s, &spec("", 2), t0).unwrap();
        assert_eq!(placed(&long), vec![(1, 0, 0), (1, 1, 1)]);
        let short: Vec<Outcome> = (0..4)
            .map(|_| {
                let (frames, rx) = submit(&mut s, &spec("", 2), t0).unwrap();
                assert!(
                    frames.is_empty(),
                    "one slot per worker: the short jobs queue"
                );
                rx
            })
            .collect();
        assert_eq!(s.stats().queue_depth, 4);

        assert!(s.worker_down(0, t0).is_empty());
        // The survivor hosting rank 1 sees its peer die on the mesh.
        let frames = s.on_result(1, peer_failed(1), t0 + std::time::Duration::from_millis(5));
        let out = outcome(&long_rx).unwrap();
        assert_eq!(out.reports[0], None, "the dead rank never reported");
        assert!(out.reports[1].as_ref().is_some_and(|r| r.error.is_some()));
        assert_eq!(out.wall_secs, 0.005);
        assert_eq!(placed(&frames), vec![(2, 0, 1), (2, 1, 2)]);

        run_to_idle(&mut s, frames, t0);
        for rx in &short {
            assert!(outcome(rx).unwrap().reports.iter().all(Option::is_some));
        }
        let st = s.stats();
        assert_eq!((st.workers_live, st.failed, st.completed), (2, 1, 4));
        assert!(s.idle());
    }

    #[test]
    fn a_queued_job_stranded_by_a_death_gets_the_typed_refusal() {
        let mut s = core(2, 1);
        let t0 = Instant::now();
        let (held, held_rx) = submit(&mut s, &spec("", 2), t0).unwrap();
        let (_, stranded) = submit(&mut s, &spec("", 2), t0).unwrap();
        assert!(s.worker_down(1, t0).is_empty());
        assert_eq!(
            outcome(&stranded).unwrap_err(),
            NetError::Rejected(RejectReason::InsufficientWorkers { want: 2, have: 1 })
        );
        assert!(held_rx.try_recv().is_err(), "rank 0 has yet to report");
        assert!(s.on_result(held[0].1.job, peer_failed(0), t0).is_empty());
        assert_eq!(outcome(&held_rx).unwrap().reports[1], None);
        let st = s.stats();
        assert_eq!((st.failed, st.rejected_insufficient), (2, 0));
    }

    #[test]
    fn placement_is_least_loaded_then_lowest_index() {
        let mut s = core(3, 2);
        let t0 = Instant::now();
        let mut place = |ranks| placed(&submit(&mut s, &spec("", ranks), t0).unwrap().0);
        assert_eq!(place(1), vec![(1, 0, 0)]);
        // Workers 1 and 2 carry nothing, so they beat 0 despite its index.
        assert_eq!(place(2), vec![(2, 0, 1), (2, 1, 2)]);
        // All carry one: index order.
        assert_eq!(place(3), vec![(3, 0, 0), (3, 1, 1), (3, 2, 2)]);
        // Every slot is taken.
        assert_eq!(place(1), vec![]);
    }

    #[test]
    fn the_slot_cap_holds_the_queue_head_and_nothing_overtakes_it() {
        let mut s = core(3, 1);
        let t0 = Instant::now();
        let (first, _) = submit(&mut s, &spec("", 2), t0).unwrap();
        assert_eq!(placed(&first), vec![(1, 0, 0), (1, 1, 1)]);
        // Worker 2 is free, but the head wants two workers...
        assert!(submit(&mut s, &spec("", 2), t0).unwrap().0.is_empty());
        // ...and the one-rank job behind it waits its turn.
        assert!(submit(&mut s, &spec("", 1), t0).unwrap().0.is_empty());
        let freed = s.on_result(1, ok(1), t0);
        assert_eq!(placed(&freed), vec![(2, 0, 1), (2, 1, 2)]);
        let freed = s.on_result(1, ok(0), t0);
        assert_eq!(placed(&freed), vec![(3, 0, 0)]);
    }

    #[test]
    fn a_late_or_duplicate_result_changes_nothing() {
        let mut s = core(3, 1);
        let t0 = Instant::now();
        let (_, rx) = submit(&mut s, &spec("", 3), t0).unwrap();
        let (_, _queued) = submit(&mut s, &spec("", 2), t0).unwrap();
        assert!(s.on_result(1, ok(0), t0).is_empty());
        assert!(s.worker_down(2, t0).is_empty());

        let (stats, active) = (s.stats(), s.active.clone());
        let mut late = ok(0);
        late.wall_secs = 9.0;
        for (job, report) in [(1, late), (1, ok(2)), (1, ok(7)), (99, ok(0))] {
            assert!(s.on_result(job, report, t0).is_empty());
            assert_eq!((s.stats(), &s.active), (stats.clone(), &active));
        }
        assert!(rx.try_recv().is_err());

        let frames = s.on_result(1, ok(1), t0);
        let reports = outcome(&rx).unwrap().reports;
        assert_eq!(reports[0].as_ref().map(|r| r.wall_secs), Some(0.0));
        assert_eq!(reports[2], None);
        assert_eq!(placed(&frames), vec![(2, 0, 0), (2, 1, 1)]);
    }

    #[test]
    fn draining_refuses_submits_and_tallies_drain_done() {
        let mut s = core(3, 1);
        let t0 = Instant::now();
        let (frames, _) = submit(&mut s, &spec("", 1), t0).unwrap();
        s.draining = true;
        assert_eq!(
            submit(&mut s, &spec("", 1), t0).unwrap_err(),
            NetError::Rejected(RejectReason::Draining)
        );
        assert!(!s.idle());
        run_to_idle(&mut s, frames, t0);
        assert!(s.idle());

        s.drain_done(0, 3);
        assert_eq!(s.drained(), None);
        s.drain_done(1, 4);
        assert_eq!(s.drained(), None);
        assert!(s.worker_down(2, t0).is_empty());
        assert_eq!(s.drained(), Some(7));
        assert_eq!(s.stats().rejected_draining, 1);
    }

    #[test]
    fn config_defaults() {
        let cfg = SchedConfig::default();
        assert_eq!(cfg.queue_depth, 128);
        assert_eq!(cfg.slots_per_worker, 64);
        assert_eq!(cfg.heartbeat_ms, None);
    }
}
