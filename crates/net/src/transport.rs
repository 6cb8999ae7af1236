//! The TCP backend: one OS process per mesh endpoint, a full mesh of
//! framed connections, and a **single readiness-driven I/O thread** per
//! endpoint multiplexing every peer socket — so an endpoint scales to
//! hundreds of peers (and, through per-job rank namespaces, hundreds of
//! concurrent jobs) with O(1) threads instead of a reader thread per link.
//!
//! Everything an endpoint decides is the sans-I/O core in
//! [`mesh`](crate::mesh). This module holds the endpoint and its job views,
//! generic over the core's [`Driver`], and the driver the product runs on,
//! [`Sockets`], with its connect backoff, accept loop and I/O thread.
//!
//! Layering:
//!
//! * [`MeshCore`] — the warm mesh itself: connection establishment, the
//!   I/O pass feeding the `(job, src, tag)` mailbox, heartbeats, and job
//!   retirement. One core is shared (via `Arc`) by every job executing on
//!   the endpoint.
//! * [`JobTransport`] — a per-job [`Transport`] view over a shared core:
//!   logical ranks are mapped to mesh peer indices through a rank map, so
//!   many concurrent jobs — each with its own dense rank namespace — ride
//!   one set of sockets.
//! * [`TcpTransport`] — one job over a private socket mesh: a
//!   [`JobTransport`] in job namespace 0 with an identity rank map, whose
//!   `finish` also tears the mesh down.
//!
//! Semantics mirror the in-process cluster so the executor cannot tell the
//! backends apart: per-`(src, tag)` FIFO ordering (TCP ordering + one
//! reader per link), `PeerFailed` when a peer is gone and its queue is
//! drained, `RecvTimeout` when a receive outlives its deadline.

// The socket driver: its links are `TcpStream`s (`clippy.toml` keeps them
// out of the rest of the crate).
#![allow(clippy::disallowed_types)]

use crate::error::NetError;
use crate::mesh::{hello, Beats, Driver, IoPass, Mailbox, PeerInput, PeerLink};
use crate::poll::{self, PollFd};
use crate::wire::{Assembler, Frame, FrameKind, Header};
use sage_fabric::{FabricError, LinkMetrics, NodeMetrics, Payload, Transport};
use sage_visualizer::Probe;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Retries after the first mesh-establishment connect (worker processes
/// come up in arbitrary order); `CONNECT_RETRIES + 1` total attempts.
const CONNECT_RETRIES: u32 = 10;

/// Backoff before the first connect retry, seconds.
const CONNECT_BACKOFF_SECS: f64 = 0.025;

/// Multiplier applied to the connect backoff after each retry.
const CONNECT_BACKOFF_FACTOR: f64 = 1.5;

/// Deadline for the whole mesh establishment.
const MESH_TIMEOUT: Duration = Duration::from_secs(20);

/// The TCP backend's one knob, the heartbeat period; connect backoff,
/// staleness allowance and deadlines are constants.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Heartbeat transmission interval.
    pub heartbeat: Duration,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            heartbeat: Duration::from_millis(200),
        }
    }
}

impl NetConfig {
    /// Overrides the heartbeat period (the `--heartbeat-ms` knob). `None`
    /// keeps the default. The staleness window stays derived as
    /// `heartbeat * MISSED_BEATS`, so tuning the beat tunes the window
    /// proportionally.
    pub fn with_heartbeat_ms(mut self, ms: Option<u64>) -> NetConfig {
        if let Some(ms) = ms {
            self.heartbeat = Duration::from_millis(ms.max(1));
        }
        self
    }
}

/// The socket [`Driver`]: `Instant::now`, a condvar for parked receivers,
/// and nonblocking TCP streams that wait in `poll(2)`.
pub struct Sockets {
    parked: Condvar,
    /// One byte on `wake` (or `wake` closing) makes `woken` readable, which
    /// stops the I/O thread waiting on it.
    wake: UnixStream,
    woken: UnixStream,
    io: Mutex<Option<JoinHandle<()>>>,
}

impl Sockets {
    fn new() -> std::io::Result<Sockets> {
        let (wake, woken) = UnixStream::pair()?;
        Ok(Sockets {
            parked: Condvar::new(),
            wake,
            woken,
            io: Mutex::new(None),
        })
    }
}

// The socket driver: the clock, the timed park and the `poll(2)` waits the
// mesh core leaves to it, each method allowing only what it is for.
impl Driver for Sockets {
    type Link = TcpStream;

    #[allow(clippy::disallowed_methods)]
    fn now(&self) -> Instant {
        Instant::now()
    }

    #[allow(clippy::disallowed_methods)]
    fn park<'a, S>(
        &self,
        _: &'a Mutex<S>,
        held: MutexGuard<'a, S>,
        until: Instant,
    ) -> LockResult<MutexGuard<'a, S>> {
        let wait = until.saturating_duration_since(Instant::now());
        match self.parked.wait_timeout(held, wait) {
            Ok((guard, _)) => Ok(guard),
            Err(e) => Err(PoisonError::new(e.into_inner().0)),
        }
    }

    fn unpark(&self) {
        self.parked.notify_all();
    }

    #[allow(clippy::disallowed_methods)]
    fn wait_writable(&self, link: &TcpStream) -> std::io::Result<()> {
        poll::wait(&mut [PollFd::writable(link)], None).map(drop)
    }

    #[allow(clippy::disallowed_methods)]
    fn wait_readable(
        &self,
        links: &[&TcpStream],
        ready: &mut Vec<bool>,
        until: Instant,
    ) -> std::io::Result<bool> {
        let mut fds = Vec::with_capacity(links.len() + 1);
        fds.push(PollFd::readable(&self.woken));
        fds.extend(links.iter().map(|link| PollFd::readable(*link)));
        let timeout = until.saturating_duration_since(Instant::now());
        poll::wait(&mut fds, Some(timeout))?;
        ready.clear();
        ready.extend(fds[1..].iter().map(PollFd::ready));
        Ok(!fds[0].ready())
    }

    /// Wakes the I/O thread with the stop byte and joins it.
    fn stop(&self) {
        let handle = self.io.lock().map(|mut h| h.take()).unwrap_or(None);
        if let Some(h) = handle {
            // If the byte cannot be written the thread is already gone (its
            // end of the pair is closed), and the join returns at once.
            let _ = (&self.wake).write(&[1]);
            let _ = h.join();
        }
    }
}

/// One endpoint's warm mesh: its links, the job-namespaced mailbox, and the
/// driver both run under. Shared by every job executing on the endpoint.
pub struct MeshCore<D: Driver = Sockets> {
    rank: usize,
    links: Vec<Option<Arc<PeerLink<D>>>>,
    mailbox: Arc<Mailbox<D>>,
    /// The mesh epoch: every job transport's clock counts from here.
    start: Instant,
    config: NetConfig,
}

impl<D: Driver> MeshCore<D> {
    /// Establishes the full mesh for mesh index `rank` out of `size` over
    /// `driver`: dials every lower index (`dial(j)`: a new link's read and
    /// write halves) and greets it with a `Hello`, then binds each link
    /// `accept` (handed the deadline) yields by the `Hello` read off it.
    /// Returns the core and its I/O pass, for the driver to run.
    pub fn establish(
        rank: usize,
        size: usize,
        driver: D,
        config: NetConfig,
        mut dial: impl FnMut(usize) -> Result<(D::Link, D::Link), NetError>,
        mut accept: impl FnMut(Instant) -> Result<(D::Link, D::Link), NetError>,
    ) -> Result<(Arc<MeshCore<D>>, IoPass<D>), NetError> {
        if rank >= size {
            return Err(NetError::Protocol(format!(
                "rank {rank} out of range for {size} peers"
            )));
        }
        let start = driver.now();
        let mut links: Vec<Option<Arc<PeerLink<D>>>> = (0..size).map(|_| None).collect();
        let mut reads = Vec::new();
        // Dial downward: lower indices may still be binding.
        for (j, slot) in links.iter_mut().enumerate().take(rank) {
            let (read, write) = dial(j)?;
            let link = PeerLink::new(write);
            let greeting = Header::new(FrameKind::Hello, 0, rank as u32, j as u32);
            if !link.send(&driver, greeting, &[]) {
                return Err(NetError::Io(format!("greeting rank {j}: link broke")));
            }
            reads.push((read, PeerInput::new(j)));
            *slot = Some(Arc::new(link));
        }
        // Accept upward: higher indices dial us; `Hello` tells us who called.
        let deadline = start + MESH_TIMEOUT;
        for _ in rank + 1..size {
            let (mut read, write) = accept(deadline)?;
            let first = read_first(&driver, &mut read, deadline)?;
            let j = hello(&first, rank, size, |j| links[j].is_some())?;
            reads.push((read, PeerInput::new(j)));
            links[j] = Some(Arc::new(PeerLink::new(write)));
        }
        let now = driver.now();
        let mailbox = Arc::new(Mailbox::new(size, now, driver));
        let beaten = links.iter().enumerate();
        let io = IoPass {
            reads,
            links: beaten.filter_map(|(j, l)| Some((j, l.clone()?))).collect(),
            mailbox: mailbox.clone(),
            beats: Beats {
                interval: config.heartbeat,
                last: now,
            },
            rank: rank as u32,
        };
        let core = MeshCore {
            rank,
            links,
            mailbox,
            start,
            config,
        };
        Ok((Arc::new(core), io))
    }

    /// This endpoint's mesh index.
    pub fn mesh_rank(&self) -> usize {
        self.rank
    }

    /// How many endpoints the mesh has.
    pub fn mesh_size(&self) -> usize {
        self.links.len()
    }

    fn link(&self, mesh: usize) -> Option<&PeerLink<D>> {
        self.links.get(mesh).and_then(|l| l.as_deref())
    }

    /// Retires a finished job: drops its queues and done-markers and
    /// remembers the id so late frames are discarded instead of pooling.
    pub fn purge_job(&self, job: u32) {
        self.mailbox.lock().purge_job(job);
    }

    /// Tears the mesh down: tells every peer we are done (link-level
    /// `Goodbye`), then stops the I/O pass — promptly, whatever the peers
    /// are doing; already-written frames stay deliverable.
    pub fn shutdown(&self) {
        for (j, link) in self.links.iter().enumerate() {
            if let Some(link) = link {
                let goodbye = Header::new(FrameKind::Goodbye, 0, self.rank as u32, j as u32);
                link.send(&self.mailbox.driver, goodbye, &[]);
            }
        }
        self.mailbox.driver.stop();
    }
}

impl<D: Driver> Drop for MeshCore<D> {
    fn drop(&mut self) {
        // Error-path drop: stop the I/O pass without goodbyes (peers see
        // EOF and fail over). `shutdown` already stopped it on the clean path.
        self.mailbox.driver.stop();
    }
}

/// Reads the first frame off a freshly accepted link, waiting on the
/// driver until `deadline`.
fn read_first<D: Driver>(
    driver: &D,
    link: &mut D::Link,
    deadline: Instant,
) -> Result<Frame, NetError> {
    let (mut assembler, mut ready) = (Assembler::new(), Vec::new());
    while driver.now() < deadline {
        if let Some(frame) = assembler.pull(link, usize::MAX).map_err(NetError::Wire)? {
            return Ok(frame);
        }
        driver.wait_readable(&[&*link], &mut ready, deadline)?;
    }
    Err(NetError::Io(
        "mesh establishment timed out awaiting a hello".into(),
    ))
}

impl MeshCore {
    /// Establishes the full socket mesh for mesh index `rank` out of
    /// `peers` (one data-plane listen address per endpoint, indexed by mesh
    /// rank; see [`MeshCore::establish`]): connects downward with
    /// retry/backoff, accepts upward on `listener`, and starts the one I/O
    /// thread.
    // Starts the endpoint's one I/O thread.
    #[allow(clippy::disallowed_methods)]
    pub fn connect(
        rank: usize,
        peers: &[String],
        listener: &TcpListener,
        config: NetConfig,
    ) -> Result<Arc<MeshCore>, NetError> {
        let dial = |j: usize| {
            let addr = &peers[j];
            let stream = connect_with_retry(addr)
                .map_err(|e| NetError::Io(format!("connecting to rank {j} at {addr}: {e}")))?;
            halves(stream)
        };
        let (sockets, accept) = (Sockets::new()?, |deadline| accept(listener, deadline));
        listener.set_nonblocking(true)?;
        let established = MeshCore::establish(rank, peers.len(), sockets, config, dial, accept);
        listener.set_nonblocking(false)?;
        let (core, io) = established?;
        let thread = std::thread::spawn(move || io.run());
        if let Ok(mut slot) = core.mailbox.driver.io.lock() {
            *slot = Some(thread);
        }
        Ok(core)
    }
}

/// One accepted or dialed stream as the mesh uses it: no Nagle delay,
/// nonblocking (writers wait for `POLLOUT` on `WouldBlock`), and its read
/// half a clone of the same socket.
fn halves(stream: TcpStream) -> Result<(TcpStream, TcpStream), NetError> {
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok((stream.try_clone()?, stream))
}

/// Takes the next connection off the nonblocking `listener`, waiting in
/// `poll(2)` until `deadline`.
// Mesh establishment, before the core exists: the driver's own clock and
// readiness wait.
#[allow(clippy::disallowed_methods)]
fn accept(listener: &TcpListener, deadline: Instant) -> Result<(TcpStream, TcpStream), NetError> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => return halves(stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(NetError::Io(
                        "mesh establishment timed out with peer(s) missing".into(),
                    ));
                }
                poll::wait(&mut [PollFd::readable(listener)], Some(left))?;
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// A per-job [`Transport`] view over a shared [`MeshCore`]: logical rank
/// `r` of the job lives on mesh peer `rank_map[r]`. Many `JobTransport`s
/// — one per concurrent job on the endpoint — share one core.
pub struct JobTransport<D: Driver = Sockets> {
    core: Arc<MeshCore<D>>,
    job: u32,
    rank: usize,
    rank_map: Vec<usize>,
    /// What this rank received and its memory high-water mark; what it sent
    /// is in `links`, one per logical destination.
    metrics: NodeMetrics,
    links: Vec<LinkMetrics>,
    /// The core is this job's alone ([`TcpTransport`]): finishing the job
    /// tears the mesh down.
    owns_mesh: bool,
}

/// A one-job TCP [`Transport`] for one rank: a [`JobTransport`] over a
/// private [`MeshCore`], in job namespace 0 with an identity rank map.
pub type TcpTransport = JobTransport<Sockets>;

impl<D: Driver> JobTransport<D> {
    /// A transport for logical `rank` of `job`, whose logical ranks map to
    /// mesh indices through `rank_map` (so `rank_map[rank]` must be the
    /// core's own mesh index).
    pub fn new(
        core: Arc<MeshCore<D>>,
        job: u32,
        rank: usize,
        rank_map: Vec<usize>,
    ) -> JobTransport<D> {
        debug_assert_eq!(rank_map[rank], core.mesh_rank());
        let link = |dst| LinkMetrics {
            src: rank as u32,
            dst: dst as u32,
            ..LinkMetrics::default()
        };
        JobTransport {
            links: (0..rank_map.len()).map(link).collect(),
            core,
            job,
            rank,
            rank_map,
            metrics: NodeMetrics::default(),
            owns_mesh: false,
        }
    }

    /// Clean shutdown; returns this rank's per-job counters. A job on a
    /// shared mesh tells each participating peer this rank is done with it
    /// (`JobDone` — the links stay warm) and retires its mailbox state; a
    /// private mesh's one job ends with the mesh, by the link-level
    /// `Goodbye`.
    pub fn finish(mut self) -> (NodeMetrics, Vec<LinkMetrics>) {
        if self.owns_mesh {
            self.core.shutdown();
        } else {
            for (dst, &mesh) in self.rank_map.iter().enumerate() {
                let done = Header::new(FrameKind::JobDone, self.job, self.rank as u32, dst as u32);
                if dst != self.rank {
                    let _ = self
                        .core
                        .mailbox
                        .send(self.core.link(mesh), mesh, done, &[]);
                }
            }
            self.core.purge_job(self.job);
        }
        self.links.remove(self.rank);
        self.metrics.messages_sent = self.links.iter().map(|l| l.messages).sum();
        self.metrics.bytes_sent = self.links.iter().map(|l| l.bytes).sum();
        (self.metrics, self.links)
    }
}

impl JobTransport {
    /// Establishes the full socket mesh for `rank` out of `peers` (one
    /// data-plane listen address per rank, indexed by rank) and returns
    /// its one job. See [`MeshCore::connect`].
    // `_probe` is unused — the executor records a rank's events, the
    // transport none — but `benchmark/src/{cells,workloads}.rs` pass one
    // and `benchmark/` is frozen.
    pub fn connect(
        rank: usize,
        peers: &[String],
        listener: &TcpListener,
        config: NetConfig,
        _probe: Probe,
    ) -> Result<TcpTransport, NetError> {
        let core = MeshCore::connect(rank, peers, listener, config)?;
        let identity = (0..peers.len()).collect();
        Ok(JobTransport {
            owns_mesh: true,
            ..JobTransport::new(core, 0, rank, identity)
        })
    }
}

impl<D: Driver> Transport for JobTransport<D> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.rank_map.len()
    }

    fn try_send(&mut self, dst: usize, tag: u64, payload: &Payload) -> Result<(), FabricError> {
        let (job, src) = (self.job, self.rank as u32);
        if dst == self.rank {
            return self.core.mailbox.post(job, src, tag, payload.clone());
        }
        let mesh = self.rank_map[dst];
        let data = Header {
            tag,
            ..Header::new(FrameKind::Data, job, src, dst as u32)
        };
        self.core
            .mailbox
            .send(self.core.link(mesh), mesh, data, payload)?;
        self.links[dst].messages += 1;
        self.links[dst].bytes += payload.len() as u64;
        Ok(())
    }

    fn note_mem_use(&mut self, bytes: u64) {
        self.metrics.mem_high_water = self.metrics.mem_high_water.max(bytes);
    }

    fn try_recv(&mut self, src: usize, tag: u64) -> Result<Payload, FabricError> {
        let mesh = (src != self.rank).then(|| self.rank_map[src]);
        let key = (self.job, src as u32, tag);
        let heartbeat = self.core.config.heartbeat;
        let payload = (self.core.mailbox).recv(self.rank as u32, key, mesh, heartbeat)?;
        self.metrics.messages_received += 1;
        self.metrics.bytes_received += payload.len() as u64;
        Ok(payload)
    }

    fn try_recv_ready(&mut self, src: usize, tag: u64) -> bool {
        self.core.mailbox.lock().ready(self.job, src as u32, tag)
    }

    /// Seconds on the driver's clock since the mesh epoch.
    fn now(&self) -> f64 {
        let now = self.core.mailbox.driver.now();
        now.saturating_duration_since(self.core.start).as_secs_f64()
    }
}

/// Dials `addr`, retrying with exponential backoff while the peer process
/// comes up.
// One of the two timers in the mesh and the fleet: the backoff between dial
// attempts, before any socket exists to wait on.
#[allow(clippy::disallowed_methods)]
pub(crate) fn connect_with_retry(addr: &str) -> std::io::Result<TcpStream> {
    let mut backoff = CONNECT_BACKOFF_SECS;
    let mut last_err = None;
    for attempt in 0..=CONNECT_RETRIES {
        if attempt > 0 {
            std::thread::sleep(Duration::from_secs_f64(backoff));
            backoff *= CONNECT_BACKOFF_FACTOR;
        }
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last_err = Some(e),
        }
    }
    // The loop runs at least once (`0..=CONNECT_RETRIES`), so an error is
    // recorded; fall back to a typed refusal rather than panicking.
    Err(last_err.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "no connect attempts")
    }))
}

#[cfg(test)]
mod tests {
    // Socket tests drive real sockets, threads and clocks.
    #![allow(clippy::disallowed_methods, clippy::disallowed_types)]

    use super::*;
    use crate::mesh::Take;
    use std::io::Read;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The mesh's one knob is the beat: the connect backoff, the staleness
    /// allowance (`MISSED_BEATS`) and the receive deadline are constants. A
    /// new field fails to compile here until it has a second setting in use.
    #[test]
    fn the_beat_is_the_one_setting() {
        let NetConfig { heartbeat } = NetConfig::default().with_heartbeat_ms(Some(5));
        assert_eq!(heartbeat, Duration::from_millis(5));
        let NetConfig { heartbeat } = NetConfig::default().with_heartbeat_ms(None);
        assert_eq!(heartbeat, Duration::from_millis(200));
    }

    /// Builds an N-rank loopback mesh, one transport per thread.
    fn mesh(n: usize) -> Vec<TcpTransport> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let peers: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().expect("addr").to_string())
            .collect();
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let peers = peers.clone();
                std::thread::spawn(move || {
                    let config = NetConfig::default();
                    TcpTransport::connect(rank, &peers, &listener, config, Probe::disabled())
                        .expect("mesh")
                })
            })
            .collect();
        let mut out: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect();
        out.sort_by_key(|t| t.rank());
        out
    }

    /// Builds an N-endpoint core mesh for job-transport tests.
    fn core_mesh(n: usize) -> Vec<Arc<MeshCore>> {
        core_mesh_with(n, &NetConfig::default())
    }

    /// Sockets that count the I/O thread's returns from `poll(2)`: the
    /// proof that an idle mesh blocks.
    struct Counted(Sockets, AtomicU64);

    impl Driver for Counted {
        type Link = TcpStream;

        fn now(&self) -> Instant {
            self.0.now()
        }

        fn park<'a, S>(
            &self,
            lock: &'a Mutex<S>,
            held: MutexGuard<'a, S>,
            until: Instant,
        ) -> LockResult<MutexGuard<'a, S>> {
            self.0.park(lock, held, until)
        }

        fn unpark(&self) {
            self.0.unpark();
        }

        fn wait_writable(&self, link: &TcpStream) -> std::io::Result<()> {
            self.0.wait_writable(link)
        }

        fn wait_readable(
            &self,
            links: &[&TcpStream],
            ready: &mut Vec<bool>,
            until: Instant,
        ) -> std::io::Result<bool> {
            let woken = self.0.wait_readable(links, ready, until);
            self.1.fetch_add(1, Ordering::Relaxed);
            woken
        }

        fn stop(&self) {
            self.0.stop();
        }
    }

    /// [`MeshCore::connect`] over [`Counted`] sockets, for every rank of an
    /// N-endpoint loopback mesh.
    fn counted_mesh(n: usize, config: &NetConfig) -> Vec<Arc<MeshCore<Counted>>> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let peers: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().expect("addr").to_string())
            .collect();
        let handles: Vec<_> = (listeners.into_iter().enumerate())
            .map(|(rank, listener)| {
                let (peers, config) = (peers.clone(), config.clone());
                std::thread::spawn(move || {
                    let dial = |j: usize| halves(connect_with_retry(&peers[j])?);
                    let driver = Counted(Sockets::new().expect("driver"), AtomicU64::new(0));
                    listener.set_nonblocking(true).expect("nonblocking");
                    let accept = |deadline| accept(&listener, deadline);
                    let (core, io) =
                        MeshCore::establish(rank, n, driver, config, dial, accept).expect("mesh");
                    let thread = std::thread::spawn(move || io.run());
                    *core.mailbox.driver.0.io.lock().expect("lock") = Some(thread);
                    core
                })
            })
            .collect();
        let mut out: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect();
        out.sort_by_key(|c| c.mesh_rank());
        out
    }

    fn core_mesh_with(n: usize, config: &NetConfig) -> Vec<Arc<MeshCore>> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let peers: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().expect("addr").to_string())
            .collect();
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let (peers, config) = (peers.clone(), config.clone());
                std::thread::spawn(move || {
                    MeshCore::connect(rank, &peers, &listener, config).expect("mesh")
                })
            })
            .collect();
        let mut out: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect();
        out.sort_by_key(|c| c.mesh_rank());
        out
    }

    #[test]
    fn two_rank_ping_pong_over_loopback() {
        let mut ts = mesh(2);
        let mut t1 = ts.pop().expect("rank 1");
        let mut t0 = ts.pop().expect("rank 0");
        let h = std::thread::spawn(move || {
            let m = t1.try_recv(0, 7).expect("recv ping");
            t1.try_send(0, 8, &m).expect("send pong");
            t1.finish()
        });
        let sent_at = t0.now();
        t0.try_send(1, 7, &Payload::from(b"ping"))
            .expect("send ping");
        assert_eq!(t0.try_recv(1, 8).expect("recv pong"), b"ping");
        // The clock probes stamp with: wall time since the mesh epoch.
        assert!(sent_at > 0.0 && t0.now() > sent_at);
        let (m0, l0) = t0.finish();
        let (m1, _) = h.join().expect("join");
        assert_eq!(m0.messages_sent, 1);
        assert_eq!(m0.bytes_sent, 4);
        assert_eq!(m1.messages_received, 1);
        assert_eq!(
            l0,
            vec![LinkMetrics {
                src: 0,
                dst: 1,
                messages: 1,
                bytes: 4,
            }]
        );
    }

    #[test]
    fn four_rank_all_to_all_fifo() {
        let ts = mesh(4);
        let handles: Vec<_> = ts
            .into_iter()
            .map(|mut t| {
                std::thread::spawn(move || {
                    let me = t.rank();
                    for dst in 0..t.size() {
                        for k in 0..3u8 {
                            t.try_send(dst, 5, &Payload::from_vec(vec![me as u8, k]))
                                .expect("send");
                        }
                    }
                    for src in 0..t.size() {
                        for k in 0..3u8 {
                            let m = t.try_recv(src, 5).expect("recv");
                            assert_eq!(m, vec![src as u8, k], "fifo order per (src, tag)");
                        }
                    }
                    t.finish();
                })
            })
            .collect();
        for h in handles {
            h.join().expect("join");
        }
    }

    #[test]
    fn dead_peer_surfaces_peer_failed_not_hang() {
        let mut ts = mesh(2);
        let t1 = ts.pop().expect("rank 1");
        let mut t0 = ts.pop().expect("rank 0");
        drop(t1); // rank 1 "crashes": connections drop without goodbye
        let err = t0.try_recv(1, 3).expect_err("peer is gone");
        assert_eq!(err, FabricError::PeerFailed { node: 0, peer: 1 });
    }

    #[test]
    fn finished_peer_with_drained_queue_is_peer_failed() {
        let mut ts = mesh(2);
        let mut t1 = ts.pop().expect("rank 1");
        let mut t0 = ts.pop().expect("rank 0");
        t1.try_send(0, 9, &Payload::from(b"last")).expect("send");
        t1.finish();
        // The queued message is still deliverable after the goodbye...
        assert_eq!(t0.try_recv(1, 9).expect("queued"), b"last");
        // ...but the next receive can never complete.
        let err = t0.try_recv(1, 9).expect_err("peer done");
        assert_eq!(err, FabricError::PeerFailed { node: 0, peer: 1 });
    }

    #[test]
    fn self_send_delivers_locally() {
        let mut ts = mesh(1);
        let mut t = ts.pop().expect("rank 0");
        t.try_send(0, 2, &Payload::from(b"loop")).expect("send");
        assert_eq!(t.try_recv(0, 2).expect("recv"), b"loop");
        let (m, links) = t.finish();
        assert_eq!(m.messages_sent, 0, "self-sends never hit the wire");
        assert!(links.is_empty());
    }

    #[test]
    fn concurrent_jobs_isolate_namespaces_over_one_mesh() {
        // Two endpoints, two concurrent jobs. Job 1 maps logical {0, 1} to
        // mesh {0, 1}; job 2 maps them *reversed*. Same tag, same logical
        // src — the job field is the only thing keeping them apart.
        let cores = core_mesh(2);
        let (c0, c1) = (cores[0].clone(), cores[1].clone());
        let j1_r0 = JobTransport::new(c0.clone(), 1, 0, vec![0, 1]);
        let j1_r1 = JobTransport::new(c1.clone(), 1, 1, vec![0, 1]);
        let j2_r1 = JobTransport::new(c0.clone(), 2, 1, vec![1, 0]);
        let j2_r0 = JobTransport::new(c1.clone(), 2, 0, vec![1, 0]);
        let a = std::thread::spawn(move || {
            let mut t = j1_r0;
            t.try_send(1, 5, &Payload::from(b"job1")).expect("send");
            let got = t.try_recv(1, 5).expect("recv");
            assert_eq!(got, b"1boj");
            t.finish()
        });
        let b = std::thread::spawn(move || {
            let mut t = j1_r1;
            assert_eq!(t.try_recv(0, 5).expect("recv"), b"job1");
            t.try_send(0, 5, &Payload::from(b"1boj")).expect("send");
            t.finish()
        });
        let c = std::thread::spawn(move || {
            let mut t = j2_r0;
            t.try_send(1, 5, &Payload::from(b"job2")).expect("send");
            assert_eq!(t.try_recv(1, 5).expect("recv"), b"2boj");
            t.finish()
        });
        let d = std::thread::spawn(move || {
            let mut t = j2_r1;
            assert_eq!(t.try_recv(0, 5).expect("recv"), b"job2");
            t.try_send(0, 5, &Payload::from(b"2boj")).expect("send");
            t.finish()
        });
        let (m_a, links_a) = a.join().expect("a");
        b.join().expect("b");
        c.join().expect("c");
        d.join().expect("d");
        assert_eq!(m_a.messages_sent, 1);
        assert_eq!(
            links_a,
            vec![LinkMetrics {
                src: 0,
                dst: 1,
                messages: 1,
                bytes: 4,
            }]
        );
        for c in cores {
            c.shutdown();
        }
    }

    #[test]
    fn job_done_fails_same_job_recv_but_leaves_link_warm() {
        let cores = core_mesh(2);
        let (c0, c1) = (cores[0].clone(), cores[1].clone());
        // Job 7's rank on endpoint 1 finishes immediately.
        JobTransport::new(c1.clone(), 7, 1, vec![0, 1]).finish();
        let mut waiter = JobTransport::new(c0.clone(), 7, 0, vec![0, 1]);
        // A recv from the finished rank fails typed, promptly.
        let err = waiter.try_recv(1, 3).expect_err("job peer done");
        assert_eq!(err, FabricError::PeerFailed { node: 0, peer: 1 });
        // The *link* is still alive: a fresh job runs over the same mesh.
        let mut j8_r0 = JobTransport::new(c0.clone(), 8, 0, vec![0, 1]);
        let mut j8_r1 = JobTransport::new(c1.clone(), 8, 1, vec![0, 1]);
        let h = std::thread::spawn(move || {
            let got = j8_r1.try_recv(0, 1).expect("warm link");
            assert_eq!(got, b"warm");
            j8_r1.finish();
        });
        j8_r0
            .try_send(1, 1, &Payload::from(b"warm"))
            .expect("send over warm link");
        h.join().expect("join");
        j8_r0.finish();
        for c in cores {
            c.shutdown();
        }
    }

    /// A raw connected TCP pair for link-level tests.
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn beat_skips_saturated_socket_instead_of_killing_peer() {
        let (w, _r) = tcp_pair();
        w.set_nonblocking(true).expect("nonblocking");
        // Saturate the kernel send buffer: nobody reads `_r`, so writes
        // eventually refuse. Top off with single bytes so not even a
        // partial header fits.
        {
            let mut w = &w;
            let chunk = [0u8; 64 * 1024];
            loop {
                match std::io::Write::write(&mut w, &chunk) {
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => panic!("unexpected write error: {e}"),
                }
            }
            loop {
                match std::io::Write::write(&mut w, &[0u8]) {
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => panic!("unexpected write error: {e}"),
                }
            }
        }
        let (link, driver) = (PeerLink::new(w), Sockets::new().expect("driver"));
        let started = Instant::now();
        assert!(
            link.try_beat(&driver, 0, 1),
            "a full send buffer means data is queued, not that the peer died"
        );
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "beat must not sleep-retry against a saturated socket"
        );
    }

    /// A mesh whose I/O threads have no beat to wake for: any pass they
    /// make is caused by a byte.
    fn beatless() -> NetConfig {
        NetConfig {
            heartbeat: Duration::from_secs(3600),
        }
    }

    #[test]
    fn io_thread_blocks_while_idle_and_wakes_once_per_message() {
        let cores = counted_mesh(2, &beatless());
        let passes = |c: &MeshCore<Counted>| c.mailbox.driver.1.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(200));
        for c in &cores {
            assert!(
                passes(c) <= 2,
                "an idle I/O thread made {} passes in 200 ms: it is polling",
                passes(c)
            );
        }
        const PINGS: u64 = 200;
        let mut t0 = JobTransport::new(cores[0].clone(), 1, 0, vec![0, 1]);
        let mut t1 = JobTransport::new(cores[1].clone(), 1, 1, vec![0, 1]);
        let echo = std::thread::spawn(move || {
            for _ in 0..PINGS {
                let m = t1.try_recv(0, 7).expect("recv ping");
                t1.try_send(0, 8, &m).expect("send pong");
            }
            t1.finish();
        });
        for _ in 0..PINGS {
            t0.try_send(1, 7, &Payload::from(b"ping")).expect("send");
            assert_eq!(t0.try_recv(1, 8).expect("recv pong"), b"ping");
        }
        echo.join().expect("join");
        t0.finish();
        for c in &cores {
            let n = passes(c);
            assert!(
                (PINGS..=2 * PINGS + 16).contains(&n),
                "{PINGS} round trips took {n} passes"
            );
        }
        for c in cores {
            c.shutdown();
        }
    }

    #[test]
    fn shutdown_and_drop_wake_an_idle_io_thread() {
        let (tx, rx) = std::sync::mpsc::channel();
        let cores = core_mesh_with(2, &beatless());
        std::thread::spawn(move || {
            let [c0, c1] = <[Arc<MeshCore>; 2]>::try_from(cores).ok().expect("two");
            let started = Instant::now();
            c0.shutdown();
            tx.send(started.elapsed()).expect("send");
            let started = Instant::now();
            drop(Arc::into_inner(c1).expect("sole owner"));
            tx.send(started.elapsed()).expect("send");
        });
        for what in ["shutdown", "drop"] {
            // An hour's `poll` timeout stands behind a broken wake fd;
            // fail long before that.
            let took = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{what} never woke the I/O thread"));
            assert!(took < Duration::from_millis(100), "{what} took {took:?}");
        }
    }

    #[test]
    fn large_send_into_a_slow_reader_waits_for_writability_and_stays_alive() {
        let (w, mut r) = tcp_pair();
        w.set_nonblocking(true).expect("nonblocking");
        let link = PeerLink::<Sockets>::new(w);
        let payload: Vec<u8> = (0..4usize << 20).map(|i| (i % 251) as u8).collect();
        let expected = payload.clone();
        // Far more than the socket buffers hold, so the send spends most
        // of its time refused — in `poll(2)`, not in a sleep loop.
        let sender = std::thread::spawn(move || {
            let data = Header {
                tag: 9,
                ..Header::new(FrameKind::Data, 0, 1, 0)
            };
            link.send(&Sockets::new().expect("driver"), data, &payload)
        });
        // The receiving endpoint, driven by hand: 64 KiB a millisecond, so
        // the one frame takes several staleness windows to arrive.
        let beat = Duration::from_micros(1700);
        let stale_after = beat * crate::mesh::MISSED_BEATS;
        let started = Instant::now();
        let mailbox = Mailbox::new(2, started, Sockets::new().expect("driver"));
        let mut input = PeerInput::new(1);
        let mut chunk = vec![0u8; 64 * 1024];
        loop {
            match mailbox
                .lock()
                .take((0, 1, 9), Some(1), started, Instant::now(), beat)
            {
                Take::Ready(got) => {
                    assert!(got[..] == expected[..], "payload damaged in transit");
                    break;
                }
                Take::Pending(_) => {}
                _ => panic!("a sender mid-frame was declared stale"),
            }
            let n = r.read(&mut chunk).expect("read");
            assert!(n > 0, "sender hung up mid-frame");
            input.on_bytes(&chunk[..n], Instant::now(), &mailbox);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(started.elapsed() > 2 * stale_after);
        assert!(sender.join().expect("join"), "send must complete");
    }
}
