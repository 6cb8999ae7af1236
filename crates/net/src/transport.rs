//! The TCP backend: one OS process per mesh endpoint, a full mesh of
//! framed connections, and a **single readiness-driven I/O thread** per
//! endpoint multiplexing every peer socket — so an endpoint scales to
//! hundreds of peers (and, through per-job rank namespaces, hundreds of
//! concurrent jobs) with O(1) threads instead of a reader thread per link.
//!
//! This module is the *driver*: it owns the sockets, the clock and the one
//! thread, and decides nothing. What a byte, an EOF or a silence *means*
//! is the sans-I/O state machine in [`mesh`](crate::mesh); the driver
//! blocks in `poll(2)` until a peer socket is readable, a beat is due or
//! it is told to stop, and hands what it read to that machine together
//! with the time. Nothing on the data path sleeps.
//!
//! Layering:
//!
//! * [`MeshCore`] — the warm mesh itself: connection establishment with
//!   retry/backoff, the I/O thread feeding the `(job, src, tag)` mailbox,
//!   heartbeats, and job retirement. One core is shared (via `Arc`) by
//!   every job executing on the endpoint.
//! * [`JobTransport`] — a per-job [`Transport`] view over a shared core:
//!   logical ranks are mapped to mesh peer indices through a rank map, so
//!   many concurrent jobs — each with its own dense rank namespace — ride
//!   one set of sockets.
//! * [`TcpTransport`] — one job over a private core: a [`JobTransport`] in
//!   job namespace 0 with an identity rank map, whose `finish` also tears
//!   the mesh down.
//!
//! Semantics mirror the in-process cluster so the executor cannot tell the
//! backends apart: per-`(src, tag)` FIFO ordering (TCP ordering + one
//! reader per link), `PeerFailed` when a peer is gone and its queue is
//! drained, `RecvTimeout` when a receive outlives its deadline.

use crate::error::NetError;
use crate::mesh::{Beats, Mailbox, PeerInput, Take};
use crate::poll::{self, PollFd};
use crate::wire::{try_write_control, write_parts, Frame, FrameKind, TryWrite};
use sage_fabric::{FabricError, LinkMetrics, NodeMetrics, Payload, Transport};
use sage_visualizer::Probe;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Retries after the first mesh-establishment connect (worker processes
/// come up in arbitrary order); `CONNECT_RETRIES + 1` total attempts.
const CONNECT_RETRIES: u32 = 10;

/// Backoff before the first connect retry, seconds.
const CONNECT_BACKOFF_SECS: f64 = 0.025;

/// Multiplier applied to the connect backoff after each retry.
const CONNECT_BACKOFF_FACTOR: f64 = 1.5;

/// Heartbeats a peer may miss before it is declared dead.
const MISSED_BEATS: u32 = 12;

/// Deadline for one blocking receive.
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// Deadline for the whole mesh establishment.
const MESH_TIMEOUT: Duration = Duration::from_secs(20);

/// The TCP backend's one knob, the heartbeat period; connect backoff,
/// staleness allowance and deadlines are the constants above.
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

    /// How long a peer may stay silent before it is declared dead.
    fn stale_after(&self) -> Duration {
        self.heartbeat * MISSED_BEATS
    }
}

/// The write half of one established link.
struct PeerLink {
    writer: Mutex<TcpStream>,
    seq: AtomicU64,
}

/// `Write` over a link's nonblocking socket (the fd is shared with the I/O
/// thread's read half) that answers `WouldBlock` by blocking in `poll(2)`
/// until the kernel send buffer drains — always when `patient`, otherwise
/// only once a first byte is out: a beat may be skipped whole, but no
/// frame is ever abandoned torn.
struct LinkWriter<'a> {
    stream: &'a TcpStream,
    patient: bool,
}

impl LinkWriter<'_> {
    fn drive(
        &mut self,
        mut op: impl FnMut(&mut &TcpStream) -> std::io::Result<usize>,
    ) -> std::io::Result<usize> {
        loop {
            match op(&mut self.stream) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && self.patient => {
                    poll::wait(&mut [PollFd::writable(self.stream)], None)?;
                }
                Ok(n) => {
                    self.patient = true;
                    return Ok(n);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Write for LinkWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.drive(|s| s.write(buf))
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        self.drive(|s| s.write_vectored(bufs))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl PeerLink {
    /// Frames and transmits straight from the caller's slice (vectored
    /// header+payload write, no per-frame assembly buffer or payload
    /// copy), blocking on socket writability while the peer drains a full
    /// send buffer; returns `false` if the stream is broken or its writer
    /// lock is poisoned — the caller marks the peer dead either way.
    ///
    /// `src`/`dst` are *logical* ranks within `job` (for job 0 they equal
    /// mesh indices). Concurrent jobs sharing the link serialize on the
    /// writer lock; sequence assignment happens under it, so frames hit
    /// the wire in seq order even when the heartbeater races a data send.
    fn send(
        &self,
        kind: FrameKind,
        src: u32,
        dst: u32,
        job: u32,
        tag: u64,
        payload: &[u8],
    ) -> bool {
        let Ok(w) = self.writer.lock() else {
            // A thread panicked mid-write: the stream may hold a torn
            // frame, so the link cannot be trusted.
            return false;
        };
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut w = LinkWriter {
            stream: &w,
            patient: true,
        };
        write_parts(&mut w, kind, tag, src, dst, job, seq, payload).is_ok()
    }

    /// Nonblocking heartbeat from the transport's single I/O thread.
    ///
    /// Data senders hold the writer lock across `write_parts`, which
    /// waits for writability while the kernel send buffer drains —
    /// potentially for a long time on a saturated link. Blocking here
    /// would freeze the whole I/O thread (reads *and* beats for every
    /// peer) behind that one link, which is exactly how healthy peers
    /// used to get declared stale under heavy data volume. Instead the
    /// beat is skipped when the writer is busy or the buffer is full: in
    /// both cases data frames are already in flight on this link, and any
    /// bytes arriving refresh the remote's `last_seen` just like a beat.
    /// Returns `false` only when the stream itself is broken.
    fn try_beat(&self, src: u32, dst: u32) -> bool {
        match self.writer.try_lock() {
            Ok(w) => {
                let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                let mut w = LinkWriter {
                    stream: &w,
                    patient: false,
                };
                !matches!(
                    try_write_control(&mut w, FrameKind::Heartbeat, src, dst, 0, seq),
                    TryWrite::Failed
                )
            }
            Err(std::sync::TryLockError::WouldBlock) => true,
            Err(std::sync::TryLockError::Poisoned(_)) => false,
        }
    }
}

/// Why a core-level send/recv could not complete. Wrappers map these onto
/// [`FabricError`] using their own *logical* rank numbering — the core
/// cannot name logical ranks, it only knows mesh indices.
enum CoreFail {
    /// The peer is dead, finished, or was never linked.
    PeerGone,
    /// The receive deadline passed with the peer still alive.
    Timeout,
    /// Local state is suspect (a thread panicked holding the mailbox).
    Poisoned,
}

/// One endpoint's warm mesh: sockets, the readiness-driven I/O thread, and
/// the job-namespaced mailbox. Shared by every job executing on the
/// endpoint.
pub struct MeshCore {
    rank: usize,
    links: Vec<Option<Arc<PeerLink>>>,
    mailbox: Arc<Mailbox>,
    /// The mesh epoch: every job transport's clock counts from here.
    start: Instant,
    config: NetConfig,
    /// The I/O thread blocks in `poll(2)` on the other end of this pair:
    /// one byte (or this end closing) stops it.
    wake: UnixStream,
    io: Mutex<Option<std::thread::JoinHandle<()>>>,
    #[cfg(test)]
    io_passes: Arc<AtomicU64>,
}

impl MeshCore {
    /// Establishes the full mesh for mesh index `rank` out of `peers` (one
    /// data-plane listen address per endpoint, indexed by mesh rank).
    ///
    /// Index `i` actively connects to every index below it (retrying with
    /// backoff while those processes come up) and accepts one connection
    /// from every index above it on `listener`; a `Hello` exchange binds
    /// each accepted socket to its index. All established sockets then go
    /// nonblocking and a single I/O thread multiplexes them.
    pub fn connect(
        rank: usize,
        peers: &[String],
        listener: &TcpListener,
        config: NetConfig,
    ) -> Result<Arc<MeshCore>, NetError> {
        let size = peers.len();
        if rank >= size {
            return Err(NetError::Protocol(format!(
                "rank {rank} out of range for {size} peers"
            )));
        }
        let start = Instant::now();
        let mailbox = Arc::new(Mailbox::new(size, start));

        let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
        // Connect downward, with backoff: lower indices may still be binding.
        for (j, addr) in peers.iter().enumerate().take(rank) {
            let stream = connect_with_retry(addr)
                .map_err(|e| NetError::Io(format!("connecting to rank {j} at {addr}: {e}")))?;
            stream.set_nodelay(true)?;
            Frame::control(FrameKind::Hello, rank as u32, j as u32, 0)
                .write_to(&mut &stream)
                .map_err(NetError::Wire)?;
            streams[j] = Some(stream);
        }
        // Accept upward: higher indices dial us; `Hello` tells us who called.
        let deadline = Instant::now() + MESH_TIMEOUT;
        listener.set_nonblocking(true)?;
        let mut pending = size - rank - 1;
        while pending > 0 {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
                    let hello = Frame::read_from(&mut &stream).map_err(NetError::Wire)?;
                    stream.set_read_timeout(None)?;
                    let j = hello.src as usize;
                    if hello.kind != FrameKind::Hello
                        || hello.dst as usize != rank
                        || j <= rank
                        || j >= size
                        || streams[j].is_some()
                    {
                        return Err(NetError::Protocol(format!(
                            "bad hello from rank {j} (kind {:?}, dst {})",
                            hello.kind, hello.dst
                        )));
                    }
                    streams[j] = Some(stream);
                    pending -= 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(NetError::Io(format!(
                            "mesh establishment timed out with {pending} peer(s) missing"
                        )));
                    }
                    poll::wait(&mut [PollFd::readable(listener)], Some(left))?;
                }
                Err(e) => return Err(e.into()),
            }
        }
        listener.set_nonblocking(false)?;

        // Go nonblocking (the fd is shared by the read clone and the write
        // half; writers wait for `POLLOUT` on `WouldBlock`, see
        // `LinkWriter`) and hand every socket to the one I/O thread.
        let mut links: Vec<Option<Arc<PeerLink>>> = (0..size).map(|_| None).collect();
        let mut reads = Vec::new();
        for (j, stream) in streams.into_iter().enumerate() {
            let Some(stream) = stream else { continue };
            stream.set_nonblocking(true)?;
            reads.push(PeerRead {
                stream: stream.try_clone()?,
                input: PeerInput::new(j),
            });
            links[j] = Some(Arc::new(PeerLink {
                writer: Mutex::new(stream),
                seq: AtomicU64::new(1),
            }));
        }
        let (wake, woken) = UnixStream::pair()?;
        let io = IoThread {
            reads,
            links: links
                .iter()
                .enumerate()
                .filter_map(|(j, l)| l.as_ref().map(|l| (j, l.clone())))
                .collect(),
            mailbox: mailbox.clone(),
            woken,
            beats: Beats::new(config.heartbeat, Instant::now()),
            rank: rank as u32,
            #[cfg(test)]
            passes: Arc::default(),
        };
        #[cfg(test)]
        let io_passes = io.passes.clone();
        Ok(Arc::new(MeshCore {
            rank,
            links,
            mailbox,
            start,
            config,
            wake,
            io: Mutex::new(Some(std::thread::spawn(move || io.run()))),
            #[cfg(test)]
            io_passes,
        }))
    }

    /// This endpoint's mesh index.
    pub fn mesh_rank(&self) -> usize {
        self.rank
    }

    /// Enqueues a payload locally (self-sends never hit the wire).
    fn local_enqueue(&self, job: u32, src: u32, tag: u64, payload: Payload) {
        self.mailbox.lock().enqueue(job, src, tag, payload);
        self.mailbox.cv.notify_all();
    }

    /// Sends one data frame to mesh peer `mesh_dst`, labeled with logical
    /// `src`/`dst` ranks in `job`'s namespace.
    fn send_data(
        &self,
        job: u32,
        src: u32,
        dst: u32,
        mesh_dst: usize,
        tag: u64,
        payload: &[u8],
    ) -> Result<(), CoreFail> {
        if self.mailbox.poisoned.load(Ordering::SeqCst) {
            return Err(CoreFail::Poisoned);
        }
        let Some(link) = self.links.get(mesh_dst).and_then(|l| l.as_ref()) else {
            // No link was ever established to this peer (mesh came up
            // without it): sending can never succeed, so surface the same
            // typed error a crashed peer would — callers already handle it.
            return Err(CoreFail::PeerGone);
        };
        if self.mailbox.lock().dead(mesh_dst) {
            return Err(CoreFail::PeerGone);
        }
        if !link.send(FrameKind::Data, src, dst, job, tag, payload) {
            self.mailbox.mark_dead(mesh_dst);
            return Err(CoreFail::PeerGone);
        }
        Ok(())
    }

    /// Blocking receive of `(job, src, tag)`. `mesh_src` names the mesh
    /// peer hosting logical `src` so liveness can be checked; `None` means
    /// a self-receive (local queue only, no liveness). Reads the clock and
    /// waits on the condvar; [`MeshState::take`](crate::mesh::MeshState::take)
    /// gives every verdict.
    fn recv(
        &self,
        job: u32,
        src: u32,
        mesh_src: Option<usize>,
        tag: u64,
    ) -> Result<Payload, CoreFail> {
        let deadline = Instant::now() + RECV_TIMEOUT;
        let stale_after = self.config.stale_after();
        if self.mailbox.poisoned.load(Ordering::SeqCst) {
            return Err(CoreFail::Poisoned);
        }
        let mut m = self.mailbox.lock();
        loop {
            let now = Instant::now();
            match m.take((job, src, tag), mesh_src, now, stale_after) {
                Take::Ready(payload) => return Ok(payload),
                Take::Gone | Take::Stale => return Err(CoreFail::PeerGone),
                Take::Pending => {}
            }
            if now >= deadline {
                return Err(CoreFail::Timeout);
            }
            // Deliveries notify the condvar; the timeout only re-checks
            // staleness, at least every heartbeat.
            let wait = (deadline - now).min(self.config.heartbeat);
            match self.mailbox.cv.wait_timeout(m, wait) {
                Ok((guard, _)) => m = guard,
                Err(_) => {
                    // A waiter or producer panicked with the lock held.
                    self.mailbox.poisoned.store(true, Ordering::SeqCst);
                    return Err(CoreFail::Poisoned);
                }
            }
        }
    }

    /// Nonblocking peek: whether a `(job, src, tag)` receive would
    /// complete immediately from the local mailbox. Advisory only — the
    /// streaming executor uses it to pick ready work, falling back to
    /// blocking receives for forward progress.
    fn ready(&self, job: u32, src: u32, tag: u64) -> bool {
        self.mailbox.lock().ready(job, src, tag)
    }

    /// Sends a job-scoped goodbye (`JobDone`) for `job` to mesh peer
    /// `mesh_dst`, labeled with our logical `src` rank in that namespace.
    fn send_job_done(&self, job: u32, src: u32, dst: u32, mesh_dst: usize) {
        if let Some(link) = self.links.get(mesh_dst).and_then(|l| l.as_ref()) {
            if !link.send(FrameKind::JobDone, src, dst, job, 0, &[]) {
                self.mailbox.mark_dead(mesh_dst);
            }
        }
    }

    /// Retires a finished job: drops its queues and done-markers and
    /// remembers the id so late frames are discarded instead of pooling.
    pub fn purge_job(&self, job: u32) {
        self.mailbox.lock().purge_job(job);
    }

    /// Tears the mesh down: tells every peer we are done (link-level
    /// `Goodbye`), then wakes the I/O thread out of `poll(2)` and joins
    /// it — prompt whatever the peers are doing; already-written frames
    /// stay deliverable through TCP buffering.
    pub fn shutdown(&self) {
        for (j, link) in self.links.iter().enumerate() {
            if let Some(link) = link {
                link.send(FrameKind::Goodbye, self.rank as u32, j as u32, 0, 0, &[]);
            }
        }
        self.stop_io();
    }

    /// Wakes the I/O thread with the stop byte and joins it. Idempotent.
    fn stop_io(&self) {
        let handle = self.io.lock().map(|mut h| h.take()).unwrap_or(None);
        if let Some(h) = handle {
            // If the byte cannot be written the thread is already gone
            // (its end of the pair is closed), and the join returns at once.
            let _ = (&self.wake).write(&[1]);
            let _ = h.join();
        }
    }
}

impl Drop for MeshCore {
    fn drop(&mut self) {
        // Error-path drop: stop the I/O thread without goodbyes (peers see
        // EOF and fail over). `shutdown` already joined on the clean path.
        self.stop_io();
    }
}

/// One peer's socket (read half) and the state machine half it feeds.
struct PeerRead {
    stream: TcpStream,
    input: PeerInput,
}

/// The one I/O thread: blocks until a peer socket is readable, a heartbeat
/// is due or the stop byte arrives; reads what is ready and hands it, with
/// the time, to the state machine.
struct IoThread {
    reads: Vec<PeerRead>,
    links: Vec<(usize, Arc<PeerLink>)>,
    mailbox: Arc<Mailbox>,
    /// Readable (a byte, or the core's end closed) means stop.
    woken: UnixStream,
    beats: Beats,
    rank: u32,
    /// Returns from `poll(2)`: the tests' proof that an idle mesh blocks.
    #[cfg(test)]
    passes: Arc<AtomicU64>,
}

impl IoThread {
    fn run(mut self) {
        let mut fds = Vec::with_capacity(self.reads.len() + 1);
        loop {
            fds.clear();
            fds.push(PollFd::readable(&self.woken));
            let open = self.reads.iter().filter(|pr| pr.input.is_open());
            fds.extend(open.map(|pr| PollFd::readable(&pr.stream)));
            let idle = self.beats.until_due(Instant::now());
            if poll::wait(&mut fds, Some(idle)).is_err() {
                // `poll` itself failed (out of memory, fd limit): nothing
                // can be read any more, so fail typed rather than spin.
                for pr in self.reads.iter_mut().filter(|pr| pr.input.is_open()) {
                    pr.input.on_closed(&self.mailbox);
                }
                return;
            }
            #[cfg(test)]
            self.passes.fetch_add(1, Ordering::Relaxed);
            if fds[0].ready() {
                return;
            }
            let open = self.reads.iter_mut().filter(|pr| pr.input.is_open());
            for (pr, _) in open.zip(&fds[1..]).filter(|(_, fd)| fd.ready()) {
                // Straight off the socket into each frame's own payload
                // allocation: nothing between the kernel and the mailbox.
                pr.input
                    .on_readable(&mut &pr.stream, Instant::now(), &self.mailbox);
            }
            if self.beats.due(Instant::now()) {
                for (j, link) in &self.links {
                    // Nonblocking: a saturated link skips its beat (its
                    // queued data frames carry the liveness signal)
                    // instead of stalling this thread — and with it reads
                    // and beats for every other peer — behind one slow
                    // consumer.
                    if !link.try_beat(self.rank, *j as u32) {
                        self.mailbox.mark_dead(*j);
                    }
                }
            }
        }
    }
}

/// Per-endpoint traffic counters for one job (or for the whole transport
/// in the one-job case).
struct Counters {
    /// Per logical destination: `(messages, bytes)` sent.
    sent: Vec<(u64, u64)>,
    recv_messages: u64,
    recv_bytes: u64,
    mem_high_water: u64,
}

impl Counters {
    fn new(ranks: usize) -> Counters {
        Counters {
            sent: vec![(0, 0); ranks],
            recv_messages: 0,
            recv_bytes: 0,
            mem_high_water: 0,
        }
    }

    fn finish(&self, rank: usize) -> (NodeMetrics, Vec<LinkMetrics>) {
        let links: Vec<LinkMetrics> = self
            .sent
            .iter()
            .enumerate()
            .filter(|&(dst, _)| dst != rank)
            .map(|(dst, &(messages, bytes))| LinkMetrics {
                src: rank as u32,
                dst: dst as u32,
                messages,
                bytes,
            })
            .collect();
        let metrics = NodeMetrics {
            messages_sent: links.iter().map(|l| l.messages).sum(),
            bytes_sent: links.iter().map(|l| l.bytes).sum(),
            messages_received: self.recv_messages,
            bytes_received: self.recv_bytes,
            mem_high_water: self.mem_high_water,
            ..NodeMetrics::default()
        };
        (metrics, links)
    }
}

/// A per-job [`Transport`] view over a shared [`MeshCore`]: logical rank
/// `r` of the job lives on mesh peer `rank_map[r]`. Many `JobTransport`s
/// — one per concurrent job on the endpoint — share one core.
pub struct JobTransport {
    core: Arc<MeshCore>,
    job: u32,
    rank: usize,
    rank_map: Vec<usize>,
    counters: Counters,
}

impl JobTransport {
    /// A transport for logical `rank` of `job`, whose logical ranks map to
    /// mesh indices through `rank_map` (so `rank_map[rank]` must be the
    /// core's own mesh index).
    pub fn new(core: Arc<MeshCore>, job: u32, rank: usize, rank_map: Vec<usize>) -> JobTransport {
        debug_assert_eq!(rank_map[rank], core.mesh_rank());
        let ranks = rank_map.len();
        JobTransport {
            core,
            job,
            rank,
            rank_map,
            counters: Counters::new(ranks),
        }
    }

    /// Job-scoped clean shutdown: tells each participating peer this rank
    /// is done with the job (`JobDone` — the links stay warm), retires the
    /// job's mailbox state, and returns this rank's per-job counters.
    pub fn finish(self) -> (NodeMetrics, Vec<LinkMetrics>) {
        for (dst, &mesh) in self.rank_map.iter().enumerate() {
            if dst != self.rank {
                self.core
                    .send_job_done(self.job, self.rank as u32, dst as u32, mesh);
            }
        }
        self.core.purge_job(self.job);
        self.counters.finish(self.rank)
    }

    fn peer_failed(&self, peer: usize) -> FabricError {
        FabricError::PeerFailed {
            node: self.rank as u32,
            peer: peer as u32,
        }
    }
}

impl Transport for JobTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.rank_map.len()
    }

    fn try_send(&mut self, dst: usize, tag: u64, payload: &Payload) -> Result<(), FabricError> {
        if dst == self.rank {
            if self.core.mailbox.poisoned.load(Ordering::SeqCst) {
                return Err(FabricError::NodeFailed {
                    node: self.rank as u32,
                });
            }
            self.core
                .local_enqueue(self.job, dst as u32, tag, payload.clone());
            return Ok(());
        }
        let mesh = self.rank_map[dst];
        match self
            .core
            .send_data(self.job, self.rank as u32, dst as u32, mesh, tag, payload)
        {
            Ok(()) => {
                let s = &mut self.counters.sent[dst];
                s.0 += 1;
                s.1 += payload.len() as u64;
                Ok(())
            }
            Err(CoreFail::Poisoned) => Err(FabricError::NodeFailed {
                node: self.rank as u32,
            }),
            Err(_) => Err(self.peer_failed(dst)),
        }
    }

    fn note_mem_use(&mut self, bytes: u64) {
        self.counters.mem_high_water = self.counters.mem_high_water.max(bytes);
    }

    fn try_recv(&mut self, src: usize, tag: u64) -> Result<Payload, FabricError> {
        let mesh = if src == self.rank {
            None
        } else {
            Some(self.rank_map[src])
        };
        match self.core.recv(self.job, src as u32, mesh, tag) {
            Ok(payload) => {
                self.counters.recv_messages += 1;
                self.counters.recv_bytes += payload.len() as u64;
                Ok(payload)
            }
            Err(CoreFail::PeerGone) => Err(self.peer_failed(src)),
            Err(CoreFail::Timeout) => Err(FabricError::RecvTimeout {
                node: self.rank as u32,
                src: src as u32,
                tag,
            }),
            Err(CoreFail::Poisoned) => Err(FabricError::NodeFailed {
                node: self.rank as u32,
            }),
        }
    }

    fn try_recv_ready(&mut self, src: usize, tag: u64) -> bool {
        self.core.ready(self.job, src as u32, tag)
    }

    /// Wall seconds since the mesh epoch.
    fn now(&self) -> f64 {
        self.core.start.elapsed().as_secs_f64()
    }
}

/// A one-job TCP [`Transport`] for one rank: a [`JobTransport`] over a
/// private [`MeshCore`], in job namespace 0 with an identity rank map.
pub struct TcpTransport(JobTransport);

impl TcpTransport {
    /// Establishes the full mesh for `rank` out of `peers` (one data-plane
    /// listen address per rank, indexed by rank). See [`MeshCore::connect`].
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
        Ok(TcpTransport(JobTransport::new(core, 0, rank, identity)))
    }

    /// Clean shutdown: tell every peer we are done and return this rank's
    /// traffic counters. The I/O thread is woken out of `poll(2)` and
    /// joined; already-written frames stay deliverable to peers through
    /// normal TCP buffering. The link-level `Goodbye` ends
    /// the one job with the mesh, so no `JobDone` is sent.
    pub fn finish(self) -> (NodeMetrics, Vec<LinkMetrics>) {
        let counters = self.0.counters.finish(self.0.rank);
        self.0.core.shutdown();
        counters
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.0.rank()
    }

    fn size(&self) -> usize {
        self.0.size()
    }

    fn try_send(&mut self, dst: usize, tag: u64, payload: &Payload) -> Result<(), FabricError> {
        self.0.try_send(dst, tag, payload)
    }

    fn note_mem_use(&mut self, bytes: u64) {
        self.0.note_mem_use(bytes);
    }

    fn try_recv(&mut self, src: usize, tag: u64) -> Result<Payload, FabricError> {
        self.0.try_recv(src, tag)
    }

    fn try_recv_ready(&mut self, src: usize, tag: u64) -> bool {
        self.0.try_recv_ready(src, tag)
    }

    fn now(&self) -> f64 {
        self.0.now()
    }
}

/// Dials `addr`, retrying with exponential backoff while the peer process
/// comes up.
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
    use super::*;
    use std::io::Read;

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

    #[test]
    fn purged_job_drops_late_frames() {
        let cores = core_mesh(2);
        let (c0, c1) = (cores[0].clone(), cores[1].clone());
        let mut sender = JobTransport::new(c1.clone(), 3, 1, vec![0, 1]);
        c0.purge_job(3);
        sender
            .try_send(0, 2, &Payload::from(b"late"))
            .expect("send");
        sender.finish();
        // Give the io thread time to process the frame, then verify the
        // retired job's queue never materialized.
        std::thread::sleep(Duration::from_millis(100));
        let m = c0.mailbox.lock();
        assert!(
            m.queues.keys().all(|k| k.0 != 3),
            "late frame for retired job must be dropped"
        );
        drop(m);
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
    fn beat_skips_busy_writer_instead_of_blocking() {
        let (w, _r) = tcp_pair();
        let link = PeerLink {
            writer: Mutex::new(w),
            seq: AtomicU64::new(1),
        };
        // A data sender mid-`write_parts` holds the writer lock; the beat
        // must neither block behind it nor declare the link broken.
        let guard = link.writer.try_lock().expect("free lock");
        let started = Instant::now();
        assert!(link.try_beat(0, 1), "busy writer is not a dead link");
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "beat must not block behind a held writer lock"
        );
        drop(guard);
        // With the lock free the beat actually goes out.
        assert!(link.try_beat(0, 1));
    }

    #[test]
    fn beat_skips_saturated_socket_instead_of_killing_peer() {
        let (w, _r) = tcp_pair();
        w.set_nonblocking(true).expect("nonblocking");
        let link = PeerLink {
            writer: Mutex::new(w),
            seq: AtomicU64::new(1),
        };
        // Saturate the kernel send buffer: nobody reads `_r`, so writes
        // eventually refuse. Top off with single bytes so not even a
        // partial header fits.
        {
            let mut w = link.writer.lock().expect("lock");
            let chunk = [0u8; 64 * 1024];
            loop {
                match std::io::Write::write(&mut *w, &chunk) {
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => panic!("unexpected write error: {e}"),
                }
            }
            loop {
                match std::io::Write::write(&mut *w, &[0u8]) {
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => panic!("unexpected write error: {e}"),
                }
            }
        }
        let started = Instant::now();
        assert!(
            link.try_beat(0, 1),
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
        let cores = core_mesh_with(2, &beatless());
        let passes = |c: &MeshCore| c.io_passes.load(Ordering::Relaxed);
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
        let link = PeerLink {
            writer: Mutex::new(w),
            seq: AtomicU64::new(1),
        };
        let payload: Vec<u8> = (0..4usize << 20).map(|i| (i % 251) as u8).collect();
        let expected = payload.clone();
        // Far more than the socket buffers hold, so the send spends most
        // of its time refused — in `poll(2)`, not in a sleep loop.
        let sender = std::thread::spawn(move || link.send(FrameKind::Data, 1, 0, 0, 9, &payload));
        // The receiving endpoint, driven by hand: 64 KiB a millisecond, so
        // the one frame takes several staleness windows to arrive.
        let stale_after = Duration::from_millis(20);
        let started = Instant::now();
        let mailbox = Mailbox::new(2, started);
        let mut input = PeerInput::new(1);
        let mut chunk = vec![0u8; 64 * 1024];
        loop {
            match mailbox
                .lock()
                .take((0, 1, 9), Some(1), Instant::now(), stale_after)
            {
                Take::Ready(got) => {
                    assert!(got[..] == expected[..], "payload damaged in transit");
                    break;
                }
                Take::Pending => {}
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
