//! The mesh endpoint as a sans-I/O core, and the [`Driver`] it runs under.
//!
//! Everything an endpoint *decides* lives here, each rule a function of its
//! inputs and a `now` it is handed: Hello validation on a freshly accepted
//! link; the per-link sequence and job-0 source checks on each frame the
//! [`wire`](crate::wire) assembler completes; the `(job, src, tag)` mailbox
//! and job retirement; the receive verdict with its deadline and staleness
//! window; the send verdict; and the I/O pass. What the core needs from the
//! world is a [`Driver`]: a clock, a place to park a receiver, and each
//! link's nonblocking byte stream with a wait for it to turn writable or
//! readable. [`transport`](crate::transport)'s socket driver is one; the
//! dev-only `sage-simnet` crate's seeded simulator is the other, so every
//! rule here runs unchanged under both — and the unit tests below drive it
//! with hand-made bytes and instants.
//!
//! | event | entry point | effect |
//! |---|---|---|
//! | a link is accepted | [`hello`] | the mesh index its first frame names, or a typed refusal: not a `Hello`, another destination, an index not above ours or past the mesh, an index already linked |
//! | the driver finds links readable at `now` | [`IoPass::pass`] | each readable link: `last_seen` refreshed, then at most one frame or 64 KiB of one read (`Data` queued, `JobDone` recorded, `Goodbye` → done; EOF, read error, replay, wrong source, garbage → dead); then, if a beat is due, one per link: skipped on a busy or full writer, dead on a broken one |
//! | the driver cannot wait any more | [`IoPass::run`] | every open link dead |
//! | a rank sends | [`Mailbox::send`] | written; or `NodeFailed` (local state poisoned), `PeerFailed` (no link, peer dead, or the stream broke under the frame → dead) |
//! | self-send | [`Mailbox::post`] | queued |
//! | a receiver asks at `now` | [`MeshState::take`] | `Ready(payload)` / `Pending(until)` / `Gone` (dead, done, job done, or silent past `heartbeat × MISSED_BEATS` → dead) / `TimedOut` (the deadline passed) |
//! | a job ends | [`MeshState::purge_job`] | queues dropped, id retired |
//!
//! The state has two halves because two kinds of thread touch it. A
//! [`PeerInput`] (the frame in flight, last sequence number) belongs to the
//! I/O pass that reads that peer; the [`Mailbox`] is shared with every
//! receiver and is locked per delivery, never across a frame decode —
//! checksumming a large payload must not stall senders and receivers on the
//! endpoint. A delivery unparks the receivers itself, so a parked receiver
//! wakes on the frame, not on a timer.

use crate::error::NetError;
use crate::wire::{Assembler, Frame, FrameKind, Header};
use sage_fabric::{FabricError, Payload};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LockResult, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

/// What an endpoint needs from the world it runs in, and nothing it decides.
/// `transport::Sockets` is `poll(2)`, a condvar and the monotonic clock;
/// a simulator implements the same primitives over a virtual clock and
/// in-memory byte pipes.
pub trait Driver: Send + Sync + 'static {
    /// One link's byte stream, nonblocking both ways: a read with nothing
    /// arrived and a write with no buffer space are `WouldBlock`, and the
    /// stream's end reads as `Ok(0)`.
    type Link: Read + Write + Send + 'static;

    /// The endpoint's clock.
    fn now(&self) -> Instant;

    /// Parks a receiver: releases `held`, a guard of `lock`, until
    /// [`unpark`](Driver::unpark) or `until`, whichever is first, and takes
    /// the lock again. An `Err` is a lock poisoned in the meantime.
    fn park<'a, S>(
        &self,
        lock: &'a Mutex<S>,
        held: MutexGuard<'a, S>,
        until: Instant,
    ) -> LockResult<MutexGuard<'a, S>>;

    /// Wakes every parked receiver.
    fn unpark(&self);

    /// Blocks until `link` accepts bytes again, or has failed.
    fn wait_writable(&self, link: &Self::Link) -> io::Result<()>;

    /// Blocks until one of `links` is readable (bytes, its end or an
    /// error), `until` passes, or the driver is stopped. Leaves one flag
    /// per link in `ready`; `Ok(false)` means stopped.
    fn wait_readable(
        &self,
        links: &[&Self::Link],
        ready: &mut Vec<bool>,
        until: Instant,
    ) -> io::Result<bool>;

    /// Stops the endpoint's I/O pass for good: its waits return `Ok(false)`
    /// from now on. Idempotent.
    fn stop(&self);
}

/// Liveness state of one peer link.
struct PeerState {
    /// Peer sent `Goodbye`: it will transmit nothing further, but already
    /// queued messages remain receivable.
    done: bool,
    /// Connection dropped without `Goodbye`, protocol violation, or
    /// heartbeat silence: the peer is presumed crashed.
    dead: bool,
    last_seen: Instant,
}

/// How many retired job ids the mailbox remembers. Late frames for a
/// remembered id are dropped instead of accumulating in dead queues; ids
/// are scheduler-monotonic and never reused, so forgetting ancient ones
/// is harmless.
const RETIRED_MEMORY: usize = 1024;

/// Heartbeats a peer may miss before it is declared dead.
pub(crate) const MISSED_BEATS: u32 = 12;

/// How long one receive may wait for its message.
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// The receive verdict: what a receiver finds when it asks for
/// `(job, src, tag)` at some instant.
pub(crate) enum Take {
    /// The oldest queued payload.
    Ready(Payload),
    /// Nothing queued yet and the sender alive: park until the instant
    /// given, or a delivery, and ask again.
    Pending(Instant),
    /// The sender is dead, said `Goodbye`, finished this job, or has been
    /// silent past the staleness window (and is now dead): with its queue
    /// drained the receive can never complete.
    Gone,
    /// The receive's deadline passed with the sender still alive.
    TimedOut,
}

/// The shared half of the state machine: what has arrived and who is alive.
pub(crate) struct MeshState {
    /// Received payloads keyed `(job, logical src, tag)`.
    pub(crate) queues: HashMap<(u32, u32, u64), VecDeque<Payload>>,
    peers: Vec<PeerState>,
    /// `(job, logical src)` pairs whose sender declared the job finished.
    job_done: HashSet<(u32, u32)>,
    /// Jobs purged on this endpoint (see [`RETIRED_MEMORY`]).
    retired: HashSet<u32>,
    retired_order: VecDeque<u32>,
}

impl MeshState {
    /// Self-send: queues a payload that never touches the wire.
    pub(crate) fn enqueue(&mut self, job: u32, src: u32, tag: u64, payload: Payload) {
        self.queues
            .entry((job, src, tag))
            .or_default()
            .push_back(payload);
    }

    /// The receive verdict for `(job, src, tag)`, asked first at `asked`,
    /// at `now`. `mesh_src` names the mesh peer hosting logical `src`;
    /// `None` is a self-receive, which has no liveness to judge. A peer is
    /// stale after `heartbeat × MISSED_BEATS` of silence; a pending
    /// receiver re-checks at least every heartbeat.
    pub(crate) fn take(
        &mut self,
        (job, src, tag): (u32, u32, u64),
        mesh_src: Option<usize>,
        asked: Instant,
        now: Instant,
        heartbeat: Duration,
    ) -> Take {
        let queued = self.queues.get_mut(&(job, src, tag));
        if let Some(payload) = queued.and_then(VecDeque::pop_front) {
            return Take::Ready(payload);
        }
        if let Some(peer) = mesh_src {
            let p = &mut self.peers[peer];
            if p.dead || p.done || self.job_done.contains(&(job, src)) {
                // Mirrors the local cluster: a finished peer with an empty
                // queue can never satisfy this receive. A `JobDone` for this
                // namespace means the same thing job-locally, with the link
                // itself staying warm.
                return Take::Gone;
            }
            if now.saturating_duration_since(p.last_seen) > heartbeat * MISSED_BEATS {
                p.dead = true;
                return Take::Gone;
            }
        }
        let deadline = asked + RECV_TIMEOUT;
        if now >= deadline {
            return Take::TimedOut;
        }
        Take::Pending(deadline.min(now + heartbeat))
    }

    /// Whether a `(job, src, tag)` receive would complete immediately.
    pub(crate) fn ready(&self, job: u32, src: u32, tag: u64) -> bool {
        self.queues
            .get(&(job, src, tag))
            .is_some_and(|q| !q.is_empty())
    }

    /// Retires a finished job: drops its queues and done-markers and
    /// remembers the id so late frames are discarded instead of pooling.
    pub(crate) fn purge_job(&mut self, job: u32) {
        self.queues.retain(|k, _| k.0 != job);
        self.job_done.retain(|k| k.0 != job);
        if self.retired.insert(job) {
            self.retired_order.push_back(job);
            if self.retired_order.len() > RETIRED_MEMORY {
                if let Some(old) = self.retired_order.pop_front() {
                    self.retired.remove(&old);
                }
            }
        }
    }

    /// Applies one sequenced frame from `peer`; `false` ends the link.
    fn deliver(&mut self, peer: usize, frame: Frame, now: Instant) -> bool {
        let p = &mut self.peers[peer];
        match frame.kind {
            FrameKind::Data | FrameKind::Heartbeat | FrameKind::JobDone => p.last_seen = now,
            FrameKind::Goodbye => {
                p.done = true;
                return false;
            }
            _ => {
                // Control-plane kinds have no business on a data link.
                p.dead = true;
                return false;
            }
        }
        if !self.retired.contains(&frame.job) {
            match frame.kind {
                FrameKind::Data => {
                    // The freshly read bytes move straight into the mailbox
                    // as a `Payload` — receivers take the same allocation.
                    let payload = Payload::from_vec(frame.payload);
                    self.enqueue(frame.job, frame.src, frame.tag, payload);
                }
                FrameKind::JobDone => {
                    self.job_done.insert((frame.job, frame.src));
                }
                _ => {}
            }
        }
        true
    }
}

/// [`MeshState`] as an endpoint's threads share it: behind a lock, with the
/// driver that parks and unparks its receivers.
pub(crate) struct Mailbox<D> {
    inner: Mutex<MeshState>,
    /// Set when any thread panicked while holding the mailbox lock. The
    /// transport keeps functioning (metrics, shutdown, draining) but
    /// reports this endpoint as failed instead of cascading the panic
    /// into every caller thread.
    poisoned: AtomicBool,
    pub(crate) driver: D,
}

impl<D: Driver> Mailbox<D> {
    /// An empty mailbox for a mesh of `size` endpoints, every peer last
    /// seen at `now`.
    pub(crate) fn new(size: usize, now: Instant, driver: D) -> Mailbox<D> {
        let peer = |_| PeerState {
            done: false,
            dead: false,
            last_seen: now,
        };
        Mailbox {
            inner: Mutex::new(MeshState {
                queues: HashMap::new(),
                peers: (0..size).map(peer).collect(),
                job_done: HashSet::new(),
                retired: HashSet::new(),
                retired_order: VecDeque::new(),
            }),
            poisoned: AtomicBool::new(false),
            driver,
        }
    }

    /// Locks the mailbox, recovering from poison instead of panicking.
    pub(crate) fn lock(&self) -> MutexGuard<'_, MeshState> {
        self.inner.lock().unwrap_or_else(|e| {
            self.poisoned.store(true, Ordering::SeqCst);
            e.into_inner()
        })
    }

    /// Verdict: `peer` is presumed crashed. Wakes every receiver.
    pub(crate) fn mark_dead(&self, peer: usize) {
        self.lock().peers[peer].dead = true;
        self.driver.unpark();
    }

    /// `NodeFailed` for logical rank `node` once local state is suspect.
    fn healthy(&self, node: u32) -> Result<(), FabricError> {
        match self.poisoned.load(Ordering::SeqCst) {
            true => Err(FabricError::NodeFailed { node }),
            false => Ok(()),
        }
    }

    /// A blocking receive of `(job, src, tag)` by logical rank `node`:
    /// asks [`MeshState::take`] and parks on `Pending` until it answers
    /// otherwise. `mesh_src` as for `take`.
    pub(crate) fn recv(
        &self,
        node: u32,
        key: (u32, u32, u64),
        mesh_src: Option<usize>,
        heartbeat: Duration,
    ) -> Result<Payload, FabricError> {
        let (_, src, tag) = key;
        self.healthy(node)?;
        let asked = self.driver.now();
        let mut m = self.lock();
        loop {
            match m.take(key, mesh_src, asked, self.driver.now(), heartbeat) {
                Take::Ready(payload) => return Ok(payload),
                Take::Gone => return Err(FabricError::PeerFailed { node, peer: src }),
                Take::TimedOut => return Err(FabricError::RecvTimeout { node, src, tag }),
                Take::Pending(until) => match self.driver.park(&self.inner, m, until) {
                    Ok(guard) => m = guard,
                    Err(_) => {
                        // A receiver or producer panicked with the lock held.
                        self.poisoned.store(true, Ordering::SeqCst);
                        return Err(FabricError::NodeFailed { node });
                    }
                },
            }
        }
    }

    /// The send verdict for a frame to mesh peer `peer` over `link`:
    /// written, or why not, in `header`'s logical ranks.
    pub(crate) fn send(
        &self,
        link: Option<&PeerLink<D>>,
        peer: usize,
        header: Header,
        payload: &[u8],
    ) -> Result<(), FabricError> {
        self.healthy(header.src)?;
        let gone = FabricError::PeerFailed {
            node: header.src,
            peer: header.dst,
        };
        // A link the mesh came up without can never carry the frame: the
        // same typed error a crashed peer gives, which callers handle.
        let Some(link) = link else { return Err(gone) };
        if self.lock().peers[peer].dead {
            return Err(gone);
        }
        if !link.send(&self.driver, header, payload) {
            self.mark_dead(peer);
            return Err(gone);
        }
        Ok(())
    }

    /// Self-send: `payload` queued for `(job, src, tag)` without the wire.
    pub(crate) fn post(
        &self,
        job: u32,
        src: u32,
        tag: u64,
        payload: Payload,
    ) -> Result<(), FabricError> {
        self.healthy(src)?;
        self.lock().enqueue(job, src, tag, payload);
        Ok(())
    }
}

/// The write half of one established link. Concurrent jobs sharing the
/// link serialize on the writer lock; sequence numbers are assigned under
/// it, so frames hit the wire in sequence order even when a beat races a
/// data send.
pub(crate) struct PeerLink<D: Driver> {
    writer: Mutex<D::Link>,
    seq: AtomicU64,
}

impl<D: Driver> PeerLink<D> {
    pub(crate) fn new(link: D::Link) -> PeerLink<D> {
        PeerLink {
            writer: Mutex::new(link),
            seq: AtomicU64::new(0),
        }
    }

    /// Transmits `header` (its sequence number assigned here) and `payload`
    /// straight from the caller's slice, waiting while the peer drains a
    /// full send buffer; `false` if the stream is broken or its writer lock
    /// poisoned — a thread panicked mid-write and may have torn a frame.
    pub(crate) fn send(&self, driver: &D, mut header: Header, payload: &[u8]) -> bool {
        let Ok(mut w) = self.writer.lock() else {
            return false;
        };
        header.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut w = LinkWriter::new(driver, &mut w, true);
        header.write(&mut w, payload).is_ok()
    }

    /// One heartbeat from the I/O pass, which must not wait on any one link.
    /// Data senders hold the writer lock while the kernel send buffer
    /// drains — potentially for a long time on a saturated link — and
    /// blocking behind that would freeze reads and beats for every peer:
    /// exactly how healthy peers used to be declared stale under heavy
    /// data volume. So the beat is skipped when the writer is busy or the
    /// buffer is full: data frames are already in flight on this link,
    /// and any bytes arriving refresh the remote's `last_seen` as a beat
    /// would. `false` only when the stream itself is broken.
    pub(crate) fn try_beat(&self, driver: &D, src: u32, dst: u32) -> bool {
        match self.writer.try_lock() {
            Ok(mut w) => {
                let mut beat = Header::new(FrameKind::Heartbeat, 0, src, dst);
                beat.seq = self.seq.fetch_add(1, Ordering::Relaxed);
                let mut w = LinkWriter::new(driver, &mut w, false);
                beat.write(&mut w, &[]).is_ok() || w.refused
            }
            Err(TryLockError::WouldBlock) => true,
            Err(TryLockError::Poisoned(_)) => false,
        }
    }
}

/// `Write` over a link's nonblocking stream that answers `WouldBlock` by
/// waiting, through the driver, until the stream is writable again —
/// always when `patient`, otherwise only once a first byte is out, and
/// before that gives up (`refused`): a beat may be skipped whole, but no
/// frame is ever abandoned torn.
struct LinkWriter<'a, D: Driver> {
    driver: &'a D,
    link: &'a mut D::Link,
    patient: bool,
    refused: bool,
}

impl<'a, D: Driver> LinkWriter<'a, D> {
    fn new(driver: &'a D, link: &'a mut D::Link, patient: bool) -> LinkWriter<'a, D> {
        LinkWriter {
            driver,
            link,
            patient,
            refused: false,
        }
    }

    fn drive(
        &mut self,
        mut op: impl FnMut(&mut D::Link) -> io::Result<usize>,
    ) -> io::Result<usize> {
        loop {
            match op(self.link) {
                Ok(n) => {
                    self.patient = true;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock && !self.patient => {
                    self.refused = true;
                    return Err(e);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.driver.wait_writable(self.link)?;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl<D: Driver> Write for LinkWriter<'_, D> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.drive(|link| link.write(buf))
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        self.drive(|link| link.write_vectored(bufs))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The per-link half of the state machine: the frame currently arriving on
/// one peer's stream, and the last sequence number that peer used.
pub(crate) struct PeerInput {
    peer: usize,
    assembler: Assembler,
    last_seq: Option<u64>,
    open: bool,
}

/// How many payload bytes one readiness event may read: a peer streaming a
/// large frame must not keep the I/O pass from the other links.
const PASS_BYTES: usize = 64 * 1024;

impl PeerInput {
    /// The input half of the link to mesh index `peer`, nothing read yet.
    pub(crate) fn new(peer: usize) -> PeerInput {
        PeerInput {
            peer,
            assembler: Assembler::new(),
            last_seq: None,
            open: true,
        }
    }

    /// Whether the stream is still worth reading: no `Goodbye`, no
    /// end-of-stream, no violation so far.
    pub(crate) fn is_open(&self) -> bool {
        self.open
    }

    /// Event: the peer's stream `r` is readable at `now`. Reads one frame
    /// off it, or as much of one as has arrived or a pass allows — the
    /// payload straight into the allocation its receiver will own. What is
    /// left keeps `r` readable, so the caller is back for it.
    pub(crate) fn on_readable<R: Read, D: Driver>(
        &mut self,
        r: &mut R,
        now: Instant,
        mailbox: &Mailbox<D>,
    ) {
        // Readable means bytes have arrived (or the stream ended, which
        // closes the link below), and any bytes at all prove the peer alive:
        // one midway through a large frame (or trickling it through a
        // congested path) must not go stale while its bytes still arrive,
        // even if no *complete* frame lands within the staleness window.
        mailbox.lock().peers[self.peer].last_seen = now;
        match self.assembler.pull(r, PASS_BYTES) {
            Ok(Some(frame)) => self.open = self.on_frame(frame, now, mailbox),
            Ok(None) => {}
            // End of stream without a goodbye, a read error, garbage on the
            // wire: crashed or corrupt, the remedy is the same.
            Err(_) => self.on_closed(mailbox),
        }
    }

    /// Event: the stream ended or failed with no `Goodbye` — the peer
    /// crashed.
    pub(crate) fn on_closed<D: Driver>(&mut self, mailbox: &Mailbox<D>) {
        self.open = false;
        mailbox.mark_dead(self.peer);
    }

    /// Judges one decoded frame and delivers it; `false` ends the link.
    fn on_frame<D: Driver>(&mut self, frame: Frame, now: Instant, mailbox: &Mailbox<D>) -> bool {
        // Per-link sequence numbers are strictly increasing whatever the
        // job; a replayed or reordered frame means the link cannot be
        // trusted. For job 0 — where logical ranks equal mesh indices —
        // the source attribution is checked too (fleet jobs use per-job
        // namespaces the link layer cannot see; their frames are
        // checksummed and sequenced like all others).
        if self.last_seq.is_some_and(|s| frame.seq <= s)
            || (frame.job == 0
                && matches!(frame.kind, FrameKind::Data | FrameKind::JobDone)
                && frame.src as usize != self.peer)
        {
            mailbox.mark_dead(self.peer);
            return false;
        }
        self.last_seq = Some(frame.seq);
        let keep = mailbox.lock().deliver(self.peer, frame, now);
        mailbox.driver.unpark();
        keep
    }
}

/// When heartbeats go out: one every `interval`, the first an interval
/// after `last`.
pub(crate) struct Beats {
    pub(crate) interval: Duration,
    pub(crate) last: Instant,
}

impl Beats {
    /// When the next beat is due: how long the I/O pass may wait.
    pub(crate) fn next_due(&self) -> Instant {
        self.last + self.interval
    }

    /// Whether a beat is due at `now`; a yes starts the next interval.
    pub(crate) fn due(&mut self, now: Instant) -> bool {
        let due = now >= self.next_due();
        if due {
            self.last = now;
        }
        due
    }
}

/// Hello validation: the mesh index of the endpoint on a freshly accepted
/// link, judged by the first frame read off it. Endpoint `rank` of `size`
/// accepts one link from each higher index (`linked(j)`: index `j`
/// already has its link); anything else refuses the mesh.
pub(crate) fn hello(
    frame: &Frame,
    rank: usize,
    size: usize,
    linked: impl Fn(usize) -> bool,
) -> Result<usize, NetError> {
    let j = frame.src as usize;
    if frame.kind != FrameKind::Hello
        || frame.dst as usize != rank
        || j <= rank
        || j >= size
        || linked(j)
    {
        return Err(NetError::Protocol(format!(
            "bad hello from rank {j} (kind {:?}, dst {})",
            frame.kind, frame.dst
        )));
    }
    Ok(j)
}

/// An endpoint's I/O: every link's read half with the frame arriving on
/// it, every link's write half for the beats, and the beat schedule.
/// Whoever runs [`IoPass::run`] is the endpoint's one reader.
pub struct IoPass<D: Driver> {
    pub(crate) reads: Vec<(D::Link, PeerInput)>,
    pub(crate) links: Vec<(usize, Arc<PeerLink<D>>)>,
    pub(crate) mailbox: Arc<Mailbox<D>>,
    pub(crate) beats: Beats,
    pub(crate) rank: u32,
}

impl<D: Driver> IoPass<D> {
    /// The I/O pass at `now`, `ready` holding the driver's flag for each
    /// open link in order: at most one frame or [`PASS_BYTES`] from each
    /// readable link, then, if a beat is due, one per link.
    pub(crate) fn pass(&mut self, ready: &[bool], now: Instant) {
        let open = self.reads.iter_mut().filter(|(_, input)| input.is_open());
        for ((link, input), _) in open.zip(ready).filter(|(_, &ready)| ready) {
            // Straight off the link into each frame's own payload
            // allocation: nothing between the driver and the mailbox.
            input.on_readable(link, now, &self.mailbox);
        }
        if self.beats.due(now) {
            for (j, link) in &self.links {
                if !link.try_beat(&self.mailbox.driver, self.rank, *j as u32) {
                    self.mailbox.mark_dead(*j);
                }
            }
        }
    }

    /// Runs the endpoint's I/O until the driver stops it: waits until a
    /// link is readable or a beat is due, and passes.
    pub fn run(mut self) {
        let mut ready = Vec::new();
        loop {
            let open: Vec<&D::Link> = (self.reads.iter())
                .filter(|(_, input)| input.is_open())
                .map(|(link, _)| link)
                .collect();
            let driver = &self.mailbox.driver;
            match driver.wait_readable(&open, &mut ready, self.beats.next_due()) {
                Ok(true) => self.pass(&ready, self.mailbox.driver.now()),
                Ok(false) => return,
                Err(_) => break,
            }
        }
        // The driver cannot wait any more (out of memory, fd limit): nothing
        // can be read, so fail typed rather than spin.
        for (_, input) in self.reads.iter_mut().filter(|(_, i)| i.is_open()) {
            input.on_closed(&self.mailbox);
        }
    }
}

#[cfg(test)]
mod tests {
    // The by-hand driver stamps its instants from the real clock.
    #![allow(clippy::disallowed_methods)]

    use super::*;
    use crate::wire::{write_parts, MAX_PAYLOAD};
    use proptest::prelude::*;

    const BEAT: Duration = Duration::from_millis(100);
    const STALE: Duration = Duration::from_millis(1200);
    const MS: Duration = Duration::from_millis(1);

    /// A driver by hand: the tests pass every instant themselves, nobody
    /// parks, and a link is a byte sink whose next write does what
    /// `Sink::next` says.
    struct Hand;

    #[derive(Clone, Copy, PartialEq)]
    enum Next {
        Take,
        Full,
        Break,
    }

    struct Sink {
        bytes: Vec<u8>,
        next: Next,
    }

    impl Read for Sink {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match self.next {
                Next::Take => self.bytes.write(buf),
                Next::Full => Err(io::ErrorKind::WouldBlock.into()),
                Next::Break => Err(io::ErrorKind::BrokenPipe.into()),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Driver for Hand {
        type Link = Sink;

        fn now(&self) -> Instant {
            Instant::now()
        }

        fn park<'a, S>(
            &self,
            _: &'a Mutex<S>,
            held: MutexGuard<'a, S>,
            _: Instant,
        ) -> LockResult<MutexGuard<'a, S>> {
            Ok(held)
        }

        fn unpark(&self) {}

        fn wait_writable(&self, _: &Sink) -> io::Result<()> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn wait_readable(&self, _: &[&Sink], _: &mut Vec<bool>, _: Instant) -> io::Result<bool> {
            Ok(false)
        }

        fn stop(&self) {}
    }

    /// The wire bytes of one frame from mesh peer 1 to endpoint 0.
    fn frame(kind: FrameKind, job: u32, src: u32, tag: u64, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_parts(&mut bytes, kind, tag, src, 0, job, seq, payload).expect("encode");
        bytes
    }

    /// Endpoint 0 of a 2-mesh at `t0`, and its input from peer 1.
    fn endpoint(t0: Instant) -> (Mailbox<Hand>, PeerInput) {
        (Mailbox::new(2, t0, Hand), PeerInput::new(1))
    }

    fn take(mailbox: &Mailbox<Hand>, key: (u32, u32, u64), now: Instant) -> Take {
        mailbox.lock().take(key, Some(1), now, now, BEAT)
    }

    /// Bytes as a nonblocking socket presents them: what has arrived, then
    /// `WouldBlock` — never end-of-stream.
    struct Arrived<'a>(&'a [u8]);

    impl Read for Arrived<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.0.read(buf)
        }
    }

    impl MeshState {
        /// Whether `peer` is presumed crashed.
        pub(crate) fn dead(&self, peer: usize) -> bool {
            self.peers[peer].dead
        }

        /// Whether `peer` may still send: neither dead nor done.
        pub(crate) fn alive(&self, peer: usize) -> bool {
            let p = &self.peers[peer];
            !p.dead && !p.done
        }
    }

    impl PeerInput {
        /// Event: exactly `bytes` arrived from the peer at `now` (as many
        /// readiness passes as it takes to hand them all over).
        pub(crate) fn on_bytes<D: Driver>(
            &mut self,
            bytes: &[u8],
            now: Instant,
            mailbox: &Mailbox<D>,
        ) {
            let mut arrived = Arrived(bytes);
            while self.is_open() && !arrived.0.is_empty() {
                self.on_readable(&mut arrived, now, mailbox);
            }
        }
    }

    #[test]
    fn half_a_frame_refreshes_liveness_and_the_other_half_delivers() {
        let t0 = Instant::now();
        let (mailbox, mut input) = endpoint(t0);
        let bytes = frame(FrameKind::Data, 0, 1, 9, 1, b"slow-big-frame");
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        // The first half lands just inside the staleness window...
        input.on_bytes(head, t0 + STALE, &mailbox);
        assert!(mailbox.lock().queues.is_empty(), "no complete frame yet");
        // ...so a whole further window of silence is tolerated, where a
        // peer last seen at `t0` would have gone stale long ago.
        assert!(matches!(
            take(&mailbox, (0, 1, 9), t0 + 2 * STALE),
            Take::Pending(_)
        ));
        input.on_bytes(tail, t0 + 2 * STALE, &mailbox);
        match take(&mailbox, (0, 1, 9), t0 + 2 * STALE) {
            Take::Ready(p) => assert_eq!(&p[..], b"slow-big-frame"),
            _ => panic!("reassembled frame never landed"),
        }
        assert!(input.is_open());
    }

    #[test]
    fn silence_past_the_window_is_gone_and_one_tick_earlier_is_alive() {
        let t0 = Instant::now();
        let (mailbox, _input) = endpoint(t0);
        assert!(matches!(
            take(&mailbox, (0, 1, 3), t0 + STALE),
            Take::Pending(_)
        ));
        assert!(mailbox.lock().alive(1));
        let tick = Duration::from_nanos(1);
        assert!(matches!(
            take(&mailbox, (0, 1, 3), t0 + STALE + tick),
            Take::Gone
        ));
        assert!(mailbox.lock().dead(1));
        // The verdict sticks: later asks see a dead peer, not a new timeout.
        assert!(matches!(take(&mailbox, (0, 1, 3), t0), Take::Gone));
        // A self-receive has no peer to judge.
        let own = mailbox
            .lock()
            .take((0, 0, 3), None, t0, t0 + 9 * STALE, BEAT);
        assert!(matches!(own, Take::Pending(_)));
    }

    #[test]
    fn a_pending_receive_rechecks_every_beat_and_times_out_at_its_deadline() {
        let t0 = Instant::now();
        let (mailbox, mut input) = endpoint(t0);
        let asked = t0;
        let mut now = t0;
        // The peer beats on time, so only the receive's own deadline ends it.
        for seq in 1.. {
            let hb = frame(FrameKind::Heartbeat, 0, 1, 0, seq, &[]);
            input.on_bytes(&hb, now, &mailbox);
            match mailbox.lock().take((0, 1, 3), Some(1), asked, now, BEAT) {
                Take::Pending(until) => {
                    assert_eq!(until, (asked + RECV_TIMEOUT).min(now + BEAT));
                    now = until;
                }
                Take::TimedOut => break,
                _ => panic!("a live, beating peer is not gone"),
            }
        }
        assert_eq!(now, asked + RECV_TIMEOUT);
        // A self-receive times out the same way.
        let own = mailbox.lock().take((0, 0, 3), None, asked, now, BEAT);
        assert!(matches!(own, Take::TimedOut));
    }

    #[test]
    fn link_violations_kill_the_peer() {
        let hb = |seq| frame(FrameKind::Heartbeat, 0, 1, 0, seq, &[]);
        let data = |src, job, seq| frame(FrameKind::Data, job, src, 5, seq, b"x");
        let cases: [(&str, Vec<Vec<u8>>); 5] = [
            ("replayed seq", vec![hb(4), hb(4)]),
            ("out-of-order seq", vec![hb(4), data(1, 0, 3)]),
            ("job-0 frame from the wrong src", vec![data(0, 0, 1)]),
            (
                "control-plane kind on a data link",
                vec![frame(FrameKind::Fleet, 0, 1, 0, 1, b"?")],
            ),
            ("garbage", vec![vec![0xA5; 3 * crate::wire::HEADER_LEN]]),
        ];
        for (what, chunks) in cases {
            let t0 = Instant::now();
            let (mailbox, mut input) = endpoint(t0);
            for chunk in &chunks {
                input.on_bytes(chunk, t0 + MS, &mailbox);
            }
            assert!(!input.is_open(), "{what}: link must close");
            assert!(mailbox.lock().dead(1), "{what}: peer must be dead");
            assert!(mailbox.lock().queues.is_empty(), "{what}: nothing lands");
        }
        // A fleet job's logical src is not a mesh index: not judged.
        let t0 = Instant::now();
        let (mailbox, mut input) = endpoint(t0);
        input.on_bytes(&data(0, 7, 1), t0 + MS, &mailbox);
        assert!(input.is_open() && mailbox.lock().alive(1));
        assert!(mailbox.lock().ready(7, 0, 5));
    }

    #[test]
    fn a_corrupt_byte_anywhere_in_the_stream_kills_the_link_without_panicking() {
        let mut stream = frame(FrameKind::Data, 0, 1, 5, 1, b"payload");
        let second = stream.len();
        stream.extend(frame(FrameKind::JobDone, 3, 1, 0, 2, &[]));
        // A flipped length byte can also announce a longer (still legal)
        // frame: the link then waits for bytes that never come, which is
        // the staleness window's case, not this one's.
        let in_len = |at: usize| (36..40).contains(&at) || (second + 36..second + 40).contains(&at);
        let t0 = Instant::now();
        for at in 0..stream.len() {
            let mut bad = stream.clone();
            bad[at] ^= 0x40;
            let (mailbox, mut input) = endpoint(t0);
            // Fed in two pieces split at the damage, so the reassembly
            // buffer meets it at every offset.
            input.on_bytes(&bad[..at], t0, &mailbox);
            input.on_bytes(&bad[at..], t0, &mailbox);
            assert!(
                mailbox.lock().dead(1) || in_len(at),
                "corrupt byte {at} went unnoticed"
            );
            if let Take::Ready(p) = take(&mailbox, (0, 1, 5), t0) {
                assert_eq!(&p[..], b"payload", "byte {at}: delivered damaged");
            }
        }
    }

    /// Three frames back to back: a payload longer than a pass's budget, a
    /// control frame, and a data frame with an empty payload.
    fn three_frames() -> Vec<u8> {
        let big: Vec<u8> = (0..PASS_BYTES + 777).map(|i| (i % 251) as u8).collect();
        let mut stream = frame(FrameKind::Data, 0, 1, 9, 1, &big);
        stream.extend(frame(FrameKind::JobDone, 3, 1, 0, 2, &[]));
        stream.extend(frame(FrameKind::Data, 0, 1, 4, 3, &[]));
        stream
    }

    /// Feeds `pieces` to a fresh endpoint a millisecond apart, checking
    /// that each one — whole frames or not — refreshes the peer's liveness.
    fn feed<'a>(pieces: impl IntoIterator<Item = &'a [u8]>) -> (Mailbox<Hand>, PeerInput) {
        let t0 = Instant::now();
        let (mailbox, mut input) = endpoint(t0);
        let arriving = pieces.into_iter().filter(|piece| !piece.is_empty());
        for (i, piece) in arriving.enumerate() {
            let now = t0 + (i as u32 + 1) * MS;
            input.on_bytes(piece, now, &mailbox);
            assert_eq!(mailbox.lock().peers[1].last_seen, now, "piece {i}");
        }
        (mailbox, input)
    }

    /// Everything a feed leaves behind is what `whole` left behind.
    fn assert_same_outcome(
        got: &(Mailbox<Hand>, PeerInput),
        whole: &(Mailbox<Hand>, PeerInput),
        how: &str,
    ) {
        let (a, b) = (got.0.lock(), whole.0.lock());
        assert!(a.queues == b.queues, "{how}: mailbox contents differ");
        assert_eq!(a.job_done, b.job_done, "{how}");
        assert_eq!(a.alive(1), b.alive(1), "{how}");
        assert_eq!(got.1.last_seq, whole.1.last_seq, "{how}");
        assert_eq!(got.1.is_open(), whole.1.is_open(), "{how}");
    }

    #[test]
    fn a_stream_cut_at_every_byte_boundary_delivers_what_the_whole_stream_delivers() {
        let stream = three_frames();
        let whole = feed([&stream[..]]);
        {
            let m = whole.0.lock();
            assert_eq!(m.queues.len(), 2);
            assert_eq!(m.queues[&(0, 1, 9)][0].len(), PASS_BYTES + 777);
            assert!(m.queues[&(0, 1, 4)][0].is_empty());
            assert!(m.job_done.contains(&(3, 1)));
        }
        assert_eq!(whole.1.last_seq, Some(3));
        assert!(whole.1.is_open());
        // Phase `p` cuts at every boundary ≡ `p` (mod `COMB`): over all the
        // phases each byte boundary of the stream is a cut exactly once,
        // with a few KiB arriving whole on either side of it.
        const COMB: usize = 4099;
        for phase in 0..COMB {
            let cuts: Vec<usize> = (phase..stream.len()).step_by(COMB).collect();
            let starts = std::iter::once(0).chain(cuts.iter().copied());
            let ends = cuts.iter().copied().chain([stream.len()]);
            let pieces = starts.zip(ends).map(|(from, to)| &stream[from..to]);
            assert_same_outcome(&feed(pieces), &whole, &format!("cuts at {cuts:?}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any number of pieces of any sizes, runs of single bytes included.
        #[test]
        fn a_stream_dribbled_in_random_pieces_delivers_what_the_whole_stream_delivers(
            sizes in proptest::collection::vec(
                prop_oneof![Just(1usize), 1usize..100, 1usize..40_000],
                1..24,
            ),
        ) {
            let stream = three_frames();
            let mut rest = &stream[..];
            let mut pieces = Vec::new();
            for size in sizes.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (piece, after) = rest.split_at((*size).min(rest.len()));
                pieces.push(piece);
                rest = after;
            }
            assert_same_outcome(&feed(pieces), &feed([&stream[..]]), &format!("{sizes:?}"));
        }
    }

    #[test]
    fn a_header_announcing_the_largest_payload_reserves_little_until_bytes_arrive() {
        let mut header = frame(FrameKind::Data, 0, 1, 9, 1, &[]);
        header[36..40].copy_from_slice(&MAX_PAYLOAD.to_be_bytes());
        let t0 = Instant::now();
        let (mailbox, mut input) = endpoint(t0);
        input.on_bytes(&header, t0, &mailbox);
        input.on_bytes(&[0x5A; 100], t0, &mailbox);
        assert!(
            input.is_open(),
            "a legal length: the link waits for the rest"
        );
        let held = input.assembler.reserved();
        assert!(held < 2 << 20, "{held} bytes reserved on a header's say-so");
        // Silence from here on is the staleness window's case.
        assert!(matches!(
            take(&mailbox, (0, 1, 9), t0 + STALE),
            Take::Pending(_)
        ));
        assert!(matches!(
            take(&mailbox, (0, 1, 9), t0 + STALE + MS),
            Take::Gone
        ));
    }

    #[test]
    fn goodbye_leaves_queued_payloads_receivable() {
        let t0 = Instant::now();
        let (mailbox, mut input) = endpoint(t0);
        let mut stream = frame(FrameKind::Data, 0, 1, 9, 1, b"last");
        stream.extend(frame(FrameKind::Goodbye, 0, 1, 0, 2, &[]));
        // Bytes after a goodbye are never looked at.
        stream.extend([0xFF; 8]);
        input.on_bytes(&stream, t0, &mailbox);
        assert!(!input.is_open());
        assert!(!mailbox.lock().alive(1) && !mailbox.lock().dead(1));
        assert!(matches!(take(&mailbox, (0, 1, 9), t0), Take::Ready(_)));
        assert!(matches!(take(&mailbox, (0, 1, 9), t0), Take::Gone));
    }

    #[test]
    fn job_done_ends_one_namespace_and_a_retired_job_drops_late_frames() {
        let t0 = Instant::now();
        let (mailbox, mut input) = endpoint(t0);
        input.on_bytes(&frame(FrameKind::Data, 3, 1, 2, 1, b"early"), t0, &mailbox);
        input.on_bytes(&frame(FrameKind::JobDone, 3, 1, 0, 2, &[]), t0, &mailbox);
        assert!(matches!(take(&mailbox, (3, 1, 2), t0), Take::Ready(_)));
        assert!(matches!(take(&mailbox, (3, 1, 2), t0), Take::Gone));
        // Another job on the same warm link is untouched.
        assert!(matches!(take(&mailbox, (4, 1, 2), t0), Take::Pending(_)));
        mailbox.lock().purge_job(3);
        input.on_bytes(&frame(FrameKind::Data, 3, 1, 2, 3, b"late"), t0, &mailbox);
        input.on_bytes(&frame(FrameKind::JobDone, 3, 1, 0, 4, &[]), t0, &mailbox);
        assert!(mailbox.lock().queues.keys().all(|k| k.0 != 3));
        assert!(matches!(take(&mailbox, (3, 1, 2), t0), Take::Pending(_)));
        assert!(input.is_open() && mailbox.lock().alive(1));
    }

    #[test]
    fn beats_come_due_once_per_interval() {
        let t0 = Instant::now();
        let mut beats = Beats {
            interval: 200 * MS,
            last: t0,
        };
        assert_eq!(beats.next_due(), t0 + 200 * MS);
        assert!(!beats.due(t0 + 199 * MS));
        assert!(beats.due(t0 + 200 * MS));
        assert!(!beats.due(t0 + 201 * MS), "the interval restarted");
        assert_eq!(beats.next_due(), t0 + 400 * MS);
        // A late wake-up owes one beat, not a burst.
        assert!(beats.due(t0 + 5000 * MS));
        assert!(!beats.due(t0 + 5001 * MS));
        assert_eq!(beats.next_due(), t0 + 5200 * MS);
    }

    /// An I/O pass over three links to peers 1..=3 whose writers do what
    /// `next` says, beating every `BEAT` from `t0`.
    fn io_pass(t0: Instant, next: [Next; 3]) -> IoPass<Hand> {
        let mailbox = Arc::new(Mailbox::new(4, t0, Hand));
        let sink = |next| Sink {
            bytes: Vec::new(),
            next,
        };
        let links = (1..=3)
            .map(|j| (j, Arc::new(PeerLink::new(sink(next[j - 1])))))
            .collect();
        let reads = (1..=3).map(|j| (sink(Next::Take), PeerInput::new(j)));
        IoPass {
            reads: reads.collect(),
            links,
            mailbox,
            beats: Beats {
                interval: BEAT,
                last: t0,
            },
            rank: 0,
        }
    }

    #[test]
    fn a_due_beat_skips_a_busy_or_full_writer_and_kills_a_broken_one() {
        let t0 = Instant::now();
        let mut io = io_pass(t0, [Next::Take, Next::Full, Next::Break]);
        let sent = |io: &IoPass<Hand>, j: usize| {
            let link = &io.links[j - 1].1;
            link.writer.try_lock().map(|w| w.bytes.len()).unwrap_or(0)
        };
        io.pass(&[false; 3], t0 + BEAT - MS);
        assert_eq!(sent(&io, 1), 0, "no beat before it is due");
        // Peer 1's writer is held by a data sender: skipped, not waited on.
        let busy = io.links[0].1.clone();
        let held = busy.writer.lock().expect("free");
        io.pass(&[false; 3], t0 + BEAT);
        drop(held);
        assert_eq!(sent(&io, 1), 0);
        let m = io.mailbox.lock();
        assert!(m.alive(1) && m.alive(2), "busy and full are not dead");
        assert!(m.dead(3), "a broken writer is");
        drop(m);
        io.pass(&[false; 3], t0 + 2 * BEAT);
        assert_eq!(sent(&io, 1), crate::wire::HEADER_LEN, "the next beat goes");
        let beat = Frame::decode(&io.links[0].1.writer.lock().expect("free").bytes);
        assert_eq!(beat.expect("one frame").0.kind, FrameKind::Heartbeat);
    }

    #[test]
    fn a_pass_reads_only_the_links_the_driver_found_readable() {
        let t0 = Instant::now();
        let mut io = io_pass(t0, [Next::Take; 3]);
        io.pass(&[false, true, false], t0 + MS);
        let m = io.mailbox.lock();
        let seen: Vec<Instant> = (1..=3).map(|j| m.peers[j].last_seen).collect();
        assert_eq!(seen, [t0, t0 + MS, t0], "only link 2 was read");
    }

    #[test]
    fn hello_binds_each_higher_index_once_and_refuses_the_rest() {
        let (rank, size) = (1, 4);
        let greet = |kind, src, dst| Frame::control(kind, src, dst, 0);
        let none = |_| false;
        assert_eq!(
            hello(&greet(FrameKind::Hello, 3, 1), rank, size, none),
            Ok(3)
        );
        let refused = [
            ("not a hello", greet(FrameKind::Data, 3, 1), 3),
            ("another destination", greet(FrameKind::Hello, 3, 2), 3),
            ("a lower index", greet(FrameKind::Hello, 0, 1), 0),
            ("itself", greet(FrameKind::Hello, 1, 1), 1),
            ("past the mesh", greet(FrameKind::Hello, 4, 1), 4),
            ("already linked", greet(FrameKind::Hello, 2, 1), 2),
        ];
        for (what, frame, j) in refused {
            match hello(&frame, rank, size, |k| k == 2) {
                Err(NetError::Protocol(m)) => {
                    assert!(
                        m.starts_with(&format!("bad hello from rank {j} ")),
                        "{what}: {m}"
                    )
                }
                other => panic!("{what}: {other:?}"),
            }
        }
    }
}
