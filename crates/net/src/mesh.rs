//! The mesh endpoint as a sans-I/O state machine.
//!
//! Everything an endpoint *decides* lives here: the per-link sequence and
//! job-0 source checks on each frame the [`wire`](crate::wire) assembler
//! completes, the `(job, src, tag)` mailbox, job retirement, liveness and
//! staleness verdicts, and when the next heartbeat is due. Its inputs are a
//! readable byte stream, its end and the time — always an argument, never
//! read — and its outputs are mailbox deliveries and peer-dead / peer-done
//! verdicts. Nothing in this module opens a socket, reads a clock or starts
//! a thread: [`transport`](crate::transport) owns those and turns them into
//! the events below, so every rule here is testable with hand-made bytes
//! and hand-made instants.
//!
//! | event | entry point | effect |
//! |---|---|---|
//! | a peer's stream is readable | [`PeerInput::on_readable`] | `last_seen` refreshed; a completed frame delivered (`Data` queued, `JobDone` recorded, `Goodbye` → done); EOF, read error, replay, wrong source, garbage → dead |
//! | the driver cannot read any more | [`PeerInput::on_closed`] | peer dead |
//! | a local send failed | [`Mailbox::mark_dead`] | peer dead |
//! | self-send | [`MeshState::enqueue`] | queued |
//! | a receiver asks at `now` | [`MeshState::take`] | payload, or pending / gone / stale (→ dead) |
//! | a job ends | [`MeshState::purge_job`] | queues dropped, id retired |
//! | the I/O thread wakes at `now` | [`Beats::due`], [`Beats::until_due`] | beat now, or how long to block |
//!
//! The state has two halves because two kinds of thread touch it. A
//! [`PeerInput`] (the frame in flight, last sequence number) belongs to
//! whoever reads that peer; the [`Mailbox`] is shared with every receiver
//! and is locked per delivery, never across a frame decode — checksumming
//! a large payload must not stall senders and receivers on the endpoint.
//! A delivery notifies the mailbox condvar itself, so a blocked receiver
//! wakes on the frame, not on a timer.

use crate::wire::{Assembler, Frame, FrameKind};
use sage_fabric::Payload;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

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

/// What a receiver finds when it asks for `(job, src, tag)` at some instant.
pub(crate) enum Take {
    /// The oldest queued payload.
    Ready(Payload),
    /// Nothing queued yet; the sender is alive and not finished.
    Pending,
    /// The sender is dead, said `Goodbye`, or finished this job: with its
    /// queue drained the receive can never complete.
    Gone,
    /// The sender has been silent past the staleness window and is now
    /// marked dead — `Gone`, plus a liveness timeout worth reporting.
    Stale,
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

    /// One receive attempt for `(job, src, tag)` at `now`. `mesh_src` names
    /// the mesh peer hosting logical `src`; `None` is a self-receive, which
    /// has no liveness to judge.
    pub(crate) fn take(
        &mut self,
        (job, src, tag): (u32, u32, u64),
        mesh_src: Option<usize>,
        now: Instant,
        stale_after: Duration,
    ) -> Take {
        let queued = self.queues.get_mut(&(job, src, tag));
        if let Some(payload) = queued.and_then(VecDeque::pop_front) {
            return Take::Ready(payload);
        }
        let Some(peer) = mesh_src else {
            return Take::Pending;
        };
        let p = &mut self.peers[peer];
        if p.dead || p.done || self.job_done.contains(&(job, src)) {
            // Mirrors the local cluster: a finished peer with an empty
            // queue can never satisfy this receive. A `JobDone` for this
            // namespace means the same thing job-locally, with the link
            // itself staying warm.
            return Take::Gone;
        }
        if now.saturating_duration_since(p.last_seen) > stale_after {
            p.dead = true;
            return Take::Stale;
        }
        Take::Pending
    }

    /// Whether a `(job, src, tag)` receive would complete immediately.
    pub(crate) fn ready(&self, job: u32, src: u32, tag: u64) -> bool {
        self.queues
            .get(&(job, src, tag))
            .is_some_and(|q| !q.is_empty())
    }

    /// Whether `peer` is presumed crashed.
    pub(crate) fn dead(&self, peer: usize) -> bool {
        self.peers[peer].dead
    }

    /// Whether `peer` may still send: neither dead nor done.
    #[cfg(test)]
    pub(crate) fn alive(&self, peer: usize) -> bool {
        let p = &self.peers[peer];
        !p.dead && !p.done
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

/// [`MeshState`] as the endpoint's threads share it: behind a lock, with
/// the condvar blocked receivers wait on.
pub(crate) struct Mailbox {
    inner: Mutex<MeshState>,
    /// Notified by every delivery and every verdict.
    pub(crate) cv: Condvar,
    /// Set when any thread panicked while holding the mailbox lock. The
    /// transport keeps functioning (metrics, shutdown, draining) but
    /// reports this endpoint as failed instead of cascading the panic
    /// into every caller thread.
    pub(crate) poisoned: AtomicBool,
}

impl Mailbox {
    /// An empty mailbox for a mesh of `size` endpoints, every peer last
    /// seen at `now`.
    pub(crate) fn new(size: usize, now: Instant) -> Mailbox {
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
            cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
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
        self.cv.notify_all();
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
/// large frame must not keep the one I/O thread from the other links.
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
    pub(crate) fn on_readable<R: Read>(&mut self, r: &mut R, now: Instant, mailbox: &Mailbox) {
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
    pub(crate) fn on_closed(&mut self, mailbox: &Mailbox) {
        self.open = false;
        mailbox.mark_dead(self.peer);
    }

    /// Judges one decoded frame and delivers it; `false` ends the link.
    fn on_frame(&mut self, frame: Frame, now: Instant, mailbox: &Mailbox) -> bool {
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
        mailbox.cv.notify_all();
        keep
    }
}

/// When heartbeats go out: one every `interval`, the first an interval
/// after the start.
pub(crate) struct Beats {
    interval: Duration,
    last: Instant,
}

impl Beats {
    /// A beat schedule starting at `now`.
    pub(crate) fn new(interval: Duration, now: Instant) -> Beats {
        Beats {
            interval,
            last: now,
        }
    }

    /// How long the I/O thread may block at `now` before a beat is due.
    pub(crate) fn until_due(&self, now: Instant) -> Duration {
        self.interval
            .saturating_sub(now.saturating_duration_since(self.last))
    }

    /// Whether a beat is due at `now`; a yes starts the next interval.
    pub(crate) fn due(&mut self, now: Instant) -> bool {
        let due = self.until_due(now).is_zero();
        if due {
            self.last = now;
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{write_parts, MAX_PAYLOAD};
    use proptest::prelude::*;

    const STALE: Duration = Duration::from_secs(2);
    const MS: Duration = Duration::from_millis(1);

    /// The wire bytes of one frame from mesh peer 1 to endpoint 0.
    fn frame(kind: FrameKind, job: u32, src: u32, tag: u64, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_parts(&mut bytes, kind, tag, src, 0, job, seq, payload).expect("encode");
        bytes
    }

    /// Endpoint 0 of a 2-mesh at `t0`, and its input from peer 1.
    fn endpoint(t0: Instant) -> (Mailbox, PeerInput) {
        (Mailbox::new(2, t0), PeerInput::new(1))
    }

    fn take(mailbox: &Mailbox, key: (u32, u32, u64), now: Instant) -> Take {
        mailbox.lock().take(key, Some(1), now, STALE)
    }

    /// Bytes as a nonblocking socket presents them: what has arrived, then
    /// `WouldBlock` — never end-of-stream.
    struct Arrived<'a>(&'a [u8]);

    impl Read for Arrived<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.0.read(buf)
        }
    }

    impl PeerInput {
        /// Event: exactly `bytes` arrived from the peer at `now` (as many
        /// readiness passes as it takes to hand them all over).
        pub(crate) fn on_bytes(&mut self, bytes: &[u8], now: Instant, mailbox: &Mailbox) {
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
            Take::Pending
        ));
        input.on_bytes(tail, t0 + 2 * STALE, &mailbox);
        match take(&mailbox, (0, 1, 9), t0 + 2 * STALE) {
            Take::Ready(p) => assert_eq!(&p[..], b"slow-big-frame"),
            _ => panic!("reassembled frame never landed"),
        }
        assert!(input.is_open());
    }

    #[test]
    fn silence_past_the_window_is_stale_and_one_tick_earlier_is_alive() {
        let t0 = Instant::now();
        let (mailbox, _input) = endpoint(t0);
        assert!(matches!(
            take(&mailbox, (0, 1, 3), t0 + STALE),
            Take::Pending
        ));
        assert!(mailbox.lock().alive(1));
        let tick = Duration::from_nanos(1);
        assert!(matches!(
            take(&mailbox, (0, 1, 3), t0 + STALE + tick),
            Take::Stale
        ));
        assert!(mailbox.lock().dead(1));
        // The verdict sticks: later asks see a dead peer, not a new timeout.
        assert!(matches!(take(&mailbox, (0, 1, 3), t0), Take::Gone));
        // A self-receive has no peer to judge.
        let own = mailbox.lock().take((0, 0, 3), None, t0 + 9 * STALE, STALE);
        assert!(matches!(own, Take::Pending));
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
    fn feed<'a>(pieces: impl IntoIterator<Item = &'a [u8]>) -> (Mailbox, PeerInput) {
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
    fn assert_same_outcome(got: &(Mailbox, PeerInput), whole: &(Mailbox, PeerInput), how: &str) {
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
            Take::Pending
        ));
        assert!(matches!(
            take(&mailbox, (0, 1, 9), t0 + STALE + MS),
            Take::Stale
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
        assert!(matches!(take(&mailbox, (4, 1, 2), t0), Take::Pending));
        mailbox.lock().purge_job(3);
        input.on_bytes(&frame(FrameKind::Data, 3, 1, 2, 3, b"late"), t0, &mailbox);
        input.on_bytes(&frame(FrameKind::JobDone, 3, 1, 0, 4, &[]), t0, &mailbox);
        assert!(mailbox.lock().queues.keys().all(|k| k.0 != 3));
        assert!(matches!(take(&mailbox, (3, 1, 2), t0), Take::Pending));
        assert!(input.is_open() && mailbox.lock().alive(1));
    }

    #[test]
    fn beats_come_due_once_per_interval() {
        let t0 = Instant::now();
        let mut beats = Beats::new(200 * MS, t0);
        assert_eq!(beats.until_due(t0 + 50 * MS), 150 * MS);
        assert!(!beats.due(t0 + 199 * MS));
        assert!(beats.due(t0 + 200 * MS));
        assert!(!beats.due(t0 + 201 * MS), "the interval restarted");
        assert_eq!(beats.until_due(t0 + 300 * MS), 100 * MS);
        // A late wake-up owes one beat, not a burst.
        assert!(beats.due(t0 + 5000 * MS));
        assert!(!beats.due(t0 + 5001 * MS));
        assert_eq!(beats.until_due(t0 + 9000 * MS), Duration::ZERO);
    }
}
