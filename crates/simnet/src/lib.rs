//! # sage-simnet
//!
//! A seeded, deterministic simulator of the TCP mesh, for tests: no crate
//! takes it but under `[dev-dependencies]`.
//!
//! [`SimNet`] implements `sage-net`'s [`Driver`] and nothing the mesh
//! decides. Establishment, Hello validation, the I/O pass, the receive and
//! send verdicts and every `JobTransport` run unchanged on top of it, as do
//! the real executor and the fleet's `run_fleet_job` and `SchedState` above
//! them. What it replaces is the world:
//!
//! * a **virtual clock** that moves only when the simulator says so;
//! * **one byte pipe per link direction** with a finite send buffer: a
//!   write past it is `WouldBlock`, and written bytes arrive only when a
//!   step delivers them, in chunks the seed sizes — headers arrive partial,
//!   payloads split;
//! * **one runnable thread at a time**: every establishing endpoint, I/O
//!   pass and rank is a real OS thread, but it holds the one baton between
//!   two driver calls that wait (park, wait writable, wait readable,
//!   accept), and gives it back to the simulator there.
//!
//! Each [`step`](SimNet::step) the seed picks one enabled choice: resume a
//! runnable thread, deliver a chunk on a pipe, or let time pass (a few
//! hundred microseconds of jitter, which moves the beats, or — with
//! nothing else enabled — straight to the next timer). Faults come from the
//! seed too: an endpoint killed at a step it picks ([`SimNet::kill_within`])
//! and one bit flipped in a delivered chunk ([`SimNet::corrupt_within`]).
//! The same seed takes the same steps; [`SimNet::trace`] hashes every choice.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage_net::{Driver, MeshCore, NetConfig, NetError};
use std::cell::Cell;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bytes a pipe holds, written and not yet read, before a write is refused.
const SEND_BUFFER: usize = 64 * 1024;

/// Steps [`SimNet::run`] takes before it calls the run a hang.
const STEP_BUDGET: u64 = 4_000_000;

/// How long a resumed thread may run before the simulator calls it stuck
/// on something it cannot see (a lock held by a thread that is waiting).
const WATCHDOG: Duration = Duration::from_secs(300);

/// One in sixteen steps lets a little time pass even while other choices
/// are enabled, by up to this much.
const JITTER_US: u64 = 500;

thread_local! {
    /// The simulator (by address) and thread index of a simulated thread.
    static CURRENT: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// What a simulated thread waits for.
enum Wait {
    Ready,
    Running,
    /// A receiver parked on `endpoint`'s mailbox.
    Parked {
        endpoint: usize,
        until: Duration,
    },
    /// A writer waiting for room in `pipe`.
    Writable {
        pipe: usize,
    },
    /// A reader waiting for one of `pipes`, `until`, or `endpoint` to stop.
    Readable {
        endpoint: usize,
        pipes: Vec<usize>,
        until: Duration,
    },
    /// An establishing endpoint waiting for a higher index to dial it.
    Accepting {
        endpoint: usize,
        until: Duration,
    },
    Done,
}

struct Thread {
    /// Notified when this thread is handed the baton.
    cv: Arc<Condvar>,
    wait: Wait,
    /// An I/O pass: runs until its endpoint stops, and does not hold up
    /// [`SimNet::run`].
    daemon: bool,
    os: Option<JoinHandle<()>>,
}

/// One direction of one link.
struct Pipe {
    from: usize,
    to: usize,
    /// Written, not yet delivered.
    sent: VecDeque<u8>,
    /// Delivered, not yet read.
    arrived: VecDeque<u8>,
    /// The writing end is closed or its endpoint dead: once `sent` is
    /// delivered and read, the stream has ended.
    writer_gone: bool,
    /// The reading end is closed or its endpoint dead: writes fail.
    reader_gone: bool,
}

impl Pipe {
    fn readable(&self) -> bool {
        !self.arrived.is_empty() || (self.writer_gone && self.sent.is_empty()) || self.reader_gone
    }

    fn writable(&self) -> bool {
        self.sent.len() + self.arrived.len() < SEND_BUFFER || self.writer_gone || self.reader_gone
    }
}

#[derive(Default)]
struct Endpoint {
    stopped: bool,
    dead: bool,
    /// Dialed links not yet accepted: the acceptor's (read, write) pipes.
    backlog: VecDeque<(usize, usize)>,
}

/// One choice of one step.
#[derive(Clone, Copy)]
enum Choice {
    Resume(usize),
    Deliver(usize),
    Jitter(Duration),
    Jump(Duration),
}

struct World {
    rng: StdRng,
    base: Instant,
    clock: Duration,
    steps: u64,
    trace: u64,
    /// The thread holding the baton; `None`: the simulator.
    running: Option<usize>,
    threads: Vec<Thread>,
    pipes: Vec<Pipe>,
    endpoints: Vec<Endpoint>,
    /// An endpoint to kill, and the step to kill it at.
    kill: Option<(usize, u64)>,
    /// The first delivery at or after this step flips one bit.
    corrupt: Option<u64>,
}

impl World {
    fn at(&self, instant: Instant) -> Duration {
        instant.saturating_duration_since(self.base)
    }

    fn runnable(&self, thread: &Thread) -> bool {
        match &thread.wait {
            Wait::Ready => true,
            Wait::Running | Wait::Done => false,
            Wait::Parked { until, .. } => self.clock >= *until,
            Wait::Writable { pipe } => self.pipes[*pipe].writable(),
            Wait::Readable {
                endpoint,
                pipes,
                until,
            } => {
                self.endpoints[*endpoint].stopped
                    || self.clock >= *until
                    || pipes.iter().any(|&p| self.pipes[p].readable())
            }
            Wait::Accepting { endpoint, until } => {
                !self.endpoints[*endpoint].backlog.is_empty() || self.clock >= *until
            }
        }
    }

    fn timer(thread: &Thread) -> Option<Duration> {
        match thread.wait {
            Wait::Parked { until, .. }
            | Wait::Readable { until, .. }
            | Wait::Accepting { until, .. } => Some(until),
            _ => None,
        }
    }

    /// Whether every thread but the I/O passes has finished.
    fn finished(&self) -> bool {
        (self.threads.iter()).all(|t| t.daemon || matches!(t.wait, Wait::Done))
    }

    fn new_pipe(&mut self, from: usize, to: usize) -> usize {
        self.pipes.push(Pipe {
            from,
            to,
            sent: VecDeque::new(),
            arrived: VecDeque::new(),
            writer_gone: false,
            reader_gone: false,
        });
        self.pipes.len() - 1
    }

    /// Moves a seed-sized chunk of `pipe`'s written bytes to its reader.
    fn deliver(&mut self, pipe: usize) -> u64 {
        let waiting = self.pipes[pipe].sent.len();
        let n = match self.rng.random_range(0..4u8) {
            0 => self.rng.random_range(1..=64usize),
            1 => self.rng.random_range(1..=4096usize),
            _ => waiting,
        }
        .min(waiting);
        let mut flip = None;
        if self.corrupt.is_some_and(|at| self.steps >= at) {
            self.corrupt = None;
            flip = Some((self.rng.random_range(0..n), self.rng.random_range(0..8u32)));
        }
        let p = &mut self.pipes[pipe];
        let start = p.arrived.len();
        p.arrived.extend(p.sent.drain(..n));
        if let Some((at, bit)) = flip {
            p.arrived[start + at] ^= 1 << bit;
            return (1 << 40) | ((at as u64) << 8) | u64::from(bit);
        }
        n as u64
    }

    /// A crash: `endpoint` stops, what it had in flight is lost, and every
    /// link it has breaks under it — its peers read the end of its streams
    /// and their writes fail.
    fn kill(&mut self, endpoint: usize) {
        let e = &mut self.endpoints[endpoint];
        e.dead = true;
        e.stopped = true;
        for p in &mut self.pipes {
            if p.to == endpoint {
                p.reader_gone = true;
                p.sent.clear();
                p.arrived.clear();
            }
            if p.from == endpoint {
                p.writer_gone = true;
                p.sent.clear();
            }
        }
    }
}

struct Shared {
    world: Mutex<World>,
    /// The simulator waits here while a thread holds the baton.
    turn: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, World> {
        self.world.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The simulator's own index of the calling thread.
    fn me(&self) -> usize {
        let id = self as *const Shared as usize;
        match CURRENT.with(Cell::get) {
            Some((sim, me)) if sim == id => me,
            _ => panic!("a SimNet wait on a thread the simulator did not start"),
        }
    }

    /// Hands the baton back from the calling thread, which then waits for
    /// `wait` and for the simulator to resume it.
    fn block<'a>(&'a self, mut w: MutexGuard<'a, World>, wait: Wait) -> MutexGuard<'a, World> {
        let me = self.me();
        w.threads[me].wait = wait;
        w.running = None;
        self.turn.notify_one();
        let cv = w.threads[me].cv.clone();
        cv.wait_while(w, |w| w.running != Some(me))
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn spawn<T: Send + 'static>(
        self: &Arc<Shared>,
        daemon: bool,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Handle<T> {
        let slot = Arc::new(Mutex::new(None));
        let mut w = self.lock();
        let me = w.threads.len();
        let cv = Arc::new(Condvar::new());
        w.threads.push(Thread {
            cv: cv.clone(),
            wait: Wait::Ready,
            daemon,
            os: None,
        });
        let (shared, out) = (self.clone(), slot.clone());
        let body = move || {
            CURRENT.with(|c| c.set(Some((Arc::as_ptr(&shared) as usize, me))));
            let w = shared.lock();
            drop(cv.wait_while(w, |w| w.running != Some(me)));
            let result = catch_unwind(AssertUnwindSafe(f));
            *out.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            let mut w = shared.lock();
            w.threads[me].wait = Wait::Done;
            w.running = None;
            shared.turn.notify_one();
        };
        let name = format!("simnet-{me}");
        let os = std::thread::Builder::new().name(name).spawn(body);
        w.threads[me].os = Some(os.expect("the OS starts a simulated thread"));
        Handle { slot }
    }

    /// Takes one step; `false` if nothing is enabled (with `time`, not
    /// even a timer).
    fn step(&self, time: bool) -> bool {
        let mut w = self.lock();
        if let Some((endpoint, at)) = w.kill {
            if w.steps >= at {
                w.kill = None;
                w.kill(endpoint);
                w.trace = mix(w.trace, 5 << 56 | endpoint as u64);
            }
        }
        let ready: Vec<usize> = (0..w.threads.len())
            .filter(|&t| w.runnable(&w.threads[t]))
            .collect();
        let pipes: Vec<usize> = (0..w.pipes.len())
            .filter(|&p| !w.pipes[p].sent.is_empty() && !w.pipes[p].reader_gone)
            .collect();
        let enabled = ready.len() + pipes.len();
        let choice = if enabled == 0 {
            let next = w.threads.iter().filter_map(World::timer).min();
            match next {
                Some(next) if time => Choice::Jump(next.max(w.clock)),
                _ => return false,
            }
        } else if time && w.rng.random_range(0..16u8) == 0 {
            Choice::Jitter(Duration::from_micros(w.rng.random_range(1..=JITTER_US)))
        } else {
            let i = w.rng.random_range(0..enabled);
            match ready.get(i) {
                Some(&t) => Choice::Resume(t),
                None => Choice::Deliver(pipes[i - ready.len()]),
            }
        };
        w.steps += 1;
        let code = match choice {
            Choice::Resume(t) => 1 << 56 | t as u64,
            Choice::Deliver(p) => 2 << 56 | (p as u64) << 48 | w.deliver(p),
            Choice::Jitter(d) => {
                w.clock += d;
                3 << 56 | d.as_nanos() as u64
            }
            Choice::Jump(at) => {
                w.clock = at;
                4 << 56 | at.as_nanos() as u64
            }
        };
        w.trace = mix(w.trace, code);
        if let Choice::Resume(t) = choice {
            w.running = Some(t);
            w.threads[t].wait = Wait::Running;
            w.threads[t].cv.notify_one();
            let (w, waited) = (self.turn)
                .wait_timeout_while(w, WATCHDOG, |w| w.running.is_some())
                .unwrap_or_else(PoisonError::into_inner);
            assert!(
                !waited.timed_out(),
                "simulated thread {t} neither waited nor finished in {WATCHDOG:?}"
            );
            drop(w);
        }
        true
    }
}

/// One FNV-1a-style step of the trace hash.
fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

/// A simulated thread's result, once it has finished.
pub struct Handle<T> {
    slot: Arc<Mutex<Option<std::thread::Result<T>>>>,
}

impl<T> Handle<T> {
    /// Whether the thread has finished.
    pub fn is_finished(&self) -> bool {
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    /// The thread's result; its panic, if it panicked.
    pub fn join(self) -> T {
        let done = self
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        match done {
            Some(Ok(value)) => value,
            Some(Err(panic)) => resume_unwind(panic),
            None => panic!("joined a simulated thread that has not finished"),
        }
    }
}

/// The simulator: its clock, pipes, endpoints and threads, and the seed
/// that picks every step. Dropping it stops every endpoint, runs what is
/// left to its end and joins the threads.
pub struct SimNet {
    shared: Arc<Shared>,
}

impl SimNet {
    /// An empty world whose every choice comes from `seed`.
    pub fn new(seed: u64) -> SimNet {
        let world = World {
            rng: StdRng::seed_from_u64(seed),
            base: Instant::now(),
            clock: Duration::ZERO,
            steps: 0,
            trace: 0xcbf2_9ce4_8422_2325,
            running: None,
            threads: Vec::new(),
            pipes: Vec::new(),
            endpoints: Vec::new(),
            kill: None,
            corrupt: None,
        };
        SimNet {
            shared: Arc::new(Shared {
                world: Mutex::new(world),
                turn: Condvar::new(),
            }),
        }
    }

    /// Brings up an `n`-endpoint mesh — `MeshCore::establish` on each
    /// endpoint's own simulated thread, then each one's I/O pass on another
    /// — and returns its cores in mesh order.
    pub fn mesh(&self, n: usize, config: NetConfig) -> Vec<Arc<MeshCore<SimDriver>>> {
        let first = {
            let mut w = self.shared.lock();
            let first = w.endpoints.len();
            w.endpoints.extend((0..n).map(|_| Endpoint::default()));
            first
        };
        let establishing: Vec<_> = (0..n)
            .map(|rank| {
                let (shared, config) = (self.shared.clone(), config.clone());
                self.shared.spawn(false, move || {
                    let endpoint = first + rank;
                    let driver = SimDriver {
                        shared: shared.clone(),
                        endpoint,
                    };
                    let dial = |j| Ok(shared.dial(endpoint, first + j));
                    let accept = |deadline| shared.accept(endpoint, deadline);
                    let (core, io) = MeshCore::establish(rank, n, driver, config, dial, accept)?;
                    shared.spawn(true, move || io.run());
                    Ok::<_, NetError>(core)
                })
            })
            .collect();
        self.run();
        let cores = establishing.into_iter().map(Handle::join);
        cores
            .map(|c| c.expect("the simulated mesh comes up"))
            .collect()
    }

    /// Starts `f` on a simulated thread; it runs only when steps resume it.
    pub fn spawn<T: Send + 'static>(&self, f: impl FnOnce() -> T + Send + 'static) -> Handle<T> {
        self.shared.spawn(false, f)
    }

    /// Takes one step; `false` once nothing can ever happen again: every
    /// thread has finished, or waits with no timer set.
    pub fn step(&self) -> bool {
        self.shared.step(true)
    }

    /// Steps until every thread but the I/O passes has finished.
    ///
    /// # Panics
    ///
    /// Past the step budget, or when the threads left wait on nothing that
    /// can happen: the run has hung.
    pub fn run(&self) {
        while !self.shared.lock().finished() {
            assert!(
                self.steps() < STEP_BUDGET,
                "hang: {STEP_BUDGET} steps and the run has not ended"
            );
            assert!(self.step(), "hang: every thread waits on nothing to come");
        }
    }

    /// Steps while anything but the clock can move: every byte written is
    /// delivered and read, and every thread waits on a timer or has ended.
    pub fn settle(&self) {
        while self.shared.step(false) {}
    }

    /// Kills `endpoint` (of the meshes built, in order) at a step the seed
    /// picks among the next `within`: it stops, what it had in flight is
    /// lost, and its links break under its peers.
    pub fn kill_within(&self, endpoint: usize, within: u64) {
        let mut w = self.shared.lock();
        let at = w.steps + w.rng.random_range(1..=within.max(1));
        w.kill = Some((endpoint, at));
    }

    /// Flips one bit of the first chunk delivered at a step the seed picks
    /// among the next `within`.
    pub fn corrupt_within(&self, within: u64) {
        let mut w = self.shared.lock();
        let at = w.steps + w.rng.random_range(1..=within.max(1));
        w.corrupt = Some(at);
    }

    /// Whether `endpoint` has been killed.
    pub fn is_dead(&self, endpoint: usize) -> bool {
        self.shared.lock().endpoints[endpoint].dead
    }

    /// The virtual clock.
    pub fn now(&self) -> Instant {
        let w = self.shared.lock();
        w.base + w.clock
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.shared.lock().steps
    }

    /// A hash of every choice taken so far.
    pub fn trace(&self) -> u64 {
        self.shared.lock().trace
    }
}

impl Drop for SimNet {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // A failed run: leave its threads where they wait.
            return;
        }
        {
            let mut w = self.shared.lock();
            w.endpoints.iter_mut().for_each(|e| e.stopped = true);
        }
        for _ in 0..STEP_BUDGET {
            if self
                .shared
                .lock()
                .threads
                .iter()
                .all(|t| matches!(t.wait, Wait::Done))
            {
                break;
            }
            if !self.shared.step(true) {
                break;
            }
        }
        let finished: Vec<JoinHandle<()>> = {
            let mut w = self.shared.lock();
            let done = w
                .threads
                .iter_mut()
                .filter(|t| matches!(t.wait, Wait::Done));
            done.filter_map(|t| t.os.take()).collect()
        };
        for os in finished {
            let _ = os.join();
        }
    }
}

impl Shared {
    /// A new link from endpoint `from` to `to`: `from`'s halves now, `to`'s
    /// in its accept backlog.
    fn dial(self: &Arc<Shared>, from: usize, to: usize) -> (SimLink, SimLink) {
        let (out, back) = {
            let mut w = self.lock();
            let (out, back) = (w.new_pipe(from, to), w.new_pipe(to, from));
            w.endpoints[to].backlog.push_back((out, back));
            (out, back)
        };
        (self.link(back, true), self.link(out, false))
    }

    /// The next link dialed to `endpoint`, waiting for one until `deadline`.
    fn accept(
        self: &Arc<Shared>,
        endpoint: usize,
        deadline: Instant,
    ) -> Result<(SimLink, SimLink), NetError> {
        let mut w = self.lock();
        let until = w.at(deadline);
        loop {
            if let Some((read, write)) = w.endpoints[endpoint].backlog.pop_front() {
                drop(w);
                return Ok((self.link(read, true), self.link(write, false)));
            }
            if w.clock >= until {
                return Err(NetError::Io("mesh establishment timed out".into()));
            }
            w = self.block(w, Wait::Accepting { endpoint, until });
        }
    }

    fn link(self: &Arc<Shared>, pipe: usize, reads: bool) -> SimLink {
        SimLink {
            shared: self.clone(),
            pipe,
            reads,
        }
    }
}

/// One endpoint's view of the simulator: the [`Driver`] its mesh runs
/// under.
pub struct SimDriver {
    shared: Arc<Shared>,
    endpoint: usize,
}

impl Driver for SimDriver {
    type Link = SimLink;

    fn now(&self) -> Instant {
        let w = self.shared.lock();
        w.base + w.clock
    }

    fn park<'a, S>(
        &self,
        lock: &'a Mutex<S>,
        held: MutexGuard<'a, S>,
        until: Instant,
    ) -> LockResult<MutexGuard<'a, S>> {
        drop(held);
        let w = self.shared.lock();
        let (endpoint, until) = (self.endpoint, w.at(until));
        drop(self.shared.block(w, Wait::Parked { endpoint, until }));
        lock.lock()
    }

    fn unpark(&self) {
        let mut w = self.shared.lock();
        for t in &mut w.threads {
            if matches!(t.wait, Wait::Parked { endpoint, .. } if endpoint == self.endpoint) {
                t.wait = Wait::Ready;
            }
        }
    }

    fn wait_writable(&self, link: &SimLink) -> io::Result<()> {
        let w = self.shared.lock();
        drop(self.shared.block(w, Wait::Writable { pipe: link.pipe }));
        Ok(())
    }

    fn wait_readable(
        &self,
        links: &[&SimLink],
        ready: &mut Vec<bool>,
        until: Instant,
    ) -> io::Result<bool> {
        let w = self.shared.lock();
        let (endpoint, until) = (self.endpoint, w.at(until));
        let pipes = links.iter().map(|l| l.pipe).collect();
        let w = self.shared.block(
            w,
            Wait::Readable {
                endpoint,
                pipes,
                until,
            },
        );
        ready.clear();
        ready.extend(links.iter().map(|l| w.pipes[l.pipe].readable()));
        Ok(!w.endpoints[endpoint].stopped)
    }

    fn stop(&self) {
        self.shared.lock().endpoints[self.endpoint].stopped = true;
    }
}

/// One half of a simulated link: the reading end of one pipe, or the
/// writing end of the other.
pub struct SimLink {
    shared: Arc<Shared>,
    pipe: usize,
    reads: bool,
}

impl Read for SimLink {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        debug_assert!(self.reads, "read from a link's write half");
        let mut w = self.shared.lock();
        let p = &mut w.pipes[self.pipe];
        if p.reader_gone {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        if p.arrived.is_empty() {
            return match p.writer_gone && p.sent.is_empty() {
                true => Ok(0),
                false => Err(io::ErrorKind::WouldBlock.into()),
            };
        }
        let n = buf.len().min(p.arrived.len());
        for (b, byte) in buf.iter_mut().zip(p.arrived.drain(..n)) {
            *b = byte;
        }
        Ok(n)
    }
}

impl Write for SimLink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        debug_assert!(!self.reads, "write to a link's read half");
        let mut w = self.shared.lock();
        let p = &mut w.pipes[self.pipe];
        if p.writer_gone || p.reader_gone {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let room = SEND_BUFFER.saturating_sub(p.sent.len() + p.arrived.len());
        if room == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = room.min(buf.len());
        p.sent.extend(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for SimLink {
    fn drop(&mut self) {
        let mut w = self.shared.lock();
        let p = &mut w.pipes[self.pipe];
        match self.reads {
            true => p.reader_gone = true,
            false => p.writer_gone = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_fabric::{FabricError, Payload, Transport};
    use sage_net::JobTransport;

    type Core = Arc<MeshCore<SimDriver>>;

    /// Rank 0 of job 1 pings rank 1 `rounds` times over a 2-mesh and each
    /// reply comes back; returns the trace and the virtual time taken.
    fn ping_pong(seed: u64, rounds: u8) -> (u64, Duration) {
        let sim = SimNet::new(seed);
        let cores = sim.mesh(2, NetConfig::default());
        let t0 = sim.now();
        let side = |core: &Core, rank: usize| JobTransport::new(core.clone(), 1, rank, vec![0, 1]);
        let (mut a, mut b) = (side(&cores[0], 0), side(&cores[1], 1));
        let ping = sim.spawn(move || {
            for k in 0..rounds {
                a.try_send(1, 7, &Payload::from_vec(vec![k; 70_000]))?;
                assert_eq!(a.try_recv(1, 8)?[..], [k; 3]);
            }
            Ok::<_, FabricError>(a.finish())
        });
        let pong = sim.spawn(move || {
            for k in 0..rounds {
                assert_eq!(b.try_recv(0, 7)?.len(), 70_000);
                b.try_send(0, 8, &Payload::from_vec(vec![k; 3]))?;
            }
            Ok::<_, FabricError>(b.finish())
        });
        sim.run();
        let (metrics, _) = ping.join().expect("ping");
        assert_eq!(metrics.messages_sent, u64::from(rounds));
        pong.join().expect("pong");
        (sim.trace(), sim.now() - t0)
    }

    #[test]
    fn the_same_seed_takes_the_same_steps_and_another_seed_others() {
        let runs: Vec<(u64, Duration)> = [3, 3, 4].iter().map(|&s| ping_pong(s, 6)).collect();
        assert_eq!(runs[0], runs[1]);
        assert_ne!(runs[0].0, runs[2].0);
    }

    #[test]
    fn a_killed_peer_fails_the_receive_typed_and_nothing_hangs() {
        for seed in 0..16 {
            let sim = SimNet::new(seed);
            let cores = sim.mesh(2, NetConfig::default());
            let mut t = JobTransport::new(cores[0].clone(), 1, 0, vec![0, 1]);
            let waiter = sim.spawn(move || t.try_recv(1, 3));
            sim.kill_within(1, 50);
            sim.run();
            let err = waiter.join().expect_err("the peer died");
            assert_eq!(err, FabricError::PeerFailed { node: 0, peer: 1 });
        }
    }

    #[test]
    fn purged_job_drops_late_frames() {
        let sim = SimNet::new(7);
        let cores = sim.mesh(2, NetConfig::default());
        let mut sender = JobTransport::new(cores[1].clone(), 3, 1, vec![0, 1]);
        cores[0].purge_job(3);
        let sent = sim.spawn(move || {
            sender.try_send(0, 2, &Payload::from(b"late"))?;
            Ok::<_, FabricError>(sender.finish())
        });
        sim.run();
        sent.join().expect("send");
        // Every byte written has been delivered and read: the frame has
        // been judged, and the retired job's queue never materialized.
        sim.settle();
        let mut late = JobTransport::new(cores[0].clone(), 3, 0, vec![0, 1]);
        assert!(
            !late.try_recv_ready(1, 2),
            "a frame for a retired job landed"
        );
    }
}
