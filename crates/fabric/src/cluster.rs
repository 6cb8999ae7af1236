//! The threaded cluster: one OS thread per node, mailbox message passing,
//! pluggable time policy, deterministic fault injection.

use crate::clock::TimePolicy;
use crate::fault::{FabricError, FaultPlan, NodeFaultKind};
use crate::machine::{MachineSpec, Work};
use crate::metrics::{FabricMetrics, NodeMetrics};
use crate::payload::Payload;
use crate::transport::Transport;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A message in flight: payload plus its virtual arrival time at the
/// destination NIC (0 in real mode). The payload is reference-counted, so
/// delivery shares the sender's allocation instead of copying it.
struct Msg {
    payload: Payload,
    arrival: f64,
}

/// The mailbox key hasher: a fixed, unkeyed multiply per word with a
/// folded 128-bit finish. Keys come from the node programs, not from an
/// adversary, so SipHash's keying buys nothing. The fold matters: the
/// run-time's transfer tags keep their iteration and buffer fields at bits
/// 20 and up, which a plain multiply never carries down to the low bits
/// the table indexes by.
#[derive(Default)]
struct KeyHasher(u64);

/// The per-word multiplier (the 64-bit golden ratio).
const KEY_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// The finish's multiplier. A second constant: folding by `KEY_MUL` again
/// leaves keys that differ only in bits 40 and up with ~550 distinct low
/// 10-bit values per 1,024, where this one gives ~860.
const FOLD_MUL: u64 = 0xD6E8_FEB8_6659_FD93;

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(KEY_MUL);
    }

    fn finish(&self) -> u64 {
        let product = u128::from(self.0) * u128::from(FOLD_MUL);
        (product as u64) ^ (product >> 64) as u64
    }
}

/// What a [`Mailbox`]'s lock guards: FIFO queues keyed by `(source node,
/// tag)`, so receives that name their source are deterministic, and how
/// many receivers are parked on the condvar.
#[derive(Default)]
struct Queues {
    by_key: HashMap<(u32, u64), VecDeque<Msg>, BuildHasherDefault<KeyHasher>>,
    parked: u32,
}

/// One node's mailbox. A send wakes the receiver only if it is parked.
#[derive(Default)]
struct Mailbox {
    queues: Mutex<Queues>,
    cv: Condvar,
}

struct Shared {
    machine: MachineSpec,
    policy: TimePolicy,
    mailboxes: Vec<Mailbox>,
    epoch: Instant,
    recv_timeout: Duration,
    plan: FaultPlan,
    /// Per-node "hit its scheduled failure" flags.
    failed: Vec<AtomicBool>,
    /// Per-node "program returned (or unwound)" flags.
    done: Vec<AtomicBool>,
}

impl Shared {
    /// Wakes every blocked receiver so it can re-check the failure/done
    /// flags. Taking each mailbox lock before notifying closes the window
    /// between a receiver's flag check and its wait.
    fn wake_all(&self) {
        for mbox in &self.mailboxes {
            // A poisoned mailbox means a peer panicked mid-send; the
            // queues themselves are still structurally sound, and waking
            // the receivers is exactly how the failure propagates.
            let _guard = mbox.queues.lock().unwrap_or_else(PoisonError::into_inner);
            mbox.cv.notify_all();
        }
    }
}

/// The per-node execution context handed to node programs.
///
/// All communication and (in virtual mode) all time accounting flows through
/// this handle's [`Transport`] implementation — the only way a node talks.
/// In virtual mode the node's clock only moves through
/// [`Transport::compute`], [`Transport::advance`], sending (NIC
/// serialization) and receiving (waiting for the arrival time).
pub struct NodeCtx {
    id: usize,
    clock: f64,
    nic_free: f64,
    metrics: NodeMetrics,
    shared: Arc<Shared>,
    /// Program-order counter over non-self sends; feeds the seeded drop
    /// decision so faults are independent of thread interleaving.
    send_seq: u64,
    /// This node's scheduled stalls as `(at_secs, stall_secs, fired)`.
    stalls: Vec<(f64, f64, bool)>,
    /// Earliest scheduled failure time for this node, if any.
    fail_at: Option<f64>,
    /// Set once the scheduled failure has fired.
    failed_self: bool,
}

impl NodeCtx {
    /// This node's rank, `0..nodes()`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.shared.machine.node_count()
    }

    /// The machine description this cluster models.
    pub fn machine(&self) -> &MachineSpec {
        &self.shared.machine
    }

    /// The active time policy.
    pub fn policy(&self) -> TimePolicy {
        self.shared.policy
    }

    /// The node's current virtual clock (0-based; meaningless in real mode).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Fires any scheduled time faults the virtual clock has crossed:
    /// stalls freeze the node (charged as lost time), a crossed failure
    /// time marks the node failed and wakes all peers.
    fn apply_time_faults(&mut self) {
        if self.failed_self || !self.shared.policy.is_virtual() {
            return;
        }
        for (at, dur, fired) in &mut self.stalls {
            if !*fired && self.clock >= *at {
                *fired = true;
                self.clock += *dur;
                self.metrics.lost_secs += *dur;
                self.metrics.faults_observed += 1;
            }
        }
        if let Some(t) = self.fail_at {
            if self.clock >= t {
                self.failed_self = true;
                self.metrics.faults_observed += 1;
                self.shared.failed[self.id].store(true, Ordering::SeqCst);
                self.shared.wake_all();
            }
        }
    }
}

/// The local backend: every message and every virtual-time charge of a
/// node program goes through these methods.
impl Transport for NodeCtx {
    fn rank(&self) -> usize {
        self.id
    }

    fn size(&self) -> usize {
        self.nodes()
    }

    /// Wall time since the cluster epoch in real mode.
    fn now(&self) -> f64 {
        match self.shared.policy {
            TimePolicy::Virtual => self.clock,
            TimePolicy::Real => self.shared.epoch.elapsed().as_secs_f64(),
        }
    }

    /// Node programs that want typed fault handling call this at task
    /// boundaries; `try_send` and `try_recv` check it implicitly.
    fn check_failed(&mut self) -> Result<(), FabricError> {
        self.apply_time_faults();
        if self.failed_self {
            Err(FabricError::NodeFailed {
                node: self.id as u32,
            })
        } else {
            Ok(())
        }
    }

    fn compute(&mut self, work: Work) {
        if self.shared.policy.is_virtual() {
            let dt = self.shared.machine.work_secs(self.id, work);
            self.clock += dt;
            self.metrics.compute_secs += dt;
            self.apply_time_faults();
        }
    }

    fn advance(&mut self, secs: f64) {
        if self.shared.policy.is_virtual() {
            self.clock += secs;
            self.metrics.compute_secs += secs;
            self.apply_time_faults();
        }
    }

    fn advance_lost(&mut self, secs: f64) {
        if self.shared.policy.is_virtual() {
            self.clock += secs;
            self.metrics.lost_secs += secs;
            self.apply_time_faults();
        }
    }

    fn note_retry(&mut self) {
        self.metrics.retries += 1;
    }

    fn note_fault(&mut self) {
        self.metrics.faults_observed += 1;
    }

    fn note_mem_use(&mut self, bytes: u64) {
        self.metrics.mem_high_water = self.metrics.mem_high_water.max(bytes);
    }

    fn kernel_fault(&self, block: &str, iteration: u32, thread: u32) -> Option<String> {
        self.shared
            .plan
            .kernel_fault(block, iteration, thread)
            .map(|k| k.message.clone())
    }

    /// Virtual-mode cost model (LogP-style, deterministic): the message
    /// serializes through this node's NIC (`bytes / link bandwidth`, FIFO
    /// with this node's earlier sends) and arrives after the link latency.
    /// The sender is busy until injection completes. Self-sends are free
    /// buffer hand-offs. The mailbox keeps a reference-counted handle on
    /// `payload`, so delivery is an `Arc` bump rather than a byte copy.
    ///
    /// A dropped transfer still charges the sender's NIC serialization
    /// time (recorded as lost time): the bytes went out, nobody heard
    /// them. The payload is untouched, so callers may retry with the
    /// identical bytes.
    fn try_send(&mut self, dst: usize, tag: u64, payload: &Payload) -> Result<(), FabricError> {
        assert!(dst < self.nodes(), "send to node {dst} of {}", self.nodes());
        self.check_failed()?;
        let bytes = payload.len();
        let mut dropped = false;
        let mut busy = 0.0;
        let arrival = if !self.shared.policy.is_virtual() || dst == self.id {
            if dst != self.id {
                let seq = self.send_seq;
                self.send_seq += 1;
                dropped = self
                    .shared
                    .plan
                    .drops_transfer(self.id as u32, dst as u32, seq);
            }
            self.clock
        } else {
            let seq = self.send_seq;
            self.send_seq += 1;
            dropped = self
                .shared
                .plan
                .drops_transfer(self.id as u32, dst as u32, seq);
            let link = self.shared.machine.link(self.id, dst);
            let factor = self.shared.plan.link_factor(self.id as u32, dst as u32);
            let inject_start = self.clock.max(self.nic_free);
            busy = bytes as f64 / link.bandwidth * factor;
            self.nic_free = inject_start + busy;
            self.clock = self.nic_free;
            self.nic_free + link.latency
        };
        if dropped {
            self.metrics.transfers_dropped += 1;
            self.metrics.faults_observed += 1;
            self.metrics.lost_secs += busy;
            self.apply_time_faults();
            return Err(FabricError::TransferDropped {
                src: self.id as u32,
                dst: dst as u32,
                tag,
            });
        }
        self.metrics.messages_sent += 1;
        self.metrics.bytes_sent += bytes as u64;
        let mbox = &self.shared.mailboxes[dst];
        let mut queues = mbox.queues.lock().unwrap_or_else(PoisonError::into_inner);
        queues
            .by_key
            .entry((self.id as u32, tag))
            .or_default()
            .push_back(Msg {
                payload: payload.clone(),
                arrival,
            });
        // A receiver counts itself parked under this lock before it waits,
        // so one that is not counted yet will find the message queued.
        let parked = queues.parked > 0;
        drop(queues);
        if parked {
            mbox.cv.notify_all();
        }
        self.apply_time_faults();
        Ok(())
    }

    /// Returns the sender's reference-counted buffer directly out of the
    /// mailbox. In virtual mode the node's clock advances to the message's
    /// arrival time if it was still ahead. The deadline is the cluster's
    /// receive timeout (default 120 s of real time) — the standard symptom
    /// of a mismatched communication schedule.
    fn try_recv(&mut self, src: usize, tag: u64) -> Result<Payload, FabricError> {
        assert!(
            src < self.nodes(),
            "recv from node {src} of {}",
            self.nodes()
        );
        self.check_failed()?;
        let mbox = &self.shared.mailboxes[self.id];
        // Set on the first park: a message already queued reads no clock.
        let mut deadline = None;
        let mut queues = mbox.queues.lock().unwrap_or_else(PoisonError::into_inner);
        let msg = loop {
            if let Some(q) = queues.by_key.get_mut(&(src as u32, tag)) {
                if let Some(m) = q.pop_front() {
                    break m;
                }
            }
            // Queue empty: a dead or departed peer can never satisfy us.
            if src != self.id
                && (self.shared.failed[src].load(Ordering::SeqCst)
                    || self.shared.done[src].load(Ordering::SeqCst))
            {
                return Err(FabricError::PeerFailed {
                    node: self.id as u32,
                    peer: src as u32,
                });
            }
            let now = Instant::now();
            let deadline = *deadline.get_or_insert(now + self.shared.recv_timeout);
            if now >= deadline {
                return Err(FabricError::RecvTimeout {
                    node: self.id as u32,
                    src: src as u32,
                    tag,
                });
            }
            queues.parked += 1;
            let (guard, _timeout) = mbox
                .cv
                .wait_timeout(queues, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            queues = guard;
            queues.parked -= 1;
        };
        drop(queues);
        if self.shared.policy.is_virtual() && msg.arrival > self.clock {
            self.metrics.wait_secs += msg.arrival - self.clock;
            self.clock = msg.arrival;
        }
        self.metrics.messages_received += 1;
        self.metrics.bytes_received += msg.payload.len() as u64;
        self.apply_time_faults();
        Ok(msg.payload)
    }

    /// In virtual mode a queued message whose arrival time is still ahead
    /// of this node's clock counts as *not* ready — consuming it now would
    /// charge wait time, which is exactly what an overlapping scheduler is
    /// trying to avoid.
    fn try_recv_ready(&mut self, src: usize, tag: u64) -> bool {
        if src >= self.nodes() || self.failed_self {
            return false;
        }
        let mbox = &self.shared.mailboxes[self.id];
        let queues = mbox.queues.lock().unwrap_or_else(PoisonError::into_inner);
        match queues
            .by_key
            .get(&(src as u32, tag))
            .and_then(|q| q.front())
        {
            Some(m) => !self.shared.policy.is_virtual() || m.arrival <= self.clock,
            None => false,
        }
    }
}

/// Marks a node done (even on unwind) and wakes blocked peers so they
/// observe [`FabricError::PeerFailed`] instead of timing out.
struct DoneGuard<'a> {
    shared: &'a Shared,
    id: usize,
}

impl Drop for DoneGuard<'_> {
    fn drop(&mut self) {
        self.shared.done[self.id].store(true, Ordering::SeqCst);
        self.shared.wake_all();
    }
}

/// Summary of a cluster run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-node traffic/timing counters.
    pub metrics: FabricMetrics,
    /// Host wall-clock duration of the run.
    pub wall: Duration,
    /// Virtual makespan: the largest final node clock (0 in real mode).
    pub makespan: f64,
}

/// A multicomputer executing node programs.
pub struct Cluster {
    machine: MachineSpec,
    policy: TimePolicy,
    recv_timeout: Duration,
    faults: FaultPlan,
}

impl Cluster {
    /// Creates a cluster over `machine` with the given time policy.
    pub fn new(machine: MachineSpec, policy: TimePolicy) -> Cluster {
        Cluster {
            machine,
            policy,
            recv_timeout: Duration::from_secs(120),
            faults: FaultPlan::default(),
        }
    }

    /// Overrides the receive deadlock timeout (tests use short values).
    pub fn with_recv_timeout(mut self, t: Duration) -> Cluster {
        self.recv_timeout = t;
        self
    }

    /// Attaches a fault plan; an empty plan leaves every run bit-identical
    /// to a fault-free cluster.
    pub fn with_faults(mut self, plan: FaultPlan) -> Cluster {
        self.faults = plan;
        self
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.machine.node_count()
    }

    /// Runs `program` on every node concurrently (SPMD style: the program
    /// branches on [`NodeCtx::id`]), returning each node's result plus the
    /// run report.
    ///
    /// # Panics
    /// Propagates any node panic.
    pub fn run<R, F>(&self, program: F) -> (Vec<R>, RunReport)
    where
        R: Send,
        F: Fn(&mut NodeCtx) -> R + Sync,
    {
        let n = self.machine.node_count();
        let shared = Arc::new(Shared {
            machine: self.machine.clone(),
            policy: self.policy,
            mailboxes: (0..n).map(|_| Mailbox::default()).collect(),
            epoch: Instant::now(),
            recv_timeout: self.recv_timeout,
            plan: self.faults.clone(),
            failed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
        });
        let start = Instant::now();
        let mut results: Vec<(R, NodeMetrics)> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for id in 0..n {
                let shared = shared.clone();
                let program = &program;
                handles.push(scope.spawn(move || {
                    let mut stalls = Vec::new();
                    let mut fail_at: Option<f64> = None;
                    for f in &shared.plan.node_faults {
                        if f.node as usize != id {
                            continue;
                        }
                        match f.kind {
                            NodeFaultKind::StallAt {
                                at_secs,
                                stall_secs,
                            } => {
                                stalls.push((at_secs, stall_secs, false));
                            }
                            NodeFaultKind::FailAt { at_secs } => {
                                fail_at = Some(fail_at.map_or(at_secs, |t: f64| t.min(at_secs)));
                            }
                        }
                    }
                    let guard = DoneGuard {
                        shared: &shared,
                        id,
                    };
                    let mut ctx = NodeCtx {
                        id,
                        clock: 0.0,
                        nic_free: 0.0,
                        metrics: NodeMetrics::default(),
                        shared: shared.clone(),
                        send_seq: 0,
                        stalls,
                        fail_at,
                        failed_self: false,
                    };
                    let r = program(&mut ctx);
                    ctx.metrics.final_clock = ctx.clock;
                    drop(guard);
                    (r, ctx.metrics)
                }));
            }
            // Joining in spawn order keeps `results` indexed by node id.
            for h in handles {
                match h.join() {
                    Ok(r) => results.push(r),
                    // Re-raise with the original payload so callers see the
                    // node's own panic message (e.g. kernel errors).
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        let wall = start.elapsed();
        let mut rs = Vec::with_capacity(n);
        let mut metrics = FabricMetrics::default();
        for (r, m) in results {
            rs.push(r);
            metrics.nodes.push(m);
        }
        let makespan = metrics.makespan();
        (
            rs,
            RunReport {
                metrics,
                wall,
                makespan,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{LinkSpec, NodeSpec};
    use std::hash::BuildHasher;

    fn machine(n: usize) -> MachineSpec {
        MachineSpec::uniform(
            "test",
            n,
            NodeSpec {
                flops_per_sec: 1.0e9,
                mem_bw: 1.0e9,
            },
            LinkSpec {
                bandwidth: 1.0e8, // 100 MB/s
                latency: 10.0e-6,
            },
        )
    }

    /// Sends `bytes` as a fresh payload; a fault here is a test bug.
    fn send(ctx: &mut NodeCtx, dst: usize, tag: u64, bytes: &[u8]) {
        ctx.try_send(dst, tag, &Payload::from(bytes))
            .expect("fault-free send");
    }

    fn recv(ctx: &mut NodeCtx, src: usize, tag: u64) -> Payload {
        ctx.try_recv(src, tag).expect("fault-free recv")
    }

    #[test]
    fn ping_pong_real_mode() {
        let cluster = Cluster::new(machine(2), TimePolicy::Real);
        let (results, report) = cluster.run(|ctx| {
            if ctx.id() == 0 {
                send(ctx, 1, 7, b"ping");
                recv(ctx, 1, 8)
            } else {
                let m = recv(ctx, 0, 7);
                assert_eq!(m, b"ping");
                send(ctx, 0, 8, b"pong");
                m
            }
        });
        assert_eq!(results[0], b"pong");
        assert_eq!(report.metrics.total_messages(), 2);
        assert_eq!(report.metrics.total_bytes(), 8);
    }

    #[test]
    fn virtual_clock_advances_by_transfer_time() {
        let cluster = Cluster::new(machine(2), TimePolicy::Virtual);
        let (_, report) = cluster.run(|ctx| {
            if ctx.id() == 0 {
                send(ctx, 1, 0, &vec![0u8; 1_000_000]); // 1 MB at 100 MB/s = 10 ms
            } else {
                recv(ctx, 0, 0);
            }
        });
        let expected = 1.0e6 / 1.0e8 + 10.0e-6;
        assert!(
            (report.metrics.nodes[1].final_clock - expected).abs() < 1e-9,
            "got {}",
            report.metrics.nodes[1].final_clock
        );
        // Sender is only busy for the injection (no latency).
        assert!((report.metrics.nodes[0].final_clock - 0.01).abs() < 1e-9);
    }

    #[test]
    fn virtual_compute_charges() {
        let cluster = Cluster::new(machine(1), TimePolicy::Virtual);
        let (_, report) = cluster.run(|ctx| {
            ctx.compute(Work::flops(2.0e9)); // 2 s at 1 Gflop/s
            ctx.compute(Work::copy(500_000_000)); // 1 GB traffic at 1 GB/s
            ctx.advance(0.5);
        });
        assert!((report.makespan - 3.5).abs() < 1e-9);
        assert!((report.metrics.nodes[0].compute_secs - 3.5).abs() < 1e-9);
    }

    #[test]
    fn sender_nic_serializes_consecutive_sends() {
        let cluster = Cluster::new(machine(3), TimePolicy::Virtual);
        let (_, report) = cluster.run(|ctx| {
            if ctx.id() == 0 {
                send(ctx, 1, 0, &vec![0u8; 1_000_000]);
                send(ctx, 2, 0, &vec![0u8; 1_000_000]);
            } else {
                recv(ctx, 0, 0);
            }
        });
        // Second message waits for the first injection: arrival = 20ms + lat.
        let n2 = report.metrics.nodes[2].final_clock;
        assert!((n2 - (0.02 + 10.0e-6)).abs() < 1e-9, "got {n2}");
    }

    #[test]
    fn virtual_times_are_deterministic_across_runs() {
        let run_once = || {
            let cluster = Cluster::new(machine(4), TimePolicy::Virtual);
            let (_, report) = cluster.run(|ctx| {
                let me = ctx.id();
                let n = ctx.nodes();
                // All-to-all of 64 KB chunks with per-peer tags.
                for p in 0..n {
                    if p != me {
                        send(ctx, p, me as u64, &vec![me as u8; 65536]);
                    }
                }
                for p in 0..n {
                    if p != me {
                        let m = recv(ctx, p, p as u64);
                        assert_eq!(m[0], p as u8);
                    }
                }
                ctx.clock()
            });
            report
                .metrics
                .nodes
                .iter()
                .map(|m| m.final_clock)
                .collect::<Vec<_>>()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
    }

    #[test]
    fn fifo_order_per_src_tag() {
        let cluster = Cluster::new(machine(2), TimePolicy::Real);
        let (results, _) = cluster.run(|ctx| {
            if ctx.id() == 0 {
                for i in 0..10u8 {
                    send(ctx, 1, 5, &[i]);
                }
                0
            } else {
                let mut last = None;
                for _ in 0..10 {
                    let m = recv(ctx, 0, 5);
                    if let Some(prev) = last {
                        assert!(m[0] > prev);
                    }
                    last = Some(m[0]);
                }
                last.unwrap() as i32
            }
        });
        assert_eq!(results[1], 9);
    }

    #[test]
    fn self_send_is_free() {
        let cluster = Cluster::new(machine(1), TimePolicy::Virtual);
        let (_, report) = cluster.run(|ctx| {
            send(ctx, 0, 1, b"loop");
            let m = recv(ctx, 0, 1);
            assert_eq!(m, b"loop");
        });
        assert_eq!(report.makespan, 0.0);
    }

    #[test]
    fn recv_timeout_is_typed() {
        let cluster =
            Cluster::new(machine(1), TimePolicy::Real).with_recv_timeout(Duration::from_millis(50));
        let (results, _) = cluster.run(|ctx| ctx.try_recv(0, 42));
        assert_eq!(
            results[0],
            Err(FabricError::RecvTimeout {
                node: 0,
                src: 0,
                tag: 42
            })
        );
    }

    /// A receiver parked before the message exists is woken by the send,
    /// not by its deadline. The sender then waits for an acknowledgement,
    /// so its exit (which wakes every mailbox) cannot stand in for the
    /// send's own wake-up.
    #[test]
    fn a_send_wakes_a_parked_receiver() {
        let cluster =
            Cluster::new(machine(2), TimePolicy::Real).with_recv_timeout(Duration::from_secs(10));
        let (results, _) = cluster.run(|ctx| {
            if ctx.id() == 0 {
                let peer = &ctx.shared.mailboxes[1].queues;
                while peer.lock().unwrap().parked == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                std::thread::sleep(Duration::from_millis(50));
                send(ctx, 1, 3, b"late");
                assert_eq!(recv(ctx, 1, 4), b"ack");
                Duration::ZERO
            } else {
                let start = Instant::now();
                assert_eq!(recv(ctx, 0, 3), b"late");
                let woke = start.elapsed();
                send(ctx, 0, 4, b"ack");
                woke
            }
        });
        assert!(
            results[1] < Duration::from_secs(2),
            "woke after {:?}",
            results[1]
        );
    }

    /// This thread's voluntary context switches: one per park that slept.
    #[cfg(target_os = "linux")]
    fn sleeps() -> u64 {
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let field = (status.lines()).find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
        field.unwrap().trim().parse().unwrap()
    }

    /// A send wakes its destination and nobody else: node 2 stays parked
    /// through 4,000 messages between nodes 0 and 1, so it sleeps a handful
    /// of times (its one park, and a lock it may meet on the way out), not
    /// once per message.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_send_wakes_no_bystander() {
        const ROUNDS: u32 = 2_000;
        let cluster =
            Cluster::new(machine(3), TimePolicy::Real).with_recv_timeout(Duration::from_secs(10));
        let (results, _) = cluster.run(|ctx| match ctx.id() {
            0 => {
                let bystander = &ctx.shared.mailboxes[2].queues;
                while bystander.lock().unwrap().parked == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                for round in 0..ROUNDS {
                    send(ctx, 1, 1, &round.to_le_bytes());
                    recv(ctx, 1, 2);
                }
                send(ctx, 2, 3, b"done");
                0
            }
            1 => {
                for _ in 0..ROUNDS {
                    let m = recv(ctx, 0, 1);
                    send(ctx, 0, 2, &m);
                }
                0
            }
            _ => {
                let before = sleeps();
                assert_eq!(recv(ctx, 0, 3), b"done");
                sleeps() - before
            }
        });
        assert!(results[2] <= 8, "the bystander slept {} times", results[2]);
    }

    /// The mailbox map hashes with the fixed `KeyHasher`, never SipHash's
    /// keyed default: another hasher fails to compile here.
    #[test]
    fn the_mailbox_map_hashes_with_the_fixed_hasher() {
        let queues = Queues::default();
        let _: &BuildHasherDefault<KeyHasher> = queues.by_key.hasher();
    }

    /// Strict ping-pong parks a receiver on nearly every message, and a
    /// one-way burst queues behind a receiver that may or may not be
    /// parked: a lost wake-up surfaces as a typed `RecvTimeout`.
    #[test]
    fn ping_pong_and_a_burst_lose_no_wake_up() {
        const ROUNDS: u32 = 10_000;
        const BURST: u32 = 1_000;
        let cluster =
            Cluster::new(machine(2), TimePolicy::Real).with_recv_timeout(Duration::from_secs(5));
        let (results, report) = cluster.run(|ctx| -> Result<(), FabricError> {
            let (me, peer) = (ctx.id(), 1 - ctx.id());
            for round in 0..ROUNDS {
                let stamp = Payload::from(&round.to_le_bytes());
                if me == 0 {
                    ctx.try_send(peer, 1, &stamp)?;
                    assert_eq!(ctx.try_recv(peer, 2)?, stamp);
                } else {
                    assert_eq!(ctx.try_recv(peer, 1)?, stamp);
                    ctx.try_send(peer, 2, &stamp)?;
                }
            }
            for i in 0..BURST {
                let stamp = Payload::from(&i.to_le_bytes());
                if me == 0 {
                    ctx.try_send(peer, 9, &stamp)?;
                } else {
                    assert_eq!(ctx.try_recv(peer, 9)?, stamp, "FIFO order");
                }
            }
            Ok(())
        });
        assert_eq!(results, [Ok(()), Ok(())]);
        assert_eq!(
            report.metrics.total_messages(),
            u64::from(2 * ROUNDS + BURST)
        );
    }

    /// Distinct values among the low 10 bits of the mailbox hash of keys
    /// from node 0 whose tags are `field << shift` for 1,024 field values.
    fn low_bits_spread(shift: u32) -> usize {
        let hasher = BuildHasherDefault::<KeyHasher>::default();
        let lows: std::collections::HashSet<u64> = (0..1024u64)
            .map(|field| hasher.hash_one((0u32, field << shift)) & 1023)
            .collect();
        lows.len()
    }

    /// The run-time's transfer tags put the iteration at bits 20..40 and the
    /// buffer at bits 40 and up; the table indexes by the hash's low bits,
    /// so those must see both fields. 1,024 uniform draws into 1,024 bins
    /// fill ~647; an unfolded multiply fills 1.
    #[test]
    fn the_mailbox_hash_spreads_tag_fields_into_its_low_bits() {
        for (field, shift) in [("iteration", 20), ("buffer", 40)] {
            let spread = low_bits_spread(shift);
            assert!(spread >= 550, "{field} field: {spread} distinct low bits");
        }
    }

    #[test]
    fn wait_time_recorded() {
        let cluster = Cluster::new(machine(2), TimePolicy::Virtual);
        let (_, report) = cluster.run(|ctx| {
            if ctx.id() == 0 {
                ctx.compute(Work::flops(1.0e9)); // busy 1 s before sending
                send(ctx, 1, 0, b"x");
            } else {
                recv(ctx, 0, 0);
            }
        });
        assert!(report.metrics.nodes[1].wait_secs > 0.9);
    }

    // ---- fault injection ----

    /// The baseline all-to-all program used by the fault tests.
    fn exchange(ctx: &mut NodeCtx) -> f64 {
        let me = ctx.id();
        let n = ctx.nodes();
        for p in 0..n {
            if p != me {
                send(ctx, p, me as u64, &vec![me as u8; 65536]);
            }
        }
        for p in 0..n {
            if p != me {
                let m = recv(ctx, p, p as u64);
                assert_eq!(m[0], p as u8);
            }
        }
        ctx.clock()
    }

    #[test]
    fn empty_plan_is_bit_identical_to_no_plan() {
        let plain = Cluster::new(machine(4), TimePolicy::Virtual);
        let with_empty =
            Cluster::new(machine(4), TimePolicy::Virtual).with_faults(FaultPlan::new(1234));
        let (_, a) = plain.run(exchange);
        let (_, b) = with_empty.run(exchange);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    }

    #[test]
    fn dropped_send_charges_sender_and_errors() {
        let plan = FaultPlan::new(0).with_drop_prob(1.0); // every transfer drops
        let cluster = Cluster::new(machine(2), TimePolicy::Virtual).with_faults(plan);
        let (_, report) = cluster.run(|ctx| {
            if ctx.id() == 0 {
                let err = ctx.try_send(1, 0, &Payload::zeroed(1_000_000)).unwrap_err();
                assert_eq!(
                    err,
                    FabricError::TransferDropped {
                        src: 0,
                        dst: 1,
                        tag: 0
                    }
                );
            }
        });
        let m = &report.metrics.nodes[0];
        assert_eq!(m.transfers_dropped, 1);
        assert_eq!(m.messages_sent, 0);
        // NIC still serialized the doomed bytes: 1 MB at 100 MB/s = 10 ms.
        assert!((m.lost_secs - 0.01).abs() < 1e-9, "lost {}", m.lost_secs);
        assert!((m.final_clock - 0.01).abs() < 1e-9);
    }

    #[test]
    fn self_sends_never_drop() {
        let plan = FaultPlan::new(0).with_drop_prob(1.0);
        let cluster = Cluster::new(machine(1), TimePolicy::Virtual).with_faults(plan);
        cluster.run(|ctx| {
            ctx.try_send(0, 1, &Payload::from(b"loop"))
                .expect("self-send must not drop");
            assert_eq!(ctx.try_recv(0, 1).unwrap(), b"loop");
        });
    }

    #[test]
    fn degraded_link_slows_transfer() {
        let plan = FaultPlan::new(0).degrade_link(0, 1, 4.0);
        let cluster = Cluster::new(machine(2), TimePolicy::Virtual).with_faults(plan);
        let (_, report) = cluster.run(|ctx| {
            if ctx.id() == 0 {
                send(ctx, 1, 0, &vec![0u8; 1_000_000]);
            } else {
                recv(ctx, 0, 0);
            }
        });
        // 4x degradation: 40 ms serialization + latency.
        let expected = 4.0 * 1.0e6 / 1.0e8 + 10.0e-6;
        let got = report.metrics.nodes[1].final_clock;
        assert!((got - expected).abs() < 1e-9, "got {got}");
    }

    #[test]
    fn failed_node_errors_and_peers_see_peer_failed() {
        let plan = FaultPlan::new(0).fail_node(0, 0.5);
        let cluster = Cluster::new(machine(2), TimePolicy::Virtual).with_faults(plan);
        let (results, report) = cluster.run(|ctx| {
            if ctx.id() == 0 {
                ctx.compute(Work::flops(1.0e9)); // crosses fail-at = 0.5 s
                ctx.try_send(1, 0, &Payload::from(b"never"))
                    .map(|_| Payload::new())
            } else {
                ctx.try_recv(0, 0)
            }
        });
        assert_eq!(results[0], Err(FabricError::NodeFailed { node: 0 }));
        assert_eq!(
            results[1],
            Err(FabricError::PeerFailed { node: 1, peer: 0 })
        );
        assert_eq!(report.metrics.nodes[0].faults_observed, 1);
    }

    #[test]
    fn stall_charges_lost_time_once() {
        let plan = FaultPlan::new(0).stall_node(0, 0.5, 2.0);
        let cluster = Cluster::new(machine(1), TimePolicy::Virtual).with_faults(plan);
        let (_, report) = cluster.run(|ctx| {
            ctx.compute(Work::flops(1.0e9)); // 1 s, crosses the stall point
            ctx.compute(Work::flops(1.0e9)); // stall must not re-fire
        });
        let m = &report.metrics.nodes[0];
        assert!((m.lost_secs - 2.0).abs() < 1e-9, "lost {}", m.lost_secs);
        assert!(
            (m.final_clock - 4.0).abs() < 1e-9,
            "clock {}",
            m.final_clock
        );
        assert_eq!(m.faults_observed, 1);
    }

    #[test]
    fn done_peer_turns_missing_recv_into_typed_error() {
        let cluster = Cluster::new(machine(2), TimePolicy::Real);
        let (results, _) = cluster.run(|ctx| {
            if ctx.id() == 0 {
                Ok(Payload::new()) // exits immediately without sending
            } else {
                ctx.try_recv(0, 99)
            }
        });
        assert_eq!(
            results[1],
            Err(FabricError::PeerFailed { node: 1, peer: 0 })
        );
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let run_once = || {
            let plan = FaultPlan::new(42)
                .with_drop_prob(0.3)
                .degrade_link(0, 1, 2.0)
                .stall_node(2, 0.001, 0.01);
            let cluster = Cluster::new(machine(4), TimePolicy::Virtual).with_faults(plan);
            let (_, report) = cluster.run(|ctx| {
                let me = ctx.id();
                let n = ctx.nodes();
                for p in 0..n {
                    if p != me {
                        // Retry dropped sends until they get through.
                        let block = Payload::from_vec(vec![me as u8; 65536]);
                        while ctx.try_send(p, me as u64, &block).is_err() {
                            ctx.note_retry();
                            ctx.advance_lost(1.0e-4);
                        }
                    }
                }
                for p in 0..n {
                    if p != me {
                        let m = ctx.try_recv(p, p as u64).expect("peer alive");
                        assert_eq!(m[0], p as u8);
                    }
                }
            });
            report
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        let dropped: u64 = a.metrics.nodes.iter().map(|n| n.transfers_dropped).sum();
        let retries: u64 = a.metrics.nodes.iter().map(|n| n.retries).sum();
        assert!(dropped > 0, "p=0.3 over 12 transfers should drop something");
        assert_eq!(dropped, retries);
    }
}
