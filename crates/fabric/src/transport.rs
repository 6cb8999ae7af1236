//! The transport abstraction: what the upper layers (`sage-mpi`,
//! `sage-runtime`) need from a communication backend.
//!
//! The paper's run-time kernel ran over whatever fabric the target machine
//! provided (Myrinet on the CSPI testbed, RACEway on Mercury, ...); the
//! generated glue code never named the wire. [`Transport`] captures that
//! seam in this reproduction: point-to-point tagged messaging between
//! ranks, plus the timing/fault-accounting hooks the virtual-clock backend
//! uses. Two backends implement it:
//!
//! * **local** — [`crate::cluster::NodeCtx`]: one OS thread per rank inside
//!   one process, with the deterministic virtual clock and fault injection.
//!   Its `impl Transport` (in `cluster.rs`, beside the mailbox) *is* the
//!   node's messaging surface — `NodeCtx` has no inherent send or receive;
//! * **tcp** — `sage_net::JobTransport`: one job's rank namespace over a
//!   daemon's shared `MeshCore` (one daemon process per mesh endpoint,
//!   length-prefixed framed messages over real sockets);
//!   `sage_net::TcpTransport` is the same thing over a private one-job
//!   mesh, for tests and the wall-clock benchmark.
//!
//! The timing hooks ([`Transport::compute`], [`Transport::advance`], ...)
//! default to no-ops so real-time backends only implement the messaging
//! core; cost accounting then comes from the hardware itself, exactly as on
//! the original testbeds.
//!
//! Everything above the mailbox — the hand-coded baseline's all-to-all
//! (`sage_mpi::Communicator::try_alltoall`) and the SAGE run-time alike —
//! reaches its peers through this trait and nothing else, so the two sides
//! of Table 1.0 ride the same message path by construction.

use crate::fault::FabricError;
use crate::machine::Work;
use crate::payload::Payload;

/// A communication backend connecting one rank to its peers.
///
/// Semantics every backend must honour (they are what the executor's
/// correctness proofs lean on):
///
/// * messages between a `(src, dst)` pair with the same tag arrive in send
///   order (per-key FIFO);
/// * [`Transport::try_recv`] blocks until a matching message arrives, the
///   peer is known dead/done (→ [`FabricError::PeerFailed`]), or the
///   backend's receive deadline passes (→ [`FabricError::RecvTimeout`]);
/// * self-sends (`dst == rank()`) always succeed and are delivered locally.
pub trait Transport {
    /// This rank, `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the job.
    fn size(&self) -> usize;

    /// Sends `payload` to rank `dst` under `tag`, surfacing faults as
    /// typed errors. The payload is taken by reference so retry loops can
    /// resend without re-cloning; same-process backends deliver it as an
    /// `Arc` bump, never a byte copy.
    fn try_send(&mut self, dst: usize, tag: u64, payload: &Payload) -> Result<(), FabricError>;

    /// Receives the next message from rank `src` with matching `tag`.
    fn try_recv(&mut self, src: usize, tag: u64) -> Result<Payload, FabricError>;

    /// Nonblocking readiness probe: `true` when [`Transport::try_recv`] for
    /// `(src, tag)` would return a message without waiting. Purely advisory
    /// — a `false` answer never implies the message will not arrive, and an
    /// overlapping scheduler must still fall back to a blocking receive for
    /// forward progress. Backends that cannot peek their mailbox keep the
    /// default `false`, which degrades streaming execution to blocking
    /// issuance in dependency order (correct, just without overlap).
    fn try_recv_ready(&mut self, _src: usize, _tag: u64) -> bool {
        false
    }

    /// Current time in seconds (virtual clock, or wall time since the
    /// backend's epoch).
    fn now(&self) -> f64 {
        0.0
    }

    /// Charges modelled work against the rank's clock (no-op on real-time
    /// backends, where the work itself is the charge).
    fn compute(&mut self, _work: Work) {}

    /// Advances the clock by raw seconds (no-op on real-time backends).
    fn advance(&mut self, _secs: f64) {}

    /// Advances the clock by raw seconds charged as *lost* time — retry
    /// backoff, fault recovery (no-op on real-time backends).
    fn advance_lost(&mut self, _secs: f64) {}

    /// Records one retry of a failed transfer in the rank's metrics.
    fn note_retry(&mut self) {}

    /// Records a fault observed by an upper layer.
    fn note_fault(&mut self) {}

    /// Records an observed live logical-buffer footprint (bytes); the
    /// backend keeps the running maximum as the rank's memory high-water
    /// mark. Default no-op for backends that do not report metrics.
    fn note_mem_use(&mut self, _bytes: u64) {}

    /// Returns this rank's own scheduled-failure error if it has fired
    /// (fault injection; real backends fail by actually failing).
    fn check_failed(&mut self) -> Result<(), FabricError> {
        Ok(())
    }

    /// The injected kernel error (if any) for `(block, iteration, thread)`
    /// — the run-time's fault-injection hook. Real backends inject nothing.
    fn kernel_fault(&self, _block: &str, _iteration: u32, _thread: u32) -> Option<String> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TimePolicy;
    use crate::cluster::Cluster;
    use crate::machine::{LinkSpec, MachineSpec, NodeSpec};

    /// A program written purely against the trait, run on the local backend.
    fn ping_pong<T: Transport>(t: &mut T) -> Payload {
        if t.rank() == 0 {
            t.try_send(1, 7, &Payload::from(b"ping")).unwrap();
            t.try_recv(1, 8).unwrap()
        } else {
            let m = t.try_recv(0, 7).unwrap();
            t.try_send(0, 8, &Payload::from(b"pong")).unwrap();
            m
        }
    }

    #[test]
    fn node_ctx_implements_transport() {
        let machine = MachineSpec::uniform(
            "t",
            2,
            NodeSpec {
                flops_per_sec: 1.0e9,
                mem_bw: 1.0e9,
            },
            LinkSpec {
                bandwidth: 1.0e8,
                latency: 10.0e-6,
            },
        );
        let cluster = Cluster::new(machine, TimePolicy::Real);
        let (r, _) = cluster.run(ping_pong);
        assert_eq!(r[0], b"pong");
        assert_eq!(r[1], b"ping");
    }
}
