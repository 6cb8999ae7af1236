//! The communicator: point-to-point operations and configuration.

use crate::error::MpiError;
use sage_fabric::{FabricError, NodeCtx, Payload, Transport, Work};

/// How the MPI layer retries transfers the fabric drops.
///
/// A dropped transfer costs the sender the wasted NIC serialization; each
/// retry additionally waits out an exponential backoff (charged as lost
/// time) before re-injecting the identical payload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt; `max_retries + 1` total attempts.
    pub max_retries: u32,
    /// Backoff before the first retry, seconds.
    pub backoff_secs: f64,
    /// Multiplier applied to the backoff after each retry.
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            backoff_secs: 50.0e-6,
            backoff_factor: 2.0,
        }
    }
}

/// The one retry loop every sender above the fabric shares — the MPI
/// layer's sends and the run-time's striping transfers alike: charges
/// `config.send_overhead` once, then re-injects the identical payload after
/// each drop, waiting out an exponential backoff (charged as lost time)
/// between attempts. `on_retry` runs once per retry, after the retry is
/// recorded in the rank's metrics and before its backoff is charged (the
/// run-time traces the retry there).
pub fn send_with_retry<T: Transport>(
    t: &mut T,
    config: &MpiConfig,
    dst: usize,
    tag: u64,
    payload: &Payload,
    mut on_retry: impl FnMut(&T),
) -> Result<(), MpiError> {
    t.advance(config.send_overhead);
    let rp = config.retry;
    let mut backoff = rp.backoff_secs;
    for attempt in 0..=rp.max_retries {
        if attempt > 0 {
            t.note_retry();
            on_retry(t);
            t.advance_lost(backoff);
            backoff *= rp.backoff_factor;
        }
        match t.try_send(dst, tag, payload) {
            Ok(()) => return Ok(()),
            Err(FabricError::TransferDropped { .. }) => continue,
            Err(e) => return Err(MpiError::Fabric(e)),
        }
    }
    Err(MpiError::RetriesExhausted {
        src: t.rank() as u32,
        dst: dst as u32,
        tag,
        attempts: rp.max_retries + 1,
    })
}

/// Software-overhead characterization of an MPI implementation.
///
/// Wire costs (bandwidth, latency, NIC serialization) are charged by the
/// fabric; this layer adds the per-message *software* cost, which is where
/// vendor-tuned implementations beat portable ones on identical hardware.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MpiConfig {
    /// Per-message software overhead on the sending side, seconds.
    pub send_overhead: f64,
    /// Per-message software overhead on the receiving side, seconds.
    pub recv_overhead: f64,
    /// Whether collectives may assume DMA-style gather/scatter (no packing
    /// copies charged).
    pub zero_copy_collectives: bool,
    /// Retry-with-backoff policy for transfers the fabric drops.
    pub retry: RetryPolicy,
}

impl MpiConfig {
    /// A portable, generic MPI build (the paper's SAGE run-time path).
    pub fn generic() -> MpiConfig {
        MpiConfig {
            send_overhead: 30.0e-6,
            recv_overhead: 30.0e-6,
            zero_copy_collectives: false,
            retry: RetryPolicy::default(),
        }
    }

    /// A vendor-tuned MPI (the paper's hand-coded path: "each vendor
    /// implemented their own version tailored to their respective hardware
    /// for the most optimal performance").
    pub fn vendor_tuned() -> MpiConfig {
        MpiConfig {
            send_overhead: 8.0e-6,
            recv_overhead: 8.0e-6,
            zero_copy_collectives: true,
            retry: RetryPolicy {
                backoff_secs: 20.0e-6,
                ..RetryPolicy::default()
            },
        }
    }
}

/// Reduction operators for [`Communicator::try_reduce_f32`] /
/// [`Communicator::try_allreduce_f32`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    /// Applies the operator element-wise: `acc[i] = op(acc[i], x[i])`.
    pub fn fold(self, acc: &mut [f32], x: &[f32]) {
        assert_eq!(acc.len(), x.len());
        match self {
            ReduceOp::Sum => acc.iter_mut().zip(x).for_each(|(a, b)| *a += *b),
            ReduceOp::Max => acc.iter_mut().zip(x).for_each(|(a, b)| *a = a.max(*b)),
            ReduceOp::Min => acc.iter_mut().zip(x).for_each(|(a, b)| *a = a.min(*b)),
        }
    }
}

/// Tag spaces: user point-to-point tags are kept disjoint from the
/// collective sequence space.
const USER_TAG_BIT: u64 = 1 << 63;

/// An MPI-like communicator bound to one rank of a communication backend.
///
/// Every operation is fault-aware (`try_*`, returning [`MpiError`]) and
/// moves [`Payload`] handles: what a rank sends is what its peer receives,
/// the same allocation, exactly as the SAGE run-time hands buffers over.
///
/// Generic over the [`Transport`] backend: the default is the in-process
/// threaded cluster ([`NodeCtx`]); `sage-net`'s `JobTransport` (and
/// `TcpTransport`, its private-mesh form) plugs in the multi-process TCP
/// backend with no changes to calling code.
pub struct Communicator<'a, T: Transport = NodeCtx> {
    ctx: &'a mut T,
    /// Swapped for the duration of a tuned collective.
    pub(crate) config: MpiConfig,
    /// Collective sequence number; identical across ranks because SPMD
    /// programs issue collectives in the same order.
    coll_seq: u64,
}

impl<'a, T: Transport> Communicator<'a, T> {
    /// Wraps a transport rank with the given MPI characterization.
    pub fn new(ctx: &'a mut T, config: MpiConfig) -> Communicator<'a, T> {
        Communicator {
            ctx,
            config,
            coll_seq: 0,
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.ctx.size()
    }

    /// The active configuration.
    pub fn config(&self) -> MpiConfig {
        self.config
    }

    /// Borrows the underlying transport (for compute charging).
    pub fn ctx(&mut self) -> &mut T {
        self.ctx
    }

    /// Send with a user tag: retries dropped transfers per the configured
    /// [`RetryPolicy`], surfacing unrecoverable faults as [`MpiError`]. The
    /// fabric keeps a handle on `payload`, never a copy.
    pub fn try_send(&mut self, dst: usize, tag: u32, payload: &Payload) -> Result<(), MpiError> {
        self.send_with_overhead(dst, USER_TAG_BIT | tag as u64, payload)
    }

    /// Receive of a matching user-tagged message: the sender's buffer,
    /// shared.
    pub fn try_recv(&mut self, src: usize, tag: u32) -> Result<Payload, MpiError> {
        self.recv_with_overhead(src, USER_TAG_BIT | tag as u64)
    }

    /// Simultaneous exchange with a peer.
    pub fn try_sendrecv(
        &mut self,
        peer: usize,
        tag: u32,
        payload: &Payload,
    ) -> Result<Payload, MpiError> {
        self.try_send(peer, tag, payload)?;
        self.try_recv(peer, tag)
    }

    /// What every MPI send (user or collective tag space) funnels through:
    /// [`send_with_retry`] under this communicator's configuration.
    pub(crate) fn send_with_overhead(
        &mut self,
        dst: usize,
        tag: u64,
        payload: &Payload,
    ) -> Result<(), MpiError> {
        send_with_retry(self.ctx, &self.config, dst, tag, payload, |_| {})
    }

    /// Receive with the software overhead charged on success.
    pub(crate) fn recv_with_overhead(&mut self, src: usize, tag: u64) -> Result<Payload, MpiError> {
        let m = self.ctx.try_recv(src, tag)?;
        self.ctx.advance(self.config.recv_overhead);
        Ok(m)
    }

    /// Charges a local packing/unpacking copy if this implementation is not
    /// zero-copy (used by the collectives).
    pub(crate) fn charge_pack(&mut self, bytes: usize) {
        if !self.config.zero_copy_collectives {
            self.ctx.compute(Work::copy(bytes));
        }
    }

    /// Allocates a fresh tag for the next collective; all ranks see the same
    /// sequence.
    pub(crate) fn next_coll_tag(&mut self, op: u64) -> u64 {
        self.coll_seq += 1;
        (self.coll_seq << 8) | op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_fabric::{Cluster, LinkSpec, MachineSpec, NodeSpec, TimePolicy};

    pub(crate) fn test_machine(n: usize) -> MachineSpec {
        MachineSpec::uniform(
            "test",
            n,
            NodeSpec {
                flops_per_sec: 1.0e9,
                mem_bw: 1.0e9,
            },
            LinkSpec {
                bandwidth: 1.0e8,
                latency: 10.0e-6,
            },
        )
    }

    #[test]
    fn p2p_round_trip() {
        let cluster = Cluster::new(test_machine(2), TimePolicy::Real);
        let (r, _) = cluster.run(|ctx| {
            let mut comm = Communicator::new(ctx, MpiConfig::generic());
            if comm.rank() == 0 {
                comm.try_send(1, 9, &Payload::from(b"hello"))?;
                comm.try_recv(1, 10)
            } else {
                let m = comm.try_recv(0, 9)?;
                comm.try_send(0, 10, &m)?;
                Ok(m)
            }
        });
        assert_eq!(r[0], Ok(Payload::from(b"hello")));
    }

    #[test]
    fn overheads_charged_in_virtual_mode() {
        let cluster = Cluster::new(test_machine(2), TimePolicy::Virtual);
        let run = |cfg: MpiConfig| {
            let (_, report) = cluster.run(|ctx| {
                let mut comm = Communicator::new(ctx, cfg);
                if comm.rank() == 0 {
                    comm.try_send(1, 0, &Payload::zeroed(64)).expect("send");
                } else {
                    comm.try_recv(0, 0).expect("recv");
                }
            });
            report.makespan
        };
        let generic = run(MpiConfig::generic());
        let tuned = run(MpiConfig::vendor_tuned());
        assert!(generic > tuned, "generic {generic} vs tuned {tuned}");
    }

    #[test]
    fn dropped_transfers_are_retried_transparently() {
        use sage_fabric::FaultPlan;
        let plan = FaultPlan::new(99).with_drop_prob(0.4);
        let cluster = Cluster::new(test_machine(2), TimePolicy::Virtual).with_faults(plan);
        let (r, report) = cluster.run(|ctx| {
            let mut comm = Communicator::new(ctx, MpiConfig::generic());
            if comm.rank() == 0 {
                for i in 0..20u32 {
                    comm.try_send(1, i, &Payload::from_vec(vec![i as u8; 256]))
                        .expect("retry covers drops");
                }
                Vec::new()
            } else {
                (0..20u32)
                    .map(|i| comm.try_recv(0, i).expect("retry covers drops")[0])
                    .collect::<Vec<u8>>()
            }
        });
        assert_eq!(r[1], (0..20u8).collect::<Vec<u8>>());
        // At p=0.4 over 20 transfers some retries must have happened, and
        // every drop was retried.
        assert!(report.metrics.total_retries() > 0);
        assert_eq!(
            report.metrics.total_dropped(),
            report.metrics.total_retries()
        );
        assert!(report.metrics.total_lost_secs() > 0.0);
    }

    #[test]
    fn retries_exhausted_is_typed() {
        use sage_fabric::FaultPlan;
        let plan = FaultPlan::new(0).with_drop_prob(1.0); // hopeless link
        let cluster = Cluster::new(test_machine(2), TimePolicy::Virtual).with_faults(plan);
        let (r, _) = cluster.run(|ctx| {
            let mut comm = Communicator::new(ctx, MpiConfig::generic());
            if comm.rank() == 0 {
                Some(comm.try_send(1, 0, &Payload::from(b"doomed")))
            } else {
                None // receiving would dead-end; sender gives up first
            }
        });
        match r[0].as_ref().unwrap() {
            Err(crate::error::MpiError::RetriesExhausted {
                src: 0,
                dst: 1,
                attempts,
                ..
            }) => {
                assert_eq!(*attempts, MpiConfig::generic().retry.max_retries + 1);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn reduce_op_folds() {
        let mut acc = vec![1.0f32, 5.0, -2.0];
        ReduceOp::Sum.fold(&mut acc, &[1.0, 1.0, 1.0]);
        assert_eq!(acc, vec![2.0, 6.0, -1.0]);
        ReduceOp::Max.fold(&mut acc, &[0.0, 10.0, 0.0]);
        assert_eq!(acc, vec![2.0, 10.0, 0.0]);
        ReduceOp::Min.fold(&mut acc, &[5.0, 5.0, -5.0]);
        assert_eq!(acc, vec![2.0, 5.0, -5.0]);
    }
}
