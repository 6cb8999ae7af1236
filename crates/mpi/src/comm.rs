//! The vendor MPI's software costs, the retry loop and the communicator.

use crate::error::MpiError;
use sage_fabric::{FabricError, NodeCtx, Payload, Transport};

/// Per-message software overhead on the sending side, seconds, of the
/// vendor-tuned MPI ("each vendor implemented their own version tailored to
/// their respective hardware for the most optimal performance", §3.1).
/// Wire costs (bandwidth, latency, NIC serialization) are charged by the
/// fabric; this layer adds the software cost, shared by the hand-coded
/// baseline and the SAGE run-time.
const SEND_OVERHEAD: f64 = 8.0e-6;

/// Per-message software overhead on the receiving side, seconds: the
/// all-to-all charges it after each receive, and so does the SAGE run-time
/// after each redistribution receive.
pub const RECV_OVERHEAD: f64 = 8.0e-6;

/// Retries after the first attempt of a dropped transfer; `MAX_RETRIES + 1`
/// total attempts.
const MAX_RETRIES: u32 = 4;

/// Backoff before the first retry, seconds; each later retry waits
/// `BACKOFF_FACTOR` times the previous one.
const BACKOFF_SECS: f64 = 20.0e-6;

/// Multiplier applied to the backoff after each retry.
const BACKOFF_FACTOR: f64 = 2.0;

/// The one retry loop every sender above the fabric shares — the
/// all-to-all's sends and the run-time's striping transfers alike: charges
/// the send overhead once, then re-injects the identical payload after each
/// drop (a dropped transfer costs the sender the wasted NIC serialization),
/// waiting out an exponential backoff (charged as lost time) between
/// attempts. `on_retry` runs once per retry, after the retry is recorded in
/// the rank's metrics and before its backoff is charged (the run-time
/// traces the retry there).
pub fn send_with_retry<T: Transport>(
    t: &mut T,
    dst: usize,
    tag: u64,
    payload: &Payload,
    mut on_retry: impl FnMut(&T),
) -> Result<(), MpiError> {
    t.advance(SEND_OVERHEAD);
    let mut backoff = BACKOFF_SECS;
    for attempt in 0..=MAX_RETRIES {
        if attempt > 0 {
            t.note_retry();
            on_retry(t);
            t.advance_lost(backoff);
            backoff *= BACKOFF_FACTOR;
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
        attempts: MAX_RETRIES + 1,
    })
}

/// One rank's handle on the vendor MPI: a [`Transport`] rank whose messages
/// are charged the vendor-tuned software costs.
///
/// Generic over the backend: the default is the in-process threaded cluster
/// ([`NodeCtx`]); `sage-net`'s `JobTransport` plugs in the multi-process
/// TCP backend with no changes to calling code.
pub struct Communicator<'a, T: Transport = NodeCtx> {
    pub(crate) ctx: &'a mut T,
    /// Collective sequence number; identical across ranks because SPMD
    /// programs issue collectives in the same order.
    pub(crate) coll_seq: u64,
}

impl<'a, T: Transport> Communicator<'a, T> {
    /// Wraps a transport rank.
    pub fn new(ctx: &'a mut T) -> Communicator<'a, T> {
        Communicator { ctx, coll_seq: 0 }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.ctx.size()
    }

    /// Borrows the underlying transport (for compute charging).
    pub fn ctx(&mut self) -> &mut T {
        self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::machine;
    use sage_fabric::{Cluster, FaultPlan, TimePolicy};

    #[test]
    fn dropped_transfers_are_retried_transparently() {
        let plan = FaultPlan::new(99).with_drop_prob(0.4);
        let cluster = Cluster::new(machine(2), TimePolicy::Virtual).with_faults(plan);
        let (r, report) = cluster.run(|ctx| {
            if ctx.rank() == 0 {
                for i in 0..20u64 {
                    let payload = Payload::from_vec(vec![i as u8; 256]);
                    send_with_retry(ctx, 1, i, &payload, |_| {}).expect("retry covers drops");
                }
                Vec::new()
            } else {
                (0..20u64)
                    .map(|i| ctx.try_recv(0, i).expect("retry covers drops")[0])
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
        let plan = FaultPlan::new(0).with_drop_prob(1.0); // hopeless link
        let cluster = Cluster::new(machine(2), TimePolicy::Virtual).with_faults(plan);
        let doomed = Payload::from(b"doomed");
        let (r, report) = cluster.run(|ctx| {
            // Rank 1 does not receive: that would dead-end, and the sender
            // gives up first.
            let mut announced = 0;
            let sent =
                (ctx.rank() == 0).then(|| send_with_retry(ctx, 1, 0, &doomed, |_| announced += 1));
            (sent, announced)
        });
        match &r[0] {
            (
                Some(Err(MpiError::RetriesExhausted {
                    src: 0,
                    dst: 1,
                    attempts,
                    ..
                })),
                announced,
            ) => {
                assert_eq!(*attempts, MAX_RETRIES + 1);
                assert_eq!(*announced, MAX_RETRIES);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        // Lost: every backoff, each `BACKOFF_FACTOR` times the last, plus
        // the wasted serialization of each dropped attempt.
        let backoffs: f64 = (0..MAX_RETRIES as i32)
            .map(|k| BACKOFF_SECS * BACKOFF_FACTOR.powi(k))
            .sum();
        let wasted = (MAX_RETRIES + 1) as f64 * doomed.len() as f64 / 1.0e8;
        let lost = report.metrics.total_lost_secs();
        assert!((lost - backoffs - wasted).abs() < 1e-12, "lost {lost}");
    }
}
