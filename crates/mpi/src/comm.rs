//! The retry loop, the software-cost configuration and the communicator.

use crate::error::MpiError;
use sage_fabric::{FabricError, NodeCtx, Payload, Transport};

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

/// The one retry loop every sender above the fabric shares — the
/// all-to-all's sends and the run-time's striping transfers alike: charges
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
/// fabric; this layer adds the per-message *software* cost and the retry
/// policy, shared by the hand-coded baseline and the SAGE run-time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MpiConfig {
    /// Per-message software overhead on the sending side, seconds.
    pub send_overhead: f64,
    /// Per-message software overhead on the receiving side, seconds.
    pub recv_overhead: f64,
    /// Retry-with-backoff policy for transfers the fabric drops.
    pub retry: RetryPolicy,
}

impl MpiConfig {
    /// A vendor-tuned MPI ("each vendor implemented their own version
    /// tailored to their respective hardware for the most optimal
    /// performance", §3.1).
    pub fn vendor_tuned() -> MpiConfig {
        MpiConfig {
            send_overhead: 8.0e-6,
            recv_overhead: 8.0e-6,
            retry: RetryPolicy {
                backoff_secs: 20.0e-6,
                ..RetryPolicy::default()
            },
        }
    }
}

/// One rank's handle on the vendor MPI: a [`Transport`] rank plus the
/// [`MpiConfig`] its messages are charged under.
///
/// Generic over the backend: the default is the in-process threaded cluster
/// ([`NodeCtx`]); `sage-net`'s `JobTransport` plugs in the multi-process
/// TCP backend with no changes to calling code.
pub struct Communicator<'a, T: Transport = NodeCtx> {
    pub(crate) ctx: &'a mut T,
    pub(crate) config: MpiConfig,
    /// Collective sequence number; identical across ranks because SPMD
    /// programs issue collectives in the same order.
    pub(crate) coll_seq: u64,
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
    fn send_overhead_is_charged_once_per_send() {
        let cluster = Cluster::new(machine(2), TimePolicy::Virtual);
        let sender_clock = |config: MpiConfig| {
            let (clocks, _) = cluster.run(|ctx| {
                if ctx.rank() == 0 {
                    send_with_retry(ctx, &config, 1, 0, &Payload::zeroed(64), |_| {})
                        .expect("send");
                } else {
                    ctx.try_recv(0, 0).expect("recv");
                }
                ctx.now()
            });
            clocks[0]
        };
        let tuned = MpiConfig::vendor_tuned();
        let free = MpiConfig {
            send_overhead: 0.0,
            ..tuned
        };
        let charged = sender_clock(tuned) - sender_clock(free);
        assert!((charged - tuned.send_overhead).abs() < 1e-12, "{charged}");
    }

    #[test]
    fn dropped_transfers_are_retried_transparently() {
        let plan = FaultPlan::new(99).with_drop_prob(0.4);
        let cluster = Cluster::new(machine(2), TimePolicy::Virtual).with_faults(plan);
        let config = MpiConfig::vendor_tuned();
        let (r, report) = cluster.run(|ctx| {
            if ctx.rank() == 0 {
                for i in 0..20u64 {
                    let payload = Payload::from_vec(vec![i as u8; 256]);
                    send_with_retry(ctx, &config, 1, i, &payload, |_| {})
                        .expect("retry covers drops");
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
        let config = MpiConfig::vendor_tuned();
        let rp = config.retry;
        let doomed = Payload::from(b"doomed");
        let (r, report) = cluster.run(|ctx| {
            // Rank 1 does not receive: that would dead-end, and the sender
            // gives up first.
            let mut announced = 0;
            let sent = (ctx.rank() == 0)
                .then(|| send_with_retry(ctx, &config, 1, 0, &doomed, |_| announced += 1));
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
                assert_eq!(*attempts, rp.max_retries + 1);
                assert_eq!(*announced, rp.max_retries);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        // Lost: every backoff, each `backoff_factor` times the last, plus
        // the wasted serialization of each dropped attempt.
        let backoffs: f64 = (0..rp.max_retries as i32)
            .map(|k| rp.backoff_secs * rp.backoff_factor.powi(k))
            .sum();
        let wasted = (rp.max_retries + 1) as f64 * doomed.len() as f64 / 1.0e8;
        let lost = report.metrics.total_lost_secs();
        assert!((lost - backoffs - wasted).abs() < 1e-12, "lost {lost}");
    }
}
