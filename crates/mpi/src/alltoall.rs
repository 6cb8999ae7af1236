//! All-to-all exchange — the communication core of the distributed corner
//! turn.
//!
//! The paper (§3.1): "The traditional MPI implementation have a built in
//! function for performing the corner turn operation, namely the
//! `MPI_All_to_All` function; each vendor implemented their own version
//! tailored to their respective hardware for the most optimal performance."
//!
//! [`Communicator::try_alltoall`] is that function as the vendors shipped
//! it: a pairwise exchange of `n-1` rounds with DMA-style gather/scatter —
//! every block is handed over as the sender's allocation, and no packing
//! copy is charged.

use crate::comm::{send_with_retry, Communicator, RECV_OVERHEAD};
use crate::error::MpiError;
use sage_fabric::{Payload, Transport};

const OP_ALLTOALL: u64 = 7;

impl<T: Transport> Communicator<'_, T> {
    /// Pairwise-exchange all-to-all: `blocks[r]` is sent to rank `r`; the
    /// result's index `r` holds the block received from rank `r` — the
    /// sender's own allocation, not a copy. A dropped transfer is retried
    /// by [`crate::send_with_retry`]; a dead peer surfaces as
    /// [`MpiError::Fabric`] within the transport's receive deadline.
    ///
    /// # Panics
    /// Panics if `blocks.len() != size()`.
    pub fn try_alltoall(&mut self, blocks: &[Payload]) -> Result<Vec<Payload>, MpiError> {
        let n = self.size();
        let me = self.rank();
        assert_eq!(blocks.len(), n, "alltoall needs one block per rank");
        // All ranks see the same sequence, so consecutive exchanges never
        // share a tag.
        self.coll_seq += 1;
        let tag = (self.coll_seq << 8) | OP_ALLTOALL;

        let mut out = vec![Payload::new(); n];
        out[me] = blocks[me].clone();
        let pow2 = n.is_power_of_two();
        for r in 1..n {
            // Power-of-two sizes use the symmetric XOR schedule (true
            // pairwise exchange); general sizes use the ring shift, where
            // the round-r partner we send to differs from the one we
            // receive from.
            let (to, from) = if pow2 {
                (me ^ r, me ^ r)
            } else {
                ((me + r) % n, (me + n - r) % n)
            };
            let round_tag = tag | ((r as u64) << 32);
            send_with_retry(self.ctx, to, round_tag, &blocks[to], |_| {})?;
            out[from] = self.ctx.try_recv(from, round_tag)?;
            self.ctx.advance(RECV_OVERHEAD);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::Communicator;
    use crate::error::MpiError;
    use crate::testing::machine;
    use sage_fabric::{Cluster, FabricError, FaultPlan, Payload, TimePolicy};
    use std::time::{Duration, Instant};

    fn blocks_for(me: usize, n: usize) -> Vec<Payload> {
        // Block sent from `me` to `dst` is [me, dst] repeated.
        (0..n)
            .map(|dst| Payload::from_vec(vec![me as u8, dst as u8, me as u8]))
            .collect()
    }

    fn check_result(me: usize, n: usize, out: &[Payload]) {
        assert_eq!(out.len(), n);
        for (src, block) in out.iter().enumerate() {
            assert_eq!(
                block,
                &vec![src as u8, me as u8, src as u8],
                "me={me} src={src}"
            );
        }
    }

    #[test]
    fn alltoall_is_data_transpose_pow2_and_general() {
        for n in [1usize, 2, 4, 8, 3, 5, 6] {
            let cluster = Cluster::new(machine(n), TimePolicy::Virtual);
            cluster.run(|ctx| {
                let me = ctx.id();
                let n = ctx.nodes();
                let mut comm = Communicator::new(ctx);
                let out = comm.try_alltoall(&blocks_for(me, n)).expect("fault-free");
                check_result(me, n, &out);
            });
        }
    }

    #[test]
    fn alltoall_hands_over_the_senders_allocation() {
        // The baseline moves bytes exactly as the run-time does: what
        // arrives is the sender's buffer, not a copy of it. Every rank
        // returns what it sent, so nothing is dropped before all have looked.
        let cluster = Cluster::new(machine(2), TimePolicy::Real);
        let (runs, _) = cluster.run(|ctx| {
            let me = ctx.id();
            let mut comm = Communicator::new(ctx);
            let blocks = blocks_for(me, 2);
            let out = comm.try_alltoall(&blocks).expect("fault-free");
            check_result(me, 2, &out);
            (blocks, out)
        });
        for (me, (_, out)) in runs.iter().enumerate() {
            for (src, received) in out.iter().enumerate() {
                let sent = &runs[src].0[me];
                assert_eq!(
                    received.as_ptr(),
                    sent.as_ptr(),
                    "me={me} src={src} was copied"
                );
            }
        }
    }

    #[test]
    fn consecutive_alltoalls_do_not_collide() {
        for n in [3usize, 4] {
            let cluster = Cluster::new(machine(n), TimePolicy::Virtual);
            cluster.run(|ctx| {
                let me = ctx.id();
                let n = ctx.nodes();
                let mut comm = Communicator::new(ctx);
                for iter in 0..3u8 {
                    let blocks: Vec<Payload> = (0..n)
                        .map(|d| Payload::from_vec(vec![me as u8, d as u8, iter]))
                        .collect();
                    let out = comm.try_alltoall(&blocks).expect("fault-free");
                    for (src, b) in out.iter().enumerate() {
                        assert_eq!(b, &vec![src as u8, me as u8, iter]);
                    }
                }
            });
        }
    }

    /// Two exchanges of 256-byte blocks per rank, under `plan`.
    fn exchange_under(
        n: usize,
        plan: FaultPlan,
    ) -> (Vec<Result<Vec<Payload>, MpiError>>, sage_fabric::RunReport) {
        Cluster::new(machine(n), TimePolicy::Virtual)
            .with_faults(plan)
            .with_recv_timeout(Duration::from_secs(10))
            .run(|ctx| {
                let me = ctx.id();
                let n = ctx.nodes();
                let mut comm = Communicator::new(ctx);
                let mut last = Vec::new();
                for iter in 0..2u8 {
                    let blocks: Vec<Payload> = (0..n)
                        .map(|d| Payload::from_vec(vec![(me * 16 + d) as u8 ^ iter; 256]))
                        .collect();
                    last = comm.try_alltoall(&blocks)?;
                }
                Ok(last)
            })
    }

    #[test]
    fn dropped_blocks_are_retried_and_the_bytes_match_the_fault_free_run() {
        for n in [3usize, 4] {
            let (clean, clean_report) = exchange_under(n, FaultPlan::new(7));
            let (lossy, report) = exchange_under(n, FaultPlan::new(7).with_drop_prob(0.3));
            assert_eq!(clean_report.metrics.total_dropped(), 0);
            assert!(
                report.metrics.total_dropped() > 0,
                "n={n}: plan dropped nothing"
            );
            assert_eq!(
                report.metrics.total_retries(),
                report.metrics.total_dropped()
            );
            assert!(clean.iter().all(|r| r.is_ok()));
            assert_eq!(lossy, clean, "n={n}");
        }
    }

    #[test]
    fn a_failed_rank_is_a_typed_error_on_every_survivor_not_a_hang() {
        for n in [3usize, 4] {
            let started = Instant::now();
            let (r, _) = exchange_under(n, FaultPlan::new(1).fail_node(1, 0.0));
            assert!(started.elapsed() < Duration::from_secs(10), "n={n} hung");
            for (rank, got) in r.iter().enumerate() {
                match got {
                    Err(MpiError::Fabric(FabricError::NodeFailed { node: 1 })) if rank == 1 => {}
                    Err(MpiError::Fabric(FabricError::PeerFailed { .. })) if rank != 1 => {}
                    other => panic!("n={n} rank {rank}: {other:?}"),
                }
            }
        }
    }
}
