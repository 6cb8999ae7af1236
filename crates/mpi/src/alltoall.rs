//! All-to-all exchange — the communication core of the distributed corner
//! turn.
//!
//! The paper (§3.1): "The traditional MPI implementation have a built in
//! function for performing the corner turn operation, namely the
//! `MPI_All_to_All` function; each vendor implemented their own version
//! tailored to their respective hardware for the most optimal performance."
//!
//! Two algorithms are provided:
//!
//! * **pairwise exchange** ([`Communicator::try_alltoall`]) — `n-1` rounds; in
//!   round `r` rank `me` exchanges with `me ^ r` (power-of-two sizes) or
//!   `(me + r) % n` (general sizes). This is the generic algorithm and also
//!   charges a packing copy per block on non-zero-copy configurations.
//! * **tuned** ([`Communicator::try_alltoall_tuned`]) — same communication
//!   schedule, but forced onto the zero-copy/vendor-overhead path,
//!   modelling the DMA gather/scatter implementations vendors shipped.

use crate::comm::{Communicator, MpiConfig};
use crate::error::MpiError;
use sage_fabric::{Payload, Transport};

const OP_ALLTOALL: u64 = 7;

impl<T: Transport> Communicator<'_, T> {
    /// Pairwise-exchange all-to-all: `blocks[r]` is sent to rank `r`; the
    /// result's index `r` holds the block received from rank `r` — the
    /// sender's own allocation, not a copy.
    ///
    /// # Panics
    /// Panics if `blocks.len() != size()`.
    pub fn try_alltoall(&mut self, blocks: &[Payload]) -> Result<Vec<Payload>, MpiError> {
        let zero_copy = self.config.zero_copy_collectives;
        self.alltoall_rounds(blocks, zero_copy)
    }

    /// Vendor-tuned all-to-all: identical exchange schedule, but with the
    /// vendor per-message overheads and no packing copies, regardless of the
    /// communicator's base configuration.
    ///
    /// # Panics
    /// Panics if `blocks.len() != size()`.
    pub fn try_alltoall_tuned(&mut self, blocks: &[Payload]) -> Result<Vec<Payload>, MpiError> {
        let saved = self.config;
        if !saved.zero_copy_collectives {
            self.config = MpiConfig::vendor_tuned();
        }
        let result = self.alltoall_rounds(blocks, true);
        // Restored even when a round errored out.
        self.config = saved;
        result
    }

    fn alltoall_rounds(
        &mut self,
        blocks: &[Payload],
        zero_copy: bool,
    ) -> Result<Vec<Payload>, MpiError> {
        let n = self.size();
        let me = self.rank();
        assert_eq!(blocks.len(), n, "alltoall needs one block per rank");
        let tag = self.next_coll_tag(OP_ALLTOALL);

        let mut out = vec![Payload::new(); n];
        // Own block: local hand-off (charged as a copy unless zero-copy DMA).
        out[me] = blocks[me].clone();
        if !zero_copy {
            self.charge_pack(blocks[me].len());
        }
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
            if !zero_copy {
                // Pack the outgoing block into a send buffer.
                self.charge_pack(blocks[to].len());
            }
            let round_tag = tag | ((r as u64) << 32);
            self.send_with_overhead(to, round_tag, &blocks[to])?;
            let received = self.recv_with_overhead(from, round_tag)?;
            if !zero_copy {
                self.charge_pack(received.len());
            }
            out[from] = received;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::{Communicator, MpiConfig};
    use sage_fabric::{Cluster, LinkSpec, MachineSpec, NodeSpec, Payload, TimePolicy};

    fn machine(n: usize) -> MachineSpec {
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
            let (_, _) = cluster.run(|ctx| {
                let me = ctx.id();
                let n = ctx.nodes();
                let mut comm = Communicator::new(ctx, MpiConfig::generic());
                let out = comm.try_alltoall(&blocks_for(me, n)).expect("fault-free");
                check_result(me, n, &out);
            });
        }
    }

    #[test]
    fn tuned_matches_generic_result() {
        let cluster = Cluster::new(machine(4), TimePolicy::Virtual);
        cluster.run(|ctx| {
            let me = ctx.id();
            let n = ctx.nodes();
            let mut comm = Communicator::new(ctx, MpiConfig::generic());
            let a = comm.try_alltoall(&blocks_for(me, n)).expect("fault-free");
            let b = comm
                .try_alltoall_tuned(&blocks_for(me, n))
                .expect("fault-free");
            assert_eq!(a, b);
            check_result(me, n, &b);
        });
    }

    #[test]
    fn tuned_is_faster_in_virtual_time() {
        let time = |tuned: bool| {
            let cluster = Cluster::new(machine(8), TimePolicy::Virtual);
            let (_, report) = cluster.run(|ctx| {
                let me = ctx.id();
                let n = ctx.nodes();
                let mut comm = Communicator::new(ctx, MpiConfig::generic());
                let blocks: Vec<Payload> = (0..n)
                    .map(|_| Payload::from_vec(vec![me as u8; 16384]))
                    .collect();
                if tuned {
                    comm.try_alltoall_tuned(&blocks).expect("fault-free");
                } else {
                    comm.try_alltoall(&blocks).expect("fault-free");
                }
            });
            report.makespan
        };
        let generic = time(false);
        let tuned = time(true);
        assert!(
            tuned < generic,
            "tuned {tuned} should beat generic {generic}"
        );
        // But not absurdly: the wire time is identical.
        assert!(tuned > generic * 0.3);
    }

    #[test]
    fn tuned_alltoall_hands_over_the_senders_allocation() {
        // The baseline moves bytes exactly as the run-time does: what
        // arrives is the sender's buffer, not a copy of it.
        let cluster = Cluster::new(machine(2), TimePolicy::Real);
        cluster.run(|ctx| {
            let me = ctx.id();
            let mut comm = Communicator::new(ctx, MpiConfig::vendor_tuned());
            let blocks = blocks_for(me, 2);
            let out = comm.try_alltoall_tuned(&blocks).expect("fault-free");
            check_result(me, 2, &out);
            for (src, received) in out.iter().enumerate() {
                assert!(!received.is_unique(), "me={me} src={src} was copied");
            }
            assert_eq!(out[me].as_ptr(), blocks[me].as_ptr());
            // Nobody drops `blocks` before every rank has looked.
            comm.try_barrier().expect("fault-free");
        });
    }

    #[test]
    fn consecutive_alltoalls_do_not_collide() {
        let cluster = Cluster::new(machine(4), TimePolicy::Virtual);
        cluster.run(|ctx| {
            let me = ctx.id();
            let n = ctx.nodes();
            let mut comm = Communicator::new(ctx, MpiConfig::generic());
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

/// Bruck's all-to-all: `ceil(log2 n)` rounds instead of `n-1`, at the cost
/// of forwarding each block up to `log2 n` times — the classic trade for
/// **small** messages where per-message latency dominates wire time.
///
/// Round `k` sends every block whose destination's relative rank has bit
/// `k` set to rank `me + 2^k`, accumulating blocks toward their targets.
impl<T: Transport> Communicator<'_, T> {
    /// All-to-all via Bruck's algorithm. Semantically identical to
    /// [`Communicator::try_alltoall`]; preferable when blocks are small and
    /// the communicator is large. Blocks are forwarded inside concatenated
    /// messages, so what arrives is rebuilt, not shared.
    ///
    /// # Panics
    /// Panics if `blocks.len() != size()`.
    pub fn try_alltoall_bruck(&mut self, blocks: &[Payload]) -> Result<Vec<Payload>, MpiError> {
        let n = self.size();
        let me = self.rank();
        assert_eq!(blocks.len(), n, "alltoall needs one block per rank");
        let tag = self.next_coll_tag(OP_ALLTOALL_BRUCK);

        // Phase 1: local rotation — slot r holds the block for rank
        // (me + r) mod n.
        let mut slots: Vec<Payload> = (0..n).map(|r| blocks[(me + r) % n].clone()).collect();
        self.charge_pack(slots.iter().map(|s| s.len()).sum());

        // Phase 2: log rounds. Each message is a concatenation of
        // (slot-index, len, bytes) records.
        let mut k = 1usize;
        let mut round = 0u64;
        while k < n {
            let to = (me + k) % n;
            let from = (me + n - k) % n;
            let mut payload = Vec::new();
            for (r, slot) in slots.iter().enumerate() {
                if r & k != 0 {
                    payload.extend_from_slice(&(r as u32).to_le_bytes());
                    payload.extend_from_slice(&(slot.len() as u32).to_le_bytes());
                    payload.extend_from_slice(slot);
                }
            }
            self.charge_pack(payload.len());
            let round_tag = tag | (round << 32);
            self.send_with_overhead(to, round_tag, &Payload::from_vec(payload))?;
            let incoming = self.recv_with_overhead(from, round_tag)?;
            self.charge_pack(incoming.len());
            let mut cur = 0usize;
            while cur < incoming.len() {
                let r = u32::from_le_bytes(incoming[cur..cur + 4].try_into().unwrap()) as usize;
                let len =
                    u32::from_le_bytes(incoming[cur + 4..cur + 8].try_into().unwrap()) as usize;
                slots[r] = Payload::from(&incoming[cur + 8..cur + 8 + len]);
                cur += 8 + len;
            }
            k <<= 1;
            round += 1;
        }

        // Phase 3: inverse rotation — slot r now holds the block that
        // originated at rank (me - r) mod n.
        let mut out = vec![Payload::new(); n];
        for (r, slot) in slots.into_iter().enumerate() {
            out[(me + n - r) % n] = slot;
        }
        self.charge_pack(out.iter().map(|s| s.len()).sum());
        Ok(out)
    }
}

const OP_ALLTOALL_BRUCK: u64 = 8;

#[cfg(test)]
mod bruck_tests {
    use crate::comm::{Communicator, MpiConfig};
    use sage_fabric::{Cluster, LinkSpec, MachineSpec, NodeSpec, Payload, TimePolicy};

    fn machine(n: usize) -> MachineSpec {
        MachineSpec::uniform(
            "test",
            n,
            NodeSpec {
                flops_per_sec: 1.0e9,
                mem_bw: 1.0e9,
            },
            LinkSpec {
                bandwidth: 1.0e8,
                latency: 100.0e-6, // latency-dominated regime
            },
        )
    }

    #[test]
    fn bruck_matches_pairwise_for_all_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8] {
            let cluster = Cluster::new(machine(n), TimePolicy::Virtual);
            cluster.run(|ctx| {
                let me = ctx.id();
                let n = ctx.nodes();
                let mut comm = Communicator::new(ctx, MpiConfig::generic());
                let blocks: Vec<Payload> = (0..n)
                    .map(|d| Payload::from_vec(vec![me as u8, d as u8]))
                    .collect();
                let a = comm.try_alltoall(&blocks).expect("fault-free");
                let b = comm.try_alltoall_bruck(&blocks).expect("fault-free");
                assert_eq!(a, b, "n={n} me={me}");
            });
        }
    }

    #[test]
    fn bruck_wins_for_tiny_messages_on_large_comms() {
        let time = |bruck: bool| {
            let cluster = Cluster::new(machine(16), TimePolicy::Virtual);
            let (_, report) = cluster.run(|ctx| {
                let me = ctx.id();
                let n = ctx.nodes();
                let mut comm = Communicator::new(ctx, MpiConfig::generic());
                let blocks: Vec<Payload> = (0..n)
                    .map(|_| Payload::from_vec(vec![me as u8; 16]))
                    .collect();
                if bruck {
                    comm.try_alltoall_bruck(&blocks).expect("fault-free");
                } else {
                    comm.try_alltoall(&blocks).expect("fault-free");
                }
            });
            report.makespan
        };
        let pairwise = time(false);
        let bruck = time(true);
        assert!(
            bruck < pairwise,
            "bruck {bruck} should beat pairwise {pairwise} at 16B x 16 ranks"
        );
    }

    #[test]
    fn bruck_loses_for_large_messages() {
        // Forwarding large blocks log n times costs more wire than n-1
        // direct sends.
        let time = |bruck: bool| {
            let cluster = Cluster::new(machine(8), TimePolicy::Virtual);
            let (_, report) = cluster.run(|ctx| {
                let me = ctx.id();
                let n = ctx.nodes();
                let mut comm = Communicator::new(ctx, MpiConfig::generic());
                let blocks: Vec<Payload> = (0..n)
                    .map(|_| Payload::from_vec(vec![me as u8; 262_144]))
                    .collect();
                if bruck {
                    comm.try_alltoall_bruck(&blocks).expect("fault-free");
                } else {
                    comm.try_alltoall(&blocks).expect("fault-free");
                }
            });
            report.makespan
        };
        assert!(time(true) > time(false));
    }
}
