//! Collective operations: barrier, broadcast, scatter/gather, allgather,
//! reduce/allreduce.
//!
//! All algorithms are deterministic (peers named explicitly) and standard:
//! dissemination barrier, binomial-tree broadcast/reduce, linear
//! gather/scatter rooted at `root`, ring allgather.

use crate::comm::{Communicator, ReduceOp};
use crate::error::MpiError;
use crate::typed;
use sage_fabric::{Payload, Transport};

/// Collective op codes for the tag space.
mod op {
    pub const BARRIER: u64 = 1;
    pub const BCAST: u64 = 2;
    pub const GATHER: u64 = 3;
    pub const SCATTER: u64 = 4;
    pub const ALLGATHER: u64 = 5;
    pub const REDUCE: u64 = 6;
}

impl<T: Transport> Communicator<'_, T> {
    /// Dissemination barrier: `ceil(log2 n)` rounds of pairwise exchange.
    pub fn try_barrier(&mut self) -> Result<(), MpiError> {
        let n = self.size();
        let me = self.rank();
        let tag = self.next_coll_tag(op::BARRIER);
        let mut k = 1;
        while k < n {
            let to = (me + k) % n;
            let from = (me + n - k % n) % n;
            self.send_with_overhead(to, tag | ((k as u64) << 32), &Payload::new())?;
            self.recv_with_overhead(from, tag | ((k as u64) << 32))?;
            k <<= 1;
        }
        Ok(())
    }

    /// Binomial-tree broadcast from `root`. On non-root ranks `data` is
    /// replaced by the received buffer — the root's own allocation on the
    /// in-process fabric, forwarded down the tree as a handle.
    pub fn try_bcast(&mut self, root: usize, data: &mut Payload) -> Result<(), MpiError> {
        let n = self.size();
        if n == 1 {
            return Ok(());
        }
        let me = self.rank();
        let tag = self.next_coll_tag(op::BCAST);
        // Rotate ranks so the tree is rooted at 0.
        let vrank = (me + n - root) % n;
        // Receive from parent (if not root).
        if vrank != 0 {
            // Parent: clear the lowest set bit.
            let parent_v = vrank & (vrank - 1);
            let parent = (parent_v + root) % n;
            *data = self.recv_with_overhead(parent, tag)?;
        }
        // Forward to children: set bits above the lowest set bit.
        let lowest = if vrank == 0 {
            n.next_power_of_two()
        } else {
            vrank & vrank.wrapping_neg()
        };
        let mut k = 1;
        while k < lowest && vrank + k < n {
            let child = (vrank + k + root) % n;
            self.send_with_overhead(child, tag, data)?;
            k <<= 1;
        }
        Ok(())
    }

    /// Linear gather to `root`: returns `Some(per-rank buffers)` on the root
    /// (index = source rank, including the root's own contribution), `None`
    /// elsewhere.
    pub fn try_gather(
        &mut self,
        root: usize,
        data: &Payload,
    ) -> Result<Option<Vec<Payload>>, MpiError> {
        let n = self.size();
        let me = self.rank();
        let tag = self.next_coll_tag(op::GATHER);
        if me == root {
            let mut out = vec![Payload::new(); n];
            out[me] = data.clone();
            self.charge_pack(data.len());
            for (r, slot) in out.iter_mut().enumerate() {
                if r != me {
                    *slot = self.recv_with_overhead(r, tag)?;
                }
            }
            Ok(Some(out))
        } else {
            self.send_with_overhead(root, tag, data)?;
            Ok(None)
        }
    }

    /// Linear scatter from `root`: the root supplies one buffer per rank
    /// (`parts[r]` goes to rank `r`); every rank returns its part.
    ///
    /// # Panics
    /// Panics on caller errors: the root does not supply exactly `size()`
    /// parts, or a non-root supplies parts.
    pub fn try_scatter(
        &mut self,
        root: usize,
        parts: Option<&[Payload]>,
    ) -> Result<Payload, MpiError> {
        let n = self.size();
        let me = self.rank();
        let tag = self.next_coll_tag(op::SCATTER);
        if me == root {
            let parts = parts.expect("root must supply scatter parts");
            assert_eq!(parts.len(), n, "scatter needs one part per rank");
            for (r, part) in parts.iter().enumerate() {
                if r != me {
                    self.send_with_overhead(r, tag, part)?;
                }
            }
            self.charge_pack(parts[me].len());
            Ok(parts[me].clone())
        } else {
            assert!(parts.is_none(), "non-root ranks supply no parts");
            self.recv_with_overhead(root, tag)
        }
    }

    /// Ring allgather: every rank ends with all ranks' buffers, indexed by
    /// source rank.
    pub fn try_allgather(&mut self, data: &Payload) -> Result<Vec<Payload>, MpiError> {
        let n = self.size();
        let me = self.rank();
        let tag = self.next_coll_tag(op::ALLGATHER);
        let mut out = vec![Payload::new(); n];
        out[me] = data.clone();
        self.charge_pack(data.len());
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        // In round r we forward the buffer that originated r hops to the left.
        let mut carry = data.clone();
        for r in 0..n.saturating_sub(1) {
            self.send_with_overhead(right, tag | ((r as u64) << 32), &carry)?;
            carry = self.recv_with_overhead(left, tag | ((r as u64) << 32))?;
            let origin = (me + n - (r + 1)) % n;
            out[origin] = carry.clone();
        }
        Ok(out)
    }

    /// Binomial-tree reduction of an `f32` vector to `root`; returns
    /// `Some(result)` on the root.
    ///
    /// # Panics
    /// Panics if ranks supply different lengths.
    pub fn try_reduce_f32(
        &mut self,
        root: usize,
        data: &[f32],
        op_: ReduceOp,
    ) -> Result<Option<Vec<f32>>, MpiError> {
        let n = self.size();
        let me = self.rank();
        let tag = self.next_coll_tag(op::REDUCE);
        let vrank = (me + n - root) % n;
        let mut acc = data.to_vec();
        // Receive from children (highest offset first mirrors bcast).
        let lowest = if vrank == 0 {
            n.next_power_of_two()
        } else {
            vrank & vrank.wrapping_neg()
        };
        let mut offsets = Vec::new();
        let mut k = 1;
        while k < lowest && vrank + k < n {
            offsets.push(k);
            k <<= 1;
        }
        for k in offsets.into_iter().rev() {
            let child = (vrank + k + root) % n;
            let m = self.recv_with_overhead(child, tag)?;
            let x = typed::bytes_to_f32(&m);
            assert_eq!(x.len(), acc.len(), "reduce length mismatch");
            op_.fold(&mut acc, &x);
        }
        if vrank == 0 {
            Ok(Some(acc))
        } else {
            let parent_v = vrank & (vrank - 1);
            let parent = (parent_v + root) % n;
            self.send_with_overhead(parent, tag, &Payload::from_vec(typed::f32_to_bytes(&acc)))?;
            Ok(None)
        }
    }

    /// Allreduce = reduce to rank 0 + broadcast.
    pub fn try_allreduce_f32(&mut self, data: &[f32], op_: ReduceOp) -> Result<Vec<f32>, MpiError> {
        let reduced = self.try_reduce_f32(0, data, op_)?;
        let mut buf = match reduced {
            Some(v) => Payload::from_vec(typed::f32_to_bytes(&v)),
            None => Payload::new(),
        };
        self.try_bcast(0, &mut buf)?;
        Ok(typed::bytes_to_f32(&buf))
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::{Communicator, MpiConfig, ReduceOp};
    use crate::typed;
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

    fn on_cluster<R: Send>(n: usize, f: impl Fn(&mut Communicator) -> R + Sync) -> Vec<R> {
        let cluster = Cluster::new(machine(n), TimePolicy::Virtual);
        let (r, _) = cluster.run(|ctx| {
            let mut comm = Communicator::new(ctx, MpiConfig::generic());
            f(&mut comm)
        });
        r
    }

    #[test]
    fn barrier_completes_all_sizes() {
        for n in [1usize, 2, 3, 4, 5, 8] {
            on_cluster(n, |c| {
                c.try_barrier().expect("fault-free");
                c.try_barrier().expect("fault-free");
            });
        }
    }

    #[test]
    fn bcast_delivers_to_all_from_any_root() {
        for n in [1usize, 2, 3, 4, 7, 8] {
            for root in [0, n - 1, n / 2] {
                let r = on_cluster(n, move |c| {
                    let mut data = if c.rank() == root {
                        Payload::from_vec(vec![7u8, 8, 9])
                    } else {
                        Payload::new()
                    };
                    c.try_bcast(root, &mut data).expect("fault-free");
                    data
                });
                for (rank, d) in r.iter().enumerate() {
                    assert_eq!(d, &vec![7u8, 8, 9], "n={n} root={root} rank={rank}");
                }
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let r = on_cluster(4, |c| {
            c.try_gather(2, &Payload::from_vec(vec![c.rank() as u8; 2]))
                .expect("fault-free")
        });
        for (rank, res) in r.iter().enumerate() {
            if rank == 2 {
                let got = res.as_ref().unwrap();
                for (src, buf) in got.iter().enumerate() {
                    assert_eq!(buf, &vec![src as u8; 2]);
                }
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn scatter_distributes_parts() {
        let r = on_cluster(4, |c| {
            if c.rank() == 1 {
                let parts: Vec<Payload> = (0..4)
                    .map(|i| Payload::from_vec(vec![i as u8; 3]))
                    .collect();
                c.try_scatter(1, Some(&parts))
            } else {
                c.try_scatter(1, None)
            }
            .expect("fault-free")
        });
        for (rank, part) in r.iter().enumerate() {
            assert_eq!(part, &vec![rank as u8; 3]);
        }
    }

    #[test]
    fn allgather_everyone_sees_everything() {
        for n in [1usize, 2, 3, 5, 8] {
            let r = on_cluster(n, |c| {
                c.try_allgather(&Payload::from_vec(vec![c.rank() as u8 + 10]))
                    .expect("fault-free")
            });
            for all in &r {
                assert_eq!(all.len(), n);
                for (src, buf) in all.iter().enumerate() {
                    assert_eq!(buf, &vec![src as u8 + 10], "n={n}");
                }
            }
        }
    }

    #[test]
    fn reduce_sum_and_max() {
        let r = on_cluster(5, |c| {
            let mine = vec![c.rank() as f32, 1.0];
            c.try_reduce_f32(0, &mine, ReduceOp::Sum)
                .expect("fault-free")
        });
        assert_eq!(
            r[0].as_ref().unwrap(),
            &vec![0.0 + 1.0 + 2.0 + 3.0 + 4.0, 5.0]
        );
        let r = on_cluster(5, |c| {
            let mine = vec![c.rank() as f32];
            c.try_reduce_f32(3, &mine, ReduceOp::Max)
                .expect("fault-free")
        });
        assert_eq!(r[3].as_ref().unwrap(), &vec![4.0]);
    }

    #[test]
    fn allreduce_matches_on_all_ranks() {
        let r = on_cluster(6, |c| {
            c.try_allreduce_f32(&[c.rank() as f32, -(c.rank() as f32)], ReduceOp::Sum)
                .expect("fault-free")
        });
        for v in &r {
            assert_eq!(v, &vec![15.0, -15.0]);
        }
    }

    #[test]
    fn typed_round_trip() {
        let v = vec![1.5f32, -2.25, 0.0];
        assert_eq!(typed::bytes_to_f32(&typed::f32_to_bytes(&v)), v);
    }

    #[test]
    fn consecutive_collectives_do_not_collide() {
        // Two different collectives back-to-back with the same participants:
        // the sequence-numbered tag space must keep them separate.
        let r = on_cluster(4, |c| {
            let a = c
                .try_allgather(&Payload::from_vec(vec![c.rank() as u8]))
                .expect("fault-free");
            c.try_barrier().expect("fault-free");
            let b = c
                .try_allgather(&Payload::from_vec(vec![(c.rank() * 2) as u8]))
                .expect("fault-free");
            (a[3][0], b[3][0])
        });
        for v in &r {
            assert_eq!(*v, (3u8, 6u8));
        }
    }
}

#[cfg(test)]
mod variable_size_tests {
    use crate::comm::{Communicator, MpiConfig};
    use sage_fabric::{Cluster, LinkSpec, MachineSpec, NodeSpec, Payload, TimePolicy};

    #[test]
    fn gather_and_scatter_handle_variable_sizes() {
        // gatherv/scatterv semantics come for free: buffers are length-
        // prefixed messages, so each rank may contribute a different size.
        let machine = MachineSpec::uniform(
            "t",
            4,
            NodeSpec {
                flops_per_sec: 1.0e9,
                mem_bw: 1.0e9,
            },
            LinkSpec {
                bandwidth: 1.0e8,
                latency: 10.0e-6,
            },
        );
        let cluster = Cluster::new(machine, TimePolicy::Virtual);
        cluster.run(|ctx| {
            let me = ctx.id();
            let mut comm = Communicator::new(ctx, MpiConfig::generic());
            // Rank r contributes r+1 bytes.
            let mine = Payload::from_vec(vec![me as u8; me + 1]);
            let gathered = comm.try_gather(0, &mine).expect("fault-free");
            let parts = if me == 0 {
                let parts = gathered.unwrap();
                for (r, p) in parts.iter().enumerate() {
                    assert_eq!(p, &vec![r as u8; r + 1]);
                }
                // Scatter back doubled-size parts.
                let doubled: Vec<Payload> = (0..4)
                    .map(|r| Payload::from_vec(vec![r as u8; 2 * (r + 1)]))
                    .collect();
                comm.try_scatter(0, Some(&doubled))
            } else {
                comm.try_scatter(0, None)
            }
            .expect("fault-free");
            assert_eq!(parts, vec![me as u8; 2 * (me + 1)]);
        });
    }
}
