//! Conformance property tests: every distributed collective must agree with
//! a naive single-rank reference computed directly from the inputs, for both
//! the generic and the vendor-tuned configuration.
//!
//! Reductions use integer-valued `f32` payloads so the reference is exact
//! regardless of the tree's fold order (integers of this size are exact in
//! `f32`, so sum order cannot change the result).

use proptest::prelude::*;
use sage_fabric::{Cluster, LinkSpec, MachineSpec, NodeSpec, Payload, TimePolicy};
use sage_mpi::{Communicator, MpiConfig, ReduceOp};

fn machine(n: usize) -> MachineSpec {
    MachineSpec::uniform(
        "conformance",
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

fn on_cluster<R: Send>(
    n: usize,
    config: MpiConfig,
    f: impl Fn(&mut Communicator) -> R + Sync,
) -> Vec<R> {
    let cluster = Cluster::new(machine(n), TimePolicy::Virtual);
    let (r, _) = cluster.run(|ctx| {
        let mut comm = Communicator::new(ctx, config);
        f(&mut comm)
    });
    r
}

fn configs() -> impl Strategy<Value = MpiConfig> {
    prop_oneof![Just(MpiConfig::generic()), Just(MpiConfig::vendor_tuned())]
}

/// The block rank `src` sends to rank `dst`: deterministic bytes every rank
/// (and the reference) can regenerate independently.
fn block(seed: u64, src: usize, dst: usize, len: usize) -> Payload {
    (0..len)
        .map(|i| (seed as usize ^ (src * 7919) ^ (dst * 104729) ^ (i * 131)) as u8)
        .collect::<Vec<u8>>()
        .into()
}

/// Rank `rank`'s reduction operand: integer-valued f32s, exact under any
/// fold order.
fn operand(seed: u64, rank: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((rank * 1000 + i) as u64);
            ((h >> 32) as i64 % 1000) as f32
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `alltoall`: rank `i`'s output block `j` must be exactly the block
    /// rank `j` offered at index `i` — checked against blocks regenerated
    /// outside the cluster.
    #[test]
    fn alltoall_matches_reference(
        n in 2usize..=6,
        len in 0usize..48,
        seed in 0u64..=u64::MAX,
        config in configs(),
        tuned in prop_oneof![Just(false), Just(true)],
    ) {
        let out = on_cluster(n, config, |c| {
            let blocks: Vec<Payload> =
                (0..n).map(|dst| block(seed, c.rank(), dst, len)).collect();
            if tuned {
                c.try_alltoall_tuned(&blocks)
            } else {
                c.try_alltoall(&blocks)
            }
            .expect("fault-free")
        });
        for (i, recv) in out.iter().enumerate() {
            prop_assert_eq!(recv.len(), n);
            for (j, buf) in recv.iter().enumerate() {
                prop_assert_eq!(
                    buf,
                    &block(seed, j, i, len),
                    "rank {} block from {} (n={}, tuned={})",
                    i, j, n, tuned
                );
            }
        }
    }

    /// Bruck's algorithm must deliver the identical permutation.
    #[test]
    fn alltoall_bruck_matches_reference(
        n in 2usize..=6,
        len in 1usize..32,
        seed in 0u64..=u64::MAX,
        config in configs(),
    ) {
        let out = on_cluster(n, config, |c| {
            let blocks: Vec<Payload> =
                (0..n).map(|dst| block(seed, c.rank(), dst, len)).collect();
            c.try_alltoall_bruck(&blocks).expect("fault-free")
        });
        for (i, recv) in out.iter().enumerate() {
            for (j, buf) in recv.iter().enumerate() {
                prop_assert_eq!(buf, &block(seed, j, i, len), "rank {} from {}", i, j);
            }
        }
    }

    /// `reduce_f32` to every root must equal the naive fold of all operands
    /// on a single rank, for Sum/Max/Min.
    #[test]
    fn reduce_matches_naive_reference(
        n in 2usize..=6,
        len in 1usize..16,
        seed in 0u64..=u64::MAX,
        config in configs(),
        op in prop_oneof![Just(ReduceOp::Sum), Just(ReduceOp::Max), Just(ReduceOp::Min)],
        root_pick in 0usize..6,
    ) {
        let root = root_pick % n;
        let mut expect = operand(seed, 0, len);
        for r in 1..n {
            op.fold(&mut expect, &operand(seed, r, len));
        }
        let out = on_cluster(n, config, |c| {
            c.try_reduce_f32(root, &operand(seed, c.rank(), len), op)
                .expect("fault-free")
        });
        for (rank, res) in out.iter().enumerate() {
            if rank == root {
                prop_assert_eq!(res.as_ref().unwrap(), &expect, "root {} (n={})", root, n);
            } else {
                prop_assert!(res.is_none(), "non-root rank {} returned a result", rank);
            }
        }
    }

    /// `allreduce_f32` must give every rank the same naive-reference result.
    #[test]
    fn allreduce_matches_naive_reference(
        n in 2usize..=6,
        len in 1usize..16,
        seed in 0u64..=u64::MAX,
        config in configs(),
        op in prop_oneof![Just(ReduceOp::Sum), Just(ReduceOp::Max), Just(ReduceOp::Min)],
    ) {
        let mut expect = operand(seed, 0, len);
        for r in 1..n {
            op.fold(&mut expect, &operand(seed, r, len));
        }
        let out = on_cluster(n, config, |c| {
            c.try_allreduce_f32(&operand(seed, c.rank(), len), op)
                .expect("fault-free")
        });
        for (rank, res) in out.iter().enumerate() {
            prop_assert_eq!(res, &expect, "rank {} (n={})", rank, n);
        }
    }
}
