//! Conformance property test: the distributed all-to-all must agree with a
//! naive single-rank reference computed directly from the inputs, on
//! power-of-two (XOR schedule) and general (ring-shift) communicator sizes.

use proptest::prelude::*;
use sage_fabric::{Cluster, LinkSpec, MachineSpec, NodeSpec, Payload, TimePolicy};
use sage_mpi::Communicator;

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

/// The block rank `src` sends to rank `dst`: deterministic bytes every rank
/// (and the reference) can regenerate independently.
fn block(seed: u64, src: usize, dst: usize, len: usize) -> Payload {
    (0..len)
        .map(|i| (seed as usize ^ (src * 7919) ^ (dst * 104729) ^ (i * 131)) as u8)
        .collect::<Vec<u8>>()
        .into()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rank `i`'s output block `j` must be exactly the block rank `j`
    /// offered at index `i` — checked against blocks regenerated outside
    /// the cluster.
    #[test]
    fn alltoall_matches_reference(
        n in 2usize..=6,
        len in 0usize..48,
        seed in 0u64..=u64::MAX,
    ) {
        let (out, _) = Cluster::new(machine(n), TimePolicy::Virtual).run(|ctx| {
            let mut c = Communicator::new(ctx);
            let blocks: Vec<Payload> =
                (0..n).map(|dst| block(seed, c.rank(), dst, len)).collect();
            c.try_alltoall(&blocks).expect("fault-free")
        });
        for (i, recv) in out.iter().enumerate() {
            prop_assert_eq!(recv.len(), n);
            for (j, buf) in recv.iter().enumerate() {
                prop_assert_eq!(buf, &block(seed, j, i, len), "rank {} block from {} (n={})", i, j, n);
            }
        }
    }
}
