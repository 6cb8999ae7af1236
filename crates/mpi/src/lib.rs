//! # sage-mpi
//!
//! The message-passing calls the hand-coded baseline makes, standing in for
//! the vendor MPI implementations of the paper's testbeds ("high
//! performance-computing vendors developed their own MPI implementation
//! optimized for their hardware", §3.1).
//!
//! The paper names one collective — "the `MPI_All_to_All` function; each
//! vendor implemented their own version tailored to their respective
//! hardware" — and that is the one a [`Communicator`] offers:
//! [`Communicator::try_alltoall`], the communication core of the distributed
//! corner turn, over any [`sage_fabric::Transport`] rank. It is fault-aware
//! (returns [`MpiError`]) and carries [`sage_fabric::Payload`] handles, so
//! the baseline moves bytes over exactly the path the SAGE run-time does;
//! [`send_with_retry`] is the retry loop both share, and it and
//! [`RECV_OVERHEAD`] are the one vendor-tuned per-message software cost both
//! charge. Peers are named explicitly (no wildcard receives), so
//! virtual-time runs are deterministic.
//!
//! ```
//! use sage_fabric::{Cluster, LinkSpec, MachineSpec, NodeSpec, Payload, TimePolicy};
//! use sage_mpi::Communicator;
//!
//! let machine = MachineSpec::uniform(
//!     "demo", 4,
//!     NodeSpec { flops_per_sec: 1.0e9, mem_bw: 1.0e9 },
//!     LinkSpec { bandwidth: 1.0e8, latency: 10.0e-6 },
//! );
//! let (got, _) = Cluster::new(machine, TimePolicy::Virtual).run(|ctx| {
//!     let mut comm = Communicator::new(ctx);
//!     let me = comm.rank() as u8;
//!     let blocks: Vec<Payload> = (0..4).map(|dst| Payload::from_vec(vec![me, dst])).collect();
//!     comm.try_alltoall(&blocks)
//! });
//! // Rank 2's block from rank 3 is the one rank 3 addressed to rank 2.
//! assert_eq!(got[2].as_ref().unwrap()[3], vec![3u8, 2]);
//! ```

#![warn(missing_docs)]

pub mod alltoall;
pub mod comm;
pub mod error;

pub use comm::{send_with_retry, Communicator, RECV_OVERHEAD};
pub use error::MpiError;

#[cfg(test)]
mod testing {
    use sage_fabric::{LinkSpec, MachineSpec, NodeSpec};

    /// The `n`-node machine every unit test of this crate runs on.
    pub(crate) fn machine(n: usize) -> MachineSpec {
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
}
