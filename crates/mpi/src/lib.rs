//! # sage-mpi
//!
//! An MPI-like message-passing layer over the SAGE fabric, standing in for
//! the vendor MPI implementations of the paper's testbeds ("high
//! performance-computing vendors developed their own MPI implementation
//! optimized for their hardware", §3.1).
//!
//! A [`Communicator`] wraps any [`sage_fabric::Transport`] rank and provides
//! point-to-point sends/receives plus the collectives the benchmarks need:
//! barrier, broadcast, scatter/gather, allgather, reduce/allreduce, and —
//! crucially for the distributed corner turn — **all-to-all** in two
//! flavours:
//!
//! * [`Communicator::try_alltoall`] — the generic pairwise-exchange
//!   algorithm with the portable per-message software overhead and an
//!   explicit packing copy, and
//! * [`Communicator::try_alltoall_tuned`] — the "vendor-tuned
//!   `MPI_All_to_All`" of the paper: lower per-message overhead and
//!   DMA-style gather/scatter (no packing copy charge).
//!
//! Every operation is fault-aware (one `try_*` form, returning
//! [`MpiError`]) and carries [`sage_fabric::Payload`] handles, so the
//! hand-coded baseline moves bytes over exactly the path the SAGE run-time
//! does; [`send_with_retry`] is the retry loop both share. All collectives
//! name their peers explicitly (no wildcard receives), so virtual-time runs
//! are deterministic.
//!
//! ```
//! use sage_fabric::{Cluster, LinkSpec, MachineSpec, NodeSpec, TimePolicy};
//! use sage_mpi::{Communicator, MpiConfig, ReduceOp};
//!
//! let machine = MachineSpec::uniform(
//!     "demo", 4,
//!     NodeSpec { flops_per_sec: 1.0e9, mem_bw: 1.0e9 },
//!     LinkSpec { bandwidth: 1.0e8, latency: 10.0e-6 },
//! );
//! let (sums, _) = Cluster::new(machine, TimePolicy::Virtual).run(|ctx| {
//!     let mut comm = Communicator::new(ctx, MpiConfig::generic());
//!     comm.try_allreduce_f32(&[comm.rank() as f32], ReduceOp::Sum)
//! });
//! assert!(sums.iter().all(|s| s == &Ok(vec![6.0]))); // 0+1+2+3 on every rank
//! ```

#![warn(missing_docs)]

pub mod alltoall;
pub mod collective;
pub mod comm;
pub mod error;
pub mod typed;

pub use comm::{send_with_retry, Communicator, MpiConfig, ReduceOp, RetryPolicy};
pub use error::MpiError;
