//! # sage-fabric
//!
//! The COTS multicomputer substrate the paper's experiments ran on — built
//! in software, since the original testbed (CSPI quad-PowerPC-603e boards on
//! a 160 MB/s Myrinet fabric under VxWorks) is not available.
//!
//! A [`cluster::Cluster`] runs one OS thread per compute node; nodes exchange
//! reference-counted [`Payload`]s through per-node mailboxes, and a node
//! program talks only through its context's [`Transport`] implementation.
//! Timing is pluggable
//! ([`clock::TimePolicy`]):
//!
//! * **Real** — wall-clock timing of genuinely parallel execution; used for
//!   functional verification and for single-host measurements.
//! * **Virtual** — every node carries a deterministic virtual clock.
//!   Computation charges `flops / node_flops_rate + bytes / memory_bandwidth`
//!   ([`machine::Work`]); messages charge sender-NIC serialization plus
//!   `latency + bytes/bandwidth` (a LogP-style model, contention serialized
//!   at the sending NIC). Virtual results are bit-identical across runs, so
//!   the node-count sweeps of Table 1.0 are reproducible on a single-core
//!   host.
//!
//! [`machine::MachineSpec`] captures per-node compute rates and pairwise
//! link characteristics, and can be derived from a Designer hardware model
//! ([`machine::MachineSpec::from_hardware`]).
//!
//! ```
//! use sage_fabric::{
//!     Cluster, FabricError, LinkSpec, MachineSpec, NodeSpec, Payload, TimePolicy, Transport, Work,
//! };
//!
//! let machine = MachineSpec::uniform(
//!     "demo",
//!     2,
//!     NodeSpec { flops_per_sec: 1.0e9, mem_bw: 1.0e9 },
//!     LinkSpec { bandwidth: 1.0e8, latency: 10.0e-6 },
//! );
//! let cluster = Cluster::new(machine, TimePolicy::Virtual);
//! let (results, report) = cluster.run(|ctx| {
//!     if ctx.id() == 0 {
//!         ctx.compute(Work::flops(1.0e9)); // 1 virtual second of math
//!         ctx.try_send(1, 0, &Payload::from(b"done"))?;
//!         Ok::<f64, FabricError>(0.0)
//!     } else {
//!         ctx.try_recv(0, 0)?;
//!         Ok(ctx.clock()) // arrival time: 1 s + wire time
//!     }
//! });
//! assert!(matches!(results[1], Ok(t) if t > 1.0));
//! assert!(report.makespan > 1.0);
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod cluster;
pub mod fault;
pub mod machine;
pub mod metrics;
pub mod payload;
pub mod transport;

pub use clock::TimePolicy;
pub use cluster::{Cluster, NodeCtx, RunReport};
pub use fault::{FabricError, FaultPlan, KernelFault, LinkDegradation, NodeFault, NodeFaultKind};
pub use machine::{LinkSpec, MachineSpec, NodeSpec, Work};
pub use metrics::{FabricMetrics, LinkMetrics, NodeMetrics};
pub use payload::Payload;
pub use transport::Transport;
