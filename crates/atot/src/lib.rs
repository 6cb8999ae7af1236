//! # sage-atot
//!
//! **AToT** — the SAGE *Architecture Trades and Optimization Tool*.
//!
//! Paper §1.1: "After the architecture trades process has determined a
//! target hardware architecture, the genetic algorithm based partitioning
//! and mapping capability of AToT assigns the application tasks to the
//! multi-processor, heterogeneous architecture. AToT can be employed for
//! total design optimization, which includes load balancing of CPU
//! resources, optimizing over latency constraints, communication
//! minimization and scheduling of CPUs and busses."
//!
//! * [`taskgraph`] — expands a flattened Designer model into the task graph
//!   AToT optimizes over (one task per function thread, edges weighted with
//!   estimated redistribution bytes);
//! * [`schedule`] — a communication-aware list scheduler that estimates the
//!   makespan of a candidate mapping (the fitness oracle);
//! * [`ga`] — the genetic algorithm mapper (tournament selection, uniform
//!   crossover, elitism; deterministic under a seed);
//! * [`baselines`] — round-robin / random / greedy-load / aligned mappers
//!   used as comparison points;
//! * [`trades`] — architecture trade studies sweeping platforms and node
//!   counts.

#![warn(missing_docs)]

pub mod baselines;
pub mod ga;
pub mod schedule;
pub mod taskgraph;
pub mod trades;

pub use ga::{GaConfig, GaResult};
pub use schedule::{ScheduleEstimate, Scheduler};
pub use taskgraph::{TaskGraph, TaskMapping, TaskSpec};
pub use trades::{TradePoint, TradeStudy};
