//! # sage-fleet
//!
//! The distributed job path for the SAGE run-time: long-lived worker
//! daemons keep their TCP mesh warm across jobs, and a scheduler
//! multiplexes many concurrent jobs over that one fabric.
//!
//! The paper's run-time infrastructure assumed a *standing* machine — CSPI
//! nodes that boot once and then serve application after application — with
//! one kernel on every node, configured only by the generated tables. So
//! there is one daemon and one control protocol here: a standing fleet pays
//! mesh setup once and amortizes it over every job it serves, and
//! `sage launch` is the same fleet stood up for exactly one job.
//!
//! * [`worker`] — the `sage fleet` daemon: one mesh endpoint
//!   ([`sage_net::MeshCore`]), many concurrent jobs, each over a
//!   job-scoped [`sage_net::JobTransport`] (the wire header's job field
//!   keeps their traffic separate on shared links). Each rank regenerates
//!   its glue program from the shipped model text — the model front end
//!   enters the distributed path here, not in `sage-net` — and answers
//!   with one `sage_runtime::RankReport`.
//! * [`sched`] — the `sage sched` scheduler: a sans-I/O core deciding
//!   typed admission (version, drain state, fleet size, bounded queue),
//!   least-loaded rank placement and per-job/per-tenant accounting, under
//!   a driver that owns the sockets and threads; dispatch runs on the event
//!   that frees capacity, and drain is graceful.
//! * [`proto`] — the control plane both ends speak ([`FleetMsg`]), with
//!   explicit version exchange up front.
//! * [`metrics`] — the service-level counters ([`FleetStats`]).
//! * [`client`] — what `sage submit` / `sage fleet drain` /
//!   `sage fleet stats` call.
//! * [`launch`](mod@launch) — the `sage launch` body: spawn daemons, submit
//!   one job through an in-process scheduler, drain, and fold the reports
//!   with `sage_runtime::Execution::merge` — the same merge, and the same
//!   `Execution`, an in-process run ends in.
//!
//! Parity bar: a job through the fleet produces sink output bit-identical
//! to the same model on the in-process backend — the fleet changes job
//! *delivery*, never job *results*.

#![warn(missing_docs)]
// `clippy.toml`'s thread and timer list, for the library; Cargo.toml
// leaves the lint off for the integration tests.
#![deny(clippy::disallowed_methods)]

pub mod client;
pub mod launch;
pub mod metrics;
pub mod proto;
pub mod sched;
pub mod worker;

pub use client::{drain_fleet, fleet_stats, parse_sched_banner, submit};
pub use launch::{launch, spawn_daemons, LaunchOptions, Spawner};
pub use metrics::{FleetStats, TenantStats};
pub use proto::{FleetJob, FleetMsg, SubmitSpec};
pub use sage_net::JobParams;
pub use sched::{serve_sched, JobOutcome, SchedConfig, SchedState, Scheduler};
pub use worker::{parse_fleet_banner, run_fleet_job, serve_fleet, CHAOS_EXIT_ENV};
