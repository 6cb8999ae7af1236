//! # sage-net
//!
//! Real multi-process distribution for the SAGE run-time kernel: each rank
//! of a generated glue program runs in its own OS process, communicating
//! over TCP instead of in-process channels.
//!
//! The paper's run-time executed across physically distributed CSPI nodes
//! on a Myrinet fabric; the in-process cluster (`sage-fabric`) reproduces
//! the *semantics* of that on one host. This crate reproduces the
//! *distribution*: the same executor (`sage_runtime::execute_rank`), the
//! same MPI layer, the same generated schedules — over real sockets, via
//! the [`sage_fabric::Transport`] seam.
//!
//! * [`wire`] — the framed wire protocol: 44-byte header (magic, version,
//!   kind, tag, src/dst rank, **job namespace**, sequence number, length)
//!   plus an FNV-1a-32 whole-frame checksum; every decode failure is a
//!   typed [`WireError`].
//! * [`codec`] — the control-plane schema language: the [`codec::Wire`]
//!   trait and the `wire_struct!` / `wire_enum!` declarators that derive a
//!   record's encoder and decoder from one field list (shared with
//!   `sage-fleet`); its docs give the recipe for changing a layout.
//! * `mesh` — the endpoint as a sans-I/O state machine: frame reassembly,
//!   sequence checks, the `(job, src, tag)` mailbox, heartbeat liveness (a
//!   silent peer is declared dead after `max_retries + 2` missed beats) —
//!   bytes and the time in, deliveries and verdicts out.
//! * [`transport`] — its driver: [`MeshCore`] (full-mesh establishment with
//!   retry/backoff, a **single I/O thread** per endpoint blocked in
//!   `poll(2)` on the peer sockets), [`JobTransport`] (a per-job
//!   rank-namespace view over a shared warm core, for the fleet), and
//!   [`TcpTransport`] (a one-job wrapper over a private core), all feeding
//!   [`sage_fabric::LinkMetrics`].
//! * [`poll`] — `poll(2)` behind a safe wrapper: the crate's only `unsafe`,
//!   and what every wait in the mesh and the scheduler's accept loop
//!   blocks in instead of sleeping.
//! * [`proto`] — the control-plane payloads: [`JobParams`] (the one
//!   description of a job every job message embeds) and [`RankReport`]
//!   (what each rank sends back), each declared once, under an explicit
//!   protocol version.
//! * [`worker`] — what a rank does before it executes: regenerate the glue
//!   program from the model text and bind kernels ([`prepare_job`]).
//! * [`launch`] — [`merge_outcomes`]: fold per-rank reports into one
//!   outcome, root-cause error first.
//!
//! The daemon, scheduler and launcher that speak this protocol live in
//! `sage-fleet`; this crate has no process of its own.
//!
//! Parity bar: a model executed over TCP produces sink output bit-identical
//! to the in-process backend — kernels compute the same bytes either way;
//! only the wire underneath changes.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod codec;
pub mod error;
pub mod launch;
mod mesh;
#[allow(unsafe_code)]
pub mod poll;
pub mod proto;
pub mod transport;
pub mod wire;
pub mod worker;

pub use error::{NetError, RejectReason};
pub use launch::{merge_outcomes, LaunchOutcome};
pub use proto::{JobParams, RankReport, PROTO_VERSION};
pub use transport::{JobTransport, MeshCore, NetConfig, TcpTransport};
pub use wire::{Frame, FrameKind, WireError};
pub use worker::{failed_report, generate_job, prepare_job};
