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
//!   plus a word-lane whole-frame checksum, and the one frame assembler
//!   that collects a frame from any reader with its payload in place;
//!   every decode failure is a typed [`WireError`].
//! * [`codec`] — the control-plane schema language: the [`codec::Wire`]
//!   trait and the `wire_struct!` / `wire_enum!` declarators that derive a
//!   record's encoder and decoder from one field list (shared with
//!   `sage-fleet`); its docs give the recipe for changing a layout.
//! * `mesh` — the endpoint as a sans-I/O core under a [`Driver`]: Hello
//!   validation, per-link sequence checks, the `(job, src, tag)` mailbox,
//!   the receive verdict (a silent peer is declared dead after 12 missed
//!   beats), the send verdict and the I/O pass — bytes and the time in,
//!   deliveries and verdicts out.
//! * [`transport`] — the endpoint and its job views, generic over the
//!   driver, and the socket driver [`Sockets`]: [`MeshCore`] (full-mesh
//!   establishment, connect retry/backoff, a **single I/O thread** per
//!   endpoint blocked in `poll(2)` on the peer sockets), [`JobTransport`]
//!   (a per-job rank-namespace view over a shared warm core, for the
//!   fleet), and [`TcpTransport`] (one job over a private core), all
//!   feeding [`sage_fabric::LinkMetrics`]. The dev-only `sage-simnet`
//!   crate is the other driver: a seeded simulator the same core runs
//!   whole jobs under.
//! * [`poll`] — `poll(2)` behind a safe wrapper: the crate's only `unsafe`,
//!   and what every wait in the mesh and the scheduler's accept loop
//!   blocks in instead of sleeping.
//! * [`proto`] — the control-plane payloads: [`JobParams`] (the one
//!   description of a job every job message embeds) and the wire layout of
//!   `sage_runtime::RankReport` (what each rank sends back), each declared
//!   once, under an explicit protocol version.
//!
//! This crate is transport only: it moves bytes and reports and never sees
//! a model. The daemon, scheduler and launcher that speak this protocol —
//! and the model front end a rank regenerates its program with — live in
//! `sage-fleet`; a run's reports are merged by
//! `sage_runtime::Execution::merge`, as on the in-process backend.
//!
//! Parity bar: a model executed over TCP produces sink output bit-identical
//! to the in-process backend — kernels compute the same bytes either way;
//! only the wire underneath changes.

#![warn(missing_docs)]

pub mod codec;
pub mod error;
mod mesh;
// The crate's one `unsafe` block: the `poll(2)` call.
#[allow(unsafe_code)]
pub mod poll;
pub mod proto;
pub mod transport;
pub mod wire;

pub use error::{NetError, RejectReason};
pub use mesh::{Driver, IoPass};
pub use proto::{JobParams, PROTO_VERSION};
pub use transport::{JobTransport, MeshCore, NetConfig, Sockets, TcpTransport};
pub use wire::{Frame, FrameKind, WireError};
