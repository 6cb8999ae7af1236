//! # sage-runtime
//!
//! The **SAGE run-time kernel**: "responsible for all sequencing of
//! functions, data striping, and buffer management" (paper §2).
//!
//! * [`glue`] — the generated "run-time source files" in executable form:
//!   the function table (IDs `0..N-1`, the index of each descriptor), the
//!   logical buffer table (striding information, total buffer size before
//!   striding, thread information), and per-node schedules;
//! * [`striping`] — the port-striping engine: replicated and striped thread
//!   layouts, and the redistribution plans between them (a
//!   row-striped-to-column-striped connection *is* the corner turn);
//! * [`function`] — the kernel ABI and registry binding function-table
//!   entries to shelf kernels;
//! * [`options`] — buffer-management schemes: the paper's
//!   unique-logical-buffer-per-function scheme and the improved shared
//!   scheme ("work underway ... to reach 90% of hand-coded");
//! * [`executor`] — the per-node scheduler that issues schedule slots
//!   (in order, or streamed under credit backpressure), assembles stripes,
//!   dispatches kernels, and transmits outputs, on either the real or
//!   virtual clock;
//! * [`race`] — the vector-clock race detector that cross-validates the
//!   static `sage race` happens-before proofs at run time;
//! * [`report`] — how a run reads back on every backend: one
//!   [`RankReport`] per rank, folded by [`Execution::merge`] into the one
//!   [`Execution`], root-cause error first.

#![warn(missing_docs)]

pub mod executor;
pub mod function;
pub mod glue;
pub mod options;
pub mod race;
pub mod report;
pub mod striping;

pub use executor::{
    execute, execute_rank, fabric_to_runtime, prepare, CreditGroup, Deposit, Edge, Prepared,
    RankOutcome, SinkResults, StreamStats, TaskEdges,
};
pub use function::{FnThreadCtx, Kernel, Registry, RuntimeError, StripePayload};
pub use glue::{FnRole, FunctionDescriptor, GlueProgram, LogicalBufferDesc, Task};
pub use options::{BufferScheme, IssuePolicy, RuntimeOptions};
pub use race::{fnv1a_64, PortAccess, RaceState};
pub use report::{Execution, RankReport};
pub use striping::{CopyOp, Layout, PairOps, Redistribution};
