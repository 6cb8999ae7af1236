//! # sage-visualizer
//!
//! The **SAGE Visualizer**: "a configurable instrumentation package that
//! enables the designer to visualize the execution of the application
//! through a variety of graphical displays that are fed by probes placed
//! within the generated code. The Visualizer allows the designer to
//! configure the instrumentation probes to measure application performance,
//! and search for problems in the system, such as bottlenecks or violated
//! latency thresholds" (paper §1.1).
//!
//! The glue-code generator plants a [`probe::Probe`] in the run-time's
//! execution paths: the executor is the one place a rank's
//! [`event::ProbeEvent`]s are recorded, into a lane the rank owns (no lock,
//! and no clock read while probes are off). Each rank's lane rides home in
//! its report, and the ranks' lanes merge after the run into a
//! [`trace::Trace`]. Analyses ([`analysis`]) compute the paper's §3.3
//! metrics — **period** ("the time between input data sets") and **latency**
//! ("the time from when the first data leaves the data source to the time
//! the final result is output to the data sink") — plus utilization,
//! bottleneck ranking, and latency-threshold violations. Displays are
//! textual: an ASCII Gantt chart ([`gantt`]) and CSV export ([`export`]).

#![warn(missing_docs)]

pub mod analysis;
pub mod event;
pub mod export;
pub mod gantt;
pub mod probe;
pub mod report;
pub mod trace;

pub use analysis::{Analysis, Bottleneck, LatencyViolation};
pub use event::{EventKind, ProbeEvent};
pub use probe::Probe;
pub use trace::Trace;
