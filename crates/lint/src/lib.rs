//! # sage-lint
//!
//! The diagnostics engine plus static analysis of SAGE's **inputs**:
//! everything that can be checked before a glue program exists, reported
//! with stable `SAGE0xx` codes, severities, source spans, rustc-style
//! rendering, and machine-readable JSON.
//!
//! [`lint_model`] / [`lint_mapping`] check **model and mapping
//! consistency** beyond first-error-wins validation: every Designer error
//! at once, cycle paths, striping-vs-node-count divisibility, idle nodes,
//! bulky fan-out, mapping coverage and range. [`ModelSpans`] maps what
//! they find back to the model file's text.
//!
//! Every pass over the *generated program* — the communication-deadlock
//! detector included — lives in `sage-check` and reports through the
//! [`Diagnostics`] defined here; this crate never sees a glue program and
//! does not depend on the run-time.
//!
//! The paper's pitch is that generated glue code removes a class of manual
//! integration errors; this crate closes the loop by rejecting the model
//! and mapping errors that code generation alone cannot prevent.

#![warn(missing_docs)]

pub mod diag;
pub mod model_check;
pub mod model_spans;

pub use diag::{
    code_explanation, code_summary, Diagnostic, Diagnostics, JsonWriter, Severity, CODE_TABLE,
};
pub use model_check::{lint_mapping, lint_model, model_error_diag};
pub use model_spans::ModelSpans;
