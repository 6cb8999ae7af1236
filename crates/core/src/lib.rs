//! # sage-core
//!
//! The paper's primary contribution, assembled: **automatic glue-(source-)
//! code generation plus the run-time infrastructure**, driven end-to-end the
//! way §3.3 describes the experiments:
//!
//! 1. "the application will be modeled using the Designer" —
//!    [`sage_model::AppGraph`] + [`sage_model::HardwareSpec`];
//! 2. "the different node configurations and mappings will be chosen" —
//!    manually, or via AToT's GA ([`Project::auto_map`]);
//! 3. "the glue code will be auto-generated" — [`codegen`] traverses the
//!    model and produces the executable [`sage_runtime::GlueProgram`] plus
//!    the human-readable generated source files. It is the only
//!    generator: the real one was an Alter script, ours is native Rust
//!    over models written in Alter syntax — a documented substitution;
//! 4. "the actual execution" — [`Project::execute`] runs the program on the
//!    fabric under either clock policy.
//!
//! The static side has one front door, [`front`]: [`load`] (parse, span
//! index, model-layer lint gate) → [`Loaded::generate`] (mapping lint,
//! codegen for the placement that will run) → one `sage_check::Checker`
//! session; `sage lint|check|pipeline|race` are four views of it.

#![warn(missing_docs)]

pub mod codegen;
pub mod emit;
pub mod front;
pub mod model_io;
pub mod project;

pub use codegen::{generate, CodegenError, Placement};
pub use emit::render_glue_source;
pub use front::{
    check_model_source, checked_program, lint_model_source, load, pipeline_model_source,
    race_model_source, Loaded,
};
pub use model_io::{model_from_sexpr, model_to_sexpr};
pub use project::{Project, ProjectError};
