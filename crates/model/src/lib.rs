//! # sage-model
//!
//! The **SAGE Designer** model layer: everything the paper's three editors
//! capture.
//!
//! * the **application editor** builds a hierarchical dataflow graph of
//!   functional blocks connected through ports ([`graph`], [`block`],
//!   [`port`]);
//! * the **data type editor** defines data types and the striping /
//!   parallelization relationships between functions ([`datatype`]);
//! * the **hardware editor** builds the hardware architecture hierarchically
//!   from the processor up to the system level ([`hardware`]);
//! * hardware is captured on the **hardware shelf** for later reuse
//!   ([`shelf`]); the software shelf is the run-time's function registry;
//! * the application-to-hardware **mapping** ([`mapping`]) is what AToT
//!   refines and the glue-code generator consumes.
//!
//! Every model object carries a free-form property bag so that the
//! glue-code generator can "collect the relevant information from the
//! various attributes and properties" as the paper describes.

#![warn(missing_docs)]

pub mod block;
pub mod datatype;
pub mod dot;
pub mod graph;
pub mod hardware;
pub mod ids;
pub mod mapping;
pub mod port;
pub mod shelf;
pub mod validate;

pub use block::{Block, BlockKind, CostModel};
pub use datatype::{DataType, ScalarKind};
pub use graph::{AppGraph, Connection, Endpoint};
pub use hardware::{
    Board, Chassis, FabricSpec, HardwareSpec, NodeCapacity, Processor, ProcessorInstance,
};
pub use ids::{BlockId, ConnId, ProcId};
pub use mapping::Mapping;
pub use port::{Direction, Port, Striping};
pub use shelf::HardwareShelf;
pub use validate::{validate, validate_all, ModelError};

use std::collections::BTreeMap;

/// A property value attached to a model object.
#[derive(Clone, Debug, PartialEq)]
pub enum PropValue {
    /// String property.
    Str(String),
    /// Integer property.
    Int(i64),
    /// Floating-point property.
    Float(f64),
    /// Boolean property.
    Bool(bool),
}

/// An ordered property bag; ordered so generated glue code is deterministic.
pub type Properties = BTreeMap<String, PropValue>;
