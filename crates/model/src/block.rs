//! Functional blocks: the vertices of the application editor's dataflow
//! graphs.
//!
//! Blocks are either *primitive* (bound to a shelf function executed by the
//! run-time), *sources*/*sinks* (the data entry/exit points used to define
//! the paper's period and latency measurements), or *hierarchical* (a nested
//! sub-graph, since the application editor builds "a graphical view or model
//! of the application by connecting functional or behavioral blocks
//! (hierarchical) in a data flow manner").

use crate::graph::AppGraph;
use crate::port::{Direction, Port};
use crate::{PropValue, Properties};

/// Estimated execution cost of one block invocation, taken from shelf
/// metadata (the paper's AToT derives task costs the same way).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Floating-point operations per invocation.
    pub flops: f64,
    /// Bytes of memory traffic per invocation.
    pub mem_bytes: f64,
}

impl CostModel {
    /// Zero cost (sources/sinks that only hand buffers over).
    pub const ZERO: CostModel = CostModel {
        flops: 0.0,
        mem_bytes: 0.0,
    };

    /// Creates a cost model.
    pub const fn new(flops: f64, mem_bytes: f64) -> Self {
        CostModel { flops, mem_bytes }
    }
}

/// The behavioural kind of a block.
#[derive(Clone, Debug, PartialEq)]
pub enum BlockKind {
    /// Produces an input data set each iteration ("the time from when the
    /// first data leaves the data source ..."). Multi-threaded sources model
    /// distributed data origins (one sensor stream per node).
    Source {
        /// Number of source threads.
        threads: usize,
    },
    /// Consumes the final result ("... to the time the final result is
    /// output to the data sink").
    Sink {
        /// Number of sink threads.
        threads: usize,
    },
    /// A leaf computation bound to a registered run-time function.
    Primitive {
        /// Name of the shelf function the run-time invokes.
        function: String,
        /// Number of threads of the host function (drives striping).
        threads: usize,
        /// Shelf cost model for AToT and virtual-time charging.
        cost: CostModel,
    },
    /// A nested sub-graph. Boundary ports of the hierarchical block map 1:1
    /// by name onto ports of unconnected blocks inside the sub-graph.
    Hierarchical {
        /// The nested application graph.
        subgraph: Box<AppGraph>,
    },
}

/// A functional block instance.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Instance name (unique within its graph).
    pub name: String,
    /// Behavioural kind.
    pub kind: BlockKind,
    /// Ports in declaration order.
    pub ports: Vec<Port>,
    /// Free-form attributes the generator and the kernels read.
    pub props: Properties,
}

impl Block {
    /// Creates a single-threaded source block with the given output ports.
    pub fn source(name: impl Into<String>, ports: Vec<Port>) -> Block {
        Block::source_threaded(name, 1, ports)
    }

    /// Creates a source block whose data originates distributed over
    /// `threads` threads.
    pub fn source_threaded(name: impl Into<String>, threads: usize, ports: Vec<Port>) -> Block {
        Block {
            name: name.into(),
            kind: BlockKind::Source { threads },
            ports,
            props: Properties::new(),
        }
    }

    /// Creates a single-threaded sink block with the given input ports.
    pub fn sink(name: impl Into<String>, ports: Vec<Port>) -> Block {
        Block::sink_threaded(name, 1, ports)
    }

    /// Creates a sink block that absorbs results distributed over `threads`
    /// threads.
    pub fn sink_threaded(name: impl Into<String>, threads: usize, ports: Vec<Port>) -> Block {
        Block {
            name: name.into(),
            kind: BlockKind::Sink { threads },
            ports,
            props: Properties::new(),
        }
    }

    /// Creates a primitive block bound to shelf function `function`.
    pub fn primitive(
        name: impl Into<String>,
        function: impl Into<String>,
        threads: usize,
        cost: CostModel,
        ports: Vec<Port>,
    ) -> Block {
        Block {
            name: name.into(),
            kind: BlockKind::Primitive {
                function: function.into(),
                threads,
                cost,
            },
            ports,
            props: Properties::new(),
        }
    }

    /// Creates a hierarchical block wrapping `subgraph`.
    pub fn hierarchical(name: impl Into<String>, subgraph: AppGraph, ports: Vec<Port>) -> Block {
        Block {
            name: name.into(),
            kind: BlockKind::Hierarchical {
                subgraph: Box::new(subgraph),
            },
            ports,
            props: Properties::new(),
        }
    }

    /// Builder-style property attachment.
    pub fn with_prop(mut self, key: impl Into<String>, value: PropValue) -> Block {
        self.props.insert(key.into(), value);
        self
    }

    /// Number of threads the block's function runs with (1 for non-primitives).
    pub fn threads(&self) -> usize {
        match &self.kind {
            BlockKind::Primitive { threads, .. }
            | BlockKind::Source { threads }
            | BlockKind::Sink { threads } => *threads,
            BlockKind::Hierarchical { .. } => 1,
        }
    }

    /// Cost per invocation (zero for non-primitives; hierarchical blocks are
    /// flattened before costing).
    pub fn cost(&self) -> CostModel {
        match &self.kind {
            BlockKind::Primitive { cost, .. } => *cost,
            _ => CostModel::ZERO,
        }
    }

    /// Iterator over input ports, in declaration order.
    pub fn inputs(&self) -> impl Iterator<Item = (usize, &Port)> {
        self.ports
            .iter()
            .enumerate()
            .filter(|(_, p)| p.direction == Direction::In)
    }

    /// Iterator over output ports, in declaration order.
    pub fn outputs(&self) -> impl Iterator<Item = (usize, &Port)> {
        self.ports
            .iter()
            .enumerate()
            .filter(|(_, p)| p.direction == Direction::Out)
    }

    /// Finds a port index by name and direction.
    pub fn port_index(&self, name: &str, direction: Direction) -> Option<usize> {
        self.ports
            .iter()
            .position(|p| p.name == name && p.direction == direction)
    }

    /// The block's iteration delay: its integer `delay` property, clamped
    /// at 0 (absent or non-integer properties count as no delay). Arcs
    /// leaving a delayed block carry the payload the block produced `delay`
    /// iterations earlier, which is how feedback crosses the iteration
    /// boundary.
    pub fn delay(&self) -> u32 {
        match self.props.get("delay") {
            Some(PropValue::Int(i)) => (*i).max(0) as u32,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::port::Striping;

    fn p_in(name: &str) -> Port {
        Port::input(name, DataType::Complex, Striping::Replicated)
    }

    fn p_out(name: &str) -> Port {
        Port::output(name, DataType::Complex, Striping::Replicated)
    }

    #[test]
    fn primitive_metadata() {
        let b = Block::primitive(
            "fft",
            "isspl.fft_rows",
            4,
            CostModel::new(100.0, 200.0),
            vec![p_in("in"), p_out("out")],
        );
        assert!(matches!(b.kind, BlockKind::Primitive { .. }));
        assert_eq!(b.threads(), 4);
        assert_eq!(b.cost().flops, 100.0);
        assert_eq!(b.inputs().count(), 1);
        assert_eq!(b.outputs().count(), 1);
    }

    #[test]
    fn source_sink_have_zero_cost_and_one_thread() {
        let s = Block::source("src", vec![p_out("out")]);
        assert_eq!(s.threads(), 1);
        assert_eq!(s.cost(), CostModel::ZERO);
        let k = Block::sink("snk", vec![p_in("in")]);
        assert!(!matches!(k.kind, BlockKind::Primitive { .. }));
    }

    #[test]
    fn port_lookup_respects_direction() {
        let b = Block::primitive("f", "id", 1, CostModel::ZERO, vec![p_in("x"), p_out("x")]);
        assert_eq!(b.port_index("x", Direction::In), Some(0));
        assert_eq!(b.port_index("x", Direction::Out), Some(1));
        assert_eq!(b.port_index("y", Direction::In), None);
    }

    #[test]
    fn props_builder() {
        let b = Block::source("s", vec![]).with_prop("rate_hz", PropValue::Float(100.0));
        assert_eq!(b.props.get("rate_hz"), Some(&PropValue::Float(100.0)));
    }
}
