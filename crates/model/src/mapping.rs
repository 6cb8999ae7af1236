//! Application-to-hardware mappings.
//!
//! A mapping assigns every block of a *flattened* application graph to a
//! processor node. The engineer can author one in the Designer, or let
//! AToT's genetic algorithm produce one; the glue-code generator consumes it
//! to emit per-node schedules.

use crate::graph::AppGraph;
use crate::hardware::HardwareSpec;
use crate::ids::{BlockId, ProcId};
use crate::validate::ModelError;

/// A total assignment of blocks to processors, indexed by block id.
#[derive(Clone, Debug, PartialEq)]
pub struct Mapping {
    assignment: Vec<ProcId>,
}

impl Mapping {
    /// Creates a mapping from a dense per-block assignment vector.
    pub fn new(assignment: Vec<ProcId>) -> Mapping {
        Mapping { assignment }
    }

    /// Round-robin mapping of blocks over `nodes` processors — the simplest
    /// baseline mapper.
    pub fn round_robin(blocks: usize, nodes: usize) -> Mapping {
        assert!(nodes > 0);
        Mapping {
            assignment: (0..blocks).map(|i| ProcId((i % nodes) as u32)).collect(),
        }
    }

    /// The node a block is assigned to.
    pub fn node_of(&self, block: BlockId) -> ProcId {
        self.assignment[block.index()]
    }

    /// Reassigns one block.
    pub fn assign(&mut self, block: BlockId, node: ProcId) {
        self.assignment[block.index()] = node;
    }

    /// Number of mapped blocks.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// `true` if the mapping covers no blocks.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The raw assignment vector.
    pub fn as_slice(&self) -> &[ProcId] {
        &self.assignment
    }

    /// Checks the mapping against a graph and hardware model: every block
    /// covered, every node id in range.
    pub fn validate(&self, graph: &AppGraph, hw: &HardwareSpec) -> Result<(), ModelError> {
        if self.assignment.len() != graph.block_count() {
            return Err(ModelError::MappingSize {
                expected: graph.block_count(),
                actual: self.assignment.len(),
            });
        }
        let nodes = hw.node_count();
        for (i, p) in self.assignment.iter().enumerate() {
            if p.index() >= nodes {
                return Err(ModelError::MappingNode {
                    block: graph.blocks()[i].name.clone(),
                    node: p.index(),
                    nodes,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, CostModel};
    use crate::datatype::DataType;
    use crate::hardware::{FabricSpec, HardwareSpec, Processor};
    use crate::port::{Port, Striping};

    fn tiny_graph() -> AppGraph {
        let mut g = AppGraph::new("g");
        let a = g.add_block(Block::primitive(
            "a",
            "id",
            1,
            CostModel::ZERO,
            vec![Port::output("out", DataType::Complex, Striping::Replicated)],
        ));
        let b = g.add_block(Block::primitive(
            "b",
            "id",
            1,
            CostModel::ZERO,
            vec![Port::input("in", DataType::Complex, Striping::Replicated)],
        ));
        g.connect(a, "out", b, "in").unwrap();
        g
    }

    fn hw(nodes: usize) -> HardwareSpec {
        let p = Processor {
            name: "p".into(),
            clock_mhz: 100.0,
            flops_per_cycle: 1.0,
            mem_mb: 64.0,
            mem_bw_mbps: 100.0,
        };
        let f = FabricSpec {
            bandwidth_mbps: 100.0,
            latency_us: 10.0,
        };
        HardwareSpec::homogeneous("hw", p, 1, nodes, f, f)
    }

    #[test]
    fn round_robin_cycles() {
        let m = Mapping::round_robin(5, 2);
        assert_eq!(m.node_of(BlockId(0)), ProcId(0));
        assert_eq!(m.node_of(BlockId(1)), ProcId(1));
        assert_eq!(m.node_of(BlockId(4)), ProcId(0));
    }

    #[test]
    fn validate_checks_sizes_and_nodes() {
        let g = tiny_graph();
        let hw2 = hw(2);
        assert!(Mapping::round_robin(2, 2).validate(&g, &hw2).is_ok());
        assert!(matches!(
            Mapping::round_robin(3, 2).validate(&g, &hw2),
            Err(ModelError::MappingSize { .. })
        ));
        assert!(matches!(
            Mapping::new(vec![ProcId(0), ProcId(9)]).validate(&g, &hw2),
            Err(ModelError::MappingNode { .. })
        ));
    }

    #[test]
    fn assign_overrides() {
        let mut m = Mapping::new(vec![ProcId(0); 3]);
        m.assign(BlockId(2), ProcId(5));
        assert_eq!(m.node_of(BlockId(2)), ProcId(5));
        assert_eq!(m.len(), 3);
    }
}
