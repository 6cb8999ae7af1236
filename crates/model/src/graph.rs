//! The application editor's dataflow graph.
//!
//! A graph owns functional blocks and the data-flow arcs (connections)
//! between their ports. Graphs are hierarchical: a block may wrap a nested
//! graph, and [`AppGraph::flatten`] expands the hierarchy into the flat list
//! of primitive function instances that the glue-code generator orders and
//! assigns IDs `0..N-1`.

use crate::block::{Block, BlockKind};
use crate::ids::{BlockId, ConnId};
use crate::port::{Direction, Port};
use crate::validate::ModelError;
use crate::Properties;
use std::collections::HashMap;

/// One end of a connection: a port (by declaration index) on a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// Host block.
    pub block: BlockId,
    /// Index into the host block's `ports` vector.
    pub port: usize,
}

/// A data-flow arc from an output port to an input port.
#[derive(Clone, Debug, PartialEq)]
pub struct Connection {
    /// Dense id (index into the graph's connection list).
    pub id: ConnId,
    /// Producing endpoint (an `Out` port).
    pub from: Endpoint,
    /// Consuming endpoint (an `In` port).
    pub to: Endpoint,
}

/// A dataflow application model.
#[derive(Clone, Debug, PartialEq)]
pub struct AppGraph {
    /// Model name (appears in generated glue code).
    pub name: String,
    blocks: Vec<Block>,
    connections: Vec<Connection>,
    /// Free-form attributes the generator and the kernels read.
    pub props: Properties,
}

impl AppGraph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> AppGraph {
        AppGraph {
            name: name.into(),
            blocks: Vec::new(),
            connections: Vec::new(),
            props: Properties::new(),
        }
    }

    /// Adds a block, returning its id.
    pub fn add_block(&mut self, block: Block) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(block);
        id
    }

    /// All blocks in insertion order (the paper's function-instance order).
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Borrows a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutably borrows a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Looks a block up by instance name.
    pub fn block_by_name(&self, name: &str) -> Option<BlockId> {
        self.blocks
            .iter()
            .position(|b| b.name == name)
            .map(BlockId::from_index)
    }

    /// All connections in insertion order.
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Connects `from_block.from_port` (an output) to `to_block.to_port` (an
    /// input), by port name.
    ///
    /// Validates direction, existence, and type equality. Both fan-out and
    /// fan-in are structurally legal; whether multiple writers into one
    /// input port are *safe* is decided by the static race pass over the
    /// generated glue program (`sage race`), not by the editor.
    pub fn connect(
        &mut self,
        from_block: BlockId,
        from_port: &str,
        to_block: BlockId,
        to_port: &str,
    ) -> Result<ConnId, ModelError> {
        let fp = self
            .block(from_block)
            .port_index(from_port, Direction::Out)
            .ok_or_else(|| ModelError::NoSuchPort {
                block: self.block(from_block).name.clone(),
                port: from_port.to_string(),
            })?;
        let tp = self
            .block(to_block)
            .port_index(to_port, Direction::In)
            .ok_or_else(|| ModelError::NoSuchPort {
                block: self.block(to_block).name.clone(),
                port: to_port.to_string(),
            })?;
        self.connect_endpoints(
            Endpoint {
                block: from_block,
                port: fp,
            },
            Endpoint {
                block: to_block,
                port: tp,
            },
        )
    }

    /// Low-level connect by explicit endpoints.
    pub fn connect_endpoints(
        &mut self,
        from: Endpoint,
        to: Endpoint,
    ) -> Result<ConnId, ModelError> {
        let fport = self.port_at(from).ok_or(ModelError::BadEndpoint)?;
        let tport = self.port_at(to).ok_or(ModelError::BadEndpoint)?;
        if fport.direction != Direction::Out || tport.direction != Direction::In {
            return Err(ModelError::DirectionMismatch {
                from: fport.name.clone(),
                to: tport.name.clone(),
            });
        }
        if fport.data_type != tport.data_type {
            return Err(ModelError::TypeMismatch {
                from: format!(
                    "{}.{} : {}",
                    self.block(from.block).name,
                    fport.name,
                    fport.data_type
                ),
                to: format!(
                    "{}.{} : {}",
                    self.block(to.block).name,
                    tport.name,
                    tport.data_type
                ),
            });
        }
        let id = ConnId::from_index(self.connections.len());
        self.connections.push(Connection { id, from, to });
        Ok(id)
    }

    /// Removes a block and every connection touching it (Designer edit
    /// operation). Later block ids shift down by one.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn remove_block(&mut self, id: BlockId) {
        self.blocks.remove(id.index());
        self.connections
            .retain(|c| c.from.block != id && c.to.block != id);
        for c in self.connections.iter_mut() {
            if c.from.block > id {
                c.from.block = BlockId::from_index(c.from.block.index() - 1);
            }
            if c.to.block > id {
                c.to.block = BlockId::from_index(c.to.block.index() - 1);
            }
        }
        for (i, c) in self.connections.iter_mut().enumerate() {
            c.id = ConnId::from_index(i);
        }
    }

    /// The port at an endpoint, if the endpoint is in range.
    pub fn port_at(&self, ep: Endpoint) -> Option<&Port> {
        self.blocks.get(ep.block.index())?.ports.get(ep.port)
    }

    /// The first connection feeding input endpoint `to`, if any.
    pub fn incoming(&self, to: Endpoint) -> Option<&Connection> {
        self.connections.iter().find(|c| c.to == to)
    }

    /// All connections feeding input endpoint `to`, in insertion order
    /// (fan-in is structurally allowed; the race pass decides safety).
    pub fn incomings(&self, to: Endpoint) -> Vec<&Connection> {
        self.connections.iter().filter(|c| c.to == to).collect()
    }

    /// All connections leaving output endpoint `from` (fan-out is allowed).
    pub fn outgoing(&self, from: Endpoint) -> Vec<&Connection> {
        self.connections.iter().filter(|c| c.from == from).collect()
    }

    /// Topologically sorts the blocks (Kahn's algorithm).
    ///
    /// Returns [`ModelError::Cycle`] if the dataflow graph has a cycle; SAGE
    /// models are acyclic per iteration (feedback crosses iteration
    /// boundaries, which the runtime handles through the source).
    pub fn toposort(&self) -> Result<Vec<BlockId>, ModelError> {
        self.kahn(false)
    }

    /// [`AppGraph::toposort`] with feedback arcs relaxed: a connection
    /// leaving a block whose [`Block::delay`] is nonzero does not constrain
    /// the order, because its payload crosses the iteration boundary (the
    /// consumer of iteration `i` reads what the delayed block produced on
    /// iteration `i - delay`). Returns [`ModelError::Cycle`] only for
    /// cycles no delay element breaks — those can never be scheduled.
    pub fn toposort_feedback(&self) -> Result<Vec<BlockId>, ModelError> {
        self.kahn(true)
    }

    fn kahn(&self, relax_feedback: bool) -> Result<Vec<BlockId>, ModelError> {
        let n = self.blocks.len();
        let mut indeg = vec![0usize; n];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for c in &self.connections {
            if relax_feedback && self.blocks[c.from.block.index()].delay() > 0 {
                continue;
            }
            // Parallel edges between the same pair are fine for Kahn as long
            // as each contributes to the in-degree.
            succ[c.from.block.index()].push(c.to.block.index());
            indeg[c.to.block.index()] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        // Keep deterministic order: lowest index first.
        ready.sort_unstable_by(|a, b| b.cmp(a));
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(BlockId::from_index(i));
            for &s in &succ[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
            ready.sort_unstable_by(|a, b| b.cmp(a));
        }
        if order.len() != n {
            Err(ModelError::Cycle)
        } else {
            Ok(order)
        }
    }

    /// Expands all hierarchical blocks into a flat graph of leaves.
    ///
    /// Nested block instances are renamed `parent.child`. A hierarchical
    /// block's boundary port binds to the unique same-named, same-direction,
    /// internally-unconnected port inside its (already flattened) subgraph.
    pub fn flatten(&self) -> Result<AppGraph, ModelError> {
        enum Lowered {
            Leaf(BlockId),
            Hier(HashMap<(Direction, String), Endpoint>),
        }

        let mut out = AppGraph::new(self.name.clone());
        out.props = self.props.clone();
        let mut lowered: Vec<Lowered> = Vec::with_capacity(self.blocks.len());

        for b in &self.blocks {
            match &b.kind {
                BlockKind::Hierarchical { subgraph } => {
                    let flat = subgraph.flatten()?;
                    // Inline blocks with prefixed names.
                    let base = out.blocks.len();
                    for sb in flat.blocks() {
                        let mut nb = sb.clone();
                        nb.name = format!("{}.{}", b.name, sb.name);
                        out.add_block(nb);
                    }
                    // Inline internal connections.
                    for c in flat.connections() {
                        out.connect_endpoints(
                            Endpoint {
                                block: BlockId::from_index(base + c.from.block.index()),
                                port: c.from.port,
                            },
                            Endpoint {
                                block: BlockId::from_index(base + c.to.block.index()),
                                port: c.to.port,
                            },
                        )?;
                    }
                    // Resolve boundary ports.
                    let mut bound = HashMap::new();
                    for port in &b.ports {
                        let mut matches = Vec::new();
                        for (bi, sb) in flat.blocks().iter().enumerate() {
                            for (pi, sp) in sb.ports.iter().enumerate() {
                                if sp.name != port.name || sp.direction != port.direction {
                                    continue;
                                }
                                let ep = Endpoint {
                                    block: BlockId::from_index(bi),
                                    port: pi,
                                };
                                let connected = match sp.direction {
                                    Direction::In => flat.incoming(ep).is_some(),
                                    Direction::Out => !flat.outgoing(ep).is_empty(),
                                };
                                if !connected {
                                    matches.push(Endpoint {
                                        block: BlockId::from_index(base + bi),
                                        port: pi,
                                    });
                                }
                            }
                        }
                        match matches.len() {
                            1 => {
                                bound.insert((port.direction, port.name.clone()), matches[0]);
                            }
                            0 => {
                                return Err(ModelError::UnboundBoundary {
                                    block: b.name.clone(),
                                    port: port.name.clone(),
                                })
                            }
                            _ => {
                                return Err(ModelError::AmbiguousBoundary {
                                    block: b.name.clone(),
                                    port: port.name.clone(),
                                })
                            }
                        }
                    }
                    lowered.push(Lowered::Hier(bound));
                }
                _ => {
                    let id = out.add_block(b.clone());
                    lowered.push(Lowered::Leaf(id));
                }
            }
        }

        // Rewrite the outer connections through the lowering map.
        for c in &self.connections {
            let resolve = |ep: Endpoint, dir: Direction| -> Result<Endpoint, ModelError> {
                match &lowered[ep.block.index()] {
                    Lowered::Leaf(id) => Ok(Endpoint {
                        block: *id,
                        port: ep.port,
                    }),
                    Lowered::Hier(bound) => {
                        let pname = self.blocks[ep.block.index()].ports[ep.port].name.clone();
                        bound.get(&(dir, pname.clone())).copied().ok_or(
                            ModelError::UnboundBoundary {
                                block: self.blocks[ep.block.index()].name.clone(),
                                port: pname,
                            },
                        )
                    }
                }
            };
            let from = resolve(c.from, Direction::Out)?;
            let to = resolve(c.to, Direction::In)?;
            out.connect_endpoints(from, to)?;
        }
        Ok(out)
    }

    /// Total bytes flowing along connection `c` per iteration.
    pub fn connection_bytes(&self, c: &Connection) -> usize {
        self.port_at(c.from)
            .map(|p| p.data_type.size_bytes())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::CostModel;
    use crate::datatype::DataType;
    use crate::port::Striping;

    fn leaf(name: &str, ins: &[&str], outs: &[&str]) -> Block {
        let mut ports = Vec::new();
        for i in ins {
            ports.push(Port::input(*i, DataType::Complex, Striping::Replicated));
        }
        for o in outs {
            ports.push(Port::output(*o, DataType::Complex, Striping::Replicated));
        }
        Block::primitive(name, "id", 1, CostModel::ZERO, ports)
    }

    fn chain3() -> (AppGraph, BlockId, BlockId, BlockId) {
        let mut g = AppGraph::new("chain");
        let a = g.add_block(leaf("a", &[], &["out"]));
        let b = g.add_block(leaf("b", &["in"], &["out"]));
        let c = g.add_block(leaf("c", &["in"], &[]));
        g.connect(a, "out", b, "in").unwrap();
        g.connect(b, "out", c, "in").unwrap();
        (g, a, b, c)
    }

    #[test]
    fn connect_and_lookup() {
        let (g, a, b, _) = chain3();
        assert_eq!(g.connections().len(), 2);
        let ep = Endpoint { block: b, port: 0 };
        assert_eq!(g.incoming(ep).unwrap().from.block, a);
        assert_eq!(g.block_by_name("b"), Some(b));
        assert_eq!(g.block_by_name("zzz"), None);
    }

    #[test]
    fn fan_out_and_fan_in_both_allowed() {
        let mut g = AppGraph::new("g");
        let a = g.add_block(leaf("a", &[], &["out"]));
        let b = g.add_block(leaf("b", &[], &["out"]));
        let c = g.add_block(leaf("c", &["in"], &[]));
        let d = g.add_block(leaf("d", &["in"], &[]));
        g.connect(a, "out", c, "in").unwrap();
        g.connect(a, "out", d, "in").unwrap(); // fan-out ok
                                               // Fan-in is structurally legal too; the race pass judges safety.
        g.connect(b, "out", c, "in").unwrap();
        let ep = Endpoint { block: c, port: 0 };
        let ins = g.incomings(ep);
        assert_eq!(ins.len(), 2);
        assert_eq!(ins[0].from.block, a);
        assert_eq!(ins[1].from.block, b);
        // `incoming` still reports the first arc for single-writer callers.
        assert_eq!(g.incoming(ep).unwrap().from.block, a);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut g = AppGraph::new("g");
        let a = g.add_block(Block::source(
            "a",
            vec![Port::output(
                "out",
                DataType::complex_matrix(4, 4),
                Striping::Replicated,
            )],
        ));
        let b = g.add_block(leaf("b", &["in"], &[]));
        let err = g.connect(a, "out", b, "in").unwrap_err();
        assert!(matches!(err, ModelError::TypeMismatch { .. }));
    }

    #[test]
    fn missing_port_rejected() {
        let mut g = AppGraph::new("g");
        let a = g.add_block(leaf("a", &[], &["out"]));
        let b = g.add_block(leaf("b", &["in"], &[]));
        assert!(matches!(
            g.connect(a, "nope", b, "in"),
            Err(ModelError::NoSuchPort { .. })
        ));
    }

    #[test]
    fn toposort_linear_chain() {
        let (g, a, b, c) = chain3();
        assert_eq!(g.toposort().unwrap(), vec![a, b, c]);
    }

    #[test]
    fn toposort_detects_cycle() {
        let mut g = AppGraph::new("g");
        let a = g.add_block(leaf("a", &["in"], &["out"]));
        let b = g.add_block(leaf("b", &["in"], &["out"]));
        g.connect(a, "out", b, "in").unwrap();
        g.connect(b, "out", a, "in").unwrap();
        assert!(matches!(g.toposort(), Err(ModelError::Cycle)));
    }

    #[test]
    fn toposort_feedback_relaxes_delay_cycles() {
        let mut g = AppGraph::new("g");
        let a = g.add_block(leaf("a", &["in"], &["out"]));
        let d =
            g.add_block(leaf("d", &["in"], &["out"]).with_prop("delay", crate::PropValue::Int(1)));
        g.connect(a, "out", d, "in").unwrap();
        g.connect(d, "out", a, "in").unwrap();
        // The plain sort still rejects the cycle; the feedback-aware sort
        // drops the arc leaving the delayed block and orders a before d.
        assert!(matches!(g.toposort(), Err(ModelError::Cycle)));
        assert_eq!(g.toposort_feedback().unwrap(), vec![a, d]);
        // An explicit delay of 0 does not break the cycle.
        g.block_mut(d)
            .props
            .insert("delay".into(), crate::PropValue::Int(0));
        assert!(matches!(g.toposort_feedback(), Err(ModelError::Cycle)));
    }

    #[test]
    fn toposort_is_deterministic_diamond() {
        let mut g = AppGraph::new("g");
        let s = g.add_block(leaf("s", &[], &["out"]));
        let x = g.add_block(leaf("x", &["in"], &["out"]));
        let y = g.add_block(leaf("y", &["in"], &["out"]));
        let t = g.add_block(leaf("t", &["in"], &["in2"]));
        // t has two inputs; reuse helper by adding a second input port manually.
        g.block_mut(t).ports[1] = Port::input("in2", DataType::Complex, Striping::Replicated);
        g.connect(s, "out", x, "in").unwrap();
        g.connect(s, "out", y, "in").unwrap();
        g.connect(x, "out", t, "in").unwrap();
        g.connect(y, "out", t, "in2").unwrap();
        assert_eq!(g.toposort().unwrap(), vec![s, x, y, t]);
    }

    #[test]
    fn flatten_inlines_subgraph() {
        // inner: f -> g  with free ports "in" (on f) and "out" (on g)
        let mut inner = AppGraph::new("inner");
        let f = inner.add_block(leaf("f", &["in"], &["mid"]));
        let gg = inner.add_block(leaf("g", &["mid_in"], &["out"]));
        inner.connect(f, "mid", gg, "mid_in").unwrap();

        let mut outer = AppGraph::new("outer");
        let src = outer.add_block(leaf("src", &[], &["out"]));
        let hier = outer.add_block(Block::hierarchical(
            "stage",
            inner,
            vec![
                Port::input("in", DataType::Complex, Striping::Replicated),
                Port::output("out", DataType::Complex, Striping::Replicated),
            ],
        ));
        let snk = outer.add_block(leaf("snk", &["in"], &[]));
        outer.connect(src, "out", hier, "in").unwrap();
        outer.connect(hier, "out", snk, "in").unwrap();

        let flat = outer.flatten().unwrap();
        assert_eq!(flat.block_count(), 4);
        let names: Vec<&str> = flat.blocks().iter().map(|b| b.name.as_str()).collect();
        assert!(names.contains(&"stage.f") && names.contains(&"stage.g"));
        assert_eq!(flat.connections().len(), 3);
        // The chain src -> stage.f -> stage.g -> snk must topo-sort.
        let order = flat.toposort().unwrap();
        assert_eq!(order.len(), 4);
        let _ = hier; // silence unused in release config
    }

    #[test]
    fn flatten_detects_unbound_boundary() {
        let inner = AppGraph::new("inner"); // empty: nothing to bind to
        let mut outer = AppGraph::new("outer");
        let src = outer.add_block(leaf("src", &[], &["out"]));
        let hier = outer.add_block(Block::hierarchical(
            "stage",
            inner,
            vec![Port::input("in", DataType::Complex, Striping::Replicated)],
        ));
        outer.connect(src, "out", hier, "in").unwrap();
        assert!(matches!(
            outer.flatten(),
            Err(ModelError::UnboundBoundary { .. })
        ));
    }

    #[test]
    fn flatten_nested_two_levels() {
        let mut level2 = AppGraph::new("l2");
        level2.add_block(leaf("core", &["in"], &["out"]));

        let mut level1 = AppGraph::new("l1");
        level1.add_block(Block::hierarchical(
            "wrap",
            level2,
            vec![
                Port::input("in", DataType::Complex, Striping::Replicated),
                Port::output("out", DataType::Complex, Striping::Replicated),
            ],
        ));

        let mut top = AppGraph::new("top");
        let s = top.add_block(leaf("s", &[], &["out"]));
        let h = top.add_block(Block::hierarchical(
            "outerwrap",
            level1,
            vec![
                Port::input("in", DataType::Complex, Striping::Replicated),
                Port::output("out", DataType::Complex, Striping::Replicated),
            ],
        ));
        let t = top.add_block(leaf("t", &["in"], &[]));
        top.connect(s, "out", h, "in").unwrap();
        top.connect(h, "out", t, "in").unwrap();
        let flat = top.flatten().unwrap();
        let names: Vec<&str> = flat.blocks().iter().map(|b| b.name.as_str()).collect();
        assert!(names.contains(&"outerwrap.wrap.core"), "{names:?}");
        assert_eq!(flat.connections().len(), 2);
    }

    #[test]
    fn remove_block_drops_its_connections_and_shifts_ids() {
        let (mut g, _, b, _) = chain3();
        g.remove_block(b);
        assert_eq!(g.block_count(), 2);
        assert!(g.connections().is_empty());
        assert_eq!(g.block_by_name("c"), Some(BlockId(1)));
        // Reconnect the survivors: a -> c must still work.
        let a = g.block_by_name("a").unwrap();
        let c = g.block_by_name("c").unwrap();
        g.connect(a, "out", c, "in").unwrap();
        assert_eq!(g.toposort().unwrap(), vec![a, c]);
    }

    #[test]
    fn remove_middle_block_preserves_other_edges() {
        let mut g = AppGraph::new("g");
        let a = g.add_block(leaf("a", &[], &["out"]));
        let b = g.add_block(leaf("b", &[], &["out"]));
        let c = g.add_block(leaf("c", &["in"], &[]));
        let d = g.add_block(leaf("d", &["in"], &[]));
        g.connect(a, "out", c, "in").unwrap();
        g.connect(b, "out", d, "in").unwrap();
        g.remove_block(b); // kills b -> d only
        assert_eq!(g.connections().len(), 1);
        let conn = &g.connections()[0];
        assert_eq!(g.blocks()[conn.from.block.index()].name, "a");
        assert_eq!(g.blocks()[conn.to.block.index()].name, "c");
        let _ = d;
    }

    #[test]
    fn connection_bytes_uses_port_type() {
        let mut g = AppGraph::new("g");
        let a = g.add_block(Block::source(
            "a",
            vec![Port::output(
                "out",
                DataType::complex_matrix(16, 16),
                Striping::Replicated,
            )],
        ));
        let b = g.add_block(Block::sink(
            "b",
            vec![Port::input(
                "in",
                DataType::complex_matrix(16, 16),
                Striping::Replicated,
            )],
        ));
        g.connect(a, "out", b, "in").unwrap();
        assert_eq!(g.connection_bytes(&g.connections()[0]), 16 * 16 * 8);
    }
}
