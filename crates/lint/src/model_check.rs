//! Whole-model consistency checks, beyond the first-error-wins Designer
//! validation:
//!
//! * every [`sage_model::ModelError`] mapped onto a stable `SAGE01x`/`SAGE02x`
//!   code (all of them at once, via `validate_all`),
//! * dataflow cycles reported with the full block path, downgraded to a
//!   warning when a delay element breaks the cycle across iterations
//!   (`SAGE015`),
//! * thread counts that do not divide over the node count under the natural
//!   aligned placement (`SAGE030`),
//! * nodes left idle by the placement (`SAGE031`),
//! * large fan-out that replicates a bulky payload to many readers
//!   (`SAGE032`),
//! * explicit AToT task mappings checked for coverage and node range
//!   (`SAGE020`/`SAGE021`).

use crate::diag::{Diagnostic, Diagnostics};
use crate::model_spans::ModelSpans;
use sage_atot::{TaskGraph, TaskMapping};
use sage_model::{validate_all, AppGraph, Endpoint, ModelError, Striping};

/// Fan-out payloads at or above this many bytes draw `SAGE032`.
const FAN_OUT_BYTES: usize = 1 << 20;

/// Lints an application model against a machine of `nodes` processors.
///
/// The model is flattened first (hierarchy errors become diagnostics);
/// structural checks then run over the flat graph, which is what the
/// generator consumes.
pub fn lint_model(app: &AppGraph, nodes: usize, spans: Option<&ModelSpans>) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let flat = match app.flatten() {
        Ok(flat) => flat,
        Err(e) => {
            diags.push(model_error_diag(&e, spans));
            return diags;
        }
    };
    for e in validate_all(&flat) {
        if matches!(e, ModelError::Cycle) {
            // Replaced by the path-reporting cycle check below.
            continue;
        }
        diags.push(model_error_diag(&e, spans));
    }
    if let Some(cycle) = find_cycle(&flat) {
        diags.push(cycle_diag(&flat, &cycle, spans));
    }
    check_node_balance(&flat, nodes, spans, &mut diags);
    check_fan_out(&flat, spans, &mut diags);
    diags
}

/// Lints an explicit AToT task mapping for a flattened model on `nodes`
/// processors: coverage (`SAGE020`), node range (`SAGE021`), a task graph no
/// mapping can schedule (`SAGE015`: a cycle that no `delay` block breaks),
/// and idle nodes (`SAGE031`).
pub fn lint_mapping(flat: &AppGraph, mapping: &TaskMapping, nodes: usize) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let tg = TaskGraph::from_model(flat);
    if mapping.nodes.len() != tg.len() {
        diags.push(Diagnostic::error(
            "SAGE020",
            format!(
                "mapping covers {} tasks, the flattened model has {}",
                mapping.nodes.len(),
                tg.len()
            ),
        ));
    }
    for (i, node) in mapping.nodes.iter().enumerate() {
        if node.index() >= nodes {
            let name = tg
                .tasks
                .get(i)
                .map(|t| t.name.clone())
                .unwrap_or_else(|| format!("task {i}"));
            diags.push(Diagnostic::error(
                "SAGE021",
                format!(
                    "`{name}` is mapped to node {}, hardware has {nodes} nodes",
                    node.index()
                ),
            ));
        }
    }
    if let Err(cycle) = tg.topo_order() {
        // No mapping can schedule a task graph whose precedence edges loop.
        diags.push(model_error_diag(&cycle, None));
    }
    let idle = mapping.idle_nodes(nodes);
    if !idle.is_empty() && mapping.nodes.len() == tg.len() {
        diags.push(idle_nodes_diag(&idle, nodes));
    }
    diags
}

/// Translates a Designer-era [`ModelError`] into a coded diagnostic,
/// attaching a source span when the span index can resolve the entity.
pub fn model_error_diag(e: &ModelError, spans: Option<&ModelSpans>) -> Diagnostic {
    let block_span = |block: &str| spans.and_then(|s| s.block(block));
    let port_span =
        |block: &str, port: &str| spans.and_then(|s| s.port(block, port).or(s.block(block)));
    let message = e.to_string();
    match e {
        ModelError::DuplicateName(n) => {
            Diagnostic::error("SAGE010", message).with_span_opt(block_span(n))
        }
        ModelError::NoSuchPort { block, .. } => {
            Diagnostic::error("SAGE011", message).with_span_opt(block_span(block))
        }
        ModelError::DirectionMismatch { .. } => Diagnostic::error("SAGE012", message),
        ModelError::TypeMismatch { .. } => Diagnostic::error("SAGE013", message),
        ModelError::MultipleWriters { block, port } => {
            Diagnostic::error("SAGE014", message).with_span_opt(port_span(block, port))
        }
        ModelError::Cycle => Diagnostic::error("SAGE015", message),
        ModelError::UnboundBoundary { block, port } => {
            Diagnostic::error("SAGE016", message).with_span_opt(port_span(block, port))
        }
        ModelError::AmbiguousBoundary { block, port } => {
            Diagnostic::error("SAGE017", message).with_span_opt(port_span(block, port))
        }
        ModelError::UnconnectedInput { block, port } => {
            Diagnostic::error("SAGE018", message).with_span_opt(port_span(block, port))
        }
        ModelError::BadStriping {
            block,
            port,
            threads,
        } => Diagnostic::error("SAGE019", message)
            .with_span_opt(port_span(block, port))
            .with_note(format!(
                "the striped dimension must divide evenly over the {threads} host threads"
            )),
        ModelError::MappingSize { .. } => Diagnostic::error("SAGE020", message),
        ModelError::MappingNode { block, .. } => {
            Diagnostic::error("SAGE021", message).with_span_opt(block_span(block))
        }
        ModelError::UnknownFunction { block, .. } => {
            Diagnostic::error("SAGE022", message).with_span_opt(block_span(block))
        }
        ModelError::BadEndpoint => Diagnostic::error("SAGE023", message),
    }
}

/// Finds one dataflow cycle in a flat graph, as block indices in chain
/// order (first element repeats conceptually at the end).
fn find_cycle(flat: &AppGraph) -> Option<Vec<usize>> {
    let n = flat.block_count();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in flat.connections() {
        succ[c.from.block.index()].push(c.to.block.index());
    }
    // Iterative DFS with an explicit path stack.
    let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        color[start] = 1;
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            if *next < succ[u].len() {
                let v = succ[u][*next];
                *next += 1;
                match color[v] {
                    0 => {
                        color[v] = 1;
                        stack.push((v, 0));
                    }
                    1 => {
                        // Found a back edge: the cycle is v..=u on the stack.
                        let pos = stack.iter().position(|&(w, _)| w == v).unwrap();
                        return Some(stack[pos..].iter().map(|&(w, _)| w).collect());
                    }
                    _ => {}
                }
            } else {
                color[u] = 2;
                stack.pop();
            }
        }
    }
    None
}

fn cycle_diag(flat: &AppGraph, cycle: &[usize], spans: Option<&ModelSpans>) -> Diagnostic {
    let names: Vec<&str> = cycle
        .iter()
        .map(|&i| flat.blocks()[i].name.as_str())
        .collect();
    let chain = format!("{} -> {}", names.join(" -> "), names[0]);
    let delayed = cycle.iter().find(|&&i| flat.blocks()[i].delay() > 0);
    let first_span = spans.and_then(|s| s.block(names[0]));
    match delayed {
        Some(&i) => Diagnostic::warning(
            "SAGE015",
            format!("dataflow cycle through a delay element: {chain}"),
        )
        .with_span_opt(first_span)
        .with_note(format!(
            "`{}` declares a `delay` property, so the feedback crosses an \
             iteration boundary and the scheduler breaks the cycle at the \
             delay arc; the pipeline-safety pass caps the pipeline depth \
             there (SAGE061)",
            flat.blocks()[i].name
        )),
        None => Diagnostic::error("SAGE015", format!("dataflow cycle: {chain}"))
            .with_span_opt(first_span)
            .with_note(
                "per-iteration dataflow must be acyclic; feedback needs a \
                 delay element so it crosses the iteration boundary",
            ),
    }
}

/// `SAGE030`/`SAGE031`: thread counts vs. the node count under the natural
/// aligned placement (thread `t` on node `t % nodes`).
fn check_node_balance(
    flat: &AppGraph,
    nodes: usize,
    spans: Option<&ModelSpans>,
    diags: &mut Diagnostics,
) {
    if nodes == 0 {
        diags.push(Diagnostic::error("SAGE021", "hardware has no nodes"));
        return;
    }
    let mut used = vec![false; nodes];
    for b in flat.blocks() {
        let threads = b.threads();
        for t in 0..threads.min(nodes) {
            used[t % nodes] = true;
        }
        if threads > nodes {
            used.iter_mut().for_each(|u| *u = true);
        }
        let striped = b.ports.iter().any(|p| !p.striping.is_replicated());
        if striped
            && threads > 1
            && !threads.is_multiple_of(nodes)
            && !nodes.is_multiple_of(threads)
        {
            diags.push(
                Diagnostic::warning(
                    "SAGE030",
                    format!(
                        "block `{}` stripes over {threads} threads but the \
                         hardware has {nodes} nodes",
                        b.name
                    ),
                )
                .with_span_opt(spans.and_then(|s| s.block(&b.name)))
                .with_note(format!(
                    "aligned placement puts thread t on node t % {nodes}, so \
                     some nodes carry more stripes than others"
                )),
            );
        }
    }
    let idle: Vec<usize> = used
        .iter()
        .enumerate()
        .filter(|(_, &u)| !u)
        .map(|(i, _)| i)
        .collect();
    if !idle.is_empty() && flat.block_count() > 0 {
        diags.push(idle_nodes_diag(&idle, nodes));
    }
}

fn idle_nodes_diag(idle: &[usize], nodes: usize) -> Diagnostic {
    let list: Vec<String> = idle.iter().map(|n| n.to_string()).collect();
    Diagnostic::warning(
        "SAGE031",
        format!(
            "{} of {nodes} nodes never run a task: {}",
            idle.len(),
            list.join(", ")
        ),
    )
    .with_note("reduce the node count or raise the thread counts to use the hardware")
}

/// `SAGE032`: an output endpoint fanning out to `k` readers moves `k`
/// copies of the payload; warn when that traffic is large.
fn check_fan_out(flat: &AppGraph, spans: Option<&ModelSpans>, diags: &mut Diagnostics) {
    for (bi, b) in flat.blocks().iter().enumerate() {
        for (pi, p) in b.outputs() {
            let ep = Endpoint {
                block: sage_model::BlockId::from_index(bi),
                port: pi,
            };
            let outs = flat.outgoing(ep);
            if outs.len() < 2 {
                continue;
            }
            let bytes = flat.connection_bytes(outs[0]);
            let total = bytes * outs.len();
            if total >= FAN_OUT_BYTES {
                let replicated_note = if matches!(p.striping, Striping::Replicated) {
                    "the port is replicated, so every reader thread receives the full payload"
                } else {
                    "each reader re-receives its stripe of the payload"
                };
                diags.push(
                    Diagnostic::warning(
                        "SAGE032",
                        format!(
                            "output `{}.{}` fans out to {} readers, moving \
                             {total} bytes per iteration",
                            b.name,
                            p.name,
                            outs.len()
                        ),
                    )
                    .with_span_opt(
                        spans.and_then(|s| s.port(&b.name, &p.name).or(s.block(&b.name))),
                    )
                    .with_note(replicated_note),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_model::{Block, CostModel, DataType, Port, ProcId, PropValue};

    fn pipeline(src_threads: usize, fft_threads: usize, n: usize) -> AppGraph {
        let dt = DataType::complex_matrix(n, n);
        let mut g = AppGraph::new("p");
        let s = g.add_block(Block::source_threaded(
            "src",
            src_threads,
            vec![Port::output("out", dt.clone(), Striping::BY_ROWS)],
        ));
        let f = g.add_block(Block::primitive(
            "fft",
            "isspl.fft_rows",
            fft_threads,
            CostModel::new(1.0, 1.0),
            vec![
                Port::input("in", dt.clone(), Striping::BY_ROWS),
                Port::output("out", dt.clone(), Striping::BY_ROWS),
            ],
        ));
        let k = g.add_block(Block::sink_threaded(
            "snk",
            src_threads,
            vec![Port::input("in", dt, Striping::BY_ROWS)],
        ));
        g.connect(s, "out", f, "in").unwrap();
        g.connect(f, "out", k, "in").unwrap();
        g
    }

    fn codes(d: &Diagnostics) -> Vec<&'static str> {
        d.diags.iter().map(|x| x.code).collect()
    }

    #[test]
    fn clean_model_is_clean() {
        let g = pipeline(4, 4, 8);
        assert!(lint_model(&g, 4, None).is_empty());
        // Threads a multiple of nodes is fine too (two stripes per node).
        assert!(lint_model(&g, 2, None).is_empty());
    }

    #[test]
    fn striping_vs_node_count_warns() {
        // 8 threads on 3 nodes: 3 does not divide 8 either way.
        let g = pipeline(8, 8, 8);
        let d = lint_model(&g, 3, None);
        let found = codes(&d);
        assert!(found.iter().all(|c| *c == "SAGE030"), "{:?}", d.diags);
        assert!(!found.is_empty());
    }

    #[test]
    fn idle_nodes_warn() {
        let g = pipeline(2, 2, 8);
        let d = lint_model(&g, 4, None);
        assert_eq!(codes(&d), vec!["SAGE031"]);
        assert!(d.diags[0].message.contains("2, 3"));
    }

    #[test]
    fn model_errors_become_coded_diagnostics() {
        let mut g = AppGraph::new("g");
        g.add_block(Block::source("x", vec![]));
        g.add_block(Block::primitive(
            "x",
            "id",
            4,
            CostModel::ZERO,
            vec![Port::input(
                "in",
                DataType::complex_matrix(9, 9),
                Striping::BY_ROWS,
            )],
        ));
        let d = lint_model(&g, 4, None);
        let found = codes(&d);
        assert!(found.contains(&"SAGE010"), "{found:?}");
        assert!(found.contains(&"SAGE019"), "{found:?}");
        assert!(found.contains(&"SAGE018"), "{found:?}");
    }

    #[test]
    fn cycle_reports_full_path() {
        let dt = DataType::complex_matrix(4, 4);
        let mut g = AppGraph::new("g");
        let a = g.add_block(Block::primitive(
            "a",
            "id",
            1,
            CostModel::ZERO,
            vec![
                Port::input("in", dt.clone(), Striping::Replicated),
                Port::output("out", dt.clone(), Striping::Replicated),
            ],
        ));
        let b = g.add_block(Block::primitive(
            "b",
            "id",
            1,
            CostModel::ZERO,
            vec![
                Port::input("in", dt.clone(), Striping::Replicated),
                Port::output("out", dt, Striping::Replicated),
            ],
        ));
        g.connect(a, "out", b, "in").unwrap();
        g.connect(b, "out", a, "in").unwrap();
        let d = lint_model(&g, 1, None);
        let cycle = d.diags.iter().find(|x| x.code == "SAGE015").unwrap();
        assert_eq!(cycle.severity, crate::Severity::Error);
        assert!(cycle.message.contains("a -> b -> a"), "{}", cycle.message);
        // With a delay element the cycle downgrades to a warning.
        let mut with_delay = g.clone();
        with_delay
            .block_mut(b)
            .props
            .insert("delay".into(), PropValue::Int(1));
        let d = lint_model(&with_delay, 1, None);
        let cycle = d.diags.iter().find(|x| x.code == "SAGE015").unwrap();
        assert_eq!(cycle.severity, crate::Severity::Warning);
        assert!(cycle.notes[0].contains("delay"));
        // No mapping can schedule the true cycle; the delayed one maps.
        let mapping = TaskMapping {
            nodes: vec![sage_model::ProcId(0); 2],
        };
        assert_eq!(codes(&lint_mapping(&g, &mapping, 1)), ["SAGE015"]);
        assert!(lint_mapping(&with_delay, &mapping, 1).is_empty());
    }

    #[test]
    fn large_fan_out_warns() {
        let dt = DataType::complex_matrix(512, 512); // 2 MiB payload
        let mut g = AppGraph::new("g");
        let s = g.add_block(Block::source(
            "src",
            vec![Port::output("out", dt.clone(), Striping::Replicated)],
        ));
        let k1 = g.add_block(Block::sink(
            "snk1",
            vec![Port::input("in", dt.clone(), Striping::Replicated)],
        ));
        let k2 = g.add_block(Block::sink(
            "snk2",
            vec![Port::input("in", dt, Striping::Replicated)],
        ));
        g.connect(s, "out", k1, "in").unwrap();
        g.connect(s, "out", k2, "in").unwrap();
        let d = lint_model(&g, 1, None);
        assert_eq!(codes(&d), vec!["SAGE032"]);
        assert!(d.diags[0].message.contains("2 readers"));
    }

    #[test]
    fn mapping_checks_report_codes() {
        let g = pipeline(2, 2, 8);
        let flat = g.flatten().unwrap();
        // 6 tasks total (2 + 2 + 2).
        let good = TaskMapping {
            nodes: vec![
                ProcId(0),
                ProcId(1),
                ProcId(0),
                ProcId(1),
                ProcId(0),
                ProcId(1),
            ],
        };
        assert!(lint_mapping(&flat, &good, 2).is_empty());
        let bad = TaskMapping {
            nodes: vec![ProcId(0), ProcId(7), ProcId(0)],
        };
        let d = lint_mapping(&flat, &bad, 2);
        let found = codes(&d);
        assert!(found.contains(&"SAGE020"), "{found:?}");
        assert!(found.contains(&"SAGE021"), "{found:?}");
        // All tasks piled on node 0 leaves node 1 idle.
        let lopsided = TaskMapping {
            nodes: vec![ProcId(0); 6],
        };
        let d = lint_mapping(&flat, &lopsided, 2);
        assert_eq!(codes(&d), vec!["SAGE031"]);
    }
}
