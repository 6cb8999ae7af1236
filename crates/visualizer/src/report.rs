//! Textual performance reports — the tabular "displays" of the Visualizer.

use crate::analysis::Analysis;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Per-function execution statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct FnStats {
    /// Function-table index.
    pub fn_id: u32,
    /// Completed invocations across all nodes.
    pub invocations: usize,
    /// Total busy seconds across all nodes.
    pub total_secs: f64,
    /// Mean seconds per invocation.
    pub mean_secs: f64,
    /// Maximum seconds over invocations.
    pub max_secs: f64,
}

/// Per-function statistics over every rank's spans, busiest first.
pub fn function_stats(analysis: &Analysis) -> Vec<FnStats> {
    let mut by_fn: BTreeMap<u32, FnStats> = BTreeMap::new();
    for s in analysis.spans.iter().flat_map(|(_, spans)| spans) {
        let f = by_fn.entry(s.fn_id).or_insert(FnStats {
            fn_id: s.fn_id,
            invocations: 0,
            total_secs: 0.0,
            mean_secs: 0.0,
            max_secs: 0.0,
        });
        let secs = s.end - s.start;
        f.invocations += 1;
        f.total_secs += secs;
        f.max_secs = f.max_secs.max(secs);
    }
    let mut out: Vec<FnStats> = by_fn.into_values().collect();
    for f in &mut out {
        f.mean_secs = f.total_secs / f.invocations as f64;
    }
    out.sort_by(|a, b| b.total_secs.total_cmp(&a.total_secs));
    out
}

/// Renders a full performance report: period/latency summary, per-node
/// utilization, and the per-function table, busiest first.
pub fn render(analysis: &Analysis) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "=== SAGE Visualizer report ===");
    let _ = writeln!(
        s,
        "iterations traced: {} | mean latency: {:.6} s | mean period: {:.6} s",
        analysis.latencies.len(),
        analysis.mean_latency(),
        analysis.mean_period()
    );
    let _ = writeln!(
        s,
        "worst latency: {:.6} s | latency jitter (stddev): {:.6} s",
        analysis.max_latency(),
        analysis.latency_jitter()
    );
    let _ = writeln!(s, "\nnode utilization:");
    for (node, u) in &analysis.utilization {
        let bars = (u * 40.0).round() as usize;
        let _ = writeln!(
            s,
            "  node {node:>3} [{:<40}] {:5.1}%",
            "#".repeat(bars.min(40)),
            u * 100.0
        );
    }
    let _ = writeln!(
        s,
        "\n{:<8} {:>12} {:>14} {:>14} {:>14}",
        "function", "invocations", "total (ms)", "mean (ms)", "max (ms)"
    );
    for f in function_stats(analysis) {
        let _ = writeln!(
            s,
            "F{:<7} {:>12} {:>14.4} {:>14.4} {:>14.4}",
            f.fn_id,
            f.invocations,
            f.total_secs * 1e3,
            f.mean_secs * 1e3,
            f.max_secs * 1e3
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, ProbeEvent};
    use crate::trace::Trace;

    fn analysis() -> Analysis {
        let ev = ProbeEvent::new;
        Analysis::of(&Trace::new(vec![
            vec![
                ev(0.0, EventKind::SourceEmit, 0, 0),
                ev(0.0, EventKind::FnStart, 1, 0),
                ev(2.0, EventKind::FnEnd, 1, 0),
            ],
            vec![
                ev(2.0, EventKind::FnStart, 1, 0),
                ev(3.0, EventKind::FnEnd, 1, 0),
                ev(3.0, EventKind::FnStart, 2, 0),
                ev(7.0, EventKind::FnEnd, 2, 0),
                ev(7.0, EventKind::SinkAbsorb, 0, 0),
            ],
        ]))
    }

    #[test]
    fn stats_aggregate_across_nodes() {
        let stats = function_stats(&analysis());
        assert_eq!(stats.len(), 2);
        // F2 (4 s) ranks above F1 (2 + 1 s).
        assert_eq!(stats[0].fn_id, 2);
        assert_eq!(stats[0].invocations, 1);
        assert_eq!(stats[1].fn_id, 1);
        assert_eq!(stats[1].invocations, 2);
        assert!((stats[1].total_secs - 3.0).abs() < 1e-12);
        assert!((stats[1].mean_secs - 1.5).abs() < 1e-12);
        assert!((stats[1].max_secs - 2.0).abs() < 1e-12);
    }

    #[test]
    fn report_renders_all_sections() {
        let r = render(&analysis());
        assert!(r.contains("Visualizer report"));
        assert!(r.contains("node utilization"));
        assert!(r.contains("node   0"));
        assert!(r.contains("F2"));
        assert!(r.contains("mean latency: 7.000000 s"));
        assert!(r.contains("worst latency: 7.000000 s"));
    }

    #[test]
    fn empty_trace_report_is_safe() {
        let r = render(&Analysis::of(&Trace::default()));
        assert!(r.contains("iterations traced: 0"));
    }
}
