//! Trace analyses: the paper's period/latency metrics, utilization,
//! bottleneck ranking, and latency-threshold violations.
//!
//! [`Analysis::of`] walks each rank's lane once, pairing every `FnStart`
//! with its `FnEnd` into an [`FnSpan`]; every other display (the report,
//! the Gantt chart) reads those spans instead of the trace.

use crate::event::EventKind;
use crate::trace::Trace;
use std::collections::{BTreeMap, HashMap};

/// One function invocation on one rank: a `FnStart` paired with its `FnEnd`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FnSpan {
    /// Function-table index.
    pub fn_id: u32,
    /// When the invocation began, seconds.
    pub start: f64,
    /// When it completed, seconds.
    pub end: f64,
}

/// A ranked bottleneck candidate: the function whose cumulative execution
/// time dominates a node.
#[derive(Clone, Debug, PartialEq)]
pub struct Bottleneck {
    /// Node id.
    pub node: u32,
    /// Function-table index.
    pub fn_id: u32,
    /// Total seconds spent in this function on this node.
    pub busy_secs: f64,
    /// Fraction of the trace span this represents.
    pub share: f64,
}

/// One iteration whose latency exceeded the configured threshold.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyViolation {
    /// Iteration number.
    pub iteration: u32,
    /// Measured latency, seconds.
    pub latency: f64,
    /// The threshold that was violated.
    pub threshold: f64,
}

/// Computed performance summary of a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Analysis {
    /// Per-iteration latency, source emit → sink absorb (paper §3.3), as
    /// `(iteration, seconds)` for each iteration traced at both ends.
    pub latencies: Vec<(u32, f64)>,
    /// Periods between consecutive source emissions (paper §3.3).
    pub periods: Vec<f64>,
    /// The trace's time span `(first, last)`, `None` for an empty trace.
    pub extent: Option<(f64, f64)>,
    /// Per rank that recorded anything, as `(node, spans)`: its function
    /// spans in the order they completed.
    pub spans: Vec<(u32, Vec<FnSpan>)>,
    /// Per-node busy fraction over the trace span, as `(node, utilization)`.
    pub utilization: Vec<(u32, f64)>,
    /// Function/node pairs ranked by cumulative busy time, descending.
    pub bottlenecks: Vec<Bottleneck>,
}

impl Analysis {
    /// Analyzes a trace in one pass over each rank's lane.
    pub fn of(trace: &Trace) -> Analysis {
        let extent = trace.span();
        let span = extent.map_or(0.0, |(s, e)| e - s);
        let share = |secs: f64| if span > 0.0 { secs / span } else { 0.0 };
        let mut a = Analysis {
            extent,
            ..Analysis::default()
        };
        // Per iteration: its first source emit and its last sink absorb.
        let mut emits: BTreeMap<u32, f64> = BTreeMap::new();
        let mut absorbs: HashMap<u32, f64> = HashMap::new();
        for (node, lane) in trace.lanes().iter().enumerate() {
            if lane.is_empty() {
                continue;
            }
            let node = node as u32;
            let mut spans = Vec::new();
            // Open starts by function; a second start before the end
            // restarts the span.
            let mut open: Vec<(u32, f64)> = Vec::new();
            // Busy seconds per function that started here, in id order.
            let mut busy: BTreeMap<u32, f64> = BTreeMap::new();
            for e in lane {
                match e.kind {
                    EventKind::FnStart => {
                        busy.entry(e.id).or_insert(0.0);
                        match open.iter_mut().find(|(f, _)| *f == e.id) {
                            Some(o) => o.1 = e.time,
                            None => open.push((e.id, e.time)),
                        }
                    }
                    EventKind::FnEnd => {
                        if let Some(i) = open.iter().position(|(f, _)| *f == e.id) {
                            let (fn_id, start) = open.swap_remove(i);
                            spans.push(FnSpan {
                                fn_id,
                                start,
                                end: e.time,
                            });
                            *busy.entry(fn_id).or_default() += e.time - start;
                        }
                    }
                    EventKind::SourceEmit => {
                        let first = emits.entry(e.iteration).or_insert(e.time);
                        *first = first.min(e.time);
                    }
                    EventKind::SinkAbsorb => {
                        let last = absorbs.entry(e.iteration).or_insert(e.time);
                        *last = last.max(e.time);
                    }
                    _ => {}
                }
            }
            // Summed in completion order, not from `busy`: a different
            // order rounds differently, and the report prints the figure.
            let total = spans.iter().fold(0.0, |t, s| t + (s.end - s.start));
            a.utilization.push((node, share(total)));
            a.bottlenecks
                .extend(busy.into_iter().map(|(fn_id, busy_secs)| Bottleneck {
                    node,
                    fn_id,
                    busy_secs,
                    share: share(busy_secs),
                }));
            a.spans.push((node, spans));
        }
        a.bottlenecks
            .sort_by(|x, y| y.busy_secs.total_cmp(&x.busy_secs));
        for (&it, &start) in &emits {
            if let Some(&end) = absorbs.get(&it) {
                a.latencies.push((it, end - start));
            }
        }
        // Period: gaps between consecutive iterations' first emissions.
        let firsts: Vec<f64> = emits.into_values().collect();
        a.periods = firsts.windows(2).map(|w| w[1] - w[0]).collect();
        a
    }

    /// Mean latency, or 0 for an empty trace.
    pub fn mean_latency(&self) -> f64 {
        mean(self.latency_secs())
    }

    /// Mean period, or 0 when fewer than two iterations were traced.
    pub fn mean_period(&self) -> f64 {
        mean(self.periods.iter().copied())
    }

    /// Worst-case (maximum) latency over the traced iterations.
    pub fn max_latency(&self) -> f64 {
        self.latency_secs().fold(0.0, f64::max)
    }

    /// Latency jitter: the standard deviation over iterations — the number
    /// a real-time engineer checks against the deadline margin.
    pub fn latency_jitter(&self) -> f64 {
        if self.latencies.len() < 2 {
            return 0.0;
        }
        let m = self.mean_latency();
        let var = self.latency_secs().map(|l| (l - m) * (l - m)).sum::<f64>()
            / (self.latencies.len() - 1) as f64;
        var.sqrt()
    }

    /// Iterations whose latency exceeds `threshold` — the Visualizer's
    /// "violated latency thresholds" search.
    pub fn latency_violations(&self, threshold: f64) -> Vec<LatencyViolation> {
        self.latencies
            .iter()
            .filter(|&&(_, l)| l > threshold)
            .map(|&(iteration, latency)| LatencyViolation {
                iteration,
                latency,
                threshold,
            })
            .collect()
    }

    /// The single worst bottleneck, if any function executed.
    pub fn top_bottleneck(&self) -> Option<&Bottleneck> {
        self.bottlenecks.first()
    }

    fn latency_secs(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.latencies.iter().map(|&(_, l)| l)
    }
}

fn mean(xs: impl ExactSizeIterator<Item = f64>) -> f64 {
    match xs.len() {
        0 => 0.0,
        n => xs.sum::<f64>() / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProbeEvent;

    fn ev(time: f64, kind: EventKind, id: u32, iteration: u32) -> ProbeEvent {
        ProbeEvent::new(time, kind, id, iteration)
    }

    fn two_iteration_trace() -> Trace {
        Trace::new(vec![
            vec![
                ev(0.0, EventKind::SourceEmit, 0, 0),
                ev(0.5, EventKind::FnStart, 1, 0),
                ev(2.5, EventKind::FnEnd, 1, 0),
                ev(4.0, EventKind::SourceEmit, 1, 1),
                ev(4.5, EventKind::FnStart, 1, 1),
                ev(5.0, EventKind::FnEnd, 1, 1),
            ],
            vec![
                ev(3.0, EventKind::SinkAbsorb, 0, 0),
                ev(9.0, EventKind::SinkAbsorb, 1, 1),
            ],
        ])
    }

    #[test]
    fn latency_and_period_follow_paper_definitions() {
        let a = Analysis::of(&two_iteration_trace());
        assert_eq!(a.latencies, vec![(0, 3.0), (1, 5.0)]);
        assert_eq!(a.periods, vec![4.0]);
        assert_eq!(a.mean_latency(), 4.0);
        assert_eq!(a.mean_period(), 4.0);
    }

    #[test]
    fn violations_flag_only_over_threshold() {
        let a = Analysis::of(&two_iteration_trace());
        let v = a.latency_violations(4.0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].iteration, 1);
        assert_eq!(v[0].latency, 5.0);
        assert!(a.latency_violations(10.0).is_empty());
    }

    /// An iteration emitted but never absorbed has no latency, and the
    /// violations after it still name their own iterations.
    #[test]
    fn a_violation_names_its_iteration_past_an_unabsorbed_one() {
        let t = Trace::new(vec![
            vec![
                ev(0.0, EventKind::SourceEmit, 0, 0),
                ev(1.0, EventKind::SourceEmit, 1, 1),
            ],
            vec![ev(4.0, EventKind::SinkAbsorb, 1, 1)],
        ]);
        let a = Analysis::of(&t);
        assert_eq!(a.latencies, vec![(1, 3.0)]);
        let v = a.latency_violations(2.0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].iteration, 1);
    }

    #[test]
    fn utilization_and_bottlenecks() {
        let a = Analysis::of(&two_iteration_trace());
        // Node 0 busy 2.0 + 0.5 = 2.5 over span 9.0.
        let u0 = a.utilization.iter().find(|(n, _)| *n == 0).unwrap().1;
        assert!((u0 - 2.5 / 9.0).abs() < 1e-12);
        let top = a.top_bottleneck().unwrap();
        assert_eq!((top.node, top.fn_id), (0, 1));
        assert!((top.busy_secs - 2.5).abs() < 1e-12);
    }

    /// Interleaved functions on one rank pair by id, a restarted function
    /// keeps its later start, and a rank that ran nothing still has a row.
    #[test]
    fn spans_pair_by_function_within_a_lane() {
        let t = Trace::new(vec![
            vec![
                ev(0.0, EventKind::FnStart, 1, 0),
                ev(1.0, EventKind::FnStart, 2, 0),
                ev(2.0, EventKind::FnStart, 1, 0),
                ev(3.0, EventKind::FnEnd, 1, 0),
                ev(5.0, EventKind::FnEnd, 2, 0),
                ev(6.0, EventKind::FnEnd, 2, 0),
            ],
            Vec::new(),
            vec![ev(8.0, EventKind::XferEnd, 0, 0)],
        ]);
        let a = Analysis::of(&t);
        let span = |fn_id, start, end| FnSpan { fn_id, start, end };
        assert_eq!(
            a.spans,
            vec![
                (0, vec![span(1, 2.0, 3.0), span(2, 1.0, 5.0)]),
                (2, Vec::new())
            ]
        );
        assert_eq!(a.utilization, vec![(0, 5.0 / 8.0), (2, 0.0)]);
        let ranked: Vec<(u32, f64)> = a
            .bottlenecks
            .iter()
            .map(|b| (b.fn_id, b.busy_secs))
            .collect();
        assert_eq!(ranked, vec![(2, 4.0), (1, 1.0)]);
    }

    #[test]
    fn jitter_and_max() {
        let a = Analysis::of(&two_iteration_trace());
        assert_eq!(a.max_latency(), 5.0);
        // Sample stddev of [3, 5] = sqrt(2).
        assert!((a.latency_jitter() - 2.0f64.sqrt()).abs() < 1e-12);
        let single = Analysis {
            latencies: vec![(0, 1.0)],
            ..Analysis::default()
        };
        assert_eq!(single.latency_jitter(), 0.0);
    }

    #[test]
    fn empty_trace_is_safe() {
        let a = Analysis::of(&Trace::default());
        assert_eq!(a.mean_latency(), 0.0);
        assert!(a.top_bottleneck().is_none());
        assert!(a.extent.is_none());
    }
}
