//! Trace collection: thread-safe accumulation of probe events.
//!
//! Node threads append into per-node buffers behind a light mutex (the
//! probes are off the critical path unless enabled); the host merges them
//! into a time-ordered [`crate::trace::Trace`] after the run.

use crate::event::ProbeEvent;
use crate::trace::Trace;
use std::sync::Mutex;

/// A shared, thread-safe event collector for one run.
pub struct Collector {
    enabled: bool,
    lanes: Vec<Mutex<Vec<ProbeEvent>>>,
}

impl Collector {
    /// Creates a collector for `nodes` nodes.
    pub fn new(nodes: usize, enabled: bool) -> Collector {
        Collector {
            enabled,
            lanes: (0..nodes).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Whether probes should record at all (a disabled collector makes
    /// recording a cheap no-op, matching the Visualizer's configurable
    /// instrumentation).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of lanes (nodes).
    pub fn nodes(&self) -> usize {
        self.lanes.len()
    }

    /// Records an event into the emitting node's lane.
    pub fn record(&self, e: ProbeEvent) {
        if !self.enabled {
            return;
        }
        self.lanes[e.node as usize]
            .lock()
            .expect("collector lane poisoned")
            .push(e);
    }

    /// The recorded events, one lane per node, each in recording order.
    pub fn into_lanes(self) -> Vec<Vec<ProbeEvent>> {
        self.lanes
            .into_iter()
            .map(|lane| lane.into_inner().expect("collector lane poisoned"))
            .collect()
    }

    /// Merges all lanes into a single trace sorted by time (stable, so
    /// same-time events keep per-node order).
    pub fn into_trace(self) -> Trace {
        let mut events = self.into_lanes().concat();
        events.sort_by(|a, b| a.time.total_cmp(&b.time));
        Trace::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn records_and_merges_sorted() {
        let c = Collector::new(2, true);
        c.record(ProbeEvent::new(2.0, 0, EventKind::FnStart, 1, 0));
        c.record(ProbeEvent::new(1.0, 1, EventKind::FnStart, 2, 0));
        c.record(ProbeEvent::new(3.0, 1, EventKind::FnEnd, 2, 0));
        let t = c.into_trace();
        assert_eq!(t.len(), 3);
        let times: Vec<f64> = t.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn disabled_collector_drops_events() {
        let c = Collector::new(1, false);
        c.record(ProbeEvent::new(1.0, 0, EventKind::FnStart, 0, 0));
        assert!(!c.enabled());
        assert_eq!(c.into_trace().len(), 0);
    }

    #[test]
    fn concurrent_recording() {
        let c = std::sync::Arc::new(Collector::new(4, true));
        std::thread::scope(|s| {
            for node in 0..4u32 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        c.record(ProbeEvent::new(i as f64, node, EventKind::FnStart, i, 0));
                    }
                });
            }
        });
        let c = std::sync::Arc::into_inner(c).unwrap();
        assert_eq!(c.into_trace().len(), 400);
    }
}
