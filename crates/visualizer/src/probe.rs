//! Probe handles planted in generated code.
//!
//! A [`Probe`] is a cheap cloneable handle bound to one node; the run-time
//! calls its record methods at function boundaries, transfer points, and
//! source/sink crossings — exactly the places the paper says probes are
//! "placed within the generated code".

use crate::collector::Collector;
use crate::event::{EventKind, ProbeEvent};
use std::sync::Arc;

/// A per-node instrumentation handle.
#[derive(Clone)]
pub struct Probe {
    collector: Arc<Collector>,
    node: u32,
}

impl Probe {
    /// Binds a probe to `node` on a shared collector.
    pub fn new(collector: Arc<Collector>, node: u32) -> Probe {
        Probe { collector, node }
    }

    /// A probe that records nothing (for uninstrumented runs).
    pub fn disabled() -> Probe {
        Probe {
            collector: Arc::new(Collector::new(1, false)),
            node: 0,
        }
    }

    /// Whether this probe records.
    pub fn enabled(&self) -> bool {
        self.collector.enabled()
    }

    /// Records a raw event.
    pub fn record(&self, time: f64, kind: EventKind, id: u32, iteration: u32) {
        if self.collector.enabled() {
            self.collector
                .record(ProbeEvent::new(time, self.node, kind, id, iteration));
        }
    }

    /// Function invocation began.
    pub fn fn_start(&self, time: f64, fn_id: u32, iteration: u32) {
        self.record(time, EventKind::FnStart, fn_id, iteration);
    }

    /// Function invocation completed.
    pub fn fn_end(&self, time: f64, fn_id: u32, iteration: u32) {
        self.record(time, EventKind::FnEnd, fn_id, iteration);
    }

    /// Transfer initiated.
    pub fn xfer_start(&self, time: f64, buf_id: u32, iteration: u32) {
        self.record(time, EventKind::XferStart, buf_id, iteration);
    }

    /// A dropped transfer was retried.
    pub fn xfer_retry(&self, time: f64, buf_id: u32, iteration: u32) {
        self.record(time, EventKind::XferRetry, buf_id, iteration);
    }

    /// An injected fault was observed.
    pub fn fault(&self, time: f64, id: u32, iteration: u32) {
        self.record(time, EventKind::Fault, id, iteration);
    }

    /// Wire connection to `peer` established (real transports only).
    pub fn net_connect(&self, time: f64, peer: u32) {
        self.record(time, EventKind::NetConnect, peer, 0);
    }

    /// Framed message sent to `peer` over a real wire.
    pub fn net_send(&self, time: f64, peer: u32, iteration: u32) {
        self.record(time, EventKind::NetSend, peer, iteration);
    }

    /// Framed message received from `peer` off a real wire.
    pub fn net_recv(&self, time: f64, peer: u32, iteration: u32) {
        self.record(time, EventKind::NetRecv, peer, iteration);
    }

    /// Wire operation toward `peer` retried.
    pub fn net_retry(&self, time: f64, peer: u32) {
        self.record(time, EventKind::NetRetry, peer, 0);
    }

    /// Wire operation toward `peer` timed out.
    pub fn net_timeout(&self, time: f64, peer: u32) {
        self.record(time, EventKind::NetTimeout, peer, 0);
    }

    /// Data set left the source.
    pub fn source_emit(&self, time: f64, iteration: u32) {
        self.record(time, EventKind::SourceEmit, iteration, iteration);
    }

    /// Result reached the sink.
    pub fn sink_absorb(&self, time: f64, iteration: u32) {
        self.record(time, EventKind::SinkAbsorb, iteration, iteration);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_records_through_collector() {
        let c = Arc::new(Collector::new(2, true));
        let p0 = Probe::new(c.clone(), 0);
        let p1 = Probe::new(c.clone(), 1);
        p0.fn_start(0.0, 3, 0);
        p0.fn_end(1.0, 3, 0);
        p1.source_emit(0.5, 0);
        drop((p0, p1));
        let t = Arc::into_inner(c).unwrap().into_trace();
        assert_eq!(t.len(), 3);
        assert_eq!(t.events()[1].node, 1);
        assert_eq!(t.events()[1].kind, EventKind::SourceEmit);
    }

    #[test]
    fn disabled_probe_is_silent() {
        let p = Probe::disabled();
        assert!(!p.enabled());
        p.fn_start(0.0, 0, 0); // must not panic or record
    }
}
