//! The probe planted in generated code: one rank's own trace lane.
//!
//! The run-time records at function boundaries, transfer points, and
//! source/sink crossings — exactly the places the paper says probes are
//! "placed within the generated code". One rank records on one thread, so
//! its lane is a plain vector behind a `RefCell`: no lock, no sharing, and
//! the rank hands its lane to its report when it is done. Which rank a lane
//! belongs to is where it lands in the [`crate::Trace`], not a column of
//! every row.

use crate::event::{EventKind, ProbeEvent};
use std::cell::RefCell;

/// One rank's instrumentation lane.
pub struct Probe {
    /// `None` when probes are off: nothing is allocated or recorded.
    events: Option<RefCell<Vec<ProbeEvent>>>,
}

impl Probe {
    /// A lane that records only if `enabled`.
    pub fn new(enabled: bool) -> Probe {
        Probe {
            events: enabled.then(RefCell::default),
        }
    }

    /// A probe that records nothing (for uninstrumented runs).
    pub fn disabled() -> Probe {
        Probe::new(false)
    }

    /// Records one event of `kind` (see [`EventKind`] for what `id` names),
    /// stamped by `now`. A disabled probe never calls `now`, so probes that
    /// are off cost no clock read.
    pub fn record(&self, now: impl FnOnce() -> f64, kind: EventKind, id: u32, iteration: u32) {
        if let Some(events) = &self.events {
            let e = ProbeEvent::new(now(), kind, id, iteration);
            events.borrow_mut().push(e);
        }
    }

    /// The recorded lane, in recording order (empty when disabled). A rank
    /// stamps from one monotonic clock, so that is also time order.
    pub fn into_events(self) -> Vec<ProbeEvent> {
        self.events.map(RefCell::into_inner).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_records_into_its_own_lane() {
        let p = Probe::new(true);
        p.record(|| 0.0, EventKind::FnStart, 3, 0);
        p.record(|| 1.0, EventKind::FnEnd, 3, 0);
        p.record(|| 0.5, EventKind::SourceEmit, 0, 0);
        let events = p.into_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].kind, EventKind::SourceEmit);
        assert_eq!(events[2].time, 0.5, "recording order, not time order");
    }

    #[test]
    fn disabled_probe_reads_no_clock_and_records_nothing() {
        for p in [Probe::disabled(), Probe::new(false)] {
            p.record(
                || panic!("a disabled probe read the clock"),
                EventKind::FnStart,
                0,
                0,
            );
            assert!(p.into_events().is_empty());
        }
    }
}
