//! Probe events: the raw samples instrumentation produces.

/// What a probe observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A function invocation began (`id` = function-table index).
    FnStart,
    /// A function invocation completed.
    FnEnd,
    /// A message transfer was initiated (`id` = logical buffer id,
    /// `iteration` = the producer's iteration).
    XferStart,
    /// A message transfer was taken by its consumer, off the wire or out of
    /// a local hand-off (`id` = logical buffer id, `iteration` = the
    /// producer's iteration, so it pairs with its [`EventKind::XferStart`]).
    XferEnd,
    /// An input data set left the data source (`id` = iteration).
    SourceEmit,
    /// A final result reached the data sink (`id` = iteration).
    SinkAbsorb,
    /// A dropped transfer was retried (`id` = logical buffer id).
    XferRetry,
    /// An injected fault or a failed transfer was observed (`id` =
    /// function-table index or buffer id, depending on the fault site).
    Fault,
}

/// One timestamped observation from a probe. It names no rank: it lives in
/// the lane of the rank that recorded it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeEvent {
    /// Time in seconds: the rank's virtual clock, or wall time since the
    /// rank's transport epoch.
    pub time: f64,
    /// Event kind.
    pub kind: EventKind,
    /// Kind-specific id (function index, buffer id, or iteration).
    pub id: u32,
    /// Iteration number the event belongs to.
    pub iteration: u32,
}

impl ProbeEvent {
    /// Creates an event.
    pub fn new(time: f64, kind: EventKind, id: u32, iteration: u32) -> ProbeEvent {
        ProbeEvent {
            time,
            kind,
            id,
            iteration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An event row names no rank: the lane it sits in does. A new field
    /// (a `node` column, say) fails to compile here.
    #[test]
    fn construction() {
        let ProbeEvent {
            time,
            kind,
            id,
            iteration,
        } = ProbeEvent::new(1.5, EventKind::FnStart, 7, 3);
        assert_eq!(time, 1.5);
        assert_eq!(kind, EventKind::FnStart);
        assert_eq!(id, 7);
        assert_eq!(iteration, 3);
    }
}
