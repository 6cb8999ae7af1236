//! CSV export of traces for offline analysis.

use crate::trace::Trace;
use std::fmt::Write;

/// Renders the trace as CSV with header `time,node,kind,id,iteration`, its
/// ranks' rows merged in time order.
pub fn to_csv(trace: &Trace) -> String {
    let mut s = String::from("time,node,kind,id,iteration\n");
    for (node, e) in trace.in_time_order() {
        let _ = writeln!(
            s,
            "{:.9},{},{:?},{},{}",
            e.time, node, e.kind, e.id, e.iteration
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, ProbeEvent};

    #[test]
    fn csv_has_header_and_rows() {
        let t = Trace::new(vec![
            vec![ProbeEvent::new(1.0, EventKind::SourceEmit, 0, 2)],
            vec![
                ProbeEvent::new(0.5, EventKind::FnStart, 3, 2),
                ProbeEvent::new(1.5, EventKind::FnEnd, 3, 2),
            ],
        ]);
        let csv = to_csv(&t);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines,
            [
                "time,node,kind,id,iteration",
                "0.500000000,1,FnStart,3,2",
                "1.000000000,0,SourceEmit,0,2",
                "1.500000000,1,FnEnd,3,2",
            ]
        );
    }

    #[test]
    fn empty_trace_only_header() {
        assert_eq!(to_csv(&Trace::default()).lines().count(), 1);
    }
}
