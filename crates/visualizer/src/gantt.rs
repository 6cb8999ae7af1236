//! ASCII Gantt display — the textual stand-in for the Visualizer's
//! "variety of graphical displays".

use crate::analysis::Analysis;
use std::fmt::Write;

/// Renders per-node execution timelines as ASCII art, `width` columns wide.
///
/// Each row is one node that recorded anything; `#` marks time buckets
/// where one of its function spans ran, `.` idle buckets. A scale line is
/// appended.
pub fn render(analysis: &Analysis, width: usize) -> String {
    let width = width.max(10);
    let Some((t0, t1)) = analysis.extent else {
        return String::from("(empty trace)\n");
    };
    let span = (t1 - t0).max(f64::EPSILON);
    let mut out = String::new();
    for (node, spans) in &analysis.spans {
        let mut row = vec!['.'; width];
        for s in spans {
            let lo = (((s.start - t0) / span) * width as f64).floor() as usize;
            let hi = (((s.end - t0) / span) * width as f64).ceil() as usize;
            for cell in row.iter_mut().take(hi.min(width)).skip(lo.min(width)) {
                *cell = '#';
            }
        }
        let _ = writeln!(out, "node {node:>3} |{}|", row.iter().collect::<String>());
    }
    let _ = writeln!(
        out,
        "         {:<w$}{:.4}s",
        format!("{t0:.4}s"),
        t1,
        w = width - 5
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, ProbeEvent};
    use crate::trace::Trace;

    #[test]
    fn renders_busy_and_idle() {
        let t = Trace::new(vec![
            vec![
                ProbeEvent::new(0.0, EventKind::FnStart, 1, 0),
                ProbeEvent::new(5.0, EventKind::FnEnd, 1, 0),
            ],
            vec![
                ProbeEvent::new(5.0, EventKind::FnStart, 2, 0),
                ProbeEvent::new(10.0, EventKind::FnEnd, 2, 0),
            ],
        ]);
        let s = render(&Analysis::of(&t), 20);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("node   0"));
        // Node 0 busy in the first half, node 1 in the second.
        assert!(lines[0].contains("#"));
        let row0: String = lines[0]
            .chars()
            .filter(|c| *c == '#' || *c == '.')
            .collect();
        assert!(row0.starts_with('#'));
        let row1: String = lines[1]
            .chars()
            .filter(|c| *c == '#' || *c == '.')
            .collect();
        assert!(row1.starts_with('.'));
        assert!(row1.ends_with('#'));
    }

    #[test]
    fn empty_trace_message() {
        assert_eq!(
            render(&Analysis::of(&Trace::default()), 40),
            "(empty trace)\n"
        );
    }
}
