//! A run's trace: one time-ordered lane per rank.

use crate::event::ProbeEvent;

/// A complete trace of one run. Lane `r` holds rank `r`'s events in
/// recording order, which is time order: every backend stamps a rank from
/// one monotonic clock. The lanes are never concatenated or sorted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    lanes: Vec<Vec<ProbeEvent>>,
}

impl Trace {
    /// Wraps per-rank lanes, indexed by rank; each is nondecreasing in time.
    pub fn new(lanes: Vec<Vec<ProbeEvent>>) -> Trace {
        debug_assert!(
            lanes
                .iter()
                .all(|lane| lane.windows(2).all(|w| w[0].time <= w[1].time)),
            "a rank's lane went back in time"
        );
        Trace { lanes }
    }

    /// The lanes, indexed by rank.
    pub fn lanes(&self) -> &[Vec<ProbeEvent>] {
        &self.lanes
    }

    /// Number of events over all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    /// `true` if no lane recorded anything.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(Vec::is_empty)
    }

    /// The time span `(first, last)` of the trace, or `None` if empty.
    pub fn span(&self) -> Option<(f64, f64)> {
        let lanes = || self.lanes.iter();
        let first = lanes().filter_map(|l| l.first()).map(|e| e.time);
        let last = lanes().filter_map(|l| l.last()).map(|e| e.time);
        Some((first.reduce(f64::min)?, last.reduce(f64::max)?))
    }

    /// Every event as `(rank, event)`, across ranks in time order: the
    /// lanes merged as they are walked, a tie going to the lower rank. This
    /// is the one cross-rank walk; everything else reads a lane at a time.
    pub fn in_time_order(&self) -> impl Iterator<Item = (u32, &ProbeEvent)> {
        let mut next = vec![0; self.lanes.len()];
        std::iter::from_fn(move || {
            let (rank, e) = (self.lanes.iter().enumerate())
                .filter_map(|(rank, lane)| Some((rank, lane.get(next[rank])?)))
                .min_by(|(_, a), (_, b)| a.time.total_cmp(&b.time))?;
            next[rank] += 1;
            Some((rank as u32, e))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn demo() -> Trace {
        Trace::new(vec![
            vec![
                ProbeEvent::new(0.0, EventKind::SourceEmit, 0, 0),
                ProbeEvent::new(1.0, EventKind::FnStart, 5, 0),
                ProbeEvent::new(4.0, EventKind::FnEnd, 5, 0),
            ],
            vec![
                ProbeEvent::new(1.0, EventKind::FnStart, 6, 0),
                ProbeEvent::new(9.0, EventKind::FnEnd, 6, 0),
                ProbeEvent::new(10.0, EventKind::SinkAbsorb, 0, 0),
            ],
            Vec::new(),
        ])
    }

    #[test]
    fn span_and_len_cover_every_lane() {
        let t = demo();
        assert_eq!(t.span(), Some((0.0, 10.0)));
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        assert!(Trace::default().span().is_none());
        assert!(Trace::new(vec![Vec::new(); 2]).is_empty());
    }

    #[test]
    fn time_order_merges_lanes_and_ties_go_to_the_lower_rank() {
        let walked: Vec<(u32, f64)> = demo().in_time_order().map(|(r, e)| (r, e.time)).collect();
        assert_eq!(
            walked,
            vec![(0, 0.0), (0, 1.0), (1, 1.0), (0, 4.0), (1, 9.0), (1, 10.0)]
        );
        assert_eq!(Trace::default().in_time_order().count(), 0);
    }

    #[test]
    #[should_panic(expected = "back in time")]
    #[cfg(debug_assertions)]
    fn a_lane_out_of_time_order_is_refused() {
        Trace::new(vec![vec![
            ProbeEvent::new(1.0, EventKind::FnStart, 0, 0),
            ProbeEvent::new(0.5, EventKind::FnEnd, 0, 0),
        ]]);
    }
}
