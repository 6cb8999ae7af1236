//! Per-run traffic and timing metrics.

/// Wire-level counters for one directed link (`src -> dst`).
///
/// The in-process backend moves payloads by pointer, so it leaves these
/// empty; real transports (`sage-net`'s TCP backend) count every framed
/// message and payload byte that crossed each link, giving the
/// bytes-on-wire view the paper's Myrinet counters would have.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkMetrics {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Data messages sent over this link.
    pub messages: u64,
    /// Payload bytes sent over this link (framing overhead excluded).
    pub bytes: u64,
}

/// Traffic counters for one node.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeMetrics {
    /// Messages sent by this node.
    pub messages_sent: u64,
    /// Payload bytes sent by this node.
    pub bytes_sent: u64,
    /// Messages received.
    pub messages_received: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Final virtual clock (seconds); 0 in real mode.
    pub final_clock: f64,
    /// Accumulated virtual compute time (seconds); 0 in real mode.
    pub compute_secs: f64,
    /// Accumulated virtual time blocked in receives (seconds); 0 in real mode.
    pub wait_secs: f64,
    /// Transfers dropped on the wire by fault injection.
    pub transfers_dropped: u64,
    /// Retries of dropped transfers recorded by upper layers.
    pub retries: u64,
    /// Injected faults this node observed (drops, stalls, failures).
    pub faults_observed: u64,
    /// Virtual time lost to faults: wasted injections, stalls, retry
    /// backoff (seconds); 0 in real mode.
    pub lost_secs: f64,
    /// Peak live logical-buffer bytes observed by the executor on this
    /// node: task input and output stripes plus pending same-node
    /// hand-offs, sampled while each kernel runs. Comparable across
    /// backends (it counts logical bytes, not allocations), and the dynamic counterpart of `sage-check`'s
    /// `SAGE055` static high-water prediction.
    pub mem_high_water: u64,
}

/// Aggregated metrics for a whole run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FabricMetrics {
    /// Per-node counters, indexed by node id.
    pub nodes: Vec<NodeMetrics>,
    /// Per-link wire counters (empty for in-process backends).
    pub links: Vec<LinkMetrics>,
}

impl FabricMetrics {
    /// Total payload bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_sent).sum()
    }

    /// Total messages.
    pub fn total_messages(&self) -> u64 {
        self.nodes.iter().map(|n| n.messages_sent).sum()
    }

    /// The largest final virtual clock — the virtual makespan.
    pub fn makespan(&self) -> f64 {
        self.nodes.iter().map(|n| n.final_clock).fold(0.0, f64::max)
    }

    /// Total transfers dropped on the wire across all nodes.
    pub fn total_dropped(&self) -> u64 {
        self.nodes.iter().map(|n| n.transfers_dropped).sum()
    }

    /// Total transfer retries across all nodes.
    pub fn total_retries(&self) -> u64 {
        self.nodes.iter().map(|n| n.retries).sum()
    }

    /// Total injected faults observed across all nodes.
    pub fn total_faults(&self) -> u64 {
        self.nodes.iter().map(|n| n.faults_observed).sum()
    }

    /// Total virtual time lost to faults across all nodes (seconds).
    pub fn total_lost_secs(&self) -> f64 {
        self.nodes.iter().map(|n| n.lost_secs).sum()
    }

    /// Total payload bytes that crossed a real wire (sum over link
    /// counters; 0 for in-process backends).
    pub fn wire_bytes(&self) -> u64 {
        self.links.iter().map(|l| l.bytes).sum()
    }

    /// Total framed data messages that crossed a real wire.
    pub fn wire_messages(&self) -> u64 {
        self.links.iter().map(|l| l.messages).sum()
    }

    /// Node compute utilization: compute time over makespan, per node.
    pub fn utilization(&self) -> Vec<f64> {
        let ms = self.makespan();
        if ms <= 0.0 {
            return vec![0.0; self.nodes.len()];
        }
        self.nodes.iter().map(|n| n.compute_secs / ms).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let m = FabricMetrics {
            nodes: vec![
                NodeMetrics {
                    messages_sent: 2,
                    bytes_sent: 10,
                    final_clock: 1.0,
                    compute_secs: 0.5,
                    ..Default::default()
                },
                NodeMetrics {
                    messages_sent: 1,
                    bytes_sent: 5,
                    final_clock: 2.0,
                    compute_secs: 2.0,
                    ..Default::default()
                },
            ],
            links: vec![
                LinkMetrics {
                    src: 0,
                    dst: 1,
                    messages: 2,
                    bytes: 10,
                },
                LinkMetrics {
                    src: 1,
                    dst: 0,
                    messages: 1,
                    bytes: 5,
                },
            ],
        };
        assert_eq!(m.wire_bytes(), 15);
        assert_eq!(m.wire_messages(), 3);
        assert_eq!(m.total_bytes(), 15);
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.makespan(), 2.0);
        assert_eq!(m.utilization(), vec![0.25, 1.0]);
    }

    #[test]
    fn empty_metrics_safe() {
        let m = FabricMetrics::default();
        assert_eq!(m.makespan(), 0.0);
        assert!(m.utilization().is_empty());
    }
}
