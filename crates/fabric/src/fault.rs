//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] describes everything that can go wrong in a run: link
//! degradation factors, probabilistic (but seeded, hence reproducible)
//! message drops, node stall/fail events pinned to virtual times, and
//! kernel-error injections that the run-time layer interprets. The plan is
//! attached to a [`crate::Cluster`] via [`crate::Cluster::with_faults`]; an
//! empty plan (the default) leaves the fabric bit-identical to a
//! fault-free build.
//!
//! Determinism contract: every fault decision is a pure function of the
//! plan (seed included) and per-node program-order counters — never of
//! thread interleaving or wall time. Same seed + same plan + same program
//! ⇒ the same faults fire at the same virtual times with the same
//! payload outcomes.

use rand::splitmix64;

/// A link whose effective bandwidth is reduced by a factor.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkDegradation {
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Serialization-time multiplier (`>= 1.0`); 2.0 means the wire takes
    /// twice as long per byte. Latency is unaffected.
    pub factor: f64,
}

/// What happens to a node at a pinned virtual time.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeFaultKind {
    /// The node freezes for `stall_secs` the first time its clock passes
    /// `at_secs` (virtual mode only). Stall time is charged as lost time,
    /// not compute.
    StallAt {
        /// Virtual time the stall triggers at.
        at_secs: f64,
        /// How long the node is frozen.
        stall_secs: f64,
    },
    /// The node fails permanently the first time its clock passes
    /// `at_secs` (virtual mode only). Subsequent fabric operations on the
    /// node return [`FabricError::NodeFailed`]; peers blocked on it get
    /// [`FabricError::PeerFailed`].
    FailAt {
        /// Virtual time the failure triggers at.
        at_secs: f64,
    },
}

/// A scheduled stall or failure on one node.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeFault {
    /// The affected node.
    pub node: u32,
    /// What happens.
    pub kind: NodeFaultKind,
}

/// A kernel-error injection, interpreted by the run-time executor: when
/// the named block runs the given iteration on the given thread, its
/// kernel reports `message` as an error instead of computing.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelFault {
    /// Block (glue-program function) name, e.g. `"row_fft"`.
    pub block: String,
    /// Iteration the fault fires on.
    pub iteration: u32,
    /// Thread (within the block's thread group) the fault fires on.
    pub thread: u32,
    /// The injected error message.
    pub message: String,
}

/// A complete, seeded description of the faults for one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for all probabilistic decisions (message drops).
    pub seed: u64,
    /// Probability in `[0, 1]` that any given non-self transfer is dropped
    /// on the wire. Dropped transfers still charge the sender's NIC (the
    /// bytes went out; nobody heard them).
    pub drop_prob: f64,
    /// Per-link bandwidth degradations.
    pub degraded_links: Vec<LinkDegradation>,
    /// Scheduled node stalls and failures.
    pub node_faults: Vec<NodeFault>,
    /// Kernel-error injections (interpreted by `sage-runtime`).
    pub kernel_faults: Vec<KernelFault>,
}

impl FaultPlan {
    /// An empty plan with the given seed. Empty plans inject nothing.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.drop_prob <= 0.0
            && self.degraded_links.is_empty()
            && self.node_faults.is_empty()
            && self.kernel_faults.is_empty()
    }

    /// Sets the seeded per-transfer drop probability.
    pub fn with_drop_prob(mut self, p: f64) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} not in [0, 1]"
        );
        self.drop_prob = p;
        self
    }

    /// Degrades the `src -> dst` link by `factor` (`>= 1.0`).
    pub fn degrade_link(mut self, src: u32, dst: u32, factor: f64) -> FaultPlan {
        assert!(factor >= 1.0, "degradation factor {factor} < 1.0");
        self.degraded_links
            .push(LinkDegradation { src, dst, factor });
        self
    }

    /// Stalls `node` for `stall_secs` when its virtual clock passes
    /// `at_secs`.
    pub fn stall_node(mut self, node: u32, at_secs: f64, stall_secs: f64) -> FaultPlan {
        self.node_faults.push(NodeFault {
            node,
            kind: NodeFaultKind::StallAt {
                at_secs,
                stall_secs,
            },
        });
        self
    }

    /// Fails `node` permanently when its virtual clock passes `at_secs`.
    pub fn fail_node(mut self, node: u32, at_secs: f64) -> FaultPlan {
        self.node_faults.push(NodeFault {
            node,
            kind: NodeFaultKind::FailAt { at_secs },
        });
        self
    }

    /// Injects a kernel error into `block` at `(iteration, thread)`.
    pub fn inject_kernel_fault(
        mut self,
        block: &str,
        iteration: u32,
        thread: u32,
        message: &str,
    ) -> FaultPlan {
        self.kernel_faults.push(KernelFault {
            block: block.to_string(),
            iteration,
            thread,
            message: message.to_string(),
        });
        self
    }

    /// The bandwidth-degradation factor for the `src -> dst` link (1.0 if
    /// undegraded). Multiple entries for the same link compound.
    pub fn link_factor(&self, src: u32, dst: u32) -> f64 {
        self.degraded_links
            .iter()
            .filter(|d| d.src == src && d.dst == dst)
            .map(|d| d.factor)
            .product()
    }

    /// Deterministic drop decision for the `n`-th send from `src` to
    /// `dst` (counters are per-sender, program order).
    pub fn drops_transfer(&self, src: u32, dst: u32, seq: u64) -> bool {
        if self.drop_prob <= 0.0 {
            return false;
        }
        if self.drop_prob >= 1.0 {
            return true;
        }
        let h = splitmix64(
            self.seed
                ^ splitmix64((u64::from(src) << 32) | u64::from(dst))
                ^ splitmix64(seq ^ 0x9e37_79b9_7f4a_7c15),
        );
        // Top 53 bits give an exact dyadic uniform in [0, 1).
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.drop_prob
    }

    /// The kernel fault (if any) registered for `(block, iteration,
    /// thread)`.
    pub fn kernel_fault(&self, block: &str, iteration: u32, thread: u32) -> Option<&KernelFault> {
        self.kernel_faults
            .iter()
            .find(|k| k.block == block && k.iteration == iteration && k.thread == thread)
    }
}

/// A fabric-level fault surfaced to the caller instead of a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricError {
    /// A transfer was dropped on the wire (retryable: the payload is
    /// intact at the sender).
    TransferDropped {
        /// Sending node.
        src: u32,
        /// Receiving node.
        dst: u32,
        /// Message tag.
        tag: u64,
    },
    /// This node hit its scheduled failure and can no longer use the
    /// fabric.
    NodeFailed {
        /// The failed node (the caller).
        node: u32,
    },
    /// A receive can never complete because the peer failed or exited
    /// without sending.
    PeerFailed {
        /// The waiting node.
        node: u32,
        /// The dead peer.
        peer: u32,
    },
    /// A receive exceeded the cluster's real-time deadlock timeout.
    RecvTimeout {
        /// The waiting node.
        node: u32,
        /// Expected source.
        src: u32,
        /// Expected tag.
        tag: u64,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::TransferDropped { src, dst, tag } => {
                write!(f, "transfer {src} -> {dst} (tag {tag}) dropped on the wire")
            }
            FabricError::NodeFailed { node } => write!(f, "node {node} failed"),
            FabricError::PeerFailed { node, peer } => {
                write!(f, "node {node} cannot receive: peer {peer} is down")
            }
            FabricError::RecvTimeout { node, src, tag } => {
                write!(
                    f,
                    "node {node} timed out waiting for (src={src}, tag={tag})"
                )
            }
        }
    }
}

impl std::error::Error for FabricError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        assert!(FaultPlan::new(42).is_empty());
        assert!(!FaultPlan::new(42).with_drop_prob(0.1).is_empty());
        assert!(!FaultPlan::new(42).degrade_link(0, 1, 2.0).is_empty());
        assert!(!FaultPlan::new(42).fail_node(0, 1.0).is_empty());
        assert!(!FaultPlan::new(42)
            .inject_kernel_fault("fft", 0, 0, "boom")
            .is_empty());
    }

    #[test]
    fn drop_decisions_are_deterministic() {
        let plan = FaultPlan::new(7).with_drop_prob(0.25);
        let a: Vec<bool> = (0..256).map(|s| plan.drops_transfer(0, 1, s)).collect();
        let b: Vec<bool> = (0..256).map(|s| plan.drops_transfer(0, 1, s)).collect();
        assert_eq!(a, b);
        let dropped = a.iter().filter(|&&d| d).count();
        // 256 draws at p=0.25: expect some drops, not all.
        assert!(dropped > 0 && dropped < 256, "dropped {dropped}");
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::new(3).with_drop_prob(0.5);
        let n = 10_000;
        let dropped = (0..n).filter(|&s| plan.drops_transfer(2, 5, s)).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn drop_extremes() {
        assert!(!FaultPlan::new(1).drops_transfer(0, 1, 0));
        let always = FaultPlan::new(1).with_drop_prob(1.0);
        assert!((0..64).all(|s| always.drops_transfer(0, 1, s)));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1).with_drop_prob(0.5);
        let b = FaultPlan::new(2).with_drop_prob(0.5);
        let da: Vec<bool> = (0..128).map(|s| a.drops_transfer(0, 1, s)).collect();
        let db: Vec<bool> = (0..128).map(|s| b.drops_transfer(0, 1, s)).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn link_factors_compound() {
        let plan = FaultPlan::new(0)
            .degrade_link(0, 1, 2.0)
            .degrade_link(0, 1, 3.0)
            .degrade_link(1, 0, 5.0);
        assert_eq!(plan.link_factor(0, 1), 6.0);
        assert_eq!(plan.link_factor(1, 0), 5.0);
        assert_eq!(plan.link_factor(2, 3), 1.0);
    }

    #[test]
    fn kernel_fault_lookup() {
        let plan = FaultPlan::new(0).inject_kernel_fault("row_fft", 2, 1, "bit flip");
        assert!(plan.kernel_fault("row_fft", 2, 1).is_some());
        assert!(plan.kernel_fault("row_fft", 2, 0).is_none());
        assert!(plan.kernel_fault("col_fft", 2, 1).is_none());
        assert_eq!(
            plan.kernel_fault("row_fft", 2, 1).unwrap().message,
            "bit flip"
        );
    }

    #[test]
    fn errors_display() {
        let e = FabricError::TransferDropped {
            src: 0,
            dst: 1,
            tag: 9,
        };
        assert!(e.to_string().contains("dropped"));
        let e = FabricError::RecvTimeout {
            node: 2,
            src: 0,
            tag: 7,
        };
        assert_eq!(e.to_string(), "node 2 timed out waiting for (src=0, tag=7)");
    }
}
