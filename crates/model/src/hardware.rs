//! The **hardware editor**: hierarchical hardware architecture models.
//!
//! Paper §1.1: "In the hardware editor, the hardware architecture is built
//! hierarchically from the processor all the way up to the system level."
//! The paper's testbed is "two quad-PowerPC boards ... within a 21-slot VME
//! chassis. Each PowerPC has 64 MBytes of DRAM and can communicate through
//! 160 MBytes Myrinet fabric interconnect to each other (intra-board) and to
//! the outside world (inter-board)."
//!
//! A [`HardwareSpec`] flattens to a dense list of [`ProcessorInstance`]s and
//! a pairwise communication-cost matrix, which AToT's scheduler and the
//! fabric's virtual-time model both consume.

use crate::ids::ProcId;
use crate::Properties;

/// A processor type, captured on the hardware shelf.
#[derive(Clone, Debug, PartialEq)]
pub struct Processor {
    /// Model name, e.g. `"PowerPC 603e"`.
    pub name: String,
    /// Core clock in MHz.
    pub clock_mhz: f64,
    /// Sustainable floating-point operations per cycle (fused estimates).
    pub flops_per_cycle: f64,
    /// Local DRAM in megabytes.
    pub mem_mb: f64,
    /// Sustainable local memory bandwidth in MB/s.
    pub mem_bw_mbps: f64,
}

impl Processor {
    /// Peak sustainable flop rate in flops/second.
    pub fn flops_per_sec(&self) -> f64 {
        self.clock_mhz * 1.0e6 * self.flops_per_cycle
    }

    /// Local DRAM capacity in bytes.
    pub fn mem_bytes(&self) -> f64 {
        self.mem_mb * 1.0e6
    }

    /// Sustainable local memory bandwidth in bytes/second.
    pub fn mem_bw_bytes_per_sec(&self) -> f64 {
        self.mem_bw_mbps * 1.0e6
    }
}

/// A point-to-point or fabric link characterization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FabricSpec {
    /// Bandwidth in MB/s (the paper's Myrinet: 160 MB/s).
    pub bandwidth_mbps: f64,
    /// One-way message latency in microseconds.
    pub latency_us: f64,
}

impl FabricSpec {
    /// Transfer time in seconds for a message of `bytes` bytes.
    pub fn transfer_secs(&self, bytes: usize) -> f64 {
        self.latency_us * 1e-6 + bytes as f64 / (self.bandwidth_mbps * 1e6)
    }
}

/// A board: a set of processors sharing an intra-board interconnect.
#[derive(Clone, Debug, PartialEq)]
pub struct Board {
    /// Board name, e.g. `"quad-PPC"`.
    pub name: String,
    /// Processors on the board.
    pub processors: Vec<Processor>,
    /// Intra-board link characteristics.
    pub intra: FabricSpec,
}

/// A chassis: boards joined by a system fabric.
#[derive(Clone, Debug, PartialEq)]
pub struct Chassis {
    /// Chassis name, e.g. `"21-slot VME"`.
    pub name: String,
    /// Boards in slot order.
    pub boards: Vec<Board>,
    /// Inter-board fabric characteristics.
    pub fabric: FabricSpec,
}

/// A complete target hardware model.
#[derive(Clone, Debug, PartialEq)]
pub struct HardwareSpec {
    /// System name, e.g. `"CSPI testbed"`.
    pub name: String,
    /// Chassis in the system (usually one).
    pub chassis: Vec<Chassis>,
    /// Free-form attributes.
    pub props: Properties,
}

/// A flattened compute node: one processor with its location in the
/// hierarchy.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcessorInstance {
    /// Dense node id, `P0..P(N-1)`.
    pub id: ProcId,
    /// The processor's characteristics.
    pub proc: Processor,
    /// Index of the owning chassis.
    pub chassis: usize,
    /// Index of the owning board within the chassis.
    pub board: usize,
    /// Index of the processor within the board.
    pub slot: usize,
}

/// The capacity envelope of one flattened compute node, in absolute units
/// ready for feasibility checks (memory footprints, bandwidth budgets).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeCapacity {
    /// Local DRAM capacity in bytes.
    pub mem_bytes: f64,
    /// Peak sustainable flop rate in flops/second.
    pub flops_per_sec: f64,
    /// Sustainable local memory bandwidth in bytes/second.
    pub mem_bw_bytes_per_sec: f64,
}

impl HardwareSpec {
    /// Creates a single-chassis system.
    pub fn single_chassis(name: impl Into<String>, chassis: Chassis) -> HardwareSpec {
        HardwareSpec {
            name: name.into(),
            chassis: vec![chassis],
            props: Properties::new(),
        }
    }

    /// Builds a homogeneous system: `boards` boards of `procs_per_board`
    /// copies of `proc`, with the given intra/inter fabrics.
    pub fn homogeneous(
        name: impl Into<String>,
        proc: Processor,
        boards: usize,
        procs_per_board: usize,
        intra: FabricSpec,
        fabric: FabricSpec,
    ) -> HardwareSpec {
        let board_list = (0..boards)
            .map(|i| Board {
                name: format!("board{i}"),
                processors: vec![proc.clone(); procs_per_board],
                intra,
            })
            .collect();
        HardwareSpec::single_chassis(
            name,
            Chassis {
                name: "chassis0".into(),
                boards: board_list,
                fabric,
            },
        )
    }

    /// Flattens the hierarchy into a dense node list.
    pub fn flatten(&self) -> Vec<ProcessorInstance> {
        let mut out = Vec::new();
        for (ci, ch) in self.chassis.iter().enumerate() {
            for (bi, board) in ch.boards.iter().enumerate() {
                for (si, p) in board.processors.iter().enumerate() {
                    out.push(ProcessorInstance {
                        id: ProcId::from_index(out.len()),
                        proc: p.clone(),
                        chassis: ci,
                        board: bi,
                        slot: si,
                    });
                }
            }
        }
        out
    }

    /// Total number of processors.
    pub fn node_count(&self) -> usize {
        self.chassis
            .iter()
            .map(|c| c.boards.iter().map(|b| b.processors.len()).sum::<usize>())
            .sum()
    }

    /// The link characteristics between two flattened nodes: intra-board if
    /// they share a board, otherwise the chassis fabric (inter-chassis uses
    /// the first chassis' fabric as the system backbone).
    pub fn link_between(&self, a: &ProcessorInstance, b: &ProcessorInstance) -> FabricSpec {
        if a.chassis == b.chassis && a.board == b.board {
            self.chassis[a.chassis].boards[a.board].intra
        } else if a.chassis == b.chassis {
            self.chassis[a.chassis].fabric
        } else {
            self.chassis[0].fabric
        }
    }

    /// The capacity envelope of every flattened node, in node-id order.
    pub fn capacities(&self) -> Vec<NodeCapacity> {
        self.flatten()
            .into_iter()
            .map(|n| NodeCapacity {
                mem_bytes: n.proc.mem_bytes(),
                flops_per_sec: n.proc.flops_per_sec(),
                mem_bw_bytes_per_sec: n.proc.mem_bw_bytes_per_sec(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ppc() -> Processor {
        Processor {
            name: "PowerPC 603e".into(),
            clock_mhz: 200.0,
            flops_per_cycle: 1.0,
            mem_mb: 64.0,
            mem_bw_mbps: 320.0,
        }
    }

    fn myrinet() -> FabricSpec {
        FabricSpec {
            bandwidth_mbps: 160.0,
            latency_us: 20.0,
        }
    }

    #[test]
    fn paper_testbed_shape() {
        // Two quad-PowerPC boards = 8 nodes.
        let hw = HardwareSpec::homogeneous("CSPI", ppc(), 2, 4, myrinet(), myrinet());
        assert_eq!(hw.node_count(), 8);
        let flat = hw.flatten();
        assert_eq!(flat.len(), 8);
        assert_eq!(flat[0].board, 0);
        assert_eq!(flat[4].board, 1);
        assert_eq!(flat[7].id, ProcId(7));
    }

    #[test]
    fn flop_rate() {
        assert_eq!(ppc().flops_per_sec(), 200.0e6);
    }

    #[test]
    fn capacity_envelope_in_absolute_units() {
        let p = ppc();
        assert_eq!(p.mem_bytes(), 64.0e6);
        assert_eq!(p.mem_bw_bytes_per_sec(), 320.0e6);
        let hw = HardwareSpec::homogeneous("t", p, 2, 4, myrinet(), myrinet());
        let caps = hw.capacities();
        assert_eq!(caps.len(), 8);
        for c in caps {
            assert_eq!(c.mem_bytes, 64.0e6);
            assert_eq!(c.flops_per_sec, 200.0e6);
            assert_eq!(c.mem_bw_bytes_per_sec, 320.0e6);
        }
    }

    #[test]
    fn transfer_time_includes_latency_and_bandwidth() {
        let f = myrinet();
        let t = f.transfer_secs(160_000_000); // 160 MB at 160 MB/s = 1s
        assert!((t - 1.0 - 20.0e-6).abs() < 1e-9);
        assert!((f.transfer_secs(0) - 20.0e-6).abs() < 1e-12);
    }

    #[test]
    fn link_selection_intra_vs_inter() {
        let fast = FabricSpec {
            bandwidth_mbps: 400.0,
            latency_us: 5.0,
        };
        let slow = myrinet();
        let hw = HardwareSpec::homogeneous("t", ppc(), 2, 2, fast, slow);
        let flat = hw.flatten();
        assert_eq!(hw.link_between(&flat[0], &flat[1]), fast); // same board
        assert_eq!(hw.link_between(&flat[0], &flat[2]), slow); // cross board
    }
}
