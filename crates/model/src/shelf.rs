//! The hardware **shelf**: reusable platform templates.
//!
//! Paper §1.1: "All primitive and hierarchical blocks are stored on software
//! and hardware shelves for later reuse. Items on the hardware shelf include
//! workstations, other embedded computers, CPU chips, memory, ASICs, FPGAs,
//! etc." and §3.2: porting SAGE to a platform means "capturing of all
//! knowledge associated with programming to the CSPI hardware ... the ISSPL
//! function libraries on to the appropriate shelves". The software shelf
//! is the run-time's function registry (`sage_runtime::Registry`), where
//! the ISSPL kernels are registered by name; each block's cost lives on
//! the block ([`crate::CostModel`]).

use crate::hardware::{FabricSpec, HardwareSpec, Processor};

/// The hardware shelf: named, parameterized platform templates.
///
/// The four presets model the vendors of the paper's MITRE cross-vendor
/// comparison (reference [2]). Parameters are plausible late-1990s values
/// chosen to reproduce the comparison's *shape*; see `EXPERIMENTS.md`.
#[derive(Clone, Debug, Default)]
pub struct HardwareShelf;

impl HardwareShelf {
    /// The paper's testbed: two quad-PowerPC-603e (200 MHz) boards behind a
    /// 160 MB/s Myrinet fabric, in one VME chassis.
    pub fn cspi_testbed() -> HardwareSpec {
        Self::cspi_with_nodes(8)
    }

    /// A CSPI-style machine with `nodes` processors (4 per board).
    pub fn cspi_with_nodes(nodes: usize) -> HardwareSpec {
        let proc = Processor {
            name: "PowerPC 603e".into(),
            clock_mhz: 200.0,
            flops_per_cycle: 1.0,
            mem_mb: 64.0,
            mem_bw_mbps: 640.0,
        };
        let myrinet = FabricSpec {
            bandwidth_mbps: 160.0,
            latency_us: 20.0,
        };
        Self::packed("CSPI", proc, nodes, 4, myrinet, myrinet)
    }

    /// A Mercury-style machine: faster RACEway-like fabric, PowerPC nodes.
    pub fn mercury_with_nodes(nodes: usize) -> HardwareSpec {
        let proc = Processor {
            name: "PowerPC 750".into(),
            clock_mhz: 366.0,
            flops_per_cycle: 1.0,
            mem_mb: 64.0,
            mem_bw_mbps: 900.0,
        };
        let race = FabricSpec {
            bandwidth_mbps: 267.0,
            latency_us: 8.0,
        };
        Self::packed("Mercury", proc, nodes, 4, race, race)
    }

    /// A SKY-style machine: SHARC-like DSP nodes, moderate fabric.
    pub fn sky_with_nodes(nodes: usize) -> HardwareSpec {
        let proc = Processor {
            name: "SKY PPC".into(),
            clock_mhz: 300.0,
            flops_per_cycle: 1.0,
            mem_mb: 64.0,
            mem_bw_mbps: 800.0,
        };
        let fabric = FabricSpec {
            bandwidth_mbps: 200.0,
            latency_us: 12.0,
        };
        Self::packed("SKY", proc, nodes, 4, fabric, fabric)
    }

    /// A SIGI-style machine: slower nodes, slower shared bus.
    pub fn sigi_with_nodes(nodes: usize) -> HardwareSpec {
        let proc = Processor {
            name: "SIGI PPC".into(),
            clock_mhz: 166.0,
            flops_per_cycle: 1.0,
            mem_mb: 32.0,
            mem_bw_mbps: 500.0,
        };
        let fabric = FabricSpec {
            bandwidth_mbps: 100.0,
            latency_us: 30.0,
        };
        Self::packed("SIGI", proc, nodes, 4, fabric, fabric)
    }

    /// Builds a platform by name (`"CSPI"`, `"Mercury"`, `"SKY"`, `"SIGI"`).
    pub fn by_name(name: &str, nodes: usize) -> Option<HardwareSpec> {
        match name {
            "CSPI" => Some(Self::cspi_with_nodes(nodes)),
            "Mercury" => Some(Self::mercury_with_nodes(nodes)),
            "SKY" => Some(Self::sky_with_nodes(nodes)),
            "SIGI" => Some(Self::sigi_with_nodes(nodes)),
            _ => None,
        }
    }

    fn packed(
        name: &str,
        proc: Processor,
        nodes: usize,
        per_board: usize,
        intra: FabricSpec,
        fabric: FabricSpec,
    ) -> HardwareSpec {
        assert!(nodes > 0);
        let full_boards = nodes / per_board;
        let rem = nodes % per_board;
        let mut hw = HardwareSpec::homogeneous(
            name,
            proc.clone(),
            full_boards.max(if rem > 0 || full_boards == 0 {
                0
            } else {
                full_boards
            }),
            per_board,
            intra,
            fabric,
        );
        // `homogeneous` built the full boards; append the partial board.
        if full_boards == 0 {
            hw.chassis[0].boards.clear();
        } else {
            hw.chassis[0].boards.truncate(full_boards);
        }
        if rem > 0 {
            hw.chassis[0].boards.push(crate::hardware::Board {
                name: format!("board{full_boards}"),
                processors: vec![proc; rem],
                intra,
            });
        }
        hw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cspi_testbed_matches_paper() {
        let hw = HardwareShelf::cspi_testbed();
        assert_eq!(hw.node_count(), 8);
        assert_eq!(hw.chassis[0].boards.len(), 2);
        assert_eq!(hw.chassis[0].fabric.bandwidth_mbps, 160.0);
        let flat = hw.flatten();
        assert_eq!(flat[0].proc.clock_mhz, 200.0);
    }

    #[test]
    fn node_counts_pack_onto_boards() {
        for n in [1usize, 2, 3, 4, 5, 8, 16] {
            let hw = HardwareShelf::cspi_with_nodes(n);
            assert_eq!(hw.node_count(), n, "n={n}");
        }
        // 6 nodes = one full quad board + one 2-proc board.
        let hw = HardwareShelf::cspi_with_nodes(6);
        assert_eq!(hw.chassis[0].boards.len(), 2);
        assert_eq!(hw.chassis[0].boards[1].processors.len(), 2);
    }

    #[test]
    fn vendor_presets_exist() {
        for v in ["CSPI", "Mercury", "SKY", "SIGI"] {
            let hw = HardwareShelf::by_name(v, 4).unwrap();
            assert_eq!(hw.node_count(), 4);
            assert_eq!(hw.name, v);
        }
        assert!(HardwareShelf::by_name("Cray", 4).is_none());
    }

    #[test]
    fn mercury_is_faster_than_sigi() {
        let m = HardwareShelf::mercury_with_nodes(4).flatten()[0]
            .proc
            .flops_per_sec();
        let s = HardwareShelf::sigi_with_nodes(4).flatten()[0]
            .proc
            .flops_per_sec();
        assert!(m > s);
    }
}
