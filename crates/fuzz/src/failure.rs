//! Failure persistence and deterministic replay.
//!
//! When a differential run fails, the harness writes everything needed to
//! reproduce it bit-identically into a directory (by convention
//! `target/fuzz-failures/`): the offending model as real `.sexpr` source,
//! the fault plan (if one was active) in a line-oriented text codec, and a
//! metadata file naming the seed, node count, configuration cell, and the
//! failure message. [`load_repro`] reads the bundle back for replay.
//!
//! The fault-plan codec round-trips `f64` exactly by printing with Rust's
//! shortest-round-trip formatting (`{:?}`), whose output `f64::from_str`
//! parses back to the identical bit pattern.

use sage_fabric::{FaultPlan, KernelFault, LinkDegradation, NodeFault, NodeFaultKind};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Serializes a fault plan to the line-oriented text codec.
pub fn plan_to_text(plan: &FaultPlan) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "seed={}", plan.seed);
    let _ = writeln!(s, "drop_prob={:?}", plan.drop_prob);
    for l in &plan.degraded_links {
        let _ = writeln!(s, "degrade={},{},{:?}", l.src, l.dst, l.factor);
    }
    for f in &plan.node_faults {
        match f.kind {
            NodeFaultKind::StallAt {
                at_secs,
                stall_secs,
            } => {
                let _ = writeln!(s, "stall={},{:?},{:?}", f.node, at_secs, stall_secs);
            }
            NodeFaultKind::FailAt { at_secs } => {
                let _ = writeln!(s, "fail={},{:?}", f.node, at_secs);
            }
        }
    }
    for k in &plan.kernel_faults {
        // `message` goes last and may contain commas; the parser splits
        // the first three fields only.
        let _ = writeln!(
            s,
            "kernel={},{},{},{}",
            k.iteration, k.thread, k.block, k.message
        );
    }
    s
}

fn bad(line: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed fault-plan line: {line}"),
    )
}

/// Parses a fault plan from the text codec. Inverse of [`plan_to_text`].
pub fn parse_plan_text(text: &str) -> io::Result<FaultPlan> {
    let mut plan = FaultPlan::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (key, val) = line.split_once('=').ok_or_else(|| bad(line))?;
        match key {
            "seed" => plan.seed = val.parse().map_err(|_| bad(line))?,
            "drop_prob" => plan.drop_prob = val.parse().map_err(|_| bad(line))?,
            "degrade" => {
                let mut it = val.splitn(3, ',');
                let (a, b, c) = (it.next(), it.next(), it.next());
                let (a, b, c) = match (a, b, c) {
                    (Some(a), Some(b), Some(c)) => (a, b, c),
                    _ => return Err(bad(line)),
                };
                plan.degraded_links.push(LinkDegradation {
                    src: a.parse().map_err(|_| bad(line))?,
                    dst: b.parse().map_err(|_| bad(line))?,
                    factor: c.parse().map_err(|_| bad(line))?,
                });
            }
            "stall" => {
                let mut it = val.splitn(3, ',');
                let (a, b, c) = (it.next(), it.next(), it.next());
                let (a, b, c) = match (a, b, c) {
                    (Some(a), Some(b), Some(c)) => (a, b, c),
                    _ => return Err(bad(line)),
                };
                plan.node_faults.push(NodeFault {
                    node: a.parse().map_err(|_| bad(line))?,
                    kind: NodeFaultKind::StallAt {
                        at_secs: b.parse().map_err(|_| bad(line))?,
                        stall_secs: c.parse().map_err(|_| bad(line))?,
                    },
                });
            }
            "fail" => {
                let (a, b) = val.split_once(',').ok_or_else(|| bad(line))?;
                plan.node_faults.push(NodeFault {
                    node: a.parse().map_err(|_| bad(line))?,
                    kind: NodeFaultKind::FailAt {
                        at_secs: b.parse().map_err(|_| bad(line))?,
                    },
                });
            }
            "kernel" => {
                let mut it = val.splitn(4, ',');
                let (a, b, c, d) = (it.next(), it.next(), it.next(), it.next());
                let (a, b, c, d) = match (a, b, c, d) {
                    (Some(a), Some(b), Some(c), Some(d)) => (a, b, c, d),
                    _ => return Err(bad(line)),
                };
                plan.kernel_faults.push(KernelFault {
                    iteration: a.parse().map_err(|_| bad(line))?,
                    thread: b.parse().map_err(|_| bad(line))?,
                    block: c.to_string(),
                    message: d.to_string(),
                });
            }
            _ => return Err(bad(line)),
        }
    }
    Ok(plan)
}

/// Everything needed to replay one failure bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct Repro {
    /// Corpus seed of the failing model.
    pub seed: u64,
    /// Node count the failing run targeted.
    pub nodes: usize,
    /// Iterations the failing run executed.
    pub iterations: u32,
    /// Configuration cell label, e.g. `local/zero-copy`.
    pub cell: String,
    /// Failure description from the harness.
    pub message: String,
    /// The model as `.sexpr` source.
    pub source: String,
    /// The active fault plan, if the failing run was a fault round.
    pub plan: Option<FaultPlan>,
}

/// Writes `repro` into `dir` as `<stem>.sexpr` / `<stem>.plan` /
/// `<stem>.meta`, creating the directory as needed. Returns the stem path
/// (extension-less) the bundle was saved under.
pub fn save_repro(dir: &Path, repro: &Repro) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let stem = dir.join(format!("fuzz-{:016x}", repro.seed));
    std::fs::write(stem.with_extension("sexpr"), &repro.source)?;
    match &repro.plan {
        Some(plan) => std::fs::write(stem.with_extension("plan"), plan_to_text(plan))?,
        None => {
            // Stale plan from an earlier failure of the same seed must not
            // leak into a plan-free repro.
            let _ = std::fs::remove_file(stem.with_extension("plan"));
        }
    }
    let meta = format!(
        "seed={}\nnodes={}\niterations={}\ncell={}\nmessage={}\n",
        repro.seed, repro.nodes, repro.iterations, repro.cell, repro.message
    );
    std::fs::write(stem.with_extension("meta"), meta)?;
    Ok(stem)
}

/// Reads a bundle saved by [`save_repro`] back from its stem path.
pub fn load_repro(stem: &Path) -> io::Result<Repro> {
    let source = std::fs::read_to_string(stem.with_extension("sexpr"))?;
    let meta = std::fs::read_to_string(stem.with_extension("meta"))?;
    let field = |key: &str| -> io::Result<String> {
        meta.lines()
            .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
            .map(str::to_string)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("meta file missing `{key}`"),
                )
            })
    };
    let parse_err = |k: &str| io::Error::new(io::ErrorKind::InvalidData, format!("bad `{k}`"));
    let cell = field("cell")?;
    if cell.ends_with("/copy") {
        // Replaying it on the surviving plane would silently test
        // something else than what failed.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "bundle ran in cell `{cell}`: the copy-heavy data plane retired in PR 12 \
                 (check out the commit that saved the bundle to replay it)"
            ),
        ));
    }
    let plan_path = stem.with_extension("plan");
    let plan = if plan_path.exists() {
        Some(parse_plan_text(&std::fs::read_to_string(plan_path)?)?)
    } else {
        None
    };
    Ok(Repro {
        seed: field("seed")?.parse().map_err(|_| parse_err("seed"))?,
        nodes: field("nodes")?.parse().map_err(|_| parse_err("nodes"))?,
        iterations: field("iterations")?
            .parse()
            .map_err(|_| parse_err("iterations"))?,
        cell,
        message: field("message")?,
        source,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan::new(99)
            .with_drop_prob(0.137_421_871)
            .degrade_link(0, 1, 3.000_000_000_000_2)
            .stall_node(1, 0.004_217, 0.000_31)
            .fail_node(2, 0.017_777_777_777)
            .inject_kernel_fault("stage0", 1, 3, "boom, with a comma")
    }

    #[test]
    fn plan_codec_round_trips_exactly() {
        let plan = sample_plan();
        let text = plan_to_text(&plan);
        let back = parse_plan_text(&text).unwrap();
        assert_eq!(back, plan);
        assert_eq!(plan_to_text(&back), text);
    }

    #[test]
    fn repro_bundle_round_trips() {
        let dir = std::env::temp_dir().join("sage-fuzz-repro-test");
        let repro = Repro {
            seed: 0xdead_beef,
            nodes: 2,
            iterations: 3,
            cell: "local/zero-copy".into(),
            message: "checksum mismatch".into(),
            source: "(app \"x\")".into(),
            plan: Some(sample_plan()),
        };
        let stem = save_repro(&dir, &repro).unwrap();
        assert_eq!(load_repro(&stem).unwrap(), repro);
        // Re-saving without a plan clears the stale `.plan` file.
        let bare = Repro {
            plan: None,
            ..repro
        };
        let stem = save_repro(&dir, &bare).unwrap();
        assert_eq!(load_repro(&stem).unwrap(), bare);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_plan_text("nonsense").is_err());
        assert!(parse_plan_text("drop_prob=not_a_float").is_err());
        assert!(parse_plan_text("degrade=1,2").is_err());
        assert!(parse_plan_text("mystery=1").is_err());
    }
}
