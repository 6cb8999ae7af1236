//! Shared harness for the integration suites: paths to the real `sage`
//! binary and the committed models, spawn helpers for distributed runs,
//! and the canonical sink-byte/checksum helpers every parity test pins.
//!
//! Lives in a subdirectory so Cargo does not compile it as a test target
//! of its own; each suite pulls it in with `mod common;`.
#![allow(dead_code)]

use sage_runtime::{GlueProgram, LogicalBufferDesc, SinkResults};
use sage_visualizer::Trace;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// Path of the compiled `sage` CLI binary under test.
pub fn sage_bin() -> &'static str {
    env!("CARGO_BIN_EXE_sage")
}

/// Absolute path of a committed example model.
pub fn model_path(name: &str) -> String {
    format!("{}/examples/models/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// A collision-free scratch path for one test's output file.
pub fn out_path(stem: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sage_test_{stem}_{}.bin", std::process::id()));
    p
}

/// The command line of one `sage fleet` daemon out of the binary under
/// test, stdout piped so the launcher can read the listen banner.
pub fn fleet_daemon_command() -> Command {
    let mut cmd = Command::new(sage_bin());
    cmd.args(["fleet", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped());
    cmd
}

/// Spawns one `sage fleet` daemon (the spawner `launch` and
/// `spawn_daemons` take).
pub fn spawn_worker(_rank: usize) -> std::io::Result<Child> {
    fleet_daemon_command().spawn()
}

/// Runs the CLI with `--dump-sink`, asserts success, and returns the sink
/// dump bytes.
pub fn sink_dump(args: &[&str], stem: &str) -> Vec<u8> {
    let dump = out_path(stem);
    let output = Command::new(sage_bin())
        .args(args)
        .arg("--dump-sink")
        .arg(&dump)
        .output()
        .expect("sage binary runs");
    assert!(
        output.status.success(),
        "sage {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let bytes = std::fs::read(&dump).expect("sink dump written");
    let _ = std::fs::remove_file(&dump);
    assert!(!bytes.is_empty(), "sink dump for {stem} is empty");
    bytes
}

/// local vs tcp at a given rank count, over the real binary.
pub fn assert_parity(model: &str, ranks: usize) {
    assert_parity_with(model, ranks, "2", &[]);
}

/// Local lock-step `run` vs `launch` with `launch_flags` added (e.g.
/// `--pipeline 4`), over the real binary.
pub fn assert_parity_with(model: &str, ranks: usize, iters: &str, launch_flags: &[&str]) {
    let path = model_path(model);
    let n = ranks.to_string();
    let local = sink_dump(
        &["run", &path, "--nodes", &n, "--iters", iters],
        &format!("local_{model}_{ranks}_{iters}"),
    );
    let mut launch = vec!["launch", &path, "--workers", &n, "--iters", iters];
    launch.extend_from_slice(launch_flags);
    let tcp = sink_dump(&launch, &format!("tcp_{model}_{ranks}_{iters}"));
    assert_eq!(
        local.len(),
        tcp.len(),
        "{model} at {ranks} ranks: sink sizes differ"
    );
    assert!(
        local == tcp,
        "{model} at {ranks} ranks, launch {launch_flags:?}: sink bytes differ between local and tcp"
    );
}

/// Concatenates every sink's assembled output over all iterations, in
/// (function id, iteration) order — the canonical byte stream two
/// backends must agree on bit-for-bit.
pub fn sink_bytes(program: &GlueProgram, results: &SinkResults, iterations: u32) -> Vec<u8> {
    results.stream(program, iterations)
}

/// The closed-form credit total the streaming run must hit exactly: one
/// credit per nonempty (producer thread, consumer thread) transfer pair,
/// per iteration past the buffer's window (ring depth + delay).
pub fn expected_credits(program: &GlueProgram, depth: u32, caps: &[u32], iters: u32) -> u64 {
    let mut total = 0u64;
    for desc in &program.buffers {
        let pairs = nonempty_pairs(program, desc).len() as u64;
        total += pairs * credited_iterations(desc, depth, caps, iters);
    }
    total
}

/// The closed-form count of credit *messages* a streaming run sends: one
/// per (buffer, consumer thread, other node holding a producer thread with
/// a nonempty pair into it), per iteration past the buffer's window.
pub fn expected_credit_messages(
    program: &GlueProgram,
    depth: u32,
    caps: &[u32],
    iters: u32,
) -> u64 {
    let mut total = 0u64;
    for desc in &program.buffers {
        let producer = &program.functions[desc.producer as usize];
        let consumer = &program.functions[desc.consumer as usize];
        let mut groups: Vec<(usize, u32)> = nonempty_pairs(program, desc)
            .into_iter()
            .map(|(i, j)| (j, producer.placement[i]))
            .filter(|&(j, node)| node != consumer.placement[j])
            .collect();
        groups.sort_unstable();
        groups.dedup();
        total += groups.len() as u64 * credited_iterations(desc, depth, caps, iters);
    }
    total
}

/// The cross-node data messages one iteration sends: the nonempty pairs
/// whose producer and consumer threads are placed on different nodes.
pub fn remote_data_pairs(program: &GlueProgram) -> u64 {
    let mut total = 0u64;
    for desc in &program.buffers {
        let producer = &program.functions[desc.producer as usize];
        let consumer = &program.functions[desc.consumer as usize];
        total += nonempty_pairs(program, desc)
            .into_iter()
            .filter(|&(i, j)| producer.placement[i] != consumer.placement[j])
            .count() as u64;
    }
    total
}

/// Iterations of buffer `desc` whose retirement returns a credit: those
/// past the buffer's window (ring depth + delay).
fn credited_iterations(desc: &LogicalBufferDesc, depth: u32, caps: &[u32], iters: u32) -> u64 {
    let cap = caps.get(desc.id as usize).copied().unwrap_or(depth);
    let window = depth.clamp(1, cap.max(1)) + desc.delay;
    u64::from(iters.saturating_sub(window))
}

/// Buffer `desc`'s nonempty `(producer thread, consumer thread)` pairs, by
/// a fresh `Redistribution::plan` of its descriptor.
fn nonempty_pairs(program: &GlueProgram, desc: &LogicalBufferDesc) -> Vec<(usize, usize)> {
    let producer = &program.functions[desc.producer as usize];
    let consumer = &program.functions[desc.consumer as usize];
    let redist = sage_runtime::Redistribution::plan(
        &desc.shape,
        desc.elem_bytes,
        desc.send_striping,
        producer.threads as usize,
        desc.recv_striping,
        consumer.threads as usize,
    );
    let mut pairs = Vec::new();
    for (i, row) in redist.pairs.iter().enumerate() {
        for (j, ops) in row.iter().enumerate() {
            if !ops.is_empty() {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// Asserts that every rank recorded a lane and that each lane is
/// nondecreasing in time: the invariant that lets `Execution::merge` move
/// the lanes into the trace without sorting them.
pub fn assert_lanes_time_ordered(trace: &Trace, what: &str) {
    assert!(!trace.lanes().is_empty(), "{what}: no lanes");
    for (rank, lane) in trace.lanes().iter().enumerate() {
        assert!(!lane.is_empty(), "{what}: rank {rank} recorded nothing");
        if let Some(w) = lane.windows(2).find(|w| w[1].time < w[0].time) {
            panic!(
                "{what}: rank {rank} went back in time: {:?} then {:?}",
                w[0], w[1]
            );
        }
    }
}

/// The directory failing fuzz/chaos artifacts are saved under, per the
/// repository convention (`target/fuzz-failures/`).
pub fn failures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/fuzz-failures")
}
