//! The run-time executor: sequences the function table, performs striping
//! and buffer management, and moves data over the fabric.
//!
//! Per paper §2, the run-time kernel "is responsible for all sequencing of
//! functions, data striping, and buffer management". Each node runs every
//! slot of its generated schedule once per iteration; for every task it
//!
//! 1. assembles the thread-local input stripes of each input logical buffer
//!    (receiving redistribution messages from producer threads on other
//!    nodes, or taking local hand-offs),
//! 2. applies the buffer-management scheme (the paper's unique-per-function
//!    private copies, or the improved shared scheme),
//! 3. dispatches the kernel through the function table (charging dispatch
//!    overhead), and
//! 4. stripes the outputs toward the consumer threads (pack → send, or
//!    local hand-off when producer and consumer stripes align).
//!
//! Aligned, node-local transfers are pointer hand-offs in both schemes; the
//! striping engine's pack/unpack copies are only performed — and only
//! charged — when the redistribution is nontrivial, mirroring what the real
//! run-time's DMA descriptors would do.
//!
//! The kernel is table-driven, as the paper's is: [`prepare`] compiles,
//! once per program, every task's transfers into edge lists ([`TaskEdges`])
//! and the per-task steps only iterate them. Same-node hand-offs live in
//! one ring store indexed by pair; the [`IssuePolicy`] sets each ring's
//! length.
//!
//! One scheduler sequences every real workload: the staircase loop of
//! [`execute_rank`]. Lock-step is that loop with a one-iteration horizon
//! and no credit protocol; streaming (`--pipeline`) widens the horizon and
//! bounds each buffer's ring with credits. `--pipeline-validate` is an
//! oracle, not a mode: a different issue order over the same store and the
//! same task body, kept because its fixed rings are the only dynamic model
//! of the physical rings the static pipeline pass proves things about.
//!
//! Each decision has one module: `tables` ([`prepare`]: what every rank
//! reads), `flow` (where an iteration of a transfer lives, and whether an
//! emit may reuse its slot), `issue` (which slot runs next) and `task`
//! (what one slot does). This file holds the entry points and the state
//! one rank's run shares between them.

mod flow;
mod issue;
mod tables;
mod task;

pub use tables::{prepare, CreditGroup, Edge, Prepared, TaskEdges};

use crate::function::{Registry, RuntimeError};
use crate::glue::GlueProgram;
use crate::options::{IssuePolicy, RuntimeOptions};
use crate::race::RaceState;
use crate::report::{Execution, RankReport};
use flow::Flow;
use sage_fabric::{Cluster, FabricError, MachineSpec, Payload, TimePolicy, Transport};
use sage_visualizer::Probe;
use std::time::Instant;

/// Executes `program` on `machine` with the given time policy.
///
/// Kernels actually compute in both time policies (so results are always
/// verifiable); virtual mode additionally charges the cost models.
pub fn execute(
    program: &GlueProgram,
    machine: &MachineSpec,
    policy: TimePolicy,
    registry: &Registry,
    options: &RuntimeOptions,
    iterations: u32,
) -> Result<Execution, RuntimeError> {
    let prepared = prepare(program, registry)?;
    if program.node_count() != machine.node_count() {
        return Err(RuntimeError::BadProgram(format!(
            "program generated for {} nodes, machine has {}",
            program.node_count(),
            machine.node_count()
        )));
    }

    let cluster = Cluster::new(machine.clone(), policy).with_faults(options.faults.clone());
    // One detector shared by every rank of the in-process cluster: clocks
    // join across ranks, so cross-rank conflicts are visible.
    let race = options
        .race_detect
        .then(|| RaceState::new(program, &prepared));

    let (outcomes, run) = cluster.run(|ctx| {
        let probe = Probe::new(options.probes);
        let t0 = Instant::now();
        let outcome = execute_rank(
            ctx,
            program,
            &prepared,
            options,
            iterations,
            &probe,
            race.as_ref(),
        );
        (outcome, t0.elapsed().as_secs_f64(), probe.into_events())
    });

    let reports = (outcomes.into_iter().zip(run.metrics.nodes).enumerate())
        .map(|(rank, ((outcome, wall_secs, events), metrics))| {
            Some(RankReport {
                wall_secs,
                metrics,
                events,
                ..RankReport::new(rank as u32, outcome)
            })
        })
        .collect();
    Execution::merge(reports, run.wall, iterations)
}

/// Translates an unrecoverable fabric fault into the executor's error
/// vocabulary.
pub fn fabric_to_runtime(e: FabricError) -> RuntimeError {
    match e {
        FabricError::NodeFailed { node } => RuntimeError::NodeFailed { node },
        FabricError::PeerFailed { node, peer } => RuntimeError::PeerFailed { node, peer },
        FabricError::RecvTimeout { node, src, .. } => RuntimeError::Timeout { node, peer: src },
        // A drop that reaches here escaped the retry loop: report one
        // attempt.
        FabricError::TransferDropped { src, dst, .. } => RuntimeError::TransferFailed {
            node: src,
            peer: dst,
            attempts: 1,
        },
    }
}

/// A sink deposit: `(fn_id, iteration, thread)` -> absorbed stripe.
pub type Deposit = ((u32, u32, u32), Payload);

/// Credit counters for one rank (or summed over ranks).
///
/// A credit is *issued* when a consumer retires an iteration and frees a
/// ring slot of one of its input buffers, and *retired* when the producer
/// spends it to emit into that slot again. Conservation — per-pair issued
/// == retired == `max(0, iterations - window)` — is an executor invariant
/// the streaming proptests pin down. Lock-step and pipeline-validate runs
/// have an infinite window, so both counters stay zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Credits returned by consumers on retiring an iteration.
    pub credits_issued: u64,
    /// Credits spent by producers to reuse a ring slot.
    pub credits_retired: u64,
}

/// Everything one rank produced: its sink deposits plus credit counters
/// (zero outside streaming mode).
#[derive(Debug, Default)]
pub struct RankOutcome {
    /// Sink stripes this rank absorbed.
    pub deposits: Vec<Deposit>,
    /// Streaming credit counters.
    pub stream: StreamStats,
}

/// Everything one rank's run reads and mutates. The execution modes differ
/// only in the policy [`execute_rank`] fills in — issue order and each
/// buffer's ring in [`Flow`]; the edge tables, the hand-off store and the
/// task body (`RankState::run_task`) are the same for all of them.
struct RankState<'a, T: Transport> {
    ctx: &'a mut T,
    program: &'a GlueProgram,
    prepared: &'a Prepared,
    options: &'a RuntimeOptions,
    probe: &'a Probe,
    race: Option<&'a RaceState<'a>>,
    node: u32,
    /// Total iterations in the run.
    iterations: u32,
    flow: Flow,
    /// Per pair: this rank's handle on the pair's last packed message,
    /// repacked in place once the receiver has released its own.
    staging: Vec<Payload>,
    deposits: Vec<Deposit>,
}

/// One rank's program: run every schedule slot for every iteration, over
/// any [`Transport`] backend.
///
/// The in-process `execute` calls this once per cluster thread; a
/// `sage fleet` daemon calls it once per job rank it hosts, with a
/// `sage_net::JobTransport` over the daemon's shared mesh. Unrecoverable
/// injected faults surface as `Err(RuntimeError)` instead of panics; the
/// fault site is also recorded in the trace when probes are on.
///
/// `probe` is the rank's trace lane and this function the only code that
/// records into it, on every backend: function spans, source/sink
/// crossings, both ends of every transfer, retries and faults, each stamped
/// with `ctx.now()` — which is read only while the probe records.
///
/// There is one issue loop, `RankState::run_staircase`, and lock-step and
/// streaming are policies on it ([`IssuePolicy`] documents each: horizon,
/// ring length, credit window); [`IssuePolicy::Validate`] swaps in the
/// block-interleaved oracle order (`RankState::run_block_interleaved`).
pub fn execute_rank<T: Transport>(
    ctx: &mut T,
    program: &GlueProgram,
    prepared: &Prepared,
    options: &RuntimeOptions,
    iterations: u32,
    probe: &Probe,
    race: Option<&RaceState<'_>>,
) -> Result<RankOutcome, RuntimeError> {
    let mut rank = RankState {
        node: ctx.rank() as u32,
        ctx,
        program,
        prepared,
        options,
        probe,
        race,
        iterations,
        flow: Flow::new(program, prepared, options, iterations),
        staging: vec![Payload::new(); prepared.pair_table.len()],
        deposits: Vec::new(),
    };
    match options.issue {
        IssuePolicy::LockStep => rank.run_staircase(1)?,
        IssuePolicy::Streaming(horizon) => rank.run_staircase(horizon.max(1))?,
        IssuePolicy::Validate(depth) => rank.run_block_interleaved(depth.max(1))?,
    }
    Ok(RankOutcome {
        deposits: rank.deposits,
        stream: rank.flow.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fill_registry, machine, pipeline_program};

    #[test]
    fn pipeline_delivers_data_end_to_end() {
        let program = pipeline_program(4, 8, 4);
        let exec = execute(
            &program,
            &machine(4),
            TimePolicy::Virtual,
            &fill_registry(),
            &RuntimeOptions::paper_faithful(),
            2,
        )
        .unwrap();
        // Sink absorbed stripes on both iterations from all 4 threads.
        assert_eq!(exec.results.len(), 8);
        let full = exec.results.assemble(&program, 2, 0).unwrap();
        assert_eq!(full.len(), 32);
        // Row stripe of thread t occupies rows 2t..2t+2 -> bytes 8t..8t+8,
        // filled with t*31 + local index.
        for t in 0..4u8 {
            for i in 0..8usize {
                assert_eq!(full[t as usize * 8 + i], t.wrapping_mul(31) + i as u8);
            }
        }
    }

    #[test]
    fn virtual_and_real_modes_agree_on_data() {
        let program = pipeline_program(2, 4, 4);
        let reg = fill_registry();
        let opts = RuntimeOptions::paper_faithful();
        let a = execute(&program, &machine(2), TimePolicy::Virtual, &reg, &opts, 1).unwrap();
        let b = execute(&program, &machine(2), TimePolicy::Real, &reg, &opts, 1).unwrap();
        assert_eq!(
            a.results.assemble(&program, 2, 0),
            b.results.assemble(&program, 2, 0)
        );
        assert!(a.report.makespan > 0.0);
        assert_eq!(b.report.makespan, 0.0); // real mode has no virtual clock
    }

    #[test]
    fn node_count_mismatch_rejected() {
        let program = pipeline_program(2, 4, 4);
        let err = execute(
            &program,
            &machine(3),
            TimePolicy::Virtual,
            &fill_registry(),
            &RuntimeOptions::default(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::BadProgram(_)));
    }

    #[test]
    fn probes_produce_source_sink_events() {
        let program = pipeline_program(2, 4, 4);
        let exec = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &fill_registry(),
            &RuntimeOptions::paper_faithful().with_probes(true),
            3,
        )
        .unwrap();
        let analysis = sage_visualizer::Analysis::of(&exec.trace);
        assert_eq!(analysis.latencies.len(), 3);
        assert!(analysis.mean_latency() > 0.0);
        assert_eq!(analysis.periods.len(), 2);
    }
}
