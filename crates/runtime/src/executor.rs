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

use crate::function::{FnThreadCtx, Registry, RuntimeError, StripePayload};
use crate::glue::{xfer_tag, FnRole, FunctionDescriptor, GlueProgram, Task, TAG_ITERATIONS};
use crate::options::{BufferScheme, IssuePolicy, RuntimeOptions};
use crate::race::{fnv1a_64, Intervals, PortAccess, RaceState};
use crate::report::{Execution, RankReport};
use crate::striping::{stripe_fault, Layout, PairOps, Redistribution};
use sage_fabric::{Cluster, FabricError, MachineSpec, Payload, TimePolicy, Transport, Work};
use sage_mpi::{send_with_retry, MpiError, RECV_OVERHEAD};
use sage_visualizer::{EventKind, Probe};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Collected sink deposits: the stripes each sink thread absorbed.
#[derive(Clone, Debug, Default)]
pub struct SinkResults {
    deposits: HashMap<(u32, u32, u32), Payload>,
}

impl SinkResults {
    /// The raw stripe a sink thread absorbed, if present.
    pub fn stripe(&self, fn_id: u32, iteration: u32, thread: u32) -> Option<&[u8]> {
        self.deposits
            .get(&(fn_id, iteration, thread))
            .map(|p| &p[..])
    }

    /// Reassembles the full payload a sink absorbed on `iteration` by
    /// stitching its threads' stripes back together via the sink's input
    /// striping.
    pub fn assemble(&self, program: &GlueProgram, fn_id: u32, iteration: u32) -> Option<Vec<u8>> {
        self.try_assemble(program, fn_id, iteration).ok()
    }

    /// [`SinkResults::assemble`] with a typed error instead of `None`: every
    /// way reassembly can fail (unknown function, missing stripe, stripe
    /// shorter than its layout, unstripeable descriptor) reports what went
    /// wrong as a [`RuntimeError::Assembly`].
    pub fn try_assemble(
        &self,
        program: &GlueProgram,
        fn_id: u32,
        iteration: u32,
    ) -> Result<Vec<u8>, RuntimeError> {
        let err = |message: String| RuntimeError::Assembly {
            fn_id,
            iteration,
            message,
        };
        let f = program
            .functions
            .get(fn_id as usize)
            .ok_or_else(|| err(format!("no function {fn_id} in the table")))?;
        let bid = *f
            .inputs
            .first()
            .ok_or_else(|| err("function has no input buffer".into()))?;
        let desc = program
            .buffers
            .get(bid as usize)
            .ok_or_else(|| err(format!("input buffer {bid} not in the buffer table")))?;
        let threads = f.threads as usize;
        if let Some(fault) = stripe_fault(&desc.shape, desc.recv_striping, threads, &f.name) {
            return Err(err(fault));
        }
        let total = desc.total_bytes();
        let mut full = vec![0u8; total];
        for t in 0..f.threads {
            let stripe = self
                .stripe(fn_id, iteration, t)
                .ok_or_else(|| err(format!("thread {t} deposited no stripe")))?;
            let layout = Layout::of_thread(
                &desc.shape,
                desc.elem_bytes,
                desc.recv_striping,
                f.threads as usize,
                t as usize,
            );
            if stripe.len() != layout.len() {
                return Err(err(format!(
                    "thread {t} deposited {} bytes, its layout covers {}",
                    stripe.len(),
                    layout.len()
                )));
            }
            let mut cursor = 0;
            for &(s, e) in layout.runs() {
                full[s..e].copy_from_slice(&stripe[cursor..cursor + (e - s)]);
                cursor += e - s;
            }
        }
        Ok(full)
    }

    /// Every sink's assembled output over `iterations` iterations, in
    /// (function id, iteration) order — the canonical byte stream all
    /// backends and execution modes must agree on bit-for-bit (frames that
    /// fail to assemble are skipped). [`crate::fnv1a_64`] of it is the
    /// fingerprint the CLI prints and the test suite pins.
    pub fn stream(&self, program: &GlueProgram, iterations: u32) -> Vec<u8> {
        let mut out = Vec::new();
        for f in program.functions.iter().filter(|f| f.role == FnRole::Sink) {
            for iter in 0..iterations {
                if let Some(full) = self.assemble(program, f.id, iter) {
                    out.extend_from_slice(&full);
                }
            }
        }
        out
    }

    /// Records a deposited stripe. Distributed launchers use this to merge
    /// per-rank deposits back into one result set.
    pub fn insert(&mut self, fn_id: u32, iteration: u32, thread: u32, bytes: impl Into<Payload>) {
        self.deposits
            .insert((fn_id, iteration, thread), bytes.into());
    }

    /// Number of deposited stripes.
    pub fn len(&self) -> usize {
        self.deposits.len()
    }

    /// `true` if no sink absorbed anything.
    pub fn is_empty(&self) -> bool {
        self.deposits.is_empty()
    }
}

/// Precomputed per-buffer machinery shared by all nodes.
struct BufferPlan {
    plan: Redistribution,
    /// `true` when producer and consumer layouts are identical per thread:
    /// the transfer degrades to per-thread hand-offs (no pack/unpack).
    aligned: bool,
    /// `true` when the pairs arriving at each consumer thread cover its
    /// whole layout: a stripe this buffer is unpacked or merged into is
    /// overwritten in full, so its storage need not start zeroed.
    covering: bool,
    dst_local_shape: Vec<usize>,
    src_local_shape: Vec<usize>,
    /// Global byte intervals producer thread `i` contributes (union of its
    /// pair intervals over all consumer threads). The race detector's write
    /// footprint.
    write_regions: Vec<Intervals>,
}

/// One input port of a function: the logical buffers that merge into it.
/// Exactly one buffer per port in canonically generated programs; fan-in
/// (multiple producers connected to one port) puts several.
struct PortGroup {
    /// Consumer port name.
    port: String,
    /// `"{fn}.{port}"`, the name race reports give the port.
    label: String,
    /// Buffer ids in function-input order (the merge order).
    buffers: Vec<u32>,
    /// Per consumer thread: the global byte intervals the thread's stripe
    /// covers, unioned over the group. The race detector's read footprint.
    read_regions: Vec<Intervals>,
}

/// Kernel resolution and buffer-redistribution planning, done once per
/// program and shared by every rank — the same `Prepared` drives the
/// in-process cluster and `sage-net`'s one-process-per-rank backend.
pub struct Prepared {
    plans: Vec<BufferPlan>,
    kernels: Vec<Arc<dyn crate::function::Kernel>>,
    /// Per function: its input buffers grouped by consumer port.
    input_groups: Vec<Vec<PortGroup>>,
    /// Per buffer: `(consumer fn, input-port group index)` — the conflict
    /// domain a write to the buffer lands in.
    buffer_group: Vec<(u32, u32)>,
    /// Per function, per thread: the task's compiled transfers.
    tasks: Vec<Vec<TaskEdges>>,
    /// Per pair index: the pair's buffer and its compiled, coalesced
    /// pack/unpack programs (empty when the buffer is aligned: never packed).
    pair_table: Vec<(u32, PairOps)>,
    /// Per credit-group index ([`Edge::credit_group`]).
    credit_groups: Vec<CreditGroup>,
}

impl Prepared {
    /// The compiled transfers of `task`.
    pub fn edges(&self, task: Task) -> &TaskEdges {
        &self.tasks[task.fn_id as usize][task.thread as usize]
    }

    /// Every credit group of the program, by index.
    pub fn credit_groups(&self) -> &[CreditGroup] {
        &self.credit_groups
    }
}

/// The remote pairs one streaming credit message stands for: every
/// nonempty pair of one buffer into one consumer thread (the task that
/// lists the group) whose producer thread sits on one other node. Retiring
/// an iteration frees a ring slot of all of them at once, so the consumer
/// sends one credit per group and the producer node counts it once per
/// pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CreditGroup {
    /// Logical buffer id.
    pub buffer: u32,
    /// The node every producer thread of the group is placed on.
    pub producer_node: u32,
    /// The group's pair indices, in producer-thread order.
    pub pairs: Vec<u32>,
}

/// One compiled transfer — a nonempty (producer thread, consumer thread)
/// pair of a logical buffer — seen from the task at one end of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Logical buffer id.
    pub buffer: u32,
    /// The buffer's iteration delay: the consumer reads iteration
    /// `i - delay`.
    pub delay: u32,
    /// The peer task's thread (of the buffer's other function).
    pub peer_thread: u32,
    /// The node the peer task is placed on.
    pub peer_node: u32,
    /// The pair's dense index over the whole program, shared by its two
    /// ends: it addresses the pair's pack/unpack program, hand-off ring,
    /// staging buffer and credit cell.
    pub pair: u32,
    /// Byte runs the pair moves (descriptor walks are charged per run).
    pub runs: u32,
    /// The pair's [`CreditGroup`] index when its two ends are on different
    /// nodes; `None` for a same-node hand-off.
    pub credit_group: Option<u32>,
}

/// Every transfer of one task `(fn, thread)`, in the order the task
/// performs them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskEdges {
    /// Per input port (fan-in group): its edges in `f.inputs` order, then
    /// producer-thread order.
    pub inputs: Vec<Vec<Edge>>,
    /// Per output buffer, in `f.outputs` order: its edges in
    /// consumer-thread order.
    pub outputs: Vec<Vec<Edge>>,
    /// The credit groups this task returns credits to as a consumer, each
    /// once, in the order its input edges first name them.
    pub credit_groups: Vec<u32>,
}

/// Validates `program`, resolves every kernel through `registry`, and plans
/// every buffer's redistribution.
pub fn prepare(program: &GlueProgram, registry: &Registry) -> Result<Prepared, RuntimeError> {
    program.validate().map_err(RuntimeError::BadProgram)?;
    // A hand-built program with an out-of-range or indivisible stripe is a
    // typed error, not a panic in the layout walk.
    let planned = program
        .buffers
        .iter()
        .map(|b| {
            program.plan_buffer(b).map_err(|faults| {
                RuntimeError::BadProgram(format!("buffer {}: {}", b.id, faults[0].1))
            })
        })
        .collect::<Result<Vec<Redistribution>, _>>()?;
    // Resolve every kernel up front.
    let mut kernels = Vec::with_capacity(program.functions.len());
    for f in &program.functions {
        let k = registry
            .get(&f.function)
            .ok_or_else(|| RuntimeError::UnknownFunction {
                block: f.name.clone(),
                function: f.function.clone(),
            })?;
        kernels.push(k);
    }
    // Compile every buffer's redistribution plan.
    let plans: Vec<BufferPlan> = program
        .buffers
        .iter()
        .zip(planned)
        .map(|(b, plan)| {
            let pf = &program.functions[b.producer as usize];
            let cf = &program.functions[b.consumer as usize];
            let aligned = pf.threads == cf.threads
                && (0..pf.threads as usize).all(|t| plan.src[t] == plan.dst[t]);
            let write_regions = (0..pf.threads as usize)
                .map(|i| {
                    Arc::new(crate::race::union_intervals(
                        plan.pairs[i].iter().map(|iv| iv.as_slice()),
                    ))
                })
                .collect();
            BufferPlan {
                dst_local_shape: Layout::local_shape(
                    &b.shape,
                    b.recv_striping,
                    cf.threads as usize,
                ),
                src_local_shape: Layout::local_shape(
                    &b.shape,
                    b.send_striping,
                    pf.threads as usize,
                ),
                covering: (0..plan.dst.len()).all(|j| plan.incoming_bytes(j) == plan.dst[j].len()),
                plan,
                aligned,
                write_regions,
            }
        })
        .collect();
    // Group every function's inputs by consumer port: the buffers of one
    // port merge into a single kernel-visible stripe. Fan-in groups must
    // agree on the port's layout or the merge target is ill-defined.
    let mut input_groups: Vec<Vec<PortGroup>> = Vec::with_capacity(program.functions.len());
    let mut buffer_group = vec![(0u32, 0u32); program.buffers.len()];
    let mut tasks: Vec<Vec<TaskEdges>> = Vec::with_capacity(program.functions.len());
    for f in &program.functions {
        let mut groups: Vec<PortGroup> = Vec::new();
        for &bid in &f.inputs {
            let port = &program.buffers[bid as usize].consumer_port;
            match groups.iter_mut().find(|g| &g.port == port) {
                Some(g) => g.buffers.push(bid),
                None => groups.push(PortGroup {
                    port: port.clone(),
                    label: format!("{}.{port}", f.name),
                    buffers: vec![bid],
                    read_regions: Vec::new(),
                }),
            }
        }
        for (gi, g) in groups.iter_mut().enumerate() {
            let first = &plans[g.buffers[0] as usize];
            for &bid in &g.buffers[1..] {
                let bp = &plans[bid as usize];
                if bp.dst_local_shape != first.dst_local_shape
                    || program.buffers[bid as usize].elem_bytes
                        != program.buffers[g.buffers[0] as usize].elem_bytes
                    || bp.plan.dst != first.plan.dst
                {
                    return Err(RuntimeError::BadProgram(format!(
                        "function `{}` port `{}`: fan-in buffers {} and {} \
                         disagree on the port's consumer layout",
                        f.name, g.port, g.buffers[0], bid
                    )));
                }
            }
            g.read_regions = (0..first.plan.dst.len())
                .map(|j| {
                    Arc::new(crate::race::union_intervals(
                        g.buffers
                            .iter()
                            .map(|&bid| plans[bid as usize].plan.dst[j].runs()),
                    ))
                })
                .collect();
            for &bid in &g.buffers {
                buffer_group[bid as usize] = (f.id, gi as u32);
            }
        }
        let shape = TaskEdges {
            inputs: vec![Vec::new(); groups.len()],
            outputs: vec![Vec::new(); f.outputs.len()],
            credit_groups: Vec::new(),
        };
        tasks.push(vec![shape; f.threads as usize]);
        input_groups.push(groups);
    }
    // Compile every task's transfers, the one walk of the pair matrices:
    // each nonempty pair becomes an input edge of its consumer task and an
    // output edge of its producer task, under one fresh pair index. A
    // cross-node pair joins the credit group of its (buffer, consumer
    // thread, producer node).
    let mut pairs = Vec::new();
    let mut credit_groups: Vec<CreditGroup> = Vec::new();
    for (cf, groups) in program.functions.iter().zip(&input_groups) {
        for (gi, bid) in groups
            .iter()
            .enumerate()
            .flat_map(|(gi, g)| g.buffers.iter().map(move |&bid| (gi, bid)))
        {
            let desc = &program.buffers[bid as usize];
            let pf = &program.functions[desc.producer as usize];
            // Only the buffer's own consumer is sent to; a function reading
            // a buffer routed elsewhere fails typed on its missing hand-off.
            let output = pf.outputs.iter().position(|&o| o == bid);
            let output = output.filter(|_| desc.consumer == cf.id);
            let bp = &plans[bid as usize];
            for (i, row) in bp.plan.pairs.iter().enumerate() {
                for j in 0..cf.threads as usize {
                    let Some(runs) = row.get(j).map(Vec::len).filter(|&n| n > 0) else {
                        continue;
                    };
                    let pair = pairs.len() as u32;
                    let producer_node = pf.placement[i];
                    let credit_group = (producer_node != cf.placement[j]).then(|| {
                        let listed = &mut tasks[cf.id as usize][j].credit_groups;
                        let g = match listed.iter().find(|&&g| {
                            let group = &credit_groups[g as usize];
                            group.buffer == bid && group.producer_node == producer_node
                        }) {
                            Some(&g) => g,
                            None => {
                                listed.push(credit_groups.len() as u32);
                                credit_groups.push(CreditGroup {
                                    buffer: bid,
                                    producer_node,
                                    pairs: Vec::new(),
                                });
                                credit_groups.len() as u32 - 1
                            }
                        };
                        credit_groups[g as usize].pairs.push(pair);
                        g
                    });
                    let end = |f: &FunctionDescriptor, thread: usize| Edge {
                        buffer: bid,
                        delay: desc.delay,
                        peer_thread: thread as u32,
                        peer_node: f.placement[thread],
                        pair,
                        runs: runs as u32,
                        credit_group,
                    };
                    tasks[cf.id as usize][j].inputs[gi].push(end(pf, i));
                    if let Some(k) = output {
                        tasks[pf.id as usize][i].outputs[k].push(end(cf, j));
                    }
                    let ops = (!bp.aligned).then(|| bp.plan.pair_ops(i, j));
                    pairs.push((bid, ops.unwrap_or_default()));
                }
            }
        }
    }
    Ok(Prepared {
        plans,
        kernels,
        input_groups,
        buffer_group,
        tasks,
        pair_table: pairs,
        credit_groups,
    })
}

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
        .then(|| RaceState::new(machine.node_count()));

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

/// High tag bit marking a backpressure credit message. [`xfer_tag`] packs
/// its fields into bits 0..60, so bit 62 is free on every transport;
/// credits therefore share the data fabric without ever colliding with a
/// data frame's tag.
const CREDIT_BIT: u64 = 1 << 62;

/// The credit-channel tag of buffer `bid`'s consumer thread
/// `consumer_thread`: with the sending node, it names one [`CreditGroup`].
/// Iteration-independent: credits are fungible within a group, so a single
/// per-group FIFO counts them.
fn credit_tag(bid: u32, consumer_thread: u32) -> u64 {
    CREDIT_BIT | xfer_tag(bid, 0, 0, consumer_thread)
}

/// The node-local hand-off store: one fixed ring of slots per transfer
/// pair, payloads shared, not copied. A pair's iteration `i` lives in slot
/// `i % len` of its ring; [`Ring::len`] is the issue policy's only store
/// policy — long enough in lock-step and streaming that no slot is
/// rewritten before it is read, and exactly the oracle's depth in
/// pipeline-validate, where *reusing a slot before its reader got there* is
/// the corruption that mode exists to surface.
struct RingStore {
    slots: Vec<Option<Payload>>,
    /// Per pair: the first slot of its ring.
    base: Vec<usize>,
    /// Logical bytes pending in the store (for the memory high-water
    /// sample), kept as payloads come and go.
    live_bytes: usize,
}

impl RingStore {
    /// Stores `payload`, replacing whatever the slot held.
    fn put(&mut self, slot: usize, payload: Payload) {
        self.live_bytes += payload.len();
        if let Some(old) = self.slots[slot].replace(payload) {
            self.live_bytes -= old.len();
        }
    }

    /// Takes the slot's payload, leaving it empty.
    fn take(&mut self, slot: usize) -> Option<Payload> {
        let payload = self.slots[slot].take()?;
        self.live_bytes -= payload.len();
        Some(payload)
    }

    /// Logical bytes pending in the store.
    fn live_bytes(&self) -> usize {
        debug_assert_eq!(
            self.live_bytes,
            self.slots.iter().flatten().map(|p| p.len()).sum::<usize>(),
            "the running counter drifted from the store's contents"
        );
        self.live_bytes
    }
}

/// One buffer's share of the issue policy.
struct Ring {
    /// Modulus of the iteration field of the buffer's transfer tags.
    depth: u32,
    /// Credit window: ring depth + delay. A producer needs a credit to emit
    /// iteration `p >= window`; the consumer that frees the slot is reading
    /// producer-iteration `p - window`, `delay` arcs included. `u32::MAX`
    /// (lock-step, validate) disables the protocol: no credit is ever
    /// awaited or sent.
    window: u32,
    /// Slots in each of the buffer's hand-off rings in the [`RingStore`].
    len: u32,
}

/// Everything one rank's run reads and mutates. The execution modes differ
/// only in the policy [`execute_rank`] fills in — issue order and each
/// buffer's [`Ring`]; the edge tables, the hand-off store and the task body
/// ([`RankState::run_task`]) are the same for all of them.
struct RankState<'a, T: Transport> {
    ctx: &'a mut T,
    program: &'a GlueProgram,
    prepared: &'a Prepared,
    options: &'a RuntimeOptions,
    probe: &'a Probe,
    race: Option<&'a RaceState>,
    node: u32,
    /// Total iterations in the run (for the credit-return skip rule).
    iterations: u32,
    /// Per buffer id.
    rings: Vec<Ring>,
    store: RingStore,
    /// Per pair: this rank's handle on the pair's last packed message,
    /// repacked in place once the receiver has released its own.
    staging: Vec<Payload>,
    /// Per pair: credits this rank holds and has not spent — returned by a
    /// same-node consumer, or received as one of the pair's group messages
    /// (which count once for every pair of the group).
    local_credits: Vec<u32>,
    /// The one empty message every remote credit sends: a credit is its
    /// tag, so each send shares this handle instead of allocating.
    credit: Payload,
    deposits: Vec<Deposit>,
    stats: StreamStats,
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
    race: Option<&RaceState>,
) -> Result<RankOutcome, RuntimeError> {
    let rings: Vec<Ring> = program
        .buffers
        .iter()
        .map(|b| {
            let (depth, window, len) = match options.issue {
                // The buffer's proven cap bounded by the global knob, min 1.
                IssuePolicy::Streaming(horizon) => {
                    let horizon = horizon.max(1);
                    let cap = options.pipeline_depths.get(b.id as usize);
                    let depth = cap.map_or(horizon, |&c| c.min(horizon).max(1));
                    let window = depth.saturating_add(b.delay);
                    (depth, window, window)
                }
                IssuePolicy::Validate(depth) => (depth.max(1), u32::MAX, depth),
                IssuePolicy::LockStep => (TAG_ITERATIONS, u32::MAX, b.delay.saturating_add(1)),
            };
            Ring {
                depth,
                window,
                // A run never tells more than `iterations` slots apart.
                len: len.clamp(1, iterations.max(1)),
            }
        })
        .collect();
    let mut slots = 0;
    let base = prepared
        .pair_table
        .iter()
        .map(|&(bid, _)| {
            let base = slots;
            slots += rings[bid as usize].len as usize;
            base
        })
        .collect();
    let pairs = prepared.pair_table.len();
    let mut rank = RankState {
        node: ctx.rank() as u32,
        ctx,
        program,
        prepared,
        options,
        probe,
        race,
        iterations,
        rings,
        store: RingStore {
            slots: vec![None; slots],
            base,
            live_bytes: 0,
        },
        staging: vec![Payload::new(); pairs],
        local_credits: vec![0; pairs],
        credit: Payload::new(),
        deposits: Vec::new(),
        stats: StreamStats::default(),
    };
    match options.issue {
        IssuePolicy::LockStep => rank.run_staircase(1)?,
        IssuePolicy::Streaming(horizon) => rank.run_staircase(horizon.max(1))?,
        IssuePolicy::Validate(depth) => rank.run_block_interleaved(depth.max(1))?,
    }
    Ok(RankOutcome {
        deposits: rank.deposits,
        stream: rank.stats,
    })
}

impl<T: Transport> RankState<'_, T> {
    /// Records one probe event stamped with the rank's clock.
    fn mark(&self, kind: EventKind, id: u32, iter: u32) {
        self.probe.record(|| self.ctx.now(), kind, id, iter);
    }

    /// The scheduler: a continuous-issue dataflow loop over this rank's
    /// schedule slots.
    ///
    /// `next[s]` is the next iteration schedule slot `s` has yet to run.
    /// Each round picks the lowest-(iteration, slot) *ready* task among the
    /// "staircase" candidates — slots strictly ahead of every earlier slot
    /// (preserving intra-iteration schedule order) and within `horizon`
    /// iterations of the global minimum (bounding run-ahead). Readiness is
    /// a nonblocking probe: every input hand-off landed and every
    /// downstream ring slot has a credit. When nothing is ready the loop
    /// falls back to the *minimal* pending task with ordinary blocking
    /// receives — that task provably never deadlocks (its same-node inputs
    /// and credits are already present; cross-rank waits are on strictly
    /// earlier frontier points and bounded by the fabric's receive
    /// deadline), so a killed peer surfaces as a typed error, never a hang.
    ///
    /// At `horizon == 1` the staircase admits exactly one slot — the first
    /// one still at the minimum iteration — so this is the in-order
    /// lock-step walk.
    fn run_staircase(&mut self, horizon: u32) -> Result<(), RuntimeError> {
        let sched = &self.program.schedules[self.node as usize];
        let iterations = self.iterations;
        let mut next: Vec<u32> = vec![0; sched.len()];
        let mut candidates: Vec<(u32, usize)> = Vec::with_capacity(sched.len());
        // Until every slot has retired every iteration:
        while let Some(i_min) = next.iter().copied().filter(|&i| i < iterations).min() {
            candidates.clear();
            let mut prefix_min = u32::MAX;
            for (s, &i) in next.iter().enumerate() {
                if i < prefix_min && i < iterations && i - i_min < horizon {
                    candidates.push((i, s));
                }
                prefix_min = prefix_min.min(i);
            }
            candidates.sort_unstable();
            let (i, s) = match candidates[..] {
                [] => break, // unreachable: pending slots imply a candidate
                // A lone candidate runs whatever the probe would say, so
                // don't ask: lock-step never peeks the mailbox.
                [only] => only,
                [minimal, ..] => candidates
                    .iter()
                    .copied()
                    .find(|&(i, s)| self.task_ready(sched[s], i))
                    .unwrap_or(minimal),
            };
            self.run_task(sched[s], i)?;
            next[s] = i + 1;
        }
        Ok(())
    }

    /// The pipeline cross-validation oracle's issue order: `depth`
    /// iterations in flight, block-interleaved — for each block of `depth`
    /// iterations, every schedule slot runs all of the block's iterations
    /// before the next slot starts. The final block is simply the
    /// `iterations % depth` tail (`end` is clamped), so every tail
    /// iteration executes and retires exactly once. Every ring is `depth`
    /// slots: a program whose proven safe depth is >= `depth` is
    /// bit-identical to lock-step, while an over-deep run reuses a slot
    /// before its reader got there and corrupts or fails typed — exactly
    /// what the static pipeline pass (SAGE060/061/062) predicts, and what
    /// the staircase's credit-guarded rings can never show.
    fn run_block_interleaved(&mut self, depth: u32) -> Result<(), RuntimeError> {
        let mut start = 0;
        while start < self.iterations {
            let end = start.saturating_add(depth).min(self.iterations);
            for &task in &self.program.schedules[self.node as usize] {
                for iter in start..end {
                    self.run_task(task, iter)?;
                }
            }
            start = end;
        }
        Ok(())
    }

    /// The transfer tag of iteration `iter` of one (producer thread,
    /// consumer thread) pair of buffer `bid`: the iteration field is the
    /// buffer's ring slot.
    fn tag(&self, bid: u32, iter: u32, src_thread: u32, dst_thread: u32) -> u64 {
        xfer_tag(
            bid,
            iter % self.rings[bid as usize].depth,
            src_thread,
            dst_thread,
        )
    }

    /// Where iteration `iter` of the same-node pair behind `edge` lives in
    /// the hand-off store.
    fn slot(&self, edge: &Edge, iter: u32) -> usize {
        let len = self.rings[edge.buffer as usize].len;
        self.store.base[edge.pair as usize] + (iter % len) as usize
    }

    /// Nonblocking readiness probe for running schedule slot `task` at
    /// iteration `iter`: have all its input hand-offs landed, and does
    /// every downstream ring have a free slot (a credit)? Purely advisory —
    /// `false` only demotes the task in the issue order; the blocking
    /// fallback keeps forward progress when a backend cannot peek its
    /// mailbox.
    fn task_ready(&mut self, task: Task, iter: u32) -> bool {
        let edges = self.prepared.edges(task);
        // Inputs: every edge must have its iteration `iter - delay`
        // hand-off available — in its ring slot (this task has already
        // emptied the slot's earlier laps) or in the mailbox.
        for e in edges.inputs.iter().flatten() {
            let Some(src_iter) = iter.checked_sub(e.delay) else {
                continue; // delay arc before its first payload: zero-fill
            };
            let landed = if e.peer_node == self.node {
                self.store.slots[self.slot(e, src_iter)].is_some()
            } else {
                let tag = self.tag(e.buffer, src_iter, e.peer_thread, task.thread);
                self.ctx.try_recv_ready(e.peer_node as usize, tag)
            };
            if !landed {
                return false;
            }
        }
        // Outputs: past a buffer's credit window, every edge must hold a
        // credit, or (remote) its group's next one must have arrived.
        for e in edges.outputs.iter().flatten() {
            if iter < self.rings[e.buffer as usize].window {
                continue;
            }
            let have = self.local_credits[e.pair as usize] > 0
                || e.credit_group.is_some() && {
                    let tag = credit_tag(e.buffer, e.peer_thread);
                    self.ctx.try_recv_ready(e.peer_node as usize, tag)
                };
            if !have {
                return false;
            }
        }
        true
    }

    /// Runs one schedule slot of one iteration: dispatch, assemble inputs,
    /// invoke the kernel, emit outputs, return credits. Every issue order
    /// shares this exact body.
    fn run_task(&mut self, task: Task, iter: u32) -> Result<(), RuntimeError> {
        if let Some(race) = self.race {
            race.task_begin(self.node);
        }
        let f = &self.program.functions[task.fn_id as usize];
        // Function-table dispatch.
        self.ctx
            .advance(self.options.buffer_scheme.dispatch_overhead());
        if f.role == FnRole::Source && task.thread == 0 {
            self.mark(EventKind::SourceEmit, iter, iter);
        }
        self.mark(EventKind::FnStart, f.id, iter);
        let inputs = self.assemble_inputs(task, iter)?;
        let outputs = self.invoke(task, iter, &inputs)?;
        self.emit_outputs(task, iter, &outputs)?;
        self.return_credits(task, iter)?;
        self.mark(EventKind::FnEnd, f.id, iter);
        Ok(())
    }

    /// Builds one kernel-visible stripe per input *port* of `task`: the
    /// buffers of a fan-in group merge into a shared buffer in `f.inputs`
    /// order, so the merge result is deterministic regardless of arrival
    /// order.
    fn assemble_inputs(
        &mut self,
        task: Task,
        iter: u32,
    ) -> Result<Vec<StripePayload>, RuntimeError> {
        let (program, options, node) = (self.program, self.options, self.node);
        let (plans, pair_table) = (&self.prepared.plans, &self.prepared.pair_table);
        let f = &program.functions[task.fn_id as usize];
        let tid = task.thread as usize;
        let groups = &self.prepared.input_groups[task.fn_id as usize];
        let mut inputs: Vec<StripePayload> = Vec::with_capacity(groups.len());
        for (gi, (group, edges)) in groups
            .iter()
            .zip(&self.prepared.edges(task).inputs)
            .enumerate()
        {
            let multi = group.buffers.len() > 1;
            let first_bp = &plans[group.buffers[0] as usize];
            let mut local: Option<Payload> = None;
            for e in edges {
                let bp = &plans[e.buffer as usize];
                // A `delay` arc carries the payload the producer emitted
                // `delay` iterations earlier; while `iter < delay` there is
                // nothing to read yet and the consumer sees the zeroed
                // stripe the fallback below synthesizes.
                let Some(src_iter) = iter.checked_sub(e.delay) else {
                    continue;
                };
                let msg = if e.peer_node == node {
                    match self.store.take(self.slot(e, src_iter)) {
                        Some(m) => m,
                        None => {
                            // The producing task has not run yet on this
                            // node: the schedule is out of order. Nothing
                            // was ever sent, so zero attempts were made.
                            self.mark(EventKind::Fault, e.buffer, iter);
                            return Err(RuntimeError::TransferFailed {
                                node,
                                peer: e.peer_node,
                                attempts: 0,
                            });
                        }
                    }
                } else {
                    let tag = self.tag(e.buffer, src_iter, e.peer_thread, task.thread);
                    let m = self.recv(e.peer_node, tag, e.buffer, iter)?;
                    if let Some(race) = self.race {
                        race.join_recv(node, tag);
                    }
                    self.ctx.advance(RECV_OVERHEAD);
                    m
                };
                self.mark(EventKind::XferEnd, e.buffer, src_iter);
                if bp.aligned && !multi {
                    // Whole stripe arrives as one piece: hand it off.
                    local = Some(msg);
                    continue;
                }
                // The port's own stripe, created by the first payload to
                // arrive. All edges of that payload's buffer run in this loop
                // (one `delay`), so a covering buffer overwrites every byte.
                let new_stripe = || match bp.plan.dst[tid].len() {
                    len if bp.covering => Payload::scratch(len),
                    len => Payload::zeroed(len),
                };
                let stripe = local.get_or_insert_with(new_stripe).to_mut();
                if bp.aligned {
                    // Fan-in keeps the hand-off but merges it into the
                    // port's shared buffer with a charged copy; later
                    // buffers in the group overwrite earlier ones.
                    self.ctx.compute(Work::copy(msg.len()));
                    stripe.copy_from_slice(&msg);
                } else {
                    // Unpack into the consuming function's logical buffer
                    // (interpreted descriptor walk: per-run overhead).
                    // Under the paper's unique-buffer scheme this is a full
                    // read+write pass into the function's own buffer; the
                    // improved shared scheme scatters write-only into the
                    // buffer the function reads directly (DMA-style).
                    self.ctx
                        .advance(options.buffer_scheme.per_run_overhead() * f64::from(e.runs));
                    match options.buffer_scheme {
                        BufferScheme::UniquePerFunction => self.ctx.compute(Work::copy(msg.len())),
                        BufferScheme::Shared => self.ctx.compute(Work {
                            flops: 0.0,
                            mem_bytes: msg.len() as f64,
                            overhead_secs: 0.0,
                        }),
                    }
                    // Compiled, coalesced scatter.
                    pair_table[e.pair as usize].1.unpack_into(&msg, stripe);
                }
            }
            let local = local.unwrap_or_else(|| Payload::zeroed(first_bp.plan.dst[tid].len()));
            // Aligned hand-offs land in the *producer's* buffer; the
            // unique-per-function scheme gives the compute function a
            // private copy ("assigns unique logical buffers to the data
            // per function", paper §3.4). The shared scheme passes the
            // pointer through. Inputs are read-only, so the copy is
            // charged but the bytes stay shared. Fan-in groups already
            // merged into a private buffer above.
            if options.buffer_scheme == BufferScheme::UniquePerFunction
                && f.role == FnRole::Compute
                && first_bp.aligned
                && !multi
            {
                self.ctx.compute(Work::copy(local.len()));
            }
            if let Some(race) = self.race {
                let region = &group.read_regions[tid];
                if !region.is_empty() {
                    race.read(PortAccess {
                        rank: node,
                        key: (f.id, gi as u32, iter),
                        port: &group.label,
                        task: program.task_path(task),
                        iteration: iter,
                        intervals: region.clone(),
                    })
                    .inspect_err(|_| self.mark(EventKind::Fault, f.id, iter))?;
                }
            }
            inputs.push(StripePayload {
                bytes: local,
                shape: first_bp.dst_local_shape.clone(),
                elem_bytes: program.buffers[group.buffers[0] as usize].elem_bytes,
            });
        }
        Ok(inputs)
    }

    /// Charges and runs `task`'s kernel over `inputs` into freshly sized
    /// output stripes, samples the memory high-water mark, and records the
    /// deposit if the function is a sink. Returns the filled outputs.
    fn invoke(
        &mut self,
        task: Task,
        iter: u32,
        inputs: &[StripePayload],
    ) -> Result<Vec<StripePayload>, RuntimeError> {
        let f = &self.program.functions[task.fn_id as usize];
        let threads = f.threads as usize;
        let tid = task.thread as usize;
        let mut outputs: Vec<StripePayload> = f
            .outputs
            .iter()
            .map(|&bid| {
                let bp = &self.prepared.plans[bid as usize];
                let desc = &self.program.buffers[bid as usize];
                StripePayload::zeroed(bp.src_local_shape.clone(), desc.elem_bytes)
            })
            .collect();

        self.ctx.compute(Work {
            flops: f.flops / threads as f64,
            mem_bytes: f.mem_bytes / threads as f64,
            overhead_secs: 0.0,
        });
        // Fault injection: a plan entry matching (block, iteration,
        // thread) overrides the kernel with its injected error.
        let invocation = match self.ctx.kernel_fault(&f.name, iter, task.thread) {
            Some(message) => {
                self.ctx.note_fault();
                Err(message)
            }
            None => {
                let mut fctx = FnThreadCtx {
                    fn_name: &f.name,
                    thread: tid,
                    threads,
                    iteration: iter,
                    params: &f.params,
                    inputs,
                    outputs: &mut outputs,
                };
                self.prepared.kernels[task.fn_id as usize].invoke(&mut fctx)
            }
        };
        if let Err(message) = invocation {
            self.mark(EventKind::Fault, f.id, iter);
            return Err(RuntimeError::Kernel {
                block: f.name.clone(),
                message: format!("(thread {tid}): {message}"),
            });
        }

        // Memory high-water sample: live logical bytes while the kernel
        // holds its working set — input and output stripes plus same-node
        // hand-offs pending for later tasks. Counted in logical bytes
        // (Arc-shared payloads count their full length) so the figure is
        // comparable across backends, and directly against `sage-check`'s
        // static per-node prediction.
        let live = inputs.iter().map(|p| p.bytes.len()).sum::<usize>()
            + outputs.iter().map(|p| p.bytes.len()).sum::<usize>()
            + self.store.live_bytes();
        self.ctx.note_mem_use(live as u64);

        if f.role == FnRole::Sink {
            if let Some(first) = inputs.first() {
                // The deposit shares the stripe's allocation (an Arc bump).
                self.deposits
                    .push(((f.id, iter, task.thread), first.bytes.clone()));
            }
            self.mark(EventKind::SinkAbsorb, iter, iter);
        }
        Ok(outputs)
    }

    /// Stripes `task`'s outputs toward their consumer threads: spend a
    /// credit where the window demands one, pack (or hand off whole when
    /// aligned), then store locally or send.
    fn emit_outputs(
        &mut self,
        task: Task,
        iter: u32,
        outputs: &[StripePayload],
    ) -> Result<(), RuntimeError> {
        let (program, prepared, node) = (self.program, self.prepared, self.node);
        let f = &program.functions[task.fn_id as usize];
        let tid = task.thread as usize;
        for ((&bid, output), edges) in f
            .outputs
            .iter()
            .zip(outputs)
            .zip(&prepared.edges(task).outputs)
        {
            let bp = &prepared.plans[bid as usize];
            if let Some(race) = self.race {
                // The write lands on the consumer-iteration version the
                // delay shifts it to; checked before any byte leaves this
                // rank.
                let region = &bp.write_regions[tid];
                if !region.is_empty() {
                    let (cf, gi) = prepared.buffer_group[bid as usize];
                    race.write(
                        PortAccess {
                            rank: node,
                            key: (cf, gi, iter + program.buffers[bid as usize].delay),
                            port: &prepared.input_groups[cf as usize][gi as usize].label,
                            task: program.task_path(task),
                            iteration: iter,
                            intervals: region.clone(),
                        },
                        fnv1a_64(&output.bytes),
                    )
                    .inspect_err(|_| self.mark(EventKind::Fault, bid, iter))?;
                }
            }
            for e in edges {
                // Backpressure: past the buffer's credit window the
                // producer must spend one credit per pair before emitting —
                // proof the consumer has retired the iteration whose ring
                // slot this emit reuses. A pair with none left is stuck if
                // local (an executor invariant violation, typed); a remote
                // one blocks on its group's credit channel, bounded by the
                // fabric's receive deadline, so a consumer killed
                // mid-stream surfaces as a typed error, never a hang. The
                // group's next credit is that same retirement for every
                // pair of the group, so it counts once for each.
                if iter >= self.rings[bid as usize].window {
                    if self.local_credits[e.pair as usize] == 0 {
                        let Some(g) = e.credit_group else {
                            return Err(RuntimeError::BadProgram(
                                "internal: streaming credit underflow on a local hand-off".into(),
                            ));
                        };
                        self.recv(e.peer_node, credit_tag(bid, e.peer_thread), bid, iter)?;
                        for &p in &prepared.credit_groups[g as usize].pairs {
                            self.local_credits[p as usize] += 1;
                        }
                    }
                    self.local_credits[e.pair as usize] -= 1;
                    self.stats.credits_retired += 1;
                }
                let msg = if bp.aligned {
                    // Whole-stripe hand-off; no pack. Sharing the kernel's
                    // output buffer is safe because outputs are rebuilt
                    // fresh every task.
                    output.bytes.clone()
                } else {
                    self.ctx
                        .advance(self.options.buffer_scheme.per_run_overhead() * f64::from(e.runs));
                    // The pack program writes every byte of its message.
                    let ops = &prepared.pair_table[e.pair as usize].1;
                    let staged = &mut self.staging[e.pair as usize];
                    ops.pack_into(&output.bytes, staged.rescratch(ops.bytes));
                    self.ctx.compute(Work::copy(ops.bytes));
                    staged.clone()
                };
                self.mark(EventKind::XferStart, bid, iter);
                if e.peer_node == node {
                    let slot = self.slot(e, iter);
                    self.store.put(slot, msg);
                } else {
                    let tag = self.tag(bid, iter, task.thread, e.peer_thread);
                    if let Some(race) = self.race {
                        race.stamp_send(node, tag);
                    }
                    self.send(e.peer_node, tag, &msg, bid, iter)?;
                }
            }
        }
        Ok(())
    }

    /// Backpressure, consumer side: retiring iteration `iter` frees one
    /// ring slot of every input buffer, so return one credit per input edge
    /// — except credits no producer iteration will ever spend — so per-pair
    /// issued == retired == `max(0, iterations - window)` exactly; with an
    /// infinite window that is never. A same-node pair's credit is a
    /// counter; the remote ones travel as one message per credit group,
    /// over the retried send path: a fault-plan drop backs off and resends,
    /// exhaustion is a typed transfer failure.
    fn return_credits(&mut self, task: Task, iter: u32) -> Result<(), RuntimeError> {
        let prepared = self.prepared;
        let edges = prepared.edges(task);
        for e in edges.inputs.iter().flatten() {
            if self.frees_credit(e.buffer, iter) {
                self.stats.credits_issued += 1;
                if e.credit_group.is_none() {
                    self.local_credits[e.pair as usize] += 1;
                }
            }
        }
        for &g in &edges.credit_groups {
            let group = &prepared.credit_groups[g as usize];
            if self.frees_credit(group.buffer, iter) {
                let (node, tag) = (group.producer_node, credit_tag(group.buffer, task.thread));
                let credit = self.credit.clone();
                self.send(node, tag, &credit, group.buffer, iter)?;
            }
        }
        Ok(())
    }

    /// Does a consumer retiring iteration `iter` of buffer `bid` free a
    /// ring slot some producer iteration will spend? Not before the
    /// buffer's `delay` arc has delivered (`iter < delay` read nothing),
    /// and not for the last window's worth of producer iterations
    /// (`src_iter + window >= iterations`).
    fn frees_credit(&self, bid: u32, iter: u32) -> bool {
        let delay = self.program.buffers[bid as usize].delay;
        let window = self.rings[bid as usize].window;
        iter.checked_sub(delay).is_some_and(|src_iter| {
            u64::from(src_iter) + u64::from(window) < u64::from(self.iterations)
        })
    }

    /// Blocking receive from `peer`, bounded by the fabric's deadline; a
    /// failure is recorded against `(bid, iter)` in the trace and typed.
    fn recv(&mut self, peer: u32, tag: u64, bid: u32, iter: u32) -> Result<Payload, RuntimeError> {
        self.ctx.try_recv(peer as usize, tag).map_err(|e| {
            self.mark(EventKind::Fault, bid, iter);
            fabric_to_runtime(e)
        })
    }

    /// Sends one message through the retry loop the MPI layer shares
    /// (backoff charged as lost time, each retry recorded in the node
    /// metrics and trace).
    fn send(
        &mut self,
        dst: u32,
        tag: u64,
        payload: &Payload,
        bid: u32,
        iter: u32,
    ) -> Result<(), RuntimeError> {
        let (probe, node) = (self.probe, self.node);
        send_with_retry(self.ctx, dst as usize, tag, payload, |t| {
            probe.record(|| t.now(), EventKind::XferRetry, bid, iter)
        })
        .map_err(|e| match e {
            MpiError::Fabric(e) => fabric_to_runtime(e),
            MpiError::RetriesExhausted { attempts, .. } => RuntimeError::TransferFailed {
                node,
                peer: dst,
                attempts,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glue::{FunctionDescriptor, LogicalBufferDesc, Task};
    use sage_fabric::{LinkSpec, NodeSpec};
    use sage_model::{Properties, Striping};

    fn machine(n: usize) -> MachineSpec {
        MachineSpec::uniform(
            "t",
            n,
            NodeSpec {
                flops_per_sec: 1.0e9,
                mem_bw: 1.0e9,
            },
            LinkSpec {
                bandwidth: 1.0e8,
                latency: 10.0e-6,
            },
        )
    }

    /// src (fills bytes with pattern) -> id -> sink on `n` nodes, matrix
    /// striped by rows everywhere.
    fn pipeline_program(n: u32, rows: usize, cols: usize) -> GlueProgram {
        let shape = vec![rows, cols];
        let mk_buf = |id: u32, producer: u32, consumer: u32| LogicalBufferDesc {
            id,
            producer,
            producer_port: "out".into(),
            consumer,
            consumer_port: "in".into(),
            shape: shape.clone(),
            elem_bytes: 1,
            send_striping: Striping::BY_ROWS,
            recv_striping: Striping::BY_ROWS,
            delay: 0,
        };
        let placement: Vec<u32> = (0..n).collect();
        let mk_fn = |id: u32,
                     name: &str,
                     function: &str,
                     role: FnRole,
                     inputs: Vec<u32>,
                     outputs: Vec<u32>| FunctionDescriptor {
            id,
            name: name.into(),
            function: function.into(),
            role,
            threads: n,
            placement: placement.clone(),
            flops: 1000.0,
            mem_bytes: 0.0,
            inputs,
            outputs,
            params: Properties::new(),
        };
        GlueProgram {
            app_name: "pipeline".into(),
            functions: vec![
                mk_fn(0, "src", "test.fill", FnRole::Source, vec![], vec![0]),
                mk_fn(1, "mid", "id", FnRole::Compute, vec![0], vec![1]),
                mk_fn(2, "snk", "sink.null", FnRole::Sink, vec![1], vec![]),
            ],
            buffers: vec![mk_buf(0, 0, 1), mk_buf(1, 1, 2)],
            schedules: (0..n)
                .map(|t| {
                    vec![
                        Task {
                            fn_id: 0,
                            thread: t,
                        },
                        Task {
                            fn_id: 1,
                            thread: t,
                        },
                        Task {
                            fn_id: 2,
                            thread: t,
                        },
                    ]
                })
                .collect(),
        }
    }

    fn fill_registry() -> Registry {
        let mut reg = Registry::new();
        // Fill output bytes with (thread, index) pattern so stripes differ.
        reg.register("test.fill", |ctx: &mut FnThreadCtx<'_>| {
            let t = ctx.thread as u8;
            for o in ctx.outputs.iter_mut() {
                for (i, b) in o.bytes.iter_mut().enumerate() {
                    *b = t.wrapping_mul(31).wrapping_add(i as u8);
                }
            }
            Ok(())
        });
        reg
    }

    /// src striped by rows -> sink striped by cols on 2 nodes: every
    /// (producer thread, consumer thread) pair overlaps, so half the pairs
    /// cross nodes.
    fn row_to_col_program() -> GlueProgram {
        let mk_fn = |id: u32, name: &str, function: &str, role: FnRole| FunctionDescriptor {
            id,
            name: name.into(),
            function: function.into(),
            role,
            threads: 2,
            placement: vec![0, 1],
            flops: 0.0,
            mem_bytes: 0.0,
            inputs: if role == FnRole::Sink {
                vec![0]
            } else {
                vec![]
            },
            outputs: if role == FnRole::Source {
                vec![0]
            } else {
                vec![]
            },
            params: Properties::new(),
        };
        GlueProgram {
            app_name: "ct".into(),
            functions: vec![
                mk_fn(0, "src", "test.fill", FnRole::Source),
                mk_fn(1, "snk", "sink.null", FnRole::Sink),
            ],
            buffers: vec![LogicalBufferDesc {
                id: 0,
                producer: 0,
                producer_port: "out".into(),
                consumer: 1,
                consumer_port: "in".into(),
                shape: vec![4, 4],
                elem_bytes: 1,
                send_striping: Striping::BY_ROWS,
                recv_striping: Striping::BY_COLS,
                delay: 0,
            }],
            schedules: (0..2)
                .map(|t| {
                    vec![
                        Task {
                            fn_id: 0,
                            thread: t,
                        },
                        Task {
                            fn_id: 1,
                            thread: t,
                        },
                    ]
                })
                .collect(),
        }
    }

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

    /// Satellite regression: `iterations % depth != 0`. The final partial
    /// block (iterations 4..5 at depth 2) must execute and retire exactly
    /// once, bit-identical to lock-step, with correctly ring-masked tags.
    #[test]
    fn pipeline_validate_tail_block_is_bit_identical() {
        let program = pipeline_program(4, 8, 4);
        let reg = fill_registry();
        let iters = 5;
        let lock = execute(
            &program,
            &machine(4),
            TimePolicy::Virtual,
            &reg,
            &RuntimeOptions::paper_faithful(),
            iters,
        )
        .unwrap();
        let piped = execute(
            &program,
            &machine(4),
            TimePolicy::Virtual,
            &reg,
            &RuntimeOptions::paper_faithful().with_pipeline_validate(2),
            iters,
        )
        .unwrap();
        assert_eq!(lock.results.len(), piped.results.len());
        for iter in 0..iters {
            assert_eq!(
                lock.results.assemble(&program, 2, iter).unwrap(),
                piped.results.assemble(&program, 2, iter).unwrap(),
                "iteration {iter} diverged",
            );
        }
    }

    /// Depth 1 runs the validation machinery in lock-step order and must
    /// be bit-equivalent to plain lock-step (the documented identity).
    #[test]
    fn pipeline_validate_depth_one_is_lock_step() {
        let program = pipeline_program(2, 4, 4);
        let reg = fill_registry();
        let lock = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &reg,
            &RuntimeOptions::paper_faithful(),
            3,
        )
        .unwrap();
        let one = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &reg,
            &RuntimeOptions::paper_faithful().with_pipeline_validate(1),
            3,
        )
        .unwrap();
        for iter in 0..3 {
            assert_eq!(
                lock.results.assemble(&program, 2, iter),
                one.results.assemble(&program, 2, iter)
            );
        }
    }

    /// Streaming at several depths (including the degenerate depth 1) is
    /// bit-identical to lock-step and conserves credits exactly.
    #[test]
    fn streaming_matches_lock_step_and_conserves_credits() {
        let program = pipeline_program(4, 8, 4);
        let reg = fill_registry();
        let iters = 6;
        let lock = execute(
            &program,
            &machine(4),
            TimePolicy::Virtual,
            &reg,
            &RuntimeOptions::paper_faithful(),
            iters,
        )
        .unwrap();
        assert_eq!(lock.stream, StreamStats::default());
        for depth in [1u32, 2, 3] {
            let stream = execute(
                &program,
                &machine(4),
                TimePolicy::Virtual,
                &reg,
                &RuntimeOptions::paper_faithful().with_pipeline(depth),
                iters,
            )
            .unwrap();
            assert_eq!(lock.results.len(), stream.results.len(), "depth {depth}");
            for iter in 0..iters {
                assert_eq!(
                    lock.results.assemble(&program, 2, iter).unwrap(),
                    stream.results.assemble(&program, 2, iter).unwrap(),
                    "depth {depth} iteration {iter} diverged",
                );
            }
            assert_eq!(
                stream.stream.credits_issued, stream.stream.credits_retired,
                "depth {depth}: credits not conserved",
            );
            // Every (buffer, pair) on this all-local program is a
            // same-node hand-off: 2 buffers x 4 self-pairs, each issuing
            // max(0, iters - depth) credits (window == depth, delay 0).
            let expect = 8 * iters.saturating_sub(depth) as u64;
            assert_eq!(stream.stream.credits_issued, expect, "depth {depth}");
        }
    }

    /// Lock-step is the scheduler at horizon 1 with no credit protocol:
    /// default options exchange no credits, move exactly the messages the
    /// in-order walk always did (pinned at the commit before the loops
    /// merged), and start functions in schedule order — even though each
    /// rank's source slot is ready for iteration `i + 1` the whole time its
    /// later slots are still on `i`.
    #[test]
    fn default_options_issue_in_schedule_order_without_credits() {
        let opts = RuntimeOptions::paper_faithful().with_probes(true);
        for (program, nodes, iters, messages, bytes) in [
            (pipeline_program(4, 8, 4), 4, 6u32, 0, 0),
            (row_to_col_program(), 2, 5, 10, 40),
        ] {
            let exec = execute(
                &program,
                &machine(nodes),
                TimePolicy::Virtual,
                &fill_registry(),
                &opts,
                iters,
            )
            .unwrap();
            assert_eq!(exec.stream, StreamStats::default());
            assert_eq!(exec.report.metrics.total_messages(), messages);
            assert_eq!(exec.report.metrics.total_bytes(), bytes);
            for (node, sched) in program.schedules.iter().enumerate() {
                let started: Vec<(u32, u32)> = exec.trace.lanes()[node]
                    .iter()
                    .filter(|e| e.kind == EventKind::FnStart)
                    .map(|e| (e.iteration, e.id))
                    .collect();
                let expect: Vec<(u32, u32)> = (0..iters)
                    .flat_map(|i| sched.iter().map(move |t| (i, t.fn_id)))
                    .collect();
                assert_eq!(started, expect, "node {node}");
            }
        }
    }

    /// Streaming across a real redistribution (rows -> cols on 2 nodes):
    /// cross-node pairs exercise the remote credit channel, and per-buffer
    /// depth caps below the global knob still replay bit-identically.
    #[test]
    fn streaming_remote_credits_match_lock_step() {
        let program = row_to_col_program();
        let reg = fill_registry();
        let iters = 5;
        let lock = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &reg,
            &RuntimeOptions::paper_faithful(),
            iters,
        )
        .unwrap();
        let stream = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &reg,
            &RuntimeOptions::paper_faithful()
                .with_pipeline(3)
                .with_pipeline_depths(vec![2]),
            iters,
        )
        .unwrap();
        for iter in 0..iters {
            assert_eq!(
                lock.results.assemble(&program, 1, iter).unwrap(),
                stream.results.assemble(&program, 1, iter).unwrap(),
                "iteration {iter} diverged",
            );
        }
        // 4 nonzero pairs (rows x cols all overlap), per-pair window
        // min(2, 3) + 0 = 2: 4 * (5 - 2) credits, conserved.
        assert_eq!(stream.stream.credits_issued, 12);
        assert_eq!(stream.stream.credits_retired, 12);
    }

    /// A delay (feedback) arc under streaming: the consumer reads
    /// `iter - delay` against ring-indexed tags and the first `delay`
    /// iterations see the zero stripe, exactly as in lock-step.
    #[test]
    fn streaming_delay_arc_matches_lock_step() {
        let mut program = pipeline_program(2, 4, 4);
        program.buffers[1].delay = 1;
        let reg = fill_registry();
        let iters = 4;
        let lock = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &reg,
            &RuntimeOptions::paper_faithful(),
            iters,
        )
        .unwrap();
        let stream = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &reg,
            &RuntimeOptions::paper_faithful().with_pipeline(2),
            iters,
        )
        .unwrap();
        for iter in 0..iters {
            assert_eq!(
                lock.results.assemble(&program, 2, iter).unwrap(),
                stream.results.assemble(&program, 2, iter).unwrap(),
                "iteration {iter} diverged",
            );
        }
        assert_eq!(stream.stream.credits_issued, stream.stream.credits_retired);
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
    fn unique_scheme_is_slower_than_shared() {
        let program = pipeline_program(2, 64, 64);
        let reg = fill_registry();
        let unique = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &reg,
            &RuntimeOptions::paper_faithful(),
            5,
        )
        .unwrap();
        let shared = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &reg,
            &RuntimeOptions::optimized(),
            5,
        )
        .unwrap();
        assert!(
            unique.report.makespan > shared.report.makespan,
            "unique {} vs shared {}",
            unique.report.makespan,
            shared.report.makespan
        );
    }

    #[test]
    fn unknown_function_rejected_up_front() {
        let mut program = pipeline_program(2, 4, 4);
        program.functions[1].function = "no.such.kernel".into();
        let err = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &fill_registry(),
            &RuntimeOptions::default(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownFunction { .. }));
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
    fn out_of_order_schedule_is_typed_transfer_failure() {
        // Consumer scheduled before its same-node producer: the hand-off is
        // consumed before it exists. Must be a typed error, not a panic —
        // and under streaming an empty ring slot, never a payload left from
        // a previous lap of the ring.
        let mut program = pipeline_program(2, 4, 4);
        program.schedules[0].reverse();
        program.schedules[1].reverse();
        let base = RuntimeOptions::paper_faithful();
        for (options, iters) in [(base.clone(), 1), (base.with_pipeline(2), 5)] {
            let err = execute(
                &program,
                &machine(2),
                TimePolicy::Virtual,
                &fill_registry(),
                &options,
                iters,
            )
            .unwrap_err();
            assert!(
                matches!(err, RuntimeError::TransferFailed { attempts: 0, .. }),
                "{err}"
            );
            assert!(err.to_string().contains("never materialized"), "{err}");
        }
    }

    #[test]
    fn indivisible_striping_rejected_up_front() {
        // 5 rows over 2 threads cannot stripe; prepare must reject it
        // instead of panicking inside the striping engine.
        let mut program = pipeline_program(2, 4, 4);
        program.buffers[0].shape = vec![5, 4];
        program.buffers[1].shape = vec![5, 4];
        let err = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &fill_registry(),
            &RuntimeOptions::paper_faithful(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::BadProgram(_)), "{err}");
        assert!(
            err.to_string().contains("cannot stripe over `src`"),
            "{err}"
        );
    }

    #[test]
    fn try_assemble_reports_missing_stripes() {
        let program = pipeline_program(2, 4, 4);
        let results = SinkResults::default();
        let err = results.try_assemble(&program, 2, 0).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Assembly { fn_id: 2, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("no stripe"), "{err}");
        // Short stripe: deposited bytes disagree with the layout. The
        // message must carry both the actual and expected byte counts
        // (each thread of this sink's layout covers 8 bytes).
        let mut results = SinkResults::default();
        for t in 0..2 {
            results.insert(2, 0, t, vec![0u8; 3]);
        }
        let err = results.try_assemble(&program, 2, 0).unwrap_err();
        assert!(
            err.to_string()
                .contains("deposited 3 bytes, its layout covers 8"),
            "{err}"
        );
        // Oversized stripe trips the same branch with the counts swapped
        // in magnitude — the check is an exact equality, not a floor.
        let mut results = SinkResults::default();
        for t in 0..2 {
            results.insert(2, 0, t, vec![0u8; 9]);
        }
        let err = results.try_assemble(&program, 2, 0).unwrap_err();
        assert!(
            err.to_string()
                .contains("deposited 9 bytes, its layout covers 8"),
            "{err}"
        );
        // Unknown function id.
        let err = results.try_assemble(&program, 9, 0).unwrap_err();
        assert!(err.to_string().contains("no function"), "{err}");
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

    /// The local backend, counting the clock reads made through it.
    struct CountingClock<'a> {
        inner: &'a mut sage_fabric::NodeCtx,
        reads: std::cell::Cell<u32>,
    }

    impl Transport for CountingClock<'_> {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn size(&self) -> usize {
            self.inner.size()
        }
        fn try_send(&mut self, dst: usize, tag: u64, payload: &Payload) -> Result<(), FabricError> {
            self.inner.try_send(dst, tag, payload)
        }
        fn try_recv(&mut self, src: usize, tag: u64) -> Result<Payload, FabricError> {
            self.inner.try_recv(src, tag)
        }
        fn try_recv_ready(&mut self, src: usize, tag: u64) -> bool {
            self.inner.try_recv_ready(src, tag)
        }
        fn now(&self) -> f64 {
            self.reads.set(self.reads.get() + 1);
            self.inner.now()
        }
        fn compute(&mut self, work: Work) {
            self.inner.compute(work)
        }
        fn advance(&mut self, secs: f64) {
            self.inner.advance(secs)
        }
        fn note_mem_use(&mut self, bytes: u64) {
            self.inner.note_mem_use(bytes)
        }
    }

    /// Probes that are off cost no clock read: only a recording probe
    /// stamps anything.
    #[test]
    fn a_disabled_probe_reads_no_clock() {
        let program = row_to_col_program();
        let prepared = prepare(&program, &fill_registry()).unwrap();
        let cluster = Cluster::new(machine(2), TimePolicy::Real);
        for probes in [false, true] {
            let (reads, _) = cluster.run(|ctx| {
                let mut t = CountingClock {
                    inner: ctx,
                    reads: Default::default(),
                };
                let probe = Probe::new(probes);
                let options = RuntimeOptions::paper_faithful();
                execute_rank(&mut t, &program, &prepared, &options, 3, &probe, None).unwrap();
                t.reads.get()
            });
            if probes {
                assert!(reads.iter().all(|&n| n > 0), "{reads:?}");
            } else {
                assert_eq!(reads, vec![0, 0]);
            }
        }
    }

    /// Both ends of every transfer are recorded: walking the merged trace
    /// in time order, each `XferEnd (buffer, producer iteration)` closes one
    /// earlier, still-open `XferStart` of the same pair — remote, local and
    /// streamed alike — and the only starts left open are those a delay arc
    /// carries past the last iteration.
    #[test]
    fn every_xfer_end_closes_one_earlier_xfer_start() {
        let iters = 4;
        let mut delayed = pipeline_program(2, 4, 4);
        delayed.buffers[1].delay = 1;
        let cases = [
            (row_to_col_program(), 2),
            (pipeline_program(4, 8, 4), 4),
            (delayed, 2),
        ];
        for (program, nodes) in cases {
            let lock_step = RuntimeOptions::paper_faithful().with_probes(true);
            for options in [lock_step.clone(), lock_step.with_pipeline(2)] {
                let exec = execute(
                    &program,
                    &machine(nodes),
                    TimePolicy::Virtual,
                    &fill_registry(),
                    &options,
                    iters,
                )
                .unwrap();
                let mut open: HashMap<(u32, u32), u32> = HashMap::new();
                let mut ends = 0;
                for (_, e) in exec.trace.in_time_order() {
                    let key = (e.id, e.iteration);
                    match e.kind {
                        EventKind::XferStart => *open.entry(key).or_default() += 1,
                        EventKind::XferEnd => {
                            let pending = open.entry(key).or_default();
                            assert!(*pending > 0, "{} {e:?} has no open start", program.app_name);
                            *pending -= 1;
                            ends += 1;
                        }
                        _ => {}
                    }
                }
                assert!(ends > 0, "{}", program.app_name);
                for (&(bid, i), &n) in &open {
                    let delay = program.buffers[bid as usize].delay;
                    assert!(n == 0 || i + delay >= iters, "({bid}, {i}) left open");
                }
            }
        }
    }

    #[test]
    fn row_to_col_redistribution_transposes_ownership() {
        // src striped by rows -> sink striped by cols: the runtime must
        // deliver column stripes that reassemble into the original matrix.
        let program = row_to_col_program();
        let exec = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &fill_registry(),
            &RuntimeOptions::paper_faithful(),
            1,
        )
        .unwrap();
        let full = exec.results.assemble(&program, 1, 0).unwrap();
        // Reconstruct what the source threads produced: thread t filled its
        // row stripe (rows 2t..2t+2) with t*31 + local index.
        let mut expect = vec![0u8; 16];
        for t in 0..2u8 {
            for i in 0..8usize {
                expect[t as usize * 8 + i] = t.wrapping_mul(31) + i as u8;
            }
        }
        assert_eq!(full, expect);
    }
}

#[cfg(test)]
mod replicated_tests {
    use super::*;
    use crate::glue::{FunctionDescriptor, LogicalBufferDesc, Task};
    use sage_fabric::{LinkSpec, NodeSpec};
    use sage_model::{Properties, Striping};

    fn machine(n: usize) -> MachineSpec {
        MachineSpec::uniform(
            "t",
            n,
            NodeSpec {
                flops_per_sec: 1.0e9,
                mem_bw: 1.0e9,
            },
            LinkSpec {
                bandwidth: 1.0e8,
                latency: 10.0e-6,
            },
        )
    }

    fn registry() -> Registry {
        let mut reg = Registry::new();
        reg.register("fill", |ctx: &mut crate::function::FnThreadCtx<'_>| {
            for o in ctx.outputs.iter_mut() {
                for (i, b) in o.bytes.iter_mut().enumerate() {
                    *b = (i as u8).wrapping_add(7);
                }
            }
            Ok(())
        });
        // Sink kernel that asserts it received the FULL payload.
        reg.register(
            "expect_full",
            |ctx: &mut crate::function::FnThreadCtx<'_>| {
                let input = &ctx.inputs[0];
                if input.shape != [4, 4] {
                    return Err(format!("expected full 4x4 shape, got {:?}", input.shape));
                }
                for (i, &b) in input.bytes.iter().enumerate() {
                    if b != (i as u8).wrapping_add(7) {
                        return Err(format!("byte {i} was {b}"));
                    }
                }
                Ok(())
            },
        );
        reg
    }

    /// Single-threaded source broadcasts a replicated payload to every
    /// thread of a 3-threaded consumer on 3 nodes.
    #[test]
    fn replicated_consumer_receives_full_payload_on_every_thread() {
        let program = GlueProgram {
            app_name: "bcast".into(),
            functions: vec![
                FunctionDescriptor {
                    id: 0,
                    name: "src".into(),
                    function: "fill".into(),
                    role: FnRole::Source,
                    threads: 1,
                    placement: vec![0],
                    flops: 0.0,
                    mem_bytes: 0.0,
                    inputs: vec![],
                    outputs: vec![0],
                    params: Properties::new(),
                },
                FunctionDescriptor {
                    id: 1,
                    name: "snk".into(),
                    function: "expect_full".into(),
                    role: FnRole::Sink,
                    threads: 3,
                    placement: vec![0, 1, 2],
                    flops: 0.0,
                    mem_bytes: 0.0,
                    inputs: vec![0],
                    outputs: vec![],
                    params: Properties::new(),
                },
            ],
            buffers: vec![LogicalBufferDesc {
                id: 0,
                producer: 0,
                producer_port: "out".into(),
                consumer: 1,
                consumer_port: "in".into(),
                shape: vec![4, 4],
                elem_bytes: 1,
                send_striping: Striping::Replicated,
                recv_striping: Striping::Replicated,
                delay: 0,
            }],
            schedules: vec![
                vec![
                    Task {
                        fn_id: 0,
                        thread: 0,
                    },
                    Task {
                        fn_id: 1,
                        thread: 0,
                    },
                ],
                vec![Task {
                    fn_id: 1,
                    thread: 1,
                }],
                vec![Task {
                    fn_id: 1,
                    thread: 2,
                }],
            ],
        };
        let exec = execute(
            &program,
            &machine(3),
            TimePolicy::Virtual,
            &registry(),
            &RuntimeOptions::paper_faithful(),
            2,
        )
        .unwrap();
        // Every sink thread deposited the full 16-byte payload, twice.
        assert_eq!(exec.results.len(), 6);
        for t in 0..3 {
            assert_eq!(exec.results.stripe(1, 1, t).unwrap().len(), 16);
        }
    }

    /// A 2-threaded replicated producer only transmits from thread 0 (the
    /// paper's convention), and a striped consumer still gets its slices.
    #[test]
    fn replicated_producer_to_striped_consumer() {
        let program = GlueProgram {
            app_name: "scatter".into(),
            functions: vec![
                FunctionDescriptor {
                    id: 0,
                    name: "src".into(),
                    function: "fill".into(),
                    role: FnRole::Source,
                    threads: 2,
                    placement: vec![0, 1],
                    flops: 0.0,
                    mem_bytes: 0.0,
                    inputs: vec![],
                    outputs: vec![0],
                    params: Properties::new(),
                },
                FunctionDescriptor {
                    id: 1,
                    name: "snk".into(),
                    function: "sink.null".into(),
                    role: FnRole::Sink,
                    threads: 2,
                    placement: vec![0, 1],
                    flops: 0.0,
                    mem_bytes: 0.0,
                    inputs: vec![0],
                    outputs: vec![],
                    params: Properties::new(),
                },
            ],
            buffers: vec![LogicalBufferDesc {
                id: 0,
                producer: 0,
                producer_port: "out".into(),
                consumer: 1,
                consumer_port: "in".into(),
                shape: vec![4, 4],
                elem_bytes: 1,
                send_striping: Striping::Replicated,
                recv_striping: Striping::BY_ROWS,
                delay: 0,
            }],
            schedules: vec![
                vec![
                    Task {
                        fn_id: 0,
                        thread: 0,
                    },
                    Task {
                        fn_id: 1,
                        thread: 0,
                    },
                ],
                vec![
                    Task {
                        fn_id: 0,
                        thread: 1,
                    },
                    Task {
                        fn_id: 1,
                        thread: 1,
                    },
                ],
            ],
        };
        let exec = execute(
            &program,
            &machine(2),
            TimePolicy::Virtual,
            &registry(),
            &RuntimeOptions::paper_faithful(),
            1,
        )
        .unwrap();
        let full = exec.results.assemble(&program, 1, 0).unwrap();
        let expect: Vec<u8> = (0..16).map(|i| (i as u8).wrapping_add(7)).collect();
        assert_eq!(full, expect);
    }
}
