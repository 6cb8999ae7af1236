//! Flow control: where each iteration of a transfer lives, and when a
//! producer may emit into a slot again. The [`IssuePolicy`] sets each
//! buffer's [`Ring`]; this module is the only one that reads it.
//!
//! Two questions, each answered once, here, for both the issue loop (which
//! only asks) and the task body (which acts on the answer):
//! [`Flow::place`] (is iteration `i` of a pair in a hand-off slot or behind
//! a mailbox tag?) and [`Flow::credit`] (does this emit need a credit, and
//! is one on hand?).

use super::{Edge, Prepared, RankState, StreamStats};
use crate::function::RuntimeError;
use crate::glue::{xfer_tag, GlueProgram, Task, TAG_ITERATIONS};
use crate::options::{IssuePolicy, RuntimeOptions};
use sage_fabric::{Payload, Transport};

/// High tag bit marking a backpressure credit message. [`xfer_tag`] packs
/// its fields into bits 0..60, so bit 62 is free on every transport;
/// credits therefore share the data fabric without ever colliding with a
/// data frame's tag.
const CREDIT_BIT: u64 = 1 << 62;

/// The credit-channel tag of buffer `bid`'s consumer thread
/// `consumer_thread`: with the sending node, it names one
/// [`CreditGroup`](super::CreditGroup).
/// Iteration-independent: credits are fungible within a group, so a single
/// per-group FIFO counts them.
fn credit_tag(bid: u32, consumer_thread: u32) -> u64 {
    CREDIT_BIT | xfer_tag(bid, 0, 0, consumer_thread)
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
    /// Slots in each of the buffer's hand-off rings.
    len: u32,
}

impl Ring {
    /// The ring of a buffer with depth cap `cap` (if any) and `delay`, for
    /// a run of `iterations` under `issue`.
    fn new(issue: IssuePolicy, cap: Option<u32>, delay: u32, iterations: u32) -> Ring {
        let (depth, window, len) = match issue {
            // The buffer's proven cap bounded by the global knob, min 1.
            IssuePolicy::Streaming(horizon) => {
                let horizon = horizon.max(1);
                let depth = cap.map_or(horizon, |c| c.min(horizon).max(1));
                let window = depth.saturating_add(delay);
                (depth, window, window)
            }
            IssuePolicy::Validate(depth) => (depth.max(1), u32::MAX, depth),
            IssuePolicy::LockStep => (TAG_ITERATIONS, u32::MAX, delay.saturating_add(1)),
        };
        Ring {
            depth,
            window,
            // A run never tells more than `iterations` slots apart.
            len: len.clamp(1, iterations.max(1)),
        }
    }
}

/// Where an iteration of a transfer pair lives.
pub(super) enum Place {
    /// A slot of this node's hand-off store: the pair's two ends share it.
    Slot(usize),
    /// A message with this tag, from or to the peer's node.
    Tag(u64),
}

/// Where an emit past its buffer's credit window stands.
pub(super) enum Credit {
    /// Inside the window: no credit is needed.
    Free,
    /// The pair holds a credit to spend.
    OnHand,
    /// The pair's credit group owes one; it arrives with this tag.
    Owed { group: u32, tag: u64 },
    /// A same-node pair with none left: the consumer has not retired the
    /// iteration whose slot this emit reuses, so no wait can help.
    Stuck,
}

/// One rank's flow-control state. The node-local hand-off store is one
/// fixed ring of slots per transfer pair, payloads shared, not copied. A
/// pair's iteration `i` lives in slot `i % len` of its ring; [`Ring::len`]
/// is the issue policy's only store policy — long enough in lock-step and
/// streaming that no slot is rewritten before it is read, and exactly the
/// oracle's depth in pipeline-validate, where *reusing a slot before its
/// reader got there* is the corruption that mode exists to surface.
pub(super) struct Flow {
    /// Total iterations in the run (for the credit-return skip rule).
    iterations: u32,
    /// Per buffer id.
    rings: Vec<Ring>,
    slots: Vec<Option<Payload>>,
    /// Per pair: the first slot of its ring.
    base: Vec<usize>,
    /// Logical bytes pending in the store (for the memory high-water
    /// sample), kept as payloads come and go.
    live_bytes: usize,
    /// Per pair: credits this rank holds and has not spent — returned by a
    /// same-node consumer, or received as one of the pair's group messages
    /// (which count once for every pair of the group).
    local_credits: Vec<u32>,
    /// The one empty message every remote credit sends: a credit is its
    /// tag, so each send shares this handle instead of allocating.
    credit_msg: Payload,
    pub(super) stats: StreamStats,
}

impl Flow {
    /// One rank's flow control for a run of `iterations` under `options`.
    pub(super) fn new(
        program: &GlueProgram,
        prepared: &Prepared,
        options: &RuntimeOptions,
        iterations: u32,
    ) -> Flow {
        let rings: Vec<Ring> = program
            .buffers
            .iter()
            .map(|b| {
                let cap = options.pipeline_depths.get(b.id as usize).copied();
                Ring::new(options.issue, cap, b.delay, iterations)
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
        Flow {
            iterations,
            rings,
            slots: vec![None; slots],
            base,
            live_bytes: 0,
            local_credits: vec![0; prepared.pair_table.len()],
            credit_msg: Payload::new(),
            stats: StreamStats::default(),
        }
    }

    /// Where iteration `iter` of the pair behind `e`, sent by thread
    /// `src_thread` to thread `dst_thread`, lives: a hand-off slot when the
    /// pair's two ends share a node (it has no credit group), else the
    /// message tag whose iteration field is the buffer's ring slot.
    pub(super) fn place(&self, e: &Edge, iter: u32, src_thread: u32, dst_thread: u32) -> Place {
        let ring = &self.rings[e.buffer as usize];
        if e.credit_group.is_none() {
            Place::Slot(self.base[e.pair as usize] + (iter % ring.len) as usize)
        } else {
            let lap = iter % ring.depth;
            Place::Tag(xfer_tag(e.buffer, lap, src_thread, dst_thread))
        }
    }

    /// Whether emitting iteration `iter` into the pair behind output edge
    /// `e` needs a credit, and whether one is on hand. Past the buffer's
    /// credit window the producer must spend one credit per pair — proof
    /// the consumer has retired the iteration whose ring slot this emit
    /// reuses.
    pub(super) fn credit(&self, e: &Edge, iter: u32) -> Credit {
        if iter < self.rings[e.buffer as usize].window {
            Credit::Free
        } else if self.local_credits[e.pair as usize] > 0 {
            Credit::OnHand
        } else if let Some(group) = e.credit_group {
            Credit::Owed {
                group,
                tag: credit_tag(e.buffer, e.peer_thread),
            }
        } else {
            Credit::Stuck
        }
    }

    /// Does a consumer retiring iteration `iter` of buffer `bid` free a
    /// ring slot some producer iteration will spend? Not before the
    /// buffer's `delay` arc has delivered (`iter < delay` read nothing),
    /// and not for the last window's worth of producer iterations
    /// (`src_iter + window >= iterations`). So per-pair issued == retired
    /// == `max(0, iterations - window)` exactly; with an infinite window
    /// that is never.
    fn frees_credit(&self, bid: u32, delay: u32, iter: u32) -> bool {
        let window = self.rings[bid as usize].window;
        iter.checked_sub(delay).is_some_and(|src_iter| {
            u64::from(src_iter) + u64::from(window) < u64::from(self.iterations)
        })
    }

    /// Whether a hand-off slot holds a payload.
    pub(super) fn landed(&self, slot: usize) -> bool {
        self.slots[slot].is_some()
    }

    /// Stores `payload`, replacing whatever the slot held.
    pub(super) fn put(&mut self, slot: usize, payload: Payload) {
        self.live_bytes += payload.len();
        if let Some(old) = self.slots[slot].replace(payload) {
            self.live_bytes -= old.len();
        }
    }

    /// Takes the slot's payload, leaving it empty.
    pub(super) fn take(&mut self, slot: usize) -> Option<Payload> {
        let payload = self.slots[slot].take()?;
        self.live_bytes -= payload.len();
        Some(payload)
    }

    /// Logical bytes pending in the hand-off store.
    pub(super) fn live_bytes(&self) -> usize {
        debug_assert_eq!(
            self.live_bytes,
            self.slots.iter().flatten().map(|p| p.len()).sum::<usize>(),
            "the running counter drifted from the store's contents"
        );
        self.live_bytes
    }
}

impl<T: Transport> RankState<'_, T> {
    /// Backpressure, producer side: spends the credit [`Flow::credit`]
    /// finds `e`'s emit of iteration `iter` needs. A remote pair with none
    /// on hand blocks on its group's credit channel, bounded by the
    /// fabric's receive deadline, so a consumer killed mid-stream surfaces
    /// as a typed error, never a hang. The group's credit is the same
    /// retirement for every pair of the group, so it counts once for each.
    /// A stuck local pair is an executor invariant violation, typed.
    pub(super) fn spend_credit(&mut self, e: &Edge, iter: u32) -> Result<(), RuntimeError> {
        match self.flow.credit(e, iter) {
            Credit::Free => return Ok(()),
            Credit::OnHand => {}
            Credit::Owed { group, tag } => {
                self.recv(e.peer_node, tag, e.buffer, iter)?;
                for &p in &self.prepared.credit_groups[group as usize].pairs {
                    self.flow.local_credits[p as usize] += 1;
                }
            }
            Credit::Stuck => {
                return Err(RuntimeError::BadProgram(
                    "internal: streaming credit underflow on a local hand-off".into(),
                ))
            }
        }
        self.flow.local_credits[e.pair as usize] -= 1;
        self.flow.stats.credits_retired += 1;
        Ok(())
    }

    /// Backpressure, consumer side: retiring iteration `iter` frees one
    /// ring slot of every input buffer. A same-node pair's credit is a
    /// counter; the remote ones travel as one message per credit group,
    /// over the retried send path: a fault-plan drop backs off and resends,
    /// exhaustion is a typed transfer failure.
    pub(super) fn return_credits(&mut self, task: Task, iter: u32) -> Result<(), RuntimeError> {
        let (program, prepared) = (self.program, self.prepared);
        let edges = prepared.edges(task);
        for e in edges.inputs.iter().flatten() {
            if self.flow.frees_credit(e.buffer, e.delay, iter) {
                self.flow.stats.credits_issued += 1;
                if e.credit_group.is_none() {
                    self.flow.local_credits[e.pair as usize] += 1;
                }
            }
        }
        for &g in &edges.credit_groups {
            let group = &prepared.credit_groups[g as usize];
            let delay = program.buffers[group.buffer as usize].delay;
            if self.flow.frees_credit(group.buffer, delay, iter) {
                let tag = credit_tag(group.buffer, task.thread);
                let credit = self.flow.credit_msg.clone();
                self.send(group.producer_node, tag, &credit, group.buffer, iter)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::execute;
    use crate::fixtures::{fill_registry, machine, pipeline_program, row_to_col_program};
    use crate::options::RuntimeOptions;
    use sage_fabric::TimePolicy;

    /// Every ring the policies derive, clamps included: a cap of 0 and a
    /// horizon of 0 both mean 1, and a ring never has more slots than the
    /// run has iterations.
    #[test]
    fn rings_follow_the_issue_policy() {
        use IssuePolicy::{LockStep, Streaming, Validate};
        const NONE: u32 = u32::MAX;
        // (policy, cap, delay, (depth, window, len at 1, 3 and 100 iterations))
        let table = [
            (LockStep, None, 0, (TAG_ITERATIONS, NONE, [1, 1, 1])),
            (LockStep, None, 2, (TAG_ITERATIONS, NONE, [1, 3, 3])),
            (Streaming(0), None, 0, (1, 1, [1, 1, 1])),
            (Streaming(0), None, 2, (1, 3, [1, 3, 3])),
            (Streaming(0), Some(0), 0, (1, 1, [1, 1, 1])),
            (Streaming(0), Some(0), 2, (1, 3, [1, 3, 3])),
            (Streaming(0), Some(2), 0, (1, 1, [1, 1, 1])),
            (Streaming(0), Some(2), 2, (1, 3, [1, 3, 3])),
            (Streaming(4), None, 0, (4, 4, [1, 3, 4])),
            (Streaming(4), None, 2, (4, 6, [1, 3, 6])),
            (Streaming(4), Some(0), 0, (1, 1, [1, 1, 1])),
            (Streaming(4), Some(0), 2, (1, 3, [1, 3, 3])),
            (Streaming(4), Some(2), 0, (2, 2, [1, 2, 2])),
            (Streaming(4), Some(2), 2, (2, 4, [1, 3, 4])),
            (Validate(3), None, 0, (3, NONE, [1, 3, 3])),
            (Validate(3), None, 2, (3, NONE, [1, 3, 3])),
        ];
        for (issue, cap, delay, (depth, window, lens)) in table {
            for (iterations, len) in [1, 3, 100].into_iter().zip(lens) {
                let ring = Ring::new(issue, cap, delay, iterations);
                assert_eq!(
                    (ring.depth, ring.window, ring.len),
                    (depth, window, len),
                    "{issue:?} cap {cap:?} delay {delay} iterations {iterations}"
                );
            }
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
}
