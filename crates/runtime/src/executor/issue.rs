//! Issue order: which schedule slot runs next. One staircase loop serves
//! lock-step and streaming; the block-interleaved loop is the
//! pipeline-validate oracle's order.

use super::flow::{Credit, Place};
use super::RankState;
use crate::function::RuntimeError;
use crate::glue::Task;
use sage_fabric::Transport;

impl<T: Transport> RankState<'_, T> {
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
    pub(super) fn run_staircase(&mut self, horizon: u32) -> Result<(), RuntimeError> {
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
    pub(super) fn run_block_interleaved(&mut self, depth: u32) -> Result<(), RuntimeError> {
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
        // emptied the slot's earlier laps) or in the mailbox. A delay arc
        // before its first payload reads a zero-fill.
        let landed = edges.inputs.iter().flatten().all(|e| {
            iter.checked_sub(e.delay).is_none_or(|src_iter| {
                match self.flow.place(e, src_iter, e.peer_thread, task.thread) {
                    Place::Slot(slot) => self.flow.landed(slot),
                    Place::Tag(tag) => self.ctx.try_recv_ready(e.peer_node as usize, tag),
                }
            })
        });
        // Outputs: every edge past its buffer's credit window must hold a
        // credit, or its group's next one must have arrived.
        let mut outputs = edges.outputs.iter().flatten();
        landed
            && outputs.all(|e| match self.flow.credit(e, iter) {
                Credit::Free | Credit::OnHand => true,
                Credit::Owed { tag, .. } => self.ctx.try_recv_ready(e.peer_node as usize, tag),
                Credit::Stuck => false,
            })
    }
}

#[cfg(test)]
mod tests {
    use crate::executor::{execute, StreamStats};
    use crate::fixtures::{fill_registry, machine, pipeline_program, row_to_col_program};
    use crate::options::RuntimeOptions;
    use sage_fabric::TimePolicy;
    use sage_visualizer::EventKind;

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
}
