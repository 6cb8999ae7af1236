//! The task body: one schedule slot of one iteration — assemble the input
//! stripes, invoke the kernel, stripe the outputs toward their consumers,
//! return credits. Every issue order runs this same body.

use super::flow::Place;
use super::{fabric_to_runtime, RankState};
use crate::function::{FnThreadCtx, RuntimeError, StripePayload};
use crate::glue::{FnRole, Task};
use crate::options::BufferScheme;
use sage_fabric::{Payload, Transport, Work};
use sage_mpi::{send_with_retry, MpiError, RECV_OVERHEAD};
use sage_visualizer::EventKind;

impl<T: Transport> RankState<'_, T> {
    /// Records one probe event stamped with the rank's clock.
    fn mark(&self, kind: EventKind, id: u32, iter: u32) {
        self.probe.record(|| self.ctx.now(), kind, id, iter);
    }

    /// Runs one schedule slot of one iteration: dispatch, assemble inputs,
    /// invoke the kernel, emit outputs, return credits. Every issue order
    /// shares this exact body.
    pub(super) fn run_task(&mut self, task: Task, iter: u32) -> Result<(), RuntimeError> {
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
                let msg = match self.flow.place(e, src_iter, e.peer_thread, task.thread) {
                    Place::Slot(slot) => match self.flow.take(slot) {
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
                    },
                    Place::Tag(tag) => {
                        let m = self.recv(e.peer_node, tag, e.buffer, iter)?;
                        if let Some(race) = self.race {
                            race.join_recv(node, tag);
                        }
                        self.ctx.advance(RECV_OVERHEAD);
                        m
                    }
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
                race.read(node, task, gi, iter)
                    .inspect_err(|_| self.mark(EventKind::Fault, f.id, iter))?;
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
            + self.flow.live_bytes();
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
        for ((&bid, output), edges) in f
            .outputs
            .iter()
            .zip(outputs)
            .zip(&prepared.edges(task).outputs)
        {
            let bp = &prepared.plans[bid as usize];
            if let Some(race) = self.race {
                // Checked before any byte leaves this rank.
                race.write(node, task, bid, iter, &output.bytes)
                    .inspect_err(|_| self.mark(EventKind::Fault, bid, iter))?;
            }
            for e in edges {
                self.spend_credit(e, iter)?;
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
                match self.flow.place(e, iter, task.thread, e.peer_thread) {
                    Place::Slot(slot) => self.flow.put(slot, msg),
                    Place::Tag(tag) => {
                        if let Some(race) = self.race {
                            race.stamp_send(node, tag);
                        }
                        self.send(e.peer_node, tag, &msg, bid, iter)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Blocking receive from `peer`, bounded by the fabric's deadline; a
    /// failure is recorded against `(bid, iter)` in the trace and typed.
    pub(super) fn recv(
        &mut self,
        peer: u32,
        tag: u64,
        bid: u32,
        iter: u32,
    ) -> Result<Payload, RuntimeError> {
        self.ctx.try_recv(peer as usize, tag).map_err(|e| {
            self.mark(EventKind::Fault, bid, iter);
            fabric_to_runtime(e)
        })
    }

    /// Sends one message through the retry loop the MPI layer shares
    /// (backoff charged as lost time, each retry recorded in the node
    /// metrics and trace).
    pub(super) fn send(
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
    use crate::executor::{execute, execute_rank, prepare};
    use crate::fixtures::{fill_registry, machine, pipeline_program, row_to_col_program};
    use crate::function::RuntimeError;
    use crate::options::RuntimeOptions;
    use sage_fabric::{Cluster, FabricError, Payload, TimePolicy, Transport, Work};
    use sage_visualizer::{EventKind, Probe};
    use std::collections::HashMap;

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
}
