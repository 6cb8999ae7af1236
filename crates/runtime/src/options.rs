//! Run-time configuration: the buffer-management scheme, which carries the
//! run-time's per-task costs, and the per-run switches (probes, faults,
//! issue policy, race detection).

use sage_fabric::FaultPlan;

/// Logical-buffer management scheme.
///
/// Paper §3.4: "the SAGE run-time buffer management scheme assigns unique
/// logical buffers to the data per function, which can cause extra data
/// access times when compared to the CSPI implementation." §4: "Work is
/// currently underway to improve the performance of the glue code generation
/// component that will reach levels of 90% of hand coded performance" —
/// modelled by the shared scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferScheme {
    /// The shipped scheme: every function gets private physical copies of
    /// its logical buffers (one extra copy on each side of an invocation).
    UniquePerFunction,
    /// The improved scheme: functions read/write the logical buffers
    /// directly; no private copies.
    Shared,
}

impl BufferScheme {
    /// Seconds of table-driven dispatch overhead charged per task
    /// invocation (function-table lookup, descriptor decode, probe checks):
    /// the shipped run-time's, or the leaner one of the improved run-time.
    pub fn dispatch_overhead(self) -> f64 {
        match self {
            BufferScheme::UniquePerFunction => 25.0e-6,
            BufferScheme::Shared => 8.0e-6,
        }
    }

    /// Seconds charged per striding *run* the engine interprets while
    /// packing/unpacking non-aligned redistributions (the run-time walks
    /// interpreted buffer descriptors; hand-coded packing loops are
    /// compiled tight).
    pub fn per_run_overhead(self) -> f64 {
        match self {
            BufferScheme::UniquePerFunction => 0.25e-6,
            BufferScheme::Shared => 0.1e-6,
        }
    }
}

/// The scheduler's issue policy: one loop, one task body and one hand-off
/// store serve all three; the policy sets the issue order, each buffer's
/// ring length in that store, and whether credits flow.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IssuePolicy {
    /// The scheduler at horizon 1: exactly one slot is ever issuable, so
    /// tasks issue in schedule order; transfer tags count iterations up to
    /// the width of their iteration field, a hand-off ring holds the
    /// `1 + delay` payloads a one-iteration horizon can keep live, and the
    /// credit window is infinite, so no credit message exists and traffic
    /// and virtual-clock charges are those of a plain in-order walk.
    /// (`Streaming(1)` is *not* this: it has one-slot rings and pays for
    /// credits.)
    #[default]
    LockStep,
    /// Streaming execution at issue horizon `n`: every logical buffer is a
    /// ring of its proven depth (its cap from
    /// [`RuntimeOptions::pipeline_depths`], bounded by `n`), a schedule
    /// slot issues iteration `i` as soon as its inputs for `i` have landed
    /// and every downstream ring has a free slot, and per-pair credits (one
    /// per ring slot, returned when the consumer retires an iteration)
    /// provide backpressure. At most `n` iterations are in flight per rank.
    /// A hand-off ring is `depth + delay` slots — the credit window — so a
    /// spent credit is the proof that the slot an emit reuses is free, and
    /// the sink stream is bit-identical to lock-step at any depth; the knob
    /// only bounds memory and run-ahead.
    Streaming(u32),
    /// Pipeline cross-validation, the oracle for the static pipeline-safety
    /// pass: block-interleaved issue with `n` iterations in flight over
    /// fixed rings of exactly `n` slots (slot = iteration mod `n`), where a
    /// write replaces whatever the slot held. Executing at any depth up to
    /// the proven safe depth must be bit-identical to lock-step, while a
    /// deliberately over-deep run on a hazardous program corrupts or fails
    /// typed.
    Validate(u32),
}

/// Run-time kernel options.
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeOptions {
    /// Buffer-management scheme; it also sets the per-task dispatch and
    /// per-run striping costs ([`BufferScheme::dispatch_overhead`],
    /// [`BufferScheme::per_run_overhead`]).
    pub buffer_scheme: BufferScheme,
    /// Whether Visualizer probes record events.
    pub probes: bool,
    /// Deterministic fault plan for the run (empty = fault-free).
    pub faults: FaultPlan,
    /// How the scheduler issues iterations (see [`IssuePolicy`]).
    pub issue: IssuePolicy,
    /// Per-buffer ring-depth caps for streaming execution, indexed by
    /// buffer id — normally the proven `safe_depth`s from the static
    /// pipeline-safety pass (`sage pipeline`). Empty means every buffer
    /// uses the global [`IssuePolicy::Streaming`] depth.
    pub pipeline_depths: Vec<u32>,
    /// Run the vector-clock race detector alongside execution. Every task's
    /// logical-buffer accesses are stamped with its rank's vector clock
    /// (clocks join on mailbox hand-offs); any conflicting pair of accesses
    /// with no happens-before ordering fails the run with a typed
    /// [`crate::RuntimeError::RaceDetected`]. The dynamic oracle for the
    /// static `sage race` pass: statically race-clean programs must run
    /// detector-clean.
    pub race_detect: bool,
}

impl RuntimeOptions {
    /// The configuration the paper shipped and measured: unique logical
    /// buffers per function, table-driven dispatch, interpreted striping
    /// descriptors. Messages go through the same vendor MPI the hand-coded
    /// versions use (`sage_mpi`'s one set of software costs) — porting SAGE
    /// to a platform captures "the CSPI board specific run-time software"
    /// (paper §3.2) — so the overhead comes from the glue, not the
    /// transport.
    pub fn paper_faithful() -> RuntimeOptions {
        RuntimeOptions {
            buffer_scheme: BufferScheme::UniquePerFunction,
            probes: false,
            faults: FaultPlan::default(),
            issue: IssuePolicy::LockStep,
            pipeline_depths: Vec::new(),
            race_detect: false,
        }
    }

    /// The "work underway" improved run-time: shared buffers, leaner
    /// dispatch (targets >=90% of hand-coded).
    pub fn optimized() -> RuntimeOptions {
        RuntimeOptions {
            buffer_scheme: BufferScheme::Shared,
            ..RuntimeOptions::paper_faithful()
        }
    }

    /// Builder: enable probes.
    pub fn with_probes(mut self, on: bool) -> RuntimeOptions {
        self.probes = on;
        self
    }

    /// Builder: attach a fault plan for the run.
    pub fn with_faults(mut self, plan: FaultPlan) -> RuntimeOptions {
        self.faults = plan;
        self
    }

    /// Builder: run the pipeline cross-validation mode with `depth`
    /// iterations in flight (see [`IssuePolicy::Validate`]). Like
    /// [`RuntimeOptions::with_pipeline`] it sets the one issue policy, so
    /// the last of the two calls wins.
    ///
    /// Depth 1 means one iteration in flight — by definition lock-step —
    /// so it maps to plain lock-step execution and is trivially
    /// bit-equivalent (a useful identity when sweeping depths; note a
    /// literal one-slot ring would *not* be equivalent on `delay` arcs,
    /// whose iteration `i-delay` payload must stay live while iteration
    /// `i` emits). Depth 0 means "no validation" and is lock-step too;
    /// callers that consider 0 a user error (the CLI does) must reject it
    /// before building options.
    pub fn with_pipeline_validate(mut self, depth: u32) -> RuntimeOptions {
        self.issue = if depth > 1 {
            IssuePolicy::Validate(depth)
        } else {
            IssuePolicy::LockStep
        };
        self
    }

    /// Builder: run the streaming pipeline executor with up to `depth`
    /// iterations in flight (see [`IssuePolicy::Streaming`]). Depth 0 is
    /// lock-step; depth 1 streams with a one-iteration window
    /// (lock-step issue order, with full credit accounting).
    pub fn with_pipeline(mut self, depth: u32) -> RuntimeOptions {
        self.issue = if depth >= 1 {
            IssuePolicy::Streaming(depth)
        } else {
            IssuePolicy::LockStep
        };
        self
    }

    /// Builder: per-buffer ring-depth caps for streaming execution (see
    /// [`RuntimeOptions::pipeline_depths`]), indexed by buffer id.
    pub fn with_pipeline_depths(mut self, depths: Vec<u32>) -> RuntimeOptions {
        self.pipeline_depths = depths;
        self
    }

    /// Builder: run the vector-clock race detector alongside execution (see
    /// [`RuntimeOptions::race_detect`]).
    pub fn with_race_detect(mut self, on: bool) -> RuntimeOptions {
        self.race_detect = on;
        self
    }
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions::paper_faithful()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_expected() {
        let paper = RuntimeOptions::paper_faithful();
        let opt = RuntimeOptions::optimized();
        assert_eq!(paper.buffer_scheme, BufferScheme::UniquePerFunction);
        assert_eq!(opt.buffer_scheme, BufferScheme::Shared);
        // The presets differ in the scheme alone.
        assert_eq!(
            RuntimeOptions {
                buffer_scheme: BufferScheme::UniquePerFunction,
                ..opt.clone()
            },
            paper
        );
        assert!(!paper.probes);
        // Each scheme carries the per-task costs its preset always had.
        let (unique, shared) = (BufferScheme::UniquePerFunction, BufferScheme::Shared);
        assert_eq!(unique.dispatch_overhead(), 25.0e-6);
        assert_eq!(unique.per_run_overhead(), 0.25e-6);
        assert_eq!(shared.dispatch_overhead(), 8.0e-6);
        assert_eq!(shared.per_run_overhead(), 0.1e-6);
    }

    #[test]
    fn builders() {
        let o = RuntimeOptions::paper_faithful().with_probes(true);
        assert!(o.probes);
        // One issue policy: the last of the pipeline builders wins.
        assert_eq!(o.issue, IssuePolicy::LockStep);
        let o = o.with_pipeline(2).with_pipeline_validate(3);
        assert_eq!(o.issue, IssuePolicy::Validate(3));
        assert_eq!(o.clone().with_pipeline(2).issue, IssuePolicy::Streaming(2));
        assert_eq!(o.with_pipeline_validate(1).issue, IssuePolicy::LockStep);
        // Six values, each set by a preset or a `with_` method: a knob with one
        // setting in use is a constant instead (`BufferScheme`'s costs,
        // `sage-mpi`'s). A new field fails to compile here until it has a
        // second setting and a line below.
        let RuntimeOptions {
            buffer_scheme,
            probes,
            faults,
            issue,
            pipeline_depths,
            race_detect,
        } = RuntimeOptions::optimized()
            .with_probes(true)
            .with_faults(FaultPlan::new(7).fail_node(1, 0.5))
            .with_pipeline(2)
            .with_pipeline_depths(vec![1])
            .with_race_detect(true);
        assert_eq!(buffer_scheme, BufferScheme::Shared);
        assert!(probes && race_detect);
        assert_ne!(faults, FaultPlan::default());
        assert_eq!(issue, IssuePolicy::Streaming(2));
        assert_eq!(pipeline_depths, [1]);
    }
}
