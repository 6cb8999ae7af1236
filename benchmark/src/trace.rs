//! Tracing from outside the program: spans around the two public seams the
//! executor already has.
//!
//! * kernels — every registered kernel is re-registered behind a
//!   [`TimedKernel`] ([`wrap_registry`]);
//! * transport — `execute_rank` is generic over `sage_fabric::Transport`, so
//!   a rank is handed a [`TimedTransport`] around its real backend.
//!
//! Both record into a per-thread [`Recorder`] (a rank is one OS thread; the
//! executor calls kernels and the transport inline on it), so recording
//! takes no lock and needs no rank argument. Kernel and transport spans of
//! one rank never overlap, which makes the `runtime` glue remainder — rank
//! wall minus kernel minus transport spans — non-negative by construction.

use sage::fabric::{FabricError, Payload, Transport, Work};
use sage::runtime::{FnThreadCtx, Kernel, Registry};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// The span clock, in ticks of unknown length; [`end`] converts ticks to
/// nanoseconds against `Instant` over the whole rep.
///
/// On the sandbox `Instant::now()` plus the subtraction costs 41 ns and
/// RDTSC 18 ns (5 M reads each). The streaming beamformer records ~300 spans
/// per rank per 0.3 ms frame, two reads each: ~8% of the frame with
/// `Instant`, ~3.5% with the counter, against a 10% budget for all of
/// tracing. A rank is one pinned thread, so its counter is monotonic.
#[cfg(target_arch = "x86_64")]
#[inline]
fn ticks() -> u64 {
    // SAFETY: RDTSC has no preconditions and touches no memory.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Other targets: nanoseconds since the first call.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Bit 62 of a tag marks a streaming backpressure credit (the executor's
/// `CREDIT_BIT`; `xfer_tag` uses bits 0..60, `sage-mpi` owns bit 63).
const CREDIT_BIT: u64 = 1 << 62;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// An `isspl.*` (or other application) kernel invocation.
    Kernel = 0,
    /// A `workload.*` input generator invocation.
    Source = 1,
    /// `Transport::try_send` of a data message.
    Send = 2,
    /// `Transport::try_recv` of a data message (includes the wait).
    RecvWait = 3,
    /// `Transport::try_send` of a streaming credit.
    CreditSend = 4,
    /// `Transport::try_recv` of a streaming credit (includes the wait).
    CreditWait = 5,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 6;

impl Kind {
    /// Name used in the trace file.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Kernel => "kernel",
            Kind::Source => "source",
            Kind::Send => "send",
            Kind::RecvWait => "recv_wait",
            Kind::CreditSend => "credit_send",
            Kind::CreditWait => "credit_wait",
        }
    }
}

/// One recorded span. Its parent is the rep it was recorded in.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What the span covers.
    pub kind: Kind,
    /// Index into the kernel name table ([`wrap_registry`]); `u16::MAX` for
    /// transport spans.
    pub name: u16,
    /// Frame id: `FnThreadCtx::iteration`, or the iteration field of the
    /// `xfer_tag` (0 for credits, which are iteration-independent).
    pub frame: u32,
    /// Nanoseconds since the rep's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the rep's epoch.
    pub end_ns: u64,
}

/// Per-rank, per-rep recording. Times are in clock ticks while recording
/// and in nanoseconds once [`end`] has returned it.
pub struct Recorder {
    /// Nanoseconds from the rep's epoch to `begin`.
    begin_ns: u64,
    begin: Instant,
    begin_ticks: u64,
    /// Spans are kept only for frames below this id (bounds the trace
    /// file); totals always cover every frame.
    keep_frames_below: u32,
    /// Kept spans.
    pub spans: Vec<Span>,
    /// Busy nanoseconds per [`Kind`].
    pub ns: [u64; KINDS],
    /// Span count per [`Kind`].
    pub count: [u64; KINDS],
    /// Busy nanoseconds per kernel name index.
    pub kernel_ns: Vec<u64>,
}

impl Recorder {
    fn record(&mut self, kind: Kind, name: u16, frame: u32, t0: u64, t1: u64) {
        let busy = t1.saturating_sub(t0);
        self.ns[kind as usize] += busy;
        self.count[kind as usize] += 1;
        if let Some(slot) = self.kernel_ns.get_mut(name as usize) {
            *slot += busy;
        }
        if frame < self.keep_frames_below {
            self.spans.push(Span {
                kind,
                name,
                frame,
                start_ns: t0,
                end_ns: t1,
            });
        }
    }

    /// Ticks -> nanoseconds since the rep's epoch, scaled by how long the
    /// whole recording took on both clocks.
    fn finish(mut self) -> Recorder {
        let ticks = ticks().saturating_sub(self.begin_ticks).max(1);
        let ns_per_tick = self.begin.elapsed().as_nanos() as f64 / ticks as f64;
        let (begin_ns, begin_ticks) = (self.begin_ns, self.begin_ticks);
        let busy = |t: u64| (t as f64 * ns_per_tick) as u64;
        let at = |t: u64| begin_ns + busy(t.saturating_sub(begin_ticks));
        for s in &mut self.spans {
            (s.start_ns, s.end_ns) = (at(s.start_ns), at(s.end_ns));
        }
        for v in self.ns.iter_mut().chain(self.kernel_ns.iter_mut()) {
            *v = busy(*v);
        }
        self
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs a fresh recorder on the calling (rank) thread.
fn begin(epoch: Instant, kernel_names: usize, keep_frames_below: u32) {
    RECORDER.with(|r| {
        let begin = Instant::now();
        *r.borrow_mut() = Some(Recorder {
            begin_ns: begin.duration_since(epoch).as_nanos() as u64,
            begin,
            begin_ticks: ticks(),
            keep_frames_below,
            spans: Vec::with_capacity(if keep_frames_below > 0 { 1 << 14 } else { 0 }),
            ns: [0; KINDS],
            count: [0; KINDS],
            kernel_ns: vec![0; kernel_names],
        });
    });
}

/// Removes and returns the calling thread's recorder, times in nanoseconds.
fn end() -> Option<Recorder> {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(Recorder::finish)
}

fn record(kind: Kind, name: u16, frame: u32, t0: u64, t1: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.record(kind, name, frame, t0, t1);
        }
    });
}

/// A kernel behind a stopwatch. Forwards the invocation untouched.
pub struct TimedKernel {
    inner: Arc<dyn Kernel>,
    name: u16,
    kind: Kind,
}

impl Kernel for TimedKernel {
    fn invoke(&self, ctx: &mut FnThreadCtx<'_>) -> Result<(), String> {
        let frame = ctx.iteration;
        let t0 = ticks();
        let r = self.inner.invoke(ctx);
        record(self.kind, self.name, frame, t0, ticks());
        r
    }
}

/// Re-registers every kernel of `registry` behind a [`TimedKernel`].
/// Returns the wrapped registry and the name table span indices refer to.
/// `workload.*` kernels are the input generators and are reported apart
/// ([`Kind::Source`]) from the application kernels.
pub fn wrap_registry(registry: &Registry) -> (Registry, Vec<String>) {
    let names = registry.names();
    let mut wrapped = Registry::new();
    for (i, name) in names.iter().enumerate() {
        let Some(inner) = registry.get(name) else {
            continue;
        };
        let kind = if name.starts_with("workload.") {
            Kind::Source
        } else {
            Kind::Kernel
        };
        wrapped.register(
            name.clone(),
            TimedKernel {
                inner,
                name: i as u16,
                kind,
            },
        );
    }
    (wrapped, names)
}

/// A transport behind a stopwatch: times `try_send` and `try_recv`,
/// forwards everything else.
pub struct TimedTransport<'a, T: Transport> {
    inner: &'a mut T,
}

impl<'a, T: Transport> TimedTransport<'a, T> {
    /// Wraps `inner` for the duration of one rank's run.
    pub fn new(inner: &'a mut T) -> Self {
        TimedTransport { inner }
    }
}

fn frame_of(tag: u64) -> u32 {
    ((tag >> 20) & 0xF_FFFF) as u32
}

impl<T: Transport> Transport for TimedTransport<'_, T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn try_send(&mut self, dst: usize, tag: u64, payload: &Payload) -> Result<(), FabricError> {
        let t0 = ticks();
        let r = self.inner.try_send(dst, tag, payload);
        let t1 = ticks();
        let (kind, frame) = if tag & CREDIT_BIT != 0 {
            (Kind::CreditSend, 0)
        } else {
            (Kind::Send, frame_of(tag))
        };
        record(kind, u16::MAX, frame, t0, t1);
        r
    }

    fn try_recv(&mut self, src: usize, tag: u64) -> Result<Payload, FabricError> {
        let t0 = ticks();
        let r = self.inner.try_recv(src, tag);
        let t1 = ticks();
        let (kind, frame) = if tag & CREDIT_BIT != 0 {
            (Kind::CreditWait, 0)
        } else {
            (Kind::RecvWait, frame_of(tag))
        };
        record(kind, u16::MAX, frame, t0, t1);
        r
    }

    fn try_recv_ready(&mut self, src: usize, tag: u64) -> bool {
        self.inner.try_recv_ready(src, tag)
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn compute(&mut self, work: Work) {
        self.inner.compute(work)
    }

    fn advance(&mut self, secs: f64) {
        self.inner.advance(secs)
    }

    fn advance_lost(&mut self, secs: f64) {
        self.inner.advance_lost(secs)
    }

    fn note_retry(&mut self) {
        self.inner.note_retry()
    }

    fn note_fault(&mut self) {
        self.inner.note_fault()
    }

    fn note_mem_use(&mut self, bytes: u64) {
        self.inner.note_mem_use(bytes)
    }

    fn check_failed(&mut self) -> Result<(), FabricError> {
        self.inner.check_failed()
    }

    fn kernel_fault(&self, block: &str, iteration: u32, thread: u32) -> Option<String> {
        self.inner.kernel_fault(block, iteration, thread)
    }
}

/// What one rank recorded over one traced rep.
pub struct RankTrace {
    /// Rank id.
    pub rank: usize,
    /// Nanoseconds from the rep's epoch to the rank's `execute_rank` call.
    pub start_ns: u64,
    /// Nanoseconds from the rep's epoch to `execute_rank` returning.
    pub end_ns: u64,
    /// The rank's recorder.
    pub rec: Recorder,
}

impl RankTrace {
    /// Rank wall time, ns.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Kernel + source + transport busy time, ns.
    pub fn attributed_ns(&self) -> u64 {
        self.rec.ns.iter().sum()
    }
}

/// Runs `body` as one traced rank: installs a recorder, times the call,
/// returns the body's result with what was recorded.
pub fn traced_rank<R>(
    rank: usize,
    epoch: Instant,
    kernel_names: usize,
    keep_frames_below: u32,
    body: impl FnOnce() -> R,
) -> (R, RankTrace) {
    begin(epoch, kernel_names, keep_frames_below);
    let t0 = Instant::now();
    let r = body();
    let t1 = Instant::now();
    let rec = end().expect("recorder installed above on this thread");
    (
        r,
        RankTrace {
            rank,
            start_ns: t0.duration_since(epoch).as_nanos() as u64,
            end_ns: t1.duration_since(epoch).as_nanos() as u64,
            rec,
        },
    )
}

/// Writes one rep's spans as JSON: the rep is the root span, every rank a
/// child of it, every kernel/transport span a child of its rank.
pub fn write_trace_file(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    rep: usize,
    frames: u32,
    names: &[String],
    ranks: &[RankTrace],
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(1 << 20);
    let rep_end = ranks.iter().map(|r| r.end_ns).max().unwrap_or(0);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns since rep start\",\
         \"rep\":{{\"id\":{rep},\"frames\":{frames},\"start_ns\":0,\"end_ns\":{rep_end}}},\n\"ranks\":["
    );
    for (i, r) in ranks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let glue = r.wall_ns() - r.attributed_ns().min(r.wall_ns());
        let _ = write!(
            out,
            "\n{{\"rank\":{},\"parent\":\"rep\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{{\"runtime_glue\":{glue}",
            r.rank, r.start_ns, r.end_ns
        );
        const KIND_ORDER: [Kind; KINDS] = [
            Kind::Kernel,
            Kind::Source,
            Kind::Send,
            Kind::RecvWait,
            Kind::CreditSend,
            Kind::CreditWait,
        ];
        for k in KIND_ORDER {
            let _ = write!(out, ",\"{}\":{}", k.label(), r.rec.ns[k as usize]);
        }
        out.push_str("},\"span_count\":{");
        for (i, k) in KIND_ORDER.into_iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{}\":{}", k.label(), r.rec.count[k as usize]);
        }
        out.push_str("},\"kernel_ns\":{");
        let mut first = true;
        for (n, ns) in names.iter().zip(&r.rec.kernel_ns) {
            if *ns == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{n}\":{ns}");
        }
        out.push_str("}}");
    }
    out.push_str("],\n\"spans\":[");
    let mut first = true;
    for r in ranks {
        for s in &r.rec.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let name = names
                .get(s.name as usize)
                .map(String::as_str)
                .unwrap_or("transport");
            let _ = write!(
                out,
                "\n{{\"name\":\"{name}\",\"kind\":\"{}\",\"rank\":{},\"parent\":\"rank{}\",\"frame\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.kind.label(),
                r.rank,
                r.rank,
                s.frame,
                s.start_ns,
                s.end_ns
            );
        }
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
