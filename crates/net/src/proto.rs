//! Control-plane payloads: the job description the launcher ships to each
//! worker, and the report each worker sends back.
//!
//! Serialization rides the shared [`crate::codec`] primitives. The
//! control protocol carries its own explicit version ([`PROTO_VERSION`]),
//! checked as the *first* field of the Job handshake — so a speaker of a
//! different revision gets a typed [`NetError::VersionMismatch`] instead
//! of a codec parse failure deep in some unrelated field.

use crate::codec::{Reader, Writer};
use crate::error::NetError;
use sage_fabric::{LinkMetrics, NodeMetrics};
use sage_runtime::RuntimeError;
use sage_visualizer::{EventKind, ProbeEvent};

/// Control-protocol version. v1 had no version field (its absence is how
/// v1 is detected: the first u32 of a v1 JobSpec is the rank, which is
/// < 2^16 in practice, while v2+ leads with this constant). v2 added the
/// version field, the per-job heartbeat override, and the fleet messages.
/// v3 added the per-job `race_detect` switch. v4 added the streaming
/// pipeline knob (`pipeline` + per-buffer `pipeline_depths`). v5 dropped
/// the data-plane byte when the copy-heavy plane it selected was retired.
pub const PROTO_VERSION: u32 = 5;

/// Everything one worker needs to run one rank of a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Control-protocol version the sender speaks (see [`PROTO_VERSION`]).
    pub proto_version: u32,
    /// The rank this worker hosts.
    pub rank: u32,
    /// Total ranks in the job.
    pub ranks: u32,
    /// Iterations (data sets) to run.
    pub iterations: u32,
    /// Use the optimized (shared-buffer) run-time options.
    pub optimized: bool,
    /// Record probe events and ship them back in the report.
    pub probes: bool,
    /// Arm the vector-clock race detector on every rank (see
    /// `RuntimeOptions::race_detect`). Each worker process only observes
    /// its own rank's accesses, so over TCP the detector runs in degraded
    /// per-process mode; full cross-rank validation is the in-process
    /// backend's job.
    pub race_detect: bool,
    /// Heartbeat period override in milliseconds (`None` = transport
    /// default). Lets soak tests and the fleet drain path tune the
    /// staleness window from the CLI.
    pub heartbeat_ms: Option<u64>,
    /// Streaming pipeline depth (`None` = lock-step; see
    /// `RuntimeOptions::pipeline`). Every rank must run the same mode or
    /// their transfer tags disagree, so the launcher ships it in the spec.
    pub pipeline: Option<u32>,
    /// Per-buffer ring-depth caps for streaming, indexed by buffer id
    /// (empty = global depth; see `RuntimeOptions::pipeline_depths`).
    /// Computed by the launcher from the static pipeline-safety plan — the
    /// net layer ships the numbers without depending on the checker.
    pub pipeline_depths: Vec<u32>,
    /// The application model, as s-expression text. Each worker
    /// regenerates the glue program from this deterministically, so every
    /// rank — and the launcher — agrees on tables and schedules without
    /// shipping compiled structures.
    pub model: String,
    /// Data-plane listen addresses of all ranks, indexed by rank.
    pub peers: Vec<String>,
}

/// What one rank produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RankReport {
    /// The reporting rank.
    pub rank: u32,
    /// The run error, if the rank failed.
    pub error: Option<RuntimeError>,
    /// Sink deposits made on this rank: `(fn_id, iteration, thread)` ->
    /// stripe bytes.
    pub deposits: Vec<((u32, u32, u32), Vec<u8>)>,
    /// Wall-clock seconds this rank spent executing the program.
    pub wall_secs: f64,
    /// This rank's traffic counters.
    pub metrics: NodeMetrics,
    /// Wire counters for each outgoing link of this rank.
    pub links: Vec<LinkMetrics>,
    /// Probe events recorded on this rank (empty unless probes were on).
    pub events: Vec<ProbeEvent>,
}

// ---- RuntimeError codec ----------------------------------------------

pub(crate) fn write_runtime_error(w: &mut Writer, e: &RuntimeError) {
    match e {
        RuntimeError::UnknownFunction { block, function } => {
            w.u8(1);
            w.string(block);
            w.string(function);
        }
        RuntimeError::Kernel { block, message } => {
            w.u8(2);
            w.string(block);
            w.string(message);
        }
        RuntimeError::BadProgram(m) => {
            w.u8(3);
            w.string(m);
        }
        RuntimeError::NodeFailed { node } => {
            w.u8(4);
            w.u32(*node);
        }
        RuntimeError::PeerFailed { node, peer } => {
            w.u8(5);
            w.u32(*node);
            w.u32(*peer);
        }
        RuntimeError::TransferFailed {
            node,
            peer,
            attempts,
        } => {
            w.u8(6);
            w.u32(*node);
            w.u32(*peer);
            w.u32(*attempts);
        }
        RuntimeError::Timeout { node, peer } => {
            w.u8(7);
            w.u32(*node);
            w.u32(*peer);
        }
        RuntimeError::Assembly {
            fn_id,
            iteration,
            message,
        } => {
            w.u8(8);
            w.u32(*fn_id);
            w.u32(*iteration);
            w.string(message);
        }
        RuntimeError::RaceDetected {
            port,
            first,
            second,
        } => {
            w.u8(9);
            w.string(port);
            w.string(first);
            w.string(second);
        }
    }
}

pub(crate) fn read_runtime_error(r: &mut Reader<'_>) -> Result<RuntimeError, NetError> {
    Ok(match r.u8()? {
        1 => RuntimeError::UnknownFunction {
            block: r.string()?,
            function: r.string()?,
        },
        2 => RuntimeError::Kernel {
            block: r.string()?,
            message: r.string()?,
        },
        3 => RuntimeError::BadProgram(r.string()?),
        4 => RuntimeError::NodeFailed { node: r.u32()? },
        5 => RuntimeError::PeerFailed {
            node: r.u32()?,
            peer: r.u32()?,
        },
        6 => RuntimeError::TransferFailed {
            node: r.u32()?,
            peer: r.u32()?,
            attempts: r.u32()?,
        },
        7 => RuntimeError::Timeout {
            node: r.u32()?,
            peer: r.u32()?,
        },
        8 => RuntimeError::Assembly {
            fn_id: r.u32()?,
            iteration: r.u32()?,
            message: r.string()?,
        },
        9 => RuntimeError::RaceDetected {
            port: r.string()?,
            first: r.string()?,
            second: r.string()?,
        },
        other => return Err(NetError::Protocol(format!("bad error code {other}"))),
    })
}

// ---- EventKind codec --------------------------------------------------

fn event_kind_code(k: EventKind) -> u8 {
    match k {
        EventKind::FnStart => 1,
        EventKind::FnEnd => 2,
        EventKind::XferStart => 3,
        EventKind::XferEnd => 4,
        EventKind::SourceEmit => 5,
        EventKind::SinkAbsorb => 6,
        EventKind::BufAlloc => 7,
        EventKind::XferRetry => 8,
        EventKind::Fault => 9,
        EventKind::NetConnect => 10,
        EventKind::NetSend => 11,
        EventKind::NetRecv => 12,
        EventKind::NetRetry => 13,
        EventKind::NetTimeout => 14,
    }
}

fn event_kind_from(code: u8) -> Result<EventKind, NetError> {
    Ok(match code {
        1 => EventKind::FnStart,
        2 => EventKind::FnEnd,
        3 => EventKind::XferStart,
        4 => EventKind::XferEnd,
        5 => EventKind::SourceEmit,
        6 => EventKind::SinkAbsorb,
        7 => EventKind::BufAlloc,
        8 => EventKind::XferRetry,
        9 => EventKind::Fault,
        10 => EventKind::NetConnect,
        11 => EventKind::NetSend,
        12 => EventKind::NetRecv,
        13 => EventKind::NetRetry,
        14 => EventKind::NetTimeout,
        other => return Err(NetError::Protocol(format!("bad event kind {other}"))),
    })
}

// ---- JobSpec / RankReport ---------------------------------------------

impl JobSpec {
    /// Serializes the job for a `Job` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.proto_version);
        w.u32(self.rank);
        w.u32(self.ranks);
        w.u32(self.iterations);
        w.u8(u8::from(self.optimized));
        w.u8(u8::from(self.probes));
        w.u8(u8::from(self.race_detect));
        w.opt_u64(self.heartbeat_ms);
        w.opt_u64(self.pipeline.map(u64::from));
        w.u32(self.pipeline_depths.len() as u32);
        for &d in &self.pipeline_depths {
            w.u32(d);
        }
        w.string(&self.model);
        w.u32(self.peers.len() as u32);
        for p in &self.peers {
            w.string(p);
        }
        w.0
    }

    /// Decodes a `Job` frame payload.
    ///
    /// The version field is checked *first*: a mismatched speaker gets a
    /// typed [`NetError::VersionMismatch`] before any layout-dependent
    /// field is touched.
    pub fn decode(buf: &[u8]) -> Result<JobSpec, NetError> {
        let mut r = Reader::new(buf);
        let proto_version = r.u32()?;
        if proto_version != PROTO_VERSION {
            return Err(NetError::VersionMismatch {
                ours: PROTO_VERSION,
                theirs: proto_version,
            });
        }
        let spec = JobSpec {
            proto_version,
            rank: r.u32()?,
            ranks: r.u32()?,
            iterations: r.u32()?,
            optimized: r.u8()? != 0,
            probes: r.u8()? != 0,
            race_detect: r.u8()? != 0,
            heartbeat_ms: r.opt_u64()?,
            pipeline: r.opt_u64()?.map(|d| d as u32),
            pipeline_depths: {
                let n = r.u32()? as usize;
                let mut v = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    v.push(r.u32()?);
                }
                v
            },
            model: r.string()?,
            peers: {
                let n = r.u32()? as usize;
                let mut v = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    v.push(r.string()?);
                }
                v
            },
        };
        r.done()?;
        Ok(spec)
    }
}

impl RankReport {
    /// Serializes the report for a `Result` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.0
    }

    /// Appends the report to an existing writer (lets fleet messages embed
    /// reports without an intermediate copy).
    pub fn encode_into(&self, w: &mut Writer) {
        w.u32(self.rank);
        match &self.error {
            None => w.u8(0),
            Some(e) => {
                w.u8(1);
                write_runtime_error(w, e);
            }
        }
        w.u32(self.deposits.len() as u32);
        for ((f, i, t), bytes) in &self.deposits {
            w.u32(*f);
            w.u32(*i);
            w.u32(*t);
            w.bytes(bytes);
        }
        w.f64(self.wall_secs);
        let m = &self.metrics;
        w.u64(m.messages_sent);
        w.u64(m.bytes_sent);
        w.u64(m.messages_received);
        w.u64(m.bytes_received);
        w.u64(m.retries);
        w.u64(m.faults_observed);
        w.u64(m.mem_high_water);
        w.u32(self.links.len() as u32);
        for l in &self.links {
            w.u32(l.src);
            w.u32(l.dst);
            w.u64(l.messages);
            w.u64(l.bytes);
        }
        w.u32(self.events.len() as u32);
        for e in &self.events {
            w.f64(e.time);
            w.u32(e.node);
            w.u8(event_kind_code(e.kind));
            w.u32(e.id);
            w.u32(e.iteration);
        }
    }

    /// Decodes a `Result` frame payload.
    pub fn decode(buf: &[u8]) -> Result<RankReport, NetError> {
        let mut r = Reader::new(buf);
        let report = RankReport::decode_from(&mut r)?;
        r.done()?;
        Ok(report)
    }

    /// Reads one report from a reader positioned at its first field.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<RankReport, NetError> {
        let rank = r.u32()?;
        let error = match r.u8()? {
            0 => None,
            _ => Some(read_runtime_error(r)?),
        };
        let n_dep = r.u32()? as usize;
        let mut deposits = Vec::with_capacity(n_dep.min(4096));
        for _ in 0..n_dep {
            let key = (r.u32()?, r.u32()?, r.u32()?);
            deposits.push((key, r.bytes()?));
        }
        let wall_secs = r.f64()?;
        let metrics = NodeMetrics {
            messages_sent: r.u64()?,
            bytes_sent: r.u64()?,
            messages_received: r.u64()?,
            bytes_received: r.u64()?,
            retries: r.u64()?,
            faults_observed: r.u64()?,
            mem_high_water: r.u64()?,
            ..NodeMetrics::default()
        };
        let n_links = r.u32()? as usize;
        let mut links = Vec::with_capacity(n_links.min(4096));
        for _ in 0..n_links {
            links.push(LinkMetrics {
                src: r.u32()?,
                dst: r.u32()?,
                messages: r.u64()?,
                bytes: r.u64()?,
            });
        }
        let n_ev = r.u32()? as usize;
        let mut events = Vec::with_capacity(n_ev.min(65536));
        for _ in 0..n_ev {
            events.push(ProbeEvent {
                time: r.f64()?,
                node: r.u32()?,
                kind: event_kind_from(r.u8()?)?,
                id: r.u32()?,
                iteration: r.u32()?,
            });
        }
        Ok(RankReport {
            rank,
            error,
            deposits,
            wall_secs,
            metrics,
            links,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            proto_version: PROTO_VERSION,
            rank: 3,
            ranks: 4,
            iterations: 7,
            optimized: true,
            probes: false,
            race_detect: true,
            heartbeat_ms: Some(50),
            pipeline: Some(3),
            pipeline_depths: vec![2, 3],
            model: "(app demo)".into(),
            peers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
        }
    }

    #[test]
    fn job_round_trip() {
        let j = spec();
        assert_eq!(JobSpec::decode(&j.encode()).unwrap(), j);
    }

    #[test]
    fn job_version_mismatch_is_typed() {
        // Any other revision, including the immediately previous one
        // (whose layout differs by a single byte), is refused by number.
        for theirs in [1, PROTO_VERSION - 1] {
            let mut j = spec();
            j.proto_version = theirs;
            assert_eq!(
                JobSpec::decode(&j.encode()).unwrap_err(),
                NetError::VersionMismatch {
                    ours: PROTO_VERSION,
                    theirs
                }
            );
        }
    }

    #[test]
    fn report_round_trip_with_error() {
        let rep = RankReport {
            rank: 2,
            error: Some(RuntimeError::PeerFailed { node: 2, peer: 0 }),
            deposits: vec![((1, 0, 2), vec![9, 8, 7]), ((1, 1, 2), vec![])],
            wall_secs: 0.25,
            metrics: NodeMetrics {
                messages_sent: 5,
                bytes_sent: 100,
                mem_high_water: 4096,
                ..NodeMetrics::default()
            },
            links: vec![LinkMetrics {
                src: 2,
                dst: 0,
                messages: 5,
                bytes: 100,
            }],
            events: vec![ProbeEvent::new(0.5, 2, EventKind::NetSend, 0, 1)],
        };
        assert_eq!(RankReport::decode(&rep.encode()).unwrap(), rep);
    }

    #[test]
    fn all_runtime_error_variants_round_trip() {
        let errs = [
            RuntimeError::UnknownFunction {
                block: "b".into(),
                function: "f".into(),
            },
            RuntimeError::Kernel {
                block: "b".into(),
                message: "m".into(),
            },
            RuntimeError::BadProgram("p".into()),
            RuntimeError::NodeFailed { node: 1 },
            RuntimeError::PeerFailed { node: 1, peer: 2 },
            RuntimeError::TransferFailed {
                node: 1,
                peer: 2,
                attempts: 3,
            },
            RuntimeError::Timeout { node: 1, peer: 2 },
            RuntimeError::Assembly {
                fn_id: 1,
                iteration: 2,
                message: "short stripe".into(),
            },
        ];
        for e in errs {
            let mut w = Writer::new();
            write_runtime_error(&mut w, &e);
            let mut r = Reader::new(&w.0);
            assert_eq!(read_runtime_error(&mut r).unwrap(), e);
        }
    }

    #[test]
    fn truncated_payload_is_typed_error() {
        let enc = spec().encode();
        assert!(matches!(
            JobSpec::decode(&enc[..enc.len() - 1]).unwrap_err(),
            NetError::Protocol(_)
        ));
    }
}
