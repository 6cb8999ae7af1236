//! Control-plane payloads: the job parameters every job message carries,
//! and the report each rank sends back.
//!
//! Serialization rides the shared [`crate::codec`] primitives. The
//! control protocol carries its own explicit version ([`PROTO_VERSION`]),
//! exchanged before any layout-dependent field — so a speaker of a
//! different revision gets a typed [`NetError::VersionMismatch`] instead
//! of a codec parse failure deep in some unrelated field.

use crate::codec::{Reader, Writer};
use crate::error::NetError;
use sage_fabric::{LinkMetrics, NodeMetrics};
use sage_runtime::RuntimeError;
use sage_visualizer::{EventKind, ProbeEvent};

/// Control-protocol version. v2 added the version field, the per-job
/// heartbeat override, and the fleet messages. v3 added the per-job
/// `race_detect` switch. v4 added the streaming pipeline knob (`pipeline`
/// and per-buffer `pipeline_depths`). v5 dropped the data-plane byte when the
/// copy-heavy plane it selected was retired. v6 retired the one-shot
/// worker protocol (its two frame kinds and the per-rank job struct they
/// carried): every job travels as one [`JobParams`] inside the fleet's
/// `Submit` and `Job` messages.
pub const PROTO_VERSION: u32 = 6;

/// What to run and how, independent of where: the one description of a
/// job that the submitter, the scheduler and every rank share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobParams {
    /// Iterations (data sets) to run.
    pub iterations: u32,
    /// Use the optimized (shared-buffer) run-time options.
    pub optimized: bool,
    /// Record probe events and ship them back in the report.
    pub probes: bool,
    /// Arm the vector-clock race detector on every rank (see
    /// `RuntimeOptions::race_detect`). Each daemon only observes its own
    /// rank's accesses, so over TCP the detector runs in degraded
    /// per-process mode; full cross-rank validation is the in-process
    /// backend's job.
    pub race_detect: bool,
    /// Streaming pipeline depth (`None` = lock-step; see
    /// `RuntimeOptions::pipeline`). Every rank must run the same mode or
    /// their transfer tags disagree, so it ships with the job.
    pub pipeline: Option<u32>,
    /// Per-buffer ring-depth caps for streaming, indexed by buffer id
    /// (empty = global depth; see `RuntimeOptions::pipeline_depths`).
    /// Computed by the submitter from the static pipeline-safety plan — the
    /// net layer ships the numbers without depending on the checker.
    pub pipeline_depths: Vec<u32>,
    /// The application model, as s-expression text. Each rank regenerates
    /// the glue program from this deterministically, so every rank — and
    /// the submitter — agrees on tables and schedules without shipping
    /// compiled structures.
    pub model: String,
}

impl JobParams {
    /// A lock-step, paper-faithful, unprobed job.
    pub fn new(model: impl Into<String>, iterations: u32) -> JobParams {
        JobParams {
            iterations,
            optimized: false,
            probes: false,
            race_detect: false,
            pipeline: None,
            pipeline_depths: Vec::new(),
            model: model.into(),
        }
    }

    /// Appends the parameters to a message under construction.
    pub fn encode_into(&self, w: &mut Writer) {
        w.u32(self.iterations);
        w.u8(u8::from(self.optimized));
        w.u8(u8::from(self.probes));
        w.u8(u8::from(self.race_detect));
        w.opt_u64(self.pipeline.map(u64::from));
        w.seq(&self.pipeline_depths, |w, &d| w.u32(d));
        w.string(&self.model);
    }

    /// Reads the parameters from a reader positioned at their first field.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<JobParams, NetError> {
        Ok(JobParams {
            iterations: r.u32()?,
            optimized: r.u8()? != 0,
            probes: r.u8()? != 0,
            race_detect: r.u8()? != 0,
            pipeline: r
                .opt_u64()?
                .map(u32::try_from)
                .transpose()
                .map_err(|_| NetError::Protocol("pipeline depth out of range".into()))?,
            pipeline_depths: r.seq(|r| r.u32())?,
            model: r.string()?,
        })
    }
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

// ---- RankReport ------------------------------------------------------

impl RankReport {
    /// Appends the report to a message under construction.
    pub fn encode_into(&self, w: &mut Writer) {
        w.u32(self.rank);
        match &self.error {
            None => w.u8(0),
            Some(e) => {
                w.u8(1);
                write_runtime_error(w, e);
            }
        }
        w.seq(&self.deposits, |w, ((f, i, t), bytes)| {
            w.u32(*f);
            w.u32(*i);
            w.u32(*t);
            w.bytes(bytes);
        });
        w.f64(self.wall_secs);
        let m = &self.metrics;
        w.u64(m.messages_sent);
        w.u64(m.bytes_sent);
        w.u64(m.messages_received);
        w.u64(m.bytes_received);
        w.u64(m.retries);
        w.u64(m.faults_observed);
        w.u64(m.mem_high_water);
        w.seq(&self.links, |w, l| {
            w.u32(l.src);
            w.u32(l.dst);
            w.u64(l.messages);
            w.u64(l.bytes);
        });
        w.seq(&self.events, |w, e| {
            w.f64(e.time);
            w.u32(e.node);
            w.u8(event_kind_code(e.kind));
            w.u32(e.id);
            w.u32(e.iteration);
        });
    }

    /// Reads one report from a reader positioned at its first field.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<RankReport, NetError> {
        let rank = r.u32()?;
        let error = match r.u8()? {
            0 => None,
            _ => Some(read_runtime_error(r)?),
        };
        let deposits = r.seq(|r| Ok(((r.u32()?, r.u32()?, r.u32()?), r.bytes()?)))?;
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
        let links = r.seq(|r| {
            Ok(LinkMetrics {
                src: r.u32()?,
                dst: r.u32()?,
                messages: r.u64()?,
                bytes: r.u64()?,
            })
        })?;
        let events = r.seq(|r| {
            Ok(ProbeEvent {
                time: r.f64()?,
                node: r.u32()?,
                kind: event_kind_from(r.u8()?)?,
                id: r.u32()?,
                iteration: r.u32()?,
            })
        })?;
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

    fn params() -> JobParams {
        JobParams {
            optimized: true,
            race_detect: true,
            pipeline: Some(3),
            pipeline_depths: vec![2, 3],
            ..JobParams::new("(app demo)", 7)
        }
    }

    fn encoded(p: &JobParams) -> Vec<u8> {
        let mut w = Writer::new();
        p.encode_into(&mut w);
        w.0
    }

    #[test]
    fn params_round_trip() {
        let p = params();
        let enc = encoded(&p);
        let mut r = Reader::new(&enc);
        assert_eq!(JobParams::decode_from(&mut r).unwrap(), p);
        r.done().unwrap();
    }

    /// The depth rides the wire as a u64; a value a u32 cannot hold is a
    /// malformed job, not a depth to truncate.
    #[test]
    fn oversized_pipeline_depth_is_typed_error() {
        let mut w = Writer::new();
        w.u32(7);
        w.u8(0);
        w.u8(0);
        w.u8(0);
        w.opt_u64(Some(u64::from(u32::MAX) + 2));
        w.seq(&[] as &[u32], |w, &d| w.u32(d));
        w.string("(app demo)");
        assert!(matches!(
            JobParams::decode_from(&mut Reader::new(&w.0)).unwrap_err(),
            NetError::Protocol(m) if m.contains("pipeline depth")
        ));
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
        let mut w = Writer::new();
        rep.encode_into(&mut w);
        let mut r = Reader::new(&w.0);
        assert_eq!(RankReport::decode_from(&mut r).unwrap(), rep);
        r.done().unwrap();
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
        let enc = encoded(&params());
        assert!(matches!(
            JobParams::decode_from(&mut Reader::new(&enc[..enc.len() - 1])).unwrap_err(),
            NetError::Protocol(_)
        ));
    }
}
