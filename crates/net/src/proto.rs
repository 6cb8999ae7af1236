//! Control-plane payloads: the job parameters every job message carries,
//! and the wire layout of the report each rank sends back (the record
//! itself, [`RankReport`], is `sage-runtime`'s: the in-process backend
//! fills in the same one).
//!
//! Each record's layout is declared once, at the bottom of this file, on
//! the [`crate::codec`] declarators; [`crate::codec`]'s module docs give the
//! recipe for changing one. The control protocol carries its own explicit
//! version ([`PROTO_VERSION`]), exchanged before any layout-dependent field
//! — so a speaker of a different revision gets a typed
//! [`NetError::VersionMismatch`] instead of a codec parse failure deep in
//! some unrelated field.

use crate::codec::{Reader, Wire, Writer};
use crate::error::NetError;
use crate::{wire_enum, wire_struct};
use sage_fabric::{LinkMetrics, NodeMetrics, Payload};
use sage_runtime::{RankReport, RuntimeError, StreamStats};
use sage_visualizer::{EventKind, ProbeEvent};

/// Control-protocol version. v2 added the version field, the per-job
/// heartbeat override, and the fleet messages. v3 added the per-job
/// `race_detect` switch. v4 added the streaming pipeline knob (`pipeline`
/// and per-buffer `pipeline_depths`). v5 dropped the data-plane byte when the
/// copy-heavy plane it selected was retired. v6 retired the one-shot
/// worker protocol (its two frame kinds and the per-rank job struct they
/// carried): every job travels as one [`JobParams`] inside the fleet's
/// `Submit` and `Job` messages. v7 added the streaming credit counters
/// (`stream`) to [`RankReport`]. v8 dropped the two [`JobParams`] switches
/// no rank acts on over TCP (`optimized`, which only changes virtual-clock
/// charges, and `race_detect`, whose per-process detector sees no
/// cross-rank pair) and the six [`EventKind`]s nothing records (`BufAlloc`
/// and the transport's `Net*` rows).
pub const PROTO_VERSION: u32 = 8;

/// What to run and how, independent of where: the one description of a
/// job that the submitter, the scheduler and every rank share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobParams {
    /// Iterations (data sets) to run.
    pub iterations: u32,
    /// Record probe events and ship them back in the report.
    pub probes: bool,
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
    /// A lock-step, unprobed job.
    pub fn new(model: impl Into<String>, iterations: u32) -> JobParams {
        JobParams {
            iterations,
            probes: false,
            pipeline: None,
            pipeline_depths: Vec::new(),
            model: model.into(),
        }
    }
}

// ---- Layouts ---------------------------------------------------------

/// `JobParams::pipeline` on the wire. The depth has travelled as an
/// `Option<u64>` since v4 although the run-time takes a `u32`; a value a
/// `u32` cannot hold is a malformed job, not a depth to truncate — hence a
/// hand-written impl rather than `Option<u32>`'s.
struct WideDepth(Option<u32>);

impl Wire for WideDepth {
    fn put(&self, w: &mut Writer) {
        self.0.map(u64::from).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<WideDepth, NetError> {
        Option::<u64>::get(r)?
            .map(u32::try_from)
            .transpose()
            .map(WideDepth)
            .map_err(|_| NetError::Protocol("pipeline depth out of range".into()))
    }
}

wire_struct!(JobParams {
    iterations,
    probes,
    pipeline as WideDepth,
    pipeline_depths,
    model,
});

wire_struct!(RankReport {
    rank,
    error,
    deposits,
    wall_secs,
    metrics,
    links,
    events,
    stream,
});

wire_struct!(StreamStats {
    credits_issued,
    credits_retired
});

/// A deposit's stripe travels as a byte blob; it re-enters the
/// shared-payload world on arrival without a copy.
impl Wire for Payload {
    fn put(&self, w: &mut Writer) {
        (self.len() as u32).put(w);
        u8::put_all(self, w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Payload, NetError> {
        Vec::<u8>::get(r).map(Payload::from_vec)
    }
}

wire_enum!(RuntimeError, "error code" {
    1 => UnknownFunction { block, function },
    2 => Kernel { block, message },
    3 => BadProgram(message),
    4 => NodeFailed { node },
    5 => PeerFailed { node, peer },
    6 => TransferFailed { node, peer, attempts },
    7 => Timeout { node, peer },
    8 => Assembly { fn_id, iteration, message },
    9 => RaceDetected { port, first, second },
});

// The fields only the virtual fabric fills (clock, compute/wait/lost
// seconds, injected drops) do not travel: they read back as defaults.
wire_struct!(NodeMetrics {
    messages_sent,
    bytes_sent,
    messages_received,
    bytes_received,
    retries,
    faults_observed,
    mem_high_water,
    ..
});

wire_struct!(LinkMetrics {
    src,
    dst,
    messages,
    bytes
});

wire_struct!(ProbeEvent {
    time,
    node,
    kind,
    id,
    iteration
});

wire_enum!(EventKind, "event kind" {
    1 => FnStart,
    2 => FnEnd,
    3 => XferStart,
    4 => XferEnd,
    5 => SourceEmit,
    6 => SinkAbsorb,
    7 => XferRetry,
    8 => Fault,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode};

    #[test]
    fn params_round_trip() {
        let p = JobParams {
            probes: true,
            pipeline: Some(3),
            pipeline_depths: vec![2, 3],
            ..JobParams::new("(app demo)", 7)
        };
        assert_eq!(decode(&encode(&p)), Ok(p));
    }

    /// The depth rides the wire as a u64; a value a u32 cannot hold is a
    /// malformed job, not a depth to truncate.
    #[test]
    fn oversized_pipeline_depth_is_typed_error() {
        let too_deep = Some(u64::from(u32::MAX) + 2);
        let bytes = encode(&(
            (7u32, false),
            (too_deep, Vec::<u32>::new()),
            "(app demo)".to_string(),
        ));
        assert!(matches!(
            decode::<JobParams>(&bytes).unwrap_err(),
            NetError::Protocol(m) if m.contains("pipeline depth")
        ));
    }

    #[test]
    fn report_round_trip_with_error() {
        let rep = RankReport {
            rank: 2,
            error: Some(RuntimeError::PeerFailed { node: 2, peer: 0 }),
            deposits: vec![
                ((1, 0, 2), vec![9, 8, 7].into()),
                ((1, 1, 2), Payload::new()),
            ],
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
            events: vec![ProbeEvent::new(0.5, 2, EventKind::XferEnd, 0, 1)],
            stream: StreamStats {
                credits_issued: 12,
                credits_retired: 11,
            },
        };
        assert_eq!(decode(&encode(&rep)), Ok(rep));
    }
}
