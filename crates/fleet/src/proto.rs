//! The fleet control plane: every message the scheduler, the fleet
//! workers, and submitting clients exchange.
//!
//! All messages travel as [`FrameKind::Fleet`] frames whose payload leads
//! with a message-type byte; typed refusals travel as `Reject` frames
//! carrying a [`RejectReason`]. Every layout is declared once on the
//! [`sage_net::codec`] declarators (whose module docs give the recipe for
//! changing one), and the job description inside `Submit` and `Job` is the
//! one [`JobParams`] layout.
//!
//! Link lifecycles:
//!
//! * **scheduler ↔ fleet worker** (one control connection per worker):
//!   `Hello`/`HelloAck` (explicit version exchange; mismatch is a typed
//!   rejection on both ends), `Init`/`InitDone` (mesh establishment), then
//!   any number of `Job`/`JobResult` pairs interleaved, finally
//!   `Drain`/`DrainDone`.
//! * **client ↔ scheduler**: `Submit` → `Outcome` (or `Reject`),
//!   `Stats` → `StatsReply`, `DrainFleet` → `Drained`.

use crate::metrics::FleetStats;
use crate::sched::JobOutcome;
use sage_net::codec::{self, Reader, Wire, Writer};
use sage_net::{
    wire_enum, wire_struct, Frame, FrameKind, JobParams, NetError, RejectReason, WireError,
    PROTO_VERSION,
};
use sage_runtime::RankReport;
use std::io::{Read, Write};

/// A job submission, as the client hands it to the scheduler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitSpec {
    /// Control-protocol version the submitter speaks.
    pub proto_version: u32,
    /// Tenant name for per-tenant accounting (empty = anonymous).
    pub tenant: String,
    /// Ranks the job needs.
    pub ranks: u32,
    /// What to run and how.
    pub params: JobParams,
}

impl SubmitSpec {
    /// An anonymous submission of [`JobParams::new`]'s default job.
    pub fn new(model: impl Into<String>, ranks: u32, iterations: u32) -> SubmitSpec {
        SubmitSpec::with_params(JobParams::new(model, iterations), ranks)
    }

    /// An anonymous submission of `params` at this build's protocol version.
    pub fn with_params(params: JobParams, ranks: u32) -> SubmitSpec {
        SubmitSpec {
            proto_version: PROTO_VERSION,
            tenant: String::new(),
            ranks,
            params,
        }
    }
}

/// One rank assignment of a scheduled job, as shipped to a fleet worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetJob {
    /// Scheduler-assigned job id (the wire-header job namespace).
    pub job: u32,
    /// The logical rank this worker hosts for the job.
    pub rank: u32,
    /// Logical rank -> mesh index for every rank of the job.
    pub rank_map: Vec<u32>,
    /// What to run and how, exactly as submitted.
    pub params: JobParams,
}

/// A fleet control-plane message.
#[derive(Clone, Debug, PartialEq)]
pub enum FleetMsg {
    /// Scheduler -> worker: version offer.
    Hello {
        /// Control-protocol version the scheduler speaks.
        proto_version: u32,
    },
    /// Worker -> scheduler: version accepted; here is my data-plane
    /// listen address for the mesh.
    HelloAck {
        /// Control-protocol version the worker speaks.
        proto_version: u32,
        /// The worker's data-plane listen address.
        data_addr: String,
    },
    /// Scheduler -> worker: build the mesh.
    Init {
        /// This worker's mesh index.
        worker_index: u32,
        /// Data-plane addresses of all workers, indexed by mesh index.
        peers: Vec<String>,
        /// Heartbeat period override in milliseconds.
        heartbeat_ms: Option<u64>,
    },
    /// Worker -> scheduler: mesh is up, ready for jobs.
    InitDone {
        /// Echo of the worker's mesh index.
        worker_index: u32,
    },
    /// Scheduler -> worker: run one rank of a job.
    Job(FleetJob),
    /// Worker -> scheduler: one rank's report.
    JobResult {
        /// The job the report belongs to.
        job: u32,
        /// The rank report (errors travel in-band).
        report: RankReport,
    },
    /// Scheduler -> worker: finish in-flight jobs, then ack and exit 0.
    Drain,
    /// Worker -> scheduler: drained; how many jobs this worker completed.
    DrainDone {
        /// Jobs this worker completed over its lifetime.
        jobs_completed: u64,
    },
    /// Client -> scheduler: run this job.
    Submit(SubmitSpec),
    /// Scheduler -> client: the job's outcome. A `None` report means the
    /// worker hosting that rank died before reporting.
    Outcome(JobOutcome),
    /// Client -> scheduler: drain the whole fleet and shut down.
    DrainFleet,
    /// Scheduler -> client: fleet drained.
    Drained {
        /// Jobs completed across the fleet's lifetime.
        jobs_completed: u64,
    },
    /// Client -> scheduler: report metrics.
    Stats,
    /// Scheduler -> client: the metrics snapshot.
    StatsReply(FleetStats),
}

wire_struct!(FleetJob {
    job,
    rank,
    rank_map,
    params
});

wire_struct!(JobOutcome {
    job,
    wall_secs,
    reports
});

impl Wire for SubmitSpec {
    fn put(&self, w: &mut Writer) {
        self.proto_version.put(w);
        self.tenant.put(w);
        self.ranks.put(w);
        self.params.put(w);
    }
    /// Hand-written for the version peek: another revision lays the fields
    /// after `proto_version` out differently, and the version alone is what
    /// the scheduler refuses (typed) — so a foreign `Submit` decodes to its
    /// version and nothing else, whatever bytes follow.
    fn get(r: &mut Reader<'_>) -> Result<SubmitSpec, NetError> {
        let proto_version = u32::get(r)?;
        if proto_version != PROTO_VERSION {
            r.skip_rest();
            return Ok(SubmitSpec {
                proto_version,
                ..SubmitSpec::new("", 0, 0)
            });
        }
        Ok(SubmitSpec {
            proto_version,
            tenant: Wire::get(r)?,
            ranks: Wire::get(r)?,
            params: Wire::get(r)?,
        })
    }
}

wire_enum!(FleetMsg, "fleet message type" {
    1 => Hello { proto_version },
    2 => HelloAck { proto_version, data_addr },
    3 => Init { worker_index, peers, heartbeat_ms },
    4 => InitDone { worker_index },
    5 => Job(job),
    6 => JobResult { job, report },
    7 => Drain,
    8 => DrainDone { jobs_completed },
    9 => Submit(spec),
    10 => Outcome(outcome),
    11 => DrainFleet,
    12 => Drained { jobs_completed },
    13 => Stats,
    14 => StatsReply(stats),
});

impl FleetMsg {
    /// Serializes the message for a `Fleet` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decodes a `Fleet` frame payload.
    pub fn decode(buf: &[u8]) -> Result<FleetMsg, NetError> {
        codec::decode(buf)
    }
}

/// Control links carry no ranks, no job namespace and no sequence
/// discipline (each message is a request or a reply), so every header field
/// but the kind is 0.
fn send<W: Write>(w: &mut W, kind: FrameKind, payload: Vec<u8>) -> Result<(), NetError> {
    Frame {
        payload,
        ..Frame::control(kind, 0, 0, 0)
    }
    .write_to(w)
    .map_err(NetError::Wire)
}

/// Writes one fleet message as a `Fleet` frame.
pub fn send_fleet<W: Write>(w: &mut W, msg: &FleetMsg) -> Result<(), NetError> {
    send(w, FrameKind::Fleet, msg.encode())
}

/// Writes a typed refusal as a `Reject` frame.
pub fn send_reject<W: Write>(w: &mut W, reason: RejectReason) -> Result<(), NetError> {
    send(w, FrameKind::Reject, reason.encode())
}

/// Reads one fleet message off a control stream.
///
/// `Reject` frames become the typed errors they carry (a version-mismatch
/// reason surfaces as [`NetError::VersionMismatch`] with `ours`/`theirs`
/// seen from this side). A clean EOF surfaces as
/// `NetError::Wire(WireError::Truncated)` — callers treat it as the peer
/// leaving.
pub fn read_fleet<R: Read>(r: &mut R) -> Result<FleetMsg, NetError> {
    let frame = Frame::read_from(r).map_err(NetError::Wire)?;
    match frame.kind {
        FrameKind::Fleet => FleetMsg::decode(&frame.payload),
        FrameKind::Reject => Err(match RejectReason::decode(&frame.payload)? {
            RejectReason::VersionMismatch { ours, theirs } => NetError::VersionMismatch {
                ours: theirs,
                theirs: ours,
            },
            reason => NetError::Rejected(reason),
        }),
        other => Err(NetError::Protocol(format!(
            "expected fleet frame, got {other:?}"
        ))),
    }
}

/// Whether a control-read error is a clean connection close.
pub fn is_eof(e: &NetError) -> bool {
    matches!(e, NetError::Wire(WireError::Truncated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TenantStats;
    use sage_fabric::NodeMetrics;

    fn report(rank: u32) -> RankReport {
        RankReport {
            rank,
            error: None,
            deposits: vec![((1, 0, 0), vec![1, 2, 3].into())],
            wall_secs: 0.5,
            metrics: NodeMetrics {
                messages_sent: 2,
                ..NodeMetrics::default()
            },
            links: Vec::new(),
            events: Vec::new(),
            stream: sage_runtime::StreamStats::default(),
        }
    }

    #[test]
    fn all_messages_round_trip() {
        let msgs = vec![
            FleetMsg::Hello { proto_version: 2 },
            FleetMsg::HelloAck {
                proto_version: 2,
                data_addr: "127.0.0.1:9000".into(),
            },
            FleetMsg::Init {
                worker_index: 1,
                peers: vec!["a:1".into(), "b:2".into()],
                heartbeat_ms: Some(50),
            },
            FleetMsg::InitDone { worker_index: 1 },
            FleetMsg::Job(FleetJob {
                job: 7,
                rank: 1,
                rank_map: vec![2, 0],
                params: JobParams {
                    probes: true,
                    pipeline: Some(4),
                    pipeline_depths: vec![4, 1],
                    ..JobParams::new("(app demo)", 8)
                },
            }),
            FleetMsg::JobResult {
                job: 7,
                report: report(1),
            },
            FleetMsg::Drain,
            FleetMsg::DrainDone { jobs_completed: 9 },
            FleetMsg::Submit(SubmitSpec::new("(app demo)", 2, 8)),
            FleetMsg::Outcome(JobOutcome {
                job: 7,
                wall_secs: 1.25,
                reports: vec![Some(report(0)), None],
            }),
            FleetMsg::DrainFleet,
            FleetMsg::Drained { jobs_completed: 9 },
            FleetMsg::Stats,
            FleetMsg::StatsReply(FleetStats {
                workers: 4,
                workers_live: 3,
                accepted: 10,
                completed: 8,
                failed: 1,
                rejected_queue_full: 1,
                rejected_insufficient: 0,
                rejected_draining: 0,
                rejected_version: 0,
                queue_depth: 1,
                queue_high_water: 5,
                active: 1,
                tenants: vec![TenantStats {
                    tenant: "alice".into(),
                    accepted: 10,
                    completed: 8,
                    failed: 1,
                    rejected: 1,
                }],
            }),
        ];
        for msg in msgs {
            assert_eq!(FleetMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn reject_frames_surface_typed_errors() {
        let mut buf = Vec::new();
        send_reject(&mut buf, RejectReason::QueueFull { depth: 4 }).unwrap();
        let err = read_fleet(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(
            err,
            NetError::Rejected(RejectReason::QueueFull { depth: 4 })
        );

        let mut buf = Vec::new();
        send_reject(
            &mut buf,
            RejectReason::VersionMismatch { ours: 2, theirs: 1 },
        )
        .unwrap();
        let err = read_fleet(&mut std::io::Cursor::new(buf)).unwrap_err();
        // ours/theirs flip to this side's perspective.
        assert_eq!(err, NetError::VersionMismatch { ours: 1, theirs: 2 });
    }

    #[test]
    fn eof_is_detectable() {
        let err = read_fleet(&mut std::io::Cursor::new(Vec::new())).unwrap_err();
        assert!(is_eof(&err));
    }
}
