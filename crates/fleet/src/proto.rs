//! The fleet control plane: every message the scheduler, the fleet
//! workers, and submitting clients exchange.
//!
//! All messages travel as [`FrameKind::Fleet`] frames whose payload leads
//! with a message-type byte; typed refusals travel as `Reject` frames
//! carrying a [`RejectReason`]. Codec primitives come from
//! [`sage_net::codec`], and the job description inside `Submit` and `Job` is
//! the one [`JobParams`] codec.
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
use sage_net::codec::{Reader, Writer};
use sage_net::{
    Frame, FrameKind, JobParams, NetError, RankReport, RejectReason, WireError, PROTO_VERSION,
};
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
    /// Scheduler -> client: the job's merged outcome. A `None` report
    /// means the worker hosting that rank died before reporting.
    Outcome {
        /// Scheduler-assigned job id.
        job: u32,
        /// Wall seconds from dispatch to completion.
        wall_secs: f64,
        /// Per-rank reports, indexed by logical rank.
        reports: Vec<Option<RankReport>>,
    },
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

impl FleetMsg {
    /// Serializes the message for a `Fleet` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            FleetMsg::Hello { proto_version } => {
                w.u8(1);
                w.u32(*proto_version);
            }
            FleetMsg::HelloAck {
                proto_version,
                data_addr,
            } => {
                w.u8(2);
                w.u32(*proto_version);
                w.string(data_addr);
            }
            FleetMsg::Init {
                worker_index,
                peers,
                heartbeat_ms,
            } => {
                w.u8(3);
                w.u32(*worker_index);
                w.seq(peers, |w, p| w.string(p));
                w.opt_u64(*heartbeat_ms);
            }
            FleetMsg::InitDone { worker_index } => {
                w.u8(4);
                w.u32(*worker_index);
            }
            FleetMsg::Job(j) => {
                w.u8(5);
                w.u32(j.job);
                w.u32(j.rank);
                w.seq(&j.rank_map, |w, &m| w.u32(m));
                j.params.encode_into(&mut w);
            }
            FleetMsg::JobResult { job, report } => {
                w.u8(6);
                w.u32(*job);
                report.encode_into(&mut w);
            }
            FleetMsg::Drain => w.u8(7),
            FleetMsg::DrainDone { jobs_completed } => {
                w.u8(8);
                w.u64(*jobs_completed);
            }
            FleetMsg::Submit(s) => {
                w.u8(9);
                w.u32(s.proto_version);
                w.string(&s.tenant);
                w.u32(s.ranks);
                s.params.encode_into(&mut w);
            }
            FleetMsg::Outcome {
                job,
                wall_secs,
                reports,
            } => {
                w.u8(10);
                w.u32(*job);
                w.f64(*wall_secs);
                w.seq(reports, |w, r| match r {
                    None => w.u8(0),
                    Some(rep) => {
                        w.u8(1);
                        rep.encode_into(w);
                    }
                });
            }
            FleetMsg::DrainFleet => w.u8(11),
            FleetMsg::Drained { jobs_completed } => {
                w.u8(12);
                w.u64(*jobs_completed);
            }
            FleetMsg::Stats => w.u8(13),
            FleetMsg::StatsReply(s) => {
                w.u8(14);
                s.encode_into(&mut w);
            }
        }
        w.0
    }

    /// Decodes a `Fleet` frame payload.
    pub fn decode(buf: &[u8]) -> Result<FleetMsg, NetError> {
        let mut r = Reader::new(buf);
        let msg = match r.u8()? {
            1 => FleetMsg::Hello {
                proto_version: r.u32()?,
            },
            2 => FleetMsg::HelloAck {
                proto_version: r.u32()?,
                data_addr: r.string()?,
            },
            3 => FleetMsg::Init {
                worker_index: r.u32()?,
                peers: r.seq(|r| r.string())?,
                heartbeat_ms: r.opt_u64()?,
            },
            4 => FleetMsg::InitDone {
                worker_index: r.u32()?,
            },
            5 => FleetMsg::Job(FleetJob {
                job: r.u32()?,
                rank: r.u32()?,
                rank_map: r.seq(|r| r.u32())?,
                params: JobParams::decode_from(&mut r)?,
            }),
            6 => FleetMsg::JobResult {
                job: r.u32()?,
                report: RankReport::decode_from(&mut r)?,
            },
            7 => FleetMsg::Drain,
            8 => FleetMsg::DrainDone {
                jobs_completed: r.u64()?,
            },
            9 => {
                let proto_version = r.u32()?;
                if proto_version != PROTO_VERSION {
                    // Another revision lays the remaining fields out
                    // differently; the version alone is what the scheduler
                    // refuses (typed), so carry only that.
                    return Ok(FleetMsg::Submit(SubmitSpec {
                        proto_version,
                        ..SubmitSpec::new("", 0, 0)
                    }));
                }
                FleetMsg::Submit(SubmitSpec {
                    proto_version,
                    tenant: r.string()?,
                    ranks: r.u32()?,
                    params: JobParams::decode_from(&mut r)?,
                })
            }
            10 => FleetMsg::Outcome {
                job: r.u32()?,
                wall_secs: r.f64()?,
                reports: r.seq(|r| {
                    Ok(match r.u8()? {
                        0 => None,
                        _ => Some(RankReport::decode_from(r)?),
                    })
                })?,
            },
            11 => FleetMsg::DrainFleet,
            12 => FleetMsg::Drained {
                jobs_completed: r.u64()?,
            },
            13 => FleetMsg::Stats,
            14 => FleetMsg::StatsReply(FleetStats::decode_from(&mut r)?),
            other => {
                return Err(NetError::Protocol(format!(
                    "bad fleet message type {other}"
                )));
            }
        };
        r.done()?;
        Ok(msg)
    }
}

/// Writes one fleet message as a `Fleet` frame. Control links carry no
/// sequence discipline (each message is a request or a reply), so seq is
/// always 0.
pub fn send_fleet<W: Write>(w: &mut W, msg: &FleetMsg) -> Result<(), NetError> {
    Frame {
        kind: FrameKind::Fleet,
        tag: 0,
        src: 0,
        dst: 0,
        job: 0,
        seq: 0,
        payload: msg.encode(),
    }
    .write_to(w)
    .map_err(NetError::Wire)
}

/// Writes a typed refusal as a `Reject` frame.
pub fn send_reject<W: Write>(w: &mut W, reason: RejectReason) -> Result<(), NetError> {
    Frame {
        kind: FrameKind::Reject,
        tag: 0,
        src: 0,
        dst: 0,
        job: 0,
        seq: 0,
        payload: reason.encode(),
    }
    .write_to(w)
    .map_err(NetError::Wire)
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
            deposits: vec![((1, 0, 0), vec![1, 2, 3])],
            wall_secs: 0.5,
            metrics: NodeMetrics {
                messages_sent: 2,
                ..NodeMetrics::default()
            },
            links: Vec::new(),
            events: Vec::new(),
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
                    optimized: true,
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
            FleetMsg::Outcome {
                job: 7,
                wall_secs: 1.25,
                reports: vec![Some(report(0)), None],
            },
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

    /// A v5 client's `Submit` carries only `optimized` between the
    /// iteration count and the model; the decoder must hand the scheduler
    /// its version, not choke on the layout.
    #[test]
    fn submit_from_the_previous_revision_decodes_to_its_version() {
        let mut w = Writer::new();
        w.u8(9);
        w.u32(PROTO_VERSION - 1);
        w.string("tenant");
        w.u32(2);
        w.u32(8);
        w.u8(0);
        w.string("(app demo)");
        match FleetMsg::decode(&w.0).unwrap() {
            FleetMsg::Submit(spec) => assert_eq!(spec.proto_version, PROTO_VERSION - 1),
            other => panic!("decoded {other:?}"),
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
