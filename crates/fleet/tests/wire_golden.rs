//! Byte-exact goldens for every control-plane layout and the frame header.
//!
//! `fixtures/wire_v8.hex` holds one `name hex` line per encoding. It was
//! regenerated from `wire_v6.hex` (itself generated on the tree *before* the
//! layouts became one-line declarations) when v7 added `RankReport::stream`
//! — only the lines carrying a report or a protocol version moved —, again
//! when `wire::VERSION` 3 changed the frame checksum — only the two
//! `frame_*` lines moved —, and when v8 dropped two `JobParams` switches and
//! six event kinds — only the lines carrying a job, a report or a protocol
//! version moved. It must not change while `PROTO_VERSION` and
//! `wire::VERSION` stay put: a failure here means an edit changed bytes on
//! the wire. To do that on purpose, follow the recipe in
//! `sage_net::codec`'s module docs; the regeneration step is
//! `UPDATE_GOLDEN=1 cargo test -p sage-fleet --test wire_golden`.
//!
//! `fixtures/submit_retired.hex` holds the `Submit` payload of every retired
//! protocol revision, as that revision's own client encoded it. Those lines
//! are kept forever: an old client must always draw a typed version
//! mismatch, never a parse error from somewhere inside a layout it never
//! spoke.
//!
//! `fixtures/frame_retired.hex` does the same for the frame header: the
//! golden frames as each retired `wire::VERSION` laid them out (`vN_name`),
//! which every reading door must refuse by version.

use sage_fabric::{LinkMetrics, NodeMetrics};
use sage_fleet::proto::{read_fleet, send_fleet};
use sage_fleet::{
    drain_fleet, serve_sched, FleetJob, FleetMsg, FleetStats, JobParams, SchedConfig, Scheduler,
    SubmitSpec, TenantStats,
};
use sage_net::wire::{write_parts, HEADER_LEN};
use sage_net::{Frame, FrameKind, NetError, RejectReason, WireError, PROTO_VERSION};
use sage_runtime::{RankReport, RuntimeError, StreamStats};
use sage_visualizer::{EventKind, ProbeEvent};
use std::io::Write;
use std::net::{TcpListener, TcpStream};

/// One thing that crosses the wire, with the codec entry points it uses.
#[derive(Clone, Debug, PartialEq)]
enum Golden {
    Msg(Box<FleetMsg>),
    Reject(RejectReason),
    Frame(Frame),
}

impl Golden {
    fn encode(&self) -> Vec<u8> {
        match self {
            Golden::Msg(m) => m.encode(),
            Golden::Reject(r) => r.encode(),
            Golden::Frame(f) => f.encode().unwrap_or_else(|e| panic!("frame encodes: {e}")),
        }
    }

    /// Decodes `bytes` with the decoder of `self`'s own type.
    fn decode_like(&self, bytes: &[u8]) -> Result<Golden, NetError> {
        Ok(match self {
            Golden::Msg(_) => Golden::Msg(Box::new(FleetMsg::decode(bytes)?)),
            Golden::Reject(_) => Golden::Reject(RejectReason::decode(bytes)?),
            Golden::Frame(_) => {
                let (frame, used) = Frame::decode(bytes)?;
                assert_eq!(used, bytes.len());
                Golden::Frame(frame)
            }
        })
    }
}

const KINDS: [EventKind; 8] = [
    EventKind::FnStart,
    EventKind::FnEnd,
    EventKind::XferStart,
    EventKind::XferEnd,
    EventKind::SourceEmit,
    EventKind::SinkAbsorb,
    EventKind::XferRetry,
    EventKind::Fault,
];

/// A report exercising every record it embeds: all 8 event kinds, a
/// non-default value in each shipped `NodeMetrics` field, a link row, an
/// empty and a non-empty deposit, and distinct credit counters.
fn report(error: Option<RuntimeError>) -> RankReport {
    RankReport {
        rank: 3,
        error,
        deposits: vec![
            ((1, 0, 2), vec![9, 8, 7].into()),
            ((1, 1, 2), Vec::new().into()),
        ],
        wall_secs: 0.25,
        metrics: NodeMetrics {
            messages_sent: 0x0102_0304_0506_0708,
            bytes_sent: 2,
            messages_received: 3,
            bytes_received: 4,
            retries: 5,
            faults_observed: 6,
            mem_high_water: 4096,
            ..NodeMetrics::default()
        },
        links: vec![LinkMetrics {
            src: 3,
            dst: 0,
            messages: 5,
            bytes: 100,
        }],
        events: KINDS
            .iter()
            .enumerate()
            .map(|(i, &kind)| ProbeEvent::new(0.5 * i as f64, 3, kind, i as u32, 1))
            .collect(),
        stream: StreamStats {
            credits_issued: 12,
            credits_retired: 11,
        },
    }
}

/// The fixture line name of an error; exhaustive, so a new variant fails to
/// compile here until it has a golden.
fn error_name(e: &RuntimeError) -> &'static str {
    match e {
        RuntimeError::UnknownFunction { .. } => "unknown_function",
        RuntimeError::Kernel { .. } => "kernel",
        RuntimeError::BadProgram(_) => "bad_program",
        RuntimeError::NodeFailed { .. } => "node_failed",
        RuntimeError::PeerFailed { .. } => "peer_failed",
        RuntimeError::TransferFailed { .. } => "transfer_failed",
        RuntimeError::Timeout { .. } => "timeout",
        RuntimeError::Assembly { .. } => "assembly",
        RuntimeError::RaceDetected { .. } => "race_detected",
    }
}

fn runtime_errors() -> Vec<RuntimeError> {
    vec![
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
        RuntimeError::RaceDetected {
            port: "fft.out".into(),
            first: "write by t1".into(),
            second: "read by t2".into(),
        },
    ]
}

fn streaming_params() -> JobParams {
    JobParams {
        probes: true,
        pipeline: Some(4),
        pipeline_depths: vec![4, 1],
        ..JobParams::new("(app demo)", 8)
    }
}

/// Every layout, in fixture order.
fn golden_set() -> Vec<(String, Golden)> {
    let mut set: Vec<(String, Golden)> = Vec::new();
    let mut msg = |name: &str, m: FleetMsg| set.push((name.to_string(), Golden::Msg(Box::new(m))));
    msg("hello", FleetMsg::Hello { proto_version: 8 });
    msg(
        "hello_ack",
        FleetMsg::HelloAck {
            proto_version: 8,
            data_addr: "127.0.0.1:9000".into(),
        },
    );
    msg(
        "init_heartbeat_some",
        FleetMsg::Init {
            worker_index: 1,
            peers: vec!["a:1".into(), "b:2".into()],
            heartbeat_ms: Some(50),
        },
    );
    msg(
        "init_heartbeat_none",
        FleetMsg::Init {
            worker_index: 0,
            peers: Vec::new(),
            heartbeat_ms: None,
        },
    );
    msg("init_done", FleetMsg::InitDone { worker_index: 1 });
    msg(
        "job_streaming",
        FleetMsg::Job(FleetJob {
            job: 7,
            rank: 1,
            rank_map: vec![2, 0],
            params: streaming_params(),
        }),
    );
    msg(
        "job_result_ok",
        FleetMsg::JobResult {
            job: 7,
            report: report(None),
        },
    );
    for e in runtime_errors() {
        msg(
            &format!("job_result_{}", error_name(&e)),
            FleetMsg::JobResult {
                job: 7,
                report: report(Some(e)),
            },
        );
    }
    msg("drain", FleetMsg::Drain);
    msg("drain_done", FleetMsg::DrainDone { jobs_completed: 9 });
    let mut lock_step = SubmitSpec::new("(app demo)", 2, 8);
    lock_step.tenant = "alice".into();
    msg("submit_lock_step", FleetMsg::Submit(lock_step));
    msg(
        "submit_streaming",
        FleetMsg::Submit(SubmitSpec::with_params(streaming_params(), 4)),
    );
    msg(
        "outcome_reports_some_none",
        FleetMsg::Outcome(sage_fleet::JobOutcome {
            job: 7,
            wall_secs: 1.25,
            reports: vec![Some(report(None)), None],
        }),
    );
    msg("drain_fleet", FleetMsg::DrainFleet);
    msg("drained", FleetMsg::Drained { jobs_completed: 9 });
    msg("stats", FleetMsg::Stats);
    msg(
        "stats_reply",
        FleetMsg::StatsReply(FleetStats {
            workers: 4,
            workers_live: 3,
            accepted: 10,
            completed: 8,
            failed: 1,
            rejected_queue_full: 2,
            rejected_insufficient: 3,
            rejected_draining: 4,
            rejected_version: 5,
            queue_depth: 1,
            queue_high_water: 6,
            active: 1,
            tenants: vec![
                TenantStats::default(),
                TenantStats {
                    tenant: "alice".into(),
                    accepted: 10,
                    completed: 8,
                    failed: 1,
                    rejected: 14,
                },
            ],
        }),
    );
    for (name, reason) in [
        (
            "reject_version_mismatch",
            RejectReason::VersionMismatch { ours: 8, theirs: 7 },
        ),
        ("reject_queue_full", RejectReason::QueueFull { depth: 128 }),
        (
            "reject_insufficient_workers",
            RejectReason::InsufficientWorkers { want: 8, have: 4 },
        ),
        ("reject_draining", RejectReason::Draining),
    ] {
        set.push((name.to_string(), Golden::Reject(reason)));
    }
    set.push((
        "frame_data_job9".to_string(),
        Golden::Frame(Frame::data(2, 5, 0xdead_beef, 42, vec![1, 2, 3, 4, 5]).in_job(9)),
    ));
    set.push((
        "frame_heartbeat_job77".to_string(),
        Golden::Frame(Frame::control(FrameKind::Heartbeat, 3, 1, 11).in_job(77)),
    ));
    set
}

fn fixture_path(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Reads a `name hex` fixture into `(name, bytes)` rows.
fn read_fixture(name: &str) -> Vec<(String, Vec<u8>)> {
    let path = fixture_path(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    text.lines()
        .map(|line| {
            let Some((name, hex)) = line.split_once(' ') else {
                panic!("{path}: not a `name hex` line: {line}");
            };
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| match u8::from_str_radix(&hex[i..i + 2], 16) {
                    Ok(byte) => byte,
                    Err(e) => panic!("{path}: {name}: {e}"),
                })
                .collect();
            (name.to_string(), bytes)
        })
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_layout_matches_its_golden_bytes_and_decodes_back() {
    let set = golden_set();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let text: String = set
            .iter()
            .map(|(name, g)| format!("{name} {}\n", hex(&g.encode())))
            .collect();
        std::fs::write(fixture_path("wire_v8.hex"), text).expect("write fixture");
        return;
    }
    let fixture = read_fixture("wire_v8.hex");
    assert_eq!(
        fixture.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        set.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "fixture lines and golden set disagree"
    );
    for ((name, golden), (_, bytes)) in set.iter().zip(&fixture) {
        assert_eq!(
            hex(&golden.encode()),
            hex(bytes),
            "{name}: the encoding changed; a layout edit must bump PROTO_VERSION"
        );
        assert_eq!(
            &golden.decode_like(bytes).expect(name),
            golden,
            "{name}: the fixture decodes to a different value"
        );
    }
}

/// The stream entry points lay a frame out exactly as `Frame::encode` does.
#[test]
fn every_frame_writer_and_reader_agrees_with_the_golden_header() {
    for (name, bytes) in read_fixture("wire_v8.hex") {
        let Some(kind) = name.strip_prefix("frame_") else {
            continue;
        };
        let (f, _) = Frame::decode(&bytes).expect("golden frame decodes");
        assert_ne!(f.job, 0, "{name}: the golden frames sit in a job namespace");
        let mut out = Vec::new();
        f.write_to(&mut out).expect("write_to");
        assert_eq!(out, bytes, "{name}: write_to");
        out.clear();
        write_parts(
            &mut out, f.kind, f.tag, f.src, f.dst, f.job, f.seq, &f.payload,
        )
        .expect("write_parts");
        assert_eq!(out, bytes, "{name}: write_parts");
        assert_eq!(Frame::read_from(&mut &bytes[..]).expect("read_from"), f);
        if kind.starts_with("heartbeat") {
            assert_eq!(bytes.len(), HEADER_LEN);
        }
    }
}

/// A frame from a retired wire version is refused *by version* at every
/// reading door — not by a checksum its speaker computed differently, and
/// not after waiting for a payload: the header alone draws the verdict.
#[test]
fn frame_from_a_retired_wire_version_is_refused_by_version() {
    for (name, bytes) in read_fixture("frame_retired.hex") {
        let version = name[1..].split('_').next().and_then(|v| v.parse().ok());
        let refused = WireError::BadVersion(version.expect("a `vN_name` line"));
        assert_eq!(Frame::decode(&bytes).unwrap_err(), refused, "{name}");
        let read = Frame::read_from(&mut &bytes[..]).unwrap_err();
        assert_eq!(read, refused, "{name}");
        let fleet = read_fleet(&mut &bytes[..]).unwrap_err();
        assert_eq!(fleet, NetError::Wire(refused.clone()), "{name}");

        // Over a socket that stays open with the payload withheld.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let old = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (conn, _) = listener.accept().expect("accept");
        (&old).write_all(&bytes[..HEADER_LEN]).expect("send header");
        let patience = std::time::Duration::from_secs(10);
        conn.set_read_timeout(Some(patience)).expect("timeout");
        let fleet = read_fleet(&mut &conn).unwrap_err();
        assert_eq!(fleet, NetError::Wire(refused), "{name}: on a socket");
    }
}

fn protocol_message(r: Result<Golden, NetError>, what: &str) -> String {
    match r {
        Err(NetError::Protocol(m)) => m,
        other => panic!("{what}: expected a protocol error, got {other:?}"),
    }
}

/// Decoding is total: whatever arrives is a value or a typed error.
#[test]
fn every_prefix_trailing_byte_and_unknown_code_is_a_typed_error() {
    for (name, golden) in golden_set() {
        // Frames have typed errors of their own (`wire.rs`, `wire_props.rs`).
        if matches!(golden, Golden::Frame(_)) {
            continue;
        }
        let bytes = golden.encode();
        assert_eq!(golden.decode_like(&bytes).expect(&name), golden);
        for cut in 0..bytes.len() {
            let m = protocol_message(golden.decode_like(&bytes[..cut]), &name);
            assert!(m.contains("truncated"), "{name} cut at {cut}: {m}");
        }
        let mut long = bytes.clone();
        long.push(0);
        let m = protocol_message(golden.decode_like(&long), &name);
        assert_eq!(m, "trailing bytes after payload", "{name}");
    }

    // An unknown enum code names the enum it was read for. The byte to
    // poison is found by encoding two values that differ only in that code.
    let result = |error, kind| {
        let mut rep = report(error);
        rep.events = vec![ProbeEvent::new(0.5, 3, kind, 0, 1)];
        Golden::Msg(Box::new(FleetMsg::JobResult {
            job: 7,
            report: rep,
        }))
    };
    let timeout = RuntimeError::Timeout { node: 1, peer: 2 };
    let peer_failed = RuntimeError::PeerFailed { node: 1, peer: 2 };
    let base = result(Some(timeout.clone()), EventKind::FnStart);
    for (what, a, b) in [
        (
            "fleet message type",
            Golden::Msg(Box::new(FleetMsg::Drain)),
            Golden::Msg(Box::new(FleetMsg::DrainFleet)),
        ),
        (
            "reject reason",
            Golden::Reject(RejectReason::VersionMismatch { ours: 8, theirs: 4 }),
            Golden::Reject(RejectReason::InsufficientWorkers { want: 8, have: 4 }),
        ),
        (
            "error code",
            base.clone(),
            result(Some(peer_failed), EventKind::FnStart),
        ),
        (
            "event kind",
            base.clone(),
            result(Some(timeout), EventKind::FnEnd),
        ),
    ] {
        let (mut bytes, other) = (a.encode(), b.encode());
        let differing: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] != other[i]).collect();
        let [at] = differing[..] else {
            panic!("{what}: the pair differs at {differing:?}, not in one code byte");
        };
        bytes[at] = 99;
        let m = protocol_message(a.decode_like(&bytes), what);
        assert!(m.contains(what) && m.contains("99"), "{what}: {m}");
    }
}

/// A worker that speaks just enough of the protocol for a scheduler to
/// come up and drain: no job ever reaches it.
fn stub_worker(listener: TcpListener) -> Result<(), NetError> {
    let (conn, _) = listener.accept()?;
    loop {
        let reply = match read_fleet(&mut &conn)? {
            FleetMsg::Hello { proto_version } => FleetMsg::HelloAck {
                proto_version,
                data_addr: "127.0.0.1:0".into(),
            },
            FleetMsg::Init { worker_index, .. } => FleetMsg::InitDone { worker_index },
            // A drained daemon exits: the scheduler's reader sees the close.
            FleetMsg::Drain => {
                return send_fleet(&mut &conn, &FleetMsg::DrainDone { jobs_completed: 0 });
            }
            other => panic!("stub worker got {other:?}"),
        };
        send_fleet(&mut &conn, &reply)?;
    }
}

/// Every retired revision's `Submit` decodes to its version alone, and that
/// version is refused by name at both doors: `Scheduler::submit` and the
/// client socket.
#[test]
fn submit_from_a_retired_revision_decodes_to_its_version() {
    let retired = read_fixture("submit_retired.hex");
    let versions: Vec<String> = (2..PROTO_VERSION).map(|v| format!("v{v}")).collect();
    assert_eq!(
        retired.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
        versions,
        "one fixture line per retired revision (add the outgoing layout when PROTO_VERSION moves)"
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub worker");
    let worker_addr = listener.local_addr().expect("stub address").to_string();
    let worker = std::thread::spawn(move || stub_worker(listener));
    let sched = Scheduler::connect(&[worker_addr], SchedConfig::default()).expect("scheduler");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scheduler");
    let sched_addr = listener
        .local_addr()
        .expect("scheduler address")
        .to_string();
    let server = {
        let sched = sched.clone();
        std::thread::spawn(move || serve_sched(listener, sched))
    };

    for (theirs, (name, payload)) in (2..PROTO_VERSION).zip(&retired) {
        let spec = match FleetMsg::decode(payload).expect(name) {
            FleetMsg::Submit(spec) => spec,
            other => panic!("{name} decoded to {other:?}"),
        };
        let version_only = SubmitSpec {
            proto_version: theirs,
            ..SubmitSpec::new("", 0, 0)
        };
        assert_eq!(spec, version_only, "{name}");
        let mismatch = NetError::VersionMismatch {
            ours: PROTO_VERSION,
            theirs,
        };
        assert_eq!(sched.submit(&spec).unwrap_err(), mismatch, "{name}");

        // The old client's own bytes, over a socket.
        let conn = TcpStream::connect(&sched_addr).expect("reach scheduler");
        Frame {
            kind: FrameKind::Fleet,
            tag: 0,
            src: 0,
            dst: 0,
            job: 0,
            seq: 0,
            payload: payload.clone(),
        }
        .write_to(&mut &conn)
        .expect("send retired submit");
        let reply = Frame::read_from(&mut &conn).expect("scheduler replies");
        assert_eq!(reply.kind, FrameKind::Reject, "{name}");
        assert_eq!(
            RejectReason::decode(&reply.payload).expect("reject payload"),
            RejectReason::VersionMismatch {
                ours: PROTO_VERSION,
                theirs
            },
            "{name}"
        );
    }

    let refused = 2 * u64::from(PROTO_VERSION - 2);
    assert_eq!(sched.stats().rejected_version, refused);
    assert_eq!(drain_fleet(&sched_addr).expect("drain"), 0);
    server
        .join()
        .expect("scheduler thread")
        .expect("serve_sched returns clean");
    worker
        .join()
        .expect("stub worker thread")
        .expect("stub worker saw a clean session");
}
