//! Typed errors for the network subsystem.

use crate::codec;
use crate::wire::WireError;
use crate::wire_enum;
use sage_runtime::RuntimeError;

/// Why an endpoint refused a job or a handshake. Travels on the wire in a
/// `Reject` frame so both sides report the same typed cause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The two endpoints speak different control-protocol versions.
    VersionMismatch {
        /// Version the rejecting side speaks.
        ours: u32,
        /// Version the peer offered.
        theirs: u32,
    },
    /// The scheduler's bounded job queue is full.
    QueueFull {
        /// Queue depth at rejection time (== the configured bound).
        depth: u32,
    },
    /// The job asks for more ranks than the fleet has workers.
    InsufficientWorkers {
        /// Ranks the job requested.
        want: u32,
        /// Workers the fleet has.
        have: u32,
    },
    /// The fleet is draining: in-flight jobs finish, new ones are refused.
    Draining,
}

wire_enum!(RejectReason, "reject reason" {
    1 => VersionMismatch { ours, theirs },
    2 => QueueFull { depth },
    3 => InsufficientWorkers { want, have },
    4 => Draining,
});

impl RejectReason {
    /// Serializes the reason for a `Reject` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decodes a `Reject` frame payload.
    pub fn decode(buf: &[u8]) -> Result<RejectReason, NetError> {
        codec::decode(buf)
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::VersionMismatch { ours, theirs } => {
                write!(
                    f,
                    "protocol version mismatch (we speak v{ours}, peer offered v{theirs})"
                )
            }
            RejectReason::QueueFull { depth } => {
                write!(f, "job queue full at depth {depth}")
            }
            RejectReason::InsufficientWorkers { want, have } => {
                write!(f, "job wants {want} ranks but fleet has {have} workers")
            }
            RejectReason::Draining => write!(f, "fleet is draining"),
        }
    }
}

/// An error from the distributed transport, worker, launcher, or fleet.
#[derive(Clone, Debug, PartialEq)]
pub enum NetError {
    /// A socket operation failed (message carries the OS detail).
    Io(String),
    /// A frame failed to decode (bad magic/version/kind, checksum
    /// mismatch, oversized payload, truncation).
    Wire(WireError),
    /// A peer violated the connection protocol (wrong handshake, frame out
    /// of sequence, unexpected kind).
    Protocol(String),
    /// The two endpoints speak different control-protocol versions —
    /// caught by the explicit version field in the Hello/Job handshake
    /// instead of surfacing as a banner or codec parse failure.
    VersionMismatch {
        /// Version this end speaks.
        ours: u32,
        /// Version the peer offered.
        theirs: u32,
    },
    /// The far end refused the job with a typed reason.
    Rejected(RejectReason),
    /// A worker process died or dropped its control connection before
    /// reporting a result.
    WorkerDied {
        /// The rank whose process is gone.
        rank: u32,
    },
    /// The run itself failed on some rank; carries the merged root cause.
    Runtime(RuntimeError),
    /// The job description was unusable (model parse/lint/codegen failure).
    BadJob(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(m) => write!(f, "socket error: {m}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol violation: {m}"),
            NetError::VersionMismatch { ours, theirs } => {
                write!(
                    f,
                    "protocol version mismatch: we speak v{ours}, peer offered v{theirs}"
                )
            }
            NetError::Rejected(r) => write!(f, "job rejected: {r}"),
            NetError::WorkerDied { rank } => {
                write!(f, "worker for rank {rank} died before reporting")
            }
            NetError::Runtime(e) => write!(f, "distributed run failed: {e}"),
            NetError::BadJob(m) => write!(f, "bad job: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_reasons_round_trip() {
        for reason in [
            RejectReason::VersionMismatch { ours: 2, theirs: 1 },
            RejectReason::QueueFull { depth: 128 },
            RejectReason::InsufficientWorkers { want: 8, have: 4 },
            RejectReason::Draining,
        ] {
            assert_eq!(RejectReason::decode(&reason.encode()).unwrap(), reason);
        }
    }

    #[test]
    fn bad_reject_tag_is_typed() {
        assert!(matches!(
            RejectReason::decode(&[99]).unwrap_err(),
            NetError::Protocol(_)
        ));
    }
}
