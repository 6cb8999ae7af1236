//! Client-side helpers for talking to a running `sage sched`: submit a
//! job, drain the fleet, fetch a metrics snapshot.

use crate::metrics::FleetStats;
use crate::proto::{read_fleet, send_fleet, FleetMsg, SubmitSpec};
use crate::sched::JobOutcome;
use sage_net::NetError;
use std::net::TcpStream;

/// One request/reply exchange with the scheduler at `addr`, on a
/// connection of its own. Typed refusals come back as the matching
/// [`NetError`] (see [`read_fleet`]).
fn request(addr: &str, msg: &FleetMsg) -> Result<FleetMsg, NetError> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| NetError::Io(format!("cannot reach scheduler {addr}: {e}")))?;
    stream.set_nodelay(true)?;
    send_fleet(&mut &stream, msg)?;
    read_fleet(&mut &stream)
}

/// Submits one job to the scheduler at `addr` and blocks until its
/// outcome. Typed rejections (`QueueFull`, `InsufficientWorkers`,
/// `Draining`, `VersionMismatch`) come back as the matching [`NetError`].
pub fn submit(addr: &str, spec: &SubmitSpec) -> Result<JobOutcome, NetError> {
    match request(addr, &FleetMsg::Submit(spec.clone()))? {
        FleetMsg::Outcome(outcome) => Ok(outcome),
        other => Err(NetError::Protocol(format!(
            "expected outcome, got {other:?}"
        ))),
    }
}

/// Drains the fleet behind the scheduler at `addr`: in-flight and queued
/// jobs finish, workers ack and exit 0, the scheduler exits 0. Returns the
/// jobs the fleet completed over its lifetime.
pub fn drain_fleet(addr: &str) -> Result<u64, NetError> {
    match request(addr, &FleetMsg::DrainFleet)? {
        FleetMsg::Drained { jobs_completed } => Ok(jobs_completed),
        other => Err(NetError::Protocol(format!(
            "expected drain ack, got {other:?}"
        ))),
    }
}

/// Fetches a metrics snapshot from the scheduler at `addr`.
pub fn fleet_stats(addr: &str) -> Result<FleetStats, NetError> {
    match request(addr, &FleetMsg::Stats)? {
        FleetMsg::StatsReply(stats) => Ok(stats),
        other => Err(NetError::Protocol(format!(
            "expected stats reply, got {other:?}"
        ))),
    }
}

/// Reads the `sage-sched listening on <addr>` banner off the scheduler's
/// stdout line.
pub fn parse_sched_banner(line: &str) -> Option<&str> {
    line.trim().strip_prefix("sage-sched listening on ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_round_trip() {
        assert_eq!(
            parse_sched_banner("sage-sched listening on 127.0.0.1:4100\n"),
            Some("127.0.0.1:4100")
        );
        assert_eq!(parse_sched_banner("nope"), None);
    }
}
