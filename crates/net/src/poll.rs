//! `poll(2)`: block until a descriptor is ready, through one libc
//! declaration — the way `benchmark/src/host.rs` reaches
//! `sched_setaffinity` — so the mesh waits on readiness instead of sleeping.
//! The only `unsafe` in `sage-net`.

use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// One `struct pollfd`: a descriptor, what to wait for, what happened.
#[repr(C)]
#[derive(Debug)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Waits for `io` to have bytes (or a connection, an EOF, an error).
    pub fn readable(io: &impl AsRawFd) -> PollFd {
        PollFd {
            fd: io.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }
    }

    /// Waits for `io` to accept bytes (or to fail).
    pub fn writable(io: &impl AsRawFd) -> PollFd {
        PollFd {
            events: POLLOUT,
            ..PollFd::readable(io)
        }
    }

    /// Whether the last [`wait`] reported anything — the awaited event, a
    /// hang-up or an error; the next read or write tells which.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
}

/// Blocks until an entry of `fds` is ready or `timeout` passes (`None`:
/// no limit), retrying `EINTR` against the same deadline. Returns how many
/// entries are ready; 0 is a timeout.
// The socket driver's readiness wait turns its timeout into a deadline on
// the clock (`clippy.toml` keeps the clock from the mesh core).
#[allow(clippy::disallowed_methods)]
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    let deadline = timeout.map(|t| Instant::now() + t);
    loop {
        // Whole milliseconds, rounded up: rounding down would turn the last
        // fraction of a wait into a spin.
        let ms = deadline.map_or(-1, |d| {
            let left = d.saturating_duration_since(Instant::now());
            i32::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
        });
        // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
        // `pollfd`s and `nfds` is its length, so the kernel reads and writes
        // (`revents` only) inside it. A stale descriptor number is reported
        // as `POLLNVAL`, not dereferenced.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, ms) };
        match usize::try_from(n) {
            Ok(n) => return Ok(n),
            Err(_) => {
                let e = std::io::Error::last_os_error();
                if e.kind() != std::io::ErrorKind::Interrupted {
                    return Err(e);
                }
            }
        }
    }
}
