//! What the benchmark needs from the host: thread placement and `/proc`
//! readings.
//!
//! **Why placement.** The sandbox runs with `cpuset.sched_load_balance = 0`:
//! for tens of seconds at a time the kernel has no scheduling domains, a new
//! thread starts on its parent's CPU and nothing ever moves it. Two rank
//! threads spawned by `Cluster::run` then share one vCPU while the other
//! idles, and the same binary runs at half speed (a fixed 2-thread loop:
//! 22 ms spread, 44 ms stacked, nothing in between; pinned, 22 ms in both
//! phases). That is a property of the sandbox, not of the program, so the
//! benchmark places threads itself — rank `r` on CPU `r`, the way an MPI
//! launcher binds ranks — and every run sees the same layout whatever phase
//! the host is in. Threads the benchmark owns pin themselves; threads the
//! program spawns (`Cluster::run`'s ranks) are pinned from outside by
//! [`with_placement`], by thread id, as soon as they appear.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

extern "C" {
    /// glibc's wrapper of the `sched_setaffinity` system call; `pid` 0 is
    /// the calling thread, any other value a thread id.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

/// The CPUs this process may run on, ascending (from
/// `/proc/self/status`); `[0]` if that cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    let parsed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let list = s
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
                .trim()
                .to_string();
            let mut cpus = Vec::new();
            for part in list.split(',') {
                let (lo, hi) = match part.split_once('-') {
                    Some((lo, hi)) => (lo.parse().ok()?, hi.parse().ok()?),
                    None => {
                        let v: usize = part.parse().ok()?;
                        (v, v)
                    }
                };
                cpus.extend(lo..=hi);
            }
            Some(cpus)
        })
        .unwrap_or_default();
    if parsed.is_empty() {
        vec![0]
    } else {
        parsed
    }
}

/// Pins thread `tid` (0 = the caller) to the `slot`-th allowed CPU, modulo
/// their number. Returns whether the kernel accepted it; a refusal (thread
/// already gone, CPU offline) leaves the thread where the scheduler put it.
pub fn pin(tid: i32, cpus: &[usize], slot: usize) -> bool {
    let cpu = cpus[slot % cpus.len()];
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised array of exactly the byte length
    // passed; the call only reads it and has no other memory effects.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

fn thread_ids() -> BTreeSet<i32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

fn own_thread_id() -> Option<i32> {
    std::fs::read_link("/proc/thread-self")
        .ok()?
        .file_name()?
        .to_str()?
        .parse()
        .ok()
}

/// Runs `body` while a helper pins the first `ranks` threads that appear in
/// this process — in thread-id (= spawn = rank) order — to CPUs
/// `0..ranks`. The helper polls `/proc/self/task` every 100 us and gives up
/// after 20 ms, so `body`'s threads run at most a fraction of a millisecond
/// unplaced; it never outlives `body`.
pub fn with_placement<R>(cpus: &[usize], ranks: usize, body: impl FnOnce() -> R) -> R {
    let before = thread_ids();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let me = own_thread_id();
            let deadline = Instant::now() + Duration::from_millis(20);
            while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
                let new: Vec<i32> = thread_ids()
                    .into_iter()
                    .filter(|t| !before.contains(t) && Some(*t) != me)
                    .collect();
                if new.len() >= ranks {
                    for (slot, tid) in new.into_iter().take(ranks).enumerate() {
                        pin(tid, cpus, slot);
                    }
                    return;
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        });
        let r = body();
        stop.store(true, Ordering::Relaxed);
        r
    })
}

fn status_kib(pid: Option<u32>, key: &str) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".into(),
    };
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) of this process (`None`) or of `pid`, MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    status_kib(pid, "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// User + system CPU time of this process (`None`) or of `pid`, all
/// threads, in milliseconds (from `/proc/<pid>/stat`; the kernel ticks at
/// 100 Hz, so read it around at least a second of work).
pub fn cpu_ms(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/stat"),
        None => "/proc/self/stat".into(),
    };
    let Ok(stat) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th overall, i.e. the 12th and 13th after it.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let ticks: u64 = fields
        .by_ref()
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 * 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_cpus_is_never_empty() {
        assert!(!allowed_cpus().is_empty());
    }

    #[test]
    fn placement_pins_spawned_threads_and_returns_the_body_result() {
        let cpus = allowed_cpus();
        let r = with_placement(&cpus, 2, || {
            std::thread::scope(|s| {
                let a = s.spawn(|| std::thread::sleep(Duration::from_millis(5)));
                let b = s.spawn(|| std::thread::sleep(Duration::from_millis(5)));
                a.join().unwrap();
                b.join().unwrap();
            });
            7
        });
        assert_eq!(r, 7);
    }

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mib(None) > 0.0);
        assert!(cpu_ms(None) >= 0.0);
    }
}
