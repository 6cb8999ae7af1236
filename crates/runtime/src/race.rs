//! Dynamic race detection: a lightweight vector-clock checker.
//!
//! The dynamic oracle for the static `sage race` pass. Each rank carries a
//! vector clock, incremented once per task it runs; clocks join when a rank
//! receives a mailbox hand-off, exactly mirroring the happens-before edges
//! the static pass proves from the transfer ledger. Every task's
//! logical-buffer accesses — a producer's write of its striped contribution
//! to a consumer port, a consumer's read of the assembled port — are stamped
//! with the rank's clock at access time and checked against earlier accesses
//! to the same port *version* (the consumer iteration the bytes belong to,
//! so a `delay` arc's write at iteration `i` lands on version `i + delay`).
//! Two accesses conflict when at least one writes, their global byte
//! intervals overlap, and neither clock dominates the other; the run then
//! fails typed with [`RuntimeError::RaceDetected`] naming both accesses.
//!
//! The detector is shared across ranks of the in-process cluster, which is
//! the only backend that runs it: a detector inside one process of a
//! distributed job would see only its own rank's serial accesses, which are
//! totally ordered and so never conflict.

use crate::function::RuntimeError;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

/// A global byte-interval list: sorted, disjoint `(start, end)` pairs.
pub type Intervals = Arc<Vec<(usize, usize)>>;

/// One recorded access to a port version.
struct Access {
    write: bool,
    /// Task path of the accessor, e.g. `` `src[0]` (node 0, slot 0)``.
    task: String,
    rank: u32,
    iteration: u32,
    clock: Vec<u32>,
    intervals: Intervals,
    /// FNV-1a of the written stripe bytes; lets two writers that splat
    /// identical bytes over identical intervals pass as benign (the dynamic
    /// mirror of `SAGE073`). Zero for reads.
    content: u64,
}

/// One task's access to one port version, as the executor describes it to
/// [`RaceState::write`] / [`RaceState::read`].
pub struct PortAccess<'a> {
    /// The accessing rank.
    pub rank: u32,
    /// `(consumer fn, input-port group, port version)`: the version is the
    /// consumer iteration the bytes belong to.
    pub key: (u32, u32, u32),
    /// The port's `"{fn}.{port}"` label, for the report.
    pub port: &'a str,
    /// Task path of the accessor, e.g. `` `src[0]` (node 0, slot 0)``.
    pub task: String,
    /// The iteration the accessor is running.
    pub iteration: u32,
    /// Global byte intervals touched.
    pub intervals: Intervals,
}

/// Accesses keyed by `(consumer fn, input-port group, port version)`.
type Records = HashMap<(u32, u32, u32), Vec<Access>>;

struct Inner {
    /// One vector clock per rank; rank `r` only bumps component `r`.
    clocks: Vec<Vec<u32>>,
    /// In-flight transfer stamps: tag -> sender clocks at send time, FIFO.
    /// A queue, not a single slot: streaming execution (and ring-masked
    /// pipeline tags) can put two messages with the same tag in flight at
    /// once, and the transport delivers per-(src, tag) pairs in send order,
    /// so the matching receive joins the *oldest* stamp.
    msgs: HashMap<u64, VecDeque<Vec<u32>>>,
    records: Records,
    inserts: usize,
}

/// Shared vector-clock race-detector state for one run.
pub struct RaceState {
    inner: Mutex<Inner>,
}

/// `a` happens-before-or-equals `b` componentwise.
fn dominated(a: &[u32], b: &[u32]) -> bool {
    a.iter().zip(b.iter()).all(|(x, y)| x <= y)
}

/// Coalesces several sorted interval lists into one sorted, disjoint list.
pub fn union_intervals<'a, I>(lists: I) -> Vec<(usize, usize)>
where
    I: IntoIterator<Item = &'a [(usize, usize)]>,
{
    let mut all: Vec<(usize, usize)> = lists.into_iter().flatten().copied().collect();
    all.sort_unstable();
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(all.len());
    for (s, e) in all {
        if s >= e {
            continue;
        }
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Whether two sorted, disjoint interval lists share any byte.
pub fn overlaps(a: &[(usize, usize)], b: &[(usize, usize)]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].1 <= b[j].0 {
            i += 1;
        } else if b[j].1 <= a[i].0 {
            j += 1;
        } else {
            return true;
        }
    }
    false
}

/// FNV-1a 64 over a byte slice (the repo's standard content fingerprint).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl RaceState {
    /// Fresh detector state for a cluster of `ranks` ranks.
    pub fn new(ranks: usize) -> RaceState {
        RaceState {
            inner: Mutex::new(Inner {
                clocks: vec![vec![0; ranks]; ranks],
                msgs: HashMap::new(),
                records: Records::new(),
                inserts: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A rank is about to run a task: advance its clock component.
    pub fn task_begin(&self, rank: u32) {
        let mut g = self.lock();
        let r = rank as usize;
        g.clocks[r][r] += 1;
    }

    /// A rank is sending transfer `tag`: stamp it with the sender's clock.
    /// Call before the bytes are handed to the transport so the receiver
    /// can never observe the message ahead of its stamp.
    pub fn stamp_send(&self, rank: u32, tag: u64) {
        let mut g = self.lock();
        let clock = g.clocks[rank as usize].clone();
        g.msgs.entry(tag).or_default().push_back(clock);
    }

    /// A rank received transfer `tag`: join the sender's oldest pending
    /// stamp into its clock (stamps and deliveries are both per-tag FIFO).
    /// An unstamped tag joins nothing.
    pub fn join_recv(&self, rank: u32, tag: u64) {
        let mut g = self.lock();
        let stamp = match g.msgs.get_mut(&tag) {
            Some(q) => {
                let stamp = q.pop_front();
                if q.is_empty() {
                    g.msgs.remove(&tag);
                }
                stamp
            }
            None => None,
        };
        if let Some(stamp) = stamp {
            for (c, s) in g.clocks[rank as usize].iter_mut().zip(stamp.iter()) {
                *c = (*c).max(*s);
            }
        }
    }

    /// Records a write (with content fingerprint `content`) and checks it
    /// against every earlier access to the same port version.
    pub fn write(&self, access: PortAccess<'_>, content: u64) -> Result<(), RuntimeError> {
        self.record(access, true, content)
    }

    /// Records a read and checks it against every earlier write to the same
    /// port version.
    pub fn read(&self, access: PortAccess<'_>) -> Result<(), RuntimeError> {
        self.record(access, false, 0)
    }

    fn record(
        &self,
        access: PortAccess<'_>,
        write: bool,
        content: u64,
    ) -> Result<(), RuntimeError> {
        let PortAccess {
            rank,
            key,
            port,
            task,
            iteration,
            intervals,
        } = access;
        let mut g = self.lock();
        let clock = g.clocks[rank as usize].clone();
        let access = Access {
            write,
            task,
            rank,
            iteration,
            clock,
            intervals,
            content,
        };
        if let Some(existing) = g.records.get(&key) {
            for prior in existing {
                if !(prior.write || access.write) || prior.rank == access.rank {
                    // Read/read never conflicts; same-rank accesses are
                    // serialized by the rank's schedule walk.
                    continue;
                }
                if !overlaps(&prior.intervals, &access.intervals) {
                    continue;
                }
                if dominated(&prior.clock, &access.clock) || dominated(&access.clock, &prior.clock)
                {
                    continue;
                }
                // Benign splat: two writers laying identical bytes over
                // identical intervals produce the same buffer either way.
                if prior.write
                    && access.write
                    && prior.content == access.content
                    && prior.intervals == access.intervals
                {
                    continue;
                }
                let describe = |a: &Access| {
                    format!(
                        "{} by {} at iteration {}",
                        if a.write { "write" } else { "read" },
                        a.task,
                        a.iteration
                    )
                };
                let (mut first, mut second) = (describe(prior), describe(&access));
                if second < first {
                    std::mem::swap(&mut first, &mut second);
                }
                return Err(RuntimeError::RaceDetected {
                    port: port.to_string(),
                    first,
                    second,
                });
            }
        }
        g.records.entry(key).or_default().push(access);
        g.inserts += 1;
        if g.inserts.is_multiple_of(1024) {
            // Bound memory on long runs: versions far behind the newest one
            // recorded for the same port can no longer conflict with
            // anything the executor will still produce.
            let mut newest: HashMap<(u32, u32), u32> = HashMap::new();
            for &(f, p, v) in g.records.keys() {
                let e = newest.entry((f, p)).or_insert(v);
                *e = (*e).max(v);
            }
            g.records
                .retain(|&(f, p, v), _| v + 64 >= *newest.get(&(f, p)).unwrap_or(&0));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(list: &[(usize, usize)]) -> Intervals {
        Arc::new(list.to_vec())
    }

    /// An access by `task` on `rank` to version `key` of port `snk.in`.
    fn at(
        rank: u32,
        key: (u32, u32, u32),
        task: &str,
        iteration: u32,
        list: &[(usize, usize)],
    ) -> PortAccess<'static> {
        PortAccess {
            rank,
            key,
            port: "snk.in",
            task: task.into(),
            iteration,
            intervals: iv(list),
        }
    }

    #[test]
    fn interval_overlap() {
        assert!(overlaps(&[(0, 4), (8, 12)], &[(3, 5)]));
        assert!(!overlaps(&[(0, 4)], &[(4, 8)]));
        assert!(!overlaps(&[], &[(0, 1)]));
    }

    #[test]
    fn unordered_cross_rank_writes_race() {
        let s = RaceState::new(2);
        s.task_begin(0);
        s.task_begin(1);
        let key = (2, 0, 0);
        s.write(at(0, key, "`a[0]`", 0, &[(0, 8)]), 1).unwrap();
        let err = s.write(at(1, key, "`b[0]`", 0, &[(4, 12)]), 2).unwrap_err();
        match err {
            RuntimeError::RaceDetected {
                port,
                first,
                second,
            } => {
                assert_eq!(port, "snk.in");
                assert!(first.contains("`a[0]`") || second.contains("`a[0]`"));
                assert!(first.contains("`b[0]`") || second.contains("`b[0]`"));
            }
            other => panic!("expected RaceDetected, got {other}"),
        }
    }

    #[test]
    fn message_join_orders_accesses() {
        let s = RaceState::new(2);
        let key = (2, 0, 0);
        s.task_begin(0);
        s.write(at(0, key, "`a[0]`", 0, &[(0, 8)]), 1).unwrap();
        s.stamp_send(0, 42);
        s.task_begin(1);
        s.join_recv(1, 42);
        // Rank 1 joined rank 0's clock, so its read is ordered after the
        // write and its own later write dominates too.
        s.read(at(1, key, "`c[1]`", 0, &[(0, 8)])).unwrap();
        s.write(at(1, key, "`b[1]`", 0, &[(0, 8)]), 2).unwrap();
    }

    #[test]
    fn identical_splat_is_benign() {
        let s = RaceState::new(2);
        let key = (2, 0, 0);
        s.task_begin(0);
        s.task_begin(1);
        s.write(at(0, key, "`a[0]`", 0, &[(0, 8)]), 7).unwrap();
        // Same intervals, same content hash: benign even though unordered.
        s.write(at(1, key, "`b[0]`", 0, &[(0, 8)]), 7).unwrap();
        // Different content on the same region is a race.
        let err = s.write(at(1, key, "`c[0]`", 0, &[(0, 8)]), 9).unwrap_err();
        assert!(matches!(err, RuntimeError::RaceDetected { .. }));
    }

    #[test]
    fn different_versions_never_conflict() {
        let s = RaceState::new(2);
        s.task_begin(0);
        s.task_begin(1);
        s.write(at(0, (2, 0, 0), "`a[0]`", 0, &[(0, 8)]), 1)
            .unwrap();
        s.write(at(1, (2, 0, 1), "`b[0]`", 1, &[(0, 8)]), 2)
            .unwrap();
    }

    #[test]
    fn reads_on_both_ranks_do_not_conflict() {
        let s = RaceState::new(2);
        s.task_begin(0);
        s.task_begin(1);
        let key = (2, 0, 0);
        s.read(at(0, key, "`a[0]`", 0, &[(0, 8)])).unwrap();
        s.read(at(1, key, "`b[1]`", 0, &[(0, 8)])).unwrap();
    }
}
