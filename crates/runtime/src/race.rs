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
//! totally ordered and so never conflict. It builds its own footprint
//! tables from the program and the prepared plans, so a run without it
//! builds none.

use crate::executor::Prepared;
use crate::function::RuntimeError;
use crate::glue::{GlueProgram, Task};
use crate::striping::Layout;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

/// A global byte-interval list: sorted, disjoint `(start, end)` pairs.
pub type Intervals = Arc<Vec<(usize, usize)>>;

/// One recorded access to a port version.
struct Access {
    write: bool,
    task: Task,
    rank: u32,
    iteration: u32,
    clock: Vec<u32>,
    intervals: Intervals,
    /// FNV-1a of the written stripe bytes; lets two writers that splat
    /// identical bytes over identical intervals pass as benign (the dynamic
    /// mirror of `SAGE073`). Zero for reads.
    content: u64,
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

/// Shared vector-clock race-detector state for one run of one program.
pub struct RaceState<'a> {
    program: &'a GlueProgram,
    prepared: &'a Prepared,
    inner: Mutex<Inner>,
    /// Per function, per input port (fan-in group), per consumer thread:
    /// the global byte intervals the thread's stripe covers. Its read
    /// footprint.
    reads: Vec<Vec<Vec<Intervals>>>,
    /// Per buffer: the consumer function and input port its writes land
    /// on, and per producer thread the global byte intervals the thread
    /// contributes (its pair intervals over all consumer threads). Its
    /// write footprint.
    writes: Vec<((u32, u32), Vec<Intervals>)>,
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

impl<'a> RaceState<'a> {
    /// Fresh detector state for one run of `program`, whose plans are
    /// `prepared`, on one rank per node.
    pub fn new(program: &'a GlueProgram, prepared: &'a Prepared) -> RaceState<'a> {
        let ranks = program.node_count();
        let plans = &prepared.plans;
        let mut writes: Vec<_> = (plans.iter())
            .map(|bp| {
                let union = |row: &Vec<_>| Arc::new(union_intervals(row.iter().map(Vec::as_slice)));
                ((0, 0), bp.plan.pairs.iter().map(union).collect())
            })
            .collect();
        let mut reads = Vec::with_capacity(program.functions.len());
        for (f, groups) in program.functions.iter().zip(&prepared.input_groups) {
            let mut ports = Vec::with_capacity(groups.len());
            for (gi, g) in groups.iter().enumerate() {
                for &bid in &g.buffers {
                    writes[bid as usize].0 = (f.id, gi as u32);
                }
                // A port's fan-in buffers share its consumer layout
                // (`prepare` rejects any that do not): the first one's
                // stands for all.
                let dst = &plans[g.buffers[0] as usize].plan.dst;
                let union = |layout: &Layout| Arc::new(union_intervals([layout.runs()]));
                ports.push(dst.iter().map(union).collect());
            }
            reads.push(ports);
        }
        RaceState {
            program,
            prepared,
            inner: Mutex::new(Inner {
                clocks: vec![vec![0; ranks]; ranks],
                msgs: HashMap::new(),
                records: Records::new(),
                inserts: 0,
            }),
            reads,
            writes,
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

    /// `task`, running `iteration` on `rank`, wrote `bytes` to `buffer`:
    /// records the write on the port version the buffer's delay shifts it
    /// to and checks it against every earlier access to that version.
    pub fn write(
        &self,
        rank: u32,
        task: Task,
        buffer: u32,
        iteration: u32,
        bytes: &[u8],
    ) -> Result<(), RuntimeError> {
        let ((fn_id, port), regions) = &self.writes[buffer as usize];
        // A `delay` arc's write at iteration `i` lands on port version
        // `i + delay`.
        let delay = self.program.buffers[buffer as usize].delay;
        let key = (*fn_id, *port, iteration + delay);
        let intervals = &regions[task.thread as usize];
        self.record(key, (rank, task, iteration), intervals, Some(bytes))
    }

    /// `task`, running `iteration` on `rank`, read its input port `port`:
    /// records the read and checks it against every earlier write to the
    /// same port version.
    pub fn read(
        &self,
        rank: u32,
        task: Task,
        port: usize,
        iteration: u32,
    ) -> Result<(), RuntimeError> {
        let key = (task.fn_id, port as u32, iteration);
        let intervals = &self.reads[task.fn_id as usize][port][task.thread as usize];
        self.record(key, (rank, task, iteration), intervals, None)
    }

    /// Stamps one access by `(rank, task, iteration)` to port version
    /// `key`, a write if it carries the written bytes, and checks it
    /// against the accesses recorded there. An empty footprint touches
    /// nothing and is not recorded.
    fn record(
        &self,
        key: (u32, u32, u32),
        (rank, task, iteration): (u32, Task, u32),
        intervals: &Intervals,
        written: Option<&[u8]>,
    ) -> Result<(), RuntimeError> {
        if intervals.is_empty() {
            return Ok(());
        }
        let content = written.map_or(0, fnv1a_64);
        let mut g = self.lock();
        let access = Access {
            write: written.is_some(),
            task,
            rank,
            iteration,
            clock: g.clocks[rank as usize].clone(),
            intervals: intervals.clone(),
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
                        self.program.task_path(a.task),
                        a.iteration
                    )
                };
                let (mut first, mut second) = (describe(prior), describe(&access));
                if second < first {
                    std::mem::swap(&mut first, &mut second);
                }
                let f = &self.program.functions[key.0 as usize];
                let group = &self.prepared.input_groups[key.0 as usize][key.1 as usize];
                return Err(RuntimeError::RaceDetected {
                    port: format!("{}.{}", f.name, group.port),
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
    use crate::executor::prepare;
    use crate::function::Registry;
    use crate::glue::{FnRole, FunctionDescriptor, LogicalBufferDesc};
    use sage_model::{Properties, Striping};

    /// Two one-thread sources, `a` on node 0 and `b` on node 1, fan in to
    /// port `snk.in`, which `snk` replicates over one thread per node: every
    /// write and every read covers the whole 16-byte port.
    fn fan_in() -> (GlueProgram, Prepared) {
        let function = |id: u32, name: &str, role, placement: Vec<u32>| FunctionDescriptor {
            id,
            name: name.into(),
            function: if role == FnRole::Sink {
                "sink.null"
            } else {
                "source.zero"
            }
            .into(),
            role,
            threads: placement.len() as u32,
            placement,
            flops: 0.0,
            mem_bytes: 0.0,
            inputs: if role == FnRole::Sink {
                vec![0, 1]
            } else {
                vec![]
            },
            outputs: if role == FnRole::Sink {
                vec![]
            } else {
                vec![id]
            },
            params: Properties::new(),
        };
        let buffer = |id: u32| LogicalBufferDesc {
            id,
            producer: id,
            producer_port: "out".into(),
            consumer: 2,
            consumer_port: "in".into(),
            shape: vec![16],
            elem_bytes: 1,
            send_striping: Striping::Replicated,
            recv_striping: Striping::Replicated,
            delay: 0,
        };
        let task = |fn_id, thread| Task { fn_id, thread };
        let program = GlueProgram {
            app_name: "fan_in".into(),
            functions: vec![
                function(0, "a", FnRole::Source, vec![0]),
                function(1, "b", FnRole::Source, vec![1]),
                function(2, "snk", FnRole::Sink, vec![0, 1]),
            ],
            buffers: vec![buffer(0), buffer(1)],
            schedules: vec![vec![task(0, 0), task(2, 0)], vec![task(1, 0), task(2, 1)]],
        };
        let prepared = prepare(&program, &Registry::new()).unwrap();
        (program, prepared)
    }

    const A: Task = Task {
        fn_id: 0,
        thread: 0,
    };
    const B: Task = Task {
        fn_id: 1,
        thread: 0,
    };
    const SNK: [Task; 2] = [
        Task {
            fn_id: 2,
            thread: 0,
        },
        Task {
            fn_id: 2,
            thread: 1,
        },
    ];

    #[test]
    fn interval_overlap() {
        assert!(overlaps(&[(0, 4), (8, 12)], &[(3, 5)]));
        assert!(!overlaps(&[(0, 4)], &[(4, 8)]));
        assert!(!overlaps(&[], &[(0, 1)]));
    }

    #[test]
    fn unordered_cross_rank_writes_race() {
        let (program, prepared) = fan_in();
        let s = RaceState::new(&program, &prepared);
        s.task_begin(0);
        s.task_begin(1);
        s.write(0, A, 0, 0, &[1]).unwrap();
        let err = s.write(1, B, 1, 0, &[2]).unwrap_err();
        match err {
            RuntimeError::RaceDetected {
                port,
                first,
                second,
            } => {
                assert_eq!(port, "snk.in");
                assert!(first.contains("`a[0]` (node 0, slot 0)"), "{first}");
                assert!(second.contains("`b[0]` (node 1, slot 0)"), "{second}");
            }
            other => panic!("expected RaceDetected, got {other}"),
        }
    }

    #[test]
    fn message_join_orders_accesses() {
        let (program, prepared) = fan_in();
        let s = RaceState::new(&program, &prepared);
        s.task_begin(0);
        s.write(0, A, 0, 0, &[1]).unwrap();
        s.stamp_send(0, 42);
        s.task_begin(1);
        s.join_recv(1, 42);
        // Rank 1 joined rank 0's clock, so its read is ordered after the
        // write and its own later write dominates too.
        s.read(1, SNK[1], 0, 0).unwrap();
        s.write(1, B, 1, 0, &[2]).unwrap();
    }

    #[test]
    fn identical_splat_is_benign() {
        let (program, prepared) = fan_in();
        let s = RaceState::new(&program, &prepared);
        s.task_begin(0);
        s.task_begin(1);
        s.write(0, A, 0, 0, &[7]).unwrap();
        // Same intervals, same content hash: benign even though unordered.
        s.write(1, B, 1, 0, &[7]).unwrap();
        // Different content on the same region is a race.
        let err = s.write(1, B, 1, 0, &[9]).unwrap_err();
        assert!(matches!(err, RuntimeError::RaceDetected { .. }));
    }

    #[test]
    fn different_versions_never_conflict() {
        let (program, prepared) = fan_in();
        let s = RaceState::new(&program, &prepared);
        s.task_begin(0);
        s.task_begin(1);
        s.write(0, A, 0, 0, &[1]).unwrap();
        s.write(1, B, 1, 1, &[2]).unwrap();
    }

    #[test]
    fn reads_on_both_ranks_do_not_conflict() {
        let (program, prepared) = fan_in();
        let s = RaceState::new(&program, &prepared);
        s.task_begin(0);
        s.task_begin(1);
        s.read(0, SNK[0], 0, 0).unwrap();
        s.read(1, SNK[1], 0, 0).unwrap();
    }
}
