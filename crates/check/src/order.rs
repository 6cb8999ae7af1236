//! The one order relation every pass over a generated program queries.
//!
//! Built once per [`Checker`](crate::Checker) session from the per-node
//! schedules and the session's redistribution plans:
//!
//! * **positions** — one per scheduled task, node by node in slot order, so
//!   two tasks on one node run in the order of their positions;
//! * **program-order edges** — slot `k` to slot `k + 1` of each node, in
//!   the same iteration;
//! * **the wraparound edge** — each node's last slot to its first, one
//!   iteration later: lock-step execution has it, pipelined execution does
//!   not;
//! * **sync edges** — one per non-empty planned transfer pair, in (buffer,
//!   producer thread, consumer thread) order: the producer's write happens
//!   before the consumer's read `delay` iterations later. A buffer the
//!   preamble could not plan has none.
//!
//! The queries: a wait-for [`Order::cycle`] among the delay-0 edges
//! (`SAGE040`); the [`Closure`] of iteration distances the race proof reads
//! (`SAGE070`–`SAGE073`), built only when asked; and the
//! [`Order::dataflow_path`] a delay arc closes into a feedback cycle
//! (`SAGE061`).

use crate::BufferPlans;
use sage_runtime::{GlueProgram, Task};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One planned transfer pair: the task at position `from` sends `bytes` of
/// logical buffer `buffer` to the task at `to`, which reads them `delay`
/// iterations later.
pub(crate) struct Sync {
    pub buffer: u32,
    pub from: usize,
    pub to: usize,
    pub delay: u32,
    pub bytes: usize,
}

/// Why a task on a wait-for cycle waits for the next one.
#[derive(Clone, Copy)]
pub(crate) enum Wait {
    /// It is scheduled right after it on their node.
    Program,
    /// It receives sync edge `k` (an index into [`Order::syncs`]) from it.
    Recv(usize),
}

/// The happens-before relation of one validated program (module docs).
pub(crate) struct Order<'a> {
    program: &'a GlueProgram,
    /// Position -> task, and its (node, slot).
    tasks: Vec<Task>,
    at: Vec<(usize, usize)>,
    /// Thread `t` of function `f` is at position `index[first[f] + t]`.
    first: Vec<usize>,
    index: Vec<usize>,
    /// Every planned transfer pair, in (buffer, producer thread, consumer
    /// thread) order.
    pub syncs: Vec<Sync>,
}

impl<'a> Order<'a> {
    /// Positions and sync edges of a program that passed the preamble.
    pub fn new(program: &'a GlueProgram, plans: &BufferPlans) -> Order<'a> {
        let mut first = vec![0];
        for f in &program.functions {
            first.push(first[first.len() - 1] + f.threads as usize);
        }
        let (mut tasks, mut at) = (Vec::new(), Vec::new());
        let mut index = vec![0; first[first.len() - 1]];
        for (node, sched) in program.schedules.iter().enumerate() {
            for (slot, &task) in sched.iter().enumerate() {
                index[first[task.fn_id as usize] + task.thread as usize] = tasks.len();
                tasks.push(task);
                at.push((node, slot));
            }
        }
        let mut syncs = Vec::new();
        for (b, plan) in program.buffers.iter().zip(plans) {
            let rows = plan.iter().flat_map(|plan| plan.pairs.iter().enumerate());
            for (i, row) in rows {
                for (j, iv) in row.iter().enumerate().filter(|(_, iv)| !iv.is_empty()) {
                    let task = |fn_id: u32, thread| index[first[fn_id as usize] + thread];
                    syncs.push(Sync {
                        buffer: b.id,
                        from: task(b.producer, i),
                        to: task(b.consumer, j),
                        delay: b.delay,
                        bytes: iv.iter().map(|(s, e)| e - s).sum(),
                    });
                }
            }
        }
        Order {
            program,
            tasks,
            at,
            first,
            index,
            syncs,
        }
    }

    /// How many tasks are scheduled.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// The task at position `p`.
    pub fn task(&self, p: usize) -> Task {
        self.tasks[p]
    }

    /// The node and schedule slot of position `p`.
    pub fn at(&self, p: usize) -> (usize, usize) {
        self.at[p]
    }

    /// The nodes sync edge `e` leaves and lands on.
    pub fn nodes(&self, e: &Sync) -> (usize, usize) {
        (self.at[e.from].0, self.at[e.to].0)
    }

    /// Where `task` is scheduled: `None` past its function's threads.
    pub fn position(&self, task: Task) -> Option<usize> {
        let f = task.fn_id as usize;
        let k = self.first[f] + task.thread as usize;
        (k < self.first[f + 1]).then(|| self.index[k])
    }

    /// One wait-for cycle among the delay-0 edges: `(position, wait)`
    /// entries, each waiting for the next and the last for the first. A
    /// depth-first search over positions in order, each one's program-order
    /// wait tried before its receives in sync-edge order.
    pub fn cycle(&self) -> Option<Vec<(usize, Wait)>> {
        let n = self.len();
        let mut waits: Vec<Vec<(usize, Wait)>> = (0..n)
            .map(|p| match self.at[p].1 {
                0 => Vec::new(),
                _ => vec![(p - 1, Wait::Program)],
            })
            .collect();
        for (k, e) in self.syncs.iter().enumerate().filter(|(_, e)| e.delay == 0) {
            waits[e.to].push((e.from, Wait::Recv(k)));
        }
        let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
        for start in 0..n {
            if color[start] != 0 {
                continue;
            }
            // Stack frames: (vertex, next out-edge, wait that led here).
            let mut stack: Vec<(usize, usize, Option<Wait>)> = vec![(start, 0, None)];
            color[start] = 1;
            while let Some(&mut (u, ref mut next, _)) = stack.last_mut() {
                let Some(&(v, wait)) = waits[u].get(*next) else {
                    color[u] = 2;
                    stack.pop();
                    continue;
                };
                *next += 1;
                match color[v] {
                    0 => {
                        color[v] = 1;
                        stack.push((v, 0, Some(wait)));
                    }
                    1 => {
                        // Back edge u -> v: the cycle is v..=u on the stack
                        // plus this edge. Frame k+1's stored wait labels the
                        // edge from frame k, and `wait` closes `u` -> `v`.
                        let gray = "a gray vertex is on the stack";
                        let pos = stack.iter().position(|&(w, _, _)| w == v).expect(gray);
                        let pushed = "every frame above the first was pushed by an edge";
                        let waits = stack[pos + 1..].iter().map(|&(_, _, w)| w.expect(pushed));
                        let on_cycle = stack[pos..].iter().map(|&(w, _, _)| w);
                        return Some(on_cycle.zip(waits.chain([wait])).collect());
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// The all-pairs closure of the program-order and sync edges, with the
    /// wraparound edges when `wraparound` (lock-step execution) and without
    /// them (pipelined execution).
    pub fn closure(&self, wraparound: bool) -> Closure {
        let n = self.len();
        let mut adj: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        for p in 1..n {
            if self.at[p].1 > 0 {
                adj[p - 1].push((p, 0));
            }
        }
        if wraparound {
            let mut first = 0;
            for sched in &self.program.schedules {
                if sched.len() > 1 {
                    adj[first + sched.len() - 1].push((first, 1));
                }
                first += sched.len();
            }
        }
        for e in &self.syncs {
            adj[e.from].push((e.to, e.delay));
        }
        let mut dist = vec![vec![None; n]; n];
        for (src, row) in dist.iter_mut().enumerate() {
            // Dijkstra; weights are iteration distances (>= 0).
            let mut heap = BinaryHeap::from([Reverse((0u32, src))]);
            row[src] = Some(0);
            while let Some(Reverse((d, u))) = heap.pop() {
                if row[u] != Some(d) {
                    continue;
                }
                for &(v, w) in &adj[u] {
                    let nd = d.saturating_add(w);
                    if row[v].is_none_or(|cur| nd < cur) {
                        row[v] = Some(nd);
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
        }
        Closure { dist }
    }

    /// The shortest function-level path `from ⇝ to` along the buffer
    /// table's arcs, every buffer in table order whether planned or not, as
    /// function ids: how a delay arc `to -> from` closes a feedback cycle.
    pub fn dataflow_path(&self, from: u32, to: u32) -> Option<Vec<u32>> {
        let mut parent: Vec<Option<u32>> = vec![None; self.program.functions.len()];
        parent[from as usize] = Some(from);
        let mut queue = VecDeque::from([from]);
        while let Some(f) = queue.pop_front() {
            if f == to {
                let mut path = vec![to];
                while path[path.len() - 1] != from {
                    path.push(parent[path[path.len() - 1] as usize]?);
                }
                path.reverse();
                return Some(path);
            }
            for b in self.program.buffers.iter().filter(|b| b.producer == f) {
                if parent[b.consumer as usize].is_none() {
                    parent[b.consumer as usize] = Some(f);
                    queue.push_back(b.consumer);
                }
            }
        }
        None
    }
}

/// Shortest iteration distances between positions: `dist[u][v] = Some(d)`
/// means an event at position `u` in iteration `i` happens before an event
/// at `v` in any iteration `>= i + d`.
pub(crate) struct Closure {
    dist: Vec<Vec<Option<u32>>>,
}

impl Closure {
    /// Whether an access at position `u`, iteration `i`, is ordered (either
    /// way) against one at position `v`, iteration `j`.
    pub fn ordered(&self, u: usize, i: i64, v: usize, j: i64) -> bool {
        if u == v {
            // The same task's invocations are serial across iterations.
            return i != j;
        }
        let fwd = self.dist[u][v].is_some_and(|d| j - i >= d as i64);
        let bwd = self.dist[v][u].is_some_and(|d| i - j >= d as i64);
        fwd || bwd
    }
}
