//! The striping engine: data distribution between function threads.
//!
//! Paper §2: "the port striping conventions enable the system designer to
//! define complex data distribution patterns between functions in a
//! multi-threaded environment. ... The runtime is responsible for striping
//! the data based on the model information specified in the glue-code."
//!
//! A logical buffer's payload is a packed row-major array. Each thread of
//! the producing (sending) function *owns* a region of it, and each thread
//! of the consuming (receiving) function *needs* a region, both described by
//! the port striping conventions:
//!
//! * **replicated** — the thread sees the whole payload;
//! * **striped along dim k** — the thread sees an even `1/threads` slice of
//!   dimension `k`, which for an inner dimension is a *strided* set of byte
//!   runs.
//!
//! The redistribution between a producer layout and a consumer layout is the
//! intersection of their run lists, and computing it is what turns a
//! row-striped-to-column-striped connection into the all-to-all **corner
//! turn** traffic pattern:
//!
//! ```
//! use sage_model::Striping;
//! use sage_runtime::Redistribution;
//!
//! // 8x8 complex matrix, 4 row-striped producer threads feeding 4
//! // column-striped consumer threads: every (i, j) pair exchanges one
//! // 2x2-element tile — an all-to-all.
//! let plan = Redistribution::plan(
//!     &[8, 8], 8, Striping::BY_ROWS, 4, Striping::BY_COLS, 4,
//! );
//! for i in 0..4 {
//!     for j in 0..4 {
//!         let bytes: usize = plan.pairs[i][j].iter().map(|(s, e)| e - s).sum();
//!         assert_eq!(bytes, 2 * 2 * 8);
//!     }
//! }
//! ```

use sage_model::Striping;

/// The byte regions of a logical buffer that one thread owns or needs:
/// sorted, disjoint `[start, end)` intervals in full-payload byte space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    runs: Vec<(usize, usize)>,
}

impl Layout {
    /// Builds the layout of thread `tid` of `threads` for a payload with
    /// array `shape` (outermost first), `elem` bytes per element, under
    /// `striping`.
    ///
    /// # Panics
    /// Panics if a striped dimension does not divide evenly by `threads`,
    /// or `dim` is out of range — conditions the Designer's validation
    /// ([`sage_model::validate`]) rejects before code generation.
    pub fn of_thread(
        shape: &[usize],
        elem: usize,
        striping: Striping,
        threads: usize,
        tid: usize,
    ) -> Layout {
        assert!(tid < threads, "thread {tid} of {threads}");
        let total: usize = shape.iter().product::<usize>() * elem;
        match striping {
            Striping::Replicated => Layout {
                runs: if total == 0 {
                    Vec::new()
                } else {
                    vec![(0, total)]
                },
            },
            Striping::Striped { dim } => {
                if let Some(fault) = stripe_fault(shape, striping, threads, "the port") {
                    panic!("{fault}");
                }
                let inner: usize = shape[dim + 1..].iter().product::<usize>() * elem;
                let outer: usize = shape[..dim].iter().product();
                let slice = shape[dim] / threads; // elements of dim each thread owns
                let run_len = slice * inner;
                let stride = shape[dim] * inner;
                let mut runs = Vec::with_capacity(outer);
                for o in 0..outer {
                    let start = o * stride + tid * run_len;
                    if run_len > 0 {
                        runs.push((start, start + run_len));
                    }
                }
                Layout { runs }
            }
        }
    }

    /// The thread-local shape: `shape` with any striped dimension divided by
    /// the thread count. (Replicated ports keep the full shape.)
    pub fn local_shape(shape: &[usize], striping: Striping, threads: usize) -> Vec<usize> {
        let mut s = shape.to_vec();
        if let Striping::Striped { dim } = striping {
            s[dim] /= threads;
        }
        s
    }

    /// The sorted, disjoint runs.
    pub fn runs(&self) -> &[(usize, usize)] {
        &self.runs
    }

    /// Total bytes this layout covers.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|(s, e)| e - s).sum()
    }

    /// `true` if the layout covers nothing.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Intersects two layouts, returning global `[start, end)` intervals
    /// present in both (sorted, disjoint).
    pub fn intersect(&self, other: &Layout) -> Vec<(usize, usize)> {
        let (a, b) = (&self.runs, &other.runs);
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let lo = a[i].0.max(b[j].0);
            let hi = a[i].1.min(b[j].1);
            if lo < hi {
                out.push((lo, hi));
            }
            if a[i].1 < b[j].1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        out
    }

    /// Maps a global byte offset (which must lie inside this layout) to the
    /// offset within the thread-local packed buffer (runs concatenated in
    /// order).
    ///
    /// # Panics
    /// Panics if `global` is not covered by the layout.
    pub fn to_local(&self, global: usize) -> usize {
        let mut local_base = 0;
        for &(s, e) in &self.runs {
            if global >= s && global < e {
                return local_base + (global - s);
            }
            local_base += e - s;
        }
        panic!("offset {global} outside layout");
    }

    /// Copies the bytes of `intervals` (global coordinates, each fully
    /// inside this layout) out of the thread-local buffer `local` into a
    /// packed message.
    pub fn extract(&self, local: &[u8], intervals: &[(usize, usize)]) -> Vec<u8> {
        let total: usize = intervals.iter().map(|(s, e)| e - s).sum();
        let mut out = Vec::with_capacity(total);
        for &(s, e) in intervals {
            // Within one run, local offsets are contiguous.
            let ls = self.to_local(s);
            out.extend_from_slice(&local[ls..ls + (e - s)]);
        }
        out
    }

    /// Scatters a packed message produced by [`Layout::extract`] into the
    /// thread-local buffer `local` at the positions of `intervals`.
    ///
    /// # Panics
    /// Panics if `data` does not match the interval sizes.
    pub fn inject(&self, local: &mut [u8], intervals: &[(usize, usize)], data: &[u8]) {
        let mut cursor = 0;
        for &(s, e) in intervals {
            let n = e - s;
            let ls = self.to_local(s);
            local[ls..ls + n].copy_from_slice(&data[cursor..cursor + n]);
            cursor += n;
        }
        assert_eq!(cursor, data.len(), "message size mismatch");
    }
}

/// One coalesced copy: `len` bytes from offset `src` of one packed buffer
/// to offset `dst` of another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CopyOp {
    /// Byte offset into the source packed buffer.
    pub src: usize,
    /// Byte offset into the destination packed buffer.
    pub dst: usize,
    /// Bytes to copy.
    pub len: usize,
}

/// Precompiled pack/unpack programs for one (producer thread, consumer
/// thread) pair of a [`Redistribution`].
///
/// [`Layout::extract`]/[`Layout::inject`] re-resolve every interval through
/// a linear [`Layout::to_local`] scan on every iteration. `PairOps` does
/// that resolution once at plan time and coalesces intervals that are
/// adjacent on *both* sides into single [`CopyOp`]s, so the per-iteration
/// hot path is a short list of `copy_from_slice` calls.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PairOps {
    /// Copies from the producer's local buffer into the packed message.
    pub pack: Vec<CopyOp>,
    /// Copies from the packed message into the consumer's local buffer.
    pub unpack: Vec<CopyOp>,
    /// Total message bytes (sum of op lengths on either side).
    pub bytes: usize,
}

impl PairOps {
    /// Packs the pair's message out of the producer's local buffer.
    /// `msg` must be exactly [`PairOps::bytes`] long.
    pub fn pack_into(&self, src_local: &[u8], msg: &mut [u8]) {
        debug_assert_eq!(msg.len(), self.bytes);
        for op in &self.pack {
            msg[op.dst..op.dst + op.len].copy_from_slice(&src_local[op.src..op.src + op.len]);
        }
    }

    /// Scatters a packed message into the consumer's local buffer.
    /// `msg` must be exactly [`PairOps::bytes`] long.
    pub fn unpack_into(&self, msg: &[u8], dst_local: &mut [u8]) {
        debug_assert_eq!(msg.len(), self.bytes);
        for op in &self.unpack {
            dst_local[op.dst..op.dst + op.len].copy_from_slice(&msg[op.src..op.src + op.len]);
        }
    }

    /// `true` when the pair moves nothing.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }
}

/// Appends `op` to `ops`, merging with the previous op when the two are
/// contiguous on both sides.
fn push_coalesced(ops: &mut Vec<CopyOp>, op: CopyOp) {
    if let Some(prev) = ops.last_mut() {
        if prev.src + prev.len == op.src && prev.dst + prev.len == op.dst {
            prev.len += op.len;
            return;
        }
    }
    ops.push(op);
}

/// Why the port of function `who` cannot stripe a `shape` payload over its
/// `threads`, if it cannot — the conditions [`Layout::of_thread`] panics on,
/// as a message. The one statement of the rule: `prepare` and the static
/// checker both plan through [`crate::GlueProgram::plan_buffer`], which
/// asks here.
pub(crate) fn stripe_fault(
    shape: &[usize],
    striping: Striping,
    threads: usize,
    who: &str,
) -> Option<String> {
    let Striping::Striped { dim } = striping else {
        return None;
    };
    match shape.get(dim) {
        None => Some(format!(
            "`{who}` stripes dimension {dim} of a {}-D payload",
            shape.len()
        )),
        Some(&extent) if threads == 0 || extent % threads != 0 => Some(format!(
            "dimension {dim} of extent {extent} cannot stripe over `{who}`'s {threads} threads"
        )),
        Some(_) => None,
    }
}

/// The full redistribution plan for one logical buffer: for every (producer
/// thread, consumer thread) pair, the global intervals that must move.
#[derive(Clone, Debug)]
pub struct Redistribution {
    /// Producer thread layouts.
    pub src: Vec<Layout>,
    /// Consumer thread layouts.
    pub dst: Vec<Layout>,
    /// `pairs[i][j]` = intervals producer thread `i` sends to consumer
    /// thread `j` (possibly empty).
    pub pairs: Vec<Vec<Vec<(usize, usize)>>>,
}

impl Redistribution {
    /// Plans the redistribution for a payload of `shape`/`elem` from a
    /// producer with `src_threads`/`src_striping` to a consumer with
    /// `dst_threads`/`dst_striping`.
    ///
    /// For replicated-output producers only thread 0 sends (all producer
    /// threads hold identical data), matching the paper's convention that
    /// replication is for reading, not multiply-sending.
    pub fn plan(
        shape: &[usize],
        elem: usize,
        src_striping: Striping,
        src_threads: usize,
        dst_striping: Striping,
        dst_threads: usize,
    ) -> Redistribution {
        let src: Vec<Layout> = (0..src_threads)
            .map(|t| Layout::of_thread(shape, elem, src_striping, src_threads, t))
            .collect();
        let dst: Vec<Layout> = (0..dst_threads)
            .map(|t| Layout::of_thread(shape, elem, dst_striping, dst_threads, t))
            .collect();
        let mut pairs = vec![vec![Vec::new(); dst_threads]; src_threads];
        for (i, s) in src.iter().enumerate() {
            if src_striping.is_replicated() && i > 0 {
                continue; // only thread 0 transmits replicated outputs
            }
            for (j, d) in dst.iter().enumerate() {
                pairs[i][j] = s.intersect(d);
            }
        }
        Redistribution { src, dst, pairs }
    }

    /// Total bytes that move (counting every pair once).
    pub fn total_bytes(&self) -> usize {
        self.pairs
            .iter()
            .flatten()
            .flatten()
            .map(|(s, e)| e - s)
            .sum()
    }

    /// Bytes moved by one (producer thread, consumer thread) pair, or 0 if
    /// either index is out of range.
    pub fn pair_bytes(&self, i: usize, j: usize) -> usize {
        self.pairs
            .get(i)
            .and_then(|row| row.get(j))
            .map(|iv| iv.iter().map(|(s, e)| e - s).sum())
            .unwrap_or(0)
    }

    /// Compiles the pack/unpack programs for pair `(i, j)`.
    ///
    /// Every intersection interval lies inside exactly one source run and
    /// one destination run, so it is contiguous in both packed local
    /// buffers; intervals contiguous on both sides merge into one
    /// [`CopyOp`]. Message byte order is identical to
    /// [`Layout::extract`]'s, so the two paths are wire-compatible.
    pub fn pair_ops(&self, i: usize, j: usize) -> PairOps {
        let mut ops = PairOps::default();
        let (src, dst) = (&self.src[i], &self.dst[j]);
        let mut cursor = 0;
        for &(s, e) in &self.pairs[i][j] {
            let len = e - s;
            push_coalesced(
                &mut ops.pack,
                CopyOp {
                    src: src.to_local(s),
                    dst: cursor,
                    len,
                },
            );
            push_coalesced(
                &mut ops.unpack,
                CopyOp {
                    src: cursor,
                    dst: dst.to_local(s),
                    len,
                },
            );
            cursor += len;
        }
        ops.bytes = cursor;
        ops
    }

    /// Bytes arriving at consumer thread `j` across every producer thread.
    /// Transmitting source layouts are disjoint (striped layouts partition
    /// the payload; replicated producers send only from thread 0), so the
    /// sum equals the union and comparing it against `dst[j].len()` decides
    /// whether the consumer's stripe is fully covered.
    pub fn incoming_bytes(&self, j: usize) -> usize {
        (0..self.pairs.len()).map(|i| self.pair_bytes(i, j)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ELEM: usize = 8; // complex samples

    #[test]
    fn replicated_layout_covers_all() {
        let l = Layout::of_thread(&[4, 4], ELEM, Striping::Replicated, 3, 1);
        assert_eq!(l.runs(), &[(0, 128)]);
        assert_eq!(l.len(), 128);
    }

    #[test]
    fn row_stripes_are_contiguous() {
        // 8x4 matrix, 2 threads by rows: thread 0 = rows 0-3, thread 1 = 4-7.
        let l0 = Layout::of_thread(&[8, 4], ELEM, Striping::BY_ROWS, 2, 0);
        let l1 = Layout::of_thread(&[8, 4], ELEM, Striping::BY_ROWS, 2, 1);
        assert_eq!(l0.runs(), &[(0, 128)]);
        assert_eq!(l1.runs(), &[(128, 256)]);
    }

    #[test]
    fn column_stripes_are_strided() {
        // 4x8 matrix, 2 threads by cols: each thread owns 4 runs of 4 elems.
        let l0 = Layout::of_thread(&[4, 8], ELEM, Striping::BY_COLS, 2, 0);
        assert_eq!(l0.runs().len(), 4);
        assert_eq!(l0.runs()[0], (0, 32));
        assert_eq!(l0.runs()[1], (64, 96));
        assert_eq!(l0.len(), 128);
        let l1 = Layout::of_thread(&[4, 8], ELEM, Striping::BY_COLS, 2, 1);
        assert_eq!(l1.runs()[0], (32, 64));
    }

    #[test]
    fn stripes_partition_the_payload() {
        for (striping, threads) in [
            (Striping::BY_ROWS, 4),
            (Striping::BY_COLS, 4),
            (Striping::BY_ROWS, 1),
            (Striping::BY_COLS, 8),
        ] {
            let shape = [8usize, 8];
            let total = 8 * 8 * ELEM;
            let mut covered = vec![0u8; total];
            for t in 0..threads {
                let l = Layout::of_thread(&shape, ELEM, striping, threads, t);
                assert_eq!(l.len(), total / threads);
                for &(s, e) in l.runs() {
                    for c in covered.iter_mut().take(e).skip(s) {
                        *c += 1;
                    }
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "{striping:?} x{threads}");
        }
    }

    #[test]
    fn local_shape_divides_striped_dim() {
        assert_eq!(
            Layout::local_shape(&[8, 6], Striping::BY_ROWS, 4),
            vec![2, 6]
        );
        assert_eq!(
            Layout::local_shape(&[8, 6], Striping::BY_COLS, 3),
            vec![8, 2]
        );
        assert_eq!(
            Layout::local_shape(&[8, 6], Striping::Replicated, 4),
            vec![8, 6]
        );
    }

    #[test]
    fn intersection_row_to_col_is_tile() {
        // 4x4 matrix: row-thread 0 of 2 (rows 0-1) vs col-thread 1 of 2
        // (cols 2-3) intersect in the 2x2 tile at (0..2, 2..4).
        let rows = Layout::of_thread(&[4, 4], ELEM, Striping::BY_ROWS, 2, 0);
        let cols = Layout::of_thread(&[4, 4], ELEM, Striping::BY_COLS, 2, 1);
        let x = rows.intersect(&cols);
        // Two runs (one per row of the tile), 2 elements each.
        assert_eq!(x.len(), 2);
        assert_eq!(x[0], (2 * ELEM, 4 * ELEM));
        assert_eq!(x[1], (4 * ELEM + 2 * ELEM, 8 * ELEM));
        let total: usize = x.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, 4 * ELEM);
    }

    #[test]
    fn to_local_maps_runs_in_order() {
        let l = Layout::of_thread(&[4, 8], ELEM, Striping::BY_COLS, 2, 1);
        // First run starts at 32 globally, 0 locally.
        assert_eq!(l.to_local(32), 0);
        assert_eq!(l.to_local(40), 8);
        // Second run (row 1, cols 4..8) starts at 96 globally, 32 locally.
        assert_eq!(l.to_local(96), 32);
    }

    #[test]
    #[should_panic(expected = "outside layout")]
    fn to_local_rejects_foreign_offsets() {
        let l = Layout::of_thread(&[4, 8], ELEM, Striping::BY_COLS, 2, 1);
        l.to_local(0); // owned by thread 0
    }

    #[test]
    fn extract_inject_round_trip() {
        let shape = [4usize, 4];
        let total = 4 * 4 * ELEM;
        // Full payload = bytes 0..128 with value = offset % 251.
        let full: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        let src = Layout::of_thread(&shape, ELEM, Striping::BY_ROWS, 2, 0);
        let dst = Layout::of_thread(&shape, ELEM, Striping::BY_COLS, 2, 1);
        // Producer's local buffer is its packed stripe of the payload.
        let src_local = src.extract(&full[..src.runs()[0].1], src.runs());
        let intervals = src.intersect(&dst);
        let msg = src.extract(&src_local, &intervals);
        // Consumer starts empty, injects the message.
        let mut dst_local = vec![0u8; dst.len()];
        dst.inject(&mut dst_local, &intervals, &msg);
        // Every injected global byte must equal the original payload byte.
        for &(s, e) in &intervals {
            for g in s..e {
                assert_eq!(dst_local[dst.to_local(g)], full[g]);
            }
        }
    }

    #[test]
    fn redistribution_row_to_col_is_all_to_all() {
        let r = Redistribution::plan(&[8, 8], ELEM, Striping::BY_ROWS, 4, Striping::BY_COLS, 4);
        // Every pair exchanges a 2x2-element tile = 4 elems.
        for i in 0..4 {
            for j in 0..4 {
                let bytes: usize = r.pairs[i][j].iter().map(|(s, e)| e - s).sum();
                assert_eq!(bytes, 4 * ELEM, "pair {i}->{j}");
            }
        }
        assert_eq!(r.total_bytes(), 8 * 8 * ELEM);
    }

    #[test]
    fn redistribution_same_striping_is_diagonal() {
        let r = Redistribution::plan(&[8, 4], ELEM, Striping::BY_ROWS, 4, Striping::BY_ROWS, 4);
        for i in 0..4 {
            for j in 0..4 {
                let bytes: usize = r.pairs[i][j].iter().map(|(s, e)| e - s).sum();
                if i == j {
                    assert_eq!(bytes, 8 * 4 * ELEM / 4);
                } else {
                    assert_eq!(bytes, 0);
                }
            }
        }
    }

    #[test]
    fn replicated_source_sends_from_thread_zero_only() {
        let r = Redistribution::plan(&[4, 4], ELEM, Striping::Replicated, 3, Striping::BY_ROWS, 2);
        for j in 0..2 {
            let from0: usize = r.pairs[0][j].iter().map(|(s, e)| e - s).sum();
            assert_eq!(from0, 4 * 4 * ELEM / 2);
            for i in 1..3 {
                assert!(r.pairs[i][j].is_empty());
            }
        }
    }

    #[test]
    fn pair_and_incoming_bytes_cover_consumer_stripes() {
        let r = Redistribution::plan(&[8, 8], ELEM, Striping::BY_ROWS, 4, Striping::BY_COLS, 4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(r.pair_bytes(i, j), 4 * ELEM);
            }
        }
        assert_eq!(r.pair_bytes(9, 0), 0);
        for j in 0..4 {
            assert_eq!(r.incoming_bytes(j), r.dst[j].len());
        }
        // Replicated producer: union over senders still covers each stripe.
        let r = Redistribution::plan(&[4, 4], ELEM, Striping::Replicated, 3, Striping::BY_ROWS, 2);
        for j in 0..2 {
            assert_eq!(r.incoming_bytes(j), r.dst[j].len());
        }
    }

    #[test]
    fn pair_ops_match_extract_inject() {
        for (src_s, src_t, dst_s, dst_t) in [
            (Striping::BY_ROWS, 4, Striping::BY_COLS, 4),
            (Striping::BY_COLS, 2, Striping::BY_ROWS, 4),
            (Striping::Replicated, 3, Striping::BY_COLS, 2),
            (Striping::BY_ROWS, 2, Striping::BY_ROWS, 2),
        ] {
            let shape = [8usize, 8];
            let total = 8 * 8 * ELEM;
            let full: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
            let r = Redistribution::plan(&shape, ELEM, src_s, src_t, dst_s, dst_t);
            for i in 0..src_t {
                let src_local = r.src[i].extract(&full, r.src[i].runs());
                for j in 0..dst_t {
                    let intervals = &r.pairs[i][j];
                    let ops = r.pair_ops(i, j);
                    // Pack path: coalesced ops produce the identical message.
                    let old_msg = r.src[i].extract(&src_local, intervals);
                    let mut new_msg = vec![0u8; ops.bytes];
                    ops.pack_into(&src_local, &mut new_msg);
                    assert_eq!(old_msg, new_msg, "pack {i}->{j}");
                    // Unpack path: coalesced ops scatter identically.
                    let mut old_dst = vec![0u8; r.dst[j].len()];
                    r.dst[j].inject(&mut old_dst, intervals, &old_msg);
                    let mut new_dst = vec![0u8; r.dst[j].len()];
                    ops.unpack_into(&new_msg, &mut new_dst);
                    assert_eq!(old_dst, new_dst, "unpack {i}->{j}");
                }
            }
        }
    }

    #[test]
    fn pair_ops_coalesce_adjacent_runs() {
        // Same striping: the whole diagonal transfer is one contiguous copy
        // on both sides, so the many per-row intervals of a column stripe
        // must coalesce into a single op.
        let r = Redistribution::plan(&[8, 8], ELEM, Striping::BY_COLS, 4, Striping::BY_COLS, 4);
        for t in 0..4 {
            let ops = r.pair_ops(t, t);
            assert_eq!(r.pairs[t][t].len(), 8, "column stripe has 8 intervals");
            assert_eq!(ops.pack.len(), 1, "pack coalesces to one op");
            assert_eq!(ops.unpack.len(), 1, "unpack coalesces to one op");
            assert_eq!(ops.bytes, 8 * 8 * ELEM / 4);
        }
        // Corner turn: pack is contiguous per source row (coalesces the
        // column intervals of one row), never across rows.
        let r = Redistribution::plan(&[8, 8], ELEM, Striping::BY_ROWS, 4, Striping::BY_COLS, 4);
        let ops = r.pair_ops(0, 1);
        assert_eq!(ops.bytes, 4 * ELEM);
        assert!(ops.pack.len() <= r.pairs[0][1].len());
    }

    #[test]
    fn fan_in_thread_count_mismatch_covered() {
        // 2 producer row-threads -> 4 consumer row-threads: each producer
        // feeds exactly its two nested consumers.
        let r = Redistribution::plan(&[8, 2], ELEM, Striping::BY_ROWS, 2, Striping::BY_ROWS, 4);
        for j in 0..4 {
            let feeder = j / 2;
            for i in 0..2 {
                let bytes: usize = r.pairs[i][j].iter().map(|(s, e)| e - s).sum();
                if i == feeder {
                    assert_eq!(bytes, 8 * 2 * ELEM / 4);
                } else {
                    assert_eq!(bytes, 0);
                }
            }
        }
    }
}

#[cfg(test)]
mod cube_tests {
    use super::*;

    const ELEM: usize = 8;

    /// STAP-style data cube [channels, pulses, ranges]: striping along any
    /// of the three dimensions partitions the payload.
    #[test]
    fn three_d_stripes_partition() {
        let shape = [4usize, 6, 8];
        let total = 4 * 6 * 8 * ELEM;
        for dim in 0..3 {
            let threads = 2;
            let mut covered = vec![0u8; total];
            for t in 0..threads {
                let l = Layout::of_thread(&shape, ELEM, Striping::Striped { dim }, threads, t);
                assert_eq!(l.len(), total / threads, "dim {dim}");
                for &(s, e) in l.runs() {
                    for c in covered.iter_mut().take(e).skip(s) {
                        *c += 1;
                    }
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "dim {dim}");
        }
    }

    #[test]
    fn innermost_dim_has_most_runs() {
        let shape = [4usize, 6, 8];
        let r0 = Layout::of_thread(&shape, ELEM, Striping::Striped { dim: 0 }, 2, 0);
        let r1 = Layout::of_thread(&shape, ELEM, Striping::Striped { dim: 1 }, 2, 0);
        let r2 = Layout::of_thread(&shape, ELEM, Striping::Striped { dim: 2 }, 2, 0);
        assert_eq!(r0.runs().len(), 1); // contiguous half
        assert_eq!(r1.runs().len(), 4); // one run per channel
        assert_eq!(r2.runs().len(), 24); // one run per (channel, pulse)
    }

    #[test]
    fn cube_redistribution_pulse_to_range_conserves_bytes() {
        // Re-orienting a cube from pulse-striped to range-striped (the STAP
        // corner turn between Doppler and range processing).
        let shape = [2usize, 8, 8];
        let r = Redistribution::plan(
            &shape,
            ELEM,
            Striping::Striped { dim: 1 },
            4,
            Striping::Striped { dim: 2 },
            4,
        );
        assert_eq!(r.total_bytes(), 2 * 8 * 8 * ELEM);
        // Every pair moves an equal share (uniform all-to-all).
        for row in &r.pairs {
            for intervals in row {
                let b: usize = intervals.iter().map(|(s, e)| e - s).sum();
                assert_eq!(b, 2 * 8 * 8 * ELEM / 16);
            }
        }
    }

    #[test]
    fn local_shape_for_cubes() {
        assert_eq!(
            Layout::local_shape(&[4, 6, 8], Striping::Striped { dim: 2 }, 4),
            vec![4, 6, 2]
        );
    }
}
