//! Cheaply-clonable payload buffers for the data plane.
//!
//! A [`Payload`] is a reference-counted byte buffer: cloning one bumps an
//! `Arc` instead of copying bytes, so same-node hand-offs, mailbox
//! deliveries and sink deposits share a single allocation. Mutation is
//! copy-on-write — a uniquely-owned payload mutates in place (which is what
//! makes repacking a staged message across iterations free,
//! [`Payload::rescratch`]), while a shared one is copied first by
//! `Arc::make_mut`.
//!
//! Large payloads are *physical* buffers (paper §3.4's logical → physical
//! mapping): storage with a lifetime, recycled rather than returned to the
//! allocator. The pool has exactly two ends, both in this file — the
//! allocating constructors ([`Payload::zeroed`], [`Payload::scratch`]) take
//! from it and the drop of a payload's last handle gives back to it — so no
//! call site registers or returns a buffer by hand. It is process-wide
//! because the rank threads of a run do not outlive it, while the buffers a
//! run's sink deposits held are released only after it.

use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

/// Payloads shorter than this go to the allocator exactly as before; at and
/// above it they are recycled.
///
/// Chosen by measurement (EXPERIMENTS.md "PR 23", two threads respawned per
/// run as `Cluster::run` does, each obtaining a zeroed buffer and writing it
/// once, 24 buffers live per thread as a run's sink deposits are): below
/// 32 KiB malloc's per-thread caches beat a mutex and a scan (4 KiB: fresh
/// 0.38 us, recycled 0.70 us), 32-64 KiB is a tie (1.61 / 1.66 us,
/// 3.78 / 3.67 us), and from 128 KiB — glibc's `M_MMAP_THRESHOLD`, where a
/// fresh `calloc` starts costing a page fault per 4 KiB — recycling wins
/// and keeps widening (128 KiB: 10.5 / 8.4 us; 512 KiB: 72.6 / 34.6 us;
/// 1 MiB: 256 / 82 us).
const POOL_FLOOR: usize = 128 * 1024;

/// Most bytes (of capacity) the pool retains; the oldest buffers are freed
/// first once a returned one would exceed it.
///
/// It has to hold what one run of the largest benchmark workload releases
/// when it ends — `corner_turn_512_local`'s sink deposits, 24 frames x 2
/// ranks x 1 MiB = 48 MiB — plus the few MiB cycling through a frame, or the
/// next run starts by re-faulting what the last one freed. Measured there
/// (EXPERIMENTS.md "PR 23", median frames/s of five interleaved 6 s passes):
/// 4 MiB 738, 8 MiB 810, 16 MiB 856, 32 MiB 907, 64 MiB 954, and no more
/// beyond it (64 MiB 979 against 128 MiB 980 in a second session). A
/// long-lived daemon keeps at most this much beyond its live data, and
/// nothing at all until it has run a job with stripes at or above the floor.
const POOL_CAP: usize = 64 * 1024 * 1024;

/// Recycled buffers, oldest first, with the capacity they hold in total.
struct Pool {
    free: VecDeque<Vec<u8>>,
    retained: usize,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    free: VecDeque::new(),
    retained: 0,
});

/// `n` initialised bytes for a new payload: the one place that decides
/// whether storage is recycled or fresh. A recycled buffer (the most
/// recently returned one of exactly `n` bytes) keeps its old contents
/// unless `zero`; a fresh one is always zero-filled. A poisoned pool
/// degrades to the allocator.
fn take(n: usize, zero: bool) -> Vec<u8> {
    if n >= POOL_FLOOR {
        let recycled = POOL.lock().ok().and_then(|mut pool| {
            let at = pool.free.iter().rposition(|b| b.len() == n)?;
            let buf = pool.free.remove(at)?;
            pool.retained -= buf.capacity();
            Some(buf)
        });
        if let Some(mut buf) = recycled {
            if zero {
                buf.fill(0);
            }
            return buf;
        }
    }
    vec![0; n]
}

/// The other end: called with the storage of a payload whose last handle
/// just dropped.
fn give(buf: Vec<u8>) {
    if buf.len() < POOL_FLOOR || buf.capacity() > POOL_CAP {
        return;
    }
    if let Ok(mut pool) = POOL.lock() {
        pool.retained += buf.capacity();
        pool.free.push_back(buf);
        while pool.retained > POOL_CAP {
            let Some(oldest) = pool.free.pop_front() else {
                break;
            };
            pool.retained -= oldest.capacity();
        }
    }
}

/// A payload's storage. Dropping it — which `Arc` does exactly once, when
/// the last handle goes — returns the bytes to the pool.
#[derive(Default, PartialEq, Eq)]
struct Storage(Vec<u8>);

impl Clone for Storage {
    /// The copy half of copy-on-write: always a fresh allocation.
    fn clone(&self) -> Storage {
        Storage(self.0.clone())
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.0));
    }
}

/// A reference-counted, copy-on-write byte buffer.
///
/// Dereferences to `[u8]` for reading; mutable access goes through
/// [`Payload::to_mut`] (or `DerefMut`), which copies only when the buffer
/// is shared.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Payload {
    bytes: Arc<Storage>,
}

impl Payload {
    /// An empty payload.
    pub fn new() -> Payload {
        Payload::default()
    }

    /// A zero-filled payload of `n` bytes (recycled storage is re-zeroed).
    pub fn zeroed(n: usize) -> Payload {
        Payload::from_vec(take(n, true))
    }

    /// A payload of `n` initialised bytes of *unspecified* value — zeros
    /// from the allocator or whatever a recycled buffer last held, never
    /// uninitialised memory. For a buffer the caller can prove it
    /// overwrites completely before anything reads it; everything else
    /// wants [`Payload::zeroed`].
    pub fn scratch(n: usize) -> Payload {
        Payload::from_vec(take(n, false))
    }

    /// Makes `self` a uniquely owned payload of `n` bytes with
    /// [`Payload::scratch`]'s contract and returns the bytes: in place when
    /// it already is one — a sender's handle on its previous message, once
    /// every receiver has dropped theirs — and from [`Payload::scratch`]
    /// otherwise. Reusing the handle is the only way to send a small
    /// message without allocating, which the pool's floor leaves to malloc.
    pub fn rescratch(&mut self, n: usize) -> &mut [u8] {
        if !self.is_unique() || self.len() != n {
            *self = Payload::scratch(n);
        }
        self.to_mut()
    }

    /// Wraps an owned vector without copying.
    pub fn from_vec(bytes: Vec<u8>) -> Payload {
        Payload {
            bytes: Arc::new(Storage(bytes)),
        }
    }

    /// `true` when this is the only handle on the allocation, i.e. mutation
    /// and [`Payload::into_vec`] are free. Crate-private: whether a buffer
    /// can be reused is [`Payload::rescratch`]'s decision, not a caller's.
    pub(crate) fn is_unique(&self) -> bool {
        Arc::strong_count(&self.bytes) == 1
    }

    /// Mutable access to the backing vector, copying first if shared.
    pub fn to_mut(&mut self) -> &mut Vec<u8> {
        &mut Arc::make_mut(&mut self.bytes).0
    }

    /// Recovers the owned vector: free when unique, one copy when shared.
    /// The vector leaves the pool's custody for good.
    pub fn into_vec(self) -> Vec<u8> {
        match Arc::try_unwrap(self.bytes) {
            Ok(mut storage) => std::mem::take(&mut storage.0),
            Err(shared) => shared.0.clone(),
        }
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes.0
    }
}

impl DerefMut for Payload {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.to_mut().as_mut_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Payload {
        Payload::from_vec(bytes)
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Payload {
        Payload::from_vec(bytes.to_vec())
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(bytes: &[u8; N]) -> Payload {
        Payload::from_vec(bytes.to_vec())
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self[..] == **other
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        **self == other[..]
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes", self.len())?;
        if !self.is_unique() {
            write!(f, ", shared")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_allocation() {
        let a = Payload::from_vec(vec![1, 2, 3]);
        let b = a.clone();
        assert!(!a.is_unique());
        assert!(!b.is_unique());
        assert_eq!(a.as_ptr(), b.as_ptr());
        drop(b);
        assert!(a.is_unique());
    }

    #[test]
    fn mutation_is_copy_on_write() {
        let mut a = Payload::from_vec(vec![1, 2, 3]);
        let b = a.clone();
        a.to_mut()[0] = 9;
        assert_eq!(a, vec![9, 2, 3]);
        assert_eq!(b, vec![1, 2, 3]);
        assert!(a.is_unique());
    }

    #[test]
    fn unique_mutation_keeps_allocation() {
        let mut a = Payload::from_vec(vec![0; 16]);
        let ptr = a.as_ptr();
        a[3] = 7;
        assert_eq!(a.as_ptr(), ptr);
        assert_eq!(a[3], 7);
    }

    #[test]
    fn into_vec_round_trips() {
        let a = Payload::from(&b"abc"[..]);
        let shared = a.clone();
        assert_eq!(a.into_vec(), b"abc".to_vec());
        assert_eq!(shared.into_vec(), b"abc".to_vec());
    }

    #[test]
    fn zeroed_and_eq() {
        let z = Payload::zeroed(4);
        assert_eq!(z, vec![0u8; 4]);
        assert_eq!(z, &[0u8, 0, 0, 0]);
        assert_eq!(z.len(), 4);
        assert!(!z.is_empty());
        assert!(Payload::new().is_empty());
    }

    /// Tests that depend on what the pool retains take this lock, so the
    /// cap test's churn cannot evict a buffer another one expects back.
    static RETENTION: Mutex<()> = Mutex::new(());

    fn retention() -> std::sync::MutexGuard<'static, ()> {
        RETENTION.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// `(retained counter, capacity actually held)`.
    fn pool_bytes() -> (usize, usize) {
        let pool = POOL.lock().unwrap();
        (
            pool.retained,
            pool.free.iter().map(|b| b.capacity()).sum::<usize>(),
        )
    }

    #[test]
    fn zeroed_is_all_zero_after_recycling_a_dirty_buffer() {
        let _guard = retention();
        let n = POOL_FLOOR + 24;
        let mut dirty = Payload::zeroed(n);
        dirty.fill(0xFF);
        let ptr = dirty.as_ptr();
        drop(dirty);
        // Scratch hands the recycled bytes over as they are...
        let scratch = Payload::scratch(n);
        assert_eq!(scratch.as_ptr(), ptr, "the buffer was recycled");
        assert!(scratch.iter().all(|&b| b == 0xFF));
        drop(scratch);
        // ...zeroed never does.
        let clean = Payload::zeroed(n);
        assert_eq!(clean.as_ptr(), ptr, "the buffer was recycled");
        assert!(clean.iter().all(|&b| b == 0));
    }

    #[test]
    fn rescratch_repacks_in_place_only_when_no_one_else_holds_the_message() {
        let mut staged = Payload::new();
        staged.rescratch(64).fill(1);
        let ptr = staged.as_ptr();
        staged.rescratch(64).fill(2);
        assert_eq!(staged.as_ptr(), ptr, "unique and the right length: reused");
        let receiver = staged.clone();
        staged.rescratch(64).fill(3);
        assert_ne!(
            staged.as_ptr(),
            ptr,
            "the receiver still reads the old message"
        );
        assert!(receiver.iter().all(|&b| b == 2));
        drop(receiver);
        assert_eq!(staged.rescratch(32).len(), 32);
    }

    /// Asks only about the dropped buffer itself: other tests in this
    /// binary move the pool's totals while this one runs.
    #[test]
    fn buffers_below_the_floor_go_back_to_the_allocator() {
        let n = POOL_FLOOR - 8;
        let small = Payload::from_vec(vec![0xFF; n]);
        let ptr = small.as_ptr();
        drop(small);
        let pooled = POOL.lock().unwrap().free.iter().any(|b| b.as_ptr() == ptr);
        assert!(!pooled, "a buffer below the floor was pooled");
        assert!(Payload::scratch(n).iter().all(|&b| b == 0));
    }

    #[test]
    fn into_vec_takes_the_buffer_out_of_the_pool_for_good() {
        let _guard = retention();
        let n = POOL_FLOOR + 40;
        let owned = Payload::zeroed(n).into_vec();
        let ptr = owned.as_ptr();
        // The vector is the caller's: nothing else may be handed its bytes.
        let other = Payload::scratch(n);
        assert_ne!(other.as_ptr(), ptr);
        assert_eq!(owned.len(), n);
    }

    #[test]
    fn retained_bytes_never_exceed_the_cap() {
        let _guard = retention();
        // Ten caps' worth of distinct lengths, so nothing is ever taken
        // back out: every drop is a retention decision. (The buffers are
        // untouched `calloc` pages; the test costs address space, not RSS.)
        let mut passed = 0;
        let mut n = POOL_FLOOR + 4096;
        while passed < 10 * POOL_CAP {
            drop(Payload::from_vec(vec![0; n]));
            let (retained, held) = pool_bytes();
            assert_eq!(retained, held, "the counter drifted from the contents");
            assert!(retained <= POOL_CAP, "{retained} bytes retained");
            passed += n;
            n += 8;
        }
        // It is a cap, not a refusal: the pool is full to within one buffer.
        assert!(pool_bytes().0 > POOL_CAP - n);
        // A buffer that alone exceeds the cap is never retained.
        let before = pool_bytes();
        drop(Payload::from_vec(Vec::with_capacity(POOL_CAP + 1)));
        assert_eq!(pool_bytes(), before);
    }

    /// Interleaves every operation that can move a buffer into or out of
    /// the pool and checks, after each step, that storage is shared exactly
    /// between clones: a recycled buffer reachable from two unrelated live
    /// payloads would show up as an equal pointer or a foreign stamp.
    #[test]
    fn a_recycled_buffer_is_never_reachable_from_two_live_handles() {
        use rand::{Rng, SeedableRng};
        let lens = [POOL_FLOOR + 56, POOL_FLOOR + 64, 2 * POOL_FLOOR + 56, 64];
        let stamp_of = |family: u32| (family % 251 + 1) as u8;
        for seed in 0..6 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Live payloads with the clone family each belongs to; a family
            // shares one buffer stamped with one byte.
            let mut live: Vec<(Payload, u32)> = Vec::new();
            let mut families = 0u32;
            for _ in 0..300 {
                let pick = |rng: &mut rand::rngs::StdRng, n: usize| rng.random_range(0..n);
                let op = if live.len() < 2 {
                    0
                } else if live.len() > 12 {
                    3
                } else {
                    rng.random_range(0..7u32)
                };
                match op {
                    0 | 1 => {
                        let n = lens[pick(&mut rng, lens.len())];
                        let mut p = if op == 0 {
                            let p = Payload::zeroed(n);
                            assert!(p[0] == 0 && p[n / 2] == 0 && p[n - 1] == 0);
                            p
                        } else {
                            Payload::scratch(n)
                        };
                        families += 1;
                        p.fill(stamp_of(families));
                        live.push((p, families));
                    }
                    2 => {
                        let (p, family) = &live[pick(&mut rng, live.len())];
                        live.push((p.clone(), *family));
                    }
                    3 => {
                        live.swap_remove(pick(&mut rng, live.len()));
                    }
                    4 => {
                        // Copy-on-write: a shared payload leaves its family.
                        let at = pick(&mut rng, live.len());
                        let (p, family) = &mut live[at];
                        if !p.is_unique() {
                            families += 1;
                            *family = families;
                        }
                        let stamp = stamp_of(*family);
                        p.to_mut().fill(stamp);
                    }
                    5 => {
                        // A sender repacking its staged message: in place
                        // only if no one else still holds it.
                        let at = pick(&mut rng, live.len());
                        let n = lens[pick(&mut rng, lens.len())];
                        let (p, family) = &mut live[at];
                        if !p.is_unique() || p.len() != n {
                            families += 1;
                            *family = families;
                        }
                        let stamp = stamp_of(*family);
                        p.rescratch(n).fill(stamp);
                    }
                    _ => {
                        // Out of the pool's custody and back in by hand.
                        let (p, _) = live.swap_remove(pick(&mut rng, live.len()));
                        let mut v = p.into_vec();
                        families += 1;
                        v.fill(stamp_of(families));
                        live.push((Payload::from_vec(v), families));
                    }
                }
                for (i, (a, fa)) in live.iter().enumerate() {
                    let n = a.len();
                    let stamp = stamp_of(*fa);
                    assert!(
                        a[0] == stamp && a[n / 2] == stamp && a[n - 1] == stamp,
                        "seed {seed}: payload {i} was written through another handle"
                    );
                    for (b, fb) in &live[i + 1..] {
                        assert_eq!(
                            a.as_ptr() == b.as_ptr(),
                            fa == fb,
                            "seed {seed}: storage shared across families {fa} and {fb}"
                        );
                    }
                }
            }
        }
    }
}
