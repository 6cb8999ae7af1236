//! The framed wire protocol.
//!
//! Every message on a SAGE TCP link is one length-prefixed frame:
//!
//! ```text
//! offset  size  field
//!      0     4  magic      0x53414745 ("SAGE"), big-endian
//!      4     1  version    protocol version (currently 3)
//!      5     1  kind       frame kind (Hello/Data/.../JobDone/Reject/Fleet)
//!      6     2  reserved   zero
//!      8     8  tag        message tag (Data) or kind-specific
//!     16     4  src        sending rank
//!     20     4  dst        receiving rank
//!     24     4  job        job namespace the frame belongs to (0 outside
//!                          the fleet: private meshes and control traffic)
//!     28     8  seq        per-link sequence number, strictly increasing
//!     36     4  len        payload length in bytes
//!     40     4  checksum   word-lane sum (below) of the header with this
//!                          field zeroed, combined with that of the payload
//!     44   len  payload
//! ```
//!
//! Version history: v1 had no `job` field (40-byte header, one job per
//! mesh). v2 threads a 32-bit job id through every frame so a persistent
//! fleet worker can multiplex many concurrent jobs — each with its own rank
//! namespace — over one warm mesh connection per peer. v3 keeps v2's layout
//! and changes only the checksum (byte-serial FNV-1a-32 → the word-lane
//! sum). Another version's speaker draws a typed [`WireError::BadVersion`]
//! — judged before the checksum — never a misparse.
//!
//! # The checksum
//!
//! One step absorbs a word `w` into a state `h`: `x = (h ^ w) * P` mod 2^32,
//! `P` odd (FNV-1a's step, fed 32-bit words), then `x ^ (x >> 16)`. A byte
//! string is read as little-endian words dealt round-robin to 8 independent
//! lanes, so the multiplies pipeline instead of each waiting on the last;
//! the lanes, then the up-to-7 words and up-to-3 bytes that did not fill a
//! round, are folded into one state through the same step, the state turned
//! 5 bits between words. Header (checksum field zeroed) and payload are
//! summed separately and chained through two more steps: still a
//! *whole-frame* checksum, verified on every frame before delivery.
//!
//! [`WireError::Checksum`] catches **by construction** any damage confined
//! to one aligned word of a frame (so every single-byte flip — all that the
//! chaos, mesh and property tests inject): the step is a bijection of `h`
//! for fixed `w` and of `w` for fixed `h`, so with every other byte fixed
//! the word enters its lane through a bijection and every later step — the
//! rest of the lane, the fold, the tail, the chaining — is a bijection of
//! the state it is handed; the result is injective in that word. (Damage to
//! the checksum field moves what is compared against; to magic, version or
//! kind, it is refused before the sum is looked at.)
//!
//! Damage spanning several words is caught only **by probability** — this is
//! a 32-bit multiplicative sum, not a CRC, and promises no Hamming distance
//! — 2⁻³² missed where the steps between the damaged words mix well. Bit 31
//! of `h ^ w` passes the multiply as bit 31 alone, hence the shift and the turn:
//! without `x >> 16` the flipped top bits of any two words of a lane *always*
//! cancelled (with it the least damage that always cancels is three bits:
//! bit 31 of a word, bits 31 and 15 of its lane's next, 32 bytes on); without
//! the turn a lane's last step and the fold's were one function, and one bit
//! flipped at the end of two neighbouring lanes cancelled a few times in a
//! hundred. With both, no two-bit flip of the frame in
//! `no_two_flipped_bits_cancel` cancels. A damaged `len` re-frames the
//! stream, so a different byte string is summed (past [`MAX_PAYLOAD`] it is
//! [`WireError::Oversized`]; past what ever arrives, the liveness window's).
//!
//! Decoding failures are typed ([`WireError`]), never panics, and never
//! read past `len`.

use std::io::{ErrorKind, Read, Write};

/// Frame magic: "SAGE" in ASCII.
pub const MAGIC: u32 = 0x5341_4745;
/// Current protocol version (v3: the word-lane checksum; layout as v2).
pub const VERSION: u8 = 3;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 44;
/// Maximum accepted payload (256 MiB) — bounds allocation on decode.
pub const MAX_PAYLOAD: u32 = 256 << 20;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Data-plane handshake: identifies the connecting rank.
    Hello = 1,
    /// A tagged run-time message between ranks.
    Data = 2,
    /// Periodic liveness beacon.
    Heartbeat = 3,
    // 4 and 5 belonged to the one-shot worker protocol (retired with
    // control protocol v6); they stay unassigned so an old speaker gets
    // `BadKind`, not a misread frame.
    /// Clean shutdown: the sender will transmit nothing further.
    Goodbye = 6,
    /// Job-scoped goodbye: the sender will transmit nothing further *for
    /// the frame's job id*; the link itself stays warm for other jobs.
    JobDone = 7,
    /// Typed admission/handshake rejection; payload is a serialized
    /// `RejectReason` (version mismatch, queue full, ...).
    Reject = 8,
    /// Fleet control-plane message (scheduler <-> fleet worker <->
    /// submitter); payload carries its own message-type byte.
    Fleet = 9,
}

impl FrameKind {
    /// The kind a header byte names; the codes are the discriminants above.
    fn from_u8(v: u8) -> Option<FrameKind> {
        use FrameKind::*;
        [Hello, Data, Heartbeat, Goodbye, JobDone, Reject, Fleet]
            .into_iter()
            .find(|&kind| kind as u8 == v)
    }
}

/// One wire frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind.
    pub kind: FrameKind,
    /// Message tag (meaningful for `Data`; 0 otherwise).
    pub tag: u64,
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Job namespace (0 outside the fleet).
    pub job: u32,
    /// Per-link sequence number.
    pub seq: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// A typed frame-decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The magic bytes were wrong — not a SAGE frame.
    BadMagic(u32),
    /// The protocol version is not one we speak.
    BadVersion(u8),
    /// The kind byte names no known frame kind.
    BadKind(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// An outgoing payload exceeds [`MAX_PAYLOAD`] (or `u32::MAX`) and
    /// cannot be framed: encoding it would truncate the header length
    /// field and desynchronize the stream.
    PayloadTooLarge(usize),
    /// The frame checksum did not match the received bytes.
    Checksum {
        /// Checksum declared in the header.
        expected: u32,
        /// Checksum computed over the received bytes.
        computed: u32,
    },
    /// The input ended before the declared frame did.
    Truncated,
    /// The underlying reader/writer failed.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversized(n) => write!(f, "payload of {n} bytes exceeds limit"),
            WireError::PayloadTooLarge(n) => {
                write!(f, "cannot frame {n}-byte payload (limit {MAX_PAYLOAD})")
            }
            WireError::Checksum { expected, computed } => write!(
                f,
                "frame checksum mismatch: header says {expected:#010x}, bytes hash to {computed:#010x}"
            ),
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Io(m) => write!(f, "frame i/o failed: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a's 32-bit offset basis and prime — where every sum starts, and the
/// odd constant every step multiplies by — and the lanes of the sum.
const BASIS: u32 = 0x811c_9dc5;
const PRIME: u32 = 0x0100_0193;
const LANES: usize = 8;

/// One absorption step: a bijection of `h` for fixed `w` and of `w` for
/// fixed `h`, which is the whole guarantee; the shift copies the top bits,
/// which the multiply cannot spread, down to where the next multiply does.
#[inline]
fn mix(h: u32, w: u32) -> u32 {
    let x = (h ^ w).wrapping_mul(PRIME);
    x ^ (x >> 16)
}

/// The word-lane sum of `bytes`: rounds of [`LANES`] little-endian words,
/// one per lane; then the lanes, the leftover words and the leftover bytes
/// folded into one state in that order — turned between words, so that the
/// fold is not the function a lane applies (module docs, "The checksum").
fn lane_sum(bytes: &[u8]) -> u32 {
    let (rounds, rest) = bytes.as_chunks::<{ 4 * LANES }>();
    let mut lanes = [BASIS; LANES];
    for round in rounds {
        for (lane, w) in lanes.iter_mut().zip(round.as_chunks::<4>().0) {
            *lane = mix(*lane, u32::from_le_bytes(*w));
        }
    }
    let (words, tail) = rest.as_chunks::<4>();
    let words = words.iter().map(|w| u32::from_le_bytes(*w));
    let tail = tail.iter().map(|&b| u32::from(b));
    let folded = lanes.into_iter().chain(words).chain(tail);
    folded.fold(BASIS, |h, w| mix(h.rotate_left(5), w))
}

/// Where the checksum sits in the header; summed as zero.
const CHECKSUM: std::ops::Range<usize> = 40..44;

/// The checksum of the frame made of these header bytes (whatever their
/// checksum field holds) and this payload: the bytes as they stand on the
/// wire, never a re-serialization of parsed fields — corruption in bytes no
/// field covers (e.g. reserved) must not go unnoticed.
fn checksum(mut header: [u8; HEADER_LEN], payload: &[u8]) -> u32 {
    header[CHECKSUM].fill(0);
    mix(mix(BASIS, lane_sum(&header)), lane_sum(payload))
}

/// Checks an outgoing payload length against [`MAX_PAYLOAD`] before it is
/// narrowed to the 32-bit header field. A bare `as u32` here once truncated
/// >4 GiB payloads silently, desynchronizing the stream.
fn check_len(len: usize) -> Result<u32, WireError> {
    if len > MAX_PAYLOAD as usize {
        return Err(WireError::PayloadTooLarge(len));
    }
    Ok(len as u32)
}

/// The fields of a frame header that belong to the frame (length and
/// checksum belong to its payload).
pub(crate) struct Header {
    pub(crate) kind: FrameKind,
    pub(crate) tag: u64,
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) job: u32,
    pub(crate) seq: u64,
}

impl Header {
    /// A `kind` header from `src` to `dst` in `job`, tag and sequence 0.
    pub(crate) fn new(kind: FrameKind, job: u32, src: u32, dst: u32) -> Header {
        Header {
            kind,
            tag: 0,
            src,
            dst,
            job,
            seq: 0,
        }
    }

    /// The header of a frame carrying `payload` (`len` is its checked
    /// length), checksum filled in: the one writer of the layout in the
    /// module docs.
    fn sealed(&self, len: u32, payload: &[u8]) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..4].copy_from_slice(&MAGIC.to_be_bytes());
        h[4] = VERSION;
        h[5] = self.kind as u8;
        // 6..8 reserved, zero.
        h[8..16].copy_from_slice(&self.tag.to_be_bytes());
        h[16..20].copy_from_slice(&self.src.to_be_bytes());
        h[20..24].copy_from_slice(&self.dst.to_be_bytes());
        h[24..28].copy_from_slice(&self.job.to_be_bytes());
        h[28..36].copy_from_slice(&self.seq.to_be_bytes());
        h[36..40].copy_from_slice(&len.to_be_bytes());
        let sum = checksum(h, payload);
        h[CHECKSUM].copy_from_slice(&sum.to_be_bytes());
        h
    }

    /// The stream writer behind [`write_parts`] and [`Frame::write_to`].
    pub(crate) fn write<W: Write>(&self, w: &mut W, payload: &[u8]) -> Result<(), WireError> {
        let header = self.sealed(check_len(payload.len())?, payload);
        write_all_vectored(w, &header, payload)
            .and_then(|()| w.flush())
            .map_err(|e| WireError::Io(e.to_string()))
    }

    /// The one reader of the layout in the module docs: judges 44 received
    /// bytes — magic, then version, then kind, then length — and returns the
    /// frame less its payload, the payload's length and the declared checksum.
    fn read_back(h: &[u8; HEADER_LEN]) -> Result<(Frame, usize, u32), WireError> {
        /// The `N` bytes at `h[at..at + N]`, in bounds by construction.
        fn field<const N: usize>(h: &[u8; HEADER_LEN], at: usize) -> [u8; N] {
            let mut a = [0u8; N];
            a.copy_from_slice(&h[at..at + N]);
            a
        }
        let magic = u32::from_be_bytes(field(h, 0));
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        if h[4] != VERSION {
            return Err(WireError::BadVersion(h[4]));
        }
        let frame = Frame {
            kind: FrameKind::from_u8(h[5]).ok_or(WireError::BadKind(h[5]))?,
            tag: u64::from_be_bytes(field(h, 8)),
            src: u32::from_be_bytes(field(h, 16)),
            dst: u32::from_be_bytes(field(h, 20)),
            job: u32::from_be_bytes(field(h, 24)),
            seq: u64::from_be_bytes(field(h, 28)),
            payload: Vec::new(),
        };
        let len = u32::from_be_bytes(field(h, 36));
        if len > MAX_PAYLOAD {
            return Err(WireError::Oversized(len));
        }
        let checksum = u32::from_be_bytes(field(h, CHECKSUM.start));
        Ok((frame, len as usize, checksum))
    }
}

/// How much payload room an unverified header is trusted for: a flipped
/// length byte can announce [`MAX_PAYLOAD`] and must not get it reserved on
/// its say-so. A peer that has really sent this much is believed for the
/// rest, which is then reserved exactly.
const RESERVE_AHEAD: usize = 1 << 20;

/// The one frame assembler: collect 44 header bytes → judge them → collect
/// `len` payload bytes → verify the whole frame. Fed from any [`Read`] — a
/// slice, a blocking stream, a nonblocking socket — it keeps its place when
/// the reader runs dry, so a frame may arrive in any number of pieces. The
/// header is collected in place and the payload directly in the `Vec` the
/// finished [`Frame`] owns (and the mailbox then shares with the receiver):
/// no staging buffer, no copy after the read, and one reallocation for a
/// payload longer than [`RESERVE_AHEAD`].
pub(crate) struct Assembler {
    header: [u8; HEADER_LEN],
    /// Header bytes collected so far.
    have: usize,
    payload: Vec<u8>,
}

impl Assembler {
    /// An assembler at a frame boundary.
    pub(crate) fn new() -> Assembler {
        Assembler {
            header: [0; HEADER_LEN],
            have: 0,
            payload: Vec::new(),
        }
    }

    /// Reads from `r` until one frame is whole and verified (`Some`), or
    /// `r` would block or `at_most` payload bytes have been read (`None`:
    /// nothing read is lost; call again when `r` is readable). Input ending
    /// short of a frame is [`WireError::Truncated`]; after any error the
    /// assembler must not be fed again.
    pub(crate) fn pull<R: Read>(
        &mut self,
        r: &mut R,
        at_most: usize,
    ) -> Result<Option<Frame>, WireError> {
        let dry = |e: std::io::Error| match e.kind() {
            ErrorKind::WouldBlock => Ok(None),
            _ => Err(WireError::Io(e.to_string())),
        };
        while self.have < HEADER_LEN {
            match r.read(&mut self.header[self.have..]) {
                Ok(0) => return Err(WireError::Truncated),
                Ok(n) => self.have += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return dry(e),
            }
        }
        let (mut frame, len, expected) = Header::read_back(&self.header)?;
        let mut budget = at_most;
        while self.payload.len() < len {
            if budget == 0 {
                return Ok(None);
            }
            let have = self.payload.len();
            let trusted = if have < RESERVE_AHEAD {
                len.min(RESERVE_AHEAD)
            } else {
                len
            };
            self.payload.reserve_exact(trusted - have);
            // Fills the spare capacity in place and, refused, keeps what it
            // has read so far in `payload`.
            let ask = (trusted - have).min(budget);
            match r.by_ref().take(ask as u64).read_to_end(&mut self.payload) {
                Ok(n) if n < ask => return Err(WireError::Truncated),
                Ok(n) => budget -= n,
                Err(e) => return dry(e),
            }
        }
        // The reader is at a frame boundary whatever the verdict below.
        self.have = 0;
        frame.payload = std::mem::take(&mut self.payload);
        let computed = checksum(self.header, &frame.payload);
        if computed != expected {
            return Err(WireError::Checksum { expected, computed });
        }
        Ok(Some(frame))
    }
}

/// Writes one frame from its parts as vectored header+payload I/O.
///
/// The header lives on the stack and the payload is written straight from
/// the caller's slice — no per-frame assembly buffer, no payload copy.
/// This is the hot-path writer: [`Frame::write_to`] goes the same way, and
/// the mesh writes queued [`Payload`](sage_fabric::Payload)s and beats
/// through it without ever constructing a `Frame`.
// Eight positional arguments because `benchmark/src/cells.rs::wire_codec`
// calls it this way and `benchmark/` is frozen.
#[allow(clippy::too_many_arguments)]
pub fn write_parts<W: Write>(
    w: &mut W,
    kind: FrameKind,
    tag: u64,
    src: u32,
    dst: u32,
    job: u32,
    seq: u64,
    payload: &[u8],
) -> Result<(), WireError> {
    let header = Header {
        tag,
        seq,
        ..Header::new(kind, job, src, dst)
    };
    header.write(w, payload)
}

/// Drives `write_vectored` until both slices are fully written, falling
/// back gracefully on writers that consume partial buffers. `WouldBlock`
/// is an error like any other: a nonblocking socket is written through an
/// adaptor that waits for writability (the mesh's `LinkWriter`), so
/// the framing layer neither sleeps nor knows what a socket is.
fn write_all_vectored<W: Write>(
    w: &mut W,
    mut header: &[u8],
    mut payload: &[u8],
) -> std::io::Result<()> {
    while !header.is_empty() || !payload.is_empty() {
        let bufs = [
            std::io::IoSlice::new(header),
            std::io::IoSlice::new(payload),
        ];
        let n = match w.write_vectored(&bufs) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "frame write stalled",
            ));
        }
        if n >= header.len() {
            payload = &payload[n - header.len()..];
            header = &header[header.len()..];
        } else {
            header = &header[n..];
        }
    }
    Ok(())
}

impl Frame {
    /// A data frame in job namespace 0 (a private mesh's one job).
    pub fn data(src: u32, dst: u32, tag: u64, seq: u64, payload: Vec<u8>) -> Frame {
        Frame {
            kind: FrameKind::Data,
            tag,
            src,
            dst,
            job: 0,
            seq,
            payload,
        }
    }

    /// A payload-less control frame (job namespace 0).
    pub fn control(kind: FrameKind, src: u32, dst: u32, seq: u64) -> Frame {
        Frame {
            kind,
            tag: 0,
            src,
            dst,
            job: 0,
            seq,
            payload: Vec::new(),
        }
    }

    /// Builder: re-tags the frame into a job namespace.
    pub fn in_job(mut self, job: u32) -> Frame {
        self.job = job;
        self
    }

    fn header(&self) -> Header {
        Header {
            tag: self.tag,
            seq: self.seq,
            ..Header::new(self.kind, self.job, self.src, self.dst)
        }
    }

    /// Serializes the frame (header + payload).
    ///
    /// Rejects payloads longer than [`MAX_PAYLOAD`] with
    /// [`WireError::PayloadTooLarge`] instead of truncating the length
    /// field.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        self.write_to(&mut out)?;
        Ok(out)
    }

    /// Decodes one frame from the front of `buf`, returning the frame and
    /// the number of bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), WireError> {
        let mut rest = buf;
        let frame = Frame::read_from(&mut rest)?;
        Ok((frame, buf.len() - rest.len()))
    }

    /// Writes the frame to a stream without building an assembly buffer
    /// (see [`write_parts`]).
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), WireError> {
        self.header().write(w, &self.payload)
    }

    /// Reads exactly one frame from a stream, its payload directly into
    /// the returned frame's `Vec` (the frame assembler, run to completion
    /// on a reader that waits).
    ///
    /// A clean EOF before the first header byte returns `Truncated`; so
    /// does an EOF mid-frame (the reader can distinguish via the stream
    /// state if it needs to).
    pub fn read_from<R: Read>(r: &mut R) -> Result<Frame, WireError> {
        let refused = || WireError::Io(std::io::Error::from(ErrorKind::WouldBlock).to_string());
        Assembler::new().pull(r, usize::MAX)?.ok_or_else(refused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Assembler {
        /// Payload capacity held for the frame in progress.
        pub(crate) fn reserved(&self) -> usize {
            self.payload.capacity()
        }
    }

    fn sample() -> Frame {
        Frame::data(2, 5, 0xdead_beef, 42, vec![1, 2, 3, 4, 5]).in_job(9)
    }

    #[test]
    fn round_trip() {
        let f = sample();
        let bytes = f.encode().unwrap();
        let (g, n) = Frame::decode(&bytes).unwrap();
        assert_eq!(n, bytes.len());
        assert_eq!(f, g);
        assert_eq!(g.job, 9);
    }

    #[test]
    fn empty_payload_round_trips() {
        let f = Frame::control(FrameKind::Heartbeat, 0, 1, 7);
        let (g, n) = Frame::decode(&f.encode().unwrap()).unwrap();
        assert_eq!(n, HEADER_LEN);
        assert_eq!(f, g);
    }

    #[test]
    fn job_scoped_kinds_round_trip() {
        for kind in [FrameKind::JobDone, FrameKind::Reject, FrameKind::Fleet] {
            let f = Frame::control(kind, 3, 1, 11).in_job(77);
            let (g, _) = Frame::decode(&f.encode().unwrap()).unwrap();
            assert_eq!(g.kind, kind);
            assert_eq!(g.job, 77);
        }
    }

    #[test]
    fn older_versions_rejected_with_typed_version_error() {
        // A v1 header (40 bytes, no job field) and a v2 frame (this layout
        // under the FNV-1a checksum) lead with the same magic; decoding
        // must fail on the version byte — not misparse the layout, and not
        // get as far as a checksum the old speaker computed differently.
        for old in [1, 2] {
            let mut bytes = sample().encode().unwrap();
            bytes[4] = old;
            assert_eq!(
                Frame::decode(&bytes).unwrap_err(),
                WireError::BadVersion(old)
            );
        }
    }

    /// A payload whose bytes all differ from their neighbours.
    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn every_single_byte_corruption_detected() {
        // Lengths crossing every boundary of the sum: whole rounds of 32,
        // leftover words, leftover bytes, and none of each.
        for len in 0..=131 {
            let bytes = Frame::data(2, 5, 0xdead_beef, 42, patterned(len))
                .in_job(9)
                .encode()
                .unwrap();
            for i in 0..bytes.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut bad = bytes.clone();
                    bad[i] ^= flip;
                    assert!(
                        Frame::decode(&bad).is_err(),
                        "{len}-byte payload: corruption at byte {i} (xor {flip:#x}) went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn one_flipped_byte_in_a_mebibyte_is_a_checksum_error() {
        let bytes = Frame::data(0, 1, 7, 1, patterned(1 << 20))
            .encode()
            .unwrap();
        for at in [HEADER_LEN + 2, HEADER_LEN + (1 << 19) + 1, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert!(
                matches!(Frame::decode(&bad), Err(WireError::Checksum { .. })),
                "flipped byte {at} of {} went undetected",
                bytes.len()
            );
        }
    }

    #[test]
    fn no_two_flipped_bits_cancel() {
        // Not a guarantee of the sum (module docs) but a tripwire for its
        // structure: a step that lets a flipped bit through unspread, or a
        // fold that mirrors the lanes, misses thousands of these pairs.
        // 75 bytes: two rounds, two leftover words, three leftover bytes.
        let payload = patterned(75);
        let header = Frame::data(2, 5, 0xdead_beef, 42, Vec::new())
            .header()
            .sealed(75, &payload);
        let good = checksum(header, &payload);
        let mut bytes = [&header[..CHECKSUM.start], &payload[..]].concat();
        let sum = |b: &[u8]| {
            let mut header = [0; HEADER_LEN];
            header[..CHECKSUM.start].copy_from_slice(&b[..CHECKSUM.start]);
            checksum(header, &b[CHECKSUM.start..])
        };
        assert_eq!(sum(&bytes), good);
        for i in 0..bytes.len() * 8 {
            for j in i + 1..bytes.len() * 8 {
                bytes[i / 8] ^= 1 << (i % 8);
                bytes[j / 8] ^= 1 << (j % 8);
                assert_ne!(sum(&bytes), good, "bits {i} and {j} cancel");
                bytes[i / 8] ^= 1 << (i % 8);
                bytes[j / 8] ^= 1 << (j % 8);
            }
        }
    }

    #[test]
    fn the_top_bits_of_two_words_do_not_cancel() {
        // Bit 31 of a word goes through the multiply as bit 31 alone and
        // bit 30 nearly so: a step without the shift does not notice xor
        // 0x80 at payload offsets 3 and 35, nor a fold without the turn the
        // same at the ends of two neighbouring lanes. Every pair of top
        // bytes — same lane, other lanes, leftover words — over several
        // lengths and contents.
        for len in [64, 203, 300] {
            for salt in 0..4u8 {
                let payload: Vec<u8> = patterned(len).iter().map(|b| b ^ (salt * 37)).collect();
                let bytes = Frame::data(0, 1, 7, 1, payload).encode().unwrap();
                let tops: Vec<usize> = (HEADER_LEN + 3..bytes.len()).step_by(4).collect();
                for (n, &i) in tops.iter().enumerate() {
                    for &j in &tops[n + 1..] {
                        for flip in [0x80u8, 0x40, 0xC0] {
                            let mut bad = bytes.clone();
                            bad[i] ^= flip;
                            bad[j] ^= flip;
                            assert!(
                                matches!(Frame::decode(&bad), Err(WireError::Checksum { .. })),
                                "{len} bytes, salt {salt}: xor {flip:#x} at {i} and {j} went undetected"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().encode().unwrap();
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            assert_eq!(
                Frame::decode(&bytes[..cut]).unwrap_err(),
                WireError::Truncated
            );
        }
    }

    #[test]
    fn oversized_rejected_before_allocation() {
        let mut bytes = sample().encode().unwrap();
        bytes[36..40].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            Frame::decode(&bytes).unwrap_err(),
            WireError::Oversized(_)
        ));
    }

    #[test]
    fn payload_too_large_rejected_at_encode() {
        // One byte past the limit: the old `len as u32` narrowing would
        // have accepted this (and silently truncated anything past 4 GiB).
        let f = Frame::data(0, 1, 0, 0, vec![0u8; MAX_PAYLOAD as usize + 1]);
        assert_eq!(
            f.encode().unwrap_err(),
            WireError::PayloadTooLarge(MAX_PAYLOAD as usize + 1)
        );
        let mut sink = Vec::new();
        assert_eq!(
            f.write_to(&mut sink).unwrap_err(),
            WireError::PayloadTooLarge(MAX_PAYLOAD as usize + 1)
        );
        assert!(sink.is_empty(), "nothing may reach the stream");
        let e = write_parts(&mut sink, FrameKind::Data, 0, 0, 1, 0, 0, &f.payload).unwrap_err();
        assert!(matches!(e, WireError::PayloadTooLarge(_)));
        assert!(e.to_string().contains("cannot frame"));
    }

    #[test]
    fn stream_read_write() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        Frame::control(FrameKind::Goodbye, 1, 0, 9)
            .write_to(&mut buf)
            .unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), sample());
        assert_eq!(
            Frame::read_from(&mut cursor).unwrap().kind,
            FrameKind::Goodbye
        );
        assert_eq!(
            Frame::read_from(&mut cursor).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn a_payload_past_the_trusted_length_ends_in_an_exact_allocation() {
        let len = RESERVE_AHEAD + 70_001;
        let bytes = Frame::data(0, 1, 7, 1, patterned(len)).encode().unwrap();
        let whole = Frame::read_from(&mut &bytes[..]).unwrap();
        assert_eq!((whole.payload.len(), whole.payload.capacity()), (len, len));
        // In passes of a few KiB: each reads its share and yields.
        let (mut rest, mut assembler, mut passes) = (&bytes[..], Assembler::new(), 1);
        let frame = loop {
            let before = rest.len();
            match assembler.pull(&mut rest, 4096).unwrap() {
                Some(frame) => break frame,
                None => assert_eq!(
                    before - rest.len(),
                    4096 + HEADER_LEN * usize::from(passes == 1)
                ),
            }
            assert!(assembler.reserved() <= len);
            passes += 1;
        };
        assert_eq!(passes, len.div_ceil(4096));
        assert_eq!(frame.payload.capacity(), len);
        assert_eq!(frame, whole);
    }

    #[test]
    fn a_socket_that_would_block_is_an_error_for_read_from_and_a_pause_for_the_assembler() {
        use std::os::unix::net::UnixStream;
        let (mut tx, rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        let bytes = sample().encode().unwrap();
        let (head, tail) = bytes.split_at(HEADER_LEN + 2);
        let mut assembler = Assembler::new();
        assert_eq!(assembler.pull(&mut &rx, usize::MAX), Ok(None));
        tx.write_all(head).unwrap();
        assert_eq!(assembler.pull(&mut &rx, usize::MAX), Ok(None));
        assert_eq!(assembler.pull(&mut &rx, usize::MAX), Ok(None));
        tx.write_all(tail).unwrap();
        assert_eq!(assembler.pull(&mut &rx, usize::MAX), Ok(Some(sample())));
        assert_eq!(assembler.reserved(), 0, "the payload left with its frame");
        // Back at a frame boundary: the next frame starts clean.
        tx.write_all(&bytes).unwrap();
        assert_eq!(assembler.pull(&mut &rx, usize::MAX), Ok(Some(sample())));
        // `read_from` has nowhere to keep half a frame.
        tx.write_all(head).unwrap();
        assert!(matches!(
            Frame::read_from(&mut &rx).unwrap_err(),
            WireError::Io(_)
        ));
    }
}
