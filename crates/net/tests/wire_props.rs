//! Property tests for the framed wire codec: every frame the sender can
//! construct — arbitrary tags, ranks, sequence numbers, payload sizes
//! including empty — must round-trip through encode/decode bit-exactly, and
//! any single-byte corruption of an encoded frame must be rejected with a
//! typed [`WireError`], never accepted as a different valid frame.

use proptest::prelude::*;
use sage_net::{Frame, FrameKind, WireError};

const HEADER_LEN: usize = 44;

fn kinds() -> impl Strategy<Value = FrameKind> {
    prop_oneof![
        Just(FrameKind::Hello),
        Just(FrameKind::Data),
        Just(FrameKind::Heartbeat),
        Just(FrameKind::Goodbye),
        Just(FrameKind::JobDone),
        Just(FrameKind::Reject),
        Just(FrameKind::Fleet),
    ]
}

/// Payload bytes derived from a seed so sizes and contents co-vary without
/// generating megabytes per case. Size 0 (control frames) is included.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    (0usize..=4096, 0u64..u64::MAX).prop_map(|(len, seed)| {
        (0..len)
            .map(|i| (seed.wrapping_mul(i as u64 + 1).wrapping_mul(0x9e37_79b9)) as u8)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode -> decode reconstructs every field and the payload exactly,
    /// and reports the exact number of bytes consumed.
    #[test]
    fn round_trips_bit_exactly(
        kind in kinds(),
        tag in 0u64..u64::MAX,
        src in 0u32..u32::MAX,
        dst in 0u32..u32::MAX,
        job in 0u32..u32::MAX,
        seq in 0u64..u64::MAX,
        payload in payload(),
    ) {
        let frame = Frame { kind, tag, src, dst, job, seq, payload };
        let bytes = frame.encode().unwrap();
        prop_assert_eq!(bytes.len(), HEADER_LEN + frame.payload.len());
        let (decoded, consumed) = Frame::decode(&bytes).expect("valid frame must decode");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded.kind, frame.kind);
        prop_assert_eq!(decoded.tag, frame.tag);
        prop_assert_eq!(decoded.src, frame.src);
        prop_assert_eq!(decoded.dst, frame.dst);
        prop_assert_eq!(decoded.job, frame.job);
        prop_assert_eq!(decoded.seq, frame.seq);
        prop_assert_eq!(decoded.payload, frame.payload);
    }

    /// Flipping any one byte of an encoded frame must produce a typed
    /// decode error (checksum, magic, version, kind, length...) — never a
    /// silently different frame.
    #[test]
    fn corrupted_frames_rejected_with_typed_error(
        tag in 0u64..u64::MAX,
        src in 0u32..256,
        dst in 0u32..256,
        seq in 0u64..4096,
        payload in payload(),
        victim_seed in 0usize..usize::MAX,
        flip in 1u8..=255,
    ) {
        let frame = Frame { kind: FrameKind::Data, tag, src, dst, job: 3, seq, payload };
        let mut bytes = frame.encode().unwrap();
        let victim = victim_seed % bytes.len();
        bytes[victim] ^= flip;
        match Frame::decode(&bytes) {
            Ok(_) => prop_assert!(
                false,
                "corruption at byte {} (xor {:#04x}) decoded successfully",
                victim, flip
            ),
            // Any typed wire error is a correct rejection; corruption of the
            // length field may legitimately surface as Truncated/Oversized.
            Err(
                WireError::Checksum { .. }
                | WireError::BadMagic(_)
                | WireError::BadVersion(_)
                | WireError::BadKind(_)
                | WireError::Truncated
                | WireError::Oversized(_),
            ) => {}
            Err(e) => prop_assert!(false, "unexpected error variant: {e}"),
        }
    }

    /// A truncated frame — any strict prefix of the encoding — decodes to
    /// `Truncated`, the signal to wait for more bytes.
    #[test]
    fn every_prefix_is_truncated(
        tag in 0u64..u64::MAX,
        payload in payload(),
        cut_seed in 0usize..usize::MAX,
    ) {
        let frame = Frame { kind: FrameKind::Data, tag, src: 0, dst: 1, job: 0, seq: 7, payload };
        let bytes = frame.encode().unwrap();
        let cut = cut_seed % bytes.len(); // strict prefix: 0..len-1 bytes
        match Frame::decode(&bytes[..cut]) {
            Err(WireError::Truncated) => {}
            other => prop_assert!(false, "prefix of {cut} bytes gave {other:?}"),
        }
    }
}
