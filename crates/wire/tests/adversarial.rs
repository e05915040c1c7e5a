//! Adversarial decode suite (DESIGN.md §5i): the zero-copy views must be
//! total over arbitrary radio input. Truncated, bit-flipped, oversized and
//! zero-length frames must never panic in [`PackedView`] / [`FrameView`]
//! parsing or accessors, must map onto the pinned [`WireError`] taxonomy,
//! and must be classified exactly like the owned oracle codec. A seeded
//! corpus pins the known nasty shapes; proptest explores (and shrinks)
//! beyond it.

use bytes::Bytes;
use omni_wire::{
    frame, FrameView, OmniAddress, PackedStruct, PackedView, RelayHeader, TraceId, WireError,
    HEADER_LEN, RELAY_FLAG, RELAY_LEN, TRACE_FLAG, TRACE_LEN,
};
use proptest::prelude::*;

/// Drives every parser and every accessor over one input; panics here fail
/// the test, and Ok/Err classification must agree with the owned oracle.
fn exercise(input: &[u8]) {
    let owned = PackedStruct::decode(input);
    match PackedView::parse(input) {
        Ok(view) => {
            let owned = owned.expect("view parsed but owned decode rejected");
            // Every accessor must be panic-free and agree with the oracle.
            assert_eq!(view.kind(), owned.kind);
            assert_eq!(view.source(), owned.source);
            assert_eq!(view.trace(), owned.trace);
            assert_eq!(view.relay().map(|r| r.to_owned()), owned.relay);
            assert_eq!(view.payload(), &owned.payload[..]);
            assert_eq!(view.as_bytes(), input);
            assert_eq!(view.to_owned(), owned);
        }
        Err(e) => {
            assert_taxonomy(&e);
            assert_eq!(Err(e), owned, "view and owned decode disagree on rejection");
        }
    }

    let shared = Bytes::copy_from_slice(input);
    match PackedStruct::decode_shared(&shared) {
        Ok(p) => assert_eq!(Ok(p), PackedStruct::decode(input)),
        Err(e) => assert_eq!(Err(e), PackedStruct::decode(input)),
    }

    // Frame-level parsing: total, and classification agrees with the owned
    // parse_for for addressees and bystanders alike.
    let who = [OmniAddress::from_u64(0xAB), OmniAddress::from_u64(read_candidate_dest(input))];
    if let Err(e) = FrameView::parse(input) {
        assert_taxonomy(&e);
    }
    for own in who {
        assert_eq!(frame::parse_for_shared(own, &shared), frame::parse_for(own, input));
        assert_eq!(frame::parse_for_owned(own, shared.clone()), frame::parse_for(own, input));
    }
    // Peek helpers are total too.
    let _ = PackedStruct::peek_trace(input);
    let _ = frame::frame_trace(input);
    let _ = frame::directed_trace(input);
}

/// The destination a tagged frame claims, so `exercise` also probes the
/// "addressed to me" paths on adversarial input.
fn read_candidate_dest(input: &[u8]) -> u64 {
    let mut raw = [0u8; 8];
    let tail = input.get(1..).unwrap_or(&[]);
    let n = tail.len().min(8);
    raw[..n].copy_from_slice(&tail[..n]);
    u64::from_be_bytes(raw)
}

/// Every error must be one of the pinned taxonomy variants with sane fields —
/// the enum is `#[non_exhaustive]`, so this guards against new variants
/// leaking out of the decode paths unaudited.
fn assert_taxonomy(e: &WireError) {
    match *e {
        WireError::Truncated { needed, got } => assert!(got < needed, "{e:?}"),
        WireError::UnknownKind(k) => assert!(k > 2, "{e:?}"),
        WireError::BadBeaconLength(_) | WireError::PayloadTooLarge { .. } => {
            panic!("decode paths must not produce {e:?}")
        }
        _ => panic!("unpinned error variant {e:?}"),
    }
}

fn valid_frames() -> Vec<Bytes> {
    let src = OmniAddress::from_u64(0x0123_4567_89ab_cdef);
    let me = OmniAddress::from_u64(0xAB);
    let t = TraceId::derive(src, 1);
    let relay = RelayHeader::new(OmniAddress::from_u64(9), 5).with_copies(3);
    let full = PackedStruct::data(src, &b"payload"[..]).with_trace(t).with_relay(relay);
    vec![
        PackedStruct::context(src, Bytes::new()).encode(),
        PackedStruct::data(src, &b"hi"[..]).encode(),
        full.encode(),
        frame::encode_directed(me, &full),
        frame::encode_acked(me, 0xC0FFEE, &full),
        frame::encode_ack(me, 42, None),
        frame::encode_ack(me, 42, Some(t)),
    ]
}

/// Seeded corpus: the shapes that found (or nearly found) real bugs while
/// the views were being written, pinned so they can never regress silently.
#[test]
fn seeded_corpus_never_panics() {
    let mut corpus: Vec<Vec<u8>> = vec![
        vec![],
        vec![0x00],
        vec![frame::DATA_TAG],
        vec![frame::ACKED_TAG],
        vec![frame::ACK_TAG],
        // Headers that promise trailing fields the buffer doesn't have.
        vec![TRACE_FLAG, 0, 0, 0, 0, 0, 0, 0, 0],
        vec![RELAY_FLAG | 1, 0, 0, 0, 0, 0, 0, 0, 0],
        vec![TRACE_FLAG | RELAY_FLAG | 2; HEADER_LEN + TRACE_LEN + RELAY_LEN - 1],
        // Flagged-but-zero trace, the canonicalizing decode corner.
        {
            let mut v = vec![TRACE_FLAG | 2];
            v.extend_from_slice(&[0u8; 8 + TRACE_LEN]);
            v.push(0xab);
            v
        },
        // An ack exactly at, and one byte inside, the traced-length boundary.
        vec![frame::ACK_TAG; 24],
        vec![frame::ACK_TAG; 25],
        // Oversized: a 1 MiB payload must decode, not overflow or OOM-loop.
        {
            let mut v = vec![0x02];
            v.extend_from_slice(&[0x11; 8]);
            v.extend_from_slice(&vec![0xEE; 1 << 20]);
            v
        },
    ];
    // All 256 first bytes over a minimal tail: tag dispatch must be total.
    for b in 0..=255u8 {
        corpus.push(vec![b]);
        let mut v = vec![b];
        v.extend_from_slice(&[0x5A; HEADER_LEN - 1]);
        corpus.push(v);
    }
    // Every truncation of every valid frame shape.
    for f in valid_frames() {
        for len in 0..f.len() {
            corpus.push(f[..len].to_vec());
        }
    }
    for input in &corpus {
        exercise(input);
    }
}

/// Exhaustive single-bit corruption of every valid frame shape: each flip
/// either still decodes (both codecs agreeing on every field) or is rejected
/// by both with a pinned error.
#[test]
fn every_single_bit_flip_is_handled() {
    for f in valid_frames() {
        let mut bytes = f.to_vec();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                exercise(&bytes);
                bytes[i] ^= 1 << bit;
            }
        }
    }
}

proptest! {
    /// Arbitrary byte strings — the fully-random fuzz frontier.
    #[test]
    fn arbitrary_bytes_never_panic(input in proptest::collection::vec(any::<u8>(), 0..128)) {
        exercise(&input);
    }

    /// Multi-byte corruption of a valid frame: overwrite a random window,
    /// which models burst interference rather than single-bit noise.
    #[test]
    fn corrupted_windows_never_panic(
        which in 0usize..7,
        at in 0usize..64,
        noise in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let frames = valid_frames();
        let mut bytes = frames[which % frames.len()].to_vec();
        let at = at % bytes.len();
        for (i, n) in noise.iter().enumerate() {
            if let Some(b) = bytes.get_mut(at + i) {
                *b = *n;
            }
        }
        exercise(&bytes);
    }

    /// Truncation at an arbitrary point of an arbitrary valid frame.
    #[test]
    fn random_truncations_never_panic(which in 0usize..7, keep in 0usize..64) {
        let frames = valid_frames();
        let f = &frames[which % frames.len()];
        exercise(&f[..keep.min(f.len())]);
    }
}
