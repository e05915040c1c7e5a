//! Relay wire-format tests (Issue 8, satellite 3): every
//! (ttl, hops, trace, kind) combination round-trips losslessly, malformed
//! relay headers come back as typed [`WireError`]s instead of panics, and a
//! pinning test freezes the on-wire byte layout so a refactor can never
//! silently shift it.

use bytes::Bytes;
use omni_wire::{
    ContentKind, OmniAddress, PackedStruct, RelayHeader, TraceId, WireError, HEADER_LEN, KIND_MASK,
    RELAY_FLAG, RELAY_LEN, TRACE_FLAG, TRACE_LEN,
};
use proptest::prelude::*;

fn src() -> OmniAddress {
    OmniAddress::from_u64(0x1111_2222_3333_4444)
}

fn dst() -> OmniAddress {
    OmniAddress::from_u64(0x5555_6666_7777_8888)
}

const KINDS: [ContentKind; 3] =
    [ContentKind::AddressBeacon, ContentKind::Context, ContentKind::Data];

/// Every (ttl, hops, trace, kind) combination encodes and decodes
/// losslessly — the full 256×256 (ttl, hops) square, each kind, traced and
/// untraced.
#[test]
fn every_ttl_hops_trace_kind_combination_roundtrips() {
    let trace = TraceId::derive(src(), 7);
    for ttl in 0u8..=255 {
        for hops in 0u8..=255 {
            // The full square is covered with one kind/trace pairing; the
            // (kind × trace) cross product is covered below on the diagonal.
            let header = RelayHeader { dest: dst(), ttl, hops, copies: ttl ^ hops };
            let p = PackedStruct::data(src(), &b"r"[..]).with_trace(trace).with_relay(header);
            let decoded = PackedStruct::decode(&p.encode()).unwrap();
            assert_eq!(decoded, p);
            assert_eq!(decoded.relay, Some(header));
        }
    }
    for kind in KINDS {
        for traced in [false, true] {
            for ttl in 0u8..=255 {
                let header = RelayHeader { dest: dst(), ttl, hops: ttl.wrapping_add(1), copies: 3 };
                let mut p = PackedStruct {
                    kind,
                    source: src(),
                    payload: Bytes::new(),
                    trace: None,
                    relay: Some(header),
                };
                if traced {
                    p = p.with_trace(trace);
                }
                let wire = p.encode();
                assert_eq!(wire.len(), p.encoded_len());
                let decoded = PackedStruct::decode(&wire).unwrap();
                assert_eq!(decoded, p);
            }
        }
    }
}

/// The on-wire byte layout, frozen: `[kind|flags] source(8) trace(8)?
/// dest(8) ttl hops copies payload…`. If this test fails, the wire format
/// changed and every deployed node would disagree about framing.
#[test]
fn pinned_byte_layout() {
    let trace = TraceId::from_u64(0x0102_0304_0506_0708).unwrap();
    let header = RelayHeader { dest: dst(), ttl: 0xAA, hops: 0x0B, copies: 0x0C };
    let p = PackedStruct::data(src(), &b"pp"[..]).with_trace(trace).with_relay(header);
    let wire = p.encode();
    let mut expect = Vec::new();
    expect.push(2u8 | TRACE_FLAG | RELAY_FLAG); // kind byte: Data + both flags
    expect.extend_from_slice(&0x1111_2222_3333_4444u64.to_be_bytes()); // source
    expect.extend_from_slice(&0x0102_0304_0506_0708u64.to_be_bytes()); // trace
    expect.extend_from_slice(&0x5555_6666_7777_8888u64.to_be_bytes()); // relay dest
    expect.extend_from_slice(&[0xAA, 0x0B, 0x0C]); // ttl, hops, copies
    expect.extend_from_slice(b"pp"); // payload
    assert_eq!(&wire[..], &expect[..]);
    assert_eq!(wire.len(), HEADER_LEN + TRACE_LEN + RELAY_LEN + 2);

    // Untraced relay frame: the relay header sits right after the fixed
    // header.
    let p = PackedStruct::data(src(), Bytes::new()).with_relay(header);
    let wire = p.encode();
    assert_eq!(wire[0], 2u8 | RELAY_FLAG);
    assert_eq!(&wire[1..9], &0x1111_2222_3333_4444u64.to_be_bytes());
    assert_eq!(&wire[9..17], &0x5555_6666_7777_8888u64.to_be_bytes());
    assert_eq!(&wire[17..], &[0xAA, 0x0B, 0x0C]);

    // The flag constants themselves are part of the frozen layout.
    assert_eq!(TRACE_FLAG, 0x80);
    assert_eq!(RELAY_FLAG, 0x40);
    assert_eq!(KIND_MASK, 0x3f);
    assert_eq!(RELAY_LEN, 11);
}

/// Non-relay frames are bit-identical to the pre-relay wire format: the
/// relay bit stays clear and no extra bytes appear.
#[test]
fn non_relay_frames_keep_the_legacy_layout() {
    let p = PackedStruct::data(src(), &b"x"[..]);
    let wire = p.encode();
    assert_eq!(wire[0] & RELAY_FLAG, 0);
    assert_eq!(wire.len(), HEADER_LEN + 1);
    let traced = PackedStruct::data(src(), &b"x"[..]).with_trace(TraceId::derive(src(), 1));
    assert_eq!(traced.encode().len(), HEADER_LEN + TRACE_LEN + 1);
}

/// A relay-flagged frame truncated anywhere inside the relay header is a
/// typed [`WireError::Truncated`], never a panic — with and without a trace
/// field in front.
#[test]
fn truncated_relay_headers_are_typed_errors() {
    let header = RelayHeader::new(dst(), 8);
    for traced in [false, true] {
        let mut p = PackedStruct::data(src(), Bytes::new()).with_relay(header);
        if traced {
            p = p.with_trace(TraceId::derive(src(), 2));
        }
        let wire = p.encode();
        let body = HEADER_LEN + if traced { TRACE_LEN } else { 0 };
        for len in body..body + RELAY_LEN {
            assert_eq!(
                PackedStruct::decode(&wire[..len]),
                Err(WireError::Truncated { needed: body + RELAY_LEN, got: len }),
                "traced={traced} len={len}"
            );
        }
        assert_eq!(PackedStruct::decode(&wire).unwrap().relay, Some(header));
    }
}

/// The relay flag composed with a garbage kind nibble is an
/// [`WireError::UnknownKind`] on the masked bits, not a mis-decode.
#[test]
fn relay_flag_with_unknown_kind_is_rejected() {
    for kind_bits in 3u8..=KIND_MASK {
        let mut wire = vec![kind_bits | RELAY_FLAG];
        wire.extend_from_slice(&src().to_bytes());
        wire.extend_from_slice(&[0u8; RELAY_LEN]);
        assert_eq!(PackedStruct::decode(&wire), Err(WireError::UnknownKind(kind_bits)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random relay headers over random payloads round-trip exactly, and
    /// the trace peek agrees with the full decode.
    #[test]
    fn random_relay_frames_roundtrip(
        dest in any::<u64>(),
        ttl in any::<u8>(),
        hops in any::<u8>(),
        copies in any::<u8>(),
        traced in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let header = RelayHeader { dest: OmniAddress::from_u64(dest), ttl, hops, copies };
        let mut p = PackedStruct::data(src(), payload).with_relay(header);
        if traced {
            p = p.with_trace(TraceId::derive(src(), u64::from(ttl) + 1));
        }
        let wire = p.encode();
        prop_assert_eq!(wire.len(), p.encoded_len());
        prop_assert_eq!(PackedStruct::peek_trace(&wire), p.trace);
        let decoded = PackedStruct::decode(&wire).unwrap();
        prop_assert_eq!(decoded, p);
    }

    /// Decoding arbitrary relay-flagged garbage never panics: it yields a
    /// struct or a typed error.
    #[test]
    fn relay_decode_is_total(mut bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        if !bytes.is_empty() {
            bytes[0] |= RELAY_FLAG;
        }
        match PackedStruct::decode(&bytes) {
            Ok(p) => prop_assert!(p.relay.is_some()),
            Err(WireError::Truncated { needed, got }) => prop_assert!(got < needed),
            Err(WireError::UnknownKind(k)) => prop_assert!(k > 2 && k <= KIND_MASK),
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    /// `next_hop` is monotone: ttl never increases, hops never decrease,
    /// dest and copies ride along unchanged.
    #[test]
    fn next_hop_is_monotone(dest in any::<u64>(), ttl in any::<u8>(), hops in any::<u8>()) {
        let h = RelayHeader { dest: OmniAddress::from_u64(dest), ttl, hops, copies: 5 };
        let n = h.next_hop();
        prop_assert!(n.ttl <= h.ttl);
        prop_assert!(n.hops >= h.hops);
        prop_assert_eq!(n.dest, h.dest);
        prop_assert_eq!(n.copies, h.copies);
    }
}
