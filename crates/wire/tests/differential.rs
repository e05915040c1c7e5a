//! Differential codec oracle (DESIGN.md §5i): every frame the generators can
//! produce — all kinds × trace flag × relay header × spray budgets, wrapped
//! in every directed frame shape — must encode and decode identically
//! through the old owned codec ([`PackedStruct::decode`] / `encode`) and the
//! new zero-copy path ([`PackedView`] / [`FrameView`] / `decode_shared` /
//! `parse_for_shared` / `parse_for_owned` / pooled `*_into` encoders).
//! Zero-copy is asserted by pointer identity, not trusted.

use bytes::{Bytes, BytesMut};
use omni_wire::{
    frame, ContentKind, FrameView, OmniAddress, PackedStruct, PackedView, RelayHeader, TraceId,
};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = ContentKind> {
    prop_oneof![
        Just(ContentKind::AddressBeacon),
        Just(ContentKind::Context),
        Just(ContentKind::Data),
    ]
}

fn arb_trace() -> impl Strategy<Value = Option<TraceId>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), any::<u64>())
            .prop_map(|(origin, seq)| Some(TraceId::derive(OmniAddress::from_u64(origin), seq))),
    ]
}

/// Relay headers across the full spray-budget range, including the 0 budget
/// epidemic/PRoPHET carry and saturating TTL/hop corners.
fn arb_relay() -> impl Strategy<Value = Option<RelayHeader>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(dest, ttl, hops, copies)| {
                Some(RelayHeader { dest: OmniAddress::from_u64(dest), ttl, hops, copies })
            }
        ),
    ]
}

fn arb_packed() -> impl Strategy<Value = PackedStruct> {
    (
        arb_kind(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..512),
        arb_trace(),
        arb_relay(),
    )
        .prop_map(|(kind, addr, payload, trace, relay)| PackedStruct {
            kind,
            source: OmniAddress::from_u64(addr),
            payload: Bytes::from(payload),
            trace,
            relay,
        })
}

/// Asserts `shared`'s payload is a live view into `backing` (same storage,
/// not an equal copy).
fn assert_zero_copy(shared: &PackedStruct, backing: &Bytes, payload_offset: usize) {
    if !shared.payload.is_empty() {
        assert_eq!(
            shared.payload.as_ref().as_ptr(),
            backing.as_ref()[payload_offset..].as_ptr(),
            "payload was copied, not sliced"
        );
    }
}

proptest! {
    /// The pooled encoder writes the exact bytes the owned encoder produces,
    /// even when the pooled buffer is dirty from a previous frame.
    #[test]
    fn pooled_encode_matches_owned_encode(a in arb_packed(), b in arb_packed()) {
        let mut pool = BytesMut::new();
        // First frame warms the pool; second reuses it.
        for p in [&a, &b] {
            pool.clear();
            p.encode_into(&mut pool);
            prop_assert_eq!(pool.as_ref(), p.encode().as_ref());
        }
    }

    /// View accessors reproduce every field of the owned decode, and the
    /// borrowed payload aliases the wire buffer.
    #[test]
    fn view_parse_matches_owned_decode(p in arb_packed()) {
        let wire = p.encode();
        let owned = PackedStruct::decode(&wire).unwrap();
        let view = PackedView::parse(&wire).unwrap();
        prop_assert_eq!(view.kind(), owned.kind);
        prop_assert_eq!(view.source(), owned.source);
        prop_assert_eq!(view.trace(), owned.trace);
        prop_assert_eq!(view.relay().map(|r| r.to_owned()), owned.relay);
        prop_assert_eq!(view.payload(), &owned.payload[..]);
        if !p.payload.is_empty() {
            prop_assert_eq!(
                view.payload().as_ptr(),
                wire[view.payload_offset()..].as_ptr(),
                "view payload must borrow the wire buffer"
            );
        }
        prop_assert_eq!(view.to_owned(), owned);
    }

    /// `decode_shared` equals the owned oracle and shares storage with the
    /// input instead of copying.
    #[test]
    fn decode_shared_matches_owned_decode(p in arb_packed()) {
        let wire = p.encode();
        let owned = PackedStruct::decode(&wire).unwrap();
        let shared = PackedStruct::decode_shared(&wire).unwrap();
        prop_assert_eq!(&shared, &owned);
        let view = PackedView::parse(&wire).unwrap();
        assert_zero_copy(&shared, &wire, view.payload_offset());
        // Round-trip: the shared struct re-encodes to the same bytes.
        prop_assert_eq!(shared.encode().as_ref(), wire.as_ref());
    }

    /// The three directed frame shapes encode identically through the legacy
    /// and pooled paths, and `parse_for` / `parse_for_shared` /
    /// `parse_for_owned` classify them identically for the addressee, a
    /// bystander, and the relayed case.
    #[test]
    fn framed_paths_agree_for_every_shape(
        p in arb_packed(),
        dest in any::<u64>(),
        other in any::<u64>(),
        corr in any::<u64>(),
    ) {
        prop_assume!(dest != other);
        let dest = OmniAddress::from_u64(dest);
        let other = OmniAddress::from_u64(other);
        let mut pool = BytesMut::new();

        let directed = frame::encode_directed(dest, &p);
        pool.clear();
        frame::encode_directed_into(dest, &p, &mut pool);
        prop_assert_eq!(pool.as_ref(), directed.as_ref());

        let acked = frame::encode_acked(dest, corr, &p);
        pool.clear();
        frame::encode_acked_into(dest, corr, &p, &mut pool);
        prop_assert_eq!(pool.as_ref(), acked.as_ref());

        let ack = frame::encode_ack(dest, corr, p.trace);
        pool.clear();
        frame::encode_ack_into(dest, corr, p.trace, &mut pool);
        prop_assert_eq!(pool.as_ref(), ack.as_ref());

        let untagged = p.encode();
        for who in [dest, other] {
            for wire in [&directed, &acked, &ack, &untagged] {
                prop_assert_eq!(
                    frame::parse_for_shared(who, wire),
                    frame::parse_for(who, wire),
                    "parse_for and parse_for_shared diverged"
                );
                prop_assert_eq!(
                    frame::parse_for_owned(who, wire.clone()),
                    frame::parse_for(who, wire),
                    "parse_for and parse_for_owned diverged"
                );
            }
        }
        // The shared path's delivered payload aliases the frame buffer.
        if let frame::Incoming::Plain(shared) = frame::parse_for_shared(dest, &directed) {
            let view = PackedView::parse(&directed[frame::DIRECTED_OVERHEAD..]).unwrap();
            assert_zero_copy(&shared, &directed, frame::DIRECTED_OVERHEAD + view.payload_offset());
        } else {
            prop_assert!(false, "directed frame must decode for its addressee");
        }
    }

    /// `FrameView::parse` classification agrees with the owned `parse_for`
    /// on every well-formed shape.
    #[test]
    fn frame_view_classification_matches_parse_for(
        p in arb_packed(),
        dest in any::<u64>(),
        corr in any::<u64>(),
    ) {
        let dest = OmniAddress::from_u64(dest);
        let shapes = [
            frame::encode_directed(dest, &p),
            frame::encode_acked(dest, corr, &p),
            frame::encode_ack(dest, corr, p.trace),
            p.encode(),
        ];
        for wire in &shapes {
            let view = FrameView::parse(wire).unwrap();
            match (view, frame::parse_for(dest, wire)) {
                (FrameView::Directed { dest: d, packed }, frame::Incoming::Plain(owned)) => {
                    prop_assert_eq!(d, dest);
                    prop_assert_eq!(packed.to_owned(), owned);
                }
                (FrameView::Broadcast(packed), frame::Incoming::Plain(owned)) => {
                    prop_assert_eq!(packed.to_owned(), owned);
                }
                (
                    FrameView::Acked { dest: d, corr: c, packed },
                    frame::Incoming::Acked { corr: oc, packed: owned },
                ) => {
                    prop_assert_eq!(d, dest);
                    prop_assert_eq!(c, oc);
                    prop_assert_eq!(packed.to_owned(), owned);
                }
                (
                    FrameView::Ack { dest: d, corr: c, trace },
                    frame::Incoming::Ack { corr: oc, trace: ot },
                ) => {
                    prop_assert_eq!(d, dest);
                    prop_assert_eq!(c, oc);
                    prop_assert_eq!(trace, ot);
                }
                (v, o) => prop_assert!(false, "classification diverged: {v:?} vs {o:?}"),
            }
            prop_assert_eq!(view.dest().is_some(), wire[0] >= 0xD0);
        }
    }
}
