//! Directed-frame helpers shared by the broadcast technologies (BLE, NFC).
//!
//! Broadcast media deliver everything to everyone in range; directed data
//! needs an explicit destination so non-addressees can drop it cheaply. A
//! directed frame is `0xD0 ‖ dest omni_address ‖ omni_packed_struct`; raw
//! packed structs (context, address beacons) are left untagged — their first
//! byte is a [`crate::ContentKind`] (0, 1 or 2, optionally with the
//! [`crate::TRACE_FLAG`] high bit), which never collides with the tag.
//!
//! The reliable data path adds two more frame shapes:
//!
//! * `0xD1 ‖ dest ‖ corr ‖ omni_packed_struct` — a directed frame that asks
//!   the addressee for a link-layer acknowledgement, correlated by the
//!   sender-chosen 8-byte `corr` token.
//! * `0xDA ‖ dest ‖ corr [‖ trace]` — the acknowledgement itself. When the
//!   acked frame carried a [`TraceId`], the responder echoes it as 8 trailing
//!   bytes so the ack leg of a transfer is attributable too; legacy 17-byte
//!   acks remain valid.
//!
//! Stacks that predate these tags drop them in [`decode_for`] exactly like a
//! frame addressed elsewhere, so acked senders interoperate with plain
//! receivers (they simply never see an ack and fall back on retry).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::{FrameView, OmniAddress, PackedStruct, TraceId};

/// Tag byte marking a directed data frame.
pub const DATA_TAG: u8 = 0xD0;

/// Framing overhead of a plain directed frame (tag + destination).
pub const DIRECTED_OVERHEAD: usize = 9;

/// Framing overhead of an acked directed frame (tag + destination + corr).
pub const ACKED_OVERHEAD: usize = 17;

/// Tag byte marking a directed data frame that requests a link-layer ack.
pub const ACKED_TAG: u8 = 0xD1;

/// Tag byte marking a link-layer acknowledgement frame.
pub const ACK_TAG: u8 = 0xDA;

/// Wraps a packed struct with a destination address.
pub fn encode_directed(dest: OmniAddress, packed: &PackedStruct) -> Bytes {
    let mut frame = BytesMut::with_capacity(DIRECTED_OVERHEAD + packed.encoded_len());
    encode_directed_into(dest, packed, &mut frame);
    frame.freeze()
}

/// Appends a directed frame to a caller-provided (pooled) buffer. The inner
/// packed struct is written straight into `buf` — no intermediate encoding
/// allocation (DESIGN.md §5i).
pub fn encode_directed_into(dest: OmniAddress, packed: &PackedStruct, buf: &mut BytesMut) {
    buf.reserve(DIRECTED_OVERHEAD + packed.encoded_len());
    buf.put_u8(DATA_TAG);
    buf.put_slice(&dest.to_bytes());
    packed.encode_into(buf);
}

/// Wraps a packed struct with a destination address and an ack-correlation
/// token (reliable mode).
pub fn encode_acked(dest: OmniAddress, corr: u64, packed: &PackedStruct) -> Bytes {
    let mut frame = BytesMut::with_capacity(ACKED_OVERHEAD + packed.encoded_len());
    encode_acked_into(dest, corr, packed, &mut frame);
    frame.freeze()
}

/// Appends an acked directed frame to a caller-provided (pooled) buffer,
/// writing the inner packed struct in place like [`encode_directed_into`].
pub fn encode_acked_into(dest: OmniAddress, corr: u64, packed: &PackedStruct, buf: &mut BytesMut) {
    buf.reserve(ACKED_OVERHEAD + packed.encoded_len());
    buf.put_u8(ACKED_TAG);
    buf.put_slice(&dest.to_bytes());
    buf.put_u64(corr);
    packed.encode_into(buf);
}

/// Builds the acknowledgement for an acked directed frame, echoing the acked
/// frame's trace ID when it carried one.
pub fn encode_ack(dest: OmniAddress, corr: u64, trace: Option<TraceId>) -> Bytes {
    let mut frame = BytesMut::with_capacity(if trace.is_some() { 25 } else { 17 });
    encode_ack_into(dest, corr, trace, &mut frame);
    frame.freeze()
}

/// Appends an acknowledgement frame to a caller-provided (pooled) buffer.
pub fn encode_ack_into(dest: OmniAddress, corr: u64, trace: Option<TraceId>, buf: &mut BytesMut) {
    buf.put_u8(ACK_TAG);
    buf.put_slice(&dest.to_bytes());
    buf.put_u64(corr);
    if let Some(t) = trace {
        buf.put_u64(t.as_u64());
    }
}

/// A broadcast frame as seen by a reliable-capable receiver.
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming {
    /// An untagged broadcast or a plain directed frame addressed to us.
    Plain(PackedStruct),
    /// A directed frame addressed to us that requests an acknowledgement.
    Acked {
        /// The sender's correlation token to echo back.
        corr: u64,
        /// The decoded transmission.
        packed: PackedStruct,
    },
    /// An acknowledgement addressed to us.
    Ack {
        /// The correlation token of the acked frame.
        corr: u64,
        /// The trace ID echoed from the acked frame, when present.
        trace: Option<TraceId>,
    },
    /// Addressed elsewhere, or malformed.
    NotForUs,
}

fn dest_of(frame: &[u8]) -> Option<OmniAddress> {
    if frame.len() < 9 {
        return None;
    }
    let mut dest = [0u8; 8];
    dest.copy_from_slice(&frame[1..9]);
    Some(OmniAddress::from_bytes(dest))
}

fn corr_of(frame: &[u8]) -> Option<u64> {
    if frame.len() < 17 {
        return None;
    }
    let mut corr = [0u8; 8];
    corr.copy_from_slice(&frame[9..17]);
    Some(u64::from_be_bytes(corr))
}

fn ack_trace_of(frame: &[u8]) -> Option<TraceId> {
    if frame.len() < 25 {
        return None;
    }
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&frame[17..25]);
    TraceId::from_u64(u64::from_be_bytes(raw))
}

/// Zero-copy variant of [`parse_for`] that consumes the frame:
/// classification and validation go through [`FrameView`], and a delivered
/// payload is `frame` itself, narrowed in place to the packed struct's
/// payload. The reference-counted radio buffer moves into the receive queue
/// with no copy and no second handle (DESIGN.md §5i). Behavior is pinned
/// byte-for-byte to [`parse_for`] by the differential suite.
pub fn parse_for_owned(own: OmniAddress, mut frame: Bytes) -> Incoming {
    let (corr, base, view) = match FrameView::parse(frame.as_ref()) {
        Ok(FrameView::Broadcast(v)) => (None, 0, v),
        Ok(FrameView::Directed { dest, packed }) if dest == own => {
            (None, DIRECTED_OVERHEAD, packed)
        }
        Ok(FrameView::Acked { dest, corr, packed }) if dest == own => {
            (Some(corr), ACKED_OVERHEAD, packed)
        }
        Ok(FrameView::Ack { dest, corr, trace }) if dest == own => {
            return Incoming::Ack { corr, trace }
        }
        _ => return Incoming::NotForUs,
    };
    // The view borrows `frame`: read its fields before narrowing the frame.
    let mut packed = view.without_payload();
    let (start, end) = (base + view.payload_offset(), base + view.as_bytes().len());
    frame.truncate(end);
    frame.advance(start);
    packed.payload = frame;
    match corr {
        Some(corr) => Incoming::Acked { corr, packed },
        None => Incoming::Plain(packed),
    }
}

/// [`parse_for_owned`] for a caller that keeps the frame: any delivered
/// payload shares `frame`'s buffer, never copies it.
pub fn parse_for_shared(own: OmniAddress, frame: &Bytes) -> Incoming {
    parse_for_owned(own, frame.clone())
}

/// Zero-copy variant of [`decode_for`], with payloads sliced out of the
/// shared `frame` buffer exactly like [`parse_for_shared`].
pub fn decode_for_shared(own: OmniAddress, frame: &Bytes) -> Option<PackedStruct> {
    match FrameView::parse(frame.as_ref()) {
        Ok(FrameView::Broadcast(v)) => Some(v.to_shared(frame, 0)),
        Ok(FrameView::Directed { dest, packed }) if dest == own => {
            Some(packed.to_shared(frame, DIRECTED_OVERHEAD))
        }
        _ => None,
    }
}

/// Interprets a broadcast frame, including the reliable-mode shapes.
///
/// Owned-codec oracle for [`parse_for_shared`]; the hot receive paths use
/// the shared variant.
pub fn parse_for(own: OmniAddress, frame: &[u8]) -> Incoming {
    match frame.first() {
        Some(&DATA_TAG) => match decode_for(own, frame) {
            Some(packed) => Incoming::Plain(packed),
            None => Incoming::NotForUs,
        },
        Some(&ACKED_TAG) => {
            if dest_of(frame) != Some(own) {
                return Incoming::NotForUs;
            }
            match corr_of(frame) {
                Some(corr) => match PackedStruct::decode(&frame[17..]) {
                    Ok(packed) => Incoming::Acked { corr, packed },
                    Err(_) => Incoming::NotForUs,
                },
                None => Incoming::NotForUs,
            }
        }
        Some(&ACK_TAG) => {
            if dest_of(frame) != Some(own) {
                return Incoming::NotForUs;
            }
            match corr_of(frame) {
                Some(corr) => Incoming::Ack { corr, trace: ack_trace_of(frame) },
                None => Incoming::NotForUs,
            }
        }
        _ => match PackedStruct::decode(frame) {
            Ok(packed) => Incoming::Plain(packed),
            Err(_) => Incoming::NotForUs,
        },
    }
}

/// Interprets a broadcast frame.
///
/// Returns the decoded packed struct when the frame is either untagged
/// (broadcast context/beacon) or a directed frame addressed to `own`;
/// `None` when it is addressed elsewhere, malformed, or one of the
/// reliable-mode shapes this caller does not speak.
pub fn decode_for(own: OmniAddress, frame: &[u8]) -> Option<PackedStruct> {
    match frame.first() {
        Some(&DATA_TAG) => {
            if dest_of(frame) != Some(own) {
                return None;
            }
            PackedStruct::decode(&frame[9..]).ok()
        }
        Some(&ACKED_TAG) | Some(&ACK_TAG) => None,
        _ => PackedStruct::decode(frame).ok(),
    }
}

/// Extracts the trace ID carried by any encoded frame, tagged or untagged,
/// without decoding payloads. Returns `None` for untraced or malformed
/// frames.
pub fn frame_trace(frame: &[u8]) -> Option<TraceId> {
    match frame.first() {
        Some(&DATA_TAG) => PackedStruct::peek_trace(frame.get(9..)?),
        Some(&ACKED_TAG) => PackedStruct::peek_trace(frame.get(17..)?),
        Some(&ACK_TAG) => ack_trace_of(frame),
        _ => PackedStruct::peek_trace(frame),
    }
}

/// Like [`frame_trace`] but only for the directed reliable-path shapes
/// (`0xD0`/`0xD1`/`0xDA`); untagged broadcast frames (context, beacons)
/// return `None` even when they carry an epoch. The simulator uses this to
/// attribute dropped *data-path* frames to traces without flooding the event
/// ring with per-beacon drop records.
pub fn directed_trace(frame: &[u8]) -> Option<TraceId> {
    match frame.first() {
        Some(&DATA_TAG) | Some(&ACKED_TAG) | Some(&ACK_TAG) => frame_trace(frame),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_frame_roundtrips_for_the_addressee() {
        let me = OmniAddress::from_u64(0xAB);
        let p = PackedStruct::data(OmniAddress::from_u64(1), Bytes::from_static(b"hi"));
        let frame = encode_directed(me, &p);
        assert_eq!(decode_for(me, &frame), Some(p));
    }

    #[test]
    fn directed_frame_is_dropped_by_others() {
        let p = PackedStruct::data(OmniAddress::from_u64(1), Bytes::from_static(b"hi"));
        let frame = encode_directed(OmniAddress::from_u64(0xAB), &p);
        assert_eq!(decode_for(OmniAddress::from_u64(0xCD), &frame), None);
    }

    #[test]
    fn untagged_frames_decode_for_anyone() {
        let p = PackedStruct::context(OmniAddress::from_u64(1), Bytes::from_static(b"ctx"));
        assert_eq!(decode_for(OmniAddress::from_u64(0xCD), &p.encode()), Some(p));
    }

    #[test]
    fn malformed_frames_are_dropped() {
        assert_eq!(decode_for(OmniAddress::from_u64(1), &[DATA_TAG, 1, 2]), None);
        assert_eq!(decode_for(OmniAddress::from_u64(1), &[]), None);
        assert_eq!(parse_for(OmniAddress::from_u64(1), &[ACKED_TAG, 1, 2]), Incoming::NotForUs);
        assert_eq!(parse_for(OmniAddress::from_u64(1), &[ACK_TAG]), Incoming::NotForUs);
    }

    #[test]
    fn acked_frame_roundtrips_with_correlation() {
        let me = OmniAddress::from_u64(0xAB);
        let p = PackedStruct::data(OmniAddress::from_u64(1), Bytes::from_static(b"hi"));
        let frame = encode_acked(me, 0xC0FFEE, &p);
        assert_eq!(parse_for(me, &frame), Incoming::Acked { corr: 0xC0FFEE, packed: p });
        assert_eq!(
            parse_for(OmniAddress::from_u64(0xCD), &frame),
            Incoming::NotForUs,
            "addressed elsewhere"
        );
        assert_eq!(decode_for(me, &frame), None, "plain receivers drop acked frames");
    }

    #[test]
    fn ack_frame_roundtrips() {
        let me = OmniAddress::from_u64(0xAB);
        let frame = encode_ack(me, 42, None);
        assert_eq!(frame.len(), 17);
        assert_eq!(parse_for(me, &frame), Incoming::Ack { corr: 42, trace: None });
        assert_eq!(parse_for(OmniAddress::from_u64(0xCD), &frame), Incoming::NotForUs);
        assert_eq!(decode_for(me, &frame), None, "plain receivers drop acks");
    }

    #[test]
    fn ack_frame_echoes_the_trace() {
        let me = OmniAddress::from_u64(0xAB);
        let t = TraceId::derive(OmniAddress::from_u64(1), 5);
        let frame = encode_ack(me, 42, Some(t));
        assert_eq!(frame.len(), 25);
        assert_eq!(parse_for(me, &frame), Incoming::Ack { corr: 42, trace: Some(t) });
        assert_eq!(frame_trace(&frame), Some(t));
    }

    #[test]
    fn parse_for_subsumes_plain_shapes() {
        let me = OmniAddress::from_u64(0xAB);
        let p = PackedStruct::data(OmniAddress::from_u64(1), Bytes::from_static(b"hi"));
        let directed = encode_directed(me, &p);
        assert_eq!(parse_for(me, &directed), Incoming::Plain(p.clone()));
        let ctx = PackedStruct::context(OmniAddress::from_u64(1), Bytes::from_static(b"ctx"));
        assert_eq!(parse_for(me, &ctx.encode()), Incoming::Plain(ctx));
    }

    #[test]
    fn traced_payloads_survive_directed_framing() {
        let me = OmniAddress::from_u64(0xAB);
        let t = TraceId::derive(OmniAddress::from_u64(1), 0);
        let p =
            PackedStruct::data(OmniAddress::from_u64(1), Bytes::from_static(b"hi")).with_trace(t);
        let plain = encode_directed(me, &p);
        assert_eq!(decode_for(me, &plain).unwrap().trace, Some(t));
        assert_eq!(frame_trace(&plain), Some(t));
        let acked = encode_acked(me, 7, &p);
        match parse_for(me, &acked) {
            Incoming::Acked { corr, packed } => {
                assert_eq!(corr, 7);
                assert_eq!(packed.trace, Some(t));
            }
            other => panic!("expected acked frame, got {other:?}"),
        }
        assert_eq!(frame_trace(&acked), Some(t));
    }

    #[test]
    fn directed_trace_ignores_broadcast_frames() {
        let t = TraceId::derive(OmniAddress::from_u64(1), 0);
        let beacon = PackedStruct::context(OmniAddress::from_u64(1), Bytes::from_static(b"c"))
            .with_trace(t)
            .encode();
        assert_eq!(frame_trace(&beacon), Some(t));
        assert_eq!(directed_trace(&beacon), None);
        let me = OmniAddress::from_u64(0xAB);
        let p = PackedStruct::data(OmniAddress::from_u64(1), Bytes::new()).with_trace(t);
        assert_eq!(directed_trace(&encode_directed(me, &p)), Some(t));
        assert_eq!(directed_trace(&encode_ack(me, 1, Some(t))), Some(t));
        assert_eq!(directed_trace(&[]), None);
    }
}
