//! Zero-copy frame views (DESIGN.md §5i).
//!
//! [`PackedView`] and [`FrameView`] are `&[u8]`-backed windows over encoded
//! wire frames: parsing validates the layout exactly once (same error
//! taxonomy as the owned [`PackedStruct::decode`] oracle) and every accessor
//! afterwards is a bounds-checked field read — no accessor copies the
//! payload, allocates, or can panic on any input that survived `parse`.
//!
//! The owned codec in [`crate::packed`] remains the differential oracle: the
//! property suite in `crates/wire/tests/differential.rs` proves byte-for-byte
//! agreement between the two paths for every frame shape, and
//! `crates/wire/tests/adversarial.rs` feeds truncated / bit-flipped /
//! oversized / empty inputs through both.
//!
//! When the backing buffer is a [`Bytes`] (reference-counted in the sim and
//! the technology receive paths), [`PackedStruct::decode_shared`] and
//! [`crate::frame::parse_for_shared`] materialize an owned `PackedStruct`
//! whose payload *slices* the incoming buffer instead of copying it — the
//! `Arc<[u8]>` travels from the radio all the way into the receive queue.
//! [`crate::frame::parse_for_owned`] takes the buffer by value and narrows
//! it to the payload in place, so not even a second handle is made.

use bytes::Bytes;

use crate::packed::{HEADER_LEN, KIND_MASK, RELAY_FLAG, RELAY_LEN, TRACE_FLAG, TRACE_LEN};
use crate::{ContentKind, OmniAddress, PackedStruct, RelayHeader, TraceId, WireError};

/// A validated zero-copy view over an encoded `omni_packed_struct`.
///
/// Construction via [`PackedView::parse`] performs the full layout
/// validation; accessors never copy the payload and never panic.
#[derive(Debug, Clone, Copy)]
pub struct PackedView<'a> {
    bytes: &'a [u8],
    kind: ContentKind,
    /// Offset of the first payload byte (after header, trace, relay).
    payload_at: usize,
}

impl<'a> PackedView<'a> {
    /// Validates an encoded frame and returns the view.
    ///
    /// # Errors
    ///
    /// The exact taxonomy of the owned oracle ([`PackedStruct::decode`]):
    /// [`WireError::Truncated`] when the input is shorter than the layout the
    /// kind byte promises, [`WireError::UnknownKind`] for an unrecognized
    /// kind.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, WireError> {
        if bytes.len() < HEADER_LEN {
            return Err(WireError::Truncated { needed: HEADER_LEN, got: bytes.len() });
        }
        let kind = ContentKind::from_byte(bytes[0] & KIND_MASK)?;
        let mut payload_at = HEADER_LEN;
        if bytes[0] & TRACE_FLAG != 0 {
            payload_at += TRACE_LEN;
            if bytes.len() < payload_at {
                return Err(WireError::Truncated { needed: payload_at, got: bytes.len() });
            }
        }
        if bytes[0] & RELAY_FLAG != 0 {
            payload_at += RELAY_LEN;
            if bytes.len() < payload_at {
                return Err(WireError::Truncated { needed: payload_at, got: bytes.len() });
            }
        }
        Ok(PackedView { bytes, kind, payload_at })
    }

    /// The content kind from the masked kind byte.
    pub fn kind(&self) -> ContentKind {
        self.kind
    }

    /// The sender's unified address.
    pub fn source(&self) -> OmniAddress {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.bytes[1..HEADER_LEN]);
        OmniAddress::from_bytes(raw)
    }

    /// The trace ID, when the frame is flagged and the field is non-zero
    /// (zero is reserved for "untraced", matching the owned decoder's
    /// canonicalization).
    pub fn trace(&self) -> Option<TraceId> {
        if self.bytes[0] & TRACE_FLAG == 0 {
            return None;
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.bytes[HEADER_LEN..HEADER_LEN + TRACE_LEN]);
        TraceId::from_u64(u64::from_be_bytes(raw))
    }

    /// A zero-copy view of the relay header, when the frame carries one.
    pub fn relay(&self) -> Option<RelayHeaderView<'a>> {
        if self.bytes[0] & RELAY_FLAG == 0 {
            return None;
        }
        let at = HEADER_LEN + if self.bytes[0] & TRACE_FLAG != 0 { TRACE_LEN } else { 0 };
        Some(RelayHeaderView { bytes: &self.bytes[at..at + RELAY_LEN] })
    }

    /// The payload bytes, borrowed from the backing buffer — never copied.
    pub fn payload(&self) -> &'a [u8] {
        &self.bytes[self.payload_at..]
    }

    /// Byte offset of the first payload byte inside the backing buffer.
    /// Lets `Bytes`-backed callers slice the payload out of the shared
    /// storage without copying.
    pub fn payload_offset(&self) -> usize {
        self.payload_at
    }

    /// The whole encoded frame this view was parsed from.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Materializes an owned [`PackedStruct`], copying the payload. Test and
    /// compatibility escape hatch; hot paths use
    /// [`PackedStruct::decode_shared`] instead.
    pub fn to_owned(&self) -> PackedStruct {
        PackedStruct {
            kind: self.kind,
            source: self.source(),
            payload: Bytes::copy_from_slice(self.payload()),
            trace: self.trace(),
            relay: self.relay().map(|r| r.to_owned()),
        }
    }

    /// Materializes a [`PackedStruct`] whose payload slices `backing` (the
    /// reference-counted buffer this view was parsed from at offset `base`)
    /// instead of copying.
    ///
    /// `backing[base..]` must be the bytes this view was parsed from; the
    /// length is re-checked, so a mismatched pair yields a wrong-but-safe
    /// result, never a panic beyond `Bytes::slice` bounds enforcement.
    pub fn to_shared(&self, backing: &Bytes, base: usize) -> PackedStruct {
        PackedStruct {
            payload: backing.slice(base + self.payload_at..base + self.bytes.len()),
            ..self.without_payload()
        }
    }

    /// Every field but the payload, which is left empty for a caller that
    /// fills it from the backing buffer once this view is gone.
    pub(crate) fn without_payload(&self) -> PackedStruct {
        PackedStruct {
            kind: self.kind,
            source: self.source(),
            payload: Bytes::new(),
            trace: self.trace(),
            relay: self.relay().map(|r| r.to_owned()),
        }
    }
}

/// A zero-copy view of the fixed-size multi-hop relay header.
#[derive(Debug, Clone, Copy)]
pub struct RelayHeaderView<'a> {
    /// Exactly [`RELAY_LEN`] bytes, validated by [`PackedView::parse`].
    bytes: &'a [u8],
}

impl RelayHeaderView<'_> {
    /// The final-destination unified address.
    pub fn dest(&self) -> OmniAddress {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.bytes[..8]);
        OmniAddress::from_bytes(raw)
    }

    /// Remaining hop budget.
    pub fn ttl(&self) -> u8 {
        self.bytes[8]
    }

    /// Hops taken so far.
    pub fn hops(&self) -> u8 {
        self.bytes[9]
    }

    /// Spray-and-wait copy budget.
    pub fn copies(&self) -> u8 {
        self.bytes[10]
    }

    /// The owned header, for callers that need to mutate or store it.
    pub fn to_owned(&self) -> RelayHeader {
        RelayHeader { dest: self.dest(), ttl: self.ttl(), hops: self.hops(), copies: self.copies() }
    }
}

/// A parsed-but-unmaterialized broadcast frame: every shape the broadcast
/// technologies speak, classified and validated without copying anything.
///
/// Unlike [`crate::frame::parse_for`], parsing does not filter by addressee —
/// the view exposes the destination and the caller decides; malformed inputs
/// are structured errors instead of a silent `NotForUs`.
#[derive(Debug, Clone, Copy)]
pub enum FrameView<'a> {
    /// An untagged broadcast (context, beacon, relay offer).
    Broadcast(PackedView<'a>),
    /// A `0xD0` directed frame.
    Directed {
        /// The link-layer addressee.
        dest: OmniAddress,
        /// The carried transmission.
        packed: PackedView<'a>,
    },
    /// A `0xD1` directed frame requesting a link-layer ack.
    Acked {
        /// The link-layer addressee.
        dest: OmniAddress,
        /// The sender's correlation token.
        corr: u64,
        /// The carried transmission.
        packed: PackedView<'a>,
    },
    /// A `0xDA` link-layer acknowledgement.
    Ack {
        /// The link-layer addressee.
        dest: OmniAddress,
        /// The correlation token of the acked frame.
        corr: u64,
        /// The trace echoed from the acked frame, when present.
        trace: Option<TraceId>,
    },
}

fn read_addr(bytes: &[u8]) -> OmniAddress {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[..8]);
    OmniAddress::from_bytes(raw)
}

fn read_u64(bytes: &[u8]) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[..8]);
    u64::from_be_bytes(raw)
}

impl<'a> FrameView<'a> {
    /// Classifies and validates a broadcast frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when the frame is shorter than its tag's
    /// fixed fields (or the inner packed struct is truncated), plus the
    /// inner [`PackedView::parse`] taxonomy for the carried transmission.
    pub fn parse(frame: &'a [u8]) -> Result<Self, WireError> {
        use crate::frame::{ACKED_OVERHEAD, ACKED_TAG, ACK_TAG, DATA_TAG, DIRECTED_OVERHEAD};
        match frame.first() {
            Some(&DATA_TAG) => {
                if frame.len() < DIRECTED_OVERHEAD {
                    return Err(WireError::Truncated {
                        needed: DIRECTED_OVERHEAD,
                        got: frame.len(),
                    });
                }
                Ok(FrameView::Directed {
                    dest: read_addr(&frame[1..]),
                    packed: PackedView::parse(&frame[DIRECTED_OVERHEAD..])?,
                })
            }
            Some(&ACKED_TAG) => {
                if frame.len() < ACKED_OVERHEAD {
                    return Err(WireError::Truncated { needed: ACKED_OVERHEAD, got: frame.len() });
                }
                Ok(FrameView::Acked {
                    dest: read_addr(&frame[1..]),
                    corr: read_u64(&frame[9..]),
                    packed: PackedView::parse(&frame[ACKED_OVERHEAD..])?,
                })
            }
            Some(&ACK_TAG) => {
                if frame.len() < 17 {
                    return Err(WireError::Truncated { needed: 17, got: frame.len() });
                }
                // Legacy 17-byte acks carry no trace; 25-byte acks echo one.
                // Intermediate lengths decode as untraced, matching
                // `frame::parse_for`.
                let trace = if frame.len() >= 25 {
                    TraceId::from_u64(read_u64(&frame[17..]))
                } else {
                    None
                };
                Ok(FrameView::Ack {
                    dest: read_addr(&frame[1..]),
                    corr: read_u64(&frame[9..]),
                    trace,
                })
            }
            _ => Ok(FrameView::Broadcast(PackedView::parse(frame)?)),
        }
    }

    /// The link-layer addressee, when the shape is directed (`None` for
    /// untagged broadcasts, which everyone in range consumes).
    pub fn dest(&self) -> Option<OmniAddress> {
        match self {
            FrameView::Broadcast(_) => None,
            FrameView::Directed { dest, .. }
            | FrameView::Acked { dest, .. }
            | FrameView::Ack { dest, .. } => Some(*dest),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame;

    fn addr() -> OmniAddress {
        OmniAddress::from_u64(0x0123_4567_89ab_cdef)
    }

    #[test]
    fn view_agrees_with_owned_decode_on_every_field() {
        let t = TraceId::derive(addr(), 7);
        let p = PackedStruct::data(addr(), &b"payload"[..])
            .with_trace(t)
            .with_relay(RelayHeader::new(OmniAddress::from_u64(9), 5).with_copies(3));
        let wire = p.encode();
        let v = PackedView::parse(&wire).unwrap();
        let owned = PackedStruct::decode(&wire).unwrap();
        assert_eq!(v.kind(), owned.kind);
        assert_eq!(v.source(), owned.source);
        assert_eq!(v.trace(), owned.trace);
        assert_eq!(v.relay().map(|r| r.to_owned()), owned.relay);
        assert_eq!(v.payload(), &owned.payload[..]);
        assert_eq!(v.to_owned(), owned);
    }

    #[test]
    fn view_payload_borrows_the_backing_buffer() {
        let p = PackedStruct::context(addr(), &b"shared"[..]);
        let wire = p.encode();
        let v = PackedView::parse(&wire).unwrap();
        assert_eq!(v.payload().as_ptr(), wire[HEADER_LEN..].as_ptr(), "no copy taken");
        assert_eq!(v.payload_offset(), HEADER_LEN);
    }

    #[test]
    fn to_shared_slices_the_arc_instead_of_copying() {
        let p = PackedStruct::data(addr(), &b"zero-copy"[..]);
        let wire = p.encode();
        let v = PackedView::parse(&wire).unwrap();
        let shared = v.to_shared(&wire, 0);
        assert_eq!(shared, p);
        assert_eq!(shared.payload.as_ref().as_ptr(), wire[HEADER_LEN..].as_ptr());
    }

    #[test]
    fn frame_view_classifies_every_shape() {
        let me = OmniAddress::from_u64(0xAB);
        let p = PackedStruct::data(addr(), &b"hi"[..]);
        match FrameView::parse(&frame::encode_directed(me, &p)).unwrap() {
            FrameView::Directed { dest, packed } => {
                assert_eq!(dest, me);
                assert_eq!(packed.to_owned(), p);
            }
            other => panic!("expected directed, got {other:?}"),
        }
        match FrameView::parse(&frame::encode_acked(me, 0xC0FFEE, &p)).unwrap() {
            FrameView::Acked { dest, corr, packed } => {
                assert_eq!((dest, corr), (me, 0xC0FFEE));
                assert_eq!(packed.to_owned(), p);
            }
            other => panic!("expected acked, got {other:?}"),
        }
        let t = TraceId::derive(addr(), 1);
        match FrameView::parse(&frame::encode_ack(me, 42, Some(t))).unwrap() {
            FrameView::Ack { dest, corr, trace } => {
                assert_eq!((dest, corr, trace), (me, 42, Some(t)));
            }
            other => panic!("expected ack, got {other:?}"),
        }
        match FrameView::parse(&p.encode()).unwrap() {
            FrameView::Broadcast(v) => assert_eq!(v.to_owned(), p),
            other => panic!("expected broadcast, got {other:?}"),
        }
    }

    #[test]
    fn truncated_views_error_with_the_pinned_taxonomy() {
        assert_eq!(
            PackedView::parse(&[]).unwrap_err(),
            WireError::Truncated { needed: HEADER_LEN, got: 0 }
        );
        assert_eq!(
            FrameView::parse(&[frame::DATA_TAG, 1, 2]).unwrap_err(),
            WireError::Truncated { needed: frame::DIRECTED_OVERHEAD, got: 3 }
        );
        assert_eq!(
            FrameView::parse(&[frame::ACK_TAG]).unwrap_err(),
            WireError::Truncated { needed: 17, got: 1 }
        );
        assert!(matches!(
            PackedView::parse(&[0x3f, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap_err(),
            WireError::UnknownKind(0x3f)
        ));
    }
}
