//! The `omni_packed_struct` codec.
//!
//! Paper §3.3, *The Omni Packed Struct*: "To minimize overhead, Omni tightly
//! packs all content for transit into a sequence of bytes we call the
//! `omni_packed_struct`. The first byte of every transmission indicates
//! whether it is context, data, or an address beacon. ... The following eight
//! bytes are the `omni_address`. The remainder of the structure is a
//! variable-length payload. Currently, 14 additional bytes are needed for the
//! address beacon: 8 for the WiFi-Mesh address and 6 for the BLE address."

use bytes::{BufMut, Bytes, BytesMut};

use crate::{BleAddress, ContentKind, MeshAddress, OmniAddress, TraceId, WireError};

/// Fixed header length: 1 kind byte + 8 `omni_address` bytes.
pub const HEADER_LEN: usize = 9;

/// High bit of the kind byte: set when an 8-byte [`TraceId`] follows the
/// fixed header. The low 6 bits remain the [`ContentKind`] byte, so untraced
/// frames are bit-identical to the pre-tracing wire format.
pub const TRACE_FLAG: u8 = 0x80;

/// Extra bytes a traced frame carries after the fixed header.
pub const TRACE_LEN: usize = 8;

/// Second-highest bit of the kind byte: set when an 11-byte [`RelayHeader`]
/// follows the (optional) trace field. Non-relayed frames never set it, so
/// the legacy layout is untouched (DESIGN.md §5h).
pub const RELAY_FLAG: u8 = 0x40;

/// Mask extracting the [`ContentKind`] bits from a flagged kind byte.
pub const KIND_MASK: u8 = 0x3f;

/// Extra bytes a relayed frame carries: 8 destination + 1 TTL + 1 hop count
/// + 1 spray copy budget.
pub const RELAY_LEN: usize = 11;

/// Address beacon payload length: 8 bytes WiFi-Mesh address + 6 bytes BLE
/// address.
pub const ADDRESS_BEACON_PAYLOAD_LEN: usize = 14;

/// A decoded (or to-be-encoded) Omni transmission.
///
/// Every byte that crosses a D2D technology in this workspace is the encoding
/// of one of these. Technologies stay agnostic to the contents: they only see
/// an opaque byte string plus the low-level source address (paper §3.2, *The
/// Receive Queue*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedStruct {
    /// What the payload means.
    pub kind: ContentKind,
    /// The sender's unified address. Including it in every message lets the
    /// receiver "refresh part of the peer mapping with each message"
    /// (paper §3.3).
    pub source: OmniAddress,
    /// Variable-length application or beacon payload.
    pub payload: Bytes,
    /// Optional causal trace ID (data transfers) or discovery epoch
    /// (address beacons). Encoded as 8 extra bytes after the header, flagged
    /// by [`TRACE_FLAG`] in the kind byte; `None` keeps the legacy layout.
    pub trace: Option<TraceId>,
    /// Optional multi-hop relay header (final destination, TTL, hop count,
    /// and spray copy budget). Encoded as [`RELAY_LEN`] extra bytes after
    /// the trace field, flagged by [`RELAY_FLAG`] in the kind byte; `None`
    /// keeps the single-hop layout.
    pub relay: Option<RelayHeader>,
}

/// The fixed-size relay header a store-carry-forward frame carries
/// (DESIGN.md §5h): who the frame is ultimately for, how many more hops it
/// may take, how many it has taken, and how many spray copies remain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RelayHeader {
    /// Final destination `omni_address` — distinct from the link-layer
    /// directed-frame destination, which is just the next hop.
    pub dest: OmniAddress,
    /// Remaining hop budget. A custodian never forwards a frame whose TTL
    /// has reached zero; the origin stamps the initial budget.
    pub ttl: u8,
    /// Hops taken so far. Incremented by each forwarding custodian, so
    /// recorder timelines can order hops even under clock-identical events.
    pub hops: u8,
    /// Spray-and-wait copy budget carried with the frame. Epidemic and
    /// PRoPHET strategies ignore it and carry 0.
    pub copies: u8,
}

impl RelayHeader {
    /// Builds a fresh header at the origin: full TTL, zero hops.
    pub const fn new(dest: OmniAddress, ttl: u8) -> Self {
        RelayHeader { dest, ttl, hops: 0, copies: 0 }
    }

    /// Sets the spray-and-wait copy budget.
    #[must_use]
    pub const fn with_copies(mut self, copies: u8) -> Self {
        self.copies = copies;
        self
    }

    /// The header a custodian stamps on the copy it forwards: one less TTL,
    /// one more hop. Saturates rather than wrapping; callers must check
    /// [`RelayHeader::ttl`] before forwarding.
    #[must_use]
    pub const fn next_hop(self) -> Self {
        RelayHeader {
            dest: self.dest,
            ttl: self.ttl.saturating_sub(1),
            hops: self.hops.saturating_add(1),
            copies: self.copies,
        }
    }

    fn put(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.dest.to_bytes());
        buf.put_u8(self.ttl);
        buf.put_u8(self.hops);
        buf.put_u8(self.copies);
    }

    fn read(bytes: &[u8]) -> Self {
        let mut dest = [0u8; 8];
        dest.copy_from_slice(&bytes[..8]);
        RelayHeader {
            dest: OmniAddress::from_bytes(dest),
            ttl: bytes[8],
            hops: bytes[9],
            copies: bytes[10],
        }
    }
}

impl PackedStruct {
    /// Builds a context transmission.
    pub fn context(source: OmniAddress, payload: impl Into<Bytes>) -> Self {
        PackedStruct {
            kind: ContentKind::Context,
            source,
            payload: payload.into(),
            trace: None,
            relay: None,
        }
    }

    /// Builds a data transmission.
    pub fn data(source: OmniAddress, payload: impl Into<Bytes>) -> Self {
        PackedStruct {
            kind: ContentKind::Data,
            source,
            payload: payload.into(),
            trace: None,
            relay: None,
        }
    }

    /// Builds an address beacon carrying the sender's low-level addresses.
    pub fn address_beacon(source: OmniAddress, beacon: &AddressBeaconPayload) -> Self {
        PackedStruct {
            kind: ContentKind::AddressBeacon,
            source,
            payload: beacon.encode(),
            trace: None,
            relay: None,
        }
    }

    /// Stamps a trace ID (or, for beacons, a discovery epoch) onto this
    /// transmission.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceId) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Stamps a multi-hop relay header onto this transmission.
    #[must_use]
    pub fn with_relay(mut self, relay: RelayHeader) -> Self {
        self.relay = Some(relay);
        self
    }

    /// Total encoded length in bytes.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN
            + if self.trace.is_some() { TRACE_LEN } else { 0 }
            + if self.relay.is_some() { RELAY_LEN } else { 0 }
            + self.payload.len()
    }

    /// Encodes to the tightly packed wire form in a freshly allocated
    /// buffer. Hot paths reuse a caller-owned buffer via
    /// [`PackedStruct::encode_into`] instead.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the wire form to a caller-provided buffer (DESIGN.md §5i).
    ///
    /// The frame-encode helpers in [`crate::frame`] and the technology send
    /// paths use this with a pooled scratch buffer so a steady-state send
    /// costs one shared-buffer allocation, not one per framing layer.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.reserve(self.encoded_len());
        let mut kind = self.kind.as_byte();
        if self.trace.is_some() {
            kind |= TRACE_FLAG;
        }
        if self.relay.is_some() {
            kind |= RELAY_FLAG;
        }
        buf.put_u8(kind);
        buf.put_slice(&self.source.to_bytes());
        if let Some(t) = self.trace {
            buf.put_u64(t.as_u64());
        }
        if let Some(r) = &self.relay {
            r.put(buf);
        }
        buf.put_slice(&self.payload);
    }

    /// Decodes from the wire form, copying the payload into owned storage.
    ///
    /// This is the original owned codec, retained as the differential oracle
    /// for the zero-copy path (`crates/wire/tests/differential.rs`): the
    /// receive paths use [`PackedStruct::decode_shared`] /
    /// [`crate::PackedView`] instead, which never copy payload bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if fewer than [`HEADER_LEN`] bytes are
    /// present (or fewer than the header plus [`TRACE_LEN`] /
    /// [`RELAY_LEN`] when the kind byte carries [`TRACE_FLAG`] /
    /// [`RELAY_FLAG`]), or [`WireError::UnknownKind`] for an unrecognized
    /// kind byte.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < HEADER_LEN {
            return Err(WireError::Truncated { needed: HEADER_LEN, got: bytes.len() });
        }
        let traced = bytes[0] & TRACE_FLAG != 0;
        let relayed = bytes[0] & RELAY_FLAG != 0;
        let kind = ContentKind::from_byte(bytes[0] & KIND_MASK)?;
        let mut addr = [0u8; 8];
        addr.copy_from_slice(&bytes[1..9]);
        let (trace, mut body) = if traced {
            if bytes.len() < HEADER_LEN + TRACE_LEN {
                return Err(WireError::Truncated {
                    needed: HEADER_LEN + TRACE_LEN,
                    got: bytes.len(),
                });
            }
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&bytes[HEADER_LEN..HEADER_LEN + TRACE_LEN]);
            // Zero is reserved for "untraced"; a flagged-but-zero field
            // decodes as None rather than erroring, so re-encoding such a
            // frame canonicalizes it.
            (TraceId::from_u64(u64::from_be_bytes(raw)), HEADER_LEN + TRACE_LEN)
        } else {
            (None, HEADER_LEN)
        };
        let relay = if relayed {
            if bytes.len() < body + RELAY_LEN {
                return Err(WireError::Truncated { needed: body + RELAY_LEN, got: bytes.len() });
            }
            let header = RelayHeader::read(&bytes[body..body + RELAY_LEN]);
            body += RELAY_LEN;
            Some(header)
        } else {
            None
        };
        Ok(PackedStruct {
            kind,
            source: OmniAddress::from_bytes(addr),
            payload: Bytes::copy_from_slice(&bytes[body..]),
            trace,
            relay,
        })
    }

    /// Zero-copy decode: like [`PackedStruct::decode`], but the returned
    /// payload is a [`Bytes::slice`] of `bytes` — the reference-counted
    /// storage is shared all the way into the receive queues, never copied
    /// (DESIGN.md §5i). Validation is [`crate::PackedView::parse`], so the
    /// error taxonomy is pinned to the owned oracle's.
    ///
    /// # Errors
    ///
    /// Exactly those of [`PackedStruct::decode`].
    pub fn decode_shared(bytes: &Bytes) -> Result<Self, WireError> {
        Ok(crate::PackedView::parse(bytes.as_ref())?.to_shared(bytes, 0))
    }

    /// Reads the trace ID out of an encoded frame without a full decode.
    ///
    /// Returns `None` for untraced, truncated, or flagged-but-zero frames.
    /// Used by the simulator's fault layer to attribute dropped frames to
    /// traces without paying for payload copies.
    pub fn peek_trace(bytes: &[u8]) -> Option<TraceId> {
        if bytes.len() < HEADER_LEN + TRACE_LEN || bytes[0] & TRACE_FLAG == 0 {
            return None;
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&bytes[HEADER_LEN..HEADER_LEN + TRACE_LEN]);
        TraceId::from_u64(u64::from_be_bytes(raw))
    }

    /// Decodes the payload as an address beacon.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadBeaconLength`] if this is not a well-formed
    /// 14-byte beacon payload.
    pub fn beacon_payload(&self) -> Result<AddressBeaconPayload, WireError> {
        AddressBeaconPayload::decode(&self.payload)
    }
}

/// The 14-byte address beacon payload: the sender's connectable WiFi-Mesh and
/// BLE addresses.
///
/// A zeroed field means "this technology is unavailable on the sender"; it is
/// represented here as `None`. All-zero addresses are reserved for this
/// purpose and are never assigned to simulated radios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AddressBeaconPayload {
    /// The sender's WiFi-Mesh address, if its WiFi radio is powered.
    pub mesh: Option<MeshAddress>,
    /// The sender's BLE address, if its BLE radio is powered.
    pub ble: Option<BleAddress>,
}

impl AddressBeaconPayload {
    /// Encodes to exactly 14 bytes (8 mesh + 6 BLE), zero-filling absent
    /// technologies.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(ADDRESS_BEACON_PAYLOAD_LEN);
        buf.put_slice(&self.mesh.unwrap_or_default().0);
        buf.put_slice(&self.ble.unwrap_or_default().0);
        buf.freeze()
    }

    /// Decodes from exactly 14 bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadBeaconLength`] for any other input length.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() != ADDRESS_BEACON_PAYLOAD_LEN {
            return Err(WireError::BadBeaconLength(bytes.len()));
        }
        let mut mesh = [0u8; 8];
        mesh.copy_from_slice(&bytes[..8]);
        let mut ble = [0u8; 6];
        ble.copy_from_slice(&bytes[8..]);
        let mesh = MeshAddress(mesh);
        let ble = BleAddress(ble);
        Ok(AddressBeaconPayload {
            mesh: (mesh != MeshAddress::default()).then_some(mesh),
            ble: (ble != BleAddress::default()).then_some(ble),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> OmniAddress {
        OmniAddress::from_u64(0x0123_4567_89ab_cdef)
    }

    #[test]
    fn context_roundtrip() {
        let p = PackedStruct::context(addr(), &b"tour-guide:audio"[..]);
        let decoded = PackedStruct::decode(&p.encode()).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(decoded.kind, ContentKind::Context);
    }

    #[test]
    fn data_roundtrip_preserves_payload_bytes() {
        let payload: Vec<u8> = (0..=255).collect();
        let p = PackedStruct::data(addr(), payload.clone());
        let decoded = PackedStruct::decode(&p.encode()).unwrap();
        assert_eq!(&decoded.payload[..], &payload[..]);
    }

    #[test]
    fn empty_payload_is_legal() {
        let p = PackedStruct::context(addr(), Bytes::new());
        assert_eq!(p.encoded_len(), HEADER_LEN);
        assert_eq!(PackedStruct::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn header_is_kind_then_address() {
        let p = PackedStruct::data(addr(), &b"x"[..]);
        let wire = p.encode();
        assert_eq!(wire[0], ContentKind::Data.as_byte());
        assert_eq!(&wire[1..9], &addr().to_bytes());
        assert_eq!(&wire[9..], b"x");
    }

    #[test]
    fn truncated_input_is_rejected() {
        for len in 0..HEADER_LEN {
            let bytes = vec![0u8; len];
            assert_eq!(
                PackedStruct::decode(&bytes),
                Err(WireError::Truncated { needed: HEADER_LEN, got: len })
            );
        }
    }

    #[test]
    fn beacon_payload_is_exactly_fourteen_bytes() {
        let b = AddressBeaconPayload {
            mesh: Some(MeshAddress::from_u64(1)),
            ble: Some(BleAddress::from_u64(2)),
        };
        assert_eq!(b.encode().len(), ADDRESS_BEACON_PAYLOAD_LEN);
    }

    #[test]
    fn beacon_roundtrip() {
        let b = AddressBeaconPayload {
            mesh: Some(MeshAddress::from_u64(0xa1b2_c3d4)),
            ble: Some(BleAddress([9, 8, 7, 6, 5, 4])),
        };
        let p = PackedStruct::address_beacon(addr(), &b);
        assert_eq!(p.encoded_len(), HEADER_LEN + ADDRESS_BEACON_PAYLOAD_LEN);
        let decoded = PackedStruct::decode(&p.encode()).unwrap();
        assert_eq!(decoded.beacon_payload().unwrap(), b);
    }

    #[test]
    fn absent_technologies_encode_as_zero_and_decode_as_none() {
        let b = AddressBeaconPayload { mesh: None, ble: Some(BleAddress([1, 1, 1, 1, 1, 1])) };
        let decoded = AddressBeaconPayload::decode(&b.encode()).unwrap();
        assert_eq!(decoded.mesh, None);
        assert_eq!(decoded.ble, b.ble);
    }

    #[test]
    fn wrong_beacon_length_is_rejected() {
        assert_eq!(AddressBeaconPayload::decode(&[0u8; 13]), Err(WireError::BadBeaconLength(13)));
        assert_eq!(AddressBeaconPayload::decode(&[0u8; 15]), Err(WireError::BadBeaconLength(15)));
    }

    #[test]
    fn beacon_payload_on_non_beacon_is_an_error() {
        let p = PackedStruct::data(addr(), &b"not a beacon"[..]);
        assert!(p.beacon_payload().is_err());
    }

    #[test]
    fn traced_frame_roundtrips_and_flags_the_kind_byte() {
        let t = TraceId::derive(addr(), 3);
        let p = PackedStruct::data(addr(), &b"payload"[..]).with_trace(t);
        assert_eq!(p.encoded_len(), HEADER_LEN + TRACE_LEN + 7);
        let wire = p.encode();
        assert_eq!(wire.len(), p.encoded_len());
        assert_eq!(wire[0], ContentKind::Data.as_byte() | TRACE_FLAG);
        assert_eq!(&wire[1..9], &addr().to_bytes());
        assert_eq!(&wire[9..17], &t.as_u64().to_be_bytes());
        assert_eq!(&wire[17..], b"payload");
        let decoded = PackedStruct::decode(&wire).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(decoded.trace, Some(t));
    }

    #[test]
    fn untraced_frames_keep_the_legacy_layout() {
        let p = PackedStruct::data(addr(), &b"x"[..]);
        let wire = p.encode();
        assert_eq!(wire[0], ContentKind::Data.as_byte());
        assert_eq!(wire.len(), HEADER_LEN + 1);
        assert_eq!(PackedStruct::decode(&wire).unwrap().trace, None);
    }

    #[test]
    fn traced_frame_truncated_in_the_trace_field_is_rejected() {
        let t = TraceId::derive(addr(), 0);
        let wire = PackedStruct::data(addr(), Bytes::new()).with_trace(t).encode();
        for len in HEADER_LEN..HEADER_LEN + TRACE_LEN {
            assert_eq!(
                PackedStruct::decode(&wire[..len]),
                Err(WireError::Truncated { needed: HEADER_LEN + TRACE_LEN, got: len })
            );
        }
    }

    #[test]
    fn flagged_zero_trace_decodes_as_untraced() {
        let mut wire = vec![ContentKind::Data.as_byte() | TRACE_FLAG];
        wire.extend_from_slice(&addr().to_bytes());
        wire.extend_from_slice(&[0u8; TRACE_LEN]);
        wire.push(0xab);
        let decoded = PackedStruct::decode(&wire).unwrap();
        assert_eq!(decoded.trace, None);
        assert_eq!(&decoded.payload[..], &[0xab]);
    }

    #[test]
    fn peek_trace_matches_full_decode() {
        let t = TraceId::derive(addr(), 9);
        let traced = PackedStruct::context(addr(), &b"ctx"[..]).with_trace(t).encode();
        assert_eq!(PackedStruct::peek_trace(&traced), Some(t));
        let plain = PackedStruct::context(addr(), &b"ctx"[..]).encode();
        assert_eq!(PackedStruct::peek_trace(&plain), None);
        assert_eq!(PackedStruct::peek_trace(&traced[..12]), None);
    }

    #[test]
    fn beacons_carry_a_discovery_epoch_in_the_same_field() {
        let b = AddressBeaconPayload {
            mesh: Some(MeshAddress::from_u64(1)),
            ble: Some(BleAddress::from_u64(2)),
        };
        let epoch = TraceId::derive(addr(), 0);
        let p = PackedStruct::address_beacon(addr(), &b).with_trace(epoch);
        let decoded = PackedStruct::decode(&p.encode()).unwrap();
        assert_eq!(decoded.trace, Some(epoch));
        assert_eq!(decoded.beacon_payload().unwrap(), b);
    }
}
