//! Technology-internal control frames.
//!
//! The WiFi technologies exchange a small amount of control traffic that is
//! invisible to both the application and the manager: multicast address
//! resolution, used when a data transfer targets a peer whose mesh address
//! was not learned through low-level neighbor discovery (paper §4.2 — the
//! expensive WiFi discovery path the State of the Art always pays and Omni
//! pays only when no low-energy discovery technology is available).

use bytes::{BufMut, Bytes, BytesMut};
use omni_wire::{MeshAddress, OmniAddress, PackedStruct, PackedView, WireError};

const TAG_PACKED: u8 = 0x50; // 'P'
const TAG_RESOLVE: u8 = 0x52; // 'R'
const TAG_REPLY: u8 = 0x41; // 'A'
const TAG_BATCH: u8 = 0x42; // 'B'

/// A frame carried in a WiFi multicast datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlFrame {
    /// An ordinary Omni transmission (context / data / address beacon).
    Packed(PackedStruct),
    /// Several transmissions consolidated into one datagram — the beacon
    /// consolidation the paper describes for the OS-service deployment
    /// ("consolidating context into fewer beacons", §4): one multicast
    /// carries the address beacon and every active context pack.
    Batch(Vec<PackedStruct>),
    /// "Who has `target`? Answer `requester`."
    Resolve {
        /// The unified address being resolved.
        target: OmniAddress,
        /// The asking device's unified address.
        requester: OmniAddress,
    },
    /// "`addr` is reachable at `mesh`."
    ResolveReply {
        /// The unified address that was resolved.
        addr: OmniAddress,
        /// Its connectable mesh address.
        mesh: MeshAddress,
    },
}

impl ControlFrame {
    /// Encodes the frame for multicast transport.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the frame to a caller-provided (pooled) buffer. Carried
    /// transmissions are written in place via [`PackedStruct::encode_into`]
    /// — no per-pack intermediate allocation (DESIGN.md §5i).
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            ControlFrame::Packed(p) => {
                buf.reserve(1 + p.encoded_len());
                buf.put_u8(TAG_PACKED);
                p.encode_into(buf);
            }
            ControlFrame::Batch(packs) => {
                assert!(packs.len() <= u8::MAX as usize, "batch too large");
                buf.put_u8(TAG_BATCH);
                buf.put_u8(packs.len() as u8);
                for p in packs {
                    buf.put_u16(p.encoded_len() as u16);
                    p.encode_into(buf);
                }
            }
            ControlFrame::Resolve { target, requester } => {
                buf.reserve(17);
                buf.put_u8(TAG_RESOLVE);
                buf.put_slice(&target.to_bytes());
                buf.put_slice(&requester.to_bytes());
            }
            ControlFrame::ResolveReply { addr, mesh } => {
                buf.reserve(17);
                buf.put_u8(TAG_REPLY);
                buf.put_slice(&addr.to_bytes());
                buf.put_slice(&mesh.0);
            }
        }
    }

    /// Decodes a multicast frame. Carried transmissions slice their payloads
    /// out of the shared datagram buffer instead of copying them (DESIGN.md
    /// §5i).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for truncated or unrecognized frames.
    pub fn decode_shared(bytes: &Bytes) -> Result<Self, WireError> {
        let buf = bytes.as_ref();
        let (&tag, rest) = buf.split_first().ok_or(WireError::Truncated { needed: 1, got: 0 })?;
        match tag {
            TAG_PACKED => Ok(ControlFrame::Packed(PackedView::parse(rest)?.to_shared(bytes, 1))),
            TAG_BATCH => {
                let (&count, mut body) =
                    rest.split_first().ok_or(WireError::Truncated { needed: 1, got: 0 })?;
                // Byte offset of `body` within the backing buffer, so each
                // pack's payload can slice the shared storage.
                let mut at = 2usize;
                let mut packs = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    if body.len() < 2 {
                        return Err(WireError::Truncated { needed: 2, got: body.len() });
                    }
                    let len = u16::from_be_bytes([body[0], body[1]]) as usize;
                    body = &body[2..];
                    at += 2;
                    if body.len() < len {
                        return Err(WireError::Truncated { needed: len, got: body.len() });
                    }
                    packs.push(PackedView::parse(&body[..len])?.to_shared(bytes, at));
                    body = &body[len..];
                    at += len;
                }
                Ok(ControlFrame::Batch(packs))
            }
            TAG_RESOLVE | TAG_REPLY => {
                if rest.len() != 16 {
                    return Err(WireError::Truncated { needed: 16, got: rest.len() });
                }
                let (mut first, mut second) = ([0u8; 8], [0u8; 8]);
                first.copy_from_slice(&rest[..8]);
                second.copy_from_slice(&rest[8..]);
                let first = OmniAddress::from_bytes(first);
                Ok(if tag == TAG_RESOLVE {
                    ControlFrame::Resolve {
                        target: first,
                        requester: OmniAddress::from_bytes(second),
                    }
                } else {
                    ControlFrame::ResolveReply { addr: first, mesh: MeshAddress(second) }
                })
            }
            other => Err(WireError::UnknownKind(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_frame_roundtrips() {
        let p = PackedStruct::context(OmniAddress::from_u64(5), Bytes::from_static(b"svc"));
        let f = ControlFrame::Packed(p);
        assert_eq!(ControlFrame::decode_shared(&f.encode()).unwrap(), f);
    }

    #[test]
    fn resolve_roundtrips() {
        let f = ControlFrame::Resolve {
            target: OmniAddress::from_u64(0xAAAA),
            requester: OmniAddress::from_u64(0xBBBB),
        };
        assert_eq!(ControlFrame::decode_shared(&f.encode()).unwrap(), f);
    }

    #[test]
    fn reply_roundtrips() {
        let f = ControlFrame::ResolveReply {
            addr: OmniAddress::from_u64(0xCCCC),
            mesh: MeshAddress::from_u64(0xDDDD),
        };
        assert_eq!(ControlFrame::decode_shared(&f.encode()).unwrap(), f);
    }

    #[test]
    fn junk_is_rejected_not_panicking() {
        for junk in [&[][..], &[0xff, 1, 2], &[TAG_RESOLVE, 1, 2], &[TAG_BATCH, 2, 0, 9]] {
            assert!(ControlFrame::decode_shared(&Bytes::copy_from_slice(junk)).is_err());
        }
    }
}
