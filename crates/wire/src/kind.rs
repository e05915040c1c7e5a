//! Content kinds carried by the `omni_packed_struct`.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::WireError;

/// The first byte of every Omni transmission "indicates whether it is
/// context, data, or an address beacon" (paper §3.3).
///
/// * [`ContentKind::AddressBeacon`] packets are internal to Omni: they carry
///   the low-level addresses of the sender's radios and are never surfaced to
///   applications.
/// * [`ContentKind::Context`] packets are small, periodic, broadcast items —
///   service advertisements, interests, application context.
/// * [`ContentKind::Data`] packets are one-shot, directed transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum ContentKind {
    /// Internal neighbor-discovery beacon (hidden from applications).
    AddressBeacon = 0,
    /// Lightweight periodic context.
    Context = 1,
    /// Heavyweight directed data.
    Data = 2,
}

impl ContentKind {
    /// The wire byte for this kind.
    pub const fn as_byte(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnknownKind`] for any byte other than 0, 1, or 2.
    pub const fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(ContentKind::AddressBeacon),
            1 => Ok(ContentKind::Context),
            2 => Ok(ContentKind::Data),
            other => Err(WireError::UnknownKind(other)),
        }
    }
}

impl fmt::Display for ContentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ContentKind::AddressBeacon => "address-beacon",
            ContentKind::Context => "context",
            ContentKind::Data => "data",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip_for_all_kinds() {
        for kind in [ContentKind::AddressBeacon, ContentKind::Context, ContentKind::Data] {
            assert_eq!(ContentKind::from_byte(kind.as_byte()).unwrap(), kind);
        }
    }

    #[test]
    fn unknown_bytes_are_rejected() {
        for b in 3u8..=255 {
            assert_eq!(ContentKind::from_byte(b), Err(WireError::UnknownKind(b)));
        }
    }
}
