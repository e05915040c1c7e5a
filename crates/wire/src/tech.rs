//! D2D technology identifiers.

use core::fmt;

use serde::{Deserialize, Serialize};

/// Identifies a D2D communication technology.
///
/// Technologies report their type (together with their low-level address)
/// from `enable` (paper §3.2, *Setup*), and the Omni Manager keys its peer
/// mapping and send queues by it.
///
/// Ordering is by *context energy cost*, cheapest first: the manager's
/// address-beacon algorithm always beacons on the accessible technology with
/// the lowest energy cost (paper §3.3) and `TechType` iteration order encodes
/// that preference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TechType {
    /// NFC touch exchange: effectively free energy-wise but only centimeters
    /// of range.
    Nfc,
    /// Bluetooth Low Energy advertisements: low-energy connectionless beacons
    /// with built-in neighbor discovery.
    BleBeacon,
    /// Multicast UDP over WiFi-Mesh: application-level broadcast, expensive
    /// (paper §3.2 provides it "as a proof of concept").
    WifiMulticast,
    /// Unicast TCP over WiFi-Mesh: the high-throughput data workhorse.
    WifiTcp,
}

impl TechType {
    /// All technology types, cheapest context cost first.
    pub const ALL: [TechType; 4] =
        [TechType::Nfc, TechType::BleBeacon, TechType::WifiMulticast, TechType::WifiTcp];

    /// Dense index in [`TechType::ALL`] order (`0..4`), for per-technology
    /// arrays that replace small maps on hot paths.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Whether this technology can carry periodic context.
    ///
    /// "Omni only distributes context on communication technologies with
    /// built-in energy-efficient neighbor discovery" plus multicast WiFi as a
    /// proof of concept (paper §3, §3.2).
    pub const fn supports_context(self) -> bool {
        matches!(self, TechType::Nfc | TechType::BleBeacon | TechType::WifiMulticast)
    }

    /// The technology's name, as `Display` writes it. Metric labels and
    /// event payloads take it as a `&'static str`, so recording never
    /// allocates.
    pub const fn label(self) -> &'static str {
        match self {
            TechType::Nfc => "nfc",
            TechType::BleBeacon => "ble-beacon",
            TechType::WifiMulticast => "wifi-multicast",
            TechType::WifiTcp => "wifi-tcp",
        }
    }
}

impl fmt::Display for TechType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_cheapest_context_first() {
        assert!(TechType::Nfc < TechType::BleBeacon);
        assert!(TechType::BleBeacon < TechType::WifiMulticast);
        assert!(TechType::WifiMulticast < TechType::WifiTcp);
        let mut sorted = TechType::ALL;
        sorted.sort();
        assert_eq!(sorted, TechType::ALL);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, t) in TechType::ALL.into_iter().enumerate() {
            assert_eq!(t.index(), i);
        }
    }

    #[test]
    fn context_support_excludes_tcp() {
        assert!(TechType::BleBeacon.supports_context());
        assert!(TechType::WifiMulticast.supports_context());
        assert!(TechType::Nfc.supports_context());
        assert!(!TechType::WifiTcp.supports_context());
    }
}
