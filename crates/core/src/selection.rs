//! Data technology selection (paper §3.3, *Sending Content*).
//!
//! "For data, Omni determines which D2D technologies are available at a
//! designated peer and selects the technology that minimizes the expected
//! time to deliver the data. Omni considers the expected throughput of the
//! radio, the size of the data, and the time needed to form a connection."

use omni_sim::{SimDuration, SimTime};
use omni_wire::{OmniAddress, TechType, HEADER_LEN};

use crate::config::LinkTimings;
use crate::peers::PeerRecord;
use crate::queues::LowAddr;

/// One way to deliver a piece of data to a peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The carrying technology.
    pub tech: TechType,
    /// The low-level destination to hand that technology.
    pub dest: LowAddr,
    /// Whether network-level connectivity must be established first.
    pub establish: bool,
    /// Expected time to deliver.
    pub expected: SimDuration,
}

/// Enumerates delivery candidates for `size` bytes to the peer described by
/// `record`, cheapest expected delivery time first.
///
/// `enabled` lists the technologies this device currently has enabled;
/// `ble_frame_overhead` is the directed-frame framing the BLE payload bound
/// must absorb ([`DIRECTED_OVERHEAD`](omni_wire::frame::DIRECTED_OVERHEAD),
/// or [`ACKED_OVERHEAD`](omni_wire::frame::ACKED_OVERHEAD) on the reliable
/// path);
/// `has_session` reports whether a technology already holds an open session
/// to the given address (sessions skip connection formation).
#[allow(clippy::too_many_arguments)]
pub fn candidates(
    target: OmniAddress,
    record: &PeerRecord,
    size: u64,
    enabled: &[TechType],
    timings: &LinkTimings,
    now: SimTime,
    ttl: SimDuration,
    ble_frame_overhead: usize,
    mut has_session: impl FnMut(TechType, &LowAddr) -> bool,
) -> Vec<Candidate> {
    let _ = target;
    let mut out = Vec::new();
    let on = |t: TechType| enabled.contains(&t);
    let fresh = |at: SimTime| now.saturating_since(at) <= ttl;

    // Unicast TCP, direct: connect (or reuse a session) + fluid transfer.
    if on(TechType::WifiTcp) {
        if let Some((mesh, at)) = record.mesh_direct {
            if fresh(at) {
                let dest = LowAddr::Mesh(mesh);
                let connect = if has_session(TechType::WifiTcp, &dest) {
                    SimDuration::ZERO
                } else {
                    timings.tcp_connect
                };
                let transfer = SimDuration::from_secs_f64(size as f64 / timings.unicast_bps);
                out.push(Candidate {
                    tech: TechType::WifiTcp,
                    dest,
                    establish: false,
                    expected: connect + transfer,
                });
            }
        }
        // Unicast TCP with network establishment: scan + join + resolve +
        // connect + transfer. Available whenever the peer is known to be on
        // the mesh at all (multicast provenance).
        if record.mesh_direct.map(|(_, at)| !fresh(at)).unwrap_or(true) {
            if let Some((mesh, at)) = record.mesh_mcast {
                if fresh(at) {
                    let transfer = SimDuration::from_secs_f64(size as f64 / timings.unicast_bps);
                    let expected = timings.wifi_scan
                        + timings.wifi_join
                        + timings.resolve_rtt
                        + timings.tcp_connect
                        + transfer;
                    out.push(Candidate {
                        tech: TechType::WifiTcp,
                        dest: LowAddr::Mesh(mesh),
                        establish: true,
                        expected,
                    });
                }
            }
        }
    }

    // BLE one-shot: fixed rendezvous latency, tight payload bound. The
    // directed frame adds its framing header on top of the packed struct.
    if on(TechType::BleBeacon) {
        if let Some((ble, at)) = record.ble {
            let framed = size as usize + HEADER_LEN + ble_frame_overhead;
            if fresh(at) && framed <= timings.ble_max_payload {
                out.push(Candidate {
                    tech: TechType::BleBeacon,
                    dest: LowAddr::Ble(ble),
                    establish: false,
                    expected: timings.ble_oneshot,
                });
            }
        }
    }

    // NFC: touch latency, requires physical contact (we optimistically offer
    // it; failure falls through to the next candidate).
    if on(TechType::Nfc) {
        if let Some((nfc, at)) = record.nfc {
            if fresh(at) && size as usize + HEADER_LEN + 9 <= timings.nfc_max_payload {
                out.push(Candidate {
                    tech: TechType::Nfc,
                    dest: LowAddr::Nfc(nfc),
                    establish: false,
                    expected: timings.nfc_touch,
                });
            }
        }
    }

    // Multicast UDP: basic-rate transfer; only sensible when already in the
    // group with the peer.
    if on(TechType::WifiMulticast) {
        if let Some((mesh, at)) = record.mesh_mcast {
            if fresh(at) {
                let expected = timings.mcast_fixed
                    + SimDuration::from_secs_f64(size as f64 / timings.mcast_rate_bps);
                out.push(Candidate {
                    tech: TechType::WifiMulticast,
                    dest: LowAddr::Mesh(mesh),
                    establish: false,
                    expected,
                });
            }
        }
    }

    out.sort_by_key(|c| c.expected);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_wire::{BleAddress, MeshAddress};

    const TTL: SimDuration = SimDuration::from_secs(3);

    fn now() -> SimTime {
        SimTime::from_secs(10)
    }

    fn record_with(mesh_direct: bool, mesh_mcast: bool, ble: bool) -> PeerRecord {
        let mut r = PeerRecord::default();
        if mesh_direct {
            r.mesh_direct = Some((MeshAddress::from_u64(0xB2), now()));
        }
        if mesh_mcast {
            r.mesh_mcast = Some((MeshAddress::from_u64(0xB2), now()));
        }
        if ble {
            r.ble = Some((BleAddress([2; 6]), now()));
        }
        r
    }

    fn all() -> Vec<TechType> {
        TechType::ALL.to_vec()
    }

    #[test]
    fn small_data_with_direct_mesh_prefers_tcp() {
        // 30 B: TCP connect (6 ms) beats the BLE rendezvous (41 ms) — this is
        // Omni's Table 4 BLE/WiFi row.
        let c = candidates(
            OmniAddress::from_u64(9),
            &record_with(true, false, true),
            30,
            &all(),
            &LinkTimings::default(),
            now(),
            TTL,
            9,
            |_, _| false,
        );
        assert_eq!(c[0].tech, TechType::WifiTcp);
        assert!(!c[0].establish);
        // BLE is the fallback.
        assert!(c.iter().any(|x| x.tech == TechType::BleBeacon));
    }

    #[test]
    fn ble_only_configuration_uses_ble() {
        let c = candidates(
            OmniAddress::from_u64(9),
            &record_with(true, false, true),
            30,
            &[TechType::BleBeacon],
            &LinkTimings::default(),
            now(),
            TTL,
            9,
            |_, _| false,
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].tech, TechType::BleBeacon);
        assert_eq!(c[0].expected, SimDuration::from_millis(41));
    }

    #[test]
    fn bulk_data_never_offers_ble() {
        let c = candidates(
            OmniAddress::from_u64(9),
            &record_with(true, false, true),
            25_000_000,
            &all(),
            &LinkTimings::default(),
            now(),
            TTL,
            9,
            |_, _| false,
        );
        assert!(c.iter().all(|x| x.tech != TechType::BleBeacon));
        assert_eq!(c[0].tech, TechType::WifiTcp);
    }

    #[test]
    fn multicast_provenance_requires_establishment() {
        // Peer known only via multicast: the TCP candidate must pay
        // scan + join + resolve — seconds, not milliseconds.
        let c = candidates(
            OmniAddress::from_u64(9),
            &record_with(false, true, false),
            30,
            &[TechType::WifiTcp, TechType::WifiMulticast],
            &LinkTimings::default(),
            now(),
            TTL,
            9,
            |_, _| false,
        );
        let tcp = c.iter().find(|x| x.tech == TechType::WifiTcp).unwrap();
        assert!(tcp.establish);
        assert!(tcp.expected >= SimDuration::from_millis(2500));
        // For 30 B, multicast within the group is quicker than establishing.
        assert_eq!(c[0].tech, TechType::WifiMulticast);
    }

    #[test]
    fn open_sessions_skip_connection_formation() {
        let c = candidates(
            OmniAddress::from_u64(9),
            &record_with(true, false, false),
            30,
            &[TechType::WifiTcp],
            &LinkTimings::default(),
            now(),
            TTL,
            9,
            |t, _| t == TechType::WifiTcp,
        );
        assert!(c[0].expected < SimDuration::from_millis(1));
    }

    #[test]
    fn stale_records_produce_no_candidates() {
        let mut r = record_with(true, true, true);
        // Everything last seen at t=10 s; ask at t=60 s.
        let late = SimTime::from_secs(60);
        let c = candidates(
            OmniAddress::from_u64(9),
            &r,
            30,
            &all(),
            &LinkTimings::default(),
            late,
            TTL,
            9,
            |_, _| false,
        );
        assert!(c.is_empty());
        // Refresh just the BLE sighting: BLE comes back.
        r.ble = Some((BleAddress([2; 6]), late));
        let c2 = candidates(
            OmniAddress::from_u64(9),
            &r,
            30,
            &all(),
            &LinkTimings::default(),
            late,
            TTL,
            9,
            |_, _| false,
        );
        assert_eq!(c2.len(), 1);
        assert_eq!(c2[0].tech, TechType::BleBeacon);
    }

    #[test]
    fn bulk_prefers_establish_tcp_over_multicast() {
        // 25 MB: establishing (≈2.8 s) + 3 s transfer ≪ 150 s of multicast.
        let c = candidates(
            OmniAddress::from_u64(9),
            &record_with(false, true, false),
            25_000_000,
            &[TechType::WifiTcp, TechType::WifiMulticast],
            &LinkTimings::default(),
            now(),
            TTL,
            9,
            |_, _| false,
        );
        assert_eq!(c[0].tech, TechType::WifiTcp);
        assert!(c[0].establish);
    }
}
