//! Data technology selection (paper §3.3, *Sending Content*).
//!
//! "For data, Omni determines which D2D technologies are available at a
//! designated peer and selects the technology that minimizes the expected
//! time to deliver the data. Omni considers the expected throughput of the
//! radio, the size of the data, and the time needed to form a connection."

use omni_sim::{
    mcast_airtime, SimDuration, SimTime, BLE_MAX_PAYLOAD, BLE_ONESHOT_LATENCY, MCAST_FIXED_AIRTIME,
    NFC_MAX_PAYLOAD, NFC_TOUCH_LATENCY, TCP_CONNECT_TIME, WIFI_CAPACITY_BPS, WIFI_JOIN_TIME,
    WIFI_SCAN_TIME,
};
use omni_wire::frame::DIRECTED_OVERHEAD;
use omni_wire::TechType;

use crate::peers::{self, PeerRecord};
use crate::queues::LowAddr;

/// Expected multicast address-resolution round trip: a request and its
/// reply, one multicast airtime each, plus 10 ms.
const RESOLVE_RTT: SimDuration =
    SimDuration::from_micros(2 * MCAST_FIXED_AIRTIME.as_micros() + 10_000);

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

/// Whether `tech` can carry a frame around a packed struct of `packed_len`
/// bytes. BLE and NFC bound their frames by the radio's limits
/// ([`BLE_MAX_PAYLOAD`], [`NFC_MAX_PAYLOAD`]): BLE's framing is
/// `ble_frame_overhead`, NFC's [`DIRECTED_OVERHEAD`]. The WiFi technologies
/// carry any size.
pub(crate) fn fits(tech: TechType, packed_len: usize, ble_frame_overhead: usize) -> bool {
    match tech {
        TechType::BleBeacon => packed_len + ble_frame_overhead <= BLE_MAX_PAYLOAD,
        TechType::Nfc => packed_len + DIRECTED_OVERHEAD <= NFC_MAX_PAYLOAD,
        TechType::WifiMulticast | TechType::WifiTcp => true,
    }
}

/// Enumerates delivery candidates for `size` bytes to the peer described by
/// `record`, cheapest expected delivery time first. The expected times come
/// from the simulator's link constants, the same ones its radios run on.
///
/// `size` drives the expected delivery times. `packed_len` is the encoded
/// length of the packed struct the frame carries (header, trace, relay
/// header and payload), which the BLE and NFC payload bounds check together
/// with their framing;
/// `enabled` lists the technologies this device currently has enabled;
/// only addresses heard within [`PEER_TTL`](crate::PEER_TTL) of `now` are
/// offered;
/// `ble_frame_overhead` is the directed-frame framing the BLE payload bound
/// must absorb ([`DIRECTED_OVERHEAD`], or
/// [`ACKED_OVERHEAD`](omni_wire::frame::ACKED_OVERHEAD) on the reliable
/// path);
/// `has_session` reports whether a technology already holds an open session
/// to the given address (sessions skip connection formation).
pub fn candidates(
    record: &PeerRecord,
    size: u64,
    packed_len: usize,
    enabled: &[TechType],
    now: SimTime,
    ble_frame_overhead: usize,
    mut has_session: impl FnMut(TechType, &LowAddr) -> bool,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    let on = |t: TechType| enabled.contains(&t);
    let fresh = |at: SimTime| peers::is_fresh(at, now);

    // Unicast TCP, direct: connect (or reuse a session) + fluid transfer.
    if on(TechType::WifiTcp) {
        if let Some((mesh, at)) = record.mesh_direct() {
            if fresh(at) {
                let dest = LowAddr::Mesh(mesh);
                let connect = if has_session(TechType::WifiTcp, &dest) {
                    SimDuration::ZERO
                } else {
                    TCP_CONNECT_TIME
                };
                let transfer = SimDuration::from_secs_f64(size as f64 / WIFI_CAPACITY_BPS);
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
        if record.mesh_direct().map(|(_, at)| !fresh(at)).unwrap_or(true) {
            if let Some((mesh, at)) = record.mesh_mcast() {
                if fresh(at) {
                    let transfer = SimDuration::from_secs_f64(size as f64 / WIFI_CAPACITY_BPS);
                    let expected =
                        WIFI_SCAN_TIME + WIFI_JOIN_TIME + RESOLVE_RTT + TCP_CONNECT_TIME + transfer;
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
        if let Some((ble, at)) = record.ble() {
            if fresh(at) && fits(TechType::BleBeacon, packed_len, ble_frame_overhead) {
                out.push(Candidate {
                    tech: TechType::BleBeacon,
                    dest: LowAddr::Ble(ble),
                    establish: false,
                    expected: BLE_ONESHOT_LATENCY,
                });
            }
        }
    }

    // NFC: touch latency, requires physical contact (we optimistically offer
    // it; failure falls through to the next candidate).
    if on(TechType::Nfc) {
        if let Some((nfc, at)) = record.nfc() {
            if fresh(at) && fits(TechType::Nfc, packed_len, ble_frame_overhead) {
                out.push(Candidate {
                    tech: TechType::Nfc,
                    dest: LowAddr::Nfc(nfc),
                    establish: false,
                    expected: NFC_TOUCH_LATENCY,
                });
            }
        }
    }

    // Multicast UDP: basic-rate transfer; only sensible when already in the
    // group with the peer.
    if on(TechType::WifiMulticast) {
        if let Some((mesh, at)) = record.mesh_mcast() {
            if fresh(at) {
                out.push(Candidate {
                    tech: TechType::WifiMulticast,
                    dest: LowAddr::Mesh(mesh),
                    establish: false,
                    expected: mcast_airtime(size),
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
    use omni_wire::{BleAddress, MeshAddress, HEADER_LEN, TRACE_LEN};

    fn now() -> SimTime {
        SimTime::from_secs(10)
    }

    /// Encoded length of a traced packed struct carrying `size` bytes.
    fn traced(size: u64) -> usize {
        HEADER_LEN + TRACE_LEN + size as usize
    }

    fn record_with(mesh_direct: bool, mesh_mcast: bool, ble: bool) -> PeerRecord {
        let mut r = PeerRecord::default();
        if mesh_direct {
            r.set_mesh_direct(MeshAddress::from_u64(0xB2), now());
        }
        if mesh_mcast {
            r.set_mesh_mcast(MeshAddress::from_u64(0xB2), now());
        }
        if ble {
            r.set_ble(BleAddress([2; 6]), now());
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
            &record_with(true, false, true),
            30,
            traced(30),
            &all(),
            now(),
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
            &record_with(true, false, true),
            30,
            traced(30),
            &[TechType::BleBeacon],
            now(),
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
            &record_with(true, false, true),
            25_000_000,
            traced(25_000_000),
            &all(),
            now(),
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
            &record_with(false, true, false),
            30,
            traced(30),
            &[TechType::WifiTcp, TechType::WifiMulticast],
            now(),
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
            &record_with(true, false, false),
            30,
            traced(30),
            &[TechType::WifiTcp],
            now(),
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
        let c = candidates(&r, 30, traced(30), &all(), late, 9, |_, _| false);
        assert!(c.is_empty());
        // Refresh just the BLE sighting: BLE comes back.
        r.set_ble(BleAddress([2; 6]), late);
        let c2 = candidates(&r, 30, traced(30), &all(), late, 9, |_, _| false);
        assert_eq!(c2.len(), 1);
        assert_eq!(c2[0].tech, TechType::BleBeacon);
    }

    #[test]
    fn bulk_prefers_establish_tcp_over_multicast() {
        // 25 MB: establishing (≈2.8 s) + 3 s transfer ≪ 150 s of multicast.
        let c = candidates(
            &record_with(false, true, false),
            25_000_000,
            traced(25_000_000),
            &[TechType::WifiTcp, TechType::WifiMulticast],
            now(),
            9,
            |_, _| false,
        );
        assert_eq!(c[0].tech, TechType::WifiTcp);
        assert!(c[0].establish);
    }

    #[test]
    fn payload_bounds_count_the_whole_packed_struct_and_its_framing() {
        let mut r = record_with(false, false, true);
        r.set_nfc(omni_wire::NfcAddress([7; 4]), now());
        let offered = |packed_len: usize| -> Vec<TechType> {
            candidates(&r, 1, packed_len, &all(), now(), 17, |_, _| false)
                .into_iter()
                .map(|c| c.tech)
                .collect()
        };
        // BLE with acked framing (17 B) against its 64 B limit, and NFC
        // with directed framing (9 B) against its 4096 B limit.
        assert_eq!(offered(47), [TechType::Nfc, TechType::BleBeacon]);
        assert_eq!(offered(48), [TechType::Nfc]);
        assert_eq!(offered(4087), [TechType::Nfc]);
        assert!(offered(4088).is_empty());
    }
}
