//! The peer mapping (paper §3.3, *Peer Mapping*).
//!
//! "The Omni Manager maintains a dynamic, real-time mapping of a peer's
//! `omni_address` to the D2D technologies available at that peer. For each
//! D2D technology, the necessary concrete addressing information is also
//! provided."
//!
//! One refinement matters for the evaluation: *provenance*. A mesh address
//! carried by an address beacon over a low-level neighbor-discovery
//! technology (BLE, NFC), or learned from a live TCP session, is directly
//! connectable — mesh peering state travels with it. A mesh address gleaned
//! from application-level multicast is only group-scoped: using it requires
//! (re)establishing network-level connectivity first (see
//! [`crate::techs::WifiTcpTech`]). This distinction is exactly why Omni's
//! 16 ms data path exists only when low-level neighbor discovery is "in the
//! fold" (paper §1).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use omni_sim::{CellHasher, SimDuration, SimTime};
use omni_wire::{AddressBeaconPayload, BleAddress, MeshAddress, NfcAddress, OmniAddress, TechType};

use crate::queues::LowAddr;

/// How long a peer-mapping record stays fresh without new transmissions.
/// Every freshness query of [`PeerMap`] and [`PeerRecord`] uses it.
pub const PEER_TTL: SimDuration = SimDuration::from_secs(3);

/// Everything known about one peer.
#[derive(Debug, Default, Clone)]
pub struct PeerRecord {
    /// Last transmission seen per technology, with the low-level source,
    /// indexed by [`TechType::index`].
    pub seen: [Option<(LowAddr, SimTime)>; 4],
    /// Directly connectable mesh address (low-level-ND or session
    /// provenance).
    pub mesh_direct: Option<(MeshAddress, SimTime)>,
    /// Group-scoped mesh address (multicast provenance).
    pub mesh_mcast: Option<(MeshAddress, SimTime)>,
    /// The peer's BLE address, from its address beacon or as a beacon source.
    pub ble: Option<(BleAddress, SimTime)>,
    /// The peer's NFC id.
    pub nfc: Option<(NfcAddress, SimTime)>,
}

impl PeerRecord {
    /// Whether this peer was heard on `tech` within [`PEER_TTL`] of `now`.
    pub fn fresh_on(&self, tech: TechType, now: SimTime) -> bool {
        fresh(&self.seen[tech.index()], now)
    }

    /// The most recent sighting on any technology.
    pub fn last_seen(&self) -> Option<SimTime> {
        self.seen.iter().flatten().map(|&(_, at)| at).max()
    }
}

/// Whether a sighting at `at` is still fresh at `now`.
pub(crate) fn is_fresh(at: SimTime, now: SimTime) -> bool {
    now.saturating_since(at) <= PEER_TTL
}

fn fresh(entry: &Option<(impl Copy, SimTime)>, now: SimTime) -> bool {
    entry.is_some_and(|(_, at)| is_fresh(at, now))
}

/// The manager's peer table. Probed several times per heard frame, so it
/// hashes with the simulator's deterministic multiply-mix [`CellHasher`]
/// rather than SipHash. No result depends on its iteration order: listings
/// sort, and `tech_needed` only asks whether any record qualifies. Keys are
/// peer addresses heard over the (simulated) air, so a deployment facing
/// hostile radios would restore the collision-resistant default hasher.
#[derive(Debug, Default)]
pub struct PeerMap {
    peers: HashMap<OmniAddress, PeerRecord, BuildHasherDefault<CellHasher>>,
}

impl PeerMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a transmission from `omni` on `tech` with low-level `source`.
    /// "By including the omni_address, we are able to refresh part of the
    /// peer mapping with each message" (paper §3.3). Returns whether `omni`
    /// was new to the map, so callers need no second probe.
    pub fn observe(
        &mut self,
        omni: OmniAddress,
        tech: TechType,
        source: LowAddr,
        now: SimTime,
    ) -> bool {
        let (rec, new) = match self.peers.entry(omni) {
            Entry::Occupied(e) => (e.into_mut(), false),
            Entry::Vacant(e) => (e.insert(PeerRecord::default()), true),
        };
        rec.seen[tech.index()] = Some((source, now));
        match (tech, source) {
            (TechType::BleBeacon, LowAddr::Ble(a)) => rec.ble = Some((a, now)),
            (TechType::Nfc, LowAddr::Nfc(a)) => rec.nfc = Some((a, now)),
            // A message over a live TCP session proves direct reachability.
            (TechType::WifiTcp, LowAddr::Mesh(m)) => rec.mesh_direct = Some((m, now)),
            // Multicast sources are group-scoped.
            (TechType::WifiMulticast, LowAddr::Mesh(m)) => rec.mesh_mcast = Some((m, now)),
            _ => {}
        }
        new
    }

    /// Records the contents of an address beacon received over `via`.
    pub fn observe_beacon(
        &mut self,
        omni: OmniAddress,
        beacon: &AddressBeaconPayload,
        via: TechType,
        now: SimTime,
    ) {
        let rec = self.peers.entry(omni).or_default();
        if let Some(ble) = beacon.ble {
            rec.ble = Some((ble, now));
        }
        if let Some(mesh) = beacon.mesh {
            // Provenance rule: only low-level neighbor discovery carries
            // connectable mesh addresses.
            match via {
                TechType::BleBeacon | TechType::Nfc => rec.mesh_direct = Some((mesh, now)),
                _ => rec.mesh_mcast = Some((mesh, now)),
            }
        }
    }

    /// The record for a peer, if any transmissions were observed.
    pub fn get(&self, omni: OmniAddress) -> Option<&PeerRecord> {
        self.peers.get(&omni)
    }

    /// All peers heard within [`PEER_TTL`] of `now`, in stable (address)
    /// order.
    pub fn fresh_peers(&self, now: SimTime) -> Vec<OmniAddress> {
        let mut v: Vec<OmniAddress> = self
            .peers
            .iter()
            .filter(|(_, r)| r.last_seen().is_some_and(|at| is_fresh(at, now)))
            .map(|(a, _)| *a)
            .collect();
        v.sort_unstable();
        v
    }

    /// Whether any fresh peer is reachable *only* through `tech` among the
    /// given context technologies (ordered cheapest-first) — the engagement
    /// condition of paper §3.3: "as long as beacons continue to arrive from
    /// at least one peer that is not also transmitting on a lower energy
    /// technology".
    pub fn tech_needed(&self, tech: TechType, cheaper: &[TechType], now: SimTime) -> bool {
        self.peers
            .values()
            .any(|r| r.fresh_on(tech, now) && !cheaper.iter().any(|&c| r.fresh_on(c, now)))
    }

    /// Fresh, directly connectable mesh address of a peer.
    pub fn mesh_direct(&self, omni: OmniAddress, now: SimTime) -> Option<MeshAddress> {
        let rec = self.peers.get(&omni)?;
        if fresh(&rec.mesh_direct, now) {
            rec.mesh_direct.map(|(m, _)| m)
        } else {
            None
        }
    }

    /// Number of known (ever-seen) peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether no peer was ever observed.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn observations_refresh_per_tech_sightings() {
        let mut m = PeerMap::new();
        let p = OmniAddress::from_u64(1);
        assert!(m.observe(p, TechType::BleBeacon, LowAddr::Ble(BleAddress([1; 6])), t(0)));
        let rec = m.get(p).unwrap();
        assert!(rec.fresh_on(TechType::BleBeacon, t(1000)));
        assert!(!rec.fresh_on(TechType::BleBeacon, t(10_000)));
        assert!(!rec.fresh_on(TechType::WifiTcp, t(0)));
        // Later sightings, on the same or another technology, are not new.
        assert!(!m.observe(p, TechType::BleBeacon, LowAddr::Ble(BleAddress([1; 6])), t(500)));
        let mesh = LowAddr::Mesh(MeshAddress::from_u64(1));
        assert!(!m.observe(p, TechType::WifiTcp, mesh, t(600)));
        assert!(m.observe(OmniAddress::from_u64(2), TechType::WifiTcp, mesh, t(600)));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn per_tech_freshness_and_last_seen_for_every_tech() {
        let sources = |ty: TechType| match ty {
            TechType::Nfc => LowAddr::Nfc(NfcAddress::from_u32(3)),
            TechType::BleBeacon => LowAddr::Ble(BleAddress([3; 6])),
            TechType::WifiMulticast | TechType::WifiTcp => LowAddr::Mesh(MeshAddress::from_u64(3)),
        };
        for ty in TechType::ALL {
            let mut m = PeerMap::new();
            let p = OmniAddress::from_u64(3);
            m.observe(p, ty, sources(ty), t(1_000));
            let rec = m.get(p).unwrap();
            assert_eq!(rec.seen[ty.index()], Some((sources(ty), t(1_000))));
            assert_eq!(rec.last_seen(), Some(t(1_000)));
            for other in TechType::ALL {
                assert_eq!(rec.fresh_on(other, t(1_000)), other == ty, "{ty} vs {other}");
            }
            assert!(rec.fresh_on(ty, t(4_000)), "fresh at exactly the TTL");
            assert!(!rec.fresh_on(ty, t(4_001)));
            // A later sighting on another tech moves `last_seen`; an older
            // one on a third does not.
            let later = TechType::ALL[(ty.index() + 1) % 4];
            let older = TechType::ALL[(ty.index() + 2) % 4];
            m.observe(p, later, sources(later), t(2_000));
            m.observe(p, older, sources(older), t(500));
            let rec = m.get(p).unwrap();
            assert_eq!(rec.last_seen(), Some(t(2_000)));
            assert!(rec.fresh_on(ty, t(4_000)) && rec.fresh_on(later, t(5_000)));
            assert!(!rec.fresh_on(older, t(4_000)));
        }
        assert_eq!(PeerRecord::default().last_seen(), None);
    }

    #[test]
    fn beacon_over_ble_yields_connectable_mesh() {
        let mut m = PeerMap::new();
        let p = OmniAddress::from_u64(1);
        let beacon = AddressBeaconPayload {
            mesh: Some(MeshAddress::from_u64(0xB2)),
            ble: Some(BleAddress([2; 6])),
        };
        m.observe_beacon(p, &beacon, TechType::BleBeacon, t(0));
        assert_eq!(m.mesh_direct(p, t(100)), Some(MeshAddress::from_u64(0xB2)));
    }

    #[test]
    fn beacon_over_multicast_is_not_connectable() {
        let mut m = PeerMap::new();
        let p = OmniAddress::from_u64(1);
        let beacon = AddressBeaconPayload { mesh: Some(MeshAddress::from_u64(0xB2)), ble: None };
        m.observe_beacon(p, &beacon, TechType::WifiMulticast, t(0));
        assert_eq!(m.mesh_direct(p, t(100)), None);
        assert!(m.get(p).unwrap().mesh_mcast.is_some());
    }

    #[test]
    fn tcp_sessions_prove_direct_reachability() {
        let mut m = PeerMap::new();
        let p = OmniAddress::from_u64(1);
        m.observe(p, TechType::WifiTcp, LowAddr::Mesh(MeshAddress::from_u64(0xC3)), t(0));
        assert_eq!(m.mesh_direct(p, t(100)), Some(MeshAddress::from_u64(0xC3)));
    }

    #[test]
    fn direct_mesh_expires_with_ttl() {
        let mut m = PeerMap::new();
        let p = OmniAddress::from_u64(1);
        m.observe(p, TechType::WifiTcp, LowAddr::Mesh(MeshAddress::from_u64(0xC3)), t(0));
        assert_eq!(m.mesh_direct(p, t(60_000)), None);
    }

    #[test]
    fn fresh_peers_filters_stale_entries() {
        let mut m = PeerMap::new();
        m.observe(
            OmniAddress::from_u64(1),
            TechType::BleBeacon,
            LowAddr::Ble(BleAddress([1; 6])),
            t(0),
        );
        m.observe(
            OmniAddress::from_u64(2),
            TechType::BleBeacon,
            LowAddr::Ble(BleAddress([2; 6])),
            t(5_000),
        );
        assert_eq!(m.fresh_peers(t(5_500)), vec![OmniAddress::from_u64(2)]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn tech_needed_implements_the_engagement_condition() {
        let mut m = PeerMap::new();
        let only_mcast = OmniAddress::from_u64(1);
        let both = OmniAddress::from_u64(2);
        m.observe(
            only_mcast,
            TechType::WifiMulticast,
            LowAddr::Mesh(MeshAddress::from_u64(1)),
            t(0),
        );
        m.observe(both, TechType::WifiMulticast, LowAddr::Mesh(MeshAddress::from_u64(2)), t(0));
        m.observe(both, TechType::BleBeacon, LowAddr::Ble(BleAddress([2; 6])), t(0));
        // A peer is reachable only via multicast → multicast is needed.
        assert!(m.tech_needed(TechType::WifiMulticast, &[TechType::BleBeacon], t(100)));
        // Once that peer goes stale, everyone left also talks BLE → not needed.
        let mut m2 = PeerMap::new();
        m2.observe(both, TechType::WifiMulticast, LowAddr::Mesh(MeshAddress::from_u64(2)), t(0));
        m2.observe(both, TechType::BleBeacon, LowAddr::Ble(BleAddress([2; 6])), t(0));
        assert!(!m2.tech_needed(TechType::WifiMulticast, &[TechType::BleBeacon], t(100)));
    }
}
