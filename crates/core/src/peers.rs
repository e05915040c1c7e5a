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
use std::num::NonZeroU64;

use omni_sim::{CellHasher, SimDuration, SimTime};
use omni_wire::{AddressBeaconPayload, BleAddress, MeshAddress, NfcAddress, OmniAddress, TechType};

use crate::queues::LowAddr;

/// How long a peer-mapping record stays fresh without new transmissions.
/// Every freshness query of [`PeerMap`] and [`PeerRecord`] uses it.
pub const PEER_TTL: SimDuration = SimDuration::from_secs(3);

/// A sighting time in one word: microseconds + 1, so "never seen" takes the
/// zero niche and `Option` adds no tag.
type Seen = Option<NonZeroU64>;

fn seen_at(now: SimTime) -> Seen {
    Some(NonZeroU64::MIN.saturating_add(now.as_micros()))
}

fn seen_time(seen: Seen) -> Option<SimTime> {
    seen.map(|s| SimTime::from_micros(s.get() - 1))
}

/// An address stored bare beside the time it was last heard; the address
/// means nothing until that time is set.
#[derive(Debug, Default, Clone, Copy)]
struct Sighted<A> {
    addr: A,
    at: Seen,
}

impl<A: Copy> Sighted<A> {
    fn get(&self) -> Option<(A, SimTime)> {
        seen_time(self.at).map(|at| (self.addr, at))
    }

    fn set(&mut self, addr: A, now: SimTime) {
        *self = Sighted { addr, at: seen_at(now) };
    }
}

/// Everything known about one peer. Every heard frame writes one of these,
/// so it is kept to 96 bytes: each sighting time is one word, and the
/// per-technology sightings keep no address of their own (the addresses
/// live in the four address fields).
#[derive(Debug, Default, Clone)]
pub struct PeerRecord {
    /// Last transmission seen per technology, indexed by
    /// [`TechType::index`].
    seen: [Seen; 4],
    /// Directly connectable mesh address (low-level-ND or session
    /// provenance).
    mesh_direct: Sighted<MeshAddress>,
    /// Group-scoped mesh address (multicast provenance).
    mesh_mcast: Sighted<MeshAddress>,
    /// The peer's BLE address, from its address beacon or as a beacon source.
    ble: Sighted<BleAddress>,
    /// The peer's NFC id.
    nfc: Sighted<NfcAddress>,
}

impl PeerRecord {
    /// When this peer was last heard on `tech`.
    pub fn seen_on(&self, tech: TechType) -> Option<SimTime> {
        seen_time(self.seen[tech.index()])
    }

    /// Whether this peer was heard on `tech` within [`PEER_TTL`] of `now`.
    pub fn fresh_on(&self, tech: TechType, now: SimTime) -> bool {
        self.seen_on(tech).is_some_and(|at| is_fresh(at, now))
    }

    /// The most recent sighting on any technology.
    pub fn last_seen(&self) -> Option<SimTime> {
        seen_time(self.seen.iter().copied().max().flatten())
    }

    /// The directly connectable mesh address and when it was last heard.
    pub fn mesh_direct(&self) -> Option<(MeshAddress, SimTime)> {
        self.mesh_direct.get()
    }

    /// The group-scoped mesh address and when it was last heard.
    pub fn mesh_mcast(&self) -> Option<(MeshAddress, SimTime)> {
        self.mesh_mcast.get()
    }

    /// The BLE address and when it was last heard.
    pub fn ble(&self) -> Option<(BleAddress, SimTime)> {
        self.ble.get()
    }

    /// The NFC id and when it was last heard.
    pub fn nfc(&self) -> Option<(NfcAddress, SimTime)> {
        self.nfc.get()
    }

    pub(crate) fn set_mesh_direct(&mut self, addr: MeshAddress, now: SimTime) {
        self.mesh_direct.set(addr, now);
    }

    pub(crate) fn set_mesh_mcast(&mut self, addr: MeshAddress, now: SimTime) {
        self.mesh_mcast.set(addr, now);
    }

    pub(crate) fn set_ble(&mut self, addr: BleAddress, now: SimTime) {
        self.ble.set(addr, now);
    }

    pub(crate) fn set_nfc(&mut self, addr: NfcAddress, now: SimTime) {
        self.nfc.set(addr, now);
    }
}

/// Whether a sighting at `at` is still fresh at `now`.
pub(crate) fn is_fresh(at: SimTime, now: SimTime) -> bool {
    now.saturating_since(at) <= PEER_TTL
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
        rec.seen[tech.index()] = seen_at(now);
        match (tech, source) {
            (TechType::BleBeacon, LowAddr::Ble(a)) => rec.set_ble(a, now),
            (TechType::Nfc, LowAddr::Nfc(a)) => rec.set_nfc(a, now),
            // A message over a live TCP session proves direct reachability.
            (TechType::WifiTcp, LowAddr::Mesh(m)) => rec.set_mesh_direct(m, now),
            // Multicast sources are group-scoped.
            (TechType::WifiMulticast, LowAddr::Mesh(m)) => rec.set_mesh_mcast(m, now),
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
            rec.set_ble(ble, now);
        }
        if let Some(mesh) = beacon.mesh {
            // Provenance rule: only low-level neighbor discovery carries
            // connectable mesh addresses.
            match via {
                TechType::BleBeacon | TechType::Nfc => rec.set_mesh_direct(mesh, now),
                _ => rec.set_mesh_mcast(mesh, now),
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
        let (mesh, at) = self.peers.get(&omni)?.mesh_direct()?;
        is_fresh(at, now).then_some(mesh)
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
            assert_eq!(rec.seen_on(ty), Some(t(1_000)));
            let addressed = match ty {
                TechType::BleBeacon => rec.ble().map(|(a, at)| (LowAddr::Ble(a), at)),
                TechType::Nfc => rec.nfc().map(|(a, at)| (LowAddr::Nfc(a), at)),
                TechType::WifiTcp => rec.mesh_direct().map(|(a, at)| (LowAddr::Mesh(a), at)),
                TechType::WifiMulticast => rec.mesh_mcast().map(|(a, at)| (LowAddr::Mesh(a), at)),
            };
            assert_eq!(addressed, Some((sources(ty), t(1_000))));
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
    fn peer_records_are_at_most_96_bytes() {
        assert!(std::mem::size_of::<PeerRecord>() <= 96);
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
        assert!(m.get(p).unwrap().mesh_mcast().is_some());
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
