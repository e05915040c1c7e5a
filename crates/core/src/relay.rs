//! Opt-in multi-hop data relay: store-carry-forward inside the manager
//! (DESIGN.md §5h).
//!
//! The paper's PRoPHET case study (§4.3) buffers data at intermediate
//! devices and forwards it "when communication links are available" — but it
//! does so *above* the middleware, re-implementing custody, dedup and
//! forwarding policy in every application. This module pulls that machinery
//! down into `omni-core`, selectable per node exactly like
//! [`RetryPolicy`](crate::RetryPolicy):
//!
//! * [`RelayPolicy`] — the opt-in knob on [`OmniConfig`](crate::OmniConfig);
//!   the default ([`RelayPolicy::off`]) preserves single-hop semantics and
//!   the pre-relay wire format bit-for-bit.
//! * [`RelayStrategy`] — pluggable forwarding: epidemic flooding,
//!   PRoPHET (ported from `omni-apps`), and binary spray-and-wait.
//! * [`SeenSet`] — bounded first-seen dedup keyed by the 64-bit trace ID,
//!   FIFO-evicting so memory never grows past `seen_capacity`.
//! * [`CustodyStore`] — the bounded buffer of frames this node carries on
//!   behalf of others, iterated in insertion order so replays stay
//!   deterministic.
//! * [`ProphetTable`] / [`ProphetConfig`] — the delivery-predictability core
//!   (encounter, aging, transitivity), shared with the application-level
//!   PRoPHET in `omni-apps`, which is now a thin shim over this module.

use std::collections::{HashMap, HashSet, VecDeque};

use bytes::{BufMut, Bytes, BytesMut};
use omni_sim::{SimDuration, SimTime};
use omni_wire::{OmniAddress, PackedStruct};

/// Context-pack tag of the multi-hop context-relay envelope: the tag, a TTL
/// byte and the 8-byte origin address precede the relayed context.
pub const CONTEXT_RELAY_TAG: u8 = 0xE7;

/// Context-pack tag carrying a PRoPHET delivery-predictability summary
/// between managers. Receivers intercept both manager tags before
/// application delivery, so application contexts may not start with either.
pub const PROPHET_SUMMARY_TAG: u8 = 0xE8;

/// Forwarding strategy for relayed data frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RelayStrategy {
    /// No relaying: frames never take custody hops (the default).
    Off,
    /// Epidemic flooding: offer every custody frame to every fresh peer.
    /// Maximal delivery ratio, maximal overhead.
    Epidemic,
    /// PRoPHET (Lindgren et al., 2003): forward to a peer only when it is
    /// the destination or a strictly better carrier by delivery
    /// predictability.
    Prophet(ProphetConfig),
    /// Binary spray-and-wait (Spyropoulos et al., 2005): a bounded copy
    /// budget halves at every spray; a node down to one copy waits for the
    /// destination itself.
    SprayAndWait {
        /// Initial copy budget stamped on frames at the origin.
        copies: u8,
    },
}

impl RelayStrategy {
    /// Stable label used for per-strategy metrics.
    pub fn label(&self) -> &'static str {
        match self {
            RelayStrategy::Off => "off",
            RelayStrategy::Epidemic => "epidemic",
            RelayStrategy::Prophet(_) => "prophet",
            RelayStrategy::SprayAndWait { .. } => "spray",
        }
    }
}

/// Policy for the opt-in multi-hop relay layer.
///
/// With the default ([`RelayPolicy::off`]) the manager behaves exactly as
/// before: data frames carry no relay header, unknown destinations fail
/// immediately, and received frames addressed elsewhere are dropped. Any
/// other strategy turns the node into a store-carry-forward router: origin
/// sends are stamped with a TTL'd relay header, frames addressed elsewhere
/// are taken into bounded custody and re-offered to fresh peers, and
/// duplicates are suppressed by a bounded first-seen set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelayPolicy {
    /// The forwarding strategy ([`RelayStrategy::Off`] disables relaying).
    pub strategy: RelayStrategy,
    /// Hop budget stamped on frames at the origin; each custody hop
    /// decrements it and a frame arriving with TTL 0 is expired, never
    /// forwarded.
    pub initial_ttl: u8,
    /// Bound on the first-seen dedup set (trace IDs); oldest entries are
    /// evicted FIFO so memory stays constant on long runs.
    pub seen_capacity: usize,
    /// Bound on frames held in custody; taking custody past the bound
    /// evicts the oldest held frame (which counts as expired).
    pub custody_capacity: usize,
    /// How long a frame may sit in custody before it is expired.
    pub custody_timeout: SimDuration,
    /// Minimum gap before the same custody frame is re-offered to the same
    /// peer (re-offers make chains robust to frame loss without acks; the
    /// receiver-side seen set suppresses the duplicates).
    pub reoffer_interval: SimDuration,
}

impl RelayPolicy {
    /// Relaying disabled (the default): single-hop semantics, pre-relay
    /// wire format.
    pub fn off() -> Self {
        RelayPolicy {
            strategy: RelayStrategy::Off,
            initial_ttl: 8,
            seen_capacity: 1024,
            custody_capacity: 64,
            custody_timeout: SimDuration::from_secs(30),
            reoffer_interval: SimDuration::from_secs(2),
        }
    }

    /// Epidemic flooding with the default bounds.
    pub fn epidemic() -> Self {
        RelayPolicy { strategy: RelayStrategy::Epidemic, ..RelayPolicy::off() }
    }

    /// PRoPHET forwarding with the classic constants.
    pub fn prophet() -> Self {
        RelayPolicy {
            strategy: RelayStrategy::Prophet(ProphetConfig::default()),
            ..RelayPolicy::off()
        }
    }

    /// Binary spray-and-wait with a copy budget of `copies`.
    pub fn spray(copies: u8) -> Self {
        RelayPolicy {
            strategy: RelayStrategy::SprayAndWait { copies: copies.max(1) },
            ..RelayPolicy::off()
        }
    }

    /// Whether the relay layer is active.
    pub fn enabled(&self) -> bool {
        self.strategy != RelayStrategy::Off
    }
}

impl Default for RelayPolicy {
    fn default() -> Self {
        RelayPolicy::off()
    }
}

/// Bounded first-seen set keyed by trace ID.
///
/// `insert` answers "is this the first sighting?" and *never* answers `false`
/// for a genuinely new ID: eviction is FIFO over insertion order, so only the
/// oldest memories are forgotten when the bound is hit (a forgotten frame
/// re-arriving late is treated as new again — safe, since delivery callbacks
/// at the destination are idempotent per trace via the custody layer).
#[derive(Debug, Clone)]
pub struct SeenSet {
    seen: HashSet<u64>,
    order: VecDeque<u64>,
    capacity: usize,
}

impl SeenSet {
    /// Creates an empty set bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SeenSet { seen: HashSet::new(), order: VecDeque::new(), capacity }
    }

    /// Records a sighting. Returns `true` when `trace` was not already in
    /// the set (first sighting), evicting the oldest entry if full.
    pub fn insert(&mut self, trace: u64) -> bool {
        if self.seen.contains(&trace) {
            return false;
        }
        if self.order.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        self.seen.insert(trace);
        self.order.push_back(trace);
        true
    }

    /// Whether `trace` is currently remembered.
    pub fn contains(&self, trace: u64) -> bool {
        self.seen.contains(&trace)
    }

    /// Number of remembered trace IDs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether nothing has been seen (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// One frame held in custody on behalf of its origin.
#[derive(Debug, Clone)]
pub struct CustodyEntry {
    /// The frame as received (origin source, trace, and the relay header
    /// with the *remaining* TTL and copy budget).
    pub frame: PackedStruct,
    /// When custody was taken; entries expire `custody_timeout` later.
    pub taken_at: SimTime,
    /// Last time each peer was offered this frame, for re-offer gating.
    pub offered: HashMap<OmniAddress, SimTime>,
}

/// Bounded store of frames this node carries for others, iterated in
/// insertion order (deterministic across replays).
#[derive(Debug, Clone, Default)]
pub struct CustodyStore {
    entries: HashMap<u64, CustodyEntry>,
    order: VecDeque<u64>,
    capacity: usize,
}

impl CustodyStore {
    /// Creates an empty store bounded to `capacity` frames (minimum 1).
    pub fn new(capacity: usize) -> Self {
        CustodyStore { entries: HashMap::new(), order: VecDeque::new(), capacity: capacity.max(1) }
    }

    /// Number of frames currently held.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no frames are held.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether a frame with this trace is held.
    pub fn contains(&self, trace: u64) -> bool {
        self.entries.contains_key(&trace)
    }

    /// The entry for `trace`, if held.
    pub fn get(&self, trace: u64) -> Option<&CustodyEntry> {
        self.entries.get(&trace)
    }

    /// Mutable entry for `trace`, if held.
    pub fn get_mut(&mut self, trace: u64) -> Option<&mut CustodyEntry> {
        self.entries.get_mut(&trace)
    }

    /// Held trace IDs in insertion order.
    pub fn traces(&self) -> Vec<u64> {
        self.order.iter().copied().collect()
    }

    /// Takes custody of a frame. If the store is full, the oldest entry is
    /// evicted and returned so the caller can account for the drop. If the
    /// trace is already held, the entry is replaced in place.
    pub fn insert(&mut self, trace: u64, entry: CustodyEntry) -> Option<(u64, CustodyEntry)> {
        if self.entries.insert(trace, entry).is_some() {
            return None; // replaced in place, order unchanged
        }
        self.order.push_back(trace);
        if self.order.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                return self.entries.remove(&old).map(|e| (old, e));
            }
        }
        None
    }

    /// Releases custody of `trace` (delivered, or handed to the
    /// destination).
    pub fn remove(&mut self, trace: u64) -> Option<CustodyEntry> {
        let e = self.entries.remove(&trace)?;
        self.order.retain(|t| *t != trace);
        Some(e)
    }

    /// Removes and returns every entry older than `timeout`, in insertion
    /// order.
    pub fn take_expired(&mut self, now: SimTime, timeout: SimDuration) -> Vec<(u64, CustodyEntry)> {
        let expired: Vec<u64> = self
            .order
            .iter()
            .copied()
            .filter(|t| {
                self.entries
                    .get(t)
                    .map(|e| now.saturating_since(e.taken_at) > timeout)
                    .unwrap_or(false)
            })
            .collect();
        expired.into_iter().filter_map(|t| self.remove(t).map(|e| (t, e))).collect()
    }
}

// ---------------------------------------------------------------------
// PRoPHET core (ported down from `omni-apps`; that crate now re-exports
// these types).
// ---------------------------------------------------------------------

/// PRoPHET parameters (defaults from the original paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProphetConfig {
    /// Encounter initialization constant `P_init`.
    pub p_init: f64,
    /// Transitivity scaling constant `β`.
    pub beta: f64,
    /// Aging constant `γ`, applied once per aging interval.
    pub gamma: f64,
    /// How often predictabilities age.
    pub aging_interval: SimDuration,
    /// Minimum gap between sightings that counts as a *new* encounter
    /// (re-hearing a neighbor's beacon is not a new encounter).
    pub encounter_gap: SimDuration,
}

impl Default for ProphetConfig {
    fn default() -> Self {
        ProphetConfig {
            p_init: 0.75,
            beta: 0.25,
            gamma: 0.98,
            aging_interval: SimDuration::from_secs(1),
            encounter_gap: SimDuration::from_secs(10),
        }
    }
}

/// The delivery-predictability table: `P(self, X)` per known destination.
#[derive(Debug, Clone, Default)]
pub struct ProphetTable {
    p: HashMap<OmniAddress, f64>,
}

impl ProphetTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds a predictability (e.g. prior encounter history).
    pub fn seed(&mut self, dest: OmniAddress, p: f64) {
        self.p.insert(dest, p.clamp(0.0, 1.0));
    }

    /// `P(self, x)`, zero if unknown.
    pub fn get(&self, x: OmniAddress) -> f64 {
        self.p.get(&x).copied().unwrap_or(0.0)
    }

    /// Encounter update: `P = P + (1 − P)·P_init`.
    pub fn encounter(&mut self, peer: OmniAddress, cfg: &ProphetConfig) {
        let p = self.get(peer);
        self.p.insert(peer, p + (1.0 - p) * cfg.p_init);
    }

    /// Aging: `P = P·γᵏ` for `k` elapsed intervals.
    pub fn age(&mut self, intervals: u32, cfg: &ProphetConfig) {
        let factor = cfg.gamma.powi(intervals as i32);
        for v in self.p.values_mut() {
            *v *= factor;
        }
        self.p.retain(|_, v| *v > 1e-6);
    }

    /// Transitivity through `peer`:
    /// `P(self, dest) = max(P(self, dest), P(self, peer)·P(peer, dest)·β)`.
    ///
    /// `own` is the table owner's address: a peer's summary routinely lists
    /// *us* as one of its destinations, and ingesting that entry would plant
    /// a useless self-entry that crowds real destinations out of the
    /// size-capped summary we advertise (BLE adverts fit ~5 entries).
    pub fn transitivity(
        &mut self,
        own: OmniAddress,
        peer: OmniAddress,
        peer_summary: &[(OmniAddress, f64)],
        cfg: &ProphetConfig,
    ) {
        let p_peer = self.get(peer);
        for &(dest, p_pd) in peer_summary {
            if dest == peer || dest == own {
                continue;
            }
            let candidate = p_peer * p_pd * cfg.beta;
            let current = self.get(dest);
            if candidate > current {
                self.p.insert(dest, candidate);
            }
        }
    }

    /// The summary vector to advertise (largest predictabilities first,
    /// truncated to `max` entries so it fits a BLE advertisement).
    pub fn summary(&self, max: usize) -> Vec<(OmniAddress, f64)> {
        let mut v: Vec<(OmniAddress, f64)> = self.p.iter().map(|(a, p)| (*a, *p)).collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        v.truncate(max);
        v
    }
}

/// PRoPHET forwarding rule, shared by the in-manager relay and the
/// application-level variants: forward when the peer *is* the destination,
/// or is a strictly better carrier.
pub fn prophet_should_forward(
    own_p: f64,
    peer: OmniAddress,
    peer_p: f64,
    dest: OmniAddress,
) -> bool {
    peer == dest || peer_p > own_p
}

/// Encodes a predictability summary as `[tag, n, (addr·8, p·1)×n]` with `p`
/// quantized to a byte.
pub fn encode_summary(tag: u8, summary: &[(OmniAddress, f64)]) -> Bytes {
    let mut b = BytesMut::with_capacity(2 + summary.len() * 9);
    b.put_u8(tag);
    b.put_u8(summary.len() as u8);
    for (addr, p) in summary {
        b.put_slice(&addr.to_bytes());
        b.put_u8((p.clamp(0.0, 1.0) * 255.0) as u8);
    }
    b.freeze()
}

/// Decodes a predictability summary; `None` on a tag mismatch or a malformed
/// length.
pub fn decode_summary(tag: u8, bytes: &[u8]) -> Option<Vec<(OmniAddress, f64)>> {
    if bytes.len() < 2 || bytes[0] != tag {
        return None;
    }
    let n = bytes[1] as usize;
    if bytes.len() != 2 + n * 9 {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let off = 2 + i * 9;
        let mut addr = [0u8; 8];
        addr.copy_from_slice(&bytes[off..off + 8]);
        out.push((OmniAddress::from_bytes(addr), bytes[off + 8] as f64 / 255.0));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(x: u64) -> OmniAddress {
        OmniAddress::from_u64(x)
    }

    fn entry(t: SimTime) -> CustodyEntry {
        CustodyEntry {
            frame: PackedStruct::data(a(1), Bytes::new()),
            taken_at: t,
            offered: HashMap::new(),
        }
    }

    #[test]
    fn policy_defaults_off_and_presets_label_their_strategy() {
        assert!(!RelayPolicy::default().enabled());
        assert_eq!(RelayPolicy::off().strategy.label(), "off");
        assert_eq!(RelayPolicy::epidemic().strategy.label(), "epidemic");
        assert_eq!(RelayPolicy::prophet().strategy.label(), "prophet");
        assert_eq!(RelayPolicy::spray(8).strategy.label(), "spray");
        assert!(RelayPolicy::epidemic().enabled());
        assert_eq!(RelayPolicy::spray(0).strategy, RelayStrategy::SprayAndWait { copies: 1 });
    }

    #[test]
    fn seen_set_reports_first_sightings_and_stays_bounded() {
        let mut s = SeenSet::new(3);
        assert!(s.insert(1));
        assert!(s.insert(2));
        assert!(!s.insert(1), "repeat sighting");
        assert!(s.insert(3));
        assert_eq!(s.len(), 3);
        // Inserting a fourth evicts the oldest (1), never a newer entry.
        assert!(s.insert(4));
        assert_eq!(s.len(), 3);
        assert!(!s.contains(1));
        assert!(s.contains(2) && s.contains(3) && s.contains(4));
        // The evicted ID reads as first-seen again.
        assert!(s.insert(1));
    }

    #[test]
    fn custody_store_evicts_oldest_when_full() {
        let mut c = CustodyStore::new(2);
        assert!(c.insert(10, entry(SimTime::ZERO)).is_none());
        assert!(c.insert(11, entry(SimTime::ZERO)).is_none());
        let evicted = c.insert(12, entry(SimTime::ZERO));
        assert_eq!(evicted.map(|(t, _)| t), Some(10));
        assert_eq!(c.traces(), [11, 12]);
        assert!(c.contains(11) && !c.contains(10));
        // Replacing a held trace does not evict or reorder.
        assert!(c.insert(11, entry(SimTime::from_secs(1))).is_none());
        assert_eq!(c.traces(), [11, 12]);
        assert_eq!(c.get(11).unwrap().taken_at, SimTime::from_secs(1));
    }

    #[test]
    fn custody_expiry_is_by_age_in_insertion_order() {
        let mut c = CustodyStore::new(8);
        c.insert(1, entry(SimTime::ZERO));
        c.insert(2, entry(SimTime::from_secs(5)));
        c.insert(3, entry(SimTime::from_secs(20)));
        let expired = c.take_expired(SimTime::from_secs(30), SimDuration::from_secs(10));
        assert_eq!(expired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(c.traces(), [3]);
    }

    #[test]
    fn summary_codec_roundtrips_under_any_tag() {
        let s = vec![(a(7), 0.75), (a(9), 0.25)];
        let bytes = encode_summary(PROPHET_SUMMARY_TAG, &s);
        let back = decode_summary(PROPHET_SUMMARY_TAG, &bytes).unwrap();
        assert_eq!(back.len(), 2);
        for ((da, dp), (oa, op)) in back.iter().zip(&s) {
            assert_eq!(da, oa);
            assert!((dp - op).abs() < 1.0 / 255.0 + 1e-9);
        }
        assert_eq!(decode_summary(0xE7, &bytes), None, "tag mismatch rejected");
        assert_eq!(decode_summary(PROPHET_SUMMARY_TAG, &bytes[..5]), None);
    }

    #[test]
    fn prophet_forwarding_rule_prefers_destination_and_better_carriers() {
        assert!(prophet_should_forward(0.9, a(3), 0.0, a(3)), "peer is the destination");
        assert!(prophet_should_forward(0.1, a(2), 0.5, a(3)), "better carrier");
        assert!(!prophet_should_forward(0.5, a(2), 0.1, a(3)), "worse: keep carrying");
        assert!(!prophet_should_forward(0.5, a(2), 0.5, a(3)), "equal is not better");
    }
}
