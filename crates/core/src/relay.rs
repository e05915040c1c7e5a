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
//!   FIFO-evicting so memory never grows past its capacity.
//! * `Relay` (crate-private) — one manager's relay layer, present exactly
//!   while the policy is on: the policy, the bounded custody store (iterated
//!   in insertion order so replays stay deterministic; an entry this node
//!   originated holds the send's deferred status) and, under PRoPHET, the
//!   router. Its methods are plain state transitions; the manager emits the
//!   events, fires the callbacks and submits the sends.
//! * [`ProphetRouter`] — one node's PRoPHET state over a [`ProphetTable`],
//!   shared by the manager's PRoPHET strategy and both application-level
//!   variants in `omni-apps`. The PRoPHET constants are the original
//!   paper's: `P_init` 0.75, `β` 0.25 and `γ` 0.98 per [`AGING_INTERVAL`],
//!   with sightings more than 10 s apart counting as new encounters.

use std::collections::{HashMap, HashSet, VecDeque};

use bytes::{BufMut, Bytes, BytesMut};
use omni_sim::{SimDuration, SimTime};
use omni_wire::{OmniAddress, PackedStruct, RelayHeader, TechType};

use crate::manager::SharedCb;

/// Context-pack tag of the multi-hop context-relay envelope: the tag, a TTL
/// byte and the 8-byte origin address precede the relayed context.
pub const CONTEXT_RELAY_TAG: u8 = 0xE7;

/// Context-pack tag carrying a PRoPHET delivery-predictability summary
/// between managers. Receivers intercept both manager tags before
/// application delivery, so application contexts may not start with either.
pub const PROPHET_SUMMARY_TAG: u8 = 0xE8;

/// Bound on frames held in custody; taking custody past the bound evicts
/// the oldest held frame (which counts as expired).
const CUSTODY_CAPACITY: usize = 64;

/// Minimum gap before the same custody frame is re-offered to the same peer
/// (re-offers make chains robust to frame loss without acks; the
/// receiver-side seen set suppresses the duplicates).
const REOFFER_INTERVAL: SimDuration = SimDuration::from_secs(2);

/// PRoPHET encounter initialization constant `P_init`.
const P_INIT: f64 = 0.75;

/// PRoPHET transitivity scaling constant `β`.
const BETA: f64 = 0.25;

/// PRoPHET aging constant `γ`, applied once per [`AGING_INTERVAL`].
const GAMMA: f64 = 0.98;

/// How often PRoPHET predictabilities age.
pub const AGING_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Minimum gap between sightings that counts as a *new* PRoPHET encounter
/// (re-hearing a neighbor's beacon is not a new encounter).
const ENCOUNTER_GAP: SimDuration = SimDuration::from_secs(10);

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
    Prophet,
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
            RelayStrategy::Prophet => "prophet",
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
///
/// The bounds are fixed: the seen set remembers 1024 trace IDs, custody
/// holds 64 frames (taking a 65th evicts the oldest, which counts as
/// expired), and a held frame is re-offered to the same peer at most every
/// 2 s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelayPolicy {
    /// The forwarding strategy ([`RelayStrategy::Off`] disables relaying).
    pub strategy: RelayStrategy,
    /// Hop budget stamped on frames at the origin; each custody hop
    /// decrements it and a frame arriving with TTL 0 is expired, never
    /// forwarded.
    pub initial_ttl: u8,
    /// How long a frame may sit in custody before it is expired.
    pub custody_timeout: SimDuration,
}

impl RelayPolicy {
    /// Relaying disabled (the default): single-hop semantics, pre-relay
    /// wire format.
    pub fn off() -> Self {
        RelayPolicy {
            strategy: RelayStrategy::Off,
            initial_ttl: 8,
            custody_timeout: SimDuration::from_secs(30),
        }
    }

    /// Epidemic flooding with the default bounds.
    pub fn epidemic() -> Self {
        RelayPolicy { strategy: RelayStrategy::Epidemic, ..RelayPolicy::off() }
    }

    /// PRoPHET forwarding with the classic constants.
    pub fn prophet() -> Self {
        RelayPolicy { strategy: RelayStrategy::Prophet, ..RelayPolicy::off() }
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

/// The status a send this node originated is owed while it waits in
/// custody: success on the first handoff, or failure on expiry or eviction,
/// exactly once either way.
pub(crate) struct Origin {
    pub(crate) cb: SharedCb,
    pub(crate) dest: OmniAddress,
    /// Technologies tried before the send fell back to custody (for the
    /// terminal `SendExhausted` info).
    pub(crate) tried: Vec<TechType>,
}

/// One frame held in custody.
pub(crate) struct CustodyEntry {
    /// The frame as received (origin source, trace, and the relay header
    /// with the *remaining* TTL and copy budget).
    pub(crate) frame: PackedStruct,
    /// When custody was taken; entries expire `custody_timeout` later.
    pub(crate) taken_at: SimTime,
    /// Last time each peer was offered this frame, for re-offer gating.
    pub(crate) offered: HashMap<OmniAddress, SimTime>,
    /// `Some` while this node originated the frame and still owes its
    /// status.
    pub(crate) origin: Option<Box<Origin>>,
}

/// Bounded store of frames this node carries for others, iterated in
/// insertion order (deterministic across replays).
pub(crate) struct CustodyStore {
    entries: HashMap<u64, CustodyEntry>,
    order: VecDeque<u64>,
    capacity: usize,
}

impl CustodyStore {
    /// Creates an empty store bounded to `capacity` frames (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        CustodyStore { entries: HashMap::new(), order: VecDeque::new(), capacity: capacity.max(1) }
    }

    /// Number of frames currently held.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no frames are held.
    pub(crate) fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Takes custody of a frame. If the store is full, the oldest entry is
    /// evicted and returned so the caller can account for the drop. If the
    /// trace is already held, the entry is replaced in place.
    pub(crate) fn insert(
        &mut self,
        trace: u64,
        entry: CustodyEntry,
    ) -> Option<(u64, CustodyEntry)> {
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
    pub(crate) fn remove(&mut self, trace: u64) -> Option<CustodyEntry> {
        let e = self.entries.remove(&trace)?;
        self.order.retain(|t| *t != trace);
        Some(e)
    }

    /// Removes and returns every entry older than `timeout`, in insertion
    /// order.
    pub(crate) fn take_expired(
        &mut self,
        now: SimTime,
        timeout: SimDuration,
    ) -> Vec<(u64, CustodyEntry)> {
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

/// The relay layer of one manager: its policy, the frames it holds in
/// custody and, under [`RelayStrategy::Prophet`], its router. The manager
/// holds one exactly while the policy is on. Its methods are plain state
/// transitions; the manager does the work that needs its own services:
/// events, status callbacks, sends and the seen set.
pub(crate) struct Relay {
    pub(crate) policy: RelayPolicy,
    pub(crate) custody: CustodyStore,
    pub(crate) prophet: Option<ProphetRouter>,
}

impl Relay {
    /// The relay layer `policy` asks for, or `None` when it is off.
    pub(crate) fn new(own: OmniAddress, policy: RelayPolicy) -> Option<Box<Relay>> {
        let prophet = match policy.strategy {
            RelayStrategy::Off => return None,
            RelayStrategy::Prophet => Some(ProphetRouter::new(own)),
            _ => None,
        };
        let custody = CustodyStore::new(CUSTODY_CAPACITY);
        Some(Box::new(Relay { policy, custody, prophet }))
    }

    /// The relay header an origin send to `dest` carries: the initial TTL
    /// and, under spray-and-wait, the whole copy budget.
    pub(crate) fn header(&self, dest: OmniAddress) -> RelayHeader {
        let copies = match self.policy.strategy {
            RelayStrategy::SprayAndWait { copies } => copies,
            _ => 0,
        };
        RelayHeader::new(dest, self.policy.initial_ttl).with_copies(copies)
    }

    /// Plans the custody-hop forwards to `fresh` peers (sorted), held frames
    /// in custody order: no frame goes back to its origin or to a peer
    /// offered it within `REOFFER_INTERVAL`, and a peer other than the
    /// destination must pass the strategy. Stamps each offer and returns
    /// the copy to send, carrying its next-hop header.
    pub(crate) fn offers(
        &mut self,
        fresh: &[OmniAddress],
        now: SimTime,
    ) -> Vec<(OmniAddress, PackedStruct)> {
        let mut offers = Vec::new();
        for trace in &self.custody.order {
            let Some(entry) = self.custody.entries.get_mut(trace) else { continue };
            let Some(header) = entry.frame.relay else { continue };
            let mut budget = header.copies;
            for &peer in fresh {
                let recent = entry
                    .offered
                    .get(&peer)
                    .is_some_and(|&last| now.saturating_since(last) < REOFFER_INTERVAL);
                if peer == entry.frame.source || recent {
                    continue; // never back to the origin, nor too often
                }
                let copies = if peer == header.dest {
                    budget
                } else {
                    match self.policy.strategy {
                        RelayStrategy::Off => continue,
                        RelayStrategy::Epidemic => 0,
                        RelayStrategy::Prophet => {
                            let router = self.prophet.as_ref();
                            if !router.is_some_and(|r| r.should_forward(peer, header.dest)) {
                                continue;
                            }
                            0
                        }
                        RelayStrategy::SprayAndWait { .. } => {
                            if budget <= 1 {
                                continue; // wait phase: destination only
                            }
                            let half = budget / 2;
                            budget -= half;
                            half
                        }
                    }
                };
                entry.offered.insert(peer, now);
                let mut copy = entry.frame.clone();
                copy.relay = Some(header.next_hop().with_copies(copies));
                offers.push((peer, copy));
            }
        }
        offers
    }

    /// A custody hop of `trace` reached `to`, carrying `hop`. A hop to the
    /// destination releases custody; under spray-and-wait any other hop
    /// moves its copies out of the held frame's budget. Returns the frame's
    /// origin, whose status the first handoff resolves, at most once.
    pub(crate) fn handed_off(
        &mut self,
        trace: u64,
        to: OmniAddress,
        hop: RelayHeader,
    ) -> Option<Box<Origin>> {
        if to == hop.dest {
            return self.custody.remove(trace)?.origin;
        }
        let entry = self.custody.entries.get_mut(&trace)?;
        if let (RelayStrategy::SprayAndWait { .. }, Some(held)) =
            (self.policy.strategy, entry.frame.relay.as_mut())
        {
            held.copies = held.copies.saturating_sub(hop.copies);
        }
        entry.origin.take()
    }
}

// ---------------------------------------------------------------------
// PRoPHET core (ported down from `omni-apps`; that crate now re-exports
// these types).
// ---------------------------------------------------------------------

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

    /// Encounter update: `P = P + (1 − P)·P_init`, with `P_init` 0.75.
    pub fn encounter(&mut self, peer: OmniAddress) {
        let p = self.get(peer);
        self.p.insert(peer, p + (1.0 - p) * P_INIT);
    }

    /// Aging: `P = P·γᵏ` for `k` elapsed intervals, with `γ` 0.98.
    pub fn age(&mut self, intervals: u32) {
        let factor = GAMMA.powi(intervals as i32);
        for v in self.p.values_mut() {
            *v *= factor;
        }
        self.p.retain(|_, v| *v > 1e-6);
    }

    /// Transitivity through `peer`:
    /// `P(self, dest) = max(P(self, dest), P(self, peer)·P(peer, dest)·β)`,
    /// with `β` 0.25.
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
    ) {
        let p_peer = self.get(peer);
        for &(dest, p_pd) in peer_summary {
            if dest == peer || dest == own {
                continue;
            }
            let candidate = p_peer * p_pd * BETA;
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

/// One node's PRoPHET routing state: its predictability table, when it last
/// saw each peer, and the summary each neighbour last advertised.
///
/// The manager's [`RelayStrategy::Prophet`] and both application-level
/// variants in `omni-apps` route with it. Each caller keeps its own order of
/// steps: the applications apply [`Self::transitivity`] only on a new
/// encounter, the manager on every summary it hears.
#[derive(Debug, Clone)]
pub struct ProphetRouter {
    /// `P(own, X)` per known destination.
    pub table: ProphetTable,
    own: OmniAddress,
    /// Last sighting per peer, for the encounter-gap rule.
    last_seen: HashMap<OmniAddress, SimTime>,
    /// The summary each neighbour last advertised.
    summaries: HashMap<OmniAddress, Vec<(OmniAddress, f64)>>,
    /// How far [`Self::age_to`] has aged the table, in whole aging
    /// intervals.
    last_aged: SimTime,
}

impl ProphetRouter {
    /// A router for the node `own`, with an empty table.
    pub fn new(own: OmniAddress) -> Self {
        ProphetRouter {
            table: ProphetTable::new(),
            own,
            last_seen: HashMap::new(),
            summaries: HashMap::new(),
            last_aged: SimTime::ZERO,
        }
    }

    /// Notes a sighting of `peer`. It is a new encounter, which raises
    /// `P(own, peer)`, when the peer was never seen or last seen more than
    /// 10 s ago; returns whether it was one.
    pub fn sighting(&mut self, peer: OmniAddress, now: SimTime) -> bool {
        let new = self
            .last_seen
            .insert(peer, now)
            .is_none_or(|t| now.saturating_since(t) > ENCOUNTER_GAP);
        if new {
            self.table.encounter(peer);
        }
        new
    }

    /// Transitivity through `peer`'s summary (see
    /// [`ProphetTable::transitivity`]).
    pub fn transitivity(&mut self, peer: OmniAddress, summary: &[(OmniAddress, f64)]) {
        self.table.transitivity(self.own, peer, summary);
    }

    /// Keeps `peer`'s latest summary for [`Self::should_forward`].
    pub fn hear(&mut self, peer: OmniAddress, summary: Vec<(OmniAddress, f64)>) {
        self.summaries.insert(peer, summary);
    }

    /// Whether to hand a frame for `dest` to `peer`: the peer is the
    /// destination, or by its last summary a strictly better carrier.
    pub fn should_forward(&self, peer: OmniAddress, dest: OmniAddress) -> bool {
        let peer_p = self
            .summaries
            .get(&peer)
            .and_then(|s| s.iter().find(|(a, _)| *a == dest))
            .map_or(0.0, |(_, p)| *p);
        peer == dest || peer_p > self.table.get(dest)
    }

    /// Ages the table by every whole [`AGING_INTERVAL`] since the last
    /// aging.
    pub fn age_to(&mut self, now: SimTime) {
        let step = AGING_INTERVAL.as_micros();
        let k = now.saturating_since(self.last_aged).as_micros() / step;
        if k > 0 {
            self.table.age(k.min(u64::from(u32::MAX)) as u32);
            self.last_aged = SimTime::from_micros(self.last_aged.as_micros() + k * step);
        }
    }
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
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::api::StatusCallback;

    fn a(x: u64) -> OmniAddress {
        OmniAddress::from_u64(x)
    }

    /// The trace of the frame [`holding`] puts in custody.
    const TRACE: u64 = 7;
    /// That frame's origin and final destination.
    const FROM: u64 = 2;
    const DEST: u64 = 9;

    /// Node 1's relay layer under `policy`, holding one frame from node
    /// `FROM` to node `DEST` that carries `copies` spray copies and has
    /// taken 2 of its 8 hops.
    fn holding(policy: RelayPolicy, copies: u8, origin: Option<Box<Origin>>) -> Relay {
        let mut relay = *Relay::new(a(1), policy).expect("policy is on");
        let header = RelayHeader { dest: a(DEST), ttl: 6, hops: 2, copies };
        let frame = PackedStruct::data(a(FROM), Bytes::from_static(b"x")).with_relay(header);
        let entry =
            CustodyEntry { frame, taken_at: SimTime::ZERO, offered: HashMap::new(), origin };
        relay.custody.insert(TRACE, entry);
        relay
    }

    /// Who each offer goes to, with the header its copy carries.
    fn offered(offers: &[(OmniAddress, PackedStruct)]) -> Vec<(OmniAddress, RelayHeader)> {
        offers.iter().map(|(peer, copy)| (*peer, copy.relay.expect("relay header"))).collect()
    }

    fn entry(t: SimTime) -> CustodyEntry {
        CustodyEntry {
            frame: PackedStruct::data(a(1), Bytes::new()),
            taken_at: t,
            offered: HashMap::new(),
            origin: None,
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
        assert_eq!(c.order, [11, 12]);
        assert!(c.entries.contains_key(&11) && !c.entries.contains_key(&10));
        // Replacing a held trace does not evict or reorder.
        assert!(c.insert(11, entry(SimTime::from_secs(1))).is_none());
        assert_eq!(c.order, [11, 12]);
        assert_eq!(c.entries[&11].taken_at, SimTime::from_secs(1));
    }

    #[test]
    fn custody_expiry_is_by_age_in_insertion_order() {
        let mut c = CustodyStore::new(8);
        c.insert(1, entry(SimTime::ZERO));
        c.insert(2, entry(SimTime::from_secs(5)));
        c.insert(3, entry(SimTime::from_secs(20)));
        let expired = c.take_expired(SimTime::from_secs(30), SimDuration::from_secs(10));
        assert_eq!(expired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(c.order, [3]);
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
    fn router_forwards_to_the_destination_and_strictly_better_carriers() {
        let mut r = ProphetRouter::new(a(1));
        let dest = a(3);
        r.table.seed(dest, 0.9);
        assert!(r.should_forward(dest, dest), "peer is the destination");
        r.table.seed(dest, 0.1);
        r.hear(a(2), vec![(dest, 0.5)]);
        assert!(r.should_forward(a(2), dest), "better carrier");
        r.table.seed(dest, 0.5);
        r.hear(a(2), vec![(dest, 0.1)]);
        assert!(!r.should_forward(a(2), dest), "worse: keep carrying");
        r.hear(a(2), vec![(dest, 0.5)]);
        assert!(!r.should_forward(a(2), dest), "equal is not better");
    }

    #[test]
    fn epidemic_offers_every_fresh_peer_but_the_origin_then_waits_to_re_offer() {
        let policy = RelayPolicy::epidemic();
        let mut relay = holding(policy, 0, None);
        let fresh = [a(FROM), a(3), a(4)];
        let t = SimTime::from_secs(1);
        let next = RelayHeader { dest: a(DEST), ttl: 5, hops: 3, copies: 0 };
        assert_eq!(offered(&relay.offers(&fresh, t)), [(a(3), next), (a(4), next)]);
        let early = t + (REOFFER_INTERVAL - SimDuration::from_micros(1));
        assert!(relay.offers(&fresh, early).is_empty(), "re-offered too soon");
        let again = relay.offers(&fresh, t + REOFFER_INTERVAL);
        assert_eq!(offered(&again), [(a(3), next), (a(4), next)]);
    }

    #[test]
    fn spray_halves_its_budget_and_the_destination_gets_the_rest() {
        let cb: StatusCallback = Box::new(|_, _, _| {});
        let origin = Origin { cb: Rc::new(RefCell::new(cb)), dest: a(DEST), tried: Vec::new() };
        let mut relay = holding(RelayPolicy::spray(4), 4, Some(Box::new(origin)));
        let offers = offered(&relay.offers(&[a(3), a(4), a(5), a(DEST)], SimTime::from_secs(1)));
        let copies: Vec<(OmniAddress, u8)> = offers.iter().map(|(p, h)| (*p, h.copies)).collect();
        assert_eq!(copies, [(a(3), 2), (a(4), 1), (a(DEST), 1)], "4 gives 2, then 1, then waits");

        // A hop to a carrier moves its copies out of the held budget; the
        // first handoff returns the origin, and only the first.
        let held = |relay: &Relay| relay.custody.entries[&TRACE].frame.relay.map(|h| h.copies);
        assert!(relay.handed_off(TRACE, a(3), offers[0].1).is_some(), "first handoff");
        assert_eq!(held(&relay), Some(2));
        assert!(relay.handed_off(TRACE, a(4), offers[1].1).is_none(), "origin returned once");
        assert_eq!(held(&relay), Some(1));
        // A hop to the destination releases custody.
        assert!(relay.handed_off(TRACE, a(DEST), offers[2].1).is_none());
        assert!(relay.custody.is_empty(), "custody released at the destination");
    }

    #[test]
    fn prophet_offers_only_to_strictly_better_carriers_and_the_destination() {
        let mut relay = holding(RelayPolicy::prophet(), 0, None);
        let router = relay.prophet.as_mut().expect("PRoPHET has a router");
        router.table.seed(a(DEST), 0.5);
        for (peer, p) in [(FROM, 0.9), (3, 0.6), (4, 0.5), (5, 0.1)] {
            router.hear(a(peer), vec![(a(DEST), p)]);
        }
        // Node 6 never advertised a summary.
        let fresh = [a(FROM), a(3), a(4), a(5), a(6), a(DEST)];
        let to: Vec<OmniAddress> =
            offered(&relay.offers(&fresh, SimTime::from_secs(1))).iter().map(|o| o.0).collect();
        assert_eq!(to, [a(3), a(DEST)]);
    }

    #[test]
    fn encounter_update_converges_toward_one() {
        let mut t = ProphetTable::new();
        t.encounter(a(1));
        assert!((t.get(a(1)) - 0.75).abs() < 1e-12);
        t.encounter(a(1));
        assert!((t.get(a(1)) - 0.9375).abs() < 1e-12);
        for _ in 0..50 {
            t.encounter(a(1));
        }
        assert!(t.get(a(1)) < 1.0 + 1e-12);
        assert!(t.get(a(1)) > 0.999);
    }

    #[test]
    fn aging_decays_predictabilities() {
        let mut t = ProphetTable::new();
        t.seed(a(1), 0.8);
        t.age(10);
        assert!((t.get(a(1)) - 0.8 * 0.98f64.powi(10)).abs() < 1e-12);
    }

    #[test]
    fn aging_evicts_negligible_entries() {
        let mut t = ProphetTable::new();
        t.seed(a(1), 0.5);
        t.age(2000);
        assert_eq!(t.get(a(1)), 0.0);
        assert!(t.summary(10).is_empty());
    }

    #[test]
    fn transitivity_takes_the_max() {
        let mut t = ProphetTable::new();
        t.seed(a(2), 0.8); // P(self, B)
        t.transitivity(a(1), a(2), &[(a(3), 0.9)]);
        // P(self, C) = 0.8 * 0.9 * 0.25 = 0.18.
        assert!((t.get(a(3)) - 0.18).abs() < 1e-12);
        // A direct, higher value is not lowered.
        t.seed(a(3), 0.5);
        t.transitivity(a(1), a(2), &[(a(3), 0.9)]);
        assert!((t.get(a(3)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transitivity_never_plants_entries_for_self_or_the_peer() {
        // A peer's summary routinely lists *us* (it met us) and itself; both
        // entries must be ignored or they crowd real destinations out of the
        // size-capped summary we advertise.
        let mut t = ProphetTable::new();
        t.seed(a(2), 0.8);
        t.transitivity(a(1), a(2), &[(a(1), 0.9), (a(2), 0.9), (a(3), 0.9)]);
        assert_eq!(t.get(a(1)), 0.0, "no self-entry");
        assert!((t.get(a(2)) - 0.8).abs() < 1e-12, "peer entry untouched");
        assert!(t.get(a(3)) > 0.0);
    }

    #[test]
    fn summary_is_sorted_and_truncated() {
        let mut t = ProphetTable::new();
        for i in 0..10 {
            t.seed(a(i), i as f64 / 10.0);
        }
        let s = t.summary(3);
        assert_eq!(s.len(), 3);
        assert!(s[0].1 >= s[1].1 && s[1].1 >= s[2].1);
        assert_eq!(s[0].0, a(9));
    }
}
