//! The Omni Manager (paper §3.3).
//!
//! "The primary functionality of the Omni Manager is to route application
//! requests to transmit context and data to the appropriate D2D technologies
//! and to maintain a mapping of available peers to the technologies on which
//! they are accessible."
//!
//! Responsibilities implemented here:
//!
//! * the **Developer API** entry point (applying [`ApiCall`]s queued on
//!   [`OmniCtl`] handles);
//! * the **address beacon** — the manager's own internal context pack,
//!   transmitted every 500 ms on the cheapest context technology;
//! * the **multi-technology engagement algorithm** — listening on all
//!   enabled context technologies and additionally beaconing on a technology
//!   *A* while some peer is reachable only through *A*;
//! * **data technology selection** by minimum expected delivery time;
//! * **failure handling** — replaying failed requests on alternative
//!   technologies until all are exhausted, and only then reporting failure
//!   to the application.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::rc::Rc;

use bytes::{BufMut, Bytes};
use omni_obs::{Counter, Digest, EventKind, Gauge, Obs};
use omni_sim::{NodeApi, NodeEvent, SimDuration, SimTime};
use omni_wire::{
    AddressBeaconPayload, BleAddress, ContentKind, MeshAddress, OmniAddress, PackedStruct,
    RelayHeader, ResponseInfo, StatusCode, TechType, TraceId, RELAY_LEN, TRACE_LEN,
};

use crate::api::{
    ApiCall, ContextCallback, ContextParams, DataCallback, InfraCallback, StatusCallback,
    TimerCallback,
};
use crate::config::OmniConfig;
use crate::peers::PeerMap;
use crate::queues::{
    LowAddr, ReceivedItem, ResponseOk, SendOp, SendRequest, SharedQueue, TechQueues, TechResponse,
};
use crate::relay::{
    self, CustodyEntry, CustodyStore, ProphetConfig, ProphetTable, RelayStrategy, SeenSet,
};
use crate::security::ContextCipher;
use crate::selection::{self, Candidate};
use crate::tech::D2dTechnology;

/// Manager-reserved timer token: engagement re-evaluation.
const MGR_TIMER_ENGAGE: u64 = 1 << 60;
/// Base of the application timer token range.
const APP_TIMER_BASE: u64 = 1 << 59;
/// Base of the reliable-data timer token range (ack deadlines and retry
/// backoffs). The offset within the range is the send's pending token, so
/// one timer slot exists per outstanding send.
const MGR_TIMER_DATA_BASE: u64 = 1 << 58;
/// The reserved context id of the internal address beacon.
pub const ADDRESS_BEACON_CONTEXT_ID: u64 = 0;

type SharedCb = Rc<RefCell<StatusCallback>>;

/// Static label of a technology, matching its `Display` form (metric and
/// event payloads want `&'static str` so recording never allocates).
fn tech_label(ty: TechType) -> &'static str {
    match ty {
        TechType::BleBeacon => "ble-beacon",
        TechType::WifiMulticast => "wifi-multicast",
        TechType::WifiTcp => "wifi-tcp",
        TechType::Nfc => "nfc",
    }
}

/// Label of a technology's private send queue.
fn send_queue_label(ty: TechType) -> &'static str {
    match ty {
        TechType::BleBeacon => "send-ble-beacon",
        TechType::WifiMulticast => "send-wifi-multicast",
        TechType::WifiTcp => "send-wifi-tcp",
        TechType::Nfc => "send-nfc",
    }
}

/// Why an application context must be refused, if it starts with a
/// manager-reserved tag. Receivers read such a payload as a relay envelope
/// or a PRoPHET summary, so it would be delivered under a spoofed origin or
/// dropped.
fn reserved_tag_refusal(context: &Bytes) -> Option<String> {
    let tag = match context.first() {
        Some(&relay::CONTEXT_RELAY_TAG) => "0xE7 (context relay envelope)",
        Some(&relay::PROPHET_SUMMARY_TAG) => "0xE8 (PRoPHET summary)",
        _ => return None,
    };
    Some(format!("context starts with reserved tag {tag}"))
}

/// Cached manager-level instruments (no registry lookups on hot paths).
struct MgrObs {
    obs: Obs,
    node: u32,
    peers: Gauge,
    contexts: Gauge,
    engaged: Gauge,
    beacon_interval_us: Gauge,
    beacons_rx: Counter,
    data_enqueued: Counter,
    data_sent: Counter,
    data_delivered: Counter,
    data_failed: Counter,
    data_fallbacks: Counter,
    data_retries: Counter,
    retry_count: Digest,
    backoff_us: Digest,
    context_ops: Counter,
    /// `mgr.data_sent{tech=..}`, indexed by [`TechType::index`] — the labeled
    /// slice of `data_sent`, so telemetry can attribute load per carrier.
    sent_by_tech: [Counter; 4],
    /// `mgr.data_delivered{tech=..}`, indexed by [`TechType::index`].
    delivered_by_tech: [Counter; 4],
    /// `mgr.send_latency_us{tech=..}`: enqueue → terminal DataSent, in sim
    /// microseconds, indexed by [`TechType::index`].
    send_latency_us: [Digest; 4],
    /// `mgr.delivery_latency_us`: the same enqueue → DataSent span across
    /// all carriers, which telemetry reads as a windowed p99. Each sample
    /// carries the send's trace id as an exemplar, linking slow windows back
    /// to `FlightRecorder` timelines.
    delivery_latency: Digest,
    /// `mgr.data_relayed{strategy=..}`: successful custody-hop forwards.
    data_relayed: Counter,
    /// `mgr.data_custody{strategy=..}`: frames taken into custody.
    data_custody: Counter,
    /// `mgr.data_deduped{strategy=..}`: duplicate relay copies suppressed.
    data_deduped: Counter,
    /// `mgr.ttl_expired{strategy=..}`: frames expired (TTL zero, custody
    /// timeout, or custody eviction).
    ttl_expired: Counter,
    /// `mgr.custody_depth`: frames currently held in custody.
    custody_depth: Gauge,
}

impl MgrObs {
    fn new(obs: &Obs, node: u32, relay_label: &'static str) -> Self {
        MgrObs {
            obs: obs.clone(),
            node,
            peers: obs.gauge("mgr.peers"),
            contexts: obs.gauge("mgr.contexts"),
            engaged: obs.gauge("mgr.engaged_techs"),
            beacon_interval_us: obs.gauge("mgr.beacon_interval_us"),
            beacons_rx: obs.counter("mgr.beacons_rx"),
            data_enqueued: obs.counter("mgr.data_enqueued"),
            data_sent: obs.counter("mgr.data_sent"),
            data_delivered: obs.counter("mgr.data_delivered"),
            data_failed: obs.counter("mgr.data_failed"),
            data_fallbacks: obs.counter("mgr.data_fallbacks"),
            data_retries: obs.counter("mgr.data_retries"),
            retry_count: obs.digest("mgr.data_retry_count"),
            backoff_us: obs.digest("mgr.data_backoff_us"),
            context_ops: obs.counter("mgr.context_ops"),
            sent_by_tech: TechType::ALL
                .map(|ty| obs.counter_with("mgr.data_sent", &[("tech", tech_label(ty))])),
            delivered_by_tech: TechType::ALL
                .map(|ty| obs.counter_with("mgr.data_delivered", &[("tech", tech_label(ty))])),
            send_latency_us: TechType::ALL
                .map(|ty| obs.digest_with("mgr.send_latency_us", &[("tech", tech_label(ty))])),
            delivery_latency: obs.digest("mgr.delivery_latency_us"),
            data_relayed: obs.counter_with("mgr.data_relayed", &[("strategy", relay_label)]),
            data_custody: obs.counter_with("mgr.data_custody", &[("strategy", relay_label)]),
            data_deduped: obs.counter_with("mgr.data_deduped", &[("strategy", relay_label)]),
            ttl_expired: obs.counter_with("mgr.ttl_expired", &[("strategy", relay_label)]),
            custody_depth: obs.gauge("mgr.custody_depth"),
        }
    }

    fn event(&self, now: SimTime, kind: EventKind) {
        self.obs.event(now.as_micros(), self.node, kind);
    }
}

struct TechSlot {
    tech: Box<dyn D2dTechnology>,
    send: SharedQueue<SendRequest>,
    ty: TechType,
    addr: Option<LowAddr>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtxOp {
    Add,
    Update,
    Remove,
}

/// The state of one application data send to one destination, carried from
/// candidate to candidate (and, on the reliable path, from pass to pass).
struct DataSend {
    dest: OmniAddress,
    cb: Option<SharedCb>,
    /// Untried candidates remaining in the current pass.
    remaining: Vec<Candidate>,
    wire_len: u64,
    /// Payload copy for deadline-driven retries — a technology that went
    /// silent never hands the original request back.
    packed: Option<PackedStruct>,
    /// 1-based candidate-list pass, bounded by
    /// [`RetryPolicy::max_attempts`](crate::config::RetryPolicy).
    attempt: u32,
    /// Every technology tried so far, in first-tried order (for the
    /// terminal [`ResponseInfo::SendExhausted`]).
    tried: Vec<TechType>,
    /// Technology carrying the in-flight try; `None` while waiting out a
    /// retry backoff.
    current: Option<TechType>,
    /// Causal trace ID stamped on every frame, event, and status callback
    /// this send produces.
    trace: TraceId,
    /// When the application handed us this send — the zero point of the
    /// per-tech `mgr.send_latency_us` digest.
    enqueued_at: SimTime,
    /// `Some` when this send is a custody-hop forward of a relayed frame:
    /// the relay header stamped on the forwarded copy. Origin sends keep
    /// `None` (even with the relay layer on).
    relay_hop: Option<RelayHeader>,
}

/// Origin-side bookkeeping for a send riding the relay layer: the one
/// terminal status the application is owed fires on the *first* successful
/// custody handoff (success) or on custody expiry/eviction (failure) —
/// exactly once either way.
struct OriginCustody {
    cb: SharedCb,
    dest: OmniAddress,
    /// Technologies tried before the send fell back to custody (for the
    /// terminal `SendExhausted` info).
    tried: Vec<TechType>,
}

/// PRoPHET state, present when the relay strategy is
/// [`RelayStrategy::Prophet`].
struct ProphetState {
    cfg: ProphetConfig,
    table: ProphetTable,
    /// Latest delivery-predictability summary heard from each neighbor.
    peer_summaries: HashMap<OmniAddress, Vec<(OmniAddress, f64)>>,
    /// Last sighting per peer, for the encounter-gap filter.
    last_encounter: HashMap<OmniAddress, SimTime>,
    /// Aging high-water mark (ages in whole `aging_interval` steps).
    last_aged: SimTime,
}

enum Pending {
    Context { op: CtxOp, id: u64, cb: Option<SharedCb>, remaining: Vec<TechType> },
    Data(DataSend),
}

struct ContextEntry {
    params: ContextParams,
    payload: PackedStruct,
    carried: BTreeSet<TechType>,
}

/// The singleton middleware instance for a device.
pub struct OmniManager {
    own: OmniAddress,
    cfg: OmniConfig,
    receive: SharedQueue<ReceivedItem>,
    response: SharedQueue<TechResponse>,
    techs: Vec<TechSlot>,
    peers: PeerMap,
    contexts: HashMap<u64, ContextEntry>,
    next_context_id: u64,
    next_token: u64,
    pending: HashMap<u64, Pending>,
    context_cbs: Vec<ContextCallback>,
    data_cbs: Vec<DataCallback>,
    timer_cbs: Vec<TimerCallback>,
    infra_cbs: Vec<InfraCallback>,
    engaged: BTreeSet<TechType>,
    primary: Option<TechType>,
    deferred: VecDeque<(SharedCb, StatusCode, ResponseInfo)>,
    pending_calls: Vec<ApiCall>,
    started: bool,
    /// Context-beacon sealer (paper §3.4), present when a group key is
    /// configured.
    cipher: Option<ContextCipher>,
    /// Context-relay dedup: (origin, payload hash) → last relayed at.
    ctx_relay_seen: HashMap<(OmniAddress, u64), omni_sim::SimTime>,
    /// Data-relay dedup (DESIGN.md §5h): bounded first-seen set over trace
    /// IDs.
    data_seen: SeenSet,
    /// Frames held on behalf of other nodes (store-carry-forward).
    custody: CustodyStore,
    /// Sends this node originated that are riding the relay layer, keyed by
    /// trace: their single terminal status is deferred until the first
    /// successful handoff or custody expiry.
    custody_origin: HashMap<u64, OriginCustody>,
    /// PRoPHET routing state, when that strategy is selected.
    prophet: Option<ProphetState>,
    /// Current address-beacon interval (adapts when the adaptive policy is
    /// configured).
    beacon_interval_current: SimDuration,
    /// Fresh peers as of the previous engagement evaluation. The adaptive
    /// beacon, `PeerExpired` events and reliable-send cancellation all diff
    /// the current fresh set against it (see [`Self::track_fresh_peers`]).
    fresh_prev: BTreeSet<OmniAddress>,
    /// Manager-level observability instruments, present when
    /// [`OmniConfig::obs`] is set.
    mgr_obs: Option<MgrObs>,
    /// Monotonic counter feeding [`TraceId::derive`]; with the fixed own
    /// address this makes trace IDs replay-deterministic (DESIGN.md §5e).
    next_trace_seq: u64,
}

impl std::fmt::Debug for OmniManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OmniManager")
            .field("own", &self.own)
            .field("techs", &self.techs.iter().map(|t| t.ty).collect::<Vec<_>>())
            .field("primary", &self.primary)
            .field("engaged", &self.engaged)
            .field("peers", &self.peers.len())
            .finish_non_exhaustive()
    }
}

impl OmniManager {
    /// Creates a manager for the device with the given unified address and
    /// pluggable technologies.
    pub fn new(own: OmniAddress, cfg: OmniConfig, techs: Vec<Box<dyn D2dTechnology>>) -> Self {
        let node = own.as_u64() as u32;
        fn mk_queue<T>(cfg: &OmniConfig, label: &'static str, node: u32) -> SharedQueue<T> {
            let q = match cfg.queue_capacity {
                Some(n) => SharedQueue::bounded(n),
                None => SharedQueue::new(),
            };
            match &cfg.obs {
                Some(obs) => q.instrumented(obs, label, node),
                None => q,
            }
        }
        let receive = mk_queue(&cfg, "receive", node);
        let response = mk_queue(&cfg, "response", node);
        let cfg_cipher = cfg.context_key.map(|key| ContextCipher::new(key, own.as_u64()));
        let beacon_interval = cfg.adaptive_beacon.map(|p| p.min).unwrap_or(cfg.beacon_interval);
        let techs = techs
            .into_iter()
            .map(|mut tech| {
                if let Some(obs) = &cfg.obs {
                    tech.attach_obs(obs);
                }
                let ty = tech.tech_type();
                TechSlot { ty, tech, send: mk_queue(&cfg, send_queue_label(ty), node), addr: None }
            })
            .collect();
        let mgr_obs =
            cfg.obs.as_ref().map(|obs| MgrObs::new(obs, node, cfg.relay.strategy.label()));
        let prophet = match cfg.relay.strategy {
            RelayStrategy::Prophet(pcfg) => Some(ProphetState {
                cfg: pcfg,
                table: ProphetTable::new(),
                peer_summaries: HashMap::new(),
                last_encounter: HashMap::new(),
                last_aged: SimTime::ZERO,
            }),
            _ => None,
        };
        let data_seen = SeenSet::new(cfg.relay.seen_capacity);
        let custody = CustodyStore::new(cfg.relay.custody_capacity);
        OmniManager {
            own,
            cfg,
            receive,
            response,
            techs,
            peers: PeerMap::new(),
            contexts: HashMap::new(),
            next_context_id: 1,
            next_token: 0,
            pending: HashMap::new(),
            context_cbs: Vec::new(),
            data_cbs: Vec::new(),
            timer_cbs: Vec::new(),
            infra_cbs: Vec::new(),
            engaged: BTreeSet::new(),
            primary: None,
            deferred: VecDeque::new(),
            pending_calls: Vec::new(),
            started: false,
            cipher: cfg_cipher,
            ctx_relay_seen: HashMap::new(),
            data_seen,
            custody,
            custody_origin: HashMap::new(),
            prophet,
            beacon_interval_current: beacon_interval,
            fresh_prev: BTreeSet::new(),
            mgr_obs,
            next_trace_seq: 0,
        }
    }

    /// Derives the next causal trace ID originated by this node.
    fn next_trace(&mut self) -> TraceId {
        let seq = self.next_trace_seq;
        self.next_trace_seq += 1;
        TraceId::derive(self.own, seq)
    }

    /// The device's unified address.
    pub fn omni_address(&self) -> OmniAddress {
        self.own
    }

    /// The peer mapping (read access, e.g. for applications listing
    /// neighbors).
    pub fn peers(&self) -> &PeerMap {
        &self.peers
    }

    /// Context technologies currently carrying beacons and context packs.
    pub fn engaged(&self) -> &BTreeSet<TechType> {
        &self.engaged
    }

    /// The primary (cheapest) context technology, once started.
    pub fn primary(&self) -> Option<TechType> {
        self.primary
    }

    /// Queues Developer API calls for the next pump.
    pub fn queue_calls(&mut self, ctl: crate::api::OmniCtl) {
        self.pending_calls.extend(ctl.calls);
    }

    /// Starts the middleware: enables every technology, installs the address
    /// beacon on the primary context technology, and arms the engagement
    /// evaluation timer. Idempotent.
    pub fn start(&mut self, api: &mut NodeApi<'_>) {
        if self.started {
            return;
        }
        self.started = true;
        for (i, slot) in self.techs.iter_mut().enumerate() {
            let queues = TechQueues {
                receive: self.receive.clone(),
                response: self.response.clone(),
                send: slot.send.clone(),
            };
            let token_base = ((i + 1) as u64) << 32;
            let (ty, addr) = slot.tech.enable(queues, token_base, api);
            debug_assert_eq!(ty, slot.ty);
            slot.addr = Some(addr);
        }
        // Primary context technology: BLE if present, then multicast WiFi,
        // then NFC (which cannot beacon at range but is better than nothing).
        let pick = [TechType::BleBeacon, TechType::WifiMulticast, TechType::Nfc]
            .into_iter()
            .find(|t| self.techs.iter().any(|s| s.ty == *t));
        self.primary = pick;
        if let Some(primary) = pick {
            self.engaged.insert(primary);
            if self.cfg.advertise_on_all_techs {
                // State-of-the-Art paradigm: beacon everywhere from the
                // start (except NFC, which cannot beacon at range).
                for t in self.context_techs() {
                    if t != TechType::Nfc {
                        self.engaged.insert(t);
                    }
                }
            }
            let beacon = self.own_beacon();
            let sealed = self.seal(PackedStruct::address_beacon(self.own, &beacon).payload);
            // The discovery epoch rides in the header's trace field (kept
            // plaintext: sealing covers the payload only), so receivers can
            // attribute a PeerDiscovered to the beacon registration that
            // caused it.
            let epoch = self.next_trace();
            let packed = PackedStruct {
                kind: ContentKind::AddressBeacon,
                source: self.own,
                payload: sealed,
                trace: Some(epoch),
                relay: None,
            };
            self.contexts.insert(
                ADDRESS_BEACON_CONTEXT_ID,
                ContextEntry {
                    params: ContextParams { interval: self.beacon_interval_current },
                    payload: packed.clone(),
                    carried: BTreeSet::from([primary]),
                },
            );
            let interval = self.beacon_interval_current;
            if let Some(entry) = self.contexts.get_mut(&ADDRESS_BEACON_CONTEXT_ID) {
                entry.carried = self.engaged.clone();
            }
            for tech in self.engaged.clone() {
                self.submit_context(
                    tech,
                    CtxOp::Add,
                    ADDRESS_BEACON_CONTEXT_ID,
                    interval,
                    Some(packed.clone()),
                    None,
                    Vec::new(),
                );
            }
        }
        if let Some(m) = &self.mgr_obs {
            for &tech in &self.engaged {
                m.event(api.now, EventKind::TechEngaged { tech: tech_label(tech) });
            }
            m.engaged.set(self.engaged.len() as i64);
            m.contexts.set(self.contexts.len() as i64);
            m.beacon_interval_us.set(self.beacon_interval_current.as_micros() as i64);
        }
        api.set_timer(MGR_TIMER_ENGAGE, self.cfg.engagement_check);
        self.pump(api);
    }

    /// Seals a context/beacon payload with the group key, if one is
    /// configured (paper §3.4). Data payloads are not sealed — the paper's
    /// §3.4 story covers discovery beacons; securing bulk channels (e.g.
    /// SAE on WiFi-Mesh) happens below the middleware.
    fn seal(&mut self, plain: Bytes) -> Bytes {
        match self.cipher.as_mut() {
            Some(c) => c.seal(&plain),
            None => plain,
        }
    }

    /// Opens a sealed context/beacon payload; `None` means the beacon is
    /// not authentic for our group and must be ignored. Without a group key
    /// the payload is borrowed: a `Bytes` clone is a locked atomic op, and
    /// this runs for every heard beacon.
    fn open<'a>(&self, payload: &'a Bytes) -> Option<Cow<'a, Bytes>> {
        match self.cipher.as_ref() {
            Some(c) => ContextCipher::open(&c.key(), payload).map(Cow::Owned),
            None => Some(Cow::Borrowed(payload)),
        }
    }

    /// The address beacon payload advertising this device's low-level
    /// addresses ("8 for the WiFi-Mesh address and 6 for the BLE address",
    /// paper §3.3).
    fn own_beacon(&self) -> AddressBeaconPayload {
        let mut mesh: Option<MeshAddress> = None;
        let mut ble: Option<BleAddress> = None;
        for slot in &self.techs {
            match slot.addr {
                Some(LowAddr::Mesh(m)) => mesh = mesh.or(Some(m)),
                Some(LowAddr::Ble(b)) => ble = ble.or(Some(b)),
                _ => {}
            }
        }
        AddressBeaconPayload { mesh, ble }
    }

    /// Handles a substrate event: manager timers, application timers, or a
    /// technology event; then pumps the queues.
    pub fn handle_event(&mut self, event: &NodeEvent, api: &mut NodeApi<'_>) {
        match event {
            NodeEvent::Timer { token } if *token == MGR_TIMER_ENGAGE => {
                self.evaluate_engagement(api);
                api.set_timer(MGR_TIMER_ENGAGE, self.cfg.engagement_check);
            }
            NodeEvent::Timer { token } if *token >= APP_TIMER_BASE && *token < MGR_TIMER_ENGAGE => {
                self.fire_app_timers(*token - APP_TIMER_BASE, api.now);
            }
            NodeEvent::Timer { token }
                if *token >= MGR_TIMER_DATA_BASE && *token < APP_TIMER_BASE =>
            {
                self.data_timer_fired(*token - MGR_TIMER_DATA_BASE, api);
            }
            NodeEvent::InfraChunk { req, chunk, received_bytes, done } => {
                self.fire_infra(*req, *chunk, *received_bytes, *done, api.now);
            }
            other => {
                for slot in &mut self.techs {
                    if slot.tech.on_node_event(other, api) {
                        break;
                    }
                }
            }
        }
        self.pump(api);
    }

    // ------------------------------------------------------------------
    // Pump: queues, callbacks, deferred work
    // ------------------------------------------------------------------

    /// Processes queues until quiescent. A technology is polled only while
    /// its send queue holds requests (see [`D2dTechnology::poll`]), so a
    /// pass with nothing to send costs one atomic load per technology.
    pub fn pump(&mut self, api: &mut NodeApi<'_>) {
        for _ in 0..256 {
            let mut progressed = false;
            for slot in &mut self.techs {
                if !slot.send.is_empty() {
                    slot.tech.poll(api);
                }
            }
            while let Some(item) = self.receive.pop() {
                progressed = true;
                self.process_received(item, api);
            }
            while let Some(resp) = self.response.pop() {
                progressed = true;
                self.process_response(resp, api);
            }
            while let Some((cb, code, info)) = self.deferred.pop_front() {
                progressed = true;
                let mut ctl = crate::api::OmniCtl::at(api.now);
                (cb.borrow_mut())(code, &info, &mut ctl);
                self.pending_calls.extend(ctl.calls);
            }
            let calls = std::mem::take(&mut self.pending_calls);
            if !calls.is_empty() {
                progressed = true;
                for call in calls {
                    self.apply_call(call, api);
                }
            }
            if !progressed {
                return;
            }
        }
    }

    fn fire_app_timers(&mut self, token: u64, now: omni_sim::SimTime) {
        let mut cbs = std::mem::take(&mut self.timer_cbs);
        for cb in cbs.iter_mut() {
            let mut ctl = crate::api::OmniCtl::at(now);
            cb(token, &mut ctl);
            self.pending_calls.extend(ctl.calls);
        }
        debug_assert!(self.timer_cbs.is_empty());
        self.timer_cbs = cbs;
    }

    fn fire_infra(
        &mut self,
        req: u64,
        chunk: u64,
        received: u64,
        done: bool,
        now: omni_sim::SimTime,
    ) {
        let mut cbs = std::mem::take(&mut self.infra_cbs);
        for cb in cbs.iter_mut() {
            let mut ctl = crate::api::OmniCtl::at(now);
            cb(req, chunk, received, done, &mut ctl);
            self.pending_calls.extend(ctl.calls);
        }
        debug_assert!(self.infra_cbs.is_empty());
        self.infra_cbs = cbs;
    }

    fn process_received(&mut self, item: ReceivedItem, api: &mut NodeApi<'_>) {
        if item.packed.source == self.own {
            return; // our own echo (including relay copies of our frames)
        }
        let now = api.now;
        // Forwarded relay copies keep the *origin* in `source`; observing
        // them would poison the peer map with a non-link-local mapping
        // (the forwarder's own beacons handle link-local discovery).
        if item.packed.relay.is_none() {
            let is_new_peer = self.peers.observe(item.packed.source, item.tech, item.source, now);
            if let Some(m) = &self.mgr_obs {
                m.peers.set(self.peers.len() as i64);
                if is_new_peer {
                    m.event(now, EventKind::PeerDiscovered { peer: item.packed.source.as_u64() });
                }
            }
            if self.prophet.is_some() {
                self.prophet_note_encounter(item.packed.source, now);
            }
            if is_new_peer && self.cfg.relay.enabled() {
                // A new forwarding opportunity for everything in custody.
                self.pump_custody(api);
            }
        }
        match item.packed.kind {
            ContentKind::AddressBeacon => {
                // Authenticate/decrypt first (paper §3.4): beacons that are
                // not sealed for our group are ignored entirely.
                let Some(plain) = self.open(&item.packed.payload) else {
                    self.note_auth_rejected(item.packed.source, now);
                    return;
                };
                if let Ok(beacon) = omni_wire::AddressBeaconPayload::decode(&plain) {
                    if let Some(m) = &self.mgr_obs {
                        m.beacons_rx.inc();
                        m.event(
                            now,
                            EventKind::BeaconReceived {
                                tech: tech_label(item.tech),
                                peer: item.packed.source.as_u64(),
                                epoch: item.packed.trace.map_or(0, TraceId::as_u64),
                            },
                        );
                    }
                    // Middleware that does not integrate low-level neighbor
                    // discovery cannot treat beacon-carried mesh addresses
                    // as connectable (SA ablation).
                    let via = if self.cfg.integrate_low_level_nd {
                        item.tech
                    } else {
                        TechType::WifiMulticast
                    };
                    self.peers.observe_beacon(item.packed.source, &beacon, via, now);
                }
            }
            ContentKind::Context => {
                let Some(plain) = self.open(&item.packed.payload) else {
                    self.note_auth_rejected(item.packed.source, now);
                    return;
                };
                self.handle_context_plain(item.packed.source, &plain, api);
            }
            ContentKind::Data => match item.packed.relay {
                Some(header) => self.handle_relay_data(item, header, api),
                None => self.deliver_data(&item, now),
            },
        }
    }

    /// A sealed beacon or context pack from `peer` failed authentication
    /// under our group key: the frame is dropped, and the drop is recorded.
    fn note_auth_rejected(&self, peer: OmniAddress, now: SimTime) {
        if let Some(m) = &self.mgr_obs {
            m.event(now, EventKind::AuthRejected { peer: peer.as_u64() });
        }
    }

    /// Delivers a data frame to the application's data callbacks (the
    /// `source` is the origin, even for frames that arrived via relay hops).
    fn deliver_data(&mut self, item: &ReceivedItem, now: SimTime) {
        let src = item.packed.source;
        let payload = &item.packed.payload;
        if let Some(m) = &self.mgr_obs {
            m.data_delivered.inc();
            m.delivered_by_tech[item.tech.index()].inc();
            m.event(
                now,
                EventKind::DataDelivered {
                    peer: src.as_u64(),
                    bytes: payload.len() as u64,
                    trace: item.packed.trace.map_or(0, TraceId::as_u64),
                },
            );
        }
        let mut cbs = std::mem::take(&mut self.data_cbs);
        for cb in cbs.iter_mut() {
            let mut ctl = crate::api::OmniCtl::at(now);
            cb(src, payload, &mut ctl);
            self.pending_calls.extend(ctl.calls);
        }
        debug_assert!(self.data_cbs.is_empty());
        self.data_cbs = cbs;
    }

    /// A data frame carrying a relay header (DESIGN.md §5h): deliver — with
    /// first-seen dedup — when this node is the final destination, otherwise
    /// take bounded custody and start offering the frame onward.
    fn handle_relay_data(
        &mut self,
        item: ReceivedItem,
        header: RelayHeader,
        api: &mut NodeApi<'_>,
    ) {
        let now = api.now;
        let trace = item.packed.trace.map_or(0, TraceId::as_u64);
        let origin = item.packed.source;
        if header.dest == self.own {
            if trace != 0 && !self.data_seen.insert(trace) {
                if let Some(m) = &self.mgr_obs {
                    m.data_deduped.inc();
                    m.event(now, EventKind::DataDeduped { peer: origin.as_u64(), trace });
                }
                return;
            }
            self.deliver_data(&item, now);
            return;
        }
        // Frames for other nodes need relaying on, and custody needs a trace.
        if !self.cfg.relay.enabled() || trace == 0 {
            return;
        }
        if !self.data_seen.insert(trace) {
            if let Some(m) = &self.mgr_obs {
                m.data_deduped.inc();
                m.event(now, EventKind::DataDeduped { peer: origin.as_u64(), trace });
            }
            return;
        }
        if header.ttl == 0 {
            if let Some(m) = &self.mgr_obs {
                m.ttl_expired.inc();
                m.event(
                    now,
                    EventKind::TtlExpired {
                        peer: header.dest.as_u64(),
                        hops: u64::from(header.hops),
                        trace,
                    },
                );
            }
            return;
        }
        self.take_custody(item.packed, header, trace, now);
        self.pump_custody(api);
    }

    /// Inserts a frame into the custody store, accounting the take and any
    /// eviction the bound forces.
    fn take_custody(&mut self, frame: PackedStruct, header: RelayHeader, trace: u64, now: SimTime) {
        let evicted = self
            .custody
            .insert(trace, CustodyEntry { frame, taken_at: now, offered: HashMap::new() });
        if let Some(m) = &self.mgr_obs {
            m.data_custody.inc();
            m.event(
                now,
                EventKind::DataCustody {
                    peer: header.dest.as_u64(),
                    ttl: u64::from(header.ttl),
                    trace,
                },
            );
        }
        if let Some((old_trace, old)) = evicted {
            self.expire_custody_entry(old_trace, old, now);
        }
        if let Some(m) = &self.mgr_obs {
            m.custody_depth.set(self.custody.len() as i64);
        }
    }

    /// A custody entry is gone without reaching the destination (TTL-style
    /// expiry or bound-forced eviction). If this node originated the frame
    /// and is still waiting, this is its terminal failure.
    fn expire_custody_entry(&mut self, trace: u64, entry: CustodyEntry, now: SimTime) {
        if let Some(m) = &self.mgr_obs {
            m.ttl_expired.inc();
            let (dest, hops) =
                entry.frame.relay.map(|h| (h.dest.as_u64(), u64::from(h.hops))).unwrap_or((0, 0));
            m.event(now, EventKind::TtlExpired { peer: dest, hops, trace });
        }
        if let Some(oc) = self.custody_origin.remove(&trace) {
            if let Some(m) = &self.mgr_obs {
                m.data_failed.inc();
                m.event(now, EventKind::DataFailed { tech: "none", trace });
                m.event(now, EventKind::SendExhausted { peer: oc.dest.as_u64(), trace });
            }
            self.deferred.push_back((
                oc.cb,
                StatusCode::SendDataFailure,
                ResponseInfo::SendExhausted {
                    description: "relay custody expired before any handoff".into(),
                    destination: oc.dest,
                    techs: oc.tried,
                    trace,
                },
            ));
        }
    }

    /// Expires stale custody entries, then offers the remaining ones to
    /// fresh peers under the configured strategy. Deterministic: custody
    /// iterates in insertion order over *sorted* fresh peers.
    fn pump_custody(&mut self, api: &mut NodeApi<'_>) {
        if !self.cfg.relay.enabled() || self.custody.is_empty() {
            return;
        }
        let now = api.now;
        let policy = self.cfg.relay;
        for (trace, entry) in self.custody.take_expired(now, policy.custody_timeout) {
            self.expire_custody_entry(trace, entry, now);
        }
        if let Some(m) = &self.mgr_obs {
            m.custody_depth.set(self.custody.len() as i64);
        }
        let mut fresh = self.peers.fresh_peers(now, self.cfg.peer_ttl);
        fresh.sort_unstable();
        if fresh.is_empty() {
            return;
        }
        let mut offers: Vec<(OmniAddress, PackedStruct, RelayHeader)> = Vec::new();
        for trace in self.custody.traces() {
            let Some(entry) = self.custody.get(trace) else { continue };
            let Some(header) = entry.frame.relay else { continue };
            let origin = entry.frame.source;
            // Plan this entry's offers read-only, then stamp the offer
            // times and clone the forwarded copies.
            let mut budget = header.copies;
            let mut planned: Vec<(OmniAddress, RelayHeader)> = Vec::new();
            for &peer in &fresh {
                if peer == origin {
                    continue; // never offer a frame back to its origin
                }
                if let Some(&last) = entry.offered.get(&peer) {
                    if now.saturating_since(last) < policy.reoffer_interval {
                        continue;
                    }
                }
                let to_dest = peer == header.dest;
                let fwd_copies = if to_dest {
                    budget
                } else {
                    match policy.strategy {
                        RelayStrategy::Off => continue,
                        RelayStrategy::Epidemic => 0,
                        RelayStrategy::Prophet(_) => {
                            let dest = header.dest;
                            let (own_p, peer_p) = match &self.prophet {
                                Some(ps) => (
                                    ps.table.get(dest),
                                    ps.peer_summaries
                                        .get(&peer)
                                        .and_then(|s| s.iter().find(|(a, _)| *a == dest))
                                        .map(|(_, p)| *p)
                                        .unwrap_or(0.0),
                                ),
                                None => (0.0, 0.0),
                            };
                            if !relay::prophet_should_forward(own_p, peer, peer_p, dest) {
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
                let mut fwd = header.next_hop();
                fwd.copies = fwd_copies;
                planned.push((peer, fwd));
            }
            if planned.is_empty() {
                continue;
            }
            let frame = entry.frame.clone();
            if let Some(entry) = self.custody.get_mut(trace) {
                for (peer, _) in &planned {
                    entry.offered.insert(*peer, now);
                }
            }
            for (peer, fwd) in planned {
                let mut copy = frame.clone();
                copy.relay = Some(fwd);
                offers.push((peer, copy, fwd));
            }
        }
        for (peer, packed, fwd) in offers {
            self.submit_relay_hop(peer, packed, fwd, api);
        }
    }

    /// Enqueues one custody-hop forward to `next`. When no technology
    /// currently reaches the peer the offer is silently dropped — the offer
    /// stamp stays, and the re-offer interval retries later.
    fn submit_relay_hop(
        &mut self,
        next: OmniAddress,
        packed: PackedStruct,
        header: RelayHeader,
        api: &mut NodeApi<'_>,
    ) {
        let Some(trace) = packed.trace else { return };
        let wire_len = packed.payload.len() as u64 + (TRACE_LEN + RELAY_LEN) as u64;
        let Some(mut cands) = self.data_candidates(next, wire_len, api.now) else { return };
        if cands.is_empty() {
            return;
        }
        let first = cands.remove(0);
        let send = DataSend {
            dest: next,
            cb: None,
            remaining: cands,
            wire_len,
            packed: Some(packed),
            attempt: 1,
            tried: Vec::new(),
            current: None,
            trace,
            enqueued_at: api.now,
            relay_hop: Some(header),
        };
        self.submit_data(send, first, api);
    }

    /// A custody hop was transmitted successfully: account the forward,
    /// release custody when the frame reached its destination, and resolve
    /// the origin's deferred terminal status on the first handoff.
    fn relay_handoff_done(&mut self, trace: u64, to: OmniAddress, hop: RelayHeader) {
        if matches!(self.cfg.relay.strategy, RelayStrategy::SprayAndWait { .. }) && to != hop.dest {
            if let Some(entry) = self.custody.get_mut(trace) {
                if let Some(h) = entry.frame.relay.as_mut() {
                    h.copies = h.copies.saturating_sub(hop.copies);
                }
            }
        }
        if to == hop.dest {
            self.custody.remove(trace);
            if let Some(m) = &self.mgr_obs {
                m.custody_depth.set(self.custody.len() as i64);
            }
        }
        if let Some(oc) = self.custody_origin.remove(&trace) {
            self.deferred.push_back((
                oc.cb,
                StatusCode::SendDataSuccess,
                ResponseInfo::Destination { destination: oc.dest, trace },
            ));
        }
    }

    /// PRoPHET: note a sighting of `peer`, counting it as a new encounter
    /// when the configured gap has passed.
    fn prophet_note_encounter(&mut self, peer: OmniAddress, now: SimTime) {
        let Some(ps) = &mut self.prophet else { return };
        let gap = ps.cfg.encounter_gap;
        let fresh =
            ps.last_encounter.get(&peer).map(|t| now.saturating_since(*t) > gap).unwrap_or(true);
        ps.last_encounter.insert(peer, now);
        if fresh {
            let cfg = ps.cfg;
            ps.table.encounter(peer, &cfg);
        }
    }

    /// Handles a decrypted context payload: unwraps relay envelopes,
    /// delivers to the application, and floods onward when relaying is
    /// enabled (paper §5 future work, BLE-Mesh-style multi-hop context).
    fn handle_context_plain(&mut self, relayer: OmniAddress, plain: &Bytes, api: &mut NodeApi<'_>) {
        if plain.first() == Some(&relay::PROPHET_SUMMARY_TAG) {
            // Manager-internal PRoPHET summary (like the relay envelope, its
            // tag is reserved): never delivered to applications, never
            // re-relayed.
            self.handle_prophet_summary(relayer, plain, api);
            return;
        }
        if plain.first() == Some(&relay::CONTEXT_RELAY_TAG) && plain.len() >= 10 {
            let ttl = plain[1];
            let mut origin_bytes = [0u8; 8];
            origin_bytes.copy_from_slice(&plain[2..10]);
            let origin = OmniAddress::from_bytes(origin_bytes);
            if origin == self.own {
                return; // our own context echoed back through a relay
            }
            let inner = plain.slice(10..);
            self.fire_context(origin, &inner, api.now);
            if ttl > 0 && self.cfg.relay_ttl > 0 {
                self.relay_context(origin, &inner, ttl - 1, api);
            }
        } else {
            self.fire_context(relayer, plain, api.now);
            if self.cfg.relay_ttl > 0 {
                self.relay_context(relayer, plain, self.cfg.relay_ttl - 1, api);
            }
        }
    }

    /// Ingests a neighbor's PRoPHET delivery-predictability summary:
    /// transitivity update, encounter bookkeeping, and a custody pump (new
    /// information may open a forwarding opportunity).
    fn handle_prophet_summary(
        &mut self,
        relayer: OmniAddress,
        plain: &Bytes,
        api: &mut NodeApi<'_>,
    ) {
        let Some(summary) = relay::decode_summary(relay::PROPHET_SUMMARY_TAG, plain) else {
            return;
        };
        let now = api.now;
        let own = self.own;
        let Some(ps) = &mut self.prophet else { return };
        let cfg = ps.cfg;
        ps.table.transitivity(own, relayer, &summary, &cfg);
        ps.peer_summaries.insert(relayer, summary);
        self.prophet_note_encounter(relayer, now);
        self.pump_custody(api);
    }

    fn fire_context(&mut self, src: OmniAddress, payload: &Bytes, now: omni_sim::SimTime) {
        let mut cbs = std::mem::take(&mut self.context_cbs);
        for cb in cbs.iter_mut() {
            let mut ctl = crate::api::OmniCtl::at(now);
            cb(src, payload, &mut ctl);
            self.pending_calls.extend(ctl.calls);
        }
        debug_assert!(self.context_cbs.is_empty());
        self.context_cbs = cbs;
    }

    /// Rebroadcasts a context pack on every engaged context technology,
    /// deduplicating per (origin, payload) within one beacon interval so
    /// periodic packs are relayed once per period, not once per copy heard.
    fn relay_context(
        &mut self,
        origin: OmniAddress,
        inner: &Bytes,
        ttl: u8,
        api: &mut NodeApi<'_>,
    ) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in inner.iter() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let key = (origin, h);
        let window = self.beacon_interval_current;
        if let Some(&last) = self.ctx_relay_seen.get(&key) {
            if api.now.saturating_since(last) < window {
                return;
            }
        }
        self.ctx_relay_seen.insert(key, api.now);
        if self.ctx_relay_seen.len() > 4096 {
            let cutoff = api.now;
            let w = window;
            self.ctx_relay_seen.retain(|_, at| cutoff.saturating_since(*at) < w * 4);
        }
        let mut envelope = bytes::BytesMut::with_capacity(10 + inner.len());
        envelope.put_u8(relay::CONTEXT_RELAY_TAG);
        envelope.put_u8(ttl);
        envelope.put_slice(&origin.to_bytes());
        envelope.put_slice(inner);
        let sealed = self.seal(envelope.freeze());
        let packed = PackedStruct::context(self.own, sealed);
        let engaged: Vec<TechType> = self.engaged.iter().copied().collect();
        for tech in engaged {
            let token = self.alloc_token();
            if let Some(q) = self.queue_of(tech) {
                let evicted = q.push(SendRequest {
                    token,
                    op: SendOp::RelayContext,
                    packed: Some(packed.clone()),
                });
                self.surface_eviction(tech, evicted);
            }
        }
    }

    fn process_response(&mut self, resp: TechResponse, api: &mut NodeApi<'_>) {
        let TechResponse::Outcome { tech, token, result } = resp else {
            return; // StatusChanged: engagement evaluation picks it up
        };
        let Some(pending) = self.pending.remove(&token) else {
            return; // internal (engagement-copy) request: nothing to do
        };
        match pending {
            Pending::Context { op, id, cb, remaining } => match result {
                Ok(_) => {
                    if let Some(entry) = self.contexts.get_mut(&id) {
                        entry.carried.insert(tech);
                    }
                    if let Some(cb) = cb {
                        let code = match op {
                            CtxOp::Add => StatusCode::AddContextSuccess,
                            CtxOp::Update => StatusCode::UpdateContextSuccess,
                            CtxOp::Remove => StatusCode::RemoveContextSuccess,
                        };
                        self.deferred.push_back((cb, code, ResponseInfo::ContextId(id)));
                    }
                }
                Err(failure) => {
                    if let Some(entry) = self.contexts.get_mut(&id) {
                        entry.carried.remove(&tech);
                    }
                    // Replay on the next applicable context technology.
                    let mut remaining = remaining;
                    if let Some(next) = remaining.pop() {
                        self.resubmit_context(next, op, id, cb, remaining, failure.original);
                    } else if let Some(cb) = cb {
                        let code = match op {
                            CtxOp::Add => StatusCode::AddContextFailure,
                            CtxOp::Update => StatusCode::UpdateContextFailure,
                            CtxOp::Remove => StatusCode::RemoveContextFailure,
                        };
                        let info = ResponseInfo::ContextFailure {
                            description: failure.description,
                            context_id: Some(id),
                        };
                        self.deferred.push_back((cb, code, info));
                    }
                }
            },
            Pending::Data(mut send) => match result {
                Ok(ResponseOk::DataSent { dest_omni }) => {
                    if self.cfg.retry.enabled() {
                        api.cancel_timer(MGR_TIMER_DATA_BASE + token);
                    }
                    if let Some(hop) = send.relay_hop {
                        // A custody hop went out: count it as a relay
                        // forward, not an application-level DataSent.
                        if let Some(m) = &self.mgr_obs {
                            m.data_relayed.inc();
                            m.event(
                                api.now,
                                EventKind::DataRelayed {
                                    tech: tech_label(tech),
                                    peer: dest_omni.as_u64(),
                                    hops: u64::from(hop.hops),
                                    trace: send.trace.as_u64(),
                                },
                            );
                        }
                        self.relay_handoff_done(send.trace.as_u64(), dest_omni, hop);
                        return;
                    }
                    if let Some(m) = &self.mgr_obs {
                        m.data_sent.inc();
                        m.sent_by_tech[tech.index()].inc();
                        let latency_us =
                            api.now.as_micros().saturating_sub(send.enqueued_at.as_micros());
                        m.send_latency_us[tech.index()].record(latency_us);
                        m.delivery_latency.record_with_exemplar(latency_us, send.trace.as_u64());
                        m.event(
                            api.now,
                            EventKind::DataSent {
                                tech: tech_label(tech),
                                bytes: send.wire_len,
                                trace: send.trace.as_u64(),
                            },
                        );
                    }
                    if let Some(cb) = send.cb {
                        self.deferred.push_back((
                            cb,
                            StatusCode::SendDataSuccess,
                            ResponseInfo::Destination {
                                destination: dest_omni,
                                trace: send.trace.as_u64(),
                            },
                        ));
                    }
                }
                Ok(_) => {
                    if self.cfg.retry.enabled() {
                        api.cancel_timer(MGR_TIMER_DATA_BASE + token);
                    }
                }
                Err(failure) => {
                    if self.cfg.retry.enabled() {
                        api.cancel_timer(MGR_TIMER_DATA_BASE + token);
                        self.advance_data(send, Some(tech), failure.description, api);
                    } else if send.remaining.is_empty() {
                        if self.relay_rescue(&mut send, api) {
                            return;
                        }
                        if let Some(m) = &self.mgr_obs {
                            m.data_failed.inc();
                            m.event(
                                api.now,
                                EventKind::DataFailed {
                                    tech: tech_label(tech),
                                    trace: send.trace.as_u64(),
                                },
                            );
                        }
                        // "Only at this point is the status_callback provided
                        // by the application employed" (paper §3.3).
                        if let Some(cb) = send.cb {
                            let info = ResponseInfo::SendFailure {
                                description: failure.description,
                                destination: send.dest,
                                trace: send.trace.as_u64(),
                            };
                            self.deferred.push_back((cb, StatusCode::SendDataFailure, info));
                        }
                    } else {
                        let next = send.remaining.remove(0);
                        if let Some(m) = &self.mgr_obs {
                            m.data_fallbacks.inc();
                            m.event(
                                api.now,
                                EventKind::DataFailedOver {
                                    from_tech: tech_label(tech),
                                    to_tech: tech_label(next.tech),
                                    trace: send.trace.as_u64(),
                                },
                            );
                        }
                        self.submit_data(send, next, api);
                    }
                }
            },
        }
    }

    // ------------------------------------------------------------------
    // Developer API application
    // ------------------------------------------------------------------

    fn apply_call(&mut self, call: ApiCall, api: &mut NodeApi<'_>) {
        match call {
            ApiCall::AddContext { params, context, status } => {
                if let Some(description) = reserved_tag_refusal(&context) {
                    self.deferred.push_back((
                        Rc::new(RefCell::new(status)),
                        StatusCode::AddContextFailure,
                        ResponseInfo::ContextFailure { description, context_id: None },
                    ));
                    return;
                }
                let id = self.next_context_id;
                self.next_context_id += 1;
                let sealed = self.seal(context);
                let packed = PackedStruct::context(self.own, sealed);
                self.contexts.insert(
                    id,
                    ContextEntry { params, payload: packed.clone(), carried: self.engaged.clone() },
                );
                if let Some(m) = &self.mgr_obs {
                    m.context_ops.inc();
                    m.contexts.set(self.contexts.len() as i64);
                    m.event(api.now, EventKind::ContextUpdated { id });
                }
                let cb: SharedCb = Rc::new(RefCell::new(status));
                let mut engaged: Vec<TechType> = self.engaged.iter().copied().collect();
                // Fallback candidates: enabled context technologies not
                // already part of the submission.
                let fallbacks: Vec<TechType> = self
                    .context_techs()
                    .into_iter()
                    .filter(|t| !self.engaged.contains(t))
                    .rev()
                    .collect();
                if engaged.is_empty() {
                    self.deferred.push_back((
                        cb,
                        StatusCode::AddContextFailure,
                        ResponseInfo::ContextFailure {
                            description: "no context technology available".into(),
                            context_id: Some(id),
                        },
                    ));
                    return;
                }
                let first = engaged.remove(0);
                self.submit_context(
                    first,
                    CtxOp::Add,
                    id,
                    params.interval,
                    Some(packed.clone()),
                    Some(cb),
                    fallbacks,
                );
                for t in engaged {
                    self.submit_context(
                        t,
                        CtxOp::Add,
                        id,
                        params.interval,
                        Some(packed.clone()),
                        None,
                        Vec::new(),
                    );
                }
            }
            ApiCall::UpdateContext { id, params, context, status } => {
                let cb: SharedCb = Rc::new(RefCell::new(status));
                if let Some(description) = reserved_tag_refusal(&context) {
                    self.deferred.push_back((
                        cb,
                        StatusCode::UpdateContextFailure,
                        ResponseInfo::ContextFailure { description, context_id: Some(id) },
                    ));
                    return;
                }
                if id == ADDRESS_BEACON_CONTEXT_ID || !self.contexts.contains_key(&id) {
                    self.deferred.push_back((
                        cb,
                        StatusCode::UpdateContextFailure,
                        ResponseInfo::ContextFailure {
                            description: "unknown context id".into(),
                            context_id: Some(id),
                        },
                    ));
                    return;
                }
                let sealed = self.seal(context);
                let packed = PackedStruct::context(self.own, sealed);
                let entry = self.contexts.get_mut(&id).expect("checked");
                entry.params = params;
                entry.payload = packed.clone();
                let carried: Vec<TechType> = entry.carried.iter().copied().collect();
                if let Some(m) = &self.mgr_obs {
                    m.context_ops.inc();
                    m.event(api.now, EventKind::ContextUpdated { id });
                }
                let mut first_cb = Some(cb);
                for t in carried {
                    self.submit_context(
                        t,
                        CtxOp::Update,
                        id,
                        params.interval,
                        Some(packed.clone()),
                        first_cb.take(),
                        Vec::new(),
                    );
                }
                if let Some(cb) = first_cb {
                    // Carried nowhere (all technologies failed earlier).
                    self.deferred.push_back((
                        cb,
                        StatusCode::UpdateContextFailure,
                        ResponseInfo::ContextFailure {
                            description: "context not carried by any technology".into(),
                            context_id: Some(id),
                        },
                    ));
                }
            }
            ApiCall::RemoveContext { id, status } => {
                let cb: SharedCb = Rc::new(RefCell::new(status));
                if id == ADDRESS_BEACON_CONTEXT_ID {
                    self.deferred.push_back((
                        cb,
                        StatusCode::RemoveContextFailure,
                        ResponseInfo::ContextFailure {
                            description: "the address beacon cannot be removed".into(),
                            context_id: Some(id),
                        },
                    ));
                    return;
                }
                match self.contexts.remove(&id) {
                    Some(entry) => {
                        if let Some(m) = &self.mgr_obs {
                            m.context_ops.inc();
                            m.contexts.set(self.contexts.len() as i64);
                            m.event(api.now, EventKind::ContextUpdated { id });
                        }
                        let mut first_cb = Some(cb);
                        for t in entry.carried {
                            self.submit_context(
                                t,
                                CtxOp::Remove,
                                id,
                                entry.params.interval,
                                None,
                                first_cb.take(),
                                Vec::new(),
                            );
                        }
                        if let Some(cb) = first_cb {
                            self.deferred.push_back((
                                cb,
                                StatusCode::RemoveContextSuccess,
                                ResponseInfo::ContextId(id),
                            ));
                        }
                    }
                    None => {
                        self.deferred.push_back((
                            cb,
                            StatusCode::RemoveContextFailure,
                            ResponseInfo::ContextFailure {
                                description: "unknown context id".into(),
                                context_id: Some(id),
                            },
                        ));
                    }
                }
            }
            ApiCall::SendData { destinations, data, total_len, status } => {
                let cb: SharedCb = Rc::new(RefCell::new(status));
                for dest in destinations {
                    self.send_data_to(dest, data.clone(), total_len, cb.clone(), api);
                }
            }
            ApiCall::RequestContext(cb) => self.context_cbs.push(cb),
            ApiCall::RequestData(cb) => self.data_cbs.push(cb),
            ApiCall::RequestTimers(cb) => self.timer_cbs.push(cb),
            ApiCall::RequestInfra(cb) => self.infra_cbs.push(cb),
            ApiCall::InfraRequest { req, total, chunk } => {
                api.push(omni_sim::Command::InfraRequest {
                    req,
                    total_bytes: total,
                    chunk_bytes: chunk,
                });
            }
            ApiCall::InfraCancel { req } => {
                api.push(omni_sim::Command::InfraCancel { req });
            }
            ApiCall::SetTimer { token, delay } => {
                assert!(token < APP_TIMER_BASE, "application timer token too large");
                api.set_timer(APP_TIMER_BASE + token, delay);
            }
            ApiCall::CancelTimer { token } => {
                api.cancel_timer(APP_TIMER_BASE + token);
            }
        }
    }

    /// Enumerates the delivery candidates for `total_len` bytes to `dest`,
    /// or `None` when the destination has never been discovered. On the
    /// reliable path the BLE payload bound absorbs the larger acked-frame
    /// overhead.
    fn data_candidates(
        &self,
        dest: OmniAddress,
        total_len: u64,
        now: SimTime,
    ) -> Option<Vec<Candidate>> {
        let enabled: Vec<TechType> = self
            .techs
            .iter()
            .map(|s| s.ty)
            .filter(|t| self.cfg.data_techs.as_ref().map(|d| d.contains(t)).unwrap_or(true))
            .collect();
        let record = self.peers.get(dest)?;
        let ble_frame_overhead = if self.cfg.retry.enabled() {
            crate::techs::frame::ACKED_OVERHEAD
        } else {
            crate::techs::frame::DIRECTED_OVERHEAD
        };
        let techs = &self.techs;
        Some(selection::candidates(
            dest,
            record,
            total_len,
            &enabled,
            &self.cfg.timings,
            now,
            self.cfg.peer_ttl,
            ble_frame_overhead,
            |ty, addr| {
                techs.iter().find(|s| s.ty == ty).map(|s| s.tech.has_session(addr)).unwrap_or(false)
            },
        ))
    }

    fn send_data_to(
        &mut self,
        dest: OmniAddress,
        data: Bytes,
        total_len: u64,
        cb: SharedCb,
        api: &mut NodeApi<'_>,
    ) {
        // Derive the trace before candidate selection so even immediately
        // failing sends produce a (single-event) causal timeline.
        let trace = self.next_trace();
        // With the relay layer on, origin frames are stamped with a TTL'd
        // relay header (and sized for the extra header bytes); a
        // destination that is unknown or unreachable enters custody instead
        // of failing.
        let relay_header = self.cfg.relay.enabled().then(|| {
            let copies = match self.cfg.relay.strategy {
                RelayStrategy::SprayAndWait { copies } => copies,
                _ => 0,
            };
            RelayHeader::new(dest, self.cfg.relay.initial_ttl).with_copies(copies)
        });
        let selection_len =
            total_len + if relay_header.is_some() { (TRACE_LEN + RELAY_LEN) as u64 } else { 0 };
        let Some(mut cands) = self.data_candidates(dest, selection_len, api.now) else {
            if let Some(header) = relay_header {
                self.origin_custody(dest, data, total_len, cb, trace, header, api);
                return;
            }
            if let Some(m) = &self.mgr_obs {
                m.data_failed.inc();
                m.event(api.now, EventKind::DataFailed { tech: "none", trace: trace.as_u64() });
            }
            self.deferred.push_back((
                cb,
                StatusCode::SendDataFailure,
                ResponseInfo::SendFailure {
                    description: "destination unknown: never discovered".into(),
                    destination: dest,
                    trace: trace.as_u64(),
                },
            ));
            return;
        };
        if cands.is_empty() && !self.cfg.retry.enabled() {
            if let Some(header) = relay_header {
                self.origin_custody(dest, data, total_len, cb, trace, header, api);
                return;
            }
            if let Some(m) = &self.mgr_obs {
                m.data_failed.inc();
                m.event(api.now, EventKind::DataFailed { tech: "none", trace: trace.as_u64() });
            }
            self.deferred.push_back((
                cb,
                StatusCode::SendDataFailure,
                ResponseInfo::SendFailure {
                    description: "no applicable technology for destination".into(),
                    destination: dest,
                    trace: trace.as_u64(),
                },
            ));
            return;
        }
        let mut packed = PackedStruct::data(self.own, data).with_trace(trace);
        if let Some(header) = relay_header {
            packed = packed.with_relay(header);
        }
        let mut send = DataSend {
            dest,
            cb: Some(cb),
            remaining: Vec::new(),
            wire_len: total_len,
            packed: Some(packed),
            attempt: 1,
            tried: Vec::new(),
            current: None,
            trace,
            enqueued_at: api.now,
            relay_hop: None,
        };
        if cands.is_empty() {
            // Reliable mode: the peer may be mid-partition or mid-reboot;
            // burn this pass and back off instead of failing outright. The
            // send is accepted, so its timeline still opens with an enqueue.
            if let Some(m) = &self.mgr_obs {
                m.data_enqueued.inc();
                m.event(
                    api.now,
                    EventKind::DataEnqueued {
                        tech: "none",
                        bytes: send.wire_len,
                        trace: trace.as_u64(),
                    },
                );
            }
            self.advance_data(send, None, "no applicable technology for destination".into(), api);
            return;
        }
        let first = cands.remove(0);
        send.remaining = cands;
        self.submit_data(send, first, api);
    }

    /// Accepts an origin send whose destination is currently unreachable
    /// into the relay layer: the frame enters local custody and the
    /// application's terminal status is deferred until the first successful
    /// handoff (success) or custody expiry (failure).
    #[allow(clippy::too_many_arguments)]
    fn origin_custody(
        &mut self,
        dest: OmniAddress,
        data: Bytes,
        total_len: u64,
        cb: SharedCb,
        trace: TraceId,
        header: RelayHeader,
        api: &mut NodeApi<'_>,
    ) {
        let now = api.now;
        if let Some(m) = &self.mgr_obs {
            m.data_enqueued.inc();
            m.event(
                now,
                EventKind::DataEnqueued { tech: "none", bytes: total_len, trace: trace.as_u64() },
            );
        }
        let packed = PackedStruct::data(self.own, data).with_trace(trace).with_relay(header);
        let t = trace.as_u64();
        self.data_seen.insert(t);
        self.custody_origin.insert(t, OriginCustody { cb, dest, tried: Vec::new() });
        self.take_custody(packed, header, t, now);
        self.pump_custody(api);
    }

    // ------------------------------------------------------------------
    // Request submission
    // ------------------------------------------------------------------

    fn alloc_token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    fn queue_of(&self, ty: TechType) -> Option<&SharedQueue<SendRequest>> {
        self.techs.iter().find(|s| s.ty == ty).map(|s| &s.send)
    }

    fn context_techs(&self) -> Vec<TechType> {
        let mut v: Vec<TechType> =
            self.techs.iter().map(|s| s.ty).filter(|t| t.supports_context()).collect();
        v.sort_unstable();
        v
    }

    #[allow(clippy::too_many_arguments)]
    fn submit_context(
        &mut self,
        tech: TechType,
        op: CtxOp,
        id: u64,
        interval: SimDuration,
        packed: Option<PackedStruct>,
        cb: Option<SharedCb>,
        remaining: Vec<TechType>,
    ) {
        let token = self.alloc_token();
        let send_op = match op {
            CtxOp::Add => SendOp::AddContext { context_id: id, interval },
            CtxOp::Update => SendOp::UpdateContext { context_id: id, interval },
            CtxOp::Remove => SendOp::RemoveContext { context_id: id },
        };
        self.pending.insert(token, Pending::Context { op, id, cb, remaining });
        if let Some(q) = self.queue_of(tech) {
            let evicted = q.push(SendRequest { token, op: send_op, packed });
            self.surface_eviction(tech, evicted);
        } else {
            // Technology vanished; fabricate a failure so fallback runs.
            self.response.push(TechResponse::Outcome {
                tech,
                token,
                result: Err(crate::queues::TechFailure {
                    description: format!("technology {tech} not present"),
                    original: SendRequest {
                        token,
                        op: match op {
                            CtxOp::Add => SendOp::AddContext { context_id: id, interval },
                            CtxOp::Update => SendOp::UpdateContext { context_id: id, interval },
                            CtxOp::Remove => SendOp::RemoveContext { context_id: id },
                        },
                        packed: None,
                    },
                }),
            });
        }
    }

    fn resubmit_context(
        &mut self,
        tech: TechType,
        op: CtxOp,
        id: u64,
        cb: Option<SharedCb>,
        remaining: Vec<TechType>,
        original: SendRequest,
    ) {
        let token = self.alloc_token();
        self.pending.insert(token, Pending::Context { op, id, cb, remaining });
        if let Some(q) = self.queue_of(tech) {
            let evicted = q.push(SendRequest { token, op: original.op, packed: original.packed });
            self.surface_eviction(tech, evicted);
        }
    }

    /// Hands a send to a technology, arming the ack-deadline timer when the
    /// reliable path is active.
    fn submit_data(&mut self, mut send: DataSend, candidate: Candidate, api: &mut NodeApi<'_>) {
        if let Some(m) = &self.mgr_obs {
            m.data_enqueued.inc();
            m.event(
                api.now,
                EventKind::DataEnqueued {
                    tech: tech_label(candidate.tech),
                    bytes: send.wire_len,
                    trace: send.trace.as_u64(),
                },
            );
        }
        let token = self.alloc_token();
        let op = SendOp::SendData {
            dest: candidate.dest,
            dest_omni: send.dest,
            wire_len: send.wire_len,
            establish: candidate.establish,
        };
        let packed = send.packed.clone();
        if self.cfg.retry.enabled() {
            api.set_timer(
                MGR_TIMER_DATA_BASE + token,
                candidate.expected + self.cfg.retry.ack_deadline,
            );
        }
        send.current = Some(candidate.tech);
        if !send.tried.contains(&candidate.tech) {
            send.tried.push(candidate.tech);
        }
        self.pending.insert(token, Pending::Data(send));
        let evicted = match self.queue_of(candidate.tech) {
            Some(q) => q.push(SendRequest { token, op, packed }),
            None => None,
        };
        self.surface_eviction(candidate.tech, evicted);
    }

    /// A bounded send queue evicted its oldest request to admit a new one.
    /// Losing it silently would leave the application waiting forever:
    /// fabricate a technology failure so the normal fallback / retry /
    /// terminal-status machinery reports it instead.
    fn surface_eviction(&mut self, tech: TechType, evicted: Option<SendRequest>) {
        let Some(original) = evicted else { return };
        if !self.pending.contains_key(&original.token) {
            return; // internal copy (relay, engagement): nobody is waiting
        }
        let token = original.token;
        self.response.push(TechResponse::Outcome {
            tech,
            token,
            result: Err(crate::queues::TechFailure {
                description: "send queue overflow: oldest request evicted".into(),
                original,
            }),
        });
    }

    /// Advances a reliable send after a failed try: fail over to the next
    /// candidate in this pass, back off into another pass, or report the
    /// terminal failure naming every exhausted technology.
    fn advance_data(
        &mut self,
        mut send: DataSend,
        failed: Option<TechType>,
        description: String,
        api: &mut NodeApi<'_>,
    ) {
        let policy = self.cfg.retry;
        if !send.remaining.is_empty() {
            let next = send.remaining.remove(0);
            if let Some(m) = &self.mgr_obs {
                m.data_fallbacks.inc();
                m.event(
                    api.now,
                    EventKind::DataFailedOver {
                        from_tech: failed.map(tech_label).unwrap_or("none"),
                        to_tech: tech_label(next.tech),
                        trace: send.trace.as_u64(),
                    },
                );
            }
            self.submit_data(send, next, api);
            return;
        }
        if send.attempt < policy.max_attempts {
            send.attempt += 1;
            send.current = None;
            let delay = policy.backoff_delay(send.attempt);
            if let Some(m) = &self.mgr_obs {
                m.data_retries.inc();
                m.retry_count.record(send.attempt as u64);
                m.backoff_us.record(delay.as_micros());
                m.event(
                    api.now,
                    EventKind::DataRetried {
                        tech: failed.map(tech_label).unwrap_or("none"),
                        attempt: send.attempt as u64,
                        trace: send.trace.as_u64(),
                    },
                );
            }
            let token = self.alloc_token();
            self.pending.insert(token, Pending::Data(send));
            api.set_timer(MGR_TIMER_DATA_BASE + token, delay);
            return;
        }
        if self.relay_rescue(&mut send, api) {
            return;
        }
        if let Some(m) = &self.mgr_obs {
            m.data_failed.inc();
            m.event(
                api.now,
                EventKind::DataFailed {
                    tech: failed.map(tech_label).unwrap_or("none"),
                    trace: send.trace.as_u64(),
                },
            );
            m.event(
                api.now,
                EventKind::SendExhausted { peer: send.dest.as_u64(), trace: send.trace.as_u64() },
            );
        }
        if let Some(cb) = send.cb {
            let info = ResponseInfo::SendExhausted {
                description,
                destination: send.dest,
                techs: send.tried.clone(),
                trace: send.trace.as_u64(),
            };
            self.deferred.push_back((cb, StatusCode::SendDataFailure, info));
        }
    }

    /// Relay-aware failure absorption (DESIGN.md §5h). A custody-hop send
    /// that fails is never terminal: the custody entry persists and the
    /// re-offer interval retries the frame later, so the failure is dropped
    /// silently. An *origin* send that fails with the relay layer on
    /// converts into local custody — the application's single terminal
    /// status stays deferred until a handoff succeeds or custody expires.
    /// Returns `true` when the failure was absorbed.
    fn relay_rescue(&mut self, send: &mut DataSend, api: &mut NodeApi<'_>) -> bool {
        if send.relay_hop.is_some() {
            return true; // the frame stays in custody
        }
        if !self.cfg.relay.enabled() {
            return false;
        }
        let Some(packed) = send.packed.take() else { return false };
        let Some(header) = packed.relay else {
            send.packed = Some(packed);
            return false;
        };
        let Some(cb) = send.cb.take() else {
            send.packed = Some(packed);
            return false;
        };
        let trace = send.trace.as_u64();
        self.data_seen.insert(trace);
        self.custody_origin
            .insert(trace, OriginCustody { cb, dest: send.dest, tried: send.tried.clone() });
        self.take_custody(packed, header, trace, api.now);
        self.pump_custody(api);
        true
    }

    /// A reliable-data timer fired: either the ack deadline of an in-flight
    /// try (the technology went silent — treat the try as lost) or a backoff
    /// wait ending (re-enumerate candidates for a fresh pass).
    fn data_timer_fired(&mut self, token: u64, api: &mut NodeApi<'_>) {
        let mut send = match self.pending.remove(&token) {
            Some(Pending::Data(s)) => s,
            Some(other) => {
                self.pending.insert(token, other);
                return;
            }
            None => return, // already concluded; stale timer
        };
        match send.current {
            Some(tech) => {
                self.advance_data(send, Some(tech), format!("ack deadline expired on {tech}"), api);
            }
            None => match self.data_candidates(send.dest, send.wire_len, api.now) {
                Some(mut cands) if !cands.is_empty() => {
                    let first = cands.remove(0);
                    send.remaining = cands;
                    self.submit_data(send, first, api);
                }
                _ => {
                    self.advance_data(
                        send,
                        None,
                        "no applicable technology for destination".into(),
                        api,
                    );
                }
            },
        }
    }

    /// Fails every outstanding reliable send to a peer whose record just
    /// expired: in-flight and backed-off tries are cancelled, and the one
    /// terminal status each send is owed is delivered now. Late technology
    /// outcomes for the cancelled tokens are ignored by `process_response`.
    fn cancel_sends_to(&mut self, peer: OmniAddress, api: &mut NodeApi<'_>) {
        let mut tokens: Vec<u64> = self
            .pending
            .iter()
            .filter_map(|(t, p)| match p {
                Pending::Data(s) if s.dest == peer => Some(*t),
                _ => None,
            })
            .collect();
        tokens.sort_unstable();
        for token in tokens {
            let send = match self.pending.remove(&token) {
                Some(Pending::Data(s)) => s,
                Some(other) => {
                    self.pending.insert(token, other);
                    continue;
                }
                None => continue,
            };
            api.cancel_timer(MGR_TIMER_DATA_BASE + token);
            let mut send = send;
            if self.relay_rescue(&mut send, api) {
                continue;
            }
            if let Some(m) = &self.mgr_obs {
                m.data_failed.inc();
                m.event(
                    api.now,
                    EventKind::DataFailed {
                        tech: send.current.map(tech_label).unwrap_or("none"),
                        trace: send.trace.as_u64(),
                    },
                );
                m.event(
                    api.now,
                    EventKind::SendExhausted { peer: peer.as_u64(), trace: send.trace.as_u64() },
                );
            }
            if let Some(cb) = send.cb {
                self.deferred.push_back((
                    cb,
                    StatusCode::SendDataFailure,
                    ResponseInfo::SendExhausted {
                        description: "peer expired; retries cancelled".into(),
                        destination: peer,
                        techs: send.tried.clone(),
                        trace: send.trace.as_u64(),
                    },
                ));
            }
        }
    }

    // ------------------------------------------------------------------
    // Engagement algorithm (paper §3.3, The Omni Address Beacon)
    // ------------------------------------------------------------------

    /// Adaptive address-beacon frequency (paper §3.1 *Future
    /// Considerations*): beacon at the policy's fast rate while new peers
    /// keep appearing, decay (doubling per stable evaluation period) toward
    /// the slow ceiling when the neighborhood is unchanged. `prev` is the
    /// fresh set of the previous evaluation; [`Self::fresh_prev`] already
    /// holds the current one.
    fn adapt_beacon_interval(&mut self, prev: &BTreeSet<OmniAddress>, api: &mut NodeApi<'_>) {
        let Some(policy) = self.cfg.adaptive_beacon else {
            return;
        };
        let changed = self.fresh_prev.difference(prev).next().is_some();
        let current = self.beacon_interval_current;
        let target = if changed {
            policy.min
        } else {
            let doubled = current * 2;
            if doubled > policy.max {
                policy.max
            } else {
                doubled
            }
        };
        if target == current {
            return;
        }
        self.beacon_interval_current = target;
        if let Some(m) = &self.mgr_obs {
            m.beacon_interval_us.set(target.as_micros() as i64);
            m.event(
                api.now,
                EventKind::BeaconIntervalChanged {
                    from_us: current.as_micros(),
                    to_us: target.as_micros(),
                },
            );
        }
        if let Some(entry) = self.contexts.get_mut(&ADDRESS_BEACON_CONTEXT_ID) {
            entry.params.interval = target;
            let payload = entry.payload.clone();
            let carried: Vec<TechType> = entry.carried.iter().copied().collect();
            for tech in carried {
                self.submit_context(
                    tech,
                    CtxOp::Update,
                    ADDRESS_BEACON_CONTEXT_ID,
                    target,
                    Some(payload.clone()),
                    None,
                    Vec::new(),
                );
            }
        }
    }

    /// Per-engagement-tick relay maintenance: PRoPHET aging and summary
    /// broadcast, custody expiry, and a re-offer pass over custody.
    fn relay_tick(&mut self, api: &mut NodeApi<'_>) {
        let now = api.now;
        if let Some(ps) = &mut self.prophet {
            let step = ps.cfg.aging_interval.as_micros().max(1);
            let k = now.saturating_since(ps.last_aged).as_micros() / step;
            if k > 0 {
                let cfg = ps.cfg;
                ps.table.age(k.min(u64::from(u32::MAX)) as u32, &cfg);
                ps.last_aged = SimTime::from_micros(ps.last_aged.as_micros() + k * step);
            }
        }
        self.broadcast_prophet_summary();
        self.pump_custody(api);
    }

    /// Broadcasts this node's PRoPHET summary as a manager-internal context
    /// pack (tag `0xE8`) on every engaged context technology.
    fn broadcast_prophet_summary(&mut self) {
        // 5 entries is the most that fits a 64-byte BLE advertisement once
        // the context header (9 B) and summary framing (2 B) are paid.
        let summary = match &self.prophet {
            Some(ps) => ps.table.summary(5),
            None => return,
        };
        if summary.is_empty() {
            return;
        }
        let payload = relay::encode_summary(relay::PROPHET_SUMMARY_TAG, &summary);
        let sealed = self.seal(payload);
        let packed = PackedStruct::context(self.own, sealed);
        let engaged: Vec<TechType> = self.engaged.iter().copied().collect();
        for tech in engaged {
            let token = self.alloc_token();
            if let Some(q) = self.queue_of(tech) {
                let evicted = q.push(SendRequest {
                    token,
                    op: SendOp::RelayContext,
                    packed: Some(packed.clone()),
                });
                self.surface_eviction(tech, evicted);
            }
        }
    }

    /// Rebuilds [`Self::fresh_prev`] and feeds its three consumers, in
    /// order: the adaptive beacon (did a peer appear?), then `PeerExpired`
    /// events and reliable-send cancellation (which peers went stale?).
    /// Which consumers are on is fixed when the manager is built, so the
    /// snapshot is rebuilt on every evaluation whenever any of them is.
    fn track_fresh_peers(&mut self, api: &mut NodeApi<'_>) {
        let retry = self.cfg.retry.enabled();
        if self.cfg.adaptive_beacon.is_none() && self.mgr_obs.is_none() && !retry {
            return;
        }
        let fresh: BTreeSet<OmniAddress> =
            self.peers.fresh_peers(api.now, self.cfg.peer_ttl).into_iter().collect();
        let prev = std::mem::replace(&mut self.fresh_prev, fresh);
        self.adapt_beacon_interval(&prev, api);
        let gone: Vec<OmniAddress> = prev.difference(&self.fresh_prev).copied().collect();
        if let Some(m) = &self.mgr_obs {
            for peer in &gone {
                m.event(api.now, EventKind::PeerExpired { peer: peer.as_u64() });
            }
        }
        if retry {
            for peer in gone {
                self.cancel_sends_to(peer, api);
            }
        }
    }

    fn evaluate_engagement(&mut self, api: &mut NodeApi<'_>) {
        self.track_fresh_peers(api);
        if self.cfg.relay.enabled() {
            self.relay_tick(api);
        }
        if self.cfg.advertise_on_all_techs {
            return; // SA paradigm: everything is always engaged
        }
        let ctx_techs = self.context_techs();
        let now = api.now;
        let ttl = self.cfg.peer_ttl;
        for (i, &t) in ctx_techs.iter().enumerate() {
            if Some(t) == self.primary {
                continue;
            }
            let cheaper = &ctx_techs[..i];
            let needed = self.peers.tech_needed(t, cheaper, now, ttl);
            let engaged = self.engaged.contains(&t);
            if needed && !engaged {
                self.engage(t, now);
            } else if !needed && engaged {
                self.disengage(t, now);
            }
        }
    }

    fn engage(&mut self, tech: TechType, now: SimTime) {
        self.engaged.insert(tech);
        if let Some(m) = &self.mgr_obs {
            m.engaged.set(self.engaged.len() as i64);
            m.event(now, EventKind::TechEngaged { tech: tech_label(tech) });
        }
        let mut items: Vec<(u64, SimDuration, PackedStruct)> = self
            .contexts
            .iter()
            .filter(|(_, e)| !e.carried.contains(&tech))
            .map(|(id, e)| (*id, e.params.interval, e.payload.clone()))
            .collect();
        items.sort_by_key(|(id, _, _)| *id);
        for (id, interval, packed) in items {
            if let Some(entry) = self.contexts.get_mut(&id) {
                entry.carried.insert(tech);
            }
            self.submit_context(tech, CtxOp::Add, id, interval, Some(packed), None, Vec::new());
        }
    }

    fn disengage(&mut self, tech: TechType, now: SimTime) {
        self.engaged.remove(&tech);
        if let Some(m) = &self.mgr_obs {
            m.engaged.set(self.engaged.len() as i64);
            m.event(now, EventKind::TechDisengaged { tech: tech_label(tech) });
        }
        let mut items: Vec<(u64, SimDuration)> = self
            .contexts
            .iter()
            .filter(|(_, e)| e.carried.contains(&tech))
            .map(|(id, e)| (*id, e.params.interval))
            .collect();
        items.sort_by_key(|(id, _)| *id);
        for (id, interval) in items {
            if let Some(entry) = self.contexts.get_mut(&id) {
                entry.carried.remove(&tech);
            }
            self.submit_context(tech, CtxOp::Remove, id, interval, None, None, Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use omni_sim::DeviceId;

    use super::*;

    /// A technology that counts `poll` calls and records every request it
    /// drains, answering none of them.
    struct CountingTech {
        ty: TechType,
        addr: LowAddr,
        queues: Option<TechQueues>,
        polls: Rc<Cell<usize>>,
        drained: Rc<RefCell<Vec<(TechType, SendOp)>>>,
    }

    impl D2dTechnology for CountingTech {
        fn enable(
            &mut self,
            queues: TechQueues,
            _token_base: u64,
            _api: &mut NodeApi<'_>,
        ) -> (TechType, LowAddr) {
            self.queues = Some(queues);
            (self.ty, self.addr)
        }

        fn disable(&mut self, _api: &mut NodeApi<'_>) {}

        fn tech_type(&self) -> TechType {
            self.ty
        }

        fn poll(&mut self, _api: &mut NodeApi<'_>) {
            self.polls.set(self.polls.get() + 1);
            while let Some(req) = self.queues.as_ref().and_then(|q| q.send.pop()) {
                self.drained.borrow_mut().push((self.ty, req.op));
            }
        }

        fn on_node_event(&mut self, _event: &NodeEvent, _api: &mut NodeApi<'_>) -> bool {
            false
        }
    }

    const PEER: OmniAddress = OmniAddress::from_u64(0xBEEF);
    const PEER_BLE: BleAddress = BleAddress([2, 0, 0, 0, 0xBE, 0xEF]);

    fn heard(packed: PackedStruct) -> ReceivedItem {
        ReceivedItem { tech: TechType::BleBeacon, source: LowAddr::Ble(PEER_BLE), packed }
    }

    fn peer_beacon() -> ReceivedItem {
        let beacon =
            AddressBeaconPayload { mesh: Some(MeshAddress::from_u64(0xBEEF)), ble: Some(PEER_BLE) };
        heard(PackedStruct::address_beacon(PEER, &beacon))
    }

    #[test]
    fn pump_polls_only_technologies_with_queued_sends() {
        let drained = Rc::new(RefCell::new(Vec::new()));
        let own = [
            (TechType::BleBeacon, LowAddr::Ble(BleAddress([2, 0, 0, 0, 0, 1]))),
            (TechType::WifiMulticast, LowAddr::Mesh(MeshAddress::from_u64(1))),
            (TechType::WifiTcp, LowAddr::Mesh(MeshAddress::from_u64(1))),
        ];
        let polls: Vec<Rc<Cell<usize>>> = own.iter().map(|_| Rc::new(Cell::new(0))).collect();
        let techs: Vec<Box<dyn D2dTechnology>> = own
            .iter()
            .zip(&polls)
            .map(|(&(ty, addr), polls)| {
                Box::new(CountingTech {
                    ty,
                    addr,
                    queues: None,
                    polls: polls.clone(),
                    drained: drained.clone(),
                }) as Box<dyn D2dTechnology>
            })
            .collect();
        let mut mgr = OmniManager::new(OmniAddress::from_u64(1), OmniConfig::default(), techs);
        let mut cmds = Vec::new();
        let mut api = NodeApi::detached(DeviceId(0), SimTime::ZERO, &mut cmds);
        // The app answers every context it hears with a data send.
        let mut ctl = crate::api::OmniCtl::new();
        ctl.request_context(Box::new(|src, _, omni| {
            omni.send_data(vec![src], Bytes::from_static(b"reply"), Box::new(|_, _, _| {}));
        }));
        mgr.queue_calls(ctl);
        mgr.start(&mut api);
        assert!(
            matches!(drained.borrow()[..], [(TechType::BleBeacon, SendOp::AddContext { .. })]),
            "start queues the address beacon on BLE: {:?}",
            drained.borrow()
        );
        mgr.receive.push(peer_beacon());
        mgr.pump(&mut api);
        assert!(mgr.peers().get(PEER).is_some(), "the first beacon maps the peer");

        // A beacon from a known peer queues no send, so no technology is
        // polled: not in the pass that pops it, nor in the confirming pass.
        let reset = || polls.iter().for_each(|p| p.set(0));
        reset();
        drained.borrow_mut().clear();
        mgr.receive.push(peer_beacon());
        mgr.pump(&mut api);
        let counts: Vec<usize> = polls.iter().map(|p| p.get()).collect();
        assert_eq!(counts, [0, 0, 0], "polls per technology for one heard beacon");

        // A send queued by a callback during the pump reaches its carrier's
        // `poll` before the same pump returns, and only the carrier is
        // polled.
        reset();
        mgr.receive.push(heard(PackedStruct::context(PEER, Bytes::from_static(b"hello"))));
        mgr.pump(&mut api);
        let sends = drained.borrow();
        let [(carrier, SendOp::SendData { dest_omni, .. })] = sends[..] else {
            panic!("expected one data send, drained {sends:?}");
        };
        assert_eq!(dest_omni, PEER);
        for ((ty, _), polls) in own.iter().zip(&polls) {
            assert_eq!(polls.get(), usize::from(*ty == carrier), "polls of {ty}");
        }
    }
}
