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
    LowAddr, ReceivedItem, ResponseOk, SendOp, SendRequest, SharedQueue, TechFailure, TechQueues,
    TechResponse,
};
use crate::relay::{self, CustodyEntry, Origin, Relay, SeenSet};
use crate::security::ContextCipher;
use crate::selection::{self, Candidate};
use crate::tech::D2dTechnology;

/// Manager-reserved timer token: engagement re-evaluation.
const MGR_TIMER_ENGAGE: u64 = 1 << 60;
/// How often the manager re-evaluates the multi-technology beacon
/// engagement algorithm ("at a much lower frequency", paper §3.3).
const ENGAGEMENT_CHECK: SimDuration = SimDuration::from_secs(1);
/// Base of the application timer token range.
const APP_TIMER_BASE: u64 = 1 << 59;
/// Grace the reliable path adds to a candidate's expected delivery time
/// before it declares the try lost and moves on.
const ACK_DEADLINE: SimDuration = SimDuration::from_millis(250);
/// Base of the reliable-data timer token range (ack deadlines and retry
/// backoffs). The offset within the range is the send's pending token, so
/// one timer slot exists per outstanding send.
const MGR_TIMER_DATA_BASE: u64 = 1 << 58;
/// Bound on the data-relay dedup set: the oldest of 1024 remembered trace
/// IDs is evicted first, so memory stays constant on long runs.
const SEEN_CAPACITY: usize = 1024;
/// The reserved context id of the internal address beacon.
pub const ADDRESS_BEACON_CONTEXT_ID: u64 = 0;

pub(crate) type SharedCb = Rc<RefCell<StatusCallback>>;

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
/// [`MgrObs::record`] pushes an event and bumps the counter its kind names,
/// so every counted fact is one call.
struct MgrObs {
    obs: Obs,
    node: u32,
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
    /// `mgr.custody_depth`: frames currently held in custody. A per-node
    /// value under one name: on an `Obs` a fleet shares, every manager sets
    /// the same gauge, so its value is the last writer's; only its `lo` and
    /// `hi` watermarks, the smallest and largest depth any node reported,
    /// mean something there.
    custody_depth: Gauge,
}

impl MgrObs {
    fn new(obs: &Obs, node: u32, relay_label: &'static str) -> Self {
        MgrObs {
            obs: obs.clone(),
            node,
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
                .map(|ty| obs.counter_with("mgr.data_sent", &[("tech", ty.label())])),
            delivered_by_tech: TechType::ALL
                .map(|ty| obs.counter_with("mgr.data_delivered", &[("tech", ty.label())])),
            send_latency_us: TechType::ALL
                .map(|ty| obs.digest_with("mgr.send_latency_us", &[("tech", ty.label())])),
            delivery_latency: obs.digest("mgr.delivery_latency_us"),
            data_relayed: obs.counter_with("mgr.data_relayed", &[("strategy", relay_label)]),
            data_custody: obs.counter_with("mgr.data_custody", &[("strategy", relay_label)]),
            data_deduped: obs.counter_with("mgr.data_deduped", &[("strategy", relay_label)]),
            ttl_expired: obs.counter_with("mgr.ttl_expired", &[("strategy", relay_label)]),
            custody_depth: obs.gauge("mgr.custody_depth"),
        }
    }

    /// Records `kind` and bumps the counter that counts it; the other
    /// kinds are events only.
    fn record(&self, now: SimTime, kind: EventKind) {
        let counter = match kind {
            EventKind::BeaconReceived { .. } => Some(&self.beacons_rx),
            EventKind::DataEnqueued { .. } => Some(&self.data_enqueued),
            EventKind::DataSent { .. } => Some(&self.data_sent),
            EventKind::DataDelivered { .. } => Some(&self.data_delivered),
            EventKind::DataFailed { .. } => Some(&self.data_failed),
            EventKind::DataFailedOver { .. } => Some(&self.data_fallbacks),
            EventKind::DataRetried { .. } => Some(&self.data_retries),
            EventKind::ContextUpdated { .. } => Some(&self.context_ops),
            EventKind::DataRelayed { .. } => Some(&self.data_relayed),
            EventKind::DataCustody { .. } => Some(&self.data_custody),
            EventKind::DataDeduped { .. } => Some(&self.data_deduped),
            EventKind::TtlExpired { .. } => Some(&self.ttl_expired),
            _ => None,
        };
        if let Some(counter) = counter {
            counter.inc();
        }
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

impl CtxOp {
    /// The status code that reports this operation's outcome.
    fn status(self, ok: bool) -> StatusCode {
        match (self, ok) {
            (CtxOp::Add, true) => StatusCode::AddContextSuccess,
            (CtxOp::Add, false) => StatusCode::AddContextFailure,
            (CtxOp::Update, true) => StatusCode::UpdateContextSuccess,
            (CtxOp::Update, false) => StatusCode::UpdateContextFailure,
            (CtxOp::Remove, true) => StatusCode::RemoveContextSuccess,
            (CtxOp::Remove, false) => StatusCode::RemoveContextFailure,
        }
    }
}

/// One context operation on its way to a technology, carried from
/// technology to technology while it falls back. Its payload and interval
/// are read from the context's entry at each submission.
struct CtxSend {
    op: CtxOp,
    id: u64,
    /// The application's status callback; `None` for the manager's own
    /// copies (further carriers, engagement changes, beacon cadence).
    cb: Option<SharedCb>,
    /// Context technologies still to try, taken from the back.
    remaining: Vec<TechType>,
}

/// The state of one application data send to one destination, carried from
/// candidate to candidate (and, on the reliable path, from pass to pass).
struct DataSend {
    dest: OmniAddress,
    cb: Option<SharedCb>,
    /// Untried candidates remaining in the current pass.
    remaining: Vec<Candidate>,
    wire_len: u64,
    /// Encoded length of the packed struct the send carries, with a sized
    /// send's logical size as its payload: what the BLE and NFC payload
    /// bounds check, the same on every pass.
    packed_len: usize,
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

struct ContextEntry {
    params: ContextParams,
    payload: PackedStruct,
    /// Technologies whose last outcome for this context was a successful
    /// add or update. Only [`OmniManager::context_outcome`] writes it.
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
    /// Context requests awaiting their technology's outcome, by token.
    pending_ctx: HashMap<u64, CtxSend>,
    /// Data sends awaiting an outcome or a timer, by token.
    pending_data: HashMap<u64, DataSend>,
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
    /// IDs. A destination dedups relayed copies even with relaying off.
    data_seen: SeenSet,
    /// The relay layer (store-carry-forward), present while the relay
    /// policy is on.
    relay: Option<Box<Relay>>,
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
    /// Creates a manager for the device with the given unified address,
    /// configuration and pluggable technologies.
    pub fn new(own: OmniAddress, cfg: OmniConfig, techs: Vec<Box<dyn D2dTechnology>>) -> Self {
        let node = own.as_u64() as u32;
        fn mk_queue<T>(cfg: &OmniConfig, label: &'static str) -> SharedQueue<T> {
            match &cfg.obs {
                Some(obs) => SharedQueue::new().instrumented(obs, label),
                None => SharedQueue::new(),
            }
        }
        let receive = mk_queue(&cfg, "receive");
        let response = mk_queue(&cfg, "response");
        let cfg_cipher = cfg.context_key.map(|key| ContextCipher::new(key, own.as_u64()));
        let techs = techs
            .into_iter()
            .map(|tech| {
                let ty = tech.tech_type();
                let send = mk_queue(&cfg, send_queue_label(ty));
                TechSlot { ty, tech, send, addr: None }
            })
            .collect();
        let mgr_obs =
            cfg.obs.as_ref().map(|obs| MgrObs::new(obs, node, cfg.relay.strategy.label()));
        let relay = Relay::new(own, cfg.relay);
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
            pending_ctx: HashMap::new(),
            pending_data: HashMap::new(),
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
            data_seen: SeenSet::new(SEEN_CAPACITY),
            relay,
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
            let queues = TechQueues::new(
                slot.ty,
                ((i + 1) as u64) << 32,
                self.receive.clone(),
                self.response.clone(),
                slot.send.clone(),
                self.cfg.obs.as_ref(),
            );
            let (ty, addr) = slot.tech.enable(queues, api);
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
            let interval = self.cfg.adaptive_beacon.map_or(self.cfg.beacon_interval, |p| p.min);
            let params = ContextParams { interval };
            let entry = ContextEntry { params, payload: packed, carried: BTreeSet::new() };
            self.contexts.insert(ADDRESS_BEACON_CONTEXT_ID, entry);
            self.submit_to(self.engaged.clone(), CtxOp::Add, ADDRESS_BEACON_CONTEXT_ID, None);
        }
        for &tech in &self.engaged {
            self.record(api.now, EventKind::TechEngaged { tech: tech.label() });
        }
        api.set_timer(MGR_TIMER_ENGAGE, ENGAGEMENT_CHECK);
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
    pub fn handle_event(&mut self, event: &mut NodeEvent, api: &mut NodeApi<'_>) {
        match event {
            NodeEvent::Timer { token } if *token == MGR_TIMER_ENGAGE => {
                self.evaluate_engagement(api);
                api.set_timer(MGR_TIMER_ENGAGE, ENGAGEMENT_CHECK);
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

    /// Records an event and bumps the counter its kind names, when
    /// [`OmniConfig::obs`] is set.
    fn record(&self, now: SimTime, kind: EventKind) {
        if let Some(m) = &self.mgr_obs {
            m.record(now, kind);
        }
    }

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
        for cb in &mut self.timer_cbs {
            let mut ctl = crate::api::OmniCtl::at(now);
            cb(token, &mut ctl);
            self.pending_calls.extend(ctl.calls);
        }
    }

    fn fire_infra(
        &mut self,
        req: u64,
        chunk: u64,
        received: u64,
        done: bool,
        now: omni_sim::SimTime,
    ) {
        for cb in &mut self.infra_cbs {
            let mut ctl = crate::api::OmniCtl::at(now);
            cb(req, chunk, received, done, &mut ctl);
            self.pending_calls.extend(ctl.calls);
        }
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
            if is_new_peer {
                self.record(now, EventKind::PeerDiscovered { peer: item.packed.source.as_u64() });
            }
            if let Some(router) = self.relay.as_mut().and_then(|r| r.prophet.as_mut()) {
                router.sighting(item.packed.source, now);
            }
            if is_new_peer {
                // A new forwarding opportunity for everything in custody.
                self.pump_custody(api);
            }
        }
        match item.packed.kind {
            ContentKind::AddressBeacon => {
                // Authenticate/decrypt first (paper §3.4): beacons that are
                // not sealed for our group are ignored entirely.
                let Some(plain) = self.open(&item.packed.payload) else {
                    let peer = item.packed.source.as_u64();
                    self.record(now, EventKind::AuthRejected { peer });
                    return;
                };
                if let Ok(beacon) = omni_wire::AddressBeaconPayload::decode(&plain) {
                    self.record(
                        now,
                        EventKind::BeaconReceived {
                            tech: item.tech.label(),
                            peer: item.packed.source.as_u64(),
                            epoch: item.packed.trace.map_or(0, TraceId::as_u64),
                        },
                    );
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
                    let peer = item.packed.source.as_u64();
                    self.record(now, EventKind::AuthRejected { peer });
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

    /// Delivers a data frame to the application's data callbacks (the
    /// `source` is the origin, even for frames that arrived via relay hops).
    fn deliver_data(&mut self, item: &ReceivedItem, now: SimTime) {
        let src = item.packed.source;
        let payload = &item.packed.payload;
        if let Some(m) = &self.mgr_obs {
            m.delivered_by_tech[item.tech.index()].inc();
            m.record(
                now,
                EventKind::DataDelivered {
                    peer: src.as_u64(),
                    bytes: payload.len() as u64,
                    trace: item.packed.trace.map_or(0, TraceId::as_u64),
                },
            );
        }
        for cb in &mut self.data_cbs {
            let mut ctl = crate::api::OmniCtl::at(now);
            cb(src, payload, &mut ctl);
            self.pending_calls.extend(ctl.calls);
        }
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
        let for_me = header.dest == self.own;
        // Frames for other nodes need relaying on, and custody needs a trace.
        if !for_me && (self.relay.is_none() || trace == 0) {
            return;
        }
        if trace != 0 && !self.data_seen.insert(trace) {
            let peer = item.packed.source.as_u64();
            self.record(now, EventKind::DataDeduped { peer, trace });
        } else if for_me {
            self.deliver_data(&item, now);
        } else if header.ttl == 0 {
            self.expire_relayed(trace, Some(header), None, now);
        } else {
            self.take_custody(item.packed, trace, None, now);
            self.pump_custody(api);
        }
    }

    /// Inserts a frame into the custody store, accounting the take and any
    /// eviction the bound forces.
    fn take_custody(
        &mut self,
        frame: PackedStruct,
        trace: u64,
        origin: Option<Box<Origin>>,
        now: SimTime,
    ) {
        let (Some(relay), Some(header)) = (&mut self.relay, frame.relay) else { return };
        let entry = CustodyEntry { frame, taken_at: now, offered: HashMap::new(), origin };
        let evicted = relay.custody.insert(trace, entry);
        let depth = relay.custody.len() as i64;
        let (peer, ttl) = (header.dest.as_u64(), u64::from(header.ttl));
        self.record(now, EventKind::DataCustody { peer, ttl, trace });
        if let Some((old_trace, old)) = evicted {
            self.expire_relayed(old_trace, old.frame.relay, old.origin, now);
        }
        if let Some(m) = &self.mgr_obs {
            m.custody_depth.set(depth);
        }
    }

    /// A relayed frame is gone without reaching its destination: its TTL ran
    /// out, or its custody expired or was evicted. If this node originated
    /// the frame and is still waiting, this is the send's terminal failure.
    fn expire_relayed(
        &mut self,
        trace: u64,
        header: Option<RelayHeader>,
        origin: Option<Box<Origin>>,
        now: SimTime,
    ) {
        let (peer, hops) = header.map_or((0, 0), |h| (h.dest.as_u64(), u64::from(h.hops)));
        self.record(now, EventKind::TtlExpired { peer, hops, trace });
        if let Some(origin) = origin {
            let info = ResponseInfo::SendExhausted {
                description: "relay custody expired before any handoff".into(),
                destination: origin.dest,
                techs: origin.tried,
                trace,
            };
            self.fail_send(Some(origin.cb), None, info, now);
        }
    }

    /// Expires stale custody entries, then offers the remaining ones to
    /// fresh peers under the configured strategy. Deterministic: custody
    /// iterates in insertion order over *sorted* fresh peers.
    fn pump_custody(&mut self, api: &mut NodeApi<'_>) {
        let Some(relay) = self.relay.as_mut().filter(|r| !r.custody.is_empty()) else { return };
        let now = api.now;
        let expired = relay.custody.take_expired(now, relay.policy.custody_timeout);
        let depth = relay.custody.len() as i64;
        for (trace, entry) in expired {
            self.expire_relayed(trace, entry.frame.relay, entry.origin, now);
        }
        if let Some(m) = &self.mgr_obs {
            m.custody_depth.set(depth);
        }
        let fresh = self.peers.fresh_peers(now);
        let Some(relay) = &mut self.relay else { return };
        for (peer, packed) in relay.offers(&fresh, now) {
            self.submit_relay_hop(peer, packed, api);
        }
    }

    /// Enqueues one custody-hop forward to `next`. When no technology
    /// currently reaches the peer the offer is silently dropped — the offer
    /// stamp stays, and the re-offer interval retries later.
    fn submit_relay_hop(&mut self, next: OmniAddress, packed: PackedStruct, api: &mut NodeApi<'_>) {
        let (Some(trace), Some(header)) = (packed.trace, packed.relay) else { return };
        let wire_len = packed.payload.len() as u64 + (TRACE_LEN + RELAY_LEN) as u64;
        let packed_len = packed.encoded_len();
        let Some(mut cands) = self.data_candidates(next, wire_len, packed_len, api.now) else {
            return;
        };
        if cands.is_empty() {
            return;
        }
        let first = cands.remove(0);
        let send = DataSend {
            dest: next,
            cb: None,
            remaining: cands,
            wire_len,
            packed_len,
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
        let Some(router) = self.relay.as_mut().and_then(|r| r.prophet.as_mut()) else { return };
        router.transitivity(relayer, &summary);
        router.hear(relayer, summary);
        router.sighting(relayer, api.now);
        self.pump_custody(api);
    }

    fn fire_context(&mut self, src: OmniAddress, payload: &Bytes, now: omni_sim::SimTime) {
        for cb in &mut self.context_cbs {
            let mut ctl = crate::api::OmniCtl::at(now);
            cb(src, payload, &mut ctl);
            self.pending_calls.extend(ctl.calls);
        }
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
        // No address beacon means no context technology to relay on.
        let Some(beacon) = self.contexts.get(&ADDRESS_BEACON_CONTEXT_ID) else { return };
        let window = beacon.params.interval;
        if let Some(&last) = self.ctx_relay_seen.get(&key) {
            if api.now.saturating_since(last) < window {
                return;
            }
        }
        self.ctx_relay_seen.insert(key, api.now);
        if self.ctx_relay_seen.len() > 4096 {
            self.ctx_relay_seen.retain(|_, at| api.now.saturating_since(*at) < window * 4);
        }
        let mut envelope = bytes::BytesMut::with_capacity(10 + inner.len());
        envelope.put_u8(relay::CONTEXT_RELAY_TAG);
        envelope.put_u8(ttl);
        envelope.put_slice(&origin.to_bytes());
        envelope.put_slice(inner);
        self.broadcast_internal(envelope.freeze());
    }

    /// Seals a manager-internal context pack (a relay envelope or a PRoPHET
    /// summary) and sends it once on every engaged context technology.
    fn broadcast_internal(&mut self, plain: Bytes) {
        let sealed = self.seal(plain);
        let packed = PackedStruct::context(self.own, sealed);
        let engaged: Vec<TechType> = self.engaged.iter().copied().collect();
        for tech in engaged {
            let token = self.alloc_token();
            if let Some(q) = self.queue_of(tech) {
                q.push(SendRequest {
                    token,
                    op: SendOp::RelayContext,
                    packed: Some(packed.clone()),
                });
            }
        }
    }

    fn process_response(&mut self, resp: TechResponse, api: &mut NodeApi<'_>) {
        let TechResponse::Outcome { tech, token, result } = resp else {
            return; // StatusChanged comes only from `disable`, which the manager never calls
        };
        if let Some(ctx) = self.pending_ctx.remove(&token) {
            self.context_outcome(tech, ctx, result);
            return;
        }
        let Some(send) = self.pending_data.remove(&token) else {
            return; // internal (engagement-copy) request: nothing to do
        };
        if self.cfg.retry.enabled() {
            api.cancel_timer(MGR_TIMER_DATA_BASE + token);
        }
        let dest_omni = match result {
            Ok(ResponseOk::DataSent { dest_omni }) => dest_omni,
            Ok(_) => return,
            Err(failure) => {
                self.advance_data(send, Some(tech), failure.description, api);
                return;
            }
        };
        if let Some(hop) = send.relay_hop {
            // A custody hop went out: count it as a relay forward, not an
            // application-level DataSent.
            let trace = send.trace.as_u64();
            self.record(
                api.now,
                EventKind::DataRelayed {
                    tech: tech.label(),
                    peer: dest_omni.as_u64(),
                    hops: u64::from(hop.hops),
                    trace,
                },
            );
            let Some(relay) = &mut self.relay else { return };
            let origin = relay.handed_off(trace, dest_omni, hop);
            if let (Some(m), true) = (&self.mgr_obs, dest_omni == hop.dest) {
                m.custody_depth.set(relay.custody.len() as i64);
            }
            if let Some(origin) = origin {
                let info = ResponseInfo::Destination { destination: origin.dest, trace };
                self.deferred.push_back((origin.cb, StatusCode::SendDataSuccess, info));
            }
            return;
        }
        if let Some(m) = &self.mgr_obs {
            m.sent_by_tech[tech.index()].inc();
            let latency_us = api.now.as_micros().saturating_sub(send.enqueued_at.as_micros());
            m.send_latency_us[tech.index()].record(latency_us);
            m.delivery_latency.record_with_exemplar(latency_us, send.trace.as_u64());
            m.record(
                api.now,
                EventKind::DataSent {
                    tech: tech.label(),
                    bytes: send.wire_len,
                    trace: send.trace.as_u64(),
                },
            );
        }
        if let Some(cb) = send.cb {
            let info =
                ResponseInfo::Destination { destination: dest_omni, trace: send.trace.as_u64() };
            self.deferred.push_back((cb, StatusCode::SendDataSuccess, info));
        }
    }

    /// A technology answered a context request: record whether it carries
    /// the context, and on failure replay the request on the next fallback
    /// technology. A request that carries the application's
    /// callback reports once: on the first success, or after the last
    /// fallback failed.
    fn context_outcome(
        &mut self,
        tech: TechType,
        mut ctx: CtxSend,
        result: Result<ResponseOk, TechFailure>,
    ) {
        if let Some(entry) = self.contexts.get_mut(&ctx.id) {
            if result.is_ok() && ctx.op != CtxOp::Remove {
                entry.carried.insert(tech);
            } else {
                entry.carried.remove(&tech);
            }
        }
        match result {
            Ok(_) => {
                if let Some(cb) = ctx.cb {
                    let code = ctx.op.status(true);
                    self.deferred.push_back((cb, code, ResponseInfo::ContextId(ctx.id)));
                }
            }
            Err(failure) => {
                if let Some(next) = ctx.remaining.pop() {
                    self.submit_context(next, ctx);
                } else if let Some(cb) = ctx.cb {
                    self.fail_context(cb, ctx.op, failure.description, Some(ctx.id));
                }
            }
        }
    }

    /// Reports a failed context operation to the application.
    fn fail_context(
        &mut self,
        cb: SharedCb,
        op: CtxOp,
        description: impl Into<String>,
        context_id: Option<u64>,
    ) {
        let info = ResponseInfo::ContextFailure { description: description.into(), context_id };
        self.deferred.push_back((cb, op.status(false), info));
    }

    // ------------------------------------------------------------------
    // Developer API application
    // ------------------------------------------------------------------

    fn apply_call(&mut self, call: ApiCall, api: &mut NodeApi<'_>) {
        if let ApiCall::UpdateContext { id, .. } | ApiCall::RemoveContext { id, .. } = &call {
            if self.pending_ctx.values().any(|c| c.id == *id) {
                // Which technologies carry the context is known once they
                // answer the operation in flight, in the next pass.
                self.pending_calls.push(call);
                return;
            }
        }
        match call {
            ApiCall::AddContext { params, context, status } => {
                let cb: SharedCb = Rc::new(RefCell::new(status));
                if let Some(description) = reserved_tag_refusal(&context) {
                    self.fail_context(cb, CtxOp::Add, description, None);
                    return;
                }
                let id = self.next_context_id;
                self.next_context_id += 1;
                let sealed = self.seal(context);
                let payload = PackedStruct::context(self.own, sealed);
                self.contexts
                    .insert(id, ContextEntry { params, payload, carried: BTreeSet::new() });
                self.record(api.now, EventKind::ContextUpdated { id });
                let mut engaged = self.engaged.clone();
                let Some(first) = engaged.pop_first() else {
                    self.fail_context(cb, CtxOp::Add, "no context technology available", Some(id));
                    return;
                };
                // Fallback candidates: enabled context technologies not
                // already part of the submission.
                let remaining: Vec<TechType> = self
                    .context_techs()
                    .into_iter()
                    .filter(|t| !self.engaged.contains(t))
                    .rev()
                    .collect();
                self.submit_context(first, CtxSend { op: CtxOp::Add, id, cb: Some(cb), remaining });
                self.submit_to(engaged, CtxOp::Add, id, None);
            }
            ApiCall::UpdateContext { id, params, context, status } => {
                let cb: SharedCb = Rc::new(RefCell::new(status));
                if let Some(description) = reserved_tag_refusal(&context) {
                    self.fail_context(cb, CtxOp::Update, description, Some(id));
                    return;
                }
                if id == ADDRESS_BEACON_CONTEXT_ID || !self.contexts.contains_key(&id) {
                    self.fail_context(cb, CtxOp::Update, "unknown context id", Some(id));
                    return;
                }
                let sealed = self.seal(context);
                let entry = self.contexts.get_mut(&id).expect("checked");
                entry.params = params;
                entry.payload = PackedStruct::context(self.own, sealed);
                let carried = entry.carried.clone();
                self.record(api.now, EventKind::ContextUpdated { id });
                if let Some(cb) = self.submit_to(carried, CtxOp::Update, id, Some(cb)) {
                    // Carried nowhere (all technologies failed earlier).
                    let description = "context not carried by any technology";
                    self.fail_context(cb, CtxOp::Update, description, Some(id));
                }
            }
            ApiCall::RemoveContext { id, status } => {
                let cb: SharedCb = Rc::new(RefCell::new(status));
                if id == ADDRESS_BEACON_CONTEXT_ID {
                    let description = "the address beacon cannot be removed";
                    self.fail_context(cb, CtxOp::Remove, description, Some(id));
                    return;
                }
                let Some(entry) = self.contexts.remove(&id) else {
                    self.fail_context(cb, CtxOp::Remove, "unknown context id", Some(id));
                    return;
                };
                self.record(api.now, EventKind::ContextUpdated { id });
                if let Some(cb) = self.submit_to(entry.carried, CtxOp::Remove, id, Some(cb)) {
                    let code = StatusCode::RemoveContextSuccess;
                    self.deferred.push_back((cb, code, ResponseInfo::ContextId(id)));
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

    /// The technologies data may ride: this device's, narrowed by
    /// [`OmniConfig::data_techs`].
    fn data_techs(&self) -> impl Iterator<Item = TechType> + '_ {
        let allowed = |t: &TechType| self.cfg.data_techs.as_ref().is_none_or(|d| d.contains(t));
        self.techs.iter().map(|s| s.ty).filter(allowed)
    }

    /// The framing the BLE payload bound must absorb: on the reliable path,
    /// the larger acked-frame overhead.
    fn ble_frame_overhead(&self) -> usize {
        if self.cfg.retry.enabled() {
            omni_wire::frame::ACKED_OVERHEAD
        } else {
            omni_wire::frame::DIRECTED_OVERHEAD
        }
    }

    /// Enumerates the delivery candidates for `size` bytes to `dest`, or
    /// `None` when the destination has never been discovered. The payload
    /// bounds check `packed_len` plus the frame's overhead.
    fn data_candidates(
        &self,
        dest: OmniAddress,
        size: u64,
        packed_len: usize,
        now: SimTime,
    ) -> Option<Vec<Candidate>> {
        let record = self.peers.get(dest)?;
        let techs = &self.techs;
        Some(selection::candidates(
            record,
            size,
            packed_len,
            &self.data_techs().collect::<Vec<_>>(),
            now,
            self.ble_frame_overhead(),
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
        // of failing. A sized send stays single-hop: its logical size is
        // not on the wire, so a custodian could only forward the descriptor.
        let sized = total_len != data.len() as u64;
        let relay_header = self.relay.as_ref().filter(|_| !sized).map(|r| r.header(dest));
        let selection_len =
            total_len + if relay_header.is_some() { (TRACE_LEN + RELAY_LEN) as u64 } else { 0 };
        let mut packed = PackedStruct::data(self.own, data).with_trace(trace);
        if let Some(header) = relay_header {
            packed = packed.with_relay(header);
        }
        // The bounds count the logical size, not the bytes a sized send
        // actually carries.
        let packed_len = packed.encoded_len() - packed.payload.len() + total_len as usize;
        let overhead = self.ble_frame_overhead();
        let fits = |t| selection::fits(t, packed_len, overhead);
        let carriable = self.data_techs().any(fits);
        let cands = self.data_candidates(dest, selection_len, packed_len, api.now);
        // Reliable mode burns a pass with no candidate and backs off: the
        // peer may be mid-partition or mid-reboot.
        let unreachable = match &cands {
            None => Some("destination unknown: never discovered"),
            Some(c) if c.is_empty() && !self.cfg.retry.enabled() => {
                Some("no applicable technology for destination")
            }
            Some(_) => None,
        };
        // The relay layer takes an unreachable send into custody. But no
        // pass and no custody hop changes what this device's own
        // technologies can carry, so a frame none of them fits fails now.
        let failure = if carriable {
            unreachable.filter(|_| relay_header.is_none())
        } else {
            Some("no applicable technology for destination")
        };
        if let Some(description) = failure {
            let info = ResponseInfo::SendFailure {
                description: description.into(),
                destination: dest,
                trace: trace.as_u64(),
            };
            self.fail_send(Some(cb), None, info, api.now);
            return;
        }
        let mut send = DataSend {
            dest,
            cb: Some(cb),
            remaining: Vec::new(),
            wire_len: total_len,
            packed_len,
            packed: Some(packed),
            attempt: 1,
            tried: Vec::new(),
            current: None,
            trace,
            enqueued_at: api.now,
            relay_hop: None,
        };
        match cands {
            Some(mut cands) if !cands.is_empty() => {
                let first = cands.remove(0);
                send.remaining = cands;
                self.submit_data(send, first, api);
            }
            // Accepted with no carrier, so the send's timeline still opens
            // with an enqueue.
            _ => {
                self.note_enqueued(&send, None, api.now);
                if unreachable.is_some() {
                    // The relay layer takes the send into custody.
                    self.relay_rescue(&mut send, api);
                } else {
                    let description = "no applicable technology for destination".into();
                    self.advance_data(send, None, description, api);
                }
            }
        }
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

    /// Queues a context operation on `tech`, with the payload and interval
    /// the context's entry holds now; its outcome comes back through
    /// [`Self::context_outcome`].
    fn submit_context(&mut self, tech: TechType, ctx: CtxSend) {
        let (token, context_id) = (self.alloc_token(), ctx.id);
        // A remove carries neither, and `RemoveContext` drops its entry first.
        let entry = (ctx.op != CtxOp::Remove).then(|| {
            self.contexts.get(&context_id).expect("an add or update names a live context")
        });
        let interval = entry.map(|e| e.params.interval).unwrap_or_default();
        let op = match ctx.op {
            CtxOp::Add => SendOp::AddContext { context_id, interval },
            CtxOp::Update => SendOp::UpdateContext { context_id, interval },
            CtxOp::Remove => SendOp::RemoveContext { context_id },
        };
        let packed = entry.map(|e| e.payload.clone());
        self.pending_ctx.insert(token, ctx);
        if let Some(q) = self.queue_of(tech) {
            q.push(SendRequest { token, op, packed });
        }
    }

    /// Submits `op` on context `id` to each of `techs` in [`TechType`] order;
    /// the first request carries `cb`. Returns `cb` when `techs` is empty.
    fn submit_to(
        &mut self,
        techs: BTreeSet<TechType>,
        op: CtxOp,
        id: u64,
        mut cb: Option<SharedCb>,
    ) -> Option<SharedCb> {
        for tech in techs {
            self.submit_context(tech, CtxSend { op, id, cb: cb.take(), remaining: Vec::new() });
        }
        cb
    }

    /// Records that a send was accepted, on `tech` or (`None`) with no
    /// carrier yet.
    fn note_enqueued(&self, send: &DataSend, tech: Option<TechType>, now: SimTime) {
        self.record(
            now,
            EventKind::DataEnqueued {
                tech: tech.map_or("none", TechType::label),
                bytes: send.wire_len,
                trace: send.trace.as_u64(),
            },
        );
    }

    /// Hands a send to a technology, arming the ack-deadline timer when the
    /// reliable path is active.
    fn submit_data(&mut self, mut send: DataSend, candidate: Candidate, api: &mut NodeApi<'_>) {
        self.note_enqueued(&send, Some(candidate.tech), api.now);
        let token = self.alloc_token();
        let op = SendOp::SendData {
            dest: candidate.dest,
            dest_omni: send.dest,
            wire_len: send.wire_len,
            establish: candidate.establish,
        };
        let packed = send.packed.clone();
        if self.cfg.retry.enabled() {
            api.set_timer(MGR_TIMER_DATA_BASE + token, candidate.expected + ACK_DEADLINE);
        }
        send.current = Some(candidate.tech);
        if !send.tried.contains(&candidate.tech) {
            send.tried.push(candidate.tech);
        }
        self.pending_data.insert(token, send);
        if let Some(q) = self.queue_of(candidate.tech) {
            q.push(SendRequest { token, op, packed });
        }
    }

    /// Advances a send after a failed try: fail over to the next candidate
    /// in this pass, back off into another pass, or report the terminal
    /// failure. With one attempt (fire-and-forget) this is the paper's
    /// single pass, which ends in [`ResponseInfo::SendFailure`]; the
    /// reliable path ends in [`ResponseInfo::SendExhausted`], naming every
    /// technology it tried.
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
            self.record(
                api.now,
                EventKind::DataFailedOver {
                    from_tech: failed.map_or("none", TechType::label),
                    to_tech: next.tech.label(),
                    trace: send.trace.as_u64(),
                },
            );
            self.submit_data(send, next, api);
            return;
        }
        if send.attempt < policy.max_attempts {
            send.attempt += 1;
            send.current = None;
            let delay = policy.backoff_delay(send.attempt);
            if let Some(m) = &self.mgr_obs {
                m.retry_count.record(send.attempt as u64);
                m.backoff_us.record(delay.as_micros());
                m.record(
                    api.now,
                    EventKind::DataRetried {
                        tech: failed.map_or("none", TechType::label),
                        attempt: send.attempt as u64,
                        trace: send.trace.as_u64(),
                    },
                );
            }
            let token = self.alloc_token();
            self.pending_data.insert(token, send);
            api.set_timer(MGR_TIMER_DATA_BASE + token, delay);
            return;
        }
        if self.relay_rescue(&mut send, api) {
            return;
        }
        let (destination, trace) = (send.dest, send.trace.as_u64());
        let info = if policy.enabled() {
            ResponseInfo::SendExhausted { description, destination, techs: send.tried, trace }
        } else {
            // "Only at this point is the status_callback provided by the
            // application employed" (paper §3.3).
            ResponseInfo::SendFailure { description, destination, trace }
        };
        self.fail_send(send.cb, failed, info, api.now);
    }

    /// Reports a send's terminal failure: counts it, records `DataFailed`
    /// (and `SendExhausted` when the info is that), then queues the
    /// application's callback.
    fn fail_send(
        &mut self,
        cb: Option<SharedCb>,
        tech: Option<TechType>,
        info: ResponseInfo,
        now: SimTime,
    ) {
        let trace = info.trace().unwrap_or(0);
        self.record(
            now,
            EventKind::DataFailed { tech: tech.map_or("none", TechType::label), trace },
        );
        if let ResponseInfo::SendExhausted { destination, .. } = &info {
            self.record(now, EventKind::SendExhausted { peer: destination.as_u64(), trace });
        }
        if let Some(cb) = cb {
            self.deferred.push_back((cb, StatusCode::SendDataFailure, info));
        }
    }

    /// Relay-aware failure absorption (DESIGN.md §5h). A custody-hop send
    /// that fails is never terminal: the custody entry persists and the
    /// re-offer interval retries the frame later, so the failure is dropped
    /// silently. An *origin* send that fails, or that finds its destination
    /// unreachable, with the relay layer on converts into local custody —
    /// the application's single terminal status stays deferred until a
    /// handoff succeeds or custody expires.
    /// Returns `true` when the failure was absorbed.
    fn relay_rescue(&mut self, send: &mut DataSend, api: &mut NodeApi<'_>) -> bool {
        if send.relay_hop.is_some() {
            return true; // the frame stays in custody
        }
        // Only a frame stamped with a relay header can wait in custody.
        let Some(packed) = send.packed.take_if(|p| p.relay.is_some()) else { return false };
        let Some(cb) = send.cb.take() else { return false };
        let trace = send.trace.as_u64();
        self.data_seen.insert(trace);
        let origin = Origin { cb, dest: send.dest, tried: send.tried.clone() };
        self.take_custody(packed, trace, Some(Box::new(origin)), api.now);
        self.pump_custody(api);
        true
    }

    /// A reliable-data timer fired: either the ack deadline of an in-flight
    /// try (the technology went silent — treat the try as lost) or a backoff
    /// wait ending (re-enumerate candidates for a fresh pass).
    fn data_timer_fired(&mut self, token: u64, api: &mut NodeApi<'_>) {
        let Some(mut send) = self.pending_data.remove(&token) else {
            return; // already concluded; stale timer
        };
        match send.current {
            Some(tech) => {
                self.advance_data(send, Some(tech), format!("ack deadline expired on {tech}"), api);
            }
            None => {
                match self.data_candidates(send.dest, send.wire_len, send.packed_len, api.now) {
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
                }
            }
        }
    }

    /// Fails every outstanding reliable send to a peer whose record just
    /// expired: in-flight and backed-off tries are cancelled, and the one
    /// terminal status each send is owed is delivered now. Late technology
    /// outcomes for the cancelled tokens are ignored by `process_response`.
    fn cancel_sends_to(&mut self, peer: OmniAddress, api: &mut NodeApi<'_>) {
        let mut tokens: Vec<u64> =
            self.pending_data.iter().filter(|(_, s)| s.dest == peer).map(|(t, _)| *t).collect();
        tokens.sort_unstable();
        for token in tokens {
            let Some(mut send) = self.pending_data.remove(&token) else { continue };
            api.cancel_timer(MGR_TIMER_DATA_BASE + token);
            if self.relay_rescue(&mut send, api) {
                continue;
            }
            let info = ResponseInfo::SendExhausted {
                description: "peer expired; retries cancelled".into(),
                destination: peer,
                techs: send.tried,
                trace: send.trace.as_u64(),
            };
            self.fail_send(send.cb, send.current, info, api.now);
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
        let Some(policy) = self.cfg.adaptive_beacon else { return };
        let changed = self.fresh_prev.difference(prev).next().is_some();
        let Some(beacon) = self.contexts.get_mut(&ADDRESS_BEACON_CONTEXT_ID) else { return };
        let current = beacon.params.interval;
        let target = if changed { policy.min } else { (current * 2).min(policy.max) };
        if target == current {
            return;
        }
        beacon.params.interval = target;
        let carried = beacon.carried.clone();
        let (from_us, to_us) = (current.as_micros(), target.as_micros());
        self.record(api.now, EventKind::BeaconIntervalChanged { from_us, to_us });
        self.submit_to(carried, CtxOp::Update, ADDRESS_BEACON_CONTEXT_ID, None);
    }

    /// Per-engagement-tick relay maintenance: PRoPHET aging and a summary
    /// broadcast (a manager-internal context pack, tag `0xE8`, on every
    /// engaged context technology), custody expiry, and a re-offer pass over
    /// custody.
    fn relay_tick(&mut self, api: &mut NodeApi<'_>) {
        let Some(layer) = &mut self.relay else { return };
        if let Some(router) = &mut layer.prophet {
            router.age_to(api.now);
            // 5 entries is the most that fits a 64-byte BLE advertisement
            // once the context header (9 B) and summary framing (2 B) are
            // paid.
            let summary = router.table.summary(5);
            if !summary.is_empty() {
                let plain = relay::encode_summary(relay::PROPHET_SUMMARY_TAG, &summary);
                self.broadcast_internal(plain);
            }
        }
        self.pump_custody(api);
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
        let fresh: BTreeSet<OmniAddress> = self.peers.fresh_peers(api.now).into_iter().collect();
        let prev = std::mem::replace(&mut self.fresh_prev, fresh);
        self.adapt_beacon_interval(&prev, api);
        let gone: Vec<OmniAddress> = prev.difference(&self.fresh_prev).copied().collect();
        for peer in &gone {
            self.record(api.now, EventKind::PeerExpired { peer: peer.as_u64() });
        }
        if retry {
            for peer in gone {
                self.cancel_sends_to(peer, api);
            }
        }
    }

    fn evaluate_engagement(&mut self, api: &mut NodeApi<'_>) {
        self.track_fresh_peers(api);
        self.relay_tick(api);
        if self.cfg.advertise_on_all_techs {
            return; // SA paradigm: everything is always engaged
        }
        let ctx_techs = self.context_techs();
        let now = api.now;
        for (i, &t) in ctx_techs.iter().enumerate() {
            if Some(t) == self.primary {
                continue;
            }
            let cheaper = &ctx_techs[..i];
            let needed = self.peers.tech_needed(t, cheaper, now);
            if needed != self.engaged.contains(&t) {
                self.set_engaged(t, needed, now);
            }
        }
    }

    /// Engages `tech` (`on`) and adds every context it does not carry, or
    /// disengages it and removes every context it carries.
    fn set_engaged(&mut self, tech: TechType, on: bool, now: SimTime) {
        let (op, kind) = if on {
            self.engaged.insert(tech);
            (CtxOp::Add, EventKind::TechEngaged { tech: tech.label() })
        } else {
            self.engaged.remove(&tech);
            (CtxOp::Remove, EventKind::TechDisengaged { tech: tech.label() })
        };
        self.record(now, kind);
        let mut ids: Vec<u64> = self
            .contexts
            .iter()
            .filter(|(_, e)| e.carried.contains(&tech) != on)
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            self.submit_context(tech, CtxSend { op, id, cb: None, remaining: Vec::new() });
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use omni_sim::{Command, DeviceId};
    use omni_wire::frame::{ACKED_TAG, DATA_TAG};

    use super::*;
    use crate::config::RetryPolicy;
    use crate::relay::RelayPolicy;
    use crate::techs::BleBeaconTech;

    /// A technology that counts `poll` calls and records every request it
    /// drains. It answers none of them, except that with `fail_data` it
    /// fails every data send.
    struct CountingTech {
        ty: TechType,
        addr: LowAddr,
        queues: Option<TechQueues>,
        polls: Rc<Cell<usize>>,
        drained: Rc<RefCell<Vec<(TechType, SendOp)>>>,
        fail_data: bool,
    }

    impl D2dTechnology for CountingTech {
        fn enable(&mut self, queues: TechQueues, _api: &mut NodeApi<'_>) -> (TechType, LowAddr) {
            self.queues = Some(queues);
            (self.ty, self.addr)
        }

        fn disable(&mut self, _api: &mut NodeApi<'_>) {}

        fn tech_type(&self) -> TechType {
            self.ty
        }

        fn poll(&mut self, _api: &mut NodeApi<'_>) {
            self.polls.set(self.polls.get() + 1);
            let Some(queues) = self.queues.as_ref() else { return };
            while let Some(req) = queues.send.pop() {
                self.drained.borrow_mut().push((self.ty, req.op.clone()));
                if self.fail_data && matches!(req.op, SendOp::SendData { .. }) {
                    queues.fail(format!("{} refused", self.ty), req);
                }
            }
        }

        fn on_node_event(&mut self, _event: &mut NodeEvent, _api: &mut NodeApi<'_>) -> bool {
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
                    fail_data: false,
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

    /// The manager's data events, with the technologies they name.
    fn data_events(obs: &Obs) -> Vec<String> {
        obs.events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::DataEnqueued { tech, .. } => Some(format!("DataEnqueued({tech})")),
                EventKind::DataFailedOver { from_tech, to_tech, .. } => {
                    Some(format!("DataFailedOver({from_tech}->{to_tech})"))
                }
                EventKind::DataRetried { tech, attempt, .. } => {
                    Some(format!("DataRetried({tech}, {attempt})"))
                }
                EventKind::DataFailed { tech, .. } => Some(format!("DataFailed({tech})")),
                EventKind::SendExhausted { .. } => Some("SendExhausted".into()),
                _ => None,
            })
            .collect()
    }

    /// Sends one datagram to a peer that TCP and BLE both reach, on
    /// technologies that fail every data send. Fires the backoff timer, if
    /// the failed pass armed one, once the backoff has passed.
    fn failing_send(retry: RetryPolicy) -> (Vec<String>, Vec<(StatusCode, ResponseInfo)>) {
        let techs: Vec<Box<dyn D2dTechnology>> = [
            (TechType::BleBeacon, LowAddr::Ble(BleAddress([2, 0, 0, 0, 0, 1]))),
            (TechType::WifiTcp, LowAddr::Mesh(MeshAddress::from_u64(1))),
        ]
        .into_iter()
        .map(|(ty, addr)| {
            Box::new(CountingTech {
                ty,
                addr,
                queues: None,
                polls: Rc::default(),
                drained: Rc::default(),
                fail_data: true,
            }) as Box<dyn D2dTechnology>
        })
        .collect();
        let obs = Obs::new();
        let cfg = OmniConfig { retry, obs: Some(obs.clone()), ..OmniConfig::default() };
        let mut mgr = OmniManager::new(OmniAddress::from_u64(1), cfg, techs);
        let statuses = Rc::new(RefCell::new(Vec::new()));
        let mut cmds = Vec::new();
        let mut api = NodeApi::detached(DeviceId(0), SimTime::ZERO, &mut cmds);
        mgr.start(&mut api);
        mgr.receive.push(peer_beacon());
        let mut ctl = crate::api::OmniCtl::new();
        let s = statuses.clone();
        ctl.send_data(
            vec![PEER],
            Bytes::from_static(b"hi"),
            Box::new(move |code, info, _| s.borrow_mut().push((code, info.clone()))),
        );
        mgr.queue_calls(ctl);
        mgr.pump(&mut api);
        let backoff = cmds.iter().rev().find_map(|(_, cmd)| match *cmd {
            Command::SetTimer { token, delay }
                if (MGR_TIMER_DATA_BASE..APP_TIMER_BASE).contains(&token) =>
            {
                Some((token, delay))
            }
            _ => None,
        });
        if let Some((token, delay)) = backoff {
            let now = SimTime::ZERO + delay;
            let mut api = NodeApi::detached(DeviceId(0), now, &mut cmds);
            mgr.handle_event(&mut NodeEvent::Timer { token }, &mut api);
        }
        let statuses = statuses.borrow().clone();
        (data_events(&obs), statuses)
    }

    #[test]
    fn a_failed_try_fails_over_and_the_policy_picks_the_terminal_info() {
        let pass = [
            "DataEnqueued(wifi-tcp)",
            "DataFailedOver(wifi-tcp->ble-beacon)",
            "DataEnqueued(ble-beacon)",
        ];

        // Fire-and-forget: one pass, then `SendFailure` with the last
        // technology's description.
        let (events, statuses) = failing_send(RetryPolicy::off());
        assert_eq!(events, [&pass[..], &["DataFailed(ble-beacon)"]].concat());
        let [(
            StatusCode::SendDataFailure,
            ResponseInfo::SendFailure { description, destination, .. },
        )] = &statuses[..]
        else {
            panic!("expected one SendFailure, got {statuses:?}");
        };
        assert_eq!((description.as_str(), *destination), ("ble-beacon refused", PEER));

        // Two attempts: the same pass twice around one backoff, then
        // `SendExhausted` naming both technologies.
        let retry = RetryPolicy { max_attempts: 2 };
        let (events, statuses) = failing_send(retry);
        let retried = ["DataRetried(ble-beacon, 2)"];
        let last = ["DataFailed(ble-beacon)", "SendExhausted"];
        assert_eq!(events, [&pass[..], &retried, &pass, &last].concat());
        let [(StatusCode::SendDataFailure, ResponseInfo::SendExhausted { description, techs, .. })] =
            &statuses[..]
        else {
            panic!("expected one SendExhausted, got {statuses:?}");
        };
        assert_eq!(description, "ble-beacon refused");
        assert_eq!(techs, &[TechType::WifiTcp, TechType::BleBeacon]);
    }

    /// What one candidate pass did with BLE: whether the manager offered it,
    /// and the length of the data frame BLE then put on the air.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct BlePass {
        offered: bool,
        frame: Option<usize>,
    }

    /// Sends `len` bytes to a peer from a manager whose only technology is
    /// BLE. Returns the first candidate pass and, with retries on, the pass
    /// after the first backoff; the timers in between fire oldest first. A
    /// send that fails at once has no later pass, which reads as a pass that
    /// did not offer BLE.
    fn ble_passes(len: usize, retry: RetryPolicy, relay: RelayPolicy) -> Vec<BlePass> {
        let own = OmniAddress::from_u64(1);
        let ble =
            BleBeaconTech::new(own, BleAddress([2, 0, 0, 0, 0, 1])).with_link_acks(retry.enabled());
        let obs = Obs::new();
        let cfg = OmniConfig { retry, relay, obs: Some(obs.clone()), ..OmniConfig::default() };
        let mut mgr = OmniManager::new(own, cfg, vec![Box::new(ble)]);
        let mut cmds = Vec::new();
        let mut now = SimTime::ZERO;
        mgr.start(&mut NodeApi::detached(DeviceId(0), now, &mut cmds));
        mgr.receive.push(peer_beacon());
        let mut ctl = crate::api::OmniCtl::new();
        ctl.send_data(vec![PEER], Bytes::from(vec![0; len]), Box::new(|_, _, _| {}));
        mgr.queue_calls(ctl);

        // The pass that ran since the event and command marks.
        let pass = |obs: &Obs, cmds: &[(DeviceId, Command)], marks: (usize, usize)| BlePass {
            offered: obs.events()[marks.0..]
                .iter()
                .any(|e| matches!(e.kind, EventKind::DataEnqueued { tech: "ble-beacon", .. })),
            frame: cmds[marks.1..].iter().find_map(|(_, cmd)| match cmd {
                Command::BleSendOneShot { payload }
                    if matches!(payload.first(), Some(&DATA_TAG | &ACKED_TAG)) =>
                {
                    Some(payload.len())
                }
                _ => None,
            }),
        };
        let retried = |obs: &Obs| {
            obs.events().iter().filter(|e| matches!(e.kind, EventKind::DataRetried { .. })).count()
        };
        let mut marks = (obs.events().len(), cmds.len());
        mgr.pump(&mut NodeApi::detached(DeviceId(0), now, &mut cmds));
        let mut passes = vec![pass(&obs, &cmds, marks)];
        let mut fired = Vec::new();
        while retry.enabled() {
            let backoff = retried(&obs) == 1;
            let cancelled: Vec<u64> = cmds
                .iter()
                .filter_map(|(_, c)| match *c {
                    Command::CancelTimer { token } => Some(token),
                    _ => None,
                })
                .collect();
            let armed = cmds.iter().find_map(|(_, c)| match *c {
                Command::SetTimer { token, delay }
                    if (MGR_TIMER_DATA_BASE..APP_TIMER_BASE).contains(&token)
                        && !cancelled.contains(&token)
                        && !fired.contains(&token) =>
                {
                    Some((token, delay))
                }
                _ => None,
            });
            let Some((token, delay)) = armed else {
                // A send no technology can carry fails at once and arms no
                // timer: there is no later pass to offer BLE.
                passes.push(BlePass { offered: false, frame: None });
                break;
            };
            fired.push(token);
            now += delay;
            marks = (obs.events().len(), cmds.len());
            mgr.handle_event(
                &mut NodeEvent::Timer { token },
                &mut NodeApi::detached(DeviceId(0), now, &mut cmds),
            );
            if backoff {
                passes.push(pass(&obs, &cmds, marks));
                break;
            }
        }
        passes
    }

    #[test]
    fn ble_is_offered_exactly_when_the_frame_fits() {
        let max = omni_sim::BLE_MAX_PAYLOAD;
        for retry in [RetryPolicy::off(), RetryPolicy::reliable()] {
            for relay in [RelayPolicy::off(), RelayPolicy::epidemic()] {
                let runs: Vec<Vec<BlePass>> =
                    (1..=max).map(|len| ble_passes(len, retry, relay)).collect();
                for k in 0..runs[0].len() {
                    let case = format!(
                        "retry {}, relay {}, pass {}",
                        retry.max_attempts,
                        relay.strategy.label(),
                        k + 1
                    );
                    let offered: Vec<bool> = runs.iter().map(|r| r[k].offered).collect();
                    for (i, run) in runs.iter().enumerate() {
                        assert_eq!(
                            run[k].offered,
                            run[k].frame.is_some(),
                            "{case}, {} B: BLE offered {} but put {:?} on the air",
                            i + 1,
                            run[k].offered,
                            run[k].frame
                        );
                    }
                    // Offered up to a length, then never: and at that length
                    // the frame fills BLE's payload exactly, so one more byte
                    // would not fit.
                    let last = offered.iter().rposition(|&o| o).expect("small sends fit");
                    assert!(offered[..=last].iter().all(|&o| o), "{case}: {offered:?}");
                    assert_eq!(runs[last][k].frame, Some(max), "{case}: largest offered frame");
                }
            }
        }
    }
}
