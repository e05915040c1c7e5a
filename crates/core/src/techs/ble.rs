//! BLE beacon technology: periodic context via advertising slots, one-shot
//! data via advertisement bursts, and built-in neighbor discovery through
//! continuous scanning.
//!
//! This is the paper's flagship low-energy context technology (§3.2,
//! *Technologies for Distributing Context*). Data support is limited to
//! payloads that fit a single advertisement ("BLE packets cannot carry the
//! larger data file", §4.2).

use std::collections::{HashMap, VecDeque};

use bytes::{Bytes, BytesMut};
use omni_sim::{Command, NodeApi, NodeEvent};
use omni_wire::{BleAddress, OmniAddress, TechType};

use crate::queues::{
    LowAddr, ReceivedItem, ResponseOk, SendOp, SendRequest, TechFailure, TechQueues, TechResponse,
};
use crate::tech::D2dTechnology;
use crate::techs::{frame, pooled};

/// What a pending one-shot transmission is waiting for.
#[derive(Debug)]
enum OneShot {
    /// Fire-and-forget broadcast (relay, ack reply); no response is owed.
    Forget,
    /// Plain data send, reported `DataSent` optimistically when the burst
    /// completes (transmit-complete, not delivery).
    Optimistic(SendRequest),
    /// Acked data send: the burst completing means nothing — the response is
    /// produced when (and if) the addressee's link-layer ack arrives.
    Acked,
}

/// The BLE beacon technology.
#[derive(Debug)]
pub struct BleBeaconTech {
    own_omni: OmniAddress,
    own_addr: BleAddress,
    max_payload: usize,
    scan_duty: f64,
    /// Reliable mode: directed data frames request a link-layer ack and
    /// `DataSent` reports genuine delivery instead of transmit-complete.
    link_acks: bool,
    queues: Option<TechQueues>,
    /// context_id → advertising slot.
    slots: HashMap<u64, u32>,
    next_slot: u32,
    /// One-shot sends awaiting `BleOneShotSent`, oldest first.
    inflight: VecDeque<OneShot>,
    /// Acked data sends awaiting the addressee's ack, keyed by the
    /// correlation token (= the request token).
    awaiting: HashMap<u64, SendRequest>,
    enabled: bool,
    /// `tech.ble-beacon.failures` counter, when observability is attached.
    failures: Option<omni_obs::Counter>,
    /// Reusable encode scratch: frames are written here first, so a
    /// steady-state send pays one shared-buffer allocation for the outgoing
    /// frame instead of one per framing layer (DESIGN.md §5i).
    scratch: BytesMut,
}

impl BleBeaconTech {
    /// Creates the technology for a device with the given identity and
    /// advertisement payload limit. `scan_duty` is the neighbor-discovery
    /// scanning duty cycle (Omni uses 1.0: continuous, integrated discovery).
    pub fn new(
        own_omni: OmniAddress,
        own_addr: BleAddress,
        max_payload: usize,
        scan_duty: f64,
    ) -> Self {
        BleBeaconTech {
            own_omni,
            own_addr,
            max_payload,
            scan_duty,
            link_acks: false,
            queues: None,
            slots: HashMap::new(),
            next_slot: 0,
            inflight: VecDeque::new(),
            awaiting: HashMap::new(),
            enabled: false,
            failures: None,
            scratch: BytesMut::new(),
        }
    }

    /// Switches directed data sends to acked frames (the reliable data
    /// path). Receiving acked frames and answering them works regardless of
    /// this flag — it only changes what this device's own sends report.
    pub fn with_link_acks(mut self, on: bool) -> Self {
        self.link_acks = on;
        self
    }

    fn respond(&self, resp: TechResponse) {
        self.queues.as_ref().expect("enabled").response.push(resp);
    }

    fn fail(&self, token: u64, description: impl Into<String>, original: SendRequest) {
        if let Some(c) = &self.failures {
            c.inc();
        }
        self.respond(TechResponse::Outcome {
            tech: TechType::BleBeacon,
            token,
            result: Err(TechFailure { description: description.into(), original }),
        });
    }

    fn ok(&self, token: u64, ok: ResponseOk) {
        self.respond(TechResponse::Outcome { tech: TechType::BleBeacon, token, result: Ok(ok) });
    }

    fn handle_request(&mut self, req: SendRequest, api: &mut NodeApi<'_>) {
        match req.op.clone() {
            SendOp::AddContext { context_id, interval }
            | SendOp::UpdateContext { context_id, interval } => {
                let is_update = matches!(req.op, SendOp::UpdateContext { .. });
                let Some(packed) = req.packed.clone() else {
                    self.fail(req.token, "context request without payload", req);
                    return;
                };
                let encoded = pooled(&mut self.scratch, |buf| packed.encode_into(buf));
                if encoded.len() > self.max_payload {
                    self.fail(
                        req.token,
                        format!("payload {} exceeds BLE limit {}", encoded.len(), self.max_payload),
                        req,
                    );
                    return;
                }
                let slot = *self.slots.entry(context_id).or_insert_with(|| {
                    self.next_slot += 1;
                    self.next_slot
                });
                api.push(Command::BleAdvertiseSet { slot, payload: encoded, interval });
                let ok = if is_update {
                    ResponseOk::ContextUpdated { context_id }
                } else {
                    ResponseOk::ContextAdded { context_id }
                };
                self.ok(req.token, ok);
            }
            SendOp::RelayContext => {
                if let Some(packed) = req.packed {
                    let encoded = pooled(&mut self.scratch, |buf| packed.encode_into(buf));
                    if encoded.len() <= self.max_payload {
                        api.push(Command::BleSendOneShot { payload: encoded });
                        self.inflight.push_back(OneShot::Forget);
                    }
                }
            }
            SendOp::RemoveContext { context_id } => match self.slots.remove(&context_id) {
                Some(slot) => {
                    api.push(Command::BleAdvertiseStop { slot });
                    self.ok(req.token, ResponseOk::ContextRemoved { context_id });
                }
                None => {
                    self.fail(req.token, format!("unknown context {context_id}"), req);
                }
            },
            SendOp::SendData { dest, dest_omni, .. } => {
                let LowAddr::Ble(_) = dest else {
                    self.fail(req.token, "destination has no BLE address", req);
                    return;
                };
                let Some(packed) = req.packed.clone() else {
                    self.fail(req.token, "data request without payload", req);
                    return;
                };
                let link_acks = self.link_acks;
                let framed = pooled(&mut self.scratch, |buf| {
                    if link_acks {
                        frame::encode_acked_into(dest_omni, req.token, &packed, buf);
                    } else {
                        frame::encode_directed_into(dest_omni, &packed, buf);
                    }
                });
                if framed.len() > self.max_payload {
                    self.fail(
                        req.token,
                        format!("payload {} exceeds BLE limit {}", framed.len(), self.max_payload),
                        req,
                    );
                    return;
                }
                api.push(Command::BleSendOneShot { payload: framed });
                if self.link_acks {
                    self.inflight.push_back(OneShot::Acked);
                    self.awaiting.insert(req.token, req);
                } else {
                    self.inflight.push_back(OneShot::Optimistic(req));
                }
            }
        }
    }

    fn on_frame(&mut self, from: BleAddress, payload: &Bytes, api: &mut NodeApi<'_>) {
        let Some(queues) = self.queues.as_ref() else {
            return;
        };
        match frame::parse_for_shared(self.own_omni, payload) {
            frame::Incoming::Plain(packed) => {
                queues.receive.push(ReceivedItem {
                    tech: TechType::BleBeacon,
                    source: LowAddr::Ble(from),
                    packed,
                });
            }
            frame::Incoming::Acked { corr, packed } => {
                // Deliver, then acknowledge back to the sender. The ack is a
                // fire-and-forget one-shot; losing it costs the sender a
                // retry, nothing more. Answering is unconditional so plain
                // receivers still satisfy reliable senders.
                let sender = packed.source;
                let trace = packed.trace;
                queues.receive.push(ReceivedItem {
                    tech: TechType::BleBeacon,
                    source: LowAddr::Ble(from),
                    packed,
                });
                api.push(Command::BleSendOneShot {
                    payload: pooled(&mut self.scratch, |buf| {
                        frame::encode_ack_into(sender, corr, trace, buf);
                    }),
                });
                self.inflight.push_back(OneShot::Forget);
            }
            frame::Incoming::Ack { corr, .. } => {
                // Late acks for attempts the manager already abandoned hit
                // no entry and are ignored.
                if let Some(req) = self.awaiting.remove(&corr) {
                    if let SendOp::SendData { dest_omni, .. } = req.op {
                        self.ok(req.token, ResponseOk::DataSent { dest_omni });
                    }
                }
            }
            frame::Incoming::NotForUs => {}
        }
    }
}

impl D2dTechnology for BleBeaconTech {
    fn attach_obs(&mut self, obs: &omni_obs::Obs) {
        self.failures = Some(obs.counter("tech.ble-beacon.failures"));
    }

    fn enable(
        &mut self,
        queues: TechQueues,
        _token_base: u64,
        api: &mut NodeApi<'_>,
    ) -> (TechType, LowAddr) {
        self.queues = Some(queues);
        self.enabled = true;
        // Integrated neighbor discovery: scan continuously (or at the
        // configured duty cycle).
        api.push(Command::BleSetScan { duty: Some(self.scan_duty) });
        (TechType::BleBeacon, LowAddr::Ble(self.own_addr))
    }

    fn disable(&mut self, api: &mut NodeApi<'_>) {
        self.enabled = false;
        // Gracefully fail anything still queued (paper §3.2: process
        // remaining requests and push the requisite responses).
        if let Some(queues) = self.queues.clone() {
            for req in queues.send.drain() {
                self.fail(req.token, "technology disabled", req);
            }
            while let Some(entry) = self.inflight.pop_front() {
                if let OneShot::Optimistic(req) = entry {
                    self.fail(req.token, "technology disabled", req);
                }
            }
            let waiting: Vec<u64> = self.awaiting.keys().copied().collect();
            for corr in waiting {
                if let Some(req) = self.awaiting.remove(&corr) {
                    self.fail(req.token, "technology disabled", req);
                }
            }
            self.respond(TechResponse::StatusChanged {
                tech: TechType::BleBeacon,
                available: false,
            });
        }
        for (_, slot) in self.slots.drain() {
            api.push(Command::BleAdvertiseStop { slot });
        }
        api.push(Command::BleSetScan { duty: None });
    }

    fn tech_type(&self) -> TechType {
        TechType::BleBeacon
    }

    fn poll(&mut self, api: &mut NodeApi<'_>) {
        if !self.enabled {
            return;
        }
        while let Some(req) = self.queues.as_ref().and_then(|q| q.send.pop()) {
            self.handle_request(req, api);
        }
    }

    fn on_node_event(&mut self, event: &NodeEvent, api: &mut NodeApi<'_>) -> bool {
        if !self.enabled {
            return false;
        }
        match event {
            NodeEvent::BleBeacon { from, payload } | NodeEvent::BleOneShot { from, payload } => {
                self.on_frame(*from, payload, api);
                true
            }
            NodeEvent::BleOneShotSent => {
                if let Some(OneShot::Optimistic(req)) = self.inflight.pop_front() {
                    if let SendOp::SendData { dest_omni, .. } = req.op {
                        self.ok(req.token, ResponseOk::DataSent { dest_omni });
                    }
                }
                true
            }
            _ => false,
        }
    }
}

/// Interval guard: BLE advertising slots are per-context; re-adding the same
/// context reuses its slot (exercised in tests).
#[cfg(test)]
mod tests {
    use super::*;
    use omni_sim::{DeviceId, SimDuration, SimTime};
    use omni_wire::PackedStruct;

    fn api_harness() -> (Vec<(DeviceId, Command)>,) {
        (Vec::new(),)
    }

    fn mk() -> (BleBeaconTech, TechQueues) {
        let tech =
            BleBeaconTech::new(OmniAddress::from_u64(1), BleAddress([2, 0, 0, 0, 0, 1]), 64, 1.0);
        let queues = TechQueues {
            receive: crate::queues::SharedQueue::new(),
            response: crate::queues::SharedQueue::new(),
            send: crate::queues::SharedQueue::new(),
        };
        (tech, queues)
    }

    fn with_api<R>(
        cmds: &mut Vec<(DeviceId, Command)>,
        f: impl FnOnce(&mut NodeApi<'_>) -> R,
    ) -> R {
        let mut api = NodeApi::detached(DeviceId(0), SimTime::ZERO, cmds);
        f(&mut api)
    }

    #[test]
    fn enable_starts_scanning_and_reports_identity() {
        let (mut tech, queues) = mk();
        let (mut cmds,) = api_harness();
        let (ty, addr) = with_api(&mut cmds, |api| tech.enable(queues, 0, api));
        assert_eq!(ty, TechType::BleBeacon);
        assert!(matches!(addr, LowAddr::Ble(_)));
        assert!(cmds
            .iter()
            .any(|(_, c)| matches!(c, Command::BleSetScan { duty: Some(d) } if *d == 1.0)));
    }

    #[test]
    fn add_context_sets_an_advertising_slot_and_reports_success() {
        let (mut tech, queues) = mk();
        let (mut cmds,) = api_harness();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), 0, api);
        });
        queues.send.push(SendRequest {
            token: 5,
            op: SendOp::AddContext { context_id: 1, interval: SimDuration::from_millis(500) },
            packed: Some(PackedStruct::context(
                OmniAddress::from_u64(1),
                Bytes::from_static(b"svc"),
            )),
        });
        with_api(&mut cmds, |api| tech.poll(api));
        assert!(cmds.iter().any(|(_, c)| matches!(c, Command::BleAdvertiseSet { .. })));
        match queues.response.pop() {
            Some(TechResponse::Outcome {
                token: 5,
                result: Ok(ResponseOk::ContextAdded { context_id: 1 }),
                ..
            }) => {}
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn oversized_context_fails_with_original_request() {
        let (mut tech, queues) = mk();
        let (mut cmds,) = api_harness();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), 0, api);
        });
        let big = vec![0u8; 100];
        queues.send.push(SendRequest {
            token: 9,
            op: SendOp::AddContext { context_id: 2, interval: SimDuration::from_millis(500) },
            packed: Some(PackedStruct::context(OmniAddress::from_u64(1), big)),
        });
        with_api(&mut cmds, |api| tech.poll(api));
        match queues.response.pop() {
            Some(TechResponse::Outcome { token: 9, result: Err(f), .. }) => {
                assert!(f.description.contains("exceeds BLE limit"));
                assert_eq!(f.original.token, 9);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn directed_data_for_another_device_is_dropped() {
        let (mut tech, queues) = mk();
        let (mut cmds,) = api_harness();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), 0, api);
        });
        // Build a frame addressed to omni 0x99 (not us).
        let inner = PackedStruct::data(OmniAddress::from_u64(7), Bytes::from_static(b"x"));
        let framed = frame::encode_directed(OmniAddress::from_u64(0x99), &inner);
        let ev = NodeEvent::BleOneShot { from: BleAddress([9; 6]), payload: framed };
        with_api(&mut cmds, |api| tech.on_node_event(&ev, api));
        assert!(queues.receive.is_empty());
    }

    #[test]
    fn context_frames_reach_the_receive_queue() {
        let (mut tech, queues) = mk();
        let (mut cmds,) = api_harness();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), 0, api);
        });
        let packed = PackedStruct::context(OmniAddress::from_u64(7), Bytes::from_static(b"svc"));
        let ev = NodeEvent::BleBeacon { from: BleAddress([9; 6]), payload: packed.encode() };
        with_api(&mut cmds, |api| tech.on_node_event(&ev, api));
        let item = queues.receive.pop().expect("received");
        assert_eq!(item.tech, TechType::BleBeacon);
        assert_eq!(item.packed, packed);
    }

    #[test]
    fn acked_sends_report_on_ack_not_on_transmit() {
        let (tech, queues) = mk();
        let mut tech = tech.with_link_acks(true);
        let (mut cmds,) = api_harness();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), 0, api);
        });
        queues.send.push(SendRequest {
            token: 7,
            op: SendOp::SendData {
                dest: LowAddr::Ble(BleAddress([9; 6])),
                dest_omni: OmniAddress::from_u64(0x99),
                wire_len: 1,
                establish: false,
            },
            packed: Some(PackedStruct::data(OmniAddress::from_u64(1), Bytes::from_static(b"x"))),
        });
        with_api(&mut cmds, |api| tech.poll(api));
        let sent = cmds
            .iter()
            .find_map(|(_, c)| match c {
                Command::BleSendOneShot { payload } => Some(payload.clone()),
                _ => None,
            })
            .expect("one-shot queued");
        assert_eq!(sent.first(), Some(&frame::ACKED_TAG));
        // Transmit-complete alone must NOT produce a response.
        with_api(&mut cmds, |api| tech.on_node_event(&NodeEvent::BleOneShotSent, api));
        assert!(queues.response.is_empty(), "no optimistic DataSent in acked mode");
        // The addressee's ack does.
        let ack = frame::encode_ack(OmniAddress::from_u64(1), 7, None);
        let ev = NodeEvent::BleOneShot { from: BleAddress([9; 6]), payload: ack };
        with_api(&mut cmds, |api| tech.on_node_event(&ev, api));
        match queues.response.pop() {
            Some(TechResponse::Outcome {
                token: 7,
                result: Ok(ResponseOk::DataSent { dest_omni }),
                ..
            }) => assert_eq!(dest_omni, OmniAddress::from_u64(0x99)),
            other => panic!("unexpected response {other:?}"),
        }
        // A duplicate ack is ignored.
        let dup = frame::encode_ack(OmniAddress::from_u64(1), 7, None);
        let ev = NodeEvent::BleOneShot { from: BleAddress([9; 6]), payload: dup };
        with_api(&mut cmds, |api| tech.on_node_event(&ev, api));
        assert!(queues.response.is_empty());
    }

    #[test]
    fn plain_receivers_answer_acked_frames() {
        // A tech WITHOUT link acks still delivers acked frames and replies,
        // so reliable senders work against unmodified peers.
        let (mut tech, queues) = mk();
        let (mut cmds,) = api_harness();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), 0, api);
        });
        cmds.clear();
        let packed = PackedStruct::data(OmniAddress::from_u64(7), Bytes::from_static(b"hi"));
        let framed = frame::encode_acked(OmniAddress::from_u64(1), 42, &packed);
        let ev = NodeEvent::BleOneShot { from: BleAddress([9; 6]), payload: framed };
        with_api(&mut cmds, |api| tech.on_node_event(&ev, api));
        let item = queues.receive.pop().expect("delivered");
        assert_eq!(item.packed, packed);
        let reply = cmds
            .iter()
            .find_map(|(_, c)| match c {
                Command::BleSendOneShot { payload } => Some(payload.clone()),
                _ => None,
            })
            .expect("ack reply queued");
        assert_eq!(
            frame::parse_for(OmniAddress::from_u64(7), &reply),
            frame::Incoming::Ack { corr: 42, trace: None },
            "ack is addressed to the data frame's source"
        );
    }

    #[test]
    fn disable_fails_pending_requests() {
        let (mut tech, queues) = mk();
        let (mut cmds,) = api_harness();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), 0, api);
        });
        queues.send.push(SendRequest {
            token: 1,
            op: SendOp::RemoveContext { context_id: 42 },
            packed: None,
        });
        with_api(&mut cmds, |api| tech.disable(api));
        let responses = queues.response.drain();
        assert!(responses
            .iter()
            .any(|r| matches!(r, TechResponse::Outcome { token: 1, result: Err(_), .. })));
        assert!(responses
            .iter()
            .any(|r| matches!(r, TechResponse::StatusChanged { available: false, .. })));
    }
}
