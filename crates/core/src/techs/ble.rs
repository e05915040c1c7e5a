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
use omni_wire::{frame, BleAddress, OmniAddress, TechType};

use crate::queues::{LowAddr, SendOp, SendRequest, TechQueues};
use crate::tech::D2dTechnology;
use crate::techs::pooled;

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
    /// The port, present exactly while the technology is enabled.
    queues: Option<TechQueues>,
    /// context_id → advertising slot.
    slots: HashMap<u64, u32>,
    next_slot: u32,
    /// One-shot sends awaiting `BleOneShotSent`, oldest first.
    inflight: VecDeque<OneShot>,
    /// Acked data sends awaiting the addressee's ack, keyed by the
    /// correlation token (= the request token).
    awaiting: HashMap<u64, SendRequest>,
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

    fn handle_request(&mut self, req: SendRequest, api: &mut NodeApi<'_>) {
        let Some(q) = &self.queues else { return };
        let too_big = |len: usize| format!("payload {len} exceeds BLE limit {}", self.max_payload);
        match req.op {
            SendOp::AddContext { context_id, interval }
            | SendOp::UpdateContext { context_id, interval } => {
                let Some(packed) = &req.packed else {
                    q.fail("context request without payload", req);
                    return;
                };
                let encoded = pooled(&mut self.scratch, |buf| packed.encode_into(buf));
                if encoded.len() > self.max_payload {
                    q.fail(too_big(encoded.len()), req);
                    return;
                }
                let slot = *self.slots.entry(context_id).or_insert_with(|| {
                    self.next_slot += 1;
                    self.next_slot
                });
                api.push(Command::BleAdvertiseSet { slot, payload: encoded, interval });
                q.succeed(&req);
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
                    q.succeed(&req);
                }
                None => q.fail(format!("unknown context {context_id}"), req),
            },
            SendOp::SendData { dest, dest_omni, .. } => {
                let LowAddr::Ble(_) = dest else {
                    q.fail("destination has no BLE address", req);
                    return;
                };
                let Some(packed) = &req.packed else {
                    q.fail("data request without payload", req);
                    return;
                };
                let link_acks = self.link_acks;
                let framed = pooled(&mut self.scratch, |buf| {
                    if link_acks {
                        frame::encode_acked_into(dest_omni, req.token, packed, buf);
                    } else {
                        frame::encode_directed_into(dest_omni, packed, buf);
                    }
                });
                if framed.len() > self.max_payload {
                    q.fail(too_big(framed.len()), req);
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
        let Some(q) = &self.queues else { return };
        match frame::parse_for_shared(self.own_omni, payload) {
            frame::Incoming::Plain(packed) => q.deliver(LowAddr::Ble(from), packed),
            frame::Incoming::Acked { corr, packed } => {
                // Deliver, then acknowledge back to the sender. The ack is a
                // fire-and-forget one-shot; losing it costs the sender a
                // retry, nothing more. Answering is unconditional so plain
                // receivers still satisfy reliable senders.
                let sender = packed.source;
                let trace = packed.trace;
                q.deliver(LowAddr::Ble(from), packed);
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
                    q.succeed(&req);
                }
            }
            frame::Incoming::NotForUs => {}
        }
    }
}

impl D2dTechnology for BleBeaconTech {
    fn enable(&mut self, queues: TechQueues, api: &mut NodeApi<'_>) -> (TechType, LowAddr) {
        self.queues = Some(queues);
        // Integrated neighbor discovery: scan continuously (or at the
        // configured duty cycle).
        api.push(Command::BleSetScan { duty: Some(self.scan_duty) });
        (TechType::BleBeacon, LowAddr::Ble(self.own_addr))
    }

    fn disable(&mut self, api: &mut NodeApi<'_>) {
        let Some(q) = self.queues.take() else { return };
        let optimistic = self.inflight.drain(..).filter_map(|entry| match entry {
            OneShot::Optimistic(req) => Some(req),
            _ => None,
        });
        q.shut_down(optimistic.chain(self.awaiting.drain().map(|(_, req)| req)));
        for (_, slot) in self.slots.drain() {
            api.push(Command::BleAdvertiseStop { slot });
        }
        api.push(Command::BleSetScan { duty: None });
    }

    fn tech_type(&self) -> TechType {
        TechType::BleBeacon
    }

    fn poll(&mut self, api: &mut NodeApi<'_>) {
        while let Some(req) = self.queues.as_ref().and_then(|q| q.send.pop()) {
            self.handle_request(req, api);
        }
    }

    fn on_node_event(&mut self, event: &NodeEvent, api: &mut NodeApi<'_>) -> bool {
        let Some(q) = &self.queues else { return false };
        match event {
            NodeEvent::BleBeacon { from, payload } | NodeEvent::BleOneShot { from, payload } => {
                self.on_frame(*from, payload, api);
                true
            }
            NodeEvent::BleOneShotSent => {
                if let Some(OneShot::Optimistic(req)) = self.inflight.pop_front() {
                    q.succeed(&req);
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
    use crate::queues::{ResponseOk, TechResponse};
    use crate::techs::testing::{disabled_tokens, port, with_api};
    use omni_sim::{DeviceId, SimDuration};
    use omni_wire::PackedStruct;

    fn api_harness() -> (Vec<(DeviceId, Command)>,) {
        (Vec::new(),)
    }

    fn mk() -> (BleBeaconTech, TechQueues) {
        let tech =
            BleBeaconTech::new(OmniAddress::from_u64(1), BleAddress([2, 0, 0, 0, 0, 1]), 64, 1.0);
        (tech, port(TechType::BleBeacon, 0))
    }

    #[test]
    fn enable_starts_scanning_and_reports_identity() {
        let (mut tech, queues) = mk();
        let (mut cmds,) = api_harness();
        let (ty, addr) = with_api(&mut cmds, |api| tech.enable(queues, api));
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
            tech.enable(queues.clone(), api);
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
            tech.enable(queues.clone(), api);
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
            tech.enable(queues.clone(), api);
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
            tech.enable(queues.clone(), api);
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
            tech.enable(queues.clone(), api);
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
            tech.enable(queues.clone(), api);
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

    fn acked_send(token: u64) -> SendRequest {
        SendRequest {
            token,
            op: SendOp::SendData {
                dest: LowAddr::Ble(BleAddress([9; 6])),
                dest_omni: OmniAddress::from_u64(0x99),
                wire_len: 1,
                establish: false,
            },
            packed: Some(PackedStruct::data(OmniAddress::from_u64(1), Bytes::from_static(b"x"))),
        }
    }

    #[test]
    fn disable_fails_queued_and_awaiting_sends_in_token_order() {
        let (tech, queues) = mk();
        let mut tech = tech.with_link_acks(true);
        let (mut cmds,) = api_harness();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), api);
        });
        for token in [7, 2, 9, 4, 8, 3] {
            queues.send.push(acked_send(token));
        }
        with_api(&mut cmds, |api| tech.poll(api));
        for token in [5, 1] {
            queues.send.push(acked_send(token));
        }
        let remove = SendOp::RemoveContext { context_id: 42 };
        queues.send.push(SendRequest { token: 6, op: remove, packed: None });
        with_api(&mut cmds, |api| tech.disable(api));
        assert_eq!(disabled_tokens(queues.response.drain()), [1, 2, 3, 4, 5, 6, 7, 8, 9]);
        // A late ack and a new request find the technology gone.
        let ack = frame::encode_ack(OmniAddress::from_u64(1), 7, None);
        let ev = NodeEvent::BleOneShot { from: BleAddress([9; 6]), payload: ack };
        with_api(&mut cmds, |api| {
            assert!(!tech.on_node_event(&ev, api));
            assert!(!tech.on_node_event(&NodeEvent::BleOneShotSent, api));
        });
        queues.send.push(acked_send(10));
        with_api(&mut cmds, |api| tech.poll(api));
        assert!(queues.response.is_empty());
    }
}
