//! NFC as a touch-range context/data technology.
//!
//! The paper's tourist devices "share context on both BLE and NFC" (Figure
//! 3). NFC has essentially zero standby energy and centimeter range: it only
//! delivers when devices physically touch, which makes it the cheapest —
//! and least available — context carrier.

use std::collections::HashMap;

use bytes::BytesMut;
use omni_sim::{Command, NodeApi, NodeEvent, SimDuration};
use omni_wire::{NfcAddress, OmniAddress, TechType};

use crate::config::LinkTimings;
use crate::queues::{
    LowAddr, ReceivedItem, ResponseOk, SendOp, SendRequest, TechFailure, TechQueues, TechResponse,
};
use crate::tech::D2dTechnology;
use crate::techs::{frame, pooled};

const TOKEN_CONTEXT_BASE: u64 = 0x100;
const TOKEN_DATA_BASE: u64 = 0x1_0000_0000;
const TOKEN_RANGE: u64 = 1 << 16;

#[derive(Debug, Clone)]
struct NfcContext {
    payload: bytes::Bytes,
    interval: SimDuration,
    slot: u64,
}

/// The NFC technology.
#[derive(Debug)]
pub struct NfcTech {
    own_omni: OmniAddress,
    own_addr: NfcAddress,
    timings: LinkTimings,
    queues: Option<TechQueues>,
    token_base: u64,
    enabled: bool,
    contexts: HashMap<u64, NfcContext>,
    slot_to_context: HashMap<u64, u64>,
    next_slot: u64,
    data_inflight: HashMap<u64, SendRequest>,
    next_data_slot: u64,
    /// `tech.nfc.failures` counter, when observability is attached.
    failures: Option<omni_obs::Counter>,
    /// Reusable encode scratch for outgoing frames (DESIGN.md §5i).
    scratch: BytesMut,
}

impl NfcTech {
    /// Creates the technology for a device with the given identity.
    pub fn new(own_omni: OmniAddress, own_addr: NfcAddress, timings: LinkTimings) -> Self {
        NfcTech {
            own_omni,
            own_addr,
            timings,
            queues: None,
            token_base: 0,
            enabled: false,
            contexts: HashMap::new(),
            slot_to_context: HashMap::new(),
            next_slot: 0,
            data_inflight: HashMap::new(),
            next_data_slot: 0,
            failures: None,
            scratch: BytesMut::new(),
        }
    }

    fn respond(&self, token: u64, result: Result<ResponseOk, TechFailure>) {
        self.queues.as_ref().expect("enabled").response.push(TechResponse::Outcome {
            tech: TechType::Nfc,
            token,
            result,
        });
    }

    fn fail(&self, description: impl Into<String>, original: SendRequest) {
        if let Some(c) = &self.failures {
            c.inc();
        }
        let token = original.token;
        self.respond(token, Err(TechFailure { description: description.into(), original }));
    }

    fn handle_request(&mut self, req: SendRequest, api: &mut NodeApi<'_>) {
        match req.op.clone() {
            SendOp::AddContext { context_id, interval }
            | SendOp::UpdateContext { context_id, interval } => {
                let is_update = matches!(req.op, SendOp::UpdateContext { .. });
                let Some(packed) = req.packed.clone() else {
                    self.fail("context request without payload", req);
                    return;
                };
                let encoded = pooled(&mut self.scratch, |buf| packed.encode_into(buf));
                if encoded.len() > self.timings.nfc_max_payload {
                    self.fail("payload exceeds NFC limit", req);
                    return;
                }
                let slot = match self.contexts.get(&context_id) {
                    Some(c) => c.slot,
                    None => {
                        self.next_slot += 1;
                        self.slot_to_context.insert(self.next_slot, context_id);
                        api.set_timer(
                            self.token_base + TOKEN_CONTEXT_BASE + self.next_slot,
                            interval,
                        );
                        self.next_slot
                    }
                };
                self.contexts.insert(context_id, NfcContext { payload: encoded, interval, slot });
                let ok = if is_update {
                    ResponseOk::ContextUpdated { context_id }
                } else {
                    ResponseOk::ContextAdded { context_id }
                };
                self.respond(req.token, Ok(ok));
            }
            SendOp::RelayContext => {
                if let Some(packed) = req.packed {
                    let encoded = pooled(&mut self.scratch, |buf| packed.encode_into(buf));
                    if encoded.len() <= self.timings.nfc_max_payload {
                        api.push(Command::NfcSend { payload: encoded });
                    }
                }
            }
            SendOp::RemoveContext { context_id } => match self.contexts.remove(&context_id) {
                Some(ctx) => {
                    self.slot_to_context.remove(&ctx.slot);
                    api.cancel_timer(self.token_base + TOKEN_CONTEXT_BASE + ctx.slot);
                    self.respond(req.token, Ok(ResponseOk::ContextRemoved { context_id }));
                }
                None => self.fail(format!("unknown context {context_id}"), req),
            },
            SendOp::SendData { dest, dest_omni, .. } => {
                let LowAddr::Nfc(_) = dest else {
                    self.fail("destination has no NFC id", req);
                    return;
                };
                let Some(packed) = req.packed.clone() else {
                    self.fail("data request without payload", req);
                    return;
                };
                let framed = pooled(&mut self.scratch, |buf| {
                    frame::encode_directed_into(dest_omni, &packed, buf);
                });
                if framed.len() > self.timings.nfc_max_payload {
                    self.fail("payload exceeds NFC limit", req);
                    return;
                }
                api.push(Command::NfcSend { payload: framed });
                self.next_data_slot += 1;
                let slot = self.next_data_slot % TOKEN_RANGE;
                self.data_inflight.insert(slot, req);
                api.set_timer(self.token_base + TOKEN_DATA_BASE + slot, self.timings.nfc_touch);
            }
        }
    }
}

impl D2dTechnology for NfcTech {
    fn attach_obs(&mut self, obs: &omni_obs::Obs) {
        self.failures = Some(obs.counter("tech.nfc.failures"));
    }

    fn enable(
        &mut self,
        queues: TechQueues,
        token_base: u64,
        _api: &mut NodeApi<'_>,
    ) -> (TechType, LowAddr) {
        self.queues = Some(queues);
        self.token_base = token_base;
        self.enabled = true;
        (TechType::Nfc, LowAddr::Nfc(self.own_addr))
    }

    fn disable(&mut self, api: &mut NodeApi<'_>) {
        self.enabled = false;
        if let Some(queues) = self.queues.clone() {
            for req in queues.send.drain() {
                self.fail("technology disabled", req);
            }
            let inflight: Vec<_> = self.data_inflight.drain().collect();
            for (slot, req) in inflight {
                api.cancel_timer(self.token_base + TOKEN_DATA_BASE + slot);
                self.fail("technology disabled", req);
            }
            queues
                .response
                .push(TechResponse::StatusChanged { tech: TechType::Nfc, available: false });
        }
        for (_, ctx) in self.contexts.drain() {
            api.cancel_timer(self.token_base + TOKEN_CONTEXT_BASE + ctx.slot);
        }
        self.slot_to_context.clear();
    }

    fn tech_type(&self) -> TechType {
        TechType::Nfc
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
            NodeEvent::NfcReceived { from, payload } => {
                if let Some(packed) = frame::decode_for_shared(self.own_omni, payload) {
                    self.queues.as_ref().expect("enabled").receive.push(ReceivedItem {
                        tech: TechType::Nfc,
                        source: LowAddr::Nfc(*from),
                        packed,
                    });
                }
                true
            }
            NodeEvent::Timer { token } => {
                let Some(offset) = token.checked_sub(self.token_base) else {
                    return false;
                };
                if (TOKEN_CONTEXT_BASE..TOKEN_CONTEXT_BASE + TOKEN_RANGE).contains(&offset) {
                    let slot = offset - TOKEN_CONTEXT_BASE;
                    if let Some(id) = self.slot_to_context.get(&slot).copied() {
                        if let Some(ctx) = self.contexts.get(&id).cloned() {
                            api.push(Command::NfcSend { payload: ctx.payload.clone() });
                            api.set_timer(
                                self.token_base + TOKEN_CONTEXT_BASE + slot,
                                ctx.interval,
                            );
                        }
                    }
                    true
                } else if (TOKEN_DATA_BASE..TOKEN_DATA_BASE + TOKEN_RANGE).contains(&offset) {
                    if let Some(req) = self.data_inflight.remove(&(offset - TOKEN_DATA_BASE)) {
                        if let SendOp::SendData { dest_omni, .. } = req.op {
                            self.respond(req.token, Ok(ResponseOk::DataSent { dest_omni }));
                        }
                    }
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use omni_sim::{DeviceId, SimTime};
    use omni_wire::PackedStruct;

    fn mk() -> (NfcTech, TechQueues) {
        let tech =
            NfcTech::new(OmniAddress::from_u64(1), NfcAddress::from_u32(7), LinkTimings::default());
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
    fn context_is_periodically_touched_out() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), 3 << 32, api);
        });
        queues.send.push(SendRequest {
            token: 1,
            op: SendOp::AddContext { context_id: 4, interval: SimDuration::from_millis(500) },
            packed: Some(PackedStruct::context(OmniAddress::from_u64(1), Bytes::from_static(b"c"))),
        });
        with_api(&mut cmds, |api| tech.poll(api));
        cmds.clear();
        let token = (3u64 << 32) + TOKEN_CONTEXT_BASE + 1;
        with_api(&mut cmds, |api| {
            assert!(tech.on_node_event(&NodeEvent::Timer { token }, api));
        });
        assert!(cmds.iter().any(|(_, c)| matches!(c, Command::NfcSend { .. })));
    }

    #[test]
    fn data_send_completes_after_touch_latency_timer() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), 3 << 32, api);
        });
        queues.send.push(SendRequest {
            token: 2,
            op: SendOp::SendData {
                dest: LowAddr::Nfc(NfcAddress::from_u32(9)),
                dest_omni: OmniAddress::from_u64(9),
                wire_len: 10,
                establish: false,
            },
            packed: Some(PackedStruct::data(OmniAddress::from_u64(1), Bytes::from_static(b"d"))),
        });
        with_api(&mut cmds, |api| tech.poll(api));
        assert!(cmds.iter().any(|(_, c)| matches!(c, Command::NfcSend { .. })));
        let token = (3u64 << 32) + TOKEN_DATA_BASE + 1;
        with_api(&mut cmds, |api| {
            assert!(tech.on_node_event(&NodeEvent::Timer { token }, api));
        });
        match queues.response.pop() {
            Some(TechResponse::Outcome {
                token: 2,
                result: Ok(ResponseOk::DataSent { .. }),
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn received_touch_payloads_reach_the_receive_queue() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), 3 << 32, api);
        });
        let packed = PackedStruct::context(OmniAddress::from_u64(9), Bytes::from_static(b"tag"));
        with_api(&mut cmds, |api| {
            assert!(tech.on_node_event(
                &NodeEvent::NfcReceived { from: NfcAddress::from_u32(9), payload: packed.encode() },
                api
            ));
        });
        let item = queues.receive.pop().expect("received");
        assert_eq!(item.tech, TechType::Nfc);
        assert_eq!(item.packed, packed);
    }
}
