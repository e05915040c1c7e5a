//! NFC as a touch-range context/data technology.
//!
//! The paper's tourist devices "share context on both BLE and NFC" (Figure
//! 3). NFC has essentially zero standby energy and centimeter range: it only
//! delivers when devices physically touch, which makes it the cheapest —
//! and least available — context carrier.

use std::collections::HashMap;

use bytes::BytesMut;
use omni_sim::{Command, NodeApi, NodeEvent, SimDuration};
use omni_wire::{frame, NfcAddress, OmniAddress, TechType};

use crate::config::LinkTimings;
use crate::queues::{LowAddr, SendOp, SendRequest, TechQueues};
use crate::tech::D2dTechnology;
use crate::techs::{pooled, TimedSends};

/// Context touch timers take the offsets from here up to the data sends'
/// upper half of the timer range.
const TOKEN_CONTEXT_BASE: u64 = 0x100;

#[derive(Debug)]
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
    /// The port, present exactly while the technology is enabled.
    queues: Option<TechQueues>,
    contexts: HashMap<u64, NfcContext>,
    slot_to_context: HashMap<u64, u64>,
    next_slot: u64,
    /// Data sends waiting out the touch latency.
    sends: TimedSends,
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
            contexts: HashMap::new(),
            slot_to_context: HashMap::new(),
            next_slot: 0,
            sends: TimedSends::default(),
            scratch: BytesMut::new(),
        }
    }

    fn handle_request(&mut self, req: SendRequest, api: &mut NodeApi<'_>) {
        let Some(q) = &self.queues else { return };
        match req.op {
            SendOp::AddContext { context_id, interval }
            | SendOp::UpdateContext { context_id, interval } => {
                let Some(packed) = &req.packed else {
                    q.fail("context request without payload", req);
                    return;
                };
                let encoded = pooled(&mut self.scratch, |buf| packed.encode_into(buf));
                if encoded.len() > self.timings.nfc_max_payload {
                    q.fail("payload exceeds NFC limit", req);
                    return;
                }
                let slot = match self.contexts.get(&context_id) {
                    Some(c) => c.slot,
                    None => {
                        self.next_slot += 1;
                        self.slot_to_context.insert(self.next_slot, context_id);
                        q.set_timer(api, TOKEN_CONTEXT_BASE + self.next_slot, interval);
                        self.next_slot
                    }
                };
                self.contexts.insert(context_id, NfcContext { payload: encoded, interval, slot });
                q.succeed(&req);
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
                    q.cancel_timer(api, TOKEN_CONTEXT_BASE + ctx.slot);
                    q.succeed(&req);
                }
                None => q.fail(format!("unknown context {context_id}"), req),
            },
            SendOp::SendData { dest, dest_omni, .. } => {
                let LowAddr::Nfc(_) = dest else {
                    q.fail("destination has no NFC id", req);
                    return;
                };
                let Some(packed) = &req.packed else {
                    q.fail("data request without payload", req);
                    return;
                };
                let framed = pooled(&mut self.scratch, |buf| {
                    frame::encode_directed_into(dest_omni, packed, buf);
                });
                if framed.len() > self.timings.nfc_max_payload {
                    q.fail("payload exceeds NFC limit", req);
                    return;
                }
                api.push(Command::NfcSend { payload: framed });
                self.sends.arm(q, api, req, self.timings.nfc_touch);
            }
        }
    }
}

impl D2dTechnology for NfcTech {
    fn enable(&mut self, queues: TechQueues, _api: &mut NodeApi<'_>) -> (TechType, LowAddr) {
        self.queues = Some(queues);
        (TechType::Nfc, LowAddr::Nfc(self.own_addr))
    }

    fn disable(&mut self, api: &mut NodeApi<'_>) {
        let Some(q) = self.queues.take() else { return };
        let held = self.sends.cancel(&q, api);
        for (_, ctx) in self.contexts.drain() {
            q.cancel_timer(api, TOKEN_CONTEXT_BASE + ctx.slot);
        }
        self.slot_to_context.clear();
        q.shut_down(held);
    }

    fn tech_type(&self) -> TechType {
        TechType::Nfc
    }

    fn poll(&mut self, api: &mut NodeApi<'_>) {
        while let Some(req) = self.queues.as_ref().and_then(|q| q.send.pop()) {
            self.handle_request(req, api);
        }
    }

    fn on_node_event(&mut self, event: &NodeEvent, api: &mut NodeApi<'_>) -> bool {
        let Some(q) = &self.queues else { return false };
        if let NodeEvent::NfcReceived { from, payload } = event {
            if let Some(packed) = frame::decode_for_shared(self.own_omni, payload) {
                q.deliver(LowAddr::Nfc(*from), packed);
            }
            return true;
        }
        let Some(offset) = q.timer_offset(event) else { return false };
        if !self.sends.fire(q, offset) {
            let id = self.slot_to_context.get(&offset.wrapping_sub(TOKEN_CONTEXT_BASE));
            if let Some(ctx) = id.and_then(|id| self.contexts.get(id)) {
                api.push(Command::NfcSend { payload: ctx.payload.clone() });
                q.set_timer(api, offset, ctx.interval);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::{ResponseOk, TechResponse};
    use crate::techs::testing::{disabled_tokens, port, with_api};
    use bytes::Bytes;
    use omni_wire::PackedStruct;

    fn mk() -> (NfcTech, TechQueues) {
        let tech =
            NfcTech::new(OmniAddress::from_u64(1), NfcAddress::from_u32(7), LinkTimings::default());
        (tech, port(TechType::Nfc, 3 << 32))
    }

    #[test]
    fn context_is_periodically_touched_out() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), api);
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
            tech.enable(queues.clone(), api);
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
        let token = cmds
            .iter()
            .find_map(|(_, c)| match c {
                Command::SetTimer { token, .. } => Some(*token),
                _ => None,
            })
            .expect("the send armed its completion timer");
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

    fn touch_send(token: u64) -> SendRequest {
        SendRequest {
            token,
            op: SendOp::SendData {
                dest: LowAddr::Nfc(NfcAddress::from_u32(9)),
                dest_omni: OmniAddress::from_u64(9),
                wire_len: 10,
                establish: false,
            },
            packed: Some(PackedStruct::data(OmniAddress::from_u64(1), Bytes::from_static(b"d"))),
        }
    }

    #[test]
    fn disable_fails_queued_and_touching_sends_in_token_order() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), api);
        });
        for token in [7, 2, 9, 4, 8, 3] {
            queues.send.push(touch_send(token));
        }
        with_api(&mut cmds, |api| tech.poll(api));
        let timers: Vec<u64> = cmds
            .iter()
            .filter_map(|(_, c)| match c {
                Command::SetTimer { token, .. } => Some(*token),
                _ => None,
            })
            .collect();
        assert_eq!(timers.len(), 6);
        for token in [5, 1] {
            queues.send.push(touch_send(token));
        }
        with_api(&mut cmds, |api| tech.disable(api));
        assert_eq!(disabled_tokens(queues.response.drain()), [1, 2, 3, 4, 5, 7, 8, 9]);
        // The touch timers were cancelled, and firing one now does nothing.
        for &token in &timers {
            assert!(cmds
                .iter()
                .any(|(_, c)| matches!(c, Command::CancelTimer { token: t } if *t == token)));
        }
        with_api(&mut cmds, |api| {
            assert!(!tech.on_node_event(&NodeEvent::Timer { token: timers[0] }, api));
        });
        queues.send.push(touch_send(6));
        with_api(&mut cmds, |api| tech.poll(api));
        assert!(queues.response.is_empty());
    }

    #[test]
    fn received_touch_payloads_reach_the_receive_queue() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), api);
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
