//! Multicast UDP over WiFi-Mesh as a context (and proof-of-concept data)
//! technology.
//!
//! Paper §3.2: "Multicast over WiFi is provided as a proof of concept since
//! it is one of the primary technologies used by state of the art solutions
//! for address sharing and service discovery. However ... multicast is not
//! practical for continuous neighbor and/or service discovery on power
//! constrained mobile devices."
//!
//! The technology joins the well-known mesh group at enable, listens
//! continuously, periodically multicasts a single **consolidated** beacon
//! carrying the address beacon and every active context pack (the
//! consolidation the paper describes in §4), and answers address-resolution
//! queries on behalf of the device (see [`crate::control::ControlFrame`]).

use std::collections::HashMap;

use bytes::{Bytes, BytesMut};
use omni_sim::{mcast_airtime, Command, NodeApi, NodeEvent, SimDuration};
use omni_wire::{MeshAddress, OmniAddress, PackedStruct, TechType};

use crate::control::ControlFrame;
use crate::queues::{LowAddr, SendOp, SendRequest, TechQueues};
use crate::tech::D2dTechnology;
use crate::techs::{pooled, TimedSends};

const TOKEN_RESCAN: u64 = 0;
const TOKEN_TICK: u64 = 1;
/// How often the technology rescans for transient networks while it is
/// carrying context.
const RESCAN_INTERVAL: SimDuration = SimDuration::from_secs(60);

/// The multicast-over-WiFi-Mesh technology.
#[derive(Debug)]
pub struct WifiMulticastTech {
    own_omni: OmniAddress,
    own_mesh: MeshAddress,
    /// The port, present exactly while the technology is enabled.
    queues: Option<TechQueues>,
    joined: bool,
    /// Active context packs: id → (pack, requested interval).
    contexts: HashMap<u64, (PackedStruct, SimDuration)>,
    tick_armed: bool,
    /// Data sends waiting out their airtime.
    sends: TimedSends,
    rescan_armed: bool,
    /// Reusable encode scratch for outgoing control frames (DESIGN.md §5i).
    scratch: BytesMut,
}

impl WifiMulticastTech {
    /// Creates the technology for a device with the given identity. A data
    /// send completes after the radio's airtime for it, [`mcast_airtime`].
    pub fn new(own_omni: OmniAddress, own_mesh: MeshAddress) -> Self {
        WifiMulticastTech {
            own_omni,
            own_mesh,
            queues: None,
            joined: false,
            contexts: HashMap::new(),
            tick_armed: false,
            sends: TimedSends::default(),
            rescan_armed: false,
            scratch: BytesMut::new(),
        }
    }

    fn send_frame(
        &mut self,
        frame: &ControlFrame,
        wire_len: u64,
        bulk: bool,
        api: &mut NodeApi<'_>,
    ) {
        let payload = pooled(&mut self.scratch, |buf| frame.encode_into(buf));
        api.push(Command::WifiMcastSend { payload, wire_len, bulk });
    }

    /// The consolidated-beacon interval: the fastest of the active packs.
    fn tick_interval(&self) -> SimDuration {
        self.contexts.values().map(|(_, i)| *i).min().unwrap_or(SimDuration::from_millis(500))
    }

    /// Arms the beacon tick and, to track transient networks, the periodic
    /// rescan, each unless it is armed already. Both run only while this
    /// technology is carrying context: the rescans cost energy.
    fn arm_context_timers(&mut self, api: &mut NodeApi<'_>) {
        let Some(q) = &self.queues else { return };
        if !self.contexts.is_empty() && !self.tick_armed {
            self.tick_armed = true;
            q.set_timer(api, TOKEN_TICK, self.tick_interval());
        }
        if !self.contexts.is_empty() && !self.rescan_armed {
            self.rescan_armed = true;
            q.set_timer(api, TOKEN_RESCAN, RESCAN_INTERVAL);
        }
    }

    fn handle_request(&mut self, mut req: SendRequest, api: &mut NodeApi<'_>) {
        let Some(q) = &self.queues else { return };
        match req.op {
            SendOp::AddContext { context_id, interval }
            | SendOp::UpdateContext { context_id, interval } => {
                let Some(packed) = req.packed.take() else {
                    q.fail("context request without payload", req);
                    return;
                };
                self.contexts.insert(context_id, (packed, interval));
                q.succeed(&req);
                self.arm_context_timers(api);
            }
            SendOp::RelayContext => {
                if self.joined {
                    if let Some(packed) = req.packed {
                        let wire = packed.encoded_len() as u64 + 1;
                        self.send_frame(&ControlFrame::Packed(packed), wire, false, api);
                    }
                }
            }
            SendOp::RemoveContext { context_id } => match self.contexts.remove(&context_id) {
                Some(_) => q.succeed(&req),
                None => q.fail(format!("unknown context {context_id}"), req),
            },
            SendOp::SendData { wire_len, .. } => {
                if !self.joined {
                    q.fail("not joined to the mesh group", req);
                    return;
                }
                let Some(packed) = &req.packed else {
                    q.fail("data request without payload", req);
                    return;
                };
                let frame = ControlFrame::Packed(packed.clone());
                let payload = pooled(&mut self.scratch, |buf| frame.encode_into(buf));
                api.push(Command::WifiMcastSend { payload, wire_len, bulk: wire_len > 4096 });
                self.sends.arm(q, api, req, mcast_airtime(wire_len));
            }
        }
    }

    /// Transmits the consolidated beacon.
    fn tick(&mut self, api: &mut NodeApi<'_>) {
        let Some(q) = &self.queues else { return };
        if self.contexts.is_empty() {
            self.tick_armed = false;
            return;
        }
        if self.joined {
            // Deterministic order: by context id (the address beacon, id 0,
            // leads).
            let mut ids: Vec<&u64> = self.contexts.keys().collect();
            ids.sort_unstable();
            let packs: Vec<PackedStruct> =
                ids.iter().map(|id| self.contexts[id].0.clone()).collect();
            let frame = ControlFrame::Batch(packs);
            // One encode serves both the payload and the wire-length estimate
            // (this used to encode the whole batch twice).
            let payload = pooled(&mut self.scratch, |buf| frame.encode_into(buf));
            let wire = payload.len() as u64;
            api.push(Command::WifiMcastSend { payload, wire_len: wire, bulk: false });
        }
        q.set_timer(api, TOKEN_TICK, self.tick_interval());
    }

    fn on_multicast(&mut self, from: MeshAddress, payload: &Bytes, api: &mut NodeApi<'_>) -> bool {
        let Some(q) = &self.queues else { return false };
        let deliver = |packed: PackedStruct| {
            if packed.source != self.own_omni {
                q.deliver(LowAddr::Mesh(from), packed);
            }
        };
        match ControlFrame::decode_shared(payload) {
            Ok(ControlFrame::Packed(packed)) => {
                deliver(packed);
                true
            }
            Ok(ControlFrame::Batch(packs)) => {
                packs.into_iter().for_each(deliver);
                true
            }
            Ok(ControlFrame::Resolve { target, .. }) if target == self.own_omni => {
                if self.joined {
                    let reply =
                        ControlFrame::ResolveReply { addr: self.own_omni, mesh: self.own_mesh };
                    self.send_frame(&reply, 17, false, api);
                }
                true
            }
            Ok(ControlFrame::Resolve { .. }) => true, // someone else's query
            Ok(ControlFrame::ResolveReply { .. }) => false, // the TCP technology's business
            Err(_) => false,
        }
    }
}

impl D2dTechnology for WifiMulticastTech {
    fn enable(&mut self, queues: TechQueues, api: &mut NodeApi<'_>) -> (TechType, LowAddr) {
        self.queues = Some(queues);
        // Join the well-known group and listen for context from the
        // neighborhood. The join completes asynchronously.
        api.push(Command::WifiJoin);
        (TechType::WifiMulticast, LowAddr::Mesh(self.own_mesh))
    }

    fn disable(&mut self, api: &mut NodeApi<'_>) {
        let Some(q) = self.queues.take() else { return };
        let held = self.sends.cancel(&q, api);
        self.contexts.clear();
        q.cancel_timer(api, TOKEN_TICK);
        self.tick_armed = false;
        api.push(Command::WifiMcastListen(false));
        q.shut_down(held);
    }

    fn tech_type(&self) -> TechType {
        TechType::WifiMulticast
    }

    fn poll(&mut self, api: &mut NodeApi<'_>) {
        while let Some(req) = self.queues.as_ref().and_then(|q| q.send.pop()) {
            self.handle_request(req, api);
        }
    }

    fn on_node_event(&mut self, event: &mut NodeEvent, api: &mut NodeApi<'_>) -> bool {
        let Some(q) = &self.queues else { return false };
        match event {
            NodeEvent::WifiJoined => {
                // Re-assert listening on every (re)join: another technology
                // may have left the group under us (the TCP establishment
                // sequence does exactly that).
                self.joined = true;
                api.push(Command::WifiMcastListen(true));
                false // other technologies may also be waiting on joins
            }
            NodeEvent::WifiLeft => {
                // Until the next join, a send would leave no frame on the
                // air, so data sends fail and beacon ticks stay silent.
                self.joined = false;
                false
            }
            NodeEvent::Multicast { from, payload } => self.on_multicast(*from, payload, api),
            _ => match q.timer_offset(event) {
                Some(TOKEN_RESCAN) => {
                    self.rescan_armed = false;
                    if !self.contexts.is_empty() {
                        api.push(Command::WifiScan);
                        self.arm_context_timers(api);
                    }
                    true
                }
                Some(TOKEN_TICK) => {
                    self.tick(api);
                    true
                }
                Some(offset) => self.sends.fire(q, offset),
                None => false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::TechResponse;
    use crate::techs::testing::{disabled_tokens, port, with_api};
    use bytes::Bytes;
    use omni_sim::DeviceId;

    fn mk() -> (WifiMulticastTech, TechQueues) {
        let tech = WifiMulticastTech::new(OmniAddress::from_u64(1), MeshAddress::from_u64(0xA1));
        (tech, port(TechType::WifiMulticast, 1 << 32))
    }

    fn enable_and_join(
        tech: &mut WifiMulticastTech,
        queues: &TechQueues,
        cmds: &mut Vec<(DeviceId, Command)>,
    ) {
        with_api(cmds, |api| {
            tech.enable(queues.clone(), api);
            tech.on_node_event(&mut NodeEvent::WifiJoined, api);
        });
    }

    fn add_context(queues: &TechQueues, id: u64, payload: &'static [u8]) {
        queues.send.push(SendRequest {
            token: id,
            op: SendOp::AddContext { context_id: id, interval: SimDuration::from_millis(500) },
            packed: Some(PackedStruct::context(
                OmniAddress::from_u64(1),
                Bytes::from_static(payload),
            )),
        });
    }

    #[test]
    fn enable_joins_the_group_then_listens() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        enable_and_join(&mut tech, &queues, &mut cmds);
        assert!(cmds.iter().any(|(_, c)| matches!(c, Command::WifiJoin)));
        assert!(cmds.iter().any(|(_, c)| matches!(c, Command::WifiMcastListen(true))));
    }

    #[test]
    fn contexts_are_consolidated_into_one_beacon() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        enable_and_join(&mut tech, &queues, &mut cmds);
        add_context(&queues, 0, b"beacon");
        add_context(&queues, 1, b"svc");
        with_api(&mut cmds, |api| tech.poll(api));
        cmds.clear();
        let tick = (1u64 << 32) + TOKEN_TICK;
        with_api(&mut cmds, |api| {
            assert!(tech.on_node_event(&mut NodeEvent::Timer { token: tick }, api));
        });
        // Exactly one multicast, carrying both packs.
        let sends: Vec<_> = cmds
            .iter()
            .filter_map(|(_, c)| match c {
                Command::WifiMcastSend { payload, .. } => Some(payload.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(sends.len(), 1, "one consolidated datagram per tick");
        match ControlFrame::decode_shared(&sends[0]).unwrap() {
            ControlFrame::Batch(packs) => assert_eq!(packs.len(), 2),
            other => panic!("expected a batch, got {other:?}"),
        }
        // Re-armed for the next tick.
        assert!(cmds
            .iter()
            .any(|(_, c)| matches!(c, Command::SetTimer { token, .. } if *token == tick)));
    }

    #[test]
    fn removing_the_last_context_stops_ticking() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        enable_and_join(&mut tech, &queues, &mut cmds);
        add_context(&queues, 1, b"svc");
        with_api(&mut cmds, |api| tech.poll(api));
        queues.send.push(SendRequest {
            token: 9,
            op: SendOp::RemoveContext { context_id: 1 },
            packed: None,
        });
        with_api(&mut cmds, |api| tech.poll(api));
        cmds.clear();
        let tick = (1u64 << 32) + TOKEN_TICK;
        with_api(&mut cmds, |api| {
            assert!(tech.on_node_event(&mut NodeEvent::Timer { token: tick }, api));
        });
        assert!(cmds.is_empty(), "no beacon and no re-arm after removal");
    }

    #[test]
    fn received_batches_are_unpacked_to_the_receive_queue() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        enable_and_join(&mut tech, &queues, &mut cmds);
        let p1 = PackedStruct::context(OmniAddress::from_u64(9), Bytes::from_static(b"a"));
        let p2 = PackedStruct::context(OmniAddress::from_u64(9), Bytes::from_static(b"b"));
        let mut ev = NodeEvent::Multicast {
            from: MeshAddress::from_u64(0xB2),
            payload: ControlFrame::Batch(vec![p1.clone(), p2.clone()]).encode(),
        };
        with_api(&mut cmds, |api| {
            assert!(tech.on_node_event(&mut ev, api));
        });
        assert_eq!(queues.receive.len(), 2);
        assert_eq!(queues.receive.pop().unwrap().packed, p1);
        assert_eq!(queues.receive.pop().unwrap().packed, p2);
    }

    #[test]
    fn resolve_queries_for_us_are_answered() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        enable_and_join(&mut tech, &queues, &mut cmds);
        cmds.clear();
        let query = ControlFrame::Resolve {
            target: OmniAddress::from_u64(1),
            requester: OmniAddress::from_u64(9),
        };
        let mut ev =
            NodeEvent::Multicast { from: MeshAddress::from_u64(0xB2), payload: query.encode() };
        with_api(&mut cmds, |api| {
            assert!(tech.on_node_event(&mut ev, api));
        });
        let sent = cmds.iter().find_map(|(_, c)| match c {
            Command::WifiMcastSend { payload, .. } => Some(payload.clone()),
            _ => None,
        });
        let reply = ControlFrame::decode_shared(&sent.expect("reply sent")).unwrap();
        assert_eq!(
            reply,
            ControlFrame::ResolveReply {
                addr: OmniAddress::from_u64(1),
                mesh: MeshAddress::from_u64(0xA1)
            }
        );
    }

    #[test]
    fn resolve_replies_are_left_for_the_tcp_technology() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        enable_and_join(&mut tech, &queues, &mut cmds);
        let reply = ControlFrame::ResolveReply {
            addr: OmniAddress::from_u64(5),
            mesh: MeshAddress::from_u64(0xC3),
        };
        let mut ev =
            NodeEvent::Multicast { from: MeshAddress::from_u64(0xB2), payload: reply.encode() };
        with_api(&mut cmds, |api| {
            assert!(!tech.on_node_event(&mut ev, api));
        });
    }

    #[test]
    fn own_multicast_echo_is_dropped() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        enable_and_join(&mut tech, &queues, &mut cmds);
        let packed = PackedStruct::context(OmniAddress::from_u64(1), Bytes::from_static(b"me"));
        let mut ev = NodeEvent::Multicast {
            from: MeshAddress::from_u64(0xA1),
            payload: ControlFrame::Packed(packed).encode(),
        };
        with_api(&mut cmds, |api| {
            tech.on_node_event(&mut ev, api);
        });
        assert!(queues.receive.is_empty());
    }

    fn mcast_send(token: u64) -> SendRequest {
        SendRequest {
            token,
            op: SendOp::SendData {
                dest: LowAddr::Mesh(MeshAddress::from_u64(0xB2)),
                dest_omni: OmniAddress::from_u64(9),
                wire_len: 30,
                establish: false,
            },
            packed: Some(PackedStruct::data(OmniAddress::from_u64(1), Bytes::from_static(b"x"))),
        }
    }

    #[test]
    fn disable_fails_queued_and_airborne_sends_in_token_order() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        enable_and_join(&mut tech, &queues, &mut cmds);
        for token in [7, 2, 9, 4, 8, 3] {
            queues.send.push(mcast_send(token));
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
            queues.send.push(mcast_send(token));
        }
        with_api(&mut cmds, |api| tech.disable(api));
        assert_eq!(disabled_tokens(queues.response.drain()), [1, 2, 3, 4, 5, 7, 8, 9]);
        // The airtime timers were cancelled, and firing one now does nothing.
        for &token in &timers {
            assert!(cmds
                .iter()
                .any(|(_, c)| matches!(c, Command::CancelTimer { token: t } if *t == token)));
        }
        with_api(&mut cmds, |api| {
            assert!(!tech.on_node_event(&mut NodeEvent::Timer { token: timers[0] }, api));
        });
        queues.send.push(mcast_send(6));
        with_api(&mut cmds, |api| tech.poll(api));
        assert!(queues.response.is_empty());
    }

    /// A send while the radio is out of the group fails at once, so the
    /// manager can fall back: before the first join and after a leave.
    #[test]
    fn data_outside_the_group_fails_for_fallback() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), api);
        });
        for (token, events) in [(3, vec![]), (4, vec![NodeEvent::WifiJoined, NodeEvent::WifiLeft])]
        {
            with_api(&mut cmds, |api| {
                for mut event in events {
                    tech.on_node_event(&mut event, api);
                }
            });
            queues.send.push(mcast_send(token));
            with_api(&mut cmds, |api| tech.poll(api));
            match queues.response.pop() {
                Some(TechResponse::Outcome { token: t, result: Err(f), .. }) if t == token => {
                    assert!(f.description.contains("not joined"), "{}", f.description);
                }
                other => panic!("send {token}: unexpected {other:?}"),
            }
        }
    }
}
