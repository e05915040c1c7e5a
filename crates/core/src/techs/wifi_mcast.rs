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
use omni_sim::{Command, NodeApi, NodeEvent, SimDuration};
use omni_wire::{MeshAddress, OmniAddress, PackedStruct, TechType};

use crate::config::LinkTimings;
use crate::control::ControlFrame;
use crate::queues::{
    LowAddr, ReceivedItem, ResponseOk, SendOp, SendRequest, TechFailure, TechQueues, TechResponse,
};
use crate::tech::D2dTechnology;

const TOKEN_RESCAN: u64 = 0;
const TOKEN_TICK: u64 = 1;
const TOKEN_DATA_BASE: u64 = 0x1_0000_0000;
const TOKEN_RANGE: u64 = 1 << 16;

/// The multicast-over-WiFi-Mesh technology.
#[derive(Debug)]
pub struct WifiMulticastTech {
    own_omni: OmniAddress,
    own_mesh: MeshAddress,
    timings: LinkTimings,
    queues: Option<TechQueues>,
    token_base: u64,
    enabled: bool,
    joined: bool,
    /// Active context packs: id → (pack, requested interval).
    contexts: HashMap<u64, (PackedStruct, SimDuration)>,
    tick_armed: bool,
    /// Outstanding data sends keyed by their completion-timer slot.
    data_inflight: HashMap<u64, SendRequest>,
    next_data_slot: u64,
    rescan_armed: bool,
    /// `tech.wifi-multicast.failures` counter, when observability is attached.
    failures: Option<omni_obs::Counter>,
    /// Reusable encode scratch for outgoing control frames (DESIGN.md §5i).
    scratch: BytesMut,
}

impl WifiMulticastTech {
    /// Creates the technology for a device with the given identity.
    pub fn new(own_omni: OmniAddress, own_mesh: MeshAddress, timings: LinkTimings) -> Self {
        WifiMulticastTech {
            own_omni,
            own_mesh,
            timings,
            queues: None,
            token_base: 0,
            enabled: false,
            joined: false,
            contexts: HashMap::new(),
            tick_armed: false,
            data_inflight: HashMap::new(),
            next_data_slot: 0,
            rescan_armed: false,
            failures: None,
            scratch: BytesMut::new(),
        }
    }

    fn respond(&self, token: u64, result: Result<ResponseOk, TechFailure>) {
        self.queues.as_ref().expect("enabled").response.push(TechResponse::Outcome {
            tech: TechType::WifiMulticast,
            token,
            result,
        });
    }

    fn fail(&self, token: u64, description: impl Into<String>, original: SendRequest) {
        if let Some(c) = &self.failures {
            c.inc();
        }
        self.respond(token, Err(TechFailure { description: description.into(), original }));
    }

    fn send_frame(
        &mut self,
        frame: &ControlFrame,
        wire_len: u64,
        bulk: bool,
        api: &mut NodeApi<'_>,
    ) {
        self.scratch.clear();
        frame.encode_into(&mut self.scratch);
        let payload = Bytes::copy_from_slice(&self.scratch);
        api.push(Command::WifiMcastSend { payload, wire_len, bulk });
    }

    /// The consolidated-beacon interval: the fastest of the active packs.
    fn tick_interval(&self) -> SimDuration {
        self.contexts.values().map(|(_, i)| *i).min().unwrap_or(SimDuration::from_millis(500))
    }

    fn arm_tick(&mut self, api: &mut NodeApi<'_>) {
        if !self.contexts.is_empty() && !self.tick_armed {
            self.tick_armed = true;
            api.set_timer(self.token_base + TOKEN_TICK, self.tick_interval());
        }
    }

    fn arm_rescan(&mut self, api: &mut NodeApi<'_>) {
        // Periodic rescans track transient networks; only worth the energy
        // while this technology is actively carrying context.
        if !self.contexts.is_empty() && !self.rescan_armed {
            self.rescan_armed = true;
            api.set_timer(self.token_base + TOKEN_RESCAN, self.timings.mcast_rescan);
        }
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
                self.contexts.insert(context_id, (packed, interval));
                self.arm_tick(api);
                self.arm_rescan(api);
                let ok = if is_update {
                    ResponseOk::ContextUpdated { context_id }
                } else {
                    ResponseOk::ContextAdded { context_id }
                };
                self.respond(req.token, Ok(ok));
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
                Some(_) => {
                    self.respond(req.token, Ok(ResponseOk::ContextRemoved { context_id }));
                }
                None => self.fail(req.token, format!("unknown context {context_id}"), req),
            },
            SendOp::SendData { dest_omni, wire_len, .. } => {
                if !self.joined {
                    self.fail(req.token, "not joined to the mesh group", req);
                    return;
                }
                let Some(packed) = req.packed.clone() else {
                    self.fail(req.token, "data request without payload", req);
                    return;
                };
                // Estimated channel occupancy: fixed airtime + bytes at the
                // basic rate.
                let airtime = self.timings.mcast_fixed
                    + SimDuration::from_secs_f64(wire_len as f64 / self.timings.mcast_rate_bps);
                self.send_frame(&ControlFrame::Packed(packed), wire_len, wire_len > 4096, api);
                self.next_data_slot += 1;
                let slot = self.next_data_slot % TOKEN_RANGE;
                self.data_inflight.insert(slot, req);
                api.set_timer(self.token_base + TOKEN_DATA_BASE + slot, airtime);
                let _ = dest_omni;
            }
        }
    }

    /// Transmits the consolidated beacon.
    fn tick(&mut self, api: &mut NodeApi<'_>) {
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
            self.scratch.clear();
            frame.encode_into(&mut self.scratch);
            let payload = Bytes::copy_from_slice(&self.scratch);
            let wire = payload.len() as u64;
            api.push(Command::WifiMcastSend { payload, wire_len: wire, bulk: false });
        }
        api.set_timer(self.token_base + TOKEN_TICK, self.tick_interval());
    }

    fn deliver(&self, packed: PackedStruct, from: MeshAddress) {
        if packed.source != self.own_omni {
            self.queues.as_ref().expect("enabled").receive.push(ReceivedItem {
                tech: TechType::WifiMulticast,
                source: LowAddr::Mesh(from),
                packed,
            });
        }
    }

    fn on_multicast(&mut self, from: MeshAddress, payload: &Bytes, api: &mut NodeApi<'_>) -> bool {
        match ControlFrame::decode_shared(payload) {
            Ok(ControlFrame::Packed(packed)) => {
                self.deliver(packed, from);
                true
            }
            Ok(ControlFrame::Batch(packs)) => {
                for p in packs {
                    self.deliver(p, from);
                }
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
    fn attach_obs(&mut self, obs: &omni_obs::Obs) {
        self.failures = Some(obs.counter("tech.wifi-multicast.failures"));
    }

    fn enable(
        &mut self,
        queues: TechQueues,
        token_base: u64,
        api: &mut NodeApi<'_>,
    ) -> (TechType, LowAddr) {
        self.queues = Some(queues);
        self.token_base = token_base;
        self.enabled = true;
        // Join the well-known group and listen for context from the
        // neighborhood. The join completes asynchronously.
        api.push(Command::WifiJoin);
        (TechType::WifiMulticast, LowAddr::Mesh(self.own_mesh))
    }

    fn disable(&mut self, api: &mut NodeApi<'_>) {
        self.enabled = false;
        if let Some(queues) = self.queues.clone() {
            for req in queues.send.drain() {
                self.fail(req.token, "technology disabled", req);
            }
            let inflight: Vec<_> = self.data_inflight.drain().collect();
            for (slot, req) in inflight {
                api.cancel_timer(self.token_base + TOKEN_DATA_BASE + slot);
                self.fail(req.token, "technology disabled", req);
            }
            queues.response.push(TechResponse::StatusChanged {
                tech: TechType::WifiMulticast,
                available: false,
            });
        }
        self.contexts.clear();
        api.cancel_timer(self.token_base + TOKEN_TICK);
        self.tick_armed = false;
        api.push(Command::WifiMcastListen(false));
    }

    fn tech_type(&self) -> TechType {
        TechType::WifiMulticast
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
            NodeEvent::WifiJoined { ok } => {
                if *ok {
                    // Re-assert listening on every (re)join: another
                    // technology may have left the group under us (the TCP
                    // establishment sequence does exactly that).
                    self.joined = true;
                    api.push(Command::WifiMcastListen(true));
                }
                false // other technologies may also be waiting on joins
            }
            NodeEvent::Multicast { from, payload } => self.on_multicast(*from, payload, api),
            NodeEvent::Timer { token } => {
                let Some(offset) = token.checked_sub(self.token_base) else {
                    return false;
                };
                if offset == TOKEN_RESCAN {
                    self.rescan_armed = false;
                    if !self.contexts.is_empty() {
                        api.push(Command::WifiScan);
                        self.arm_rescan(api);
                    }
                    true
                } else if offset == TOKEN_TICK {
                    self.tick(api);
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

    fn mk() -> (WifiMulticastTech, TechQueues) {
        let tech = WifiMulticastTech::new(
            OmniAddress::from_u64(1),
            MeshAddress::from_u64(0xA1),
            LinkTimings::default(),
        );
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

    fn enable_and_join(
        tech: &mut WifiMulticastTech,
        queues: &TechQueues,
        cmds: &mut Vec<(DeviceId, Command)>,
    ) {
        with_api(cmds, |api| {
            tech.enable(queues.clone(), 1 << 32, api);
            tech.on_node_event(&NodeEvent::WifiJoined { ok: true }, api);
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
            assert!(tech.on_node_event(&NodeEvent::Timer { token: tick }, api));
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
        match ControlFrame::decode(&sends[0]).unwrap() {
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
            assert!(tech.on_node_event(&NodeEvent::Timer { token: tick }, api));
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
        let ev = NodeEvent::Multicast {
            from: MeshAddress::from_u64(0xB2),
            payload: ControlFrame::Batch(vec![p1.clone(), p2.clone()]).encode(),
        };
        with_api(&mut cmds, |api| {
            assert!(tech.on_node_event(&ev, api));
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
        let ev =
            NodeEvent::Multicast { from: MeshAddress::from_u64(0xB2), payload: query.encode() };
        with_api(&mut cmds, |api| {
            assert!(tech.on_node_event(&ev, api));
        });
        let sent = cmds.iter().find_map(|(_, c)| match c {
            Command::WifiMcastSend { payload, .. } => Some(payload.clone()),
            _ => None,
        });
        let reply = ControlFrame::decode(&sent.expect("reply sent")).unwrap();
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
        let ev =
            NodeEvent::Multicast { from: MeshAddress::from_u64(0xB2), payload: reply.encode() };
        with_api(&mut cmds, |api| {
            assert!(!tech.on_node_event(&ev, api));
        });
    }

    #[test]
    fn own_multicast_echo_is_dropped() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        enable_and_join(&mut tech, &queues, &mut cmds);
        let packed = PackedStruct::context(OmniAddress::from_u64(1), Bytes::from_static(b"me"));
        let ev = NodeEvent::Multicast {
            from: MeshAddress::from_u64(0xA1),
            payload: ControlFrame::Packed(packed).encode(),
        };
        with_api(&mut cmds, |api| {
            tech.on_node_event(&ev, api);
        });
        assert!(queues.receive.is_empty());
    }

    #[test]
    fn data_before_join_fails_for_fallback() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), 1 << 32, api);
        });
        // Not joined yet.
        queues.send.push(SendRequest {
            token: 3,
            op: SendOp::SendData {
                dest: LowAddr::Mesh(MeshAddress::from_u64(0xB2)),
                dest_omni: OmniAddress::from_u64(9),
                wire_len: 30,
                establish: false,
            },
            packed: Some(PackedStruct::data(OmniAddress::from_u64(1), Bytes::from_static(b"x"))),
        });
        with_api(&mut cmds, |api| tech.poll(api));
        match queues.response.pop() {
            Some(TechResponse::Outcome { token: 3, result: Err(f), .. }) => {
                assert!(f.description.contains("not joined"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
