//! Unicast TCP over WiFi-Mesh: the high-throughput data technology.
//!
//! Two send paths exist, and the difference between them is the core of the
//! paper's evaluation story (§4.2):
//!
//! * **Direct** (`establish: false`) — the destination's mesh address was
//!   learned through low-level neighbor discovery (a BLE/NFC address beacon)
//!   or a previous direct session. Cost: one TCP connect (milliseconds).
//!   This is Omni's 16 ms path in Table 4.
//! * **Establish** (`establish: true`) — the destination is only known
//!   through application-level multicast discovery, so network-level
//!   connectivity must be built first: scan → join → multicast address
//!   resolution → connect. Cost: seconds. This is the path multi-network
//!   middleware without integrated neighbor discovery always pays.

use std::collections::{HashMap, VecDeque};

use bytes::BytesMut;
use omni_sim::{Command, ConnId, NodeApi, NodeEvent};
use omni_wire::{MeshAddress, OmniAddress, PackedStruct, TechType};

use crate::config::LinkTimings;
use crate::control::ControlFrame;
use crate::queues::{LowAddr, SendOp, SendRequest, TechQueues};
use crate::tech::D2dTechnology;
use crate::techs::pooled;

const TOKEN_RESOLVE_RETRY: u64 = 1;

#[derive(Debug, Default)]
struct PeerConn {
    conn: Option<ConnId>,
    connecting: bool,
    /// Requests waiting for the connection.
    sendq: VecDeque<SendRequest>,
    /// Requests on the wire awaiting `TcpSendComplete`, oldest first.
    inflight: VecDeque<SendRequest>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Scanning,
    Joining,
    Resolving,
}

#[derive(Debug)]
struct Establish {
    dest_omni: OmniAddress,
    phase: Phase,
    attempts: u32,
    reqs: Vec<SendRequest>,
}

/// The unicast-TCP-over-WiFi-Mesh technology.
#[derive(Debug)]
pub struct WifiTcpTech {
    own_omni: OmniAddress,
    own_mesh: MeshAddress,
    timings: LinkTimings,
    /// The port, present exactly while the technology is enabled.
    queues: Option<TechQueues>,
    peers: HashMap<MeshAddress, PeerConn>,
    conn_peer: HashMap<ConnId, MeshAddress>,
    connect_tokens: HashMap<u64, MeshAddress>,
    next_connect_token: u64,
    /// Addresses resolved through the establishment procedure.
    resolved: HashMap<OmniAddress, MeshAddress>,
    establish: Option<Establish>,
    /// Establish-path sends waiting for the current procedure, with their
    /// destinations.
    establish_queue: VecDeque<(OmniAddress, SendRequest)>,
    /// Reusable encode scratch for outgoing frames (DESIGN.md §5i).
    scratch: BytesMut,
}

impl WifiTcpTech {
    /// Creates the technology for a device with the given identity.
    pub fn new(own_omni: OmniAddress, own_mesh: MeshAddress, timings: LinkTimings) -> Self {
        WifiTcpTech {
            own_omni,
            own_mesh,
            timings,
            queues: None,
            peers: HashMap::new(),
            conn_peer: HashMap::new(),
            connect_tokens: HashMap::new(),
            next_connect_token: 0,
            resolved: HashMap::new(),
            establish: None,
            establish_queue: VecDeque::new(),
            scratch: BytesMut::new(),
        }
    }

    fn send_via(&mut self, mesh: MeshAddress, req: SendRequest, api: &mut NodeApi<'_>) {
        let Some(q) = &self.queues else { return };
        let peer = self.peers.entry(mesh).or_default();
        if let Some(conn) = peer.conn {
            let (Some(packed), SendOp::SendData { wire_len, .. }) = (&req.packed, &req.op) else {
                q.fail("malformed data request", req);
                return;
            };
            let encoded = pooled(&mut self.scratch, |buf| packed.encode_into(buf));
            let wire = (*wire_len).max(encoded.len() as u64);
            api.push(Command::TcpSend { conn, payload: encoded, wire_len: wire });
            peer.inflight.push_back(req);
        } else {
            peer.sendq.push_back(req);
            if !peer.connecting {
                peer.connecting = true;
                self.next_connect_token += 1;
                let token = self.next_connect_token;
                self.connect_tokens.insert(token, mesh);
                api.push(Command::TcpConnect { token, peer: mesh });
            }
        }
    }

    fn start_establish(&mut self, dest_omni: OmniAddress, req: SendRequest, api: &mut NodeApi<'_>) {
        self.establish =
            Some(Establish { dest_omni, phase: Phase::Scanning, attempts: 0, reqs: vec![req] });
        // Building connectivity to the peer's service group: leave whatever
        // group we were beaconing on, discover, and associate fresh — the
        // expensive 802.11 sequence (paper §1).
        api.push(Command::WifiLeave);
        api.push(Command::WifiScan);
    }

    fn establish_failed(&mut self, why: &str, api: &mut NodeApi<'_>) {
        let Some(q) = &self.queues else { return };
        for req in self.establish.take().into_iter().flat_map(|est| est.reqs) {
            q.fail(why, req);
        }
        self.next_establish(api);
    }

    fn next_establish(&mut self, api: &mut NodeApi<'_>) {
        if self.establish.is_some() {
            return;
        }
        if let Some((dest_omni, req)) = self.establish_queue.pop_front() {
            if let Some(&mesh) = self.resolved.get(&dest_omni) {
                self.send_via(mesh, req, api);
                self.next_establish(api);
            } else {
                self.start_establish(dest_omni, req, api);
            }
        }
    }

    fn send_resolve(&self, q: &TechQueues, dest_omni: OmniAddress, api: &mut NodeApi<'_>) {
        let frame = ControlFrame::Resolve { target: dest_omni, requester: self.own_omni };
        api.push(Command::WifiMcastSend { payload: frame.encode(), wire_len: 17, bulk: false });
        q.set_timer(api, TOKEN_RESOLVE_RETRY, self.timings.resolve_retry);
    }

    fn handle_request(&mut self, req: SendRequest, api: &mut NodeApi<'_>) {
        let Some(q) = &self.queues else { return };
        let SendOp::SendData { dest, dest_omni, establish, .. } = req.op else {
            // Context operations (including relays) belong to the context
            // technologies.
            q.fail("wifi-tcp carries data only", req);
            return;
        };
        if req.packed.is_none() {
            q.fail("data request without payload", req);
            return;
        }
        if !establish {
            let LowAddr::Mesh(mesh) = dest else {
                q.fail("destination has no mesh address", req);
                return;
            };
            self.send_via(mesh, req, api);
            return;
        }
        // Establishment path.
        if let Some(&mesh) = self.resolved.get(&dest_omni) {
            self.send_via(mesh, req, api);
            return;
        }
        match self.establish.as_mut() {
            Some(est) if est.dest_omni == dest_omni => est.reqs.push(req),
            Some(_) => self.establish_queue.push_back((dest_omni, req)),
            None => self.start_establish(dest_omni, req, api),
        }
    }

    fn on_connect_result(
        &mut self,
        token: u64,
        result: &Result<ConnId, omni_sim::TcpError>,
        api: &mut NodeApi<'_>,
    ) -> bool {
        let Some(q) = &self.queues else { return false };
        let Some(mesh) = self.connect_tokens.remove(&token) else {
            return false;
        };
        let Some(peer) = self.peers.get_mut(&mesh) else {
            return true;
        };
        peer.connecting = false;
        match result {
            Ok(conn) => {
                peer.conn = Some(*conn);
                let queued: Vec<_> = peer.sendq.drain(..).collect();
                self.conn_peer.insert(*conn, mesh);
                for req in queued {
                    self.send_via(mesh, req, api);
                }
            }
            Err(e) => {
                for req in peer.sendq.drain(..) {
                    q.fail(format!("tcp connect failed: {e}"), req);
                }
            }
        }
        true
    }

    fn on_closed(&mut self, conn: ConnId, error: bool) -> bool {
        let Some(q) = &self.queues else { return false };
        let Some(mesh) = self.conn_peer.remove(&conn) else {
            return false;
        };
        if let Some(peer) = self.peers.get_mut(&mesh) {
            peer.conn = None;
            peer.connecting = false;
            let why = if error { "connection lost" } else { "connection closed by peer" };
            for req in peer.inflight.drain(..).chain(peer.sendq.drain(..)) {
                q.fail(why, req);
            }
        }
        true
    }
}

impl D2dTechnology for WifiTcpTech {
    fn enable(&mut self, queues: TechQueues, _api: &mut NodeApi<'_>) -> (TechType, LowAddr) {
        self.queues = Some(queues);
        (TechType::WifiTcp, LowAddr::Mesh(self.own_mesh))
    }

    fn disable(&mut self, api: &mut NodeApi<'_>) {
        let Some(q) = self.queues.take() else { return };
        let mut peers: Vec<_> = self.peers.drain().collect();
        peers.sort_unstable_by_key(|&(mesh, _)| mesh);
        let mut held = Vec::new();
        for (_, peer) in peers {
            if let Some(conn) = peer.conn {
                api.push(Command::TcpClose { conn });
            }
            held.extend(peer.inflight.into_iter().chain(peer.sendq));
        }
        held.extend(self.establish.take().into_iter().flat_map(|est| est.reqs));
        held.extend(self.establish_queue.drain(..).map(|(_, req)| req));
        self.conn_peer.clear();
        q.shut_down(held);
    }

    fn tech_type(&self) -> TechType {
        TechType::WifiTcp
    }

    fn poll(&mut self, api: &mut NodeApi<'_>) {
        while let Some(req) = self.queues.as_ref().and_then(|q| q.send.pop()) {
            self.handle_request(req, api);
        }
    }

    fn on_node_event(&mut self, event: &NodeEvent, api: &mut NodeApi<'_>) -> bool {
        let Some(q) = &self.queues else { return false };
        match event {
            NodeEvent::WifiScanDone { found } => {
                if let Some(est) = self.establish.as_mut() {
                    if est.phase == Phase::Scanning {
                        if found.is_empty() {
                            self.establish_failed("no mesh networks in range", api);
                        } else {
                            est.phase = Phase::Joining;
                            api.push(Command::WifiJoin);
                        }
                    }
                }
                false
            }
            NodeEvent::WifiJoined { ok } => {
                if let Some(est) = self.establish.as_mut() {
                    if est.phase == Phase::Joining {
                        if *ok {
                            est.phase = Phase::Resolving;
                            est.attempts = 1;
                            let dest = est.dest_omni;
                            self.send_resolve(q, dest, api);
                        } else {
                            self.establish_failed("could not join mesh group", api);
                        }
                    }
                }
                false
            }
            NodeEvent::Multicast { payload, .. } => match ControlFrame::decode_shared(payload) {
                Ok(ControlFrame::ResolveReply { addr, mesh }) => {
                    self.resolved.insert(addr, mesh);
                    if let Some(est) = self.establish.as_ref() {
                        if est.phase == Phase::Resolving && est.dest_omni == addr {
                            q.cancel_timer(api, TOKEN_RESOLVE_RETRY);
                            let est = self.establish.take().expect("present");
                            for req in est.reqs {
                                self.send_via(mesh, req, api);
                            }
                            self.next_establish(api);
                        }
                    }
                    true
                }
                _ => false,
            },
            NodeEvent::Timer { .. } if q.timer_offset(event) == Some(TOKEN_RESOLVE_RETRY) => {
                let (dest, give_up) = match self.establish.as_mut() {
                    Some(est) if est.phase == Phase::Resolving => {
                        est.attempts += 1;
                        (est.dest_omni, est.attempts > self.timings.resolve_attempts)
                    }
                    _ => return true,
                };
                if give_up {
                    self.establish_failed("address resolution timed out", api);
                } else {
                    self.send_resolve(q, dest, api);
                }
                true
            }
            NodeEvent::TcpConnectResult { token, result } => {
                self.on_connect_result(*token, result, api)
            }
            NodeEvent::TcpIncoming { conn, from } => {
                self.conn_peer.insert(*conn, *from);
                let peer = self.peers.entry(*from).or_default();
                if peer.conn.is_none() {
                    peer.conn = Some(*conn);
                }
                true
            }
            NodeEvent::TcpMessage { conn, payload } => {
                let Some(&mesh) = self.conn_peer.get(conn) else {
                    return false;
                };
                if let Ok(packed) = PackedStruct::decode_shared(payload) {
                    q.deliver(LowAddr::Mesh(mesh), packed);
                }
                true
            }
            NodeEvent::TcpSendComplete { conn } => {
                let Some(&mesh) = self.conn_peer.get(conn) else {
                    return false;
                };
                if let Some(req) = self.peers.get_mut(&mesh).and_then(|p| p.inflight.pop_front()) {
                    q.succeed(&req);
                }
                true
            }
            NodeEvent::TcpClosed { conn, error } => self.on_closed(*conn, *error),
            _ => false,
        }
    }

    fn has_session(&self, addr: &LowAddr) -> bool {
        match addr {
            LowAddr::Mesh(m) => self.peers.get(m).map(|p| p.conn.is_some()).unwrap_or(false),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::{ResponseOk, TechResponse};
    use crate::techs::testing::{disabled_tokens, port, with_api};
    use bytes::Bytes;
    use omni_sim::TcpError;

    fn mk() -> (WifiTcpTech, TechQueues) {
        let tech = WifiTcpTech::new(
            OmniAddress::from_u64(1),
            MeshAddress::from_u64(0xA1),
            LinkTimings::default(),
        );
        (tech, port(TechType::WifiTcp, 2 << 32))
    }

    fn data_req(token: u64, establish: bool) -> SendRequest {
        data_to(token, 0xB2, 9, establish)
    }

    fn data_to(token: u64, mesh: u64, omni: u64, establish: bool) -> SendRequest {
        SendRequest {
            token,
            op: SendOp::SendData {
                dest: LowAddr::Mesh(MeshAddress::from_u64(mesh)),
                dest_omni: OmniAddress::from_u64(omni),
                wire_len: 30,
                establish,
            },
            packed: Some(PackedStruct::data(OmniAddress::from_u64(1), Bytes::from_static(b"req"))),
        }
    }

    #[test]
    fn direct_send_connects_then_transmits() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), api);
        });
        queues.send.push(data_req(1, false));
        with_api(&mut cmds, |api| tech.poll(api));
        // First a connect, no data yet.
        assert!(cmds.iter().any(|(_, c)| matches!(c, Command::TcpConnect { .. })));
        assert!(!cmds.iter().any(|(_, c)| matches!(c, Command::TcpSend { .. })));
        // Connection succeeds → queued request goes out.
        cmds.clear();
        with_api(&mut cmds, |api| {
            assert!(tech.on_node_event(
                &NodeEvent::TcpConnectResult { token: 1, result: Ok(ConnId(0)) },
                api
            ));
        });
        assert!(cmds.iter().any(|(_, c)| matches!(c, Command::TcpSend { .. })));
        // Completion produces DataSent.
        with_api(&mut cmds, |api| {
            assert!(tech.on_node_event(&NodeEvent::TcpSendComplete { conn: ConnId(0) }, api));
        });
        match queues.response.pop() {
            Some(TechResponse::Outcome {
                token: 1,
                result: Ok(ResponseOk::DataSent { .. }),
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn connect_failure_fails_queued_requests_with_originals() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), api);
        });
        queues.send.push(data_req(1, false));
        queues.send.push(data_req(2, false));
        with_api(&mut cmds, |api| tech.poll(api));
        with_api(&mut cmds, |api| {
            tech.on_node_event(
                &NodeEvent::TcpConnectResult { token: 1, result: Err(TcpError::Unreachable) },
                api,
            );
        });
        let responses = queues.response.drain();
        assert_eq!(responses.len(), 2);
        for r in responses {
            match r {
                TechResponse::Outcome { result: Err(f), .. } => {
                    assert!(f.description.contains("connect failed"));
                    assert!(f.original.packed.is_some(), "original preserved for fallback");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn establish_runs_leave_scan_join_resolve_connect() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), api);
        });
        queues.send.push(data_req(1, true));
        with_api(&mut cmds, |api| tech.poll(api));
        assert!(cmds.iter().any(|(_, c)| matches!(c, Command::WifiLeave)));
        assert!(cmds.iter().any(|(_, c)| matches!(c, Command::WifiScan)));
        cmds.clear();
        with_api(&mut cmds, |api| {
            tech.on_node_event(
                &NodeEvent::WifiScanDone { found: vec![MeshAddress::from_u64(0xB2)] },
                api,
            );
        });
        assert!(cmds.iter().any(|(_, c)| matches!(c, Command::WifiJoin)));
        cmds.clear();
        with_api(&mut cmds, |api| {
            tech.on_node_event(&NodeEvent::WifiJoined { ok: true }, api);
        });
        // A resolve multicast goes out.
        let resolve_sent = cmds.iter().any(|(_, c)| match c {
            Command::WifiMcastSend { payload, .. } => matches!(
                ControlFrame::decode(payload),
                Ok(ControlFrame::Resolve { target, .. }) if target == OmniAddress::from_u64(9)
            ),
            _ => false,
        });
        assert!(resolve_sent);
        cmds.clear();
        // Reply arrives → connect to the resolved address.
        let reply = ControlFrame::ResolveReply {
            addr: OmniAddress::from_u64(9),
            mesh: MeshAddress::from_u64(0xB2),
        };
        with_api(&mut cmds, |api| {
            assert!(tech.on_node_event(
                &NodeEvent::Multicast {
                    from: MeshAddress::from_u64(0xB2),
                    payload: reply.encode()
                },
                api
            ));
        });
        assert!(cmds
            .iter()
            .any(|(_, c)| matches!(c, Command::TcpConnect { peer, .. } if *peer == MeshAddress::from_u64(0xB2))));
    }

    #[test]
    fn resolve_timeout_fails_the_request() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), api);
        });
        queues.send.push(data_req(1, true));
        with_api(&mut cmds, |api| tech.poll(api));
        with_api(&mut cmds, |api| {
            tech.on_node_event(
                &NodeEvent::WifiScanDone { found: vec![MeshAddress::from_u64(0xB2)] },
                api,
            );
            tech.on_node_event(&NodeEvent::WifiJoined { ok: true }, api);
        });
        // Exhaust the retries.
        let retry_token = (2u64 << 32) + TOKEN_RESOLVE_RETRY;
        for _ in 0..=LinkTimings::default().resolve_attempts {
            with_api(&mut cmds, |api| {
                tech.on_node_event(&NodeEvent::Timer { token: retry_token }, api);
            });
        }
        let responses = queues.response.drain();
        assert!(responses.iter().any(|r| matches!(
            r,
            TechResponse::Outcome { token: 1, result: Err(f), .. } if f.description.contains("timed out")
        )));
    }

    #[test]
    fn incoming_connections_are_reused_for_replies() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), api);
        });
        with_api(&mut cmds, |api| {
            tech.on_node_event(
                &NodeEvent::TcpIncoming { conn: ConnId(5), from: MeshAddress::from_u64(0xB2) },
                api,
            );
        });
        assert!(tech.has_session(&LowAddr::Mesh(MeshAddress::from_u64(0xB2))));
        cmds.clear();
        queues.send.push(data_req(3, false));
        with_api(&mut cmds, |api| tech.poll(api));
        // No new connect: the incoming connection carries the reply.
        assert!(!cmds.iter().any(|(_, c)| matches!(c, Command::TcpConnect { .. })));
        assert!(cmds.iter().any(|(_, c)| matches!(c, Command::TcpSend { conn: ConnId(5), .. })));
    }

    #[test]
    fn received_messages_reach_the_receive_queue() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), api);
        });
        with_api(&mut cmds, |api| {
            tech.on_node_event(
                &NodeEvent::TcpIncoming { conn: ConnId(5), from: MeshAddress::from_u64(0xB2) },
                api,
            );
        });
        let packed = PackedStruct::data(OmniAddress::from_u64(9), Bytes::from_static(b"payload"));
        with_api(&mut cmds, |api| {
            assert!(tech.on_node_event(
                &NodeEvent::TcpMessage { conn: ConnId(5), payload: packed.encode() },
                api
            ));
        });
        let item = queues.receive.pop().expect("received");
        assert_eq!(item.tech, TechType::WifiTcp);
        assert_eq!(item.source, LowAddr::Mesh(MeshAddress::from_u64(0xB2)));
        assert_eq!(item.packed, packed);
    }

    #[test]
    fn disable_fails_every_held_request_in_token_order() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), api);
            for (conn, mesh) in [(5, 0xB5), (6, 0xB9), (7, 0xB2)] {
                let from = MeshAddress::from_u64(mesh);
                tech.on_node_event(&NodeEvent::TcpIncoming { conn: ConnId(conn), from }, api);
            }
        });
        // On the wire to three connected peers, waiting for a connect to a
        // fourth, establishing a route to one destination and queued behind
        // it for another.
        for req in [
            data_to(7, 0xB5, 9, false),
            data_to(2, 0xB9, 9, false),
            data_to(9, 0xB2, 9, false),
            data_to(4, 0xB1, 9, false),
            data_to(6, 0xB3, 10, true),
            data_to(3, 0xB4, 11, true),
            data_to(8, 0xB3, 10, true),
        ] {
            queues.send.push(req);
        }
        with_api(&mut cmds, |api| tech.poll(api));
        for token in [5, 1] {
            queues.send.push(data_req(token, false));
        }
        cmds.clear();
        with_api(&mut cmds, |api| tech.disable(api));
        assert_eq!(disabled_tokens(queues.response.drain()), [1, 2, 3, 4, 5, 6, 7, 8, 9]);
        // Connections close in mesh-address order.
        let closed: Vec<ConnId> = cmds
            .iter()
            .filter_map(|(_, c)| match c {
                Command::TcpClose { conn } => Some(*conn),
                _ => None,
            })
            .collect();
        assert_eq!(closed, [ConnId(7), ConnId(5), ConnId(6)]);
        with_api(&mut cmds, |api| {
            assert!(!tech.on_node_event(&NodeEvent::TcpSendComplete { conn: ConnId(5) }, api));
        });
        queues.send.push(data_req(10, false));
        with_api(&mut cmds, |api| tech.poll(api));
        assert!(queues.response.is_empty());
    }

    #[test]
    fn connection_loss_fails_inflight_requests() {
        let (mut tech, queues) = mk();
        let mut cmds = Vec::new();
        with_api(&mut cmds, |api| {
            tech.enable(queues.clone(), api);
        });
        queues.send.push(data_req(1, false));
        with_api(&mut cmds, |api| tech.poll(api));
        with_api(&mut cmds, |api| {
            tech.on_node_event(
                &NodeEvent::TcpConnectResult { token: 1, result: Ok(ConnId(0)) },
                api,
            );
        });
        // Now the request is inflight; the connection dies.
        with_api(&mut cmds, |api| {
            tech.on_node_event(&NodeEvent::TcpClosed { conn: ConnId(0), error: true }, api);
        });
        let responses = queues.response.drain();
        assert!(responses.iter().any(|r| matches!(
            r,
            TechResponse::Outcome { token: 1, result: Err(f), .. } if f.description.contains("lost")
        )));
        assert!(!tech.has_session(&LowAddr::Mesh(MeshAddress::from_u64(0xB2))));
    }
}
