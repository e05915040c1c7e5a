//! A WiFi-only State-of-the-Practice device.
//!
//! Discovery and small exchanges ride application-level multicast over the
//! mesh ("one of the primary technologies used by state of the art solutions
//! for address sharing and service discovery", paper §3.2); bulk data rides
//! either multicast UDP (the Disseminate SP configuration) or unicast TCP
//! after a hand-rolled service-interaction sequence (leave → scan → join →
//! request/response).

use std::collections::{HashMap, VecDeque};

use bytes::{BufMut, Bytes, BytesMut};
use omni_sim::{Command, ConnId, NodeApi, NodeEvent, SimDuration, Stack};
use omni_wire::MeshAddress;

use super::{SpAddr, SpCtl, SpHandler, SpOp};

const TAG_BEACON: u8 = 0xA1;
const TAG_SMALL: u8 = 0xA2;
const TAG_BULK: u8 = 0xA3;

const APP_TIMER_BASE: u64 = 1 << 20;
const TIMER_BEACON: u64 = 1;
const TIMER_RESCAN: u64 = 2;

/// What each pending multicast completion belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum McastKind {
    Beacon,
    Small,
    Bulk,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetState {
    Joining,
    Up,
    /// `EstablishFresh` in progress: scanning then joining.
    EstablishScan,
    EstablishJoin,
}

#[derive(Debug, Default)]
struct TcpPeer {
    conn: Option<ConnId>,
    connecting: bool,
    queue: VecDeque<(Bytes, u64)>,
    inflight: usize,
}

/// The WiFi-only SP device.
pub struct SpWifiDevice {
    own: MeshAddress,
    handler: Box<dyn SpHandler>,
    beacon: Option<(Bytes, SimDuration)>,
    rescan: SimDuration,
    net: NetState,
    mcast_pending: VecDeque<McastKind>,
    tcp: HashMap<MeshAddress, TcpPeer>,
    conn_peer: HashMap<ConnId, MeshAddress>,
    connect_tokens: HashMap<u64, MeshAddress>,
    next_connect: u64,
}

impl SpWifiDevice {
    /// Creates the device. `rescan` is how often the device rescans for
    /// transient networks while beaconing (the paper's SP "periodic WiFi
    /// scans for relevant networks").
    pub fn new(own: MeshAddress, handler: Box<dyn SpHandler>, rescan: SimDuration) -> Self {
        SpWifiDevice {
            own,
            handler,
            beacon: None,
            rescan,
            net: NetState::Joining,
            mcast_pending: VecDeque::new(),
            tcp: HashMap::new(),
            conn_peer: HashMap::new(),
            connect_tokens: HashMap::new(),
            next_connect: 0,
        }
    }

    fn mcast(&mut self, kind: McastKind, payload: Bytes, wire_len: u64, api: &mut NodeApi<'_>) {
        api.push(Command::WifiMcastSend { payload, wire_len, bulk: kind == McastKind::Bulk });
        self.mcast_pending.push_back(kind);
    }

    fn tcp_send(&mut self, to: MeshAddress, payload: Bytes, wire_len: u64, api: &mut NodeApi<'_>) {
        let peer = self.tcp.entry(to).or_default();
        if let Some(conn) = peer.conn {
            peer.inflight += 1;
            api.push(Command::TcpSend { conn, payload, wire_len });
        } else {
            peer.queue.push_back((payload, wire_len));
            if !peer.connecting {
                peer.connecting = true;
                self.next_connect += 1;
                self.connect_tokens.insert(self.next_connect, to);
                api.push(Command::TcpConnect { token: self.next_connect, peer: to });
            }
        }
    }

    fn apply(&mut self, ops: Vec<SpOp>, api: &mut NodeApi<'_>) {
        for op in ops {
            match op {
                SpOp::SetBeacon { payload, interval } => {
                    self.beacon = Some((payload, interval));
                    api.push(Command::SetTimer { token: TIMER_BEACON, delay: interval });
                    api.push(Command::SetTimer { token: TIMER_RESCAN, delay: self.rescan });
                }
                SpOp::StopBeacon => {
                    self.beacon = None;
                    api.push(Command::CancelTimer { token: TIMER_BEACON });
                    api.push(Command::CancelTimer { token: TIMER_RESCAN });
                }
                SpOp::SendSmall { to: SpAddr::Mesh(dest), payload } => {
                    let mut framed = BytesMut::with_capacity(9 + payload.len());
                    framed.put_u8(TAG_SMALL);
                    framed.put_slice(&dest.0);
                    framed.put_slice(&payload);
                    let wire = framed.len() as u64;
                    self.mcast(McastKind::Small, framed.freeze(), wire, api);
                }
                SpOp::McastBulk { payload, wire_len } => {
                    let mut framed = BytesMut::with_capacity(1 + payload.len());
                    framed.put_u8(TAG_BULK);
                    framed.put_slice(&payload);
                    self.mcast(McastKind::Bulk, framed.freeze(), wire_len, api);
                }
                SpOp::TcpSend { to, payload, wire_len } => {
                    self.tcp_send(to, payload, wire_len, api);
                }
                SpOp::EstablishFresh => {
                    self.net = NetState::EstablishScan;
                    api.push(Command::WifiLeave);
                    api.push(Command::WifiScan);
                }
                SpOp::SetTimer { token, delay } => {
                    api.push(Command::SetTimer { token: APP_TIMER_BASE + token, delay });
                }
                SpOp::CancelTimer { token } => {
                    api.push(Command::CancelTimer { token: APP_TIMER_BASE + token });
                }
                SpOp::InfraRequest { req, total, chunk } => {
                    api.push(Command::InfraRequest { req, total_bytes: total, chunk_bytes: chunk });
                }
                // Operations addressed to another technology's peers are
                // ignored.
                _ => {}
            }
        }
    }

    fn dispatch<F>(&mut self, api: &mut NodeApi<'_>, f: F)
    where
        F: FnOnce(&mut dyn SpHandler, &mut SpCtl),
    {
        let mut ctl = SpCtl::at(api.now);
        f(self.handler.as_mut(), &mut ctl);
        let ops = std::mem::take(&mut ctl.ops);
        self.apply(ops, api);
    }
}

impl Stack for SpWifiDevice {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        match event {
            NodeEvent::Start => {
                api.push(Command::WifiJoin);
                self.dispatch(api, |h, ctl| h.on_start(ctl));
            }
            NodeEvent::WifiJoined => {
                let was = self.net;
                self.net = NetState::Up;
                api.push(Command::WifiMcastListen(true));
                if matches!(was, NetState::EstablishJoin) {
                    self.dispatch(api, |h, ctl| h.on_established(ctl));
                }
            }
            NodeEvent::WifiScanDone { found } if self.net == NetState::EstablishScan => {
                if found.is_empty() {
                    // Nobody around: resume normal operation.
                    self.net = NetState::Joining;
                } else {
                    self.net = NetState::EstablishJoin;
                }
                api.push(Command::WifiJoin);
            }
            // Periodic rescans are fire-and-forget.
            NodeEvent::Timer { token: TIMER_BEACON } => {
                if let Some((payload, interval)) = self.beacon.clone() {
                    if self.net == NetState::Up {
                        let mut framed = BytesMut::with_capacity(1 + payload.len());
                        framed.put_u8(TAG_BEACON);
                        framed.put_slice(&payload);
                        let wire = framed.len() as u64;
                        self.mcast(McastKind::Beacon, framed.freeze(), wire, api);
                    }
                    api.push(Command::SetTimer { token: TIMER_BEACON, delay: interval });
                }
            }
            NodeEvent::Timer { token: TIMER_RESCAN } if self.beacon.is_some() => {
                if self.net == NetState::Up {
                    api.push(Command::WifiScan);
                }
                api.push(Command::SetTimer { token: TIMER_RESCAN, delay: self.rescan });
            }
            NodeEvent::Timer { token } if token >= APP_TIMER_BASE => {
                self.dispatch(api, |h, ctl| h.on_timer(token - APP_TIMER_BASE, ctl));
            }
            NodeEvent::Multicast { from, payload } => match payload.first() {
                Some(&TAG_BEACON) => {
                    let body = payload.slice(1..);
                    self.dispatch(api, |h, ctl| h.on_beacon(SpAddr::Mesh(from), &body, ctl));
                }
                Some(&TAG_SMALL) if payload.len() >= 9 => {
                    let mut dest = [0u8; 8];
                    dest.copy_from_slice(&payload[1..9]);
                    if MeshAddress(dest) == self.own {
                        let body = payload.slice(9..);
                        self.dispatch(api, |h, ctl| h.on_data(SpAddr::Mesh(from), &body, ctl));
                    }
                }
                Some(&TAG_BULK) => {
                    let body = payload.slice(1..);
                    self.dispatch(api, |h, ctl| h.on_data(SpAddr::Mesh(from), &body, ctl));
                }
                _ => {}
            },
            NodeEvent::McastSendComplete => {
                if let Some(kind) = self.mcast_pending.pop_front() {
                    if kind != McastKind::Beacon {
                        self.dispatch(api, |h, ctl| h.on_sent(ctl));
                    }
                }
            }
            NodeEvent::TcpConnectResult { token, result } => {
                if let Some(mesh) = self.connect_tokens.remove(&token) {
                    let peer = self.tcp.entry(mesh).or_default();
                    peer.connecting = false;
                    match result {
                        Ok(conn) => {
                            peer.conn = Some(conn);
                            self.conn_peer.insert(conn, mesh);
                            let queued: Vec<_> = peer.queue.drain(..).collect();
                            for (payload, wire) in queued {
                                self.tcp_send(mesh, payload, wire, api);
                            }
                        }
                        Err(_) => peer.queue.clear(),
                    }
                }
            }
            NodeEvent::TcpIncoming { conn, from } => {
                self.conn_peer.insert(conn, from);
                let peer = self.tcp.entry(from).or_default();
                if peer.conn.is_none() {
                    peer.conn = Some(conn);
                }
            }
            NodeEvent::TcpMessage { conn, payload } => {
                if let Some(&mesh) = self.conn_peer.get(&conn) {
                    self.dispatch(api, |h, ctl| h.on_data(SpAddr::Mesh(mesh), &payload, ctl));
                }
            }
            NodeEvent::TcpSendComplete { conn } => {
                if let Some(&mesh) = self.conn_peer.get(&conn) {
                    if let Some(peer) = self.tcp.get_mut(&mesh) {
                        peer.inflight = peer.inflight.saturating_sub(1);
                    }
                    self.dispatch(api, |h, ctl| h.on_sent(ctl));
                }
            }
            NodeEvent::TcpClosed { conn, .. } => {
                if let Some(mesh) = self.conn_peer.remove(&conn) {
                    if let Some(peer) = self.tcp.get_mut(&mesh) {
                        peer.conn = None;
                        peer.connecting = false;
                        peer.inflight = 0;
                    }
                }
            }
            NodeEvent::InfraChunk { req, received_bytes, done, .. } => {
                self.dispatch(api, |h, ctl| h.on_infra(req, received_bytes, done, ctl));
            }
            _ => {}
        }
    }
}
