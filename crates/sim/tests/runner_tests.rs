//! Integration tests for the simulation runner: radios, timing, energy.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use omni_sim::{
    ChurnWindow, Command, ConnId, DeviceCaps, DeviceId, EnergyState, FaultConfig, NodeApi,
    NodeEvent, Position, Runner, SimConfig, SimDuration, SimTime, Stack, TcpError,
};

/// A scriptable stack for tests: runs `on_start` commands, records every
/// event, and lets tests inject reactions.
type Reaction = Box<dyn FnMut(&NodeEvent, &mut NodeApi<'_>)>;

#[derive(Default)]
struct Probe {
    log: Rc<RefCell<Vec<(SimTime, String)>>>,
    start_cmds: Vec<Command>,
    reaction: Option<Reaction>,
}

impl Probe {
    #[allow(clippy::type_complexity)]
    fn new() -> (Self, Rc<RefCell<Vec<(SimTime, String)>>>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        (Probe { log: log.clone(), start_cmds: Vec::new(), reaction: None }, log)
    }

    fn with_start(mut self, cmds: Vec<Command>) -> Self {
        self.start_cmds = cmds;
        self
    }

    fn with_reaction(mut self, f: impl FnMut(&NodeEvent, &mut NodeApi<'_>) + 'static) -> Self {
        self.reaction = Some(Box::new(f));
        self
    }
}

fn label(ev: &NodeEvent) -> String {
    match ev {
        NodeEvent::Start => "start".into(),
        NodeEvent::Timer { token } => format!("timer:{token}"),
        NodeEvent::BleBeacon { payload, .. } => {
            format!("beacon:{}", String::from_utf8_lossy(payload))
        }
        NodeEvent::BleOneShot { payload, .. } => {
            format!("oneshot:{}", String::from_utf8_lossy(payload))
        }
        NodeEvent::BleOneShotSent => "oneshot-sent".into(),
        NodeEvent::WifiScanDone { found } => format!("scan-done:{}", found.len()),
        NodeEvent::WifiJoined => "joined".into(),
        NodeEvent::WifiLeft => "left".into(),
        NodeEvent::Multicast { payload, .. } => {
            format!("mcast:{}", String::from_utf8_lossy(payload))
        }
        NodeEvent::TcpConnectResult { result, .. } => match result {
            Ok(c) => format!("connected:{}", c.0),
            Err(e) => format!("connect-err:{e}"),
        },
        NodeEvent::TcpIncoming { conn, .. } => format!("incoming:{}", conn.0),
        NodeEvent::TcpMessage { payload, .. } => {
            format!("msg:{}", String::from_utf8_lossy(payload))
        }
        NodeEvent::TcpSendComplete { conn } => format!("sent:{}", conn.0),
        NodeEvent::TcpClosed { error, .. } => format!("closed:{error}"),
        NodeEvent::NfcReceived { payload, .. } => {
            format!("nfc:{}", String::from_utf8_lossy(payload))
        }
        NodeEvent::InfraChunk { chunk, done, .. } => format!("infra:{chunk}:{done}"),
        _ => "other".into(),
    }
}

impl Stack for Probe {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        self.log.borrow_mut().push((api.now, label(&event)));
        if matches!(event, NodeEvent::Start) {
            for c in self.start_cmds.drain(..) {
                api.push(c);
            }
        }
        if let Some(r) = self.reaction.as_mut() {
            r(&event, api);
        }
    }
}

fn two_device_sim() -> (Runner, DeviceId, DeviceId) {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    (sim, a, b)
}

#[test]
fn timers_fire_once_at_the_right_time() {
    let (mut sim, a, _) = two_device_sim();
    let (probe, log) = Probe::new();
    sim.set_stack(
        a,
        Box::new(probe.with_start(vec![Command::SetTimer {
            token: 42,
            delay: SimDuration::from_millis(750),
        }])),
    );
    sim.run_until(SimTime::from_secs(5));
    let log = log.borrow();
    let timers: Vec<_> = log.iter().filter(|(_, l)| l == "timer:42").collect();
    assert_eq!(timers.len(), 1);
    assert_eq!(timers[0].0, SimTime::from_millis(750));
}

#[test]
fn rearming_a_timer_replaces_the_pending_one() {
    let (mut sim, a, _) = two_device_sim();
    let (probe, log) = Probe::new();
    sim.set_stack(
        a,
        Box::new(probe.with_start(vec![
            Command::SetTimer { token: 1, delay: SimDuration::from_millis(100) },
            Command::SetTimer { token: 1, delay: SimDuration::from_millis(300) },
        ])),
    );
    sim.run_until(SimTime::from_secs(1));
    let log = log.borrow();
    let timers: Vec<_> = log.iter().filter(|(_, l)| l == "timer:1").collect();
    assert_eq!(timers.len(), 1, "re-arming must cancel the first");
    assert_eq!(timers[0].0, SimTime::from_millis(300));
}

#[test]
fn cancelled_timers_do_not_fire() {
    let (mut sim, a, _) = two_device_sim();
    let (probe, log) = Probe::new();
    sim.set_stack(
        a,
        Box::new(probe.with_start(vec![
            Command::SetTimer { token: 9, delay: SimDuration::from_millis(100) },
            Command::CancelTimer { token: 9 },
        ])),
    );
    sim.run_until(SimTime::from_secs(1));
    assert!(log.borrow().iter().all(|(_, l)| !l.starts_with("timer")));
}

#[test]
fn periodic_beacons_reach_continuous_scanners() {
    let (mut sim, a, b) = two_device_sim();
    let (tx, _txlog) = Probe::new();
    let (rx, rxlog) = Probe::new();
    sim.set_stack(
        a,
        Box::new(tx.with_start(vec![Command::BleAdvertiseSet {
            slot: 0,
            payload: Bytes::from_static(b"svc"),
            interval: SimDuration::from_millis(500),
        }])),
    );
    sim.set_stack(b, Box::new(rx.with_start(vec![Command::BleSetScan { duty: Some(1.0) }])));
    sim.run_until(SimTime::from_secs(10));
    let beacons = rxlog.borrow().iter().filter(|(_, l)| l == "beacon:svc").count();
    // ~20 beacons in 10 s at 500 ms interval (first tick is jittered).
    assert!((18..=21).contains(&beacons), "got {beacons} beacons");
}

#[test]
fn beacons_do_not_reach_out_of_range_or_non_scanning_devices() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let far = sim.add_device(DeviceCaps::PI, Position::new(500.0, 0.0));
    let deaf = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let (tx, _) = Probe::new();
    let (rx_far, far_log) = Probe::new();
    let (rx_deaf, deaf_log) = Probe::new();
    sim.set_stack(
        a,
        Box::new(tx.with_start(vec![Command::BleAdvertiseSet {
            slot: 0,
            payload: Bytes::from_static(b"x"),
            interval: SimDuration::from_millis(500),
        }])),
    );
    sim.set_stack(far, Box::new(rx_far.with_start(vec![Command::BleSetScan { duty: Some(1.0) }])));
    sim.set_stack(deaf, Box::new(rx_deaf)); // never scans
    sim.run_until(SimTime::from_secs(5));
    assert!(far_log.borrow().iter().all(|(_, l)| !l.starts_with("beacon")));
    assert!(deaf_log.borrow().iter().all(|(_, l)| !l.starts_with("beacon")));
}

#[test]
fn duty_cycled_scanner_catches_a_fraction_of_beacons() {
    let (mut sim, a, b) = two_device_sim();
    let (tx, _) = Probe::new();
    let (rx, rxlog) = Probe::new();
    sim.set_stack(
        a,
        Box::new(tx.with_start(vec![Command::BleAdvertiseSet {
            slot: 0,
            payload: Bytes::from_static(b"x"),
            interval: SimDuration::from_millis(100),
        }])),
    );
    sim.set_stack(b, Box::new(rx.with_start(vec![Command::BleSetScan { duty: Some(0.2) }])));
    sim.run_until(SimTime::from_secs(100));
    let got = rxlog.borrow().iter().filter(|(_, l)| l.starts_with("beacon")).count();
    // ~1000 beacons sent; expect ~200 caught. Allow generous slack.
    assert!((120..=300).contains(&got), "duty-cycled scanner caught {got}");
}

#[test]
fn one_shot_ble_has_the_calibrated_rendezvous_latency() {
    let (mut sim, a, b) = two_device_sim();
    let (tx, txlog) = Probe::new();
    let (rx, rxlog) = Probe::new();
    // Delay the send so the receiver has processed Start and is scanning.
    sim.set_stack(
        a,
        Box::new(
            tx.with_start(vec![
                Command::BleSetScan { duty: Some(1.0) },
                Command::SetTimer { token: 1, delay: SimDuration::from_millis(100) },
            ])
            .with_reaction(|ev, api| {
                if matches!(ev, NodeEvent::Timer { token: 1 }) {
                    api.push(Command::BleSendOneShot { payload: Bytes::from_static(b"req") });
                }
            }),
        ),
    );
    sim.set_stack(b, Box::new(rx.with_start(vec![Command::BleSetScan { duty: Some(1.0) }])));
    sim.run_until(SimTime::from_secs(1));
    let rxlog = rxlog.borrow();
    let got = rxlog.iter().find(|(_, l)| l == "oneshot:req").expect("delivered");
    assert_eq!(got.0, SimTime::from_millis(141));
    assert!(txlog.borrow().iter().any(|(_, l)| l == "oneshot-sent"));
}

#[test]
fn tcp_connect_and_transfer_timing() {
    let (mut sim, a, b) = two_device_sim();
    let peer = sim.mesh_addr(b);
    let (initiator, alog) = Probe::new();
    let initiator = initiator
        .with_start(vec![Command::TcpConnect { token: 7, peer }])
        .with_reaction(move |ev, api| {
            if let NodeEvent::TcpConnectResult { result: Ok(conn), .. } = ev {
                api.push(Command::TcpSend {
                    conn: *conn,
                    payload: Bytes::from_static(b"hello"),
                    wire_len: 8_100_000, // exactly 1 s at capacity (plus overhead)
                });
            }
        });
    let (responder, blog) = Probe::new();
    sim.set_stack(a, Box::new(initiator));
    sim.set_stack(b, Box::new(responder));
    sim.run_until(SimTime::from_secs(3));
    let alog = alog.borrow();
    let blog = blog.borrow();
    let connected = alog.iter().find(|(_, l)| l.starts_with("connected")).unwrap();
    assert_eq!(connected.0, SimTime::from_millis(6), "tcp connect takes 6 ms");
    assert!(blog.iter().any(|(_, l)| l.starts_with("incoming")));
    let msg = blog.iter().find(|(_, l)| l == "msg:hello").unwrap();
    let secs = msg.0.as_secs_f64();
    assert!((secs - 1.006).abs() < 0.001, "1 s transfer after connect, got {secs}");
    assert!(alog.iter().any(|(_, l)| l.starts_with("sent")));
}

#[test]
fn tcp_connect_to_unreachable_peer_fails() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5000.0, 0.0));
    let peer = sim.mesh_addr(b);
    let (p, log) = Probe::new();
    sim.set_stack(a, Box::new(p.with_start(vec![Command::TcpConnect { token: 1, peer }])));
    sim.run_until(SimTime::from_secs(1));
    assert!(log
        .borrow()
        .iter()
        .any(|(_, l)| *l == format!("connect-err:{}", TcpError::Unreachable)));
}

#[test]
fn two_concurrent_flows_halve_throughput() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let c = sim.add_device(DeviceCaps::PI, Position::new(10.0, 0.0));
    let d = sim.add_device(DeviceCaps::PI, Position::new(15.0, 0.0));
    let mk = |peer| {
        let (p, log) = Probe::new();
        (
            p.with_start(vec![Command::TcpConnect { token: 0, peer }]).with_reaction(
                move |ev, api| {
                    if let NodeEvent::TcpConnectResult { result: Ok(conn), .. } = ev {
                        api.push(Command::TcpSend {
                            conn: *conn,
                            payload: Bytes::new(),
                            wire_len: 8_100_000,
                        });
                    }
                },
            ),
            log,
        )
    };
    let (sa, _) = mk(sim.mesh_addr(b));
    let (sc, _) = mk(sim.mesh_addr(d));
    let (rb, blog) = Probe::new();
    let (rd, dlog) = Probe::new();
    sim.set_stack(a, Box::new(sa));
    sim.set_stack(c, Box::new(sc));
    sim.set_stack(b, Box::new(rb));
    sim.set_stack(d, Box::new(rd));
    sim.run_until(SimTime::from_secs(5));
    for log in [blog, dlog] {
        let log = log.borrow();
        let msg = log.iter().find(|(_, l)| l.starts_with("msg:")).expect("delivered");
        let secs = msg.0.as_secs_f64();
        // Two 1 s-each flows sharing the channel finish together at ~2 s.
        assert!((secs - 2.006).abs() < 0.01, "shared channel, got {secs}");
    }
}

/// A flow reaches zero bytes up to a few µs before its boundary event. A
/// send on another connection in that window must not swallow it: the
/// medium's update then finds the flow complete, and it is still delivered.
#[test]
fn a_flow_completing_as_another_pair_sends_is_still_delivered() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let c = sim.add_device(DeviceCaps::PI, Position::new(10.0, 0.0));
    let d = sim.add_device(DeviceCaps::PI, Position::new(15.0, 0.0));
    let (pa, alog) = Probe::new();
    let pa = pa
        .with_start(vec![Command::TcpConnect { token: 0, peer: sim.mesh_addr(b) }])
        .with_reaction(|ev, api| {
            if let NodeEvent::TcpConnectResult { result: Ok(conn), .. } = ev {
                // Connected at 6 ms: 8.1 MB alone on the channel ends at
                // exactly 1.006000 s, and its boundary is due 1 µs later.
                for (payload, wire_len) in [(&b"first"[..], 8_099_940), (b"second", 100)] {
                    api.push(Command::TcpSend {
                        conn: *conn,
                        payload: Bytes::from_static(payload),
                        wire_len,
                    });
                }
            }
        });
    let (pc, _) = Probe::new();
    let mut cd = None;
    let pc = pc
        .with_start(vec![
            Command::TcpConnect { token: 0, peer: sim.mesh_addr(d) },
            Command::SetTimer { token: 1, delay: SimDuration::from_micros(1_006_000) },
        ])
        .with_reaction(move |ev, api| match ev {
            NodeEvent::TcpConnectResult { result: Ok(conn), .. } => cd = Some(*conn),
            NodeEvent::Timer { token: 1 } => api.push(Command::TcpSend {
                conn: cd.expect("c is connected to d"),
                payload: Bytes::from_static(b"late"),
                wire_len: 10,
            }),
            _ => {}
        });
    let (pb, blog) = Probe::new();
    let (pd, _) = Probe::new();
    sim.set_stack(a, Box::new(pa));
    sim.set_stack(b, Box::new(pb));
    sim.set_stack(c, Box::new(pc));
    sim.set_stack(d, Box::new(pd));
    sim.run_until(SimTime::from_secs(3));
    let blog = blog.borrow();
    let got = |label: &str| blog.iter().any(|(_, l)| l == label);
    assert!(got("msg:first"), "first message lost: {blog:?}");
    assert!(got("msg:second"), "second message stuck behind the first: {blog:?}");
    let sent = alog.borrow().iter().filter(|(_, l)| l.starts_with("sent:")).count();
    assert_eq!(sent, 2, "the sender hears of both messages");
}

#[test]
fn multicast_requires_join_and_stalls_unicast() {
    let (mut sim, a, b) = two_device_sim();
    // Join both sides, then multicast from a while b listens.
    let (pa, _alog) = Probe::new();
    let pa = pa.with_start(vec![Command::WifiJoin]).with_reaction(move |ev, api| {
        if matches!(ev, NodeEvent::WifiJoined) {
            api.push(Command::WifiMcastSend {
                payload: Bytes::from_static(b"adv"),
                wire_len: 30,
                bulk: false,
            });
        }
    });
    let (pb, blog) = Probe::new();
    let pb = pb.with_start(vec![Command::WifiJoin]).with_reaction(move |ev, api| {
        if matches!(ev, NodeEvent::WifiJoined) {
            api.push(Command::WifiMcastListen(true));
        }
    });
    sim.set_stack(a, Box::new(pa));
    sim.set_stack(b, Box::new(pb));
    sim.run_until(SimTime::from_secs(5));
    let blog = blog.borrow();
    let got = blog.iter().find(|(_, l)| l == "mcast:adv").expect("multicast delivered");
    // join (1200 ms) + fixed airtime (30 ms) + 30 B at 166 KB/s (~0.18 ms).
    let secs = got.0.as_secs_f64();
    assert!((secs - 1.2302).abs() < 0.002, "got {secs}");
}

/// A joined radio hears that it left the group, whether it left or was
/// powered off; a radio that was not joined hears nothing.
#[test]
fn a_joined_radio_hears_that_it_left() {
    let (mut sim, a, b) = two_device_sim();
    let mut logs = Vec::new();
    for (dev, out) in [(a, Command::WifiLeave), (b, Command::WifiPower(false))] {
        let (p, log) = Probe::new();
        let start = vec![Command::WifiLeave, Command::WifiJoin];
        let p = p.with_start(start).with_reaction(move |ev, api| {
            if matches!(ev, NodeEvent::WifiJoined) {
                api.push(out.clone());
                api.push(out.clone());
            }
        });
        sim.set_stack(dev, Box::new(p));
        logs.push(log);
    }
    sim.run_until(SimTime::from_secs(5));
    for log in logs {
        let wifi: Vec<String> = log
            .borrow()
            .iter()
            .filter(|(_, l)| l == "joined" || l == "left")
            .map(|(t, l)| format!("{}:{l}", t.as_millis()))
            .collect();
        assert_eq!(wifi, ["1200:joined", "1200:left"]);
    }
}

#[test]
fn multicast_to_non_listening_devices_is_dropped() {
    let (mut sim, a, b) = two_device_sim();
    let (pa, _) = Probe::new();
    let pa = pa.with_start(vec![Command::WifiJoin]).with_reaction(move |ev, api| {
        if matches!(ev, NodeEvent::WifiJoined) {
            api.push(Command::WifiMcastSend {
                payload: Bytes::from_static(b"x"),
                wire_len: 30,
                bulk: false,
            });
        }
    });
    // b joins but never listens.
    let (pb, blog) = Probe::new();
    sim.set_stack(a, Box::new(pa));
    sim.set_stack(b, Box::new(pb.with_start(vec![Command::WifiJoin])));
    sim.run_until(SimTime::from_secs(3));
    assert!(blog.borrow().iter().all(|(_, l)| !l.starts_with("mcast")));
}

#[test]
fn wifi_scan_finds_powered_neighbors_and_takes_scan_time() {
    let (mut sim, a, _b) = two_device_sim();
    let (p, log) = Probe::new();
    sim.set_stack(a, Box::new(p.with_start(vec![Command::WifiScan])));
    sim.run_until(SimTime::from_secs(3));
    let log = log.borrow();
    let done = log.iter().find(|(_, l)| l.starts_with("scan-done")).unwrap();
    assert_eq!(done.0, SimTime::from_millis(1300));
    assert_eq!(done.1, "scan-done:1");
}

#[test]
fn infra_download_delivers_chunks_at_rate() {
    let (mut sim, a, _) = two_device_sim();
    sim.set_infra_rate(a, 100_000.0); // 100 KB/s
    let (p, log) = Probe::new();
    sim.set_stack(
        a,
        Box::new(p.with_start(vec![Command::InfraRequest {
            req: 1,
            total_bytes: 300_000,
            chunk_bytes: 100_000,
        }])),
    );
    sim.run_until(SimTime::from_secs(10));
    let log = log.borrow();
    let chunks: Vec<_> = log.iter().filter(|(_, l)| l.starts_with("infra")).collect();
    assert_eq!(chunks.len(), 3);
    assert_eq!(chunks[0].0, SimTime::from_secs(1));
    assert_eq!(chunks[2].0, SimTime::from_secs(3));
    assert_eq!(chunks[2].1, "infra:2:true");
}

#[test]
fn teleport_breaks_connections_with_error() {
    let (mut sim, a, b) = two_device_sim();
    let peer = sim.mesh_addr(b);
    let (pa, alog) = Probe::new();
    let pa = pa.with_start(vec![Command::TcpConnect { token: 0, peer }]).with_reaction(
        move |ev, api| {
            if let NodeEvent::TcpConnectResult { result: Ok(conn), .. } = ev {
                // A long transfer that the teleport will interrupt.
                api.push(Command::TcpSend {
                    conn: *conn,
                    payload: Bytes::new(),
                    wire_len: 81_000_000,
                });
            }
        },
    );
    let (pb, blog) = Probe::new();
    sim.set_stack(a, Box::new(pa));
    sim.set_stack(b, Box::new(pb));
    sim.schedule_teleport(b, SimTime::from_secs(2), Position::new(10_000.0, 0.0));
    sim.run_until(SimTime::from_secs(15));
    assert!(alog.borrow().iter().any(|(_, l)| l == "closed:true"));
    assert!(blog.borrow().iter().any(|(_, l)| l == "closed:true"));
    // The message never arrived.
    assert!(blog.borrow().iter().all(|(_, l)| !l.starts_with("msg")));
}

#[test]
fn wifi_standby_energy_accrues_from_creation() {
    let (mut sim, a, _) = two_device_sim();
    sim.run_until(SimTime::from_secs(60));
    let avg = sim.energy().average_ma(a, SimTime::ZERO, SimTime::from_secs(60));
    assert!((avg - 92.1).abs() < 0.01, "standby-only average, got {avg}");
}

#[test]
fn ble_scan_energy_scales_with_duty() {
    let (mut sim, a, b) = two_device_sim();
    let (pa, _) = Probe::new();
    let (pb, _) = Probe::new();
    sim.set_stack(a, Box::new(pa.with_start(vec![Command::BleSetScan { duty: Some(1.0) }])));
    sim.set_stack(b, Box::new(pb.with_start(vec![Command::BleSetScan { duty: Some(0.1) }])));
    sim.run_until(SimTime::from_secs(100));
    let e = sim.energy();
    let full = e.average_ma(a, SimTime::ZERO, SimTime::from_secs(100)) - 92.1;
    let duty = e.average_ma(b, SimTime::ZERO, SimTime::from_secs(100)) - 92.1;
    assert!((full - 7.0).abs() < 0.01, "continuous scan ≈ 7.0 mA, got {full}");
    assert!((duty - 0.7).abs() < 0.01, "10% duty ≈ 0.7 mA, got {duty}");
}

#[test]
fn powering_wifi_off_stops_standby_draw() {
    let (mut sim, a, _) = two_device_sim();
    let (p, _) = Probe::new();
    sim.set_stack(a, Box::new(p.with_start(vec![Command::WifiPower(false)])));
    sim.run_until(SimTime::from_secs(100));
    let avg = sim.energy().average_ma(a, SimTime::ZERO, SimTime::from_secs(100));
    assert!(avg < 0.01, "no draw with all radios idle/off, got {avg}");
    assert!(!sim.wifi_on(a));
}

#[test]
fn transfer_energy_charges_both_endpoints() {
    let (mut sim, a, b) = two_device_sim();
    let peer = sim.mesh_addr(b);
    let (pa, _) = Probe::new();
    let pa = pa.with_start(vec![Command::TcpConnect { token: 0, peer }]).with_reaction(
        move |ev, api| {
            if let NodeEvent::TcpConnectResult { result: Ok(conn), .. } = ev {
                api.push(Command::TcpSend {
                    conn: *conn,
                    payload: Bytes::new(),
                    wire_len: 8_100_000, // ~1 s on air
                });
            }
        },
    );
    let (pb, _) = Probe::new();
    sim.set_stack(a, Box::new(pa));
    sim.set_stack(b, Box::new(pb));
    sim.run_until(SimTime::from_secs(10));
    let e = sim.energy();
    // Each endpoint: 92.1 standby + (183.3 + 162.4) for ~1 s of 10 s.
    let expect = 92.1 + (183.3 + 162.4) / 10.0;
    for d in [a, b] {
        let avg = e.average_ma(d, SimTime::ZERO, SimTime::from_secs(10));
        assert!((avg - expect).abs() < 2.0, "endpoint {d}: {avg} vs {expect}");
    }
    assert!(!e.is_active(a, EnergyState::WifiTx), "flow states released");
}

#[test]
fn nfc_exchange_requires_touch_range() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PHONE, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PHONE, Position::new(0.1, 0.0));
    let c = sim.add_device(DeviceCaps::PHONE, Position::new(5.0, 0.0));
    let (pa, _) = Probe::new();
    let (pb, blog) = Probe::new();
    let (pc, clog) = Probe::new();
    sim.set_stack(
        a,
        Box::new(pa.with_start(vec![Command::NfcSend { payload: Bytes::from_static(b"tag") }])),
    );
    sim.set_stack(b, Box::new(pb));
    sim.set_stack(c, Box::new(pc));
    sim.run_until(SimTime::from_secs(1));
    assert!(blog.borrow().iter().any(|(_, l)| l == "nfc:tag"));
    assert!(clog.borrow().iter().all(|(_, l)| !l.starts_with("nfc")));
}

#[test]
fn identical_seeds_reproduce_identical_histories() {
    let run = || {
        let (mut sim, a, b) = two_device_sim();
        let (pa, _) = Probe::new();
        let (pb, blog) = Probe::new();
        sim.set_stack(
            a,
            Box::new(pa.with_start(vec![Command::BleAdvertiseSet {
                slot: 0,
                payload: Bytes::from_static(b"x"),
                interval: SimDuration::from_millis(500),
            }])),
        );
        sim.set_stack(b, Box::new(pb.with_start(vec![Command::BleSetScan { duty: Some(0.3) }])));
        sim.run_until(SimTime::from_secs(30));
        let v: Vec<(u64, String)> =
            blog.borrow().iter().map(|(t, l)| (t.as_micros(), l.clone())).collect();
        v
    };
    assert_eq!(run(), run());
}

#[test]
fn per_connection_messages_are_fifo() {
    let (mut sim, a, b) = two_device_sim();
    let peer = sim.mesh_addr(b);
    let (pa, _) = Probe::new();
    let pa = pa.with_start(vec![Command::TcpConnect { token: 0, peer }]).with_reaction(
        move |ev, api| {
            if let NodeEvent::TcpConnectResult { result: Ok(conn), .. } = ev {
                for (i, size) in [(0u8, 4_000_000u64), (1, 40_000), (2, 40)] {
                    api.push(Command::TcpSend {
                        conn: *conn,
                        payload: Bytes::from(vec![i]),
                        wire_len: size,
                    });
                }
            }
        },
    );
    let (pb, blog) = Probe::new();
    sim.set_stack(a, Box::new(pa));
    sim.set_stack(b, Box::new(pb));
    sim.run_until(SimTime::from_secs(10));
    let order: Vec<String> = blog
        .borrow()
        .iter()
        .filter(|(_, l)| l.starts_with("msg:"))
        .map(|(_, l)| l.clone())
        .collect();
    assert_eq!(order.len(), 3);
    // FIFO despite wildly different sizes.
    assert_eq!(order[0], format!("msg:{}", String::from_utf8_lossy(&[0])));
    assert_eq!(order[2], format!("msg:{}", String::from_utf8_lossy(&[2])));
}

#[test]
fn graceful_close_notifies_peer_without_error() {
    let (mut sim, a, b) = two_device_sim();
    let peer = sim.mesh_addr(b);
    let conn_holder: Rc<RefCell<Option<ConnId>>> = Rc::new(RefCell::new(None));
    let holder = conn_holder.clone();
    let (pa, alog) = Probe::new();
    let pa = pa.with_start(vec![Command::TcpConnect { token: 0, peer }]).with_reaction(
        move |ev, api| {
            if let NodeEvent::TcpConnectResult { result: Ok(conn), .. } = ev {
                *holder.borrow_mut() = Some(*conn);
                api.push(Command::TcpClose { conn: *conn });
            }
        },
    );
    let (pb, blog) = Probe::new();
    sim.set_stack(a, Box::new(pa));
    sim.set_stack(b, Box::new(pb));
    sim.run_until(SimTime::from_secs(1));
    assert!(conn_holder.borrow().is_some());
    assert!(blog.borrow().iter().any(|(_, l)| l == "closed:false"));
    // The closer already knows: it hears no close of its own.
    assert!(!alog.borrow().iter().any(|(_, l)| l.starts_with("closed:")));
}

#[test]
fn walk_moves_continuously_and_arrives_exactly() {
    let (mut sim, a, b) = two_device_sim();
    let (pa, _) = Probe::new();
    let (pb, _) = Probe::new();
    sim.set_stack(a, Box::new(pa));
    sim.set_stack(b, Box::new(pb));
    // b starts at (5, 0); walk to (105, 0) at 10 m/s: 10 s of travel.
    sim.schedule_walk(b, SimTime::from_secs(2), Position::new(105.0, 0.0), 10.0);
    sim.run_until(SimTime::from_secs(7));
    // Mid-walk: moved ~40-50 m from its start.
    let x = sim.world().position(b).x;
    assert!((40.0..=60.0).contains(&x), "mid-walk at x={x}");
    sim.run_until(SimTime::from_secs(20));
    assert!((sim.world().position(b).x - 105.0).abs() < 1e-9, "arrived exactly");
}

#[test]
fn walk_breaks_connections_when_leaving_range() {
    let (mut sim, a, b) = two_device_sim();
    let peer = sim.mesh_addr(b);
    let (pa, alog) = Probe::new();
    let pa = pa.with_start(vec![Command::TcpConnect { token: 0, peer }]).with_reaction(
        move |ev, api| {
            if let NodeEvent::TcpConnectResult { result: Ok(conn), .. } = ev {
                api.push(Command::TcpSend {
                    conn: *conn,
                    payload: Bytes::new(),
                    wire_len: 810_000_000, // ~100 s on air: the walk interrupts it
                });
            }
        },
    );
    let (pb, _) = Probe::new();
    sim.set_stack(a, Box::new(pa));
    sim.set_stack(b, Box::new(pb));
    // Walk out of the 100 m WiFi range at 20 m/s.
    sim.schedule_walk(b, SimTime::from_secs(1), Position::new(500.0, 0.0), 20.0);
    sim.run_until(SimTime::from_secs(30));
    assert!(alog.borrow().iter().any(|(_, l)| l == "closed:true"));
}

#[test]
fn rejoining_while_joined_confirms_immediately() {
    let (mut sim, a, _b) = two_device_sim();
    let (p, log) = Probe::new();
    let mut asked_again = false;
    let p = p.with_start(vec![Command::WifiJoin]).with_reaction(move |ev, api| {
        if matches!(ev, NodeEvent::WifiJoined) && !asked_again {
            // Ask again once joined: must be confirmed, not swallowed.
            asked_again = true;
            api.push(Command::SetTimer { token: 5, delay: SimDuration::from_millis(100) });
        }
        if matches!(ev, NodeEvent::Timer { token: 5 }) {
            api.push(Command::WifiJoin);
        }
    });
    sim.set_stack(a, Box::new(p));
    sim.run_until(SimTime::from_secs(5));
    let joins = log.borrow().iter().filter(|(_, l)| l == "joined").count();
    assert_eq!(joins, 2, "the idempotent re-join is echoed exactly once");
}

/// Regression: stopping an advertising slot and immediately re-registering
/// it must not revive the first registration's still-scheduled pulse.
/// Generations are never reused, so the stale pulse dies on its generation
/// check and the beacon cadence stays single — the buggy behavior was a
/// doubled cadence whenever stop + set raced the first jittered pulse.
#[test]
fn restarting_an_advertising_slot_keeps_a_single_cadence() {
    let (mut sim, a, b) = two_device_sim();
    let (tx, _txlog) = Probe::new();
    let (rx, rxlog) = Probe::new();
    sim.set_stack(
        a,
        Box::new(tx.with_start(vec![
            Command::BleAdvertiseSet {
                slot: 0,
                payload: Bytes::from_static(b"one"),
                interval: SimDuration::from_millis(500),
            },
            // Stop and re-register the same slot before any pulse fired.
            Command::BleAdvertiseStop { slot: 0 },
            Command::BleAdvertiseSet {
                slot: 0,
                payload: Bytes::from_static(b"two"),
                interval: SimDuration::from_millis(500),
            },
        ])),
    );
    sim.set_stack(b, Box::new(rx.with_start(vec![Command::BleSetScan { duty: Some(1.0) }])));
    sim.run_until(SimTime::from_secs(10));
    let log = rxlog.borrow();
    let ones = log.iter().filter(|(_, l)| l == "beacon:one").count();
    let twos = log.iter().filter(|(_, l)| l == "beacon:two").count();
    assert_eq!(ones, 0, "the stopped registration must never pulse");
    // Single cadence: ~20 beacons in 10 s at 500 ms; a doubled cadence
    // (the regression) would deliver ~40.
    assert!((18..=21).contains(&twos), "got {twos} beacons — cadence not single");
}

fn advertise(slot: u32, payload: &'static [u8], interval_ms: u64) -> Command {
    Command::BleAdvertiseSet {
        slot,
        payload: Bytes::from_static(payload),
        interval: SimDuration::from_millis(interval_ms),
    }
}

const SCAN: Command = Command::BleSetScan { duty: Some(1.0) };

/// The times at which `log` recorded `label`.
fn times_of(log: &[(SimTime, String)], label: &str) -> Vec<SimTime> {
    log.iter().filter(|(_, l)| l == label).map(|&(t, _)| t).collect()
}

/// Asserts that consecutive `times` are exactly `every` apart.
fn assert_cadence(times: &[SimTime], every: SimDuration, what: &str) {
    assert!(times.len() >= 2, "{what}: only {} beacons", times.len());
    for w in times.windows(2) {
        assert_eq!(w[1].duration_since(w[0]), every, "{what}: off cadence at {:?}", w[1]);
    }
}

/// Re-armed pulses wait in per-interval lanes beside the event heap; an
/// event and a pulse due in the same microsecond must still dispatch in
/// the order they were scheduled, whichever queue holds each.
#[test]
fn heap_events_and_lane_pulses_due_together_dispatch_in_schedule_order() {
    let (mut sim, a, b) = two_device_sim();
    let (tx, _) = Probe::new();
    sim.set_stack(a, Box::new(tx.with_start(vec![advertise(0, b"p", 500)])));
    let mut armed = false;
    let (rx, rxlog) = Probe::new();
    let rx = rx.with_start(vec![SCAN]).with_reaction(move |ev, api| {
        if matches!(ev, NodeEvent::BleBeacon { .. }) && !armed {
            armed = true;
            // The pulse due 500 ms from now was re-armed before this
            // delivery, so it was scheduled first; the one due in 1000 ms
            // is re-armed only at the next pulse, after this timer.
            api.set_timer(1, SimDuration::from_millis(500));
            api.set_timer(2, SimDuration::from_millis(1000));
        }
    });
    sim.set_stack(b, Box::new(rx));
    sim.run_until(SimTime::from_secs(3));
    let log = rxlog.borrow();
    let first = times_of(&log, "beacon:p")[0];
    let at = |t: SimTime| -> Vec<&str> {
        log.iter().filter(|(x, _)| *x == t).map(|(_, l)| l.as_str()).collect()
    };
    assert_eq!(at(first + SimDuration::from_millis(500)), ["beacon:p", "timer:1"]);
    assert_eq!(at(first + SimDuration::from_millis(1000)), ["timer:2", "beacon:p"]);
}

/// A burst's `BleOneShotSent` waits in the event queue's lane for
/// `BLE_ONESHOT_LATENCY` (41 ms) and a 42 ms or 40 ms timer in the heap; due
/// in the same microsecond, they must dispatch in the order they were
/// scheduled, both ways round.
#[test]
fn one_shot_completions_and_timers_due_together_dispatch_in_schedule_order() {
    let (mut sim, a, _) = two_device_sim();
    let (tx, log) = Probe::new();
    let tx = tx
        .with_start(vec![
            Command::SetTimer { token: 1, delay: SimDuration::from_millis(42) },
            Command::SetTimer { token: 2, delay: SimDuration::from_millis(1) },
        ])
        .with_reaction(|ev, api| match ev {
            NodeEvent::Timer { token: 2 } => {
                api.push(Command::BleSendOneShot { payload: Bytes::from_static(b"x") });
                api.set_timer(3, SimDuration::from_millis(1));
            }
            NodeEvent::Timer { token: 3 } => api.set_timer(4, SimDuration::from_millis(40)),
            _ => {}
        });
    sim.set_stack(a, Box::new(tx));
    sim.run_until(SimTime::from_millis(50));
    let log = log.borrow();
    let at_42: Vec<&str> = log
        .iter()
        .filter(|(t, _)| *t == SimTime::from_millis(42))
        .map(|(_, l)| l.as_str())
        .collect();
    assert_eq!(at_42, ["timer:1", "oneshot-sent", "timer:4"]);
}

/// Re-registering a slot with a new interval leaves the old registration's
/// pulse pending in the old interval's lane while the new cadence fills a
/// second lane; the stale pulse must die on its generation, so the slot
/// never pulses on the old cadence again. Another slot keeps the old
/// interval's lane live throughout.
#[test]
fn a_slot_moved_to_a_new_interval_never_pulses_on_the_old_cadence() {
    let (mut sim, a, b) = two_device_sim();
    let (tx, _) = Probe::new();
    let tx = tx
        .with_start(vec![
            advertise(0, b"keep", 500),
            advertise(1, b"old", 500),
            Command::SetTimer { token: 1, delay: SimDuration::from_millis(2_210) },
        ])
        .with_reaction(|ev, api| {
            if matches!(ev, NodeEvent::Timer { token: 1 }) {
                api.push(advertise(1, b"new", 300));
            }
        });
    sim.set_stack(a, Box::new(tx));
    let (rx, rxlog) = Probe::new();
    sim.set_stack(b, Box::new(rx.with_start(vec![SCAN])));
    sim.run_until(SimTime::from_secs(10));
    let log = rxlog.borrow();
    let switch = SimTime::from_millis(2_210);
    assert!(times_of(&log, "beacon:old").iter().all(|&t| t < switch));
    let new = times_of(&log, "beacon:new");
    assert!(new[0] >= switch);
    assert_cadence(&new, SimDuration::from_millis(300), "re-registered slot");
    // ~7.8 s at 300 ms after the jittered first pulse.
    assert!((25..=27).contains(&new.len()), "got {} beacons", new.len());
    assert_cadence(&times_of(&log, "beacon:keep"), SimDuration::from_millis(500), "kept slot");
}

/// A churn window mutes the advertiser, but its pulses keep cycling through
/// the lane, so it resumes on its original phase when the window ends.
#[test]
fn a_churned_down_advertiser_resumes_on_its_original_phase() {
    let faults = FaultConfig {
        churn: vec![ChurnWindow {
            dev: 0,
            down_at: SimTime::from_millis(2_100),
            up_at: SimTime::from_millis(4_300),
        }],
        ..Default::default()
    };
    let mut sim = Runner::new(SimConfig { faults, ..Default::default() });
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let (tx, _) = Probe::new();
    sim.set_stack(a, Box::new(tx.with_start(vec![advertise(0, b"c", 500)])));
    let (rx, rxlog) = Probe::new();
    sim.set_stack(b, Box::new(rx.with_start(vec![SCAN])));
    sim.run_until(SimTime::from_secs(8));
    let heard = times_of(&rxlog.borrow(), "beacon:c");
    let phase = heard[0].as_micros() % 500_000;
    assert!(heard.iter().all(|t| t.as_micros() % 500_000 == phase), "phase drifted");
    let (down, up) = (SimTime::from_millis(2_100), SimTime::from_millis(4_300));
    assert!(heard.iter().all(|&t| t < down || t >= up), "heard while down");
    let before = heard.iter().filter(|&&t| t < down).count();
    let after = heard.iter().filter(|&&t| t >= up).count();
    // 2.1 s and 3.7 s of air time at one pulse per 500 ms.
    assert!((4..=5).contains(&before), "{before} before the window");
    assert!((7..=8).contains(&after), "{after} after the window");
}

/// A dozen advertisers on twelve distinct intervals, two of them with a
/// second slot on yet another interval: fourteen lanes, every slot on its
/// exact cadence.
#[test]
fn many_interval_lanes_keep_every_cadence_exact() {
    const PAYLOADS: [&[u8]; 14] =
        [b"0", b"1", b"2", b"3", b"4", b"5", b"6", b"7", b"8", b"9", b"10", b"11", b"12", b"13"];
    let interval_ms = |k: usize| 100 + 37 * k as u64;
    let mut sim = Runner::new(SimConfig::default());
    let rx_dev = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let (rx, rxlog) = Probe::new();
    sim.set_stack(rx_dev, Box::new(rx.with_start(vec![SCAN])));
    for k in 0..12 {
        let angle = k as f64 * std::f64::consts::TAU / 12.0;
        let dev =
            sim.add_device(DeviceCaps::PI, Position::new(9.0 * angle.cos(), 9.0 * angle.sin()));
        let mut start = vec![advertise(0, PAYLOADS[k], interval_ms(k))];
        if k < 2 {
            start.push(advertise(1, PAYLOADS[12 + k], interval_ms(12 + k)));
        }
        let (tx, _) = Probe::new();
        sim.set_stack(dev, Box::new(tx.with_start(start)));
    }
    sim.run_until(SimTime::from_secs(20));
    let log = rxlog.borrow();
    for (k, payload) in PAYLOADS.iter().enumerate() {
        let label = format!("beacon:{}", String::from_utf8_lossy(payload));
        let every = SimDuration::from_millis(interval_ms(k));
        let times = times_of(&log, &label);
        assert_cadence(&times, every, &label);
        let expected = 20_000 / interval_ms(k);
        assert!(times.len() as u64 + 1 >= expected, "{label}: {} beacons", times.len());
    }
}

#[test]
#[should_panic(expected = "device 1: position (NaN, 3) is not finite")]
fn teleporting_to_a_nan_position_panics() {
    let (mut sim, _, b) = two_device_sim();
    sim.schedule_teleport(b, SimTime::from_secs(1), Position::new(f64::NAN, 3.0));
}

#[test]
#[should_panic(expected = "device 0: position (-inf, 0) is not finite")]
fn walking_to_an_infinite_position_panics() {
    let (mut sim, a, _) = two_device_sim();
    sim.schedule_walk(a, SimTime::from_secs(1), Position::new(f64::NEG_INFINITY, 0.0), 1.4);
}

#[test]
#[should_panic(expected = "run_until(t=1.000000s) would turn the clock back from t=2.000000s")]
fn running_until_an_earlier_time_panics() {
    let (mut sim, _, _) = two_device_sim();
    sim.run_until(SimTime::from_secs(2));
    sim.run_until(SimTime::from_secs(1));
}

/// A TCP connect that a partition severs or a churn window blocks fails
/// `Unreachable` and counts one drop under that cause: when it is issued,
/// or when it completes `TCP_CONNECT_TIME` (6 ms) later, whichever check
/// the fault meets.
#[test]
fn tcp_connects_a_fault_blocks_count_under_their_cause() {
    use omni_obs::Obs;
    use omni_sim::{FaultScope, LinkPartition};

    let faults = FaultConfig {
        partitions: vec![LinkPartition::new(0, 1, SimTime::from_secs(1), SimTime::from_secs(2))
            .scoped(FaultScope::Wifi)],
        churn: vec![ChurnWindow {
            dev: 1,
            down_at: SimTime::from_secs(3),
            up_at: SimTime::from_secs(4),
        }],
        ..Default::default()
    };
    let mut sim = Runner::new(SimConfig { faults, ..Default::default() });
    let obs = Obs::new();
    sim.set_obs(obs.clone());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let peer = sim.mesh_addr(b);
    let at_ms = [1_500, 2_997, 3_500, 5_000];
    let (probe, log) = Probe::new();
    let probe = probe
        .with_start(
            (0..)
                .zip(at_ms)
                .map(|(token, ms)| Command::SetTimer { token, delay: SimDuration::from_millis(ms) })
                .collect(),
        )
        .with_reaction(move |ev, api| {
            if let NodeEvent::Timer { token } = ev {
                api.push(Command::TcpConnect { token: *token, peer });
            }
        });
    sim.set_stack(a, Box::new(probe));
    sim.run_until(SimTime::from_secs(6));

    let results: Vec<_> =
        log.borrow().iter().filter(|(_, l)| l.starts_with("conn")).cloned().collect();
    let unreachable = "connect-err:peer unreachable".to_string();
    assert_eq!(
        results,
        [
            (SimTime::from_millis(1_500), unreachable.clone()),
            (SimTime::from_millis(3_003), unreachable.clone()),
            (SimTime::from_millis(3_500), unreachable),
            (SimTime::from_millis(5_006), "connected:0".to_string()),
        ]
    );
    let drops = |cause: &str| obs.counter_with("sim.faults.drops", &[("cause", cause)]).get();
    assert_eq!(drops("partition"), 1);
    assert_eq!(drops("node-down"), 2);
    assert_eq!(drops("frame-loss"), 0);
}

/// Every medium counts the frames its faults drop under the cause that
/// dropped them: four phones in touch range send BLE pulses and bursts,
/// multicast, NFC touches and TCP connects through a partition, a churn
/// window and BLE, multicast and TCP-connect loss.
#[test]
fn every_medium_attributes_its_drops() {
    use omni_obs::{EventKind, Obs};
    use omni_sim::LinkPartition;
    use omni_wire::{frame, OmniAddress, PackedStruct, TechType, TraceId};

    let faults = FaultConfig {
        ble_loss: 0.3,
        mcast_loss: 0.3,
        tcp_connect_loss: 0.5,
        partitions: vec![LinkPartition::new(0, 1, SimTime::from_secs(2), SimTime::from_secs(5))],
        churn: vec![ChurnWindow {
            dev: 2,
            down_at: SimTime::from_secs(3),
            up_at: SimTime::from_secs(6),
        }],
        ..Default::default()
    };
    let mut sim = Runner::new(SimConfig { seed: 9, faults, ..Default::default() });
    let obs = Obs::with_event_capacity(1 << 16);
    sim.set_obs(obs.clone());
    let spots = [(0.0, 0.0), (0.05, 0.0), (0.1, 0.0), (0.0, 0.05)];
    let devs: Vec<DeviceId> = spots
        .iter()
        .map(|&(x, y)| sim.add_device(DeviceCaps::PHONE, Position::new(x, y)))
        .collect();
    let meshes: Vec<_> = devs.iter().map(|&d| sim.mesh_addr(d)).collect();
    for (i, &dev) in devs.iter().enumerate() {
        let next = (i + 1) % devs.len();
        let peer = meshes[next];
        let mut seq = 0u64;
        let (probe, _) = Probe::new();
        let probe = probe
            .with_start(vec![
                SCAN,
                advertise(0, b"pulse", 100),
                Command::WifiJoin,
                Command::SetTimer {
                    token: 1,
                    delay: SimDuration::from_millis(250 + 20 * i as u64),
                },
            ])
            .with_reaction(move |ev, api| match ev {
                NodeEvent::WifiJoined => api.push(Command::WifiMcastListen(true)),
                NodeEvent::Timer { token: 1 } => {
                    seq += 1;
                    let source = OmniAddress::from_u64(i as u64 + 1);
                    let packed = PackedStruct::data(source, Bytes::from_static(b"data"))
                        .with_trace(TraceId::derive(source, seq));
                    let directed =
                        frame::encode_directed(OmniAddress::from_u64(next as u64 + 1), &packed);
                    api.push(Command::BleSendOneShot { payload: directed.clone() });
                    api.push(Command::WifiMcastSend {
                        payload: directed.clone(),
                        wire_len: directed.len() as u64,
                        bulk: false,
                    });
                    api.push(Command::NfcSend { payload: directed });
                    api.push(Command::TcpConnect { token: seq, peer });
                    api.push(Command::SetTimer { token: 1, delay: SimDuration::from_millis(250) });
                }
                _ => {}
            });
        sim.set_stack(dev, Box::new(probe));
    }
    sim.run_until(SimTime::from_secs(8));

    let drops = |cause: &str| obs.counter_with("sim.faults.drops", &[("cause", cause)]).get();
    assert!(drops("frame-loss") > 0, "no frame was lost");
    assert!(drops("partition") > 0, "no partition drop");
    assert!(drops("node-down") > 0, "no node-down drop");

    assert_eq!(obs.events_dropped(), 0, "the event ring wrapped");
    let labels = TechType::ALL.map(TechType::label);
    let mut techs = Vec::new();
    for e in obs.events() {
        if let EventKind::FrameDropped { tech, cause, .. } = e.kind {
            assert!(labels.contains(&tech), "FrameDropped names technology {tech:?}");
            assert!(
                ["frame-loss", "partition", "node-down"].contains(&cause),
                "FrameDropped names cause {cause:?}"
            );
            if !techs.contains(&tech) {
                techs.push(tech);
            }
        }
    }
    techs.sort_unstable();
    assert_eq!(techs, ["ble-beacon", "nfc", "wifi-multicast"], "media that recorded a drop");
}
