//! Behavioral tests for the SP and SA baselines — these pin down exactly the
//! differences the paper's evaluation measures.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use omni_baselines::sa;
use omni_baselines::sp::{
    PassiveBeacon, SpAddr, SpBleDevice, SpCtl, SpHandler, SpOp, SpWifiDevice,
};
use omni_core::{OmniBuilder, OmniStack};
use omni_sim::{DeviceCaps, Position, Runner, SimConfig, SimDuration, SimTime};
use omni_wire::StatusCode;

type Events = Rc<RefCell<Vec<(SimTime, String)>>>;

/// SP handler that records events and can send on triggers.
struct Recorder {
    events: Events,
    start_ops: Vec<SpOp>,
    reply_to_data: Option<Bytes>,
}

impl Recorder {
    fn new(start_ops: Vec<SpOp>) -> (Self, Events) {
        let events: Events = Rc::new(RefCell::new(Vec::new()));
        (Recorder { events: events.clone(), start_ops, reply_to_data: None }, events)
    }

    fn with_reply(mut self, reply: Bytes) -> Self {
        self.reply_to_data = Some(reply);
        self
    }

    fn log(&self, what: impl Into<String>) {
        // Timestamping happens at assertion time through the sim trace; the
        // event list captures ordering and payloads.
        self.events.borrow_mut().push((SimTime::ZERO, what.into()));
    }
}

impl SpHandler for Recorder {
    fn on_start(&mut self, ctl: &mut SpCtl) {
        for op in self.start_ops.drain(..) {
            ctl.push(op);
        }
    }
    fn on_beacon(&mut self, from: SpAddr, payload: &Bytes, _ctl: &mut SpCtl) {
        self.log(format!("beacon:{}:{}", from, String::from_utf8_lossy(payload)));
    }
    fn on_data(&mut self, from: SpAddr, payload: &Bytes, ctl: &mut SpCtl) {
        self.log(format!("data:{}", String::from_utf8_lossy(payload)));
        if let Some(reply) = self.reply_to_data.take() {
            ctl.push(SpOp::SendSmall { to: from, payload: reply });
        }
    }
    fn on_sent(&mut self, _ctl: &mut SpCtl) {
        self.log("sent");
    }
    fn on_timer(&mut self, token: u64, _ctl: &mut SpCtl) {
        self.log(format!("timer:{token}"));
    }
    fn on_established(&mut self, _ctl: &mut SpCtl) {
        self.log("established");
    }
    fn on_infra(&mut self, _req: u64, received: u64, done: bool, _ctl: &mut SpCtl) {
        self.log(format!("infra:{received}:{done}"));
    }
}

#[test]
fn sp_ble_devices_exchange_beacons_and_small_data() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let ble_b = sim.ble_addr(b);
    let (ha, ea) = Recorder::new(vec![
        SpOp::SetBeacon {
            payload: Bytes::from_static(b"sp-a"),
            interval: SimDuration::from_millis(500),
        },
        SpOp::SetTimer { token: 1, delay: SimDuration::from_secs(2) },
    ]);
    // On timer, a sends a small payload to b (address known statically, as
    // SP apps are wont to hard-wire).
    struct Sender {
        inner: Recorder,
        dest: omni_wire::BleAddress,
    }
    impl SpHandler for Sender {
        fn on_start(&mut self, ctl: &mut SpCtl) {
            self.inner.on_start(ctl);
        }
        fn on_beacon(&mut self, f: SpAddr, p: &Bytes, c: &mut SpCtl) {
            self.inner.on_beacon(f, p, c);
        }
        fn on_data(&mut self, f: SpAddr, p: &Bytes, c: &mut SpCtl) {
            self.inner.on_data(f, p, c);
        }
        fn on_sent(&mut self, c: &mut SpCtl) {
            self.inner.on_sent(c);
        }
        fn on_timer(&mut self, token: u64, ctl: &mut SpCtl) {
            self.inner.on_timer(token, ctl);
            ctl.push(SpOp::SendSmall {
                to: SpAddr::Ble(self.dest),
                payload: Bytes::from_static(b"request"),
            });
        }
    }
    let (hb, eb) = Recorder::new(vec![SpOp::SetBeacon {
        payload: Bytes::from_static(b"sp-b"),
        interval: SimDuration::from_millis(500),
    }]);
    let hb = hb.with_reply(Bytes::from_static(b"response"));
    sim.set_stack(
        a,
        Box::new(SpBleDevice::new(
            sim.ble_addr(a),
            Box::new(Sender { inner: ha, dest: ble_b }),
            1.0,
        )),
    );
    sim.set_stack(b, Box::new(SpBleDevice::new(ble_b, Box::new(hb), 1.0)));
    sim.run_until(SimTime::from_secs(10));
    let ea = ea.borrow();
    let eb = eb.borrow();
    assert!(ea.iter().any(|(_, e)| e.starts_with("beacon:") && e.ends_with("sp-b")));
    assert!(eb.iter().any(|(_, e)| e == "data:request"));
    assert!(ea.iter().any(|(_, e)| e == "data:response"), "events: {ea:?}");
    // WiFi was powered off: average current is negative relative to the
    // WiFi-standby baseline (the paper's −92 mA row).
    let avg = sim.energy().average_ma(a, SimTime::ZERO, SimTime::from_secs(10));
    assert!(avg < 10.0, "ble-only device draws almost nothing, got {avg}");
    assert!(!sim.wifi_on(a));
}

#[test]
fn sp_wifi_beacons_ride_multicast_and_interactions_reestablish() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let mesh_b = sim.mesh_addr(b);
    struct Interactor {
        inner: Recorder,
        dest: omni_wire::MeshAddress,
    }
    impl SpHandler for Interactor {
        fn on_start(&mut self, ctl: &mut SpCtl) {
            self.inner.on_start(ctl);
        }
        fn on_beacon(&mut self, f: SpAddr, p: &Bytes, c: &mut SpCtl) {
            self.inner.on_beacon(f, p, c);
        }
        fn on_data(&mut self, f: SpAddr, p: &Bytes, c: &mut SpCtl) {
            self.inner.on_data(f, p, c);
        }
        fn on_timer(&mut self, token: u64, ctl: &mut SpCtl) {
            self.inner.on_timer(token, ctl);
            // The interaction: re-establish, then request over TCP.
            ctl.push(SpOp::EstablishFresh);
        }
        fn on_established(&mut self, ctl: &mut SpCtl) {
            self.inner.on_established(ctl);
            ctl.push(SpOp::TcpSend {
                to: self.dest,
                payload: Bytes::from_static(b"svc-request"),
                wire_len: 30,
            });
        }
    }
    let (ha, ea) = Recorder::new(vec![
        SpOp::SetBeacon {
            payload: Bytes::from_static(b"svc-a"),
            interval: SimDuration::from_millis(500),
        },
        SpOp::SetTimer { token: 9, delay: SimDuration::from_secs(5) },
    ]);
    let (hb, eb) = Recorder::new(vec![SpOp::SetBeacon {
        payload: Bytes::from_static(b"svc-b"),
        interval: SimDuration::from_millis(500),
    }]);
    sim.set_stack(
        a,
        Box::new(SpWifiDevice::new(
            sim.mesh_addr(a),
            Box::new(Interactor { inner: ha, dest: mesh_b }),
            SimDuration::from_secs(30),
        )),
    );
    sim.set_stack(b, Box::new(SpWifiDevice::new(mesh_b, Box::new(hb), SimDuration::from_secs(30))));
    sim.run_until(SimTime::from_secs(15));
    let ea = ea.borrow();
    let eb = eb.borrow();
    // Mutual multicast discovery during warmup.
    assert!(ea.iter().any(|(_, e)| e.starts_with("beacon:") && e.contains("svc-b")));
    assert!(eb.iter().any(|(_, e)| e.starts_with("beacon:") && e.contains("svc-a")));
    // The interaction re-established (leave/scan/join ≈ 2.5 s) and delivered.
    assert!(ea.iter().any(|(_, e)| e == "established"));
    assert!(eb.iter().any(|(_, e)| e == "data:svc-request"), "{eb:?}");
}

/// SA never shortcuts to direct TCP: even with BLE address beacons flowing,
/// a data transfer performs the WiFi establishment sequence. Omni, in the
/// identical scenario, connects directly. This is Table 4's 2793 ms vs 16 ms
/// split expressed as a behavioral assertion.
#[test]
fn sa_pays_establishment_where_omni_does_not() {
    let elapsed = |sa: bool| -> f64 {
        let mut sim = Runner::new(SimConfig::default());
        let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
        let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
        let omni_b = OmniBuilder::omni_address(&sim, b);
        let sent_at: Rc<RefCell<Option<(SimTime, SimTime)>>> = Rc::new(RefCell::new(None));
        // Pin data to unicast TCP over WiFi, as the paper's
        // BLE-context/WiFi-data row does.
        let cfg = omni_core::OmniConfig {
            data_techs: Some(vec![omni_wire::TechType::WifiTcp]),
            ..Default::default()
        };
        let manager = if sa {
            sa::build(&sim, a, cfg.clone())
        } else {
            OmniBuilder::new().with_ble().with_wifi().with_config(cfg.clone()).build(&sim, a)
        };
        let sent = sent_at.clone();
        let stack_a = OmniStack::new(manager, move |omni| {
            let sent2 = sent.clone();
            omni.request_timers(Box::new(move |_, o| {
                let sent3 = sent2.clone();
                let start = o.now;
                o.send_data(
                    vec![omni_b],
                    Bytes::from_static(b"30-byte-service-request......."),
                    Box::new(move |code, _, o2| {
                        if code == StatusCode::SendDataSuccess {
                            sent3.borrow_mut().get_or_insert((start, o2.now));
                        }
                    }),
                );
            }));
            omni.set_timer(1, SimDuration::from_secs(10));
        });
        let peer_mgr = if sa {
            sa::build(&sim, b, Default::default())
        } else {
            OmniBuilder::new().with_ble().with_wifi().build(&sim, b)
        };
        let stack_b = OmniStack::new(peer_mgr, |omni| {
            omni.request_data(Box::new(|_, _, _| {}));
        });
        sim.set_stack(a, Box::new(stack_a));
        sim.set_stack(b, Box::new(stack_b));
        sim.run_until(SimTime::from_secs(30));
        let (start, end) = sent_at.borrow().expect("send completed");
        (end - start).as_secs_f64()
    };
    let omni_latency = elapsed(false);
    let sa_latency = elapsed(true);
    assert!(omni_latency < 0.050, "Omni's direct path: {omni_latency}s");
    assert!(sa_latency > 2.0, "SA must establish: {sa_latency}s");
    assert!(
        sa_latency / omni_latency > 50.0,
        "orders of magnitude apart: {sa_latency} vs {omni_latency}"
    );
}

/// SA multicasts its discovery beacons on WiFi even when BLE suffices,
/// which costs measurable energy (Table 4: 23.47 vs 7.52 mA).
#[test]
fn sa_discovery_energy_exceeds_omni() {
    let warmup_energy = |sa: bool| -> f64 {
        let mut sim = Runner::new(SimConfig::default());
        let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
        let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
        for dev in [a, b] {
            let manager = if sa {
                sa::build(&sim, dev, Default::default())
            } else {
                OmniBuilder::new().with_ble().with_wifi().build(&sim, dev)
            };
            sim.set_stack(dev, Box::new(OmniStack::new(manager, |_| {})));
        }
        sim.run_until(SimTime::from_secs(60));
        sim.energy().average_ma(a, SimTime::ZERO, SimTime::from_secs(60)) - 92.1
    };
    let omni = warmup_energy(false);
    let sa = warmup_energy(true);
    assert!(omni < 12.0, "Omni idles on BLE: {omni} mA");
    assert!(sa > omni + 5.0, "SA multicasts on WiFi too: {sa} vs {omni} mA");
}

#[test]
fn passive_beacon_handler_advertises() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let (hb, eb) = Recorder::new(vec![]);
    sim.set_stack(
        a,
        Box::new(SpBleDevice::new(
            sim.ble_addr(a),
            Box::new(PassiveBeacon {
                advert: Bytes::from_static(b"museum-beacon"),
                interval: SimDuration::from_millis(500),
            }),
            0.01,
        )),
    );
    sim.set_stack(b, Box::new(SpBleDevice::new(sim.ble_addr(b), Box::new(hb), 1.0)));
    sim.run_until(SimTime::from_secs(5));
    assert!(eb.borrow().iter().any(|(_, e)| e.contains("museum-beacon")));
}
