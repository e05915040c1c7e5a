//! Property-based tests on cross-crate invariants: channel conservation,
//! energy-ledger sanity, and protocol-state round trips under arbitrary
//! workloads.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use omni::core::{ContextParams, OmniBuilder, OmniConfig, OmniStack, RetryPolicy};
use omni::sim::{
    ChurnWindow, Command, DeviceCaps, DeviceId, FaultConfig, FaultScope, LinkPartition, NodeApi,
    NodeEvent, Position, Runner, SimConfig, SimDuration, SimTime, Stack, BLE_RANGE_M,
    WIFI_CAPACITY_BPS,
};
use omni::wire::{StatusCode, TechType};
use proptest::prelude::*;

/// A stack that connects to a fixed peer and sends a scripted list of
/// messages, recording completions; the peer records receipts.
struct ScriptedSender {
    peer: omni::wire::MeshAddress,
    sizes: Vec<u64>,
    sent: Rc<RefCell<Vec<u64>>>,
}

struct Receiver {
    got: Rc<RefCell<Vec<usize>>>,
}

impl Stack for ScriptedSender {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        match event {
            NodeEvent::Start => api.push(Command::TcpConnect { token: 1, peer: self.peer }),
            NodeEvent::TcpConnectResult { result: Ok(conn), .. } => {
                for (i, size) in self.sizes.iter().enumerate() {
                    api.push(Command::TcpSend {
                        conn,
                        payload: Bytes::from(vec![i as u8]),
                        wire_len: *size,
                    });
                }
            }
            NodeEvent::TcpSendComplete { .. } => {
                self.sent.borrow_mut().push(api.now.as_micros());
            }
            _ => {}
        }
    }
}

impl Stack for Receiver {
    fn on_event(&mut self, event: NodeEvent, _api: &mut NodeApi<'_>) {
        if let NodeEvent::TcpMessage { payload, .. } = event {
            self.got.borrow_mut().push(payload[0] as usize);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Channel conservation: every queued message is delivered exactly once,
    /// in FIFO order, and total transfer time is at least the fluid-model
    /// lower bound (sum of bytes at full capacity).
    #[test]
    fn tcp_messages_are_conserved_and_ordered(
        sizes in proptest::collection::vec(1_000u64..2_000_000, 1..12)
    ) {
        let mut sim = Runner::new(SimConfig::default());
        let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
        let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
        let sent = Rc::new(RefCell::new(Vec::new()));
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.set_stack(a, Box::new(ScriptedSender {
            peer: sim.mesh_addr(b),
            sizes: sizes.clone(),
            sent: sent.clone(),
        }));
        sim.set_stack(b, Box::new(Receiver { got: got.clone() }));
        sim.run_until(SimTime::from_secs(60));

        let got = got.borrow();
        prop_assert_eq!(got.len(), sizes.len(), "every message delivered once");
        let expect: Vec<usize> = (0..sizes.len()).collect();
        prop_assert_eq!(&*got, &expect, "FIFO order preserved");

        // Lower bound on completion: bytes / capacity (plus connect time).
        let total: u64 = sizes.iter().sum::<u64>();
        let min_secs = total as f64 / WIFI_CAPACITY_BPS;
        let last_sent_us = *sent.borrow().last().expect("sender saw completions");
        prop_assert!(
            last_sent_us as f64 / 1e6 + 1e-6 >= min_secs,
            "cannot beat channel capacity: {} < {}",
            last_sent_us as f64 / 1e6,
            min_secs
        );
    }

    /// Energy monotonicity: accumulated charge never decreases over time and
    /// a device with all radios off accrues nothing.
    #[test]
    fn energy_is_monotonic(checkpoints in proptest::collection::vec(1u64..300, 1..12)) {
        let mut sim = Runner::new(SimConfig::default());
        let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
        let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
        // b powers everything off.
        struct Off;
        impl Stack for Off {
            fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
                if matches!(event, NodeEvent::Start) {
                    api.push(Command::WifiPower(false));
                    api.push(Command::BlePower(false));
                }
            }
        }
        sim.set_stack(b, Box::new(Off));
        // a beacons.
        struct Beacon;
        impl Stack for Beacon {
            fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
                if matches!(event, NodeEvent::Start) {
                    api.push(Command::BleAdvertiseSet {
                        slot: 0,
                        payload: Bytes::from_static(b"x"),
                        interval: SimDuration::from_millis(100),
                    });
                }
            }
        }
        sim.set_stack(a, Box::new(Beacon));

        let mut sorted = checkpoints.clone();
        sorted.sort_unstable();
        let mut last_a = 0.0f64;
        for s in sorted {
            let t = SimTime::from_millis(s * 100);
            sim.run_until(t);
            let now_a = sim.energy().total_ma_s(a, t);
            prop_assert!(now_a + 1e-12 >= last_a, "monotonic: {now_a} >= {last_a}");
            last_a = now_a;
            // Off device: only the pre-Start standby sliver (sub-millisecond).
            prop_assert!(sim.energy().total_ma_s(b, t) < 1.0);
        }
    }

    /// Discovery always happens for any beacon interval and any (in-range)
    /// placement, and never for out-of-range placements.
    #[test]
    fn discovery_iff_in_range(
        dx in 1.0f64..200.0,
        interval_ms in 100u64..1500,
    ) {
        let mut sim = Runner::new(SimConfig::default());
        let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
        let b = sim.add_device(DeviceCaps::PI, Position::new(dx, 0.0));
        let cfg = omni::core::OmniConfig {
            beacon_interval: SimDuration::from_millis(interval_ms),
            ..Default::default()
        };
        let mgr = OmniBuilder::new().with_ble().with_config(cfg.clone()).build(&sim, a);
        sim.set_stack(a, Box::new(OmniStack::new(mgr, move |omni| {
            omni.add_context(
                ContextParams { interval: SimDuration::from_millis(interval_ms) },
                Bytes::from_static(b"svc"),
                Box::new(|_, _, _| {}),
            );
        })));
        let heard = Rc::new(RefCell::new(false));
        let h = heard.clone();
        let mgr = OmniBuilder::new().with_ble().with_config(cfg).build(&sim, b);
        sim.set_stack(b, Box::new(OmniStack::new(mgr, move |omni| {
            omni.request_context(Box::new(move |_, _, _| *h.borrow_mut() = true));
        })));
        sim.run_until(SimTime::from_secs(10));
        let in_ble_range = dx <= BLE_RANGE_M;
        prop_assert_eq!(*heard.borrow(), in_ble_range);
    }

    /// Reliable-path exactly-once: for any seed and any BLE loss up to 30%,
    /// a `send_data` to a discovered in-range peer yields exactly one
    /// terminal status, and on success the payload arrived intact (the
    /// receiver may see it more than once — delivery is at-least-once).
    #[test]
    fn reliable_sends_conclude_exactly_once(
        seed in 0u64..(1 << 48),
        loss in 0.0f64..0.30,
    ) {
        let sim_cfg = SimConfig {
            seed,
            faults: FaultConfig { ble_loss: loss, ..Default::default() },
            ..Default::default()
        };
        let mut sim = Runner::new(sim_cfg);
        let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
        let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
        let dest = OmniBuilder::omni_address(&sim, b);
        let cfg = OmniConfig {
            data_techs: Some(vec![TechType::BleBeacon]),
            retry: RetryPolicy::reliable(),
            ..Default::default()
        };
        let statuses: Rc<RefCell<Vec<StatusCode>>> = Rc::new(RefCell::new(Vec::new()));
        let mgr = OmniBuilder::new().with_ble().with_wifi().with_config(cfg.clone()).build(&sim, a);
        let st = statuses.clone();
        sim.set_stack(a, Box::new(OmniStack::new(mgr, move |omni| {
            let st2 = st.clone();
            omni.request_timers(Box::new(move |_, o| {
                let st3 = st2.clone();
                o.send_data(
                    vec![dest],
                    Bytes::from_static(b"payload"),
                    Box::new(move |code, _, _| st3.borrow_mut().push(code)),
                );
            }));
            omni.set_timer(1, SimDuration::from_secs(3));
        })));
        let got: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        let mgr = OmniBuilder::new().with_ble().with_wifi().with_config(cfg).build(&sim, b);
        sim.set_stack(b, Box::new(OmniStack::new(mgr, move |omni| {
            omni.request_data(Box::new(move |_, payload, _| {
                g.borrow_mut().push(payload.to_vec());
            }));
        })));
        sim.run_until(SimTime::from_secs(30));
        let statuses = statuses.borrow();
        prop_assert_eq!(
            statuses.len(), 1,
            "exactly one terminal status per destination: {:?}", &*statuses
        );
        if statuses[0] == StatusCode::SendDataSuccess {
            let got = got.borrow();
            prop_assert!(!got.is_empty(), "acked send implies delivery");
            prop_assert!(
                got.iter().all(|p| p == b"payload"),
                "payload intact on every copy"
            );
        }
    }
}

/// Non-proptest determinism check across heterogeneous stacks (cheap enough
/// to run unconditionally), repeated under a fully loaded fault
/// configuration: loss, jitter, a partition, and a churn window must all
/// draw from the seeded fault RNG and nothing else.
#[test]
fn mixed_stack_runs_are_bit_identical() {
    let run = |sim_cfg: SimConfig, omni_cfg: OmniConfig| {
        let mut sim = Runner::new(sim_cfg);
        let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
        let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
        let log = Rc::new(RefCell::new(Vec::new()));
        let mgr =
            OmniBuilder::new().with_ble().with_wifi().with_config(omni_cfg.clone()).build(&sim, a);
        sim.set_stack(
            a,
            Box::new(OmniStack::new(mgr, |omni| {
                omni.add_context(
                    ContextParams::default(),
                    Bytes::from_static(b"det"),
                    Box::new(|_, _, _| {}),
                );
            })),
        );
        let l = log.clone();
        let mgr = OmniBuilder::new().with_ble().with_wifi().with_config(omni_cfg).build(&sim, b);
        sim.set_stack(
            b,
            Box::new(OmniStack::new(mgr, move |omni| {
                omni.request_context(Box::new(move |src, _, o| {
                    l.borrow_mut().push((o.now.as_micros(), src));
                }));
            })),
        );
        sim.run_until(SimTime::from_secs(20));
        let v = log.borrow().clone();
        (v, sim.energy().total_ma_s(DeviceId(0), SimTime::from_secs(20)))
    };
    let (log1, e1) = run(SimConfig::default(), OmniConfig::default());
    let (log2, e2) = run(SimConfig::default(), OmniConfig::default());
    assert_eq!(log1, log2);
    assert!((e1 - e2).abs() < 1e-12);

    let faulty = SimConfig {
        faults: FaultConfig {
            ble_loss: 0.25,
            mcast_loss: 0.10,
            tcp_connect_loss: 0.10,
            ble_jitter: SimDuration::from_millis(5),
            partitions: vec![LinkPartition::new(
                0,
                1,
                SimTime::from_secs(5),
                SimTime::from_secs(8),
            )
            .scoped(FaultScope::Wifi)],
            churn: vec![ChurnWindow {
                dev: 1,
                down_at: SimTime::from_secs(11),
                up_at: SimTime::from_secs(13),
            }],
        },
        ..Default::default()
    };
    let reliable = OmniConfig { retry: RetryPolicy::reliable(), ..Default::default() };
    let (f1, ef1) = run(faulty.clone(), reliable.clone());
    let (f2, ef2) = run(faulty.clone(), reliable);
    assert_eq!(f1, f2, "faulty runs with the same seed are bit-identical");
    assert!((ef1 - ef2).abs() < 1e-12);
    assert_ne!(
        (&log1, e1),
        (&f1, ef1),
        "the fault configuration visibly perturbs the run it is injected into"
    );
}

/// Satellite of the spatial-index tentpole: a 500-node fleet under a loaded
/// fault configuration (BLE loss + jitter, a WiFi partition, churn) run twice
/// from the same seed must be bit-identical — receipts, timestamps, and
/// per-device energy totals. A third run with the brute-force neighbor scan
/// swapped in (`Runner::set_brute_force_neighbors`) must reproduce the exact
/// same event sequence, proving the grid changes performance and nothing
/// else even at fleet scale with faults active.
#[test]
fn five_hundred_node_faulty_runs_are_bit_identical() {
    /// `(timestamp µs, receiver index, beacon payload)` receipt log.
    type Receipts = Rc<RefCell<Vec<(u64, usize, Vec<u8>)>>>;
    struct Chatter {
        heard: Receipts,
    }
    impl Stack for Chatter {
        fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
            match event {
                NodeEvent::Start => {
                    api.push(Command::BleSetScan { duty: Some(0.5) });
                    api.push(Command::BleAdvertiseSet {
                        slot: 0,
                        payload: Bytes::from(vec![api.device.0 as u8, (api.device.0 >> 8) as u8]),
                        interval: SimDuration::from_millis(500),
                    });
                }
                NodeEvent::BleBeacon { payload, .. } => {
                    self.heard.borrow_mut().push((
                        api.now.as_micros(),
                        api.device.0,
                        payload.to_vec(),
                    ));
                }
                _ => {}
            }
        }
    }
    const N: usize = 500;
    let run = |brute_force: bool| {
        let cfg = SimConfig {
            faults: FaultConfig {
                ble_loss: 0.2,
                ble_jitter: SimDuration::from_millis(3),
                partitions: vec![LinkPartition::new(
                    0,
                    1,
                    SimTime::from_secs(1),
                    SimTime::from_secs(3),
                )],
                churn: vec![ChurnWindow {
                    dev: 7,
                    down_at: SimTime::from_secs(2),
                    up_at: SimTime::from_secs(4),
                }],
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sim = Runner::new(cfg);
        sim.set_brute_force_neighbors(brute_force);
        let heard = Rc::new(RefCell::new(Vec::new()));
        for i in 0..N {
            // 25-wide grid with a 12 m pitch: every node has a handful of
            // BLE-range neighbors, none has the whole fleet.
            let pos = Position::new((i % 25) as f64 * 12.0, (i / 25) as f64 * 12.0);
            let d = sim.add_device(DeviceCaps::PI, pos);
            sim.set_stack(d, Box::new(Chatter { heard: heard.clone() }));
        }
        sim.run_until(SimTime::from_secs(5));
        let energy: Vec<f64> =
            (0..N).map(|i| sim.energy().total_ma_s(DeviceId(i), SimTime::from_secs(5))).collect();
        let receipts = heard.borrow().clone();
        (receipts, energy)
    };
    let (h1, e1) = run(false);
    let (h2, e2) = run(false);
    assert!(!h1.is_empty(), "the fleet actually exchanged beacons");
    assert_eq!(h1, h2, "same-seed 500-node faulty runs are bit-identical");
    assert_eq!(e1, e2, "per-device energy totals are bit-identical");
    let (hb, eb) = run(true);
    assert_eq!(h1, hb, "grid and brute-force neighbor paths yield the same run");
    assert_eq!(e1, eb);
}

/// Pinned artifact digest of a 500-node faulty fleet. Its stacks are stub
/// `Chatter`s that beacon and log what they hear; no `OmniManager` runs. So
/// the digest covers the simulator (BLE medium, fault layer, telemetry
/// sampler, event ring, flight recorder) and the runner's trace peeks into
/// the frames it carries, and nothing of omni-core. It is FNV-1a over every
/// externalized artifact (sampler JSONL, ring events, recorder dump, receipt
/// log, fault RNG draws), so a mismatch means the simulator's observable
/// behavior changed. The manager's own oracle is the transcript digest in
/// `crates/core/tests/manager_transcript.rs`.
///
/// The constant was first captured before the zero-copy wire views landed,
/// and reproduced after them. It was re-pinned twice since, both for
/// intentional sampler JSONL format changes that shift the hashed bytes: the
/// stream gained a self-describing header line and per-window digest objects
/// (DESIGN.md §5j), and later the power-of-two histogram section (`"hist"`)
/// was removed, `beacon.interval_us` moving into `"digests"` with the same
/// per-window counts. Event ring, recorder dump, receipt log and fault draws
/// were byte-identical across that second change. It was re-pinned a third
/// time when the `sim.faults.frames_dropped` counter and the runner's own
/// loss count were deleted as copies of `sim.faults.drops{cause=frame-loss}`:
/// each sampler window lost that key and the hash lost that count, and every
/// other hashed byte stayed the same. The wire codec is pinned by the
/// differential and adversarial codec suites.
#[test]
fn five_hundred_node_faulty_artifacts_match_the_owned_codec_digest() {
    const PINNED_DIGEST: u64 = 0xfeca_7b14_cf88_6f01;
    const N: usize = 500;
    let cfg = SimConfig {
        seed: 11,
        faults: FaultConfig {
            ble_loss: 0.2,
            ble_jitter: SimDuration::from_millis(3),
            partitions: vec![LinkPartition::new(
                0,
                1,
                SimTime::from_secs(1),
                SimTime::from_secs(3),
            )],
            churn: vec![ChurnWindow {
                dev: 7,
                down_at: SimTime::from_secs(2),
                up_at: SimTime::from_secs(4),
            }],
            ..Default::default()
        },
        ..Default::default()
    };
    let mut sim = Runner::new(cfg);
    let obs = omni_obs::Obs::new();
    sim.set_obs(obs.clone());
    sim.enable_sampler();
    type HeardLog = Rc<RefCell<Vec<(u64, usize, Vec<u8>)>>>;
    struct Chatter {
        heard: HeardLog,
    }
    impl Stack for Chatter {
        fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
            match event {
                NodeEvent::Start => {
                    api.push(Command::BleSetScan { duty: Some(0.5) });
                    api.push(Command::BleAdvertiseSet {
                        slot: 0,
                        payload: Bytes::from(vec![api.device.0 as u8, (api.device.0 >> 8) as u8]),
                        interval: SimDuration::from_millis(500),
                    });
                }
                NodeEvent::BleBeacon { payload, .. } => {
                    self.heard.borrow_mut().push((
                        api.now.as_micros(),
                        api.device.0,
                        payload.to_vec(),
                    ));
                }
                _ => {}
            }
        }
    }
    let heard = Rc::new(RefCell::new(Vec::new()));
    for i in 0..N {
        let pos = Position::new((i % 25) as f64 * 12.0, (i / 25) as f64 * 12.0);
        let d = sim.add_device(DeviceCaps::PI, pos);
        sim.set_stack(d, Box::new(Chatter { heard: heard.clone() }));
    }
    sim.run_until(SimTime::from_secs(5));

    // FNV-1a over every artifact, order-stable by construction.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    if let Some(s) = sim.sampler() {
        eat(s.to_jsonl().as_bytes());
    }
    for line in obs.events().iter().map(omni_obs::event_json) {
        eat(line.as_bytes());
    }
    eat(omni::sim::FlightRecorder::from_obs(&obs).to_jsonl().as_bytes());
    for (t, who, payload) in heard.borrow().iter() {
        eat(&t.to_be_bytes());
        eat(&(*who as u64).to_be_bytes());
        eat(payload);
    }
    eat(&sim.fault_rng_draws().to_be_bytes());
    assert!(!heard.borrow().is_empty(), "the fleet actually exchanged beacons");
    assert_eq!(
        h, PINNED_DIGEST,
        "500-node faulty-fleet artifacts diverged from the pinned digest \
         (got 0x{h:016x}) — the simulator's observable behavior changed"
    );
}
