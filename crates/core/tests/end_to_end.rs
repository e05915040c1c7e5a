//! End-to-end tests: two (or more) full Omni stacks on the simulated
//! substrate — discovery, context delivery, data paths, fallback, and the
//! engagement algorithm.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use omni_core::{
    AdaptiveBeacon, ContextParams, OmniBuilder, OmniConfig, OmniStack, RelayPolicy, RetryPolicy,
};
use omni_obs::{EventKind, Obs};
use omni_sim::{
    ChurnWindow, Command, DeviceCaps, DeviceId, FaultConfig, FaultScope, LinkPartition, NodeApi,
    NodeEvent, Position, Runner, SimConfig, SimDuration, SimTime, Stack, BLE_MAX_PAYLOAD,
};
use omni_wire::{MeshAddress, OmniAddress, StatusCode, TechType};

#[derive(Debug, Default)]
struct AppLog {
    contexts: Vec<(SimTime, OmniAddress, Vec<u8>)>,
    data: Vec<(SimTime, OmniAddress, Vec<u8>)>,
    statuses: Vec<(SimTime, StatusCode, String)>,
}

type Log = Rc<RefCell<AppLog>>;

/// Builds an Omni stack whose app advertises `advert` (if non-empty) and can
/// be told (via context trigger) to respond with data.
fn listener_stack(
    runner: &Runner,
    dev: DeviceId,
    builder: OmniBuilder,
    advert: &'static [u8],
) -> (OmniStack, Log) {
    let log: Log = Rc::new(RefCell::new(AppLog::default()));
    let manager = builder.build(runner, dev);
    let l1 = log.clone();
    let l2 = log.clone();
    let l3 = log.clone();
    let stack = OmniStack::new(manager, move |omni| {
        if !advert.is_empty() {
            omni.add_context(
                ContextParams::default(),
                Bytes::from_static(advert),
                Box::new(move |code, info, _| {
                    l3.borrow_mut().statuses.push((SimTime::ZERO, code, info.to_string()));
                }),
            );
        }
        omni.request_context(Box::new(move |src, ctx, o| {
            l1.borrow_mut().contexts.push((o.now, src, ctx.to_vec()));
        }));
        omni.request_data(Box::new(move |src, data, o| {
            l2.borrow_mut().data.push((o.now, src, data.to_vec()));
        }));
    });
    (stack, log)
}

#[test]
fn peers_discover_each_other_via_ble_address_beacons() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let (sa, _) = listener_stack(&sim, a, OmniBuilder::new().with_ble(), b"");
    let (sb, _) = listener_stack(&sim, b, OmniBuilder::new().with_ble(), b"");
    let omni_a = OmniBuilder::omni_address(&sim, a);
    let omni_b = OmniBuilder::omni_address(&sim, b);
    sim.set_stack(a, Box::new(sa));
    sim.set_stack(b, Box::new(sb));
    sim.run_until(SimTime::from_secs(3));
    // Address beacons at 500 ms: within 3 s both peers are mapped. Stacks
    // are owned by the runner, so the next tests spot-check discovery by
    // sending data instead. Here: no panic and distinct addresses is the
    // baseline sanity.
    assert_ne!(omni_a, omni_b);
}

#[test]
fn context_packs_are_delivered_over_ble() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let (sa, _log_a) = listener_stack(&sim, a, OmniBuilder::new().with_ble(), b"service:tour");
    let (sb, log_b) = listener_stack(&sim, b, OmniBuilder::new().with_ble(), b"");
    let omni_a = OmniBuilder::omni_address(&sim, a);
    sim.set_stack(a, Box::new(sa));
    sim.set_stack(b, Box::new(sb));
    sim.run_until(SimTime::from_secs(5));
    let log = log_b.borrow();
    assert!(
        log.contexts.iter().any(|(_, src, c)| *src == omni_a && c == b"service:tour"),
        "b never received a's context: {:?}",
        log.contexts
    );
    // The add_context status callback fired with success.
    drop(log);
}

#[test]
fn add_context_reports_success_with_context_id() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let (sa, log_a) = listener_stack(&sim, a, OmniBuilder::new().with_ble(), b"svc");
    sim.set_stack(a, Box::new(sa));
    sim.run_until(SimTime::from_secs(1));
    let log = log_a.borrow();
    assert!(
        log.statuses.iter().any(|(_, code, _)| *code == StatusCode::AddContextSuccess),
        "statuses: {:?}",
        log.statuses
    );
}

/// The headline behavior: peer discovered over BLE, data delivered over TCP
/// using the mesh address carried in the BLE address beacon — no WiFi scan,
/// no join (Omni's 16 ms path, paper Table 4).
#[test]
fn data_rides_tcp_using_ble_learned_mesh_address() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let omni_b = OmniBuilder::omni_address(&sim, b);

    // a: after 3 s of discovery, send 30 bytes to b.
    let log_a: Log = Rc::new(RefCell::new(AppLog::default()));
    let la = log_a.clone();
    let manager_a = OmniBuilder::new().with_ble().with_wifi().build(&sim, a);
    let stack_a = OmniStack::new(manager_a, move |omni| {
        omni.request_timers(Box::new(move |token, o| {
            if token == 1 {
                let la2 = la.clone();
                o.send_data(
                    vec![omni_b],
                    Bytes::from_static(b"sensor-reading-of-30-bytes..."),
                    Box::new(move |code, info, o2| {
                        la2.borrow_mut().statuses.push((o2.now, code, info.to_string()));
                    }),
                );
            }
        }));
        omni.set_timer(1, omni_sim::SimDuration::from_secs(3));
    });
    let (stack_b, log_b) = listener_stack(&sim, b, OmniBuilder::new().with_ble().with_wifi(), b"");
    sim.set_stack(a, Box::new(stack_a));
    sim.set_stack(b, Box::new(stack_b));
    sim.run_until(SimTime::from_secs(10));

    let lb = log_b.borrow();
    assert!(
        lb.data.iter().any(|(_, _, d)| d == b"sensor-reading-of-30-bytes..."),
        "data never arrived: {:?}",
        lb.data
    );
    let la = log_a.borrow();
    let done = la
        .statuses
        .iter()
        .find(|(_, c, _)| *c == StatusCode::SendDataSuccess)
        .unwrap_or_else(|| panic!("sender saw: {:?}", la.statuses))
        .0;
    // Crucially: no WiFi scan or join happened for the transfer (the address
    // came from BLE). The check is timing: the transfer completed within
    // 50 ms of the request at t=3 s, long before any scan+join sequence
    // could finish.
    assert!(done < SimTime::from_millis(3_050), "transfer took until {done}");
}

/// Selection and the radio bound BLE frames by the same constant,
/// [`BLE_MAX_PAYLOAD`] (64 B): a send whose directed frame is exactly 64 B
/// goes out over BLE and arrives, and one a byte longer is refused by
/// selection at once. A selection bound a byte short would refuse the
/// first send, one a byte long would hand the second to BLE, and a radio
/// bound a byte short would drop the first.
#[test]
fn middleware_and_radio_share_the_ble_payload_bound() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let omni_b = OmniBuilder::omni_address(&sim, b);
    // The header, trace and directed framing add 26 B: 38 B make a 64 B
    // frame, 39 B a 65 B one.
    assert_eq!(BLE_MAX_PAYLOAD, 38 + 26);
    let log_a: Log = Rc::new(RefCell::new(AppLog::default()));
    let la = log_a.clone();
    let stack_a = OmniStack::new(OmniBuilder::new().with_ble().build(&sim, a), move |omni| {
        omni.request_timers(Box::new(move |_, o| {
            for len in [39, 38] {
                let la = la.clone();
                o.send_data(
                    vec![omni_b],
                    Bytes::from(vec![b'x'; len]),
                    Box::new(move |code, info, o| {
                        la.borrow_mut().statuses.push((o.now, code, info.to_string()));
                    }),
                );
            }
        }));
        omni.set_timer(1, SimDuration::from_secs(3));
    });
    let (stack_b, log_b) = listener_stack(&sim, b, OmniBuilder::new().with_ble(), b"");
    sim.set_stack(a, Box::new(stack_a));
    sim.set_stack(b, Box::new(stack_b));
    sim.run_until(SimTime::from_secs(5));

    let statuses = &log_a.borrow().statuses;
    let [(failed_at, StatusCode::SendDataFailure, info), (_, StatusCode::SendDataSuccess, _)] =
        &statuses[..]
    else {
        panic!("expected the 39 B send to fail and the 38 B one to succeed: {statuses:?}");
    };
    assert_eq!(*failed_at, SimTime::from_secs(3), "refused at once");
    assert!(info.contains("no applicable technology for destination"), "{info}");
    let received: Vec<usize> = log_b.borrow().data.iter().map(|(_, _, d)| d.len()).collect();
    assert_eq!(received, [38]);
}

/// Sends `len` bytes (logically `total` with `send_data_sized`) at 5 s from
/// one BLE-only PI to another 5 m away, under `cfg`. Returns the sender's
/// status callbacks and the names of its data events within 40 s.
fn ble_only_send(cfg: OmniConfig, len: usize, total: u64) -> (Vec<(SimTime, String)>, Vec<String>) {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let omni_b = OmniBuilder::omni_address(&sim, b);
    let obs = Obs::new();
    let builder = OmniBuilder::new().with_ble().with_config(cfg);
    let log_a: Log = Rc::new(RefCell::new(AppLog::default()));
    let la = log_a.clone();
    let stack_a = OmniStack::new(builder.clone().with_obs(&obs).build(&sim, a), move |omni| {
        omni.request_timers(Box::new(move |_, o| {
            let la = la.clone();
            o.send_data_sized(
                vec![omni_b],
                Bytes::from(vec![b'x'; len]),
                total,
                Box::new(move |code, info, o| {
                    la.borrow_mut().statuses.push((o.now, code, info.to_string()));
                }),
            );
        }));
        omni.set_timer(1, SimDuration::from_secs(5));
    });
    let (stack_b, _) = listener_stack(&sim, b, builder, b"");
    sim.set_stack(a, Box::new(stack_a));
    sim.set_stack(b, Box::new(stack_b));
    sim.run_until(SimTime::from_secs(40));
    let statuses = log_a.borrow().statuses.iter().map(|(t, _, info)| (*t, info.clone())).collect();
    let events = obs
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::DataEnqueued { .. } => Some("DataEnqueued"),
            EventKind::DataRetried { .. } => Some("DataRetried"),
            EventKind::DataCustody { .. } => Some("DataCustody"),
            EventKind::DataFailed { .. } => Some("DataFailed"),
            EventKind::SendExhausted { .. } => Some("SendExhausted"),
            _ => None,
        })
        .map(String::from)
        .collect();
    (statuses, events)
}

/// What this device's own technologies can carry no retry pass or custody
/// hop changes. A send none of them can carry fails at once, with retries
/// on (a 200,000 B sized send) and with relaying on (an unsized 200 B one),
/// instead of backing off through every pass or waiting out custody.
#[test]
fn a_send_no_technology_of_the_device_can_carry_fails_at_once() {
    let reliable = OmniConfig { retry: RetryPolicy::reliable(), ..Default::default() };
    let epidemic = OmniConfig { relay: RelayPolicy::epidemic(), ..Default::default() };
    for (name, cfg, len, total) in
        [("reliable", reliable, 4, 200_000), ("epidemic", epidemic, 200, 200)]
    {
        let (statuses, events) = ble_only_send(cfg, len, total);
        let [(at, info)] = &statuses[..] else {
            panic!("{name}: expected one terminal status, got {statuses:?}");
        };
        assert_eq!(*at, SimTime::from_secs(5), "{name}: fails at once");
        assert!(
            info.contains("failed: no applicable technology for destination"),
            "{name}: {info}"
        );
        assert_eq!(events, ["DataFailed"], "{name}: no enqueue, retry or custody");
    }
}

/// A one-shot burst the radio drops still completes, so each send gets
/// its own one terminal status. Device a is churned down from 5.0 to 5.5 s,
/// so the first of three fire-and-forget BLE sends (at 5.1, 6.0 and 7.0 s)
/// goes out on a muted radio. Each send reports one rendezvous latency
/// after it was made, and none waits for a later send's burst.
#[test]
fn a_ble_burst_the_radio_drops_still_concludes_its_send() {
    let churn =
        ChurnWindow { dev: 0, down_at: SimTime::from_secs(5), up_at: SimTime::from_millis(5_500) };
    let faults = FaultConfig { churn: vec![churn], ..Default::default() };
    let mut sim = Runner::new(SimConfig { faults, ..Default::default() });
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let omni_b = OmniBuilder::omni_address(&sim, b);
    let builder = OmniBuilder::new().with_ble();
    let reports: Rc<RefCell<Vec<(u64, u64, StatusCode)>>> = Rc::default();
    let r = reports.clone();
    let stack_a = OmniStack::new(builder.build(&sim, a), move |omni| {
        omni.request_timers(Box::new(move |send, o| {
            let r = r.clone();
            o.send_data(
                vec![omni_b],
                Bytes::from_static(b"hi"),
                Box::new(move |code, _, o| r.borrow_mut().push((send, o.now.as_millis(), code))),
            );
        }));
        for (send, at_ms) in [(1, 5_100), (2, 6_000), (3, 7_000)] {
            omni.set_timer(send, SimDuration::from_millis(at_ms));
        }
    });
    let (stack_b, _) = listener_stack(&sim, b, builder, b"");
    sim.set_stack(a, Box::new(stack_a));
    sim.set_stack(b, Box::new(stack_b));
    sim.run_until(SimTime::from_secs(10));
    let ok = StatusCode::SendDataSuccess;
    assert_eq!(*reports.borrow(), [(1, 5_141, ok), (2, 6_041, ok), (3, 7_041, ok)]);
}

/// Sending to an unknown destination fails asynchronously with
/// SEND_DATA_FAILURE (paper Table 2).
#[test]
fn send_to_unknown_peer_fails_cleanly() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let log_a: Log = Rc::new(RefCell::new(AppLog::default()));
    let la = log_a.clone();
    let manager_a = OmniBuilder::new().with_ble().build(&sim, a);
    let stack_a = OmniStack::new(manager_a, move |omni| {
        let la2 = la.clone();
        omni.send_data(
            vec![OmniAddress::from_u64(0xDEAD)],
            Bytes::from_static(b"into the void"),
            Box::new(move |code, info, _| {
                la2.borrow_mut().statuses.push((SimTime::ZERO, code, info.to_string()));
            }),
        );
    });
    sim.set_stack(a, Box::new(stack_a));
    sim.run_until(SimTime::from_secs(1));
    let la = log_a.borrow();
    assert!(la
        .statuses
        .iter()
        .any(|(_, c, m)| *c == StatusCode::SendDataFailure && m.contains("never discovered")));
}

/// Remove-context stops transmissions: the peer stops hearing the pack.
#[test]
fn remove_context_stops_advertisements() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let log_a: Log = Rc::new(RefCell::new(AppLog::default()));
    let la = log_a.clone();
    let manager_a = OmniBuilder::new().with_ble().build(&sim, a);
    let stack_a = OmniStack::new(manager_a, move |omni| {
        let la2 = la.clone();
        omni.add_context(
            ContextParams::default(),
            Bytes::from_static(b"ephemeral"),
            Box::new(move |code, info, o| {
                la2.borrow_mut().statuses.push((SimTime::ZERO, code, info.to_string()));
                if code == StatusCode::AddContextSuccess {
                    let id = match info {
                        omni_wire::ResponseInfo::ContextId(id) => *id,
                        _ => panic!("expected a context id"),
                    };
                    // Remove after 2 s.
                    o.set_timer(7, omni_sim::SimDuration::from_secs(2));
                    let _ = id;
                }
            }),
        );
        omni.request_timers(Box::new(move |token, o| {
            if token == 7 {
                // Context ids are sequential starting at 1.
                o.remove_context(1, Box::new(|_, _, _| {}));
            }
        }));
    });
    let (stack_b, log_b) = listener_stack(&sim, b, OmniBuilder::new().with_ble(), b"");
    sim.set_stack(a, Box::new(stack_a));
    sim.set_stack(b, Box::new(stack_b));
    sim.run_until(SimTime::from_secs(10));
    // b heard it a few times (≈4 beacons in 2 s), then silence.
    let count = log_b.borrow().contexts.iter().filter(|(_, _, c)| c == b"ephemeral").count();
    assert!((2..=7).contains(&count), "heard {count} adverts, expected a short burst then stop");
}

/// An update or a remove issued in the same callback as the add it names
/// (context ids are sequential from 1) applies once the technologies have
/// answered the add: a's context is heard only as updated, and c's never.
#[test]
fn update_and_remove_issued_with_the_add_apply_to_it() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let c = sim.add_device(DeviceCaps::PI, Position::new(0.0, 5.0));
    let statuses: Rc<RefCell<Vec<StatusCode>>> = Rc::new(RefCell::new(Vec::new()));
    let status = |statuses: &Rc<RefCell<Vec<StatusCode>>>| -> omni_core::StatusCallback {
        let statuses = statuses.clone();
        Box::new(move |code, _, _| statuses.borrow_mut().push(code))
    };
    let (s1, s2) = (status(&statuses), status(&statuses));
    let manager_a = OmniBuilder::new().with_ble().build(&sim, a);
    let stack_a = OmniStack::new(manager_a, move |omni| {
        omni.add_context(ContextParams::default(), Bytes::from_static(b"v1"), s1);
        omni.update_context(1, ContextParams::default(), Bytes::from_static(b"v2"), s2);
    });
    let (s3, s4) = (status(&statuses), status(&statuses));
    let manager_c = OmniBuilder::new().with_ble().build(&sim, c);
    let stack_c = OmniStack::new(manager_c, move |omni| {
        omni.add_context(ContextParams::default(), Bytes::from_static(b"gone"), s3);
        omni.remove_context(1, s4);
    });
    let (stack_b, log_b) = listener_stack(&sim, b, OmniBuilder::new().with_ble(), b"");
    sim.set_stack(a, Box::new(stack_a));
    sim.set_stack(b, Box::new(stack_b));
    sim.set_stack(c, Box::new(stack_c));
    sim.run_until(SimTime::from_secs(5));
    let heard: Vec<Vec<u8>> = log_b.borrow().contexts.iter().map(|(_, _, c)| c.clone()).collect();
    assert!(heard.iter().any(|c| c == b"v2"), "b never heard the update: {heard:?}");
    assert!(heard.iter().all(|c| c == b"v2"), "b heard a stale or removed context: {heard:?}");
    let mut statuses = statuses.borrow().clone();
    statuses.sort_by_key(|code| format!("{code:?}"));
    use StatusCode as S;
    let all_succeeded = [
        S::AddContextSuccess,
        S::AddContextSuccess,
        S::RemoveContextSuccess,
        S::UpdateContextSuccess,
    ];
    assert_eq!(statuses, all_succeeded);
}

/// Application contexts may not start with a manager-reserved tag. Every
/// receiver would drop a `0xE8` pack as a PRoPHET summary, and deliver a
/// `0xE7` pack as a relay envelope under the origin its bytes 2..10 name.
/// Both tags are refused through the status callback, for `add_context` and
/// `update_context`, and never reach the air.
#[test]
fn contexts_starting_with_reserved_tags_are_refused() {
    // Tag, TTL, then eight bytes naming a spoofed origin.
    const ENVELOPE: &[u8] = &[0xE7, 0, 0, 0, 0, 0, 0, 0, 0xAA, 0xAA, b'x'];
    const SUMMARY: &[u8] = &[0xE8, 0];
    let obs = Obs::new();
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let omni_a = OmniBuilder::omni_address(&sim, a);
    let log_a: Log = Rc::new(RefCell::new(AppLog::default()));
    let record = move |log: &Log| -> omni_core::StatusCallback {
        let log = log.clone();
        Box::new(move |code, info, o| {
            log.borrow_mut().statuses.push((o.now, code, info.to_string()));
            // Try to turn the accepted context into a relay envelope.
            if code == StatusCode::AddContextSuccess {
                let id = info.context_id().expect("success carries the id");
                let log = log.clone();
                o.update_context(
                    id,
                    ContextParams::default(),
                    Bytes::from_static(ENVELOPE),
                    Box::new(move |code, info, o| {
                        log.borrow_mut().statuses.push((o.now, code, info.to_string()));
                    }),
                );
            }
        })
    };
    let manager_a = OmniBuilder::new().with_ble().with_obs(&obs).build(&sim, a);
    let la = log_a.clone();
    let stack_a = OmniStack::new(manager_a, move |omni| {
        for context in [SUMMARY, ENVELOPE, b"D:legit"] {
            omni.add_context(ContextParams::default(), Bytes::from_static(context), record(&la));
        }
    });
    let (stack_b, log_b) = listener_stack(&sim, b, OmniBuilder::new().with_ble(), b"");
    sim.set_stack(a, Box::new(stack_a));
    sim.set_stack(b, Box::new(stack_b));
    sim.run_until(SimTime::from_secs(5));

    let statuses: Vec<(StatusCode, String)> =
        log_a.borrow().statuses.iter().map(|(_, code, info)| (*code, info.clone())).collect();
    let refused = |code: StatusCode, tag: &str| {
        statuses.iter().filter(|(c, info)| *c == code && info.contains(tag)).count()
    };
    assert_eq!(refused(StatusCode::AddContextFailure, "reserved tag 0xE8"), 1, "{statuses:?}");
    assert_eq!(refused(StatusCode::AddContextFailure, "reserved tag 0xE7"), 1, "{statuses:?}");
    assert_eq!(refused(StatusCode::UpdateContextFailure, "reserved tag 0xE7"), 1, "{statuses:?}");
    assert_eq!(statuses.len(), 4, "one status per call: {statuses:?}");
    // Refused adds allocate no id and register nothing: the only context
    // operation a performed is the legitimate add, which got the first id.
    let ops: Vec<u64> = obs
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::ContextUpdated { id } => Some(id),
            _ => None,
        })
        .collect();
    assert_eq!(ops, [1], "context operations performed");
    // b hears the legitimate context, unchanged and from a, and nothing else.
    let heard = &log_b.borrow().contexts;
    assert!(!heard.is_empty(), "b never heard a's context");
    for (_, src, context) in heard {
        assert_eq!((*src, context.as_slice()), (omni_a, b"D:legit".as_slice()));
    }
}

/// Engagement: a WiFi-only peer is invisible on BLE; Omni detects its
/// multicast beacons and engages the multicast technology, after which the
/// BLE+WiFi device's context reaches the WiFi-only peer too.
#[test]
fn engagement_extends_beaconing_to_needed_technologies() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    // b has no BLE radio at all.
    let b =
        sim.add_device(DeviceCaps { ble: false, wifi: true, nfc: false }, Position::new(5.0, 0.0));
    let omni_a = OmniBuilder::omni_address(&sim, a);
    let obs_a = Obs::new();
    let (stack_a, _log_a) = listener_stack(
        &sim,
        a,
        OmniBuilder::new().with_ble().with_wifi().with_obs(&obs_a),
        b"from-a",
    );
    let (stack_b, log_b) = listener_stack(&sim, b, OmniBuilder::new().with_wifi(), b"from-b");
    sim.set_stack(a, Box::new(stack_a));
    sim.set_stack(b, Box::new(stack_b));
    sim.run_until(SimTime::from_secs(20));
    // a engaged multicast...
    assert!(
        obs_a.events().iter().any(|e| e.kind == EventKind::TechEngaged { tech: "wifi-multicast" }),
        "engagement never happened"
    );
    // ...and b received a's context over it.
    assert!(
        log_b.borrow().contexts.iter().any(|(_, src, c)| *src == omni_a && c == b"from-a"),
        "b never heard a's context"
    );
}

/// The times `obs` recorded `TechEngaged` (`true`) and `TechDisengaged`
/// (`false`) for multicast.
fn multicast_engagements(obs: &Obs) -> Vec<(SimTime, bool)> {
    obs.events()
        .iter()
        .filter_map(|e| {
            match e.kind {
                EventKind::TechEngaged { tech: "wifi-multicast" } => Some(true),
                EventKind::TechDisengaged { tech: "wifi-multicast" } => Some(false),
                _ => None,
            }
            .map(|on| (SimTime::from_micros(e.t_us), on))
        })
        .collect()
}

/// Engagement follows the WiFi-only peer out of range and back: when it
/// returns, a's multicast technology carries a's context again.
#[test]
fn a_reengaged_technology_carries_its_contexts_again() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b =
        sim.add_device(DeviceCaps { ble: false, wifi: true, nfc: false }, Position::new(5.0, 0.0));
    let omni_a = OmniBuilder::omni_address(&sim, a);
    let obs_a = Obs::new();
    let (stack_a, _log_a) = listener_stack(
        &sim,
        a,
        OmniBuilder::new().with_ble().with_wifi().with_obs(&obs_a),
        b"from-a",
    );
    let (stack_b, log_b) = listener_stack(&sim, b, OmniBuilder::new().with_wifi(), b"from-b");
    sim.set_stack(a, Box::new(stack_a));
    sim.set_stack(b, Box::new(stack_b));
    sim.schedule_teleport(b, SimTime::from_secs(20), Position::new(1000.0, 0.0));
    sim.schedule_teleport(b, SimTime::from_secs(40), Position::new(5.0, 0.0));
    sim.run_until(SimTime::from_secs(70));
    let heard: Vec<SimTime> = log_b
        .borrow()
        .contexts
        .iter()
        .filter(|(_, src, c)| *src == omni_a && c == b"from-a")
        .map(|(t, _, _)| *t)
        .collect();
    let engagements = multicast_engagements(&obs_a);
    assert!(heard.iter().any(|&t| t < SimTime::from_secs(20)), "b never heard a before leaving");
    assert!(
        heard.iter().any(|&t| t > SimTime::from_secs(40)),
        "b never heard a after returning; a's multicast engagements: {engagements:?}"
    );
}

/// A bare WiFi stack that joins the mesh group, listens, and logs when each
/// multicast frame from `from` arrives. It sends nothing, so no Omni peer
/// ever hears it.
struct MulticastListener {
    from: MeshAddress,
    heard: Rc<RefCell<Vec<SimTime>>>,
}

impl Stack for MulticastListener {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        match event {
            NodeEvent::Start => api.push(Command::WifiJoin),
            NodeEvent::WifiJoined => api.push(Command::WifiMcastListen(true)),
            NodeEvent::Multicast { from, .. } if from == self.from => {
                self.heard.borrow_mut().push(api.now);
            }
            _ => {}
        }
    }
}

/// Once a disengages multicast, a's multicast technology stays silent: an
/// adaptive-beacon interval change must not reach it. Only the WiFi-only
/// peer b needs multicast, and it leaves at 20 s; the BLE-only peer c
/// leaves at 30 s and returns at 35 s, which drops a's beacon interval to
/// the policy's minimum. d only listens.
#[test]
fn a_disengaged_technology_stays_silent() {
    let mut sim = Runner::new(SimConfig::default());
    let wifi_only = DeviceCaps { ble: false, wifi: true, nfc: false };
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(wifi_only, Position::new(5.0, 0.0));
    let c = sim.add_device(DeviceCaps::BEACON, Position::new(10.0, 0.0));
    let d = sim.add_device(wifi_only, Position::new(0.0, 5.0));
    let obs_a = Obs::new();
    let cfg = OmniConfig { adaptive_beacon: Some(AdaptiveBeacon::default()), ..Default::default() };
    let builder_a = OmniBuilder::new().with_ble().with_wifi().with_config(cfg).with_obs(&obs_a);
    let (stack_a, _log_a) = listener_stack(&sim, a, builder_a, b"from-a");
    let (stack_b, _log_b) = listener_stack(&sim, b, OmniBuilder::new().with_wifi(), b"from-b");
    let (stack_c, _log_c) = listener_stack(&sim, c, OmniBuilder::new().with_ble(), b"");
    let heard = Rc::new(RefCell::new(Vec::new()));
    let listener = MulticastListener { from: sim.mesh_addr(a), heard: heard.clone() };
    sim.set_stack(a, Box::new(stack_a));
    sim.set_stack(b, Box::new(stack_b));
    sim.set_stack(c, Box::new(stack_c));
    sim.set_stack(d, Box::new(listener));
    sim.schedule_teleport(b, SimTime::from_secs(20), Position::new(1000.0, 0.0));
    sim.schedule_teleport(c, SimTime::from_secs(30), Position::new(0.0, 1000.0));
    sim.schedule_teleport(c, SimTime::from_secs(35), Position::new(10.0, 0.0));
    sim.run_until(SimTime::from_secs(60));
    let heard = heard.borrow();
    assert!(heard.iter().any(|&t| t < SimTime::from_secs(20)), "d never heard a's multicast");
    // a disengages multicast at 23 s, once b's last sighting is stale.
    let late: Vec<SimTime> =
        heard.iter().copied().filter(|&t| t > SimTime::from_secs(24)).collect();
    assert!(
        late.is_empty(),
        "d heard a's multicast after a disengaged it ({:?}): {late:?}",
        multicast_engagements(&obs_a)
    );
}

/// Determinism: the same seed yields the same delivery history.
#[test]
fn omni_runs_are_deterministic() {
    let run = || {
        let mut sim = Runner::new(SimConfig::default());
        let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
        let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
        let (sa, _) = listener_stack(&sim, a, OmniBuilder::new().with_ble().with_wifi(), b"adv-a");
        let (sb, log_b) = listener_stack(&sim, b, OmniBuilder::new().with_ble().with_wifi(), b"");
        sim.set_stack(a, Box::new(sa));
        sim.set_stack(b, Box::new(sb));
        sim.run_until(SimTime::from_secs(10));
        let v: Vec<(OmniAddress, Vec<u8>)> =
            log_b.borrow().contexts.iter().map(|(_, s, c)| (*s, c.clone())).collect();
        v
    };
    assert_eq!(run(), run());
}

/// The State-of-the-Art switches with data pinned to TCP, so a's send to b
/// takes the establish path (scan, join, multicast resolve, connect). A
/// WiFi-scoped partition from 12.4 s until `heal_ms` loses the resolve
/// queries sent in that window. Returns a's status callbacks within 50 s.
fn send_across_lost_resolves(heal_ms: u64) -> Vec<(SimTime, StatusCode, String)> {
    let partition =
        LinkPartition::new(0, 1, SimTime::from_millis(12_400), SimTime::from_millis(heal_ms))
            .scoped(FaultScope::Wifi);
    let faults = FaultConfig { partitions: vec![partition], ..Default::default() };
    let mut sim = Runner::new(SimConfig { faults, ..Default::default() });
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let omni_b = OmniBuilder::omni_address(&sim, b);
    let cfg = OmniConfig {
        advertise_on_all_techs: true,
        integrate_low_level_nd: false,
        data_techs: Some(vec![TechType::WifiTcp]),
        ..Default::default()
    };
    let builder = OmniBuilder::new().with_caps(DeviceCaps::PI).with_config(cfg);
    let log_a: Log = Rc::new(RefCell::new(AppLog::default()));
    let la = log_a.clone();
    let stack_a = OmniStack::new(builder.build(&sim, a), move |omni| {
        omni.request_timers(Box::new(move |_, o| {
            let la = la.clone();
            o.send_data(
                vec![omni_b],
                Bytes::from_static(b"thirty-bytes-over-the-establish"),
                Box::new(move |code, info, o| {
                    la.borrow_mut().statuses.push((o.now, code, info.to_string()));
                }),
            );
        }));
        omni.set_timer(1, SimDuration::from_secs(10));
    });
    let (stack_b, _) = listener_stack(&sim, b, builder, b"");
    sim.set_stack(a, Box::new(stack_a));
    sim.set_stack(b, Box::new(stack_b));
    sim.run_until(SimTime::from_secs(50));
    let statuses = std::mem::take(&mut log_a.borrow_mut().statuses);
    statuses
}

/// TCP's resolve retry belongs to TCP: losing the first resolve query costs
/// one retry, not the send.
#[test]
fn a_lost_resolve_query_is_retried() {
    let statuses = send_across_lost_resolves(12_800);
    assert_eq!(statuses.len(), 1, "one terminal callback: {statuses:?}");
    assert_eq!(statuses[0].1, StatusCode::SendDataSuccess, "{statuses:?}");
}

/// With every resolve query lost, the establish path gives up after its
/// retries and fails the send exactly once.
#[test]
fn resolution_that_never_answers_times_out() {
    let statuses = send_across_lost_resolves(40_000);
    assert_eq!(statuses.len(), 1, "one terminal callback: {statuses:?}");
    let (_, code, info) = &statuses[0];
    assert_eq!(*code, StatusCode::SendDataFailure, "{statuses:?}");
    assert!(info.contains("address resolution timed out"), "{info}");
}

/// A status callback of [`sends_to_a_wifi_only_peer`]: the send's index,
/// when it reported, its code and its info.
type Report = (usize, SimTime, StatusCode, String);

/// A PI a at (0, 0) advertising `from-a` and a WiFi-only b at (5, 0), run
/// for 30 s under `faults`. For each `(at_ms, len, total)` in `sends`, a
/// sends `len` bytes (logically `total`) to b at `at_ms`. a knows b only
/// through multicast, so its TCP technology reaches b on the establish
/// path, which leaves the mesh group before it scans. Returns a's status
/// callbacks and b's log.
fn sends_to_a_wifi_only_peer(
    faults: FaultConfig,
    sends: &'static [(u64, usize, u64)],
) -> (Vec<Report>, Log) {
    let mut sim = Runner::new(SimConfig { faults, ..Default::default() });
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b =
        sim.add_device(DeviceCaps { ble: false, wifi: true, nfc: false }, Position::new(5.0, 0.0));
    let omni_b = OmniBuilder::omni_address(&sim, b);
    let reports: Rc<RefCell<Vec<Report>>> = Rc::default();
    let r = reports.clone();
    let stack_a =
        OmniStack::new(OmniBuilder::new().with_ble().with_wifi().build(&sim, a), move |omni| {
            omni.add_context(
                ContextParams::default(),
                Bytes::from_static(b"from-a"),
                Box::new(|_, _, _| {}),
            );
            omni.request_timers(Box::new(move |send, o| {
                let (_, len, total) = sends[send as usize];
                let r = r.clone();
                o.send_data_sized(
                    vec![omni_b],
                    Bytes::from(vec![b'x'; len]),
                    total,
                    Box::new(move |code, info, o| {
                        r.borrow_mut().push((send as usize, o.now, code, info.to_string()))
                    }),
                );
            }));
            for (send, &(at_ms, _, _)) in sends.iter().enumerate() {
                omni.set_timer(send as u64, SimDuration::from_millis(at_ms));
            }
        });
    let (stack_b, log_b) = listener_stack(&sim, b, OmniBuilder::new().with_wifi(), b"from-b");
    sim.set_stack(a, Box::new(stack_a));
    sim.set_stack(b, Box::new(stack_b));
    sim.run_until(SimTime::from_secs(30));
    let reports = reports.take();
    (reports, log_b)
}

/// A multicast send made while the TCP technology establishes a path has
/// left the mesh group is still delivered. At 10 s a sends 1,000,000 B to
/// b over TCP's establish path; at 10.5 s it sends 30 B, for which
/// multicast is the cheapest candidate. Multicast must not report the
/// 30 B as sent while the radio is out of the group.
#[test]
fn a_multicast_send_during_an_establish_is_delivered() {
    let (reports, log_b) = sends_to_a_wifi_only_peer(
        FaultConfig::default(),
        &[(10_000, 4, 1_000_000), (10_500, 30, 30)],
    );
    let received: Vec<usize> = log_b.borrow().data.iter().map(|(_, _, d)| d.len()).collect();
    assert!(
        received.contains(&30),
        "b never received the 30 B send: {received:?}, a saw {reports:?}"
    );
    for send in 0..2 {
        let mine: Vec<&Report> = reports.iter().filter(|r| r.0 == send).collect();
        let [(_, _, code, _)] = &mine[..] else {
            panic!("send {send}: expected one terminal status, got {reports:?}");
        };
        assert_eq!(*code, StatusCode::SendDataSuccess, "send {send}: {reports:?}");
    }
}

/// An establish whose scan finds no network puts the radio back in the
/// mesh group it left. A WiFi partition between a and b covers
/// [9.9 s, 12 s), so the scan of a 1 MB send's establish at 10 s finds
/// nothing. b, which hears a only through multicast, hears a's context
/// again once the partition heals.
#[test]
fn a_failed_establish_returns_to_the_group() {
    let partition = LinkPartition::new(0, 1, SimTime::from_millis(9_900), SimTime::from_secs(12))
        .scoped(FaultScope::Wifi);
    let faults = FaultConfig { partitions: vec![partition], ..Default::default() };
    let (reports, log_b) = sends_to_a_wifi_only_peer(faults, &[(10_000, 4, 1_000_000)]);
    assert_eq!(reports.len(), 1, "one terminal callback: {reports:?}");
    let heard: Vec<SimTime> = log_b
        .borrow()
        .contexts
        .iter()
        .filter(|(_, _, c)| c == b"from-a")
        .map(|(t, _, _)| *t)
        .collect();
    assert!(
        heard.iter().any(|&t| t > SimTime::from_secs(15)),
        "b stopped hearing a once the establish failed (last at {:?}); a saw {reports:?}",
        heard.last()
    );
}
