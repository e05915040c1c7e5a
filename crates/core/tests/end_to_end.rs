//! End-to-end tests: two (or more) full Omni stacks on the simulated
//! substrate — discovery, context delivery, data paths, fallback, and the
//! engagement algorithm.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use omni_core::{ContextParams, OmniBuilder, OmniConfig, OmniStack};
use omni_obs::{EventKind, Obs};
use omni_sim::{
    DeviceCaps, DeviceId, FaultConfig, FaultScope, LinkPartition, Position, Runner, SimConfig,
    SimDuration, SimTime,
};
use omni_wire::{OmniAddress, StatusCode, TechType};

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
