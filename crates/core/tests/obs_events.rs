//! Observability integration: two full stacks share one `Obs` handle and the
//! structured event stream tells the story of the run in causal order —
//! beacons go out, a peer is discovered, data is enqueued, data is delivered.
//! Every manager counter that counts an event kind agrees with the stream.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use omni_core::{ContextParams, OmniBuilder, OmniConfig, OmniStack, RelayPolicy, RetryPolicy};
use omni_obs::{split_labels, EventKind, Obs};
use omni_sim::{
    DeviceCaps, FaultConfig, FaultScope, LinkPartition, Position, Runner, SimConfig, SimDuration,
    SimTime,
};
use omni_wire::{OmniAddress, StatusCode};

/// Index of the first event whose kind name is `name`, if any.
fn first(events: &[omni_obs::Event], name: &str) -> Option<usize> {
    events.iter().position(|e| e.kind.name() == name)
}

#[test]
fn two_node_run_emits_causally_ordered_events() {
    let obs = Obs::new();
    let mut sim = Runner::new(SimConfig::default());
    sim.set_obs(obs.clone());

    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let omni_b = OmniBuilder::omni_address(&sim, b);

    // a: after 3 s of discovery, send 30 bytes to b.
    let sent: Rc<RefCell<Vec<StatusCode>>> = Rc::new(RefCell::new(Vec::new()));
    let s = sent.clone();
    let manager_a = OmniBuilder::new().with_ble().with_wifi().with_obs(&obs).build(&sim, a);
    let stack_a = OmniStack::new(manager_a, move |omni| {
        omni.request_timers(Box::new(move |token, o| {
            if token == 1 {
                let s2 = s.clone();
                o.send_data(
                    vec![omni_b],
                    Bytes::from_static(b"sensor-reading-of-30-bytes..."),
                    Box::new(move |code, _, _| s2.borrow_mut().push(code)),
                );
            }
        }));
        omni.set_timer(1, SimDuration::from_secs(3));
    });

    let delivered: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
    let d = delivered.clone();
    let manager_b = OmniBuilder::new().with_ble().with_wifi().with_obs(&obs).build(&sim, b);
    let stack_b = OmniStack::new(manager_b, move |omni| {
        omni.request_data(Box::new(move |_, data, _| d.borrow_mut().push(data.to_vec())));
    });

    sim.set_stack(a, Box::new(stack_a));
    sim.set_stack(b, Box::new(stack_b));
    sim.run_until(SimTime::from_secs(10));

    // The run itself worked.
    assert!(sent.borrow().contains(&StatusCode::SendDataSuccess), "send never succeeded");
    assert_eq!(delivered.borrow().len(), 1, "exactly one payload should arrive");

    // The event stream recorded it, in causal order of first occurrence:
    // BeaconSent -> PeerDiscovered -> DataEnqueued -> DataDelivered.
    let events = obs.events();
    let beacon = first(&events, "BeaconSent").expect("no BeaconSent event");
    let discovered = first(&events, "PeerDiscovered").expect("no PeerDiscovered event");
    let enqueued = first(&events, "DataEnqueued").expect("no DataEnqueued event");
    let delivered_ev = first(&events, "DataDelivered").expect("no DataDelivered event");
    assert!(beacon < discovered, "beacon ({beacon}) must precede discovery ({discovered})");
    assert!(discovered < enqueued, "discovery ({discovered}) must precede enqueue ({enqueued})");
    assert!(enqueued < delivered_ev, "enqueue ({enqueued}) must precede delivery ({delivered_ev})");

    // Timestamps are monotone non-decreasing (the sim clock never runs back).
    assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us), "event times not monotone");

    // The delivery event carries the payload size and the sender's address.
    let omni_a = OmniBuilder::omni_address(&sim, a);
    match events[delivered_ev].kind {
        EventKind::DataDelivered { peer, bytes, .. } => {
            assert_eq!(peer, omni_a.as_u64());
            assert_eq!(bytes, 29, "payload is 29 bytes");
        }
        other => panic!("expected DataDelivered, got {other:?}"),
    }

    // Metrics agree with the event stream.
    assert_eq!(obs.counter("mgr.data_delivered").get(), 1);
    assert!(obs.counter("mgr.beacons_rx").get() > 0);
    assert_eq!(obs.events_dropped(), 0);
}

/// A destination no fleet ever discovers.
const UNKNOWN: OmniAddress = OmniAddress::from_u64(0xDEAD_BEEF);

/// Each event kind the manager counts, its counter and the counter's label
/// keys (the relay counters carry the strategy).
const COUNTED: [(&str, &str, &[&str]); 12] = [
    ("BeaconReceived", "mgr.beacons_rx", &[]),
    ("DataEnqueued", "mgr.data_enqueued", &[]),
    ("DataSent", "mgr.data_sent", &[]),
    ("DataDelivered", "mgr.data_delivered", &[]),
    ("DataFailed", "mgr.data_failed", &[]),
    ("DataFailedOver", "mgr.data_fallbacks", &[]),
    ("DataRetried", "mgr.data_retries", &[]),
    ("ContextUpdated", "mgr.context_ops", &[]),
    ("DataRelayed", "mgr.data_relayed", &["strategy"]),
    ("DataCustody", "mgr.data_custody", &["strategy"]),
    ("DataDeduped", "mgr.data_deduped", &["strategy"]),
    ("TtlExpired", "mgr.ttl_expired", &["strategy"]),
];

/// Runs `devices` stacks for 20 s on one `Obs` and returns it. Device 0 adds a
/// context at once and, from 3 s on, sends eight 8 B payloads to the last
/// device and one to a peer that never appears.
fn fleet(
    faults: FaultConfig,
    cfg: OmniConfig,
    devices: &[(DeviceCaps, Position)],
    ble_only: bool,
) -> Obs {
    let obs = Obs::with_event_capacity(1 << 18);
    let mut sim = Runner::new(SimConfig { seed: 5, faults, ..Default::default() });
    sim.set_obs(obs.clone());
    let devs: Vec<_> = devices.iter().map(|&(caps, pos)| sim.add_device(caps, pos)).collect();
    let last = OmniBuilder::omni_address(&sim, devs[devs.len() - 1]);
    for (i, (&dev, &(caps, _))) in devs.iter().zip(devices).enumerate() {
        let builder = if ble_only {
            OmniBuilder::new().with_ble()
        } else {
            OmniBuilder::new().with_caps(caps)
        };
        let mgr = builder.with_config(cfg.clone()).with_obs(&obs).build(&sim, dev);
        let stack = OmniStack::new(mgr, move |omni| {
            if i != 0 {
                return;
            }
            omni.add_context(
                ContextParams::default(),
                Bytes::from_static(b"ctx"),
                Box::new(|_, _, _| {}),
            );
            omni.request_timers(Box::new(move |token, o| {
                let dest = if token == 9 { UNKNOWN } else { last };
                o.send_data(vec![dest], Bytes::from(vec![token as u8; 8]), Box::new(|_, _, _| {}));
            }));
            for token in 1..=9u64 {
                omni.set_timer(token, SimDuration::from_millis(2_600 + 400 * token));
            }
        });
        sim.set_stack(dev, Box::new(stack));
    }
    sim.run_until(SimTime::from_secs(20));
    obs
}

/// The sum of `base`'s counters whose label keys are exactly `keys`.
fn total(counters: &[(String, u64)], base: &str, keys: &[&str]) -> u64 {
    counters
        .iter()
        .filter(|(name, _)| {
            let (b, labels) = split_labels(name);
            b == base && labels.iter().map(|(k, _)| *k).eq(keys.iter().copied())
        })
        .map(|(_, v)| v)
        .sum()
}

/// Every manager counter that counts an event kind equals the number of
/// events of that kind: a reliable BLE+WiFi pair under BLE loss and a WiFi
/// partition retries and fails over, and a three-node epidemic BLE chain
/// relays, takes custody, dedups and expires custody.
#[test]
fn every_counter_matches_its_events() {
    let pair = fleet(
        FaultConfig {
            ble_loss: 0.5,
            partitions: vec![LinkPartition::new(
                0,
                1,
                SimTime::from_secs(3),
                SimTime::from_secs(6),
            )
            .scoped(FaultScope::Wifi)],
            ..Default::default()
        },
        OmniConfig { retry: RetryPolicy::reliable(), ..Default::default() },
        &[(DeviceCaps::PI, Position::new(0.0, 0.0)), (DeviceCaps::PI, Position::new(5.0, 0.0))],
        false,
    );
    let mut relay = RelayPolicy::epidemic();
    relay.custody_timeout = SimDuration::from_secs(4);
    let chain = fleet(
        FaultConfig::default(),
        OmniConfig { relay, ..Default::default() },
        &[0.0, 25.0, 50.0].map(|x| (DeviceCaps::PI, Position::new(x, 0.0))),
        true,
    );
    let mut seen = [0u64; COUNTED.len()];
    for obs in [pair, chain] {
        assert_eq!(obs.events_dropped(), 0, "the event ring wrapped");
        let events = obs.events();
        let counters = obs.metrics().read().counters;
        for (i, (kind, counter, keys)) in COUNTED.into_iter().enumerate() {
            let n = events.iter().filter(|e| e.kind.name() == kind).count() as u64;
            assert_eq!(total(&counters, counter, keys), n, "{counter} against {kind} events");
            if matches!(kind, "DataSent" | "DataDelivered") {
                assert_eq!(
                    total(&counters, counter, &["tech"]),
                    n,
                    "{counter}{{tech=..}} against {kind} events"
                );
            }
            seen[i] += n;
        }
    }
    for ((kind, _, _), n) in COUNTED.iter().zip(seen) {
        assert!(n > 0, "no fleet recorded {kind}");
    }
}
