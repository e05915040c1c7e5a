//! End-to-end tests for the extension features: encrypted context beacons
//! (paper §3.4), multi-hop context relay, and adaptive beacon frequency
//! (paper §5 / §3.1 future work).

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use omni_core::{AdaptiveBeacon, ContextParams, GroupKey, OmniBuilder, OmniConfig, OmniStack};
use omni_obs::{EventKind, Obs};
use omni_sim::{DeviceCaps, DeviceId, Position, Runner, SimConfig, SimDuration, SimTime};
use omni_wire::OmniAddress;

type CtxLog = Rc<RefCell<Vec<(OmniAddress, Vec<u8>)>>>;

fn stack_with(
    sim: &Runner,
    dev: DeviceId,
    cfg: OmniConfig,
    advert: Option<&'static [u8]>,
) -> (OmniStack, CtxLog) {
    stack_observed(sim, dev, cfg, advert, &Obs::new())
}

/// Like [`stack_with`], with the manager reporting into `obs`.
fn stack_observed(
    sim: &Runner,
    dev: DeviceId,
    cfg: OmniConfig,
    advert: Option<&'static [u8]>,
    obs: &Obs,
) -> (OmniStack, CtxLog) {
    let log: CtxLog = Rc::new(RefCell::new(Vec::new()));
    let mgr =
        OmniBuilder::new().with_ble().with_wifi().with_config(cfg).with_obs(obs).build(sim, dev);
    let l = log.clone();
    let stack = OmniStack::new(mgr, move |omni| {
        if let Some(a) = advert {
            omni.add_context(
                ContextParams::default(),
                Bytes::from_static(a),
                Box::new(|_, _, _| {}),
            );
        }
        omni.request_context(Box::new(move |src, ctx, _| {
            l.borrow_mut().push((src, ctx.to_vec()));
        }));
    });
    (stack, log)
}

fn keyed(key: &str) -> OmniConfig {
    OmniConfig { context_key: Some(GroupKey::from_passphrase(key)), ..OmniConfig::default() }
}

#[test]
fn keyed_peers_exchange_context_transparently() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let (sa, _) = stack_with(&sim, a, keyed("tour-7"), Some(b"svc:secure"));
    let (sb, log_b) = stack_with(&sim, b, keyed("tour-7"), None);
    sim.set_stack(a, Box::new(sa));
    sim.set_stack(b, Box::new(sb));
    sim.run_until(SimTime::from_secs(5));
    // The application sees plaintext — encryption is below the API.
    assert!(log_b.borrow().iter().any(|(_, c)| c == b"svc:secure"));
}

#[test]
fn eavesdropper_without_the_key_sees_nothing() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let eve = sim.add_device(DeviceCaps::PI, Position::new(2.5, 0.0));
    let (sa, _) = stack_with(&sim, a, keyed("tour-7"), Some(b"svc:secure"));
    let (sb, log_b) = stack_with(&sim, b, keyed("tour-7"), None);
    // Eve holds the wrong key: everything she hears fails authentication.
    let eve_obs = Obs::new();
    let (se, log_e) = stack_observed(&sim, eve, keyed("wrong-key"), None, &eve_obs);
    sim.set_stack(a, Box::new(sa));
    sim.set_stack(b, Box::new(sb));
    sim.set_stack(eve, Box::new(se));
    sim.run_until(SimTime::from_secs(5));
    assert!(log_b.borrow().iter().any(|(_, c)| c == b"svc:secure"));
    assert!(log_e.borrow().is_empty(), "eve decrypted something: {:?}", log_e.borrow());
    // And her peer map has no usable mesh addresses (beacons dropped).
    let omni_a = OmniBuilder::omni_address(&sim, a).as_u64();
    assert!(
        eve_obs.events().iter().any(|e| e.kind == EventKind::AuthRejected { peer: omni_a }),
        "eve's manager must record the rejected frames"
    );
}

#[test]
fn keyed_device_ignores_plaintext_networks() {
    let mut sim = Runner::new(SimConfig::default());
    let plain_dev = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let keyed_dev = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let (sp, _) = stack_with(&sim, plain_dev, OmniConfig::default(), Some(b"svc:open"));
    let (sk, log_k) = stack_with(&sim, keyed_dev, keyed("tour-7"), None);
    sim.set_stack(plain_dev, Box::new(sp));
    sim.set_stack(keyed_dev, Box::new(sk));
    sim.run_until(SimTime::from_secs(5));
    assert!(log_k.borrow().is_empty(), "plaintext beacons must not authenticate");
}

/// Three devices in a line: A—B in range, B—C in range, A—C out of range.
/// With relaying enabled on B, C hears A's context with A as the source.
#[test]
fn context_relay_extends_reach_one_hop() {
    let mut sim = Runner::new(SimConfig::default());
    // BLE range is 30 m.
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(25.0, 0.0));
    let c = sim.add_device(DeviceCaps::PI, Position::new(50.0, 0.0));
    let omni_a = OmniBuilder::omni_address(&sim, a);
    let relay_cfg = OmniConfig { relay_ttl: 1, ..OmniConfig::default() };
    let (sa, _) = stack_with(&sim, a, OmniConfig::default(), Some(b"svc:far-away"));
    let (sb, _) = stack_with(&sim, b, relay_cfg, None);
    let (sc, log_c) = stack_with(&sim, c, OmniConfig::default(), None);
    sim.set_stack(a, Box::new(sa));
    sim.set_stack(b, Box::new(sb));
    sim.set_stack(c, Box::new(sc));
    sim.run_until(SimTime::from_secs(10));
    let log = log_c.borrow();
    assert!(
        log.iter().any(|(src, ctx)| *src == omni_a && ctx == b"svc:far-away"),
        "C must hear A's context through B's relay: {log:?}"
    );
}

#[test]
fn without_relay_context_stays_one_hop() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(25.0, 0.0));
    let c = sim.add_device(DeviceCaps::PI, Position::new(50.0, 0.0));
    let omni_a = OmniBuilder::omni_address(&sim, a);
    let (sa, _) = stack_with(&sim, a, OmniConfig::default(), Some(b"svc:far-away"));
    let (sb, _) = stack_with(&sim, b, OmniConfig::default(), None);
    let (sc, log_c) = stack_with(&sim, c, OmniConfig::default(), None);
    sim.set_stack(a, Box::new(sa));
    sim.set_stack(b, Box::new(sb));
    sim.set_stack(c, Box::new(sc));
    sim.run_until(SimTime::from_secs(10));
    assert!(!log_c.borrow().iter().any(|(src, _)| *src == omni_a));
}

/// TTL bounds the flood: a four-device chain with single-hop relays gets
/// A's context to C (via B) but not to D (the relayed copy carries ttl 0).
#[test]
fn relay_ttl_bounds_the_flood() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(25.0, 0.0));
    let c = sim.add_device(DeviceCaps::PI, Position::new(50.0, 0.0));
    let d = sim.add_device(DeviceCaps::PI, Position::new(75.0, 0.0));
    let omni_a = OmniBuilder::omni_address(&sim, a);
    let relay_cfg = OmniConfig { relay_ttl: 1, ..OmniConfig::default() };
    let (sa, _) = stack_with(&sim, a, OmniConfig::default(), Some(b"svc:chain"));
    let (sb, _) = stack_with(&sim, b, relay_cfg.clone(), None);
    let (sc, log_c) = stack_with(&sim, c, relay_cfg, None);
    let (sd, log_d) = stack_with(&sim, d, OmniConfig::default(), None);
    sim.set_stack(a, Box::new(sa));
    sim.set_stack(b, Box::new(sb));
    sim.set_stack(c, Box::new(sc));
    sim.set_stack(d, Box::new(sd));
    sim.run_until(SimTime::from_secs(10));
    assert!(log_c.borrow().iter().any(|(src, _)| *src == omni_a), "two hops reach C");
    assert!(
        !log_d.borrow().iter().any(|(src, _)| *src == omni_a),
        "ttl 1 must not reach three hops"
    );
}

/// Encrypted relaying composes: the relay re-seals for the group.
#[test]
fn relay_and_encryption_compose() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(25.0, 0.0));
    let c = sim.add_device(DeviceCaps::PI, Position::new(50.0, 0.0));
    let omni_a = OmniBuilder::omni_address(&sim, a);
    let mut relay_cfg = keyed("group");
    relay_cfg.relay_ttl = 1;
    let (sa, _) = stack_with(&sim, a, keyed("group"), Some(b"svc:sealed-chain"));
    let (sb, _) = stack_with(&sim, b, relay_cfg, None);
    let (sc, log_c) = stack_with(&sim, c, keyed("group"), None);
    sim.set_stack(a, Box::new(sa));
    sim.set_stack(b, Box::new(sb));
    sim.set_stack(c, Box::new(sc));
    sim.run_until(SimTime::from_secs(10));
    assert!(log_c.borrow().iter().any(|(src, ctx)| *src == omni_a && ctx == b"svc:sealed-chain"));
}

/// The adaptive policy decays the beacon interval while the neighborhood is
/// stable and snaps back when a new peer appears.
#[test]
fn adaptive_beacons_decay_then_recover() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    // A third device walks into range late.
    let late = sim.add_device(DeviceCaps::PI, Position::new(500.0, 0.0));
    let adaptive = OmniConfig {
        adaptive_beacon: Some(AdaptiveBeacon {
            min: SimDuration::from_millis(250),
            max: SimDuration::from_secs(4),
        }),
        ..OmniConfig::default()
    };
    let obs_a = Obs::new();
    let (sa, _) = stack_observed(&sim, a, adaptive.clone(), Some(b"svc:adaptive"), &obs_a);
    let (sb, _) = stack_with(&sim, b, adaptive.clone(), None);
    let (sl, _) = stack_with(&sim, late, adaptive, Some(b"svc:late"));
    sim.set_stack(a, Box::new(sa));
    sim.set_stack(b, Box::new(sb));
    sim.set_stack(late, Box::new(sl));
    sim.schedule_teleport(late, SimTime::from_secs(30), Position::new(10.0, 0.0));
    sim.run_until(SimTime::from_secs(45));
    let changes: Vec<(u64, u64)> = obs_a
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::BeaconIntervalChanged { to_us, .. } => Some((e.t_us, to_us)),
            _ => None,
        })
        .collect();
    assert!(
        changes.iter().any(|&(_, to_us)| to_us == 4_000_000),
        "interval decayed to the ceiling: {changes:?}"
    );
    // After the newcomer, the interval snapped back to the minimum.
    assert!(
        changes.iter().any(|&(t_us, to_us)| t_us > 30_000_000 && to_us == 250_000),
        "interval recovered on a new peer: {changes:?}"
    );
}

/// A walking device (continuous mobility) is discovered when it enters
/// range and its context stops arriving after it leaves.
#[test]
fn walking_device_is_discovered_en_route() {
    let mut sim = Runner::new(SimConfig::default());
    let fixed = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let walker = sim.add_device(DeviceCaps::PI, Position::new(200.0, 0.0));
    let omni_w = OmniBuilder::omni_address(&sim, walker);
    let (sf, log_f) = stack_with(&sim, fixed, OmniConfig::default(), None);
    let (sw, _) = stack_with(&sim, walker, OmniConfig::default(), Some(b"svc:walker"));
    sim.set_stack(fixed, Box::new(sf));
    sim.set_stack(walker, Box::new(sw));
    // Walk through the fixed device's position and far out the other side.
    sim.schedule_walk(walker, SimTime::from_secs(1), Position::new(-400.0, 0.0), 10.0);
    sim.run_until(SimTime::from_secs(80));
    let log = log_f.borrow();
    let hits: Vec<f64> = log.iter().filter(|(src, _)| *src == omni_w).map(|_| 0.0).collect();
    assert!(!hits.is_empty(), "walker heard while passing");
    // Walker is ~200 m away at t=1 and passes x=0 at ~t=21; BLE range 30 m
    // gives a contact window of roughly t=18..24. Nothing before t=15.
    assert!(log.iter().all(|(src, _)| *src == omni_w), "only the walker advertises");
}
