//! Extension features in one scene (paper §3.4 and §5): a tour group with a
//! shared group key walks in a long line — context beacons are encrypted,
//! peers outside the group see nothing, and mid-line members relay context
//! so the head of the line hears the tail two BLE-hops away. The middle
//! members run adaptive beacon intervals that slow down once the group is
//! stable.
//!
//! Run with `cargo run --example secure_relay`.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use bytes::Bytes;
use omni::core::{AdaptiveBeacon, ContextParams, GroupKey, OmniBuilder, OmniConfig, OmniStack};
use omni::obs::{EventKind, Obs};
use omni::sim::{DeviceCaps, Position, Runner, SimConfig, SimDuration, SimTime};

fn main() {
    let mut sim = Runner::new(SimConfig::default());
    // Room for every event of the run, so the cadence count below is exact.
    let obs = Obs::with_event_capacity(1 << 16);
    let key = GroupKey::from_passphrase("tour-group-7");

    // A line of four group devices 25 m apart (BLE range is 30 m), plus an
    // eavesdropper right in the middle with the wrong key.
    let head = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let mid1 = sim.add_device(DeviceCaps::PI, Position::new(25.0, 0.0));
    let mid2 = sim.add_device(DeviceCaps::PI, Position::new(50.0, 0.0));
    let tail = sim.add_device(DeviceCaps::PI, Position::new(75.0, 0.0));
    let eve = sim.add_device(DeviceCaps::PI, Position::new(37.0, 0.0));

    let group = |relay_ttl: u8| OmniConfig {
        context_key: Some(key),
        relay_ttl,
        adaptive_beacon: Some(AdaptiveBeacon {
            min: SimDuration::from_millis(250),
            max: SimDuration::from_secs(2),
        }),
        ..OmniConfig::default()
    };

    // The tail advertises its status; mid devices grant relayed packs two
    // further hops so the tail's context can traverse mid2 → mid1 → head.
    let head_heard = Rc::new(RefCell::new(BTreeSet::new()));
    for (dev, ttl, advert) in [
        (head, 0u8, &b""[..]),
        (mid1, 2, b""),
        (mid2, 2, b"status:keeping-up"),
        (tail, 1, b"status:tail-lagging"),
    ] {
        let mgr = OmniBuilder::new()
            .with_ble()
            .with_wifi()
            .with_config(group(ttl))
            .with_obs(&obs)
            .build(&sim, dev);
        let advert = Bytes::copy_from_slice(advert);
        let heard = (dev == head).then(|| head_heard.clone());
        sim.set_stack(
            dev,
            Box::new(OmniStack::new(mgr, move |omni| {
                if !advert.is_empty() {
                    omni.add_context(
                        ContextParams::default(),
                        advert.clone(),
                        Box::new(|_, _, _| {}),
                    );
                }
                omni.request_context(Box::new(move |src, ctx, _| {
                    if let Some(h) = &heard {
                        h.borrow_mut().insert(format!(
                            "[head] heard {src}: {}",
                            String::from_utf8_lossy(ctx)
                        ));
                    }
                }));
            })),
        );
    }
    // Eve: wrong key.
    let eve_cfg = OmniConfig {
        context_key: Some(GroupKey::from_passphrase("not-the-key")),
        ..OmniConfig::default()
    };
    let eve_heard = Rc::new(RefCell::new(0usize));
    let eh = eve_heard.clone();
    let mgr = OmniBuilder::new().with_ble().with_wifi().with_config(eve_cfg).build(&sim, eve);
    sim.set_stack(
        eve,
        Box::new(OmniStack::new(mgr, move |omni| {
            omni.request_context(Box::new(move |_, _, _| *eh.borrow_mut() += 1));
        })),
    );

    sim.run_until(SimTime::from_secs(20));

    // What the head learned, despite the tail being two hops away:
    let head_heard = head_heard.borrow();
    for m in head_heard.iter() {
        println!("{m}");
    }
    let eve_heard = *eve_heard.borrow();
    println!("eve decrypted {eve_heard} packs (group key held: no)");
    let adapted = obs
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::BeaconIntervalChanged { .. }))
        .count();
    println!("adaptive beacon interval changes across the group: {adapted}");
    assert!(head_heard.iter().any(|m| m.contains("tail-lagging")), "relay reached the head");
    assert_eq!(eve_heard, 0);
}
