//! Quickstart: two Omni devices discover each other, exchange context, and
//! transfer data — with the middleware choosing every radio.
//!
//! Run with `cargo run --example quickstart`.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use omni::core::{ContextParams, OmniBuilder, OmniStack};
use omni::sim::{DeviceCaps, Position, Runner, SimConfig, SimTime};
use omni::wire::StatusCode;
use omni_bench::ObsRun;

fn main() {
    // One observability handle spans the sim and both stacks; when `obs`
    // drops at the end of `main`, the run's metrics/event snapshot is
    // printed and written to `target/obs/quickstart.json`.
    let obs = ObsRun::new("quickstart");
    let mut sim = Runner::new(SimConfig::default());
    sim.set_obs(obs.clone());

    // Two phone-class devices five meters apart.
    let alice = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let bob = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let bob_addr = OmniBuilder::omni_address(&sim, bob);
    // What the run must show: bob hears the context and the reading, and
    // alice's send reports success.
    let (heard, received, sent) =
        (Rc::new(Cell::new(false)), Rc::new(Cell::new(false)), Rc::new(Cell::new(false)));

    // Alice advertises a service and, once discovery has run, sends Bob a
    // sensor reading. She never names a radio: context rides BLE beacons,
    // data rides TCP over WiFi-Mesh using the address learned during
    // neighbor discovery.
    let mgr = OmniBuilder::new().with_ble().with_wifi().with_obs(&obs).build(&sim, alice);
    let sent_cb = sent.clone();
    sim.set_stack(
        alice,
        Box::new(OmniStack::new(mgr, move |omni| {
            omni.add_context(
                ContextParams::default(),
                Bytes::from_static(b"svc:air-quality"),
                Box::new(|code, info, _| println!("[alice] add_context -> {code} ({info})")),
            );
            omni.request_timers(Box::new(move |_, o| {
                println!("[alice] {} sending reading to bob", o.now);
                let sent = sent_cb.clone();
                o.send_data(
                    vec![bob_addr],
                    Bytes::from_static(b"pm2.5=7ug/m3"),
                    Box::new(move |code, info, o2| {
                        println!("[alice] {} send_data -> {code} ({info})", o2.now);
                        sent.set(code == StatusCode::SendDataSuccess);
                    }),
                );
            }));
            omni.set_timer(1, omni::sim::SimDuration::from_secs(3));
        })),
    );

    // Bob listens for context and data.
    let mgr = OmniBuilder::new().with_ble().with_wifi().with_obs(&obs).build(&sim, bob);
    let (heard_cb, received_cb) = (heard.clone(), received.clone());
    sim.set_stack(
        bob,
        Box::new(OmniStack::new(mgr, move |omni| {
            omni.request_context(Box::new(move |src, ctx, o| {
                println!("[bob]   {} context from {src}: {}", o.now, String::from_utf8_lossy(ctx));
                if ctx.as_ref() == b"svc:air-quality" {
                    heard_cb.set(true);
                }
            }));
            omni.request_data(Box::new(move |src, data, o| {
                println!("[bob]   {} data from {src}: {}", o.now, String::from_utf8_lossy(data));
                if data.as_ref() == b"pm2.5=7ug/m3" {
                    received_cb.set(true);
                }
            }));
        })),
    );

    sim.run_until(SimTime::from_secs(5));

    // The energy story, straight from the ledger.
    for (name, dev) in [("alice", alice), ("bob", bob)] {
        let avg = sim.energy().average_ma(dev, SimTime::ZERO, SimTime::from_secs(5));
        println!("[{name}] average draw over 5 s: {avg:.1} mA (WiFi standby is 92.1 mA)");
    }
    assert!(heard.get(), "bob never heard alice's context");
    assert!(received.get(), "bob never received the reading");
    assert!(sent.get(), "alice's send did not report SEND_DATA_SUCCESS");
}
