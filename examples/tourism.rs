//! The smart-city tourism scenario from the paper's §2.2 — a tour group
//! walks past landmark beacons while the guide streams audio.
//!
//! Run with `cargo run --example tourism`.

use omni::apps::tourism;
use omni::core::{OmniBuilder, OmniStack};
use omni::sim::{DeviceCaps, Position, Runner, SimConfig, SimDuration, SimTime};

fn main() {
    let mut sim = Runner::new(SimConfig::default());

    // The tour: a guide, two tourists, and two landmark beacons along the
    // route. The landmarks are 60 m apart; the group starts near the first.
    let guide = sim.add_device(DeviceCaps::PHONE, Position::new(0.0, 0.0));
    let tourist1 = sim.add_device(DeviceCaps::PHONE, Position::new(2.0, 0.0));
    let tourist2 = sim.add_device(DeviceCaps::PHONE, Position::new(4.0, 0.0));
    let landmark1 = sim.add_device(DeviceCaps::PI, Position::new(10.0, 0.0));
    let landmark2 = sim.add_device(DeviceCaps::PI, Position::new(70.0, 0.0));

    let guide_addr = OmniBuilder::omni_address(&sim, guide);

    let mgr = OmniBuilder::new().with_caps(DeviceCaps::PHONE).build(&sim, guide);
    sim.set_stack(guide, Box::new(OmniStack::new(mgr, tourism::guide(SimDuration::from_secs(2)))));

    let mut reports = Vec::new();
    for t in [tourist1, tourist2] {
        let (init, report) = tourism::tourist(Some(guide_addr));
        let mgr = OmniBuilder::new().with_caps(DeviceCaps::PHONE).build(&sim, t);
        sim.set_stack(t, Box::new(OmniStack::new(mgr, init)));
        reports.push(report);
    }
    for l in [landmark1, landmark2] {
        let mgr = OmniBuilder::new().with_ble().with_wifi().build(&sim, l);
        sim.set_stack(l, Box::new(OmniStack::new(mgr, tourism::landmark())));
    }

    // The group walks down the street: at t=20 s everyone teleports near the
    // second landmark (a compressed stroll).
    for (i, d) in [guide, tourist1, tourist2].into_iter().enumerate() {
        sim.schedule_teleport(d, SimTime::from_secs(20), Position::new(66.0 + 2.0 * i as f64, 0.0));
    }

    sim.run_until(SimTime::from_secs(45));

    for (i, report) in reports.iter().enumerate() {
        let r = report.borrow();
        println!("tourist {}:", i + 1);
        for (addr, at) in &r.landmarks {
            println!("  discovered landmark {addr} at {at}");
        }
        for (addr, at) in &r.visualizations {
            println!("  received visualization from {addr} at {at}");
        }
        println!("  audio chunks from the guide: {}", r.audio_chunks);
    }
    let avg = sim.energy().average_ma(tourist1, SimTime::ZERO, SimTime::from_secs(45));
    println!("tourist 1 average draw: {avg:.1} mA (standby floor 92.1 mA)");

    let landmarks = [landmark1, landmark2].map(|l| OmniBuilder::omni_address(&sim, l));
    for (i, report) in reports.iter().enumerate() {
        let r = report.borrow();
        for landmark in landmarks {
            let from_it = |seen: &[(_, SimTime)]| seen.iter().any(|&(addr, _)| addr == landmark);
            assert!(from_it(&r.landmarks), "tourist {} never discovered {landmark}", i + 1);
            assert!(
                from_it(&r.visualizations),
                "tourist {} never received {landmark}'s visualization",
                i + 1
            );
        }
        assert!(r.audio_chunks > 0, "tourist {} got no audio from the guide", i + 1);
    }
}
