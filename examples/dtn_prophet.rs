//! PRoPHET DTN routing over Omni (paper §4.3): device A hands a bundle to
//! carrier B, which delivers it to C after a five-second encounter delay.
//!
//! Run with `cargo run --example dtn_prophet`.

use omni::apps::prophet::{omni_prophet, Bundle};
use omni::core::{OmniBuilder, OmniStack};
use omni::sim::{DeviceCaps, Position, Runner, SimConfig, SimTime};

fn main() {
    let mut sim = Runner::new(SimConfig::default());
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(20.0, 0.0));
    let c = sim.add_device(DeviceCaps::PI, Position::new(5_000.0, 0.0));
    let names = ["A", "B", "C"];
    let ids: Vec<_> = [a, b, c].iter().map(|&d| OmniBuilder::omni_address(&sim, d)).collect();

    let bundle = Bundle { id: 1, dest: ids[2], size: 1_000 };
    println!("A buffers a 1 KB bundle for C (out of radio range).");
    println!("B has encountered C before, so PRoPHET rates it the better carrier.");

    let (init_a, rep_a) = omni_prophet(ids[0], vec![bundle], vec![]);
    let (init_b, rep_b) = omni_prophet(ids[1], vec![], vec![(ids[2], 0.5)]);
    let (init_c, rep_c) = omni_prophet(ids[2], vec![], vec![]);

    let mgr = OmniBuilder::new().with_ble().with_wifi().build(&sim, a);
    sim.set_stack(a, Box::new(OmniStack::new(mgr, init_a)));
    let mgr = OmniBuilder::new().with_ble().with_wifi().build(&sim, b);
    sim.set_stack(b, Box::new(OmniStack::new(mgr, init_b)));
    let mgr = OmniBuilder::new().with_ble().with_wifi().build(&sim, c);
    sim.set_stack(c, Box::new(OmniStack::new(mgr, init_c)));

    // B walks over to C five seconds in.
    sim.schedule_teleport(b, SimTime::from_secs(5), Position::new(4_990.0, 0.0));
    sim.run_until(SimTime::from_secs(30));

    for (i, rep) in [&rep_a, &rep_b, &rep_c].iter().enumerate() {
        let r = rep.borrow();
        println!("{}: forwarded {} bundle(s)", names[i], r.forwards);
        for (id, at) in &r.delivered {
            println!("{}: bundle {id} DELIVERED at {at}", names[i]);
        }
    }
    let avg = sim.energy().average_ma(b, SimTime::ZERO, SimTime::from_secs(30));
    println!("carrier B average draw: {avg:.1} mA (standby floor 92.1 mA)");
    assert!(rep_c.borrow().delivered.iter().any(|&(id, _)| id == 1), "C never received bundle 1");
}
