//! Disseminate-style collaborative media download (paper §4.3): three
//! co-located devices split a 30 MB file across their infrastructure links
//! and share the pieces device-to-device.
//!
//! Run with `cargo run --release --example file_share`.

use omni::apps::disseminate::{omni_disseminate, FileSpec};
use omni::core::{OmniBuilder, OmniStack};
use omni::sim::{DeviceCaps, Position, Runner, SimConfig, SimTime};
use omni_bench::ObsRun;

fn main() {
    let rate_bps = 1_000_000.0; // a 1000 KBps infrastructure link each
    let spec = FileSpec::PAPER_30MB;

    let mut sim = Runner::new(SimConfig::default());
    // Shared observability handle; its drop prints the snapshot and writes
    // `target/obs/file_share.json`.
    let obs = ObsRun::new("file_share");
    sim.set_obs(obs.clone());
    let mut reports = Vec::new();
    for i in 0..3 {
        let d = sim.add_device(DeviceCaps::PI, Position::new(5.0 * i as f64, 0.0));
        sim.set_infra_rate(d, rate_bps);
        let (init, report) = omni_disseminate(spec, i, 3);
        let mgr = OmniBuilder::new().with_ble().with_wifi().with_obs(&obs).build(&sim, d);
        sim.set_stack(d, Box::new(OmniStack::new(mgr, init)));
        reports.push((d, report));
    }
    sim.run_until(SimTime::from_secs(120));

    let direct_s = spec.total_bytes() as f64 / rate_bps;
    println!("direct download of {} MB would take {direct_s:.1} s", spec.total_bytes() / 1_000_000);
    for (i, (dev, report)) in reports.iter().enumerate() {
        let r = report.borrow();
        match r.completed_at {
            Some(at) => {
                let avg = sim.energy().average_ma(*dev, SimTime::ZERO, at);
                println!(
                    "device {i}: complete at {:.2} s  ({} pieces d2d, {} infra, avg {avg:.1} mA)",
                    at.as_secs_f64(),
                    r.pieces_via_d2d,
                    r.pieces_via_infra
                );
            }
            None => println!("device {i}: incomplete"),
        }
    }
    for (i, (_, report)) in reports.iter().enumerate() {
        let r = report.borrow();
        assert!(r.completed_at.is_some(), "device {i} never completed the file");
        assert!(r.pieces_via_d2d > 0, "device {i} got no piece device-to-device");
    }
}
