//! Ablations of Omni's two design contributions plus the beacon-interval
//! sweep (DESIGN.md §4). Each switch is toggled independently on an
//! otherwise-identical stack, isolating its contribution:
//!
//! * `advertise_on_all_techs` — disabling the context/data bifurcation's
//!   "cheapest-technology-first with on-demand engagement" policy. Measures
//!   discovery energy.
//! * `integrate_low_level_nd` — discarding the cross-technology addresses
//!   carried by address beacons. Measures data-path latency.
//! * beacon interval — the paper fixes 500 ms; the sweep shows the
//!   latency/energy trade the adaptive protocols of the future-work section
//!   would navigate.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use omni_bench::experiments::BASELINE_MA;
use omni_bench::ObsRun;
use omni_core::{ContextParams, OmniBuilder, OmniConfig, OmniStack};
use omni_obs::Obs;
use omni_sim::{DeviceCaps, Position, Runner, SimConfig, SimDuration, SimTime};
use omni_wire::{StatusCode, TechType};

/// Average discovery-phase current (mA rel. baseline) for a pair of idle,
/// beaconing devices under a given config.
fn discovery_energy(mut cfg: OmniConfig, obs: Option<&Obs>) -> f64 {
    let mut sim = Runner::new(SimConfig::default());
    if let Some(o) = obs {
        sim.set_obs(o.clone());
        cfg.obs = Some(o.clone());
    }
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    for d in [a, b] {
        let mgr = OmniBuilder::new().with_ble().with_wifi().with_config(cfg.clone()).build(&sim, d);
        sim.set_stack(
            d,
            Box::new(OmniStack::new(mgr, |omni| {
                omni.add_context(
                    ContextParams::default(),
                    Bytes::from_static(b"svc:ablation"),
                    Box::new(|_, _, _| {}),
                );
            })),
        );
    }
    sim.run_until(SimTime::from_secs(60));
    sim.energy().average_ma(a, SimTime::ZERO, SimTime::from_secs(60)) - BASELINE_MA
}

/// 30 B data latency (ms) after a 10 s warmup under a given config.
fn data_latency_ms(mut cfg: OmniConfig, obs: Option<&Obs>) -> f64 {
    let mut sim = Runner::new(SimConfig::default());
    if let Some(o) = obs {
        sim.set_obs(o.clone());
        cfg.obs = Some(o.clone());
    }
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let dest = OmniBuilder::omni_address(&sim, b);
    let sent: Rc<RefCell<(Option<SimTime>, Option<SimTime>)>> = Rc::new(RefCell::new((None, None)));
    let mgr = OmniBuilder::new().with_ble().with_wifi().with_config(cfg.clone()).build(&sim, a);
    let s = sent.clone();
    sim.set_stack(
        a,
        Box::new(OmniStack::new(mgr, move |omni| {
            let s2 = s.clone();
            omni.request_timers(Box::new(move |_, o| {
                let s3 = s2.clone();
                if s2.borrow().0.is_none() {
                    s2.borrow_mut().0 = Some(o.now);
                    o.send_data(
                        vec![dest],
                        Bytes::from_static(b"ablation-probe-thirty-bytes!!!"),
                        Box::new(move |code, _, o2| {
                            if code == StatusCode::SendDataSuccess {
                                s3.borrow_mut().1 = Some(o2.now);
                            }
                        }),
                    );
                }
            }));
            omni.set_timer(1, SimDuration::from_secs(10));
        })),
    );
    let mgr = OmniBuilder::new().with_ble().with_wifi().with_config(cfg).build(&sim, b);
    sim.set_stack(
        b,
        Box::new(OmniStack::new(mgr, |omni| {
            omni.request_data(Box::new(|_, _, _| {}));
        })),
    );
    sim.run_until(SimTime::from_secs(30));
    let (start, end) = *sent.borrow();
    (end.expect("send completes") - start.expect("send issued")).as_secs_f64() * 1e3
}

/// Discovery latency (ms): time until B first hears A's context pack.
fn discovery_latency_ms(beacon_interval: SimDuration, obs: Option<&Obs>) -> f64 {
    let mut sim = Runner::new(SimConfig::default());
    if let Some(o) = obs {
        sim.set_obs(o.clone());
    }
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let heard: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
    let cfg = OmniConfig { beacon_interval, obs: obs.cloned(), ..Default::default() };
    let mgr = OmniBuilder::new().with_ble().with_config(cfg.clone()).build(&sim, a);
    sim.set_stack(
        a,
        Box::new(OmniStack::new(mgr, move |omni| {
            omni.add_context(
                ContextParams { interval: beacon_interval },
                Bytes::from_static(b"svc:sweep"),
                Box::new(|_, _, _| {}),
            );
        })),
    );
    let mgr = OmniBuilder::new().with_ble().with_config(cfg).build(&sim, b);
    let h = heard.clone();
    sim.set_stack(
        b,
        Box::new(OmniStack::new(mgr, move |omni| {
            let h2 = h.clone();
            omni.request_context(Box::new(move |_, _, o| {
                h2.borrow_mut().get_or_insert(o.now);
            }));
        })),
    );
    sim.run_until(SimTime::from_secs(30));
    let at = heard.borrow().expect("discovered");
    at.as_secs_f64() * 1e3
}

fn main() {
    let obs = ObsRun::new("ablations");
    println!("== Ablation: context/data bifurcation (beacon only on the cheapest tech) ==");
    let omni = discovery_energy(OmniConfig::default(), Some(&*obs));
    let all = OmniConfig { advertise_on_all_techs: true, ..Default::default() };
    let everywhere = discovery_energy(all, Some(&*obs));
    println!("  engagement policy (Omni)     : {omni:>7.2} mA");
    println!("  advertise on all (SA-style)  : {everywhere:>7.2} mA");
    println!("  -> the bifurcation saves {:.2} mA of continuous discovery draw", everywhere - omni);

    println!();
    println!("== Ablation: low-level neighbor discovery integration ==");
    let pinned = OmniConfig { data_techs: Some(vec![TechType::WifiTcp]), ..Default::default() };
    let with_nd = data_latency_ms(pinned.clone(), Some(&*obs));
    let mut without = pinned;
    without.integrate_low_level_nd = false;
    let without_nd = data_latency_ms(without, Some(&*obs));
    println!("  beacon carries WiFi address (Omni): {with_nd:>9.2} ms");
    println!("  addresses not integrated (SA)     : {without_nd:>9.2} ms");
    println!(
        "  -> integration removes the {:.1} s network-establishment cost",
        (without_nd - with_nd) / 1e3
    );

    println!();
    println!("== Sweep: address/context beacon interval (paper fixes 500 ms) ==");
    println!("  interval   discovery-latency   discovery-energy");
    for ms in [100u64, 250, 500, 1000, 2000] {
        let interval = SimDuration::from_millis(ms);
        let lat = discovery_latency_ms(interval, Some(&*obs));
        let cfg = OmniConfig { beacon_interval: interval, ..Default::default() };
        let energy = discovery_energy(cfg, Some(&*obs));
        println!("  {ms:>5} ms   {lat:>12.1} ms   {energy:>11.2} mA");
    }

    println!();
    println!("== Extension: adaptive beacon frequency (paper §3.1 future work) ==");
    let fixed_fast = {
        let cfg =
            OmniConfig { beacon_interval: SimDuration::from_millis(250), ..Default::default() };
        discovery_energy(cfg, Some(&*obs))
    };
    let adaptive = {
        let cfg = OmniConfig {
            adaptive_beacon: Some(omni_core::AdaptiveBeacon {
                min: SimDuration::from_millis(250),
                max: SimDuration::from_secs(4),
            }),
            ..Default::default()
        };
        discovery_energy(cfg, Some(&*obs))
    };
    println!("  fixed 250 ms forever        : {fixed_fast:>7.2} mA");
    println!("  adaptive 250 ms -> 4 s decay: {adaptive:>7.2} mA");
    println!("  -> same worst-case discovery latency when the neighborhood changes,");
    println!("     {:.2} mA saved once it stabilizes", fixed_fast - adaptive);
}
