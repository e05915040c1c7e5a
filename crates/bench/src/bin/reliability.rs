//! Reliability benchmark: delivery ratio under injected faults.
//!
//! Two experiments:
//!
//! * **Loss sweep** — BLE-only data at increasing frame-loss rates, classic
//!   fire-and-forget vs. the reliable retry/backoff path. Fire-and-forget
//!   delivery decays roughly as `1 - p`; the reliable path holds near 100%.
//! * **Wild cell** — 20% BLE loss plus a WiFi-scoped partition cutting the
//!   pair mid-run, data allowed on WiFi-TCP and BLE. Sends started while the
//!   mesh is cut fail over to BLE; retries absorb the losses.
//!
//! `--smoke` runs only the wild cell and asserts the reliability contract:
//! ≥ 95% delivery and exactly one terminal status per message. The obs
//! snapshot lands in `target/obs/reliability.json` either way.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use omni_bench::baseline::Baseline;
use omni_bench::report::{Cell, Chart, Table};
use omni_bench::ObsRun;
use omni_core::{OmniBuilder, OmniConfig, OmniStack, RetryPolicy};
use omni_obs::Obs;
use omni_sim::{
    DeviceCaps, FaultScope, LinkPartition, Position, Runner, SimConfig, SimDuration, SimTime,
};
use omni_wire::{StatusCode, TechType};

/// Messages per cell; one payload byte identifies each message.
const MSGS: usize = 24;
/// First send fires here (discovery has converged by then).
const FIRST_SEND_S: u64 = 3;
/// Spacing between sends.
const SEND_GAP_MS: u64 = 400;

struct CellResult {
    /// Distinct messages seen by the receiver (at-least-once, deduplicated).
    delivered: usize,
    /// Messages that got exactly one terminal status.
    concluded_once: usize,
    /// Messages whose single status was `SendDataSuccess`.
    succeeded: usize,
}

impl CellResult {
    fn delivery_pct(&self) -> f64 {
        100.0 * self.delivered as f64 / MSGS as f64
    }
}

/// Runs one sender/receiver pair under the given faults and retry policy.
fn run_cell(
    seed: u64,
    faults: omni_sim::FaultConfig,
    retry: RetryPolicy,
    wild: bool,
) -> CellResult {
    run_cell_obs(seed, faults, retry, wild, None)
}

fn run_cell_obs(
    seed: u64,
    faults: omni_sim::FaultConfig,
    retry: RetryPolicy,
    wild: bool,
    obs: Option<&Obs>,
) -> CellResult {
    let sim_cfg = SimConfig { seed, faults, ..Default::default() };
    let mut sim = Runner::new(sim_cfg);
    if let Some(obs) = obs {
        sim.set_obs(obs.clone());
    }
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let dest = OmniBuilder::omni_address(&sim, b);

    // The wild cell lets the selector fail over WiFi-TCP → BLE; the loss
    // sweep pins data to BLE so the loss rate is the whole story.
    let data_techs =
        if wild { vec![TechType::WifiTcp, TechType::BleBeacon] } else { vec![TechType::BleBeacon] };
    let cfg = OmniConfig { data_techs: Some(data_techs), retry, ..Default::default() };

    // Terminal statuses per message index.
    let statuses: Rc<RefCell<Vec<Vec<StatusCode>>>> = Rc::new(RefCell::new(vec![Vec::new(); MSGS]));
    let mut builder = OmniBuilder::new().with_ble().with_wifi().with_config(cfg.clone());
    if let Some(obs) = obs {
        builder = builder.with_obs(obs);
    }
    let mgr = builder.build(&sim, a);
    let st = statuses.clone();
    sim.set_stack(
        a,
        Box::new(OmniStack::new(mgr, move |omni| {
            let st2 = st.clone();
            omni.request_timers(Box::new(move |token, o| {
                let i = (token - 1) as usize;
                let st3 = st2.clone();
                o.send_data(
                    vec![dest],
                    Bytes::from(vec![i as u8]),
                    Box::new(move |code, _, _| st3.borrow_mut()[i].push(code)),
                );
            }));
            for i in 0..MSGS {
                omni.set_timer(
                    (i + 1) as u64,
                    SimDuration::from_secs(FIRST_SEND_S)
                        + SimDuration::from_millis(SEND_GAP_MS * i as u64),
                );
            }
        })),
    );

    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let mut builder = OmniBuilder::new().with_ble().with_wifi().with_config(cfg);
    if let Some(obs) = obs {
        builder = builder.with_obs(obs);
    }
    let mgr = builder.build(&sim, b);
    let g = got.clone();
    sim.set_stack(
        b,
        Box::new(OmniStack::new(mgr, move |omni| {
            omni.request_data(Box::new(move |_, payload, _| {
                if let Some(&id) = payload.first() {
                    g.borrow_mut().push(id);
                }
            }));
        })),
    );

    sim.run_until(SimTime::from_secs(60));

    let got = got.borrow();
    let delivered = (0..MSGS).filter(|i| got.contains(&(*i as u8))).count();
    let statuses = statuses.borrow();
    let concluded_once = statuses.iter().filter(|s| s.len() == 1).count();
    let succeeded =
        statuses.iter().filter(|s| s.as_slice() == [StatusCode::SendDataSuccess]).count();
    CellResult { delivered, concluded_once, succeeded }
}

fn wild_faults() -> omni_sim::FaultConfig {
    omni_sim::FaultConfig {
        ble_loss: 0.20,
        partitions: vec![LinkPartition::new(0, 1, SimTime::from_secs(5), SimTime::from_secs(9))
            .scoped(FaultScope::Wifi)],
        ..Default::default()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let obs = ObsRun::new("reliability");

    // Wild cell: 20% BLE loss + mid-run WiFi partition, reliable path.
    let wild = run_cell_obs(7, wild_faults(), RetryPolicy::reliable(), true, Some(&*obs));
    println!(
        "wild cell (20% BLE loss + wifi partition, retry/failover): \
         {}/{MSGS} delivered ({:.1}%), {}/{MSGS} exactly-once, {}/{MSGS} acked",
        wild.delivered,
        wild.delivery_pct(),
        wild.concluded_once,
        wild.succeeded
    );
    assert!(
        wild.delivery_pct() >= 95.0,
        "reliability contract violated: {:.1}% < 95% delivery",
        wild.delivery_pct()
    );
    assert_eq!(
        wild.concluded_once, MSGS,
        "every send must conclude with exactly one terminal status"
    );
    let mut bline = Baseline::new("reliability", smoke);
    bline.gate("wild_delivered", wild.delivered as f64);
    bline.gate("wild_concluded_once", wild.concluded_once as f64);
    bline.gate("wild_succeeded", wild.succeeded as f64);

    if !smoke {
        let mut table = Table::new(
            "Delivery ratio vs. BLE loss (%, 24 msgs, BLE-only data)",
            &["fire-and-forget", "reliable"],
        );
        let mut chart = Chart::new("Reliable delivery under loss", "% delivered");
        for loss in [0.0, 0.10, 0.20, 0.30] {
            let faults = omni_sim::FaultConfig { ble_loss: loss, ..Default::default() };
            let naive = run_cell(1, faults.clone(), RetryPolicy::off(), false);
            let reliable = run_cell(1, faults, RetryPolicy::reliable(), false);
            assert_eq!(naive.concluded_once, MSGS, "classic path still concludes once");
            assert_eq!(reliable.concluded_once, MSGS, "reliable path concludes once");
            table.row(
                format!("loss {:.0}%", loss * 100.0),
                vec![
                    Cell::measured_only(naive.delivery_pct()),
                    Cell::measured_only(reliable.delivery_pct()),
                ],
            );
            chart.bar(format!("naive @{:.0}%", loss * 100.0), naive.delivery_pct());
            chart.bar(format!("reliable @{:.0}%", loss * 100.0), reliable.delivery_pct());
            let pct = (loss * 100.0) as u64;
            bline.gate(&format!("loss{pct}_naive_delivered"), naive.delivered as f64);
            bline.gate(&format!("loss{pct}_reliable_delivered"), reliable.delivered as f64);
        }
        print!("{}", table.render());
        println!();
        print!("{}", chart.render());
    }
    omni_bench::baseline::emit(&bline);

    println!("reliability: ok");
}
