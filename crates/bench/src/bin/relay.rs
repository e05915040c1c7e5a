//! Relay benchmark: store-carry-forward delivery across topologies no
//! single hop can cross (DESIGN.md §5h).
//!
//! Sweeps delivery ratio, delivery latency, and forwarding overhead for the
//! three relay strategies (epidemic, PRoPHET, spray-and-wait) against the
//! fault matrix:
//!
//! * **Sparse chains** — nodes pitched 25 m apart against a 30 m BLE range,
//!   at growing lengths (density sweep) and under frame loss. Single-hop
//!   delivery to the far end is structurally 0%.
//! * **Disaster mesh** — a chain with a mid-run partition severing its
//!   middle link; custody carries frames across the outage window.
//! * **Festival crowd** — a dense lossy grid with node churn; the seen-set
//!   keeps the epidemic flood from turning into a broadcast storm.
//! * **Data mule** — two clusters far beyond radio range bridged only by a
//!   walking carrier; pure store-carry-forward.
//!
//! `--smoke` runs the sparse 3-hop chain contract: single-hop scores 0%,
//! relay delivers ≥ 90%, every send concludes exactly once, and a same-seed
//! rerun replays byte-identically. The baseline lands in
//! `target/obs/BENCH_relay.json`.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use omni_bench::baseline::Baseline;
use omni_bench::report::{Cell, Chart, Table};
use omni_bench::ObsRun;
use omni_core::{OmniBuilder, OmniConfig, OmniStack, RelayPolicy};
use omni_obs::{EventKind, Obs};
use omni_sim::{
    ChurnWindow, DeviceCaps, FaultConfig, FlightRecorder, LinkPartition, Position, Runner,
    SimConfig, SimDuration, SimTime,
};
use omni_wire::StatusCode;

/// Messages per cell, one payload byte each (relay frames must stay inside
/// the 64-byte BLE advertisement budget).
const MSGS: usize = 8;
/// First send fires after discovery converges; later sends are spaced out.
const FIRST_SEND_MS: u64 = 2_000;
const SEND_GAP_MS: u64 = 500;

/// The node layouts the sweep drives.
#[derive(Clone, Copy)]
enum Topology {
    /// `n` nodes in a line, 25 m pitch: only adjacent pairs connect.
    Chain(usize),
    /// A dense 3-column grid, 20 m pitch: the far corner is multi-hop.
    Crowd(usize),
    /// Two 2-node clusters 200 m apart plus a walking data mule.
    Mule,
}

impl Topology {
    fn place(self, sim: &mut Runner) -> Vec<omni_sim::DeviceId> {
        match self {
            Topology::Chain(n) => (0..n)
                .map(|i| sim.add_device(DeviceCaps::PI, Position::new(i as f64 * 25.0, 0.0)))
                .collect(),
            Topology::Crowd(n) => (0..n)
                .map(|i| {
                    let pos = Position::new((i % 3) as f64 * 20.0, (i / 3) as f64 * 20.0);
                    sim.add_device(DeviceCaps::PI, pos)
                })
                .collect(),
            Topology::Mule => {
                let mut devs = Vec::new();
                for x in [0.0, 10.0] {
                    devs.push(sim.add_device(DeviceCaps::PI, Position::new(x, 0.0)));
                }
                for x in [200.0, 210.0] {
                    devs.push(sim.add_device(DeviceCaps::PI, Position::new(x, 0.0)));
                }
                // The mule starts beside the senders and walks to the far
                // cluster; scheduled below because walks need the runner.
                devs.push(sim.add_device(DeviceCaps::PI, Position::new(5.0, 5.0)));
                devs
            }
        }
    }
}

struct CellResult {
    delivered: usize,
    concluded_once: usize,
    /// Mean enqueue → delivery latency over delivered messages, seconds.
    mean_latency_s: f64,
    /// Custody-hop forwards per delivered message (overhead).
    forwards_per_delivery: f64,
    /// Recorder dump for same-seed replay comparison.
    recorder_dump: String,
}

impl CellResult {
    fn delivery_pct(&self) -> f64 {
        100.0 * self.delivered as f64 / MSGS as f64
    }
}

/// Runs one scenario: node 0 sends `MSGS` messages to the last placed node
/// (the mule topology targets the far cluster instead).
fn run_cell(
    seed: u64,
    topo: Topology,
    policy: RelayPolicy,
    faults: FaultConfig,
    until_s: u64,
) -> CellResult {
    let mut sim = Runner::new(SimConfig { seed, faults, ..Default::default() });
    let obs = Obs::new();
    sim.set_obs(obs.clone());

    let devs = topo.place(&mut sim);
    // The mule walks sender-side → far cluster, then back for stragglers.
    let (dest_idx, mule) = match topo {
        Topology::Mule => (3, Some(devs[4])),
        _ => (devs.len() - 1, None),
    };
    if let Some(mule) = mule {
        sim.schedule_walk(mule, SimTime::from_secs(4), Position::new(205.0, 5.0), 6.0);
        sim.schedule_walk(mule, SimTime::from_secs(45), Position::new(5.0, 5.0), 6.0);
    }
    let dest = OmniBuilder::omni_address(&sim, devs[dest_idx]);
    let cfg = OmniConfig { relay: policy, ..Default::default() };

    let statuses: Rc<RefCell<Vec<Vec<StatusCode>>>> = Rc::new(RefCell::new(vec![Vec::new(); MSGS]));
    let recv_at: Rc<RefCell<Vec<Option<SimTime>>>> = Rc::new(RefCell::new(vec![None; MSGS]));
    for (i, &dev) in devs.iter().enumerate() {
        let mgr =
            OmniBuilder::new().with_ble().with_config(cfg.clone()).with_obs(&obs).build(&sim, dev);
        if i == 0 {
            let st = statuses.clone();
            sim.set_stack(
                dev,
                Box::new(OmniStack::new(mgr, move |omni| {
                    let st2 = st.clone();
                    omni.request_timers(Box::new(move |token, o| {
                        let m = (token - 1) as usize;
                        let st3 = st2.clone();
                        o.send_data(
                            vec![dest],
                            Bytes::from(vec![m as u8]),
                            Box::new(move |code, _, _| st3.borrow_mut()[m].push(code)),
                        );
                    }));
                    for m in 0..MSGS {
                        omni.set_timer(
                            (m + 1) as u64,
                            SimDuration::from_millis(FIRST_SEND_MS + SEND_GAP_MS * m as u64),
                        );
                    }
                })),
            );
        } else if i == dest_idx {
            let rx = recv_at.clone();
            sim.set_stack(
                dev,
                Box::new(OmniStack::new(mgr, move |omni| {
                    omni.request_data(Box::new(move |_, payload, o| {
                        if let Some(&id) = payload.first() {
                            let slot = &mut rx.borrow_mut()[id as usize];
                            if slot.is_none() {
                                *slot = Some(o.now);
                            }
                        }
                    }));
                })),
            );
        } else {
            sim.set_stack(dev, Box::new(OmniStack::new(mgr, |_| {})));
        }
    }

    sim.run_until(SimTime::from_secs(until_s));

    let recv_at = recv_at.borrow();
    let delivered = recv_at.iter().filter(|r| r.is_some()).count();
    let mut latency_sum = 0.0;
    for (m, r) in recv_at.iter().enumerate() {
        if let Some(t) = r {
            let sent = SimTime::from_millis(FIRST_SEND_MS + SEND_GAP_MS * m as u64);
            latency_sum += t.saturating_since(sent).as_micros() as f64 / 1e6;
        }
    }
    let forwards =
        obs.events().iter().filter(|e| matches!(e.kind, EventKind::DataRelayed { .. })).count();
    let statuses = statuses.borrow();
    CellResult {
        delivered,
        concluded_once: statuses.iter().filter(|s| s.len() == 1).count(),
        mean_latency_s: if delivered > 0 { latency_sum / delivered as f64 } else { 0.0 },
        forwards_per_delivery: if delivered > 0 {
            forwards as f64 / delivered as f64
        } else {
            forwards as f64
        },
        recorder_dump: FlightRecorder::from_obs(&obs).to_jsonl(),
    }
}

fn sparse_chain_faults() -> FaultConfig {
    FaultConfig { ble_loss: 0.10, ..Default::default() }
}

fn disaster_faults() -> FaultConfig {
    // The chain's middle link goes dark mid-run; custody rides it out.
    FaultConfig {
        ble_loss: 0.10,
        partitions: vec![LinkPartition::new(1, 2, SimTime::from_secs(4), SimTime::from_secs(12))],
        ..Default::default()
    }
}

fn festival_faults() -> FaultConfig {
    FaultConfig {
        ble_loss: 0.30,
        churn: vec![ChurnWindow {
            dev: 4,
            down_at: SimTime::from_secs(6),
            up_at: SimTime::from_secs(12),
        }],
        ..Default::default()
    }
}

fn strategies() -> [(&'static str, RelayPolicy); 3] {
    [
        ("epidemic", RelayPolicy::epidemic()),
        ("prophet", RelayPolicy::prophet()),
        ("spray(4)", RelayPolicy::spray(4)),
    ]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let _obs = ObsRun::new("relay");
    let mut bline = Baseline::new("relay", smoke);

    // --- The acceptance contract: sparse 3-hop chain. -------------------
    // Single-hop (relay off) is structurally 0%; the relay must clear 90%.
    let single = run_cell(3, Topology::Chain(4), RelayPolicy::off(), FaultConfig::default(), 30);
    let relay =
        run_cell(3, Topology::Chain(4), RelayPolicy::epidemic(), FaultConfig::default(), 30);
    println!(
        "sparse 3-hop chain: single-hop {:.0}%, epidemic relay {:.0}% \
         ({:.2} s mean latency, {:.1} forwards/delivery)",
        single.delivery_pct(),
        relay.delivery_pct(),
        relay.mean_latency_s,
        relay.forwards_per_delivery
    );
    assert_eq!(single.delivered, 0, "single-hop must score 0% on the sparse chain");
    assert!(
        relay.delivery_pct() >= 90.0,
        "relay contract violated: {:.1}% < 90% on the sparse chain",
        relay.delivery_pct()
    );
    assert_eq!(single.concluded_once, MSGS, "single-hop still concludes exactly once");
    assert_eq!(relay.concluded_once, MSGS, "relayed sends conclude exactly once");
    bline.gate("chain_single_hop_delivered", single.delivered as f64, 0.0);
    bline.gate("chain_epidemic_delivered", relay.delivered as f64, 0.0);
    bline.gate("chain_epidemic_concluded_once", relay.concluded_once as f64, 0.0);
    bline.gate(
        "chain_epidemic_forwards",
        relay.forwards_per_delivery * relay.delivered as f64,
        0.0,
    );
    bline.info("chain_epidemic_latency_s", relay.mean_latency_s);

    // Same seed, same bytes.
    let replay =
        run_cell(3, Topology::Chain(4), RelayPolicy::epidemic(), FaultConfig::default(), 30);
    assert_eq!(relay.recorder_dump, replay.recorder_dump, "same-seed relay replay diverged");
    println!("replay: recorder dumps byte-identical across same-seed runs");

    if !smoke {
        // --- Density sweep: chain length × strategy under 10% loss. -----
        let mut table = Table::new(
            "Relay delivery vs. chain length (%, 10% BLE loss)",
            &["epidemic", "prophet", "spray(4)"],
        );
        let mut chart = Chart::new("Sparse-chain delivery by strategy", "% delivered");
        for n in [3usize, 4, 5, 6] {
            let mut cells = Vec::new();
            for (label, policy) in strategies() {
                let r = run_cell(5, Topology::Chain(n), policy, sparse_chain_faults(), 40);
                assert_eq!(r.concluded_once, MSGS, "chain({n}) {label}: exactly-once violated");
                if n == 4 {
                    chart.bar(format!("{label} @4 nodes"), r.delivery_pct());
                }
                bline.gate(
                    &format!("chain{n}_{}_delivered", label.replace("(4)", "4")),
                    r.delivered as f64,
                    0.0,
                );
                cells.push(Cell::measured_only(r.delivery_pct()));
            }
            table.row(format!("{n} nodes ({} hops)", n - 1), cells);
        }
        print!("{}", table.render());
        println!();

        // --- Disaster mesh: partition window mid-chain. ------------------
        let mut table = Table::new(
            "Disaster mesh: 5-node chain, middle link cut 4–12 s",
            &["% delivered", "latency s"],
        );
        for (label, policy) in strategies() {
            let r = run_cell(7, Topology::Chain(5), policy, disaster_faults(), 45);
            assert_eq!(r.concluded_once, MSGS, "disaster {label}: exactly-once violated");
            bline.gate(
                &format!("disaster_{}_delivered", label.replace("(4)", "4")),
                r.delivered as f64,
                0.0,
            );
            table.row(
                label,
                vec![Cell::measured_only(r.delivery_pct()), Cell::measured_only(r.mean_latency_s)],
            );
        }
        print!("{}", table.render());
        println!();

        // --- Festival crowd: dense, lossy, churning. ---------------------
        let mut table = Table::new(
            "Festival crowd: 9-node grid, 30% loss, churn (per strategy)",
            &["% delivered", "forwards/delivery"],
        );
        for (label, policy) in strategies() {
            let r = run_cell(9, Topology::Crowd(9), policy, festival_faults(), 40);
            assert_eq!(r.concluded_once, MSGS, "festival {label}: exactly-once violated");
            bline.gate(
                &format!("festival_{}_delivered", label.replace("(4)", "4")),
                r.delivered as f64,
                0.0,
            );
            table.row(
                label,
                vec![
                    Cell::measured_only(r.delivery_pct()),
                    Cell::measured_only(r.forwards_per_delivery),
                ],
            );
        }
        print!("{}", table.render());
        println!();

        // --- Data mule: mobility is the only path. -----------------------
        let mut policy = RelayPolicy::epidemic();
        policy.custody_timeout = SimDuration::from_secs(90);
        let r = run_cell(11, Topology::Mule, policy, FaultConfig::default(), 90);
        assert_eq!(r.concluded_once, MSGS, "mule: exactly-once violated");
        println!(
            "data mule (200 m cluster gap, walking carrier): {:.0}% delivered, \
             {:.1} s mean latency",
            r.delivery_pct(),
            r.mean_latency_s
        );
        bline.gate("mule_delivered", r.delivered as f64, 0.0);
        bline.info("mule_latency_s", r.mean_latency_s);
        println!();
    }

    omni_bench::baseline::emit(&bline);
    println!("relay: ok");
}
