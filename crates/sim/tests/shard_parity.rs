//! Shard-count invariance (Issue 7, tentpole + satellite 4): the sharded
//! tick loop must be **byte-identical** to the single-threaded oracle for
//! shards ∈ {1, 2, 4, 8}, over random seeds, topologies, and fault
//! matrices. The artifacts compared are exactly the ones the issue names:
//!
//! * the telemetry sampler's JSONL,
//! * the observability event ring (as rendered JSON lines),
//! * the flight-recorder dump,
//!
//! plus the counter registry, every stack's application-visible state
//! (beacons heard), and the fault RNG draw count — the last being the
//! sharpest probe: one extra or reordered draw anywhere desynchronizes the
//! whole stream.
//!
//! The fleets here deliberately mutate planner-visible state mid-run —
//! walks, teleports, scan-duty toggles, radio power cycles — so staged
//! fan-out plans go stale and the epoch-invalidation path is exercised,
//! not just the happy path.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use omni_core::{OmniBuilder, OmniConfig, OmniStack, RelayPolicy};
use omni_obs::{event_json, Obs};
use omni_sim::{
    ChurnWindow, Command, DeviceCaps, FaultConfig, FlightRecorder, LinkPartition, NodeApi,
    NodeEvent, Position, Runner, SamplerConfig, SimConfig, SimDuration, SimTime, Stack,
};
use proptest::prelude::*;

/// Beacons, scans, and periodically perturbs its own radio state: toggles
/// its scan duty every 3 s and power-cycles BLE every 7 s, so the sharded
/// runner's staged plans keep going stale mid-batch.
struct Restless {
    heard: u64,
    fiddle: bool,
}

const TOGGLE: u64 = 1;
const CYCLE: u64 = 2;

impl Stack for Restless {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        match event {
            NodeEvent::Start => {
                api.push(Command::BleSetScan { duty: Some(0.8) });
                api.push(Command::BleAdvertiseSet {
                    slot: 0,
                    payload: Bytes::from_static(b"parity"),
                    interval: SimDuration::from_millis(500),
                });
                if self.fiddle {
                    api.push(Command::SetTimer { token: TOGGLE, delay: SimDuration::from_secs(3) });
                    api.push(Command::SetTimer { token: CYCLE, delay: SimDuration::from_secs(7) });
                }
            }
            NodeEvent::BleBeacon { .. } => self.heard += 1,
            NodeEvent::Timer { token: TOGGLE } => {
                let duty = if self.heard.is_multiple_of(2) { Some(0.5) } else { None };
                api.push(Command::BleSetScan { duty });
                api.push(Command::SetTimer { token: TOGGLE, delay: SimDuration::from_secs(3) });
            }
            NodeEvent::Timer { token: CYCLE } => {
                api.push(Command::BlePower(false));
                api.push(Command::BlePower(true));
                // Radios come back up bare; re-arm scanning + advertising.
                api.push(Command::BleSetScan { duty: Some(1.0) });
                api.push(Command::BleAdvertiseSet {
                    slot: 0,
                    payload: Bytes::from_static(b"parity"),
                    interval: SimDuration::from_millis(500),
                });
                api.push(Command::SetTimer { token: CYCLE, delay: SimDuration::from_secs(7) });
            }
            _ => {}
        }
    }
}

/// One randomized scenario: topology + fault matrix + mobility.
#[derive(Clone, Debug)]
struct Scenario {
    seed: u64,
    nodes: usize,
    cols: usize,
    pitch_m: f64,
    ble_loss: f64,
    jitter_ms: u64,
    partition: bool,
    churn: bool,
    mobile: bool,
    fiddle: bool,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        8usize..=20,
        2usize..=5,
        3.0f64..12.0,
        0.0f64..0.35,
        prop_oneof![Just(0u64), Just(5u64)],
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(
                seed,
                nodes,
                cols,
                pitch_m,
                ble_loss,
                jitter_ms,
                partition,
                churn,
                mobile,
                fiddle,
            )| {
                Scenario {
                    seed,
                    nodes,
                    cols,
                    pitch_m,
                    ble_loss,
                    jitter_ms,
                    partition,
                    churn,
                    mobile,
                    fiddle,
                }
            },
        )
}

/// Everything a run externalizes, captured for byte comparison.
#[derive(PartialEq, Debug)]
struct Artifacts {
    sampler_jsonl: String,
    event_ring: Vec<String>,
    recorder_dump: String,
    counters: Vec<(String, u64)>,
    heard_total: u64,
    fault_draws: u64,
    frames_dropped: u64,
    final_t_us: u64,
}

fn run(sc: &Scenario, shards: usize) -> Artifacts {
    let faults = FaultConfig {
        ble_loss: sc.ble_loss,
        ble_jitter: SimDuration::from_millis(sc.jitter_ms),
        partitions: if sc.partition {
            vec![LinkPartition::new(0, 1, SimTime::from_secs(6), SimTime::from_secs(14))]
        } else {
            Vec::new()
        },
        churn: if sc.churn {
            vec![
                ChurnWindow {
                    dev: 2,
                    down_at: SimTime::from_secs(8),
                    up_at: SimTime::from_secs(15),
                },
                ChurnWindow {
                    dev: sc.nodes - 1,
                    down_at: SimTime::from_secs(10),
                    up_at: SimTime::from_secs(18),
                },
            ]
        } else {
            Vec::new()
        },
        ..Default::default()
    };
    let mut sim = Runner::new(SimConfig { seed: sc.seed, faults, ..Default::default() });
    sim.set_shards(shards);
    let obs = Obs::new();
    sim.set_obs(obs.clone());
    sim.enable_sampler(SamplerConfig::default());
    for i in 0..sc.nodes {
        let pos =
            Position::new((i % sc.cols) as f64 * sc.pitch_m, (i / sc.cols) as f64 * sc.pitch_m);
        let dev = sim.add_device(DeviceCaps::PI, pos);
        sim.set_stack(dev, Box::new(Restless { heard: 0, fiddle: sc.fiddle }));
    }
    if sc.mobile {
        // Mid-run position churn: a teleport out and back, plus a walker —
        // every move bumps the topology epoch and strands staged plans.
        let roamer = omni_sim::DeviceId(0);
        sim.schedule_teleport(roamer, SimTime::from_secs(9), Position::new(500.0, 500.0));
        sim.schedule_teleport(roamer, SimTime::from_secs(16), Position::new(0.0, 0.0));
        let walker = omni_sim::DeviceId(1);
        sim.schedule_walk(walker, SimTime::from_secs(5), Position::new(40.0, 0.0), 2.0);
    }
    sim.run_until(SimTime::from_secs(25));

    let snapshot = obs.snapshot();
    Artifacts {
        sampler_jsonl: sim.sampler().map(|s| s.to_jsonl().to_string()).unwrap_or_default(),
        event_ring: obs.events().iter().map(event_json).collect(),
        recorder_dump: FlightRecorder::from_obs(&obs).to_jsonl(),
        heard_total: snapshot
            .metrics
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("ble-beacon.rx"))
            .map(|(_, v)| *v)
            .sum(),
        counters: snapshot.metrics.counters,
        fault_draws: sim.fault_rng_draws(),
        frames_dropped: sim.fault_frames_dropped(),
        final_t_us: sim.now().as_micros(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline invariant: shards ∈ {2, 4, 8} reproduce the oracle
    /// byte for byte on every externalized artifact.
    #[test]
    fn sharded_runs_are_byte_identical_to_the_oracle(sc in scenario()) {
        let oracle = run(&sc, 1);
        // A faulty scenario must actually exercise the fault RNG, or the
        // draw-count assertion below is vacuous.
        if sc.ble_loss > 0.05 {
            prop_assert!(oracle.fault_draws > 0, "loss {} drew nothing", sc.ble_loss);
        }
        for shards in [2usize, 4, 8] {
            let sharded = run(&sc, shards);
            prop_assert_eq!(
                &oracle.sampler_jsonl, &sharded.sampler_jsonl,
                "sampler JSONL diverged at {} shards", shards
            );
            prop_assert_eq!(
                &oracle.event_ring, &sharded.event_ring,
                "event ring diverged at {} shards", shards
            );
            prop_assert_eq!(
                &oracle.recorder_dump, &sharded.recorder_dump,
                "flight-recorder dump diverged at {} shards", shards
            );
            prop_assert_eq!(
                &oracle.counters, &sharded.counters,
                "counter registry diverged at {} shards", shards
            );
            prop_assert_eq!(
                oracle.fault_draws, sharded.fault_draws,
                "fault RNG draw count diverged at {} shards", shards
            );
            prop_assert_eq!(oracle.heard_total, sharded.heard_total);
            prop_assert_eq!(oracle.frames_dropped, sharded.frames_dropped);
            prop_assert_eq!(oracle.final_t_us, sharded.final_t_us);
        }
    }
}

/// One randomized relay scenario: forwarding strategy + faults over a
/// sparse BLE chain no single hop can cross.
#[derive(Clone, Debug)]
struct RelayScenario {
    seed: u64,
    nodes: usize,
    strategy: u8,
    ble_loss: f64,
    partition: bool,
    churn: bool,
    mobile: bool,
}

fn relay_scenario() -> impl Strategy<Value = RelayScenario> {
    (any::<u64>(), 4usize..=6, 0u8..3, 0.0f64..0.3, any::<bool>(), any::<bool>(), any::<bool>())
        .prop_map(|(seed, nodes, strategy, ble_loss, partition, churn, mobile)| RelayScenario {
            seed,
            nodes,
            strategy,
            ble_loss,
            partition,
            churn,
            mobile,
        })
}

/// Runs a relay-enabled Omni fleet — custody stores, seen-sets, PRoPHET
/// summaries and all — through the sharded tick loop. The chain pitch
/// (25 m vs. the 30 m BLE range) forces every delivery through the staged
/// commit phase's relay path, proving it relay-safe.
fn run_relay(sc: &RelayScenario, shards: usize) -> Artifacts {
    let faults = FaultConfig {
        ble_loss: sc.ble_loss,
        partitions: if sc.partition {
            vec![LinkPartition::new(1, 2, SimTime::from_secs(6), SimTime::from_secs(12))]
        } else {
            Vec::new()
        },
        churn: if sc.churn {
            vec![ChurnWindow {
                dev: 2,
                down_at: SimTime::from_secs(8),
                up_at: SimTime::from_secs(13),
            }]
        } else {
            Vec::new()
        },
        ..Default::default()
    };
    let mut sim = Runner::new(SimConfig { seed: sc.seed, faults, ..Default::default() });
    sim.set_shards(shards);
    let obs = Obs::new();
    sim.set_obs(obs.clone());
    sim.enable_sampler(SamplerConfig::default());

    let policy = match sc.strategy {
        0 => RelayPolicy::epidemic(),
        1 => RelayPolicy::prophet(),
        _ => RelayPolicy::spray(4),
    };
    let cfg = OmniConfig { relay: policy, ..Default::default() };
    let devs: Vec<_> = (0..sc.nodes)
        .map(|i| sim.add_device(DeviceCaps::PI, Position::new(i as f64 * 25.0, 0.0)))
        .collect();
    let dest = OmniBuilder::omni_address(&sim, devs[sc.nodes - 1]);
    let heard: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
    for (i, &dev) in devs.iter().enumerate() {
        let mgr =
            OmniBuilder::new().with_ble().with_config(cfg.clone()).with_obs(&obs).build(&sim, dev);
        if i == 0 {
            sim.set_stack(
                dev,
                Box::new(OmniStack::new(mgr, move |omni| {
                    omni.request_timers(Box::new(move |token, o| {
                        o.send_data(
                            vec![dest],
                            Bytes::from(vec![token as u8]),
                            Box::new(|_, _, _| {}),
                        );
                    }));
                    for m in 0..4u64 {
                        omni.set_timer(m + 1, SimDuration::from_millis(2_000 + 500 * m));
                    }
                })),
            );
        } else {
            let h = heard.clone();
            sim.set_stack(
                dev,
                Box::new(OmniStack::new(mgr, move |omni| {
                    omni.request_data(Box::new(move |_, _, _| *h.borrow_mut() += 1));
                })),
            );
        }
    }
    if sc.mobile {
        // A walker drifting off the chain mid-run strands staged relay
        // fan-out plans, exercising epoch invalidation under custody.
        sim.schedule_walk(devs[1], SimTime::from_secs(7), Position::new(25.0, 40.0), 1.5);
    }
    sim.run_until(SimTime::from_secs(20));

    let snapshot = obs.snapshot();
    let heard_total = *heard.borrow();
    Artifacts {
        sampler_jsonl: sim.sampler().map(|s| s.to_jsonl().to_string()).unwrap_or_default(),
        event_ring: obs.events().iter().map(event_json).collect(),
        recorder_dump: FlightRecorder::from_obs(&obs).to_jsonl(),
        counters: snapshot.metrics.counters,
        heard_total,
        fault_draws: sim.fault_rng_draws(),
        frames_dropped: sim.fault_frames_dropped(),
        final_t_us: sim.now().as_micros(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Relay-enabled runs (ISSUE 8, satellite 2): custody pumps, seen-set
    /// dedup, and strategy decisions must all replay byte-identically at
    /// shards {2, 4} against the single-threaded oracle.
    #[test]
    fn relay_runs_are_byte_identical_across_shard_counts(sc in relay_scenario()) {
        let oracle = run_relay(&sc, 1);
        for shards in [2usize, 4] {
            let sharded = run_relay(&sc, shards);
            prop_assert_eq!(
                &oracle.sampler_jsonl, &sharded.sampler_jsonl,
                "sampler JSONL diverged at {} shards", shards
            );
            prop_assert_eq!(
                &oracle.recorder_dump, &sharded.recorder_dump,
                "flight-recorder dump diverged at {} shards", shards
            );
            prop_assert_eq!(
                &oracle.event_ring, &sharded.event_ring,
                "event ring diverged at {} shards", shards
            );
            prop_assert_eq!(
                &oracle.counters, &sharded.counters,
                "counter registry diverged at {} shards", shards
            );
            prop_assert_eq!(oracle.fault_draws, sharded.fault_draws);
            prop_assert_eq!(oracle.heard_total, sharded.heard_total);
            prop_assert_eq!(oracle.final_t_us, sharded.final_t_us);
        }
    }
}

/// Deterministic relay parity spot-check: a faulty 5-node epidemic chain
/// that must actually deliver multi-hop, byte-identical at shards {1, 2, 4}.
#[test]
fn relay_chain_parity_at_fixed_seed() {
    let sc = RelayScenario {
        seed: 8,
        nodes: 5,
        strategy: 0,
        ble_loss: 0.15,
        partition: true,
        churn: true,
        mobile: true,
    };
    let oracle = run_relay(&sc, 1);
    assert!(!oracle.sampler_jsonl.is_empty());
    assert!(
        oracle.recorder_dump.contains("DataRelayed"),
        "the scenario must exercise the relay path"
    );
    for shards in [2usize, 4] {
        let sharded = run_relay(&sc, shards);
        assert_eq!(oracle, sharded, "relay run diverged at {shards} shards");
    }
}

/// Deterministic spot-check kept outside proptest so a plain `cargo test`
/// failure names it directly: the 12-node faulty fleet used by the
/// telemetry determinism suite, at every shard count.
#[test]
fn faulty_fleet_parity_at_fixed_seed() {
    let sc = Scenario {
        seed: 42,
        nodes: 12,
        cols: 4,
        pitch_m: 5.0,
        ble_loss: 0.2,
        jitter_ms: 5,
        partition: true,
        churn: true,
        mobile: true,
        fiddle: true,
    };
    let oracle = run(&sc, 1);
    assert!(!oracle.sampler_jsonl.is_empty());
    assert!(oracle.fault_draws > 0);
    for shards in [2usize, 4, 8] {
        let sharded = run(&sc, shards);
        assert_eq!(oracle, sharded, "shards={shards} must match the oracle exactly");
    }
}
