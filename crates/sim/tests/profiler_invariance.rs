//! Profiler invariance (Issue 10 tentpole): enabling the tick-phase
//! profiler must never change a simulation artifact. The profiler reads
//! only `std::time::Instant` and writes only its own buffers — never the
//! RNG, the event sequence, the metrics registry, or the event ring — so a
//! profiler-on run is **byte-identical** to a profiler-off run of the same
//! seed (DESIGN.md §5j).
//!
//! The artifacts compared are every externalized run output: sampler
//! JSONL, event ring, flight-recorder dump, the counter registry,
//! application-visible state (beacons heard), and the fault RNG draw count.
//! The 500-node fleet also bounds the profiler's clock reads per event.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use omni_obs::{event_json, Obs, PhaseReport};
use omni_sim::{
    ChurnWindow, Command, DeviceCaps, FaultConfig, FlightRecorder, LinkPartition, NodeApi,
    NodeEvent, Position, Runner, SimConfig, SimDuration, SimTime, Stack,
};
use proptest::prelude::*;

/// Beacons and scans; counts what it hears into the run's shared count.
struct Chatty {
    heard: Rc<Cell<u64>>,
}

impl Stack for Chatty {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        match event {
            NodeEvent::Start => {
                api.push(Command::BleSetScan { duty: Some(0.8) });
                api.push(Command::BleAdvertiseSet {
                    slot: 0,
                    payload: Bytes::from_static(b"prof"),
                    interval: SimDuration::from_millis(500),
                });
            }
            NodeEvent::BleBeacon { .. } => self.heard.set(self.heard.get() + 1),
            _ => {}
        }
    }
}

#[derive(Clone, Debug)]
struct Scenario {
    seed: u64,
    nodes: usize,
    cols: usize,
    pitch_m: f64,
    ble_loss: f64,
    secs: u64,
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
    final_t_us: u64,
}

/// Runs the scenario; the profiler's report comes back when `profile`.
fn run(sc: &Scenario, profile: bool) -> (Artifacts, Option<PhaseReport>) {
    let faults = FaultConfig {
        ble_loss: sc.ble_loss,
        ble_jitter: SimDuration::from_millis(5),
        partitions: vec![LinkPartition::new(0, 1, SimTime::from_secs(2), SimTime::from_secs(5))],
        churn: vec![ChurnWindow {
            dev: 2,
            down_at: SimTime::from_secs(3),
            up_at: SimTime::from_secs(6),
        }],
        ..Default::default()
    };
    let mut sim = Runner::new(SimConfig { seed: sc.seed, faults, ..Default::default() });
    if profile {
        sim.enable_profiler();
    }
    let obs = Obs::new();
    sim.set_obs(obs.clone());
    sim.enable_sampler();
    let heard = Rc::new(Cell::new(0));
    for i in 0..sc.nodes {
        let pos =
            Position::new((i % sc.cols) as f64 * sc.pitch_m, (i / sc.cols) as f64 * sc.pitch_m);
        let dev = sim.add_device(DeviceCaps::PI, pos);
        sim.set_stack(dev, Box::new(Chatty { heard: heard.clone() }));
    }
    sim.run_until(SimTime::from_secs(sc.secs));

    let report = sim.profiler().map(|p| p.report());
    if let Some(r) = &report {
        // The invariance assertion is only meaningful when the profiler
        // actually measured something.
        assert!(r.phases.iter().any(|p| p.scopes > 0), "profiler saw no scopes");
    }

    let artifacts = Artifacts {
        sampler_jsonl: sim.sampler().map(|s| s.to_jsonl()).unwrap_or_default(),
        event_ring: obs.events().iter().map(event_json).collect(),
        recorder_dump: FlightRecorder::from_obs(&obs).to_jsonl(),
        heard_total: heard.get(),
        counters: obs.snapshot().metrics.counters,
        fault_draws: sim.fault_rng_draws(),
        final_t_us: sim.now().as_micros(),
    };
    (artifacts, report)
}

fn assert_identical(off: &Artifacts, on: &Artifacts, label: &str) {
    assert_eq!(off.sampler_jsonl, on.sampler_jsonl, "{label}: sampler JSONL diverged");
    assert_eq!(off.event_ring, on.event_ring, "{label}: event ring diverged");
    assert_eq!(off.recorder_dump, on.recorder_dump, "{label}: recorder dump diverged");
    assert_eq!(off.counters, on.counters, "{label}: counter registry diverged");
    assert_eq!(off.fault_draws, on.fault_draws, "{label}: fault RNG draws diverged");
    assert_eq!(off.heard_total, on.heard_total, "{label}: heard count diverged");
    assert_eq!(off.final_t_us, on.final_t_us, "{label}: final clock diverged");
}

/// The acceptance scenario: a 500-node faulty fleet must emit
/// byte-identical artifacts with the profiler on and off. Its advertising,
/// telemetry samples and fault windows interleave, so phases change far
/// more often than in `scale`'s single-phase cell; coalescing must still
/// hold the profiler to one clock read per 20 dispatched events.
#[test]
fn faulty_500_node_fleet_is_byte_identical_profiler_on_and_off() {
    let sc = Scenario { seed: 42, nodes: 500, cols: 25, pitch_m: 8.0, ble_loss: 0.15, secs: 8 };
    let (off, _) = run(&sc, false);
    assert!(off.fault_draws > 0, "the scenario must exercise the fault RNG");
    assert!(off.heard_total > 0, "the stacks must hear beacons");
    assert!(!off.sampler_jsonl.is_empty());
    let (on, report) = run(&sc, true);
    assert_identical(&off, &on, "500-node fleet");
    let report = report.expect("profiled run has a report");
    let clock_reads = 2 * report.phases.iter().map(|p| p.scopes).sum::<u64>();
    assert!(
        clock_reads * 20 <= report.events,
        "{clock_reads} clock reads over {} dispatched events",
        report.events
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized fleets: profiler on == profiler off, byte for byte.
    #[test]
    fn profiled_runs_are_byte_identical(
        seed in any::<u64>(),
        nodes in 20usize..=60,
        cols in 3usize..=8,
        pitch_m in 4.0f64..10.0,
        ble_loss in 0.0f64..0.3,
    ) {
        let sc = Scenario { seed, nodes, cols, pitch_m, ble_loss, secs: 12 };
        let (off, _) = run(&sc, false);
        let (on, _) = run(&sc, true);
        assert_identical(&off, &on, "randomized fleet");
    }
}
