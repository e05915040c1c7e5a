//! Determinism contract for the telemetry sampler (Issue 6, satellite 3):
//!
//! 1. Same seed, sampler on, run twice → **byte-identical JSONL**.
//! 2. Sampler on vs. sampler off → **identical fleet behavior**: the same
//!    counters and the same event stream (modulo the `HealthTransition`
//!    events only the sampler emits).  Sampling draws no randomness and only
//!    appends `(time, seq)`-ordered events, so enabling it must not perturb
//!    a run.

use bytes::Bytes;
use omni_obs::{event_json, Obs};
use omni_sim::{
    ChurnWindow, Command, DeviceCaps, FaultConfig, HealthState, LinkPartition, NodeApi, NodeEvent,
    Position, Runner, SimConfig, SimDuration, SimTime, Stack, SAMPLE_EVERY,
};

/// Beacons every 500 ms and scans continuously; counts what it hears.
struct Chatter {
    heard: u64,
}

impl Stack for Chatter {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        match event {
            NodeEvent::Start => {
                api.push(Command::BleSetScan { duty: Some(1.0) });
                api.push(Command::BleAdvertiseSet {
                    slot: 0,
                    payload: Bytes::from_static(b"chatter"),
                    interval: SimDuration::from_millis(500),
                });
            }
            NodeEvent::BleBeacon { .. } => self.heard += 1,
            _ => {}
        }
    }
}

/// A 12-node faulty fleet: BLE loss, one partition, two churn windows.
fn faulty_config(seed: u64) -> SimConfig {
    let faults = FaultConfig {
        ble_loss: 0.2,
        partitions: vec![LinkPartition::new(0, 1, SimTime::from_secs(8), SimTime::from_secs(14))],
        churn: vec![
            ChurnWindow { dev: 3, down_at: SimTime::from_secs(10), up_at: SimTime::from_secs(16) },
            ChurnWindow { dev: 7, down_at: SimTime::from_secs(12), up_at: SimTime::from_secs(18) },
        ],
        ..Default::default()
    };
    SimConfig { seed, faults, ..Default::default() }
}

/// Runs the fleet for 30 s; returns the finished runner and its obs handle.
fn run_runner(seed: u64, sample: bool) -> (Runner, Obs) {
    let mut sim = Runner::new(faulty_config(seed));
    let obs = Obs::new();
    sim.set_obs(obs.clone());
    if sample {
        sim.enable_sampler();
    }
    for i in 0..12 {
        let dev = sim.add_device(DeviceCaps::PI, Position::new(5.0 * i as f64, 0.0));
        sim.set_stack(dev, Box::new(Chatter { heard: 0 }));
    }
    sim.run_until(SimTime::from_secs(30));
    (sim, obs)
}

/// Runs the fleet for 30 s; returns the obs handle and the sampler JSONL
/// (empty when sampling is off).
fn run_fleet(seed: u64, sample: bool) -> (Obs, String) {
    let (sim, obs) = run_runner(seed, sample);
    let jsonl = sim.sampler().map(|s| s.to_jsonl().to_string()).unwrap_or_default();
    (obs, jsonl)
}

/// The event stream as JSON lines, with the sampler-only health events
/// stripped so on/off runs are comparable.
fn behavior_events(obs: &Obs) -> Vec<String> {
    obs.events().iter().filter(|e| e.kind.name() != "HealthTransition").map(event_json).collect()
}

#[test]
fn same_seed_sampler_runs_emit_byte_identical_jsonl() {
    let (_, a) = run_fleet(42, true);
    let (_, b) = run_fleet(42, true);
    assert!(!a.is_empty(), "30s at 1s sampling must produce lines");
    assert_eq!(a, b, "sampler JSONL must be byte-identical across same-seed runs");

    let (_, c) = run_fleet(43, true);
    assert_ne!(a, c, "a different seed must produce a different stream");
}

#[test]
fn enabling_the_sampler_does_not_perturb_fleet_behavior() {
    let (on, jsonl) = run_fleet(42, true);
    let (off, _) = run_fleet(42, false);

    assert!(!jsonl.is_empty());
    assert_eq!(
        on.snapshot().metrics.counters,
        off.snapshot().metrics.counters,
        "every counter (tx/rx, drops) must match sampler-off"
    );
    assert_eq!(
        behavior_events(&on),
        behavior_events(&off),
        "the event streams must be identical apart from health transitions"
    );
}

#[test]
fn health_transitions_reach_the_event_ring_at_fleet_scope() {
    let (on, _) = run_fleet(42, true);
    let health: Vec<_> =
        on.events().into_iter().filter(|e| e.kind.name() == "HealthTransition").collect();
    assert!(!health.is_empty(), "churn windows must trip the health monitor");
    assert!(health.iter().all(|e| e.node == u32::MAX), "fleet-scope node id");
    // The fleet starts healthy, degrades during the fault windows, and
    // recovers after they end.
    let first = event_json(&health[0]);
    assert!(first.contains("\"from\": \"healthy\""), "{first}");
    let last = event_json(health.last().unwrap());
    assert!(last.contains("\"to\": \"healthy\""), "{last}");
}

/// Asserts `spans` is one span whose boundaries each lie within one
/// [`SAMPLE_EVERY`] of the injected window `[from_s, to_s)`.
fn assert_one_span_near(name: &str, spans: &[(u64, u64)], (from_s, to_s): (u64, u64)) {
    assert_eq!(spans.len(), 1, "{name}: one window injected, got {spans:?}");
    let tolerance = SAMPLE_EVERY.as_micros();
    let (start, end) = spans[0];
    assert!(
        start.abs_diff(from_s * 1_000_000) <= tolerance
            && end.abs_diff(to_s * 1_000_000) <= tolerance,
        "{name}: span {:?} is not within {tolerance}us of [{from_s}s, {to_s}s)",
        spans[0]
    );
}

#[test]
fn fault_windows_reconstruct_from_the_sampler() {
    let (sim, _) = run_runner(42, true);
    let sampler = sim.sampler().expect("sampler enabled");
    // The partition between devices 0 and 1 over [8 s, 14 s).
    let partition = sampler.spans_where(|w| w.counter("sim.faults.drops{cause=partition}") > 0);
    assert_one_span_near("partition drops", &partition, (8, 14));
    // Churn: device 3 over [10 s, 16 s) and device 7 over [12 s, 18 s).
    let down = sampler.spans_where(|w| w.nodes_down > 0);
    assert_one_span_near("nodes down", &down, (10, 18));
    let degraded = sampler.spans_where(|w| w.health >= HealthState::Degraded);
    assert_one_span_near("health degraded or worse", &degraded, (10, 18));
}
