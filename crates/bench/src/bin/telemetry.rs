//! Telemetry benchmark: the fleet sampler must reconstruct injected fault
//! windows from its time series alone.
//!
//! Runs a constant-density beaconing fleet (1000 nodes; 200 under `--smoke`)
//! with the sim-clock [`Sampler`](omni_sim::Sampler) enabled and two known
//! fault injections:
//!
//! * a **link partition** between the co-sited pair 0↔1 over
//!   `[12.3 s, 19.7 s)` — reconstructed from the
//!   `sim.faults.drops{cause=partition}` series (windows with a non-zero
//!   drop delta), and
//! * a **churn window** taking 8 nodes down over `[25 s, 34.5 s)` —
//!   reconstructed from the `sim.nodes_down` series.
//!
//! Both windows are deliberately unaligned to the 1 s sampling grid; the
//! binary asserts each reconstructed boundary lands within **one sampling
//! interval** of the injected boundary (the acceptance criterion), and that
//! the churn window trips fleet `HealthTransition` events in the ring.
//!
//! Artifacts: `target/obs/telemetry.jsonl` (the sampler stream),
//! `target/obs/telemetry.json` (the obs snapshot), and
//! `target/obs/BENCH_telemetry.json` (the perf-baseline record compared by
//! `scripts/bench_baseline.sh` against the committed `BENCH_telemetry.json`).

use std::time::Instant;

use bytes::Bytes;
use omni_bench::baseline::Baseline;
use omni_bench::ObsRun;
use omni_sim::{
    ChurnWindow, Command, DeviceCaps, FaultConfig, LinkPartition, NodeApi, NodeEvent, Position,
    Runner, SamplerConfig, SimConfig, SimDuration, SimTime, Stack,
};

/// Beacon cadence (matches the scale bench).
const TICK_MS: u64 = 500;
/// Pair sites on a constant-density grid, two devices per site.
const SITE_PITCH_M: f64 = 100.0;
const PAIR_GAP_M: f64 = 10.0;
/// Every `SCAN_STRIDE`-th device scans (plus the partitioned pair).
const SCAN_STRIDE: usize = 50;
/// Sampling interval.
const SAMPLE_US: u64 = 1_000_000;
/// Injected fault windows, unaligned to the sampling grid.
const PARTITION_US: (u64, u64) = (12_300_000, 19_700_000);
const CHURN_US: (u64, u64) = (25_000_000, 34_500_000);
/// Devices taken down by the churn window (disjoint from the pair 0↔1).
const CHURN_FIRST: usize = 10;
const CHURN_N: usize = 8;

struct Beacon {
    scans: bool,
}

impl Stack for Beacon {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        if let NodeEvent::Start = event {
            if self.scans {
                api.push(Command::BleSetScan { duty: Some(1.0) });
            }
            api.push(Command::BleAdvertiseSet {
                slot: 0,
                payload: Bytes::from_static(b"telemetry"),
                interval: SimDuration::from_millis(TICK_MS),
            });
        }
    }
}

fn faults() -> FaultConfig {
    FaultConfig {
        partitions: vec![LinkPartition::new(
            0,
            1,
            SimTime::from_micros(PARTITION_US.0),
            SimTime::from_micros(PARTITION_US.1),
        )],
        churn: (0..CHURN_N)
            .map(|k| ChurnWindow {
                dev: CHURN_FIRST + k,
                down_at: SimTime::from_micros(CHURN_US.0),
                up_at: SimTime::from_micros(CHURN_US.1),
            })
            .collect(),
        ..Default::default()
    }
}

/// Asserts a reconstructed span covers the injected window with both
/// boundaries within one sampling interval.
fn assert_recovers(name: &str, span: (u64, u64), injected: (u64, u64)) {
    let (start_err, end_err) = (span.0.abs_diff(injected.0), span.1.abs_diff(injected.1));
    println!(
        "{name}: injected [{:.1}s, {:.1}s) recovered as [{:.1}s, {:.1}s] \
         (boundary error {:.1}s / {:.1}s)",
        injected.0 as f64 / 1e6,
        injected.1 as f64 / 1e6,
        span.0 as f64 / 1e6,
        span.1 as f64 / 1e6,
        start_err as f64 / 1e6,
        end_err as f64 / 1e6,
    );
    assert!(
        start_err <= SAMPLE_US && end_err <= SAMPLE_US,
        "{name}: boundary error exceeds one sampling interval \
         (start {start_err}us, end {end_err}us > {SAMPLE_US}us)"
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Fleet-sized ring: a 1000-node minute beacons ~120k events, and the
    // health transitions near the run's middle must survive to the end.
    let obs = ObsRun::with_event_capacity("telemetry", 1 << 18);
    let (n, run_secs): (usize, u64) = if smoke { (200, 40) } else { (1000, 60) };

    let mut sim = Runner::new(SimConfig { seed: 11, faults: faults(), ..Default::default() });
    sim.set_obs((*obs).clone());
    sim.enable_sampler(SamplerConfig {
        every: SimDuration::from_micros(SAMPLE_US),
        ..Default::default()
    });

    let sites = n.div_ceil(2);
    let cols = (sites as f64).sqrt().ceil() as usize;
    for i in 0..n {
        let site = i / 2;
        let dx = if i % 2 == 0 { 0.0 } else { PAIR_GAP_M };
        let pos = Position::new(
            (site % cols) as f64 * SITE_PITCH_M + dx,
            (site / cols) as f64 * SITE_PITCH_M,
        );
        let d = sim.add_device(DeviceCaps::PI, pos);
        // The partitioned pair both scan, so every beacon between them is a
        // per-window partition-drop signal while the window is open.
        let scans = i < 2 || i % SCAN_STRIDE == 0;
        sim.set_stack(d, Box::new(Beacon { scans }));
    }

    let wall = Instant::now();
    sim.run_until(SimTime::from_secs(run_secs));
    let wall_ms = wall.elapsed().as_millis() as f64;

    let sampler = sim.sampler().expect("sampler enabled");
    assert_eq!(sampler.samples_taken(), run_secs, "one sample per second of sim time");

    // Partition window ← the per-cause drop series alone.
    let drops =
        sampler.series("sim.faults.drops{cause=partition}").expect("partition drops recorded");
    let partition_spans = drops.spans_where(|s| s.sum > 0.0);
    assert_eq!(partition_spans.len(), 1, "one partition window injected, got {partition_spans:?}");
    assert_recovers("partition", partition_spans[0], PARTITION_US);

    // Churn window ← the nodes-down series alone.
    let down = sampler.series("sim.nodes_down").expect("nodes_down recorded");
    let churn_spans = down.spans_where(|s| s.sum > 0.0);
    assert_eq!(churn_spans.len(), 1, "one churn window injected, got {churn_spans:?}");
    assert_recovers("churn", churn_spans[0], CHURN_US);
    let peak = down.samples().iter().map(|s| s.max).fold(0.0f64, f64::max);
    assert_eq!(peak, CHURN_N as f64, "all churned nodes visible at the peak");

    // The churn window must also trip the health monitor, and the verdict
    // series must recover by the end of the run.
    let health_events = obs
        .events()
        .iter()
        .filter(|e| e.kind.name() == "HealthTransition" && e.node == u32::MAX)
        .count() as u64;
    assert!(health_events >= 2, "expected degrade + recover transitions");
    let health = sampler.series("sim.health").expect("health series");
    let degraded = health.spans_where(|s| s.sum >= 1.0);
    assert_eq!(degraded.len(), 1, "one degraded span, got {degraded:?}");
    assert_recovers("health", degraded[0], CHURN_US);

    let jsonl_path = std::path::Path::new("target").join("obs").join("telemetry.jsonl");
    std::fs::create_dir_all(jsonl_path.parent().unwrap()).expect("mkdir target/obs");
    sampler.write_jsonl(&jsonl_path).expect("write jsonl");
    println!("sampler jsonl: {} ({} lines)", jsonl_path.display(), sampler.samples_taken());

    // Perf-baseline record. Everything sim-derived is deterministic, so the
    // tolerance is zero and the gate doubles as a determinism check; wall
    // clock is informational only.
    let mut b = Baseline::new("telemetry", smoke);
    b.gate("samples", sampler.samples_taken() as f64, 0.0);
    b.gate("beacons_tx", obs.counter("tech.ble-beacon.tx_frames").get() as f64, 0.0);
    b.gate("partition_drops", drops.total(), 0.0);
    b.gate("partition_start_us", partition_spans[0].0 as f64, 0.0);
    b.gate("churn_start_us", churn_spans[0].0 as f64, 0.0);
    b.gate("health_transitions", health_events as f64, 0.0);
    b.gate("nodes_down_peak", peak, 0.0);
    b.info("wall_ms", wall_ms);
    omni_bench::baseline::emit(&b);

    println!("telemetry: ok");
}
