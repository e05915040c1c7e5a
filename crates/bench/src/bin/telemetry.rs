//! Telemetry benchmark: the fleet sampler must reconstruct injected fault
//! windows from its sampling windows alone.
//!
//! Runs a constant-density beaconing fleet (1000 nodes; 200 under `--smoke`)
//! with the sim-clock [`Sampler`](omni_sim::Sampler) enabled and two known
//! fault injections:
//!
//! * a **link partition** between the co-sited pair 0↔1 over
//!   `[12.3 s, 19.7 s)` — reconstructed from the windows with a non-zero
//!   `sim.faults.drops{cause=partition}` delta, and
//! * a **churn window** taking 8 nodes down over `[25 s, 34.5 s)` —
//!   reconstructed from the windows with nodes down.
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

use omni_bench::baseline::Baseline;
use omni_bench::fleet::PairGrid;
use omni_bench::ObsRun;
use omni_sim::{
    ChurnWindow, FaultConfig, HealthState, LinkPartition, Runner, SimConfig, SimTime, SAMPLE_EVERY,
};

/// Pair sites on a constant-density grid, two devices per site (the scale
/// bench's layout).
const GRID: PairGrid = PairGrid { site_pitch_m: 100.0, pair_gap_m: 10.0 };
/// Every `SCAN_STRIDE`-th device scans (plus the partitioned pair).
const SCAN_STRIDE: usize = 50;
/// Injected fault windows, unaligned to the sampling grid.
const PARTITION_US: (u64, u64) = (12_300_000, 19_700_000);
const CHURN_US: (u64, u64) = (25_000_000, 34_500_000);
/// Devices taken down by the churn window (disjoint from the pair 0↔1).
const CHURN_FIRST: usize = 10;
const CHURN_N: usize = 8;

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
    let tolerance = SAMPLE_EVERY.as_micros();
    assert!(
        start_err <= tolerance && end_err <= tolerance,
        "{name}: boundary error exceeds one sampling interval \
         (start {start_err}us, end {end_err}us > {tolerance}us)"
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
    sim.enable_sampler();

    // The partitioned pair both scan, so every beacon between them is a
    // per-window partition-drop signal while the window is open.
    GRID.add_fleet(&mut sim, n, b"telemetry", |i| (i < 2 || i % SCAN_STRIDE == 0).then_some(1.0));

    let wall = Instant::now();
    sim.run_until(SimTime::from_secs(run_secs));
    let wall_ms = wall.elapsed().as_millis() as f64;

    let sampler = sim.sampler().expect("sampler enabled");
    assert_eq!(sampler.samples_taken(), run_secs, "one sample per second of sim time");

    // Partition window ← the per-cause drop deltas alone.
    const PARTITION_DROPS: &str = "sim.faults.drops{cause=partition}";
    let partition_spans = sampler.spans_where(|w| w.counter(PARTITION_DROPS) > 0);
    assert_eq!(partition_spans.len(), 1, "one partition window injected, got {partition_spans:?}");
    assert_recovers("partition", partition_spans[0], PARTITION_US);
    let partition_drops: u64 = sampler.windows().iter().map(|w| w.counter(PARTITION_DROPS)).sum();

    // Churn window ← the nodes-down count alone.
    let churn_spans = sampler.spans_where(|w| w.nodes_down > 0);
    assert_eq!(churn_spans.len(), 1, "one churn window injected, got {churn_spans:?}");
    assert_recovers("churn", churn_spans[0], CHURN_US);
    let peak = sampler.windows().iter().map(|w| w.nodes_down).max().unwrap_or(0);
    assert_eq!(peak, CHURN_N, "all churned nodes visible at the peak");

    // The churn window must also trip the health monitor, and the verdict
    // must recover by the end of the run.
    let health_events = obs
        .events()
        .iter()
        .filter(|e| e.kind.name() == "HealthTransition" && e.node == u32::MAX)
        .count() as u64;
    assert!(health_events >= 2, "expected degrade + recover transitions");
    let degraded = sampler.spans_where(|w| w.health >= HealthState::Degraded);
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
    b.gate("samples", sampler.samples_taken() as f64);
    b.gate("beacons_tx", obs.counter("tech.ble-beacon.tx_frames").get() as f64);
    b.gate("partition_drops", partition_drops as f64);
    b.gate("partition_start_us", partition_spans[0].0 as f64);
    b.gate("churn_start_us", churn_spans[0].0 as f64);
    b.gate("health_transitions", health_events as f64);
    b.gate("nodes_down_peak", peak as f64);
    b.info("wall_ms", wall_ms);
    omni_bench::baseline::emit(&b);

    println!("telemetry: ok");
}
