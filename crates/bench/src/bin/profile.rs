//! omni-profile: tick-phase profiler bench (Issue 10 acceptance harness).
//!
//! Two workloads, both asserting the DESIGN.md §5j contract:
//!
//! * **200-node faulty fleet** — 15% BLE loss, a link partition, and a
//!   churn window. Runs twice (profiler off, then on) and asserts the
//!   sampler JSONL, flight-recorder dump, and application-visible beacon
//!   counts are **byte-identical**: enabling the profiler must never
//!   change a simulation artifact.
//! * **10k-node beacon cell** — the scale-bench beacon grid.
//!   Interleaved best-of-3 timings with the profiler off and on give the
//!   overhead estimate; `--smoke` asserts it stays ≤ 5%. The profiled
//!   run's per-phase shares are printed and exported as a collapsed-stack
//!   flamegraph at `target/obs/profile.folded`, which is then re-parsed to
//!   prove the format round-trips.
//!
//! Deterministic counters (fleet beacons heard, cell beacons heard) are
//! gated at 0% tolerance in `BENCH_profile.json`; timing-derived numbers
//! (overhead, shares) are informational.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use omni_bench::baseline::{self, Baseline};
use omni_bench::fleet::{Beacon, PairGrid};
use omni_bench::ObsRun;
use omni_obs::{flamegraph_collapsed, parse_collapsed, Obs, PhaseReport};
use omni_sim::{
    ChurnWindow, DeviceCaps, FaultConfig, FlightRecorder, LinkPartition, Position, Runner,
    SimConfig, SimDuration, SimTime,
};

/// Fleet seed; both the off and on runs use it, so any divergence is the
/// profiler's fault, not the scenario's.
const SEED: u64 = 17;
/// Stub payload for both workloads.
const PAYLOAD: &[u8] = b"prof";
/// Scan duty cycle of every scanning device.
const SCAN_DUTY: f64 = 0.8;

/// Everything the fleet run externalizes, captured for byte comparison.
struct FleetArtifacts {
    sampler_jsonl: String,
    recorder_dump: String,
    heard: u64,
}

/// Runs the 200-node faulty fleet.
fn run_fleet(profile: bool) -> (FleetArtifacts, Option<PhaseReport>) {
    let faults = FaultConfig {
        ble_loss: 0.15,
        ble_jitter: SimDuration::from_millis(5),
        partitions: vec![LinkPartition::new(0, 1, SimTime::from_secs(2), SimTime::from_secs(6))],
        churn: vec![ChurnWindow {
            dev: 2,
            down_at: SimTime::from_secs(3),
            up_at: SimTime::from_secs(7),
        }],
        ..Default::default()
    };
    let mut sim = Runner::new(SimConfig { seed: SEED, faults, ..Default::default() });
    if profile {
        sim.enable_profiler();
    }
    let obs = Obs::new();
    sim.set_obs(obs.clone());
    sim.enable_sampler();
    let heard = Rc::new(Cell::new(0));
    for i in 0..200 {
        let pos = Position::new((i % 20) as f64 * 8.0, (i / 20) as f64 * 8.0);
        let dev = sim.add_device(DeviceCaps::PI, pos);
        let scan = Some(SCAN_DUTY);
        sim.set_stack(dev, Box::new(Beacon { payload: PAYLOAD, scan, heard: heard.clone() }));
    }
    sim.run_until(SimTime::from_secs(10));
    let report = sim.profiler().map(|p| p.report());
    let artifacts = FleetArtifacts {
        sampler_jsonl: sim.sampler().map(|s| s.to_jsonl()).unwrap_or_default(),
        recorder_dump: FlightRecorder::from_obs(&obs).to_jsonl(),
        heard: heard.get(),
    };
    (artifacts, report)
}

/// One timed run of the 10k beacon cell: wall-clock seconds, beacons
/// heard, and the profiler report when profiling.
fn run_cell(n: usize, ticks: u64, profile: bool) -> (f64, u64, Option<PhaseReport>) {
    let mut sim = Runner::new(SimConfig::default());
    if profile {
        sim.enable_profiler();
    }
    // Pairs 3 m apart on a 50 m site grid: dense local radio neighborhoods,
    // no cross-site traffic — the same shape the scale bench uses.
    let grid = PairGrid { site_pitch_m: 50.0, pair_gap_m: 3.0 };
    let heard = grid.add_fleet(&mut sim, n, PAYLOAD, |i| (i % 16 == 0).then_some(SCAN_DUTY));
    let started = Instant::now();
    for t in 1..=ticks {
        sim.run_until(SimTime::from_millis(500 * t));
    }
    let secs = started.elapsed().as_secs_f64();
    let report = sim.profiler().map(|p| p.report());
    (secs, heard.get(), report)
}

/// Prints the profiled cell's per-phase share breakdown.
fn print_report(r: &PhaseReport) {
    let shares: Vec<String> = r
        .phases
        .iter()
        .filter(|p| p.scopes > 0)
        .map(|p| format!("{} {:.1}% (p99 {} µs)", p.phase.name(), p.share * 100.0, p.p99_us))
        .collect();
    println!("profile: phases: {}", shares.join(", "));
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let obs = ObsRun::new("profile");
    let mut bline = Baseline::new("profile", smoke);

    // -- 200-node faulty fleet: byte-identity with the profiler on --------
    let (off, _) = run_fleet(false);
    let (on, fleet_report) = run_fleet(true);
    assert_eq!(off.sampler_jsonl, on.sampler_jsonl, "profiler changed the sampler JSONL");
    assert_eq!(off.recorder_dump, on.recorder_dump, "profiler changed the flight record");
    assert_eq!(off.heard, on.heard, "profiler changed application-visible state");
    let fleet_report = fleet_report.expect("profiled fleet has a report");
    assert!(fleet_report.phases.iter().any(|p| p.scopes > 0), "profiler saw no scopes");
    println!(
        "profile: 200-node faulty fleet byte-identical profiler on/off \
         ({} recorder bytes, {} beacons heard)",
        off.recorder_dump.len(),
        off.heard
    );
    obs.counter("profile.fleet.heard").add(off.heard);
    bline.gate("fleet_heard", off.heard as f64);

    // -- 10k cell: overhead + report --------------------------------------
    let n = 10_000;
    let ticks = if smoke { 24 } else { 60 };
    // Interleave the off/on runs so clock drift and cache state hit both
    // sides equally, then take best-of-3 on each side: the minimum is the
    // least-noisy estimate of the true cost.
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let mut heard_off = 0;
    let mut report: Option<PhaseReport> = None;
    for _ in 0..3 {
        let (secs, heard, _) = run_cell(n, ticks, false);
        best_off = best_off.min(secs);
        heard_off = heard;
        let (secs, heard, r) = run_cell(n, ticks, true);
        best_on = best_on.min(secs);
        assert_eq!(heard, heard_off, "profiled cell diverged — §5j invariant broken");
        report = r;
    }
    let overhead_pct = (best_on - best_off) / best_off * 100.0;
    println!(
        "profile: {n}-node cell, {ticks} ticks: off {:.3}s, on {:.3}s \
         → overhead {overhead_pct:+.2}%",
        best_off, best_on
    );
    if smoke {
        assert!(overhead_pct <= 5.0, "profiler overhead {overhead_pct:.2}% exceeds the 5% budget");
    }
    let report = report.expect("profiled cell has a report");
    print_report(&report);
    obs.gauge("profile.cell.heard").set(heard_off as i64);
    bline.gate("cell_heard", heard_off as f64);
    bline.info("overhead_pct", overhead_pct);
    for p in report.phases.iter().filter(|p| p.scopes > 0) {
        bline.info(&format!("share_{}", p.phase.name()), p.share);
    }

    // -- flamegraph export round-trip -------------------------------------
    let folded = flamegraph_collapsed(&report);
    let path = std::path::Path::new("target").join("obs").join("profile.folded");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&path, &folded).expect("write collapsed stacks");
    let parsed = parse_collapsed(&folded);
    let total: u64 = parsed.iter().map(|(_, us)| *us).sum();
    assert_eq!(total, report.total_us, "collapsed-stack round-trip lost time");
    println!("profile: flamegraph: {} ({} frames, {total} µs)", path.display(), parsed.len());

    baseline::emit(&bline);
    println!("profile: ok");
}
