//! Scale benchmark: simulator throughput as the fleet grows.
//!
//! Sweeps fleets of 100 – 100 000 beaconing devices laid out on a
//! constant-density grid and reports wall-clock ticks/sec, per-tick p95, and
//! heap allocations per tick (a *tick* is one 500 ms beacon round; big
//! fleets run fewer ticks so the sweep stays tractable). At 1000 nodes the
//! sweep re-runs the identical fleet with the retained brute-force neighbor
//! scan (`Runner::set_brute_force_neighbors`) and asserts the spatial grid
//! delivers at least a 10× ticks/sec speedup.
//!
//! `--smoke` runs the 1000-node cell and three 10 000-node cells against CI
//! wall-clock and allocation budgets, and holds the best of the 10 000-node
//! cells to a throughput floor. A fourth 10 000-node cell runs with the
//! tick-phase profiler on: it must hear what the others heard, and its
//! clock reads are gated exactly (DESIGN.md §5j).

use std::time::Instant;

use omni_bench::baseline::Baseline;
use omni_bench::fleet::{PairGrid, TICK_MS};
use omni_bench::report::{Chart, Table};
use omni_bench::ObsRun;
use omni_obs::{Obs, PhaseReport};
use omni_sim::{Runner, SimConfig, SimTime};

#[path = "../counting_alloc.rs"]
mod counting_alloc;

/// Counts heap allocations so each cell can report allocations per tick —
/// the number that explodes first when a hot loop grows a per-event `Vec`.
#[global_allocator]
static GLOBAL: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Devices are placed in pairs 10 m apart (inside BLE range), with pair
/// sites on a 100 m grid — one grid cell per site. Density is constant
/// regardless of fleet size, so any superlinear slowdown is the neighbor
/// query's.
const GRID: PairGrid = PairGrid { site_pitch_m: 100.0, pair_gap_m: 10.0 };
/// Every `SCAN_STRIDE`-th device scans; the rest only advertise. Keeps
/// delivery fan-out sparse so the measurement isolates neighbor lookup.
const SCAN_STRIDE: usize = 50;
/// Smoke budget: mean wall-clock per 1000-node tick. Generous — the grid
/// path runs an order of magnitude under this on a loaded CI box.
const SMOKE_BUDGET_MEAN_US: f64 = 100_000.0;
/// Smoke budget for the 10 000-node cell. Same spirit: an order of
/// magnitude above what the grid path needs, so only a complexity
/// regression (not CI noise) can trip it.
const SMOKE_BUDGET_10K_MEAN_US: f64 = 1_000_000.0;
/// Throughput floor for the 10 000-node cell (ticks/sec), taken as the best
/// of `FLOOR_TRIES` runs so one slow spell of a shared host cannot fail it.
/// The scanner index and advertising lanes (DESIGN.md §5d, §5g) measure
/// 290–470 on the 2-core reference host; the design before them, 130–160.
const FLOOR_10K_TICKS_PER_SEC: f64 = 220.0;
const FLOOR_TRIES: usize = 3;

/// Steady-state allocation ceilings for the smoke gate, in allocs/tick.
///
/// The zero-copy wire path (shared `Bytes` payloads, pooled encode scratch,
/// pooled fan-out buffers — DESIGN.md §5i) measures 0 allocs/tick at both
/// cells once startup is amortized; the pre-refactor committed baseline was
/// 50.1 at 1k nodes and 1000.2 at 10k. The ceilings leave slack for
/// allocator noise while still catching any per-frame allocation sneaking
/// back into the hot path.
const ALLOC_CEILING_1K: f64 = 10.0;
const ALLOC_CEILING_10K: f64 = 100.0;

/// The profiled 10 000-node cell may read the clock at most once per this
/// many dispatched events: an exact count of the profiler's cost (two reads
/// per scope), where a wall-clock difference is too noisy to resolve 5%.
const EVENTS_PER_CLOCK_READ: u64 = 100;

/// Measured beacon rounds per cell: big fleets run fewer so the full sweep
/// finishes in minutes, with enough rounds left for a stable p95.
fn ticks_for(n: usize) -> u64 {
    match n {
        0..=5_000 => 40,
        5_001..=10_000 => 20,
        _ => 10,
    }
}

struct CellResult {
    ticks_per_sec: f64,
    mean_tick_us: f64,
    p95_tick_us: u64,
    allocs_per_tick: f64,
    heard: u64,
    /// The profiler's report, when the cell ran profiled.
    profile: Option<PhaseReport>,
}

/// Runs an N-device fleet for `ticks_for(n)` beacon rounds, timing each
/// round and counting its heap allocations. `brute_force` swaps the
/// neighbor query; `profile` enables the tick-phase profiler.
fn run_cell(n: usize, brute_force: bool, profile: bool, obs: &Obs) -> CellResult {
    let ticks = ticks_for(n);
    let mut sim = Runner::new(SimConfig::default());
    sim.set_brute_force_neighbors(brute_force);
    if profile {
        sim.enable_profiler();
    }
    let heard = GRID.add_fleet(&mut sim, n, b"scale", |i| (i % SCAN_STRIDE == 0).then_some(1.0));

    let label = match (brute_force, profile) {
        (true, _) => format!("n{n}.brute"),
        (_, true) => format!("n{n}.profiled"),
        _ => format!("n{n}"),
    };
    let tick_us = obs.digest(&format!("scale.{label}.tick_us"));
    let allocs_before = counting_alloc::allocs();
    let started = Instant::now();
    for t in 1..=ticks {
        let tick_start = Instant::now();
        sim.run_until(SimTime::from_millis(TICK_MS * t));
        tick_us.record(tick_start.elapsed().as_micros() as u64);
    }
    let total_s = started.elapsed().as_secs_f64();
    let allocs = counting_alloc::allocs() - allocs_before;
    let ticks_per_sec = ticks as f64 / total_s;
    obs.gauge(&format!("scale.{label}.ticks_per_sec")).set(ticks_per_sec as i64);
    let heard = heard.get();
    CellResult {
        ticks_per_sec,
        mean_tick_us: total_s * 1e6 / ticks as f64,
        p95_tick_us: tick_us.quantile(0.95),
        allocs_per_tick: allocs as f64 / ticks as f64,
        heard,
        profile: sim.profiler().map(|p| p.report()),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let obs = ObsRun::new("scale");

    if smoke {
        let cell = run_cell(1000, false, false, &obs);
        println!(
            "scale smoke: 1000 nodes, {:.0} ticks/sec, mean tick {:.0} µs, p95 {} µs, \
             {:.2} allocs/tick, {} beacons heard",
            cell.ticks_per_sec,
            cell.mean_tick_us,
            cell.p95_tick_us,
            cell.allocs_per_tick,
            cell.heard
        );
        assert!(cell.heard > 0, "the fleet exchanged no beacons — broken setup");
        assert!(
            cell.mean_tick_us <= SMOKE_BUDGET_MEAN_US,
            "1000-node tick blew the smoke budget: mean {:.0} µs > {:.0} µs",
            cell.mean_tick_us,
            SMOKE_BUDGET_MEAN_US
        );
        assert!(
            cell.allocs_per_tick <= ALLOC_CEILING_1K,
            "1000-node cell allocates on the hot path: {:.1} allocs/tick > {ALLOC_CEILING_1K} \
             — the zero-copy wire path regressed (DESIGN.md §5i)",
            cell.allocs_per_tick
        );

        let bigs: Vec<CellResult> =
            (0..FLOOR_TRIES).map(|_| run_cell(10_000, false, false, &obs)).collect();
        for big in &bigs {
            println!(
                "scale smoke: 10000 nodes, {:.0} ticks/sec, mean tick {:.0} µs, \
                 {:.2} allocs/tick, {} beacons heard",
                big.ticks_per_sec, big.mean_tick_us, big.allocs_per_tick, big.heard
            );
            assert_eq!(big.heard, bigs[0].heard, "same fleet, same seed — heard must repeat");
            assert!(
                big.mean_tick_us <= SMOKE_BUDGET_10K_MEAN_US,
                "10000-node tick blew the smoke budget: mean {:.0} µs > {:.0} µs",
                big.mean_tick_us,
                SMOKE_BUDGET_10K_MEAN_US
            );
            assert!(
                big.allocs_per_tick <= ALLOC_CEILING_10K,
                "10000-node cell allocates on the hot path: {:.1} allocs/tick > \
                 {ALLOC_CEILING_10K} — the zero-copy wire path regressed (DESIGN.md §5i)",
                big.allocs_per_tick
            );
        }
        let big = bigs
            .into_iter()
            .max_by(|a, b| a.ticks_per_sec.total_cmp(&b.ticks_per_sec))
            .expect("FLOOR_TRIES > 0");
        assert!(
            big.ticks_per_sec >= FLOOR_10K_TICKS_PER_SEC,
            "10000-node throughput under the floor: best of {FLOOR_TRIES} {:.0} ticks/sec < \
             {FLOOR_10K_TICKS_PER_SEC} — beacon fan-out regressed (DESIGN.md §5d, §5g)",
            big.ticks_per_sec
        );

        let profiled = run_cell(10_000, false, true, &obs);
        let report = profiled.profile.expect("the cell ran profiled");
        let clock_reads = 2 * report.phases.iter().map(|p| p.scopes).sum::<u64>();
        let overhead_pct = (big.ticks_per_sec / profiled.ticks_per_sec - 1.0) * 100.0;
        println!(
            "scale smoke: 10000 nodes profiled, {:.0} ticks/sec ({overhead_pct:+.1}% against the \
             best), {clock_reads} clock reads over {} events",
            profiled.ticks_per_sec, report.events
        );
        assert_eq!(profiled.heard, big.heard, "the profiler changed what the fleet heard");
        assert!(
            clock_reads * EVENTS_PER_CLOCK_READ <= report.events,
            "the profiler read the clock {clock_reads} times over {} events, more than once per \
             {EVENTS_PER_CLOCK_READ} — same-phase coalescing regressed (DESIGN.md §5j)",
            report.events
        );

        let mut b = Baseline::new("scale", true);
        b.gate("n1000_heard", cell.heard as f64);
        b.gate("n10000_heard", big.heard as f64);
        b.info("n1000_ticks_per_sec", cell.ticks_per_sec);
        b.info("n1000_mean_tick_us", cell.mean_tick_us);
        b.info("n1000_p95_tick_us", cell.p95_tick_us as f64);
        b.info("n1000_allocs_per_tick", cell.allocs_per_tick);
        b.info("n10000_ticks_per_sec", big.ticks_per_sec);
        b.info("n10000_allocs_per_tick", big.allocs_per_tick);
        b.gate("n10000_profiled_events", report.events as f64);
        b.gate("n10000_profiled_clock_reads", clock_reads as f64);
        b.info("n10000_profiler_overhead_pct", overhead_pct);
        omni_bench::baseline::emit(&b);
        println!("scale: ok");
        return;
    }
    let mut bline = Baseline::new("scale", false);

    let mut table = Table::new(
        "Simulator throughput vs. fleet size (500 ms beacon rounds)",
        &["ticks/sec", "p95 tick µs", "allocs/tick"],
    );
    let mut chart = Chart::new("Ticks/sec by fleet size (spatial grid)", "ticks/sec");
    let mut grid_1000 = None;
    for n in [100usize, 500, 1000, 5000, 10_000, 50_000, 100_000] {
        let cell = run_cell(n, false, false, &obs);
        println!(
            "n={n:6}: {:8.1} ticks/sec, mean {:8.0} µs, p95 {:7} µs, {:8.0} allocs/tick, \
             {} beacons heard",
            cell.ticks_per_sec,
            cell.mean_tick_us,
            cell.p95_tick_us,
            cell.allocs_per_tick,
            cell.heard
        );
        assert!(cell.heard > 0, "the {n}-node fleet exchanged no beacons");
        table.row(
            format!("{n} nodes"),
            vec![
                omni_bench::report::Cell::measured_only(cell.ticks_per_sec),
                omni_bench::report::Cell::measured_only(cell.p95_tick_us as f64),
                omni_bench::report::Cell::measured_only(cell.allocs_per_tick),
            ],
        );
        chart.bar(format!("{n} nodes"), cell.ticks_per_sec);
        bline.gate(&format!("n{n}_heard"), cell.heard as f64);
        bline.info(&format!("n{n}_ticks_per_sec"), cell.ticks_per_sec);
        bline.info(&format!("n{n}_allocs_per_tick"), cell.allocs_per_tick);

        if n == 1000 {
            grid_1000 = Some(cell);
        }
    }

    // Headline: the grid vs. the retained O(N) scan on the same 1000-node
    // fleet. The runs are bit-identical in behavior (proved by the property
    // tests); only the wall clock may differ.
    // Best-of-two grid measurement, the second taken adjacent in time to the
    // brute run: on a loaded box the sweep's earlier cells can depress the
    // first sample enough to flake a 10× floor that holds comfortably.
    let grid = grid_1000.expect("1000-node cell ran");
    let brute = run_cell(1000, true, false, &obs);
    let grid_fresh = run_cell(1000, false, false, &obs);
    assert_eq!(grid.heard, grid_fresh.heard, "same fleet, same seed — heard must repeat");
    let speedup = grid.ticks_per_sec.max(grid_fresh.ticks_per_sec) / brute.ticks_per_sec;
    println!(
        "n=  1000 brute-force: {:8.1} ticks/sec, mean {:8.0} µs, p95 {:7} µs  → grid speedup {:.1}×",
        brute.ticks_per_sec, brute.mean_tick_us, brute.p95_tick_us, speedup
    );
    assert_eq!(grid.heard, brute.heard, "grid and scan runs diverged — determinism bug");
    obs.gauge("scale.n1000.grid_speedup_x10").set((speedup * 10.0) as i64);
    assert!(
        speedup >= 10.0,
        "spatial grid must be ≥10× the brute-force scan at 1000 nodes, got {speedup:.1}×"
    );

    bline.info("n1000_grid_speedup", speedup);
    omni_bench::baseline::emit(&bline);

    print!("{}", table.render());
    println!();
    print!("{}", chart.render());
    println!("scale: ok");
}
