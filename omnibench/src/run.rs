//! Running one workload: repeated set-up, the stepped timed phase, and the
//! untraced (end-to-end) and traced (per-layer) reports.

use std::time::{Duration, Instant};

use omni_obs::{split_labels, Obs, Phase as ProfPhase};
use omni_sim::{DeviceId, Runner, SimTime};
use omni_wire::TechType;

use crate::measure::{
    alloc_mark, heap_peak_bytes, median, percentile, ratio, reset_heap_peak, tail_supported,
    AllocMark, HostProbe, Metric,
};
use crate::trace::{replay_wire, KINDS};
use crate::workloads::{build, session_seed, Fleet, Tally, Workload, STEP, WARMUP};

/// `setup_s` is the median of at least this many set-ups, and of more
/// when they are quick: set-ups repeat until they total `SETUP_TOTAL_S`,
/// at most `MAX_SETUPS` times.
const SETUPS: usize = 3;
const SETUP_TOTAL_S: f64 = 2.0;
const MAX_SETUPS: usize = 25;
/// A run that has not reached its horizon by this much wall time since it
/// started fails rather than overrun the caller's time limit.
const DEADLINE: Duration = Duration::from_secs(150);

/// One workload's results.
pub struct Report {
    pub workload: Workload,
    /// The gated metrics: end-to-end when untraced, per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Simulated metrics at the horizon (deterministic per seed).
    pub simulated: Vec<Metric>,
    /// Further measurements, printed but not gated.
    pub info: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, by name.
    pub failures: Vec<String>,
}

/// Builds the fleet and runs the warm-up; returns it with the wall time.
fn set_up(w: Workload, seed: u64, scale: u32, traced: bool) -> (Fleet, f64) {
    let started = Instant::now();
    let mut fleet = build(w, seed, scale, traced);
    fleet.sim.run_until(WARMUP);
    (fleet, started.elapsed().as_secs_f64())
}

/// What the timed phase measured.
struct Timed {
    /// Simulated seconds covered.
    sim_s: f64,
    /// Wall seconds inside `run_until`.
    wall_s: f64,
    /// Wall seconds of the whole phase, harness included, host probe
    /// excluded.
    loop_s: f64,
    step_ms: Vec<f64>,
    /// What the applications observed by the horizon.
    tally: Tally,
    /// Peak live heap of the fleet up to the horizon.
    heap_peak: usize,
    allocs: AllocMark,
}

/// Advances in `STEP`s from the end of the warm-up to the horizon. The
/// span is fixed, so every run of a seed does the same work whatever the
/// host speed. `host` slices run between steps, outside the step timing.
fn timed_phase(
    fleet: &mut Fleet,
    horizon: SimTime,
    deadline: Instant,
    mut host: Option<&mut HostProbe>,
) -> Result<Timed, String> {
    let before = alloc_mark();
    let started = Instant::now();
    let mut probe_time = Duration::ZERO;
    let mut step_ms = Vec::new();
    let mut wall = Duration::ZERO;
    let mut t = WARMUP;
    let mut k = 0u64;
    while t < horizon {
        k += 1;
        t += STEP;
        if let Some(p) = &fleet.probe {
            p.borrow_mut().begin_step(k);
        }
        let t0 = Instant::now();
        fleet.sim.run_until(t);
        let t1 = Instant::now();
        if let Some(p) = &fleet.probe {
            p.borrow_mut().end_step(t0, t1);
        }
        wall += t1 - t0;
        step_ms.push((t1 - t0).as_secs_f64() * 1e3);
        if let Some(h) = host.as_deref_mut() {
            let p0 = Instant::now();
            h.tick();
            probe_time += p0.elapsed();
        }
        if t < horizon && t1 > deadline {
            return Err(format!(
                "horizon: reached {:.1} of {:.1} simulated s before the deadline",
                t.as_secs_f64(),
                horizon.as_secs_f64()
            ));
        }
    }
    let after = alloc_mark();
    Ok(Timed {
        sim_s: (t - WARMUP).as_secs_f64(),
        wall_s: wall.as_secs_f64(),
        loop_s: (started.elapsed() - probe_time).as_secs_f64(),
        step_ms,
        tally: fleet.observe(),
        heap_peak: heap_peak_bytes(),
        allocs: AllocMark {
            allocs: after.allocs - before.allocs,
            bytes: after.bytes - before.bytes,
        },
    })
}

fn failed_report(w: Workload, why: String) -> Report {
    Report {
        workload: w,
        metrics: Vec::new(),
        simulated: Vec::new(),
        info: Vec::new(),
        attempted: 1,
        failed: 1,
        failures: vec![why],
    }
}

fn alloc_metrics(timed: &[Timed]) -> [Metric; 2] {
    let sim_s: f64 = timed.iter().map(|t| t.sim_s).sum();
    let allocs: u64 = timed.iter().map(|t| t.allocs.allocs).sum();
    let bytes: u64 = timed.iter().map(|t| t.allocs.bytes).sum();
    [
        Metric::new("alloc.per_sim_s", allocs as f64 / sim_s, "1/sim-s"),
        Metric::new("alloc.mb_per_sim_s", bytes as f64 / 1e6 / sim_s, "MB/sim-s"),
    ]
}

/// The end-to-end run, with every shipped default in place — no profiler,
/// no observability handle, no wrapper. One batch is the workload's
/// sessions (set-up plus timed phase each, on fresh fleets); the simulated
/// metrics pool them. Sessions then repeat in turn until `seconds` of
/// timed phase have been measured, and every repeat must reproduce its
/// first run exactly. `sim_speed` is the median over all timed phases and
/// `setup_s` the median of at least `SETUPS` set-ups, both scaled to the
/// reference host speed (see [`HostProbe`]); the raw values are reported
/// alongside.
pub fn untraced(w: Workload, seed: u64, seconds: u64, scale: u32) -> Report {
    let deadline = Instant::now() + DEADLINE;
    let horizon = w.horizon(scale);
    let sessions = w.sessions(scale);
    let mut host = HostProbe::new();
    let mut setups = Vec::new();
    while setups.len() + 1 < SETUPS
        || (setups.iter().sum::<f64>() < SETUP_TOTAL_S && setups.len() + 1 < MAX_SETUPS)
    {
        host.slice();
        setups.push(set_up(w, seed, scale, false).1);
    }
    let mut failures = Vec::new();
    let mut speeds = Vec::new();
    let mut measured = 0.0;
    let mut batch: Vec<Timed> = Vec::new();
    let mut k = 0;
    while k < sessions || (measured < seconds as f64 && Instant::now() < deadline) {
        let session = k % sessions;
        host.slice();
        reset_heap_peak();
        let (mut fleet, s) = set_up(w, session_seed(seed, session), scale, false);
        setups.push(s);
        if k == 0 {
            failures.extend(fleet.warmup_failures());
        }
        let timed = match timed_phase(&mut fleet, horizon, deadline, Some(&mut host)) {
            Ok(t) => t,
            Err(why) => return failed_report(w, why),
        };
        speeds.push(timed.sim_s / timed.wall_s);
        measured += timed.wall_s;
        if k < sessions {
            batch.push(timed);
        } else if batch[session as usize].tally != timed.tally {
            failures.push("repeat identity: a repeated session changed its results".into());
        }
        k += 1;
    }
    let mut tally = Tally::default();
    for t in &batch {
        tally.merge(&t.tally);
    }
    let outcome = tally.outcome(w);
    failures.extend(outcome.failures);
    let energy = outcome.metrics.iter().find(|m| m.name == "energy_ma").map(|m| m.value);
    let heap: Vec<f64> = batch.iter().map(|t| t.heap_peak as f64 / 1e6).collect();
    let slowdown = host.slowdown();
    let metrics = vec![
        Metric::new("sim_speed", median(&speeds) * slowdown, "sim-s/s"),
        Metric::new("setup_s", median(&setups) / slowdown, "s"),
        Metric::new("heap_peak_mb", median(&heap), "MB"),
        Metric::new("energy_ma", energy.expect("every outcome reports energy"), "mA"),
    ];
    let mut info = alloc_metrics(&batch).to_vec();
    info.extend([
        Metric::new("sim_speed_raw", median(&speeds), "sim-s/s"),
        Metric::new("setup_s_raw", median(&setups), "s"),
        Metric { samples: Some(host.slices()), ..Metric::new("host_slowdown", slowdown, "ratio") },
        Metric::new("sessions", sessions as f64, "count"),
        Metric::new("timed_phases", speeds.len() as f64, "count"),
        Metric::new("setups", setups.len() as f64, "count"),
        Metric::new("timed_sim_s", batch[0].sim_s, "sim-s"),
    ]);
    Report {
        workload: w,
        metrics,
        simulated: outcome.metrics,
        info,
        attempted: outcome.attempted,
        failed: outcome.failed,
        failures,
    }
}

/// Replays `World::neighbors_into` at BLE range over every device:
/// returns (µs per query, neighbours per query).
fn world_replay(sim: &Runner) -> (f64, f64) {
    let range = sim.config().range_m(TechType::BleBeacon);
    let n = sim.device_count();
    let mut buf = Vec::new();
    let (mut queries, mut found) = (0u64, 0u64);
    let started = Instant::now();
    while queries == 0 || started.elapsed() < Duration::from_millis(20) {
        for d in 0..n {
            sim.world().neighbors_into(DeviceId(d), range, &mut buf);
            found += buf.len() as u64;
        }
        queries += n as u64;
    }
    let us = started.elapsed().as_secs_f64() * 1e6;
    (us / queries as f64, found as f64 / queries as f64)
}

/// A manager counter: the unlabelled series when the manager keeps one,
/// else the sum over its label sets.
fn counter(obs: &Obs, base: &str) -> f64 {
    let read = obs.metrics().read();
    if let Some((_, v)) = read.counters.iter().find(|(n, _)| n == base) {
        return *v as f64;
    }
    read.counters.iter().filter(|(n, _)| split_labels(n).0 == base).map(|(_, v)| *v as f64).sum()
}

const CORE_COUNTERS: [&str; 6] = [
    "mgr.data_enqueued",
    "mgr.data_retries",
    "mgr.data_fallbacks",
    "mgr.data_relayed",
    "mgr.data_deduped",
    "mgr.data_delivered",
];

/// The per-layer metrics in the result line (`per_layer` in
/// BENCHMARK.json): those measured, and never 0, on every workload. The
/// rest apply to some workloads only — a stub stack decodes no frames, a
/// crowd sends no data, the serial runner's serial fraction is always 1 —
/// and are printed and written to `results.json` but not gated.
pub const GATED_LAYER: [&str; 12] = [
    "sim.self_ms_per_sim_s",
    "sim.step_ms_p50",
    "sim.step_ms_p99",
    "sim.phase.staged_commit_ms_per_sim_s",
    "sim.dispatch.ble_beacon_per_sim_s",
    "world.query_us",
    "world.neighbors_per_query",
    "core.self_ms_per_sim_s",
    "core.us_per.ble_beacon",
    "alloc.per_sim_s",
    "alloc.mb_per_sim_s",
    "trace.overhead_pct",
];

/// A per-layer percentile, or 0 when the sample cannot support it (the
/// count beside it says why).
fn layer_pct(name: &str, samples: &[f64], q: f64, unit: &'static str) -> Metric {
    match percentile(samples, q) {
        Some(p) => Metric::pct(name, p, unit),
        None => Metric { samples: Some(samples.len()), ..Metric::new(name, 0.0, unit) },
    }
}

/// The per-layer run, on a batch's first session. An untraced pass to the
/// horizon gives the reference simulated results and speed; then a traced
/// pass — stack wrappers, tick profiler, observability handle, sampled
/// spans — over the same seed must reproduce those results exactly. Times
/// are scaled to the reference host speed as in the untraced run, each
/// pass by its own probe.
pub fn traced(w: Workload, seed: u64, scale: u32) -> Report {
    let horizon = w.horizon(scale);
    let deadline = Instant::now() + DEADLINE;
    let (mut plain, _) = set_up(w, seed, scale, false);
    let mut reference_host = HostProbe::new();
    let reference = match timed_phase(&mut plain, horizon, deadline, Some(&mut reference_host)) {
        Ok(t) => t,
        Err(why) => return failed_report(w, why),
    };
    let reference_wall = reference.wall_s / reference_host.slowdown();
    drop((plain, reference_host));

    let (mut fleet, _) = set_up(w, seed, scale, true);
    let mut failures = fleet.warmup_failures();
    let (query_us_0, nbrs_0) = world_replay(&fleet.sim);
    fleet.sim.enable_profiler();
    let probe = fleet.probe.clone().expect("traced fleets carry a probe");
    probe.borrow_mut().reset();
    let obs = fleet.obs.clone().expect("traced fleets carry an obs handle");
    let counters0 = CORE_COUNTERS.map(|c| counter(&obs, c));
    let mut host = HostProbe::new();
    let timed = match timed_phase(&mut fleet, horizon, deadline, Some(&mut host)) {
        Ok(t) => t,
        Err(why) => return failed_report(w, why),
    };
    let slowdown = host.slowdown();
    let (query_us_1, nbrs_1) = world_replay(&fleet.sim);
    if timed.tally != reference.tally {
        failures.push("traced run identity: results differ from the untraced run".to_string());
    }
    let outcome = timed.tally.outcome(w);
    failures.extend(outcome.failures);

    let p = probe.borrow();
    let sim_s = timed.sim_s;
    let per_sim_s = |x: f64| x / sim_s;
    let core_ms = p.core_ns() as f64 / 1e6;
    let run_ms = timed.wall_s * 1e3;
    let report = fleet.sim.profiler().expect("profiler enabled").report();
    let mut delta = CORE_COUNTERS.map(|c| counter(&obs, c));
    for (d, before) in delta.iter_mut().zip(counters0) {
        *d -= before;
    }
    let [enqueued, retries, fallbacks, relayed, deduped, delivered] = delta;
    let wait = obs.histogram("queue.receive.wait_us");
    let wait_pct = |name: &str, q: f64| {
        let n = wait.count() as usize;
        let value = if tail_supported(n, q) { wait.quantile(q) as f64 } else { 0.0 };
        Metric { samples: Some(n), ..Metric::new(name, value, "us") }
    };
    let wire = replay_wire(&p);

    let mut metrics = vec![
        Metric::new("sim.self_ms_per_sim_s", per_sim_s(run_ms - core_ms), "ms/sim-s"),
        layer_pct("sim.step_ms_p50", &timed.step_ms, 0.5, "ms"),
        layer_pct("sim.step_ms_p99", &timed.step_ms, 0.99, "ms"),
    ];
    for phase in ProfPhase::ALL {
        let name = format!("sim.phase.{}_ms_per_sim_s", phase.name().replace('-', "_"));
        metrics.push(Metric::new(
            name,
            per_sim_s(report.phase(phase).total_us as f64 / 1e3),
            "ms/sim-s",
        ));
    }
    metrics.push(Metric::new("sim.serial_fraction", report.serial_fraction, "ratio"));
    for (k, kind) in KINDS.iter().enumerate() {
        metrics.push(Metric::new(
            format!("sim.dispatch.{kind}_per_sim_s"),
            per_sim_s(p.calls[k] as f64),
            "1/sim-s",
        ));
    }
    metrics.push(Metric::new("world.query_us", (query_us_0 + query_us_1) / 2.0, "us"));
    metrics.push(Metric::new("world.neighbors_per_query", (nbrs_0 + nbrs_1) / 2.0, "count"));
    metrics.push(Metric::new("core.self_ms_per_sim_s", per_sim_s(core_ms), "ms/sim-s"));
    for (k, kind) in KINDS.iter().enumerate() {
        let us = ratio(p.ns[k] as f64 / 1e3, p.calls[k] as f64);
        metrics.push(Metric::new(format!("core.us_per.{kind}"), us, "us"));
    }
    let peers_mean = ratio(p.peers.iter().sum::<usize>() as f64, p.peers.len() as f64);
    metrics.extend([
        Metric::new("core.retries_per_send", ratio(retries, enqueued), "ratio"),
        Metric::new("core.fallbacks_per_send", ratio(fallbacks, enqueued), "ratio"),
        Metric::new("core.relay_forwards_per_delivery", ratio(relayed, delivered), "ratio"),
        Metric::new("core.dedup_per_forward", ratio(deduped, relayed), "ratio"),
        wait_pct("core.queue_wait_us_p50", 0.5),
        wait_pct("core.queue_wait_us_p99", 0.99),
        Metric::new("core.peers_mean", peers_mean, "count"),
        Metric::new(
            "core.custody_depth_max",
            obs.gauge("mgr.custody_depth").watermarks().1 as f64,
            "count",
        ),
        Metric::new("wire.decode_ns", wire.decode_ns, "ns"),
        Metric::new("wire.encode_ns", wire.encode_ns, "ns"),
        Metric::new("wire.decode_allocs", wire.decode_allocs, "count"),
        Metric::new("wire.frame_bytes", wire.frame_bytes, "bytes"),
    ]);
    for m in &mut metrics {
        if matches!(m.unit, "ms/sim-s" | "ms" | "us" | "ns") {
            m.value /= slowdown;
        }
    }
    metrics.extend(alloc_metrics(std::slice::from_ref(&timed)));
    let overhead = timed.wall_s / slowdown / reference_wall - 1.0;
    metrics.push(Metric::new("trace.overhead_pct", overhead * 100.0, "%"));

    let totals = [
        ("sim_self_ms", run_ms - core_ms),
        ("core_self_ms", core_ms),
        ("steps", timed.step_ms.len() as f64),
        ("on_event_calls", p.calls.iter().sum::<u64>() as f64),
    ];
    let path = format!("target/omnibench/{}.trace.json", w.name());
    if let Err(e) = std::fs::create_dir_all("target/omnibench")
        .and_then(|()| std::fs::write(&path, p.chrome_json(w.name(), &totals)))
    {
        failures.push(format!("trace file: cannot write {path}: {e}"));
    }
    let (metrics, mut info): (Vec<Metric>, Vec<Metric>) =
        metrics.into_iter().partition(|m| GATED_LAYER.contains(&m.name.as_str()));
    info.extend([
        Metric::new("trace.coverage_pct", 100.0 * timed.wall_s / timed.loop_s, "%"),
        Metric::new("trace.sim_speed", sim_s / timed.wall_s * slowdown, "sim-s/s"),
        Metric { samples: Some(host.slices()), ..Metric::new("host_slowdown", slowdown, "ratio") },
        Metric::new("wire.frames_replayed", wire.frames as f64, "count"),
    ]);
    Report {
        workload: w,
        metrics,
        simulated: outcome.metrics,
        info,
        attempted: outcome.attempted,
        failed: outcome.failed,
        failures,
    }
}
