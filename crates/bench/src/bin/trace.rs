//! omni-trace: causal-timeline analysis over the fleet flight recorder.
//!
//! Two modes:
//!
//! * **default** — runs a 200-node clustered fleet under injected faults
//!   (15% BLE loss, a WiFi partition, an all-media partition, a churn
//!   window), dumps the merged event ring to `target/obs/trace.jsonl`, then
//!   analyses the recorder's per-trace timelines
//!   ([`FlightRecorder::traces`]): hop-by-hop renderings, end-to-end latency
//!   percentiles, the per-technology delivery-path breakdown, and a Chrome
//!   trace-event file (`target/obs/trace.chrome.json`, loadable in Perfetto
//!   or `chrome://tracing`).
//! * **`--smoke`** — a 40-node fleet plus the invariants: every send that
//!   reached a terminal status has a complete timeline, a same-seed rerun
//!   produces a byte-identical JSONL dump, and at least one dropped frame is
//!   attributed to its fault.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use omni_bench::ObsRun;
use omni_core::{OmniBuilder, OmniConfig, OmniStack, RetryPolicy};
use omni_obs::{
    chrome_phase_slices, event_json, Event, EventKind, Obs, PhaseSlice, QuantileDigest,
};
use omni_sim::{
    ChurnWindow, DeviceCaps, FaultScope, FlightRecorder, LinkPartition, Position, Runner,
    SimConfig, SimDuration, SimTime, TraceOutcome, TraceTimeline,
};
use omni_wire::{StatusCode, TechType};

/// Devices per cluster; members sit on a 10 m ring, comfortably inside BLE
/// range of each other and far outside every other cluster's.
const CLUSTER: usize = 8;
/// Messages each cluster's sender submits.
const MSGS: usize = 12;
/// Fleet seed; reruns with the same seed must dump identical bytes.
const SEED: u64 = 11;
/// Sim horizon, long enough for every retry budget to conclude.
const RUN_S: u64 = 45;

// ---------------------------------------------------------------------------
// Fleet run
// ---------------------------------------------------------------------------

/// First terminal status (and its trace ID) per submitted message.
struct FleetStatus {
    statuses: Vec<Option<(StatusCode, u64)>>,
}

/// Terminal statuses collected per in-flight message, shared with callbacks.
type StatusLog = Rc<RefCell<Vec<Vec<(StatusCode, u64)>>>>;

/// Faults for a fleet of `clusters` clusters: a WiFi-scoped partition in
/// cluster 1, an all-media partition in cluster 2, a churn window on cluster
/// 3's receiver, and background BLE frame loss everywhere.
fn fleet_faults(clusters: usize) -> omni_sim::FaultConfig {
    let pair = |c: usize| (c * CLUSTER, c * CLUSTER + 1);
    let mut partitions = Vec::new();
    let mut churn = Vec::new();
    if clusters > 1 {
        let (a, b) = pair(1);
        partitions.push(
            LinkPartition::new(a, b, SimTime::from_secs(4), SimTime::from_secs(8))
                .scoped(FaultScope::Wifi),
        );
    }
    if clusters > 2 {
        let (a, b) = pair(2);
        partitions.push(LinkPartition::new(a, b, SimTime::from_secs(5), SimTime::from_secs(9)));
    }
    if clusters > 3 {
        churn.push(ChurnWindow {
            dev: pair(3).1,
            down_at: SimTime::from_secs(5),
            up_at: SimTime::from_secs(11),
        });
    }
    omni_sim::FaultConfig { ble_loss: 0.15, partitions, churn, ..Default::default() }
}

/// Runs the clustered fleet: each cluster's first device sends [`MSGS`]
/// messages to its second device over WiFi-TCP with BLE failover, reliable
/// retries on.  All nodes share `obs`, so the event ring is the fleet-wide
/// flight record.
fn run_fleet(nodes: usize, obs: &Obs) -> (FleetStatus, Vec<PhaseSlice>) {
    assert_eq!(nodes % CLUSTER, 0, "fleet size must be whole clusters");
    let clusters = nodes / CLUSTER;
    let sim_cfg = SimConfig { seed: SEED, faults: fleet_faults(clusters), ..Default::default() };
    let mut sim = Runner::new(sim_cfg);
    sim.set_obs(obs.clone());
    // Tick-phase profiling with slice retention: the slices land in the
    // Chrome trace next to the per-trace transfer rows. Safe to leave on —
    // DESIGN.md §5j guarantees profiling never changes an artifact, which
    // the smoke rerun below double-checks byte-for-byte.
    sim.enable_profiler();
    sim.profiler_mut().expect("just enabled").set_slice_capacity(1 << 12);

    // Cluster centers on a 150 m grid (outside every radio range), members
    // on a 10 m ring around the center.
    let side = (clusters as f64).sqrt().ceil() as usize;
    let mut devs = Vec::with_capacity(nodes);
    for c in 0..clusters {
        let cx = (c % side) as f64 * 150.0;
        let cy = (c / side) as f64 * 150.0;
        for k in 0..CLUSTER {
            let ang = k as f64 / CLUSTER as f64 * std::f64::consts::TAU;
            let pos = Position::new(cx + 10.0 * ang.cos(), cy + 10.0 * ang.sin());
            devs.push(sim.add_device(DeviceCaps::PI, pos));
        }
    }

    let cfg = OmniConfig {
        data_techs: Some(vec![TechType::WifiTcp, TechType::BleBeacon]),
        retry: RetryPolicy::reliable(),
        ..Default::default()
    };
    let statuses: StatusLog = Rc::new(RefCell::new(vec![Vec::new(); clusters * MSGS]));
    for c in 0..clusters {
        for k in 0..CLUSTER {
            let dev = devs[c * CLUSTER + k];
            let mgr = OmniBuilder::new()
                .with_ble()
                .with_wifi()
                .with_config(cfg.clone())
                .with_obs(obs)
                .build(&sim, dev);
            if k == 0 {
                let dest = OmniBuilder::omni_address(&sim, devs[c * CLUSTER + 1]);
                let st = statuses.clone();
                let base = c * MSGS;
                sim.set_stack(
                    dev,
                    Box::new(OmniStack::new(mgr, move |omni| {
                        let st2 = st.clone();
                        omni.request_timers(Box::new(move |token, o| {
                            let i = base + (token - 1) as usize;
                            let st3 = st2.clone();
                            o.send_data(
                                vec![dest],
                                Bytes::from(vec![(i & 0xff) as u8]),
                                Box::new(move |code, info, _| {
                                    st3.borrow_mut()[i].push((code, info.trace().unwrap_or(0)));
                                }),
                            );
                        }));
                        for m in 0..MSGS {
                            omni.set_timer(
                                (m + 1) as u64,
                                SimDuration::from_secs(3)
                                    + SimDuration::from_millis(400 * m as u64),
                            );
                        }
                    })),
                );
            } else {
                sim.set_stack(
                    dev,
                    Box::new(OmniStack::new(mgr, |omni| {
                        omni.request_data(Box::new(|_, _, _| {}));
                    })),
                );
            }
        }
    }

    sim.run_until(SimTime::from_secs(RUN_S));
    let slices = sim.profiler().expect("enabled above").report().slices;
    let statuses = statuses.borrow().iter().map(|s| s.first().copied()).collect();
    (FleetStatus { statuses }, slices)
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Renders one trace's hop-by-hop timeline for the console, one event per
/// line in its JSONL form, offset from the trace's first event.
fn render_timeline(tl: &TraceTimeline) -> String {
    let t0 = tl.events.first().map_or(0, |e| e.t_us);
    let mut out = format!("trace {:#018x} [{:?}]\n", tl.trace, tl.outcome());
    for e in &tl.events {
        out.push_str(&format!("  +{:>9}us  {}\n", e.t_us - t0, event_json(e)));
    }
    out
}

/// The technology that carried a delivered payload: the last acknowledged
/// send attempt, falling back to the enqueue's selection.
fn delivery_tech(tl: &TraceTimeline) -> &'static str {
    let sent = tl.events.iter().rev().find_map(|e| match e.kind {
        EventKind::DataSent { tech, .. } => Some(tech),
        _ => None,
    });
    let enqueued = || {
        tl.events.iter().find_map(|e| match e.kind {
            EventKind::DataEnqueued { tech, .. } => Some(tech),
            _ => None,
        })
    };
    sent.or_else(enqueued).unwrap_or("unknown")
}

/// Enqueue→deliver latency of a delivered trace, in microseconds.
fn delivery_latency(tl: &TraceTimeline) -> Option<u64> {
    let enq = tl.events.iter().find(|e| matches!(e.kind, EventKind::DataEnqueued { .. }))?;
    let del = tl.events.iter().find(|e| matches!(e.kind, EventKind::DataDelivered { .. }))?;
    Some(del.t_us.saturating_sub(enq.t_us))
}

/// Beacon-sent→peer-discovered latency: for each (discovery epoch, hearing
/// node) pair, the gap between the epoch's first `BeaconSent` and the moment
/// that node first caught one of its beacons.  Scanners in range of the very
/// first pulse report ~0; duty-cycled or lossy paths show up in the tail.
fn discovery_latencies(events: &[Event]) -> Vec<u64> {
    let mut first_sent: BTreeMap<u64, u64> = BTreeMap::new();
    let mut first_heard: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    for e in events {
        let Some(epoch) = e.kind.epoch() else { continue };
        match e.kind {
            EventKind::BeaconSent { .. } => {
                first_sent.entry(epoch).or_insert(e.t_us);
            }
            EventKind::BeaconReceived { .. } => {
                first_heard.entry((epoch, e.node)).or_insert(e.t_us);
            }
            _ => {}
        }
    }
    first_heard
        .iter()
        .filter_map(|(&(epoch, _), &heard)| Some(heard.saturating_sub(*first_sent.get(&epoch)?)))
        .collect()
}

/// Writes the Chrome trace-event file: one `"X"` span per trace, an `"i"`
/// instant per hop carrying the event's fields as args, tick-phase profiler
/// slices on their own thread row, and process metadata.  Loadable in
/// Perfetto and `chrome://tracing`.
fn write_chrome_trace(
    timelines: &[TraceTimeline],
    slices: &[PhaseSlice],
    path: &std::path::Path,
) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\": [\n");
    out.push_str(
        "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 0, \
         \"args\": {\"name\": \"omni fleet flight record\"}}",
    );
    if !slices.is_empty() {
        // Runner tick phases under tid 0; per-trace rows start at tid 1.
        out.push_str(
            ",\n{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": 0, \
             \"args\": {\"name\": \"tick phases\"}}",
        );
        out.push_str(",\n");
        out.push_str(&chrome_phase_slices(slices, 0, 0));
    }
    for (idx, tl) in timelines.iter().enumerate() {
        let tid = idx + 1;
        let start = tl.events.first().map_or(0, |e| e.t_us);
        let end = tl.events.last().map_or(start, |e| e.t_us);
        out.push_str(&format!(
            ",\n{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": {tid}, \
             \"args\": {{\"name\": \"trace {:#018x}\"}}}}",
            tl.trace
        ));
        out.push_str(&format!(
            ",\n{{\"ph\": \"X\", \"name\": \"{:?}\", \"cat\": \"transfer\", \"ts\": {start}, \
             \"dur\": {}, \"pid\": 0, \"tid\": {tid}, \"args\": {{\"trace\": {}, \
             \"events\": {}}}}}",
            tl.outcome(),
            (end - start).max(1),
            tl.trace,
            tl.events.len(),
        ));
        for e in &tl.events {
            out.push_str(&format!(
                ",\n{{\"ph\": \"i\", \"name\": \"{}\", \"ts\": {}, \"pid\": 0, \
                 \"tid\": {tid}, \"s\": \"t\", \"args\": {}}}",
                e.kind.name(),
                e.t_us,
                event_json(e),
            ));
        }
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

/// Prints every report over the recorded run, writes the Chrome trace file,
/// and checks that each send with a terminal status has a complete
/// timeline.
fn analyze(recorder: &FlightRecorder, fleet: &FleetStatus, slices: &[PhaseSlice]) {
    let timelines = recorder.traces();
    let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
    let mut drops: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let mut techs: BTreeMap<&str, usize> = BTreeMap::new();
    for tl in &timelines {
        *outcomes.entry(format!("{:?}", tl.outcome())).or_default() += 1;
        if tl.outcome() == TraceOutcome::Delivered {
            *techs.entry(delivery_tech(tl)).or_default() += 1;
        }
        for &drop in &tl.drops {
            *drops.entry(drop).or_default() += 1;
        }
    }
    assert!(!drops.is_empty(), "faulty fleet must attribute at least one dropped frame");

    println!("events: {}   traces: {}", recorder.events().len(), timelines.len());
    for (outcome, n) in &outcomes {
        println!("  {outcome}: {n}");
    }
    println!("drop attribution (tech, cause -> frames):");
    for ((tech, cause), n) in &drops {
        println!("  {tech} / {cause}: {n}");
    }
    if !techs.is_empty() {
        println!("delivery path by technology:");
        for (tech, n) in &techs {
            println!("  {tech}: {n}");
        }
    }

    // Latency digests: delivery latencies carry their trace IDs as
    // exemplars, so a slow-window percentile links straight back to the
    // hop-by-hop timeline that produced it.
    let mut delivery_digest = QuantileDigest::new();
    for tl in &timelines {
        if let Some(lat) = delivery_latency(tl) {
            delivery_digest.record_with_exemplar(lat, tl.trace);
        }
    }
    let mut discovery_digest = QuantileDigest::new();
    for lat in discovery_latencies(recorder.events()) {
        discovery_digest.record(lat);
    }

    println!(
        "enqueue->deliver latency us (digest): p50={} p90={} p99={} (n={})",
        delivery_digest.quantile(0.50),
        delivery_digest.quantile(0.90),
        delivery_digest.quantile(0.99),
        delivery_digest.count()
    );
    let d = discovery_digest.summary();
    println!(
        "beacon->discovered latency us (digest): p50={} p99={} p999={} (n={})",
        d.p50, d.p99, d.p999, d.count
    );

    // Slow-window exemplar: the digest's p99 bucket retains the traces that
    // landed there; every one must resolve to a complete flight-recorder
    // timeline. Print the first so the slow tail is explained, not just
    // measured.
    let find = |trace: u64| timelines.iter().find(|tl| tl.trace == trace);
    if delivery_digest.count() > 0 {
        let exemplars = delivery_digest.exemplars_at(0.99);
        assert!(!exemplars.is_empty(), "p99 bucket kept no exemplars");
        for &trace in &exemplars {
            let tl =
                find(trace).unwrap_or_else(|| panic!("exemplar trace {trace:#x} has no timeline"));
            assert!(
                tl.is_complete(),
                "exemplar trace {trace:#x} resolves to an incomplete timeline"
            );
        }
        println!(
            "slow-window exemplar (p99={} us, {} trace(s) retained):",
            delivery_digest.quantile(0.99),
            exemplars.len()
        );
        if let Some(tl) = find(exemplars[0]) {
            print!("{}", render_timeline(tl));
        }
    }

    // Exemplar hop-by-hop timelines: one with fault drops, one that
    // exhausted its budget, and the first delivered one.
    let mut shown = Vec::new();
    if let Some(tl) = timelines.iter().find(|tl| !tl.drops.is_empty()) {
        shown.push(tl);
    }
    if let Some(tl) = timelines.iter().find(|tl| tl.outcome() == TraceOutcome::Exhausted) {
        shown.push(tl);
    }
    if let Some(tl) = timelines.iter().find(|tl| tl.outcome() == TraceOutcome::Delivered) {
        if !shown.iter().any(|s| s.trace == tl.trace) {
            shown.push(tl);
        }
    }
    for tl in shown {
        print!("{}", render_timeline(tl));
    }

    let chrome = std::path::Path::new("target").join("obs").join("trace.chrome.json");
    if let Some(parent) = chrome.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match write_chrome_trace(&timelines, slices, &chrome) {
        Ok(()) => println!("chrome trace: {}", chrome.display()),
        Err(e) => eprintln!("chrome trace write failed: {e}"),
    }

    // Completeness contract: every send the application saw conclude must
    // have a complete causal timeline, keyed by the trace ID its status
    // callback carried.
    let concluded: Vec<(StatusCode, u64)> = fleet.statuses.iter().flatten().copied().collect();
    assert!(!concluded.is_empty(), "no send reached a terminal status");
    for (code, trace) in &concluded {
        assert_ne!(*trace, 0, "terminal status {code:?} carries no trace ID");
        let tl =
            find(*trace).unwrap_or_else(|| panic!("no timeline for concluded trace {trace:#x}"));
        assert!(
            tl.is_complete(),
            "incomplete timeline for concluded trace {trace:#x}:\n{}",
            render_timeline(tl)
        );
    }
    println!(
        "completeness: {}/{} terminal-status sends reconstruct fully",
        concluded.len(),
        concluded.len()
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let nodes = if smoke { 40 } else { 200 };
    let obs = ObsRun::with_event_capacity("trace", 1 << 19);
    let (fleet, slices) = run_fleet(nodes, &obs);
    assert_eq!(obs.events_dropped(), 0, "event ring overflowed; raise the capacity");

    let recorder = FlightRecorder::from_obs(&obs);
    let dump = std::path::Path::new("target").join("obs").join("trace.jsonl");
    recorder.write_jsonl(&dump).expect("write jsonl dump");
    println!("fleet: {nodes} nodes, {} clusters   jsonl: {}", nodes / CLUSTER, dump.display());

    if smoke {
        // Determinism: a same-seed rerun must dump identical bytes.
        let jsonl = recorder.to_jsonl();
        let obs2 = Obs::with_event_capacity(1 << 19);
        let _ = run_fleet(nodes, &obs2);
        let jsonl2 = FlightRecorder::from_obs(&obs2).to_jsonl();
        assert_eq!(jsonl, jsonl2, "same-seed reruns must produce byte-identical dumps");
        println!("determinism: rerun dump is byte-identical ({} bytes)", jsonl.len());
    }

    analyze(&recorder, &fleet, &slices);
    println!("trace: ok");
}
