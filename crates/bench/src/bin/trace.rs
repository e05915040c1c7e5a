//! omni-trace: causal-timeline analysis over the fleet flight recorder.
//!
//! Three modes:
//!
//! * **default** — runs a 200-node clustered fleet under injected faults
//!   (15% BLE loss, a WiFi partition, an all-media partition, a churn
//!   window), dumps the merged event ring to `target/obs/trace.jsonl`, then
//!   reconstructs per-trace hop-by-hop timelines, end-to-end latency
//!   percentiles, the per-technology delivery-path breakdown, and a Chrome
//!   trace-event file (`target/obs/trace.chrome.json`, loadable in Perfetto
//!   or `chrome://tracing`).
//! * **`--smoke`** — a 40-node fleet plus the invariants: every send that
//!   reached a terminal status reconstructs into a complete, gap-free
//!   timeline, and a same-seed rerun produces a byte-identical JSONL dump.
//! * **`omni-trace <dump.jsonl>`** — skips the simulation and analyses a
//!   previously written dump.
//!
//! The JSONL parser is hand-rolled (flat objects, string/integer values
//! only) so the analyzer stays dependency-free.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use omni_bench::ObsRun;
use omni_core::{OmniBuilder, OmniConfig, OmniStack, RetryPolicy};
use omni_obs::{chrome_phase_slices, Obs, PhaseSlice, QuantileDigest};
use omni_sim::{
    ChurnWindow, DeviceCaps, FaultScope, FlightRecorder, LinkPartition, Position, Runner,
    SimConfig, SimDuration, SimTime,
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
// JSONL ingest (hand-rolled flat-object parser)
// ---------------------------------------------------------------------------

/// One flight-recorder line, decoded.  Unknown keys are skipped so the
/// parser tolerates schema growth.
#[derive(Clone, Debug, Default)]
struct RawEvent {
    seq: u64,
    t_us: u64,
    node: u64,
    kind: String,
    tech: Option<String>,
    to_tech: Option<String>,
    cause: Option<String>,
    attempt: Option<u64>,
    trace: u64,
    epoch: u64,
}

struct Cursor<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self.s.get(self.i).is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        self.skip_ws();
        match self.s.get(self.i) {
            Some(&b) if b == want => {
                self.i += 1;
                Ok(())
            }
            got => Err(format!("expected {:?} at byte {}, got {got:?}", want as char, self.i)),
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.i).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.s.get(self.i).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex =
                                self.s.get(self.i + 1..self.i + 5).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(b) => {
                    // Multi-byte UTF-8 runs pass through untouched.
                    let len = match b {
                        _ if b < 0x80 => 1,
                        _ if b >= 0xF0 => 4,
                        _ if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    let chunk =
                        self.s.get(self.i..self.i + len).ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.i += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.i;
        while self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("expected a number at byte {start}"));
        }
        std::str::from_utf8(&self.s[start..self.i])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())
    }
}

/// Parses one flight-recorder line.
fn parse_line(line: &str) -> Result<RawEvent, String> {
    let mut c = Cursor { s: line.as_bytes(), i: 0 };
    let mut ev = RawEvent::default();
    c.eat(b'{')?;
    loop {
        let key = c.string()?;
        c.eat(b':')?;
        if c.peek() == Some(b'"') {
            let val = c.string()?;
            match key.as_str() {
                "kind" => ev.kind = val,
                "tech" | "from_tech" | "queue" => ev.tech = Some(val),
                "to_tech" => ev.to_tech = Some(val),
                "cause" => ev.cause = Some(val),
                _ => {}
            }
        } else {
            let val = c.number()?;
            match key.as_str() {
                "seq" => ev.seq = val,
                "t_us" => ev.t_us = val,
                "node" => ev.node = val,
                "attempt" => ev.attempt = Some(val),
                "trace" => ev.trace = val,
                "epoch" => ev.epoch = val,
                _ => {}
            }
        }
        match c.peek() {
            Some(b',') => c.eat(b',')?,
            Some(b'}') => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    Ok(ev)
}

/// Parses a whole dump, asserting the `seq` column is gap-free.
fn parse_jsonl(text: &str) -> Vec<RawEvent> {
    let events: Vec<RawEvent> = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            parse_line(line).unwrap_or_else(|e| panic!("jsonl line {}: {e}: {line}", i + 1))
        })
        .collect();
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64, "seq column must be gap-free");
    }
    events
}

// ---------------------------------------------------------------------------
// Timeline reconstruction
// ---------------------------------------------------------------------------

/// All events sharing one trace ID, in dump (causal) order.
struct Timeline<'a> {
    trace: u64,
    events: Vec<&'a RawEvent>,
}

impl Timeline<'_> {
    fn outcome(&self) -> &'static str {
        let mut exhausted = false;
        let mut failed = false;
        for e in &self.events {
            match e.kind.as_str() {
                "DataDelivered" => return "delivered",
                "SendExhausted" => exhausted = true,
                "DataFailed" => failed = true,
                _ => {}
            }
        }
        match (exhausted, failed) {
            (true, _) => "exhausted",
            (false, true) => "failed",
            (false, false) => "in-flight",
        }
    }

    /// Mirrors [`omni_sim::TraceTimeline::is_complete`]: a terminal outcome
    /// whose story starts at the enqueue (or at the terminal event itself
    /// for sends rejected before queuing).
    fn is_complete(&self) -> bool {
        if self.outcome() == "in-flight" {
            return false;
        }
        matches!(
            self.events.first().map(|e| e.kind.as_str()),
            Some("DataEnqueued" | "DataFailed" | "SendExhausted")
        )
    }

    /// Label of the technology that carried the delivered payload: the last
    /// acknowledged send attempt, falling back to the enqueue's selection.
    fn delivery_tech(&self) -> &str {
        let last_sent = self
            .events
            .iter()
            .rev()
            .find(|e| e.kind == "DataSent")
            .or_else(|| self.events.iter().find(|e| e.kind == "DataEnqueued"));
        last_sent.and_then(|e| e.tech.as_deref()).unwrap_or("unknown")
    }
}

/// Groups events by trace ID, ordered by first appearance.
fn build_timelines(events: &[RawEvent]) -> Vec<Timeline<'_>> {
    let mut order: Vec<u64> = Vec::new();
    let mut by_trace: BTreeMap<u64, Vec<&RawEvent>> = BTreeMap::new();
    for e in events {
        if e.trace == 0 {
            continue;
        }
        let slot = by_trace.entry(e.trace).or_default();
        if slot.is_empty() {
            order.push(e.trace);
        }
        slot.push(e);
    }
    order
        .into_iter()
        .map(|trace| Timeline { trace, events: by_trace.remove(&trace).expect("grouped above") })
        .collect()
}

/// Renders one trace's hop-by-hop timeline for the console.
fn render_timeline(tl: &Timeline<'_>) -> String {
    let t0 = tl.events.first().map_or(0, |e| e.t_us);
    let mut out = format!("trace {:#018x} [{}]\n", tl.trace, tl.outcome());
    for e in &tl.events {
        let mut detail = String::new();
        if let Some(tech) = &e.tech {
            detail.push_str(&format!(" tech={tech}"));
        }
        if let Some(to) = &e.to_tech {
            detail.push_str(&format!(" ->{to}"));
        }
        if let Some(cause) = &e.cause {
            detail.push_str(&format!(" cause={cause}"));
        }
        if let Some(a) = e.attempt {
            detail.push_str(&format!(" attempt={a}"));
        }
        out.push_str(&format!(
            "  +{:>9}us  node {:>3}  {}{}\n",
            e.t_us - t0,
            e.node,
            e.kind,
            detail
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// `p50/p90/p99` over an unsorted sample set, nearest-rank.
fn percentiles(samples: &mut [u64]) -> (u64, u64, u64) {
    if samples.is_empty() {
        return (0, 0, 0);
    }
    samples.sort_unstable();
    let at = |q: f64| samples[((q * (samples.len() - 1) as f64).round()) as usize];
    (at(0.50), at(0.90), at(0.99))
}

/// Enqueue→deliver latency per delivered trace, in microseconds, keyed by
/// trace ID so the latency digest can retain the slow traces as exemplars.
fn delivery_latencies(timelines: &[Timeline<'_>]) -> Vec<(u64, u64)> {
    timelines
        .iter()
        .filter_map(|tl| {
            let enq = tl.events.iter().find(|e| e.kind == "DataEnqueued")?.t_us;
            let del = tl.events.iter().find(|e| e.kind == "DataDelivered")?.t_us;
            Some((tl.trace, del.saturating_sub(enq)))
        })
        .collect()
}

/// Beacon-sent→peer-discovered latency: for each (discovery epoch, hearing
/// node) pair, the gap between the epoch's first `BeaconSent` and the moment
/// that node first caught one of its beacons.  Scanners in range of the very
/// first pulse report ~0; duty-cycled or lossy paths show up in the tail.
fn discovery_latencies(events: &[RawEvent]) -> Vec<u64> {
    let mut first_sent: BTreeMap<u64, u64> = BTreeMap::new();
    let mut first_heard: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for e in events {
        if e.epoch == 0 {
            continue;
        }
        match e.kind.as_str() {
            "BeaconSent" => {
                first_sent.entry(e.epoch).or_insert(e.t_us);
            }
            "BeaconReceived" => {
                first_heard.entry((e.epoch, e.node)).or_insert(e.t_us);
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
/// instant per hop, tick-phase profiler slices on their own thread row, and
/// process metadata.  Loadable in Perfetto and `chrome://tracing`.
fn write_chrome_trace(
    timelines: &[Timeline<'_>],
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
            ",\n{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"transfer\", \"ts\": {start}, \
             \"dur\": {}, \"pid\": 0, \"tid\": {tid}, \"args\": {{\"trace\": {}, \
             \"events\": {}}}}}",
            tl.outcome(),
            (end - start).max(1),
            tl.trace,
            tl.events.len(),
        ));
        for e in &tl.events {
            let mut name = e.kind.clone();
            if let Some(tech) = &e.tech {
                name.push_str(&format!(" {tech}"));
            }
            if let Some(cause) = &e.cause {
                name.push_str(&format!(" ({cause})"));
            }
            out.push_str(&format!(
                ",\n{{\"ph\": \"i\", \"name\": \"{name}\", \"ts\": {}, \"pid\": 0, \
                 \"tid\": {tid}, \"s\": \"t\"}}",
                e.t_us,
            ));
        }
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

/// Prints every report over a parsed dump and writes the Chrome trace file.
/// When fleet statuses are available, cross-checks that each send with a
/// terminal status reconstructs into a complete timeline.
fn analyze(events: &[RawEvent], statuses: Option<&FleetStatus>, slices: &[PhaseSlice]) {
    let timelines = build_timelines(events);
    let mut outcomes: BTreeMap<&str, usize> = BTreeMap::new();
    let mut drops: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut techs: BTreeMap<String, usize> = BTreeMap::new();
    for tl in &timelines {
        *outcomes.entry(tl.outcome()).or_default() += 1;
        if tl.outcome() == "delivered" {
            *techs.entry(tl.delivery_tech().to_string()).or_default() += 1;
        }
        for e in &tl.events {
            if e.kind == "FrameDropped" {
                let tech = e.tech.clone().unwrap_or_default();
                let cause = e.cause.clone().unwrap_or_default();
                *drops.entry((tech, cause)).or_default() += 1;
            }
        }
    }

    println!("events: {}   traces: {}", events.len(), timelines.len());
    for (outcome, n) in &outcomes {
        println!("  {outcome}: {n}");
    }
    if !drops.is_empty() {
        println!("drop attribution (tech, cause -> frames):");
        for ((tech, cause), n) in &drops {
            println!("  {tech} / {cause}: {n}");
        }
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
    let pairs = delivery_latencies(&timelines);
    let mut delivery_digest = QuantileDigest::new();
    for (trace, lat) in &pairs {
        delivery_digest.record_with_exemplar(*lat, *trace);
    }
    let mut discovery_digest = QuantileDigest::new();
    for lat in discovery_latencies(events) {
        discovery_digest.record(lat);
    }

    let (p50, p90, p99) = percentiles(&mut pairs.iter().map(|(_, l)| *l).collect::<Vec<_>>());
    println!("enqueue->deliver latency us: p50={p50} p90={p90} p99={p99}");
    let d = discovery_digest.summary();
    println!(
        "beacon->discovered latency us (digest): p50={} p99={} p999={} (n={})",
        d.p50, d.p99, d.p999, d.count
    );

    // Slow-window exemplar: the digest's p99 bucket retains the traces that
    // landed there; every one must resolve to a complete flight-recorder
    // timeline. Print the first so the slow tail is explained, not just
    // measured.
    if delivery_digest.count() > 0 {
        let exemplars = delivery_digest.exemplars_at(0.99);
        assert!(!exemplars.is_empty(), "p99 bucket kept no exemplars");
        for trace in &exemplars {
            let tl = timelines
                .iter()
                .find(|tl| tl.trace == *trace)
                .unwrap_or_else(|| panic!("exemplar trace {trace:#x} has no timeline"));
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
        if let Some(tl) = timelines.iter().find(|tl| tl.trace == exemplars[0]) {
            print!("{}", render_timeline(tl));
        }
    }

    // Exemplar hop-by-hop timelines: one with fault drops, one that
    // exhausted its budget, and the first delivered one.
    let mut shown = Vec::new();
    if let Some(tl) = timelines.iter().find(|tl| tl.events.iter().any(|e| e.kind == "FrameDropped"))
    {
        shown.push(tl);
    }
    if let Some(tl) = timelines.iter().find(|tl| tl.outcome() == "exhausted") {
        shown.push(tl);
    }
    if let Some(tl) = timelines.iter().find(|tl| tl.outcome() == "delivered") {
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
    // reconstruct into a complete causal timeline, keyed by the trace ID its
    // status callback carried.
    if let Some(fleet) = statuses {
        let concluded: Vec<(StatusCode, u64)> = fleet.statuses.iter().flatten().copied().collect();
        assert!(!concluded.is_empty(), "no send reached a terminal status");
        for (code, trace) in &concluded {
            assert_ne!(*trace, 0, "terminal status {code:?} carries no trace ID");
            let tl = timelines
                .iter()
                .find(|tl| tl.trace == *trace)
                .unwrap_or_else(|| panic!("no timeline for concluded trace {trace:#x}"));
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
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");

    // Ingest mode: analyse an existing dump, no simulation.
    if let Some(path) = args.iter().find(|a| a.ends_with(".jsonl")) {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        analyze(&parse_jsonl(&text), None, &[]);
        println!("trace: ok");
        return;
    }

    let nodes = if smoke { 40 } else { 200 };
    let obs = ObsRun::with_event_capacity("trace", 1 << 19);
    let (fleet, slices) = run_fleet(nodes, &obs);
    assert_eq!(obs.events_dropped(), 0, "event ring overflowed; raise the capacity");

    let recorder = FlightRecorder::from_obs(&obs);
    let jsonl = recorder.to_jsonl();
    let dump = std::path::Path::new("target").join("obs").join("trace.jsonl");
    recorder.write_jsonl(&dump).expect("write jsonl dump");
    println!("fleet: {nodes} nodes, {} clusters   jsonl: {}", nodes / CLUSTER, dump.display());

    if smoke {
        // Determinism: a same-seed rerun must dump identical bytes.
        let obs2 = Obs::with_event_capacity(1 << 19);
        let _ = run_fleet(nodes, &obs2);
        let jsonl2 = FlightRecorder::from_obs(&obs2).to_jsonl();
        assert_eq!(jsonl, jsonl2, "same-seed reruns must produce byte-identical dumps");
        println!("determinism: rerun dump is byte-identical ({} bytes)", jsonl.len());
    }

    // Analyse through the same JSONL path the ingest mode uses, so the dump
    // format itself is exercised on every run.
    let events = parse_jsonl(&jsonl);
    assert!(
        events.iter().any(|e| e.kind == "FrameDropped"),
        "faulty fleet must attribute at least one dropped frame"
    );
    analyze(&events, Some(&fleet), &slices);
    println!("trace: ok");
}
