//! Sim-clock telemetry sampling: periodic snapshots of the metrics registry
//! kept as one [`Window`] per sampling interval, rendered as a JSONL stream,
//! and folded into the fleet [`HealthMonitor`].
//!
//! The [`Sampler`] is driven by the runner's event loop (an `Engine::Sample`
//! event every [`SAMPLE_EVERY`]), so sampling is deterministic: the same
//! seed produces byte-identical JSONL.  It is **off by default** — a runner
//! without [`crate::Runner::enable_sampler`] schedules no sampling events
//! and its behavior is untouched.
//!
//! Each tick the sampler pushes one [`Window`]:
//!
//! * every **counter** becomes its delta over the window,
//! * every **gauge** gives its value and its per-window min/max watermarks
//!   ([`omni_obs::Gauge::take_watermarks`]),
//! * every **quantile digest** is snapshotted and the previous snapshot
//!   subtracted per bucket ([`QuantileDigest::windowed_since`]), so the
//!   reported p50/p99/p999 describe *this window's* tail rather than the
//!   lifetime blend — except wall-clock instruments (`*.wait_us`), which are
//!   excluded to keep the stream sim-deterministic,
//! * fleet [`WindowStats`] (delivery ratio, windowed delivery latency p99,
//!   queue high-water, beacon staleness, churn) feed the [`HealthMonitor`],
//!   and the window keeps its verdict and the number of nodes down.
//!
//! The windows are telemetry's one store: [`Sampler::to_jsonl`] renders
//! them, and [`Sampler::spans_where`] reconstructs fault windows from them.
//! The JSONL stream opens with a single `{"header":true,..}` line carrying
//! the sampling interval, then holds one object per window.
//!
//! Sampling runs inside the runner's single-threaded event loop
//! (DESIGN.md §5g): `Engine::Sample` events take their place in the same
//! global `(time, seq)` order as everything else, and the counters they
//! read were all incremented in that order — so the JSONL stream is
//! byte-identical across same-seed runs, which `telemetry_determinism.rs`
//! asserts.

use std::collections::HashMap;

use omni_obs::{json_str, split_labels, DigestSummary, GaugeRead, Obs, QuantileDigest};

use crate::health::{HealthEvent, HealthMonitor, HealthState, WindowStats};
use crate::time::SimDuration;

/// Sampling interval in sim time.
pub const SAMPLE_EVERY: SimDuration = SimDuration::from_secs(1);

/// Whether a metric is a wall-clock instrument that must not leak into the
/// sim-deterministic stream (queue wait spans use `std::time::Instant`).
fn wall_clock(name: &str) -> bool {
    split_labels(name).0.ends_with(".wait_us")
}

/// One sampling window, `(t_us - window_us, t_us]` of sim time: what the
/// registry recorded inside it. Metrics are in the registry's sorted name
/// order.
#[derive(Clone, Debug)]
pub struct Window {
    /// Window end, in microseconds of sim time.
    pub t_us: u64,
    /// Window width in microseconds.
    pub window_us: u64,
    /// The fleet health verdict at the window's end.
    pub health: HealthState,
    /// Devices churned down at the window's end.
    pub nodes_down: usize,
    /// Each counter's delta over the window.
    pub counters: Vec<(String, u64)>,
    /// Each gauge's value at the window's end and its watermarks inside it.
    pub gauges: Vec<(String, GaugeRead)>,
    /// Each sim-clock digest's samples inside the window (wall-clock
    /// `*.wait_us` digests are excluded).
    pub digests: Vec<(String, DigestSummary)>,
}

impl Window {
    /// Start of the window in microseconds (saturating at zero).
    pub fn start_us(&self) -> u64 {
        self.t_us.saturating_sub(self.window_us)
    }

    /// The delta of counter `name` over the window; 0 before the counter
    /// exists.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |&(_, delta)| delta)
    }

    /// The window as one JSON line, numbered `seq`.
    fn to_json(&self, seq: usize) -> String {
        format!(
            "{{\"seq\":{seq},\"t_us\":{},\"window_us\":{},\"health\":\"{}\",\"nodes_down\":{},\"counters\":{{{}}},\"gauges\":{{{}}},\"digests\":{{{}}}}}\n",
            self.t_us,
            self.window_us,
            self.health.name(),
            self.nodes_down,
            json_fields(&self.counters, |delta| delta.to_string()),
            json_fields(&self.gauges, |g| format!(
                "{{\"value\":{},\"lo\":{},\"hi\":{}}}",
                g.value, g.lo, g.hi
            )),
            json_fields(&self.digests, |d| format!(
                "{{\"count\":{},\"p50\":{},\"p99\":{},\"p999\":{}}}",
                d.count, d.p50, d.p99, d.p999
            )),
        )
    }
}

/// `"name":value` pairs, comma-separated, for the body of a JSON object.
fn json_fields<T>(fields: &[(String, T)], value: impl Fn(&T) -> String) -> String {
    let pairs: Vec<String> =
        fields.iter().map(|(name, v)| format!("{}:{}", json_str(name), value(v))).collect();
    pairs.join(",")
}

/// Periodic sampler: metrics registry → one [`Window`] per tick + health.
///
/// Owned by the runner; one [`Sampler::sample`] call per `Engine::Sample`
/// event.  All state is derived from sim-deterministic inputs.
#[derive(Debug)]
pub struct Sampler {
    windows: Vec<Window>,
    prev_counters: HashMap<String, u64>,
    /// Previous full snapshot per quantile digest, so each window's
    /// quantiles come from a true per-bucket delta
    /// ([`QuantileDigest::windowed_since`]) — a windowed p99, not a
    /// lifetime one.
    prev_digests: HashMap<String, QuantileDigest>,
    last_t_us: u64,
    /// End of the last window in which any beacon was transmitted.
    last_beacon_us: Option<u64>,
    health: HealthMonitor,
}

impl Sampler {
    /// A sampler starting healthy.
    pub(crate) fn new() -> Self {
        Sampler {
            windows: Vec::new(),
            prev_counters: HashMap::new(),
            prev_digests: HashMap::new(),
            last_t_us: 0,
            last_beacon_us: None,
            health: HealthMonitor::default(),
        }
    }

    /// Current fleet health verdict.
    pub fn health(&self) -> HealthState {
        self.health.state()
    }

    /// Number of samples taken so far.
    pub fn samples_taken(&self) -> u64 {
        self.windows.len() as u64
    }

    /// Every window sampled so far, oldest first.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// Merges the windows satisfying `pred` into `(start_us, end_us)` spans:
    /// a qualifying window extends the open span when it starts at or before
    /// the span's end. This is the reconstruction primitive: a fault window
    /// injected at `[a, b)` shows up as a span whose bounds match `a` and `b`
    /// to within one sampling interval.
    pub fn spans_where(&self, mut pred: impl FnMut(&Window) -> bool) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for w in self.windows.iter().filter(|w| pred(w)) {
            match out.last_mut() {
                Some((_, end)) if w.start_us() <= *end => *end = (*end).max(w.t_us),
                _ => out.push((w.start_us(), w.t_us)),
            }
        }
        out
    }

    /// The JSONL stream: one `{"header":true,..}` line carrying the sampling
    /// interval, then one object per window.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!("{{\"header\":true,\"interval_us\":{}}}\n", SAMPLE_EVERY.as_micros());
        for (seq, w) in self.windows.iter().enumerate() {
            out.push_str(&w.to_json(seq));
        }
        out
    }

    /// Writes the JSONL stream (header line included) to a file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl().as_bytes())
    }

    /// Takes one sample at sim time `t_us`: pushes the window it closes,
    /// feeds the health monitor, and returns the health transition when the
    /// verdict changed.
    pub fn sample(
        &mut self,
        obs: &Obs,
        t_us: u64,
        nodes_down: usize,
        fleet: usize,
    ) -> Option<HealthEvent> {
        let window_us = t_us.saturating_sub(self.last_t_us);

        // Counters → windowed deltas.
        let mut counters = obs.metrics().counters();
        let mut delivered = 0u64;
        let mut failed = 0u64;
        let mut beaconed = false;
        for (name, v) in &mut counters {
            let prev = self.prev_counters.insert(name.clone(), *v).unwrap_or(0);
            *v = v.saturating_sub(prev);
            match split_labels(name).0 {
                "mgr.data_delivered" if !name.contains('{') => delivered = *v,
                "mgr.data_failed" => failed = *v,
                "tech.ble-beacon.tx_frames" if *v > 0 => beaconed = true,
                _ => {}
            }
        }
        if beaconed {
            self.last_beacon_us = Some(t_us);
        }

        // Gauges → closing value plus per-window watermarks (taking the
        // watermarks resets them, starting the next window).
        let mut queue_hi = 0i64;
        let gauges: Vec<(String, GaugeRead)> = obs
            .metrics()
            .gauges()
            .into_iter()
            .map(|(name, g)| {
                let (lo, hi) = g.take_watermarks();
                let base = split_labels(&name).0;
                if base.starts_with("queue.") && base.ends_with(".depth") {
                    queue_hi = queue_hi.max(hi);
                }
                (name, GaugeRead { value: g.get(), lo, hi })
            })
            .collect();

        // Quantile digests → windowed per-bucket deltas, so the reported
        // quantiles describe *this window's* tail, not the lifetime blend.
        let mut digests = Vec::new();
        for (name, d) in obs.metrics().digests() {
            if wall_clock(&name) {
                continue;
            }
            let snap = d.snapshot();
            let summary = match self.prev_digests.get(&name) {
                Some(prev) => snap.windowed_since(prev).summary(),
                None => snap.summary(),
            };
            self.prev_digests.insert(name.clone(), snap);
            digests.push((name, summary));
        }
        let latency = digests.iter().find(|(name, _)| name == "mgr.delivery_latency_us");
        let (latency_p99_us, latency_samples) = latency.map_or((0, 0), |(_, d)| (d.p99, d.count));

        // Fleet window → health verdict.
        let beacon_stale_us = match self.last_beacon_us {
            Some(t) => t_us.saturating_sub(t),
            // No beacon ever: a fleet that never advertises (or has no BLE)
            // carries no staleness signal.
            None => 0,
        };
        let stats = WindowStats {
            attempted: delivered + failed,
            delivered,
            queue_hi,
            beacon_stale_us,
            nodes_down,
            fleet,
            latency_p99_us,
            latency_samples,
        };
        let transition = self.health.observe(t_us, &stats);

        self.windows.push(Window {
            t_us,
            window_us,
            health: self.health.state(),
            nodes_down,
            counters,
            gauges,
            digests,
        });
        self.last_t_us = t_us;
        transition
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> Sampler {
        Sampler::new()
    }

    #[test]
    fn counters_become_windowed_deltas() {
        let obs = Obs::new();
        let c = obs.counter("x");
        let mut s = sampler();
        c.add(5);
        s.sample(&obs, 1_000_000, 0, 10);
        c.add(2);
        s.sample(&obs, 2_000_000, 0, 10);
        let deltas: Vec<u64> = s.windows().iter().map(|w| w.counter("x")).collect();
        assert_eq!(deltas, vec![5, 2]);
        assert_eq!(deltas.iter().sum::<u64>(), c.get(), "deltas add up to the counter");
        assert_eq!(s.windows()[1].counter("absent"), 0, "an unknown counter reads 0");
    }

    #[test]
    fn gauge_watermarks_are_per_window() {
        let obs = Obs::new();
        let g = obs.gauge("queue.receive.depth");
        let mut s = sampler();
        g.set(9);
        g.set(1);
        s.sample(&obs, 1_000_000, 0, 10);
        // New window: the old high-water mark must not leak in.
        g.set(2);
        s.sample(&obs, 2_000_000, 0, 10);
        let reads: Vec<GaugeRead> = s.windows().iter().map(|w| w.gauges[0].1).collect();
        assert_eq!(reads[0], GaugeRead { value: 1, lo: 0, hi: 9 });
        assert_eq!(reads[1], GaugeRead { value: 2, lo: 1, hi: 2 }, "watermarks reset per window");
    }

    #[test]
    fn wall_clock_digests_are_excluded() {
        let obs = Obs::new();
        obs.digest("queue.receive.wait_us").record(123);
        obs.digest("mgr.send_latency_us").record(50);
        let mut s = sampler();
        s.sample(&obs, 1_000_000, 0, 10);
        let names: Vec<&str> = s.windows()[0].digests.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["mgr.send_latency_us"], "wall clock excluded");
        assert!(!s.to_jsonl().contains("wait_us"));
    }

    #[test]
    fn health_transitions_surface_from_counter_deltas() {
        let obs = Obs::new();
        let delivered = obs.counter("mgr.data_delivered");
        let failed = obs.counter("mgr.data_failed");
        let mut s = sampler();
        delivered.add(20);
        assert!(s.sample(&obs, 1_000_000, 0, 10).is_none(), "healthy window");
        failed.add(30);
        let ev = s.sample(&obs, 2_000_000, 0, 10).expect("collapse");
        assert_eq!((ev.to, ev.cause), (HealthState::Critical, "delivery-ratio"));
        assert_eq!(s.health(), HealthState::Critical);
        // Each window keeps its verdict: spans_where reconstructs the window.
        let spans = s.spans_where(|w| w.health == HealthState::Critical);
        assert_eq!(spans, vec![(1_000_000, 2_000_000)]);
    }

    #[test]
    fn jsonl_is_a_header_then_one_object_per_window() {
        let obs = Obs::new();
        obs.counter("x").inc();
        let mut s = sampler();
        s.sample(&obs, 1_000_000, 1, 4);
        s.sample(&obs, 2_000_000, 0, 4);
        let jsonl = s.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3, "header + one line per window");
        assert_eq!(lines[0], "{\"header\":true,\"interval_us\":1000000}");
        assert!(lines[1].starts_with("{\"seq\":0,\"t_us\":1000000,"));
        assert!(lines[1].contains("\"nodes_down\":1"));
        assert!(lines[1].contains("\"counters\":{\"x\":1}"));
        assert!(lines[2].contains("\"counters\":{\"x\":0}"));
        assert_eq!(s.samples_taken(), 2);
    }

    #[test]
    fn spans_merge_touching_windows_and_split_at_quiet_ones() {
        let obs = Obs::new();
        let c = obs.counter("x");
        let mut s = sampler();
        for (t, delta) in [(1, 1), (2, 3), (3, 0), (4, 2), (5, 2)] {
            c.add(delta);
            s.sample(&obs, t * 1_000_000, 0, 10);
        }
        // (0, 1] and (1, 2] touch, so they merge; the quiet (2, 3] splits
        // them from (3, 5].
        let spans = s.spans_where(|w| w.counter("x") > 0);
        assert_eq!(spans, vec![(0, 2_000_000), (3_000_000, 5_000_000)]);
        assert!(s.spans_where(|w| w.counter("x") > 3).is_empty());
    }

    #[test]
    fn digest_windows_are_per_bucket_deltas_not_lifetime() {
        let obs = Obs::new();
        let d = obs.digest("mgr.delivery_latency_us");
        let mut s = sampler();
        // Window 1: all fast.
        for _ in 0..100 {
            d.record(1_000);
        }
        s.sample(&obs, 1_000_000, 0, 10);
        // Window 2: all slow. A lifetime p99 would still see the fast half;
        // the windowed p99 must not.
        for _ in 0..100 {
            d.record(3_000_000);
        }
        s.sample(&obs, 2_000_000, 0, 10);
        let jsonl = s.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[1].contains("\"digests\":{\"mgr.delivery_latency_us\":{\"count\":100,"));
        let (_, second) = &s.windows()[1].digests[0];
        assert_eq!(second.count, 100, "second window holds only its own samples");
        assert!(
            second.min >= 2_900_000,
            "windowed min excludes the previous window's fast samples"
        );
    }

    #[test]
    fn slow_delivery_tail_degrades_health_via_windowed_p99() {
        let obs = Obs::new();
        let d = obs.digest("mgr.delivery_latency_us");
        let delivered = obs.counter("mgr.data_delivered");
        let mut s = sampler();
        // Healthy window: plenty of fast deliveries.
        delivered.add(100);
        for _ in 0..100 {
            d.record(100_000);
        }
        assert!(s.sample(&obs, 1_000_000, 0, 10).is_none(), "fast tail is healthy");
        // 2% of the next window burns the retry ladder: delivery ratio stays
        // perfect, but the windowed p99 crosses the 2s threshold.
        delivered.add(100);
        for i in 0..100u64 {
            d.record(if i < 2 { 6_000_000 } else { 100_000 });
        }
        let ev = s.sample(&obs, 2_000_000, 0, 10).expect("degrade");
        assert_eq!((ev.to, ev.cause), (HealthState::Degraded, "delivery-latency"));
    }

    #[test]
    fn beacon_staleness_degrades_discovery() {
        let obs = Obs::new();
        let tx = obs.counter("tech.ble-beacon.tx_frames");
        let mut s = sampler();
        tx.inc();
        assert!(s.sample(&obs, 1_000_000, 0, 10).is_none());
        // Six silent seconds: past the 5s default staleness threshold.
        let ev = s.sample(&obs, 7_000_000, 0, 10).expect("stale");
        assert_eq!(ev.cause, "beacon-staleness");
    }
}
