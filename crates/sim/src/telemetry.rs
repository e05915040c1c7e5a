//! Sim-clock telemetry sampling: periodic snapshots of the metrics registry
//! folded into per-metric [`SeriesRing`] time series, a JSONL stream, and the
//! fleet [`HealthMonitor`].
//!
//! The [`Sampler`] is driven by the runner's event loop (an `Engine::Sample`
//! event every [`SAMPLE_EVERY`]), so sampling is deterministic: the same
//! seed produces byte-identical JSONL.  It is **off by default** — a runner
//! without [`crate::Runner::enable_sampler`] schedules no sampling events
//! and its behavior is untouched.
//!
//! Each tick the sampler:
//!
//! * turns every **counter** into a windowed delta (so
//!   [`omni_obs::Sample::rate_per_sec`] is the windowed rate),
//! * reads every **gauge**'s value and takes its per-window min/max
//!   watermarks ([`omni_obs::Gauge::take_watermarks`]),
//! * snapshots every **quantile digest** and subtracts the previous
//!   snapshot per bucket ([`QuantileDigest::windowed_since`]), so the
//!   reported p50/p99/p999 describe *this window's* tail rather than the
//!   lifetime blend — except wall-clock instruments (`*.wait_us`), which are
//!   excluded to keep the stream sim-deterministic,
//! * derives fleet [`WindowStats`] (delivery ratio, windowed delivery
//!   latency p99, queue high-water, beacon staleness, churn) and feeds the
//!   [`HealthMonitor`].
//!
//! The JSONL stream opens with a single `{"header":true,..}` line carrying
//! the sampling interval, the ring capacity, and the current
//! [`Sampler::resolution_us`] — the coarsest retained window width, which
//! is what bounds how precisely fault spans reconstruct after rings
//! downsample.
//!
//! Synthetic series `sim.nodes_down` and `sim.health` record churn and the
//! health verdict per window, so fault windows can be reconstructed from the
//! series alone with [`SeriesRing::spans_where`].
//!
//! Sampling runs inside the runner's single-threaded event loop
//! (DESIGN.md §5g): `Engine::Sample` events take their place in the same
//! global `(time, seq)` order as everything else, and the counters they
//! read were all incremented in that order — so the JSONL stream is
//! byte-identical across same-seed runs, which `telemetry_determinism.rs`
//! asserts.

use std::collections::{BTreeMap, HashMap};

use omni_obs::{json_str, split_labels, Obs, QuantileDigest, Sample, SeriesRing};

use crate::health::{HealthEvent, HealthMonitor, HealthState, WindowStats};
use crate::time::SimDuration;

/// Sampling interval in sim time.
pub const SAMPLE_EVERY: SimDuration = SimDuration::from_secs(1);
/// Capacity of each per-metric [`SeriesRing`] (downsamples when full).
pub const SERIES_CAPACITY: usize = 256;

/// Whether a metric is a wall-clock instrument that must not leak into the
/// sim-deterministic stream (queue wait spans use `std::time::Instant`).
fn wall_clock(name: &str) -> bool {
    split_labels(name).0.ends_with(".wait_us")
}

/// Periodic sampler: metrics registry → time series + JSONL + health.
///
/// Owned by the runner; one [`Sampler::sample`] call per `Engine::Sample`
/// event.  All state is derived from sim-deterministic inputs.
#[derive(Debug)]
pub struct Sampler {
    series: BTreeMap<String, SeriesRing>,
    prev_counters: HashMap<String, u64>,
    /// Previous full snapshot per quantile digest, so each window's
    /// quantiles come from a true per-bucket delta
    /// ([`QuantileDigest::windowed_since`]) — a windowed p99, not a
    /// lifetime one.
    prev_digests: HashMap<String, QuantileDigest>,
    last_t_us: u64,
    /// End of the last window in which any beacon was transmitted.
    last_beacon_us: Option<u64>,
    seq: u64,
    jsonl: String,
    health: HealthMonitor,
}

impl Sampler {
    /// A sampler starting healthy.
    pub(crate) fn new() -> Self {
        Sampler {
            series: BTreeMap::new(),
            prev_counters: HashMap::new(),
            prev_digests: HashMap::new(),
            last_t_us: 0,
            last_beacon_us: None,
            seq: 0,
            jsonl: String::new(),
            health: HealthMonitor::default(),
        }
    }

    /// Current fleet health verdict.
    pub fn health(&self) -> HealthState {
        self.health.state()
    }

    /// Number of samples taken so far.
    pub fn samples_taken(&self) -> u64 {
        self.seq
    }

    /// The time series recorded for `name` (flattened `base{k=v}` form for
    /// labeled metrics), if any sample has seen it.
    pub fn series(&self, name: &str) -> Option<&SeriesRing> {
        self.series.get(name)
    }

    /// The coarsest retained series resolution in microseconds: the max of
    /// [`SeriesRing::resolution_us`] over every recorded series (0 before
    /// the first sample). Equals the sampling interval until some ring
    /// overflows its capacity and downsamples; consumers reconstructing
    /// fault windows with [`SeriesRing::spans_where`] must treat span
    /// boundaries as accurate only to within this width.
    pub fn resolution_us(&self) -> u64 {
        self.series.values().map(SeriesRing::resolution_us).max().unwrap_or(0)
    }

    /// The JSONL stream accumulated so far: one `{"header":true,..}` line
    /// describing the stream (interval, ring capacity, and the current
    /// [`Sampler::resolution_us`]), then one object per sample window.
    ///
    /// The header is composed at read time because the resolution coarsens
    /// as rings downsample; everything in it is sim-deterministic, so the
    /// full stream stays byte-identical across same-seed runs.
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"header\":true,\"interval_us\":{},\"series_capacity\":{},\"resolution_us\":{}}}\n{}",
            SAMPLE_EVERY.as_micros(),
            SERIES_CAPACITY,
            self.resolution_us(),
            self.jsonl
        )
    }

    /// Writes the JSONL stream (header line included) to a file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl().as_bytes())
    }

    fn push(&mut self, name: &str, s: Sample) {
        self.series
            .entry(name.to_string())
            .or_insert_with(|| SeriesRing::new(SERIES_CAPACITY))
            .push(s);
    }

    /// Takes one sample at sim time `t_us`: folds the registry into the
    /// series and the JSONL stream, feeds the health monitor, and returns
    /// the health transition when the verdict changed.
    pub fn sample(
        &mut self,
        obs: &Obs,
        t_us: u64,
        nodes_down: usize,
        fleet: usize,
    ) -> Option<HealthEvent> {
        let window_us = t_us.saturating_sub(self.last_t_us);
        let read = obs.metrics().read();

        // Counters → windowed deltas.
        let mut counter_lines = String::new();
        let mut delivered = 0u64;
        let mut failed = 0u64;
        let mut beacons_tx = 0u64;
        for (name, v) in &read.counters {
            let prev = self.prev_counters.insert(name.clone(), *v).unwrap_or(0);
            let delta = v.saturating_sub(prev);
            self.push(name, Sample::point(t_us, window_us, delta as f64));
            let (base, _) = split_labels(name);
            match base {
                "mgr.data_delivered" if !name.contains('{') => delivered = delta,
                "mgr.data_failed" => failed = delta,
                "tech.ble-beacon.tx_frames" if delta > 0 => beacons_tx = delta,
                _ => {}
            }
            if !counter_lines.is_empty() {
                counter_lines.push(',');
            }
            counter_lines.push_str(&format!("{}:{}", json_str(name), delta));
        }
        if beacons_tx > 0 {
            self.last_beacon_us = Some(t_us);
        }

        // Gauges → closing value plus per-window watermarks (taking the
        // watermarks resets them, starting the next window).
        let mut gauge_lines = String::new();
        let mut queue_hi = 0i64;
        for (name, g) in obs.metrics().gauges() {
            let (lo, hi) = g.take_watermarks();
            let value = g.get();
            self.push(
                &name,
                Sample {
                    t_us,
                    window_us,
                    count: 1,
                    sum: value as f64,
                    min: lo as f64,
                    max: hi as f64,
                },
            );
            let (base, _) = split_labels(&name);
            if base.starts_with("queue.") && base.ends_with(".depth") {
                queue_hi = queue_hi.max(hi);
            }
            if !gauge_lines.is_empty() {
                gauge_lines.push(',');
            }
            gauge_lines.push_str(&format!(
                "{}:{{\"value\":{},\"lo\":{},\"hi\":{}}}",
                json_str(&name),
                value,
                lo,
                hi
            ));
        }

        // Quantile digests → windowed per-bucket deltas, so the reported
        // quantiles describe *this window's* tail, not the lifetime blend.
        let mut digest_lines = String::new();
        let mut latency_p99_us = 0u64;
        let mut latency_samples = 0u64;
        for (name, d) in obs.metrics().digests() {
            if wall_clock(&name) {
                continue;
            }
            let snap = d.snapshot();
            let windowed = match self.prev_digests.get(&name) {
                Some(prev) => snap.windowed_since(prev),
                None => snap.clone(),
            };
            self.push(
                &name,
                Sample {
                    t_us,
                    window_us,
                    count: windowed.count(),
                    sum: windowed.sum() as f64,
                    min: windowed.min() as f64,
                    max: windowed.max() as f64,
                },
            );
            if name == "mgr.delivery_latency_us" {
                latency_p99_us = windowed.quantile(0.99);
                latency_samples = windowed.count();
            }
            if !digest_lines.is_empty() {
                digest_lines.push(',');
            }
            digest_lines.push_str(&format!(
                "{}:{{\"count\":{},\"p50\":{},\"p99\":{},\"p999\":{}}}",
                json_str(&name),
                windowed.count(),
                windowed.quantile(0.50),
                windowed.quantile(0.99),
                windowed.quantile(0.999)
            ));
            self.prev_digests.insert(name, snap);
        }

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
        let state = self.health.state();

        // Synthetic series: churn and health verdict per window, so fault
        // windows reconstruct from the series alone.
        self.push("sim.nodes_down", Sample::point(t_us, window_us, nodes_down as f64));
        self.push(
            "sim.health",
            Sample::point(
                t_us,
                window_us,
                match state {
                    HealthState::Healthy => 0.0,
                    HealthState::Degraded => 1.0,
                    HealthState::Critical => 2.0,
                },
            ),
        );

        self.jsonl.push_str(&format!(
            "{{\"seq\":{},\"t_us\":{},\"window_us\":{},\"health\":\"{}\",\"nodes_down\":{},\"counters\":{{{}}},\"gauges\":{{{}}},\"digests\":{{{}}}}}\n",
            self.seq,
            t_us,
            window_us,
            state.name(),
            nodes_down,
            counter_lines,
            gauge_lines,
            digest_lines
        ));
        self.seq += 1;
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
        let ring = s.series("x").expect("series");
        let v: Vec<f64> = ring.samples().iter().map(|p| p.sum).collect();
        assert_eq!(v, vec![5.0, 2.0]);
        assert_eq!(ring.total(), 7.0, "series total matches the counter");
        assert_eq!(ring.samples()[1].rate_per_sec(), 2.0);
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
        let ring = s.series("queue.receive.depth").unwrap();
        assert_eq!(ring.samples()[0].max, 9.0);
        assert_eq!(ring.samples()[1].max, 2.0, "watermark reset between windows");
    }

    #[test]
    fn wall_clock_digests_are_excluded() {
        let obs = Obs::new();
        obs.digest("queue.receive.wait_us").record(123);
        obs.digest("mgr.send_latency_us").record(50);
        let mut s = sampler();
        s.sample(&obs, 1_000_000, 0, 10);
        assert!(s.series("queue.receive.wait_us").is_none(), "wall clock excluded");
        assert!(s.series("mgr.send_latency_us").is_some());
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
        // The verdict is also a series: spans_where reconstructs the window.
        let spans = s.series("sim.health").unwrap().spans_where(|p| p.sum >= 2.0);
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
        // The sampler samples every second with no downsampling yet, so the
        // surfaced resolution is the native window width.
        assert_eq!(
            lines[0],
            "{\"header\":true,\"interval_us\":1000000,\"series_capacity\":256,\
             \"resolution_us\":1000000}"
        );
        assert!(lines[1].starts_with("{\"seq\":0,\"t_us\":1000000,"));
        assert!(lines[1].contains("\"nodes_down\":1"));
        assert!(lines[1].contains("\"counters\":{\"x\":1}"));
        assert!(lines[2].contains("\"counters\":{\"x\":0}"));
        assert_eq!(s.samples_taken(), 2);
    }

    #[test]
    fn header_resolution_tracks_downsampling() {
        let obs = Obs::new();
        obs.counter("x").inc();
        let mut s = sampler();
        assert_eq!(s.resolution_us(), 0, "no samples yet");
        for t in 1..=2 * SERIES_CAPACITY as u64 {
            s.sample(&obs, t * 1_000_000, 0, 4);
        }
        // Twice the capacity in windows: the ring merged pairs twice, so
        // spans are only trustworthy to 4s — and the header says so.
        assert_eq!(s.resolution_us(), 4_000_000);
        assert!(s.to_jsonl().starts_with(
            "{\"header\":true,\"interval_us\":1000000,\"series_capacity\":256,\
             \"resolution_us\":4000000}\n"
        ));
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
        let ring = s.series("mgr.delivery_latency_us").expect("series");
        assert_eq!(ring.samples()[1].count, 100, "second window holds only its own samples");
        assert!(
            ring.samples()[1].min >= 2_900_000.0,
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
