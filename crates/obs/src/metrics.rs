//! Counters and gauges, and the registry that names them together with the
//! quantile digests.
//!
//! Counter and gauge handles are cheap `Arc` clones; every update is a
//! handful of atomic instructions — no locks, no allocation.  The registry
//! lock guards *registration* (name → handle lookup), which callers do once
//! at wiring time and never on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::digest::{Digest, DigestSummary};

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Create a free-standing counter (not attached to a registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct GaugeInner {
    value: std::sync::atomic::AtomicI64,
    /// Lowest value observed since creation (or the last watermark reset).
    lo: std::sync::atomic::AtomicI64,
    /// Highest value observed since creation (or the last watermark reset).
    hi: std::sync::atomic::AtomicI64,
}

impl Default for GaugeInner {
    fn default() -> Self {
        GaugeInner {
            value: std::sync::atomic::AtomicI64::new(0),
            lo: std::sync::atomic::AtomicI64::new(0),
            hi: std::sync::atomic::AtomicI64::new(0),
        }
    }
}

/// A gauge: a value that can move both ways (queue depth, peer-map size).
///
/// Stored as a signed 64-bit integer so transient underflow in concurrent
/// inc/dec sequences cannot wrap.  Every mutation also folds the new value
/// into min/max watermarks ([`Gauge::watermarks`]), so excursions between
/// snapshots — a queue's high-water mark, say — stay observable.  Watermark
/// maintenance is a pair of relaxed atomic min/max ops; under concurrent
/// mutation the watermarks are best-effort (they may briefly lag the value),
/// which is fine for the single-threaded simulator and for monitoring use.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<GaugeInner>);

impl Gauge {
    /// Create a free-standing gauge (not attached to a registry).
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn mark(&self, v: i64) {
        self.0.lo.fetch_min(v, Ordering::Relaxed);
        self.0.hi.fetch_max(v, Ordering::Relaxed);
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.mark(v);
    }

    /// Add `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        let new = self.0.value.fetch_add(d, Ordering::Relaxed) + d;
        self.mark(new);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// The `(lowest, highest)` values observed since creation or the last
    /// [`Gauge::take_watermarks`].
    pub fn watermarks(&self) -> (i64, i64) {
        (self.0.lo.load(Ordering::Relaxed), self.0.hi.load(Ordering::Relaxed))
    }

    /// Returns the current `(lowest, highest)` watermarks and resets both to
    /// the current value, starting a fresh observation window.  The time-
    /// series sampler calls this once per window to turn lifetime watermarks
    /// into per-window ones.
    pub fn take_watermarks(&self) -> (i64, i64) {
        let out = self.watermarks();
        let v = self.get();
        self.0.lo.store(v, Ordering::Relaxed);
        self.0.hi.store(v, Ordering::Relaxed);
        out
    }
}

#[derive(Debug, Default)]
struct Registered {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    digests: Vec<(String, Digest)>,
}

/// Maximum number of distinct label sets a single base metric name may grow.
/// Past the cap, further label sets collapse into one shared
/// `base{overflow=true}` series so unbounded label values (e.g. grid cells in
/// a huge world) cannot blow up registry memory or snapshot size.
pub const MAX_LABEL_SETS: usize = 64;

/// Builds the flattened registry name for a labeled metric:
/// `base{k=v,k2=v2}`, labels sorted by key.  Label keys and values must not
/// contain `{`, `}`, `,`, or `=` (the flattened name must parse back).
pub fn labeled_name(base: &str, labels: &[(&str, &str)]) -> String {
    debug_assert!(
        labels.iter().all(|(k, v)| !"{},=".chars().any(|c| k.contains(c) || v.contains(c))),
        "label keys/values must not contain any of {{ }} , ="
    );
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = String::with_capacity(base.len() + 16);
    out.push_str(base);
    out.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

/// Splits a flattened metric name back into its base and labels.  Unlabeled
/// names return an empty label list.
pub fn split_labels(name: &str) -> (&str, Vec<(&str, &str)>) {
    let Some(open) = name.find('{') else {
        return (name, Vec::new());
    };
    let Some(body) = name[open + 1..].strip_suffix('}') else {
        return (name, Vec::new());
    };
    let labels = body.split(',').filter_map(|kv| kv.split_once('=')).collect();
    (&name[..open], labels)
}

/// A named registry of metrics.
///
/// `counter("x")` returns the *same* underlying counter every time, so
/// distant subsystems can contribute to one metric without sharing handles
/// explicitly.  Registration takes a short uncontended lock and may allocate;
/// the returned handles never do either.
///
/// Labeled variants (`counter_with("sim.cell.tx_frames", &[("cell", "3:0")])`)
/// register under the flattened name `base{k=v,…}` with cardinality bounded
/// by [`MAX_LABEL_SETS`] per base name — callers should cache the returned
/// handle per label set, exactly as for unlabeled metrics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Registered>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves the flattened name for `base` + `labels` among the series
    /// `list` picks out of the registry, collapsing into
    /// `base{overflow=true}` once the base has [`MAX_LABEL_SETS`] distinct
    /// label sets.
    fn labeled<T>(
        &self,
        base: &str,
        labels: &[(&str, &str)],
        list: fn(&Registered) -> &Vec<(String, T)>,
    ) -> String {
        let reg = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let series = list(&reg);
        let name = labeled_name(base, labels);
        let prefix = format!("{base}{{");
        if series.iter().any(|(have, _)| *have == name)
            || series.iter().filter(|(have, _)| have.starts_with(&prefix)).count() < MAX_LABEL_SETS
        {
            name
        } else {
            labeled_name(base, &[("overflow", "true")])
        }
    }

    /// The handle registered under `name` in the series `list` picks out,
    /// created on first use.
    fn get_or_create<T: Clone + Default>(
        &self,
        name: &str,
        list: fn(&mut Registered) -> &mut Vec<(String, T)>,
    ) -> T {
        let mut reg = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let series = list(&mut reg);
        if let Some((_, h)) = series.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = T::default();
        series.push((name.to_string(), h.clone()));
        h
    }

    /// Every handle in the series `list` picks out, sorted by name.
    fn sorted<T: Clone>(&self, list: fn(&Registered) -> &Vec<(String, T)>) -> Vec<(String, T)> {
        let reg = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = list(&reg).clone();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Get or create the counter for `name` sliced by `labels`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.counter(&self.labeled(name, labels, |r| &r.counters))
    }

    /// Get or create the gauge for `name` sliced by `labels`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.gauge(&self.labeled(name, labels, |r| &r.gauges))
    }

    /// Get or create the quantile digest for `name` sliced by `labels`.
    pub fn digest_with(&self, name: &str, labels: &[(&str, &str)]) -> Digest {
        self.digest(&self.labeled(name, labels, |r| &r.digests))
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or_create(name, |r| &mut r.counters)
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get_or_create(name, |r| &mut r.gauges)
    }

    /// Get or create the quantile digest named `name` (log-linear buckets
    /// with bounded relative error and exemplar support; see
    /// [`crate::QuantileDigest`]).
    pub fn digest(&self, name: &str) -> Digest {
        self.get_or_create(name, |r| &mut r.digests)
    }

    /// Shared handle for every registered digest (name → handle), sorted by
    /// name.  The sampler uses this to take windowed snapshots.
    pub fn digests(&self) -> Vec<(String, Digest)> {
        self.sorted(|r| &r.digests)
    }

    /// Shared handle for every registered gauge (name → handle), sorted by
    /// name.  The sampler uses this to take per-window watermarks.
    pub fn gauges(&self) -> Vec<(String, Gauge)> {
        self.sorted(|r| &r.gauges)
    }

    /// Sorted snapshot of every registered metric.
    pub fn read(&self) -> MetricsRead {
        let reg = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut counters: Vec<(String, u64)> =
            reg.counters.iter().map(|(n, c)| (n.clone(), c.get())).collect();
        let mut gauges: Vec<(String, GaugeRead)> = reg
            .gauges
            .iter()
            .map(|(n, g)| {
                let (lo, hi) = g.watermarks();
                (n.clone(), GaugeRead { value: g.get(), lo, hi })
            })
            .collect();
        let mut digests: Vec<(String, DigestSummary)> =
            reg.digests.iter().map(|(n, d)| (n.clone(), d.summary())).collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        digests.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsRead { counters, gauges, digests }
    }
}

/// Point-in-time value and min/max watermarks of one [`Gauge`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeRead {
    /// Current value.
    pub value: i64,
    /// Lowest value observed in the watermark window.
    pub lo: i64,
    /// Highest value observed in the watermark window (e.g. a queue's
    /// high-water mark).
    pub hi: i64,
}

/// Point-in-time values of every metric in a registry, sorted by name.
#[derive(Clone, Debug, Default)]
pub struct MetricsRead {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values with watermarks.
    pub gauges: Vec<(String, GaugeRead)>,
    /// Quantile digest summaries.
    pub digests: Vec<(String, DigestSummary)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("c").get(), 5);

        let g = reg.gauge("g");
        g.set(7);
        g.dec();
        g.add(-2);
        assert_eq!(reg.gauge("g").get(), 4);
    }

    #[test]
    fn registry_dedups_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("a").inc();
        reg.counter("a").inc();
        assert_eq!(reg.counter("a").get(), 2);
        let read = reg.read();
        assert_eq!(read.counters.len(), 1);
    }

    #[test]
    fn gauge_watermarks_track_excursions() {
        let g = Gauge::new();
        g.set(3);
        g.add(4); // 7
        g.add(-9); // -2
        g.set(1);
        assert_eq!(g.get(), 1);
        assert_eq!(g.watermarks(), (-2, 7), "lowest/highest values ever observed");
    }

    #[test]
    fn gauge_take_watermarks_starts_a_fresh_window() {
        let g = Gauge::new();
        g.set(10);
        g.set(2);
        assert_eq!(g.take_watermarks(), (0, 10), "initial window includes the starting zero");
        // New window: watermarks reset to the current value.
        assert_eq!(g.watermarks(), (2, 2));
        g.set(5);
        assert_eq!(g.take_watermarks(), (2, 5));
    }

    #[test]
    fn gauge_watermarks_surface_in_registry_read() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("queue.receive.depth");
        g.set(9);
        g.set(1);
        let read = reg.read();
        assert_eq!(
            read.gauges,
            vec![("queue.receive.depth".to_string(), GaugeRead { value: 1, lo: 0, hi: 9 },)]
        );
    }

    #[test]
    fn labeled_names_flatten_sorted_and_parse_back() {
        let name = labeled_name("tech.tx", &[("tech", "ble-beacon"), ("cell", "3:-2")]);
        assert_eq!(name, "tech.tx{cell=3:-2,tech=ble-beacon}", "labels sort by key");
        let (base, labels) = split_labels(&name);
        assert_eq!(base, "tech.tx");
        assert_eq!(labels, vec![("cell", "3:-2"), ("tech", "ble-beacon")]);
        assert_eq!(split_labels("plain"), ("plain", vec![]));
    }

    #[test]
    fn labeled_metrics_dedup_per_label_set() {
        let reg = MetricsRegistry::new();
        reg.counter_with("tx", &[("tech", "ble")]).inc();
        reg.counter_with("tx", &[("tech", "ble")]).inc();
        reg.counter_with("tx", &[("tech", "nfc")]).inc();
        assert_eq!(reg.counter("tx{tech=ble}").get(), 2);
        assert_eq!(reg.counter("tx{tech=nfc}").get(), 1);
        reg.gauge_with("depth", &[("q", "rx")]).set(4);
        assert_eq!(reg.gauge("depth{q=rx}").get(), 4);
        reg.digest_with("lat", &[("tech", "nfc")]).record(7);
        assert_eq!(reg.digest("lat{tech=nfc}").count(), 1);
    }

    #[test]
    fn labeled_cardinality_is_bounded() {
        let reg = MetricsRegistry::new();
        for i in 0..(MAX_LABEL_SETS + 10) {
            reg.counter_with("cells", &[("cell", &format!("{i}"))]).inc();
        }
        let read = reg.read();
        let series: Vec<&str> = read
            .counters
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.starts_with("cells{"))
            .collect();
        assert_eq!(series.len(), MAX_LABEL_SETS + 1, "cap plus one overflow series");
        let (_, overflow) = read
            .counters
            .iter()
            .find(|(n, _)| n == "cells{overflow=true}")
            .expect("overflow series exists");
        assert_eq!(*overflow, 10, "past the cap every new label set shares one series");
        // Pre-existing label sets keep resolving to their own series.
        reg.counter_with("cells", &[("cell", "0")]).inc();
        assert_eq!(reg.counter("cells{cell=0}").get(), 2);
    }
}
