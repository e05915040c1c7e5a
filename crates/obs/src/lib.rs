//! Dependency-free observability for the Omni reproduction.
//!
//! `omni-obs` gives every layer of the middleware stack — manager, queues,
//! communication technologies, simulator, bench harness — one shared handle
//! ([`Obs`]) carrying these instruments:
//!
//! * **Metrics** — atomic [`Counter`]s and [`Gauge`]s in a
//!   [`MetricsRegistry`].  Recording is lock-free and allocation-free.
//! * **Quantile digests** — the one percentile instrument: mergeable
//!   log-linear [`QuantileDigest`]s with bounded relative error
//!   ([`RELATIVE_ERROR_BOUND`]) and per-bucket trace exemplars, registered
//!   by name next to the counters and gauges ([`Obs::digest`]).
//! * **Events** — a typed [`EventKind`] stream ([`BeaconSent`], …,
//!   [`HealthTransition`]) in a bounded [`EventRing`] that overwrites the
//!   oldest entry when full and counts the overflow.
//! * **Time series** — a fixed-capacity [`SeriesRing`] of windowed
//!   [`Sample`]s (counter deltas, gauge watermarks, windowed digests) that
//!   downsamples in place when full, plus bounded-cardinality labeled metrics
//!   ([`MetricsRegistry::counter_with`] and friends).
//! * **Profiler** — a [`TickProfiler`] attributing event-loop wall time to
//!   a fixed [`Phase`] taxonomy and counting its scopes and the events it
//!   was offered, with Chrome-trace export ([`chrome_phase_slices`]).
//!
//! Snapshots render as aligned text ([`Snapshot::to_text`]) or hand-rolled
//! JSON ([`Snapshot::to_json`]) — this crate deliberately depends on nothing
//! outside `std`, so it can be dropped into the most constrained target the
//! paper's deployments describe (§5, Raspberry Pi class devices).
//!
//! # Example
//!
//! ```
//! use omni_obs::{EventKind, Obs};
//!
//! let obs = Obs::new();
//! obs.counter("tech.ble-beacon.tx_frames").inc();
//! obs.digest("beacon.interval_us").record(500_000);
//! obs.event(1_000, 0, EventKind::BeaconSent { tech: "ble-beacon", epoch: 0 });
//!
//! let snapshot = obs.snapshot();
//! assert!(snapshot.to_json().contains("\"BeaconSent\""));
//! ```
//!
//! [`BeaconSent`]: EventKind::BeaconSent
//! [`HealthTransition`]: EventKind::HealthTransition

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digest;
mod event;
mod export;
mod metrics;
mod profile;
mod timeseries;

pub use digest::{
    Digest, DigestSummary, QuantileDigest, EXEMPLARS_PER_BUCKET, RELATIVE_ERROR_BOUND, SUBBUCKETS,
};
pub use event::{Event, EventKind, EventRing};
pub use export::{chrome_phase_slices, event_json, json_str, Snapshot};
pub use metrics::{
    labeled_name, split_labels, Counter, Gauge, GaugeRead, MetricsRead, MetricsRegistry,
    MAX_LABEL_SETS,
};
pub use profile::{
    Phase, PhaseReport, PhaseScope, PhaseSlice, PhaseStat, TickProfiler, PHASE_COUNT,
};
pub use timeseries::{Sample, SeriesRing};

use std::sync::Arc;

/// Default number of events retained by an [`Obs`] handle.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

struct ObsInner {
    metrics: MetricsRegistry,
    events: EventRing,
}

/// A cheaply clonable handle bundling a [`MetricsRegistry`] with an
/// [`EventRing`].  All clones observe the same underlying state, so one
/// handle can be threaded through the manager, the queues, every technology,
/// and the simulator, then snapshotted once at the end of a run.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl Obs {
    /// Handle with the [`DEFAULT_EVENT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Handle retaining at most `capacity` events.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Obs {
            inner: Arc::new(ObsInner {
                metrics: MetricsRegistry::new(),
                events: EventRing::new(capacity),
            }),
        }
    }

    /// The underlying metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.metrics.counter(name)
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.metrics.gauge(name)
    }

    /// Get or create the quantile digest named `name` (bounded-error
    /// percentiles with exemplar support — see [`QuantileDigest`]).
    pub fn digest(&self, name: &str) -> Digest {
        self.inner.metrics.digest(name)
    }

    /// The same handle as [`Obs::digest`], under the name the `omnibench`
    /// package reads `queue.receive.wait_us` through.
    pub fn histogram(&self, name: &str) -> Digest {
        self.digest(name)
    }

    /// Get or create the counter `base` sliced by `labels` (bounded
    /// cardinality — see [`MetricsRegistry::counter_with`]).
    pub fn counter_with(&self, base: &str, labels: &[(&str, &str)]) -> Counter {
        self.inner.metrics.counter_with(base, labels)
    }

    /// Get or create the gauge `base` sliced by `labels`.
    pub fn gauge_with(&self, base: &str, labels: &[(&str, &str)]) -> Gauge {
        self.inner.metrics.gauge_with(base, labels)
    }

    /// Get or create the quantile digest `base` sliced by `labels`.
    pub fn digest_with(&self, base: &str, labels: &[(&str, &str)]) -> Digest {
        self.inner.metrics.digest_with(base, labels)
    }

    /// Record a structured event.
    pub fn event(&self, t_us: u64, node: u32, kind: EventKind) {
        self.inner.events.push(Event { t_us, node, kind });
    }

    /// Copy out the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.events.to_vec()
    }

    /// Events overwritten before being snapshotted.
    pub fn events_dropped(&self) -> u64 {
        self.inner.events.overflow()
    }

    /// Point-in-time snapshot of every metric and the event stream.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            metrics: self.inner.metrics.read(),
            events: self.events(),
            events_dropped: self.events_dropped(),
        }
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("events", &self.inner.events.len())
            .field("events_dropped", &self.events_dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = Obs::new();
        let b = a.clone();
        a.counter("x").inc();
        b.counter("x").inc();
        assert_eq!(a.counter("x").get(), 2);
        b.event(1, 0, EventKind::PeerDiscovered { peer: 9 });
        assert_eq!(a.events().len(), 1);
    }

    #[test]
    fn snapshot_is_stable_and_sorted() {
        let obs = Obs::new();
        obs.counter("b").inc();
        obs.counter("a").inc();
        let names: Vec<String> =
            obs.snapshot().metrics.counters.into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a".to_string(), "b".to_string()]);
    }
}
