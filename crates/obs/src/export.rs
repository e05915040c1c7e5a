//! Snapshot exporters: plain text for terminals, JSON for tooling.
//!
//! JSON is emitted by hand — the whole point of `omni-obs` is to add zero
//! external dependencies — against the schema documented in `DESIGN.md`:
//!
//! ```json
//! {
//!   "counters": {"tech.ble-beacon.tx_frames": 12},
//!   "gauges": {"queue.receive.depth": 0},
//!   "digests": {"mgr.delivery_latency_us": {"count": 7, "sum": 3500, "min": 400,
//!     "max": 900, "p50": 500, "p99": 900, "p999": 900}},
//!   "events_dropped": 0,
//!   "events": [{"t_us": 1000, "node": 0, "kind": "BeaconSent", "tech": "ble-beacon"}]
//! }
//! ```
//!
//! The profiler's one export is its phase slices as Chrome-trace `"X"`
//! events ([`chrome_phase_slices`]), which the trace bench splices into its
//! Perfetto export.

use crate::event::{Event, EventKind};
use crate::metrics::MetricsRead;
use crate::profile::PhaseSlice;
use std::fmt::Write as _;

/// A complete point-in-time view of an [`Obs`](crate::Obs) handle: every
/// metric plus the retained event stream.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Metric values, sorted by name.
    pub metrics: MetricsRead,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events overwritten before this snapshot was taken.
    pub events_dropped: u64,
}

impl Snapshot {
    /// Render as an aligned text block suitable for appending to bench
    /// reports.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== metrics ==\n");
        if self.metrics.counters.is_empty()
            && self.metrics.gauges.is_empty()
            && self.metrics.digests.is_empty()
        {
            out.push_str("(none)\n");
        }
        let width = self
            .metrics
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.metrics.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.metrics.digests.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        for (name, v) in &self.metrics.counters {
            let _ = writeln!(out, "{name:<width$}  {v}");
        }
        for (name, g) in &self.metrics.gauges {
            let _ = writeln!(out, "{name:<width$}  {} (lo={} hi={})", g.value, g.lo, g.hi);
        }
        for (name, d) in &self.metrics.digests {
            let _ = writeln!(
                out,
                "{name:<width$}  n={} min={} p50={} p99={} p999={} max={}",
                d.count, d.min, d.p50, d.p99, d.p999, d.max
            );
        }
        let _ = writeln!(
            out,
            "== events == {} retained, {} dropped",
            self.events.len(),
            self.events_dropped
        );
        out
    }

    /// Render as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.metrics.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {v}", json_str(name));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, g)) in self.metrics.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {}: {{\"value\": {}, \"lo\": {}, \"hi\": {}}}",
                json_str(name),
                g.value,
                g.lo,
                g.hi
            );
        }
        out.push_str("\n  },\n  \"digests\": {");
        for (i, (name, d)) in self.metrics.digests.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p99\": {}, \"p999\": {}}}",
                json_str(name),
                d.count,
                d.sum,
                d.min,
                d.max,
                d.p50,
                d.p99,
                d.p999
            );
        }
        let _ =
            write!(out, "\n  }},\n  \"events_dropped\": {},\n  \"events\": [", self.events_dropped);
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&event_json(e));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Encode one event as a flat JSON object.
pub fn event_json(e: &Event) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"t_us\": {}, \"node\": {}, \"kind\": {}",
        e.t_us,
        e.node,
        json_str(e.kind.name())
    );
    match e.kind {
        EventKind::TechEngaged { tech } | EventKind::TechDisengaged { tech } => {
            let _ = write!(out, ", \"tech\": {}", json_str(tech));
        }
        EventKind::BeaconSent { tech, epoch } => {
            let _ = write!(out, ", \"tech\": {}, \"epoch\": {epoch}", json_str(tech));
        }
        EventKind::BeaconReceived { tech, peer, epoch } => {
            let _ =
                write!(out, ", \"tech\": {}, \"peer\": {peer}, \"epoch\": {epoch}", json_str(tech));
        }
        EventKind::PeerDiscovered { peer }
        | EventKind::PeerExpired { peer }
        | EventKind::AuthRejected { peer } => {
            let _ = write!(out, ", \"peer\": {peer}");
        }
        EventKind::DataEnqueued { tech, bytes, trace }
        | EventKind::DataSent { tech, bytes, trace } => {
            let _ = write!(
                out,
                ", \"tech\": {}, \"bytes\": {bytes}, \"trace\": {trace}",
                json_str(tech)
            );
        }
        EventKind::DataDelivered { peer, bytes, trace } => {
            let _ = write!(out, ", \"peer\": {peer}, \"bytes\": {bytes}, \"trace\": {trace}");
        }
        EventKind::DataFailed { tech, trace } => {
            let _ = write!(out, ", \"tech\": {}, \"trace\": {trace}", json_str(tech));
        }
        EventKind::BeaconIntervalChanged { from_us, to_us } => {
            let _ = write!(out, ", \"from_us\": {from_us}, \"to_us\": {to_us}");
        }
        EventKind::ContextUpdated { id } => {
            let _ = write!(out, ", \"id\": {id}");
        }
        EventKind::DataRetried { tech, attempt, trace } => {
            let _ = write!(
                out,
                ", \"tech\": {}, \"attempt\": {attempt}, \"trace\": {trace}",
                json_str(tech)
            );
        }
        EventKind::DataFailedOver { from_tech, to_tech, trace } => {
            let _ = write!(
                out,
                ", \"from_tech\": {}, \"to_tech\": {}, \"trace\": {trace}",
                json_str(from_tech),
                json_str(to_tech)
            );
        }
        EventKind::SendExhausted { peer, trace } => {
            let _ = write!(out, ", \"peer\": {peer}, \"trace\": {trace}");
        }
        EventKind::FrameDropped { tech, cause, trace } => {
            let _ = write!(
                out,
                ", \"tech\": {}, \"cause\": {}, \"trace\": {trace}",
                json_str(tech),
                json_str(cause)
            );
        }
        EventKind::DataRelayed { tech, peer, hops, trace } => {
            let _ = write!(
                out,
                ", \"tech\": {}, \"peer\": {peer}, \"hops\": {hops}, \"trace\": {trace}",
                json_str(tech)
            );
        }
        EventKind::DataCustody { peer, ttl, trace } => {
            let _ = write!(out, ", \"peer\": {peer}, \"ttl\": {ttl}, \"trace\": {trace}");
        }
        EventKind::DataDeduped { peer, trace } => {
            let _ = write!(out, ", \"peer\": {peer}, \"trace\": {trace}");
        }
        EventKind::TtlExpired { peer, hops, trace } => {
            let _ = write!(out, ", \"peer\": {peer}, \"hops\": {hops}, \"trace\": {trace}");
        }
        EventKind::LinkPartitioned { a, b } => {
            let _ = write!(out, ", \"a\": {a}, \"b\": {b}");
        }
        EventKind::NodeDown { node } => {
            let _ = write!(out, ", \"node\": {node}");
        }
        EventKind::HealthTransition { from, to, cause } => {
            let _ = write!(
                out,
                ", \"from\": {}, \"to\": {}, \"cause\": {}",
                json_str(from),
                json_str(to),
                json_str(cause)
            );
        }
    }
    out.push('}');
    out
}

/// Encode profiler [`PhaseSlice`]s as Chrome-trace `"X"` (complete) events
/// under the given `pid`/`tid`, returned as comma-joined JSON objects with
/// **no** surrounding brackets so callers can splice them into an existing
/// `traceEvents` array.
pub fn chrome_phase_slices(slices: &[PhaseSlice], pid: u64, tid: u64) -> String {
    let mut out = String::new();
    for (i, s) in slices.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{pid},\"tid\":{tid}}}",
            json_str(s.phase.name()),
            s.start_us,
            s.dur_us
        );
    }
    out
}

/// Quote and escape a string for JSON: quotes, backslashes and every
/// control character.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn text_and_json_cover_all_metric_kinds() {
        let obs = Obs::new();
        obs.counter("tech.ble-beacon.tx_frames").add(3);
        obs.gauge("queue.receive.depth").set(2);
        obs.digest("mgr.delivery_latency_us").record(12_000);
        obs.event(1_000, 0, EventKind::BeaconSent { tech: "ble-beacon", epoch: 0 });
        let snap = obs.snapshot();

        let text = snap.to_text();
        assert!(text.contains("tech.ble-beacon.tx_frames"));
        assert!(text.contains("queue.receive.depth"));
        assert!(text.contains("p99="));
        assert!(text.contains("1 retained, 0 dropped"));

        let json = snap.to_json();
        assert!(json.contains("\"tech.ble-beacon.tx_frames\": 3"));
        assert!(json.contains("\"queue.receive.depth\": {\"value\": 2, \"lo\": 0, \"hi\": 2}"));
        assert!(json.contains("\"kind\": \"BeaconSent\""));
        assert!(json.contains("\"events_dropped\": 0"));
    }

    #[test]
    fn overflowed_ring_surfaces_the_drop_count_in_both_exports() {
        // Regression: the overflow counter must be rendered, not just kept.
        let obs = Obs::with_event_capacity(4);
        for t in 0..10 {
            obs.event(t, 0, EventKind::PeerDiscovered { peer: t });
        }
        let snap = obs.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.events_dropped, 6);
        assert!(snap.to_text().contains("4 retained, 6 dropped"));
        assert!(snap.to_json().contains("\"events_dropped\": 6"));
    }

    #[test]
    fn gauge_watermarks_render_in_both_exports() {
        let obs = Obs::new();
        let g = obs.gauge("queue.send.depth");
        g.set(7);
        g.set(1);
        let snap = obs.snapshot();
        assert!(snap.to_text().contains("queue.send.depth"));
        assert!(snap.to_text().contains("1 (lo=0 hi=7)"));
        assert!(snap
            .to_json()
            .contains("\"queue.send.depth\": {\"value\": 1, \"lo\": 0, \"hi\": 7}"));
    }

    #[test]
    fn health_transition_event_renders_all_fields() {
        let e = Event {
            t_us: 9,
            node: u32::MAX,
            kind: EventKind::HealthTransition {
                from: "healthy",
                to: "degraded",
                cause: "delivery-ratio",
            },
        };
        let j = event_json(&e);
        assert!(j.contains("\"kind\": \"HealthTransition\""));
        assert!(j.contains("\"from\": \"healthy\""));
        assert!(j.contains("\"to\": \"degraded\""));
        assert!(j.contains("\"cause\": \"delivery-ratio\""));
    }

    #[test]
    fn json_escapes_names() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn json_escapes_every_control_character() {
        // Named escapes for the common three, \u00XX for the rest of C0.
        assert_eq!(json_str("\n"), "\"\\n\"");
        assert_eq!(json_str("\r"), "\"\\r\"");
        assert_eq!(json_str("\t"), "\"\\t\"");
        for c in (0u32..0x20).filter_map(char::from_u32) {
            let escaped = json_str(&c.to_string());
            assert!(escaped.starts_with('"') && escaped.ends_with('"'), "{c:?} must stay quoted");
            let inner = &escaped[1..escaped.len() - 1];
            assert!(inner.starts_with('\\'), "control char {c:?} must be escaped, got {inner:?}");
            assert!(
                inner.chars().all(|c| (c as u32) >= 0x20),
                "no raw control bytes may survive escaping: {inner:?}"
            );
        }
    }

    #[test]
    fn json_escaping_is_parseable_back() {
        // The escaped form of a hostile label must be a valid JSON string
        // literal: balanced quotes, every interior quote/backslash escaped.
        let hostile = "quote\" back\\slash \x07bell \x1f unit\tsep\r\n";
        let escaped = json_str(hostile);
        let inner = &escaped[1..escaped.len() - 1];
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            assert_ne!(c, '"', "unescaped quote inside JSON string: {inner}");
            if c == '\\' {
                let next = chars.next().expect("dangling backslash");
                assert!(
                    matches!(next, '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' | 'u'),
                    "invalid escape \\{next}"
                );
                if next == 'u' {
                    for _ in 0..4 {
                        assert!(chars.next().expect("short \\u escape").is_ascii_hexdigit());
                    }
                }
            }
        }
    }

    #[test]
    fn hostile_event_labels_survive_snapshot_json() {
        let obs = Obs::new();
        obs.counter("evil \"quoted\\name\"").add(1);
        obs.event(1, 0, EventKind::TechEngaged { tech: "rx\"q\\" });
        let json = obs.snapshot().to_json();
        assert!(json.contains("\"evil \\\"quoted\\\\name\\\"\": 1"));
        assert!(json.contains("\"tech\": \"rx\\\"q\\\\\""));
    }

    #[test]
    fn event_json_includes_payload_fields() {
        let e = Event {
            t_us: 5,
            node: 1,
            kind: EventKind::DataDelivered { peer: 42, bytes: 1024, trace: 7 },
        };
        let j = event_json(&e);
        assert!(j.contains("\"peer\": 42"));
        assert!(j.contains("\"bytes\": 1024"));
        assert!(j.contains("\"trace\": 7"));
    }

    #[test]
    fn event_json_carries_trace_epoch_and_drop_cause() {
        let sent = Event {
            t_us: 1,
            node: 0,
            kind: EventKind::BeaconSent { tech: "ble-beacon", epoch: 99 },
        };
        assert!(event_json(&sent).contains("\"epoch\": 99"));
        let dropped = Event {
            t_us: 2,
            node: 3,
            kind: EventKind::FrameDropped { tech: "ble", cause: "partition", trace: 11 },
        };
        let j = event_json(&dropped);
        assert!(j.contains("\"cause\": \"partition\""));
        assert!(j.contains("\"trace\": 11"));
        let exhausted =
            Event { t_us: 3, node: 0, kind: EventKind::SendExhausted { peer: 4, trace: 11 } };
        assert!(event_json(&exhausted).contains("\"kind\": \"SendExhausted\""));
        let cadence = Event {
            t_us: 4,
            node: 0,
            kind: EventKind::BeaconIntervalChanged { from_us: 250_000, to_us: 500_000 },
        };
        assert!(event_json(&cadence).contains("\"from_us\": 250000, \"to_us\": 500000"));
        let rejected = Event { t_us: 5, node: 0, kind: EventKind::AuthRejected { peer: 9 } };
        assert!(event_json(&rejected).contains("\"kind\": \"AuthRejected\", \"peer\": 9"));
    }

    #[test]
    fn event_json_covers_relay_events() {
        let relayed = Event {
            t_us: 1,
            node: 1,
            kind: EventKind::DataRelayed { tech: "ble-beacon", peer: 2, hops: 3, trace: 9 },
        };
        let j = event_json(&relayed);
        assert!(j.contains("\"kind\": \"DataRelayed\""));
        assert!(j.contains("\"hops\": 3"));
        assert!(j.contains("\"trace\": 9"));
        let custody =
            Event { t_us: 2, node: 1, kind: EventKind::DataCustody { peer: 2, ttl: 5, trace: 9 } };
        assert!(event_json(&custody).contains("\"ttl\": 5"));
        let deduped =
            Event { t_us: 3, node: 1, kind: EventKind::DataDeduped { peer: 2, trace: 9 } };
        assert!(event_json(&deduped).contains("\"kind\": \"DataDeduped\""));
        let expired =
            Event { t_us: 4, node: 1, kind: EventKind::TtlExpired { peer: 2, hops: 8, trace: 9 } };
        let j = event_json(&expired);
        assert!(j.contains("\"kind\": \"TtlExpired\""));
        assert!(j.contains("\"hops\": 8"));
    }

    #[test]
    fn digests_render_in_snapshot_text_and_json() {
        let obs = Obs::new();
        let d = obs.digest("mgr.delivery_latency_us");
        for v in [400u64, 500, 900] {
            d.record(v);
        }
        let snap = obs.snapshot();
        assert!(snap.to_text().contains("mgr.delivery_latency_us"));
        assert!(snap.to_text().contains("p999="));
        let json = snap.to_json();
        assert!(json.contains("\"digests\": {"));
        assert!(json.contains("\"mgr.delivery_latency_us\": {\"count\": 3"));
        assert!(json.contains("\"p999\":"));
    }

    #[test]
    fn empty_digest_exports_cleanly() {
        let obs = Obs::new();
        obs.digest("nothing");
        assert!(obs.snapshot().to_json().contains(
            "\"nothing\": {\"count\": 0, \"sum\": 0, \"min\": 0, \"max\": 0, \
             \"p50\": 0, \"p99\": 0, \"p999\": 0}"
        ));
        // An empty profiler likewise exports no slices.
        let report = crate::profile::TickProfiler::new().report();
        assert_eq!(chrome_phase_slices(&report.slices, 1, 1), "");
    }

    #[test]
    fn chrome_phase_slices_are_spliceable_x_events() {
        use crate::profile::{Phase, PhaseSlice};
        let slices = [
            PhaseSlice { phase: Phase::TimerDrain, start_us: 10, dur_us: 5 },
            PhaseSlice { phase: Phase::StagedCommit, start_us: 16, dur_us: 2 },
        ];
        let json = chrome_phase_slices(&slices, 1, 99);
        let wrapped = format!("[{json}]");
        assert!(wrapped.contains("\"name\":\"timer-drain\""));
        assert!(wrapped.contains("\"ph\":\"X\""));
        assert!(wrapped.contains("\"ts\":16"));
        assert!(wrapped.contains("\"tid\":99"));
        assert_eq!(json.matches("},{").count(), 1, "comma-joined, no brackets");
    }
}
