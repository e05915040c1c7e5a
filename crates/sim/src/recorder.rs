//! Fleet flight recorder: one causally ordered timeline for a whole run.
//!
//! Every node in a simulated fleet shares one [`Obs`] event ring, appended
//! to only from the runner's single-threaded event loop (DESIGN.md §5g), so
//! the ring keeps global `(time, seq)` order and recorder dumps are
//! byte-identical across same-seed runs.  Every event carries sim time, so
//! the recorder keeps them all: it snapshots that ring, stable-sorts it by
//! sim time, and exposes the result two ways:
//!
//! * a **JSONL dump** ([`FlightRecorder::to_jsonl`]) — one event per line,
//!   each tagged with a monotonically increasing `seq` so downstream tools
//!   can detect gaps; byte-identical across same-seed runs, and
//! * **per-trace timelines** ([`FlightRecorder::traces`]) — events grouped by
//!   the 64-bit trace ID threaded through the wire format, with the terminal
//!   outcome and the fault attribution for every dropped attempt.

use std::fs;
use std::io;
use std::path::Path;

use omni_obs::{event_json, Event, EventKind, Obs};

/// How a traced transfer ended, judged from its event set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The payload reached its destination (`DataDelivered` observed).
    Delivered,
    /// The reliable path spent its whole retry budget (`SendExhausted`).
    Exhausted,
    /// The send failed without entering the retry loop (`DataFailed` only).
    Failed,
    /// The frame is riding the relay layer (`DataCustody` / `DataRelayed`
    /// observed) and no terminal event has landed: some node still holds a
    /// copy in custody, so the transfer is in flight — not lost — even if
    /// individual hop attempts failed along the way.
    InCustody,
    /// No terminal event — the run ended with the transfer still in flight.
    InFlight,
}

/// All events a single trace ID left behind, in causal order.
#[derive(Clone, Debug)]
pub struct TraceTimeline {
    /// The 64-bit trace ID shared by every event below.
    pub trace: u64,
    /// Node the first event was recorded on (the sender for data traces).
    pub src_node: u32,
    /// Node that observed delivery, when the transfer completed.
    pub dst_node: Option<u32>,
    /// The trace's events, stable-sorted by sim time.
    pub events: Vec<Event>,
    /// Fault attribution for every killed attempt: `(tech, cause)` pairs in
    /// drop order, with causes `"frame-loss"`, `"partition"`, `"node-down"`.
    pub drops: Vec<(&'static str, &'static str)>,
}

impl TraceTimeline {
    /// The transfer's terminal outcome (delivery wins over exhaustion: a
    /// retransmit may land after the sender has already given up).
    ///
    /// Custody hops count as *in flight, not lost*: a relayed trace with
    /// `DataCustody` / `DataRelayed` events is [`TraceOutcome::InCustody`]
    /// even when individual hop attempts left `DataFailed` behind, because
    /// the relay layer absorbs hop failures while some node still carries
    /// the frame. Only the origin's `SendExhausted` (custody expiry) is
    /// terminal for a relayed transfer.
    pub fn outcome(&self) -> TraceOutcome {
        let mut exhausted = false;
        let mut failed = false;
        let mut custody = false;
        for e in &self.events {
            match e.kind {
                EventKind::DataDelivered { .. } => return TraceOutcome::Delivered,
                EventKind::SendExhausted { .. } => exhausted = true,
                EventKind::DataFailed { .. } => failed = true,
                EventKind::DataCustody { .. } | EventKind::DataRelayed { .. } => custody = true,
                _ => {}
            }
        }
        match (exhausted, custody, failed) {
            (true, _, _) => TraceOutcome::Exhausted,
            (false, true, _) => TraceOutcome::InCustody,
            (false, false, true) => TraceOutcome::Failed,
            (false, false, false) => TraceOutcome::InFlight,
        }
    }

    /// Whether the timeline tells the transfer's whole story: it reached a
    /// terminal status, and it starts at the beginning — either the enqueue,
    /// or (for sends rejected before queuing) the terminal event itself.
    pub fn is_complete(&self) -> bool {
        if matches!(self.outcome(), TraceOutcome::InFlight | TraceOutcome::InCustody) {
            return false;
        }
        matches!(
            self.events.first().map(|e| e.kind),
            Some(
                EventKind::DataEnqueued { .. }
                    | EventKind::DataFailed { .. }
                    | EventKind::SendExhausted { .. }
            )
        )
    }
}

/// A deterministic, causally ordered view of one run's event ring.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    events: Vec<Event>,
}

impl FlightRecorder {
    /// Snapshots `obs`, stable-sorting its events by sim time so merged
    /// multi-node rings read in causal order.
    pub fn from_obs(obs: &Obs) -> Self {
        let mut events = obs.events();
        events.sort_by_key(|e| e.t_us);
        FlightRecorder { events }
    }

    /// The recorded events, ordered.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Renders the timeline as JSONL: one flat JSON object per line, each
    /// carrying a gap-free `seq` counter.  Same-seed runs produce
    /// byte-identical output, since every event carries sim time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for (seq, e) in self.events.iter().enumerate() {
            let body = event_json(e);
            out.push_str("{\"seq\": ");
            out.push_str(&seq.to_string());
            out.push_str(", ");
            out.push_str(&body[1..]);
            out.push('\n');
        }
        out
    }

    /// Writes [`Self::to_jsonl`] to `path`, creating parent directories.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_jsonl())
    }

    /// Groups the recorded events by trace ID, ordered by first appearance,
    /// each with its fault-drop attribution.  Events that carry no trace
    /// (beacons, discovery, fault bookkeeping) are not part of any timeline.
    pub fn traces(&self) -> Vec<TraceTimeline> {
        let mut order: Vec<u64> = Vec::new();
        let mut timelines: std::collections::HashMap<u64, TraceTimeline> =
            std::collections::HashMap::new();
        for e in &self.events {
            let Some(trace) = e.kind.trace() else { continue };
            let tl = timelines.entry(trace).or_insert_with(|| {
                order.push(trace);
                TraceTimeline {
                    trace,
                    src_node: e.node,
                    dst_node: None,
                    events: Vec::new(),
                    drops: Vec::new(),
                }
            });
            match e.kind {
                EventKind::DataDelivered { .. } => tl.dst_node = Some(e.node),
                EventKind::FrameDropped { tech, cause, .. } => tl.drops.push((tech, cause)),
                _ => {}
            }
            tl.events.push(*e);
        }
        order
            .into_iter()
            .map(|t| timelines.remove(&t).expect("every ordered trace has a timeline"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_us: u64, node: u32, kind: EventKind) -> Event {
        Event { t_us, node, kind }
    }

    fn recorder(events: &[Event]) -> FlightRecorder {
        let obs = Obs::new();
        for e in events {
            obs.event(e.t_us, e.node, e.kind);
        }
        FlightRecorder::from_obs(&obs)
    }

    #[test]
    fn events_are_ordered_by_sim_time() {
        let rec = recorder(&[
            ev(20, 1, EventKind::DataSent { tech: "ble-beacon", bytes: 4, trace: 9 }),
            ev(5, 0, EventKind::PeerDiscovered { peer: 2 }),
            ev(10, 0, EventKind::DataEnqueued { tech: "ble-beacon", bytes: 4, trace: 9 }),
        ]);
        let kinds: Vec<&str> = rec.events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, ["PeerDiscovered", "DataEnqueued", "DataSent"], "sorted by time");
    }

    #[test]
    fn jsonl_lines_carry_a_gap_free_seq() {
        let rec = recorder(&[
            ev(10, 0, EventKind::DataEnqueued { tech: "nfc", bytes: 1, trace: 3 }),
            ev(11, 0, EventKind::DataSent { tech: "nfc", bytes: 1, trace: 3 }),
        ]);
        let dump = rec.to_jsonl();
        for (i, line) in dump.lines().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"seq\": {i}, ")),
                "line {i} must lead with its seq: {line}"
            );
            assert!(line.ends_with('}'), "line {i} must be a complete object");
        }
        assert_eq!(dump.lines().count(), 2);
    }

    #[test]
    fn traces_group_by_id_with_outcome_and_drop_attribution() {
        let rec = recorder(&[
            ev(10, 0, EventKind::DataEnqueued { tech: "ble-beacon", bytes: 4, trace: 7 }),
            ev(
                11,
                0,
                EventKind::FrameDropped { tech: "ble-beacon", cause: "frame-loss", trace: 7 },
            ),
            ev(12, 0, EventKind::DataRetried { tech: "ble-beacon", attempt: 1, trace: 7 }),
            ev(20, 2, EventKind::DataDelivered { peer: 77, bytes: 4, trace: 7 }),
            ev(15, 1, EventKind::DataEnqueued { tech: "nfc", bytes: 2, trace: 8 }),
            ev(30, 1, EventKind::SendExhausted { peer: 99, trace: 8 }),
            ev(40, 3, EventKind::BeaconSent { tech: "ble-beacon", epoch: 5 }),
        ]);
        let traces = rec.traces();
        assert_eq!(traces.len(), 2, "beacons belong to no timeline");

        let t7 = &traces[0];
        assert_eq!(t7.trace, 7);
        assert_eq!(t7.src_node, 0);
        assert_eq!(t7.dst_node, Some(2));
        assert_eq!(t7.outcome(), TraceOutcome::Delivered);
        assert_eq!(t7.drops, [("ble-beacon", "frame-loss")]);
        assert!(t7.is_complete());

        let t8 = &traces[1];
        assert_eq!(t8.outcome(), TraceOutcome::Exhausted);
        assert!(t8.is_complete());
    }

    #[test]
    fn incomplete_timelines_are_flagged() {
        let rec = recorder(&[
            // In flight: no terminal event.
            ev(10, 0, EventKind::DataEnqueued { tech: "nfc", bytes: 1, trace: 1 }),
            // Truncated: the ring wrapped past the enqueue.
            ev(20, 0, EventKind::DataSent { tech: "nfc", bytes: 1, trace: 2 }),
            ev(21, 1, EventKind::DataDelivered { peer: 5, bytes: 1, trace: 2 }),
            // Early rejection: terminal failure with no enqueue is complete.
            ev(30, 0, EventKind::DataFailed { tech: "none", trace: 3 }),
        ]);
        let traces = rec.traces();
        assert_eq!(traces[0].outcome(), TraceOutcome::InFlight);
        assert!(!traces[0].is_complete(), "in-flight trace is incomplete");
        assert!(!traces[1].is_complete(), "timeline missing its enqueue is incomplete");
        assert_eq!(traces[2].outcome(), TraceOutcome::Failed);
        assert!(traces[2].is_complete(), "early rejection tells the whole story");
    }

    #[test]
    fn custody_hops_count_as_in_flight_not_lost() {
        // Regression: 3-node chain A(0) → B(1) → C(2), A sends to C. A hands
        // the frame to B (custody hop), then a partition opens between B and
        // C and B's forward attempt dies. Before the custody-aware outcome,
        // the hop's DataFailed classified the trace as Failed — a lost
        // transfer — even though B still holds the frame and will re-offer
        // it when the partition heals.
        let rec = recorder(&[
            ev(10, 0, EventKind::DataEnqueued { tech: "none", bytes: 8, trace: 5 }),
            ev(12, 0, EventKind::DataRelayed { tech: "ble-beacon", peer: 2, hops: 1, trace: 5 }),
            ev(12, 1, EventKind::DataCustody { peer: 1, ttl: 6, trace: 5 }),
            ev(14, 1, EventKind::FrameDropped { tech: "ble-beacon", cause: "partition", trace: 5 }),
            ev(15, 1, EventKind::DataFailed { tech: "ble-beacon", trace: 5 }),
        ]);
        let traces = rec.traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.outcome(), TraceOutcome::InCustody, "custody hop is in flight, not lost");
        assert!(!t.is_complete(), "the run ended mid-relay: the story is unfinished");
        assert_eq!(t.drops, [("ble-beacon", "partition")], "the drop is still attributed");

        // Once the partition heals and the frame reaches C, delivery wins.
        let rec = recorder(&[
            ev(10, 0, EventKind::DataEnqueued { tech: "none", bytes: 8, trace: 5 }),
            ev(12, 1, EventKind::DataCustody { peer: 1, ttl: 6, trace: 5 }),
            ev(15, 1, EventKind::DataFailed { tech: "ble-beacon", trace: 5 }),
            ev(40, 2, EventKind::DataDelivered { peer: 77, bytes: 8, trace: 5 }),
        ]);
        assert_eq!(rec.traces()[0].outcome(), TraceOutcome::Delivered);
        assert!(rec.traces()[0].is_complete());

        // And when the origin's custody expires, SendExhausted is terminal.
        let rec = recorder(&[
            ev(10, 0, EventKind::DataEnqueued { tech: "none", bytes: 8, trace: 5 }),
            ev(12, 1, EventKind::DataCustody { peer: 1, ttl: 6, trace: 5 }),
            ev(99, 0, EventKind::TtlExpired { peer: 2, hops: 0, trace: 5 }),
            ev(99, 0, EventKind::SendExhausted { peer: 2, trace: 5 }),
        ]);
        assert_eq!(rec.traces()[0].outcome(), TraceOutcome::Exhausted);
        assert!(rec.traces()[0].is_complete());
    }

    #[test]
    fn same_events_produce_byte_identical_jsonl() {
        let events = [
            ev(10, 0, EventKind::DataEnqueued { tech: "ble-beacon", bytes: 4, trace: 9 }),
            ev(10, 1, EventKind::FrameDropped { tech: "ble-beacon", cause: "partition", trace: 9 }),
            ev(12, 0, EventKind::SendExhausted { peer: 3, trace: 9 }),
        ];
        assert_eq!(recorder(&events).to_jsonl(), recorder(&events).to_jsonl());
    }
}
