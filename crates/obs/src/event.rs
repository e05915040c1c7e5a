//! Structured events in a bounded ring buffer.
//!
//! Every interesting state transition in the middleware stack emits an
//! [`Event`]: a timestamp, the node it happened on, and a typed
//! [`EventKind`].  Events are `Copy` (technology labels are `&'static str`),
//! so pushing one into the ring never allocates; when the ring is full the
//! oldest event is overwritten and an overflow counter is bumped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What happened.  Payload fields are deliberately flat scalars so the whole
/// event stays `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An address beacon left this node.
    BeaconSent {
        /// Technology label (e.g. `"ble-beacon"`).
        tech: &'static str,
        /// Discovery epoch stamped on the beacon (zero when unstamped); lets
        /// discovery latency be measured per beacon registration.
        epoch: u64,
    },
    /// An address beacon from `peer` arrived at this node.
    BeaconReceived {
        /// Technology label.
        tech: &'static str,
        /// `omni_address` of the beacon's sender.
        peer: u64,
        /// Discovery epoch carried by the beacon (zero when unstamped).
        epoch: u64,
    },
    /// A peer entered the peer map for the first time.
    PeerDiscovered {
        /// `omni_address` of the new peer.
        peer: u64,
    },
    /// A peer aged out of the peer map.
    PeerExpired {
        /// `omni_address` of the expired peer.
        peer: u64,
    },
    /// The adaptive beacon policy moved this node's address-beacon interval.
    BeaconIntervalChanged {
        /// Interval before the change, in microseconds.
        from_us: u64,
        /// Interval after the change, in microseconds.
        to_us: u64,
    },
    /// A sealed address beacon or context pack failed authentication under
    /// this node's group key and was dropped.
    AuthRejected {
        /// `omni_address` the frame claimed as its source.
        peer: u64,
    },
    /// A context technology began carrying the device's beacon and context
    /// packs: the primary one at start, or one the engagement algorithm
    /// engaged. Nothing is powered up.
    TechEngaged {
        /// Technology label.
        tech: &'static str,
    },
    /// The engagement algorithm stopped carrying the beacon and context
    /// packs on a context technology, which keeps listening.
    TechDisengaged {
        /// Technology label.
        tech: &'static str,
    },
    /// Application data was queued for transmission.
    DataEnqueued {
        /// Technology label chosen by data-technology selection.
        tech: &'static str,
        /// Application payload size.
        bytes: u64,
        /// Causal trace ID of the transfer (zero when untraced).
        trace: u64,
    },
    /// A data send completed at the sender.
    DataSent {
        /// Technology label that carried the payload.
        tech: &'static str,
        /// Application payload size.
        bytes: u64,
        /// Causal trace ID of the transfer (zero when untraced).
        trace: u64,
    },
    /// Application data arrived at the receiver.
    DataDelivered {
        /// `omni_address` of the payload's origin.
        peer: u64,
        /// Application payload size.
        bytes: u64,
        /// Causal trace ID of the transfer (zero when untraced).
        trace: u64,
    },
    /// A data send failed (after any fallback attempts recorded separately).
    DataFailed {
        /// Technology label that reported the failure.
        tech: &'static str,
        /// Causal trace ID of the transfer (zero when untraced).
        trace: u64,
    },
    /// A context was added, updated, or removed.
    ContextUpdated {
        /// Context identifier.
        id: u64,
    },
    /// A data send attempt missed its ack deadline (or failed) and was
    /// rescheduled with backoff.
    DataRetried {
        /// Technology label of the attempt that was given up on.
        tech: &'static str,
        /// 1-based number of the attempt that failed.
        attempt: u64,
        /// Causal trace ID of the transfer (zero when untraced).
        trace: u64,
    },
    /// A data send attempt moved to the next candidate technology.
    DataFailedOver {
        /// Technology label that failed.
        from_tech: &'static str,
        /// Technology label taking over.
        to_tech: &'static str,
        /// Causal trace ID of the transfer (zero when untraced).
        trace: u64,
    },
    /// A reliable send spent its whole retry budget across every candidate
    /// technology and gave up (terminal).
    SendExhausted {
        /// `omni_address` of the unreachable destination.
        peer: u64,
        /// Causal trace ID of the transfer (zero when untraced).
        trace: u64,
    },
    /// The simulator's fault layer killed an in-flight traced frame.
    FrameDropped {
        /// Technology label of the medium the frame was crossing.
        tech: &'static str,
        /// Which fault killed it: `"frame-loss"`, `"partition"`, or
        /// `"node-down"`.
        cause: &'static str,
        /// Causal trace ID carried by the dropped frame.
        trace: u64,
    },
    /// The fault layer activated a timed link partition between two nodes.
    LinkPartitioned {
        /// First endpoint (`DeviceId.0`).
        a: u64,
        /// Second endpoint (`DeviceId.0`).
        b: u64,
    },
    /// The fault layer took a node's radios down for a churn window.
    NodeDown {
        /// The node (`DeviceId.0`).
        node: u64,
    },
    /// A custodian forwarded a relayed frame to its next hop.
    DataRelayed {
        /// Technology label that carried the forwarded copy.
        tech: &'static str,
        /// `omni_address` of the next-hop peer the copy was handed to.
        peer: u64,
        /// Hop count stamped on the forwarded copy (1 = first relay hop).
        hops: u64,
        /// Causal trace ID of the transfer (zero when untraced).
        trace: u64,
    },
    /// A relayed frame entered this node's bounded custody store to await a
    /// next hop (not lost: the custodian carries it).
    DataCustody {
        /// `omni_address` of the frame's final destination.
        peer: u64,
        /// Remaining TTL at the time custody was taken.
        ttl: u64,
        /// Causal trace ID of the transfer (zero when untraced).
        trace: u64,
    },
    /// The relay seen-set suppressed a duplicate copy of a frame this node
    /// had already handled.
    DataDeduped {
        /// `omni_address` of the frame's origin (`source` field of the
        /// duplicate copy).
        peer: u64,
        /// Causal trace ID of the transfer (zero when untraced).
        trace: u64,
    },
    /// A relayed frame's TTL reached zero before its destination and the
    /// frame was discarded.
    TtlExpired {
        /// `omni_address` of the final destination the frame never reached.
        peer: u64,
        /// Hop count at the point of expiry.
        hops: u64,
        /// Causal trace ID of the transfer (zero when untraced).
        trace: u64,
    },
    /// The health monitor moved between fleet health states.  Recorded with
    /// the fleet-scope node id (`u32::MAX`) — health is derived from
    /// fleet-wide windowed series, not from any single device.
    HealthTransition {
        /// State being left: `"healthy"`, `"degraded"`, or `"critical"`.
        from: &'static str,
        /// State being entered.
        to: &'static str,
        /// The signal that tripped (or cleared) the transition:
        /// `"delivery-ratio"`, `"queue-depth"`, `"beacon-staleness"`,
        /// `"node-down"`, or `"recovered"`.
        cause: &'static str,
    },
}

impl EventKind {
    /// Stable name of the variant, for exporters and tests.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::BeaconSent { .. } => "BeaconSent",
            EventKind::BeaconReceived { .. } => "BeaconReceived",
            EventKind::PeerDiscovered { .. } => "PeerDiscovered",
            EventKind::PeerExpired { .. } => "PeerExpired",
            EventKind::BeaconIntervalChanged { .. } => "BeaconIntervalChanged",
            EventKind::AuthRejected { .. } => "AuthRejected",
            EventKind::TechEngaged { .. } => "TechEngaged",
            EventKind::TechDisengaged { .. } => "TechDisengaged",
            EventKind::DataEnqueued { .. } => "DataEnqueued",
            EventKind::DataSent { .. } => "DataSent",
            EventKind::DataDelivered { .. } => "DataDelivered",
            EventKind::DataFailed { .. } => "DataFailed",
            EventKind::ContextUpdated { .. } => "ContextUpdated",
            EventKind::DataRetried { .. } => "DataRetried",
            EventKind::DataFailedOver { .. } => "DataFailedOver",
            EventKind::SendExhausted { .. } => "SendExhausted",
            EventKind::FrameDropped { .. } => "FrameDropped",
            EventKind::DataRelayed { .. } => "DataRelayed",
            EventKind::DataCustody { .. } => "DataCustody",
            EventKind::DataDeduped { .. } => "DataDeduped",
            EventKind::TtlExpired { .. } => "TtlExpired",
            EventKind::LinkPartitioned { .. } => "LinkPartitioned",
            EventKind::NodeDown { .. } => "NodeDown",
            EventKind::HealthTransition { .. } => "HealthTransition",
        }
    }

    /// The causal trace ID carried by this event, when it concerns a traced
    /// transfer (zero-valued fields mean untraced and report `None`).
    pub fn trace(&self) -> Option<u64> {
        match self {
            EventKind::DataEnqueued { trace, .. }
            | EventKind::DataSent { trace, .. }
            | EventKind::DataDelivered { trace, .. }
            | EventKind::DataFailed { trace, .. }
            | EventKind::DataRetried { trace, .. }
            | EventKind::DataFailedOver { trace, .. }
            | EventKind::SendExhausted { trace, .. }
            | EventKind::FrameDropped { trace, .. }
            | EventKind::DataRelayed { trace, .. }
            | EventKind::DataCustody { trace, .. }
            | EventKind::DataDeduped { trace, .. }
            | EventKind::TtlExpired { trace, .. } => (*trace != 0).then_some(*trace),
            _ => None,
        }
    }

    /// The discovery epoch carried by this event, for beacon events stamped
    /// with one.
    pub fn epoch(&self) -> Option<u64> {
        match self {
            EventKind::BeaconSent { epoch, .. } | EventKind::BeaconReceived { epoch, .. } => {
                (*epoch != 0).then_some(*epoch)
            }
            _ => None,
        }
    }
}

/// One timestamped occurrence of an [`EventKind`] on a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Microseconds — sim clock when recorded from the simulator, wall clock
    /// offset when recorded from a real deployment.
    pub t_us: u64,
    /// Device the event happened on (`DeviceId.0` in the simulator).
    pub node: u32,
    /// What happened.
    pub kind: EventKind,
}

struct Ring {
    buf: Vec<Event>,
    /// Index of the oldest element once the buffer has wrapped.
    head: usize,
}

/// Bounded MPSC-ish ring of [`Event`]s guarded by one uncontended mutex.
///
/// The buffer is allocated up front; a push never allocates.  Overwrites of
/// unread events are counted in [`EventRing::overflow`].
pub struct EventRing {
    inner: Mutex<Ring>,
    capacity: usize,
    overflow: AtomicU64,
}

impl EventRing {
    /// Ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventRing {
            inner: Mutex::new(Ring { buf: Vec::with_capacity(capacity), head: 0 }),
            capacity,
            overflow: AtomicU64::new(0),
        }
    }

    /// Append an event, overwriting the oldest when full.
    pub fn push(&self, e: Event) {
        let mut ring = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if ring.buf.len() < self.capacity {
            ring.buf.push(e);
        } else {
            let head = ring.head;
            ring.buf[head] = e;
            ring.head = (head + 1) % self.capacity;
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).buf.len()
    }

    /// True when no event has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many events have been overwritten before being read.
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Copy out the retained events, oldest first.
    pub fn to_vec(&self) -> Vec<Event> {
        let ring = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = Vec::with_capacity(ring.buf.len());
        out.extend_from_slice(&ring.buf[ring.head..]);
        out.extend_from_slice(&ring.buf[..ring.head]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> Event {
        Event { t_us: t, node: 0, kind: EventKind::PeerDiscovered { peer: t } }
    }

    #[test]
    fn ring_keeps_newest_and_counts_overflow() {
        let ring = EventRing::new(3);
        for t in 0..5 {
            ring.push(ev(t));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.overflow(), 2);
        let times: Vec<u64> = ring.to_vec().iter().map(|e| e.t_us).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn ring_below_capacity_is_in_order() {
        let ring = EventRing::new(10);
        assert!(ring.is_empty());
        for t in 0..4 {
            ring.push(ev(t));
        }
        assert_eq!(ring.overflow(), 0);
        let times: Vec<u64> = ring.to_vec().iter().map(|e| e.t_us).collect();
        assert_eq!(times, vec![0, 1, 2, 3]);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(EventKind::BeaconSent { tech: "ble-beacon", epoch: 0 }.name(), "BeaconSent");
        assert_eq!(
            EventKind::DataRetried { tech: "ble-beacon", attempt: 1, trace: 0 }.name(),
            "DataRetried"
        );
        assert_eq!(
            EventKind::DataFailedOver { from_tech: "ble-beacon", to_tech: "wifi-tcp", trace: 0 }
                .name(),
            "DataFailedOver"
        );
        assert_eq!(EventKind::SendExhausted { peer: 1, trace: 2 }.name(), "SendExhausted");
        assert_eq!(
            EventKind::FrameDropped { tech: "ble", cause: "frame-loss", trace: 2 }.name(),
            "FrameDropped"
        );
        assert_eq!(
            EventKind::DataRelayed { tech: "ble-beacon", peer: 3, hops: 1, trace: 2 }.name(),
            "DataRelayed"
        );
        assert_eq!(EventKind::DataCustody { peer: 3, ttl: 4, trace: 2 }.name(), "DataCustody");
        assert_eq!(EventKind::DataDeduped { peer: 3, trace: 2 }.name(), "DataDeduped");
        assert_eq!(EventKind::TtlExpired { peer: 3, hops: 6, trace: 2 }.name(), "TtlExpired");
        assert_eq!(
            EventKind::BeaconIntervalChanged { from_us: 1, to_us: 2 }.name(),
            "BeaconIntervalChanged"
        );
        assert_eq!(EventKind::AuthRejected { peer: 3 }.name(), "AuthRejected");
        assert_eq!(EventKind::LinkPartitioned { a: 0, b: 1 }.name(), "LinkPartitioned");
        assert_eq!(EventKind::NodeDown { node: 0 }.name(), "NodeDown");
        assert_eq!(
            EventKind::HealthTransition { from: "healthy", to: "degraded", cause: "queue-depth" }
                .name(),
            "HealthTransition"
        );
    }

    #[test]
    fn trace_and_epoch_accessors_treat_zero_as_absent() {
        assert_eq!(EventKind::DataSent { tech: "t", bytes: 1, trace: 7 }.trace(), Some(7));
        assert_eq!(EventKind::DataSent { tech: "t", bytes: 1, trace: 0 }.trace(), None);
        assert_eq!(EventKind::PeerDiscovered { peer: 1 }.trace(), None);
        assert_eq!(EventKind::BeaconSent { tech: "t", epoch: 9 }.epoch(), Some(9));
        assert_eq!(EventKind::BeaconReceived { tech: "t", peer: 1, epoch: 0 }.epoch(), None);
    }
}
