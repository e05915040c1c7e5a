//! The shared WiFi-Mesh channel: fluid-flow unicast plus serialized
//! multicast.
//!
//! Unicast TCP is modeled as processor sharing: the channel's goodput
//! capacity is divided equally among active flows, recomputed at every flow
//! arrival/departure ("fluid" model). Multicast transmissions occupy the
//! channel exclusively for their airtime, during which unicast flows stall —
//! this reproduces the paper's observation that the State of the Art's
//! periodic multicast beacons impede bulk transfers by ≈8.6 % (Table 5).
//!
//! The flows sit in a binary min-heap on their remaining bytes (DESIGN.md
//! §5g): the next completion is the root, and an arrival or a completion
//! costs O(log F). Per-device flow counts answer
//! [`WifiMedium::device_active`] in O(1). Progress subtracts one amount
//! from every flow. Rounded subtraction is monotone, so the heap stays
//! ordered, and each flow sees exactly the subtractions an arrival-ordered
//! list would give it.
//!
//! The medium is global mutable state, touched only from the runner's
//! single-threaded event loop in `(time, seq)` order (DESIGN.md §5g), so
//! flow arrivals, departures, and multicast serialization are ordered
//! identically in every same-seed run.

use std::collections::VecDeque;

use bytes::Bytes;

use crate::node::{ConnId, DeviceId};
use crate::time::{SimDuration, SimTime};

/// An active unicast transfer (the head-of-line message of one connection
/// direction).
#[derive(Debug, Clone)]
pub(crate) struct Flow {
    /// Carrying connection.
    pub conn: ConnId,
    /// Transmitting device.
    pub sender: DeviceId,
    /// Receiving device.
    pub receiver: DeviceId,
    /// Message payload, handed to the receiver on completion.
    pub payload: Bytes,
    /// Bytes still to transfer.
    pub remaining: f64,
}

/// A flow in the heap, apart from its remaining bytes.
#[derive(Debug)]
struct FlowEnds {
    conn: ConnId,
    sender: DeviceId,
    receiver: DeviceId,
    payload: Bytes,
    /// Arrival number: flows leave the medium in arrival order.
    seq: u64,
}

/// A queued multicast transmission.
#[derive(Debug, Clone)]
pub(crate) struct McastJob {
    /// Transmitting device.
    pub sender: DeviceId,
    /// Datagram payload.
    pub payload: Bytes,
    /// Channel occupancy of this datagram.
    pub airtime: SimDuration,
    /// Whether to charge bulk (basic-rate) transmit current.
    pub bulk: bool,
}

/// The shared channel state.
#[derive(Debug)]
pub(crate) struct WifiMedium {
    capacity_bps: f64,
    /// Bytes each flow still has to transfer, as a binary min-heap.
    remaining: Vec<f64>,
    /// The rest of each flow, at the same heap position as its bytes.
    ends: Vec<FlowEnds>,
    /// Flows per device id: `[sending, receiving]`.
    per_device: Vec<[u32; 2]>,
    /// Flows that finished transferring, with their arrival numbers. They
    /// await the next boundary event, which delivers them.
    completed: Vec<(u64, Flow)>,
    next_seq: u64,
    last_update: SimTime,
    /// Incremented on every reschedule; stale boundary events are ignored.
    pub boundary_gen: u64,
    /// Multicast currently on the air.
    pub mcast_active: Option<McastJob>,
    /// Incremented per multicast start; stale done-events are ignored.
    pub mcast_gen: u64,
    mcast_queue: VecDeque<McastJob>,
}

impl WifiMedium {
    pub fn new(capacity_bps: f64) -> Self {
        assert!(capacity_bps > 0.0);
        WifiMedium {
            capacity_bps,
            remaining: Vec::new(),
            ends: Vec::new(),
            per_device: Vec::new(),
            completed: Vec::new(),
            next_seq: 0,
            last_update: SimTime::ZERO,
            boundary_gen: 0,
            mcast_active: None,
            mcast_gen: 0,
            mcast_queue: VecDeque::new(),
        }
    }

    fn rate_per_flow(&self) -> f64 {
        if self.mcast_active.is_some() || self.remaining.is_empty() {
            0.0
        } else {
            self.capacity_bps / self.remaining.len() as f64
        }
    }

    /// Advances flow progress to `now` and sets completed flows aside, in
    /// arrival order, for [`WifiMedium::take_completed`]. Must be called
    /// before any mutation of the flow set or the multicast state.
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        let rate = self.rate_per_flow();
        self.last_update = now;
        if rate > 0.0 && dt > 0.0 {
            let step = rate * dt;
            for r in &mut self.remaining {
                *r -= step;
            }
        }
        // Complete anything within 2 µs worth of bytes of the boundary to
        // absorb microsecond event rounding.
        let eps = (rate * 2e-6).max(1e-6);
        let batch = self.completed.len();
        while self.remaining.first().is_some_and(|&r| r <= eps) {
            let flow = self.swap_remove(0);
            self.completed.push(flow);
            self.sift_down(0);
        }
        self.completed[batch..].sort_unstable_by_key(|&(seq, _)| seq);
    }

    /// Takes the flows that completed since the last call, in the order
    /// they completed.
    pub fn take_completed(&mut self) -> impl Iterator<Item = Flow> {
        std::mem::take(&mut self.completed).into_iter().map(|(_, flow)| flow)
    }

    /// Adds a unicast flow. Caller must have `advance`d to `now` first.
    pub fn add_flow(&mut self, flow: Flow) {
        debug_assert!(flow.remaining > 0.0);
        let Flow { conn, sender, receiver, payload, remaining } = flow;
        let top = sender.0.max(receiver.0);
        if top >= self.per_device.len() {
            self.per_device.resize(top + 1, [0, 0]);
        }
        self.per_device[sender.0][0] += 1;
        self.per_device[receiver.0][1] += 1;
        self.remaining.push(remaining);
        self.ends.push(FlowEnds { conn, sender, receiver, payload, seq: self.next_seq });
        self.next_seq += 1;
        self.sift_up(self.remaining.len() - 1);
    }

    /// Removes (and returns) all flows in flight on a connection, e.g.
    /// because it closed, and drops its completed flows not yet taken.
    /// Caller must have `advance`d first.
    pub fn remove_conn(&mut self, conn: ConnId) -> Vec<Flow> {
        self.remove_where(|c, _, _| c == conn)
    }

    /// Removes all flows involving a device (radio power-off, node churn),
    /// as [`WifiMedium::remove_conn`] does. Caller must have `advance`d
    /// first.
    pub fn remove_device(&mut self, dev: DeviceId) -> Vec<Flow> {
        self.remove_where(|_, s, r| s == dev || r == dev)
    }

    /// When the next flow completes: now while completed flows await
    /// delivery, else the earliest completion if flows are progressing.
    pub fn next_boundary(&self) -> Option<SimTime> {
        if !self.completed.is_empty() {
            return Some(self.last_update);
        }
        let rate = self.rate_per_flow();
        if rate <= 0.0 {
            return None;
        }
        // +1 µs so that at the event, remaining has crossed zero within the
        // advance() epsilon.
        let us = (self.remaining[0] / rate * 1e6).ceil() as u64 + 1;
        Some(self.last_update + SimDuration::from_micros(us))
    }

    /// Whether any flow is currently active for the given device and
    /// direction (`tx`: device is the sender).
    pub fn device_active(&self, dev: DeviceId, tx: bool) -> bool {
        self.per_device.get(dev.0).is_some_and(|n| n[usize::from(!tx)] > 0)
    }

    /// Queues a multicast job; returns the job to start now if the channel
    /// was idle. Caller must have `advance`d first.
    pub fn enqueue_mcast(&mut self, job: McastJob) -> Option<McastJob> {
        if self.mcast_active.is_none() {
            self.mcast_gen += 1;
            self.mcast_active = Some(job.clone());
            Some(job)
        } else {
            self.mcast_queue.push_back(job);
            None
        }
    }

    /// Completes the active multicast; returns `(finished, next_to_start)`.
    /// Caller must have `advance`d first.
    pub fn finish_mcast(&mut self) -> (Option<McastJob>, Option<McastJob>) {
        let finished = self.mcast_active.take();
        let next = self.mcast_queue.pop_front();
        if let Some(job) = next.clone() {
            self.mcast_gen += 1;
            self.mcast_active = Some(job);
        }
        (finished, next)
    }

    /// Active + queued multicast jobs for a device (used to drain state on
    /// power-off).
    pub fn cancel_mcast_for(&mut self, dev: DeviceId) -> bool {
        let was_active = self.mcast_active.as_ref().map(|j| j.sender == dev).unwrap_or(false);
        self.mcast_queue.retain(|j| j.sender != dev);
        was_active
    }

    #[cfg(test)]
    pub fn flow_count(&self) -> usize {
        self.remaining.len()
    }

    /// Drops the matching completed flows, removes the matching flows in
    /// flight (a scan, then one heapify) and returns the latter in arrival
    /// order. `matches` takes a flow's connection, sender and receiver.
    /// Only partitions, churn and power-off get here.
    fn remove_where(&mut self, matches: impl Fn(ConnId, DeviceId, DeviceId) -> bool) -> Vec<Flow> {
        self.completed.retain(|(_, f)| !matches(f.conn, f.sender, f.receiver));
        let mut removed = Vec::new();
        let mut i = 0;
        while i < self.ends.len() {
            let f = &self.ends[i];
            if matches(f.conn, f.sender, f.receiver) {
                removed.push(self.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if !removed.is_empty() {
            for i in (0..self.remaining.len() / 2).rev() {
                self.sift_down(i);
            }
        }
        removed.sort_unstable_by_key(|&(seq, _)| seq);
        removed.into_iter().map(|(_, flow)| flow).collect()
    }

    /// Takes out the flow at heap position `i`, leaving the heap to be
    /// repaired by the caller.
    fn swap_remove(&mut self, i: usize) -> (u64, Flow) {
        let remaining = self.remaining.swap_remove(i);
        let FlowEnds { conn, sender, receiver, payload, seq } = self.ends.swap_remove(i);
        self.per_device[sender.0][0] -= 1;
        self.per_device[receiver.0][1] -= 1;
        (seq, Flow { conn, sender, receiver, payload, remaining })
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.remaining.swap(i, j);
        self.ends.swap(i, j);
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.remaining[parent] <= self.remaining[i] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.remaining.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.remaining[right] < self.remaining[left] {
                right
            } else {
                left
            };
            if self.remaining[i] <= self.remaining[child] {
                break;
            }
            self.swap(i, child);
            i = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(conn: u64, s: usize, r: usize, bytes: f64) -> Flow {
        Flow {
            conn: ConnId(conn),
            sender: DeviceId(s),
            receiver: DeviceId(r),
            payload: Bytes::new(),
            remaining: bytes,
        }
    }

    #[test]
    fn single_flow_completes_at_capacity_rate() {
        let mut m = WifiMedium::new(1_000_000.0); // 1 MB/s
        m.advance(SimTime::ZERO);
        m.add_flow(flow(0, 0, 1, 500_000.0));
        let b = m.next_boundary().unwrap();
        // 0.5 MB at 1 MB/s = 0.5 s (+1 µs guard).
        assert_eq!(b.as_micros(), 500_001);
        m.advance(b);
        let done: Vec<Flow> = m.take_completed().collect();
        assert_eq!(done.len(), 1);
        assert_eq!(m.flow_count(), 0);
    }

    #[test]
    fn two_flows_share_capacity_equally() {
        let mut m = WifiMedium::new(1_000_000.0);
        m.advance(SimTime::ZERO);
        m.add_flow(flow(0, 0, 1, 100_000.0));
        m.add_flow(flow(1, 2, 3, 100_000.0));
        // Each gets 0.5 MB/s → both complete at 0.2 s.
        let b = m.next_boundary().unwrap();
        assert_eq!(b.as_micros(), 200_001);
        m.advance(b);
        let done: Vec<Flow> = m.take_completed().collect();
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn remaining_flow_speeds_up_after_departure() {
        let mut m = WifiMedium::new(1_000_000.0);
        m.advance(SimTime::ZERO);
        m.add_flow(flow(0, 0, 1, 100_000.0));
        m.add_flow(flow(1, 2, 3, 300_000.0));
        let b1 = m.next_boundary().unwrap(); // flow 0 at 0.2 s
        m.advance(b1);
        let done: Vec<Flow> = m.take_completed().collect();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].conn, ConnId(0));
        // Flow 1 has 200 KB left, now at full 1 MB/s → 0.2 s more.
        let b2 = m.next_boundary().unwrap();
        assert!((b2.as_secs_f64() - 0.4).abs() < 1e-4);
    }

    #[test]
    fn multicast_stalls_unicast() {
        let mut m = WifiMedium::new(1_000_000.0);
        m.advance(SimTime::ZERO);
        m.add_flow(flow(0, 0, 1, 100_000.0));
        let started = m.enqueue_mcast(McastJob {
            sender: DeviceId(2),
            payload: Bytes::new(),
            airtime: SimDuration::from_millis(50),
            bulk: false,
        });
        assert!(started.is_some());
        // Channel is busy: no boundary.
        assert!(m.next_boundary().is_none());
        // 50 ms pass with zero unicast progress.
        m.advance(SimTime::from_millis(50));
        let done: Vec<Flow> = m.take_completed().collect();
        assert!(done.is_empty());
        let (fin, next) = m.finish_mcast();
        assert!(fin.is_some());
        assert!(next.is_none());
        // Flow resumes: 100 KB at 1 MB/s from t=50 ms.
        let b = m.next_boundary().unwrap();
        assert!((b.as_secs_f64() - 0.150).abs() < 1e-4);
    }

    #[test]
    fn queued_multicast_starts_when_active_finishes() {
        let mut m = WifiMedium::new(1_000_000.0);
        m.advance(SimTime::ZERO);
        let j = |s: usize| McastJob {
            sender: DeviceId(s),
            payload: Bytes::new(),
            airtime: SimDuration::from_millis(10),
            bulk: false,
        };
        assert!(m.enqueue_mcast(j(0)).is_some());
        assert!(m.enqueue_mcast(j(1)).is_none());
        let (fin, next) = m.finish_mcast();
        assert_eq!(fin.unwrap().sender, DeviceId(0));
        assert_eq!(next.unwrap().sender, DeviceId(1));
    }

    #[test]
    fn remove_conn_and_device_filter_flows() {
        let mut m = WifiMedium::new(1_000_000.0);
        m.advance(SimTime::ZERO);
        m.add_flow(flow(0, 0, 1, 1000.0));
        m.add_flow(flow(1, 1, 2, 1000.0));
        m.add_flow(flow(2, 3, 4, 1000.0));
        assert_eq!(m.remove_conn(ConnId(0)).len(), 1);
        assert_eq!(m.remove_device(DeviceId(1)).len(), 1);
        assert_eq!(m.flow_count(), 1);
    }

    #[test]
    fn device_active_tracks_direction() {
        let mut m = WifiMedium::new(1_000_000.0);
        m.advance(SimTime::ZERO);
        m.add_flow(flow(0, 0, 1, 1000.0));
        assert!(m.device_active(DeviceId(0), true));
        assert!(!m.device_active(DeviceId(0), false));
        assert!(m.device_active(DeviceId(1), false));
    }

    #[test]
    fn cancel_mcast_for_clears_queue_entries() {
        let mut m = WifiMedium::new(1_000_000.0);
        let j = |s: usize| McastJob {
            sender: DeviceId(s),
            payload: Bytes::new(),
            airtime: SimDuration::from_millis(10),
            bulk: false,
        };
        m.enqueue_mcast(j(0));
        m.enqueue_mcast(j(1));
        m.enqueue_mcast(j(1));
        assert!(!m.cancel_mcast_for(DeviceId(1)));
        let (_, next) = m.finish_mcast();
        assert!(next.is_none(), "queued jobs for dev1 were cancelled");
    }

    /// The arrival-ordered flow list the heap replaced, kept as the
    /// reference the heap must match bit for bit. Multicast is reduced to
    /// the number of jobs on the air or queued.
    struct ListMedium {
        capacity_bps: f64,
        flows: Vec<Flow>,
        completed: Vec<Flow>,
        last_update: SimTime,
        mcast_jobs: usize,
    }

    impl ListMedium {
        fn new(capacity_bps: f64) -> Self {
            ListMedium {
                capacity_bps,
                flows: Vec::new(),
                completed: Vec::new(),
                last_update: SimTime::ZERO,
                mcast_jobs: 0,
            }
        }

        fn rate_per_flow(&self) -> f64 {
            if self.mcast_jobs > 0 || self.flows.is_empty() {
                0.0
            } else {
                self.capacity_bps / self.flows.len() as f64
            }
        }

        fn advance(&mut self, now: SimTime) {
            let dt = now.saturating_since(self.last_update).as_secs_f64();
            let rate = self.rate_per_flow();
            self.last_update = now;
            if rate > 0.0 && dt > 0.0 {
                for f in &mut self.flows {
                    f.remaining -= rate * dt;
                }
            }
            let eps = (rate * 2e-6).max(1e-6);
            let mut done = Vec::new();
            let mut i = 0;
            while i < self.flows.len() {
                if self.flows[i].remaining <= eps {
                    done.push(self.flows.remove(i));
                } else {
                    i += 1;
                }
            }
            self.completed.extend(done);
        }

        fn take_completed(&mut self) -> Vec<Flow> {
            std::mem::take(&mut self.completed)
        }

        fn remove_where(&mut self, matches: impl Fn(&Flow) -> bool) -> Vec<Flow> {
            self.completed.retain(|f| !matches(f));
            let mut removed = Vec::new();
            let mut i = 0;
            while i < self.flows.len() {
                if matches(&self.flows[i]) {
                    removed.push(self.flows.remove(i));
                } else {
                    i += 1;
                }
            }
            removed
        }

        fn next_boundary(&self) -> Option<SimTime> {
            if !self.completed.is_empty() {
                return Some(self.last_update);
            }
            let rate = self.rate_per_flow();
            if rate <= 0.0 {
                return None;
            }
            let min_remaining =
                self.flows.iter().map(|f| f.remaining).fold(f64::INFINITY, f64::min);
            let us = (min_remaining / rate * 1e6).ceil() as u64 + 1;
            Some(self.last_update + SimDuration::from_micros(us))
        }

        fn device_active(&self, dev: DeviceId, tx: bool) -> bool {
            self.flows.iter().any(|f| if tx { f.sender == dev } else { f.receiver == dev })
        }
    }

    /// What a test compares of a flow: its ends, payload and the bits of
    /// its remaining bytes.
    fn key(flows: &[Flow]) -> Vec<(u64, usize, usize, Vec<u8>, u64)> {
        flows
            .iter()
            .map(|f| {
                (f.conn.0, f.sender.0, f.receiver.0, f.payload.to_vec(), f.remaining.to_bits())
            })
            .collect()
    }

    const DEVICES: usize = 6;

    /// Flow sizes that tie with each other: one byte, a 0 B message plus
    /// TCP overhead, a context frame, 1 MB, and one second at 8.1 MB/s.
    const TIED_SIZES: [f64; 5] = [1.0, 60.0, 160.0, 1_000_060.0, 8_100_000.0];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Random arrivals, progress, multicast stalls, removals and
        /// deliveries: after every step the heap reports exactly what the
        /// arrival-ordered list reports, to the bit.
        #[test]
        fn heap_matches_the_arrival_ordered_list(
            ops in proptest::collection::vec(
                (0u8..15, 0usize..DEVICES, 0usize..DEVICES, 0u64..4_000_000),
                1..240,
            ),
        ) {
            let mut heap = WifiMedium::new(8_100_000.0);
            let mut list = ListMedium::new(8_100_000.0);
            let mut now = SimTime::ZERO;
            for (step, &(op, a, b, x)) in ops.iter().enumerate() {
                let (got, want) = match op {
                    0..=3 => {
                        let remaining = if x % 3 == 0 {
                            (x % 8_000_000 + 1) as f64
                        } else {
                            TIED_SIZES[x as usize % TIED_SIZES.len()]
                        };
                        let receiver = if a == b { (b + 1) % DEVICES } else { b };
                        let f = Flow {
                            conn: ConnId(x % 5),
                            sender: DeviceId(a),
                            receiver: DeviceId(receiver),
                            payload: Bytes::from((step as u32).to_le_bytes().to_vec()),
                            remaining,
                        };
                        list.flows.push(f.clone());
                        heap.add_flow(f);
                        (Vec::new(), Vec::new())
                    }
                    4..=9 => {
                        let boundary = heap.next_boundary();
                        let t = match (op, boundary) {
                            (4, _) => now,
                            (5, _) => now + SimDuration::from_micros(1),
                            (6 | 7, Some(b)) => b,
                            (8, Some(b)) => {
                                SimTime::from_micros(b.as_micros().saturating_sub(1 + x % 3)).max(now)
                            }
                            _ => now + SimDuration::from_micros(x % 2_000_000),
                        };
                        now = t;
                        heap.advance(t);
                        list.advance(t);
                        if op == 7 {
                            // What the runner's boundary event does.
                            (heap.take_completed().collect(), list.take_completed())
                        } else {
                            (Vec::new(), Vec::new())
                        }
                    }
                    10 => {
                        let job = McastJob {
                            sender: DeviceId(a),
                            payload: Bytes::new(),
                            airtime: SimDuration::from_millis(1),
                            bulk: false,
                        };
                        heap.enqueue_mcast(job);
                        list.mcast_jobs += 1;
                        (Vec::new(), Vec::new())
                    }
                    11 => {
                        heap.finish_mcast();
                        list.mcast_jobs = list.mcast_jobs.saturating_sub(1);
                        (Vec::new(), Vec::new())
                    }
                    12 => (
                        heap.remove_conn(ConnId(x % 5)),
                        list.remove_where(|f| f.conn == ConnId(x % 5)),
                    ),
                    13 => (heap.take_completed().collect(), list.take_completed()),
                    _ => (
                        heap.remove_device(DeviceId(a)),
                        list.remove_where(|f| f.sender == DeviceId(a) || f.receiver == DeviceId(a)),
                    ),
                };
                proptest::prop_assert_eq!(key(&got), key(&want), "step {} op {}", step, op);
                proptest::prop_assert_eq!(heap.next_boundary(), list.next_boundary());
                proptest::prop_assert_eq!(heap.flow_count(), list.flows.len());
                for d in 0..DEVICES {
                    for tx in [true, false] {
                        proptest::prop_assert_eq!(
                            heap.device_active(DeviceId(d), tx),
                            list.device_active(DeviceId(d), tx)
                        );
                    }
                }
            }
        }
    }
}
