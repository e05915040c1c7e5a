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
    flows: Vec<Flow>,
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
            flows: Vec::new(),
            last_update: SimTime::ZERO,
            boundary_gen: 0,
            mcast_active: None,
            mcast_gen: 0,
            mcast_queue: VecDeque::new(),
        }
    }

    fn rate_per_flow(&self) -> f64 {
        if self.mcast_active.is_some() || self.flows.is_empty() {
            0.0
        } else {
            self.capacity_bps / self.flows.len() as f64
        }
    }

    /// Advances flow progress to `now` and removes (returning) completed
    /// flows. Must be called before any mutation of the flow set or the
    /// multicast state.
    pub fn advance(&mut self, now: SimTime) -> Vec<Flow> {
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        let rate = self.rate_per_flow();
        self.last_update = now;
        if rate > 0.0 && dt > 0.0 {
            for f in &mut self.flows {
                f.remaining -= rate * dt;
            }
        }
        // Complete anything within 2 µs worth of bytes of the boundary to
        // absorb microsecond event rounding.
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
        done
    }

    /// Adds a unicast flow. Caller must have `advance`d to `now` first.
    pub fn add_flow(&mut self, flow: Flow) {
        debug_assert!(flow.remaining > 0.0);
        self.flows.push(flow);
    }

    /// Removes (and returns) all flows on a connection, e.g. because it
    /// closed. Caller must have `advance`d first.
    pub fn remove_conn(&mut self, conn: ConnId) -> Vec<Flow> {
        let mut removed = Vec::new();
        let mut i = 0;
        while i < self.flows.len() {
            if self.flows[i].conn == conn {
                removed.push(self.flows.remove(i));
            } else {
                i += 1;
            }
        }
        removed
    }

    /// Removes all flows involving a device (radio power-off, node churn).
    /// Caller must have `advance`d first.
    pub fn remove_device(&mut self, dev: DeviceId) -> Vec<Flow> {
        let mut removed = Vec::new();
        let mut i = 0;
        while i < self.flows.len() {
            if self.flows[i].sender == dev || self.flows[i].receiver == dev {
                removed.push(self.flows.remove(i));
            } else {
                i += 1;
            }
        }
        removed
    }

    /// When the earliest flow will complete, if flows are progressing.
    pub fn next_boundary(&self) -> Option<SimTime> {
        let rate = self.rate_per_flow();
        if rate <= 0.0 {
            return None;
        }
        let min_remaining = self.flows.iter().map(|f| f.remaining).fold(f64::INFINITY, f64::min);
        // +1 µs so that at the event, remaining has crossed zero within the
        // advance() epsilon.
        let us = (min_remaining / rate * 1e6).ceil() as u64 + 1;
        Some(self.last_update + SimDuration::from_micros(us))
    }

    /// Whether any flow is currently active for the given device and
    /// direction (`tx`: device is the sender).
    pub fn device_active(&self, dev: DeviceId, tx: bool) -> bool {
        self.flows.iter().any(|f| if tx { f.sender == dev } else { f.receiver == dev })
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
        self.flows.len()
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
        let done = m.advance(b);
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
        let done = m.advance(b);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn remaining_flow_speeds_up_after_departure() {
        let mut m = WifiMedium::new(1_000_000.0);
        m.advance(SimTime::ZERO);
        m.add_flow(flow(0, 0, 1, 100_000.0));
        m.add_flow(flow(1, 2, 3, 300_000.0));
        let b1 = m.next_boundary().unwrap(); // flow 0 at 0.2 s
        let done = m.advance(b1);
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
        let done = m.advance(SimTime::from_millis(50));
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
}
