//! The runner's event queue: a `(time, seq)` heap plus one FIFO lane per
//! BLE advertising interval.
//!
//! In a large fleet nearly every scheduled event is an advertising pulse
//! re-arming itself at `now + interval`. Those re-arms go into a lane per
//! interval instead of the heap. `now` never decreases and `seq` always
//! increases, so each lane is appended in `(time, seq)` order and its front
//! is its least entry; [`EventQueue::pop_due`] takes the least `(time, seq)`
//! among the heap top and the lane fronts. Every event therefore pops in
//! exactly the order one heap holding everything would give, while a pulse
//! costs an O(1) append and pop of a 32-byte entry instead of an O(log n)
//! sift of an 80-byte one (DESIGN.md §5g).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// The heap is never shrunk below this many entries, so a small queue whose
/// length swings back and forth does not reallocate on every swing.
const HEAP_SHRINK_FLOOR: usize = 1024;

/// A re-armed advertising pulse: slot `slot` of device `dev`, valid while
/// the slot's registration generation is still `gen`. It leaves the queue
/// converted into the caller's event type.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pulse {
    pub(crate) dev: u32,
    pub(crate) slot: u32,
    pub(crate) gen: u64,
}

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A lane entry: 32 bytes.
#[derive(Debug, Clone, Copy)]
struct LaneEntry {
    at: SimTime,
    seq: u64,
    pulse: Pulse,
}

/// The pulses re-armed at one advertising interval, in `(time, seq)` order.
struct Lane {
    interval: SimDuration,
    entries: VecDeque<LaneEntry>,
}

/// Events in `(time, seq)` order; `seq` is drawn from one counter for heap
/// events and lane pulses alike.
pub(crate) struct EventQueue<E> {
    seq: u64,
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    lanes: Vec<Lane>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue { seq: 0, heap: BinaryHeap::new(), lanes: Vec::new() }
    }
}

impl<E> EventQueue<E> {
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `ev` at `at`.
    pub(crate) fn push(&mut self, at: SimTime, ev: E) {
        let seq = self.next_seq();
        self.heap.push(Reverse(Scheduled { at, seq, ev }));
    }

    /// Schedules a re-armed pulse at `now + interval` in the lane of
    /// `interval`. `now` must not be earlier than any previous call's, which
    /// keeps every lane in `(time, seq)` order.
    pub(crate) fn push_pulse(&mut self, now: SimTime, interval: SimDuration, pulse: Pulse) {
        let at = now + interval;
        let seq = self.next_seq();
        let i = match self.lanes.iter().position(|l| l.interval == interval) {
            Some(i) => i,
            // A drained lane is reused, so the lane count stays at the
            // number of intervals with pulses pending at once.
            None => match self.lanes.iter().position(|l| l.entries.is_empty()) {
                Some(i) => {
                    self.lanes[i].interval = interval;
                    i
                }
                None => {
                    self.lanes.push(Lane { interval, entries: VecDeque::new() });
                    self.lanes.len() - 1
                }
            },
        };
        let entries = &mut self.lanes[i].entries;
        debug_assert!(entries.back().is_none_or(|b| b.at <= at), "lane went backwards");
        entries.push_back(LaneEntry { at, seq, pulse });
    }

    /// Pops the least `(time, seq)` event due at or before `t`.
    pub(crate) fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, E)>
    where
        E: From<Pulse>,
    {
        let mut next = self.heap.peek().map(|Reverse(s)| (s.at, s.seq));
        let mut lane = None;
        for (i, l) in self.lanes.iter().enumerate() {
            if let Some(e) = l.entries.front() {
                if next.is_none_or(|k| (e.at, e.seq) < k) {
                    next = Some((e.at, e.seq));
                    lane = Some(i);
                }
            }
        }
        let (at, _) = next.filter(|&(at, _)| at <= t)?;
        let ev = match lane {
            Some(i) => self.lanes[i].entries.pop_front().expect("front exists").pulse.into(),
            None => {
                let Reverse(s) = self.heap.pop().expect("peeked");
                self.shrink_heap();
                s.ev
            }
        };
        Some((at, ev))
    }

    /// Gives back heap memory once a burst has drained: a `BinaryHeap`
    /// otherwise keeps its peak capacity forever (at fleet build time, one
    /// start event per device plus the first pulses). Halving only below a
    /// quarter full means a shrink is followed by at least a doubling of the
    /// length before the heap grows again.
    fn shrink_heap(&mut self) {
        let cap = self.heap.capacity();
        if cap > HEAP_SHRINK_FLOOR && self.heap.len() < cap / 4 {
            self.heap.shrink_to(cap / 2);
        }
    }

    /// Pending heap events and lane pulses.
    pub(crate) fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(|l| l.entries.len()).sum::<usize>()
    }

    /// The heap's allocated capacity, in entries.
    #[cfg(test)]
    pub(crate) fn heap_capacity(&self) -> usize {
        self.heap.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test event: heap events carry a label, pulses arrive as `1000 + dev`.
    struct Label(u32);

    impl From<Pulse> for Label {
        fn from(p: Pulse) -> Self {
            Label(1000 + p.dev)
        }
    }

    fn pulse(dev: u32) -> Pulse {
        Pulse { dev, slot: 0, gen: 1 }
    }

    /// Drains everything due by `t` as `(time, label)` pairs.
    fn drain(q: &mut EventQueue<Label>, t: SimTime) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop_due(t)).map(|(at, Label(l))| (at.as_micros(), l)).collect()
    }

    #[test]
    fn lane_entries_are_32_bytes() {
        assert_eq!(std::mem::size_of::<LaneEntry>(), 32);
    }

    #[test]
    fn heap_and_lanes_merge_in_time_then_seq_order() {
        let mut q = EventQueue::default();
        let t0 = SimTime::ZERO;
        let ms = SimDuration::from_millis;
        q.push(t0 + ms(10), Label(1)); // seq 0
        q.push_pulse(t0, ms(10), pulse(1)); // seq 1, same instant as the event
        q.push_pulse(t0, ms(5), pulse(2)); // seq 2, another lane, earlier
        q.push(t0 + ms(10), Label(3)); // seq 3, ties with both at 10 ms
        q.push_pulse(t0, ms(10), pulse(4)); // seq 4
        assert_eq!(q.len(), 5);
        assert_eq!(
            drain(&mut q, t0 + ms(10)),
            vec![(5_000, 1002), (10_000, 1), (10_000, 1001), (10_000, 3), (10_000, 1004)]
        );
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn nothing_later_than_the_horizon_pops() {
        let mut q = EventQueue::default();
        q.push_pulse(SimTime::ZERO, SimDuration::from_millis(2), pulse(0));
        q.push(SimTime::from_millis(3), Label(7));
        assert!(q.pop_due(SimTime::from_millis(1)).is_none());
        assert_eq!(drain(&mut q, SimTime::from_millis(2)), vec![(2_000, 1000)]);
        assert_eq!(drain(&mut q, SimTime::from_millis(3)), vec![(3_000, 7)]);
    }

    #[test]
    fn a_drained_lane_is_reused_for_a_new_interval() {
        let mut q = EventQueue::default();
        q.push_pulse(SimTime::ZERO, SimDuration::from_millis(1), pulse(0));
        drain(&mut q, SimTime::from_millis(1));
        q.push_pulse(SimTime::from_millis(1), SimDuration::from_millis(7), pulse(1));
        assert_eq!(q.lanes.len(), 1);
        assert_eq!(drain(&mut q, SimTime::from_millis(8)), vec![(8_000, 1001)]);
    }
}
