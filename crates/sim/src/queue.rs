//! The runner's event queue: a `(time, seq)` heap plus FIFO lanes, one per
//! fixed latency of the simulator and one per BLE advertising interval.
//!
//! Most scheduled events are due a fixed delay after they are scheduled: a
//! BLE one-shot's deliveries and completion [`BLE_ONESHOT_LATENCY`] later,
//! a walk step or a one-second timer one second later, an advertising pulse
//! one interval later. Those go into a lane per delay instead of the heap.
//! The fixed lanes are made once, with the queue; the advertising lanes are
//! made per interval on demand and reused when drained. One argument orders
//! every lane:
//!
//! - all entries of a lane share one delay;
//! - `now` never decreases and `seq` only grows;
//! - so a lane is appended in `(time, seq)` order, and its front is its
//!   least entry.
//!
//! [`EventQueue::pop_due`] takes the least `(time, seq)` among the heap top
//! and the lane fronts. Every event therefore pops in exactly the order one
//! heap holding everything would give, while a lane entry costs an O(1)
//! append and pop instead of an O(log n) sift; a pulse's entry is also 32
//! bytes instead of 80 (DESIGN.md §5g).
//!
//! [`BLE_ONESHOT_LATENCY`]: crate::BLE_ONESHOT_LATENCY

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

/// An entry of the heap or of a lane: 32 bytes for a pulse.
struct Scheduled<T> {
    at: SimTime,
    seq: u64,
    ev: T,
}

impl<T> Scheduled<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The entries scheduled at one delay, in `(time, seq)` order.
struct Lane<T> {
    delay: SimDuration,
    entries: VecDeque<Scheduled<T>>,
}

impl<T> Lane<T> {
    fn new(delay: SimDuration) -> Self {
        Lane { delay, entries: VecDeque::new() }
    }

    fn push_back(&mut self, entry: Scheduled<T>) {
        debug_assert!(self.entries.back().is_none_or(|b| b.at <= entry.at), "lane went backwards");
        self.entries.push_back(entry);
    }
}

/// Lowers `least` to the least lane front below it, and returns that
/// lane's index if there is one.
fn least_front<T>(lanes: &[Lane<T>], least: &mut Option<(SimTime, u64)>) -> Option<usize> {
    let mut found = None;
    for (i, l) in lanes.iter().enumerate() {
        if let Some(k) = l.entries.front().map(Scheduled::key) {
            if least.is_none_or(|m| k < m) {
                *least = Some(k);
                found = Some(i);
            }
        }
    }
    found
}

/// Events in `(time, seq)` order; `seq` is drawn from one counter for heap
/// events and lane entries alike.
pub(crate) struct EventQueue<E> {
    seq: u64,
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    /// One lane per fixed latency, made with the queue and never removed.
    fixed: Vec<Lane<E>>,
    /// One lane per advertising interval with pulses pending.
    pulses: Vec<Lane<Pulse>>,
}

impl<E> EventQueue<E> {
    /// An empty queue with one lane for each of `fixed_delays`.
    pub(crate) fn new(fixed_delays: &[SimDuration]) -> Self {
        EventQueue {
            seq: 0,
            heap: BinaryHeap::new(),
            fixed: fixed_delays.iter().map(|&d| Lane::new(d)).collect(),
            pulses: Vec::new(),
        }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `ev` at `now + delay`: in the fixed lane of `delay` if the
    /// queue has one, in the heap otherwise. `now` must not be earlier than
    /// any previous call's, which keeps every lane in `(time, seq)` order.
    pub(crate) fn push(&mut self, now: SimTime, delay: SimDuration, ev: E) {
        let entry = Scheduled { at: now + delay, seq: self.next_seq(), ev };
        match self.fixed.iter_mut().find(|l| l.delay == delay) {
            Some(lane) => lane.push_back(entry),
            None => self.heap.push(Reverse(entry)),
        }
    }

    /// Schedules a re-armed pulse at `now + interval` in the lane of
    /// `interval`, under the same rule on `now` as [`EventQueue::push`].
    pub(crate) fn push_pulse(&mut self, now: SimTime, interval: SimDuration, pulse: Pulse) {
        let entry = Scheduled { at: now + interval, seq: self.next_seq(), ev: pulse };
        let i = match self.pulses.iter().position(|l| l.delay == interval) {
            Some(i) => i,
            // A drained lane is reused, so the lane count stays at the
            // number of intervals with pulses pending at once.
            None => match self.pulses.iter().position(|l| l.entries.is_empty()) {
                Some(i) => {
                    self.pulses[i].delay = interval;
                    i
                }
                None => {
                    self.pulses.push(Lane::new(interval));
                    self.pulses.len() - 1
                }
            },
        };
        self.pulses[i].push_back(entry);
    }

    /// Pops the least `(time, seq)` event due at or before `t`.
    pub(crate) fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, E)>
    where
        E: From<Pulse>,
    {
        let mut least = self.heap.peek().map(|Reverse(s)| s.key());
        let fixed = least_front(&self.fixed, &mut least);
        let pulse = least_front(&self.pulses, &mut least);
        let (at, _) = least.filter(|&(at, _)| at <= t)?;
        let ev = match (fixed, pulse) {
            (_, Some(i)) => self.pulses[i].entries.pop_front().expect("front exists").ev.into(),
            (Some(i), None) => self.fixed[i].entries.pop_front().expect("front exists").ev,
            (None, None) => {
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

    /// Pending events: heap, fixed lanes and pulse lanes.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
            + self.fixed.iter().map(|l| l.entries.len()).sum::<usize>()
            + self.pulses.iter().map(|l| l.entries.len()).sum::<usize>()
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

    /// The runner's fixed latencies: a BLE one-shot's and a walk step's.
    const FIXED: [SimDuration; 2] = [SimDuration::from_millis(41), SimDuration::from_secs(1)];

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
        assert_eq!(std::mem::size_of::<Scheduled<Pulse>>(), 32);
    }

    #[test]
    fn heap_and_lanes_merge_in_time_then_seq_order() {
        let mut q = EventQueue::new(&FIXED);
        let t0 = SimTime::ZERO;
        let ms = SimDuration::from_millis;
        q.push(t0, ms(41), Label(1)); // seq 0, the 41 ms fixed lane
        q.push_pulse(t0, ms(41), pulse(1)); // seq 1, a pulse lane, same instant
        q.push_pulse(t0, ms(5), pulse(2)); // seq 2, another pulse lane, earlier
        q.push(t0 + ms(1), ms(40), Label(3)); // seq 3, the heap, ties with both
        q.push_pulse(t0 + ms(1), ms(40), pulse(4)); // seq 4, a third pulse lane
        q.push(t0 + ms(1), ms(41), Label(5)); // seq 5, the fixed lane, at 42 ms
        assert_eq!(q.len(), 6);
        assert_eq!(
            drain(&mut q, t0 + ms(41)),
            vec![(5_000, 1002), (41_000, 1), (41_000, 1001), (41_000, 3), (41_000, 1004)]
        );
        assert_eq!(q.len(), 1);
        assert_eq!(drain(&mut q, t0 + ms(42)), vec![(42_000, 5)]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn nothing_later_than_the_horizon_pops() {
        let mut q = EventQueue::new(&FIXED);
        q.push_pulse(SimTime::ZERO, SimDuration::from_millis(2), pulse(0));
        q.push(SimTime::ZERO, SimDuration::from_millis(3), Label(7));
        assert!(q.pop_due(SimTime::from_millis(1)).is_none());
        assert_eq!(drain(&mut q, SimTime::from_millis(2)), vec![(2_000, 1000)]);
        assert_eq!(drain(&mut q, SimTime::from_millis(3)), vec![(3_000, 7)]);
    }

    #[test]
    fn a_drained_lane_is_reused_for_a_new_interval() {
        let mut q = EventQueue::new(&FIXED);
        q.push_pulse(SimTime::ZERO, SimDuration::from_millis(1), pulse(0));
        drain(&mut q, SimTime::from_millis(1));
        q.push_pulse(SimTime::from_millis(1), SimDuration::from_millis(7), pulse(1));
        assert_eq!(q.pulses.len(), 1);
        assert_eq!(drain(&mut q, SimTime::from_millis(8)), vec![(8_000, 1001)]);
    }

    /// A test event tagged with the `seq` the queue draws for it; a pulse
    /// carries its tag as its generation.
    struct Tag(u64);

    impl From<Pulse> for Tag {
        fn from(p: Pulse) -> Self {
            Tag(p.gen)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Random pushes at zero, at both fixed latencies and at a uniform
        /// delay, pulses on two intervals (one equal to a fixed latency) and
        /// pops to random horizons: after every step the queue has popped
        /// exactly what one heap ordered by `(time, seq)` pops, and holds as
        /// many events.
        #[test]
        fn pops_match_one_heap_holding_everything(
            ops in proptest::collection::vec((0u8..10, 0u64..1_500), 1_000..4_000),
        ) {
            let ms = SimDuration::from_millis;
            let mut q = EventQueue::new(&FIXED);
            let mut reference = BinaryHeap::new();
            let mut now = SimTime::ZERO;
            let mut seq = 0;
            for (step, &(op, x)) in ops.iter().enumerate() {
                match op {
                    0..=3 => {
                        let delay = [SimDuration::ZERO, FIXED[0], FIXED[1], ms(x)][op as usize];
                        q.push(now, delay, Tag(seq));
                        reference.push(Reverse((now + delay, seq)));
                        seq += 1;
                    }
                    4 => {
                        let interval = if x % 2 == 0 { ms(500) } else { FIXED[0] };
                        q.push_pulse(now, interval, Pulse { dev: 0, slot: 0, gen: seq });
                        reference.push(Reverse((now + interval, seq)));
                        seq += 1;
                    }
                    _ => {
                        let horizon = now + ms(x % 200);
                        let got = q.pop_due(horizon).map(|(at, Tag(s))| (at, s));
                        let want = match reference.peek() {
                            Some(&Reverse((at, _))) if at <= horizon => {
                                reference.pop().map(|Reverse(k)| k)
                            }
                            _ => None,
                        };
                        proptest::prop_assert_eq!(got, want, "step {}", step);
                        now = got.map_or(horizon, |(at, _)| at);
                    }
                }
                proptest::prop_assert_eq!(q.len(), reference.len(), "step {}", step);
            }
        }
    }
}
