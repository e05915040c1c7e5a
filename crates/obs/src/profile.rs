//! Tick-phase wall-clock profiler for the simulator's event loop.
//!
//! [`TickProfiler`] attributes the runner's wall time to a fixed
//! [`Phase`] taxonomy (staged commit, fault evaluation, medium pump, timer
//! drain, telemetry sample). It counts each phase's wall time and scopes,
//! and the events the runner offered it ([`TickProfiler::count_event`]).
//! A scope costs two clock reads, so the deterministic scope and event
//! counts give the profiler's cost exactly. It also keeps a bounded ring of
//! recent [`PhaseSlice`]s for Chrome-trace export.
//!
//! **Determinism contract** (DESIGN.md §5j): the profiler is *read-only*
//! with respect to the simulation. It reads `std::time::Instant` and writes
//! only its own buffers — never the RNG, the event sequence, the metrics
//! registry, or the event ring — so enabling it cannot change any
//! simulation artifact. Because its measurements are wall-clock they are
//! inherently nondeterministic and are exported only through
//! [`TickProfiler::report`], which no deterministic artifact includes
//! (the same rule that keeps `*.wait_us` digests out of sampler JSONL).
//!
//! A region is measured with the [`PhaseScope`] token pair
//! [`TickProfiler::begin`] / [`TickProfiler::finish`], so no `&mut` borrow
//! of the profiler lives across the measured code (the runner's event
//! dispatch).

use std::collections::VecDeque;
use std::time::Instant;

/// Number of distinct phases in the taxonomy.
pub const PHASE_COUNT: usize = 5;

/// Where a slice of runner wall time is spent. See DESIGN.md §5j for the
/// event-kind mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Delivery and mobility events: BLE advertising ticks (each with its
    /// fan-out neighbor query), one-shot and NFC deliveries, stack start,
    /// and mobility steps. Its name is kept because the `omnibench`
    /// benchmark gates a metric built from it.
    StagedCommit,
    /// Fault-layer evaluation: partition windows and churn transitions.
    FaultEval,
    /// Medium pump: Wi-Fi scan/join, TCP connect, flow boundaries,
    /// multicast, and infra chunk completions.
    MediumPump,
    /// Timer drain: application and manager timer callbacks.
    TimerDrain,
    /// Telemetry sampling windows (`Engine::Sample`).
    TelemetrySample,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::StagedCommit,
        Phase::FaultEval,
        Phase::MediumPump,
        Phase::TimerDrain,
        Phase::TelemetrySample,
    ];

    /// Stable kebab-case name used in trace slices.
    pub fn name(self) -> &'static str {
        match self {
            Phase::StagedCommit => "staged-commit",
            Phase::FaultEval => "fault-eval",
            Phase::MediumPump => "medium-pump",
            Phase::TimerDrain => "timer-drain",
            Phase::TelemetrySample => "telemetry-sample",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

/// An in-flight phase measurement returned by [`TickProfiler::begin`].
///
/// Deliberately *not* RAII: dropping it without [`TickProfiler::finish`]
/// discards the measurement (never panics), so the runner can hold one
/// across code that needs `&mut self`.
#[derive(Debug)]
pub struct PhaseScope {
    phase: Phase,
    start: Instant,
}

impl PhaseScope {
    /// The phase this scope is charging, so callers can coalesce
    /// consecutive same-phase work into one measurement.
    pub fn phase(&self) -> Phase {
        self.phase
    }
}

/// One recorded phase interval, for Chrome-trace export. Timestamps are
/// wall-clock microseconds since the profiler was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseSlice {
    /// The phase measured.
    pub phase: Phase,
    /// Start offset from profiler creation, µs.
    pub start_us: u64,
    /// Duration, µs (at least 1 so renderers show it).
    pub dur_us: u64,
}

/// One phase's totals inside a [`PhaseReport`].
#[derive(Clone, Copy, Debug)]
pub struct PhaseStat {
    /// The phase.
    pub phase: Phase,
    /// Total wall time attributed, µs.
    pub total_us: u64,
    /// Number of scopes recorded.
    pub scopes: u64,
}

/// Aggregated profiler readout: per-phase breakdown and recent slices.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// One entry per [`Phase::ALL`] member, in that order.
    pub phases: Vec<PhaseStat>,
    /// Total profiled wall time, µs: the sum of the phases' totals.
    pub total_us: u64,
    /// Events the runner dispatched while profiling
    /// ([`TickProfiler::count_event`]).
    pub events: u64,
    /// Share of the profiled work that ran serially: always 1.0, since the
    /// runner is single-threaded (DESIGN.md §5g). Kept only because the
    /// `omnibench` benchmark prints it as `sim.serial_fraction`.
    pub serial_fraction: f64,
    /// Most recent phase slices (bounded; empty unless
    /// [`TickProfiler::set_slice_capacity`] was called).
    pub slices: Vec<PhaseSlice>,
}

impl PhaseReport {
    /// The stat row for one phase.
    pub fn phase(&self, phase: Phase) -> &PhaseStat {
        &self.phases[phase.idx()]
    }
}

/// Wall-clock profiler for the runner's tick phases. See the module docs
/// for the determinism contract.
#[derive(Debug)]
pub struct TickProfiler {
    epoch: Instant,
    total_ns: [u64; PHASE_COUNT],
    scopes: [u64; PHASE_COUNT],
    events: u64,
    slices: VecDeque<PhaseSlice>,
    slice_capacity: usize,
}

impl Default for TickProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl TickProfiler {
    /// A fresh profiler; the creation instant is the epoch for slices.
    pub fn new() -> Self {
        TickProfiler {
            epoch: Instant::now(),
            total_ns: [0; PHASE_COUNT],
            scopes: [0; PHASE_COUNT],
            events: 0,
            slices: VecDeque::new(),
            slice_capacity: 0,
        }
    }

    /// Keep the most recent `cap` phase slices for Chrome-trace export
    /// (0, the default, records none — the cheapest configuration).
    pub fn set_slice_capacity(&mut self, cap: usize) {
        self.slice_capacity = cap;
        self.slices.reserve(cap.saturating_sub(self.slices.len()));
    }

    /// Count one event the runner dispatched, whether or not it opened a
    /// scope.
    #[inline]
    pub fn count_event(&mut self) {
        self.events += 1;
    }

    /// Start measuring `phase`; pass the returned token to
    /// [`TickProfiler::finish`]. Takes `&self` so a token can be opened
    /// before code that borrows the owner mutably.
    #[inline]
    pub fn begin(&self, phase: Phase) -> PhaseScope {
        PhaseScope { phase, start: Instant::now() }
    }

    /// Record the time since `scope` was begun.
    #[inline]
    pub fn finish(&mut self, scope: PhaseScope) {
        self.record_elapsed(scope.phase, scope.start);
    }

    fn record_elapsed(&mut self, phase: Phase, start: Instant) {
        let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let i = phase.idx();
        self.total_ns[i] += ns;
        self.scopes[i] += 1;
        if self.slice_capacity > 0 {
            if self.slices.len() == self.slice_capacity {
                self.slices.pop_front();
            }
            let start_us = start.duration_since(self.epoch).as_micros() as u64;
            self.slices.push_back(PhaseSlice { phase, start_us, dur_us: (ns / 1_000).max(1) });
        }
    }

    /// Aggregate everything recorded so far.
    pub fn report(&self) -> PhaseReport {
        // Truncate each phase to µs first and total the truncated values,
        // so the phase totals sum to exactly `total_us`.
        let phases: Vec<PhaseStat> = Phase::ALL
            .iter()
            .map(|&phase| PhaseStat {
                phase,
                total_us: self.total_ns[phase.idx()] / 1_000,
                scopes: self.scopes[phase.idx()],
            })
            .collect();
        PhaseReport {
            total_us: phases.iter().map(|p| p.total_us).sum(),
            phases,
            events: self.events,
            serial_fraction: 1.0,
            slices: self.slices.iter().copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let until = Instant::now() + d;
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn scopes_attribute_time_to_their_phase() {
        let mut p = TickProfiler::new();
        let token = p.begin(Phase::StagedCommit);
        spin(Duration::from_millis(2));
        p.finish(token);
        let token = p.begin(Phase::TimerDrain);
        spin(Duration::from_millis(1));
        p.finish(token);
        let r = p.report();
        assert!(r.phase(Phase::StagedCommit).total_us >= 1_000);
        assert!(r.phase(Phase::TimerDrain).total_us >= 500);
        assert_eq!(r.phase(Phase::StagedCommit).scopes, 1);
        assert_eq!(r.phase(Phase::FaultEval).total_us, 0);
        let phase_sum: u64 = r.phases.iter().map(|s| s.total_us).sum();
        assert_eq!(phase_sum, r.total_us, "the phase totals sum to the total");
        assert_eq!(r.events, 0, "no event was counted");
        p.count_event();
        assert_eq!(p.report().events, 1);
    }

    #[test]
    fn dropped_token_discards_the_measurement() {
        let p = TickProfiler::new();
        let token = p.begin(Phase::MediumPump);
        let _discarded = token;
        let r = p.report();
        assert_eq!(r.phase(Phase::MediumPump).scopes, 0);
        assert_eq!(r.total_us, 0);
        assert_eq!(r.serial_fraction, 1.0, "the single-threaded runner is all-serial");
    }

    #[test]
    fn slice_ring_is_bounded_and_recent() {
        let mut p = TickProfiler::new();
        p.set_slice_capacity(3);
        for _ in 0..10 {
            let t = p.begin(Phase::TimerDrain);
            p.finish(t);
        }
        let r = p.report();
        assert_eq!(r.slices.len(), 3, "ring keeps only the most recent slices");
        assert!(r.slices.iter().all(|s| s.dur_us >= 1));
        // Default capacity records nothing.
        let mut q = TickProfiler::new();
        let t = q.begin(Phase::TimerDrain);
        q.finish(t);
        assert!(q.report().slices.is_empty());
    }
}
