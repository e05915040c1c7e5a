//! Tick-phase wall-clock profiler for the simulator's event loop.
//!
//! [`TickProfiler`] attributes the runner's wall time to a fixed
//! [`Phase`] taxonomy (beacon planning, sharded fan-out, staged commit,
//! fault evaluation, medium pump, timer drain, telemetry sample), keeps a
//! per-phase [`QuantileDigest`] of scope latencies, per-shard busy time for
//! utilization/imbalance, staged-batch occupancy, and a bounded ring of
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
//! Two instrumentation styles are supported: the RAII guard
//! [`TickProfiler::scope`] for straight-line regions, and the
//! [`PhaseScope`] token pair [`TickProfiler::begin`] /
//! [`TickProfiler::finish`] for regions where an `&mut` borrow of the
//! profiler cannot live across the measured code (the runner's event
//! dispatch). Worker threads never touch the profiler: they time
//! themselves and the runner merges their busy time at commit via
//! [`TickProfiler::record_shard_busy`].

use std::collections::VecDeque;
use std::time::Instant;

use crate::digest::{DigestSummary, QuantileDigest};

/// Number of distinct phases in the taxonomy.
pub const PHASE_COUNT: usize = 7;

/// Where a slice of runner wall time is spent. See DESIGN.md §5j for the
/// event-kind mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Serial beacon fan-out planning: popping the due batch, grouping by
    /// shard, and (inline or post-join) assembling staged plans.
    BeaconPlan,
    /// The parallel region of `refill_staged`: scoped worker threads
    /// planning advertisements per spatial shard. Total time here is the
    /// parallel *wall* time; per-worker busy time is tracked separately.
    ShardFanout,
    /// Serial commit of staged events: BLE adv delivery, one-shot and NFC
    /// deliveries, stack start, and mobility steps.
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
        Phase::BeaconPlan,
        Phase::ShardFanout,
        Phase::StagedCommit,
        Phase::FaultEval,
        Phase::MediumPump,
        Phase::TimerDrain,
        Phase::TelemetrySample,
    ];

    /// Stable kebab-case name used in flamegraph stacks and trace slices.
    pub fn name(self) -> &'static str {
        match self {
            Phase::BeaconPlan => "beacon-plan",
            Phase::ShardFanout => "shard-fanout",
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

/// RAII guard from [`TickProfiler::scope`]: records the elapsed phase time
/// on drop.
#[derive(Debug)]
pub struct ScopedPhase<'a> {
    profiler: &'a mut TickProfiler,
    phase: Phase,
    start: Instant,
}

impl Drop for ScopedPhase<'_> {
    fn drop(&mut self) {
        self.profiler.record_elapsed(self.phase, self.start);
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

/// Per-phase totals and latency quantiles inside a [`PhaseReport`].
#[derive(Clone, Copy, Debug)]
pub struct PhaseStat {
    /// The phase.
    pub phase: Phase,
    /// Total wall time attributed, µs.
    pub total_us: u64,
    /// Number of scopes recorded.
    pub scopes: u64,
    /// Fraction of the profiled total (0 when nothing was recorded).
    pub share: f64,
    /// Per-scope latency quantiles, µs.
    pub p50_us: u64,
    /// 99th percentile scope latency, µs.
    pub p99_us: u64,
    /// 99.9th percentile scope latency, µs.
    pub p999_us: u64,
}

/// Aggregated profiler readout: per-phase breakdown, shard utilization,
/// serial-fraction estimate, and recent slices.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// One entry per [`Phase::ALL`] member, in that order.
    pub phases: Vec<PhaseStat>,
    /// Total profiled wall time, µs.
    pub total_us: u64,
    /// Wall time outside the parallel fan-out region, µs.
    pub serial_us: u64,
    /// Wall time of the parallel fan-out region, µs.
    pub parallel_wall_us: u64,
    /// Self-reported busy time per worker shard, µs.
    pub shard_busy_us: Vec<u64>,
    /// Sum of all worker busy time, µs.
    pub parallel_busy_us: u64,
    /// Amdahl serial fraction `s`: serial wall over total *work*
    /// (`serial / (serial + Σ busy)`). 1.0 when no parallel work ran.
    pub serial_fraction: f64,
    /// `1 / s` — the speedup ceiling over a fully-serial execution of the
    /// same work, whatever the shard count.
    pub amdahl_ceiling: f64,
    /// Max worker busy over mean worker busy (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Staged-batch occupancy (events per refill) distribution.
    pub batch_occupancy: DigestSummary,
    /// Most recent phase slices (bounded; empty unless
    /// [`TickProfiler::set_slice_capacity`] was called).
    pub slices: Vec<PhaseSlice>,
}

impl PhaseReport {
    /// Per-shard utilization: busy time over the parallel wall time
    /// (empty when no parallel region ran).
    pub fn utilization(&self) -> Vec<f64> {
        if self.parallel_wall_us == 0 {
            return vec![0.0; self.shard_busy_us.len()];
        }
        self.shard_busy_us.iter().map(|b| *b as f64 / self.parallel_wall_us as f64).collect()
    }

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
    latency_us: [QuantileDigest; PHASE_COUNT],
    shard_busy_ns: Vec<u64>,
    batch_occupancy: QuantileDigest,
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
            latency_us: std::array::from_fn(|_| QuantileDigest::new()),
            shard_busy_ns: Vec::new(),
            batch_occupancy: QuantileDigest::new(),
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

    /// RAII variant of [`TickProfiler::begin`]: records on drop.
    pub fn scope(&mut self, phase: Phase) -> ScopedPhase<'_> {
        let start = Instant::now();
        ScopedPhase { profiler: self, phase, start }
    }

    fn record_elapsed(&mut self, phase: Phase, start: Instant) {
        let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let i = phase.idx();
        self.total_ns[i] += ns;
        self.scopes[i] += 1;
        self.latency_us[i].record(ns / 1_000);
        if self.slice_capacity > 0 {
            if self.slices.len() == self.slice_capacity {
                self.slices.pop_front();
            }
            let start_us = start.duration_since(self.epoch).as_micros() as u64;
            self.slices.push_back(PhaseSlice { phase, start_us, dur_us: (ns / 1_000).max(1) });
        }
    }

    /// Merge one worker's self-timed busy nanoseconds for `shard` — called
    /// from the serial commit side after the scoped threads join, so the
    /// profiler itself is never shared across threads.
    pub fn record_shard_busy(&mut self, shard: usize, busy_ns: u64) {
        if self.shard_busy_ns.len() <= shard {
            self.shard_busy_ns.resize(shard + 1, 0);
        }
        self.shard_busy_ns[shard] += busy_ns;
    }

    /// Record how full one staged batch was (events popped per refill).
    pub fn record_batch_occupancy(&mut self, events: u64) {
        self.batch_occupancy.record(events);
    }

    /// Aggregate everything recorded so far.
    pub fn report(&self) -> PhaseReport {
        // Truncate each phase to µs first and total the truncated values,
        // so per-phase shares sum to exactly 1.
        let phase_us: [u64; PHASE_COUNT] = std::array::from_fn(|i| self.total_ns[i] / 1_000);
        let total_us: u64 = phase_us.iter().sum();
        let parallel_wall_us = phase_us[Phase::ShardFanout.idx()];
        let serial_us = total_us.saturating_sub(parallel_wall_us);
        let shard_busy_us: Vec<u64> = self.shard_busy_ns.iter().map(|ns| ns / 1_000).collect();
        let parallel_busy_us: u64 = shard_busy_us.iter().sum();
        let work_us = serial_us + parallel_busy_us;
        let serial_fraction = if parallel_busy_us == 0 || work_us == 0 {
            1.0
        } else {
            serial_us as f64 / work_us as f64
        };
        let amdahl_ceiling = if serial_fraction > 0.0 { 1.0 / serial_fraction } else { 1.0 };
        let imbalance = {
            let n = shard_busy_us.iter().filter(|b| **b > 0).count();
            if n == 0 {
                1.0
            } else {
                let max = *shard_busy_us.iter().max().unwrap_or(&0) as f64;
                let mean = parallel_busy_us as f64 / n as f64;
                if mean > 0.0 {
                    max / mean
                } else {
                    1.0
                }
            }
        };
        let phases = Phase::ALL
            .iter()
            .map(|p| {
                let i = p.idx();
                let us = phase_us[i];
                let s = self.latency_us[i].summary();
                PhaseStat {
                    phase: *p,
                    total_us: us,
                    scopes: self.scopes[i],
                    share: if total_us == 0 { 0.0 } else { us as f64 / total_us as f64 },
                    p50_us: s.p50,
                    p99_us: s.p99,
                    p999_us: s.p999,
                }
            })
            .collect();
        PhaseReport {
            phases,
            total_us,
            serial_us,
            parallel_wall_us,
            shard_busy_us,
            parallel_busy_us,
            serial_fraction,
            amdahl_ceiling,
            imbalance,
            batch_occupancy: self.batch_occupancy.summary(),
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
        {
            let _s = p.scope(Phase::StagedCommit);
            spin(Duration::from_millis(2));
        }
        let token = p.begin(Phase::TimerDrain);
        spin(Duration::from_millis(1));
        p.finish(token);
        let r = p.report();
        assert!(r.phase(Phase::StagedCommit).total_us >= 1_000);
        assert!(r.phase(Phase::TimerDrain).total_us >= 500);
        assert_eq!(r.phase(Phase::StagedCommit).scopes, 1);
        assert_eq!(r.phase(Phase::FaultEval).total_us, 0);
        let share_sum: f64 = r.phases.iter().map(|s| s.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to 1, got {share_sum}");
    }

    #[test]
    fn dropped_token_discards_the_measurement() {
        let p = TickProfiler::new();
        let token = p.begin(Phase::MediumPump);
        let _discarded = token;
        let r = p.report();
        assert_eq!(r.phase(Phase::MediumPump).scopes, 0);
        assert_eq!(r.total_us, 0);
        assert_eq!(r.serial_fraction, 1.0, "empty profiler is all-serial by definition");
    }

    #[test]
    fn serial_fraction_and_utilization_from_merged_busy_time() {
        let mut p = TickProfiler::new();
        // 10ms serial commit, a 4ms parallel wall with 2 workers busy
        // 4ms + 2ms: work = 10 + 6 = 16ms serial 10 → s = 0.625.
        let token = p.begin(Phase::StagedCommit);
        spin(Duration::from_millis(1));
        p.finish(token);
        // Overwrite measured values with exact synthetic ones via the merge
        // APIs (shard busy is merge-only, phase totals accumulate).
        p.total_ns = [0; PHASE_COUNT];
        p.total_ns[Phase::StagedCommit.idx()] = 10_000_000;
        p.total_ns[Phase::ShardFanout.idx()] = 4_000_000;
        p.record_shard_busy(0, 4_000_000);
        p.record_shard_busy(1, 2_000_000);
        let r = p.report();
        assert_eq!(r.serial_us, 10_000);
        assert_eq!(r.parallel_wall_us, 4_000);
        assert_eq!(r.parallel_busy_us, 6_000);
        assert!((r.serial_fraction - 0.625).abs() < 1e-9);
        assert!((r.amdahl_ceiling - 1.6).abs() < 1e-9);
        assert!((r.imbalance - (4_000.0 / 3_000.0)).abs() < 1e-9);
        let util = r.utilization();
        assert!((util[0] - 1.0).abs() < 1e-9);
        assert!((util[1] - 0.5).abs() < 1e-9);
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

    #[test]
    fn batch_occupancy_feeds_the_digest() {
        let mut p = TickProfiler::new();
        for n in [100u64, 2048, 2048] {
            p.record_batch_occupancy(n);
        }
        let r = p.report();
        assert_eq!(r.batch_occupancy.count, 3);
        assert_eq!(r.batch_occupancy.max, 2048);
    }
}
