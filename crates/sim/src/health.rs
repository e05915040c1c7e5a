//! Fleet health derivation from windowed telemetry.
//!
//! The [`HealthMonitor`] folds one [`WindowStats`] per sampling window into
//! a three-level fleet [`HealthState`].  Every change of state produces a
//! [`HealthEvent`] naming the *cause* that tripped it, which the runner
//! records as [`omni_obs::EventKind::HealthTransition`] with the fleet-scope
//! node id `u32::MAX` — so the `FlightRecorder` timeline can correlate
//! degradation with the fault windows that caused it.
//!
//! Derivation is pure and deterministic: same window inputs, same verdict.
//! The thresholds are constants, conservative enough that a fault-free
//! fleet never leaves [`HealthState::Healthy`].

/// Fleet-wide health, coarsest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// All windowed signals inside their thresholds.
    Healthy,
    /// At least one signal (delivery ratio, queue high-water, beacon
    /// staleness, churn) outside its degraded threshold.
    Degraded,
    /// Delivery collapsing or a large fraction of the fleet down.
    Critical,
}

impl HealthState {
    /// Stable lowercase name used in events and JSONL.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Critical => "critical",
        }
    }
}

/// One sampling window's fleet-wide signals, as counter deltas and
/// watermarks (not lifetime aggregates).
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowStats {
    /// Directed-send attempts that reached a terminal status this window.
    pub attempted: u64,
    /// Of those, how many were delivered.
    pub delivered: u64,
    /// Highest queue depth seen anywhere in the fleet this window.
    pub queue_hi: i64,
    /// Microseconds since the last beacon was sent anywhere (staleness).
    pub beacon_stale_us: u64,
    /// Devices inside a churn down-window at the end of the window.
    pub nodes_down: usize,
    /// Fleet size, for the critical churn fraction.
    pub fleet: usize,
    /// Windowed p99 of `mgr.delivery_latency_us` (enqueue → DataSent), from
    /// the quantile digest's per-window delta — **not** a lifetime mean. A
    /// windowed `(count, sum)` can only yield the mean, and a mean hides
    /// tail collapse: 95 sends at 100ms plus 5 at 10s average ~600ms while
    /// the p99 reads 10s. Zero when no digest samples landed this window.
    pub latency_p99_us: u64,
    /// Delivery-latency samples recorded this window; below the delivery
    /// ratio's floor of 5 the p99 carries no signal.
    pub latency_samples: u64,
}

// The thresholds separating the three health states.

/// Below this windowed delivery ratio the fleet is degraded.
const DEGRADED_DELIVERY_RATIO: f64 = 0.90;
/// Below this windowed delivery ratio the fleet is critical.
const CRITICAL_DELIVERY_RATIO: f64 = 0.50;
/// Windows with fewer terminal attempts than this carry no delivery signal
/// (a ratio over 2 sends is noise, not health).
const MIN_ATTEMPTS: u64 = 5;
/// Queue depth high-water beyond which the fleet is degraded.
const DEGRADED_QUEUE_DEPTH: i64 = 64;
/// Beacon staleness beyond which discovery is considered degraded.
const DEGRADED_BEACON_STALE_US: u64 = 5_000_000;
/// Windowed delivery-latency p99 beyond which the fleet is degraded.
///
/// Derivation (2s): the retry policy's terminal path is an ack deadline of
/// 250ms and exponential backoff 200ms → 2s (factor 2, 6 attempts for a
/// reliable send), so a *first-attempt* success lands well under 1s while a
/// send that burns two or more retry passes crosses ~2s on its way to the
/// ~6.5s worst case. A p99 at 2s therefore means at least 1% of traffic is
/// deep in the retry ladder — tail degradation the old mean-based reading
/// could not see (the mean of 99 fast sends and 1 slow one stays
/// comfortably sub-second).
const DEGRADED_LATENCY_P99_US: u64 = 2_000_000;
/// Any node down ⇒ degraded; at or above this *fraction* of the fleet down
/// ⇒ critical.
const CRITICAL_DOWN_FRACTION: f64 = 0.25;
/// Hysteresis: relative margin every analog signal must clear beyond its
/// threshold before an *improvement* is believed. A fleet whose delivery
/// ratio oscillates right at a cutoff would otherwise emit a
/// [`HealthEvent`] every window; with the band it degrades on the first bad
/// window and stays put until the signal is clearly good. Worsening
/// verdicts are never delayed, and the discrete node-down signal is
/// unaffected (a churn window ending is not a marginal reading).
const RECOVERY_BAND: f64 = 0.05;

/// A state change, with the signal that tripped it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthEvent {
    /// Sim time of the window that changed the verdict.
    pub t_us: u64,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// Stable cause slug: `delivery-ratio`, `delivery-latency`,
    /// `queue-depth`, `beacon-staleness`, `node-down`, or `recovered`.
    pub cause: &'static str,
}

/// Folds windowed stats into a fleet health state, emitting an event per
/// transition.
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    state: HealthState,
}

impl HealthMonitor {
    /// The current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Derives the verdict for one window and the cause that pinned it.
    /// Worst signal wins; among equals the most actionable cause (delivery,
    /// then churn, then queues, then staleness) is reported.
    ///
    /// With `sticky`, every analog threshold is widened by the recovery
    /// band (delivery cutoffs raised, queue/staleness/down-fraction
    /// cutoffs lowered), so a marginal reading still classifies as the
    /// worse state — the hysteresis half of [`HealthMonitor::observe`].
    fn classify(&self, w: &WindowStats, sticky: bool) -> (HealthState, &'static str) {
        let band = if sticky { RECOVERY_BAND } else { 0.0 };
        let critical_ratio = CRITICAL_DELIVERY_RATIO * (1.0 + band);
        let degraded_ratio = DEGRADED_DELIVERY_RATIO * (1.0 + band);
        let queue_depth = (DEGRADED_QUEUE_DEPTH as f64 * (1.0 - band)) as i64;
        let stale_us = (DEGRADED_BEACON_STALE_US as f64 * (1.0 - band)) as u64;
        let latency_us = (DEGRADED_LATENCY_P99_US as f64 * (1.0 - band)) as u64;
        let critical_frac = CRITICAL_DOWN_FRACTION * (1.0 - band);

        let ratio = if w.attempted >= MIN_ATTEMPTS {
            Some(w.delivered as f64 / w.attempted as f64)
        } else {
            None
        };
        let down_frac = if w.fleet == 0 { 0.0 } else { w.nodes_down as f64 / w.fleet as f64 };

        if let Some(r) = ratio {
            if r < critical_ratio {
                return (HealthState::Critical, "delivery-ratio");
            }
        }
        if w.nodes_down > 0 && down_frac >= critical_frac {
            return (HealthState::Critical, "node-down");
        }
        if let Some(r) = ratio {
            if r < degraded_ratio {
                return (HealthState::Degraded, "delivery-ratio");
            }
        }
        // Tail latency: like the ratio, only meaningful with enough samples.
        if w.latency_samples >= MIN_ATTEMPTS && w.latency_p99_us > latency_us {
            return (HealthState::Degraded, "delivery-latency");
        }
        if w.nodes_down > 0 {
            return (HealthState::Degraded, "node-down");
        }
        if w.queue_hi > queue_depth {
            return (HealthState::Degraded, "queue-depth");
        }
        if w.beacon_stale_us > stale_us {
            return (HealthState::Degraded, "beacon-staleness");
        }
        (HealthState::Healthy, "recovered")
    }

    /// Feeds one window; returns the transition when the state changed.
    /// Worsening readings act immediately; an improvement is believed only
    /// when the sticky (band-widened) classification also improves, which
    /// pins threshold oscillation to a single transition.
    pub fn observe(&mut self, t_us: u64, w: &WindowStats) -> Option<HealthEvent> {
        let (next, cause) = self.classify(w, false);
        let next = if next < self.state {
            // `min` so hysteresis can only hold the current state or allow
            // a (possibly partial) improvement, never invent a worsening.
            self.classify(w, true).0.min(self.state)
        } else {
            next
        };
        if next == self.state {
            return None;
        }
        let ev = HealthEvent {
            t_us,
            from: self.state,
            to: next,
            // An improvement is always reported as recovery, whatever
            // residual signal classified the milder state.
            cause: if next < self.state { "recovered" } else { cause },
        };
        self.state = next;
        Some(ev)
    }
}

impl Default for HealthMonitor {
    /// A monitor starting healthy.
    fn default() -> Self {
        HealthMonitor { state: HealthState::Healthy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(fleet: usize) -> WindowStats {
        WindowStats { fleet, ..Default::default() }
    }

    #[test]
    fn healthy_fleet_never_transitions() {
        let mut m = HealthMonitor::default();
        for t in 0..100u64 {
            let w = WindowStats { attempted: 50, delivered: 50, ..quiet(100) };
            assert_eq!(m.observe(t * 1000, &w), None);
        }
        assert_eq!(m.state(), HealthState::Healthy);
    }

    #[test]
    fn delivery_collapse_is_critical_then_recovers() {
        let mut m = HealthMonitor::default();
        let bad = WindowStats { attempted: 20, delivered: 4, ..quiet(100) };
        let ev = m.observe(7, &bad).expect("transition");
        assert_eq!(
            (ev.from, ev.to, ev.cause),
            (HealthState::Healthy, HealthState::Critical, "delivery-ratio")
        );
        // Same verdict again: no repeated event.
        assert_eq!(m.observe(8, &bad), None);
        let good = WindowStats { attempted: 20, delivered: 20, ..quiet(100) };
        let ev = m.observe(9, &good).expect("recovery");
        assert_eq!(
            (ev.from, ev.to, ev.cause),
            (HealthState::Critical, HealthState::Healthy, "recovered")
        );
    }

    #[test]
    fn marginal_delivery_is_degraded_not_critical() {
        let mut m = HealthMonitor::default();
        let w = WindowStats { attempted: 20, delivered: 16, ..quiet(100) };
        let ev = m.observe(1, &w).expect("transition");
        assert_eq!((ev.to, ev.cause), (HealthState::Degraded, "delivery-ratio"));
    }

    #[test]
    fn too_few_attempts_carry_no_delivery_signal() {
        let mut m = HealthMonitor::default();
        let w = WindowStats { attempted: 2, delivered: 0, ..quiet(100) };
        assert_eq!(m.observe(1, &w), None, "2 failed sends are noise, not an outage");
    }

    #[test]
    fn churn_scales_from_degraded_to_critical() {
        let mut m = HealthMonitor::default();
        let one_down = WindowStats { nodes_down: 1, ..quiet(100) };
        let ev = m.observe(1, &one_down).expect("transition");
        assert_eq!((ev.to, ev.cause), (HealthState::Degraded, "node-down"));
        let many_down = WindowStats { nodes_down: 30, ..quiet(100) };
        let ev = m.observe(2, &many_down).expect("transition");
        assert_eq!((ev.to, ev.cause), (HealthState::Critical, "node-down"));
    }

    #[test]
    fn threshold_oscillation_pins_to_one_transition() {
        // Delivery ratio flapping 0.85 / 0.905 around the 0.90 cutoff:
        // degrade once, then hold — 0.905 does not clear the 5% band
        // (0.90 × 1.05 = 0.945).
        let mut m = HealthMonitor::default();
        let mut transitions = 0;
        for t in 0..50u64 {
            let delivered = if t % 2 == 0 { 170 } else { 181 };
            let w = WindowStats { attempted: 200, delivered, ..quiet(100) };
            if m.observe(t, &w).is_some() {
                transitions += 1;
            }
        }
        assert_eq!(transitions, 1, "hysteresis must pin the flap to one degradation");
        assert_eq!(m.state(), HealthState::Degraded);
        // A reading clear of the band still recovers immediately.
        let w = WindowStats { attempted: 200, delivered: 200, ..quiet(100) };
        let ev = m.observe(99, &w).expect("recovery");
        assert_eq!((ev.to, ev.cause), (HealthState::Healthy, "recovered"));
    }

    #[test]
    fn hysteresis_never_blocks_a_worsening() {
        let mut m = HealthMonitor::default();
        let bad = WindowStats { attempted: 200, delivered: 80, ..quiet(100) };
        let ev = m.observe(1, &bad).expect("critical");
        assert_eq!(ev.to, HealthState::Critical);
        // Partial improvement: ratio 0.85 is clear of the sticky critical
        // cutoff (0.50 × 1.05) but still below degraded — drops one level.
        let mid = WindowStats { attempted: 200, delivered: 170, ..quiet(100) };
        let ev = m.observe(2, &mid).expect("partial recovery");
        assert_eq!((ev.to, ev.cause), (HealthState::Degraded, "recovered"));
        // And a fresh collapse re-escalates with no delay.
        let ev = m.observe(3, &bad).expect("re-escalation");
        assert_eq!(ev.to, HealthState::Critical);
    }

    #[test]
    fn tail_latency_degrades_even_when_every_send_lands() {
        // 100% delivery, but the windowed p99 shows ≥1% of traffic deep in
        // the retry ladder — the signal a mean would have hidden.
        let mut m = HealthMonitor::default();
        let w = WindowStats {
            attempted: 200,
            delivered: 200,
            latency_p99_us: 4_000_000,
            latency_samples: 200,
            ..quiet(100)
        };
        let ev = m.observe(1, &w).expect("transition");
        assert_eq!((ev.to, ev.cause), (HealthState::Degraded, "delivery-latency"));
        // Recovery needs to clear the sticky band: 2s × 0.95 = 1.9s, so a
        // p99 of 1.95s holds the state and 1.5s releases it.
        let marginal =
            WindowStats { latency_p99_us: 1_950_000, latency_samples: 200, ..quiet(100) };
        assert_eq!(m.observe(2, &marginal), None, "inside the band: still degraded");
        let good = WindowStats { latency_p99_us: 1_500_000, latency_samples: 200, ..quiet(100) };
        let ev = m.observe(3, &good).expect("recovery");
        assert_eq!((ev.to, ev.cause), (HealthState::Healthy, "recovered"));
    }

    #[test]
    fn sparse_latency_windows_carry_no_signal() {
        let mut m = HealthMonitor::default();
        let w = WindowStats { latency_p99_us: 60_000_000, latency_samples: 2, ..quiet(100) };
        assert_eq!(m.observe(1, &w), None, "2 slow sends are noise, not an outage");
    }

    #[test]
    fn queue_and_staleness_degrade() {
        let mut m = HealthMonitor::default();
        let w = WindowStats { queue_hi: 100, ..quiet(10) };
        assert_eq!(m.observe(1, &w).unwrap().cause, "queue-depth");
        let w = WindowStats { beacon_stale_us: 10_000_000, ..quiet(10) };
        assert_eq!(m.observe(2, &w), None, "still degraded, no transition");
        assert_eq!(m.state(), HealthState::Degraded);
        let ev = m.observe(3, &quiet(10)).unwrap();
        assert_eq!((ev.to, ev.cause), (HealthState::Healthy, "recovered"));
    }
}
