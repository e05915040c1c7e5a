//! Per-device energy accounting.
//!
//! The paper evaluates energy as *average current draw* (mA) over an
//! experiment, measured with a USB power meter and reported relative to a
//! baseline (idle with the WiFi radio in standby). We reproduce the same
//! statistic by integrating modeled per-operation currents over virtual time:
//!
//! * **States** are open-ended draws (WiFi powered, BLE scanning, an active
//!   TCP flow). They are reference-counted: two concurrent TCP flows in the
//!   same direction draw the radio's send current once, not twice.
//! * **Pulses** are fixed-duration draws charged up front (a BLE advertising
//!   event).
//!
//! All accounting is *relative to the device's cold floor* (all radios off).
//! WiFi standby is itself a state, so harnesses subtract
//! [`crate::EnergyParams::wifi_standby_ma`] to report on the paper's baseline.

use std::collections::HashMap;

use crate::time::{SimDuration, SimTime};
use crate::DeviceId;

/// Keys for reference-counted continuous draw states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyState {
    /// WiFi radio powered (standby draw).
    WifiOn,
    /// WiFi network scan in progress.
    WifiScan,
    /// WiFi join/associate in progress.
    WifiConnect,
    /// At least one outbound TCP flow active.
    WifiTx,
    /// At least one inbound TCP flow active.
    WifiRx,
    /// Rate-limited infrastructure download in progress.
    InfraRx,
    /// Bulk multicast transmission in progress.
    McastTx,
    /// BLE scanning (scaled by duty cycle via the `ma` passed at entry).
    BleScan,
}

/// Every state, in declaration order: the fixed order in which
/// [`EnergyLedger::total_ma_s`] sums open draws, so totals are bit-identical
/// across processes (the per-device map's iteration order is seeded per
/// process).
const ALL_STATES: [EnergyState; 8] = [
    EnergyState::WifiOn,
    EnergyState::WifiScan,
    EnergyState::WifiConnect,
    EnergyState::WifiTx,
    EnergyState::WifiRx,
    EnergyState::InfraRx,
    EnergyState::McastTx,
    EnergyState::BleScan,
];

#[derive(Debug, Default, Clone)]
struct DeviceEnergy {
    /// Accumulated charge in mA·s.
    total_ma_s: f64,
    /// Active states: key → (current mA, refcount, active-since).
    states: HashMap<EnergyState, (f64, u32, SimTime)>,
}

/// The per-simulation energy ledger.
#[derive(Debug, Default)]
pub struct EnergyLedger {
    devices: Vec<DeviceEnergy>,
}

impl EnergyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new device and returns nothing; devices are keyed by the
    /// order of registration, which the runner keeps aligned with
    /// [`DeviceId`].
    pub(crate) fn add_device(&mut self) {
        self.devices.push(DeviceEnergy::default());
    }

    fn dev(&mut self, id: DeviceId) -> &mut DeviceEnergy {
        &mut self.devices[id.0]
    }

    /// Enters a continuous draw state (reference-counted).
    ///
    /// The `ma` of the *first* entry wins while the state is held; re-entries
    /// only bump the refcount. All callers pass the same configured constant
    /// per key, so this never matters in practice.
    pub fn enter(&mut self, id: DeviceId, now: SimTime, key: EnergyState, ma: f64) {
        let d = self.dev(id);
        match d.states.get_mut(&key) {
            Some((_, count, _)) => *count += 1,
            None => {
                d.states.insert(key, (ma, 1, now));
            }
        }
    }

    /// Leaves a continuous draw state, integrating its charge when the
    /// refcount reaches zero.
    ///
    /// Leaving a state that was never entered is a no-op (radios may be
    /// disabled redundantly).
    pub fn leave(&mut self, id: DeviceId, now: SimTime, key: EnergyState) {
        let d = self.dev(id);
        if let Some((ma, count, since)) = d.states.get_mut(&key) {
            *count -= 1;
            if *count == 0 {
                let charge = *ma * now.duration_since(*since).as_secs_f64();
                let _ = since;
                d.total_ma_s += charge;
                d.states.remove(&key);
            }
        }
    }

    /// Charges a fixed-duration draw immediately.
    pub fn pulse(&mut self, id: DeviceId, ma: f64, duration: SimDuration) {
        self.dev(id).total_ma_s += ma * duration.as_secs_f64();
    }

    /// Total accumulated charge (mA·s) for a device up to `now`, including
    /// the still-open states.
    pub fn total_ma_s(&self, id: DeviceId, now: SimTime) -> f64 {
        let d = &self.devices[id.0];
        let open: f64 = ALL_STATES
            .iter()
            .filter_map(|key| d.states.get(key))
            .map(|(ma, _, since)| ma * now.saturating_since(*since).as_secs_f64())
            .sum();
        d.total_ma_s + open
    }

    /// Average current (mA) over `[start, now]`, including open states.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn average_ma(&self, id: DeviceId, start: SimTime, now: SimTime) -> f64 {
        let window = now.duration_since(start).as_secs_f64();
        assert!(window > 0.0, "cannot average over an empty window");
        self.total_ma_s(id, now) / window
    }

    /// Whether a state is currently held.
    pub fn is_active(&self, id: DeviceId, key: EnergyState) -> bool {
        self.devices[id.0].states.contains_key(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn ledger(n: usize) -> EnergyLedger {
        let mut l = EnergyLedger::new();
        for _ in 0..n {
            l.add_device();
        }
        l
    }

    #[test]
    fn state_integrates_over_its_interval() {
        let mut l = ledger(1);
        let d = DeviceId(0);
        l.enter(d, t(0), EnergyState::WifiOn, 92.1);
        l.leave(d, t(10), EnergyState::WifiOn);
        assert!((l.total_ma_s(d, t(10)) - 921.0).abs() < 1e-9);
    }

    #[test]
    fn open_state_is_included_in_totals() {
        let mut l = ledger(1);
        let d = DeviceId(0);
        l.enter(d, t(0), EnergyState::BleScan, 7.0);
        assert!((l.total_ma_s(d, t(2)) - 14.0).abs() < 1e-9);
        // Reading does not close the state.
        assert!((l.total_ma_s(d, t(4)) - 28.0).abs() < 1e-9);
    }

    #[test]
    fn states_are_refcounted_not_stacked() {
        let mut l = ledger(1);
        let d = DeviceId(0);
        l.enter(d, t(0), EnergyState::WifiTx, 183.3);
        l.enter(d, t(1), EnergyState::WifiTx, 183.3);
        l.leave(d, t(2), EnergyState::WifiTx);
        // Still active: one refcount remains.
        assert!(l.is_active(d, EnergyState::WifiTx));
        l.leave(d, t(3), EnergyState::WifiTx);
        assert!(!l.is_active(d, EnergyState::WifiTx));
        // Draws current once over [0, 3], not twice over the overlap.
        assert!((l.total_ma_s(d, t(3)) - 3.0 * 183.3).abs() < 1e-9);
    }

    #[test]
    fn pulse_is_charged_immediately() {
        let mut l = ledger(1);
        let d = DeviceId(0);
        l.pulse(d, 8.2, SimDuration::from_millis(10));
        assert!((l.total_ma_s(d, t(0)) - 0.082).abs() < 1e-9);
    }

    #[test]
    fn leaving_unentered_state_is_noop() {
        let mut l = ledger(1);
        let d = DeviceId(0);
        l.leave(d, t(1), EnergyState::WifiScan);
        assert_eq!(l.total_ma_s(d, t(1)), 0.0);
    }

    #[test]
    fn average_divides_by_window() {
        let mut l = ledger(2);
        let d = DeviceId(1);
        l.enter(d, t(0), EnergyState::WifiOn, 92.1);
        l.leave(d, t(30), EnergyState::WifiOn);
        assert!((l.average_ma(d, t(0), t(60)) - 46.05).abs() < 1e-9);
    }

    #[test]
    fn devices_are_independent() {
        let mut l = ledger(2);
        l.enter(DeviceId(0), t(0), EnergyState::WifiOn, 92.1);
        assert_eq!(l.total_ma_s(DeviceId(1), t(5)), 0.0);
    }

    #[test]
    fn open_draw_totals_are_independent_of_entry_order() {
        // Currents and start times chosen so that f64 addition order
        // changes the last bits of the sum.
        let draws: Vec<(EnergyState, f64, SimTime)> = ALL_STATES
            .iter()
            .enumerate()
            .map(|(i, &key)| {
                (
                    key,
                    0.1 + 1e-3 * i as f64 + 1e7 * (i % 2) as f64,
                    SimTime::from_micros(7 * i as u64),
                )
            })
            .collect();
        let total = |order: &[usize]| {
            let mut l = ledger(1);
            for &i in order {
                let (key, ma, at) = draws[i];
                l.enter(DeviceId(0), at, key, ma);
            }
            l.total_ma_s(DeviceId(0), SimTime::from_micros(1_234_567)).to_bits()
        };
        let forward: Vec<usize> = (0..draws.len()).collect();
        let reference = total(&forward);
        let mut order = forward.clone();
        for round in 0..16 {
            order.rotate_left(3);
            if round % 2 == 1 {
                order.reverse();
            }
            assert_eq!(total(&order), reference, "entry order {order:?}");
        }
        // The fixed order is declaration order.
        let by_declaration: f64 = draws
            .iter()
            .map(|&(_, ma, at)| {
                ma * SimTime::from_micros(1_234_567).saturating_since(at).as_secs_f64()
            })
            .sum();
        assert_eq!(reference, by_declaration.to_bits());
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn average_over_empty_window_panics() {
        let l = ledger(1);
        let _ = l.average_ma(DeviceId(0), t(1), t(1));
    }
}
