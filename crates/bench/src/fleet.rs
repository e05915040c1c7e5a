//! The stub beacon fleet the simulator benches share: a bare [`Stack`] with
//! no Omni code that advertises every beacon round, optionally scans, and
//! counts what it hears, plus the constant-density pair-site layout
//! ([`PairGrid`]) the `scale` and `telemetry` benches place it on.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use omni_sim::{Command, DeviceCaps, NodeApi, NodeEvent, Position, Runner, SimDuration, Stack};

/// One beacon round: the stub's advertising interval.
pub const TICK_MS: u64 = 500;

/// Advertises `payload` every [`TICK_MS`]; when `scan` holds a duty cycle it
/// also scans and counts every beacon it hears into `heard`.
pub struct Beacon {
    /// Advertising payload.
    pub payload: &'static [u8],
    /// Scan duty cycle, or `None` for an advertise-only device.
    pub scan: Option<f64>,
    /// Beacons heard, shared by the whole fleet.
    pub heard: Rc<Cell<u64>>,
}

impl Stack for Beacon {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        match event {
            NodeEvent::Start => {
                if let Some(duty) = self.scan {
                    api.push(Command::BleSetScan { duty: Some(duty) });
                }
                api.push(Command::BleAdvertiseSet {
                    slot: 0,
                    payload: Bytes::from_static(self.payload),
                    interval: SimDuration::from_millis(TICK_MS),
                });
            }
            NodeEvent::BleBeacon { .. } => self.heard.set(self.heard.get() + 1),
            _ => {}
        }
    }
}

/// Devices in pairs `pair_gap_m` apart, pair sites on a square grid
/// `site_pitch_m` apart. Density is constant whatever the fleet size, so
/// per-device work stays flat under the spatial index.
#[derive(Clone, Copy, Debug)]
pub struct PairGrid {
    /// Distance between neighbouring pair sites, metres.
    pub site_pitch_m: f64,
    /// Distance between the two devices of a pair, metres.
    pub pair_gap_m: f64,
}

impl PairGrid {
    /// Where device `i` of an `n`-device fleet stands.
    fn position(&self, i: usize, n: usize) -> Position {
        let cols = (n.div_ceil(2) as f64).sqrt().ceil() as usize;
        let site = i / 2;
        let dx = if i.is_multiple_of(2) { 0.0 } else { self.pair_gap_m };
        Position::new(
            (site % cols) as f64 * self.site_pitch_m + dx,
            (site / cols) as f64 * self.site_pitch_m,
        )
    }

    /// Adds an `n`-device [`Beacon`] fleet to `sim`: device `i` advertises
    /// `payload` and scans at `scan(i)`. Returns the fleet's heard counter.
    pub fn add_fleet(
        &self,
        sim: &mut Runner,
        n: usize,
        payload: &'static [u8],
        scan: impl Fn(usize) -> Option<f64>,
    ) -> Rc<Cell<u64>> {
        let heard = Rc::new(Cell::new(0));
        for i in 0..n {
            let d = sim.add_device(DeviceCaps::PI, self.position(i, n));
            sim.set_stack(d, Box::new(Beacon { payload, scan: scan(i), heard: heard.clone() }));
        }
        heard
    }
}
