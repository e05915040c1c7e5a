//! A BLE-only State-of-the-Practice device.
//!
//! Table 4's SP BLE/BLE configuration: the application talks straight to the
//! BLE radio. Since both sides are known to be BLE-only, the WiFi radio is
//! powered off entirely (the paper's −92.07 mA row) and discovery scanning
//! is aggressively duty-cycled.

use std::collections::VecDeque;

use bytes::{BufMut, Bytes, BytesMut};
use omni_sim::{Command, NodeApi, NodeEvent, SimDuration, Stack};
use omni_wire::BleAddress;

use super::{SpAddr, SpCtl, SpHandler, SpOp};

const TAG_BEACON: u8 = 0xB1;
const TAG_DATA: u8 = 0xB2;
const APP_TIMER_BASE: u64 = 1 << 20;

/// The BLE-only SP device.
pub struct SpBleDevice {
    own: BleAddress,
    handler: Box<dyn SpHandler>,
    scan_duty: f64,
    /// Pending one-shot sends awaiting `BleOneShotSent`.
    inflight: VecDeque<()>,
}

impl SpBleDevice {
    /// Creates the device. `scan_duty` is the discovery scan duty cycle
    /// (SP apps duty-cycle hard to save energy). The unused WiFi radio is
    /// powered off at boot.
    pub fn new(own: BleAddress, handler: Box<dyn SpHandler>, scan_duty: f64) -> Self {
        SpBleDevice { own, handler, scan_duty, inflight: VecDeque::new() }
    }

    fn apply(&mut self, ops: Vec<SpOp>, api: &mut NodeApi<'_>) {
        for op in ops {
            match op {
                SpOp::SetBeacon { payload, interval } => {
                    let mut framed = BytesMut::with_capacity(1 + payload.len());
                    framed.put_u8(TAG_BEACON);
                    framed.put_slice(&payload);
                    api.push(Command::BleAdvertiseSet {
                        slot: 0,
                        payload: framed.freeze(),
                        interval,
                    });
                }
                SpOp::StopBeacon => api.push(Command::BleAdvertiseStop { slot: 0 }),
                SpOp::SendSmall { to: SpAddr::Ble(dest), payload } => {
                    let mut framed = BytesMut::with_capacity(7 + payload.len());
                    framed.put_u8(TAG_DATA);
                    framed.put_slice(&dest.0);
                    framed.put_slice(&payload);
                    api.push(Command::BleSendOneShot { payload: framed.freeze() });
                    self.inflight.push_back(());
                }
                SpOp::SetTimer { token, delay } => {
                    api.push(Command::SetTimer { token: APP_TIMER_BASE + token, delay });
                }
                SpOp::CancelTimer { token } => {
                    api.push(Command::CancelTimer { token: APP_TIMER_BASE + token });
                }
                SpOp::InfraRequest { req, total, chunk } => {
                    api.push(Command::InfraRequest { req, total_bytes: total, chunk_bytes: chunk });
                }
                // WiFi-only operations have no BLE counterpart.
                _ => {}
            }
        }
    }

    fn dispatch<F>(&mut self, api: &mut NodeApi<'_>, f: F)
    where
        F: FnOnce(&mut dyn SpHandler, &mut SpCtl),
    {
        let mut ctl = SpCtl::at(api.now);
        f(self.handler.as_mut(), &mut ctl);
        let ops = std::mem::take(&mut ctl.ops);
        self.apply(ops, api);
    }
}

impl Stack for SpBleDevice {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        match event {
            NodeEvent::Start => {
                api.push(Command::WifiPower(false));
                api.push(Command::BleSetScan { duty: Some(self.scan_duty) });
                self.dispatch(api, |h, ctl| h.on_start(ctl));
            }
            NodeEvent::Timer { token } if token >= APP_TIMER_BASE => {
                self.dispatch(api, |h, ctl| h.on_timer(token - APP_TIMER_BASE, ctl));
            }
            NodeEvent::BleBeacon { from, payload } if payload.first() == Some(&TAG_BEACON) => {
                let body = payload.slice(1..);
                self.dispatch(api, |h, ctl| h.on_beacon(SpAddr::Ble(from), &body, ctl));
            }
            NodeEvent::BleOneShot { from, payload }
                if payload.first() == Some(&TAG_DATA) && payload.len() >= 7 =>
            {
                let mut dest = [0u8; 6];
                dest.copy_from_slice(&payload[1..7]);
                if BleAddress(dest) == self.own {
                    let body = payload.slice(7..);
                    self.dispatch(api, |h, ctl| h.on_data(SpAddr::Ble(from), &body, ctl));
                }
            }
            NodeEvent::BleOneShotSent if self.inflight.pop_front().is_some() => {
                self.dispatch(api, |h, ctl| h.on_sent(ctl));
            }
            NodeEvent::InfraChunk { req, received_bytes, done, .. } => {
                self.dispatch(api, |h, ctl| h.on_infra(req, received_bytes, done, ctl));
            }
            _ => {}
        }
    }
}

/// Convenience: a handler that only beacons and records what it hears —
/// useful as the passive responder in experiments and tests.
#[derive(Debug, Default)]
pub struct PassiveBeacon {
    /// Beacon payload to advertise.
    pub advert: Bytes,
    /// Beacon interval.
    pub interval: SimDuration,
}

impl SpHandler for PassiveBeacon {
    fn on_start(&mut self, ctl: &mut SpCtl) {
        if !self.advert.is_empty() {
            ctl.push(SpOp::SetBeacon { payload: self.advert.clone(), interval: self.interval });
        }
    }
}
