//! The service-discovery-plus-interaction workload of the controlled
//! comparison (paper §4.2, Table 4).
//!
//! Two devices. The responder advertises a service; the initiator stays idle
//! for a 60 s warmup (during which the underlying system beacons address and
//! service information every 500 ms), then "performs a send and receive
//! interaction with the discovered remote service", transferring either 30 B
//! or 25 MB back.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use omni_baselines::sp::{SpAddr, SpCtl, SpHandler, SpOp};
use omni_core::{ContextParams, OmniCtl};
use omni_sim::{SimDuration, SimTime};
use omni_wire::OmniAddress;

/// Context advertised by the responder.
pub const SERVICE_ADVERT: &[u8] = b"svc:interaction";
/// The request payload (a small service invocation).
pub const REQUEST: &[u8] = b"interaction-request";
/// Reply marker prefix.
pub const REPLY: &[u8] = b"reply:";

/// When the interaction starts (after the warmup).
pub const WARMUP: SimDuration = SimDuration::from_secs(60);

/// Interaction progress, shared with the experiment driver.
#[derive(Debug, Default, Clone)]
pub struct InteractionReport {
    /// When the request was issued (should be the end of warmup).
    pub request_at: Option<SimTime>,
    /// When the full reply arrived back at the initiator.
    pub completed_at: Option<SimTime>,
}

impl InteractionReport {
    /// Service latency in milliseconds, if the interaction completed.
    pub fn latency_ms(&self) -> Option<f64> {
        match (self.request_at, self.completed_at) {
            (Some(s), Some(e)) => Some((e - s).as_secs_f64() * 1e3),
            _ => None,
        }
    }
}

/// Shared handle onto the report.
pub type SharedInteraction = Rc<RefCell<InteractionReport>>;

// ---------------------------------------------------------------------
// Omni / SA variant
// ---------------------------------------------------------------------

/// Builds the initiator application over the Developer API.
pub fn omni_initiator() -> (impl FnOnce(&mut OmniCtl), SharedInteraction) {
    let report: SharedInteraction = Rc::new(RefCell::new(InteractionReport::default()));
    let peer: Rc<RefCell<Option<OmniAddress>>> = Rc::new(RefCell::new(None));
    let init = {
        let report = report.clone();
        move |omni: &mut OmniCtl| {
            // The initiator also advertises (its interest) during warmup, as
            // in the paper's symmetric discovery setup.
            omni.add_context(
                ContextParams::default(),
                Bytes::from_static(b"interest:interaction"),
                Box::new(|_, _, _| {}),
            );
            let known = peer.clone();
            omni.request_context(Box::new(move |src, ctx, _| {
                if ctx.as_ref() == SERVICE_ADVERT {
                    *known.borrow_mut() = Some(src);
                }
            }));
            let rep = report.clone();
            omni.request_data(Box::new(move |_src, data, o| {
                if data.starts_with(REPLY) {
                    let mut r = rep.borrow_mut();
                    if r.completed_at.is_none() {
                        r.completed_at = Some(o.now);
                    }
                }
            }));
            let rep = report.clone();
            let known = peer.clone();
            omni.request_timers(Box::new(move |token, o| {
                if token != 1 {
                    return;
                }
                let Some(dest) = *known.borrow() else {
                    // Discovery incomplete; retry shortly.
                    o.set_timer(1, SimDuration::from_millis(500));
                    return;
                };
                let mut r = rep.borrow_mut();
                if r.request_at.is_none() {
                    r.request_at = Some(o.now);
                    o.send_data(vec![dest], Bytes::from_static(REQUEST), Box::new(|_, _, _| {}));
                }
            }));
            omni.set_timer(1, WARMUP);
        }
    };
    (init, report)
}

/// Builds the responder application over the Developer API.
pub fn omni_responder(reply_size: u64) -> impl FnOnce(&mut OmniCtl) {
    move |omni: &mut OmniCtl| {
        omni.add_context(
            ContextParams::default(),
            Bytes::from_static(SERVICE_ADVERT),
            Box::new(|_, _, _| {}),
        );
        omni.request_data(Box::new(move |src, data, o| {
            if data.as_ref() == REQUEST {
                o.send_data_sized(
                    vec![src],
                    Bytes::from_static(b"reply:payload"),
                    reply_size,
                    Box::new(|_, _, _| {}),
                );
            }
        }));
    }
}

// ---------------------------------------------------------------------
// SP BLE variant
// ---------------------------------------------------------------------

/// SP initiator over BLE: hand-rolled beacon discovery + one-shot exchange.
pub struct SpBleInitiator {
    report: SharedInteraction,
    peer: Option<omni_wire::BleAddress>,
}

impl SpBleInitiator {
    /// Creates the handler and its report handle.
    pub fn new() -> (Self, SharedInteraction) {
        let report: SharedInteraction = Rc::new(RefCell::new(InteractionReport::default()));
        (SpBleInitiator { report: report.clone(), peer: None }, report)
    }
}

impl SpHandler for SpBleInitiator {
    fn on_start(&mut self, ctl: &mut SpCtl) {
        ctl.push(SpOp::SetBeacon {
            payload: Bytes::from_static(b"interest:interaction"),
            interval: SimDuration::from_millis(500),
        });
        ctl.set_timer(1, WARMUP);
    }

    fn on_beacon(&mut self, from: SpAddr, payload: &Bytes, _ctl: &mut SpCtl) {
        if payload.as_ref() == SERVICE_ADVERT {
            if let SpAddr::Ble(addr) = from {
                self.peer = Some(addr);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctl: &mut SpCtl) {
        if token != 1 {
            return;
        }
        let Some(peer) = self.peer else {
            ctl.set_timer(1, SimDuration::from_millis(500));
            return;
        };
        let mut r = self.report.borrow_mut();
        if r.request_at.is_none() {
            r.request_at = Some(ctl.now);
            ctl.push(SpOp::SendSmall {
                to: SpAddr::Ble(peer),
                payload: Bytes::from_static(REQUEST),
            });
        }
    }

    fn on_data(&mut self, _from: SpAddr, payload: &Bytes, ctl: &mut SpCtl) {
        if payload.starts_with(REPLY) {
            let mut r = self.report.borrow_mut();
            if r.completed_at.is_none() {
                r.completed_at = Some(ctl.now);
            }
        }
    }
}

/// SP responder over BLE.
pub struct SpBleResponder;

impl SpHandler for SpBleResponder {
    fn on_start(&mut self, ctl: &mut SpCtl) {
        ctl.push(SpOp::SetBeacon {
            payload: Bytes::from_static(SERVICE_ADVERT),
            interval: SimDuration::from_millis(500),
        });
    }

    fn on_data(&mut self, from: SpAddr, payload: &Bytes, ctl: &mut SpCtl) {
        if payload.as_ref() == REQUEST {
            // 30-byte reply (BLE cannot carry more).
            ctl.push(SpOp::SendSmall {
                to: from,
                payload: Bytes::from_static(b"reply:12345678901234567890123"),
            });
        }
    }
}

// ---------------------------------------------------------------------
// SP WiFi variant
// ---------------------------------------------------------------------

/// SP initiator over WiFi: multicast discovery during warmup; the
/// interaction re-establishes network connectivity before the TCP exchange
/// (the hand-rolled scan/connect sequence of paper §4.2).
pub struct SpWifiInitiator {
    report: SharedInteraction,
    peer: Option<omni_wire::MeshAddress>,
}

impl SpWifiInitiator {
    /// Creates the handler and its report handle.
    pub fn new() -> (Self, SharedInteraction) {
        let report: SharedInteraction = Rc::new(RefCell::new(InteractionReport::default()));
        (SpWifiInitiator { report: report.clone(), peer: None }, report)
    }
}

impl SpHandler for SpWifiInitiator {
    fn on_start(&mut self, ctl: &mut SpCtl) {
        ctl.push(SpOp::SetBeacon {
            payload: Bytes::from_static(b"interest:interaction"),
            interval: SimDuration::from_millis(500),
        });
        ctl.set_timer(1, WARMUP);
    }

    fn on_beacon(&mut self, from: SpAddr, payload: &Bytes, _ctl: &mut SpCtl) {
        if payload.as_ref() == SERVICE_ADVERT {
            if let SpAddr::Mesh(addr) = from {
                self.peer = Some(addr);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctl: &mut SpCtl) {
        if token != 1 {
            return;
        }
        if self.peer.is_none() {
            ctl.set_timer(1, SimDuration::from_millis(500));
            return;
        }
        let mut r = self.report.borrow_mut();
        if r.request_at.is_none() {
            r.request_at = Some(ctl.now);
            ctl.push(SpOp::EstablishFresh);
        }
    }

    fn on_established(&mut self, ctl: &mut SpCtl) {
        if let Some(peer) = self.peer {
            ctl.push(SpOp::TcpSend {
                to: peer,
                payload: Bytes::from_static(REQUEST),
                wire_len: REQUEST.len() as u64,
            });
        }
    }

    fn on_data(&mut self, _from: SpAddr, payload: &Bytes, ctl: &mut SpCtl) {
        if payload.starts_with(REPLY) {
            let mut r = self.report.borrow_mut();
            if r.completed_at.is_none() {
                r.completed_at = Some(ctl.now);
            }
        }
    }
}

/// SP responder over WiFi.
pub struct SpWifiResponder {
    reply_size: u64,
}

impl SpWifiResponder {
    /// Creates a responder replying with `reply_size` bytes.
    pub fn new(reply_size: u64) -> Self {
        SpWifiResponder { reply_size }
    }
}

impl SpHandler for SpWifiResponder {
    fn on_start(&mut self, ctl: &mut SpCtl) {
        ctl.push(SpOp::SetBeacon {
            payload: Bytes::from_static(SERVICE_ADVERT),
            interval: SimDuration::from_millis(500),
        });
    }

    fn on_data(&mut self, from: SpAddr, payload: &Bytes, ctl: &mut SpCtl) {
        if payload.as_ref() == REQUEST {
            if let SpAddr::Mesh(peer) = from {
                ctl.push(SpOp::TcpSend {
                    to: peer,
                    payload: Bytes::from_static(b"reply:payload"),
                    wire_len: self.reply_size,
                });
            }
        }
    }
}
