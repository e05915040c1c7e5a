//! PRoPHET — Probabilistic Routing Protocol using History of Encounters and
//! Transitivity (Lindgren et al., 2003), layered over the middleware as in
//! paper §4.3: "information is buffered by intermediate devices and then
//! forwarded when communication links are available. PRoPHET selects devices
//! as carriers based on a local assessment of their potential to encounter
//! the final destination. To assess these conditions, devices continuously
//! share summaries of their historical encounters with neighboring peers."
//!
//! Summaries ride as Omni *context* (small, periodic); bundles ride as
//! *data* (directed, potentially large). Both variants keep their PRoPHET
//! state in one [`ProphetRouter`], the router the manager's own PRoPHET
//! relay strategy uses (tested in `omni_core::relay`). They apply
//! transitivity only on a new encounter: sighting, then transitivity, then
//! the summary is kept for forwarding decisions.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::{BufMut, Bytes, BytesMut};
use omni_baselines::sp::{SpAddr, SpCtl, SpHandler, SpOp};
use omni_core::relay::AGING_INTERVAL;
use omni_core::{ContextParams, OmniCtl, ProphetRouter};
use omni_sim::{SimDuration, SimTime};
use omni_wire::{MeshAddress, OmniAddress};

const TAG_SUMMARY: u8 = b'S';
const TAG_BUNDLE: u8 = b'F';

// The router core lives in `omni_core::relay`, shared with the manager's
// PRoPHET relay strategy.
pub use omni_core::ProphetTable;

/// A store-carry-forward bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bundle {
    /// Bundle id.
    pub id: u32,
    /// Final destination.
    pub dest: OmniAddress,
    /// Payload size in bytes.
    pub size: u64,
}

/// Encodes a summary vector as a context payload (the shared core codec
/// under this crate's `'S'` tag).
pub fn encode_summary(summary: &[(OmniAddress, f64)]) -> Bytes {
    omni_core::relay::encode_summary(TAG_SUMMARY, summary)
}

/// Decodes a summary vector context payload.
pub fn decode_summary(bytes: &[u8]) -> Option<Vec<(OmniAddress, f64)>> {
    omni_core::relay::decode_summary(TAG_SUMMARY, bytes)
}

/// Encodes a bundle transfer descriptor.
pub fn encode_bundle(b: &Bundle) -> Bytes {
    let mut buf = BytesMut::with_capacity(17);
    buf.put_u8(TAG_BUNDLE);
    buf.put_u32(b.id);
    buf.put_slice(&b.dest.to_bytes());
    buf.put_u32(b.size as u32);
    buf.freeze()
}

/// Decodes a bundle transfer descriptor.
pub fn decode_bundle(bytes: &[u8]) -> Option<Bundle> {
    if bytes.len() != 17 || bytes[0] != TAG_BUNDLE {
        return None;
    }
    let id = u32::from_be_bytes(bytes[1..5].try_into().ok()?);
    let mut addr = [0u8; 8];
    addr.copy_from_slice(&bytes[5..13]);
    let size = u32::from_be_bytes(bytes[13..17].try_into().ok()?) as u64;
    Some(Bundle { id, dest: OmniAddress::from_bytes(addr), size })
}

/// Shared experiment outcome for one device.
#[derive(Debug, Default, Clone)]
pub struct ProphetReport {
    /// Bundles delivered to this device (it was the destination), with
    /// arrival time.
    pub delivered: Vec<(u32, SimTime)>,
    /// Bundles this device forwarded to a better carrier or the destination.
    pub forwards: u32,
}

/// Shared handle onto a device's report.
pub type SharedProphetReport = Rc<RefCell<ProphetReport>>;

// ---------------------------------------------------------------------
// Omni / SA variant
// ---------------------------------------------------------------------

struct OmniProphetState {
    own: OmniAddress,
    router: ProphetRouter,
    bundles: Vec<Bundle>,
    forwarded_to: HashMap<(u32, OmniAddress), bool>,
    context_id: Option<u64>,
    report: SharedProphetReport,
}

fn prophet_refresh_context(st: &Rc<RefCell<OmniProphetState>>, omni: &mut OmniCtl) {
    let (id, payload) = {
        let s = st.borrow();
        (s.context_id, encode_summary(&s.router.table.summary(4)))
    };
    if let Some(id) = id {
        omni.update_context(id, ContextParams::default(), payload, Box::new(|_, _, _| {}));
    }
}

fn prophet_try_forward(st: &Rc<RefCell<OmniProphetState>>, peer: OmniAddress, omni: &mut OmniCtl) {
    let to_send: Vec<Bundle> = {
        let s = st.borrow();
        s.bundles
            .iter()
            .filter(|b| {
                !s.forwarded_to.contains_key(&(b.id, peer)) && s.router.should_forward(peer, b.dest)
            })
            .copied()
            .collect()
    };
    for bundle in to_send {
        st.borrow_mut().forwarded_to.insert((bundle.id, peer), true);
        let st2 = st.clone();
        omni.send_data_sized(
            vec![peer],
            encode_bundle(&bundle),
            bundle.size,
            Box::new(move |code, _, _| {
                if code == omni_wire::StatusCode::SendDataSuccess {
                    st2.borrow_mut().report.borrow_mut().forwards += 1;
                } else {
                    // Allow a retry at the next encounter.
                    st2.borrow_mut().forwarded_to.remove(&(bundle.id, peer));
                }
            }),
        );
    }
}

/// Builds the Omni/SA-variant PRoPHET node.
///
/// `initial_bundles` are buffered at start; `seeds` pre-populate encounter
/// history (e.g. "B has met C before").
pub fn omni_prophet(
    own: OmniAddress,
    initial_bundles: Vec<Bundle>,
    seeds: Vec<(OmniAddress, f64)>,
) -> (impl FnOnce(&mut OmniCtl), SharedProphetReport) {
    let report: SharedProphetReport = Rc::new(RefCell::new(ProphetReport::default()));
    let mut router = ProphetRouter::new(own);
    for (dest, p) in seeds {
        router.table.seed(dest, p);
    }
    let st = Rc::new(RefCell::new(OmniProphetState {
        own,
        router,
        bundles: initial_bundles,
        forwarded_to: HashMap::new(),
        context_id: None,
        report: report.clone(),
    }));
    let init = {
        let st = st.clone();
        move |omni: &mut OmniCtl| {
            let st_add = st.clone();
            let payload = encode_summary(&st.borrow().router.table.summary(4));
            omni.add_context(
                ContextParams::default(),
                payload,
                Box::new(move |code, info, _| {
                    if code == omni_wire::StatusCode::AddContextSuccess {
                        st_add.borrow_mut().context_id = info.context_id();
                    }
                }),
            );
            let st_ctx = st.clone();
            omni.request_context(Box::new(move |src, ctx, o| {
                let Some(summary) = decode_summary(ctx) else {
                    return;
                };
                let is_new_encounter = {
                    let router = &mut st_ctx.borrow_mut().router;
                    let new = router.sighting(src, o.now);
                    if new {
                        router.transitivity(src, &summary);
                    }
                    router.hear(src, summary);
                    new
                };
                if is_new_encounter {
                    prophet_refresh_context(&st_ctx, o);
                }
                prophet_try_forward(&st_ctx, src, o);
            }));
            let st_data = st.clone();
            omni.request_data(Box::new(move |_src, data, o| {
                let Some(bundle) = decode_bundle(data) else {
                    return;
                };
                let mut s = st_data.borrow_mut();
                if bundle.dest == s.own {
                    s.report.borrow_mut().delivered.push((bundle.id, o.now));
                } else if !s.bundles.iter().any(|b| b.id == bundle.id) {
                    s.bundles.push(bundle); // become a carrier
                }
            }));
            // Aging tick.
            let st_age = st.clone();
            omni.request_timers(Box::new(move |token, o| {
                if token == 1 {
                    st_age.borrow_mut().router.table.age(1);
                    prophet_refresh_context(&st_age, o);
                    o.set_timer(1, AGING_INTERVAL);
                }
            }));
            omni.set_timer(1, AGING_INTERVAL);
        }
    };
    (init, report)
}

// ---------------------------------------------------------------------
// SP variant (WiFi)
// ---------------------------------------------------------------------

/// SP PRoPHET over a [`omni_baselines::sp::SpWifiDevice`]: summaries ride
/// multicast beacons; each forward re-establishes network connectivity (the
/// hand-rolled leave/scan/join sequence) before the TCP transfer — the cost
/// Figure 7 charges the non-integrated approaches.
pub struct SpProphet {
    own: OmniAddress,
    router: ProphetRouter,
    bundles: Vec<Bundle>,
    forwarded_to: HashMap<(u32, OmniAddress), bool>,
    /// omni identity → mesh address, learned from summaries' sender field.
    mesh_of: HashMap<OmniAddress, MeshAddress>,
    /// Forwards waiting for the establish sequence.
    pending_establish: Vec<(Bundle, MeshAddress)>,
    establishing: bool,
    report: SharedProphetReport,
}

impl SpProphet {
    /// Creates the SP PRoPHET handler.
    pub fn new(
        own: OmniAddress,
        initial_bundles: Vec<Bundle>,
        seeds: Vec<(OmniAddress, f64)>,
    ) -> (Self, SharedProphetReport) {
        let report: SharedProphetReport = Rc::new(RefCell::new(ProphetReport::default()));
        let mut router = ProphetRouter::new(own);
        for (dest, p) in seeds {
            router.table.seed(dest, p);
        }
        (
            SpProphet {
                own,
                router,
                bundles: initial_bundles,
                forwarded_to: HashMap::new(),
                mesh_of: HashMap::new(),
                pending_establish: Vec::new(),
                establishing: false,
                report: report.clone(),
            },
            report,
        )
    }

    /// SP beacons carry `own omni address ‖ summary` so receivers can map
    /// mesh sources to stable identities.
    fn beacon_payload(&self) -> Bytes {
        let summary = encode_summary(&self.router.table.summary(4));
        let mut b = BytesMut::with_capacity(8 + summary.len());
        b.put_slice(&self.own.to_bytes());
        b.put_slice(&summary);
        b.freeze()
    }

    fn refresh_beacon(&self, ctl: &mut SpCtl) {
        ctl.push(SpOp::SetBeacon {
            payload: self.beacon_payload(),
            interval: SimDuration::from_millis(500),
        });
    }

    fn try_forward(&mut self, peer: OmniAddress, ctl: &mut SpCtl) {
        let Some(&mesh) = self.mesh_of.get(&peer) else {
            return;
        };
        let due: Vec<Bundle> = self
            .bundles
            .iter()
            .filter(|b| {
                !self.forwarded_to.contains_key(&(b.id, peer))
                    && self.router.should_forward(peer, b.dest)
            })
            .copied()
            .collect();
        for bundle in due {
            self.forwarded_to.insert((bundle.id, peer), true);
            self.pending_establish.push((bundle, mesh));
        }
        if !self.pending_establish.is_empty() && !self.establishing {
            self.establishing = true;
            ctl.push(SpOp::EstablishFresh);
        }
    }
}

impl SpHandler for SpProphet {
    fn on_start(&mut self, ctl: &mut SpCtl) {
        self.refresh_beacon(ctl);
        ctl.set_timer(1, AGING_INTERVAL);
    }

    fn on_beacon(&mut self, from: SpAddr, payload: &Bytes, ctl: &mut SpCtl) {
        let SpAddr::Mesh(mesh) = from else {
            return;
        };
        if payload.len() < 8 {
            return;
        }
        let mut addr = [0u8; 8];
        addr.copy_from_slice(&payload[..8]);
        let peer = OmniAddress::from_bytes(addr);
        let Some(summary) = decode_summary(&payload[8..]) else {
            return;
        };
        self.mesh_of.insert(peer, mesh);
        if self.router.sighting(peer, ctl.now) {
            self.router.transitivity(peer, &summary);
            self.refresh_beacon(ctl);
        }
        self.router.hear(peer, summary);
        self.try_forward(peer, ctl);
    }

    fn on_established(&mut self, ctl: &mut SpCtl) {
        self.establishing = false;
        for (bundle, mesh) in std::mem::take(&mut self.pending_establish) {
            self.report.borrow_mut().forwards += 1;
            ctl.push(SpOp::TcpSend {
                to: mesh,
                payload: encode_bundle(&bundle),
                wire_len: bundle.size,
            });
        }
    }

    fn on_data(&mut self, _from: SpAddr, payload: &Bytes, ctl: &mut SpCtl) {
        let Some(bundle) = decode_bundle(payload) else {
            return;
        };
        if bundle.dest == self.own {
            self.report.borrow_mut().delivered.push((bundle.id, ctl.now));
        } else if !self.bundles.iter().any(|b| b.id == bundle.id) {
            self.bundles.push(bundle);
        }
    }

    fn on_timer(&mut self, token: u64, ctl: &mut SpCtl) {
        if token == 1 {
            self.router.table.age(1);
            self.refresh_beacon(ctl);
            ctl.set_timer(1, AGING_INTERVAL);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(x: u64) -> OmniAddress {
        OmniAddress::from_u64(x)
    }

    #[test]
    fn summary_encoding_roundtrips_with_quantization() {
        let summary = vec![(a(1), 0.75), (a(2), 0.25)];
        let decoded = decode_summary(&encode_summary(&summary)).unwrap();
        assert_eq!(decoded.len(), 2);
        for ((da, dp), (oa, op)) in decoded.iter().zip(&summary) {
            assert_eq!(da, oa);
            assert!((dp - op).abs() < 1.0 / 255.0 + 1e-9);
        }
    }

    #[test]
    fn summary_decoding_rejects_malformed_input() {
        assert_eq!(decode_summary(&[]), None);
        assert_eq!(decode_summary(&[TAG_SUMMARY, 3, 0, 0]), None);
        assert_eq!(decode_summary(b"xxxx"), None);
    }

    #[test]
    fn bundle_encoding_roundtrips() {
        let b = Bundle { id: 42, dest: a(0xC), size: 1024 };
        assert_eq!(decode_bundle(&encode_bundle(&b)), Some(b));
        assert_eq!(decode_bundle(b"nope"), None);
    }

    #[test]
    fn summary_fits_ble_advertisement() {
        let mut t = ProphetTable::new();
        for i in 0..4 {
            t.seed(a(i), 0.5);
        }
        let encoded = encode_summary(&t.summary(4));
        // 2 + 4*9 = 38 bytes; with the 9-byte packed header: 47 ≤ 64.
        assert!(encoded.len() + 9 <= 64);
    }
}
