//! State-of-the-Practice devices: applications wired directly to one
//! communication technology (paper §2.3, Figure 1a).
//!
//! "Managing communication capabilities is relegated entirely to the
//! applications and services directly; as a result ... developers create
//! solutions that tie application-service combinations to specific
//! technologies." Accordingly, each SP device exposes technology-specific
//! operations with hand-rolled framing, and an application implements
//! [`SpHandler`] against exactly one of them.

mod ble;
mod wifi;

use bytes::Bytes;
use omni_sim::SimDuration;
use omni_wire::{BleAddress, MeshAddress};

pub use ble::{PassiveBeacon, SpBleDevice};
pub use wifi::SpWifiDevice;

/// A peer address in SP-land: whatever the single technology uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpAddr {
    /// BLE hardware address.
    Ble(BleAddress),
    /// WiFi-Mesh address.
    Mesh(MeshAddress),
}

impl std::fmt::Display for SpAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpAddr::Ble(a) => write!(f, "{a}"),
            SpAddr::Mesh(a) => write!(f, "{a}"),
        }
    }
}

/// Operations an SP application may request.
#[derive(Debug, Clone)]
pub enum SpOp {
    /// Start (or replace) the periodic discovery beacon.
    SetBeacon {
        /// Beacon payload (service/identity information).
        payload: Bytes,
        /// Beacon interval.
        interval: SimDuration,
    },
    /// Stop the periodic beacon.
    StopBeacon,
    /// Send a small directed payload (BLE one-shot / directed multicast).
    SendSmall {
        /// Destination peer.
        to: SpAddr,
        /// Payload.
        payload: Bytes,
    },
    /// WiFi only: broadcast a bulk payload over multicast UDP.
    McastBulk {
        /// Descriptor payload delivered to receivers.
        payload: Bytes,
        /// Bytes on the air.
        wire_len: u64,
    },
    /// WiFi only: transfer a payload to a peer over unicast TCP.
    TcpSend {
        /// Destination mesh address.
        to: MeshAddress,
        /// Descriptor payload.
        payload: Bytes,
        /// Bytes on the wire.
        wire_len: u64,
    },
    /// WiFi only: tear down and re-establish network-level connectivity
    /// (leave → scan → join), then call [`SpHandler::on_established`] — the
    /// expensive sequence SP apps run before a service interaction.
    EstablishFresh,
    /// Arm (or re-arm) an application timer.
    SetTimer {
        /// Token echoed to [`SpHandler::on_timer`].
        token: u64,
        /// Delay from now.
        delay: SimDuration,
    },
    /// Cancel an application timer.
    CancelTimer {
        /// The token to cancel.
        token: u64,
    },
    /// Start an infrastructure download.
    InfraRequest {
        /// Request id.
        req: u64,
        /// Total bytes.
        total: u64,
        /// Chunk granularity.
        chunk: u64,
    },
}

/// Deferred-operation handle, mirroring [`omni_core::OmniCtl`]'s shape.
#[derive(Debug, Default)]
pub struct SpCtl {
    pub(crate) ops: Vec<SpOp>,
    /// Current virtual time (set by the device before every handler call).
    pub now: omni_sim::SimTime,
}

impl SpCtl {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer stamped with the current virtual time.
    pub fn at(now: omni_sim::SimTime) -> Self {
        SpCtl { ops: Vec::new(), now }
    }

    /// Queues an operation.
    pub fn push(&mut self, op: SpOp) {
        self.ops.push(op);
    }

    /// Convenience: arm a timer.
    pub fn set_timer(&mut self, token: u64, delay: SimDuration) {
        self.push(SpOp::SetTimer { token, delay });
    }
}

/// A State-of-the-Practice application.
#[allow(unused_variables)]
pub trait SpHandler {
    /// Called once when the device boots.
    fn on_start(&mut self, ctl: &mut SpCtl);
    /// A discovery beacon arrived from a peer.
    fn on_beacon(&mut self, from: SpAddr, payload: &Bytes, ctl: &mut SpCtl) {}
    /// Directed or bulk application data arrived.
    fn on_data(&mut self, from: SpAddr, payload: &Bytes, ctl: &mut SpCtl) {}
    /// A directed/bulk transmission this device issued completed.
    fn on_sent(&mut self, ctl: &mut SpCtl) {}
    /// An application timer fired.
    fn on_timer(&mut self, token: u64, ctl: &mut SpCtl) {}
    /// An [`SpOp::EstablishFresh`] sequence completed.
    fn on_established(&mut self, ctl: &mut SpCtl) {}
    /// Infrastructure download progress.
    fn on_infra(&mut self, req: u64, received: u64, done: bool, ctl: &mut SpCtl) {}
}
