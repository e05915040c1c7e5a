//! The interface between protocol stacks and the simulator.
//!
//! A [`Stack`] is a state machine owned by a device: the runner delivers
//! [`NodeEvent`]s to it and the stack responds by queueing [`Command`]s on its
//! [`NodeApi`]. Commands take effect after the event handler returns, which
//! keeps the borrow structure trivial and the execution order deterministic.

use bytes::Bytes;
use omni_wire::{BleAddress, MeshAddress, NfcAddress};

use crate::time::{SimDuration, SimTime};

/// Identifies a simulated device (dense index, assigned in creation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub usize);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// Identifies an open TCP connection over the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u64);

/// Why a TCP operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// The target is out of WiFi range or does not exist.
    Unreachable,
    /// The local or remote WiFi radio is powered off.
    RadioOff,
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Unreachable => f.write_str("peer unreachable"),
            TcpError::RadioOff => f.write_str("radio powered off"),
        }
    }
}

impl std::error::Error for TcpError {}

/// Events delivered to a [`Stack`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum NodeEvent {
    /// Delivered once when the simulation starts (or when the stack is
    /// attached to an already-running simulation).
    Start,
    /// A timer set with [`Command::SetTimer`] fired.
    Timer {
        /// The token the timer was set with.
        token: u64,
    },
    /// A periodic BLE advertisement from a neighbor was scanned.
    BleBeacon {
        /// Sender's BLE hardware address.
        from: BleAddress,
        /// Advertisement payload.
        payload: Bytes,
    },
    /// A one-shot BLE advertisement burst from a neighbor was scanned.
    BleOneShot {
        /// Sender's BLE hardware address.
        from: BleAddress,
        /// Burst payload.
        payload: Bytes,
    },
    /// A one-shot BLE burst issued by this device finished transmitting.
    /// Every burst gets one, in the order they were issued, including a
    /// burst the radio dropped (oversized, powered off or churned down).
    BleOneShotSent,
    /// A WiFi network scan completed.
    WifiScanDone {
        /// Mesh addresses of in-range, WiFi-powered devices observed by the
        /// scan.
        found: Vec<MeshAddress>,
    },
    /// A WiFi join/associate completed. A join can only be issued while
    /// powered, so it always succeeds.
    WifiJoined,
    /// The radio left the mesh group it had joined, through
    /// [`Command::WifiLeave`] or by powering off. A radio that was not
    /// joined hears nothing.
    WifiLeft,
    /// A multicast datagram was received (requires joined + listening).
    Multicast {
        /// Sender's mesh address.
        from: MeshAddress,
        /// Datagram payload.
        payload: Bytes,
    },
    /// A multicast datagram issued by this device finished transmitting
    /// (its airtime elapsed). Delivered in FIFO order of the sends.
    McastSendComplete,
    /// Result of a [`Command::TcpConnect`].
    TcpConnectResult {
        /// The caller-chosen token identifying the connect attempt.
        token: u64,
        /// The new connection, or the failure reason.
        result: Result<ConnId, TcpError>,
    },
    /// A peer opened a TCP connection to this device.
    TcpIncoming {
        /// The new connection.
        conn: ConnId,
        /// The initiator's mesh address.
        from: MeshAddress,
    },
    /// A complete TCP message arrived.
    TcpMessage {
        /// The carrying connection.
        conn: ConnId,
        /// Message payload (metadata; bulk bytes are modeled by the message's
        /// wire length, not materialized).
        payload: Bytes,
    },
    /// A message queued with [`Command::TcpSend`] finished transmitting.
    TcpSendComplete {
        /// The carrying connection.
        conn: ConnId,
    },
    /// A TCP connection closed.
    TcpClosed {
        /// The closed connection.
        conn: ConnId,
        /// True when the close was caused by range loss or power-off rather
        /// than an orderly [`Command::TcpClose`].
        error: bool,
    },
    /// An NFC exchange was received (requires touch range).
    NfcReceived {
        /// Sender's NFC id.
        from: NfcAddress,
        /// Exchanged payload.
        payload: Bytes,
    },
    /// A chunk of an infrastructure download arrived.
    InfraChunk {
        /// The request id passed to [`Command::InfraRequest`].
        req: u64,
        /// Zero-based index of the completed chunk.
        chunk: u64,
        /// Bytes received so far for this request.
        received_bytes: u64,
        /// Whether the request is fully served.
        done: bool,
    },
}

/// Commands a [`Stack`] queues on its [`NodeApi`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Command {
    /// Arms (or re-arms, replacing any pending timer with the same token) a
    /// one-shot timer.
    SetTimer {
        /// Caller-chosen token, echoed in [`NodeEvent::Timer`].
        token: u64,
        /// Delay from now.
        delay: SimDuration,
    },
    /// Cancels the pending timer with this token, if any.
    CancelTimer {
        /// The token to cancel.
        token: u64,
    },
    /// Powers the BLE radio on or off. Powering off stops scanning and all
    /// advertising slots.
    BlePower(bool),
    /// Sets BLE scanning: `None` disables, `Some(duty)` scans with the given
    /// duty cycle in `(0, 1]`. Energy scales with the duty cycle; periodic
    /// beacons are caught with probability `duty`.
    BleSetScan {
        /// Scanning duty cycle, or `None` to stop scanning.
        duty: Option<f64>,
    },
    /// Starts (or replaces) a periodic advertising slot.
    BleAdvertiseSet {
        /// Caller-chosen slot id; re-using a slot replaces its payload and
        /// interval.
        slot: u32,
        /// Advertisement payload (at most [`crate::BLE_MAX_PAYLOAD`] bytes).
        payload: Bytes,
        /// Advertising interval.
        interval: SimDuration,
    },
    /// Stops a periodic advertising slot.
    BleAdvertiseStop {
        /// The slot to stop.
        slot: u32,
    },
    /// Transmits a one-shot advertising burst, delivered to every in-range
    /// scanning neighbor after [`crate::BLE_ONESHOT_LATENCY`].
    BleSendOneShot {
        /// Burst payload (at most [`crate::BLE_MAX_PAYLOAD`] bytes).
        payload: Bytes,
    },
    /// Powers the WiFi radio on or off. Powering off drops the joined state
    /// (a joined radio hears [`NodeEvent::WifiLeft`]) and fails all
    /// connections and flows.
    WifiPower(bool),
    /// Starts a network scan ([`crate::WIFI_SCAN_TIME`], scan current).
    WifiScan,
    /// Joins the mesh group ([`crate::WIFI_JOIN_TIME`], connect current).
    WifiJoin,
    /// Leaves the mesh group immediately; a joined radio hears
    /// [`NodeEvent::WifiLeft`].
    WifiLeave,
    /// Enables or disables multicast reception (requires joined).
    WifiMcastListen(bool),
    /// Sends a multicast datagram to all joined, listening, in-range
    /// neighbors. Channel occupancy is `mcast_fixed_airtime +
    /// wire_len / mcast_rate_bps`, during which unicast flows stall.
    WifiMcastSend {
        /// Datagram payload (metadata).
        payload: Bytes,
        /// Bytes on the air (may exceed `payload.len()` to model bulk data).
        wire_len: u64,
        /// Whether to charge bulk (basic-rate) rather than burst transmit
        /// current.
        bulk: bool,
    },
    /// Opens a TCP connection to a peer's mesh address.
    TcpConnect {
        /// Caller-chosen token echoed in [`NodeEvent::TcpConnectResult`].
        token: u64,
        /// The peer's mesh address.
        peer: MeshAddress,
    },
    /// Queues a message on a connection. Messages are delivered in order;
    /// bandwidth is shared fluidly with all other active flows.
    TcpSend {
        /// The carrying connection.
        conn: ConnId,
        /// Message payload (metadata).
        payload: Bytes,
        /// Bytes on the wire (may exceed `payload.len()` to model bulk data).
        wire_len: u64,
    },
    /// Closes a connection gracefully. In-flight messages are dropped.
    TcpClose {
        /// The connection to close.
        conn: ConnId,
    },
    /// Exchanges a payload with every device in NFC touch range.
    NfcSend {
        /// Payload (at most [`crate::NFC_MAX_PAYLOAD`] bytes).
        payload: Bytes,
    },
    /// Starts (queues) an infrastructure download of `total_bytes`, delivered
    /// in `chunk_bytes` chunks at the device's provisioned infrastructure
    /// rate.
    InfraRequest {
        /// Caller-chosen request id.
        req: u64,
        /// Total bytes to download.
        total_bytes: u64,
        /// Chunk granularity for [`NodeEvent::InfraChunk`] notifications.
        chunk_bytes: u64,
    },
    /// Cancels queued and in-flight infrastructure requests with this id.
    InfraCancel {
        /// The request id to cancel.
        req: u64,
    },
}

/// Handle through which a [`Stack`] observes time and issues [`Command`]s.
#[derive(Debug)]
pub struct NodeApi<'a> {
    /// The device this stack runs on.
    pub device: DeviceId,
    /// Current virtual time.
    pub now: SimTime,
    pub(crate) commands: &'a mut Vec<(DeviceId, Command)>,
}

impl<'a> NodeApi<'a> {
    /// Builds a detached handle backed by a caller-owned command buffer —
    /// for unit-testing stacks and technologies without a [`crate::Runner`].
    pub fn detached(
        device: DeviceId,
        now: SimTime,
        commands: &'a mut Vec<(DeviceId, Command)>,
    ) -> NodeApi<'a> {
        NodeApi { device, now, commands }
    }

    /// Queues a command for execution after the current handler returns.
    pub fn push(&mut self, cmd: Command) {
        self.commands.push((self.device, cmd));
    }

    /// Convenience: arm a timer.
    pub fn set_timer(&mut self, token: u64, delay: SimDuration) {
        self.push(Command::SetTimer { token, delay });
    }

    /// Convenience: cancel a timer.
    pub fn cancel_timer(&mut self, token: u64) {
        self.push(Command::CancelTimer { token });
    }
}

/// A protocol stack attached to a device.
///
/// Implementations must be deterministic functions of the event sequence:
/// no wall-clock, no global state. All randomness must come from seeds fed
/// in at construction.
///
/// Broadcast events (BLE beacons and one-shots, multicast datagrams, NFC
/// exchanges) fan out to recipients in **ascending [`DeviceId`] order** —
/// the spatial neighbor index sorts its results (see `World`), so delivery
/// order is part of the determinism contract and never depends on placement
/// history or hash-map internals.
pub trait Stack {
    /// Handles one event. Queue follow-up work as commands on `api`.
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_api_queues_commands_for_its_device() {
        let mut cmds = Vec::new();
        let mut api = NodeApi { device: DeviceId(3), now: SimTime::ZERO, commands: &mut cmds };
        api.set_timer(7, SimDuration::from_millis(500));
        api.cancel_timer(7);
        assert_eq!(cmds.len(), 2);
        assert_eq!(cmds[0].0, DeviceId(3));
        assert!(matches!(cmds[0].1, Command::SetTimer { token: 7, .. }));
        assert!(matches!(cmds[1].1, Command::CancelTimer { token: 7 }));
    }

    #[test]
    fn tcp_error_displays() {
        assert_eq!(TcpError::Unreachable.to_string(), "peer unreachable");
        assert_eq!(TcpError::RadioOff.to_string(), "radio powered off");
    }

    #[test]
    fn device_id_displays_with_index() {
        assert_eq!(DeviceId(4).to_string(), "dev4");
    }
}
