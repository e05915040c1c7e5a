//! The Communication Technology API (paper §3.2).
//!
//! "To integrate with Omni, each D2D technology only needs to implement two
//! methods": `enable` (receiving the three queues and returning the
//! technology type plus its low-level address) and `disable`. Our trait adds
//! two driver hooks required by the event-driven substrate: `poll` (drain the
//! send queue) and `on_node_event` (react to radio events and timers).
//! Neither widens the contract conceptually — in the paper's threaded
//! prototype both correspond to the technology's private thread loop.

use omni_sim::{NodeApi, NodeEvent};
use omni_wire::TechType;

use crate::queues::{LowAddr, TechQueues};

/// A pluggable D2D communication technology.
pub trait D2dTechnology {
    /// Activates the technology.
    ///
    /// `queues` is the technology's port: the three queues shared with the
    /// manager, plus the methods that build every response and received
    /// item and that arm and recognise the technology's timers within its
    /// own 2^16 tokens. The technology holds it until
    /// [`disable`](Self::disable). Returns the technology type and the
    /// low-level address where it is reachable.
    fn enable(&mut self, queues: TechQueues, api: &mut NodeApi<'_>) -> (TechType, LowAddr);

    /// Deactivates the technology: it fails the requests still queued or
    /// held ([`TechQueues::shut_down`]) and stops all radio activity.
    fn disable(&mut self, api: &mut NodeApi<'_>);

    /// The technology type (stable across the object's lifetime).
    fn tech_type(&self) -> TechType;

    /// Drains the send queue. The manager calls this whenever the
    /// technology's send queue holds requests, and only then; progress
    /// driven by radio events and timers belongs in
    /// [`on_node_event`](Self::on_node_event).
    fn poll(&mut self, api: &mut NodeApi<'_>);

    /// Offers a substrate event. Returns `true` when the event was consumed
    /// (it will not be offered to other technologies).
    ///
    /// The event is lent mutably so a technology can move a frame's payload
    /// out instead of cloning it. It may do so only for an event it
    /// consumes: an event it returns `false` for goes on to the next
    /// technology as it came.
    fn on_node_event(&mut self, event: &mut NodeEvent, api: &mut NodeApi<'_>) -> bool;

    /// Whether this technology currently holds an open session (e.g. a TCP
    /// connection) to the peer at `addr`. Used by the manager's selection to
    /// prefer already-established channels.
    fn has_session(&self, addr: &LowAddr) -> bool {
        let _ = addr;
        false
    }
}
