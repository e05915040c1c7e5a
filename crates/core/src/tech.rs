//! The Communication Technology API (paper §3.2).
//!
//! "To integrate with Omni, each D2D technology only needs to implement two
//! methods": `enable` (receiving the three queues and returning the
//! technology type plus its low-level address) and `disable`. Our trait adds
//! two driver hooks required by the event-driven substrate: `poll` (drain the
//! send queue) and `on_node_event` (react to radio events and timers).
//! Neither widens the contract conceptually — in the paper's threaded
//! prototype both correspond to the technology's private thread loop.

use omni_obs::Obs;
use omni_sim::{NodeApi, NodeEvent};
use omni_wire::TechType;

use crate::queues::{LowAddr, TechQueues};

/// A pluggable D2D communication technology.
pub trait D2dTechnology {
    /// Activates the technology.
    ///
    /// `queues` is the three-queue bundle shared with the manager;
    /// `token_base` is the start of the timer-token range reserved for this
    /// technology (it may use `token_base..token_base + 2^16`). Returns the
    /// technology type and the low-level address where it is reachable.
    fn enable(
        &mut self,
        queues: TechQueues,
        token_base: u64,
        api: &mut NodeApi<'_>,
    ) -> (TechType, LowAddr);

    /// Deactivates the technology: it should process remaining send-queue
    /// requests (failing them) and stop all radio activity.
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
    fn on_node_event(&mut self, event: &NodeEvent, api: &mut NodeApi<'_>) -> bool;

    /// Whether this technology currently holds an open session (e.g. a TCP
    /// connection) to the peer at `addr`. Used by the manager's selection to
    /// prefer already-established channels.
    fn has_session(&self, addr: &LowAddr) -> bool {
        let _ = addr;
        false
    }

    /// Offers an observability handle before `enable`. Technologies that
    /// export metrics (request/failure counters) keep a clone; the default
    /// implementation ignores it, so existing technologies need no changes.
    fn attach_obs(&mut self, obs: &Obs) {
        let _ = obs;
    }
}
