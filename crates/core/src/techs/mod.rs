//! D2D technology implementations for the Communication Technology API.

use std::collections::HashMap;

use omni_sim::{NodeApi, SimDuration};

use crate::queues::{SendRequest, TechQueues, TECH_TOKENS};

mod ble;
mod nfc;
mod wifi_mcast;
mod wifi_tcp;

pub use ble::BleBeaconTech;
pub use nfc::NfcTech;
pub use wifi_mcast::WifiMulticastTech;
pub use wifi_tcp::WifiTcpTech;

/// Data sends that complete when a timer fires: NFC's touch latency and
/// multicast's airtime. Each waits under its own timer in the upper half of
/// the technology's timer range, which this table owns.
#[derive(Debug, Default)]
pub(crate) struct TimedSends {
    held: HashMap<u64, SendRequest>,
    next: u64,
}

impl TimedSends {
    /// The first timer offset of the upper half.
    const BASE: u64 = TECH_TOKENS / 2;

    /// Holds `req` until its timer fires, `delay` from now.
    pub(crate) fn arm(
        &mut self,
        port: &TechQueues,
        api: &mut NodeApi<'_>,
        req: SendRequest,
        delay: SimDuration,
    ) {
        self.next += 1;
        let offset = Self::BASE + self.next % Self::BASE;
        self.held.insert(offset, req);
        port.set_timer(api, offset, delay);
    }

    /// Whether timer `offset` is one of the table's. If it holds a send
    /// there, the send succeeds.
    pub(crate) fn fire(&mut self, port: &TechQueues, offset: u64) -> bool {
        if offset < Self::BASE {
            return false;
        }
        if let Some(req) = self.held.remove(&offset) {
            port.succeed(&req);
        }
        true
    }

    /// Cancels every timer and returns the sends they held.
    pub(crate) fn cancel(&mut self, port: &TechQueues, api: &mut NodeApi<'_>) -> Vec<SendRequest> {
        let cancel = |(offset, req)| {
            port.cancel_timer(api, offset);
            req
        };
        self.held.drain().map(cancel).collect()
    }
}

/// Encodes one frame through a technology's reusable scratch buffer: the
/// scratch's capacity is retained across sends, so a steady-state send pays
/// one shared-buffer allocation for the outgoing frame instead of one per
/// framing layer (DESIGN.md §5i).
pub(crate) fn pooled(
    scratch: &mut bytes::BytesMut,
    write: impl FnOnce(&mut bytes::BytesMut),
) -> bytes::Bytes {
    scratch.clear();
    write(scratch);
    bytes::Bytes::copy_from_slice(scratch)
}

#[cfg(test)]
pub(crate) mod testing {
    use omni_sim::{Command, DeviceId, NodeApi, SimTime};
    use omni_wire::TechType;

    use crate::queues::{SharedQueue, TechQueues, TechResponse};

    /// A port with fresh queues and no observability.
    pub(crate) fn port(tech: TechType, token_base: u64) -> TechQueues {
        let (receive, response, send) =
            (SharedQueue::new(), SharedQueue::new(), SharedQueue::new());
        TechQueues::new(tech, token_base, receive, response, send, None)
    }

    /// Runs `f` against a detached `NodeApi` that records into `cmds`.
    pub(crate) fn with_api<R>(
        cmds: &mut Vec<(DeviceId, Command)>,
        f: impl FnOnce(&mut NodeApi<'_>) -> R,
    ) -> R {
        let mut api = NodeApi::detached(DeviceId(0), SimTime::ZERO, cmds);
        f(&mut api)
    }

    /// The tokens `disable` failed, in order, after checking that each
    /// failure says so and that exactly one `StatusChanged { available:
    /// false }` ends the responses.
    pub(crate) fn disabled_tokens(responses: Vec<TechResponse>) -> Vec<u64> {
        let (last, failures) = responses.split_last().expect("responses");
        assert!(matches!(last, TechResponse::StatusChanged { available: false, .. }), "{last:?}");
        failures
            .iter()
            .map(|r| match r {
                TechResponse::Outcome { token, result: Err(f), .. } => {
                    assert_eq!(f.description, "technology disabled");
                    assert_eq!(f.original.token, *token);
                    *token
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }
}
