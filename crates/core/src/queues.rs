//! The queue-sharing contract between the Omni Manager and D2D technologies.
//!
//! Paper §3.2: "At initialization, each D2D technology is supplied with three
//! queues shared with the Omni Manager: a *receive_queue* shared across all
//! D2D technologies, a *response_queue* shared across all D2D technologies,
//! and a *send_queue* unique to each D2D technology." The queues are the
//! *only* communication path between technologies and the manager, which is
//! what makes technology integration modular.
//!
//! Queues are `parking_lot`-guarded deques behind `Arc`, so they could be
//! shared with real technology threads unchanged; in the simulation both
//! sides are polled from the event loop. An atomic length lives in the same
//! allocation as the mutex and is only written under it, so the common case
//! of polling an empty queue is one atomic load and never takes the lock.
//!
//! Like the paper's, the queues are unbounded. The manager's pump runs until
//! a pass finds every queue empty, so a queue holds only what the event being
//! handled put on it. Attaching an [`Obs`] handle
//! ([`SharedQueue::instrumented`]) exports a depth gauge and an
//! enqueue→dequeue wait digest.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use omni_obs::{Counter, Digest, Gauge, Obs};
use omni_wire::{BleAddress, MeshAddress, NfcAddress, OmniAddress, PackedStruct, TechType};
use parking_lot::Mutex;

use omni_sim::{NodeApi, NodeEvent, SimDuration};

/// A technology-specific low-level address.
///
/// Technologies attach their low-level source address to everything they
/// receive so the manager "can properly process the `omni_packed_struct`"
/// (paper §3.2) — in particular, refresh the peer mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LowAddr {
    /// A BLE hardware address.
    Ble(BleAddress),
    /// A WiFi-Mesh address.
    Mesh(MeshAddress),
    /// An NFC id.
    Nfc(NfcAddress),
}

impl std::fmt::Display for LowAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowAddr::Ble(a) => write!(f, "{a}"),
            LowAddr::Mesh(a) => write!(f, "{a}"),
            LowAddr::Nfc(a) => write!(f, "{a}"),
        }
    }
}

/// Observability attachment for a queue: its depth gauge and wait digest.
#[derive(Debug)]
struct QueueInstr {
    depth: Gauge,
    wait_us: Digest,
}

/// The single allocation behind a [`SharedQueue`] and its clones.
#[derive(Debug)]
struct QueueShared<T> {
    /// Mirror of `items.len()`, stored (`Release`) only while the mutex is
    /// held and loaded (`Acquire`) without it. Readers that find it zero
    /// skip the lock: the queue was empty at the moment of the load, which
    /// is a valid linearization point for `pop`. Items themselves are only
    /// ever read under the mutex.
    len: AtomicUsize,
    /// Items paired with their enqueue instant (stamped only when
    /// instrumented, so the uninstrumented path never reads the clock).
    items: Mutex<VecDeque<(T, Option<Instant>)>>,
}

/// A multi-producer multi-consumer FIFO shared by reference.
#[derive(Debug)]
pub struct SharedQueue<T> {
    shared: Arc<QueueShared<T>>,
    instr: Option<Arc<QueueInstr>>,
}

impl<T> Clone for SharedQueue<T> {
    fn clone(&self) -> Self {
        SharedQueue { shared: Arc::clone(&self.shared), instr: self.instr.clone() }
    }
}

impl<T> Default for SharedQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SharedQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        SharedQueue {
            shared: Arc::new(QueueShared {
                len: AtomicUsize::new(0),
                items: Mutex::new(VecDeque::new()),
            }),
            instr: None,
        }
    }

    /// Attaches observability: exports `queue.<label>.depth` and
    /// `queue.<label>.wait_us` (wall-clock).
    pub fn instrumented(mut self, obs: &Obs, label: &'static str) -> Self {
        self.instr = Some(Arc::new(QueueInstr {
            depth: obs.gauge(&format!("queue.{label}.depth")),
            wait_us: obs.digest(&format!("queue.{label}.wait_us")),
        }));
        self
    }

    /// Appends an item.
    pub fn push(&self, item: T) {
        let stamp = self.instr.as_ref().map(|_| Instant::now());
        let mut items = self.shared.items.lock();
        items.push_back((item, stamp));
        self.shared.len.store(items.len(), Ordering::Release);
        if let Some(i) = &self.instr {
            i.depth.set(items.len() as i64);
        }
    }

    /// Removes and returns the oldest item.
    pub fn pop(&self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let mut items = self.shared.items.lock();
        let (item, stamp) = items.pop_front()?;
        self.shared.len.store(items.len(), Ordering::Release);
        if let Some(i) = &self.instr {
            i.depth.set(items.len() as i64);
            if let Some(t0) = stamp {
                i.wait_us.record(t0.elapsed().as_micros() as u64);
            }
        }
        Some(item)
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.shared.len.load(Ordering::Acquire)
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<T> {
        if self.is_empty() {
            return Vec::new();
        }
        let mut items = self.shared.items.lock();
        let drained: Vec<(T, Option<Instant>)> = items.drain(..).collect();
        self.shared.len.store(0, Ordering::Release);
        if let Some(i) = &self.instr {
            i.depth.set(0);
            for (_, stamp) in &drained {
                if let Some(t0) = stamp {
                    i.wait_us.record(t0.elapsed().as_micros() as u64);
                }
            }
        }
        drained.into_iter().map(|(item, _)| item).collect()
    }
}

/// An item on the shared receive queue: a transmission some technology
/// received, tagged with the technology and the low-level source.
#[derive(Debug, Clone)]
pub struct ReceivedItem {
    /// The receiving technology.
    pub tech: TechType,
    /// The sender's low-level address on that technology.
    pub source: LowAddr,
    /// The decoded transmission.
    pub packed: PackedStruct,
}

/// The operation a send request asks a technology to perform.
///
/// Paper §3.2 (*The Send Queue*): "For context, the frequency of
/// transmission, the type of operation (add, remove, update), and optionally
/// the identifier for the context ... are supplied. For data, only the type
/// of operation (send) and the low-level destination address are supplied."
#[derive(Debug, Clone)]
pub enum SendOp {
    /// Begin periodically transmitting a context pack.
    AddContext {
        /// Manager-assigned context id.
        context_id: u64,
        /// Transmission interval.
        interval: SimDuration,
    },
    /// Change an existing periodic transmission.
    UpdateContext {
        /// The context id to update.
        context_id: u64,
        /// New transmission interval.
        interval: SimDuration,
    },
    /// Stop a periodic transmission.
    RemoveContext {
        /// The context id to remove.
        context_id: u64,
    },
    /// One-shot, fire-and-forget rebroadcast of a context pack on behalf of
    /// another device (multi-hop context relay). No response is generated.
    RelayContext,
    /// One-shot directed data transmission.
    SendData {
        /// The low-level destination address.
        dest: LowAddr,
        /// The destination's unified address (echoed in responses).
        dest_omni: OmniAddress,
        /// Logical size of the transfer on the wire (may exceed the packed
        /// payload length for bulk transfers).
        wire_len: u64,
        /// Whether the technology must first establish network-level
        /// connectivity (scan/join/resolve) because the destination was not
        /// learned through low-level neighbor discovery.
        establish: bool,
    },
}

/// A request on a technology's send queue.
#[derive(Debug, Clone)]
pub struct SendRequest {
    /// Manager-chosen token correlating the eventual response.
    pub token: u64,
    /// What to do.
    pub op: SendOp,
    /// The transmission content (absent for `RemoveContext`).
    pub packed: Option<PackedStruct>,
}

/// Successful outcomes reported on the response queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseOk {
    /// A periodic context transmission started.
    ContextAdded {
        /// The context id now transmitting.
        context_id: u64,
    },
    /// A periodic context transmission changed.
    ContextUpdated {
        /// The updated context id.
        context_id: u64,
    },
    /// A periodic context transmission stopped.
    ContextRemoved {
        /// The removed context id.
        context_id: u64,
    },
    /// A data transmission completed.
    DataSent {
        /// The destination's unified address.
        dest_omni: OmniAddress,
    },
}

/// A failure reported on the response queue.
///
/// "On failure, Omni also forwards all of the details from the send request,
/// including the parameters and payload, since the Omni Manager needs this
/// information to perform a re-transmission using an alternative technology"
/// (paper §3.2).
#[derive(Debug, Clone)]
pub struct TechFailure {
    /// Human-readable reason.
    pub description: String,
    /// The complete original request, as paper §3.2 asks. The manager
    /// replays from its own state and does not read it.
    pub original: SendRequest,
}

/// An item on the shared response queue.
#[derive(Debug, Clone)]
pub enum TechResponse {
    /// The outcome of a send-queue request.
    Outcome {
        /// The technology reporting.
        tech: TechType,
        /// The request token.
        token: u64,
        /// Success or failure (failure carries the original request).
        result: Result<ResponseOk, TechFailure>,
    },
    /// "A response is also generated when the status of the D2D technology
    /// itself changes, for example, when the radio is turned off or the
    /// address changes" (paper §3.2).
    StatusChanged {
        /// The technology reporting.
        tech: TechType,
        /// Whether the technology is currently usable.
        available: bool,
    },
}

/// How many timer tokens each technology owns, starting at its token base.
pub(crate) const TECH_TOKENS: u64 = 1 << 16;

/// A technology's port, handed to it at `enable`: the paper's three queues,
/// plus the technology's type, its `tech.<label>.failures` counter and its
/// timer-token base. Its methods build every item a technology puts on the
/// queues and confine its timers to its own 2^16 tokens, so a technology
/// writes only its radio logic (DESIGN.md §5).
#[derive(Debug, Clone)]
pub struct TechQueues {
    /// Shared across all technologies: received transmissions.
    pub receive: SharedQueue<ReceivedItem>,
    /// Shared across all technologies: request outcomes and status changes.
    pub response: SharedQueue<TechResponse>,
    /// Unique to this technology: transmission requests.
    pub send: SharedQueue<SendRequest>,
    tech: TechType,
    token_base: u64,
    failures: Option<Counter>,
}

impl TechQueues {
    /// The port of technology `tech`, whose timers use the tokens
    /// `token_base..token_base + 2^16`. With `obs`, failures count into
    /// `tech.<label>.failures`.
    pub fn new(
        tech: TechType,
        token_base: u64,
        receive: SharedQueue<ReceivedItem>,
        response: SharedQueue<TechResponse>,
        send: SharedQueue<SendRequest>,
        obs: Option<&Obs>,
    ) -> Self {
        let failures = obs.map(|o| o.counter(&format!("tech.{}.failures", tech.label())));
        TechQueues { receive, response, send, tech, token_base, failures }
    }

    /// Hands a transmission received from `source` to the manager.
    pub fn deliver(&self, source: LowAddr, packed: PackedStruct) {
        self.receive.push(ReceivedItem { tech: self.tech, source, packed });
    }

    /// Reports `req` done, with the outcome its operation names. A relayed
    /// context is fire-and-forget and gets no response.
    pub fn succeed(&self, req: &SendRequest) {
        let ok = match req.op {
            SendOp::AddContext { context_id, .. } => ResponseOk::ContextAdded { context_id },
            SendOp::UpdateContext { context_id, .. } => ResponseOk::ContextUpdated { context_id },
            SendOp::RemoveContext { context_id } => ResponseOk::ContextRemoved { context_id },
            SendOp::SendData { dest_omni, .. } => ResponseOk::DataSent { dest_omni },
            SendOp::RelayContext => return,
        };
        self.response.push(TechResponse::Outcome {
            tech: self.tech,
            token: req.token,
            result: Ok(ok),
        });
    }

    /// Reports `req` failed because of `why`, handing the whole request back
    /// for replay on another technology.
    pub fn fail(&self, why: impl Into<String>, req: SendRequest) {
        if let Some(c) = &self.failures {
            c.inc();
        }
        let (tech, token) = (self.tech, req.token);
        let failure = TechFailure { description: why.into(), original: req };
        self.response.push(TechResponse::Outcome { tech, token, result: Err(failure) });
    }

    /// Ends the technology's session: fails the send queue's requests and
    /// the `held` ones together, in token order, then reports the
    /// technology unavailable.
    pub fn shut_down(self, held: impl IntoIterator<Item = SendRequest>) {
        let mut reqs = self.send.drain();
        reqs.extend(held);
        reqs.sort_by_key(|req| req.token);
        for req in reqs {
            self.fail("technology disabled", req);
        }
        self.response.push(TechResponse::StatusChanged { tech: self.tech, available: false });
    }

    /// Arms the technology's timer `offset` (below 2^16) to fire after
    /// `delay`.
    pub fn set_timer(&self, api: &mut NodeApi<'_>, offset: u64, delay: SimDuration) {
        debug_assert!(
            offset < TECH_TOKENS,
            "timer offset {offset:#x} outside the technology's range"
        );
        api.set_timer(self.token_base + offset, delay);
    }

    /// Cancels the technology's timer `offset`.
    pub fn cancel_timer(&self, api: &mut NodeApi<'_>, offset: u64) {
        api.cancel_timer(self.token_base + offset);
    }

    /// The offset of `event` when it is one of this technology's timers.
    pub fn timer_offset(&self, event: &NodeEvent) -> Option<u64> {
        let NodeEvent::Timer { token } = event else { return None };
        token.checked_sub(self.token_base).filter(|&offset| offset < TECH_TOKENS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn shared_queue_is_fifo() {
        let q = SharedQueue::new();
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.drain(), vec![2, 3]);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clones_share_the_same_backing_queue() {
        let q = SharedQueue::new();
        let q2 = q.clone();
        q.push("from-manager");
        assert_eq!(q2.pop(), Some("from-manager"));
    }

    #[test]
    fn shared_queue_is_send_and_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<SharedQueue<SendRequest>>();
    }

    #[test]
    fn unbounded_queue_never_drops() {
        let q = SharedQueue::new();
        for i in 0..10_000 {
            q.push(i);
        }
        assert_eq!(q.len(), 10_000);
        assert_eq!(q.drain(), (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn instrumented_queue_exports_depth_and_waits() {
        let obs = Obs::new();
        let q = SharedQueue::new().instrumented(&obs, "receive");
        q.push("a");
        q.push("b");
        q.push("c");
        assert_eq!(obs.gauge("queue.receive.depth").get(), 3);
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(obs.gauge("queue.receive.depth").get(), 2);
        assert_eq!(obs.digest("queue.receive.wait_us").count(), 1);
        q.drain();
        assert_eq!(obs.gauge("queue.receive.depth").get(), 0);
        assert_eq!(obs.digest("queue.receive.wait_us").count(), 3);
    }

    /// Checks that every clone reports the length of a reference model.
    fn assert_len<T>(clones: &[&SharedQueue<T>], model: usize) {
        for q in clones {
            assert_eq!(q.len(), model);
            assert_eq!(q.is_empty(), model == 0);
        }
    }

    #[test]
    fn length_stays_consistent_across_clones() {
        let obs = Obs::new();
        for q in [SharedQueue::new(), SharedQueue::new().instrumented(&obs, "t")] {
            let (a, b) = (q.clone(), q.clone());
            let mut model = 0;
            assert_len(&[&q, &a, &b], 0);
            for i in 0..5 {
                [&q, &a, &b][i % 3].push(i);
                model += 1;
                assert_len(&[&q, &a, &b], model);
            }
            assert!(b.pop().is_some());
            model -= 1;
            assert_len(&[&q, &a, &b], model);
            assert_eq!(a.drain().len(), model);
            assert_len(&[&q, &a, &b], 0);
            assert_eq!(q.pop(), None);
            assert!(b.drain().is_empty());
            a.push(9);
            assert_len(&[&q, &a, &b], 1);
            assert_eq!(q.pop(), Some(9));
            assert_len(&[&q, &a, &b], 0);
        }
        // The instrumented queue's depth gauge agrees with the length.
        assert_eq!(obs.gauge("queue.t.depth").get(), 0);
    }

    #[test]
    fn length_is_exact_under_concurrent_producers_and_consumers() {
        let q = SharedQueue::new();
        let popped = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..2 {
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..10_000 {
                        q.push(t * 10_000 + i);
                    }
                });
            }
            let (q, popped) = (q.clone(), &popped);
            s.spawn(move || {
                for _ in 0..10_000 {
                    if q.pop().is_some() {
                        popped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        });
        let drained = q.drain().len();
        assert!(q.is_empty());
        assert_eq!(popped.into_inner() + drained, 20_000);
    }

    #[test]
    fn low_addr_displays_per_technology() {
        assert!(LowAddr::Ble(BleAddress([1, 2, 3, 4, 5, 6])).to_string().contains(':'));
        assert!(LowAddr::Mesh(MeshAddress::from_u64(9)).to_string().starts_with("mesh:"));
        assert!(LowAddr::Nfc(NfcAddress::from_u32(9)).to_string().starts_with("nfc:"));
    }

    fn nfc_port(obs: Option<&Obs>) -> TechQueues {
        let (receive, response, send) =
            (SharedQueue::new(), SharedQueue::new(), SharedQueue::new());
        TechQueues::new(TechType::Nfc, 3 << 32, receive, response, send, obs)
    }

    #[test]
    fn a_port_recognises_only_its_own_timers() {
        let port = nfc_port(None);
        let timer = |token| NodeEvent::Timer { token };
        assert_eq!(port.timer_offset(&timer(3 << 32)), Some(0));
        assert_eq!(port.timer_offset(&timer((3 << 32) + TECH_TOKENS - 1)), Some(TECH_TOKENS - 1));
        assert_eq!(port.timer_offset(&timer((3 << 32) + TECH_TOKENS)), None);
        assert_eq!(port.timer_offset(&timer((3 << 32) - 1)), None);
        assert_eq!(port.timer_offset(&NodeEvent::BleOneShotSent), None);
    }

    #[test]
    fn a_port_builds_outcomes_from_the_request_and_counts_failures() {
        let obs = Obs::new();
        let port = nfc_port(Some(&obs));
        let remove = |token| SendRequest {
            token,
            op: SendOp::RemoveContext { context_id: 4 },
            packed: None,
        };
        port.succeed(&remove(1));
        port.succeed(&SendRequest { token: 2, op: SendOp::RelayContext, packed: None });
        port.fail("gone", remove(3));
        match &port.response.drain()[..] {
            [TechResponse::Outcome {
                tech: TechType::Nfc,
                token: 1,
                result: Ok(ResponseOk::ContextRemoved { context_id: 4 }),
            }, TechResponse::Outcome { token: 3, result: Err(f), .. }] => {
                assert_eq!((f.description.as_str(), f.original.token), ("gone", 3));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(obs.counter("tech.nfc.failures").get(), 1);
    }

    #[test]
    fn failure_carries_the_original_request_for_replay() {
        let req = SendRequest {
            token: 9,
            op: SendOp::SendData {
                dest: LowAddr::Mesh(MeshAddress::from_u64(1)),
                dest_omni: OmniAddress::from_u64(2),
                wire_len: 30,
                establish: false,
            },
            packed: Some(PackedStruct::data(OmniAddress::from_u64(3), Bytes::from_static(b"x"))),
        };
        let failure = TechFailure { description: "peer unreachable".into(), original: req };
        assert_eq!(failure.original.token, 9);
        assert!(failure.original.packed.is_some());
    }
}
