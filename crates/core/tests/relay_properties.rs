//! Property tests for the opt-in relay layer (DESIGN.md §5h).
//!
//! The scenarios run full Omni stacks on a sparse BLE chain — node pitch
//! 25 m against a 30 m radio range, so only adjacent nodes ever hear each
//! other and the single-hop data path scores 0% to the far end. Under that
//! topology the tests pin the relay contract:
//!
//! * every origin send concludes with **exactly one** terminal status, under
//!   any strategy and ≤ 30% BLE frame loss;
//! * a frame whose TTL runs out mid-chain is **never** delivered;
//! * hop counts grow **monotonically** along each trace's custody chain in
//!   the flight-recorder timeline;
//! * the seen-set dedup **never** forgets a first-seen frame while it is
//!   within capacity.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use omni_core::{OmniBuilder, OmniConfig, OmniStack, RelayPolicy, SeenSet};
use omni_obs::{Event, EventKind, Obs};
use omni_sim::{DeviceCaps, FaultConfig, Position, Runner, SimDuration, SimTime};
use omni_sim::{FlightRecorder, SimConfig};
use omni_wire::{ResponseInfo, StatusCode};
use proptest::prelude::*;

/// Node pitch along the chain; BLE range is 30 m, so 25 m keeps exactly the
/// adjacent pairs connected.
const PITCH_M: f64 = 25.0;
/// First send fires after discovery has converged.
const FIRST_SEND_MS: u64 = 2_000;
/// Spacing between sends.
const SEND_GAP_MS: u64 = 400;

struct ChainRun {
    /// Terminal status codes per message index, in callback order.
    statuses: Vec<Vec<StatusCode>>,
    /// Distinct payload ids the far-end destination actually received.
    delivered: Vec<u8>,
    /// Flight recorder over the shared event ring.
    recorder: FlightRecorder,
}

impl ChainRun {
    fn events(&self) -> &[Event] {
        self.recorder.events()
    }
}

/// Runs `msgs` sends from node 0 to node `nodes-1` over a sparse BLE chain
/// with every stack configured for the given relay policy.
fn run_chain(
    seed: u64,
    nodes: usize,
    policy: RelayPolicy,
    ble_loss: f64,
    msgs: usize,
    until_s: u64,
) -> ChainRun {
    let faults = FaultConfig { ble_loss, ..Default::default() };
    let mut sim = Runner::new(SimConfig { seed, faults, ..Default::default() });
    let obs = Obs::new();
    sim.set_obs(obs.clone());
    let cfg = OmniConfig { relay: policy, ..Default::default() };

    let devs: Vec<_> = (0..nodes)
        .map(|i| sim.add_device(DeviceCaps::PI, Position::new(i as f64 * PITCH_M, 0.0)))
        .collect();
    let dest = OmniBuilder::omni_address(&sim, devs[nodes - 1]);

    let statuses: Rc<RefCell<Vec<Vec<StatusCode>>>> = Rc::new(RefCell::new(vec![Vec::new(); msgs]));
    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));

    for (i, &dev) in devs.iter().enumerate() {
        let mgr =
            OmniBuilder::new().with_ble().with_config(cfg.clone()).with_obs(&obs).build(&sim, dev);
        if i == 0 {
            let st = statuses.clone();
            sim.set_stack(
                dev,
                Box::new(OmniStack::new(mgr, move |omni| {
                    let st2 = st.clone();
                    omni.request_timers(Box::new(move |token, o| {
                        let m = (token - 1) as usize;
                        let st3 = st2.clone();
                        o.send_data(
                            vec![dest],
                            Bytes::from(vec![m as u8]),
                            Box::new(move |code, _, _| st3.borrow_mut()[m].push(code)),
                        );
                    }));
                    for m in 0..msgs {
                        omni.set_timer(
                            (m + 1) as u64,
                            SimDuration::from_millis(FIRST_SEND_MS + SEND_GAP_MS * m as u64),
                        );
                    }
                })),
            );
        } else if i == nodes - 1 {
            let g = got.clone();
            sim.set_stack(
                dev,
                Box::new(OmniStack::new(mgr, move |omni| {
                    omni.request_data(Box::new(move |_, payload, _| {
                        if let Some(&id) = payload.first() {
                            if !g.borrow().contains(&id) {
                                g.borrow_mut().push(id);
                            }
                        }
                    }));
                })),
            );
        } else {
            // Pure carriers: no app-level behavior at all — the relay layer
            // below the API is the only thing moving frames.
            sim.set_stack(dev, Box::new(OmniStack::new(mgr, |_| {})));
        }
    }

    sim.run_until(SimTime::from_secs(until_s));
    let statuses = statuses.borrow().clone();
    let delivered = got.borrow().clone();
    ChainRun { statuses, delivered, recorder: FlightRecorder::from_obs(&obs) }
}

/// A short custody timeout keeps the undeliverable cases fast while still
/// exercising expiry → terminal-failure resolution.
fn quick(mut policy: RelayPolicy) -> RelayPolicy {
    policy.custody_timeout = SimDuration::from_secs(8);
    policy
}

fn strategies() -> impl Strategy<Value = RelayPolicy> {
    prop_oneof![
        Just(RelayPolicy::epidemic()),
        Just(RelayPolicy::prophet()),
        Just(RelayPolicy::spray(4)),
    ]
}

// ---------------------------------------------------------------------
// Deterministic anchors (plain tests so a failure names them directly).
// ---------------------------------------------------------------------

/// The headline behavior: a 4-node chain where the destination is 3 hops
/// away delivers over the relay even though no direct path exists.
#[test]
fn epidemic_relay_crosses_a_sparse_three_hop_chain() {
    let run = run_chain(11, 4, RelayPolicy::epidemic(), 0.0, 4, 30);
    assert_eq!(run.delivered.len(), 4, "all messages cross the chain: {:?}", run.delivered);
    for (m, st) in run.statuses.iter().enumerate() {
        assert_eq!(
            st.as_slice(),
            [StatusCode::SendDataSuccess],
            "message {m} must conclude success exactly once, got {st:?}"
        );
    }
    // The timeline shows actual multi-hop forwarding.
    assert!(
        run.events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::DataRelayed { hops, .. } if hops >= 3)),
        "no ≥3-hop forward recorded"
    );
}

/// Relaying off is the seed behavior: nothing crosses the chain.
#[test]
fn single_hop_path_scores_zero_on_the_same_chain() {
    let run = run_chain(11, 4, RelayPolicy::off(), 0.0, 4, 30);
    assert!(run.delivered.is_empty(), "no relay, no delivery: {:?}", run.delivered);
    for st in &run.statuses {
        assert_eq!(st.len(), 1, "still exactly one terminal status");
        assert_eq!(st[0], StatusCode::SendDataFailure);
    }
}

/// A sized send's logical size is not on the wire, so no custodian could
/// forward it at that size: it rides no relay header and behaves as with
/// relaying off. BLE cannot carry 200,000 B, so the send fails at once and
/// nothing is delivered.
#[test]
fn a_sized_send_stays_single_hop_with_relaying_on() {
    let mut sim = Runner::new(SimConfig::default());
    let cfg = OmniConfig { relay: RelayPolicy::epidemic(), ..Default::default() };
    let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
    let dest = OmniBuilder::omni_address(&sim, b);
    let statuses = Rc::new(RefCell::new(Vec::new()));
    let got = Rc::new(RefCell::new(Vec::new()));

    let mgr = OmniBuilder::new().with_ble().with_config(cfg.clone()).build(&sim, a);
    let st = statuses.clone();
    sim.set_stack(
        a,
        Box::new(OmniStack::new(mgr, move |omni| {
            omni.request_timers(Box::new(move |_, o| {
                let st = st.clone();
                o.send_data_sized(
                    vec![dest],
                    Bytes::from_static(b"bulk"),
                    200_000,
                    Box::new(move |code, info, o| {
                        st.borrow_mut().push((o.now, code, info.clone()));
                    }),
                );
            }));
            omni.set_timer(1, SimDuration::from_secs(5));
        })),
    );
    let mgr = OmniBuilder::new().with_ble().with_config(cfg).build(&sim, b);
    let g = got.clone();
    sim.set_stack(
        b,
        Box::new(OmniStack::new(mgr, move |omni| {
            omni.request_data(Box::new(move |_, payload, _| g.borrow_mut().push(payload.clone())));
        })),
    );
    sim.run_until(SimTime::from_secs(10));

    let statuses = statuses.borrow();
    let [(at, StatusCode::SendDataFailure, ResponseInfo::SendFailure { description, .. })] =
        &statuses[..]
    else {
        panic!("expected one SendFailure, got {statuses:?}");
    };
    assert_eq!(*at, SimTime::from_secs(5));
    assert_eq!(description, "no applicable technology for destination");
    assert!(got.borrow().is_empty(), "delivered {:?}", got.borrow());
}

// ---------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Exactly-once terminal status: under any strategy, chain length, and
    /// ≤ 30% BLE loss, every send concludes exactly once — success on the
    /// first custody handoff, or failure when custody expires undelivered.
    #[test]
    fn every_send_concludes_exactly_once_under_relay_and_loss(
        seed in any::<u64>(),
        policy in strategies(),
        ble_loss in 0.0f64..=0.30,
        nodes in 3usize..=4,
    ) {
        let run = run_chain(seed, nodes, quick(policy), ble_loss, 3, 16);
        for (m, st) in run.statuses.iter().enumerate() {
            prop_assert_eq!(
                st.len(), 1,
                "message {} concluded {} times ({:?}) under loss {}",
                m, st.len(), st, ble_loss
            );
            prop_assert!(
                matches!(st[0], StatusCode::SendDataSuccess | StatusCode::SendDataFailure),
                "non-terminal status {:?}", st[0]
            );
        }
    }

    /// A TTL smaller than the chain's hop distance expires mid-path and the
    /// frame is never delivered — while the origin still gets its exactly-
    /// once terminal failure.
    #[test]
    fn ttl_expired_frames_are_never_delivered(
        seed in any::<u64>(),
        policy in strategies(),
        ttl in 1u8..=2,
    ) {
        // 4-node chain: the destination is 3 hops away, ttl ∈ {1, 2} < 3.
        let mut policy = quick(policy);
        policy.initial_ttl = ttl;
        let run = run_chain(seed, 4, policy, 0.0, 2, 16);
        prop_assert!(
            run.delivered.is_empty(),
            "ttl {} < 3 hops must never deliver, got {:?}", ttl, run.delivered
        );
        prop_assert!(
            run.events().iter().any(|e| matches!(e.kind, EventKind::TtlExpired { .. })),
            "the expiry must be recorded"
        );
        // Custody-transfer semantics: the origin's status resolves at the
        // first successful handoff, so it may read success even though the
        // frame died downstream — but it still resolves exactly once.
        for st in &run.statuses {
            prop_assert_eq!(st.len(), 1, "exactly one terminal status, got {:?}", st);
        }
    }

    /// Hop counts grow monotonically along each trace's custody chain: a
    /// node's custody fixes its hop distance (first copy wins via dedup),
    /// custody events appear in strictly increasing hop order, and every
    /// forward a node emits carries exactly its own distance + 1.
    #[test]
    fn hop_counts_increase_monotonically_along_recorder_timelines(
        seed in any::<u64>(),
        policy in strategies(),
        ble_loss in 0.0f64..=0.30,
    ) {
        let policy = quick(policy);
        let initial_ttl = u64::from(policy.initial_ttl);
        let run = run_chain(seed, 4, policy, ble_loss, 3, 16);
        for tl in run.recorder.traces() {
            // Events are time-ordered; custody assigns each node its hop
            // distance exactly once per trace.
            let mut custody_hops: std::collections::HashMap<u32, u64> =
                std::collections::HashMap::new();
            let mut last_custody_hops: Option<u64> = None;
            for e in &tl.events {
                match e.kind {
                    EventKind::DataCustody { ttl, .. } => {
                        let hops = initial_ttl - ttl;
                        prop_assert!(
                            !custody_hops.contains_key(&e.node),
                            "node {} took custody twice for trace {}", e.node, tl.trace
                        );
                        custody_hops.insert(e.node, hops);
                        if let Some(prev) = last_custody_hops {
                            prop_assert!(
                                hops > prev,
                                "custody hop count regressed: {} after {} (trace {})",
                                hops, prev, tl.trace
                            );
                        }
                        last_custody_hops = Some(hops);
                    }
                    EventKind::DataRelayed { hops, .. } => {
                        let own = custody_hops.get(&e.node).copied();
                        prop_assert_eq!(
                            Some(hops), own.map(|h| h + 1),
                            "node {} forwarded hops {} but holds custody at {:?}",
                            e.node, hops, own
                        );
                    }
                    _ => {}
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The seen-set never forgets a first-seen frame while it is within
    /// capacity: `insert` reports first-seen exactly when a FIFO model of
    /// the same capacity does.
    #[test]
    fn seen_set_never_drops_a_first_seen_frame(
        capacity in 1usize..=16,
        ids in proptest::collection::vec(0u64..32, 1..200),
    ) {
        let mut seen = SeenSet::new(capacity);
        let mut model: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
        for id in ids {
            let expect_first = !model.contains(&id);
            prop_assert_eq!(
                seen.insert(id), expect_first,
                "id {} (model {:?}, capacity {})", id, model, capacity
            );
            if expect_first {
                model.push_back(id);
                if model.len() > capacity {
                    model.pop_front();
                }
            }
        }
    }
}
