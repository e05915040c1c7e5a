//! A pinned transcript of what `OmniManager` does.
//!
//! Five fleets of full Omni stacks run, each in its own `Runner`:
//!
//! * **fire-and-forget** (the default config): PI, PHONE and BEACON devices
//!   under TCP connect loss, with one device teleported out of range and
//!   back;
//! * **reliable**: `RetryPolicy::reliable()`, the adaptive beacon and
//!   context relay, under BLE and multicast loss, a WiFi-scoped partition
//!   and churn;
//! * **a sparse 25 m BLE chain** three times: epidemic relay, PRoPHET with
//!   reliable retry, and spray-and-wait with a group key, all with an 8 s
//!   custody timeout.
//!
//! Every device runs the same application, which walks the Developer API:
//! a small context and a 100 B one (it fails over on phones and fails on
//! BLE-only devices); update and remove of its own context, of an unknown id
//! and of the address beacon's id; and small, bulk, unknown-destination,
//! TCP-only, fan-out and burst sends.
//!
//! The test folds into one FNV-1a digest every status callback (sim µs,
//! device, code and the `Debug` form of its `ResponseInfo`, which unlike
//! `Display` keeps the trace), every context and data receipt, the JSON of
//! every obs event, the flight recorder's JSONL, the bits of each device's
//! energy total and the final value of every counter. All of it is
//! simulated and deterministic. Each run writes the hashed text to
//! `manager_transcript.txt` in Cargo's target tmp directory, and a mismatch
//! names each fleet's own digest, so a diff against another revision's dump
//! shows what moved.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use omni_core::{
    AdaptiveBeacon, ContextParams, GroupKey, OmniBuilder, OmniConfig, OmniCtl, OmniStack,
    RelayPolicy, RetryPolicy, StatusCallback, ADDRESS_BEACON_CONTEXT_ID,
};
use omni_obs::{event_json, Obs};
use omni_sim::{
    ChurnWindow, DeviceCaps, FaultConfig, FaultScope, FlightRecorder, LinkPartition, Position,
    Runner, SimConfig, SimDuration, SimTime,
};
use omni_wire::{OmniAddress, ResponseInfo};

/// The digest of all five fleets.
///
/// Re-pinned once, when data selection began counting a frame's trace ID
/// (and relay header) in the BLE payload bound. Four 40 B fire-and-forget
/// sends to BLE-only peers used to be offered BLE and fail with "payload 66
/// exceeds BLE limit 64". They now fail with "no applicable technology for
/// destination": their BLE `DataEnqueued` events are gone, their
/// `DataFailed` names no technology, and the flight recorder's later
/// sequence numbers shift. Nothing else moved.
///
/// Re-pinned again when the transcript began ending each fleet with its
/// counters (the technologies' `tech.<label>.failures` among them). The
/// lines before the counters are unchanged.
///
/// Re-pinned a third time when the queues began stamping their drop events
/// with sim time instead of wall-clock microseconds. The transcript
/// used to zero those stamps; it now hashes them, and the flight recorder's
/// JSONL now keeps the events, so its later sequence numbers shift.
///
/// Re-pinned a fourth time when sized sends stopped riding the relay layer.
/// Each chain fleet's five 200,000 B `bulk` sends between BLE-only devices
/// used to enter custody and succeed as 4 B descriptors relayed over BLE.
/// They now fail as with relaying off: with `SendFailure` at once, except in
/// the PRoPHET fleet, whose reliable retries end four of them in
/// `SendExhausted` (the fifth device's peer is never discovered, which
/// fails at once everywhere). Only those statuses and receipts moved, with
/// the chain fleets' events, counters and energy; the first two fleets are
/// unchanged.
///
/// Re-pinned a fifth time when a send that no data technology of its device
/// can carry began failing at once, with `SendFailure` "no applicable
/// technology for destination". In the reliable fleet the BLE-only
/// devices' `bulk`, `forty` and `tcp-only` sends used to burn every retry
/// pass and end in `SendExhausted` 5 s later. In the chain fleets the
/// `forty` and `tcp-only` sends used to wait in custody until it expired,
/// and the PRoPHET fleet's `bulk` sends retried; the `bulk` send to the
/// never-discovered peer now fails for the same reason, checked first.
/// 96 status lines moved, with those fleets' events, counters and energy.
/// The fire-and-forget fleet is byte-identical.
///
/// Re-pinned a sixth time when the runner began counting TCP connects that
/// a partition or churn window blocks under `sim.faults.drops{cause=..}`,
/// and the `sim.faults.frames_dropped` counter, a second count of the
/// `cause=frame-loss` drops, was deleted. Only counter lines moved: every
/// fleet lost its `sim.faults.frames_dropped` line, and the reliable fleet's
/// partition drops went from 25 to 34 and its node-down drops from 260 to
/// 262. Statuses, events and energy are byte-identical.
///
/// Re-pinned a seventh time when the successful `Remove` that disengaging a
/// technology submits stopped recording the technology as a carrier of the
/// context. In the reliable fleet one node engaged multicast at 11 s,
/// disengaged it at 12 s and re-engaged it at 17 s; its multicast
/// technology used to carry nothing after that. Only the reliable fleet
/// moved, from 17.28 s on, and no status line: its
/// `tech.wifi-multicast.failures` went from 2 (two `Remove`s of contexts the
/// technology no longer held) to 0, its `tech.wifi-multicast.tx_frames` from
/// 145 to 149, and five devices' energy lines moved.
///
/// Re-pinned an eighth time when the queues lost their bound. The reliable
/// fleet ran with four-item queues: its fan-out and burst sends evicted 14
/// requests from BLE send queues and 2 from multicast ones, and the manager
/// answered each eviction with a made-up failure. dev3's and dev5's third
/// `update-own` now succeed instead of failing as evicted, so their removes
/// stop their contexts, which the fleet used to hear 208 and 214 more times.
/// Sends that were evicted no longer wait out retries, so they succeed
/// earlier. The reliable fleet keeps its 174 status lines; its
/// `tech.ble-beacon.tx_frames` went from 773 to 669, `mgr.data_retries` from
/// 166 to 154 and `mgr.data_enqueued` from 188 to 172. Every fleet lost its
/// queue drop counters, all zero outside the reliable fleet, and that is all
/// that moved in the other four.
///
/// Re-pinned a ninth time when the runner stopped counting frames per
/// spatial-grid cell. Each fleet lost its `sim.cell.tx_frames{cell=..}`
/// counter lines, nine in all, and nothing else moved.
const PINNED_DIGEST: u64 = 0xbd84_dfcc_c63e_5168;

/// Event-ring size: no fleet here comes close to wrapping it (asserted).
const EVENT_CAPACITY: usize = 1 << 18;

/// A destination no fleet ever discovers.
const UNKNOWN: OmniAddress = OmniAddress::from_u64(0xDEAD_BEEF);

/// A context id no application ever receives.
const UNKNOWN_CONTEXT: u64 = 999;

type Lines = Rc<RefCell<Vec<String>>>;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// A status callback that logs its code and info.
fn status(lines: &Lines, dev: usize, what: &'static str) -> StatusCallback {
    let lines = lines.clone();
    Box::new(move |code, info, o| {
        let t = o.now.as_micros();
        lines.borrow_mut().push(format!("status {t} dev{dev} {what} {code:?} {info:?}"));
    })
}

/// The application every device runs. `next` is its unicast peer; `peers`
/// are all other devices of the fleet.
fn app(omni: &mut OmniCtl, dev: usize, next: OmniAddress, peers: Vec<OmniAddress>, lines: Lines) {
    let own = Rc::new(Cell::new(None::<u64>));
    let l = lines.clone();
    omni.request_context(Box::new(move |src, ctx, o| {
        l.borrow_mut().push(format!("ctx {} dev{dev} {src} {ctx:?}", o.now.as_micros()));
    }));
    let l = lines.clone();
    omni.request_data(Box::new(move |src, data, o| {
        l.borrow_mut().push(format!("data {} dev{dev} {src} {data:?}", o.now.as_micros()));
    }));
    let (l, o2) = (lines.clone(), own.clone());
    omni.add_context(
        ContextParams::default(),
        Bytes::from(format!("ctx-{dev}")),
        Box::new(move |code, info, o| {
            if let ResponseInfo::ContextId(id) = info {
                o2.set(Some(*id));
            }
            let t = o.now.as_micros();
            l.borrow_mut().push(format!("status {t} dev{dev} add-small {code:?} {info:?}"));
        }),
    );
    omni.add_context(
        ContextParams::default(),
        Bytes::from(vec![dev as u8; 100]),
        status(&lines, dev, "add-100"),
    );
    let l = lines;
    let up = move |o: &mut OmniCtl, l: &Lines, id: u64, what: &'static str, version: u8| {
        let payload = Bytes::from(format!("ctx-{dev}-v{version}"));
        o.update_context(id, ContextParams::default(), payload, status(l, dev, what));
    };
    omni.request_timers(Box::new(move |token, o| match token {
        1 => {
            o.send_data(vec![next], Bytes::from(format!("small-{dev}")), status(&l, dev, "small"));
            o.send_data_sized(
                vec![next],
                Bytes::from_static(b"bulk"),
                200_000,
                status(&l, dev, "bulk"),
            );
            o.send_data(vec![UNKNOWN], Bytes::from_static(b"lost!"), status(&l, dev, "unknown"));
            o.send_data(vec![next], Bytes::from(vec![dev as u8; 40]), status(&l, dev, "forty"));
        }
        2 => {
            if let Some(id) = own.get() {
                up(o, &l, id, "update-own", 2);
            }
            up(o, &l, UNKNOWN_CONTEXT, "update-unknown", 2);
            up(o, &l, ADDRESS_BEACON_CONTEXT_ID, "update-beacon", 2);
            // 48 B never fits BLE, so TCP is the only carrier: a lost
            // connect, or a peer that moved away, fails the send there.
            let tcp_only = Bytes::from(vec![dev as u8; 48]);
            o.send_data(peers.clone(), tcp_only, status(&l, dev, "tcp-only"));
        }
        3 => {
            if let Some(id) = own.get() {
                up(o, &l, id, "update-own", 3);
            }
            let fan_out = Bytes::from(format!("fan-out-{dev}"));
            o.send_data(peers.clone(), fan_out, status(&l, dev, "fan-out"));
        }
        4 => {
            for i in 0..6u8 {
                o.send_data(vec![next], Bytes::from(vec![i; 8]), status(&l, dev, "burst"));
            }
        }
        5 => {
            if let Some(id) = own.get() {
                o.remove_context(id, status(&l, dev, "remove-own"));
            }
            o.remove_context(UNKNOWN_CONTEXT, status(&l, dev, "remove-unknown"));
            o.remove_context(ADDRESS_BEACON_CONTEXT_ID, status(&l, dev, "remove-beacon"));
        }
        _ => {}
    }));
    // Stagger the devices so their rounds interleave instead of colliding.
    let stagger = dev as u64 * 37;
    for (token, at_ms) in [(1, 3_000), (2, 6_000), (3, 9_000), (4, 10_500), (5, 12_000)] {
        omni.set_timer(token, SimDuration::from_millis(at_ms + stagger));
    }
}

/// One fleet: its simulator and middleware configuration, the devices, and
/// whether the stacks use every radio the device has or BLE alone.
struct Fleet {
    name: &'static str,
    sim: SimConfig,
    omni: OmniConfig,
    devices: Vec<(DeviceCaps, Position)>,
    ble_only: bool,
    teleports: Vec<(usize, SimTime, Position)>,
    until: SimTime,
}

/// Runs a fleet and returns its transcript.
fn run(fleet: Fleet) -> String {
    let mut sim = Runner::new(fleet.sim);
    let obs = Obs::with_event_capacity(EVENT_CAPACITY);
    sim.set_obs(obs.clone());
    let devs: Vec<_> = fleet.devices.iter().map(|&(caps, pos)| sim.add_device(caps, pos)).collect();
    let addrs: Vec<OmniAddress> =
        devs.iter().map(|&d| OmniBuilder::omni_address(&sim, d)).collect();
    let lines: Lines = Rc::new(RefCell::new(Vec::new()));
    for (i, &dev) in devs.iter().enumerate() {
        let builder = if fleet.ble_only {
            OmniBuilder::new().with_ble()
        } else {
            OmniBuilder::new().with_caps(fleet.devices[i].0)
        };
        let mgr = builder.with_config(fleet.omni.clone()).with_obs(&obs).build(&sim, dev);
        let next = addrs[(i + 1) % addrs.len()];
        let peers: Vec<OmniAddress> =
            addrs.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &a)| a).collect();
        let l = lines.clone();
        sim.set_stack(dev, Box::new(OmniStack::new(mgr, move |omni| app(omni, i, next, peers, l))));
    }
    for &(i, at, pos) in &fleet.teleports {
        sim.schedule_teleport(devs[i], at, pos);
    }
    sim.run_until(fleet.until);

    assert_eq!(obs.events_dropped(), 0, "{}: the event ring wrapped", fleet.name);
    let mut out = format!("{}\n", fleet.name);
    for line in lines.borrow().iter() {
        out.push_str(line);
        out.push('\n');
    }
    for e in obs.events() {
        out.push_str(&event_json(&e));
        out.push('\n');
    }
    out.push_str(&FlightRecorder::from_obs(&obs).to_jsonl());
    for &dev in &devs {
        out.push_str(&format!(
            "energy dev{} {:#x}\n",
            dev.0,
            sim.energy().total_ma_s(dev, fleet.until).to_bits()
        ));
    }
    for (name, value) in obs.metrics().read().counters {
        out.push_str(&format!("counter {name} {value}\n"));
    }
    out
}

/// Six devices within BLE range of each other.
fn cluster(caps: [DeviceCaps; 6]) -> Vec<(DeviceCaps, Position)> {
    caps.into_iter()
        .enumerate()
        .map(|(i, c)| (c, Position::new((i % 3) as f64 * 6.0, (i / 3) as f64 * 6.0)))
        .collect()
}

fn fire_and_forget() -> Fleet {
    use DeviceCaps as C;
    Fleet {
        name: "fire-and-forget",
        sim: SimConfig {
            seed: 7,
            faults: FaultConfig { tcp_connect_loss: 0.3, ..Default::default() },
            ..Default::default()
        },
        omni: OmniConfig::default(),
        devices: cluster([C::PI, C::PHONE, C::BEACON, C::PI, C::PHONE, C::BEACON]),
        ble_only: false,
        teleports: vec![
            (3, SimTime::from_millis(4_500), Position::new(500.0, 500.0)),
            (3, SimTime::from_millis(10_500), Position::new(0.0, 6.0)),
        ],
        until: SimTime::from_secs(20),
    }
}

fn reliable() -> Fleet {
    use DeviceCaps as C;
    Fleet {
        name: "reliable",
        sim: SimConfig {
            seed: 11,
            faults: FaultConfig {
                ble_loss: 0.2,
                mcast_loss: 0.2,
                partitions: vec![LinkPartition::new(
                    0,
                    1,
                    SimTime::from_millis(2_500),
                    SimTime::from_secs(8),
                )
                .scoped(FaultScope::Wifi)],
                churn: vec![ChurnWindow {
                    dev: 2,
                    down_at: SimTime::from_millis(8_500),
                    up_at: SimTime::from_secs(16),
                }],
                ..Default::default()
            },
            ..Default::default()
        },
        omni: OmniConfig {
            retry: RetryPolicy::reliable(),
            adaptive_beacon: Some(AdaptiveBeacon::default()),
            relay_ttl: 1,
            ..Default::default()
        },
        devices: cluster([C::PI, C::PI, C::PHONE, C::BEACON, C::PHONE, C::BEACON]),
        ble_only: false,
        teleports: Vec::new(),
        until: SimTime::from_secs(24),
    }
}

/// Five BLE-only stacks 25 m apart: only neighbors hear each other.
fn chain(name: &'static str, seed: u64, mut relay: RelayPolicy, omni: OmniConfig) -> Fleet {
    relay.custody_timeout = SimDuration::from_secs(8);
    Fleet {
        name,
        sim: SimConfig { seed, ..Default::default() },
        omni: OmniConfig { relay, ..omni },
        devices: (0..5).map(|i| (DeviceCaps::PI, Position::new(i as f64 * 25.0, 0.0))).collect(),
        ble_only: true,
        teleports: Vec::new(),
        until: SimTime::from_secs(24),
    }
}

/// What the fleets must exercise, so that the digest pins these paths.
const MUST_SEE: [&str; 7] = [
    "SendFailure { description: \"tcp connect failed",
    "SendExhausted {",
    "peer expired; retries cancelled",
    "relay custody expired before any handoff",
    "AddContextFailure",
    "\"kind\": \"DataFailedOver\"",
    "\"kind\": \"DataRetried\"",
];

#[test]
fn manager_transcript_matches_the_pinned_digest() {
    let reliable_retry = OmniConfig { retry: RetryPolicy::reliable(), ..Default::default() };
    let keyed = OmniConfig {
        context_key: Some(GroupKey::from_passphrase("transcript")),
        ..Default::default()
    };
    let fleets: Vec<String> = [
        fire_and_forget(),
        reliable(),
        chain("chain-epidemic", 3, RelayPolicy::epidemic(), OmniConfig::default()),
        chain("chain-prophet", 4, RelayPolicy::prophet(), reliable_retry),
        chain("chain-spray", 5, RelayPolicy::spray(4), keyed),
    ]
    .into_iter()
    .map(run)
    .collect();
    let transcript = fleets.concat();
    for needle in MUST_SEE {
        assert!(transcript.contains(needle), "no fleet exercised {needle}");
    }
    // The hashed text, for diffing against a dump of another revision.
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("manager_transcript.txt");
    std::fs::write(&dump, &transcript).expect("write the transcript dump");
    let digest = fnv1a(transcript.as_bytes());
    let per_fleet: Vec<String> = fleets
        .iter()
        .map(|f| format!("{} {:#018x}", f.lines().next().unwrap_or_default(), fnv1a(f.as_bytes())))
        .collect();
    assert_eq!(
        digest,
        PINNED_DIGEST,
        "manager transcript digest {digest:#018x}; per fleet: {}; transcript in {}",
        per_fleet.join(", "),
        dump.display()
    );
}

/// One run of the reliable fleet checks two things on every device. Each
/// context operation calls back exactly once. And a context the application
/// removed goes silent: once its `remove-own` reports success at t, no
/// device hears that context, in any version, at or after t. Every device of
/// the fleet removes its context.
#[test]
fn every_context_operation_calls_back_once_and_a_removed_context_goes_silent() {
    let fleet = reliable();
    let devices = fleet.devices.len();
    let transcript = run(fleet);
    // `(t, rest)` of every line of `kind`, with `t` in sim µs.
    let timed = |kind: &'static str| {
        transcript.lines().filter_map(move |l| {
            let (t, rest) = l.strip_prefix(kind)?.split_once(' ')?;
            Some((t.parse::<u64>().expect("a sim-µs stamp"), rest))
        })
    };
    for dev in 0..devices {
        // `(t, code and info)` of each status callback of `what`.
        let statuses = |what: &str| {
            let prefix = format!("dev{dev} {what} ");
            timed("status ")
                .filter_map(|(t, rest)| Some((t, rest.strip_prefix(&prefix)?)))
                .collect::<Vec<_>>()
        };
        // The application updates its own context twice and removes it once
        // if adding it returned the context's id.
        let owns =
            usize::from(statuses("add-small").iter().any(|(_, s)| s.contains(" ContextId(")));
        for (what, issued) in [
            ("add-small", 1),
            ("add-100", 1),
            ("update-own", 2 * owns),
            ("update-unknown", 1),
            ("update-beacon", 1),
            ("remove-own", owns),
            ("remove-unknown", 1),
            ("remove-beacon", 1),
        ] {
            assert_eq!(statuses(what).len(), issued, "dev{dev} {what}: status callbacks");
        }
        let removed_at = match statuses("remove-own")[..] {
            [(t, s)] if s.starts_with("RemoveContextSuccess ") => t,
            ref other => panic!("dev{dev} did not remove its context: {other:?}"),
        };
        let (first, updated) = (format!("b\"ctx-{dev}\""), format!("b\"ctx-{dev}-v"));
        let heard = timed("ctx ")
            .filter(|&(t, rest)| {
                t >= removed_at && (rest.ends_with(&first) || rest.contains(&updated))
            })
            .count();
        assert!(
            heard == 0,
            "dev{dev}'s context heard {heard} times after its removal at {removed_at} µs"
        );
    }
}
