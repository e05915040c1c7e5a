//! The four workloads: fleets and application traffic generated from the
//! seed, and the simulated metrics and correctness checks read from what
//! the applications observed.
//!
//! Every workload is a closed batch over simulated time: the host runs the
//! simulation as fast as it can. Inside simulated time the applications'
//! sends are open-loop — a seeded schedule that never waits on
//! completions — and each latency is measured from the scheduled send.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::f64::consts::TAU;
use std::rc::Rc;

use bytes::Bytes;
use omni_core::{
    ContextParams, OmniBuilder, OmniConfig, OmniManager, OmniStack, RelayPolicy, RetryPolicy,
};
use omni_obs::Obs;
use omni_sim::{
    ChurnWindow, Command, DeviceCaps, DeviceId, FaultConfig, FaultScope, LinkPartition, NodeApi,
    NodeEvent, Position, Runner, SimConfig, SimDuration, SimTime, Stack,
};
use omni_wire::{OmniAddress, StatusCode, TechType};

use crate::measure::{percentile, ratio, Metric};
use crate::rng::SplitMix;
use crate::trace::{Inspect, Probe, Timed};

/// Sends scheduled within this of the horizon are left out of the data
/// metrics: they have not had time to be delivered.
const DATA_GRACE: SimDuration = SimDuration::from_secs(30);
/// How long a relay frame may sit in custody.
const RELAY_CUSTODY: SimDuration = SimDuration::from_secs(120);

/// End of the warm-up: fleet construction plus these first simulated
/// seconds are the set-up, not the timed phase.
pub const WARMUP: SimTime = SimTime::from_secs(10);
/// The timed phase advances in steps of this much simulated time.
pub const STEP: SimDuration = SimDuration::from_millis(100);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BeaconBare,
    Crowd,
    ClusterData,
    MobileRelay,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::BeaconBare, Workload::Crowd, Workload::ClusterData, Workload::MobileRelay];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BeaconBare => "beacon-bare-10k",
            Workload::Crowd => "crowd-400",
            Workload::ClusterData => "cluster-data",
            Workload::MobileRelay => "mobile-relay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated seconds of the timed phase: fixed, so the work does not
    /// depend on how fast the host is. A batch takes 9–16 s of wall time on
    /// the 2-vCPU calibration host, and every timed phase has at least
    /// 1000 steps.
    fn timed_s(self) -> u64 {
        match self {
            Workload::BeaconBare => 1500,
            Workload::Crowd => 100,
            Workload::ClusterData => 100,
            Workload::MobileRelay => 100,
        }
    }

    /// The end of the timed phase, where the simulated metrics are read.
    /// `scale` shrinks the fleet and the timed phase by that factor (1 =
    /// full size), down to 40 s so a small data run still has sends older
    /// than the 30 s grace.
    pub fn horizon(self, scale: u32) -> SimTime {
        WARMUP + SimDuration::from_secs((self.timed_s() / u64::from(scale)).max(40))
    }

    /// Independently seeded fleets ("sessions") one batch runs back to
    /// back. The simulated metrics pool all of them and `heap_peak_mb` is
    /// their median, so one seed's luck moves the batch little:
    /// mobile-relay's retry×relay storm varies a lot between seeds, and
    /// its heap peak jumps wherever the storm pushes a table over a
    /// capacity doubling.
    pub fn sessions(self, scale: u32) -> u64 {
        match self {
            Workload::MobileRelay => (32 / u64::from(scale)).max(2),
            _ => 1,
        }
    }

    /// How long a send may take to conclude: a send scheduled earlier
    /// than this before the horizon must have exactly one terminal status.
    fn conclude_within(self) -> SimDuration {
        match self {
            // Epidemic custody holds a frame up to its timeout before the
            // origin's status fires.
            Workload::MobileRelay => RELAY_CUSTODY + DATA_GRACE,
            _ => DATA_GRACE,
        }
    }
}

/// One application send, as its sender and receiver saw it.
#[derive(Clone, Debug)]
struct SendRec {
    at: SimTime,
    statuses: u32,
    failed: bool,
    delivered: Option<SimTime>,
    copies: u32,
}

/// What the applications observed, shared between their callbacks and the
/// harness.
#[derive(Default)]
struct Ledger {
    /// beacon-bare-10k: per scanner, beacons heard and the first arrival.
    heard: Vec<(u64, Option<SimTime>)>,
    /// crowd-400: per device, its in-range peers (ascending) and when each
    /// one's context first arrived.
    ctx: Vec<Vec<(u32, Option<SimTime>)>>,
    /// Data workloads: every send, in schedule order; the id is the index.
    sends: Vec<SendRec>,
}

impl Ledger {
    fn new_send(&mut self, at: SimTime) -> u64 {
        self.sends.push(SendRec { at, statuses: 0, failed: false, delivered: None, copies: 0 });
        (self.sends.len() - 1) as u64
    }
}

type Shared<T> = Rc<RefCell<T>>;

/// A built fleet: the runner plus what the harness reads back.
pub struct Fleet {
    pub workload: Workload,
    pub sim: Runner,
    ledger: Shared<Ledger>,
    /// Whether the devices carry WiFi, whose standby draw is the baseline
    /// the energy metric is reported above.
    wifi: bool,
    pub obs: Option<Obs>,
    pub probe: Option<Shared<Probe>>,
}

/// The simulated metrics and correctness checks of a batch: deterministic
/// per seed.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Application operations checked.
    pub attempted: u64,
    /// Operations that broke a correctness rule.
    pub failed: u64,
    /// Names of the failed checks, with detail.
    pub failures: Vec<String>,
}

/// Shared wiring for the builders: the ledger and, in the traced run, the
/// observability handle and the probe.
struct Env {
    ledger: Shared<Ledger>,
    obs: Option<Obs>,
    probe: Option<Shared<Probe>>,
}

impl Env {
    fn runner(&self, cfg: SimConfig) -> Runner {
        let mut sim = Runner::new(cfg);
        if let Some(obs) = &self.obs {
            sim.set_obs(obs.clone());
        }
        sim
    }

    fn install<S: Stack + Inspect + 'static>(&self, sim: &mut Runner, dev: DeviceId, stack: S) {
        match &self.probe {
            Some(p) => sim.set_stack(dev, Box::new(Timed::new(stack, p.clone()))),
            None => sim.set_stack(dev, Box::new(stack)),
        }
    }

    fn manager(&self, sim: &Runner, dev: DeviceId, b: OmniBuilder, cfg: OmniConfig) -> OmniManager {
        let b = b.with_config(cfg);
        match &self.obs {
            Some(obs) => b.with_obs(obs).build(sim, dev),
            None => b.build(sim, dev),
        }
    }
}

/// The seed of a batch's `session`-th fleet (the first is the batch seed).
pub fn session_seed(seed: u64, session: u64) -> u64 {
    if session == 0 {
        seed
    } else {
        SplitMix::new(seed, 0x5E55_0000 + session).next_u64()
    }
}

/// Builds a workload's fleet at time zero. `traced` attaches the
/// observability handle and wraps every stack in [`Timed`].
pub fn build(workload: Workload, seed: u64, scale: u32, traced: bool) -> Fleet {
    let obs = traced.then(Obs::new);
    let probe = traced.then(|| Rc::new(RefCell::new(Probe::new(seed))));
    let env = Env { ledger: Rc::default(), obs, probe };
    let horizon = workload.horizon(scale);
    let (sim, wifi) = match workload {
        Workload::BeaconBare => (beacon_bare(seed, scale, &env), true),
        Workload::Crowd => (crowd(seed, scale, &env), true),
        Workload::ClusterData => (cluster_data(seed, scale, horizon, &env), true),
        Workload::MobileRelay => (mobile_relay(seed, scale, horizon, &env), false),
    };
    Fleet { workload, sim, ledger: env.ledger, wifi, obs: env.obs, probe: env.probe }
}

/// The stub beacon's advertising interval: the paper's 500 ms beacon.
const BEACON_INTERVAL: SimDuration = SimDuration::from_millis(500);

// ---------------------------------------------------------------------
// beacon-bare-10k
// ---------------------------------------------------------------------

/// One device in `SCAN_STRIDE` scans, as in the `scale` bench.
const SCAN_STRIDE: usize = 50;

/// The `scale` bench's stub stack: advertises every 500 ms; scanners count
/// what they hear. No omni-core or omni-wire code runs on its path.
struct Beacon {
    scanner: Option<usize>,
    ledger: Shared<Ledger>,
}

impl Stack for Beacon {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        match event {
            NodeEvent::Start => {
                if self.scanner.is_some() {
                    api.push(Command::BleSetScan { duty: Some(1.0) });
                }
                api.push(Command::BleAdvertiseSet {
                    slot: 0,
                    payload: Bytes::from_static(b"scale"),
                    interval: BEACON_INTERVAL,
                });
            }
            NodeEvent::BleBeacon { .. } => {
                if let Some(s) = self.scanner {
                    let mut l = self.ledger.borrow_mut();
                    let (count, first) = &mut l.heard[s];
                    *count += 1;
                    first.get_or_insert(api.now);
                }
            }
            _ => {}
        }
    }
}

impl Inspect for Beacon {
    fn own(&self) -> Option<OmniAddress> {
        None
    }

    fn peers(&self) -> usize {
        0
    }
}

/// Pairs 10 m apart, one pair per 100 m site (each site's origin jittered
/// by up to 20 m, the partner at a seeded bearing), so every scanner hears
/// exactly its partner: no other device is within BLE range.
fn beacon_bare(seed: u64, scale: u32, env: &Env) -> Runner {
    let n = (10_000 / scale as usize).max(2) & !1;
    let mut sim = env.runner(SimConfig { seed, ..Default::default() });
    let mut rng = SplitMix::new(seed, 1);
    env.ledger.borrow_mut().heard = vec![(0, None); n.div_ceil(SCAN_STRIDE)];
    let sites = n / 2;
    let cols = (sites as f64).sqrt().ceil() as usize;
    for site in 0..sites {
        let ox = (site % cols) as f64 * 100.0 + rng.range(0.0, 20.0);
        let oy = (site / cols) as f64 * 100.0 + rng.range(0.0, 20.0);
        let bearing = rng.range(0.0, TAU);
        let pair = [
            Position::new(ox, oy),
            Position::new(ox + 10.0 * bearing.cos(), oy + 10.0 * bearing.sin()),
        ];
        for (k, pos) in pair.into_iter().enumerate() {
            let i = 2 * site + k;
            let dev = sim.add_device(DeviceCaps::PI, pos);
            let scanner = (i % SCAN_STRIDE == 0).then_some(i / SCAN_STRIDE);
            env.install(&mut sim, dev, Beacon { scanner, ledger: env.ledger.clone() });
        }
    }
    sim
}

// ---------------------------------------------------------------------
// crowd-400
// ---------------------------------------------------------------------

/// A square crowd on a 6 m grid (±1 m seeded jitter): every device
/// advertises its own service context and listens for everyone else's.
fn crowd(seed: u64, scale: u32, env: &Env) -> Runner {
    let n = (400 / scale as usize).max(2);
    let cols = (n as f64).sqrt().ceil() as usize;
    let mut sim = env.runner(SimConfig { seed, ..Default::default() });
    let mut rng = SplitMix::new(seed, 2);
    let devs: Vec<DeviceId> = (0..n)
        .map(|i| {
            let x = (i % cols) as f64 * 6.0 + rng.range(-1.0, 1.0);
            let y = (i / cols) as f64 * 6.0 + rng.range(-1.0, 1.0);
            sim.add_device(DeviceCaps::PI, Position::new(x, y))
        })
        .collect();
    let range = sim.config().range_m(TechType::BleBeacon);
    env.ledger.borrow_mut().ctx = devs
        .iter()
        .map(|&a| {
            devs.iter()
                .filter(|&&b| sim.world().in_range(a, b, range))
                .map(|b| (b.0 as u32, None))
                .collect()
        })
        .collect();
    let index: Rc<HashMap<OmniAddress, u32>> =
        Rc::new(devs.iter().map(|&d| (OmniBuilder::omni_address(&sim, d), d.0 as u32)).collect());
    for (i, &dev) in devs.iter().enumerate() {
        let mgr = env.manager(
            &sim,
            dev,
            OmniBuilder::new().with_ble().with_wifi(),
            OmniConfig::default(),
        );
        let (index, ledger) = (index.clone(), env.ledger.clone());
        let advert = Bytes::from([b"svc:".as_slice(), &(i as u32).to_be_bytes()].concat());
        let stack = OmniStack::new(mgr, move |omni| {
            omni.add_context(ContextParams::default(), advert, Box::new(|_, _, _| {}));
            omni.request_context(Box::new(move |source, _, ctl| {
                let Some(&peer) = index.get(&source) else { return };
                let mut l = ledger.borrow_mut();
                if let Ok(k) = l.ctx[i].binary_search_by_key(&peer, |e| e.0) {
                    l.ctx[i][k].1.get_or_insert(ctl.now);
                }
            }));
        });
        env.install(&mut sim, dev, stack);
    }
    sim
}

// ---------------------------------------------------------------------
// Data traffic shared by cluster-data and mobile-relay
// ---------------------------------------------------------------------

/// Logical size of the bulk sends.
const BULK_BYTES: u64 = 1_000_000;
/// Size of the small sends (fits one BLE advertisement with framing).
const SMALL_BYTES: usize = 30;

/// The payload carries the send id so the receiver can credit it.
fn send_payload(id: u64, len: usize) -> Bytes {
    let mut v = id.to_be_bytes().to_vec();
    v.resize(len.max(8), 0);
    Bytes::from(v)
}

fn receiver(ledger: Shared<Ledger>) -> omni_core::DataCallback {
    Box::new(move |_, payload, ctl| {
        let Some(id) = payload.get(..8).map(|b| u64::from_be_bytes(b.try_into().expect("8 bytes")))
        else {
            return;
        };
        let mut l = ledger.borrow_mut();
        if let Some(s) = l.sends.get_mut(id as usize) {
            s.copies += 1;
            s.delivered.get_or_insert(ctl.now);
        }
    })
}

fn status(ledger: Shared<Ledger>, id: u64) -> omni_core::StatusCallback {
    Box::new(move |code: StatusCode, _, _| {
        let mut l = ledger.borrow_mut();
        let s = &mut l.sends[id as usize];
        s.statuses += 1;
        s.failed |= code.is_failure();
    })
}

/// A stack whose application sends on a fixed schedule: first at `first`,
/// then every `every`; `next(k, id)` picks the k-th send's destination,
/// payload and logical size. Every device also records data it receives.
fn sender_stack(
    mgr: OmniManager,
    ledger: Shared<Ledger>,
    schedule: Option<(SimDuration, SimDuration)>,
    next: impl Fn(u64, u64) -> (OmniAddress, Bytes, u64) + 'static,
) -> OmniStack {
    OmniStack::new(mgr, move |omni| {
        omni.request_data(receiver(ledger.clone()));
        let Some((first, every)) = schedule else { return };
        let k = Cell::new(0u64);
        omni.request_timers(Box::new(move |_, ctl| {
            let id = ledger.borrow_mut().new_send(ctl.now);
            let (dest, payload, total) = next(k.get(), id);
            k.set(k.get() + 1);
            ctl.send_data_sized(vec![dest], payload, total, status(ledger.clone(), id));
            ctl.set_timer(0, every);
        }));
        omni.set_timer(0, first);
    })
}

/// Milliseconds in `[0, span)`, from the generator.
fn offset_ms(rng: &mut SplitMix, span: SimDuration) -> SimDuration {
    SimDuration::from_millis(rng.below(span.as_millis()))
}

// ---------------------------------------------------------------------
// cluster-data
// ---------------------------------------------------------------------

const CLUSTER: usize = 8;
/// Cluster centres sit this far apart: beyond WiFi range, so clusters are
/// isolated from each other.
const CLUSTER_PITCH_M: f64 = 300.0;
const CLUSTER_SEND_EVERY: SimDuration = SimDuration::from_secs(2);

/// Seeded fault windows for one cluster over `[WARMUP, until)`: WiFi-only
/// partitions between two members and churn of one member, each window
/// ending before the next of its kind starts.
fn cluster_faults(rng: &mut SplitMix, base: usize, until: SimTime, faults: &mut FaultConfig) {
    let secs = |s: f64| SimDuration::from_millis((s * 1000.0) as u64);
    let mut t = WARMUP + secs(rng.range(0.0, 60.0));
    while t < until {
        let a = base + rng.below(CLUSTER as u64) as usize;
        let b = base + (a - base + 1 + rng.below(CLUSTER as u64 - 1) as usize) % CLUSTER;
        let end = t + secs(rng.range(5.0, 30.0));
        faults.partitions.push(LinkPartition::new(a, b, t, end).scoped(FaultScope::Wifi));
        t = end + secs(rng.range(30.0, 90.0));
    }
    let mut t = WARMUP + secs(rng.range(0.0, 120.0));
    while t < until {
        let dev = base + rng.below(CLUSTER as u64) as usize;
        let up_at = t + secs(rng.range(5.0, 20.0));
        faults.churn.push(ChurnWindow { dev, down_at: t, up_at });
        t = up_at + secs(rng.range(60.0, 180.0));
    }
}

/// Isolated 8-device BLE+WiFi clusters under 15% BLE loss, WiFi
/// partitions and churn. Every device sends to its cluster peers in turn
/// every 2 s: nine in ten sends are 30 B, one in ten is 1 MB, over WiFi
/// TCP with BLE as the fallback, with the reliable retry policy.
fn cluster_data(seed: u64, scale: u32, horizon: SimTime, env: &Env) -> Runner {
    let clusters = (256 / scale as usize).max(1);
    let cols = (clusters as f64).sqrt().ceil() as usize;
    let mut rng = SplitMix::new(seed, 3);
    let mut faults = FaultConfig { ble_loss: 0.15, ..Default::default() };
    for c in 0..clusters {
        cluster_faults(&mut rng, c * CLUSTER, horizon, &mut faults);
    }
    let mut sim = env.runner(SimConfig { seed, faults, ..Default::default() });
    let mut devs = Vec::with_capacity(clusters * CLUSTER);
    for c in 0..clusters {
        let cx = (c % cols) as f64 * CLUSTER_PITCH_M;
        let cy = (c / cols) as f64 * CLUSTER_PITCH_M;
        for m in 0..CLUSTER {
            let bearing = m as f64 * TAU / CLUSTER as f64 + rng.range(-0.3, 0.3);
            let r = rng.range(3.0, 10.0);
            let pos = Position::new(cx + r * bearing.cos(), cy + r * bearing.sin());
            devs.push(sim.add_device(DeviceCaps::PI, pos));
        }
    }
    let addrs: Rc<Vec<OmniAddress>> =
        Rc::new(devs.iter().map(|&d| OmniBuilder::omni_address(&sim, d)).collect());
    let cfg = OmniConfig {
        data_techs: Some(vec![TechType::WifiTcp, TechType::BleBeacon]),
        retry: RetryPolicy::reliable(),
        ..Default::default()
    };
    for (i, &dev) in devs.iter().enumerate() {
        let mgr = env.manager(&sim, dev, OmniBuilder::new().with_ble().with_wifi(), cfg.clone());
        let first =
            SimDuration::from_micros(WARMUP.as_micros()) + offset_ms(&mut rng, CLUSTER_SEND_EVERY);
        let addrs = addrs.clone();
        let (base, member) = (i - i % CLUSTER, i % CLUSTER);
        let next = move |k: u64, id: u64| {
            let peer = base + (member + 1 + (k % (CLUSTER as u64 - 1)) as usize) % CLUSTER;
            // One send in ten is bulk, chosen by a hash of (seed, sender,
            // k) so the choice never depends on how earlier sends went.
            let bulk = SplitMix::new(seed ^ ((i as u64) << 32) ^ k, 4).below(10) == 0;
            if bulk {
                (addrs[peer], send_payload(id, 8), BULK_BYTES)
            } else {
                (addrs[peer], send_payload(id, SMALL_BYTES), SMALL_BYTES as u64)
            }
        };
        let stack = sender_stack(mgr, env.ledger.clone(), Some((first, CLUSTER_SEND_EVERY)), next);
        env.install(&mut sim, dev, stack);
    }
    sim
}

// ---------------------------------------------------------------------
// mobile-relay
// ---------------------------------------------------------------------

const WALK_MPS: f64 = 1.4;
const ARENAS: usize = 64;
/// Walkers per arena and the arena's side: the density of 80 walkers in a
/// 330 m square.
const ARENA_WALKERS: usize = 5;
const ARENA_SIDE_M: f64 = 82.5;
/// Arenas sit this far apart (edge to edge), beyond BLE range.
const ARENA_GAP_M: f64 = 100.0;
const RELAY_SEND_EVERY: SimDuration = SimDuration::from_secs(10);

/// BLE-only walkers on seeded random-waypoint walks inside isolated
/// arenas, relaying epidemically with reliable retries; one walker in ten
/// sends to the walker halfway round its arena every 10 s. The arenas are
/// small and many: in one large arena the retry×relay storm's size hangs
/// on which walkers happen to meet, so it moved heap and energy by 10–25%
/// from seed to seed; five walkers within a few hops of each other meet
/// every seed, and the storm (and everything measured) barely moves.
fn mobile_relay(seed: u64, scale: u32, horizon: SimTime, env: &Env) -> Runner {
    let arenas = (ARENAS / scale as usize).max(1);
    let cols = (arenas as f64).sqrt().ceil() as usize;
    let mut sim = env.runner(SimConfig { seed, ..Default::default() });
    let mut rng = SplitMix::new(seed, 5);
    let pitch = ARENA_SIDE_M + ARENA_GAP_M;
    let origin = |a: usize| ((a % cols) as f64 * pitch, (a / cols) as f64 * pitch);
    let point = |rng: &mut SplitMix, a: usize| {
        let (ox, oy) = origin(a);
        Position::new(ox + rng.range(0.0, ARENA_SIDE_M), oy + rng.range(0.0, ARENA_SIDE_M))
    };
    let devs: Vec<DeviceId> = (0..arenas * ARENA_WALKERS)
        .map(|i| sim.add_device(DeviceCaps::BEACON, point(&mut rng, i / ARENA_WALKERS)))
        .collect();
    // A leg of d metres arrives after ceil(d / speed) one-second steps;
    // the next leg departs a second later at the earliest.
    for (i, &dev) in devs.iter().enumerate() {
        let mut at = SimTime::ZERO;
        let mut from = sim.world().position(dev);
        while at < horizon {
            let to = point(&mut rng, i / ARENA_WALKERS);
            sim.schedule_walk(dev, at, to, WALK_MPS);
            let steps = (from.distance(to) / WALK_MPS).ceil() as u64 + 1;
            at = at
                + SimDuration::from_secs(steps)
                + offset_ms(&mut rng, SimDuration::from_secs(10));
            from = to;
        }
    }
    let addrs: Vec<OmniAddress> =
        devs.iter().map(|&d| OmniBuilder::omni_address(&sim, d)).collect();
    let mut relay = RelayPolicy::epidemic();
    relay.custody_timeout = RELAY_CUSTODY;
    let cfg = OmniConfig { relay, retry: RetryPolicy::reliable(), ..Default::default() };
    for (i, &dev) in devs.iter().enumerate() {
        let mgr = env.manager(&sim, dev, OmniBuilder::new().with_ble(), cfg.clone());
        let base = i - i % ARENA_WALKERS;
        let dest = addrs[base + (i - base + ARENA_WALKERS / 2) % ARENA_WALKERS];
        let schedule = (i % 10 == 0).then(|| {
            let first = SimDuration::from_micros(WARMUP.as_micros())
                + offset_ms(&mut rng, RELAY_SEND_EVERY);
            (first, RELAY_SEND_EVERY)
        });
        let next = move |_, id| (dest, send_payload(id, 8), 8);
        let stack = sender_stack(mgr, env.ledger.clone(), schedule, next);
        env.install(&mut sim, dev, stack);
    }
    sim
}

// ---------------------------------------------------------------------
// Simulated metrics and correctness checks
// ---------------------------------------------------------------------

/// What the applications of one or more fleets observed, pooled raw so
/// that sessions combine exactly before any metric is computed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// beacon-bare-10k: advertising rounds due, beacons heard, scanners,
    /// and scanners whose count is off the closed form.
    rounds: u64,
    heard: u64,
    scanners: u64,
    off_form: u64,
    /// Simulated ms to each first hearing: of a scanner's partner
    /// (beacon-bare-10k), of an in-range peer's context (crowd-400).
    discovery_ms: Vec<f64>,
    /// crowd-400: in-range pairs.
    pairs: u64,
    /// Data workloads, sends in the metric window: how many, delivered,
    /// failed or unconcluded, their latencies and duplicate deliveries.
    sent: u64,
    delivered: u64,
    failed_sends: u64,
    delivery_ms: Vec<f64>,
    duplicates: u64,
    /// Sends due a terminal status, those without one, and sends with
    /// several.
    due: u64,
    unconcluded: u64,
    repeated: u64,
    /// Sum over devices of the average current above the WiFi standby
    /// draw, and the device count.
    energy_sum_ma: f64,
    devices: u64,
}

impl Tally {
    pub fn merge(&mut self, o: &Tally) {
        self.rounds += o.rounds;
        self.heard += o.heard;
        self.scanners += o.scanners;
        self.off_form += o.off_form;
        self.discovery_ms.extend(&o.discovery_ms);
        self.pairs += o.pairs;
        self.sent += o.sent;
        self.delivered += o.delivered;
        self.failed_sends += o.failed_sends;
        self.delivery_ms.extend(&o.delivery_ms);
        self.duplicates += o.duplicates;
        self.due += o.due;
        self.unconcluded += o.unconcluded;
        self.repeated += o.repeated;
        self.energy_sum_ma += o.energy_sum_ma;
        self.devices += o.devices;
    }

    /// The simulated metrics and correctness checks of `workload`.
    pub fn outcome(&self, workload: Workload) -> Outcome {
        let mut metrics = Vec::new();
        let mut failures = Vec::new();
        let (attempted, failed) = match workload {
            Workload::BeaconBare => {
                metrics.push(Metric::new("beacons_heard", self.heard as f64, "count"));
                // The partners' seeded advertising phases, as a mean: a
                // small fleet has few scanners.
                let mean = ratio(self.discovery_ms.iter().sum(), self.discovery_ms.len() as f64);
                metrics.push(Metric::new("discovery_ms_mean", mean, "ms"));
                if self.off_form > 0 {
                    failures.push(self.beacon_failure());
                }
                (self.rounds, self.off_form)
            }
            Workload::Crowd => {
                for (name, q) in [("discovery_ms_p50", 0.5), ("discovery_ms_p99", 0.99)] {
                    if let Some(p) = percentile(&self.discovery_ms, q) {
                        metrics.push(Metric::pct(name, p, "ms"));
                    }
                }
                let missing = self.pairs - self.discovery_ms.len() as u64;
                if missing > 0 {
                    failures.push(format!(
                        "crowd discovery: {missing} of {} in-range pairs never saw context",
                        self.pairs
                    ));
                }
                (self.pairs, missing)
            }
            Workload::ClusterData | Workload::MobileRelay => {
                let sent = self.sent as f64;
                metrics.extend([
                    Metric::new("sends", sent, "count"),
                    Metric::new("delivered_ratio", ratio(self.delivered as f64, sent), "ratio"),
                    Metric::new(
                        "send_failed_ratio",
                        ratio(self.failed_sends as f64, sent),
                        "ratio",
                    ),
                ]);
                let tails: &[(&str, f64)] = match workload {
                    Workload::ClusterData => &[("delivery_ms_p50", 0.5), ("delivery_ms_p99", 0.99)],
                    _ => &[("delivery_ms_p50", 0.5)],
                };
                for &(name, q) in tails {
                    if let Some(p) = percentile(&self.delivery_ms, q) {
                        metrics.push(Metric::pct(name, p, "ms"));
                    }
                }
                metrics.push(Metric::new("duplicate_deliveries", self.duplicates as f64, "count"));
                if self.unconcluded > 0 {
                    failures.push(format!(
                        "exactly one terminal status: {} of {} sends older than {} s have none",
                        self.unconcluded,
                        self.due,
                        workload.conclude_within().as_secs_f64()
                    ));
                }
                if self.repeated > 0 {
                    failures.push(format!(
                        "exactly one terminal status: {} sends have several",
                        self.repeated
                    ));
                }
                (self.sent, self.unconcluded + self.repeated)
            }
        };
        let energy = ratio(self.energy_sum_ma, self.devices as f64);
        metrics.push(Metric::new("energy_ma", energy, "mA"));
        Outcome { metrics, attempted, failed, failures }
    }

    fn beacon_failure(&self) -> String {
        format!(
            "beacon heard count: {} of {} scanners off the closed form ({} heard, {} rounds)",
            self.off_form, self.scanners, self.heard, self.rounds
        )
    }
}

fn round_significant(x: f64, digits: i32) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let scale = 10f64.powi(digits - 1 - x.abs().log10().floor() as i32);
    (x * scale).round() / scale
}

fn ms(t: SimDuration) -> f64 {
    t.as_micros() as f64 / 1e3
}

impl Fleet {
    /// What the applications observed up to now. Reads only; the
    /// simulation is unaffected.
    pub fn observe(&self) -> Tally {
        let now = self.sim.now();
        let mut t = Tally::default();
        match self.workload {
            Workload::BeaconBare => self.observe_beacons(now, &mut t),
            Workload::Crowd => {
                let l = self.ledger.borrow();
                let pairs = l.ctx.iter().flatten();
                t.pairs = pairs.clone().count() as u64;
                t.discovery_ms =
                    pairs.filter_map(|e| e.1).map(|at| ms(at - SimTime::ZERO)).collect();
            }
            Workload::ClusterData | Workload::MobileRelay => self.observe_sends(now, &mut t),
        }
        let n = self.sim.device_count();
        let standby = if self.wifi { self.sim.config().energy.wifi_standby_ma } else { 0.0 };
        let sum: f64 = (0..n)
            .map(|d| self.sim.energy().average_ma(DeviceId(d), SimTime::ZERO, now) - standby)
            .sum();
        // Nine significant digits: the energy ledger sums a device's open
        // draws in hash-map order, so the last bits of each device's
        // average differ from one process to the next.
        t.energy_sum_ma = round_significant(sum, 9);
        t.devices = n as u64;
        t
    }

    /// Every scanner hears its partner once per advertising round: a
    /// scanner first hearing it at `first` (within the first round) has
    /// heard exactly `floor((now - first) / 500 ms) + 1` beacons.
    fn observe_beacons(&self, now: SimTime, t: &mut Tally) {
        let l = self.ledger.borrow();
        t.scanners = l.heard.len() as u64;
        for &(count, first) in &l.heard {
            let rounds = first.map_or(0, |f| {
                now.saturating_since(f).as_micros() / BEACON_INTERVAL.as_micros() + 1
            });
            t.rounds += rounds;
            t.heard += count;
            let late = first.is_none_or(|f| f - SimTime::ZERO > BEACON_INTERVAL);
            if count != rounds || late {
                t.off_form += 1;
            }
            t.discovery_ms.extend(first.map(|f| ms(f - SimTime::ZERO)));
        }
    }

    /// The closed form `beacon-bare-10k` pins at the end of the warm-up.
    pub fn warmup_failures(&self) -> Vec<String> {
        if self.workload != Workload::BeaconBare {
            return Vec::new();
        }
        let mut t = Tally::default();
        self.observe_beacons(self.sim.now(), &mut t);
        if t.off_form > 0 {
            vec![t.beacon_failure()]
        } else {
            Vec::new()
        }
    }

    /// The data metrics cover sends scheduled at least `DATA_GRACE` before
    /// now. Sends older than the workload's `conclude_within` must each
    /// have exactly one terminal status; no send may ever have more.
    fn observe_sends(&self, now: SimTime, t: &mut Tally) {
        let l = self.ledger.borrow();
        let before =
            |d: SimDuration| SimTime::from_micros(now.as_micros().saturating_sub(d.as_micros()));
        let (window_end, due_end) = (before(DATA_GRACE), before(self.workload.conclude_within()));
        for s in &l.sends {
            t.repeated += u64::from(s.statuses > 1);
            if s.at > window_end {
                continue;
            }
            t.sent += 1;
            t.failed_sends += u64::from(s.failed || s.statuses == 0);
            if let Some(d) = s.delivered {
                t.delivered += 1;
                t.delivery_ms.push(ms(d - s.at));
            }
            t.duplicates += u64::from(s.copies.saturating_sub(1));
            if s.at <= due_end {
                t.due += 1;
                t.unconcluded += u64::from(s.statuses == 0);
            }
        }
    }
}
