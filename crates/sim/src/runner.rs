//! The discrete-event simulation runner.
//!
//! The [`Runner`] owns the virtual clock, the event queue, every device's
//! radio state, the shared WiFi medium, the energy ledger, and the protocol
//! [`Stack`]s. Determinism: events are ordered by `(time, sequence)` and all
//! randomness flows from the configured seed.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use omni_obs::{Counter, Digest, EventKind, Gauge, Obs, Phase, PhaseScope, TickProfiler};
use omni_wire::{BleAddress, MeshAddress, NfcAddress, TechType};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{
    mcast_airtime, SimConfig, BLE_ADV_PULSE, BLE_MAX_PAYLOAD, BLE_ONESHOT_LATENCY,
    BLE_ONESHOT_PULSE, NFC_MAX_PAYLOAD, NFC_TOUCH_LATENCY, TCP_CONNECT_TIME, TCP_OVERHEAD_BYTES,
    WIFI_CAPACITY_BPS, WIFI_JOIN_TIME, WIFI_SCAN_TIME,
};
use crate::energy::{EnergyLedger, EnergyState};
use crate::faults::{FaultScope, FaultState};
use crate::medium::{Flow, McastJob, WifiMedium};
use crate::node::{Command, ConnId, DeviceId, NodeApi, NodeEvent, Stack, TcpError};
use crate::queue::{EventQueue, Pulse};
use crate::telemetry::{Sampler, SAMPLE_EVERY};
use crate::time::{SimDuration, SimTime};
use crate::world::{assert_finite, Position, World};

/// Which radios a device is built with. Present radios start powered on.
#[derive(Debug, Clone, Copy)]
pub struct DeviceCaps {
    /// Has a BLE radio.
    pub ble: bool,
    /// Has a WiFi-Mesh radio.
    pub wifi: bool,
    /// Has NFC.
    pub nfc: bool,
}

impl DeviceCaps {
    /// BLE + WiFi + NFC (a modern smartphone, per paper Figure 3).
    pub const PHONE: DeviceCaps = DeviceCaps { ble: true, wifi: true, nfc: true };
    /// BLE + WiFi (the Raspberry Pi testbed devices of §4).
    pub const PI: DeviceCaps = DeviceCaps { ble: true, wifi: true, nfc: false };
    /// BLE only (a simple beacon).
    pub const BEACON: DeviceCaps = DeviceCaps { ble: true, wifi: false, nfc: false };
}

#[derive(Debug, Clone)]
struct BleSlot {
    payload: Bytes,
    interval: SimDuration,
    gen: u64,
}

#[derive(Debug, Clone)]
struct ActiveInfra {
    req: u64,
    total: u64,
    chunk: u64,
    received: u64,
    next_chunk_index: u64,
}

#[derive(Debug)]
struct DeviceState {
    caps: DeviceCaps,
    ble_on: bool,
    ble_scan_duty: Option<f64>,
    /// Advertising slots, keyed by caller-chosen slot id. A Vec, not a map:
    /// devices have one or two slots and the beacon tick probes this on
    /// every pulse.
    ble_slots: Vec<(u32, BleSlot)>,
    /// Next advertising generation. Monotonic per device and never reused —
    /// a slot that is stopped and re-registered must not produce a
    /// generation an already-scheduled pulse of the old registration could
    /// match, or the beacon cadence doubles.
    ble_next_gen: u64,
    ble_addr: BleAddress,
    wifi_on: bool,
    wifi_joined: bool,
    wifi_mcast_listen: bool,
    wifi_scanning: bool,
    wifi_scan_gen: u64,
    wifi_joining: bool,
    wifi_join_gen: u64,
    mesh_addr: MeshAddress,
    nfc_addr: NfcAddress,
    infra_rate_bps: f64,
    infra_queue: VecDeque<(u64, u64, u64)>, // (req, total, chunk)
    infra_active: Option<ActiveInfra>,
    infra_gen: u64,
    macs: Vec<[u8; 6]>,
}

#[derive(Debug)]
struct Connection {
    a: DeviceId,
    b: DeviceId,
    open: bool,
    /// Pending messages per direction (0: a→b, 1: b→a).
    pending: [VecDeque<(Bytes, f64)>; 2],
    /// Whether a flow for the direction is in the medium.
    active: [bool; 2],
}

impl Connection {
    fn dir_from(&self, dev: DeviceId) -> Option<usize> {
        if dev == self.a {
            Some(0)
        } else if dev == self.b {
            Some(1)
        } else {
            None
        }
    }

    fn endpoint(&self, dir: usize) -> (DeviceId, DeviceId) {
        if dir == 0 {
            (self.a, self.b)
        } else {
            (self.b, self.a)
        }
    }

    fn involves(&self, dev: DeviceId) -> bool {
        self.a == dev || self.b == dev
    }
}

/// How often a walking device moves (see [`Runner::schedule_walk`]).
const WALK_STEP: SimDuration = SimDuration::from_secs(1);

/// An event the runner schedules for itself. It waits in the
/// [`EventQueue`]: in the lane of its delay when that delay is one of the
/// fixed latencies the runner builds the queue with (a BLE one-shot's
/// deliveries and completion, a walk step, a one-second timer or sampler
/// tick), as a lane pulse when it re-arms an advertising slot, and in the
/// heap otherwise.
#[derive(Debug)]
enum Engine {
    StartStack {
        dev: DeviceId,
    },
    Timer {
        dev: DeviceId,
        token: u64,
        gen: u64,
    },
    BleAdv {
        dev: DeviceId,
        slot: u32,
        gen: u64,
    },
    /// Payload carried inline: `Bytes` is a two-word refcounted handle, so
    /// cloning it per receiver is an `Arc` bump, not an allocation — boxing
    /// it would put one heap allocation back on every fan-out delivery
    /// (DESIGN.md §5i).
    BleOneShotDeliver {
        to: DeviceId,
        from: DeviceId,
        payload: Bytes,
    },
    BleOneShotSent {
        dev: DeviceId,
    },
    WifiScanDone {
        dev: DeviceId,
        gen: u64,
    },
    WifiJoinDone {
        dev: DeviceId,
        gen: u64,
    },
    /// Immediate confirmation for a join issued while already joined.
    WifiJoinEcho {
        dev: DeviceId,
    },
    TcpConnectDone {
        initiator: DeviceId,
        token: u64,
        target: DeviceId,
    },
    TcpConnectFail {
        dev: DeviceId,
        token: u64,
        error: TcpError,
    },
    FlowBoundary {
        gen: u64,
    },
    McastDone {
        gen: u64,
    },
    /// Payload carried inline for the same reason as `BleOneShotDeliver`.
    NfcDeliver {
        to: DeviceId,
        from: DeviceId,
        payload: Bytes,
    },
    InfraChunkDone {
        dev: DeviceId,
        gen: u64,
    },
    Teleport {
        dev: DeviceId,
        pos: Position,
    },
    WalkStep {
        dev: DeviceId,
        to: Position,
        speed_mps: f64,
    },
    /// A configured link partition window opens (tears down TCP between the
    /// pair; subsequent reachability is checked against the window itself).
    PartitionStart {
        idx: usize,
    },
    /// A churn window takes a node's radios down.
    ChurnDown {
        dev: DeviceId,
    },
    /// A churn window ends: the node's radios come back.
    ChurnUp {
        dev: DeviceId,
    },
    /// A periodic telemetry sampling tick (only scheduled when
    /// [`Runner::enable_sampler`] was called).
    Sample,
}

/// A lane pulse leaves the event queue as the advertising event it stands
/// for.
impl From<Pulse> for Engine {
    fn from(p: Pulse) -> Self {
        Engine::BleAdv { dev: DeviceId(p.dev as usize), slot: p.slot, gen: p.gen }
    }
}

/// Cached tx/rx meters for one technology; handles are atomic, so the
/// per-frame record path takes no lock and allocates nothing.
struct TechMeters {
    tx_frames: Counter,
    tx_bytes: Counter,
    rx_frames: Counter,
    rx_bytes: Counter,
}

impl TechMeters {
    fn new(obs: &Obs, tech: TechType) -> Self {
        let tech = tech.label();
        TechMeters {
            tx_frames: obs.counter(&format!("tech.{tech}.tx_frames")),
            tx_bytes: obs.counter(&format!("tech.{tech}.tx_bytes")),
            rx_frames: obs.counter(&format!("tech.{tech}.rx_frames")),
            rx_bytes: obs.counter(&format!("tech.{tech}.rx_bytes")),
        }
    }

    fn tx(&self, bytes: usize) {
        self.tx_frames.inc();
        self.tx_bytes.add(bytes as u64);
    }

    fn rx(&self, bytes: usize) {
        self.rx_frames.inc();
        self.rx_bytes.add(bytes as u64);
    }
}

/// Observability state attached to a [`Runner`] via [`Runner::set_obs`].
struct RunnerObs {
    obs: Obs,
    ble: TechMeters,
    mcast: TechMeters,
    tcp: TechMeters,
    nfc: TechMeters,
    beacon_interval_us: Digest,
    /// Fault drops by cause (`sim.faults.drops{cause=…}`).
    drops_frame_loss: Counter,
    drops_partition: Counter,
    drops_node_down: Counter,
    /// Per-cell frame transmission counters
    /// (`sim.cell.tx_frames{cell=x:y}`), cached per grid cell.
    cell_tx: HashMap<(i64, i64), Counter>,
    /// Per-cell device density gauges (`sim.cell.density{cell=x:y}`),
    /// refreshed on every sampling tick.
    cell_density: HashMap<(i64, i64), Gauge>,
}

impl RunnerObs {
    fn cell_tx_counter(&mut self, cell: (i64, i64)) -> &Counter {
        let obs = &self.obs;
        self.cell_tx.entry(cell).or_insert_with(|| {
            obs.counter_with("sim.cell.tx_frames", &[("cell", &format!("{}:{}", cell.0, cell.1))])
        })
    }

    fn cell_density_gauge(&mut self, cell: (i64, i64)) -> &Gauge {
        let obs = &self.obs;
        self.cell_density.entry(cell).or_insert_with(|| {
            obs.gauge_with("sim.cell.density", &[("cell", &format!("{}:{}", cell.0, cell.1))])
        })
    }

    /// Counts a frame a fault dropped under its cause (`"frame-loss"`,
    /// `"partition"` or `"node-down"`) and records [`EventKind::FrameDropped`]
    /// when it is a directed frame carrying a trace ID (the reliable
    /// data/ack path). Beacon losses are routine background noise and would
    /// flood the flight recorder without adding causal information.
    fn frame_dropped(
        &self,
        now: SimTime,
        dev: DeviceId,
        tech: TechType,
        cause: &'static str,
        frame: &[u8],
    ) {
        match cause {
            "partition" => self.drops_partition.inc(),
            "node-down" => self.drops_node_down.inc(),
            _ => self.drops_frame_loss.inc(),
        }
        let Some(trace) = omni_wire::frame::directed_trace(frame) else { return };
        let kind = EventKind::FrameDropped { tech: tech.label(), cause, trace: trace.as_u64() };
        self.obs.event(now.as_micros(), dev.0 as u32, kind);
    }
}

/// The simulation runner. See the crate docs for the overall model.
pub struct Runner {
    cfg: SimConfig,
    now: SimTime,
    /// Pending engine events: a heap, one lane per fixed latency and one
    /// per advertising interval (see [`EventQueue`]).
    queue: EventQueue<Engine>,
    rng: SmallRng,
    world: World,
    energy: EnergyLedger,
    devices: Vec<DeviceState>,
    stacks: Vec<Option<Box<dyn Stack>>>,
    medium: WifiMedium,
    conns: Vec<Connection>,
    mesh_index: HashMap<MeshAddress, DeviceId>,
    /// Armed timers: `(device, token)` → the generation of the one pending
    /// `Engine::Timer` allowed to fire. An entry leaves when its timer
    /// fires or is cancelled, so the map holds live timers only; events
    /// whose generation no longer matches are stale and dropped.
    timer_gens: HashMap<(usize, u64), u64>,
    /// Source of timer generations, runner-wide, so a generation is never
    /// reused and a stale event cannot match a later arming of its slot.
    next_timer_gen: u64,
    cmd_buf: Vec<(DeviceId, Command)>,
    /// Pooled recipient buffer for broadcast fan-out (beacons, one-shots,
    /// multicast, NFC, scans): taken, filled from the spatial grid, and put
    /// back, so the steady-state hot path allocates nothing.
    nbr_buf: Vec<DeviceId>,
    /// Pooled `(recipient, scan duty)` buffer for the BLE advertising tick.
    adv_buf: Vec<(DeviceId, f64)>,
    obs: Option<RunnerObs>,
    faults: FaultState,
    sampler: Option<Sampler>,
    /// Wall-clock tick-phase profiler (off by default).
    profiler: Option<TickProfiler>,
    /// The coalesced commit-phase scope currently being charged (see
    /// [`Runner::profile_event`]). Always `None` when `profiler` is.
    open_scope: Option<PhaseScope>,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("now", &self.now)
            .field("devices", &self.devices.len())
            .field("pending_events", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl Runner {
    /// Creates a runner with the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let medium = WifiMedium::new(WIFI_CAPACITY_BPS);
        let faults = FaultState::new(cfg.seed, cfg.faults.clone());
        // Grid cell = the largest radio range, so every per-technology
        // neighbor query stays within a 3×3 cell neighborhood.
        let world = World::with_cell_size(cfg.max_range_m());
        let mut runner = Runner {
            cfg,
            now: SimTime::ZERO,
            queue: EventQueue::new(&[BLE_ONESHOT_LATENCY, WALK_STEP]),
            rng,
            world,
            energy: EnergyLedger::new(),
            devices: Vec::new(),
            stacks: Vec::new(),
            medium,
            conns: Vec::new(),
            mesh_index: HashMap::new(),
            timer_gens: HashMap::new(),
            next_timer_gen: 0,
            cmd_buf: Vec::new(),
            nbr_buf: Vec::new(),
            adv_buf: Vec::new(),
            obs: None,
            faults,
            sampler: None,
            profiler: None,
            open_scope: None,
        };
        // Materialize configured fault windows as engine events. A default
        // (empty) FaultConfig schedules nothing, keeping the event sequence
        // byte-identical to a fault-free build.
        for (idx, p) in runner.cfg.faults.partitions.clone().into_iter().enumerate() {
            runner.schedule(
                SimDuration::from_micros(p.from.as_micros()),
                Engine::PartitionStart { idx },
            );
        }
        for w in runner.cfg.faults.churn.clone() {
            let dev = DeviceId(w.dev);
            runner.schedule(
                SimDuration::from_micros(w.down_at.as_micros()),
                Engine::ChurnDown { dev },
            );
            runner.schedule(SimDuration::from_micros(w.up_at.as_micros()), Engine::ChurnUp { dev });
        }
        runner
    }

    /// Attaches an observability handle. The runner records per-technology
    /// tx/rx frame and byte counters, the realized BLE advertising cadence
    /// (`beacon.interval_us`), and [`EventKind::BeaconSent`] events.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(RunnerObs {
            ble: TechMeters::new(&obs, TechType::BleBeacon),
            mcast: TechMeters::new(&obs, TechType::WifiMulticast),
            tcp: TechMeters::new(&obs, TechType::WifiTcp),
            nfc: TechMeters::new(&obs, TechType::Nfc),
            beacon_interval_us: obs.digest("beacon.interval_us"),
            drops_frame_loss: obs.counter_with("sim.faults.drops", &[("cause", "frame-loss")]),
            drops_partition: obs.counter_with("sim.faults.drops", &[("cause", "partition")]),
            drops_node_down: obs.counter_with("sim.faults.drops", &[("cause", "node-down")]),
            cell_tx: HashMap::new(),
            cell_density: HashMap::new(),
            obs,
        });
    }

    /// Enables periodic telemetry sampling (off by default): every
    /// [`SAMPLE_EVERY`] of sim time, the attached [`Obs`] registry is
    /// folded into per-metric time series, a JSONL stream, and the fleet
    /// health monitor (see [`Sampler`]).  Health transitions are recorded as
    /// [`EventKind::HealthTransition`] events under the fleet-scope node id
    /// `u32::MAX`.
    ///
    /// Sampling draws no randomness and only appends `(time, seq)`-ordered
    /// events, so enabling it does not perturb fleet behavior: a sampler-on
    /// run is event-for-event identical to a sampler-off run of the same
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics when no [`Obs`] handle is attached ([`Runner::set_obs`]) or
    /// when a sampler is already enabled.
    pub fn enable_sampler(&mut self) {
        assert!(self.obs.is_some(), "attach an Obs handle (set_obs) before enabling the sampler");
        assert!(self.sampler.is_none(), "sampler already enabled");
        self.sampler = Some(Sampler::new());
        self.schedule(SAMPLE_EVERY, Engine::Sample);
    }

    /// The telemetry sampler, when [`Runner::enable_sampler`] was called.
    pub fn sampler(&self) -> Option<&Sampler> {
        self.sampler.as_ref()
    }

    /// The attached observability handle, if any.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref().map(|o| &o.obs)
    }

    /// Enables the wall-clock tick-phase profiler (off by default).
    ///
    /// The profiler attributes runner wall time to the [`Phase`] taxonomy
    /// (staged commit, fault evaluation, medium pump, timer drain,
    /// telemetry sampling) and counts the events the loop dispatches. It
    /// needs no [`Obs`] handle: its state lives outside the metrics
    /// registry on purpose.
    ///
    /// **Determinism invariant** (DESIGN.md §5j, enforced by the
    /// `profiler_invariance` test suite): the profiler only reads
    /// `std::time::Instant` and writes its own buffers — never the RNG, the
    /// event sequence, the metrics registry, or the event ring — so a
    /// profiler-on run produces byte-identical simulation artifacts to a
    /// profiler-off run of the same seed. Wall-clock measurements leave only
    /// through [`TickProfiler::report`].
    ///
    /// # Panics
    ///
    /// Panics when a profiler is already enabled.
    pub fn enable_profiler(&mut self) {
        assert!(self.profiler.is_none(), "profiler already enabled");
        self.profiler = Some(TickProfiler::new());
    }

    /// The tick-phase profiler, when [`Runner::enable_profiler`] was called.
    pub fn profiler(&self) -> Option<&TickProfiler> {
        self.profiler.as_ref()
    }

    /// Mutable profiler access (to set slice capacity for trace export).
    pub fn profiler_mut(&mut self) -> Option<&mut TickProfiler> {
        self.profiler.as_mut()
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The energy ledger.
    pub fn energy(&self) -> &EnergyLedger {
        &self.energy
    }

    /// The world (placements).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Forces (or stops forcing) neighbor resolution through the retained
    /// brute-force linear scan instead of the spatial grid. Both modes are
    /// bit-identical in behavior (see `World::neighbors_scan`); the `scale`
    /// bench and equivalence tests use this to compare whole runs.
    pub fn set_brute_force_neighbors(&mut self, on: bool) {
        self.world.set_brute_force(on);
    }

    /// Total RNG draws made by the fault layer so far; determinism tests
    /// assert that same-seed runs make exactly the same draws.
    pub fn fault_rng_draws(&self) -> u64 {
        self.faults.draws
    }

    /// Adds a device with the given radios at the given position.
    /// Present radios start powered on (WiFi standby draw starts accruing
    /// immediately, as on the paper's testbed).
    ///
    /// # Panics
    ///
    /// Panics if a coordinate of `pos` is not finite.
    pub fn add_device(&mut self, caps: DeviceCaps, pos: Position) -> DeviceId {
        let idx = self.devices.len();
        let id = DeviceId(idx);
        let n = idx as u64 + 1;
        let mesh_addr = MeshAddress::from_u64(0x0a00_0000_0000_0000 | n);
        let ble_addr = BleAddress::from_u64(0x0200_0000_0000 | n);
        let nfc_addr = NfcAddress::from_u32(n as u32);
        let mut macs = Vec::new();
        if caps.wifi {
            macs.push([0x02, 0x57, 0x1f, 0x00, (n >> 8) as u8, n as u8]);
        }
        if caps.ble {
            macs.push(ble_addr.0);
        }
        if macs.is_empty() {
            // NFC-only devices still need an identity source.
            macs.push([0x02, 0x4e, 0x46, 0x43, (n >> 8) as u8, n as u8]);
        }
        self.devices.push(DeviceState {
            caps,
            ble_on: caps.ble,
            ble_scan_duty: None,
            // Most stacks advertise at least one context slot; reserving up
            // front keeps the first `BleAdvertiseSet` of every device out of
            // the allocator (at 10k devices that first push was the single
            // largest startup allocation burst — see `scale --smoke`).
            ble_slots: Vec::with_capacity(2),
            ble_next_gen: 1,
            ble_addr,
            wifi_on: caps.wifi,
            wifi_joined: false,
            wifi_mcast_listen: false,
            wifi_scanning: false,
            wifi_scan_gen: 0,
            wifi_joining: false,
            wifi_join_gen: 0,
            mesh_addr,
            nfc_addr,
            infra_rate_bps: 0.0,
            infra_queue: VecDeque::new(),
            infra_active: None,
            infra_gen: 0,
            macs,
        });
        self.stacks.push(None);
        self.world.add_device(pos);
        self.energy.add_device();
        if caps.wifi {
            self.energy.enter(id, self.now, EnergyState::WifiOn, self.cfg.energy.wifi_standby_ma);
        }
        self.mesh_index.insert(mesh_addr, id);
        id
    }

    /// Attaches a stack to a device. The stack receives [`NodeEvent::Start`]
    /// at the current virtual time once the simulation runs.
    pub fn set_stack(&mut self, dev: DeviceId, stack: Box<dyn Stack>) {
        self.stacks[dev.0] = Some(stack);
        self.schedule(SimDuration::ZERO, Engine::StartStack { dev });
    }

    /// Sets the device's infrastructure downlink rate in bytes/second.
    pub fn set_infra_rate(&mut self, dev: DeviceId, bytes_per_sec: f64) {
        assert!(bytes_per_sec >= 0.0);
        self.devices[dev.0].infra_rate_bps = bytes_per_sec;
    }

    /// Schedules an instantaneous move of a device at a future time.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate of `pos` is not finite.
    pub fn schedule_teleport(&mut self, dev: DeviceId, at: SimTime, pos: Position) {
        assert_finite(dev.0, pos);
        let delay = at.saturating_since(self.now);
        self.schedule(delay, Engine::Teleport { dev, pos });
    }

    /// Schedules a continuous walk: starting at `depart`, the device moves
    /// in a straight line toward `to` at `speed_mps` meters per second,
    /// updating its position once per second (encounter dynamics — range
    /// checks, connection audits — happen at every step). Every step after
    /// the first is due one second after the one before, so it waits in the
    /// event queue's one-second lane.
    ///
    /// # Panics
    ///
    /// Panics if `speed_mps` is not strictly positive and finite, or if a
    /// coordinate of `to` is not finite.
    pub fn schedule_walk(&mut self, dev: DeviceId, depart: SimTime, to: Position, speed_mps: f64) {
        assert!(speed_mps > 0.0 && speed_mps.is_finite(), "walking speed must be positive");
        assert_finite(dev.0, to);
        // The first step lands one second after departure (the walker covers
        // its first `speed_mps` meters during that second).
        let delay = depart.saturating_since(self.now) + WALK_STEP;
        self.schedule(delay, Engine::WalkStep { dev, to, speed_mps });
    }

    /// The device's WiFi-Mesh address.
    pub fn mesh_addr(&self, dev: DeviceId) -> MeshAddress {
        self.devices[dev.0].mesh_addr
    }

    /// The device's BLE address.
    pub fn ble_addr(&self, dev: DeviceId) -> BleAddress {
        self.devices[dev.0].ble_addr
    }

    /// The device's NFC id.
    pub fn nfc_addr(&self, dev: DeviceId) -> NfcAddress {
        self.devices[dev.0].nfc_addr
    }

    /// The device's hardware MAC addresses (for `omni_address` derivation).
    pub fn macs(&self, dev: DeviceId) -> &[[u8; 6]] {
        &self.devices[dev.0].macs
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Whether the device's WiFi radio is powered.
    pub fn wifi_on(&self, dev: DeviceId) -> bool {
        self.devices[dev.0].wifi_on
    }

    /// Whether the device is joined to the mesh group.
    pub fn wifi_joined(&self, dev: DeviceId) -> bool {
        self.devices[dev.0].wifi_joined
    }

    /// Whether the device is BLE-scanning.
    pub fn ble_scanning(&self, dev: DeviceId) -> bool {
        self.devices[dev.0].ble_scan_duty.is_some()
    }

    /// Maps an engine event to the profiler phase it is charged to
    /// (DESIGN.md §5j). Deliveries and mobility, including each advertising
    /// tick's fan-out neighbor query, run under [`Phase::StagedCommit`];
    /// configured fault windows under [`Phase::FaultEval`]; timers,
    /// telemetry, and the medium machinery under their own phases.
    fn phase_of(ev: &Engine) -> Phase {
        match ev {
            Engine::StartStack { .. }
            | Engine::BleAdv { .. }
            | Engine::BleOneShotDeliver { .. }
            | Engine::BleOneShotSent { .. }
            | Engine::NfcDeliver { .. }
            | Engine::Teleport { .. }
            | Engine::WalkStep { .. } => Phase::StagedCommit,
            Engine::Timer { .. } => Phase::TimerDrain,
            Engine::WifiScanDone { .. }
            | Engine::WifiJoinEcho { .. }
            | Engine::WifiJoinDone { .. }
            | Engine::TcpConnectDone { .. }
            | Engine::TcpConnectFail { .. }
            | Engine::FlowBoundary { .. }
            | Engine::McastDone { .. }
            | Engine::InfraChunkDone { .. } => Phase::MediumPump,
            Engine::PartitionStart { .. } | Engine::ChurnDown { .. } | Engine::ChurnUp { .. } => {
                Phase::FaultEval
            }
            Engine::Sample => Phase::TelemetrySample,
        }
    }

    /// Counts the event about to be handled and charges it to its phase.
    /// Consecutive same-phase events share one open scope, so the profiler
    /// reads the clock twice per phase *transition*, not twice per event:
    /// the tick loop drains long same-phase runs (a beacon round handles
    /// thousands of advertising ticks back to back). Both counts are
    /// deterministic, and `scale --smoke` holds its 10k-node cell to at
    /// most one clock read per 100 events. Phase totals are exact either
    /// way.
    ///
    /// Token (not RAII) scope: `handle` needs `&mut self`, so the
    /// measurement cannot hold a profiler borrow across it.
    fn profile_event(&mut self, ev: &Engine) {
        let Some(p) = self.profiler.as_mut() else { return };
        p.count_event();
        let phase = Self::phase_of(ev);
        if self.open_scope.as_ref().is_some_and(|s| s.phase() == phase) {
            return;
        }
        if let Some(s) = self.open_scope.take() {
            p.finish(s);
        }
        self.open_scope = Some(p.begin(phase));
    }

    /// Closes the coalesced scope, if any, at loop exit.
    fn profile_flush(&mut self) {
        if let Some(s) = self.open_scope.take() {
            if let Some(p) = self.profiler.as_mut() {
                p.finish(s);
            }
        }
    }

    /// Runs the simulation up to and including `t`: pops events in
    /// `(time, seq)` order and handles each to completion before the next.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than [`Runner::now`]: the clock never turns
    /// back, which keeps every event-queue lane in `(time, seq)` order.
    pub fn run_until(&mut self, t: SimTime) {
        assert!(t >= self.now, "run_until({t}) would turn the clock back from {}", self.now);
        while let Some((at, ev)) = self.queue.pop_due(t) {
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            if self.profiler.is_some() {
                self.profile_event(&ev);
            }
            self.handle(ev);
        }
        self.profile_flush();
        self.now = t;
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Schedules `ev` `delay` from now. A delay equal to a fixed latency
    /// of the queue puts it in that latency's lane, any other in the heap;
    /// either way it pops in `(time, seq)` order.
    fn schedule(&mut self, delay: SimDuration, ev: Engine) {
        self.queue.push(self.now, delay, ev);
    }

    /// Re-arms an advertising slot one interval from now, in its interval's
    /// lane (only the jittered first pulse goes through the heap).
    fn rearm_pulse(&mut self, dev: DeviceId, slot: u32, gen: u64, interval: SimDuration) {
        let dev = u32::try_from(dev.0).expect("advertising device ids fit in u32");
        self.queue.push_pulse(self.now, interval, Pulse { dev, slot, gen });
    }

    /// Delivers a node event to a device's stack and applies the commands it
    /// queued. Stackless devices drop events.
    fn deliver(&mut self, dev: DeviceId, event: NodeEvent) {
        let Some(mut stack) = self.stacks[dev.0].take() else {
            return;
        };
        let mut cmds = std::mem::take(&mut self.cmd_buf);
        cmds.clear();
        {
            let mut api = NodeApi { device: dev, now: self.now, commands: &mut cmds };
            stack.on_event(event, &mut api);
        }
        self.stacks[dev.0] = Some(stack);
        for (d, cmd) in cmds.drain(..) {
            self.apply(d, cmd);
        }
        // Restore the pooled buffer (a reentrant `deliver` from `apply` took
        // a fresh one; keep whichever has capacity).
        if cmds.capacity() > self.cmd_buf.capacity() {
            self.cmd_buf = cmds;
        }
    }

    fn resched_boundary(&mut self) {
        self.medium.boundary_gen += 1;
        if let Some(at) = self.medium.next_boundary() {
            let gen = self.medium.boundary_gen;
            let delay = at.saturating_since(self.now);
            self.schedule(delay, Engine::FlowBoundary { gen });
        }
    }

    /// Synchronizes a device's flow-related energy states with the medium.
    /// During an active flow a device drives both data and ACK traffic, so
    /// both send and receive draws apply (see DESIGN.md calibration).
    fn sync_flow_energy(&mut self, dev: DeviceId) {
        let active = self.medium.device_active(dev, true) || self.medium.device_active(dev, false);
        let tx_held = self.energy.is_active(dev, EnergyState::WifiTx);
        if active && !tx_held {
            self.energy.enter(dev, self.now, EnergyState::WifiTx, self.cfg.energy.wifi_tx_ma);
            self.energy.enter(dev, self.now, EnergyState::WifiRx, self.cfg.energy.wifi_rx_ma);
        } else if !active && tx_held {
            self.energy.leave(dev, self.now, EnergyState::WifiTx);
            self.energy.leave(dev, self.now, EnergyState::WifiRx);
        }
    }

    /// Handles completed flows: notifies endpoints and starts the next
    /// pending message per connection direction.
    fn finish_flows(&mut self, done: impl Iterator<Item = Flow>) {
        let mut notifications = Vec::new();
        for flow in done {
            if let Some(o) = &self.obs {
                o.tcp.tx(flow.payload.len());
                o.tcp.rx(flow.payload.len());
            }
            let conn = &mut self.conns[flow.conn.0 as usize];
            let dir = conn.dir_from(flow.sender).expect("flow sender is an endpoint");
            conn.active[dir] = false;
            notifications.push((flow.sender, NodeEvent::TcpSendComplete { conn: flow.conn }));
            notifications.push((
                flow.receiver,
                NodeEvent::TcpMessage { conn: flow.conn, payload: flow.payload },
            ));
            if let Some((payload, wire)) = self.conns[flow.conn.0 as usize].pending[dir].pop_front()
            {
                self.conns[flow.conn.0 as usize].active[dir] = true;
                self.medium.add_flow(Flow {
                    conn: flow.conn,
                    sender: flow.sender,
                    receiver: flow.receiver,
                    payload,
                    remaining: wire,
                });
            }
            self.sync_flow_energy(flow.sender);
            self.sync_flow_energy(flow.receiver);
        }
        self.resched_boundary();
        for (dev, ev) in notifications {
            self.deliver(dev, ev);
        }
    }

    /// Closes an open connection, failing in-flight and pending messages.
    /// A fault (`closer: None`) tells both endpoints with `error: true`; a
    /// graceful close by one endpoint tells only the other, without error.
    fn close_conn(&mut self, conn_id: ConnId, closer: Option<DeviceId>) {
        let (a, b) = {
            let c = &mut self.conns[conn_id.0 as usize];
            if !c.open {
                return;
            }
            c.open = false;
            c.pending[0].clear();
            c.pending[1].clear();
            c.active = [false, false];
            (c.a, c.b)
        };
        self.medium.advance(self.now);
        let _removed = self.medium.remove_conn(conn_id);
        self.resched_boundary();
        self.sync_flow_energy(a);
        self.sync_flow_energy(b);
        match closer {
            None => {
                self.deliver(a, NodeEvent::TcpClosed { conn: conn_id, error: true });
                self.deliver(b, NodeEvent::TcpClosed { conn: conn_id, error: true });
            }
            Some(closer) => {
                let remote = if a == closer { b } else { a };
                self.deliver(remote, NodeEvent::TcpClosed { conn: conn_id, error: false });
            }
        }
    }

    /// Fails every open connection involving `dev` that is no longer viable.
    fn audit_connections(&mut self, dev: DeviceId, force_all: bool) {
        let range = self.cfg.range_m(TechType::WifiTcp);
        let to_fail: Vec<ConnId> = self
            .conns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.open && c.involves(dev))
            .filter(|(_, c)| {
                force_all
                    || !self.world.in_range(c.a, c.b, range)
                    || !self.devices[c.a.0].wifi_on
                    || !self.devices[c.b.0].wifi_on
                    || !self.faults.link_ok(c.a, c.b, self.now, FaultScope::Wifi)
            })
            .map(|(i, _)| ConnId(i as u64))
            .collect();
        for id in to_fail {
            self.close_conn(id, None);
        }
    }

    fn wifi_power_off(&mut self, dev: DeviceId) {
        let d = &mut self.devices[dev.0];
        if !d.wifi_on {
            return;
        }
        d.wifi_on = false;
        let was_joined = std::mem::take(&mut d.wifi_joined);
        d.wifi_mcast_listen = false;
        d.wifi_scan_gen += 1;
        d.wifi_join_gen += 1;
        d.infra_gen += 1;
        d.infra_queue.clear();
        let had_infra = d.infra_active.take().is_some();
        let was_scanning = std::mem::take(&mut d.wifi_scanning);
        let was_joining = std::mem::take(&mut d.wifi_joining);
        self.energy.leave(dev, self.now, EnergyState::WifiOn);
        if was_scanning {
            self.energy.leave(dev, self.now, EnergyState::WifiScan);
        }
        if was_joining {
            self.energy.leave(dev, self.now, EnergyState::WifiConnect);
        }
        if had_infra {
            self.energy.leave(dev, self.now, EnergyState::InfraRx);
        }
        self.medium.advance(self.now);
        if self.medium.cancel_mcast_for(dev) {
            self.energy.leave(dev, self.now, EnergyState::McastTx);
        }
        self.audit_connections(dev, true);
        // Deliver any flow the update completed.
        self.resched_boundary();
        if was_joined {
            self.deliver(dev, NodeEvent::WifiLeft);
        }
    }

    fn apply(&mut self, dev: DeviceId, cmd: Command) {
        match cmd {
            Command::SetTimer { token, delay } => {
                self.next_timer_gen += 1;
                let gen = self.next_timer_gen;
                self.timer_gens.insert((dev.0, token), gen);
                self.schedule(delay, Engine::Timer { dev, token, gen });
            }
            Command::CancelTimer { token } => {
                self.timer_gens.remove(&(dev.0, token));
            }
            Command::BlePower(on) => self.ble_power(dev, on),
            Command::BleSetScan { duty } => self.ble_set_scan(dev, duty),
            Command::BleAdvertiseSet { slot, payload, interval } => {
                self.ble_advertise_set(dev, slot, payload, interval)
            }
            Command::BleAdvertiseStop { slot } => {
                // Stale pulses die on the generation check; generations are
                // never reused, so no bump is needed here.
                self.devices[dev.0].ble_slots.retain(|&(s, _)| s != slot);
            }
            Command::BleSendOneShot { payload } => self.ble_send_oneshot(dev, payload),
            Command::WifiPower(on) => {
                if on {
                    let d = &mut self.devices[dev.0];
                    if d.caps.wifi && !d.wifi_on {
                        d.wifi_on = true;
                        self.energy.enter(
                            dev,
                            self.now,
                            EnergyState::WifiOn,
                            self.cfg.energy.wifi_standby_ma,
                        );
                    }
                } else {
                    self.wifi_power_off(dev);
                }
            }
            Command::WifiScan => self.wifi_scan(dev),
            Command::WifiJoin => self.wifi_join(dev),
            Command::WifiLeave => {
                let d = &mut self.devices[dev.0];
                d.wifi_mcast_listen = false;
                if std::mem::take(&mut d.wifi_joined) {
                    self.deliver(dev, NodeEvent::WifiLeft);
                }
            }
            Command::WifiMcastListen(on) => {
                // Listening needs a joined radio; otherwise the request is
                // ignored.
                let d = &mut self.devices[dev.0];
                if !on || (d.wifi_on && d.wifi_joined) {
                    d.wifi_mcast_listen = on;
                }
            }
            Command::WifiMcastSend { payload, wire_len, bulk } => {
                self.mcast_send(dev, payload, wire_len, bulk)
            }
            Command::TcpConnect { token, peer } => self.tcp_connect(dev, token, peer),
            Command::TcpSend { conn, payload, wire_len } => {
                self.tcp_send(dev, conn, payload, wire_len)
            }
            Command::TcpClose { conn } => {
                if self.conns.get(conn.0 as usize).is_some_and(|c| c.involves(dev)) {
                    self.close_conn(conn, Some(dev));
                }
            }
            Command::NfcSend { payload } => self.nfc_send(dev, payload),
            Command::InfraRequest { req, total_bytes, chunk_bytes } => {
                self.infra_request(dev, req, total_bytes, chunk_bytes)
            }
            Command::InfraCancel { req } => self.infra_cancel(dev, req),
        }
    }

    fn ble_power(&mut self, dev: DeviceId, on: bool) {
        if !self.devices[dev.0].caps.ble {
            return;
        }
        let d = &mut self.devices[dev.0];
        if on {
            d.ble_on = true;
        } else {
            d.ble_on = false;
            d.ble_slots.clear();
            if d.ble_scan_duty.take().is_some() {
                self.energy.leave(dev, self.now, EnergyState::BleScan);
                self.world.set_scanning(dev, false);
            }
        }
    }

    fn ble_set_scan(&mut self, dev: DeviceId, duty: Option<f64>) {
        if !self.devices[dev.0].ble_on {
            return;
        }
        let d = &mut self.devices[dev.0];
        if d.ble_scan_duty.take().is_some() {
            self.energy.leave(dev, self.now, EnergyState::BleScan);
        }
        if let Some(duty) = duty {
            assert!(duty > 0.0 && duty <= 1.0, "scan duty must be in (0, 1]");
            self.devices[dev.0].ble_scan_duty = Some(duty);
            let ma = self.cfg.energy.ble_scan_ma * duty;
            self.energy.enter(dev, self.now, EnergyState::BleScan, ma);
        }
        self.world.set_scanning(dev, duty.is_some());
    }

    fn ble_advertise_set(
        &mut self,
        dev: DeviceId,
        slot: u32,
        payload: Bytes,
        interval: SimDuration,
    ) {
        if payload.len() > BLE_MAX_PAYLOAD {
            return; // oversized adverts are dropped
        }
        assert!(!interval.is_zero(), "advertising interval must be positive");
        let d = &mut self.devices[dev.0];
        if !d.ble_on {
            return;
        }
        let gen = d.ble_next_gen;
        d.ble_next_gen += 1;
        let entry = BleSlot { payload, interval, gen };
        match d.ble_slots.iter_mut().find(|(s, _)| *s == slot) {
            Some((_, existing)) => *existing = entry,
            None => d.ble_slots.push((slot, entry)),
        }
        // First pulse after a seeded jitter within one interval so devices
        // don't synchronize artificially.
        let jitter = SimDuration::from_micros(self.rng.gen_range(0..interval.as_micros().max(1)));
        self.schedule(jitter, Engine::BleAdv { dev, slot, gen });
    }

    /// Attributes a frame a fault dropped (see [`RunnerObs::frame_dropped`]).
    fn frame_dropped(&self, dev: DeviceId, tech: TechType, cause: &'static str, frame: &[u8]) {
        if let Some(o) = &self.obs {
            o.frame_dropped(self.now, dev, tech, cause, frame);
        }
    }

    /// Distinguishes churn from partitions for drop attribution: a link that
    /// fails while either endpoint is churned down is a node fault, anything
    /// else is a partition window.
    fn link_drop_cause(&self, a: DeviceId, b: DeviceId) -> &'static str {
        if self.faults.is_down(a) || self.faults.is_down(b) {
            "node-down"
        } else {
            "partition"
        }
    }

    fn ble_send_oneshot(&mut self, dev: DeviceId, payload: Bytes) {
        // Oversized bursts are dropped; a powered-off or churned-down radio
        // sends nothing. A dropped burst still completes, like a sent one:
        // the stack matches each completion to its oldest burst in flight.
        if payload.len() > BLE_MAX_PAYLOAD
            || !self.devices[dev.0].ble_on
            || self.faults.is_down(dev)
        {
            self.schedule(BLE_ONESHOT_LATENCY, Engine::BleOneShotSent { dev });
            return;
        }
        self.energy.pulse(dev, self.cfg.energy.ble_adv_ma, BLE_ONESHOT_PULSE);
        let cell = self.world.cell_index(dev);
        if let Some(o) = self.obs.as_mut() {
            o.ble.tx(payload.len());
            o.cell_tx_counter(cell).inc();
        }
        let mut recipients = std::mem::take(&mut self.nbr_buf);
        self.world.scanners_into(dev, self.cfg.range_m(TechType::BleBeacon), &mut recipients);
        recipients.retain(|&n| {
            if self.faults.link_ok(dev, n, self.now, FaultScope::Ble) {
                return true;
            }
            self.frame_dropped(dev, TechType::BleBeacon, self.link_drop_cause(dev, n), &payload);
            false
        });
        let loss = self.cfg.faults.ble_loss;
        let jitter_max = self.cfg.faults.ble_jitter;
        for &to in &recipients {
            if self.faults.lose(loss) {
                self.frame_dropped(dev, TechType::BleBeacon, "frame-loss", &payload);
                continue;
            }
            let delay = BLE_ONESHOT_LATENCY + self.faults.jitter(jitter_max);
            self.schedule(
                delay,
                Engine::BleOneShotDeliver { to, from: dev, payload: payload.clone() },
            );
        }
        self.nbr_buf = recipients;
        self.schedule(BLE_ONESHOT_LATENCY, Engine::BleOneShotSent { dev });
    }

    fn wifi_scan(&mut self, dev: DeviceId) {
        if !self.devices[dev.0].wifi_on {
            let gen = self.devices[dev.0].wifi_scan_gen;
            self.schedule(SimDuration::ZERO, Engine::WifiScanDone { dev, gen });
            return;
        }
        let d = &mut self.devices[dev.0];
        if d.wifi_scanning {
            return;
        }
        d.wifi_scanning = true;
        d.wifi_scan_gen += 1;
        let gen = d.wifi_scan_gen;
        self.energy.enter(dev, self.now, EnergyState::WifiScan, self.cfg.energy.wifi_scan_ma);
        self.schedule(WIFI_SCAN_TIME, Engine::WifiScanDone { dev, gen });
    }

    fn wifi_join(&mut self, dev: DeviceId) {
        let d = &mut self.devices[dev.0];
        if !d.wifi_on {
            return;
        }
        if d.wifi_joined {
            // Idempotent: confirm immediately so join-driven state machines
            // make progress regardless of who joined first.
            self.schedule(SimDuration::ZERO, Engine::WifiJoinEcho { dev });
            return;
        }
        if d.wifi_joining {
            return;
        }
        d.wifi_joining = true;
        d.wifi_join_gen += 1;
        let gen = d.wifi_join_gen;
        self.energy.enter(dev, self.now, EnergyState::WifiConnect, self.cfg.energy.wifi_connect_ma);
        self.schedule(WIFI_JOIN_TIME, Engine::WifiJoinDone { dev, gen });
    }

    fn mcast_send(&mut self, dev: DeviceId, payload: Bytes, wire_len: u64, bulk: bool) {
        let d = &self.devices[dev.0];
        if !(d.wifi_on && d.wifi_joined) {
            return;
        }
        self.medium.advance(self.now);
        let job = McastJob { sender: dev, payload, airtime: mcast_airtime(wire_len), bulk };
        if let Some(started) = self.medium.enqueue_mcast(job) {
            self.start_mcast(started);
        }
        self.resched_boundary();
    }

    fn start_mcast(&mut self, job: McastJob) {
        let ma = if job.bulk {
            self.cfg.energy.wifi_mcast_bulk_tx_ma
        } else {
            self.cfg.energy.wifi_tx_ma
        };
        self.energy.enter(job.sender, self.now, EnergyState::McastTx, ma);
        let gen = self.medium.mcast_gen;
        self.schedule(job.airtime, Engine::McastDone { gen });
    }

    fn tcp_connect(&mut self, dev: DeviceId, token: u64, peer: MeshAddress) {
        if !self.devices[dev.0].wifi_on || self.faults.is_down(dev) {
            self.schedule(
                SimDuration::ZERO,
                Engine::TcpConnectFail { dev, token, error: TcpError::RadioOff },
            );
            return;
        }
        let target = self.mesh_index.get(&peer).copied();
        let ok = target.map(|t| {
            t != dev
                && self.devices[t.0].wifi_on
                && self.world.in_range(dev, t, self.cfg.range_m(TechType::WifiTcp))
                && !self.tcp_link_severed(dev, t)
        });
        match (target, ok) {
            (Some(t), Some(true)) => {
                if self.faults.lose(self.cfg.faults.tcp_connect_loss) {
                    self.frame_dropped(dev, TechType::WifiTcp, "frame-loss", &[]);
                    self.schedule(
                        TCP_CONNECT_TIME,
                        Engine::TcpConnectFail { dev, token, error: TcpError::Unreachable },
                    );
                } else {
                    self.schedule(
                        TCP_CONNECT_TIME,
                        Engine::TcpConnectDone { initiator: dev, token, target: t },
                    );
                }
            }
            (Some(t), _) if !self.devices[t.0].wifi_on => {
                self.schedule(
                    SimDuration::ZERO,
                    Engine::TcpConnectFail { dev, token, error: TcpError::RadioOff },
                );
            }
            _ => {
                self.schedule(
                    SimDuration::ZERO,
                    Engine::TcpConnectFail { dev, token, error: TcpError::Unreachable },
                );
            }
        }
    }

    /// Whether a partition or a churn window severs the WiFi link from `a`
    /// to `b` now. A severed link blocks a TCP connect, which counts as one
    /// drop under its cause.
    fn tcp_link_severed(&self, a: DeviceId, b: DeviceId) -> bool {
        let severed = !self.faults.link_ok(a, b, self.now, FaultScope::Wifi);
        if severed {
            self.frame_dropped(a, TechType::WifiTcp, self.link_drop_cause(a, b), &[]);
        }
        severed
    }

    fn tcp_send(&mut self, dev: DeviceId, conn_id: ConnId, payload: Bytes, wire_len: u64) {
        let idx = conn_id.0 as usize;
        if idx >= self.conns.len() || !self.conns[idx].open {
            return;
        }
        let Some(dir) = self.conns[idx].dir_from(dev) else { return };
        let wire = (wire_len + TCP_OVERHEAD_BYTES) as f64;
        if self.conns[idx].active[dir] {
            self.conns[idx].pending[dir].push_back((payload, wire));
            return;
        }
        let (sender, receiver) = self.conns[idx].endpoint(dir);
        self.conns[idx].active[dir] = true;
        self.medium.advance(self.now);
        self.medium.add_flow(Flow { conn: conn_id, sender, receiver, payload, remaining: wire });
        self.resched_boundary();
        self.sync_flow_energy(sender);
        self.sync_flow_energy(receiver);
    }

    fn nfc_send(&mut self, dev: DeviceId, payload: Bytes) {
        // Oversized payloads are dropped; a device without NFC hardware or
        // churned down sends nothing.
        if payload.len() > NFC_MAX_PAYLOAD
            || !self.devices[dev.0].caps.nfc
            || self.faults.is_down(dev)
        {
            return;
        }
        let cell = self.world.cell_index(dev);
        if let Some(o) = self.obs.as_mut() {
            o.nfc.tx(payload.len());
            o.cell_tx_counter(cell).inc();
        }
        let mut recipients = std::mem::take(&mut self.nbr_buf);
        self.world.neighbors_into(dev, self.cfg.range_m(TechType::Nfc), &mut recipients);
        recipients.retain(|&n| self.devices[n.0].caps.nfc);
        recipients.retain(|&n| {
            if self.faults.link_ok(dev, n, self.now, FaultScope::Nfc) {
                return true;
            }
            self.frame_dropped(dev, TechType::Nfc, self.link_drop_cause(dev, n), &payload);
            false
        });
        for &to in &recipients {
            self.schedule(
                NFC_TOUCH_LATENCY,
                Engine::NfcDeliver { to, from: dev, payload: payload.clone() },
            );
        }
        self.nbr_buf = recipients;
    }

    fn infra_request(&mut self, dev: DeviceId, req: u64, total: u64, chunk: u64) {
        assert!(chunk > 0, "chunk size must be positive");
        assert!(total > 0, "request must be non-empty");
        let d = &mut self.devices[dev.0];
        if !d.wifi_on || d.infra_rate_bps <= 0.0 {
            return; // needs a powered radio and an infrastructure link
        }
        if d.infra_active.is_some() {
            d.infra_queue.push_back((req, total, chunk));
            return;
        }
        self.infra_start(dev, req, total, chunk);
    }

    fn infra_start(&mut self, dev: DeviceId, req: u64, total: u64, chunk: u64) {
        let d = &mut self.devices[dev.0];
        d.infra_active = Some(ActiveInfra { req, total, chunk, received: 0, next_chunk_index: 0 });
        d.infra_gen += 1;
        let gen = d.infra_gen;
        let first = chunk.min(total);
        let delay = SimDuration::from_secs_f64(first as f64 / d.infra_rate_bps);
        self.energy.enter(dev, self.now, EnergyState::InfraRx, self.cfg.energy.wifi_infra_rx_ma);
        self.schedule(delay, Engine::InfraChunkDone { dev, gen });
    }

    fn infra_cancel(&mut self, dev: DeviceId, req: u64) {
        let d = &mut self.devices[dev.0];
        d.infra_queue.retain(|(r, _, _)| *r != req);
        if d.infra_active.as_ref().map(|a| a.req == req).unwrap_or(false) {
            d.infra_active = None;
            d.infra_gen += 1;
            self.energy.leave(dev, self.now, EnergyState::InfraRx);
            if let Some((req, total, chunk)) = self.devices[dev.0].infra_queue.pop_front() {
                // Re-enter for the next request.
                self.infra_start(dev, req, total, chunk);
            }
        }
    }

    fn handle(&mut self, ev: Engine) {
        match ev {
            Engine::StartStack { dev } => self.deliver(dev, NodeEvent::Start),
            Engine::Timer { dev, token, gen } => {
                if self.timer_gens.get(&(dev.0, token)) == Some(&gen) {
                    self.timer_gens.remove(&(dev.0, token));
                    self.deliver(dev, NodeEvent::Timer { token });
                }
            }
            Engine::BleAdv { dev, slot, gen } => self.ble_adv_tick(dev, slot, gen),
            Engine::BleOneShotDeliver { to, from, payload } => {
                let d = &self.devices[to.0];
                if d.ble_on
                    && d.ble_scan_duty.is_some()
                    && self.faults.link_ok(from, to, self.now, FaultScope::Ble)
                {
                    let from_addr = self.devices[from.0].ble_addr;
                    if let Some(o) = &self.obs {
                        o.ble.rx(payload.len());
                    }
                    self.deliver(to, NodeEvent::BleOneShot { from: from_addr, payload });
                }
            }
            Engine::BleOneShotSent { dev } => self.deliver(dev, NodeEvent::BleOneShotSent),
            Engine::WifiScanDone { dev, gen } => {
                if self.devices[dev.0].wifi_scan_gen != gen || !self.devices[dev.0].wifi_scanning {
                    // Stale (power-cycled) or synthetic immediate failure.
                    if self.devices[dev.0].wifi_scan_gen == gen {
                        self.deliver(dev, NodeEvent::WifiScanDone { found: Vec::new() });
                    }
                    return;
                }
                self.devices[dev.0].wifi_scanning = false;
                self.energy.leave(dev, self.now, EnergyState::WifiScan);
                let mut nbrs = std::mem::take(&mut self.nbr_buf);
                self.world.neighbors_into(dev, self.cfg.range_m(TechType::WifiTcp), &mut nbrs);
                let found: Vec<MeshAddress> = nbrs
                    .iter()
                    .filter(|&&n| self.devices[n.0].wifi_on)
                    .filter(|&&n| self.faults.link_ok(dev, n, self.now, FaultScope::Wifi))
                    .map(|&n| self.devices[n.0].mesh_addr)
                    .collect();
                self.nbr_buf = nbrs;
                self.deliver(dev, NodeEvent::WifiScanDone { found });
            }
            Engine::WifiJoinEcho { dev } => {
                if self.devices[dev.0].wifi_joined {
                    self.deliver(dev, NodeEvent::WifiJoined);
                }
            }
            Engine::WifiJoinDone { dev, gen } => {
                if self.devices[dev.0].wifi_join_gen != gen || !self.devices[dev.0].wifi_joining {
                    return;
                }
                let d = &mut self.devices[dev.0];
                d.wifi_joining = false;
                d.wifi_joined = true;
                self.energy.leave(dev, self.now, EnergyState::WifiConnect);
                self.deliver(dev, NodeEvent::WifiJoined);
            }
            Engine::TcpConnectDone { initiator, token, target } => {
                let viable = self.devices[initiator.0].wifi_on
                    && self.devices[target.0].wifi_on
                    && self.world.in_range(initiator, target, self.cfg.range_m(TechType::WifiTcp))
                    && !self.tcp_link_severed(initiator, target);
                if !viable {
                    self.deliver(
                        initiator,
                        NodeEvent::TcpConnectResult { token, result: Err(TcpError::Unreachable) },
                    );
                    return;
                }
                let id = ConnId(self.conns.len() as u64);
                self.conns.push(Connection {
                    a: initiator,
                    b: target,
                    open: true,
                    pending: [VecDeque::new(), VecDeque::new()],
                    active: [false, false],
                });
                let from = self.devices[initiator.0].mesh_addr;
                self.deliver(initiator, NodeEvent::TcpConnectResult { token, result: Ok(id) });
                self.deliver(target, NodeEvent::TcpIncoming { conn: id, from });
            }
            Engine::TcpConnectFail { dev, token, error } => {
                self.deliver(dev, NodeEvent::TcpConnectResult { token, result: Err(error) });
            }
            Engine::FlowBoundary { gen } => {
                if gen != self.medium.boundary_gen {
                    return;
                }
                self.medium.advance(self.now);
                let done = self.medium.take_completed();
                self.finish_flows(done);
            }
            Engine::McastDone { gen } => self.mcast_done(gen),
            Engine::NfcDeliver { to, from, payload } => {
                if self.world.in_range(to, from, self.cfg.range_m(TechType::Nfc))
                    && self.faults.link_ok(to, from, self.now, FaultScope::Nfc)
                {
                    let from_addr = self.devices[from.0].nfc_addr;
                    if let Some(o) = &self.obs {
                        o.nfc.rx(payload.len());
                    }
                    self.deliver(to, NodeEvent::NfcReceived { from: from_addr, payload });
                }
            }
            Engine::InfraChunkDone { dev, gen } => self.infra_chunk_done(dev, gen),
            Engine::Teleport { dev, pos } => {
                self.world.set_position(dev, pos);
                self.audit_connections(dev, false);
            }
            Engine::WalkStep { dev, to, speed_mps } => {
                let cur = self.world.position(dev);
                let remaining = cur.distance(to);
                if remaining <= speed_mps {
                    // Arrive within this step.
                    self.world.set_position(dev, to);
                } else {
                    let frac = speed_mps / remaining;
                    let next =
                        Position::new(cur.x + (to.x - cur.x) * frac, cur.y + (to.y - cur.y) * frac);
                    self.world.set_position(dev, next);
                    self.schedule(WALK_STEP, Engine::WalkStep { dev, to, speed_mps });
                }
                self.audit_connections(dev, false);
            }
            Engine::PartitionStart { idx } => self.partition_start(idx),
            Engine::ChurnDown { dev } => self.churn_down(dev),
            Engine::ChurnUp { dev } => self.churn_up(dev),
            Engine::Sample => self.sample_tick(),
        }
    }

    /// One telemetry sampling tick: refresh the per-cell density gauges from
    /// the spatial grid, fold the registry into the sampler, surface any
    /// health transition as a fleet-scope event, and reschedule.
    fn sample_tick(&mut self) {
        let Some(mut sampler) = self.sampler.take() else { return };
        let occupancy = self.world.cell_occupancy();
        let nodes_down = self.faults.down_count();
        let fleet = self.devices.len();
        let t_us = self.now.as_micros();
        if let Some(o) = self.obs.as_mut() {
            for &(cell, n) in &occupancy {
                o.cell_density_gauge(cell).set(n as i64);
            }
            // Cells seen before but empty now drop to zero, so density
            // series decay instead of freezing at their last value.
            for (cell, g) in &o.cell_density {
                if occupancy.binary_search_by_key(cell, |&(c, _)| c).is_err() {
                    g.set(0);
                }
            }
            if let Some(ev) = sampler.sample(&o.obs, t_us, nodes_down, fleet) {
                o.obs.event(
                    t_us,
                    u32::MAX,
                    EventKind::HealthTransition {
                        from: ev.from.name(),
                        to: ev.to.name(),
                        cause: ev.cause,
                    },
                );
            }
        }
        self.sampler = Some(sampler);
        self.schedule(SAMPLE_EVERY, Engine::Sample);
    }

    /// Opens a configured partition window: tears down open TCP connections
    /// between the pair (when the scope covers WiFi) and records the event.
    /// Ongoing reachability during the window is enforced by the pure
    /// [`FaultState::link_ok`] checks at every delivery point, so nothing
    /// needs to happen when the window closes.
    fn partition_start(&mut self, idx: usize) {
        let Some(p) = self.cfg.faults.partitions.get(idx).copied() else {
            return;
        };
        let (a, b) = (DeviceId(p.a), DeviceId(p.b));
        if let Some(o) = &self.obs {
            o.obs.event(
                self.now.as_micros(),
                a.0 as u32,
                EventKind::LinkPartitioned { a: p.a as u64, b: p.b as u64 },
            );
        }
        if p.scope.covers(FaultScope::Wifi) {
            let to_close: Vec<ConnId> = self
                .conns
                .iter()
                .enumerate()
                .filter(|(_, c)| c.open && c.involves(a) && c.involves(b))
                .map(|(i, _)| ConnId(i as u64))
                .collect();
            for id in to_close {
                self.close_conn(id, None);
            }
        }
    }

    /// Takes a node's radios down for a churn window. Device state (slots,
    /// join status, scan duty) is preserved — the fault layer mutes frames at
    /// the delivery points — but in-flight WiFi activity is flushed through
    /// the medium's removal paths so flows fail like a real radio cut.
    fn churn_down(&mut self, dev: DeviceId) {
        if dev.0 >= self.devices.len() || self.faults.is_down(dev) {
            return;
        }
        self.faults.set_down(dev, true);
        if let Some(o) = &self.obs {
            o.obs.event(
                self.now.as_micros(),
                dev.0 as u32,
                EventKind::NodeDown { node: dev.0 as u64 },
            );
        }
        self.medium.advance(self.now);
        if self.medium.cancel_mcast_for(dev) {
            self.energy.leave(dev, self.now, EnergyState::McastTx);
        }
        self.audit_connections(dev, true);
        self.medium.advance(self.now);
        let _flushed = self.medium.remove_device(dev);
        self.resched_boundary();
        self.sync_flow_energy(dev);
    }

    fn churn_up(&mut self, dev: DeviceId) {
        if dev.0 >= self.devices.len() || !self.faults.is_down(dev) {
            return;
        }
        self.faults.set_down(dev, false);
    }

    fn ble_adv_tick(&mut self, dev: DeviceId, slot: u32, gen: u64) {
        // Probe the slot without touching the payload: most pulses reach no
        // scanner, and the `Bytes` refcount round-trip is measurable at
        // fleet scale. The payload is cloned out only when a delivery
        // actually happens.
        let probed = {
            let d = &self.devices[dev.0];
            if !d.ble_on {
                None
            } else {
                match d.ble_slots.iter().find(|(s, _)| *s == slot) {
                    Some((_, s)) if s.gen == gen => {
                        let epoch = omni_wire::PackedStruct::peek_trace(&s.payload)
                            .map_or(0, omni_wire::TraceId::as_u64);
                        Some((s.payload.len(), s.interval, epoch))
                    }
                    _ => None,
                }
            }
        };
        let Some((payload_len, interval, epoch)) = probed else { return };
        if self.faults.is_down(dev) {
            // Keep the slot cadence alive so advertising resumes when the
            // churn window ends.
            self.rearm_pulse(dev, slot, gen, interval);
            return;
        }
        self.energy.pulse(dev, self.cfg.energy.ble_adv_ma, BLE_ADV_PULSE);
        if let Some(o) = self.obs.as_mut() {
            o.ble.tx(payload_len);
            o.cell_tx_counter(self.world.cell_index(dev)).inc();
            o.beacon_interval_us.record(interval.as_micros());
            o.obs.event(
                self.now.as_micros(),
                dev.0 as u32,
                EventKind::BeaconSent { tech: TechType::BleBeacon.label(), epoch },
            );
        }
        // Resolve the whole fan-out through the spatial grid's scanner
        // index once: recipients plus their scan duty, snapshotted before
        // any delivery can mutate device state.
        let mut ids = std::mem::take(&mut self.nbr_buf);
        let mut candidates = std::mem::take(&mut self.adv_buf);
        self.world.scanners_into(dev, self.cfg.range_m(TechType::BleBeacon), &mut ids);
        candidates.clear();
        candidates.extend(ids.iter().map(|&n| {
            (n, self.devices[n.0].ble_scan_duty.expect("the scanner index holds scanners only"))
        }));
        self.nbr_buf = ids;
        self.rearm_pulse(dev, slot, gen, interval);
        if !candidates.is_empty() {
            let d = &self.devices[dev.0];
            let from = d.ble_addr;
            let payload = d
                .ble_slots
                .iter()
                .find(|(s, _)| *s == slot)
                .map(|(_, s)| s.payload.clone())
                .expect("slot checked above");
            let loss = self.cfg.faults.ble_loss;
            for &(to, duty) in &candidates {
                // A duty-cycled scanner only catches the beacon when its
                // scan window overlaps the advertising event.
                if duty >= 1.0 || self.rng.gen_bool(duty) {
                    if !self.faults.link_ok(dev, to, self.now, FaultScope::Ble) {
                        let cause = self.link_drop_cause(dev, to);
                        self.frame_dropped(dev, TechType::BleBeacon, cause, &payload);
                        continue;
                    }
                    if self.faults.lose(loss) {
                        self.frame_dropped(dev, TechType::BleBeacon, "frame-loss", &payload);
                        continue;
                    }
                    if let Some(o) = &self.obs {
                        o.ble.rx(payload.len());
                    }
                    self.deliver(to, NodeEvent::BleBeacon { from, payload: payload.clone() });
                }
            }
        }
        self.adv_buf = candidates;
    }

    fn mcast_done(&mut self, gen: u64) {
        if gen != self.medium.mcast_gen || self.medium.mcast_active.is_none() {
            return;
        }
        self.medium.advance(self.now);
        let (finished, next) = self.medium.finish_mcast();
        let Some(job) = finished else {
            return;
        };
        self.energy.leave(job.sender, self.now, EnergyState::McastTx);
        let cell = self.world.cell_index(job.sender);
        if let Some(o) = self.obs.as_mut() {
            o.mcast.tx(job.payload.len());
            o.cell_tx_counter(cell).inc();
        }
        if let Some(next_job) = next {
            self.start_mcast(next_job);
        }
        self.resched_boundary();
        let sender_on = self.devices[job.sender.0].wifi_on && !self.faults.is_down(job.sender);
        if sender_on {
            self.deliver(job.sender, NodeEvent::McastSendComplete);
        }
        // Re-check: the completion callback may have powered the radio off.
        if self.devices[job.sender.0].wifi_on && !self.faults.is_down(job.sender) {
            let from = self.devices[job.sender.0].mesh_addr;
            let mut recipients = std::mem::take(&mut self.nbr_buf);
            self.world.neighbors_into(
                job.sender,
                self.cfg.range_m(TechType::WifiMulticast),
                &mut recipients,
            );
            recipients.retain(|&n| {
                let d = &self.devices[n.0];
                d.wifi_on && d.wifi_joined && d.wifi_mcast_listen
            });
            recipients.retain(|&n| {
                if self.faults.link_ok(job.sender, n, self.now, FaultScope::Wifi) {
                    return true;
                }
                let cause = self.link_drop_cause(job.sender, n);
                self.frame_dropped(job.sender, TechType::WifiMulticast, cause, &job.payload);
                false
            });
            let loss = self.cfg.faults.mcast_loss;
            for &to in &recipients {
                if self.faults.lose(loss) {
                    self.frame_dropped(
                        job.sender,
                        TechType::WifiMulticast,
                        "frame-loss",
                        &job.payload,
                    );
                    continue;
                }
                if let Some(o) = &self.obs {
                    o.mcast.rx(job.payload.len());
                }
                self.deliver(to, NodeEvent::Multicast { from, payload: job.payload.clone() });
            }
            self.nbr_buf = recipients;
        }
    }

    fn infra_chunk_done(&mut self, dev: DeviceId, gen: u64) {
        let (req, chunk_index, received, done) = {
            let d = &mut self.devices[dev.0];
            if d.infra_gen != gen {
                return;
            }
            let Some(active) = d.infra_active.as_mut() else {
                return;
            };
            let this_chunk = active.chunk.min(active.total - active.received);
            active.received += this_chunk;
            let idx = active.next_chunk_index;
            active.next_chunk_index += 1;
            (active.req, idx, active.received, active.received >= active.total)
        };
        if done {
            let d = &mut self.devices[dev.0];
            d.infra_active = None;
            d.infra_gen += 1;
            self.energy.leave(dev, self.now, EnergyState::InfraRx);
            if let Some((nreq, ntotal, nchunk)) = self.devices[dev.0].infra_queue.pop_front() {
                self.infra_start(dev, nreq, ntotal, nchunk);
            }
        } else {
            let d = &self.devices[dev.0];
            let active = d.infra_active.as_ref().expect("active request");
            let next = active.chunk.min(active.total - active.received);
            let delay = SimDuration::from_secs_f64(next as f64 / d.infra_rate_bps);
            self.schedule(delay, Engine::InfraChunkDone { dev, gen });
        }
        self.deliver(
            dev,
            NodeEvent::InfraChunk { req, chunk: chunk_index, received_bytes: received, done },
        );
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;

    /// What the churn stacks believe is armed, shared with the test body:
    /// `(device, token)` → the instant the latest arming is due.
    type Armed = Rc<RefCell<HashMap<(usize, u64), SimTime>>>;

    /// Sets, re-arms and cancels timers from a seeded script on every event,
    /// checking that each firing is the latest arming of its token, due now.
    struct TimerChurn {
        dev: usize,
        state: u64,
        armed: Armed,
        fired: Rc<RefCell<u64>>,
        /// Armings and cancellations that left a pending event stale.
        superseded: Rc<RefCell<u64>>,
    }

    impl TimerChurn {
        fn draw(&mut self, below: u64) -> u64 {
            self.state = self.state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (self.state >> 33) % below
        }

        fn arm(&mut self, token: u64, api: &mut NodeApi<'_>) {
            let delay = SimDuration::from_millis(1 + self.draw(400));
            api.set_timer(token, delay);
            if self.armed.borrow_mut().insert((self.dev, token), api.now + delay).is_some() {
                *self.superseded.borrow_mut() += 1;
            }
        }
    }

    impl Stack for TimerChurn {
        fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
            match event {
                NodeEvent::Start => {
                    for token in 0..16 {
                        self.arm(token, api);
                    }
                }
                NodeEvent::Timer { token } => {
                    let due = self.armed.borrow_mut().remove(&(self.dev, token));
                    assert_eq!(due, Some(api.now), "a stale or cancelled timer fired");
                    *self.fired.borrow_mut() += 1;
                    // Re-arm this token (usually), re-arm another armed one
                    // over its pending event, and cancel a third.
                    if self.draw(4) != 0 {
                        self.arm(token, api);
                    }
                    let other = self.draw(16);
                    if self.draw(2) == 0 {
                        self.arm(other, api);
                    }
                    let victim = self.draw(16);
                    if self.draw(3) == 0 {
                        api.cancel_timer(victim);
                        if self.armed.borrow_mut().remove(&(self.dev, victim)).is_some() {
                            *self.superseded.borrow_mut() += 1;
                        }
                    }
                    // Keep a population alive so the churn never dies out.
                    if self.armed.borrow().keys().filter(|&&(d, _)| d == self.dev).count() < 8 {
                        self.arm(other, api);
                    }
                }
                _ => {}
            }
        }
    }

    /// Advertises one slot every 500 ms and does nothing else.
    struct Advertiser;

    impl Stack for Advertiser {
        fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
            if matches!(event, NodeEvent::Start) {
                api.push(Command::BleAdvertiseSet {
                    slot: 0,
                    payload: Bytes::from_static(b"adv"),
                    interval: SimDuration::from_millis(500),
                });
            }
        }
    }

    #[test]
    fn heap_capacity_drops_once_the_build_burst_has_drained() {
        let mut sim = Runner::new(SimConfig::default());
        for i in 0..10_000 {
            let dev = sim.add_device(DeviceCaps::BEACON, Position::new(40.0 * i as f64, 0.0));
            sim.set_stack(dev, Box::new(Advertiser));
        }
        // One start event per device, all in the heap.
        assert_eq!(sim.queue.len(), 10_000);
        let burst = sim.queue.heap_capacity();
        assert!(burst >= 10_000, "burst capacity {burst}");
        // Starts become jittered first pulses (heap), and those re-arm into
        // the 500 ms lane; within two rounds the heap has drained.
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.queue.len(), 10_000, "one pending pulse per device");
        assert!(format!("{sim:?}").contains("pending_events: 10000"), "Debug counts lane pulses");
        let drained = sim.queue.heap_capacity();
        assert!(drained <= burst / 8, "heap kept {drained} of {burst} slots");
        // Steady state: pulses cycle through the lane and the heap neither
        // grows nor shrinks again.
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.queue.heap_capacity(), drained);
    }

    #[test]
    fn timer_map_holds_only_live_timers_and_stale_generations_never_fire() {
        let mut sim = Runner::new(SimConfig::default());
        let armed: Armed = Rc::default();
        let fired = Rc::new(RefCell::new(0));
        let superseded = Rc::new(RefCell::new(0));
        for i in 0..4 {
            let dev = sim.add_device(DeviceCaps::PI, Position::new(10.0 * i as f64, 0.0));
            let stack = TimerChurn {
                dev: dev.0,
                state: 0x5EED + i as u64,
                armed: Rc::clone(&armed),
                fired: Rc::clone(&fired),
                superseded: Rc::clone(&superseded),
            };
            sim.set_stack(dev, Box::new(stack));
        }
        for step in 1..=400 {
            sim.run_until(SimTime::from_millis(50 * step));
            assert_eq!(sim.timer_gens.len(), armed.borrow().len(), "entries vs live timers");
        }
        // Thousands of set/fire/cancel cycles ran, hundreds of them leaving
        // a stale event behind; the map never grew past the 64 token slots
        // the fleet uses.
        assert!(*fired.borrow() > 2_000, "fired {}", fired.borrow());
        assert!(*superseded.borrow() > 500, "superseded {}", superseded.borrow());
        assert!(sim.timer_gens.len() <= 64);
    }
}
