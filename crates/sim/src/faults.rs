//! Deterministic fault injection: frame loss, latency jitter, timed link
//! partitions, and node churn.
//!
//! The paper evaluates Omni "in the wild" — lossy BLE advertisements, flaky
//! mesh links, peers that vanish mid-transfer. This module turns the
//! otherwise perfect simulator into that world while keeping it bit-identical
//! across runs: every probabilistic decision draws from a dedicated
//! [`rand::rngs::SmallRng`] derived from the simulation seed, and a
//! [`FaultConfig::default()`] (all faults off) never draws at all, so
//! fault-free runs reproduce the exact event sequence of a build without this
//! module.
//!
//! Injection points live in `runner.rs`:
//!
//! * **Frame loss** — each BLE beacon/one-shot and multicast datagram is
//!   dropped per-recipient with the configured probability; TCP loss is
//!   modeled as connection-establishment failure (the fluid-flow model has
//!   no per-frame granularity). NFC exchanges are not lost: a touch either
//!   happens or, under a partition or churn, does not.
//! * **Latency jitter** — BLE one-shot deliveries gain a uniformly drawn
//!   extra delay in `[0, ble_jitter]`.
//! * **Link partitions** — a [`LinkPartition`] makes a node pair mutually
//!   unreachable for a time window, optionally scoped to one medium; open
//!   TCP connections between the pair are torn down when the window starts.
//! * **Node churn** — a [`ChurnWindow`] mutes every radio of a node (frames
//!   neither sent nor received, in-flight flows flushed through the medium's
//!   `remove_conn`/`remove_device` paths) and restores them at the end of
//!   the window; the node's software keeps running, like a radio power cycle.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::node::DeviceId;
use crate::time::{SimDuration, SimTime};

/// Mixed into the simulation seed so the fault RNG never shares a stream
/// with the runner's protocol RNG (BLE interval jitter, scan duty draws).
const FAULT_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Which medium a [`LinkPartition`] severs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FaultScope {
    /// Every medium between the pair (the default).
    #[default]
    All,
    /// Only the WiFi-Mesh medium (TCP + multicast + scan visibility).
    Wifi,
    /// Only BLE (beacons and one-shots).
    Ble,
    /// Only NFC.
    Nfc,
}

impl FaultScope {
    /// Whether a partition with this scope severs the given medium.
    pub fn covers(self, medium: FaultScope) -> bool {
        self == FaultScope::All || self == medium
    }
}

/// A timed, bidirectional reachability cut between two devices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkPartition {
    /// First endpoint (index of the device, `DeviceId.0`).
    pub a: usize,
    /// Second endpoint.
    pub b: usize,
    /// When the cut starts.
    pub from: SimTime,
    /// When the cut heals.
    pub until: SimTime,
    /// Which medium is cut.
    pub scope: FaultScope,
}

impl LinkPartition {
    /// An all-media partition between `a` and `b` over `[from, until)`.
    pub fn new(a: usize, b: usize, from: SimTime, until: SimTime) -> Self {
        LinkPartition { a, b, from, until, scope: FaultScope::All }
    }

    /// Restricts the partition to one medium.
    pub fn scoped(mut self, scope: FaultScope) -> Self {
        self.scope = scope;
        self
    }

    fn severs(&self, x: DeviceId, y: DeviceId, now: SimTime, medium: FaultScope) -> bool {
        let pair = (self.a == x.0 && self.b == y.0) || (self.a == y.0 && self.b == x.0);
        pair && now >= self.from && now < self.until && self.scope.covers(medium)
    }
}

/// A down/reboot window for one device: all radios muted from `down_at`
/// until `up_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnWindow {
    /// The device (index, `DeviceId.0`).
    pub dev: usize,
    /// When the node goes down.
    pub down_at: SimTime,
    /// When the node reboots.
    pub up_at: SimTime,
}

/// Fault-injection knobs. The default disables everything, which is
/// guaranteed not to perturb a run in any way (no RNG draws, no extra
/// events).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Per-frame loss probability for BLE beacons and one-shots, applied
    /// independently per recipient.
    pub ble_loss: f64,
    /// Per-datagram, per-recipient loss probability for WiFi multicast.
    pub mcast_loss: f64,
    /// Probability that a TCP connection attempt fails even though the peer
    /// is reachable (the fluid-flow unicast model has no per-frame loss).
    pub tcp_connect_loss: f64,
    /// Maximum extra latency added to each BLE one-shot delivery, drawn
    /// uniformly from `[0, ble_jitter]`.
    pub ble_jitter: SimDuration,
    /// Timed link partitions.
    pub partitions: Vec<LinkPartition>,
    /// Node down/reboot windows.
    pub churn: Vec<ChurnWindow>,
}

/// Runtime fault state owned by the runner: the dedicated RNG, the current
/// churn status of every device and a per-device index of the configured
/// partitions. Drops are counted by the runner, under their cause.
///
/// **Determinism.** There is exactly ONE fault RNG stream, seeded
/// `seed ^ FAULT_SEED_SALT`, and it is only ever drawn from the runner's
/// event loop, in global `(time, seq)` event order. That is what keeps the
/// draw sequence (and hence every loss/jitter decision) byte-identical
/// across same-seed runs. `draws` counts every draw so determinism tests
/// can assert exactly that.
#[derive(Debug)]
pub(crate) struct FaultState {
    cfg: FaultConfig,
    rng: SmallRng,
    down: Vec<bool>,
    /// Device index → positions in `cfg.partitions` of the partitions that
    /// name it as an endpoint. `link_ok` runs for every frame a device
    /// hears, so it scans only the few partitions that can involve the pair
    /// instead of the whole list.
    partitions_of: Vec<Vec<usize>>,
    /// Total RNG draws (loss + jitter), for determinism assertions.
    pub draws: u64,
}

impl FaultState {
    pub fn new(seed: u64, cfg: FaultConfig) -> Self {
        let mut partitions_of: Vec<Vec<usize>> = Vec::new();
        for (i, p) in cfg.partitions.iter().enumerate() {
            let hi = p.a.max(p.b);
            if partitions_of.len() <= hi {
                partitions_of.resize_with(hi + 1, Vec::new);
            }
            partitions_of[p.a].push(i);
            if p.b != p.a {
                partitions_of[p.b].push(i);
            }
        }
        FaultState {
            cfg,
            rng: SmallRng::seed_from_u64(seed ^ FAULT_SEED_SALT),
            down: Vec::new(),
            partitions_of,
            draws: 0,
        }
    }

    /// Draws a loss decision. Never touches the RNG when `p` is zero, so a
    /// fault-free configuration leaves the stream untouched.
    pub fn lose(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        self.draws += 1;
        self.rng.gen_bool(p.min(1.0))
    }

    /// Extra one-shot delivery latency in `[0, max]` (zero draw-free).
    pub fn jitter(&mut self, max: SimDuration) -> SimDuration {
        if max.is_zero() {
            return SimDuration::ZERO;
        }
        self.draws += 1;
        SimDuration::from_micros(self.rng.gen_range(0..=max.as_micros()))
    }

    /// Whether a partition currently severs `medium` between the pair.
    /// Every partition of the pair names both devices, so scanning the
    /// shorter of the two per-device lists is exact.
    pub fn partitioned(&self, a: DeviceId, b: DeviceId, now: SimTime, medium: FaultScope) -> bool {
        let of = |d: DeviceId| self.partitions_of.get(d.0).map_or(&[][..], Vec::as_slice);
        let (la, lb) = (of(a), of(b));
        let list = if la.len() <= lb.len() { la } else { lb };
        list.iter().any(|&i| self.cfg.partitions[i].severs(a, b, now, medium))
    }

    /// Whether the device is inside a churn down-window.
    pub fn is_down(&self, dev: DeviceId) -> bool {
        self.down.get(dev.0).copied().unwrap_or(false)
    }

    pub fn set_down(&mut self, dev: DeviceId, down: bool) {
        if self.down.len() <= dev.0 {
            self.down.resize(dev.0 + 1, false);
        }
        self.down[dev.0] = down;
    }

    /// Combined reachability check for a frame from `a` to `b` over
    /// `medium`: both radios up and no partition in force.
    pub fn link_ok(&self, a: DeviceId, b: DeviceId, now: SimTime, medium: FaultScope) -> bool {
        !self.is_down(a) && !self.is_down(b) && !self.partitioned(a, b, now, medium)
    }

    /// Number of devices currently inside a churn down-window.
    pub fn down_count(&self) -> usize {
        self.down.iter().filter(|&&d| d).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inert() {
        let mut s = FaultState::new(7, FaultConfig::default());
        // No draws, no drops, nothing down.
        assert!(!s.lose(0.0));
        assert_eq!(s.jitter(SimDuration::ZERO), SimDuration::ZERO);
        assert_eq!(s.draws, 0);
        assert!(s.link_ok(DeviceId(0), DeviceId(1), SimTime::from_secs(1), FaultScope::Ble));
    }

    #[test]
    fn loss_sequence_is_seed_deterministic() {
        let draw = |seed| {
            let mut s = FaultState::new(seed, FaultConfig { ble_loss: 0.5, ..Default::default() });
            (0..64).map(|_| s.lose(0.5)).collect::<Vec<bool>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2), "different seeds diverge");
    }

    #[test]
    fn partitions_are_symmetric_timed_and_scoped() {
        let p = LinkPartition::new(0, 1, SimTime::from_secs(5), SimTime::from_secs(8))
            .scoped(FaultScope::Wifi);
        let s = FaultState::new(0, FaultConfig { partitions: vec![p], ..Default::default() });
        let (a, b) = (DeviceId(0), DeviceId(1));
        let mid = SimTime::from_secs(6);
        assert!(s.partitioned(a, b, mid, FaultScope::Wifi));
        assert!(s.partitioned(b, a, mid, FaultScope::Wifi), "symmetric");
        assert!(!s.partitioned(a, b, mid, FaultScope::Ble), "scoped to wifi");
        assert!(!s.partitioned(a, b, SimTime::from_secs(4), FaultScope::Wifi), "before");
        assert!(!s.partitioned(a, b, SimTime::from_secs(8), FaultScope::Wifi), "healed");
        assert!(!s.partitioned(a, DeviceId(2), mid, FaultScope::Wifi), "other pair");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The per-device index answers exactly what a linear scan of every
        /// configured partition answers, over random windows, scopes, pairs
        /// (including self-pairs and devices no partition names) and times.
        #[test]
        fn partition_index_matches_the_linear_oracle(
            cuts in proptest::collection::vec(
                (0usize..12, 0usize..12, 0u64..20, 0u64..20, 0u8..4),
                0..24,
            ),
            probes in proptest::collection::vec(
                (0usize..16, 0usize..16, 0u64..22, 0u8..4),
                1..64,
            ),
        ) {
            let scope = |k: u8| match k {
                0 => FaultScope::All,
                1 => FaultScope::Wifi,
                2 => FaultScope::Ble,
                _ => FaultScope::Nfc,
            };
            let partitions: Vec<LinkPartition> = cuts
                .iter()
                .map(|&(a, b, from, len, k)| {
                    LinkPartition::new(a, b, SimTime::from_secs(from), SimTime::from_secs(from + len))
                        .scoped(scope(k))
                })
                .collect();
            let s = FaultState::new(
                0,
                FaultConfig { partitions: partitions.clone(), ..Default::default() },
            );
            for &(x, y, at, k) in &probes {
                let (x, y, now, medium) = (DeviceId(x), DeviceId(y), SimTime::from_secs(at), scope(k));
                let oracle = partitions.iter().any(|p| p.severs(x, y, now, medium));
                proptest::prop_assert_eq!(s.partitioned(x, y, now, medium), oracle);
            }
        }
    }

    #[test]
    fn churn_flags_toggle() {
        let mut s = FaultState::new(0, FaultConfig::default());
        assert!(!s.is_down(DeviceId(3)));
        s.set_down(DeviceId(3), true);
        assert!(s.is_down(DeviceId(3)));
        assert!(!s.link_ok(DeviceId(0), DeviceId(3), SimTime::ZERO, FaultScope::All));
        s.set_down(DeviceId(3), false);
        assert!(s.link_ok(DeviceId(0), DeviceId(3), SimTime::ZERO, FaultScope::All));
    }

    #[test]
    fn jitter_is_bounded() {
        let mut s = FaultState::new(9, FaultConfig::default());
        let max = SimDuration::from_millis(10);
        for _ in 0..128 {
            assert!(s.jitter(max) <= max);
        }
    }
}
