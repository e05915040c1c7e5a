//! A deterministic discrete-event simulator for device-to-device radios.
//!
//! This crate is the hardware substitute for the Omni reproduction (the paper
//! evaluates on a Raspberry Pi testbed with real BLE and WiFi-Mesh radios; see
//! `DESIGN.md` §2). It models:
//!
//! * **BLE** — periodic advertising slots, duty-cycled scanning, and one-shot
//!   advertisement bursts with a calibrated rendezvous latency.
//! * **WiFi-Mesh** — network scan and join operations with their (expensive)
//!   latencies, unicast TCP with processor-sharing bandwidth, and multicast
//!   UDP that occupies the channel exclusively, starving concurrent unicast
//!   flows (the paper's "multicast impediment").
//! * **NFC** — touch-range payload exchange.
//! * **Infrastructure links** — per-device rate-limited downloads (the mock
//!   infrastructure network of the Disseminate experiment, §4.3).
//! * **Energy** — a per-device current integrator using the paper's Table 3
//!   draws, reporting the same average-mA statistic the paper measures with a
//!   USB power meter.
//!
//! Protocol stacks implement [`Stack`] and interact with their device purely
//! through [`NodeEvent`]s and [`Command`]s, which keeps the middleware crates
//! (`omni-core`, `omni-baselines`) independent of the engine internals.
//!
//! # Example
//!
//! ```
//! use omni_sim::{
//!     Command, DeviceCaps, NodeApi, NodeEvent, Position, Runner, SimConfig, SimDuration,
//!     SimTime, Stack,
//! };
//!
//! /// Advertises a greeting; remembers what it heard.
//! struct Hello(Vec<Vec<u8>>);
//!
//! impl Stack for Hello {
//!     fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
//!         match event {
//!             NodeEvent::Start => {
//!                 api.push(Command::BleSetScan { duty: Some(1.0) });
//!                 api.push(Command::BleAdvertiseSet {
//!                     slot: 0,
//!                     payload: bytes::Bytes::from_static(b"hi"),
//!                     interval: SimDuration::from_millis(500),
//!                 });
//!             }
//!             NodeEvent::BleBeacon { payload, .. } => self.0.push(payload.to_vec()),
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let mut sim = Runner::new(SimConfig::default());
//! let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
//! let b = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
//! sim.set_stack(a, Box::new(Hello(Vec::new())));
//! sim.set_stack(b, Box::new(Hello(Vec::new())));
//! sim.run_until(SimTime::from_secs(5));
//! // Both devices heard each other's beacons within five seconds.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod energy;
mod faults;
mod health;
mod medium;
mod node;
mod queue;
mod recorder;
mod runner;
mod telemetry;
mod time;
mod world;

pub use config::{
    mcast_airtime, EnergyParams, SimConfig, BLE_ADV_PULSE, BLE_MAX_PAYLOAD, BLE_ONESHOT_LATENCY,
    BLE_ONESHOT_PULSE, BLE_RANGE_M, MCAST_FIXED_AIRTIME, MCAST_RATE_BPS, NFC_MAX_PAYLOAD,
    NFC_RANGE_M, NFC_TOUCH_LATENCY, TCP_CONNECT_TIME, TCP_OVERHEAD_BYTES, WIFI_CAPACITY_BPS,
    WIFI_JOIN_TIME, WIFI_RANGE_M, WIFI_SCAN_TIME,
};
pub use energy::{EnergyLedger, EnergyState};
pub use faults::{ChurnWindow, FaultConfig, FaultScope, LinkPartition};
pub use health::{HealthEvent, HealthMonitor, HealthState, WindowStats};
pub use node::{Command, ConnId, DeviceId, NodeApi, NodeEvent, Stack, TcpError};
pub use recorder::{FlightRecorder, TraceOutcome, TraceTimeline};
pub use runner::{DeviceCaps, Runner};
pub use telemetry::{Sampler, SAMPLE_EVERY, SERIES_CAPACITY};
pub use time::{SimDuration, SimTime};
pub use world::{CellHasher, Position, World, DEFAULT_CELL_M};
