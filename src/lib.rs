//! # Omni — seamless device-to-device interaction, reproduced in Rust
//!
//! This facade crate re-exports the whole workspace reproducing
//! Kalbarczyk & Julien, *"Omni: An Application Framework for Seamless
//! Device-to-Device Interaction in the Wild"* (Middleware '18):
//!
//! * [`core`] — the Omni middleware: Developer API, Communication Technology
//!   API, and the Omni Manager (peer mapping, address beacons, engagement,
//!   data technology selection, failure fallback).
//! * [`sim`] — the deterministic discrete-event D2D radio substrate (BLE,
//!   WiFi-Mesh, NFC, infrastructure links, energy accounting).
//! * [`wire`] — wire types: `omni_address`, the `omni_packed_struct` codec,
//!   status codes.
//! * [`baselines`] — the State-of-the-Practice and State-of-the-Art systems
//!   the paper compares against.
//! * [`apps`] — the evaluation applications: Disseminate-like media sharing,
//!   the PRoPHET DTN router, and the smart-city tourism scenario.
//! * [`obs`] — the dependency-free observability layer: atomic metrics,
//!   quantile digests, and the structured event stream every other layer
//!   reports into.
//!
//! Start with the [`quickstart` example](https://example.invalid/omni), or:
//!
//! ```
//! use bytes::Bytes;
//! use omni::core::{ContextParams, OmniBuilder, OmniStack};
//! use omni::sim::{DeviceCaps, Position, Runner, SimConfig, SimTime};
//!
//! let mut sim = Runner::new(SimConfig::default());
//! let tourist = sim.add_device(DeviceCaps::PHONE, Position::new(0.0, 0.0));
//! let beacon = sim.add_device(DeviceCaps::BEACON, Position::new(10.0, 0.0));
//!
//! let mgr = OmniBuilder::new().with_caps(DeviceCaps::PHONE).build(&sim, tourist);
//! sim.set_stack(
//!     tourist,
//!     Box::new(OmniStack::new(mgr, |omni| {
//!         omni.request_context(Box::new(|source, context, _| {
//!             println!("heard {context:?} from {source}");
//!         }));
//!     })),
//! );
//! let mgr = OmniBuilder::new().with_ble().build(&sim, beacon);
//! sim.set_stack(
//!     beacon,
//!     Box::new(OmniStack::new(mgr, |omni| {
//!         omni.add_context(
//!             ContextParams::default(),
//!             Bytes::from_static(b"svc:museum"),
//!             Box::new(|_, _, _| {}),
//!         );
//!     })),
//! );
//! sim.run_until(SimTime::from_secs(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use omni_apps as apps;
pub use omni_baselines as baselines;
pub use omni_core as core;
pub use omni_obs as obs;
pub use omni_sim as sim;
pub use omni_wire as wire;
