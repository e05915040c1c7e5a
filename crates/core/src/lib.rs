//! The Omni middleware: seamless device-to-device interaction in the wild.
//!
//! This crate implements the primary contribution of Kalbarczyk & Julien,
//! *"Omni: An Application Framework for Seamless Device-to-Device Interaction
//! in the Wild"* (Middleware '18):
//!
//! * the **Developer API** (paper Table 1) — [`OmniCtl`] with `add_context` /
//!   `update_context` / `remove_context` / `send_data` / `request_context` /
//!   `request_data`, and the status-callback codes of Table 2;
//! * the **Communication Technology API** (paper §3.2) — [`D2dTechnology`]
//!   integrating pluggable radios through three shared queues;
//! * the **Omni Manager** (paper §3.3) — [`OmniManager`], which owns the peer
//!   and context mappings, sends the 500 ms address beacon on the cheapest
//!   context technology, runs the multi-technology engagement algorithm,
//!   selects data technologies by minimum expected delivery time, and
//!   replays failed requests on alternative technologies.
//!
//! The crate's central idea, straight from the paper: applications declare
//! *what* they communicate — lightweight periodic **context** versus
//! heavyweight directed **data** — and the middleware picks *how*:
//! low-energy connectionless beacons for the former, high-throughput
//! connections (formed on demand, from addresses learned during neighbor
//! discovery) for the latter.
//!
//! # Quickstart
//!
//! ```no_run
//! use bytes::Bytes;
//! use omni_core::{ContextParams, OmniBuilder, OmniStack};
//! use omni_sim::{DeviceCaps, Position, Runner, SimConfig, SimTime};
//!
//! let mut sim = Runner::new(SimConfig::default());
//! let dev = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
//! let manager = OmniBuilder::new().with_ble().with_wifi().build(&sim, dev);
//! sim.set_stack(
//!     dev,
//!     Box::new(OmniStack::new(manager, |omni| {
//!         // Advertise a service and listen for peers' context.
//!         omni.add_context(
//!             ContextParams::default(),
//!             Bytes::from_static(b"service:tour-audio"),
//!             Box::new(|code, info, _| println!("{code}: {info}")),
//!         );
//!         omni.request_context(Box::new(|source, context, _omni| {
//!             println!("context from {source}: {context:?}");
//!         }));
//!     })),
//! );
//! sim.run_until(SimTime::from_secs(60));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod config;
mod control;
mod manager;
mod peers;
mod queues;
pub mod relay;
pub mod security;
mod selection;
mod stack;
mod tech;
pub mod techs;

pub use api::{
    ApiCall, ContextCallback, ContextParams, DataCallback, InfraCallback, OmniCtl, StatusCallback,
    TimerCallback,
};
pub use config::{AdaptiveBeacon, OmniConfig, RetryPolicy};
pub use control::ControlFrame;
pub use manager::{OmniManager, ADDRESS_BEACON_CONTEXT_ID};
pub use peers::{PeerMap, PeerRecord, PEER_TTL};
pub use queues::{
    LowAddr, ReceivedItem, ResponseOk, SendOp, SendRequest, SharedQueue, TechFailure, TechQueues,
    TechResponse,
};
pub use relay::{ProphetRouter, ProphetTable, RelayPolicy, RelayStrategy, SeenSet};
pub use security::{ContextCipher, GroupKey};
pub use selection::{candidates, Candidate};
pub use stack::{OmniBuilder, OmniStack};
pub use tech::D2dTechnology;
