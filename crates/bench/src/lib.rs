//! Experiment harness for the Omni reproduction: drivers that regenerate
//! every table and figure of the paper's evaluation (see `DESIGN.md` §4 for
//! the experiment index), the stub beacon fleet the simulator benches share,
//! and the result-table formatter the binaries use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod fleet;
pub mod interaction;
pub mod report;

/// End-of-run observability guard shared by every bench binary.
///
/// Owns the binary's [`Obs`](omni_obs::Obs) handle and, on drop, prints the
/// standard snapshot block and writes `target/obs/<name>.json` exactly once —
/// regardless of which exit path the binary takes.  Derefs to `Obs`, so
/// counters, digests, and `&*run` borrows work unchanged.
pub struct ObsRun {
    name: &'static str,
    obs: omni_obs::Obs,
}

impl ObsRun {
    /// A guard with the default event-ring capacity.
    pub fn new(name: &'static str) -> Self {
        ObsRun { name, obs: omni_obs::Obs::new() }
    }

    /// A guard sized for `capacity` events, for fleet-scale runs whose event
    /// stream outgrows the default ring.
    pub fn with_event_capacity(name: &'static str, capacity: usize) -> Self {
        ObsRun { name, obs: omni_obs::Obs::with_event_capacity(capacity) }
    }
}

impl std::ops::Deref for ObsRun {
    type Target = omni_obs::Obs;

    fn deref(&self) -> &omni_obs::Obs {
        &self.obs
    }
}

impl Drop for ObsRun {
    fn drop(&mut self) {
        report::emit_obs(self.name, &self.obs);
    }
}
