//! Glue between the Omni middleware and the simulation substrate, plus a
//! builder assembling the standard technology set for a simulated device.

use omni_sim::{DeviceCaps, DeviceId, NodeApi, NodeEvent, Runner, Stack};
use omni_wire::OmniAddress;

use crate::api::OmniCtl;
use crate::config::OmniConfig;
use crate::manager::OmniManager;
use crate::techs::{BleBeaconTech, NfcTech, WifiMulticastTech, WifiTcpTech};

/// A device stack running the Omni middleware and one application.
///
/// The application is expressed as an initialization closure that receives
/// an [`OmniCtl`] — it registers its receive callbacks (`request_context`,
/// `request_data`) and issues its first API calls there, exactly like an app
/// booting against the paper's `OmniManager` singleton.
pub struct OmniStack {
    manager: OmniManager,
    #[allow(clippy::type_complexity)]
    init: Option<Box<dyn FnOnce(&mut OmniCtl)>>,
}

impl OmniStack {
    /// Wraps a manager and an application initializer.
    pub fn new(manager: OmniManager, init: impl FnOnce(&mut OmniCtl) + 'static) -> Self {
        OmniStack { manager, init: Some(Box::new(init)) }
    }

    /// Read access to the manager (tests inspect peers/engagement).
    pub fn manager(&self) -> &OmniManager {
        &self.manager
    }
}

impl Stack for OmniStack {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        match event {
            NodeEvent::Start => {
                self.manager.start(api);
                if let Some(init) = self.init.take() {
                    let mut ctl = OmniCtl::at(api.now);
                    init(&mut ctl);
                    self.manager.queue_calls(ctl);
                }
                self.manager.pump(api);
            }
            mut other => self.manager.handle_event(&mut other, api),
        }
    }
}

/// Builds an [`OmniManager`] wired to a simulated device's radios.
///
/// # Example
///
/// ```no_run
/// use omni_core::OmniBuilder;
/// use omni_sim::{DeviceCaps, Position, Runner, SimConfig};
///
/// let mut sim = Runner::new(SimConfig::default());
/// let dev = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
/// let manager = OmniBuilder::new().with_ble().with_wifi().build(&sim, dev);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OmniBuilder {
    cfg: OmniConfig,
    ble: bool,
    wifi: bool,
    nfc: bool,
}

impl OmniBuilder {
    /// Starts a builder with no technologies selected.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables the BLE beacon technology.
    pub fn with_ble(mut self) -> Self {
        self.ble = true;
        self
    }

    /// Enables both WiFi technologies (multicast context + unicast TCP
    /// data).
    pub fn with_wifi(mut self) -> Self {
        self.wifi = true;
        self
    }

    /// Enables NFC.
    pub fn with_nfc(mut self) -> Self {
        self.nfc = true;
        self
    }

    /// Enables every technology the device's hardware supports.
    pub fn with_caps(mut self, caps: DeviceCaps) -> Self {
        self.ble |= caps.ble;
        self.wifi |= caps.wifi;
        self.nfc |= caps.nfc;
        self
    }

    /// Overrides the middleware configuration.
    pub fn with_config(mut self, cfg: OmniConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Attaches an observability handle: the built manager exports metrics
    /// and structured events to `obs`, instruments its shared queues, and
    /// hands the handle to every technology. Share one handle across devices
    /// (and the [`omni_sim::Runner`] via `set_obs`) to get a fleet-wide
    /// snapshot.
    pub fn with_obs(mut self, obs: &omni_obs::Obs) -> Self {
        self.cfg.obs = Some(obs.clone());
        self
    }

    /// The `omni_address` the built manager will use for `dev` (a hash of
    /// the device's interface MACs, paper §3.3).
    pub fn omni_address(runner: &Runner, dev: DeviceId) -> OmniAddress {
        OmniAddress::from_interface_macs(runner.macs(dev))
    }

    /// Assembles the manager for a device.
    ///
    /// # Panics
    ///
    /// Panics if no technology was selected.
    pub fn build(&self, runner: &Runner, dev: DeviceId) -> OmniManager {
        assert!(self.ble || self.wifi || self.nfc, "select at least one technology");
        let own = Self::omni_address(runner, dev);
        let mut techs: Vec<Box<dyn crate::tech::D2dTechnology>> = Vec::new();
        if self.ble {
            techs.push(Box::new(
                BleBeaconTech::new(own, runner.ble_addr(dev))
                    .with_link_acks(self.cfg.retry.enabled()),
            ));
        }
        if self.wifi {
            techs.push(Box::new(WifiMulticastTech::new(own, runner.mesh_addr(dev))));
            techs.push(Box::new(WifiTcpTech::new(own, runner.mesh_addr(dev))));
        }
        if self.nfc {
            techs.push(Box::new(NfcTech::new(own, runner.nfc_addr(dev))));
        }
        OmniManager::new(own, self.cfg.clone(), techs)
    }
}
