//! Omni middleware configuration.

use omni_sim::{SimConfig, SimDuration};

/// Manager-level configuration.
#[derive(Debug, Clone)]
pub struct OmniConfig {
    /// Address beacon interval. "For simplicity we have fixed the interval
    /// for this beacon to be every 500 ms" (paper §3.3).
    pub beacon_interval: SimDuration,
    /// How often the manager re-evaluates the multi-technology beacon
    /// engagement algorithm ("at a much lower frequency", paper §3.3).
    pub engagement_check: SimDuration,
    /// How long a peer-mapping record stays fresh without new transmissions.
    pub peer_ttl: SimDuration,
    /// Link characteristics used by the data technology selection
    /// ("Omni considers the expected throughput of the radio, the size of the
    /// data, and the time needed to form a connection", paper §3.3).
    pub timings: LinkTimings,
    /// **Ablation / State-of-the-Art switch.** When true, discovery beacons
    /// and context packs are transmitted on *all* context technologies from
    /// the start instead of only the cheapest with on-demand engagement —
    /// the behavior of multi-network middleware like ubiSOAP ("applications
    /// and services advertise and discover using all of the available
    /// communication technologies", paper §2.3).
    pub advertise_on_all_techs: bool,
    /// **Ablation / State-of-the-Art switch.** When false, mesh addresses
    /// carried in address beacons over low-level neighbor discovery are
    /// *not* treated as directly connectable — data over WiFi always pays
    /// the scan/join/resolve establishment, as middleware that does not
    /// integrate neighbor discovery must (paper §2.3, §4.2).
    pub integrate_low_level_nd: bool,
    /// Optional restriction of data transfers to the listed technologies
    /// (used by the controlled comparison to pin the data technology of a
    /// table row). `None` = all enabled technologies compete.
    pub data_techs: Option<Vec<omni_wire::TechType>>,
    /// Symmetric group key for context-beacon encryption (paper §3.4),
    /// provisioned out of band. When set, outgoing context packs and address
    /// beacons are sealed; incoming ones that fail authentication are
    /// dropped before reaching any application.
    pub context_key: Option<crate::security::GroupKey>,
    /// Multi-hop context relay (paper §5 future work, BLE-Mesh style
    /// flooding): when ≥ 1, this node rebroadcasts context packs it hears,
    /// granting them that many further hops. 0 disables relaying.
    pub relay_ttl: u8,
    /// Adaptive address-beacon frequency (paper §3.1 future considerations,
    /// in the spirit of eDiscovery): beacon fast while the neighborhood is
    /// changing, decay toward `max` when it is stable.
    pub adaptive_beacon: Option<AdaptiveBeacon>,
    /// Observability handle. When set, the manager exports peer-map /
    /// context gauges, engagement and data counters, and structured events;
    /// the three shared queues are instrumented (depth, wait, drops); and
    /// each technology's failures count into `tech.<label>.failures`
    /// through its port ([`TechQueues::fail`](crate::TechQueues::fail)).
    pub obs: Option<omni_obs::Obs>,
    /// Optional bound on the receive queue and each technology's send
    /// queue. When `Some(n)`, each holds at most `n` items and evicts the
    /// oldest to admit a new one (drops are counted, and surface as
    /// `queue.*.dropped` metrics plus `QueueDropped` events when `obs` is
    /// set); an evicted send reports a failure to its caller. The response
    /// queue is never bounded, so no status callback is lost. `None` keeps
    /// the historical unbounded behavior.
    pub queue_capacity: Option<usize>,
    /// Reliable data path policy: ack deadlines, bounded retries with
    /// exponential backoff, and failover across the peer's technologies.
    /// The default ([`RetryPolicy::off`], `max_attempts == 1`) preserves the
    /// classic fire-and-forget behavior exactly: no deadline timers, no BLE
    /// link-layer acks, and the single-pass fallback chain.
    pub retry: RetryPolicy,
    /// Opt-in multi-hop relay (store-carry-forward, DESIGN.md §5h). The
    /// default ([`crate::RelayPolicy::off`]) keeps single-hop semantics and
    /// the pre-relay wire format exactly; any other strategy stamps origin
    /// sends with a TTL'd relay header, takes bounded custody of frames
    /// addressed elsewhere, and re-offers them to fresh peers under the
    /// configured forwarding strategy (epidemic, PRoPHET, spray-and-wait).
    pub relay: crate::relay::RelayPolicy,
}

/// Policy for the reliable data path (retry/backoff/failover).
///
/// A send attempt walks the candidate technologies for the destination in
/// cheapest-first order. Every per-technology try is guarded by an ack
/// deadline (`candidate.expected + ack_deadline`); a failure or deadline
/// expiry moves on to the next engaged technology, and when the whole
/// candidate list is exhausted the manager waits out an exponential backoff
/// and re-enumerates, up to `max_attempts` passes. Only then does the send
/// fail terminally, with [`omni_wire::ResponseInfo::SendExhausted`] naming
/// every technology that was tried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Candidate-list passes per destination before the terminal failure.
    /// `1` disables the reliable path entirely (fire-and-forget).
    pub max_attempts: u32,
    /// Grace added to a candidate's expected delivery time before the
    /// manager declares the try lost and moves on.
    pub ack_deadline: SimDuration,
    /// Backoff before the second pass; later passes multiply by
    /// `backoff_factor` up to `backoff_max`.
    pub backoff_base: SimDuration,
    /// Exponential backoff multiplier (values below 1 are treated as 1).
    pub backoff_factor: f64,
    /// Ceiling on the backoff delay.
    pub backoff_max: SimDuration,
}

impl RetryPolicy {
    /// The classic fire-and-forget behavior (the default).
    pub fn off() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ack_deadline: SimDuration::from_millis(250),
            backoff_base: SimDuration::from_millis(200),
            backoff_factor: 2.0,
            backoff_max: SimDuration::from_secs(2),
        }
    }

    /// A sensible reliable preset: six passes with 200 ms → 2 s backoff.
    pub fn reliable() -> Self {
        RetryPolicy { max_attempts: 6, ..RetryPolicy::off() }
    }

    /// Whether the reliable path is active.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// The backoff delay before pass `next_attempt` (2-based: the first
    /// retry waits `backoff_base`).
    pub fn backoff_delay(&self, next_attempt: u32) -> SimDuration {
        let factor = self.backoff_factor.max(1.0);
        let mult = factor.powi(next_attempt.saturating_sub(2) as i32);
        let us = (self.backoff_base.as_micros() as f64 * mult) as u64;
        SimDuration::from_micros(us.min(self.backoff_max.as_micros()))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::off()
    }
}

/// Policy for adaptive address-beacon intervals.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveBeacon {
    /// Interval while the neighborhood is changing (new peers appearing).
    pub min: SimDuration,
    /// Ceiling the interval decays to (doubling per stable evaluation
    /// period) while the neighborhood is unchanged.
    pub max: SimDuration,
}

impl Default for AdaptiveBeacon {
    fn default() -> Self {
        AdaptiveBeacon { min: SimDuration::from_millis(250), max: SimDuration::from_secs(4) }
    }
}

impl Default for OmniConfig {
    fn default() -> Self {
        OmniConfig {
            beacon_interval: SimDuration::from_millis(500),
            engagement_check: SimDuration::from_millis(1000),
            peer_ttl: SimDuration::from_millis(3000),
            timings: LinkTimings::default(),
            advertise_on_all_techs: false,
            integrate_low_level_nd: true,
            data_techs: None,
            context_key: None,
            relay_ttl: 0,
            adaptive_beacon: None,
            obs: None,
            queue_capacity: None,
            retry: RetryPolicy::off(),
            relay: crate::relay::RelayPolicy::off(),
        }
    }
}

/// Expected-cost model of each link type, used for data technology selection
/// and for the technologies' own protocol timers.
///
/// Defaults mirror [`SimConfig`]'s defaults; [`LinkTimings::from_sim`]
/// derives them from a specific simulation configuration.
#[derive(Debug, Clone)]
pub struct LinkTimings {
    /// TCP connection establishment to a known mesh address.
    pub tcp_connect: SimDuration,
    /// Unicast goodput, bytes/second.
    pub unicast_bps: f64,
    /// WiFi network scan duration.
    pub wifi_scan: SimDuration,
    /// WiFi join/associate duration.
    pub wifi_join: SimDuration,
    /// Expected multicast address-resolution round trip.
    pub resolve_rtt: SimDuration,
    /// Interval between resolve retries.
    pub resolve_retry: SimDuration,
    /// Maximum resolve attempts before the send fails.
    pub resolve_attempts: u32,
    /// BLE one-shot rendezvous latency.
    pub ble_oneshot: SimDuration,
    /// Maximum BLE advertisement payload, bytes.
    pub ble_max_payload: usize,
    /// Fixed multicast airtime per datagram.
    pub mcast_fixed: SimDuration,
    /// Multicast bulk goodput, bytes/second.
    pub mcast_rate_bps: f64,
    /// NFC touch exchange latency.
    pub nfc_touch: SimDuration,
    /// Maximum NFC payload, bytes.
    pub nfc_max_payload: usize,
    /// How often the multicast technology rescans for transient networks
    /// while it is actively carrying context.
    pub mcast_rescan: SimDuration,
}

impl Default for LinkTimings {
    fn default() -> Self {
        LinkTimings::from_sim(&SimConfig::default())
    }
}

impl LinkTimings {
    /// Derives the cost model from a simulation configuration so selection
    /// estimates match the substrate exactly.
    pub fn from_sim(sim: &SimConfig) -> Self {
        LinkTimings {
            tcp_connect: sim.wifi.tcp_connect_time,
            unicast_bps: sim.wifi.capacity_bps,
            wifi_scan: sim.wifi.scan_time,
            wifi_join: sim.wifi.join_time,
            resolve_rtt: sim.wifi.mcast_fixed_airtime * 2 + SimDuration::from_millis(10),
            resolve_retry: SimDuration::from_millis(500),
            resolve_attempts: 6,
            ble_oneshot: sim.ble.oneshot_latency,
            ble_max_payload: sim.ble.max_payload,
            mcast_fixed: sim.wifi.mcast_fixed_airtime,
            mcast_rate_bps: sim.wifi.mcast_rate_bps,
            nfc_touch: sim.nfc.touch_latency,
            nfc_max_payload: sim.nfc.max_payload,
            mcast_rescan: SimDuration::from_secs(60),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beacon_interval_matches_paper() {
        assert_eq!(OmniConfig::default().beacon_interval, SimDuration::from_millis(500));
    }

    #[test]
    fn retry_defaults_off_and_backoff_is_capped() {
        let p = RetryPolicy::default();
        assert!(!p.enabled(), "default config must keep the classic path");
        let r = RetryPolicy::reliable();
        assert!(r.enabled());
        assert_eq!(r.backoff_delay(2), SimDuration::from_millis(200));
        assert_eq!(r.backoff_delay(3), SimDuration::from_millis(400));
        assert_eq!(r.backoff_delay(4), SimDuration::from_millis(800));
        assert_eq!(r.backoff_delay(20), r.backoff_max, "exponential growth is capped");
    }

    #[test]
    fn timings_mirror_sim_defaults() {
        let t = LinkTimings::default();
        let s = SimConfig::default();
        assert_eq!(t.tcp_connect, s.wifi.tcp_connect_time);
        assert_eq!(t.wifi_scan, s.wifi.scan_time);
        assert_eq!(t.ble_max_payload, s.ble.max_payload);
        assert!((t.unicast_bps - s.wifi.capacity_bps).abs() < 1e-9);
    }
}
