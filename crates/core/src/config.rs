//! Omni middleware configuration.

use omni_sim::SimDuration;

/// Manager-level configuration.
#[derive(Debug, Clone)]
pub struct OmniConfig {
    /// Address beacon interval. "For simplicity we have fixed the interval
    /// for this beacon to be every 500 ms" (paper §3.3).
    pub beacon_interval: SimDuration,
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
    /// Observability handle. When set, the manager records structured
    /// events and bumps the counter each event kind names (data, beacon,
    /// context and relay counters); the three shared queues export their
    /// depth and wait; and each technology's failures count into
    /// `tech.<label>.failures` through its port
    /// ([`TechQueues::fail`](crate::TechQueues::fail)). The manager's one
    /// gauge, `mgr.custody_depth`, is per node under one name: on a handle
    /// a fleet shares, its value is the last writer's, and only its `lo`
    /// and `hi` watermarks (the smallest and largest depth any node
    /// reported) mean something.
    pub obs: Option<omni_obs::Obs>,
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

/// Backoff before the second candidate-list pass.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(200);
/// Multiplier from one pass's backoff to the next.
const BACKOFF_FACTOR: f64 = 2.0;
/// Ceiling on the backoff delay.
const BACKOFF_MAX: SimDuration = SimDuration::from_secs(2);

/// Policy for the reliable data path (retry/backoff/failover).
///
/// A send attempt walks the candidate technologies for the destination in
/// cheapest-first order. Every per-technology try is guarded by an ack
/// deadline (the candidate's expected delivery time plus 250 ms); a failure
/// or deadline expiry moves on to the next engaged technology, and when the
/// whole candidate list is exhausted the manager waits out an exponential
/// backoff (200 ms, doubling per pass up to 2 s) and re-enumerates, up to
/// `max_attempts` passes. Only then does the send fail terminally, with
/// [`omni_wire::ResponseInfo::SendExhausted`] naming every technology that
/// was tried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Candidate-list passes per destination before the terminal failure.
    /// `1` disables the reliable path entirely (fire-and-forget).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// The classic fire-and-forget behavior (the default).
    pub fn off() -> Self {
        RetryPolicy { max_attempts: 1 }
    }

    /// A sensible reliable preset: six passes with 200 ms → 2 s backoff.
    pub fn reliable() -> Self {
        RetryPolicy { max_attempts: 6 }
    }

    /// Whether the reliable path is active.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// The backoff delay before pass `next_attempt` (2-based: the first
    /// retry waits 200 ms, and each later one twice the last, up to 2 s).
    pub fn backoff_delay(&self, next_attempt: u32) -> SimDuration {
        let mult = BACKOFF_FACTOR.powi(next_attempt.saturating_sub(2) as i32);
        let us = (BACKOFF_BASE.as_micros() as f64 * mult) as u64;
        SimDuration::from_micros(us.min(BACKOFF_MAX.as_micros()))
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
            advertise_on_all_techs: false,
            integrate_low_level_nd: true,
            data_techs: None,
            context_key: None,
            relay_ttl: 0,
            adaptive_beacon: None,
            obs: None,
            retry: RetryPolicy::off(),
            relay: crate::relay::RelayPolicy::off(),
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
        assert_eq!(r.backoff_delay(20), BACKOFF_MAX, "exponential growth is capped");
    }
}
