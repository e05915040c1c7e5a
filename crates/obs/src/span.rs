//! Lightweight span timing.
//!
//! [`Stopwatch`] measures wall-clock intervals.  [`time_scope!`] times a
//! lexical scope and records the elapsed microseconds into a named quantile
//! digest on drop.

use crate::digest::Digest;
use std::time::Instant;

/// A wall-clock stopwatch.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch { started: Instant::now() }
    }

    /// Microseconds since [`Stopwatch::start`].
    pub fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// Guard that records the elapsed wall-clock microseconds of its lexical
/// scope into a digest when dropped.  Usually built via
/// [`time_scope!`](crate::time_scope!).
#[derive(Debug)]
pub struct ScopeTimer {
    digest: Digest,
    watch: Stopwatch,
}

impl ScopeTimer {
    /// Start timing into `digest`.
    pub fn new(digest: Digest) -> Self {
        ScopeTimer { digest, watch: Stopwatch::start() }
    }
}

impl Drop for ScopeTimer {
    fn drop(&mut self) {
        self.digest.record(self.watch.elapsed_us());
    }
}

/// Time the rest of the enclosing scope into `$obs`'s digest `$name`.
///
/// ```
/// let obs = omni_obs::Obs::new();
/// {
///     let _t = omni_obs::time_scope!(obs, "pump_us");
///     // ... work ...
/// }
/// assert_eq!(obs.digest("pump_us").count(), 1);
/// ```
#[macro_export]
macro_rules! time_scope {
    ($obs:expr, $name:expr) => {
        $crate::ScopeTimer::new($obs.digest($name))
    };
}

#[cfg(test)]
mod tests {
    use crate::Obs;

    #[test]
    fn scope_timer_records_once() {
        let obs = Obs::new();
        {
            let _t = crate::time_scope!(obs, "scope_us");
        }
        assert_eq!(obs.digest("scope_us").count(), 1);
    }

    #[test]
    fn stopwatch_is_monotonic() {
        let w = super::Stopwatch::start();
        let a = w.elapsed_us();
        let b = w.elapsed_us();
        assert!(b >= a);
    }
}
