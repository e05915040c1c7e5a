//! Concurrency tests: parallel recording must lose nothing and never panic.

use omni_obs::{EventKind, Obs};
use std::thread;

const THREADS: u64 = 8;
const PER_THREAD: u64 = 10_000;

#[test]
fn parallel_counter_increments_are_exact() {
    let obs = Obs::new();
    thread::scope(|s| {
        for _ in 0..THREADS {
            let obs = obs.clone();
            s.spawn(move || {
                let c = obs.counter("par.counter");
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            });
        }
    });
    assert_eq!(obs.counter("par.counter").get(), THREADS * PER_THREAD);
}

#[test]
fn parallel_gauge_adds_cancel_out() {
    let obs = Obs::new();
    thread::scope(|s| {
        for i in 0..THREADS {
            let obs = obs.clone();
            s.spawn(move || {
                let g = obs.gauge("par.gauge");
                let delta = if i % 2 == 0 { 1 } else { -1 };
                for _ in 0..PER_THREAD {
                    g.add(delta);
                }
            });
        }
    });
    assert_eq!(obs.gauge("par.gauge").get(), 0);
}

#[test]
fn parallel_digest_records_all_samples() {
    let obs = Obs::new();
    thread::scope(|s| {
        for t in 0..THREADS {
            let obs = obs.clone();
            s.spawn(move || {
                let d = obs.digest("par.digest");
                for v in 0..PER_THREAD {
                    d.record(t * PER_THREAD + v);
                }
            });
        }
    });
    let s = obs.digest("par.digest").summary();
    let n = THREADS * PER_THREAD;
    assert_eq!(s.count, n);
    assert_eq!(s.sum, n * (n - 1) / 2);
    assert_eq!(s.min, 0);
    assert_eq!(s.max, n - 1);
    assert!(s.p50 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max);
}

#[test]
fn parallel_registration_yields_one_metric_per_name() {
    let obs = Obs::new();
    thread::scope(|s| {
        for _ in 0..THREADS {
            let obs = obs.clone();
            s.spawn(move || {
                for i in 0..64 {
                    // Names collide across threads on purpose.
                    obs.counter(&format!("reg.{}", i)).inc();
                }
            });
        }
    });
    let read = obs.snapshot().metrics;
    assert_eq!(read.counters.len(), 64);
    for (_, v) in read.counters {
        assert_eq!(v, THREADS);
    }
}

#[test]
fn parallel_event_pushes_bound_the_ring() {
    let obs = Obs::with_event_capacity(256);
    thread::scope(|s| {
        for t in 0..THREADS {
            let obs = obs.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    obs.event(
                        t * PER_THREAD + i,
                        t as u32,
                        EventKind::BeaconSent { tech: "ble-beacon", epoch: 0 },
                    );
                }
            });
        }
    });
    let events = obs.events();
    assert_eq!(events.len(), 256);
    let total = THREADS * PER_THREAD;
    assert_eq!(obs.events_dropped(), total - 256);
}
