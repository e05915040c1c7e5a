//! Simulation-engine throughput: how much virtual time the discrete-event
//! core can chew through per unit of wall clock.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use omni_sim::{
    Command, DeviceCaps, NodeApi, NodeEvent, Position, Runner, SimConfig, SimDuration, SimTime,
    Stack,
};

/// Re-arms a timer forever.
struct TimerLoop;

impl Stack for TimerLoop {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        match event {
            NodeEvent::Start | NodeEvent::Timer { .. } => {
                api.set_timer(1, SimDuration::from_millis(10));
            }
            _ => {}
        }
    }
}

/// Beacons periodically.
struct Beacons;

impl Stack for Beacons {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        if matches!(event, NodeEvent::Start) {
            api.push(Command::BleSetScan { duty: Some(1.0) });
            api.push(Command::BleAdvertiseSet {
                slot: 0,
                payload: Bytes::from_static(b"bench-beacon"),
                interval: SimDuration::from_millis(100),
            });
        }
    }
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("timer_events_10k", |b| {
        b.iter_batched(
            || {
                let mut sim = Runner::new(SimConfig::default());
                let d = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
                sim.set_stack(d, Box::new(TimerLoop));
                sim
            },
            // 100 s of virtual time at a 10 ms timer = 10 000 events.
            |mut sim| sim.run_until(SimTime::from_secs(100)),
            BatchSize::SmallInput,
        );
    });

    c.bench_function("ble_fanout_10_devices_10s", |b| {
        b.iter_batched(
            || {
                let mut sim = Runner::new(SimConfig::default());
                for i in 0..10 {
                    let d = sim.add_device(DeviceCaps::PI, Position::new(i as f64, 0.0));
                    sim.set_stack(d, Box::new(Beacons));
                }
                sim
            },
            // 10 devices × 100 beacons × 9 receivers ≈ 9 000 deliveries.
            |mut sim| sim.run_until(SimTime::from_secs(10)),
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
