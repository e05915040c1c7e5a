//! Full-stack middleware benchmarks: virtual-seconds of two-device Omni
//! operation per wall-clock second, and the discovery→data fast path.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use omni_core::{ContextParams, OmniBuilder, OmniStack};
use omni_sim::{DeviceCaps, Position, Runner, SimConfig, SimTime};

fn two_omni_devices() -> Runner {
    let mut sim = Runner::new(SimConfig::default());
    for i in 0..2 {
        let d = sim.add_device(DeviceCaps::PI, Position::new(5.0 * i as f64, 0.0));
        let mgr = OmniBuilder::new().with_ble().with_wifi().build(&sim, d);
        sim.set_stack(
            d,
            Box::new(OmniStack::new(mgr, |omni| {
                omni.add_context(
                    ContextParams::default(),
                    Bytes::from_static(b"bench-service"),
                    Box::new(|_, _, _| {}),
                );
                omni.request_context(Box::new(|_, _, _| {}));
                omni.request_data(Box::new(|_, _, _| {}));
            })),
        );
    }
    sim
}

fn bench_middleware(c: &mut Criterion) {
    c.bench_function("omni_pair_60s_warmup", |b| {
        b.iter_batched(
            two_omni_devices,
            |mut sim| sim.run_until(SimTime::from_secs(60)),
            BatchSize::SmallInput,
        );
    });

    c.bench_function("omni_discovery_plus_send", |b| {
        b.iter_batched(
            || {
                let mut sim = Runner::new(SimConfig::default());
                let a = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
                let bdev = sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0));
                let dest = OmniBuilder::omni_address(&sim, bdev);
                let mgr = OmniBuilder::new().with_ble().with_wifi().build(&sim, a);
                sim.set_stack(
                    a,
                    Box::new(OmniStack::new(mgr, move |omni| {
                        omni.request_timers(Box::new(move |_, o| {
                            o.send_data(
                                vec![dest],
                                Bytes::from_static(b"bench-payload"),
                                Box::new(|_, _, _| {}),
                            );
                        }));
                        omni.set_timer(1, omni_sim::SimDuration::from_secs(2));
                    })),
                );
                let mgr = OmniBuilder::new().with_ble().with_wifi().build(&sim, bdev);
                sim.set_stack(
                    bdev,
                    Box::new(OmniStack::new(mgr, |omni| {
                        omni.request_data(Box::new(|_, _, _| {}));
                    })),
                );
                sim
            },
            |mut sim| sim.run_until(SimTime::from_secs(4)),
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(benches, bench_middleware);
criterion_main!(benches);
