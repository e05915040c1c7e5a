//! Wire-path allocation gate — pins the zero-copy decode contract.
//!
//! The refactor in DESIGN.md §5i promises three things that this binary
//! proves with a counting allocator, per operation over a steady-state loop:
//!
//! 1. `PackedView::parse` and `FrameView` classification allocate nothing.
//! 2. `PackedStruct::decode_shared` / `frame::parse_for_shared` allocate
//!    nothing — payloads alias the backing `Bytes` via refcount bumps — and
//!    neither does `frame::parse_for_owned`, which narrows the frame it is
//!    handed to the payload in place.
//! 3. Pooled encode (`encode_into` a reused scratch, then one
//!    `Bytes::copy_from_slice`) never allocates more than the legacy owned
//!    `encode()` path it replaced.
//!
//! The owned `decode()` oracle is also measured and asserted to allocate,
//! which keeps the gate honest: if the counter ever stops seeing the
//! oracle's payload copy, the zero-alloc assertions above are meaningless.
//!
//! `--smoke` runs the assertions quietly for `scripts/ci.sh`; without the
//! flag it also reports per-op throughput.

use std::hint::black_box;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use omni_bench::ObsRun;
use omni_wire::frame::{self, Incoming};
use omni_wire::{FrameView, OmniAddress, PackedStruct, PackedView, RelayHeader, TraceId};

#[path = "../counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

const ITERS: u64 = 100_000;

/// Runs `op` `ITERS` times and returns `(allocs per op, ns per op)`.
fn measure(mut op: impl FnMut()) -> (f64, f64) {
    // One warmup pass lets lazy one-time allocations (scratch growth,
    // formatting machinery) land outside the measured window.
    op();
    let before = counting_alloc::allocs();
    let started = Instant::now();
    for _ in 0..ITERS {
        op();
    }
    let ns = started.elapsed().as_nanos() as f64 / ITERS as f64;
    let allocs = counting_alloc::allocs() - before;
    (allocs as f64 / ITERS as f64, ns)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Every measured window below is a before/after delta over its own
    // loop, so the guard's allocations (registry, end-of-run emit) never
    // land inside one; it just writes `target/obs/wire.json` on exit.
    let obs = ObsRun::new("wire");
    let origin = OmniAddress::from_u64(0x0123_4567_89ab_cdef);
    let dest = OmniAddress::from_u64(0xfeed_beef_dead_f00d);

    // A worst-case-shaped packed frame: traced, relayed, real payload.
    let packed = PackedStruct::context(origin, Bytes::from_static(b"svc:interaction-advert"))
        .with_trace(TraceId::derive(origin, 7))
        .with_relay(RelayHeader::new(dest, 6).with_copies(4));
    let wire = packed.encode();
    let backing = Bytes::copy_from_slice(&wire);
    let framed = frame::encode_directed(dest, &packed);
    let framed_backing = Bytes::copy_from_slice(&framed);

    let (view_allocs, view_ns) = measure(|| {
        let v = PackedView::parse(black_box(&wire[..])).expect("valid frame");
        black_box((v.kind(), v.source(), v.trace(), v.payload().len()));
        let f = FrameView::parse(black_box(&framed[..])).expect("valid frame");
        black_box(matches!(f, FrameView::Directed { .. }));
    });
    let (shared_allocs, shared_ns) = measure(|| {
        let d = PackedStruct::decode_shared(black_box(&backing)).expect("valid frame");
        black_box(d.payload.len());
        let inc = frame::parse_for_shared(dest, black_box(&framed_backing));
        black_box(matches!(inc, Incoming::Plain(_)));
    });
    // The BLE receive path owns each heard frame; the clone stands in for
    // the handle the radio event hands over.
    let (owned_frame_allocs, owned_frame_ns) = measure(|| {
        let inc = frame::parse_for_owned(dest, black_box(framed_backing.clone()));
        black_box(matches!(inc, Incoming::Plain(_)));
    });
    let (owned_allocs, owned_ns) = measure(|| {
        let d = PackedStruct::decode(black_box(&wire)).expect("valid frame");
        black_box(d.payload.len());
    });

    let mut scratch = BytesMut::with_capacity(wire.len());
    let (pooled_allocs, pooled_ns) = measure(|| {
        scratch.clear();
        black_box(&packed).encode_into(&mut scratch);
        black_box(Bytes::copy_from_slice(&scratch));
    });
    let (legacy_allocs, legacy_ns) = measure(|| {
        black_box(black_box(&packed).encode());
    });

    for (name, allocs, ns) in [
        ("view_parse", view_allocs, view_ns),
        ("decode_shared", shared_allocs, shared_ns),
        ("parse_for_owned", owned_frame_allocs, owned_frame_ns),
        ("owned_decode", owned_allocs, owned_ns),
        ("pooled_encode", pooled_allocs, pooled_ns),
        ("legacy_encode", legacy_allocs, legacy_ns),
    ] {
        obs.gauge(&format!("wire.{name}.ns_per_op")).set(ns as i64);
        // Gauges are integral; scale by 1000 so fractional alloc rates
        // (one-time growth amortized over the loop) stay visible.
        obs.gauge(&format!("wire.{name}.milli_allocs_per_op")).set((allocs * 1000.0) as i64);
    }

    println!(
        "wire smoke: view parse {view_allocs:.3} allocs/op ({view_ns:.0} ns), \
         decode_shared {shared_allocs:.3} allocs/op ({shared_ns:.0} ns), \
         owned decode {owned_allocs:.3} allocs/op ({owned_ns:.0} ns)"
    );
    println!(
        "wire smoke: parse_for_owned {owned_frame_allocs:.3} allocs/op ({owned_frame_ns:.0} ns)"
    );
    println!(
        "wire smoke: pooled encode {pooled_allocs:.3} allocs/op ({pooled_ns:.0} ns), \
         legacy encode {legacy_allocs:.3} allocs/op ({legacy_ns:.0} ns)"
    );

    assert!(
        view_allocs == 0.0,
        "view parse must be allocation-free, measured {view_allocs:.3} allocs/op"
    );
    assert!(
        shared_allocs == 0.0,
        "decode_shared must be allocation-free, measured {shared_allocs:.3} allocs/op"
    );
    assert!(
        owned_frame_allocs == 0.0,
        "parse_for_owned must be allocation-free, measured {owned_frame_allocs:.3} allocs/op"
    );
    assert!(
        owned_allocs > 0.0,
        "the owned oracle should copy its payload; a zero reading means the \
         allocation counter is blind and the assertions above prove nothing"
    );
    assert!(
        pooled_allocs <= legacy_allocs,
        "pooled encode allocates more than the legacy path it replaced: \
         {pooled_allocs:.3} > {legacy_allocs:.3} allocs/op"
    );

    if !smoke {
        println!(
            "wire: throughput — view parse {:.1} Mops/s, decode_shared {:.1} Mops/s, \
             pooled encode {:.1} Mops/s",
            1e3 / view_ns,
            1e3 / shared_ns,
            1e3 / pooled_ns
        );
    }
    println!("wire: ok");
}
