//! Microbenchmarks for the wire codec — the hot path of every transmission.

use bytes::{Bytes, BytesMut};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use omni_core::ControlFrame;
use omni_wire::{
    AddressBeaconPayload, BleAddress, MeshAddress, OmniAddress, PackedStruct, PackedView,
};

fn bench_codec(c: &mut Criterion) {
    let addr = OmniAddress::from_u64(0x0123_4567_89ab_cdef);
    let beacon = AddressBeaconPayload {
        mesh: Some(MeshAddress::from_u64(0xfeed)),
        ble: Some(BleAddress([2, 0, 0, 0, 0, 1])),
    };
    let packed = PackedStruct::address_beacon(addr, &beacon);
    let encoded = packed.encode();

    c.bench_function("packed_encode_beacon", |b| {
        b.iter(|| black_box(&packed).encode());
    });
    c.bench_function("packed_decode_beacon", |b| {
        b.iter(|| PackedStruct::decode(black_box(&encoded)).unwrap());
    });
    c.bench_function("packed_view_parse_beacon", |b| {
        b.iter(|| PackedView::parse(black_box(&encoded[..])).unwrap().source());
    });
    c.bench_function("packed_decode_shared_beacon", |b| {
        b.iter(|| PackedStruct::decode_shared(black_box(&encoded)).unwrap());
    });
    let mut scratch = BytesMut::with_capacity(encoded.len());
    c.bench_function("packed_encode_into_beacon", |b| {
        b.iter(|| {
            scratch.clear();
            black_box(&packed).encode_into(&mut scratch);
            scratch.len()
        });
    });

    let ctx = PackedStruct::context(addr, Bytes::from_static(b"svc:interaction-advert"));
    let ctx_encoded = ctx.encode();
    c.bench_function("packed_decode_context", |b| {
        b.iter(|| PackedStruct::decode(black_box(&ctx_encoded)).unwrap());
    });
    c.bench_function("packed_decode_shared_context", |b| {
        b.iter(|| PackedStruct::decode_shared(black_box(&ctx_encoded)).unwrap());
    });

    // Consolidated multicast beacon: address beacon + three context packs.
    let batch = ControlFrame::Batch(vec![
        packed.clone(),
        ctx.clone(),
        PackedStruct::context(addr, Bytes::from_static(b"interest:media")),
        PackedStruct::context(addr, Bytes::from_static(b"inventory:0123456789abcdef")),
    ]);
    let batch_encoded = batch.encode();
    c.bench_function("control_batch_encode", |b| {
        b.iter(|| black_box(&batch).encode());
    });
    c.bench_function("control_batch_decode", |b| {
        b.iter(|| ControlFrame::decode_shared(black_box(&batch_encoded)).unwrap());
    });

    c.bench_function("omni_address_derivation", |b| {
        let macs = [[0x02, 0x57, 0x1f, 0, 0, 1], [0x02, 0, 0, 0, 0, 1]];
        b.iter(|| OmniAddress::from_interface_macs(black_box(&macs)));
    });
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
