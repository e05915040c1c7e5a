//! The traced run's instruments, all kept outside the crates under test:
//!
//! * [`Timed`] wraps each device stack and times every `on_event` call — the
//!   core layer's span. The runner's `run_until` step is the sim layer's
//!   span, so a layer's self time is its span minus its children's.
//! * [`Probe`] keeps per-kind totals for every step and, for every 50th
//!   step, the step span with one child span per `on_event` call, written
//!   out as a Chrome trace when the run ends.
//! * A reservoir of received frames per kind, replayed after the run
//!   through the same public decoders the technologies use (the wire
//!   layer).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use omni_core::{ControlFrame, OmniStack};
use omni_sim::{NodeApi, NodeEvent, Stack};
use omni_wire::frame::{self, Incoming};
use omni_wire::{OmniAddress, PackedStruct};

use crate::measure::alloc_mark;
use crate::rng::SplitMix;

/// Event kinds reported per layer, in metric-name form.
pub const KINDS: [&str; 6] = ["ble_beacon", "ble_oneshot", "timer", "tcp", "multicast", "wifi"];
/// Index of the unreported remainder (start, NFC, infrastructure).
const OTHER: usize = KINDS.len();

/// Every `SPAN_STRIDE`-th timed step keeps its spans.
pub const SPAN_STRIDE: u64 = 50;
/// Bound on kept `on_event` spans, so the trace file stays loadable.
const MAX_CHILD_SPANS: usize = 200_000;
/// Frames kept per wire kind for the replay.
const WIRE_SAMPLES: usize = 4096;

fn kind_of(event: &NodeEvent) -> usize {
    match event {
        NodeEvent::BleBeacon { .. } => 0,
        NodeEvent::BleOneShot { .. } | NodeEvent::BleOneShotSent => 1,
        NodeEvent::Timer { .. } => 2,
        NodeEvent::TcpConnectResult { .. }
        | NodeEvent::TcpIncoming { .. }
        | NodeEvent::TcpMessage { .. }
        | NodeEvent::TcpSendComplete { .. }
        | NodeEvent::TcpClosed { .. } => 3,
        NodeEvent::Multicast { .. } | NodeEvent::McastSendComplete => 4,
        NodeEvent::WifiScanDone { .. } | NodeEvent::WifiJoined { .. } => 5,
        _ => OTHER,
    }
}

/// Which public decoder a sampled frame goes through.
#[derive(Clone, Copy)]
enum WireKind {
    /// BLE beacons and one-shots: `frame::parse_for_shared`.
    Ble,
    /// Multicast datagrams: `ControlFrame::decode_shared`.
    Multicast,
    /// TCP messages: `PackedStruct::decode_shared`.
    Tcp,
}

fn wire_frame(event: &NodeEvent) -> Option<(WireKind, &Bytes)> {
    match event {
        NodeEvent::BleBeacon { payload, .. } | NodeEvent::BleOneShot { payload, .. } => {
            Some((WireKind::Ble, payload))
        }
        NodeEvent::Multicast { payload, .. } => Some((WireKind::Multicast, payload)),
        NodeEvent::TcpMessage { payload, .. } => Some((WireKind::Tcp, payload)),
        _ => None,
    }
}

/// What the traced run reads from a stack besides its events.
pub trait Inspect {
    /// The address the stack's decoders run as; `None` for a stack that
    /// runs no Omni code.
    fn own(&self) -> Option<OmniAddress>;
    /// Entries in the stack's peer table.
    fn peers(&self) -> usize;
}

impl Inspect for OmniStack {
    fn own(&self) -> Option<OmniAddress> {
        Some(self.manager().omni_address())
    }

    fn peers(&self) -> usize {
        self.manager().peers().len()
    }
}

/// One recorded interval, in nanoseconds since the probe's epoch.
struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// A fixed-size uniform sample of the frames seen (reservoir sampling).
#[derive(Default)]
struct Reservoir {
    seen: u64,
    frames: Vec<(OmniAddress, Bytes)>,
}

/// Everything the traced run records, shared by every [`Timed`] wrapper.
pub struct Probe {
    epoch: Instant,
    sampled: bool,
    /// `on_event` calls per kind (the last slot is the remainder).
    pub calls: [u64; KINDS.len() + 1],
    /// Nanoseconds inside `on_event` per kind.
    pub ns: [u64; KINDS.len() + 1],
    steps: Vec<Span>,
    children: Vec<Span>,
    children_dropped: u64,
    wire: [Reservoir; 3],
    rng: SplitMix,
    /// Peer-table size per device, as of its latest event.
    pub peers: Vec<usize>,
}

impl Probe {
    pub fn new(seed: u64) -> Self {
        Probe {
            epoch: Instant::now(),
            sampled: false,
            calls: [0; KINDS.len() + 1],
            ns: [0; KINDS.len() + 1],
            steps: Vec::new(),
            children: Vec::new(),
            children_dropped: 0,
            wire: Default::default(),
            rng: SplitMix::new(seed, 0x77),
            peers: Vec::new(),
        }
    }

    /// Forgets everything recorded so far (the warm-up), keeping the
    /// per-device peer sizes.
    pub fn reset(&mut self) {
        let peers = std::mem::take(&mut self.peers);
        *self = Probe::new(self.rng.next_u64());
        self.peers = peers;
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn begin_step(&mut self, step: u64) {
        self.sampled = step.is_multiple_of(SPAN_STRIDE);
    }

    pub fn end_step(&mut self, t0: Instant, t1: Instant) {
        if self.sampled {
            let start_ns = self.ns_since_epoch(t0);
            self.steps.push(Span { name: "step", start_ns, dur_ns: (t1 - t0).as_nanos() as u64 });
        }
        self.sampled = false;
    }

    fn record(&mut self, kind: usize, t0: Instant, t1: Instant) {
        let dur_ns = (t1 - t0).as_nanos() as u64;
        self.calls[kind] += 1;
        self.ns[kind] += dur_ns;
        if self.sampled {
            if self.children.len() < MAX_CHILD_SPANS {
                let name = KINDS.get(kind).copied().unwrap_or("other");
                let start_ns = self.ns_since_epoch(t0);
                self.children.push(Span { name, start_ns, dur_ns });
            } else {
                self.children_dropped += 1;
            }
        }
    }

    fn sample_wire(&mut self, own: OmniAddress, kind: WireKind, frame: &Bytes) {
        let r = &mut self.wire[kind as usize];
        r.seen += 1;
        if r.frames.len() < WIRE_SAMPLES {
            r.frames.push((own, frame.clone()));
        } else {
            let j = self.rng.below(r.seen) as usize;
            if j < WIRE_SAMPLES {
                r.frames[j] = (own, frame.clone());
            }
        }
    }

    /// Total nanoseconds inside `on_event`, all kinds.
    pub fn core_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// The sampled spans as a Chrome trace (`chrome://tracing`,
    /// Perfetto), with the run's aggregate layer totals in `otherData`.
    /// Steps and their `on_event` children share one thread, so viewers
    /// nest each child under its step.
    pub fn chrome_json(&self, workload: &str, totals: &[(&str, f64)]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (cat, spans) in [("sim", &self.steps), ("core", &self.children)] {
            for s in spans.iter() {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                     \"ts\":{:.3},\"dur\":{:.3}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3
                );
            }
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":\"{workload}\",\
             \"span_stride\":{SPAN_STRIDE},\"child_spans_dropped\":{}",
            self.children_dropped
        );
        for (name, v) in totals {
            let _ = write!(out, ",\"{name}\":{v}");
        }
        out.push_str("}}\n");
        out
    }
}

/// Times every event its inner stack handles (the core layer's span) and
/// samples received frames for the wire replay.
pub struct Timed<S> {
    inner: S,
    own: Option<OmniAddress>,
    probe: Rc<RefCell<Probe>>,
}

impl<S: Inspect> Timed<S> {
    pub fn new(inner: S, probe: Rc<RefCell<Probe>>) -> Self {
        Timed { own: inner.own(), inner, probe }
    }
}

impl<S: Stack + Inspect> Stack for Timed<S> {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        let kind = kind_of(&event);
        if let (Some(own), Some((wk, frame))) = (self.own, wire_frame(&event)) {
            self.probe.borrow_mut().sample_wire(own, wk, frame);
        }
        let t0 = Instant::now();
        self.inner.on_event(event, api);
        let t1 = Instant::now();
        let mut p = self.probe.borrow_mut();
        p.record(kind, t0, t1);
        if self.own.is_some() {
            let dev = api.device.0;
            if p.peers.len() <= dev {
                p.peers.resize(dev + 1, 0);
            }
            p.peers[dev] = self.inner.peers();
        }
    }
}

/// Results of replaying the sampled frames through the wire codecs.
#[derive(Debug, Default)]
pub struct WireStats {
    pub frames: usize,
    pub decode_ns: f64,
    pub encode_ns: f64,
    pub decode_allocs: f64,
    pub frame_bytes: f64,
}

enum Decoded {
    Packed(PackedStruct),
    Control(ControlFrame),
    Nothing,
}

fn decode(kind: WireKind, own: OmniAddress, frame: &Bytes) -> Decoded {
    match kind {
        WireKind::Ble => match frame::parse_for_shared(own, frame) {
            Incoming::Plain(p) | Incoming::Acked { packed: p, .. } => Decoded::Packed(p),
            _ => Decoded::Nothing,
        },
        WireKind::Multicast => {
            ControlFrame::decode_shared(frame).map_or(Decoded::Nothing, Decoded::Control)
        }
        WireKind::Tcp => {
            PackedStruct::decode_shared(frame).map_or(Decoded::Nothing, Decoded::Packed)
        }
    }
}

fn encode(d: &Decoded, buf: &mut BytesMut) {
    match d {
        Decoded::Packed(p) => p.encode_into(buf),
        Decoded::Control(c) => c.encode_into(buf),
        Decoded::Nothing => {}
    }
}

/// Repeats `pass` until at least 20 ms (and three passes) have elapsed;
/// returns nanoseconds per pass.
fn time_passes(mut pass: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut passes = 0u32;
    while passes < 3 || started.elapsed().as_millis() < 20 {
        pass();
        passes += 1;
    }
    started.elapsed().as_nanos() as f64 / f64::from(passes)
}

/// Replays every sampled frame through its decoder, then re-encodes what
/// decoded into one pooled buffer, as the technologies do.
pub fn replay_wire(probe: &Probe) -> WireStats {
    let kinds = [WireKind::Ble, WireKind::Multicast, WireKind::Tcp];
    let frames: Vec<(WireKind, OmniAddress, &Bytes)> = kinds
        .iter()
        .zip(&probe.wire)
        .flat_map(|(&k, r)| r.frames.iter().map(move |(own, f)| (k, *own, f)))
        .collect();
    if frames.is_empty() {
        return WireStats::default();
    }
    let n = frames.len() as f64;
    let before = alloc_mark();
    for &(k, own, f) in &frames {
        black_box(decode(k, own, f));
    }
    let decode_allocs = (alloc_mark().allocs - before.allocs) as f64 / n;
    let decode_pass_ns = time_passes(|| {
        for &(k, own, f) in &frames {
            black_box(decode(black_box(k), own, f));
        }
    });
    let decoded: Vec<Decoded> = frames
        .iter()
        .map(|&(k, own, f)| decode(k, own, f))
        .filter(|d| !matches!(d, Decoded::Nothing))
        .collect();
    let mut buf = BytesMut::with_capacity(1024);
    let encode_pass_ns = time_passes(|| {
        for d in &decoded {
            buf.clear();
            encode(black_box(d), &mut buf);
            black_box(&buf);
        }
    });
    WireStats {
        frames: frames.len(),
        decode_ns: decode_pass_ns / n,
        encode_ns: if decoded.is_empty() { 0.0 } else { encode_pass_ns / decoded.len() as f64 },
        decode_allocs,
        frame_bytes: frames.iter().map(|(_, _, f)| f.len() as f64).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_keeps_a_bounded_sample() {
        let mut p = Probe::new(1);
        let own = OmniAddress::from_u64(1);
        let frame = Bytes::from_static(b"x");
        for _ in 0..(WIRE_SAMPLES * 3) {
            p.sample_wire(own, WireKind::Ble, &frame);
        }
        assert_eq!(p.wire[0].frames.len(), WIRE_SAMPLES);
        assert_eq!(p.wire[0].seen, (WIRE_SAMPLES * 3) as u64);
    }

    #[test]
    fn replay_decodes_and_reencodes_context_frames() {
        let mut p = Probe::new(1);
        let own = OmniAddress::from_u64(9);
        let packed = PackedStruct::context(OmniAddress::from_u64(2), Bytes::from_static(b"svc"));
        p.sample_wire(own, WireKind::Ble, &packed.encode());
        let stats = replay_wire(&p);
        assert_eq!(stats.frames, 1);
        assert!(stats.decode_ns > 0.0 && stats.encode_ns > 0.0);
        assert_eq!(stats.frame_bytes, packed.encode().len() as f64);
    }

    #[test]
    fn chrome_trace_lists_sampled_spans() {
        let mut p = Probe::new(1);
        p.begin_step(0);
        let t0 = Instant::now();
        p.record(0, t0, Instant::now());
        p.end_step(t0, Instant::now());
        p.begin_step(1);
        p.record(2, t0, Instant::now());
        p.end_step(t0, Instant::now());
        let json = p.chrome_json("w", &[("core_self_ms", 1.5)]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2, "only the sampled step keeps spans");
        assert!(json.contains("\"name\":\"ble_beacon\"") && json.contains("\"core_self_ms\":1.5"));
        assert_eq!(p.calls[0] + p.calls[2], 2, "counts cover every step");
    }
}
