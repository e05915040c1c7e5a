//! Host-side instruments: the counting global allocator, the percentile
//! helper, and the metric record every workload reports.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::rng::SplitMix;

/// Counts allocations and allocated bytes, and tracks live and peak live
/// heap bytes. Statistics only: every counter is `Relaxed` because none of
/// them publishes other data.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static BASE: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only atomics and never the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

/// Allocation counters at one instant.
#[derive(Clone, Copy, Debug)]
pub struct AllocMark {
    pub allocs: u64,
    pub bytes: u64,
}

pub fn alloc_mark() -> AllocMark {
    AllocMark { allocs: ALLOCS.load(Ordering::Relaxed), bytes: ALLOC_BYTES.load(Ordering::Relaxed) }
}

/// Restarts peak tracking from the current live heap, which becomes the
/// baseline [`heap_peak_bytes`] is measured above.
pub fn reset_heap_peak() {
    let live = LIVE.load(Ordering::Relaxed);
    BASE.store(live, Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
}

/// Peak live heap bytes since the last [`reset_heap_peak`], above the
/// live heap at that reset.
pub fn heap_peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(BASE.load(Ordering::Relaxed))
}

/// Host speed probe. A shared host's speed drifts by tens of percent over
/// minutes — far more than the changes the benchmark must detect. A fixed
/// kernel (benchmark code, so no change to the program under test can
/// alter it) is timed in short slices interleaved with the measured work,
/// and wall-clock metrics are scaled by its median slice time against
/// [`HostProbe::REFERENCE_MS`]: they read as if measured on a host of the
/// reference speed. The kernel mimics the simulator's memory behaviour —
/// an event-queue heap and random access over a working set larger than
/// cache.
pub struct HostProbe {
    data: Vec<u64>,
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    rng: SplitMix,
    slices_ms: Vec<f64>,
    last: Option<Instant>,
}

impl HostProbe {
    /// Median slice time on the host the benchmark was calibrated on (a
    /// 2-vCPU x86-64 VM at 2.1 GHz); only ratios to it matter.
    pub const REFERENCE_MS: f64 = 11.0;
    /// Kernel operations per slice.
    const OPS: u32 = 50_000;
    /// Minimum measured time between two slices in the timed phase: about
    /// a tenth of the run goes to the probe.
    const EVERY: Duration = Duration::from_millis(100);

    pub fn new() -> Self {
        HostProbe {
            data: (0..1u64 << 21).collect(),
            queue: (0..1u32 << 16).map(|i| Reverse((u64::from(i) << 20, i))).collect(),
            rng: SplitMix::new(0, 0x4057),
            slices_ms: Vec::with_capacity(4096),
            last: None,
        }
    }

    /// Times one kernel slice.
    pub fn slice(&mut self) {
        let mask = self.data.len() - 1;
        let started = Instant::now();
        let mut acc = 0u64;
        for _ in 0..Self::OPS {
            let r = self.rng.next_u64();
            acc = acc.wrapping_add(self.data[r as usize & mask]);
            self.data[(r >> 24) as usize & mask] ^= acc;
            if let Some(Reverse((key, id))) = self.queue.pop() {
                self.queue.push(Reverse((key + (r >> 44) + 1, id)));
            }
        }
        black_box(acc);
        let now = Instant::now();
        self.slices_ms.push((now - started).as_secs_f64() * 1e3);
        self.last = Some(now);
    }

    /// Times a slice when `EVERY` has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= Self::EVERY) {
            self.slice();
        }
    }

    /// How much slower than the reference host this run's host was (1 =
    /// reference speed).
    pub fn slowdown(&self) -> f64 {
        median(&self.slices_ms) / Self::REFERENCE_MS
    }

    pub fn slices(&self) -> usize {
        self.slices_ms.len()
    }
}

/// A percentile together with the number of samples it was read from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
}

/// Nearest rank (1-based) of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    assert!((0.0..1.0).contains(&q), "quantile must be in [0, 1)");
    ((q * n as f64).ceil() as usize).max(1)
}

/// Whether `n` samples put at least ten beyond the `q`-quantile — below
/// that the tail is a handful of points and the number would mislead.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n >= rank(n, q) + 10
}

/// The `q`-quantile (nearest rank) of `samples`, when
/// [`tail_supported`].
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    let n = samples.len();
    if !tail_supported(n, q) {
        return None;
    }
    let rank = rank(n, q);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Pct { value: sorted[rank - 1], samples: n })
}

/// Median of a non-empty sample (no tail requirement: used for the
/// host-time medians over repeated set-ups and blocks).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[m]
    } else {
        (sorted[m - 1] + sorted[m]) / 2.0
    }
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// The sample count behind a percentile.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit, samples: None }
    }

    pub fn pct(name: impl Into<String>, p: Pct, unit: &'static str) -> Self {
        Metric { name: name.into(), value: p.value, unit, samples: Some(p.samples) }
    }
}

/// `a / b`, or 0 when nothing was attempted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it_and_carries_its_count() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs[..999], 0.99), None, "rank 990 of 999 leaves only 9 beyond");
        let p99 = percentile(&xs, 0.99).expect("1000 samples support a p99");
        assert_eq!(p99, Pct { value: 990.0, samples: 1000 });
        assert_eq!(percentile(&xs[..19], 0.5), None);
        let p50 = percentile(&xs[..20], 0.5).expect("20 samples support a median");
        assert_eq!(p50, Pct { value: 10.0, samples: 20 });
    }

    #[test]
    fn percentile_ignores_input_order() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0, 12.0];
        assert_eq!(percentile(&xs, 0.1).map(|p| p.value), Some(2.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
