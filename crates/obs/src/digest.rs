//! Log-linear quantile digests (HDR-style) with trace exemplars.
//!
//! [`QuantileDigest`] buckets `u64` samples on a log-linear scale: values
//! below [`SUBBUCKETS`] are stored exactly, and every power-of-two octave
//! above that is split into [`SUBBUCKETS`] equal-width linear sub-buckets.
//! Reporting the midpoint of the rank's bucket (clamped to the observed
//! min/max) bounds the relative quantile error by
//! [`RELATIVE_ERROR_BOUND`] ≈ 1.6%, where a power-of-two bucket layout
//! would be off by up to 100%.
//!
//! Digests **merge**: two digests use the same fixed bucket layout, so
//! aggregating digests is per-bucket addition and the error bound is
//! unchanged after [`QuantileDigest::merge_from`].
//!
//! Each bucket optionally retains up to [`EXEMPLARS_PER_BUCKET`] recent
//! **exemplars** (caller-supplied 64-bit trace ids, see
//! [`QuantileDigest::record_with_exemplar`]), so an exported slow-window
//! quantile links directly back to the `FlightRecorder` timelines that
//! produced it.
//!
//! Everything here is dependency-free and deterministic: the digest never
//! reads a clock, and iteration orders are fixed (bucket index order).

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// log2 of [`SUBBUCKETS`].
const SUB_BITS: u32 = 5;

/// Linear sub-buckets per power-of-two octave. Values below this are exact.
pub const SUBBUCKETS: u64 = 1 << SUB_BITS;

/// Total bucket count: the exact region plus 59 octaves of [`SUBBUCKETS`]
/// (octave of the top bit 5 through 63).
const TOTAL_BUCKETS: usize = (SUBBUCKETS as usize) * 60;

/// Worst-case relative error of any quantile readout, including after
/// merges: half a sub-bucket width over the bucket's lower bound,
/// `1 / (2 * SUBBUCKETS)`.
pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / (2.0 * SUBBUCKETS as f64);

/// Most recent exemplar trace ids retained per bucket.
pub const EXEMPLARS_PER_BUCKET: usize = 4;

/// Bucket index for a sample.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUBBUCKETS {
        v as usize
    } else {
        // Top bit position p >= SUB_BITS; the octave starting at 2^p is
        // split into SUBBUCKETS linear buckets of width 2^(p - SUB_BITS).
        let p = 63 - v.leading_zeros();
        let octave = (p - SUB_BITS + 1) as usize;
        let sub = ((v >> (p - SUB_BITS)) - SUBBUCKETS) as usize;
        octave * SUBBUCKETS as usize + sub
    }
}

/// Inclusive `(low, high)` value bounds of bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    let sub = SUBBUCKETS as usize;
    if idx < sub {
        (idx as u64, idx as u64)
    } else {
        // Octave o (1..=59) holds values whose top bit is p = o + SUB_BITS - 1,
        // split into SUBBUCKETS buckets of width 2^(o-1); the top octave's
        // last bucket ends exactly at u64::MAX.
        let octave = (idx / sub) as u32;
        let width = 1u64 << (octave - 1);
        let lo = (SUBBUCKETS + (idx % sub) as u64) << (octave - 1);
        (lo, lo + (width - 1))
    }
}

/// Midpoint representative of bucket `idx` — the value a quantile readout
/// reports before clamping to the observed extrema.
fn bucket_mid(idx: usize) -> u64 {
    let (lo, hi) = bucket_bounds(idx);
    lo + (hi - lo) / 2
}

/// Point-in-time summary of a [`QuantileDigest`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DigestSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Smallest sample, or 0 when empty.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// A mergeable log-linear quantile digest over `u64` samples with optional
/// per-bucket trace exemplars. See the module docs for the error bound.
///
/// This is the plain single-owner value; the registry-attached shared handle
/// is [`Digest`].
#[derive(Clone, Debug)]
pub struct QuantileDigest {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// bucket index → most recent trace ids, newest last.
    exemplars: BTreeMap<u16, VecDeque<u64>>,
}

impl Default for QuantileDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileDigest {
    /// An empty digest.
    pub fn new() -> Self {
        QuantileDigest {
            counts: vec![0; TOTAL_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            exemplars: BTreeMap::new(),
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    #[inline]
    fn note(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.note(v);
    }

    /// Record one sample and attach `trace` as an exemplar to its bucket,
    /// displacing the oldest once [`EXEMPLARS_PER_BUCKET`] are held.
    pub fn record_with_exemplar(&mut self, v: u64, trace: u64) {
        let idx = bucket_of(v);
        self.counts[idx] += 1;
        self.note(v);
        let ring = self.exemplars.entry(idx as u16).or_default();
        if ring.len() == EXEMPLARS_PER_BUCKET {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// 1-based rank of quantile `q` (the nearest-rank convention of the
    /// sort oracle).
    fn rank(&self, q: f64) -> u64 {
        ((q * self.count as f64).ceil() as u64).clamp(1, self.count)
    }

    /// Bucket index holding the sample of the given 1-based rank.
    fn bucket_of_rank(&self, rank: u64) -> usize {
        let mut seen = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return idx;
            }
        }
        TOTAL_BUCKETS - 1
    }

    /// Quantile `q` in `[0, 1]`; 0 when empty. Reports the midpoint of the
    /// rank's bucket clamped into `[min, max]`, so the relative error is at
    /// most [`RELATIVE_ERROR_BOUND`].
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let idx = self.bucket_of_rank(self.rank(q));
        bucket_mid(idx).clamp(self.min, self.max)
    }

    /// The exemplar trace ids attached to the bucket holding quantile `q`
    /// (newest last); empty when no exemplar was recorded there.
    pub fn exemplars_at(&self, q: f64) -> Vec<u64> {
        if self.count == 0 {
            return Vec::new();
        }
        let idx = self.bucket_of_rank(self.rank(q)) as u16;
        self.exemplars.get(&idx).map(|r| r.iter().copied().collect()).unwrap_or_default()
    }

    /// Fold `other` into `self`: per-bucket addition (both digests share the
    /// fixed layout, so the error bound survives the merge). Exemplar rings
    /// concatenate with `other`'s treated as newer, keeping the last
    /// [`EXEMPLARS_PER_BUCKET`] per bucket.
    pub fn merge_from(&mut self, other: &QuantileDigest) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (idx, ring) in &other.exemplars {
            let mine = self.exemplars.entry(*idx).or_default();
            mine.extend(ring.iter().copied());
            while mine.len() > EXEMPLARS_PER_BUCKET {
                mine.pop_front();
            }
        }
    }

    /// The per-bucket difference `self - prev`, for windowed quantiles over
    /// a digest that only ever grows (the telemetry sampler's use). The
    /// window's min/max are approximated by the bounds of its outermost
    /// non-empty buckets, which preserves the bucket-width error bound;
    /// exemplars are taken from `self` for buckets active in the window.
    pub fn windowed_since(&self, prev: &QuantileDigest) -> QuantileDigest {
        let mut out = QuantileDigest::new();
        for (idx, (cur, old)) in self.counts.iter().zip(prev.counts.iter()).enumerate() {
            let delta = cur.saturating_sub(*old);
            if delta == 0 {
                continue;
            }
            out.counts[idx] = delta;
            out.count += delta;
            let (lo, hi) = bucket_bounds(idx);
            out.min = out.min.min(lo);
            out.max = out.max.max(hi.min(self.max));
            if let Some(ring) = self.exemplars.get(&(idx as u16)) {
                out.exemplars.insert(idx as u16, ring.clone());
            }
        }
        out.sum = self.sum.wrapping_sub(prev.sum);
        out
    }

    /// Point-in-time summary (count, sum, min/max, p50/p99/p999).
    pub fn summary(&self) -> DigestSummary {
        DigestSummary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max,
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }
}

/// A registry-attached shared digest handle (cheap `Arc` clone).
///
/// Recording takes one short uncontended mutex (a lock/unlock pair per
/// sample; it allocates only when an exemplar opens a new bucket ring), and
/// in exchange quantiles come back with a bounded ≤1.6% error plus
/// exemplars.
#[derive(Clone, Debug, Default)]
pub struct Digest(Arc<Mutex<QuantileDigest>>);

impl Digest {
    /// A free-standing digest (not attached to a registry).
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QuantileDigest> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.lock().record(v);
    }

    /// Record one sample with an exemplar trace id.
    pub fn record_with_exemplar(&self, v: u64, trace: u64) {
        self.lock().record_with_exemplar(v, trace);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.lock().count()
    }

    /// Quantile `q` (see [`QuantileDigest::quantile`]).
    pub fn quantile(&self, q: f64) -> u64 {
        self.lock().quantile(q)
    }

    /// Point-in-time summary.
    pub fn summary(&self) -> DigestSummary {
        self.lock().summary()
    }

    /// A deep copy of the current state, for windowed deltas and export.
    pub fn snapshot(&self) -> QuantileDigest {
        self.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank exact quantile over a sorted copy — the oracle the
    /// digest is measured against.
    fn exact_quantile(values: &[u64], q: f64) -> u64 {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn assert_within_bound(est: u64, exact: u64, q: f64) {
        let err = (est as f64 - exact as f64).abs() / (exact as f64).max(1.0);
        assert!(err <= 0.02, "q={q}: digest {est} vs exact {exact} → relative error {err:.4} > 2%");
    }

    #[test]
    fn small_values_are_exact() {
        let mut d = QuantileDigest::new();
        for v in 0..SUBBUCKETS {
            d.record(v);
        }
        for (i, v) in (0..SUBBUCKETS).enumerate() {
            let q = (i + 1) as f64 / SUBBUCKETS as f64;
            assert_eq!(d.quantile(q), v, "exact region must round-trip");
        }
        assert_eq!(d.min(), 0);
        assert_eq!(d.max(), SUBBUCKETS - 1);
    }

    #[test]
    fn empty_digest_reads_zero() {
        let d = QuantileDigest::new();
        assert!(d.is_empty());
        assert_eq!(d.summary(), DigestSummary::default());
        assert_eq!(d.quantile(0.99), 0);
        assert!(d.exemplars_at(0.99).is_empty());
    }

    #[test]
    fn single_sample_reports_itself_everywhere() {
        let mut d = QuantileDigest::new();
        d.record(123_456);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(d.quantile(q), 123_456, "clamped to the exact observed extrema");
        }
    }

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every value maps into a bucket whose bounds contain it, and bucket
        // index is monotone in the value.
        let mut vals: Vec<u64> = vec![0];
        for p in 0..64u32 {
            let lo = 1u64 << p;
            let hi = if p == 63 { u64::MAX } else { (1u64 << (p + 1)) - 1 };
            vals.extend([lo, lo + (hi - lo) / 2, hi]);
        }
        let mut prev_idx = 0usize;
        for v in vals {
            let idx = bucket_of(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "v={v} idx={idx} bounds=({lo},{hi})");
            assert!(idx >= prev_idx, "index must be monotone in the value (v={v})");
            prev_idx = idx;
        }
        assert_eq!(bucket_of(u64::MAX), TOTAL_BUCKETS - 1, "top bucket ends at u64::MAX");
    }

    #[test]
    fn known_distribution_quantiles_meet_bound() {
        let mut d = QuantileDigest::new();
        let values: Vec<u64> = (1..=10_000u64).collect();
        for &v in &values {
            d.record(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_within_bound(d.quantile(q), exact_quantile(&values, q), q);
        }
        assert_eq!(d.count(), 10_000);
        assert_eq!(d.sum(), 50_005_000);
    }

    #[test]
    fn huge_samples_clamp_to_observed_max() {
        let mut d = QuantileDigest::new();
        d.record(u64::MAX);
        d.record(u64::MAX - 1);
        d.record(1u64 << 63);
        // The top bucket's midpoint readout stays within the error bound of
        // the true maximum and never exceeds it.
        let p = d.quantile(0.999);
        assert!(p >= 1u64 << 63);
        let err = (u64::MAX as f64 - p as f64) / u64::MAX as f64;
        assert!(err <= RELATIVE_ERROR_BOUND, "top-bucket error {err} out of bound");
        assert_eq!(d.min(), 1u64 << 63);
    }

    #[test]
    fn exemplars_keep_most_recent_k() {
        let mut d = QuantileDigest::new();
        // Same bucket: values 1000..1000+width share one log-linear bucket.
        for t in 0..10u64 {
            d.record_with_exemplar(1_000, 0xA000 + t);
        }
        let traces = d.exemplars_at(0.5);
        assert_eq!(traces.len(), EXEMPLARS_PER_BUCKET);
        assert_eq!(traces.last(), Some(&0xA009), "newest exemplar retained last");
        assert!(!traces.contains(&0xA000), "oldest displaced");
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let a_vals: Vec<u64> = (1..500u64).map(|i| i * 37).collect();
        let b_vals: Vec<u64> = (1..300u64).map(|i| i * 91 + 7).collect();
        let mut a = QuantileDigest::new();
        let mut b = QuantileDigest::new();
        let mut one = QuantileDigest::new();
        for &v in &a_vals {
            a.record(v);
            one.record(v);
        }
        for &v in &b_vals {
            b.record(v);
            one.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), one.count());
        assert_eq!(a.sum(), one.sum());
        assert_eq!(a.min(), one.min());
        assert_eq!(a.max(), one.max());
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(a.quantile(q), one.quantile(q), "merge is exact per-bucket addition");
        }
    }

    #[test]
    fn merge_carries_exemplars_newest_wins() {
        let mut a = QuantileDigest::new();
        let mut b = QuantileDigest::new();
        for t in 0..3u64 {
            a.record_with_exemplar(50_000, t);
        }
        for t in 10..13u64 {
            b.record_with_exemplar(50_000, t);
        }
        a.merge_from(&b);
        let traces = a.exemplars_at(0.5);
        assert_eq!(traces.len(), EXEMPLARS_PER_BUCKET);
        assert_eq!(traces.last(), Some(&12), "other's exemplars are newer");
    }

    #[test]
    fn windowed_since_isolates_the_new_samples() {
        let mut d = QuantileDigest::new();
        for v in [10u64, 20, 30] {
            d.record(v);
        }
        let prev = d.clone();
        for v in [1_000u64, 2_000, 3_000] {
            d.record_with_exemplar(v, 0xBEEF);
        }
        let w = d.windowed_since(&prev);
        assert_eq!(w.count(), 3);
        assert!(w.quantile(0.01) >= 900, "old cheap samples must not leak into the window");
        assert!(!w.exemplars_at(0.99).is_empty());
        // Empty window.
        let none = d.windowed_since(&d.clone());
        assert_eq!(none.count(), 0);
        assert_eq!(none.quantile(0.99), 0);
    }

    #[test]
    fn shared_handle_aggregates_across_clones() {
        let d = Digest::new();
        let d2 = d.clone();
        d.record(5);
        d2.record_with_exemplar(7, 0xFACE);
        assert_eq!(d.count(), 2);
        assert_eq!(d.snapshot().exemplars_at(1.0), vec![0xFACE]);
        let s = d.summary();
        assert_eq!((s.min, s.max), (5, 7));
    }
}
