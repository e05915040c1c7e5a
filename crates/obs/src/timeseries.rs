//! Fixed-capacity time series of windowed samples.
//!
//! Everything else in `omni-obs` is a lifetime aggregate — a counter's final
//! value, a digest's cumulative percentiles.  [`SeriesRing`] adds the time
//! axis: a bounded, dependency-free ring of periodic [`Sample`]s, each
//! covering one sampling window.  One sample shape serves every metric kind:
//!
//! * **counter deltas** — `sum` holds the windowed delta, so
//!   [`Sample::rate_per_sec`] is the windowed rate;
//! * **gauge watermarks** — `min`/`max` hold the window's low/high marks and
//!   `sum` the value at the window's end;
//! * **quantile digests** — `count`/`sum` hold the window's sample count
//!   and total, so [`Sample::mean`] is the windowed mean.
//!
//! When the ring is full it **downsamples in place**: adjacent samples merge
//! pairwise (sums and counts add, watermarks widen, windows concatenate), so
//! the series always spans the whole run at the finest resolution the
//! capacity allows — recent history is fine-grained, old history coarse, and
//! totals are preserved exactly.

/// One windowed observation: the half-open sim-time window
/// `(t_us - window_us, t_us]` and what happened inside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Window end, in microseconds of sim time.
    pub t_us: u64,
    /// Window width in microseconds.
    pub window_us: u64,
    /// Number of observations folded into this sample.
    pub count: u64,
    /// Sum of the observations (a counter delta, a gauge's closing value, or
    /// a digest window's total).
    pub sum: f64,
    /// Smallest observation in the window (a gauge's low-water mark).
    pub min: f64,
    /// Largest observation in the window (a gauge's high-water mark).
    pub max: f64,
}

impl Sample {
    /// A single-observation sample: one value covering one window.
    pub fn point(t_us: u64, window_us: u64, v: f64) -> Self {
        Sample { t_us, window_us, count: 1, sum: v, min: v, max: v }
    }

    /// Start of the window in microseconds (saturating at zero).
    pub fn start_us(&self) -> u64 {
        self.t_us.saturating_sub(self.window_us)
    }

    /// The windowed rate: `sum` per second of window.
    pub fn rate_per_sec(&self) -> f64 {
        if self.window_us == 0 {
            return 0.0;
        }
        self.sum / (self.window_us as f64 / 1_000_000.0)
    }

    /// Folds two adjacent samples into one covering both windows.
    fn merge(a: Sample, b: Sample) -> Sample {
        Sample {
            t_us: a.t_us.max(b.t_us),
            window_us: a.window_us + b.window_us,
            count: a.count + b.count,
            sum: a.sum + b.sum,
            min: a.min.min(b.min),
            max: a.max.max(b.max),
        }
    }
}

/// A bounded, chronological ring of [`Sample`]s that downsamples instead of
/// discarding when full.
///
/// `push` appends in time order; when the buffer reaches capacity, adjacent
/// samples are merged pairwise (halving the count, doubling old windows) and
/// the push proceeds.  Each sample self-describes its window width, so a
/// series may legitimately hold coarse old samples next to fine new ones.
#[derive(Clone, Debug)]
pub struct SeriesRing {
    buf: Vec<Sample>,
    capacity: usize,
    /// Number of pairwise-merge passes performed so far.
    downsamples: u32,
}

impl SeriesRing {
    /// A ring holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (downsampling needs room to merge).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "series capacity must be at least 2");
        SeriesRing { buf: Vec::with_capacity(capacity), capacity, downsamples: 0 }
    }

    /// Appends a sample, downsampling in place first when full.
    ///
    /// # Panics
    ///
    /// Panics if `s` does not follow the last retained sample in time.
    pub fn push(&mut self, s: Sample) {
        if let Some(last) = self.buf.last() {
            assert!(s.t_us >= last.t_us, "samples must arrive in time order");
        }
        if self.buf.len() == self.capacity {
            let mut merged = Vec::with_capacity(self.capacity);
            let mut it = self.buf.drain(..);
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => merged.push(Sample::merge(a, b)),
                    None => merged.push(a),
                }
            }
            drop(it);
            self.buf = merged;
            self.downsamples += 1;
        }
        self.buf.push(s);
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> &[Sample] {
        &self.buf
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of retained samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many pairwise-merge passes have run (0 = full resolution).
    pub fn downsamples(&self) -> u32 {
        self.downsamples
    }

    /// The coarsest retained window width in microseconds (0 when empty):
    /// the ring's effective time resolution after downsampling. Two events
    /// separated by less than this may occupy (and therefore qualify) the
    /// same merged sample, so [`SeriesRing::spans_where`] cannot tell them
    /// apart — callers reconstructing fault windows must treat span
    /// boundaries as accurate only to within this width.
    pub fn resolution_us(&self) -> u64 {
        self.buf.iter().map(|s| s.window_us).max().unwrap_or(0)
    }

    /// Sum of every retained sample's `sum` — invariant under downsampling,
    /// so for a counter series this is the total delta over the whole run.
    pub fn total(&self) -> f64 {
        self.buf.iter().map(|s| s.sum).sum()
    }

    /// Merges consecutive samples satisfying `pred` into contiguous
    /// `(start_us, end_us)` spans.  This is the reconstruction primitive: a
    /// fault window injected at `[a, b)` shows up as a span whose bounds
    /// match `a` and `b` to within one sampling window.
    ///
    /// **Resolution caveat.** After capacity overflow the ring holds
    /// merged samples with widened windows, and a merged sample qualifies
    /// if *anything* inside its window did.  Two distinct fault windows
    /// separated by a gap smaller than [`SeriesRing::resolution_us`] can
    /// therefore land in adjacent qualifying samples and fuse into one
    /// span.  A quiet gap of at least *twice* the resolution always
    /// survives (any tiling of windows no wider than the resolution must
    /// then contain one wholly-quiet, non-qualifying sample); narrower
    /// gaps depend on how the merge pairs happened to align.  Consumers
    /// needing exact windows must size the ring capacity to the run
    /// length or check `resolution_us()` before trusting span counts.
    pub fn spans_where(&self, mut pred: impl FnMut(&Sample) -> bool) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for s in &self.buf {
            if !pred(s) {
                continue;
            }
            match out.last_mut() {
                // Extend the open span when this window touches it.
                Some((_, end)) if s.start_us() <= *end => *end = (*end).max(s.t_us),
                _ => out.push((s.start_us(), s.t_us)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(t_us: u64, v: f64) -> Sample {
        Sample::point(t_us, 100, v)
    }

    #[test]
    fn samples_accumulate_in_order() {
        let mut ring = SeriesRing::new(8);
        for t in 1..=4u64 {
            ring.push(point(t * 100, t as f64));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.downsamples(), 0);
        assert_eq!(ring.total(), 1.0 + 2.0 + 3.0 + 4.0);
        assert_eq!(ring.samples()[0].start_us(), 0);
        assert_eq!(ring.samples()[0].rate_per_sec(), 10_000.0, "1 per 100us window");
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_pushes_panic() {
        let mut ring = SeriesRing::new(4);
        ring.push(point(200, 1.0));
        ring.push(point(100, 1.0));
    }

    #[test]
    fn full_ring_downsamples_preserving_totals_and_watermarks() {
        let mut ring = SeriesRing::new(4);
        for t in 1..=4u64 {
            ring.push(point(t * 100, t as f64));
        }
        // The fifth push first merges (1,2) and (3,4), then appends.
        ring.push(point(500, 9.0));
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.downsamples(), 1);
        let s = ring.samples();
        assert_eq!((s[0].t_us, s[0].window_us, s[0].count), (200, 200, 2));
        assert_eq!((s[0].sum, s[0].min, s[0].max), (3.0, 1.0, 2.0));
        assert_eq!((s[1].sum, s[1].min, s[1].max), (7.0, 3.0, 4.0));
        assert_eq!(s[2], point(500, 9.0));
        assert_eq!(ring.total(), 1.0 + 2.0 + 3.0 + 4.0 + 9.0, "downsampling never loses mass");
    }

    #[test]
    fn repeated_overflow_keeps_the_whole_run_within_capacity() {
        let mut ring = SeriesRing::new(4);
        for t in 1..=100u64 {
            ring.push(point(t * 100, 1.0));
        }
        assert!(ring.len() <= 4);
        assert!(ring.downsamples() > 1);
        assert_eq!(ring.total(), 100.0);
        // Chronological, and the span covers the whole run.
        let s = ring.samples();
        assert!(s.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        assert_eq!(s.last().unwrap().t_us, 10_000);
    }

    #[test]
    fn odd_length_downsample_keeps_the_tail_sample() {
        let mut ring = SeriesRing::new(5);
        for t in 1..=5u64 {
            ring.push(point(t * 100, t as f64));
        }
        ring.push(point(600, 6.0)); // merge pass over 5 samples: 2 pairs + tail
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.samples()[2], point(500, 5.0), "odd tail survives unmerged");
        assert_eq!(ring.total(), 21.0);
    }

    #[test]
    fn spans_where_merges_contiguous_windows() {
        let mut ring = SeriesRing::new(16);
        // Activity in windows ending at 200-400 and 800, quiet elsewhere.
        for (t, v) in [
            (100, 0.0),
            (200, 1.0),
            (300, 2.0),
            (400, 1.0),
            (500, 0.0),
            (600, 0.0),
            (700, 0.0),
            (800, 5.0),
        ] {
            ring.push(point(t, v));
        }
        let spans = ring.spans_where(|s| s.sum > 0.0);
        assert_eq!(spans, vec![(100, 400), (700, 800)]);
        assert!(ring.spans_where(|s| s.sum > 100.0).is_empty());
    }

    #[test]
    fn spans_survive_downsampling_of_the_active_region() {
        let mut ring = SeriesRing::new(4);
        // 12 windows of 100us; activity only in windows 5..=8 (t in (400, 800]).
        for t in 1..=12u64 {
            let v = if (5..=8).contains(&t) { 1.0 } else { 0.0 };
            ring.push(point(t * 100, v));
        }
        let spans = ring.spans_where(|s| s.sum > 0.0);
        assert_eq!(spans.len(), 1, "one contiguous active span: {spans:?}");
        let (start, end) = spans[0];
        // Boundaries blur by at most the (coarsened) window width.
        assert!(start <= 400 && end >= 800, "span must cover the activity: {spans:?}");
    }

    #[test]
    fn overflow_fusion_is_bounded_and_surfaced_by_resolution() {
        // Regression for span fusion at ring-capacity overflow: two
        // distinct one-window fault windows (ending at 100 and 300)
        // separated by one quiet window.  At full resolution they are two
        // spans with exact bounds.
        let mut fine = SeriesRing::new(16);
        for (t, v) in [(100, 1.0), (200, 0.0), (300, 1.0), (400, 0.0), (500, 0.0)] {
            fine.push(point(t, v));
        }
        assert_eq!(fine.resolution_us(), 100, "no downsampling: native resolution");
        assert_eq!(fine.spans_where(|s| s.sum > 0.0), vec![(0, 100), (200, 300)]);

        // The same stream through a capacity-4 ring overflows and merges
        // pairwise: (100,200) and (300,400) each become one qualifying
        // 200us sample, and the spans fuse — the gap (100us) is below the
        // coarsened resolution, which the ring now surfaces.
        let mut coarse = SeriesRing::new(4);
        for (t, v) in [(100, 1.0), (200, 0.0), (300, 1.0), (400, 0.0), (500, 0.0)] {
            coarse.push(point(t, v));
        }
        assert_eq!(coarse.downsamples(), 1);
        assert_eq!(coarse.resolution_us(), 200, "overflow must surface the coarsened width");
        let spans = coarse.spans_where(|s| s.sum > 0.0);
        assert_eq!(spans, vec![(0, 400)], "sub-resolution gap fuses (documented)");
        // Even fused, the span is conservative: it covers both true windows.
        assert!(spans[0].0 <= 100 && spans[0].1 >= 300);

        // A gap of at least 2x the resolution always survives a merge
        // pass, whatever the pair alignment.
        let mut wide = SeriesRing::new(4);
        for (t, v) in [(100, 1.0), (200, 0.0), (300, 0.0), (400, 0.0), (500, 0.0), (600, 1.0)] {
            wide.push(point(t, v));
        }
        assert_eq!(wide.resolution_us(), 200);
        let spans = wide.spans_where(|s| s.sum > 0.0);
        assert_eq!(spans.len(), 2, "400us quiet gap >= 2x200us resolution: {spans:?}");
    }

    #[test]
    fn gauge_style_samples_carry_watermarks() {
        let mut ring = SeriesRing::new(4);
        ring.push(Sample { t_us: 100, window_us: 100, count: 1, sum: 2.0, min: 0.0, max: 9.0 });
        let s = ring.samples()[0];
        assert_eq!((s.min, s.max), (0.0, 9.0));
    }
}
