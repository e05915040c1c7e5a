//! Perf-baseline regression gate: bench binaries record their headline
//! metrics as a [`Baseline`] (`BENCH_<name>.json`), and
//! `scripts/bench_baseline.sh` compares a fresh run against the committed
//! baseline at the repo root, failing when any **gated** metric drifts
//! outside its tolerance band.
//!
//! The format is deliberately tiny and hand-rolled (the workspace has no
//! JSON dependency):
//!
//! ```json
//! {
//!   "bench": "telemetry",
//!   "mode": "smoke",
//!   "metrics": {
//!     "beacons_tx": {"value": 4800, "tol_pct": 0, "gate": true},
//!     "wall_ms": {"value": 120, "tol_pct": 0, "gate": false}
//!   }
//! }
//! ```
//!
//! Simulation-derived metrics are deterministic, so their tolerance is
//! usually zero — the gate then doubles as a determinism regression check.
//! Wall-clock metrics are recorded with `gate: false` (informational).
//! Comparing baselines from different modes (smoke vs. full) is an explicit
//! error, not a silent pass.

use std::fmt::Write as _;
use std::path::Path;

/// One recorded metric: its value, tolerance band, and whether drift fails
/// the gate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaselineMetric {
    /// The measured value.
    pub value: f64,
    /// Allowed drift, as a percentage of the committed value (0 = exact).
    pub tol_pct: f64,
    /// Whether drift outside the band fails the comparison.
    pub gate: bool,
}

/// A bench run's headline metrics, serializable to `BENCH_<name>.json`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Baseline {
    /// Bench binary name (`telemetry`, `scale`, `reliability`).
    pub bench: String,
    /// Run mode: `smoke` or `full`. Committed baselines are smoke-mode.
    pub mode: String,
    /// Metric name → value/tolerance/gate, in insertion order.
    pub metrics: Vec<(String, BaselineMetric)>,
}

impl Baseline {
    /// An empty baseline for one bench run.
    pub fn new(bench: &str, smoke: bool) -> Self {
        Baseline {
            bench: bench.to_string(),
            mode: if smoke { "smoke" } else { "full" }.to_string(),
            metrics: Vec::new(),
        }
    }

    /// Records a gated metric with the given tolerance band.
    pub fn gate(&mut self, name: &str, value: f64, tol_pct: f64) {
        self.metrics.push((name.to_string(), BaselineMetric { value, tol_pct, gate: true }));
    }

    /// Records an informational (ungated) metric, e.g. wall-clock timings.
    pub fn info(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), BaselineMetric { value, tol_pct: 0.0, gate: false }));
    }

    /// The metric named `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<BaselineMetric> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, m)| *m)
    }

    /// Renders the baseline as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"{}\",", self.bench);
        let _ = writeln!(out, "  \"mode\": \"{}\",", self.mode);
        let _ = writeln!(out, "  \"metrics\": {{");
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"value\": {}, \"tol_pct\": {}, \"gate\": {}}}{}",
                name,
                fmt_f64(m.value),
                fmt_f64(m.tol_pct),
                m.gate,
                comma
            );
        }
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }

    /// Writes the baseline to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Parses a baseline previously written by [`Baseline::to_json`].
    pub fn parse(s: &str) -> Result<Baseline, String> {
        let mut p = Parser { s: s.as_bytes(), i: 0 };
        p.skip_ws();
        p.expect(b'{')?;
        let mut out = Baseline::default();
        loop {
            p.skip_ws();
            if p.eat(b'}') {
                break;
            }
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            match key.as_str() {
                "bench" => out.bench = p.string()?,
                "mode" => out.mode = p.string()?,
                "metrics" => {
                    p.expect(b'{')?;
                    loop {
                        p.skip_ws();
                        if p.eat(b'}') {
                            break;
                        }
                        let name = p.string()?;
                        p.skip_ws();
                        p.expect(b':')?;
                        p.skip_ws();
                        out.metrics.push((name, p.metric()?));
                        p.skip_ws();
                        let _ = p.eat(b',');
                    }
                }
                other => return Err(format!("unknown key {other:?}")),
            }
            p.skip_ws();
            let _ = p.eat(b',');
        }
        if out.bench.is_empty() || out.mode.is_empty() {
            return Err("missing bench or mode".into());
        }
        Ok(out)
    }

    /// Reads and parses a baseline file.
    pub fn read(path: &Path) -> Result<Baseline, String> {
        let s = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&s).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Compares a fresh run (`self`) against the committed baseline.
    /// Returns the violation messages — empty means the gate passes.
    /// Comparing different benches or modes is itself a violation, and so is
    /// a gated metric the fresh run emits but the committed baseline lacks:
    /// a new gate must be recorded before it can pass.
    pub fn compare_against(&self, committed: &Baseline) -> Vec<String> {
        let mut bad = Vec::new();
        if self.bench != committed.bench {
            bad.push(format!(
                "bench mismatch: fresh {:?} vs committed {:?}",
                self.bench, committed.bench
            ));
            return bad;
        }
        if self.mode != committed.mode {
            bad.push(format!(
                "mode mismatch: fresh {:?} vs committed {:?} — compare like modes \
                 (committed baselines are smoke-mode; re-run with --smoke or --update)",
                self.mode, committed.mode
            ));
            return bad;
        }
        for (name, want) in &committed.metrics {
            if !want.gate {
                continue;
            }
            let Some(got) = self.get(name) else {
                bad.push(format!("{}/{name}: gated metric missing from fresh run", self.bench));
                continue;
            };
            // The band is relative to the committed value — except when
            // that value is zero, where a relative band degenerates (any
            // percentage of 0 is 0, and percent drift *from* 0 is NaN/∞).
            // A zero baseline instead reads `tol_pct` as an absolute
            // tolerance on the delta, so "zero drops ± 2" is expressible.
            // The 1e-9 floor keeps exact-zero tolerances honest for f64.
            let band = if want.value == 0.0 {
                (want.tol_pct / 100.0).max(1e-9)
            } else {
                (want.value.abs() * want.tol_pct / 100.0).max(1e-9)
            };
            let drift = (got.value - want.value).abs();
            // Negated comparison so a NaN fresh value (drift = NaN) fails
            // the gate loudly instead of slipping through `drift > band`
            // (`drift >= band` would misbehave the same way, hence the
            // lint allow).
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(drift <= band) {
                let kind = if want.value == 0.0 { "zero baseline, absolute" } else { "relative" };
                bad.push(format!(
                    "{}/{name}: {} drifted outside ±{}% of {} (|Δ| = {}, {kind} band = {})",
                    self.bench,
                    fmt_f64(got.value),
                    fmt_f64(want.tol_pct),
                    fmt_f64(want.value),
                    fmt_f64(drift),
                    fmt_f64(band)
                ));
            }
        }
        for (name, got) in &self.metrics {
            if got.gate && committed.get(name).is_none() {
                bad.push(format!(
                    "{}/{name}: gated metric missing from the committed baseline — record it \
                     with scripts/bench_baseline.sh --update",
                    self.bench
                ));
            }
        }
        bad
    }
}

/// Formats a float the way the file stores it: integral values without a
/// trailing `.0`, everything else with full precision.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// A tiny recursive-descent parser for the baseline subset of JSON.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.i < self.s.len() && self.s[self.i] == c {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.i;
        while self.i < self.s.len() && self.s[self.i] != b'"' {
            self.i += 1;
        }
        let out = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
        self.expect(b'"')?;
        Ok(out)
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.i;
        while self.i < self.s.len()
            && (self.s[self.i].is_ascii_digit() || b"+-.eE".contains(&self.s[self.i]))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn bool(&mut self) -> Result<bool, String> {
        if self.s[self.i..].starts_with(b"true") {
            self.i += 4;
            Ok(true)
        } else if self.s[self.i..].starts_with(b"false") {
            self.i += 5;
            Ok(false)
        } else {
            Err(format!("expected bool at byte {}", self.i))
        }
    }

    fn metric(&mut self) -> Result<BaselineMetric, String> {
        self.expect(b'{')?;
        let mut m = BaselineMetric { value: 0.0, tol_pct: 0.0, gate: false };
        loop {
            self.skip_ws();
            if self.eat(b'}') {
                break;
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            match key.as_str() {
                "value" => m.value = self.number()?,
                "tol_pct" => m.tol_pct = self.number()?,
                "gate" => m.gate = self.bool()?,
                other => return Err(format!("unknown metric key {other:?}")),
            }
            self.skip_ws();
            let _ = self.eat(b',');
        }
        Ok(m)
    }
}

/// The fresh-run output path (`target/obs/BENCH_<name>.json`).
pub fn fresh_path(bench: &str) -> std::path::PathBuf {
    std::path::Path::new("target").join("obs").join(format!("BENCH_{bench}.json"))
}

/// Writes a fresh baseline to [`fresh_path`] and prints where it went.
pub fn emit(b: &Baseline) {
    let path = fresh_path(&b.bench);
    match b.write(&path) {
        Ok(()) => println!("bench baseline: {}", path.display()),
        Err(e) => eprintln!("bench baseline write failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        let mut b = Baseline::new("telemetry", true);
        b.gate("beacons_tx", 4800.0, 0.0);
        b.gate("drops", 123.0, 25.0);
        b.info("wall_ms", 120.5);
        b
    }

    #[test]
    fn json_round_trips() {
        let b = sample();
        let parsed = Baseline::parse(&b.to_json()).expect("parse");
        assert_eq!(parsed, b);
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        assert!(sample().compare_against(&sample()).is_empty());
    }

    #[test]
    fn drift_outside_the_band_fails_with_a_message() {
        let mut fresh = sample();
        fresh.metrics[0].1.value = 4801.0; // tol 0%: any drift fails
        fresh.metrics[1].1.value = 150.0; // tol 25% of 123 ≈ 30.75: inside
        let bad = fresh.compare_against(&sample());
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("beacons_tx"), "{bad:?}");
    }

    #[test]
    fn ungated_metrics_never_fail() {
        let mut fresh = sample();
        fresh.metrics[2].1.value = 9999.0;
        assert!(fresh.compare_against(&sample()).is_empty());
    }

    #[test]
    fn missing_gated_metric_fails() {
        let mut fresh = sample();
        fresh.metrics.remove(0);
        let bad = fresh.compare_against(&sample());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("missing"), "{bad:?}");
    }

    #[test]
    fn new_gated_metric_missing_from_committed_fails() {
        let mut fresh = sample();
        fresh.gate("new_gate", 1.0, 0.0);
        fresh.info("new_info", 2.0);
        let bad = fresh.compare_against(&sample());
        assert_eq!(bad.len(), 1, "only the new gate fails: {bad:?}");
        assert!(bad[0].contains("new_gate") && bad[0].contains("--update"), "{bad:?}");
    }

    #[test]
    fn mode_mismatch_is_an_explicit_error() {
        let mut fresh = sample();
        fresh.mode = "full".to_string();
        let bad = fresh.compare_against(&sample());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("mode mismatch"), "{bad:?}");
    }

    #[test]
    fn zero_baseline_uses_an_absolute_band() {
        // "Zero drops, tolerate |Δ| ≤ 2" — a relative band would collapse
        // to the 1e-9 floor and reject every nonzero fresh value.
        let mut committed = Baseline::new("scale", true);
        committed.gate("drops", 0.0, 200.0); // 200% of… nothing: |Δ| ≤ 2 absolute

        let mut fresh = Baseline::new("scale", true);
        fresh.gate("drops", 2.0, 200.0);
        assert!(fresh.compare_against(&committed).is_empty(), "inside the absolute band");

        let mut fresh = Baseline::new("scale", true);
        fresh.gate("drops", 2.5, 200.0);
        let bad = fresh.compare_against(&committed);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("zero baseline"), "{bad:?}");
    }

    #[test]
    fn zero_baseline_with_zero_tolerance_still_accepts_exact_zero() {
        let mut committed = Baseline::new("scale", true);
        committed.gate("drops", 0.0, 0.0);
        let mut fresh = Baseline::new("scale", true);
        fresh.gate("drops", 0.0, 0.0);
        assert!(fresh.compare_against(&committed).is_empty());
        fresh.metrics[0].1.value = 1.0;
        assert_eq!(fresh.compare_against(&committed).len(), 1);
    }

    #[test]
    fn nan_fresh_value_fails_the_gate() {
        let committed = sample();
        let mut fresh = sample();
        fresh.metrics[1].1.value = f64::NAN; // 25% band — NaN must not sneak through
        let bad = fresh.compare_against(&committed);
        assert_eq!(bad.len(), 1, "NaN must fail, not silently pass: {bad:?}");
        assert!(bad[0].contains("drops"), "{bad:?}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Baseline::parse("not json").is_err());
        assert!(Baseline::parse("{}").is_err(), "missing bench/mode");
    }
}
