//! Perf-baseline regression gate: bench binaries record their headline
//! metrics as a [`Baseline`] (`BENCH_<name>.json`), and
//! `scripts/bench_baseline.sh` compares a fresh run against the committed
//! baseline at the repo root, failing when any **gated** line differs.
//!
//! The format is deliberately tiny and hand-rolled (the workspace has no
//! JSON dependency), one metric per line:
//!
//! ```json
//! {
//!   "bench": "telemetry",
//!   "mode": "smoke",
//!   "metrics": {
//!     "beacons_tx": {"value": 4800, "gate": true},
//!     "wall_ms": {"value": 120, "gate": false}
//!   }
//! }
//! ```
//!
//! That layout is the gate's contract: the script diffs the `bench` and
//! `mode` lines and every `"gate": true` line of the two files, so a gated
//! value must match to the last printed digit. Simulation-derived metrics
//! are deterministic, so the gate doubles as a determinism regression
//! check. Wall-clock metrics are recorded with `gate: false`
//! (informational) and never compared.

use std::fmt::Write as _;
use std::path::Path;

/// One recorded metric: its value, and whether a change fails the gate.
#[derive(Clone, Copy, Debug)]
pub struct BaselineMetric {
    /// The measured value.
    pub value: f64,
    /// Whether a changed value fails the comparison.
    pub gate: bool,
}

/// A bench run's headline metrics, serializable to `BENCH_<name>.json`.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Bench binary name (`telemetry`, `scale`, `reliability`).
    pub bench: String,
    /// Run mode: `smoke` or `full`. Committed baselines are smoke-mode.
    pub mode: String,
    /// Metric name → value/gate, in insertion order.
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

    /// Records a gated metric: any change to its value fails the gate.
    pub fn gate(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), BaselineMetric { value, gate: true }));
    }

    /// Records an informational (ungated) metric, e.g. wall-clock timings.
    pub fn info(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), BaselineMetric { value, gate: false }));
    }

    /// Renders the baseline as pretty-printed JSON, one metric per line.
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
                "    \"{}\": {{\"value\": {}, \"gate\": {}}}{}",
                name,
                fmt_f64(m.value),
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

    /// `scripts/bench_baseline.sh` greps the `bench` and `mode` lines and the
    /// `"gate": true` lines, so each metric must sit on one line with its
    /// flag, and only the last one may lack a trailing comma.
    #[test]
    fn each_metric_is_one_line_with_its_gate_flag() {
        let mut b = Baseline::new("telemetry", true);
        b.gate("beacons_tx", 4800.0);
        b.info("wall_ms", 120.5);
        assert_eq!(
            b.to_json(),
            "{\n  \"bench\": \"telemetry\",\n  \"mode\": \"smoke\",\n  \"metrics\": {\n    \
             \"beacons_tx\": {\"value\": 4800, \"gate\": true},\n    \
             \"wall_ms\": {\"value\": 120.5, \"gate\": false}\n  }\n}\n"
        );
    }
}
