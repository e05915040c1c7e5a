//! omnibench: the repository benchmark — four Omni fleet workloads,
//! end-to-end metrics from an untraced run and per-layer attribution from a
//! traced one. See README.md for the workloads, metrics and bounds.
//!
//! ```text
//! omnibench --seed <u64> [--workload <name>] [--seconds <n>] [--trace [0|1]]
//! ```
//!
//! Prints one `workload metric value unit` line per metric, writes
//! `target/omnibench/results.json`, and ends with one JSON line holding the
//! gated metrics. Exits 1 when a correctness check fails, 2 on bad usage.

mod measure;
mod rng;
mod run;
mod trace;
mod workloads;

use std::fmt::Write as _;

use measure::{CountingAlloc, Metric};
use run::Report;
use workloads::Workload;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: omnibench --seed <u64> [--workload <name>] [--seconds <n>] [--trace [0|1]]\n\
                     workloads: beacon-bare-10k, crowd-400, cluster-data, mobile-relay (default: all)";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workloads: Workload::ALL.to_vec(), seed: 1, seconds: 15, trace: false };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let w =
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                out.workloads = vec![w];
            }
            "--seed" => {
                let v = value("--seed")?;
                out.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                out.seconds = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                out.trace = true;
                if let Some(v @ ("0" | "1")) = it.peek().map(|s| s.as_str()) {
                    out.trace = v == "1";
                    it.next();
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": .., "unit": ..}, ..}`, with `"samples": ..` after a
/// percentile's unit when `samples` is set. The result line leaves sample
/// counts out: its metric objects hold exactly a value and a unit.
fn json_metrics(metrics: &[Metric], samples: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let n = match m.samples {
                Some(n) if samples => format!(", \"samples\": {n}"),
                _ => String::new(),
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{n}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_line(w: Workload, m: &Metric) {
    let samples = m.samples.map_or(String::new(), |n| format!(" n={n}"));
    println!("{} {} {} {}{samples}", w.name(), m.name, m.value, m.unit);
}

/// Appends a failure for every gated metric that is not a finite number.
fn check_finite(r: &mut Report) {
    let bad: Vec<String> = r
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} is not a finite number", m.name))
        .collect();
    r.failures.extend(bad);
}

fn results_json(args: &Args, reports: &[Report]) -> String {
    let workloads: Vec<String> = reports
        .iter()
        .map(|r| {
            let failures: Vec<String> = r.failures.iter().map(|f| json_str(f)).collect();
            format!(
                "{{\"name\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
                 \"failures\": [{}], \"metrics\": {}, \"simulated\": {}, \"info\": {}}}",
                json_str(r.workload.name()),
                r.failures.is_empty(),
                r.attempted,
                r.failed,
                failures.join(", "),
                json_metrics(&r.metrics, true),
                json_metrics(&r.simulated, true),
                json_metrics(&r.info, true)
            )
        })
        .collect();
    format!(
        "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workloads\": [{}]}}\n",
        args.seed,
        args.seconds,
        args.trace,
        workloads.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("omnibench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut reports = Vec::new();
    for &w in &args.workloads {
        let mut r = if args.trace {
            run::traced(w, args.seed, 1)
        } else {
            run::untraced(w, args.seed, args.seconds, 1)
        };
        check_finite(&mut r);
        for m in &r.metrics {
            print_line(w, m);
        }
        for m in r.simulated.iter().chain(&r.info) {
            if !r.metrics.iter().any(|g| g.name == m.name) {
                print_line(w, m);
            }
        }
        for f in &r.failures {
            eprintln!("omnibench: {}: check failed: {f}", w.name());
        }
        reports.push(r);
    }
    let results = results_json(&args, &reports);
    if let Err(e) = std::fs::create_dir_all("target/omnibench")
        .and_then(|()| std::fs::write("target/omnibench/results.json", results))
    {
        eprintln!("omnibench: cannot write target/omnibench/results.json: {e}");
    }
    let correct = reports.iter().all(|r| r.failures.is_empty());
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let metrics: Vec<Metric> = match reports.as_slice() {
        [one] => one.metrics.clone(),
        many => many
            .iter()
            .flat_map(|r| {
                r.metrics.iter().map(|m| Metric {
                    name: format!("{}/{}", r.workload.name(), m.name),
                    ..m.clone()
                })
            })
            .collect(),
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        json_metrics(&metrics, false)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_and_the_short_forms() {
        let a = args(&["--workload", "crowd-400", "--seed", "7", "--seconds", "3", "--trace", "0"])
            .expect("valid");
        assert_eq!((a.workloads, a.seed, a.seconds, a.trace), (vec![Workload::Crowd], 7, 3, false));
        let a = args(&["--trace", "--seed", "9"]).expect("bare --trace");
        assert!(a.trace && a.workloads.len() == 4 && a.seed == 9);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    /// `(name, unit)` of every metric in one section of BENCHMARK.json, in
    /// order.
    fn manifest(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let body = &text[text.find(&format!("\"{section}\"")).expect("section present")..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let v = &entry[entry.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5..];
            v[..v.find('"').expect("closing quote")].to_string()
        };
        body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
    }

    /// The result line's metrics, exactly those of the manifest section.
    fn assert_matches_manifest(r: &Report, section: &str) {
        let got: Vec<(String, String)> =
            r.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
        assert_eq!(got, manifest(section), "{}: {section}", r.workload.name());
        let line = json_metrics(&r.metrics, false);
        assert!(!line.contains("samples"), "result-line metrics hold only value and unit");
    }

    /// A 1/20-scale run of each workload repeats its simulated metrics
    /// exactly under one seed and changes them under another.
    #[test]
    fn small_runs_are_deterministic_per_seed() {
        for w in Workload::ALL {
            let a = run::untraced(w, 11, 0, 20);
            let b = run::untraced(w, 11, 0, 20);
            let c = run::untraced(w, 12, 0, 20);
            assert!(a.failures.is_empty(), "{}: {:?}", w.name(), a.failures);
            assert_matches_manifest(&a, "end_to_end");
            assert!(!a.simulated.is_empty());
            assert_eq!(a.simulated, b.simulated, "{}: same seed, same results", w.name());
            assert_ne!(a.simulated, c.simulated, "{}: the seed must matter", w.name());
        }
    }

    /// The traced run reproduces the untraced run's simulated metrics (the
    /// check is built in), reports every layer, and gates only metrics
    /// that every workload measures.
    #[test]
    fn small_traced_runs_match_and_report_every_layer() {
        for w in Workload::ALL {
            let r = run::traced(w, 5, 20);
            assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
            assert_matches_manifest(&r, "per_layer");
            for m in &r.metrics {
                // A percentile reads 0 when its sample cannot support it,
                // as a 1/20-scale run's few steps cannot a p99; full runs
                // take at least 1000 steps.
                let unsupported = m.samples.is_some_and(|n| n < 1000);
                assert!(m.value != 0.0 || unsupported, "{}: gated {} reads 0", w.name(), m.name);
            }
            for prefix in ["sim.", "world.", "core.", "wire.", "alloc.", "trace."] {
                let mut all = r.metrics.iter().chain(&r.info);
                assert!(all.any(|m| m.name.starts_with(prefix)), "{prefix}");
            }
        }
    }
}
