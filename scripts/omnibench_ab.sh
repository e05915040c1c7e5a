#!/usr/bin/env bash
# A/B comparison of omnibench workloads: a base revision against the
# working tree. Run from anywhere in the repo:
#
#   scripts/omnibench_ab.sh <base-rev> <workloads> <seed> [pairs]
#
# <workloads> is one workload, a comma-separated list of them, or `all`
# (every workload BENCHMARK.json names, in its order).
#
# Exports <base-rev> into target/ab/<sha>/ (removed on exit) and builds
# omnibench there and in the working tree, once each, into its own
# CARGO_TARGET_DIR under target/ab/. Then, workload by workload, runs
# <pairs> (default 10) alternating pairs of BENCHMARK.json's command for its
# run_seconds, flipping which side runs first every pair. After each
# workload's pairs it prints one table: for every end-to-end metric, each
# side's median and quartiles, the change/base ratio of the medians, how
# many pairs each side won (ties count for neither), whether the medians
# differ by more than the base's interquartile range, and whether the
# change's median is within the metric's BENCHMARK.json bound: `yes` unless
# it is worse than the base's median, in the direction `better` names, by
# more than `bound` (a fraction of the base's median), `NO` then. Under the
# table one line says whether every end-to-end metric is within its bound,
# and one whether both sides agree on the simulated metrics and operation
# counts. Per-run outputs stay in target/ab/runs/<workload>/.
#
# A run takes about half a minute, so this is not part of scripts/ci.sh.

set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

if [[ $# -lt 3 || $# -gt 4 ]]; then
  echo "usage: $0 <base-rev> <workload[,workload...]|all> <seed> [pairs]" >&2
  exit 2
fi
base_rev=$1
seed=$3
pairs=${4:-10}
root=$PWD
sha=$(git rev-parse --verify "$base_rev^{commit}")
ab="$root/target/ab"
base_dir="$ab/$sha"
runs="$ab/runs"

# BENCHMARK.json's command, run length and workloads, as the working tree
# states them.
bench() { python3 -c "import json; b = json.load(open('BENCHMARK.json')); $1"; }
mapfile -t cmd < <(bench 'print("\n".join(b["command"]))')
seconds=$(bench 'print(b["run_seconds"])')
mapfile -t known < <(bench 'print("\n".join(w["name"] for w in b["workloads"]))')
if [[ $2 == all ]]; then
  workloads=("${known[@]}")
else
  IFS=, read -ra workloads <<<"$2"
fi
for w in "${workloads[@]}"; do
  if [[ ! " ${known[*]} " == *" $w "* ]]; then
    echo "unknown workload '$w' (BENCHMARK.json has: ${known[*]})" >&2
    exit 2
  fi
done

rm -rf "$base_dir" "$runs"
mkdir -p "$base_dir" "$runs"
trap 'rm -rf "$base_dir"' EXIT
git archive "$sha" | tar -x -C "$base_dir"

# side -> checkout and target directory. The base target directory is keyed
# by commit, so a cached build is never reused for another revision.
declare -A dir=([base]="$base_dir" [change]="$root")
declare -A target=([base]="$ab/$sha.target" [change]="$ab/worktree.target")

for side in base change; do
  echo "== building omnibench ($side) =="
  (cd "${dir[$side]}" && CARGO_TARGET_DIR="${target[$side]}" \
    cargo build --quiet --release --offline --locked --manifest-path omnibench/Cargo.toml)
done

run() { # <workload> <side> <pair>
  local out="$runs/$1/$2.$3"
  rm -f "${dir[$2]}/target/omnibench/results.json"
  if ! (cd "${dir[$2]}" && CARGO_TARGET_DIR="${target[$2]}" \
    "${cmd[@]}" --workload "$1" --seed "$seed" --seconds "$seconds") >"$out.txt" 2>"$out.err"; then
    echo "   $2: exited non-zero (see $out.err)"
  fi
  cp "${dir[$2]}/target/omnibench/results.json" "$out.json"
}

report() { # <workload>
  python3 - "$runs/$1" "$pairs" "$1" "$seed" "$seconds" "$base_rev" "$sha" <<'EOF'
import json
import statistics
import sys

runs, pairs, workload, seed, seconds, rev, sha = sys.argv[1:]
pairs = int(pairs)
bench = json.load(open("BENCHMARK.json"))


def load(side, i):
    return json.load(open(f"{runs}/{side}.{i}.json"))["workloads"][0]


res = {s: [load(s, i) for i in range(pairs)] for s in ("base", "change")}
print(f"\nomnibench A/B: {workload}, seed {seed}, {pairs} pairs of {seconds} s runs")
print(f"base = {rev} ({sha[:10]}), change = working tree\n")


def worse_by(base, change, higher):
    """How much worse the change's median is, as a fraction of the base's."""
    loss = base - change if higher else change - base
    if loss <= 0:
        return 0.0
    return loss / abs(base) if base else float("inf")


header = ("metric", "unit", "base median [q1, q3]", "change median [q1, q3]",
          "change/base", "won base:change", "gap > base IQR", "within bound")
rows = [header]
outside = []
for m in bench["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    vals = {s: [r["metrics"][name]["value"] for r in res[s]] for s in res}
    quart = {s: statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3
             for s, v in vals.items()}
    wins = {"base": 0, "change": 0}
    for b, c in zip(vals["base"], vals["change"]):
        if b != c:
            wins["change" if (c > b) == higher else "base"] += 1
    bq, cq = quart["base"], quart["change"]
    ratio = cq[1] / bq[1] if bq[1] else float("nan")
    within = worse_by(bq[1], cq[1], higher) <= m["bound"]
    if not within:
        outside.append(f"{name} (bound {m['bound']:.0%})")
    rows.append((name, m["unit"], f"{bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]",
                 f"{cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]", f"{ratio:.3f}",
                 f"{wins['base']}:{wins['change']}",
                 "yes" if abs(cq[1] - bq[1]) > bq[2] - bq[0] else "no",
                 "yes" if within else "NO"))
widths = [max(len(r[k]) for r in rows) for k in range(len(header))]
for r in rows:
    print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def outcome(r):
    return (r["correct"], r["attempted"], r["failed"], r["simulated"])


print(f"\n{workload}: every end-to-end metric within its BENCHMARK.json bound:",
      "yes" if not outside else "NO, outside: " + ", ".join(outside))
ref = outcome(res["base"][0])
differ = [f"{s}.{i}" for s in res for i, r in enumerate(res[s]) if outcome(r) != ref]
print(f"{workload}: simulated metrics and correct/attempted/failed:",
      "identical in every run" if not differ else "DIFFER in " + ", ".join(differ))
print(f"{workload}: runs passing omnibench's correctness checks:",
      ", ".join(f"{s} {sum(r['correct'] for r in res[s])} of {pairs}" for s in res))
EOF
}

for w in "${workloads[@]}"; do
  mkdir -p "$runs/$w"
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order=(base change); else order=(change base); fi
    echo "== $w: pair $((i + 1))/$pairs: ${order[0]} first =="
    for side in "${order[@]}"; do
      run "$w" "$side" "$i"
    done
  done
  report "$w"
done
