#!/usr/bin/env bash
# Perf-baseline regression gate (see DESIGN.md §5f).
#
#   scripts/bench_baseline.sh            # run smoke benches, compare against
#                                        # the committed BENCH_*.json baselines
#   scripts/bench_baseline.sh --smoke    # same, but reuse fresh results
#                                        # already in target/obs (CI fast path
#                                        # after the smoke stages ran)
#   scripts/bench_baseline.sh --update   # re-run and overwrite the committed
#                                        # baselines with the fresh values
#
# Committed baselines live at the repo root (BENCH_telemetry.json, …) and are
# always smoke-mode. The gate is exact: a bench passes when its `bench` and
# `mode` lines and its `"gate": true` metric lines read the same in the
# committed and the fresh file. Simulation metrics are deterministic, so the
# gate doubles as a determinism regression check. Info metrics
# (`"gate": false`, such as wall-clock times) are never compared. `reproduce`
# has a single mode, which records itself as smoke and ignores the flag. A
# failing bench prints the diff of its gated lines (`<` committed, `>` fresh)
# and the script exits non-zero.

set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES=(telemetry reliability scale relay reproduce)
REUSE=0
UPDATE=0
for a in "$@"; do
  case "$a" in
    --smoke) REUSE=1 ;;
    --update) UPDATE=1 ;;
    *) echo "unknown flag: $a" >&2; exit 2 ;;
  esac
done

# gated <file>: the lines the gate compares, each without its trailing comma
# (the last metric of a file has none).
gated() {
  grep -E '^  "(bench|mode)"|"gate": true' "$1" | sed 's/,$//'
}

fail=0
for bench in "${BENCHES[@]}"; do
  fresh="target/obs/BENCH_${bench}.json"
  committed="BENCH_${bench}.json"
  if [[ "$REUSE" != 1 || ! -f "$fresh" ]] || ! grep -q '"mode": "smoke"' "$fresh"; then
    echo "== running $bench --smoke =="
    cargo run --release -q -p omni-bench --bin "$bench" -- --smoke >/dev/null
  fi
  if [[ "$UPDATE" == 1 ]]; then
    cp "$fresh" "$committed"
    echo "baseline $bench: updated $committed"
    continue
  fi
  if [[ ! -f "$committed" ]]; then
    echo "baseline $bench: no committed $committed — run scripts/bench_baseline.sh --update" >&2
    fail=1
    continue
  fi
  if diff <(gated "$committed") <(gated "$fresh") >&2; then
    echo "baseline $bench: $(gated "$committed" | grep -c '"gate": true') gated metric(s) identical"
  else
    echo "baseline $bench: gated lines differ (< $committed, > $fresh)" >&2
    fail=1
  fi
done

if [[ "$fail" != 0 ]]; then
  echo "bench baselines: DRIFT DETECTED" >&2
  exit 1
fi
echo "bench baselines: every gated line identical"
