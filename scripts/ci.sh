#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md). Run from the repo root:
#
#   scripts/ci.sh
#
# Every PR must pass all three stages: formatting, lints as errors, and the
# full test suite. Rustdoc warnings (broken intra-doc links included) are
# errors too.
#
# Every stage runs, even after an earlier one failed. At the end the script
# names the stages that failed and exits 1 if there are any.

set -uo pipefail
cd "$(dirname "$0")/.."

failed=()

# stage <title> <command...>: runs one stage and records its title if the
# command fails.
stage() {
  local title=$1
  shift
  echo "== $title =="
  "$@" || failed+=("$title")
}

wire_smoke() {
  cargo run --release -p omni-bench --bin wire -- --smoke &&
    cargo bench -q -p omni-bench --bench codec
}

# run_examples: runs every example under examples/, each to completion, and
# fails if any of them failed.
run_examples() {
  local status=0 example
  for example in examples/*.rs; do
    example=$(basename "$example" .rs)
    echo "-- $example"
    cargo run -q --release --example "$example" || status=1
  done
  return "$status"
}

stage "cargo fmt --check" \
  cargo fmt --all -- --check

stage "cargo clippy (warnings are errors)" \
  cargo clippy --workspace --all-targets -- -D warnings

stage "cargo doc (warnings are errors)" \
  env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

stage "cargo test" \
  cargo test --workspace -q --no-fail-fast

stage "examples (each runs to completion and asserts its outcome)" \
  run_examples

stage "wire smoke (zero-copy allocation gate + codec microbenches)" \
  wire_smoke

stage "reliability smoke (fault matrix)" \
  cargo run --release -p omni-bench --bin reliability -- --smoke

stage "scale smoke (1000- and 10k-node tick and allocation budgets)" \
  cargo run --release -p omni-bench --bin scale -- --smoke

stage "trace smoke (flight-recorder completeness + determinism)" \
  cargo run --release -p omni-bench --bin trace -- --smoke

stage "telemetry smoke (fault-window reconstruction from series)" \
  cargo run --release -p omni-bench --bin telemetry -- --smoke

stage "relay smoke (sparse-chain delivery floor, same-seed replay)" \
  cargo run --release -p omni-bench --bin relay -- --smoke

stage "reproduce (every paper table, figure and ablation, in process)" \
  cargo run --release -p omni-bench --bin reproduce

stage "bench baseline gate (drift vs committed BENCH_*.json)" \
  scripts/bench_baseline.sh --smoke

stage "omnibench tests (seed determinism + traced-run identity of every workload)" \
  cargo test --release --offline --locked --manifest-path omnibench/Cargo.toml -q

if ((${#failed[@]})); then
  echo "ci: ${#failed[@]} stage(s) failed:"
  printf '  - %s\n' "${failed[@]}"
  exit 1
fi
echo "ci: all green"
