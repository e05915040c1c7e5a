#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md). Run from the repo root:
#
#   scripts/ci.sh
#
# Every PR must pass all three stages: formatting, lints as errors, and the
# full test suite. Rustdoc warnings (broken intra-doc links included) are
# errors too.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test =="
cargo test --workspace -q

echo "== wire smoke (zero-copy allocation gate + codec microbenches) =="
cargo run --release -p omni-bench --bin wire -- --smoke
cargo bench -q -p omni-bench --bench codec

echo "== reliability smoke (fault matrix) =="
cargo run --release -p omni-bench --bin reliability -- --smoke

echo "== scale smoke (1000- and 10k-node tick and allocation budgets) =="
cargo run --release -p omni-bench --bin scale -- --smoke

echo "== trace smoke (flight-recorder completeness + determinism) =="
cargo run --release -p omni-bench --bin trace -- --smoke

echo "== profile smoke (profiler byte-identity + <=5% overhead budget) =="
cargo run --release -p omni-bench --bin profile -- --smoke

echo "== telemetry smoke (fault-window reconstruction from series) =="
cargo run --release -p omni-bench --bin telemetry -- --smoke

echo "== relay smoke (sparse-chain delivery floor, same-seed replay) =="
cargo run --release -p omni-bench --bin relay -- --smoke

echo "== bench baseline gate (drift vs committed BENCH_*.json) =="
scripts/bench_baseline.sh --smoke

echo "== omnibench tests (seed determinism + traced-run identity of every workload) =="
cargo test --release --offline --manifest-path omnibench/Cargo.toml -q

echo "ci: all green"
