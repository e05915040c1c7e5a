#!/usr/bin/env bash
# Byte-identity check of the bench artifacts: a base revision against the
# working tree. Run from anywhere in the repo; it takes no options:
#
#   scripts/identity.sh <base-rev>
#
# Exports <base-rev> into target/identity/<sha>/ (removed on exit) and builds
# omni-bench's binaries there and in the working tree, each side into its own
# CARGO_TARGET_DIR under target/identity/: cargo judges freshness by source
# mtimes and `git archive` stamps files with the commit time, so a shared
# target directory could run the other side's binary. From each side's
# directory it runs `reproduce` and the `relay`, `reliability`, `trace` and
# `telemetry` benches with --smoke (`reproduce` ignores the flag), after
# emptying that side's target/obs/.
#
# Then it compares each bench's stdout and each file the runs wrote under
# target/obs/, after dropping the lines that contain `wait_us` (wall-clock
# queue waits) and, in BENCH_telemetry.json, the `wall_ms` line.
# trace.chrome.json holds wall-clock phase slices and is skipped. It prints
# one line per artifact, `identical` or `differs` followed by up to 20 diff
# lines, and exits 1 if anything differs. Both sides' artifacts stay in
# target/identity/base/ and target/identity/change/.
#
# Two release builds take several minutes, so this is not part of
# scripts/ci.sh.

set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi
root=$PWD
sha=$(git rev-parse --verify "$1^{commit}")
work="$root/target/identity"
base_dir="$work/$sha"

rm -rf "$base_dir" "$work/base" "$work/change"
mkdir -p "$base_dir" "$work/base" "$work/change"
trap 'rm -rf "$base_dir"' EXIT
git archive "$sha" | tar -x -C "$base_dir"

# side -> checkout and target directory. The base target directory is keyed
# by commit, so a cached build is never reused for another revision.
declare -A dir=([base]="$base_dir" [change]="$root")
declare -A target=([base]="$work/$sha.target" [change]="$work/worktree.target")
benches=(reproduce relay reliability trace telemetry)

for side in base change; do
  echo "== building omni-bench ($side) =="
  (cd "${dir[$side]}" && CARGO_TARGET_DIR="${target[$side]}" \
    cargo build --quiet --release --offline --locked -p omni-bench --bins)
  rm -rf "${dir[$side]}/target/obs"
  for bench in "${benches[@]}"; do
    echo "== running $bench ($side) =="
    if ! (cd "${dir[$side]}" && "${target[$side]}/release/$bench" --smoke) \
      >"$work/$side/$bench.stdout"; then
      echo "   $bench ($side) exited non-zero"
    fi
  done
  cp "${dir[$side]}"/target/obs/* "$work/$side/"
done

strip() { # <artifact> <file>
  if [[ $1 == BENCH_telemetry.json ]]; then
    grep -v -e wait_us -e '"wall_ms"' "$2" || true
  else
    grep -v wait_us "$2" || true
  fi
}

echo
status=0
for name in $( (ls "$work/base" && ls "$work/change") | sort -u); do
  if [[ $name == trace.chrome.json ]]; then
    printf '%-28s skipped (wall-clock)\n' "$name"
    continue
  fi
  base="$work/base/$name"
  change="$work/change/$name"
  if [[ ! -e $base || ! -e $change ]]; then
    printf '%-28s differs (written on one side only)\n' "$name"
    status=1
  elif diff <(strip "$name" "$base") <(strip "$name" "$change") >"$work/diff"; then
    printf '%-28s identical\n' "$name"
  else
    printf '%-28s differs\n' "$name"
    head -n 20 "$work/diff"
    status=1
  fi
done
rm -f "$work/diff"
exit "$status"
