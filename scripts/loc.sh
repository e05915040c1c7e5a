#!/usr/bin/env bash
# Non-test lines of Rust in each workspace crate, then the workspace total.
# Run from anywhere; it takes no options:
#
#   scripts/loc.sh
#
# A crate's count covers the `.rs` files under its `src`, each counted up to
# its first `#[cfg(test)]` line (unit tests sit at the end of a file here).
# Integration tests, benches and examples are not counted.

set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in . crates/*; do
  name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$dir/Cargo.toml" | head -n 1)
  lines=$(find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }')
  printf '%-15s %6d\n' "$name" "$lines"
  total=$((total + lines))
done
printf '%-15s %6d\n' total "$total"
