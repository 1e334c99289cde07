#!/usr/bin/env bash
# Non-test lines of code per crate: for every crates/*/src/**/*.rs, the
# lines above its first `#[cfg(test)]` at column 0 (the whole file when it
# has none). The number every PR reports parent -> change (ROADMAP.md);
# no threshold, just the count.
# Usage: scripts/loc.sh [crate ...]      (default: every crate)
set -euo pipefail
cd "$(dirname "$0")/.."

crates=("$@")
if [[ ${#crates[@]} -eq 0 ]]; then
  crates=(crates/*/)
  crates=("${crates[@]#crates/}")
  crates=("${crates[@]%/}")
fi
total=0
for krate in "${crates[@]}"; do
  n=$(find "crates/$krate/src" -name '*.rs' -print0 | sort -z |
    xargs -0 awk 'FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }')
  printf '%-12s %6d\n' "$krate" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
