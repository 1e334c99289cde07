#!/usr/bin/env bash
# Non-test lines of code per crate: every line of crates/*/src/**/*.rs except
# the items marked `#[cfg(test)]` at column 0. A skipped item runs from its
# attribute to the `}` that closes its first `{`, or to its `;` when that
# comes first (a one-line item such as `mod x;`); braces in strings, char
# literals and line comments do not count. Code after a test module counts. The number every PR reports
# parent -> change (ROADMAP.md); no threshold, just the count.
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
    xargs -0 awk '
      FNR == 1 { skipping = 0; instr = 0 }
      !skipping && /^#\[cfg\(test\)\]/ { skipping = 1; depth = 0; opened = 0 }
      skipping {
        for (i = 1; i <= length($0); i++) {
          c = substr($0, i, 1)
          if (instr) {
            if (c == "\\" && !raw) i++
            else if (c == "\"" && substr($0, i + 1, hashes) == substr("##########", 1, hashes)) {
              instr = 0; i += hashes
            }
          } else if (c == "/" && substr($0, i + 1, 1) == "/") break
          else if (c == "\"") {
            instr = 1; hashes = 0; raw = 0
            for (j = i - 1; substr($0, j, 1) == "#"; j--) hashes++
            if (substr($0, j, 1) == "r") raw = 1
          } else if (c == "\047") {
            if (substr($0, i + 1, 1) == "\\") i = index(substr($0, i + 2), "\047") + i + 1
            else if (substr($0, i + 2, 1) == "\047") i += 2
          } else if (c == "{") { depth++; opened = 1 }
          else if (c == "}") depth--
          else if (c == ";" && !opened) { skipping = 0; break }
          if (opened && depth == 0) { skipping = 0; break }
        }
        next
      }
      { n++ }
      END { print n + 0 }')
  printf '%-12s %6d\n' "$krate" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
