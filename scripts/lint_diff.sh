#!/usr/bin/env bash
# Before/after check for clonos-lint itself. Builds <rev>'s linter offline
# from a `git archive` export with its own CARGO_TARGET_DIR, builds the
# working tree's, and runs both with --json and --emit-spec over three sets
# of roots:
#   1. the repo;
#   2. every fixture tree the lint test suites leave under target/tmp/
#      (cg_*, lg_*, causal_*, mini_*; run `cargo test -p clonos-lint` first);
#   3. a scratch copy of the repo with every `clonos-lint: allow` defused,
#      so real lock/panic/cycle findings and their blame chains compare.
# Prints the diff of every diagnostic, blame chain and emitted causal spec,
# and exits 1 on any difference. Not part of check.sh (a second build).
# Usage: scripts/lint_diff.sh [rev]      (default: HEAD)
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:-HEAD}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== building $rev's clonos-lint ==" >&2
mkdir "$tmp/rev"
git archive "$rev" | tar -x -C "$tmp/rev"
CARGO_TARGET_DIR="$tmp/target" cargo build --release -q --offline \
  --manifest-path "$tmp/rev/Cargo.toml" -p clonos-lint
echo "== building the working tree's clonos-lint ==" >&2
cargo build --release -q --offline -p clonos-lint

echo "== defusing every allow in a copy of the working tree ==" >&2
mkdir "$tmp/defused"
git ls-files -z --cached --others --exclude-standard -- Cargo.toml crates tests examples |
  xargs -0 cp --parents -t "$tmp/defused"
grep -rlZ 'clonos-lint: allow' "$tmp/defused" | xargs -0 -r sed -i 's/clonos-lint: allow/defused: allow/g'

roots=(. "$tmp/defused")
for dir in target/tmp/{cg,lg,causal,mini}_*; do
  [[ -d "$dir" ]] && roots+=("$dir")
done
if [[ ${#roots[@]} -eq 2 ]]; then
  echo "warning: no lint fixture trees under target/tmp/ (run cargo test -p clonos-lint)" >&2
fi

# One file per root and side: exit status, pretty-printed --json report,
# pretty-printed causal spec.
run() { # <binary> <root> <out>
  local status=0
  "$1" --json --root "$2" --emit-spec "$tmp/spec.json" >"$tmp/report.json" 2>/dev/null || status=$?
  {
    echo "exit $status"
    python3 -m json.tool "$tmp/report.json"
    python3 -m json.tool "$tmp/spec.json"
  } >"$3"
  rm -f "$tmp/report.json" "$tmp/spec.json"
}

differ=0
for root in "${roots[@]}"; do
  name=${root#"$tmp/"}
  run "$tmp/target/release/clonos-lint" "$root" "$tmp/old.out"
  run target/release/clonos-lint "$root" "$tmp/new.out"
  if ! diff -u --label "$rev: $name" --label "working tree: $name" "$tmp/old.out" "$tmp/new.out"; then
    differ=1
  fi
done
if [[ $differ -ne 0 ]]; then
  echo "lint_diff: output differs from $rev" >&2
  exit 1
fi
echo "lint_diff: ${#roots[@]} roots, output identical to $rev" >&2
