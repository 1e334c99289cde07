#!/usr/bin/env bash
# Static-analysis gate: clonos-lint (determinism + recovery-path + protocol
# invariants + call-graph transitive analyses + the concurrency-soundness
# pass: lock-order / blocking-under-lock / guard-across-park) followed by a
# warning-free clippy pass with the clippy.toml disallow lists. Blocking:
# any violation exits non-zero.
#
# The clonos-lint stage prints a one-line timing summary (parsed from the
# tool's own stderr stats line); LINT_TIME_FILE, when set, receives the
# analysis wall time in ms so check.sh can enforce its perf budget. A
# machine-readable report (every diagnostic incl. blame chains, empty array
# when clean) is always written to results/lint.json.
# Usage: scripts/lint.sh [--json]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lint: clonos-lint (per-file + call-graph + lockgraph + causal) =="
cargo build --release -q -p clonos-lint
mkdir -p results
errfile=$(mktemp)
status=0
target/release/clonos-lint --emit-spec results/causal_spec.json "$@" 2>"$errfile" || status=$?
cat "$errfile" >&2
ms=$(sed -n 's/.* in \([0-9][0-9]*\) ms$/\1/p' "$errfile" | head -n1)
causal=$(sed -n 's/^clonos-lint: \(lockgraph pass .*\)$/\1/p' "$errfile" | head -n1)
rm -f "$errfile"
if [[ -n "${ms:-}" ]]; then
  echo "== lint: call-graph analysis wall time: ${ms} ms =="
  if [[ -n "${causal:-}" ]]; then
    echo "== lint: per-pass timing: ${causal} =="
  fi
  if [[ -n "${LINT_TIME_FILE:-}" ]]; then
    echo "$ms" >"$LINT_TIME_FILE"
  fi
fi
if [[ ! -s results/causal_spec.json ]]; then
  echo "ERROR: causal spec results/causal_spec.json missing or empty" >&2
  exit 1
fi
echo "== lint: causal spec published to results/causal_spec.json =="

# JSON artifact for CI / downstream tooling (never gates; the exit status
# above does). Re-runs the analysis in --json mode only if the user didn't
# already ask for JSON on stdout.
mkdir -p results
target/release/clonos-lint --json >results/lint.json 2>/dev/null || true
echo "== lint: JSON report written to results/lint.json =="

if [[ "$status" -ne 0 ]]; then
  exit "$status"
fi

echo "== lint: clippy (deny warnings, disallow lists from clippy.toml) =="
cargo clippy --all-targets -- -D warnings

echo "== lint OK =="
