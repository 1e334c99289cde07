#!/usr/bin/env bash
# Repo gate: tier-1 build + tests, the core proptests under more seeds, then
# the blocking static-analysis stage (clonos-lint + clippy disallow lists),
# then the chaos and conformance sweeps, the threaded runtime's equivalence
# tests five times over, and short benchmark runs.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: test suite =="
cargo test -q

echo "== properties: the codec proptests under eight more seeds (release) =="
# The delta wire is the one determinant codec; its byte-equality, skip/decode
# and span-ingest properties are its only oracle, so they run under seeds
# 1..8 beside tier-1's seed 0 (the proptest shim mixes PROPTEST_SEED into
# every test's stream). So do the storage and engine library tests: the
# varint kernel against its byte-at-a-time reference, and the record codec's
# reader and fail-closed properties.
for seed in 1 2 3 4 5 6 7 8; do
  echo "-- PROPTEST_SEED=$seed"
  PROPTEST_SEED=$seed cargo test --release -q -p clonos
  PROPTEST_SEED=$seed cargo test --release -q -p clonos-storage -p clonos-engine --lib
done

echo "== lint: clonos-lint + clippy (blocking) =="
lint_time_file=$(mktemp)
LINT_TIME_FILE="$lint_time_file" scripts/lint.sh
lint_ms=$(cat "$lint_time_file" 2>/dev/null || echo "")
rm -f "$lint_time_file"
if [[ -z "$lint_ms" ]]; then
  echo "ERROR: lint timing summary missing (expected a '... in N ms' stats line)" >&2
  exit 1
fi
if [[ "$lint_ms" -gt 2000 ]]; then
  echo "ERROR: clonos-lint analysis took ${lint_ms} ms (> 2000 ms budget) — the call-graph/lockgraph/causal passes regressed" >&2
  exit 1
fi
echo "== lint: analysis wall time ${lint_ms} ms (budget 2000 ms) =="

echo "== lint: protocol edges of the regenerated causal spec match HEAD (sites may move) =="
git show HEAD:results/causal_spec.json | python3 -c '
import json, sys
def protocol(text):
    spec = json.loads(text)
    edges = sorted((e["from"], e["to"], e["progress"]) for e in spec["edges"])
    return edges, sorted(e["variant"] for e in spec["entries"]), spec["chains"]
head, new = protocol(sys.stdin.read()), protocol(open("results/causal_spec.json").read())
if head != new:
    for name, a, b in zip(("edges", "entries", "chains"), head, new):
        for x in a:
            if x not in b: print(f"ERROR: {name}: dropped {x}", file=sys.stderr)
        for x in b:
            if x not in a: print(f"ERROR: {name}: added {x}", file=sys.stderr)
    sys.exit("ERROR: results/causal_spec.json changed in more than site/arm")
print(f"== lint: {len(new[0])} edges / {len(new[2])} chains unchanged ==")
'

echo "== lint: every site of the regenerated causal spec names its variant =="
# An edge's `site` is the construction of its `to` variant and its `arm` the
# match arm of its `from` variant; an entry's `site` constructs its variant.
# A line that does not name the variant means the lexer's line count drifted.
python3 -c '
import json, re, sys
spec = json.load(open("results/causal_spec.json"))
def names(site, variant):
    path, line = site.rsplit(":", 1)
    text = open(path).read().split("\n")[int(line) - 1]
    return re.search(r"\b" + variant + r"\b", text) is not None
checks = [("edge %s -> %s: site" % (e["from"], e["to"]), e["site"], e["to"]) for e in spec["edges"]]
checks += [("edge %s -> %s: arm" % (e["from"], e["to"]), e["arm"], e["from"]) for e in spec["edges"]]
checks += [("entry %s: site" % e["variant"], e["site"], e["variant"]) for e in spec["entries"]]
bad = [(what, site) for what, site, variant in checks if not names(site, variant)]
for what, site in bad:
    print("ERROR: %s %s does not name its variant" % (what, site), file=sys.stderr)
if bad:
    sys.exit("ERROR: %d causal spec sites point away from their variant" % len(bad))
print("== lint: %d edges / %d entries, every site on its variant ==" % (len(spec["edges"]), len(spec["entries"])))
'

echo "== size: non-test lines per crate (scripts/loc.sh; reported, not gated) =="
scripts/loc.sh

echo "== chaos: bounded seed sweep (25 seeds x 3 modes, release) =="
CHAOS_SEEDS=25 cargo test --release -q -p clonos-integration --test chaos_sweep

echo "== conformance: causal traces vs the causal spec derived in-process by clonos-lint (25 seeds x 4 FT modes, release) =="
CHAOS_SEEDS=25 cargo test --release -q -p clonos-integration --test causal_conformance

echo "== threaded runtime: the parallel-equivalence tests five times (release) =="
# The threaded runtime is the one nondeterministic substrate: mailbox races
# reorder deliveries between actors from run to run, so one passing run in
# the debug tier-1 suite says little about an interleaving it did not hit.
for run in 1 2 3 4 5; do
  echo "-- run $run of 5"
  cargo test --release -q -p clonos-integration --test parallel_equivalence
done

# One short run of a benchmark workload: it must be correct with no failed
# operation and, for each `metric=ceiling` given, the metric's exact value at
# most the ceiling. Only exact metrics (counts, virtual time) get ceilings;
# no host-time threshold.
bench_stage() { # <workload> [metric=ceiling ...]
  bash clonos_benchmark/run.sh --workload "$1" --seed 1 --seconds 3 --trace 0 | tail -n 1 |
    python3 -c '
import json, sys
result, workload, ceilings = json.loads(sys.stdin.read()), sys.argv[1], sys.argv[2:]
failed, attempted = result["failed"], result["attempted"]
if result["correct"] is not True or failed != 0:
    sys.exit(f"ERROR: {workload} benchmark run is not correct ({failed} failed)")
line = f"{attempted} records, 0 failed"
for pair in ceilings:
    metric, ceiling = pair.split("=")
    value, ceiling = result["metrics"][metric]["value"], float(ceiling)
    if value > ceiling:
        sys.exit(f"ERROR: {workload} {metric} {value:.3f} exceeds the ceiling {ceiling}")
    line += f", {metric} {value:.3f} (ceiling {ceiling})"
print(f"== bench: {workload} correct: {line} ==")
' "$@"
}

echo "== bench: chain correct + allocation and barrier ceilings (clonos_benchmark, exact values) =="
# Allocation ceilings: each workload's allocs_per_record at the commit that set
# them + 10 % (chain 9.1333, recovery 9.9508: value rows in a slot table and
# inline sink metadata; 10.1382, 11.1982 before; keyed_state and nexmark at
# their own stages below).
ALLOCS_PER_RECORD_CEILING=10.05
# chain barrier_max_ms at the commit that set it (10.461: forwarded logs ride
# only channels that carried records) + 5 %: barrier-time delta bytes are
# charged on the barrier's critical path; re-shipping forwarded logs on idle
# channels read 18.789, the v1 wire 25.773 (EXPERIMENTS.md E1i, E1j).
BARRIER_MAX_MS_CEILING=10.98
bench_stage chain "allocs_per_record=$ALLOCS_PER_RECORD_CEILING" "barrier_max_ms=$BARRIER_MAX_MS_CEILING"

echo "== bench: recovery correct + barrier and allocation ceilings (two task kills in the timed runs) =="
# recovery barrier_max_ms at the commit that set it (6.679) + 5 %; 17.403 with
# the idle-channel re-ships (EXPERIMENTS.md E1j).
RECOVERY_BARRIER_MAX_MS_CEILING=7.01
RECOVERY_ALLOCS_PER_RECORD_CEILING=10.95
bench_stage recovery "barrier_max_ms=$RECOVERY_BARRIER_MAX_MS_CEILING" \
  "allocs_per_record=$RECOVERY_ALLOCS_PER_RECORD_CEILING"

echo "== bench: nexmark correct + allocation ceiling (the one workload whose determinants carry payloads) =="
# A per-determinant allocation back in the delta exchange costs Q13 one per record.
# Seed-1 value 1.6970 + 10 % since an external answer is logged from a borrow
# (2.2234 before; 4.6490 before window state was one accumulator row and joins
# read their list in place).
NEXMARK_ALLOCS_PER_RECORD_CEILING=1.87
bench_stage nexmark "allocs_per_record=$NEXMARK_ALLOCS_PER_RECORD_CEILING"

echo "== bench: keyed_state correct (tiered output = untiered output, every rep the same counts) + allocation ceiling =="
# Seed-1 value 1.4874 + 10 % since `ReduceOp` writes its accumulator back in
# place (2.0971 before).
KEYED_STATE_ALLOCS_PER_RECORD_CEILING=1.64
bench_stage keyed_state "allocs_per_record=$KEYED_STATE_ALLOCS_PER_RECORD_CEILING"

echo "== OK =="
