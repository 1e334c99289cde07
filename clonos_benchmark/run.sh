#!/usr/bin/env bash
# The benchmark's one command, run from the root of the repository.
#
#   bash clonos_benchmark/run.sh
#       builds, runs the four workloads (one process each, so that peak RSS is
#       per workload) and prints `workload metric value unit` lines;
#   bash clonos_benchmark/run.sh --workload <w> --seed <n> --seconds <s> --trace <0|1>
#       builds if needed and runs one workload; the last line of its standard
#       output is the result object BENCHMARK.json's contract asks for;
#   bash clonos_benchmark/run.sh --selftest
#       checks that two sets of runs agree within the bounds of BENCHMARK.json.
#
# Exits non-zero if the build fails or a run's outputs are wrong.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
bench=(cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --)

if [[ "${1:-}" == "--selftest" ]]; then
    exec python3 "$here/selftest.py"
fi
if [[ $# -gt 0 ]]; then
    exec "${bench[@]}" "$@"
fi

seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
status=0
for workload in chain keyed_state nexmark recovery; do
    for trace in 0 1; do
        out="$("${bench[@]}" --workload "$workload" --seed 1 --seconds "$seconds" --trace "$trace")" || status=1
        grep -v '^{' <<<"$out"
        tail -n 1 <<<"$out" | grep -q '"correct": true' || status=1
    done
done
exit "$status"
