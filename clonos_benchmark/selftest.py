#!/usr/bin/env python3
"""Repeatability check of the benchmark against its own bounds.

For every workload: two runs with one seed and one run with another. Prints
both values and their relative difference per end-to-end metric, and fails if
  - a run reports wrong outputs,
  - the two same-seed runs differ by more than the metric's bound,
  - a count or virtual-time metric is not bit-identical between them,
  - the other seed does not change the inputs (no exact metric moves), or
    moves a host-time metric by more than its bound.
Run from the root of the repository: `bash clonos_benchmark/run.sh --selftest`.
"""
import json
import subprocess
import sys

# Measured on the host clock; every other end-to-end metric is a count or a
# virtual-time reading and repeats exactly for one seed.
HOST_TIME = {"throughput_rps", "alt_throughput_rps", "rel_throughput", "setup_s", "peak_rss_mb"}


def run(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} records failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        first, second, other = run(spec, workload, 1), run(spec, workload, 1), run(spec, workload, 2)
        moved = 0
        for name, bound in bounds.items():
            a, b, c = first[name], second[name], other[name]
            diff, seed_diff = abs(b - a) / abs(a), abs(c - a) / abs(a)
            print(f"{workload:12} {name:24} {a:14.6g} {b:14.6g} {diff:8.2%}   other seed {c:14.6g} {seed_diff:8.2%}")
            if name in HOST_TIME:
                if diff > bound:
                    failures.append(f"{workload} {name}: two runs differ by {diff:.2%} > {bound:.0%}")
                if seed_diff > bound:
                    failures.append(f"{workload} {name}: another seed moves it by {seed_diff:.2%} > {bound:.0%}")
            else:
                if a != b:
                    failures.append(f"{workload} {name}: exact metric differs between runs: {a!r} vs {b!r}")
                moved += a != c
        if moved == 0:
            failures.append(f"{workload}: another seed changed no exact metric, so not the inputs")
    for failure in failures:
        print("FAIL", failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
