#!/usr/bin/env bash
# Sampling profile of one benchmark workload's run phase, for hosts with no
# `perf`: self and inclusive shares per function, and self shares per module.
#
#   scripts/profile.sh <workload> [seconds]     (seconds default 6)
#
# Builds the benchmark with frame pointers into target/profile/ (not under
# clonos_benchmark/), compiles a SIGPROF sampler with the system `cc` and
# preloads it into the one benchmark process it starts: every 0.5 ms of CPU
# time it records the interrupted PC and the frame-pointer chain of the main
# thread. Only samples with `Cluster::run_until` on their stack are kept (the
# timed and warm-up reps of both variants, not setup, probes or reports).
# Stacks are named from the symbol table (`nm`), so a function inlined into a
# caller counts in the caller's inclusive share; the sampled PC itself is
# named through the line tables (`addr2line -i`), so self shares go to the
# innermost inlined function.
set -euo pipefail
cd "$(dirname "$0")/.."
workload="${1:?usage: scripts/profile.sh <workload> [seconds]}"
seconds="${2:-6}"
out=target/profile
mkdir -p "$out"

RUSTFLAGS="-C force-frame-pointers=yes -C debuginfo=line-tables-only" cargo build --release --offline --quiet \
  --manifest-path clonos_benchmark/Cargo.toml --target-dir "$out/target"
bin="$out/target/release/clonos-benchmark"

cat >"$out/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
#define WORDS (8u << 20) /* 64 MiB of samples: [depth, pc...] */

static uint64_t samples[WORDS];
static uint64_t used;
static uintptr_t stack_lo, stack_hi;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig; (void)info;
    const greg_t *g = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uint64_t pcs[MAX_DEPTH];
    uint64_t n = 0;
    uintptr_t sp = (uintptr_t)g[REG_RSP], fp = (uintptr_t)g[REG_RBP];
    pcs[n++] = (uint64_t)g[REG_RIP];
    /* Walk only the main thread's stack, whose bounds are known. */
    if (sp >= stack_lo && sp < stack_hi) {
        while (n < MAX_DEPTH && fp >= sp && fp + 16 <= stack_hi && (fp & 7) == 0) {
            uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
            if (ret == 0) break;
            pcs[n++] = ret;
            if (next <= fp) break;
            fp = next;
        }
    }
    uint64_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > WORDS) return;
    samples[at] = n;
    memcpy(&samples[at + 1], pcs, n * sizeof(uint64_t));
}

__attribute__((constructor)) static void start(void) {
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps)) {
        if (strstr(line, "[stack]")) sscanf(line, "%lx-%lx", &stack_lo, &stack_hi);
    }
    if (maps) fclose(maps);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 500}, {0, 500}};
    setitimer(ITIMER_PROF, &every, NULL);
}

static void copy_file(const char *from, int to) {
    char buf[4096];
    ssize_t k;
    int fd = open(from, O_RDONLY);
    while (fd >= 0 && (k = read(fd, buf, sizeof buf)) > 0) (void)!write(to, buf, (size_t)k);
    if (fd >= 0) close(fd);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROFILE_SAMPLES");
    if (!path) return;
    char maps_path[4096];
    snprintf(maps_path, sizeof maps_path, "%s.maps", path);
    int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    uint64_t n = used < WORDS ? used : WORDS;
    if (fd >= 0) { (void)!write(fd, samples, n * sizeof(uint64_t)); close(fd); }
    fd = open(maps_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) { copy_file("/proc/self/maps", fd); close(fd); }
}
EOF
cc -O2 -shared -fPIC -o "$out/sampler.so" "$out/sampler.c"

echo "== profile: $workload, --seconds $seconds, seed 1 ==" >&2
PROFILE_SAMPLES="$out/samples.raw" LD_PRELOAD="$PWD/$out/sampler.so" \
  "$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >"$out/run.log"
nm --defined-only -C "$bin" >"$out/symbols.txt"

python3 - "$bin" "$out" <<'EOF'
import bisect, collections, os, re, struct, subprocess, sys

binary, out = os.path.realpath(sys.argv[1]), sys.argv[2]
syms = []
for line in open(f"{out}/symbols.txt"):
    parts = line.rstrip("\n").split(" ", 2)
    if len(parts) == 3 and parts[1] in "tTwW":
        name = re.sub(r"::h[0-9a-f]{16}$", "", parts[2])
        syms.append((int(parts[0], 16), name))
syms.sort()
addrs = [a for a, _ in syms]
maps = []  # (start, end, file offset, path)
for l in open(f"{out}/samples.raw.maps"):
    f = l.split()
    start, end = (int(x, 16) for x in f[0].split("-"))
    maps.append((start, end, int(f[2], 16), f[5] if len(f) > 5 else "[anon]"))
# The binary's load base: its mapping at file offset 0.
base = next(m[0] for m in maps if m[3] == binary and m[2] == 0)

def name(pc):
    path = next((m[3] for m in maps if m[0] <= pc < m[1]), "[unmapped]")
    if path != binary:
        return f"[{os.path.basename(path)}]"
    i = bisect.bisect_right(addrs, pc - base) - 1
    return syms[i][1] if i >= 0 else "[binary]"

words = open(f"{out}/samples.raw", "rb").read()
words = struct.unpack(f"<{len(words) // 8}Q", words)

# Innermost inlined function at each sampled PC.
leaves, i = set(), 0
while i < len(words):
    leaves.add(words[i + 1] - base)
    i += words[i] + 1
query = "\n".join(f"{a:x}" for a in sorted(leaves))
lines = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", binary], input=query,
                       capture_output=True, text=True, check=True).stdout.splitlines()
inner = {}
for k, line in enumerate(lines):
    if line.startswith("0x") and k + 1 < len(lines) and lines[k + 1] != "??":
        inner[int(line, 16)] = re.sub(r"::h[0-9a-f]{16}$", "", lines[k + 1])

total, kept = 0, 0
self_count, incl_count, module_count = collections.Counter(), collections.Counter(), collections.Counter()
i = 0
while i < len(words):
    n = words[i]
    # A return address points after its call: name the call, not the next line.
    stack = [name(pc if k == 0 else pc - 1) for k, pc in enumerate(words[i + 1:i + 1 + n])]
    i += n + 1
    total += 1
    if not any("Cluster::run_until" in f for f in stack):
        continue
    kept += 1
    leaf = inner.get(words[i - n] - base, stack[0])
    self_count[leaf] += 1
    for f in set(stack):
        incl_count[f] += 1
    path = re.sub(r"<.*", "", leaf.lstrip("<").split(" as ")[0]).split("::")
    module_count["::".join(path[:2]) if len(path) > 2 else path[0]] += 1

print(f"{kept} of {total} samples under Cluster::run_until")
if not kept:
    sys.exit("no sample under Cluster::run_until")
print("\nself share by module (leaf function's crate::module)")
for m, c in module_count.most_common(15):
    print(f"  {c / kept:6.1%}  {m}")
codec = sum(c for m, c in module_count.items()
            if m in ("clonos_storage::codec", "clonos_engine::record", "bytes"))
print(f"  {codec / kept:6.1%}  record codec (clonos_storage::codec + clonos_engine::record + bytes)")
print("\nself share by function")
for f, c in self_count.most_common(25):
    print(f"  {c / kept:6.1%}  {f}")
print("\ninclusive share by function")
for f, c in incl_count.most_common(25):
    print(f"  {c / kept:6.1%}  {f}")
EOF
