//! Per-crate rule configuration and the rule registry.
//!
//! Which rule applies where is *policy*, kept in one place so a reviewer can
//! audit the enforcement surface at a glance. Paths are workspace-relative.

/// Everything the linter can report. `allowable` rules may be suppressed
/// with `// clonos-lint: allow(<rule>, reason = "...")`; the rest are
/// meta-diagnostics or cross-file invariants where a line-level suppression
/// makes no sense.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
    pub allowable: bool,
}

pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "hash-collections",
        summary: "std HashMap/HashSet iterate in RandomState order; deterministic crates must \
                  use BTreeMap/BTreeSet or another stable-order structure",
        allowable: true,
    },
    RuleInfo {
        id: "wall-clock",
        summary: "Instant::now/SystemTime read the host clock; deterministic crates must go \
                  through the sim clock (VirtualTime)",
        allowable: true,
    },
    RuleInfo {
        id: "os-entropy",
        summary: "thread_rng/OsRng/getrandom draw OS entropy; deterministic crates must use \
                  the seeded sim RNG",
        allowable: true,
    },
    RuleInfo {
        id: "threading",
        summary: "Mutex/RwLock/Condvar/Atomic*/std::thread are thread-coordination \
                  primitives; determinism-sensitive code runs single-threaded under the sim \
                  scheduler — threading belongs in the sharded actor runtime module only",
        allowable: true,
    },
    RuleInfo {
        id: "float-ordering",
        summary: "partial_cmp-based ordering is not total over floats (NaN); use total_cmp or \
                  integer keys",
        allowable: true,
    },
    RuleInfo {
        id: "recovery-panic",
        summary: "unwrap/expect/panic in recovery-path modules aborts the process instead of \
                  flowing into the retry/escalation ladders",
        allowable: true,
    },
    RuleInfo {
        id: "panic-path",
        summary: "a function transitively reachable from a recovery entry point calls \
                  unwrap/expect/panic!/slice-indexing; the blame chain is printed — allow on \
                  any hop (call site or sink) suppresses the path",
        allowable: true,
    },
    RuleInfo {
        id: "replay-taint",
        summary: "a determinant decode/replay consumer transitively reaches a nondeterminism \
                  source (wall clock, OS entropy, RandomState); taint must flow through logged \
                  determinants or an audited allow on the path",
        allowable: true,
    },
    RuleInfo {
        id: "lock-order",
        summary: "two call paths acquire the same pair of locks in opposite orders; workers \
                  interleaving them deadlock — impose the single DESIGN.md §9 hierarchy or \
                  add an audited allow on a hop of the printed cycle",
        allowable: true,
    },
    RuleInfo {
        id: "blocking-under-lock",
        summary: "a blocking operation (`.lock()`, `Condvar::wait`, `recv`, \
                  `std::thread::sleep`) is transitively reachable while a lock guard is \
                  live; a stalled owner wedges the worker — use `try_lock` with the bounded \
                  help ladder (the audited escape hatch) or an audited allow",
        allowable: true,
    },
    RuleInfo {
        id: "guard-across-park",
        summary: "a lock guard is live across a park/yield point \
                  (`std::thread::yield_now`/`park`); the scheduler can starve every thread \
                  waiting on that lock — drop the guard before yielding",
        allowable: true,
    },
    RuleInfo {
        id: "message-protocol",
        summary: "every messages.rs enum variant constructed anywhere must have a handling \
                  match arm in task/mod.rs or coordinator.rs and vice versa (no dead or unhandled \
                  control-plane messages)",
        allowable: false,
    },
    RuleInfo {
        id: "orphan-event",
        summary: "a control-plane variant is constructed, but no send site for it is \
                  reachable from any protocol entry (spontaneous send) through the derived \
                  sent-in-response-to graph — the message can never actually enter the \
                  protocol; wire it into a handler chain or remove it",
        allowable: true,
    },
    RuleInfo {
        id: "non-progressing-cycle",
        summary: "a causal cycle in the sent-in-response-to graph where no hop advances an \
                  epoch/incarnation/attempt counter; such a loop can spin forever without \
                  converging — add a progress counter on some hop or an audited allow on a \
                  send site of the printed cycle",
        allowable: true,
    },
    RuleInfo {
        id: "unstabilized-recovery",
        summary: "a recovery entry variant from which no causal path reaches a stabilizing \
                  send (RecoveryDone); recovery that starts but cannot complete wedges the \
                  job — the diagnostic names the frontier where the chain stalls",
        allowable: true,
    },
    RuleInfo {
        id: "unknown-callee",
        summary: "a workspace-rooted call path resolved to no known fn; the edge is absent \
                  from the call graph (trait/dyn/generic dispatch is not modelled) — reported \
                  as a warning, never silently dropped",
        allowable: false,
    },
    RuleInfo {
        id: "bad-annotation",
        summary: "malformed clonos-lint annotation (unknown rule, missing reason, or bad syntax)",
        allowable: false,
    },
    RuleInfo {
        id: "unused-allow",
        summary: "clonos-lint allow annotation that suppresses nothing (stale exception)",
        allowable: false,
    },
    RuleInfo {
        id: "unreadable-file",
        summary: "a listed or configured source file could not be read; none of its rules ran",
        allowable: false,
    },
    RuleInfo {
        id: "determinant-codec",
        summary: "every Determinant variant must have matching arms in encode_wire and decode_wire",
        allowable: false,
    },
    RuleInfo {
        id: "determinant-replay",
        summary: "every Determinant variant must be consumed by a replay arm in the engine",
        allowable: false,
    },
    RuleInfo {
        id: "stats-surfaced",
        summary: "every RecoveryStats/CausalLogStats/RoutingStats counter must be surfaced \
                  through RunReport and read outside its defining module",
        allowable: false,
    },
];

pub fn rule_exists(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

pub fn rule_allowable(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id && r.allowable)
}

/// Crates whose `src/` trees must be deterministic by construction: they run
/// inside the simulation and their behaviour must be a pure function of the
/// seed. `bench` (host-time measurement) and `lint` itself are exempt, as
/// are `tests/` and `benches/` directories of the listed crates.
pub const DETERMINISTIC_CRATES: &[&str] = &["core", "engine", "sim", "storage", "nexmark"];

/// The deterministic crate (`core`, `engine`, ...) whose `src/` tree holds
/// `rel` — the files the per-file determinism rules and the call graph
/// cover.
pub fn deterministic_crate_of(rel: &str) -> Option<&'static str> {
    let (krate, tail) = rel.strip_prefix("crates/")?.split_once('/')?;
    tail.starts_with("src/").then(|| DETERMINISTIC_CRATES.iter().copied().find(|k| *k == krate))?
}

/// The one place threading primitives are legitimate: the sharded actor
/// runtime. Everything else in the deterministic crates must be runnable
/// single-threaded under the sim scheduler (determinant replay, chaos
/// injection, and the oracles all assume it), so `Mutex`/`Atomic*`/
/// `std::thread` outside this prefix is a `threading` finding.
pub const THREADING_EXEMPT_PREFIXES: &[&str] = &["crates/engine/src/runtime/"];

/// Modules on the failure/recovery path, where a panic tears down the
/// process the protocol is trying to keep alive. Errors here must flow into
/// the retry/escalation ladders (gather retries, replay-request retries,
/// watchdog escalation to global rollback) introduced in the chaos PR.
pub const RECOVERY_PATH_FILES: &[&str] = &[
    "crates/core/src/recovery.rs",
    "crates/core/src/standby.rs",
    "crates/core/src/causal_log.rs",
    "crates/core/src/inflight.rs",
    "crates/core/src/services.rs",
];

/// File holding `enum Determinant` and its encode/decode arms.
pub const DETERMINANT_FILE: &str = "crates/core/src/determinant.rs";

/// Files that together form the replay surface: every `Determinant` variant
/// must be matched (replayed) by at least one of them, otherwise a logged
/// event can never be reproduced during recovery. The task's replay arms
/// live in `task/recovery.rs`; its data path and barrier code record the
/// determinants they replay.
pub const REPLAY_SURFACE_FILES: &[&str] = &[
    "crates/engine/src/task/recovery.rs",
    "crates/engine/src/task/data_path.rs",
    "crates/engine/src/task/checkpoint.rs",
    "crates/engine/src/coordinator.rs",
    "crates/core/src/services.rs",
    "crates/core/src/causal_log.rs",
    "crates/core/src/inflight.rs",
];

/// Stats structs whose counters must be consumed somewhere outside their
/// defining file: `(struct name, defining file)`.
pub const STATS_STRUCTS: &[(&str, &str)] = &[
    ("RecoveryStats", "crates/engine/src/metrics.rs"),
    ("RoutingStats", "crates/engine/src/metrics.rs"),
    ("CheckpointStats", "crates/engine/src/metrics.rs"),
    ("CausalLogStats", "crates/core/src/causal_log.rs"),
    ("InFlightStats", "crates/core/src/inflight.rs"),
    ("RuntimeStats", "crates/engine/src/metrics.rs"),
    ("StateBackendStats", "crates/engine/src/metrics.rs"),
];

/// File holding `struct RunReport`, which must embed every stats struct.
pub const RUN_REPORT_FILE: &str = "crates/engine/src/runner.rs";

/// File defining the control-plane message enums. Every variant of every
/// enum declared here participates in the `message-protocol` check.
pub const MESSAGES_FILE: &str = "crates/engine/src/messages.rs";

/// Files whose `match` arms count as *handling* a control-plane message:
/// the task's one dispatch (`Task::handle`) and the job manager's
/// (`JobManager::handle`).
pub const MESSAGE_HANDLER_FILES: &[&str] =
    &["crates/engine/src/task/mod.rs", "crates/engine/src/coordinator.rs"];

/// Is `rel` a test-source file? Out-of-line test modules (`src/tests.rs`,
/// `src/**/tests/*.rs`) and `tests/` integration files carry no
/// `#[cfg(test)]` *inside* the file — the attribute sits on the `mod`
/// declaration in the parent — so the token-level test-region filter never
/// sees them. Protocol evidence (construction sites, send facts, match
/// arms) from these files must not count: a variant constructed only by a
/// test is still dead protocol surface.
pub fn is_test_source(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.ends_with("/tests.rs")
        || rel.ends_with("/test.rs")
}

/// Variants that *enter* recovery: constructed spontaneously on failure
/// detection / escalation, they root the recovery chains checked by
/// `unstabilized-recovery`.
pub const RECOVERY_ENTRY_VARIANTS: &[&str] = &["FailureDetected", "RestartAll"];

/// Variants whose send marks a recovery chain as stabilized.
pub const STABILIZE_VARIANTS: &[&str] = &["RecoveryDone"];

/// Named protocol chains emitted to `results/causal_spec.json`:
/// `(name, from-variant, to-variant)`. Each resolves to the shortest
/// causal path between the endpoints in the derived graph; a chain whose
/// endpoints exist but admit no path is a broken protocol and reported by
/// the causal rules.
pub const CAUSAL_CHAINS: &[(&str, &str, &str)] = &[
    ("barrier", "TriggerCheckpoint", "CheckpointComplete"),
    ("recovery", "FailureDetected", "RecoveryDone"),
    ("replay", "BeginReplay", "ReplayRequest"),
    ("rollback", "RestartAll", "RecoveryDone"),
    ("standby-activation", "FailureDetected", "ChannelReset"),
];
