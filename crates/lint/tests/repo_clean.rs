//! Integration tests over real directory trees: the golden "this repo is
//! lint-clean" gate, and a synthetic mini-workspace proving the cross-file
//! invariant checks fire when a codec/replay arm or counter goes missing.

use clonos_lint::config;
use clonos_lint::diagnostics::render_json;
use clonos_lint::{analyze, analyze_ordered, relative, rust_files_under};
use std::fs;
use std::path::{Path, PathBuf};

/// The gate: the workspace this crate lives in must be lint-clean. Any new
/// `HashMap`, wall-clock read, recovery-path unwrap, transitive panic or
/// taint path, dead message variant, or missing codec arm fails this test
/// (and `scripts/check.sh`). Warnings (`unknown-callee`) are held to zero
/// here too: a blind spot in the repo's own graph should be resolved, not
/// accumulated.
#[test]
fn repo_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = analyze(&root).expect("analysis runs");
    assert!(
        diags.is_empty(),
        "workspace has lint violations:\n{}",
        diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
    );
}

/// The concurrency rules are part of the clean gate above; this pins the
/// contract that makes "clean" meaningful for them: the rules exist, are
/// allow-able (the audited escape hatch), and the runtime's real lock
/// protocol exercises them — the mailbox leaf-lock sites and the
/// backpressure-ladder yield each carry a reasoned allow that the
/// stale-allow pass verified is doing work (else `unused-allow` would
/// have tripped `repo_is_lint_clean`).
#[test]
fn concurrency_rules_are_registered_and_exercised_by_the_runtime() {
    for rule in ["lock-order", "blocking-under-lock", "guard-across-park"] {
        assert!(clonos_lint::config::rule_exists(rule), "{rule} missing from RULES");
        assert!(clonos_lint::config::rule_allowable(rule), "{rule} must be allow-able");
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mailbox =
        fs::read_to_string(root.join("crates/engine/src/runtime/mailbox.rs")).unwrap();
    assert_eq!(
        mailbox.matches("allow(blocking-under-lock").count(),
        4,
        "every live mailbox queue.lock() site carries an audited allow"
    );
    let worker = fs::read_to_string(root.join("crates/engine/src/runtime/worker.rs")).unwrap();
    assert_eq!(
        worker.matches("allow(guard-across-park").count(),
        1,
        "the backpressure-ladder yield carries an audited allow"
    );
}

/// The determinism golden: the full analysis — graph construction, BFS
/// exemplar chains, every diagnostic — must be byte-identical run-to-run
/// and under any file-walk order. The linter polices BTree-ordered
/// iteration in the workspace; this test polices the linter.
#[test]
fn analysis_output_is_byte_identical_and_order_independent() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        for f in rust_files_under(&root.join(top)).unwrap() {
            files.push(relative(&root, &f));
        }
    }

    let first = analyze_ordered(&root, &files).unwrap().diags;
    let second = analyze_ordered(&root, &files).unwrap().diags;
    assert_eq!(render_json(&first), render_json(&second), "same input, different output");

    // Deterministic shuffles: reversed and rotated walk orders.
    let mut reversed = files.clone();
    reversed.reverse();
    let third = analyze_ordered(&root, &reversed).unwrap().diags;
    assert_eq!(render_json(&first), render_json(&third), "reversed walk order changed output");

    let mut rotated = files.clone();
    rotated.rotate_left(files.len() / 3);
    let fourth = analyze_ordered(&root, &rotated).unwrap().diags;
    assert_eq!(render_json(&first), render_json(&fourth), "rotated walk order changed output");
}

// ---------------------------------------------------------------------
// Synthetic workspace for the cross-file invariants.
// ---------------------------------------------------------------------

/// The configured file holding the task's replay arms.
const REPLAY: &str = config::REPLAY_SURFACE_FILES[0];

struct MiniRepo {
    root: PathBuf,
}

impl MiniRepo {
    /// A minimal consistent workspace: two Determinant variants with full
    /// encode/decode/replay coverage, the stats structs embedded in
    /// RunReport with every counter consumed by a test file.
    fn consistent(tag: &str) -> MiniRepo {
        let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("mini_{tag}"));
        let _ = fs::remove_dir_all(&root);
        let repo = MiniRepo { root };
        repo.write("Cargo.toml", "[workspace]\nmembers = []\n");
        repo.write(
            "crates/core/src/determinant.rs",
            "pub enum Determinant {\n    Order { channel: u32 },\n    Timer { timer_id: u64 },\n}\n\
             impl Determinant {\n\
                 pub fn encode_wire(&self) { match self { Determinant::Order { .. } => {}, Determinant::Timer { .. } => {} } }\n\
                 pub fn decode_wire(tag: u8) -> Determinant {\n\
                     match tag { 0 => Determinant::Order { channel: 0 }, _ => Determinant::Timer { timer_id: 0 } }\n\
                 }\n\
             }\n",
        );
        for rel in config::REPLAY_SURFACE_FILES.iter().chain(config::MESSAGE_HANDLER_FILES) {
            repo.write(rel, "// no replay arms here\n");
        }
        repo.write(
            REPLAY,
            "fn replay(d: &Determinant) { match d { Determinant::Order { .. } => {}, Determinant::Timer { .. } => {} } }\n",
        );
        repo.write(
            "crates/engine/src/metrics.rs",
            "pub struct RecoveryStats {\n    pub escalations: u64,\n}\n\
             pub struct RoutingStats {\n    pub route_encodes: u64,\n}\n\
             pub struct CheckpointStats {\n    pub rebases: u64,\n}\n\
             pub struct RuntimeStats {\n    pub steals: u64,\n}\n\
             pub struct StateBackendStats {\n    pub faults: u64,\n}\n",
        );
        repo.write(
            "crates/engine/src/runner.rs",
            "pub struct RunReport {\n    pub recovery_stats: RecoveryStats,\n    pub routing_stats: RoutingStats,\n    pub checkpoint_stats: CheckpointStats,\n    pub log_stats: CausalLogStats,\n    pub inflight_stats: InFlightStats,\n    pub runtime_stats: RuntimeStats,\n    pub state_backend_stats: StateBackendStats,\n}\n",
        );
        repo.write(
            "crates/core/src/causal_log.rs",
            "pub struct CausalLogStats {\n    pub deltas_ingested: u64,\n}\n",
        );
        repo.write(
            "crates/engine/tests/counters.rs",
            "fn consume(r: RunReport) {\n    let _ = (r.recovery_stats.escalations, r.routing_stats.route_encodes, r.checkpoint_stats.rebases, r.log_stats.deltas_ingested, r.inflight_stats.replay_io, r.runtime_stats.steals, r.state_backend_stats.faults);\n}\n",
        );
        repo.write(
            "crates/core/src/inflight.rs",
            "pub struct InFlightStats {\n    pub replay_io: u64,\n}\n",
        );
        for f in ["recovery.rs", "standby.rs", "services.rs"] {
            repo.write(&format!("crates/core/src/{f}"), "// empty recovery-path module\n");
        }
        repo
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, contents).unwrap();
    }

    fn rules_fired(&self) -> Vec<String> {
        let mut rules: Vec<String> =
            analyze(&self.root).expect("analysis runs").into_iter().map(|d| d.rule).collect();
        rules.dedup();
        rules
    }
}

#[test]
fn consistent_mini_repo_is_clean() {
    let repo = MiniRepo::consistent("clean");
    assert_eq!(repo.rules_fired(), Vec::<String>::new());
}

#[test]
fn missing_decode_arm_is_detected() {
    let repo = MiniRepo::consistent("decode");
    // Drop the Timer arm from decode_wire only.
    repo.write(
        "crates/core/src/determinant.rs",
        "pub enum Determinant {\n    Order { channel: u32 },\n    Timer { timer_id: u64 },\n}\n\
         impl Determinant {\n\
             pub fn encode_wire(&self) { match self { Determinant::Order { .. } => {}, Determinant::Timer { .. } => {} } }\n\
             pub fn decode_wire(_tag: u8) -> Determinant { Determinant::Order { channel: 0 } }\n\
         }\n",
    );
    let diags = analyze(&repo.root).unwrap();
    assert!(
        diags.iter().any(|d| d.rule == "determinant-codec" && d.message.contains("`Timer`")),
        "{diags:?}"
    );
    // The diagnostic anchors at the variant declaration (file:line).
    let d = diags.iter().find(|d| d.rule == "determinant-codec").unwrap();
    assert_eq!(d.file, "crates/core/src/determinant.rs");
    assert_eq!(d.line, 3);
}

#[test]
fn missing_replay_arm_is_detected() {
    let repo = MiniRepo::consistent("replay");
    repo.write(
        REPLAY,
        "fn replay(d: &Determinant) { match d { Determinant::Order { .. } => {}, _ => {} } }\n",
    );
    let diags = analyze(&repo.root).unwrap();
    assert!(
        diags.iter().any(|d| d.rule == "determinant-replay" && d.message.contains("`Timer`")),
        "{diags:?}"
    );
}

#[test]
fn replay_arm_inside_cfg_test_does_not_count() {
    let repo = MiniRepo::consistent("replay_test_only");
    repo.write(
        REPLAY,
        "fn replay(d: &Determinant) { match d { Determinant::Order { .. } => {}, _ => {} } }\n\
         #[cfg(test)]\nmod tests {\n    fn t(d: &Determinant) { match d { Determinant::Timer { .. } => {}, _ => {} } }\n}\n",
    );
    assert!(repo.rules_fired().contains(&"determinant-replay".to_string()));
}

/// Every configured file is read, the message-handler files included: a
/// handler path that no longer exists (a file split or renamed without its
/// config entry) is an `unreadable-file` error, not a silently empty handler.
#[test]
fn absent_configured_handler_file_is_unreadable() {
    let repo = MiniRepo::consistent("handler_absent");
    let handler = config::MESSAGE_HANDLER_FILES[0];
    fs::remove_file(repo.root.join(handler)).unwrap();
    let diags = analyze(&repo.root).unwrap();
    assert!(
        diags.iter().any(|d| d.rule == "unreadable-file" && d.file == handler),
        "{diags:?}"
    );
}

#[test]
fn unread_counter_is_detected() {
    let repo = MiniRepo::consistent("counter");
    // The test file stops reading the CausalLogStats counter; the fold in
    // its defining file reads it, but a fold is not a reader.
    repo.write(
        "crates/core/src/causal_log.rs",
        "pub struct CausalLogStats {\n    pub deltas_ingested: u64,\n}\n\
         impl CausalLogStats {\n    pub fn absorb(&mut self, o: &CausalLogStats) {\n        self.deltas_ingested += o.deltas_ingested;\n    }\n}\n",
    );
    repo.write(
        "crates/engine/tests/counters.rs",
        "fn consume(r: RunReport) {\n    let _ = (r.recovery_stats.escalations, r.routing_stats.route_encodes);\n}\n",
    );
    let diags = analyze(&repo.root).unwrap();
    assert!(
        diags.iter().any(|d| d.rule == "stats-surfaced" && d.message.contains("deltas_ingested")),
        "{diags:?}"
    );
}

#[test]
fn stats_struct_missing_from_run_report_is_detected() {
    let repo = MiniRepo::consistent("report");
    repo.write(
        "crates/engine/src/runner.rs",
        "pub struct RunReport {\n    pub recovery_stats: RecoveryStats,\n    pub log_stats: CausalLogStats,\n}\n",
    );
    let diags = analyze(&repo.root).unwrap();
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "stats-surfaced" && d.message.contains("`RoutingStats`")),
        "{diags:?}"
    );
}

#[test]
fn missing_configured_file_is_reported_once() {
    let repo = MiniRepo::consistent("unreadable");
    // Both a recovery-path file and a replay-surface file.
    let services = "crates/core/src/services.rs";
    fs::remove_file(repo.root.join(services)).unwrap();
    let diags = analyze(&repo.root).unwrap();
    let about: Vec<_> = diags.iter().filter(|d| d.file == services).collect();
    assert_eq!(about.len(), 1, "{diags:?}");
    assert_eq!((about[0].rule.as_str(), about[0].line), ("unreadable-file", 0));
    assert!(about[0].is_error());
    for old in ["cannot read configured file", "cannot read invariant source file"] {
        assert!(diags.iter().all(|d| !d.message.contains(old)), "{diags:?}");
    }
    assert!(clonos_lint::config::rule_exists("unreadable-file"));
}

#[test]
fn threading_outside_runtime_fails_inside_runtime_is_exempt() {
    let repo = MiniRepo::consistent("threading");
    repo.write(
        "crates/storage/src/lib.rs",
        "use std::sync::Mutex;\npub struct S {\n    m: Mutex<u8>,\n}\n",
    );
    repo.write(
        "crates/engine/src/runtime/mod.rs",
        "use std::sync::Mutex;\nuse std::sync::atomic::AtomicU64;\npub struct M {\n    m: Mutex<u8>,\n    n: AtomicU64,\n}\n",
    );
    let diags = analyze(&repo.root).unwrap();
    let thr: Vec<_> = diags.iter().filter(|d| d.rule == "threading").collect();
    assert!(!thr.is_empty(), "{diags:?}");
    assert!(
        thr.iter().all(|d| d.file == "crates/storage/src/lib.rs"),
        "runtime module must be exempt: {diags:?}"
    );
}

#[test]
fn determinism_violation_in_mini_repo_fails() {
    let repo = MiniRepo::consistent("hashmap");
    repo.write(
        "crates/storage/src/lib.rs",
        "use std::collections::HashMap;\npub fn f() -> HashMap<u8, u8> { HashMap::new() }\n",
    );
    let diags = analyze(&repo.root).unwrap();
    let hash: Vec<_> = diags.iter().filter(|d| d.rule == "hash-collections").collect();
    assert_eq!(hash.len(), 2, "{diags:?}"); // line 1 and line 2
    assert!(hash.iter().all(|d| d.file == "crates/storage/src/lib.rs"));
}
