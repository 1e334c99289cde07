//! Fixture workspaces for the transitive call-graph analyses: multi-hop
//! panic chains, cross-crate taint laundering, protocol exhaustiveness,
//! and the allow-on-a-hop suppression semantics. Each fixture is a real
//! directory tree under `CARGO_TARGET_TMPDIR` run through the full
//! `analyze` pipeline — the same path the CLI takes.

use clonos_lint::config;
use clonos_lint::diagnostics::render_json;
use clonos_lint::{analyze, Diagnostic};
use std::fs;
use std::path::PathBuf;

/// The configured files holding the task's replay arms and its `Msg` dispatch.
const REPLAY: &str = config::REPLAY_SURFACE_FILES[0];
const HANDLER: &str = config::MESSAGE_HANDLER_FILES[0];

struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cg_{tag}"));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        Fixture { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, contents).unwrap();
    }

    fn diags(&self) -> Vec<Diagnostic> {
        analyze(&self.root).expect("analysis runs")
    }

    fn of_rule(&self, rule: &str) -> Vec<Diagnostic> {
        self.diags().into_iter().filter(|d| d.rule == rule).collect()
    }
}

// ---------------------------------------------------------------------
// panic-path
// ---------------------------------------------------------------------

/// Recovery entry in core, three hops through the storage crate, panic at
/// the end. The per-file recovery-panic rule can't see this; the graph can.
fn three_hop_panic(tag: &str, allow_on_mid_hop: bool) -> Fixture {
    let f = Fixture::new(tag);
    f.write(
        "crates/core/src/recovery.rs",
        "pub fn recover() { storage::depot::gather(); }\n",
    );
    let mid_call = if allow_on_mid_hop {
        "pub fn gather() {\n    // clonos-lint: allow(panic-path, reason = \"decode_entry validated by the caller's checksum pass\")\n    decode_entry();\n}\n"
    } else {
        "pub fn gather() { decode_entry(); }\n"
    };
    f.write(
        "crates/storage/src/depot.rs",
        &format!("{mid_call}fn decode_entry() {{ finish(); }}\nfn finish() {{ let x: Option<u32> = None; x.expect(\"boom\"); }}\n"),
    );
    f
}

#[test]
fn three_hop_panic_chain_is_blamed_end_to_end() {
    let f = three_hop_panic("panic3", false);
    let d = f.of_rule("panic-path");
    assert_eq!(d.len(), 1, "{d:?}");
    let diag = &d[0];
    assert_eq!(diag.file, "crates/storage/src/depot.rs");
    assert!(diag.message.contains("`.expect()`"), "{}", diag.message);
    assert!(diag.message.contains("core::recovery::recover"), "{}", diag.message);
    // Full chain, entry first, sink fn last.
    let chain = diag.chain.join(" | ");
    assert!(chain.contains("core::recovery::recover (crates/core/src/recovery.rs:1)"), "{chain}");
    assert!(chain.contains("storage::depot::gather"), "{chain}");
    assert!(chain.contains("storage::depot::decode_entry"), "{chain}");
    assert!(chain.contains("storage::depot::finish"), "{chain}");
    // The blame path survives both renderers.
    let text = diag.to_string();
    assert!(text.contains("path: core::recovery::recover"), "{text}");
    assert!(text.contains("→ storage::depot::finish"), "{text}");
    let json = render_json(&d);
    assert!(json.contains("\"chain\":[\"core::recovery::recover"), "{json}");
}

#[test]
fn allow_on_intermediate_hop_suppresses_whole_path() {
    let f = three_hop_panic("panic3_allowed", true);
    let d = f.diags();
    assert!(
        !d.iter().any(|x| x.rule == "panic-path"),
        "allow on the gather→decode_entry edge must cut every path through it: {d:?}"
    );
    // The annotation did real work, so it must not be reported stale.
    assert!(!d.iter().any(|x| x.rule == "unused-allow"), "{d:?}");
}

#[test]
fn allow_in_unreachable_code_is_stale() {
    let f = three_hop_panic("panic3_stale", false);
    // Same annotation, but on a hop nothing recovery-reachable calls.
    f.write(
        "crates/storage/src/island.rs",
        "pub fn lonely() {\n    // clonos-lint: allow(panic-path, reason = \"never on a recovery path\")\n    helper();\n}\nfn helper() {}\n",
    );
    let d = f.diags();
    assert!(
        d.iter().any(|x| x.rule == "unused-allow" && x.file == "crates/storage/src/island.rs"),
        "an allow covering no blame path must be flagged stale: {d:?}"
    );
}

// ---------------------------------------------------------------------
// replay-taint
// ---------------------------------------------------------------------

/// A determinant decoder launders wall-clock time through a helper crate:
/// the per-file wall-clock rule flags the source line itself, but only the
/// graph sees that the *replay surface* can reach it.
fn laundered_taint(tag: &str, allow_on_hop: bool) -> Fixture {
    let f = Fixture::new(tag);
    f.write(
        "crates/core/src/determinant.rs",
        "pub enum Determinant { Order { channel: u32 } }\n\
         impl Determinant {\n\
             pub fn encode_wire(&self) { match self { Determinant::Order { .. } => {} } }\n\
             pub fn decode_wire(_tag: u8) -> Determinant {\n\
                 storage::stamp::fresh_seed();\n\
                 Determinant::Order { channel: 0 }\n\
             }\n\
         }\n",
    );
    let hop = if allow_on_hop {
        "pub fn fresh_seed() -> u64 {\n    // clonos-lint: allow(replay-taint, reason = \"seed is logged as a determinant before use\")\n    entropy()\n}\n"
    } else {
        "pub fn fresh_seed() -> u64 { entropy() }\n"
    };
    f.write(
        "crates/storage/src/stamp.rs",
        &format!(
            "{hop}fn entropy() -> u64 {{\n    // clonos-lint: allow(wall-clock, reason = \"fixture source\")\n    SystemTime::now_micros()\n}}\n"
        ),
    );
    // Replay arm so the determinant-replay invariant stays quiet.
    f.write(
        REPLAY,
        "fn replay(d: &Determinant) { match d { Determinant::Order { .. } => {} } }\n",
    );
    f.write("crates/engine/src/coordinator.rs", "// no arms\n");
    f
}

#[test]
fn taint_laundered_through_helper_crate_is_traced() {
    let f = laundered_taint("taint", false);
    let d = f.of_rule("replay-taint");
    assert_eq!(d.len(), 1, "{d:?}");
    let diag = &d[0];
    assert_eq!(diag.file, "crates/storage/src/stamp.rs");
    assert!(diag.message.contains("`SystemTime`"), "{}", diag.message);
    assert!(diag.message.contains("replay-surface function"), "{}", diag.message);
    let chain = diag.chain.join(" | ");
    assert!(chain.contains("core::determinant::Determinant::decode_wire"), "{chain}");
    assert!(chain.contains("storage::stamp::fresh_seed"), "{chain}");
    assert!(chain.contains("storage::stamp::entropy"), "{chain}");
}

#[test]
fn taint_allow_on_hop_suppresses_and_is_used() {
    let f = laundered_taint("taint_allowed", true);
    let d = f.diags();
    assert!(!d.iter().any(|x| x.rule == "replay-taint"), "{d:?}");
    assert!(!d.iter().any(|x| x.rule == "unused-allow"), "{d:?}");
}

// ---------------------------------------------------------------------
// message-protocol
// ---------------------------------------------------------------------

#[test]
fn unhandled_message_variant_is_flagged_with_sites() {
    let f = Fixture::new("proto");
    f.write(
        "crates/engine/src/messages.rs",
        "pub enum Msg {\n    Ping { n: u64 },\n    Orphan(u32),\n}\n",
    );
    f.write(
        HANDLER,
        "fn handle(m: Msg) { match m { Msg::Ping { .. } => {}, _ => {} } }\n\
         fn send() { emit(Msg::Ping { n: 1 }); emit(Msg::Orphan(7)); }\n",
    );
    f.write("crates/engine/src/coordinator.rs", "// jm side: no arms\n");
    let d = f.of_rule("message-protocol");
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].file, "crates/engine/src/messages.rs");
    assert_eq!(d[0].line, 3); // Orphan declaration
    assert!(d[0].message.contains("`Msg::Orphan` is constructed but has no handling"));
    assert!(d[0].chain[0].contains(&format!("constructed at {HANDLER}:2")), "{:?}", d[0].chain);
}

#[test]
fn dead_variant_and_dead_arm_are_flagged() {
    let f = Fixture::new("proto_dead");
    f.write(
        "crates/engine/src/messages.rs",
        "pub enum Msg {\n    Ping,\n    Ghost,\n    Zombie,\n}\n",
    );
    f.write(
        HANDLER,
        "fn handle(m: Msg) { match m { Msg::Ping => {}, Msg::Zombie => {}, _ => {} } }\n\
         fn send() { emit(Msg::Ping); }\n",
    );
    f.write("crates/engine/src/coordinator.rs", "// empty\n");
    let d = f.of_rule("message-protocol");
    assert_eq!(d.len(), 2, "{d:?}");
    assert!(d.iter().any(|x| x.message.contains("`Msg::Ghost` is never constructed and never handled")));
    assert!(d.iter().any(|x| x.message.contains("`Msg::Zombie` has a handling match arm but is never constructed")));
}

/// A variant with a handler arm that nobody sends, whose only other
/// mention is a *test* of a value (`if let` in one fixture, `matches!` in
/// the other), is dead protocol surface: a test is not a construction.
fn only_tested_never_sent(tag: &str, test_fn: &str) -> Vec<Diagnostic> {
    let f = Fixture::new(tag);
    f.write(
        "crates/engine/src/messages.rs",
        "pub enum Msg {\n    Ping { n: u64 },\n    Probe(u32),\n}\n",
    );
    f.write(
        HANDLER,
        &format!(
            "fn handle(m: Msg) {{ match m {{ Msg::Ping {{ .. }} => {{}}, Msg::Probe(_) => {{}} }} }}\n\
             fn send() {{ emit(Msg::Ping {{ n: 1 }}); }}\n{test_fn}\n"
        ),
    );
    f.write("crates/engine/src/coordinator.rs", "// jm side: no arms\n");
    f.of_rule("message-protocol")
}

#[test]
fn if_let_on_a_never_sent_variant_is_not_a_construction() {
    let d = only_tested_never_sent(
        "proto_if_let",
        "fn probed(m: &Msg) -> u32 { if let Msg::Probe(k) = m { *k } else { 0 } }",
    );
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!((d[0].file.as_str(), d[0].line), ("crates/engine/src/messages.rs", 3));
    assert!(d[0].message.contains("`Msg::Probe` has a handling match arm but is never constructed"));
    assert_eq!(d[0].chain, vec![format!("handled at {HANDLER}:1")]);
}

#[test]
fn matches_macro_on_a_never_sent_variant_is_not_a_construction() {
    let d = only_tested_never_sent(
        "proto_matches",
        "fn is_probe(m: &Msg) -> bool { matches!(m, Msg::Probe(..)) }",
    );
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].message.contains("`Msg::Probe` has a handling match arm but is never constructed"));
}

// ---------------------------------------------------------------------
// the CLI binary end to end
// ---------------------------------------------------------------------

#[test]
fn cli_exit_codes_gate_on_violations_and_there_is_no_ratchet() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_clonos-lint");
    let run = |root: &std::path::Path, extra: &[&str]| {
        Command::new(bin).arg("--root").arg(root).args(extra).output().unwrap()
    };

    // Violations → exit 1, text report with the blame chain on stdout.
    let dirty = three_hop_panic("cli_dirty", false);
    let out = run(&dirty.root, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[panic-path]") && stdout.contains("path: "), "{stdout}");
    // `--json` carries the same verdict.
    let out = run(&dirty.root, &["--json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"rule\":\"panic-path\""));

    // There is no ratchet mode: every violation gates, and baseline flags
    // are usage errors rather than silently ignored.
    for flag in ["--baseline", "--write-baseline"] {
        let out = run(&dirty.root, &[flag, "lint-baseline.txt"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"), "{flag}");
    }
}
