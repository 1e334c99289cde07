//! Fixture workspaces for the causal-protocol pass: orphan variants,
//! non-progressing cycles, unstabilized recovery entries, the audited
//! allow-on-a-hop escape hatch, the stale-allow negative, and the derived
//! chain spec. Each fixture is a real directory tree under
//! `CARGO_TARGET_TMPDIR` run through the full `analyze` pipeline — the
//! same path the CLI takes.

use clonos_lint::causal::render_spec;
use clonos_lint::{analyze, analyze_full, Diagnostic};
use std::fs;
use std::path::PathBuf;

struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("causal_{tag}"));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        Fixture { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, contents).unwrap();
    }

    fn of_rule(&self, rule: &str) -> Vec<Diagnostic> {
        analyze(&self.root)
            .expect("analysis runs")
            .into_iter()
            .filter(|d| d.rule == rule)
            .collect()
    }
}

// ---------------------------------------------------------------------
// orphan-event
// ---------------------------------------------------------------------

/// `Dead2` is only constructed inside the handler arm of `Dead1`, which
/// nothing ever sends: no send of `Dead2` is reachable from the one
/// protocol entry (`Boot`, sent spontaneously by `deploy`).
#[test]
fn orphan_variant_is_flagged_at_its_declaration() {
    let f = Fixture::new("orphan");
    f.write(
        "crates/engine/src/messages.rs",
        "pub enum Msg {\n    Boot,\n    Tick,\n    Dead1,\n    Dead2,\n}\n",
    );
    f.write(
        "crates/engine/src/coordinator.rs",
        "pub fn deploy() { emit(Msg::Boot); }\n\
         fn handle(m: Msg) {\n\
             match m {\n\
                 Msg::Boot => emit(Msg::Tick),\n\
                 Msg::Tick => {}\n\
                 Msg::Dead1 => emit(Msg::Dead2),\n\
                 Msg::Dead2 => {}\n\
             }\n\
         }\n\
         fn emit(_m: Msg) {}\n",
    );
    let d = f.of_rule("orphan-event");
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].message.contains("`Msg::Dead2`"), "{}", d[0].message);
    assert_eq!(d[0].file, "crates/engine/src/messages.rs");
    assert_eq!(d[0].line, 5); // Dead2 declaration
    assert!(d[0].chain[0].contains("constructed at crates/engine/src/coordinator.rs:"));
    // `Tick` is reachable from the entry; `Dead1` is never constructed at
    // all — that is message-protocol's finding, not an orphan.
    assert!(!d[0].message.contains("Tick"));
}

// ---------------------------------------------------------------------
// non-progressing-cycle
// ---------------------------------------------------------------------

fn cycle_fixture(tag: &str, pong_arm: &str) -> Fixture {
    let f = Fixture::new(tag);
    f.write(
        "crates/engine/src/messages.rs",
        "pub enum Msg {\n    Kick,\n    Ping,\n    Pong,\n}\n",
    );
    f.write(
        "crates/engine/src/coordinator.rs",
        &format!(
            "pub fn deploy() {{ emit(Msg::Kick); }}\n\
             fn handle(m: Msg) {{\n\
                 match m {{\n\
                     Msg::Kick => emit(Msg::Ping),\n\
                     Msg::Ping => emit(Msg::Pong),\n\
                     {pong_arm}\n\
                 }}\n\
             }}\n\
             fn emit(_m: Msg) {{}}\n"
        ),
    );
    f
}

#[test]
fn two_variant_cycle_without_progress_is_flagged() {
    let f = cycle_fixture("cycle", "Msg::Pong => emit(Msg::Ping),");
    let d = f.of_rule("non-progressing-cycle");
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].message.contains("`Ping → Pong → Ping`"), "{}", d[0].message);
    assert_eq!(d[0].file, "crates/engine/src/messages.rs");
    assert_eq!(d[0].line, 3); // anchored at the BTree-min variant, Ping
    // The chain names both hops with their arm and send sites.
    assert!(d[0].chain.iter().any(|h| h.contains("`Ping` handled at")), "{:?}", d[0].chain);
    assert!(d[0].chain.iter().any(|h| h.contains("`Pong` handled at")), "{:?}", d[0].chain);
}

#[test]
fn cycle_with_a_progress_counter_is_clean() {
    let f = cycle_fixture("cycle_ok", "Msg::Pong => { seq += 1; emit(Msg::Ping) }");
    assert!(f.of_rule("non-progressing-cycle").is_empty());
}

#[test]
fn audited_allow_on_a_cycle_send_site_suppresses_and_is_not_stale() {
    let f = cycle_fixture(
        "cycle_allow",
        "// clonos-lint: allow(non-progressing-cycle, reason = \"bounded by the fixture horizon\")\n\
                     Msg::Pong => emit(Msg::Ping),",
    );
    assert!(f.of_rule("non-progressing-cycle").is_empty());
    assert!(f.of_rule("unused-allow").is_empty());
}

#[test]
fn stale_allow_without_a_cycle_is_reported() {
    // Same annotation, but the `Pong` arm sends nothing: there is no cycle
    // for the allow to suppress — it must surface as unused-allow.
    let f = cycle_fixture(
        "cycle_stale",
        "// clonos-lint: allow(non-progressing-cycle, reason = \"not actually needed\")\n\
                     Msg::Pong => {}",
    );
    assert!(f.of_rule("non-progressing-cycle").is_empty());
    let stale = f.of_rule("unused-allow");
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert!(stale[0].message.contains("non-progressing-cycle"));
}

/// Handling `Boot` sends `Tick` along two relay paths, through
/// `crates/engine/src/{a,z}.rs`; only the relay in `progressing` advances a
/// counter. The edge makes progress whichever file name sorts first:
/// progress is a property of some evidence path, not of the exemplar the
/// BFS happens to keep.
fn two_relay_fixture(tag: &str, progressing: &str, plain: &str) -> Fixture {
    let f = Fixture::new(tag);
    f.write("crates/engine/src/messages.rs", "pub enum Msg {\n    Boot,\n    Tick,\n}\n");
    f.write(
        "crates/engine/src/coordinator.rs",
        "pub fn deploy() { emit(Msg::Boot); }\n\
         fn handle(m: Msg) {\n\
             match m {\n\
                 Msg::Boot => { crate::a::relay(); crate::z::relay(); }\n\
                 Msg::Tick => {}\n\
             }\n\
         }\n\
         fn emit(_m: Msg) {}\n",
    );
    let relay = |file: &str, body: &str| {
        f.write(&format!("crates/engine/src/{file}.rs"), &format!("pub fn relay() {{ {body} }}\n"));
    };
    relay(progressing, "seq += 1; crate::tick::send();");
    relay(plain, "crate::tick::send();");
    f.write("crates/engine/src/tick.rs", "pub fn send() { emit(Msg::Tick); }\nfn emit(_m: Msg) {}\n");
    f
}

#[test]
fn progress_on_some_path_counts_whatever_the_file_order() {
    for (tag, progressing, plain) in [("progress_z", "z", "a"), ("progress_a", "a", "z")] {
        let fa = analyze_full(&two_relay_fixture(tag, progressing, plain).root).unwrap();
        let edge = fa.spec.edges.iter().find(|e| e.from == "Boot" && e.to == "Tick");
        assert!(edge.is_some_and(|e| e.progress), "{tag}: {:?}", fa.spec.edges);
    }
}

// ---------------------------------------------------------------------
// unstabilized-recovery
// ---------------------------------------------------------------------

fn recovery_fixture(tag: &str, install_arm: &str, extra_variants: &str) -> Fixture {
    let f = Fixture::new(tag);
    f.write(
        "crates/engine/src/messages.rs",
        &format!(
            "pub enum Msg {{\n    FailureDetected,\n    InstallRecovery,\n{extra_variants}}}\n"
        ),
    );
    f.write(
        "crates/engine/src/coordinator.rs",
        &format!(
            "pub fn kill() {{ emit(Msg::FailureDetected); }}\n\
             fn handle(m: Msg) {{\n\
                 match m {{\n\
                     Msg::FailureDetected => emit(Msg::InstallRecovery),\n\
                     {install_arm}\n\
                 }}\n\
             }}\n\
             fn emit(_m: Msg) {{}}\n",
        ),
    );
    f
}

#[test]
fn recovery_entry_that_cannot_stabilize_is_flagged_with_the_stalled_frontier() {
    let f = recovery_fixture("unstab", "Msg::InstallRecovery => {}", "");
    let d = f.of_rule("unstabilized-recovery");
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].file, "crates/engine/src/messages.rs");
    assert_eq!(d[0].line, 2); // FailureDetected declaration
    assert!(d[0].message.contains("`Msg::FailureDetected`"), "{}", d[0].message);
    assert!(d[0].message.contains("stalls at `InstallRecovery`"), "{}", d[0].message);
    assert!(
        d[0].chain.iter().any(|h| h.contains("reaches `InstallRecovery`")),
        "{:?}",
        d[0].chain
    );
}

#[test]
fn recovery_chain_reaching_a_stabilizing_send_is_clean() {
    let f = recovery_fixture(
        "stab",
        "Msg::InstallRecovery => emit(Msg::RecoveryDone),\n\
                     Msg::RecoveryDone => {}",
        "    RecoveryDone,\n",
    );
    assert!(f.of_rule("unstabilized-recovery").is_empty());
}

// ---------------------------------------------------------------------
// derived spec
// ---------------------------------------------------------------------

#[test]
fn spec_carries_entries_and_response_edges() {
    let f = Fixture::new("spec");
    f.write(
        "crates/engine/src/messages.rs",
        "pub enum Msg {\n    Boot,\n    Tick,\n}\n",
    );
    f.write(
        "crates/engine/src/coordinator.rs",
        "pub fn deploy() { emit(Msg::Boot); }\n\
         fn handle(m: Msg) {\n\
             match m {\n\
                 Msg::Boot => emit(Msg::Tick),\n\
                 Msg::Tick => {}\n\
             }\n\
         }\n\
         fn emit(_m: Msg) {}\n",
    );
    let fa = analyze_full(&f.root).unwrap();
    assert!(fa.spec.entries.iter().any(|e| e.variant == "Boot"), "{:?}", fa.spec.entries);
    assert!(
        fa.spec.edges.iter().any(|e| e.from == "Boot" && e.to == "Tick"),
        "{:?}",
        fa.spec.edges
    );
    let json = render_spec(&fa.spec);
    assert!(json.contains("\"variant\":\"Boot\""), "{json}");
    assert!(json.contains("\"from\":\"Boot\",\"to\":\"Tick\""), "{json}");
}
