//! Message-protocol exhaustiveness (`message-protocol`).
//!
//! The control-plane enums in `messages.rs` are a closed protocol: a
//! variant someone constructs but no handler matches is a message that
//! silently dies in a catch-all (the class of bug behind the
//! stale-ReplayRequest fix), and a variant with a handler nobody ever
//! constructs is dead protocol surface that rots. For every variant of
//! every enum declared in `config::MESSAGES_FILE` this pass cross-checks:
//!
//! * **constructed** — an `Enum::Variant` construction site in any fn of
//!   the graph crates (`parser::FnItem::sends`);
//! * **handled** — an `Enum::Variant` match-arm pattern (payload and guard
//!   aware, `|` or-patterns included — `parser::ArmRegion`) in a handler
//!   file (`config::MESSAGE_HANDLER_FILES`).
//!
//! Both come from the parser's one occurrence classifier, the same facts
//! the causal pass reads. A pattern that merely *tests* a value — `if let
//! Msg::X(..) = m`, `matches!(m, Msg::X(..))` — is neither: it sends
//! nothing, and it lets every other variant fall through silently, which is
//! exactly what a handling arm must not do.
//!
//! Test sources contribute *no* evidence in either direction: inline
//! `#[cfg(test)]` regions are cut when a file is loaded, and whole
//! test-module files (`src/tests.rs`, `tests/*.rs` — whose cfg marker
//! lives on the `mod` declaration in the parent, invisible here) are
//! skipped by `config::is_test_source`. A variant only a test constructs
//! is still dead protocol surface.
//!
//! A variant must be both or neither-is-fine-only-if-removed: constructed
//! without a handler, handled without a constructor, or fully dead each
//! raise an error anchored at the variant declaration, with the evidence
//! sites (or their absence) in the diagnostic chain. Catch-all `_ =>` and
//! binding arms deliberately do not count as handling — the whole point is
//! that adding a variant must force a conscious handler decision.
//!
//! This is a cross-file invariant; it cannot be `allow`-annotated.

use crate::callgraph::Workspace;
use crate::config;
use crate::diagnostics::Diagnostic;
use std::collections::BTreeMap;

/// Where a variant is declared, constructed and handled: `(file, line)`s.
#[derive(Debug, Default)]
struct Evidence<'a> {
    decl_line: u32,
    constructed: Vec<(&'a str, u32)>,
    handled: Vec<(&'a str, u32)>,
}

pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let Some(msg_file) = ws.files.get(config::MESSAGES_FILE) else {
        return Vec::new(); // no protocol surface (fixture workspaces)
    };
    let mut evidence: BTreeMap<(&str, &str), Evidence> = BTreeMap::new();
    for (enum_name, variants) in &msg_file.enums {
        for (v, line) in variants {
            evidence.insert((enum_name, v), Evidence { decl_line: *line, ..Evidence::default() });
        }
    }

    for (rel, pf) in &ws.files {
        if config::is_test_source(rel) {
            continue;
        }
        let is_handler = config::MESSAGE_HANDLER_FILES.contains(&rel.as_str());
        for item in &pf.fns {
            for s in &item.sends {
                if let Some(ev) = evidence.get_mut(&(s.enm.as_str(), s.variant.as_str())) {
                    ev.constructed.push((rel, s.line));
                }
            }
            for p in item.arms.iter().flat_map(|a| &a.patterns).filter(|_| is_handler) {
                if let Some(ev) = evidence.get_mut(&(p.enm.as_str(), p.variant.as_str())) {
                    ev.handled.push((rel, p.line));
                }
            }
        }
    }

    let mut out = Vec::new();
    for ((enum_name, variant), ev) in &evidence {
        let line = ev.decl_line;
        let qualified = format!("{enum_name}::{variant}");
        let diag = match (ev.constructed.is_empty(), ev.handled.is_empty()) {
            (false, false) => continue, // constructed and handled: healthy
            (false, true) => Diagnostic::new(
                config::MESSAGES_FILE,
                line,
                "message-protocol",
                format!(
                    "variant `{qualified}` is constructed but has no handling match arm in {}",
                    config::MESSAGE_HANDLER_FILES.join(" / ")
                ),
            )
            .with_chain(sites("constructed at", &ev.constructed)),
            (true, false) => Diagnostic::new(
                config::MESSAGES_FILE,
                line,
                "message-protocol",
                format!(
                    "variant `{qualified}` has a handling match arm but is never constructed \
                     (dead control-plane message)"
                ),
            )
            .with_chain(sites("handled at", &ev.handled)),
            (true, true) => Diagnostic::new(
                config::MESSAGES_FILE,
                line,
                "message-protocol",
                format!(
                    "variant `{qualified}` is never constructed and never handled (dead \
                     control-plane message); remove it"
                ),
            ),
        };
        out.push(diag);
    }
    out
}

fn sites(label: &str, ev: &[(&str, u32)]) -> Vec<String> {
    ev.iter().take(3).map(|(f, l)| format!("{label} {f}:{l}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let mut ws = Workspace::default();
        for (rel, src) in files {
            ws.add(rel, Some("clonos_engine".into()), lex(src));
        }
        ws
    }

    const MESSAGES: &str = "pub enum Msg {\n    Ping { n: u64 },\n    Pong(u64),\n}\n";
    /// The task's configured handler file (its `Msg` dispatch).
    const HANDLER: &str = config::MESSAGE_HANDLER_FILES[0];

    #[test]
    fn constructed_and_handled_is_clean() {
        let w = ws(&[
            ("crates/engine/src/messages.rs", MESSAGES),
            (
                HANDLER,
                "fn h(m: Msg) { match m { Msg::Ping { n } => drop(n), Msg::Pong(n) if n > 0 => drop(n), Msg::Pong(_) => {} } }\n\
                 fn send() { emit(Msg::Ping { n: 1 }); emit(Msg::Pong(2)); }\n",
            ),
        ]);
        assert!(check(&w).is_empty(), "{:?}", check(&w));
    }

    #[test]
    fn unhandled_variant_is_flagged_with_construction_site() {
        let w = ws(&[
            ("crates/engine/src/messages.rs", MESSAGES),
            (
                HANDLER,
                "fn h(m: Msg) { match m { Msg::Ping { .. } => {}, _ => {} } }\n\
                 fn send() { emit(Msg::Ping { n: 1 }); emit(Msg::Pong(2)); }\n",
            ),
        ]);
        let d = check(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`Msg::Pong` is constructed but has no handling"));
        assert_eq!(d[0].file, config::MESSAGES_FILE);
        assert_eq!(d[0].line, 3); // Pong declaration
        assert!(d[0].chain[0].contains(&format!("constructed at {HANDLER}:2")));
    }

    #[test]
    fn never_constructed_variant_is_flagged() {
        let w = ws(&[
            ("crates/engine/src/messages.rs", MESSAGES),
            (
                HANDLER,
                "fn h(m: Msg) { match m { Msg::Ping { .. } => {}, Msg::Pong(_) => {} } }\n\
                 fn send() { emit(Msg::Ping { n: 1 }); }\n",
            ),
        ]);
        let d = check(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("never constructed"));
        assert!(d[0].chain[0].contains("handled at"));
    }

    #[test]
    fn fully_dead_variant_is_flagged() {
        let w = ws(&[
            ("crates/engine/src/messages.rs", MESSAGES),
            (
                HANDLER,
                "fn h(m: Msg) { match m { Msg::Ping { .. } => {}, _ => {} } }\n\
                 fn send() { emit(Msg::Ping { n: 1 }); }\n",
            ),
        ]);
        let d = check(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("never constructed and never handled"));
    }

    #[test]
    fn arm_in_cfg_test_or_non_handler_file_does_not_count() {
        let w = ws(&[
            ("crates/engine/src/messages.rs", MESSAGES),
            (
                HANDLER,
                "fn h(m: Msg) { match m { Msg::Ping { .. } => {}, _ => {} } }\n\
                 fn send() { emit(Msg::Ping { n: 1 }); emit(Msg::Pong(2)); }\n\
                 #[cfg(test)]\nmod tests {\n    fn t(m: Msg) { match m { Msg::Pong(_) => {}, _ => {} } }\n}\n",
            ),
            (
                "crates/engine/src/other.rs",
                "fn t(m: Msg) { match m { Msg::Pong(_) => {}, _ => {} } }\n",
            ),
        ]);
        let d = check(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`Msg::Pong` is constructed but has no handling"));
    }

    #[test]
    fn out_of_line_test_module_contributes_no_evidence() {
        // `crates/engine/src/tests.rs` is `#[cfg(test)] mod tests;` in the
        // parent — no cfg marker inside the file itself, so only the
        // test-source path filter keeps its constructions out. A variant
        // constructed *only* there must still read as never-constructed.
        let w = ws(&[
            ("crates/engine/src/messages.rs", MESSAGES),
            (
                HANDLER,
                "fn h(m: Msg) { match m { Msg::Ping { .. } => {}, Msg::Pong(_) => {} } }\n\
                 fn send() { emit(Msg::Ping { n: 1 }); }\n",
            ),
            (
                "crates/engine/src/tests.rs",
                "fn t() { emit(Msg::Pong(7)); }\n",
            ),
            (
                "crates/engine/src/state/tests/fixtures.rs",
                "fn t() { emit(Msg::Pong(8)); }\n",
            ),
        ]);
        let d = check(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`Msg::Pong` has a handling match arm but is never constructed"));
    }

    #[test]
    fn or_pattern_counts_as_handled() {
        let w = ws(&[
            ("crates/engine/src/messages.rs", MESSAGES),
            (
                "crates/engine/src/cluster.rs",
                "fn h(m: Msg) { match m { Msg::Ping { .. } | Msg::Pong(_) => {} } }\n\
                 fn send() { emit(Msg::Ping { n: 1 }); emit(Msg::Pong(2)); }\n",
            ),
        ]);
        assert!(check(&w).is_empty(), "{:?}", check(&w));
    }

    /// A variant someone only *destructures* is not thereby constructed:
    /// `Pong` has its arm, nobody sends it, and the `if let` in `peek` is a
    /// test, not a send.
    #[test]
    fn if_let_destructuring_is_not_a_construction() {
        let w = ws(&[
            ("crates/engine/src/messages.rs", MESSAGES),
            (
                HANDLER,
                "fn h(m: Msg) { match m { Msg::Ping { .. } => {}, Msg::Pong(_) => {} } }\n\
                 fn send() { emit(Msg::Ping { n: 1 }); }\n\
                 fn peek(m: &Msg) -> u64 { if let Msg::Pong(n) = m { *n } else { 0 } }\n",
            ),
        ]);
        let d = check(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`Msg::Pong` has a handling match arm but is never constructed"));
        assert!(d[0].chain[0].contains(&format!("handled at {HANDLER}:1")), "{:?}", d[0].chain);
    }

    /// Same for `matches!`: its second operand is a pattern.
    #[test]
    fn matches_macro_pattern_is_not_a_construction() {
        let w = ws(&[
            ("crates/engine/src/messages.rs", MESSAGES),
            (
                HANDLER,
                "fn h(m: Msg) { match m { Msg::Ping { .. } => {}, Msg::Pong(_) => {} } }\n\
                 fn send() { emit(Msg::Ping { n: 1 }); }\n\
                 fn is_pong(m: &Msg) -> bool { matches!(m, Msg::Pong(..) | Msg::Pong(0)) }\n",
            ),
        ]);
        let d = check(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`Msg::Pong` has a handling match arm but is never constructed"));
    }

    /// ...and neither test counts as *handling*: both let every other
    /// variant fall through silently, which is what the rule exists to stop.
    #[test]
    fn test_patterns_do_not_handle_either() {
        let w = ws(&[
            ("crates/engine/src/messages.rs", MESSAGES),
            (
                HANDLER,
                "fn h(m: Msg) { match m { Msg::Ping { .. } => {}, _ => {} } }\n\
                 fn send() { emit(Msg::Ping { n: 1 }); emit(Msg::Pong(2)); }\n\
                 fn peek(m: &Msg) -> bool { if let Msg::Pong(_) = m { return true; } matches!(m, Msg::Pong(1)) }\n",
            ),
        ]);
        let d = check(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`Msg::Pong` is constructed but has no handling"));
        assert_eq!(d[0].chain, vec![format!("constructed at {HANDLER}:2")]);
    }
}
