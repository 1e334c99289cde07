//! Nondeterminism taint propagation (`replay-taint`).
//!
//! Replay correctness (PAPER.md §4–5) requires that everything a replaying
//! operator computes is a pure function of the logged determinants. The
//! per-file determinism rules already ban nondeterminism *sources* from the
//! deterministic crates line-by-line; this transitive rule closes the
//! remaining gap — a source hidden behind an audited per-file allow (or a
//! helper in any graph crate) that is *callable from the replay surface*
//! still corrupts replay, no matter how legitimate its direct use is
//! elsewhere (e.g. wall-clock wall-time reporting in the runner).
//!
//! Entries are the determinant decode/replay consumers: every fn in the
//! replay-surface files (plus the determinant codec itself) whose body
//! mentions `Determinant`. Facts are the taint sources collected by the
//! parser (`SystemTime`, `Instant::now`, `thread_rng`, `OsRng`,
//! `getrandom`, `RandomState`, ...). Path mechanics — edge-removal allows,
//! blame chains, stale-allow bookkeeping — are shared with `panic-path`
//! (see `reach.rs` and `propagate.rs`).

use crate::allows::AllowBook;
use crate::callgraph::CallGraph;
use crate::config;
use crate::diagnostics::Diagnostic;
use crate::parser::MarkKind;
use crate::reach::{self, EntryRule};

pub fn check(graph: &CallGraph, book: &mut AllowBook) -> Vec<Diagnostic> {
    let is_entry = |n: &crate::callgraph::Node| {
        n.item.marks.iter().any(|m| matches!(m.kind, MarkKind::Determinant))
            && (config::REPLAY_SURFACE_FILES.contains(&n.file)
                || n.file == config::DETERMINANT_FILE)
    };
    let rule = EntryRule {
        graph,
        rule: "replay-taint",
        entries: (0..graph.nodes.len()).filter(|&ix| is_entry(&graph.nodes[ix])).collect(),
        entry_label: "replay-surface function",
        facts: Box::new(|ix| {
            let marks = graph.nodes[ix].item.marks.iter();
            marks.filter_map(|m| Some((m.line, format!("`{}`", m.taint()?)))).collect()
        }),
        hint: "route the value through a logged determinant or add an audited allow on a hop \
               of the printed path",
    };
    reach::run(book, rule)
}
