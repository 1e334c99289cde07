//! Transitive panic-reachability (`panic-path`) and the entry→fact rule
//! shape it shares with `replay-taint` (`taint.rs`).
//!
//! Shape of both rules: a set of *entry* nodes, a set of *facts* attached
//! to nodes (panic sinks / nondeterminism sources), and the claim that no
//! entry may transitively reach a fact. States are plain call-graph nodes;
//! propagation, allow semantics (a covered call site removes that edge, a
//! covered fact removes the sink) and stale-allow bookkeeping are
//! `propagate::run`'s. Each surviving fact is reported with the shortest
//! exemplar blame chain from an entry, in both text and JSON.

use crate::allows::AllowBook;
use crate::callgraph::CallGraph;
use crate::config;
use crate::diagnostics::Diagnostic;
use crate::propagate::{self, PathRule};
use std::collections::BTreeSet;

/// Parameterization of one entry→fact rule.
pub struct EntryRule<'a> {
    pub graph: &'a CallGraph<'a>,
    /// Rule id (`panic-path` / `replay-taint`) — also the allow key.
    pub rule: &'static str,
    /// Entry node indexes (BFS sources).
    pub entries: BTreeSet<usize>,
    /// Rendered into the message: what an entry is.
    pub entry_label: &'static str,
    /// Facts per node: `(line, rendered fact)`, already filtered to the
    /// rule's sink set (but not yet for allow coverage).
    pub facts: Box<dyn Fn(usize) -> Vec<(u32, String)> + 'a>,
    /// Appended fix hint.
    pub hint: &'static str,
}

impl PathRule for EntryRule<'_> {
    type State = usize;
    type Sink = String;

    fn id(&self) -> &'static str {
        self.rule
    }
    fn seeds(&self) -> Vec<usize> {
        self.entries.iter().copied().collect()
    }
    fn node(&self, s: &usize) -> usize {
        *s
    }
    fn calls(&self, s: &usize) -> Vec<(u32, usize)> {
        self.graph.edges[*s].iter().map(|e| (e.line, e.to)).collect()
    }
    fn sinks(&self, s: &usize) -> Vec<(u32, String)> {
        (self.facts)(*s)
    }
}

/// Run an entry→fact rule over the graph. Marks used allows in `book`.
pub fn run(book: &mut AllowBook, rule: EntryRule<'_>) -> Vec<Diagnostic> {
    let graph = rule.graph;
    let found = propagate::run(graph, book, &rule);
    let mut out = Vec::new();
    for (ix, line, what) in found.hits {
        // `entry (file:line) → hop (file:line) → ...`, one hop per node.
        let path = found.reached.path_to(&ix);
        let node = &graph.nodes[ix];
        out.push(
            Diagnostic::new(
                node.file,
                line,
                rule.rule,
                format!(
                    "{what} in `{}` is transitively reachable from {} `{}`; {}",
                    node.path, rule.entry_label, graph.nodes[path[0]].path, rule.hint
                ),
            )
            .with_chain(path.iter().map(|&n| graph.nodes[n].render()).collect()),
        );
    }
    out
}

/// The `panic-path` rule: no function transitively reachable from a
/// recovery entry point (public fns of the recovery-path files) may panic.
/// Sinks *inside* the recovery-path files are excluded — the per-file
/// `recovery-panic` rule owns those lines, with its own audited allows.
pub fn check(graph: &CallGraph, book: &mut AllowBook) -> Vec<Diagnostic> {
    let on_recovery_path = |ix: usize| {
        config::RECOVERY_PATH_FILES.contains(&graph.nodes[ix].file)
    };
    let rule = EntryRule {
        graph,
        rule: "panic-path",
        entries: (0..graph.nodes.len())
            .filter(|&ix| graph.nodes[ix].item.is_pub && on_recovery_path(ix))
            .collect(),
        entry_label: "recovery entry point",
        facts: Box::new(move |ix| {
            if on_recovery_path(ix) {
                return Vec::new();
            }
            graph.nodes[ix].item.marks.iter().filter_map(|m| Some((m.line, m.panic()?))).collect()
        }),
        hint: "surface an error into the retry/escalation ladder or add an audited allow on a \
               hop of the printed path",
    };
    run(book, rule)
}
