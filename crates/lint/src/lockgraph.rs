//! Concurrency-soundness pass: transitive held-lock analysis over the
//! sharded runtime (and any other lock-bearing code the parser sees).
//!
//! The parser marks every `.lock()`/`.try_lock()`/`Condvar::wait` site
//! with a `LockFact` — which lock field is acquired, whether the guard is
//! bound (live to the end of the enclosing block) or a temporary (live to
//! the end of the statement) — and every blocking or parking operation
//! (`recv`, `std::thread::sleep`, `yield_now`, `park`) with a `Block` mark.
//! All marks share a token-ordinal scale with call-graph edges, so "call
//! made while guard live" is a plain ordinal-window test.
//!
//! From those facts this pass computes **held-lock states** and runs them
//! through the shared engine (`propagate::run`). A state is either the
//! acquiring function's own *frame* — its body inside the guard's window,
//! the zero-hop case — or a *callee* entered, however deep, from a call
//! site a live guard covers, whose whole body therefore runs under the
//! lock. Three rules read the states, each defined by nothing but its
//! sink predicate (`HeldRule::sinks`):
//!
//! * `lock-order` — directed order edges `L → M` wherever `M` is acquired
//!   *blockingly* while `L` is held (however `L` itself was acquired —
//!   a `try_lock`-ed guard deadlocks its waiters all the same); a cycle
//!   among the order edges is the classic AB/BA deadlock and is reported
//!   once per cycle with one exemplar blame chain per edge.
//! * `blocking-under-lock` — any blocking acquisition, `Condvar::wait`,
//!   blocking channel `recv`, or `std::thread::sleep` reachable while a
//!   lock is held. `try_lock` is *not* a sink: failing fast and helping
//!   (the DESIGN.md §9 drain→help→yield ladder) is the sanctioned pattern.
//! * `guard-across-park` — a guard live across `yield_now`/`park`: the
//!   scheduler may run every other thread into the held lock first.
//!
//! Allow semantics are the engine's: an audited allow on the acquisition
//! line kills every path from that guard, one on a call-site line kills
//! paths through that edge, one on the sink line kills the sink — so an
//! allow works on any hop of the printed chain, and one that no held path
//! to a sink runs through ages into `unused-allow`. Lock identity is the
//! receiver field name (`queue`, `state`), rendered as `Struct::field` when
//! the workspace declares the field exactly once — same-named fields on
//! different structs conflate, which is conservative (more states, never
//! fewer).

use crate::allows::AllowBook;
use crate::callgraph::{CallGraph, Workspace};
use crate::diagnostics::Diagnostic;
use crate::parser::{BlockKind, LockFact, LockOp, Mark, MarkKind, SYNC_PRIMITIVES};
use crate::propagate::{self, bfs, PathRule};
use std::collections::{BTreeMap, BTreeSet};

const RULE_ORDER: &str = "lock-order";
const RULE_BLOCK: &str = "blocking-under-lock";
const RULE_PARK: &str = "guard-across-park";

/// "This code can run with that lock held." Ordered callees first, then
/// frames by `(node, acquisition)` — the order exemplars are picked in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Held<'a> {
    /// `node` was called, directly or transitively, from under a live
    /// guard of `lock`: its whole body runs with the lock held.
    Callee { node: usize, lock: &'a str },
    /// The acquiring function itself, inside the guard window of the lock
    /// mark `marks[acq]` (`acq.ord < ord <= acq.scope_end`).
    Frame { node: usize, acq: usize },
}

/// What a held state must not contain.
enum Sink<'a> {
    /// A blocking acquisition (`.lock()` / `Condvar::wait*`).
    Acquire(&'a LockFact),
    /// A blocking or parking operation that takes no guard, rendered.
    Op(&'a str),
}

struct HeldRule<'a> {
    graph: &'a CallGraph<'a>,
    rule: &'static str,
}

impl<'a> HeldRule<'a> {
    /// The acquisition a frame state sits under, and its mark.
    fn guard(&self, s: &Held<'a>) -> Option<(&'a Mark, &'a LockFact)> {
        let Held::Frame { node, acq } = *s else { return None };
        let mark = &self.graph.nodes[node].item.marks[acq];
        match &mark.kind {
            MarkKind::Lock(fact) => Some((mark, fact)),
            _ => None,
        }
    }

    fn lock(&self, s: &Held<'a>) -> &'a str {
        match *s {
            Held::Callee { lock, .. } => lock,
            Held::Frame { .. } => self.guard(s).map_or("", |(_, a)| a.lock.as_str()),
        }
    }

    /// Does the state cover token ordinal `ord` of its function?
    fn covers(&self, s: &Held<'a>, ord: u32) -> bool {
        self.guard(s).is_none_or(|(at, a)| at.ord < ord && ord <= a.scope_end)
    }
}

impl<'a> PathRule for HeldRule<'a> {
    type State = Held<'a>;
    type Sink = Sink<'a>;

    fn id(&self) -> &'static str {
        self.rule
    }

    fn seeds(&self) -> Vec<Held<'a>> {
        let frames = |(node, n): (usize, &crate::callgraph::Node<'a>)| {
            let locks = n.item.marks.iter().enumerate();
            let locks = locks.filter(|(_, m)| matches!(m.kind, MarkKind::Lock(_)));
            locks.map(move |(acq, _)| Held::Frame { node, acq })
        };
        self.graph.nodes.iter().enumerate().flat_map(frames).collect()
    }

    fn node(&self, s: &Held<'a>) -> usize {
        match *s {
            Held::Callee { node, .. } | Held::Frame { node, .. } => node,
        }
    }

    fn seed_line(&self, s: &Held<'a>) -> Option<u32> {
        self.guard(s).map(|(at, _)| at.line)
    }

    fn calls(&self, s: &Held<'a>) -> Vec<(u32, Held<'a>)> {
        let lock = self.lock(s);
        self.graph.edges[self.node(s)]
            .iter()
            .filter(|e| self.covers(s, e.ord))
            .map(|e| (e.line, Held::Callee { node: e.to, lock }))
            .collect()
    }

    /// The one place each rule's sinks are spelled out.
    fn sinks(&self, s: &Held<'a>) -> Vec<(u32, Sink<'a>)> {
        let held = self.lock(s);
        let sink = |m: &'a Mark| match (&m.kind, self.rule) {
            (MarkKind::Lock(f), RULE_BLOCK | RULE_ORDER)
                if matches!(f.op, LockOp::Lock | LockOp::Wait)
                    && (self.rule == RULE_BLOCK || f.lock != held) =>
            {
                Some(Sink::Acquire(f))
            }
            (MarkKind::Block(what, BlockKind::Blocking), RULE_BLOCK)
            | (MarkKind::Block(what, BlockKind::Park), RULE_PARK) => Some(Sink::Op(what)),
            _ => None,
        };
        let marks = self.graph.nodes[self.node(s)].item.marks.iter();
        marks.filter(|m| self.covers(s, m.ord)).filter_map(|m| Some((m.line, sink(m)?))).collect()
    }
}

/// One exemplar per lock-order edge `L → M`.
struct OrderEx {
    hops: Vec<String>,
    file: String,
    line: u32,
}

pub fn check(ws: &Workspace, graph: &CallGraph, book: &mut AllowBook) -> Vec<Diagnostic> {
    // field -> declaring structs, for `Struct::field` display names.
    let mut fields: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (strukt, fs) in ws.files.values().flat_map(|pf| &pf.structs) {
        // `FieldFact::ty` stops at the first generic-argument comma, so
        // `Mutex<..>` and `Arc<Mutex<..>>` count, `Map<K, Mutex<V>>` does not.
        for f in fs.iter().filter(|f| f.ty.iter().any(|t| SYNC_PRIMITIVES.contains(&t.as_str()))) {
            fields.entry(&f.name).or_default().insert(strukt);
        }
    }
    let disp = |l: &str| -> String {
        match fields.get(l) {
            Some(ss) if ss.len() == 1 => format!("{}::{l}", ss.iter().next().unwrap()),
            _ => l.to_string(),
        }
    };

    let mut out = Vec::new();
    let mut order_edges: BTreeMap<(&str, &str), OrderEx> = BTreeMap::new();
    for rule in [RULE_BLOCK, RULE_PARK, RULE_ORDER] {
        let held = HeldRule { graph, rule };
        let found = propagate::run(graph, book, &held);
        for (st, line, sink) in &found.hits {
            // Blame chain from the acquiring frame down to the state's
            // node: `f acquires `L` (file:line) → g (file:line) → ...`.
            let path = found.reached.path_to(st);
            let Some((at, acq)) = held.guard(&path[0]) else { continue };
            let (seed, node) = (&graph.nodes[held.node(&path[0])], &graph.nodes[held.node(st)]);
            let lock = disp(&acq.lock);
            let mut chain =
                vec![format!("{} acquires `{lock}` ({}:{})", seed.path, seed.file, at.line)];
            chain.extend(path[1..].iter().map(|s| graph.nodes[held.node(s)].render()));
            // Zero-hop findings name the acquisition site alone; a path
            // finding names the acquiring function and offers its hops.
            let direct = path.len() == 1;
            let holder = format!(
                "`{lock}` is held (acquired {}{}:{})",
                if direct { "at ".to_string() } else { format!("in `{}`, ", seed.path) },
                seed.file,
                at.line
            );
            let on_path = if direct { "" } else { " on a hop of the printed path" };
            let message = match (rule, sink) {
                (RULE_ORDER, Sink::Acquire(f)) => {
                    order_edges.entry((&acq.lock, &f.lock)).or_insert_with(|| {
                        chain.push(format!(
                            "{} acquires `{}` while holding `{lock}` ({}:{})",
                            node.path,
                            disp(&f.lock),
                            node.file,
                            line
                        ));
                        OrderEx { hops: chain, file: node.file.to_string(), line: *line }
                    });
                    continue;
                }
                (_, Sink::Acquire(f)) => format!(
                    "{} in `{}` while {holder}; a stalled owner wedges the worker — use \
                     `try_lock` with the bounded help ladder (DESIGN.md §9) or add an audited \
                     allow{on_path}",
                    match f.op {
                        LockOp::Wait => format!("`Condvar::wait` on `{}`", disp(&f.lock)),
                        _ => format!("blocking `.lock()` of `{}`", disp(&f.lock)),
                    },
                    node.path
                ),
                (RULE_PARK, Sink::Op(b)) => format!(
                    "{} in `{}` parks while {holder}; {}drop the guard before yielding or add \
                     an audited allow",
                    b,
                    node.path,
                    if direct {
                        ""
                    } else {
                        "the scheduler can starve every thread waiting on that lock — "
                    }
                ),
                (_, Sink::Op(b)) => format!(
                    "{} in `{}` while {holder}; the lock stays held for the full wait — \
                     restructure or add an audited allow{on_path}",
                    b, node.path
                ),
            };
            out.push(Diagnostic::new(node.file, *line, rule, message).with_chain(chain));
        }
    }

    // ---- lock-order cycles over the surviving order edges ----
    out.extend(order_cycles(&order_edges, &disp));
    out
}

/// Find cycles in the order-edge digraph. Each cycle is reported once,
/// anchored at its first edge's exemplar, with every edge's blame chain
/// concatenated into one printed path. Deterministic: locks and
/// successors iterate in BTree order, and a reported cycle retires its
/// locks so overlapping rotations collapse to one report.
fn order_cycles(
    edges: &BTreeMap<(&str, &str), OrderEx>,
    disp: &dyn Fn(&str) -> String,
) -> Vec<Diagnostic> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (l, m) in edges.keys() {
        adj.entry(l).or_default().push(m);
    }
    let next = |l: &&str| adj.get(l).cloned().unwrap_or_default();
    let mut out = Vec::new();
    let mut retired: BTreeSet<&str> = BTreeSet::new();
    for &start in adj.keys() {
        if retired.contains(start) {
            continue;
        }
        // Shortest cycle through `start`: the shortest way back to it from
        // its successors (length ≥ 2: self-edges are never recorded).
        let back = bfs(next(&start), next);
        if !back.contains(&start) {
            continue;
        }
        let mut cycle = back.path_to(&start);
        cycle.rotate_right(1); // [.., last, start] → [start, .., last]
        retired.extend(cycle.iter().copied());

        let edge = |i: usize| &edges[&(cycle[i], cycle[(i + 1) % cycle.len()])];
        let hops = (0..cycle.len()).flat_map(|i| edge(i).hops.iter().cloned()).collect();
        let shown: Vec<String> = cycle
            .iter()
            .chain(std::iter::once(&start))
            .map(|l| format!("`{}`", disp(l)))
            .collect();
        out.push(
            Diagnostic::new(
                edge(0).file.clone(),
                edge(0).line,
                RULE_ORDER,
                format!(
                    "lock-order cycle: {} — call paths acquire these locks in conflicting \
                     orders, so two workers interleaving them deadlock; impose a single \
                     acquisition hierarchy (DESIGN.md §9) or add an audited allow on a hop \
                     of the printed paths",
                    shown.join(" → ")
                ),
            )
            .with_chain(hops),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn analyze(files: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
        let mut ws = Workspace::default();
        let mut book = AllowBook::default();
        for (rel, lib, src) in files {
            ws.add(rel, Some(lib.to_string()), lex(src));
            book.add_file(rel, &ws.sources[*rel].allows);
        }
        let graph = CallGraph::build(&ws);
        let mut out = check(&ws, &graph, &mut book);
        out.extend(book.finish());
        out.sort();
        out
    }

    fn rules(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn two_lock_cycle_in_one_file() {
        let d = analyze(&[(
            "crates/core/src/a.rs",
            "clonos",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 fn ab(&self) { let g = self.a.lock().unwrap(); let h = self.b.lock().unwrap(); }\n\
                 fn ba(&self) { let g = self.b.lock().unwrap(); let h = self.a.lock().unwrap(); }\n\
             }\n",
        )]);
        let cycles: Vec<_> = d.iter().filter(|d| d.rule == RULE_ORDER).collect();
        assert_eq!(cycles.len(), 1, "{d:#?}");
        assert!(cycles[0].message.contains("`S::a` → `S::b` → `S::a`"), "{}", cycles[0].message);
        // Exemplars for both directions appear in the chain.
        let chain = cycles[0].chain.join(" | ");
        assert!(chain.contains("acquires `S::b` while holding `S::a`"), "{chain}");
        assert!(chain.contains("acquires `S::a` while holding `S::b`"), "{chain}");
        // The nested blocking acquisitions are also blocking-under-lock.
        assert!(rules(&d).contains(&RULE_BLOCK));
    }

    #[test]
    fn blocking_under_lock_is_transitive_with_chain() {
        let d = analyze(&[(
            "crates/core/src/a.rs",
            "clonos",
            "struct S { m: Mutex<u32> }\n\
             impl S {\n\
                 fn top(&self) { let g = self.m.lock().unwrap(); self.helper(); }\n\
                 fn helper(&self) { self.wait_for_it(); }\n\
                 fn wait_for_it(&self) { std::thread::sleep(d); }\n\
             }\n",
        )]);
        let hits: Vec<_> = d.iter().filter(|d| d.rule == RULE_BLOCK).collect();
        assert_eq!(hits.len(), 1, "{d:#?}");
        assert!(hits[0].message.contains("`std::thread::sleep`"), "{}", hits[0].message);
        assert!(hits[0].message.contains("`S::m` is held"), "{}", hits[0].message);
        let chain = &hits[0].chain;
        assert_eq!(chain.len(), 3, "{chain:?}");
        assert!(chain[0].contains("top acquires `S::m`"), "{chain:?}");
        assert!(chain[1].contains("helper"), "{chain:?}");
        assert!(chain[2].contains("wait_for_it"), "{chain:?}");
    }

    #[test]
    fn try_lock_help_pattern_is_clean() {
        // The sanctioned escape hatch: under a held guard, the helper only
        // try_locks — no blocking sink anywhere.
        let d = analyze(&[(
            "crates/core/src/a.rs",
            "clonos",
            "struct S { m: Mutex<u32>, q: Mutex<u32> }\n\
             impl S {\n\
                 fn top(&self) { let g = self.m.lock().unwrap(); self.help(); }\n\
                 fn help(&self) { if let Ok(h) = self.q.try_lock() { } }\n\
             }\n",
        )]);
        assert!(
            d.iter().all(|d| d.rule != RULE_BLOCK && d.rule != RULE_ORDER),
            "{d:#?}"
        );
    }

    #[test]
    fn guard_across_park_detected_even_from_try_lock() {
        let d = analyze(&[(
            "crates/core/src/a.rs",
            "clonos",
            "struct S { m: Mutex<u32> }\n\
             impl S {\n\
                 fn top(&self) { let Ok(g) = self.m.try_lock() else { return }; self.spin(); }\n\
                 fn spin(&self) { std::thread::yield_now(); }\n\
             }\n",
        )]);
        let hits: Vec<_> = d.iter().filter(|d| d.rule == RULE_PARK).collect();
        assert_eq!(hits.len(), 1, "{d:#?}");
        assert!(hits[0].message.contains("yield_now"), "{}", hits[0].message);
    }

    #[test]
    fn temporary_guard_does_not_leak_past_its_statement() {
        let d = analyze(&[(
            "crates/core/src/a.rs",
            "clonos",
            "struct S { m: Mutex<Vec<u32>> }\n\
             impl S {\n\
                 fn top(&self) {\n\
                     self.m.lock().unwrap().clear();\n\
                     self.after();\n\
                 }\n\
                 fn after(&self) { std::thread::sleep(d); }\n\
             }\n",
        )]);
        assert!(d.iter().all(|d| d.rule != RULE_BLOCK), "{d:#?}");
    }

    #[test]
    fn allow_on_acquisition_suppresses_and_is_used() {
        let d = analyze(&[(
            "crates/core/src/a.rs",
            "clonos",
            "struct S { m: Mutex<u32> }\n\
             impl S {\n\
                 // clonos-lint: allow(blocking-under-lock, reason = \"audited: leaf lock\")\n\
                 fn top(&self) { let g = self.m.lock().unwrap(); self.nap(); }\n\
                 fn nap(&self) { std::thread::sleep(d); }\n\
             }\n",
        )]);
        assert!(d.iter().all(|d| d.rule != RULE_BLOCK), "{d:#?}");
        assert!(d.iter().all(|d| d.rule != "unused-allow"), "{d:#?}");
    }

    #[test]
    fn stale_allow_on_lock_hop_is_reported() {
        // The allow sits on a call edge that leads nowhere blocking.
        let d = analyze(&[(
            "crates/core/src/a.rs",
            "clonos",
            "struct S { m: Mutex<u32> }\n\
             impl S {\n\
                 fn top(&self) {\n\
                     let g = self.m.lock().unwrap();\n\
                     // clonos-lint: allow(blocking-under-lock, reason = \"stale\")\n\
                     self.harmless();\n\
                 }\n\
                 fn harmless(&self) { }\n\
             }\n",
        )]);
        assert!(rules(&d).contains(&"unused-allow"), "{d:#?}");
    }

    #[test]
    fn three_lock_cross_function_cycle() {
        let d = analyze(&[(
            "crates/core/src/a.rs",
            "clonos",
            "struct S { a: Mutex<u32>, b: Mutex<u32>, c: Mutex<u32> }\n\
             impl S {\n\
                 fn f1(&self) { let g = self.a.lock().unwrap(); self.take_b(); }\n\
                 fn take_b(&self) { let g = self.b.lock().unwrap(); }\n\
                 fn f2(&self) { let g = self.b.lock().unwrap(); self.take_c(); }\n\
                 fn take_c(&self) { let g = self.c.lock().unwrap(); }\n\
                 fn f3(&self) { let g = self.c.lock().unwrap(); self.take_a(); }\n\
                 fn take_a(&self) { let g = self.a.lock().unwrap(); }\n\
             }\n",
        )]);
        let cycles: Vec<_> = d.iter().filter(|d| d.rule == RULE_ORDER).collect();
        assert_eq!(cycles.len(), 1, "{d:#?}");
        assert!(
            cycles[0].message.contains("`S::a` → `S::b` → `S::c` → `S::a`"),
            "{}",
            cycles[0].message
        );
    }
}
