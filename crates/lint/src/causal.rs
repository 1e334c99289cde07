//! Causal protocol extraction: the **sent-in-response-to** graph over the
//! control-plane message variants, three liveness-flavoured rules on it,
//! and the derived chain spec the runtime trace-conformance checker
//! consumes (`results/causal_spec.json`, written by `--emit-spec`).
//!
//! Construction, entirely from the workspace call graph:
//!
//! * A **handler arm** is an `Enum::Variant` match-arm region
//!   (`parser::ArmRegion`) whose pattern names a variant of the protocol
//!   file (`config::MESSAGES_FILE`), in any non-test graph file.
//! * A **send** is an `Enum::Variant` construction site
//!   (`parser::MarkKind::Send`) of a protocol variant.
//! * The causal edge `V → W` exists when handling `V` leads to sending
//!   `W`. Propagation states (`propagate::bfs`) are `(arm, callee)`: the
//!   zero-hop state is the arm's own body extent, whose sends of `W` count
//!   directly; calls inside the extent enter callee states, followed
//!   transitively, where only an *unconditional* send of `W` counts (one
//!   outside all of that function's own protocol arms; sends inside a
//!   callee's arms belong to those arms).
//! * A **protocol entry** is a spontaneous send: an unconditional send in
//!   a function that is neither reachable from any handler-arm call site
//!   nor itself a handler (e.g. the deploy-time `CheckpointTick` kick-off
//!   and the failure-detector's `FailureDetected`).
//! * An edge **makes progress** when, on some arm→send path, a progress
//!   counter (`PROGRESS_IDENTS`) is incremented inside the arm window or in
//!   a function of the call chain — any path, not just the exemplar the
//!   BFS keeps, so no file or helper name can flip it.
//! * `message-protocol` reads the same per-node view: every declared
//!   variant is constructed and handled by an arm in a
//!   `config::MESSAGE_HANDLER_FILES` file (not allowable).
//!
//! Rules (all allowable, exemplar-blamed):
//!
//! * `orphan-event` — a variant that is constructed, yet no send of it is
//!   reachable from any protocol entry: the message can never actually
//!   enter the protocol.
//! * `non-progressing-cycle` — a cycle in the variant graph none of whose
//!   internal edges advances a progress counter: the protocol can loop
//!   forever without converging. Allow on any send site of the cycle.
//! * `unstabilized-recovery` — a recovery entry variant
//!   (`config::RECOVERY_ENTRY_VARIANTS`) from which no causal path
//!   reaches a stabilizing send (`config::STABILIZE_VARIANTS`); the
//!   diagnostic names the frontier where the chain stalls.
//!
//! Everything iterates in `BTree` order; the spec and every diagnostic
//! are byte-identical across runs and file orders.

use crate::allows::AllowBook;
use crate::callgraph::{CallGraph, Node, Workspace};
use crate::config;
use crate::diagnostics::{json_str, Diagnostic};
use crate::parser::{ArmRegion, MarkKind, VariantSite, PROGRESS_IDENTS};
use crate::propagate::{bfs, Reached};
use std::collections::{BTreeMap, BTreeSet};

/// One derived causal edge `from → to`, with its exemplar evidence.
#[derive(Clone, Debug)]
pub struct CausalEdge {
    pub from: String,
    pub to: String,
    /// Exemplar send site of `to`.
    pub send_file: String,
    pub send_line: u32,
    /// The `from` handler arm the send is attributed to.
    pub arm_file: String,
    pub arm_line: u32,
    /// Some evidence path for this edge advances a progress counter.
    pub progress: bool,
}

/// A spontaneous (entry) send site.
#[derive(Clone, Debug)]
pub struct EntrySite {
    pub variant: String,
    pub file: String,
    pub line: u32,
}

/// The derived protocol spec: entries, edges, and the named chains of
/// `config::CAUSAL_CHAINS` resolved to shortest paths.
#[derive(Clone, Debug, Default)]
pub struct CausalSpec {
    pub entries: Vec<EntrySite>,
    pub edges: Vec<CausalEdge>,
    pub chains: Vec<(String, Vec<String>)>,
}

pub fn check(
    ws: &Workspace,
    graph: &CallGraph,
    book: &mut AllowBook,
) -> (Vec<Diagnostic>, CausalSpec) {
    let Some(msg_file) = ws.files.get(config::MESSAGES_FILE) else {
        return (Vec::new(), CausalSpec::default());
    };
    // Every declared variant's non-test construction sites and handling
    // patterns (in a `config::MESSAGE_HANDLER_FILES` arm), in node order.
    let mut sites: BTreeMap<(&str, &str), Sites> = BTreeMap::new();
    for (enm, variants) in &msg_file.enums {
        for (v, line) in variants {
            sites.insert((enm, v), Sites { decl_line: *line, ..Sites::default() });
        }
    }
    // variant -> (enum, declaration line). Bare variant names are the graph
    // keys — the runtime trace records kinds unqualified.
    let mut decl: BTreeMap<&str, (&str, u32)> = BTreeMap::new();
    for (&(enm, v), s) in &sites {
        decl.entry(v).or_insert((enm, s.decl_line));
    }
    if decl.is_empty() {
        return (Vec::new(), CausalSpec::default());
    }
    let is_protocol =
        |s: &VariantSite| decl.get(s.variant.as_str()).is_some_and(|(e, _)| *e == s.enm);

    // ---- per-node protocol view ----
    let n = graph.nodes.len();
    let test_node: Vec<bool> =
        graph.nodes.iter().map(|nd| config::is_test_source(nd.file)).collect();
    fn key(s: &VariantSite) -> (&str, &str) {
        (&s.enm, &s.variant)
    }
    // Arms whose pattern names a protocol variant, protocol sends, and the
    // sends outside every protocol arm of the node.
    let mut proto_arms: Vec<Vec<&ArmRegion>> = vec![Vec::new(); n];
    let mut proto_sends: Vec<Vec<&VariantSite>> = vec![Vec::new(); n];
    let mut uncond: Vec<Vec<&VariantSite>> = vec![Vec::new(); n];
    for ix in (0..n).filter(|&ix| !test_node[ix]) {
        let Node { file, item, .. } = &graph.nodes[ix];
        let handler = config::MESSAGE_HANDLER_FILES.contains(file);
        for m in &item.marks {
            match &m.kind {
                MarkKind::Arm(arm) => {
                    for p in arm.patterns.iter().filter(|_| handler) {
                        if let Some(v) = sites.get_mut(&key(p)) {
                            v.handled.push((file, p.line));
                        }
                    }
                    if arm.patterns.iter().any(is_protocol) {
                        proto_arms[ix].push(arm);
                    }
                }
                MarkKind::Send(s) => {
                    if let Some(v) = sites.get_mut(&key(s)) {
                        v.constructed.push((file, s.line));
                    }
                    if is_protocol(s) {
                        proto_sends[ix].push(s);
                    }
                }
                _ => {}
            }
        }
        let in_arm = |o: u32| proto_arms[ix].iter().any(|a| (a.lo..a.hi).contains(&o));
        uncond[ix] = proto_sends[ix].iter().copied().filter(|s| !in_arm(s.ord)).collect();
    }
    let mut out = message_protocol(&sites);

    // ---- edge derivation ----
    // State `(arm fn, arm index, callee)`: `None` is the arm's own body
    // window, `Some(f)` is `f` entered (transitively) from a call inside it.
    type ArmState = (usize, usize, Option<usize>);
    let arm_seeds = (0..n).flat_map(|ix| (0..proto_arms[ix].len()).map(move |ai| (ix, ai, None)));
    let window = |ix: usize, ai: usize| proto_arms[ix][ai].lo..proto_arms[ix][ai].hi;
    let succ = |&(ix, ai, callee): &ArmState| {
        let (from, window) = match callee {
            None => (ix, window(ix, ai)),
            Some(f) => (f, 0..u32::MAX),
        };
        graph.edges[from]
            .iter()
            .filter(|e| window.contains(&e.ord) && !test_node[e.to])
            .map(|e| (ix, ai, Some(e.to)))
            .collect()
    };
    let flow = bfs(arm_seeds, &succ);
    // Progress on some path, not just the exemplar: every state reachable
    // from one that advances a counter — an arm window that increments one,
    // or a callee that does.
    let advances = |&&(ix, ai, callee): &&ArmState| match callee {
        None => graph.nodes[ix].item.advances(window(ix, ai)),
        Some(f) => graph.nodes[f].item.advances(0..u32::MAX),
    };
    let advanced = bfs(flow.0.keys().filter(advances).copied(), &succ);
    let mut edges: BTreeMap<(String, String), CausalEdge> = BTreeMap::new();
    for st in flow.0.keys() {
        let &(ix, ai, callee) = st;
        let (node, arm) = (&graph.nodes[ix], proto_arms[ix][ai]);
        let sender = &graph.nodes[callee.unwrap_or(ix)];
        // Direct sends inside the arm body, or a callee's unconditional ones.
        let sends: Vec<&VariantSite> = match callee {
            None => {
                let in_window = proto_sends[ix].iter().filter(|s| window(ix, ai).contains(&s.ord));
                in_window.copied().collect()
            }
            Some(f) => uncond[f].clone(),
        };
        if sends.is_empty() {
            continue;
        }
        let progress = advanced.contains(st);
        for s in sends {
            for from in arm.patterns.iter().filter(|p| is_protocol(p)) {
                let ev = CausalEdge {
                    from: from.variant.clone(),
                    to: s.variant.clone(),
                    send_file: sender.file.to_string(),
                    send_line: s.line,
                    arm_file: node.file.to_string(),
                    arm_line: arm.line,
                    progress,
                };
                edges
                    .entry((ev.from.clone(), ev.to.clone()))
                    .and_modify(|e| e.progress |= progress)
                    .or_insert(ev);
            }
        }
    }

    // ---- protocol entries: spontaneous sends ----
    // A node is message-triggered if an arm call site reaches it, or if it
    // contains a handler arm itself (its straight-line sends execute on
    // message receipt, not spontaneously).
    let reached: BTreeSet<usize> = flow.0.keys().filter_map(|&(.., callee)| callee).collect();
    let mut entries: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for ix in 0..n {
        if test_node[ix] || reached.contains(&ix) || !proto_arms[ix].is_empty() {
            continue;
        }
        for s in &uncond[ix] {
            entries
                .entry(s.variant.clone())
                .or_insert((graph.nodes[ix].file.to_string(), s.line));
        }
    }

    // ---- variant-level graph ----
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from.as_str()).or_default().insert(to.as_str());
    }
    // Protocol variant -> its first construction site.
    let constructed: BTreeMap<&str, (&str, u32)> = sites
        .iter()
        .filter(|((enm, v), _)| decl[v].0 == *enm)
        .filter_map(|(&(_, v), s)| Some((v, *s.constructed.first()?)))
        .collect();
    let entry_names: Vec<&str> = entries.keys().map(String::as_str).collect();
    let live = reach_from(&adj, &entry_names);

    // ---- rule: orphan-event ----
    for (&v, site) in &constructed {
        if live.contains(&v) {
            continue;
        }
        let (enm, line) = &decl[v];
        let rule = "orphan-event";
        if book.covers(config::MESSAGES_FILE, *line, rule) || book.covers(site.0, site.1, rule) {
            book.mark_used(config::MESSAGES_FILE, *line, rule);
            book.mark_used(site.0, site.1, rule);
            continue;
        }
        out.push(
            Diagnostic::new(
                config::MESSAGES_FILE,
                *line,
                rule,
                format!(
                    "variant `{enm}::{v}` is constructed, but no send of it is reachable \
                     from any protocol entry ({}); the message can never enter the \
                     protocol — wire it into a handler chain or remove it",
                    if entry_names.is_empty() {
                        "no spontaneous sends found".to_string()
                    } else {
                        entry_names.join(", ")
                    }
                ),
            )
            .with_chain(vec![format!("constructed at {}:{}", site.0, site.1)]),
        );
    }

    // ---- rule: non-progressing-cycle ----
    // Tiny variant set: O(V²) pairwise reachability is plenty. A vertex's
    // representative is the BTree-min vertex mutually reachable with it.
    let verts: Vec<&str> = adj.keys().copied().collect();
    let reach: BTreeMap<&str, Reached<&str>> =
        verts.iter().map(|&v| (v, reach_from(&adj, &[v]))).collect();
    let mut sccs: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for &v in &verts {
        let mutual = |u: &&str| reach[u].contains(&v) && reach[v].contains(u);
        sccs.entry(verts.iter().copied().find(mutual).unwrap_or(v)).or_default().push(v);
    }
    for (rep, members) in &sccs {
        let set: BTreeSet<&str> = members.iter().copied().collect();
        let internal: Vec<&CausalEdge> = edges
            .values()
            .filter(|e| set.contains(e.from.as_str()) && set.contains(e.to.as_str()))
            .collect();
        let cyclic = members.len() > 1 || internal.iter().any(|e| e.from == e.to);
        if !cyclic || internal.iter().any(|e| e.progress) {
            continue;
        }
        let rule = "non-progressing-cycle";
        let decl_line = decl[*rep].1;
        let allowed = book.covers(config::MESSAGES_FILE, decl_line, rule)
            || internal.iter().any(|e| book.covers(&e.send_file, e.send_line, rule));
        if allowed {
            book.mark_used(config::MESSAGES_FILE, decl_line, rule);
            for e in &internal {
                book.mark_used(&e.send_file, e.send_line, rule);
            }
            continue;
        }
        let cycle = if members.len() == 1 {
            format!("`{rep} → {rep}`")
        } else {
            format!("`{} → {}`", members.join(" → "), rep)
        };
        let chain = internal
            .iter()
            .map(|e| {
                format!(
                    "`{}` handled at {}:{} sends `{}` at {}:{}",
                    e.from, e.arm_file, e.arm_line, e.to, e.send_file, e.send_line
                )
            })
            .collect();
        out.push(
            Diagnostic::new(
                config::MESSAGES_FILE,
                decl_line,
                rule,
                format!(
                    "causal cycle {cycle} has no hop that advances a progress counter \
                     ({}); the protocol can loop without converging — advance one on \
                     some hop or add an audited allow on a send site of the cycle",
                    PROGRESS_IDENTS.join("/")
                ),
            )
            .with_chain(chain),
        );
    }

    // ---- rule: unstabilized-recovery ----
    for &entry in config::RECOVERY_ENTRY_VARIANTS {
        if !decl.contains_key(entry) || !constructed.contains_key(entry) {
            continue; // absent or already flagged by message-protocol
        }
        let rv = reach_from(&adj, &[entry]);
        if config::STABILIZE_VARIANTS.iter().any(|s| rv.contains(s)) {
            continue;
        }
        let rule = "unstabilized-recovery";
        let decl_line = decl[entry].1;
        if book.covers(config::MESSAGES_FILE, decl_line, rule) {
            book.mark_used(config::MESSAGES_FILE, decl_line, rule);
            continue;
        }
        // The frontier: reached variants with no outgoing edges — where
        // the chain stalls.
        let frontier: Vec<&str> = rv
            .0
            .keys()
            .copied()
            .filter(|v| adj.get(*v).is_none_or(|next| next.is_empty()))
            .collect();
        let chain = rv
            .0
            .keys()
            .filter(|v| **v != entry)
            .map(|v| {
                let e = edges
                    .iter()
                    .find(|((_, to), _)| to == v)
                    .map(|(_, e)| format!(" (sent at {}:{})", e.send_file, e.send_line))
                    .unwrap_or_default();
                format!("reaches `{v}`{e}")
            })
            .collect();
        out.push(
            Diagnostic::new(
                config::MESSAGES_FILE,
                decl_line,
                rule,
                format!(
                    "recovery entry `{}::{entry}` reaches no stabilizing send ({}); \
                     recovery that starts here can never complete — the chain stalls at {}",
                    decl[entry].0,
                    config::STABILIZE_VARIANTS.join(", "),
                    if frontier.is_empty() {
                        "the entry itself (no outgoing causal edge)".to_string()
                    } else {
                        frontier
                            .iter()
                            .map(|v| format!("`{v}`"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    }
                ),
            )
            .with_chain(chain),
        );
    }

    // ---- spec: named chains as shortest paths ----
    let mut chains = Vec::new();
    for &(name, from, to) in config::CAUSAL_CHAINS {
        if !decl.contains_key(from) || !decl.contains_key(to) {
            continue;
        }
        let rv = reach_from(&adj, &[from]);
        if rv.contains(&to) {
            let hops = rv.path_to(&to).into_iter().map(str::to_string).collect();
            chains.push((name.to_string(), hops));
        }
    }

    let spec = CausalSpec {
        entries: entries
            .into_iter()
            .map(|(variant, (file, line))| EntrySite { variant, file, line })
            .collect(),
        edges: edges.into_values().collect(),
        chains,
    };
    (out, spec)
}

/// Where one declared variant is constructed and handled: `(file, line)`s.
#[derive(Debug, Default)]
struct Sites<'a> {
    decl_line: u32,
    constructed: Vec<(&'a str, u32)>,
    handled: Vec<(&'a str, u32)>,
}

/// `message-protocol`: every declared variant is both constructed and
/// handled. Constructed without a handler, handled without a constructor,
/// or fully dead each raise an error anchored at the variant declaration,
/// with the evidence sites (or their absence) in the chain.
fn message_protocol(sites: &BTreeMap<(&str, &str), Sites>) -> Vec<Diagnostic> {
    let chain = |label: &str, ev: &[(&str, u32)]| -> Vec<String> {
        ev.iter().take(3).map(|(f, l)| format!("{label} {f}:{l}")).collect()
    };
    let mut out = Vec::new();
    for ((enm, variant), ev) in sites {
        let qualified = format!("{enm}::{variant}");
        let (message, chain) = match (ev.constructed.is_empty(), ev.handled.is_empty()) {
            (false, false) => continue, // constructed and handled: healthy
            (false, true) => (
                format!(
                    "variant `{qualified}` is constructed but has no handling match arm in {}",
                    config::MESSAGE_HANDLER_FILES.join(" / ")
                ),
                chain("constructed at", &ev.constructed),
            ),
            (true, false) => (
                format!(
                    "variant `{qualified}` has a handling match arm but is never constructed \
                     (dead control-plane message)"
                ),
                chain("handled at", &ev.handled),
            ),
            (true, true) => (
                format!(
                    "variant `{qualified}` is never constructed and never handled (dead \
                     control-plane message); remove it"
                ),
                Vec::new(),
            ),
        };
        let diag = Diagnostic::new(config::MESSAGES_FILE, ev.decl_line, "message-protocol", message);
        out.push(diag.with_chain(chain));
    }
    out
}

/// Variants reachable from `starts` over the variant graph, with
/// shortest-path provenance.
fn reach_from<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    starts: &[&'a str],
) -> Reached<&'a str> {
    bfs(starts.iter().copied(), |v| adj.get(v).into_iter().flatten().copied().collect())
}

/// Render the spec as JSON (hand-rolled; the workspace has no serde). One
/// object per line so line-oriented consumers stay trivial.
pub fn render_spec(spec: &CausalSpec) -> String {
    let mut out = String::from("{\n\"entries\": [\n");
    for (i, e) in spec.entries.iter().enumerate() {
        out.push_str(&format!(
            "{}{{\"variant\":{},\"site\":{}}}",
            if i > 0 { ",\n" } else { "" },
            json_str(&e.variant),
            json_str(&format!("{}:{}", e.file, e.line))
        ));
    }
    out.push_str("\n],\n\"edges\": [\n");
    for (i, e) in spec.edges.iter().enumerate() {
        out.push_str(&format!(
            "{}{{\"from\":{},\"to\":{},\"site\":{},\"arm\":{},\"progress\":{}}}",
            if i > 0 { ",\n" } else { "" },
            json_str(&e.from),
            json_str(&e.to),
            json_str(&format!("{}:{}", e.send_file, e.send_line)),
            json_str(&format!("{}:{}", e.arm_file, e.arm_line)),
            e.progress
        ));
    }
    out.push_str("\n],\n\"chains\": [\n");
    for (i, (name, hops)) in spec.chains.iter().enumerate() {
        let hops_json =
            hops.iter().map(|h| json_str(h)).collect::<Vec<_>>().join(",");
        out.push_str(&format!(
            "{}{{\"name\":{},\"hops\":[{hops_json}]}}",
            if i > 0 { ",\n" } else { "" },
            json_str(name)
        ));
    }
    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// The `message-protocol` findings of the causal pass over `ws`.
    fn check(ws: &Workspace) -> Vec<Diagnostic> {
        let (diags, _) = super::check(ws, &CallGraph::build(ws), &mut AllowBook::default());
        diags.into_iter().filter(|d| d.rule == "message-protocol").collect()
    }

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
                "crates/engine/src/coordinator.rs",
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
