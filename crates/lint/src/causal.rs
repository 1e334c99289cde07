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
//!   (`parser::SendFact`) of a protocol variant.
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
//! * An edge **makes progress** when a `config`-listed progress counter
//!   (`PROGRESS_IDENTS`) is incremented inside the arm window or in any
//!   function on the arm→send call chain.
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
use crate::callgraph::{CallGraph, Workspace};
use crate::config;
use crate::diagnostics::{json_str, Diagnostic};
use crate::parser::PROGRESS_IDENTS;
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
    /// Rendered fn hops from the arm's function to the sending function.
    pub chain: Vec<String>,
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
    // variant -> (enum, declaration line). Bare variant names are the graph
    // keys — the runtime trace records kinds unqualified.
    let mut decl: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for (enm, variants) in &msg_file.enums {
        for (v, line) in variants {
            decl.entry(v.clone()).or_insert((enm.clone(), *line));
        }
    }
    if decl.is_empty() {
        return (Vec::new(), CausalSpec::default());
    }
    let is_protocol =
        |enm: &str, v: &str| decl.get(v).is_some_and(|(e, _)| e == enm);

    // ---- per-node protocol view ----
    let n = graph.nodes.len();
    let test_node: Vec<bool> =
        graph.nodes.iter().map(|nd| config::is_test_source(nd.file)).collect();
    // Indexes into item.arms whose pattern names a protocol variant.
    let mut proto_arms: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Protocol sends outside every protocol arm of the node.
    let mut uncond: Vec<Vec<usize>> = vec![Vec::new(); n];
    for ix in (0..n).filter(|&ix| !test_node[ix]) {
        let item = graph.nodes[ix].item;
        for (ai, arm) in item.arms.iter().enumerate() {
            if arm.patterns.iter().any(|p| is_protocol(&p.enm, &p.variant)) {
                proto_arms[ix].push(ai);
            }
        }
        for (si, s) in item.sends.iter().enumerate() {
            let in_arm = proto_arms[ix].iter().any(|&ai| {
                let a = &item.arms[ai];
                (a.lo..a.hi).contains(&s.ord)
            });
            if is_protocol(&s.enm, &s.variant) && !in_arm {
                uncond[ix].push(si);
            }
        }
    }

    // ---- edge derivation ----
    // State `(arm fn, arm index, callee)`: `None` is the arm's own body
    // window, `Some(f)` is `f` entered (transitively) from a call inside it.
    type ArmState = (usize, usize, Option<usize>);
    let arm_seeds = (0..n).flat_map(|ix| proto_arms[ix].iter().map(move |&ai| (ix, ai, None)));
    let flow = bfs(arm_seeds, |&(ix, ai, callee): &ArmState| {
        let arm = &graph.nodes[ix].item.arms[ai];
        let (from, window) = match callee {
            None => (ix, arm.lo..arm.hi),
            Some(f) => (f, 0..u32::MAX),
        };
        graph.edges[from]
            .iter()
            .filter(|e| window.contains(&e.ord) && !test_node[e.to])
            .map(|e| (ix, ai, Some(e.to)))
            .collect()
    });
    let mut edges: BTreeMap<(String, String), CausalEdge> = BTreeMap::new();
    for st in flow.0.keys() {
        let &(ix, ai, callee) = st;
        let (node, arm) = (&graph.nodes[ix], &graph.nodes[ix].item.arms[ai]);
        let window = arm.lo..arm.hi;
        let sender = &graph.nodes[callee.unwrap_or(ix)];
        // Direct sends inside the arm body, or a callee's unconditional ones.
        let sends: Vec<&crate::parser::VariantSite> = match callee {
            None => {
                let in_window = sender.item.sends.iter().filter(|s| window.contains(&s.ord));
                in_window.filter(|s| is_protocol(&s.enm, &s.variant)).collect()
            }
            Some(f) => uncond[f].iter().map(|&si| &sender.item.sends[si]).collect(),
        };
        if sends.is_empty() {
            continue;
        }
        // Progress: in the arm window, or anywhere in a fn of the call chain.
        let path = flow.path_to(st);
        let progress = node.item.progress_ords.iter().any(|o| window.contains(o))
            || path[1..].iter().any(|&(.., f)| {
                f.is_some_and(|f| !graph.nodes[f].item.progress_ords.is_empty())
            });
        let chain: Vec<String> =
            path.iter().map(|&(.., f)| graph.nodes[f.unwrap_or(ix)].render()).collect();
        for s in sends {
            for from in arm.patterns.iter().filter(|p| is_protocol(&p.enm, &p.variant)) {
                let ev = CausalEdge {
                    from: from.variant.clone(),
                    to: s.variant.clone(),
                    send_file: sender.file.to_string(),
                    send_line: s.line,
                    arm_file: node.file.to_string(),
                    arm_line: arm.line,
                    chain: chain.clone(),
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
        for &si in &uncond[ix] {
            let s = &graph.nodes[ix].item.sends[si];
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
    let mut constructed: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for (node, _) in graph.nodes.iter().zip(&test_node).filter(|(_, &is_test)| !is_test) {
        for s in node.item.sends.iter().filter(|s| is_protocol(&s.enm, &s.variant)) {
            constructed.entry(s.variant.clone()).or_insert((node.file.to_string(), s.line));
        }
    }
    let entry_names: Vec<&str> = entries.keys().map(String::as_str).collect();
    let live = reach_from(&adj, &entry_names);

    let mut out = Vec::new();

    // ---- rule: orphan-event ----
    for (v, site) in &constructed {
        if live.contains(&v.as_str()) {
            continue;
        }
        let (enm, line) = &decl[v];
        let rule = "orphan-event";
        if book.covers(config::MESSAGES_FILE, *line, rule)
            || book.covers(&site.0, site.1, rule)
        {
            book.mark_used(config::MESSAGES_FILE, *line, rule);
            book.mark_used(&site.0, site.1, rule);
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
