//! Workspace call-graph construction over the parsed item structure.
//!
//! Nodes are the `fn` items of the deterministic crates
//! (`config::DETERMINISTIC_CRATES` source trees); edges are resolved call
//! sites. Resolution, in decreasing precision:
//!
//! 1. **Path calls** (`a::b::f(..)`, `f(..)`, `Type::m(..)`, `Self::m(..)`)
//!    resolve through the caller's impl block, `use` imports, the caller's
//!    own module, absolute crate paths, and glob imports, in that order.
//! 2. **Method calls** (`.m(..)`) resolve *by name* to every workspace
//!    method called `m` that takes a `self` receiver — a deliberate,
//!    conservative over-approximation (class-hierarchy analysis without
//!    types): a path through *any* same-named method is considered. Trait
//!    *default* method bodies parse into nodes (`module::Trait::m`), so
//!    `dyn Trait` call sites whose only implementation is the default body
//!    (e.g. `Scheduler::schedule_in`) resolve instead of going dark.
//! 3. A ≥2-segment path that roots in the workspace (a known module or
//!    type) but matches no item is reported as an `unknown-callee`
//!    **warning** — never silently dropped. Single-segment misses and
//!    method names with no workspace definition are assumed external
//!    (std/shim) and panic-free; see DESIGN.md §7 for the full contract.
//!
//! Everything is `BTree`-ordered so the graph — and every diagnostic
//! derived from it — is byte-identical across runs and file-walk orders.

use crate::config;
use crate::diagnostics::Diagnostic;
use crate::lexer::{self, AllowAnnotation, LexedFile, Tokens};
use crate::parser::{self, CallTarget, FnItem, MarkKind, ParsedFile};
use crate::rules::test_regions;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One source file as every pass sees it: read and lexed exactly once,
/// with `#[cfg(test)]` regions already cut out — test-only code is
/// outside the production graph, the per-file rules and the allow book
/// alike.
#[derive(Debug, Default)]
pub struct Source {
    /// Live (non-test) tokens, bracket-indexed.
    pub toks: Tokens,
    /// Live `clonos-lint:` annotations.
    pub allows: Vec<AllowAnnotation>,
    /// Identifiers appearing as `.<ident>` (field access or method call)
    /// anywhere in the file, test regions *included*: a counter read by a
    /// unit test counts as consumed for `stats-surfaced`.
    pub dots: BTreeSet<String>,
}

impl Source {
    pub fn new(mut lexed: LexedFile) -> Source {
        let raw = Tokens::new(lexed.toks);
        let dots = raw
            .windows(2)
            .filter(|w| w[0].is_punct('.'))
            .filter_map(|w| w[1].ident().map(str::to_string))
            .collect();
        let skip = test_regions(&raw);
        let live = |line: u32| !skip.iter().any(|&(a, b)| (a..=b).contains(&line));
        lexed.allows.retain(|a| live(a.line));
        Source { toks: raw.retain(|t| live(t.line)), allows: lexed.allows, dots }
    }
}

/// Everything the analysis reads off disk, loaded once: the lexed view of
/// every file, and the parsed item structure of the graph-crate files.
#[derive(Debug, Default)]
pub struct Workspace {
    /// rel path -> lexed source, for every file handed to the analysis
    /// plus the files `config` names explicitly.
    pub sources: BTreeMap<String, Source>,
    /// rel path -> I/O error text, for files that could not be read.
    pub unreadable: BTreeMap<String, String>,
    /// rel path -> parsed file, for every graph-crate source file.
    pub files: BTreeMap<String, ParsedFile>,
    /// Lib names of workspace crates (`clonos`, `clonos_engine`, ...).
    pub crate_roots: BTreeSet<String>,
}

impl Workspace {
    /// Read, lex and (for `config::DETERMINISTIC_CRATES` sources) parse
    /// `files` — workspace-relative `.rs` paths in any order — together
    /// with the files the config tables single out. The only place the
    /// analysis touches the file system or calls the lexer.
    pub fn load(root: &Path, files: &[String]) -> Workspace {
        let mut ws = Workspace::default();
        let configured = config::RECOVERY_PATH_FILES
            .iter()
            .chain(config::REPLAY_SURFACE_FILES)
            .chain(config::MESSAGE_HANDLER_FILES)
            .chain(config::STATS_STRUCTS.iter().map(|(_, file)| file))
            .chain([&config::DETERMINANT_FILE, &config::RUN_REPORT_FILE]);
        let rels: BTreeSet<&str> =
            files.iter().map(String::as_str).chain(configured.copied()).collect();
        // Crate dir -> lib name (one manifest read per graph crate).
        let mut libs: BTreeMap<&str, String> = BTreeMap::new();
        for rel in rels {
            match std::fs::read_to_string(root.join(rel)) {
                Ok(src) => {
                    let lib = config::deterministic_crate_of(rel)
                        .map(|k| libs.entry(k).or_insert_with(|| lib_name(root, k)).clone());
                    ws.add(rel, lib, lexer::lex(&src));
                }
                Err(e) => {
                    ws.unreadable.insert(rel.to_string(), e.to_string());
                }
            }
        }
        ws
    }

    /// Register one lexed file; with `lib` — the lib name of the graph
    /// crate it belongs to — it is parsed into the call graph's view too.
    pub fn add(&mut self, rel: &str, lib: Option<String>, lexed: LexedFile) {
        let src = Source::new(lexed);
        if let Some(lib) = lib {
            let module = parser::module_path_of(&lib, rel);
            self.crate_roots.insert(lib);
            self.files.insert(rel.to_string(), parser::parse_file(module, &src.toks));
        }
        self.sources.insert(rel.to_string(), src);
    }
}

/// Lib name of the crate in `crates/<dir>`: the `[package]` name from its
/// `Cargo.toml` with `-` mapped to `_`, falling back to the directory name
/// (synthetic fixture workspaces carry no manifests).
pub fn lib_name(root: &Path, crate_dir: &str) -> String {
    let manifest = root.join("crates").join(crate_dir).join("Cargo.toml");
    if let Ok(text) = std::fs::read_to_string(&manifest) {
        for line in text.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    let v = v.trim().trim_matches('"');
                    return v.replace('-', "_");
                }
            }
        }
    }
    crate_dir.replace('-', "_")
}

/// One function node in the graph: the parsed item (body facts included)
/// plus where it lives.
#[derive(Clone, Debug)]
pub struct Node<'a> {
    pub file: &'a str,
    /// `a::b::c` display path.
    pub path: String,
    pub item: &'a FnItem,
}

impl Node<'_> {
    /// `path (file:line)` — one hop of a rendered blame chain.
    pub fn render(&self) -> String {
        format!("{} ({}:{})", self.path, self.file, self.item.line)
    }
}

/// Directed call edge; `line` is the call site in the caller's file and
/// `ord` its token ordinal — the same scale as `LockFact::ord`, so the
/// lockgraph pass can tell which calls happen while a guard is live.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub to: usize,
    pub line: u32,
    pub ord: u32,
    /// Resolved by method-name over-approximation rather than a path.
    pub by_name: bool,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct GraphStats {
    pub files: usize,
    pub fns: usize,
    pub edges: usize,
    pub resolved_paths: usize,
    pub by_name_edges: usize,
    pub unknown_callees: usize,
}

pub struct CallGraph<'a> {
    pub nodes: Vec<Node<'a>>,
    /// Adjacency, sorted; distinct call *sites* to the same target are kept
    /// (the lockgraph pass needs every site to test guard liveness).
    pub edges: Vec<Vec<Edge>>,
    /// `unknown-callee` warnings gathered during resolution.
    pub unknown: Vec<Diagnostic>,
    pub stats: GraphStats,
}

/// Trait methods commonly provided by `#[derive(..)]` or std blanket
/// impls: `Type::clone(..)` et al. resolve outside the workspace even when
/// `Type` is a workspace type, so they are external, not unknown.
const DERIVED_TRAIT_METHODS: &[&str] = &[
    "clone",
    "clone_from",
    "default",
    "fmt",
    "from",
    "into",
    "into_iter",
    "try_from",
    "try_into",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "to_string",
    "to_owned",
    "from_str",
    "as_ref",
    "as_mut",
    "borrow",
    "borrow_mut",
    "deref",
    "deref_mut",
    "drop",
];

impl<'a> CallGraph<'a> {
    pub fn build(ws: &'a Workspace) -> CallGraph<'a> {
        // ---- node table (BTreeMap file order, then declaration order) ----
        let mut nodes = Vec::new();
        for (rel, pf) in &ws.files {
            for item in &pf.fns {
                nodes.push(Node { file: rel, path: item.display_path(), item });
            }
        }

        // ---- resolution indexes ----
        let mut index = Index::default();
        let mut method_index: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (ix, Node { item, .. }) in nodes.iter().enumerate() {
            index.fns.entry(item.path.clone()).or_default().push(ix);
            if item.has_self {
                method_index.entry(item.name.as_str()).or_default().push(ix);
            }
        }
        let under = |base: &[String], leaf: &String| [base, std::slice::from_ref(leaf)].concat();
        for pf in ws.files.values() {
            for i in 1..=pf.module.len() {
                index.modules.insert(pf.module[..i].to_vec());
            }
            index.types.extend(pf.structs.keys().map(|s| under(&pf.module, s)));
            for (e, variants) in &pf.enums {
                let p = under(&pf.module, e);
                index.variants.extend(variants.iter().map(|(v, _)| under(&p, v)));
                index.types.insert(p);
            }
        }

        // ---- edges ----
        let mut stats = GraphStats {
            files: ws.files.len(),
            fns: nodes.len(),
            ..GraphStats::default()
        };
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        let mut unknown_keys: BTreeSet<(String, u32, String)> = BTreeSet::new();
        for (ix, Node { file: rel, item, .. }) in nodes.iter().enumerate() {
            let pf = &ws.files[*rel];
            for call in &item.marks {
                let MarkKind::Call(target) = &call.kind else { continue };
                let mut link = |targets: &[usize], by_name: bool| {
                    let edge = |&to| Edge { to, line: call.line, ord: call.ord, by_name };
                    edges[ix].extend(targets.iter().map(edge));
                };
                match target {
                    CallTarget::Path(segs) => match index.resolve(ws, pf, item, segs) {
                        Resolution::Fns(targets) => {
                            stats.resolved_paths += 1;
                            link(&targets, false);
                        }
                        Resolution::Unknown(path) => {
                            unknown_keys.insert((rel.to_string(), call.line, path.join("::")));
                        }
                        Resolution::External => {}
                    },
                    CallTarget::Method(name) => {
                        if let Some(targets) = method_index.get(name.as_str()) {
                            stats.by_name_edges += targets.len();
                            link(targets, true);
                        }
                    }
                }
            }
        }
        for adj in &mut edges {
            adj.sort();
            adj.dedup();
        }
        stats.edges = edges.iter().map(Vec::len).sum();
        stats.unknown_callees = unknown_keys.len();

        let unknown = unknown_keys
            .into_iter()
            .map(|(file, line, path)| {
                Diagnostic::warning(
                    file,
                    line,
                    "unknown-callee",
                    format!(
                        "unresolved call to `{path}`: no matching fn/variant in the workspace \
                         (trait, dyn, or generic dispatch is not resolved — the edge is absent \
                         from the call graph; see DESIGN.md §7)"
                    ),
                )
            })
            .collect();

        CallGraph { nodes, edges, unknown, stats }
    }
}

enum Resolution {
    Fns(Vec<usize>),
    External,
    Unknown(Vec<String>),
}

/// Everything a path call can resolve against.
#[derive(Default)]
struct Index {
    fns: BTreeMap<Vec<String>, Vec<usize>>,
    types: BTreeSet<Vec<String>>,
    variants: BTreeSet<Vec<String>>,
    modules: BTreeSet<Vec<String>>,
}

impl Index {
    fn resolve(
        &self,
        ws: &Workspace,
        pf: &ParsedFile,
        caller: &FnItem,
        segs: &[String],
    ) -> Resolution {
        let mut cands: Vec<Vec<String>> = Vec::new();
        let push = |cands: &mut Vec<Vec<String>>, base: Vec<String>, rest: &[String]| {
            let mut p = base;
            p.extend(rest.iter().cloned());
            if !cands.contains(&p) {
                cands.push(p);
            }
        };

        if segs[0] == "Self" {
            if let Some(ty) = &caller.impl_type {
                let mut base = caller.module.clone();
                base.push(ty.clone());
                push(&mut cands, base, &segs[1..]);
            }
        } else {
            if let Some(imported) = pf.imports.get(&segs[0]) {
                push(&mut cands, imported.clone(), &segs[1..]);
            }
            if ws.crate_roots.contains(&segs[0]) {
                push(&mut cands, Vec::new(), segs);
            }
            push(&mut cands, caller.module.clone(), segs);
            for g in &pf.globs {
                push(&mut cands, g.clone(), segs);
            }
        }

        for cand in &cands {
            if let Some(ixs) = self.fns.get(cand) {
                return Resolution::Fns(ixs.clone());
            }
        }
        for cand in &cands {
            if cand.len() >= 2 && self.variants.contains(cand) {
                return Resolution::External; // enum variant construction/pattern
            }
        }
        // No item matched: a call rooted in the workspace is an unknown callee.
        if segs.len() >= 2 {
            for cand in &cands {
                if cand.len() < 2 {
                    continue;
                }
                let parent = cand[..cand.len() - 1].to_vec();
                let leaf = cand.last().map(String::as_str).unwrap_or_default();
                if self.types.contains(&parent) {
                    if DERIVED_TRAIT_METHODS.contains(&leaf) {
                        return Resolution::External;
                    }
                    return Resolution::Unknown(cand.clone());
                }
                if self.modules.contains(&parent) {
                    return Resolution::Unknown(cand.clone());
                }
            }
        }
        Resolution::External
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Severity;
    use crate::lexer::lex;

    /// Build a two-crate workspace from (rel, lib, src) triples (leaked:
    /// the graph borrows it, and a test's workspace lives as long as the
    /// test anyway).
    fn build(files: &[(&str, &str, &str)]) -> CallGraph<'static> {
        let mut ws = Workspace::default();
        for (rel, lib, src) in files {
            ws.add(rel, Some(lib.to_string()), lex(src));
        }
        CallGraph::build(Box::leak(Box::new(ws)))
    }

    fn ix(g: &CallGraph, path: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.path == path)
            .unwrap_or_else(|| panic!("no node {path}: {:?}", g.nodes.iter().map(|n| &n.path).collect::<Vec<_>>()))
    }

    fn has_edge(g: &CallGraph, from: &str, to: &str) -> bool {
        let f = ix(g, from);
        let t = ix(g, to);
        g.edges[f].iter().any(|e| e.to == t)
    }

    #[test]
    fn cross_crate_resolution_via_use() {
        let g = build(&[
            (
                "crates/core/src/lib.rs",
                "clonos",
                "use clonos_storage::codec::decode;\npub fn run() { decode(); crate::run2(); }\npub fn run2() {}\n",
            ),
            (
                "crates/storage/src/codec.rs",
                "clonos_storage",
                "pub fn decode() {}\n",
            ),
        ]);
        assert!(has_edge(&g, "clonos::run", "clonos_storage::codec::decode"));
        assert!(has_edge(&g, "clonos::run", "clonos::run2"));
    }

    #[test]
    fn absolute_and_module_local_paths() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "clonos",
            "pub fn f() { helper(); clonos::a::helper2(); }\nfn helper() {}\nfn helper2() {}\n",
        )]);
        assert!(has_edge(&g, "clonos::a::f", "clonos::a::helper"));
        assert!(has_edge(&g, "clonos::a::f", "clonos::a::helper2"));
    }

    #[test]
    fn self_and_method_resolution() {
        let g = build(&[(
            "crates/core/src/s.rs",
            "clonos",
            "pub struct S;\nimpl S {\n    pub fn a(&self) { Self::b(); self.c(); }\n    fn b() {}\n    fn c(&self) {}\n}\n",
        )]);
        assert!(has_edge(&g, "clonos::s::S::a", "clonos::s::S::b"));
        // `.c()` resolves by name.
        assert!(has_edge(&g, "clonos::s::S::a", "clonos::s::S::c"));
        let e = g.edges[ix(&g, "clonos::s::S::a")]
            .iter()
            .find(|e| e.to == ix(&g, "clonos::s::S::c"))
            .unwrap();
        assert!(e.by_name);
    }

    #[test]
    fn method_by_name_is_conservative_across_types() {
        let g = build(&[(
            "crates/core/src/m.rs",
            "clonos",
            "struct A;\nstruct B;\nimpl A { fn go(&self) {} }\nimpl B { fn go(&self) {} }\nfn f(x: &A) { x.go(); }\n",
        )]);
        assert!(has_edge(&g, "clonos::m::f", "clonos::m::A::go"));
        assert!(has_edge(&g, "clonos::m::f", "clonos::m::B::go"));
    }

    #[test]
    fn unknown_callee_warning_for_workspace_rooted_miss() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "clonos",
            "pub fn f() { clonos::a::nope(); std::mem::drop(1); local_closure(); }\n",
        )]);
        assert_eq!(g.unknown.len(), 1, "{:?}", g.unknown);
        assert_eq!(g.unknown[0].rule, "unknown-callee");
        assert_eq!(g.unknown[0].severity, Severity::Warning);
        assert!(g.unknown[0].message.contains("clonos::a::nope"));
    }

    #[test]
    fn derived_trait_methods_are_external() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "clonos",
            "#[derive(Clone, Default)]\npub struct Cfg;\npub fn f() { let c = Cfg::default(); let d = c.clone(); }\n",
        )]);
        assert!(g.unknown.is_empty(), "{:?}", g.unknown);
    }

    #[test]
    fn enum_variant_construction_is_not_a_call() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "clonos",
            "pub enum E { V(u32) }\npub fn f() -> E { E::V(1) }\n",
        )]);
        assert!(g.unknown.is_empty(), "{:?}", g.unknown);
    }

    #[test]
    fn trait_default_method_resolves_dyn_dispatch() {
        // `dyn Scheduler`-style call sites: the only body behind
        // `.schedule_in()` is the trait default, which must be a node so
        // the by-name edge lands on it (and its own calls are analysed).
        let g = build(&[(
            "crates/core/src/t.rs",
            "clonos",
            "pub trait Sched {\n    fn schedule_at(&mut self, t: u64);\n    fn schedule_in(&mut self, d: u64) { self.schedule_at(d); }\n}\nfn f(s: &mut dyn Sched) { s.schedule_in(1); }\n",
        )]);
        assert!(has_edge(&g, "clonos::t::f", "clonos::t::Sched::schedule_in"));
        assert!(g.unknown.is_empty(), "{:?}", g.unknown);
    }

    #[test]
    fn distinct_call_sites_to_same_target_are_kept() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "clonos",
            "pub fn a() { b(); b(); }\nfn b() {}\n",
        )]);
        let f = ix(&g, "clonos::a::a");
        let t = ix(&g, "clonos::a::b");
        let sites: Vec<u32> =
            g.edges[f].iter().filter(|e| e.to == t).map(|e| e.ord).collect();
        assert_eq!(sites.len(), 2, "{:?}", g.edges[f]);
        assert!(sites[0] < sites[1]);
    }

    #[test]
    fn nodes_carry_lock_and_block_facts() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "clonos",
            "struct S { q: Mutex<u32> }\nimpl S { fn f(&self) { let g = self.q.lock().unwrap(); std::thread::sleep(d); } }\n",
        )]);
        let marks = &g.nodes[ix(&g, "clonos::a::S::f")].item.marks;
        let locks: Vec<&str> = marks
            .iter()
            .filter_map(|m| match &m.kind {
                parser::MarkKind::Lock(lock) => Some(lock.lock.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(locks, vec!["q"]);
        assert_eq!(marks.iter().filter(|m| matches!(m.kind, parser::MarkKind::Block(..))).count(), 1);
    }

    #[test]
    fn source_cuts_test_regions_but_keeps_their_dot_reads() {
        let src = Source::new(lex(
            "fn live(r: &R) -> u64 { r.shown }\n\
             // clonos-lint: allow(wall-clock, reason = \"live\")\n\
             #[cfg(test)]\nmod tests {\n\
                 // clonos-lint: allow(wall-clock, reason = \"test-only\")\n\
                 fn t(r: &R) { assert_eq!(r.hidden_counter, 0); r.go(); }\n\
             }\n",
        ));
        assert!(src.toks.iter().all(|t| t.line <= 2), "test region tokens survived");
        assert_eq!(src.allows.len(), 1);
        assert_eq!(src.allows[0].line, 2);
        let dots: Vec<&str> = src.dots.iter().map(String::as_str).collect();
        assert_eq!(dots, vec!["go", "hidden_counter", "shown"]);
    }

    #[test]
    fn load_lexes_every_file_parses_graph_sources_and_records_the_unreadable() {
        let root = std::env::temp_dir().join(format!("clonos_lint_ws_{}", std::process::id()));
        let write = |rel: &str, body: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, body).unwrap();
        };
        write("crates/core/src/recovery.rs", "pub fn recover() {}\n");
        write("crates/engine/tests/t.rs", "fn t(r: R) { r.count; }\n");
        let files = vec!["crates/engine/tests/t.rs".to_string(), "crates/core/src/recovery.rs".into()];
        let ws = Workspace::load(&root, &files);
        // Listed files are lexed; only graph-crate sources are parsed.
        assert!(ws.sources["crates/engine/tests/t.rs"].dots.contains("count"));
        assert_eq!(ws.files.keys().collect::<Vec<_>>(), vec!["crates/core/src/recovery.rs"]);
        assert!(ws.crate_roots.contains("core"));
        // Configured files that are absent are reported, not silently skipped.
        assert!(ws.unreadable.contains_key(config::DETERMINANT_FILE));
        assert!(!ws.unreadable.contains_key("crates/core/src/recovery.rs"));
        let _ = std::fs::remove_dir_all(&root);
    }
}
