//! `clonos-lint`: workspace determinism & protocol-invariant static analysis.
//!
//! The reproduction's guarantees — exactly-once recovery, same-seed-same-run,
//! the chaos-sweep content oracle — all reduce to the codebase being
//! *deterministic by construction* and the recovery path being *non-panicking
//! by construction*. This crate enforces both statically: per-file token
//! rules, cross-file protocol invariants, and whole-workspace transitive
//! analyses (panic-reachability from the recovery entry points,
//! nondeterminism taint into the replay surface, message-protocol
//! exhaustiveness, and the concurrency-soundness pass — lock-order cycles,
//! blocking-under-lock, guard-across-park — over the sharded runtime's
//! lock-acquisition facts) over a hand-rolled item parser and call graph.
//! See `DESIGN.md` §7 ("Whole-program analyses" and "Concurrency
//! soundness") for construction, resolution limits, and the
//! `unknown-callee` reporting contract.
//!
//! Self-contained by design: a hand-rolled comment/string-aware lexer, no
//! registry dependencies (the build environment is offline), `std` only.
//! Every file is read and lexed once (`callgraph::Workspace::load`), and
//! parsed once: one walk classifies every live token into marks
//! (`parser::Mark`), and every rule reads those marks; the transitive rules
//! share one propagation engine (`propagate`).
//! Everything iterates in `BTree` order, so the full diagnostic output —
//! including every blame chain — is byte-identical across runs and
//! file-walk orders (`analyze_ordered` exists so tests can prove it).

pub mod allows;
pub mod callgraph;
pub mod causal;
pub mod config;
pub mod diagnostics;
pub mod invariants;
pub mod lexer;
pub mod lockgraph;
pub mod parser;
pub mod propagate;
pub mod reach;
pub mod rules;
pub mod taint;

pub use diagnostics::{Diagnostic, Severity};

use allows::AllowBook;
use callgraph::{CallGraph, GraphStats, Workspace};
use rules::RuleSet;
use std::io;
use std::path::{Path, PathBuf};

/// Run the full analysis over a workspace root. Returns diagnostics sorted
/// by (file, line, rule); no *errors* means the workspace is lint-clean
/// (warnings report analysis blind spots and do not gate).
pub fn analyze(root: &Path) -> io::Result<Vec<Diagnostic>> {
    analyze_full(root).map(|fa| fa.diags)
}

/// Everything one analysis run produces: diagnostics, graph stats, the
/// derived causal spec (for `--emit-spec`), and per-pass wall times for
/// the timing summary.
pub struct FullAnalysis {
    pub diags: Vec<Diagnostic>,
    pub stats: GraphStats,
    pub spec: causal::CausalSpec,
    pub lockgraph_ms: u128,
    pub causal_ms: u128,
}

/// `analyze`, plus the graph stats, the causal spec and per-pass timings.
pub fn analyze_full(root: &Path) -> io::Result<FullAnalysis> {
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        for file in rust_files_under(&root.join(top))? {
            files.push(relative(root, &file));
        }
    }
    analyze_ordered(root, &files)
}

/// The order-independent core: `files` is the workspace-relative `.rs`
/// file list in *any* order — all internal state is `BTree`-keyed, so the
/// output is identical under permutation (the determinism golden test
/// feeds a shuffled list through here).
pub fn analyze_ordered(root: &Path, files: &[String]) -> io::Result<FullAnalysis> {
    let ws = Workspace::load(root, files);

    // ---- per-file rules + allow registration ----
    // Every parsed file is a deterministic-crate source, the files these
    // rules cover.
    let mut diags = Vec::new();
    let mut book = AllowBook::default();
    for (rel, pf) in &ws.files {
        let ruleset = RuleSet {
            determinism: true,
            // The sharded actor runtime is the sanctioned home for thread
            // coordination; everywhere else in the deterministic crates
            // must stay single-thread-runnable.
            threading: !config::THREADING_EXEMPT_PREFIXES.iter().any(|p| rel.starts_with(p)),
            recovery_panic: config::RECOVERY_PATH_FILES.contains(&rel.as_str()),
        };
        book.add_file(rel, &ws.sources[rel].allows);
        let found = rules::findings(rel, &pf.marks, &ruleset).into_iter();
        diags.extend(found.filter(|d| !book.suppress(&d.file, d.line, &d.rule)));
    }
    // Every file the load could not read, once: none of its rules ran.
    diags.extend(ws.unreadable.iter().map(|(rel, e)| {
        Diagnostic::new(rel, 0, "unreadable-file", format!("cannot read source file: {e}"))
    }));

    // ---- workspace call graph + transitive analyses ----
    // Wall-clock is fine here: per-pass timings feed the lint's own speed
    // budget report and never run inside the simulation.
    let graph = CallGraph::build(&ws);
    diags.extend(reach::check(&graph, &mut book));
    diags.extend(taint::check(&graph, &mut book));
    #[allow(clippy::disallowed_methods)]
    let t0 = std::time::Instant::now();
    diags.extend(lockgraph::check(&ws, &graph, &mut book));
    let lockgraph_ms = t0.elapsed().as_millis();
    #[allow(clippy::disallowed_methods)]
    let t1 = std::time::Instant::now();
    let (causal_diags, spec) = causal::check(&ws, &graph, &mut book);
    let causal_ms = t1.elapsed().as_millis();
    diags.extend(causal_diags);
    diags.extend(graph.unknown.iter().cloned());
    let stats = graph.stats;

    // ---- the meta rules, once every pass has marked its allows ----
    diags.extend(book.finish());

    // Cross-file invariants; the counter-consumption check scans the wider
    // net (tests, examples, bench bins) the workspace already holds.
    diags.extend(invariants::check(&ws));

    diags.sort();
    diags.dedup();
    Ok(FullAnalysis { diags, stats, spec, lockgraph_ms, causal_ms })
}

/// Locate the workspace root: walk up from `start` until a `Cargo.toml`
/// containing `[workspace]` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(contents) = std::fs::read_to_string(&manifest) {
            if contents.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// All `.rs` files under `dir`, recursively, in sorted (deterministic)
/// order. A missing directory yields an empty list: config entries may
/// legitimately outlive a crate, and the invariant checks report missing
/// *files* themselves.
pub fn rust_files_under(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(&d)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
        entries.sort();
        for p in entries {
            if p.is_dir() {
                // `target/` never nests under crates/*/src, but guard anyway.
                if p.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

pub fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
