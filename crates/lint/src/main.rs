//! CLI entry point. Exit codes: 0 = clean (warnings do not gate),
//! 1 = violations found, 2 = usage or I/O error.

use clonos_lint::{analyze_full, causal, diagnostics, find_workspace_root};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
clonos-lint — workspace determinism & protocol-invariant static analysis

USAGE:
    clonos-lint [--json] [--root <dir>] [--emit-spec <file>]

OPTIONS:
    --json                 emit machine-readable JSON instead of text
    --emit-spec <file>     write the derived causal chain spec (protocol
                           entries, sent-in-response-to edges, named chains)
                           as JSON — the runtime trace-conformance checker's
                           input (conventionally results/causal_spec.json)
    --root <dir>           workspace root (default: walk up from the current
                           directory to the nearest [workspace] Cargo.toml)
    --rules                list every rule with its summary
    -h, --help             show this help
";

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut emit_spec: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let path_arg = |args: &mut dyn Iterator<Item = String>| match args.next() {
            Some(v) => Ok(PathBuf::from(v)),
            None => {
                eprintln!("error: {arg} requires a path argument\n\n{USAGE}");
                Err(())
            }
        };
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match path_arg(&mut args) {
                Ok(p) => root = Some(p),
                Err(()) => return ExitCode::from(2),
            },
            "--emit-spec" => match path_arg(&mut args) {
                Ok(p) => emit_spec = Some(p),
                Err(()) => return ExitCode::from(2),
            },
            "--rules" => {
                for r in clonos_lint::config::RULES {
                    println!("{:<20} {}", r.id, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir().ok().and_then(|cwd| find_workspace_root(&cwd))
    }) {
        Some(r) => r,
        None => {
            eprintln!("error: no [workspace] Cargo.toml found above the current directory");
            return ExitCode::from(2);
        }
    };

    // Wall-clock is fine here: the lint binary reports its own runtime and
    // never runs inside the simulation.
    #[allow(clippy::disallowed_methods)]
    let started = std::time::Instant::now();
    let fa = match analyze_full(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed_ms = started.elapsed().as_millis();
    let (diags, stats) = (fa.diags, fa.stats);
    eprintln!(
        "clonos-lint: {} files, {} fns, {} edges ({} path-resolved, {} by-name), \
         {} unknown callees in {} ms",
        stats.files,
        stats.fns,
        stats.edges,
        stats.resolved_paths,
        stats.by_name_edges,
        stats.unknown_callees,
        elapsed_ms
    );
    // Per-pass budget line (phrased to not collide with the `in N ms`
    // total that scripts/lint.sh parses off stderr).
    eprintln!(
        "clonos-lint: lockgraph pass {} ms, causal pass {} ms ({} causal edges, \
         {} entries, {} chains)",
        fa.lockgraph_ms,
        fa.causal_ms,
        fa.spec.edges.len(),
        fa.spec.entries.len(),
        fa.spec.chains.len()
    );

    if let Some(path) = emit_spec {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&path, causal::render_spec(&fa.spec)) {
            eprintln!("error: cannot write causal spec {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "clonos-lint: wrote causal spec ({} edges) to {}",
            fa.spec.edges.len(),
            path.display()
        );
    }

    if json {
        print!("{}", diagnostics::render_json(&diags));
    } else {
        print!("{}", diagnostics::render_text(&diags));
    }
    if diags.iter().any(|d| d.is_error()) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
