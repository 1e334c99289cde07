//! The per-file rule engine: determinism rules and recovery-path panic
//! rules over a file's live token stream (`#[cfg(test)]` regions are cut
//! when the file is loaded — `test_regions` below finds them).
//! Allow-annotation resolution lives in `allows::AllowBook` (shared with
//! the transitive graph rules); `check_file` remains as the single-file
//! convenience wrapper.

use crate::allows::AllowBook;
use crate::callgraph::Source;
use crate::diagnostics::Diagnostic;
use crate::lexer::{LexedFile, Tok, Tokens};
use crate::parser::{PANIC_MACROS, PANIC_METHODS};

/// Which rule families apply to a file (derived from `config` tables).
#[derive(Clone, Copy, Debug, Default)]
pub struct RuleSet {
    /// hash-collections / wall-clock / os-entropy / float-ordering.
    pub determinism: bool,
    /// threading (deterministic crates outside the runtime module).
    pub threading: bool,
    /// recovery-panic.
    pub recovery_panic: bool,
}

impl RuleSet {
    pub fn any(&self) -> bool {
        self.determinism || self.threading || self.recovery_panic
    }
}

/// Identifiers that imply randomized iteration order or hashing state.
const HASH_IDENTS: &[&str] =
    &["HashMap", "HashSet", "RandomState", "DefaultHasher", "hash_map", "hash_set"];

/// Identifiers that read wall-clock time.
const WALL_CLOCK_IDENTS: &[&str] = &["SystemTime", "UNIX_EPOCH"];

/// Identifiers that draw OS entropy.
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// Lock/coordination types (threading rule). `Barrier` is deliberately
/// absent: `StreamElement::Barrier` is the engine's checkpoint barrier and
/// would false-positive everywhere; `std::sync::Barrier` use would still
/// trip on the `thread::`/spawn machinery needed to exercise it.
const SYNC_PRIMITIVE_IDENTS: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// Host-scheduler operations reachable as *bare* calls via `use
/// std::thread::sleep` etc. — only modelled time is legal outside the
/// runtime module (threading rule).
const THREAD_OP_IDENTS: &[&str] = &["sleep", "yield_now", "park", "park_timeout"];

/// Run all applicable per-file rules on one file, resolving suppressions
/// against a file-local `AllowBook`. The workspace driver (`lib.rs`)
/// instead calls `scan_file` and shares one book across every pass.
pub fn check_file(rel: &str, lexed: &LexedFile, rules: &RuleSet) -> Vec<Diagnostic> {
    let src = Source::new(lexed.clone());
    let mut book = AllowBook::default();
    book.add_file(rel, &src.allows);
    let mut out: Vec<Diagnostic> = scan_file(rel, &src.toks, rules)
        .into_iter()
        .filter(|d| !book.suppress(&d.file, d.line, &d.rule))
        .collect();
    out.extend(book.finish());
    out.sort();
    out.dedup();
    out
}

/// Raw per-file findings over a file's live tokens; suppression is the
/// caller's job (via `AllowBook`, so stale allows can be reported). Two
/// identical triggers on one line (e.g. `HashMap` twice) are deduplicated
/// to one finding.
pub fn scan_file(rel: &str, toks: &[Tok], rules: &RuleSet) -> Vec<Diagnostic> {
    let mut found: Vec<Diagnostic> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        let mut flag =
            |rule: &str, message: String| found.push(Diagnostic::new(rel, t.line, rule, message));
        let next_punct = |ahead: usize, c: char| toks.get(i + ahead).is_some_and(|n| n.is_punct(c));
        if rules.determinism {
            if HASH_IDENTS.contains(&name) {
                flag(
                    "hash-collections",
                    format!("`{name}` has nondeterministic iteration/hash order; use BTreeMap/BTreeSet"),
                );
            }
            if WALL_CLOCK_IDENTS.contains(&name)
                || (name == "Instant" && path_call(toks, i, "now"))
            {
                flag(
                    "wall-clock",
                    format!("`{name}` reads the host clock; route through the sim clock (VirtualTime)"),
                );
            }
            if ENTROPY_IDENTS.contains(&name) {
                flag("os-entropy", format!("`{name}` draws OS entropy; use the seeded sim RNG"));
            }
            if name == "partial_cmp" && !prev_is_fn(toks, i) {
                flag(
                    "float-ordering",
                    "`partial_cmp` is not a total order over floats; use total_cmp or integer keys"
                        .to_string(),
                );
            }
        }
        if rules.threading {
            let is_atomic = name.starts_with("Atomic") && name.len() > "Atomic".len();
            let is_thread_path = name == "thread" && next_punct(1, ':') && next_punct(2, ':');
            // A bare `sleep(..)`/`yield_now(..)`/`park(..)` call — imported
            // via `use std::thread::sleep` — sidesteps the `thread::` path
            // check above. Require a following `(` and no `.`/`::` prefix
            // so `d.sleep()` methods and the path form (already reported)
            // don't double-fire.
            let is_thread_op = THREAD_OP_IDENTS.contains(&name)
                && next_punct(1, '(')
                && !prev_is_dot(toks, i)
                && !(i > 0 && toks[i - 1].is_punct(':'))
                && !prev_is_fn(toks, i);
            if SYNC_PRIMITIVE_IDENTS.contains(&name) || is_atomic || is_thread_path || is_thread_op
            {
                flag(
                    "threading",
                    format!(
                        "`{name}` is a thread-coordination primitive; determinism-sensitive \
                         code runs single-threaded under the sim scheduler — threading \
                         belongs in crates/engine/src/runtime/"
                    ),
                );
            }
        }
        if rules.recovery_panic {
            if PANIC_METHODS.contains(&name) && next_punct(1, '(') && prev_is_dot(toks, i) {
                flag(
                    "recovery-panic",
                    format!("`.{name}()` panics on the recovery path; surface an error into the retry/escalation ladder"),
                );
            }
            if PANIC_MACROS.contains(&name) && next_punct(1, '!') {
                flag(
                    "recovery-panic",
                    format!("`{name}!` aborts on the recovery path; surface an error into the retry/escalation ladder"),
                );
            }
        }
    }

    found.sort();
    found.dedup();
    found
}

/// Line ranges covered by `#[cfg(test)]`-gated items (inclusive): an
/// attribute naming both `cfg` and `test` (`#[cfg(all(test, ..))]` too)
/// gates the item after it, which ends at its first level `;` or at the
/// close of its first level `{`.
pub fn test_regions(toks: &Tokens) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && toks.punct(i + 1, '[')) {
            i += 1;
            continue;
        }
        let attr_end = toks.close(i + 1);
        let names = |s: &str| toks[i + 1..attr_end].iter().any(|t| t.is_ident(s));
        if !(names("cfg") && names("test")) {
            i = attr_end + 1;
            continue;
        }
        let end = toks.walk(attr_end + 1, toks.len(), |k| toks.punct(k, ';') || toks.punct(k, '{'));
        let end = if toks.punct(end, '{') { toks.close(end) } else { end };
        let end_line = toks.get(end.min(toks.len() - 1)).map_or(toks[i].line, |t| t.line);
        regions.push((toks[i].line, end_line));
        i = end + 1;
    }
    regions
}

/// True if `toks[i]` is followed by `::method` (e.g. `Instant::now`).
fn path_call(toks: &[Tok], i: usize, method: &str) -> bool {
    toks.get(i + 1).map(|t| t.is_punct(':')).unwrap_or(false)
        && toks.get(i + 2).map(|t| t.is_punct(':')).unwrap_or(false)
        && toks.get(i + 3).map(|t| t.is_ident(method)).unwrap_or(false)
}

fn prev_is_fn(toks: &[Tok], i: usize) -> bool {
    i > 0 && toks[i - 1].is_ident("fn")
}

fn prev_is_dot(toks: &[Tok], i: usize) -> bool {
    i > 0 && toks[i - 1].is_punct('.')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn det(src: &str) -> Vec<Diagnostic> {
        check_file("x.rs", &lex(src), &RuleSet { determinism: true, ..RuleSet::default() })
    }

    fn rec(src: &str) -> Vec<Diagnostic> {
        check_file("x.rs", &lex(src), &RuleSet { recovery_panic: true, ..RuleSet::default() })
    }

    fn thr(src: &str) -> Vec<Diagnostic> {
        check_file("x.rs", &lex(src), &RuleSet { threading: true, ..RuleSet::default() })
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { let _: HashMap<u8, u8> = HashMap::new(); }\n}\n";
        assert!(det(src).is_empty(), "{:?}", det(src));
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let trailing = "let t = Instant::now(); // clonos-lint: allow(wall-clock, reason = \"report only\")\n";
        assert!(det(trailing).is_empty());
        let preceding = "// clonos-lint: allow(wall-clock, reason = \"report only\")\nlet t = Instant::now();\n";
        assert!(det(preceding).is_empty());
        let too_far = "// clonos-lint: allow(wall-clock, reason = \"report only\")\n\nlet t = Instant::now();\n";
        let d = det(too_far);
        // Out of range: the finding stands and the allow is stale.
        assert!(d.iter().any(|d| d.rule == "wall-clock"));
        assert!(d.iter().any(|d| d.rule == "unused-allow"));
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let d = det("// clonos-lint: allow(no-such-rule, reason = \"x\")\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "bad-annotation");
    }

    #[test]
    fn panic_methods_require_receiver() {
        // A local function *named* unwrap is not a panicking method call.
        assert!(rec("fn unwrap() {}\nlet x = unwrap();\n").is_empty());
        assert_eq!(rec("let x = opt.unwrap();\n").len(), 1);
        assert_eq!(rec("let x = res.expect(\"msg\");\n").len(), 1);
    }

    #[test]
    fn debug_assert_is_permitted_on_recovery_path() {
        assert!(rec("debug_assert!(a <= b);\ndebug_assert_eq!(a, b);\n").is_empty());
        assert_eq!(rec("assert!(a <= b);\n").len(), 1);
    }

    #[test]
    fn threading_primitives_are_flagged() {
        assert_eq!(thr("use std::sync::Mutex;\n").len(), 1);
        assert_eq!(thr("let n = AtomicU64::new(0);\n").len(), 1);
        assert_eq!(thr("std::thread::spawn(f);\n").len(), 1);
        assert_eq!(thr("thread::sleep(d);\n").len(), 1);
        // Bare imported thread ops are caught; methods/defs named alike are not.
        assert_eq!(thr("use std::thread::sleep;\nfn f() { sleep(d); }\n").len(), 2);
        assert_eq!(thr("yield_now();\n").len(), 1);
        assert!(thr("timer.sleep(d);\n").is_empty());
        assert!(thr("fn sleep(d: u64) {}\n").is_empty());
        // The engine's checkpoint barrier variant is not std::sync::Barrier.
        assert!(thr("let b = StreamElement::Barrier(3);\n").is_empty());
        // Bare `thread` (no path separator) and `Atomic` alone are not calls.
        assert!(thr("let thread = 1; let a = Atomic;\n").is_empty());
        let allowed = "let m = Mutex::new(()); // clonos-lint: allow(threading, reason = \"x\")\n";
        assert!(thr(allowed).is_empty());
    }

    #[test]
    fn fn_definition_of_partial_cmp_is_not_flagged() {
        assert!(det("fn partial_cmp(&self, o: &Self) -> Option<Ordering> { None }\n").is_empty());
        assert_eq!(det("let o = a.partial_cmp(&b);\n").len(), 1);
    }
}
