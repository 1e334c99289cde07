//! The per-file rules: determinism rules and recovery-path panic rules, a
//! filter of the parser's marks (`parser::Mark`) over a file's live tokens
//! (`#[cfg(test)]` regions are cut when the file is loaded — `test_regions`
//! below finds them). Allow-annotation resolution lives in
//! `allows::AllowBook` (shared with the transitive graph rules);
//! `check_file` remains as the single-file convenience wrapper.

use crate::allows::AllowBook;
use crate::callgraph::Source;
use crate::diagnostics::Diagnostic;
use crate::lexer::{LexedFile, Tokens};
use crate::parser::{self, Mark, MarkKind};

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

/// Run all applicable per-file rules on one file, resolving suppressions
/// against a file-local `AllowBook`. The workspace driver (`lib.rs`)
/// instead calls `findings` and shares one book across every pass.
pub fn check_file(rel: &str, lexed: &LexedFile, rules: &RuleSet) -> Vec<Diagnostic> {
    let src = Source::new(lexed.clone());
    let marks = parser::parse_file(vec!["crate".into()], &src.toks).marks;
    let mut book = AllowBook::default();
    book.add_file(rel, &src.allows);
    let mut out: Vec<Diagnostic> = findings(rel, &marks, rules)
        .into_iter()
        .filter(|d| !book.suppress(&d.file, d.line, &d.rule))
        .collect();
    out.extend(book.finish());
    out.sort();
    out.dedup();
    out
}

/// Raw per-file findings: the marks `rules` cover; suppression is the
/// caller's job (via `AllowBook`, so stale allows can be reported). Two
/// identical triggers on one line (e.g. `HashMap` twice) are deduplicated
/// to one finding.
pub fn findings(rel: &str, marks: &[Mark], rules: &RuleSet) -> Vec<Diagnostic> {
    use parser::Nondet::{Clock, Entropy, HashState};
    let ladder = "surface an error into the retry/escalation ladder";
    let mut found = Vec::new();
    for m in marks {
        let (rule, message) = match &m.kind {
            MarkKind::HashCollection(name) | MarkKind::Source(HashState, name)
                if rules.determinism =>
            {
                let fix = "use BTreeMap/BTreeSet";
                ("hash-collections", format!("`{name}` has nondeterministic iteration/hash order; {fix}"))
            }
            MarkKind::Source(Clock, name) if rules.determinism => (
                "wall-clock",
                format!("`{name}` reads the host clock; route through the sim clock (VirtualTime)"),
            ),
            MarkKind::Source(Entropy, name) if rules.determinism => {
                ("os-entropy", format!("`{name}` draws OS entropy; use the seeded sim RNG"))
            }
            MarkKind::PartialCmp if rules.determinism => (
                "float-ordering",
                "`partial_cmp` is not a total order over floats; use total_cmp or integer keys".into(),
            ),
            MarkKind::Threading(name) if rules.threading => (
                "threading",
                format!(
                    "`{name}` is a thread-coordination primitive; determinism-sensitive code runs \
                     single-threaded under the sim scheduler — threading belongs in \
                     crates/engine/src/runtime/"
                ),
            ),
            MarkKind::PanicMethod(name) if rules.recovery_panic => {
                ("recovery-panic", format!("`.{name}()` panics on the recovery path; {ladder}"))
            }
            MarkKind::PanicMacro(name) if rules.recovery_panic => {
                ("recovery-panic", format!("`{name}!` aborts on the recovery path; {ladder}"))
            }
            _ => continue,
        };
        found.push(Diagnostic::new(rel, m.line, rule, message));
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
