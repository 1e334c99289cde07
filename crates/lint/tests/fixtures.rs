//! Fixture-based tests: one known-bad snippet per rule (expected
//! diagnostic) and its annotated twin (suppressed).

use clonos_lint::lexer::lex;
use clonos_lint::rules::{check_file, RuleSet};
use clonos_lint::Diagnostic;

const DET: RuleSet = RuleSet { determinism: true, threading: false, recovery_panic: false };
const THR: RuleSet = RuleSet { determinism: false, threading: true, recovery_panic: false };
const REC: RuleSet = RuleSet { determinism: false, threading: false, recovery_panic: true };

fn run(src: &str, rules: RuleSet) -> Vec<Diagnostic> {
    check_file("fixture.rs", &lex(src), &rules)
}

/// The bad snippet must produce exactly one diagnostic of `rule` at `line`;
/// the same snippet with an allow annotation on the preceding line must be
/// clean.
fn assert_rule(rule: &str, bad_line: &str, rules: RuleSet) {
    let bad = format!("fn f() {{\n    {bad_line}\n}}\n");
    let diags = run(&bad, rules);
    assert_eq!(diags.len(), 1, "{rule}: expected 1 diagnostic, got {diags:?}");
    assert_eq!(diags[0].rule, rule);
    assert_eq!(diags[0].line, 2, "diagnostic must carry the violation line");
    assert_eq!(diags[0].file, "fixture.rs");

    let annotated = format!(
        "fn f() {{\n    // clonos-lint: allow({rule}, reason = \"fixture exception\")\n    {bad_line}\n}}\n"
    );
    let diags = run(&annotated, rules);
    assert!(diags.is_empty(), "{rule}: annotation failed to suppress: {diags:?}");
}

#[test]
fn hash_collections_fixtures() {
    assert_rule("hash-collections", "let m: HashMap<u32, u32> = HashMap::new();", DET);
    assert_rule("hash-collections", "use std::collections::HashSet;", DET);
    assert_rule("hash-collections", "let s = RandomState::new();", DET);
}

#[test]
fn wall_clock_fixtures() {
    assert_rule("wall-clock", "let t = std::time::Instant::now();", DET);
    assert_rule("wall-clock", "let t = SystemTime::now();", DET);
}

#[test]
fn os_entropy_fixtures() {
    assert_rule("os-entropy", "let mut rng = thread_rng();", DET);
    assert_rule("os-entropy", "let mut rng = SmallRng::from_entropy();", DET);
}

#[test]
fn float_ordering_fixtures() {
    assert_rule("float-ordering", "v.sort_by(|a, b| a.partial_cmp(b).unwrap());", DET);
}

#[test]
fn threading_fixtures() {
    assert_rule("threading", "let m = Mutex::new(state);", THR);
    assert_rule("threading", "let l: RwLock<u32> = RwLock::new(0);", THR);
    assert_rule("threading", "let c = Condvar::new();", THR);
    assert_rule("threading", "let n = AtomicUsize::new(0);", THR);
    assert_rule("threading", "std::thread::spawn(move || work());", THR);
    assert_rule("threading", "thread::sleep(Duration::from_micros(20));", THR);
}

#[test]
fn checkpoint_barrier_variant_is_not_threading() {
    assert!(run("fn f() { let b = StreamElement::Barrier(7); }\n", THR).is_empty());
}

#[test]
fn recovery_panic_fixtures() {
    assert_rule("recovery-panic", "let x = maybe.unwrap();", REC);
    assert_rule("recovery-panic", "let x = res.expect(\"fine\");", REC);
    assert_rule("recovery-panic", "panic!(\"recovery went sideways\");", REC);
    assert_rule("recovery-panic", "unreachable!();", REC);
    assert_rule("recovery-panic", "assert!(standby.is_ready());", REC);
}

#[test]
fn recovery_panic_covers_every_panicking_method() {
    // One list of panicking methods: the per-file rule flags what the
    // graph's `panic-path` does.
    for m in clonos_lint::parser::PANIC_METHODS {
        assert_rule("recovery-panic", &format!("let x = r.{m}();"), REC);
    }
}

/// Item-level tokens are classified like body tokens: a field type and a
/// fn parameter each carry exactly one finding, at their own line.
#[test]
fn item_level_types_are_flagged_once() {
    let field = run("struct S {\n    m: Mutex<u8>,\n}\n", THR);
    assert_eq!(field.len(), 1, "{field:?}");
    assert_eq!((field[0].rule.as_str(), field[0].line), ("threading", 2));
    let param = run("fn f(\n    m: HashMap<u8, u8>,\n) {}\n", DET);
    assert_eq!(param.len(), 1, "{param:?}");
    assert_eq!((param[0].rule.as_str(), param[0].line), ("hash-collections", 2));
}

#[test]
fn instant_without_now_is_fine() {
    // Storing a sim-provided Instant type name alone is not a violation;
    // only the `::now` read is.
    assert!(run("use std::time::Duration;\n", DET).is_empty());
}

#[test]
fn occurrences_in_comments_and_strings_do_not_fire() {
    let src = "fn f() {\n    // HashMap would be wrong here\n    let m = \"HashMap\";\n    /* Instant::now() */\n}\n";
    assert!(run(src, DET).is_empty());
}

#[test]
fn cfg_test_code_is_exempt_from_every_rule() {
    let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() {\n        let t = std::time::Instant::now();\n        let x = opt.unwrap();\n        let _ = (HashMap::<u8, u8>::new(), t, x);\n    }\n}\n";
    assert!(run(src, RuleSet { determinism: true, threading: true, recovery_panic: true }).is_empty());
}

#[test]
fn annotation_does_not_leak_across_rules() {
    // An allow for one rule must not suppress a different rule on the line.
    let src = "fn f() {\n    // clonos-lint: allow(wall-clock, reason = \"x\")\n    let m: HashMap<u8, u8> = HashMap::new();\n}\n";
    let diags = run(src, DET);
    // The hash-collections finding stands AND the wall-clock allow is stale.
    assert!(diags.iter().any(|d| d.rule == "hash-collections"), "{diags:?}");
    assert!(diags.iter().any(|d| d.rule == "unused-allow"), "{diags:?}");
}

#[test]
fn bad_annotation_fixtures() {
    for bad in [
        "// clonos-lint: allow(wall-clock)",                      // missing reason
        "// clonos-lint: allow(wall-clock, reason = \"\")",       // empty reason
        "// clonos-lint: allow(not-a-rule, reason = \"x\")",      // unknown rule
        "// clonos-lint: allow(determinant-codec, reason = \"x\")", // non-allowable rule
        "// clonos-lint: allowance",                              // wrong syntax
    ] {
        let diags = run(&format!("{bad}\n"), DET);
        assert_eq!(diags.len(), 1, "{bad}: {diags:?}");
        assert_eq!(diags[0].rule, "bad-annotation", "{bad}");
    }
}

#[test]
fn multi_rule_annotation_suppresses_both() {
    let src = "fn f() {\n    // clonos-lint: allow(wall-clock, hash-collections, reason = \"fixture\")\n    let m: HashMap<u8, Instant> = HashMap::new(); let t = Instant::now();\n}\n";
    assert!(run(src, DET).is_empty());
}
