//! Centralized `// clonos-lint: allow(...)` bookkeeping.
//!
//! Both the per-file rules and the transitive graph analyses consume allow
//! annotations, so "this allow suppressed nothing" can only be decided once
//! every pass has run. The book records each live annotation with a used
//! flag; `finish()` turns malformed annotations and stale allows into
//! meta-diagnostics.
//!
//! Coverage semantics are uniform across all rules: an annotation on line
//! `a` covers findings on line `a` (trailing comment) and line `a + 1`
//! (preceding comment). For the path rules (`panic-path`, `replay-taint`)
//! a covered *call site* removes that edge from the graph — suppressing
//! every blame path through it — and a covered *sink* removes the fact.

use crate::config;
use crate::diagnostics::Diagnostic;
use crate::lexer::AllowAnnotation;
use std::collections::BTreeMap;

#[derive(Debug)]
struct Entry {
    ann: AllowAnnotation,
    used: bool,
}

/// All live allow annotations of the workspace, keyed by file.
#[derive(Debug, Default)]
pub struct AllowBook {
    files: BTreeMap<String, Vec<Entry>>,
}

impl AllowBook {
    /// Register a file's live annotations (`callgraph::Source::allows` —
    /// ones inside `#[cfg(test)]` regions are invisible, like the code they
    /// cover).
    pub fn add_file(&mut self, rel: &str, allows: &[AllowAnnotation]) {
        let entries = allows.iter().map(|a| Entry { ann: a.clone(), used: false }).collect();
        self.files.insert(rel.to_string(), entries);
    }

    fn well_formed(ann: &AllowAnnotation) -> bool {
        ann.parse_error.is_none()
            && ann.rules.iter().all(|r| config::rule_exists(r) && config::rule_allowable(r))
    }

    fn matches(ann: &AllowAnnotation, line: u32, rule: &str) -> bool {
        Self::well_formed(ann)
            && (ann.line == line || ann.line + 1 == line)
            && ann.rules.iter().any(|r| r == rule)
    }

    /// Suppress a finding at `(file, line)` if covered; marks the
    /// annotation used.
    pub fn suppress(&mut self, file: &str, line: u32, rule: &str) -> bool {
        let Some(entries) = self.files.get_mut(file) else { return false };
        for e in entries {
            if Self::matches(&e.ann, line, rule) {
                e.used = true;
                return true;
            }
        }
        false
    }

    /// Non-marking query, used while filtering graph edges: whether a call
    /// site or fact at `(file, line)` is covered for `rule`.
    pub fn covers(&self, file: &str, line: u32, rule: &str) -> bool {
        self.files
            .get(file)
            .is_some_and(|es| es.iter().any(|e| Self::matches(&e.ann, line, rule)))
    }

    /// Mark every annotation covering `(file, line, rule)` as used. The
    /// path rules call this once they know the covered site lies on a
    /// would-be blame path (so an allow deep in never-reached code still
    /// reports as stale).
    pub fn mark_used(&mut self, file: &str, line: u32, rule: &str) {
        let Some(entries) = self.files.get_mut(file) else { return };
        for e in entries {
            if Self::matches(&e.ann, line, rule) {
                e.used = true;
            }
        }
    }

    /// Emit the meta-diagnostics: malformed annotations and stale allows.
    pub fn finish(self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (rel, entries) in &self.files {
            for e in entries {
                let a = &e.ann;
                if let Some(err) = &a.parse_error {
                    out.push(Diagnostic::new(rel, a.line, "bad-annotation", err.clone()));
                    continue;
                }
                if let Some(unknown) = a.rules.iter().find(|r| !config::rule_exists(r)) {
                    out.push(Diagnostic::new(
                        rel,
                        a.line,
                        "bad-annotation",
                        format!("unknown rule `{unknown}`"),
                    ));
                    continue;
                }
                if let Some(fixed) = a.rules.iter().find(|r| !config::rule_allowable(r)) {
                    out.push(Diagnostic::new(
                        rel,
                        a.line,
                        "bad-annotation",
                        format!("rule `{fixed}` cannot be suppressed with an allow annotation"),
                    ));
                    continue;
                }
                if !e.used {
                    out.push(Diagnostic::new(
                        rel,
                        a.line,
                        "unused-allow",
                        format!(
                            "allow({}) suppresses nothing; remove the stale exception",
                            a.rules.join(", ")
                        ),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn book_for(src: &str) -> AllowBook {
        let mut book = AllowBook::default();
        book.add_file("x.rs", &lex(src).allows);
        book
    }

    #[test]
    fn covers_same_and_next_line_only() {
        let book =
            book_for("// clonos-lint: allow(panic-path, reason = \"audited\")\nlet x = 1;\n");
        assert!(book.covers("x.rs", 1, "panic-path"));
        assert!(book.covers("x.rs", 2, "panic-path"));
        assert!(!book.covers("x.rs", 3, "panic-path"));
        assert!(!book.covers("x.rs", 2, "replay-taint"));
        assert!(!book.covers("y.rs", 2, "panic-path"));
    }

    #[test]
    fn suppress_marks_used_and_finish_flags_stale() {
        let mut book = book_for(
            "// clonos-lint: allow(wall-clock, reason = \"a\")\n\
             // clonos-lint: allow(os-entropy, reason = \"b\")\n",
        );
        assert!(book.suppress("x.rs", 1, "wall-clock"));
        let metas = book.finish();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].rule, "unused-allow");
        assert!(metas[0].message.contains("os-entropy"));
    }

    #[test]
    fn non_allowable_rule_is_rejected_and_never_covers() {
        let book = book_for("// clonos-lint: allow(message-protocol, reason = \"no\")\nx\n");
        assert!(!book.covers("x.rs", 2, "message-protocol"));
        let metas = book.finish();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].rule, "bad-annotation");
    }

    #[test]
    fn mark_used_without_suppression() {
        let mut book =
            book_for("// clonos-lint: allow(replay-taint, reason = \"audited hop\")\nf();\n");
        book.mark_used("x.rs", 2, "replay-taint");
        assert!(book.finish().is_empty());
    }
}
