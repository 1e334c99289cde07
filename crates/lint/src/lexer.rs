//! A minimal comment- and string-aware Rust lexer.
//!
//! The rule engine needs just enough lexical structure to avoid the classic
//! grep failure modes: `HashMap` inside a doc comment, `unwrap` inside a
//! string literal, `panic` inside a `//` comment. We therefore tokenize the
//! source into identifiers, punctuation, and opaque literals, tracking line
//! numbers throughout, and we *read* line comments instead of discarding
//! them so `// clonos-lint: allow(...)` suppression annotations can be
//! collected in the same pass.
//!
//! The lexer understands: nested block comments, line/doc comments, string
//! and byte-string literals with escapes, raw strings (`r"…"`, `r#"…"#`,
//! `br#"…"#`), char and byte-char literals vs. lifetimes, raw identifiers
//! (`r#fn`), and numeric literals including floats and exponents. It does
//! not attempt full parsing — rules operate on the token stream, and
//! `Tokens` pairs its brackets so every "where does this construct end"
//! question is one index lookup or one level walk.

/// One lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `fn`, `unwrap`, ...).
    Ident(String),
    /// Single punctuation character (`{`, `!`, `:`, ...).
    Punct(char),
    /// String/char/numeric literal — content is irrelevant to every rule.
    Lit,
}

#[derive(Clone, Debug)]
pub struct Tok {
    pub line: u32,
    pub kind: TokKind,
}

impl Tok {
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    pub fn is_ident(&self, name: &str) -> bool {
        matches!(&self.kind, TokKind::Ident(s) if s == name)
    }

    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// A token stream with its matching-bracket index, built once in O(tokens)
/// with one stack. `(`, `[` and `{` share that stack, so a close pairs with
/// the innermost open of any kind — exactly a single depth counter over all
/// three. Derefs to the tokens.
#[derive(Clone, Debug, Default)]
pub struct Tokens {
    toks: Vec<Tok>,
    /// For an open bracket, the index of its close; the stream length for
    /// an unmatched open (and for every other token).
    close: Vec<u32>,
}

impl Tokens {
    pub fn new(toks: Vec<Tok>) -> Tokens {
        let mut close = vec![toks.len() as u32; toks.len()];
        let mut opens = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            match t.kind {
                TokKind::Punct('(' | '[' | '{') => opens.push(i),
                TokKind::Punct(')' | ']' | '}') => {
                    if let Some(o) = opens.pop() {
                        close[o] = i as u32;
                    }
                }
                _ => {}
            }
        }
        Tokens { toks, close }
    }

    /// The tokens `keep` accepts, re-indexed if it dropped any.
    pub fn retain(mut self, keep: impl FnMut(&Tok) -> bool) -> Tokens {
        let len = self.toks.len();
        self.toks.retain(keep);
        if self.toks.len() == len {
            return self;
        }
        Tokens::new(self.toks)
    }

    /// Index of the close of the bracket opened at `open` (the stream
    /// length when it is unmatched).
    pub fn close(&self, open: usize) -> usize {
        self.close[open] as usize
    }

    pub fn punct(&self, at: usize, c: char) -> bool {
        self.toks.get(at).is_some_and(|t| t.is_punct(c))
    }

    /// The level walker: the first token in `from..hi` at `from`'s nesting
    /// level that satisfies `stop` — every group opened on the way is
    /// jumped whole — or else the close of the enclosing group, or `hi`,
    /// whichever comes first. An open bracket is offered to `stop` before
    /// its group is jumped.
    pub fn walk(&self, from: usize, hi: usize, stop: impl Fn(usize) -> bool) -> usize {
        let hi = hi.min(self.toks.len());
        let mut k = from;
        while k < hi {
            match self.toks[k].kind {
                TokKind::Punct(')' | ']' | '}') => return k,
                _ if stop(k) => return k,
                TokKind::Punct('(' | '[' | '{') => k = self.close(k) + 1,
                _ => k += 1,
            }
        }
        hi
    }
}

impl std::ops::Deref for Tokens {
    type Target = [Tok];

    fn deref(&self) -> &[Tok] {
        &self.toks
    }
}

/// A `// clonos-lint: allow(rule, ..., reason = "...")` annotation found in
/// a line comment. A failed parse is retained (with `parse_error` set) so
/// the rule engine can flag it instead of silently ignoring the suppression.
#[derive(Clone, Debug)]
pub struct AllowAnnotation {
    pub line: u32,
    pub rules: Vec<String>,
    pub reason: Option<String>,
    pub parse_error: Option<String>,
}

/// Lexed view of one source file.
#[derive(Clone, Debug, Default)]
pub struct LexedFile {
    pub toks: Vec<Tok>,
    pub allows: Vec<AllowAnnotation>,
}

pub const ANNOTATION_MARKER: &str = "clonos-lint:";

pub fn lex(source: &str) -> LexedFile {
    Lexer { chars: source.chars().collect(), pos: 0, line: 1, out: LexedFile::default() }.run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: LexedFile,
}

impl Lexer {
    fn run(mut self) -> LexedFile {
        while self.pos < self.chars.len() {
            let c = self.chars[self.pos];
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if c.is_whitespace() => self.pos += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(None),
                '\'' => self.char_or_lifetime(),
                _ if c.is_ascii_digit() => self.number(),
                _ if is_ident_start(c) => self.ident_or_prefixed_literal(),
                _ => {
                    self.out.toks.push(Tok { line: self.line, kind: TokKind::Punct(c) });
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consume `//...` to end of line, harvesting annotations.
    fn line_comment(&mut self) {
        let start = self.pos;
        while self.pos < self.chars.len() && self.chars[self.pos] != '\n' {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        if let Some(at) = text.find(ANNOTATION_MARKER) {
            let body = text[at + ANNOTATION_MARKER.len()..].trim();
            self.out.allows.push(parse_annotation(self.line, body));
        }
    }

    /// Consume a (nested) block comment.
    fn block_comment(&mut self) {
        let mut depth = 0usize;
        while self.pos < self.chars.len() {
            match (self.chars[self.pos], self.peek(1)) {
                ('/', Some('*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                ('*', Some('/')) => {
                    depth -= 1;
                    self.pos += 2;
                    if depth == 0 {
                        return;
                    }
                }
                ('\n', _) => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// A string literal from its opening quote: cooked (`raw` is `None`:
    /// backslash escapes, closed by `"`) or raw (closed by `"` and
    /// `raw` hashes).
    fn string_literal(&mut self, raw: Option<usize>) {
        let line = self.line;
        self.pos += 1; // opening quote
        while self.pos < self.chars.len() {
            match self.chars[self.pos] {
                '"' if raw.is_none_or(|hashes| self.closes_raw(hashes)) => {
                    self.pos += 1 + raw.unwrap_or(0);
                    break;
                }
                // The `\` of a `\`-newline continuation falls to the last arm
                // alone, so the newline arm counts the line it ends.
                '\\' if raw.is_none() && self.peek(1) != Some('\n') => self.pos += 2,
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.out.toks.push(Tok { line, kind: TokKind::Lit });
    }

    fn closes_raw(&self, hashes: usize) -> bool {
        (1..=hashes).all(|i| self.peek(i) == Some('#'))
    }

    /// `'a'` / `'\n'` are char literals; `'a` / `'static` are lifetimes.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        match self.peek(1) {
            Some('\\') => {
                // Escaped char literal: skip to the closing quote.
                self.pos += 2; // quote + backslash
                self.pos += 1; // escaped char (enough for \n, \', \\, \0; \x.. and
                               // \u{..} are closed by the quote search below)
                while self.pos < self.chars.len() && self.chars[self.pos] != '\'' {
                    self.pos += 1;
                }
                self.pos += 1;
                self.out.toks.push(Tok { line, kind: TokKind::Lit });
            }
            Some(c) if self.peek(2) == Some('\'') && c != '\'' => {
                self.pos += 3;
                self.out.toks.push(Tok { line, kind: TokKind::Lit });
            }
            _ => {
                // Lifetime: consume the quote and let the identifier lex
                // normally (rules never care about lifetime names).
                self.pos += 1;
            }
        }
    }

    fn number(&mut self) {
        let line = self.line;
        let mut prev = '\0';
        while self.pos < self.chars.len() {
            let c = self.chars[self.pos];
            let take = c.is_ascii_alphanumeric()
                || c == '_'
                || (c == '.' && self.peek(1).is_some_and(|n| n.is_ascii_digit()))
                || ((c == '+' || c == '-')
                    && (prev == 'e' || prev == 'E')
                    && self.peek(1).is_some_and(|n| n.is_ascii_digit()));
            if !take {
                break;
            }
            prev = c;
            self.pos += 1;
        }
        self.out.toks.push(Tok { line, kind: TokKind::Lit });
    }

    fn ident_or_prefixed_literal(&mut self) {
        let start = self.pos;
        while self.pos < self.chars.len() && is_ident_continue(self.chars[self.pos]) {
            self.pos += 1;
        }
        let name: String = self.chars[start..self.pos].iter().collect();
        // String-literal prefixes and raw identifiers.
        match (name.as_str(), self.peek(0)) {
            ("r" | "br", Some('"')) => return self.string_literal(Some(0)),
            ("r" | "br", Some('#')) => {
                let mut hashes = 0;
                while self.peek(hashes) == Some('#') {
                    hashes += 1;
                }
                if self.peek(hashes) == Some('"') {
                    self.pos += hashes;
                    return self.string_literal(Some(hashes));
                }
                if name == "r" && self.peek(1).is_some_and(is_ident_start) {
                    // Raw identifier `r#ident`: emit the bare identifier.
                    self.pos += 1;
                    let istart = self.pos;
                    while self.pos < self.chars.len() && is_ident_continue(self.chars[self.pos]) {
                        self.pos += 1;
                    }
                    let raw_name: String = self.chars[istart..self.pos].iter().collect();
                    self.out.toks.push(Tok { line: self.line, kind: TokKind::Ident(raw_name) });
                    return;
                }
            }
            ("b", Some('"')) => return self.string_literal(None),
            _ => {}
        }
        self.out.toks.push(Tok { line: self.line, kind: TokKind::Ident(name) });
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Parse the body after `clonos-lint:`. Grammar:
/// `allow(rule[, rule ...], reason = "non-empty text")`.
fn parse_annotation(line: u32, body: &str) -> AllowAnnotation {
    let fail = |msg: &str| AllowAnnotation {
        line,
        rules: Vec::new(),
        reason: None,
        parse_error: Some(msg.to_string()),
    };
    let Some(inner) = body.strip_prefix("allow(").and_then(|r| r.strip_suffix(')')) else {
        return fail("expected `allow(<rule>, ..., reason = \"...\")`");
    };
    let mut rules = Vec::new();
    let mut reason = None;
    for item in split_top_level(inner) {
        let item = item.trim();
        if let Some(rest) = item.strip_prefix("reason") {
            let rest = rest.trim_start();
            let Some(quoted) = rest.strip_prefix('=').map(str::trim) else {
                return fail("expected `reason = \"...\"`");
            };
            let Some(text) = quoted.strip_prefix('"').and_then(|q| q.strip_suffix('"')) else {
                return fail("reason must be a double-quoted string");
            };
            if text.trim().is_empty() {
                return fail("reason must not be empty");
            }
            reason = Some(text.to_string());
        } else if !item.is_empty()
            && item.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        {
            rules.push(item.to_string());
        } else {
            return fail("rule names are lowercase-kebab-case");
        }
    }
    if rules.is_empty() {
        return fail("at least one rule name is required");
    }
    if reason.is_none() {
        return fail("a reason = \"...\" is required (exceptions must be auditable)");
    }
    AllowAnnotation { line, rules, reason, parse_error: None }
}

/// Split on commas that are not inside a quoted string.
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut prev = '\0';
    for c in s.chars() {
        match c {
            '"' if prev != '\\' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => parts.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
        prev = c;
    }
    parts.push(cur);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = r##"
            // HashMap in a comment
            /* HashMap in /* a nested */ block */
            let x = "HashMap in a string";
            let y = r#"HashMap in a raw string"#;
            let z = 'H';
            real_ident();
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "HashMap"), "leaked from non-code: {ids:?}");
        assert!(ids.iter().any(|i| i == "real_ident"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(ids.iter().any(|i| i == "str"));
        // The 'a lifetime must not swallow `(x: ...` as a char literal.
        assert!(ids.iter().any(|i| i == "x"));
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"x\ny\";\nlet b = 1;\n";
        let lexed = lex(src);
        let b = lexed.toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn a_continued_string_counts_its_newline() {
        let src = "let a = \"x \\\n     y\";\nlet b = 1;\n";
        let lexed = lex(src);
        let b = lexed.toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn annotation_parses() {
        let src = "// clonos-lint: allow(wall-clock, reason = \"human-facing only\")\nfoo();\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        let a = &lexed.allows[0];
        assert_eq!(a.line, 1);
        assert_eq!(a.rules, vec!["wall-clock"]);
        assert_eq!(a.reason.as_deref(), Some("human-facing only"));
        assert!(a.parse_error.is_none());
    }

    #[test]
    fn annotation_without_reason_is_a_parse_error() {
        let lexed = lex("// clonos-lint: allow(wall-clock)\n");
        assert!(lexed.allows[0].parse_error.is_some());
    }

    #[test]
    fn annotation_with_comma_in_reason() {
        let lexed =
            lex("// clonos-lint: allow(a-rule, b-rule, reason = \"first, second\")\n");
        let a = &lexed.allows[0];
        assert_eq!(a.rules, vec!["a-rule", "b-rule"]);
        assert_eq!(a.reason.as_deref(), Some("first, second"));
    }

    #[test]
    fn raw_identifiers_lex_bare() {
        let ids = idents("let r#fn = 1;");
        assert!(ids.iter().any(|i| i == "fn"));
    }

    #[test]
    fn numeric_literals_do_not_eat_method_calls() {
        let ids = idents("let x = 1.max(2); let y = 1.5e-3;");
        assert!(ids.iter().any(|i| i == "max"));
    }
}
