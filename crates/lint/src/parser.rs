//! Item/signature parser on top of the lexer: just enough structural
//! understanding of a Rust source file to build a workspace call graph.
//!
//! Per file it extracts: the module path (derived from the file's location
//! in its crate), `use` imports (aliases resolved to workspace-absolute
//! paths), `fn` items with their enclosing inline-`mod`/`impl` context, and
//! per-function *body facts* — call sites (path calls and `.method()`
//! calls), direct panic sites, direct nondeterminism sources, and the
//! concurrency facts the `lockgraph` pass consumes: lock acquisitions
//! (`.lock()` / `.try_lock()` / `Condvar` waits, with a conservative
//! guard-liveness range) and blocking/park points (`std::thread::sleep`,
//! `yield_now`, `park`, blocking channel receives). Call sites and
//! concurrency facts share one token-ordinal scale (`ord`), so a later pass
//! can tell which calls happen while a guard is live.
//!
//! The token stream handed in is the file's *live* one: `#[cfg(test)]`
//! regions were cut when the file was loaded (`callgraph::Source`), so
//! test-only items never become nodes or facts. Known limits — documented
//! in DESIGN.md §7 and deliberately accepted for a dependency-free parser:
//!
//! - trait *default method bodies* are parsed as nodes (path
//!   `module::Trait::method`), so `dyn Trait` calls resolve through the
//!   by-name index; bodyless required methods contribute nothing;
//! - local `fn` items inside a body attribute their facts to the enclosing
//!   function (a conservative over-approximation);
//! - imports are tracked per file, not per inline module;
//! - qualified-path calls (`<T as Trait>::f(..)`) and function *values*
//!   (`let f = foo;`) are not call edges;
//! - guard liveness over-approximates: a `let`/`match`-bound guard is live
//!   to the end of its enclosing block, a temporary to the end of its
//!   statement (drops are never assumed early);
//! - `Mutex::get_mut` / `into_inner` are not acquisitions (they need
//!   exclusive access and cannot contend), and `.join(..)` is not a
//!   blocking fact (`str`/slice `join` would false-positive everywhere —
//!   a thread join under a lock still surfaces via the lock facts of
//!   whatever the joined thread runs).

use crate::lexer::{Tok, TokKind, Tokens};
use std::collections::BTreeMap;
use std::ops::Range;

/// Methods that panic on None/Err.
pub const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros that abort the process. `debug_assert*` is deliberately absent
/// (compiles out in release; serves as executable documentation).
pub const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// Identifiers that are nondeterminism sources when they appear in a body.
pub const TAINT_IDENTS: &[&str] = &[
    "SystemTime",
    "UNIX_EPOCH",
    "thread_rng",
    "from_entropy",
    "OsRng",
    "getrandom",
    "RandomState",
    "DefaultHasher",
];

/// Method names that acquire a lock. `read`/`write` are deliberately absent
/// (`io::Read::read` would false-positive everywhere; `RwLock` is banned
/// outside the runtime and the runtime uses none).
pub const LOCK_METHODS: &[(&str, LockOp)] = &[
    ("lock", LockOp::Lock),
    ("try_lock", LockOp::TryLock),
    ("wait", LockOp::Wait),
    ("wait_timeout", LockOp::Wait),
    ("wait_while", LockOp::Wait),
];

/// Method names that block on another thread without acquiring a guard.
pub const BLOCKING_METHODS: &[&str] = &["recv", "recv_timeout"];

/// Identifiers whose increment (`x += 1`, `x + 1`) marks a function as
/// *advancing* epoch/incarnation/attempt state — the progress criterion of
/// the `non-progressing-cycle` rule: a causal cycle is benign only when at
/// least one hop moves such a counter forward.
pub const PROGRESS_IDENTS: &[&str] =
    &["next_cp", "attempt", "gen", "epoch", "emit_seq", "offset", "step", "seq", "gather_seq"];

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    pub line: u32,
    /// Token ordinal within the file — shared scale with `LockFact::ord`,
    /// so a pass can tell whether the call happens under a live guard.
    pub ord: u32,
    pub target: CallTarget,
}

#[derive(Clone, Debug)]
pub enum CallTarget {
    /// `a::b::c(...)` or `c(...)` — path segments as written (head already
    /// normalized for `crate`/`self`/`super`).
    Path(Vec<String>),
    /// `.m(...)` — receiver type unknown.
    Method(String),
}

/// A direct abort site inside a function body.
#[derive(Clone, Debug)]
pub struct PanicFact {
    pub line: u32,
    /// Human description: "`.unwrap()`", "`panic!`", "slice indexing `[..]`".
    pub what: String,
}

/// A direct nondeterminism source inside a function body.
#[derive(Clone, Debug)]
pub struct TaintFact {
    pub line: u32,
    /// Which source: "Instant::now", "SystemTime", ...
    pub what: String,
}

/// How a lock acquisition behaves when the lock is contended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockOp {
    /// `.lock()` — blocks until the holder releases.
    Lock,
    /// `.try_lock()` — fails fast; the sanctioned escape hatch of the
    /// runtime's bounded-depth help protocol (cannot deadlock).
    TryLock,
    /// `Condvar::wait`/`wait_timeout`/`wait_while` — blocks *and* holds the
    /// re-acquired guard afterwards.
    Wait,
}

/// One lock-acquisition site inside a function body.
#[derive(Clone, Debug)]
pub struct LockFact {
    pub line: u32,
    /// Token ordinal of the acquisition (same scale as `CallSite::ord`).
    pub ord: u32,
    /// Receiver leaf ident — the lock field (`queue` in
    /// `self.queue.lock()`) or local binding name.
    pub lock: String,
    pub op: LockOp,
    /// Guard bound by `let` / `if let` / `while let` / `match` — live past
    /// its own statement.
    pub binds_guard: bool,
    /// Last token ordinal at which the guard may still be live: end of the
    /// enclosing block for bound guards, end of statement for temporaries.
    /// Conservative over-approximation (drops are never assumed early).
    pub scope_end: u32,
}

/// Whether a non-acquisition fact blocks on another thread or merely gives
/// up the CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockKind {
    /// Blocks until another thread acts (deadlock-capable under a lock).
    Blocking,
    /// Parks/yields the CPU — a latency hazard while a guard is live, not a
    /// deadlock.
    Park,
}

/// A direct blocking or park-point fact that is not a lock acquisition:
/// `std::thread::sleep` / `yield_now` / `park`, blocking channel receives.
#[derive(Clone, Debug)]
pub struct BlockFact {
    pub line: u32,
    /// Token ordinal (same scale as `CallSite::ord` / `LockFact::ord`).
    pub ord: u32,
    /// Rendered description, e.g. "`std::thread::sleep`".
    pub what: String,
    pub kind: BlockKind,
}

/// One `Enum::Variant` occurrence inside a function body. Which list of
/// its `FnItem` it lands in says what it is: a construction (`sends`), a
/// match-arm pattern (`ArmRegion::patterns`) or a refutable test
/// (`tests`). Recorded for every capitalised two-segment path tail; the
/// passes filter to the enums they care about (associated consts and
/// foreign enums ride along unused).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VariantSite {
    pub line: u32,
    /// Token ordinal (same scale as `CallSite::ord` / `ArmRegion` extents).
    pub ord: u32,
    /// Second-to-last path segment (`Msg` in `Msg::Data`).
    pub enm: String,
    /// Last path segment.
    pub variant: String,
}

/// One `Enum::Variant` match arm inside a function body: which variants the
/// arm matches (an or-pattern contributes several) and the token-ordinal
/// extent of its body. Sends and calls whose `ord` falls inside `[lo, hi)`
/// execute *in response to* the matched variant.
#[derive(Clone, Debug)]
pub struct ArmRegion {
    /// Line of the arm's first pattern.
    pub line: u32,
    pub patterns: Vec<VariantSite>,
    /// Arm-body start ordinal (just past `=>`).
    pub lo: u32,
    /// Arm-body end ordinal (exclusive).
    pub hi: u32,
}

/// One `fn` item.
#[derive(Clone, Debug, Default)]
pub struct FnItem {
    /// Leaf name.
    pub name: String,
    /// Canonical path: module segments (+ impl type if a method) + name.
    pub path: Vec<String>,
    /// Enclosing module (no impl type, no name).
    pub module: Vec<String>,
    /// Leaf name of the `impl` self type, for methods.
    pub impl_type: Option<String>,
    pub line: u32,
    pub is_pub: bool,
    /// Takes a `self` receiver (candidate for `.method()` resolution).
    pub has_self: bool,
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicFact>,
    pub taints: Vec<TaintFact>,
    /// Lock acquisitions (lockgraph pass input).
    pub locks: Vec<LockFact>,
    /// Blocking/park points that are not acquisitions (lockgraph input).
    pub blocks: Vec<BlockFact>,
    /// Body mentions the `Determinant` type (replay-surface marker).
    pub mentions_determinant: bool,
    /// `Enum::Variant` construction sites.
    pub sends: Vec<VariantSite>,
    /// `Enum::Variant` match-arm regions.
    pub arms: Vec<ArmRegion>,
    /// `Enum::Variant` patterns that only *test* a value — `if let` /
    /// `while let` / `let .. else` / `matches!`. Neither a construction
    /// nor a handling arm.
    pub tests: Vec<VariantSite>,
    /// Token ordinals where the body increments a progress counter (see
    /// `PROGRESS_IDENTS`) — per-site so the causal pass can tell whether a
    /// specific match arm (not merely the enclosing fn) advances state.
    pub progress_ords: Vec<u32>,
}

impl FnItem {
    /// `a::b::c` display form.
    pub fn display_path(&self) -> String {
        self.path.join("::")
    }

    /// Every `Enum::Variant` the body names, whatever its role.
    pub fn variant_sites(&self) -> impl Iterator<Item = &VariantSite> {
        let arms = self.arms.iter().flat_map(|a| &a.patterns);
        self.sends.iter().chain(arms).chain(&self.tests)
    }
}

/// One named field of a braced struct.
#[derive(Clone, Debug)]
pub struct FieldFact {
    pub name: String,
    pub line: u32,
    /// Declared with a bare `pub`.
    pub is_pub: bool,
    /// Identifiers of the field's type, in source order up to its first
    /// generic-argument comma (`Mutex`, `VecDeque`, `Msg` for
    /// `Mutex<VecDeque<Msg>>`; `Map`, `K` for `Map<K, V>`).
    pub ty: Vec<String>,
}

/// Parsed view of one source file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Module path of the file root (crate lib name + file-derived mods).
    pub module: Vec<String>,
    pub fns: Vec<FnItem>,
    /// Import alias -> workspace-absolute path segments.
    pub imports: BTreeMap<String, Vec<String>>,
    /// `use path::*` glob bases.
    pub globs: Vec<Vec<String>>,
    /// Enum name -> variants (name, line). Module-level enums only.
    pub enums: BTreeMap<String, Vec<(String, u32)>>,
    /// Module-level struct name -> named fields (empty for tuple/unit
    /// structs).
    pub structs: BTreeMap<String, Vec<FieldFact>>,
}

/// Derive the module path for `rel` (workspace-relative, `/`-separated)
/// given the crate's lib name. `crates/x/src/lib.rs` -> `[lib]`,
/// `crates/x/src/a/b.rs` -> `[lib, a, b]`, `a/mod.rs` -> `[lib, a]`.
pub fn module_path_of(lib_name: &str, rel: &str) -> Vec<String> {
    let mut out = vec![lib_name.to_string()];
    let Some(idx) = rel.find("/src/") else {
        return out;
    };
    let tail = &rel[idx + 5..];
    let tail = tail.strip_suffix(".rs").unwrap_or(tail);
    for seg in tail.split('/') {
        if seg == "lib" || seg == "main" || seg == "mod" || seg.is_empty() {
            continue;
        }
        out.push(seg.to_string());
    }
    out
}

/// Parse one file's live token stream into its item/call-site structure.
pub fn parse_file(module: Vec<String>, toks: &Tokens) -> ParsedFile {
    let mut p = Parser {
        t: toks,
        i: 0,
        out: ParsedFile { module: module.clone(), ..ParsedFile::default() },
        module,
        mods: Vec::new(),
        impls: Vec::new(),
    };
    p.run();
    p.out
}

struct Parser<'a> {
    t: &'a Tokens,
    i: usize,
    out: ParsedFile,
    /// File-root module path.
    module: Vec<String>,
    /// Inline `mod x {` stack: (name, index of the body's `}`).
    mods: Vec<(String, usize)>,
    /// `impl Ty {` stack: (type leaf name, index of the body's `}`).
    impls: Vec<(String, usize)>,
}

impl<'a> Parser<'a> {
    fn run(&mut self) {
        // A `pub` seen since the last item boundary: survives attributes
        // and qualifiers (`pub const unsafe fn`), cleared by anything else.
        let mut pending_pub = false;
        while self.i < self.t.len() {
            let was_pub = std::mem::take(&mut pending_pub);
            let tok = &self.t[self.i];
            match &tok.kind {
                TokKind::Punct('#') if self.t.punct(self.i + 1, '[') => {
                    pending_pub = was_pub;
                    self.i = self.t.close(self.i + 1) + 1;
                }
                TokKind::Punct('{') => {
                    // A brace not claimed by mod/impl/fn below: skip the
                    // whole block (const/static initializers, etc.).
                    self.i = self.t.close(self.i) + 1;
                }
                TokKind::Punct('}') => {
                    if self.mods.last().is_some_and(|&(_, c)| c == self.i) {
                        self.mods.pop();
                    }
                    if self.impls.last().is_some_and(|&(_, c)| c == self.i) {
                        self.impls.pop();
                    }
                    self.i += 1;
                }
                TokKind::Punct(';') => self.i += 1,
                TokKind::Ident(name) => match name.as_str() {
                    "pub" => {
                        pending_pub = true;
                        self.i += 1;
                        // `pub(crate)` / `pub(super)` restriction.
                        if self.t.punct(self.i, '(') {
                            self.i = self.t.close(self.i) + 1;
                        }
                    }
                    "use" => self.parse_use(),
                    "mod" => {
                        let modname = self.ident_at(self.i + 1).map(str::to_string);
                        match (modname, self.body_open(self.i + 2)) {
                            (Some(m), Some(open)) => {
                                self.mods.push((m, self.t.close(open)));
                                self.i = open + 1;
                            }
                            _ => {
                                // `mod x;` declaration: child parsed as its
                                // own file.
                                self.skip_past_semi();
                            }
                        }
                    }
                    "impl" => self.parse_impl_header(),
                    "trait" => {
                        // Parse the trait body like an impl block: default
                        // method bodies become nodes at `module::Trait::m`,
                        // so `dyn Trait` method calls resolve through the
                        // by-name index. Bodyless required methods are
                        // skipped by `parse_fn` as before.
                        let name = self.ident_at(self.i + 1).map(str::to_string);
                        match (name, self.body_open(self.i + 1)) {
                            (Some(n), Some(open)) => {
                                self.impls.push((n, self.t.close(open)));
                                self.i = open + 1;
                            }
                            _ => self.skip_past_semi(),
                        }
                    }
                    "enum" => self.parse_enum(),
                    "struct" => {
                        let name = self.ident_at(self.i + 1).map(str::to_string);
                        // Braced struct: record its fields, then skip the
                        // body; tuple/unit struct: skip to `;`.
                        let mut fields = Vec::new();
                        match self.body_open(self.i + 1) {
                            Some(open) => {
                                fields = self.scan_fields(open);
                                self.i = self.t.close(open) + 1;
                            }
                            None => self.skip_past_semi(),
                        }
                        if let Some(n) = name {
                            self.out.structs.insert(n, fields);
                        }
                    }
                    "macro_rules" => match self.body_open(self.i + 1) {
                        Some(open) => self.i = self.t.close(open) + 1,
                        None => self.skip_past_semi(),
                    },
                    "fn" => self.parse_fn(was_pub),
                    _ => {
                        pending_pub = was_pub;
                        self.i += 1;
                    }
                },
                _ => {
                    pending_pub = was_pub;
                    self.i += 1;
                }
            }
        }
    }

    // -- low-level helpers -------------------------------------------------

    fn ident_at(&self, at: usize) -> Option<&str> {
        self.t.get(at).and_then(|t| t.ident())
    }

    /// The body `{` of the item whose header continues at `from`: the first
    /// `{` at that level, unless a `;` ends the item first (`mod x;`, a
    /// tuple struct, a bodyless fn).
    fn body_open(&self, from: usize) -> Option<usize> {
        let t = self.t;
        let k = t.walk(from, t.len(), |k| t.punct(k, '{') || t.punct(k, ';'));
        t.punct(k, '{').then_some(k)
    }

    fn skip_past_semi(&mut self) {
        while self.i < self.t.len() && !self.t[self.i].is_punct(';') {
            self.i += 1;
        }
        self.i += 1;
    }

    fn current_module(&self) -> Vec<String> {
        let mut m = self.module.clone();
        m.extend(self.mods.iter().map(|(n, _)| n.clone()));
        m
    }

    // -- item parsers ------------------------------------------------------

    /// `use a::b::{c, d as e, f::*};` — record aliases with heads
    /// normalized to workspace-absolute form.
    fn parse_use(&mut self) {
        self.i += 1; // `use`
        let prefix: Vec<String> = Vec::new();
        self.parse_use_tree(prefix);
        self.skip_past_semi();
    }

    fn parse_use_tree(&mut self, mut prefix: Vec<String>) {
        loop {
            match self.t.get(self.i).map(|t| &t.kind) {
                Some(TokKind::Ident(s)) => {
                    prefix.push(s.clone());
                    self.i += 1;
                    if self.t.punct(self.i, ':') && self.t.punct(self.i + 1, ':') {
                        self.i += 2;
                        continue;
                    }
                    // `leaf as alias` renames the import.
                    if self.t.get(self.i).map(|t| t.is_ident("as")).unwrap_or(false) {
                        self.i += 1;
                        if let Some(alias) = self.ident_at(self.i).map(str::to_string) {
                            self.record_import(alias, prefix.clone());
                            self.i += 1;
                        }
                        return;
                    }
                    // Leaf segment.
                    let alias = prefix.last().cloned().unwrap_or_default();
                    // `use foo::{self}` — alias is the parent segment.
                    let (alias, path) = if alias == "self" {
                        let parent = prefix[..prefix.len() - 1].to_vec();
                        (parent.last().cloned().unwrap_or_default(), parent)
                    } else {
                        (alias, prefix.clone())
                    };
                    self.record_import(alias, path);
                    return;
                }
                Some(TokKind::Punct('{')) => {
                    self.i += 1;
                    loop {
                        self.parse_use_tree(prefix.clone());
                        if self.t.punct(self.i, ',') {
                            self.i += 1;
                            continue;
                        }
                        break;
                    }
                    if self.t.punct(self.i, '}') {
                        self.i += 1;
                    }
                    return;
                }
                Some(TokKind::Punct('*')) => {
                    self.i += 1;
                    let path = self.normalize_head(prefix.clone());
                    self.out.globs.push(path);
                    return;
                }
                _ => return,
            }
        }
    }

    fn record_import(&mut self, alias: String, path: Vec<String>) {
        if alias.is_empty() || path.is_empty() {
            return;
        }
        let path = self.normalize_head(path);
        self.out.imports.insert(alias, path);
    }

    /// Resolve `crate`/`self`/`super` heads against the file module.
    fn normalize_head(&self, mut path: Vec<String>) -> Vec<String> {
        let module = self.current_module();
        match path.first().map(String::as_str) {
            Some("crate") => {
                let mut out = vec![self.module[0].clone()];
                out.extend(path.drain(1..));
                out
            }
            Some("self") => {
                let mut out = module;
                out.extend(path.drain(1..));
                out
            }
            Some("super") => {
                let mut out = module;
                out.pop();
                // Chained `super::super::` heads.
                let mut rest = path.drain(1..).peekable();
                while rest.peek().map(String::as_str) == Some("super") {
                    rest.next();
                    out.pop();
                }
                out.extend(rest);
                out
            }
            _ => path,
        }
    }

    /// `impl [<...>] Type [for Type2] {` — push the *self type* leaf.
    fn parse_impl_header(&mut self) {
        self.i += 1; // `impl`
        if self.t.punct(self.i, '<') {
            self.i = skip_generics(self.t, self.i);
        }
        let Some(open) = self.body_open(self.i) else {
            self.skip_past_semi();
            return;
        };
        // Collect ident segments between here and the brace; the self type
        // is the last path's final ident (after `for`, if present).
        let mut ty: Option<String> = None;
        let mut j = self.i;
        while j < open {
            match &self.t[j].kind {
                TokKind::Ident(s) if s == "for" => {
                    ty = None;
                    j += 1;
                }
                TokKind::Ident(s) if s == "where" => break,
                TokKind::Ident(s) if s != "dyn" && s != "mut" => {
                    // Track the latest path leaf before generics.
                    ty = Some(s.clone());
                    j += 1;
                    // Skip generic args of this segment.
                    if j < open && self.t[j].is_punct('<') {
                        j = skip_generics(self.t, j);
                    }
                }
                _ => j += 1,
            }
        }
        self.impls.push((ty.unwrap_or_default(), self.t.close(open)));
        self.i = open + 1;
    }

    /// `enum E { .. }`: a variant is an ident at the body's level right
    /// after `{`, `,` or an attribute's `]`; payloads, discriminants' groups
    /// and attributes are jumped whole.
    fn parse_enum(&mut self) {
        let Some(name) = self.ident_at(self.i + 1).map(str::to_string) else {
            self.i += 1;
            return;
        };
        let Some(open) = self.body_open(self.i + 2) else {
            self.skip_past_semi();
            return;
        };
        let (t, close) = (self.t, self.t.close(open));
        let starts = |k: usize| {
            t[k].ident().is_some() && matches!(t[k - 1].kind, TokKind::Punct('{' | ',' | ']'))
        };
        let mut variants = Vec::new();
        let mut k = t.walk(open + 1, close, starts);
        while let Some(v) = t[..close].get(k).and_then(Tok::ident) {
            variants.push((v.to_string(), t[k].line));
            k = t.walk(k + 1, close, starts);
        }
        self.out.enums.insert(name, variants);
        self.i = close + 1;
    }

    /// The named fields of the struct body opened at `open`. Each field runs
    /// to the next `,` at the body's level; its name is the first level
    /// `ident :` (single colon) in it, and the identifiers after that, up to
    /// the first comma of any level, are recorded as its type — a generic
    /// argument or tuple comma ends the recorded type early, so `ty` holds
    /// the head of the type, not all of it.
    fn scan_fields(&self, open: usize) -> Vec<FieldFact> {
        let (t, close) = (self.t, self.t.close(open));
        let named = |k: usize| {
            t[k].ident().is_some_and(|s| s != "pub") && t.punct(k + 1, ':') && !t.punct(k + 2, ':')
        };
        let mut fields = Vec::new();
        let mut from = open + 1;
        while from < close {
            let end = t.walk(from, close, |k| t.punct(k, ','));
            let name = t.walk(from, end, named);
            if let Some(s) = t[..end].get(name).and_then(Tok::ident) {
                let ty = t[name + 2..end].iter().take_while(|x| !x.is_punct(','));
                fields.push(FieldFact {
                    name: s.to_string(),
                    line: t[name].line,
                    is_pub: t[name - 1].is_ident("pub"),
                    ty: ty.filter_map(|x| x.ident().map(str::to_string)).collect(),
                });
            }
            from = end + 1;
        }
        fields
    }

    fn parse_fn(&mut self, is_pub: bool) {
        let line = self.t[self.i].line;
        let Some(name) = self.ident_at(self.i + 1).map(str::to_string) else {
            self.i += 1;
            return;
        };
        self.i += 2;
        if self.t.punct(self.i, '<') {
            self.i = skip_generics(self.t, self.i);
        }
        // Parameter list: a `self` receiver is in the first parameter.
        let mut has_self = false;
        if self.t.punct(self.i, '(') {
            let first = self.t.walk(self.i + 1, self.t.len(), |k| self.t.punct(k, ','));
            has_self = self.t[self.i + 1..first].iter().any(|x| x.is_ident("self"));
            self.i = self.t.close(self.i) + 1;
        }
        // The body `{`, or a `;` (bodyless declaration).
        let Some(open) = self.body_open(self.i) else {
            self.skip_past_semi();
            return;
        };
        let end = (self.t.close(open) + 1).min(self.t.len());
        let module = self.current_module();
        let impl_type = self
            .impls
            .last()
            .map(|(ty, _)| ty.clone())
            .filter(|ty| !ty.is_empty());
        let mut path = module.clone();
        path.extend(impl_type.clone());
        path.push(name.clone());
        let mut item =
            FnItem { name, path, module, impl_type, line, is_pub, has_self, ..FnItem::default() };
        self.scan_body(open, end, &mut item);
        self.out.fns.push(item);
        self.i = end;
    }

    /// The one walk over a fn body `[lo, hi)`. Each path head `a::b::c` is
    /// collected once and classified twice: for call sites, panic, taint,
    /// lock and block facts, and — here and nowhere else — as an
    /// `Enum::Variant` construction (`sends`), match-arm pattern
    /// (or-patterns grouped into one `ArmRegion`, its body extent on the
    /// shared ord scale) or refutable test (`tests`). Progress ordinals for
    /// the `non-progressing-cycle` rule ride along.
    fn scan_body(&self, lo: usize, hi: usize, item: &mut FnItem) {
        let t = self.t;
        // Innermost enclosing `{` (the body brace at `lo` is the outermost).
        let mut braces: Vec<usize> = Vec::new();
        // Patterns of the or-group currently being accumulated.
        let mut pending: Vec<VariantSite> = Vec::new();
        // Pattern operand of the `matches!(expr, PATTERN)` being walked.
        let mut matches_pattern = 0..0;
        // The next ordinal each classification looks at: a path head covers
        // its continuation segments (and a macro its `!`) for the facts; an
        // arm pattern covers its payload and guard, an or-alternative its
        // payload and `|`, for the variant sites.
        let (mut next_fact, mut next_site) = (lo, lo);
        for j in lo..hi {
            let (fact, site) = (j >= next_fact, j >= next_site);
            let name = match &t[j].kind {
                TokKind::Ident(name) => name,
                TokKind::Punct('{') if fact => {
                    braces.push(j);
                    continue;
                }
                TokKind::Punct('}') if fact => {
                    braces.pop();
                    continue;
                }
                TokKind::Punct('[') if fact => {
                    // Slice/array indexing: `x[..]`, `f()[..]`, `x[0][1]`.
                    let is_index = j > lo
                        && matches!(t[j - 1].kind, TokKind::Ident(_) | TokKind::Punct(')' | ']'))
                        // `vec![` and other macros are separated by `!`; attrs by `#`.
                        && !(j > lo + 1 && t[j - 2].is_punct('#'));
                    if is_index {
                        let what = "slice indexing `[..]`".into();
                        item.panics.push(PanicFact { line: t[j].line, what });
                    }
                    continue;
                }
                _ => continue,
            };
            if site {
                // Progress probe: a known counter with a `+` shortly after
                // covers `x += 1`, `x: x + 1`, and `self.epoch = id + 1` alike.
                if PROGRESS_IDENTS.contains(&name.as_str())
                    && t[j + 1..(j + 7).min(hi)].iter().any(|x| x.is_punct('+'))
                {
                    item.progress_ords.push(j as u32);
                }
                if name == "matches" && t.punct(j + 1, '!') && t.punct(j + 2, '(') {
                    let past = t.close(j + 2) + 1;
                    matches_pattern = t.walk(j + 3, past, |k| t.punct(k, ','))..past;
                }
            }
            if t[j - 1].is_punct('.') {
                if fact {
                    self.method_facts(j, name, &braces, lo, hi, item);
                }
                continue;
            }
            // A declared name is not a reference; a continuation segment
            // (`::` before it) is not a variant path's head.
            let decl = ["fn", "let", "mod", "struct", "enum"].iter().any(|k| t[j - 1].is_ident(k));
            let fact = fact && !decl;
            let site = site && !(t.punct(j - 1, ':') && t.punct(j - 2, ':'));
            if !fact && !site {
                continue;
            }
            // Collect `a::b::...::z`; `end` is just past its last segment.
            let mut segs = vec![name.clone()];
            let mut end = j + 1;
            while t.punct(end, ':') && t.punct(end + 1, ':') {
                let Some(s) = t.get(end + 2).and_then(Tok::ident) else { break };
                segs.push(s.to_string());
                end += 3;
            }
            if fact {
                next_fact = self.path_facts(j, &segs, end, item);
            }
            if site {
                next_site = self.variant_site(&segs, end, hi, &mut pending, &matches_pattern, item);
            }
        }
    }

    /// `.name(..)` at `j`: a lock acquisition with its guard window, or a
    /// blocking receive, a panicking method or a by-name call.
    fn method_facts(
        &self,
        j: usize,
        name: &str,
        braces: &[usize],
        lo: usize,
        hi: usize,
        item: &mut FnItem,
    ) {
        let t = self.t;
        if !t.punct(skip_turbofish(t, j + 1), '(') {
            return;
        }
        let line = t[j].line;
        if let Some(&(_, op)) = LOCK_METHODS.iter().find(|(m, _)| *m == name) {
            // `x.y.lock()` — the receiver leaf ident names the lock; a
            // non-ident receiver (call result) stays anonymous. No call edge:
            // `lock` et al. resolve to std, not the workspace.
            let lock = t[j - 2].ident().unwrap_or("<unnamed>").to_string();
            // A bound guard lives to the end of the enclosing block, a
            // temporary to the end of its statement: the first `;` at the
            // block's level from `j` on. Groups after `j` (closure bodies,
            // `if` blocks fed by the temporary) are stepped over, which
            // over-approximates liveness into them — the safe direction.
            let block = braces.last().copied().unwrap_or(lo);
            let binds = stmt_binds_guard(t, lo, j);
            let scope_end = if binds {
                t.close(block)
            } else {
                t.walk(block + 1, hi, |k| k >= j && t.punct(k, ';'))
            };
            item.locks.push(LockFact {
                line,
                ord: j as u32,
                lock,
                op,
                binds_guard: binds,
                scope_end: scope_end as u32,
            });
            return;
        }
        if BLOCKING_METHODS.contains(&name) {
            // The call edge below is kept too: a workspace method of the
            // same name resolves by name.
            let what = format!("blocking `.{name}()`");
            item.blocks.push(BlockFact { line, ord: j as u32, what, kind: BlockKind::Blocking });
        }
        if PANIC_METHODS.contains(&name) {
            item.panics.push(PanicFact { line, what: format!("`.{name}()`") });
        } else {
            let target = CallTarget::Method(name.to_string());
            item.calls.push(CallSite { line, ord: j as u32, target });
        }
    }

    /// Facts of the path head at `j` whose segments `segs` end before `end`:
    /// taint sources, a panicking macro, a thread block/park operation or a
    /// call. Returns the next ordinal the fact walk looks at.
    fn path_facts(&self, j: usize, segs: &[String], end: usize, item: &mut FnItem) -> usize {
        let (t, line) = (self.t, self.t[j].line);
        // Taint facts (independent of call-ness: type positions like
        // `RandomState` in a generic argument also count).
        for (ix, s) in segs.iter().enumerate() {
            if TAINT_IDENTS.contains(&s.as_str()) {
                item.taints.push(TaintFact { line, what: s.clone() });
            }
            if s == "Instant" && segs.get(ix + 1).map(String::as_str) == Some("now") {
                item.taints.push(TaintFact { line, what: "Instant::now".into() });
            }
            if s == "Determinant" {
                item.mentions_determinant = true;
            }
        }
        let after = skip_turbofish(t, end);
        if t.punct(after, '!') {
            if segs.len() == 1 && PANIC_MACROS.contains(&segs[0].as_str()) {
                item.panics.push(PanicFact { line, what: format!("`{}!`", segs[0]) });
            }
            return after + 1;
        }
        if t.punct(after, '(') {
            // `std::thread::sleep(..)` et al. are blocking/park facts, not
            // workspace call edges. A bare `sleep(..)` counts when a `use`
            // maps it back to `std::thread`.
            let effective = match segs {
                [one] => self.out.imports.get(one).map_or(segs, Vec::as_slice),
                _ => segs,
            };
            if let Some((what, kind)) = thread_block_op(effective) {
                item.blocks.push(BlockFact { line, ord: j as u32, what, kind });
            } else {
                let target = CallTarget::Path(self.normalize_head(segs.to_vec()));
                item.calls.push(CallSite { line, ord: j as u32, target });
            }
        }
        end
    }

    /// Classify the path whose segments `segs` end before `end`, when its
    /// last two segments are capitalised (`Enum::Variant`): inside a
    /// `matches!` pattern a test; followed by `|` an or-alternative; by `=>`
    /// (or a guard and then `=>`) an arm pattern; by a lone `=` a
    /// `let`/`if let`/`while let` test; else a construction. Returns the
    /// next ordinal the classifier looks at — past the pattern's payload
    /// and guard for an arm, which it keeps walking *inside*.
    fn variant_site(
        &self,
        segs: &[String],
        end: usize,
        hi: usize,
        pending: &mut Vec<VariantSite>,
        matches_pattern: &Range<usize>,
        item: &mut FnItem,
    ) -> usize {
        let t = self.t;
        let upper = |s: &str| s.chars().next().is_some_and(char::is_uppercase);
        let [.., enm, variant] = segs else { return end };
        if !upper(enm) || !upper(variant) {
            return end;
        }
        let (enm, variant) = (enm.clone(), variant.clone());
        let site = VariantSite { line: t[end - 1].line, ord: end as u32 - 1, enm, variant };
        // Step over an optional payload group; what follows classifies.
        let after = if t.punct(end, '{') || t.punct(end, '(') { t.close(end) + 1 } else { end };
        let arm = t.punct(after, '=') && t.punct(after + 1, '>')
            || t.get(after).is_some_and(|x| x.is_ident("if"));
        let arrow = if arm {
            t.walk(after, hi, |k| t.punct(k, ';') || t.punct(k, '=') && t.punct(k + 1, '>'))
        } else {
            hi
        };
        if matches_pattern.contains(&(end - 1)) {
            item.tests.push(site);
        } else if t.punct(after, '|') {
            pending.push(site);
            return after + 1;
        } else if arrow < hi && t.punct(arrow, '=') {
            pending.push(site);
            let body_lo = arrow + 2;
            let body_hi = if t.punct(body_lo, '{') {
                t.close(body_lo) + 1
            } else {
                t.walk(body_lo, hi, |k| t.punct(k, ','))
            };
            item.arms.push(ArmRegion {
                line: pending[0].line,
                patterns: std::mem::take(pending),
                lo: body_lo as u32,
                hi: body_hi as u32,
            });
            return body_lo;
        } else if t.punct(after, '=') && !t.punct(after + 1, '=') && !t.punct(after + 1, '>') {
            item.tests.push(site);
        } else {
            item.sends.push(site);
        }
        pending.clear();
        end
    }
}

/// Is this path a `std::thread` blocking/park operation? Matches any path
/// whose tail is `thread::<op>` (`std::thread::sleep`, `thread::park`, ...).
fn thread_block_op(segs: &[String]) -> Option<(String, BlockKind)> {
    if segs.len() < 2 || segs[segs.len() - 2] != "thread" {
        return None;
    }
    let (what, kind) = match segs.last().map(String::as_str) {
        Some("sleep") => ("`std::thread::sleep`", BlockKind::Blocking),
        Some("yield_now") => ("`std::thread::yield_now`", BlockKind::Park),
        Some("park") => ("`std::thread::park`", BlockKind::Park),
        Some("park_timeout") => ("`std::thread::park_timeout`", BlockKind::Park),
        _ => return None,
    };
    Some((what.to_string(), kind))
}

/// Does the statement containing token `j` bind its value? True when a
/// `let` (also `if let` / `while let` / `let .. else`) or `match` keyword
/// appears between the previous statement/block boundary and `j` — the
/// guard then lives past the statement (to the end of the enclosing block,
/// conservatively; `match` scrutinee temporaries live through the arms).
fn stmt_binds_guard(t: &[Tok], lo: usize, j: usize) -> bool {
    let mut k = j;
    while k > lo {
        k -= 1;
        match &t[k].kind {
            TokKind::Punct(';' | '{' | '}') => return false,
            TokKind::Ident(s) if s == "let" || s == "match" => return true,
            _ => {}
        }
    }
    false
}

/// From `<` at `open`, return the index past the matching `>` (the `>` of
/// a `->` arrow does not count).
fn skip_generics(t: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < t.len() {
        match &t[i].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') if !t[i - 1].is_punct('-') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    t.len()
}

/// If `at` starts a turbofish (`::<...>`), return the index past it.
fn skip_turbofish(t: &[Tok], at: usize) -> usize {
    let is = |k: usize, c: char| t.get(k).is_some_and(|x| x.is_punct(c));
    if is(at, ':') && is(at + 1, ':') && is(at + 2, '<') {
        skip_generics(t, at + 2)
    } else {
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        let live = crate::callgraph::Source::new(lex(src));
        parse_file(vec!["x".into()], &live.toks)
    }

    fn fn_named<'a>(f: &'a ParsedFile, name: &str) -> &'a FnItem {
        f.fns.iter().find(|i| i.name == name).unwrap_or_else(|| panic!("no fn {name}: {f:#?}"))
    }

    #[test]
    fn module_paths() {
        assert_eq!(module_path_of("clonos", "crates/core/src/lib.rs"), vec!["clonos"]);
        assert_eq!(
            module_path_of("clonos", "crates/core/src/causal_log.rs"),
            vec!["clonos", "causal_log"]
        );
        assert_eq!(module_path_of("e", "crates/e/src/a/mod.rs"), vec!["e", "a"]);
        assert_eq!(module_path_of("e", "crates/e/src/a/b.rs"), vec!["e", "a", "b"]);
    }

    #[test]
    fn fn_items_and_impl_methods() {
        let f = parse(
            "pub fn free() {}\n\
             struct S;\n\
             impl S {\n    pub fn method(&self) {}\n    fn private(x: u32) {}\n}\n\
             impl Clone for S {\n    fn clone(&self) -> S { S }\n}\n",
        );
        let free = fn_named(&f, "free");
        assert!(free.is_pub);
        assert_eq!(free.path, vec!["x", "free"]);
        let m = fn_named(&f, "method");
        assert!(m.has_self);
        assert_eq!(m.path, vec!["x", "S", "method"]);
        let p = fn_named(&f, "private");
        assert!(!p.is_pub && !p.has_self);
        // Trait impl attributes methods to the self type, not the trait.
        assert_eq!(fn_named(&f, "clone").path, vec!["x", "S", "clone"]);
    }

    #[test]
    fn inline_mod_nesting() {
        let f = parse("mod inner {\n    pub fn g() {}\n}\npub fn outer() {}\n");
        assert_eq!(fn_named(&f, "g").path, vec!["x", "inner", "g"]);
        assert_eq!(fn_named(&f, "outer").path, vec!["x", "outer"]);
    }

    #[test]
    fn use_imports_and_globs() {
        let f = parse(
            "use std::collections::BTreeMap;\n\
             use crate::util::{helper, other as o};\n\
             use clonos_storage::codec::*;\n\
             use super::sibling;\n",
        );
        assert_eq!(f.imports["BTreeMap"], vec!["std", "collections", "BTreeMap"]);
        assert_eq!(f.imports["helper"], vec!["x", "util", "helper"]);
        assert_eq!(f.imports["o"], vec!["x", "util", "other"]);
        assert_eq!(f.globs, vec![vec!["clonos_storage", "codec"]]);
        // super:: from the crate root pops the lib segment.
        assert_eq!(f.imports["sibling"], vec!["sibling"]);
    }

    #[test]
    fn call_sites_and_panics() {
        let f = parse(
            "fn f(o: Option<u32>, v: &[u32]) -> u32 {\n\
                 crate::util::helper();\n\
                 let a = o.unwrap();\n\
                 let b = v[0];\n\
                 decode(v).expect(\"boom\");\n\
                 other_mod::g::<u32>();\n\
                 panic!(\"no\");\n\
                 a + b\n\
             }\n",
        );
        let item = fn_named(&f, "f");
        let paths: Vec<String> = item
            .calls
            .iter()
            .filter_map(|c| match &c.target {
                CallTarget::Path(p) => Some(p.join("::")),
                _ => None,
            })
            .collect();
        assert!(paths.contains(&"x::util::helper".to_string()), "{paths:?}");
        assert!(paths.contains(&"decode".to_string()));
        assert!(paths.contains(&"other_mod::g".to_string()));
        let what: Vec<&str> = item.panics.iter().map(|p| p.what.as_str()).collect();
        assert!(what.contains(&"`.unwrap()`"));
        assert!(what.contains(&"`.expect()`"));
        assert!(what.contains(&"`panic!`"));
        assert!(what.contains(&"slice indexing `[..]`"), "{what:?}");
    }

    #[test]
    fn method_calls_and_fields() {
        let f = parse("fn f(s: S) { s.go(); let x = s.field; s.generic::<u8>(1); }\n");
        let item = fn_named(&f, "f");
        let methods: Vec<&str> = item
            .calls
            .iter()
            .filter_map(|c| match &c.target {
                CallTarget::Method(m) => Some(m.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(methods, vec!["go", "generic"]);
    }

    #[test]
    fn taint_facts() {
        let f = parse(
            "fn f() {\n    let t = std::time::Instant::now();\n    let s = SystemTime::now();\n    let h: RandomState = RandomState::new();\n}\n",
        );
        let t: Vec<&str> = fn_named(&f, "f").taints.iter().map(|x| x.what.as_str()).collect();
        assert!(t.contains(&"Instant::now"));
        assert!(t.contains(&"SystemTime"));
        assert!(t.contains(&"RandomState"));
    }

    #[test]
    fn vec_macro_and_attrs_are_not_indexing() {
        let f = parse("fn f() { let v = vec![1, 2]; #[allow(dead_code)] let w: [u8; 2] = [0; 2]; }\n");
        assert!(fn_named(&f, "f").panics.is_empty(), "{:?}", fn_named(&f, "f").panics);
    }

    #[test]
    fn enums_and_variants() {
        let f = parse(
            "pub enum Msg {\n    Data { from: u32 },\n    Tick,\n    Pair(u32, u32),\n}\n",
        );
        let vs: Vec<&str> = f.enums["Msg"].iter().map(|(v, _)| v.as_str()).collect();
        assert_eq!(vs, vec!["Data", "Tick", "Pair"]);
    }

    #[test]
    fn cfg_test_items_are_invisible() {
        let f = parse(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn dead() { x.unwrap(); }\n}\n",
        );
        assert!(f.fns.iter().all(|i| i.name != "dead"));
        assert_eq!(f.fns.len(), 1);
    }

    #[test]
    fn determinant_mention_is_tracked() {
        let f = parse("fn replay(d: u8) { match d { _ => Determinant::decode(d) }; }\n");
        assert!(fn_named(&f, "replay").mentions_determinant);
    }

    #[test]
    fn trait_default_bodies_are_parsed_as_nodes() {
        let f = parse(
            "pub trait T {\n    fn required(&self);\n    fn with_default(&self) { self.required(); }\n}\nfn after() {}\n",
        );
        // Required (bodyless) methods contribute nothing.
        assert!(f.fns.iter().all(|i| i.name != "required"));
        // Default bodies become nodes under module::Trait::name.
        let d = fn_named(&f, "with_default");
        assert!(d.has_self);
        assert_eq!(d.path, vec!["x", "T", "with_default"]);
        assert!(d.calls.iter().any(|c| matches!(&c.target, CallTarget::Method(m) if m == "required")));
        assert_eq!(fn_named(&f, "after").path, vec!["x", "after"]);
    }

    #[test]
    fn lock_facts_with_guard_liveness() {
        let f = parse(
            "struct S { q: Mutex<u32> }\n\
             impl S {\n\
                 fn bound(&self) {\n\
                     let g = self.q.lock().unwrap();\n\
                     helper();\n\
                 }\n\
                 fn temp(&self) -> bool {\n\
                     self.q.lock().unwrap().is_zero();\n\
                     helper()\n\
                 }\n\
                 fn tried(&self) {\n\
                     let Ok(g) = self.q.try_lock() else { return };\n\
                     helper();\n\
                 }\n\
             }\n",
        );
        // Fields recorded off the struct body, type idents included.
        assert_eq!(f.structs["S"].len(), 1);
        assert_eq!((f.structs["S"][0].name.as_str(), f.structs["S"][0].is_pub), ("q", false));
        assert_eq!(f.structs["S"][0].ty, vec!["Mutex", "u32"]);

        let bound = fn_named(&f, "bound");
        let a = &bound.locks[0];
        assert_eq!((a.lock.as_str(), a.op, a.binds_guard), ("q", LockOp::Lock, true));
        // The helper() call after the acquisition falls inside the guard.
        let call = bound.calls.iter().find(|c| matches!(&c.target, CallTarget::Path(p) if p == &vec!["helper".to_string()])).unwrap();
        assert!(a.ord < call.ord && call.ord <= a.scope_end);

        let temp = fn_named(&f, "temp");
        let a = &temp.locks[0];
        assert!(!a.binds_guard);
        // Statement-scoped: `is_zero` is under the temporary, `helper` not.
        let is_zero = temp.calls.iter().find(|c| matches!(&c.target, CallTarget::Method(m) if m == "is_zero")).unwrap();
        let helper = temp.calls.iter().find(|c| matches!(&c.target, CallTarget::Path(_))).unwrap();
        assert!(a.ord < is_zero.ord && is_zero.ord <= a.scope_end);
        assert!(helper.ord > a.scope_end);

        let tried = fn_named(&f, "tried");
        let a = &tried.locks[0];
        assert_eq!((a.op, a.binds_guard), (LockOp::TryLock, true));
    }

    #[test]
    fn thread_ops_are_block_facts_not_calls() {
        let f = parse(
            "use std::thread::sleep;\n\
             fn f(cv: &C) {\n\
                 std::thread::sleep(d);\n\
                 std::thread::yield_now();\n\
                 sleep(d);\n\
                 cv.cond.wait(g);\n\
                 rx.recv();\n\
             }\n",
        );
        let item = fn_named(&f, "f");
        let whats: Vec<&str> = item.blocks.iter().map(|b| b.what.as_str()).collect();
        assert_eq!(
            whats,
            vec![
                "`std::thread::sleep`",
                "`std::thread::yield_now`",
                "`std::thread::sleep`",
                "blocking `.recv()`"
            ],
            "{whats:?}"
        );
        assert_eq!(item.blocks[0].kind, BlockKind::Blocking);
        assert_eq!(item.blocks[1].kind, BlockKind::Park);
        // The Condvar wait is a lock fact on the receiver field.
        assert_eq!(item.locks.len(), 1);
        assert_eq!((item.locks[0].lock.as_str(), item.locks[0].op), ("cond", LockOp::Wait));
        // None of the thread ops leaked into the call list as paths.
        assert!(item.calls.iter().all(|c| !matches!(&c.target, CallTarget::Path(p) if p.iter().any(|s| s == "thread"))));
    }

    #[test]
    fn send_facts_and_arm_regions() {
        let f = parse(
            "fn handle(&mut self, msg: Msg) {\n\
                 match msg {\n\
                     Msg::Ping { n } => {\n\
                         self.send(Msg::Pong(n));\n\
                     }\n\
                     Msg::Stop | Msg::Halt => self.done = true,\n\
                     _ => {}\n\
                 }\n\
             }\n",
        );
        let item = fn_named(&f, "handle");
        // One construction site: Pong. Ping/Stop/Halt are patterns.
        let sends: Vec<&str> = item.sends.iter().map(|s| s.variant.as_str()).collect();
        assert_eq!(sends, vec!["Pong"], "{:?}", item.sends);
        assert_eq!(item.sends[0].enm, "Msg");
        // Two arm regions; the second groups the or-pattern.
        assert_eq!(item.arms.len(), 2, "{:#?}", item.arms);
        let pats = |a: &ArmRegion| -> Vec<(String, String)> {
            a.patterns.iter().map(|p| (p.enm.clone(), p.variant.clone())).collect()
        };
        assert_eq!(pats(&item.arms[0]), vec![("Msg".into(), "Ping".into())]);
        assert_eq!(
            pats(&item.arms[1]),
            vec![("Msg".into(), "Stop".into()), ("Msg".into(), "Halt".into())]
        );
        // The Pong send lands inside the Ping arm's body extent.
        let ping = &item.arms[0];
        let pong = &item.sends[0];
        assert!(
            (ping.lo..ping.hi).contains(&pong.ord),
            "send ord {} not in arm [{}, {})",
            pong.ord,
            ping.lo,
            ping.hi
        );
        let stop = &item.arms[1];
        assert!(!(stop.lo..stop.hi).contains(&pong.ord));
    }

    #[test]
    fn let_patterns_are_not_send_facts() {
        let f = parse(
            "fn f(m: Msg) {\n\
                 if let Msg::Ping { n } = m { use_it(n); }\n\
                 let Msg::Pong(k) = m else { return };\n\
                 while let Msg::Tick = next() {}\n\
             }\n",
        );
        assert!(fn_named(&f, "f").sends.is_empty(), "{:?}", fn_named(&f, "f").sends);
    }

    #[test]
    fn guarded_arm_body_extent_is_past_the_guard() {
        let f = parse(
            "fn f(m: Msg, ready: bool) {\n\
                 match m {\n\
                     Msg::Ping { n } if ready && n > 0 => send(Msg::Pong(n)),\n\
                     _ => {}\n\
                 }\n\
             }\n",
        );
        let item = fn_named(&f, "f");
        assert_eq!(item.arms.len(), 1);
        assert_eq!(item.sends.len(), 1, "{:?}", item.sends);
        let arm = &item.arms[0];
        // The guard's `n > 0` is outside the body; the Pong send is inside.
        assert!((arm.lo..arm.hi).contains(&item.sends[0].ord));
    }

    #[test]
    fn progress_counter_mutation_sets_advances_epoch() {
        let f = parse(
            "fn a(&mut self) { self.next_cp += 1; }\n\
             fn b(&mut self, attempt: u32) { retry(GatherTimeout { attempt: attempt + 1 }); }\n\
             fn c(&mut self) { self.counter += 1; }\n",
        );
        assert!(!fn_named(&f, "a").progress_ords.is_empty());
        assert!(!fn_named(&f, "b").progress_ords.is_empty());
        assert!(fn_named(&f, "c").progress_ords.is_empty());
    }

    #[test]
    fn variant_occurrences_are_classified_once() {
        let f = parse(
            "fn f(m: Msg, q: &Q) -> bool {\n\
                 match m {\n\
                     Msg::Ping { n } if n == 0 || n >= LIMIT => q.push(Msg::Pong(n)),\n\
                     Msg::Stop => {}\n\
                 }\n\
                 matches!(q.peek(), Some(Msg::Halt | Msg::Stop)) && !matches!(m, Msg::Tick)\n\
             }\n",
        );
        let item = fn_named(&f, "f");
        let names = |v: &[VariantSite]| v.iter().map(|s| s.variant.clone()).collect::<Vec<_>>();
        // A guard with `==`/`>=` in it is still an arm: the arrow search
        // must not stop at the first `=`.
        assert_eq!(item.arms.len(), 2, "{:#?}", item.arms);
        assert_eq!(names(&item.arms[0].patterns), vec!["Ping"]);
        assert_eq!(names(&item.sends), vec!["Pong"]);
        assert!((item.arms[0].lo..item.arms[0].hi).contains(&item.sends[0].ord));
        // `matches!` operands are tests, alternatives included; `Some` and
        // the scrutinee expression are not variant paths at all.
        assert_eq!(names(&item.tests), vec!["Halt", "Stop", "Tick"]);
        assert_eq!(item.variant_sites().count(), 6);
    }

    #[test]
    fn struct_fields_with_visibility_and_type_idents() {
        let f = parse(
            "pub struct S {\n    pub a: u64,\n    pub(crate) b: Vec<(u32, Inner)>,\n    c: std::sync::Mutex<Inner>,\n}\n\
             struct Unit;\nstruct Tuple(u32);\nimpl S { pub fn d(&self) {} }\n",
        );
        let fields: Vec<(&str, u32, bool)> =
            f.structs["S"].iter().map(|f| (f.name.as_str(), f.line, f.is_pub)).collect();
        assert_eq!(fields, vec![("a", 2, true), ("b", 3, false), ("c", 4, false)]);
        assert_eq!(f.structs["S"][2].ty, vec!["std", "sync", "Mutex", "Inner"]);
        assert!(f.structs["Unit"].is_empty() && f.structs["Tuple"].is_empty());
    }

    /// The live tokens of `src` and their parse, for extents checked
    /// against the stream itself.
    fn parse_live(src: &str) -> (Tokens, ParsedFile) {
        let live = crate::callgraph::Source::new(lex(src));
        let f = parse_file(vec!["x".into()], &live.toks);
        (live.toks, f)
    }

    #[test]
    fn braceless_arm_body_ends_at_its_comma_past_an_array_repeat() {
        let (t, f) = parse_live(
            "fn f(m: E) -> usize {\n\
                 match m {\n\
                     E::A => [0u8; 4].len(),\n\
                     E::B => send(Msg::X),\n\
                 }\n\
             }\n",
        );
        let item = fn_named(&f, "f");
        assert_eq!(item.arms.len(), 2, "{:#?}", item.arms);
        let a = &item.arms[0];
        assert!(t[a.hi as usize].is_punct(',') && t[a.hi as usize - 1].is_punct(')'));
        assert!(!(a.lo..a.hi).contains(&item.sends[0].ord));
    }

    #[test]
    fn guarded_arm_finds_its_arrow_past_mixed_brackets() {
        let (t, f) = parse_live(
            "fn f(m: E) {\n\
                 match m {\n\
                     E::A(v) if v[0] == g({ 1 }) => send(Msg::X),\n\
                     _ => {}\n\
                 }\n\
             }\n",
        );
        let item = fn_named(&f, "f");
        assert_eq!(item.arms.len(), 1, "{:#?}", item.arms);
        let arm = &item.arms[0];
        assert!(t[arm.lo as usize - 2].is_punct('=') && t[arm.lo as usize - 1].is_punct('>'));
        assert!((arm.lo..arm.hi).contains(&item.sends[0].ord));
    }

    #[test]
    fn impl_header_with_an_array_type_argument_finds_its_body() {
        let f = parse("impl Foo for Bar<[u8; 4]> {\n    fn m(&self) {}\n}\nfn after() {}\n");
        assert_eq!(fn_named(&f, "m").path, vec!["x", "Bar", "m"]);
        assert_eq!(fn_named(&f, "after").path, vec!["x", "after"]);
    }

    #[test]
    fn a_tuple_typed_field_is_one_field() {
        let f = parse("struct S {\n    pair: (A, B),\n    next: [u8; 4],\n    last: u8,\n}\n");
        let names: Vec<&str> = f.structs["S"].iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["pair", "next", "last"]);
    }

    #[test]
    fn a_cfg_all_test_item_with_an_array_repeat_is_one_test_region() {
        let src = "fn live() {}\n#[cfg(all(test, x))]\nmod t {\n    fn f() { let a = [0; 4]; }\n}\nfn after() {}\n";
        assert_eq!(crate::rules::test_regions(&Tokens::new(lex(src).toks)), vec![(2, 5)]);
    }

    /// Reference for the level walker: one depth counter over all three
    /// bracket kinds.
    fn naive_walk(t: &[Tok], from: usize, hi: usize, stop: impl Fn(usize) -> bool) -> usize {
        let mut depth = 0usize;
        for (k, tok) in t.iter().enumerate().take(hi).skip(from) {
            match tok.kind {
                TokKind::Punct(')' | ']' | '}') if depth == 0 => return k,
                TokKind::Punct(')' | ']' | '}') => depth -= 1,
                _ if depth == 0 && stop(k) => return k,
                TokKind::Punct('(' | '[' | '{') => depth += 1,
                _ => {}
            }
        }
        hi
    }

    proptest::proptest! {
        #[test]
        fn walker_and_bracket_index_agree_with_a_depth_counter(
            syms in proptest::collection::vec(0usize..9, 0..48),
            a in 0usize..64,
            b in 0usize..64,
            target in 0usize..9,
        ) {
            let sym = |s: usize| "()[]{};,x".chars().nth(s).unwrap_or('x');
            let kind = |c: char| if c == 'x' { TokKind::Ident("x".into()) } else { TokKind::Punct(c) };
            let t = Tokens::new(syms.iter().map(|&s| Tok { line: 1, kind: kind(sym(s)) }).collect());
            let n = t.len();
            let from = a % (n + 1);
            let hi = from + b % (n - from + 1);
            let stop = |k: usize| t[k].kind == kind(sym(target));
            proptest::prop_assert_eq!(t.walk(from, hi, stop), naive_walk(&t, from, hi, stop));
            for (o, tok) in t.iter().enumerate() {
                if matches!(tok.kind, TokKind::Punct('(' | '[' | '{')) {
                    proptest::prop_assert_eq!(t.close(o), naive_walk(&t, o + 1, n, |_| false));
                }
            }
        }
    }
}
