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

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeMap;

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
pub fn parse_file(module: Vec<String>, toks: &[Tok]) -> ParsedFile {
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
    t: &'a [Tok],
    i: usize,
    out: ParsedFile,
    /// File-root module path.
    module: Vec<String>,
    /// Inline `mod x {` stack: (name, brace depth *after* entering).
    mods: Vec<(String, usize)>,
    /// `impl Ty {` stack: (type leaf name, brace depth after entering).
    impls: Vec<(String, usize)>,
}

impl<'a> Parser<'a> {
    fn run(&mut self) {
        let mut depth = 0usize;
        // A `pub` seen since the last item boundary: survives attributes
        // and qualifiers (`pub const unsafe fn`), cleared by anything else.
        let mut pending_pub = false;
        while self.i < self.t.len() {
            let was_pub = std::mem::take(&mut pending_pub);
            let tok = &self.t[self.i];
            match &tok.kind {
                TokKind::Punct('#') if self.peek_punct(1, '[') => {
                    pending_pub = was_pub;
                    self.i = skip_group(self.t, self.i + 1);
                }
                TokKind::Punct('{') => {
                    // A brace not claimed by mod/impl/fn below: skip the
                    // whole block (const/static initializers, etc.).
                    self.i = skip_group(self.t, self.i);
                }
                TokKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if self.mods.last().is_some_and(|&(_, d)| d == depth + 1) {
                        self.mods.pop();
                    }
                    if self.impls.last().is_some_and(|&(_, d)| d == depth + 1) {
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
                        if self.peek_punct(0, '(') {
                            self.i = skip_group(self.t, self.i);
                        }
                    }
                    "use" => self.parse_use(),
                    "mod" => {
                        let modname = self.ident_at(self.i + 1).map(str::to_string);
                        match (modname, self.find_punct_before_semi(self.i + 2, '{')) {
                            (Some(m), Some(open)) => {
                                depth += 1;
                                self.mods.push((m, depth));
                                self.i = open + 1;
                            }
                            _ => {
                                // `mod x;` declaration: child parsed as its
                                // own file.
                                self.skip_past_semi();
                            }
                        }
                    }
                    "impl" => self.parse_impl_header(&mut depth),
                    "trait" => {
                        // Parse the trait body like an impl block: default
                        // method bodies become nodes at `module::Trait::m`,
                        // so `dyn Trait` method calls resolve through the
                        // by-name index. Bodyless required methods are
                        // skipped by `parse_fn` as before.
                        let name = self.ident_at(self.i + 1).map(str::to_string);
                        match (name, self.find_impl_open_brace(self.i + 1)) {
                            (Some(n), Some(open)) => {
                                depth += 1;
                                self.impls.push((n, depth));
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
                        match self.find_punct_before_semi(self.i + 1, '{') {
                            Some(open) => {
                                let close = skip_group(self.t, open);
                                fields = self.scan_fields(open, close);
                                self.i = close;
                            }
                            None => self.skip_past_semi(),
                        }
                        if let Some(n) = name {
                            self.out.structs.insert(n, fields);
                        }
                    }
                    "macro_rules" => {
                        if let Some(open) = self.find_punct_before_semi(self.i + 1, '{') {
                            self.i = skip_group(self.t, open);
                        } else {
                            self.skip_past_semi();
                        }
                    }
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

    fn peek_punct(&self, ahead: usize, c: char) -> bool {
        self.t.get(self.i + ahead).is_some_and(|t| t.is_punct(c))
    }

    fn ident_at(&self, at: usize) -> Option<&str> {
        self.t.get(at).and_then(|t| t.ident())
    }

    /// Find `c` at nesting level 0 starting at `from`, stopping at a `;`
    /// that appears first. Used to find an item's opening brace.
    fn find_punct_before_semi(&self, from: usize, c: char) -> Option<usize> {
        let mut i = from;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while i < self.t.len() {
            match &self.t[i].kind {
                TokKind::Punct(p) if *p == c && paren == 0 && bracket == 0 => return Some(i),
                TokKind::Punct(';') if paren == 0 && bracket == 0 => return None,
                TokKind::Punct('(') => paren += 1,
                TokKind::Punct(')') => paren -= 1,
                TokKind::Punct('[') => bracket += 1,
                TokKind::Punct(']') => bracket -= 1,
                _ => {}
            }
            i += 1;
        }
        None
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
                    if self.peek_punct(0, ':') && self.peek_punct(1, ':') {
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
                        if self.peek_punct(0, ',') {
                            self.i += 1;
                            continue;
                        }
                        break;
                    }
                    if self.peek_punct(0, '}') {
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
    fn parse_impl_header(&mut self, depth: &mut usize) {
        self.i += 1; // `impl`
        if self.peek_punct(0, '<') {
            self.i = skip_generics(self.t, self.i);
        }
        let Some(open) = self.find_impl_open_brace(self.i) else {
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
        *depth += 1;
        self.impls.push((ty.unwrap_or_default(), *depth));
        self.i = open + 1;
    }

    /// Find the impl body's `{`, skipping generic argument lists (whose
    /// `{..}` cannot appear) and where clauses.
    fn find_impl_open_brace(&self, from: usize) -> Option<usize> {
        let mut i = from;
        while i < self.t.len() {
            match &self.t[i].kind {
                TokKind::Punct('{') => return Some(i),
                TokKind::Punct(';') => return None,
                TokKind::Punct('<') => i = skip_generics(self.t, i),
                _ => i += 1,
            }
        }
        None
    }

    fn parse_enum(&mut self) {
        let Some(name) = self.ident_at(self.i + 1).map(str::to_string) else {
            self.i += 1;
            return;
        };
        let Some(open) = self.find_punct_before_semi(self.i + 2, '{') else {
            self.skip_past_semi();
            return;
        };
        let mut variants = Vec::new();
        let mut depth = 0usize;
        let mut j = open;
        let mut bracket = 0i32;
        while j < self.t.len() {
            match &self.t[j].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Punct('(') if depth == 1 => {
                    // Tuple-variant payload: skip.
                    j = skip_group(self.t, j);
                    continue;
                }
                TokKind::Punct('[') => bracket += 1,
                TokKind::Punct(']') => bracket -= 1,
                TokKind::Ident(s) if depth == 1 && bracket == 0 => {
                    let starts = j == open + 1
                        || matches!(self.t[j - 1].kind, TokKind::Punct('{' | ',' | ']'));
                    if starts {
                        variants.push((s.clone(), self.t[j].line));
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.out.enums.insert(name, variants);
        self.i = j + 1;
    }

    /// The named fields of a struct body `{..}` at `[open, close)`. A field
    /// starts at `ident :` (single colon) at brace depth 1; the identifiers
    /// up to the next comma are recorded as its type. Only braces are
    /// tracked, so a generic-argument comma ends the recorded type early —
    /// `ty` holds the head of the type, not all of it.
    fn scan_fields(&self, open: usize, close: usize) -> Vec<FieldFact> {
        let mut fields: Vec<FieldFact> = Vec::new();
        let mut depth = 0usize;
        let mut in_type = false;
        for j in open..close {
            match &self.t[j].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => depth = depth.saturating_sub(1),
                TokKind::Punct(',') if depth == 1 => in_type = false,
                TokKind::Ident(s) if depth == 1 => {
                    let named = self.t.get(j + 1).is_some_and(|n| n.is_punct(':'))
                        && !self.t.get(j + 2).is_some_and(|n| n.is_punct(':'));
                    if named && s != "pub" {
                        fields.push(FieldFact {
                            name: s.clone(),
                            line: self.t[j].line,
                            is_pub: self.t[j - 1].is_ident("pub"),
                            ty: Vec::new(),
                        });
                        in_type = true;
                    } else if let (true, Some(f)) = (in_type, fields.last_mut()) {
                        f.ty.push(s.clone());
                    }
                }
                _ => {}
            }
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
        if self.peek_punct(0, '<') {
            self.i = skip_generics(self.t, self.i);
        }
        // Parameter list.
        let mut has_self = false;
        if self.peek_punct(0, '(') {
            let close = skip_group(self.t, self.i);
            // `self` receiver appears before the first top-level comma.
            let mut j = self.i + 1;
            let mut depth = 0i32;
            while j < close {
                match &self.t[j].kind {
                    TokKind::Punct('(' | '[' | '<') => depth += 1,
                    TokKind::Punct(')' | ']' | '>') => depth -= 1,
                    TokKind::Punct(',') if depth <= 0 => break,
                    TokKind::Ident(s) if s == "self" => {
                        has_self = true;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            self.i = close;
        }
        // Scan to the body `{` or a `;` (bodyless declaration).
        let Some(open) = self.find_punct_before_semi(self.i, '{') else {
            self.skip_past_semi();
            return;
        };
        let end = skip_group(self.t, open);
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
        scan_body(self.t, open, end, &mut item, self);
        scan_protocol(self.t, open, end, &mut item);
        self.out.fns.push(item);
        self.i = end;
    }
}

/// Collect call sites, panic facts, taint facts, and concurrency facts
/// (lock acquisitions, blocking/park points) from a body range.
fn scan_body(t: &[Tok], lo: usize, hi: usize, item: &mut FnItem, p: &Parser<'_>) {
    // Matching close index for every `{` in the range, for guard scopes.
    let close_of: BTreeMap<usize, usize> = {
        let mut map = BTreeMap::new();
        let mut stack = Vec::new();
        for (idx, tok) in t.iter().enumerate().take(hi).skip(lo) {
            if tok.is_punct('{') {
                stack.push(idx);
            } else if tok.is_punct('}') {
                if let Some(o) = stack.pop() {
                    map.insert(o, idx);
                }
            }
        }
        map
    };
    // Innermost enclosing `{` while walking (the body brace at `lo` is the
    // outermost entry).
    let mut open_stack: Vec<usize> = Vec::new();
    let mut j = lo;
    while j < hi {
        match &t[j].kind {
            TokKind::Punct('{') => {
                open_stack.push(j);
                j += 1;
            }
            TokKind::Punct('}') => {
                open_stack.pop();
                j += 1;
            }
            TokKind::Punct('[') => {
                // Slice/array indexing: `x[..]`, `f()[..]`, `x[0][1]`.
                let is_index = j > lo
                    && matches!(
                        t[j - 1].kind,
                        TokKind::Ident(_) | TokKind::Punct(')') | TokKind::Punct(']')
                    )
                    // `vec![` and other macros are separated by `!`; attrs by `#`.
                    && !(j > lo + 1 && t[j - 2].is_punct('#'));
                if is_index {
                    item.panics
                        .push(PanicFact { line: t[j].line, what: "slice indexing `[..]`".into() });
                }
                j += 1;
            }
            TokKind::Ident(name) => {
                let prev = if j > 0 { Some(&t[j - 1].kind) } else { None };
                // Path continuation segments were consumed below; `.field`
                // and `.method(` handled here.
                if matches!(prev, Some(TokKind::Punct('.'))) {
                    let after = skip_turbofish(t, j + 1);
                    if t.get(after).is_some_and(|n| n.is_punct('(')) {
                        if let Some(&(_, op)) =
                            LOCK_METHODS.iter().find(|(m, _)| m == name)
                        {
                            // `x.y.lock()` — the receiver leaf ident names
                            // the lock; a non-ident receiver (call result)
                            // stays anonymous. No call edge: `lock` et al.
                            // resolve to std, not the workspace.
                            let lock = (j >= 2)
                                .then(|| t[j - 2].ident())
                                .flatten()
                                .unwrap_or("<unnamed>")
                                .to_string();
                            let binds = stmt_binds_guard(t, lo, j);
                            let scope_end = if binds {
                                open_stack
                                    .last()
                                    .and_then(|o| close_of.get(o))
                                    .copied()
                                    .unwrap_or(hi)
                            } else {
                                stmt_end(t, j, hi)
                            };
                            item.locks.push(LockFact {
                                line: t[j].line,
                                ord: j as u32,
                                lock,
                                op,
                                binds_guard: binds,
                                scope_end: scope_end as u32,
                            });
                        } else {
                            if BLOCKING_METHODS.contains(&name.as_str()) {
                                // The call edge below is kept too: a workspace
                                // method of the same name resolves by name.
                                item.blocks.push(BlockFact {
                                    line: t[j].line,
                                    ord: j as u32,
                                    what: format!("blocking `.{name}()`"),
                                    kind: BlockKind::Blocking,
                                });
                            }
                            if PANIC_METHODS.contains(&name.as_str()) {
                                item.panics.push(PanicFact {
                                    line: t[j].line,
                                    what: format!("`.{name}()`"),
                                });
                            } else {
                                item.calls.push(CallSite {
                                    line: t[j].line,
                                    ord: j as u32,
                                    target: CallTarget::Method(name.clone()),
                                });
                            }
                        }
                    }
                    j += 1;
                    continue;
                }
                // Skip identifiers that are declarations, not references.
                if matches!(prev, Some(TokKind::Ident(k)) if k == "fn" || k == "let" || k == "mod" || k == "struct" || k == "enum")
                {
                    j += 1;
                    continue;
                }
                // Start of a path: collect `a::b::c`.
                let mut segs = vec![name.clone()];
                let start_line = t[j].line;
                let mut k = j + 1;
                while t.get(k).is_some_and(|x| x.is_punct(':'))
                    && t.get(k + 1).is_some_and(|x| x.is_punct(':'))
                {
                    match t.get(k + 2).map(|x| &x.kind) {
                        Some(TokKind::Ident(s)) => {
                            segs.push(s.clone());
                            k += 3;
                        }
                        _ => break,
                    }
                }
                let after = skip_turbofish(t, k);
                let is_macro = t.get(after).is_some_and(|n| n.is_punct('!'));
                let is_call = t.get(after).is_some_and(|n| n.is_punct('('));

                // Taint facts (independent of call-ness: type positions
                // like `RandomState` in a generic argument also count).
                for (ix, s) in segs.iter().enumerate() {
                    if TAINT_IDENTS.contains(&s.as_str()) {
                        item.taints.push(TaintFact { line: start_line, what: s.clone() });
                    }
                    if s == "Instant" && segs.get(ix + 1).map(String::as_str) == Some("now") {
                        item.taints
                            .push(TaintFact { line: start_line, what: "Instant::now".into() });
                    }
                    if s == "Determinant" {
                        item.mentions_determinant = true;
                    }
                }

                if is_macro {
                    if segs.len() == 1 && PANIC_MACROS.contains(&segs[0].as_str()) {
                        item.panics
                            .push(PanicFact { line: start_line, what: format!("`{}!`", segs[0]) });
                    }
                    j = after + 1;
                    continue;
                }
                if is_call {
                    // `std::thread::sleep(..)` et al. are blocking/park
                    // facts, not workspace call edges. A bare `sleep(..)`
                    // counts when a `use` maps it back to `std::thread`.
                    let effective = if segs.len() == 1 {
                        p.out.imports.get(&segs[0]).cloned().unwrap_or_else(|| segs.clone())
                    } else {
                        segs.clone()
                    };
                    if let Some((what, kind)) = thread_block_op(&effective) {
                        item.blocks.push(BlockFact {
                            line: start_line,
                            ord: j as u32,
                            what,
                            kind,
                        });
                    } else {
                        let segs = p.normalize_head(segs);
                        item.calls.push(CallSite {
                            line: start_line,
                            ord: j as u32,
                            target: CallTarget::Path(segs),
                        });
                    }
                }
                j = k.max(j + 1);
            }
            _ => j += 1,
        }
    }
}

/// Collect protocol facts from a body range: every `Enum::Variant`
/// occurrence, classified **here and nowhere else** as a construction
/// (send fact), a match-arm pattern (or-patterns grouped into one
/// `ArmRegion` with its body extent on the shared ord scale) or a
/// refutable test pattern — plus the progress ordinals for the
/// `non-progressing-cycle` rule. Separate from `scan_body` because it
/// needs pattern-vs-expression classification that the call-site walk
/// deliberately does not do.
fn scan_protocol(t: &[Tok], lo: usize, hi: usize, item: &mut FnItem) {
    let punct = |k: usize, c: char| t.get(k).is_some_and(|x| x.is_punct(c));
    // Patterns of the or-group currently being accumulated.
    let mut pending: Vec<VariantSite> = Vec::new();
    // Pattern operand of the `matches!(expr, PATTERN)` being walked.
    let mut matches_pattern = 0..0;
    let mut j = lo;
    while j < hi {
        let TokKind::Ident(name) = &t[j].kind else {
            j += 1;
            continue;
        };
        // Progress probe: a known counter with a `+` shortly after covers
        // `x += 1`, `x: x + 1`, and `self.epoch = id + 1` alike.
        if PROGRESS_IDENTS.contains(&name.as_str())
            && t[j + 1..(j + 7).min(hi)].iter().any(|x| x.is_punct('+'))
        {
            item.progress_ords.push(j as u32);
        }
        if name == "matches" && punct(j + 1, '!') && punct(j + 2, '(') {
            let close = skip_group(t, j + 2);
            matches_pattern = arm_expr_end(t, j + 3, close)..close;
        }
        // Path heads only: a continuation segment (preceded by `::`) was
        // already consumed as part of its head's walk below.
        if j > 0 && (punct(j - 1, '.') || j > 1 && punct(j - 1, ':') && punct(j - 2, ':')) {
            j += 1;
            continue;
        }
        // Collect `a::b::...::z`.
        let mut segs = vec![name.clone()];
        let mut jl = j; // index of the last path segment
        while punct(jl + 1, ':') && punct(jl + 2, ':') {
            let Some(TokKind::Ident(s)) = t.get(jl + 3).map(|x| &x.kind) else { break };
            segs.push(s.clone());
            jl += 3;
        }
        let upper = |s: &str| s.chars().next().is_some_and(char::is_uppercase);
        if segs.len() < 2 || !upper(&segs[segs.len() - 2]) || !upper(&segs[segs.len() - 1]) {
            j = jl + 1;
            continue;
        }
        let variant = segs.pop().unwrap_or_default();
        let enm = segs.pop().unwrap_or_default();
        let site = VariantSite { line: t[jl].line, ord: jl as u32, enm, variant };
        // Skip an optional payload group, then classify by what follows the
        // pattern-or-expression.
        let mut after = jl + 1;
        if punct(after, '{') || punct(after, '(') {
            after = skip_group(t, after);
        }
        if matches_pattern.contains(&jl) {
            item.tests.push(site);
        } else if punct(after, '|') {
            // Or-pattern: the next alternative continues this arm.
            pending.push(site);
            j = after + 1;
            continue;
        } else if let Some(arrow) = (punct(after, '=') && punct(after + 1, '>')
            || t.get(after).is_some_and(|x| x.is_ident("if")))
        .then(|| find_arrow(t, after, hi))
        .flatten()
        {
            // Match arm (possibly guarded): `=>` and the body extent.
            pending.push(site);
            let body_lo = arrow + 2;
            let body_hi = if punct(body_lo, '{') {
                skip_group(t, body_lo)
            } else {
                arm_expr_end(t, body_lo, hi)
            };
            item.arms.push(ArmRegion {
                line: pending[0].line,
                patterns: std::mem::take(&mut pending),
                lo: body_lo as u32,
                hi: body_hi as u32,
            });
            // Keep walking *inside* the body: nested arms and sends count.
            j = body_lo;
            continue;
        } else if punct(after, '=') && !punct(after + 1, '=') && !punct(after + 1, '>') {
            // `if let` / `while let` / `let ... else`: `=` (not `==`)
            // directly after the pattern.
            item.tests.push(site);
        } else {
            item.sends.push(site);
        }
        pending.clear();
        j = jl + 1;
    }
}

/// Find the `=` of a `=>` at bracket depth 0, scanning from `from` (an
/// arm's arrow, possibly past a guard). Bails at a `;`, an unmatched
/// close, or after 200 tokens.
fn find_arrow(t: &[Tok], from: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i32;
    for k in from..(from + 200).min(hi.min(t.len().saturating_sub(1))) {
        match &t[k].kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']' | '}') => {
                depth -= 1;
                if depth < 0 {
                    return None;
                }
            }
            TokKind::Punct(';') if depth == 0 => return None,
            TokKind::Punct('=')
                if depth == 0 && t.get(k + 1).is_some_and(|x| x.is_punct('>')) =>
            {
                return Some(k);
            }
            _ => {}
        }
    }
    None
}

/// End of a braceless arm body starting at `from`: the `,` at depth 0 that
/// separates it from the next arm, or the `}` that closes the match.
fn arm_expr_end(t: &[Tok], from: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut k = from;
    while k < hi {
        match &t[k].kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']' | '}') => {
                if depth == 0 {
                    return k;
                }
                depth -= 1;
            }
            TokKind::Punct(',') if depth == 0 => return k,
            _ => {}
        }
        k += 1;
    }
    hi
}

/// From an opening `{`/`(`/`[` at `open`, return the index just past its
/// matching close.
fn skip_group(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks[open].kind {
        TokKind::Punct('{') => ('{', '}'),
        TokKind::Punct('[') => ('[', ']'),
        _ => ('(', ')'),
    };
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct(o) {
            depth += 1;
        } else if toks[j].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
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

/// Index of the `;` (or closing `}` of the enclosing block) that ends the
/// statement containing token `j` — the liveness bound for an unbound
/// guard temporary. Brace blocks opened after `j` (closure bodies, `if`
/// arms fed by the temporary) are stepped over, which over-approximates
/// liveness into them; conservative in the safe direction.
fn stmt_end(t: &[Tok], j: usize, hi: usize) -> usize {
    let mut depth = 0usize;
    let mut k = j;
    while k < hi {
        match &t[k].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                if depth == 0 {
                    return k;
                }
                depth -= 1;
            }
            TokKind::Punct(';') if depth == 0 => return k,
            _ => {}
        }
        k += 1;
    }
    hi
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
}
