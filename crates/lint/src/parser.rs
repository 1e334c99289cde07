//! Item/signature parser on top of the lexer: just enough structural
//! understanding of a Rust source file to build a workspace call graph,
//! and the one classification of its tokens every rule reads.
//!
//! Per file it extracts the module path (derived from the file's location
//! in its crate), `use` imports (aliases resolved to workspace-absolute
//! paths), enums, structs and `fn` items with their inline-`mod`/`impl`
//! context, and classifies every live token once into a typed `Mark`:
//! table identifiers, call sites, panic sites, nondeterminism sources,
//! lock acquisitions (with a conservative guard-liveness range),
//! blocking/park points and `Enum::Variant` sites, all on one
//! token-ordinal scale (`ord`), so a later pass can tell which calls happen
//! while a guard is live. A fn's facts are the marks in its body.
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

/// Hash-ordered collections (`hash-collections`).
pub const HASH_COLLECTIONS: &[&str] = &["HashMap", "HashSet", "hash_map", "hash_set"];

/// Nondeterminism sources by identifier: what `hash-collections`,
/// `wall-clock` and `os-entropy` flag per file and `replay-taint` follows
/// through the call graph. `Instant` counts only as `Instant::now`.
pub const SOURCES: &[(&str, Nondet)] = &[
    ("RandomState", Nondet::HashState), ("DefaultHasher", Nondet::HashState),
    ("SystemTime", Nondet::Clock), ("UNIX_EPOCH", Nondet::Clock),
    ("thread_rng", Nondet::Entropy), ("from_entropy", Nondet::Entropy),
    ("OsRng", Nondet::Entropy), ("getrandom", Nondet::Entropy),
];

/// Lock/coordination types (`threading`). `Barrier` is deliberately
/// absent: `StreamElement::Barrier` is the engine's checkpoint barrier and
/// would false-positive everywhere; `std::sync::Barrier` use would still
/// trip on the `thread::`/spawn machinery needed to exercise it.
pub const SYNC_PRIMITIVES: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// Host-scheduler operations of `std::thread` and how they hold up the
/// caller. Two readings of one table: any bare call of one is a
/// `threading` mark (only modelled time is legal outside the runtime
/// module); a call whose path — or whose `use` — names `std::thread` is a
/// block fact the lockgraph reads.
pub const THREAD_OPS: &[(&str, BlockKind)] = &[
    ("sleep", BlockKind::Blocking), ("yield_now", BlockKind::Park),
    ("park", BlockKind::Park), ("park_timeout", BlockKind::Park),
];

/// Keywords whose next identifier is declared, not referenced.
const DECL_KEYWORDS: &[&str] = &["fn", "let", "mod", "struct", "enum"];

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

#[derive(Clone, Debug)]
pub enum CallTarget {
    /// `a::b::c(...)` or `c(...)` — path segments as written (in a fn's
    /// marks, the head normalized for `crate`/`self`/`super`).
    Path(Vec<String>),
    /// `.m(...)` — receiver type unknown.
    Method(String),
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

/// One `Enum::Variant` occurrence. Its mark says what it is: a
/// construction (`Send`), a match-arm pattern (`ArmRegion::patterns`) or a
/// refutable test (`Test`). Recorded for every capitalised two-segment path
/// tail; the passes filter to the enums they care about (associated consts
/// and foreign enums ride along unused).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VariantSite {
    pub line: u32,
    /// Token ordinal (same scale as `ArmRegion` extents).
    pub ord: u32,
    /// Second-to-last path segment (`Msg` in `Msg::Data`).
    pub enm: String,
    /// Last path segment.
    pub variant: String,
}

/// One `Enum::Variant` match arm: which variants the arm matches (an
/// or-pattern contributes several) and the token-ordinal extent of its
/// body. Sends and calls whose `ord` falls inside `[lo, hi)` execute *in
/// response to* the matched variant.
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

/// Which kind of nondeterminism a `SOURCES` identifier draws on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Nondet {
    /// OS-seeded hash state (`hash-collections`).
    HashState,
    /// The host clock (`wall-clock`).
    Clock,
    /// OS entropy (`os-entropy`).
    Entropy,
}

/// What one live token is, for every rule that asks: the parser's one
/// classification of a file. The per-file rules filter a file's marks;
/// a fn's facts are the marks inside its body.
#[derive(Clone, Debug)]
pub struct Mark {
    pub line: u32,
    /// Token ordinal in the file's live stream.
    pub ord: u32,
    pub kind: MarkKind,
}

#[derive(Clone, Debug)]
pub enum MarkKind {
    /// A `HASH_COLLECTIONS` identifier.
    HashCollection(String),
    /// A `SOURCES` identifier, or the `Instant` of `Instant::now`.
    Source(Nondet, String),
    /// `partial_cmp`, unless declared.
    PartialCmp,
    /// A `SYNC_PRIMITIVES` or `Atomic*` type, a `thread::` path, or a bare
    /// call of a `THREAD_OPS` name.
    Threading(String),
    /// `.unwrap()` et al. (`PANIC_METHODS`).
    PanicMethod(String),
    /// `panic!` et al. (`PANIC_MACROS`).
    PanicMacro(String),
    /// Slice/array indexing `x[..]`.
    Index,
    /// A `std::thread` block/park call or a blocking receive, rendered.
    Block(String, BlockKind),
    /// Names the `Determinant` type.
    Determinant,
    /// A call; a path is as written (its fn normalizes the head).
    Call(CallTarget),
    /// `.lock()` / `.try_lock()` / `Condvar::wait*`, with its guard window.
    Lock(LockFact),
    /// A progress counter incremented (`PROGRESS_IDENTS`).
    Progress,
    /// `Enum::Variant` constructed.
    Send(VariantSite),
    /// `Enum::Variant` tested by `if let` / `while let` / `let .. else` /
    /// `matches!`.
    Test(VariantSite),
    /// `Enum::Variant` match arm, marked at its body start.
    Arm(ArmRegion),
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
    /// The body's facts: its marks, in token order, a call path's head
    /// normalized for `crate`/`self`/`super`.
    pub marks: Vec<Mark>,
}

impl FnItem {
    /// `a::b::c` display form.
    pub fn display_path(&self) -> String {
        self.path.join("::")
    }

    /// Every `Enum::Variant` the body names, whatever its role.
    pub fn variant_sites(&self) -> impl Iterator<Item = &VariantSite> {
        self.marks.iter().flat_map(|m| match &m.kind {
            MarkKind::Send(s) | MarkKind::Test(s) => std::slice::from_ref(s),
            MarkKind::Arm(arm) => &arm.patterns,
            _ => &[],
        })
    }

    /// Does the body increment a progress counter inside `window`?
    pub fn advances(&self, window: Range<u32>) -> bool {
        self.marks.iter().any(|m| matches!(m.kind, MarkKind::Progress) && window.contains(&m.ord))
    }
}

impl Mark {
    /// The abort at an abort site: "`.unwrap()`", "`panic!`", "slice
    /// indexing `[..]`".
    pub fn panic(&self) -> Option<String> {
        match &self.kind {
            MarkKind::PanicMethod(name) => Some(format!("`.{name}()`")),
            MarkKind::PanicMacro(name) => Some(format!("`{name}!`")),
            MarkKind::Index => Some("slice indexing `[..]`".into()),
            _ => None,
        }
    }

    /// The source at a nondeterminism source: "Instant::now", "SystemTime", ...
    pub fn taint(&self) -> Option<String> {
        match &self.kind {
            MarkKind::Source(_, name) if name == "Instant" => Some("Instant::now".into()),
            MarkKind::Source(_, name) => Some(name.clone()),
            _ => None,
        }
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
    /// Every live token's classification, in token order: fn bodies and
    /// item-level tokens (`use` trees, field types, signatures) alike.
    pub marks: Vec<Mark>,
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

/// Parse one file's live token stream into its items, then classify every
/// token once and hand each fn the marks inside its body.
pub fn parse_file(module: Vec<String>, toks: &Tokens) -> ParsedFile {
    let mut p = Parser {
        t: toks,
        i: 0,
        out: ParsedFile { module: module.clone(), ..ParsedFile::default() },
        module,
        mods: Vec::new(),
        impls: Vec::new(),
        bodies: Vec::new(),
    };
    p.run();
    let mut marks = p.classify();
    marks.sort_by_key(|m| m.ord);
    for (item, body) in p.out.fns.iter_mut().zip(&p.bodies) {
        let at = |o: usize| marks.partition_point(|m| (m.ord as usize) < o);
        item.marks = marks[at(body.start)..at(body.end)].to_vec();
        for m in &mut item.marks {
            if let MarkKind::Call(CallTarget::Path(segs)) = &mut m.kind {
                *segs = normalize_head(&p.module[0], item.module.clone(), std::mem::take(segs));
            }
        }
    }
    p.out.marks = marks;
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
    /// Body token range of each of `out.fns`.
    bodies: Vec<Range<usize>>,
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
                    let module = self.current_module();
                    self.out.globs.push(normalize_head(&self.module[0], module, prefix.clone()));
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
        let path = normalize_head(&self.module[0], self.current_module(), path);
        self.out.imports.insert(alias, path);
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
        let item =
            FnItem { name, path, module, impl_type, line, is_pub, has_self, ..FnItem::default() };
        self.out.fns.push(item);
        self.bodies.push(open..end);
        self.i = end;
    }

    /// The one walk over the file's live tokens. Every identifier is
    /// classified by the tables (`ident_mark`) wherever it stands. Each path
    /// head `a::b::c` is collected once and classified twice: for call and
    /// block facts, and — here and nowhere else — as an `Enum::Variant`
    /// construction, match-arm pattern (or-patterns grouped into one
    /// `ArmRegion`, its body extent on the shared ord scale) or refutable
    /// test. Progress marks for `non-progressing-cycle` ride along.
    fn classify(&self) -> Vec<Mark> {
        let t = self.t;
        let mut marks = Vec::new();
        let mut mark = |j: usize, kind: MarkKind| {
            marks.push(Mark { line: t[j].line, ord: j as u32, kind });
        };
        // Innermost enclosing `{`.
        let mut braces: Vec<usize> = Vec::new();
        // Patterns of the or-group currently being accumulated.
        let mut pending: Vec<VariantSite> = Vec::new();
        // Pattern operand of the `matches!(expr, PATTERN)` being walked.
        let mut matches_pattern = 0..0;
        // The next ordinal each classification looks at: a path head covers
        // its continuation segments (and a macro its `!`) for the facts; an
        // arm pattern covers its payload and guard, an or-alternative its
        // payload and `|`, for the variant sites.
        let (mut next_fact, mut next_site) = (0, 0);
        for j in 0..t.len() {
            let (fact, site) = (j >= next_fact, j >= next_site);
            let before = |k: usize, c: char| t.punct(j.wrapping_sub(k), c);
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
                    // Slice/array indexing: `x[..]`, `f()[..]`, `x[0][1]`;
                    // `vec![` and other macros are separated by `!`.
                    let indexed = t.get(j.wrapping_sub(1)).is_some_and(|p| {
                        matches!(p.kind, TokKind::Ident(_) | TokKind::Punct(')' | ']'))
                    });
                    if indexed && !before(2, '#') {
                        mark(j, MarkKind::Index);
                    }
                    continue;
                }
                _ => continue,
            };
            if let Some(kind) = self.ident_mark(j, name) {
                mark(j, kind);
            }
            if site {
                // Progress probe: a known counter with a `+` shortly after
                // covers `x += 1`, `x: x + 1`, and `self.epoch = id + 1` alike.
                if PROGRESS_IDENTS.contains(&name.as_str())
                    && t[j + 1..(j + 7).min(t.len())].iter().any(|x| x.is_punct('+'))
                {
                    mark(j, MarkKind::Progress);
                }
                if name == "matches" && t.punct(j + 1, '!') && t.punct(j + 2, '(') {
                    let past = t.close(j + 2) + 1;
                    matches_pattern = t.walk(j + 3, past, |k| t.punct(k, ','))..past;
                }
            }
            if before(1, '.') {
                if fact {
                    self.method_marks(j, name, &braces).into_iter().for_each(|kind| mark(j, kind));
                }
                continue;
            }
            // A declared name is not a reference; a continuation segment
            // (`::` before it) is not a variant path's head.
            let fact = fact && !declared(t, j);
            let site = site && !(before(1, ':') && before(2, ':'));
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
                let after = skip_turbofish(t, end);
                next_fact = if t.punct(after, '!') { after + 1 } else { end };
                if t.punct(after, '(') {
                    mark(j, self.path_call(segs.clone()));
                }
            }
            if site {
                let (site, next) = variant_site(t, &segs, end, &mut pending, &matches_pattern);
                next_site = next;
                if let Some((at, kind)) = site {
                    mark(at, kind);
                }
            }
        }
        marks
    }

    /// What the identifier at `j` is by the tables alone, wherever it
    /// stands: the per-file rules' whole view, and the fn facts' sources.
    fn ident_mark(&self, j: usize, name: &str) -> Option<MarkKind> {
        let t = self.t;
        let prev = |c: char| j > 0 && t[j - 1].is_punct(c);
        let path_next = t.punct(j + 1, ':') && t.punct(j + 2, ':');
        let owned = || name.to_string();
        if HASH_COLLECTIONS.contains(&name) {
            return Some(MarkKind::HashCollection(owned()));
        }
        if let Some(&(_, source)) = SOURCES.iter().find(|(s, _)| *s == name) {
            return Some(MarkKind::Source(source, owned()));
        }
        if name == "Instant" && path_next && t.get(j + 3).is_some_and(|x| x.is_ident("now")) {
            return Some(MarkKind::Source(Nondet::Clock, owned()));
        }
        if name == "partial_cmp" && !declared(t, j) {
            return Some(MarkKind::PartialCmp);
        }
        // A bare `sleep(..)` — imported via `use std::thread::sleep` —
        // sidesteps the `thread::` path; methods, path tails (marked at
        // `thread`) and definitions named alike are not calls of it.
        let bare_op = THREAD_OPS.iter().any(|(op, _)| *op == name)
            && t.punct(j + 1, '(')
            && !prev('.')
            && !prev(':')
            && !declared(t, j);
        if SYNC_PRIMITIVES.contains(&name)
            || name.strip_prefix("Atomic").is_some_and(|rest| !rest.is_empty())
            || name == "thread" && path_next
            || bare_op
        {
            return Some(MarkKind::Threading(owned()));
        }
        if PANIC_MACROS.contains(&name) && t.punct(j + 1, '!') {
            return Some(MarkKind::PanicMacro(owned()));
        }
        (name == "Determinant").then_some(MarkKind::Determinant)
    }

    /// `.name(..)` at `j`: a lock acquisition with its guard window, a
    /// panicking method, or a by-name call — a blocking receive also marked
    /// as one, since a workspace method of the same name resolves by name.
    fn method_marks(&self, j: usize, name: &str, braces: &[usize]) -> Vec<MarkKind> {
        let t = self.t;
        if !t.punct(skip_turbofish(t, j + 1), '(') {
            return Vec::new();
        }
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
            let block = braces.last().copied().unwrap_or(0);
            let binds_guard = stmt_binds_guard(t, j);
            let scope_end = if binds_guard {
                t.close(block)
            } else {
                t.walk(block + 1, t.len(), |k| k >= j && t.punct(k, ';'))
            };
            let scope_end = scope_end as u32;
            return vec![MarkKind::Lock(LockFact { lock, op, binds_guard, scope_end })];
        }
        if PANIC_METHODS.contains(&name) {
            return vec![MarkKind::PanicMethod(name.to_string())];
        }
        let call = MarkKind::Call(CallTarget::Method(name.to_string()));
        if BLOCKING_METHODS.contains(&name) {
            let block = MarkKind::Block(format!("blocking `.{name}()`"), BlockKind::Blocking);
            return vec![block, call];
        }
        vec![call]
    }

    /// A path call `segs(..)`: a `std::thread` block/park operation (a bare
    /// `sleep(..)` counts when a `use` maps it back to `std::thread`), else
    /// a call edge.
    fn path_call(&self, segs: Vec<String>) -> MarkKind {
        let effective = match segs.as_slice() {
            [one] => self.out.imports.get(one).unwrap_or(&segs),
            _ => &segs,
        };
        match thread_block_op(effective) {
            Some((what, kind)) => MarkKind::Block(what, kind),
            None => MarkKind::Call(CallTarget::Path(segs)),
        }
    }
}

/// Is the identifier at `j` declared by the keyword before it?
fn declared(t: &[Tok], j: usize) -> bool {
    j > 0 && DECL_KEYWORDS.iter().any(|k| t[j - 1].is_ident(k))
}

/// Classify the path whose segments `segs` end before `end`, when its
/// last two segments are capitalised (`Enum::Variant`): inside a
/// `matches!` pattern a test; followed by `|` an or-alternative; by `=>`
/// (or a guard and then `=>`) an arm pattern; by a lone `=` a
/// `let`/`if let`/`while let` test; else a construction. Returns the mark,
/// if any, with its ordinal (an arm's is its body start), and the next
/// ordinal the classifier looks at — past the pattern's payload and guard
/// for an arm, which it keeps walking *inside*.
fn variant_site(
    t: &Tokens,
    segs: &[String],
    end: usize,
    pending: &mut Vec<VariantSite>,
    matches_pattern: &Range<usize>,
) -> (Option<(usize, MarkKind)>, usize) {
    let upper = |s: &str| s.chars().next().is_some_and(char::is_uppercase);
    let [.., enm, variant] = segs else { return (None, end) };
    if !upper(enm) || !upper(variant) {
        return (None, end);
    }
    let (enm, variant) = (enm.clone(), variant.clone());
    let site = VariantSite { line: t[end - 1].line, ord: end as u32 - 1, enm, variant };
    // Step over an optional payload group; what follows classifies.
    let after = if t.punct(end, '{') || t.punct(end, '(') { t.close(end) + 1 } else { end };
    let arm = t.punct(after, '=') && t.punct(after + 1, '>')
        || t.get(after).is_some_and(|x| x.is_ident("if"));
    let arrow = if arm {
        t.walk(after, t.len(), |k| t.punct(k, ';') || t.punct(k, '=') && t.punct(k + 1, '>'))
    } else {
        t.len()
    };
    let kind = if matches_pattern.contains(&(end - 1)) {
        MarkKind::Test(site)
    } else if t.punct(after, '|') {
        pending.push(site);
        return (None, after + 1);
    } else if arrow < t.len() && t.punct(arrow, '=') {
        pending.push(site);
        let body_lo = arrow + 2;
        let body_hi = if t.punct(body_lo, '{') {
            t.close(body_lo) + 1
        } else {
            t.walk(body_lo, t.len(), |k| t.punct(k, ','))
        };
        let arm = ArmRegion {
            line: pending[0].line,
            patterns: std::mem::take(pending),
            lo: body_lo as u32,
            hi: body_hi as u32,
        };
        return (Some((body_lo, MarkKind::Arm(arm))), body_lo);
    } else if t.punct(after, '=') && !t.punct(after + 1, '=') && !t.punct(after + 1, '>') {
        MarkKind::Test(site)
    } else {
        MarkKind::Send(site)
    };
    pending.clear();
    (Some((end - 1, kind)), end)
}

/// Resolve a `crate`/`self`/`super` head against `module` (the module a
/// path is written in) of the crate named `root`.
fn normalize_head(root: &str, module: Vec<String>, mut path: Vec<String>) -> Vec<String> {
    match path.first().map(String::as_str) {
        Some("crate") => {
            let mut out = vec![root.to_string()];
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

/// Is this path a `std::thread` blocking/park operation? Matches any path
/// whose tail is `thread::<op>` (`std::thread::sleep`, `thread::park`, ...).
fn thread_block_op(segs: &[String]) -> Option<(String, BlockKind)> {
    let [.., thread, op] = segs else { return None };
    let &(op, kind) = THREAD_OPS.iter().find(|(o, _)| o == op && thread == "thread")?;
    Some((format!("`std::thread::{op}`"), kind))
}

/// Does the statement containing token `j` bind its value? True when a
/// `let` (also `if let` / `while let` / `let .. else`) or `match` keyword
/// appears between the previous statement/block boundary and `j` — the
/// guard then lives past the statement (to the end of the enclosing block,
/// conservatively; `match` scrutinee temporaries live through the arms).
fn stmt_binds_guard(t: &[Tok], j: usize) -> bool {
    let mut stmt = t[..j].iter().rev().take_while(|x| !matches!(x.kind, TokKind::Punct(';' | '{' | '}')));
    stmt.any(|x| x.is_ident("let") || x.is_ident("match"))
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

    #[derive(Debug)]
    struct Call {
        ord: u32,
        target: CallTarget,
    }

    #[derive(Debug)]
    struct Fact {
        what: String,
    }

    #[derive(Debug)]
    struct Lock {
        ord: u32,
        lock: String,
        op: LockOp,
        binds_guard: bool,
        scope_end: u32,
    }

    #[derive(Debug)]
    struct Block {
        what: String,
        kind: BlockKind,
    }

    /// A fn's marks sorted into per-kind lists.
    #[derive(Debug, Default)]
    struct Facts {
        calls: Vec<Call>,
        panics: Vec<Fact>,
        taints: Vec<Fact>,
        locks: Vec<Lock>,
        blocks: Vec<Block>,
        mentions_determinant: bool,
        sends: Vec<VariantSite>,
        arms: Vec<ArmRegion>,
        tests: Vec<VariantSite>,
        progress_ords: Vec<u32>,
    }

    fn facts(item: &FnItem) -> Facts {
        let mut f = Facts::default();
        for m in &item.marks {
            f.panics.extend(m.panic().map(|what| Fact { what }));
            f.taints.extend(m.taint().map(|what| Fact { what }));
            match &m.kind {
                MarkKind::Call(target) => f.calls.push(Call { ord: m.ord, target: target.clone() }),
                MarkKind::Lock(l) => f.locks.push(Lock {
                    ord: m.ord,
                    lock: l.lock.clone(),
                    op: l.op,
                    binds_guard: l.binds_guard,
                    scope_end: l.scope_end,
                }),
                MarkKind::Block(what, kind) => f.blocks.push(Block { what: what.clone(), kind: *kind }),
                MarkKind::Determinant => f.mentions_determinant = true,
                MarkKind::Send(site) => f.sends.push(site.clone()),
                MarkKind::Test(site) => f.tests.push(site.clone()),
                MarkKind::Arm(arm) => f.arms.push(arm.clone()),
                MarkKind::Progress => f.progress_ords.push(m.ord),
                _ => {}
            }
        }
        f
    }

    fn facts_of(f: &ParsedFile, name: &str) -> Facts {
        facts(fn_named(f, name))
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
        let item = facts_of(&f, "f");
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
        let item = facts_of(&f, "f");
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
        let taints = facts_of(&f, "f").taints;
        let t: Vec<&str> = taints.iter().map(|x| x.what.as_str()).collect();
        assert!(t.contains(&"Instant::now"));
        assert!(t.contains(&"SystemTime"));
        assert!(t.contains(&"RandomState"));
    }

    #[test]
    fn vec_macro_and_attrs_are_not_indexing() {
        let f = parse("fn f() { let v = vec![1, 2]; #[allow(dead_code)] let w: [u8; 2] = [0; 2]; }\n");
        assert!(facts_of(&f, "f").panics.is_empty(), "{:?}", facts_of(&f, "f").panics);
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
        assert!(facts_of(&f, "replay").mentions_determinant);
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
        assert!(facts(d).calls.iter().any(|c| matches!(&c.target, CallTarget::Method(m) if m == "required")));
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

        let bound = facts_of(&f, "bound");
        let a = &bound.locks[0];
        assert_eq!((a.lock.as_str(), a.op, a.binds_guard), ("q", LockOp::Lock, true));
        // The helper() call after the acquisition falls inside the guard.
        let call = bound.calls.iter().find(|c| matches!(&c.target, CallTarget::Path(p) if p == &vec!["helper".to_string()])).unwrap();
        assert!(a.ord < call.ord && call.ord <= a.scope_end);

        let temp = facts_of(&f, "temp");
        let a = &temp.locks[0];
        assert!(!a.binds_guard);
        // Statement-scoped: `is_zero` is under the temporary, `helper` not.
        let is_zero = temp.calls.iter().find(|c| matches!(&c.target, CallTarget::Method(m) if m == "is_zero")).unwrap();
        let helper = temp.calls.iter().find(|c| matches!(&c.target, CallTarget::Path(_))).unwrap();
        assert!(a.ord < is_zero.ord && is_zero.ord <= a.scope_end);
        assert!(helper.ord > a.scope_end);

        let tried = facts_of(&f, "tried");
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
        let item = facts_of(&f, "f");
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
        let item = facts_of(&f, "handle");
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
        assert!(facts_of(&f, "f").sends.is_empty(), "{:?}", facts_of(&f, "f").sends);
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
        let item = facts_of(&f, "f");
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
        assert!(!facts_of(&f, "a").progress_ords.is_empty());
        assert!(!facts_of(&f, "b").progress_ords.is_empty());
        assert!(facts_of(&f, "c").progress_ords.is_empty());
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
        let item = facts_of(&f, "f");
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
        assert_eq!(fn_named(&f, "f").variant_sites().count(), 6);
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
        let item = facts_of(&f, "f");
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
        let item = facts_of(&f, "f");
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
