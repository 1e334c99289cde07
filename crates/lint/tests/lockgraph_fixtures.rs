//! Fixture workspaces for the concurrency-soundness pass: lock-order
//! cycles (2-lock and cross-function 3-lock), blocking-send-under-lock,
//! the sanctioned try_lock+bounded-help pattern, and stale allows on lock
//! hops. Fixtures live under `crates/engine/src/runtime/` so the per-file
//! `threading` rule (which bans `Mutex` everywhere else) stays quiet and
//! the lockgraph findings are isolated. Each fixture is a real directory
//! tree under `CARGO_TARGET_TMPDIR` run through the full `analyze`
//! pipeline — the same path the CLI takes.

use clonos_lint::diagnostics::render_json;
use clonos_lint::{analyze, Diagnostic};
use std::fs;
use std::path::PathBuf;

struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("lg_{tag}"));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        Fixture { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, contents).unwrap();
    }

    fn diags(&self) -> Vec<Diagnostic> {
        analyze(&self.root).expect("analysis runs")
    }

    fn of_rule(&self, rule: &str) -> Vec<Diagnostic> {
        self.diags().into_iter().filter(|d| d.rule == rule).collect()
    }
}

// ---------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------

#[test]
fn two_lock_cycle_is_reported_once_with_both_directions() {
    let f = Fixture::new("cycle2");
    f.write(
        "crates/engine/src/runtime/cells.rs",
        "pub struct Cell { state: Mutex<u32>, queue: Mutex<u32> }\n\
         impl Cell {\n\
             pub fn deliver(&self) {\n\
                 let g = self.state.lock().unwrap();\n\
                 let q = self.queue.lock().unwrap();\n\
             }\n\
             pub fn drain(&self) {\n\
                 let q = self.queue.lock().unwrap();\n\
                 let g = self.state.lock().unwrap();\n\
             }\n\
         }\n",
    );
    let d = f.of_rule("lock-order");
    assert_eq!(d.len(), 1, "one cycle, one report: {d:#?}");
    let diag = &d[0];
    assert_eq!(diag.file, "crates/engine/src/runtime/cells.rs");
    assert!(
        diag.message.contains("`Cell::queue` → `Cell::state` → `Cell::queue`"),
        "{}",
        diag.message
    );
    let chain = diag.chain.join(" | ");
    assert!(chain.contains("acquires `Cell::state` while holding `Cell::queue`"), "{chain}");
    assert!(chain.contains("acquires `Cell::queue` while holding `Cell::state`"), "{chain}");
    // Both renderers carry the chain.
    let text = diag.to_string();
    assert!(text.contains("path: "), "{text}");
    let json = render_json(&d);
    assert!(json.contains("\"rule\":\"lock-order\""), "{json}");
    assert!(json.contains("while holding"), "{json}");
}

#[test]
fn cross_function_three_lock_cycle_is_traced_across_files() {
    let f = Fixture::new("cycle3");
    // a → b in one file, b → c and c → a in another; each second lock is
    // taken by a callee, so the cycle only exists transitively.
    f.write(
        "crates/engine/src/runtime/shards.rs",
        "pub struct Shard { alpha: Mutex<u32>, beta: Mutex<u32>, gamma: Mutex<u32> }\n\
         impl Shard {\n\
             pub fn route(&self) {\n\
                 let g = self.alpha.lock().unwrap();\n\
                 self.take_beta();\n\
             }\n\
             pub fn take_beta(&self) { let g = self.beta.lock().unwrap(); }\n\
             pub fn take_gamma(&self) { let g = self.gamma.lock().unwrap(); }\n\
             pub fn take_alpha(&self) { let g = self.alpha.lock().unwrap(); }\n\
         }\n",
    );
    f.write(
        "crates/engine/src/runtime/steal.rs",
        "use crate::runtime::shards::Shard;\n\
         pub fn rebalance(s: &Shard) {\n\
             let g = s.beta.lock().unwrap();\n\
             s.take_gamma();\n\
         }\n\
         pub fn migrate(s: &Shard) {\n\
             let g = s.gamma.lock().unwrap();\n\
             s.take_alpha();\n\
         }\n",
    );
    let d = f.of_rule("lock-order");
    assert_eq!(d.len(), 1, "{d:#?}");
    assert!(
        d[0].message
            .contains("`Shard::alpha` → `Shard::beta` → `Shard::gamma` → `Shard::alpha`"),
        "{}",
        d[0].message
    );
    // The exemplars cross both files and name the acquiring callees.
    let chain = d[0].chain.join(" | ");
    assert!(chain.contains("runtime/shards.rs"), "{chain}");
    assert!(chain.contains("runtime/steal.rs"), "{chain}");
    assert!(chain.contains("take_gamma"), "{chain}");
}

// ---------------------------------------------------------------------
// blocking-under-lock
// ---------------------------------------------------------------------

#[test]
fn blocking_send_under_cell_lock_is_blamed_end_to_end() {
    let f = Fixture::new("blocking_send");
    // The blocking send is a loop over `.lock()` inside the mailbox — the
    // deadlock class the help protocol exists to avoid. The pass sees it
    // through the lock fact, not a `send` token.
    f.write(
        "crates/engine/src/runtime/outbox.rs",
        "pub struct Outbox { queue: Mutex<Vec<u32>> }\n\
         impl Outbox {\n\
             pub fn push_blocking(&self, v: u32) {\n\
                 loop {\n\
                     let mut q = self.queue.lock().unwrap();\n\
                     if q.len() < 4 { q.push(v); return; }\n\
                 }\n\
             }\n\
         }\n",
    );
    f.write(
        "crates/engine/src/runtime/proc.rs",
        "use crate::runtime::outbox::Outbox;\n\
         pub struct Cell { state: Mutex<u32> }\n\
         pub fn process(c: &Cell, o: &Outbox) {\n\
             let g = c.state.lock().unwrap();\n\
             o.push_blocking(1);\n\
         }\n",
    );
    let d = f.of_rule("blocking-under-lock");
    assert_eq!(d.len(), 1, "{d:#?}");
    let diag = &d[0];
    assert_eq!(diag.file, "crates/engine/src/runtime/outbox.rs");
    assert_eq!(diag.line, 5);
    assert!(diag.message.contains("`Outbox::queue`"), "{}", diag.message);
    assert!(diag.message.contains("`Cell::state` is held"), "{}", diag.message);
    let chain = diag.chain.join(" | ");
    assert!(
        chain.contains("process acquires `Cell::state` (crates/engine/src/runtime/proc.rs:4)"),
        "{chain}"
    );
    assert!(chain.contains("push_blocking"), "{chain}");
}

#[test]
fn a_temporary_guard_spans_an_array_repeat_expression() {
    let f = Fixture::new("array_repeat");
    // The temporary guard lives to the statement's own `;`, not to the `;`
    // of the `[0u8; 4]` repeat inside it: the receive after it is under
    // the lock.
    f.write(
        "crates/engine/src/runtime/repeat.rs",
        "pub struct Cell { state: Mutex<Vec<u8>>, rx: Receiver<u8> }\n\
         impl Cell {\n\
             pub fn fill(&self) {\n\
                 self.state.lock().unwrap().insert([0u8; 4].len(), [self.rx.recv().unwrap(); 4]);\n\
             }\n\
         }\n",
    );
    let d = f.of_rule("blocking-under-lock");
    assert_eq!(d.len(), 1, "{d:#?}");
    assert_eq!(d[0].line, 4);
    assert!(d[0].message.contains("blocking `.recv()`"), "{}", d[0].message);
    assert!(d[0].message.contains("`Cell::state`"), "{}", d[0].message);
}

#[test]
fn try_lock_with_bounded_help_is_clean() {
    let f = Fixture::new("help_ok");
    // The sanctioned escape hatch: the only nested acquisition under a held
    // guard is a try_lock (help recursion), which fails fast instead of
    // waiting — no blocking sink, no order edge, no findings.
    f.write(
        "crates/engine/src/runtime/help.rs",
        "pub struct Cell { state: Mutex<u32> }\n\
         pub fn process(cells: &[Cell], idx: usize, depth: usize) {\n\
             let Ok(mut g) = cells[idx].state.try_lock() else { return };\n\
             flush(cells, idx, depth);\n\
         }\n\
         fn flush(cells: &[Cell], idx: usize, depth: usize) {\n\
             if depth < 64 { process(cells, idx, depth + 1); }\n\
         }\n",
    );
    let d = f.diags();
    assert!(
        !d.iter().any(|x| {
            x.rule == "lock-order"
                || x.rule == "blocking-under-lock"
                || x.rule == "guard-across-park"
        }),
        "{d:#?}"
    );
}

#[test]
fn guard_across_park_flags_yield_under_guard() {
    let f = Fixture::new("park");
    f.write(
        "crates/engine/src/runtime/spin.rs",
        "pub struct Cell { state: Mutex<u32> }\n\
         pub fn wait_turn(c: &Cell) {\n\
             let g = c.state.lock().unwrap();\n\
             std::thread::yield_now();\n\
         }\n",
    );
    let d = f.of_rule("guard-across-park");
    assert_eq!(d.len(), 1, "{d:#?}");
    assert_eq!(d[0].line, 4);
    assert!(d[0].message.contains("`std::thread::yield_now`"), "{}", d[0].message);
    assert!(d[0].message.contains("`Cell::state`"), "{}", d[0].message);
}

// ---------------------------------------------------------------------
// allow semantics on lock hops
// ---------------------------------------------------------------------

#[test]
fn allow_on_lock_hop_suppresses_whole_path_and_is_used() {
    let f = Fixture::new("allow_hop");
    f.write(
        "crates/engine/src/runtime/hop.rs",
        "pub struct Cell { state: Mutex<u32>, queue: Mutex<u32> }\n\
         impl Cell {\n\
             pub fn tick(&self) {\n\
                 let g = self.state.lock().unwrap();\n\
                 // clonos-lint: allow(blocking-under-lock, reason = \"audited: queue is the leaf lock\")\n\
                 self.drain();\n\
             }\n\
             fn drain(&self) { let q = self.queue.lock().unwrap(); }\n\
         }\n",
    );
    let d = f.diags();
    assert!(!d.iter().any(|x| x.rule == "blocking-under-lock"), "{d:#?}");
    assert!(!d.iter().any(|x| x.rule == "unused-allow"), "{d:#?}");
}

#[test]
fn stale_allow_on_lock_hop_is_flagged() {
    let f = Fixture::new("stale_hop");
    // The annotated call edge runs under a guard but leads nowhere
    // blocking — the allow suppresses nothing and must age out.
    f.write(
        "crates/engine/src/runtime/stale.rs",
        "pub struct Cell { state: Mutex<u32> }\n\
         impl Cell {\n\
             pub fn tick(&self) {\n\
                 let g = self.state.lock().unwrap();\n\
                 // clonos-lint: allow(blocking-under-lock, reason = \"nothing blocking below\")\n\
                 self.noop();\n\
             }\n\
             fn noop(&self) {}\n\
         }\n",
    );
    let d = f.diags();
    assert!(
        d.iter().any(|x| {
            x.rule == "unused-allow" && x.file == "crates/engine/src/runtime/stale.rs"
        }),
        "{d:#?}"
    );
}

/// One sleep sits directly in the acquiring function's guard window, the
/// other is reached through a callee: the zero-hop frame and the callee
/// state are the same rule asked of two states, so each site gets exactly
/// one finding — and an allow on *any* hop of either is load-bearing
/// (reported used), never stale. `hop` is spliced in front of the line
/// named by `at`.
fn window_and_callee(tag: &str, at: &str, hop: &str) -> Vec<Diagnostic> {
    let f = Fixture::new(tag);
    let line = |name: &str, code: &str| {
        format!("{}{code}\n", if name == at { format!("{hop}\n") } else { String::new() })
    };
    f.write(
        "crates/engine/src/runtime/both.rs",
        &[
            line("-", "pub struct Cell { state: Mutex<u32> }"),
            line("-", "impl Cell {"),
            line("-", "pub fn tick(&self) {"),
            line("acquire", "let g = self.state.lock().unwrap();"),
            line("window-sink", "std::thread::sleep(d);"),
            line("call", "self.nap();"),
            line("-", "}"),
            line("callee-sink", "fn nap(&self) { std::thread::sleep(d); }"),
            line("-", "}"),
        ]
        .concat(),
    );
    f.diags()
        .into_iter()
        .filter(|d| d.rule == "blocking-under-lock" || d.rule == "unused-allow")
        .collect()
}

#[test]
fn sink_in_the_guard_window_and_sink_through_a_callee_each_report_once() {
    let d = window_and_callee("both_bare", "nowhere", "");
    let sites: Vec<(u32, usize)> = d.iter().map(|d| (d.line, d.chain.len())).collect();
    // Line 5: zero hops (the chain is the acquisition alone). Line 8: one.
    assert_eq!(sites, vec![(5, 1), (8, 2)], "{d:#?}");
    assert!(d[0].message.contains("acquired at crates/engine/src/runtime/both.rs:4"));
    assert!(d[1].message.contains("acquired in `engine::runtime::both::Cell::tick`"));
    assert!(d.iter().all(|d| d.chain[0].contains("tick acquires `Cell::state`")), "{d:#?}");
}

#[test]
fn allow_on_either_kind_of_hop_is_used_and_cuts_only_its_own_path() {
    let allow = "// clonos-lint: allow(blocking-under-lock, reason = \"audited hop\")";
    // (annotated hop, lines still reported — shifted by the inserted comment)
    for (at, survivors) in [
        ("acquire", vec![]),
        ("window-sink", vec![9]),
        ("call", vec![5]),
        ("callee-sink", vec![5]),
    ] {
        let d = window_and_callee(&format!("both_{at}"), at, allow);
        assert!(d.iter().all(|d| d.rule != "unused-allow"), "{at}: allow reported stale: {d:#?}");
        let lines: Vec<u32> = d.iter().map(|d| d.line).collect();
        assert_eq!(lines, survivors, "{at}: {d:#?}");
    }
}

// ---------------------------------------------------------------------
// mini-workspace integration: all three rules at once, JSON end to end
// ---------------------------------------------------------------------

#[test]
fn mini_runtime_workspace_reports_all_three_rules() {
    let f = Fixture::new("mini");
    f.write(
        "crates/engine/src/runtime/mini.rs",
        "pub struct Cell { state: Mutex<u32>, queue: Mutex<u32> }\n\
         impl Cell {\n\
             pub fn forward(&self) {\n\
                 let g = self.state.lock().unwrap();\n\
                 let q = self.queue.lock().unwrap();\n\
                 std::thread::yield_now();\n\
             }\n\
             pub fn reverse(&self) {\n\
                 let q = self.queue.lock().unwrap();\n\
                 let g = self.state.lock().unwrap();\n\
             }\n\
         }\n",
    );
    let d = f.diags();
    let rules: Vec<&str> = d.iter().map(|x| x.rule.as_str()).collect();
    assert!(rules.contains(&"lock-order"), "{d:#?}");
    assert!(rules.contains(&"blocking-under-lock"), "{d:#?}");
    assert!(rules.contains(&"guard-across-park"), "{d:#?}");
    // Everything is an error (gates the exit code) and machine-readable.
    assert!(d.iter().all(|x| x.is_error()), "{d:#?}");
    let json = render_json(&d);
    for rule in ["lock-order", "blocking-under-lock", "guard-across-park"] {
        assert!(json.contains(&format!("\"rule\":\"{rule}\"")), "{json}");
    }
}
