//! The one propagation engine every transitive rule runs on.
//!
//! Two layers:
//!
//! * [`bfs`] — breadth-first reachability with **first-wins provenance**
//!   over any state space. Call-graph states (`panic-path`, `replay-taint`,
//!   the lockgraph's held locks, the causal pass' handler arms) and plain
//!   label graphs (lock-order cycles, causal SCCs and named chains) all go
//!   through it, so "shortest exemplar, deterministic under BTree order" is
//!   implemented once.
//! * [`run`] — the shape shared by the allow-able path rules: *states
//!   reached from seeds over call edges must not hold a sink*. A
//!   [`PathRule`] says what a state is, which calls carry it along and
//!   which facts it turns into violations; `run` applies the allow
//!   semantics uniformly. An audited allow on any hop works: a covered seed
//!   site seeds nothing, a covered call site carries nothing, a covered
//!   sink is no finding. Stale-allow bookkeeping reruns the propagation
//!   *unfiltered*, so the allow that cut a path still counts as doing work,
//!   while one in code no violation could flow through ages into
//!   `unused-allow`.
//!
//! A state may be a **zero-hop** state — the seed function's own body
//! between two token ordinals (a guard's live range, a match arm's body)
//! — so "fact inside the window" and "fact in a callee reached from the
//! window" are the same question asked of two states, not two code paths.

use crate::allows::AllowBook;
use crate::callgraph::CallGraph;
use std::collections::{BTreeMap, VecDeque};

/// BFS result: every reached state mapped to the state it was first
/// reached from (`None` for a seed).
pub struct Reached<S>(pub BTreeMap<S, Option<S>>);

/// Multi-source BFS from `seeds` (in the given order) following `succ`.
/// Deterministic: first discovery wins, so identical inputs yield
/// identical exemplar paths.
pub fn bfs<S: Ord + Clone>(
    seeds: impl IntoIterator<Item = S>,
    mut succ: impl FnMut(&S) -> Vec<S>,
) -> Reached<S> {
    let mut parent: BTreeMap<S, Option<S>> = BTreeMap::new();
    let mut queue: VecDeque<S> = VecDeque::new();
    let mut visit = |s: S, from: Option<&S>, queue: &mut VecDeque<S>| {
        if !parent.contains_key(&s) {
            parent.insert(s.clone(), from.cloned());
            queue.push_back(s);
        }
    };
    for s in seeds {
        visit(s, None, &mut queue);
    }
    while let Some(u) = queue.pop_front() {
        for v in succ(&u) {
            visit(v, Some(&u), &mut queue);
        }
    }
    Reached(parent)
}

impl<S: Ord + Clone> Reached<S> {
    pub fn contains(&self, s: &S) -> bool {
        self.0.contains_key(s)
    }

    /// The exemplar path `seed → … → s`, seed first (just `[s]` when `s`
    /// is a seed or was never reached).
    pub fn path_to(&self, s: &S) -> Vec<S> {
        let mut hops = vec![s.clone()];
        while let Some(Some(p)) = self.0.get(&hops[hops.len() - 1]) {
            hops.push(p.clone());
        }
        hops.reverse();
        hops
    }
}

/// One allow-able transitive rule over the call graph.
pub trait PathRule {
    type State: Ord + Clone;
    /// What a violation carries back to the reporting code.
    type Sink;

    /// Rule id — also the allow key.
    fn id(&self) -> &'static str;
    fn seeds(&self) -> Vec<Self::State>;
    /// The function a state lives in (its file scopes the allow lookups).
    fn node(&self, s: &Self::State) -> usize;
    /// Line of the site that *creates* a seed, when an allow there should
    /// kill everything flowing from it (a lock acquisition). Entry-point
    /// seeds have none.
    fn seed_line(&self, _s: &Self::State) -> Option<u32> {
        None
    }
    /// Calls out of `s` that carry the state along: `(call-site line,
    /// state entered)`.
    fn calls(&self, s: &Self::State) -> Vec<(u32, Self::State)>;
    /// Facts that are violations in state `s`: `(line, sink)`.
    fn sinks(&self, s: &Self::State) -> Vec<(u32, Self::Sink)>;
}

/// What [`run`] found: the allow-filtered reachability (for blame chains)
/// and every surviving `(state, sink line, sink)` in state order.
pub struct Findings<R: PathRule> {
    pub reached: Reached<R::State>,
    pub hits: Vec<(R::State, u32, R::Sink)>,
}

/// Run `rule` over the graph and mark the allows that did work in `book`.
pub fn run<R: PathRule>(graph: &CallGraph, book: &mut AllowBook, rule: &R) -> Findings<R> {
    let id = rule.id();
    let file = |s: &R::State| graph.nodes[rule.node(s)].file;
    let follow =
        |calls: Vec<(u32, R::State)>| calls.into_iter().map(|(_, t)| t).collect::<Vec<_>>();

    let live = |s: &R::State, line: u32| !book.covers(file(s), line, id);
    let reached = bfs(
        rule.seeds().into_iter().filter(|s| rule.seed_line(s).is_none_or(|l| live(s, l))),
        |s| follow(rule.calls(s).into_iter().filter(|(line, _)| live(s, *line)).collect()),
    );
    let mut hits = Vec::new();
    for s in reached.0.keys() {
        let sinks = rule.sinks(s).into_iter().filter(|(line, _)| live(s, *line));
        hits.extend(sinks.map(|(line, sink)| (s.clone(), line, sink)));
    }

    // Unfiltered rerun. `productive` = states a sink is still reachable
    // from (reverse closure of the states that hold one); an allow is used
    // when it covers a sink, or a call or seed site leading into one.
    let all = bfs(rule.seeds(), |s| follow(rule.calls(s)));
    let facts: Vec<_> = all.0.keys().map(|s| (s, rule.calls(s), rule.sinks(s))).collect();
    let mut callers: BTreeMap<&R::State, Vec<R::State>> = BTreeMap::new();
    for (s, calls, _) in &facts {
        for (_, t) in calls {
            callers.entry(t).or_default().push((*s).clone());
        }
    }
    let productive = bfs(
        facts.iter().filter(|(.., sinks)| !sinks.is_empty()).map(|(s, ..)| (*s).clone()),
        |s| callers.get(s).cloned().unwrap_or_default(),
    );
    for (s, calls, sinks) in &facts {
        let mut used = |line: u32| book.mark_used(file(s), line, id);
        sinks.iter().for_each(|(line, _)| used(*line));
        for (line, t) in calls {
            if productive.contains(t) {
                used(*line);
            }
        }
        if let Some(line) = rule.seed_line(s).filter(|_| productive.contains(s)) {
            used(line);
        }
    }

    Findings { reached, hits }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_keeps_first_wins_shortest_provenance() {
        // a → b → d, a → c → d, d → e: `d` is first reached through `b`
        // (successor order), and every path is seed-first.
        let succ = |n: &&str| match *n {
            "a" => vec!["b", "c"],
            "b" | "c" => vec!["d"],
            "d" => vec!["e", "a"],
            _ => vec![],
        };
        let r = bfs(["a"], succ);
        assert_eq!(r.path_to(&"e"), vec!["a", "b", "d", "e"]);
        assert_eq!(r.path_to(&"a"), vec!["a"], "a seed is its own path, cycles or not");
        assert!(r.contains(&"c") && !r.contains(&"z"));
        assert_eq!(r.path_to(&"z"), vec!["z"]);
    }

    #[test]
    fn bfs_seed_order_breaks_ties() {
        let succ = |n: &u32| if *n < 10 { vec![100] } else { vec![] };
        assert_eq!(bfs([2, 1], succ).path_to(&100), vec![2, 100]);
        assert_eq!(bfs([1, 2], succ).path_to(&100), vec![1, 100]);
    }
}
