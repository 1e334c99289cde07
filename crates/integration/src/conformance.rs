//! Runtime trace conformance against the statically derived causal spec
//! (DESIGN.md §11).
//!
//! [`StaticSpec::derive`] runs `clonos-lint` in-process for the spec
//! `--emit-spec` publishes as `results/causal_spec.json`: the protocol's
//! entry variants and its "sent-in-response-to" edges, extracted from
//! handler-arm send sites. Every chaos run records a trace ([`Event`]s in
//! [`RunReport::causal_events`]) on the engine side. This module replays
//! the trace's protocol hops against the spec — incidents such as kills and
//! retries are never violations — and reports, with a blame chain, every
//! hop the static protocol does not sanction:
//!
//! * **illegal edge** — an event's `caused_by` names a cause the spec has
//!   no edge (or even path) for;
//! * **illegal entry** — an uncaused event whose kind is neither a spec
//!   entry nor reachable from an uninstrumented cause (timer ticks such as
//!   `CheckpointTick` are sent, not traced — their consequences are);
//! * **dangling cause** — a `caused_by` reference that resolves to no
//!   earlier event in the trace;
//! * **stalled barrier** — a `TriggerCheckpoint` with no matching
//!   `CheckpointComplete`, no excusing failure, and enough remaining
//!   horizon — blamed on the tasks whose `CheckpointAck` never appeared;
//! * **stalled recovery** — a `BeginReplay` with no matching
//!   `RecoveryDone`, not superseded by a newer incarnation, with enough
//!   remaining horizon — blamed on the last hop the chain did reach.

use clonos_engine::metrics::{cause_chain, resolve, Event, Kind, HOPS};
use clonos_engine::RunReport;
use clonos_sim::{VirtualDuration, VirtualTime};
use std::collections::BTreeSet;
use std::path::Path;

/// The static causal spec, as consumed by the conformance checker: entry
/// variants, response edges, and the named chains (for reporting).
#[derive(Clone, Debug, Default)]
pub struct StaticSpec {
    pub entries: BTreeSet<String>,
    pub edges: BTreeSet<(String, String)>,
    pub chains: Vec<(String, Vec<String>)>,
}

impl StaticSpec {
    /// Derive the spec by running the static analysis over the workspace —
    /// the same extraction `--emit-spec` publishes, never stale.
    pub fn derive(root: &Path) -> StaticSpec {
        let fa = clonos_lint::analyze_full(root).expect("static analysis over workspace");
        let mut spec = StaticSpec {
            chains: fa.spec.chains.clone(),
            ..StaticSpec::default()
        };
        for e in &fa.spec.entries {
            spec.entries.insert(e.variant.clone());
        }
        for e in &fa.spec.edges {
            spec.edges.insert((e.from.clone(), e.to.clone()));
        }
        spec
    }

    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        self.edges.contains(&(from.to_string(), to.to_string()))
    }

    /// Is `to` reachable from `from` over response edges?
    pub fn has_path(&self, from: &str, to: &str) -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut frontier = vec![from];
        while let Some(v) = frontier.pop() {
            if v == to {
                return true;
            }
            for (f, t) in &self.edges {
                if f == v && seen.insert(t) {
                    frontier.push(t);
                }
            }
        }
        false
    }

    /// Can an *uncaused* runtime hop of `kind` be explained statically?
    /// Yes if it is a protocol entry, or if some static cause of it is not
    /// a traced hop (the cause fires without leaving a trace): e.g.
    /// `TriggerCheckpoint` is caused by the untraced `CheckpointTick` timer,
    /// so it may appear uncaused at runtime.
    pub fn explains_entry(&self, kind: &str) -> bool {
        self.entries.contains(kind)
            || self.edges.iter().any(|(f, t)| t == kind && !HOPS.iter().any(|h| *h == f.as_str()))
    }
}

/// One conformance violation, with the causal blame chain that led to it.
#[derive(Clone, Debug)]
pub struct Violation {
    pub at: VirtualTime,
    pub what: String,
    pub blame: Vec<String>,
}

impl Violation {
    pub fn render(&self) -> String {
        let mut s = format!("[{:?}] {}", self.at, self.what);
        for hop in &self.blame {
            s.push_str("\n    ");
            s.push_str(hop);
        }
        s
    }
}

/// Tolerances for the completeness checks: a chain started close enough to
/// the end of the run is legitimately still in flight.
#[derive(Clone, Copy, Debug)]
pub struct Tolerances {
    /// Horizon the run covered.
    pub horizon: VirtualDuration,
    /// A barrier triggered within this window of the horizon may be
    /// incomplete without blame.
    pub barrier_grace: VirtualDuration,
    /// A replay begun within this window of the horizon may be unfinished
    /// without blame.
    pub recovery_grace: VirtualDuration,
}

impl Tolerances {
    /// Matches the chaos-oracle scale (30 s horizon, 5 s checkpoints,
    /// 8 s restart delay).
    pub fn oracle() -> Tolerances {
        Tolerances {
            horizon: VirtualDuration::from_secs(30),
            barrier_grace: VirtualDuration::from_secs(8),
            recovery_grace: VirtualDuration::from_secs(10),
        }
    }
}

/// Render the cause chain of `e` (the one walk `clonos_engine::metrics`
/// defines), naming a link that resolves to nothing.
fn blame_chain(trace: &[Event], e: &Event) -> Vec<String> {
    let mut out = vec![format!("at {:?}: {}", e.at, e.id())];
    let mut last = e;
    for prev in cause_chain(trace, e).skip(1) {
        out.push(format!("caused by {} at {:?}", prev.id(), prev.at));
        last = prev;
    }
    if let Some(r) = last.caused_by.filter(|&r| resolve(trace, r).is_none()) {
        out.push(format!("caused by {r} — absent from the trace"));
    }
    out
}

/// Check one run's causal trace against the static spec. Returns every
/// violation found (empty = conformant).
pub fn check_trace(report: &RunReport, spec: &StaticSpec, tol: &Tolerances) -> Vec<Violation> {
    let trace = &report.causal_events;
    let mut out = Vec::new();
    let end = VirtualTime(tol.horizon.as_micros());
    let hops = || trace.iter().filter(|e| e.kind.is_hop());

    // ---- per-hop edge/entry legality ----
    for e in hops() {
        let kind = e.kind.name();
        match &e.caused_by {
            Some(r) => {
                let cause = r.kind.name();
                if !spec.has_edge(cause, kind) && !spec.has_path(cause, kind) {
                    out.push(Violation {
                        at: e.at,
                        what: format!(
                            "illegal causal edge: runtime claims `{kind}` was caused by `{cause}`, \
                             but the static spec has no such response edge or path"
                        ),
                        blame: blame_chain(trace, e),
                    });
                }
                if resolve(trace, *r).is_none() {
                    out.push(Violation {
                        at: e.at,
                        what: format!(
                            "dangling cause: `{kind}` references `{r}`, \
                             which never appears in the trace"
                        ),
                        blame: blame_chain(trace, e),
                    });
                }
            }
            None => {
                if !spec.explains_entry(kind) {
                    out.push(Violation {
                        at: e.at,
                        what: format!(
                            "illegal entry: uncaused `{kind}` is neither a spec entry nor \
                             caused by any untraced kind"
                        ),
                        blame: blame_chain(trace, e),
                    });
                }
            }
        }
    }

    // ---- barrier completeness ----
    // Expected acker set = every task ever seen acking a checkpoint; a
    // barrier is stalled when it is missing acks, nothing excuses it (no
    // failure at/after the trigger, not near the horizon), and it never
    // completed.
    let all_ackers: BTreeSet<u64> =
        trace.iter().filter(|e| e.kind == Kind::CheckpointAck).map(|e| e.task).collect();
    let completed: BTreeSet<u64> =
        trace.iter().filter(|e| e.kind == Kind::CheckpointComplete).map(|e| e.epoch).collect();
    // A barrier is excused when failure/recovery activity overlaps it: any
    // recovery-chain hop at or after the trigger means some participant was
    // (or went) down while the barrier was in flight. Incidents excuse
    // nothing: a slowdown overlapping a barrier must not hide its stall.
    let last_recovery_activity: Option<VirtualTime> = hops()
        .filter(|e| {
            !matches!(e.kind, Kind::TriggerCheckpoint | Kind::CheckpointAck | Kind::CheckpointComplete)
        })
        .map(|e| e.at)
        .max();
    for trig in trace.iter().filter(|e| e.kind == Kind::TriggerCheckpoint) {
        if completed.contains(&trig.epoch) {
            continue;
        }
        if last_recovery_activity.is_some_and(|d| d >= trig.at) {
            continue; // a failure interrupted (or recovery overlapped) this barrier
        }
        if trig.at + tol.barrier_grace > end {
            continue; // still legitimately in flight at the horizon
        }
        let acked: BTreeSet<u64> = trace
            .iter()
            .filter(|e| e.kind == Kind::CheckpointAck && e.epoch == trig.epoch)
            .map(|e| e.task)
            .collect();
        let missing: Vec<u64> = all_ackers.difference(&acked).copied().collect();
        let mut blame = blame_chain(trace, trig);
        blame.push(format!(
            "acked by {}/{} tasks; missing CheckpointAck from task(s) {:?}",
            acked.len(),
            all_ackers.len(),
            missing
        ));
        blame.push("barrier chain stalls at hop `CheckpointAck`".to_string());
        out.push(Violation {
            at: trig.at,
            what: format!(
                "stalled barrier: checkpoint {} triggered at {:?} never completed",
                trig.epoch, trig.at
            ),
            blame,
        });
    }

    // ---- recovery completeness ----
    // Every replay begun must stabilize (`RecoveryDone` for the same task
    // and incarnation) unless a newer incarnation superseded it or the run
    // ended first. Blame names the last hop the chain did produce.
    for begin in trace.iter().filter(|e| e.kind == Kind::BeginReplay) {
        let (gen, task) = (begin.epoch, begin.task);
        if trace.iter().any(|e| e.kind == Kind::RecoveryDone && e.epoch == gen && e.task == task) {
            continue;
        }
        let newer = |e: &Event| match e.kind {
            Kind::BeginReplay | Kind::InstallRecovery => e.task == task && e.epoch > gen,
            Kind::RestartAll => e.epoch > gen,
            _ => false,
        };
        if trace.iter().any(newer) {
            continue; // superseded by a newer incarnation or global rollback
        }
        if begin.at + tol.recovery_grace > end {
            continue; // replay still running at the horizon
        }
        let last = hops().rfind(|e| e.epoch == begin.epoch && e.task == begin.task).unwrap_or(begin);
        let mut blame = blame_chain(trace, last);
        blame.push(format!("recovery chain stalls after {}", last.id()));
        out.push(Violation {
            at: begin.at,
            what: format!(
                "stalled recovery: task {} incarnation {} began replay at {:?} but never \
                 reported RecoveryDone",
                begin.task, begin.epoch, begin.at
            ),
            blame,
        });
    }

    out
}

/// Assert conformance, panicking with every rendered violation on failure.
pub fn assert_conformant(report: &RunReport, spec: &StaticSpec, tol: &Tolerances, label: &str) {
    let violations = check_trace(report, spec, tol);
    assert!(
        violations.is_empty(),
        "{label}: {} causal-conformance violation(s):\n{}",
        violations.len(),
        violations.iter().map(Violation::render).collect::<Vec<_>>().join("\n")
    );
}
