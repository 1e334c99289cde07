//! Runtime trace conformance against the statically extracted causal spec
//! (DESIGN.md §11): every chaos run's `caused_by`-linked protocol trace
//! must stay inside the "sent-in-response-to" graph `clonos-lint` derives
//! from handler-arm send sites, and every chain the run starts must finish
//! or be excusable. Plus two fault-injection regressions proving the
//! checker and the watchdog *blame the right hop* when a chain stalls.

use clonos_integration::conformance::{
    assert_conformant, check_trace, StaticSpec, Tolerances,
};
use clonos_integration::{
    at_least_once_orphan, clonos_dsd, clonos_full, run_oracle, run_oracle_plan, run_oracle_with,
};
use clonos_engine::metrics::HOPS;
use clonos_engine::{Escalation, FailurePlan, FtMode, Kind};
use clonos_sim::chaos::ChaosPlan;
use clonos_sim::VirtualTime;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn sweep_seeds() -> u64 {
    std::env::var("CHAOS_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(6)
}

/// The derived spec is non-trivial and carries the two chains the
/// recovery argument rests on (the barrier round-trip and failure-to-done).
#[test]
fn spec_has_the_core_protocol_chains() {
    let spec = StaticSpec::derive(&workspace_root());
    assert!(!spec.entries.is_empty(), "spec has no protocol entries");
    assert!(spec.edges.len() >= 10, "suspiciously few response edges: {:?}", spec.edges);
    let chain = |name: &str| {
        spec.chains
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("spec lacks the {name} chain: {:?}", spec.chains))
            .1
            .clone()
    };
    let barrier = chain("barrier");
    assert_eq!(barrier.first().map(String::as_str), Some("TriggerCheckpoint"));
    assert_eq!(barrier.last().map(String::as_str), Some("CheckpointComplete"));
    let recovery = chain("recovery");
    assert_eq!(recovery.first().map(String::as_str), Some("FailureDetected"));
    assert_eq!(recovery.last().map(String::as_str), Some("RecoveryDone"));
}

/// The trace's hop kinds are the protocol the static spec derives: each
/// hop's name is a variant the spec names, as an entry or an edge endpoint,
/// and no incident's name is one. A renamed `Msg` variant, or a hop the
/// trace gains, fails here instead of silently desynchronising the checker.
#[test]
fn hop_kinds_are_exactly_spec_variants() {
    let spec = StaticSpec::derive(&workspace_root());
    let named = |name: &str| {
        spec.entries.contains(name) || spec.edges.iter().any(|(f, t)| f == name || t == name)
    };
    // Every variant, sorted by hand: a variant added to `Kind` fails to
    // compile here until it is placed in a group.
    let is_hop = |k: Kind| match k {
        Kind::TriggerCheckpoint
        | Kind::CheckpointAck
        | Kind::CheckpointComplete
        | Kind::FailureDetected
        | Kind::InstallRecovery
        | Kind::LogRequest
        | Kind::LogResponse
        | Kind::BeginReplay
        | Kind::ReplayRequest
        | Kind::RecoveryDone
        | Kind::RestartAll => true,
        Kind::TaskKilled
        | Kind::NodeCrashed { .. }
        | Kind::StandbyLost { .. }
        | Kind::StandbyInterrupted
        | Kind::Slowdown { .. }
        | Kind::GatherRetry { .. }
        | Kind::ReplayRetry { .. }
        | Kind::FoldedIntoRollback
        | Kind::ReplacementDied
        | Kind::RollbackScheduled
        | Kind::AtLeastOnce
        | Kind::Escalated(_) => false,
    };
    let incidents = [
        Kind::TaskKilled,
        Kind::NodeCrashed { node: 0 },
        Kind::StandbyLost { node: 0 },
        Kind::StandbyInterrupted,
        Kind::Slowdown { factor: 2, for_us: 1 },
        Kind::GatherRetry { attempt: 1, stragglers: 1 },
        Kind::ReplayRetry { attempt: 1 },
        Kind::FoldedIntoRollback,
        Kind::ReplacementDied,
        Kind::RollbackScheduled,
        Kind::AtLeastOnce,
        Kind::Escalated(Escalation::Orphaned),
    ];
    for k in HOPS.iter().chain(&incidents) {
        assert_eq!(k.is_hop(), is_hop(*k), "{k:?} is in the wrong group");
        assert_eq!(named(k.name()), k.is_hop(), "{k:?}: spec variants {:?}", spec.entries);
    }
    assert_eq!(HOPS.len(), 11);
}

/// Bounded chaos sweep (`CHAOS_SEEDS` widens it; `scripts/check.sh` runs 25,
/// `scripts/chaos.sh` ≥ 100): every FT mode's causal trace conforms to the
/// static spec under randomized kills, node crashes, and a lossy recovery
/// control plane.
#[test]
fn chaos_sweep_traces_conform_in_all_ft_modes() {
    let spec = StaticSpec::derive(&workspace_root());
    let tol = Tolerances::oracle();
    let space = clonos_integration::oracle_space();
    // Every failure-handling mode (`FtMode::None` cannot take a kill by
    // design; its trace is covered by the failure-free test below).
    type Mode = (&'static str, fn() -> FtMode);
    let modes: &[Mode] = &[
        ("global-rollback", || FtMode::GlobalRollback),
        ("clonos-full", clonos_full),
        ("clonos-dsd1", || clonos_dsd(1)),
        ("at-least-once-orphan", at_least_once_orphan),
    ];
    for (mode, ft) in modes {
        for seed in 0..sweep_seeds() {
            let plan = ChaosPlan::generate(seed, &space);
            let report = run_oracle(ft(), seed, Some(&plan));
            assert_conformant(&report, &spec, &tol, &format!("{mode} seed {seed} ({plan:?})"));
        }
    }
}

/// A failure-free run's trace is conformant and actually exercises the
/// barrier chain (non-vacuous: triggers, acks, and completions all appear).
#[test]
fn failure_free_trace_is_conformant_and_nonempty() {
    let spec = StaticSpec::derive(&workspace_root());
    let report = run_oracle(clonos_full(), 7, None);
    for kind in ["TriggerCheckpoint", "CheckpointAck", "CheckpointComplete"] {
        assert!(
            report.causal_events.iter().any(|e| e.kind == kind),
            "trace never recorded {kind}"
        );
    }
    assert_conformant(&report, &spec, &Tolerances::oracle(), "failure-free");
}

/// Injected liveness fault #1: task 5's ack for checkpoint 2 is dropped
/// before the trace boundary. The conformance checker must diagnose the
/// stalled barrier and blame exactly the missing `CheckpointAck` hop of
/// exactly task 5 — not merely notice "something didn't finish".
#[test]
fn dropped_ack_is_blamed_on_the_missing_hop() {
    let spec = StaticSpec::derive(&workspace_root());
    let report = run_oracle_with(clonos_full(), 3, None, |cfg| {
        cfg.inject_ack_loss = Some((5, 2));
    });
    let violations = check_trace(&report, &spec, &Tolerances::oracle());
    assert!(!violations.is_empty(), "dropped ack went undiagnosed");
    let stalled: Vec<_> =
        violations.iter().filter(|v| v.what.contains("stalled barrier")).collect();
    assert!(!stalled.is_empty(), "no stalled-barrier violation: {violations:?}");
    let v = stalled
        .iter()
        .find(|v| v.what.contains("checkpoint 2"))
        .unwrap_or_else(|| panic!("checkpoint 2 not blamed: {stalled:?}"));
    assert!(
        v.blame.iter().any(|b| b.contains("missing CheckpointAck from task(s) [5]")),
        "wrong hop blamed: {:?}",
        v.blame
    );
    assert!(
        v.blame.iter().any(|b| b.contains("stalls at hop `CheckpointAck`")),
        "hop not named: {:?}",
        v.blame
    );
    // Every *other* checkpoint in the same run still conforms.
    assert!(
        violations.iter().all(|v| v.what.contains("checkpoint 2")),
        "healthy barriers misdiagnosed: {violations:?}"
    );
    assert_eq!(report.recovery_stats.ctrl_dropped, 1);
}

/// Injected liveness fault #2: a task dies and the recovery control plane
/// loses every message, so the determinant gather can never finish. The
/// recovery watchdog must escalate *and* name the stalled hop (the gather's
/// unanswered `LogRequest`) in its typed cause, rather than only reporting
/// an elapsed timeout.
#[test]
fn watchdog_escalation_names_the_stalled_gather_hop() {
    let report = run_oracle_plan(
        clonos_full(),
        11,
        FailurePlan::none().kill_at(VirtualTime(6_000_000), 3),
        |cfg| {
            cfg.ctrl_loss_prob = 1.0;
            // Keep retrying the gather forever: only the whole-recovery
            // watchdog may escalate, so the diagnosis is unambiguous.
            cfg.max_gather_retries = 100;
        },
    );
    let trace = &report.causal_events;
    let stalls: Vec<_> = trace
        .iter()
        .filter_map(|e| match e.kind {
            Kind::Escalated(Escalation::Watchdog { stalled_after }) => Some((stalled_after, e)),
            _ => None,
        })
        .collect();
    assert!(!stalls.is_empty(), "watchdog never escalated: {trace:?}");
    let gather = [Kind::FailureDetected, Kind::InstallRecovery, Kind::LogRequest, Kind::LogResponse];
    assert!(
        stalls.iter().any(|(h, _)| h.is_some_and(|h| gather.contains(h))),
        "stall not attributed to the gather phase: {stalls:?}"
    );
    assert!(
        !stalls.iter().any(|(h, _)| matches!(h, Some(Kind::BeginReplay | Kind::ReplayRequest))),
        "misattributed to replay: {stalls:?}"
    );
    // The escalation names the stalled hop and links to it.
    let (_, e) = stalls
        .iter()
        .find(|(h, _)| *h == Some(&Kind::LogRequest))
        .unwrap_or_else(|| panic!("escalation does not name the stalled LogRequest: {stalls:?}"));
    assert!(e.caused_by.is_some_and(|c| c.kind == Kind::LogRequest), "unlinked: {e}");
    assert!(report.recovery_stats.escalations >= 1);
}
