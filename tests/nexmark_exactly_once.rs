//! End-to-end exactly-once verification on the Nexmark suite.
//!
//! For every query the paper evaluates (Q1–Q9, Q11–Q14): run with a failure
//! injected into a mid-pipeline operator under Clonos exactly-once, and
//! verify (a) no duplicate idents, (b) no lost records, (c) local recovery
//! actually ran (no global rollback), and (d) for the deterministic
//! event-time queries, the effective output multiset equals a failure-free
//! run of the same seed.

use clonos_engine::Kind;
use clonos_integration::{assert_exactly_once, clonos_full, run_nexmark};
use clonos_nexmark::{QueryId, ALL_QUERIES};

/// Task id of the first non-source operator instance for a query built at
/// parallelism `p`: sources occupy the first `num_sources * p` ids (starting
/// at 1).
fn first_operator_task(q: QueryId, p: u64) -> u64 {
    let sources = match q {
        QueryId::Q3 | QueryId::Q4 | QueryId::Q6 | QueryId::Q8 | QueryId::Q9 => 2,
        _ => 1,
    };
    1 + sources * p
}

/// The queries whose output is a deterministic function of the input
/// (event-time only, no external calls / RNG / processing time).
fn is_deterministic(q: QueryId) -> bool {
    !matches!(q, QueryId::Q12 | QueryId::Q13 | QueryId::Q14)
}

#[test]
fn every_query_survives_an_operator_failure_exactly_once() {
    for q in ALL_QUERIES {
        let p = 2;
        let victim = first_operator_task(q, p as u64);
        let report =
            run_nexmark(q, clonos_full(), 7, p, 60_000, &[(7_000_000, victim)], 30);
        let trace = &report.causal_events;
        assert!(
            trace.iter().any(|e| e.kind == Kind::RecoveryDone),
            "{q}: recovery did not complete: {trace:?}"
        );
        assert!(!trace.iter().any(|e| e.kind.is_rollback()), "{q}: unexpected global rollback");
        assert_exactly_once(&report, &q.to_string());
        assert!(report.records_out > 0, "{q}: produced no output");
    }
}

#[test]
fn deterministic_queries_match_failure_free_golden_run() {
    for q in ALL_QUERIES.into_iter().filter(|&q| is_deterministic(q)) {
        let p = 2;
        let victim = first_operator_task(q, p as u64);
        let clean = run_nexmark(q, clonos_full(), 11, p, 40_000, &[], 30);
        let failed = run_nexmark(q, clonos_full(), 11, p, 40_000, &[(7_000_000, victim)], 30);
        assert_eq!(
            clean.output_multiset(),
            failed.output_multiset(),
            "{q}: failure changed the observable output"
        );
    }
}

#[test]
fn nondeterministic_queries_stay_unique_and_gap_free() {
    for q in [QueryId::Q12, QueryId::Q13, QueryId::Q14] {
        let p = 2;
        let victim = first_operator_task(q, p as u64);
        for seed in [3, 9] {
            let report =
                run_nexmark(q, clonos_full(), seed, p, 40_000, &[(7_000_000, victim)], 30);
            assert_exactly_once(&report, &format!("{q} seed {seed}"));
        }
    }
}

#[test]
fn sink_failures_on_windowed_query() {
    // Q11's sink tasks are the last two ids; kill one.
    let q = QueryId::Q11;
    let report = run_nexmark(q, clonos_full(), 5, 2, 40_000, &[(7_000_000, 5)], 30);
    assert_exactly_once(&report, "Q11 sink kill");
}

#[test]
fn source_failures_replay_from_durable_topic() {
    let q = QueryId::Q1;
    let report = run_nexmark(q, clonos_full(), 5, 2, 60_000, &[(7_000_000, 1)], 30);
    assert_exactly_once(&report, "Q1 source kill");
    let clean = run_nexmark(q, clonos_full(), 5, 2, 60_000, &[], 30);
    assert_eq!(clean.output_multiset(), report.output_multiset());
}

#[test]
fn aggregation_tree_second_stage_failure() {
    // Q7's global-max operator sits two stages deep (the aggregation tree
    // for skewed keys); kill it rather than the first stage. Layout at p=2:
    // bids 1-2, partial-max 3-4, global-max 5 (parallelism 1), sink 6.
    let report = run_nexmark(QueryId::Q7, clonos_full(), 23, 2, 60_000, &[(7_000_000, 5)], 30);
    assert!(report.causal_events.iter().any(|e| e.kind == Kind::RecoveryDone));
    assert_exactly_once(&report, "Q7 global-max kill");
    let clean = run_nexmark(QueryId::Q7, clonos_full(), 23, 2, 60_000, &[], 30);
    assert_eq!(clean.output_multiset(), report.output_multiset());
}

#[test]
fn back_to_back_checkpoint_and_failure() {
    // Kill right at the checkpoint boundary (trigger fires every 5 s): the
    // victim may die mid-alignment; recovery must still be exact.
    for kill_us in [4_990_000u64, 5_010_000, 5_150_000] {
        let report =
            run_nexmark(QueryId::Q4, clonos_full(), 29, 2, 60_000, &[(kill_us, 5)], 30);
        assert_exactly_once(&report, &format!("Q4 kill at {kill_us}"));
    }
}
