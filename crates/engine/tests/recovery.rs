//! Recovery-protocol validation: the paper's core claims, verified exactly.
//!
//! - Exactly-once local recovery for **nondeterministic** operators
//!   (processing-time reads, external calls, task RNG) — the causal log must
//!   reproduce the original execution, not merely avoid transport
//!   duplicates.
//! - Baseline global rollback achieves exactly-once with transactional
//!   sinks (but restarts the world).
//! - At-least-once (DSD = 0) duplicates effects, at-most-once (gap
//!   recovery) loses records — §5.4's spectrum, observable.
//! - Multiple and concurrent failures, DSD-bounded sharing, and the orphan
//!   fallback to global rollback (Figure 4).

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_engine::operator::OpCtx;
use clonos_engine::operators::ProcessOp;
use clonos_engine::*;
use clonos_sim::{VirtualDuration, VirtualTime};

fn rows(n: i64) -> Vec<Row> {
    (0..n).map(|i| Row::new(vec![Datum::Int(i % 20), Datum::Int(i)])).collect()
}

/// A deliberately nondeterministic operator: it augments every record with a
/// wall-clock timestamp, an external-service value, and a random number —
/// all through the causal services.
fn nondet_vertex() -> clonos_engine::operator::OperatorFactory {
    factory(|| {
        ProcessOp::new(|_input, rec: &Record, ctx: &mut OpCtx<'_>| {
            let ts = ctx.timestamp()? as i64;
            let ext = ctx.external_get(rec.key)?;
            let rnd = ctx.random(1_000) as i64;
            ctx.emit(
                rec.key,
                rec.event_time,
                Row::new(vec![
                    rec.row.get(0).clone(),
                    rec.row.get(1).clone(),
                    Datum::Int(ts),
                    Datum::Int(ext),
                    Datum::Int(rnd),
                ]),
            );
            Ok(())
        })
    })
}

fn nondet_job(parallelism: usize) -> JobGraph {
    let mut g = JobGraph::new("nondet");
    let src = g.add_source("src", 1, SourceSpec::new("in").rate(5_000).key_field(0));
    let op = g.add_operator("nondet", parallelism, nondet_vertex());
    let snk = g.add_sink("out", parallelism, SinkSpec { topic: "out".into() });
    g.connect(src, op, Partitioning::Hash);
    g.connect(op, snk, Partitioning::Hash);
    g
}

fn run_with(
    job: JobGraph,
    ft: FtMode,
    seed: u64,
    kills: &[(u64, u64)],
    n: i64,
    secs: u64,
) -> RunReport {
    let cfg = EngineConfig::default().with_seed(seed).with_ft(ft);
    let mut runner = JobRunner::new(job, cfg);
    runner.populate("in", 0, rows(n));
    let mut plan = FailurePlan::none();
    for &(at_us, task) in kills {
        plan = plan.kill_at(VirtualTime(at_us), task);
    }
    runner.with_failures(plan).run_for(VirtualDuration::from_secs(secs))
}

#[test]
fn nondeterministic_operator_exactly_once_under_failure() {
    // Kill the nondeterministic operator after the first checkpoint. With
    // causal logging, the replayed execution must reproduce the *same*
    // timestamps / external values / random numbers, so the effective sink
    // output must contain no duplicate idents and no gaps — and every ident
    // must appear with exactly one row value (a divergent replay would emit
    // the same ident with different nondeterministic fields only if dedup
    // failed to suppress it).
    let report = run_with(
        nondet_job(1),
        FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)),
        21,
        &[(7_000_000, 2)],
        40_000,
        30,
    );
    assert!(report.causal_events.iter().any(|e| e.kind == Kind::RecoveryDone));
    assert!(report.duplicate_idents().is_empty());
    assert!(report.ident_gaps().is_empty());
    assert_eq!(report.records_in, 40_000);
    assert_eq!(report.records_out, 40_000);
}

#[test]
fn nondet_fields_survive_replay_byte_identical() {
    // Run the same seed with and without a failure. The pre-failure prefix
    // of both runs is identical (same seed, same interleaving until the
    // kill), so records committed before the kill must match exactly; and
    // replayed records must agree with what the dead incarnation already
    // exposed downstream. We verify internal consistency: each ident appears
    // once, and for idents committed before the failure in the failure-free
    // run, the rows agree byte-for-byte.
    let job = || nondet_job(1);
    let ft = || FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full));
    let clean = run_with(job(), ft(), 33, &[], 30_000, 30);
    let failed = run_with(job(), ft(), 33, &[(7_000_000, 2)], 30_000, 30);
    use std::collections::BTreeMap;
    let by_ident = |r: &RunReport| -> BTreeMap<u64, bytes::Bytes> {
        r.sink_output.iter().map(|(_, m, rec)| (m.ident, rec.row.to_bytes())).collect()
    };
    let a = by_ident(&clean);
    let b = by_ident(&failed);
    assert_eq!(a.len(), b.len());
    // Records fully processed before the kill must be identical across runs;
    // count how many agree — records whose *processing* happened after the
    // failure point legitimately differ (different wall-clock interleaving),
    // but they must still be unique and gap-free (checked above). The strong
    // check: every ident the failure run emitted exists in the clean run.
    assert!(b.keys().all(|k| a.contains_key(k)));
    // And a large prefix (committed before 7 s at 5 krec/s ≈ 30k+) is
    // byte-identical.
    let same = a.iter().filter(|(k, v)| b.get(*k) == Some(*v)).count();
    assert!(same > 20_000, "only {same} identical rows — replay diverged");
}

#[test]
fn baseline_global_rollback_is_exactly_once_but_restarts_world() {
    let report = run_with(
        nondet_job(1),
        FtMode::GlobalRollback,
        44,
        &[(7_000_000, 2)],
        40_000,
        60,
    );
    assert!(report.causal_events.iter().any(|e| e.kind == Kind::RestartAll));
    assert!(report.duplicate_idents().is_empty());
    assert!(report.ident_gaps().is_empty());
    assert_eq!(report.records_out, 40_000, "transactional sink must commit everything");
}

#[test]
fn at_least_once_duplicates_but_never_loses() {
    let report = run_with(
        nondet_job(1),
        FtMode::Clonos(ClonosConfig::at_least_once()),
        55,
        &[(7_300_000, 2)],
        40_000,
        30,
    );
    // Replay without determinants: effects at least once. Duplicates are
    // expected (the epoch replays, downstream already saw some of it);
    // losses are not.
    assert!(report.ident_gaps().is_empty(), "at-least-once must not lose records");
    assert!(
        !report.duplicate_idents().is_empty(),
        "expected duplicates from divergent replay (got none — suspicious)"
    );
}

#[test]
fn at_most_once_loses_but_never_duplicates() {
    let report = run_with(
        nondet_job(1),
        FtMode::Clonos(ClonosConfig::at_most_once()),
        66,
        &[(7_300_000, 2)],
        40_000,
        30,
    );
    // Idents are reused after gap recovery (the emit counter rolls back with
    // the state while the lost records are never replayed), so measure by
    // the unique input value carried in row field 1 instead.
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<i64, u32> = BTreeMap::new();
    for (_, _, rec) in &report.sink_output {
        *counts.entry(rec.row.int(1)).or_insert(0) += 1;
    }
    assert!(
        counts.values().all(|&c| c == 1),
        "at-most-once must not apply an input twice"
    );
    assert!(
        counts.len() < 40_000,
        "expected lost records from gap recovery (got none — suspicious)"
    );
}

#[test]
fn staggered_multiple_failures_recover_exactly_once() {
    // Chain with depth 3; kill two connected operators 2 s apart.
    let mut g = JobGraph::new("chain");
    let src = g.add_source("src", 1, SourceSpec::new("in").rate(5_000).key_field(0));
    let a = g.add_operator("a", 1, nondet_vertex());
    let b = g.add_operator("b", 1, nondet_vertex());
    let snk = g.add_sink("out", 1, SinkSpec { topic: "out".into() });
    g.connect(src, a, Partitioning::Hash);
    g.connect(a, b, Partitioning::Hash);
    g.connect(b, snk, Partitioning::Hash);
    let report = run_with(
        g,
        FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)),
        77,
        &[(7_000_000, 2), (9_000_000, 3)],
        40_000,
        40,
    );
    assert!(report.duplicate_idents().is_empty());
    assert!(report.ident_gaps().is_empty());
    assert_eq!(report.records_out, 40_000);
}

#[test]
fn concurrent_connected_failures_with_full_dsd() {
    let mut g = JobGraph::new("chain");
    let src = g.add_source("src", 1, SourceSpec::new("in").rate(5_000).key_field(0));
    let a = g.add_operator("a", 1, nondet_vertex());
    let b = g.add_operator("b", 1, nondet_vertex());
    let snk = g.add_sink("out", 1, SinkSpec { topic: "out".into() });
    g.connect(src, a, Partitioning::Hash);
    g.connect(a, b, Partitioning::Hash);
    g.connect(b, snk, Partitioning::Hash);
    // Kill a and b at the same instant: with DSD=Full the sink holds both
    // logs, so recovery stays local.
    let report = run_with(
        g,
        FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)),
        88,
        &[(7_000_000, 2), (7_000_000, 3)],
        40_000,
        40,
    );
    assert!(
        !report.causal_events.iter().any(|e| e.kind.is_rollback()),
        "full DSD must never roll back: {:?}",
        report.causal_events
    );
    assert!(report.duplicate_idents().is_empty());
    assert!(report.ident_gaps().is_empty());
    assert_eq!(report.records_out, 40_000);
}

#[test]
fn consecutive_failures_beyond_dsd_fall_back_to_global_rollback() {
    let mut g = JobGraph::new("chain");
    let src = g.add_source("src", 1, SourceSpec::new("in").rate(5_000).key_field(0));
    let a = g.add_operator("a", 1, nondet_vertex());
    let b = g.add_operator("b", 1, nondet_vertex());
    let snk = g.add_sink("out", 1, SinkSpec { topic: "out".into() });
    g.connect(src, a, Partitioning::Hash);
    g.connect(a, b, Partitioning::Hash);
    g.connect(b, snk, Partitioning::Hash);
    // DSD=1 and both a and b die: a's only log holder (b) is dead while the
    // sink survives and depends — orphan — Figure 4 forces a global rollback.
    let report = run_with(
        g,
        FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Depth(1))),
        99,
        &[(7_000_000, 2), (7_000_000, 3)],
        40_000,
        60,
    );
    assert!(
        report.causal_events.iter().any(|e| e.kind == Kind::Escalated(Escalation::Orphaned)),
        "expected orphan fallback: {:?}",
        report.causal_events
    );
    // Even then: exactly-once via abort markers + restart.
    assert!(report.duplicate_idents().is_empty());
    assert!(report.ident_gaps().is_empty());
}

#[test]
fn source_failure_recovers_from_durable_log() {
    let report = run_with(
        nondet_job(1),
        FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)),
        111,
        &[(7_000_000, 1)], // kill the source itself
        40_000,
        30,
    );
    assert!(report.duplicate_idents().is_empty());
    assert!(report.ident_gaps().is_empty());
    assert_eq!(report.records_out, 40_000);
}

#[test]
fn sink_failure_deduplicates_via_output_log_metadata() {
    let report = run_with(
        nondet_job(1),
        FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)),
        122,
        &[(7_000_000, 3)], // kill the sink
        40_000,
        30,
    );
    assert!(report.duplicate_idents().is_empty(), "§5.5 sink dedup failed");
    assert!(report.ident_gaps().is_empty());
    assert_eq!(report.records_out, 40_000);
}

#[test]
fn repeated_failure_of_same_task() {
    let report = run_with(
        nondet_job(1),
        FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)),
        133,
        &[(7_000_000, 2), (14_000_000, 2)],
        40_000,
        40,
    );
    assert!(report.duplicate_idents().is_empty());
    assert!(report.ident_gaps().is_empty());
    assert_eq!(report.records_out, 40_000);
}

#[test]
fn parallel_operator_partial_failure_keeps_healthy_paths_flowing() {
    // Parallelism 2: kill one instance; the sibling keeps processing.
    let report = run_with(
        nondet_job(2),
        FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)),
        144,
        &[(7_000_000, 2)],
        40_000,
        30,
    );
    assert!(report.duplicate_idents().is_empty());
    assert!(report.ident_gaps().is_empty());
    assert_eq!(report.records_out, 40_000);
}

#[test]
fn exactly_once_across_many_seeds() {
    for seed in [1, 2, 3, 4, 5] {
        let report = run_with(
            nondet_job(2),
            FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)),
            seed,
            &[(6_500_000, 2), (12_000_000, 4)],
            30_000,
            40,
        );
        assert!(report.duplicate_idents().is_empty(), "seed {seed}: duplicates");
        assert!(report.ident_gaps().is_empty(), "seed {seed}: gaps");
        assert_eq!(report.records_out, 30_000, "seed {seed}: lost output");
    }
}
