//! Seeded chaos sweep: randomized multi-fault scenarios (task kills, node
//! crashes, interrupted standby transfers, lossy/laggy recovery control
//! plane, jittered detection) replayed against the exactly-once oracle.
//!
//! Every scenario is a pure function of its seed, so any divergence this
//! sweep finds reproduces with `CHAOS_SEEDS=<n>` (or by pinning the seed in
//! a one-off test). The in-tree default keeps debug-mode test time modest;
//! `scripts/chaos.sh` drives the full ≥100-seed sweep in release mode.

use clonos_engine::config::CheckpointMode;
use clonos_engine::{FailurePlan, FtMode, Kind, RunReport};
use clonos_integration::{
    assert_exactly_once, assert_matches_reference, at_least_once_orphan, clonos_full,
    oracle_reference, oracle_space, run_oracle, run_oracle_plan, run_oracle_with, OracleReference,
};
use clonos_sim::chaos::ChaosPlan;
use clonos_sim::{SimRng, VirtualDuration, VirtualTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn sweep_seeds() -> u64 {
    std::env::var("CHAOS_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(6)
}

/// How often a sweep's recoveries left the local path: `Escalated` trace
/// entries per cause, and `AtLeastOnce` fallbacks, over all its seeds.
/// Printed (visible under `--nocapture`, as `scripts/chaos.sh` runs it).
#[derive(Default)]
struct Census(BTreeMap<String, u64>);

impl Census {
    fn add(&mut self, report: &RunReport) {
        for e in &report.causal_events {
            let cause = match e.kind {
                Kind::Escalated(why) => format!("{why:?}"),
                Kind::AtLeastOnce => "AtLeastOnce".to_string(),
                _ => continue,
            };
            *self.0.entry(cause).or_default() += 1;
        }
    }

    fn print(&self, mode: &str) {
        println!("escalation census: {mode}, {} seeds: {:?}", sweep_seeds(), self.0);
    }
}

/// Exactly-once modes: no duplicate idents, no lost records, and the sink
/// content is a byte-identical per-key prefix of the failure-free reference.
fn sweep_exactly_once(ft: impl Fn() -> FtMode, mode: &str, reference: &OracleReference) {
    let space = oracle_space();
    let mut census = Census::default();
    for seed in 0..sweep_seeds() {
        let plan = ChaosPlan::generate(seed, &space);
        let report = run_oracle(ft(), seed, Some(&plan));
        let label = format!("{mode} seed {seed} ({plan:?})");
        assert!(report.records_out > 0, "{label}: no committed output");
        assert_exactly_once(&report, &label);
        assert_matches_reference(&report, reference, &label);
        census.add(&report);
    }
    census.print(mode);
}

#[test]
fn chaos_sweep_clonos_exactly_once() {
    let reference = oracle_reference();
    sweep_exactly_once(clonos_full, "clonos", &reference);
}

#[test]
fn chaos_sweep_global_rollback_exactly_once() {
    let reference = oracle_reference();
    sweep_exactly_once(|| FtMode::GlobalRollback, "global-rollback", &reference);
}

#[test]
fn chaos_sweep_incremental_long_chains_exactly_once() {
    // Incremental checkpoints with the rebase interval pushed past the run
    // horizon: every checkpoint after a task's first is a delta, so restores
    // and standby activations always reconstruct from the longest possible
    // chain. Chaos (kills, node crashes, interrupted transfers) must still
    // leave output byte-identical to the failure-free reference.
    let reference = oracle_reference();
    let space = oracle_space();
    for seed in 0..sweep_seeds() {
        let plan = ChaosPlan::generate(seed, &space);
        let report = run_oracle_with(clonos_full(), seed, Some(&plan), |cfg| {
            cfg.checkpoint_rebase_interval = u32::MAX;
        });
        let label = format!("incremental-long-chain seed {seed} ({plan:?})");
        assert!(report.records_out > 0, "{label}: no committed output");
        assert!(
            report.checkpoint_stats.delta_snapshots > 0,
            "{label}: sweep never exercised the delta path"
        );
        assert_eq!(
            report.checkpoint_stats.rebases, 0,
            "{label}: rebase fired despite an unreachable interval"
        );
        assert_exactly_once(&report, &label);
        assert_matches_reference(&report, &reference, &label);
    }
}

/// Tiered-state-backend sweep: the same chaos scenarios with every task's
/// value state behind the log-structured backend (DESIGN.md §10) under a
/// deliberately tiny resident budget, so eviction, segment faults, per-
/// barrier L0 seals and segment-based checkpoint reconstruction are all on
/// the recovery path. Output must still be a byte-identical per-key prefix
/// of the (untiered) failure-free reference — the backend is an engine-
/// internal representation change, never a semantic one.
#[test]
fn chaos_sweep_tiered_backend_exactly_once() {
    let reference = oracle_reference();
    let space = oracle_space();
    let mut faults_total = 0u64;
    for seed in 0..sweep_seeds() {
        let plan = ChaosPlan::generate(seed, &space);
        let report = run_oracle_with(clonos_full(), seed, Some(&plan), |cfg| {
            // The floor budget: each oracle stage holds ~24 keys × ~46 bytes
            // (~1.1 KiB) of value state, so 1 KiB keeps every task under
            // genuine eviction pressure.
            cfg.state_memory_budget = 1024;
        });
        let label = format!("tiered seed {seed} ({plan:?})");
        assert!(report.records_out > 0, "{label}: no committed output");
        let b = &report.state_backend_stats;
        assert!(b.tiered_tasks > 0, "{label}: backend never enabled");
        assert!(b.flushes > 0, "{label}: no memtable ever sealed");
        assert!(b.evictions > 0, "{label}: budget never forced an eviction");
        assert!(
            b.tier_io_us > 0,
            "{label}: tier I/O was never charged to the service queue"
        );
        faults_total += b.faults;
        assert_exactly_once(&report, &label);
        assert_matches_reference(&report, &reference, &label);
    }
    assert!(
        faults_total > 0,
        "tiered sweep never faulted a row back from a segment — the budget \
         is not exercising the read path"
    );
}

/// Unaligned-checkpoint sweep: same seeds, same chaos scenarios (which now
/// include sustained slow-task injections paired with barrier-aligned
/// kills), but with `CheckpointMode::Unaligned` — barriers jump queues and
/// overtaken records ride inside checkpoint images. Output must still be a
/// byte-identical per-key prefix of the failure-free reference.
fn sweep_unaligned(ft: impl Fn() -> FtMode, mode: &str, reference: &OracleReference) {
    let space = oracle_space();
    let mut overtaken_total = 0u64;
    for seed in 0..sweep_seeds() {
        let plan = ChaosPlan::generate(seed, &space);
        let report = run_oracle_with(ft(), seed, Some(&plan), |cfg| {
            cfg.checkpoint_mode = CheckpointMode::Unaligned;
        });
        let label = format!("{mode}-unaligned seed {seed} ({plan:?})");
        assert!(report.records_out > 0, "{label}: no committed output");
        assert_eq!(
            report.checkpoint_stats.alignment_stall_us, 0,
            "{label}: unaligned run recorded alignment stalls"
        );
        overtaken_total += report.checkpoint_stats.overtaken_records;
        assert_exactly_once(&report, &label);
        assert_matches_reference(&report, reference, &label);
    }
    assert!(
        overtaken_total > 0,
        "{mode}: no seed ever captured an overtaken record — the sweep is not \
         exercising the unaligned path"
    );
}

#[test]
fn chaos_sweep_unaligned_clonos_exactly_once() {
    let reference = oracle_reference();
    sweep_unaligned(clonos_full, "clonos", &reference);
}

#[test]
fn chaos_sweep_unaligned_global_rollback_exactly_once() {
    let reference = oracle_reference();
    sweep_unaligned(|| FtMode::GlobalRollback, "global-rollback", &reference);
}

/// Kills timed against an unaligned capture built over a deep backlog.
/// Checkpoint ticks fire at 5 s, 10 s, ...; barriers leave sources ~100 µs
/// later and jump queues, so with task 3 ("a" stage) throttled 150× from
/// 8 s, the 10 s checkpoint captures a multi-hundred-record backlog.
///
/// Scenario "mid-capture": the victim dies right at barrier flight time —
/// before/while its capture for checkpoint 2 is open and unacked. The
/// checkpoint must not complete with a hole; recovery resumes from the last
/// completed checkpoint and the replayed (or orphan-flushed)
/// TriggerCheckpoint determinant re-takes the snapshot.
///
/// Scenario "after-capture": the victim dies once checkpoint 2 (whose image
/// carries the captured backlog) has completed. Recovery restores that
/// image and must re-inject every captured record ahead of channel replay.
///
/// Both must leave sink content a byte-identical per-key prefix of the
/// failure-free reference.
#[test]
fn unaligned_kill_mid_capture_recovers_exactly_once() {
    let reference = oracle_reference();
    for (mode, ft) in [("clonos", clonos_full()), ("global-rollback", FtMode::GlobalRollback)] {
        for (phase, kill_at) in [("mid-capture", 10_000_150), ("after-capture", 10_200_000)] {
            let plan = FailurePlan::none()
                .slow_at(VirtualTime(8_000_000), 3, 150, VirtualDuration::from_secs(4))
                .kill_at(VirtualTime(kill_at), 3);
            let report = run_oracle_plan(ft.clone(), 7, plan, |cfg| {
                cfg.checkpoint_mode = CheckpointMode::Unaligned;
            });
            let label = format!("kill-{phase} {mode}");
            assert!(report.records_out > 0, "{label}: no committed output");
            assert!(
                report.checkpoint_stats.overtaken_records > 0,
                "{label}: the backlog never produced an overtaken capture"
            );
            if phase == "after-capture" {
                assert!(
                    report.checkpoint_stats.unaligned_reinjections > 0,
                    "{label}: recovery never re-injected captured records"
                );
            }
            assert_exactly_once(&report, &label);
            assert_matches_reference(&report, &reference, &label);
        }
    }
}

#[test]
fn chaos_sweep_at_least_once_orphan_never_loses() {
    // The documented availability-over-consistency configuration (§5.4):
    // orphaned tasks continue at-least-once, so duplicates are permitted —
    // but records must never be lost, under any chaos scenario.
    let space = oracle_space();
    let mut census = Census::default();
    for seed in 0..sweep_seeds() {
        let plan = ChaosPlan::generate(seed, &space);
        let report = run_oracle(at_least_once_orphan(), seed, Some(&plan));
        let label = format!("at-least-once-orphan seed {seed} ({plan:?})");
        assert!(report.records_out > 0, "{label}: no committed output");
        let gaps = report.ident_gaps();
        assert!(gaps.is_empty(), "{label}: lost records: {gaps:?}");
        census.add(&report);
    }
    census.print("at-least-once-orphan");
}

/// The §5.4 orphan fallback under a seeded kill instant. At DSD = 1 the
/// only holders of `a` task 3's determinant log are the `b` tasks 5 and 6;
/// killing all three together leaves task 3's log with no survivor, so the
/// failure analysis finds orphans and, availability preferred, the job goes
/// on at-least-once. The generated chaos plans never produce that set, so
/// this sweep is the one that reaches the fallback: every run must record
/// `AtLeastOnce` and lose no record.
#[test]
fn chaos_sweep_orphaning_kills_fall_back_to_at_least_once_without_loss() {
    for seed in 0..sweep_seeds() {
        let at = VirtualTime(SimRng::new(seed).gen_range_in(6_000_000, 22_000_001));
        let plan = FailurePlan::none().kill_at(at, 3).kill_at(at, 5).kill_at(at, 6);
        let report = run_oracle_plan(at_least_once_orphan(), seed, plan, |_| {});
        let label = format!("orphaning kills seed {seed} at {at:?}");
        assert!(report.records_out > 0, "{label}: no committed output");
        assert!(
            report.causal_events.iter().any(|e| e.kind == Kind::AtLeastOnce),
            "{label}: no at-least-once fallback: {:?}",
            report.causal_events.iter().filter(|e| !e.kind.is_hop()).collect::<Vec<_>>()
        );
        let gaps = report.ident_gaps();
        assert!(gaps.is_empty(), "{label}: lost records: {gaps:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Bit-level determinism: the same seed must produce the same run, down
    /// to every trace entry, every committed sink byte, and every
    /// robustness counter — the property that makes chaos failures
    /// reproducible from the seed alone. (`wall_seconds` is host time and
    /// deliberately excluded.)
    #[test]
    fn same_seed_same_run(seed in 0u64..1_000) {
        let plan = ChaosPlan::generate(seed, &oracle_space());
        let a = run_oracle(clonos_full(), seed, Some(&plan));
        let b = run_oracle(clonos_full(), seed, Some(&plan));
        let sink = |r: &clonos_engine::RunReport| -> Vec<(u64, u64, bytes::Bytes)> {
            r.sink_output.iter().map(|(t, m, rec)| (*t, m.ident, rec.row.to_bytes())).collect()
        };
        prop_assert_eq!(&a.causal_events, &b.causal_events, "traces diverge");
        prop_assert_eq!(sink(&a), sink(&b), "sink output diverges");
        prop_assert_eq!(a.records_in, b.records_in);
        prop_assert_eq!(a.records_out, b.records_out);
        prop_assert_eq!(a.recovery_stats, b.recovery_stats, "robustness counters diverge");
        prop_assert_eq!(a.checkpoint_stats, b.checkpoint_stats, "checkpoint counters diverge");
        prop_assert_eq!(a.last_completed_checkpoint, b.last_completed_checkpoint);
    }
}
/// A transactional sink killed in the window between its checkpoint ack and
/// the JM's completion notification (chaos seed 39 originally found this).
/// The checkpoint completes — every ack arrived — so recovery restores from
/// it; but the sink's buffered transaction for the sealed epoch used to live
/// only in task memory, and the restored incarnation resumes *after* the
/// cut, so nothing ever re-wrote those records: a permanent mid-sequence
/// hole. The two-phase-commit pre-commit (write the sealed epoch's records
/// at the snapshot cut, abort markers roll back incomplete transactions)
/// must close the window in both barrier modes. Unaligned checkpoints widen
/// the window enormously — under backpressure the fast ack can precede the
/// aligned-equivalent ack by whole seconds — which is why the unaligned
/// sweep was the first to catch it.
#[test]
fn sink_killed_between_ack_and_commit_loses_nothing() {
    let reference = oracle_reference();
    // Barriers leave the JM at 10 s and reach the sinks ~200 us later; the
    // completion notification lands ~2 ms after that. Kill sink task 8 at
    // 10.001 s: after its ack, before the commit notification.
    for mode in [CheckpointMode::Aligned, CheckpointMode::Unaligned] {
        let plan = FailurePlan::none().kill_at(VirtualTime(10_001_000), 8);
        let report = run_oracle_plan(FtMode::GlobalRollback, 11, plan, |cfg| {
            cfg.checkpoint_mode = mode;
        });
        let label = format!("ack-window kill ({mode:?})");
        assert!(report.records_out > 0, "{label}: no committed output");
        assert!(
            report.last_completed_checkpoint >= 2,
            "{label}: checkpoint 2 never completed — the kill missed the \
             ack-to-notification window and the scenario lost its teeth"
        );
        assert_exactly_once(&report, &label);
        assert_matches_reference(&report, &reference, &label);
    }
}

/// Both recovery retry ladders under partial control-plane loss. Task 3 dies
/// at 6 s while 30 % of recovery control messages are lost; with seed 3 the
/// job manager re-sends a lost `LogRequest` (gather ladder) and the
/// replacement re-sends a lost `ReplayRequest` (replay ladder), and the
/// recovery still completes locally with exactly-once output. The chaos
/// sweeps only exercise these ladders, and the watchdog test drops every
/// control message, so this is the one run that pins a retry that succeeds.
#[test]
fn lossy_control_plane_retries_both_ladders_and_recovers_locally() {
    let plan = FailurePlan::none().kill_at(VirtualTime(6_000_000), 3);
    let report = run_oracle_plan(clonos_full(), 3, plan, |cfg| cfg.ctrl_loss_prob = 0.3);
    let rs = &report.recovery_stats;
    assert!(rs.gather_retries >= 1, "no gather retry: {rs:?}");
    let replay_retried =
        report.causal_events.iter().any(|e| matches!(e.kind, Kind::ReplayRetry { .. }));
    assert!(replay_retried, "no replay-request retry: {:?}", report.causal_events);
    assert!(rs.recoveries_completed >= 1, "recovery never completed: {rs:?}");
    assert_eq!(rs.escalations, 0, "escalated to a global rollback: {rs:?}");
    assert_exactly_once(&report, "lossy control plane, seed 3");
}
