//! Regression tests for failures that land while the cluster is already
//! handling an earlier failure — the windows the chaos sweep hammers at
//! random, pinned here as deterministic scenarios.

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_engine::operator::OpCtx;
use clonos_engine::operators::ProcessOp;
use clonos_engine::*;
use clonos_sim::{VirtualDuration, VirtualTime};

/// Depth-4 chain (source → a → b → sink) with stateful, nondeterministic
/// stages. At parallelism 2 the task ids are: src 1-2, a 3-4, b 5-6, sink 7-8.
fn chain(parallelism: usize) -> JobGraph {
    let mut g = JobGraph::new("chain");
    let src = g.add_source("src", parallelism, SourceSpec::new("in").rate(2_000).key_field(0));
    let stage = || {
        factory(|| {
            ProcessOp::new(|_i, rec: &Record, ctx: &mut OpCtx<'_>| {
                let c = ctx.state.value(0, rec.key).map(|r| r.int(0)).unwrap_or(0) + 1;
                ctx.state.set_value(0, rec.key, Row::new(vec![Datum::Int(c)]));
                let _ts = ctx.timestamp()?;
                ctx.emit(rec.key, rec.event_time, rec.row.clone());
                Ok(())
            })
        })
    };
    let a = g.add_operator("a", parallelism, stage());
    let b = g.add_operator("b", parallelism, stage());
    let snk = g.add_sink("sink", parallelism, SinkSpec { topic: "out".into() });
    g.connect(src, a, Partitioning::Hash);
    g.connect(a, b, Partitioning::Hash);
    g.connect(b, snk, Partitioning::Hash);
    g
}

fn runner_with_input(ft: FtMode, seed: u64, input_secs: i64) -> JobRunner {
    let parallelism = 2;
    let cfg = EngineConfig::default().with_seed(seed).with_ft(ft);
    let mut runner = JobRunner::new(chain(parallelism), cfg);
    let n = 2_000 * parallelism as i64 * input_secs;
    let rows: Vec<Row> =
        (0..n).map(|i| Row::new(vec![Datum::Int(i % 64), Datum::Int(i)])).collect();
    for p in 0..parallelism {
        let slice: Vec<Row> = rows.iter().skip(p).step_by(parallelism).cloned().collect();
        runner.populate("in", p, slice);
    }
    runner
}

#[test]
fn kill_during_scheduled_rollback_folds_into_restart() {
    // Global-rollback baseline: task 3 dies at 7 s, is detected at 13 s
    // (6 s heartbeat timeout), and the restart fires at 21 s. Task 5 dies at
    // 10 s, so its detection lands at 16 s — inside the scheduled-rollback
    // window. The JM must fold that failure into the pending restart (keeping
    // the failed set complete), not drop the notification.
    let runner = runner_with_input(FtMode::GlobalRollback, 13, 30);
    let plan = FailurePlan::none()
        .kill_at(VirtualTime(7_000_000), 3)
        .kill_at(VirtualTime(10_000_000), 5);
    let report = runner.with_failures(plan).run_for(VirtualDuration::from_secs(40));

    let trace = &report.causal_events;
    assert!(
        trace.iter().any(|e| e.kind == Kind::FoldedIntoRollback && e.task == 5),
        "second failure in the rollback window was not folded into the restart: {trace:?}"
    );
    // The restart must actually take: checkpoints resume after it.
    let restart_at =
        trace.iter().find(|e| e.kind.is_rollback()).map(|e| e.at).expect("no rollback event");
    assert!(
        trace.iter().any(|e| e.at > restart_at && e.kind == Kind::CheckpointComplete),
        "no checkpoint completed after the restart: {trace:?}"
    );
    assert!(report.duplicate_idents().is_empty(), "duplicates after folded rollback");
    assert!(report.ident_gaps().is_empty(), "losses after folded rollback");
    assert!(report.recovery_stats.concurrent_failures >= 1);
}

#[test]
fn kill_of_replacement_mid_recovery_restarts_recovery() {
    // Kill task 3, wait for its replacement to be installed, then kill the
    // replacement *while the determinant gather is still pending*. The JM
    // must tear down the stale recovery bookkeeping and re-run the failure
    // analysis; dropping the second detection would leave `recovering`
    // non-empty forever, pausing checkpoints for the rest of the run.
    let ft = FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full));
    let mut runner = runner_with_input(ft, 11, 30);

    runner.cluster.run_until(VirtualTime(7_000_000));
    runner.cluster.kill_task(3);
    // Advance in 50 µs steps until the replacement is installed; the gather
    // needs at least one network round-trip (~300 µs), so killing right at
    // the install instant is guaranteed to land mid-recovery.
    let mut t = VirtualTime(7_000_000);
    loop {
        t += VirtualDuration::from_micros(50);
        assert!(t < VirtualTime(9_000_000), "replacement for task 3 never installed");
        runner.cluster.run_until(t);
        let installed = |e: &Event| e.kind == Kind::InstallRecovery && e.task == 3;
        if runner.cluster.metrics.trace.iter().any(installed) {
            break;
        }
    }
    runner.cluster.kill_task(3);
    let report = runner.run_for(VirtualDuration::from_secs(40));

    let trace = &report.causal_events;
    assert!(
        trace.iter().any(|e| e.kind == Kind::ReplacementDied && e.task == 3),
        "second failure of the replacement was not re-analyzed: {trace:?}"
    );
    assert!(
        trace.iter().any(|e| e.at > t && e.kind == Kind::RecoveryDone && e.task == 3),
        "task 3 never finished recovering after the mid-recovery kill: {trace:?}"
    );
    // Recovery completing means checkpointing resumes for the rest of the
    // run — the pre-fix behaviour stalls at the checkpoint preceding the
    // first kill (checkpoint 1 at 5 s) forever.
    assert!(
        report.last_completed_checkpoint >= 5,
        "checkpoints stalled after mid-recovery kill: last = {}",
        report.last_completed_checkpoint
    );
    assert!(report.duplicate_idents().is_empty(), "duplicates after mid-recovery kill");
    assert!(report.ident_gaps().is_empty(), "losses after mid-recovery kill");
    assert!(report.recovery_stats.concurrent_failures >= 1);
}
