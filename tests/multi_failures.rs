//! Multiple/concurrent failures and determinant-sharing-depth behaviour
//! (§5.3/§7.4): the Figure-4 case analysis, exercised end-to-end.

use clonos::config::ClonosConfig;
use clonos_engine::operator::OpCtx;
use clonos_engine::operators::ProcessOp;
use clonos_engine::*;
use clonos_integration::{assert_exactly_once, clonos_dsd, clonos_full};
use clonos_sim::{VirtualDuration, VirtualTime};

/// Depth-4 chain (source → a → b → sink) with nondeterministic stages.
fn chain(parallelism: usize) -> JobGraph {
    let mut g = JobGraph::new("chain");
    let src = g.add_source("src", parallelism, SourceSpec::new("in").rate(4_000).key_field(0));
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

/// Whether any entry of the run's trace belongs to a global rollback.
fn rolled_back(report: &RunReport) -> bool {
    report.causal_events.iter().any(|e| e.kind.is_rollback())
}

fn run(
    parallelism: usize,
    ft: FtMode,
    seed: u64,
    kills: &[(u64, u64)],
    secs: u64,
) -> RunReport {
    let cfg = EngineConfig::default().with_seed(seed).with_ft(ft);
    let mut runner = JobRunner::new(chain(parallelism), cfg);
    let n = 4_000 * parallelism as i64 * (secs as i64 - 8);
    let rows: Vec<Row> =
        (0..n).map(|i| Row::new(vec![Datum::Int(i % 64), Datum::Int(i)])).collect();
    for p in 0..parallelism {
        let slice: Vec<Row> = rows.iter().skip(p).step_by(parallelism).cloned().collect();
        runner.populate("in", p, slice);
    }
    let mut plan = FailurePlan::none();
    for &(at, t) in kills {
        plan = plan.kill_at(VirtualTime(at), t);
    }
    runner.with_failures(plan).run_for(VirtualDuration::from_secs(secs))
}

#[test]
fn three_staggered_failures_full_dsd() {
    // p=2 chain: src 1-2, a 3-4, b 5-6, sink 7-8. Connected kills 5 s apart.
    let report = run(
        2,
        clonos_full(),
        3,
        &[(7_000_000, 3), (12_000_000, 5), (17_000_000, 7)],
        40,
    );
    assert!(!rolled_back(&report));
    assert_exactly_once(&report, "staggered");
}

#[test]
fn three_concurrent_connected_failures_full_dsd() {
    let report = run(
        2,
        clonos_full(),
        5,
        &[(7_000_000, 3), (7_000_000, 5), (7_000_000, 7)],
        40,
    );
    assert!(
        !rolled_back(&report),
        "full DSD must recover locally: {:?}",
        report.causal_events
    );
    assert_exactly_once(&report, "concurrent");
}

#[test]
fn dsd2_tolerates_two_consecutive_failures() {
    let report = run(2, clonos_dsd(2), 7, &[(7_000_000, 3), (7_000_000, 5)], 40);
    assert!(!rolled_back(&report));
    assert_exactly_once(&report, "dsd2/2-consecutive");
}

#[test]
fn dsd1_with_two_consecutive_failures_rolls_back_but_stays_consistent() {
    let report = run(2, clonos_dsd(1), 9, &[(7_000_000, 3), (7_000_000, 5)], 60);
    assert!(
        report.causal_events.iter().any(|e| matches!(e.kind, Kind::Escalated(_))),
        "expected the Figure-4 orphan fallback (static or runtime-escalated): {:?}",
        report.causal_events
    );
    assert_exactly_once(&report, "dsd1 fallback");
}

#[test]
fn prefer_availability_continues_at_least_once() {
    let mut cfg = ClonosConfig::exactly_once(clonos::config::SharingDepth::Depth(1));
    cfg.prefer_availability_on_orphans = true;
    let report = run(
        2,
        FtMode::Clonos(cfg),
        11,
        &[(7_000_000, 3), (7_000_000, 5)],
        40,
    );
    // §5.4: availability wins — no global rollback even though orphaned.
    assert!(report.causal_events.iter().any(|e| e.kind == Kind::AtLeastOnce));
    assert!(!report.causal_events.iter().any(|e| e.kind == Kind::RestartAll));
    // No losses; duplicates possible.
    assert!(report.ident_gaps().is_empty());
}

#[test]
fn unconnected_parallel_failures_recover_independently() {
    // Kill one instance of stage a and one of stage b on *different* key
    // paths simultaneously; DSD=1 suffices (no consecutive pair dies).
    let report = run(2, clonos_dsd(1), 13, &[(7_000_000, 3), (7_000_000, 6)], 40);
    assert!(
        !rolled_back(&report),
        "unconnected failures must not orphan anyone: {:?}",
        report.causal_events
    );
    assert_exactly_once(&report, "unconnected");
}

#[test]
fn five_sequential_failures_over_a_long_run() {
    let kills: Vec<(u64, u64)> = vec![
        (7_000_000, 3),
        (14_000_000, 5),
        (21_000_000, 4),
        (28_000_000, 6),
        (35_000_000, 3),
    ];
    let report = run(2, clonos_full(), 15, &kills, 60);
    assert_exactly_once(&report, "five failures");
    assert!(report.records_out > 0);
}

#[test]
fn cold_recovery_without_standby_tasks_is_slower_but_exact() {
    // Disable standbys: recovery loads state from the snapshot store.
    let mut cfg = ClonosConfig::exactly_once(clonos::config::SharingDepth::Full);
    cfg.standby_tasks = false;
    let with_standby = run(2, clonos_full(), 21, &[(12_000_000, 3)], 40);
    let cold = run(2, FtMode::Clonos(cfg), 21, &[(12_000_000, 3)], 40);
    assert_exactly_once(&with_standby, "standby");
    assert_exactly_once(&cold, "cold");
    // Both recover; the standby path must not be slower than cold.
    let t_standby = with_standby.recovery_time(1.25).map(|d| d.as_micros()).unwrap_or(0);
    let t_cold = cold.recovery_time(1.25).map(|d| d.as_micros()).unwrap_or(0);
    assert!(
        t_standby <= t_cold.max(1),
        "standby recovery ({t_standby}us) slower than cold ({t_cold}us)"
    );
}

#[test]
fn failure_before_first_checkpoint_replays_from_job_start() {
    // Kill before checkpoint 1 completes: resume_cp = 0, state = fresh,
    // replay covers the whole history from the sources.
    let report = run(2, clonos_full(), 31, &[(2_000_000, 5)], 40);
    assert_exactly_once(&report, "pre-first-checkpoint");
    assert!(report.causal_events.iter().any(|e| e.kind == Kind::RecoveryDone));
}

#[test]
fn longer_checkpoint_interval_means_longer_replay_but_same_guarantee() {
    for interval_s in [2u64, 10] {
        let cfg = EngineConfig::default()
            .with_seed(37)
            .with_ft(clonos_full());
        let mut cfg = cfg;
        cfg.checkpoint_interval = VirtualDuration::from_secs(interval_s);
        let mut runner = JobRunner::new(chain(2), cfg);
        let n = 4_000 * 2 * 32;
        let rows: Vec<Row> =
            (0..n).map(|i| Row::new(vec![Datum::Int(i % 64), Datum::Int(i)])).collect();
        for p in 0..2 {
            let slice: Vec<Row> = rows.iter().skip(p).step_by(2).cloned().collect();
            runner.populate("in", p, slice);
        }
        let report = runner
            .with_failures(FailurePlan::none().kill_at(VirtualTime(15_000_000), 3))
            .run_for(VirtualDuration::from_secs(40));
        assert_exactly_once(&report, &format!("cp interval {interval_s}s"));
    }
}

// p = 4 lanes: src 1-4, a 5-8, b 9-12, sink 13-16. Source partition `p`
// holds keys ≡ p (mod 4) only, so every task sends records down its own lane
// and only barriers and watermarks to the other three instances: those idle
// channels carry the task's own log but no forwarded one.
const LANES: usize = 4;
const A: [u64; LANES] = [5, 6, 7, 8];
const B: [u64; LANES] = [9, 10, 11, 12];

#[test]
fn origin_and_an_idle_downstream_fail_together_mid_epoch() {
    // a[1]'s log lives on at b[1] (its lane); b[2] only ever got its
    // barriers, and its own log is at every sink.
    let report = run(LANES, clonos_full(), 21, &[(7_500_000, A[1]), (7_500_000, B[2])], 24);
    assert!(
        !rolled_back(&report),
        "an idle downstream's failure must not orphan the origin: {:?}",
        report.causal_events
    );
    assert_exactly_once(&report, "origin + idle downstream");
}

#[test]
fn origin_and_its_forwarder_fail_between_barrier_and_checkpoint_completion() {
    // Find, in a failure-free run, a checkpoint that b[1] (the forwarder of
    // a[1]'s log on its lane) has acked but that has not completed yet.
    let quiet = run(LANES, clonos_full(), 23, &[], 24);
    let at = |kind: &str, epoch: u64, task: Option<u64>| {
        quiet
            .causal_events
            .iter()
            .find(|e| e.kind == kind && e.epoch == epoch && task.is_none_or(|t| e.task == t))
            .map(|e| e.at.as_micros())
    };
    let epoch = 2;
    let acked = at("CheckpointAck", epoch, Some(B[1])).expect("b[1] acks checkpoint 2");
    let done = at("CheckpointComplete", epoch, None).expect("checkpoint 2 completes");
    assert!(acked < done, "no window between b[1]'s ack ({acked}) and completion ({done})");
    let kill = acked + (done - acked) / 2;
    // After b[1]'s barrier the sinks hold a[1]'s forwarded log only on
    // lane 1; the other a tasks' own-log copies come from a[1]'s barriers.
    let report = run(LANES, clonos_full(), 23, &[(kill, A[1]), (kill, B[1])], 24);
    assert!(
        !rolled_back(&report),
        "the origin's log must be recovered from its lane's sink: {:?}",
        report.causal_events
    );
    assert_exactly_once(&report, "origin + forwarder after the barrier");
}

const SINKS: [u64; LANES] = [13, 14, 15, 16];

/// The narrowed case of holder-aware orphan analysis, measured: an origin
/// and every holder on its record paths — its lane's `b` (the only
/// downstream its records reach) and that lane's sink (the only task that
/// `b` forwards its log to) — die together mid-epoch. The other `b` tasks
/// are one hop away and alive, so the static analysis says "local" at
/// either depth, and they hold the origin's own log because its idle
/// channels carry it. Pinned: no escalation of any cause, no rollback, and
/// `recovery_ms` (kill → the last `RecoveryDone` of a victim) = 200.35.
#[test]
fn origin_and_every_record_path_holder_fail_mid_epoch() {
    let kill = 7_500_000;
    let victims = [A[1], B[1], SINKS[1]];
    let kills: Vec<(u64, u64)> = victims.iter().map(|&t| (kill, t)).collect();
    for (label, ft) in [("dsd1", clonos_dsd(1)), ("full", clonos_full())] {
        let report = run(LANES, ft, 25, &kills, 24);
        let trace = &report.causal_events;
        let causes: Vec<Escalation> = trace
            .iter()
            .filter_map(|e| match e.kind {
                Kind::Escalated(why) => Some(why),
                _ => None,
            })
            .collect();
        assert_eq!(causes, [], "{label}: escalated");
        assert!(!rolled_back(&report), "{label}: rolled back: {trace:?}");
        let done = trace
            .iter()
            .filter(|e| e.kind == Kind::RecoveryDone && victims.contains(&e.task))
            .map(|e| e.at.as_micros())
            .max()
            .expect("the victims recover");
        assert_eq!(done - kill, 200_350, "{label}: recovery_ms moved");
        assert_exactly_once(&report, label);
    }
}
