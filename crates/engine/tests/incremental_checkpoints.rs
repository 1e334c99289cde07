//! Incremental (copy-on-write) checkpoints: delta chains must reconstruct
//! byte-identical full images, barriers must be O(dirty), and the report's
//! `CheckpointStats` must reflect what the encoder/store/standby side did.

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_engine::operator::OpCtx;
use clonos_engine::operators::ProcessOp;
use clonos_engine::state::{StateStore, StateTimer};
use clonos_engine::*;
use clonos_sim::{VirtualDuration, VirtualTime};
use clonos_storage::deltamap;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Property: for any mutation/checkpoint schedule, replaying base + deltas
// through the canonical merge yields exactly the bytes of a full snapshot
// taken at the same epoch.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Mutation {
    SetValue { id: u16, key: u64, val: i64 },
    TakeValue { id: u16, key: u64 },
    PushList { id: u16, key: u64, val: i64 },
    TakeList { id: u16, key: u64 },
    EventTimer { ts: u64, key: u64 },
    ProcTimer { ts: u64, key: u64 },
    PopTimers { watermark: u64 },
    Checkpoint,
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    // The offline proptest shim's `prop_oneof!` is unweighted; bias toward
    // puts and checkpoints by listing them more than once.
    prop_oneof![
        (0u16..3, 0u64..32, any::<i64>())
            .prop_map(|(id, key, val)| Mutation::SetValue { id, key, val }),
        (0u16..3, 0u64..32, any::<i64>())
            .prop_map(|(id, key, val)| Mutation::SetValue { id, key, val }),
        (0u16..3, 0u64..32).prop_map(|(id, key)| Mutation::TakeValue { id, key }),
        (0u16..3, 0u64..32, any::<i64>())
            .prop_map(|(id, key, val)| Mutation::PushList { id, key, val }),
        (0u16..3, 0u64..32).prop_map(|(id, key)| Mutation::TakeList { id, key }),
        (0u64..1000, 0u64..32).prop_map(|(ts, key)| Mutation::EventTimer { ts, key }),
        (0u64..1000, 0u64..32).prop_map(|(ts, key)| Mutation::ProcTimer { ts, key }),
        (0u64..1000).prop_map(|watermark| Mutation::PopTimers { watermark }),
        Just(Mutation::Checkpoint),
        Just(Mutation::Checkpoint),
    ]
}

fn apply(store: &mut StateStore, m: &Mutation) {
    match *m {
        Mutation::SetValue { id, key, val } => {
            store.set_value(id, key, Row::new(vec![Datum::Int(val)]))
        }
        Mutation::TakeValue { id, key } => {
            store.take_value(id, key);
        }
        Mutation::PushList { id, key, val } => {
            store.push_list(id, key, Row::new(vec![Datum::Int(val)]))
        }
        Mutation::TakeList { id, key } => {
            store.take_list(id, key);
        }
        Mutation::EventTimer { ts, key } => {
            store.register_event_timer(StateTimer { ts, key, tag: 0 });
        }
        Mutation::ProcTimer { ts, key } => {
            store.register_proc_timer(StateTimer { ts, key, tag: 0 });
        }
        Mutation::PopTimers { watermark } => {
            store.pop_due_event_timers(watermark);
        }
        Mutation::Checkpoint => unreachable!("handled by the schedule loop"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn base_plus_delta_chain_reconstructs_full_snapshot(
        schedule in proptest::collection::vec(mutation_strategy(), 1..120)
    ) {
        let mut store = StateStore::new();
        // Everything before the first checkpoint lands in the base image.
        let mut base: Option<bytes::Bytes> = None;
        let mut deltas: Vec<bytes::Bytes> = Vec::new();
        for m in &schedule {
            match m {
                Mutation::Checkpoint => {
                    if base.is_none() {
                        base = Some(store.snapshot());
                        store.clear_dirty();
                    } else {
                        deltas.push(store.snapshot_delta());
                    }
                }
                other => apply(&mut store, other),
            }
        }
        // Close the run with a final delta so the chain covers every mutation.
        if base.is_none() {
            base = Some(store.snapshot());
            store.clear_dirty();
        } else {
            deltas.push(store.snapshot_delta());
        }
        let base = base.unwrap();
        let delta_refs: Vec<&[u8]> = deltas.iter().map(|d| &d[..]).collect();
        let merged = deltamap::merge_chain(&base, &delta_refs).expect("chain merges");
        let full = store.snapshot();
        prop_assert_eq!(
            &merged[..], &full[..],
            "reconstructed image diverges from a full snapshot at the same epoch"
        );
        // And the reconstruction round-trips through restore to the same digest.
        let restored = StateStore::restore(&merged).expect("restores");
        prop_assert_eq!(restored.digest(), store.digest());
    }
}

// ---------------------------------------------------------------------------
// End-to-end: a normal run with incremental checkpoints on must ship mostly
// deltas, rebase periodically, dispatch deltas to standbys, and stay
// exactly-once through a failure.
// ---------------------------------------------------------------------------

fn counting_stage() -> clonos_engine::operator::OperatorFactory {
    factory(|| {
        ProcessOp::new(|_i, rec: &Record, ctx: &mut OpCtx<'_>| {
            let c = ctx.state.value(0, rec.key).map(|r| r.int(0)).unwrap_or(0) + 1;
            ctx.state.set_value(0, rec.key, Row::new(vec![Datum::Int(c)]));
            ctx.emit(rec.key, rec.event_time, Row::new(vec![rec.row.get(1).clone(), Datum::Int(c)]));
            Ok(())
        })
    })
}

fn job() -> JobGraph {
    let mut g = JobGraph::new("inc-ckpt");
    let src = g.add_source("src", 2, SourceSpec::new("in").rate(4_000).key_field(0));
    let st = g.add_operator("count", 2, counting_stage());
    let snk = g.add_sink("out", 1, SinkSpec { topic: "out".into() });
    g.connect(src, st, Partitioning::Hash);
    g.connect(st, snk, Partitioning::Hash);
    g
}

fn rows(n: i64, keys: i64) -> Vec<Row> {
    (0..n).map(|i| Row::new(vec![Datum::Int(i % keys), Datum::Int(i)])).collect()
}

#[test]
fn incremental_run_ships_deltas_and_rebases() {
    let cfg = EngineConfig::default()
        .with_seed(21)
        .with_ft(FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)));
    assert!(cfg.checkpoint_rebase_interval > 0, "incremental mode is the default");
    let mut runner = JobRunner::new(job(), cfg);
    runner.populate("in", 0, rows(120_000, 512));
    runner.populate("in", 1, rows(120_000, 512));
    let report = runner.run_for(VirtualDuration::from_secs(61));
    let ck = report.checkpoint_stats;
    assert!(report.last_completed_checkpoint >= 10);
    // Steady state is deltas: each stateful/sink task contributes one full
    // base, everything else (modulo rebases) ships as a delta.
    assert!(ck.full_snapshots > 0, "no base images: {ck:?}");
    assert!(ck.delta_snapshots > ck.full_snapshots, "deltas not dominant: {ck:?}");
    assert!(ck.dirty_entries > 0);
    // 61 s at a 5 s interval crosses the rebase interval (8), so at least one
    // chain was closed by a fresh full image.
    assert!(ck.rebases > 0, "no rebase in {} checkpoints: {ck:?}", report.last_completed_checkpoint);
    // Standbys held the parent images, so completed checkpoints shipped
    // deltas instead of full state (§6.4).
    assert!(ck.delta_dispatches > 0, "standby dispatch never shipped a delta: {ck:?}");
    assert!(report.duplicate_idents().is_empty());
    assert!(report.ident_gaps().is_empty());
}

#[test]
fn delta_barrier_bytes_undercut_full_barrier_bytes() {
    // Same job, same workload, incremental on vs off (rebase interval 0:
    // every image a full base): with a hot key set that is small relative to
    // accumulated state, per-barrier delta bytes must be well under
    // per-barrier full bytes.
    let run = |incremental: bool| {
        let mut cfg = EngineConfig::default()
            .with_seed(33)
            .with_ft(FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)));
        if !incremental {
            cfg.checkpoint_rebase_interval = 0;
        }
        let mut runner = JobRunner::new(job(), cfg);
        // Keys drawn from a wide space: state grows, per-epoch touched set
        // shrinks relative to it as the run progresses.
        runner.populate("in", 0, rows(100_000, 4096));
        runner.populate("in", 1, rows(100_000, 4096));
        runner.run_for(VirtualDuration::from_secs(31))
    };
    let full = run(false);
    let inc = run(true);
    assert_eq!(full.checkpoint_stats.delta_snapshots, 0);
    assert_eq!(full.checkpoint_stats.delta_dispatches, 0);
    let full_per_barrier = full.checkpoint_stats.full_bytes
        / full.checkpoint_stats.full_snapshots.max(1);
    let inc_per_barrier = inc.checkpoint_stats.delta_bytes
        / inc.checkpoint_stats.delta_snapshots.max(1);
    assert!(
        inc_per_barrier < full_per_barrier,
        "delta barriers ({inc_per_barrier} B) not cheaper than full ({full_per_barrier} B)"
    );
    // Both runs produce identical committed output: incremental encoding is
    // an implementation detail, not an observable behaviour change.
    assert_eq!(full.sink_idents(), inc.sink_idents());
}

/// The store-level floor under the run-level comparison above: at 10^5 keys
/// a barrier that dirtied 1 % or 10 % of them encodes a delta at most a
/// fifth the size of the full image, and base + delta still folds to it.
#[test]
fn delta_image_is_at_most_a_fifth_of_the_full_image_at_ten_percent_dirty() {
    const KEYS: u64 = 100_000;
    let row = |key: u64, epoch: u64| {
        Row::new(vec![
            Datum::Int((key.wrapping_mul(0x9E3779B97F4A7C15) ^ epoch) as i64),
            Datum::Int((key + epoch) as i64),
        ])
    };
    for pct in [1, 10] {
        let mut store = StateStore::new();
        for key in 0..KEYS {
            store.set_value(0, key, row(key, 0));
        }
        let base = store.snapshot();
        store.clear_dirty();
        let stride = 100 / pct;
        for key in (1..KEYS).step_by(stride as usize) {
            store.set_value(0, key, row(key, 1));
        }
        let delta = store.snapshot_delta();
        let full = store.snapshot();
        assert!(
            5 * delta.len() <= full.len(),
            "{pct} % dirty: delta {} B vs full {} B",
            delta.len(),
            full.len()
        );
        let merged = deltamap::merge_chain(&base, &[&delta]).expect("chain merges");
        assert_eq!(&merged[..], &full[..], "{pct} % dirty: base + delta is not the full image");
    }
}

#[test]
fn recovery_restores_from_reconstructed_chain() {
    // Kill a stateful task mid-chain: the restore path must reconstruct the
    // image from base + deltas (counted by the store), and output must stay
    // exactly-once with unbroken per-key counters.
    let cfg = EngineConfig::default()
        .with_seed(45)
        .with_ft(FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)));
    let mut runner = JobRunner::new(job(), cfg);
    runner.populate("in", 0, rows(100_000, 512));
    runner.populate("in", 1, rows(100_000, 512));
    let report = runner
        .with_failures(FailurePlan::none().kill_at(VirtualTime(13_700_000), 2))
        .run_for(VirtualDuration::from_secs(40));
    let ck = report.checkpoint_stats;
    assert!(report.causal_events.iter().any(|e| e.kind == Kind::RecoveryDone));
    // The standby/restore read had to materialize a full image from a chain.
    assert!(
        ck.reconstructions > 0 || ck.delta_dispatches > 0,
        "recovery never exercised the delta path: {ck:?}"
    );
    // Reconstruction cost is accounted whenever a chain merge happened.
    if ck.reconstructions > 0 {
        assert!(ck.reconstruct_us > 0, "reconstruction cost unaccounted: {ck:?}");
    }
    assert!(report.duplicate_idents().is_empty());
    assert!(report.ident_gaps().is_empty());
}
