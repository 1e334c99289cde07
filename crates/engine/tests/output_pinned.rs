//! The output topic, byte for byte: a fixed-seed chain run must leave exactly
//! the payload and meta bytes, in exactly the order, that the engine wrote
//! before its record path stopped re-encoding (the sink now forwards slices
//! of the network buffer). The digests below were recorded on that earlier
//! commit; any change to a wire byte, a topic byte, an ident or a commit
//! order moves them.

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_engine::operators::ProcessOp;
use clonos_engine::*;
use clonos_sim::{VirtualDuration, VirtualTime};

const PARALLELISM: usize = 2;
const ROWS: i64 = 24_000;

/// src → three keyed counting stages (each reads the causal clock) → sink.
/// Rows carry an Int key, an Int value and a Str, so the pass-through is
/// pinned for variable-width fields too.
fn chain() -> JobGraph {
    let mut g = JobGraph::new("pinned-chain");
    let mut prev = g.add_source("src", PARALLELISM, SourceSpec::new("in").rate(4_000).key_field(0));
    for d in 0..3 {
        let stage = g.add_operator(
            &format!("stage{d}"),
            PARALLELISM,
            factory(|| {
                ProcessOp::new(|_input, rec: &Record, ctx: &mut OpCtx<'_>| {
                    let count = ctx.state.value(9, rec.key).map(|r| r.int(0)).unwrap_or(0) + 1;
                    ctx.state.set_value(9, rec.key, Row::new(vec![Datum::Int(count)]));
                    let _ts = ctx.timestamp()?;
                    let mut row = rec.row.0.clone();
                    row.push(Datum::Int(count));
                    ctx.emit(rec.key, rec.event_time, Row::new(row));
                    Ok(())
                })
            }),
        );
        g.connect(prev, stage, Partitioning::Hash);
        prev = stage;
    }
    let sink = g.add_sink("sink", PARALLELISM, SinkSpec { topic: "out".into() });
    g.connect(prev, sink, Partitioning::Hash);
    g
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Run the chain and digest the raw output topic: per partition, per record
/// in offset order, length-framed payload then length-framed meta.
fn run_digest(ft: FtMode, kill: Option<(VirtualTime, u64)>) -> (u64, u64) {
    let mut cfg = EngineConfig::default().with_seed(42).with_ft(ft);
    cfg.checkpoint_interval = VirtualDuration::from_secs(1);
    let mut runner = JobRunner::new(chain(), cfg);
    for p in 0..PARALLELISM {
        let rows = (0..ROWS).filter(|i| *i as usize % PARALLELISM == p).map(|i| {
            Row::new(vec![
                Datum::Int((i * 7919) % 257),
                Datum::Int(i),
                Datum::str(format!("v{}", i % 13)),
            ])
        });
        runner.populate("in", p, rows);
    }
    let mut cluster = runner.cluster;
    if let Some((at, task)) = kill {
        cluster.run_until(at);
        cluster.kill_task(task);
    }
    cluster.run_until(VirtualTime::ZERO + VirtualDuration::from_secs(40));
    let recovered = cluster.metrics.trace.iter().any(|e| e.kind == Kind::RecoveryDone);
    assert_eq!(recovered, kill.is_some(), "the kill must land mid-flow and be recovered from");
    let topic = cluster.topic("out").expect("sink topic");
    let mut h = 0xCBF2_9CE4_8422_2325;
    let mut records = 0;
    for p in 0..topic.num_partitions() {
        for r in topic.partition(p).fetch(0, usize::MAX) {
            records += 1;
            h = fnv1a(h, &(r.payload.len() as u64).to_le_bytes());
            h = fnv1a(h, &r.payload);
            let meta = r.meta.as_deref().unwrap_or(&[]);
            h = fnv1a(h, &(meta.len() as u64).to_le_bytes());
            h = fnv1a(h, meta);
        }
    }
    (records, h)
}

fn clonos() -> FtMode {
    FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full))
}

/// Failure-free digest. Both FT modes share it (the transactional sink
/// commits the same records under the same epoch tags, only later), and so
/// does Clonos under the kill: causal recovery rebuilds the same records
/// between the same barriers, which is the paper's consistency claim.
const CLEAN: (u64, u64) = (24_000, 908647158054121974);
/// Global rollback under the kill: two abort markers and the rewritten epoch.
const ROLLED_BACK: (u64, u64) = (24_002, 3585722952504389907);

/// stage1[0], 0.6 s into the second epoch.
const KILL: Option<(VirtualTime, u64)> = Some((VirtualTime(1_600_000), 5));

#[test]
fn clonos_failure_free_output_is_pinned() {
    assert_eq!(run_digest(clonos(), None), CLEAN);
}

#[test]
fn clonos_mid_epoch_kill_output_is_pinned() {
    assert_eq!(run_digest(clonos(), KILL), CLEAN);
}

#[test]
fn global_rollback_failure_free_output_is_pinned() {
    assert_eq!(run_digest(FtMode::GlobalRollback, None), CLEAN);
}

#[test]
fn global_rollback_mid_epoch_kill_output_is_pinned() {
    assert_eq!(run_digest(FtMode::GlobalRollback, KILL), ROLLED_BACK);
}
