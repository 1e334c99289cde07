//! Allocation budget of the record path, as a tier-1 test: the engine's own
//! allocator calls per input record must stay under a small fixed number, so
//! that a per-record allocation creeping back into source, operator task or
//! sink fails `cargo test` and not only the benchmark's `allocs_per_record`.
//!
//! The allocator (`common`) counts per thread (each test runs on its own), so
//! tests of this binary do not see each other's or the harness's allocations.

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_engine::operators::{ProcessOp, ReduceOp, WindowAggregate, WindowOp, WindowTime};
use clonos_engine::*;
use clonos_sim::{VirtualDuration, VirtualTime};

mod common;
use common::{calls, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

const PARALLELISM: usize = 2;
const ROWS: i64 = 60_000;
/// What the two stages below allocate per input record: one row each.
const OPERATOR_ALLOCS_PER_RECORD: f64 = 2.0;
/// The engine's own share: everything that is per buffer, per checkpoint or
/// amortised growth (the sink's metadata is inline in its output record).
/// Measured 0.19 (Clonos) and 0.09 (global rollback) when the budget was set,
/// 1.20 and 1.09 with a heap copy of the metadata per record, so one
/// allocation per record in any role breaks it.
const ENGINE_BUDGET_PER_RECORD: f64 = 0.5;

/// src → two hash-partitioned stages, each building one row and moving it
/// into `emit` → sink.
fn job() -> JobGraph {
    let mut g = JobGraph::new("alloc-budget");
    let mut prev = g.add_source("src", PARALLELISM, SourceSpec::new("in").rate(10_000).key_field(0));
    for d in 0..2 {
        let stage = g.add_operator(
            &format!("stage{d}"),
            PARALLELISM,
            factory(|| {
                ProcessOp::new(|_input, rec: &Record, ctx: &mut OpCtx<'_>| {
                    let row = Row::new(vec![rec.row.0[0].clone(), Datum::Int(rec.row.int(1) + 1)]);
                    ctx.emit(rec.key, rec.event_time, row);
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

/// Allocator calls per input record over the run phase of `job` fed ROWS
/// rows `row(i)` (deployment and input population are outside the window);
/// asserts that `out` holds of the number of records reaching the sink.
fn allocs_per_record(job: JobGraph, ft: FtMode, row: fn(i64) -> Row, out: impl Fn(u64) -> bool) -> f64 {
    let mut cfg = EngineConfig::default().with_seed(5).with_ft(ft);
    cfg.checkpoint_interval = VirtualDuration::from_secs(1);
    let mut runner = JobRunner::new(job, cfg);
    for p in 0..PARALLELISM {
        let rows = (0..ROWS)
            .filter(|i| *i as usize % PARALLELISM == p)
            .map(row);
        runner.populate("in", p, rows);
    }
    let mut cluster = runner.cluster;
    let before = calls();
    cluster.run_until(VirtualTime::ZERO + VirtualDuration::from_secs(8));
    let during = calls() - before;
    assert_eq!(cluster.metrics.records_in, ROWS as u64, "every row ingested");
    let records_out = cluster.metrics.records_out;
    assert!(out(records_out), "{records_out} records committed");
    during as f64 / ROWS as f64
}

/// The engine's allocator calls per input record on [`job`], less the
/// operators' own.
fn engine_allocs_per_record(ft: FtMode) -> f64 {
    let row = |i| Row::new(vec![Datum::Int(i % 1_000), Datum::Int(i)]);
    allocs_per_record(job(), ft, row, |out| out == ROWS as u64) - OPERATOR_ALLOCS_PER_RECORD
}

fn assert_within_budget(mode: &str, per_record: f64) {
    assert!(
        per_record <= ENGINE_BUDGET_PER_RECORD,
        "{mode}: {per_record:.2} engine-owned allocator calls per input record, \
         budget {ENGINE_BUDGET_PER_RECORD}"
    );
    // The window really covers the run: it holds the operators' own rows.
    assert!(per_record >= 0.0, "{mode}: {per_record:.2}: fewer than the operators' own rows");
}

/// Immediate (deduplicating) sink, causal and in-flight logs on.
#[test]
fn clonos_record_path_stays_within_allocation_budget() {
    let ft = FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full));
    assert_within_budget("clonos", engine_allocs_per_record(ft));
}

/// Transactional sink: records wait in `pending` for the epoch's cut.
#[test]
fn global_rollback_record_path_stays_within_allocation_budget() {
    assert_within_budget("global rollback", engine_allocs_per_record(FtMode::GlobalRollback));
}

/// src → keyed running sum (`ReduceOp`) → sliding event-time count over 1 s
/// windows every 0.5 s (`WindowOp`) → sink: the state path of a keyed
/// aggregation. Every record is read and written back once by the sum and
/// folded into two windows.
fn keyed_state_job() -> JobGraph {
    let mut g = JobGraph::new("alloc-budget-state");
    let spec = SourceSpec::new("in").rate(10_000).key_field(0).timestamps(TimestampMode::EventTimeField(2));
    let src = g.add_source("src", PARALLELISM, spec);
    let sum = g.add_operator(
        "sum",
        PARALLELISM,
        factory(|| {
            ReduceOp::new(|acc: Option<&Row>, row: &Row| {
                let sum = acc.map_or(0, |acc| acc.int(0)) + row.int(1);
                Row::new(vec![Datum::Int(sum)])
            })
        }),
    );
    let window = g.add_operator(
        "window",
        PARALLELISM,
        factory(|| WindowOp::sliding(WindowTime::Event, 1_000_000, 500_000, WindowAggregate::Count)),
    );
    let sink = g.add_sink("sink", PARALLELISM, SinkSpec { topic: "out".into() });
    g.connect(src, sum, Partitioning::Hash);
    g.connect(sum, window, Partitioning::Hash);
    g.connect(window, sink, Partitioning::Hash);
    g
}

/// Keyed value and window state are read and written in place: besides the
/// sum's own new row, the state path allocates per window and per key, not
/// per record. A copy of the row per record at any of the three state
/// writes (the sum's write-back, either window) costs one more per record.
/// Measured 1.19 when the budget was set; 6.14 with the rows buffered per
/// window and the write-back copied.
#[test]
fn keyed_state_path_stays_within_allocation_budget() {
    /// The sum's own row, plus the engine's budget.
    const BUDGET: f64 = 1.0 + ENGINE_BUDGET_PER_RECORD;
    let ft = FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full));
    // Rows `[key, value, event time]`, 100 keys, 100 µs apart: six seconds
    // of event time, about a dozen fired windows per key.
    let row = |i| Row::new(vec![Datum::Int(i % 100), Datum::Int(i), Datum::Int(i * 100)]);
    let per_record = allocs_per_record(keyed_state_job(), ft, row, |out| out > 500);
    assert!(
        per_record <= BUDGET,
        "{per_record:.2} allocator calls per input record, budget {BUDGET}"
    );
}

/// The receiving side of the determinant exchange keeps determinants as
/// bytes: ingesting a delta allocates for arena chunks (one per 4 KiB) and
/// for the amortised growth of the index and the tail writer, never per
/// entry — a payload-carrying determinant (nexmark Q13 logs one `External`
/// per record) used to cost a `Vec` each.
#[test]
fn ingesting_payload_determinants_allocates_per_chunk_not_per_entry() {
    use clonos::causal_log::CausalLogManager;
    use clonos::determinant::Determinant;

    const ENTRIES: u64 = 1_000;
    let mut up = CausalLogManager::new(1, 1, 1);
    for i in 0..ENTRIES {
        up.record(Determinant::External { payload: i.to_le_bytes().to_vec() });
    }
    let delta = up.collect_delta(0);
    let mut down = CausalLogManager::new(2, 0, 1);
    let before = calls();
    let added = down.ingest_delta(&delta).expect("delta from collect_delta");
    let during = calls() - before;
    assert_eq!(added, ENTRIES);
    assert_eq!(down.export_replica(1).expect("replica of task 1"), up.own_snapshot());
    // 11 KB of entries: 2 sealed chunks, the replica's table entries, and
    // the doublings of a 1 000-entry index and a 4 KiB writer.
    assert!(during <= 32, "{during} allocator calls to ingest {ENTRIES} entries");
}
