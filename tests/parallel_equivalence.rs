//! Sim-scheduler vs multi-threaded-runtime equivalence: the same job on the
//! same inputs must produce the identical effective (read-committed) sink
//! output whichever scheduler drives it, failure-free.
//!
//! The workloads keep per-key processing order deterministic so the
//! comparison is byte-exact: pure keyed operators, hash edges, and a key
//! cardinality divisible by every parallelism used (each key then lives in
//! exactly one source partition, and per-pair FIFO links preserve its
//! record order end to end). Inputs are sized to drain fully well before
//! the horizon, so `records_in` must equal the row count on both sides.

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_bench::{synthetic_chain, synthetic_rows};
use clonos_engine::operators::ReduceOp;
use clonos_engine::*;
use clonos_integration::conformance::{assert_conformant, StaticSpec, Tolerances};
use clonos_sim::VirtualDuration;
use std::collections::BTreeMap;

const SEED: u64 = 23;
const RATE: u64 = 50_000;
const KEYS: i64 = 8; // divisible by every parallelism below
const ROWS: i64 = 4_000;
const SECS: u64 = 10;

/// Multiset of effective output rows, canonical bytes → count.
fn multiset(r: &RunReport) -> BTreeMap<bytes::Bytes, u64> {
    let mut m = BTreeMap::new();
    for b in r.output_multiset() {
        *m.entry(b).or_insert(0) += 1;
    }
    m
}

fn populate(runner: &mut JobRunner, rows: &[Row]) {
    let parts = runner.cluster.topic("in").expect("no input topic").num_partitions();
    for p in 0..parts {
        let slice: Vec<Row> = rows.iter().skip(p).step_by(parts).cloned().collect();
        runner.populate("in", p, slice);
    }
}

fn chain_runner(depth: usize, parallelism: usize, ft: FtMode) -> JobRunner {
    let job = synthetic_chain(depth, parallelism, RATE);
    let cfg = EngineConfig::default().with_seed(SEED).with_ft(ft);
    let mut runner = JobRunner::new(job, cfg);
    populate(&mut runner, &synthetic_rows(ROWS, KEYS));
    runner
}

/// src("in") → keyed running-sum (ReduceOp) → sink("out").
fn keyed_agg_runner(parallelism: usize, ft: FtMode) -> JobRunner {
    let mut g = JobGraph::new("keyed-agg");
    let src = g.add_source("src", parallelism, SourceSpec::new("in").rate(RATE).key_field(0));
    let agg = g.add_operator(
        "sum",
        parallelism,
        factory(|| {
            ReduceOp::new(|acc: Option<&Row>, row: &Row| {
                let prev = acc.map(|a| a.int(1)).unwrap_or(0);
                Row::new(vec![row.0[0].clone(), Datum::Int(prev + row.int(1))])
            })
        }),
    );
    g.connect(src, agg, Partitioning::Hash);
    let sink = g.add_sink("sink", parallelism, SinkSpec { topic: "out".into() });
    g.connect(agg, sink, Partitioning::Hash);
    let cfg = EngineConfig::default().with_seed(SEED).with_ft(ft);
    let mut runner = JobRunner::new(g, cfg);
    populate(&mut runner, &synthetic_rows(ROWS, KEYS));
    runner
}

fn assert_equivalent(sim: &RunReport, par: &RunReport) {
    // Fully drained on both sides — otherwise clock skew, not semantics,
    // could explain a mismatch.
    assert_eq!(sim.records_in, ROWS as u64, "sim run did not drain its input");
    assert_eq!(par.records_in, ROWS as u64, "parallel run did not drain its input");
    assert_eq!(sim.records_out, par.records_out, "record counts diverge");
    assert_eq!(multiset(sim), multiset(par), "effective sink output diverges");
    assert!(sim.duplicate_idents().is_empty());
    assert!(par.duplicate_idents().is_empty());
}

#[test]
fn chain_no_ft_two_wide_matches_sim() {
    let sim = chain_runner(3, 2, FtMode::None).run_for(VirtualDuration::from_secs(SECS));
    let par = chain_runner(3, 2, FtMode::None).run_parallel_for(
        VirtualDuration::from_secs(SECS),
        &ParallelConfig { workers: 4, ..ParallelConfig::default() },
    );
    assert_equivalent(&sim, &par);
    // Sim runs report zeroed runtime counters; parallel runs report theirs.
    assert_eq!(sim.runtime_stats, RuntimeStats::default());
    assert_eq!(par.runtime_stats.workers, 4);
    assert!(par.runtime_stats.max_worker_events > 0);
}

#[test]
fn chain_clonos_four_wide_matches_sim() {
    let ft = || FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full));
    let sim = chain_runner(5, 4, ft()).run_for(VirtualDuration::from_secs(SECS));
    let par = chain_runner(5, 4, ft()).run_parallel_for(
        VirtualDuration::from_secs(SECS),
        &ParallelConfig { workers: 4, ..ParallelConfig::default() },
    );
    assert_equivalent(&sim, &par);
    // Checkpoints completed under the parallel coordinator too.
    assert!(par.last_completed_checkpoint > 0, "no checkpoint completed in parallel run");
}

/// The threaded run is coordinated by the same job manager as the sim, so
/// its causal trace is checkable against the static spec (every
/// `CheckpointAck` resolves to a recorded `TriggerCheckpoint`, every barrier
/// completes) and its standbys are kept up to date.
#[test]
fn threaded_clonos_chain_trace_conforms_and_standbys_follow() {
    let ft = FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full));
    let par = chain_runner(5, 4, ft).run_parallel_for(
        VirtualDuration::from_secs(SECS),
        &ParallelConfig { workers: 4, ..ParallelConfig::default() },
    );
    for kind in ["TriggerCheckpoint", "CheckpointAck", "CheckpointComplete"] {
        assert!(par.causal_events.iter().any(|e| e.kind == kind), "trace never recorded {kind}");
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let tol = Tolerances { horizon: VirtualDuration::from_secs(SECS), ..Tolerances::oracle() };
    assert_conformant(&par, &StaticSpec::derive(&root), &tol, "threaded clonos chain");
    assert!(par.checkpoint_stats.delta_dispatches > 0, "no standby was brought up to date");
}

#[test]
fn keyed_aggregation_matches_sim() {
    let ft = || FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full));
    let sim = keyed_agg_runner(2, ft()).run_for(VirtualDuration::from_secs(SECS));
    let par = keyed_agg_runner(2, ft()).run_parallel_for(
        VirtualDuration::from_secs(SECS),
        &ParallelConfig { workers: 4, ..ParallelConfig::default() },
    );
    assert_equivalent(&sim, &par);
    assert_eq!(sim.records_out, ROWS as u64);
}

#[test]
fn worker_count_does_not_change_output() {
    let one = chain_runner(4, 4, FtMode::None).run_parallel_for(
        VirtualDuration::from_secs(SECS),
        &ParallelConfig { workers: 1, ..ParallelConfig::default() },
    );
    let eight = chain_runner(4, 4, FtMode::None).run_parallel_for(
        VirtualDuration::from_secs(SECS),
        &ParallelConfig { workers: 8, ..ParallelConfig::default() },
    );
    assert_eq!(one.records_in, ROWS as u64);
    assert_eq!(eight.records_in, ROWS as u64);
    assert_eq!(one.records_out, eight.records_out);
    assert_eq!(multiset(&one), multiset(&eight));
    assert_eq!(one.runtime_stats.workers, 1);
    assert_eq!(eight.runtime_stats.workers, 8);
    // A lone worker owns every cell: nothing to steal, no load to skew.
    let lone = one.runtime_stats;
    assert_eq!(lone.steals, 0, "{lone:?}");
    assert_eq!(lone.min_worker_events, lone.max_worker_events, "{lone:?}");
}

#[test]
fn tiny_mailboxes_backpressure_without_losing_records() {
    let par = chain_runner(4, 2, FtMode::None).run_parallel_for(
        VirtualDuration::from_secs(SECS),
        &ParallelConfig { workers: 2, mailbox_capacity: 4, quantum: 8 },
    );
    let sim = chain_runner(4, 2, FtMode::None).run_for(VirtualDuration::from_secs(SECS));
    assert_equivalent(&sim, &par);
    let rs = par.runtime_stats;
    assert!(rs.mailbox_depth_highwater <= 4, "mailbox bound violated: {rs:?}");
    // A stall is a send that found its destination full, so any stall means
    // some mailbox reached the bound.
    assert!(rs.mailbox_stalls == 0 || rs.mailbox_depth_highwater == 4, "{rs:?}");
}
