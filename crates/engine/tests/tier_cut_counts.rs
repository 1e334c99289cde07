//! The tiered backend's structural facts, as exact counts in tier-1: a
//! checkpoint cut seals one segment, written once, a read that finds its row
//! resident is one lookup with no allocation, and the bytes a barrier ships
//! follow the dirty set, not the total state.
//!
//! The allocator (`common`) counts per thread, so tests of this binary do not
//! see each other's or the harness's allocations.

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_engine::operators::ReduceOp;
use clonos_engine::state::StateStore;
use clonos_engine::*;
use clonos_sim::{VirtualDuration, VirtualTime};
use clonos_storage::{ByteWriter, SnapshotStore, TieredConfig};

mod common;
use common::{calls, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

const PARALLELISM: usize = 2;

fn row(v: i64) -> Row {
    Row::new(vec![Datum::Int(v)])
}

/// src → keyed running sum → sink, under a 4 KiB resident budget per task.
/// The sources hold more input than the run consumes, so every barrier cuts
/// dirty values in both `sum` subtasks.
#[test]
fn a_cut_seals_one_segment_per_stateful_task() {
    let mut g = JobGraph::new("tier-cuts");
    let src = g.add_source("src", PARALLELISM, SourceSpec::new("in").rate(4_000).key_field(0));
    let sum = g.add_operator(
        "sum",
        PARALLELISM,
        factory(|| {
            ReduceOp::new(|acc: Option<&Row>, row: &Row| {
                let prev = acc.map_or(0, |a| a.int(1));
                Row::new(vec![row.0[0].clone(), Datum::Int(prev + row.int(1))])
            })
        }),
    );
    let sink = g.add_sink("sink", PARALLELISM, SinkSpec { topic: "out".into() });
    g.connect(src, sum, Partitioning::Hash);
    g.connect(sum, sink, Partitioning::Hash);

    let mut cfg = EngineConfig::default()
        .with_seed(11)
        .with_ft(FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Depth(1))));
    cfg.checkpoint_interval = VirtualDuration::from_secs(1);
    cfg.state_memory_budget = 4 * 1024;
    let mut runner = JobRunner::new(g, cfg);
    for p in 0..PARALLELISM {
        // A multiplicative hash spreads the keys over 2 000 values.
        let rows = (0..60_000i64)
            .map(|i| Row::new(vec![Datum::Int(i.wrapping_mul(2_654_435_761) % 2_000), Datum::Int(1)]));
        runner.populate("in", p, rows);
    }
    // Barriers at 1 s, 2 s, ..; each completes within milliseconds.
    let report = runner.run_for(VirtualDuration::from_micros(9_500_000));
    let cuts = report.last_completed_checkpoint;
    assert_eq!(cuts, 9);
    assert!(report.records_in < 2 * 60_000, "input outlasts the run");

    let stats = report.state_backend_stats;
    let stateful = PARALLELISM as u64;
    assert_eq!(stats.tiered_tasks, 3 * stateful, "every task runs the tiered store");
    assert_eq!(stats.flushes, stateful * cuts, "one sealed segment per stateful task per cut");
    let fanout = TieredConfig::default().level_fanout as u64;
    assert!(
        stats.compactions <= stateful * cuts.div_ceil(fanout),
        "{} compactions for {cuts} seals per task at fanout {fanout}",
        stats.compactions
    );
    assert!(stats.evictions > 0 && stats.faults > 0, "the budget binds: {stats:?}");
}

/// Allocator calls inside the barrier step do not scale with the dirty rows:
/// the image is written into a reused buffer and frozen once, and the only
/// per-entry cost left is the sparse index's owned key, one per
/// `index_every` entries.
#[test]
fn tier_sync_allocates_per_cut_not_per_dirty_row() {
    const DIRTY: u64 = 4_000;
    let mut store = StateStore::new();
    store.enable_tiering(64 * 1024, 0);
    let mut sync = |round: i64| {
        for key in 0..DIRTY {
            store.set_value(0, key * 7, row(round));
        }
        let before = calls();
        assert_eq!(store.tier_sync_dirty(), DIRTY);
        calls() - before
    };
    sync(0); // buffers grow to their working size
    let per_cut = sync(1);
    let index_keys = DIRTY / TieredConfig::default().index_every as u64;
    assert!(
        per_cut <= index_keys + 10,
        "{per_cut} allocator calls to sync {DIRTY} dirty rows ({index_keys} index keys)"
    );
}

/// A read of a resident clean row sets a bit; it allocates nothing.
#[test]
fn a_hit_on_a_resident_clean_row_does_not_allocate() {
    let mut store = StateStore::new();
    store.enable_tiering(1 << 20, 0);
    for key in 0..1_000 {
        store.set_value(0, key, row(key as i64));
    }
    store.tier_sync_dirty(); // every row clean, none evicted
    let before = calls();
    let mut sum = 0;
    for round in 0..3 {
        for key in 0..1_000 {
            sum += store.value(0, (key * 7 + round) % 1_000).map_or(0, |r| r.int(0));
        }
    }
    assert_eq!(calls() - before, 0, "allocator calls over 3 000 hits");
    assert_eq!(sum, 3 * (0..1_000).sum::<i64>());
    assert_eq!(store.backend_stats().faults, 0);
}

fn keyed_row(key: u64, epoch: u64) -> Row {
    Row::new(vec![
        Datum::Int((key.wrapping_mul(0x9E3779B97F4A7C15) ^ epoch) as i64),
        Datum::Int((key + epoch) as i64),
    ])
}

/// The image layer a tiered task acks beside its segments: everything but
/// the values section, full or dirty, consuming the change log.
fn resident_layer(store: &mut StateStore, full: bool) -> bytes::Bytes {
    let mut w = ByteWriter::new();
    w.put_varint(store.entry_count(full));
    store.write_entries(full, &mut w);
    w.freeze()
}

/// Mean bytes one steady-state barrier ships from a tiered store of `keys`
/// keys (resident budget ≈ 10 % of the state) when each barrier dirties
/// `dirty` keys spread over the key space: sealed segment payloads, the
/// resident delta image, and the live-id listing. The first checkpoint, the
/// full base, is not counted. The last checkpoint is re-folded through a
/// `SnapshotStore` and must restore the live store's digest.
fn mean_shipped_per_barrier(keys: u64, dirty: u64, barriers: u64) -> f64 {
    let mut store = StateStore::new();
    // A two-int row weighs ≈ 46 resident bytes.
    store.enable_tiering((keys * 46 / 10).max(1024), 1 << 40);
    let mut snapshots = SnapshotStore::new();
    // Load in chunks, syncing per chunk, so the resident cache is the only
    // RAM the load ever holds.
    for chunk in (0..keys).step_by(100_000) {
        for key in chunk..(chunk + 100_000).min(keys) {
            store.set_value(0, key, keyed_row(key, 0));
        }
        store.tier_sync_dirty();
    }
    let (sealed, live) = (store.take_sealed_segments(), store.live_segments());
    snapshots.put_segments(0, 0, live, sealed);
    snapshots.put(VirtualTime(0), 0, 0, resident_layer(&mut store, true));

    let stride = (keys / dirty).max(1);
    let mut shipped = 0;
    for b in 1..=barriers {
        for i in 0..dirty {
            let key = (b % stride + i * stride) % keys;
            store.set_value(0, key, keyed_row(key, b));
        }
        store.tier_sync_dirty();
        let (sealed, live) = (store.take_sealed_segments(), store.live_segments());
        assert_eq!(store.backend_stats().segments_live, live.len() as u64);
        let image = resident_layer(&mut store, false);
        shipped += sealed.iter().map(|(_, p)| p.len() as u64).sum::<u64>()
            + image.len() as u64
            + 8 * live.len() as u64;
        snapshots.put_segments(b, 0, live, sealed);
        snapshots.put(VirtualTime(0), b, 0, image);
    }

    // A single-blob fold is canonical only over a full resident image.
    snapshots.put(VirtualTime(0), barriers, 0, resident_layer(&mut store, true));
    let (folded, _) = snapshots.get(VirtualTime(0), barriers, 0).expect("last checkpoint folds");
    let restored = StateStore::restore(&folded).expect("folded image decodes");
    assert_eq!(restored.digest(), store.digest(), "{keys} keys: restore diverges from live");
    shipped as f64 / barriers as f64
}

/// `ceiling` bounds the shipped-bytes ratio of `large` over `small` keys at
/// the same dirty set: O(dirty), not O(state).
fn assert_shipped_bytes_follow_dirty_set(
    (small, large): (u64, u64),
    dirty: u64,
    barriers: u64,
    ceiling: f64,
) {
    let s = mean_shipped_per_barrier(small, dirty, barriers);
    let l = mean_shipped_per_barrier(large, dirty, barriers);
    let ratio = l / s;
    assert!(
        ratio <= ceiling,
        "{large} keys ship {l:.0} B a barrier, {small} keys {s:.0} B: {ratio:.2}x > {ceiling}x"
    );
}

#[test]
fn shipped_bytes_per_barrier_follow_the_dirty_set_at_1e5_keys() {
    assert_shipped_bytes_follow_dirty_set((10_000, 100_000), 1_000, 12, 2.5);
}

/// The same property at 10^7 keys (≈ 50 s in a release build on a 2-vCPU
/// host). Fails today at 18.04×: `compact_into_next` folds a level of
/// equal-sized corpus chunks into one segment, and the barrier that seals it
/// ships the whole corpus.
#[test]
#[ignore = "full scale: run with --release -- --ignored"]
fn shipped_bytes_per_barrier_follow_the_dirty_set_at_1e7_keys() {
    assert_shipped_bytes_follow_dirty_set((100_000, 10_000_000), 10_000, 32, 2.0);
}
