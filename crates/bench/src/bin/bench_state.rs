//! **Tiered state backend: O(dirty) checkpoints with keyed state ≫ RAM.**
//!
//! Populates a tiered `StateStore` at 10^5 and 10^7 keys under a resident
//! budget of ~10% of total state, then runs steady-state barriers that each
//! dirty a fixed absolute number of keys. Per barrier it measures what the
//! checkpoint actually ships — sealed segment payloads, the resident delta
//! image, and the live-id listing — and asserts the O(dirty) property: the
//! mean shipped bytes per barrier at 10^7 keys must stay within 2x of the
//! 10^5-key cost (same dirty set size, 100x the total state). A final
//! `SnapshotStore` round-trip re-folds the shipped segments and verifies
//! the reconstruction digest against the live store. Writes
//! `BENCH_state.json`.
//!
//! Usage: `cargo run -p clonos-bench --release --bin bench_state`
//! (`BENCH_STATE_SMOKE=1` shrinks scales to {10^4, 10^5} for CI smoke runs,
//! which write `target/bench-smoke/state.json` instead.)

// Host-time measurement is this binary's purpose (clippy.toml wall-clock
// disallow list exempts measurement code explicitly).
#![allow(clippy::disallowed_methods)]

use bytes::Bytes;
use clonos_bench::print_table;
use clonos_engine::state::StateStore;
use clonos_engine::{Datum, Row as DataRow};
use clonos_sim::VirtualTime;
use clonos_storage::{ByteWriter, SnapshotStore};
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("BENCH_STATE_SMOKE").map(|v| v == "1").unwrap_or(false)
}

/// Rough per-entry resident weight of the two-int rows below; only used to
/// size the budget at ~10% of total state.
const APPROX_ENTRY_BYTES: u64 = 46;

fn row_for(key: u64, epoch: u64) -> DataRow {
    DataRow::new(vec![
        Datum::Int((key.wrapping_mul(0x9E3779B97F4A7C15) ^ epoch) as i64),
        Datum::Int((key + epoch) as i64),
    ])
}

struct Measurement {
    keys: u64,
    budget: u64,
    load_s: f64,
    mean_shipped: f64,
    max_shipped: u64,
    mean_sync_us: f64,
    segments_live: u64,
    segment_bytes: u64,
    faults: u64,
    evictions: u64,
    resident_bytes: u64,
}

/// The image layer a tiered task acks beside its segments: everything but
/// the values section, full or dirty, consuming the change log.
fn resident_layer(store: &mut StateStore, full: bool) -> Bytes {
    let mut w = ByteWriter::new();
    w.put_varint(store.entry_count(full));
    store.write_entries(full, &mut w);
    w.freeze()
}

fn measure(keys: u64, dirty_per_barrier: u64, barriers: u64) -> Measurement {
    let budget = (keys * APPROX_ENTRY_BYTES / 10).max(1024);
    let mut store = StateStore::new();
    store.enable_tiering(budget, 1 << 40);
    let mut snapshots = SnapshotStore::new();

    // Load in chunks, syncing per chunk so the resident cache (not an
    // untiered map) is the only RAM the populate phase ever holds.
    let t0 = Instant::now();
    let chunk = 100_000u64;
    let mut k = 0u64;
    while k < keys {
        let end = (k + chunk).min(keys);
        for key in k..end {
            store.set_value(0, key, row_for(key, 0));
        }
        store.tier_sync_dirty();
        k = end;
    }
    let load_s = t0.elapsed().as_secs_f64();

    // Barrier 0 is the full base: it ships the entire populated corpus (all
    // segments sealed during the load) plus the resident full image, exactly
    // like a task's first ack. Not part of the steady-state mean.
    let sealed = store.take_sealed_segments();
    let live = store.live_segments();
    snapshots.put_segments(0, 0, live, sealed);
    snapshots.put(VirtualTime(0), 0, 0, resident_layer(&mut store, true));

    // Steady state: each barrier dirties a fixed absolute number of keys
    // spread across the whole key space, then cuts segments the way
    // `Task::cut_tier_segments` does.
    let stride = (keys / dirty_per_barrier).max(1);
    let mut shipped_total = 0u64;
    let mut shipped_max = 0u64;
    let mut sync_ns_total = 0f64;
    for b in 1..=barriers {
        let mut written = 0u64;
        let mut key = b % stride;
        while written < dirty_per_barrier {
            store.set_value(0, key % keys, row_for(key % keys, b));
            key += stride;
            written += 1;
        }
        let t0 = Instant::now();
        store.tier_sync_dirty();
        let sealed = store.take_sealed_segments();
        let live = store.live_segments();
        let image = resident_layer(&mut store, false);
        sync_ns_total += t0.elapsed().as_nanos() as f64;
        let shipped = sealed.iter().map(|(_, p)| p.len() as u64).sum::<u64>()
            + image.len() as u64
            + 8 * live.len() as u64;
        shipped_total += shipped;
        shipped_max = shipped_max.max(shipped);
        snapshots.put_segments(b, 0, live, sealed);
        snapshots.put(VirtualTime(0), b, 0, image);
    }

    // Reconstruction check: re-fold the final checkpoint's shipped segments
    // and compare digests with the live store. The final resident image must
    // be the full one for a single-blob fold to be canonical.
    snapshots.put(VirtualTime(0), barriers, 0, resident_layer(&mut store, true));
    let (folded, _) =
        snapshots.get(VirtualTime(0), barriers, 0).expect("final checkpoint reconstructs");
    let restored = StateStore::restore(&folded).expect("folded image decodes");
    assert_eq!(
        restored.digest(),
        store.digest(),
        "{keys}-key reconstruction digest diverges from the live store"
    );

    let stats = store.backend_stats();
    Measurement {
        keys,
        budget,
        load_s,
        mean_shipped: shipped_total as f64 / barriers as f64,
        max_shipped: shipped_max,
        mean_sync_us: sync_ns_total / barriers as f64 / 1_000.0,
        segments_live: stats.segments_live,
        segment_bytes: stats.segment_bytes,
        faults: stats.faults,
        evictions: stats.evictions,
        resident_bytes: stats.resident_bytes,
    }
}

fn main() {
    let (scales, dirty, barriers, ceiling): (&[u64], u64, u64, f64) = if smoke() {
        (&[10_000, 100_000], 1_000, 12, 2.5)
    } else {
        (&[100_000, 10_000_000], 10_000, 32, 2.0)
    };

    let rows: Vec<Measurement> =
        scales.iter().map(|&keys| measure(keys, dirty, barriers)).collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|m| {
            vec![
                format!("{}", m.keys),
                format!("{}", m.budget),
                format!("{}", m.resident_bytes),
                format!("{:.1}", m.load_s),
                format!("{:.0}", m.mean_shipped),
                format!("{}", m.max_shipped),
                format!("{:.1}", m.mean_sync_us),
                format!("{}", m.segments_live),
                format!("{}", m.segment_bytes),
                format!("{}", m.faults),
                format!("{}", m.evictions),
            ]
        })
        .collect();
    print_table(
        "Tiered state backend: shipped bytes per barrier (fixed dirty set)",
        &[
            "keys",
            "budget B",
            "resident B",
            "load s",
            "mean ship B",
            "max ship B",
            "sync us",
            "segs",
            "seg B",
            "faults",
            "evicts",
        ],
        &table,
    );

    let small = rows.first().expect("two scales");
    let large = rows.last().expect("two scales");
    let ratio = large.mean_shipped / small.mean_shipped.max(1.0);
    println!(
        "\nshipped-bytes ratio {} vs {} keys at {dirty} dirty/barrier: {ratio:.2}x \
         (ceiling {ceiling:.2}x)",
        large.keys, small.keys
    );
    assert!(
        ratio <= ceiling,
        "O(dirty) regression: {}x total state costs {ratio:.2}x shipped bytes per barrier \
         (ceiling {ceiling:.2}x)",
        large.keys / small.keys
    );

    let json_rows: Vec<String> = rows
        .iter()
        .map(|m| {
            format!(
                "    {{\"keys\": {}, \"budget_bytes\": {}, \"resident_bytes\": {}, \
                 \"load_seconds\": {:.2}, \"mean_shipped_bytes\": {:.0}, \
                 \"max_shipped_bytes\": {}, \"mean_sync_us\": {:.1}, \
                 \"segments_live\": {}, \"segment_bytes\": {}, \"faults\": {}, \
                 \"evictions\": {}, \"verified\": true}}",
                m.keys,
                m.budget,
                m.resident_bytes,
                m.load_s,
                m.mean_shipped,
                m.max_shipped,
                m.mean_sync_us,
                m.segments_live,
                m.segment_bytes,
                m.faults,
                m.evictions
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"state\",\n  \"smoke\": {},\n  \"barriers\": {barriers},\n  \
         \"dirty_per_barrier\": {dirty},\n  \"shipped_ratio_large_vs_small\": {ratio:.3},\n  \
         \"shipped_ratio_ceiling\": {ceiling:.2},\n  \"rows\": [\n{}\n  ]\n}}\n",
        smoke(),
        json_rows.join(",\n")
    );
    clonos_bench::write_bench_json("state", smoke(), &json);
}
