//! Integration coverage for the encode-once hot paths: the record router
//! must never deep-clone records (even under broadcast fanout) and delta
//! collection must never re-encode a stored determinant. Both invariants
//! are observable through `RunReport` counters.

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_engine::operators::map_op;
use clonos_engine::*;
use clonos_sim::VirtualDuration;

/// src → stage —broadcast→ fan(×3) → sink: every stage record is routed to
/// all three downstream instances.
fn broadcast_job(rate: u64) -> JobGraph {
    let mut g = JobGraph::new("broadcast-counters");
    let src = g.add_source("src", 1, SourceSpec::new("in").rate(rate).key_field(0));
    let stage = g.add_operator("stage", 1, map_op(|rec| (rec.key, rec.row.clone())));
    let fan = g.add_operator(
        "fan",
        3,
        map_op(|rec| (rec.key, Row::new(vec![Datum::Int(rec.row.int(0)), Datum::Int(1)]))),
    );
    let snk = g.add_sink("out", 1, SinkSpec { topic: "out".into() });
    g.connect(src, stage, Partitioning::Forward);
    g.connect(stage, fan, Partitioning::Broadcast);
    g.connect(fan, snk, Partitioning::Hash);
    g
}

#[test]
fn broadcast_routes_encode_once_and_deltas_ship_arena_bytes() {
    let cfg = EngineConfig::default()
        .with_seed(13)
        .with_ft(FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Depth(1))));
    let mut runner = JobRunner::new(broadcast_job(5_000), cfg);
    let rows: Vec<Row> =
        (0..3_000).map(|i| Row::new(vec![Datum::Int(i % 40), Datum::Int(i)])).collect();
    runner.populate("in", 0, rows);
    let report = runner.run_for(VirtualDuration::from_secs(10));

    assert_eq!(report.records_in, 3_000);
    assert!(report.records_out > 0, "sink should commit output");

    let r = report.routing_stats;
    assert!(r.records_routed > 0, "router should have seen records");
    // Encode-once: one serialization per routed record — broadcast shares
    // the encoded payload across destination channels.
    assert_eq!(r.route_encodes, r.records_routed, "exactly one encode per routed record");
    // The broadcast stage writes each record to all 3 'fan' instances, so
    // job-wide channel writes must exceed routed records.
    assert!(
        r.channel_writes > r.records_routed,
        "broadcast fanout should multiply channel writes ({} vs {})",
        r.channel_writes,
        r.records_routed
    );

    let l = report.log_stats;
    assert!(l.determinants_recorded > 0, "causal logging should be active");
    assert!(l.delta_entries_shipped > 0, "deltas should piggyback downstream");
    // Encode-once for determinants: shipped delta entries are copied out of
    // the encoded arena (`core/tests/properties.rs` proves the bytes equal
    // the per-entry encoder's).
    assert!(l.delta_bytes_memcpy > 0, "deltas should ship arena bytes");
    // Recorded determinants are encoded once, at append; ingested ones are
    // copied as wire bytes, not encoded again.
    assert_eq!(l.entries_encoded, l.determinants_recorded);
    assert!(l.entries_ingested > 0, "replicas should hold upstream determinants");
    // A resync drops a replica's resident prefix; without a failure no
    // sender ever skips ahead of what a receiver holds.
    assert_eq!(l.gap_resyncs, 0, "failure-free run resynchronized a replica");
}

/// src → a → b → sink, p = 4, Hash edges, every record of source partition
/// `p` keyed `p`: each task sends records to one downstream instance (its
/// lane) and only barriers and watermarks to the other three.
fn lane_chain_report(dsd: SharingDepth) -> RunReport {
    const P: usize = 4;
    let mut g = JobGraph::new("lane-chain");
    let src = g.add_source("src", P, SourceSpec::new("in").rate(2_000).key_field(0));
    let a = g.add_operator("a", P, map_op(|rec| (rec.key, rec.row.clone())));
    let b = g.add_operator("b", P, map_op(|rec| (rec.key, rec.row.clone())));
    let snk = g.add_sink("out", P, SinkSpec { topic: "out".into() });
    g.connect(src, a, Partitioning::Hash);
    g.connect(a, b, Partitioning::Hash);
    g.connect(b, snk, Partitioning::Hash);
    let cfg = EngineConfig::default()
        .with_seed(17)
        .with_ft(FtMode::Clonos(ClonosConfig::exactly_once(dsd)));
    let mut runner = JobRunner::new(g, cfg);
    for p in 0..P {
        let rows: Vec<Row> = (0..16_000).map(|i| Row::new(vec![Datum::Int(p as i64), Datum::Int(i)])).collect();
        runner.populate("in", p, rows);
    }
    let report = runner.run_for(VirtualDuration::from_secs(20));
    assert_eq!(report.records_in, 4 * 16_000);
    assert!(report.last_completed_checkpoint >= 3, "the run should span several epochs");
    report
}

#[test]
fn forwarded_logs_ride_only_record_carrying_channels() {
    let l = lane_chain_report(SharingDepth::Full).log_stats;
    assert!(l.entries_ingested > 0, "replicas should hold upstream determinants");
    // Idle channels withheld forwarded logs from their barrier and
    // watermark buffers, so no receiver got an entry twice.
    assert!(l.forwards_withheld > 0, "no barrier-only buffer withheld a forwarded log");
    assert_eq!(l.held_spans_skipped, 0, "a receiver was sent a span it held");
    assert_eq!(l.delta_entries_shipped, l.entries_ingested, "a shipped entry was a copy the receiver held");
    assert_eq!(l.gap_resyncs, 0);
}

#[test]
fn dsd1_forwards_nothing_so_withholds_nothing() {
    let l = lane_chain_report(SharingDepth::Depth(1)).log_stats;
    assert!(l.entries_ingested > 0);
    assert_eq!(l.forwards_withheld, 0);
}
