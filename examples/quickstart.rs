//! Quickstart: build a small streaming job, run it on the simulated cluster
//! with Clonos fault tolerance, kill an operator mid-run, and verify that
//! the output is exactly-once anyway.
//!
//! Run with: `cargo run -p clonos-integration --release --example quickstart`

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_engine::operators::map_op;
use clonos_engine::*;
use clonos_sim::{VirtualDuration, VirtualTime};

fn main() {
    // 1. Describe the dataflow: source → map → sink.
    let mut graph = JobGraph::new("quickstart");
    let src = graph.add_source(
        "numbers",
        1,
        SourceSpec::new("numbers").rate(5_000).key_field(0),
    );
    let doubler = graph.add_operator(
        "double",
        1,
        map_op(|rec| {
            let v = rec.row.int(1);
            (rec.key, Row::new(vec![Datum::Int(v), Datum::Int(v * 2)]))
        }),
    );
    let sink = graph.add_sink("out", 1, SinkSpec { topic: "out".into() });
    graph.connect(src, doubler, Partitioning::Forward);
    graph.connect(doubler, sink, Partitioning::Hash);

    // 2. Configure the engine with Clonos exactly-once fault tolerance.
    let config = EngineConfig::default()
        .with_seed(7)
        .with_ft(FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)));

    // 3. Load input into the durable source topic.
    let mut runner = JobRunner::new(graph, config);
    runner.populate(
        "numbers",
        0,
        (0..60_000i64).map(|i| Row::new(vec![Datum::Int(i % 10), Datum::Int(i)])),
    );

    // 4. Kill the map operator 7 s in (after the first checkpoint), then run.
    let report = runner
        .with_failures(FailurePlan::none().kill_at(VirtualTime(7_000_000), 2))
        .run_for(VirtualDuration::from_secs(25));

    // 5. Inspect the outcome.
    println!("trace:");
    for e in &report.causal_events {
        println!("  {} {e}", e.at);
    }
    println!("\ningested : {}", report.records_in);
    println!("committed: {}", report.records_out);
    println!("dup idents: {:?}", report.duplicate_idents());
    println!("lost      : {:?}", report.ident_gaps());
    println!(
        "p50 latency: {:?}   p99: {:?}",
        report.latency_p50, report.latency_p99
    );
    assert_eq!(report.records_in, report.records_out, "exactly-once violated!");
    assert!(report.duplicate_idents().is_empty());
    assert!(report.ident_gaps().is_empty());
    println!("\n✓ the operator failed, a standby took over, the epoch was replayed");
    println!("✓ causally, and every record was committed exactly once.");
}
