//! Real-time fraud detection — the paper's motivating workload class: an
//! event-driven pipeline whose scoring UDF is *nondeterministic*: it calls
//! an external risk service, reads the wall clock, and draws random audit
//! samples. Classic local recovery schemes cannot replay such an operator
//! consistently; Clonos logs every nondeterministic outcome and reproduces
//! it after the failure.
//!
//! Run with: `cargo run -p clonos-integration --release --example fraud_detection`

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_engine::operator::OpCtx;
use clonos_engine::operators::ProcessOp;
use clonos_engine::*;
use clonos_sim::{VirtualDuration, VirtualTime};

fn main() {
    let mut graph = JobGraph::new("fraud-detection");
    // Transactions: [account, amount_cents]
    let src = graph.add_source(
        "transactions",
        2,
        SourceSpec::new("transactions").rate(4_000).key_field(0),
    );
    let scorer = graph.add_operator(
        "risk-scorer",
        2,
        factory(|| {
            ProcessOp::new(|_input, tx: &Record, ctx: &mut OpCtx<'_>| {
                let account = tx.row.int(0);
                let amount = tx.row.int(1);
                // Nondeterminism #1: external risk service (stock-price-like
                // signal that changes over time).
                let risk = ctx.external_get(account as u64)?;
                // Nondeterminism #2: wall-clock decision deadline.
                let scored_at = ctx.timestamp()?;
                // Nondeterminism #3: random audit sampling.
                let audited = ctx.random(100) < 5;
                // Stateful per-account running total.
                let total = ctx.state.value(0, tx.key).map(|r| r.int(0)).unwrap_or(0) + amount;
                ctx.state.set_value(0, tx.key, Row::new(vec![Datum::Int(total)]));
                let flagged = amount > 8_000 || (risk > 90_000 && total > 50_000);
                ctx.emit(
                    tx.key,
                    tx.event_time,
                    Row::new(vec![
                        Datum::Int(account),
                        Datum::Int(amount),
                        Datum::Int(risk),
                        Datum::Int(scored_at as i64),
                        Datum::Bool(flagged),
                        Datum::Bool(audited),
                    ]),
                );
                Ok(())
            })
        }),
    );
    let sink = graph.add_sink("alerts", 2, SinkSpec { topic: "alerts".into() });
    graph.connect(src, scorer, Partitioning::Hash);
    graph.connect(scorer, sink, Partitioning::Hash);

    let config = EngineConfig::default()
        .with_seed(2026)
        .with_ft(FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)));
    let mut runner = JobRunner::new(graph, config);
    for p in 0..2 {
        runner.populate(
            "transactions",
            p,
            (0..80_000i64)
                .filter(|i| (*i as usize) % 2 == p)
                .map(|i| Row::new(vec![Datum::Int(i % 500), Datum::Int((i * 37) % 10_000)])),
        );
    }

    // Kill one scorer instance mid-epoch; the standby must reproduce the
    // *same* risk values / timestamps / audit flags during replay.
    let report = runner
        .with_failures(FailurePlan::none().kill_at(VirtualTime(8_200_000), 3))
        .run_for(VirtualDuration::from_secs(30));

    let flagged = report
        .sink_output
        .iter()
        .filter(|(_, _, rec)| matches!(rec.row.get(4), Datum::Bool(true)))
        .count();
    let audited = report
        .sink_output
        .iter()
        .filter(|(_, _, rec)| matches!(rec.row.get(5), Datum::Bool(true)))
        .count();
    println!("transactions scored : {}", report.records_out);
    println!("fraud alerts        : {flagged}");
    println!("audit samples       : {audited}");
    println!("duplicates          : {}", report.duplicate_idents().len());
    println!("losses              : {}", report.ident_gaps().len());
    let recovery = |e: &&Event| {
        !matches!(e.kind, Kind::TriggerCheckpoint | Kind::CheckpointAck | Kind::CheckpointComplete)
    };
    for e in report.causal_events.iter().filter(recovery) {
        println!("  {} {e}", e.at);
    }
    assert!(report.duplicate_idents().is_empty());
    assert!(report.ident_gaps().is_empty());
    println!("\n✓ every alert was raised exactly once despite the failure —");
    println!("✓ external calls were not re-issued; replay used the causal log.");
}
