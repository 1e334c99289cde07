//! The derived `RunReport` values, bit for bit: a fixed-seed two-lane job
//! with two sinks, one mid-epoch kill and a lossy recovery control plane
//! must report exactly the latency series, throughput windows, latency
//! percentiles, recovery time, output count and recovery counters the
//! digest below was recorded from. Any change to how the report derives
//! them from the run — sample order, window bucketing, percentile rank,
//! which trace entries a counter counts — moves it.

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_engine::metrics::RecoveryStats;
use clonos_engine::operators::ProcessOp;
use clonos_engine::*;
use clonos_sim::{VirtualDuration, VirtualTime};

const PARALLELISM: usize = 2;
const ROWS: i64 = 40_000;

/// src → one keyed counting stage that reads the causal clock → sink, two
/// lanes each, so two sinks interleave their samples.
fn job() -> JobGraph {
    let mut g = JobGraph::new("pinned-report");
    let src = g.add_source("src", PARALLELISM, SourceSpec::new("in").rate(2_000).key_field(0));
    let stage = g.add_operator(
        "count",
        PARALLELISM,
        factory(|| {
            ProcessOp::new(|_input, rec: &Record, ctx: &mut OpCtx<'_>| {
                let count = ctx.state.value(0, rec.key).map(|r| r.int(0)).unwrap_or(0) + 1;
                ctx.state.set_value(0, rec.key, Row::new(vec![Datum::Int(count)]));
                let _ts = ctx.timestamp()?;
                let row = Row::new(vec![rec.row.get(0).clone(), Datum::Int(count)]);
                ctx.emit(rec.key, rec.event_time, row);
                Ok(())
            })
        }),
    );
    let sink = g.add_sink("sink", PARALLELISM, SinkSpec { topic: "out".into() });
    g.connect(src, stage, Partitioning::Hash);
    g.connect(stage, sink, Partitioning::Hash);
    g
}

fn fnv1a(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3))
}

fn micros(d: Option<VirtualDuration>) -> u64 {
    d.map_or(u64::MAX, |d| d.as_micros())
}

/// One FNV-1a fold over the bit patterns of every derived report value.
fn digest(report: &RunReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for &(t, v) in report.latency_series.points() {
        h = fnv1a(fnv1a(h, t.as_micros()), v.to_bits());
    }
    for &(t, rate) in &report.throughput {
        h = fnv1a(fnv1a(h, t.as_micros()), rate.to_bits());
    }
    h = fnv1a(h, micros(report.latency_p50));
    h = fnv1a(h, micros(report.latency_p99));
    h = fnv1a(h, micros(report.recovery_time(1.1)));
    h = fnv1a(h, report.records_out);
    // Exhaustive: a new counter fails to compile here until it is pinned.
    let RecoveryStats {
        failures_detected,
        concurrent_failures,
        gather_retries,
        escalations,
        ctrl_dropped,
        ctrl_delayed,
        recoveries_completed,
        detection_latency_us_total,
        detection_samples,
    } = report.recovery_stats;
    for word in [
        failures_detected,
        concurrent_failures,
        gather_retries,
        escalations,
        ctrl_dropped,
        ctrl_delayed,
        recoveries_completed,
        detection_latency_us_total,
        detection_samples,
    ] {
        h = fnv1a(h, word);
    }
    h
}

#[test]
fn run_report_values_are_pinned() {
    let ft = FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full));
    let mut cfg = EngineConfig::default().with_seed(3).with_ft(ft);
    cfg.ctrl_loss_prob = 0.3;
    let mut runner = JobRunner::new(job(), cfg);
    for p in 0..PARALLELISM {
        let rows = (0..ROWS)
            .filter(|i| *i as usize % PARALLELISM == p)
            .map(|i| Row::new(vec![Datum::Int((i * 7919) % 101), Datum::Int(i)]));
        runner.populate("in", p, rows);
    }
    let plan = FailurePlan::none().kill_at(VirtualTime(7_500_000), 3);
    let report = runner.with_failures(plan).run_for(VirtualDuration::from_secs(20));
    let rs = &report.recovery_stats;
    assert!(report.records_out > 0 && report.recovery_time(1.1).is_some(), "{rs:?}");
    assert!(rs.failures_detected == 1 && rs.gather_retries == 1, "{rs:?}");
    assert_eq!(digest(&report), 9_483_003_027_604_446_899, "{rs:?}");
}
