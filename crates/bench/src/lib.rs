//! Shared harness utilities for the figure/table-regenerating binaries:
//! configuration factories, the synthetic workload of §7.2, and plain-text
//! table/series printing.

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_engine::operator::OpCtx;
use clonos_engine::operators::ProcessOp;
use clonos_engine::*;
use clonos_nexmark::{build_query, populate_topics, GeneratorConfig, QueryId};
use clonos_sim::{VirtualDuration, VirtualTime};

/// The three configurations of Figure 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Config {
    Flink,
    ClonosDsd1,
    ClonosFull,
}

impl Config {
    pub fn label(self) -> &'static str {
        match self {
            Config::Flink => "Flink",
            Config::ClonosDsd1 => "Clonos (DSD=1)",
            Config::ClonosFull => "Clonos (DSD=Full)",
        }
    }

    pub fn ft(self) -> FtMode {
        match self {
            Config::Flink => FtMode::GlobalRollback,
            Config::ClonosDsd1 => FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Depth(1))),
            Config::ClonosFull => FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)),
        }
    }
}

/// Run one Nexmark query in one configuration; no failures.
pub fn run_query(q: QueryId, cfg: Config, seed: u64, p: usize, events: usize, secs: u64) -> RunReport {
    let job = build_query(q, p, 5_000);
    let ecfg = EngineConfig::default().with_seed(seed).with_ft(cfg.ft());
    let mut runner = JobRunner::new(job, ecfg);
    populate_topics(&mut runner, events, GeneratorConfig { seed, ..Default::default() });
    runner.run_for(VirtualDuration::from_secs(secs))
}

/// Populate a query's topics with enough events to feed its sources at full
/// rate for `secs` virtual seconds. Generates Nexmark events in proportion
/// and keeps only what each topic needs.
pub fn populate_for(runner: &mut JobRunner, seed: u64, p: usize, rate: u64, secs: u64) {
    let need = |per_inst: u64| (per_inst * p as u64 * secs) as usize;
    let needs = [
        ("persons", need(rate / 10)),
        ("auctions", need(rate / 5)),
        ("bids", need(rate)),
    ];
    let mut gen = clonos_nexmark::NexmarkGenerator::new(GeneratorConfig {
        seed,
        ..Default::default()
    });
    let mut have = [0usize; 3];
    let active: Vec<bool> =
        needs.iter().map(|(t, _)| runner.cluster.topic(t).is_some()).collect();
    let mut round = 0;
    while needs
        .iter()
        .enumerate()
        .any(|(i, &(_, n))| active[i] && have[i] < n)
    {
        round += 1;
        assert!(round < 10_000, "generator starved");
        let (persons, auctions, bids) = gen.generate(100_000);
        for (i, rows) in [persons, auctions, bids].into_iter().enumerate() {
            let (topic, need_n) = needs[i];
            if !active[i] || have[i] >= need_n {
                continue;
            }
            let take = (need_n - have[i]).min(rows.len());
            let parts = runner.cluster.topic(topic).map(|t| t.num_partitions()).unwrap_or(1);
            for part in 0..parts {
                let slice: Vec<Row> =
                    rows[..take].iter().skip(part).step_by(parts).cloned().collect();
                runner.populate(topic, part, slice);
            }
            have[i] += take;
        }
    }
}

/// Run one Nexmark query with failure injection, with inputs sized to keep
/// the sources busy for the whole experiment.
#[allow(clippy::too_many_arguments)]
pub fn run_query_with_kills(
    q: QueryId,
    cfg: Config,
    seed: u64,
    p: usize,
    rate: u64,
    secs: u64,
    kills: &[(u64, u64)],
    engine_tweak: impl FnOnce(&mut EngineConfig),
) -> RunReport {
    let job = build_query(q, p, rate);
    let mut ecfg = EngineConfig::default().with_seed(seed).with_ft(cfg.ft());
    engine_tweak(&mut ecfg);
    let mut runner = JobRunner::new(job, ecfg);
    populate_for(&mut runner, seed, p, rate, secs);
    let mut plan = FailurePlan::none();
    for &(at, t) in kills {
        plan = plan.kill_at(VirtualTime(at), t);
    }
    runner.with_failures(plan).run_for(VirtualDuration::from_secs(secs))
}

/// The §7.2/7.4 synthetic workload: a chain of `depth` keyed stateful
/// stages at the given parallelism, fed from one source vertex. Each stage
/// does a small stateful update plus a wall-clock read (so it is
/// nondeterministic and carries per-record state).
pub fn synthetic_chain(depth: usize, parallelism: usize, rate: u64) -> JobGraph {
    let mut g = JobGraph::new(format!("synthetic-d{depth}-p{parallelism}"));
    let src = g.add_source("src", parallelism, SourceSpec::new("in").rate(rate).key_field(0));
    let mut prev = src;
    for d in 0..depth.saturating_sub(1) {
        let stage = g.add_operator(
            &format!("stage{d}"),
            parallelism,
            factory(|| {
                ProcessOp::new(|_input, rec: &Record, ctx: &mut OpCtx<'_>| {
                    // Stateful per-key counter + a nondeterministic read.
                    let count = ctx
                        .state
                        .value(9, rec.key)
                        .map(|r| r.int(0))
                        .unwrap_or(0)
                        + 1;
                    ctx.state.set_value(9, rec.key, Row::new(vec![Datum::Int(count)]));
                    // Nondeterministic read (the reason Clonos must log) plus
                    // the stateful counter, both observable at the sink.
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
    let sink = g.add_sink("sink", parallelism, SinkSpec { topic: "out".into() });
    g.connect(prev, sink, Partitioning::Hash);
    g
}

/// Rows for the synthetic chain: `[key, value]` pairs.
pub fn synthetic_rows(n: i64, keys: i64) -> Vec<Row> {
    (0..n).map(|i| Row::new(vec![Datum::Int(i % keys), Datum::Int(i)])).collect()
}

/// Run the synthetic chain.
#[allow(clippy::too_many_arguments)]
pub fn run_synthetic(
    depth: usize,
    parallelism: usize,
    ft: FtMode,
    seed: u64,
    rate: u64,
    secs: u64,
    kills: &[(u64, u64)],
    engine_tweak: impl FnOnce(&mut EngineConfig),
) -> RunReport {
    // Leave a drain margin: input runs out ~8 s before the experiment ends
    // so that tail records are not still in flight at the measurement cutoff.
    let events = (rate * parallelism as u64 * secs.saturating_sub(8)) as i64;
    let job = synthetic_chain(depth, parallelism, rate);
    let mut cfg = EngineConfig::default().with_seed(seed).with_ft(ft);
    engine_tweak(&mut cfg);
    let mut runner = JobRunner::new(job, cfg);
    let rows = synthetic_rows(events, 100);
    let parts = runner.cluster.topic("in").map(|t| t.num_partitions()).unwrap_or(1);
    for p in 0..parts {
        let slice: Vec<Row> = rows.iter().skip(p).step_by(parts).cloned().collect();
        runner.populate("in", p, slice);
    }
    let mut plan = FailurePlan::none();
    for &(at, t) in kills {
        plan = plan.kill_at(VirtualTime(at), t);
    }
    runner.with_failures(plan).run_for(VirtualDuration::from_secs(secs))
}

// ---------------------------------------------------------------------
// Plain-text reporting
// ---------------------------------------------------------------------

/// Print a header + aligned rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header.iter().map(|s| s.to_string()).collect()));
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// Downsample and print a `(time, value)` series as rows.
pub fn print_series(title: &str, series: &[(VirtualTime, f64)], max_rows: usize) {
    println!("\n-- {title} --");
    let step = (series.len() / max_rows.max(1)).max(1);
    for chunk in series.chunks(step) {
        let t = chunk[0].0;
        let mean = chunk.iter().map(|&(_, v)| v).sum::<f64>() / chunk.len() as f64;
        println!("{:>10.3}s  {:>12.4}", t.as_secs_f64(), mean);
    }
}

/// Mean throughput over a time window, from a report's bucketed series.
pub fn mean_rate(report: &RunReport, from_s: u64, to_s: u64) -> f64 {
    let from = VirtualTime(from_s * 1_000_000);
    let to = VirtualTime(to_s * 1_000_000);
    let pts: Vec<f64> = report
        .throughput
        .iter()
        .filter(|&&(t, _)| t >= from && t < to)
        .map(|&(_, v)| v)
        .collect();
    if pts.is_empty() {
        0.0
    } else {
        pts.iter().sum::<f64>() / pts.len() as f64
    }
}
