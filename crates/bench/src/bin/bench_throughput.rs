//! **Multi-threaded runtime scaling: records/sec vs worker threads.**
//!
//! Runs two failure-free workloads — the §7.2 synthetic chain (depth 4,
//! parallelism 8, keyed stateful stages) and a keyed running-sum
//! aggregation — on the sharded actor runtime, sweeping 1/2/4/8 worker
//! threads, plus a single-threaded sim-scheduler reference row. Reports
//! records/sec, speedup vs 1 worker, scaling efficiency, and the runtime's
//! own counters (steals, backpressure stalls, mailbox highwater, per-worker
//! event skew), and writes `BENCH_throughput.json`. The acceptance floor
//! for the runtime work is ≥3x records/sec at 8 workers vs 1 on the chain
//! workload, near-linear to 4.
//!
//! Usage: `cargo run -p clonos-bench --release --bin bench_throughput`
//! (`BENCH_THROUGHPUT_SMOKE=1` shrinks the workload for CI smoke runs and
//! additionally asserts the parallel record counts match a sim-scheduled
//! run of the same job; smoke runs write `target/bench-smoke/throughput.json`
//! instead.)

// Host-time measurement is this binary's purpose (clippy.toml wall-clock
// disallow list exempts measurement code explicitly).
#![allow(clippy::disallowed_methods)]

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_bench::{print_table, synthetic_chain, synthetic_rows};
use clonos_engine::operators::ReduceOp;
use clonos_engine::*;
use clonos_sim::VirtualDuration;

const SEED: u64 = 41;
const PARALLELISM: usize = 8;
const KEYS: i64 = 64; // divisible by PARALLELISM: keys stay partition-local
const RATE: u64 = 100_000;

fn smoke() -> bool {
    std::env::var("BENCH_THROUGHPUT_SMOKE").map(|v| v == "1").unwrap_or(false)
}

/// CPUs the OS will actually schedule us on. Scaling is bounded by this:
/// on a 1-core host every worker count produces the same throughput, so
/// the sweep measures overhead, not parallel speedup.
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn rows_total() -> i64 {
    if smoke() {
        4_000
    } else {
        200_000
    }
}

fn virtual_secs() -> u64 {
    if smoke() {
        10
    } else {
        30
    }
}

fn worker_sweep() -> &'static [usize] {
    if smoke() {
        &[2]
    } else {
        &[1, 2, 4, 8]
    }
}

fn ft() -> FtMode {
    FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full))
}

fn populate(runner: &mut JobRunner, rows: &[Row]) {
    let parts = runner.cluster.topic("in").expect("no input topic").num_partitions();
    for p in 0..parts {
        let slice: Vec<Row> = rows.iter().skip(p).step_by(parts).cloned().collect();
        runner.populate("in", p, slice);
    }
}

fn chain_runner() -> JobRunner {
    let job = synthetic_chain(4, PARALLELISM, RATE);
    let mut runner = JobRunner::new(job, EngineConfig::default().with_seed(SEED).with_ft(ft()));
    populate(&mut runner, &synthetic_rows(rows_total(), KEYS));
    runner
}

/// src("in") → keyed running-sum → sink("out"), all at PARALLELISM.
fn keyed_agg_runner() -> JobRunner {
    let mut g = JobGraph::new("keyed-agg");
    let src = g.add_source("src", PARALLELISM, SourceSpec::new("in").rate(RATE).key_field(0));
    let agg = g.add_operator(
        "sum",
        PARALLELISM,
        factory(|| {
            ReduceOp::new(|acc: Option<&Row>, row: &Row| {
                let prev = acc.map(|a| a.int(1)).unwrap_or(0);
                Row::new(vec![row.0[0].clone(), Datum::Int(prev + row.int(1))])
            })
        }),
    );
    g.connect(src, agg, Partitioning::Hash);
    let sink = g.add_sink("sink", PARALLELISM, SinkSpec { topic: "out".into() });
    g.connect(agg, sink, Partitioning::Hash);
    let mut runner = JobRunner::new(g, EngineConfig::default().with_seed(SEED).with_ft(ft()));
    populate(&mut runner, &synthetic_rows(rows_total(), KEYS));
    runner
}

type MakeRunner = fn() -> JobRunner;

struct Measurement {
    workload: &'static str,
    /// 0 = deterministic sim scheduler (single-threaded reference).
    workers: usize,
    records_out: u64,
    wall_seconds: f64,
    records_per_sec: f64,
    steals: u64,
    stalls: u64,
    mailbox_highwater: u64,
    min_worker_events: u64,
    max_worker_events: u64,
}

fn measure(workload: &'static str, make: MakeRunner, workers: usize) -> Measurement {
    let duration = VirtualDuration::from_secs(virtual_secs());
    let report = if workers == 0 {
        make().run_for(duration)
    } else {
        make().run_parallel_for(
            duration,
            &ParallelConfig { workers, ..ParallelConfig::default() },
        )
    };
    assert_eq!(
        report.records_in,
        rows_total() as u64,
        "{workload} did not drain its input ({} workers)",
        workers
    );
    assert!(report.duplicate_idents().is_empty(), "{workload} produced duplicates");
    let rs = report.runtime_stats;
    Measurement {
        workload,
        workers,
        records_out: report.records_out,
        wall_seconds: report.wall_seconds,
        records_per_sec: report.records_out as f64 / report.wall_seconds.max(1e-9),
        steals: rs.steals,
        stalls: rs.mailbox_stalls,
        mailbox_highwater: rs.mailbox_depth_highwater,
        min_worker_events: rs.min_worker_events,
        max_worker_events: rs.max_worker_events,
    }
}

/// Smoke gate: the parallel runtime must complete and match the record
/// counts of a sim-scheduled run of the same job and inputs.
fn smoke_check() {
    let duration = VirtualDuration::from_secs(virtual_secs());
    let sim = chain_runner().run_for(duration);
    let par = chain_runner().run_parallel_for(
        duration,
        &ParallelConfig { workers: 2, ..ParallelConfig::default() },
    );
    assert_eq!(sim.records_in, par.records_in, "smoke: records_in diverges from sim");
    assert_eq!(sim.records_out, par.records_out, "smoke: records_out diverges from sim");
    assert_eq!(par.runtime_stats.workers, 2);
    println!(
        "smoke: parallel runtime matches sim ({} in / {} out)",
        par.records_in, par.records_out
    );
}

fn main() {
    if smoke() {
        smoke_check();
    }

    let workloads: [(&'static str, MakeRunner); 2] =
        [("chain", chain_runner), ("keyed_agg", keyed_agg_runner)];
    let mut rows: Vec<Measurement> = Vec::new();
    for (name, make) in workloads {
        // Sim-scheduler reference first, then the worker sweep.
        rows.push(measure(name, make, 0));
        for &w in worker_sweep() {
            rows.push(measure(name, make, w));
        }
    }

    let base_rate = |workload: &str| {
        rows.iter()
            .find(|m| m.workload == workload && m.workers == 1)
            .map(|m| m.records_per_sec)
    };
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|m| {
            let speedup = base_rate(m.workload)
                .map(|b| m.records_per_sec / b.max(1e-9))
                .unwrap_or(f64::NAN);
            let eff = if m.workers > 0 { speedup / m.workers as f64 } else { f64::NAN };
            vec![
                m.workload.to_string(),
                if m.workers == 0 { "sim".into() } else { format!("{}", m.workers) },
                format!("{}", m.records_out),
                format!("{:.3}", m.wall_seconds),
                format!("{:.0}", m.records_per_sec),
                if speedup.is_nan() { "-".into() } else { format!("{speedup:.2}x") },
                if eff.is_nan() { "-".into() } else { format!("{:.0}%", eff * 100.0) },
                format!("{}", m.steals),
                format!("{}", m.stalls),
                format!("{}", m.mailbox_highwater),
            ]
        })
        .collect();
    print_table(
        "Sharded actor runtime: records/sec vs workers",
        &[
            "workload", "workers", "records", "wall s", "rec/s", "speedup", "eff",
            "steals", "stalls", "mbox hw",
        ],
        &table,
    );

    let chain_speedup_8w = rows
        .iter()
        .find(|m| m.workload == "chain" && m.workers == 8)
        .and_then(|m| base_rate("chain").map(|b| m.records_per_sec / b.max(1e-9)));
    match chain_speedup_8w {
        Some(s) => {
            println!("\nchain speedup at 8 workers vs 1: {s:.2}x (acceptance floor: 3.00x)");
            let cores = host_parallelism();
            if cores < 8 {
                println!(
                    "note: host schedules only {cores} CPU(s) — speedup is bounded by \
                     min(workers, host CPUs); the floor assumes an 8-core host"
                );
            }
        }
        None => println!("\nsmoke run: 8-worker acceptance configuration skipped"),
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|m| {
            let speedup = base_rate(m.workload)
                .map(|b| format!("{:.3}", m.records_per_sec / b.max(1e-9)))
                .unwrap_or_else(|| "null".into());
            let eff = if m.workers > 0 {
                base_rate(m.workload)
                    .map(|b| {
                        format!("{:.3}", m.records_per_sec / b.max(1e-9) / m.workers as f64)
                    })
                    .unwrap_or_else(|| "null".into())
            } else {
                "null".into()
            };
            format!(
                "    {{\"workload\": \"{}\", \"workers\": {}, \"records_out\": {}, \
                 \"wall_seconds\": {:.4}, \"records_per_sec\": {:.1}, \"speedup_vs_1w\": {}, \
                 \"scaling_efficiency\": {}, \"steals\": {}, \"mailbox_stalls\": {}, \
                 \"mailbox_depth_highwater\": {}, \"min_worker_events\": {}, \
                 \"max_worker_events\": {}}}",
                m.workload,
                m.workers,
                m.records_out,
                m.wall_seconds,
                m.records_per_sec,
                speedup,
                eff,
                m.steals,
                m.stalls,
                m.mailbox_highwater,
                m.min_worker_events,
                m.max_worker_events,
            )
        })
        .collect();
    let speedup_field =
        chain_speedup_8w.map(|s| format!("{s:.3}")).unwrap_or_else(|| "null".into());
    let json = format!(
        "{{\n  \"bench\": \"throughput\",\n  \"smoke\": {},\n  \
         \"parallelism\": {PARALLELISM},\n  \"host_parallelism\": {},\n  \
         \"rows_total\": {},\n  \
         \"chain_speedup_8w\": {speedup_field},\n  \"rows\": [\n{}\n  ]\n}}\n",
        smoke(),
        host_parallelism(),
        rows_total(),
        json_rows.join(",\n")
    );
    clonos_bench::write_bench_json("throughput", smoke(), &json);
}
