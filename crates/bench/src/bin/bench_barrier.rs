//! **Barrier progress under induced backpressure: aligned vs unaligned
//! checkpoints.**
//!
//! Drives the depth-4 keyed chain with a sustained slow consumer (one
//! mid-stage task throttled 150× in repeating windows, so its input queue
//! holds a multi-hundred-record backlog whenever a barrier arrives) and
//! measures checkpoint completion latency — trigger at the JM to the last
//! ack — in both checkpoint modes. Aligned barriers wait behind the backlog
//! (alignment stall); unaligned barriers jump the queue and carry the
//! overtaken records inside the checkpoint image. Reports p50/p99 completion
//! latency per mode, bytes per checkpoint image (the O(in-flight) overhead
//! unaligned pays), and writes `BENCH_barrier.json`. The acceptance floor
//! for the unaligned checkpoint work is a ≥5x p99 completion-latency
//! reduction under backpressure.
//!
//! Usage: `cargo run -p clonos-bench --release --bin bench_barrier`
//! (`BENCH_BARRIER_SMOKE=1` shrinks the horizon for CI smoke runs, which write
//! `target/bench-smoke/barrier.json` instead.)

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_bench::print_table;
use clonos_engine::config::CheckpointMode;
use clonos_engine::operator::OpCtx;
use clonos_engine::operators::ProcessOp;
use clonos_engine::*;
use clonos_sim::{VirtualDuration, VirtualTime};

const RATE: u64 = 1_000;
const PARALLELISM: usize = 2;
const NODES: u32 = 4;
/// Checkpoints every 2 s; slow windows open every 3 s, so barriers land in
/// every phase of the backlog's build/drain cycle.
const CP_INTERVAL_SECS: u64 = 2;
const SLOW_PERIOD_SECS: u64 = 3;
const SLOW_FACTOR: u64 = 150;
const SLOW_WINDOW: VirtualDuration = VirtualDuration::from_millis(1_500);

fn smoke() -> bool {
    std::env::var("BENCH_BARRIER_SMOKE").map(|v| v == "1").unwrap_or(false)
}

fn horizon_secs() -> u64 {
    if smoke() {
        14
    } else {
        40
    }
}

fn chain() -> JobGraph {
    let mut g = JobGraph::new("bench-barrier");
    let src = g.add_source("src", PARALLELISM, SourceSpec::new("in").rate(RATE).key_field(0));
    let stage = || {
        factory(|| {
            ProcessOp::new(|_i, rec: &Record, ctx: &mut OpCtx<'_>| {
                let c = ctx.state.value(0, rec.key).map(|r| r.int(0)).unwrap_or(0) + 1;
                ctx.state.set_value(0, rec.key, Row::new(vec![Datum::Int(c)]));
                let _ts = ctx.timestamp()?;
                ctx.emit(rec.key, rec.event_time, rec.row.clone());
                Ok(())
            })
        })
    };
    let a = g.add_operator("a", PARALLELISM, stage());
    let b = g.add_operator("b", PARALLELISM, stage());
    let snk = g.add_sink("sink", PARALLELISM, SinkSpec { topic: "out".into() });
    g.connect(src, a, Partitioning::Hash);
    g.connect(a, b, Partitioning::Hash);
    g.connect(b, snk, Partitioning::Hash);
    g
}

/// Repeating slow windows over task 3 ("a" stage) covering the input span.
fn backpressure_plan(secs: u64) -> FailurePlan {
    let mut plan = FailurePlan::none();
    let mut at = 4u64;
    while at + 2 < secs.saturating_sub(5) {
        plan = plan.slow_at(VirtualTime(at * 1_000_000), 3, SLOW_FACTOR, SLOW_WINDOW);
        at += SLOW_PERIOD_SECS;
    }
    plan
}

fn run_one(mode: CheckpointMode) -> RunReport {
    let secs = horizon_secs();
    let ft = FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full));
    let mut cfg = EngineConfig::default().with_seed(42).with_ft(ft);
    cfg.num_nodes = NODES;
    cfg.checkpoint_interval = VirtualDuration::from_secs(CP_INTERVAL_SECS);
    cfg.checkpoint_mode = mode;
    let mut runner = JobRunner::new(chain(), cfg);
    let n = RATE as i64 * PARALLELISM as i64 * (secs as i64 - 5);
    let rows: Vec<Row> =
        (0..n).map(|i| Row::new(vec![Datum::Int(i % 64), Datum::Int(i)])).collect();
    for p in 0..PARALLELISM {
        let slice: Vec<Row> = rows.iter().skip(p).step_by(PARALLELISM).cloned().collect();
        runner.populate("in", p, slice);
    }
    runner.with_failures(backpressure_plan(secs)).run_for(VirtualDuration::from_secs(secs))
}

/// Completion latency (µs) per checkpoint id: JM trigger → last ack.
fn checkpoint_latencies(report: &RunReport) -> Vec<u64> {
    let mut triggered: std::collections::BTreeMap<u64, VirtualTime> =
        std::collections::BTreeMap::new();
    let mut out = Vec::new();
    for e in &report.events {
        let Some(rest) = e.what.strip_prefix("checkpoint ") else { continue };
        let Some((id, verb)) = rest.split_once(' ') else { continue };
        let Ok(id) = id.parse::<u64>() else { continue };
        match verb {
            "triggered" => {
                triggered.insert(id, e.at);
            }
            "complete" => {
                if let Some(t0) = triggered.get(&id) {
                    out.push(e.at.saturating_sub(*t0).as_micros());
                }
            }
            _ => {}
        }
    }
    out
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

struct ModeResult {
    label: &'static str,
    completed: usize,
    p50_us: u64,
    p99_us: u64,
    bytes_per_image: u64,
    stall_us: u64,
    overtaken_records: u64,
    overtaken_bytes: u64,
}

fn measure(mode: CheckpointMode, label: &'static str) -> ModeResult {
    let report = run_one(mode);
    assert!(report.records_out > 0, "{label}: no output committed");
    assert!(
        report.duplicate_idents().is_empty() && report.ident_gaps().is_empty(),
        "{label}: exactly-once violated under backpressure"
    );
    let mut lat = checkpoint_latencies(&report);
    if std::env::var("BENCH_BARRIER_DEBUG").is_ok() {
        eprintln!("{label}: per-checkpoint completion latencies (us, trigger order): {lat:?}");
    }
    lat.sort_unstable();
    assert!(lat.len() >= 3, "{label}: only {} completed checkpoints", lat.len());
    let cs = &report.checkpoint_stats;
    let images = cs.full_snapshots + cs.delta_snapshots;
    ModeResult {
        label,
        completed: lat.len(),
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
        bytes_per_image: (cs.full_bytes + cs.delta_bytes) / images.max(1),
        stall_us: cs.alignment_stall_us,
        overtaken_records: cs.overtaken_records,
        overtaken_bytes: cs.overtaken_bytes,
    }
}

fn main() {
    let aligned = measure(CheckpointMode::Aligned, "aligned");
    let unaligned = measure(CheckpointMode::Unaligned, "unaligned");
    let results = [&aligned, &unaligned];

    let table: Vec<Vec<String>> = results
        .iter()
        .map(|m| {
            vec![
                m.label.to_string(),
                format!("{}", m.completed),
                format!("{:.1}", m.p50_us as f64 / 1_000.0),
                format!("{:.1}", m.p99_us as f64 / 1_000.0),
                format!("{}", m.bytes_per_image),
                format!("{:.1}", m.stall_us as f64 / 1_000.0),
                format!("{}", m.overtaken_records),
                format!("{}", m.overtaken_bytes),
            ]
        })
        .collect();
    print_table(
        "Checkpoint completion under a 150x slow consumer (trigger -> last ack)",
        &[
            "mode",
            "completed",
            "p50 ms",
            "p99 ms",
            "B/image",
            "stall ms",
            "overtaken",
            "overtaken B",
        ],
        &table,
    );

    let p99_ratio = aligned.p99_us as f64 / unaligned.p99_us.max(1) as f64;
    let p50_ratio = aligned.p50_us as f64 / unaligned.p50_us.max(1) as f64;
    println!(
        "\np99 completion-latency reduction (aligned/unaligned): {p99_ratio:.2}x \
         (acceptance floor: 5.00x); p50: {p50_ratio:.2}x"
    );
    assert!(
        unaligned.overtaken_records > 0,
        "unaligned run captured no overtaken records — backpressure did not bite"
    );
    // The 5x floor needs the full horizon: with only ~6 checkpoints, p99 is
    // the single worst sample, and one barrier landing while the slowed task
    // is mid-record (a 150x-stretched service slot) dominates both modes.
    if smoke() {
        println!("smoke run: acceptance-floor assertion skipped (full horizon enforces it)");
    } else {
        assert!(
            p99_ratio >= 5.0,
            "unaligned p99 ({} us) is not >=5x below aligned p99 ({} us)",
            unaligned.p99_us,
            aligned.p99_us
        );
    }

    let json_rows: Vec<String> = results
        .iter()
        .map(|m| {
            format!(
                "    {{\"mode\": \"{}\", \"completed\": {}, \"p50_us\": {}, \"p99_us\": {}, \
                 \"bytes_per_image\": {}, \"alignment_stall_us\": {}, \
                 \"overtaken_records\": {}, \"overtaken_bytes\": {}}}",
                m.label,
                m.completed,
                m.p50_us,
                m.p99_us,
                m.bytes_per_image,
                m.stall_us,
                m.overtaken_records,
                m.overtaken_bytes
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"barrier\",\n  \"smoke\": {},\n  \"slow_factor\": {SLOW_FACTOR},\n  \
         \"p99_reduction\": {p99_ratio:.3},\n  \"p50_reduction\": {p50_ratio:.3},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        smoke(),
        json_rows.join(",\n")
    );
    clonos_bench::write_bench_json("barrier", smoke(), &json);
}
