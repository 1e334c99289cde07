//! The per-layer measurement (`--trace 1`): the layer probes, then one
//! faulty-or-not warm-up rep, one untraced and one traced timed rep of
//! variant A and one rep of variant B, all under parent-linked spans that
//! are written to `out/trace_<workload>.json` when the run ends.
//!
//! Derived from them: the `run.*` counts of the workload, the cost of the
//! half-second slices the traced rep is driven in, the tracing overhead, and
//! the outside-in layer profile `profile.<layer>_share` = probe unit cost ×
//! the layer's operation count in the run ÷ run-phase time.

use crate::calib::Calibrator;
use crate::endtoend::{barrier_latencies_ms, recovery_times_ms, Outcome};
use crate::harness::{run_rep, Counters, Rep, SLICE_US};
use crate::probes;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Variant, Workload};
use crate::Metric;
use clonos_engine::RunReport;

fn sum(rep: &Rep, field: impl Fn(&RunReport) -> u64) -> f64 {
    rep.reports().map(field).sum::<u64>() as f64
}

/// Mean virtual ms between two causal-trace hops of the killed tasks'
/// recoveries; `from == "kill"` measures from the kill instant.
fn hop_ms(rep: &Rep, from: &str, to: &str) -> f64 {
    let mut spans = Vec::new();
    for job in &rep.jobs {
        let Some(v) = &job.verified else { continue };
        for (i, &(kill_at, task)) in job.kills.iter().enumerate() {
            let until = job.kills.get(i + 1).map_or(u64::MAX, |k| k.0);
            let first = |kind: &str| {
                v.report
                    .causal_events
                    .iter()
                    .filter(|e| e.kind == kind && e.task == task)
                    .map(|e| e.at.as_micros())
                    .find(|&at| at >= kill_at && at < until)
            };
            let start = if from == "kill" {
                Some(kill_at)
            } else {
                first(from)
            };
            if let (Some(a), Some(b)) = (start, first(to)) {
                spans.push(b.saturating_sub(a) as f64 / 1e3);
            }
        }
    }
    if spans.is_empty() {
        0.0
    } else {
        spans.iter().sum::<f64>() / spans.len() as f64
    }
}

/// Wall ms of the traced rep's slices by kind: median of the plain slices
/// (sources emitting, no barrier, no recovery), and what the slices holding
/// a barrier or a recovery cost beyond that.
fn slice_costs(workload: Workload, traced: &Rep, faulty: &Rep) -> (f64, f64, f64) {
    let interval = workload
        .config(Variant::A, 0)
        .checkpoint_interval
        .as_micros();
    let mut plain = Vec::new();
    let mut with_barrier = Vec::new();
    let mut with_recovery = Vec::new();
    for (rep, recovery_only) in [(traced, false), (faulty, true)] {
        for job in &rep.jobs {
            for (k, &s) in job.slices_s.iter().enumerate() {
                let (from, to) = (k as u64 * SLICE_US, (k as u64 + 1) * SLICE_US);
                if to > job.flow_s * 1_000_000 {
                    break; // the sources have stopped emitting
                }
                // A recovery outlasts detection by a few ms: it owns the
                // slice of the kill and the one after.
                let recovering = job
                    .kills
                    .iter()
                    .any(|&(at, _)| at < to && at + SLICE_US >= from);
                let barrier = (from.div_ceil(interval) * interval) < to && from > 0;
                match (recovering, barrier, recovery_only) {
                    (true, _, _) => with_recovery.push(s * 1e3),
                    (false, true, false) => with_barrier.push(s * 1e3),
                    (false, false, false) => plain.push(s * 1e3),
                    _ => {}
                }
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let steady = if plain.is_empty() {
        0.0
    } else {
        median(&plain)
    };
    let extra = |v: &[f64]| if v.is_empty() { 0.0 } else { mean(v) - steady };
    (steady, extra(&with_barrier), extra(&with_recovery))
}

pub fn run(workload: Workload, seed: u64) -> Outcome {
    let mut tracer = Tracer::new();
    let mut cal = Calibrator::new();
    cal.pass();
    tracer.enter(format!("workload.{}", workload.name()));
    let mut metrics = probes::run(seed, &mut cal, &mut tracer);
    let unit_cost = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("probe ran")
    };
    let costs_ns = [
        "sim.events.push_pop_ns",
        "engine.record.encode_ns",
        "engine.record.decode_buffer_ns_per_rec",
        "engine.state.get_hot_ns",
        "engine.state.set_hot_ns",
        "core.causal_log.record_ns",
        "core.causal_log.collect_delta_ns",
        "core.causal_log.ingest_delta_ns",
        "core.inflight.append_ns",
        "storage.deltamap.write_put_ns",
    ]
    .map(unit_cost);

    let timed_faulty = workload.timed_reps_faulty();
    // As in the end-to-end run, the warm-up of A runs under the opposite
    // fault setting of the timed reps; here it is sliced as well, so the
    // faulty rep of every workload shows what its recovery slices cost.
    let mut rep = |variant: Variant, faulty, sliced: bool| {
        tracer.enter(format!(
            "rep.{variant:?}{}",
            if sliced { ".traced" } else { "" }
        ));
        let rep = run_rep(
            workload,
            variant,
            faulty,
            true,
            sliced,
            seed,
            &mut cal,
            &mut tracer,
        );
        tracer.exit();
        rep
    };
    let warm = rep(Variant::A, !timed_faulty, true);
    let plain = rep(Variant::A, timed_faulty, false);
    let traced = rep(Variant::A, timed_faulty, true);
    let alt = rep(Variant::B, timed_faulty, false);
    let report_ms = median(&tracer.durations("report")) * 1e3;
    tracer.exit();

    let reps = [&warm, &plain, &traced, &alt];
    let attempted = reps.iter().map(|r| r.records()).sum();
    let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
    // Spans allocate, so the allocator counts are the untraced rep's alone.
    let sans_allocs = |rep: &Rep| -> Vec<_> {
        rep.counters()
            .into_iter()
            .map(|c| Counters {
                allocs: 0,
                alloc_bytes: 0,
                ..c
            })
            .collect()
    };
    if sans_allocs(&plain) != sans_allocs(&traced) {
        eprintln!("the traced rep's counts differ from the untraced rep's");
        failed += traced.records();
    }
    for other in [&warm, &traced, &alt] {
        if other.digests() != plain.digests() {
            eprintln!("output digests differ between reps of one workload");
            failed += other.records();
        }
    }

    let a = &plain;
    let faulty_a = if timed_faulty { &traced } else { &warm };
    let records = a.records() as f64;
    let run_s = plain.bracket.normalise(a.wall_s());
    let traced_s = traced.bracket.normalise(traced.wall_s());
    let counters = a.counters();
    let (steady_ms, ckpt_extra_ms, recovery_extra_ms) = slice_costs(workload, &traced, faulty_a);
    let barriers: Vec<f64> = a.reports().flat_map(barrier_latencies_ms).collect();
    let m = Metric::new;
    let per_record = |name: &'static str, total: f64, unit| m(name, total / records, unit);
    metrics.extend([
        per_record(
            "run.channel_writes_per_record",
            sum(a, |r| r.routing_stats.channel_writes),
            "count",
        ),
        per_record(
            "run.route_encodes_per_record",
            sum(a, |r| r.routing_stats.route_encodes),
            "count",
        ),
        per_record(
            "run.determinants_per_record",
            sum(a, |r| r.log_stats.determinants_recorded),
            "count",
        ),
        per_record(
            "run.delta_bytes_per_record",
            sum(a, |r| r.log_stats.delta_bytes_shipped),
            "B",
        ),
        per_record(
            "run.inflight_buffers_per_record",
            sum(a, |r| r.inflight_stats.buffers_logged),
            "count",
        ),
        m(
            "run.inflight_peak_bytes",
            sum(a, |r| r.inflight_stats.peak_resident_bytes),
            "B",
        ),
        m(
            "run.inflight_spills",
            sum(a, |r| r.inflight_stats.buffers_spilled),
            "count",
        ),
        per_record(
            "run.alloc_bytes_per_record",
            counters.iter().map(|c| c.alloc_bytes).sum::<u64>() as f64,
            "B",
        ),
        m(
            "run.ckpt_full_bytes",
            sum(a, |r| r.checkpoint_stats.full_bytes),
            "B",
        ),
        m(
            "run.ckpt_delta_bytes",
            sum(a, |r| r.checkpoint_stats.delta_bytes),
            "B",
        ),
        m(
            "run.ckpt_dirty_entries",
            sum(a, |r| r.checkpoint_stats.dirty_entries),
            "count",
        ),
        m(
            "run.alignment_stall_us",
            sum(a, |r| r.checkpoint_stats.alignment_stall_us),
            "virt_us",
        ),
        m("run.barriers", barriers.len() as f64, "count"),
        m("run.barrier_p50_ms", median(&barriers), "virt_ms"),
        // The tier only exists in keyed_state's variant B.
        m(
            "run.tier_faults",
            sum(&alt, |r| r.state_backend_stats.faults),
            "count",
        ),
        m(
            "run.tier_evictions",
            sum(&alt, |r| r.state_backend_stats.evictions),
            "count",
        ),
        m(
            "run.tier_io_us",
            sum(&alt, |r| r.state_backend_stats.tier_io_us),
            "virt_us",
        ),
        m(
            "run.lsm_compactions",
            sum(&alt, |r| r.state_backend_stats.compactions),
            "count",
        ),
        m(
            "run.detect_ms",
            hop_ms(faulty_a, "kill", "FailureDetected"),
            "virt_ms",
        ),
        m(
            "run.gather_ms",
            hop_ms(faulty_a, "InstallRecovery", "BeginReplay"),
            "virt_ms",
        ),
        m(
            "run.replay_ms",
            hop_ms(faulty_a, "BeginReplay", "RecoveryDone"),
            "virt_ms",
        ),
        m(
            "run.gather_retries",
            sum(faulty_a, |r| r.recovery_stats.gather_retries),
            "count",
        ),
        m(
            "run.escalations",
            sum(faulty_a, |r| r.recovery_stats.escalations),
            "count",
        ),
        // Paper definition: kill until latency is back within 10 % of its
        // level before the failure (250 ms buckets), first job of the rep.
        m(
            "run.catchup_ms",
            faulty_a
                .reports()
                .next()
                .and_then(|r| r.recovery_time(1.1))
                .map_or(0.0, |d| d.as_micros() as f64 / 1e3),
            "virt_ms",
        ),
        // Global rollback under the same plan: first kill until the last
        // task is back (0 where variant B runs without faults).
        m(
            "run.alt_recovery_ms",
            alt.jobs
                .iter()
                .filter_map(|j| {
                    let first = j.kills.first()?.0;
                    let last = j.kills.last()?;
                    let done = recovery_times_ms(&j.verified.as_ref()?.report, &[*last]);
                    Some(done[0]? + (last.0 - first) as f64 / 1e3)
                })
                .fold(0.0, f64::max),
            "virt_ms",
        ),
        m("run.raw_throughput_rps", records / a.wall_s(), "1/s"),
        m(
            "run.calib_spread_pct",
            reps.iter().map(|r| r.bracket.spread()).fold(0.0, f64::max) * 100.0,
            "%",
        ),
        m("run.steady_slice_ms_p50", steady_ms, "ms"),
        m("run.ckpt_slice_extra_ms", ckpt_extra_ms, "ms"),
        m("run.recovery_slice_extra_ms", recovery_extra_ms, "ms"),
        m("run.report_ms", report_ms, "ms"),
        m("trace_overhead_pct", (traced_s / run_s - 1.0) * 100.0, "%"),
    ]);
    for query in ["q3", "q5", "q13"] {
        let job = a.jobs.iter().find(|j| j.name == query);
        let rps = job.map_or(0.0, |j| {
            j.records as f64 / plain.bracket.normalise(j.wall_s)
        });
        let p99 = job
            .and_then(|j| j.verified.as_ref()?.report.latency_p99)
            .map_or(0.0, |d| d.as_micros() as f64 / 1e3);
        metrics.push(Metric::new(format!("nexmark.{query}.in_rps"), rps, "1/s"));
        metrics.push(Metric::new(
            format!("nexmark.{query}.latency_p99_ms"),
            p99,
            "virt_ms",
        ));
    }

    // The layer profile: what the run's operation counts would cost at the
    // probes' unit prices, as shares of the run phase.
    let [pop, encode, decode, get, set, record, collect, ingest, append, put] = costs_ns;
    let events: u64 = counters.iter().map(|c| c.events).sum();
    let state_ops: u64 = a.jobs.iter().map(|j| j.records * j.state_ops).sum();
    let checkpoint_bytes = sum(a, |r| {
        r.checkpoint_stats.full_bytes + r.checkpoint_stats.delta_bytes
    });
    let shares = [
        ("profile.sim_share", pop * events as f64),
        (
            "profile.engine.record_share",
            encode * (sum(a, |r| r.routing_stats.route_encodes) + sum(a, |r| r.records_out))
                + decode * sum(a, |r| r.routing_stats.channel_writes),
        ),
        ("profile.engine.state_share", (get + set) * state_ops as f64),
        (
            "profile.core.causal_log_share",
            record * sum(a, |r| r.log_stats.determinants_recorded)
                + collect * sum(a, |r| r.log_stats.delta_entries_shipped)
                + ingest * sum(a, |r| r.log_stats.entries_ingested),
        ),
        (
            "profile.core.inflight_share",
            append * sum(a, |r| r.inflight_stats.buffers_logged),
        ),
        // The probe writes 27-byte entries; checkpoints are priced by byte.
        (
            "profile.storage.deltamap_share",
            put / 27.0 * checkpoint_bytes,
        ),
    ];
    let mut residual = 1.0;
    for (name, ns) in shares {
        let share = ns * 1e-9 / run_s;
        residual -= share;
        metrics.push(m(name, share, "ratio"));
    }
    metrics.push(m("profile.residual_share", residual, "ratio"));

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!("trace_{}.json", workload.name()));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, tracer.to_json()))
    {
        eprintln!("could not write {}: {e}", file.display());
    }
    Outcome {
        metrics,
        notes: Vec::new(),
        attempted,
        failed,
    }
}
