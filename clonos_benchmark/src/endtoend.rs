//! The end-to-end measurement (`--trace 0`): one discarded warm-up rep per
//! variant, then interleaved A/B pairs until `--seconds` of timed work have
//! run. Every timed region is bracketed by calibration passes; times are
//! reported as medians of calibration-normalised reps, counts and
//! virtual-time numbers once per variant after checking that they repeat.

use crate::calib::Calibrator;
use crate::harness::{peak_rss_mb, run_rep, Rep};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Variant, Workload};
use crate::Metric;
use clonos::TaskId;
use clonos_engine::RunReport;

const MIN_PAIRS: usize = 3;

pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Printed for the reader, not part of the result object.
    pub notes: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

/// `TriggerCheckpoint` → `CheckpointComplete` per completed epoch, virtual ms.
pub fn barrier_latencies_ms(report: &RunReport) -> Vec<f64> {
    let at_of = |kind: &str, epoch: u64| {
        report
            .causal_events
            .iter()
            .find(|e| e.kind == kind && e.epoch == epoch)
            .map(|e| e.at)
    };
    report
        .causal_events
        .iter()
        .filter(|e| e.kind == "CheckpointComplete")
        .filter_map(|done| {
            let start = at_of("TriggerCheckpoint", done.epoch)?;
            Some(done.at.saturating_sub(start).as_micros() as f64 / 1e3)
        })
        .collect()
}

/// Kill → the killed task's last `RecoveryDone` before the next kill,
/// virtual ms; `None` for a kill the task never recovered from.
pub fn recovery_times_ms(report: &RunReport, kills: &[(u64, TaskId)]) -> Vec<Option<f64>> {
    kills
        .iter()
        .enumerate()
        .map(|(i, &(at, task))| {
            let until = kills.get(i + 1).map_or(u64::MAX, |k| k.0);
            report
                .causal_events
                .iter()
                .filter(|e| e.kind == "RecoveryDone" && e.task == task)
                .map(|e| e.at.as_micros())
                .filter(|&done| done >= at && done < until)
                .max()
                .map(|done| (done - at) as f64 / 1e3)
        })
        .collect()
}

pub fn shipped_checkpoint_bytes(report: &RunReport) -> u64 {
    let c = &report.checkpoint_stats;
    c.full_bytes + c.delta_bytes + report.state_backend_stats.segment_bytes
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut tracer = Tracer::new(); // spans are recorded but not written with --trace 0
    let mut cal = Calibrator::new();
    cal.pass();
    let timed_faulty = workload.timed_reps_faulty();
    let mut rep = |variant, faulty, verify| {
        let rep = run_rep(
            workload,
            variant,
            faulty,
            verify,
            false,
            seed,
            &mut cal,
            &mut tracer,
        );
        eprintln!(
            "rep {variant:?}: {:.0} raw {:.0} norm, calib {:.4} {:.4}",
            rep.rate(false),
            rep.rate(true),
            rep.bracket.before_s,
            rep.bracket.after_s,
        );
        rep
    };

    // One warm-up rep per variant, discarded for timing: it faults in the
    // heap the timed reps reuse and warms caches and branch predictors. A's
    // runs under the opposite fault setting of the timed reps and passes the
    // full oracle, so that every workload has both a failure-free and a
    // faulty verified run of variant A.
    let warm_a = rep(Variant::A, !timed_faulty, true);
    let warm_b = rep(Variant::B, timed_faulty, false);
    let mut attempted = warm_a.records() + warm_b.records();
    let mut failed = warm_a.failed + warm_b.failed;

    // Pairs are kept as `[A, B]` whichever ran first.
    let mut pairs: Vec<[Rep; 2]> = Vec::new();
    let mut timed_s = 0.0;
    let mut last_pair_s = 0.0;
    while pairs.len() < MIN_PAIRS || timed_s + last_pair_s <= seconds {
        // The first pair passes the full oracle; later reps must reproduce
        // its counts and raw output bytes exactly.
        let verify = pairs.is_empty();
        // Alternate which variant runs first, so that neither always
        // inherits the other's cache and allocator state.
        let pair = if pairs.len().is_multiple_of(2) {
            let a = rep(Variant::A, timed_faulty, verify);
            [a, rep(Variant::B, timed_faulty, verify)]
        } else {
            let b = rep(Variant::B, timed_faulty, verify);
            [rep(Variant::A, timed_faulty, verify), b]
        };
        attempted += pair[0].records() + pair[1].records();
        last_pair_s = pair[0].wall_s() + pair[1].wall_s();
        timed_s += last_pair_s;
        pairs.push(pair);
    }

    // Exact numbers: every timed rep of a variant repeats the first one's.
    for v in 0..2 {
        let reference = pairs[0][v].counters();
        for pair in &pairs {
            let rep = &pair[v];
            failed += rep.failed;
            if rep.counters() != reference {
                eprintln!(
                    "variant {:?}: counts differ between reps: {:?} vs {:?}",
                    rep.variant,
                    rep.counters(),
                    reference
                );
                failed += rep.records();
            }
        }
    }
    // Output digests: the two variants agree, and a faulty run of variant A
    // produces what a failure-free one does.
    let a = &pairs[0][0];
    let b = &pairs[0][1];
    if a.digests() != b.digests() {
        eprintln!(
            "variants A and B disagree on the output: {:?} vs {:?}",
            a.digests(),
            b.digests()
        );
        failed += a.records();
    }
    if warm_a.digests() != a.digests() {
        eprintln!(
            "faulty and failure-free outputs differ: {:?} vs {:?}",
            warm_a.digests(),
            a.digests()
        );
        failed += a.records();
    }

    // Recovery time comes from whichever verified A rep ran under faults.
    let faulty_a = if timed_faulty { a } else { &warm_a };
    let mut recovery_ms = Vec::new();
    for job in &faulty_a.jobs {
        let report = &job
            .verified
            .as_ref()
            .expect("faulty A rep is verified")
            .report;
        for r in recovery_times_ms(report, &job.kills) {
            match r {
                Some(ms) => recovery_ms.push(ms),
                None => {
                    eprintln!("job {}: a killed task never finished recovery", job.name);
                    failed += job.records;
                }
            }
        }
    }

    let timed = || pairs.iter().flatten();
    let rates = |v: usize| -> Vec<f64> { pairs.iter().map(|p| p[v].rate(true)).collect() };
    let setups_s: Vec<f64> = timed().map(|r| r.setup_s).collect();
    let worst_spread = timed().map(|r| r.bracket.spread()).fold(0.0, f64::max);
    let unsteady = timed().filter(|r| !r.bracket.steady()).count();
    let (reference, feature) = if workload.reference() == Variant::A {
        (0, 1)
    } else {
        (1, 0)
    };
    let ratios: Vec<f64> = pairs
        .iter()
        .map(|p| p[feature].rate(true) / p[reference].rate(true))
        .collect();
    let records = a.records() as f64;
    let counters = a.counters();
    let events: u64 = counters.iter().map(|c| c.events).sum();
    let allocs: u64 = counters.iter().map(|c| c.allocs).sum();
    let barriers: Vec<f64> = a.reports().flat_map(barrier_latencies_ms).collect();
    let completed: u64 = a.reports().map(|r| r.last_completed_checkpoint).sum();
    let shipped: u64 = a.reports().map(shipped_checkpoint_bytes).sum();
    let latency = |pick: fn(&RunReport) -> Option<clonos_sim::VirtualDuration>| {
        a.reports()
            .filter_map(pick)
            .map(|d| d.as_micros() as f64 / 1e3)
            .fold(0.0, f64::max)
    };
    let m = Metric::new;
    let metrics = vec![
        m("throughput_rps", median(&rates(0)), "1/s"),
        m("alt_throughput_rps", median(&rates(1)), "1/s"),
        m("rel_throughput", median(&ratios), "ratio"),
        m("latency_p50_ms", latency(|r| r.latency_p50), "virt_ms"),
        m("latency_p99_ms", latency(|r| r.latency_p99), "virt_ms"),
        m(
            "barrier_max_ms",
            barriers.iter().copied().fold(0.0, f64::max),
            "virt_ms",
        ),
        m(
            "ckpt_bytes_per_barrier",
            shipped as f64 / completed.max(1) as f64,
            "B",
        ),
        m(
            "recovery_ms",
            recovery_ms.iter().sum::<f64>() / recovery_ms.len().max(1) as f64,
            "virt_ms",
        ),
        m("events_per_record", events as f64 / records, "count"),
        m("allocs_per_record", allocs as f64 / records, "count"),
        m("setup_s", median(&setups_s), "s"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let raw = |v: usize| -> Vec<f64> { pairs.iter().map(|p| p[v].rate(false)).collect() };
    let notes = vec![
        m("raw_throughput_rps", median(&raw(0)), "1/s"),
        m("raw_alt_throughput_rps", median(&raw(1)), "1/s"),
        m("pairs", pairs.len() as f64, "count"),
        m("unsteady_reps", unsteady as f64, "count"),
        m("worst_calib_spread_pct", worst_spread * 100.0, "%"),
        m("timed_s", timed_s, "s"),
    ];
    Outcome {
        metrics,
        notes,
        attempted,
        failed,
    }
}
