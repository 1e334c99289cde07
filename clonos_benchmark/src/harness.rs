//! One rep of a workload variant: set up, run, collect, check.
//!
//! A rep is `setup.generate → setup.deploy → setup.populate → calib → run →
//! calib → report → oracle`. Only `run` is timed for throughput; it is driven
//! through `Cluster::run_until` so that report collection (which decodes
//! every sink record) stays out of the timed region, and a calibration pass
//! sits immediately before and after it. The engine runs on the
//! single-threaded sim scheduler, so every count a rep produces is exact and
//! must repeat on every rep of the same variant.

use crate::alloc;
use crate::calib::{Bracket, Calibrator, CALIB_REF_S};
use crate::trace::Tracer;
use crate::workloads::{fnv1a, OutputCheck, Variant, Workload, FNV_OFFSET};
use clonos::TaskId;
use clonos_engine::{EngineConfig, FtMode, JobRunner, RunReport};
use clonos_sim::{VirtualDuration, VirtualTime};
use std::time::Instant;

/// Exact, deterministic counts of one job's run phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Events the sim scheduler delivered.
    pub events: u64,
    /// Allocator calls and bytes requested during the run phase.
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub records_in: u64,
    pub records_out: u64,
    /// Hash of the raw output-topic bytes, in partition and offset order.
    pub output_hash: u64,
}

/// What the full oracle read from a job's `RunReport`.
pub struct Verified {
    /// Order-insensitive summary of the effective sink output.
    pub digest: Vec<u64>,
    pub report: RunReport,
}

pub struct JobRun {
    pub name: &'static str,
    /// Input rows generated for the job.
    pub records: u64,
    /// The kills the run was driven under (none on a failure-free rep).
    pub kills: Vec<(u64, TaskId)>,
    pub flow_s: u64,
    pub state_ops: u64,
    pub wall_s: f64,
    /// Wall seconds of each slice of a sliced run, in order.
    pub slices_s: Vec<f64>,
    pub counters: Counters,
    /// Present when the rep ran the full oracle.
    pub verified: Option<Verified>,
}

pub struct Rep {
    pub variant: Variant,
    pub jobs: Vec<JobRun>,
    /// Records lost, duplicated, or belonging to a job that did not drain.
    pub failed: u64,
    /// The calibration passes around the run phase.
    pub bracket: Bracket,
    /// Generate + deploy + populate, normalised by the pass that followed.
    pub setup_s: f64,
}

impl Rep {
    pub fn records(&self) -> u64 {
        self.jobs.iter().map(|j| j.records).sum()
    }

    pub fn wall_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.wall_s).sum()
    }

    /// Input records per second of run phase, calibration-normalised or
    /// raw; the geometric mean over the rep's jobs.
    pub fn rate(&self, normalised: bool) -> f64 {
        let ln_sum: f64 = self
            .jobs
            .iter()
            .map(|j| {
                let s = if normalised {
                    self.bracket.normalise(j.wall_s)
                } else {
                    j.wall_s
                };
                (j.records as f64 / s).ln()
            })
            .sum();
        (ln_sum / self.jobs.len() as f64).exp()
    }

    pub fn counters(&self) -> Vec<Counters> {
        self.jobs.iter().map(|j| j.counters).collect()
    }

    pub fn digests(&self) -> Option<Vec<&[u64]>> {
        self.jobs
            .iter()
            .map(|j| j.verified.as_ref().map(|v| v.digest.as_slice()))
            .collect()
    }

    /// The `RunReport`s of a verified rep's jobs.
    pub fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.jobs
            .iter()
            .filter_map(|j| j.verified.as_ref().map(|v| &v.report))
    }
}

/// Virtual length of one slice of a sliced run. Half the shortest
/// checkpoint interval, so that slices with and without a barrier alternate.
pub const SLICE_US: u64 = 500_000;

/// Virtual instant by which a job has drained: the sources' emission time,
/// two checkpoint intervals (transactional sinks commit at checkpoint
/// completion), and under a fault plan the recovery the FT mode needs.
fn horizon(flow_s: u64, kills: &[(u64, TaskId)], cfg: &EngineConfig) -> VirtualTime {
    let drain = flow_s * 1_000_000 + 2 * cfg.checkpoint_interval.as_micros() + 1_000_000;
    let last_kill = kills.iter().map(|&(at, _)| at).max();
    VirtualTime(match (last_kill, &cfg.ft) {
        (None, _) => drain,
        (Some(_), FtMode::Clonos(_)) => drain + 1_000_000,
        // Global rollback restarts from the last checkpoint after detection
        // and redeployment, then re-emits at the source rate.
        (Some(at), _) => {
            at + cfg.detection_global.as_micros() + cfg.restart_delay.as_micros() + drain
        }
    })
}

/// A deployed job and what the rep has measured of it so far.
struct Live {
    runner: JobRunner,
    horizon: VirtualTime,
    check: OutputCheck,
    /// The digest the input alone predicts (verified reps of jobs with a
    /// closed-form result).
    expected: Option<Vec<u64>>,
    run: JobRun,
}

/// Drive a deployed job to its horizon, killing tasks per the fault plan.
/// With `sliced`, each `SLICE_US` of virtual time is its own `run_until`
/// call under its own span; the events dispatched, and their order, are the
/// same.
fn drive(live: &mut Live, sliced: bool, tracer: &mut Tracer) {
    let cluster = &mut live.runner.cluster;
    let end = live.horizon.as_micros();
    let step = if sliced { SLICE_US } else { end };
    let mut kills = live.run.kills.iter().peekable();
    let mut at = 0;
    while at < end {
        at = (at + step).min(end);
        if sliced {
            tracer.enter(format!("slice[{}]", live.run.slices_s.len()));
        }
        while let Some(&&(kill_at, task)) = kills.peek().filter(|k| k.0 <= at) {
            cluster.run_until(VirtualTime(kill_at));
            cluster.kill_task(task);
            kills.next();
        }
        cluster.run_until(VirtualTime(at));
        if sliced {
            live.run.slices_s.push(tracer.exit());
        }
    }
}

/// Run one rep. With `faulty` the jobs run under the workload's fault plan.
/// With `verify` the rep goes through the full oracle: input drained, no
/// duplicate and no missing sink record, output digest. The `RunReport`
/// collection this needs decodes every sink record, so later reps of a
/// variant only have to reproduce a verified rep's counts and raw output
/// bytes.
///
/// A rep is collected and dropped before the next one is set up: a rep that
/// ran while another's cluster was still alive paid for fresh heap pages and
/// measured 15 % slower.
#[allow(clippy::too_many_arguments)]
pub fn run_rep(
    workload: Workload,
    variant: Variant,
    faulty: bool,
    verify: bool,
    sliced: bool,
    seed: u64,
    cal: &mut Calibrator,
    tracer: &mut Tracer,
) -> Rep {
    let t0 = Instant::now();
    tracer.enter("setup.generate");
    let jobs = workload.jobs(seed);
    tracer.exit();
    let cfg = workload.config(variant, seed);
    let mut setup_wall_s = t0.elapsed().as_secs_f64();
    let mut lives = Vec::with_capacity(jobs.len());
    for job in jobs {
        let t0 = Instant::now();
        tracer.enter("setup.deploy");
        let mut runner = JobRunner::new(job.graph, cfg.clone());
        tracer.exit();
        tracer.enter("setup.populate");
        for (topic, rows) in &job.inputs {
            let parts = runner
                .cluster
                .topic(topic)
                .unwrap_or_else(|| panic!("job {} has no topic {topic}", job.name))
                .num_partitions();
            for part in 0..parts {
                runner.populate(topic, part, rows.iter().skip(part).step_by(parts).cloned());
            }
        }
        tracer.exit();
        setup_wall_s += t0.elapsed().as_secs_f64();
        let kills = if faulty { job.kills } else { Vec::new() };
        lives.push(Live {
            runner,
            horizon: horizon(job.flow_s, &kills, &cfg),
            check: job.check,
            // Untimed, and the last use of the input rows.
            expected: verify.then(|| job.check.expected(&job.inputs)).flatten(),
            run: JobRun {
                name: job.name,
                records: job.inputs.iter().map(|(_, rows)| rows.len() as u64).sum(),
                kills,
                flow_s: job.flow_s,
                state_ops: job.state_ops,
                wall_s: 0.0,
                slices_s: Vec::new(),
                counters: Counters::default(),
                verified: None,
            },
        });
    }

    tracer.enter("calib");
    let before_s = cal.pass();
    tracer.exit();
    for live in &mut lives {
        tracer.enter(format!("run.{}", live.run.name));
        let (calls0, bytes0) = alloc::counters();
        let t0 = Instant::now();
        drive(live, sliced, tracer);
        live.run.wall_s = t0.elapsed().as_secs_f64();
        let (calls1, bytes1) = alloc::counters();
        tracer.exit();
        live.run.counters.allocs = calls1 - calls0;
        live.run.counters.alloc_bytes = bytes1 - bytes0;
    }
    tracer.enter("calib");
    let after_s = cal.pass();
    tracer.exit();

    let mut failed = 0;
    let mut runs = Vec::with_capacity(lives.len());
    for Live {
        runner,
        horizon,
        check,
        expected,
        mut run,
    } in lives
    {
        let records = run.records;
        tracer.enter("report");
        let cluster = &runner.cluster;
        let mut output_hash = FNV_OFFSET;
        let out = cluster.topic("out").expect("every job writes topic `out`");
        for p in 0..out.num_partitions() {
            for rec in out.partition(p).fetch(0, usize::MAX) {
                output_hash = fnv1a(output_hash, &rec.payload);
                output_hash = fnv1a(output_hash, rec.meta.as_deref().unwrap_or(&[]));
            }
        }
        run.counters = Counters {
            events: cluster.sim.delivered(),
            records_in: cluster.metrics.records_in,
            records_out: cluster.metrics.records_out,
            output_hash,
            ..run.counters
        };
        // `run_for` is the public way to a `RunReport`; the cluster already
        // stands at the horizon, so it dispatches nothing more.
        let report =
            verify.then(|| runner.run_for(VirtualDuration::from_micros(horizon.as_micros())));
        tracer.exit();
        tracer.enter("oracle");
        // A rolled-back job ingests some rows twice; fewer than were
        // generated means the horizon came before the sources finished.
        let mut job_failed = if run.counters.records_in < records {
            records
        } else {
            0
        };
        run.verified = report.map(|mut report| {
            let lost_or_dup = (report.duplicate_idents().len() + report.ident_gaps().len()) as u64;
            job_failed = job_failed.max(lost_or_dup.min(records));
            let digest = check.digest(report.sink_output.iter().map(|(_, _, r)| &r.row));
            if expected.as_ref().is_some_and(|e| *e != digest) {
                eprintln!(
                    "job {}: output digest {digest:?}, the input predicts {expected:?}",
                    run.name
                );
                job_failed = records;
            }
            report.sink_output = Vec::new();
            Verified { digest, report }
        });
        tracer.exit();
        failed += job_failed;
        runs.push(run);
    }
    Rep {
        variant,
        jobs: runs,
        failed,
        bracket: Bracket { before_s, after_s },
        setup_s: setup_wall_s * CALIB_REF_S / before_s,
    }
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}
