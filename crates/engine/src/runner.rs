//! High-level job runner: build a cluster, populate input topics, inject
//! failures, run, and collect a verifiable report — the entry point used by
//! the examples, integration tests, and benchmark harnesses.

use crate::cluster::Cluster;
use crate::config::EngineConfig;
use crate::graph::{JobGraph, VertexKind};
use crate::record::{Record, Row};
use crate::task::{effective_sink_records, SinkMeta};
use clonos::TaskId;
use clonos_sim::chaos::{ChaosEvent, ChaosPlan};
use clonos_sim::{VirtualDuration, VirtualTime};
use std::collections::BTreeMap;

/// One injectable fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Kill whatever incarnation of the task is live at that instant.
    KillTask(TaskId),
    /// Crash a node: co-located tasks and standbys die together.
    KillNode(u32),
    /// Interrupt an in-flight standby state transfer for the task.
    InterruptStandby(TaskId),
    /// Throttle the task's record consumption by `factor` for `window`
    /// (sustained slow consumer — queues back up behind it).
    SlowTask { task: TaskId, factor: u64, window: VirtualDuration },
}

/// Failure injection plan: faults at given instants.
#[derive(Clone, Debug, Default)]
pub struct FailurePlan {
    pub faults: Vec<(VirtualTime, Fault)>,
}

impl FailurePlan {
    pub fn none() -> FailurePlan {
        FailurePlan::default()
    }

    pub fn kill_at(mut self, at: VirtualTime, task: TaskId) -> FailurePlan {
        self.faults.push((at, Fault::KillTask(task)));
        self
    }

    pub fn node_crash_at(mut self, at: VirtualTime, node: u32) -> FailurePlan {
        self.faults.push((at, Fault::KillNode(node)));
        self
    }

    pub fn slow_at(
        mut self,
        at: VirtualTime,
        task: TaskId,
        factor: u64,
        window: VirtualDuration,
    ) -> FailurePlan {
        self.faults.push((at, Fault::SlowTask { task, factor, window }));
        self
    }

    /// Translate a generated chaos scenario's discrete injections into a
    /// plan (the plan's control-plane knobs are applied separately by
    /// [`JobRunner::with_chaos`]).
    pub fn from_chaos(plan: &ChaosPlan) -> FailurePlan {
        let mut fp = FailurePlan::none();
        for inj in &plan.injections {
            let fault = match inj.event {
                ChaosEvent::KillTask(t) => Fault::KillTask(t),
                ChaosEvent::KillNode(n) => Fault::KillNode(n),
                ChaosEvent::InterruptStandby(t) => Fault::InterruptStandby(t),
                ChaosEvent::SlowTask(t) => Fault::SlowTask {
                    task: t,
                    factor: plan.slow_factor.max(1),
                    window: plan.slow_window,
                },
            };
            fp.faults.push((inj.at, fault));
        }
        fp
    }
}

/// Everything observable after a run.
pub struct RunReport {
    /// Effective (read-committed) sink output across all output topics:
    /// `(sink task, meta, record)`.
    pub sink_output: Vec<(TaskId, SinkMeta, Record)>,
    pub records_in: u64,
    pub records_out: u64,
    /// Combined end-to-end latency series (seconds) across sinks.
    pub latency_series: clonos_sim::TimeSeries,
    /// Output throughput per 1 s window.
    pub throughput: Vec<(VirtualTime, f64)>,
    pub latency_p50: Option<VirtualDuration>,
    pub latency_p99: Option<VirtualDuration>,
    /// The run's trace: protocol hops and incidents, `caused_by`-linked;
    /// its hops are validated against the static spec by the conformance
    /// checker.
    pub causal_events: Vec<crate::metrics::Event>,
    pub log_stats: clonos::causal_log::CausalLogStats,
    /// Routing hot-path counters aggregated across tasks.
    pub routing_stats: crate::metrics::RoutingStats,
    pub ts_service_calls: u64,
    pub ts_service_determinants: u64,
    pub inflight_bytes: u64,
    pub inflight_stats: clonos::inflight::InFlightStats,
    pub determinant_bytes: u64,
    pub last_completed_checkpoint: u64,
    /// Failure/recovery robustness counters (retries, escalations,
    /// concurrent failures, detection latency).
    pub recovery_stats: crate::metrics::RecoveryStats,
    /// Incremental-checkpoint counters (full vs delta images, bytes, chain
    /// rebases, reconstructions, delta standby dispatches).
    pub checkpoint_stats: crate::metrics::CheckpointStats,
    /// Multi-threaded runtime counters (all zero for sim-scheduled runs):
    /// worker count, steals, backpressure stalls, mailbox depth highwater,
    /// and per-worker event min/max.
    pub runtime_stats: crate::metrics::RuntimeStats,
    /// Tiered-state-backend counters (flushes, compactions, faults,
    /// evictions, segment inventory; all zero when the backend is off).
    pub state_backend_stats: crate::metrics::StateBackendStats,
    /// Host wall-clock seconds spent driving the simulation (the Figure-5
    /// overhead metric: causal logging is real CPU work here).
    pub wall_seconds: f64,
}

impl RunReport {
    /// Idents written to sinks, in commit order.
    pub fn sink_idents(&self) -> Vec<u64> {
        self.sink_output.iter().map(|(_, m, _)| m.ident).collect()
    }

    /// Duplicate idents in the effective output (must be empty for
    /// exactly-once).
    pub fn duplicate_idents(&self) -> Vec<u64> {
        let mut seen = std::collections::BTreeSet::new();
        let mut dups = Vec::new();
        for (_, m, _) in &self.sink_output {
            if !seen.insert(m.ident) {
                dups.push(m.ident);
            }
        }
        dups
    }

    /// Per-producer gap check: for each producer feeding the sinks, the
    /// observed sequence numbers must be the contiguous range `0..=max`
    /// (missing middles = lost records; must be empty for at-least/exactly
    /// once).
    pub fn ident_gaps(&self) -> Vec<(TaskId, u64)> {
        let mut by_producer: BTreeMap<TaskId, Vec<u64>> = BTreeMap::new();
        for (_, m, rec) in &self.sink_output {
            let _ = m;
            let producer = rec.ident >> 40;
            by_producer.entry(producer).or_default().push(rec.ident & ((1 << 40) - 1));
        }
        let mut gaps = Vec::new();
        for (producer, mut seqs) in by_producer {
            seqs.sort_unstable();
            seqs.dedup();
            let max = *seqs.last().expect("nonempty");
            if seqs.len() as u64 != max + 1 {
                let mut expect = 0u64;
                for s in seqs {
                    while expect < s {
                        gaps.push((producer, expect));
                        expect += 1;
                    }
                    expect = s + 1;
                }
            }
        }
        gaps
    }

    /// Multiset of output rows (canonical bytes), for golden comparison of
    /// deterministic pipelines.
    pub fn output_multiset(&self) -> Vec<bytes::Bytes> {
        let mut v: Vec<bytes::Bytes> =
            self.sink_output.iter().map(|(_, _, r)| r.row.to_bytes()).collect();
        v.sort();
        v
    }

    /// Recovery time per the paper's definition: time from the first failure
    /// until observed latency returns (and stays) within `tol` × the
    /// pre-failure latency. Computed over 250 ms bucket means to suppress
    /// per-record jitter; the baseline is the mean over the 15 s preceding
    /// the failure.
    pub fn recovery_time(&self, tol: f64) -> Option<VirtualDuration> {
        let fail_at = self
            .causal_events
            .iter()
            .find(|e| e.kind == crate::metrics::Kind::TaskKilled)
            .map(|e| e.at)?;
        const BUCKET: u64 = 250_000; // micros
        let mut bucketed = clonos_sim::TimeSeries::new();
        let points = self.latency_series.points();
        let mut i = 0;
        while i < points.len() {
            let start = points[i].0.as_micros() / BUCKET * BUCKET;
            let mut sum = 0.0;
            let mut n = 0;
            while i < points.len() && points[i].0.as_micros() < start + BUCKET {
                sum += points[i].1;
                n += 1;
                i += 1;
            }
            bucketed.push(VirtualTime(start), sum / n as f64);
        }
        let base_from = VirtualTime(fail_at.as_micros().saturating_sub(15_000_000));
        let baseline = bucketed.mean_in(base_from, fail_at)?;
        let stable = bucketed.stabilization_time(fail_at, baseline, tol)?;
        Some(stable.saturating_sub(fail_at))
    }
}

/// Builder + driver for one job execution.
pub struct JobRunner {
    pub cluster: Cluster,
    plan: FailurePlan,
}

impl JobRunner {
    pub fn new(job: JobGraph, config: EngineConfig) -> JobRunner {
        // Reject incoherent configurations up front — a bad knob combination
        // should fail loudly at build time, not corrupt a run.
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        // Auto-create topics referenced by sources and sinks.
        let mut topics: Vec<(String, usize)> = Vec::new();
        for v in &job.vertices {
            match &v.kind {
                VertexKind::Source(s) => topics.push((s.topic.clone(), v.parallelism)),
                VertexKind::Sink(s) => topics.push((s.topic.clone(), v.parallelism)),
                VertexKind::Operator(_) => {}
            }
        }
        let mut cluster = Cluster::new(job, config);
        for (name, parts) in topics {
            if cluster.topic(&name).is_none() {
                cluster.create_topic(&name, parts);
            }
        }
        JobRunner { cluster, plan: FailurePlan::none() }
    }

    pub fn with_failures(mut self, plan: FailurePlan) -> JobRunner {
        self.plan = plan;
        self
    }

    /// Apply a generated chaos scenario: its discrete injections become the
    /// failure plan, and its control-plane knobs (message loss/delay,
    /// detection jitter) are written into the cluster config. Must be called
    /// before `run_for` (the knobs are read at event-dispatch time, but a
    /// consistent run needs them fixed from the start).
    pub fn with_chaos(mut self, chaos: &ChaosPlan) -> JobRunner {
        self.plan = FailurePlan::from_chaos(chaos);
        self.cluster.config.ctrl_loss_prob = chaos.ctrl_loss_prob;
        self.cluster.config.ctrl_delay_prob = chaos.ctrl_delay_prob;
        self.cluster.config.ctrl_max_delay = chaos.ctrl_max_delay;
        self.cluster.config.detection_jitter = chaos.detection_jitter;
        self
    }

    /// Append pre-generated rows to an input topic partition.
    pub fn populate(&mut self, topic: &str, partition: usize, rows: impl IntoIterator<Item = Row>) {
        let log = self
            .cluster
            .topic_mut(topic)
            .unwrap_or_else(|| panic!("unknown topic {topic}"));
        let p = partition % log.num_partitions();
        for row in rows {
            log.partition_mut(p).append(row.to_bytes());
        }
    }

    /// Drive the job for `duration` of virtual time and collect the report.
    #[allow(clippy::disallowed_methods)] // see clonos-lint allow below
    pub fn run_for(mut self, duration: VirtualDuration) -> RunReport {
        // Host wall-clock by design: `wall_seconds` measures real CPU cost of
        // driving the simulation (the Figure-5 overhead metric) and feeds only
        // the human-facing RunReport — it never influences simulated behaviour.
        // clonos-lint: allow(wall-clock, reason = "measures host CPU for the Fig-5 overhead metric; feeds only the human-facing RunReport")
        let wall_start = std::time::Instant::now();
        let end = VirtualTime::ZERO + duration;
        let mut faults = self.plan.faults.clone();
        faults.sort_by_key(|&(t, _)| t);
        for (at, fault) in faults {
            if at > end {
                break;
            }
            self.cluster.run_until(at);
            match fault {
                Fault::KillTask(task) => self.cluster.kill_task(task),
                Fault::KillNode(node) => self.cluster.kill_node(node),
                Fault::InterruptStandby(task) => self.cluster.interrupt_standby(task),
                Fault::SlowTask { task, factor, window } => {
                    self.cluster.slow_task(task, factor, window)
                }
            }
        }
        self.cluster.run_until(end);
        let wall_seconds = wall_start.elapsed().as_secs_f64();
        self.report(wall_seconds)
    }

    /// Drive the job for `duration` of virtual time on the multi-threaded
    /// sharded actor runtime (see [`crate::runtime`]) and collect the same
    /// report as [`run_for`](JobRunner::run_for). Failure-free only: the
    /// chaos/recovery machinery is pinned to the deterministic sim
    /// scheduler, so a non-empty failure plan panics.
    #[allow(clippy::disallowed_methods)] // see clonos-lint allow below
    pub fn run_parallel_for(
        mut self,
        duration: VirtualDuration,
        pcfg: &crate::runtime::ParallelConfig,
    ) -> RunReport {
        assert!(
            self.plan.faults.is_empty(),
            "the parallel runtime is failure-free; use run_for for failure plans"
        );
        // clonos-lint: allow(wall-clock, reason = "measures host CPU for the throughput benchmark; feeds only the human-facing RunReport")
        let wall_start = std::time::Instant::now();
        let end = VirtualTime::ZERO + duration;
        crate::runtime::run(&mut self.cluster, end, pcfg);
        let wall_seconds = wall_start.elapsed().as_secs_f64();
        self.report(wall_seconds)
    }

    fn report(mut self, wall_seconds: f64) -> RunReport {
        // Gather effective sink output from every sink task's partition.
        let mut sink_output = Vec::new();
        let sinks: Vec<(TaskId, String, usize)> = self
            .cluster
            .graph
            .tasks
            .iter()
            .filter_map(|t| match self.cluster.vertex_kind(t.vertex) {
                Some(VertexKind::Sink(s)) => Some((t.id, s.topic.clone(), t.subtask)),
                _ => None,
            })
            .collect();
        for (id, topic, subtask) in sinks {
            if let Some(t) = self.cluster.topic(&topic) {
                let p = subtask % t.num_partitions();
                for (meta, rec) in effective_sink_records(t.partition(p), id) {
                    sink_output.push((id, meta, rec));
                }
            }
        }
        let counters = self.cluster.counters();
        let metrics = &mut self.cluster.metrics;
        // Commit time, then sink: each sink's samples stay in commit order.
        let mut samples = std::mem::take(&mut metrics.sink_samples);
        samples.sort_by_key(|&(at, _, sink)| (at, sink));
        let mut latencies: Vec<VirtualDuration> = samples.iter().map(|s| s.1).collect();
        latencies.sort_unstable();
        let recovery_stats = metrics.recovery_stats();
        RunReport {
            sink_output,
            records_in: metrics.records_in,
            records_out: metrics.records_out,
            latency_series: samples.iter().map(|&(at, lat, _)| (at, lat.as_secs_f64())).collect(),
            throughput: crate::metrics::throughput(&samples),
            latency_p50: crate::metrics::percentile(&latencies, 50.0),
            latency_p99: crate::metrics::percentile(&latencies, 99.0),
            causal_events: std::mem::take(&mut metrics.trace),
            log_stats: counters.log,
            routing_stats: counters.routing,
            ts_service_calls: counters.ts_calls,
            ts_service_determinants: counters.ts_determinants,
            inflight_bytes: self.cluster.total_inflight_bytes(),
            inflight_stats: counters.inflight,
            determinant_bytes: self.cluster.total_determinant_bytes(),
            last_completed_checkpoint: self.cluster.last_completed_checkpoint(),
            recovery_stats,
            checkpoint_stats: counters.ckpt,
            runtime_stats: self.cluster.runtime_stats,
            state_backend_stats: counters.backend,
            wall_seconds,
        }
    }
}
