//! The simulated cluster: the substrate a job runs on — the event queue,
//! the task slots and their node placement, the storage substrates, failure
//! injection and the report-time folds over live and retired tasks.
//!
//! The job manager (actor id 0) is `coordinator::JobManager`: `Cluster`
//! hands it every message addressed to `JM`, lending its queue and task
//! slots as the manager's `TaskHost` for the call.

use crate::config::{EngineConfig, FtMode};
use crate::coordinator::{JmCtx, JobManager, TaskHost};
use crate::error::EngineError;
use crate::graph::{ExecutionGraph, JobGraph, VertexId, VertexKind};
use crate::messages::Msg;
use crate::metrics::{CausalRef, Escalation, JobMetrics, Kind, TaskCounters};
use crate::task::{encode_abort_marker, Task, TaskCtx, TaskSnapshot};
use bytes::Bytes;
use clonos::standby::AllocationStrategy;
use clonos::TaskId;
use clonos_sim::{ActorId, Link, Scheduler, SimRng, Simulation, VirtualDuration, VirtualTime};
use clonos_storage::external::ExternalKv;
use clonos_storage::log::DurableLog;
use clonos_storage::snapshot::{SnapshotStore, TransferModel};
use std::collections::BTreeMap;

/// Job-manager actor id.
pub const JM: TaskId = 0;

/// The simulated cluster.
pub struct Cluster {
    pub sim: Simulation<Msg>,
    pub links: BTreeMap<(TaskId, TaskId), Link>,
    pub external: ExternalKv,
    pub topics: BTreeMap<String, DurableLog>,
    pub snapshots: SnapshotStore,
    pub config: EngineConfig,
    pub entropy: SimRng,
    pub metrics: JobMetrics,
    pub graph: ExecutionGraph,
    /// Counters from the multi-threaded runtime (all zero under the sim
    /// scheduler); installed at parallel-runtime teardown.
    pub runtime_stats: crate::metrics::RuntimeStats,
    job: JobGraph,
    tasks: BTreeMap<TaskId, Option<Task>>,
    /// Task → hosting node (round-robin placement; standbys anti-affine).
    nodes: BTreeMap<TaskId, u32>,
    pub(crate) jm: JobManager,
    depth: u32,
    /// Counters of retired task incarnations (killed, rolled back, or
    /// replaced), folded in before the `Task` object is dropped.
    retired: TaskCounters,
    /// Fatal task errors (should stay empty in correct runs).
    pub errors: Vec<String>,
}

/// The substrate half of the cluster, lent to the job manager as its
/// `TaskHost` while it handles one input: disjoint from the manager and
/// from the rest of its `JmCtx`.
struct Host<'a> {
    sim: &'a mut Simulation<Msg>,
    tasks: &'a mut BTreeMap<TaskId, Option<Task>>,
    retired: &'a mut TaskCounters,
    topics: &'a mut BTreeMap<String, DurableLog>,
    job: &'a JobGraph,
    graph: &'a ExecutionGraph,
    config: &'a EngineConfig,
    depth: u32,
}

impl Scheduler<Msg> for Host<'_> {
    fn now(&self) -> VirtualTime {
        self.sim.now()
    }

    fn schedule_at(&mut self, at: VirtualTime, dest: ActorId, msg: Msg) {
        self.sim.schedule_at(at, dest, msg);
    }
}

impl TaskHost for Host<'_> {
    fn replace_task(&mut self, id: TaskId, gen_of: &dyn Fn(TaskId) -> u32) -> Result<(), EngineError> {
        let spec = self.graph.task(id).clone();
        let kind = &self.job.vertices[spec.vertex.0].kind;
        let partitioning = self.graph.edge_partitioning.clone();
        let mut task = Task::new(spec, kind, partitioning, self.config, self.depth, gen_of(id));
        task.set_neighbor_gens(gen_of);
        if let Some(old) = self.tasks.insert(id, Some(task)).flatten() {
            self.retired.absorb(&old.counters());
        }
        Ok(())
    }

    fn cancel_task(&mut self, id: TaskId) -> Result<(), EngineError> {
        if let Some(old) = self.tasks.insert(id, None).flatten() {
            self.retired.absorb(&old.counters());
        }
        self.sim.drop_events_for(id);
        Ok(())
    }

    fn is_live(&self, id: TaskId) -> Result<bool, EngineError> {
        Ok(self.tasks.get(&id).is_some_and(Option::is_some))
    }

    fn write_abort_markers(&mut self, gen: u32, resume_cp: u64) -> Result<(), EngineError> {
        for spec in &self.graph.tasks {
            let VertexKind::Sink(s) = &self.job.vertices[spec.vertex.0].kind else { continue };
            if let Some(topic) = self.topics.get_mut(&s.topic) {
                let p = spec.subtask % topic.num_partitions();
                let marker = encode_abort_marker(spec.id, gen, resume_cp);
                topic.partition_mut(p).append_with_meta(Bytes::new(), Some(marker));
            }
        }
        Ok(())
    }
}

impl Cluster {
    pub fn new(job: JobGraph, config: EngineConfig) -> Cluster {
        let graph = ExecutionGraph::expand(&job, 1);
        let depth = graph.depth();
        let jm = JobManager::new(&graph, depth);
        let root = SimRng::new(config.seed);
        let mut cluster = Cluster {
            sim: Simulation::new(),
            links: BTreeMap::new(),
            external: ExternalKv::new(config.seed ^ 0xE47),
            topics: BTreeMap::new(),
            snapshots: SnapshotStore::with_model(TransferModel::default()),
            entropy: root.fork(0xC0FFEE),
            metrics: JobMetrics::default(),
            graph,
            runtime_stats: crate::metrics::RuntimeStats::default(),
            job,
            tasks: BTreeMap::new(),
            nodes: BTreeMap::new(),
            jm,
            depth,
            retired: TaskCounters::default(),
            errors: Vec::new(),
            config,
        };
        cluster.deploy();
        cluster
    }

    /// Register an input/output topic before running.
    pub fn create_topic(&mut self, name: &str, partitions: usize) {
        self.topics.insert(name.to_string(), DurableLog::new(name, partitions));
    }

    pub fn topic(&self, name: &str) -> Option<&DurableLog> {
        self.topics.get(name)
    }

    pub fn topic_mut(&mut self, name: &str) -> Option<&mut DurableLog> {
        self.topics.get_mut(name)
    }

    pub fn last_completed_checkpoint(&self) -> u64 {
        self.jm.last_completed()
    }

    /// The kind of job vertex `vertex`.
    pub(crate) fn vertex_kind(&self, vertex: VertexId) -> Option<&VertexKind> {
        self.job.vertices.get(vertex.0).map(|v| &v.kind)
    }

    /// Detach a live task from the cluster (parallel-runtime handoff: the
    /// actor cell takes ownership for the duration of the threaded run).
    pub(crate) fn take_task(&mut self, id: TaskId) -> Option<Task> {
        self.tasks.get_mut(&id).and_then(|slot| slot.take())
    }

    /// Re-attach a task after a parallel run so the report-time aggregators
    /// (log/routing/checkpoint stats, state digests) see its final state.
    pub(crate) fn install_task(&mut self, id: TaskId, task: Task) {
        self.tasks.insert(id, Some(task));
    }

    fn deploy(&mut self) {
        let ids: Vec<TaskId> = self.graph.tasks.iter().map(|t| t.id).collect();
        let num_nodes = self.config.num_nodes;
        for (i, &id) in ids.iter().enumerate() {
            self.nodes.insert(id, (i as u32) % num_nodes);
        }
        // Every task as incarnation 0.
        self.with_jm(|_, ctx| ids.iter().try_for_each(|&id| ctx.host.replace_task(id, &|_| 0)));
        // Standbys.
        if let FtMode::Clonos(c) = &self.config.ft {
            if c.standby_tasks {
                for &id in &ids {
                    let node = self.nodes[&id];
                    let standby = self.jm.standby_mut();
                    standby.register(id, node, num_nodes, AllocationStrategy::AntiAffinity);
                }
            }
        }
        // Start every task.
        for &id in &ids {
            self.with_task(id, |task, ctx| {
                task.start(ctx);
                Ok(())
            });
        }
        // Checkpoint ticks.
        if !matches!(self.config.ft, FtMode::None) {
            let interval = self.config.checkpoint_interval;
            self.sim.schedule_in(interval, JM, Msg::CheckpointTick);
        }
    }

    /// Run a closure against the job manager, with the cluster's queue and
    /// task slots lent as its host; an error it returns is recorded.
    fn with_jm(
        &mut self,
        f: impl FnOnce(&mut JobManager, &mut JmCtx<'_>) -> Result<(), EngineError>,
    ) {
        let mut host = Host {
            sim: &mut self.sim,
            tasks: &mut self.tasks,
            retired: &mut self.retired,
            topics: &mut self.topics,
            job: &self.job,
            graph: &self.graph,
            config: &self.config,
            depth: self.depth,
        };
        let mut ctx = JmCtx {
            host: &mut host,
            snapshots: &mut self.snapshots,
            config: &self.config,
            metrics: &mut self.metrics,
            entropy: &mut self.entropy,
            errors: &mut self.errors,
        };
        if let Err(e) = f(&mut self.jm, &mut ctx) {
            self.errors.push(format!("job manager: {e}"));
        }
    }

    /// Run a closure against one task with a fully wired context.
    ///
    /// Replay-divergence errors are the runtime signal of §5.3 Case 2 — an
    /// orphaned dependency whose determinants died with the failed set
    /// (possible when DSD < graph depth and consecutive tasks fail). Per the
    /// paper, the task escalates to the job manager, whose orphan policy
    /// either triggers a global rollback or — if availability is preferred —
    /// has the task abandon replay and continue at-least-once.
    fn with_task(&mut self, id: TaskId, f: impl FnOnce(&mut Task, &mut TaskCtx<'_>) -> Result<(), EngineError>) {
        let Some(slot) = self.tasks.get_mut(&id) else { return };
        let Some(mut task) = slot.take() else { return };
        let mut ctx = TaskCtx {
            sched: &mut self.sim,
            links: &mut self.links,
            external: &mut self.external,
            topics: &mut self.topics,
            config: &self.config,
            entropy: &mut self.entropy,
            metrics: &mut self.metrics,
        };
        let diverged = match f(&mut task, &mut ctx) {
            Err(e) if e.is_replay_divergence() && ctx.config.ft.clonos().is_some() => {
                Some(task.gen as u64)
            }
            Err(e) => {
                self.errors.push(format!("task {id}: {e}"));
                None
            }
            Ok(()) => None,
        };
        if let Some(slot) = self.tasks.get_mut(&id) {
            *slot = Some(task);
        }
        let Some(epoch) = diverged else { return };
        let cause = CausalRef { kind: Kind::BeginReplay, epoch, task: id };
        let mut go_on = false;
        self.with_jm(|jm, ctx| {
            go_on = jm.orphaned(ctx, Escalation::ReplayDiverged, cause)?;
            Ok(())
        });
        if go_on {
            self.with_task(id, abandon_replay);
        }
    }

    /// Inject a failure: kill the task at the current instant. Detection is
    /// scheduled per the configured mode's detection delay plus seeded
    /// jitter, and carries the dying incarnation so the JM can discard stale
    /// notifications about already-replaced incarnations.
    pub fn kill_task(&mut self, id: TaskId) {
        if !matches!(self.tasks.get(&id), Some(Some(_))) {
            return;
        }
        self.with_jm(|_, ctx| ctx.host.cancel_task(id));
        let now = self.sim.now();
        let gen = self.jm.gen(id);
        self.metrics.record(now, Kind::TaskKilled, gen as u64, id, None);
        let mut delay = self.config.detection_delay();
        let jitter = self.config.detection_jitter.as_micros();
        if jitter > 0 {
            delay = delay + VirtualDuration::from_micros(self.entropy.gen_range(jitter));
        }
        self.sim
            .schedule_in(delay, JM, Msg::FailureDetected { task: id, gen, killed_at: now });
    }

    /// Crash a whole node: every live task hosted there dies at once, and
    /// standbys hosted there lose their preloaded state and relocate (their
    /// next activation falls back to a cold snapshot load).
    pub fn kill_node(&mut self, node: u32) {
        let now = self.sim.now();
        self.metrics.record(now, Kind::NodeCrashed { node }, 0, JM, None);
        let nodes = self.nodes.clone();
        let lost = self.jm.standby_mut().fail_node(node, self.config.num_nodes, now, |t| {
            nodes.get(&t).copied().unwrap_or(0)
        });
        for t in lost {
            self.metrics.record(now, Kind::StandbyLost { node }, 0, t, None);
        }
        let victims: Vec<TaskId> =
            nodes.iter().filter(|&(_, &n)| n == node).map(|(&t, _)| t).collect();
        for t in victims {
            self.kill_task(t);
        }
    }

    /// Inject a sustained slowdown: `task` consumes records `factor`× slower
    /// than its configured cost until `window` elapses. Input queues back up
    /// behind the throttle, which is what creates real barrier-overtaking
    /// pressure for aligned-vs-unaligned checkpoint comparisons.
    pub fn slow_task(&mut self, task: TaskId, factor: u64, window: VirtualDuration) {
        let now = self.sim.now();
        let kind = Kind::Slowdown { factor, for_us: window.as_micros() };
        self.metrics.record(now, kind, 0, task, None);
        let until = now + window;
        self.with_task(task, |t, _| {
            t.apply_slowdown(factor, until);
            Ok(())
        });
    }

    /// Interrupt an in-flight standby state transfer (no-op if none is in
    /// transit); the standby reverts to empty and the next activation
    /// cold-starts from the snapshot store.
    pub fn interrupt_standby(&mut self, task: TaskId) {
        let now = self.sim.now();
        if self.jm.standby_mut().interrupt_transfer(task, now) {
            self.metrics.record(now, Kind::StandbyInterrupted, 0, task, None);
        }
    }

    /// Drive the simulation until virtual time `until` (or event exhaustion).
    pub fn run_until(&mut self, until: VirtualTime) {
        while let Some(t) = self.sim.peek_time() {
            if t > until {
                break;
            }
            let d = self.sim.pop().expect("peeked");
            self.dispatch(d.dest, d.msg);
            if !self.errors.is_empty() {
                // Surface the first error loudly — correctness bug.
                panic!("engine error: {}", self.errors[0]);
            }
        }
    }

    fn dispatch(&mut self, dest: TaskId, msg: Msg) {
        if dest == JM {
            self.with_jm(|jm, ctx| jm.handle(msg, ctx));
        } else {
            self.with_task(dest, |task, ctx| task.handle(msg, ctx));
        }
    }

    // ------------------------------------------------------------------
    // Introspection for tests & benches
    // ------------------------------------------------------------------

    /// Per-task state digests (None for dead tasks).
    pub fn state_digests(&self) -> BTreeMap<TaskId, Option<u64>> {
        self.tasks
            .iter()
            .map(|(&id, t)| (id, t.as_ref().map(|t| t.state_digest())))
            .collect()
    }

    /// Every per-task counter block, summed over retired and live
    /// incarnations, with the snapshot store's reconstruction work and the
    /// standby manager's delta shipping in the checkpoint block: the job
    /// totals `RunReport` carries.
    pub(crate) fn counters(&self) -> TaskCounters {
        let mut total = self.retired;
        for t in self.tasks.values().flatten() {
            total.absorb(&t.counters());
        }
        total.ckpt.reconstructions = self.snapshots.reconstructions();
        total.ckpt.reconstruct_us = self.snapshots.reconstruct_us();
        total.ckpt.delta_dispatches = self.jm.standby().delta_dispatches();
        total
    }

    /// Sum of in-flight log bytes across live tasks (memory accounting, §7.5).
    pub fn total_inflight_bytes(&self) -> u64 {
        self.tasks
            .values()
            .flatten()
            .map(|t| t.inflight_total_bytes())
            .sum()
    }

    /// Resident causal-log bytes summed over live tasks (§7.5 determinant pool).
    pub fn total_determinant_bytes(&self) -> u64 {
        self.tasks.values().flatten().map(|t| t.log.resident_bytes()).sum()
    }

    pub fn snapshot_of(&mut self, cp: u64, task: TaskId) -> Option<TaskSnapshot> {
        let now = self.sim.now();
        let (bytes, _) = self.snapshots.get(now, cp, task)?;
        TaskSnapshot::decode(&bytes).ok()
    }
}

/// The orphan policy chose at-least-once for a diverged replay: go on live.
fn abandon_replay(task: &mut Task, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
    task.abandon_replay(ctx);
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::CheckpointMode;
    use crate::graph::{Partitioning, SinkSpec, SourceSpec};
    use crate::operator::{factory, OpCtx};
    use crate::operators::ProcessOp;
    use crate::record::{Datum, Record, Row};
    use crate::runner::JobRunner;
    use clonos::config::{ClonosConfig, SharingDepth};

    /// Task id of the keyed counter in `counting_cluster`.
    const COUNTER: TaskId = 2;

    /// source → keyed running count → sink, one subtask each, no input yet.
    pub(crate) fn counting_cluster(config: EngineConfig) -> Cluster {
        let mut g = JobGraph::new("restore");
        let src = g.add_source("src", 1, SourceSpec::new("in").rate(4_000).key_field(0));
        let count = g.add_operator(
            "count",
            1,
            factory(|| {
                ProcessOp::new(|_i, rec: &Record, ctx: &mut OpCtx<'_>| {
                    let c = ctx.state.value(0, rec.key).map(|r| r.int(0)).unwrap_or(0) + 1;
                    ctx.state.set_value(0, rec.key, Row::new(vec![Datum::Int(c)]));
                    ctx.emit(rec.key, rec.event_time, Row::new(vec![Datum::Int(c)]));
                    Ok(())
                })
            }),
        );
        let snk = g.add_sink("out", 1, SinkSpec { topic: "out".into() });
        g.connect(src, count, Partitioning::Hash);
        g.connect(count, snk, Partitioning::Hash);
        let cluster = JobRunner::new(g, config).cluster;
        assert!(!cluster.graph.task(COUNTER).inputs.is_empty());
        assert!(!cluster.graph.task(COUNTER).outputs.is_empty());
        cluster
    }

    /// Append one second's worth of input over `keys`.
    pub(crate) fn append_input(cluster: &mut Cluster, keys: std::ops::Range<i64>) {
        let log = cluster.topic_mut("in").expect("source topic");
        for i in 0..4_000 {
            let key = keys.start + i % (keys.end - keys.start);
            log.partition_mut(0).append(Row::new(vec![Datum::Int(key), Datum::Int(i)]).to_bytes());
        }
    }

    /// `append_input`, then run to `until`: the job is idle again well
    /// before the next checkpoint cut.
    fn feed(cluster: &mut Cluster, keys: std::ops::Range<i64>, until: u64) {
        append_input(cluster, keys);
        cluster.run_until(VirtualTime::ZERO + VirtualDuration::from_secs(until));
    }

    pub(crate) fn clonos() -> EngineConfig {
        EngineConfig::default()
            .with_seed(7)
            .with_ft(FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)))
    }

    #[test]
    fn activated_standby_is_handed_the_store_image_of_the_cut() {
        for (mode, budget) in [
            (CheckpointMode::Aligned, 0),
            (CheckpointMode::Unaligned, 0),
            (CheckpointMode::Aligned, 2_048),
        ] {
            let mut config = clonos().with_checkpoint_mode(mode);
            config.state_memory_budget = budget;
            let mut cluster = counting_cluster(config);
            // Checkpoints at 5, 10, 15 s: a base and two deltas that add,
            // overwrite and leave keys alone.
            feed(&mut cluster, 0..300, 6);
            feed(&mut cluster, 200..500, 11);
            feed(&mut cluster, 0..100, 16);
            let what = format!("{mode:?}, budget {budget}");
            assert_eq!(cluster.last_completed_checkpoint(), 3, "{what}");
            assert_eq!(cluster.snapshots.newest_layer(3, COUNTER).and_then(|(b, _)| b.parent), Some(2), "{what}");
            // Idle since ~12 s, so this is also the state at the 15 s cut.
            let live = cluster.state_digests()[&COUNTER].expect("counter is alive");

            let reads = cluster.snapshots.reads();
            cluster.kill_task(COUNTER);
            while cluster.jm.gathered_image(COUNTER).is_none() {
                let next = cluster.sim.peek_time().expect("failure detection is scheduled");
                cluster.run_until(next);
            }
            let (resume_cp, handed) =
                cluster.jm.gathered_image(COUNTER).map(|(cp, state)| (cp, state.clone())).expect("gather");
            assert_eq!(resume_cp, 3, "{what}");
            assert_eq!(cluster.snapshots.reads(), reads, "{what}: standby path must not read the store");
            let now = cluster.sim.now();
            let (stored, _) = cluster.snapshots.get(now, 3, COUNTER).expect("image folds");
            assert_eq!(handed, stored, "{what}");
            let restored = TaskSnapshot::decode(&handed).expect("image decodes");
            assert_eq!(restored.store.digest(), live, "{what}");

            // No input since: the recovered task ends where the dead one was.
            cluster.run_until(VirtualTime::ZERO + VirtualDuration::from_secs(30));
            assert_eq!(cluster.state_digests()[&COUNTER], Some(live), "{what}");
        }
    }

    #[test]
    fn a_killed_incarnation_keeps_its_counts_in_the_job_totals() {
        let counts = |c: &Cluster| {
            let c = c.counters();
            [c.log.determinants_recorded, c.routing.records_routed, c.inflight.buffers_logged]
        };
        let mut cluster = counting_cluster(clonos());
        feed(&mut cluster, 0..300, 6);
        let before = counts(&cluster);
        cluster.kill_task(COUNTER);
        assert_eq!(counts(&cluster), before, "the kill itself erases nothing");
        // Recovered well before 12 s; the new incarnation adds to the totals.
        feed(&mut cluster, 0..300, 12);
        assert!(cluster.state_digests()[&COUNTER].is_some(), "counter recovered");
        let after = counts(&cluster);
        assert!(before.iter().zip(&after).all(|(b, a)| b < a), "{before:?} -> {after:?}");
    }

    #[test]
    #[should_panic(expected = "engine error: task 2: codec error: unexpected EOF")]
    fn a_tier_read_that_fails_is_an_engine_error_not_a_count_restarted_from_zero() {
        let mut config = clonos();
        config.state_memory_budget = 1_024;
        let mut cluster = counting_cluster(config);
        // The cut at 5 s seals the 300 counts into one segment; a 1 KiB cache
        // keeps a tenth of them.
        feed(&mut cluster, 0..300, 6);
        let counter = cluster.tasks.get_mut(&COUNTER).and_then(Option::as_mut).expect("counter");
        counter.state_mut().damage_newest_segment(|payload| payload.truncate(1));
        // The same keys again: most reads must fault, and cannot.
        feed(&mut cluster, 0..300, 8);
    }

    /// Damage the newest layer of the counter's checkpoint-2 image, then
    /// fail the counter so the job has to restore from it.
    fn restore_from_damaged_layer(config: EngineConfig) {
        let mut cluster = counting_cluster(config);
        feed(&mut cluster, 0..300, 6);
        feed(&mut cluster, 200..500, 11);
        assert_eq!(cluster.last_completed_checkpoint(), 2);
        let now = cluster.sim.now();
        cluster.snapshots.put_delta(now, 2, COUNTER, 1, Bytes::from_static(b"\x02not a layer"));
        cluster.kill_task(COUNTER);
        cluster.run_until(VirtualTime::ZERO + VirtualDuration::from_secs(30));
    }

    #[test]
    #[should_panic(expected = "engine error: task 2: checkpoint 2 image is missing or undecodable")]
    fn local_recovery_from_an_undecodable_image_is_an_error_not_a_fresh_start() {
        restore_from_damaged_layer(clonos());
    }

    #[test]
    #[should_panic(expected = "engine error: task 2: checkpoint 2 image is missing or undecodable")]
    fn global_rollback_from_an_undecodable_image_is_an_error_not_a_fresh_start() {
        restore_from_damaged_layer(EngineConfig::default().with_seed(7).with_ft(FtMode::GlobalRollback));
    }
}
