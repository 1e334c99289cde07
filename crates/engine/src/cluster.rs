//! The simulated cluster: owns the event queue, the tasks, the storage
//! substrates, and the job manager (actor id 0).
//!
//! The job manager implements:
//! - the **checkpoint coordinator** (periodic barrier injection, ack
//!   collection and snapshot GC, completion broadcast, standby state
//!   dispatch, §6.4) — `coordinator::JobManager`, which the threaded runtime
//!   drives too;
//! - **failure detection** (connection-reset propagation for Clonos,
//!   heartbeat-timeout for the baseline);
//! - the **recovery orchestration**: Figure-4 analysis, standby activation,
//!   determinant-log gathering from downstream survivors, and dispatch of
//!   `BeginReplay` — or a stop-the-world `RestartAll` for the baseline and
//!   for Clonos' orphan fallback.

use crate::config::{EngineConfig, FtMode, GATHER_TIMEOUT, RECOVERY_TIMEOUT};
use crate::coordinator::{JmCtx, JobManager, LogGather};
use crate::error::EngineError;
use crate::graph::{ExecutionGraph, JobGraph, Partitioning, VertexKind};
use crate::messages::Msg;
use crate::metrics::{JobMetrics, TaskCounters};
use crate::task::{encode_abort_marker, recovery_ctrl_delay, Task, TaskCtx, TaskSnapshot};
use bytes::Bytes;
use clonos::causal_log::TaskLogSnapshot;
use clonos::recovery::{analyze_failure, RecoveryDecision};
use clonos::standby::AllocationStrategy;
use clonos::{ChannelId, TaskId};
use clonos_sim::{Link, SimRng, Simulation, VirtualDuration, VirtualTime};
use clonos_storage::external::ExternalKv;
use clonos_storage::log::DurableLog;
use clonos_storage::snapshot::{SnapshotStore, TransferModel};
use std::collections::{BTreeMap, BTreeSet};

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
    gens: BTreeMap<TaskId, u32>,
    pub(crate) jm: JobManager,
    depth: u32,
    /// Counters of retired task incarnations (killed, rolled back, or
    /// replaced), folded in before the `Task` object is dropped.
    retired: TaskCounters,
    /// Fatal task errors (should stay empty in correct runs).
    pub errors: Vec<String>,
}

impl Cluster {
    pub fn new(job: JobGraph, config: EngineConfig) -> Cluster {
        let graph = ExecutionGraph::expand(&job, 1);
        let depth = graph.depth();
        let jm = JobManager::new(&graph.tasks);
        let root = SimRng::new(config.seed);
        let mut cluster = Cluster {
            sim: Simulation::new(),
            links: BTreeMap::new(),
            external: ExternalKv::new(config.seed ^ 0xE47),
            topics: BTreeMap::new(),
            snapshots: SnapshotStore::with_model(TransferModel::default()),
            entropy: root.fork(0xC0FFEE),
            metrics: JobMetrics::new(VirtualDuration::from_secs(1)),
            graph,
            runtime_stats: crate::metrics::RuntimeStats::default(),
            job,
            tasks: BTreeMap::new(),
            nodes: BTreeMap::new(),
            gens: BTreeMap::new(),
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
        self.jm.last_completed
    }

    /// Vertex kind lookup for external consumers (the runner).
    pub fn vertex_kind_pub(&self, vertex: crate::graph::VertexId) -> Option<VertexKind> {
        self.job.vertices.get(vertex.0).map(|v| v.kind.clone())
    }

    fn vertex_kind(&self, task: TaskId) -> VertexKind {
        let spec = self.graph.task(task);
        self.job.vertices[spec.vertex.0].kind.clone()
    }

    fn edge_partitionings(&self) -> Vec<Partitioning> {
        self.graph.edge_partitioning.clone()
    }

    fn build_task(&self, id: TaskId, gen: u32) -> Task {
        let spec = self.graph.task(id).clone();
        let kind = self.vertex_kind(id);
        Task::new(spec, &kind, self.edge_partitionings(), &self.config, self.depth, gen)
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
            let task = self.build_task(id, 0);
            self.tasks.insert(id, Some(task));
            self.nodes.insert(id, (i as u32) % num_nodes);
            self.gens.insert(id, 0);
        }
        // Standbys.
        if let FtMode::Clonos(c) = &self.config.ft {
            if c.standby_tasks {
                for &id in &ids {
                    let node = self.nodes[&id];
                    self.jm.standby.register(id, node, num_nodes, AllocationStrategy::AntiAffinity);
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

    /// Run a closure against one task with a fully wired context.
    ///
    /// Replay-divergence errors are the runtime signal of §5.3 Case 2 — an
    /// orphaned dependency whose determinants died with the failed set
    /// (possible when DSD < graph depth and consecutive tasks fail). Per the
    /// paper, the task escalates to the job manager, which either triggers a
    /// global rollback or — if availability is preferred — lets the task
    /// abandon replay and continue at-least-once.
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
        let mut escalate = false;
        let mut plain_error = None;
        if let Err(e) = f(&mut task, &mut ctx) {
            if e.is_replay_divergence() && ctx.config.ft.is_clonos() {
                let prefer_availability = ctx
                    .config
                    .ft
                    .clonos()
                    .map(|c| c.prefer_availability_on_orphans)
                    .unwrap_or(false);
                let now = ctx.sched.now();
                if prefer_availability {
                    ctx.metrics.event(
                        now,
                        format!("task {id} orphaned mid-replay: continuing at-least-once"),
                    );
                    task.abandon_replay(&mut ctx);
                } else {
                    ctx.metrics.event(
                        now,
                        format!(
                            "task {id} orphaned mid-replay ({e}): escalating to global rollback"
                        ),
                    );
                    escalate = true;
                }
            } else {
                plain_error = Some(format!("task {id}: {e}"));
            }
        }
        if let Some(e) = plain_error {
            self.errors.push(e);
        }
        if let Some(slot) = self.tasks.get_mut(&id) {
            *slot = Some(task);
        }
        if escalate {
            self.schedule_rollback();
        }
    }

    /// Inject a failure: kill the task at the current instant. Detection is
    /// scheduled per the configured mode's detection delay plus seeded
    /// jitter, and carries the dying incarnation so the JM can discard stale
    /// notifications about already-replaced incarnations.
    pub fn kill_task(&mut self, id: TaskId) {
        let Some(slot) = self.tasks.get_mut(&id) else { return };
        if slot.is_none() {
            return;
        }
        let old = slot.take();
        self.retire(old);
        self.sim.drop_events_for(id);
        let now = self.sim.now();
        self.metrics.event(now, format!("FAILURE task {id}"));
        let gen = self.gens.get(&id).copied().unwrap_or(0);
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
        self.metrics.event(now, format!("NODE FAILURE node {node}"));
        self.metrics.recovery.node_crashes += 1;
        let nodes = self.nodes.clone();
        let lost = self.jm.standby.fail_node(node, self.config.num_nodes, now, |t| {
            nodes.get(&t).copied().unwrap_or(0)
        });
        for t in lost {
            self.metrics.event(now, format!("standby of task {t} lost with node {node}"));
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
        self.metrics
            .event(now, format!("SLOWDOWN task {task} x{factor} for {}us", window.as_micros()));
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
        if self.jm.standby.interrupt_transfer(task, now) {
            self.metrics.recovery.standby_interrupts += 1;
            self.metrics
                .event(now, format!("standby state transfer for task {task} interrupted"));
        }
    }

    /// Send a recovery-path control message from the JM, subject to the
    /// configured control-plane chaos (loss / extra delay).
    fn send_recovery_ctrl(&mut self, base_delay: VirtualDuration, dest: TaskId, msg: Msg) {
        if let Some(delay) = recovery_ctrl_delay(
            &self.config,
            &mut self.entropy,
            &mut self.metrics.recovery,
            base_delay,
        ) {
            self.sim.schedule_in(delay, dest, msg);
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
            self.jm_handle(msg);
        } else {
            self.with_task(dest, |task, ctx| task.handle(msg, ctx));
        }
    }

    // ------------------------------------------------------------------
    // Job manager
    // ------------------------------------------------------------------

    fn jm_handle(&mut self, msg: Msg) {
        // The checkpoint arms act through `ctx`; the recovery arms need the
        // whole cluster (they build, replace and drop tasks).
        let mut ctx = JmCtx {
            sched: &mut self.sim,
            snapshots: &mut self.snapshots,
            config: &self.config,
            metrics: &mut self.metrics,
        };
        match msg {
            Msg::CheckpointTick => self.jm.checkpoint_tick(&mut ctx),
            Msg::CheckpointAck { task, id, snapshot, delta_parent, segments } => {
                self.jm.ack(&mut ctx, task, id, snapshot, delta_parent, segments)
            }
            Msg::FailureDetected { task, gen, killed_at } => {
                self.jm_failure(task, gen, killed_at)
            }
            Msg::InstallRecovery { task } => self.jm_install(task),
            Msg::GatherTimeout { task, attempt } => self.jm_gather_timeout(task, attempt),
            Msg::RecoveryWatchdog { task, gen } => self.jm_recovery_watchdog(task, gen),
            Msg::LogResponse { origin, from, gather_id, resp } => {
                self.jm_log_response(origin, from, gather_id, resp)
            }
            Msg::RecoveryDone { task } => {
                if self.jm.recovering.remove(&task) {
                    self.metrics.recovery.recoveries_completed += 1;
                }
                self.jm.failed.remove(&task);
            }
            Msg::RestartAll => self.jm_restart_all(),
            other => {
                self.errors.push(format!("job manager received unexpected {other:?}"));
            }
        }
    }

    fn jm_failure(&mut self, task: TaskId, gen: u32, killed_at: VirtualTime) {
        let now = self.sim.now();
        // Stale notification about an incarnation the JM already replaced
        // (possible when detections race with an in-progress re-install).
        if gen < self.gens.get(&task).copied().unwrap_or(0) {
            return;
        }
        self.metrics.recovery.failures_detected += 1;
        self.metrics.recovery.detection_latency_us_total +=
            now.saturating_sub(killed_at).as_micros();
        self.metrics.recovery.detection_samples += 1;
        // Recovery-chain entry: epoch is the incarnation that died.
        self.metrics.causal_event(now, "FailureDetected", gen as u64, task, None);
        if self.jm.busy() {
            self.metrics.recovery.concurrent_failures += 1;
        }
        if self.jm.rollback_scheduled {
            // A kill landed between rollback scheduling and restart. The
            // restart rebuilds every task anyway, but the failed set must
            // stay complete: any decision made before `RestartAll` fires
            // (another detection, an analysis) sees a consistent picture.
            self.jm.failed.insert(task);
            self.metrics.event(
                now,
                format!("failure of task {task} during scheduled rollback: folded into restart"),
            );
            return;
        }
        let refailed = self.jm.failed.contains(&task);
        self.jm.failed.insert(task);
        if refailed {
            // The replacement died before its recovery finished: tear down
            // the in-progress gather/replay bookkeeping and re-run the
            // failure analysis over the enlarged failed set instead of
            // dropping the notification (which would leave `recovering`
            // non-empty forever and stall checkpointing).
            self.jm.recovering.remove(&task);
            self.jm.gathers.remove(&task);
            self.metrics.event(
                now,
                format!("replacement for task {task} died mid-recovery: restarting recovery"),
            );
        } else {
            self.metrics.event(now, format!("failure of task {task} detected"));
        }
        // A pending determinant-log gather can no longer expect a response
        // from the newly failed task.
        let mut ready = Vec::new();
        for (&origin, g) in self.jm.gathers.iter_mut() {
            if g.expected.remove(&task) && g.expected.is_empty() {
                ready.push(origin);
            }
        }
        for origin in ready {
            self.jm_dispatch_begin_replay(origin);
        }
        match &self.config.ft {
            FtMode::None => {
                self.errors.push(format!("task {task} failed with fault tolerance disabled"));
            }
            FtMode::GlobalRollback => self.schedule_rollback(),
            FtMode::Clonos(c) => {
                let dsd = c.effective_dsd(self.depth);
                let topo = self.graph.topology();
                match analyze_failure(&topo, &self.jm.failed, dsd) {
                    RecoveryDecision::Local { .. } => self.clonos_schedule_install(task),
                    RecoveryDecision::GlobalRollback { orphaned } => {
                        if c.prefer_availability_on_orphans {
                            // §5.4: favour availability — recover locally
                            // with at-least-once semantics for the orphans.
                            self.metrics.event(
                                now,
                                format!("orphaned {orphaned:?}: continuing at-least-once"),
                            );
                            self.clonos_schedule_install(task);
                        } else {
                            self.metrics.event(
                                now,
                                format!("orphaned {orphaned:?}: falling back to global rollback"),
                            );
                            self.schedule_rollback();
                        }
                    }
                }
            }
        }
    }

    /// A task's full image at `resume_cp`, folded from the store's layers
    /// now, and when it is loaded: `standby_ready` if an activated standby
    /// already holds the layers, else after a charged store read. Checkpoint
    /// 0 is the empty state. `None` — after recording an engine error — if
    /// the image is missing or undecodable: restoring must never silently
    /// become a fresh start.
    fn restore_image(
        &mut self,
        task: TaskId,
        resume_cp: u64,
        standby_ready: Option<VirtualTime>,
    ) -> Option<(Bytes, VirtualTime)> {
        let now = self.sim.now();
        let loaded = match (resume_cp, standby_ready) {
            (0, _) => Some((Bytes::new(), now + VirtualDuration::from_millis(50))),
            (cp, Some(ready)) => self.snapshots.image(cp, task).map(|image| (image, ready)),
            (cp, None) => self.snapshots.get(now, cp, task),
        };
        if loaded.is_none() {
            self.errors.push(format!(
                "task {task}: checkpoint {resume_cp} image is missing or undecodable"
            ));
        }
        loaded
    }

    fn clonos_schedule_install(&mut self, task: TaskId) {
        let now = self.sim.now();
        let resume_cp = self.jm.last_completed;
        // Step 1: activate the standby — usable only if it holds exactly the
        // checkpoint to resume from, whose layers the store still has (GC
        // keeps the last completed checkpoint's chain) — or cold-start.
        let standby_ready = match self.jm.standby.activate(task, now) {
            Some((cp, ready)) if cp == resume_cp => Some(ready),
            _ => None,
        };
        let Some((state, ready)) = self.restore_image(task, resume_cp, standby_ready) else {
            return;
        };
        self.jm.gather_seq += 1;
        let gather = LogGather { id: self.jm.gather_seq, resume_cp, state, ..Default::default() };
        self.jm.gathers.insert(task, gather);
        self.sim.schedule_at(ready, JM, Msg::InstallRecovery { task });
    }

    /// Steps 1–3 driver: replacement construction, network reconfiguration,
    /// determinant-log requests.
    fn jm_install(&mut self, task: TaskId) {
        if self.jm.rollback_scheduled || !self.jm.gathers.contains_key(&task) {
            return; // superseded by a global rollback
        }
        let gen = {
            let g = self.gens.entry(task).or_insert(0);
            *g += 1;
            *g
        };
        let mut replacement = self.build_task(task, gen);
        replacement.gen = gen;
        let gens = self.gens.clone();
        replacement.set_neighbor_gens(|t| gens.get(&t).copied().unwrap_or(0));
        let old = self.tasks.insert(task, Some(replacement)).flatten();
        self.retire(old);
        self.jm.recovering.insert(task);
        let now = self.sim.now();
        self.metrics.event(now, format!("standby/replacement for task {task} installed"));
        // Incarnations bump by exactly one on a local install, so the
        // causing detection carries `gen - 1`.
        self.metrics.causal_event(
            now,
            "InstallRecovery",
            gen as u64,
            task,
            Some(crate::metrics::CausalRef {
                kind: "FailureDetected",
                epoch: (gen - 1) as u64,
                task,
            }),
        );

        // Step 2: reconfigure — downstream survivors expect the new
        // incarnation (and drop stale in-flight buffers of the old one).
        let spec = self.graph.task(task).clone();
        for &(_, down, _, _) in &spec.outputs {
            if self.tasks.get(&down).map(|t| t.is_some()).unwrap_or(false) {
                self.sim.schedule_in(
                    VirtualDuration::from_micros(50),
                    down,
                    Msg::ChannelReset { from: task, new_gen: gen },
                );
            }
        }

        // Step 3: gather determinant logs from surviving holders within DSD
        // hops, plus received-buffer counts from direct downstream survivors.
        let dsd = self.config.ft.clonos().map(|c| c.effective_dsd(self.depth)).unwrap_or(0);
        let topo = self.graph.topology();
        let cone = topo.downstream_cone(task);
        let mut expected: BTreeSet<TaskId> = BTreeSet::new();
        if dsd > 0 {
            for (&t, &hops) in &cone {
                let alive = self.tasks.get(&t).map(|s| s.is_some()).unwrap_or(false)
                    && !self.jm.recovering.contains(&t);
                if alive && (hops <= dsd || hops == 1) {
                    expected.insert(t);
                }
            }
        }
        let (resume_cp, gather_id) = self
            .jm
            .gathers
            .get(&task)
            .map(|g| (g.resume_cp, g.id))
            .unwrap_or((0, 0));
        // Never-hang guarantee: whatever happens to the gather and replay
        // below (lost requests, a survivor dying mid-response, an upstream
        // that never serves the replay), this incarnation either reports
        // `RecoveryDone` or the watchdog escalates to a global rollback.
        self.sim.schedule_in(RECOVERY_TIMEOUT, JM, Msg::RecoveryWatchdog { task, gen });
        if expected.is_empty() {
            self.jm_dispatch_begin_replay(task);
        } else {
            if let Some(g) = self.jm.gathers.get_mut(&task) {
                g.expected = expected.clone();
            }
            self.send_log_requests(task, gen, resume_cp, gather_id, expected);
            self.sim.schedule_in(GATHER_TIMEOUT, JM, Msg::GatherTimeout { task, attempt: 0 });
        }
    }

    /// A gather round timed out: re-request the stragglers with doubled
    /// timeout, or — once the retry budget is exhausted — escalate to a
    /// global rollback rather than leaving the recovery hanging.
    fn jm_gather_timeout(&mut self, task: TaskId, attempt: u32) {
        let now = self.sim.now();
        let (remaining, resume_cp, gather_id) = {
            let Some(g) = self.jm.gathers.get(&task) else { return };
            if g.attempts != attempt || g.expected.is_empty() {
                return; // superseded or already complete
            }
            (g.expected.iter().copied().collect::<Vec<_>>(), g.resume_cp, g.id)
        };
        if attempt >= self.config.max_gather_retries {
            self.jm.gathers.remove(&task);
            self.metrics.recovery.escalations += 1;
            self.metrics.event(
                now,
                format!(
                    "determinant gather for task {task} incomplete after {attempt} retries \
                     ({} stragglers): escalating to global rollback",
                    remaining.len()
                ),
            );
            self.schedule_rollback();
            return;
        }
        if let Some(g) = self.jm.gathers.get_mut(&task) {
            g.attempts = attempt + 1;
        }
        self.metrics.recovery.gather_retries += 1;
        self.metrics.event(
            now,
            format!("gather retry {} for task {task} ({} stragglers)", attempt + 1, remaining.len()),
        );
        let gen = self.gens.get(&task).copied().unwrap_or(0);
        self.send_log_requests(task, gen, resume_cp, gather_id, remaining);
        let backoff = VirtualDuration::from_micros(GATHER_TIMEOUT.as_micros() << (attempt + 1));
        self.sim.schedule_in(backoff, JM, Msg::GatherTimeout { task, attempt: attempt + 1 });
    }

    /// Gather step: ask each of `holders` for the determinants of `task`'s
    /// incarnation `gen` logged after checkpoint `resume_cp`. Each request is
    /// recorded at the send attempt: a chaos-dropped request then shows up as
    /// a request hop with no matching response, which is exactly the stall
    /// the conformance checker blames.
    fn send_log_requests(
        &mut self,
        task: TaskId,
        gen: u32,
        resume_cp: u64,
        gather_id: u64,
        holders: impl IntoIterator<Item = TaskId>,
    ) {
        let now = self.sim.now();
        let cause = crate::metrics::CausalRef { kind: "InstallRecovery", epoch: gen as u64, task };
        for t in holders {
            self.metrics.causal_event(now, "LogRequest", gen as u64, t, Some(cause));
            self.send_recovery_ctrl(
                VirtualDuration::from_micros(150),
                t,
                Msg::LogRequest { origin: task, after_cp: resume_cp, gather_id },
            );
        }
    }

    /// The whole-recovery watchdog: a local recovery that has not reported
    /// `RecoveryDone` within the recovery timeout (for the installed
    /// incarnation) escalates to a global rollback.
    fn jm_recovery_watchdog(&mut self, task: TaskId, gen: u32) {
        if self.jm.rollback_scheduled {
            return;
        }
        if self.gens.get(&task).copied().unwrap_or(0) != gen {
            return; // a newer incarnation took over; its own watchdog is armed
        }
        if !self.jm.recovering.contains(&task) && !self.jm.gathers.contains_key(&task) {
            return; // recovery completed
        }
        self.metrics.recovery.escalations += 1;
        self.metrics.recovery.watchdog_escalations += 1;
        // Satellite: name the stalled hop instead of only reporting the
        // elapsed timeout — the last causal event of this recovery tells
        // which phase never produced its successor.
        let hop = self.metrics.last_recovery_hop(task, gen as u64);
        match hop.map(|h| h.kind) {
            Some("FailureDetected" | "InstallRecovery" | "LogRequest" | "LogResponse") => {
                self.metrics.recovery.stalled_gather_escalations += 1;
            }
            Some("BeginReplay" | "ReplayRequest") => {
                self.metrics.recovery.stalled_replay_escalations += 1;
            }
            _ => {}
        }
        let diagnosis = match hop {
            Some(h) => format!("cause chain stalls after {}", h.describe()),
            None => "no causal event observed".to_string(),
        };
        self.metrics.event(
            self.sim.now(),
            format!(
                "recovery of task {task} (incarnation {gen}) exceeded the recovery timeout: \
                 {diagnosis}; escalating to global rollback"
            ),
        );
        self.schedule_rollback();
    }

    fn jm_log_response(
        &mut self,
        origin: TaskId,
        from: TaskId,
        gather_id: u64,
        resp: clonos::recovery::LogRetrievalResponse,
    ) {
        let Some(g) = self.jm.gathers.get_mut(&origin) else { return };
        if g.id != gather_id {
            return; // response to a superseded gather (earlier recovery attempt)
        }
        // Responses are recorded at the accepting side: a response lost to
        // control-plane chaos leaves the chain stalled at its `LogRequest`.
        let gen = self.gens.get(&origin).copied().unwrap_or(0);
        self.metrics.causal_event(
            self.sim.now(),
            "LogResponse",
            gen as u64,
            from,
            Some(crate::metrics::CausalRef { kind: "LogRequest", epoch: gen as u64, task: from }),
        );
        let Some(g) = self.jm.gathers.get_mut(&origin) else { return };
        g.expected.remove(&from);
        g.snapshot.merge(&resp.snapshot);
        for (ch, n) in resp.received_buffers {
            let e = g.counts.entry((from, ch)).or_insert(0);
            *e = (*e).max(n);
        }
        if g.expected.is_empty() {
            self.jm_dispatch_begin_replay(origin);
        }
    }

    /// Steps 4–6 hand-off: send the merged snapshot + dedup counts to the
    /// recovering task, which requests upstream replay itself.
    fn jm_dispatch_begin_replay(&mut self, task: TaskId) {
        let Some(g) = self.jm.gathers.remove(&task) else { return };
        let gen = self.gens.get(&task).copied().unwrap_or(0);
        self.metrics.causal_event(
            self.sim.now(),
            "BeginReplay",
            gen as u64,
            task,
            Some(crate::metrics::CausalRef {
                kind: "InstallRecovery",
                epoch: gen as u64,
                task,
            }),
        );
        let spec = self.graph.task(task).clone();
        let skip: Vec<(ChannelId, u64)> = spec
            .outputs
            .iter()
            .map(|&(ch, to, _, dest_in)| (ch, g.counts.get(&(to, dest_in)).copied().unwrap_or(0)))
            .collect();
        self.sim.schedule_in(
            VirtualDuration::from_micros(100),
            task,
            Msg::BeginReplay {
                snapshot: g.snapshot,
                skip,
                resume_cp: g.resume_cp,
                state: g.state,
                rebuild_sink_dedup: true,
            },
        );
    }

    fn schedule_rollback(&mut self) {
        if self.jm.rollback_scheduled {
            return;
        }
        self.jm.rollback_scheduled = true;
        // Cancel everything now; redeploy after the restart delay.
        let ids: Vec<TaskId> = self.graph.tasks.iter().map(|t| t.id).collect();
        for id in ids {
            let old = self.tasks.insert(id, None).flatten();
            self.retire(old);
            self.sim.drop_events_for(id);
        }
        self.metrics.event(self.sim.now(), "global rollback: cancelling all tasks".to_string());
        let delay = self.config.restart_delay;
        self.sim.schedule_in(delay, JM, Msg::RestartAll);
    }

    fn jm_restart_all(&mut self) {
        let now = self.sim.now();
        let resume_cp = self.jm.last_completed;
        self.metrics.event(now, format!("global rollback: restarting from checkpoint {resume_cp}"));
        self.jm.rollback_scheduled = false;
        self.jm.failed.clear();
        self.jm.recovering.clear();
        self.jm.gathers.clear();
        self.jm.pending.clear();
        self.jm.next_cp = resume_cp;
        // One common new generation for every task.
        let new_gen = self.gens.values().copied().max().unwrap_or(0) + 1;
        let ids: Vec<TaskId> = self.graph.tasks.iter().map(|t| t.id).collect();
        // Rollback-chain entry: the per-task `BeginReplay`s below hang off it.
        self.metrics.causal_event(now, "RestartAll", new_gen as u64, JM, None);

        // Abort markers: older-generation output past the restored
        // checkpoint becomes invisible to read-committed consumers — §5.5
        // fallback semantics for immediate sinks, and the abort half of the
        // transactional sinks' two-phase commit (pre-committed transactions
        // whose checkpoint never completed roll back here).
        for spec in self.graph.tasks.clone() {
            let VertexKind::Sink(s) = self.vertex_kind(spec.id) else { continue };
            if let Some(topic) = self.topics.get_mut(&s.topic) {
                let p = spec.subtask % topic.num_partitions();
                topic
                    .partition_mut(p)
                    .append_with_meta(Bytes::new(), Some(encode_abort_marker(spec.id, new_gen, resume_cp)));
            }
        }

        let extra = self.config.synthetic_state_bytes;
        for &id in &ids {
            self.gens.insert(id, new_gen);
            let task = self.build_task(id, new_gen);
            self.tasks.insert(id, Some(task));
            // State restore time: snapshot transfer from the store.
            let Some((state, mut ready)) = self.restore_image(id, resume_cp, None) else {
                continue;
            };
            if resume_cp > 0 {
                ready += TransferModel::default().transfer_time(extra);
            }
            self.metrics.causal_event(
                now,
                "BeginReplay",
                new_gen as u64,
                id,
                Some(crate::metrics::CausalRef {
                    kind: "RestartAll",
                    epoch: new_gen as u64,
                    task: JM,
                }),
            );
            self.sim.schedule_at(
                ready,
                id,
                Msg::BeginReplay {
                    snapshot: TaskLogSnapshot::default(),
                    skip: Vec::new(),
                    resume_cp,
                    state,
                    rebuild_sink_dedup: false,
                },
            );
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

    /// Fold a retired incarnation's counters into the job-wide accumulator
    /// before the `Task` object is dropped.
    fn retire(&mut self, old: Option<Task>) {
        if let Some(t) = old {
            self.retired.absorb(&t.counters());
        }
    }

    /// Every per-task counter block, summed over retired and live
    /// incarnations — what each counter accessor below reads.
    fn counters(&self) -> TaskCounters {
        let mut total = self.retired;
        for t in self.tasks.values().flatten() {
            total.absorb(&t.counters());
        }
        total
    }

    /// Aggregate in-flight log statistics (§7.5).
    pub fn inflight_stats(&self) -> clonos::inflight::InFlightStats {
        self.counters().inflight
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

    /// Aggregate causal-log statistics.
    pub fn log_stats(&self) -> clonos::causal_log::CausalLogStats {
        self.counters().log
    }

    /// Aggregate routing hot-path counters.
    pub fn routing_stats(&self) -> crate::metrics::RoutingStats {
        self.counters().routing
    }

    /// Aggregate incremental-checkpoint counters: per-task encoder stats
    /// plus the snapshot store's reconstruction work and the standby
    /// manager's delta shipping.
    pub fn checkpoint_stats(&self) -> crate::metrics::CheckpointStats {
        let mut total = self.counters().ckpt;
        total.reconstructions = self.snapshots.reconstructions();
        total.reconstruct_us = self.snapshots.reconstruct_us();
        total.delta_dispatches = self.jm.standby.delta_dispatches();
        total
    }

    /// Aggregate tiered-state-backend counters (all zero when
    /// `state_memory_budget` is 0).
    pub fn state_backend_stats(&self) -> crate::metrics::StateBackendStats {
        self.counters().backend
    }

    /// Timestamp-service call/determinant counters (benchmark E9).
    pub fn ts_service_counts(&self) -> (u64, u64) {
        let c = self.counters();
        (c.ts_calls, c.ts_determinants)
    }

    pub fn snapshot_of(&mut self, cp: u64, task: TaskId) -> Option<TaskSnapshot> {
        let now = self.sim.now();
        let (bytes, _) = self.snapshots.get(now, cp, task)?;
        TaskSnapshot::decode(&bytes).ok()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::CheckpointMode;
    use crate::graph::{SinkSpec, SourceSpec};
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
            while !cluster.jm.gathers.contains_key(&COUNTER) {
                let next = cluster.sim.peek_time().expect("failure detection is scheduled");
                cluster.run_until(next);
            }
            let (resume_cp, handed) = {
                let g = &cluster.jm.gathers[&COUNTER];
                (g.resume_cp, g.state.clone())
            };
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
            let (log, routing, inflight) = (c.log_stats(), c.routing_stats(), c.inflight_stats());
            [log.determinants_recorded, routing.records_routed, inflight.buffers_logged]
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
