//! The job manager (§2.2, §5): all of its state and the whole protocol it
//! runs, written once against `JmCtx`:
//! - checkpoint coordination (tick → pause gate → trigger sources → ack
//!   ledger → complete broadcast → standby dispatch, §6.4);
//! - failure handling: the Figure-4 analysis, standby activation, the
//!   determinant-log gather from downstream survivors and the dispatch of
//!   `BeginReplay` — or a stop-the-world `RestartAll` for the baseline and
//!   for Clonos' orphan fallback.
//!
//! `JobManager::handle` is its one message dispatch. The sim `Cluster` calls
//! it with its queue and task slots as the `TaskHost`; the threaded
//! runtime's coordinator cell calls it with an actor scheduler whose host
//! methods refuse, so only the checkpoint half runs there.

use crate::cluster::JM;
use crate::config::{EngineConfig, FtMode, GATHER_TIMEOUT, RECOVERY_TIMEOUT};
use crate::error::EngineError;
use crate::graph::ExecutionGraph;
use crate::messages::{Msg, SegmentAck};
use crate::metrics::{CausalRef, Escalation, JobMetrics, Kind};
use crate::task::recovery_ctrl_delay;
use bytes::Bytes;
use clonos::causal_log::TaskLogSnapshot;
use clonos::recovery::{analyze_failure, LogRetrievalResponse, RecoveryDecision};
use clonos::standby::StandbyManager;
use clonos::{ChannelId, TaskId};
use clonos_sim::{Scheduler, SimRng, VirtualDuration, VirtualTime};
use clonos_storage::snapshot::{SnapshotBlob, SnapshotStore};
use clonos_storage::TransferModel;
use std::collections::{BTreeMap, BTreeSet};

/// Gathering state for one recovering task's determinant logs.
#[derive(Debug, Default)]
struct LogGather {
    /// Unique id: stale `LogResponse`s from a superseded gather (e.g. the
    /// previous recovery attempt of a re-failed task) are discarded by it.
    id: u64,
    expected: BTreeSet<TaskId>,
    snapshot: TaskLogSnapshot,
    /// (reporter, reporter's input channel) → received-buffer count.
    counts: BTreeMap<(TaskId, ChannelId), u64>,
    resume_cp: u64,
    state: Bytes,
    /// Retry rounds already spent on this gather.
    attempts: u32,
}

/// The substrate the job manager runs the tasks on: a scheduler that can
/// also rebuild, cancel and inspect tasks and mark sink output aborted. A
/// substrate that cannot (the threaded runtime) keeps the defaults, which
/// refuse.
pub(crate) trait TaskHost: Scheduler<Msg> {
    /// Build task `id` afresh as incarnation `gen_of(id)`, expecting each
    /// neighbour at `gen_of(neighbour)`, in place of whatever ran there.
    fn replace_task(
        &mut self,
        _id: TaskId,
        _gen_of: &dyn Fn(TaskId) -> u32,
    ) -> Result<(), EngineError> {
        Err(refused())
    }

    /// Retire task `id` and drop every event queued for it.
    fn cancel_task(&mut self, _id: TaskId) -> Result<(), EngineError> {
        Err(refused())
    }

    /// Whether task `id` has a running incarnation.
    fn is_live(&self, _id: TaskId) -> Result<bool, EngineError> {
        Err(refused())
    }

    /// Append to every sink's partition the marker that hides the output of
    /// incarnations before `gen` past checkpoint `resume_cp` (§5.5).
    fn write_abort_markers(&mut self, _gen: u32, _resume_cp: u64) -> Result<(), EngineError> {
        Err(refused())
    }
}

fn refused() -> EngineError {
    EngineError::Protocol("recovery is unsupported in the parallel runtime".to_string())
}

/// What the job manager acts through, whichever substrate runs it.
pub(crate) struct JmCtx<'a> {
    pub(crate) host: &'a mut dyn TaskHost,
    pub(crate) snapshots: &'a mut SnapshotStore,
    pub(crate) config: &'a EngineConfig,
    pub(crate) metrics: &'a mut JobMetrics,
    /// The stream control-plane chaos draws from.
    pub(crate) entropy: &'a mut SimRng,
    /// Task failures recovery cannot mend (no image, or no fault tolerance).
    pub(crate) errors: &'a mut Vec<String>,
}

#[derive(Debug, Default)]
pub(crate) struct JobManager {
    /// The job's tasks and channels: a checkpoint starts at the tasks with
    /// no inputs and completes when every task has acked.
    graph: ExecutionGraph,
    /// The graph's depth, which resolves `SharingDepth::Full`.
    depth: u32,
    next_cp: u64,
    last_completed: u64,
    /// cp id → acked task set.
    pending: BTreeMap<u64, BTreeSet<TaskId>>,
    /// Tasks currently dead or mid-recovery (for the Figure-4 analysis).
    failed: BTreeSet<TaskId>,
    /// Tasks whose determinant replay has not finished yet.
    recovering: BTreeSet<TaskId>,
    gathers: BTreeMap<TaskId, LogGather>,
    gather_seq: u64,
    rollback_scheduled: bool,
    /// Task → current incarnation (absent: 0).
    gens: BTreeMap<TaskId, u32>,
    standby: StandbyManager,
}

impl JobManager {
    pub(crate) fn new(graph: &ExecutionGraph, depth: u32) -> JobManager {
        JobManager { graph: graph.clone(), depth, ..Default::default() }
    }

    pub(crate) fn last_completed(&self) -> u64 {
        self.last_completed
    }

    /// Task `task`'s current incarnation.
    pub(crate) fn gen(&self, task: TaskId) -> u32 {
        self.gens.get(&task).copied().unwrap_or(0)
    }

    pub(crate) fn standby(&self) -> &StandbyManager {
        &self.standby
    }

    pub(crate) fn standby_mut(&mut self) -> &mut StandbyManager {
        &mut self.standby
    }

    /// Anything failed, recovering, or about to be rolled back.
    fn busy(&self) -> bool {
        !self.failed.is_empty() || !self.recovering.is_empty() || self.rollback_scheduled
    }

    /// The job manager's one message dispatch.
    pub(crate) fn handle(&mut self, msg: Msg, ctx: &mut JmCtx<'_>) -> Result<(), EngineError> {
        match msg {
            Msg::CheckpointTick => self.checkpoint_tick(ctx),
            Msg::CheckpointAck { task, id, snapshot, delta_parent, segments } => {
                self.ack(ctx, task, id, snapshot, delta_parent, segments)
            }
            Msg::FailureDetected { task, gen, killed_at } => {
                self.failure_detected(ctx, task, gen, killed_at)?
            }
            Msg::InstallRecovery { task } => self.install_recovery(ctx, task)?,
            Msg::GatherTimeout { task, attempt } => self.gather_timeout(ctx, task, attempt)?,
            Msg::RecoveryWatchdog { task, gen } => self.recovery_watchdog(ctx, task, gen)?,
            Msg::LogResponse { origin, from, gather_id, resp } => {
                self.log_response(ctx, origin, from, gather_id, resp)
            }
            Msg::RecoveryDone { task } => {
                if self.recovering.remove(&task) {
                    ctx.metrics.recovery.recoveries_completed += 1;
                }
                self.failed.remove(&task);
            }
            Msg::RestartAll => self.restart_all(ctx)?,
            other => {
                let unexpected = format!("job manager received unexpected {other:?}");
                return Err(EngineError::Protocol(unexpected));
            }
        }
        Ok(())
    }

    /// Re-arm the tick and, unless paused by a failure, start the next
    /// checkpoint at the sources.
    fn checkpoint_tick(&mut self, ctx: &mut JmCtx<'_>) {
        ctx.host.schedule_in(ctx.config.checkpoint_interval, JM, Msg::CheckpointTick);
        if self.busy() {
            return;
        }
        self.next_cp += 1;
        let id = self.next_cp;
        // Barrier-chain entry: everything checkpoint `id` does is caused by
        // this trigger.
        ctx.metrics.record(ctx.host.now(), Kind::TriggerCheckpoint, id, JM, None);
        self.pending.insert(id, BTreeSet::new());
        for s in self.graph.tasks.iter().filter(|t| t.inputs.is_empty()) {
            ctx.host.schedule_in(VirtualDuration::from_micros(100), s.id, Msg::TriggerCheckpoint { id });
        }
    }

    /// A task acked checkpoint `id` with one more layer of its image
    /// (`delta_parent` is the checkpoint a delta layer builds on) and, if it
    /// is tiered, its segment view — stored first, so a read of this
    /// checkpoint can already fold it. The last ack outstanding completes the
    /// checkpoint, if it is newer than any completed before: truncate the
    /// store to it, broadcast it, then bring each standby up to date (§6.4) —
    /// charged for the layers it does not hold yet, never handed bytes (the
    /// store keeps the layers; the fold happens if and when the standby is
    /// activated).
    fn ack(
        &mut self,
        ctx: &mut JmCtx<'_>,
        task: TaskId,
        id: u64,
        snapshot: Bytes,
        delta_parent: Option<u64>,
        segments: Option<Box<SegmentAck>>,
    ) {
        let now = ctx.host.now();
        if let Some(seg) = segments {
            ctx.snapshots.put_segments(id, task, seg.live, seg.sealed);
        }
        match delta_parent {
            Some(parent) => ctx.snapshots.put_delta(now, id, task, parent, snapshot),
            None => ctx.snapshots.put(now, id, task, snapshot),
        };
        let Some(acked) = self.pending.get_mut(&id) else { return };
        acked.insert(task);
        if acked.len() < self.graph.tasks.len() {
            return;
        }
        self.pending.remove(&id);
        if id <= self.last_completed {
            return;
        }
        self.last_completed = id;
        ctx.snapshots.truncate_before(id);
        let cause = CausalRef { kind: Kind::CheckpointAck, epoch: id, task };
        ctx.metrics.record(now, Kind::CheckpointComplete, id, JM, Some(cause));
        for t in &self.graph.tasks {
            ctx.host.schedule_in(VirtualDuration::from_micros(100), t.id, Msg::CheckpointComplete { id });
        }
        let extra = ctx.config.synthetic_state_bytes;
        for t in self.graph.tasks.iter().map(|t| t.id) {
            if !self.standby.has_standby(t) {
                continue;
            }
            // What a holder of the parent image lacks: this checkpoint's
            // blob plus — tiered tasks — the segments sealed since. With no
            // parent (a base blob) that is the whole image.
            let Some((blob, segment_bytes)) = ctx.snapshots.newest_layer(id, t) else { continue };
            let SnapshotBlob { bytes, parent } = blob.clone();
            let missing = bytes.len() as u64 + segment_bytes;
            let shipped = parent.and_then(|p| {
                let transfer = TransferModel::NETWORK.cost(missing);
                self.standby.dispatch_delta(t, id, p, bytes.clone(), now, transfer)
            });
            if shipped.is_some() {
                continue;
            }
            // Full dispatch. Only a delta blob whose parent the standby lost
            // (interrupted transfer, node loss, restart) needs the image
            // folded, for its length.
            let full = match parent {
                None => Some((missing, bytes)),
                Some(_) => ctx.snapshots.get(now, id, t).map(|(image, _)| (image.len() as u64, image)),
            };
            if let Some((len, image)) = full {
                let transfer = TransferModel::NETWORK.cost(len + extra);
                self.standby.dispatch_state(t, id, image, now, transfer);
            }
        }
    }

    fn failure_detected(
        &mut self,
        ctx: &mut JmCtx<'_>,
        task: TaskId,
        gen: u32,
        killed_at: VirtualTime,
    ) -> Result<(), EngineError> {
        let now = ctx.host.now();
        // Stale notification about an incarnation the JM already replaced
        // (possible when detections race with an in-progress re-install).
        if gen < self.gen(task) {
            return Ok(());
        }
        ctx.metrics.recovery.detection_latency_us_total += now.saturating_sub(killed_at).as_micros();
        // Recovery-chain entry: epoch is the incarnation that died.
        ctx.metrics.record(now, Kind::FailureDetected, gen as u64, task, None);
        let detected = CausalRef { kind: Kind::FailureDetected, epoch: gen as u64, task };
        if self.busy() {
            ctx.metrics.recovery.concurrent_failures += 1;
        }
        if self.rollback_scheduled {
            // A kill landed between rollback scheduling and restart. The
            // restart rebuilds every task anyway, but the failed set must
            // stay complete: any decision made before `RestartAll` fires
            // (another detection, an analysis) sees a consistent picture.
            self.failed.insert(task);
            ctx.metrics.record(now, Kind::FoldedIntoRollback, gen as u64, task, Some(detected));
            return Ok(());
        }
        if !self.failed.insert(task) {
            // The replacement died before its recovery finished: tear down
            // the in-progress gather/replay bookkeeping and re-run the
            // failure analysis over the enlarged failed set instead of
            // dropping the notification (which would leave `recovering`
            // non-empty forever and stall checkpointing).
            self.recovering.remove(&task);
            self.gathers.remove(&task);
            ctx.metrics.record(now, Kind::ReplacementDied, gen as u64, task, Some(detected));
        }
        // A pending determinant-log gather can no longer expect a response
        // from the newly failed task.
        let mut ready = Vec::new();
        for (&origin, g) in self.gathers.iter_mut() {
            if g.expected.remove(&task) && g.expected.is_empty() {
                ready.push(origin);
            }
        }
        for origin in ready {
            self.dispatch_begin_replay(ctx, origin);
        }
        match &ctx.config.ft {
            FtMode::None => {
                ctx.errors.push(format!("task {task} failed with fault tolerance disabled"));
            }
            FtMode::GlobalRollback => self.schedule_rollback(ctx)?,
            FtMode::Clonos(c) => {
                let topo = self.graph.topology();
                let decision = analyze_failure(&topo, &self.failed, c.effective_dsd(self.depth));
                let local = matches!(decision, RecoveryDecision::Local { .. });
                if local || self.orphaned(ctx, Escalation::Orphaned, detected)? {
                    self.schedule_install(ctx, task);
                }
            }
        }
        Ok(())
    }

    /// §5.4, the one owner of the orphan policy: the failure analysis found
    /// orphans (`Orphaned`, caused by the detection) or a replay diverged at
    /// runtime (`ReplayDiverged`, caused by its `BeginReplay`). With
    /// availability preferred the task goes on at-least-once; otherwise the
    /// job falls back to a global rollback. Returns whether the task goes on.
    pub(crate) fn orphaned(
        &mut self,
        ctx: &mut JmCtx<'_>,
        why: Escalation,
        cause: CausalRef,
    ) -> Result<bool, EngineError> {
        let go_on = ctx.config.ft.clonos().is_some_and(|c| c.prefer_availability_on_orphans);
        let kind = if go_on { Kind::AtLeastOnce } else { Kind::Escalated(why) };
        ctx.metrics.record(ctx.host.now(), kind, cause.epoch, cause.task, Some(cause));
        if !go_on {
            self.schedule_rollback(ctx)?;
        }
        Ok(go_on)
    }

    /// Step 1: activate the standby — usable only if it holds exactly the
    /// checkpoint to resume from, whose layers the store still has (GC keeps
    /// the last completed checkpoint's chain) — or cold-start, then install
    /// the replacement once its image is loaded.
    fn schedule_install(&mut self, ctx: &mut JmCtx<'_>, task: TaskId) {
        let resume_cp = self.last_completed;
        let standby_ready = match self.standby.activate(task, ctx.host.now()) {
            Some((cp, ready)) if cp == resume_cp => Some(ready),
            _ => None,
        };
        let Some((state, ready)) = ctx.restore_image(task, resume_cp, standby_ready) else {
            return;
        };
        self.gather_seq += 1;
        let gather = LogGather { id: self.gather_seq, resume_cp, state, ..Default::default() };
        self.gathers.insert(task, gather);
        ctx.host.schedule_at(ready, JM, Msg::InstallRecovery { task });
    }

    /// Steps 1–3: replacement construction, network reconfiguration,
    /// determinant-log requests.
    fn install_recovery(&mut self, ctx: &mut JmCtx<'_>, task: TaskId) -> Result<(), EngineError> {
        let gather = self.gathers.get(&task).filter(|_| !self.rollback_scheduled);
        let Some(&LogGather { id: gather_id, resume_cp, .. }) = gather else {
            return Ok(()); // superseded by a global rollback
        };
        let gen = {
            let g = self.gens.entry(task).or_insert(0);
            *g += 1;
            *g
        };
        ctx.host.replace_task(task, &|t| self.gen(t))?;
        self.recovering.insert(task);
        // Incarnations bump by exactly one on a local install, so the
        // causing detection carries `gen - 1`.
        let cause = CausalRef { kind: Kind::FailureDetected, epoch: (gen - 1) as u64, task };
        ctx.metrics.record(ctx.host.now(), Kind::InstallRecovery, gen as u64, task, Some(cause));

        // Step 2: reconfigure — downstream survivors expect the new
        // incarnation (and drop stale in-flight buffers of the old one).
        for &(_, down, _, _) in &self.graph.task(task).outputs {
            if ctx.host.is_live(down)? {
                let reset = Msg::ChannelReset { from: task, new_gen: gen };
                ctx.host.schedule_in(VirtualDuration::from_micros(50), down, reset);
            }
        }

        // Step 3: gather determinant logs from surviving holders within DSD
        // hops, plus received-buffer counts from direct downstream survivors.
        let topo = self.graph.topology();
        let dsd = ctx.config.ft.clonos().map(|c| c.effective_dsd(self.depth)).unwrap_or(0);
        let mut expected = BTreeSet::new();
        if dsd > 0 {
            for (&t, &hops) in &topo.downstream_cone(task) {
                let alive = ctx.host.is_live(t)? && !self.recovering.contains(&t);
                if alive && (hops <= dsd || hops == 1) {
                    expected.insert(t);
                }
            }
        }
        // Never-hang guarantee: whatever happens to the gather and replay
        // below (lost requests, a survivor dying mid-response, an upstream
        // that never serves the replay), this incarnation either reports
        // `RecoveryDone` or the watchdog escalates to a global rollback.
        ctx.host.schedule_in(RECOVERY_TIMEOUT, JM, Msg::RecoveryWatchdog { task, gen });
        if expected.is_empty() {
            self.dispatch_begin_replay(ctx, task);
            return Ok(());
        }
        if let Some(g) = self.gathers.get_mut(&task) {
            g.expected = expected.clone();
        }
        ctx.send_log_requests(task, gen, resume_cp, gather_id, expected);
        ctx.host.schedule_in(GATHER_TIMEOUT, JM, Msg::GatherTimeout { task, attempt: 0 });
        Ok(())
    }

    /// A gather round timed out: re-request the stragglers with doubled
    /// timeout, or — once the retry budget is exhausted — escalate to a
    /// global rollback rather than leaving the recovery hanging.
    fn gather_timeout(
        &mut self,
        ctx: &mut JmCtx<'_>,
        task: TaskId,
        attempt: u32,
    ) -> Result<(), EngineError> {
        let (now, gen) = (ctx.host.now(), self.gen(task));
        let Some(g) = self.gathers.get_mut(&task) else { return Ok(()) };
        if g.attempts != attempt || g.expected.is_empty() {
            return Ok(()); // superseded or already complete
        }
        let remaining: Vec<TaskId> = g.expected.iter().copied().collect();
        let (resume_cp, gather_id) = (g.resume_cp, g.id);
        let install = CausalRef { kind: Kind::InstallRecovery, epoch: gen as u64, task };
        if attempt >= ctx.config.max_gather_retries {
            self.gathers.remove(&task);
            let kind = Kind::Escalated(Escalation::GatherExhausted);
            ctx.metrics.record(now, kind, gen as u64, task, Some(install));
            return self.schedule_rollback(ctx);
        }
        g.attempts = attempt + 1;
        let kind = Kind::GatherRetry { attempt: attempt + 1, stragglers: remaining.len() as u32 };
        ctx.metrics.record(now, kind, gen as u64, task, Some(install));
        ctx.send_log_requests(task, gen, resume_cp, gather_id, remaining);
        let backoff = VirtualDuration::from_micros(GATHER_TIMEOUT.as_micros() << (attempt + 1));
        ctx.host.schedule_in(backoff, JM, Msg::GatherTimeout { task, attempt: attempt + 1 });
        Ok(())
    }

    /// The whole-recovery watchdog: a local recovery that has not reported
    /// `RecoveryDone` within the recovery timeout (for the installed
    /// incarnation) escalates to a global rollback.
    fn recovery_watchdog(
        &mut self,
        ctx: &mut JmCtx<'_>,
        task: TaskId,
        gen: u32,
    ) -> Result<(), EngineError> {
        if self.rollback_scheduled {
            return Ok(());
        }
        if self.gen(task) != gen {
            return Ok(()); // a newer incarnation took over; its own watchdog is armed
        }
        if !self.recovering.contains(&task) && !self.gathers.contains_key(&task) {
            return Ok(()); // recovery completed
        }
        // Name the stalled hop instead of only reporting the elapsed
        // timeout — the last hop of this recovery tells which phase never
        // produced its successor — and link the escalation to it.
        let hop = ctx.metrics.last_recovery_hop(task, gen as u64);
        let stalled_after = hop.and_then(|h| h.kind.as_hop());
        let kind = Kind::Escalated(Escalation::Watchdog { stalled_after });
        ctx.metrics.record(ctx.host.now(), kind, gen as u64, task, hop.map(|h| h.id()));
        self.schedule_rollback(ctx)
    }

    fn log_response(
        &mut self,
        ctx: &mut JmCtx<'_>,
        origin: TaskId,
        from: TaskId,
        gather_id: u64,
        resp: LogRetrievalResponse,
    ) {
        if self.gathers.get(&origin).is_none_or(|g| g.id != gather_id) {
            return; // response to a superseded gather (earlier recovery attempt)
        }
        // Responses are recorded at the accepting side: a response lost to
        // control-plane chaos leaves the chain stalled at its `LogRequest`.
        let epoch = self.gen(origin) as u64;
        let cause = CausalRef { kind: Kind::LogRequest, epoch, task: from };
        ctx.metrics.record(ctx.host.now(), Kind::LogResponse, epoch, from, Some(cause));
        let Some(g) = self.gathers.get_mut(&origin) else { return };
        g.expected.remove(&from);
        g.snapshot.merge(&resp.snapshot);
        for (ch, n) in resp.received_buffers {
            let e = g.counts.entry((from, ch)).or_insert(0);
            *e = (*e).max(n);
        }
        if g.expected.is_empty() {
            self.dispatch_begin_replay(ctx, origin);
        }
    }

    /// Steps 4–6 hand-off: send the merged snapshot + dedup counts to the
    /// recovering task, which requests upstream replay itself.
    fn dispatch_begin_replay(&mut self, ctx: &mut JmCtx<'_>, task: TaskId) {
        let Some(g) = self.gathers.remove(&task) else { return };
        let epoch = self.gen(task) as u64;
        let cause = CausalRef { kind: Kind::InstallRecovery, epoch, task };
        ctx.metrics.record(ctx.host.now(), Kind::BeginReplay, epoch, task, Some(cause));
        let skip: Vec<(ChannelId, u64)> = self
            .graph
            .task(task)
            .outputs
            .iter()
            .map(|&(ch, to, _, dest_in)| (ch, g.counts.get(&(to, dest_in)).copied().unwrap_or(0)))
            .collect();
        ctx.host.schedule_in(
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

    /// Cancel every task now and restart the job from the last completed
    /// checkpoint after the restart delay (once per rollback).
    fn schedule_rollback(&mut self, ctx: &mut JmCtx<'_>) -> Result<(), EngineError> {
        if self.rollback_scheduled {
            return Ok(());
        }
        self.rollback_scheduled = true;
        for t in &self.graph.tasks {
            ctx.host.cancel_task(t.id)?;
        }
        let resume_cp = self.last_completed;
        ctx.metrics.record(ctx.host.now(), Kind::RollbackScheduled, resume_cp, JM, None);
        ctx.host.schedule_in(ctx.config.restart_delay, JM, Msg::RestartAll);
        Ok(())
    }

    fn restart_all(&mut self, ctx: &mut JmCtx<'_>) -> Result<(), EngineError> {
        let now = ctx.host.now();
        let resume_cp = self.last_completed;
        self.rollback_scheduled = false;
        self.failed.clear();
        self.recovering.clear();
        self.gathers.clear();
        self.pending.clear();
        self.next_cp = resume_cp;
        // One common new generation for every task.
        let new_gen = self.gens.values().copied().max().unwrap_or(0) + 1;
        // Rollback-chain entry: the per-task `BeginReplay`s below hang off it.
        ctx.metrics.record(now, Kind::RestartAll, new_gen as u64, JM, None);
        // Abort markers: older-generation output past the restored
        // checkpoint becomes invisible to read-committed consumers — §5.5
        // fallback semantics for immediate sinks, and the abort half of the
        // transactional sinks' two-phase commit (pre-committed transactions
        // whose checkpoint never completed roll back here).
        ctx.host.write_abort_markers(new_gen, resume_cp)?;
        let extra = ctx.config.synthetic_state_bytes;
        let cause = CausalRef { kind: Kind::RestartAll, epoch: new_gen as u64, task: JM };
        for id in self.graph.tasks.iter().map(|t| t.id) {
            self.gens.insert(id, new_gen);
            ctx.host.replace_task(id, &|_| new_gen)?;
            // State restore time: snapshot transfer from the store.
            let Some((state, mut ready)) = ctx.restore_image(id, resume_cp, None) else {
                continue;
            };
            if resume_cp > 0 {
                ready += TransferModel::NETWORK.cost(extra);
            }
            ctx.metrics.record(now, Kind::BeginReplay, new_gen as u64, id, Some(cause));
            let replay = Msg::BeginReplay {
                snapshot: TaskLogSnapshot::default(),
                skip: Vec::new(),
                resume_cp,
                state,
                rebuild_sink_dedup: false,
            };
            ctx.host.schedule_at(ready, id, replay);
        }
        Ok(())
    }
}

impl JmCtx<'_> {
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
        let now = self.host.now();
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

    /// Gather step: ask each of `holders` for the determinants of `task`'s
    /// incarnation `gen` logged after checkpoint `resume_cp`, through the
    /// control-plane chaos (loss / extra delay). Each request is recorded at
    /// the send attempt: a chaos-dropped request then shows up as a request
    /// hop with no matching response, which is exactly the stall the
    /// conformance checker blames.
    fn send_log_requests(
        &mut self,
        task: TaskId,
        gen: u32,
        resume_cp: u64,
        gather_id: u64,
        holders: impl IntoIterator<Item = TaskId>,
    ) {
        let now = self.host.now();
        let cause = CausalRef { kind: Kind::InstallRecovery, epoch: gen as u64, task };
        for t in holders {
            self.metrics.record(now, Kind::LogRequest, gen as u64, t, Some(cause));
            let base = VirtualDuration::from_micros(150);
            let stats = &mut self.metrics.recovery;
            if let Some(delay) = recovery_ctrl_delay(self.config, self.entropy, stats, base) {
                let request = Msg::LogRequest { origin: task, after_cp: resume_cp, gather_id };
                self.host.schedule_in(delay, t, request);
            }
        }
    }
}

#[cfg(test)]
impl JobManager {
    /// The checkpoint a pending gather for `task` resumes from, and the
    /// image it will hand the replacement.
    pub(crate) fn gathered_image(&self, task: TaskId) -> Option<(u64, &Bytes)> {
        self.gathers.get(&task).map(|g| (g.resume_cp, &g.state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{JobGraph, Partitioning, SinkSpec, SourceSpec};
    use clonos::determinant::Determinant;
    use clonos_sim::ActorId;

    /// A `TaskHost` that only records what it is asked to deliver and to do
    /// to tasks; every task is live.
    #[derive(Default)]
    struct Recorder {
        now: VirtualTime,
        sent: Vec<(VirtualTime, ActorId, Msg)>,
        host_calls: Vec<String>,
    }

    impl Scheduler<Msg> for Recorder {
        fn now(&self) -> VirtualTime {
            self.now
        }
        fn schedule_at(&mut self, at: VirtualTime, dest: ActorId, msg: Msg) {
            self.sent.push((at, dest, msg));
        }
    }

    impl TaskHost for Recorder {
        fn replace_task(&mut self, id: TaskId, gen_of: &dyn Fn(TaskId) -> u32) -> Result<(), EngineError> {
            self.host_calls.push(format!("replace {id} as {}", gen_of(id)));
            Ok(())
        }
        fn cancel_task(&mut self, id: TaskId) -> Result<(), EngineError> {
            self.host_calls.push(format!("cancel {id}"));
            Ok(())
        }
        fn is_live(&self, _id: TaskId) -> Result<bool, EngineError> {
            Ok(true)
        }
        fn write_abort_markers(&mut self, gen: u32, resume_cp: u64) -> Result<(), EngineError> {
            self.host_calls.push(format!("abort markers {gen} after {resume_cp}"));
            Ok(())
        }
    }

    /// Two sources into two sinks: tasks 1..=4, sources 1 and 2.
    fn graph() -> ExecutionGraph {
        let mut g = JobGraph::new("jm");
        let src = g.add_source("src", 2, SourceSpec::new("in"));
        let snk = g.add_sink("out", 2, SinkSpec { topic: "out".into() });
        g.connect(src, snk, Partitioning::Hash);
        ExecutionGraph::expand(&g, 1)
    }

    fn job_manager() -> JobManager {
        let graph = graph();
        let jm = JobManager::new(&graph, graph.depth());
        let ids = |sources: bool| -> Vec<TaskId> {
            jm.graph.tasks.iter().filter(|t| !sources || t.inputs.is_empty()).map(|t| t.id).collect()
        };
        assert_eq!((ids(true), ids(false)), (vec![1, 2], vec![1, 2, 3, 4]));
        jm
    }

    /// Drive `f` against a recording host at `now` under `config`; returns
    /// the host, holding what it was asked to send and do.
    fn drive_with(
        config: &EngineConfig,
        now: u64,
        store: &mut SnapshotStore,
        metrics: &mut JobMetrics,
        f: impl FnOnce(&mut JmCtx<'_>),
    ) -> Recorder {
        let mut host = Recorder { now: VirtualTime(now), ..Recorder::default() };
        let (mut entropy, mut errors) = (SimRng::new(1), Vec::new());
        f(&mut JmCtx {
            host: &mut host,
            snapshots: store,
            config,
            metrics,
            entropy: &mut entropy,
            errors: &mut errors,
        });
        assert!(errors.is_empty(), "{errors:?}");
        host
    }

    /// `drive_with` under the default configuration; returns what was sent.
    fn drive(
        now: u64,
        store: &mut SnapshotStore,
        metrics: &mut JobMetrics,
        f: impl FnOnce(&mut JmCtx<'_>),
    ) -> Vec<(VirtualTime, ActorId, Msg)> {
        drive_with(&EngineConfig::default(), now, store, metrics, f).sent
    }

    #[test]
    fn a_tick_while_a_task_is_failed_rearms_the_tick_and_triggers_nothing() {
        let mut jm = job_manager();
        let mut store = SnapshotStore::new();
        let mut metrics = JobMetrics::default();
        jm.failed.insert(3);
        let sent = drive(1_000, &mut store, &mut metrics, |ctx| jm.checkpoint_tick(ctx));
        let interval = EngineConfig::default().checkpoint_interval;
        assert_eq!(sent.len(), 1, "{sent:?}");
        assert!(matches!(sent[0], (at, JM, Msg::CheckpointTick) if at == VirtualTime(1_000) + interval));
        assert_eq!(jm.next_cp, 0);
        assert!(jm.pending.is_empty() && metrics.trace.is_empty());

        // Recovered: the next tick starts checkpoint 1 at the sources only.
        jm.failed.clear();
        let sent = drive(2_000, &mut store, &mut metrics, |ctx| jm.checkpoint_tick(ctx));
        let triggered: Vec<ActorId> = sent
            .iter()
            .filter(|(_, _, m)| matches!(m, Msg::TriggerCheckpoint { id: 1 }))
            .map(|&(_, dest, _)| dest)
            .collect();
        assert_eq!(triggered, [1, 2]);
        assert_eq!(sent.len(), 3, "{sent:?}");
        assert_eq!(metrics.trace.len(), 1);
    }

    #[test]
    fn the_last_ack_completes_the_checkpoint_once_and_truncates_the_store() {
        let mut jm = job_manager();
        let mut store = SnapshotStore::new();
        let mut metrics = JobMetrics::default();
        for cp in 1..=2u64 {
            drive(cp * 1_000, &mut store, &mut metrics, |ctx| jm.checkpoint_tick(ctx));
            let mut ack = |task: TaskId| {
                drive(cp * 1_000 + task, &mut store, &mut metrics, |ctx| {
                    jm.ack(ctx, task, cp, Bytes::from(vec![task as u8; 8]), None, None)
                })
            };
            for task in 1..=3 {
                let sent = ack(task);
                assert!(sent.is_empty(), "checkpoint {cp} completed early: {sent:?}");
            }
            let sent = ack(4);
            let told: Vec<ActorId> = sent
                .iter()
                .map(|(_, dest, m)| {
                    assert!(matches!(m, Msg::CheckpointComplete { id } if *id == cp), "{m:?}");
                    *dest
                })
                .collect();
            assert_eq!(told, [1, 2, 3, 4], "exactly one CheckpointComplete per task");
            assert_eq!(jm.last_completed, cp);
            assert!(jm.pending.is_empty());
        }
        // Checkpoint 2 is made of base blobs, so checkpoint 1 is garbage.
        for task in 1..=4 {
            assert!(store.newest_layer(1, task).is_none(), "task {task}: checkpoint 1 survived");
            assert!(store.newest_layer(2, task).is_some(), "task {task}: checkpoint 2 lost");
        }
        let completes = metrics.trace.iter().filter(|e| e.kind == Kind::CheckpointComplete).count();
        assert_eq!(completes, 2);
        // A straggling duplicate ack of a completed checkpoint is inert.
        let sent = drive(3_000, &mut store, &mut metrics, |ctx| jm.ack(ctx, 4, 2, Bytes::new(), None, None));
        assert!(sent.is_empty() && jm.last_completed == 2);
    }

    /// A detection about an incarnation the job manager already replaced
    /// (it raced with the re-install) is stale: no install, no rollback, no
    /// counter moves. The same report about the current incarnation starts
    /// a recovery.
    #[test]
    fn a_failure_report_about_a_replaced_incarnation_is_ignored() {
        let config = EngineConfig::default().with_ft(FtMode::GlobalRollback);
        let mut jm = job_manager();
        jm.gens.insert(3, 2);
        let mut store = SnapshotStore::new();
        let mut metrics = JobMetrics::default();
        let report = |gen| Msg::FailureDetected { task: 3, gen, killed_at: VirtualTime(500) };
        let host = drive_with(&config, 1_000, &mut store, &mut metrics, |ctx| {
            jm.handle(report(1), ctx).expect("handled")
        });
        assert!(host.sent.is_empty() && host.host_calls.is_empty(), "{:?}", host.host_calls);
        assert_eq!(metrics.recovery_stats().failures_detected, 0);
        assert_eq!(metrics.recovery_stats().detection_samples, 0);
        assert!(metrics.trace.is_empty());
        assert!(!jm.busy() && jm.gathers.is_empty());

        let host = drive_with(&config, 1_000, &mut store, &mut metrics, |ctx| {
            jm.handle(report(2), ctx).expect("handled")
        });
        assert_eq!(host.host_calls, ["cancel 1", "cancel 2", "cancel 3", "cancel 4"]);
        assert!(matches!(host.sent[..], [(_, JM, Msg::RestartAll)]), "{:?}", host.sent);
        assert_eq!(metrics.recovery_stats().failures_detected, 1);
        assert!(jm.failed.contains(&3) && jm.rollback_scheduled);
    }

    /// A `LogResponse` to an earlier gather of the same task (a recovery
    /// attempt that was since restarted) neither completes nor alters the
    /// current gather; the current gather's response completes it.
    #[test]
    fn a_log_response_to_a_superseded_gather_changes_nothing() {
        let mut jm = job_manager();
        jm.gens.insert(3, 2);
        let gather = LogGather { id: 7, expected: BTreeSet::from([4]), resume_cp: 1, ..Default::default() };
        jm.gathers.insert(3, gather);
        let mut store = SnapshotStore::new();
        let mut metrics = JobMetrics::default();
        let response = |gather_id| {
            let snapshot = TaskLogSnapshot { logs: vec![(3, 0, vec![(1, Determinant::Order { channel: 0 })])] };
            let resp = LogRetrievalResponse { snapshot, received_buffers: vec![(0, 5)] };
            Msg::LogResponse { origin: 3, from: 4, gather_id, resp }
        };
        let sent = drive(1_000, &mut store, &mut metrics, |ctx| jm.handle(response(6), ctx).expect("handled"));
        assert!(sent.is_empty(), "{sent:?}");
        assert!(metrics.trace.is_empty());
        let g = &jm.gathers[&3];
        assert_eq!((g.id, g.expected.iter().copied().collect::<Vec<_>>()), (7, vec![4]));
        assert!(g.snapshot.is_empty() && g.counts.is_empty());

        let sent = drive(2_000, &mut store, &mut metrics, |ctx| jm.handle(response(7), ctx).expect("handled"));
        assert!(jm.gathers.is_empty());
        let [(_, 3, Msg::BeginReplay { snapshot, skip, resume_cp: 1, .. })] = &sent[..] else {
            panic!("expected one BeginReplay to task 3: {sent:?}")
        };
        assert_eq!(snapshot.total_entries(), 1);
        assert!(skip.is_empty(), "a sink has no outputs: {skip:?}");
        let kinds: Vec<Kind> = metrics.trace.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [Kind::LogResponse, Kind::BeginReplay]);
    }
}
