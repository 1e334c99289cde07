//! The job manager: all of its state, and the checkpoint-coordination
//! decision (tick → pause gate → trigger sources → ack ledger → complete
//! broadcast → standby dispatch, §6.4) written once against `Scheduler<Msg>`.
//! `Cluster::jm_handle` drives it with the sim queue; the threaded runtime's
//! coordinator cell drives the cluster's own `JobManager` and `SnapshotStore`,
//! lent to it for the run. The failure/recovery handlers stay `Cluster`
//! methods over this state: they construct and drop tasks.

use crate::cluster::JM;
use crate::config::EngineConfig;
use crate::graph::TaskSpec;
use crate::messages::{Msg, SegmentAck};
use crate::metrics::{CausalRef, JobMetrics};
use bytes::Bytes;
use clonos::causal_log::TaskLogSnapshot;
use clonos::standby::StandbyManager;
use clonos::{ChannelId, TaskId};
use clonos_sim::{Scheduler, VirtualDuration};
use clonos_storage::snapshot::{SnapshotBlob, SnapshotStore, TransferModel};
use std::collections::{BTreeMap, BTreeSet};

/// Gathering state for one recovering task's determinant logs.
#[derive(Debug, Default)]
pub(crate) struct LogGather {
    /// Unique id: stale `LogResponse`s from a superseded gather (e.g. the
    /// previous recovery attempt of a re-failed task) are discarded by it.
    pub(crate) id: u64,
    pub(crate) expected: BTreeSet<TaskId>,
    pub(crate) snapshot: TaskLogSnapshot,
    /// (reporter, reporter's input channel) → received-buffer count.
    pub(crate) counts: BTreeMap<(TaskId, ChannelId), u64>,
    pub(crate) resume_cp: u64,
    pub(crate) state: Bytes,
    /// Retry rounds already spent on this gather.
    pub(crate) attempts: u32,
}

/// What the job manager acts through, whichever substrate runs it.
pub(crate) struct JmCtx<'a> {
    pub(crate) sched: &'a mut dyn Scheduler<Msg>,
    pub(crate) snapshots: &'a mut SnapshotStore,
    pub(crate) config: &'a EngineConfig,
    pub(crate) metrics: &'a mut JobMetrics,
}

#[derive(Debug, Default)]
pub(crate) struct JobManager {
    /// Tasks with no inputs (barrier injection points), and every task (a
    /// checkpoint completes when all have acked), both in graph order.
    sources: Vec<TaskId>,
    tasks: Vec<TaskId>,
    pub(crate) next_cp: u64,
    pub(crate) last_completed: u64,
    /// cp id → acked task set.
    pub(crate) pending: BTreeMap<u64, BTreeSet<TaskId>>,
    /// Tasks currently dead or mid-recovery (for the Figure-4 analysis).
    pub(crate) failed: BTreeSet<TaskId>,
    /// Tasks whose determinant replay has not finished yet.
    pub(crate) recovering: BTreeSet<TaskId>,
    pub(crate) gathers: BTreeMap<TaskId, LogGather>,
    pub(crate) gather_seq: u64,
    pub(crate) rollback_scheduled: bool,
    pub(crate) standby: StandbyManager,
}

impl JobManager {
    pub(crate) fn new(specs: &[TaskSpec]) -> JobManager {
        JobManager {
            sources: specs.iter().filter(|t| t.inputs.is_empty()).map(|t| t.id).collect(),
            tasks: specs.iter().map(|t| t.id).collect(),
            ..Default::default()
        }
    }

    /// Anything failed, recovering, or about to be rolled back.
    pub(crate) fn busy(&self) -> bool {
        !self.failed.is_empty() || !self.recovering.is_empty() || self.rollback_scheduled
    }

    /// Re-arm the tick and, unless paused by a failure, start the next
    /// checkpoint at the sources.
    pub(crate) fn checkpoint_tick(&mut self, ctx: &mut JmCtx<'_>) {
        ctx.sched.schedule_in(ctx.config.checkpoint_interval, JM, Msg::CheckpointTick);
        if self.busy() {
            return;
        }
        self.next_cp += 1;
        let id = self.next_cp;
        let now = ctx.sched.now();
        ctx.metrics.event(now, format!("checkpoint {id} triggered"));
        // Barrier-chain entry: everything checkpoint `id` does is caused by
        // this trigger.
        ctx.metrics.causal_event(now, "TriggerCheckpoint", id, JM, None);
        self.pending.insert(id, BTreeSet::new());
        for &s in &self.sources {
            ctx.sched.schedule_in(VirtualDuration::from_micros(100), s, Msg::TriggerCheckpoint { id });
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
    pub(crate) fn ack(
        &mut self,
        ctx: &mut JmCtx<'_>,
        task: TaskId,
        id: u64,
        snapshot: Bytes,
        delta_parent: Option<u64>,
        segments: Option<Box<SegmentAck>>,
    ) {
        let now = ctx.sched.now();
        if let Some(seg) = segments {
            ctx.snapshots.put_segments(id, task, seg.live, seg.sealed);
        }
        match delta_parent {
            Some(parent) => ctx.snapshots.put_delta(now, id, task, parent, snapshot),
            None => ctx.snapshots.put(now, id, task, snapshot),
        };
        let Some(acked) = self.pending.get_mut(&id) else { return };
        acked.insert(task);
        if acked.len() < self.tasks.len() {
            return;
        }
        self.pending.remove(&id);
        if id <= self.last_completed {
            return;
        }
        self.last_completed = id;
        ctx.snapshots.truncate_before(id);
        ctx.metrics.event(now, format!("checkpoint {id} complete"));
        let cause = CausalRef { kind: "CheckpointAck", epoch: id, task };
        ctx.metrics.causal_event(now, "CheckpointComplete", id, JM, Some(cause));
        for &t in &self.tasks {
            ctx.sched.schedule_in(VirtualDuration::from_micros(100), t, Msg::CheckpointComplete { id });
        }
        let model = TransferModel::default();
        let extra = ctx.config.synthetic_state_bytes;
        for &t in &self.tasks {
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
                let transfer = model.transfer_time(missing);
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
                let transfer = model.transfer_time(len + extra);
                self.standby.dispatch_state(t, id, image, now, transfer);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ExecutionGraph, JobGraph, Partitioning, SinkSpec, SourceSpec};
    use clonos_sim::{ActorId, VirtualTime};

    /// A `Scheduler` that only records what it is asked to deliver.
    struct Recorder {
        now: VirtualTime,
        sent: Vec<(VirtualTime, ActorId, Msg)>,
    }

    impl Scheduler<Msg> for Recorder {
        fn now(&self) -> VirtualTime {
            self.now
        }
        fn schedule_at(&mut self, at: VirtualTime, dest: ActorId, msg: Msg) {
            self.sent.push((at, dest, msg));
        }
    }

    /// Two sources into two sinks: tasks 1..=4, sources 1 and 2.
    fn job_manager() -> JobManager {
        let mut g = JobGraph::new("jm");
        let src = g.add_source("src", 2, SourceSpec::new("in"));
        let snk = g.add_sink("out", 2, SinkSpec { topic: "out".into() });
        g.connect(src, snk, Partitioning::Hash);
        let jm = JobManager::new(&ExecutionGraph::expand(&g, 1).tasks);
        assert_eq!((jm.sources.as_slice(), jm.tasks.as_slice()), (&[1, 2][..], &[1, 2, 3, 4][..]));
        jm
    }

    /// Drive `f` against a recording scheduler at `now`; returns what it sent.
    fn drive(
        now: u64,
        store: &mut SnapshotStore,
        metrics: &mut JobMetrics,
        f: impl FnOnce(&mut JmCtx<'_>),
    ) -> Vec<(VirtualTime, ActorId, Msg)> {
        let mut sched = Recorder { now: VirtualTime(now), sent: Vec::new() };
        let config = EngineConfig::default();
        f(&mut JmCtx { sched: &mut sched, snapshots: store, config: &config, metrics });
        sched.sent
    }

    #[test]
    fn a_tick_while_a_task_is_failed_rearms_the_tick_and_triggers_nothing() {
        let mut jm = job_manager();
        let mut store = SnapshotStore::new();
        let mut metrics = JobMetrics::new(VirtualDuration::from_secs(1));
        jm.failed.insert(3);
        let sent = drive(1_000, &mut store, &mut metrics, |ctx| jm.checkpoint_tick(ctx));
        let interval = EngineConfig::default().checkpoint_interval;
        assert_eq!(sent.len(), 1, "{sent:?}");
        assert!(matches!(sent[0], (at, JM, Msg::CheckpointTick) if at == VirtualTime(1_000) + interval));
        assert_eq!(jm.next_cp, 0);
        assert!(jm.pending.is_empty() && metrics.causal.is_empty());

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
        assert_eq!(metrics.causal.len(), 1);
    }

    #[test]
    fn the_last_ack_completes_the_checkpoint_once_and_truncates_the_store() {
        let mut jm = job_manager();
        let mut store = SnapshotStore::new();
        let mut metrics = JobMetrics::new(VirtualDuration::from_secs(1));
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
        let completes = metrics.causal.iter().filter(|e| e.kind == "CheckpointComplete").count();
        assert_eq!(completes, 2);
        // A straggling duplicate ack of a completed checkpoint is inert.
        let sent = drive(3_000, &mut store, &mut metrics, |ctx| jm.ack(ctx, 4, 2, Bytes::new(), None, None));
        assert!(sent.is_empty() && jm.last_completed == 2);
    }
}
