//! Per-actor state for the multi-threaded runtime: a task (or the
//! coordinator) plus everything it needs to run without touching shared
//! mutable state — its own Lamport clock, timer heap, per-pair links,
//! metrics shard, and (for sources/sinks) private topic partitions. All
//! cross-actor communication goes through mailboxes; the worlds here are
//! only ever mutated under their cell's state lock.

use crate::config::EngineConfig;
use crate::coordinator::AckLedger;
use crate::graph::TaskSpec;
use crate::messages::Msg;
use crate::metrics::JobMetrics;
use crate::task::{Task, TaskCtx};
use clonos::TaskId;
use clonos_sim::{ActorId, Link, Scheduler, SimRng, VirtualDuration, VirtualTime};
use clonos_storage::external::ExternalKv;
use clonos_storage::log::DurableLog;
use clonos_storage::snapshot::{SnapshotBlob, SnapshotStore, TransferModel};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Mutex;

use super::mailbox::Mailbox;

/// A message an actor scheduled for itself (self-addressed `schedule_at`).
/// Ordered as a min-heap on `(at, seq)` — `seq` keeps same-time timers in
/// scheduling order, matching the sim queue's FIFO tie-break.
#[derive(Debug)]
pub(crate) struct TimerEntry {
    pub(crate) at: VirtualTime,
    pub(crate) seq: u64,
    pub(crate) msg: Msg,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &TimerEntry) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &TimerEntry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &TimerEntry) -> std::cmp::Ordering {
        // Inverted: BinaryHeap is a max-heap, we want the earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The `Scheduler` the runtime hands to task handlers: `now` is the actor's
/// Lamport clock; self-addressed messages go to the local timer heap, and
/// everything else is staged in the outbox for the worker to flush through
/// the destination mailbox (with backpressure) after the handler returns.
pub(crate) struct ActorSched<'a> {
    pub(crate) me: ActorId,
    pub(crate) clock: VirtualTime,
    pub(crate) timers: &'a mut BinaryHeap<TimerEntry>,
    pub(crate) seq: &'a mut u64,
    pub(crate) outbox: &'a mut VecDeque<(VirtualTime, ActorId, Msg)>,
}

impl Scheduler<Msg> for ActorSched<'_> {
    fn now(&self) -> VirtualTime {
        self.clock
    }

    fn schedule_at(&mut self, at: VirtualTime, dest: ActorId, msg: Msg) {
        let at = at.max(self.clock);
        if dest == self.me {
            let seq = *self.seq;
            *self.seq += 1;
            self.timers.push(TimerEntry { at, seq, msg });
        } else {
            self.outbox.push_back((at, dest, msg));
        }
    }
}

/// One task plus its private copies of everything `TaskCtx` borrows.
pub(crate) struct TaskWorld {
    pub(crate) task: Task,
    pub(crate) clock: VirtualTime,
    pub(crate) timers: BinaryHeap<TimerEntry>,
    pub(crate) seq: u64,
    pub(crate) links: BTreeMap<(TaskId, TaskId), Link>,
    pub(crate) external: ExternalKv,
    pub(crate) topics: BTreeMap<String, DurableLog>,
    pub(crate) snapshots: SnapshotStore,
    pub(crate) entropy: SimRng,
    pub(crate) metrics: JobMetrics,
    pub(crate) errors: Vec<String>,
    /// `(topic, partition, base_offset)` — records this actor appends to its
    /// private sink partition at offsets `>= base_offset` are merged back
    /// into the cluster's shared topic at teardown.
    pub(crate) sink_merge: Option<(String, usize, u64)>,
}

impl TaskWorld {
    pub(crate) fn deliver(
        &mut self,
        config: &EngineConfig,
        at: VirtualTime,
        msg: Msg,
        me: ActorId,
        outbox: &mut VecDeque<(VirtualTime, ActorId, Msg)>,
    ) {
        self.clock = self.clock.max(at);
        let mut sched = ActorSched {
            me,
            clock: self.clock,
            timers: &mut self.timers,
            seq: &mut self.seq,
            outbox,
        };
        let mut ctx = TaskCtx {
            sched: &mut sched,
            links: &mut self.links,
            external: &mut self.external,
            topics: &mut self.topics,
            snapshots: &mut self.snapshots,
            config,
            entropy: &mut self.entropy,
            metrics: &mut self.metrics,
        };
        if let Err(e) = self.task.handle(msg, &mut ctx) {
            self.errors.push(format!("task {me}: {e}"));
        }
    }
}

/// The coordinator: the JM-side checkpoint protocol state for failure-free
/// runs. Mirrors `Cluster::jm_checkpoint_tick` and shares `jm_ack`'s ack
/// bookkeeping, minus everything that only matters under failures (standby
/// dispatch, recovery state).
pub(crate) struct CoordWorld {
    pub(crate) clock: VirtualTime,
    pub(crate) timers: BinaryHeap<TimerEntry>,
    pub(crate) seq: u64,
    pub(crate) next_cp: u64,
    pub(crate) acks: AckLedger,
    pub(crate) snapshots: SnapshotStore,
    /// Task ids with no inputs (checkpoint barrier injection points).
    pub(crate) sources: Vec<TaskId>,
    /// All task ids (checkpoint-complete broadcast).
    pub(crate) tasks: Vec<TaskId>,
    pub(crate) metrics: JobMetrics,
    pub(crate) errors: Vec<String>,
}

impl CoordWorld {
    pub(crate) fn new(specs: &[TaskSpec]) -> CoordWorld {
        CoordWorld {
            clock: VirtualTime::ZERO,
            timers: BinaryHeap::new(),
            seq: 0,
            next_cp: 0,
            acks: AckLedger { total: specs.len(), ..Default::default() },
            snapshots: SnapshotStore::with_model(TransferModel::default()),
            sources: specs.iter().filter(|t| t.inputs.is_empty()).map(|t| t.id).collect(),
            tasks: specs.iter().map(|t| t.id).collect(),
            // Window must match the cluster accumulator's for `absorb`.
            metrics: JobMetrics::new(VirtualDuration::from_secs(1)),
            errors: Vec::new(),
        }
    }

    pub(crate) fn deliver(
        &mut self,
        config: &EngineConfig,
        at: VirtualTime,
        msg: Msg,
        me: ActorId,
        outbox: &mut VecDeque<(VirtualTime, ActorId, Msg)>,
    ) {
        self.clock = self.clock.max(at);
        match msg {
            Msg::CheckpointTick => {
                let mut sched = ActorSched {
                    me,
                    clock: self.clock,
                    timers: &mut self.timers,
                    seq: &mut self.seq,
                    outbox,
                };
                sched.schedule_in(config.checkpoint_interval, me, Msg::CheckpointTick);
                self.next_cp += 1;
                let id = self.next_cp;
                self.acks.pending.insert(id, BTreeSet::new());
                for &s in &self.sources {
                    sched.schedule_in(
                        VirtualDuration::from_micros(100),
                        s,
                        Msg::TriggerCheckpoint { id },
                    );
                }
            }
            Msg::CheckpointAck { task, id, snapshot, delta_parent, segments } => {
                let now = self.clock;
                let layer = SnapshotBlob { bytes: snapshot, parent: delta_parent };
                if self.acks.record(&mut self.snapshots, now, task, id, layer, segments).is_none() {
                    return;
                }
                self.metrics.event(now, format!("checkpoint {id} complete"));
                let mut sched = ActorSched {
                    me,
                    clock: self.clock,
                    timers: &mut self.timers,
                    seq: &mut self.seq,
                    outbox,
                };
                for i in 0..self.tasks.len() {
                    let t = self.tasks[i];
                    sched.schedule_in(
                        VirtualDuration::from_micros(100),
                        t,
                        Msg::CheckpointComplete { id },
                    );
                }
            }
            other => {
                self.errors
                    .push(format!("coordinator received unsupported {other:?} in parallel runtime"));
            }
        }
    }
}

pub(crate) enum CellKind {
    /// Boxed: a `TaskWorld` is ~2 KB (task + topics + metrics shard), a
    /// `CoordWorld` ~0.5 KB — unboxed they would inflate every `CellState`
    /// to the largest variant.
    Task(Box<TaskWorld>),
    Coord(Box<CoordWorld>),
}

/// Mutable half of a cell, guarded by one lock so a cell is only ever
/// processed by one worker at a time.
pub(crate) struct CellState {
    pub(crate) kind: CellKind,
    /// Messages a handler addressed to other actors, not yet flushed to
    /// their mailboxes (flushing can block on backpressure, so it happens
    /// after the handler returns, still under this cell's lock).
    pub(crate) outbox: VecDeque<(VirtualTime, ActorId, Msg)>,
}

/// One actor slot: mailbox (any thread) + locked state (one thread at a time).
pub(crate) struct ActorCell {
    /// The actor's id in the message plane (JM = 0, tasks as in the graph).
    pub(crate) id: ActorId,
    pub(crate) mailbox: Mailbox,
    pub(crate) state: Mutex<CellState>,
    /// True when the cell had nothing runnable at the end of its last sweep;
    /// cleared by producers when they push into the mailbox.
    pub(crate) parked: AtomicBool,
    /// The cell's published Lamport clock in µs — the coordinator's timer
    /// gate reads the minimum over task cells to pace checkpoint ticks.
    pub(crate) clock_us: AtomicU64,
}

impl ActorCell {
    pub(crate) fn new(id: ActorId, kind: CellKind, capacity: usize) -> ActorCell {
        ActorCell {
            id,
            mailbox: Mailbox::new(capacity),
            state: Mutex::new(CellState { kind, outbox: VecDeque::new() }),
            parked: AtomicBool::new(false),
            clock_us: AtomicU64::new(0),
        }
    }
}

impl CellState {
    /// Earliest due self-timer at or before `cutoff`, if any.
    pub(crate) fn due_timer_at(&self) -> Option<VirtualTime> {
        let timers = match &self.kind {
            CellKind::Task(w) => &w.timers,
            CellKind::Coord(w) => &w.timers,
        };
        timers.peek().map(|t| t.at)
    }

    pub(crate) fn pop_timer(&mut self) -> Option<TimerEntry> {
        match &mut self.kind {
            CellKind::Task(w) => w.timers.pop(),
            CellKind::Coord(w) => w.timers.pop(),
        }
    }

    pub(crate) fn clock(&self) -> VirtualTime {
        match &self.kind {
            CellKind::Task(w) => w.clock,
            CellKind::Coord(w) => w.clock,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_heap_is_a_min_heap_with_fifo_ties() {
        let mut h = BinaryHeap::new();
        h.push(TimerEntry { at: VirtualTime(30), seq: 0, msg: Msg::FlushTick });
        h.push(TimerEntry { at: VirtualTime(10), seq: 1, msg: Msg::FlushTick });
        h.push(TimerEntry { at: VirtualTime(10), seq: 2, msg: Msg::WatermarkTick });
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| h.pop()).map(|t| (t.at.as_micros(), t.seq)).collect();
        assert_eq!(order, [(10, 1), (10, 2), (30, 0)]);
    }

    #[test]
    fn sched_routes_self_to_timers_and_remote_to_outbox() {
        let mut timers = BinaryHeap::new();
        let mut seq = 0u64;
        let mut outbox = VecDeque::new();
        let mut s = ActorSched {
            me: 3,
            clock: VirtualTime(100),
            timers: &mut timers,
            seq: &mut seq,
            outbox: &mut outbox,
        };
        s.schedule_at(VirtualTime(50), 3, Msg::FlushTick); // past: clamps to now
        s.schedule_at(VirtualTime(200), 7, Msg::FlushTick);
        assert_eq!(timers.peek().unwrap().at, VirtualTime(100));
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].0, VirtualTime(200));
        assert_eq!(outbox[0].1, 7);
    }
}
