//! Per-actor state for the multi-threaded runtime: a task (or the
//! coordinator) plus everything it needs to run without touching shared
//! mutable state — its own Lamport clock, timer queue, per-pair links,
//! metrics shard, and (for sources/sinks) private topic partitions. All
//! cross-actor communication goes through mailboxes; a cell's state is only
//! ever mutated under its state lock.

use crate::config::EngineConfig;
use crate::coordinator::{JmCtx, JobManager, TaskHost};
use crate::messages::Msg;
use crate::metrics::JobMetrics;
use crate::task::{Task, TaskCtx};
use clonos::TaskId;
use clonos_sim::{ActorId, Link, Scheduler, SimRng, Simulation, VirtualTime};
use clonos_storage::external::ExternalKv;
use clonos_storage::log::DurableLog;
use clonos_storage::snapshot::SnapshotStore;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Mutex;

use super::mailbox::Mailbox;

/// The `Scheduler` the runtime hands to handlers: `now` is the actor's
/// Lamport clock; self-addressed messages go to the cell's timer queue (a
/// private `Simulation`: same `(at, insertion)` order as the sim), and
/// everything else is staged in the outbox for the worker to flush through
/// the destination mailbox (with backpressure) after the handler returns.
pub(crate) struct ActorSched<'a> {
    pub(crate) me: ActorId,
    pub(crate) clock: VirtualTime,
    pub(crate) timers: &'a mut Simulation<Msg>,
    pub(crate) outbox: &'a mut VecDeque<(VirtualTime, ActorId, Msg)>,
}

impl Scheduler<Msg> for ActorSched<'_> {
    fn now(&self) -> VirtualTime {
        self.clock
    }

    fn schedule_at(&mut self, at: VirtualTime, dest: ActorId, msg: Msg) {
        let at = at.max(self.clock);
        if dest == self.me {
            self.timers.schedule_at(at, dest, msg);
        } else {
            self.outbox.push_back((at, dest, msg));
        }
    }
}

/// The coordinator cell's host: it cannot rebuild or cancel tasks, so the
/// job manager's recovery half refuses here (the threaded runtime runs
/// failure-free plans only).
impl TaskHost for ActorSched<'_> {}

/// One task plus its private copies of what `TaskCtx` borrows.
pub(crate) struct TaskWorld {
    pub(crate) task: Task,
    pub(crate) links: BTreeMap<(TaskId, TaskId), Link>,
    pub(crate) external: ExternalKv,
    pub(crate) topics: BTreeMap<String, DurableLog>,
    pub(crate) entropy: SimRng,
    /// `(topic, partition, base_offset)` — records this actor appends to its
    /// private sink partition at offsets `>= base_offset` are merged back
    /// into the cluster's shared topic at teardown.
    pub(crate) sink_merge: Option<(String, usize, u64)>,
}

pub(crate) enum CellKind {
    /// Boxed: a `TaskWorld` is ~2 KB (task + topics) — unboxed it would
    /// inflate every `CellState`.
    Task(Box<TaskWorld>),
    /// The cluster's own job manager, snapshot store and entropy stream,
    /// lent to the coordinator cell for the run and handed back at teardown.
    Coord(Box<(JobManager, SnapshotStore, SimRng)>),
}

/// Mutable half of a cell, guarded by one lock so a cell is only ever
/// processed by one worker at a time.
pub(crate) struct CellState {
    pub(crate) kind: CellKind,
    /// Lamport clock: the latest delivery time this actor has seen.
    pub(crate) clock: VirtualTime,
    /// Messages the actor scheduled for itself.
    pub(crate) timers: Simulation<Msg>,
    pub(crate) metrics: JobMetrics,
    pub(crate) errors: Vec<String>,
    /// Messages a handler addressed to other actors, not yet flushed to
    /// their mailboxes (flushing can block on backpressure, so it happens
    /// after the handler returns, still under this cell's lock).
    pub(crate) outbox: VecDeque<(VirtualTime, ActorId, Msg)>,
}

impl CellState {
    /// Run actor `me`'s handler for `msg`, delivered at `at`.
    pub(crate) fn deliver(&mut self, config: &EngineConfig, me: ActorId, at: VirtualTime, msg: Msg) {
        self.clock = self.clock.max(at);
        let mut sched =
            ActorSched { me, clock: self.clock, timers: &mut self.timers, outbox: &mut self.outbox };
        match &mut self.kind {
            CellKind::Task(w) => {
                let mut ctx = TaskCtx {
                    sched: &mut sched,
                    links: &mut w.links,
                    external: &mut w.external,
                    topics: &mut w.topics,
                    config,
                    entropy: &mut w.entropy,
                    metrics: &mut self.metrics,
                };
                if let Err(e) = w.task.handle(msg, &mut ctx) {
                    self.errors.push(format!("task {me}: {e}"));
                }
            }
            CellKind::Coord(w) => {
                let (jm, snapshots, entropy) = &mut **w;
                let mut ctx = JmCtx {
                    host: &mut sched,
                    snapshots,
                    config,
                    metrics: &mut self.metrics,
                    entropy,
                    errors: &mut self.errors,
                };
                if let Err(e) = jm.handle(msg, &mut ctx) {
                    self.errors.push(format!("job manager: {e}"));
                }
            }
        }
    }
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
        let state = CellState {
            kind,
            clock: VirtualTime::ZERO,
            timers: Simulation::new(),
            metrics: JobMetrics::default(),
            errors: Vec::new(),
            outbox: VecDeque::new(),
        };
        ActorCell {
            id,
            mailbox: Mailbox::new(capacity),
            state: Mutex::new(state),
            parked: AtomicBool::new(false),
            clock_us: AtomicU64::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_routes_self_to_timers_and_remote_to_outbox() {
        let mut timers = Simulation::new();
        let mut outbox = VecDeque::new();
        let mut s =
            ActorSched { me: 3, clock: VirtualTime(100), timers: &mut timers, outbox: &mut outbox };
        s.schedule_at(VirtualTime(50), 3, Msg::FlushTick); // past: clamps to now
        s.schedule_at(VirtualTime(200), 7, Msg::FlushTick);
        assert_eq!(timers.peek_time(), Some(VirtualTime(100)));
        assert_eq!(timers.pending(), 1);
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].0, VirtualTime(200));
        assert_eq!(outbox[0].1, 7);
    }
}
