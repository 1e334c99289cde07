//! Per-actor state for the multi-threaded runtime: a task (or the
//! coordinator) borrowed from the cluster, plus everything it needs to run
//! without touching shared mutable state — its own Lamport clock, timer
//! queue, per-pair links, entropy stream, metrics shard, and (for sources and
//! sinks) the one topic partition the cluster lent it. All cross-actor
//! communication goes through mailboxes; a cell's state is only ever mutated
//! under its state lock.

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

/// One of the cluster's tasks plus what `TaskCtx` lends it on this thread.
pub(crate) struct TaskWorld<'c> {
    pub(crate) task: &'c mut Task,
    /// This actor's outgoing links.
    pub(crate) links: BTreeMap<(TaskId, TaskId), Link>,
    /// A source's or sink's topic, holding only the partition the cluster
    /// lent for the run; `run` hands it back at teardown.
    pub(crate) topics: BTreeMap<String, DurableLog>,
    /// A stream forked for this actor: the cluster's own stream is the
    /// coordinator's.
    pub(crate) entropy: SimRng,
}

pub(crate) enum CellKind<'c> {
    /// Boxed: inline, the world's per-send fields (links, entropy) would
    /// share cache lines with the cell's mailbox lock and `parked` flag,
    /// which other threads write; the threaded chain probe at two workers
    /// read about 5 % lower that way (EXPERIMENTS.md E1t).
    Task(Box<TaskWorld<'c>>),
    /// The cluster's own job manager, snapshot store and entropy stream.
    Coord { jm: &'c mut JobManager, snapshots: &'c mut SnapshotStore, entropy: &'c mut SimRng },
}

/// Mutable half of a cell, guarded by one lock so a cell is only ever
/// processed by one worker at a time.
pub(crate) struct CellState<'c> {
    pub(crate) kind: CellKind<'c>,
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

impl CellState<'_> {
    /// Run actor `me`'s handler for `msg`, delivered at `at`.
    pub(crate) fn deliver(
        &mut self,
        config: &EngineConfig,
        external: &ExternalKv,
        me: ActorId,
        at: VirtualTime,
        msg: Msg,
    ) {
        self.clock = self.clock.max(at);
        let mut sched =
            ActorSched { me, clock: self.clock, timers: &mut self.timers, outbox: &mut self.outbox };
        match &mut self.kind {
            CellKind::Task(w) => {
                let mut ctx = TaskCtx {
                    sched: &mut sched,
                    links: &mut w.links,
                    external,
                    topics: &mut w.topics,
                    config,
                    entropy: &mut w.entropy,
                    metrics: &mut self.metrics,
                };
                if let Err(e) = w.task.handle(msg, &mut ctx) {
                    self.errors.push(format!("task {me}: {e}"));
                }
            }
            CellKind::Coord { jm, snapshots, entropy } => {
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
pub(crate) struct ActorCell<'c> {
    pub(crate) mailbox: Mailbox,
    pub(crate) state: Mutex<CellState<'c>>,
    /// True when the cell had nothing runnable at the end of its last sweep;
    /// cleared by producers when they push into the mailbox.
    pub(crate) parked: AtomicBool,
    /// The cell's published Lamport clock in µs — the coordinator's timer
    /// gate reads the minimum over task cells to pace checkpoint ticks.
    pub(crate) clock_us: AtomicU64,
}

impl<'c> ActorCell<'c> {
    pub(crate) fn new(kind: CellKind<'c>, capacity: usize) -> ActorCell<'c> {
        let state = CellState {
            kind,
            clock: VirtualTime::ZERO,
            timers: Simulation::new(),
            metrics: JobMetrics::default(),
            errors: Vec::new(),
            outbox: VecDeque::new(),
        };
        ActorCell {
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
