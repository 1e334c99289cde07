//! Worker threads, backpressure, and quiescence detection.
//!
//! Cells are sharded round-robin across workers; each worker sweeps its
//! shard delivering mailbox messages and due self-timers in per-actor
//! timestamp order. A worker with an empty sweep steals a pass over other
//! workers' non-parked cells. The coordinator cell runs on the driver
//! thread, which also detects quiescence: no handled events, no in-flight
//! mailbox messages, and every cell parked for three consecutive rounds.
//!
//! Backpressure: a full destination mailbox makes the producer stall. To
//! stay deadlock-free while holding its own state lock, a stalled producer
//! first drains one message from its *own* mailbox (progress without taking
//! a second lock; the stalled send stays at the front of the retry, so
//! per-destination FIFO holds), then tries to run the congested destination
//! cell itself (`try_lock`, recursion bounded by `MAX_HELP_DEPTH` — stall
//! chains follow dataflow edges, so depth is bounded by graph depth, and
//! the coordinator's mailbox is unbounded so control cycles can't jam), and
//! finally yields the CPU.

use crate::config::EngineConfig;
use crate::messages::Msg;
use clonos_sim::{ActorId, Delivery, VirtualTime};
use clonos_storage::external::ExternalKv;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use super::actor::{ActorCell, CellKind, CellState};

/// How many events a helping producer may run on the stalled destination.
const HELP_BUDGET: usize = 32;
/// Deepest chain of help recursion (≥ any realistic dataflow depth).
const MAX_HELP_DEPTH: usize = 64;

/// Everything the workers share, all borrowed or atomic.
pub(crate) struct Shared<'a, 'c> {
    /// Indexed by actor id: `cells[0]` is the coordinator, `cells[1..]` are
    /// the graph's tasks.
    pub(crate) cells: &'a [ActorCell<'c>],
    pub(crate) config: &'a EngineConfig,
    pub(crate) external: &'a ExternalKv,
    /// Events a worker may run on one cell before moving on.
    pub(crate) quantum: usize,
    /// Virtual-time horizon: events scheduled past it are left unrun.
    pub(crate) end: VirtualTime,
    pub(crate) shutdown: AtomicBool,
    /// Mailbox messages pushed but not yet handled (quiescence term).
    pub(crate) inflight: AtomicI64,
    /// Backpressure stalls (full destination mailbox), for `RuntimeStats`.
    pub(crate) stalls: AtomicU64,
}

/// Deliver one message to a cell's actor. Does NOT flush the outbox —
/// callers flush (or deliberately defer while a send is stalled).
fn deliver_raw(
    shared: &Shared<'_, '_>,
    idx: usize,
    state: &mut CellState<'_>,
    at: VirtualTime,
    msg: Msg,
) {
    state.deliver(shared.config, shared.external, idx as ActorId, at, msg);
}

/// Flush a cell's outbox into destination mailboxes, honouring
/// backpressure. Called with `state` locked; never blocks on another state
/// lock (helping uses `try_lock`). Returns events handled as a side effect
/// of stalls (self-drain + helping).
pub(crate) fn flush_outbox(
    shared: &Shared<'_, '_>,
    idx: usize,
    state: &mut CellState<'_>,
    depth: usize,
) -> u64 {
    let mut extra = 0u64;
    while let Some((at, dest, msg)) = state.outbox.pop_front() {
        // Note: sends stamped past the horizon are still delivered. Only
        // *timers* are horizon-gated — per-actor Lamport clocks race ahead
        // of the data flow in wall time (a stage burns through its flush
        // ticks long before upstream data arrives), so late timestamps say
        // nothing about whether the record logically fits in the run.
        // Delivering them drains all in-flight data, which is the
        // termination condition; the sim equivalent is a run whose input
        // fully drains before `until`.
        let dest_idx = dest as usize;
        let Some(dest_cell) = shared.cells.get(dest_idx) else {
            // Unknown destination: drop, as the sim's dead-letter path does.
            continue;
        };
        let mut d = Delivery { at, dest, msg };
        loop {
            match dest_cell.mailbox.try_push(d) {
                Ok(()) => {
                    shared.inflight.fetch_add(1, Ordering::SeqCst);
                    dest_cell.parked.store(false, Ordering::Release);
                    break;
                }
                Err(back) => {
                    d = back;
                    shared.stalls.fetch_add(1, Ordering::Relaxed);
                    // (a) Make progress on our own mailbox. New sends are
                    // appended to the outbox *behind* the stalled one, which
                    // keeps retrying at the front — FIFO per destination.
                    if let Some(own) = shared.cells[idx].mailbox.pop() {
                        deliver_raw(shared, idx, state, own.at, own.msg);
                        shared.inflight.fetch_sub(1, Ordering::SeqCst);
                        extra += 1;
                        continue;
                    }
                    // (b) Help: run the congested destination ourselves.
                    if depth < MAX_HELP_DEPTH {
                        extra += process_cell(shared, dest_idx, HELP_BUDGET, depth + 1);
                        continue;
                    }
                    // (c) Out of options: spin politely.
                    #[allow(clippy::disallowed_methods)]
                    // clonos-lint: allow(guard-across-park, reason = "audited: last rung of the drain→help→yield ladder (DESIGN.md §9) — the yield happens only after self-drain emptied our mailbox and help recursion hit MAX_HELP_DEPTH; holding `state` here is what makes the stalled send retry-safe, and the destination owner never waits on our state lock (try_lock only)")
                    std::thread::yield_now();
                }
            }
        }
    }
    extra
}

/// Run up to `budget` events on one cell: mailbox messages and due
/// self-timers, merged in per-actor timestamp order (timers win ties so a
/// cell's own ticks aren't starved by a busy mailbox). Returns events
/// handled; 0 if the cell was locked by another worker or had nothing due.
pub(crate) fn process_cell(shared: &Shared<'_, '_>, idx: usize, budget: usize, depth: usize) -> u64 {
    let cell = &shared.cells[idx];
    let Ok(mut state) = cell.state.try_lock() else { return 0 };
    let mut done = 0u64;
    while (done as usize) < budget && !shared.shutdown.load(Ordering::Relaxed) {
        let timer_at = state.timers.peek_time().filter(|&at| timer_due(shared, &state, at));
        // One mailbox lock per event: pop the front message iff it precedes
        // the due timer (the timer wins ties). Only the lock holder pops, so
        // the front can't change between the bound check and the pop.
        if let Some(d) = cell.mailbox.pop_before(timer_at) {
            deliver_raw(shared, idx, &mut state, d.at, d.msg);
            // Decrement only after handling so quiescence can't be declared
            // between pop and delivery.
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
            done += 1 + flush_outbox(shared, idx, &mut state, depth);
        } else if timer_at.is_some() {
            let Some(entry) = state.timers.pop() else { break };
            deliver_raw(shared, idx, &mut state, entry.at, entry.msg);
            done += 1 + flush_outbox(shared, idx, &mut state, depth);
        } else {
            break;
        }
    }
    // A task about to park with buffered output gets one forced flush at
    // its own clock: with its flush ticks horizon-gated and no barrier in
    // flight, nothing else would ever push the trailing partial buffers
    // out. (The injected tick also reschedules; a reschedule within the
    // horizon simply keeps the cell runnable for one more round.)
    if cell.mailbox.is_drained()
        && state.outbox.is_empty()
        && state.timers.peek_time().is_none_or(|at| !timer_due(shared, &state, at))
    {
        if let CellKind::Task(w) = &state.kind {
            if w.task.has_buffered_output() {
                let at = state.clock;
                deliver_raw(shared, idx, &mut state, at, Msg::FlushTick);
                done += 1 + flush_outbox(shared, idx, &mut state, depth);
            }
        }
    }
    // Publish park state + clock for the coordinator gate. Parked task
    // cells publish `end` so pending coordinator ticks aren't held hostage
    // by tasks that have run out of work. (A racing producer may push right
    // after the emptiness check; the owning worker's next sweep still
    // processes parked cells, and `inflight > 0` blocks quiescence.)
    // "No due timer" uses the same horizon/gate as dispatch: tasks keep
    // self-rescheduling ticks forever, so the heap is never literally empty
    // — entries past `end` (or still gated, for the coordinator) don't
    // count. A gate that later opens un-parks via the surrounding checks:
    // it only opens when every task publishes a clock ≥ the tick, which
    // parked tasks do by publishing `end`, and the driver re-sweeps the
    // coordinator every round regardless of its park flag.
    let parked = cell.mailbox.is_drained()
        && state.timers.peek_time().is_none_or(|at| !timer_due(shared, &state, at))
        && state.outbox.is_empty();
    let clock = if parked && !matches!(state.kind, CellKind::Coord { .. }) {
        shared.end
    } else {
        state.clock
    };
    cell.clock_us.store(clock.as_micros(), Ordering::Release);
    cell.parked.store(parked, Ordering::Release);
    done
}

/// Is a self-timer at `at` allowed to fire yet?
///
/// - Past the run horizon: never (as `Cluster::run_until` leaves post-`end`
///   events in the sim queue).
/// - Coordinator timers additionally wait until every task's published
///   clock has caught up to `at` — this paces checkpoint ticks against
///   actual task progress instead of burst-firing the whole schedule
///   against the coordinator's mostly-idle clock.
fn timer_due(shared: &Shared<'_, '_>, state: &CellState<'_>, at: VirtualTime) -> bool {
    if at > shared.end {
        return false;
    }
    if !matches!(state.kind, CellKind::Coord { .. }) {
        return true;
    }
    shared.cells[1..]
        .iter()
        .all(|c| VirtualTime(c.clock_us.load(Ordering::Acquire)) >= at)
}

/// One worker's main loop: sweep own shard, steal when idle, park briefly
/// when there is nothing anywhere. Returns `(events_handled, steals)`.
pub(crate) fn worker_loop(shared: &Shared<'_, '_>, worker: usize, nworkers: usize) -> (u64, u64) {
    let quantum = shared.quantum.max(1);
    let mut handled = 0u64;
    let mut steals = 0u64;
    let mut idle_rounds = 0u32;
    while !shared.shutdown.load(Ordering::Relaxed) {
        let mut did = 0u64;
        // Own shard: task cells idx >= 1 with (idx - 1) % nworkers == worker.
        let mut idx = 1 + worker;
        while idx < shared.cells.len() {
            did += process_cell(shared, idx, quantum, 0);
            idx += nworkers;
        }
        if did == 0 {
            // Steal one pass over someone else's non-parked cell.
            for idx in 1..shared.cells.len() {
                if (idx - 1) % nworkers == worker {
                    continue;
                }
                if shared.cells[idx].parked.load(Ordering::Acquire) {
                    continue;
                }
                let n = process_cell(shared, idx, quantum, 0);
                if n > 0 {
                    steals += 1;
                    did += n;
                    break;
                }
            }
        }
        handled += did;
        if did == 0 {
            // Spin-then-sleep: a gap is usually another thread mid-event, so
            // yield first (cheap, and on an oversubscribed host it hands the
            // core to whoever holds the work); only back off to a real sleep
            // after the gap has persisted for a while.
            idle_rounds += 1;
            // Idle backoff on host time, not modelled time: no lock is held
            // here and the sleep never shapes the virtual-time order.
            #[allow(clippy::disallowed_methods)]
            if idle_rounds < 64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_micros(20));
            }
        } else {
            idle_rounds = 0;
        }
    }
    (handled, steals)
}

/// The driver loop: runs the coordinator cell and declares shutdown after
/// three consecutive quiet rounds (nothing handled, nothing in flight,
/// every cell parked). Returns events handled on the coordinator.
///
/// The driver sleeps whenever the coordinator handled nothing — not only
/// when the whole job is quiet. The coordinator spends most of the run
/// waiting for the next gated checkpoint tick; polling it in a tight loop
/// would contend with the workers for cores and mailbox cache lines (on a
/// single-core host it would steal roughly half the machine). Checkpoint
/// acks tolerate the extra ~50µs of latency easily.
pub(crate) fn coordinator_loop(shared: &Shared<'_, '_>) -> u64 {
    let mut handled = 0u64;
    let mut quiet_rounds = 0u32;
    loop {
        let n = process_cell(shared, 0, 256, 0);
        handled += n;
        if n > 0 {
            quiet_rounds = 0;
            continue;
        }
        let quiet = shared.inflight.load(Ordering::SeqCst) == 0
            && shared.cells.iter().all(|c| c.parked.load(Ordering::Acquire));
        if quiet {
            quiet_rounds += 1;
            if quiet_rounds >= 3 {
                shared.shutdown.store(true, Ordering::SeqCst);
                return handled;
            }
        } else {
            quiet_rounds = 0;
        }
        // Host-time poll backoff; lock-free at this point (see doc comment).
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}
