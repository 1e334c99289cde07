//! The multi-threaded sharded actor runtime: a second implementation of the
//! [`Scheduler`](clonos_sim::Scheduler) contract next to the deterministic
//! sim queue.
//!
//! Each task becomes an actor with a bounded mailbox and a private world
//! (Lamport clock, timer queue, links, entropy stream, metrics shard);
//! actors are sharded round-robin across worker threads with work stealing,
//! and a coordinator actor hands every job-manager message to the cluster's
//! own `JobManager::handle` (the dispatch the sim runs) against the
//! cluster's snapshot store. Its actor scheduler cannot rebuild tasks, so
//! the job manager's recovery half refuses here: determinant replay, chaos
//! injection and the recovery oracles stay pinned to the sim scheduler —
//! this runtime only accepts failure-free plans and exists to measure and
//! scale the hot path.
//!
//! Lifecycle: `run` borrows a deployed [`Cluster`] for one scoped run. Each
//! task cell holds a `&mut` to its task in the cluster's slots; the
//! coordinator cell holds the cluster's job manager, snapshot store and
//! entropy stream; every cell reads the cluster's one external service. A
//! source or sink cell is lent its topic partition (moved out, not copied)
//! and hands it back when the run ends, so its appends land in the cluster's
//! topic in the order the task made them. `run` drains the sim queue's
//! pending self-events into per-actor timer queues, runs the actor system to
//! quiescence under the virtual-time horizon, and then absorbs each cell's
//! metrics shard. What a cell keeps private — its outgoing links and its
//! forked entropy stream — ends with the run. Reporting, inspection and a
//! later restore then work exactly as after a sim run.

mod actor;
mod mailbox;
mod worker;

use crate::cluster::Cluster;
use crate::metrics::RuntimeStats;
use clonos::TaskId;
use clonos_sim::{SimRng, VirtualTime};
use clonos_storage::log::DurableLog;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use actor::{ActorCell, CellKind, TaskWorld};
use worker::{coordinator_loop, worker_loop, Shared};

/// Knobs for the parallel runtime.
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Worker threads (the coordinator runs on the calling thread).
    pub workers: usize,
    /// Bounded mailbox capacity per task actor (backpressure threshold).
    /// The coordinator's mailbox is always unbounded.
    pub mailbox_capacity: usize,
    /// Events a worker runs on one actor before moving to the next.
    pub quantum: usize,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig { workers: 4, mailbox_capacity: 256, quantum: 128 }
    }
}

/// Move partition `part` of one topic from one log to the other: the
/// cluster's log lends it to a cell's for the run and takes it back after.
fn move_partition(from: &mut DurableLog, to: &mut DurableLog, part: usize) {
    *to.partition_mut(part) = std::mem::take(from.partition_mut(part));
}

/// Run a deployed cluster's job on the multi-threaded runtime until the
/// virtual-time horizon `until`. Panics (like `Cluster::run_until`) if any
/// task reports an engine error, and refuses a job where two source or sink
/// tasks share a topic partition. Failure-free only: callers must not have
/// scheduled chaos or kills.
pub fn run(cluster: &mut Cluster, until: VirtualTime, pcfg: &ParallelConfig) -> RuntimeStats {
    let nworkers = pcfg.workers.max(1);
    let Cluster { sim, external, topics, snapshots, config, entropy, metrics, graph, tasks, jm, errors, .. } =
        cluster;

    // ---- The partition each source and sink task reads or writes: one
    // partition can be lent to one cell only. ----
    let mut lent: BTreeMap<TaskId, (String, usize)> = BTreeMap::new();
    let mut taken: BTreeSet<(&str, usize)> = BTreeSet::new();
    for (&id, slot) in tasks.iter() {
        let task = slot.as_ref().unwrap_or_else(|| panic!("task {id} not deployed (deploy() first)"));
        let Some(name) = task.source_topic().or(task.sink_topic()) else { continue };
        let Some((name, log)) = topics.get_key_value(name) else { continue };
        let part = graph.task(id).subtask % log.num_partitions();
        assert!(
            taken.insert((name, part)),
            "topic {name} partition {part} is shared by two source or sink tasks: the threaded \
             runtime lends each its own partition (create the topic with as many partitions as \
             its vertex's parallelism)"
        );
        lent.insert(id, (name.clone(), part));
    }

    // ---- Build the actor cells, indexed by actor id: the coordinator (0),
    // then the tasks (1..=n, as `ExecutionGraph::expand` numbers them). ----
    let mut cells: Vec<ActorCell> = Vec::with_capacity(tasks.len() + 1);
    cells.push(ActorCell::new(CellKind::Coord { jm, snapshots, entropy }, usize::MAX));
    for (&id, slot) in tasks.iter_mut() {
        assert_eq!(id, cells.len() as TaskId, "actor ids are dense");
        let mut own_topics = BTreeMap::new();
        if let Some((name, part)) = lent.get(&id) {
            let log = topics.get_mut(name).expect("lent topic exists");
            let mut mine = DurableLog::new(name.as_str(), log.num_partitions());
            move_partition(log, &mut mine, *part);
            own_topics.insert(name.clone(), mine);
        }
        let world = TaskWorld {
            task: slot.as_mut().expect("checked above"),
            links: BTreeMap::new(),
            topics: own_topics,
            entropy: SimRng::new(config.seed).fork(0xAC70).fork(id),
        };
        cells.push(ActorCell::new(CellKind::Task(Box::new(world)), pcfg.mailbox_capacity));
    }

    // ---- Seed: move the sim queue's pending events (the self-ticks that
    // `deploy()` scheduled) into the owning actors' timer queues. ----
    while let Some(d) = sim.pop() {
        let Some(cell) = cells.get_mut(d.dest as usize) else { continue };
        let state = cell.state.get_mut().expect("cell lock poisoned before start");
        state.timers.schedule_at(d.at, d.dest, d.msg);
    }

    // ---- Run to quiescence. ----
    let shared = Shared {
        cells: &cells,
        config,
        external,
        quantum: pcfg.quantum,
        end: until,
        shutdown: AtomicBool::new(false),
        inflight: AtomicI64::new(0),
        stalls: AtomicU64::new(0),
    };
    let mut tallies: Vec<(u64, u64)> = Vec::with_capacity(nworkers);
    std::thread::scope(|s| {
        let sh = &shared;
        let handles: Vec<_> = (0..nworkers)
            .map(|w| s.spawn(move || worker_loop(sh, w, nworkers)))
            .collect();
        // The calling thread is the driver: coordinator + quiescence.
        coordinator_loop(&shared);
        for h in handles {
            tallies.push(h.join().expect("worker thread panicked"));
        }
    });
    let stalls = shared.stalls.load(Ordering::SeqCst);

    // ---- Tear down: absorb the metrics shards, hand the partitions back. ----
    let highwater = cells.iter().skip(1).map(|c| c.mailbox.highwater()).max().unwrap_or(0);
    for cell in cells {
        let state = cell.state.into_inner().expect("cell lock poisoned");
        metrics.absorb(state.metrics);
        errors.extend(state.errors);
        if let CellKind::Task(mut w) = state.kind {
            if let Some((name, part)) = lent.get(&w.task.spec.id) {
                let mine = w.topics.get_mut(name).expect("lent partition");
                move_partition(mine, topics.get_mut(name).expect("lent topic exists"), *part);
            }
        }
    }
    if let Some(first) = errors.first() {
        panic!("engine error: {first}");
    }
    RuntimeStats {
        workers: nworkers as u64,
        steals: tallies.iter().map(|&(_, s)| s).sum(),
        mailbox_stalls: stalls,
        mailbox_depth_highwater: highwater,
        min_worker_events: tallies.iter().map(|&(h, _)| h).min().unwrap_or(0),
        max_worker_events: tallies.iter().map(|&(h, _)| h).max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::{append_input, clonos, counting_cluster};
    use crate::graph::{JobGraph, Partitioning, SinkSpec, SourceSpec};
    use crate::task::effective_sink_meta;
    use bytes::Bytes;
    use clonos_sim::VirtualDuration;

    fn six_seconds_on_two_workers(cluster: &mut Cluster) {
        let horizon = VirtualTime::ZERO + VirtualDuration::from_secs(6);
        run(cluster, horizon, &ParallelConfig { workers: 2, ..ParallelConfig::default() });
    }

    /// The coordinator cell works on the cluster's own job manager and store,
    /// so what a threaded run checkpointed is there to restore from afterwards.
    #[test]
    fn a_threaded_run_leaves_its_checkpoint_images_in_the_clusters_store() {
        let mut cluster = counting_cluster(clonos());
        // One second of input, then idle: the state at the 5 s cut is also
        // the state the run ends on.
        append_input(&mut cluster, 0..300);
        six_seconds_on_two_workers(&mut cluster);

        assert_eq!(cluster.metrics.records_out, 4_000);
        let cp = cluster.last_completed_checkpoint();
        assert_eq!(cp, 1);
        let live = cluster.state_digests();
        assert_eq!(live.len(), 3);
        for (task, digest) in live {
            let restored = cluster
                .snapshot_of(cp, task)
                .unwrap_or_else(|| panic!("task {task}: checkpoint {cp} image missing or undecodable"));
            assert_eq!(Some(restored.store.digest()), digest, "task {task}");
        }
    }

    /// The sink cell appends to the cluster's own partition: what was there
    /// before the run stays first, and the source partition is handed back
    /// whole.
    #[test]
    fn a_threaded_run_appends_behind_what_the_sink_partition_already_held() {
        let mut cluster = counting_cluster(clonos());
        append_input(&mut cluster, 0..300);
        let earlier: Vec<Bytes> = (0..3u8).map(|i| Bytes::from(vec![i; 4])).collect();
        let out = cluster.topic_mut("out").expect("sink topic");
        for payload in &earlier {
            out.partition_mut(0).append(payload.clone());
        }
        six_seconds_on_two_workers(&mut cluster);

        assert_eq!(cluster.topic("in").expect("source topic").partition(0).end_offset(), 4_000);
        let out = cluster.topic("out").expect("sink topic").partition(0);
        let records = out.fetch(0, usize::MAX);
        assert_eq!(records.len(), 3 + 4_000);
        let (before, after) = records.split_at(3);
        assert!(before.iter().map(|r| &r.payload).eq(&earlier));
        assert!(after.iter().all(|r| r.meta.is_some()), "a record of the run without sink metadata");
        let idents: Vec<u64> = effective_sink_meta(out, 3).iter().map(|m| m.ident).collect();
        assert_eq!(idents.len(), 4_000);
        assert!(idents.windows(2).all(|w| w[0] < w[1]), "the run's records left the sink's order");
    }

    /// Two source subtasks on a one-partition topic would each read the
    /// whole partition if each got its own copy; the run refuses instead.
    #[test]
    #[should_panic(expected = "topic in partition 0 is shared by two source or sink tasks")]
    fn a_threaded_run_refuses_two_sources_on_one_partition() {
        let mut g = JobGraph::new("shared");
        let src = g.add_source("src", 2, SourceSpec::new("in").rate(4_000));
        let snk = g.add_sink("out", 2, SinkSpec { topic: "out".into() });
        g.connect(src, snk, Partitioning::Forward);
        let mut cluster = Cluster::new(g, clonos());
        cluster.create_topic("in", 1);
        cluster.create_topic("out", 2);
        six_seconds_on_two_workers(&mut cluster);
    }
}
