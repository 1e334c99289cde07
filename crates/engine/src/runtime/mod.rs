//! The multi-threaded sharded actor runtime: a second implementation of the
//! [`Scheduler`](clonos_sim::Scheduler) contract next to the deterministic
//! sim queue.
//!
//! Each task becomes an actor with a bounded mailbox and a private world
//! (Lamport clock, timer queue, links, metrics shard, topic partitions);
//! actors are sharded round-robin across worker threads with work stealing,
//! and a coordinator actor hands every job-manager message to the cluster's
//! own `JobManager::handle` (the dispatch the sim runs) against the
//! cluster's snapshot store. Its actor scheduler cannot rebuild tasks, so
//! the job manager's recovery half refuses here: determinant replay, chaos
//! injection and the recovery oracles stay pinned to the sim scheduler —
//! this runtime only accepts failure-free plans and exists to measure and
//! scale the hot path.
//!
//! Lifecycle: `run` lifts the tasks, the job manager, the snapshot store and
//! the entropy stream out of a deployed [`Cluster`], drains the sim queue's
//! pending self-events into per-actor timer queues, runs the actor system to
//! quiescence under the virtual-time horizon, then folds every cell back
//! into the cluster (tasks, job manager, store and stream reinstalled,
//! metrics shards absorbed, sink appends merged into the shared topics) so
//! reporting, inspection and a later restore work exactly as after a sim
//! run.

mod actor;
mod mailbox;
mod worker;

use crate::cluster::Cluster;
use crate::metrics::RuntimeStats;
use clonos_sim::{ActorId, SimRng, VirtualTime};
use clonos_storage::log::DurableLog;
use std::collections::BTreeMap;
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

/// Copy one partition of a shared topic into a fresh per-actor log (same
/// name and partition count; the other partitions stay empty — each actor
/// only ever touches `subtask % partitions`). Record payloads are
/// refcounted `Bytes` and metadata is inline, so this is cheap.
fn clone_topic_partition(src: &DurableLog, part: usize) -> DurableLog {
    let mut t = DurableLog::new(src.name(), src.num_partitions());
    let p = part % src.num_partitions();
    for r in src.partition(p).fetch(0, usize::MAX) {
        t.partition_mut(p).append_with_meta(r.payload.clone(), r.meta);
    }
    t
}

/// Run a deployed cluster's job on the multi-threaded runtime until the
/// virtual-time horizon `until`, then fold all state back into the cluster.
/// Panics (like `Cluster::run_until`) if any task reports an engine error.
/// Failure-free only: callers must not have scheduled chaos or kills.
pub fn run(cluster: &mut Cluster, until: VirtualTime, pcfg: &ParallelConfig) -> RuntimeStats {
    let specs = cluster.graph.tasks.clone();
    let nworkers = pcfg.workers.max(1);

    // ---- Build the actor cells: coordinator first, then graph order. ----
    let mut cells: Vec<ActorCell> = Vec::with_capacity(specs.len() + 1);
    let mut index: BTreeMap<ActorId, usize> = BTreeMap::new();
    let jm = std::mem::take(&mut cluster.jm);
    let coord = (jm, std::mem::take(&mut cluster.snapshots), cluster.entropy.clone());
    cells.push(ActorCell::new(crate::cluster::JM, CellKind::Coord(Box::new(coord)), usize::MAX));
    index.insert(crate::cluster::JM, 0);
    for spec in &specs {
        let task = cluster
            .take_task(spec.id)
            .unwrap_or_else(|| panic!("task {} not deployed (deploy() first)", spec.id));
        let mut topics = BTreeMap::new();
        let mut sink_merge = None;
        if let Some(name) = task.source_topic().map(str::to_owned) {
            if let Some(src) = cluster.topics.get(&name) {
                topics.insert(name.clone(), clone_topic_partition(src, spec.subtask));
            }
        }
        if let Some(name) = task.sink_topic().map(str::to_owned) {
            if let Some(src) = cluster.topics.get(&name) {
                let part = spec.subtask % src.num_partitions();
                let base = src.partition(part).end_offset();
                topics.insert(name.clone(), clone_topic_partition(src, spec.subtask));
                sink_merge = Some((name, part, base));
            }
        }
        let world = TaskWorld {
            task,
            links: BTreeMap::new(),
            external: cluster.external.clone(),
            topics,
            entropy: SimRng::new(cluster.config.seed).fork(0xAC70).fork(spec.id),
            sink_merge,
        };
        index.insert(spec.id, cells.len());
        cells.push(ActorCell::new(spec.id, CellKind::Task(Box::new(world)), pcfg.mailbox_capacity));
    }

    // ---- Seed: move the sim queue's pending events (the self-ticks that
    // `deploy()` scheduled) into the owning actors' timer queues. ----
    while let Some(d) = cluster.sim.pop() {
        let Some(&idx) = index.get(&d.dest) else { continue };
        let state = cells[idx].state.get_mut().expect("cell lock poisoned before start");
        state.timers.schedule_at(d.at, d.dest, d.msg);
    }

    // ---- Run to quiescence. ----
    let shared = Shared {
        cells: &cells,
        index: &index,
        config: &cluster.config,
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

    // ---- Fold every cell back into the cluster. ----
    let highwater = cells.iter().skip(1).map(|c| c.mailbox.highwater()).max().unwrap_or(0);
    let mut errors: Vec<String> = Vec::new();
    for cell in cells {
        let id = cell.id;
        let state = cell.state.into_inner().expect("cell lock poisoned");
        cluster.metrics.absorb(state.metrics);
        errors.extend(state.errors);
        match state.kind {
            CellKind::Coord(w) => (cluster.jm, cluster.snapshots, cluster.entropy) = *w,
            CellKind::Task(mut w) => {
                if let Some((name, part, base)) = w.sink_merge.take() {
                    if let (Some(mine), Some(shared_topic)) =
                        (w.topics.get(&name), cluster.topics.get_mut(&name))
                    {
                        let fresh = mine.partition(part).fetch(base, usize::MAX);
                        let out = shared_topic.partition_mut(part);
                        for r in fresh {
                            out.append_with_meta(r.payload.clone(), r.meta);
                        }
                    }
                }
                cluster.install_task(id, w.task);
            }
        }
    }

    let stats = RuntimeStats {
        workers: nworkers as u64,
        steals: tallies.iter().map(|&(_, s)| s).sum(),
        mailbox_stalls: stalls,
        mailbox_depth_highwater: highwater,
        min_worker_events: tallies.iter().map(|&(h, _)| h).min().unwrap_or(0),
        max_worker_events: tallies.iter().map(|&(h, _)| h).max().unwrap_or(0),
    };
    cluster.runtime_stats = stats;

    if !errors.is_empty() {
        cluster.errors.extend(errors);
        panic!("engine error: {}", cluster.errors[0]);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::{append_input, clonos, counting_cluster};
    use clonos_sim::VirtualDuration;

    /// The coordinator cell works on the cluster's own job manager and store,
    /// so what a threaded run checkpointed is there to restore from afterwards.
    #[test]
    fn a_threaded_run_leaves_its_checkpoint_images_in_the_clusters_store() {
        let mut cluster = counting_cluster(clonos());
        // One second of input, then idle: the state at the 5 s cut is also
        // the state the run ends on.
        append_input(&mut cluster, 0..300);
        let horizon = VirtualTime::ZERO + VirtualDuration::from_secs(6);
        run(&mut cluster, horizon, &ParallelConfig { workers: 2, ..ParallelConfig::default() });

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
}
