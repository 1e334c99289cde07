//! Standby tasks and state snapshot dispatch (§6.3–§6.4).
//!
//! In high-availability mode each running task has a passive standby that
//! mirrors its processing logic and receives the task's state snapshot after
//! every completed checkpoint. Standbys stay idle until the job manager
//! activates one to replace a failed task — a sub-second switch instead of a
//! cold restart plus state load.
//!
//! This module models *which* checkpoint each standby holds and *when* its
//! transfer lands; it keeps no bytes. The layers a standby was shipped are
//! the ones the snapshot store retains for that checkpoint, so the job
//! manager folds the image from the store at the moment it activates the
//! standby (DESIGN.md §3.9).
//!
//! The allocation strategy (which node hosts which standby) trades resource
//! usage against failure safety: co-locating a standby with its primary
//! makes that node a single point of failure.

use crate::{EpochId, TaskId};
use bytes::Bytes;
use clonos_sim::{VirtualDuration, VirtualTime};
use std::collections::BTreeMap;

/// Placement strategy for standby tasks (§6.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocationStrategy {
    /// Never place a standby on its primary's node (the safe default).
    AntiAffinity,
    /// Place each standby on the same node as its primary (performance over
    /// safety — both die together on a node failure).
    CoLocate,
}

/// One standby task's bookkeeping.
#[derive(Clone, Debug)]
pub struct StandbyTask {
    /// Node hosting the standby.
    pub node: u32,
    /// Checkpoint whose state the standby holds (None until first dispatch).
    pub snapshot_checkpoint: Option<EpochId>,
    /// When the most recent state transfer completes; activation before this
    /// instant must wait for the transfer (§6.4 last paragraph).
    pub transfer_done_at: VirtualTime,
}

/// Tracks every standby in a job.
#[derive(Debug, Default)]
pub struct StandbyManager {
    standbys: BTreeMap<TaskId, StandbyTask>,
    dispatches: u64,
    delta_dispatches: u64,
    bytes_dispatched: u64,
}

impl StandbyManager {
    pub fn new() -> StandbyManager {
        StandbyManager::default()
    }

    /// Register a standby for `task` according to the allocation strategy.
    pub fn register(
        &mut self,
        task: TaskId,
        primary_node: u32,
        num_nodes: u32,
        strategy: AllocationStrategy,
    ) {
        let node = match strategy {
            AllocationStrategy::CoLocate => primary_node,
            AllocationStrategy::AntiAffinity => {
                if num_nodes <= 1 {
                    primary_node
                } else {
                    (primary_node + 1) % num_nodes
                }
            }
        };
        self.standbys.insert(
            task,
            StandbyTask { node, snapshot_checkpoint: None, transfer_done_at: VirtualTime::ZERO },
        );
    }

    pub fn has_standby(&self, task: TaskId) -> bool {
        self.standbys.contains_key(&task)
    }

    pub fn get(&self, task: TaskId) -> Option<&StandbyTask> {
        self.standbys.get(&task)
    }

    /// Dispatch a completed checkpoint's state to the standby (§6.4).
    /// `transfer_time` models the snapshot shipping cost; returns when the
    /// standby will be up to date.
    pub fn dispatch_state(
        &mut self,
        task: TaskId,
        checkpoint: EpochId,
        state: Bytes,
        now: VirtualTime,
        transfer_time: VirtualDuration,
    ) -> Option<VirtualTime> {
        let sb = self.standbys.get_mut(&task)?;
        let done = now + transfer_time;
        sb.snapshot_checkpoint = Some(checkpoint);
        sb.transfer_done_at = done;
        self.dispatches += 1;
        self.bytes_dispatched += state.len() as u64;
        Some(done)
    }

    /// Dispatch only the delta between `parent` and `checkpoint` (§6.4 with
    /// incremental checkpoints): applicable when the standby already holds
    /// exactly the parent image, in which case only the delta bytes cross the
    /// network. Returns `None` — without touching the standby — when the
    /// parent doesn't match; the caller falls back to a full-image dispatch.
    pub fn dispatch_delta(
        &mut self,
        task: TaskId,
        checkpoint: EpochId,
        parent: EpochId,
        delta: Bytes,
        now: VirtualTime,
        transfer_time: VirtualDuration,
    ) -> Option<VirtualTime> {
        let sb = self.standbys.get_mut(&task)?;
        if sb.snapshot_checkpoint != Some(parent) {
            return None;
        }
        // An in-transit transfer of the parent finishes before the delta
        // starts shipping: serialize on the same link.
        let done = now.max(sb.transfer_done_at) + transfer_time;
        sb.snapshot_checkpoint = Some(checkpoint);
        sb.transfer_done_at = done;
        self.dispatches += 1;
        self.delta_dispatches += 1;
        self.bytes_dispatched += delta.len() as u64;
        Some(done)
    }

    /// Activate the standby for a failed task. Returns the checkpoint whose
    /// state it holds and the earliest instant the standby can start running
    /// (waiting out an in-transit state transfer if one is ongoing). `None`
    /// when no standby (or no state yet) exists — the caller falls back to a
    /// cold replacement.
    pub fn activate(&self, task: TaskId, now: VirtualTime) -> Option<(EpochId, VirtualTime)> {
        let sb = self.standbys.get(&task)?;
        Some((sb.snapshot_checkpoint?, now.max(sb.transfer_done_at)))
    }

    /// Interrupt an in-flight state transfer for `task`'s standby: if a
    /// transfer is still in transit at `now`, the partially-received state is
    /// discarded and the standby reverts to empty, so the next activation
    /// falls back to a cold start from the snapshot store. Returns `true`
    /// when a transfer was actually interrupted.
    pub fn interrupt_transfer(&mut self, task: TaskId, now: VirtualTime) -> bool {
        let Some(sb) = self.standbys.get_mut(&task) else { return false };
        if sb.snapshot_checkpoint.is_some() && sb.transfer_done_at > now {
            sb.snapshot_checkpoint = None;
            sb.transfer_done_at = now;
            true
        } else {
            false
        }
    }

    /// A node crashed: every standby hosted there loses its preloaded state
    /// and is re-provisioned on the next node (skipping `primary_of(task)` so
    /// anti-affinity survives relocation). Returns the affected tasks.
    pub fn fail_node(
        &mut self,
        node: u32,
        num_nodes: u32,
        now: VirtualTime,
        primary_of: impl Fn(TaskId) -> u32,
    ) -> Vec<TaskId> {
        let mut lost = Vec::new();
        for (&task, sb) in self.standbys.iter_mut() {
            if sb.node != node {
                continue;
            }
            lost.push(task);
            sb.snapshot_checkpoint = None;
            sb.transfer_done_at = now;
            if num_nodes > 1 {
                let mut next = (node + 1) % num_nodes;
                if next == primary_of(task) && num_nodes > 2 {
                    next = (next + 1) % num_nodes;
                }
                sb.node = next;
            }
        }
        lost
    }

    /// Tasks whose standby lives on `node` (all lost if that node fails).
    pub fn standbys_on_node(&self, node: u32) -> Vec<TaskId> {
        self.standbys.iter().filter(|(_, s)| s.node == node).map(|(&t, _)| t).collect()
    }

    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Dispatches that shipped only a delta (subset of `dispatches`).
    pub fn delta_dispatches(&self) -> u64 {
        self.delta_dispatches
    }

    pub fn bytes_dispatched(&self) -> u64 {
        self.bytes_dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anti_affinity_avoids_primary_node() {
        let mut m = StandbyManager::new();
        m.register(1, 3, 8, AllocationStrategy::AntiAffinity);
        assert_ne!(m.get(1).unwrap().node, 3);
        m.register(2, 7, 8, AllocationStrategy::AntiAffinity);
        assert_eq!(m.get(2).unwrap().node, 0); // wraps
    }

    #[test]
    fn colocate_uses_primary_node() {
        let mut m = StandbyManager::new();
        m.register(1, 3, 8, AllocationStrategy::CoLocate);
        assert_eq!(m.get(1).unwrap().node, 3);
        assert_eq!(m.standbys_on_node(3), vec![1]);
    }

    #[test]
    fn single_node_cluster_degenerates_gracefully() {
        let mut m = StandbyManager::new();
        m.register(1, 0, 1, AllocationStrategy::AntiAffinity);
        assert_eq!(m.get(1).unwrap().node, 0);
    }

    #[test]
    fn activation_without_state_fails_over_to_cold() {
        let mut m = StandbyManager::new();
        m.register(1, 0, 2, AllocationStrategy::AntiAffinity);
        assert!(m.activate(1, VirtualTime::ZERO).is_none());
        assert!(m.activate(99, VirtualTime::ZERO).is_none());
    }

    #[test]
    fn dispatch_then_activate_returns_latest_state() {
        let mut m = StandbyManager::new();
        m.register(1, 0, 2, AllocationStrategy::AntiAffinity);
        m.dispatch_state(1, 0, Bytes::from_static(b"cp0"), VirtualTime::ZERO, VirtualDuration::from_millis(5));
        m.dispatch_state(1, 1, Bytes::from_static(b"cp1"), VirtualTime(1_000_000), VirtualDuration::from_millis(5));
        let (cp, ready) = m.activate(1, VirtualTime(2_000_000)).unwrap();
        assert_eq!(cp, 1);
        assert_eq!(ready, VirtualTime(2_000_000)); // transfer long done
        assert_eq!(m.dispatches(), 2);
        assert_eq!(m.bytes_dispatched(), 6);
    }

    #[test]
    fn delta_dispatch_needs_the_parent_and_queues_behind_its_transfer() {
        let mut m = StandbyManager::new();
        m.register(1, 0, 2, AllocationStrategy::AntiAffinity);
        let delta = Bytes::from_static(b"d");
        let ms = VirtualDuration::from_millis;
        // Nothing held yet, then the wrong parent: refused, standby untouched.
        assert!(m.dispatch_delta(1, 2, 1, delta.clone(), VirtualTime::ZERO, ms(5)).is_none());
        m.dispatch_state(1, 1, Bytes::from_static(b"base"), VirtualTime::ZERO, ms(20));
        assert!(m.dispatch_delta(1, 3, 2, delta.clone(), VirtualTime::ZERO, ms(5)).is_none());
        assert_eq!(m.get(1).unwrap().snapshot_checkpoint, Some(1));
        // Holding the parent: accepted, shipped after the base lands.
        let done = m.dispatch_delta(1, 2, 1, delta, VirtualTime(1_000), ms(5)).unwrap();
        assert_eq!(done, VirtualTime(25_000));
        assert_eq!(m.activate(1, VirtualTime(1_000)), Some((2, done)));
        assert_eq!((m.dispatches(), m.delta_dispatches(), m.bytes_dispatched()), (2, 1, 5));
    }

    #[test]
    fn interrupt_drops_only_in_transit_transfers() {
        let mut m = StandbyManager::new();
        m.register(1, 0, 2, AllocationStrategy::AntiAffinity);
        m.dispatch_state(1, 0, Bytes::from_static(b"s"), VirtualTime(1_000_000), VirtualDuration::from_secs(3));
        // Transfer completes at t=4s; interrupting at t=5s is a no-op.
        assert!(!m.interrupt_transfer(1, VirtualTime(5_000_000)));
        assert!(m.activate(1, VirtualTime(5_000_000)).is_some());
        // A fresh transfer interrupted mid-flight loses the state: the next
        // activation must cold-start.
        m.dispatch_state(1, 1, Bytes::from_static(b"s2"), VirtualTime(6_000_000), VirtualDuration::from_secs(3));
        assert!(m.interrupt_transfer(1, VirtualTime(7_000_000)));
        assert!(m.activate(1, VirtualTime(7_000_000)).is_none());
        assert!(!m.interrupt_transfer(99, VirtualTime::ZERO));
    }

    #[test]
    fn node_failure_wipes_and_relocates_hosted_standbys() {
        let mut m = StandbyManager::new();
        // Primaries on nodes 0 and 1; anti-affinity puts standbys on 1 and 2.
        m.register(1, 0, 4, AllocationStrategy::AntiAffinity);
        m.register(2, 1, 4, AllocationStrategy::AntiAffinity);
        m.dispatch_state(1, 0, Bytes::from_static(b"a"), VirtualTime::ZERO, VirtualDuration::ZERO);
        m.dispatch_state(2, 0, Bytes::from_static(b"b"), VirtualTime::ZERO, VirtualDuration::ZERO);
        let lost = m.fail_node(1, 4, VirtualTime(1_000_000), |t| if t == 1 { 0 } else { 1 });
        assert_eq!(lost, vec![1]);
        // Task 1's standby lost its state and moved off the dead node — and
        // not onto its primary's node either.
        assert!(m.activate(1, VirtualTime(1_000_000)).is_none());
        let relocated = m.get(1).unwrap().node;
        assert_ne!(relocated, 1);
        assert_ne!(relocated, 0);
        // Task 2's standby (node 2) is untouched.
        assert!(m.activate(2, VirtualTime(1_000_000)).is_some());
    }

    #[test]
    fn activation_waits_for_in_transit_transfer() {
        let mut m = StandbyManager::new();
        m.register(1, 0, 2, AllocationStrategy::AntiAffinity);
        // Transfer started at t=1s and takes 3s.
        m.dispatch_state(1, 0, Bytes::from_static(b"s"), VirtualTime(1_000_000), VirtualDuration::from_secs(3));
        // Failure at t=2s: the standby is only ready at t=4s.
        let (_, ready) = m.activate(1, VirtualTime(2_000_000)).unwrap();
        assert_eq!(ready, VirtualTime(4_000_000));
    }
}
