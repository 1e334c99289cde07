//! Checkpoint-coordinator logic that does not depend on the execution
//! substrate: the sim job manager (`Cluster::jm_ack`) and the threaded
//! runtime's coordinator (`runtime::actor::CoordWorld`) both drive it, each
//! wrapping its own messaging around it.

use crate::messages::SegmentAck;
use clonos::TaskId;
use clonos_sim::VirtualTime;
use clonos_storage::snapshot::{SnapshotBlob, SnapshotStore};
use std::collections::{BTreeMap, BTreeSet};

/// The coordinator's ack bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct AckLedger {
    /// Tasks in the job: a checkpoint completes when all have acked.
    pub(crate) total: usize,
    pub(crate) last_completed: u64,
    /// cp id → acked task set.
    pub(crate) pending: BTreeMap<u64, BTreeSet<TaskId>>,
}

impl AckLedger {
    /// Append `task`'s acked layer (and, for a tiered task, its segment view
    /// — first, so a read of this checkpoint can already fold it) to
    /// checkpoint `id`'s image in `store` and count the ack. Returns `id`
    /// when this was the last ack outstanding and the checkpoint is newer
    /// than any completed before; the store is then truncated to it.
    pub(crate) fn record(
        &mut self,
        store: &mut SnapshotStore,
        now: VirtualTime,
        task: TaskId,
        id: u64,
        layer: SnapshotBlob,
        segments: Option<Box<SegmentAck>>,
    ) -> Option<u64> {
        if let Some(seg) = segments {
            store.put_segments(id, task, seg.live, seg.sealed);
        }
        match layer.parent {
            Some(parent) => store.put_delta(now, id, task, parent, layer.bytes),
            None => store.put(now, id, task, layer.bytes),
        };
        let acked = self.pending.get_mut(&id)?;
        acked.insert(task);
        if acked.len() < self.total {
            return None;
        }
        self.pending.remove(&id);
        if id <= self.last_completed {
            return None;
        }
        self.last_completed = id;
        store.truncate_before(id);
        Some(id)
    }
}
