//! # clonos-storage — storage substrates for the Clonos reproduction
//!
//! The paper's deployment uses Kafka as the durable source/sink, HDFS as the
//! checkpoint store, local disks for spilling, and arbitrary external
//! services reachable from UDFs. This crate provides faithful in-process
//! substitutes:
//!
//! - [`codec`] — the compact binary encoding shared by records, determinants
//!   and snapshots;
//! - [`log`] — [`log::DurableLog`], a partitioned, offset-addressable,
//!   replayable record log with per-partition FIFO semantics, plus the
//!   determinant-metadata side channel needed for Clonos' low-latency
//!   exactly-once output (§5.5);
//! - [`deltamap`] — the sectioned key/value image format behind incremental
//!   checkpoints: full images, deltas with tombstones, chain merging;
//! - [`snapshot`] — [`snapshot::SnapshotStore`], checkpoints keyed by
//!   `(checkpoint id, task)` stored as base + delta chains with modelled
//!   transfer cost;
//! - [`spill`] — [`spill::SpillDevice`], an I/O-cost-modelled append device
//!   backing the spilling in-flight log (§6.1);
//! - [`lsm`] — [`lsm::TieredStore`], the tiered log-structured state
//!   backend: bounded memtable, leveled segments on the spill device,
//!   size-tiered compaction; it dies with its task's incarnation, and what
//!   outlives a failure is the checkpoint (DESIGN.md §10);
//! - [`external`] — [`external::ExternalKv`], a time-varying key-value
//!   "external world" that makes UDF calls genuinely nondeterministic (§4.1);
//! - [`TransferModel`] — the modelled cost of moving bytes, one constant for
//!   the spill device's disk and one for the snapshot store's network.

pub mod codec;
pub mod deltamap;
pub mod external;
pub mod log;
pub mod lsm;
pub mod snapshot;
pub mod spill;

pub use codec::{ByteReader, ByteWriter, CodecError};
pub use external::ExternalKv;
pub use log::{DurableLog, LogPartition, Offset};
pub use lsm::{TierStats, TieredConfig, TieredStore};
pub use snapshot::{SnapshotBlob, SnapshotId, SnapshotStore};
pub use spill::{SpillDevice, SpillHandle};

use clonos_sim::VirtualDuration;

/// Cost model for one transfer: a fixed cost (syscall and seek, or connection
/// setup) plus streaming time at a sustained, nonzero bytes per second.
#[derive(Clone, Copy, Debug)]
pub struct TransferModel {
    fixed: VirtualDuration,
    bytes_per_sec: u64,
}

impl TransferModel {
    /// A local disk, 100 µs per operation and 500 MB/s sequential — a
    /// commodity SSD: the spill device.
    pub const DISK: TransferModel =
        TransferModel { fixed: VirtualDuration::from_micros(100), bytes_per_sec: 500_000_000 };
    /// ~10 ms setup and 200 MB/s sustained — a modest distributed FS: the
    /// snapshot store.
    pub const NETWORK: TransferModel =
        TransferModel { fixed: VirtualDuration::from_millis(10), bytes_per_sec: 200_000_000 };

    /// Modelled duration of moving `bytes` in one transfer.
    pub fn cost(&self, bytes: u64) -> VirtualDuration {
        self.fixed + VirtualDuration::from_micros(bytes.saturating_mul(1_000_000) / self.bytes_per_sec)
    }
}
