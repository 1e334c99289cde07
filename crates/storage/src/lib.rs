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
//!   "external world" that makes UDF calls genuinely nondeterministic (§4.1).

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
